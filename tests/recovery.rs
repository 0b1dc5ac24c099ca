//! Crash-recovery fault-injection suite: the durability subsystem's
//! contract, proven differentially.
//!
//! The durability model reduces every crash to a WAL prefix length (chunk
//! files and the manifest are fsynced *before* anything references them),
//! so [`FaultFs`] can simulate any kill point by snapshotting the database
//! directory and truncating its log at an arbitrary byte offset. The
//! contract pinned here:
//!
//! 1. **Exactly the committed prefix.** For *any* kill point, reopening
//!    recovers precisely the publications whose WAL record survived
//!    complete — never a partially-applied publication, never a lost
//!    committed one. The oracle is `ongoing_bench::naive`: a serialized
//!    replay of the longest committed operation prefix over a plain
//!    `Vec<Tuple>`.
//! 2. **Torn ≠ corrupt.** A record the crash cut short is truncated away
//!    silently; a *complete* record (or manifest, or chunk file) whose
//!    bytes were damaged surfaces as [`EngineError::CorruptStorage`] — not
//!    a panic, not silent data loss.
//! 3. **Laziness.** Opening reads no chunk files (`tuples_loaded == 0`
//!    until first table access), which is also why chunk damage surfaces
//!    at `table()`, not at `open()`.
//! 4. **The codec is total.** Every `Value` shape and run-time interval
//!    set round-trips exactly, and every strict prefix of an encoding is
//!    rejected.

use ongoing_bench::naive as model;
use ongoing_core::time::tp;
use ongoing_core::{IntervalSet, OngoingInt, OngoingInterval, OngoingPoint, TimePoint};
use ongoing_relation::{Expr, OngoingRelation, Schema, Tuple, Value};
use ongoingdb::engine::modify::Modifier;
use ongoingdb::engine::storage::{codec, manifest, wal, DurableOptions, FaultFs, TempDir};
use ongoingdb::engine::{Database, EngineError};
use proptest::prelude::*;
use std::path::Path;

const CHUNK: usize = ongoing_relation::TARGET_CHUNK_ROWS;

fn schema() -> Schema {
    Schema::builder().int("K").int("G").interval("VT").build()
}

fn k_eq(k: i64) -> Expr {
    Expr::Col(0).eq(Expr::lit(k))
}

/// Test options: no fsync (crashes are simulated by explicit truncation,
/// and the suite should not hammer the build machine's disks).
fn opts(checkpoint_bytes: u64) -> DurableOptions {
    DurableOptions {
        fsync: false,
        checkpoint_bytes,
        ..Default::default()
    }
}

/// Seed relation plus the naive model's view of the same rows.
fn seed(rows: usize) -> (OngoingRelation, Vec<Tuple>) {
    let mut rel = OngoingRelation::new(schema());
    let mut model_rows = Vec::new();
    for i in 0..rows as i64 {
        let iv = OngoingInterval::fixed(tp(i % 17), tp(i % 17 + 4));
        let vals = vec![Value::Int(i % 12), Value::Int(0), Value::Interval(iv)];
        rel.insert(vals.clone()).unwrap();
        model_rows.push(Tuple::base(vals));
    }
    (rel, model_rows)
}

/// A deterministic relation big enough to span sealed chunks.
fn big_relation(rows: usize) -> OngoingRelation {
    let mut r = OngoingRelation::new(schema());
    for i in 0..rows as i64 {
        let iv = OngoingInterval::from_until_now(tp(i % 97));
        r.insert(vec![Value::Int(i), Value::Int(i % 13), Value::Interval(iv)])
            .unwrap();
    }
    r
}

/// The sequence number of the last publication the directory holds
/// durably: the checkpoint LSN, or the last complete WAL record past it.
fn durable_seq(dir: &Path) -> u64 {
    let lsn = manifest::read_manifest(&ongoingdb::engine::RealFs, &dir.join("MANIFEST"))
        .unwrap()
        .map_or(0, |m| m.lsn);
    let (records, _tail) = wal::scan(&ongoingdb::engine::RealFs, &dir.join("wal.log")).unwrap();
    lsn.max(records.last().map_or(0, |(seq, _, _)| *seq))
}

// ---------------------------------------------------------------------
// 1. Differential crash-injection property: any kill point recovers
//    exactly the committed prefix, replayed by the naive model.
// ---------------------------------------------------------------------

/// One randomized committed publication.
#[derive(Debug, Clone)]
enum Op {
    InsertOpen { k: i64, start: i64 },
    Terminate { k: i64, at: i64 },
    Update { k: i64, g: i64, at: i64 },
    Delete { k: i64 },
    CreateIndex,
}

fn arb_op() -> impl Strategy<Value = Op> {
    let k = 0i64..12;
    prop_oneof![
        (k.clone(), 0i64..60).prop_map(|(k, start)| Op::InsertOpen { k, start }),
        (k.clone(), 0i64..60).prop_map(|(k, at)| Op::Terminate { k, at }),
        (k.clone(), 0i64..9, 0i64..60).prop_map(|(k, g, at)| Op::Update { k, g, at }),
        k.prop_map(|k| Op::Delete { k }),
        (0u8..1).prop_map(|_| Op::CreateIndex),
    ]
}

/// Applies one op through the durable catalog (one publication each).
fn apply_db(db: &Database, op: &Op) {
    match op {
        Op::InsertOpen { k, start } => {
            db.modify_table("T", |rel| {
                Modifier::new(rel, "VT")?.insert_open(
                    vec![Value::Int(*k), Value::Int(1), Value::Bool(false)],
                    tp(*start),
                )
            })
            .unwrap();
        }
        Op::Terminate { k, at } => {
            db.modify_table("T", |rel| {
                Modifier::new(rel, "VT")?.terminate(&k_eq(*k), tp(*at))
            })
            .unwrap();
        }
        Op::Update { k, g, at } => {
            db.modify_table("T", |rel| {
                Modifier::new(rel, "VT")?.update(&k_eq(*k), &[(1, Value::Int(*g))], tp(*at))
            })
            .unwrap();
        }
        Op::Delete { k } => {
            db.modify_table("T", |rel| Modifier::new(rel, "VT")?.delete(&k_eq(*k)))
                .unwrap();
        }
        Op::CreateIndex => db.create_key_index("T", "K").unwrap(),
    }
}

/// Applies the same op to the naive model (index creation is a logical
/// no-op).
fn apply_model(rows: &mut Vec<Tuple>, op: &Op) {
    match op {
        Op::InsertOpen { k, start } => model::insert_open(rows, *k, 1, tp(*start)),
        Op::Terminate { k, at } => model::terminate(rows, *k, tp(*at)),
        Op::Update { k, g, at } => model::update(rows, *k, *g, tp(*at)),
        Op::Delete { k } => model::delete(rows, *k),
        Op::CreateIndex => {}
    }
}

/// Reopens the crash snapshot at `dir` and checks it against the naive
/// replay of the longest committed prefix (`states[s - 1]` for durable
/// sequence `s`; sequence 0 means not even `create_table` survived).
fn assert_recovers_committed_prefix(dir: &Path, states: &[Vec<Tuple>]) {
    let s = durable_seq(dir) as usize;
    let db = Database::open_with(dir, opts(u64::MAX)).unwrap();
    if s == 0 {
        assert!(
            matches!(db.table("T"), Err(EngineError::UnknownTable(_))),
            "nothing was durable, yet the table exists"
        );
        return;
    }
    // Laziness: recovery planned the table but read no chunk file yet.
    assert_eq!(db.durable_stats().unwrap().tuples_loaded, 0);
    let expect = &states[s - 1];
    let table = db.table("T").unwrap();
    let got: Vec<Tuple> = table.data().iter().cloned().collect();
    assert_eq!(
        &got, expect,
        "recovery at durable seq {s} diverged from the naive replay"
    );
    // No partially-applied publication is visible at any instantiation
    // point either (the paper's bind criterion).
    let oracle = OngoingRelation::from_tuples(schema(), expect.clone()).unwrap();
    for rt in (-2i64..70).step_by(13) {
        assert_eq!(table.data().bind(tp(rt)), oracle.bind(tp(rt)), "rt {rt}");
    }
}

proptest! {
    #[test]
    fn any_kill_point_recovers_exactly_the_committed_prefix(
        seed_rows in 0usize..30,
        ops in proptest::collection::vec(arb_op(), 1..20),
        cut_mills in proptest::collection::vec(0u64..1001, 1..4),
        checkpointed in 0u8..2,
    ) {
        // Run the workload against a durable database; every op is one
        // publication and must cost exactly one WAL record (O(delta):
        // commits append, they never rewrite). `states[i]` is the naive
        // model after WAL sequence i + 1 (seq 1 = create_table).
        let home = TempDir::new("rec-home");
        let checkpoint_bytes = if checkpointed == 1 { 512 } else { u64::MAX };
        let db = Database::open_with(home.path(), opts(checkpoint_bytes)).unwrap();
        let (rel, mut rows) = seed(seed_rows);
        db.create_table("T", rel).unwrap();
        let mut states = vec![rows.clone()];
        for (i, op) in ops.iter().enumerate() {
            apply_db(&db, op);
            apply_model(&mut rows, op);
            states.push(rows.clone());
            prop_assert_eq!(
                db.durable_stats().unwrap().wal_records,
                i as u64 + 2,
                "a publication must append exactly one WAL record"
            );
        }
        drop(db);

        // Kill the log at arbitrary byte offsets and reopen each snapshot.
        let wal_len = FaultFs::file_len(&home.path().join("wal.log")).unwrap();
        for (c, mills) in cut_mills.iter().enumerate() {
            let crash = TempDir::new(&format!("rec-crash{c}"));
            let dst = crash.path().join("db");
            FaultFs::clone_dir(home.path(), &dst).unwrap();
            FaultFs::truncate(&dst.join("wal.log"), wal_len * mills / 1000).unwrap();
            assert_recovers_committed_prefix(&dst, &states);
        }
    }
}

/// The same contract, exhaustively: *every* byte offset of a small WAL is
/// a valid kill point, and each one recovers a clean committed prefix.
#[test]
fn every_wal_byte_offset_is_a_recoverable_kill_point() {
    let home = TempDir::new("rec-exhaustive");
    let db = Database::open_with(home.path(), opts(u64::MAX)).unwrap();
    let (rel, mut rows) = seed(8);
    db.create_table("T", rel).unwrap();
    let mut states = vec![rows.clone()];
    for op in [
        Op::InsertOpen { k: 3, start: 10 },
        Op::Terminate { k: 3, at: 30 },
        Op::Delete { k: 5 },
    ] {
        apply_db(&db, &op);
        apply_model(&mut rows, &op);
        states.push(rows.clone());
    }
    drop(db);

    let wal_len = FaultFs::file_len(&home.path().join("wal.log")).unwrap();
    let crash = TempDir::new("rec-exhaustive-crash");
    for cut in 0..=wal_len {
        let dst = crash.path().join(format!("at-{cut}"));
        FaultFs::clone_dir(home.path(), &dst).unwrap();
        FaultFs::truncate(&dst.join("wal.log"), cut).unwrap();
        assert_recovers_committed_prefix(&dst, &states);
        std::fs::remove_dir_all(&dst).unwrap();
    }
}

// ---------------------------------------------------------------------
// 2. Corruption is detected, not absorbed: damage to a *complete* WAL
//    record, the manifest, or a chunk file surfaces as CorruptStorage.
// ---------------------------------------------------------------------

/// A small durable database with a few committed publications, dropped
/// (crashed cleanly) so the suite can mutilate its files.
fn crashed_db(dir: &Path, checkpoint: bool) {
    let db = Database::open_with(dir, opts(u64::MAX)).unwrap();
    db.create_table("T", big_relation(CHUNK + 40)).unwrap();
    apply_db(&db, &Op::Terminate { k: 7, at: 50 });
    apply_db(&db, &Op::InsertOpen { k: 900, start: 5 });
    if checkpoint {
        db.persist().unwrap();
    }
}

#[test]
fn midlog_damage_is_corruption_not_truncation() {
    let home = TempDir::new("rec-midlog");
    crashed_db(home.path(), false);
    // Flip a byte inside the *body* of the first record (header is 8
    // bytes) with later records intact: a complete record failing its
    // checksum is damage, not a torn tail, and must refuse to open.
    FaultFs::flip_byte(&home.path().join("wal.log"), 10).unwrap();
    match Database::open_with(home.path(), opts(u64::MAX)) {
        Err(EngineError::CorruptStorage(msg)) => {
            assert!(msg.contains("wal"), "{msg}");
        }
        other => panic!("expected CorruptStorage, got {other:?}"),
    }
}

#[test]
fn torn_final_record_truncates_cleanly() {
    let home = TempDir::new("rec-torn");
    crashed_db(home.path(), false);
    // Cut 3 bytes off the last record: a torn append, recovered silently
    // to the previous publication (seq 2 of 3).
    let wal = home.path().join("wal.log");
    let len = FaultFs::file_len(&wal).unwrap();
    FaultFs::truncate(&wal, len - 3).unwrap();
    assert_eq!(durable_seq(home.path()), 2);
    let db = Database::open_with(home.path(), opts(u64::MAX)).unwrap();
    let table = db.table("T").unwrap();
    assert_eq!(table.data().len(), CHUNK + 40, "insert must be rolled back");
    // The reopened log was physically truncated: appending works and the
    // next recovery sees the new publication.
    apply_db(&db, &Op::Delete { k: 3 });
    drop(db);
    assert_eq!(durable_seq(home.path()), 3);
}

#[test]
fn manifest_damage_is_detected() {
    let home = TempDir::new("rec-manifest");
    crashed_db(home.path(), true);
    FaultFs::flip_byte(&home.path().join("MANIFEST"), 40).unwrap();
    match Database::open_with(home.path(), opts(u64::MAX)) {
        Err(EngineError::CorruptStorage(msg)) => assert!(msg.contains("MANIFEST"), "{msg}"),
        other => panic!("expected CorruptStorage, got {other:?}"),
    }
}

#[test]
fn chunk_damage_surfaces_lazily_at_first_access() {
    let home = TempDir::new("rec-chunk");
    crashed_db(home.path(), true);
    // Damage one chunk file. Recovery is lazy, so opening still succeeds…
    let chunk = std::fs::read_dir(home.path().join("chunks"))
        .unwrap()
        .next()
        .expect("checkpoint must have written chunk files")
        .unwrap()
        .path();
    FaultFs::flip_byte(&chunk, 21).unwrap();
    let db = Database::open_with(home.path(), opts(u64::MAX)).unwrap();
    assert_eq!(db.durable_stats().unwrap().tuples_loaded, 0);
    if DurableOptions::default().memory_budget == u64::MAX {
        // …and the damage is reported on first materialization (eager
        // loading reads and verifies every chunk file).
        match db.table("T") {
            Err(EngineError::CorruptStorage(_)) => {}
            other => panic!("expected CorruptStorage, got {other:?}"),
        }
    } else {
        // Under a finite memory budget materialization is lazy too — the
        // table comes back over cold chunks with zero reads — so the
        // damage surfaces as a typed error at first page-in instead.
        let table = db.table("T").unwrap();
        let err = table
            .data()
            .lazy_views()
            .iter()
            .find_map(|v| v.pin().err())
            .expect("damage must surface at first page-in");
        assert!(err.0.contains("corrupt"), "{}", err.0);
    }
}

// ---------------------------------------------------------------------
// 3. Persistence round-trip: layout, key indexes and writability survive
//    recovery, through both the WAL-replay and the checkpoint path.
// ---------------------------------------------------------------------

#[test]
fn recovered_database_preserves_indexes_and_accepts_writes() {
    let home = TempDir::new("rec-roundtrip");
    let expect: Vec<Tuple>;
    {
        let db = Database::open_with(home.path(), opts(u64::MAX)).unwrap();
        db.create_table("T", big_relation(CHUNK + 100)).unwrap();
        db.create_key_index("T", "K").unwrap();
        apply_db(&db, &Op::Terminate { k: 9, at: 40 });
        db.persist().unwrap(); // checkpoint path
        apply_db(&db, &Op::Delete { k: 11 }); // WAL-replay path on top
        expect = db.table("T").unwrap().data().iter().cloned().collect();
    }
    // First recovery: exact data, key index still declared.
    let db = Database::open_with(home.path(), opts(u64::MAX)).unwrap();
    let table = db.table("T").unwrap();
    let got: Vec<Tuple> = table.data().iter().cloned().collect();
    assert_eq!(got, expect);
    assert_eq!(table.data().key_indexed_columns(), &[0]);
    assert!(db.durable_stats().unwrap().tuples_loaded > 0);
    // The recovered table keeps accepting (and persisting) publications.
    apply_db(&db, &Op::InsertOpen { k: 777, start: 3 });
    let expect2: Vec<Tuple> = db.table("T").unwrap().data().iter().cloned().collect();
    drop(db);
    let db = Database::open_with(home.path(), opts(u64::MAX)).unwrap();
    let got2: Vec<Tuple> = db.table("T").unwrap().data().iter().cloned().collect();
    assert_eq!(got2, expect2);
}

/// The key column of every row, in storage order.
fn keys(rel: &OngoingRelation) -> Vec<i64> {
    rel.iter().map(|t| t.value(0).as_int().unwrap()).collect()
}

#[test]
fn a_table_from_another_database_persists_under_its_own_chunk_ids() {
    let budget = |memory_budget| DurableOptions {
        memory_budget,
        ..opts(u64::MAX)
    };
    // Database A: a persisted 1 024-row `T`, reopened cold under 64 KiB.
    let (home_a, home_b) = (TempDir::new("rec-foreign-a"), TempDir::new("rec-foreign-b"));
    {
        let a = Database::open_with(home_a.path(), budget(u64::MAX)).unwrap();
        a.create_table("T", big_relation(2 * CHUNK)).unwrap();
        a.persist().unwrap();
    }
    let a = Database::open_with(home_a.path(), budget(64 << 10)).unwrap();
    let foreign = a.table("T").unwrap().data().clone();
    assert!(foreign.pager().is_some(), "A's `T` must reopen cold");
    // Database B first persists its own `U` (keys 100000 and up): its
    // chunk ids start where A's did.
    let mut u = OngoingRelation::new(schema());
    for k in 100_000..100_000 + 2 * CHUNK as i64 {
        let iv = OngoingInterval::from_until_now(tp(k % 97));
        u.insert(vec![Value::Int(k), Value::Int(0), Value::Interval(iv)])
            .unwrap();
    }
    {
        let b = Database::open_with(home_b.path(), budget(u64::MAX)).unwrap();
        b.create_table("U", u).unwrap();
        b.persist().unwrap();
        b.create_table("T", foreign).unwrap();
        assert!(b.table("T").unwrap().data().pager().is_none());
        b.persist().unwrap();
    }
    drop(a);
    let b = Database::open_with(home_b.path(), budget(u64::MAX)).unwrap();
    let want: Vec<i64> = (0..2 * CHUNK as i64).collect();
    assert_eq!(keys(b.table("T").unwrap().data()), want);
    let u_keys = keys(b.table("U").unwrap().data());
    assert_eq!(u_keys.first(), Some(&100_000));
}

#[test]
fn drop_table_is_durable() {
    let home = TempDir::new("rec-drop");
    {
        let db = Database::open_with(home.path(), opts(u64::MAX)).unwrap();
        db.create_table("T", big_relation(20)).unwrap();
        db.create_table("U", big_relation(10)).unwrap();
        db.drop_table("T").unwrap();
    }
    let db = Database::open_with(home.path(), opts(u64::MAX)).unwrap();
    assert!(matches!(db.table("T"), Err(EngineError::UnknownTable(_))));
    assert_eq!(db.table("U").unwrap().data().len(), 10);
}

// ---------------------------------------------------------------------
// 4. Codec totality: every Value shape and RT shape round-trips, and
//    every strict prefix of an encoding is rejected.
// ---------------------------------------------------------------------

fn arb_time() -> impl Strategy<Value = TimePoint> {
    prop_oneof![
        (-1_000i64..1_000).prop_map(tp),
        (0u8..1).prop_map(|_| TimePoint::NEG_INF),
        (0u8..1).prop_map(|_| TimePoint::POS_INF),
    ]
}

fn arb_point() -> impl Strategy<Value = OngoingPoint> {
    prop_oneof![
        (-500i64..500).prop_map(|a| OngoingPoint::fixed(tp(a))),
        (0u8..1).prop_map(|_| OngoingPoint::now()),
        (-500i64..500).prop_map(|a| OngoingPoint::growing(tp(a))),
        (-500i64..500).prop_map(|b| OngoingPoint::limited(tp(b))),
        ((-500i64..500), (0i64..300))
            .prop_map(|(a, d)| OngoingPoint::new(tp(a), tp(a + d)).unwrap()),
    ]
}

fn arb_rt() -> impl Strategy<Value = IntervalSet> {
    prop_oneof![
        (0u8..1).prop_map(|_| IntervalSet::empty()),
        (0u8..1).prop_map(|_| IntervalSet::full()),
        proptest::collection::vec(((1i64..20), (1i64..20)), 0..5).prop_map(|parts| {
            // Disjoint, sorted ranges: gap then length, left to right.
            let mut cur = -100i64;
            let mut ranges = Vec::new();
            for (gap, len) in parts {
                ranges.push((tp(cur + gap), tp(cur + gap + len)));
                cur += gap + len;
            }
            IntervalSet::from_ranges(ranges)
        }),
    ]
}

fn arb_count() -> impl Strategy<Value = OngoingInt> {
    prop_oneof![
        (-50i64..50).prop_map(OngoingInt::constant),
        arb_point().prop_map(OngoingInt::from_point),
        arb_rt().prop_map(|s| OngoingInt::indicator(&s)),
        (arb_point(), arb_point())
            .prop_map(|(ts, te)| OngoingInt::duration(OngoingInterval::new(ts, te))),
    ]
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        "[a-z]{0,12}".prop_map(|s| Value::str(&s)),
        (0usize..3).prop_map(|i| Value::str(["", "héllo wörld", "データ"][i])),
        any::<bool>().prop_map(Value::Bool),
        arb_time().prop_map(Value::Time),
        (arb_time(), arb_time()).prop_map(|(s, e)| Value::Span(s, e)),
        arb_point().prop_map(Value::Point),
        (arb_point(), arb_point())
            .prop_map(|(ts, te)| Value::Interval(OngoingInterval::new(ts, te))),
        arb_count().prop_map(Value::Count),
    ]
}

proptest! {
    #[test]
    fn codec_round_trips_every_value_and_rt_shape(
        values in proptest::collection::vec(arb_value(), 0..6),
        rt in arb_rt(),
    ) {
        let t = Tuple::with_rt(values, rt);
        let bytes = codec::encode_tuple(&t);
        prop_assert_eq!(codec::decode_tuple(&bytes).unwrap(), t);
        // The encoding is exactly consumed, so every strict prefix — a
        // chunk or WAL payload cut short — must fail loudly.
        for cut in 0..bytes.len() {
            prop_assert!(
                codec::decode_tuple(&bytes[..cut]).is_err(),
                "prefix of {cut}/{} bytes decoded", bytes.len()
            );
        }
    }
}
