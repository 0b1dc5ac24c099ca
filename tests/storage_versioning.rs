//! Versioned copy-on-write tuple store: storage-layer contracts.
//!
//! The storage refactor promises four things, each pinned here:
//!
//! 1. **Snapshot isolation** — a reader holding a pinned table version
//!    never observes a concurrent writer's effects, and the writer's new
//!    version physically shares every untouched chunk with the snapshot.
//! 2. **Readers never wait for writers** — the `modify_table` closure runs
//!    against a private fork, so readers proceed while a modification is
//!    in flight; a publication the closure itself attempts is refused
//!    with [`EngineError::NestedPublication`] instead of corrupting.
//! 3. **Chunked scans ≡ flat scans** — executing over the chunk-partitioned
//!    store is bit-identical (results, order, work-unit stats) at every
//!    parallelism level, with overlays, tombstones and insert chunks
//!    present.
//! 4. **Deltas are exact** — `compact()` is semantically a no-op, and the
//!    staleness accounting counts a one-row edit as one row no matter
//!    where in the table the row sits (the positional-diff regression).
//! 5. **Publication is O(delta)** — a fixed-size edit costs the same
//!    store write units and WAL payload on a 10 k- and a 100 k-row table,
//!    and sustained churn never spends O(table) on one publication.
//!
//! Plus differential checks: random `Modifier` sequences and a sustained
//! catalog churn against a naive `Vec<Tuple>` re-implementation of the
//! same semantics.

use ongoing_core::date::md;
use ongoing_core::time::tp;
use ongoing_core::{OngoingInterval, OngoingPoint};
use ongoing_relation::{Expr, OngoingRelation, Schema, Tuple, Value};
use ongoingdb::datasets::synthetic::{generate, SyntheticConfig};
use ongoingdb::engine::modify::Modifier;
use ongoingdb::engine::plan::{compile, PlannerConfig};
use ongoingdb::engine::storage::TempDir;
use ongoingdb::engine::{Database, DurableOptions, EngineError, ExecContext};
use ongoingdb::engine::{LogicalPlan, QueryBuilder};
use proptest::prelude::*;

const CHUNK: usize = ongoing_relation::TARGET_CHUNK_ROWS;

fn schema() -> Schema {
    Schema::builder().int("K").int("G").interval("VT").build()
}

/// A deterministic relation big enough to span several chunks.
fn big_relation(rows: usize) -> OngoingRelation {
    let mut r = OngoingRelation::new(schema());
    for i in 0..rows as i64 {
        let start = tp(i % 97);
        let iv = if i % 3 == 0 {
            OngoingInterval::from_until_now(start)
        } else {
            OngoingInterval::fixed(start, tp(i % 97 + 5 + i % 11))
        };
        r.insert(vec![Value::Int(i), Value::Int(i % 13), Value::Interval(iv)])
            .unwrap();
    }
    r
}

fn k_eq(k: i64) -> Expr {
    Expr::Col(0).eq(Expr::lit(k))
}

// ---------------------------------------------------------------------
// 1. Snapshot isolation + physical sharing.
// ---------------------------------------------------------------------

#[test]
fn pinned_version_is_isolated_from_writers_and_shares_chunks() {
    let rows = 3 * CHUNK + 100;
    let db = Database::new();
    db.create_table("T", big_relation(rows)).unwrap();

    // Pin the current version and materialize what the reader sees.
    let snap = db.table("T").unwrap();
    let before: Vec<Tuple> = snap.data().iter().cloned().collect();

    // Writer: terminate one key, delete another, insert a fresh row.
    let n = db
        .modify_table("T", |rel| {
            let mut m = Modifier::new(rel, "VT")?;
            let a = m.terminate(&k_eq(7), tp(50))?;
            let b = m.delete(&k_eq((CHUNK + 3) as i64))?;
            m.insert_open(
                vec![Value::Int(-1), Value::Int(0), Value::Bool(false)],
                tp(5),
            )?;
            Ok(a + b)
        })
        .unwrap();
    assert_eq!(n, 2);

    // The pinned snapshot is untouched — same length, same tuples.
    assert_eq!(snap.data().len(), rows);
    let after_snap: Vec<Tuple> = snap.data().iter().cloned().collect();
    assert_eq!(after_snap, before, "reader observed writer effects");

    // The published version differs, but shares every untouched chunk.
    let current = db.table("T").unwrap();
    assert_eq!(current.data().len(), rows); // -1 deleted, +1 inserted
    let shared = current.data().shares_chunks_with(snap.data());
    let snap_chunks = snap.data().storage_summary().chunks;
    assert!(
        shared >= snap_chunks - 2,
        "version shares {shared} of {snap_chunks} chunks with its base"
    );
    assert!(current.data().iter().any(|t| t.value(0) == &Value::Int(-1)));
}

// ---------------------------------------------------------------------
// 2. Readers never wait for writers: readers proceed mid-modification;
//    a publication from inside the closure errors instead of clobbering.
// ---------------------------------------------------------------------

#[test]
fn closure_runs_off_lock_and_conflicts_error() {
    let db = Database::new();
    db.create_table("T", big_relation(CHUNK)).unwrap();

    // Reading the table *from inside the closure* works because the
    // closure runs against a private fork with no catalog lock held (the
    // pre-refactor implementation deadlocked here). Replacing it from
    // inside would race the closure's own publication, so that call is
    // refused with the typed error; the closure runs once and its edit
    // commits.
    let mut runs = 0u32;
    db.modify_table("T", |rel| {
        runs += 1;
        let mid_write_view = db.table("T").expect("reader not blocked by writer");
        assert_eq!(mid_write_view.data().len(), CHUNK);
        let mut m = Modifier::new(rel, "VT")?;
        m.delete(&k_eq(3))?;
        match db.put_table("T", big_relation(10)) {
            Err(EngineError::NestedPublication(table)) => assert_eq!(table, "T"),
            other => panic!("expected NestedPublication, got {other:?}"),
        }
        Ok(())
    })
    .unwrap();
    assert_eq!(runs, 1, "the closure runs exactly once");
    // The refused replacement was not applied; the closure's delete was.
    let data = db.table("T").unwrap().data().clone();
    assert_eq!(data.len(), CHUNK - 1);
    assert!(!data.iter().any(|t| t.value(0) == &Value::Int(3)));
}

// ---------------------------------------------------------------------
// 3. Serial ≡ parallel over genuinely fragmented stores.
// ---------------------------------------------------------------------

/// Fragments T: overlays in several chunks, tombstones, splits, and a
/// small insert-batch chunk on top of the dense base.
fn fragmented_db(rows: usize) -> Database {
    let db = Database::new();
    db.create_table("T", big_relation(rows)).unwrap();
    db.create_table("S", big_relation(90)).unwrap();
    db.modify_table("T", |rel| {
        let mut m = Modifier::new(rel, "VT")?;
        for k in [2i64, 55, 1000, 1500, 2400] {
            m.terminate(&k_eq(k), tp(40))?;
        }
        m.update(
            &Expr::Col(1).eq(Expr::lit(5i64)),
            &[(0, Value::Int(9999))],
            tp(30),
        )?;
        m.delete(&k_eq(70))?;
        for i in 0..20 {
            m.insert_open(
                vec![
                    Value::Int(100_000 + i),
                    Value::Int(i % 13),
                    Value::Bool(false),
                ],
                tp(10 + i % 40),
            )?;
        }
        Ok(())
    })
    .unwrap();
    let s = db.table("T").unwrap().data().storage_summary();
    assert!(s.overlay_rows > 0, "fixture must carry overlays: {s:?}");
    assert!(s.dead_rows > 0, "fixture must carry tombstones: {s:?}");
    db
}

fn plans(db: &Database) -> Vec<LogicalPlan> {
    let filter =
        QueryBuilder::scan_as(db, "T", "A")
            .unwrap()
            .filter(|s| {
                Ok(Expr::col(s, "A.VT")?.overlaps(Expr::lit(Value::Interval(
                    OngoingInterval::fixed(tp(20), tp(60)),
                ))))
            })
            .unwrap()
            .build();
    let hash = QueryBuilder::scan_as(db, "T", "L")
        .unwrap()
        .join(QueryBuilder::scan_as(db, "S", "R").unwrap(), |s| {
            Ok(Expr::col(s, "L.G")?
                .eq(Expr::col(s, "R.G")?)
                .and(Expr::col(s, "L.VT")?.overlaps(Expr::col(s, "R.VT")?)))
        })
        .unwrap()
        .build();
    let sweep = QueryBuilder::scan_as(db, "T", "L")
        .unwrap()
        .join(QueryBuilder::scan_as(db, "S", "R").unwrap(), |s| {
            Ok(Expr::col(s, "L.VT")?.overlaps(Expr::col(s, "R.VT")?))
        })
        .unwrap()
        .build();
    vec![filter, hash, sweep]
}

#[test]
fn chunked_scans_are_bit_identical_at_every_parallelism() {
    let db = fragmented_db(3 * CHUNK);
    for (i, plan) in plans(&db).iter().enumerate() {
        let phys = compile(&db, plan, &PlannerConfig::default()).unwrap();
        let (serial, serial_stats) = phys.execute_with_stats(&ExecContext::serial()).unwrap();
        for p in [1usize, 2, 4, 8] {
            let ctx = ExecContext::new(p);
            let (parallel, parallel_stats) = phys.execute_with_stats(&ctx).unwrap();
            assert_eq!(parallel, serial, "plan {i}, parallelism {p}: result");
            assert_eq!(
                parallel_stats, serial_stats,
                "plan {i}, parallelism {p}: stats"
            );
            for rt in [tp(0), tp(25), tp(47), tp(90)] {
                let (rows_s, st_s) = phys.rows_at_with_stats(rt, &ExecContext::serial()).unwrap();
                let (rows_p, st_p) = phys.rows_at_with_stats(rt, &ctx).unwrap();
                assert_eq!(rows_p, rows_s, "plan {i}, p {p}, rt {rt}: rows");
                assert_eq!(st_p, st_s, "plan {i}, p {p}, rt {rt}: stats");
            }
        }
    }
}

// ---------------------------------------------------------------------
// 4a. Delta-then-compact equivalence.
// ---------------------------------------------------------------------

#[test]
fn compact_is_a_semantic_noop() {
    let db = fragmented_db(2 * CHUNK);
    let fragmented = db.table("T").unwrap().data().clone();
    let mut compacted = fragmented.clone();
    compacted.compact().unwrap();

    // Same logical relation…
    assert_eq!(compacted, fragmented);
    assert_eq!(compacted.len(), fragmented.len());
    assert!(compacted.iter().eq(fragmented.iter()));
    for rt in [tp(0), tp(33), tp(80)] {
        assert_eq!(compacted.bind(rt), fragmented.bind(rt));
    }
    // …different physical layout: folded dense.
    let s = compacted.storage_summary();
    assert_eq!(s.overlay_rows, 0);
    assert_eq!(s.dead_rows, 0);
    assert_eq!(s.pending_rows, 0);

    // Queries over a compacted catalog table match the fragmented run.
    let plan = plans(&db).remove(0);
    let phys = compile(&db, &plan, &PlannerConfig::default()).unwrap();
    let (frag_result, frag_stats) = phys.execute_with_stats(&ExecContext::new(4)).unwrap();
    db.put_table("T", compacted).unwrap();
    let phys = compile(&db, &plan, &PlannerConfig::default()).unwrap();
    let (comp_result, comp_stats) = phys.execute_with_stats(&ExecContext::new(4)).unwrap();
    assert_eq!(comp_result, frag_result);
    assert_eq!(comp_stats, frag_stats);
}

// ---------------------------------------------------------------------
// 4b. Staleness regression: deleting one mid-table row counts as one
//     touched row, not ~N (the positional-diff bug).
// ---------------------------------------------------------------------

#[test]
fn delete_one_row_advances_staleness_by_one() {
    let db = Database::new();
    db.create_table("T", big_relation(200)).unwrap();
    let stats = db.analyze("T").unwrap();
    assert_eq!(stats.rows, 200);

    // Deleting a single row mid-table shifts 100 successors positionally;
    // the old positional diff counted ~100 touched rows and re-analyzed.
    // The COW delta counts exactly one, far below the threshold (50 + 10%).
    db.modify_table("T", |rel| Modifier::new(rel, "VT")?.delete(&k_eq(100)))
        .unwrap();
    let after = db.table("T").unwrap().statistics().unwrap();
    assert_eq!(
        after.rows, 200,
        "statistics must not auto-refresh after a one-row delete"
    );

    // Crossing the threshold for real still refreshes.
    db.modify_table("T", |rel| {
        let mut m = Modifier::new(rel, "VT")?;
        for k in 0..80 {
            m.delete(&k_eq(k))?;
        }
        Ok(())
    })
    .unwrap();
    let refreshed = db.table("T").unwrap().statistics().unwrap();
    assert!(
        refreshed.rows < 200,
        "bulk delete past the threshold must refresh (rows={})",
        refreshed.rows
    );
}

#[test]
fn staleness_counts_logical_rows_not_overlay_copies() {
    // A chunk that already carries a large edit overlay forces every new
    // version to copy that overlay (copy-on-write bookkeeping). That
    // physical work must NOT count toward statistics staleness: a one-row
    // edit is one touched row even on a heavily-overlaid chunk.
    let db = Database::new();
    db.create_table("T", big_relation(1_000)).unwrap();
    db.modify_table("T", |rel| {
        let mut m = Modifier::new(rel, "VT")?;
        // 60 touched rows: a sizable overlay, but below the per-chunk
        // dirty-run fold trigger (dead + overlay ≤ 25 % of a 512-row
        // chunk; an in-place replace contributes one of each) so the
        // overlay survives publication. The cap point lies past every
        // start (starts are < 97), so every row is replaced in place
        // rather than tombstoned.
        for k in 0..60 {
            m.terminate(&k_eq(k), tp(200))?;
        }
        Ok(())
    })
    .unwrap();
    let overlay = db.table("T").unwrap().data().storage_summary().overlay_rows;
    assert!(overlay >= 50, "fixture needs a big overlay, got {overlay}");
    let stats = db.analyze("T").unwrap();
    let rows = stats.rows;

    // One-row edits: each copies the ~300-entry overlay physically, but
    // advances staleness by 1 — far below the threshold, no refresh.
    for k in 400..410 {
        db.modify_table("T", |rel| Modifier::new(rel, "VT")?.delete(&k_eq(k)))
            .unwrap();
    }
    let after = db.table("T").unwrap().statistics().unwrap();
    assert_eq!(
        after.rows, rows,
        "overlay copy-on-write must not inflate the staleness counter"
    );
}

#[test]
fn restoring_an_older_pinned_version_counts_every_row_as_touched() {
    // The older version still shares the first chunk with the current one,
    // so the lineage probe alone would take it for a descendant; its
    // logical-write counter ran backwards, and that regression must count
    // as a wholesale rebuild (every row touched), not an underflow.
    let dir = TempDir::new("restore_old");
    let opts = DurableOptions {
        fsync: false,
        checkpoint_bytes: u64::MAX,
        ..DurableOptions::default()
    };
    let db = Database::open_with(dir.path(), opts).unwrap();
    db.create_table("T", big_relation(1_000)).unwrap();
    let old = db.table("T").unwrap();
    for k in [10, 700] {
        db.modify_table("T", |rel| Modifier::new(rel, "VT")?.delete(&k_eq(k)))
            .unwrap();
    }
    assert_eq!(db.analyze("T").unwrap().rows, 998);
    assert!(db.table("T").unwrap().data().derives_from(old.data()));

    let wal0 = db.durable_stats().unwrap().wal_records;
    db.modify_table("T", |rel| {
        *rel = old.data().clone();
        Ok(())
    })
    .unwrap();
    let restored = db.table("T").unwrap();
    assert_eq!(restored.data(), old.data());
    assert_eq!(
        restored.statistics().unwrap().rows,
        1_000,
        "a counter regression counts every row, so the statistics refresh"
    );
    assert_eq!(db.durable_stats().unwrap().wal_records - wal0, 1);

    let want: Vec<Tuple> = old.data().iter().cloned().collect();
    drop((restored, old, db));
    let db = Database::open_with(dir.path(), opts).unwrap();
    let got: Vec<Tuple> = db.table("T").unwrap().data().iter().cloned().collect();
    assert_eq!(got, want);
}

// ---------------------------------------------------------------------
// 5. Differential property test: Modifier over the COW store vs a naive
//    Vec<Tuple> re-implementation of the same semantics.
// ---------------------------------------------------------------------

/// One randomized modification step.
#[derive(Debug, Clone)]
enum Op {
    InsertOpen { k: i64, start: i64 },
    Terminate { k: i64, at: i64 },
    Update { k: i64, g: i64, at: i64 },
    Delete { k: i64 },
    Compact,
}

fn arb_op() -> impl Strategy<Value = Op> {
    let k = 0i64..12;
    prop_oneof![
        (k.clone(), 0i64..60).prop_map(|(k, start)| Op::InsertOpen { k, start }),
        (k.clone(), 0i64..60).prop_map(|(k, at)| Op::Terminate { k, at }),
        (k.clone(), 0i64..9, 0i64..60).prop_map(|(k, g, at)| Op::Update { k, g, at }),
        k.prop_map(|k| Op::Delete { k }),
        (0u8..2).prop_map(|_| Op::Compact),
    ]
}

// The naive model — the pre-refactor semantics over a plain `Vec<Tuple>`
// — lives in `ongoing_bench::naive`, shared with the churn replay below
// and with `tests/recovery.rs` and `tests/concurrent_writers.rs`.
use ongoing_bench::naive as model;

proptest! {
    #[test]
    fn modifier_sequences_match_the_naive_model(
        seed_rows in 0usize..40,
        ops in proptest::collection::vec(arb_op(), 1..30),
    ) {
        let mut rel = OngoingRelation::new(schema());
        let mut rows: Vec<Tuple> = Vec::new();
        for i in 0..seed_rows as i64 {
            let iv = OngoingInterval::fixed(tp(i % 17), tp(i % 17 + 4));
            rel.insert(vec![Value::Int(i % 12), Value::Int(0), Value::Interval(iv)])
                .unwrap();
            rows.push(Tuple::base(vec![
                Value::Int(i % 12),
                Value::Int(0),
                Value::Interval(iv),
            ]));
        }
        for op in &ops {
            match op {
                Op::InsertOpen { k, start } => {
                    Modifier::new(&mut rel, "VT").unwrap().insert_open(
                        vec![Value::Int(*k), Value::Int(1), Value::Bool(false)],
                        tp(*start),
                    ).unwrap();
                    model::insert_open(&mut rows, *k, 1, tp(*start));
                }
                Op::Terminate { k, at } => {
                    Modifier::new(&mut rel, "VT").unwrap()
                        .terminate(&k_eq(*k), tp(*at)).unwrap();
                    model::terminate(&mut rows, *k, tp(*at));
                }
                Op::Update { k, g, at } => {
                    Modifier::new(&mut rel, "VT").unwrap()
                        .update(&k_eq(*k), &[(1, Value::Int(*g))], tp(*at)).unwrap();
                    model::update(&mut rows, *k, *g, tp(*at));
                }
                Op::Delete { k } => {
                    Modifier::new(&mut rel, "VT").unwrap().delete(&k_eq(*k)).unwrap();
                    model::delete(&mut rows, *k);
                }
                Op::Compact => rel.compact().unwrap(),
            }
            // Same tuple sequence after every step.
            prop_assert_eq!(rel.len(), rows.len());
            let got: Vec<Tuple> = rel.iter().cloned().collect();
            prop_assert_eq!(&got, &rows, "store diverged from model after {:?}", op);
        }
        // Instantiations agree everywhere (the paper's criterion).
        let oracle = OngoingRelation::from_tuples(schema(), rows).unwrap();
        for rt in (-2i64..70).step_by(7) {
            prop_assert_eq!(rel.bind(tp(rt)), oracle.bind(tp(rt)));
        }
    }
}

// ---------------------------------------------------------------------
// O(delta) publication: a fixed-size edit's cost tracks the rows it
// touches, in the store and in the WAL, not the table it edits.
// ---------------------------------------------------------------------

/// Across a 10x table-size step, a fixed-size edit's units (`delta`, at
/// the small and the large size) stay flat within 1.1x, while the
/// whole-table path (`table`: one unit per tuple copied or rewritten)
/// grows at least 8x.
fn assert_odelta_contract(what: &str, delta: [u64; 2], table: [u64; 2]) {
    let flat = delta[1] as f64 / delta[0] as f64;
    assert!(
        flat <= 1.1,
        "{what}: a fixed-size edit must stay flat across a 10x table-size step \
         (got {flat:.2}x: {delta:?})"
    );
    let growth = table[1] as f64 / table[0] as f64;
    assert!(
        growth >= 8.0,
        "{what}: the whole-table path must grow with the table (got {growth:.2}x: {table:?})"
    );
}

/// A durable 10-row `terminate` on a 10 k- and a 100 k-row table: the
/// store's write units and the one WAL record's tuple payload both stay
/// flat, where cloning the relation (the pre-refactor write path) or
/// rewriting its image per commit costs one unit per tuple.
#[test]
fn a_fixed_edit_is_o_delta_in_the_store_and_in_the_wal() {
    let sizes = [10_000usize, 100_000];
    let (mut write_units, mut wal_tuples) = ([0u64; 2], [0u64; 2]);
    for (i, &n) in sizes.iter().enumerate() {
        let dir = TempDir::new("odelta");
        let db = Database::open_with(
            dir.path(),
            DurableOptions {
                fsync: false,
                checkpoint_bytes: u64::MAX,
                ..DurableOptions::default()
            },
        )
        .unwrap();
        db.create_table("T", big_relation(n)).unwrap();
        let (work0, wal0) = (
            db.table("T").unwrap().data().write_work(),
            db.durable_stats().unwrap(),
        );
        db.modify_table("T", |rel| {
            let mut m = Modifier::new(rel, "VT")?;
            for j in 0..10 {
                m.terminate(&k_eq((n / 2 + j * 13) as i64), tp(3_000))?;
            }
            Ok(())
        })
        .unwrap();
        let wal1 = db.durable_stats().unwrap();
        assert_eq!(
            wal1.wal_records - wal0.wal_records,
            1,
            "one publication appends exactly one WAL record"
        );
        write_units[i] = db.table("T").unwrap().data().write_work() - work0;
        wal_tuples[i] = wal1.wal_tuples - wal0.wal_tuples;
    }
    let table = sizes.map(|n| n as u64);
    assert_odelta_contract("store write units", write_units, table);
    assert_odelta_contract("WAL tuples", wal_tuples, table);
}

// ---------------------------------------------------------------------
// Catalog-level churn sanity: sustained modifications stay O(delta) and
// the auto-compaction policy keeps fragmentation bounded.
// ---------------------------------------------------------------------

#[test]
fn sustained_churn_keeps_fragmentation_bounded() {
    let db = Database::new();
    db.create_table("T", big_relation(2 * CHUNK)).unwrap();
    let base_work = db.table("T").unwrap().data().write_work();
    // The same rounds over the naive model, and a version pinned mid-churn.
    let mut replay: Vec<Tuple> = db.table("T").unwrap().data().iter().cloned().collect();
    let mut pinned = None;
    for round in 0..300i64 {
        db.modify_table("T", |rel| {
            let mut m = Modifier::new(rel, "VT")?;
            m.insert_open(
                vec![
                    Value::Int(500_000 + round),
                    Value::Int(round % 13),
                    Value::Bool(false),
                ],
                tp(round % 90),
            )?;
            m.terminate(&k_eq(round % 700), tp(round % 90 + 1))?;
            Ok(())
        })
        .unwrap();
        model::insert_open(&mut replay, 500_000 + round, round % 13, tp(round % 90));
        model::terminate(&mut replay, round % 700, tp(round % 90 + 1));
        if round == 150 {
            let table = db.table("T").unwrap();
            let rows: Vec<Tuple> = table.data().iter().cloned().collect();
            pinned = Some((table, rows));
        }
    }
    let data = db.table("T").unwrap().data().clone();
    let s = data.storage_summary();
    let ideal = data.len().div_ceil(CHUNK);
    let slack = ongoing_relation::relation::COMPACT_CHUNK_SLACK.max(ideal);
    assert!(
        s.chunks <= ideal + slack + 1,
        "compaction policy failed to bound chunk count: {s:?}"
    );
    // Snapshot isolation across 150 later publications, folds included.
    let (table, rows) = pinned.expect("pinned mid-churn");
    let now: Vec<Tuple> = table.data().iter().cloned().collect();
    assert_eq!(now, rows, "pinned snapshot drifted");
    // The churned table equals the naive replay, in order.
    let live: Vec<Tuple> = data.iter().cloned().collect();
    assert_eq!(live, replay, "churned table diverged from the naive replay");
    // Total physical write work stays far below 300 × O(table) — the
    // pre-refactor cost of 300 whole-table clones.
    let spent = data.write_work() - base_work;
    let clone_cost = 300 * 2 * CHUNK as u64;
    assert!(
        spent < clone_cost / 4,
        "write work {spent} should be well under the clone-path cost {clone_cost}"
    );
}

// ---------------------------------------------------------------------
// Partial compaction: sustained churn folds fragmented chunk *runs*,
// never the whole table — the per-publication write-work spike stays
// O(run) while the clone path (and a full fold) would be O(table).
// ---------------------------------------------------------------------

#[test]
fn churn_folds_are_run_sized_not_table_sized() {
    let n = 16 * CHUNK; // 8192 rows — a whole-table fold would cost ≥ n.
    let db = Database::new();
    db.create_table("T", big_relation(n)).unwrap();
    let mut prev = db.table("T").unwrap().data().write_work();
    let mut max_spike = 0u64;
    for round in 0..400i64 {
        db.modify_table("T", |rel| {
            let mut m = Modifier::new(rel, "VT")?;
            m.insert_open(
                vec![
                    Value::Int(900_000 + round),
                    Value::Int(round % 13),
                    Value::Bool(false),
                ],
                tp(round % 90),
            )?;
            m.terminate(&k_eq(round * 37 % n as i64), tp(round % 90 + 2))?;
            Ok(())
        })
        .unwrap();
        let now = db.table("T").unwrap().data().write_work();
        max_spike = max_spike.max(now - prev);
        prev = now;
    }
    // Every publication — including the ones that compacted — spent
    // O(fragmented run), bounded by a couple of chunk sizes, nowhere near
    // the 8192-row table.
    assert!(
        max_spike <= 2 * CHUNK as u64,
        "a publication spent {max_spike} wu — an O(table) fold leaked in"
    );
    // And fragmentation still stays bounded.
    let data = db.table("T").unwrap().data().clone();
    let s = data.storage_summary();
    let ideal = data.len().div_ceil(CHUNK);
    assert!(
        s.chunks <= ideal + ongoing_relation::relation::COMPACT_CHUNK_SLACK.max(ideal) + 1,
        "partial compaction failed to bound fragmentation: {s:?}"
    );
}

/// 1 000 insert+terminate rounds on a 100 000-row DEX table with a key
/// index on `ID` — partial compaction and keyed qualification at scale,
/// asserted on deterministic work units:
///
/// * no publication (compaction rounds included) spends O(table) write
///   work — folds stay O(fragmented run);
/// * chunk fragmentation stays inside the storage policy's bound;
/// * keyed qualification stays O(rows touched) per round on the churned,
///   fragmented layout.
#[test]
fn keyed_churn_at_scale_stays_o_delta() {
    let rows = 100_000usize;
    let rounds = 1_000i64;
    let db = Database::new();
    db.create_table("T", generate(&SyntheticConfig::dex(rows, None, 42)))
        .unwrap();
    db.create_key_index("T", "ID").unwrap();
    let data0 = db.table("T").unwrap().data().clone();
    let (mut prev_work, qual0) = (data0.write_work(), data0.qual_work());
    let mut max_spike = 0u64;
    let mut max_chunks = 0usize;
    for r in 0..rounds {
        db.modify_table("T", |rel| {
            let mut m = Modifier::new(rel, "VT")?;
            m.insert_open(
                vec![
                    Value::Int(rows as i64 + r),
                    Value::Int(r),
                    Value::Bool(false),
                ],
                tp(r % 3_000),
            )?;
            m.terminate(&k_eq((r * 31) % rows as i64), tp(500))?;
            Ok(())
        })
        .unwrap();
        let data = db.table("T").unwrap().data().clone();
        max_spike = max_spike.max(data.write_work() - prev_work);
        prev_work = data.write_work();
        max_chunks = max_chunks.max(data.storage_summary().chunks);
    }
    let data = db.table("T").unwrap().data().clone();
    let qual_per_round = (data.qual_work() - qual0) as f64 / rounds as f64;
    let ideal = data.len().div_ceil(CHUNK);
    assert!(
        (max_spike as f64) < rows as f64 / 20.0,
        "publication spike {max_spike} wu ≈ O(table): partial compaction regressed"
    );
    let slack = ongoing_relation::relation::COMPACT_CHUNK_SLACK.max(ideal);
    assert!(
        max_chunks <= ideal + slack + 1,
        "fragmentation escaped the policy (peak {max_chunks}, ideal {ideal})"
    );
    assert!(
        qual_per_round < 200.0,
        "keyed qualification {qual_per_round:.1} wu/round is not O(rows touched)"
    );
}

/// Keeping the example from the paper honest across the refactor: the
/// md-granularity doctest scenario still round-trips through the store.
#[test]
fn md_scenario_roundtrip() {
    let db = Database::new();
    let mut bugs = OngoingRelation::new(Schema::builder().int("BID").interval("VT").build());
    bugs.insert(vec![
        Value::Int(500),
        Value::Interval(OngoingInterval::from_until_now(md(1, 25))),
    ])
    .unwrap();
    db.create_table("B", bugs).unwrap();
    let n = db
        .modify_table("B", |rel| {
            Modifier::new(rel, "VT")?.terminate(&Expr::Col(0).eq(Expr::lit(500i64)), md(9, 1))
        })
        .unwrap();
    assert_eq!(n, 1);
    let data = db.table("B").unwrap().data().clone();
    assert_eq!(data.len(), 1);
    let iv = data.iter().next().unwrap().value(1).as_interval().unwrap();
    assert_eq!(iv.te(), OngoingPoint::limited(md(9, 1)));
}
