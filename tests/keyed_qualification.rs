//! Keyed qualification: the indexed write path ≡ the scan write path.
//!
//! The keyed index ([`ongoing_relation::keyindex`]) changes *which rows a
//! modification visits*, never which rows it edits. This suite pins that:
//!
//! 1. **Differential property test** — random `Modifier` sequences
//!    (inserts / terminates / sequenced updates / deletes interleaved
//!    with full and partial compaction) over an indexed and an unindexed
//!    relation produce identical tuple sequences, identical modified
//!    counts and identical logical-write counts after every step.
//! 2. **Work units** — a fixed 10-row keyed modification costs O(rows
//!    touched) qualification work: flat (≤ 1.1×) across a 10× table-size
//!    step, while the scan path grows ~10× (the PR's acceptance
//!    criterion).
//! 3. **Cost-based choice** — `OngoingRelation::key_probe` (the one
//!    keyed-vs-scan decision, shared by `Modifier` and `KeyScan`) picks
//!    the index for selective probes and falls back to the scan when the
//!    probe matches everything.
//! 4. **Probe extraction** — equality and range conjuncts (either
//!    operand order) drive the index; type-mismatched constants and
//!    ongoing columns never do.

use ongoing_core::time::tp;
use ongoing_core::OngoingInterval;
use ongoing_relation::{Expr, KeyProbe, OngoingRelation, Schema, Tuple, Value};
use ongoingdb::engine::modify::Modifier;
use ongoingdb::engine::{Database, EngineError};
use proptest::prelude::*;

fn schema() -> Schema {
    Schema::builder().int("K").int("G").interval("VT").build()
}

fn k_eq(k: i64) -> Expr {
    Expr::Col(0).eq(Expr::lit(k))
}

fn seeded(rows: usize, indexed: bool) -> OngoingRelation {
    let mut r = OngoingRelation::new(schema());
    for i in 0..rows as i64 {
        let iv = if i % 4 == 0 {
            OngoingInterval::from_until_now(tp(i % 89))
        } else {
            OngoingInterval::fixed(tp(i % 89), tp(i % 89 + 3 + i % 7))
        };
        r.insert(vec![Value::Int(i), Value::Int(i % 11), Value::Interval(iv)])
            .unwrap();
    }
    r.seal_pending();
    if indexed {
        r.create_key_index::<EngineError>(0).unwrap();
    }
    r
}

// ---------------------------------------------------------------------
// 1. Differential property test: indexed ≡ unindexed over random edit
//    sequences with interleaved (partial) compaction.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    InsertOpen { k: i64, start: i64 },
    Terminate { k: i64, at: i64 },
    TerminateRange { lo: i64, hi: i64, at: i64 },
    Update { k: i64, g: i64, at: i64 },
    Delete { k: i64 },
    Compact,
    CompactRuns,
}

fn arb_op() -> impl Strategy<Value = Op> {
    let k = 0i64..24;
    prop_oneof![
        (k.clone(), 0i64..60).prop_map(|(k, start)| Op::InsertOpen { k, start }),
        (k.clone(), 0i64..60).prop_map(|(k, at)| Op::Terminate { k, at }),
        (k.clone(), 0i64..8, 0i64..60).prop_map(|(lo, w, at)| Op::TerminateRange {
            lo,
            hi: lo + w,
            at
        }),
        (k.clone(), 0i64..9, 0i64..60).prop_map(|(k, g, at)| Op::Update { k, g, at }),
        k.prop_map(|k| Op::Delete { k }),
        (0u8..1).prop_map(|_| Op::Compact),
        (0u8..1).prop_map(|_| Op::CompactRuns),
    ]
}

fn apply(rel: &mut OngoingRelation, op: &Op) -> usize {
    let mut m = Modifier::new(rel, "VT").unwrap();
    match op {
        Op::InsertOpen { k, start } => {
            m.insert_open(
                vec![Value::Int(*k), Value::Int(1), Value::Bool(false)],
                tp(*start),
            )
            .unwrap();
            1
        }
        Op::Terminate { k, at } => m.terminate(&k_eq(*k), tp(*at)).unwrap(),
        Op::TerminateRange { lo, hi, at } => {
            // K >= lo AND K < hi: a range probe on the indexed column.
            let pred = Expr::Col(0)
                .ne(Expr::lit(-1i64))
                .and(Expr::lit(*lo).le(Expr::Col(0)))
                .and(Expr::Col(0).lt(Expr::lit(*hi)));
            m.terminate(&pred, tp(*at)).unwrap()
        }
        Op::Update { k, g, at } => m
            .update(&k_eq(*k), &[(1, Value::Int(*g))], tp(*at))
            .unwrap(),
        Op::Delete { k } => m.delete(&k_eq(*k)).unwrap(),
        Op::Compact => {
            rel.compact().unwrap();
            0
        }
        Op::CompactRuns => {
            rel.compact_runs().unwrap();
            0
        }
    }
}

proptest! {
    #[test]
    fn keyed_qualification_equals_scan_qualification(
        seed_rows in 0usize..40,
        ops in proptest::collection::vec(arb_op(), 1..40),
    ) {
        let mut indexed = seeded(seed_rows, true);
        let mut scanned = seeded(seed_rows, false);
        for op in &ops {
            let n_indexed = apply(&mut indexed, op);
            let n_scanned = apply(&mut scanned, op);
            // Identical modified counts (the "selected ordinals") …
            prop_assert_eq!(n_indexed, n_scanned, "modified counts diverged on {:?}", op);
            // … identical tuple sequences …
            prop_assert_eq!(indexed.len(), scanned.len());
            let a: Vec<Tuple> = indexed.iter().cloned().collect();
            let b: Vec<Tuple> = scanned.iter().cloned().collect();
            prop_assert_eq!(&a, &b, "sequences diverged after {:?}", op);
            // … and identical logical-write counts (physical write_work
            // legitimately differs: the indexed store meters its index
            // builds).
            prop_assert_eq!(indexed.logical_writes(), scanned.logical_writes());
        }
        // Instantiations agree everywhere (the paper's criterion).
        for rt in (-2i64..70).step_by(9) {
            prop_assert_eq!(indexed.bind(tp(rt)), scanned.bind(tp(rt)));
        }
    }
}

// ---------------------------------------------------------------------
// 2. Work units: keyed qualification is O(rows touched), scan is
//    O(table) — the acceptance-criterion assertion.
// ---------------------------------------------------------------------

/// Terminate 10 spread-out keys through the catalog; returns the
/// qualification work units the modification spent.
fn ten_key_qual_cost(db: &Database, rows: usize) -> u64 {
    let before = db.table("T").unwrap().data().qual_work();
    db.modify_table("T", |rel| {
        let mut m = Modifier::new(rel, "VT")?;
        for i in 0..10i64 {
            m.terminate(&k_eq(rows as i64 / 2 + i * 13), tp(3_000))?;
        }
        Ok(())
    })
    .unwrap();
    db.table("T").unwrap().data().qual_work() - before
}

#[test]
fn keyed_qualification_work_is_flat_across_table_sizes() {
    let sizes = [10_000usize, 100_000];
    let mut keyed = Vec::new();
    let mut scan = Vec::new();
    for &n in &sizes {
        let db = Database::new();
        db.create_table("T", seeded(n, false)).unwrap();
        db.create_key_index("T", "K").unwrap();
        keyed.push(ten_key_qual_cost(&db, n));

        let db = Database::new();
        db.create_table("T", seeded(n, false)).unwrap();
        scan.push(ten_key_qual_cost(&db, n));
    }
    let flat = keyed[1] as f64 / keyed[0] as f64;
    let growth = scan[1] as f64 / scan[0] as f64;
    println!("keyed: {keyed:?} ({flat:.2}x); scan: {scan:?} ({growth:.2}x)");
    assert!(
        flat <= 1.1,
        "keyed 10-row qualification must stay flat across a 10x size step, got {flat:.2}x ({keyed:?})"
    );
    assert!(
        growth >= 8.0,
        "scan qualification must grow with the table, got {growth:.2}x ({scan:?})"
    );
    // And the keyed absolute cost is O(rows touched): far below the
    // 100k-row table it addressed.
    assert!(
        keyed[1] < sizes[1] as u64 / 100,
        "keyed qualification {} wu is not O(rows touched)",
        keyed[1]
    );
}

// ---------------------------------------------------------------------
// 3. Cost-based index-vs-scan choice.
// ---------------------------------------------------------------------

#[test]
fn cost_model_flips_between_index_and_scan() {
    let rel = seeded(4_000, true);
    // Selective equality: keyed.
    let probe = rel
        .key_probe(&k_eq(17))
        .expect("selective probe uses the index");
    assert_eq!(
        probe,
        KeyProbe::Eq {
            col: 0,
            key: Value::Int(17)
        }
    );
    let est = rel.qualification_estimate(&probe).unwrap();
    assert!(est.keyed < est.scan, "{est:?}");
    // A probe matching every row: the scan's constants win.
    let all = Expr::lit(-1i64).le(Expr::Col(0));
    assert!(
        rel.key_probe(&all).is_none(),
        "probe matching everything must fall back to the scan"
    );
    // No usable conjunct (inequality only): scan.
    assert!(rel.key_probe(&Expr::Col(0).ne(Expr::lit(5i64))).is_none());
    // Predicate on an unindexed column: scan.
    assert!(rel.key_probe(&Expr::Col(1).eq(Expr::lit(3i64))).is_none());
}

#[test]
fn range_conjuncts_qualify_through_the_index() {
    let mut indexed = seeded(3_000, true);
    let mut scanned = seeded(3_000, false);
    // G = 4 AND 100 <= K AND K < 140: the K-range drives the index, the
    // G-conjunct is evaluated as a residual on the candidates.
    let pred = Expr::Col(1)
        .eq(Expr::lit(4i64))
        .and(Expr::lit(100i64).le(Expr::Col(0)))
        .and(Expr::Col(0).lt(Expr::lit(140i64)));
    let probe = indexed
        .key_probe(&pred)
        .expect("range probe uses the index");
    assert!(matches!(probe, KeyProbe::Range { col: 0, .. }), "{probe:?}");
    let est = indexed.qualification_estimate(&probe).unwrap();
    assert!(est.keyed < est.scan / 10, "{est:?}");
    let qual_before = indexed.qual_work();
    let a = Modifier::new(&mut indexed, "VT")
        .unwrap()
        .terminate(&pred, tp(500))
        .unwrap();
    let visited = indexed.qual_work() - qual_before;
    let b = Modifier::new(&mut scanned, "VT")
        .unwrap()
        .terminate(&pred, tp(500))
        .unwrap();
    assert_eq!(a, b);
    assert_eq!(
        indexed.iter().cloned().collect::<Vec<_>>(),
        scanned.iter().cloned().collect::<Vec<_>>()
    );
    assert!(visited <= 60, "40-key range visited {visited} of 3000 rows");
}

// ---------------------------------------------------------------------
// 4. Probe-extraction edge cases and index lifecycle.
// ---------------------------------------------------------------------

#[test]
fn contradictory_range_conjuncts_match_nothing() {
    // `K >= 5 AND K <= 3` derives an inverted range probe; it must
    // qualify zero rows, not panic inside the chunk maps' range lookup.
    let mut rel = seeded(1_000, true);
    for pred in [
        Expr::lit(5i64)
            .le(Expr::Col(0))
            .and(Expr::Col(0).le(Expr::lit(3i64))),
        Expr::lit(5i64)
            .lt(Expr::Col(0))
            .and(Expr::Col(0).lt(Expr::lit(5i64))),
    ] {
        let n = Modifier::new(&mut rel, "VT")
            .unwrap()
            .terminate(&pred, tp(500))
            .unwrap();
        assert_eq!(n, 0, "{pred}");
    }
    assert_eq!(rel.len(), 1_000);
}

#[test]
fn type_mismatched_constants_never_drive_the_index() {
    // `K = "x"` on an Int column type-errors on every row under a scan;
    // the keyed path must not silently skip those rows instead.
    let mut rel = seeded(100, true);
    assert!(rel.key_probe(&Expr::Col(0).eq(Expr::lit("x"))).is_none());
    let err = Modifier::new(&mut rel, "VT")
        .unwrap()
        .delete(&Expr::Col(0).eq(Expr::lit("x")));
    assert!(err.is_err(), "type mismatch must still surface");
}

#[test]
fn residual_conjunct_errors_surface_lazily() {
    // An ill-typed *residual* conjunct (`G = "x"` on an Int column)
    // errors for every row the qualification visits. With a selective
    // key conjunct the index prunes the visits: candidates still error,
    // but a probe matching nothing visits nothing — the documented
    // lazy-error semantics shared with any index access path.
    let mut rel = seeded(100, true);
    let bad_residual = |k: i64| {
        Expr::Col(1)
            .eq(Expr::lit("x"))
            .and(Expr::Col(0).eq(Expr::lit(k)))
    };
    let hit = Modifier::new(&mut rel, "VT")
        .unwrap()
        .delete(&bad_residual(5));
    assert!(hit.is_err(), "errors on visited rows must surface");
    let miss = Modifier::new(&mut rel, "VT")
        .unwrap()
        .delete(&bad_residual(999_999));
    assert_eq!(
        miss.expect("no rows visited, no error observed"),
        0,
        "a probe matching nothing qualifies nothing"
    );
    assert_eq!(rel.len(), 100);
}

#[test]
fn key_index_rejects_ongoing_columns() {
    let mut rel = seeded(10, false);
    assert!(
        rel.create_key_index::<EngineError>(2).is_err(),
        "VT is ongoing"
    );
    assert!(rel.create_key_index::<EngineError>(0).is_ok());
    assert_eq!(rel.key_indexed_columns(), &[0]);
}

#[test]
fn updates_to_the_indexed_column_stay_addressable() {
    // A sequenced update that *reassigns the key* puts the new version in
    // the overlay; later probes for the new key must find it there.
    let mut indexed = seeded(2_000, true);
    let mut scanned = seeded(2_000, false);
    for rel in [&mut indexed, &mut scanned] {
        let mut m = Modifier::new(rel, "VT").unwrap();
        m.update(&k_eq(700), &[(0, Value::Int(999_999))], tp(30))
            .unwrap();
    }
    for rel in [&mut indexed, &mut scanned] {
        let n = Modifier::new(rel, "VT")
            .unwrap()
            .terminate(&k_eq(999_999), tp(70))
            .unwrap();
        assert_eq!(n, 1, "reassigned key must be found");
    }
    assert_eq!(
        indexed.iter().cloned().collect::<Vec<_>>(),
        scanned.iter().cloned().collect::<Vec<_>>()
    );
}

#[test]
fn catalog_key_index_survives_publication_and_compaction() {
    let db = Database::new();
    db.create_table("T", seeded(2_000, false)).unwrap();
    db.create_key_index("T", "K").unwrap();
    assert_eq!(db.table("T").unwrap().data().key_indexed_columns(), &[0]);
    // Churn enough to trigger partial compaction; the index must ride
    // through every publish and fold.
    for r in 0..120i64 {
        db.modify_table("T", |rel| {
            let mut m = Modifier::new(rel, "VT")?;
            m.insert_open(
                vec![
                    Value::Int(10_000 + r),
                    Value::Int(r % 11),
                    Value::Bool(false),
                ],
                tp(r % 80),
            )?;
            m.terminate(&k_eq(r * 16 % 2_000), tp(r % 80 + 1))?;
            Ok(())
        })
        .unwrap();
    }
    let table = db.table("T").unwrap();
    assert_eq!(table.data().key_indexed_columns(), &[0]);
    // Keyed lookups still see every row, including churned-in ones.
    let before = table.data().qual_work();
    let n = db
        .modify_table("T", |rel| Modifier::new(rel, "VT")?.delete(&k_eq(10_057)))
        .unwrap();
    assert_eq!(n, 1);
    let visited = db.table("T").unwrap().data().qual_work() - before;
    assert!(
        visited < 500,
        "churned keyed lookup visited {visited} rows (table ~2120)"
    );
}
