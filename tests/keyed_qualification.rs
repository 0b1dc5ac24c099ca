//! Keyed qualification: the indexed write path ≡ the scan write path.
//!
//! The keyed index ([`ongoing_relation::keyindex`]) changes *which rows a
//! modification visits*, never which rows it edits. This suite pins that:
//!
//! 1. **Differential property test** — random `Modifier` sequences
//!    (inserts / terminates / sequenced updates, some reassigning the key
//!    / deletes interleaved with seals, full and partial compaction, edits
//!    on a fork, a late second index, a parts round trip and a journal
//!    replay) over an indexed and an unindexed relation produce identical
//!    tuple sequences, identical modified counts and identical
//!    logical-write counts after every step; and after every step each
//!    keyed read and keyed edit equals its scan (same rows, same order).
//! 2. **Work units** — a fixed 10-row keyed modification costs O(rows
//!    touched) qualification work: flat (≤ 1.1×) across a 10× table-size
//!    step, while the scan path grows ~10×; and a keyed read or edit of
//!    one key visits only its matching rows plus one probe per chunk, how
//!    many edits the overlays hold notwithstanding.
//! 3. **Cost-based choice** — `OngoingRelation::key_probe` (the one
//!    keyed-vs-scan decision, shared by `Modifier` and `KeyScan`) picks
//!    the index for selective probes and falls back to the scan when the
//!    probe matches everything.
//! 4. **Probe extraction** — equality and range conjuncts (either
//!    operand order) drive the index; type-mismatched constants and
//!    ongoing columns never do.

use ongoing_core::time::tp;
use ongoing_core::OngoingInterval;
use ongoing_relation::{
    Expr, KeyProbe, OngoingRelation, PagerError, RowEdit, Schema, Tuple, Value,
};
use ongoingdb::engine::modify::Modifier;
use ongoingdb::engine::{Database, EngineError};
use proptest::prelude::*;
use std::ops::Bound;

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
    InsertOpen {
        k: i64,
        start: i64,
    },
    Terminate {
        k: i64,
        at: i64,
    },
    TerminateRange {
        lo: i64,
        hi: i64,
        at: i64,
    },
    Update {
        k: i64,
        g: i64,
        at: i64,
    },
    /// A sequenced update that reassigns the indexed key: a two-row split
    /// whose new version carries key `to`.
    Rekey {
        k: i64,
        to: i64,
        at: i64,
    },
    Delete {
        k: i64,
    },
    Seal,
    Compact,
    CompactRuns,
    /// Terminate `k` on a fork of the indexed relation; the parent's keyed
    /// answers must not move (the overlay and its key maps are copied on
    /// write), and the fork's must equal its scan.
    ForkTerminate {
        k: i64,
        at: i64,
    },
    /// Index `G` on the indexed relation, over whatever overlays it holds.
    IndexG,
    /// Seal both relations, replay the indexed relation's journal onto
    /// the parts it started from and check the layout matches, then
    /// rebuild the indexed relation from its own parts.
    RoundTrip,
}

fn arb_op() -> impl Strategy<Value = Op> {
    let k = 0i64..30;
    prop_oneof![
        (k.clone(), 0i64..60).prop_map(|(k, start)| Op::InsertOpen { k, start }),
        (k.clone(), 0i64..60).prop_map(|(k, at)| Op::Terminate { k, at }),
        (k.clone(), 0i64..8, 0i64..60).prop_map(|(lo, w, at)| Op::TerminateRange {
            lo,
            hi: lo + w,
            at
        }),
        (k.clone(), 0i64..9, 0i64..60).prop_map(|(k, g, at)| Op::Update { k, g, at }),
        (k.clone(), k.clone(), 0i64..60).prop_map(|(k, to, at)| Op::Rekey { k, to, at }),
        k.clone().prop_map(|k| Op::Delete { k }),
        (0u8..1).prop_map(|_| Op::Seal),
        (0u8..1).prop_map(|_| Op::Compact),
        (0u8..1).prop_map(|_| Op::CompactRuns),
        (k, 0i64..60).prop_map(|(k, at)| Op::ForkTerminate { k, at }),
        (0u8..1).prop_map(|_| Op::IndexG),
        (0u8..1).prop_map(|_| Op::RoundTrip),
    ]
}

/// Applies `op` to a relation; returns the rows it reported modified. The
/// ops that act on the indexed relation alone (`ForkTerminate`, `IndexG`,
/// `RoundTrip`) are no-ops here: the property test drives them itself.
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
        Op::Rekey { k, to, at } => m
            .update(&k_eq(*k), &[(0, Value::Int(*to))], tp(*at))
            .unwrap(),
        Op::Delete { k } => m.delete(&k_eq(*k)).unwrap(),
        Op::Seal | Op::RoundTrip => {
            rel.seal_pending();
            0
        }
        Op::ForkTerminate { .. } | Op::IndexG => 0,
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

/// The probes every step checks: keys on `K` that ops address (and
/// rekey to), a `K` range, and keys on `G` (indexed once `IndexG` ran).
fn probes() -> Vec<KeyProbe> {
    let eq = |col, key: i64| KeyProbe::Eq {
        col,
        key: Value::Int(key),
    };
    vec![
        eq(0, 0),
        eq(0, 5),
        eq(0, 13),
        eq(0, 29),
        KeyProbe::Range {
            col: 0,
            lo: Bound::Included(Value::Int(3)),
            hi: Bound::Excluded(Value::Int(9)),
        },
        eq(1, 1),
        eq(1, 4),
    ]
}

/// The keyed answers of `rel` for every probe in [`probes`].
fn keyed_answers(rel: &OngoingRelation) -> Vec<Vec<Tuple>> {
    probes()
        .iter()
        .map(|p| rel.keyed_rows(p).unwrap().0)
        .collect()
}

/// Every keyed read and keyed edit of `rel` equals its scan. Reads: the
/// scan filtered by the probe, same rows, same order. Edits: applying the
/// same decision to two forks — one qualifying through the probe, one
/// scanning — writes the same entries (same count, same logical writes,
/// same sequence and physical layout). When the probe's column is
/// indexed, the keyed edit's qualification work is exactly the estimate's
/// keyed work less one unit per chunk.
fn assert_keyed_equals_scan(rel: &OngoingRelation) {
    for probe in probes() {
        let col = probe.col();
        let scan: Vec<Tuple> = rel
            .iter()
            .filter(|t| probe.matches(t.value(col)))
            .cloned()
            .collect();
        let (keyed, _) = rel.keyed_rows(&probe).unwrap();
        prop_assert_eq!(&keyed, &scan, "keyed read {:?}", &probe);
        // Split matching rows with an odd other key, drop even ones.
        let other = 1 - col;
        let f = |t: &Tuple| {
            Ok::<_, PagerError>(if !probe.matches(t.value(col)) {
                RowEdit::Keep
            } else if t.value(other).as_int().unwrap_or(0) % 2 != 0 {
                RowEdit::Replace(vec![t.clone(), t.clone()])
            } else {
                RowEdit::Remove
            })
        };
        let (mut by_key, mut by_scan) = (rel.clone(), rel.clone());
        let written_key = by_key.edit_tuples(Some(&probe), f).unwrap();
        let written_scan = by_scan.edit_tuples(None, f).unwrap();
        prop_assert_eq!(written_key, written_scan, "keyed edit {:?}", &probe);
        prop_assert_eq!(
            by_key.logical_writes() - rel.logical_writes(),
            by_scan.logical_writes() - rel.logical_writes()
        );
        prop_assert!(by_key.iter().eq(by_scan.iter()), "keyed edit {:?}", &probe);
        prop_assert_eq!(by_key.storage_summary(), by_scan.storage_summary());
        let (pk, ps) = (by_key.chunk_parts(), by_scan.chunk_parts());
        prop_assert!(pk.iter().map(|p| &p.edits).eq(ps.iter().map(|p| &p.edits)));
        if let Some(est) = rel.qualification_estimate(&probe) {
            let chunks = rel.storage_summary().chunks as u64;
            prop_assert_eq!(by_key.qual_work() - rel.qual_work(), est.keyed - chunks);
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
        // The parts and indexed columns the journal replays onto: the
        // indexed relation as it stood when its journal was armed.
        let mut origin = (indexed.chunk_parts(), indexed.key_indexed_columns().to_vec());
        indexed.begin_journal();
        for op in &ops {
            let writes = (indexed.logical_writes(), scanned.logical_writes());
            let n_indexed = apply(&mut indexed, op);
            let n_scanned = apply(&mut scanned, op);
            match op {
                Op::ForkTerminate { k, at } => {
                    let before = keyed_answers(&indexed);
                    let mut fork = indexed.clone();
                    Modifier::new(&mut fork, "VT")
                        .unwrap()
                        .terminate(&k_eq(*k), tp(*at))
                        .unwrap();
                    assert_keyed_equals_scan(&fork);
                    prop_assert_eq!(
                        keyed_answers(&indexed),
                        before,
                        "a fork's edit moved its parent"
                    );
                }
                Op::IndexG => indexed.create_key_index::<EngineError>(1).unwrap(),
                Op::RoundTrip => {
                    let ops = indexed.take_journal().expect("journal armed");
                    let (parts, cols) = origin;
                    let mut replayed =
                        OngoingRelation::from_parts(schema(), parts, None, &cols);
                    replayed.apply_journal(ops).unwrap();
                    prop_assert_eq!(
                        replayed.key_indexed_columns(),
                        indexed.key_indexed_columns()
                    );
                    prop_assert_eq!(replayed.storage_summary(), indexed.storage_summary());
                    prop_assert!(replayed.iter().eq(indexed.iter()));
                    assert_keyed_equals_scan(&replayed);
                    origin = (indexed.chunk_parts(), indexed.key_indexed_columns().to_vec());
                    indexed =
                        OngoingRelation::from_parts(schema(), origin.0.clone(), None, &origin.1);
                    indexed.begin_journal();
                }
                _ => {}
            }
            // Identical modified counts (the "selected ordinals") …
            prop_assert_eq!(n_indexed, n_scanned, "modified counts diverged on {:?}", op);
            // … identical tuple sequences …
            prop_assert_eq!(indexed.len(), scanned.len());
            let a: Vec<Tuple> = indexed.iter().cloned().collect();
            let b: Vec<Tuple> = scanned.iter().cloned().collect();
            prop_assert_eq!(&a, &b, "sequences diverged after {:?}", op);
            // … identical logical-write counts (physical write_work
            // legitimately differs: the indexed store meters its index
            // builds; a parts rebuild restarts the counters) …
            if !matches!(op, Op::RoundTrip) {
                prop_assert_eq!(
                    indexed.logical_writes() - writes.0,
                    scanned.logical_writes() - writes.1
                );
            }
            // … and every keyed read and edit equals its scan.
            assert_keyed_equals_scan(&indexed);
            assert_keyed_equals_scan(&scanned);
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

#[test]
fn keyed_reads_and_edits_visit_only_matching_rows_however_large_the_overlay() {
    // 10 240 indexed rows (20 full chunks) with 2 000 scattered single-row
    // updates left unfolded in the overlays.
    let mut rel = seeded(10_240, true);
    let chunks = rel.storage_summary().chunks as u64;
    assert_eq!(chunks, 20);
    let eq = |k: i64| KeyProbe::Eq {
        col: 0,
        key: Value::Int(k),
    };
    let bump = |t: &Tuple| {
        let mut values = t.values().to_vec();
        values[1] = Value::Int(values[1].as_int().unwrap() + 100);
        Tuple::with_rt(values, t.rt().clone())
    };
    rel.edit_tuples(None, |t| {
        let k = t.value(0).as_int().unwrap();
        Ok::<_, PagerError>(if k % 5 == 0 && k < 10_000 {
            RowEdit::Replace(vec![bump(t)])
        } else {
            RowEdit::Keep
        })
    })
    .unwrap();
    assert_eq!(rel.storage_summary().overlay_rows, 2_000);
    // One updated key (its row lives in an overlay) and one untouched key.
    for k in [5_000i64, 5_001] {
        let probe = eq(k);
        let est = rel.qualification_estimate(&probe).unwrap();
        let (rows, visited) = rel.keyed_rows(&probe).unwrap();
        assert_eq!(rows.len(), 1);
        assert!(
            visited <= rows.len() as u64 + chunks,
            "keyed read of {k} visited {visited} rows"
        );
        assert_eq!(est.keyed, visited + chunks, "{est:?}");
        let before = rel.qual_work();
        let mut fork = rel.clone();
        let written = fork
            .edit_tuples(Some(&probe), |t| {
                Ok::<_, PagerError>(if t.value(0).as_int() == Some(k) {
                    RowEdit::Remove
                } else {
                    RowEdit::Keep
                })
            })
            .unwrap();
        assert_eq!(written, 1);
        let edit_visited = fork.qual_work() - before;
        assert!(
            edit_visited <= 1 + chunks,
            "keyed edit of {k} visited {edit_visited} rows"
        );
        assert_eq!(edit_visited, visited);
    }
    // Reassigning an updated row's key refiles it: the old key visits
    // nothing, the new key visits the one row.
    rel.edit_tuples(Some(&eq(5_005)), |t| {
        let mut values = t.values().to_vec();
        values[0] = Value::Int(-5_005);
        Ok::<_, PagerError>(RowEdit::Replace(vec![Tuple::with_rt(
            values,
            t.rt().clone(),
        )]))
    })
    .unwrap();
    assert_eq!(rel.keyed_rows(&eq(5_005)).unwrap(), (vec![], 0));
    assert_eq!(rel.keyed_rows(&eq(-5_005)).unwrap().1, 1);
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
