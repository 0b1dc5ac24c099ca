//! The storage unit tests: chunks, overlays and pins, edits and key
//! probes, the journal, the compaction policy and the borrowing iterator.

use super::{cold_store, eq_probe, ints, rel, resident_rows, schema, t, TestPager};
use crate::keyindex::KeyProbe;
use crate::relation::{
    ChunkPager, ChunkSource, JournalOp, OngoingRelation, PagerError, RowEdit, RUN_CHUNK_SLACK,
    TARGET_CHUNK_ROWS,
};
use crate::tuple::Tuple;
use crate::value::Value;
use std::sync::Arc;

#[test]
fn push_and_iterate_in_order() {
    let mut s = OngoingRelation::new(schema());
    for i in 0..5 {
        s.push(t(i));
    }
    assert_eq!(s.len(), 5);
    assert_eq!(ints(&s), vec![0, 1, 2, 3, 4]);
    assert_eq!(s.storage_summary().pending_rows, 5);
}

#[test]
fn pushes_seal_at_target() {
    let mut s = OngoingRelation::new(schema());
    for i in 0..(TARGET_CHUNK_ROWS as i64 + 3) {
        s.push(t(i));
    }
    let sum = s.storage_summary();
    assert_eq!(sum.chunks, 1);
    assert_eq!(sum.pending_rows, 3);
    assert_eq!(s.len(), TARGET_CHUNK_ROWS + 3);
}

#[test]
fn from_tuples_builds_dense_chunks() {
    let s = rel((0..1200).map(t).collect());
    let sum = s.storage_summary();
    assert_eq!(sum.chunks, 3);
    assert_eq!(sum.pending_rows, 0);
    assert_eq!(s.len(), 1200);
    assert_eq!(ints(&s), (0..1200).collect::<Vec<_>>());
}

#[test]
fn from_tuples_cuts_full_chunks_from_the_front() {
    for n in [0usize, 1, 511, 512, 513, 1537] {
        let s = rel((0..n as i64).map(t).collect());
        // Full chunks of TARGET_CHUNK_ROWS, the remainder last.
        let want: Vec<usize> = (0..n)
            .step_by(TARGET_CHUNK_ROWS)
            .map(|start| (n - start).min(TARGET_CHUNK_ROWS))
            .collect();
        let bases: Vec<usize> = s
            .chunk_parts()
            .iter()
            .map(|p| resident_rows(p).len())
            .collect();
        let lives: Vec<usize> = s.lazy_views().iter().map(|v| v.len()).collect();
        assert_eq!(bases, want, "chunk sizes for n = {n}");
        assert_eq!(lives, want, "live counts for n = {n}");
        assert_eq!(s.storage_summary().chunks, want.len());
        assert_eq!(s.len(), n);
        assert_eq!(ints(&s), (0..n as i64).collect::<Vec<_>>());
    }
}

#[test]
fn edits_tombstone_replace_and_split() {
    let mut s = rel((0..10).map(t).collect());
    let plan = s
        .plan_edits(None, |tp| {
            Ok::<_, PagerError>(match tp.value(0).as_int().unwrap() {
                3 => RowEdit::Remove,
                5 => RowEdit::Replace(vec![t(50)]),
                7 => RowEdit::Replace(vec![t(70), t(71)]),
                _ => RowEdit::Keep,
            })
        })
        .unwrap()
        .0;
    assert_eq!(s.apply_edits(plan), 3);
    assert_eq!(ints(&s), vec![0, 1, 2, 4, 50, 6, 70, 71, 8, 9]);
    assert_eq!(s.len(), 10);
}

#[test]
fn edits_on_replacements_compose() {
    let mut s = rel((0..4).map(t).collect());
    let plan = s
        .plan_edits(None, |tp| {
            Ok::<_, PagerError>(if tp.value(0).as_int() == Some(1) {
                RowEdit::Replace(vec![t(10), t(11)])
            } else {
                RowEdit::Keep
            })
        })
        .unwrap()
        .0;
    s.apply_edits(plan);
    // Now edit one member of the replacement list.
    let plan = s
        .plan_edits(None, |tp| {
            Ok::<_, PagerError>(if tp.value(0).as_int() == Some(10) {
                RowEdit::Remove
            } else {
                RowEdit::Keep
            })
        })
        .unwrap()
        .0;
    s.apply_edits(plan);
    assert_eq!(ints(&s), vec![0, 11, 2, 3]);
}

#[test]
fn fork_shares_untouched_chunks() {
    let mut base = rel((0..2000).map(t).collect());
    base.seal_pending();
    let chunks = base.storage_summary().chunks;
    let mut fork = base.clone();
    let plan = fork
        .plan_edits(None, |tp| {
            Ok::<_, PagerError>(if tp.value(0).as_int() == Some(1999) {
                RowEdit::Remove
            } else {
                RowEdit::Keep
            })
        })
        .unwrap()
        .0;
    fork.apply_edits(plan);
    // Every chunk's base is still shared; only the last chunk's overlay
    // differs.
    assert_eq!(fork.shares_chunks_with(&base), chunks);
    assert_eq!(base.len(), 2000);
    assert_eq!(fork.len(), 1999);
}

#[test]
fn edit_write_work_is_delta_sized() {
    let mut s = rel((0..10_000).map(t).collect());
    let before = s.write_work();
    let plan = s
        .plan_edits(None, |tp| {
            Ok::<_, PagerError>(if tp.value(0).as_int().unwrap() % 1000 == 0 {
                RowEdit::Replace(vec![t(-1)])
            } else {
                RowEdit::Keep
            })
        })
        .unwrap()
        .0;
    s.apply_edits(plan);
    let spent = s.write_work() - before;
    assert!(spent <= 2 * 10, "10-row edit cost {spent} work units");
}

#[test]
fn compact_preserves_sequence_and_folds_layout() {
    let mut s = rel((0..1000).map(t).collect());
    let plan = s
        .plan_edits(None, |tp| {
            Ok::<_, PagerError>(match tp.value(0).as_int().unwrap() {
                x if x % 3 == 0 => RowEdit::Remove,
                x if x % 3 == 1 => RowEdit::Replace(vec![t(-x)]),
                _ => RowEdit::Keep,
            })
        })
        .unwrap()
        .0;
    s.apply_edits(plan);
    for i in 0..5 {
        s.push(t(10_000 + i));
    }
    let before = ints(&s);
    s.compact().unwrap();
    assert_eq!(ints(&s), before);
    let sum = s.storage_summary();
    assert_eq!(sum.overlay_rows, 0);
    assert_eq!(sum.dead_rows, 0);
    assert_eq!(sum.pending_rows, 0);
}

#[test]
fn plan_error_leaves_store_untouched() {
    let s = rel((0..10).map(t).collect());
    let before = ints(&s);
    let r = s.plan_edits(None, |tp| {
        if tp.value(0).as_int() == Some(5) {
            Err(PagerError("boom".into()))
        } else {
            Ok(RowEdit::Remove)
        }
    });
    assert!(r.is_err());
    assert_eq!(ints(&s), before);
}

#[test]
fn chunk_views_cover_all_rows() {
    let mut s = rel((0..1100).map(t).collect());
    s.push(t(5000));
    // An overlay: a tombstone and a split, so the pins splice edits.
    s.edit_tuples(None, |tp| {
        Ok::<_, PagerError>(match tp.value(0).as_int() {
            Some(3) => RowEdit::Remove,
            Some(7) => RowEdit::Replace(vec![t(70), t(71)]),
            _ => RowEdit::Keep,
        })
    })
    .unwrap();
    let views = s.lazy_views();
    let total: usize = views.iter().map(|v| v.len()).sum();
    assert_eq!(total, s.len());
    let mut via_views = Vec::new();
    for v in &views {
        let pinned = v.pin().unwrap();
        assert_eq!(pinned.len(), v.len());
        assert_eq!(pinned.iter().count(), v.len());
        via_views.extend(pinned.iter().map(|t| t.value(0).as_int().unwrap()));
    }
    assert_eq!(via_views, ints(&s));
}

#[test]
fn keyed_plan_equals_scan_plan() {
    let mut s = rel((0..2000).map(t).collect());
    s.build_key_index(0).unwrap();
    // Fragment: tombstone, replace, split, plus a pending tail.
    let plan = s
        .plan_edits(None, |tp| {
            Ok::<_, PagerError>(match tp.value(0).as_int().unwrap() {
                7 => RowEdit::Remove,
                600 => RowEdit::Replace(vec![t(-600)]),
                1500 => RowEdit::Replace(vec![t(1500), t(1501)]),
                _ => RowEdit::Keep,
            })
        })
        .unwrap()
        .0;
    s.apply_edits(plan);
    s.push(t(99_999));
    for probe in [eq_probe(3), eq_probe(-600), eq_probe(99_999), eq_probe(42)] {
        let f = |tp: &Tuple| {
            Ok::<_, PagerError>(if probe.matches(tp.value(0)) {
                RowEdit::Replace(vec![t(-1)])
            } else {
                RowEdit::Keep
            })
        };
        let scan_plan = s.plan_edits(None, f).unwrap().0;
        let (keyed_plan, visited) = s.plan_edits(Some(&probe), f).unwrap();
        assert_eq!(keyed_plan, scan_plan, "probe {probe:?}");
        assert!(
            visited < s.len() as u64 / 2,
            "keyed pass visited {visited} of {} rows",
            s.len()
        );
    }
}

#[test]
fn keyed_rows_equal_filtered_scan() {
    let mut s = rel((0..2000).map(|x| t(x % 50)).collect());
    s.build_key_index(0).unwrap();
    // Fragment: tombstone, replace into the probed key, split, pending.
    let plan = s
        .plan_edits(None, |tp| {
            Ok::<_, PagerError>(match tp.value(0).as_int().unwrap() {
                7 => RowEdit::Remove,
                13 => RowEdit::Replace(vec![t(42)]),
                29 => RowEdit::Replace(vec![t(29), t(42)]),
                _ => RowEdit::Keep,
            })
        })
        .unwrap()
        .0;
    s.apply_edits(plan);
    s.push(t(42));
    for probe in [
        eq_probe(42),
        eq_probe(7),
        eq_probe(-5),
        KeyProbe::Range {
            col: 0,
            lo: std::ops::Bound::Included(Value::Int(40)),
            hi: std::ops::Bound::Excluded(Value::Int(44)),
        },
    ] {
        let scan: Vec<Tuple> = s
            .iter()
            .filter(|tp| probe.matches(tp.value(0)))
            .cloned()
            .collect();
        let (keyed, visited) = s.keyed_rows(&probe).unwrap();
        assert_eq!(keyed, scan, "probe {probe:?}");
        assert!(
            visited < s.len() as u64,
            "keyed read visited every row for {probe:?}"
        );
    }
}

#[test]
fn keyed_rows_without_an_index_visit_every_row() {
    let s = rel((0..10).map(t).collect());
    assert_eq!(s.keyed_rows(&eq_probe(3)).unwrap(), (vec![t(3)], 10));
}

#[test]
fn keyed_edit_meters_qual_work() {
    let mut s = rel((0..10_000).map(t).collect());
    s.build_key_index(0).unwrap();
    let before = s.qual_work();
    let written = s
        .edit_tuples(Some(&eq_probe(5_000)), |tp| {
            Ok::<_, PagerError>(if tp.value(0).as_int() == Some(5_000) {
                RowEdit::Remove
            } else {
                RowEdit::Keep
            })
        })
        .unwrap();
    assert_eq!(written, 1);
    let visited = s.qual_work() - before;
    assert!(visited <= 8, "one-key edit visited {visited} rows");
    // The scan path meters every live row.
    let before = s.qual_work();
    s.edit_tuples(None, |_| Ok::<_, PagerError>(RowEdit::Keep))
        .unwrap();
    assert_eq!(s.qual_work() - before, s.len() as u64);
}

#[test]
fn edit_without_an_index_visits_every_row() {
    let mut s = rel((0..10).map(t).collect());
    assert!(s.qualification_estimate(&eq_probe(3)).is_none());
    let remove_3 = |tp: &Tuple| {
        Ok::<_, PagerError>(if tp.value(0).as_int() == Some(3) {
            RowEdit::Remove
        } else {
            RowEdit::Keep
        })
    };
    assert_eq!(s.edit_tuples(Some(&eq_probe(3)), remove_3).unwrap(), 1);
    assert_eq!(s.qual_work(), 10);
    assert_eq!(ints(&s), vec![0, 1, 2, 4, 5, 6, 7, 8, 9]);
}

#[test]
fn index_survives_seal_compact_and_fork() {
    let mut s = OngoingRelation::new(schema());
    s.build_key_index(0).unwrap();
    for i in 0..(TARGET_CHUNK_ROWS as i64 * 2 + 50) {
        s.push(t(i % 100));
    }
    let est = s.qualification_estimate(&eq_probe(17)).unwrap();
    // ~1/100 of the sealed rows match; the open tail (50 rows) is
    // walked, plus one probe per sealed chunk.
    assert!(est.candidates >= 10 && est.candidates <= 11, "{est:?}");
    assert_eq!(est.keyed, est.candidates + 50 + 2);
    assert!(est.keyed < est.scan);
    let fork = s.clone();
    assert_eq!(fork.key_indexed_columns(), &[0]);
    s.compact().unwrap();
    assert_eq!(s.key_indexed_columns(), &[0]);
    let est = s.qualification_estimate(&eq_probe(17)).unwrap();
    // No tail and no overlay left: only candidates and chunk probes.
    assert_eq!(
        est.keyed,
        est.candidates + s.storage_summary().chunks as u64
    );
    assert!(est.candidates >= 10);
}

#[test]
fn compact_runs_folds_only_fragmented_chunks() {
    // Three full chunks + a tail of tiny sealed chunks.
    let mut s = rel((0..3 * TARGET_CHUNK_ROWS as i64).map(t).collect());
    for b in 0..(RUN_CHUNK_SLACK as i64 + 4) {
        s.push(t(100_000 + b));
        s.seal_pending();
    }
    let before: Vec<i64> = ints(&s);
    let chunks_before = s.storage_summary().chunks;
    assert!(!s.fragmented_runs().is_empty());
    let base = s.clone();
    let work = s.compact_runs().unwrap();
    // Logical no-op…
    assert_eq!(ints(&s), before);
    // …that folded the tiny tail run only: the three full chunks are
    // still physically shared with the pre-fold version.
    assert!(s.storage_summary().chunks < chunks_before);
    assert_eq!(s.shares_chunks_with(&base), 3);
    // And the work is the run's rows, not the table's.
    assert!(
        work <= (RUN_CHUNK_SLACK + 4) as u64,
        "partial fold cost {work} wu"
    );
    assert!(s.fragmented_runs().is_empty());
}

#[test]
fn compact_runs_folds_dirty_chunks() {
    let mut s = rel((0..2 * TARGET_CHUNK_ROWS as i64).map(t).collect());
    // Dirty the second chunk past the 25 % trigger.
    let plan = s
        .plan_edits(None, |tp| {
            let x = tp.value(0).as_int().unwrap();
            Ok::<_, PagerError>(if (600..740).contains(&x) {
                RowEdit::Remove
            } else {
                RowEdit::Keep
            })
        })
        .unwrap()
        .0;
    s.apply_edits(plan);
    let base = s.clone();
    assert!(!s.fragmented_runs().is_empty());
    let before = ints(&s);
    let work = s.compact_runs().unwrap();
    assert_eq!(ints(&s), before);
    assert_eq!(s.storage_summary().dead_rows, 0);
    // The clean first chunk stayed shared; work is O(folded run).
    assert!(s.shares_chunks_with(&base) >= 1);
    assert!(work <= 2 * TARGET_CHUNK_ROWS as u64, "fold cost {work}");
}

/// Physical layouts are equal: same chunk boundaries, same overlays,
/// same live counts — not just the same logical sequence.
fn assert_same_layout(a: &OngoingRelation, b: &OngoingRelation) {
    assert_eq!(ints(a), ints(b));
    assert_eq!(a.storage_summary(), b.storage_summary());
    let (pa, pb) = (a.chunk_parts(), b.chunk_parts());
    assert_eq!(pa.len(), pb.len());
    for (x, y) in pa.iter().zip(pb.iter()) {
        assert_eq!(&resident_rows(x)[..], &resident_rows(y)[..]);
        assert_eq!(x.edits, y.edits);
    }
}

#[test]
fn parts_round_trip_rebuilds_layout() {
    let mut s = rel((0..1300).map(t).collect());
    s.build_key_index(0).unwrap();
    let plan = s
        .plan_edits(None, |tp| {
            Ok::<_, PagerError>(match tp.value(0).as_int().unwrap() {
                7 => RowEdit::Remove,
                600 => RowEdit::Replace(vec![t(-600), t(-601)]),
                _ => RowEdit::Keep,
            })
        })
        .unwrap()
        .0;
    s.apply_edits(plan);
    s.seal_pending();
    let rebuilt =
        OngoingRelation::from_parts(schema(), s.chunk_parts(), None, s.key_indexed_columns());
    assert_same_layout(&s, &rebuilt);
    assert_eq!(rebuilt.key_indexed_columns(), &[0]);
    assert!(
        rebuilt
            .qualification_estimate(&eq_probe(-600))
            .unwrap()
            .keyed
            > 0
    );
}

#[test]
fn journal_replay_reproduces_layout() {
    // Base version: sealed, published-like store.
    let mut base = rel((0..1000).map(t).collect());
    base.build_key_index(0).unwrap();
    base.seal_pending();

    // Fork, journal a workload heavy enough to trigger folds.
    let mut fork = base.clone();
    fork.begin_journal();
    for i in 0..600 {
        fork.push(t(10_000 + i));
    }
    let plan = fork
        .plan_edits(None, |tp| {
            Ok::<_, PagerError>(match tp.value(0).as_int().unwrap() {
                x if (100..400).contains(&x) => RowEdit::Remove,
                500 => RowEdit::Replace(vec![t(1), t(2)]),
                _ => RowEdit::Keep,
            })
        })
        .unwrap()
        .0;
    fork.apply_edits(plan);
    fork.build_key_index(0).unwrap(); // idempotent: must not journal
    fork.compact_runs().unwrap();
    fork.compact().unwrap();
    fork.seal_pending();
    let ops = fork.take_journal().expect("journal armed");

    // Recovery: rebuild the base layout from parts, replay the ops.
    let mut recovered = OngoingRelation::from_parts(
        schema(),
        base.chunk_parts(),
        None,
        base.key_indexed_columns(),
    );
    recovered.apply_journal(ops).unwrap();
    assert_same_layout(&fork, &recovered);
    assert_eq!(recovered.key_indexed_columns(), fork.key_indexed_columns());
}

#[test]
fn journal_is_severed_by_clone() {
    let mut s = rel((0..10).map(t).collect());
    s.begin_journal();
    s.push(t(10));
    let mut copy = s.clone();
    assert!(copy.take_journal().is_none());
    assert_eq!(s.take_journal().unwrap().len(), 1);
    assert!(s.take_journal().is_none());
}

#[test]
fn journal_markers_are_delta_sized() {
    // A fold is O(table) of in-memory work but one journal marker:
    // the WAL cost of a publication stays O(rows touched).
    let mut s = rel((0..5000).map(t).collect());
    s.begin_journal();
    let plan = s
        .plan_edits(None, |tp| {
            Ok::<_, PagerError>(if tp.value(0).as_int().unwrap() % 500 == 0 {
                RowEdit::Remove
            } else {
                RowEdit::Keep
            })
        })
        .unwrap()
        .0;
    s.apply_edits(plan);
    s.compact().unwrap();
    let ops = s.take_journal().unwrap();
    let tuples_logged: usize = ops
        .iter()
        .map(|op| match op {
            JournalOp::Append(_) => 1,
            JournalOp::Edits(es) => es.iter().map(|(_, _, rows, _)| rows.len().max(1)).sum(),
            _ => 0,
        })
        .sum();
    assert_eq!(ops.len(), 2); // one Edits batch + one Compact marker
    assert!(tuples_logged <= 10, "journal carried {tuples_logged} rows");
}

#[test]
fn chunk_count_trigger_still_fires_after_compact_runs() {
    // The catalog folds runs first: a chunk with 60 % of its rows
    // deleted is dirty, so run folding removes the dead rows and the
    // whole-table fold has nothing left to do.
    let mut s = rel((0..100).map(t).collect());
    assert!(!s.should_compact());
    let plan = s
        .plan_edits(None, |tp| {
            Ok::<_, PagerError>(if tp.value(0).as_int().unwrap() < 60 {
                RowEdit::Remove
            } else {
                RowEdit::Keep
            })
        })
        .unwrap()
        .0;
    s.apply_edits(plan);
    s.compact_runs().unwrap();
    assert_eq!(s.storage_summary().dead_rows, 0);
    assert!(!s.should_compact());
    // What run folding leaves in place — pairs of small chunks between
    // full clean ones — still trips the chunk-count trigger.
    let mut s = OngoingRelation::new(schema());
    for round in 0..40 {
        for i in 0..TARGET_CHUNK_ROWS as i64 {
            s.push(t(round * 10_000 + i));
        }
        for extra in 0..2 {
            s.push(t(round * 10_000 + 5_000 + extra));
            s.seal_pending();
        }
    }
    assert_eq!(s.compact_runs().unwrap(), 0);
    assert!(s.should_compact());
    s.compact().unwrap();
    assert!(!s.should_compact());
}

#[test]
fn run_folding_bounds_dead_and_overlay_rows_by_a_third_of_live() {
    let mut state = 0x9E37_79B9_7F4A_7C15_u64;
    let mut next = move |n: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % n
    };
    for _ in 0..20 {
        let rows = (next(4) as i64 + 1) * TARGET_CHUNK_ROWS as i64;
        let mut s = rel((0..rows).map(t).collect());
        let mut fresh = rows;
        for _ in 0..30 {
            match next(3) {
                0 => {
                    for _ in 0..next(64) + 1 {
                        s.push(t(fresh));
                        fresh += 1;
                    }
                    s.seal_pending();
                }
                kind => {
                    let rate = next(8) + 2;
                    let mut pick = |_: &Tuple| next(rate) == 0;
                    let plan = s
                        .plan_edits(None, |tp| {
                            Ok::<_, PagerError>(match (pick(tp), kind) {
                                (false, _) => RowEdit::Keep,
                                (true, 1) => RowEdit::Remove,
                                (true, _) => RowEdit::Replace(vec![tp.clone(), tp.clone()]),
                            })
                        })
                        .unwrap()
                        .0;
                    s.apply_edits(plan);
                }
            }
            s.compact_runs().unwrap();
            let sum = s.storage_summary();
            assert!(
                3 * (sum.dead_rows + sum.overlay_rows) <= s.len(),
                "dead {} + overlay {} > live {} / 3",
                sum.dead_rows,
                sum.overlay_rows,
                s.len()
            );
        }
    }
}

#[test]
fn cold_chunks_build_without_loading() {
    let pager = TestPager::of(vec![]);
    let s = cold_store(&pager);
    assert_eq!(s.len(), 600);
    assert_eq!(pager.loads(), 0, "construction must not page anything in");
    // Serialization surfaces identity, not rows.
    let parts = s.chunk_parts();
    assert!(matches!(
        parts[0].source,
        ChunkSource::Cold { id: 7, len: 512 }
    ));
    assert_eq!(pager.loads(), 0);
}

#[test]
fn lazy_pins_do_not_park() {
    let pager = TestPager::of(vec![]);
    let s = cold_store(&pager);
    let views = s.lazy_views();
    assert_eq!(views.len(), 2);
    assert_eq!(views[0].len(), 512);
    for _ in 0..3 {
        let pin = views[0].pin().unwrap();
        assert_eq!(pin.iter().count(), 512);
    }
    // Transient pins release the rows: every pin loads afresh.
    assert_eq!(pager.loads(), 3);
    assert!(!views[0].is_resident() && views[1].is_resident());
    // The resident chunk never involves the pager.
    assert_eq!(views[1].pin().unwrap().iter().count(), 88);
    assert_eq!(pager.loads(), 3);
    // The store's own readers pin transiently too: a full-scan edit
    // pages the cold chunk in and releases it.
    let mut s = cold_store(&pager);
    let cold = |s: &OngoingRelation| !s.lazy_views()[0].is_resident();
    s.edit_tuples(None, |tp| {
        Ok::<_, PagerError>(match tp.value(0).as_int() {
            Some(3) => RowEdit::Replace(vec![t(-3)]),
            _ => RowEdit::Keep,
        })
    })
    .unwrap();
    assert!(cold(&s), "a full-scan edit parked the cold chunk");
    assert_eq!(pager.loads(), 4);
    // A key-index build and a keyed edit do too.
    s.build_key_index(0).unwrap();
    assert!(cold(&s), "the key-index build parked the cold chunk");
    let written = s
        .edit_tuples(Some(&eq_probe(5)), |tp| {
            Ok::<_, PagerError>(if tp.value(0).as_int() == Some(5) {
                RowEdit::Remove
            } else {
                RowEdit::Keep
            })
        })
        .unwrap();
    assert_eq!(written, 1);
    assert!(cold(&s), "a keyed edit parked the cold chunk");
    assert_eq!(pager.loads(), 6);
    let (rows, _) = s.keyed_rows(&eq_probe(-3)).unwrap();
    assert_eq!(rows, vec![t(-3)]);
    assert!(cold(&s), "a keyed read parked the cold chunk");
    let mut want: Vec<i64> = (0..600).filter(|&x| x != 5).collect();
    want[3] = -3;
    assert_eq!(ints(&s.clone()), want);
}

#[test]
fn park_on_touch_loads_once_per_version() {
    let pager = TestPager::of(vec![]);
    let s = cold_store(&pager);
    assert_eq!(ints(&s), (0..600).collect::<Vec<_>>());
    assert_eq!(ints(&s), (0..600).collect::<Vec<_>>());
    assert_eq!(pager.loads(), 1, "park caches the rows for this version");
    assert!(s.lazy_views().iter().all(|v| v.is_resident()));
    // A clone starts un-parked and pages in on its own.
    let fork = s.clone();
    assert_eq!(ints(&fork), (0..600).collect::<Vec<_>>());
    assert_eq!(pager.loads(), 2);
}

#[test]
fn pin_surfaces_pager_errors() {
    let pager = TestPager::of(vec![]);
    let s = cold_store(&pager);
    let mut keyed = s.clone();
    keyed.build_key_index(0).unwrap();
    pager.fail.store(true, std::sync::atomic::Ordering::SeqCst);
    let views = s.lazy_views();
    assert!(views[0].pin().is_err());
    // The resident view still pins fine.
    assert!(views[1].pin().is_ok());
    // Every store-internal reader surfaces the failure as an error.
    let injected = Some(PagerError("injected".into()));
    let keep = |_: &Tuple| Ok::<_, PagerError>(RowEdit::Keep);
    assert_eq!(s.plan_edits(None, keep).err(), injected);
    assert_eq!(keyed.plan_edits(Some(&eq_probe(5)), keep).err(), injected);
    assert_eq!(keyed.keyed_rows(&eq_probe(5)).err(), injected);
    // Tombstone 200 rows of the cold chunk so both folds have work.
    let mut parts = s.chunk_parts();
    parts[0].edits = (0..200).map(|o| (o, Vec::new())).collect();
    let mut failing = OngoingRelation::from_parts(schema(), parts, s.pager().cloned(), &[]);
    assert_eq!(failing.build_key_index(0).err(), injected);
    assert!(!failing.fragmented_runs().is_empty());
    assert_eq!(failing.compact_runs().err(), injected);
    assert_eq!(failing.compact().err(), injected);
    // …and leaves the store as it was.
    assert_eq!(failing.key_indexed_columns(), &[] as &[usize]);
    assert_eq!(failing.storage_summary().chunks, 2);
    assert_eq!(failing.storage_summary().dead_rows, 200);
}

#[test]
fn make_resident_drops_the_pager() {
    let pager = TestPager::of(vec![]);
    let mut s = cold_store(&pager);
    pager.fail.store(true, std::sync::atomic::Ordering::SeqCst);
    assert!(s.make_resident().is_err());
    assert!(s.pager().is_some() && !s.lazy_views()[0].is_resident());
    pager.fail.store(false, std::sync::atomic::Ordering::SeqCst);
    s.make_resident().unwrap();
    assert!(s.pager().is_none());
    assert_eq!(pager.loads(), 1);
    assert!(matches!(
        s.chunk_parts()[0].source,
        ChunkSource::Resident(_)
    ));
    assert_eq!(ints(&s), (0..600).collect::<Vec<_>>());
    assert_eq!(pager.loads(), 1, "resident rows never page in again");
    // A store holds one pager: a cold store under another pager
    // demotes nothing.
    let mut cold = cold_store(&pager);
    let other: Arc<dyn ChunkPager> = TestPager::of(vec![]);
    assert_eq!(cold.demote_where(&other, |_| Some(9)), 0);
    assert!(Arc::ptr_eq(
        cold.pager().unwrap(),
        &(pager as Arc<dyn ChunkPager>)
    ));
}

#[test]
fn demote_where_is_logically_invisible() {
    let pager = TestPager::of(vec![]);
    let mut s = rel((0..600).map(t).collect());
    s.build_key_index(0).unwrap();
    let before = ints(&s);
    // Stash each chunk's rows in the pager under its would-be id, then
    // demote everything.
    let mut id = 0u64;
    {
        let mut chunks = pager.chunks.lock().unwrap();
        for p in s.chunk_parts() {
            chunks.insert(id, resident_rows(&p).to_vec());
            id += 1;
        }
    }
    let mut next = 0u64;
    let pager_dyn: Arc<dyn ChunkPager> = Arc::clone(&pager) as Arc<dyn ChunkPager>;
    let demoted = s.demote_where(&pager_dyn, |_| {
        let id = next;
        next += 1;
        Some(id)
    });
    assert_eq!(demoted, 2);
    assert_eq!(s.len(), 600);
    assert_eq!(pager.loads(), 0, "demotion itself loads nothing");
    // Key maps survive demotion: keyed qualification still works
    // without paging in candidate-free chunks.
    let est = s.qualification_estimate(&eq_probe(5)).unwrap();
    assert!(est.keyed < est.scan);
    let (plan, visited) = s
        .plan_edits(Some(&eq_probe(5)), |_| Ok::<_, PagerError>(RowEdit::Remove))
        .unwrap();
    assert_eq!(plan.len(), 1);
    assert_eq!(visited, 1);
    assert_eq!(pager.loads(), 1, "only the candidate's chunk paged in");
    // Full iteration still yields the original sequence.
    let fork = s.clone();
    assert_eq!(ints(&fork), before);
    // Demoted chunks share identity across clones.
    assert!(fork.derives_from(&s));
    assert_eq!(fork.shares_chunks_with(&s), 2);
}
