//! Integration tests for the planner (operator choice, pushdown, index)
//! and the storage substrate (chunk files, layout model) on generated
//! data.

use ongoing_core::allen::TemporalPredicate;
use ongoing_datasets::{synthetic, History, SyntheticConfig};
use ongoing_relation::Expr;
use ongoingdb::engine::plan::{compile, JoinStrategy, PlannerConfig};
use ongoingdb::engine::storage::{chunkfile, layout};
use ongoingdb::engine::{queries, Database, QueryBuilder};

fn db_with_dex(n: usize) -> Database {
    let db = Database::new();
    db.create_table(
        "Dex",
        synthetic::generate(&SyntheticConfig::dex(n, None, 3)),
    )
    .unwrap();
    db
}

#[test]
fn planner_picks_hash_join_for_equi_conjuncts() {
    let db = db_with_dex(50);
    let plan = queries::self_join(&db, "Dex", "K", TemporalPredicate::Overlaps).unwrap();
    let phys = compile(&db, &plan, &PlannerConfig::default()).unwrap();
    let explain = phys.explain();
    assert!(explain.contains("HashJoin"), "{explain}");
    // The temporal conjunct stays as an ongoing residual.
    assert!(explain.contains("ongoing:"), "{explain}");
}

#[test]
fn planner_picks_sweep_join_without_equi_keys() {
    let db = db_with_dex(50);
    let l = QueryBuilder::scan_as(&db, "Dex", "R").unwrap();
    let r = QueryBuilder::scan_as(&db, "Dex", "S").unwrap();
    let plan = l
        .join(r, |s| {
            Ok(Expr::col(s, "R.VT")?.overlaps(Expr::col(s, "S.VT")?))
        })
        .unwrap()
        .build();
    let phys = compile(&db, &plan, &PlannerConfig::default()).unwrap();
    assert!(phys.explain().contains("SweepJoin"), "{}", phys.explain());
}

#[test]
fn before_join_does_not_use_sweep() {
    // `before` does not imply a shared time point; the envelope pre-filter
    // would be unsound, so the planner must fall back to nested loops.
    let db = db_with_dex(30);
    let l = QueryBuilder::scan_as(&db, "Dex", "R").unwrap();
    let r = QueryBuilder::scan_as(&db, "Dex", "S").unwrap();
    let plan = l
        .join(r, |s| {
            Ok(Expr::col(s, "R.VT")?.before(Expr::col(s, "S.VT")?))
        })
        .unwrap()
        .build();
    let phys = compile(&db, &plan, &PlannerConfig::default()).unwrap();
    assert!(
        phys.explain().contains("NestedLoopJoin"),
        "{}",
        phys.explain()
    );
}

#[test]
fn pushdown_moves_single_side_conjuncts_below_join() {
    let db = db_with_dex(30);
    let l = QueryBuilder::scan_as(&db, "Dex", "R").unwrap();
    let r = QueryBuilder::scan_as(&db, "Dex", "S").unwrap();
    let joined = l
        .join(r, |s| {
            Ok(Expr::col(s, "R.K")?
                .eq(Expr::col(s, "S.K")?)
                .and(Expr::col(s, "R.ID")?.lt(Expr::lit(10i64)))
                .and(Expr::col(s, "S.ID")?.lt(Expr::lit(20i64))))
        })
        .unwrap()
        .build();
    let phys = compile(&db, &joined, &PlannerConfig::default()).unwrap();
    let explain = phys.explain();
    // Both single-side conjuncts become filters below the join.
    assert_eq!(
        explain.matches("Filter").count(),
        2,
        "expected two pushed-down filters:\n{explain}"
    );
    let without = compile(
        &db,
        &joined,
        &PlannerConfig {
            pushdown: false,
            ..PlannerConfig::default()
        },
    )
    .unwrap();
    assert_eq!(without.explain().matches("Filter").count(), 0);
    // Same results either way.
    let ctx = PlannerConfig::default().exec_context();
    let (a, _) = phys.execute_with_stats(&ctx).unwrap();
    let (b, _) = without.execute_with_stats(&ctx).unwrap();
    assert_eq!(a.len(), b.len());
}

#[test]
fn index_scan_is_used_and_correct() {
    let db = db_with_dex(400);
    let h = History::synthetic();
    let w = h.last_fraction(0.1);
    let plan =
        queries::selection(&db, "Dex", TemporalPredicate::Overlaps, (w.start, w.end)).unwrap();
    let cfg = PlannerConfig {
        use_interval_index: true,
        ..PlannerConfig::default()
    };
    let phys = compile(&db, &plan, &cfg).unwrap();
    assert!(phys.explain().contains("IndexScan"), "{}", phys.explain());
    let scan = compile(&db, &plan, &PlannerConfig::default()).unwrap();
    assert!(!scan.explain().contains("IndexScan"), "{}", scan.explain());
    // The index scan reads its candidates in storage order, so it emits
    // exactly the scan plan's tuples, in the same order.
    let ctx = cfg.exec_context();
    let (via_index, _) = phys.execute_with_stats(&ctx).unwrap();
    let (via_scan, _) = scan.execute_with_stats(&ctx).unwrap();
    assert!(!via_scan.is_empty());
    assert_eq!(via_index, via_scan);
    // Instantiated mode too: the same raw rows in the same order.
    for rt in [h.midpoint(), h.end] {
        let (via_index, _) = phys.rows_at_with_stats(rt, &ctx).unwrap();
        let (via_scan, _) = scan.rows_at_with_stats(rt, &ctx).unwrap();
        assert_eq!(via_index, via_scan, "rt={rt}");
    }
}

#[test]
fn chunk_files_store_generated_relations() {
    let rel = synthetic::generate(&SyntheticConfig::dex(2_000, Some(1), 9));
    let encoded = chunkfile::encode_chunk(rel.tuples());
    let restored = chunkfile::decode_chunk(&encoded).unwrap();
    assert_eq!(restored.as_slice(), rel.tuples());
    // ~40 B payloads plus framing: the on-disk image stays in the same
    // ballpark as the layout model's estimate, not a multiple of it.
    let f = layout::measure_relation(&rel);
    assert!(
        encoded.len() < 2 * f.total_bytes.max(1),
        "chunk image {} B vs layout model {} B",
        encoded.len(),
        f.total_bytes
    );
    // Damage anywhere in the image is detected.
    let mut bad = encoded;
    bad[17] ^= 0x80;
    assert!(chunkfile::decode_chunk(&bad).is_err());
}

#[test]
fn layout_model_tracks_ongoing_overhead() {
    let rel = synthetic::generate(&SyntheticConfig::dex(1_000, None, 5));
    let f = layout::measure_relation(&rel);
    assert_eq!(f.tuples, 1_000);
    // Base relations have trivial RTs: exactly one range, 29 bytes each.
    assert_eq!(f.rt_bytes, 29 * 1_000);
    assert_eq!(f.max_rt_cardinality, 1);
    // Ongoing format carries the RT plus doubled intervals.
    assert!(f.ongoing_over_fixed() > 1.3, "{}", f.ongoing_over_fixed());
}

#[test]
fn all_join_strategies_agree_on_mozilla_complex_join() {
    let db = ongoing_datasets::mozilla_database(40, 13);
    let plan = queries::complex_join(&db, TemporalPredicate::Overlaps).unwrap();
    let mut sizes = Vec::new();
    for strategy in [
        JoinStrategy::Auto,
        JoinStrategy::NestedLoop,
        JoinStrategy::Sweep,
    ] {
        let cfg = PlannerConfig {
            join_strategy: strategy,
            ..PlannerConfig::default()
        };
        let phys = compile(&db, &plan, &cfg).unwrap();
        let (rel, _) = phys.execute_with_stats(&cfg.exec_context()).unwrap();
        sizes.push(rel.coalesce().len());
    }
    assert_eq!(sizes[0], sizes[1]);
    assert_eq!(sizes[0], sizes[2]);
}
