//! Integration tests for the planner (operator choice, pushdown)
//! and the storage substrate (chunk files, layout model) on generated
//! data.

use ongoing_core::allen::TemporalPredicate;
use ongoing_core::time::tp;
use ongoing_core::OngoingInterval;
use ongoing_datasets::{synthetic, SyntheticConfig};
use ongoing_relation::{algebra, Expr, OngoingRelation, Schema, Tuple, Value};
use ongoingdb::engine::plan::{compile, JoinStrategy, PlannerConfig};
use ongoingdb::engine::storage::{chunkfile, layout};
use ongoingdb::engine::{queries, Database, ExecContext, QueryBuilder, TraceCollector};
use std::sync::Arc;

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
    // Same result as the reference algebra over the unpushed predicate.
    let dex = db.table("Dex").unwrap();
    let (l, r) = (
        dex.data().clone().qualify("R"),
        dex.data().clone().qualify("S"),
    );
    let s = l.schema().product(r.schema());
    let pred = Expr::col(&s, "R.K")
        .unwrap()
        .eq(Expr::col(&s, "S.K").unwrap())
        .and(Expr::col(&s, "R.ID").unwrap().lt(Expr::lit(10i64)))
        .and(Expr::col(&s, "S.ID").unwrap().lt(Expr::lit(20i64)));
    let reference = algebra::join(&l, &r, &pred).unwrap();
    let (got, _) = phys
        .execute_with_stats(&PlannerConfig::default().exec_context())
        .unwrap();
    assert!(!reference.is_empty());
    assert_eq!(sorted(&got.coalesce()), sorted(&reference.coalesce()));
}

fn sorted(rel: &OngoingRelation) -> Vec<String> {
    let mut rows: Vec<String> = rel.iter().map(|t| format!("{t}")).collect();
    rows.sort();
    rows
}

#[test]
fn chunk_files_store_generated_relations() {
    let rel = synthetic::generate(&SyntheticConfig::dex(2_000, Some(1), 9));
    let rows: Vec<Tuple> = rel.iter().cloned().collect();
    let encoded = chunkfile::encode_chunk(&rows);
    let restored = chunkfile::decode_chunk(&encoded).unwrap();
    assert_eq!(restored, rows);
    // ~40 B payloads plus framing: the on-disk image stays in the same
    // ballpark as the layout model's estimate, not a multiple of it.
    let f = layout::measure_relation(&rel).unwrap();
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
    let f = layout::measure_relation(&rel).unwrap();
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

/// `L` and `R`, each `(K INT, VT INTERVAL)` with three rows.
fn db_with_two_tables() -> Database {
    let db = Database::new();
    for name in ["L", "R"] {
        let mut rel = OngoingRelation::new(Schema::builder().int("K").interval("VT").build());
        for i in 0..3i64 {
            let vt = OngoingInterval::from_until_now(tp(i));
            rel.insert(vec![Value::Int(i % 2), Value::Interval(vt)])
                .unwrap();
        }
        db.create_table(name, rel).unwrap();
    }
    db
}

/// The join operator's line is at once the `EXPLAIN` line, the span label
/// the per-operator timings key on and a part of the result-cache
/// fingerprint, so each join plan's line is pinned byte for byte: the
/// root span label of a traced run and the first `EXPLAIN` line up to its
/// estimates.
#[test]
fn join_labels_are_pinned_in_spans_and_explain() {
    let db = db_with_two_tables();
    let scans = || {
        (
            QueryBuilder::scan_as(&db, "L", "L").unwrap(),
            QueryBuilder::scan_as(&db, "R", "R").unwrap(),
        )
    };
    let join = |pred: fn(&Schema) -> Expr| {
        let (l, r) = scans();
        l.join(r, |s| Ok(pred(s))).unwrap().build()
    };
    let key_eq = |s: &Schema| {
        Expr::col(s, "L.K")
            .unwrap()
            .eq(Expr::col(s, "R.K").unwrap())
    };
    let overlap = |s: &Schema| {
        Expr::col(s, "L.VT")
            .unwrap()
            .overlaps(Expr::col(s, "R.VT").unwrap())
    };
    let product = {
        let (l, r) = scans();
        l.product(r).build()
    };
    let cases = [
        (product, JoinStrategy::Auto, "NestedLoopJoin"),
        (
            join(key_eq),
            JoinStrategy::NestedLoop,
            "NestedLoopJoin fixed: (#0 = #2)",
        ),
        (join(key_eq), JoinStrategy::Auto, "HashJoin on [(0, 0)]"),
        (
            join(overlap),
            JoinStrategy::Sweep,
            "SweepJoin envelopes #1 x #1 ongoing: (#1 overlaps #3)",
        ),
    ];
    for (plan, join_strategy, label) in cases {
        let cfg = PlannerConfig {
            join_strategy,
            ..PlannerConfig::default()
        };
        let phys = compile(&db, &plan, &cfg).unwrap();
        let explain = phys.explain();
        let first = explain.lines().next().unwrap();
        let (line, _) = first.split_once("  (est rows≈").unwrap();
        assert_eq!(line, label, "{explain}");
        let tracer = Arc::new(TraceCollector::new());
        let ctx = ExecContext::serial().with_trace(Arc::clone(&tracer));
        phys.execute_with_stats(&ctx).unwrap();
        let root = tracer.finish().pop().expect("root span");
        assert_eq!(root.label, label);
    }
}
