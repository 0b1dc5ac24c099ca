//! Property tests for the statistics & cost-based planning subsystem.
//!
//! Over the shared calibration grid of [`ongoing_bench::shapes`] — varied
//! interval length, overlap density (clustered vs. spread start points),
//! and key skew — the tests assert the two contracts of the cost model:
//!
//! (a) **estimate accuracy**: the estimated work units of a plan stay
//!     within a bounded factor of the deterministic `ExecStats` counters an
//!     actual execution measures, for every join strategy; and
//! (b) **plan-choice quality**: the plan the cost-based `Auto` strategy
//!     picks never measures worse than 2x the best enumerated alternative.
//!
//! Everything is deterministic (arithmetic data generators, stride-sampled
//! statistics, work-unit counters), so the assertions hold at every
//! `ONGOINGDB_THREADS` setting.

use ongoing_bench::shapes::{self, Shape};
use ongoing_core::allen::TemporalPredicate;
use ongoing_core::{OngoingInterval, TimePoint};
use ongoing_engine::plan::{compile, JoinStrategy, PlannerConfig};
use ongoing_engine::stats::cost;
use ongoing_engine::{queries, Database, LogicalPlan};
use ongoing_relation::{OngoingRelation, Value};

/// Rows per side for the grid shapes (small enough for fast loops, large
/// enough that strategy costs separate by orders of magnitude).
const ROWS: usize = 200;

fn grid() -> Vec<Shape> {
    shapes::grid(ROWS)
}

fn cfg(strategy: JoinStrategy) -> PlannerConfig {
    PlannerConfig {
        join_strategy: strategy,
        ..PlannerConfig::default()
    }
}

/// Compiles and executes, returning (estimated work, measured work,
/// explain text).
fn est_and_actual(db: &Database, plan: &LogicalPlan, c: &PlannerConfig) -> (f64, u64, String) {
    let phys = compile(db, plan, c).unwrap();
    let est = cost::estimate(&phys).work.total();
    let (_, stats) = phys.execute_with_stats(&c.exec_context()).unwrap();
    (est, stats.total_work(), phys.explain())
}

/// Maximum allowed est/actual (and actual/est) factor on the grid. The
/// model is a planning-grade estimator, not a simulator: histogram
/// interpolation, the uniform-key assumption and the envelope≈predicate
/// proxy each contribute bounded error, and the factor below is asserted
/// for every shape × strategy combination.
const ACCURACY_FACTOR: f64 = 4.0;

#[test]
fn estimates_track_measured_work_units_across_shapes() {
    for shape in grid() {
        let db = shapes::database(&shape);
        db.analyze_all();
        let plan = shapes::key_overlap_join(&db);
        for strategy in [
            JoinStrategy::NestedLoop,
            JoinStrategy::Hash,
            JoinStrategy::Sweep,
        ] {
            let c = cfg(strategy);
            let (est, actual, explain) = est_and_actual(&db, &plan, &c);
            let actual = actual.max(1) as f64;
            let ratio = est / actual;
            assert!(
                (1.0 / ACCURACY_FACTOR..=ACCURACY_FACTOR).contains(&ratio),
                "shape {} strategy {strategy:?}: est {est:.0} vs actual {actual:.0} \
                 (ratio {ratio:.2})\n{explain}",
                shape.name,
            );
        }
    }
}

#[test]
fn chosen_plan_is_never_far_from_the_best_alternative() {
    for shape in grid() {
        let db = shapes::database(&shape);
        db.analyze_all();
        let plan = shapes::key_overlap_join(&db);
        let (_, chosen, chosen_explain) = est_and_actual(&db, &plan, &cfg(JoinStrategy::Auto));
        let best = [
            JoinStrategy::NestedLoop,
            JoinStrategy::Hash,
            JoinStrategy::Sweep,
        ]
        .into_iter()
        .map(|s| est_and_actual(&db, &plan, &cfg(s)).1)
        .min()
        .unwrap();
        assert!(
            chosen <= best.saturating_mul(2),
            "shape {}: cost-based choice measured {chosen} vs best alternative {best}\n\
             {chosen_explain}",
            shape.name,
        );
    }
}

#[test]
fn statistics_flip_the_join_choice_with_the_data_shape() {
    // Selective keys, long clustered intervals: the hash join prunes
    // harder than envelope overlap.
    let db = shapes::database(&shapes::hash_wins(240));
    db.analyze_all();
    let phys = compile(
        &db,
        &shapes::key_overlap_join(&db),
        &cfg(JoinStrategy::Auto),
    )
    .unwrap();
    assert!(phys.explain().contains("HashJoin"), "{}", phys.explain());

    // Degenerate keys (2 distinct values), tiny intervals spread over ten
    // years: envelope overlap prunes ~1000x harder than the keys.
    let db = shapes::database(&shapes::sweep_wins(240));
    db.analyze_all();
    let phys = compile(
        &db,
        &shapes::key_overlap_join(&db),
        &cfg(JoinStrategy::Auto),
    )
    .unwrap();
    assert!(phys.explain().contains("SweepJoin"), "{}", phys.explain());

    // Without statistics the same query keeps the classic hash priority.
    let db = shapes::database(&shapes::sweep_wins(240));
    let phys = compile(
        &db,
        &shapes::key_overlap_join(&db),
        &cfg(JoinStrategy::Auto),
    )
    .unwrap();
    assert!(phys.explain().contains("HashJoin"), "{}", phys.explain());
}

#[test]
fn cost_based_choice_really_beats_the_heuristic_on_sweep_shapes() {
    // On the sweep-friendly shape the measured work of the cost-chosen
    // plan must genuinely undercut the heuristic hash join — the end-to-end
    // point of the subsystem.
    let db = shapes::database(&shapes::sweep_wins(240));
    db.analyze_all();
    let plan = shapes::key_overlap_join(&db);
    let (_, auto_work, _) = est_and_actual(&db, &plan, &cfg(JoinStrategy::Auto));
    let (_, hash_work, _) = est_and_actual(&db, &plan, &cfg(JoinStrategy::Hash));
    assert!(
        auto_work * 5 < hash_work,
        "cost-based {auto_work} should be far below forced hash {hash_work}"
    );
}

#[test]
fn explain_shows_estimates_next_to_actuals() {
    let db = shapes::database(&grid()[0]);
    db.analyze_all();
    let plan = shapes::key_overlap_join(&db);
    let c = cfg(JoinStrategy::Auto);
    let phys = compile(&db, &plan, &c).unwrap();
    let pre = phys.explain();
    // Every operator line carries its estimates.
    for line in pre.lines() {
        assert!(line.contains("est rows≈"), "{pre}");
        assert!(line.contains("self work≈"), "{pre}");
    }
    // The measured counters next to the estimated totals.
    let (_, stats) = phys.execute_with_stats(&c.exec_context()).unwrap();
    let est = cost::estimate(&phys).work;
    let full = format!("{pre}stats: {stats}\nest:   {est}\n");
    assert!(full.contains("stats: scanned="), "{full}");
    assert!(full.contains("est:   scanned≈"), "{full}");
}

#[test]
fn serial_and_parallel_agree_on_cost_chosen_plans() {
    let db = shapes::database(&grid()[5]);
    db.analyze_all();
    let plan = shapes::key_overlap_join(&db);
    let base = PlannerConfig {
        join_strategy: JoinStrategy::Auto,
        parallelism: 1,
    };
    let phys = compile(&db, &plan, &base).unwrap();
    let (serial, serial_stats) = phys.execute_with_stats(&base.exec_context()).unwrap();
    for threads in [2, 4] {
        let c = PlannerConfig {
            parallelism: threads,
            ..base.clone()
        };
        let (par, par_stats) = compile(&db, &plan, &c)
            .unwrap()
            .execute_with_stats(&c.exec_context())
            .unwrap();
        assert_eq!(serial, par, "results must match at {threads} threads");
        assert_eq!(
            serial_stats, par_stats,
            "stats must match at {threads} threads"
        );
    }
}

#[test]
fn analyze_then_modify_refreshes_statistics_past_the_threshold() {
    let db = shapes::database(&grid()[0]);
    db.analyze("L").unwrap();
    let before = db.table("L").unwrap().statistics().unwrap();
    assert_eq!(before.rows, ROWS as u64);

    // A small modification stays below the staleness threshold: the
    // statistics object is unchanged.
    db.modify_table("L", |rel| {
        rel.insert(vec![
            Value::Int(9_000),
            Value::Int(0),
            Value::Interval(OngoingInterval::from_until_now(TimePoint::new(10))),
        ])
        .map_err(ongoing_engine::EngineError::Schema)
    })
    .unwrap();
    let after_small = db.table("L").unwrap().statistics().unwrap();
    assert_eq!(after_small.rows, before.rows, "below threshold: kept");

    // Bulk growth past 50 + 10% of the analyzed rows triggers a refresh.
    db.modify_table("L", |rel| {
        for i in 0..80i64 {
            rel.insert(vec![
                Value::Int(10_000 + i),
                Value::Int(1),
                Value::Interval(OngoingInterval::fixed(
                    TimePoint::new(i),
                    TimePoint::new(i + 5),
                )),
            ])
            .map_err(ongoing_engine::EngineError::Schema)?;
        }
        Ok(())
    })
    .unwrap();
    let after_bulk = db.table("L").unwrap().statistics().unwrap();
    assert_eq!(
        after_bulk.rows,
        ROWS as u64 + 81,
        "past threshold: refreshed"
    );

    // An in-place update that rewrites many rows without changing the row
    // count also counts as modification volume (positional tuple diff) and
    // triggers a refresh — observable through the distinct count of K.
    assert!(after_bulk.fixed(1).unwrap().distinct > 150);
    db.modify_table("L", |rel| {
        let mut out = OngoingRelation::new(rel.schema().clone());
        for (i, t) in rel.iter().enumerate() {
            let mut vals = t.values().to_vec();
            if i < 100 {
                vals[1] = Value::Int(7_777);
            }
            out.push(ongoing_relation::Tuple::with_rt(vals, t.rt().clone()));
        }
        *rel = out;
        Ok(())
    })
    .unwrap();
    let after_update = db.table("L").unwrap().statistics().unwrap();
    assert_eq!(after_update.rows, after_bulk.rows, "length unchanged");
    assert!(
        after_update.fixed(1).unwrap().distinct < 150,
        "in-place rewrite must refresh the distinct count: {}",
        after_update.fixed(1).unwrap().distinct
    );

    // Never-analyzed tables stay un-analyzed through modifications.
    db.modify_table("R", |rel| {
        rel.insert(vec![
            Value::Int(1),
            Value::Int(1),
            Value::Interval(OngoingInterval::from_until_now(TimePoint::new(3))),
        ])
        .map_err(ongoing_engine::EngineError::Schema)
    })
    .unwrap();
    assert!(db.table("R").unwrap().statistics().is_none());
}

#[test]
fn fig11_complex_join_plans_from_statistics() {
    // The Fig. 11 workload planned without any strategy hint: with
    // collected statistics the cost model must (a) plan every join from
    // estimates and (b) stay within 2x of the best enumerated alternative
    // in *measured* work units.
    let db = ongoing_datasets::mozilla_database(300, 42);
    db.analyze_all();
    let plan = queries::complex_join(&db, TemporalPredicate::Overlaps).unwrap();
    let (_, auto_work, explain) = est_and_actual(&db, &plan, &cfg(JoinStrategy::Auto));
    let best = [
        JoinStrategy::NestedLoop,
        JoinStrategy::Hash,
        JoinStrategy::Sweep,
    ]
    .into_iter()
    .map(|s| est_and_actual(&db, &plan, &cfg(s)).1)
    .min()
    .unwrap();
    assert!(
        auto_work <= best.saturating_mul(2),
        "complex join: cost-based {auto_work} vs best {best}\n{explain}"
    );
    // The analyzed choice agrees with the un-analyzed heuristic result set.
    let db2 = ongoing_datasets::mozilla_database(300, 42);
    let plan2 = queries::complex_join(&db2, TemporalPredicate::Overlaps).unwrap();
    let auto = cfg(JoinStrategy::Auto);
    let ctx = auto.exec_context();
    let (a, _) = compile(&db, &plan, &auto)
        .unwrap()
        .execute_with_stats(&ctx)
        .unwrap();
    let (b, _) = compile(&db2, &plan2, &auto)
        .unwrap()
        .execute_with_stats(&ctx)
        .unwrap();
    assert_eq!(a.coalesce().len(), b.coalesce().len());
}
