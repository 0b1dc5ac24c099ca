//! Parallel-vs-serial equivalence fuzzing.
//!
//! The partition-parallel executors promise a strong determinism contract:
//! for *any* plan, executing with `parallelism` in {2, 4, 8} produces an
//! [`OngoingRelation`] that is **identical** (same tuples, same order, same
//! reference times) to single-threaded execution, the instantiated row bags
//! match row-for-row, and the [`ExecStats`] work-unit counters are equal.
//! Relations here are sized well above the executor's internal morsel
//! thresholds so the multi-worker code paths genuinely fan out.

use ongoing_core::allen::TemporalPredicate;
use ongoing_core::time::tp;
use ongoing_core::{IntervalSet, OngoingInterval, OngoingPoint, TimePoint};
use ongoing_relation::{Expr, OngoingRelation, Schema, Value};
use ongoingdb::engine::plan::{compile, JoinStrategy, PlannerConfig};
use ongoingdb::engine::{
    Database, ExecContext, LogicalPlan, QueryBuilder, TraceCollector, WorkerPool,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const LO: i64 = -40;
const HI: i64 = 40;

fn random_point(rng: &mut SmallRng) -> OngoingPoint {
    let a = rng.gen_range(LO..=HI);
    let b = rng.gen_range(a..=HI + 5);
    match rng.gen_range(0..5) {
        0 => OngoingPoint::fixed(tp(a)),
        1 => OngoingPoint::now(),
        2 => OngoingPoint::growing(tp(a)),
        3 => OngoingPoint::limited(tp(b)),
        _ => OngoingPoint::new(tp(a), tp(b)).unwrap(),
    }
}

fn random_interval(rng: &mut SmallRng) -> OngoingInterval {
    OngoingInterval::new(random_point(rng), random_point(rng))
}

fn random_rt_set(rng: &mut SmallRng) -> IntervalSet {
    if rng.gen_bool(0.5) {
        return IntervalSet::full();
    }
    let n = rng.gen_range(1..3);
    IntervalSet::from_ranges((0..n).map(|_| {
        let s = rng.gen_range(LO..=HI);
        (tp(s), tp(s + rng.gen_range(1..20i64)))
    }))
}

/// A random relation over (K: Int, C: Str, VT: OngoingInterval).
fn random_relation(rng: &mut SmallRng, rows: usize) -> OngoingRelation {
    let schema = Schema::builder().int("K").str("C").interval("VT").build();
    let mut r = OngoingRelation::new(schema);
    for _ in 0..rows {
        r.insert_with_rt(
            vec![
                Value::Int(rng.gen_range(0..16)),
                Value::str(["x", "y", "z"][rng.gen_range(0..3usize)]),
                Value::Interval(random_interval(rng)),
            ],
            random_rt_set(rng),
        )
        .unwrap();
    }
    r
}

fn random_pred(rng: &mut SmallRng, interval_cols: &[usize]) -> Expr {
    let icol = |rng: &mut SmallRng| interval_cols[rng.gen_range(0..interval_cols.len())];
    match rng.gen_range(0..4) {
        0 => {
            // Equality on the first fixed column against a literal.
            Expr::Col(0).eq(Expr::lit(rng.gen_range(0..16i64)))
        }
        1 => {
            let preds = TemporalPredicate::ALL;
            let p = preds[rng.gen_range(0..preds.len())];
            Expr::Col(icol(rng)).temporal(p, Expr::Col(icol(rng)))
        }
        2 => {
            let preds = TemporalPredicate::ALL;
            let p = preds[rng.gen_range(0..preds.len())];
            Expr::Col(icol(rng)).temporal(p, Expr::lit(Value::Interval(random_interval(rng))))
        }
        _ => {
            let a = random_pred(rng, interval_cols);
            let b = random_pred(rng, interval_cols);
            if rng.gen_bool(0.5) {
                a.and(b)
            } else {
                a.or(b)
            }
        }
    }
}

/// Random plan shapes that exercise every partition-parallel operator:
/// morsel filters over the big table, hash/sweep/nested-loop joins with a
/// partitioned outer side, unions and projections on top.
fn random_plan(rng: &mut SmallRng, db: &Database) -> LogicalPlan {
    let b = QueryBuilder::scan_as(db, "Big", "A").unwrap();
    match rng.gen_range(0..5) {
        0 => {
            // Filter pipeline over the big table.
            let pred = random_pred(rng, &[2]);
            b.filter(|_| Ok(pred)).unwrap().build()
        }
        1 => {
            // Equi-join (hash join) Mid ⋈ Small plus a temporal residual.
            let l = QueryBuilder::scan_as(db, "Mid", "L").unwrap();
            let r = QueryBuilder::scan_as(db, "Small", "R").unwrap();
            l.join(r, |s| {
                Ok(Expr::col(s, "L.K")?
                    .eq(Expr::col(s, "R.K")?)
                    .and(Expr::col(s, "L.VT")?.overlaps(Expr::col(s, "R.VT")?)))
            })
            .unwrap()
            .build()
        }
        2 => {
            // Pure temporal join → sweep join under Auto.
            let l = QueryBuilder::scan_as(db, "Mid", "L").unwrap();
            let r = QueryBuilder::scan_as(db, "Small", "R").unwrap();
            l.join(r, |s| {
                Ok(Expr::col(s, "L.VT")?.overlaps(Expr::col(s, "R.VT")?))
            })
            .unwrap()
            .build()
        }
        3 => {
            // Non-equi, non-sweepable predicate → nested loops.
            let l = QueryBuilder::scan_as(db, "Mid", "L").unwrap();
            let r = QueryBuilder::scan_as(db, "Small", "R").unwrap();
            let pred = random_pred(rng, &[2, 5]);
            l.join(r, |_| Ok(pred)).unwrap().build()
        }
        _ => {
            // Union of two filtered scans, projected.
            let p1 = random_pred(rng, &[2]);
            let p2 = random_pred(rng, &[2]);
            let left = b.filter(|_| Ok(p1)).unwrap();
            let right = QueryBuilder::scan_as(db, "Big", "B")
                .unwrap()
                .filter(|_| Ok(p2))
                .unwrap();
            left.union(right)
                .unwrap()
                .project_cols(&["A.K", "A.VT"])
                .unwrap()
                .build()
        }
    }
}

fn fuzz_db(rng: &mut SmallRng) -> Database {
    let db = Database::new();
    // Sizes chosen to exceed the executors' morsel thresholds so parallel
    // runs really use >1 worker per operator.
    db.create_table("Big", random_relation(rng, 2000)).unwrap();
    db.create_table("Mid", random_relation(rng, 700)).unwrap();
    db.create_table("Small", random_relation(rng, 60)).unwrap();
    db
}

#[test]
fn parallel_execution_is_bit_identical_to_serial() {
    let mut rng = SmallRng::seed_from_u64(20260730);
    let db = fuzz_db(&mut rng);
    let rts: Vec<TimePoint> = [LO - 3, -7, 0, 13, HI + 4].map(tp).into();
    for trial in 0..14 {
        let plan = random_plan(&mut rng, &db);
        let cfg = PlannerConfig::default();
        let phys = compile(&db, &plan, &cfg).unwrap();
        let (serial, serial_stats) = phys.execute_with_stats(&ExecContext::serial()).unwrap();
        for p in [2usize, 4, 8] {
            let ctx = ExecContext::new(p);
            let (parallel, parallel_stats) = phys.execute_with_stats(&ctx).unwrap();
            assert_eq!(
                parallel,
                serial,
                "trial {trial}, parallelism {p}: ongoing result diverged\nplan:\n{}",
                phys.explain()
            );
            assert_eq!(
                parallel_stats,
                serial_stats,
                "trial {trial}, parallelism {p}: work-unit counts diverged\nplan:\n{}serial: {serial_stats}",
                phys.explain()
            );
            for &rt in &rts {
                let (rows_s, stats_s) =
                    phys.rows_at_with_stats(rt, &ExecContext::serial()).unwrap();
                let (rows_p, stats_p) = phys.rows_at_with_stats(rt, &ctx).unwrap();
                assert_eq!(
                    rows_p, rows_s,
                    "trial {trial}, parallelism {p}, rt {rt}: instantiated rows diverged"
                );
                assert_eq!(
                    stats_p, stats_s,
                    "trial {trial}, parallelism {p}, rt {rt}: instantiated stats diverged"
                );
            }
        }
    }
}

#[test]
fn parallel_equivalence_holds_for_every_join_strategy() {
    let mut rng = SmallRng::seed_from_u64(4242);
    let db = fuzz_db(&mut rng);
    // One representative plan per join family, pinned through the planner
    // knob so each physical operator is covered even if Auto would choose
    // differently.
    let l = QueryBuilder::scan_as(&db, "Mid", "L").unwrap();
    let r = QueryBuilder::scan_as(&db, "Small", "R").unwrap();
    let plan = l
        .join(r, |s| {
            Ok(Expr::col(s, "L.K")?
                .eq(Expr::col(s, "R.K")?)
                .and(Expr::col(s, "L.VT")?.overlaps(Expr::col(s, "R.VT")?)))
        })
        .unwrap()
        .build();
    for strategy in [
        JoinStrategy::Auto,
        JoinStrategy::NestedLoop,
        JoinStrategy::Hash,
        JoinStrategy::Sweep,
    ] {
        let cfg = PlannerConfig {
            join_strategy: strategy,
            ..PlannerConfig::default()
        };
        let phys = compile(&db, &plan, &cfg).unwrap();
        let (serial, serial_stats) = phys.execute_with_stats(&ExecContext::serial()).unwrap();
        for p in [2usize, 4, 8] {
            let (parallel, parallel_stats) = phys.execute_with_stats(&ExecContext::new(p)).unwrap();
            assert_eq!(parallel, serial, "{strategy:?} at parallelism {p}");
            assert_eq!(
                parallel_stats, serial_stats,
                "{strategy:?} stats at parallelism {p}"
            );
        }
    }
}

/// The shared-pool contract: any number of queries running *concurrently*
/// on one pool — of any size — each produce exactly the serial result,
/// work-unit stats, and span work units. The pool only changes wall clock.
#[test]
fn concurrent_queries_on_shared_pools_match_serial() {
    let mut rng = SmallRng::seed_from_u64(20260808);
    let db = fuzz_db(&mut rng);
    let cfg = PlannerConfig::default();
    let plans: Vec<LogicalPlan> = (0..8).map(|_| random_plan(&mut rng, &db)).collect();
    let compiled: Vec<_> = plans
        .iter()
        .map(|p| compile(&db, p, &cfg).unwrap())
        .collect();
    let expected: Vec<_> = compiled
        .iter()
        .map(|phys| phys.execute_with_stats(&ExecContext::serial()).unwrap())
        .collect();
    for (pool_size, n_queries) in [(1usize, 3usize), (2, 4), (4, 8), (8, 6)] {
        let pool = WorkerPool::new(pool_size);
        std::thread::scope(|s| {
            for q in 0..n_queries {
                let idx = (q * 3 + pool_size) % compiled.len();
                let phys = &compiled[idx];
                let (exp_rel, exp_stats) = &expected[idx];
                let pool = Arc::clone(&pool);
                s.spawn(move || {
                    let tracer = Arc::new(TraceCollector::new());
                    let ctx = ExecContext::new(4)
                        .with_pool(pool)
                        .with_trace(Arc::clone(&tracer));
                    let (rel, stats) = phys.execute_with_stats(&ctx).unwrap();
                    assert_eq!(
                        &rel, exp_rel,
                        "pool size {pool_size}, query {q}: result diverged from serial"
                    );
                    assert_eq!(
                        &stats, exp_stats,
                        "pool size {pool_size}, query {q}: work units diverged from serial"
                    );
                    let root = tracer.finish().pop().expect("root span");
                    assert_eq!(
                        &root.total_work, exp_stats,
                        "pool size {pool_size}, query {q}: span work units diverged"
                    );
                });
            }
        });
        assert_eq!(pool.active_queries(), 0, "all queries must unregister");
        assert_eq!(pool.queue_depth(), 0, "no morsels may be left behind");
    }
}

/// Fair scheduling: on a single-worker pool, a one-morsel query submitted
/// behind a many-morsel nested-loop join still completes while the big
/// query is in flight — round-robin serves each query one morsel per turn.
#[test]
fn pool_is_fair_across_concurrent_queries() {
    let mut rng = SmallRng::seed_from_u64(31415);
    let db = fuzz_db(&mut rng);
    let pool = WorkerPool::new(1);
    let nl_cfg = PlannerConfig {
        join_strategy: JoinStrategy::NestedLoop,
        ..PlannerConfig::default()
    };
    // Heavy: Big ⋈ Big nested loops — millions of pairs, many morsels.
    let heavy_plan = QueryBuilder::scan_as(&db, "Big", "L")
        .unwrap()
        .join(QueryBuilder::scan_as(&db, "Big", "R").unwrap(), |s| {
            Ok(Expr::col(s, "L.K")?.eq(Expr::col(s, "R.K")?))
        })
        .unwrap()
        .build();
    let heavy = compile(&db, &heavy_plan, &nl_cfg).unwrap();
    // Light: one cheap filter over the small table — a single morsel.
    let light_plan = QueryBuilder::scan_as(&db, "Small", "A")
        .unwrap()
        .filter(|s| Ok(Expr::col(s, "A.K")?.eq(Expr::lit(3i64))))
        .unwrap()
        .build();
    let light = compile(&db, &light_plan, &PlannerConfig::default()).unwrap();
    let (light_serial, _) = light.execute_with_stats(&ExecContext::serial()).unwrap();

    let heavy_done = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        let heavy_pool = Arc::clone(&pool);
        let heavy_flag = Arc::clone(&heavy_done);
        let heavy = &heavy;
        s.spawn(move || {
            let ctx = ExecContext::new(4).with_pool(heavy_pool);
            heavy.execute_with_stats(&ctx).unwrap();
            heavy_flag.store(true, Ordering::Relaxed);
        });
        // Let the heavy query queue its backlog on the lone worker.
        std::thread::sleep(std::time::Duration::from_millis(50));
        let ctx = ExecContext::new(4).with_pool(Arc::clone(&pool));
        let (light_rel, _) = light.execute_with_stats(&ctx).unwrap();
        assert_eq!(light_rel, light_serial);
        assert!(
            !heavy_done.load(Ordering::Relaxed),
            "the one-morsel query must complete while the heavy query is still in flight"
        );
    });
}

#[test]
fn index_scan_is_parallel_deterministic() {
    let mut rng = SmallRng::seed_from_u64(99);
    let db = fuzz_db(&mut rng);
    let plan =
        QueryBuilder::scan_as(&db, "Big", "A")
            .unwrap()
            .filter(|s| {
                Ok(Expr::col(s, "A.VT")?.overlaps(Expr::lit(Value::Interval(
                    OngoingInterval::fixed(tp(-5), tp(15)),
                ))))
            })
            .unwrap()
            .build();
    let cfg = PlannerConfig {
        use_interval_index: true,
        ..PlannerConfig::default()
    };
    let phys = compile(&db, &plan, &cfg).unwrap();
    assert!(phys.explain().contains("IndexScan"), "{}", phys.explain());
    let (serial, serial_stats) = phys.execute_with_stats(&ExecContext::serial()).unwrap();
    assert!(serial_stats.index_candidates > 0);
    for p in [2usize, 4, 8] {
        let (parallel, parallel_stats) = phys.execute_with_stats(&ExecContext::new(p)).unwrap();
        assert_eq!(parallel, serial, "index scan at parallelism {p}");
        assert_eq!(parallel_stats, serial_stats, "stats at parallelism {p}");
    }
}
