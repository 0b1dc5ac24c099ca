//! Partition-parallel scaling: the Q⋈ self-join and the Qσ selection at
//! `parallelism` ∈ {1, 2, 4, 8}.
//!
//! Before any timing, the bench asserts that the [`ExecStats`] work-unit
//! counters are identical across thread counts — the determinism contract
//! that lets repro binaries assert on work units instead of wall clock.
//! After the criterion groups, a speedup probe prints the measured
//! 4-thread-vs-1-thread ratio for the self-join; set
//! `ONGOINGDB_REQUIRE_SPEEDUP=1` on a 4+ core machine to turn the ≥ 1.5x
//! expectation into a hard assertion.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ongoing_core::allen::TemporalPredicate;
use ongoing_datasets::synthetic::{generate, SyntheticConfig};
use ongoing_datasets::History;
use ongoing_engine::plan::compile;
use ongoing_engine::{queries, Database, ExecContext, PhysicalPlan, PlannerConfig};
use std::time::{Duration, Instant};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn self_join_plan(n: usize) -> (Database, PhysicalPlan) {
    let db = Database::new();
    db.create_table("D", generate(&SyntheticConfig::dex(n, Some(4), 42)))
        .unwrap();
    let plan = queries::self_join(&db, "D", "K", TemporalPredicate::Overlaps).unwrap();
    let phys = compile(&db, &plan, &PlannerConfig::default()).unwrap();
    (db, phys)
}

fn assert_stats_identical(phys: &PhysicalPlan) {
    let (_, reference) = phys.execute_with_stats(&ExecContext::serial()).unwrap();
    for p in THREAD_COUNTS {
        let (_, stats) = phys.execute_with_stats(&ExecContext::new(p)).unwrap();
        assert_eq!(
            stats, reference,
            "work units must be identical at parallelism {p}"
        );
    }
}

fn parallel_self_join(c: &mut Criterion) {
    let (_db, phys) = self_join_plan(8_000);
    assert_stats_identical(&phys);
    let mut g = c.benchmark_group("parallel_self_join_dex");
    g.sample_size(10);
    for p in THREAD_COUNTS {
        let ctx = ExecContext::new(p);
        g.bench_function(BenchmarkId::new("ongoing_threads", p), |b| {
            b.iter(|| black_box(phys.execute_with_stats(&ctx).unwrap()))
        });
    }
    g.finish();
}

fn parallel_selection(c: &mut Criterion) {
    let db = Database::new();
    db.create_table("Dsc", generate(&SyntheticConfig::dsc(80_000, 42)))
        .unwrap();
    let w = History::synthetic().last_fraction(0.1);
    let plan =
        queries::selection(&db, "Dsc", TemporalPredicate::Overlaps, (w.start, w.end)).unwrap();
    let phys = compile(&db, &plan, &PlannerConfig::default()).unwrap();
    assert_stats_identical(&phys);
    let mut g = c.benchmark_group("parallel_selection_dsc");
    g.sample_size(10);
    for p in THREAD_COUNTS {
        let ctx = ExecContext::new(p);
        g.bench_function(BenchmarkId::new("ongoing_threads", p), |b| {
            b.iter(|| black_box(phys.execute_with_stats(&ctx).unwrap()))
        });
    }
    g.finish();
}

fn median_secs(runs: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<Duration> = (0..runs)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed()
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2].as_secs_f64()
}

fn speedup_probe(_c: &mut Criterion) {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let (_db, phys) = self_join_plan(8_000);
    let serial = ExecContext::serial();
    let four = ExecContext::new(4);
    let t1 = median_secs(5, || {
        black_box(phys.execute_with_stats(&serial).unwrap());
    });
    let t4 = median_secs(5, || {
        black_box(phys.execute_with_stats(&four).unwrap());
    });
    let speedup = t1 / t4;
    println!(
        "speedup_probe: Q⋈ self-join, parallelism 4 vs 1 → {speedup:.2}x \
         (t1 = {:.1} ms, t4 = {:.1} ms, {cores} cores available)",
        t1 * 1e3,
        t4 * 1e3
    );
    if std::env::var("ONGOINGDB_REQUIRE_SPEEDUP").as_deref() == Ok("1") {
        assert!(
            cores >= 4,
            "ONGOINGDB_REQUIRE_SPEEDUP needs a 4+ core machine ({cores} available)"
        );
        assert!(
            speedup >= 1.5,
            "expected ≥ 1.5x speedup at parallelism 4, measured {speedup:.2}x"
        );
    }
}

criterion_group!(
    benches,
    parallel_self_join,
    parallel_selection,
    speedup_probe
);
criterion_main!(benches);
