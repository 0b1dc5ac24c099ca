//! Criterion groups backing Figs. 8–10: selections and joins in ongoing vs.
//! instantiated (Clifford) mode, plus the predicate-split and interval-index
//! ablations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ongoing_core::allen::TemporalPredicate;
use ongoing_datasets::synthetic::{generate, SyntheticConfig};
use ongoing_datasets::{incumbent_database, History};
use ongoing_engine::baseline::clifford;
use ongoing_engine::plan::compile;
use ongoing_engine::{queries, Database, ExecContext, PlannerConfig};
use std::hint::black_box;

fn fig8_selection(c: &mut Criterion) {
    let ctx = ExecContext::from_env();
    let db = incumbent_database(20_000, 42);
    let h = History::incumbent();
    let w = h.last_fraction(0.1);
    let rt = clifford::cliff_max_reference_time(&db);
    let cfg = PlannerConfig::default();
    let mut g = c.benchmark_group("fig8_selection_incumbent");
    for pred in [TemporalPredicate::Overlaps, TemporalPredicate::Before] {
        let plan = queries::selection(&db, "Incumbent", pred, (w.start, w.end)).unwrap();
        let phys = compile(&db, &plan, &cfg).unwrap();
        g.bench_function(BenchmarkId::new("ongoing", pred.name()), |b| {
            b.iter(|| black_box(phys.execute_with_stats(&ctx).unwrap()))
        });
        g.bench_function(BenchmarkId::new("clifford", pred.name()), |b| {
            b.iter(|| black_box(phys.execute_at_with_stats(rt, &ctx).unwrap()))
        });
    }
    g.finish();
}

fn fig9_join_location(c: &mut Criterion) {
    let ctx = ExecContext::from_env();
    let mut g = c.benchmark_group("fig9_join_location_dex");
    g.sample_size(10);
    for seg in [0usize, 4] {
        let db = Database::new();
        db.create_table("D", generate(&SyntheticConfig::dex(10_000, Some(seg), 42)))
            .unwrap();
        let plan = queries::self_join(&db, "D", "K", TemporalPredicate::Overlaps).unwrap();
        let phys = compile(&db, &plan, &PlannerConfig::default()).unwrap();
        let rt = clifford::cliff_max_reference_time(&db);
        g.bench_function(BenchmarkId::new("ongoing_segment", seg), |b| {
            b.iter(|| black_box(phys.execute_with_stats(&ctx).unwrap()))
        });
        g.bench_function(BenchmarkId::new("clifford_segment", seg), |b| {
            b.iter(|| black_box(phys.execute_at_with_stats(rt, &ctx).unwrap()))
        });
    }
    g.finish();
}

fn fig10_scaling(c: &mut Criterion) {
    let ctx = ExecContext::from_env();
    let h = History::synthetic();
    let w = h.last_fraction(0.1);
    let mut g = c.benchmark_group("fig10_scaling_dsc");
    g.sample_size(10);
    for n in [10_000usize, 40_000] {
        let db = Database::new();
        db.create_table("Dsc", generate(&SyntheticConfig::dsc(n, 42)))
            .unwrap();
        let plan =
            queries::selection(&db, "Dsc", TemporalPredicate::Overlaps, (w.start, w.end)).unwrap();
        let phys = compile(&db, &plan, &PlannerConfig::default()).unwrap();
        let rt = clifford::cliff_max_reference_time(&db);
        g.bench_function(BenchmarkId::new("ongoing", n), |b| {
            b.iter(|| black_box(phys.execute_with_stats(&ctx).unwrap()))
        });
        g.bench_function(BenchmarkId::new("clifford", n), |b| {
            b.iter(|| black_box(phys.execute_at_with_stats(rt, &ctx).unwrap()))
        });
    }
    g.finish();
}

fn ablation_split_and_index(c: &mut Criterion) {
    let ctx = ExecContext::from_env();
    let db = Database::new();
    db.create_table("Dex", generate(&SyntheticConfig::dex(40_000, None, 7)))
        .unwrap();
    let h = History::synthetic();
    let w = h.last_fraction(0.05);
    let plan =
        queries::selection(&db, "Dex", TemporalPredicate::Overlaps, (w.start, w.end)).unwrap();
    let mut g = c.benchmark_group("ablation_selection_dex");
    g.sample_size(10);
    for (name, cfg) in [
        ("default", PlannerConfig::default()),
        (
            "no_predicate_split",
            PlannerConfig {
                split_predicates: false,
                ..PlannerConfig::default()
            },
        ),
        (
            "interval_index",
            PlannerConfig {
                use_interval_index: true,
                ..PlannerConfig::default()
            },
        ),
    ] {
        let phys = compile(&db, &plan, &cfg).unwrap();
        g.bench_function(name, |b| {
            b.iter(|| black_box(phys.execute_with_stats(&ctx).unwrap()))
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = fig8_selection, fig9_join_location, fig10_scaling, ablation_split_and_index
}
criterion_main!(benches);
