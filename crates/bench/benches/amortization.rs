//! Criterion groups backing Figs. 11/12: materialized-view instantiation
//! (a bind pass) vs. Clifford re-evaluation, selection and complex join.

use criterion::{criterion_group, criterion_main, Criterion};
use ongoing_core::allen::TemporalPredicate;
use ongoing_datasets::{mozilla_database, History};
use ongoing_engine::baseline::clifford;
use ongoing_engine::matview::MaterializedView;
use ongoing_engine::plan::compile;
use ongoing_engine::{queries, ExecContext, PlannerConfig};
use std::hint::black_box;

fn fig11_selection(c: &mut Criterion) {
    let ctx = ExecContext::from_env();
    let db = mozilla_database(2_000, 42);
    let h = History::mozilla();
    let w = h.last_fraction(0.1);
    let plan = queries::selection(
        &db,
        "BugInfo",
        TemporalPredicate::Overlaps,
        (w.start, w.end),
    )
    .unwrap();
    let rt = clifford::cliff_max_reference_time(&db);
    let view = MaterializedView::create(&db, "v", plan.clone(), PlannerConfig::default()).unwrap();
    let phys = compile(&db, &plan, &PlannerConfig::default()).unwrap();

    let mut g = c.benchmark_group("fig11_selection_mozilla");
    g.bench_function("compute_ongoing_view", |b| {
        b.iter(|| {
            black_box(
                MaterializedView::create(&db, "v", plan.clone(), PlannerConfig::default())
                    .unwrap()
                    .len(),
            )
        })
    });
    g.bench_function("instantiate_view", |b| {
        b.iter(|| black_box(view.instantiate(rt)))
    });
    g.bench_function("clifford_reevaluation", |b| {
        b.iter(|| black_box(phys.execute_at_with_stats(rt, &ctx).unwrap()))
    });
    g.finish();
}

fn fig11_complex_join(c: &mut Criterion) {
    let ctx = ExecContext::from_env();
    let db = mozilla_database(600, 42);
    let plan = queries::complex_join(&db, TemporalPredicate::Overlaps).unwrap();
    let rt = clifford::cliff_max_reference_time(&db);
    let view = MaterializedView::create(&db, "v", plan.clone(), PlannerConfig::default()).unwrap();
    let phys = compile(&db, &plan, &PlannerConfig::default()).unwrap();

    let mut g = c.benchmark_group("fig11_complex_join_mozilla");
    g.sample_size(10);
    g.bench_function("compute_ongoing_view", |b| {
        b.iter(|| black_box(phys.execute_with_stats(&ctx).unwrap().0.len()))
    });
    g.bench_function("instantiate_view", |b| {
        b.iter(|| black_box(view.instantiate(rt)))
    });
    g.bench_function("clifford_reevaluation", |b| {
        b.iter(|| black_box(phys.execute_at_with_stats(rt, &ctx).unwrap()))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = fig11_selection, fig11_complex_join
}
criterion_main!(benches);
