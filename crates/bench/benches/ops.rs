//! Micro-benchmarks for the core operations, including two ablations of
//! the paper's algorithms:
//!
//! * `lt`: the Fig.-6 decision tree (≤ 3 comparisons) vs. the naive 5-case
//!   scan;
//! * logical connectives: the sweep-line Algorithm 1 vs. a naive quadratic
//!   pairwise intersection.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ongoing_core::time::tp;
use ongoing_core::{allen, ops, IntervalSet, OngoingInterval, OngoingPoint};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn random_points(n: usize, seed: u64) -> Vec<(OngoingPoint, OngoingPoint)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let mut p = || {
                let a = rng.gen_range(-1000i64..1000);
                let b = rng.gen_range(a..a + 500);
                match rng.gen_range(0..4) {
                    0 => OngoingPoint::fixed(tp(a)),
                    1 => OngoingPoint::now(),
                    2 => OngoingPoint::growing(tp(a)),
                    _ => OngoingPoint::new(tp(a), tp(b)).unwrap(),
                }
            };
            (p(), p())
        })
        .collect()
}

/// Naive quadratic conjunction: pairwise range intersections + re-sort.
fn intersect_naive(a: &IntervalSet, b: &IntervalSet) -> IntervalSet {
    let mut out = Vec::new();
    for x in a.ranges() {
        for y in b.ranges() {
            out.push((x.ts().max_f(y.ts()), x.te().min_f(y.te())));
        }
    }
    IntervalSet::from_ranges(out)
}

fn striped_set(offset: i64, stride: i64, len: i64, n: usize) -> IntervalSet {
    IntervalSet::from_ranges(
        (0..n as i64).map(|i| (tp(offset + i * stride), tp(offset + i * stride + len))),
    )
}

fn bench_lt(c: &mut Criterion) {
    let pairs = random_points(1024, 42);
    let mut g = c.benchmark_group("lt");
    g.bench_function("decision_tree", |b| {
        b.iter(|| {
            for &(p, q) in &pairs {
                black_box(ops::lt(black_box(p), black_box(q)));
            }
        })
    });
    g.bench_function("naive_case_scan", |b| {
        b.iter(|| {
            for &(p, q) in &pairs {
                black_box(ops::lt_naive(black_box(p), black_box(q)));
            }
        })
    });
    g.finish();
}

fn bench_connectives(c: &mut Criterion) {
    let a = striped_set(0, 10, 6, 200);
    let b = striped_set(3, 10, 6, 200);
    let mut g = c.benchmark_group("connectives");
    g.bench_function("conjunction_sweep", |bch| {
        bch.iter(|| black_box(a.intersect(black_box(&b))))
    });
    g.bench_function("conjunction_naive_quadratic", |bch| {
        bch.iter(|| black_box(intersect_naive(black_box(&a), black_box(&b))))
    });
    g.bench_function("disjunction_sweep", |bch| {
        bch.iter(|| black_box(a.union(black_box(&b))))
    });
    g.bench_function("negation", |bch| bch.iter(|| black_box(a.complement())));
    g.finish();

    // Equivalence sanity: the ablation baseline computes the same sets.
    assert_eq!(a.intersect(&b), intersect_naive(&a, &b));
}

fn bench_allen(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(7);
    let intervals: Vec<(OngoingInterval, OngoingInterval)> = (0..512)
        .map(|_| {
            let mut iv = || {
                let s = rng.gen_range(-500i64..500);
                if rng.gen_bool(0.3) {
                    OngoingInterval::from_until_now(tp(s))
                } else {
                    OngoingInterval::fixed(tp(s), tp(s + rng.gen_range(1..200i64)))
                }
            };
            (iv(), iv())
        })
        .collect();
    let mut g = c.benchmark_group("allen");
    for (name, f) in [
        ("overlaps", allen::overlaps as fn(_, _) -> _),
        ("before", allen::before as fn(_, _) -> _),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                for &(l, r) in &intervals {
                    black_box(f(black_box(l), black_box(r)));
                }
            })
        });
    }
    g.finish();
}

fn bench_min_max(c: &mut Criterion) {
    let pairs = random_points(1024, 99);
    c.bench_function("min_max_componentwise", |b| {
        b.iter_batched(
            || pairs.clone(),
            |pairs| {
                for (p, q) in pairs {
                    black_box(ops::min(p, q));
                    black_box(ops::max(p, q));
                }
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_lt, bench_connectives, bench_allen, bench_min_max
}
criterion_main!(benches);
