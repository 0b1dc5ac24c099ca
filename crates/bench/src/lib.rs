//! Harness utilities shared by the `repro-*` binaries and the Criterion
//! benches.
//!
//! Every binary prints the rows/series of one table or figure of the
//! paper's evaluation (Sec. IX). Scales default to laptop-friendly sizes;
//! set `REPRO_SCALE` (a multiplier, default `1.0`) to grow them toward the
//! paper's sizes. Absolute runtimes differ from the paper's PostgreSQL
//! testbed; the *shapes* (who wins, break-even counts, crossovers) are what
//! EXPERIMENTS.md compares.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod naive;
pub mod shapes;

use ongoing_core::TimePoint;
use ongoing_engine::plan::{compile, PlannerConfig};
use ongoing_engine::{Database, ExecStats, LogicalPlan, PhysicalPlan};
use ongoing_relation::{FixedRelation, OngoingRelation};
use std::time::{Duration, Instant};

/// The scale multiplier from `REPRO_SCALE` (default 1.0).
pub fn scale() -> f64 {
    std::env::var("REPRO_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0)
}

/// `n` scaled by [`scale`], at least 1.
pub fn scaled(n: usize) -> usize {
    ((n as f64 * scale()).round() as usize).max(1)
}

/// Median wall-clock duration of `runs` executions of `f`.
pub fn measure<T>(runs: usize, mut f: impl FnMut() -> T) -> Duration {
    assert!(runs > 0);
    let mut times = Vec::with_capacity(runs);
    for _ in 0..runs {
        let t0 = Instant::now();
        std::hint::black_box(f());
        times.push(t0.elapsed());
    }
    times.sort_unstable();
    times[times.len() / 2]
}

/// Compiles once and measures ongoing execution.
pub fn time_ongoing(
    db: &Database,
    plan: &LogicalPlan,
    cfg: &PlannerConfig,
    runs: usize,
) -> (Duration, OngoingRelation) {
    let (t, result, _) = time_ongoing_stats(db, plan, cfg, runs);
    (t, result)
}

/// [`time_ongoing`] plus the run's deterministic [`ExecStats`] work units.
pub fn time_ongoing_stats(
    db: &Database,
    plan: &LogicalPlan,
    cfg: &PlannerConfig,
    runs: usize,
) -> (Duration, OngoingRelation, ExecStats) {
    let phys = compile(db, plan, cfg).expect("plan compiles");
    let ctx = cfg.exec_context();
    let (result, stats) = phys.execute_with_stats(&ctx).expect("ongoing execution");
    let t = measure(runs, || {
        phys.execute_with_stats(&ctx).expect("ongoing execution")
    });
    (t, result, stats)
}

/// Compiles once and measures instantiated (Clifford) execution at `rt`.
/// Timing covers the raw row production (`rows_at_with_stats`), not the canonicalizing
/// sort/dedup, so neither side is charged for set canonicalization.
pub fn time_clifford(
    db: &Database,
    plan: &LogicalPlan,
    cfg: &PlannerConfig,
    rt: TimePoint,
    runs: usize,
) -> (Duration, FixedRelation) {
    let (t, result, _) = time_clifford_stats(db, plan, cfg, rt, runs);
    (t, result)
}

/// [`time_clifford`] plus the per-evaluation [`ExecStats`] work units.
pub fn time_clifford_stats(
    db: &Database,
    plan: &LogicalPlan,
    cfg: &PlannerConfig,
    rt: TimePoint,
    runs: usize,
) -> (Duration, FixedRelation, ExecStats) {
    let phys = compile(db, plan, cfg).expect("plan compiles");
    let ctx = cfg.exec_context();
    let (result, stats) = phys
        .execute_at_with_stats(rt, &ctx)
        .expect("instantiated execution");
    let t = measure(runs, || {
        phys.rows_at_with_stats(rt, &ctx)
            .expect("instantiated execution")
    });
    (t, result, stats)
}

/// Measures instantiating a materialized ongoing result at `rt` (a bind
/// pass over the stored tuples; no query evaluation, no canonicalization).
pub fn time_bind(result: &OngoingRelation, rt: TimePoint, runs: usize) -> Duration {
    measure(runs, || result.bind_rows(rt))
}

/// The physical plan for inspection.
pub fn physical(db: &Database, plan: &LogicalPlan, cfg: &PlannerConfig) -> PhysicalPlan {
    compile(db, plan, cfg).expect("plan compiles")
}

/// Smallest number of instantiations after which computing the ongoing
/// result once plus `n` binds beats `n` Clifford evaluations:
/// `min n : t_ongoing + n·t_bind <= n·t_clifford` (∞ → `None` when binds
/// are not cheaper than re-evaluation).
pub fn amortization_point(
    t_ongoing: Duration,
    t_bind: Duration,
    t_clifford: Duration,
) -> Option<u32> {
    if t_clifford <= t_bind {
        return None;
    }
    let num = t_ongoing.as_secs_f64();
    let den = (t_clifford - t_bind).as_secs_f64();
    Some((num / den).ceil().max(1.0) as u32)
}

/// Break-even in *re-evaluations*: smallest `n` with
/// `t_ongoing <= n·t_clifford` — the Fig. 8/10b metric (the application
/// keeps using the ongoing result; Clifford must re-run the query each
/// time).
pub fn break_even_reevaluations(t_ongoing: Duration, t_clifford: Duration) -> u32 {
    if t_clifford.is_zero() {
        return u32::MAX;
    }
    (t_ongoing.as_secs_f64() / t_clifford.as_secs_f64())
        .ceil()
        .max(1.0) as u32
}

// ----------------------------------------------------------------------
// Deterministic work-unit arithmetic (ExecStats instead of wall clock).
// ----------------------------------------------------------------------

/// Work units of one bind pass over a materialized ongoing result: every
/// stored tuple is visited once.
pub fn bind_work_units(result: &OngoingRelation) -> u64 {
    result.len() as u64
}

/// Break-even in re-evaluations on *work units*: smallest `n` with
/// `w_ongoing <= n·w_clifford`. Deterministic — identical on every machine
/// and at every thread count — so repro binaries can assert on it without
/// flaking under CPU contention.
pub fn work_break_even(w_ongoing: u64, w_clifford: u64) -> u32 {
    if w_clifford == 0 {
        return u32::MAX;
    }
    w_ongoing.div_ceil(w_clifford).max(1) as u32
}

/// Amortization point on work units: smallest `n` with
/// `w_ongoing + n·w_bind <= n·w_clifford` (`None` when binding is not
/// cheaper than re-evaluation).
pub fn work_amortization_point(w_ongoing: u64, w_bind: u64, w_clifford: u64) -> Option<u32> {
    if w_clifford <= w_bind {
        return None;
    }
    Some(w_ongoing.div_ceil(w_clifford - w_bind).max(1) as u32)
}

/// Prints a fixed-width row.
pub fn row(cells: &[String], widths: &[usize]) {
    let mut line = String::new();
    for (c, w) in cells.iter().zip(widths) {
        line.push_str(&format!("{c:<w$}  ", w = w));
    }
    println!("{}", line.trim_end());
}

/// The storage layer's O(delta)-vs-O(table) write contract, shared by
/// `benches/storage.rs` and `repro_churn` so the thresholds cannot drift:
/// across a 10x table-size step, a fixed-size edit's deterministic write
/// units must stay flat (<= 1.1x) while the pre-refactor clone path (one
/// unit per tuple snapshotted) must grow with the table (>= 8x).
/// `cow` and `clone_path` hold the measured units at the small and large
/// size, in order. Panics on violation.
pub fn assert_odelta_contract(cow: &[u64; 2], clone_path: &[u64; 2]) {
    let flat = cow[1] as f64 / cow[0] as f64;
    assert!(
        flat <= 1.1,
        "fixed-size edit must stay flat across a 10x table-size step (got {flat:.2}x: {cow:?})"
    );
    let growth = clone_path[1] as f64 / clone_path[0] as f64;
    assert!(
        growth >= 8.0,
        "the clone path must grow with the table (got {growth:.2}x: {clone_path:?})"
    );
}

/// Prints a header row plus separator.
pub fn header(cells: &[&str], widths: &[usize]) {
    row(
        &cells.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        widths,
    );
    println!("{}", "-".repeat(widths.iter().map(|w| w + 2).sum()));
}

/// Formats a duration in milliseconds with 3 decimals.
pub fn ms(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amortization_point_math() {
        let o = Duration::from_millis(100);
        let b = Duration::from_millis(10);
        let c = Duration::from_millis(60);
        // 100 + 10n <= 60n  →  n >= 2.
        assert_eq!(amortization_point(o, b, c), Some(2));
        // Bind slower than re-evaluation: never amortizes.
        assert_eq!(amortization_point(o, c, b), None);
        // Huge ongoing cost.
        assert_eq!(amortization_point(Duration::from_secs(1), b, c), Some(20));
    }

    #[test]
    fn break_even_math() {
        assert_eq!(
            break_even_reevaluations(Duration::from_millis(90), Duration::from_millis(60)),
            2
        );
        assert_eq!(
            break_even_reevaluations(Duration::from_millis(50), Duration::from_millis(60)),
            1
        );
    }

    #[test]
    fn scaled_is_monotone() {
        assert!(scaled(100) >= 1);
    }

    #[test]
    fn work_unit_math() {
        // 100 work units ongoing vs 40 per re-evaluation → faster after 3.
        assert_eq!(work_break_even(100, 40), 3);
        assert_eq!(work_break_even(10, 40), 1);
        assert_eq!(work_break_even(10, 0), u32::MAX);
        // 100 + 10n <= 60n → n >= 2.
        assert_eq!(work_amortization_point(100, 10, 60), Some(2));
        assert_eq!(work_amortization_point(100, 60, 10), None);
        assert_eq!(work_amortization_point(0, 0, 1), Some(1));
    }
}
