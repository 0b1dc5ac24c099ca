//! Deterministic work-unit accounting for the physical executors.
//!
//! Wall-clock measurements of the paper's evaluation (Sec. IX) are noisy on
//! shared machines; the *work units* an operator performs are not. Every
//! executor threads an [`ExecStats`] accumulator through its operators —
//! per-worker local counters under partition-parallel execution, folded at
//! join points — so the test suites and the paper's `repro_*` binaries
//! can assert on deterministic counts (tuples scanned, pairs compared, interval-set
//! merges) instead of durations. The counters are identical for every
//! `parallelism` setting: partitioning only changes *who* counts a work
//! unit, never *whether* it is counted.

use std::fmt;
use std::ops::AddAssign;

/// Work-unit counters accumulated during one plan execution.
///
/// The instantiated (Clifford) mode performs no interval-set arithmetic, so
/// `intervals_merged` stays 0 there — exactly the cost asymmetry the
/// paper's runtime comparisons measure.
///
/// **Counted operators:** scans, filters, joins (the paper's Sec. IX
/// queries) and the `tuple_eq` calls of `Difference` and `Aggregate`.
/// `Project` and `Union` contribute no work units of their own, so
/// [`total_work`](ExecStats::total_work) is a wall-clock stand-in only for
/// plans dominated by the counted operators.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ExecStats {
    /// Tuples produced by base-table access paths (`SeqScan` counts the
    /// whole table, `KeyScan` only the key-map candidates it examines).
    pub tuples_scanned: u64,
    /// Tuples evaluated by a `Filter` (or the residual predicate of a
    /// `KeyScan`).
    pub tuples_filtered: u64,
    /// Join candidate pairs evaluated (all pairs for nested loops, probe
    /// hits for the hash join, envelope-overlapping pairs for the sweep
    /// join) and the set operators' `tuple_eq` calls.
    pub pairs_compared: u64,
    /// Key-map candidates examined (`KeyScan`).
    pub index_candidates: u64,
    /// Interval-set merge operations (predicate true-set construction and
    /// reference-time restrictions) in the ongoing executors.
    pub intervals_merged: u64,
}

impl ExecStats {
    /// A zeroed accumulator.
    pub fn new() -> Self {
        ExecStats::default()
    }

    /// Folds a worker-local accumulator into this one. Addition is
    /// commutative and associative, so the fold order (and therefore the
    /// partitioning) cannot change the totals.
    pub fn merge(&mut self, other: &ExecStats) {
        self.tuples_scanned += other.tuples_scanned;
        self.tuples_filtered += other.tuples_filtered;
        self.pairs_compared += other.pairs_compared;
        self.index_candidates += other.index_candidates;
        self.intervals_merged += other.intervals_merged;
    }

    /// The counter-wise change since `earlier` (saturating, so callers
    /// comparing snapshots of the same accumulator can never underflow).
    /// This is how the tracer attributes work to a single operator: the
    /// accumulator delta across the operator minus its children's deltas.
    pub fn diff(&self, earlier: &ExecStats) -> ExecStats {
        ExecStats {
            tuples_scanned: self.tuples_scanned.saturating_sub(earlier.tuples_scanned),
            tuples_filtered: self.tuples_filtered.saturating_sub(earlier.tuples_filtered),
            pairs_compared: self.pairs_compared.saturating_sub(earlier.pairs_compared),
            index_candidates: self
                .index_candidates
                .saturating_sub(earlier.index_candidates),
            intervals_merged: self
                .intervals_merged
                .saturating_sub(earlier.intervals_merged),
        }
    }

    /// Total work units: the unweighted sum of all counters. The scalar
    /// that replaces wall-clock time in break-even and amortization
    /// arithmetic.
    pub fn total_work(&self) -> u64 {
        self.tuples_scanned
            + self.tuples_filtered
            + self.pairs_compared
            + self.index_candidates
            + self.intervals_merged
    }
}

impl AddAssign<&ExecStats> for ExecStats {
    fn add_assign(&mut self, other: &ExecStats) {
        self.merge(other);
    }
}

impl fmt::Display for ExecStats {
    /// One-line `explain`-style rendering, e.g.
    /// `scanned=100 filtered=100 pairs=0 idx=0 merges=57 (work=257)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scanned={} filtered={} pairs={} idx={} merges={} (work={})",
            self.tuples_scanned,
            self.tuples_filtered,
            self.pairs_compared,
            self.index_candidates,
            self.intervals_merged,
            self.total_work()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_every_counter() {
        let mut a = ExecStats {
            tuples_scanned: 1,
            tuples_filtered: 2,
            pairs_compared: 3,
            index_candidates: 4,
            intervals_merged: 5,
        };
        let b = ExecStats {
            tuples_scanned: 10,
            tuples_filtered: 20,
            pairs_compared: 30,
            index_candidates: 40,
            intervals_merged: 50,
        };
        a += &b;
        assert_eq!(a.tuples_scanned, 11);
        assert_eq!(a.tuples_filtered, 22);
        assert_eq!(a.pairs_compared, 33);
        assert_eq!(a.index_candidates, 44);
        assert_eq!(a.intervals_merged, 55);
        assert_eq!(a.total_work(), 11 + 22 + 33 + 44 + 55);
    }

    #[test]
    fn display_is_compact() {
        let s = ExecStats {
            tuples_scanned: 7,
            ..ExecStats::default()
        };
        assert_eq!(
            s.to_string(),
            "scanned=7 filtered=0 pairs=0 idx=0 merges=0 (work=7)"
        );
    }
}
