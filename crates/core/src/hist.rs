//! Compact distribution summaries over the fixed time domain `T`.
//!
//! The statistics subsystem (engine `ANALYZE`) needs to answer "what
//! fraction of the values lies below `x`?" for start points, end points and
//! durations of interval attributes, and for fixed integer/time attributes.
//! A [`PointHistogram`] is an equi-depth quantile sketch over `i64` keys
//! (time-point ticks embed into `i64` with `-∞`/`∞` at the limits, so
//! ongoing envelope ends are representable directly): it stores `B + 1`
//! fence posts at the `j/B` quantiles of the sorted input and interpolates
//! linearly inside a bucket. Equi-depth fences adapt to skew — a cluster of
//! recent ongoing start points (the Fig. 7 skew) gets proportionally many
//! buckets — which a fixed-width histogram would smear out.

use serde::{Deserialize, Serialize};

/// Default number of buckets used by the engine's `ANALYZE`.
pub const DEFAULT_BUCKETS: usize = 64;

/// An equi-depth histogram (quantile sketch) over `i64` keys.
///
/// Estimation error is bounded by the bucket depth: `frac_lt` is exact at
/// every fence post and linearly interpolated in between, so the absolute
/// error of any cumulative-fraction query is at most one bucket (`1/B`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PointHistogram {
    /// Ascending fence posts `q_0 <= q_1 <= ... <= q_B`; `q_j` is the
    /// `j/B` quantile of the input. Empty when the input was empty.
    fences: Vec<i64>,
    /// Number of values summarized.
    total: u64,
}

impl PointHistogram {
    /// Builds the sketch from raw keys with at most `buckets` buckets.
    pub fn build(mut values: Vec<i64>, buckets: usize) -> Self {
        let total = values.len() as u64;
        if values.is_empty() {
            return PointHistogram {
                fences: Vec::new(),
                total: 0,
            };
        }
        values.sort_unstable();
        let b = buckets.clamp(1, values.len());
        let mut fences = Vec::with_capacity(b + 1);
        for j in 0..=b {
            // Index of the j/b quantile in the sorted input.
            let idx = (j * (values.len() - 1)) / b;
            fences.push(values[idx]);
        }
        PointHistogram { fences, total }
    }

    /// Number of summarized values.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Is the sketch empty?
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The smallest summarized value, if any.
    pub fn min(&self) -> Option<i64> {
        self.fences.first().copied()
    }

    /// The largest summarized value, if any.
    pub fn max(&self) -> Option<i64> {
        self.fences.last().copied()
    }

    /// Estimated fraction of values strictly below `x`, in `[0, 1]`.
    pub fn frac_lt(&self, x: i64) -> f64 {
        let Some((&lo, &hi)) = self.fences.first().zip(self.fences.last()) else {
            return 0.0;
        };
        if x <= lo {
            return 0.0;
        }
        if x > hi {
            return 1.0;
        }
        let b = self.fences.len() - 1;
        if b == 0 {
            // Single fence: all values equal `lo` and x > lo was handled.
            return 1.0;
        }
        // First fence >= x; in 1..=b because lo < x <= hi.
        let idx = self.fences.partition_point(|&f| f < x);
        let i = idx - 1;
        let (left, right) = (self.fences[i], self.fences[idx.min(b)]);
        let width = (right as i128 - left as i128).max(1) as f64;
        let t = ((x as i128 - left as i128) as f64 / width).clamp(0.0, 1.0);
        ((i as f64 + t) / b as f64).clamp(0.0, 1.0)
    }

    /// Estimated fraction of values less than or equal to `x`.
    pub fn frac_le(&self, x: i64) -> f64 {
        if x == i64::MAX {
            // `<= ∞` covers everything; `saturating_add` would alias it
            // with `< ∞` and lose the mass sitting at the limit.
            return if self.is_empty() { 0.0 } else { 1.0 };
        }
        self.frac_lt(x + 1)
    }

    /// Estimated fraction of values in the half-open range `[lo, hi)`.
    pub fn frac_in(&self, lo: i64, hi: i64) -> f64 {
        (self.frac_lt(hi) - self.frac_lt(lo)).max(0.0)
    }

    /// The median of the summarized values (the middle fence post).
    /// Robust against infinite ticks, unlike a mean would be — envelope
    /// lengths of ongoing intervals saturate at `i64::MAX`.
    pub fn median(&self) -> Option<i64> {
        if self.fences.is_empty() {
            return None;
        }
        Some(self.fences[(self.fences.len() - 1) / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_answers_zero() {
        let h = PointHistogram::build(Vec::new(), 8);
        assert!(h.is_empty());
        assert_eq!(h.frac_lt(0), 0.0);
        assert_eq!(h.frac_in(-10, 10), 0.0);
        assert_eq!(h.min(), None);
        assert_eq!(h.median(), None);
    }

    #[test]
    fn uniform_input_interpolates_linearly() {
        let h = PointHistogram::build((0..1000).collect(), 16);
        assert_eq!(h.total(), 1000);
        assert_eq!(h.frac_lt(0), 0.0);
        assert_eq!(h.frac_lt(2000), 1.0);
        for x in [100i64, 250, 500, 750, 900] {
            let got = h.frac_lt(x);
            let want = x as f64 / 999.0;
            assert!((got - want).abs() < 0.07, "x={x}: {got} vs {want}");
        }
        let med = h.median().unwrap();
        assert!((400..=600).contains(&med), "{med}");
    }

    #[test]
    fn equi_depth_adapts_to_skew() {
        // 90% of the mass at [900, 1000), 10% spread over [0, 900).
        let mut v: Vec<i64> = (0..100).map(|i| i * 9).collect();
        v.extend((0..900).map(|i| 900 + i / 9));
        let h = PointHistogram::build(v, 32);
        let got = h.frac_lt(900);
        assert!((got - 0.1).abs() < 0.05, "{got}");
        // Inside the dense region the resolution stays fine.
        let mid = h.frac_lt(950);
        assert!((mid - 0.55).abs() < 0.08, "{mid}");
    }

    #[test]
    fn duplicates_and_limits() {
        // Heavy duplicates at i64::MAX (ongoing envelope ends at ∞).
        let mut v = vec![i64::MAX; 50];
        v.extend(0..50);
        let h = PointHistogram::build(v, 8);
        let finite = h.frac_lt(1_000);
        assert!((finite - 0.5).abs() < 0.15, "{finite}");
        // The infinite mass sits above every finite query point...
        assert!(h.frac_lt(i64::MAX) < 1.0);
        // ...and `frac_le(i64::MAX)` saturates instead of overflowing.
        assert_eq!(h.frac_le(i64::MAX), 1.0);
    }

    #[test]
    fn single_value_input() {
        let h = PointHistogram::build(vec![7; 10], 4);
        assert_eq!(h.frac_lt(7), 0.0);
        assert_eq!(h.frac_lt(8), 1.0);
        assert_eq!(h.frac_le(7), 1.0);
        assert_eq!(h.frac_in(0, 100), 1.0);
        assert_eq!(h.median(), Some(7));
    }

    #[test]
    fn range_fraction_is_difference_of_cdfs() {
        let h = PointHistogram::build((0..100).collect(), 10);
        let f = h.frac_in(20, 60);
        assert!((f - 0.4).abs() < 0.06, "{f}");
        assert_eq!(h.frac_in(60, 20), 0.0, "inverted range is empty");
    }
}
