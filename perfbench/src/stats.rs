//! Order statistics over per-op latency samples.
//!
//! Percentiles use the nearest-rank rule on the sorted samples: the `p`-th
//! percentile of `n` values is the value of rank `ceil(p/100 · n)`. A tail
//! percentile is only worth reporting when enough samples lie beyond it,
//! so [`highest_supported`] picks the highest candidate percentile that
//! leaves at least [`MIN_BEYOND`] samples above its rank.

use std::collections::BTreeMap;

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles considered by [`highest_supported`], highest first.
pub const CANDIDATES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// 1-based nearest rank of percentile `p` among `n` samples.
pub fn rank(p: f64, n: usize) -> usize {
    // `p` has at most a few decimals, so `p·n/100` is a multiple of 1e-3;
    // the epsilon only absorbs binary rounding (99.9 · 10 000 / 100 must
    // be rank 9 990, not 9 991).
    ((p * n as f64 / 100.0 - 1e-6).ceil() as usize).clamp(1, n.max(1))
}

/// The `p`-th percentile of `sorted` (ascending), or `None` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(p, sorted.len()) - 1])
}

/// Samples lying beyond the rank of percentile `p`.
pub fn beyond(p: f64, n: usize) -> usize {
    n.saturating_sub(rank(p, n))
}

/// The highest of [`CANDIDATES`] with at least [`MIN_BEYOND`] samples
/// beyond it, or `None` when even the median is not supported.
pub fn highest_supported(n: usize) -> Option<f64> {
    CANDIDATES
        .into_iter()
        .find(|&p| n > 0 && beyond(p, n) >= MIN_BEYOND)
}

/// Most consecutive slices a window's samples are split into.
pub const SLICES: usize = 10;

/// Splits `values` (in op order) into as many consecutive equal slices as
/// leave each at least `min_per_slice` values (one to [`SLICES`]), takes
/// the `p`-th percentile of each slice, and returns their median — so a
/// stretch that disturbs one slice does not move the result.
pub fn sliced(values: &[f64], p: f64, min_per_slice: usize) -> f64 {
    let slices = (values.len() / min_per_slice.max(1)).clamp(1, SLICES);
    let per: Vec<f64> = values
        .chunks(values.len().div_ceil(slices).max(1))
        .map(|chunk| {
            let mut v = chunk.to_vec();
            v.sort_by(f64::total_cmp);
            percentile(&v, p).unwrap_or(0.0)
        })
        .collect();
    median(&per)
}

/// Median of unsorted values (nearest rank), `0.0` when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0).unwrap_or(0.0)
}

/// Count, median and 95th percentile of one set of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
}

impl Summary {
    /// Summarizes `values` (any order); all zero when empty.
    pub fn of(values: &[f64]) -> Summary {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Summary {
            n: v.len(),
            p50: percentile(&v, 50.0).unwrap_or(0.0),
            p95: percentile(&v, 95.0).unwrap_or(0.0),
        }
    }
}

/// Per-class summaries of `(class, value)` samples, in class order.
pub fn by_class<K: Ord>(samples: impl IntoIterator<Item = (K, f64)>) -> BTreeMap<K, Summary> {
    let mut groups: BTreeMap<K, Vec<f64>> = BTreeMap::new();
    for (class, v) in samples {
        groups.entry(class).or_default().push(v);
    }
    groups
        .into_iter()
        .map(|(class, v)| (class, Summary::of(&v)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 95.0), Some(95.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&ramp(3), 50.0), Some(2.0));
        assert_eq!(percentile(&ramp(4), 50.0), Some(2.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn highest_percentile_with_ten_samples_beyond() {
        // 99.9th needs n - ceil(0.999 n) >= 10, i.e. n >= 10 000.
        assert_eq!(highest_supported(10_000), Some(99.9));
        assert_eq!(highest_supported(9_999), Some(99.0));
        // 99th needs n >= 1 000; 95th needs n >= 200.
        assert_eq!(highest_supported(1_000), Some(99.0));
        assert_eq!(highest_supported(999), Some(95.0));
        assert_eq!(highest_supported(200), Some(95.0));
        assert_eq!(highest_supported(199), Some(90.0));
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(0), None);
        for n in [20, 199, 200, 1_000, 12_345] {
            let p = highest_supported(n).unwrap();
            assert!(beyond(p, n) >= MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn summary_counts() {
        let s = Summary::of(&ramp(200).into_iter().rev().collect::<Vec<_>>());
        assert_eq!(s.n, 200);
        assert_eq!(s.p50, 100.0);
        assert_eq!(s.p95, 190.0);
        let empty = Summary::of(&[]);
        assert_eq!((empty.n, empty.p50, empty.p95), (0, 0.0, 0.0));
    }

    #[test]
    fn per_class_summaries_keep_classes_apart() {
        // A cheap class of 60 samples below 60 and an expensive class of
        // 40 from 1 000: each class's percentiles come from its own samples.
        let mut samples = Vec::new();
        for i in 0..60 {
            samples.push(("cheap", i as f64));
        }
        for i in 0..40 {
            samples.push(("dear", 1_000.0 + i as f64));
        }
        let classes = by_class(samples.iter().copied());
        assert_eq!(classes.len(), 2);
        assert_eq!(classes["cheap"].n, 60);
        assert_eq!(classes["cheap"].p50, 29.0);
        assert_eq!(classes["cheap"].p95, 56.0);
        assert_eq!(classes["dear"].n, 40);
        assert_eq!(classes["dear"].p50, 1_019.0);
        assert_eq!(classes["dear"].p95, 1_037.0);
        // Over all samples the median sits 10 ranks inside the cheap class.
        let all: Vec<f64> = samples.iter().map(|s| s.1).collect();
        assert_eq!(median(&all), 49.0);
    }

    #[test]
    fn sliced_percentiles_ignore_a_disturbed_stretch() {
        // 1 000 values of 10 with a stretch of 100 at 30: the whole-window
        // p95 is the disturbed value, the median of ten slices' p95 is not.
        let mut v = vec![10.0; 1_000];
        for x in &mut v[300..400] {
            *x = 30.0;
        }
        let mut sorted = v.clone();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(percentile(&sorted, 95.0), Some(30.0));
        assert_eq!(sliced(&v, 95.0, 100), 10.0);
        // A change that slows every op moves every slice.
        let slower: Vec<f64> = v.iter().map(|x| x * 1.1).collect();
        assert_eq!(sliced(&slower, 95.0, 100), 11.0);
        // Too few values for two slices: the plain percentile.
        assert_eq!(sliced(&v[250..400], 95.0, 100), 30.0);
        assert_eq!(sliced(&v[..150], 50.0, 100), 10.0);
        assert_eq!(sliced(&[], 50.0, 100), 0.0);
    }

    #[test]
    fn median_of_unsorted_values() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }
}
