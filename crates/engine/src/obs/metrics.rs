//! The metrics registry: named, typed, atomic metrics behind one
//! snapshot/exposition API.
//!
//! Three metric kinds cover everything the engine counts today:
//!
//! * **Counters** — monotone `u64`s (tuples scanned, publications, …).
//! * **Gauges** — instantaneous `u64`s set at observation time (cache
//!   resident bytes, store write-work totals).
//! * **Histograms** — fixed log2-scaled buckets (`≤1, ≤2, ≤4, … , +Inf`),
//!   so bucket boundaries are deterministic across runs and platforms and
//!   two histograms built from the same observations in *any* order are
//!   bit-identical.
//!
//! A [`MetricsSnapshot`] is a point-in-time copy of every registered
//! metric, ordered by name; [`MetricsSnapshot::delta`] subtracts an
//! earlier snapshot (counters and histograms subtract, gauges keep the
//! later value) and [`MetricsSnapshot::render_text`] emits the
//! Prometheus-style text exposition that `Database::metrics_text()`
//! serves.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of finite histogram bucket bounds (`2^0 … 2^(N-1)`); one more
/// bucket catches everything above, Prometheus' `+Inf`.
pub const HISTOGRAM_BOUNDS: usize = 17;

/// The upper bound of finite bucket `i`: `2^i`.
fn bound(i: usize) -> u64 {
    1u64 << i
}

#[derive(Debug, Default)]
struct HistogramCore {
    /// Per-bucket (not cumulative) observation counts; index
    /// [`HISTOGRAM_BOUNDS`] is the overflow (`+Inf`) bucket.
    buckets: [AtomicU64; HISTOGRAM_BOUNDS + 1],
    sum: AtomicU64,
    count: AtomicU64,
}

impl HistogramCore {
    fn observe(&self, v: u64) {
        let idx = (0..HISTOGRAM_BOUNDS)
            .find(|&i| v <= bound(i))
            .unwrap_or(HISTOGRAM_BOUNDS);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }
}

/// Handle to a registered counter; cloning shares the underlying cell.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `v` to the counter.
    pub fn add(&self, v: u64) {
        self.0.fetch_add(v, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Handle to a registered gauge; cloning shares the underlying cell.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge to `v`.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Handle to a registered histogram; cloning shares the underlying cells.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// Records one observation of `v`.
    pub fn observe(&self, v: u64) {
        self.0.observe(v);
    }
}

#[derive(Debug, Clone)]
enum MetricCell {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistogramCore>),
}

/// The registry: a name → typed-metric map. Handles are cheap to clone
/// and update lock-free; the registry lock is only taken to register or
/// snapshot.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    cells: Mutex<BTreeMap<String, MetricCell>>,
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The cell named `name` (a shared handle), registering `new()` under
    /// it on first use. A registered name is found by `&str`; only a new
    /// one allocates its `String`.
    fn cell(&self, name: &str, new: impl FnOnce() -> MetricCell) -> MetricCell {
        let mut cells = self.cells.lock();
        if let Some(cell) = cells.get(name) {
            return cell.clone();
        }
        cells.entry(name.to_string()).or_insert_with(new).clone()
    }

    /// The counter named `name`, registering it (at zero) on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        match self.cell(name, || MetricCell::Counter(Arc::new(AtomicU64::new(0)))) {
            MetricCell::Counter(c) => Counter(c),
            _ => panic!("metric {name} already registered with a different kind"),
        }
    }

    /// The gauge named `name`, registering it (at zero) on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.cell(name, || MetricCell::Gauge(Arc::new(AtomicU64::new(0)))) {
            MetricCell::Gauge(g) => Gauge(g),
            _ => panic!("metric {name} already registered with a different kind"),
        }
    }

    /// The histogram named `name`, registering it (empty) on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        match self.cell(name, || {
            MetricCell::Histogram(Arc::new(HistogramCore::default()))
        }) {
            MetricCell::Histogram(h) => Histogram(h),
            _ => panic!("metric {name} already registered with a different kind"),
        }
    }

    /// A point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let cells = self.cells.lock();
        let values = cells
            .iter()
            .map(|(name, cell)| {
                let value = match cell {
                    MetricCell::Counter(c) => MetricValue::Counter(c.load(Ordering::Relaxed)),
                    MetricCell::Gauge(g) => MetricValue::Gauge(g.load(Ordering::Relaxed)),
                    MetricCell::Histogram(h) => MetricValue::Histogram(HistogramSnapshot {
                        buckets: h
                            .buckets
                            .iter()
                            .map(|b| b.load(Ordering::Relaxed))
                            .collect(),
                        sum: h.sum.load(Ordering::Relaxed),
                        count: h.count.load(Ordering::Relaxed),
                    }),
                };
                (name.clone(), value)
            })
            .collect();
        MetricsSnapshot { values }
    }
}

/// Frozen per-bucket histogram counts plus sum/count totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts; the last entry is the `+Inf` bucket.
    pub buckets: Vec<u64>,
    /// Sum of all observed values.
    pub sum: u64,
    /// Number of observations.
    pub count: u64,
}

impl HistogramSnapshot {
    /// The inclusive upper bound of finite bucket `i` (`2^i`).
    pub fn bound(i: usize) -> u64 {
        bound(i)
    }
}

/// One frozen metric value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// Monotone counter value.
    Counter(u64),
    /// Instantaneous gauge value.
    Gauge(u64),
    /// Frozen histogram.
    Histogram(HistogramSnapshot),
}

/// A point-in-time copy of a registry, ordered by metric name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    values: BTreeMap<String, MetricValue>,
}

impl MetricsSnapshot {
    /// Builds a snapshot directly from `(name, value)` pairs — how the
    /// database folds derived values (durable stats, store work) into the
    /// registry's own snapshot.
    pub fn from_values(values: impl IntoIterator<Item = (String, MetricValue)>) -> Self {
        MetricsSnapshot {
            values: values.into_iter().collect(),
        }
    }

    /// Merges `other` into this snapshot (later names win).
    pub fn merge(&mut self, other: MetricsSnapshot) {
        self.values.extend(other.values);
    }

    /// The value of `name`, if present.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.values.get(name)
    }

    /// The counter or gauge value of `name`; zero when absent.
    pub fn value(&self, name: &str) -> u64 {
        match self.values.get(name) {
            Some(MetricValue::Counter(v)) | Some(MetricValue::Gauge(v)) => *v,
            Some(MetricValue::Histogram(h)) => h.count,
            None => 0,
        }
    }

    /// The histogram snapshot of `name`, if present and a histogram.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.values.get(name) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Iterates `(name, value)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.values.iter().map(|(n, v)| (n.as_str(), v))
    }

    /// The change since `earlier`: counters and histograms subtract
    /// (saturating, so a restarted source clamps at zero); gauges keep
    /// this snapshot's value. Names only in `earlier` are dropped.
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let values = self
            .values
            .iter()
            .map(|(name, value)| {
                let out = match (value, earlier.values.get(name)) {
                    (MetricValue::Counter(now), Some(MetricValue::Counter(then))) => {
                        MetricValue::Counter(now.saturating_sub(*then))
                    }
                    (MetricValue::Histogram(now), Some(MetricValue::Histogram(then)))
                        if now.buckets.len() == then.buckets.len() =>
                    {
                        MetricValue::Histogram(HistogramSnapshot {
                            buckets: now
                                .buckets
                                .iter()
                                .zip(&then.buckets)
                                .map(|(a, b)| a.saturating_sub(*b))
                                .collect(),
                            sum: now.sum.saturating_sub(then.sum),
                            count: now.count.saturating_sub(then.count),
                        })
                    }
                    _ => value.clone(),
                };
                (name.clone(), out)
            })
            .collect();
        MetricsSnapshot { values }
    }

    /// Prometheus-style text exposition: `# TYPE` line per metric, then
    /// the sample(s), in name order.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.values {
            match value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "# TYPE {name} counter\n{name} {v}");
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "# TYPE {name} gauge\n{name} {v}");
                }
                MetricValue::Histogram(h) => {
                    let _ = writeln!(out, "# TYPE {name} histogram");
                    let mut cumulative = 0u64;
                    for (i, n) in h.buckets.iter().enumerate() {
                        cumulative += n;
                        if i < HISTOGRAM_BOUNDS {
                            let _ =
                                writeln!(out, "{name}_bucket{{le=\"{}\"}} {cumulative}", bound(i));
                        } else {
                            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
                        }
                    }
                    let _ = writeln!(out, "{name}_sum {}\n{name}_count {}", h.sum, h.count);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_gauge_histogram_round_trip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("c_total");
        c.add(3);
        reg.counter("c_total").inc(); // same cell via name
        reg.gauge("g_bytes").set(7);
        let h = reg.histogram("h_units");
        h.observe(1);
        h.observe(2);
        h.observe(1 << 20); // overflow bucket

        let snap = reg.snapshot();
        assert_eq!(snap.value("c_total"), 4);
        assert_eq!(snap.value("g_bytes"), 7);
        let hs = snap.histogram("h_units").unwrap();
        assert_eq!(hs.count, 3);
        assert_eq!(hs.sum, 3 + (1 << 20));
        assert_eq!(hs.buckets[0], 1); // v=1 ≤ 2^0
        assert_eq!(hs.buckets[1], 1); // v=2 ≤ 2^1
        assert_eq!(hs.buckets[HISTOGRAM_BOUNDS], 1); // +Inf
    }

    #[test]
    fn delta_subtracts_counters_keeps_gauges() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("c_total");
        let g = reg.gauge("g_now");
        c.add(5);
        g.set(10);
        let before = reg.snapshot();
        c.add(2);
        g.set(4);
        let after = reg.snapshot();
        let d = after.delta(&before);
        assert_eq!(d.value("c_total"), 2);
        assert_eq!(d.value("g_now"), 4);
    }

    #[test]
    fn exposition_is_greppable_and_ordered() {
        let reg = MetricsRegistry::new();
        reg.counter("b_total").add(1);
        reg.gauge("a_bytes").set(2);
        reg.histogram("c_hist").observe(3);
        let text = reg.snapshot().render_text();
        let a = text.find("a_bytes 2").unwrap();
        let b = text.find("b_total 1").unwrap();
        assert!(a < b, "name order:\n{text}");
        assert!(text.contains("# TYPE c_hist histogram"));
        assert!(text.contains("c_hist_bucket{le=\"4\"} 1"));
        assert!(text.contains("c_hist_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("c_hist_count 1"));
    }

    #[test]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("x");
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| reg.gauge("x")));
        assert!(err.is_err());
    }
}
