//! Per-layer accumulators of the traced run.
//!
//! Every traced op adds readings under a layer's metric name; the span
//! tree of a traced execution is folded into per-operator self times
//! (span wall time minus the wall time of its child spans).

use ongoing_core::IntervalSet;
use ongoing_engine::SpanNode;
use std::collections::BTreeMap;
use std::time::Instant;

/// Result reference-time sets kept for the `IntervalSet` replay.
const MAX_RT_SETS: usize = 20_000;

/// Sums and counts of named per-layer readings.
#[derive(Debug, Default)]
pub struct Layers {
    acc: BTreeMap<String, (f64, u64)>,
    rt_sets: Vec<IntervalSet>,
}

impl Layers {
    /// Adds one reading of `name`.
    pub fn add(&mut self, name: &str, value: f64) {
        let e = self.acc.entry(name.to_string()).or_default();
        e.0 += value;
        e.1 += 1;
    }

    /// Sum of the readings of `name`.
    pub fn sum(&self, name: &str) -> f64 {
        self.acc.get(name).map_or(0.0, |e| e.0)
    }

    /// Number of readings of `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.acc.get(name).map_or(0, |e| e.1)
    }

    /// Mean reading of `name` (0 without readings).
    pub fn mean(&self, name: &str) -> f64 {
        ratio(self.sum(name), self.count(name) as f64)
    }

    /// Times `f` and adds its duration in microseconds under `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let us = start.elapsed().as_secs_f64() * 1e6;
        self.add(name, us);
        (out, us)
    }

    /// Folds a traced execution's span tree into `exec.self_us.<operator>`
    /// sums: each span's wall time minus its children's.
    pub fn add_spans(&mut self, span: &SpanNode) {
        let children: u64 = span.children.iter().map(|c| c.wall_ns).sum();
        let self_us = span.wall_ns.saturating_sub(children) as f64 / 1e3;
        self.add(&format!("exec.self_us.{}", operator(&span.label)), self_us);
        for child in &span.children {
            self.add_spans(child);
        }
    }

    /// Keeps reference-time sets of an ongoing result for [`Self::rt_replay`].
    pub fn keep_rt_sets<'a>(&mut self, sets: impl Iterator<Item = &'a IntervalSet>) {
        let room = MAX_RT_SETS.saturating_sub(self.rt_sets.len());
        self.rt_sets.extend(sets.take(room).cloned());
    }

    /// Replays the kept result RT sets through `IntervalSet` intersection
    /// and union of neighbours: mean nanoseconds per operation, and the
    /// share of sets with at most two ranges.
    pub fn rt_replay(&self) -> (f64, f64) {
        let sets = &self.rt_sets;
        if sets.len() < 2 {
            return (0.0, 0.0);
        }
        let small = sets.iter().filter(|s| s.ranges().len() <= 2).count();
        let start = Instant::now();
        let mut ops = 0u64;
        let mut ranges = 0usize;
        for pair in sets.windows(2) {
            ranges += std::hint::black_box(pair[0].intersect(&pair[1]))
                .ranges()
                .len();
            ranges += std::hint::black_box(pair[0].union(&pair[1])).ranges().len();
            ops += 2;
        }
        std::hint::black_box(ranges);
        let ns = start.elapsed().as_nanos() as f64;
        (ns / ops as f64, small as f64 / sets.len() as f64)
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Operator kind of a span label: its first word (`HashJoin on …` →
/// `HashJoin`).
pub fn operator(label: &str) -> &str {
    label.split_whitespace().next().unwrap_or("unknown")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ongoing_engine::ExecStats;

    fn span(label: &str, wall_ns: u64, children: Vec<SpanNode>) -> SpanNode {
        SpanNode {
            label: label.into(),
            rows: 0,
            self_work: ExecStats::default(),
            total_work: ExecStats::default(),
            wall_ns,
            children,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let tree = span(
            "HashJoin on [(0, 0)]",
            10_000,
            vec![
                span("SeqScan A", 3_000, vec![]),
                span("SeqScan B", 2_000, vec![]),
            ],
        );
        let mut l = Layers::default();
        l.add_spans(&tree);
        assert_eq!(l.sum("exec.self_us.HashJoin"), 5.0);
        assert_eq!(l.sum("exec.self_us.SeqScan"), 5.0);
        assert_eq!(l.count("exec.self_us.SeqScan"), 2);
    }

    #[test]
    fn sums_counts_means() {
        let mut l = Layers::default();
        l.add("x", 1.0);
        l.add("x", 3.0);
        assert_eq!((l.sum("x"), l.count("x"), l.mean("x")), (4.0, 2, 2.0));
        assert_eq!(l.mean("missing"), 0.0);
        assert_eq!(operator("Filter ongoing: (#5 overlaps …)"), "Filter");
    }
}
