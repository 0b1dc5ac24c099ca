//! Per-query trace spans and the one-and-only plan-tree renderer.
//!
//! A [`SpanNode`] mirrors one physical operator: it carries the operator's
//! *actual* output rows, its deterministic self/total work units (the
//! [`ExecStats`] delta attributed to this operator vs. its children), and
//! informational wall-clock nanoseconds. Executors build the tree through
//! a [`TraceCollector`] threaded in via
//! [`ExecContext::trace`](crate::ExecContext) — morsel work lands in the
//! operator's own counters because partition merges already fold in
//! deterministic partition order, so span work units are bit-identical at
//! every thread count (wall time, of course, is not).
//!
//! This module is also the single source of truth for rendering plan
//! trees: `explain` (`EXPLAIN`) and `explain_analyzed` (`EXPLAIN ANALYZE`)
//! both flow through [`render_tree`]/[`render_summary`], so estimated and
//! measured lines can never drift in layout or rounding.

use crate::exec::ExecStats;
use crate::plan::PhysicalPlan;
use crate::stats::cost::{NodeEstimate, WorkEstimate};
use parking_lot::Mutex;

/// One operator's slice of a query trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// The operator's one-line rendering (same text as `explain`).
    pub label: String,
    /// Rows the operator produced.
    pub rows: u64,
    /// Work units attributed to this operator alone (children excluded);
    /// deterministic across thread counts.
    pub self_work: ExecStats,
    /// Work units of this operator plus its whole subtree.
    pub total_work: ExecStats,
    /// Wall-clock nanoseconds for this operator's subtree. Informational:
    /// varies run to run and with parallelism.
    pub wall_ns: u64,
    /// Child spans in `explain` order.
    pub children: Vec<SpanNode>,
}

/// Builds the span tree during execution.
///
/// The executor recursion is single-threaded over *operators* (only morsel
/// work inside an operator fans out, and workers never re-enter the
/// recursion), so a simple frame stack suffices: each operator opens a
/// frame, its children record themselves into it, and the operator folds
/// the closed frame into its own span.
#[derive(Debug, Default)]
pub struct TraceCollector {
    frames: Mutex<Vec<Vec<SpanNode>>>,
    roots: Mutex<Vec<SpanNode>>,
}

impl TraceCollector {
    /// A fresh collector.
    pub fn new() -> TraceCollector {
        TraceCollector::default()
    }

    /// Opens a frame for the children of the operator about to run.
    pub fn open_frame(&self) {
        self.frames.lock().push(Vec::new());
    }

    /// Closes the innermost frame, returning the spans recorded into it.
    pub fn close_frame(&self) -> Vec<SpanNode> {
        self.frames.lock().pop().unwrap_or_default()
    }

    /// Records a finished span into the enclosing frame (or as a root).
    pub fn record(&self, span: SpanNode) {
        let mut frames = self.frames.lock();
        match frames.last_mut() {
            Some(frame) => frame.push(span),
            None => self.roots.lock().push(span),
        }
    }

    /// Drains the finished root spans (normally exactly one per executed
    /// plan).
    pub fn finish(&self) -> Vec<SpanNode> {
        std::mem::take(&mut *self.roots.lock())
    }
}

/// The per-operator annotation, the one place estimated and measured
/// numbers are formatted. `(est rows≈… self work≈…)` when only estimates
/// exist, `(… | rows=… work=… wall=…ns)` once actuals do.
fn annotation(est: &NodeEstimate, actual: Option<&SpanNode>) -> String {
    match actual {
        None => format!(
            "  (est rows≈{:.0} self work≈{:.0})",
            est.rows,
            est.self_work.total()
        ),
        Some(a) => format!(
            "  (est rows≈{:.0} self work≈{:.0} | rows={} work={} wall={}ns)",
            est.rows,
            est.self_work.total(),
            a.rows,
            a.self_work.total_work(),
            a.wall_ns
        ),
    }
}

fn render_into(
    plan: &PhysicalPlan,
    depth: usize,
    est: &NodeEstimate,
    actual: Option<&SpanNode>,
    out: &mut String,
) {
    let pad = "  ".repeat(depth);
    out.push_str(&format!(
        "{pad}{}{}\n",
        plan.node_line(),
        annotation(est, actual)
    ));
    // `estimate` mirrors the plan, one child estimate per input.
    for (i, (child, child_est)) in plan.inputs().into_iter().zip(&est.children).enumerate() {
        render_into(
            child,
            depth + 1,
            child_est,
            actual.and_then(|a| a.children.get(i)),
            out,
        );
    }
}

/// Renders `plan` one operator per line, annotating each with its
/// cost-model estimates and, once executed, its measured span.
pub fn render_tree(plan: &PhysicalPlan, est: &NodeEstimate, actual: Option<&SpanNode>) -> String {
    let mut out = String::new();
    render_into(plan, 0, est, actual, &mut out);
    out
}

/// The measured-vs-estimated trailer of `EXPLAIN ANALYZE`.
pub fn render_summary(stats: &ExecStats, est: &WorkEstimate) -> String {
    format!("stats: {stats}\nest:   {est}\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(label: &str, rows: u64, children: Vec<SpanNode>) -> SpanNode {
        SpanNode {
            label: label.into(),
            rows,
            self_work: ExecStats::default(),
            total_work: ExecStats::default(),
            wall_ns: 0,
            children,
        }
    }

    #[test]
    fn collector_nests_frames() {
        let t = TraceCollector::new();
        t.open_frame(); // root's children
        t.open_frame(); // leaf's children (none)
        let none = t.close_frame();
        assert!(none.is_empty());
        t.record(span("leaf", 1, none));
        let kids = t.close_frame();
        assert_eq!(kids.len(), 1);
        t.record(span("root", 1, kids));
        let roots = t.finish();
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].children[0].label, "leaf");
        assert!(t.finish().is_empty(), "finish drains");
    }

    #[test]
    fn annotation_shapes() {
        let est = NodeEstimate {
            rows: 2.0,
            self_work: WorkEstimate::default(),
            work: WorkEstimate::default(),
            analyzed: false,
            cols: Vec::new(),
            children: Vec::new(),
        };
        assert_eq!(annotation(&est, None), "  (est rows≈2 self work≈0)");
        let a = span("x", 3, Vec::new());
        assert_eq!(
            annotation(&est, Some(&a)),
            "  (est rows≈2 self work≈0 | rows=3 work=0 wall=0ns)"
        );
    }
}
