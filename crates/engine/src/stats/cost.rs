//! The work-unit cost model.
//!
//! Estimates, for a physical plan running in **ongoing mode**, the same
//! quantities the executors *measure* in [`ExecStats`](crate::exec::ExecStats):
//! tuples scanned, tuples filtered, candidate pairs compared, key-map
//! candidates and interval-set merges. Estimating in the measured unit
//! system is what makes the model *calibratable*: `tests/cost_model.rs`
//! compares [`NodeEstimate::work`] against the deterministic counters of
//! an actual run and asserts a bounded ratio.
//!
//! `KeyScan` estimates need no histogram: the store's
//! [`QualEstimate`](ongoing_relation::QualEstimate) counts the rows the
//! keyed walk visits exactly, and the keyed-vs-scan choice itself is
//! [`OngoingRelation::key_probe`](ongoing_relation::OngoingRelation::key_probe),
//! not this model.
//!
//! The optimizer uses the per-candidate helpers
//! ([`hash_join_work`], [`sweep_join_work`]) to enumerate join strategies
//! and pick the cheapest — a nested loop is [`hash_join_work`] on no keys,
//! `|L|·|R|` candidate pairs; `EXPLAIN` rendering
//! ([`explain`](crate::plan::PhysicalPlan::explain) and
//! [`explain_analyzed`](crate::plan::PhysicalPlan::explain_analyzed)) uses
//! [`estimate`] to show estimated rows and work next to the actual
//! counters.
//!
//! Column-level information (distinct counts, interval summaries) is
//! propagated bottom-up through the plan: scans seed it from the catalog's
//! [`TableStatistics`](crate::stats::TableStatistics), filters scale it,
//! joins concatenate it. Plans over tables that were never `ANALYZE`d fall
//! back to conservative defaults and are flagged `analyzed = false`; the
//! optimizer then keeps the classic heuristic priority (hash > sweep >
//! nested loops) instead of trusting made-up numbers.

use crate::catalog::Table;
use crate::plan::physical::PhysicalPlan;
use crate::stats::{const_envelope, FixedSummary, IntervalSummary};
use ongoing_core::allen::TemporalPredicate;
use ongoing_relation::algebra::ProjItem;
use ongoing_relation::{CmpOp, Expr, Predicate, Schema, Value};
use std::fmt;
use std::sync::Arc;

/// Default selectivity for predicates the model cannot resolve.
pub const DEFAULT_SEL: f64 = 1.0 / 3.0;
/// Default envelope-overlap selectivity when interval statistics are
/// missing. Deliberately pessimistic relative to equality keys, so the
/// un-analyzed fallback ranks hash < sweep < nested loops like the classic
/// heuristic.
pub const DEFAULT_OVERLAP_SEL: f64 = 0.25;

/// Estimated work units, mirroring the [`ExecStats`](crate::exec::ExecStats)
/// counters as `f64` expectations.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct WorkEstimate {
    /// Expected tuples produced by base-table access paths.
    pub tuples_scanned: f64,
    /// Expected tuples evaluated by filters / key-scan residuals.
    pub tuples_filtered: f64,
    /// Expected join candidate pairs.
    pub pairs_compared: f64,
    /// Expected key-map candidates.
    pub index_candidates: f64,
    /// Expected interval-set merges.
    pub intervals_merged: f64,
}

impl WorkEstimate {
    /// Sum of all expected counters — comparable to
    /// [`ExecStats::total_work`](crate::exec::ExecStats::total_work).
    pub fn total(&self) -> f64 {
        self.tuples_scanned
            + self.tuples_filtered
            + self.pairs_compared
            + self.index_candidates
            + self.intervals_merged
    }

    /// Adds another estimate in place.
    pub fn add(&mut self, other: &WorkEstimate) {
        self.tuples_scanned += other.tuples_scanned;
        self.tuples_filtered += other.tuples_filtered;
        self.pairs_compared += other.pairs_compared;
        self.index_candidates += other.index_candidates;
        self.intervals_merged += other.intervals_merged;
    }
}

impl fmt::Display for WorkEstimate {
    /// Same shape as the `ExecStats` rendering, with `≈` marking estimates.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scanned≈{:.0} filtered≈{:.0} pairs≈{:.0} idx≈{:.0} merges≈{:.0} (work≈{:.0})",
            self.tuples_scanned,
            self.tuples_filtered,
            self.pairs_compared,
            self.index_candidates,
            self.intervals_merged,
            self.total()
        )
    }
}

/// Column-level estimate carried bottom-up through the plan.
#[derive(Debug, Clone, Default)]
pub struct ColEstimate {
    /// Estimated distinct values (`rows` when unknown).
    pub distinct: f64,
    /// Fixed-attribute summary, when the column descends from an analyzed
    /// base column.
    pub fixed: Option<Arc<FixedSummary>>,
    /// Interval summary, when the column descends from an analyzed base
    /// interval column. Filters are assumed not to change the envelope
    /// *distribution* (only the row count scales).
    pub interval: Option<Arc<IntervalSummary>>,
}

impl ColEstimate {
    fn unknown(rows: f64) -> Self {
        ColEstimate {
            distinct: rows.max(1.0),
            fixed: None,
            interval: None,
        }
    }

    fn scaled(&self, rows: f64) -> Self {
        ColEstimate {
            distinct: self.distinct.min(rows.max(1.0)),
            fixed: self.fixed.clone(),
            interval: self.interval.clone(),
        }
    }
}

/// Per-operator estimate tree produced by [`estimate`].
#[derive(Debug, Clone)]
pub struct NodeEstimate {
    /// Estimated output cardinality.
    pub rows: f64,
    /// Work performed by this operator alone.
    pub self_work: WorkEstimate,
    /// Cumulative work of this operator and its inputs.
    pub work: WorkEstimate,
    /// `true` iff every base table below this node has collected
    /// statistics (the estimates are grounded, not defaults).
    pub analyzed: bool,
    /// Per-output-column estimates.
    pub cols: Vec<ColEstimate>,
    /// Child estimates, in `explain` order.
    pub children: Vec<NodeEstimate>,
}

impl NodeEstimate {
    fn leaf(rows: f64, self_work: WorkEstimate, analyzed: bool, cols: Vec<ColEstimate>) -> Self {
        NodeEstimate {
            rows,
            self_work,
            work: self_work,
            analyzed,
            cols,
            children: Vec::new(),
        }
    }

    fn with_children(
        rows: f64,
        self_work: WorkEstimate,
        cols: Vec<ColEstimate>,
        children: Vec<NodeEstimate>,
    ) -> Self {
        let mut work = self_work;
        let analyzed = children.iter().all(|c| c.analyzed);
        for c in &children {
            work.add(&c.work);
        }
        NodeEstimate {
            rows,
            self_work,
            work,
            analyzed,
            cols,
            children,
        }
    }
}

// ----------------------------------------------------------------------
// Selectivity estimation.
// ----------------------------------------------------------------------

/// Scale factor applied to the envelope-overlap fraction per temporal
/// predicate: envelope overlap is the candidate condition; stricter
/// predicates match a shrinking subset of the candidates.
fn temporal_scale(p: TemporalPredicate) -> f64 {
    match p {
        TemporalPredicate::Overlaps => 1.0,
        TemporalPredicate::During => 0.5,
        TemporalPredicate::Starts | TemporalPredicate::Finishes => 0.1,
        TemporalPredicate::Equals => 0.05,
        // Not envelope-driven; handled separately where possible.
        TemporalPredicate::Before => 0.3,
        TemporalPredicate::Meets => 0.05,
    }
}

fn col_of(e: &Expr) -> Option<usize> {
    match e {
        Expr::Col(i) => Some(*i),
        _ => None,
    }
}

fn const_of(e: &Expr) -> Option<&Value> {
    match e {
        Expr::Const(v) => Some(v),
        _ => None,
    }
}

fn cmp_selectivity(op: CmpOp, l: &Expr, r: &Expr, cols: &[ColEstimate]) -> f64 {
    let eq_sel = |cols: &[ColEstimate]| -> f64 {
        match (col_of(l), col_of(r)) {
            (Some(i), Some(j)) => {
                let di = cols.get(i).map(|c| c.distinct).unwrap_or(1.0);
                let dj = cols.get(j).map(|c| c.distinct).unwrap_or(1.0);
                1.0 / di.max(dj).max(1.0)
            }
            (Some(i), None) | (None, Some(i)) => {
                1.0 / cols.get(i).map(|c| c.distinct).unwrap_or(1.0).max(1.0)
            }
            _ => DEFAULT_SEL,
        }
    };
    // Range comparison `Col op literal` against a value histogram.
    let range_sel = |i: usize, v: &Value, col_on_left: bool| -> Option<f64> {
        let hist = cols.get(i)?.fixed.as_ref()?.histogram.as_ref()?;
        let x = match v {
            Value::Int(n) => *n,
            Value::Time(t) => t.ticks(),
            _ => return None,
        };
        // Normalize to `col OP x`.
        let op = if col_on_left { op } else { op.mirror() };
        Some(match op {
            CmpOp::Lt => hist.frac_lt(x),
            CmpOp::Le => hist.frac_le(x),
            CmpOp::Gt => 1.0 - hist.frac_le(x),
            CmpOp::Ge => 1.0 - hist.frac_lt(x),
            CmpOp::Eq | CmpOp::Ne => return None,
        })
    };
    match op {
        CmpOp::Eq => eq_sel(cols),
        CmpOp::Ne => (1.0 - eq_sel(cols)).max(0.0),
        _ => {
            let resolved = match (col_of(l), const_of(r), const_of(l), col_of(r)) {
                (Some(i), Some(v), _, _) => range_sel(i, v, true),
                (_, _, Some(v), Some(j)) => range_sel(j, v, false),
                _ => None,
            };
            resolved.unwrap_or(DEFAULT_SEL)
        }
    }
}

fn temporal_selectivity(p: TemporalPredicate, l: &Expr, r: &Expr, cols: &[ColEstimate]) -> f64 {
    let summary = |e: &Expr| col_of(e).and_then(|i| cols.get(i)?.interval.clone());
    match (summary(l), summary(r)) {
        (Some(a), Some(b)) => match p {
            TemporalPredicate::Before | TemporalPredicate::Meets => temporal_scale(p),
            _ => (a.pair_overlap_frac(&b) * temporal_scale(p)).clamp(0.0, 1.0),
        },
        (Some(s), None) | (None, Some(s)) => {
            let lit = const_of(l).or_else(|| const_of(r)).and_then(const_envelope);
            match lit {
                Some((qs, qe)) => {
                    let frac = match p {
                        // `before` matches rows *away* from the literal, so
                        // the overlap proxy would estimate ~0 for exactly
                        // the rows that qualify; the end/start CDFs answer
                        // it directly.
                        TemporalPredicate::Before if col_of(l).is_some() => {
                            // `col before lit`: envelope end ≤ literal start.
                            s.ends.frac_le(qs)
                        }
                        TemporalPredicate::Before => {
                            // `lit before col`: envelope start ≥ literal end.
                            1.0 - s.starts.frac_lt(qe)
                        }
                        // A point-coincidence condition, not envelope-driven.
                        TemporalPredicate::Meets => temporal_scale(p),
                        // `col during lit`: the column's envelope start must
                        // fall inside the literal's envelope — the start
                        // histogram answers that more tightly than the
                        // scaled overlap proxy.
                        TemporalPredicate::During if col_of(l).is_some() => {
                            s.starts.frac_in(qs, qe)
                        }
                        _ => s.overlap_frac(qs, qe) * temporal_scale(p),
                    };
                    (s.nonempty_frac() * frac).clamp(0.0, 1.0)
                }
                None => DEFAULT_OVERLAP_SEL * temporal_scale(p),
            }
        }
        (None, None) => DEFAULT_OVERLAP_SEL * temporal_scale(p),
    }
}

/// Estimated fraction of tuples satisfying `expr`, given the input's
/// column estimates.
pub fn selectivity(expr: &Expr, cols: &[ColEstimate]) -> f64 {
    let s = match expr {
        Expr::And(l, r) => selectivity(l, cols) * selectivity(r, cols),
        Expr::Or(l, r) => {
            let (a, b) = (selectivity(l, cols), selectivity(r, cols));
            a + b - a * b
        }
        Expr::Not(e) => 1.0 - selectivity(e, cols),
        Expr::Cmp(op, l, r) => cmp_selectivity(*op, l, r, cols),
        Expr::Temporal(p, l, r) => temporal_selectivity(*p, l, r, cols),
        Expr::Const(Value::Bool(b)) => {
            if *b {
                1.0
            } else {
                0.0
            }
        }
        _ => DEFAULT_SEL,
    };
    s.clamp(0.0, 1.0)
}

fn opt_sel(pred: Option<&Expr>, cols: &[ColEstimate]) -> f64 {
    pred.map(|p| selectivity(p, cols)).unwrap_or(1.0)
}

// ----------------------------------------------------------------------
// Per-operator work models.
// ----------------------------------------------------------------------

/// Work and output rows of evaluating the fixed/ongoing residual pair over
/// `pairs` candidate join pairs — the shared tail of every join executor
/// (`join_pair_into`): one merge per concatenation, two more per pair that
/// passes the fixed gate when an ongoing conjunct is present.
fn residual_work(
    pairs: f64,
    fixed: Option<&Expr>,
    ongoing: Option<&Expr>,
    cols: &[ColEstimate],
) -> (f64, WorkEstimate) {
    let sf = opt_sel(fixed, cols);
    let so = opt_sel(ongoing, cols);
    let mut w = WorkEstimate {
        pairs_compared: pairs,
        intervals_merged: pairs,
        ..WorkEstimate::default()
    };
    if ongoing.is_some() {
        w.intervals_merged += 2.0 * pairs * sf;
    }
    (pairs * sf * so, w)
}

/// Estimated candidate pairs of a hash join on `keys`: uniform-key model
/// `|L|·|R| / Π max(d_l, d_r)` — `|L|·|R|` on no keys (a nested loop).
pub fn hash_join_pairs(left: &NodeEstimate, right: &NodeEstimate, keys: &[(usize, usize)]) -> f64 {
    let mut denom = 1.0f64;
    for &(i, j) in keys {
        let dl = left.cols.get(i).map(|c| c.distinct).unwrap_or(1.0);
        let dr = right.cols.get(j).map(|c| c.distinct).unwrap_or(1.0);
        denom *= dl.max(dr).max(1.0);
    }
    (left.rows * right.rows / denom).min(left.rows * right.rows)
}

/// Estimated candidate pairs of a sweep join over envelope columns
/// `l_col`/`r_col` (right-local index).
pub fn sweep_join_pairs(
    left: &NodeEstimate,
    right: &NodeEstimate,
    l_col: usize,
    r_col: usize,
) -> f64 {
    let frac = match (
        left.cols.get(l_col).and_then(|c| c.interval.as_ref()),
        right.cols.get(r_col).and_then(|c| c.interval.as_ref()),
    ) {
        (Some(a), Some(b)) => a.pair_overlap_frac(b),
        _ => DEFAULT_OVERLAP_SEL,
    };
    left.rows * right.rows * frac
}

/// Top-node work of a hash join candidate.
pub fn hash_join_work(
    left: &NodeEstimate,
    right: &NodeEstimate,
    keys: &[(usize, usize)],
    fixed: Option<&Expr>,
    ongoing: Option<&Expr>,
    cols: &[ColEstimate],
) -> (f64, WorkEstimate) {
    residual_work(hash_join_pairs(left, right, keys), fixed, ongoing, cols)
}

/// Top-node work of a sweep join candidate.
pub fn sweep_join_work(
    left: &NodeEstimate,
    right: &NodeEstimate,
    l_col: usize,
    r_col: usize,
    fixed: Option<&Expr>,
    ongoing: Option<&Expr>,
    cols: &[ColEstimate],
) -> (f64, WorkEstimate) {
    let (_, work) = residual_work(
        sweep_join_pairs(left, right, l_col, r_col),
        fixed,
        ongoing,
        cols,
    );
    // Output cardinality is strategy-independent: the full predicate over
    // the cross product. The envelope pass only filters *work* — the
    // ongoing residual re-contains the driving temporal conjunct, so
    // applying its selectivity to the candidate count (as `residual_work`
    // does for rows) would square the overlap fraction and starve every
    // operator above this node of cardinality.
    let rows = left.rows * right.rows * opt_sel(fixed, cols) * opt_sel(ongoing, cols);
    (rows, work)
}

/// Concatenated column estimates of a join product.
pub fn product_cols(left: &NodeEstimate, right: &NodeEstimate) -> Vec<ColEstimate> {
    let mut cols = left.cols.clone();
    cols.extend(right.cols.iter().cloned());
    cols
}

fn filter_work(
    input_rows: f64,
    fixed: Option<&Expr>,
    ongoing: Option<&Expr>,
    cols: &[ColEstimate],
) -> (f64, WorkEstimate) {
    let sf = opt_sel(fixed, cols);
    let so = opt_sel(ongoing, cols);
    let mut w = WorkEstimate {
        tuples_filtered: input_rows,
        ..WorkEstimate::default()
    };
    if ongoing.is_some() {
        w.intervals_merged += 2.0 * input_rows * sf;
    }
    (input_rows * sf * so, w)
}

// ----------------------------------------------------------------------
// Plan estimation.
// ----------------------------------------------------------------------

/// A compiled operator predicate's source expression, which the estimates
/// read.
fn source(p: &Option<Arc<Predicate>>) -> Option<&Expr> {
    p.as_deref().map(Predicate::source)
}

/// A base scan's column estimates — seeded from the table's statistics,
/// or unknown over `rows` rows when it has none — and whether the table
/// is analyzed.
fn scan_cols(table: &Table, schema: &Schema, rows: f64) -> (bool, Vec<ColEstimate>) {
    let stats = table.statistics();
    let table_rows = table.data().len() as f64;
    let cols = (0..schema.len())
        .map(|i| match &stats {
            Some(s) => ColEstimate {
                distinct: s
                    .fixed(i)
                    .map(|f| f.distinct as f64)
                    .unwrap_or(table_rows)
                    .max(1.0),
                fixed: s.fixed(i).cloned(),
                interval: s.interval(i).cloned(),
            },
            None => ColEstimate::unknown(rows),
        })
        .collect();
    (stats.is_some(), cols)
}

/// Estimates rows and work units for every operator of a physical plan
/// (ongoing-mode execution). Statistics come from the `Arc<Table>` handles
/// embedded in the scans; un-analyzed tables yield default estimates with
/// `analyzed = false`.
pub fn estimate(plan: &PhysicalPlan) -> NodeEstimate {
    match plan {
        PhysicalPlan::SeqScan { table, schema } => {
            let rows = table.data().len() as f64;
            let (analyzed, cols) = scan_cols(table, schema, rows);
            let w = WorkEstimate {
                tuples_scanned: rows,
                ..WorkEstimate::default()
            };
            NodeEstimate::leaf(rows, w, analyzed, cols)
        }
        PhysicalPlan::KeyScan {
            table,
            schema,
            probe,
            fixed,
            ongoing,
        } => {
            // Exact for this version: the visited count comes straight from
            // the store's key maps (base and overlay candidates + pending
            // tail + one lookup per chunk), no histogram needed.
            let visited = table
                .data()
                .qualification_estimate(probe)
                .map(|q| q.keyed as f64)
                .unwrap_or(table.data().len() as f64);
            let (analyzed, cols) = scan_cols(table, schema, visited);
            let cols: Vec<_> = cols.iter().map(|c| c.scaled(visited)).collect();
            let (out_rows, mut w) = filter_work(visited, source(fixed), source(ongoing), &cols);
            w.index_candidates += visited;
            w.tuples_scanned += visited;
            NodeEstimate::leaf(out_rows, w, analyzed, cols)
        }
        PhysicalPlan::Filter {
            input,
            fixed,
            ongoing,
        } => {
            let child = estimate(input);
            let (rows, w) = filter_work(child.rows, source(fixed), source(ongoing), &child.cols);
            let cols = child.cols.iter().map(|c| c.scaled(rows)).collect();
            NodeEstimate::with_children(rows, w, cols, vec![child])
        }
        PhysicalPlan::Project { input, items, .. } => {
            let child = estimate(input);
            let rows = child.rows;
            let cols = items
                .iter()
                .map(|item| match item {
                    ProjItem::Col(i) => child
                        .cols
                        .get(*i)
                        .cloned()
                        .unwrap_or_else(|| ColEstimate::unknown(rows)),
                    ProjItem::Named { .. } => ColEstimate::unknown(rows),
                })
                .collect();
            NodeEstimate::with_children(rows, WorkEstimate::default(), cols, vec![child])
        }
        PhysicalPlan::HashJoin {
            left,
            right,
            keys,
            fixed,
            ongoing,
        } => {
            let (l, r) = (estimate(left), estimate(right));
            let cols = product_cols(&l, &r);
            let (rows, w) = hash_join_work(&l, &r, keys, source(fixed), source(ongoing), &cols);
            let cols = cols.iter().map(|c| c.scaled(rows)).collect();
            NodeEstimate::with_children(rows, w, cols, vec![l, r])
        }
        PhysicalPlan::SweepJoin {
            left,
            right,
            l_col,
            r_col,
            fixed,
            ongoing,
        } => {
            let (l, r) = (estimate(left), estimate(right));
            let cols = product_cols(&l, &r);
            let (rows, w) = sweep_join_work(
                &l,
                &r,
                *l_col,
                *r_col,
                source(fixed),
                source(ongoing),
                &cols,
            );
            let cols = cols.iter().map(|c| c.scaled(rows)).collect();
            NodeEstimate::with_children(rows, w, cols, vec![l, r])
        }
        PhysicalPlan::Union { left, right } => {
            let (l, r) = (estimate(left), estimate(right));
            let rows = l.rows + r.rows;
            let cols = l.cols.iter().map(|c| c.scaled(rows)).collect();
            NodeEstimate::with_children(rows, WorkEstimate::default(), cols, vec![l, r])
        }
        PhysicalPlan::Difference { left, right } => {
            let (l, r) = (estimate(left), estimate(right));
            let rows = l.rows;
            let cols = l.cols.clone();
            NodeEstimate::with_children(rows, WorkEstimate::default(), cols, vec![l, r])
        }
        PhysicalPlan::Aggregate {
            input,
            group_cols,
            aggs,
            ..
        } => {
            let child = estimate(input);
            let groups: f64 = group_cols
                .iter()
                .map(|&c| child.cols.get(c).map(|c| c.distinct).unwrap_or(1.0))
                .product::<f64>()
                .min(child.rows.max(1.0));
            let mut cols: Vec<ColEstimate> = group_cols
                .iter()
                .map(|&c| {
                    child
                        .cols
                        .get(c)
                        .cloned()
                        .unwrap_or_else(|| ColEstimate::unknown(groups))
                        .scaled(groups)
                })
                .collect();
            cols.extend(aggs.iter().map(|_| ColEstimate::unknown(groups)));
            NodeEstimate::with_children(groups, WorkEstimate::default(), cols, vec![child])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Database;
    use crate::plan::{compile, PlannerConfig};
    use crate::queries;
    use ongoing_core::allen::TemporalPredicate;
    use ongoing_core::date::md;
    use ongoing_core::OngoingInterval;
    use ongoing_relation::{OngoingRelation, Schema};

    fn db(n: i64) -> Database {
        let db = Database::new();
        let schema = Schema::builder().int("K").interval("VT").build();
        let mut r = OngoingRelation::new(schema);
        for i in 0..n {
            r.insert(vec![
                Value::Int(i % 7),
                Value::Interval(OngoingInterval::fixed(
                    ongoing_core::TimePoint::new(md(1, 1).ticks() + i),
                    ongoing_core::TimePoint::new(md(1, 1).ticks() + i + 5),
                )),
            ])
            .unwrap();
        }
        db.create_table("T", r).unwrap();
        db
    }

    #[test]
    fn scan_estimate_matches_actual_rows() {
        let d = db(200);
        d.analyze("T").unwrap();
        let plan = crate::QueryBuilder::scan(&d, "T").unwrap().build();
        let phys = compile(&d, &plan, &PlannerConfig::default()).unwrap();
        let est = estimate(&phys);
        assert!(est.analyzed);
        assert_eq!(est.rows, 200.0);
        assert_eq!(est.work.tuples_scanned, 200.0);
        // Distinct count of K flows through.
        assert_eq!(est.cols[0].distinct, 7.0);
    }

    #[test]
    fn unanalyzed_scan_is_flagged() {
        let d = db(50);
        let plan = crate::QueryBuilder::scan(&d, "T").unwrap().build();
        let phys = compile(&d, &plan, &PlannerConfig::default()).unwrap();
        let est = estimate(&phys);
        assert!(!est.analyzed);
        assert_eq!(est.cols[0].distinct, 50.0, "defaults to row count");
    }

    #[test]
    fn equality_selectivity_uses_distinct_counts() {
        let d = db(140);
        d.analyze("T").unwrap();
        let plan = crate::QueryBuilder::scan(&d, "T")
            .unwrap()
            .filter(|s| Ok(Expr::col(s, "K")?.eq(Expr::lit(3i64))))
            .unwrap()
            .build();
        let phys = compile(&d, &plan, &PlannerConfig::default()).unwrap();
        let est = estimate(&phys);
        // 140 rows, 7 distinct keys → ~20 expected.
        assert!((est.rows - 20.0).abs() < 1.0, "{}", est.rows);
    }

    #[test]
    fn selection_estimate_tracks_measured_work() {
        let d = db(400);
        d.analyze("T").unwrap();
        let plan = queries::selection(
            &d,
            "T",
            TemporalPredicate::Overlaps,
            (
                md(1, 1),
                ongoing_core::TimePoint::new(md(1, 1).ticks() + 100),
            ),
        )
        .unwrap();
        let cfg = PlannerConfig::default();
        let phys = compile(&d, &plan, &cfg).unwrap();
        let est = estimate(&phys);
        let (_, actual) = phys.execute_with_stats(&cfg.exec_context()).unwrap();
        let ratio = est.work.total() / actual.total_work() as f64;
        assert!((0.2..5.0).contains(&ratio), "est/actual ratio {ratio}");
    }
}
