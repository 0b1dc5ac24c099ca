//! Physical plans and their two execution modes.
//!
//! A [`PhysicalPlan`] executes either
//!
//! * **ongoing** ([`PhysicalPlan::execute_with_stats`]): the paper's
//!   approach — ongoing attributes stay uninstantiated, predicates evaluate
//!   to ongoing booleans, every operator restricts the result tuples'
//!   reference time (Theorem 2); or
//! * **instantiated** ([`PhysicalPlan::execute_at_with_stats`]): the
//!   Clifford et al. baseline, "instantiate `now` when accessed" — operators
//!   pass the stored tuples, skipping those whose `RT` does not contain the
//!   chosen reference time `rt`; every predicate binds an ongoing operand at
//!   `rt` the moment it reads it ([`Expr::eval_bool_at`]), so it runs on
//!   fixed values with the fixed-interval fast path and no reference-time
//!   bookkeeping happens at all. Rows of fixed values are built only at the
//!   plan root and where a set operator binds its inputs. The result is
//!   only valid at that reference time.
//!
//! Every execution takes its [`ExecContext`] from the caller.
//!
//! Running both modes through the same operator arms is what makes the
//! paper's runtime comparisons (Sec. IX) meaningful: both sides pay for the
//! same scans, joins and projections; the ongoing mode additionally pays for
//! interval-set arithmetic, the baseline instead pays once per re-evaluation.
//! A `SeqScan` is a version fork of its table in both modes, so its traced
//! span reports the version's row count (instantiated, that includes the
//! tuples with `rt ∉ RT` its consumers skip).
//!
//! # Set operators
//!
//! Union, Difference and Aggregate have one arm each for both modes, which
//! at `rt` first binds its input tuples. Theorem 2's `tuple_eq` runs only
//! among tuples equal on the columns fixed in the mode. Ongoing results are
//! `relation::algebra`'s and `aggregate_relation`'s, order and `RT`
//! included; only the `COUNT`/`SUM` arithmetic differs by mode.
//!
//! # Hash join
//!
//! The build side goes into the engine's keyed row table
//! (`exec::keyed::KeyedRows`), which both modes share and the Aggregate
//! uses as its group index. Each build row's key columns are hashed in
//! place by one fixed, unseeded word-at-a-time hasher, and a probe hashes
//! its own key columns the same way and compares them with `Value`'s `==`
//! where they lie: no side builds an owned key. Rows are chained back to
//! front, so a probe meets its matches in build order, exactly as the
//! bucket of a keyed map would list them. Equal hashes of unequal keys
//! cost one key comparison and never reach `join_pair_into`, so a
//! collision costs time but never gives a wrong pair, and results, row
//! order and work units do not depend on the hash. With no keys every
//! build row sits in one chain: the nested loop.
//!
//! # Compiled predicates
//!
//! Every operator predicate — the fixed and ongoing conjuncts of Filter,
//! KeyScan and the two joins' residuals — is compiled once,
//! when [`compile`](crate::plan::compile) builds the plan, into an
//! `Arc`-shared [`Predicate`]: per conjunct a kernel for the shapes the
//! paper's queries use, with the conjunct's [`Expr`] as the fallback, so
//! results and errors are the generic evaluator's. Prepared statements
//! and cached plans reuse the compiled form; execution only bumps its
//! reference count. A join reads each candidate pair in place
//! ([`Pair`]): in ongoing mode it intersects the two `RT`s (skipping an
//! empty intersection), gates on the fixed conjunct and restricts by the
//! ongoing one; at `rt` it gates on both. Only a pair that passes is
//! concatenated.
//!
//! # Morsel-driven parallel execution
//!
//! Both modes run morsel-style on the process-wide
//! [`WorkerPool`](crate::exec::WorkerPool): an [`ExecContext`] carries the
//! parallelism budget and the query's pool session, and one driver,
//! `run_morsels`, splits every operator input into morsels — along the
//! copy-on-write store's natural chunk boundaries
//! ([`OngoingRelation::lazy_views`], each chunk pinned once) for scans and
//! probe/outer join sides, by contiguous index ranges for positional
//! inputs. Each morsel becomes one `'static` task over the `Arc`-shared
//! operator input, submitted to the query's task queue; the shared
//! scheduler dispatches morsels round-robin across concurrent queries and
//! the submitting thread helps drain its own queue, so no operator ever
//! spawns threads of its own. Partial results are merged in morsel
//! (partition) order, so the output — tuple order included — is identical
//! for every pool size. Each morsel accumulates a local [`ExecStats`]
//! that is folded at the merge point; since every work unit is counted
//! exactly once no matter which thread performs it, the totals are
//! deterministic across pool sizes and can replace wall-clock durations
//! in benchmark assertions.

use crate::catalog::Table;
use crate::error::{EngineError, Result};
use crate::exec::keyed::KeyedRows;
use crate::exec::pool::Morsel;
use crate::exec::{ExecContext, ExecStats};
use ongoing_core::allen::TemporalPredicate;
use ongoing_core::{IntervalSet, OngoingBool, OngoingInt, TimePoint};
use ongoing_relation::aggregate::AggFn;
use ongoing_relation::algebra::{self, ProjItem};
use ongoing_relation::value::cmp_values;
use ongoing_relation::{
    Expr, FixedRelation, KeyProbe, OngoingRelation, Pair, PinnedChunk, Predicate, Row, Schema,
    Tuple, Value,
};
use std::cmp::Ordering;
use std::ops::Range;
use std::sync::Arc;

/// Minimum number of per-tuple work items a worker must receive before a
/// partition-parallel operator fans out — below this, thread-spawn overhead
/// dwarfs the work.
const MIN_MORSEL: usize = 256;

/// Minimum number of candidate join pairs per worker for outer-partitioned
/// joins.
const MIN_PAIR_WORK: usize = 4096;

/// A physical operator tree.
#[derive(Debug)]
pub enum PhysicalPlan {
    /// Sequential scan of a base table.
    SeqScan {
        /// The resolved table.
        table: Arc<Table>,
        /// Output schema (possibly re-qualified names).
        schema: Schema,
    },
    /// Key-map pre-filtered scan, lowered exactly when
    /// [`OngoingRelation::key_probe`] picks the keyed path (the decision
    /// the modifier shares): candidates come from the store's per-chunk
    /// key maps via [`OngoingRelation::keyed_rows`]; the exact predicate
    /// is re-checked as residual.
    KeyScan {
        /// The resolved table.
        table: Arc<Table>,
        /// Output schema.
        schema: Schema,
        /// The key condition driving the index lookup (a necessary
        /// condition of the residual predicate).
        probe: KeyProbe,
        /// Exact predicate re-checked per candidate (fixed part).
        fixed: Option<Arc<Predicate>>,
        /// Exact predicate re-checked per candidate (ongoing part).
        ongoing: Option<Arc<Predicate>>,
    },
    /// Filter with the paper's fixed/ongoing predicate split.
    Filter {
        /// Input operator.
        input: Box<PhysicalPlan>,
        /// Conjunct over fixed attributes (plain boolean gate).
        fixed: Option<Arc<Predicate>>,
        /// Conjunct over ongoing attributes (restricts `RT`).
        ongoing: Option<Arc<Predicate>>,
    },
    /// Projection.
    Project {
        /// Input operator.
        input: Box<PhysicalPlan>,
        /// Output columns.
        items: Vec<ProjItem>,
        /// Output schema.
        schema: Schema,
    },
    /// Hash join on fixed-attribute equality keys, with residual conjuncts.
    /// The build (right) side is collected once into a keyed row table, in
    /// both modes: key columns are hashed and compared in place, and each
    /// probe row meets its equal-key build rows in build order (see the
    /// [module docs](self#hash-join)); probe partitions run concurrently.
    /// On no keys it is the nested-loop join — one chain holding every
    /// build row, every probe row paired with all of it — and renders as
    /// `NestedLoopJoin`.
    HashJoin {
        /// Left (probe) input.
        left: Box<PhysicalPlan>,
        /// Right (build) input.
        right: Box<PhysicalPlan>,
        /// `(left column, right column)` equality key pairs.
        keys: Vec<(usize, usize)>,
        /// Fixed residual conjunct.
        fixed: Option<Arc<Predicate>>,
        /// Ongoing residual conjunct.
        ongoing: Option<Arc<Predicate>>,
    },
    /// Sort-merge interval join: a forward-scan plane sweep over the
    /// instantiation envelopes of two interval columns, with the exact
    /// predicate as residual. Parallel workers sweep contiguous slices of
    /// the left envelope list against the full right list and emit
    /// candidates in canonical `(left, right)` envelope order.
    SweepJoin {
        /// Left input.
        left: Box<PhysicalPlan>,
        /// Right input.
        right: Box<PhysicalPlan>,
        /// Left interval column.
        l_col: usize,
        /// Right interval column (right-local index).
        r_col: usize,
        /// Fixed residual conjunct (includes the driving temporal conjunct
        /// when inputs are fixed).
        fixed: Option<Arc<Predicate>>,
        /// Ongoing residual conjunct.
        ongoing: Option<Arc<Predicate>>,
    },
    /// Union (coalescing set union).
    Union {
        /// Left input.
        left: Box<PhysicalPlan>,
        /// Right input.
        right: Box<PhysicalPlan>,
    },
    /// Difference (Theorem 2 semantics).
    Difference {
        /// Left input.
        left: Box<PhysicalPlan>,
        /// Right input.
        right: Box<PhysicalPlan>,
    },
    /// Grouped aggregation into ongoing integers.
    Aggregate {
        /// Input operator.
        input: Box<PhysicalPlan>,
        /// Group-by columns.
        group_cols: Vec<usize>,
        /// Aggregate functions.
        aggs: Vec<AggFn>,
        /// Output schema.
        schema: Schema,
    },
}

impl PhysicalPlan {
    /// The output schema.
    pub fn schema(&self) -> Schema {
        match self {
            PhysicalPlan::SeqScan { schema, .. }
            | PhysicalPlan::KeyScan { schema, .. }
            | PhysicalPlan::Project { schema, .. }
            | PhysicalPlan::Aggregate { schema, .. } => schema.clone(),
            PhysicalPlan::Filter { input, .. } => input.schema(),
            PhysicalPlan::HashJoin { left, right, .. }
            | PhysicalPlan::SweepJoin { left, right, .. } => left.schema().product(&right.schema()),
            PhysicalPlan::Union { left, .. } | PhysicalPlan::Difference { left, .. } => {
                left.schema()
            }
        }
    }

    /// The `EXPLAIN` rendering: one operator per line, each with the cost
    /// model's estimates (`est rows≈…  self work≈…`) from the catalog
    /// statistics of the scanned tables (defaults when un-analyzed).
    pub fn explain(&self) -> String {
        let est = crate::stats::cost::estimate(self);
        crate::obs::trace::render_tree(self, &est, None)
    }

    /// The full `EXPLAIN ANALYZE` rendering: per-operator estimated rows
    /// and work next to the *measured* span (actual rows, deterministic
    /// work units, wall ns), plus the measured-vs-estimated trailer.
    /// `span` must come from executing this plan with a
    /// [`TraceCollector`](crate::obs::TraceCollector) attached. Shares its
    /// renderer with [`explain`](Self::explain), so the layouts cannot
    /// drift.
    pub fn explain_analyzed(&self, span: &crate::obs::SpanNode) -> String {
        let est = crate::stats::cost::estimate(self);
        let tree = crate::obs::trace::render_tree(self, &est, Some(span));
        format!(
            "{tree}{}",
            crate::obs::trace::render_summary(&span.total_work, &est.work)
        )
    }

    /// The operator's children in `explain` order.
    pub(crate) fn inputs(&self) -> Vec<&PhysicalPlan> {
        match self {
            PhysicalPlan::SeqScan { .. } | PhysicalPlan::KeyScan { .. } => Vec::new(),
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::Aggregate { input, .. } => vec![input],
            PhysicalPlan::HashJoin { left, right, .. }
            | PhysicalPlan::SweepJoin { left, right, .. }
            | PhysicalPlan::Union { left, right }
            | PhysicalPlan::Difference { left, right } => vec![left, right],
        }
    }

    /// One-line rendering of this operator (no indentation, no children).
    pub(crate) fn node_line(&self) -> String {
        let preds = |fixed: &Option<Arc<Predicate>>, ongoing: &Option<Arc<Predicate>>| {
            let mut s = String::new();
            if let Some(f) = fixed {
                s.push_str(&format!(" fixed: {f}"));
            }
            if let Some(o) = ongoing {
                s.push_str(&format!(" ongoing: {o}"));
            }
            s
        };
        match self {
            PhysicalPlan::SeqScan { table, .. } => format!("SeqScan {}", table.name()),
            PhysicalPlan::KeyScan {
                table,
                probe,
                fixed,
                ongoing,
                ..
            } => format!(
                "KeyScan {} {}{}",
                table.name(),
                probe_line(probe),
                preds(fixed, ongoing)
            ),
            PhysicalPlan::Filter { fixed, ongoing, .. } => {
                format!("Filter{}", preds(fixed, ongoing))
            }
            PhysicalPlan::Project { items, .. } => format!("Project [{} cols]", items.len()),
            PhysicalPlan::HashJoin {
                keys,
                fixed,
                ongoing,
                ..
            } => {
                // The keyless hash join keeps the nested loop's label: it
                // is the EXPLAIN line, the span label per-operator timings
                // key on and part of the result-cache fingerprint.
                let op = if keys.is_empty() {
                    "NestedLoopJoin".to_string()
                } else {
                    format!("HashJoin on {keys:?}")
                };
                format!("{op}{}", preds(fixed, ongoing))
            }
            PhysicalPlan::SweepJoin {
                l_col,
                r_col,
                fixed,
                ongoing,
                ..
            } => format!(
                "SweepJoin envelopes #{l_col} x #{r_col}{}",
                preds(fixed, ongoing)
            ),
            PhysicalPlan::Union { .. } => "Union".to_string(),
            PhysicalPlan::Difference { .. } => "Difference".to_string(),
            PhysicalPlan::Aggregate {
                group_cols, aggs, ..
            } => format!("Aggregate group by {group_cols:?} [{} aggs]", aggs.len()),
        }
    }

    // ------------------------------------------------------------------
    // Execution: one operator tree, two modes (see `Mode`).
    // ------------------------------------------------------------------

    /// Executes in ongoing mode, returning the result — an ongoing
    /// relation that remains valid as time passes by — together with the
    /// deterministic work-unit accounting of the run.
    pub fn execute_with_stats(&self, ctx: &ExecContext) -> Result<(OngoingRelation, ExecStats)> {
        let mut stats = ExecStats::default();
        let rel = self.run(Mode::Ongoing, ctx, &mut stats)?;
        Ok((rel, stats))
    }

    /// Executes in instantiated mode at reference time `rt` — Clifford's
    /// "instantiate `now` when accessed": operators pass stored tuples,
    /// every predicate binds an ongoing operand at `rt` the moment it
    /// reads it, and rows of fixed values are built only at the plan root
    /// and where a set operator binds its inputs. The result is valid only
    /// at `rt`. Returns the canonical (sorted, deduplicated) relation and
    /// the work-unit accounting (`intervals_merged` stays 0). `rt = ∞` is
    /// [`EngineError::InfiniteReferenceTime`]: no tuple's `RT` contains it.
    pub fn execute_at_with_stats(
        &self,
        rt: TimePoint,
        ctx: &ExecContext,
    ) -> Result<(FixedRelation, ExecStats)> {
        let (rows, stats) = self.rows_at_with_stats(rt, ctx)?;
        Ok((FixedRelation::from_rows(rows), stats))
    }

    /// Instantiated execution returning the raw row bag in execution
    /// order — before [`FixedRelation`] sorts and deduplicates it — plus
    /// work-unit accounting. Union and Aggregate deduplicate their bound
    /// rows, and an Aggregate's groups follow input order, not sorted
    /// order. Rejects `rt = ∞` like [`execute_at_with_stats`](Self::execute_at_with_stats).
    pub fn rows_at_with_stats(
        &self,
        rt: TimePoint,
        ctx: &ExecContext,
    ) -> Result<(Vec<Vec<Value>>, ExecStats)> {
        if rt.is_pos_inf() {
            return Err(EngineError::InfiniteReferenceTime);
        }
        let (mut stats, mode) = (ExecStats::default(), Mode::At(rt));
        // The root builds the rows: a projection binds its items straight
        // into them, any other operator's tuples are bound whole.
        let rows = self.traced(ctx, &mut stats, Vec::len, |stats| {
            let (rel, proj) = match self {
                PhysicalPlan::Project { input, items, .. } => {
                    (input.run(mode, ctx, stats)?, Projector::new(items))
                }
                _ => {
                    let rel = self.run_impl(mode, ctx, stats)?;
                    let all = Projector::Columns((0..rel.schema().len()).collect());
                    (rel, all)
                }
            };
            let input = Chunks::new(rel, move |pinned, out, _| {
                for t in pinned.iter().filter(|t| mode.keeps(t)) {
                    out.push(proj.row(t, mode)?);
                }
                Ok(())
            });
            run_morsels(ctx, input, MIN_MORSEL, stats)
        })?;
        Ok((rows, stats))
    }

    /// Runs `body` — this operator's execution — as a span of the
    /// context's tracer, if it has one.
    fn traced<T>(
        &self,
        ctx: &ExecContext,
        stats: &mut ExecStats,
        rows: fn(&T) -> usize,
        body: impl FnOnce(&mut ExecStats) -> Result<T>,
    ) -> Result<T> {
        let Some(tracer) = ctx.trace.clone() else {
            return body(stats);
        };
        // Traced execution: bracket the operator with an accumulator
        // snapshot and a child frame. The subtree's work is the
        // accumulator delta; the operator's own work is that delta minus
        // the children's deltas — all deterministic counters, so span work
        // units are bit-identical at every thread count. Wall time is
        // informational only.
        let before = *stats;
        let start = std::time::Instant::now();
        tracer.open_frame();
        let result = body(stats);
        let children = tracer.close_frame();
        let out = result?;
        let total_work = stats.diff(&before);
        let mut child_work = ExecStats::default();
        for c in &children {
            child_work += &c.total_work;
        }
        tracer.record(crate::obs::SpanNode {
            label: self.node_line(),
            rows: rows(&out) as u64,
            self_work: total_work.diff(&child_work),
            total_work,
            wall_ns: start.elapsed().as_nanos() as u64,
            children,
        });
        Ok(out)
    }

    /// The operator's output tuples in `mode` (a traced span when tracing).
    fn run(&self, mode: Mode, ctx: &ExecContext, stats: &mut ExecStats) -> Result<OngoingRelation> {
        self.traced(ctx, stats, OngoingRelation::len, |stats| {
            self.run_impl(mode, ctx, stats)
        })
    }

    fn run_impl(
        &self,
        mode: Mode,
        ctx: &ExecContext,
        stats: &mut ExecStats,
    ) -> Result<OngoingRelation> {
        match self {
            PhysicalPlan::SeqScan { table, schema } => {
                stats.tuples_scanned += table.data().len() as u64;
                // A version fork: every sealed chunk is shared, so this is
                // O(#chunks) reference bumps, not a row copy. Instantiated,
                // it still holds the tuples with `rt ∉ RT`; every consumer
                // skips them.
                Ok(table.data().clone().with_schema(schema.clone())?)
            }
            PhysicalPlan::KeyScan {
                table,
                schema,
                probe,
                fixed,
                ongoing,
            } => {
                // Reads the published version in place: the lookup pins
                // one chunk at a time, so nothing it loads outlives it.
                let (rows, visited) = table.data().keyed_rows(probe)?;
                stats.index_candidates += visited;
                stats.tuples_scanned += visited;
                let (fixed, ongoing) = (fixed.clone(), ongoing.clone());
                let input = Positions {
                    len: rows.len(),
                    job: move |r: Range<usize>, out: &mut Vec<Tuple>, local: &mut ExecStats| {
                        // Every candidate is examined (and counted), alive
                        // at `rt` or not.
                        let (f, o) = (fixed.as_deref(), ongoing.as_deref());
                        for t in &rows[r] {
                            local.tuples_filtered += 1;
                            if mode.keeps(t) {
                                filter_into(out, t, f, o, mode, local)?;
                            }
                        }
                        Ok(())
                    },
                };
                let tuples = run_morsels(ctx, input, MIN_MORSEL, stats)?;
                Ok(assemble_tuples(schema.clone(), tuples))
            }
            PhysicalPlan::Filter {
                input,
                fixed,
                ongoing,
            } => {
                let rel = input.run(mode, ctx, stats)?;
                let schema = rel.schema().clone();
                // Morsels follow the store's chunk boundaries; surviving
                // tuples are shallow-cloned (payloads are `Arc`-shared).
                // Chunks are pinned one at a time, so a filter over a
                // beyond-RAM table keeps at most one cold chunk per
                // in-flight morsel resident.
                let (fixed, ongoing) = (fixed.clone(), ongoing.clone());
                let input = Chunks::new(rel, move |pinned, out, local| {
                    for t in pinned.iter().filter(|t| mode.keeps(t)) {
                        local.tuples_filtered += 1;
                        filter_into(out, t, fixed.as_deref(), ongoing.as_deref(), mode, local)?;
                    }
                    Ok(())
                });
                let tuples = run_morsels(ctx, input, MIN_MORSEL, stats)?;
                Ok(assemble_tuples(schema, tuples))
            }
            PhysicalPlan::Project {
                input,
                items,
                schema,
            } => {
                let rel = input.run(mode, ctx, stats)?;
                let proj = Projector::new(items);
                let input = Chunks::new(rel, move |pinned, out, _| {
                    for t in pinned.iter().filter(|t| mode.keeps(t)) {
                        let values: Arc<[Value]> = proj.row(t, mode)?;
                        out.push(Tuple::with_rt(values, t.rt().clone()));
                    }
                    Ok(())
                });
                let tuples = run_morsels(ctx, input, MIN_MORSEL, stats)?;
                Ok(assemble_tuples(schema.clone(), tuples))
            }
            PhysicalPlan::HashJoin {
                left,
                right,
                keys,
                fixed,
                ongoing,
            } => {
                let l = left.run(mode, ctx, stats)?;
                let r = right.run(mode, ctx, stats)?;
                let schema = l.schema().product(r.schema());
                // Build once on the right side into owned rows (shallow
                // clones; payloads are `Arc`-shared) chained by key hash,
                // so the probe morsels can share the table without
                // borrows; the probe side streams through lazy per-chunk
                // pins, so only the smaller side should be the build side.
                // Keys are fixed-type columns (the optimizer keys on nothing
                // else), so a stored key is its own instantiation.
                let rows = collect_pinned(&r, mode, Tuple::clone)?;
                let (l_cols, r_cols): (Vec<_>, _) = keys.iter().copied().unzip();
                let table = KeyedRows::build(rows, r_cols);
                // Keyless, every probe row meets the whole build side.
                let min_chunk = if keys.is_empty() {
                    outer_min_chunk(table.rows().len())
                } else {
                    MIN_MORSEL
                };
                let (fixed, ongoing) = (fixed.clone(), ongoing.clone());
                let input = Chunks::new(l, move |pinned, out, local| {
                    let (f, o) = (fixed.as_deref(), ongoing.as_deref());
                    for lt in pinned.iter().filter(|t| mode.keeps(t)) {
                        for ri in table.matches(lt.values(), &l_cols) {
                            join_pair_into(out, lt, &table.rows()[ri], f, o, mode, local)?;
                        }
                    }
                    Ok(())
                });
                let tuples = run_morsels(ctx, input, min_chunk, stats)?;
                Ok(assemble_tuples(schema, tuples))
            }
            PhysicalPlan::SweepJoin {
                left,
                right,
                l_col,
                r_col,
                fixed,
                ongoing,
            } => {
                let l = left.run(mode, ctx, stats)?;
                let r = right.run(mode, ctx, stats)?;
                let schema = l.schema().product(r.schema());
                // Both sides materialize as owned shallow clones so the
                // sweep morsels can share rows and envelope lists.
                let l_rows = collect_pinned(&l, mode, Tuple::clone)?;
                let r_rows = collect_pinned(&r, mode, Tuple::clone)?;
                let le = envelopes(&l_rows, *l_col, mode)?;
                let re = envelopes(&r_rows, *r_col, mode)?;
                let min_chunk = sweep_min_chunk(re.len(), ctx.parallelism);
                let (fixed, ongoing) = (fixed.clone(), ongoing.clone());
                let input = Positions {
                    len: le.len(),
                    job: move |r: Range<usize>, out: &mut Vec<Tuple>, local: &mut ExecStats| {
                        let mut pairs = Vec::new();
                        sweep_positions(&le, r, &re, &mut pairs);
                        pairs.sort_unstable();
                        let (f, o) = (fixed.as_deref(), ongoing.as_deref());
                        for &(lp, rp) in &pairs {
                            let (lt, rt_) = (&l_rows[le[lp].2], &r_rows[re[rp].2]);
                            join_pair_into(out, lt, rt_, f, o, mode, local)?;
                        }
                        Ok(())
                    },
                };
                let tuples = run_morsels(ctx, input, min_chunk, stats)?;
                Ok(assemble_tuples(schema, tuples))
            }
            PhysicalPlan::Union { left, right } => {
                let l = left.run(mode, ctx, stats)?;
                let mut tuples = set_input(&l, mode)?;
                tuples.extend(set_input(&right.run(mode, ctx, stats)?, mode)?);
                Ok(assemble_tuples(l.schema().clone(), coalesce(tuples)))
            }
            PhysicalPlan::Difference { left, right } => {
                let l = left.run(mode, ctx, stats)?;
                let r = right.run(mode, ctx, stats)?;
                // `S` first: an `L` tuple meets the `S` tuples of its bucket.
                let mut all = set_input(&r, mode)?;
                let split = all.len();
                all.extend(set_input(&l, mode)?);
                let compared = |i, j| j < split && split <= i;
                let kept = dedup(&all, l.schema(), mode, compared, stats);
                let out = all
                    .iter()
                    .zip(kept)
                    .skip(split)
                    .filter(|(_, rt)| !rt.is_empty())
                    .map(|(t, rt)| t.restricted(rt))
                    .collect();
                Ok(assemble_tuples(l.schema().clone(), out))
            }
            PhysicalPlan::Aggregate {
                input,
                group_cols,
                aggs,
                schema,
            } => {
                let rel = input.run(mode, ctx, stats)?;
                // Set semantics: identical rows coalesce, and a member
                // counts only where no earlier member of its bucket
                // instantiates equal while alive. Group columns are
                // fixed-typed (the plan builder rejects others), so a
                // bucket lies within one group.
                let members = coalesce(set_input(&rel, mode)?);
                let counted = dedup(&members, rel.schema(), mode, |_, _| true, stats);
                // A group is its first member: the first equal row of the
                // member's chain. Groups follow first-seen order.
                let index = KeyedRows::build(members, group_cols.clone());
                let members = index.rows();
                let mut group_of = vec![usize::MAX; members.len()];
                let mut groups: Vec<Vec<usize>> = Vec::new();
                for (i, t) in members.iter().enumerate() {
                    // A member matches its own key, so `i` is never used.
                    let first = index.matches(t.values(), group_cols).next().unwrap_or(i);
                    if first == i {
                        group_of[i] = groups.len();
                        groups.push(Vec::new());
                    }
                    groups[group_of[first]].push(i);
                }
                let out = groups.iter().map(|g| {
                    let key = group_cols.iter().map(|&c| members[g[0]].value(c).clone());
                    let parts = || g.iter().map(|&i| (members[i].values(), &counted[i]));
                    let values = aggs.iter().map(|a| aggregate(a, parts(), mode));
                    // The group exists where any member is alive.
                    let rt = g
                        .iter()
                        .fold(IntervalSet::empty(), |acc, &i| acc.union(members[i].rt()));
                    Tuple::with_rt(key.chain(values).collect::<Arc<[Value]>>(), rt)
                });
                Ok(assemble_tuples(schema.clone(), out.collect()))
            }
        }
    }
}

// ----------------------------------------------------------------------
// Morsel-parallel infrastructure (all fan-out flows through the shared
// worker pool; no operator spawns threads).
// ----------------------------------------------------------------------

/// Morsels per unit of parallelism. Splitting finer than the worker count
/// lets the shared scheduler interleave concurrent queries below operator
/// granularity (a short query's single morsel slots in between a long
/// query's morsels) and evens out skew; the morsel count only shapes who
/// executes what, never the merged result.
const MORSELS_PER_WORKER: usize = 4;

/// Number of morsels for `len` items with at least `min_chunk` items per
/// morsel. `parallelism <= 1` stays at one morsel (inline execution);
/// never 0.
fn morsel_count(parallelism: usize, len: usize, min_chunk: usize) -> usize {
    if len == 0 || parallelism <= 1 {
        return 1;
    }
    (parallelism * MORSELS_PER_WORKER).clamp(1, len.div_ceil(min_chunk.max(1)))
}

/// Contiguous, deterministic morsel bounds covering `0..len` (sizes differ
/// by at most one; earlier morsels take the remainder).
fn chunk_bounds(len: usize, morsels: usize) -> Vec<Range<usize>> {
    let base = len / morsels;
    let rem = len % morsels;
    let mut bounds = Vec::with_capacity(morsels);
    let mut start = 0usize;
    for m in 0..morsels {
        let size = base + usize::from(m < rem);
        bounds.push(start..start + size);
        start += size;
    }
    bounds
}

/// Outer-side chunk floor for pair-at-a-time joins: enough outer tuples
/// that each worker sees at least [`MIN_PAIR_WORK`] candidate pairs.
fn outer_min_chunk(inner_len: usize) -> usize {
    (MIN_PAIR_WORK / inner_len.max(1)).max(1)
}

/// Left-side chunk floor for the sweep join. Every worker merge-scans the
/// full right envelope list, so fanning out costs `workers × |right|`
/// redundant advances; requiring at least `|right| / parallelism` left
/// envelopes per chunk keeps that overhead proportional to the left-side
/// work a chunk actually carries (a tiny left side against a huge right
/// side stays serial).
fn sweep_min_chunk(right_len: usize, parallelism: usize) -> usize {
    (right_len / parallelism.max(1)).max(MIN_MORSEL)
}

/// One morsel's output and work.
type Part<T> = (Vec<T>, ExecStats);

/// An operator input as [`run_morsels`] splits it. Two adapters implement
/// it, [`Positions`] and [`Chunks`]; each only computes its morsel ranges
/// and what one morsel's job reads.
trait MorselInput<T> {
    /// Work items, which size the morsel count.
    fn items(&self) -> usize;
    /// Contiguous ranges for `morsels` (> 1) morsels, in input order.
    fn ranges(&self, morsels: usize) -> Vec<Range<usize>>;
    /// Runs the job over range `r` (`None`: the whole input) into `part`.
    fn run(&self, r: Option<Range<usize>>, part: &mut Part<T>) -> Result<()>;
}

/// The morsel driver every operator fans out through. One morsel runs
/// inline on the calling thread over the borrowed input. Several become
/// `'static` jobs over the `Arc`-shared input on the shared worker pool;
/// their outputs come back *in morsel order*, so concatenating them
/// reproduces the serial output exactly, and folding the per-morsel
/// [`ExecStats`] reproduces the serial counts exactly.
fn run_morsels<T: Send + 'static>(
    ctx: &ExecContext,
    input: impl MorselInput<T> + Send + Sync + 'static,
    min_chunk: usize,
    stats: &mut ExecStats,
) -> Result<Vec<T>> {
    let morsels = morsel_count(ctx.parallelism, input.items(), min_chunk);
    let ranges = if morsels > 1 {
        input.ranges(morsels)
    } else {
        Vec::new()
    };
    if ranges.len() <= 1 {
        let mut part = (Vec::new(), ExecStats::default());
        input.run(None, &mut part)?;
        stats.merge(&part.1);
        return Ok(part.0);
    }
    let input = Arc::new(input);
    let jobs: Vec<_> = ranges
        .into_iter()
        .map(|range| {
            let input = Arc::clone(&input);
            Box::new(move || {
                let mut part = (Vec::new(), ExecStats::default());
                input.run(Some(range), &mut part)?;
                Ok(part)
            }) as Morsel<Part<T>>
        })
        .collect();
    let parts = ctx.session.run_morsels(ctx.parallelism, jobs)?;
    let mut out = Vec::with_capacity(parts.iter().map(|(p, _)| p.len()).sum());
    for (part, local) in parts {
        stats.merge(&local);
        out.extend(part);
    }
    Ok(out)
}

/// Positional input: `len` items (key-scan candidates) that `job` reads
/// by contiguous index range.
struct Positions<F> {
    len: usize,
    job: F,
}

impl<T, F> MorselInput<T> for Positions<F>
where
    F: Fn(Range<usize>, &mut Vec<T>, &mut ExecStats) -> Result<()>,
{
    fn items(&self) -> usize {
        self.len
    }

    fn ranges(&self, morsels: usize) -> Vec<Range<usize>> {
        chunk_bounds(self.len, morsels)
    }

    fn run(&self, r: Option<Range<usize>>, part: &mut Part<T>) -> Result<()> {
        (self.job)(r.unwrap_or(0..self.len), &mut part.0, &mut part.1)
    }
}

/// Chunk input: a relation's *lazy* chunk views in contiguous runs
/// balanced by live rows (partitioning metadata is free — no page-in). A
/// job walks its run **one pinned chunk at a time**, handing `body` each
/// pin: a cold chunk is paged in only while its morsel processes it and
/// released right after, so a scan of a table N× the memory budget keeps
/// at most one chunk per in-flight morsel resident beyond the cache. A
/// view with no live rows is not pinned. Jobs re-derive the (cheap, metadata-only) views from the
/// same immutable version, so every run's views are the submitter's.
struct Chunks<F> {
    rel: OngoingRelation,
    body: F,
}

impl<F> Chunks<F> {
    fn new<T>(rel: OngoingRelation, body: F) -> Self
    where
        F: Fn(&PinnedChunk<'_>, &mut Vec<T>, &mut ExecStats) -> Result<()>,
    {
        Chunks { rel, body }
    }
}

impl<T, F> MorselInput<T> for Chunks<F>
where
    F: Fn(&PinnedChunk<'_>, &mut Vec<T>, &mut ExecStats) -> Result<()>,
{
    fn items(&self) -> usize {
        self.rel.len()
    }

    /// Greedy split into contiguous view ranges of about equal live rows.
    fn ranges(&self, morsels: usize) -> Vec<Range<usize>> {
        let views = self.rel.lazy_views();
        let target = self.items().div_ceil(morsels);
        let mut ranges: Vec<Range<usize>> = Vec::with_capacity(morsels);
        let (mut start, mut acc) = (0usize, 0usize);
        for (i, v) in views.iter().enumerate() {
            acc += v.len();
            if acc >= target && ranges.len() + 1 < morsels {
                ranges.push(start..i + 1);
                start = i + 1;
                acc = 0;
            }
        }
        if start < views.len() {
            ranges.push(start..views.len());
        }
        ranges
    }

    fn run(&self, r: Option<Range<usize>>, part: &mut Part<T>) -> Result<()> {
        let views = self.rel.lazy_views();
        let r = r.unwrap_or(0..views.len());
        for v in &views[r] {
            if !v.is_empty() {
                (self.body)(&v.pin()?, &mut part.0, &mut part.1)?;
            }
        }
        Ok(())
    }
}

/// One-line rendering of a key probe for EXPLAIN output.
fn probe_line(probe: &KeyProbe) -> String {
    match probe {
        KeyProbe::Eq { col, key } => format!("col #{col} = {key}"),
        KeyProbe::Range { col, lo, hi } => format!("col #{col} in ({lo:?}, {hi:?})"),
    }
}

/// The operator's output relation from its concatenated morsel outputs.
fn assemble_tuples(schema: Schema, tuples: Vec<Tuple>) -> OngoingRelation {
    OngoingRelation::from_tuples(schema, tuples).expect("morsel outputs match the operator schema")
}

/// The tuples of `rel` that take part in `mode`, each through `each` —
/// how an operator materializes an input it indexes or revisits (a join
/// side, a set operator's inputs). Reads through lazy per-chunk pins like
/// the morsel driver, never the park-on-touch [`OngoingRelation::iter`],
/// so a cold input pages in one chunk at a time within the cache budget
/// and a pager failure is an error.
fn collect_pinned<T>(
    rel: &OngoingRelation,
    mode: Mode,
    each: impl Fn(&Tuple) -> T,
) -> Result<Vec<T>> {
    let mut out = Vec::with_capacity(rel.len());
    for view in rel.lazy_views() {
        out.extend(view.pin()?.iter().filter(|t| mode.keeps(t)).map(&each));
    }
    Ok(out)
}

/// A set operator's input: at `rt`, each tuple bound into a base tuple of
/// fixed values (sharing them if they are all fixed already).
fn set_input(rel: &OngoingRelation, mode: Mode) -> Result<Vec<Tuple>> {
    let fixed = |v: &Value| !matches!(v, Value::Point(_) | Value::Interval(_) | Value::Count(_));
    collect_pinned(rel, mode, |t| match mode {
        Mode::At(_) if t.values().iter().all(fixed) => t.restricted(IntervalSet::full()),
        Mode::At(rt) => Tuple::base(t.values().iter().map(|v| v.bind(rt)).collect::<Arc<_>>()),
        Mode::Ongoing => t.clone(),
    })
}

/// Calls `f` with each run of positions of `tuples` equal at `cols`, a
/// run's positions ascending. Runs come from a sort, whose comparisons
/// stop at the first differing column; a hash would read every byte of a
/// long string.
fn for_each_run(tuples: &[Tuple], cols: &[usize], f: impl FnMut(&[usize])) {
    let cmp = |&a: &usize, &b: &usize| {
        let (a, b) = (tuples[a].values(), tuples[b].values());
        let mut c = cols.iter().map(|&c| cmp_values(&a[c], &b[c]));
        c.find(|o| o.is_ne()).unwrap_or(Ordering::Equal)
    };
    let mut order: Vec<usize> = (0..tuples.len()).collect();
    order.sort_unstable_by(|a, b| cmp(a, b).then(a.cmp(b)));
    order.chunk_by(|a, b| cmp(a, b).is_eq()).for_each(f);
}

/// Tuples with identical values merged into their first occurrence, their
/// `RT`s unioned in input order.
fn coalesce(tuples: Vec<Tuple>) -> Vec<Tuple> {
    let all: Vec<usize> = (0..tuples.first().map_or(0, Tuple::arity)).collect();
    let mut out = Vec::with_capacity(tuples.len());
    for_each_run(&tuples, &all, |run| {
        let rt = |acc: IntervalSet, &i: &usize| acc.union(tuples[i].rt());
        let rt = run[1..].iter().fold(tuples[run[0]].rt().clone(), rt);
        out.push((run[0], tuples[run[0]].restricted(rt)));
    });
    out.sort_unstable_by_key(|&(i, _)| i);
    out.into_iter().map(|(_, t)| t).collect()
}

/// Per tuple `i`, Theorem 2's `t.RT ∧ ¬⋁ₛ(tuple_eq(t, s) ∧ s.RT)` over the
/// earlier tuples `j` of its bucket that `compared(i, j)` admits, one
/// `pairs_compared` per `tuple_eq`. A bucket shares the columns fixed in
/// `mode` (fixed-typed ones ongoing, like hash join keys; all at `rt`):
/// tuples whose fixed columns differ are equal at no reference time.
fn dedup(
    tuples: &[Tuple],
    schema: &Schema,
    mode: Mode,
    compared: impl Fn(usize, usize) -> bool,
    stats: &mut ExecStats,
) -> Vec<IntervalSet> {
    let fixed = |c: &usize| matches!(mode, Mode::At(_)) || !schema.attrs()[*c].ty.is_ongoing();
    let cols: Vec<usize> = (0..schema.len()).filter(fixed).collect();
    let mut out = vec![IntervalSet::empty(); tuples.len()];
    for_each_run(tuples, &cols, |bucket| {
        for (k, &i) in bucket.iter().enumerate() {
            let (t, mut removed) = (&tuples[i], OngoingBool::always_false());
            let candidates = bucket[..k].iter().filter(|&&j| compared(i, j));
            for s in candidates.map(|&j| &tuples[j]) {
                if removed.is_always_true() {
                    break;
                }
                stats.pairs_compared += 1;
                let eq = algebra::tuple_eq(t.values(), s.values());
                if !eq.is_always_false() {
                    removed = removed.or(&eq.and(&OngoingBool::from_set(s.rt().clone())));
                }
            }
            out[i] = match removed.is_always_false() {
                true => t.rt().clone(),
                false => t.rt().intersect(&removed.not().into_true_set()),
            };
        }
    });
    out
}

/// One `COUNT(*)` or `SUM` over a group's members, each with the times it
/// counts at — the one arithmetic that differs by mode: an ongoing integer
/// ongoing; at `rt`, an exact `i128` clamped once like the ongoing sum.
fn aggregate<'a>(
    agg: &AggFn,
    members: impl Iterator<Item = (&'a [Value], &'a IntervalSet)>,
    mode: Mode,
) -> Value {
    let weighted = members.map(|(values, rt)| match agg {
        AggFn::CountStar => (1, rt),
        AggFn::SumInt(col) => (values[*col].as_int().unwrap_or(0), rt),
    });
    match mode {
        Mode::Ongoing => Value::Count(weighted.fold(OngoingInt::constant(0), |acc, (w, rt)| {
            acc.add(&OngoingInt::indicator(rt).scale(w))
        })),
        Mode::At(at) => {
            let sum: i128 = weighted
                .filter(|(_, rt)| rt.contains(at))
                .map(|(w, _)| i128::from(w))
                .sum();
            Value::Int(sum.clamp(i64::MIN.into(), i64::MAX.into()) as i64)
        }
    }
}

// ----------------------------------------------------------------------
// Shared helpers.
// ----------------------------------------------------------------------

/// The two modes one operator tree executes in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// The paper's approach: predicates evaluate to ongoing booleans that
    /// restrict `RT`.
    Ongoing,
    /// Clifford's instantiation at a reference time: tuples with
    /// `rt ∉ RT` are skipped, predicates read ongoing operands bound at
    /// `rt`.
    At(TimePoint),
}

impl Mode {
    /// Does the tuple take part in this mode's evaluation? Every tuple
    /// does in ongoing mode; at `rt`, only those with `rt ∈ RT`.
    #[inline]
    fn keeps(self, t: &Tuple) -> bool {
        match self {
            Mode::Ongoing => true,
            Mode::At(rt) => t.alive_at(rt),
        }
    }
}

/// Does `pred` (absent: true) hold on `row` instantiated at `rt`?
fn holds_at<R: Row + ?Sized>(pred: Option<&Predicate>, row: &R, rt: TimePoint) -> Result<bool> {
    match pred {
        Some(p) => Ok(p.eval_bool_at(row, rt)?),
        None => Ok(true),
    }
}

/// What the ongoing conjunct leaves of a row's `RT`.
enum Restriction {
    /// Nothing: the row is dropped.
    Empty,
    /// All of it: the conjunct is true at every reference time.
    Whole,
    /// The nonempty part where the conjunct holds.
    Part(IntervalSet),
}

/// `rt` restricted by the ongoing conjunct's value on `row`, counting its
/// two merges (the true-set construction and the restriction). A conjunct
/// true at every reference time leaves `rt` as it is, without a set
/// operation or a copy.
fn restrict<R: Row + ?Sized>(
    ongoing: &Predicate,
    row: &R,
    rt: &IntervalSet,
    stats: &mut ExecStats,
) -> Result<Restriction> {
    let theta = ongoing.eval_predicate(row)?;
    stats.intervals_merged += 2;
    if theta.is_always_true() {
        return Ok(if rt.is_empty() {
            Restriction::Empty
        } else {
            Restriction::Whole
        });
    }
    // In place, reusing the true-set's allocation.
    let mut part = theta.into_true_set();
    part.intersect_assign(rt);
    Ok(if part.is_empty() {
        Restriction::Empty
    } else {
        Restriction::Part(part)
    })
}

/// Filter application over a borrowed candidate tuple (candidates stay in
/// their chunk; callers count them and, at `rt`, pass only those with
/// `rt ∈ RT`); only passing tuples are cloned, and the clone is shallow
/// (payloads are `Arc`-shared). Ongoing: the fixed conjunct gates, the
/// ongoing conjunct restricts `RT`. At `rt`: both conjuncts are plain
/// gates over operands bound when read.
fn filter_into(
    out: &mut Vec<Tuple>,
    t: &Tuple,
    fixed: Option<&Predicate>,
    ongoing: Option<&Predicate>,
    mode: Mode,
    stats: &mut ExecStats,
) -> Result<()> {
    let row = t.values();
    if let Mode::At(rt) = mode {
        if holds_at(fixed, row, rt)? && holds_at(ongoing, row, rt)? {
            out.push(t.clone());
        }
        return Ok(());
    }
    if let Some(f) = fixed {
        if !f.eval_bool(row)? {
            return Ok(());
        }
    }
    match ongoing {
        Some(o) => match restrict(o, row, t.rt(), stats)? {
            Restriction::Empty => {}
            Restriction::Whole => out.push(t.clone()),
            Restriction::Part(rt) => out.push(t.restricted(rt)),
        },
        None => out.push(t.clone()),
    }
    Ok(())
}

/// Join pair, read in place and concatenated only when it passes.
/// Ongoing: intersect the two `RT`s (skipping the pair when that is
/// empty), gate on the fixed conjunct, restrict by the ongoing one. At
/// `rt` (both inputs alive there): gate on both conjuncts read at `rt`.
fn join_pair_into(
    out: &mut Vec<Tuple>,
    lt: &Tuple,
    rt_: &Tuple,
    fixed: Option<&Predicate>,
    ongoing: Option<&Predicate>,
    mode: Mode,
    stats: &mut ExecStats,
) -> Result<()> {
    stats.pairs_compared += 1;
    let pair = Pair::new(lt.values(), rt_.values());
    if let Mode::At(rt) = mode {
        if holds_at(fixed, &pair, rt)? && holds_at(ongoing, &pair, rt)? {
            out.push(lt.concat(rt_));
        }
        return Ok(());
    }
    stats.intervals_merged += 1;
    let joint = lt.rt().intersect(rt_.rt());
    if joint.is_empty() {
        return Ok(());
    }
    if let Some(f) = fixed {
        if !f.eval_bool(&pair)? {
            return Ok(());
        }
    }
    let joint = match ongoing {
        Some(o) => match restrict(o, &pair, &joint, stats)? {
            Restriction::Empty => return Ok(()),
            Restriction::Whole => joint,
            Restriction::Part(rt) => rt,
        },
        None => joint,
    };
    out.push(lt.concat_with_rt(rt_, joint));
    Ok(())
}

/// A projection's items, split once per run into the infallible case
/// and the general one.
enum Projector {
    /// Only pass-through columns: a row collects from a slice-backed map,
    /// straight into its one allocation.
    Columns(Vec<usize>),
    /// At least one computed item.
    Items(Vec<ProjItem>),
}

impl Projector {
    fn new(items: &[ProjItem]) -> Self {
        let col = |item: &ProjItem| match item {
            ProjItem::Col(i) => Some(*i),
            ProjItem::Named { .. } => None,
        };
        match items.iter().map(col).collect() {
            Some(cols) => Projector::Columns(cols),
            None => Projector::Items(items.to_vec()),
        }
    }

    /// A tuple's projected values. Ongoing, pass-through columns are
    /// shared and computed items evaluated as ongoing scalars; at `rt`,
    /// every output value is instantiated (computed items over operands
    /// bound when read).
    fn row<C: FromIterator<Value>>(&self, t: &Tuple, mode: Mode) -> Result<C> {
        let col = |i: usize| match mode {
            Mode::Ongoing => t.value(i).clone(),
            Mode::At(rt) => t.value(i).bind(rt),
        };
        match self {
            Projector::Columns(cols) => Ok(cols.iter().map(|&i| col(i)).collect()),
            Projector::Items(items) => items
                .iter()
                .map(|item| match (item, mode) {
                    (ProjItem::Col(i), _) => Ok(col(*i)),
                    (ProjItem::Named { expr, .. }, Mode::Ongoing) => {
                        Ok(expr.eval_scalar(t.values())?)
                    }
                    (ProjItem::Named { expr, .. }, Mode::At(rt)) => {
                        Ok(expr.eval_scalar_at(t.values(), rt)?.bind(rt))
                    }
                })
                .collect(),
        }
    }
}

/// `(envelope start, envelope end, position)` for a tuple list, skipping
/// empty envelopes (no predicate with a non-empty check can match them).
/// The envelope is the hull of every instantiation in ongoing mode and the
/// instantiation itself at `rt`.
fn envelopes(
    tuples: &[Tuple],
    col: usize,
    mode: Mode,
) -> Result<Vec<(TimePoint, TimePoint, usize)>> {
    let mut out = Vec::with_capacity(tuples.len());
    for (i, t) in tuples.iter().enumerate() {
        let iv = t.value(col).as_interval().ok_or_else(|| {
            EngineError::Plan(format!("sweep join column #{col} is not an interval"))
        })?;
        let (s, e) = match mode {
            Mode::Ongoing => (iv.ts().a(), iv.te().b()),
            Mode::At(rt) => iv.bind(rt),
        };
        if s < e {
            out.push((s, e, i));
        }
    }
    out.sort_unstable_by_key(|&(s, e, _)| (s, e));
    Ok(out)
}

/// Forward-scan plane sweep (Bouros & Mamoulis style) enumerating all pairs
/// with overlapping envelopes between the `l_range` slice of `l` and all of
/// `r`, in O(sorted inputs + output). Emits `(left position, right
/// position)` pairs into the *global* envelope arrays; callers sort them to
/// get the canonical candidate order, which makes partitioned sweeps emit
/// exactly the serial candidate sequence after concatenation.
fn sweep_positions(
    l: &[(TimePoint, TimePoint, usize)],
    l_range: Range<usize>,
    r: &[(TimePoint, TimePoint, usize)],
    out: &mut Vec<(usize, usize)>,
) {
    let offset = l_range.start;
    let l = &l[l_range];
    let (mut i, mut j) = (0usize, 0usize);
    while i < l.len() && j < r.len() {
        if l[i].0 <= r[j].0 {
            // Scan forward on the right while it starts before l[i] ends.
            let (ls, le, _) = l[i];
            let mut k = j;
            while k < r.len() && r[k].0 < le {
                if r[k].1 > ls {
                    out.push((offset + i, k));
                }
                k += 1;
            }
            i += 1;
        } else {
            let (rs, re, _) = r[j];
            let mut k = i;
            while k < l.len() && l[k].0 < re {
                if l[k].1 > rs {
                    out.push((offset + k, j));
                }
                k += 1;
            }
            j += 1;
        }
    }
}

/// Extracts the left/right interval columns of a temporal conjunct suitable
/// for a sweep join: `Temporal(pred, Col(i), Col(j))` with `i` left of the
/// split and `j` right of it (or mirrored). Only predicates whose truth at a
/// reference time implies a shared instantiation time point are sweepable.
pub fn sweepable_columns(conjunct: &Expr, split: usize) -> Option<(usize, usize)> {
    let sweep_sound = |p: TemporalPredicate| {
        matches!(
            p,
            TemporalPredicate::Overlaps | TemporalPredicate::Starts | TemporalPredicate::Finishes
        )
    };
    if let Expr::Temporal(p, l, r) = conjunct {
        if !sweep_sound(*p) {
            return None;
        }
        if let (Expr::Col(i), Expr::Col(j)) = (l.as_ref(), r.as_ref()) {
            let (i, j) = (*i, *j);
            if i < split && j >= split {
                return Some((i, j - split));
            }
            if j < split && i >= split {
                return Some((j, i - split));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Database;
    use crate::obs::{SpanNode, TraceCollector};
    use crate::plan::{compile, JoinStrategy, LogicalPlan, PlannerConfig, QueryBuilder};
    use ongoing_core::time::tp;
    use ongoing_core::OngoingInterval;

    /// `(K, VT)` rows; row `i` has `K = i % 3`, `VT = [i, now)` and is
    /// alive on `RT = [i, i + 10)` only.
    fn table(n: i64) -> OngoingRelation {
        let schema = Schema::builder().int("K").interval("VT").build();
        let mut rel = OngoingRelation::new(schema);
        for i in 0..n {
            let vt = OngoingInterval::from_until_now(tp(i));
            let values = vec![Value::Int(i % 3), Value::Interval(vt)];
            rel.insert_with_rt(values, IntervalSet::range(tp(i), tp(i + 10)))
                .unwrap();
        }
        rel
    }

    fn find<'a>(span: &'a SpanNode, label: &str) -> Option<&'a SpanNode> {
        if span.label.starts_with(label) {
            return Some(span);
        }
        span.children.iter().find_map(|c| find(c, label))
    }

    #[test]
    fn instantiated_work_units_count_only_tuples_alive_at_rt() {
        let db = Database::new();
        db.create_table("L", table(20)).unwrap();
        db.create_table("R", table(8)).unwrap();
        let rt = tp(12);
        let alive = |n: i64| {
            (0..n)
                .filter(|&i| i <= 12 && 12 < i + 10)
                .collect::<Vec<_>>()
        };
        let (l_alive, r_alive) = (alive(20), alive(8));
        let pairs = |keep: &dyn Fn(i64, i64) -> bool| {
            let mut n = 0;
            for &l in &l_alive {
                n += r_alive.iter().filter(|&&r| keep(l, r)).count() as u64;
            }
            n
        };
        let join = |pred: fn(&Schema) -> Expr| -> LogicalPlan {
            let l = QueryBuilder::scan_as(&db, "L", "L").unwrap();
            let r = QueryBuilder::scan_as(&db, "R", "R").unwrap();
            l.join(r, |s| Ok(pred(s))).unwrap().build()
        };
        let key_eq = |s: &Schema| {
            Expr::col(s, "L.K")
                .unwrap()
                .eq(Expr::col(s, "R.K").unwrap())
        };
        let overlap = |s: &Schema| {
            Expr::col(s, "L.VT")
                .unwrap()
                .overlaps(Expr::col(s, "R.VT").unwrap())
        };
        let filter = QueryBuilder::scan(&db, "L")
            .unwrap()
            .filter(|s| Ok(Expr::col(s, "K")?.le(Expr::lit(1i64))))
            .unwrap()
            .build();
        // At rt = 12, VT = [i, now) binds to [i, 12): spans of alive rows
        // overlap exactly when both are non-empty.
        let cases = [
            (filter, JoinStrategy::Auto, "Filter", 0),
            (
                join(key_eq),
                JoinStrategy::NestedLoop,
                "NestedLoopJoin",
                pairs(&|_, _| true),
            ),
            (
                join(key_eq),
                JoinStrategy::Hash,
                "HashJoin",
                pairs(&|l, r| l % 3 == r % 3),
            ),
            (
                join(overlap),
                JoinStrategy::Sweep,
                "SweepJoin",
                pairs(&|l, r| l < 12 && r < 12),
            ),
        ];
        for (i, (plan, join_strategy, op, expected_pairs)) in cases.into_iter().enumerate() {
            let cfg = PlannerConfig {
                join_strategy,
                ..PlannerConfig::default()
            };
            let phys = compile(&db, &plan, &cfg).unwrap();
            assert!(phys.explain().contains(op), "case {i}\n{}", phys.explain());
            let tracer = Arc::new(TraceCollector::new());
            let ctx = ExecContext::serial().with_trace(Arc::clone(&tracer));
            let (rows, stats) = phys.rows_at_with_stats(rt, &ctx).unwrap();
            assert_eq!(
                stats.pairs_compared,
                expected_pairs,
                "case {i}\n{}",
                phys.explain()
            );
            assert_eq!(stats.intervals_merged, 0, "case {i}");
            if i == 0 {
                assert_eq!(stats.tuples_scanned, 20);
                assert_eq!(stats.tuples_filtered, l_alive.len() as u64);
                let expected = l_alive.iter().filter(|&&l| l % 3 <= 1).count();
                assert_eq!(rows.len(), expected);
            }
            // A scan span reports the version's row count, alive at `rt`
            // or not.
            let root = tracer.finish();
            let scan = find(&root[0], "SeqScan L").expect("a scan of L");
            assert_eq!(scan.rows, 20, "case {i}");
        }
    }

    /// The set operators run `tuple_eq` only within a bucket of equal
    /// fixed columns: `EXCEPT` on unique keys costs at most one pair per
    /// input row and a grouped `COUNT` at most one per input row, in both
    /// modes. Comparing every pair would cost millions here.
    #[test]
    fn set_operators_compare_only_within_fixed_column_buckets() {
        const N: i64 = 8_000;
        let schema = Schema::builder().int("ID").int("G").interval("VT").build();
        let mut rel = OngoingRelation::new(schema);
        for i in 0..N {
            let vt = OngoingInterval::from_until_now(tp(i % 100));
            rel.insert(vec![Value::Int(i), Value::Int(i % 10), Value::Interval(vt)])
                .unwrap();
        }
        let db = Database::new();
        db.create_table("B", rel).unwrap();
        let scan = || QueryBuilder::scan(&db, "B").unwrap();
        let low = scan()
            .filter(|s| Ok(Expr::col(s, "ID")?.lt(Expr::lit(N / 2))))
            .unwrap();
        let except = scan().difference(low).unwrap().build();
        let grouped = scan()
            .aggregate(&["G"], vec![AggFn::CountStar], vec!["N".into()])
            .unwrap()
            .build();
        let cases = [
            ("except", except, N + N / 2, N / 2),
            ("count", grouped, N, 10),
        ];
        for (name, plan, bound, len) in cases {
            let phys = compile(&db, &plan, &PlannerConfig::default()).unwrap();
            let ctx = ExecContext::serial();
            let (ongoing, ongoing_stats) = phys.execute_with_stats(&ctx).unwrap();
            let (fixed, at_rt_stats) = phys.execute_at_with_stats(tp(50), &ctx).unwrap();
            assert_eq!(ongoing.len() as i64, len, "{name}");
            assert_eq!(fixed.len() as i64, len, "{name}");
            for (mode, stats) in [("ongoing", ongoing_stats), ("at rt", at_rt_stats)] {
                assert!(
                    stats.pairs_compared <= bound as u64,
                    "{name} {mode}: {} pairs for {bound} input rows",
                    stats.pairs_compared
                );
            }
        }
    }
}
