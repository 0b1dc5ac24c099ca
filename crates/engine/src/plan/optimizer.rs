//! Query optimization (Sec. VIII "Query Optimization").
//!
//! The paper's observation is that the standard relational rewrite rules
//! carry over unchanged to ongoing relations (e.g.
//! `σ_{θ1∧θ2}(R) ≡ σ_{θ1}(σ_{θ2}(R))`), so classic techniques — selection
//! push-down, join algorithm choice — apply after splitting conjunctive
//! predicates into a part over fixed attributes and a part referencing
//! ongoing attributes. The fixed part is evaluated as a plain boolean (and
//! can drive hash joins); the ongoing part restricts the result tuples'
//! reference time.
//!
//! [`rewrite`] performs the logical rewrites; [`compile`] picks physical
//! operators under a [`PlannerConfig`], whose join strategy lets tests and
//! the `repro_*` binaries force one join algorithm against the others.
//! A join lowers to one of two physical nodes: the hash join, which on no
//! keys is the nested loop (`EXPLAIN`: `NestedLoopJoin`) — what a product,
//! [`JoinStrategy::NestedLoop`] and every fallback compile to — or the
//! envelope sweep join.
//!
//! A selection directly over a base scan lowers to a `KeyScan` exactly
//! when [`OngoingRelation::key_probe`](ongoing_relation::OngoingRelation::key_probe)
//! returns a probe — the same keyed-vs-scan decision modifications make —
//! and to `Filter(SeqScan)` otherwise.
//!
//! # Cost-based strategy choice
//!
//! Under [`JoinStrategy::Auto`], joins over **analyzed** inputs (every base
//! table below both sides has `ANALYZE` statistics) are planned by
//! enumeration: the optimizer estimates the work units of each applicable
//! candidate — hash join on the fixed equality keys, envelope sweep join on
//! a sweep-sound temporal conjunct, nested loops — with the
//! [cost model](crate::stats::cost) and picks the cheapest. Without
//! statistics it falls back to the classic fixed priority
//! (hash > sweep > nested loops).

use crate::catalog::{Database, Table};
use crate::error::{EngineError, Result};
use crate::exec::ExecContext;
use crate::plan::logical::LogicalPlan;
use crate::plan::physical::{sweepable_columns, PhysicalPlan};
use crate::stats::cost;
use ongoing_relation::{Expr, Predicate, Schema, SchemaError, ValueType};
use std::sync::Arc;

/// Join algorithm selection policy. "Nested loops" is the hash join on
/// no keys, with every conjunct as its residual.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinStrategy {
    /// Cost-based choice from collected statistics (see the
    /// [module docs](self)); classic heuristic priority (hash, then sweep,
    /// then nested loops) when the inputs are not analyzed.
    #[default]
    Auto,
    /// Always nested loops (the ablation baseline).
    NestedLoop,
    /// Force the envelope sweep join whenever a sweep-sound temporal
    /// conjunct exists (explicit override; nested loops otherwise).
    Sweep,
    /// Force hash joins on fixed equality keys (explicit override; on no
    /// keys that is the nested loop).
    Hash,
}

/// Planner settings. The defaults reproduce the paper's configuration;
/// the predicate split and conjunct pushdown of Sec. VIII are always on.
#[derive(Debug, Clone, Default)]
pub struct PlannerConfig {
    /// Join algorithm policy.
    pub join_strategy: JoinStrategy,
    /// Executor worker threads. `0` means auto: the `ONGOINGDB_THREADS`
    /// environment variable if set, else the machine's available
    /// parallelism. Results and work-unit counts are identical for every
    /// setting.
    pub parallelism: usize,
}

impl PlannerConfig {
    /// The execution context this configuration resolves to (explicit
    /// [`parallelism`](Self::parallelism) knob, `ONGOINGDB_THREADS`, or
    /// machine parallelism — in that order).
    pub fn exec_context(&self) -> ExecContext {
        ExecContext::resolve(self.parallelism)
    }
}

/// Conjunction of a list of predicates (`None` when empty).
fn and_all(preds: Vec<Expr>) -> Option<Expr> {
    preds.into_iter().reduce(Expr::and)
}

/// The conjuncts of an optional predicate (none when absent) — the
/// inverse of [`and_all`].
fn conjuncts(pred: Option<Expr>) -> Vec<Expr> {
    pred.map(|p| p.conjuncts()).unwrap_or_default()
}

/// Logical rewrites: merge selections into joins (a product is a join
/// without a predicate), push single-side conjuncts below joins, and fuse
/// stacked selections.
pub fn rewrite(plan: LogicalPlan) -> LogicalPlan {
    match plan {
        LogicalPlan::Select { input, pred } => match rewrite(*input) {
            LogicalPlan::Join {
                left,
                right,
                pred: jp,
            } => {
                let mut cs = conjuncts(jp);
                cs.extend(pred.conjuncts());
                rewrite_join(*left, *right, cs)
            }
            LogicalPlan::Select {
                input: inner,
                pred: p2,
            } => LogicalPlan::Select {
                input: inner,
                pred: p2.and(pred),
            },
            other => LogicalPlan::Select {
                input: Box::new(other),
                pred,
            },
        },
        LogicalPlan::Join { left, right, pred } => {
            rewrite_join(rewrite(*left), rewrite(*right), conjuncts(pred))
        }
        LogicalPlan::Project {
            input,
            items,
            schema,
        } => LogicalPlan::Project {
            input: Box::new(rewrite(*input)),
            items,
            schema,
        },
        LogicalPlan::Union { left, right } => LogicalPlan::Union {
            left: Box::new(rewrite(*left)),
            right: Box::new(rewrite(*right)),
        },
        LogicalPlan::Difference { left, right } => LogicalPlan::Difference {
            left: Box::new(rewrite(*left)),
            right: Box::new(rewrite(*right)),
        },
        LogicalPlan::Aggregate {
            input,
            group_cols,
            aggs,
            schema,
        } => LogicalPlan::Aggregate {
            input: Box::new(rewrite(*input)),
            group_cols,
            aggs,
            schema,
        },
        leaf @ LogicalPlan::Scan { .. } => leaf,
    }
}

/// Distributes join conjuncts: single-side ones become selections below the
/// join, the rest stay as the join predicate (none left: a product).
fn rewrite_join(left: LogicalPlan, right: LogicalPlan, conjuncts: Vec<Expr>) -> LogicalPlan {
    let la = left.schema().len();
    let mut left_preds = Vec::new();
    let mut right_preds = Vec::new();
    let mut join_preds = Vec::new();
    for c in conjuncts {
        let cols = c.columns();
        if !cols.is_empty() && cols.iter().all(|&i| i < la) {
            left_preds.push(c);
        } else if !cols.is_empty() && cols.iter().all(|&i| i >= la) {
            right_preds.push(c.map_columns(&|i| i - la));
        } else {
            join_preds.push(c);
        }
    }
    let select = |input: LogicalPlan, preds: Vec<Expr>| match and_all(preds) {
        Some(pred) => rewrite(LogicalPlan::Select {
            input: Box::new(input),
            pred,
        }),
        None => input,
    };
    LogicalPlan::Join {
        left: Box::new(select(left, left_preds)),
        right: Box::new(select(right, right_preds)),
        pred: and_all(join_preds),
    }
}

/// Splits an optional predicate into its fixed and ongoing conjuncts
/// (Sec. VIII).
fn split_pred(pred: Option<Expr>, schema: &Schema) -> (Option<Expr>, Option<Expr>) {
    pred.map_or((None, None), |p| p.split_fixed_ongoing(schema))
}

/// [`split_pred`], each part compiled once into conjunct kernels here —
/// the plan, and every prepared statement or cached plan reusing it,
/// shares the compiled form with its morsel tasks.
fn split_compiled(
    pred: Option<Expr>,
    schema: &Schema,
) -> (Option<Arc<Predicate>>, Option<Arc<Predicate>>) {
    let (fixed, ongoing) = split_pred(pred, schema);
    let compile = |p: Option<Expr>| p.map(|p| Arc::new(Predicate::compile(p)));
    (compile(fixed), compile(ongoing))
}

/// Compiles a logical plan into a physical plan.
pub fn compile(db: &Database, plan: &LogicalPlan, cfg: &PlannerConfig) -> Result<PhysicalPlan> {
    let rewritten = rewrite(plan.clone());
    compile_node(db, rewritten, cfg)
}

/// The table a scan reads, provided it still has the attribute types the
/// plan was built against: a plan built before `put_table` changed the
/// table's schema is an error here, not a failure at execution.
fn scan_table(db: &Database, table: &str, schema: &Schema) -> Result<Arc<Table>> {
    let resolved = db.table(table)?;
    if !resolved.schema().compatible_with(schema) {
        return Err(EngineError::Schema(SchemaError::Mismatch(format!(
            "table `{table}` is now {}, the plan scans it as {schema}",
            resolved.schema()
        ))));
    }
    Ok(resolved)
}

fn compile_node(db: &Database, plan: LogicalPlan, cfg: &PlannerConfig) -> Result<PhysicalPlan> {
    match plan {
        LogicalPlan::Scan { table, schema } => Ok(PhysicalPlan::SeqScan {
            table: scan_table(db, &table, &schema)?,
            schema,
        }),
        LogicalPlan::Select { input, pred } => {
            let schema = input.schema();
            // Key-scan opportunity: selection directly over a base scan
            // for which the relation picks the keyed access path (see
            // `OngoingRelation::key_probe`, shared with the modifier).
            if let LogicalPlan::Scan {
                ref table,
                schema: ref scan_schema,
            } = *input
            {
                let resolved = scan_table(db, table, scan_schema)?;
                if let Some(probe) = resolved.data().key_probe(&pred) {
                    let (fixed, ongoing) = split_compiled(Some(pred), &schema);
                    return Ok(PhysicalPlan::KeyScan {
                        table: resolved,
                        schema: scan_schema.clone(),
                        probe,
                        fixed,
                        ongoing,
                    });
                }
            }
            let (fixed, ongoing) = split_compiled(Some(pred), &schema);
            Ok(PhysicalPlan::Filter {
                input: Box::new(compile_node(db, *input, cfg)?),
                fixed,
                ongoing,
            })
        }
        LogicalPlan::Project {
            input,
            items,
            schema,
        } => Ok(PhysicalPlan::Project {
            input: Box::new(compile_node(db, *input, cfg)?),
            items,
            schema,
        }),
        LogicalPlan::Join { left, right, pred } => {
            let schema = left.schema().product(&right.schema());
            let la = left.schema().len();
            compile_join(db, *left, *right, conjuncts(pred), &schema, la, cfg)
        }
        LogicalPlan::Union { left, right } => Ok(PhysicalPlan::Union {
            left: Box::new(compile_node(db, *left, cfg)?),
            right: Box::new(compile_node(db, *right, cfg)?),
        }),
        LogicalPlan::Difference { left, right } => Ok(PhysicalPlan::Difference {
            left: Box::new(compile_node(db, *left, cfg)?),
            right: Box::new(compile_node(db, *right, cfg)?),
        }),
        LogicalPlan::Aggregate {
            input,
            group_cols,
            aggs,
            schema,
        } => Ok(PhysicalPlan::Aggregate {
            input: Box::new(compile_node(db, *input, cfg)?),
            group_cols,
            aggs,
            schema,
        }),
    }
}

/// The physical join operators the optimizer enumerates.
#[derive(Debug)]
enum JoinChoice {
    /// Hash join on these `(left, right)` keys; on none, the nested loop.
    Hash(Vec<(usize, usize)>),
    /// Envelope sweep join over these `(left, right-local)` columns.
    Sweep(usize, usize),
}

fn compile_join(
    db: &Database,
    left: LogicalPlan,
    right: LogicalPlan,
    conjuncts: Vec<Expr>,
    schema: &Schema,
    split_at: usize,
    cfg: &PlannerConfig,
) -> Result<PhysicalPlan> {
    let l = compile_node(db, left, cfg)?;
    let r = compile_node(db, right, cfg)?;

    let fixed_type =
        |i: usize| -> bool { schema.attr(i).map(|a| !a.ty.is_ongoing()).unwrap_or(false) };
    let interval_type = |i: usize| -> bool {
        schema
            .attr(i)
            .map(|a| matches!(a.ty, ValueType::OngoingInterval | ValueType::Span))
            .unwrap_or(false)
    };

    // Candidate features, computed regardless of the strategy knob:
    // hash keys (fixed-attribute equality conjuncts across the split, the
    // rest as residual) and a sweep-sound temporal conjunct over two
    // interval columns.
    let mut keys = Vec::new();
    let mut hash_residual = Vec::new();
    for c in &conjuncts {
        match c.as_equi_key(split_at) {
            Some((i, j)) if fixed_type(i) && fixed_type(split_at + j) => keys.push((i, j)),
            _ => hash_residual.push(c.clone()),
        }
    }
    let sweep = conjuncts
        .iter()
        .find_map(|c| sweepable_columns(c, split_at))
        .filter(|&(i, j)| interval_type(i) && interval_type(split_at + j));

    // Every fallback — no keys, no sweepable conjunct — is the nested
    // loop: the hash join on no keys.
    let choice = match (cfg.join_strategy, sweep) {
        (JoinStrategy::NestedLoop, _) => JoinChoice::Hash(Vec::new()),
        (JoinStrategy::Hash, _) => JoinChoice::Hash(keys),
        (JoinStrategy::Sweep, Some((i, j))) => JoinChoice::Sweep(i, j),
        (JoinStrategy::Sweep, None) => JoinChoice::Hash(Vec::new()),
        (JoinStrategy::Auto, _) => {
            choose_join(&l, &r, keys, sweep, &conjuncts, &hash_residual, schema)
        }
    };

    let (l, r) = (Box::new(l), Box::new(r));
    match choice {
        JoinChoice::Hash(keys) => {
            // Without keys every conjunct is residual.
            let residual = if keys.is_empty() {
                conjuncts
            } else {
                hash_residual
            };
            let (fixed, ongoing) = split_compiled(and_all(residual), schema);
            Ok(PhysicalPlan::HashJoin {
                left: l,
                right: r,
                keys,
                fixed,
                ongoing,
            })
        }
        JoinChoice::Sweep(l_col, r_col) => {
            // The envelope pass is a pre-filter; the complete predicate
            // stays as residual.
            let (fixed, ongoing) = split_compiled(and_all(conjuncts), schema);
            Ok(PhysicalPlan::SweepJoin {
                left: l,
                right: r,
                l_col,
                r_col,
                fixed,
                ongoing,
            })
        }
    }
}

/// `Auto` strategy choice: cost-based enumeration over analyzed inputs,
/// classic heuristic priority otherwise.
fn choose_join(
    l: &PhysicalPlan,
    r: &PhysicalPlan,
    keys: Vec<(usize, usize)>,
    sweep: Option<(usize, usize)>,
    conjuncts: &[Expr],
    hash_residual: &[Expr],
    schema: &Schema,
) -> JoinChoice {
    let heuristic = match sweep {
        Some((i, j)) if keys.is_empty() => JoinChoice::Sweep(i, j),
        _ => JoinChoice::Hash(keys.clone()),
    };
    if keys.is_empty() && sweep.is_none() {
        return heuristic;
    }
    let le = cost::estimate(l);
    let re = cost::estimate(r);
    if !(le.analyzed && re.analyzed) {
        // Without statistics the estimates are defaults; keep the
        // pre-statistics priority so un-analyzed databases plan exactly as
        // before.
        return heuristic;
    }
    let cols = cost::product_cols(&le, &re);
    let (fixed, ongoing) = split_pred(and_all(conjuncts.to_vec()), schema);
    let (fixed, ongoing) = (fixed.as_ref(), ongoing.as_ref());
    let nested = cost::hash_join_work(&le, &re, &[], fixed, ongoing, &cols);
    let mut best = (JoinChoice::Hash(Vec::new()), nested.1.total());
    if let Some((l_col, r_col)) = sweep {
        let w = cost::sweep_join_work(&le, &re, l_col, r_col, fixed, ongoing, &cols)
            .1
            .total();
        if w < best.1 {
            best = (JoinChoice::Sweep(l_col, r_col), w);
        }
    }
    if !keys.is_empty() {
        let (h_fixed, h_ongoing) = split_pred(and_all(hash_residual.to_vec()), schema);
        let w = cost::hash_join_work(&le, &re, &keys, h_fixed.as_ref(), h_ongoing.as_ref(), &cols)
            .1
            .total();
        // Ties go to the hash join: its un-counted constants (building the
        // table) are cheaper than the sweep's envelope sort.
        if w <= best.1 {
            best = (JoinChoice::Hash(keys), w);
        }
    }
    best.0
}
