//! OngoingQL — a small SQL-like query language for ongoing databases.
//!
//! The paper's prototype extends PostgreSQL, so its queries are SQL with
//! ongoing data types. This module provides the equivalent front end for
//! the Rust engine: a lexer, a recursive-descent parser and a planner that
//! lowers parsed queries onto [`LogicalPlan`]s. The running example of
//! Sec. II reads:
//!
//! ```text
//! SELECT B.BID, B.VT, P.PID, L.Name, INTERSECTION(B.VT, L.VT) AS Resp
//! FROM B JOIN P ON B.C = P.C AND B.VT BEFORE P.VT
//!        JOIN L ON B.C = L.C AND B.VT OVERLAPS L.VT
//! WHERE B.C = 'Spam filter'
//! ```
//!
//! Literals: integers, `'strings'`, `TRUE`/`FALSE`, `DATE 'YYYY-MM-DD'`,
//! `NOW`, and `PERIOD(point, point)` interval constants. The Table II
//! predicates are infix keywords (`BEFORE`, `MEETS`, `OVERLAPS`, `STARTS`,
//! `FINISHES`, `DURING`, `EQUALS`); `INTERSECTION(a, b)`, `START(iv)` and
//! `END(iv)` are scalar functions.
//!
//! [`query`] runs a query in ongoing mode and [`query_at`] at one reference
//! time, returning a deduplicated set valid only there. Beyond queries,
//! [`run_statement`] also accepts `ANALYZE [table]`, which collects the
//! optimizer statistics of the [`crate::stats`] subsystem, and
//! `EXPLAIN [ANALYZE]`; [`prepare()`] keeps a compiled plan across runs.
//! Every compiled plan a client runs, in either mode — these entry points,
//! materialized views and [`crate::execute`]/[`crate::execute_at`] — goes
//! through one seam, `execute_compiled`, which records the same per-query
//! metrics for both modes; only ongoing runs use the result cache.
//!
//! A statement holds at most 128 boolean terms and names at most 16
//! relations; larger ones are parse errors, since every pass after the
//! parser recurses over the expression and operator trees.

pub mod ast;
pub mod parser;
pub mod prepare;
pub mod token;

pub use prepare::{prepare, Prepared};

use crate::catalog::Database;
use crate::error::{EngineError, Result};
use crate::exec::{rescache, ExecContext, ExecStats};
use crate::obs::{EngineEvent, SpanNode, TraceCollector};
use crate::plan::{LogicalPlan, PhysicalPlan, PlannerConfig, QueryBuilder};
use crate::stats::TableStatistics;
use ast::{AstExpr, Query, SelectStmt, Statement};
use ongoing_core::TimePoint;
use ongoing_relation::algebra::ProjItem;
use ongoing_relation::{Expr, FixedRelation, OngoingRelation, Schema};
use std::sync::Arc;
use std::time::Instant;

/// Parses and plans an OngoingQL query against a database.
///
/// [`query`] and [`query_at`] run text directly; run the returned plan with
/// [`crate::execute`] / [`crate::execute_at`] (or compile it with a custom
/// [`crate::PlannerConfig`]).
pub fn plan_query(db: &Database, sql: &str) -> Result<LogicalPlan> {
    let query = parser::parse(sql).map_err(|e| EngineError::Plan(e.to_string()))?;
    plan(db, &query)
}

/// Parses, plans and executes in ongoing mode — the one-liner entry point.
/// Runs through the shared execution seam, so per-query metrics are
/// recorded and the result cache is consulted, exactly like
/// [`run_statement`] and prepared statements.
pub fn query(db: &Database, sql: &str) -> Result<OngoingRelation> {
    run_query(db, sql, Ongoing)
}

/// Parses, plans and executes at reference time `rt` — OngoingQL's
/// instantiated entry point (Clifford's baseline). The result is a
/// **set**: a sorted, deduplicated [`FixedRelation`], like
/// [`crate::execute_at`], valid only at `rt`; it equals
/// [`query`]`(db, sql)?.bind(rt)` — the paper's `∥Q(D)∥rt ≡ Q(∥D∥rt)`.
/// Runs through the same seam as [`query`], so it records the same
/// per-query metrics, but never touches the result cache. `rt = ∞` is
/// [`EngineError::InfiniteReferenceTime`].
pub fn query_at(db: &Database, sql: &str, rt: TimePoint) -> Result<FixedRelation> {
    run_query(db, sql, At(rt))
}

/// Parses, plans and executes `sql` in `mode` under the default
/// configuration, labelled by its text.
fn run_query<M: Mode>(db: &Database, sql: &str, mode: M) -> Result<M::Output> {
    let q = parser::parse(sql).map_err(|e| EngineError::Plan(e.to_string()))?;
    let cfg = PlannerConfig::default();
    let phys = compile_query(db, &q, &cfg)?;
    execute_compiled(db, &phys, &cfg, sql, mode, None).map(|(out, _)| out)
}

/// The outcome of executing a top-level statement.
#[derive(Debug)]
pub enum StatementResult {
    /// The rows of a query.
    Rows(ongoing_relation::OngoingRelation),
    /// The tables analyzed by an `ANALYZE` statement, with their collected
    /// statistics, in name order.
    Analyzed(Vec<(String, Arc<TableStatistics>)>),
    /// The rendered plan of an `EXPLAIN [ANALYZE]` statement.
    Explained(String),
}

/// Parses and executes a top-level statement: queries run in ongoing mode
/// (recording per-query metrics through the database's observability
/// layer), `ANALYZE [table]` collects optimizer statistics through the
/// catalog, and `EXPLAIN [ANALYZE] <query>` renders the physical plan —
/// with per-operator actuals when `ANALYZE` is given.
pub fn run_statement(db: &Database, sql: &str) -> Result<StatementResult> {
    let stmt = parser::parse_statement(sql).map_err(|e| EngineError::Plan(e.to_string()))?;
    let cfg = PlannerConfig::default();
    match stmt {
        Statement::Query(q) => {
            let phys = compile_query(db, &q, &cfg)?;
            let (rel, _) = execute_compiled(db, &phys, &cfg, sql, Ongoing, None)?;
            Ok(StatementResult::Rows(rel))
        }
        Statement::Analyze(Some(table)) => {
            let stats = db.analyze(&table)?;
            Ok(StatementResult::Analyzed(vec![(table, stats)]))
        }
        Statement::Analyze(None) => Ok(StatementResult::Analyzed(db.analyze_all())),
        Statement::Explain {
            analyze: false,
            query,
        } => Ok(StatementResult::Explained(
            compile_query(db, &query, &cfg)?.explain(),
        )),
        Statement::Explain {
            analyze: true,
            query,
        } => {
            let report = analyze_query(db, &query, &cfg, sql)?;
            Ok(StatementResult::Explained(report.text))
        }
    }
}

/// Everything `EXPLAIN ANALYZE` measured about one query execution.
///
/// `text` is the rendered plan — per operator, the planner's estimates next
/// to the actual rows, deterministic work units, and wall-clock time — and
/// `root` is the span tree behind it for programmatic inspection. Work
/// units are identical at every thread count; wall times are not.
#[derive(Debug)]
pub struct ExplainReport {
    /// The rendered plan with per-operator estimates and actuals.
    pub text: String,
    /// Root span of the execution trace.
    pub root: SpanNode,
    /// Total deterministic work counters for the execution.
    pub stats: ExecStats,
    /// Tuples in the (ongoing) result.
    pub rows: u64,
    /// Wall-clock time of the execute phase, in nanoseconds.
    pub wall_ns: u64,
}

/// Parses, plans and executes `sql` under `cfg` (thread count, join
/// strategy, ...), returning an [`ExplainReport`] — the API equivalent of
/// the `EXPLAIN ANALYZE` statement.
pub fn explain_analyze(db: &Database, sql: &str, cfg: &PlannerConfig) -> Result<ExplainReport> {
    let query = parser::parse(sql).map_err(|e| EngineError::Plan(e.to_string()))?;
    analyze_query(db, &query, cfg, sql)
}

/// Plans and compiles a parsed query under `cfg`.
pub(crate) fn compile_query(db: &Database, q: &Query, cfg: &PlannerConfig) -> Result<PhysicalPlan> {
    crate::plan::optimizer::compile(db, &plan(db, q)?, cfg)
}

/// The mode argument of [`execute_compiled`]: [`Ongoing`], or [`At`] a
/// reference time. The modes differ in what a run returns and in whether
/// it goes through the result cache; the seam meters both alike.
pub(crate) trait Mode {
    /// What a run returns.
    type Output;
    /// Runs `phys` under `ctx` in this mode.
    fn run(
        self,
        db: &Database,
        phys: &PhysicalPlan,
        cfg: &PlannerConfig,
        ctx: &ExecContext,
    ) -> Result<(Self::Output, ExecStats)>;
}

/// Ongoing execution: the result stays valid at every reference time.
///
/// This is the result-cache seam: before executing, the database's
/// [`ResultCache`](crate::exec::ResultCache) is consulted under the plan's
/// structural fingerprint and the exact table versions it embeds. A hit
/// returns the cached relation **and the stored work counters** — the same
/// per-query metrics are recorded either way, so deterministic work-unit
/// assertions hold with the cache on or off. A traced run neither probes
/// nor fills the cache: `EXPLAIN ANALYZE` always executes for real.
pub(crate) struct Ongoing;

impl Mode for Ongoing {
    type Output = OngoingRelation;

    fn run(
        self,
        db: &Database,
        phys: &PhysicalPlan,
        cfg: &PlannerConfig,
        ctx: &ExecContext,
    ) -> Result<(OngoingRelation, ExecStats)> {
        let cache = db.result_cache();
        if cache.budget() == 0 || ctx.trace.is_some() {
            return phys.execute_with_stats(ctx);
        }
        let obs = db.observability();
        let key = rescache::plan_fingerprint(phys, cfg);
        let deps = rescache::plan_tables(phys);
        if let Some(hit) = cache.lookup(&key, &deps, obs) {
            return Ok(hit);
        }
        let (rel, stats) = phys.execute_with_stats(ctx)?;
        let deps = deps.iter().map(Arc::downgrade).collect();
        cache.insert(key, deps, &rel, stats, obs);
        Ok((rel, stats))
    }
}

/// Instantiated execution at a reference time — Clifford's baseline. The
/// result is the sorted, deduplicated [`FixedRelation`], valid only at
/// that `rt`, so it is never cached. `rt = ∞` is
/// [`EngineError::InfiniteReferenceTime`].
pub(crate) struct At(pub(crate) TimePoint);

impl Mode for At {
    type Output = FixedRelation;

    fn run(
        self,
        _: &Database,
        phys: &PhysicalPlan,
        _: &PlannerConfig,
        ctx: &ExecContext,
    ) -> Result<(FixedRelation, ExecStats)> {
        phys.execute_at_with_stats(self.0, ctx)
    }
}

/// Executes an already-compiled physical plan under `cfg` in `mode` — the
/// one function that runs a compiled plan for a client: one-shot queries
/// in both modes, `EXPLAIN ANALYZE`, prepared statements, materialized
/// view refreshes and [`crate::execute`]/[`crate::execute_at`]. Every
/// successful run records the same per-query metrics under `label`, and
/// pool scheduling events, through the database's observability layer;
/// deadline and cancellation failures land in its event log.
pub(crate) fn execute_compiled<M: Mode>(
    db: &Database,
    phys: &PhysicalPlan,
    cfg: &PlannerConfig,
    label: &str,
    mode: M,
    trace: Option<Arc<TraceCollector>>,
) -> Result<(M::Output, ExecStats)> {
    let obs = db.observability();
    let start = Instant::now();
    let mut ctx = cfg.exec_context().with_events(Arc::clone(&obs.events));
    ctx.trace = trace;
    match mode.run(db, phys, cfg, &ctx) {
        Ok((out, stats)) => {
            db.record_query(label, &stats, start.elapsed());
            Ok((out, stats))
        }
        Err(e) => {
            let context = label.to_string();
            let event = match e {
                EngineError::DeadlineExceeded => Some(EngineEvent::DeadlineExceeded { context }),
                EngineError::Cancelled => Some(EngineEvent::Cancelled { context }),
                _ => None,
            };
            if let Some(event) = event {
                obs.events.record(event);
            }
            Err(e)
        }
    }
}

/// Compiles a parsed query, executes it through [`execute_compiled`] under
/// a trace collector, and renders the span tree against the planner
/// estimates.
fn analyze_query(
    db: &Database,
    q: &Query,
    cfg: &PlannerConfig,
    label: &str,
) -> Result<ExplainReport> {
    let phys = compile_query(db, q, cfg)?;
    let tracer = Arc::new(TraceCollector::new());
    let start = Instant::now();
    let (rel, stats) = execute_compiled(db, &phys, cfg, label, Ongoing, Some(Arc::clone(&tracer)))?;
    let wall = start.elapsed();
    let root = tracer
        .finish()
        .pop()
        .ok_or_else(|| EngineError::Plan("trace produced no root span".into()))?;
    Ok(ExplainReport {
        text: phys.explain_analyzed(&root),
        root,
        stats,
        rows: rel.len() as u64,
        wall_ns: wall.as_nanos() as u64,
    })
}

fn plan(db: &Database, q: &Query) -> Result<LogicalPlan> {
    match q {
        Query::Select(s) => plan_select(db, s),
        Query::Union(l, r) => {
            let left = plan(db, l)?;
            let right = plan(db, r)?;
            check_compatible(&left, &right, "UNION")?;
            Ok(LogicalPlan::Union {
                left: Box::new(left),
                right: Box::new(right),
            })
        }
        Query::Except(l, r) => {
            let left = plan(db, l)?;
            let right = plan(db, r)?;
            check_compatible(&left, &right, "EXCEPT")?;
            Ok(LogicalPlan::Difference {
                left: Box::new(left),
                right: Box::new(right),
            })
        }
    }
}

fn check_compatible(l: &LogicalPlan, r: &LogicalPlan, op: &str) -> Result<()> {
    if !l.schema().compatible_with(&r.schema()) {
        return Err(EngineError::Plan(format!(
            "{op} requires type-compatible inputs ({} vs {})",
            l.schema(),
            r.schema()
        )));
    }
    Ok(())
}

fn plan_select(db: &Database, s: &SelectStmt) -> Result<LogicalPlan> {
    // Single table without alias keeps plain names; anything else gets
    // qualified bindings so self-joins resolve unambiguously.
    let qualify = !s.joins.is_empty() || s.from.alias.is_some();
    let mut builder = if qualify {
        QueryBuilder::scan_as(db, &s.from.table, s.from.binding())?
    } else {
        QueryBuilder::scan(db, &s.from.table)?
    };
    for (t, on) in &s.joins {
        let right = QueryBuilder::scan_as(db, &t.table, t.binding())?;
        let on = on.clone();
        builder = builder.join(right, move |schema| {
            resolve(&on, schema).map_err(|e| match e {
                EngineError::Schema(se) => se,
                other => ongoing_relation::SchemaError::Mismatch(other.to_string()),
            })
        })?;
    }
    if let Some(w) = &s.where_clause {
        let w = w.clone();
        builder = builder.filter(move |schema| {
            resolve(&w, schema).map_err(|e| match e {
                EngineError::Schema(se) => se,
                other => ongoing_relation::SchemaError::Mismatch(other.to_string()),
            })
        })?;
    }
    if let Some(items) = &s.items {
        let schema = builder.schema().clone();
        let mut proj = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            let expr = resolve(&item.expr, &schema)?;
            match (&expr, &item.alias) {
                (Expr::Col(idx), None) => proj.push(ProjItem::Col(*idx)),
                (_, alias) => {
                    let name = alias.clone().unwrap_or_else(|| match &item.expr {
                        AstExpr::Col(_, n) => n.clone(),
                        _ => format!("col{}", i + 1),
                    });
                    proj.push(ProjItem::named(expr, name));
                }
            }
        }
        builder = builder.project(proj)?;
    }
    Ok(builder.build())
}

/// Resolves an AST expression against a schema.
fn resolve(ast: &AstExpr, schema: &Schema) -> Result<Expr> {
    Ok(match ast {
        AstExpr::Col(alias, name) => {
            let full = match alias {
                Some(a) => format!("{a}.{name}"),
                None => name.clone(),
            };
            Expr::Col(schema.index_of(&full)?)
        }
        AstExpr::Lit(v) => Expr::Const(v.clone()),
        AstExpr::Cmp(op, l, r) => Expr::Cmp(
            *op,
            Box::new(resolve(l, schema)?),
            Box::new(resolve(r, schema)?),
        ),
        AstExpr::Temporal(p, l, r) => Expr::Temporal(
            *p,
            Box::new(resolve(l, schema)?),
            Box::new(resolve(r, schema)?),
        ),
        AstExpr::And(l, r) => resolve(l, schema)?.and(resolve(r, schema)?),
        AstExpr::Or(l, r) => resolve(l, schema)?.or(resolve(r, schema)?),
        AstExpr::Not(e) => resolve(e, schema)?.not(),
        AstExpr::Intersection(l, r) => resolve(l, schema)?.intersect(resolve(r, schema)?),
        AstExpr::Start(e) => resolve(e, schema)?.start_point(),
        AstExpr::End(e) => resolve(e, schema)?.end_point(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ongoing_core::date::md;
    use ongoing_core::{IntervalSet, OngoingInterval};
    use ongoing_relation::{OngoingRelation, Value};

    fn fig1_db() -> Database {
        let db = Database::new();
        let mut b =
            OngoingRelation::new(Schema::builder().int("BID").str("C").interval("VT").build());
        b.insert(vec![
            Value::Int(500),
            Value::str("Spam filter"),
            Value::Interval(OngoingInterval::from_until_now(md(1, 25))),
        ])
        .unwrap();
        b.insert(vec![
            Value::Int(501),
            Value::str("Spam filter"),
            Value::Interval(OngoingInterval::fixed(md(3, 30), md(8, 21))),
        ])
        .unwrap();
        db.create_table("B", b).unwrap();
        let mut p =
            OngoingRelation::new(Schema::builder().int("PID").str("C").interval("VT").build());
        p.insert(vec![
            Value::Int(201),
            Value::str("Spam filter"),
            Value::Interval(OngoingInterval::fixed(md(8, 15), md(8, 24))),
        ])
        .unwrap();
        p.insert(vec![
            Value::Int(202),
            Value::str("Spam filter"),
            Value::Interval(OngoingInterval::fixed(md(8, 24), md(8, 27))),
        ])
        .unwrap();
        db.create_table("P", p).unwrap();
        let mut l = OngoingRelation::new(
            Schema::builder()
                .str("Name")
                .str("C")
                .interval("VT")
                .build(),
        );
        l.insert(vec![
            Value::str("Ann"),
            Value::str("Spam filter"),
            Value::Interval(OngoingInterval::fixed(md(1, 20), md(8, 18))),
        ])
        .unwrap();
        l.insert(vec![
            Value::str("Bob"),
            Value::str("Spam filter"),
            Value::Interval(OngoingInterval::from_until_now(md(8, 18))),
        ])
        .unwrap();
        db.create_table("L", l).unwrap();
        db
    }

    #[test]
    fn running_example_via_sql_reproduces_fig_2() {
        let db = fig1_db();
        let v = query(
            &db,
            "SELECT B.BID, B.VT, P.PID, L.Name, INTERSECTION(B.VT, L.VT) AS Resp \
             FROM B JOIN P ON B.C = P.C AND B.VT BEFORE P.VT \
             JOIN L ON B.C = L.C AND B.VT OVERLAPS L.VT \
             WHERE B.C = 'Spam filter'",
        )
        .unwrap();
        assert_eq!(v.len(), 5);
        // Spot-check v1's reference time {[01/26, 08/16)}.
        let v1 = v
            .iter()
            .find(|t| {
                t.value(0) == &Value::Int(500)
                    && t.value(2) == &Value::Int(201)
                    && t.value(3).as_str() == Some("Ann")
            })
            .unwrap();
        assert_eq!(v1.rt(), &IntervalSet::range(md(1, 26), md(8, 16)));
    }

    #[test]
    fn where_with_period_literal() {
        let db = fig1_db();
        let r = query(
            &db,
            "SELECT BID FROM B WHERE VT OVERLAPS PERIOD(DATE '2019-08-01', DATE '2019-09-01')",
        )
        .unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn select_star_and_union_except() {
        let db = fig1_db();
        let u = query(
            &db,
            "SELECT BID FROM B WHERE BID = 500 UNION SELECT BID FROM B WHERE BID = 501",
        )
        .unwrap();
        assert_eq!(u.len(), 2);
        let e = query(
            &db,
            "SELECT BID FROM B EXCEPT SELECT BID FROM B WHERE BID = 501",
        )
        .unwrap();
        assert_eq!(e.len(), 1);
        assert_eq!(e.iter().next().unwrap().value(0), &Value::Int(500));
        let all = query(&db, "SELECT * FROM B").unwrap();
        assert_eq!(all.schema().len(), 3);
    }

    #[test]
    fn start_end_now_predicates() {
        let db = fig1_db();
        // Bugs whose (ongoing) start lies before 2019-06-01 at every rt.
        let r = query(&db, "SELECT BID FROM B WHERE START(VT) < DATE '2019-06-01'").unwrap();
        assert_eq!(r.len(), 2);
        // now <= end: restricts RT for the fixed-interval bug.
        let r = query(&db, "SELECT BID FROM B WHERE NOW <= END(VT)").unwrap();
        let b501 = r.iter().find(|t| t.value(0) == &Value::Int(501)).unwrap();
        assert!(b501.rt().contains(md(8, 21)));
        assert!(!b501.rt().contains(md(8, 22)));
    }

    #[test]
    fn unknown_table_and_column_errors() {
        let db = fig1_db();
        assert!(matches!(
            plan_query(&db, "SELECT * FROM nope"),
            Err(EngineError::UnknownTable(_))
        ));
        let e = plan_query(&db, "SELECT nope FROM B").unwrap_err();
        assert!(e.to_string().contains("nope"), "{e}");
        let e = plan_query(&db, "SELECT * FROM B WHERE").unwrap_err();
        assert!(e.to_string().contains("parse error"), "{e}");
    }

    #[test]
    fn analyze_statement_collects_statistics() {
        let db = fig1_db();
        assert!(db.table("B").unwrap().statistics().is_none());
        // Targeted ANALYZE touches only the named table.
        match run_statement(&db, "ANALYZE B").unwrap() {
            StatementResult::Analyzed(v) => {
                assert_eq!(v.len(), 1);
                assert_eq!(v[0].0, "B");
                assert_eq!(v[0].1.rows, 2);
            }
            other => panic!("expected Analyzed, got {other:?}"),
        }
        assert!(db.table("B").unwrap().statistics().is_some());
        assert!(db.table("P").unwrap().statistics().is_none());
        // Bare ANALYZE covers every table.
        match run_statement(&db, "ANALYZE").unwrap() {
            StatementResult::Analyzed(v) => {
                let names: Vec<&str> = v.iter().map(|(n, _)| n.as_str()).collect();
                assert_eq!(names, ["B", "L", "P"]);
            }
            other => panic!("expected Analyzed, got {other:?}"),
        }
        assert!(db.table("P").unwrap().statistics().is_some());
        // Unknown tables error; queries still run through the same entry.
        assert!(run_statement(&db, "ANALYZE nope").is_err());
        match run_statement(&db, "SELECT BID FROM B").unwrap() {
            StatementResult::Rows(r) => assert_eq!(r.len(), 2),
            other => panic!("expected Rows, got {other:?}"),
        }
    }

    #[test]
    fn explain_statement_plans_without_executing() {
        let db = fig1_db();
        let text = match run_statement(&db, "EXPLAIN SELECT BID FROM B WHERE BID = 500").unwrap() {
            StatementResult::Explained(text) => text,
            other => panic!("expected Explained, got {other:?}"),
        };
        assert!(text.contains("est rows≈"), "{text}");
        assert!(
            !text.contains("wall="),
            "plain EXPLAIN must not execute: {text}"
        );
    }

    #[test]
    fn explain_analyze_three_way_join_reports_actuals() {
        let db = fig1_db();
        run_statement(&db, "ANALYZE").unwrap();
        let sql = "SELECT B.BID, P.PID, L.Name \
                   FROM B JOIN P ON B.C = P.C AND B.VT BEFORE P.VT \
                   JOIN L ON B.C = L.C AND B.VT OVERLAPS L.VT \
                   WHERE B.C = 'Spam filter'";
        let text = match run_statement(&db, &format!("EXPLAIN ANALYZE {sql}")).unwrap() {
            StatementResult::Explained(text) => text,
            other => panic!("expected Explained, got {other:?}"),
        };
        // Every operator line carries estimates and actuals side by side.
        for line in text.lines().filter(|l| l.contains("est rows≈")) {
            assert!(line.contains("rows="), "{line}");
            assert!(line.contains("work="), "{line}");
            assert!(line.contains("wall="), "{line}");
        }
        assert!(text.lines().filter(|l| l.contains("wall=")).count() >= 3);

        // The API twin reports totals that match a plain traced execution.
        let report = explain_analyze(&db, sql, &PlannerConfig::default()).unwrap();
        assert_eq!(report.rows, 5);
        assert_eq!(report.root.total_work, report.stats);
        let child_total: u64 = report
            .root
            .children
            .iter()
            .map(|c| c.total_work.total_work())
            .sum();
        assert_eq!(
            report.root.self_work.total_work() + child_total,
            report.stats.total_work()
        );
    }

    #[test]
    fn query_at_is_query_bound_at_rt() {
        let db = fig1_db();
        let rts = [
            TimePoint::NEG_INF,
            md(1, 1),
            md(1, 25),
            md(1, 26),
            md(8, 15),
            md(8, 16),
            md(8, 21),
            md(8, 22),
            md(12, 31),
            TimePoint::MAX_FINITE,
        ];
        for sql in [
            "SELECT B.BID, B.VT, P.PID, L.Name, INTERSECTION(B.VT, L.VT) AS Resp \
             FROM B JOIN P ON B.C = P.C AND B.VT BEFORE P.VT \
             JOIN L ON B.C = L.C AND B.VT OVERLAPS L.VT \
             WHERE B.C = 'Spam filter'",
            "SELECT BID FROM B WHERE VT OVERLAPS PERIOD(DATE '2019-08-01', DATE '2019-09-01')",
            "SELECT C FROM B UNION SELECT C FROM L",
            "SELECT BID FROM B EXCEPT SELECT BID FROM B WHERE NOW <= END(VT)",
            "SELECT * FROM L",
        ] {
            let ongoing = query(&db, sql).unwrap();
            for rt in rts {
                assert_eq!(
                    query_at(&db, sql, rt).unwrap(),
                    ongoing.bind(rt),
                    "{sql} at rt={rt}"
                );
            }
        }
    }

    #[test]
    fn incompatible_union_rejected() {
        let db = fig1_db();
        let e = plan_query(&db, "SELECT BID FROM B UNION SELECT C FROM B").unwrap_err();
        assert!(e.to_string().contains("UNION"), "{e}");
    }

    #[test]
    fn sql_matches_builder_plan_results() {
        let db = fig1_db();
        let via_sql = query(
            &db,
            "SELECT BID FROM B WHERE VT OVERLAPS PERIOD(DATE '2019-08-01', DATE '2019-09-01')",
        )
        .unwrap();
        let plan = crate::queries::selection(
            &db,
            "B",
            ongoing_core::allen::TemporalPredicate::Overlaps,
            (md(8, 1), md(9, 1)),
        )
        .unwrap();
        let via_builder = crate::execute(&db, &plan).unwrap();
        for rt in [md(2, 1), md(8, 15), md(12, 1)] {
            let sql_rows: Vec<_> = via_sql.bind(rt).rows().to_vec();
            let builder_rows: Vec<Vec<Value>> = via_builder
                .bind(rt)
                .rows()
                .iter()
                .map(|r| vec![r[0].clone()])
                .collect();
            assert_eq!(
                sql_rows, builder_rows,
                "SQL and builder plans must agree at rt={rt}"
            );
        }
    }
}
