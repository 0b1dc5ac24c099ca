//! Materialized ongoing views (Sec. IX-C).
//!
//! An ongoing query result does not get invalidated by time passing by, so
//! it can be materialized once and *instantiated* at any number of
//! reference times with a cheap bind pass — no query re-evaluation. This is
//! how applications that do not want to handle ongoing relations explicitly
//! still benefit: compute the ongoing result once, then serve instantiated
//! snapshots at whatever reference times are asked for.
//!
//! The Fig. 11/12 experiments measure the *amortization point*: after how
//! many instantiated snapshots the (more expensive) ongoing evaluation plus
//! cheap binds beats Clifford's re-evaluation per reference time.
//!
//! A view computes its result through the same seam as every client query
//! (`sql::execute_compiled`, labelled `matview:<name>`), and instantiates
//! it with [`OngoingRelation::bind_rows`], the one bind of a relation.

use crate::catalog::{Database, Table};
use crate::error::{EngineError, Result};
use crate::exec::rescache;
use crate::plan::{compile, LogicalPlan, PlannerConfig};
use crate::sql::{execute_compiled, Ongoing};
use ongoing_core::TimePoint;
use ongoing_relation::{FixedRelation, OngoingRelation};
use std::sync::Arc;

/// What a [`MaterializedView::refresh`] actually did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefreshOutcome {
    /// Every referenced table is still the exact version (`Arc` identity)
    /// the stored result was computed against — the view is already
    /// current, and no planning or executor work was performed.
    Unchanged,
    /// At least one referenced table was republished; the view re-executed
    /// its defining plan.
    Recomputed,
}

/// A materialized ongoing view: the defining plan plus its ongoing result.
#[derive(Debug)]
pub struct MaterializedView {
    name: String,
    plan: LogicalPlan,
    config: PlannerConfig,
    result: OngoingRelation,
    /// The exact table versions the stored result was computed against,
    /// by name. Version identity is the table `Arc` (a publication swaps
    /// it), so checking freshness is one pointer comparison per table.
    deps: Vec<(String, Arc<Table>)>,
}

impl MaterializedView {
    /// Creates the view by executing `plan` in ongoing mode under the
    /// configuration's execution context (its `parallelism` knob applies).
    /// Runs through the database's result cache, so re-creating a view
    /// over unchanged tables reuses a cached result.
    pub fn create(
        db: &Database,
        name: &str,
        plan: LogicalPlan,
        config: PlannerConfig,
    ) -> Result<Self> {
        let (result, deps) = compute(db, name, &plan, &config)?;
        Ok(MaterializedView {
            name: name.to_string(),
            plan,
            config,
            result,
            deps,
        })
    }

    /// The view name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The defining plan.
    pub fn plan(&self) -> &LogicalPlan {
        &self.plan
    }

    /// The materialized ongoing result. Remains valid as time passes by —
    /// it only needs a [`refresh`](Self::refresh) after explicit database
    /// modifications.
    pub fn result(&self) -> &OngoingRelation {
        &self.result
    }

    /// Brings the view up to date after base-table modifications.
    ///
    /// When every referenced table still carries the exact version the
    /// stored result was computed against (checked by `Arc` identity, the
    /// paper's O(1) version test), the stored result is *already* correct —
    /// ongoing results do not decay with time — and refresh returns
    /// [`RefreshOutcome::Unchanged`] in O(#tables) without planning or
    /// executing anything. Otherwise the plan re-executes (through the
    /// result cache, so repeated refreshes over the same new versions are
    /// also cheap).
    pub fn refresh(&mut self, db: &Database) -> Result<RefreshOutcome> {
        let fresh = !self.deps.is_empty()
            && self
                .deps
                .iter()
                .all(|(name, dep)| matches!(db.table(name), Ok(t) if Arc::ptr_eq(&t, dep)));
        if fresh {
            return Ok(RefreshOutcome::Unchanged);
        }
        let (result, deps) = compute(db, &self.name, &self.plan, &self.config)?;
        self.result = result;
        self.deps = deps;
        Ok(RefreshOutcome::Recomputed)
    }

    /// Instantiates the materialized result at `rt` — a single bind pass
    /// over the stored tuples, no query evaluation. A result that shares
    /// cold chunks with a table is read one transient pin at a time (see
    /// [`OngoingRelation::bind_rows`]), so it stays cold. `rt = ∞` is
    /// [`EngineError::InfiniteReferenceTime`]: no tuple's `RT` contains it.
    pub fn instantiate(&self, rt: TimePoint) -> Result<FixedRelation> {
        if rt.is_pos_inf() {
            return Err(EngineError::InfiniteReferenceTime);
        }
        Ok(FixedRelation::from_rows(self.result.bind_rows(rt)?))
    }

    /// Number of materialized (ongoing) tuples.
    pub fn len(&self) -> usize {
        self.result.len()
    }

    /// Is the view empty?
    pub fn is_empty(&self) -> bool {
        self.result.is_empty()
    }
}

/// The table versions a view was computed against, by name.
type ViewDeps = Vec<(String, Arc<Table>)>;

/// Compiles and executes the defining plan through the shared SQL execution
/// seam — per-query metrics under the label `matview:<name>`, result cache
/// consulted — and captures the exact table versions the compiled plan
/// embeds as the view's dependency set.
fn compute(
    db: &Database,
    name: &str,
    plan: &LogicalPlan,
    config: &PlannerConfig,
) -> Result<(OngoingRelation, ViewDeps)> {
    let phys = compile(db, plan, config)?;
    let deps = rescache::plan_tables(&phys)
        .into_iter()
        .map(|t| (t.name().to_string(), t))
        .collect();
    let label = format!("matview:{name}");
    let (result, _stats) = execute_compiled(db, &phys, config, &label, Ongoing, None)?;
    Ok((result, deps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QueryBuilder;
    use ongoing_core::date::md;
    use ongoing_core::OngoingInterval;
    use ongoing_relation::{Expr, Schema, Value};

    fn setup() -> Database {
        let db = Database::new();
        let schema = Schema::builder().int("BID").str("C").interval("VT").build();
        let mut b = OngoingRelation::new(schema);
        b.insert(vec![
            Value::Int(500),
            Value::str("Spam filter"),
            Value::Interval(OngoingInterval::from_until_now(md(1, 25))),
        ])
        .unwrap();
        b.insert(vec![
            Value::Int(501),
            Value::str("Search"),
            Value::Interval(OngoingInterval::fixed(md(3, 30), md(8, 21))),
        ])
        .unwrap();
        db.create_table("B", b).unwrap();
        db
    }

    fn overlap_plan(db: &Database) -> LogicalPlan {
        QueryBuilder::scan(db, "B")
            .unwrap()
            .filter(|s| {
                Ok(Expr::col(s, "VT")?.overlaps(Expr::lit(Value::Interval(
                    OngoingInterval::fixed(md(8, 1), md(9, 1)),
                ))))
            })
            .unwrap()
            .build()
    }

    #[test]
    fn instantiation_matches_clifford_at_every_rt() {
        let db = setup();
        let view = MaterializedView::create(&db, "v", overlap_plan(&db), PlannerConfig::default())
            .unwrap();
        for rt in [md(1, 1), md(4, 1), md(8, 2), md(8, 15), md(12, 24)] {
            let via_view = view.instantiate(rt).unwrap();
            let via_clifford = crate::execute_at(&db, view.plan(), rt).unwrap();
            assert_eq!(via_view, via_clifford, "rt={rt}");
        }
    }

    #[test]
    fn refresh_picks_up_modifications() {
        let db = setup();
        let mut view =
            MaterializedView::create(&db, "v", overlap_plan(&db), PlannerConfig::default())
                .unwrap();
        let before = view.len();
        // Add another overlapping bug and refresh.
        let t = db.table("B").unwrap();
        let mut data = t.data().clone();
        data.insert(vec![
            Value::Int(502),
            Value::str("Spam filter"),
            Value::Interval(OngoingInterval::from_until_now(md(8, 5))),
        ])
        .unwrap();
        db.put_table("B", data).unwrap();
        assert_eq!(view.refresh(&db).unwrap(), RefreshOutcome::Recomputed);
        assert_eq!(view.len(), before + 1);
    }

    #[test]
    fn refresh_over_unchanged_versions_does_no_work() {
        let db = setup();
        let mut view =
            MaterializedView::create(&db, "v", overlap_plan(&db), PlannerConfig::default())
                .unwrap();
        let queries = |db: &Database| db.metrics_snapshot().value("ongoingdb_queries");
        let before = queries(&db);
        // No publication happened: the stored result is already current.
        for _ in 0..3 {
            assert_eq!(view.refresh(&db).unwrap(), RefreshOutcome::Unchanged);
        }
        // The fast path recorded no query and ran no executor work at all.
        assert_eq!(queries(&db), before);
        assert!(!view.is_empty());
    }

    #[test]
    fn view_metadata() {
        let db = setup();
        let view = MaterializedView::create(&db, "v", overlap_plan(&db), PlannerConfig::default())
            .unwrap();
        assert_eq!(view.name(), "v");
        assert!(!view.is_empty());
    }
}
