//! Prepared statements: parse once, plan once, execute many times.
//!
//! [`prepare`] parses an OngoingQL query into a [`Prepared`] handle that
//! caches the parsed AST for the lifetime of the handle and the resolved
//! physical plan for as long as it stays valid. A cached plan is reused
//! only when *nothing it depended on* has changed:
//!
//! - every referenced table still resolves to the **same** `Arc<Table>`
//!   (publications swap the table `Arc`, so a publication invalidates),
//! - every table's optimizer statistics are still the same
//!   `Arc<TableStatistics>` (an `ANALYZE` swaps the stats `Arc`, which can
//!   flip join-order or algorithm choices, so it invalidates too),
//! - the [`PlannerConfig`] is identical to the one the plan was compiled
//!   under.
//!
//! On mismatch the statement transparently replans — callers never see a
//! stale plan, only a cache miss. Hits and misses are counted in the
//! `ongoingdb_prepared_hits` / `ongoingdb_prepared_misses` metrics.

use crate::catalog::{Database, Table};
use crate::error::{EngineError, Result};
use crate::exec::ExecStats;
use crate::plan::{PhysicalPlan, PlannerConfig};
use crate::sql::ast::{Query, SelectStmt};
use crate::sql::{compile_query, execute_compiled, parser};
use crate::stats::TableStatistics;
use ongoing_relation::OngoingRelation;
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

/// Metric counting plan-cache hits across all prepared statements.
pub const PREPARED_HITS_METRIC: &str = "ongoingdb_prepared_hits";
/// Metric counting plan-cache misses (initial compiles and invalidations).
pub const PREPARED_MISSES_METRIC: &str = "ongoingdb_prepared_misses";

/// One table the cached plan was compiled against, pinned by identity.
#[derive(Debug)]
struct Dep {
    name: String,
    table: Arc<Table>,
    stats: Option<Arc<TableStatistics>>,
}

impl Dep {
    /// Still the exact table version (and stats version) we planned for?
    fn valid(&self, db: &Database) -> bool {
        match db.table(&self.name) {
            Ok(t) => {
                Arc::ptr_eq(&t, &self.table)
                    && match (t.statistics(), &self.stats) {
                        (Some(a), Some(b)) => Arc::ptr_eq(&a, b),
                        (None, None) => true,
                        _ => false,
                    }
            }
            Err(_) => false,
        }
    }
}

/// A compiled plan plus everything that must stay fixed for it to be valid.
#[derive(Debug)]
struct CachedPlan {
    /// Fingerprint of the [`PlannerConfig`] the plan was compiled under.
    cfg_key: String,
    deps: Vec<Dep>,
    phys: Arc<PhysicalPlan>,
}

/// A parsed, plan-caching query handle — see the [module docs](self).
///
/// `Prepared` is `Send + Sync`; clones of the wrapping `Arc` (or `&`
/// references from several threads) share one plan cache.
#[derive(Debug)]
pub struct Prepared {
    text: String,
    query: Query,
    cache: Mutex<Option<CachedPlan>>,
}

/// Parses `sql` into a [`Prepared`] statement and eagerly compiles its
/// plan against `db` under the default [`PlannerConfig`], so planning
/// errors (unknown tables, type mismatches) surface at prepare time rather
/// than first execution.
pub fn prepare(db: &Database, sql: &str) -> Result<Prepared> {
    let query = parser::parse(sql).map_err(|e| EngineError::Plan(e.to_string()))?;
    let prepared = Prepared {
        text: sql.to_string(),
        query,
        cache: Mutex::new(None),
    };
    prepared.plan_for(db, &PlannerConfig::default())?;
    Ok(prepared)
}

impl Prepared {
    /// The original query text.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Executes under the default [`PlannerConfig`], reusing the cached
    /// plan when still valid. Records per-query metrics exactly like
    /// [`crate::sql::query`].
    pub fn execute(&self, db: &Database) -> Result<OngoingRelation> {
        self.execute_with(db, &PlannerConfig::default())
            .map(|(rel, _)| rel)
    }

    /// [`execute`](Self::execute) under an explicit configuration,
    /// returning the deterministic work-unit stats alongside the rows.
    pub fn execute_with(
        &self,
        db: &Database,
        cfg: &PlannerConfig,
    ) -> Result<(OngoingRelation, ExecStats)> {
        let phys = self.plan_for(db, cfg)?;
        execute_compiled(db, &phys, cfg, &self.text, None)
    }

    /// Returns the cached physical plan if the database still matches the
    /// versions it was compiled against, else replans and refills the
    /// cache. Counts a hit or miss either way.
    fn plan_for(&self, db: &Database, cfg: &PlannerConfig) -> Result<Arc<PhysicalPlan>> {
        let cfg_key = format!("{cfg:?}");
        // A panicking sibling (poisoned lock) leaves at worst a valid-but-
        // stale cached plan, and staleness is re-checked below anyway —
        // recover the guard instead of poisoning every later execution.
        let mut guard = self.cache.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(cached) = guard.as_ref() {
            if cached.cfg_key == cfg_key && cached.deps.iter().all(|d| d.valid(db)) {
                db.observability()
                    .metrics
                    .counter(PREPARED_HITS_METRIC)
                    .inc();
                return Ok(Arc::clone(&cached.phys));
            }
        }
        db.observability()
            .metrics
            .counter(PREPARED_MISSES_METRIC)
            .inc();
        let phys = Arc::new(compile_query(db, &self.query, cfg)?);
        let mut deps = Vec::new();
        for name in table_names(&self.query) {
            let table = db.table(&name)?;
            let stats = table.statistics();
            deps.push(Dep { name, table, stats });
        }
        *guard = Some(CachedPlan {
            cfg_key,
            deps,
            phys: Arc::clone(&phys),
        });
        Ok(phys)
    }
}

/// Every catalog table name a query references (deduplicated, ordered).
fn table_names(q: &Query) -> BTreeSet<String> {
    fn walk(q: &Query, out: &mut BTreeSet<String>) {
        match q {
            Query::Select(s) => select_names(s, out),
            Query::Union(l, r) | Query::Except(l, r) => {
                walk(l, out);
                walk(r, out);
            }
        }
    }
    fn select_names(s: &SelectStmt, out: &mut BTreeSet<String>) {
        out.insert(s.from.table.clone());
        for (t, _) in &s.joins {
            out.insert(t.table.clone());
        }
    }
    let mut out = BTreeSet::new();
    walk(q, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ongoing_relation::{Schema, Value};

    fn small_db() -> Database {
        let db = Database::new();
        let mut b = OngoingRelation::new(Schema::builder().int("BID").str("C").build());
        b.insert(vec![Value::Int(1), Value::str("x")]).unwrap();
        b.insert(vec![Value::Int(2), Value::str("y")]).unwrap();
        db.create_table("B", b).unwrap();
        let mut p = OngoingRelation::new(Schema::builder().int("PID").str("C").build());
        p.insert(vec![Value::Int(10), Value::str("x")]).unwrap();
        db.create_table("P", p).unwrap();
        db
    }

    fn counter(db: &Database, name: &str) -> u64 {
        db.metrics_snapshot().value(name)
    }

    #[test]
    fn repeated_execution_hits_the_plan_cache() {
        let db = small_db();
        let stmt = prepare(&db, "SELECT BID FROM B WHERE BID = 1").unwrap();
        assert_eq!(counter(&db, PREPARED_MISSES_METRIC), 1);
        for _ in 0..3 {
            let rows = stmt.execute(&db).unwrap();
            assert_eq!(rows.len(), 1);
        }
        assert_eq!(counter(&db, PREPARED_MISSES_METRIC), 1);
        assert_eq!(counter(&db, PREPARED_HITS_METRIC), 3);
    }

    #[test]
    fn analyze_invalidates_the_cached_plan() {
        let db = small_db();
        let stmt = prepare(&db, "SELECT B.BID FROM B JOIN P ON B.C = P.C").unwrap();
        stmt.execute(&db).unwrap();
        assert_eq!(counter(&db, PREPARED_HITS_METRIC), 1);
        // New statistics may change the chosen join strategy: must replan.
        db.analyze("B").unwrap();
        stmt.execute(&db).unwrap();
        assert_eq!(counter(&db, PREPARED_MISSES_METRIC), 2);
        // And the refreshed cache is hit again afterwards.
        stmt.execute(&db).unwrap();
        assert_eq!(counter(&db, PREPARED_HITS_METRIC), 2);
    }

    #[test]
    fn publication_invalidates_the_cached_plan() {
        let db = small_db();
        let stmt = prepare(&db, "SELECT BID FROM B").unwrap();
        assert_eq!(stmt.execute(&db).unwrap().len(), 2);
        assert_eq!(counter(&db, PREPARED_HITS_METRIC), 1);
        // A publication swaps the table Arc; the next execute must replan
        // and see the new row.
        db.modify_table("B", |rel| {
            rel.insert(vec![Value::Int(3), Value::str("z")])?;
            Ok(())
        })
        .unwrap();
        assert_eq!(stmt.execute(&db).unwrap().len(), 3);
        assert_eq!(counter(&db, PREPARED_MISSES_METRIC), 2);
    }

    #[test]
    fn config_change_invalidates_the_cached_plan() {
        let db = small_db();
        let stmt = prepare(&db, "SELECT BID FROM B").unwrap();
        let misses = counter(&db, PREPARED_MISSES_METRIC);
        let cfg = PlannerConfig {
            parallelism: 2,
            ..PlannerConfig::default()
        };
        stmt.execute_with(&db, &cfg).unwrap();
        assert_eq!(counter(&db, PREPARED_MISSES_METRIC), misses + 1);
        // Same config again: hit.
        stmt.execute_with(&db, &cfg).unwrap();
        assert_eq!(counter(&db, PREPARED_HITS_METRIC), 1);
    }

    #[test]
    fn poisoned_plan_cache_recovers() {
        let db = small_db();
        let stmt = Arc::new(prepare(&db, "SELECT BID FROM B").unwrap());
        // Poison the cache lock: a thread panics while holding the guard.
        let s = Arc::clone(&stmt);
        let joined = std::thread::spawn(move || {
            let _guard = s.cache.lock().unwrap();
            panic!("poison the prepared-plan cache");
        })
        .join();
        assert!(joined.is_err());
        assert!(stmt.cache.is_poisoned());
        // The statement keeps working — and keeps serving cache hits,
        // because the poisoned guard held a perfectly valid plan.
        let hits = counter(&db, PREPARED_HITS_METRIC);
        assert_eq!(stmt.execute(&db).unwrap().len(), 2);
        assert_eq!(counter(&db, PREPARED_HITS_METRIC), hits + 1);
    }

    #[test]
    fn prepare_rejects_unknown_tables_eagerly() {
        let db = small_db();
        assert!(prepare(&db, "SELECT * FROM nope").is_err());
        assert!(prepare(&db, "SELECT * FROM B WHERE").is_err());
    }
}
