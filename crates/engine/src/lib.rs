//! # ongoing-engine
//!
//! The relational engine substrate for ongoing databases — the role the
//! PostgreSQL 9.4 kernel plays in the paper's prototype (Sec. VIII):
//!
//! * a [`catalog`] of base ongoing relations — in-memory
//!   ([`Database::new`]) or durable ([`Database::open`]: write-ahead
//!   logged, checkpointed into immutable chunk files, crash-recoverable),
//! * a byte-accurate [`storage`] layer (tuple codec, checksummed chunk
//!   files, WAL + manifest, and the Table V layout model),
//! * logical [`plan`]s with an optimizer implementing the paper's
//!   fixed/ongoing predicate split, selection push-down and join algorithm
//!   choice,
//! * physical executors running in two modes — **ongoing** (results remain
//!   valid as time passes by) and **instantiated at `rt`** (the Clifford
//!   baseline),
//! * a [`stats`] subsystem — `ANALYZE`-collected per-table statistics
//!   (distinct counts, interval histograms, overlap density) feeding a
//!   work-unit cost model that drives the optimizer's join-strategy and
//!   index-scan choices,
//! * the state-of-the-art [`baseline`]s the evaluation compares against,
//! * [`matview`] materialized ongoing views with cheap instantiation, and
//! * the [`queries`] of the paper's evaluation section.
//!
//! ```
//! use ongoing_engine::{Database, ExecContext, QueryBuilder, PlannerConfig};
//! use ongoing_engine::plan::optimizer::compile;
//! use ongoing_core::{date::md, OngoingInterval};
//! use ongoing_relation::{Expr, OngoingRelation, Schema, Value};
//!
//! let db = Database::new();
//! let schema = Schema::builder().int("BID").str("C").interval("VT").build();
//! let mut bugs = OngoingRelation::new(schema);
//! bugs.insert(vec![
//!     Value::Int(500),
//!     Value::str("Spam filter"),
//!     Value::Interval(OngoingInterval::from_until_now(md(1, 25))),
//! ]).unwrap();
//! db.create_table("B", bugs).unwrap();
//!
//! let plan = QueryBuilder::scan(&db, "B").unwrap()
//!     .filter(|s| Ok(Expr::col(s, "C")?.eq(Expr::lit("Spam filter"))))
//!     .unwrap()
//!     .build();
//! let physical = compile(&db, &plan, &PlannerConfig::default()).unwrap();
//! let ctx = ExecContext::serial();
//!
//! // Ongoing execution: valid at every reference time.
//! let (ongoing, _stats) = physical.execute_with_stats(&ctx).unwrap();
//! assert_eq!(ongoing.len(), 1);
//!
//! // Instantiated execution (Clifford baseline): valid only at `rt`.
//! let (snapshot, _stats) = physical.execute_at_with_stats(md(8, 15), &ctx).unwrap();
//! assert_eq!(snapshot.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::disallowed_methods))]

pub mod baseline;
pub mod catalog;
pub mod error;
pub mod exec;
pub mod matview;
pub mod modify;
pub mod obs;
pub mod plan;
pub mod queries;
pub mod sql;
pub mod stats;
pub mod storage;

pub use catalog::{Database, Table};
pub use error::{EngineError, Result};
pub use exec::{
    ExecContext, ExecStats, QueryControl, ResultCache, WorkerPool, RESULT_CACHE_BUDGET_ENV,
    THREADS_ENV,
};
pub use matview::{MaterializedView, RefreshOutcome};
pub use obs::{
    EngineEvent, EventLog, EventRecord, MetricsRegistry, MetricsSnapshot, SpanNode, TraceCollector,
    EVENT_LOG_ENV, SLOW_QUERY_ENV,
};
pub use plan::{JoinStrategy, LogicalPlan, PhysicalPlan, PlannerConfig, QueryBuilder};
pub use sql::{explain_analyze, prepare, ExplainReport, Prepared, StatementResult};
pub use stats::TableStatistics;
pub use storage::durable::{DurableOptions, DurableStats};
pub use storage::{CacheStats, ChunkCache, DiskError, RealFs, Vfs};

use ongoing_core::TimePoint;
use ongoing_relation::{FixedRelation, OngoingRelation};

/// Reads the unsigned integer setting `var` (an `ONGOINGDB_*` variable)
/// from the environment; `None` when unset.
///
/// # Panics
/// If `var` is set to anything [`parse_setting`] rejects: a malformed
/// setting stops the process instead of silently meaning the default.
pub(crate) fn env_setting(var: &str) -> Option<u64> {
    let raw = std::env::var_os(var)?;
    Some(parse_setting(var, &raw.to_string_lossy()).unwrap_or_else(|e| panic!("{e}")))
}

/// Parses `raw`, the value of the unsigned integer setting `var`;
/// surrounding whitespace is ignored. Anything else — text, a unit
/// suffix, a negative or fractional number, an empty value — is an error
/// naming the variable and the value.
pub(crate) fn parse_setting(var: &str, raw: &str) -> std::result::Result<u64, String> {
    raw.trim()
        .parse()
        .map_err(|_| format!("{var} must be an unsigned integer, got `{raw}`"))
}

/// Compiles and executes a logical plan in ongoing mode with the default
/// planner configuration (auto parallelism — see [`ExecContext`]),
/// through the same seam as [`sql::query`]: per-query metrics are
/// recorded under the root operator's `EXPLAIN` line, and the result
/// cache is consulted.
pub fn execute(db: &Database, plan: &LogicalPlan) -> Result<OngoingRelation> {
    run_plan(db, plan, sql::Ongoing)
}

/// Compiles and executes a logical plan with the Clifford baseline:
/// ongoing attributes are instantiated at `rt` when accessed; the result
/// is valid only at `rt`, and is a set (sorted and deduplicated), like
/// [`sql::query_at`]. Metered like [`execute`], but never cached. `rt = ∞`
/// is [`EngineError::InfiniteReferenceTime`].
pub fn execute_at(db: &Database, plan: &LogicalPlan, rt: TimePoint) -> Result<FixedRelation> {
    run_plan(db, plan, sql::At(rt))
}

/// Compiles `plan` under the default configuration and runs it in `mode`
/// through the execution seam, labelled by its root operator.
fn run_plan<M: sql::Mode>(db: &Database, plan: &LogicalPlan, mode: M) -> Result<M::Output> {
    let cfg = PlannerConfig::default();
    let phys = plan::optimizer::compile(db, plan, &cfg)?;
    sql::execute_compiled(db, &phys, &cfg, &phys.node_line(), mode, None).map(|(out, _)| out)
}

#[cfg(test)]
mod tests {
    use super::parse_setting;

    #[test]
    fn settings_parse_unsigned_integers_or_name_the_variable() {
        for (raw, want) in [("0", 0), ("1048576", 1 << 20), (" 4\n", 4)] {
            assert_eq!(parse_setting("ONGOINGDB_THREADS", raw), Ok(want), "{raw:?}");
        }
        let max = u64::MAX.to_string();
        assert_eq!(parse_setting("ONGOINGDB_THREADS", &max), Ok(u64::MAX));
        for raw in [
            "",
            " ",
            "64MiB",
            "1e6",
            "-1",
            "1.5",
            "four",
            "18446744073709551616",
        ] {
            let err = parse_setting("ONGOINGDB_MEMORY_BUDGET", raw).unwrap_err();
            assert!(err.contains("ONGOINGDB_MEMORY_BUDGET"), "{raw:?}: {err}");
            assert!(err.contains(&format!("`{raw}`")), "{raw:?}: {err}");
        }
    }
}
