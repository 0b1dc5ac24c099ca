//! Execution support: the execution context, the shared worker pool
//! and its fair morsel scheduler, the result cache, and work-unit stats.

pub mod context;
pub(crate) mod keyed;
pub mod pool;
pub mod rescache;
pub(crate) mod sched;
pub mod stats;

pub use context::{ExecContext, THREADS_ENV};
pub use pool::{PoolSession, WorkerPool};
pub use rescache::{
    ResultCache, DEFAULT_RESULT_CACHE_BUDGET, RESULT_CACHE_BUDGET_ENV, RESULT_CACHE_BYTES_METRIC,
    RESULT_CACHE_EVICTIONS_METRIC, RESULT_CACHE_HITS_METRIC, RESULT_CACHE_MISSES_METRIC,
};
pub use stats::ExecStats;
