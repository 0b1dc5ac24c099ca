//! Unified observability: the metrics registry, per-query trace spans,
//! and the structured event log.
//!
//! Everything the engine already counted — [`ExecStats`]
//! work units, [`DurableStats`](crate::DurableStats) WAL/chunk/cache
//! counters, the store's `write_work`/`qual_work`, writer-gate waits —
//! surfaces here under stable metric names through one snapshot API
//! ([`Database::metrics_snapshot`](crate::Database::metrics_snapshot) /
//! [`Database::metrics_text`](crate::Database::metrics_text)). The typed
//! structs stay exactly as they were; the registry is a view over them
//! plus the engine-level counters recorded directly.
//!
//! * [`metrics`] — named atomic counters/gauges/log-bucketed histograms,
//!   [`MetricsSnapshot`] with delta computation, Prometheus-style text
//!   exposition.
//! * [`trace`] — the [`SpanNode`] tree behind `EXPLAIN ANALYZE`, plus the
//!   single renderer all `explain*` variants share.
//! * [`events`] — the bounded [`EventLog`] ring of typed [`EngineEvent`]s
//!   with an optional JSONL sink through the `Vfs` seam.

pub mod events;
pub mod metrics;
pub mod trace;

pub use events::{EngineEvent, EventLog, EventRecord, DEFAULT_EVENT_CAPACITY};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricValue, MetricsRegistry, MetricsSnapshot,
};
pub use trace::{SpanNode, TraceCollector};

use crate::exec::ExecStats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Environment variable: slow-query threshold in milliseconds. Queries at
/// or above it land in the event log as [`EngineEvent::SlowQuery`]; `0`
/// logs every query. Unset defaults to
/// [`DEFAULT_SLOW_QUERY_MS`].
pub const SLOW_QUERY_ENV: &str = "ONGOINGDB_SLOW_QUERY_MS";

/// Environment variable: path of a JSONL event-log sink. When set, every
/// recorded event is appended to this file as one JSON object per line.
pub const EVENT_LOG_ENV: &str = "ONGOINGDB_EVENT_LOG";

/// Default slow-query threshold (milliseconds) when
/// [`SLOW_QUERY_ENV`] is unset.
pub const DEFAULT_SLOW_QUERY_MS: u64 = 250;

/// Stable names of the per-query executor work-unit counters, in
/// [`ExecStats`] field order. These are the deterministic metrics: their
/// values depend only on the data and the plan, never on thread count or
/// wall clock.
pub const EXEC_METRIC_NAMES: [&str; 5] = [
    "ongoingdb_exec_tuples_scanned",
    "ongoingdb_exec_tuples_filtered",
    "ongoingdb_exec_pairs_compared",
    "ongoingdb_exec_index_candidates",
    "ongoingdb_exec_intervals_merged",
];

/// Stable names of the tuple-store work gauges, in
/// [`StoreWork`](ongoing_relation::StoreWork) field order. Summed over
/// every resident table at snapshot time; deterministic like the executor
/// counters.
pub const STORE_METRIC_NAMES: [&str; 3] = [
    "ongoingdb_store_write_work",
    "ongoingdb_store_logical_writes",
    "ongoingdb_store_qual_work",
];

/// Stable names of the durability metrics, in
/// [`DurableStats`](crate::DurableStats) field order.
pub const DURABLE_METRIC_NAMES: [&str; 12] = [
    "ongoingdb_wal_records",
    "ongoingdb_wal_bytes",
    "ongoingdb_wal_tuples",
    "ongoingdb_chunk_files",
    "ongoingdb_chunk_tuples",
    "ongoingdb_tuples_loaded",
    "ongoingdb_checkpoints",
    "ongoingdb_cache_hits",
    "ongoingdb_cache_misses",
    "ongoingdb_cache_evictions",
    "ongoingdb_cache_resident_bytes",
    "ongoingdb_cache_peak_bytes",
];

/// One observability bundle per [`Database`](crate::Database): the
/// registry, the event ring, and the slow-query threshold.
#[derive(Debug)]
pub struct Obs {
    /// The metrics registry.
    pub metrics: MetricsRegistry,
    /// The event ring (shared with the storage layer's hooks).
    pub events: Arc<EventLog>,
    slow_query_ns: AtomicU64,
}

impl Default for Obs {
    fn default() -> Self {
        Obs::from_env()
    }
}

impl Obs {
    /// A bundle configured from the environment: slow-query threshold from
    /// [`SLOW_QUERY_ENV`], JSONL sink from [`EVENT_LOG_ENV`] (through the
    /// real filesystem). Core metric names are registered eagerly so the
    /// exposition lists them even before first use.
    pub fn from_env() -> Obs {
        let slow_ms = crate::env_setting(SLOW_QUERY_ENV).unwrap_or(DEFAULT_SLOW_QUERY_MS);
        let obs = Obs {
            metrics: MetricsRegistry::new(),
            events: Arc::new(EventLog::default()),
            slow_query_ns: AtomicU64::new(slow_ms.saturating_mul(1_000_000)),
        };
        if let Ok(path) = std::env::var(EVENT_LOG_ENV) {
            if !path.trim().is_empty() {
                obs.events
                    .set_sink(Arc::new(crate::storage::vfs::RealFs), path.trim());
            }
        }
        for name in EXEC_METRIC_NAMES {
            obs.metrics.counter(name);
        }
        obs.metrics.counter("ongoingdb_queries");
        obs.metrics.counter("ongoingdb_publications");
        obs.metrics.counter("ongoingdb_wal_fault_retries");
        obs.metrics.counter("ongoingdb_slow_queries");
        obs.metrics.counter("ongoingdb_prepared_hits");
        obs.metrics.counter("ongoingdb_prepared_misses");
        obs.metrics.counter(crate::exec::RESULT_CACHE_HITS_METRIC);
        obs.metrics.counter(crate::exec::RESULT_CACHE_MISSES_METRIC);
        obs.metrics
            .counter(crate::exec::RESULT_CACHE_EVICTIONS_METRIC);
        obs.metrics.gauge(crate::exec::RESULT_CACHE_BYTES_METRIC);
        obs.metrics.histogram("ongoingdb_writer_wait_us");
        obs.metrics.histogram("ongoingdb_query_wall_us");
        obs
    }

    /// The slow-query threshold in nanoseconds.
    pub fn slow_query_ns(&self) -> u64 {
        self.slow_query_ns.load(Ordering::Relaxed)
    }

    /// Overrides the slow-query threshold (milliseconds; `0` logs every
    /// query). The environment variable sets the initial value; this
    /// changes it at runtime.
    pub fn set_slow_query_ms(&self, ms: u64) {
        self.slow_query_ns
            .store(ms.saturating_mul(1_000_000), Ordering::Relaxed);
    }

    /// Folds one finished query into the registry and, when it crossed the
    /// slow-query threshold, into the event log. `label` is the query text
    /// (or a caller-chosen name for API-driven plans).
    pub fn observe_query(&self, label: &str, stats: &ExecStats, wall_ns: u64) {
        let exec = [
            stats.tuples_scanned,
            stats.tuples_filtered,
            stats.pairs_compared,
            stats.index_candidates,
            stats.intervals_merged,
        ];
        for (name, v) in EXEC_METRIC_NAMES.iter().zip(exec) {
            self.metrics.counter(name).add(v);
        }
        self.metrics.counter("ongoingdb_queries").inc();
        // Microseconds: the 2^0..2^16 log buckets then span 1 µs – 65 ms,
        // a useful spread for query latencies.
        self.metrics
            .histogram("ongoingdb_query_wall_us")
            .observe(wall_ns / 1_000);
        if wall_ns >= self.slow_query_ns() {
            self.metrics.counter("ongoingdb_slow_queries").inc();
            self.events.record(EngineEvent::SlowQuery {
                query: label.to_string(),
                wall_ns,
                work: stats.total_work(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_query_folds_exec_counters() {
        let obs = Obs {
            metrics: MetricsRegistry::new(),
            events: Arc::new(EventLog::default()),
            slow_query_ns: AtomicU64::new(0), // log everything
        };
        let stats = ExecStats {
            tuples_scanned: 10,
            tuples_filtered: 4,
            pairs_compared: 3,
            index_candidates: 2,
            intervals_merged: 1,
        };
        obs.observe_query("SELECT 1", &stats, 5);
        obs.observe_query("SELECT 1", &stats, 5);
        let snap = obs.metrics.snapshot();
        assert_eq!(snap.value("ongoingdb_exec_tuples_scanned"), 20);
        assert_eq!(snap.value("ongoingdb_exec_intervals_merged"), 2);
        assert_eq!(snap.value("ongoingdb_queries"), 2);
        assert_eq!(snap.value("ongoingdb_slow_queries"), 2);
        let events = obs.events.recent();
        assert_eq!(events.len(), 2);
        assert!(matches!(
            &events[0].event,
            EngineEvent::SlowQuery { work, .. } if *work == stats.total_work()
        ));
    }
}
