//! Execution context: the parallelism knob and the cancellation/deadline
//! token for the physical executors.
//!
//! Every executor entry point takes an [`ExecContext`] describing *how* to
//! run (number of worker threads, governance token); the operator tree
//! describes *what* to run. Results and [`ExecStats`](crate::exec::ExecStats)
//! work-unit counts are identical for every parallelism setting —
//! partitioning is purely a wall-clock optimization.

use crate::error::{EngineError, Result};
use crate::exec::pool::{PoolSession, WorkerPool};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

#[derive(Debug, Default)]
struct ControlState {
    cancelled: AtomicBool,
    /// Absolute deadline, fixed at construction.
    deadline: Option<Instant>,
}

/// Shared cancellation + deadline token for one query (or modification).
///
/// Cloning shares the token: the caller keeps one handle and may
/// [`cancel`](Self::cancel) from any thread while executors poll
/// [`check`](Self::check) cooperatively at morsel boundaries — so a
/// cancellation (or an expired deadline) surfaces within one morsel of
/// work as [`EngineError::Cancelled`] / [`EngineError::DeadlineExceeded`],
/// never mid-tuple and never by unwinding.
#[derive(Debug, Clone, Default)]
pub struct QueryControl {
    inner: Arc<ControlState>,
}

impl QueryControl {
    /// A token with no deadline that nobody cancels — the default for
    /// contexts that never set one.
    pub fn unbounded() -> QueryControl {
        QueryControl::default()
    }

    /// A token that expires at the absolute instant `deadline`.
    pub fn with_deadline(deadline: Instant) -> QueryControl {
        QueryControl {
            inner: Arc::new(ControlState {
                cancelled: AtomicBool::new(false),
                deadline: Some(deadline),
            }),
        }
    }

    /// A token that expires `timeout` from now. A zero timeout is legal:
    /// the very first morsel-boundary check fails, making it the
    /// "already expired" probe the governance tests use.
    pub fn with_timeout(timeout: Duration) -> QueryControl {
        QueryControl::with_deadline(Instant::now() + timeout)
    }

    /// Requests cancellation. Idempotent; takes effect at the next
    /// cooperative check on any thread sharing the token.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// Has [`cancel`](Self::cancel) been called?
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Relaxed)
    }

    /// The absolute deadline, if one was set.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }

    /// The cooperative poll: `Err(Cancelled)` once cancelled,
    /// `Err(DeadlineExceeded)` once past the deadline, else `Ok(())`.
    /// Cancellation wins over an expired deadline (it is the explicit
    /// signal). Unbounded uncancelled tokens cost two relaxed loads.
    pub fn check(&self) -> Result<()> {
        if self.inner.cancelled.load(Ordering::Relaxed) {
            return Err(EngineError::Cancelled);
        }
        if let Some(d) = self.inner.deadline {
            if Instant::now() >= d {
                return Err(EngineError::DeadlineExceeded);
            }
        }
        Ok(())
    }
}

/// How many worker threads the executors may use, plus the query's
/// governance token.
///
/// Resolution order for the worker count: an explicit knob (e.g.
/// [`PlannerConfig::parallelism`](crate::PlannerConfig)) beats the
/// `ONGOINGDB_THREADS` environment variable, which beats the machine's
/// available parallelism.
#[derive(Debug, Clone)]
pub struct ExecContext {
    /// Number of worker threads partition-parallel operators may fan out
    /// to. `1` executes every operator inline on the calling thread.
    pub parallelism: usize,
    /// Cancellation + deadline token, polled at morsel boundaries.
    pub control: QueryControl,
    /// Optional span collector: when set, every operator records a
    /// [`SpanNode`](crate::obs::SpanNode) (actual rows, per-operator work
    /// units, wall ns) — the machinery behind `EXPLAIN ANALYZE`. `None`
    /// costs nothing on the hot path.
    pub trace: Option<Arc<crate::obs::TraceCollector>>,
    /// This query's attachment to the shared worker pool: lazily registers
    /// a task queue on first fan-out, unregisters when the context drops.
    /// Cloning the context shares the session (and therefore the queue) —
    /// one context is one query as far as scheduling fairness goes.
    pub(crate) session: Arc<PoolSession>,
}

/// Environment variable overriding the default executor parallelism.
pub const THREADS_ENV: &str = "ONGOINGDB_THREADS";

/// `ONGOINGDB_THREADS`, read from the environment exactly once per
/// process. Resolving per construction meant a mid-run env change could
/// make two halves of one query disagree on parallelism; caching makes the
/// setting a process property, matching the shared pool it now sizes.
fn cached_env_threads() -> Option<usize> {
    static CACHE: OnceLock<Option<usize>> = OnceLock::new();
    *CACHE.get_or_init(|| {
        crate::env_setting(THREADS_ENV)
            .filter(|&p| p > 0)
            .map(|p| usize::try_from(p).unwrap_or(usize::MAX))
    })
}

impl ExecContext {
    /// A context with exactly `parallelism` workers (clamped to at least 1)
    /// and an unbounded [`QueryControl`].
    pub fn new(parallelism: usize) -> Self {
        let parallelism = parallelism.max(1);
        ExecContext {
            parallelism,
            control: QueryControl::unbounded(),
            trace: None,
            session: PoolSession::auto(parallelism),
        }
    }

    /// This context with `control` as its governance token (builder style).
    pub fn with_control(mut self, control: QueryControl) -> Self {
        self.control = control;
        self
    }

    /// This context with `trace` collecting per-operator spans.
    pub fn with_trace(mut self, trace: Arc<crate::obs::TraceCollector>) -> Self {
        self.trace = Some(trace);
        self
    }

    /// This context with a fresh token expiring `timeout` from now.
    pub fn with_timeout(self, timeout: Duration) -> Self {
        self.with_control(QueryControl::with_timeout(timeout))
    }

    /// This context pinned to a specific [`WorkerPool`] instead of the
    /// lazily-created process-wide one. Tests use this to run the same
    /// query against exactly-sized pools.
    pub fn with_pool(self, pool: Arc<WorkerPool>) -> Self {
        self.session.set_pool(pool);
        self
    }

    /// This context with an event log attached, so pool registration
    /// records a `QueryQueued` event.
    pub(crate) fn with_events(self, events: Arc<crate::obs::EventLog>) -> Self {
        self.session.set_events(events);
        self
    }

    /// Single-threaded execution.
    pub fn serial() -> Self {
        ExecContext::new(1)
    }

    /// Resolves a knob value: `0` means "auto" (`ONGOINGDB_THREADS` — read
    /// once per process — if set and positive, else the machine's
    /// available parallelism), anything else is taken literally.
    pub fn resolve(knob: usize) -> Self {
        if knob > 0 {
            return ExecContext::new(knob);
        }
        let parallelism = cached_env_threads().unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
        ExecContext::new(parallelism)
    }

    /// The auto-resolved context ([`resolve`](Self::resolve) with knob 0).
    pub fn from_env() -> Self {
        ExecContext::resolve(0)
    }
}

impl Default for ExecContext {
    fn default() -> Self {
        ExecContext::from_env()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_knob_wins_and_is_clamped() {
        assert_eq!(ExecContext::resolve(3).parallelism, 3);
        assert_eq!(ExecContext::new(0).parallelism, 1);
        assert_eq!(ExecContext::serial().parallelism, 1);
    }

    #[test]
    fn auto_resolution_is_positive() {
        // Whatever the environment says, the result is a usable worker
        // count (≥ 1).
        assert!(ExecContext::from_env().parallelism >= 1);
    }
}
