//! The shared worker pool: persistent threads executing morsel tasks for
//! every concurrent query in the process.
//!
//! Before this pool existed, each partition-parallel operator spawned its
//! own `std::thread::scope` workers, so N in-flight queries oversubscribed
//! the machine N-fold. Now one process-wide [`WorkerPool`] (lazily sized
//! from the first query's resolved parallelism: explicit knob >
//! `ONGOINGDB_THREADS` > available cores) owns all execution threads, and
//! operators hand it batches of *morsels* — boxed `'static` closures over
//! `Arc`-shared operator state — via their query's [`PoolSession`].
//!
//! Scheduling is fair by construction: the scheduler (`exec::sched`)
//! keeps one FIFO per active query and serves them round-robin, one morsel
//! per turn, so a short query completes while a long one is still in
//! flight. The submitting thread also *helps*: after enqueueing a batch it
//! drains its own queue (counted as `ongoingdb_pool_tasks_stolen`) before
//! parking on the batch's completion latch — this guarantees progress even
//! when every pool worker is busy on other queries, and means a pool of
//! size 1 still executes correctly. Morsels never submit sub-morsels, so
//! the pool cannot deadlock on itself.
//!
//! A query's morsels never run more than its parallelism at a time,
//! whatever the pool's size: workers take at most `parallelism - 1` of
//! them concurrently and the helping submitter is the last slot. So a
//! query's concurrently pinned chunks are bounded by its own parallelism,
//! and a query at parallelism 2 on a pool sized by `ONGOINGDB_THREADS=4`
//! pages in as it would on a one-worker pool.
//!
//! Determinism is preserved end to end: a batch's results are collected in
//! submission (partition) order and the first error wins in that same
//! order — exactly the semantics the old scoped-thread driver had — so
//! results and `ExecStats` work units are bit-identical at every pool size.
//!
//! Every registration records a [`QueryQueued`](crate::obs::EngineEvent)
//! event.

use crate::error::Result;
use crate::exec::sched::{QueryQueue, Scheduler, Task};
use crate::obs::events::{EngineEvent, EventLog};
use crate::obs::metrics::{Counter, Gauge, MetricsRegistry, MetricsSnapshot};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Handles into the pool's private metrics registry, cached so the hot
/// path never touches the registry's name map.
struct PoolMetrics {
    registry: MetricsRegistry,
    /// `ongoingdb_pool_threads` — configured worker count (gauge).
    threads: Gauge,
    /// `ongoingdb_pool_queue_depth` — queued, undelivered morsels (gauge).
    queue_depth: Gauge,
    /// `ongoingdb_pool_tasks_executed` — morsels run to completion,
    /// including those run by submitting threads.
    tasks_executed: Counter,
    /// `ongoingdb_pool_tasks_stolen` — morsels run by the submitting
    /// thread itself while helping drain its own queue.
    tasks_stolen: Counter,
    /// `ongoingdb_pool_queries` — queries ever registered.
    queries: Counter,
}

impl PoolMetrics {
    fn new() -> PoolMetrics {
        let registry = MetricsRegistry::new();
        PoolMetrics {
            threads: registry.gauge("ongoingdb_pool_threads"),
            queue_depth: registry.gauge("ongoingdb_pool_queue_depth"),
            tasks_executed: registry.counter("ongoingdb_pool_tasks_executed"),
            tasks_stolen: registry.counter("ongoingdb_pool_tasks_stolen"),
            queries: registry.counter("ongoingdb_pool_queries"),
            registry,
        }
    }
}

struct PoolCore {
    sched: Scheduler,
    metrics: PoolMetrics,
    threads: usize,
}

impl PoolCore {
    /// Runs one dequeued morsel and accounts for it.
    fn run(&self, task: Task, stolen: bool) {
        self.metrics.queue_depth.set(self.sched.depth() as u64);
        task();
        self.metrics.tasks_executed.inc();
        if stolen {
            self.metrics.tasks_stolen.inc();
        }
    }
}

/// A fixed-size pool of named worker threads draining the shared
/// scheduler (`exec::sched`). One process-wide instance is created lazily by
/// [`WorkerPool::global`]; tests build private pools with
/// [`WorkerPool::new`] and attach them via
/// [`ExecContext::with_pool`](crate::ExecContext::with_pool).
pub struct WorkerPool {
    core: Arc<PoolCore>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.core.threads)
            .field("active_queries", &self.core.sched.active_queries())
            .field("depth", &self.core.sched.depth())
            .finish()
    }
}

impl WorkerPool {
    /// A pool with `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Arc<WorkerPool> {
        let threads = threads.max(1);
        let core = Arc::new(PoolCore {
            sched: Scheduler::new(),
            metrics: PoolMetrics::new(),
            threads,
        });
        core.metrics.threads.set(threads as u64);
        let mut handles = Vec::with_capacity(threads);
        for i in 0..threads {
            let core = Arc::clone(&core);
            let handle = std::thread::Builder::new()
                .name(format!("ongoingdb-worker-{i}"))
                .spawn(move || {
                    while let Some((task, queue)) = core.sched.next_task() {
                        core.run(task, false);
                        core.sched.finished(&queue);
                    }
                })
                .expect("spawn pool worker");
            handles.push(handle);
        }
        Arc::new(WorkerPool {
            core,
            handles: Mutex::new(handles),
        })
    }

    /// The process-wide pool, created on first use. `size_hint` (the first
    /// caller's resolved parallelism: knob > `ONGOINGDB_THREADS` > cores)
    /// sizes the pool once; later hints are ignored — the pool is shared,
    /// so its size is a process property, not a query property.
    pub fn global(size_hint: usize) -> Arc<WorkerPool> {
        Arc::clone(GLOBAL.get_or_init(|| WorkerPool::new(size_hint.max(1))))
    }

    /// The process-wide pool if it has been created, without creating it.
    /// Lets a database's metrics exposition merge pool metrics only once
    /// queries have actually run.
    pub fn global_peek() -> Option<Arc<WorkerPool>> {
        GLOBAL.get().map(Arc::clone)
    }

    /// Number of worker threads this pool owns.
    pub fn threads(&self) -> usize {
        self.core.threads
    }

    /// Queries currently registered with the pool.
    pub fn active_queries(&self) -> usize {
        self.core.sched.active_queries()
    }

    /// Queued, undelivered morsels across all queries.
    pub fn queue_depth(&self) -> usize {
        self.core.sched.depth()
    }

    /// A snapshot of the pool's `ongoingdb_pool_*` metrics, for merging
    /// into a database-wide exposition.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.core
            .metrics
            .queue_depth
            .set(self.core.sched.depth() as u64);
        self.core.metrics.registry.snapshot()
    }

    /// Registers a query with the scheduler, recording a `QueryQueued`
    /// event.
    fn register_query(&self, events: Option<&Arc<EventLog>>) -> Arc<QueryQueue> {
        let queue = self.core.sched.register();
        self.core.metrics.queries.inc();
        if let Some(log) = events {
            log.record(EngineEvent::QueryQueued {
                active: self.core.sched.active_queries() as u64,
            });
        }
        queue
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.core.sched.shutdown();
        for handle in self.handles.lock().expect("pool handles").drain(..) {
            let _ = handle.join();
        }
    }
}

static GLOBAL: OnceLock<Arc<WorkerPool>> = OnceLock::new();

/// Completion latch for one submitted batch: slot-indexed results plus a
/// countdown, so the submitter can wait for exactly its own morsels.
struct TaskSet<T> {
    state: Mutex<SetState<T>>,
    done: Condvar,
}

struct SetState<T> {
    results: Vec<Option<Result<T>>>,
    remaining: usize,
}

impl<T> TaskSet<T> {
    fn new(n: usize) -> Arc<TaskSet<T>> {
        Arc::new(TaskSet {
            state: Mutex::new(SetState {
                results: (0..n).map(|_| None).collect(),
                remaining: n,
            }),
            done: Condvar::new(),
        })
    }

    fn complete(&self, index: usize, result: Result<T>) {
        let mut state = self.state.lock().expect("task set lock");
        debug_assert!(state.results[index].is_none(), "morsel completed twice");
        state.results[index] = Some(result);
        state.remaining -= 1;
        if state.remaining == 0 {
            self.done.notify_all();
        }
    }

    /// Blocks until every slot is filled, then returns the results in
    /// submission (partition) order.
    fn wait(&self) -> Vec<Result<T>> {
        let mut state = self.state.lock().expect("task set lock");
        while state.remaining > 0 {
            state = self.done.wait(state).expect("task set lock");
        }
        state
            .results
            .drain(..)
            .map(|slot| slot.expect("all morsels completed"))
            .collect()
    }
}

/// A typed morsel: one partition's work, returning that partition's result.
pub(crate) type Morsel<T> = Box<dyn FnOnce() -> Result<T> + Send>;

enum PoolRef {
    /// Not yet resolved; the hint is the context's resolved parallelism
    /// and sizes the global pool if this session is the one to create it.
    Auto(usize),
    Ready(Arc<WorkerPool>),
}

struct SessionState {
    pool: PoolRef,
    queue: Option<Arc<QueryQueue>>,
    events: Option<Arc<EventLog>>,
}

/// One query's attachment to the worker pool, owned by its
/// [`ExecContext`](crate::ExecContext). Lazily resolves the pool (the
/// process-wide one unless a private pool was attached) and registers the
/// query's task queue on first fan-out; unregisters on drop.
pub struct PoolSession {
    state: Mutex<SessionState>,
}

impl std::fmt::Debug for PoolSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock().expect("session lock");
        f.debug_struct("PoolSession")
            .field("registered", &state.queue.is_some())
            .finish()
    }
}

impl PoolSession {
    /// A session that will attach to the process-wide pool, sizing it with
    /// `hint` workers if it does not exist yet.
    pub(crate) fn auto(hint: usize) -> Arc<PoolSession> {
        Arc::new(PoolSession {
            state: Mutex::new(SessionState {
                pool: PoolRef::Auto(hint.max(1)),
                queue: None,
                events: None,
            }),
        })
    }

    /// Pins this session to `pool` instead of the process-wide one. Used
    /// by tests that need an exactly-sized private pool. No-op after the
    /// session has already registered with a pool.
    pub(crate) fn set_pool(&self, pool: Arc<WorkerPool>) {
        let mut state = self.state.lock().expect("session lock");
        if state.queue.is_none() {
            state.pool = PoolRef::Ready(pool);
        }
    }

    /// Attaches an event log so registration records a `QueryQueued`
    /// event.
    pub(crate) fn set_events(&self, events: Arc<EventLog>) {
        self.state.lock().expect("session lock").events = Some(events);
    }

    /// Resolves the pool and this query's queue, registering on first use.
    fn attach(&self) -> (Arc<WorkerPool>, Arc<QueryQueue>) {
        let mut state = self.state.lock().expect("session lock");
        let pool = match &state.pool {
            PoolRef::Ready(pool) => Arc::clone(pool),
            PoolRef::Auto(hint) => {
                let pool = WorkerPool::global(*hint);
                state.pool = PoolRef::Ready(Arc::clone(&pool));
                pool
            }
        };
        let queue = match &state.queue {
            Some(queue) => Arc::clone(queue),
            None => {
                let queue = pool.register_query(state.events.as_ref());
                state.queue = Some(Arc::clone(&queue));
                queue
            }
        };
        (pool, queue)
    }

    /// Runs a batch of morsels on the pool and returns their results in
    /// submission (partition) order; on failure, the first error in that
    /// order wins — the same semantics as the old scoped-thread driver.
    ///
    /// The calling thread helps drain its own queue while waiting, so a
    /// batch always makes progress even when every pool worker is busy on
    /// other queries. At most `parallelism` of the query's morsels run at
    /// once: the caller plus up to `parallelism - 1` pool workers.
    pub(crate) fn run_morsels<T: Send + 'static>(
        &self,
        parallelism: usize,
        morsels: Vec<Morsel<T>>,
    ) -> Result<Vec<T>> {
        let (pool, queue) = self.attach();
        queue.set_parallelism(parallelism);
        let set = TaskSet::new(morsels.len());
        let tasks: Vec<Task> = morsels
            .into_iter()
            .enumerate()
            .map(|(i, morsel)| {
                let set = Arc::clone(&set);
                Box::new(move || set.complete(i, morsel())) as Task
            })
            .collect();
        pool.core.sched.submit(&queue, tasks);
        while let Some(task) = pool.core.sched.steal_own(&queue) {
            pool.core.run(task, true);
        }
        set.wait().into_iter().collect()
    }
}

impl Drop for PoolSession {
    fn drop(&mut self) {
        let state = self.state.lock().expect("session lock");
        if let (PoolRef::Ready(pool), Some(queue)) = (&state.pool, &state.queue) {
            pool.core.sched.unregister(queue.id());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::EngineError;
    use std::sync::atomic::Ordering;
    use std::time::Duration;

    fn session_on(pool: &Arc<WorkerPool>) -> Arc<PoolSession> {
        let session = PoolSession::auto(1);
        session.set_pool(Arc::clone(pool));
        session
    }

    #[test]
    fn batch_results_come_back_in_partition_order() {
        let pool = WorkerPool::new(4);
        let session = session_on(&pool);
        let morsels: Vec<Morsel<usize>> = (0..32)
            .map(|i| {
                let m: Morsel<usize> = Box::new(move || Ok(i));
                m
            })
            .collect();
        let out = session.run_morsels(4, morsels).unwrap();
        assert_eq!(out, (0..32).collect::<Vec<_>>());
        assert_eq!(pool.queue_depth(), 0);
    }

    #[test]
    fn first_error_in_partition_order_wins() {
        let pool = WorkerPool::new(2);
        let session = session_on(&pool);
        let morsels: Vec<Morsel<usize>> = (0..8)
            .map(|i| {
                let m: Morsel<usize> = Box::new(move || {
                    if i >= 3 {
                        Err(EngineError::Plan(format!("boom {i}")))
                    } else {
                        Ok(i)
                    }
                });
                m
            })
            .collect();
        let err = session.run_morsels(4, morsels).unwrap_err();
        assert_eq!(
            err.to_string(),
            EngineError::Plan("boom 3".into()).to_string()
        );
    }

    #[test]
    fn single_worker_pool_interleaves_two_queries() {
        // With one worker busy on a long morsel, a second query's single
        // morsel must still complete before the first query's large
        // backlog drains — round-robin at the scheduler plus submitter
        // self-help make that deterministic.
        let pool = WorkerPool::new(1);
        let heavy_done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let pool2 = Arc::clone(&pool);
        let heavy_flag = Arc::clone(&heavy_done);
        let heavy = std::thread::spawn(move || {
            let session = session_on(&pool2);
            let morsels: Vec<Morsel<()>> = (0..200)
                .map(|_| {
                    let m: Morsel<()> = Box::new(|| {
                        std::thread::sleep(Duration::from_millis(1));
                        Ok(())
                    });
                    m
                })
                .collect();
            session.run_morsels(4, morsels).unwrap();
            heavy_flag.store(true, Ordering::Relaxed);
        });
        // Give the heavy query a head start so its backlog is queued.
        std::thread::sleep(Duration::from_millis(20));
        let session = session_on(&pool);
        let light: Vec<Morsel<u32>> = vec![Box::new(|| Ok(7))];
        let out = session.run_morsels(4, light).unwrap();
        assert_eq!(out, vec![7]);
        assert!(
            !heavy_done.load(Ordering::Relaxed),
            "light query must finish while the heavy query is still in flight"
        );
        heavy.join().unwrap();
    }

    #[test]
    fn a_query_runs_at_most_its_parallelism_morsels_at_once() {
        // A pool larger than the query's parallelism: four workers plus
        // the submitter could run five morsels at once without the cap.
        let pool = WorkerPool::new(4);
        for parallelism in [1, 2, 3] {
            let session = session_on(&pool);
            let running = Arc::new(std::sync::atomic::AtomicUsize::new(0));
            let peak = Arc::new(std::sync::atomic::AtomicUsize::new(0));
            let morsels: Vec<Morsel<()>> = (0..24)
                .map(|_| {
                    let (running, peak) = (Arc::clone(&running), Arc::clone(&peak));
                    let m: Morsel<()> = Box::new(move || {
                        let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        std::thread::sleep(Duration::from_millis(2));
                        running.fetch_sub(1, Ordering::SeqCst);
                        Ok(())
                    });
                    m
                })
                .collect();
            session.run_morsels(parallelism, morsels).unwrap();
            let peak = peak.load(Ordering::SeqCst);
            assert!(
                peak <= parallelism,
                "parallelism {parallelism}: {peak} morsels ran at once"
            );
        }
        assert_eq!(pool.queue_depth(), 0);
    }

    #[test]
    fn pool_reports_configured_thread_count() {
        let pool = WorkerPool::new(3);
        assert_eq!(pool.threads(), 3);
        let snap = pool.metrics_snapshot();
        assert_eq!(snap.value("ongoingdb_pool_threads"), 3);
    }
}
