//! The database catalog: named base ongoing relations.
//!
//! This is the substrate role PostgreSQL plays in the paper's prototype:
//! somewhere to register base relations, look them up during planning, and
//! scan them during execution. Tables are shared behind a lock so plans can
//! be executed concurrently (e.g. a bench harness instantiating a
//! materialized view from several threads).
//!
//! A database is either in-memory ([`Database::new`]) or **durable**
//! ([`Database::open`]): backed by a write-ahead log, checksummed chunk
//! files and a checkpoint manifest (see [`crate::storage::durable`]).
//! In a durable database every publication is logged — and fsynced —
//! *before* it becomes visible, as an O(delta) journal of the physical
//! store mutations the closure performed; reopening after a crash
//! recovers exactly the committed prefix, lazily per table.

use crate::error::{EngineError, Result};
use crate::exec::ExecStats;
use crate::obs::{
    EngineEvent, EventRecord, MetricValue, MetricsSnapshot, Obs, DURABLE_METRIC_NAMES,
    STORE_METRIC_NAMES,
};
use crate::stats::{analyze_relation, TableStatistics};
use crate::storage::durable::{
    DurableGuard, DurableOptions, DurableState, DurableStats, RecoveredTable,
};
use ongoing_relation::{OngoingRelation, PinnedChunk, Schema};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Minimum number of modified rows before an analyzed table is considered
/// stale (PostgreSQL's autovacuum-style floor).
const AUTO_ANALYZE_MIN: u64 = 50;
/// Additional stale fraction of the analyzed row count.
const AUTO_ANALYZE_FRAC: f64 = 0.1;

/// Statistics bookkeeping per table: the collected statistics (if any) plus
/// the modification volume since they were collected.
#[derive(Debug, Default, Clone)]
struct StatsState {
    stats: Option<Arc<TableStatistics>>,
    mods_since_analyze: u64,
}

impl StatsState {
    /// Are the collected statistics stale relative to the modifications
    /// that happened since?
    fn stale(&self) -> bool {
        match &self.stats {
            Some(s) => {
                self.mods_since_analyze
                    > AUTO_ANALYZE_MIN + (AUTO_ANALYZE_FRAC * s.rows as f64) as u64
            }
            None => false,
        }
    }
}

/// A registered table.
#[derive(Debug)]
pub struct Table {
    name: String,
    data: OngoingRelation,
    /// `ANALYZE` statistics and staleness accounting.
    stats: Mutex<StatsState>,
}

impl Table {
    /// The table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The stored relation.
    pub fn data(&self) -> &OngoingRelation {
        &self.data
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        self.data.schema()
    }

    /// The collected `ANALYZE` statistics, if any.
    pub fn statistics(&self) -> Option<Arc<TableStatistics>> {
        self.stats.lock().stats.clone()
    }

    /// Collects (or refreshes) statistics over the stored relation and
    /// resets the staleness counter — the `ANALYZE` primitive. Reads a
    /// cold table one pinned chunk at a time, so it stays cold; a chunk
    /// that fails to page in is an error.
    pub fn analyze(&self) -> Result<Arc<TableStatistics>> {
        let stats = Arc::new(analyze_relation(&self.data)?);
        *self.stats.lock() = StatsState {
            stats: Some(Arc::clone(&stats)),
            mods_since_analyze: 0,
        };
        Ok(stats)
    }

    /// Publishes a relation version as a table: the pending insert tail is
    /// sealed so readers' forks are pure reference bumps.
    fn with_state(name: &str, mut data: OngoingRelation, stats: StatsState) -> Arc<Table> {
        data.seal_pending();
        Arc::new(Table {
            name: name.to_string(),
            data,
            stats: Mutex::new(stats),
        })
    }
}

/// Positional tuple diff between two relation versions — the staleness
/// fallback when a `modify_table` closure replaced the relation wholesale
/// instead of editing the fork (in-place rewrites count every rewritten
/// row, not just the length delta). Both sides are read one transient
/// chunk pin at a time, so a cold published version stays cold.
fn positional_diff(old: &OngoingRelation, new: &OngoingRelation) -> Result<u64> {
    let mut changed = 0u64;
    let mut news = new.lazy_views().into_iter();
    // The pinned chunk of `new` and the next ordinal to read in it.
    let mut cur: Option<(PinnedChunk<'_>, usize)> = None;
    for view in old.lazy_views() {
        for x in view.pin()?.iter() {
            while cur.as_ref().is_none_or(|(pin, i)| *i == pin.len()) {
                match news.next() {
                    Some(v) => cur = Some((v.pin()?, 0)),
                    None => {
                        cur = None;
                        break;
                    }
                }
            }
            changed += match &mut cur {
                Some((pin, i)) => {
                    *i += 1;
                    u64::from(pin.get(*i - 1) != Some(x))
                }
                None => 1,
            };
        }
    }
    let rest = cur.map_or(0, |(pin, i)| pin.len() - i) + news.map(|v| v.len()).sum::<usize>();
    Ok(changed + rest as u64)
}

/// How [`Database::modify_table`] responds to publication conflicts.
///
/// A conflict means another writer published between this writer's version
/// pin and its compare-and-swap — the modification was not applied and is
/// simply re-run against the new current version. The policy bounds how
/// hard to try: a few optimistic free-running attempts with exponential
/// backoff, then entry into the table's *ordered writer queue* (a FIFO
/// ticket lock) so contended writers stop trampling each other and commit
/// in arrival order instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total publication attempts before surfacing
    /// [`EngineError::ConcurrentModification`]. At least 1.
    pub max_attempts: u32,
    /// Base backoff slept after the first conflict, doubled per further
    /// conflict up to [`max_backoff`](Self::max_backoff). Zero means
    /// yield-only.
    pub backoff: Duration,
    /// Backoff growth cap.
    pub max_backoff: Duration,
    /// Free-running attempts before joining the ordered writer queue.
    /// `0` queues from the first attempt (strict FIFO writers).
    pub queue_after: u32,
    /// Total wall-clock budget for the whole `modify_table` call — every
    /// closure run, backoff sleep and writer-queue wait counts against it.
    /// Once it expires the call returns [`EngineError::DeadlineExceeded`]
    /// (abandoning a held queue ticket rather than blocking on it), with
    /// the modification **not** applied: the deadline is always checked
    /// before the publication point, never between logging and
    /// visibility, so the store is never torn. `None` (the default)
    /// means unbounded.
    pub timeout: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 16,
            backoff: Duration::from_micros(20),
            max_backoff: Duration::from_millis(2),
            queue_after: 2,
            timeout: None,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries — the pre-retry behaviour: the first
    /// conflict surfaces as [`EngineError::ConcurrentModification`].
    pub fn no_retry() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    fn backoff_for(&self, failed_attempts: u32) -> Duration {
        let exp = failed_attempts.saturating_sub(1).min(16);
        self.backoff
            .saturating_mul(1u32 << exp)
            .min(self.max_backoff)
    }
}

/// A FIFO ticket lock: writers draw a ticket and are served strictly in
/// draw order — the "ordered retry queue" contended `modify_table` calls
/// enter. Unlike a plain mutex there is no barging: a writer that has
/// waited longest publishes next, so no writer starves however heavy the
/// contention.
#[derive(Debug, Default)]
struct TicketGate {
    next: AtomicU64,
    serving: AtomicU64,
    /// Tickets whose waiters gave up (deadline expiry) before being
    /// served. Service skips them; the lock serializes a waiter's
    /// take-the-pass-or-abandon decision against the holder's advance, so
    /// a ticket is either served or skipped — never both, never neither.
    abandoned: Mutex<HashSet<u64>>,
}

thread_local! {
    /// Gates this thread currently holds. A pass is released only after
    /// the closure returns, so re-entering a held gate (a closure nesting
    /// a gated `modify_table` on the same table) would self-deadlock —
    /// [`TicketGate::enter`] detects that and lets the nested call run
    /// ungated instead.
    static HELD_GATES: std::cell::RefCell<Vec<usize>> = const { std::cell::RefCell::new(Vec::new()) };
}

struct TicketPass<'a> {
    gate: &'a TicketGate,
    id: usize,
}

impl TicketGate {
    /// Draws a ticket and blocks until it is served or `deadline` passes.
    /// Returns `Ok(None)` when this thread already holds the gate (nested
    /// modification) — the caller proceeds ungated rather than
    /// deadlocking on itself — and [`EngineError::DeadlineExceeded`] when
    /// the wait outlived the deadline (the ticket is abandoned, so the
    /// queue flows on without it).
    fn enter(&self, deadline: Option<Instant>) -> Result<Option<TicketPass<'_>>> {
        let id = self as *const TicketGate as usize;
        let reentrant = HELD_GATES.with(|held| {
            let mut held = held.borrow_mut();
            if held.contains(&id) {
                return true;
            }
            held.push(id);
            false
        });
        if reentrant {
            return Ok(None);
        }
        let ticket = self.next.fetch_add(1, Ordering::SeqCst);
        let mut spins = 0u32;
        while self.serving.load(Ordering::SeqCst) != ticket {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                // Too late. Under the abandoned-set lock either take the
                // service that arrived in the meantime — passing it on as
                // an immediately-dropped pass would — or mark the ticket
                // abandoned so the current holder's drop skips it.
                let mut abandoned = self.abandoned.lock();
                if self.serving.load(Ordering::SeqCst) == ticket {
                    self.advance_locked(&mut abandoned);
                } else {
                    abandoned.insert(ticket);
                }
                drop(abandoned);
                HELD_GATES.with(|held| held.borrow_mut().retain(|&g| g != id));
                return Err(EngineError::DeadlineExceeded);
            }
            spins += 1;
            if spins < 32 {
                std::hint::spin_loop();
            } else if spins < 256 {
                std::thread::yield_now();
            } else {
                std::thread::sleep(Duration::from_micros(50));
            }
        }
        Ok(Some(TicketPass { gate: self, id }))
    }

    /// Advances service by one ticket, then past any consecutively
    /// abandoned ones. Caller holds the abandoned-set lock.
    fn advance_locked(&self, abandoned: &mut HashSet<u64>) {
        let mut now = self.serving.fetch_add(1, Ordering::SeqCst) + 1;
        while abandoned.remove(&now) {
            now = self.serving.fetch_add(1, Ordering::SeqCst) + 1;
        }
    }
}

impl Drop for TicketPass<'_> {
    fn drop(&mut self) {
        HELD_GATES.with(|held| held.borrow_mut().retain(|&g| g != self.id));
        let mut abandoned = self.gate.abandoned.lock();
        self.gate.advance_locked(&mut abandoned);
    }
}

/// One catalog slot: a materialized table, or a recovered-but-unloaded
/// plan a durable database holds until the table is first touched (cold
/// opens don't pay for tables nobody reads). Slots only ever go cold →
/// ready; a published table never reverts.
#[derive(Debug, Clone)]
enum TableSlot {
    Ready(Arc<Table>),
    Cold(Arc<RecoveredTable>),
}

/// A database of ongoing relations — in-memory by default, durable when
/// opened with [`Database::open`].
#[derive(Debug, Default)]
pub struct Database {
    tables: RwLock<BTreeMap<String, TableSlot>>,
    /// Per-table ordered writer queues (see [`RetryPolicy::queue_after`]).
    /// Keyed by name, not by table version — the gate must survive
    /// publications, which replace the `Arc<Table>`.
    gates: Mutex<HashMap<String, Arc<TicketGate>>>,
    /// The durable backing (WAL, chunk files, manifest), if any.
    ///
    /// **Lock order**: the durable commit guard is always acquired
    /// *before* `tables` — holding it is what keeps a compare-and-swap
    /// precondition valid across the WAL append and serializes
    /// publications against checkpoint garbage collection.
    durable: Option<DurableState>,
    /// The observability bundle: metrics registry, event ring, slow-query
    /// threshold. Shared (`Arc`) with the storage layer's hooks.
    obs: Arc<Obs>,
    /// The versioned result cache (see [`crate::exec::rescache`]): executed
    /// plan results keyed by plan fingerprint and table-version set,
    /// invalidated for free because publications swap the table `Arc`.
    results: crate::exec::ResultCache,
}

impl Database {
    /// An empty in-memory database (nothing is persisted).
    pub fn new() -> Self {
        Database::default()
    }

    /// Opens (creating or recovering) a durable database at `path` with
    /// default [`DurableOptions`].
    ///
    /// Recovery reads the checkpoint manifest, scans the write-ahead log
    /// — truncating a torn tail (an append the crash cut short), erroring
    /// with [`EngineError::CorruptStorage`] on mid-log damage — and folds
    /// the committed records into per-table plans. Tables materialize
    /// lazily on first access; opening a large database reads no chunk
    /// files.
    pub fn open(path: impl AsRef<Path>) -> Result<Database> {
        Database::open_with(path, DurableOptions::default())
    }

    /// [`open`](Database::open) with explicit [`DurableOptions`].
    pub fn open_with(path: impl AsRef<Path>, opts: DurableOptions) -> Result<Database> {
        Database::open_with_vfs(path, opts, Arc::new(crate::storage::vfs::RealFs))
    }

    /// [`open_with`](Database::open_with) over an explicit
    /// [`Vfs`](crate::storage::vfs::Vfs) — how fault-injection tests run
    /// the whole engine against a flaky disk.
    pub fn open_with_vfs(
        path: impl AsRef<Path>,
        opts: DurableOptions,
        vfs: Arc<dyn crate::storage::vfs::Vfs>,
    ) -> Result<Database> {
        let (durable, recovered) = DurableState::open_with_vfs(path.as_ref(), opts, vfs)?;
        let tables = recovered
            .into_iter()
            .map(|plan| (plan.state.name.clone(), TableSlot::Cold(Arc::new(plan))))
            .collect();
        let obs: Arc<Obs> = Arc::default();
        durable.attach_obs(Arc::clone(&obs));
        Ok(Database {
            tables: RwLock::new(tables),
            gates: Mutex::new(HashMap::new()),
            durable: Some(durable),
            obs,
            results: crate::exec::ResultCache::default(),
        })
    }

    /// Is this database durable?
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// The durable database directory, if durable.
    pub fn path(&self) -> Option<&Path> {
        self.durable.as_ref().map(|d| d.dir())
    }

    /// A snapshot of the durable layer's work counters, if durable.
    pub fn durable_stats(&self) -> Option<DurableStats> {
        self.durable.as_ref().map(|d| d.stats())
    }

    /// The observability bundle: the metrics registry, the event ring and
    /// the slow-query threshold. Shared with the storage layer's hooks.
    pub fn observability(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// The versioned result cache consulted by the SQL execution path.
    /// Budgeted by [`RESULT_CACHE_BUDGET_ENV`](crate::exec::RESULT_CACHE_BUDGET_ENV)
    /// at construction (`0` disables).
    pub fn result_cache(&self) -> &crate::exec::ResultCache {
        &self.results
    }

    /// Replaces the result cache with one budgeted at `bytes` (`0`
    /// disables caching). The environment variable sets the initial
    /// budget; this is for embedders and tests that size it
    /// programmatically. Any cached entries are discarded.
    pub fn configure_result_cache(&mut self, bytes: u64) {
        self.results = crate::exec::ResultCache::with_budget(bytes);
    }

    /// A point-in-time snapshot of every metric the database exposes: the
    /// registry's own counters/histograms (exec work units, CAS attempts,
    /// publications, queries) plus derived views — every
    /// [`DurableStats`] field under its stable `ongoingdb_*` name and the
    /// store's write-path counters summed over the materialized tables.
    /// The typed structs stay authoritative; this is a read-only join of
    /// them under one namespace.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.obs.metrics.snapshot();
        if let Some(d) = self.durable_stats() {
            let fields = [
                d.wal_records,
                d.wal_bytes,
                d.wal_tuples,
                d.chunk_files,
                d.chunk_tuples,
                d.tuples_loaded,
                d.checkpoints,
                d.cache_hits,
                d.cache_misses,
                d.cache_evictions,
                d.cache_resident_bytes,
                d.cache_peak_bytes,
            ];
            snap.merge(MetricsSnapshot::from_values(
                DURABLE_METRIC_NAMES.iter().zip(fields).map(|(name, v)| {
                    // Resident bytes can fall (evictions), so those two are
                    // gauges; everything else is monotone per open.
                    let value = if name.ends_with("_bytes") && name.contains("cache") {
                        MetricValue::Gauge(v)
                    } else {
                        MetricValue::Counter(v)
                    };
                    (name.to_string(), value)
                }),
            ));
        }
        let mut work = ongoing_relation::StoreWork::default();
        for slot in self.tables.read().values() {
            // Cold tables have performed no write work since open; metrics
            // must never force a materialization.
            if let TableSlot::Ready(t) = slot {
                work.add(&t.data().work_counters());
            }
        }
        let store = [work.write_work, work.logical_writes, work.qual_work];
        snap.merge(MetricsSnapshot::from_values(
            STORE_METRIC_NAMES
                .iter()
                .zip(store)
                .map(|(name, v)| (name.to_string(), MetricValue::Gauge(v))),
        ));
        // The worker pool is process-wide, not per-database, but its
        // `ongoingdb_pool_*` series belong in the same exposition. Peek
        // only — a metrics scrape must never be the thing that spins up
        // the pool.
        if let Some(pool) = crate::exec::WorkerPool::global_peek() {
            snap.merge(pool.metrics_snapshot());
        }
        snap
    }

    /// The Prometheus-style text exposition of
    /// [`metrics_snapshot`](Self::metrics_snapshot).
    pub fn metrics_text(&self) -> String {
        self.metrics_snapshot().render_text()
    }

    /// The retained engine events, oldest first (see
    /// [`EventLog`](crate::obs::EventLog)).
    pub fn recent_events(&self) -> Vec<EventRecord> {
        self.obs.events.recent()
    }

    /// Folds one finished query into the metrics registry and — past the
    /// slow-query threshold — the event ring. The `sql`/API entry points
    /// call this automatically; callers driving compiled plans by hand can
    /// report through it too.
    pub fn record_query(&self, label: &str, stats: &ExecStats, wall: Duration) {
        self.obs.observe_query(label, stats, wall.as_nanos() as u64);
    }

    /// Forces a checkpoint: folds the WAL into chunk files and a fresh
    /// manifest, truncates the log, and garbage-collects unreferenced
    /// chunk files. Errors on an in-memory database.
    pub fn persist(&self) -> Result<()> {
        let durable = self
            .durable
            .as_ref()
            .ok_or_else(|| EngineError::Storage("database is not durable".into()))?;
        let mut guard = durable.lock();
        self.checkpoint_locked(&mut guard)
    }

    /// Registers a base relation under `name`.
    pub fn create_table(&self, name: &str, data: OngoingRelation) -> Result<()> {
        let table = Table::with_state(name, data, StatsState::default());
        match &self.durable {
            Some(durable) => {
                let mut guard = durable.lock();
                if self.tables.read().contains_key(name) {
                    return Err(EngineError::DuplicateTable(name.to_string()));
                }
                guard.append_state(name, table.data())?;
                self.tables
                    .write()
                    .insert(name.to_string(), TableSlot::Ready(table));
                if guard.needs_checkpoint() {
                    self.checkpoint_locked(&mut guard)?;
                }
            }
            None => {
                let mut tables = self.tables.write();
                if tables.contains_key(name) {
                    return Err(EngineError::DuplicateTable(name.to_string()));
                }
                tables.insert(name.to_string(), TableSlot::Ready(table));
            }
        }
        Ok(())
    }

    /// Replaces (or creates) a table. Any previously collected statistics
    /// are discarded (the new data is unknown to the subsystem). On a
    /// durable database the replacement is logged as a full-state record
    /// before it becomes visible.
    pub fn put_table(&self, name: &str, data: OngoingRelation) -> Result<()> {
        let table = Table::with_state(name, data, StatsState::default());
        match &self.durable {
            Some(durable) => {
                let mut guard = durable.lock();
                guard.append_state(name, table.data())?;
                self.tables
                    .write()
                    .insert(name.to_string(), TableSlot::Ready(table));
                if guard.needs_checkpoint() {
                    self.checkpoint_locked(&mut guard)?;
                }
            }
            None => {
                self.tables
                    .write()
                    .insert(name.to_string(), TableSlot::Ready(table));
            }
        }
        Ok(())
    }

    /// Applies a modification to a catalog-resident table. Callers run
    /// [`Modifier`](crate::modify::Modifier) operations (or any other
    /// rewrite) inside the closure; the catalog swaps in the modified
    /// version and advances the statistics staleness counter by the
    /// *logical row-write delta* the closure produced — exact, straight
    /// from the copy-on-write store, so a one-row edit counts one row no
    /// matter where in the table it sits (and no matter how much
    /// copy-on-write bookkeeping it triggered).
    /// Once an *analyzed* table crosses the staleness threshold (50 rows +
    /// 10 % of the analyzed row count) its statistics are refreshed
    /// automatically; never-analyzed tables stay that way until an
    /// explicit `ANALYZE`. Statistics collected concurrently against the
    /// pre-modification snapshot are superseded by the swap (they
    /// described the old data).
    ///
    /// **Locking**: the heavy work — the closure, any statistics refresh,
    /// any compaction — runs entirely *off-lock* against a pinned fork of
    /// the current version; readers are never blocked by a writer. The
    /// write lock is taken only for a final pointer-equality
    /// compare-and-swap. If another writer replaced the table in between,
    /// nothing is applied and the modification is **retried** against the
    /// new current version under the default [`RetryPolicy`]: a few
    /// free-running attempts with exponential backoff, then the table's
    /// ordered (FIFO) writer queue. Only once the whole budget is
    /// exhausted does [`EngineError::ConcurrentModification`] surface,
    /// carrying the table name and the attempts made. Because conflicts
    /// re-run it, the closure must be safe to execute multiple times —
    /// only its *last* run is published (don't accumulate into captured
    /// state across calls, and don't modify other catalog tables from
    /// inside). The fork shares all untouched chunks with the published
    /// version, so a modification costs O(rows touched), not O(table);
    /// when the accumulated delta outgrows the storage policy
    /// ([`ongoing_relation::store`]) fragmented chunk *runs* are folded
    /// before publication (O(fragmented run), with the whole-table fold
    /// kept only as a policy backstop).
    ///
    /// ```
    /// use ongoing_engine::{modify::Modifier, Database};
    /// use ongoing_core::{date::md, OngoingInterval};
    /// use ongoing_relation::{Expr, OngoingRelation, Schema, Value};
    ///
    /// let db = Database::new();
    /// let mut bugs = OngoingRelation::new(
    ///     Schema::builder().int("BID").interval("VT").build(),
    /// );
    /// bugs.insert(vec![
    ///     Value::Int(500),
    ///     Value::Interval(OngoingInterval::from_until_now(md(1, 25))),
    /// ])
    /// .unwrap();
    /// db.create_table("B", bugs).unwrap();
    ///
    /// // Terminate bug 500 effective 09/01, through the catalog.
    /// let n = db
    ///     .modify_table("B", |rel| {
    ///         Modifier::new(rel, "VT")?.terminate(&Expr::Col(0).eq(Expr::lit(500i64)), md(9, 1))
    ///     })
    ///     .unwrap();
    /// assert_eq!(n, 1);
    /// ```
    pub fn modify_table<T>(
        &self,
        name: &str,
        f: impl FnMut(&mut OngoingRelation) -> Result<T>,
    ) -> Result<T> {
        self.modify_table_with(name, RetryPolicy::default(), f)
            .map(|(out, _attempts)| out)
    }

    /// [`modify_table`](Self::modify_table) under an explicit
    /// [`RetryPolicy`], additionally reporting how many publication
    /// attempts were made (1 = no conflict) — the counter the concurrency
    /// tests assert on.
    pub fn modify_table_with<T>(
        &self,
        name: &str,
        policy: RetryPolicy,
        mut f: impl FnMut(&mut OngoingRelation) -> Result<T>,
    ) -> Result<(T, u32)> {
        let max_attempts = policy.max_attempts.max(1);
        let deadline = policy.timeout.map(|t| Instant::now() + t);
        let mut attempt = 0u32;
        loop {
            // The total deadline is polled before every attempt, before
            // every backoff sleep (which is additionally capped to the
            // remaining budget) and inside the ticket-gate wait — so no
            // path blocks past it unboundedly. It is never polled between
            // the WAL append and the publication, so an expired deadline
            // can only mean "not applied", never a torn store.
            if deadline.is_some_and(|d| Instant::now() >= d) {
                self.obs.events.record(EngineEvent::DeadlineExceeded {
                    context: name.to_string(),
                });
                return Err(EngineError::DeadlineExceeded);
            }
            attempt += 1;
            // Contended writers past the free-running budget commit in
            // strict arrival order through the table's ticket gate; the
            // pass is held across fork → closure → publish and released
            // on drop either way.
            // The pass is scoped to the publication attempt: a conflicting
            // gated attempt releases the gate *before* backing off, so the
            // queue never stalls behind a sleeping writer.
            let outcome = {
                let gate = (attempt > policy.queue_after).then(|| self.writer_gate(name));
                if gate.is_some() {
                    self.obs.metrics.counter("ongoingdb_cas_queue_waits").inc();
                }
                let _pass = match &gate {
                    Some(g) => g.enter(deadline)?,
                    None => None,
                };
                self.attempt_modify(name, &mut f)?
            };
            match outcome {
                Some(out) => {
                    self.obs.metrics.counter("ongoingdb_publications").inc();
                    self.obs
                        .metrics
                        .histogram("ongoingdb_cas_attempts")
                        .observe(u64::from(attempt));
                    self.obs.events.record(EngineEvent::Publication {
                        table: name.to_string(),
                        attempts: attempt,
                    });
                    return Ok((out, attempt));
                }
                None if attempt < max_attempts => {
                    self.obs.metrics.counter("ongoingdb_cas_conflicts").inc();
                    self.obs.events.record(EngineEvent::CasConflict {
                        table: name.to_string(),
                        attempt,
                    });
                    let mut pause = policy.backoff_for(attempt);
                    if let Some(d) = deadline {
                        let remaining = d.saturating_duration_since(Instant::now());
                        if remaining.is_zero() {
                            return Err(EngineError::DeadlineExceeded);
                        }
                        pause = pause.min(remaining);
                    }
                    if pause.is_zero() {
                        std::thread::yield_now();
                    } else {
                        std::thread::sleep(pause);
                    }
                }
                None => {
                    return Err(EngineError::ConcurrentModification {
                        table: name.to_string(),
                        attempts: attempt,
                    })
                }
            }
        }
    }

    /// The per-table FIFO writer gate, created on first contention.
    fn writer_gate(&self, name: &str) -> Arc<TicketGate> {
        Arc::clone(self.gates.lock().entry(name.to_string()).or_default())
    }

    /// One optimistic publication attempt: fork, run the closure, account
    /// staleness, compact, compare-and-swap. `Ok(None)` signals a
    /// publication conflict (retryable); closure errors and a vanished
    /// table are terminal. So is an I/O error off-lock, unless the pinned
    /// version has been superseded meanwhile: a concurrent checkpoint may
    /// then have collected a cold chunk file only that version still
    /// referenced, and the attempt is retried like a conflict.
    fn attempt_modify<T>(
        &self,
        name: &str,
        f: &mut impl FnMut(&mut OngoingRelation) -> Result<T>,
    ) -> Result<Option<T>> {
        // Pin the current version (short read lock).
        let table = self.table(name)?;
        let (mut data, out, state) = match self.apply_off_lock(&table, f) {
            Ok(applied) => applied,
            Err(EngineError::Io(_)) if !self.is_published(name, &table) => return Ok(None),
            Err(e) => return Err(e),
        };
        // Seal (journaled) and detach the journal *before* the version is
        // wrapped; both folds above journal as O(1) markers replay
        // re-derives deterministically.
        data.seal_pending();
        let journal = data.take_journal();
        let new_table = Table::with_state(name, data, state);
        match &self.durable {
            Some(durable) => {
                let guard = &mut durable.lock();
                // The compare-and-swap precondition only needs a read
                // lock: every publication path holds the commit guard, so
                // no competing publication can slip in before our insert.
                match self.tables.read().get(name) {
                    Some(TableSlot::Ready(current)) if Arc::ptr_eq(current, &table) => {}
                    Some(_) => return Ok(None),
                    None => return Err(EngineError::UnknownTable(name.to_string())),
                }
                // Durability point: log (and sync) before becoming
                // visible. An armed journal is an O(delta) commit record;
                // a severed one means the closure rebuilt the relation, so
                // its full state is logged (persisting chunks first).
                match journal {
                    Some(ops) => guard.append_commit(name, ops)?,
                    None => guard.append_state(name, new_table.data())?,
                }
                self.tables
                    .write()
                    .insert(name.to_string(), TableSlot::Ready(new_table));
                if guard.needs_checkpoint() {
                    self.checkpoint_locked(guard)?;
                }
                Ok(Some(out))
            }
            None => {
                // Publication: short write lock, pointer-equality
                // compare-and-swap.
                let mut tables = self.tables.write();
                match tables.get(name) {
                    Some(TableSlot::Ready(current)) if Arc::ptr_eq(current, &table) => {
                        tables.insert(name.to_string(), TableSlot::Ready(new_table));
                        Ok(Some(out))
                    }
                    Some(_) => Ok(None),
                    None => Err(EngineError::UnknownTable(name.to_string())),
                }
            }
        }
    }

    /// Is `table` still the published version of `name`?
    fn is_published(&self, name: &str, table: &Arc<Table>) -> bool {
        matches!(self.tables.read().get(name),
            Some(TableSlot::Ready(current)) if Arc::ptr_eq(current, table))
    }

    /// The off-lock part of a publication attempt: forks the pinned
    /// version, runs the closure on the fork, accounts staleness (and
    /// refreshes stale statistics) and folds the accumulated delta.
    /// Returns the folded fork, the closure's output and the statistics
    /// state to publish with it.
    fn apply_off_lock<T>(
        &self,
        table: &Table,
        f: &mut impl FnMut(&mut OngoingRelation) -> Result<T>,
    ) -> Result<(OngoingRelation, T, StatsState)> {
        // The fork shares every sealed chunk, so this is O(#chunks), not
        // O(rows).
        let mut data = table.data.clone();
        if self.durable.is_some() {
            // Record every physical mutation the closure performs so the
            // publication can be logged as an O(delta) journal. A closure
            // that replaces the relation wholesale severs the journal
            // (cloning never carries one), which downgrades the commit to
            // a full-state record — journal present ⟺ journal complete.
            data.begin_journal();
        }
        let base_writes = data.logical_writes();
        // The user closure runs off-lock against the private fork.
        let out = f(&mut data)?;
        // Touched rows, exactly: the logical rows the closure wrote on
        // the fork (inserts, replacements, tombstones — not physical
        // bookkeeping like overlay copy-on-write). A closure that
        // *replaced* the relation wholesale (`*rel = built`) severs the
        // storage lineage (O(1) first-chunk probe) and resets the
        // counter; it already paid O(table) to rebuild, so falling back
        // to a positional diff stays within its own cost. The probe can
        // be fooled by swapping in an *older* pinned version (it shares
        // the first chunk but its counter ran backwards), so a counter
        // regression also falls back to the diff.
        let touched = if data.derives_from(&table.data) && data.logical_writes() >= base_writes {
            (data.logical_writes() - base_writes).max(1)
        } else {
            positional_diff(&table.data, &data)?.max(1)
        };
        let mut state = table.stats.lock().clone();
        state.mods_since_analyze += touched;
        if state.stale() {
            // Statistics refresh also runs off-lock, on the fork.
            state = StatsState {
                stats: Some(Arc::new(analyze_relation(&data)?)),
                mods_since_analyze: 0,
            };
        }
        // Fold the accumulated delta before publication (off-lock).
        // Partial first: only fragmented chunk runs, O(fragmented run) —
        // sustained churn on a large table never pays a whole-table fold
        // (a no-op when nothing is fragmented). The global policy stays
        // as a backstop for layouts run folding cannot fix (and for
        // wholesale rebuilds).
        data.compact_runs()?;
        if data.should_compact() {
            data.compact()?;
        }
        Ok((data, out, state))
    }

    /// Materializes every cold slot and checkpoints the full catalog.
    /// Caller holds the commit guard.
    fn checkpoint_locked(&self, guard: &mut DurableGuard<'_>) -> Result<()> {
        let names: Vec<String> = self.tables.read().keys().cloned().collect();
        let mut ready: Vec<(String, Arc<Table>)> = Vec::with_capacity(names.len());
        for name in names {
            ready.push((name.clone(), self.materialize(&name, guard)?));
        }
        let list: Vec<(&str, &OngoingRelation)> = ready
            .iter()
            .map(|(name, table)| (name.as_str(), table.data()))
            .collect();
        let wal_bytes = guard.wal_len();
        guard.checkpoint(&list)?;
        self.obs.events.record(EngineEvent::Checkpoint {
            wal_bytes,
            tables: list.len() as u64,
        });
        // Under a finite memory budget, resident sealed chunks that the
        // checkpoint just persisted are demoted to cold references through
        // the budgeted chunk cache: the table's memory is governed by the
        // budget from here on, with the dropped rows seeded warm (and
        // evictable) in the cache. The republish is safe without a
        // compare-and-swap: every publication path holds the commit guard
        // we hold, so no competing version can appear mid-swap. Readers
        // holding the pre-demotion `Arc<Table>` keep their fully resident
        // version until they drop it.
        if guard.memory_budget() != u64::MAX {
            for (name, table) in &ready {
                let mut data = table.data.clone();
                if guard.demote(&mut data) > 0 {
                    let state = table.stats.lock().clone();
                    let demoted = Table::with_state(name, data, state);
                    self.tables
                        .write()
                        .insert(name.clone(), TableSlot::Ready(demoted));
                }
            }
        }
        Ok(())
    }

    /// Returns the ready table at `name`, loading a cold slot under the
    /// held commit guard (which also fences checkpoint GC away from the
    /// chunk files being read).
    fn materialize(&self, name: &str, guard: &mut DurableGuard<'_>) -> Result<Arc<Table>> {
        let plan = match self.tables.read().get(name).cloned() {
            Some(TableSlot::Ready(table)) => return Ok(table),
            Some(TableSlot::Cold(plan)) => plan,
            None => return Err(EngineError::UnknownTable(name.to_string())),
        };
        let data = guard.load(&plan)?;
        // Statistics are rebuilt, not persisted: the table comes back
        // never-analyzed and the first ANALYZE (or auto-analyze) refreshes
        // them from the recovered data.
        let table = Table::with_state(name, data, StatsState::default());
        self.tables
            .write()
            .insert(name.to_string(), TableSlot::Ready(Arc::clone(&table)));
        Ok(table)
    }

    /// Declares a keyed qualification index on `table.column` (which must
    /// hold a fixed scalar type): [`crate::modify::Modifier`] predicates
    /// on the column qualify through the index in O(rows matching) instead
    /// of an O(table) scan. The index is a property of the stored relation
    /// — it survives version forks, publications and compaction.
    pub fn create_key_index(&self, table: &str, column: &str) -> Result<()> {
        let col = self.table(table)?.schema().index_of(column)?;
        self.modify_table(table, |rel| rel.create_key_index(col))
    }

    /// Collects statistics for one table (`ANALYZE <table>`).
    pub fn analyze(&self, name: &str) -> Result<Arc<TableStatistics>> {
        self.table(name)?.analyze()
    }

    /// Collects statistics for every table (bare `ANALYZE`), returning the
    /// per-table results in name order. Cold tables are read one pinned
    /// chunk at a time within the chunk-cache budget and stay cold; a
    /// table that fails to load or page in is left out of the result
    /// ([`analyze`](Self::analyze) reports its error).
    pub fn analyze_all(&self) -> Vec<(String, Arc<TableStatistics>)> {
        self.table_names()
            .into_iter()
            .filter_map(|name| {
                let stats = self.table(&name).ok()?.analyze().ok()?;
                Some((name, stats))
            })
            .collect()
    }

    /// Drops a table; errors if it does not exist. On a durable database
    /// the drop is logged before it takes effect.
    pub fn drop_table(&self, name: &str) -> Result<()> {
        match &self.durable {
            Some(durable) => {
                let mut guard = durable.lock();
                if !self.tables.read().contains_key(name) {
                    return Err(EngineError::UnknownTable(name.to_string()));
                }
                guard.append_drop(name)?;
                self.tables.write().remove(name);
                self.gates.lock().remove(name);
                Ok(())
            }
            None => {
                let mut tables = self.tables.write();
                let removed = tables
                    .remove(name)
                    .map(|_| ())
                    .ok_or_else(|| EngineError::UnknownTable(name.to_string()));
                if removed.is_ok() {
                    // Release the writer gate with the table (in-flight
                    // passes keep theirs via `Arc`); a re-created table
                    // starts fresh.
                    self.gates.lock().remove(name);
                }
                removed
            }
        }
    }

    /// Looks a table up, materializing a recovered-but-cold table on first
    /// access (this is where a damaged chunk file surfaces as
    /// [`EngineError::CorruptStorage`]).
    pub fn table(&self, name: &str) -> Result<Arc<Table>> {
        match self.tables.read().get(name).cloned() {
            Some(TableSlot::Ready(table)) => return Ok(table),
            Some(TableSlot::Cold(_)) => {}
            None => return Err(EngineError::UnknownTable(name.to_string())),
        }
        let durable = self
            .durable
            .as_ref()
            .expect("cold slots exist only in durable databases");
        self.materialize(name, &mut durable.lock())
    }

    /// The registered table names, sorted.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.read().keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ongoing_relation::{RowEdit, Schema, Tuple, Value};

    fn rel() -> OngoingRelation {
        let mut r = OngoingRelation::new(Schema::builder().int("X").build());
        r.insert(vec![Value::Int(1)]).unwrap();
        r
    }

    #[test]
    fn positional_diff_counts_rows_across_chunk_boundaries() {
        let ints = |xs: std::ops::Range<i64>| {
            let tuples = xs.map(|x| Tuple::base(vec![Value::Int(x)])).collect();
            OngoingRelation::from_tuples(Schema::builder().int("X").build(), tuples).unwrap()
        };
        let old = ints(0..1200);
        // Different chunk boundaries: an overlay, a split and a pending tail.
        let mut new = ints(0..1000);
        new.edit_tuples(|t| {
            Ok::<_, EngineError>(match t.value(0) {
                Value::Int(7) => RowEdit::Replace(vec![t.clone(), t.clone()]),
                Value::Int(600) => RowEdit::Replace(vec![Tuple::base(vec![Value::Int(-1)])]),
                _ => RowEdit::Keep,
            })
        })
        .unwrap();
        for x in 1000..1100 {
            new.insert(vec![Value::Int(x)]).unwrap();
        }
        let naive = |a: &OngoingRelation, b: &OngoingRelation| {
            let (a, b): (Vec<_>, Vec<_>) = (a.iter().collect(), b.iter().collect());
            let common = a.iter().zip(&b).filter(|(x, y)| x != y).count();
            (common + a.len().abs_diff(b.len())) as u64
        };
        for (a, b) in [(&old, &new), (&new, &old), (&old, &old)] {
            assert_eq!(positional_diff(a, b).unwrap(), naive(a, b));
        }
    }

    #[test]
    fn create_lookup_drop() {
        let db = Database::new();
        db.create_table("t", rel()).unwrap();
        assert_eq!(db.table("t").unwrap().data().len(), 1);
        assert_eq!(db.table_names(), vec!["t".to_string()]);
        db.drop_table("t").unwrap();
        assert!(matches!(db.table("t"), Err(EngineError::UnknownTable(_))));
    }

    #[test]
    fn duplicate_create_fails() {
        let db = Database::new();
        db.create_table("t", rel()).unwrap();
        assert!(matches!(
            db.create_table("t", rel()),
            Err(EngineError::DuplicateTable(_))
        ));
    }

    #[test]
    fn put_table_replaces() {
        let db = Database::new();
        db.create_table("t", rel()).unwrap();
        let mut bigger = rel();
        bigger.insert(vec![Value::Int(2)]).unwrap();
        db.put_table("t", bigger).unwrap();
        assert_eq!(db.table("t").unwrap().data().len(), 2);
    }

    #[test]
    fn drop_missing_fails() {
        let db = Database::new();
        assert!(db.drop_table("nope").is_err());
    }

    #[test]
    fn analyze_attaches_statistics_and_put_table_clears_them() {
        let db = Database::new();
        db.create_table("t", rel()).unwrap();
        assert!(db.table("t").unwrap().statistics().is_none());
        let stats = db.analyze("t").unwrap();
        assert_eq!(stats.rows, 1);
        assert!(db.table("t").unwrap().statistics().is_some());
        // Replacing the data discards the now-unrelated statistics.
        db.put_table("t", rel()).unwrap();
        assert!(db.table("t").unwrap().statistics().is_none());
    }

    #[test]
    fn modify_table_applies_and_counts() {
        let db = Database::new();
        db.create_table("t", rel()).unwrap();
        let n = db
            .modify_table("t", |r| {
                r.insert(vec![Value::Int(2)]).unwrap();
                Ok(r.len())
            })
            .unwrap();
        assert_eq!(n, 2);
        assert_eq!(db.table("t").unwrap().data().len(), 2);
        assert!(db.modify_table("nope", |_| Ok(())).is_err());
    }
}
