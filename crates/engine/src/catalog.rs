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
use ongoing_relation::{JournalOp, OngoingRelation, Schema};
use parking_lot::{Mutex, RwLock};
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, PoisonError};
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
    /// The logical version: fresh per publication, kept by a copy that
    /// only changes residency (checkpoint demotion).
    version: u64,
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

    /// Publishes a relation version as a table under a fresh logical
    /// version: the pending insert tail is sealed so readers' forks are
    /// pure reference bumps.
    fn with_state(name: &str, data: OngoingRelation, stats: StatsState) -> Arc<Table> {
        static NEXT_VERSION: AtomicU64 = AtomicU64::new(0);
        let version = NEXT_VERSION.fetch_add(1, Ordering::Relaxed);
        Table::versioned(name, data, stats, version)
    }

    fn versioned(
        name: &str,
        mut data: OngoingRelation,
        stats: StatsState,
        version: u64,
    ) -> Arc<Table> {
        data.seal_pending();
        Arc::new(Table {
            name: name.to_string(),
            data,
            stats: Mutex::new(stats),
            version,
        })
    }
}

thread_local! {
    /// Set while this thread holds a writer gate. A publication started
    /// from inside a `modify_table` closure would wait on a gate its own
    /// thread holds (same table) or could close a wait cycle with another
    /// writer (another table), so it is refused instead.
    static PUBLISHING: Cell<bool> = const { Cell::new(false) };
}

/// A table's writer gate: a FIFO ticket lock that every publisher of the
/// table holds for its whole publication. Publishers are served strictly
/// in arrival order, so none starves however heavy the contention.
#[derive(Debug, Default)]
struct WriterGate {
    /// The next ticket to hand out and the ticket being served.
    turn: Mutex<(u64, u64)>,
    served: Condvar,
}

/// A held [`WriterGate`]; dropping it serves the next ticket.
struct WriterPass {
    gate: Arc<WriterGate>,
    /// Microseconds the publisher waited for the gate.
    wait_us: u64,
}

impl Drop for WriterPass {
    fn drop(&mut self) {
        PUBLISHING.with(|p| p.set(false));
        self.gate.turn.lock().1 += 1;
        self.gate.served.notify_all();
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
    /// Per-table writer gates, keyed by name, not by table version: a
    /// gate survives publications, which replace the `Arc<Table>`, and
    /// outlives a drop, so a re-created table shares it.
    gates: Mutex<HashMap<String, Arc<WriterGate>>>,
    /// The durable backing (WAL, chunk files, manifest), if any.
    ///
    /// **Lock order**: writer gate → durable commit guard → `tables`. The
    /// commit guard serializes publications of different tables against
    /// each other and against checkpoint garbage collection.
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
    /// registry's own counters/histograms (exec work units, writer waits,
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
    /// slow-query threshold — the event ring. Called by the one execution
    /// seam, [`crate::sql::execute_compiled`], after every successful run.
    pub(crate) fn record_query(&self, label: &str, stats: &ExecStats, wall: Duration) {
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
        let pass = self.writer_gate(name)?;
        self.commit(
            name,
            &pass,
            |slot| match slot {
                Some(_) => Err(EngineError::DuplicateTable(name.to_string())),
                None => Ok(()),
            },
            None,
            Some(table),
        )
    }

    /// Replaces (or creates) a table. Any previously collected statistics
    /// are discarded (the new data is unknown to the subsystem). On a
    /// durable database the replacement is logged as a full-state record
    /// before it becomes visible.
    pub fn put_table(&self, name: &str, data: OngoingRelation) -> Result<()> {
        let table = Table::with_state(name, data, StatsState::default());
        let pass = self.writer_gate(name)?;
        self.commit(name, &pass, |_| Ok(()), None, Some(table))
    }

    /// Applies a modification to a catalog-resident table. Callers run
    /// [`Modifier`](crate::modify::Modifier) operations (or any other
    /// rewrite) inside the closure; the catalog swaps in the modified
    /// version and advances the statistics staleness counter by the
    /// *logical row-write delta* the closure produced — exact, straight
    /// from the copy-on-write store, so a one-row edit counts one row no
    /// matter where in the table it sits (and no matter how much
    /// copy-on-write bookkeeping it triggered). A closure that rebuilt
    /// the relation instead of editing it counts every row of the larger
    /// of the two versions.
    /// Once an *analyzed* table crosses the staleness threshold (50 rows +
    /// 10 % of the analyzed row count) its statistics are refreshed
    /// automatically; never-analyzed tables stay that way until an
    /// explicit `ANALYZE`. Statistics collected concurrently against the
    /// pre-modification snapshot are superseded by the swap (they
    /// described the old data).
    ///
    /// **Writers queue, readers don't.** The call holds the table's
    /// writer gate — a FIFO queue every publisher of the table joins
    /// ([`put_table`](Self::put_table), [`create_table`](Self::create_table),
    /// [`drop_table`](Self::drop_table) and
    /// [`create_key_index`](Self::create_key_index) too) — from the pin
    /// of the current version through the closure, the statistics
    /// refresh, the fold, the WAL append and the swap. So the closure
    /// runs exactly once, against a private fork of the version it will
    /// replace, and publishes without a retry; `ongoingdb_writer_wait_us`
    /// records how long each publisher queued. Readers take no gate and
    /// keep reading the published version meanwhile. The closure must
    /// not publish to the catalog itself: such a nested call returns
    /// [`EngineError::NestedPublication`]. The fork shares all untouched
    /// chunks with the published version, so a modification costs
    /// O(rows touched), not O(table); when the accumulated delta outgrows
    /// the storage policy ([`ongoing_relation::relation`]) fragmented chunk
    /// *runs* are folded before publication (O(fragmented run), with the
    /// whole-table fold kept only as a policy backstop).
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
        f: impl FnOnce(&mut OngoingRelation) -> Result<T>,
    ) -> Result<T> {
        let pass = self.writer_gate(name)?;
        let table = self.table(name)?;
        let (mut data, out, state) = self.apply(&table, f)?;
        // Seal (journaled) and detach the journal *before* the version is
        // wrapped; both folds in `apply` journal as O(1) markers replay
        // re-derives deterministically.
        data.seal_pending();
        let journal = data.take_journal();
        let next = Table::with_state(name, data, state);
        self.commit(
            name,
            &pass,
            // Only residency changes bypass the gate (checkpoint demotion,
            // cold-slot loading), and both keep the logical version.
            |slot| match slot {
                Some(TableSlot::Ready(current)) if current.version == table.version => Ok(()),
                _ => Err(EngineError::Storage(format!(
                    "internal: table `{name}` changed under its writer gate"
                ))),
            },
            // An armed journal is an O(delta) commit record; a severed
            // one means the closure rebuilt the relation, so its full
            // state is logged (persisting chunks first).
            journal,
            Some(next),
        )?;
        Ok(out)
    }

    /// Takes `name`'s writer gate, queueing behind every earlier publisher
    /// of the table. Refuses a publication from inside another one.
    fn writer_gate(&self, name: &str) -> Result<WriterPass> {
        if PUBLISHING.with(Cell::get) {
            return Err(EngineError::NestedPublication(name.to_string()));
        }
        let gate = Arc::clone(self.gates.lock().entry(name.to_string()).or_default());
        let start = Instant::now();
        {
            let mut turn = gate.turn.lock();
            let ticket = turn.0;
            turn.0 += 1;
            // Every update of `turn` is one increment, so a lock poisoned
            // by a panicking waiter still holds valid counters.
            let _served = gate
                .served
                .wait_while(turn, |turn| turn.1 != ticket)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let wait_us = start.elapsed().as_micros() as u64;
        self.obs
            .metrics
            .histogram("ongoingdb_writer_wait_us")
            .observe(wait_us);
        PUBLISHING.with(|p| p.set(true));
        Ok(WriterPass { gate, wait_us })
    }

    /// The publication point every publisher shares; `pass` is `name`'s
    /// held writer gate. Checks the slot, then — durability point — logs
    /// (and syncs) the change before it becomes visible: `journal` as an
    /// O(delta) commit record, else `next`'s full state, or a drop when
    /// `next` is `None`. Then installs `next` (`None` drops the table).
    fn commit(
        &self,
        name: &str,
        pass: &WriterPass,
        check: impl FnOnce(Option<&TableSlot>) -> Result<()>,
        mut journal: Option<Vec<JournalOp>>,
        mut next: Option<Arc<Table>>,
    ) -> Result<()> {
        let mut guard = self.durable.as_ref().map(DurableState::lock);
        check(self.tables.read().get(name))?;
        if let Some(guard) = &mut guard {
            if let Some(table) = &mut next {
                // Cold chunks another database's pager serves name that
                // database's files: page them in, so the full state is
                // persisted under this database's own chunk ids.
                if let Some(data) = guard.adopt(table.data())? {
                    let state = table.stats.lock().clone();
                    *table = Table::versioned(name, data, state, table.version);
                    journal = None;
                }
            }
            match (&next, journal) {
                (None, _) => guard.append_drop(name),
                (Some(_), Some(ops)) => guard.append_commit(name, ops),
                (Some(table), None) => guard.append_state(name, table.data()),
            }?;
        }
        match next {
            Some(table) => {
                self.tables
                    .write()
                    .insert(name.to_string(), TableSlot::Ready(table));
            }
            None => {
                self.tables.write().remove(name);
            }
        }
        self.obs.metrics.counter("ongoingdb_publications").inc();
        self.obs.events.record(EngineEvent::Publication {
            table: name.to_string(),
            wait_us: pass.wait_us,
        });
        match &mut guard {
            Some(guard) if guard.needs_checkpoint() => self.checkpoint_locked(guard),
            _ => Ok(()),
        }
    }

    /// The body of a publication: forks the pinned version, runs the
    /// closure on the fork, accounts staleness (and refreshes stale
    /// statistics) and folds the accumulated delta. Returns the folded
    /// fork, the closure's output and the statistics state to publish
    /// with it.
    fn apply<T>(
        &self,
        table: &Table,
        f: impl FnOnce(&mut OngoingRelation) -> Result<T>,
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
        let out = f(&mut data)?;
        // Touched rows, exactly: the logical rows the closure wrote on
        // the fork (inserts, replacements, tombstones — not physical
        // bookkeeping like overlay copy-on-write). A closure that
        // *replaced* the relation wholesale (`*rel = built`) severs the
        // storage lineage (O(1) first-chunk probe) and resets the
        // counter, so every row of the larger version counts. The probe
        // can be fooled by swapping in an *older* pinned version (it
        // shares the first chunk but its counter ran backwards), so a
        // counter regression counts as a rebuild too.
        let touched = if data.derives_from(&table.data) && data.logical_writes() >= base_writes {
            data.logical_writes() - base_writes
        } else {
            data.len().max(table.data.len()) as u64
        };
        let mut state = table.stats.lock().clone();
        state.mods_since_analyze += touched.max(1);
        if state.stale() {
            state = StatsState {
                stats: Some(Arc::new(analyze_relation(&data)?)),
                mods_since_analyze: 0,
            };
        }
        // Fold the accumulated delta before publication. Partial first:
        // only fragmented chunk runs, O(fragmented run) — sustained churn
        // on a large table never pays a whole-table fold (a no-op when
        // nothing is fragmented). The global policy stays as a backstop
        // for layouts run folding cannot fix (and for wholesale rebuilds).
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
        // evictable) in the cache. The demoted copy changes residency
        // only, so it keeps the table's logical version and bypasses the
        // writer gate: a writer that pinned the resident copy still
        // publishes over it. Readers holding the pre-demotion `Arc<Table>`
        // keep their fully resident version until they drop it.
        if guard.memory_budget() != u64::MAX {
            for (name, table) in &ready {
                let mut data = table.data.clone();
                if guard.demote(&mut data) > 0 {
                    let state = table.stats.lock().clone();
                    let demoted = Table::versioned(name, data, state, table.version);
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
        self.modify_table(table, |rel| {
            let col = rel.schema().index_of(column)?;
            rel.create_key_index(col)
        })
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
        let pass = self.writer_gate(name)?;
        self.commit(
            name,
            &pass,
            |slot| match slot {
                Some(_) => Ok(()),
                None => Err(EngineError::UnknownTable(name.to_string())),
            },
            None,
            None,
        )
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
    use ongoing_relation::{Schema, Value};

    fn rel() -> OngoingRelation {
        let mut r = OngoingRelation::new(Schema::builder().int("X").build());
        r.insert(vec![Value::Int(1)]).unwrap();
        r
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
