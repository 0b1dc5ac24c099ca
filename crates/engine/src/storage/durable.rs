//! Durable database state: WAL + chunk files + manifest, glued together.
//!
//! One [`DurableState`] lives inside a durable [`Database`] and owns the
//! on-disk layout
//!
//! ```text
//! <dir>/wal.log             append-only write-ahead log
//! <dir>/MANIFEST            atomically replaced checkpoint snapshot
//! <dir>/chunks/<id>.odc     immutable sealed-chunk files
//! ```
//!
//! The commit protocol keeps publications **O(delta)**: a `modify_table`
//! closure's journaled physical ops are appended (and fsynced) as one
//! [`WalRecord::Commit`] *before* the new version becomes visible. Chunk
//! files are written only at checkpoint time (or when a wholesale
//! replacement needs a full [`WalRecord::TableState`]), and only for chunk
//! allocations not yet persisted — identified by `Arc` pointer identity,
//! with the cache holding the `Arc` alive so an address can never be
//! recycled while it still names a file.
//!
//! Ordering invariant: chunk files and the manifest are written and
//! fsynced *before* any WAL record or manifest reference to them, so a
//! crash can orphan complete files but never dangle a reference; and the
//! manifest's LSN filter makes the checkpoint's manifest-publish →
//! WAL-reset window idempotent.
//!
//! [`Database`]: crate::catalog::Database

use crate::error::{EngineError, Result};
use crate::obs::{EngineEvent, Obs};
use crate::storage::cache::ChunkCache;
use crate::storage::chunkfile::{decode_chunk, write_chunk};
use crate::storage::manifest::{read_manifest, write_manifest, Manifest};
use crate::storage::vfs::{with_retry, DiskError, RealFs, Vfs};
use crate::storage::wal::{
    scan, truncate_file, ChunkEntry, TableState, WalRecord, WalTail, WalWriter,
};
use ongoing_relation::{
    ChunkPager, ChunkSource, JournalOp, OngoingRelation, OwnedChunkSource, PagedChunkPart, Tuple,
};
use parking_lot::{Mutex, MutexGuard};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

/// WAL file name.
pub const WAL_FILE: &str = "wal.log";
/// Manifest file name.
pub const MANIFEST_FILE: &str = "MANIFEST";
/// Chunk-file subdirectory.
pub const CHUNKS_DIR: &str = "chunks";

/// Environment override for [`DurableOptions::memory_budget`] — how CI
/// reruns whole suites under a deliberately tiny budget so eviction is
/// exercised on every path.
pub const MEMORY_BUDGET_ENV: &str = "ONGOINGDB_MEMORY_BUDGET";

/// Tuning knobs for a durable database.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurableOptions {
    /// Fsync the WAL on every commit and chunk files on write. Disable
    /// only for tests that simulate crashes by explicit truncation anyway.
    pub fsync: bool,
    /// Checkpoint (fold the WAL into chunk files + manifest, then truncate
    /// it) once the log exceeds this many bytes. `u64::MAX` disables
    /// automatic checkpoints; `0` checkpoints after every commit.
    pub checkpoint_bytes: u64,
    /// Byte budget of the resident chunk cache. `u64::MAX` (the default)
    /// keeps every table fully resident, exactly as before the cache
    /// existed. A finite budget makes recovered tables page their sealed
    /// chunks in per access, and lets a checkpoint *demote* freshly
    /// persisted sealed chunks to cold (they are write-once on disk
    /// already) — so tables many times the budget scan with peak resident
    /// chunk bytes bounded by it. Overridable via
    /// [`MEMORY_BUDGET_ENV`].
    pub memory_budget: u64,
}

impl Default for DurableOptions {
    fn default() -> DurableOptions {
        let memory_budget = std::env::var(MEMORY_BUDGET_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or(u64::MAX);
        DurableOptions {
            fsync: true,
            checkpoint_bytes: 4 << 20,
            memory_budget,
        }
    }
}

/// Counters describing the durable layer's work — what the recovery bench
/// asserts O(delta) publication and lazy loading on. All counts are for
/// this process's lifetime (they restart at zero on open).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurableStats {
    /// WAL records appended.
    pub wal_records: u64,
    /// WAL bytes appended.
    pub wal_bytes: u64,
    /// Tuples serialized into WAL records (journal appends, edit
    /// replacement rows, inline overlay rows).
    pub wal_tuples: u64,
    /// Chunk files written.
    pub chunk_files: u64,
    /// Tuples written into chunk files.
    pub chunk_tuples: u64,
    /// Tuples materialized from chunk files (lazy recovery loads).
    pub tuples_loaded: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Chunk-cache hits: a paged chunk access served from resident bytes.
    pub cache_hits: u64,
    /// Chunk-cache misses: a paged chunk access that had to read its file.
    pub cache_misses: u64,
    /// Chunks evicted from the cache under budget pressure.
    pub cache_evictions: u64,
    /// Bytes currently resident in the chunk cache.
    pub cache_resident_bytes: u64,
    /// High-water mark of resident chunk-cache bytes — what the
    /// out-of-core repro asserts stays at or below the budget.
    pub cache_peak_bytes: u64,
}

/// One table as recovery found it: its last durable full state plus every
/// committed journal after that state, in order. Held by a cold catalog
/// slot until first access materializes it.
#[derive(Debug)]
pub struct RecoveredTable {
    /// The base physical state (from the manifest or a full-state record).
    pub state: TableState,
    /// Journals of the committed publications to replay on top, in order.
    pub commits: Vec<Vec<JournalOp>>,
}

#[derive(Debug)]
struct DurableInner {
    wal: WalWriter,
    /// Persisted-chunk identity: base-allocation address → (chunk file id,
    /// file bytes, a clone of the `Arc` pinning that address). Entries are
    /// dropped when checkpoint GC deletes the file, or when the chunk is
    /// *demoted* to cold — in both cases the address can no longer be
    /// presented as that id (re-encountering the data merely rewrites it
    /// under a fresh id, which costs a duplicate file, never correctness).
    chunk_cache: HashMap<usize, (u64, u64, Arc<[Tuple]>)>,
    next_chunk: u64,
    stats: DurableStats,
}

/// The durable side of a database: directory, options, and the serialized
/// commit state. All WAL appends, chunk writes, checkpoints and recovery
/// loads happen under the single [`lock`](DurableState::lock) — the
/// catalog acquires it *before* touching its own table map (lock order:
/// durable guard, then tables), which is what serializes publication
/// against checkpoint GC.
#[derive(Debug)]
pub struct DurableState {
    dir: PathBuf,
    opts: DurableOptions,
    vfs: Arc<dyn Vfs>,
    /// The byte-budgeted pager cold chunks load through.
    cache: Arc<ChunkCache>,
    /// Set on any failed fsync; every subsequent durable operation fails
    /// fast. Fail-stop by design (fsyncgate): after a failed fsync the
    /// page cache can no longer be trusted, so the only safe recovery is
    /// a fresh open that re-reads the actual on-disk state.
    poisoned: AtomicBool,
    /// The owning database's observability bundle, attached after open —
    /// absorbed WAL faults surface as events and registry counters.
    obs: OnceLock<Arc<Obs>>,
    inner: Mutex<DurableInner>,
}

/// Exclusive access to the durable state (see [`DurableState::lock`]).
pub struct DurableGuard<'a> {
    state: &'a DurableState,
    inner: MutexGuard<'a, DurableInner>,
}

fn chunk_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(CHUNKS_DIR).join(format!("{id}.odc"))
}

fn record_tuples(rec: &WalRecord) -> u64 {
    match rec {
        WalRecord::TableState(state) => state
            .chunks
            .iter()
            .flat_map(|c| c.overlay.values())
            .map(|rows| rows.len() as u64)
            .sum(),
        WalRecord::Commit { ops, .. } => ops
            .iter()
            .map(|op| match op {
                JournalOp::Append(_) => 1,
                JournalOp::Edits(entries) => entries
                    .iter()
                    .map(|(_, _, rows, _)| rows.len() as u64)
                    .sum(),
                _ => 0,
            })
            .sum(),
        WalRecord::DropTable { .. } => 0,
    }
}

impl DurableState {
    /// Opens (creating or recovering) the durable state at `dir`.
    ///
    /// Recovery reads the manifest, scans the WAL, truncates a torn tail,
    /// and folds every surviving record with `seq > manifest.lsn` over the
    /// manifest's table states. The folded tables come back as
    /// [`RecoveredTable`] plans — chunk files are *not* read here; the
    /// catalog materializes each table on first access. Mid-log damage
    /// (a complete record failing its checksum) or a commit referencing a
    /// table the fold does not know surfaces as
    /// [`EngineError::CorruptStorage`].
    pub fn open(dir: &Path, opts: DurableOptions) -> Result<(DurableState, Vec<RecoveredTable>)> {
        DurableState::open_with_vfs(dir, opts, Arc::new(RealFs))
    }

    /// [`open`](Self::open) over an explicit [`Vfs`] — how fault-injection
    /// tests run the full durability stack against a flaky disk.
    pub fn open_with_vfs(
        dir: &Path,
        opts: DurableOptions,
        vfs: Arc<dyn Vfs>,
    ) -> Result<(DurableState, Vec<RecoveredTable>)> {
        with_retry(|| vfs.create_dir_all(&dir.join(CHUNKS_DIR)), || Ok(()))?;
        let manifest = read_manifest(vfs.as_ref(), &dir.join(MANIFEST_FILE))?.unwrap_or_default();
        let wal_path = dir.join(WAL_FILE);
        let (records, tail) = scan(vfs.as_ref(), &wal_path)?;
        let wal_len = match tail {
            WalTail::Clean => records.last().map_or(0, |(_, end, _)| *end),
            WalTail::Torn { at } => {
                truncate_file(vfs.as_ref(), &wal_path, at)?;
                at
            }
        };

        let mut tables: BTreeMap<String, RecoveredTable> = manifest
            .tables
            .into_iter()
            .map(|state| {
                (
                    state.name.clone(),
                    RecoveredTable {
                        state,
                        commits: Vec::new(),
                    },
                )
            })
            .collect();
        let mut max_seq = manifest.lsn;
        let mut max_chunk = manifest.next_chunk;
        for t in tables.values() {
            for c in &t.state.chunks {
                max_chunk = max_chunk.max(c.file + 1);
            }
        }
        for (seq, _, rec) in records {
            if seq <= manifest.lsn {
                // Already folded into the manifest: a crash hit the window
                // between manifest publication and WAL truncation.
                continue;
            }
            max_seq = max_seq.max(seq);
            match rec {
                WalRecord::TableState(state) => {
                    for c in &state.chunks {
                        max_chunk = max_chunk.max(c.file + 1);
                    }
                    tables.insert(
                        state.name.clone(),
                        RecoveredTable {
                            state,
                            commits: Vec::new(),
                        },
                    );
                }
                WalRecord::Commit { table, ops } => match tables.get_mut(&table) {
                    Some(t) => t.commits.push(ops),
                    None => {
                        return Err(EngineError::CorruptStorage(format!(
                            "wal commit for unknown table `{table}`"
                        )))
                    }
                },
                WalRecord::DropTable { table } => {
                    tables.remove(&table);
                }
            }
        }
        // Orphaned chunk files (a crash between chunk write and record
        // append) must not be reused for new content.
        for name in with_retry(|| vfs.list(&dir.join(CHUNKS_DIR)), || Ok(()))? {
            if let Some(id) = name
                .strip_suffix(".odc")
                .and_then(|n| n.parse::<u64>().ok())
            {
                max_chunk = max_chunk.max(id + 1);
            }
        }

        let wal = WalWriter::open(Arc::clone(&vfs), &wal_path, wal_len, max_seq + 1)?;
        let cache = Arc::new(ChunkCache::new(
            Arc::clone(&vfs),
            dir.join(CHUNKS_DIR),
            opts.memory_budget,
        ));
        let state = DurableState {
            dir: dir.to_path_buf(),
            opts,
            vfs,
            cache,
            poisoned: AtomicBool::new(false),
            obs: OnceLock::new(),
            inner: Mutex::new(DurableInner {
                wal,
                chunk_cache: HashMap::new(),
                next_chunk: max_chunk,
                stats: DurableStats::default(),
            }),
        };
        Ok((state, tables.into_values().collect()))
    }

    /// The database directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The options the state was opened with.
    pub fn options(&self) -> &DurableOptions {
        &self.opts
    }

    /// The byte-budgeted chunk cache backing cold chunks.
    pub fn cache(&self) -> &Arc<ChunkCache> {
        &self.cache
    }

    /// Has a failed fsync poisoned this handle (fail-stop)?
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::SeqCst)
    }

    /// Attaches the owning database's observability bundle (first call
    /// wins): absorbed WAL faults surface as `wal_fault_retry` events and
    /// the `ongoingdb_wal_fault_retries` counter, and chunk-cache
    /// evictions as `eviction` events.
    pub fn attach_obs(&self, obs: Arc<Obs>) {
        self.cache.set_events(Arc::clone(&obs.events));
        let _ = self.obs.set(obs);
    }

    /// Acquires the commit lock.
    pub fn lock(&self) -> DurableGuard<'_> {
        DurableGuard {
            state: self,
            inner: self.inner.lock(),
        }
    }

    /// A snapshot of the work counters, with the chunk cache's counters
    /// folded in.
    pub fn stats(&self) -> DurableStats {
        let mut s = self.inner.lock().stats;
        let c = self.cache.stats();
        s.cache_hits = c.hits;
        s.cache_misses = c.misses;
        s.cache_evictions = c.evictions;
        s.cache_resident_bytes = c.resident_bytes;
        s.cache_peak_bytes = c.peak_bytes;
        s.tuples_loaded += c.rows_loaded;
        s
    }
}

impl DurableGuard<'_> {
    /// Bytes currently in the WAL.
    pub fn wal_len(&self) -> u64 {
        self.inner.wal.len()
    }

    /// Has the WAL outgrown the checkpoint threshold?
    pub fn needs_checkpoint(&self) -> bool {
        self.inner.wal.len() > self.state.opts.checkpoint_bytes
    }

    /// The configured memory budget (`u64::MAX` = unbounded).
    pub fn memory_budget(&self) -> u64 {
        self.state.opts.memory_budget
    }

    /// A snapshot of the work counters (without cache counters; use
    /// [`DurableState::stats`] for the merged view).
    pub fn stats(&self) -> DurableStats {
        self.inner.stats
    }

    /// Fails fast once a failed fsync has poisoned the handle: no further
    /// appends, checkpoints or loads — reopen to recover from disk truth.
    fn check_poisoned(&self) -> Result<()> {
        if self.state.poisoned.load(Ordering::SeqCst) {
            return Err(EngineError::Io(
                "durable state poisoned: an earlier fsync failed; reopen the database to recover"
                    .into(),
            ));
        }
        Ok(())
    }

    /// Maps a disk error up, poisoning the handle on a failed fsync.
    fn disk(&self, e: DiskError) -> EngineError {
        if matches!(e, DiskError::SyncFailed(_)) {
            self.state.poisoned.store(true, Ordering::SeqCst);
        }
        e.into()
    }

    fn append(&mut self, rec: &WalRecord) -> Result<()> {
        self.check_poisoned()?;
        let tuples = record_tuples(rec);
        let fsync = self.state.opts.fsync;
        let retries_before = self.inner.wal.absorbed_retries();
        let appended = self.inner.wal.append(rec, fsync);
        let (_seq, bytes) = appended.map_err(|e| self.disk(e))?;
        let absorbed = self.inner.wal.absorbed_retries() - retries_before;
        let stats = &mut self.inner.stats;
        stats.wal_records += 1;
        stats.wal_bytes += bytes;
        stats.wal_tuples += tuples;
        if absorbed > 0 {
            if let Some(obs) = self.state.obs.get() {
                obs.metrics
                    .counter("ongoingdb_wal_fault_retries")
                    .add(absorbed);
                obs.events.record(EngineEvent::WalFaultRetry {
                    retries: absorbed as u32,
                });
            }
        }
        Ok(())
    }

    /// Logs an O(delta) publication: the journal of physical ops the
    /// closure performed on its fork. Durable once this returns.
    pub fn append_commit(&mut self, table: &str, ops: Vec<JournalOp>) -> Result<()> {
        self.append(&WalRecord::Commit {
            table: table.to_string(),
            ops,
        })
    }

    /// Logs a table's full physical state (create / replace / wholesale
    /// rebuild), persisting any not-yet-persisted chunks *first* so the
    /// record never references a missing file. `rel` must be sealed (the
    /// catalog publishes only sealed versions).
    pub fn append_state(&mut self, name: &str, rel: &OngoingRelation) -> Result<()> {
        let state = self.table_state_of(name, rel)?;
        self.append(&WalRecord::TableState(state))
    }

    /// Logs a table drop.
    pub fn append_drop(&mut self, table: &str) -> Result<()> {
        self.append(&WalRecord::DropTable {
            table: table.to_string(),
        })
    }

    /// Ensures the chunk allocation behind `base` exists as a chunk file,
    /// returning its id. Pointer identity keys the lookup; the cache keeps
    /// the `Arc` alive so the address stays pinned to this file.
    fn ensure_chunk(&mut self, base: &Arc<[Tuple]>) -> Result<u64> {
        let key = base.as_ptr() as usize;
        if let Some((id, _, _)) = self.inner.chunk_cache.get(&key) {
            return Ok(*id);
        }
        let id = self.inner.next_chunk;
        let written = write_chunk(
            self.state.vfs.as_ref(),
            &chunk_path(&self.state.dir, id),
            base,
            self.state.opts.fsync,
        );
        let bytes = written.map_err(|e| self.disk(e))?;
        self.inner.next_chunk += 1;
        self.inner.stats.chunk_files += 1;
        self.inner.stats.chunk_tuples += base.len() as u64;
        self.inner
            .chunk_cache
            .insert(key, (id, bytes, Arc::clone(base)));
        Ok(id)
    }

    /// Builds the durable [`TableState`] of a sealed relation, persisting
    /// chunks as needed. Cold chunks already persist under their id — they
    /// contribute a reference without any I/O (or page-in).
    fn table_state_of(&mut self, name: &str, rel: &OngoingRelation) -> Result<TableState> {
        let mut chunks = Vec::new();
        // `chunk_parts` borrows `rel`; collect owned sources first so
        // `self` stays free for `ensure_chunk`.
        let parts: Vec<PagedChunkPart> = rel
            .chunk_parts()
            .into_iter()
            .map(|p| {
                let src = match p.source {
                    ChunkSource::Resident(a) => OwnedChunkSource::Resident(Arc::clone(a)),
                    ChunkSource::Cold { id, len } => OwnedChunkSource::Cold {
                        pager: Arc::clone(self.state.cache()) as Arc<dyn ChunkPager>,
                        id,
                        len,
                    },
                };
                (src, p.edits.cloned().unwrap_or_default())
            })
            .collect();
        for (src, overlay) in parts {
            let (file, base_len) = match src {
                OwnedChunkSource::Resident(base) => (self.ensure_chunk(&base)?, base.len()),
                OwnedChunkSource::Cold { id, len, .. } => (id, len),
            };
            chunks.push(ChunkEntry {
                file,
                base_len,
                overlay,
            });
        }
        Ok(TableState {
            name: name.to_string(),
            schema: rel.schema().clone(),
            indexed: rel.key_indexed_columns().to_vec(),
            chunks,
        })
    }

    /// Takes a checkpoint over the given (complete, current, sealed) table
    /// set: persists unpersisted chunks, publishes a new manifest
    /// atomically, truncates the WAL, and garbage-collects chunk files no
    /// longer referenced. The sequence counter keeps running across the
    /// truncation.
    pub fn checkpoint(&mut self, tables: &[(&str, &OngoingRelation)]) -> Result<()> {
        self.check_poisoned()?;
        let mut states = Vec::with_capacity(tables.len());
        for (name, rel) in tables {
            states.push(self.table_state_of(name, rel)?);
        }
        let manifest = Manifest {
            lsn: self.inner.wal.next_seq() - 1,
            next_chunk: self.inner.next_chunk,
            tables: states,
        };
        let vfs = self.state.vfs.as_ref();
        write_manifest(
            vfs,
            &self.state.dir.join(MANIFEST_FILE),
            &manifest,
            self.state.opts.fsync,
        )
        .map_err(|e| self.disk(e))?;
        let reset = self.inner.wal.reset();
        reset.map_err(|e| self.disk(e))?;

        // Everything the new manifest does not reference is garbage: the
        // WAL that could have referenced it has just been truncated, and
        // in-memory pins keep their allocations alive independently.
        let referenced: HashSet<u64> = manifest
            .tables
            .iter()
            .flat_map(|t| t.chunks.iter().map(|c| c.file))
            .collect();
        self.inner
            .chunk_cache
            .retain(|_, (id, _, _)| referenced.contains(id));
        let vfs = self.state.vfs.as_ref();
        let chunks_dir = self.state.dir.join(CHUNKS_DIR);
        for name in with_retry(|| vfs.list(&chunks_dir), || Ok(()))? {
            let id = name
                .strip_suffix(".odc")
                .and_then(|n| n.parse::<u64>().ok());
            if let Some(id) = id {
                if !referenced.contains(&id) {
                    let path = chunks_dir.join(&name);
                    with_retry(|| vfs.remove(&path), || Ok(()))?;
                    self.state.cache.forget(id);
                }
            }
        }
        self.inner.stats.checkpoints += 1;
        Ok(())
    }

    /// Demotes every already-persisted resident sealed chunk of `rel` to a
    /// cold reference through the chunk cache, dropping the identity pins
    /// so the memory is governed by the cache budget instead of held
    /// forever. The dropped rows are seeded into the cache (warm, but
    /// evictable). Logically a no-op; the caller republishes the demoted
    /// version. Only meaningful under a finite memory budget. Returns the
    /// number of chunks demoted.
    pub fn demote(&mut self, rel: &mut OngoingRelation) -> usize {
        let pager: Arc<dyn ChunkPager> = Arc::clone(self.state.cache()) as Arc<dyn ChunkPager>;
        let map = &self.inner.chunk_cache;
        let cache = self.state.cache();
        let mut demoted_ids: Vec<u64> = Vec::new();
        let n = rel.demote_where(&pager, |base| {
            let key = base.as_ptr() as usize;
            map.get(&key).map(|(id, bytes, _)| {
                cache.seed(*id, Arc::clone(base), *bytes);
                demoted_ids.push(*id);
                *id
            })
        });
        // Drop the identity pins: the rows now live on disk plus (budget
        // permitting) in the page cache. Keeping the pin would hold every
        // demoted chunk resident forever, defeating the budget.
        self.inner
            .chunk_cache
            .retain(|_, (id, _, _)| !demoted_ids.contains(id));
        // With the pins gone, trim the warm seeds back under budget right
        // away rather than waiting for the next access to shed them.
        cache.trim();
        n
    }

    /// Materializes a recovered table, replaying the committed journals
    /// over its durable state.
    ///
    /// With an unbounded memory budget the chunk files are read, verified
    /// and pinned eagerly (their allocations enter the persisted-chunk
    /// identity map, so a later checkpoint reuses the files). Under a
    /// finite budget the table is built over *cold* chunks instead — zero
    /// rows read here; scans page chunks in through the budgeted cache.
    pub fn load(&mut self, plan: &RecoveredTable) -> Result<OngoingRelation> {
        self.check_poisoned()?;
        if self.state.opts.memory_budget != u64::MAX {
            let parts: Vec<PagedChunkPart> = plan
                .state
                .chunks
                .iter()
                .map(|entry| {
                    (
                        OwnedChunkSource::Cold {
                            pager: Arc::clone(self.state.cache()) as Arc<dyn ChunkPager>,
                            id: entry.file,
                            len: entry.base_len,
                        },
                        entry.overlay.clone(),
                    )
                })
                .collect();
            let mut rel = OngoingRelation::from_paged_parts(
                plan.state.schema.clone(),
                parts,
                &plan.state.indexed,
            );
            for ops in &plan.commits {
                rel.apply_journal(ops.clone());
            }
            return Ok(rel);
        }
        let mut parts = Vec::with_capacity(plan.state.chunks.len());
        let mut loaded = 0u64;
        for entry in &plan.state.chunks {
            let path = chunk_path(&self.state.dir, entry.file);
            let vfs = self.state.vfs.as_ref();
            let raw = with_retry(|| vfs.read(&path), || Ok(()))?;
            let rows = decode_chunk(&raw).map_err(|e| match e {
                EngineError::CorruptStorage(m) => {
                    EngineError::CorruptStorage(format!("{}: {m}", path.display()))
                }
                other => other,
            })?;
            if rows.len() != entry.base_len {
                return Err(EngineError::CorruptStorage(format!(
                    "chunk file {} holds {} rows, manifest says {}",
                    entry.file,
                    rows.len(),
                    entry.base_len
                )));
            }
            loaded += rows.len() as u64;
            let base: Arc<[Tuple]> = rows.into();
            self.inner.chunk_cache.insert(
                base.as_ptr() as usize,
                (entry.file, raw.len() as u64, Arc::clone(&base)),
            );
            parts.push((base, entry.overlay.clone()));
        }
        let mut rel =
            OngoingRelation::from_parts(plan.state.schema.clone(), parts, &plan.state.indexed);
        for ops in &plan.commits {
            rel.apply_journal(ops.clone());
        }
        self.inner.stats.tuples_loaded += loaded;
        Ok(rel)
    }
}
