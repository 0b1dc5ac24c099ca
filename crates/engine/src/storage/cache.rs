//! Memory-budgeted chunk cache: the [`ChunkPager`] behind out-of-core
//! tables.
//!
//! The cache pages sealed chunk files (`chunks/<id>.odc`) in on demand and
//! holds them under a byte budget, so a table several times larger than
//! the budget scans with bounded resident chunk bytes. Entries are charged
//! at their *file* size (deterministic — it depends only on the rows, not
//! on allocator layout) and evicted least-recently-used, with uses as a
//! tie-break that only matters for an entry hit before it ages out.
//!
//! **Not scan-resistant.** A repeated scan of a table larger than the
//! budget evicts every chunk before its second use, so no entry ever
//! collects a second use and the policy is plain LRU: the traced
//! `outofcore_scan` benchmark, a 96-chunk table four times the budget,
//! reads `cache.hit_ratio` 0.0 and misses every chunk on every scan.
//! ROADMAP item 12 proposes an admission rule that fixes this.
//!
//! **Pinning.** An entry whose `Arc` is held outside the cache — a scan's
//! transient pin, or a store version that parked the chunk — is never
//! evicted: dropping it from the map would not free the memory, and
//! keeping it at least lets other readers share the load. A working set of
//! pins larger than the budget is therefore allowed to overshoot; the
//! budget bounds what the *cache* retains beyond the pins, and scans that
//! pin one morsel at a time keep the overshoot to one chunk per worker.
//!
//! All counters (hits, misses, evictions, peak bytes) are deterministic
//! for a serial access sequence — they depend only on the order of loads,
//! never on timing.

use crate::error::Result;
use crate::obs::{EngineEvent, EventLog};
use crate::storage::chunkfile::read_chunk;
use crate::storage::vfs::Vfs;
use ongoing_relation::{ChunkPager, PagerError, Tuple};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Counter snapshot of a [`ChunkCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Loads served from memory.
    pub hits: u64,
    /// Loads that had to read the chunk file.
    pub misses: u64,
    /// Entries dropped under budget pressure.
    pub evictions: u64,
    /// Bytes currently charged against the budget.
    pub resident_bytes: u64,
    /// High-water mark of `resident_bytes`.
    pub peak_bytes: u64,
    /// Rows decoded from chunk files (cache misses only).
    pub rows_loaded: u64,
}

#[derive(Debug)]
struct Entry {
    data: Arc<[Tuple]>,
    /// Charge against the budget: the chunk's file size.
    bytes: u64,
    /// Logical clock value of the last load that touched this entry.
    last_used: u64,
    /// Loads served by this entry since admission.
    uses: u32,
}

#[derive(Debug, Default)]
struct CacheInner {
    entries: HashMap<u64, Entry>,
    /// Logical access clock (one tick per load).
    tick: u64,
    stats: CacheStats,
    /// Optional event sink: evictions are recorded as
    /// [`EngineEvent::Eviction`] when the owning database attached its
    /// observability bundle.
    events: Option<Arc<EventLog>>,
}

/// Byte-budgeted, pin-aware cache over sealed chunk files. Shared by every
/// cold chunk of a durable database as its [`ChunkPager`].
#[derive(Debug)]
pub struct ChunkCache {
    vfs: Arc<dyn Vfs>,
    /// The `chunks/` directory the ids resolve under.
    dir: PathBuf,
    budget: u64,
    inner: Mutex<CacheInner>,
}

impl ChunkCache {
    /// A cache over `dir` (the `chunks/` directory) with a byte `budget`.
    pub fn new(vfs: Arc<dyn Vfs>, dir: PathBuf, budget: u64) -> ChunkCache {
        ChunkCache {
            vfs,
            dir,
            budget,
            inner: Mutex::new(CacheInner::default()),
        }
    }

    /// The configured byte budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().expect("cache lock").stats
    }

    /// Attaches an event log: future evictions are recorded as
    /// [`EngineEvent::Eviction`].
    pub fn set_events(&self, events: Arc<EventLog>) {
        self.inner.lock().expect("cache lock").events = Some(events);
    }

    fn path_of(&self, id: u64) -> PathBuf {
        self.dir.join(format!("{id}.odc"))
    }

    /// Loads chunk `id` (expected to hold `len` rows), serving from memory
    /// when cached. The returned `Arc` is the caller's pin: the entry
    /// stays unevictable until every outside holder drops it.
    pub fn load_chunk(&self, id: u64, len: usize) -> Result<Arc<[Tuple]>> {
        {
            let mut inner = self.inner.lock().expect("cache lock");
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(e) = inner.entries.get_mut(&id) {
                e.last_used = tick;
                e.uses = e.uses.saturating_add(1);
                let data = Arc::clone(&e.data);
                inner.stats.hits += 1;
                // Budget enforcement rides on every touch: entries that
                // were unevictable when admitted (all pins held) get
                // trimmed here once their holders have let go.
                Self::evict_to_budget(&mut inner, self.budget);
                return Ok(data);
            }
            inner.stats.misses += 1;
        }
        // Read outside the lock; concurrent misses on the same id may race
        // the read, the first insert wins and later ones are dropped.
        let (rows, bytes) = read_chunk(self.vfs.as_ref(), &self.path_of(id), len)?;
        let data: Arc<[Tuple]> = rows.into();
        self.admit(id, Arc::clone(&data), bytes, true);
        Ok(data)
    }

    /// Admits (or refreshes) an entry and trims to budget. `count_rows`
    /// meters `rows_loaded` (true for disk loads, false for warm seeds).
    fn admit(&self, id: u64, data: Arc<[Tuple]>, bytes: u64, count_rows: bool) {
        let mut inner = self.inner.lock().expect("cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        if count_rows {
            inner.stats.rows_loaded += data.len() as u64;
        }
        if inner.entries.contains_key(&id) {
            return; // lost a concurrent-miss race; keep the incumbent
        }
        // Make room *before* admitting, so resident bytes — and the peak
        // the out-of-core contract bounds — never transiently exceed the
        // budget on the way in. Only pins can push past it.
        Self::evict_to_budget(&mut inner, self.budget.saturating_sub(bytes));
        inner.entries.insert(
            id,
            Entry {
                data,
                bytes,
                last_used: tick,
                uses: 1,
            },
        );
        inner.stats.resident_bytes += bytes;
        inner.stats.peak_bytes = inner.stats.peak_bytes.max(inner.stats.resident_bytes);
    }

    /// Seeds the cache with rows already in memory (e.g. a chunk just
    /// persisted and demoted) so the next scan hits warm.
    pub fn seed(&self, id: u64, data: Arc<[Tuple]>, bytes: u64) {
        self.admit(id, data, bytes, false);
    }

    /// Evicts whatever became evictable since the last touch — called
    /// after a demotion drops its pins, so a freshly demoted table does
    /// not linger warm over budget until the next access.
    pub fn trim(&self) {
        let mut inner = self.inner.lock().expect("cache lock");
        Self::evict_to_budget(&mut inner, self.budget);
    }

    /// Drops an entry outright (checkpoint GC removed its file).
    pub fn forget(&self, id: u64) {
        let mut inner = self.inner.lock().expect("cache lock");
        if let Some(e) = inner.entries.remove(&id) {
            inner.stats.resident_bytes -= e.bytes;
        }
    }

    /// Evicts unpinned entries until resident bytes fit the budget.
    /// Victims are picked by `(uses bucket, last_used)` — one-touch
    /// entries go before hit ones, oldest first — which is fully
    /// deterministic for a serial access sequence. This protects nothing
    /// from a scan larger than the budget: its chunks are evicted before
    /// their second use, so every entry stays one-touch and the order is
    /// plain LRU (see the module docs). When every entry is
    /// pinned the cache stays over budget: the memory is held by the pins
    /// regardless, and dropping map entries would only lose sharing.
    fn evict_to_budget(inner: &mut CacheInner, budget: u64) {
        while inner.stats.resident_bytes > budget {
            let victim = inner
                .entries
                .iter()
                .filter(|(_, e)| Arc::strong_count(&e.data) == 1)
                .min_by_key(|(_, e)| (e.uses.min(4), e.last_used))
                .map(|(&id, _)| id);
            let Some(id) = victim else { break };
            let e = inner.entries.remove(&id).expect("victim exists");
            inner.stats.resident_bytes -= e.bytes;
            inner.stats.evictions += 1;
            if let Some(events) = &inner.events {
                events.record(EngineEvent::Eviction {
                    chunk: id,
                    bytes: e.bytes,
                });
            }
        }
    }
}

impl ChunkPager for ChunkCache {
    fn load(&self, id: u64, len: usize) -> std::result::Result<Arc<[Tuple]>, PagerError> {
        self.load_chunk(id, len)
            .map_err(|e| PagerError(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::EngineError;
    use crate::storage::chunkfile::write_chunk;
    use crate::storage::fault::TempDir;
    use crate::storage::vfs::RealFs;
    use ongoing_relation::Value;
    use std::path::Path;

    fn rows(tag: i64, n: usize) -> Vec<Tuple> {
        (0..n as i64)
            .map(|i| Tuple::base(vec![Value::Int(tag * 1000 + i)]))
            .collect()
    }

    /// Writes `n`-row chunks 0..count under `dir`, returning their sizes.
    fn write_chunks(dir: &Path, count: u64, n: usize) -> Vec<u64> {
        (0..count)
            .map(|id| {
                write_chunk(
                    &RealFs,
                    &dir.join(format!("{id}.odc")),
                    &rows(id as i64, n),
                    false,
                )
                .unwrap()
            })
            .collect()
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let dir = TempDir::new("cache-hits");
        write_chunks(dir.path(), 2, 8);
        let cache = ChunkCache::new(Arc::new(RealFs), dir.path().to_path_buf(), u64::MAX);
        let a = cache.load_chunk(0, 8).unwrap();
        assert_eq!(a.len(), 8);
        let b = cache.load_chunk(0, 8).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        cache.load_chunk(1, 8).unwrap();
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 2, 0));
        assert_eq!(s.rows_loaded, 16);
        assert!(s.resident_bytes > 0);
        assert_eq!(s.peak_bytes, s.resident_bytes);
    }

    #[test]
    fn evicts_lru_beyond_budget() {
        let dir = TempDir::new("cache-evict");
        let sizes = write_chunks(dir.path(), 3, 8);
        // Budget fits exactly two chunks.
        let budget = sizes[0] + sizes[1];
        let cache = ChunkCache::new(Arc::new(RealFs), dir.path().to_path_buf(), budget);
        cache.load_chunk(0, 8).unwrap();
        cache.load_chunk(1, 8).unwrap();
        // Loading a third evicts the least recently used (chunk 0).
        cache.load_chunk(2, 8).unwrap();
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert!(s.resident_bytes <= budget);
        // Room is made before admitting, so even the eviction-triggering
        // load never pushed the resident bytes past the budget.
        assert_eq!(s.peak_bytes, sizes[0] + sizes[1]);
        assert!(s.peak_bytes <= budget);
        // Chunk 0 is gone (miss), chunk 2 is warm (hit).
        cache.load_chunk(2, 8).unwrap();
        cache.load_chunk(0, 8).unwrap();
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 4));
    }

    #[test]
    fn frequency_bias_protects_hot_entries() {
        let dir = TempDir::new("cache-freq");
        let sizes = write_chunks(dir.path(), 3, 8);
        let budget = sizes[0] + sizes[1];
        let cache = ChunkCache::new(Arc::new(RealFs), dir.path().to_path_buf(), budget);
        // Chunk 0 is hot (3 uses); chunk 1 is one-touch but more recent.
        cache.load_chunk(0, 8).unwrap();
        cache.load_chunk(0, 8).unwrap();
        cache.load_chunk(0, 8).unwrap();
        cache.load_chunk(1, 8).unwrap();
        cache.load_chunk(2, 8).unwrap();
        // The one-touch entry went, despite being fresher than chunk 0.
        cache.load_chunk(0, 8).unwrap();
        assert_eq!(cache.stats().hits, 3);
        cache.load_chunk(1, 8).unwrap();
        assert_eq!(cache.stats().misses, 3 + 1);
    }

    #[test]
    fn pinned_entries_survive_pressure() {
        let dir = TempDir::new("cache-pin");
        let sizes = write_chunks(dir.path(), 3, 8);
        let budget = sizes[0];
        let cache = ChunkCache::new(Arc::new(RealFs), dir.path().to_path_buf(), budget);
        let pin0 = cache.load_chunk(0, 8).unwrap();
        let pin1 = cache.load_chunk(1, 8).unwrap();
        // Both entries are pinned: over budget, but nothing evictable.
        assert_eq!(cache.stats().evictions, 0);
        assert!(cache.stats().resident_bytes > budget);
        drop(pin1);
        // Pressure from the next load can now evict chunk 1 (and itself).
        let pin2 = cache.load_chunk(2, 8).unwrap();
        let s = cache.stats();
        assert!(s.evictions >= 1);
        assert!(cache.load_chunk(0, 8).unwrap().len() == 8);
        assert_eq!(pin0.len(), 8);
        drop(pin2);
    }

    #[test]
    fn length_mismatch_is_corruption() {
        let dir = TempDir::new("cache-len");
        write_chunks(dir.path(), 1, 8);
        let cache = ChunkCache::new(Arc::new(RealFs), dir.path().to_path_buf(), u64::MAX);
        assert!(matches!(
            cache.load_chunk(0, 9),
            Err(EngineError::CorruptStorage(_))
        ));
    }

    #[test]
    fn seed_makes_scans_warm_without_row_metering() {
        let dir = TempDir::new("cache-seed");
        let sizes = write_chunks(dir.path(), 1, 8);
        let cache = ChunkCache::new(Arc::new(RealFs), dir.path().to_path_buf(), u64::MAX);
        cache.seed(0, rows(0, 8).into(), sizes[0]);
        cache.load_chunk(0, 8).unwrap();
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.rows_loaded), (1, 0, 0));
        cache.forget(0);
        assert_eq!(cache.stats().resident_bytes, 0);
    }
}
