//! Versioned, chunked copy-on-write tuple storage.
//!
//! An ongoing database exists to *absorb change*: tuples are inserted,
//! terminated and updated continuously while readers keep pinned snapshots
//! (Sec. III / VII of the paper). A flat `Vec<Tuple>` forces every
//! modification to clone the whole relation — O(table) per write. This
//! module replaces it with a version tree over immutable chunks:
//!
//! * **Chunks** — immutable `Arc<[Tuple]>` runs of rows. Versions share
//!   them; nobody ever mutates a sealed chunk.
//! * **Edit overlays** — a per-chunk `BTreeMap<row offset, replacements>`
//!   (an empty replacement list is a tombstone; a multi-tuple list is a
//!   split, e.g. a sequenced update's old/new versions). Overlays are
//!   themselves `Arc`-shared and copied only by the first version that
//!   touches the chunk.
//! * **Pending tail** — an owned `Vec<Tuple>` absorbing inserts; it is
//!   sealed into a chunk when it reaches [`TARGET_CHUNK_ROWS`] (or when the
//!   catalog freezes the version for publication).
//!
//! Cloning a [`TupleStore`] is the *fork* operation: O(#chunks) reference
//! bumps plus a copy of the (bounded) pending tail. A modification then
//! touches only the chunks holding edited rows, so a writer costs
//! O(rows touched), not O(table) — the property the write-path benchmarks
//! assert. [`TupleStore::compact`] folds overlays and fragmented chunks
//! back into dense chunks; it changes the physical layout only, never the
//! logical tuple sequence.
//!
//! All physical write work (tuples appended, overlay entries written,
//! overlay copy-on-write, tail copies on fork, compaction copies) is
//! metered in [`TupleStore::write_work`] — the deterministic work-unit
//! counter the storage benchmarks and the catalog's statistics-staleness
//! accounting consume.

use crate::keyindex::{build_key_map, KeyMap, KeyProbe, KeyedEdit, QualEstimate};
use crate::tuple::Tuple;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// The store's three deterministic write-path counters as one snapshot —
/// see [`TupleStore::work_counters`]. Summable across tables with
/// [`StoreWork::add`], which is how a catalog-wide metrics view rolls the
/// per-table counters up.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreWork {
    /// Physical write work units ([`TupleStore::write_work`]).
    pub write_work: u64,
    /// Logical row writes ([`TupleStore::logical_writes`]).
    pub logical_writes: u64,
    /// Qualification work units ([`TupleStore::qual_work`]).
    pub qual_work: u64,
}

impl StoreWork {
    /// Folds `other` into this snapshot (field-wise sum).
    pub fn add(&mut self, other: &StoreWork) {
        self.write_work += other.write_work;
        self.logical_writes += other.logical_writes;
        self.qual_work += other.qual_work;
    }
}

/// Rows a sealed chunk aims to hold; also the pending-tail seal threshold.
///
/// Chunk boundaries double as the executors' natural morsel boundaries, so
/// the target balances fork cost (smaller chunks ⇒ more `Arc` bumps per
/// clone) against scan fan-out granularity.
pub const TARGET_CHUNK_ROWS: usize = 512;

/// Compaction trigger: dead rows (tombstoned or superseded base rows)
/// exceeding this fraction of the live row count.
pub const COMPACT_DEAD_FRAC: f64 = 0.5;

/// Compaction trigger: minimum chunk-count slack beyond the dense ideal
/// (`ceil(live / TARGET_CHUNK_ROWS)`). Every small insert batch seals into
/// its own chunk, so sustained churn grows the chunk list until a compact
/// folds it. The effective slack is `max(COMPACT_CHUNK_SLACK, ideal)`:
/// letting the slack scale with the dense ideal means an O(table) fold
/// happens at most once per ~ideal chunk-producing modifications, i.e.
/// amortized O(TARGET_CHUNK_ROWS) = O(1) per modification regardless of
/// table size (a constant slack would make it O(table / slack)). The
/// floor keeps small tables from folding on every other insert batch.
pub const COMPACT_CHUNK_SLACK: usize = 64;

/// Partial-compaction trigger: a chunk whose superseded base rows plus
/// overlay replacement rows exceed this fraction of its base size is
/// *dirty* — folding it dense removes the accumulated delta. A dirty
/// chunk has absorbed at least `RUN_DIRTY_FRAC × TARGET_CHUNK_ROWS` row
/// edits since it was sealed, so folding (O(chunk)) is amortized O(1) per
/// edit.
pub const RUN_DIRTY_FRAC: f64 = 0.25;

/// Partial-compaction trigger for *small-chunk runs*: a maximal run of
/// consecutive undersized chunks (each < half full — the insert batches a
/// catalog publication seals) is folded once it holds this many chunks
/// beyond its own dense ideal. The slack amortizes the fold: merging k
/// tiny chunks costs their combined live rows, paid once per
/// `RUN_CHUNK_SLACK` chunk-producing modifications — O(TARGET_CHUNK_ROWS)
/// each time, independent of table size.
pub const RUN_CHUNK_SLACK: usize = 16;

/// One recorded store mutation — the unit of the persistence layer's
/// write-ahead log.
///
/// While a journal is armed ([`TupleStore::begin_journal`]) every mutation
/// primitive appends one op. Replaying the ops with
/// [`TupleStore::apply_journal`] against a physically identical starting
/// state reproduces the exact resulting layout: every primitive is a
/// deterministic function of the store state, so layout-changing ops that
/// would be O(table) to describe (compaction, sealing) are recorded as
/// O(1) markers and re-derived on replay.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalOp {
    /// A row appended to the pending tail ([`TupleStore::push`]).
    Append(Tuple),
    /// One applied edit plan: `(chunk, base offset, replacement rows,
    /// logically touched)` per entry, in plan order (an empty replacement
    /// list is a tombstone). See [`TupleStore::apply_edits`].
    Edits(Vec<(usize, usize, Vec<Tuple>, u64)>),
    /// The pending tail was sealed into a chunk
    /// ([`TupleStore::seal_pending`]).
    Seal,
    /// A whole-table fold ran ([`TupleStore::compact`]).
    Compact,
    /// A partial (run-level) fold ran ([`TupleStore::compact_runs`]).
    CompactRuns,
    /// A keyed qualification index was declared over the column
    /// ([`TupleStore::create_key_index`]).
    CreateKeyIndex(usize),
}

/// A chunk-load failure surfaced by a [`ChunkPager`] — typically an I/O
/// error or a checksum mismatch in the backing store. Carried as a
/// rendered message so this crate stays storage-agnostic; the engine maps
/// it back onto its own error type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PagerError(pub String);

impl std::fmt::Display for PagerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "chunk pager: {}", self.0)
    }
}

impl std::error::Error for PagerError {}

/// Loads sealed chunk bases on demand — the hook a memory-budgeted chunk
/// cache implements so a store can hold *cold* chunks (identity + length
/// only) and page their rows in per access. Implementations must be
/// deterministic: the same `(id, len)` always yields the same rows the
/// chunk was sealed with.
pub trait ChunkPager: Send + Sync + std::fmt::Debug {
    /// Loads chunk `id`, which holds exactly `len` base rows.
    fn load(&self, id: u64, len: usize) -> Result<Arc<[Tuple]>, PagerError>;
}

/// The base rows of one sealed chunk: *resident* (the classic fully
/// in-memory allocation) or *cold* — a pager handle plus durable identity,
/// with the rows paged in on demand.
///
/// Cold chunks support two access disciplines:
///
/// * **Transient pins** ([`LazyChunkView::pin`]): rows are loaded, used,
///   and released with the pin — the budget-honoring path the engine's
///   executors use, keeping at most one morsel's chunks resident per
///   worker.
/// * **Park-on-touch** (every legacy borrow API: [`TupleStore::iter`],
///   [`TupleStore::tuple_at`], the edit planners): the first borrow parks
///   the loaded `Arc` in a per-version [`OnceLock`], keeping the borrow
///   sound for this version's lifetime.
///   Cloning a store resets the locks, so parks accumulated by a
///   query-scoped clone die with that clone instead of bloating the
///   published version. Park-on-touch is the transparent correctness
///   fallback — it trades memory for compatibility, and it *panics* on a
///   pager failure (the fallible path is the pinned view).
#[derive(Debug)]
enum ChunkBase {
    /// Rows held in memory, shared between versions.
    Resident(Arc<[Tuple]>),
    /// Rows on durable storage, paged in per access.
    Cold {
        pager: Arc<dyn ChunkPager>,
        id: u64,
        len: usize,
        parked: OnceLock<Arc<[Tuple]>>,
    },
}

impl Clone for ChunkBase {
    fn clone(&self) -> ChunkBase {
        match self {
            ChunkBase::Resident(a) => ChunkBase::Resident(Arc::clone(a)),
            // A fork starts un-parked: rows a clone touches stay resident
            // only as long as the clone lives.
            ChunkBase::Cold { pager, id, len, .. } => ChunkBase::Cold {
                pager: Arc::clone(pager),
                id: *id,
                len: *len,
                parked: OnceLock::new(),
            },
        }
    }
}

impl ChunkBase {
    /// Base row count — free for both variants.
    fn len(&self) -> usize {
        match self {
            ChunkBase::Resident(a) => a.len(),
            ChunkBase::Cold { len, .. } => *len,
        }
    }

    /// Are the rows in memory (resident, or a cold chunk already parked)?
    fn is_resident(&self) -> bool {
        match self {
            ChunkBase::Resident(_) => true,
            ChunkBase::Cold { parked, .. } => parked.get().is_some(),
        }
    }

    /// Pins the rows for the duration of a borrow *without* parking them:
    /// resident (or already-parked) rows are borrowed, cold rows are paged
    /// in as an owned transient `Arc` released with the pin.
    fn pinned(&self) -> Result<PinBase<'_>, PagerError> {
        match self {
            ChunkBase::Resident(a) => Ok(PinBase::Borrowed(a)),
            ChunkBase::Cold {
                pager,
                id,
                len,
                parked,
            } => match parked.get() {
                Some(a) => Ok(PinBase::Borrowed(a)),
                None => Ok(PinBase::Owned(pager.load(*id, *len)?)),
            },
        }
    }

    /// The rows as a borrow of this version — parking a cold chunk on
    /// first touch. Panics on a pager failure (see the park-on-touch
    /// contract in the type docs); fallible callers pin instead.
    fn slice(&self) -> &[Tuple] {
        match self {
            ChunkBase::Resident(a) => a,
            ChunkBase::Cold {
                pager,
                id,
                len,
                parked,
            } => {
                if let Some(a) = parked.get() {
                    return a;
                }
                let loaded = pager
                    .load(*id, *len)
                    .unwrap_or_else(|e| panic!("cold chunk {id} failed to page in: {e}"));
                parked.get_or_init(|| loaded)
            }
        }
    }

    /// Same-allocation probe: pointer identity for resident chunks,
    /// durable id identity for cold ones (a chunk id names one immutable
    /// file, so equal ids are the same data).
    fn same_alloc(&self, other: &ChunkBase) -> bool {
        match (self, other) {
            (ChunkBase::Resident(a), ChunkBase::Resident(b)) => Arc::ptr_eq(a, b),
            (ChunkBase::Cold { id: a, .. }, ChunkBase::Cold { id: b, .. }) => a == b,
            _ => false,
        }
    }
}

/// One chunk's rows held for the duration of a borrow — either borrowed
/// from a resident allocation or owned as a transient page-in.
#[derive(Debug)]
enum PinBase<'a> {
    Borrowed(&'a [Tuple]),
    Owned(Arc<[Tuple]>),
}

impl PinBase<'_> {
    fn rows(&self) -> &[Tuple] {
        match self {
            PinBase::Borrowed(s) => s,
            PinBase::Owned(a) => a,
        }
    }
}

/// A pinned chunk: live rows accessible while the pin is held. Dropping
/// the pin releases a cold chunk's transient page-in (its cache slot
/// becomes evictable again).
#[derive(Debug)]
pub struct PinnedChunk<'a> {
    base: PinBase<'a>,
    edits: Option<&'a BTreeMap<usize, Vec<Tuple>>>,
    live: usize,
}

impl PinnedChunk<'_> {
    /// Number of live rows in the pinned chunk.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Is the pinned chunk empty?
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The live row at chunk-local ordinal `i` (the chunk's `iter`
    /// ordinals), borrowed from the pin.
    pub fn get(&self, i: usize) -> Option<&Tuple> {
        if i >= self.live {
            return None;
        }
        live_row(self.base.rows(), self.edits, i)
    }

    /// The live rows in storage order (base rows with the overlay spliced
    /// in), borrowed from the pin.
    pub fn iter(&self) -> ChunkRows<'_> {
        ChunkRows {
            base: self.base.rows(),
            edits: self.edits,
            offset: 0,
            replacement: None,
        }
    }
}

/// A chunk view that defers loading: length and partitioning metadata are
/// free; the rows are paged in only by [`pin`](Self::pin). The
/// budget-honoring way to read stores that may hold cold chunks.
#[derive(Debug, Clone, Copy)]
pub struct LazyChunkView<'a> {
    inner: LazyInner<'a>,
}

#[derive(Debug, Clone, Copy)]
enum LazyInner<'a> {
    Sealed(&'a Chunk),
    Pending(&'a [Tuple]),
}

impl<'a> LazyChunkView<'a> {
    /// Number of live rows the view will yield — free, no page-in.
    pub fn len(&self) -> usize {
        match self.inner {
            LazyInner::Sealed(c) => c.live,
            LazyInner::Pending(p) => p.len(),
        }
    }

    /// Is the view empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Would [`pin`](Self::pin) borrow the rows, paging nothing in?
    pub fn is_resident(&self) -> bool {
        match self.inner {
            LazyInner::Sealed(c) => c.base.is_resident(),
            LazyInner::Pending(_) => true,
        }
    }

    /// Pins the chunk's rows: resident rows are borrowed, cold rows are
    /// paged in transiently (released when the [`PinnedChunk`] drops, so a
    /// scan holding one pin per worker keeps at most one morsel resident).
    pub fn pin(&self) -> Result<PinnedChunk<'a>, PagerError> {
        match self.inner {
            LazyInner::Sealed(c) => Ok(PinnedChunk {
                base: c.base.pinned()?,
                edits: c.edits.as_deref(),
                live: c.live,
            }),
            LazyInner::Pending(p) => Ok(PinnedChunk {
                base: PinBase::Borrowed(p),
                edits: None,
                live: p.len(),
            }),
        }
    }
}

/// Serialization view of one sealed chunk: its base identity plus its
/// overlay delta — what the persistence layer writes as a chunk file
/// (base) and a manifest entry (overlay). Resident bases expose the `Arc`
/// so callers can track chunk identity (pointer equality) across
/// versions; cold bases expose the durable id they already persist under,
/// so serializing a cold table never pages anything in.
#[derive(Debug, Clone, Copy)]
pub struct ChunkPart<'a> {
    /// The sealed base rows (resident) or their durable identity (cold).
    pub source: ChunkSource<'a>,
    /// The overlay delta (`None` when the chunk is clean).
    pub edits: Option<&'a BTreeMap<usize, Vec<Tuple>>>,
}

/// The base of one serialized chunk (see [`ChunkPart`]).
#[derive(Debug, Clone, Copy)]
pub enum ChunkSource<'a> {
    /// An in-memory base allocation.
    Resident(&'a Arc<[Tuple]>),
    /// An already-persisted cold base: durable chunk id + row count.
    Cold {
        /// The durable chunk id.
        id: u64,
        /// Base row count.
        len: usize,
    },
}

impl ChunkSource<'_> {
    /// Base row count.
    pub fn len(&self) -> usize {
        match self {
            ChunkSource::Resident(a) => a.len(),
            ChunkSource::Cold { len, .. } => *len,
        }
    }

    /// Is the base empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Owned counterpart of [`ChunkPart`] for fully resident chunks: one
/// chunk's base allocation plus its overlay delta, as handed to
/// [`TupleStore::from_parts`] by recovery.
pub type OwnedChunkPart = (Arc<[Tuple]>, BTreeMap<usize, Vec<Tuple>>);

/// Owned chunk base handed to [`TupleStore::from_paged_parts`]: resident
/// rows, or a cold reference paged in on demand through a [`ChunkPager`].
#[derive(Debug)]
pub enum OwnedChunkSource {
    /// An in-memory base allocation.
    Resident(Arc<[Tuple]>),
    /// A cold base: the pager to load through plus durable identity.
    Cold {
        /// The pager that resolves `id` to rows.
        pager: Arc<dyn ChunkPager>,
        /// The durable chunk id.
        id: u64,
        /// Base row count.
        len: usize,
    },
}

/// One chunk (base source + overlay delta) for
/// [`TupleStore::from_paged_parts`].
pub type PagedChunkPart = (OwnedChunkSource, BTreeMap<usize, Vec<Tuple>>);

/// The outcome of visiting one live row during [`TupleStore::apply_edits`]
/// planning (see [`TupleStore::plan_edits`]).
#[derive(Debug, Clone, PartialEq)]
pub enum RowEdit {
    /// Leave the row untouched.
    Keep,
    /// Physically remove the row (tombstone).
    Remove,
    /// Replace the row with the given tuples, in order (one tuple is an
    /// in-place update; two is a sequenced split, old version first).
    Replace(Vec<Tuple>),
}

/// One immutable chunk plus its shared edit overlay.
#[derive(Debug, Clone)]
struct Chunk {
    base: ChunkBase,
    /// `base` offset → replacement rows (empty = tombstone). `None` means
    /// the chunk is clean. Shared between versions; copied on first write.
    edits: Option<Arc<BTreeMap<usize, Vec<Tuple>>>>,
    /// Live rows the chunk contributes (base minus edited, plus
    /// replacements) — cached so partitioning and `len` stay O(#chunks).
    live: usize,
    /// Keyed qualification indexes over `base`, one per indexed column.
    /// Immutable once built (bases never mutate) and `Arc`-shared by every
    /// version holding the chunk; the overlay is deliberately *not*
    /// indexed — keyed qualification walks it directly (see
    /// [`crate::keyindex`]).
    keys: BTreeMap<usize, Arc<KeyMap>>,
}

impl Chunk {
    fn dense(base: Arc<[Tuple]>) -> Chunk {
        let live = base.len();
        Chunk {
            base: ChunkBase::Resident(base),
            edits: None,
            live,
            keys: BTreeMap::new(),
        }
    }

    /// A cold chunk: durable identity only, rows paged in on demand. No
    /// key maps are built (that would force a page-in); keyed
    /// qualification falls back to a scan until the chunk is folded
    /// resident again or an index is built explicitly.
    fn cold(pager: Arc<dyn ChunkPager>, id: u64, len: usize) -> Chunk {
        Chunk {
            base: ChunkBase::Cold {
                pager,
                id,
                len,
                parked: OnceLock::new(),
            },
            edits: None,
            live: len,
            keys: BTreeMap::new(),
        }
    }

    /// A dense chunk carrying key maps for `cols`.
    fn dense_indexed(base: Arc<[Tuple]>, cols: &[usize]) -> Chunk {
        let mut c = Chunk::dense(base);
        for &col in cols {
            c.keys
                .insert(col, Arc::new(build_key_map(c.base.slice(), col)));
        }
        c
    }

    /// Base rows superseded by the overlay.
    fn edited_base_rows(&self) -> usize {
        self.edits.as_ref().map_or(0, |e| e.len())
    }

    /// Replacement rows held in the overlay.
    fn overlay_rows(&self) -> usize {
        self.edits
            .as_ref()
            .map_or(0, |e| e.values().map(Vec::len).sum())
    }

    /// Has the chunk absorbed enough edits that folding it dense pays off?
    fn is_dirty(&self) -> bool {
        let delta = self.edited_base_rows() + self.overlay_rows();
        delta > 0 && delta as f64 > RUN_DIRTY_FRAC * self.base.len() as f64
    }

    /// Is the chunk undersized (a sealed insert batch)?
    fn is_small(&self) -> bool {
        self.live < TARGET_CHUNK_ROWS / 2
    }
}

/// A planned physical edit: `(chunk index, base offset, edit, touched)`,
/// where `touched` is the *logical* row count the edit represents — for a
/// rebuild of an existing replacement list it counts only the members the
/// caller actually changed, not the untouched ones carried along.
///
/// Produced by [`TupleStore::plan_edits`], consumed by
/// [`TupleStore::apply_edits`]; splitting the scan from the write keeps a
/// failed planning pass (e.g. a predicate evaluation error) from leaving
/// the store half-modified.
pub type PlannedEdit = (usize, usize, RowEdit, u64);

/// Borrowed view of one chunk (or the pending tail), parking a cold chunk
/// on touch — how [`StoreIter`], [`TupleStore::tuple_at`] and edit
/// planning read rows. Iteration yields the chunk's live rows in storage
/// order.
#[derive(Debug, Clone, Copy)]
struct ChunkView<'a> {
    base: &'a [Tuple],
    edits: Option<&'a BTreeMap<usize, Vec<Tuple>>>,
}

impl<'a> ChunkView<'a> {
    /// The live rows in storage order.
    fn iter(&self) -> ChunkRows<'a> {
        ChunkRows {
            base: self.base,
            edits: self.edits,
            offset: 0,
            replacement: None,
        }
    }
}

/// Iterator over one chunk's live rows (base rows with the overlay
/// spliced in).
#[derive(Debug, Clone)]
pub struct ChunkRows<'a> {
    base: &'a [Tuple],
    edits: Option<&'a BTreeMap<usize, Vec<Tuple>>>,
    offset: usize,
    /// In-flight replacement list for the current offset.
    replacement: Option<std::slice::Iter<'a, Tuple>>,
}

impl<'a> Iterator for ChunkRows<'a> {
    type Item = &'a Tuple;

    fn next(&mut self) -> Option<&'a Tuple> {
        loop {
            if let Some(rep) = &mut self.replacement {
                match rep.next() {
                    Some(t) => return Some(t),
                    None => self.replacement = None,
                }
            }
            if self.offset >= self.base.len() {
                return None;
            }
            let i = self.offset;
            self.offset += 1;
            match self.edits.and_then(|e| e.get(&i)) {
                Some(rep) => self.replacement = Some(rep.iter()),
                None => return Some(&self.base[i]),
            }
        }
    }
}

/// The chunk's live row at chunk-local ordinal `rem`: O(1) within a clean
/// chunk, O(overlay entries) within an edited one — the walk maps the
/// ordinal to a base offset (or into a replacement list) by visiting the
/// overlay entries only: clean rows between entries contribute one live
/// row per base row.
fn live_row<'a>(
    base: &'a [Tuple],
    edits: Option<&'a BTreeMap<usize, Vec<Tuple>>>,
    rem: usize,
) -> Option<&'a Tuple> {
    let Some(edits) = edits else {
        return base.get(rem);
    };
    let mut live_before = 0usize;
    let mut clean_start = 0usize;
    for (&off, rep) in edits {
        let clean = off - clean_start;
        if rem < live_before + clean {
            return base.get(clean_start + (rem - live_before));
        }
        live_before += clean;
        if rem < live_before + rep.len() {
            return rep.get(rem - live_before);
        }
        live_before += rep.len();
        clean_start = off + 1;
    }
    base.get(clean_start + (rem - live_before))
}

/// Iterator over every live row of a store, in storage order.
#[derive(Debug, Clone)]
pub struct StoreIter<'a> {
    store: &'a TupleStore,
    chunk: usize,
    rows: Option<ChunkRows<'a>>,
}

impl<'a> Iterator for StoreIter<'a> {
    type Item = &'a Tuple;

    fn next(&mut self) -> Option<&'a Tuple> {
        loop {
            if let Some(rows) = &mut self.rows {
                if let Some(t) = rows.next() {
                    return Some(t);
                }
            }
            let views = self.store.total_views();
            if self.chunk >= views {
                return None;
            }
            self.rows = Some(self.store.view_at(self.chunk).iter());
            self.chunk += 1;
        }
    }
}

/// Physical-layout observability: what a version is made of.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreSummary {
    /// Sealed chunks in the version.
    pub chunks: usize,
    /// Live rows (what [`TupleStore::len`] reports).
    pub live_rows: usize,
    /// Rows held in sealed chunk bases (including superseded ones).
    pub base_rows: usize,
    /// Replacement rows held in edit overlays.
    pub overlay_rows: usize,
    /// Base rows superseded by an overlay entry (tombstoned or replaced).
    pub dead_rows: usize,
    /// Rows in the open pending tail.
    pub pending_rows: usize,
}

/// A version of a relation's tuple sequence: shared immutable chunks, a
/// per-version edit overlay, and an owned pending tail. See the module
/// docs for the design.
#[derive(Debug)]
pub struct TupleStore {
    chunks: Vec<Chunk>,
    pending: Vec<Tuple>,
    live: usize,
    write_work: u64,
    logical_writes: u64,
    qual_work: u64,
    /// Columns carrying a keyed qualification index, sorted. Every sealed
    /// chunk holds a key map per entry; the pending tail is walked.
    indexed: Vec<usize>,
    /// Cumulative live-row counts per view (chunks then pending), built
    /// lazily for positional access and invalidated by any mutation.
    offsets: OnceLock<Vec<usize>>,
    /// Armed by [`begin_journal`](Self::begin_journal): every mutation
    /// primitive records a [`JournalOp`]. `None` (the default) is
    /// zero-cost. Deliberately *not* carried across `clone()`: a journal
    /// is complete only for mutations made through this very store, so a
    /// closure that swaps in a clone (or a rebuilt relation) severs it —
    /// the durable catalog then falls back to a full-state record.
    journal: Option<Vec<JournalOp>>,
}

impl Clone for TupleStore {
    fn clone(&self) -> TupleStore {
        TupleStore {
            chunks: self.chunks.clone(),
            pending: self.pending.clone(),
            live: self.live,
            // The fork physically copies the pending tail (bounded by
            // TARGET_CHUNK_ROWS for sealed stores); meter it. Logically
            // nothing changed, so `logical_writes` carries over as-is.
            write_work: self.write_work + self.pending.len() as u64,
            logical_writes: self.logical_writes,
            qual_work: self.qual_work,
            indexed: self.indexed.clone(),
            offsets: OnceLock::new(),
            journal: None,
        }
    }
}

impl Default for TupleStore {
    fn default() -> TupleStore {
        TupleStore::new()
    }
}

impl TupleStore {
    /// An empty store.
    pub fn new() -> TupleStore {
        TupleStore {
            chunks: Vec::new(),
            pending: Vec::new(),
            live: 0,
            write_work: 0,
            logical_writes: 0,
            qual_work: 0,
            indexed: Vec::new(),
            offsets: OnceLock::new(),
            journal: None,
        }
    }

    /// Builds a store from a tuple sequence, sealed into dense chunks.
    pub fn from_tuples(tuples: Vec<Tuple>) -> TupleStore {
        let live = tuples.len();
        let mut chunks = Vec::with_capacity(live.div_ceil(TARGET_CHUNK_ROWS.max(1)));
        // Move each tuple once, straight into its chunk.
        let mut rows = tuples.into_iter();
        while !rows.as_slice().is_empty() {
            chunks.push(Chunk::dense(
                rows.by_ref().take(TARGET_CHUNK_ROWS).collect(),
            ));
        }
        TupleStore {
            chunks,
            pending: Vec::new(),
            live,
            write_work: live as u64,
            logical_writes: live as u64,
            qual_work: 0,
            indexed: Vec::new(),
            offsets: OnceLock::new(),
            journal: None,
        }
    }

    /// Rebuilds a store from its physical parts — per-chunk base rows and
    /// overlay deltas, as exposed by [`chunk_parts`](Self::chunk_parts) —
    /// with key maps rebuilt for `indexed`. The inverse of serialization:
    /// the resulting layout (chunk boundaries, overlays, live counts) is
    /// exactly what the parts describe, so journaled mutations recorded
    /// against the original layout replay correctly against it.
    pub fn from_parts(parts: Vec<OwnedChunkPart>, indexed: &[usize]) -> TupleStore {
        TupleStore::from_paged_parts(
            parts
                .into_iter()
                .map(|(base, edits)| (OwnedChunkSource::Resident(base), edits))
                .collect(),
            indexed,
        )
    }

    /// [`from_parts`](Self::from_parts) generalized to cold chunks: a cold
    /// part contributes only its durable identity and is paged in on
    /// demand through its [`ChunkPager`], so recovering an out-of-core
    /// table is O(#chunks) with zero row reads. Cold chunks skip key-map
    /// construction (it would force a page-in); keyed qualification falls
    /// back to a scan for them.
    pub fn from_paged_parts(parts: Vec<PagedChunkPart>, indexed: &[usize]) -> TupleStore {
        let mut sorted: Vec<usize> = indexed.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let mut chunks = Vec::with_capacity(parts.len());
        let mut live_total = 0usize;
        for (source, edits) in parts {
            let mut c = match source {
                OwnedChunkSource::Resident(base) => Chunk::dense_indexed(base, &sorted),
                OwnedChunkSource::Cold { pager, id, len } => Chunk::cold(pager, id, len),
            };
            let overlay: usize = edits.values().map(Vec::len).sum();
            let live = c.base.len() - edits.len() + overlay;
            if !edits.is_empty() {
                c.edits = Some(Arc::new(edits));
                c.live = live;
            }
            live_total += live;
            chunks.push(c);
        }
        TupleStore {
            chunks,
            pending: Vec::new(),
            live: live_total,
            write_work: live_total as u64,
            logical_writes: live_total as u64,
            qual_work: 0,
            indexed: sorted,
            offsets: OnceLock::new(),
            journal: None,
        }
    }

    /// Serialization views of the sealed chunks, in order. The pending
    /// tail is *not* included — persistence always operates on published
    /// (sealed) versions; callers seal first. Cold chunks surface their
    /// durable identity instead of rows, so serializing an out-of-core
    /// table never pages anything in.
    pub fn chunk_parts(&self) -> Vec<ChunkPart<'_>> {
        self.chunks
            .iter()
            .map(|c| ChunkPart {
                source: match &c.base {
                    ChunkBase::Resident(a) => ChunkSource::Resident(a),
                    ChunkBase::Cold { id, len, .. } => ChunkSource::Cold { id: *id, len: *len },
                },
                edits: c.edits.as_deref(),
            })
            .collect()
    }

    /// Arms the mutation journal: from here on every mutation primitive
    /// records a [`JournalOp`]. Any previously accumulated journal is
    /// discarded.
    pub fn begin_journal(&mut self) {
        self.journal = Some(Vec::new());
    }

    /// Takes the accumulated journal, disarming it. `None` when no journal
    /// was armed — or when the journal was severed by a wholesale store
    /// replacement (clones never inherit it), which is exactly the signal
    /// the durable catalog needs to fall back to a full-state record.
    pub fn take_journal(&mut self) -> Option<Vec<JournalOp>> {
        self.journal.take()
    }

    /// Replays journaled mutations. Starting from a physically identical
    /// layout (same chunk boundaries and overlays — see
    /// [`from_parts`](Self::from_parts)) this reproduces the exact layout
    /// the journaling store ended with: every primitive is deterministic
    /// in the store state.
    pub fn apply_journal(&mut self, ops: Vec<JournalOp>) {
        for op in ops {
            match op {
                JournalOp::Append(t) => self.push(t),
                JournalOp::Seal => self.seal_pending(),
                JournalOp::Compact => self.compact(),
                JournalOp::CompactRuns => {
                    self.compact_runs();
                }
                JournalOp::CreateKeyIndex(col) => self.create_key_index(col),
                JournalOp::Edits(entries) => {
                    let plan: Vec<PlannedEdit> = entries
                        .into_iter()
                        .map(|(ci, off, rows, touched)| (ci, off, RowEdit::Replace(rows), touched))
                        .collect();
                    self.apply_edits(plan);
                }
            }
        }
    }

    fn log(&mut self, op: JournalOp) {
        if let Some(j) = &mut self.journal {
            j.push(op);
        }
    }

    /// Live rows.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Cumulative physical write work units (tuples appended or copied,
    /// overlay entries written, fork/compaction copies). Deterministic:
    /// depends only on the operation sequence, never on timing or thread
    /// count. The delta between two versions of a table is the exact
    /// physical cost of the modifications between them.
    pub fn write_work(&self) -> u64 {
        self.write_work
    }

    /// Cumulative *logical* row writes: rows appended, replaced or
    /// tombstoned. Unlike [`write_work`](Self::write_work) this excludes
    /// physical bookkeeping (overlay copy-on-write, fork tail copies,
    /// compaction), so the delta between two versions is exactly the
    /// number of rows the modifications between them touched — what the
    /// catalog's statistics-staleness accounting needs.
    pub fn logical_writes(&self) -> u64 {
        self.logical_writes
    }

    /// Cumulative *qualification* work units: rows visited while deciding
    /// which rows a modification touches ([`edit`](Self::edit) and
    /// [`edit_where`](Self::edit_where)). Deterministic, like
    /// [`write_work`](Self::write_work); the delta between two versions is
    /// the exact read-side cost of qualifying the modifications between
    /// them — the counter the keyed-index benchmarks assert on.
    pub fn qual_work(&self) -> u64 {
        self.qual_work
    }

    /// All three write-path counters as one value — what the engine's
    /// metrics registry reads per table. See [`write_work`](Self::write_work),
    /// [`logical_writes`](Self::logical_writes) and
    /// [`qual_work`](Self::qual_work) for the individual semantics.
    pub fn work_counters(&self) -> StoreWork {
        StoreWork {
            write_work: self.write_work,
            logical_writes: self.logical_writes,
            qual_work: self.qual_work,
        }
    }

    /// Columns carrying a keyed qualification index, sorted.
    pub fn indexed_columns(&self) -> &[usize] {
        &self.indexed
    }

    /// Declares a keyed qualification index over `col`: every sealed chunk
    /// gets an immutable key map (O(table log chunk) once), and every chunk
    /// sealed or folded from now on builds its map incrementally — O(chunk)
    /// at seal time, never again. Idempotent. The build is metered in
    /// [`write_work`](Self::write_work) at one unit per row indexed.
    pub fn create_key_index(&mut self, col: usize) {
        if self.indexed.contains(&col) {
            return;
        }
        self.log(JournalOp::CreateKeyIndex(col));
        self.indexed.push(col);
        self.indexed.sort_unstable();
        let mut built = 0u64;
        for c in &mut self.chunks {
            if !c.keys.contains_key(&col) {
                // Cold chunks are paged in transiently for the build; the
                // rows are released again, only the key map stays.
                let pin = c
                    .base
                    .pinned()
                    .unwrap_or_else(|e| panic!("key index build failed to page in chunk: {e}"));
                c.keys.insert(col, Arc::new(build_key_map(pin.rows(), col)));
                built += pin.rows().len() as u64;
            }
        }
        self.write_work += built;
    }

    fn invalidate(&mut self) {
        self.offsets = OnceLock::new();
    }

    /// Appends a row to the pending tail, sealing the tail into a chunk at
    /// [`TARGET_CHUNK_ROWS`].
    pub fn push(&mut self, tuple: Tuple) {
        self.invalidate();
        if self.journal.is_some() {
            self.log(JournalOp::Append(tuple.clone()));
        }
        self.pending.push(tuple);
        self.live += 1;
        self.write_work += 1;
        self.logical_writes += 1;
        if self.pending.len() >= TARGET_CHUNK_ROWS {
            self.seal_pending();
        }
    }

    /// Seals the pending tail into an immutable chunk (no copies: the tail
    /// buffer is moved; indexed stores additionally build the new chunk's
    /// key maps, metered per row). Catalog registration seals so that
    /// forking a published version never copies rows.
    pub fn seal_pending(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        self.invalidate();
        self.log(JournalOp::Seal);
        let tail = std::mem::take(&mut self.pending);
        let chunk = Chunk::dense_indexed(tail.into(), &self.indexed);
        self.write_work += (chunk.base.len() * self.indexed.len()) as u64;
        self.chunks.push(chunk);
    }

    /// The whole store as one contiguous slice, when its layout allows it
    /// without copying: either everything still sits in the pending tail,
    /// or in exactly one clean *resident* sealed chunk (a cold chunk is
    /// never paged in for this — callers that get `None` stream instead).
    pub fn as_single_slice(&self) -> Option<&[Tuple]> {
        if self.chunks.is_empty() {
            return Some(&self.pending);
        }
        if self.pending.is_empty() && self.chunks.len() == 1 && self.chunks[0].edits.is_none() {
            if let ChunkBase::Resident(base) = &self.chunks[0].base {
                return Some(base);
            }
        }
        None
    }

    /// Live rows in storage order.
    pub fn iter(&self) -> StoreIter<'_> {
        StoreIter {
            store: self,
            chunk: 0,
            rows: None,
        }
    }

    fn total_views(&self) -> usize {
        self.chunks.len() + usize::from(!self.pending.is_empty())
    }

    fn view_at(&self, i: usize) -> ChunkView<'_> {
        if i < self.chunks.len() {
            let c = &self.chunks[i];
            ChunkView {
                // Park-on-touch: a cold chunk pages in here and stays
                // resident for this version's lifetime (see [`ChunkBase`]).
                base: c.base.slice(),
                edits: c.edits.as_deref(),
            }
        } else {
            ChunkView {
                base: &self.pending,
                edits: None,
            }
        }
    }

    /// The store's chunk views without loading anything: lengths and
    /// partitioning metadata are free, rows are paged in per-view by
    /// [`LazyChunkView::pin`] and released with the pin. The
    /// budget-honoring morsel source for scans over stores that may hold
    /// cold chunks.
    pub fn lazy_views(&self) -> Vec<LazyChunkView<'_>> {
        let mut out: Vec<LazyChunkView<'_>> = self
            .chunks
            .iter()
            .map(|c| LazyChunkView {
                inner: LazyInner::Sealed(c),
            })
            .collect();
        if !self.pending.is_empty() {
            out.push(LazyChunkView {
                inner: LazyInner::Pending(&self.pending),
            });
        }
        out
    }

    /// Demotes resident sealed chunks to cold: every chunk whose base
    /// allocation `f` can name (returning its durable chunk id) drops its
    /// rows in favor of a pager handle. Key maps, overlays and live counts
    /// are untouched, so the demotion is logically a no-op — the pager
    /// contract is that the id yields exactly the dropped rows. Returns
    /// the number of chunks demoted.
    pub fn demote_where(
        &mut self,
        pager: &Arc<dyn ChunkPager>,
        mut f: impl FnMut(&Arc<[Tuple]>) -> Option<u64>,
    ) -> usize {
        let mut demoted = 0;
        for c in &mut self.chunks {
            let ChunkBase::Resident(base) = &c.base else {
                continue;
            };
            if let Some(id) = f(base) {
                let len = base.len();
                c.base = ChunkBase::Cold {
                    pager: Arc::clone(pager),
                    id,
                    len,
                    parked: OnceLock::new(),
                };
                demoted += 1;
            }
        }
        demoted
    }

    fn offsets(&self) -> &[usize] {
        self.offsets.get_or_init(|| {
            let mut acc = 0usize;
            let mut out = Vec::with_capacity(self.total_views());
            // Live counts only: nothing pages in for positional access
            // beyond the chunk a lookup reads.
            for live in self.chunks.iter().map(|c| c.live) {
                acc += live;
                out.push(acc);
            }
            if !self.pending.is_empty() {
                out.push(acc + self.pending.len());
            }
            out
        })
    }

    /// The live row at position `pos` (positions are the `iter` ordinals —
    /// what index payloads refer to). O(log #chunks) to find the chunk,
    /// O(1) within clean chunks, O(overlay entries of the chunk) within
    /// edited ones (the walk skips over clean runs, it never visits rows).
    pub fn tuple_at(&self, pos: usize) -> Option<&Tuple> {
        if pos >= self.live {
            return None;
        }
        let offsets = self.offsets();
        let chunk = offsets.partition_point(|&end| end <= pos);
        let start = if chunk == 0 { 0 } else { offsets[chunk - 1] };
        let view = self.view_at(chunk);
        live_row(view.base, view.edits, pos - start)
    }

    /// Plans one base offset of one view: calls `f` on the live row(s) at
    /// the offset and appends the resulting edit (if any) to `plan`.
    /// Returns the number of rows visited. Offsets address *base* rows;
    /// replacement rows re-use their base offset (a replacement list is
    /// edited as a unit).
    fn plan_offset<E>(
        view: &ChunkView<'_>,
        ci: usize,
        off: usize,
        f: &mut impl FnMut(&Tuple) -> Result<RowEdit, E>,
        plan: &mut Vec<PlannedEdit>,
    ) -> Result<u64, E> {
        match view.edits.and_then(|e| e.get(&off)) {
            None => {
                let edit = f(&view.base[off])?;
                if !matches!(edit, RowEdit::Keep) {
                    let touched = match &edit {
                        RowEdit::Replace(ts) => (ts.len() as u64).max(1),
                        _ => 1,
                    };
                    plan.push((ci, off, edit, touched));
                }
                Ok(1)
            }
            Some(reps) => {
                let mut edits = Vec::with_capacity(reps.len());
                let mut touched = 0u64;
                for t in reps {
                    let edit = f(t)?;
                    touched += match &edit {
                        RowEdit::Keep => 0,
                        RowEdit::Remove => 1,
                        RowEdit::Replace(ts) => (ts.len() as u64).max(1),
                    };
                    edits.push(edit);
                }
                let visited = reps.len() as u64;
                if touched == 0 {
                    return Ok(visited);
                }
                // Rebuild the replacement list with the edits applied,
                // keeping untouched members as-is (they are carried
                // physically but not counted as logically touched).
                let mut rebuilt = Vec::with_capacity(reps.len());
                for (t, edit) in reps.iter().zip(edits) {
                    match edit {
                        RowEdit::Keep => rebuilt.push(t.clone()),
                        RowEdit::Remove => {}
                        RowEdit::Replace(ts) => rebuilt.extend(ts),
                    }
                }
                plan.push((ci, off, RowEdit::Replace(rebuilt), touched));
                Ok(visited)
            }
        }
    }

    /// Scans the live rows in order, collecting the edits `f` requests —
    /// without touching the store. Apply the plan with
    /// [`apply_edits`](Self::apply_edits). Errors from `f` abort the scan
    /// and leave no trace.
    pub fn plan_edits<E>(
        &self,
        mut f: impl FnMut(&Tuple) -> Result<RowEdit, E>,
    ) -> Result<Vec<PlannedEdit>, E> {
        let mut plan = Vec::new();
        for ci in 0..self.total_views() {
            let view = self.view_at(ci);
            for off in 0..view.base.len() {
                Self::plan_offset(&view, ci, off, &mut f, &mut plan)?;
            }
        }
        Ok(plan)
    }

    /// Exact qualification cost of `probe` on this version, per path —
    /// `None` when the probe's column carries no index. Computing the
    /// candidate count touches only the per-chunk key maps
    /// (O(#chunks · log chunk + matching keys)), never the rows.
    pub fn qualification_estimate(&self, probe: &KeyProbe) -> Option<QualEstimate> {
        if !self.indexed.contains(&probe.col()) {
            return None;
        }
        let mut candidates = 0u64;
        let mut overlay = 0u64;
        for c in &self.chunks {
            candidates += probe.candidate_count(c.keys.get(&probe.col())?);
            overlay += c.overlay_rows() as u64;
        }
        let pending = self.pending.len() as u64;
        Some(QualEstimate {
            keyed: candidates + overlay + pending + self.chunks.len() as u64,
            scan: self.live as u64,
            candidates,
            overlay,
            pending,
        })
    }

    /// [`plan_edits`](Self::plan_edits) through the keyed index: only rows
    /// that can satisfy `probe` are visited — index candidates in chunk
    /// bases, every overlay replacement row (the overlay is the unindexed
    /// delta), and the pending tail. Returns the plan plus the rows
    /// visited, or `None` when the probe's column carries no index.
    ///
    /// **Contract**: `probe` must be a *necessary* condition of `f`'s
    /// decision (rows failing the probe would yield [`RowEdit::Keep`]).
    /// Under that contract the produced plan is identical to the full-scan
    /// plan — same entries, same order, same logical touch counts.
    pub fn plan_edits_keyed<E>(
        &self,
        probe: &KeyProbe,
        mut f: impl FnMut(&Tuple) -> Result<RowEdit, E>,
    ) -> Result<Option<(Vec<PlannedEdit>, u64)>, E> {
        if !self.indexed.contains(&probe.col()) {
            return Ok(None);
        }
        let mut plan = Vec::new();
        let mut visited = 0u64;
        let mut offs: Vec<usize> = Vec::new();
        for (ci, chunk) in self.chunks.iter().enumerate() {
            let Some(map) = chunk.keys.get(&probe.col()) else {
                return Ok(None); // unindexed chunk: caller falls back
            };
            // Offsets to visit: index candidates not superseded by the
            // overlay, plus every overlay entry — sorted so the plan
            // matches the full scan's base-offset order exactly. Computed
            // from the key map and overlay alone, so a cold chunk with no
            // candidates is skipped without paging it in.
            let edits = chunk.edits.as_deref();
            offs.clear();
            offs.extend(
                probe
                    .candidates(map)
                    .map(|o| o as usize)
                    .filter(|o| edits.is_none_or(|e| !e.contains_key(o))),
            );
            if let Some(edits) = edits {
                offs.extend(edits.keys().copied());
            }
            offs.sort_unstable();
            if offs.is_empty() {
                continue;
            }
            let view = self.view_at(ci);
            for &off in offs.iter() {
                visited += Self::plan_offset(&view, ci, off, &mut f, &mut plan)?;
            }
        }
        if !self.pending.is_empty() {
            let ci = self.chunks.len();
            let view = self.view_at(ci);
            for off in 0..view.base.len() {
                visited += Self::plan_offset(&view, ci, off, &mut f, &mut plan)?;
            }
        }
        Ok(Some((plan, visited)))
    }

    /// The live rows that can satisfy `probe`, in live (iteration) order,
    /// plus the rows visited while collecting them — the read-path twin of
    /// [`plan_edits_keyed`](Self::plan_edits_keyed). Visits index
    /// candidates in chunk bases (skipping those superseded by the
    /// overlay), every overlay replacement row (the overlay is the
    /// unindexed delta), and the pending tail; each visited value is
    /// re-checked against the probe, so the output equals the full scan
    /// filtered by [`KeyProbe::matches`] — same rows, same order. `None`
    /// when the probe's column carries no index (or any chunk's map has
    /// not been paged in), so the caller falls back to a scan.
    pub fn keyed_rows(&self, probe: &KeyProbe) -> Option<(Vec<Tuple>, u64)> {
        if !self.indexed.contains(&probe.col()) {
            return None;
        }
        let mut out = Vec::new();
        let mut visited = 0u64;
        let mut offs: Vec<usize> = Vec::new();
        for (ci, chunk) in self.chunks.iter().enumerate() {
            let map = chunk.keys.get(&probe.col())?;
            let edits = chunk.edits.as_deref();
            offs.clear();
            offs.extend(
                probe
                    .candidates(map)
                    .map(|o| o as usize)
                    .filter(|o| edits.is_none_or(|e| !e.contains_key(o))),
            );
            if let Some(edits) = edits {
                offs.extend(edits.keys().copied());
            }
            offs.sort_unstable();
            if offs.is_empty() {
                continue;
            }
            let view = self.view_at(ci);
            for &off in offs.iter() {
                match view.edits.and_then(|e| e.get(&off)) {
                    None => {
                        visited += 1;
                        let t = &view.base[off];
                        if probe.matches(t.value(probe.col())) {
                            out.push(t.clone());
                        }
                    }
                    Some(reps) => {
                        visited += reps.len() as u64;
                        for t in reps {
                            if probe.matches(t.value(probe.col())) {
                                out.push(t.clone());
                            }
                        }
                    }
                }
            }
        }
        for t in &self.pending {
            visited += 1;
            if probe.matches(t.value(probe.col())) {
                out.push(t.clone());
            }
        }
        Some((out, visited))
    }

    /// Full-scan qualification + edit in one step: plans with
    /// [`plan_edits`](Self::plan_edits) (metering every live row in
    /// [`qual_work`](Self::qual_work)) and applies. Returns the storage
    /// entries written.
    pub fn edit<E>(&mut self, f: impl FnMut(&Tuple) -> Result<RowEdit, E>) -> Result<usize, E> {
        let plan = self.plan_edits(f)?;
        self.qual_work += self.live as u64;
        Ok(self.apply_edits(plan))
    }

    /// Keyed qualification + edit in one step: plans with
    /// [`plan_edits_keyed`](Self::plan_edits_keyed) (metering the rows
    /// actually visited) and applies. `None` when the probe's column
    /// carries no index — the caller decides whether to fall back to
    /// [`edit`](Self::edit).
    pub fn edit_where<E>(
        &mut self,
        probe: &KeyProbe,
        f: impl FnMut(&Tuple) -> Result<RowEdit, E>,
    ) -> Result<Option<KeyedEdit>, E> {
        match self.plan_edits_keyed(probe, f)? {
            None => Ok(None),
            Some((plan, visited)) => {
                self.qual_work += visited;
                let written = self.apply_edits(plan);
                Ok(Some(KeyedEdit { written, visited }))
            }
        }
    }

    /// Applies a plan from [`plan_edits`](Self::plan_edits): copies the
    /// overlay of every touched chunk (copy-on-write; untouched chunks stay
    /// shared with other versions) and writes the new entries. Returns the
    /// number of overlay entries written. Cost is O(rows touched + overlay
    /// of touched chunks), independent of table size.
    pub fn apply_edits(&mut self, plan: Vec<PlannedEdit>) -> usize {
        if plan.is_empty() {
            return 0;
        }
        self.invalidate();
        if self.journal.is_some() {
            let entries: Vec<(usize, usize, Vec<Tuple>, u64)> = plan
                .iter()
                .filter_map(|(ci, off, edit, touched)| match edit {
                    RowEdit::Keep => None,
                    RowEdit::Remove => Some((*ci, *off, Vec::new(), *touched)),
                    RowEdit::Replace(ts) => Some((*ci, *off, ts.clone(), *touched)),
                })
                .collect();
            self.log(JournalOp::Edits(entries));
        }
        let mut written = 0usize;
        let mut work = 0u64;
        let mut logical = 0u64;
        let mut live_delta = 0i64;
        // Reverse order keeps pending-tail offsets stable while earlier
        // splices grow or shrink the owned vector; chunk overlays are
        // offset-keyed maps, so their order is irrelevant.
        for (ci, off, edit, touched) in plan.into_iter().rev() {
            let replacement = match edit {
                RowEdit::Keep => continue,
                RowEdit::Remove => Vec::new(),
                RowEdit::Replace(ts) => ts,
            };
            written += 1;
            let now = replacement.len();
            work += (now as u64).max(1);
            logical += touched;
            if ci < self.chunks.len() {
                let chunk = &mut self.chunks[ci];
                // Copy-on-write of the overlay map: only the first edit a
                // version makes to a shared chunk pays for the copy, and
                // the copy is overlay-sized, never chunk-sized. The copy
                // is performed (and charged) here, not via `make_mut`, so
                // the charge matches the copy exactly even if another
                // holder of the overlay appears or vanishes concurrently.
                let shared = chunk.edits.get_or_insert_with(Default::default);
                if Arc::get_mut(shared).is_none() {
                    work += shared.values().map(|r| r.len() as u64).sum::<u64>().max(1);
                    *shared = Arc::new((**shared).clone());
                }
                let edits = Arc::get_mut(shared).expect("overlay is uniquely owned here");
                let was = edits.get(&off).map_or(1, Vec::len);
                edits.insert(off, replacement);
                chunk.live = chunk.live + now - was;
                live_delta += now as i64 - was as i64;
            } else {
                // Pending-tail row: the tail is owned, edit it in place
                // (bounded by TARGET_CHUNK_ROWS).
                self.pending.splice(off..off + 1, replacement);
                live_delta += now as i64 - 1;
            }
        }
        self.write_work += work;
        self.logical_writes += logical;
        self.live = (self.live as i64 + live_delta) as usize;
        written
    }

    /// Folds overlays, tombstones and fragmented chunks back into dense
    /// [`TARGET_CHUNK_ROWS`] chunks. Logically a no-op: the tuple sequence
    /// is unchanged; only the physical layout (and fork cost) improves.
    /// O(table) — the policy in [`should_compact`](Self::should_compact)
    /// keeps it amortized O(1) per written row.
    pub fn compact(&mut self) {
        // Already dense — no overlays, no tail, every chunk but the last
        // full (exactly the layout a rebuild would produce): skip the
        // O(table) rebuild.
        let dense_prefix = self
            .chunks
            .split_last()
            .is_none_or(|(_, init)| init.iter().all(|c| c.base.len() == TARGET_CHUNK_ROWS));
        if self.pending.is_empty() && dense_prefix && self.chunks.iter().all(|c| c.edits.is_none())
        {
            return;
        }
        let tuples: Vec<Tuple> = self.iter().cloned().collect();
        let work = self.write_work + tuples.len() as u64;
        let logical = self.logical_writes;
        let qual = self.qual_work;
        let indexed = std::mem::take(&mut self.indexed);
        // The journal survives the rebuild but must not record the index
        // rebuilds below (replaying `Compact` re-derives them): restore it
        // only after, then record the fold as a single O(1) marker.
        let journal = self.journal.take();
        *self = TupleStore::from_tuples(tuples);
        self.write_work = work;
        self.logical_writes = logical;
        self.qual_work = qual;
        for col in indexed {
            self.create_key_index(col);
        }
        self.journal = journal;
        self.log(JournalOp::Compact);
    }

    /// The maximal runs of consecutive chunks worth folding: runs
    /// containing a *dirty* chunk (≥ [`RUN_DIRTY_FRAC`] of its base
    /// superseded or overlaid) and runs of *small* chunks that have
    /// outgrown their dense ideal by [`RUN_CHUNK_SLACK`]. Only dirty and
    /// small chunks join runs; full clean chunks break them, so a fold
    /// never touches the table's healthy bulk.
    fn fragmented_runs(&self) -> Vec<std::ops::Range<usize>> {
        let mut runs = Vec::new();
        let mut start = None::<usize>;
        let mut dirty = false;
        let mut live = 0usize;
        let flush = |start: &mut Option<usize>,
                     end: usize,
                     dirty: &mut bool,
                     live: &mut usize,
                     runs: &mut Vec<std::ops::Range<usize>>| {
            if let Some(s) = start.take() {
                let len = end - s;
                let ideal = live.div_ceil(TARGET_CHUNK_ROWS).max(1);
                if *dirty || len > ideal + RUN_CHUNK_SLACK {
                    runs.push(s..end);
                }
            }
            *dirty = false;
            *live = 0;
        };
        for (i, c) in self.chunks.iter().enumerate() {
            if c.is_dirty() || c.is_small() {
                if start.is_none() {
                    start = Some(i);
                }
                dirty |= c.is_dirty();
                live += c.live;
            } else {
                flush(&mut start, i, &mut dirty, &mut live, &mut runs);
            }
        }
        flush(
            &mut start,
            self.chunks.len(),
            &mut dirty,
            &mut live,
            &mut runs,
        );
        runs
    }

    /// Does the partial-compaction policy want to fold some chunk runs
    /// before this version is published?
    pub fn should_compact_runs(&self) -> bool {
        !self.fragmented_runs().is_empty()
    }

    /// Partial compaction: folds only the fragmented chunk *runs* (see
    /// [`should_compact_runs`](Self::should_compact_runs)) into dense
    /// chunks, leaving every other chunk untouched — and therefore still
    /// physically shared with older versions. Returns the write work
    /// spent: O(rows in fragmented runs), **not** O(table), which is what
    /// keeps sustained churn on very large tables from ever paying a
    /// whole-table fold. Logically a no-op, like
    /// [`compact`](Self::compact).
    pub fn compact_runs(&mut self) -> u64 {
        let runs = self.fragmented_runs();
        if runs.is_empty() {
            return 0;
        }
        self.invalidate();
        self.log(JournalOp::CompactRuns);
        let indexed = self.indexed.clone();
        let mut work = 0u64;
        // Right to left so earlier run indices stay valid across splices.
        for run in runs.iter().rev() {
            let mut rows: Vec<Tuple> = Vec::new();
            for ci in run.clone() {
                rows.extend(self.view_at(ci).iter().cloned());
            }
            work += rows.len() as u64 * (1 + indexed.len() as u64);
            let mut folded = Vec::with_capacity(rows.len().div_ceil(TARGET_CHUNK_ROWS).max(1));
            while rows.len() > TARGET_CHUNK_ROWS {
                let tail = rows.split_off(TARGET_CHUNK_ROWS);
                folded.push(Chunk::dense_indexed(rows.into(), &indexed));
                rows = tail;
            }
            if !rows.is_empty() {
                folded.push(Chunk::dense_indexed(rows.into(), &indexed));
            }
            self.chunks.splice(run.clone(), folded);
        }
        self.write_work += work;
        work
    }

    /// Should the catalog fold this version before publishing it? True when
    /// dead rows exceed [`COMPACT_DEAD_FRAC`] of the live count or the
    /// chunk list has outgrown the dense ideal by
    /// [`COMPACT_CHUNK_SLACK`].
    pub fn should_compact(&self) -> bool {
        let s = self.summary();
        let ideal = self.live.div_ceil(TARGET_CHUNK_ROWS.max(1)).max(1);
        s.chunks > ideal + COMPACT_CHUNK_SLACK.max(ideal)
            || (s.dead_rows + s.overlay_rows) as f64 > COMPACT_DEAD_FRAC * (self.live.max(1)) as f64
    }

    /// Physical-layout summary.
    pub fn summary(&self) -> StoreSummary {
        let mut s = StoreSummary {
            chunks: self.chunks.len(),
            live_rows: self.live,
            pending_rows: self.pending.len(),
            ..StoreSummary::default()
        };
        for c in &self.chunks {
            s.base_rows += c.base.len();
            s.dead_rows += c.edited_base_rows();
            s.overlay_rows += c
                .edits
                .as_ref()
                .map_or(0, |e| e.values().map(Vec::len).sum());
        }
        s
    }

    /// Cheap lineage probe: does this store still hold `base`'s first
    /// sealed chunk allocation? Row edits never replace a base chunk
    /// (they only copy overlays) and inserts only append, so a direct
    /// descendant of `base` always shares it; a wholesale rebuild — or a
    /// compaction, which already paid O(table) itself — does not. O(1).
    pub fn derives_from(&self, base: &TupleStore) -> bool {
        match (self.chunks.first(), base.chunks.first()) {
            (Some(a), Some(b)) => a.base.same_alloc(&b.base),
            _ => false,
        }
    }

    /// Number of sealed chunks whose base storage is physically shared
    /// (same allocation) with `other` — how much of the table a fork
    /// re-uses. Quadratic in the chunk counts; meant for tests and
    /// diagnostics.
    pub fn shared_chunks(&self, other: &TupleStore) -> usize {
        self.chunks
            .iter()
            .filter(|a| other.chunks.iter().any(|b| a.base.same_alloc(&b.base)))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn t(x: i64) -> Tuple {
        Tuple::base(vec![Value::Int(x)])
    }

    fn ints(store: &TupleStore) -> Vec<i64> {
        store.iter().map(|t| t.value(0).as_int().unwrap()).collect()
    }

    #[test]
    fn push_and_iterate_in_order() {
        let mut s = TupleStore::new();
        for i in 0..5 {
            s.push(t(i));
        }
        assert_eq!(s.len(), 5);
        assert_eq!(ints(&s), vec![0, 1, 2, 3, 4]);
        assert_eq!(s.summary().pending_rows, 5);
    }

    #[test]
    fn pushes_seal_at_target() {
        let mut s = TupleStore::new();
        for i in 0..(TARGET_CHUNK_ROWS as i64 + 3) {
            s.push(t(i));
        }
        let sum = s.summary();
        assert_eq!(sum.chunks, 1);
        assert_eq!(sum.pending_rows, 3);
        assert_eq!(s.len(), TARGET_CHUNK_ROWS + 3);
    }

    #[test]
    fn from_tuples_builds_dense_chunks() {
        let s = TupleStore::from_tuples((0..1200).map(t).collect());
        let sum = s.summary();
        assert_eq!(sum.chunks, 3);
        assert_eq!(sum.pending_rows, 0);
        assert_eq!(s.len(), 1200);
        assert_eq!(ints(&s), (0..1200).collect::<Vec<_>>());
    }

    #[test]
    fn from_tuples_cuts_full_chunks_from_the_front() {
        for n in [0usize, 1, 511, 512, 513, 1537] {
            let s = TupleStore::from_tuples((0..n as i64).map(t).collect());
            // Full chunks of TARGET_CHUNK_ROWS, the remainder last.
            let want: Vec<usize> = (0..n)
                .step_by(TARGET_CHUNK_ROWS)
                .map(|start| (n - start).min(TARGET_CHUNK_ROWS))
                .collect();
            let bases: Vec<usize> = s.chunks.iter().map(|c| c.base.len()).collect();
            let lives: Vec<usize> = s.chunks.iter().map(|c| c.live).collect();
            assert_eq!(bases, want, "chunk sizes for n = {n}");
            assert_eq!(lives, want, "live counts for n = {n}");
            assert_eq!(s.summary().chunks, want.len());
            assert_eq!(s.len(), n);
            assert_eq!(ints(&s), (0..n as i64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn edits_tombstone_replace_and_split() {
        let mut s = TupleStore::from_tuples((0..10).map(t).collect());
        let plan = s
            .plan_edits(|tp| {
                Ok::<_, ()>(match tp.value(0).as_int().unwrap() {
                    3 => RowEdit::Remove,
                    5 => RowEdit::Replace(vec![t(50)]),
                    7 => RowEdit::Replace(vec![t(70), t(71)]),
                    _ => RowEdit::Keep,
                })
            })
            .unwrap();
        assert_eq!(s.apply_edits(plan), 3);
        assert_eq!(ints(&s), vec![0, 1, 2, 4, 50, 6, 70, 71, 8, 9]);
        assert_eq!(s.len(), 10);
    }

    #[test]
    fn edits_on_replacements_compose() {
        let mut s = TupleStore::from_tuples((0..4).map(t).collect());
        let plan = s
            .plan_edits(|tp| {
                Ok::<_, ()>(if tp.value(0).as_int() == Some(1) {
                    RowEdit::Replace(vec![t(10), t(11)])
                } else {
                    RowEdit::Keep
                })
            })
            .unwrap();
        s.apply_edits(plan);
        // Now edit one member of the replacement list.
        let plan = s
            .plan_edits(|tp| {
                Ok::<_, ()>(if tp.value(0).as_int() == Some(10) {
                    RowEdit::Remove
                } else {
                    RowEdit::Keep
                })
            })
            .unwrap();
        s.apply_edits(plan);
        assert_eq!(ints(&s), vec![0, 11, 2, 3]);
    }

    #[test]
    fn fork_shares_untouched_chunks() {
        let mut base = TupleStore::from_tuples((0..2000).map(t).collect());
        base.seal_pending();
        let chunks = base.summary().chunks;
        let mut fork = base.clone();
        let plan = fork
            .plan_edits(|tp| {
                Ok::<_, ()>(if tp.value(0).as_int() == Some(1999) {
                    RowEdit::Remove
                } else {
                    RowEdit::Keep
                })
            })
            .unwrap();
        fork.apply_edits(plan);
        // Every chunk's base is still shared; only the last chunk's overlay
        // differs.
        assert_eq!(fork.shared_chunks(&base), chunks);
        assert_eq!(base.len(), 2000);
        assert_eq!(fork.len(), 1999);
    }

    #[test]
    fn edit_write_work_is_delta_sized() {
        let mut s = TupleStore::from_tuples((0..10_000).map(t).collect());
        let before = s.write_work();
        let plan = s
            .plan_edits(|tp| {
                Ok::<_, ()>(if tp.value(0).as_int().unwrap() % 1000 == 0 {
                    RowEdit::Replace(vec![t(-1)])
                } else {
                    RowEdit::Keep
                })
            })
            .unwrap();
        s.apply_edits(plan);
        let spent = s.write_work() - before;
        assert!(spent <= 2 * 10, "10-row edit cost {spent} work units");
    }

    #[test]
    fn compact_preserves_sequence_and_folds_layout() {
        let mut s = TupleStore::from_tuples((0..1000).map(t).collect());
        let plan = s
            .plan_edits(|tp| {
                Ok::<_, ()>(match tp.value(0).as_int().unwrap() {
                    x if x % 3 == 0 => RowEdit::Remove,
                    x if x % 3 == 1 => RowEdit::Replace(vec![t(-x)]),
                    _ => RowEdit::Keep,
                })
            })
            .unwrap();
        s.apply_edits(plan);
        for i in 0..5 {
            s.push(t(10_000 + i));
        }
        let before = ints(&s);
        s.compact();
        assert_eq!(ints(&s), before);
        let sum = s.summary();
        assert_eq!(sum.overlay_rows, 0);
        assert_eq!(sum.dead_rows, 0);
        assert_eq!(sum.pending_rows, 0);
    }

    #[test]
    fn tuple_at_matches_iteration() {
        let mut s = TupleStore::from_tuples((0..700).map(t).collect());
        let plan = s
            .plan_edits(|tp| {
                Ok::<_, ()>(match tp.value(0).as_int().unwrap() {
                    100 => RowEdit::Remove,
                    600 => RowEdit::Replace(vec![t(6000), t(6001)]),
                    _ => RowEdit::Keep,
                })
            })
            .unwrap();
        s.apply_edits(plan);
        s.push(t(9999));
        let seq: Vec<&Tuple> = s.iter().collect();
        assert_eq!(seq.len(), s.len());
        for (i, expect) in seq.iter().enumerate() {
            assert_eq!(s.tuple_at(i), Some(*expect), "position {i}");
        }
        assert_eq!(s.tuple_at(s.len()), None);
    }

    #[test]
    fn plan_error_leaves_store_untouched() {
        let s = TupleStore::from_tuples((0..10).map(t).collect());
        let before = ints(&s);
        let r = s.plan_edits(|tp| {
            if tp.value(0).as_int() == Some(5) {
                Err("boom")
            } else {
                Ok(RowEdit::Remove)
            }
        });
        assert!(r.is_err());
        assert_eq!(ints(&s), before);
    }

    #[test]
    fn chunk_views_cover_all_rows() {
        let mut s = TupleStore::from_tuples((0..1100).map(t).collect());
        s.push(t(5000));
        // An overlay: a tombstone and a split, so `get` walks edits too.
        s.edit(|tp| {
            Ok::<_, ()>(match tp.value(0).as_int() {
                Some(3) => RowEdit::Remove,
                Some(7) => RowEdit::Replace(vec![t(70), t(71)]),
                _ => RowEdit::Keep,
            })
        })
        .unwrap();
        let views = s.lazy_views();
        let total: usize = views.iter().map(|v| v.len()).sum();
        assert_eq!(total, s.len());
        let mut via_views = Vec::new();
        for v in &views {
            let pinned = v.pin().unwrap();
            assert_eq!(pinned.len(), v.len());
            for (i, t) in pinned.iter().enumerate() {
                assert_eq!(pinned.get(i), Some(t));
                via_views.push(t.value(0).as_int().unwrap());
            }
            assert_eq!(pinned.get(pinned.len()), None);
        }
        assert_eq!(via_views, ints(&s));
    }

    fn eq_probe(x: i64) -> KeyProbe {
        KeyProbe::Eq {
            col: 0,
            key: Value::Int(x),
        }
    }

    #[test]
    fn keyed_plan_equals_scan_plan() {
        let mut s = TupleStore::from_tuples((0..2000).map(t).collect());
        s.create_key_index(0);
        // Fragment: tombstone, replace, split, plus a pending tail.
        let plan = s
            .plan_edits(|tp| {
                Ok::<_, ()>(match tp.value(0).as_int().unwrap() {
                    7 => RowEdit::Remove,
                    600 => RowEdit::Replace(vec![t(-600)]),
                    1500 => RowEdit::Replace(vec![t(1500), t(1501)]),
                    _ => RowEdit::Keep,
                })
            })
            .unwrap();
        s.apply_edits(plan);
        s.push(t(99_999));
        for probe in [eq_probe(3), eq_probe(-600), eq_probe(99_999), eq_probe(42)] {
            let f = |tp: &Tuple| {
                Ok::<_, ()>(if probe.matches(tp.value(0)) {
                    RowEdit::Replace(vec![t(-1)])
                } else {
                    RowEdit::Keep
                })
            };
            let scan_plan = s.plan_edits(f).unwrap();
            let (keyed_plan, visited) = s.plan_edits_keyed(&probe, f).unwrap().unwrap();
            assert_eq!(keyed_plan, scan_plan, "probe {probe:?}");
            assert!(
                visited < s.len() as u64 / 2,
                "keyed pass visited {visited} of {} rows",
                s.len()
            );
        }
    }

    #[test]
    fn keyed_rows_equal_filtered_scan() {
        let mut s = TupleStore::from_tuples((0..2000).map(|x| t(x % 50)).collect());
        s.create_key_index(0);
        // Fragment: tombstone, replace into the probed key, split, pending.
        let plan = s
            .plan_edits(|tp| {
                Ok::<_, ()>(match tp.value(0).as_int().unwrap() {
                    7 => RowEdit::Remove,
                    13 => RowEdit::Replace(vec![t(42)]),
                    29 => RowEdit::Replace(vec![t(29), t(42)]),
                    _ => RowEdit::Keep,
                })
            })
            .unwrap();
        s.apply_edits(plan);
        s.push(t(42));
        for probe in [
            eq_probe(42),
            eq_probe(7),
            eq_probe(-5),
            KeyProbe::Range {
                col: 0,
                lo: std::ops::Bound::Included(Value::Int(40)),
                hi: std::ops::Bound::Excluded(Value::Int(44)),
            },
        ] {
            let scan: Vec<Tuple> = s
                .iter()
                .filter(|tp| probe.matches(tp.value(0)))
                .cloned()
                .collect();
            let (keyed, visited) = s.keyed_rows(&probe).unwrap();
            assert_eq!(keyed, scan, "probe {probe:?}");
            assert!(
                visited < s.len() as u64,
                "keyed read visited every row for {probe:?}"
            );
        }
    }

    #[test]
    fn keyed_rows_require_an_index() {
        let s = TupleStore::from_tuples((0..10).map(t).collect());
        assert!(s.keyed_rows(&eq_probe(3)).is_none());
    }

    #[test]
    fn keyed_edit_meters_qual_work() {
        let mut s = TupleStore::from_tuples((0..10_000).map(t).collect());
        s.create_key_index(0);
        let before = s.qual_work();
        let r = s
            .edit_where(&eq_probe(5_000), |tp| {
                Ok::<_, ()>(if tp.value(0).as_int() == Some(5_000) {
                    RowEdit::Remove
                } else {
                    RowEdit::Keep
                })
            })
            .unwrap()
            .unwrap();
        assert_eq!(r.written, 1);
        assert_eq!(s.qual_work() - before, r.visited);
        assert!(r.visited <= 8, "one-key edit visited {} rows", r.visited);
        // The scan path meters every live row.
        let before = s.qual_work();
        s.edit(|_| Ok::<_, ()>(RowEdit::Keep)).unwrap();
        assert_eq!(s.qual_work() - before, s.len() as u64);
    }

    #[test]
    fn edit_where_requires_an_index() {
        let mut s = TupleStore::from_tuples((0..10).map(t).collect());
        assert!(s
            .edit_where(&eq_probe(3), |_| Ok::<_, ()>(RowEdit::Keep))
            .unwrap()
            .is_none());
        assert!(s.qualification_estimate(&eq_probe(3)).is_none());
    }

    #[test]
    fn index_survives_seal_compact_and_fork() {
        let mut s = TupleStore::new();
        s.create_key_index(0);
        for i in 0..(TARGET_CHUNK_ROWS as i64 * 2 + 50) {
            s.push(t(i % 100));
        }
        let est = s.qualification_estimate(&eq_probe(17)).unwrap();
        // ~1/100 of the sealed rows match; the open tail is walked.
        assert!(est.candidates >= 10 && est.candidates <= 11, "{est:?}");
        assert_eq!(est.pending, 50);
        assert!(est.keyed < est.scan);
        let fork = s.clone();
        assert_eq!(fork.indexed_columns(), &[0]);
        s.compact();
        assert_eq!(s.indexed_columns(), &[0]);
        let est = s.qualification_estimate(&eq_probe(17)).unwrap();
        assert_eq!(est.pending, 0);
        assert!(est.candidates >= 10);
    }

    #[test]
    fn compact_runs_folds_only_fragmented_chunks() {
        // Three full chunks + a tail of tiny sealed chunks.
        let mut s = TupleStore::from_tuples((0..3 * TARGET_CHUNK_ROWS as i64).map(t).collect());
        for b in 0..(RUN_CHUNK_SLACK as i64 + 4) {
            s.push(t(100_000 + b));
            s.seal_pending();
        }
        let before: Vec<i64> = ints(&s);
        let chunks_before = s.summary().chunks;
        assert!(s.should_compact_runs());
        let base = s.clone();
        let work = s.compact_runs();
        // Logical no-op…
        assert_eq!(ints(&s), before);
        // …that folded the tiny tail run only: the three full chunks are
        // still physically shared with the pre-fold version.
        assert!(s.summary().chunks < chunks_before);
        assert_eq!(s.shared_chunks(&base), 3);
        // And the work is the run's rows, not the table's.
        assert!(
            work <= (RUN_CHUNK_SLACK + 4) as u64,
            "partial fold cost {work} wu"
        );
        assert!(!s.should_compact_runs());
    }

    #[test]
    fn compact_runs_folds_dirty_chunks() {
        let mut s = TupleStore::from_tuples((0..2 * TARGET_CHUNK_ROWS as i64).map(t).collect());
        // Dirty the second chunk past the 25 % trigger.
        let plan = s
            .plan_edits(|tp| {
                let x = tp.value(0).as_int().unwrap();
                Ok::<_, ()>(if (600..740).contains(&x) {
                    RowEdit::Remove
                } else {
                    RowEdit::Keep
                })
            })
            .unwrap();
        s.apply_edits(plan);
        let base = s.clone();
        assert!(s.should_compact_runs());
        let before = ints(&s);
        let work = s.compact_runs();
        assert_eq!(ints(&s), before);
        assert_eq!(s.summary().dead_rows, 0);
        // The clean first chunk stayed shared; work is O(folded run).
        assert!(s.shared_chunks(&base) >= 1);
        assert!(work <= 2 * TARGET_CHUNK_ROWS as u64, "fold cost {work}");
    }

    /// Physical layouts are equal: same chunk boundaries, same overlays,
    /// same live counts — not just the same logical sequence.
    fn resident_rows<'a>(p: &ChunkPart<'a>) -> &'a Arc<[Tuple]> {
        match p.source {
            ChunkSource::Resident(a) => a,
            ChunkSource::Cold { .. } => panic!("expected a resident chunk"),
        }
    }

    fn assert_same_layout(a: &TupleStore, b: &TupleStore) {
        assert_eq!(ints(a), ints(b));
        assert_eq!(a.summary(), b.summary());
        let (pa, pb) = (a.chunk_parts(), b.chunk_parts());
        assert_eq!(pa.len(), pb.len());
        for (x, y) in pa.iter().zip(pb.iter()) {
            assert_eq!(&resident_rows(x)[..], &resident_rows(y)[..]);
            assert_eq!(x.edits, y.edits);
        }
    }

    #[test]
    fn parts_round_trip_rebuilds_layout() {
        let mut s = TupleStore::from_tuples((0..1300).map(t).collect());
        s.create_key_index(0);
        let plan = s
            .plan_edits(|tp| {
                Ok::<_, ()>(match tp.value(0).as_int().unwrap() {
                    7 => RowEdit::Remove,
                    600 => RowEdit::Replace(vec![t(-600), t(-601)]),
                    _ => RowEdit::Keep,
                })
            })
            .unwrap();
        s.apply_edits(plan);
        s.seal_pending();
        let parts = s
            .chunk_parts()
            .into_iter()
            .map(|p| {
                (
                    Arc::clone(resident_rows(&p)),
                    p.edits.cloned().unwrap_or_default(),
                )
            })
            .collect();
        let rebuilt = TupleStore::from_parts(parts, s.indexed_columns());
        assert_same_layout(&s, &rebuilt);
        assert_eq!(rebuilt.indexed_columns(), &[0]);
        assert!(
            rebuilt
                .qualification_estimate(&eq_probe(-600))
                .unwrap()
                .keyed
                > 0
        );
    }

    #[test]
    fn journal_replay_reproduces_layout() {
        // Base version: sealed, published-like store.
        let mut base = TupleStore::from_tuples((0..1000).map(t).collect());
        base.create_key_index(0);
        base.seal_pending();

        // Fork, journal a workload heavy enough to trigger folds.
        let mut fork = base.clone();
        fork.begin_journal();
        for i in 0..600 {
            fork.push(t(10_000 + i));
        }
        let plan = fork
            .plan_edits(|tp| {
                Ok::<_, ()>(match tp.value(0).as_int().unwrap() {
                    x if (100..400).contains(&x) => RowEdit::Remove,
                    500 => RowEdit::Replace(vec![t(1), t(2)]),
                    _ => RowEdit::Keep,
                })
            })
            .unwrap();
        fork.apply_edits(plan);
        fork.create_key_index(0); // idempotent: must not journal
        fork.compact_runs();
        fork.compact();
        fork.seal_pending();
        let ops = fork.take_journal().expect("journal armed");

        // Recovery: rebuild the base layout from parts, replay the ops.
        let parts = base
            .chunk_parts()
            .into_iter()
            .map(|p| {
                (
                    Arc::clone(resident_rows(&p)),
                    p.edits.cloned().unwrap_or_default(),
                )
            })
            .collect();
        let mut recovered = TupleStore::from_parts(parts, base.indexed_columns());
        recovered.apply_journal(ops);
        assert_same_layout(&fork, &recovered);
        assert_eq!(recovered.indexed_columns(), fork.indexed_columns());
    }

    #[test]
    fn journal_is_severed_by_clone() {
        let mut s = TupleStore::from_tuples((0..10).map(t).collect());
        s.begin_journal();
        s.push(t(10));
        let mut copy = s.clone();
        assert!(copy.take_journal().is_none());
        assert_eq!(s.take_journal().unwrap().len(), 1);
        assert!(s.take_journal().is_none());
    }

    #[test]
    fn journal_markers_are_delta_sized() {
        // A fold is O(table) of in-memory work but one journal marker:
        // the WAL cost of a publication stays O(rows touched).
        let mut s = TupleStore::from_tuples((0..5000).map(t).collect());
        s.begin_journal();
        let plan = s
            .plan_edits(|tp| {
                Ok::<_, ()>(if tp.value(0).as_int().unwrap() % 500 == 0 {
                    RowEdit::Remove
                } else {
                    RowEdit::Keep
                })
            })
            .unwrap();
        s.apply_edits(plan);
        s.compact();
        let ops = s.take_journal().unwrap();
        let tuples_logged: usize = ops
            .iter()
            .map(|op| match op {
                JournalOp::Append(_) => 1,
                JournalOp::Edits(es) => es.iter().map(|(_, _, rows, _)| rows.len().max(1)).sum(),
                _ => 0,
            })
            .sum();
        assert_eq!(ops.len(), 2); // one Edits batch + one Compact marker
        assert!(tuples_logged <= 10, "journal carried {tuples_logged} rows");
    }

    #[test]
    fn should_compact_on_dead_fraction() {
        let mut s = TupleStore::from_tuples((0..100).map(t).collect());
        assert!(!s.should_compact());
        let plan = s
            .plan_edits(|tp| {
                Ok::<_, ()>(if tp.value(0).as_int().unwrap() < 60 {
                    RowEdit::Remove
                } else {
                    RowEdit::Keep
                })
            })
            .unwrap();
        s.apply_edits(plan);
        assert!(s.should_compact());
        s.compact();
        assert!(!s.should_compact());
    }

    /// In-memory pager for cold-chunk tests: serves chunks from a map and
    /// counts loads.
    #[derive(Debug)]
    struct TestPager {
        chunks: std::sync::Mutex<std::collections::HashMap<u64, Vec<Tuple>>>,
        loads: std::sync::atomic::AtomicU64,
        fail: std::sync::atomic::AtomicBool,
    }

    impl TestPager {
        fn of(chunks: Vec<(u64, Vec<Tuple>)>) -> Arc<TestPager> {
            Arc::new(TestPager {
                chunks: std::sync::Mutex::new(chunks.into_iter().collect()),
                loads: std::sync::atomic::AtomicU64::new(0),
                fail: std::sync::atomic::AtomicBool::new(false),
            })
        }

        fn loads(&self) -> u64 {
            self.loads.load(std::sync::atomic::Ordering::SeqCst)
        }
    }

    impl ChunkPager for TestPager {
        fn load(&self, id: u64, len: usize) -> Result<Arc<[Tuple]>, PagerError> {
            if self.fail.load(std::sync::atomic::Ordering::SeqCst) {
                return Err(PagerError("injected".into()));
            }
            self.loads.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            let chunks = self.chunks.lock().unwrap();
            let rows = chunks
                .get(&id)
                .ok_or_else(|| PagerError(format!("unknown chunk {id}")))?;
            assert_eq!(rows.len(), len);
            Ok(rows.clone().into())
        }
    }

    /// Builds a two-chunk store (one cold, one resident) over 0..600.
    fn cold_store(pager: &Arc<TestPager>) -> TupleStore {
        let cold: Vec<Tuple> = (0..512).map(t).collect();
        pager.chunks.lock().unwrap().insert(7, cold);
        TupleStore::from_paged_parts(
            vec![
                (
                    OwnedChunkSource::Cold {
                        pager: Arc::clone(pager) as Arc<dyn ChunkPager>,
                        id: 7,
                        len: 512,
                    },
                    BTreeMap::new(),
                ),
                (
                    OwnedChunkSource::Resident((512..600).map(t).collect::<Vec<_>>().into()),
                    BTreeMap::new(),
                ),
            ],
            &[],
        )
    }

    #[test]
    fn cold_chunks_build_without_loading() {
        let pager = TestPager::of(vec![]);
        let s = cold_store(&pager);
        assert_eq!(s.len(), 600);
        assert_eq!(pager.loads(), 0, "construction must not page anything in");
        assert!(s.as_single_slice().is_none());
        // Serialization surfaces identity, not rows.
        let parts = s.chunk_parts();
        assert!(matches!(
            parts[0].source,
            ChunkSource::Cold { id: 7, len: 512 }
        ));
        assert_eq!(pager.loads(), 0);
    }

    #[test]
    fn lazy_pins_do_not_park() {
        let pager = TestPager::of(vec![]);
        let s = cold_store(&pager);
        let views = s.lazy_views();
        assert_eq!(views.len(), 2);
        assert_eq!(views[0].len(), 512);
        for _ in 0..3 {
            let pin = views[0].pin().unwrap();
            assert_eq!(pin.iter().count(), 512);
        }
        // Transient pins release the rows: every pin loads afresh.
        assert_eq!(pager.loads(), 3);
        assert!(!views[0].is_resident() && views[1].is_resident());
        // The resident chunk never involves the pager.
        assert_eq!(views[1].pin().unwrap().iter().count(), 88);
        assert_eq!(pager.loads(), 3);
    }

    #[test]
    fn park_on_touch_loads_once_per_version() {
        let pager = TestPager::of(vec![]);
        let s = cold_store(&pager);
        assert_eq!(ints(&s), (0..600).collect::<Vec<_>>());
        assert_eq!(ints(&s), (0..600).collect::<Vec<_>>());
        assert_eq!(s.tuple_at(100).unwrap().value(0).as_int().unwrap(), 100);
        assert_eq!(pager.loads(), 1, "park caches the rows for this version");
        assert!(s.lazy_views().iter().all(|v| v.is_resident()));
        // A clone starts un-parked and pages in on its own.
        let fork = s.clone();
        assert_eq!(ints(&fork), (0..600).collect::<Vec<_>>());
        assert_eq!(pager.loads(), 2);
    }

    #[test]
    fn pin_surfaces_pager_errors() {
        let pager = TestPager::of(vec![]);
        let s = cold_store(&pager);
        pager.fail.store(true, std::sync::atomic::Ordering::SeqCst);
        let views = s.lazy_views();
        assert!(views[0].pin().is_err());
        // The resident view still pins fine.
        assert!(views[1].pin().is_ok());
    }

    #[test]
    fn demote_where_is_logically_invisible() {
        let pager = TestPager::of(vec![]);
        let mut s = TupleStore::from_tuples((0..600).map(t).collect());
        s.create_key_index(0);
        let before = ints(&s);
        // Stash each chunk's rows in the pager under its would-be id, then
        // demote everything.
        let mut id = 0u64;
        {
            let mut chunks = pager.chunks.lock().unwrap();
            for p in s.chunk_parts() {
                chunks.insert(id, resident_rows(&p).to_vec());
                id += 1;
            }
        }
        let mut next = 0u64;
        let pager_dyn: Arc<dyn ChunkPager> = Arc::clone(&pager) as Arc<dyn ChunkPager>;
        let demoted = s.demote_where(&pager_dyn, |_| {
            let id = next;
            next += 1;
            Some(id)
        });
        assert_eq!(demoted, 2);
        assert_eq!(s.len(), 600);
        assert_eq!(pager.loads(), 0, "demotion itself loads nothing");
        // Key maps survive demotion: keyed qualification still works
        // without paging in candidate-free chunks.
        let est = s.qualification_estimate(&eq_probe(5)).unwrap();
        assert!(est.keyed < est.scan);
        let (plan, visited) = s
            .plan_edits_keyed(&eq_probe(5), |_| Ok::<_, ()>(RowEdit::Remove))
            .unwrap()
            .unwrap();
        assert_eq!(plan.len(), 1);
        assert_eq!(visited, 1);
        assert_eq!(pager.loads(), 1, "only the candidate's chunk paged in");
        // Full iteration still yields the original sequence.
        let fork = s.clone();
        assert_eq!(ints(&fork), before);
        // Demoted chunks share identity across clones.
        assert!(fork.derives_from(&s));
        assert_eq!(fork.shared_chunks(&s), 2);
    }
}
