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
//! A sealed chunk's base ([`ChunkSource`]) may be *cold*: durable
//! identity only, its rows paged in through the store's one
//! [`ChunkPager`]. Every read of a version pins one chunk at a time and
//! releases it ([`PinnedChunk`]) — the executors' morsels through
//! [`TupleStore::lazy_views`], and inside this module the edit planners,
//! keyed lookups, key-index builds and folds. A pager
//! failure is a [`PagerError`], never a panic. Only the borrowing
//! [`TupleStore::iter`] keeps what it touched resident for the version's
//! lifetime.
//!
//! All physical write work (tuples appended, overlay entries written,
//! overlay copy-on-write, tail copies on fork, compaction copies) is
//! metered in [`TupleStore::write_work`] — the deterministic work-unit
//! counter the storage benchmarks and the catalog's statistics-staleness
//! accounting consume.

use crate::keyindex::{build_key_map, KeyMap, KeyProbe, QualEstimate};
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

    /// The live rows in storage order (base rows with the overlay spliced
    /// in), borrowed from the pin.
    pub fn iter(&self) -> ChunkRows<'_> {
        ChunkRows::new(self.base.rows(), self.edits)
    }

    /// The live rows standing at base offset `off`: the base row itself,
    /// or its overlay replacement list (empty for a tombstone).
    fn rows_at(&self, off: usize) -> &[Tuple] {
        match self.edits.and_then(|e| e.get(&off)) {
            Some(reps) => reps,
            None => std::slice::from_ref(&self.base.rows()[off]),
        }
    }
}

/// A chunk view that defers loading: length and partitioning metadata are
/// free; the rows are paged in only by [`pin`](Self::pin). The
/// budget-honoring way to read stores that may hold cold chunks.
#[derive(Debug, Clone, Copy)]
pub struct LazyChunkView<'a> {
    store: &'a TupleStore,
    /// A sealed chunk's index, or `chunks.len()` for the pending tail.
    ci: usize,
}

impl<'a> LazyChunkView<'a> {
    /// Number of live rows the view will yield — free, no page-in.
    pub fn len(&self) -> usize {
        let store = self.store;
        store
            .chunks
            .get(self.ci)
            .map_or(store.pending.len(), |c| c.live)
    }

    /// Is the view empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Would [`pin`](Self::pin) borrow the rows, paging nothing in?
    pub fn is_resident(&self) -> bool {
        self.store
            .chunks
            .get(self.ci)
            .is_none_or(Chunk::is_resident)
    }

    /// Pins the chunk's rows: resident rows are borrowed, cold rows are
    /// paged in transiently (released when the [`PinnedChunk`] drops, so a
    /// scan holding one pin per worker keeps at most one morsel resident).
    pub fn pin(&self) -> Result<PinnedChunk<'a>, PagerError> {
        self.store.pin(self.ci)
    }
}

/// One sealed chunk's physical parts: its base plus its overlay delta —
/// what the persistence layer writes as a chunk file (base) and a
/// manifest entry (overlay), and what [`TupleStore::from_parts`] rebuilds
/// a store from.
#[derive(Debug, Clone)]
pub struct ChunkPart {
    /// The sealed base rows (resident) or their durable identity (cold).
    pub source: ChunkSource,
    /// The overlay delta (empty when the chunk is clean).
    pub edits: BTreeMap<usize, Vec<Tuple>>,
}

/// The base of one sealed chunk: *resident* rows, or a *cold* durable
/// identity whose rows the store's [`ChunkPager`] pages in per access.
/// Resident bases are `Arc`-shared between versions, so callers can track
/// chunk identity by pointer; cold bases carry the durable id they
/// already persist under, so serializing a cold table never pages
/// anything in.
#[derive(Debug, Clone)]
pub enum ChunkSource {
    /// An in-memory base allocation.
    Resident(Arc<[Tuple]>),
    /// A persisted cold base: durable chunk id + row count.
    Cold {
        /// The durable chunk id.
        id: u64,
        /// Base row count.
        len: usize,
    },
}

impl ChunkSource {
    /// Base row count — free for both variants.
    fn len(&self) -> usize {
        match self {
            ChunkSource::Resident(a) => a.len(),
            ChunkSource::Cold { len, .. } => *len,
        }
    }

    /// Same-allocation probe: pointer identity for resident bases,
    /// durable id identity for cold ones (a chunk id names one immutable
    /// file, so equal ids are the same data).
    fn same_alloc(&self, other: &ChunkSource) -> bool {
        match (self, other) {
            (ChunkSource::Resident(a), ChunkSource::Resident(b)) => Arc::ptr_eq(a, b),
            (ChunkSource::Cold { id: a, .. }, ChunkSource::Cold { id: b, .. }) => a == b,
            _ => false,
        }
    }
}

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
///
/// Every read of a version goes through a **transient pin**
/// ([`TupleStore::pin`]): a cold base is loaded, used and released with
/// the pin, and a pager failure is an error. The one exception is the
/// borrowing [`TupleStore::iter`], which hands out `&Tuple` for the
/// version's lifetime and so cannot read through a transient pin: it
/// *parks* the loaded `Arc` in `parked` on first touch and panics on a
/// pager failure. Cloning a chunk resets `parked`, so parks made by a
/// query-scoped clone die with that clone instead of bloating the
/// published version.
#[derive(Debug)]
struct Chunk {
    base: ChunkSource,
    /// A cold base's rows, parked by [`TupleStore::iter`] on first touch.
    parked: OnceLock<Arc<[Tuple]>>,
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

impl Clone for Chunk {
    fn clone(&self) -> Chunk {
        Chunk {
            base: self.base.clone(),
            // A fork starts un-parked: rows a clone touches stay resident
            // only as long as the clone lives.
            parked: OnceLock::new(),
            edits: self.edits.clone(),
            live: self.live,
            keys: self.keys.clone(),
        }
    }
}

impl Chunk {
    /// A clean chunk over `base`, with key maps for `cols` over a resident
    /// base. A cold base gets none (building them would force a page-in);
    /// keyed qualification falls back to a scan until the chunk is folded
    /// resident again or an index is built explicitly.
    fn new(base: ChunkSource, cols: &[usize]) -> Chunk {
        let keys = match &base {
            ChunkSource::Resident(rows) => cols
                .iter()
                .map(|&col| (col, Arc::new(build_key_map(rows, col))))
                .collect(),
            ChunkSource::Cold { .. } => BTreeMap::new(),
        };
        Chunk {
            live: base.len(),
            base,
            parked: OnceLock::new(),
            edits: None,
            keys,
        }
    }

    /// Are the rows in memory (resident, or a cold base already parked)?
    fn is_resident(&self) -> bool {
        matches!(self.base, ChunkSource::Resident(_)) || self.parked.get().is_some()
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

impl<'a> ChunkRows<'a> {
    fn new(base: &'a [Tuple], edits: Option<&'a BTreeMap<usize, Vec<Tuple>>>) -> ChunkRows<'a> {
        ChunkRows {
            base,
            edits,
            offset: 0,
            replacement: None,
        }
    }
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
            if self.chunk >= self.store.total_views() {
                return None;
            }
            self.rows = Some(match self.store.chunks.get(self.chunk) {
                Some(c) => ChunkRows::new(self.store.parked_rows(c), c.edits.as_deref()),
                None => ChunkRows::new(&self.store.pending, None),
            });
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
    /// The pager every cold chunk of the store loads through — one per
    /// store, so a fork bumps one `Arc` however many chunks are cold.
    pager: Option<Arc<dyn ChunkPager>>,
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
            pager: self.pager.clone(),
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
            pager: None,
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
            let rows = rows.by_ref().take(TARGET_CHUNK_ROWS).collect();
            chunks.push(Chunk::new(ChunkSource::Resident(rows), &[]));
        }
        TupleStore {
            chunks,
            pending: Vec::new(),
            live,
            write_work: live as u64,
            logical_writes: live as u64,
            qual_work: 0,
            indexed: Vec::new(),
            pager: None,
            journal: None,
        }
    }

    /// Rebuilds a store from its physical parts — per-chunk bases and
    /// overlay deltas, as exposed by [`chunk_parts`](Self::chunk_parts) —
    /// with key maps rebuilt for `indexed`. The inverse of serialization:
    /// the resulting layout (chunk boundaries, overlays, live counts) is
    /// exactly what the parts describe, so journaled mutations recorded
    /// against the original layout replay correctly against it.
    ///
    /// A cold part contributes only its durable identity and is paged in
    /// on demand through `pager`, so recovering an out-of-core table is
    /// O(#chunks) with zero row reads. Cold chunks skip key-map
    /// construction (it would force a page-in); keyed qualification falls
    /// back to a scan for them. Panics if a cold part comes without a
    /// pager.
    pub fn from_parts(
        parts: Vec<ChunkPart>,
        pager: Option<Arc<dyn ChunkPager>>,
        indexed: &[usize],
    ) -> TupleStore {
        let mut sorted: Vec<usize> = indexed.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let cold = |p: &ChunkPart| matches!(p.source, ChunkSource::Cold { .. });
        assert!(
            pager.is_some() || !parts.iter().any(cold),
            "a cold chunk part needs a pager"
        );
        let mut chunks = Vec::with_capacity(parts.len());
        let mut live_total = 0usize;
        for ChunkPart { source, edits } in parts {
            let mut c = Chunk::new(source, &sorted);
            if !edits.is_empty() {
                let overlay: usize = edits.values().map(Vec::len).sum();
                c.live = c.live - edits.len() + overlay;
                c.edits = Some(Arc::new(edits));
            }
            live_total += c.live;
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
            pager,
            journal: None,
        }
    }

    /// Serialization views of the sealed chunks, in order. The pending
    /// tail is *not* included — persistence always operates on published
    /// (sealed) versions; callers seal first. Cold chunks surface their
    /// durable identity instead of rows, so serializing an out-of-core
    /// table never pages anything in.
    pub fn chunk_parts(&self) -> Vec<ChunkPart> {
        self.chunks
            .iter()
            .map(|c| ChunkPart {
                source: c.base.clone(),
                edits: c.edits.as_deref().cloned().unwrap_or_default(),
            })
            .collect()
    }

    /// The pager the store's cold chunks load through, if any.
    pub fn pager(&self) -> Option<&Arc<dyn ChunkPager>> {
        self.pager.as_ref()
    }

    /// Pages every cold chunk in and keeps a copy of its rows resident,
    /// then drops the pager: the store no longer reads, or pins, anything
    /// the pager serves. Key maps, overlays and live counts are untouched,
    /// so this is logically a no-op. A pager failure leaves the store
    /// untouched.
    pub fn make_resident(&mut self) -> Result<(), PagerError> {
        let loaded = (0..self.chunks.len())
            .map(|ci| match self.chunks[ci].base {
                ChunkSource::Cold { .. } => Ok(Some(Arc::from(self.pin(ci)?.base.rows()))),
                ChunkSource::Resident(_) => Ok(None),
            })
            .collect::<Result<Vec<_>, PagerError>>()?;
        for (c, rows) in self.chunks.iter_mut().zip(loaded) {
            if let Some(rows) = rows {
                c.base = ChunkSource::Resident(rows);
                c.parked.take();
            }
        }
        self.pager = None;
        Ok(())
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
    /// in the store state. The folds and index builds a journal re-derives
    /// read through transient pins; a pager failure stops the replay.
    pub fn apply_journal(&mut self, ops: Vec<JournalOp>) -> Result<(), PagerError> {
        for op in ops {
            match op {
                JournalOp::Append(t) => self.push(t),
                JournalOp::Seal => self.seal_pending(),
                JournalOp::Compact => self.compact()?,
                JournalOp::CompactRuns => {
                    self.compact_runs()?;
                }
                JournalOp::CreateKeyIndex(col) => self.create_key_index(col)?,
                JournalOp::Edits(entries) => {
                    let plan: Vec<PlannedEdit> = entries
                        .into_iter()
                        .map(|(ci, off, rows, touched)| (ci, off, RowEdit::Replace(rows), touched))
                        .collect();
                    self.apply_edits(plan);
                }
            }
        }
        Ok(())
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
    /// which rows a modification touches ([`edit`](Self::edit)).
    /// Deterministic, like [`write_work`](Self::write_work); the delta
    /// between two versions is the exact read-side cost of qualifying the
    /// modifications between them — the counter the keyed-index
    /// benchmarks assert on.
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
    /// [`write_work`](Self::write_work) at one unit per row indexed. Cold
    /// chunks are paged in through transient pins; only the key maps stay.
    /// A pager failure leaves the store untouched.
    pub fn create_key_index(&mut self, col: usize) -> Result<(), PagerError> {
        if self.indexed.contains(&col) {
            return Ok(());
        }
        let maps = (0..self.chunks.len())
            .map(|ci| Ok(Arc::new(build_key_map(self.pin(ci)?.base.rows(), col))))
            .collect::<Result<Vec<_>, PagerError>>()?;
        self.log(JournalOp::CreateKeyIndex(col));
        self.indexed.push(col);
        self.indexed.sort_unstable();
        for (c, map) in self.chunks.iter_mut().zip(maps) {
            self.write_work += c.base.len() as u64;
            c.keys.insert(col, map);
        }
        Ok(())
    }

    /// Appends a row to the pending tail, sealing the tail into a chunk at
    /// [`TARGET_CHUNK_ROWS`].
    pub fn push(&mut self, tuple: Tuple) {
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
        self.log(JournalOp::Seal);
        let tail = std::mem::take(&mut self.pending);
        let chunk = Chunk::new(ChunkSource::Resident(tail.into()), &self.indexed);
        self.write_work += (chunk.base.len() * self.indexed.len()) as u64;
        self.chunks.push(chunk);
    }

    /// Live rows in storage order, borrowed for the version's lifetime: a
    /// cold chunk is paged in on first touch and parked with this version,
    /// and a pager failure panics (see the module docs). Budget-honoring,
    /// fallible readers pin [`lazy_views`](Self::lazy_views) instead.
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

    /// Pins view `ci` — a sealed chunk, or the pending tail at
    /// `chunks.len()` — through a transient pin: resident (or parked) rows
    /// are borrowed, a cold base is paged in as an owned `Arc` released
    /// with the pin.
    fn pin(&self, ci: usize) -> Result<PinnedChunk<'_>, PagerError> {
        let Some(c) = self.chunks.get(ci) else {
            return Ok(PinnedChunk {
                base: PinBase::Borrowed(&self.pending),
                edits: None,
                live: self.pending.len(),
            });
        };
        let base = match (&c.base, c.parked.get()) {
            (ChunkSource::Resident(rows), _) | (ChunkSource::Cold { .. }, Some(rows)) => {
                PinBase::Borrowed(rows)
            }
            (&ChunkSource::Cold { id, len }, None) => PinBase::Owned(self.load(id, len)?),
        };
        Ok(PinnedChunk {
            base,
            edits: c.edits.as_deref(),
            live: c.live,
        })
    }

    /// Chunk `c`'s base rows as a borrow of this version — parking a cold
    /// base on first touch. Panics on a pager failure (see [`Chunk`]);
    /// only [`StoreIter`] reads this way.
    fn parked_rows<'a>(&'a self, c: &'a Chunk) -> &'a [Tuple] {
        match (&c.base, c.parked.get()) {
            (ChunkSource::Resident(rows), _) | (ChunkSource::Cold { .. }, Some(rows)) => rows,
            (&ChunkSource::Cold { id, len }, None) => {
                let loaded = self
                    .load(id, len)
                    .unwrap_or_else(|e| panic!("cold chunk {id} failed to page in: {e}"));
                c.parked.get_or_init(|| loaded)
            }
        }
    }

    /// Pages cold chunk `id` in through the store's pager.
    fn load(&self, id: u64, len: usize) -> Result<Arc<[Tuple]>, PagerError> {
        let pager = self.pager.as_ref();
        pager
            .expect("a store with cold chunks has a pager")
            .load(id, len)
    }

    /// The store's chunk views without loading anything: lengths and
    /// partitioning metadata are free, rows are paged in per-view by
    /// [`LazyChunkView::pin`] and released with the pin. The
    /// budget-honoring morsel source for scans over stores that may hold
    /// cold chunks.
    pub fn lazy_views(&self) -> Vec<LazyChunkView<'_>> {
        (0..self.total_views())
            .map(|ci| LazyChunkView { store: self, ci })
            .collect()
    }

    /// Demotes resident sealed chunks to cold: every chunk whose base
    /// allocation `f` can name (returning its durable chunk id) drops its
    /// rows, which `pager` — from here on the store's pager — serves
    /// again. Key maps, overlays and live counts are untouched, so the
    /// demotion is logically a no-op — the pager contract is that the id
    /// yields exactly the dropped rows. A store holds one pager, so one
    /// that already holds another demotes nothing. Returns the number of
    /// chunks demoted.
    pub fn demote_where(
        &mut self,
        pager: &Arc<dyn ChunkPager>,
        mut f: impl FnMut(&Arc<[Tuple]>) -> Option<u64>,
    ) -> usize {
        if self.pager.as_ref().is_some_and(|p| !Arc::ptr_eq(p, pager)) {
            return 0;
        }
        let mut demoted = 0;
        for c in &mut self.chunks {
            let ChunkSource::Resident(base) = &c.base else {
                continue;
            };
            if let Some(id) = f(base) {
                c.base = ChunkSource::Cold {
                    id,
                    len: base.len(),
                };
                demoted += 1;
            }
        }
        if demoted > 0 {
            self.pager = Some(Arc::clone(pager));
        }
        demoted
    }

    /// Plans one base offset of one view: calls `f` on the live row(s) at
    /// the offset and appends the resulting edit (if any) to `plan`.
    /// Returns the number of rows visited. Offsets address *base* rows;
    /// replacement rows re-use their base offset (a replacement list is
    /// edited as a unit).
    fn plan_offset<E>(
        pin: &PinnedChunk<'_>,
        ci: usize,
        off: usize,
        f: &mut impl FnMut(&Tuple) -> Result<RowEdit, E>,
        plan: &mut Vec<PlannedEdit>,
    ) -> Result<u64, E> {
        match pin.edits.and_then(|e| e.get(&off)) {
            None => {
                let edit = f(&pin.base.rows()[off])?;
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

    /// Exact qualification cost of `probe` on this version, per path —
    /// `None` when the probe's column carries no index or some chunk has
    /// no key map for it (a chunk reopened cold). Computing the
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
        })
    }

    /// The walk behind [`plan_edits`](Self::plan_edits) and
    /// [`keyed_rows`](Self::keyed_rows): per sealed chunk, the base offsets
    /// that can satisfy `probe` — with a key map for the probe's column,
    /// the map's candidates not superseded by the overlay plus every
    /// overlay offset (the overlay is the unindexed delta), sorted into
    /// base-offset order; without a probe or a map, every base offset —
    /// then every offset of the pending tail. `visit(pin, chunk, offsets)`
    /// reads one pinned chunk's offsets in order and returns the rows it
    /// visited (one call per chunk keeps the per-row loop in the caller).
    /// The offsets come from the key map and overlay alone, so a chunk with
    /// none is skipped without a pin — a cold chunk with no candidates
    /// never pages in. Returns the rows visited.
    fn walk<E: From<PagerError>>(
        &self,
        probe: Option<&KeyProbe>,
        mut visit: impl FnMut(&PinnedChunk<'_>, usize, &[usize]) -> Result<u64, E>,
    ) -> Result<u64, E> {
        let mut visited = 0u64;
        let mut offs: Vec<usize> = Vec::new();
        for (ci, chunk) in self.chunks.iter().enumerate() {
            offs.clear();
            let map = probe.and_then(|p| chunk.keys.get(&p.col()));
            match (probe, map) {
                (Some(probe), Some(map)) => {
                    let edits = chunk.edits.as_deref();
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
                }
                _ => offs.extend(0..chunk.base.len()),
            }
            if offs.is_empty() {
                continue;
            }
            visited += visit(&self.pin(ci)?, ci, &offs)?;
        }
        offs.clear();
        offs.extend(0..self.pending.len());
        let ci = self.chunks.len();
        visited += visit(&self.pin(ci)?, ci, &offs)?;
        Ok(visited)
    }

    /// Collects the edits `f` requests for the live rows, in live order —
    /// without touching the store — plus the rows visited. With `None`
    /// every live row is visited; with a probe only the rows that can
    /// satisfy it (index candidates in chunks with a key map for its
    /// column, every row of a chunk without one, every overlay replacement
    /// row and the pending tail). Apply the plan with
    /// [`apply_edits`](Self::apply_edits). Each chunk is read through one
    /// transient pin. Errors from `f` or the pager abort the pass and
    /// leave no trace.
    ///
    /// **Contract**: `probe` must be a *necessary* condition of `f`'s
    /// decision (rows failing the probe would yield [`RowEdit::Keep`]).
    /// Under that contract the plan is identical with and without the
    /// probe — same entries, same order, same logical touch counts.
    pub fn plan_edits<E: From<PagerError>>(
        &self,
        probe: Option<&KeyProbe>,
        mut f: impl FnMut(&Tuple) -> Result<RowEdit, E>,
    ) -> Result<(Vec<PlannedEdit>, u64), E> {
        let mut plan = Vec::new();
        let visited = self.walk(probe, |pin, ci, offs| {
            let mut visited = 0;
            for &off in offs {
                visited += Self::plan_offset(pin, ci, off, &mut f, &mut plan)?;
            }
            Ok::<_, E>(visited)
        })?;
        Ok((plan, visited))
    }

    /// The live rows that satisfy `probe`, in live (iteration) order, plus
    /// the rows visited while collecting them — the read-path twin of
    /// [`plan_edits`](Self::plan_edits), over the same walk. Each visited
    /// value is re-checked against the probe, so the output equals the
    /// full scan filtered by [`KeyProbe::matches`] — same rows, same order.
    pub fn keyed_rows(&self, probe: &KeyProbe) -> Result<(Vec<Tuple>, u64), PagerError> {
        let mut out = Vec::new();
        let visited = self.walk(Some(probe), |pin, _, offs| {
            let mut visited = 0;
            for &off in offs {
                let rows = pin.rows_at(off);
                visited += rows.len() as u64;
                for t in rows {
                    if probe.matches(t.value(probe.col())) {
                        out.push(t.clone());
                    }
                }
            }
            Ok::<_, PagerError>(visited)
        })?;
        Ok((out, visited))
    }

    /// Qualification + edit in one step: plans with
    /// [`plan_edits`](Self::plan_edits), meters the rows visited in
    /// [`qual_work`](Self::qual_work) and applies. Returns the storage
    /// entries written.
    pub fn edit<E: From<PagerError>>(
        &mut self,
        probe: Option<&KeyProbe>,
        f: impl FnMut(&Tuple) -> Result<RowEdit, E>,
    ) -> Result<usize, E> {
        let (plan, visited) = self.plan_edits(probe, f)?;
        self.qual_work += visited;
        Ok(self.apply_edits(plan))
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
    /// keeps it amortized O(1) per written row. Reads each chunk through
    /// one transient pin; a pager failure leaves the store untouched.
    pub fn compact(&mut self) -> Result<(), PagerError> {
        // Already dense — no overlays, no tail, every chunk but the last
        // full (exactly the layout a rebuild would produce): skip the
        // O(table) rebuild.
        let dense_prefix = self
            .chunks
            .split_last()
            .is_none_or(|(_, init)| init.iter().all(|c| c.base.len() == TARGET_CHUNK_ROWS));
        if self.pending.is_empty() && dense_prefix && self.chunks.iter().all(|c| c.edits.is_none())
        {
            return Ok(());
        }
        let mut tuples = Vec::with_capacity(self.live);
        for ci in 0..self.total_views() {
            tuples.extend(self.pin(ci)?.iter().cloned());
        }
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
            self.create_key_index(col)?;
        }
        self.journal = journal;
        self.log(JournalOp::Compact);
        Ok(())
    }

    /// The maximal runs of consecutive chunks worth folding: runs
    /// containing a *dirty* chunk (≥ [`RUN_DIRTY_FRAC`] of its base
    /// superseded or overlaid) and runs of *small* chunks that have
    /// outgrown their dense ideal by [`RUN_CHUNK_SLACK`]. Only dirty and
    /// small chunks join runs; full clean chunks break them, so a fold
    /// never touches the table's healthy bulk.
    fn fragmented_runs(&self) -> Vec<std::ops::Range<usize>> {
        // Per chunk: (joins a run, dirty, live rows).
        let marks: Vec<(bool, bool, usize)> = self
            .chunks
            .iter()
            .map(|c| {
                let dirty = c.is_dirty();
                (dirty || c.is_small(), dirty, c.live)
            })
            .collect();
        let mut runs = Vec::new();
        let mut start = 0;
        for group in marks.chunk_by(|a, b| a.0 == b.0) {
            let end = start + group.len();
            let live: usize = group.iter().map(|m| m.2).sum();
            let ideal = live.div_ceil(TARGET_CHUNK_ROWS).max(1);
            let worth = group.iter().any(|m| m.1) || group.len() > ideal + RUN_CHUNK_SLACK;
            if group[0].0 && worth {
                runs.push(start..end);
            }
            start = end;
        }
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
    /// [`compact`](Self::compact). Reads each folded chunk through one
    /// transient pin; a pager failure leaves the store untouched.
    pub fn compact_runs(&mut self) -> Result<u64, PagerError> {
        let runs = self.fragmented_runs();
        if runs.is_empty() {
            return Ok(0);
        }
        let mut work = 0u64;
        let mut folds = Vec::with_capacity(runs.len());
        for run in runs {
            let mut rows: Vec<Tuple> = Vec::new();
            for ci in run.clone() {
                rows.extend(self.pin(ci)?.iter().cloned());
            }
            work += rows.len() as u64 * (1 + self.indexed.len() as u64);
            let mut folded = Vec::with_capacity(rows.len().div_ceil(TARGET_CHUNK_ROWS).max(1));
            while rows.len() > TARGET_CHUNK_ROWS {
                let tail = rows.split_off(TARGET_CHUNK_ROWS);
                folded.push(Chunk::new(
                    ChunkSource::Resident(rows.into()),
                    &self.indexed,
                ));
                rows = tail;
            }
            if !rows.is_empty() {
                folded.push(Chunk::new(
                    ChunkSource::Resident(rows.into()),
                    &self.indexed,
                ));
            }
            folds.push((run, folded));
        }
        self.log(JournalOp::CompactRuns);
        // Right to left so earlier run indices stay valid across splices.
        for (run, folded) in folds.into_iter().rev() {
            self.chunks.splice(run, folded);
        }
        self.write_work += work;
        Ok(work)
    }

    /// Should the catalog fold this version before publishing it? True when
    /// the chunk list has outgrown the dense ideal by
    /// [`COMPACT_CHUNK_SLACK`] — the scattered small chunks that
    /// [`compact_runs`](Self::compact_runs) leaves in place, because full
    /// clean chunks separate them. The catalog asks only after
    /// `compact_runs`, which leaves no dirty chunk: each chunk's dead plus
    /// overlay rows are then at most [`RUN_DIRTY_FRAC`] of its base, so
    /// the table's are at most a third of its live rows, and a dead-row
    /// trigger has nothing left to catch.
    pub fn should_compact(&self) -> bool {
        let ideal = self.live.div_ceil(TARGET_CHUNK_ROWS).max(1);
        self.chunks.len() > ideal + COMPACT_CHUNK_SLACK.max(ideal)
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
            s.overlay_rows += c.overlay_rows();
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
            .plan_edits(None, |tp| {
                Ok::<_, PagerError>(match tp.value(0).as_int().unwrap() {
                    3 => RowEdit::Remove,
                    5 => RowEdit::Replace(vec![t(50)]),
                    7 => RowEdit::Replace(vec![t(70), t(71)]),
                    _ => RowEdit::Keep,
                })
            })
            .unwrap()
            .0;
        assert_eq!(s.apply_edits(plan), 3);
        assert_eq!(ints(&s), vec![0, 1, 2, 4, 50, 6, 70, 71, 8, 9]);
        assert_eq!(s.len(), 10);
    }

    #[test]
    fn edits_on_replacements_compose() {
        let mut s = TupleStore::from_tuples((0..4).map(t).collect());
        let plan = s
            .plan_edits(None, |tp| {
                Ok::<_, PagerError>(if tp.value(0).as_int() == Some(1) {
                    RowEdit::Replace(vec![t(10), t(11)])
                } else {
                    RowEdit::Keep
                })
            })
            .unwrap()
            .0;
        s.apply_edits(plan);
        // Now edit one member of the replacement list.
        let plan = s
            .plan_edits(None, |tp| {
                Ok::<_, PagerError>(if tp.value(0).as_int() == Some(10) {
                    RowEdit::Remove
                } else {
                    RowEdit::Keep
                })
            })
            .unwrap()
            .0;
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
            .plan_edits(None, |tp| {
                Ok::<_, PagerError>(if tp.value(0).as_int() == Some(1999) {
                    RowEdit::Remove
                } else {
                    RowEdit::Keep
                })
            })
            .unwrap()
            .0;
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
            .plan_edits(None, |tp| {
                Ok::<_, PagerError>(if tp.value(0).as_int().unwrap() % 1000 == 0 {
                    RowEdit::Replace(vec![t(-1)])
                } else {
                    RowEdit::Keep
                })
            })
            .unwrap()
            .0;
        s.apply_edits(plan);
        let spent = s.write_work() - before;
        assert!(spent <= 2 * 10, "10-row edit cost {spent} work units");
    }

    #[test]
    fn compact_preserves_sequence_and_folds_layout() {
        let mut s = TupleStore::from_tuples((0..1000).map(t).collect());
        let plan = s
            .plan_edits(None, |tp| {
                Ok::<_, PagerError>(match tp.value(0).as_int().unwrap() {
                    x if x % 3 == 0 => RowEdit::Remove,
                    x if x % 3 == 1 => RowEdit::Replace(vec![t(-x)]),
                    _ => RowEdit::Keep,
                })
            })
            .unwrap()
            .0;
        s.apply_edits(plan);
        for i in 0..5 {
            s.push(t(10_000 + i));
        }
        let before = ints(&s);
        s.compact().unwrap();
        assert_eq!(ints(&s), before);
        let sum = s.summary();
        assert_eq!(sum.overlay_rows, 0);
        assert_eq!(sum.dead_rows, 0);
        assert_eq!(sum.pending_rows, 0);
    }

    #[test]
    fn plan_error_leaves_store_untouched() {
        let s = TupleStore::from_tuples((0..10).map(t).collect());
        let before = ints(&s);
        let r = s.plan_edits(None, |tp| {
            if tp.value(0).as_int() == Some(5) {
                Err(PagerError("boom".into()))
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
        // An overlay: a tombstone and a split, so the pins splice edits.
        s.edit(None, |tp| {
            Ok::<_, PagerError>(match tp.value(0).as_int() {
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
            assert_eq!(pinned.iter().count(), v.len());
            via_views.extend(pinned.iter().map(|t| t.value(0).as_int().unwrap()));
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
        s.create_key_index(0).unwrap();
        // Fragment: tombstone, replace, split, plus a pending tail.
        let plan = s
            .plan_edits(None, |tp| {
                Ok::<_, PagerError>(match tp.value(0).as_int().unwrap() {
                    7 => RowEdit::Remove,
                    600 => RowEdit::Replace(vec![t(-600)]),
                    1500 => RowEdit::Replace(vec![t(1500), t(1501)]),
                    _ => RowEdit::Keep,
                })
            })
            .unwrap()
            .0;
        s.apply_edits(plan);
        s.push(t(99_999));
        for probe in [eq_probe(3), eq_probe(-600), eq_probe(99_999), eq_probe(42)] {
            let f = |tp: &Tuple| {
                Ok::<_, PagerError>(if probe.matches(tp.value(0)) {
                    RowEdit::Replace(vec![t(-1)])
                } else {
                    RowEdit::Keep
                })
            };
            let scan_plan = s.plan_edits(None, f).unwrap().0;
            let (keyed_plan, visited) = s.plan_edits(Some(&probe), f).unwrap();
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
        s.create_key_index(0).unwrap();
        // Fragment: tombstone, replace into the probed key, split, pending.
        let plan = s
            .plan_edits(None, |tp| {
                Ok::<_, PagerError>(match tp.value(0).as_int().unwrap() {
                    7 => RowEdit::Remove,
                    13 => RowEdit::Replace(vec![t(42)]),
                    29 => RowEdit::Replace(vec![t(29), t(42)]),
                    _ => RowEdit::Keep,
                })
            })
            .unwrap()
            .0;
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
    fn keyed_rows_without_an_index_visit_every_row() {
        let s = TupleStore::from_tuples((0..10).map(t).collect());
        assert_eq!(s.keyed_rows(&eq_probe(3)).unwrap(), (vec![t(3)], 10));
    }

    #[test]
    fn keyed_edit_meters_qual_work() {
        let mut s = TupleStore::from_tuples((0..10_000).map(t).collect());
        s.create_key_index(0).unwrap();
        let before = s.qual_work();
        let written = s
            .edit(Some(&eq_probe(5_000)), |tp| {
                Ok::<_, PagerError>(if tp.value(0).as_int() == Some(5_000) {
                    RowEdit::Remove
                } else {
                    RowEdit::Keep
                })
            })
            .unwrap();
        assert_eq!(written, 1);
        let visited = s.qual_work() - before;
        assert!(visited <= 8, "one-key edit visited {visited} rows");
        // The scan path meters every live row.
        let before = s.qual_work();
        s.edit(None, |_| Ok::<_, PagerError>(RowEdit::Keep))
            .unwrap();
        assert_eq!(s.qual_work() - before, s.len() as u64);
    }

    #[test]
    fn edit_without_an_index_visits_every_row() {
        let mut s = TupleStore::from_tuples((0..10).map(t).collect());
        assert!(s.qualification_estimate(&eq_probe(3)).is_none());
        let remove_3 = |tp: &Tuple| {
            Ok::<_, PagerError>(if tp.value(0).as_int() == Some(3) {
                RowEdit::Remove
            } else {
                RowEdit::Keep
            })
        };
        assert_eq!(s.edit(Some(&eq_probe(3)), remove_3).unwrap(), 1);
        assert_eq!(s.qual_work(), 10);
        assert_eq!(ints(&s), vec![0, 1, 2, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn index_survives_seal_compact_and_fork() {
        let mut s = TupleStore::new();
        s.create_key_index(0).unwrap();
        for i in 0..(TARGET_CHUNK_ROWS as i64 * 2 + 50) {
            s.push(t(i % 100));
        }
        let est = s.qualification_estimate(&eq_probe(17)).unwrap();
        // ~1/100 of the sealed rows match; the open tail (50 rows) is
        // walked, plus one probe per sealed chunk.
        assert!(est.candidates >= 10 && est.candidates <= 11, "{est:?}");
        assert_eq!(est.keyed, est.candidates + 50 + 2);
        assert!(est.keyed < est.scan);
        let fork = s.clone();
        assert_eq!(fork.indexed_columns(), &[0]);
        s.compact().unwrap();
        assert_eq!(s.indexed_columns(), &[0]);
        let est = s.qualification_estimate(&eq_probe(17)).unwrap();
        // No tail and no overlay left: only candidates and chunk probes.
        assert_eq!(est.keyed, est.candidates + s.chunks.len() as u64);
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
        let work = s.compact_runs().unwrap();
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
            .plan_edits(None, |tp| {
                let x = tp.value(0).as_int().unwrap();
                Ok::<_, PagerError>(if (600..740).contains(&x) {
                    RowEdit::Remove
                } else {
                    RowEdit::Keep
                })
            })
            .unwrap()
            .0;
        s.apply_edits(plan);
        let base = s.clone();
        assert!(s.should_compact_runs());
        let before = ints(&s);
        let work = s.compact_runs().unwrap();
        assert_eq!(ints(&s), before);
        assert_eq!(s.summary().dead_rows, 0);
        // The clean first chunk stayed shared; work is O(folded run).
        assert!(s.shared_chunks(&base) >= 1);
        assert!(work <= 2 * TARGET_CHUNK_ROWS as u64, "fold cost {work}");
    }

    /// Physical layouts are equal: same chunk boundaries, same overlays,
    /// same live counts — not just the same logical sequence.
    fn resident_rows(p: &ChunkPart) -> &Arc<[Tuple]> {
        match &p.source {
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
        s.create_key_index(0).unwrap();
        let plan = s
            .plan_edits(None, |tp| {
                Ok::<_, PagerError>(match tp.value(0).as_int().unwrap() {
                    7 => RowEdit::Remove,
                    600 => RowEdit::Replace(vec![t(-600), t(-601)]),
                    _ => RowEdit::Keep,
                })
            })
            .unwrap()
            .0;
        s.apply_edits(plan);
        s.seal_pending();
        let rebuilt = TupleStore::from_parts(s.chunk_parts(), None, s.indexed_columns());
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
        base.create_key_index(0).unwrap();
        base.seal_pending();

        // Fork, journal a workload heavy enough to trigger folds.
        let mut fork = base.clone();
        fork.begin_journal();
        for i in 0..600 {
            fork.push(t(10_000 + i));
        }
        let plan = fork
            .plan_edits(None, |tp| {
                Ok::<_, PagerError>(match tp.value(0).as_int().unwrap() {
                    x if (100..400).contains(&x) => RowEdit::Remove,
                    500 => RowEdit::Replace(vec![t(1), t(2)]),
                    _ => RowEdit::Keep,
                })
            })
            .unwrap()
            .0;
        fork.apply_edits(plan);
        fork.create_key_index(0).unwrap(); // idempotent: must not journal
        fork.compact_runs().unwrap();
        fork.compact().unwrap();
        fork.seal_pending();
        let ops = fork.take_journal().expect("journal armed");

        // Recovery: rebuild the base layout from parts, replay the ops.
        let mut recovered =
            TupleStore::from_parts(base.chunk_parts(), None, base.indexed_columns());
        recovered.apply_journal(ops).unwrap();
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
            .plan_edits(None, |tp| {
                Ok::<_, PagerError>(if tp.value(0).as_int().unwrap() % 500 == 0 {
                    RowEdit::Remove
                } else {
                    RowEdit::Keep
                })
            })
            .unwrap()
            .0;
        s.apply_edits(plan);
        s.compact().unwrap();
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
        // The catalog folds runs first: a chunk with 60 % of its rows
        // deleted is dirty, so run folding removes the dead rows and the
        // whole-table fold has nothing left to do.
        let mut s = TupleStore::from_tuples((0..100).map(t).collect());
        assert!(!s.should_compact());
        let plan = s
            .plan_edits(None, |tp| {
                Ok::<_, PagerError>(if tp.value(0).as_int().unwrap() < 60 {
                    RowEdit::Remove
                } else {
                    RowEdit::Keep
                })
            })
            .unwrap()
            .0;
        s.apply_edits(plan);
        s.compact_runs().unwrap();
        assert_eq!(s.summary().dead_rows, 0);
        assert!(!s.should_compact());
        // What run folding leaves in place — pairs of small chunks between
        // full clean ones — still trips the chunk-count trigger.
        let mut s = TupleStore::new();
        for round in 0..40 {
            for i in 0..TARGET_CHUNK_ROWS as i64 {
                s.push(t(round * 10_000 + i));
            }
            for extra in 0..2 {
                s.push(t(round * 10_000 + 5_000 + extra));
                s.seal_pending();
            }
        }
        assert_eq!(s.compact_runs().unwrap(), 0);
        assert!(s.should_compact());
        s.compact().unwrap();
        assert!(!s.should_compact());
    }

    #[test]
    fn run_folding_bounds_dead_and_overlay_rows_by_a_third_of_live() {
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        for _ in 0..20 {
            let rows = (next(4) as i64 + 1) * TARGET_CHUNK_ROWS as i64;
            let mut s = TupleStore::from_tuples((0..rows).map(t).collect());
            let mut fresh = rows;
            for _ in 0..30 {
                match next(3) {
                    0 => {
                        for _ in 0..next(64) + 1 {
                            s.push(t(fresh));
                            fresh += 1;
                        }
                        s.seal_pending();
                    }
                    kind => {
                        let rate = next(8) + 2;
                        let mut pick = |_: &Tuple| next(rate) == 0;
                        let plan = s
                            .plan_edits(None, |tp| {
                                Ok::<_, PagerError>(match (pick(tp), kind) {
                                    (false, _) => RowEdit::Keep,
                                    (true, 1) => RowEdit::Remove,
                                    (true, _) => RowEdit::Replace(vec![tp.clone(), tp.clone()]),
                                })
                            })
                            .unwrap()
                            .0;
                        s.apply_edits(plan);
                    }
                }
                s.compact_runs().unwrap();
                let sum = s.summary();
                assert!(
                    3 * (sum.dead_rows + sum.overlay_rows) <= s.len(),
                    "dead {} + overlay {} > live {} / 3",
                    sum.dead_rows,
                    sum.overlay_rows,
                    s.len()
                );
            }
        }
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
        TupleStore::from_parts(
            vec![
                ChunkPart {
                    source: ChunkSource::Cold { id: 7, len: 512 },
                    edits: BTreeMap::new(),
                },
                ChunkPart {
                    source: ChunkSource::Resident((512..600).map(t).collect()),
                    edits: BTreeMap::new(),
                },
            ],
            Some(Arc::clone(pager) as Arc<dyn ChunkPager>),
            &[],
        )
    }

    #[test]
    fn cold_chunks_build_without_loading() {
        let pager = TestPager::of(vec![]);
        let s = cold_store(&pager);
        assert_eq!(s.len(), 600);
        assert_eq!(pager.loads(), 0, "construction must not page anything in");
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
        // The store's own readers pin transiently too: a full-scan edit
        // pages the cold chunk in and releases it.
        let mut s = cold_store(&pager);
        let cold = |s: &TupleStore| !s.lazy_views()[0].is_resident();
        s.edit(None, |tp| {
            Ok::<_, PagerError>(match tp.value(0).as_int() {
                Some(3) => RowEdit::Replace(vec![t(-3)]),
                _ => RowEdit::Keep,
            })
        })
        .unwrap();
        assert!(cold(&s), "a full-scan edit parked the cold chunk");
        assert_eq!(pager.loads(), 4);
        // A key-index build and a keyed edit do too.
        s.create_key_index(0).unwrap();
        assert!(cold(&s), "the key-index build parked the cold chunk");
        let written = s
            .edit(Some(&eq_probe(5)), |tp| {
                Ok::<_, PagerError>(if tp.value(0).as_int() == Some(5) {
                    RowEdit::Remove
                } else {
                    RowEdit::Keep
                })
            })
            .unwrap();
        assert_eq!(written, 1);
        assert!(cold(&s), "a keyed edit parked the cold chunk");
        assert_eq!(pager.loads(), 6);
        let (rows, _) = s.keyed_rows(&eq_probe(-3)).unwrap();
        assert_eq!(rows, vec![t(-3)]);
        assert!(cold(&s), "a keyed read parked the cold chunk");
        let mut want: Vec<i64> = (0..600).filter(|&x| x != 5).collect();
        want[3] = -3;
        assert_eq!(ints(&s.clone()), want);
    }

    #[test]
    fn park_on_touch_loads_once_per_version() {
        let pager = TestPager::of(vec![]);
        let s = cold_store(&pager);
        assert_eq!(ints(&s), (0..600).collect::<Vec<_>>());
        assert_eq!(ints(&s), (0..600).collect::<Vec<_>>());
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
        let mut keyed = s.clone();
        keyed.create_key_index(0).unwrap();
        pager.fail.store(true, std::sync::atomic::Ordering::SeqCst);
        let views = s.lazy_views();
        assert!(views[0].pin().is_err());
        // The resident view still pins fine.
        assert!(views[1].pin().is_ok());
        // Every store-internal reader surfaces the failure as an error.
        let injected = Some(PagerError("injected".into()));
        let keep = |_: &Tuple| Ok::<_, PagerError>(RowEdit::Keep);
        assert_eq!(s.plan_edits(None, keep).err(), injected);
        assert_eq!(keyed.plan_edits(Some(&eq_probe(5)), keep).err(), injected);
        assert_eq!(keyed.keyed_rows(&eq_probe(5)).err(), injected);
        let mut failing = s.clone();
        assert_eq!(failing.create_key_index(0).err(), injected);
        // Tombstone 200 rows of the cold chunk so both folds have work.
        failing.chunks[0].edits = Some(Arc::new((0..200).map(|o| (o, Vec::new())).collect()));
        assert!(failing.should_compact_runs());
        assert_eq!(failing.compact_runs().err(), injected);
        assert_eq!(failing.compact().err(), injected);
        // …and leaves the store as it was.
        assert_eq!(failing.indexed_columns(), &[] as &[usize]);
        assert_eq!(failing.summary().chunks, 2);
        assert_eq!(failing.summary().dead_rows, 200);
    }

    #[test]
    fn make_resident_drops_the_pager() {
        let pager = TestPager::of(vec![]);
        let mut s = cold_store(&pager);
        pager.fail.store(true, std::sync::atomic::Ordering::SeqCst);
        assert!(s.make_resident().is_err());
        assert!(s.pager().is_some() && !s.lazy_views()[0].is_resident());
        pager.fail.store(false, std::sync::atomic::Ordering::SeqCst);
        s.make_resident().unwrap();
        assert!(s.pager().is_none());
        assert_eq!(pager.loads(), 1);
        assert!(matches!(
            s.chunk_parts()[0].source,
            ChunkSource::Resident(_)
        ));
        assert_eq!(ints(&s), (0..600).collect::<Vec<_>>());
        assert_eq!(pager.loads(), 1, "resident rows never page in again");
        // A store holds one pager: a cold store under another pager
        // demotes nothing.
        let mut cold = cold_store(&pager);
        let other: Arc<dyn ChunkPager> = TestPager::of(vec![]);
        assert_eq!(cold.demote_where(&other, |_| Some(9)), 0);
        assert!(Arc::ptr_eq(
            cold.pager().unwrap(),
            &(pager as Arc<dyn ChunkPager>)
        ));
    }

    #[test]
    fn demote_where_is_logically_invisible() {
        let pager = TestPager::of(vec![]);
        let mut s = TupleStore::from_tuples((0..600).map(t).collect());
        s.create_key_index(0).unwrap();
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
            .plan_edits(Some(&eq_probe(5)), |_| Ok::<_, PagerError>(RowEdit::Remove))
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
