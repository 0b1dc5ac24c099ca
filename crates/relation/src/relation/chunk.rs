//! Chunks, their edit overlays and the pins every read goes through.
//!
//! A sealed chunk is an immutable base ([`ChunkSource`]: resident rows, or
//! a cold durable identity the relation's one [`ChunkPager`] pages in) plus
//! an `Arc`-shared, key-indexed overlay of row edits. Readers pin one chunk
//! at a time ([`PinnedChunk`]) and release it; a pager failure is a
//! [`PagerError`].

use super::OngoingRelation;
use crate::keyindex::{add_key, build_key_map, remove_key, KeyMap};
use crate::tuple::Tuple;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Rows a sealed chunk aims to hold; also the pending-tail seal threshold.
///
/// Chunk boundaries double as the executors' natural morsel boundaries, so
/// the target balances fork cost (smaller chunks ⇒ more `Arc` bumps per
/// clone) against scan fan-out granularity.
pub const TARGET_CHUNK_ROWS: usize = 512;

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
/// cache implements so a relation can hold *cold* chunks (identity +
/// length only) and page their rows in per access. Implementations must
/// be deterministic: the same `(id, len)` always yields the same rows the
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
        ChunkRows::new(self.base(), self.edits)
    }

    /// The pinned base rows, superseded ones included.
    pub(super) fn base(&self) -> &[Tuple] {
        match &self.base {
            PinBase::Borrowed(s) => s,
            PinBase::Owned(a) => a,
        }
    }

    /// The overlay replacement list at base offset `off`, if any.
    pub(super) fn edit_at(&self, off: usize) -> Option<&[Tuple]> {
        self.edits.and_then(|e| e.get(&off)).map(Vec::as_slice)
    }

    /// The live rows standing at base offset `off`: the base row itself,
    /// or its overlay replacement list (empty for a tombstone).
    pub(super) fn rows_at(&self, off: usize) -> &[Tuple] {
        self.edit_at(off)
            .unwrap_or_else(|| std::slice::from_ref(&self.base()[off]))
    }
}

/// A chunk view that defers loading: length and partitioning metadata are
/// free; the rows are paged in only by [`pin`](Self::pin). The
/// budget-honoring way to read relations that may hold cold chunks.
#[derive(Debug, Clone, Copy)]
pub struct LazyChunkView<'a> {
    rel: &'a OngoingRelation,
    /// A sealed chunk's index, or `chunks.len()` for the pending tail.
    ci: usize,
}

impl<'a> LazyChunkView<'a> {
    /// Number of live rows the view will yield — free, no page-in.
    pub fn len(&self) -> usize {
        let rel = self.rel;
        rel.chunks
            .get(self.ci)
            .map_or(rel.pending.len(), |c| c.live)
    }

    /// Is the view empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Would [`pin`](Self::pin) borrow the rows, paging nothing in?
    pub fn is_resident(&self) -> bool {
        self.rel.chunks.get(self.ci).is_none_or(Chunk::is_resident)
    }

    /// Pins the chunk's rows: resident rows are borrowed, cold rows are
    /// paged in transiently (released when the [`PinnedChunk`] drops, so a
    /// scan holding one pin per worker keeps at most one morsel resident).
    pub fn pin(&self) -> Result<PinnedChunk<'a>, PagerError> {
        self.rel.pin(self.ci)
    }
}

/// One sealed chunk's physical parts: its base plus its overlay delta —
/// what the persistence layer writes as a chunk file (base) and a
/// manifest entry (overlay), and what [`OngoingRelation::from_parts`]
/// rebuilds a relation from.
#[derive(Debug, Clone)]
pub struct ChunkPart {
    /// The sealed base rows (resident) or their durable identity (cold).
    pub source: ChunkSource,
    /// The overlay delta (empty when the chunk is clean).
    pub edits: BTreeMap<usize, Vec<Tuple>>,
}

/// The base of one sealed chunk: *resident* rows, or a *cold* durable
/// identity whose rows the relation's [`ChunkPager`] pages in per access.
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
    pub(super) fn len(&self) -> usize {
        match self {
            ChunkSource::Resident(a) => a.len(),
            ChunkSource::Cold { len, .. } => *len,
        }
    }

    /// Same-allocation probe: pointer identity for resident bases,
    /// durable id identity for cold ones (a chunk id names one immutable
    /// file, so equal ids are the same data).
    pub(super) fn same_alloc(&self, other: &ChunkSource) -> bool {
        match (self, other) {
            (ChunkSource::Resident(a), ChunkSource::Resident(b)) => Arc::ptr_eq(a, b),
            (ChunkSource::Cold { id: a, .. }, ChunkSource::Cold { id: b, .. }) => a == b,
            _ => false,
        }
    }
}

/// A chunk's edit overlay: the replacement rows per base offset, their key
/// maps and their count — one value, so the copy-on-write of a shared
/// overlay copies all three together.
#[derive(Debug, Clone, Default)]
pub(super) struct Overlay {
    /// `base` offset → replacement rows (empty = tombstone).
    pub(super) rows: BTreeMap<usize, Vec<Tuple>>,
    /// Per indexed column: each replacement row's own key → the base
    /// offsets whose replacement list holds it. One entry per column the
    /// relation indexes, so keyed walks visit only matching lists.
    pub(super) keys: BTreeMap<usize, KeyMap>,
    /// Replacement rows held: the sum of the list lengths in `rows`.
    pub(super) len: usize,
}

impl Overlay {
    /// An overlay over `rows`, indexed on `cols`. O(overlay · log).
    pub(super) fn new(rows: BTreeMap<usize, Vec<Tuple>>, cols: &[usize]) -> Overlay {
        let mut o = Overlay {
            len: rows.values().map(Vec::len).sum(),
            rows,
            keys: BTreeMap::new(),
        };
        for &col in cols {
            o.index(col);
        }
        o
    }

    /// Indexes every replacement row on `col` as well; returns the rows
    /// indexed. A no-op for a column the overlay already indexes.
    pub(super) fn index(&mut self, col: usize) -> usize {
        if self.keys.contains_key(&col) {
            return 0;
        }
        let mut map = KeyMap::new();
        for (&off, list) in &self.rows {
            for t in list {
                add_key(&mut map, t.value(col), off);
            }
        }
        self.keys.insert(col, map);
        self.len
    }

    /// Writes `list` at base offset `off` and returns the list it replaces
    /// (`None`: the offset showed its base row). The key maps drop the old
    /// list's keys and file the new list's, so the cost is O((old + new)
    /// · log), never O(overlay).
    pub(super) fn write(&mut self, off: usize, list: Vec<Tuple>) -> Option<Vec<Tuple>> {
        for (&col, map) in &mut self.keys {
            for t in self.rows.get(&off).into_iter().flatten() {
                remove_key(map, t.value(col), off);
            }
            for t in &list {
                add_key(map, t.value(col), off);
            }
        }
        self.len += list.len();
        let old = self.rows.insert(off, list);
        self.len -= old.as_ref().map_or(0, Vec::len);
        old
    }
}

/// One immutable chunk plus its shared edit overlay.
///
/// Every read of a version goes through a **transient pin**
/// ([`OngoingRelation::pin`]): a cold base is loaded, used and released
/// with the pin, and a pager failure is an error. The one exception is the
/// borrowing [`OngoingRelation::iter`], which parks what it loads in
/// `parked` (see [`super::iter`]).
#[derive(Debug, Clone)]
pub(super) struct Chunk {
    pub(super) base: ChunkSource,
    /// A cold base's rows, parked by [`OngoingRelation::iter`] on first
    /// touch; a clone starts empty.
    pub(super) parked: super::iter::Parked,
    /// The edit overlay; `None` means the chunk is clean. Shared between
    /// versions; copied on first write.
    pub(super) overlay: Option<Arc<Overlay>>,
    /// Live rows the chunk contributes (base minus edited, plus
    /// replacements) — cached so partitioning and `len` stay O(#chunks).
    pub(super) live: usize,
    /// Keyed qualification indexes over `base`, one per indexed column.
    /// Immutable once built (bases never mutate) and `Arc`-shared by every
    /// version holding the chunk. The overlay's replacement rows are
    /// indexed in the overlay itself ([`Overlay::keys`]); see
    /// [`crate::keyindex`].
    pub(super) keys: BTreeMap<usize, Arc<KeyMap>>,
}

impl Chunk {
    /// A clean chunk over `base`, with key maps for `cols` over a resident
    /// base. A cold base gets none (building them would force a page-in);
    /// keyed qualification falls back to a scan until the chunk is folded
    /// resident again or an index is built explicitly.
    pub(super) fn new(base: ChunkSource, cols: &[usize]) -> Chunk {
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
            parked: Default::default(),
            overlay: None,
            keys,
        }
    }

    /// Are the rows in memory (resident, or a cold base already parked)?
    fn is_resident(&self) -> bool {
        matches!(self.base, ChunkSource::Resident(_)) || self.parked.get().is_some()
    }

    /// The overlay's replacement rows, if the chunk has an overlay.
    pub(super) fn edits(&self) -> Option<&BTreeMap<usize, Vec<Tuple>>> {
        self.overlay.as_deref().map(|o| &o.rows)
    }

    /// Base rows superseded by the overlay. O(1).
    pub(super) fn edited_base_rows(&self) -> usize {
        self.edits().map_or(0, BTreeMap::len)
    }

    /// Replacement rows held in the overlay. O(1).
    pub(super) fn overlay_rows(&self) -> usize {
        self.overlay.as_ref().map_or(0, |o| o.len)
    }
}

/// `tuples` sealed into dense chunks of [`TARGET_CHUNK_ROWS`], the
/// remainder last, each tuple moved once.
pub(super) fn dense_chunks(tuples: Vec<Tuple>) -> Vec<Chunk> {
    let mut chunks = Vec::with_capacity(tuples.len().div_ceil(TARGET_CHUNK_ROWS.max(1)));
    let mut rows = tuples.into_iter();
    while !rows.as_slice().is_empty() {
        let rows = rows.by_ref().take(TARGET_CHUNK_ROWS).collect();
        chunks.push(Chunk::new(ChunkSource::Resident(rows), &[]));
    }
    chunks
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

impl<'a> ChunkRows<'a> {
    pub(super) fn new(
        base: &'a [Tuple],
        edits: Option<&'a BTreeMap<usize, Vec<Tuple>>>,
    ) -> ChunkRows<'a> {
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

impl OngoingRelation {
    /// The relation's chunk views without loading anything: lengths and
    /// partitioning metadata are free, rows are paged in per view by
    /// [`LazyChunkView::pin`] and released with the pin — the
    /// memory-budget-honoring morsel source for scans over relations that
    /// may hold cold chunks.
    pub fn lazy_views(&self) -> Vec<LazyChunkView<'_>> {
        (0..self.total_views())
            .map(|ci| LazyChunkView { rel: self, ci })
            .collect()
    }

    /// Sealed chunks plus the pending tail, if it holds rows.
    pub(super) fn total_views(&self) -> usize {
        self.chunks.len() + usize::from(!self.pending.is_empty())
    }

    /// Pins view `ci` — a sealed chunk, or the pending tail at
    /// `chunks.len()` — through a transient pin: resident (or parked) rows
    /// are borrowed, a cold base is paged in as an owned `Arc` released
    /// with the pin.
    pub(super) fn pin(&self, ci: usize) -> Result<PinnedChunk<'_>, PagerError> {
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
            edits: c.edits(),
            live: c.live,
        })
    }

    /// Pages cold chunk `id` in through the relation's pager.
    pub(super) fn load(&self, id: u64, len: usize) -> Result<Arc<[Tuple]>, PagerError> {
        let pager = self.pager.as_ref();
        pager
            .expect("a relation with cold chunks has a pager")
            .load(id, len)
    }

    /// The pager this relation's cold chunks load through, if any.
    pub fn pager(&self) -> Option<&Arc<dyn ChunkPager>> {
        self.pager.as_ref()
    }

    /// Pages every cold chunk in and keeps a copy of its rows resident,
    /// then drops the pager: the relation no longer reads, or pins,
    /// anything the pager serves. Key maps, overlays and live counts are
    /// untouched, so this is logically a no-op. A pager failure leaves the
    /// relation untouched.
    pub fn make_resident(&mut self) -> Result<(), PagerError> {
        let loaded = (0..self.chunks.len())
            .map(|ci| match self.chunks[ci].base {
                ChunkSource::Cold { .. } => Ok(Some(Arc::from(self.pin(ci)?.base()))),
                ChunkSource::Resident(_) => Ok(None),
            })
            .collect::<Result<Vec<_>, PagerError>>()?;
        for (c, rows) in self.chunks.iter_mut().zip(loaded) {
            if let Some(rows) = rows {
                c.base = ChunkSource::Resident(rows);
                c.parked.clear();
            }
        }
        self.pager = None;
        Ok(())
    }

    /// Demotes resident sealed chunks to cold: every chunk whose base
    /// allocation `f` can name (returning its durable chunk id) drops its
    /// rows, which `pager` — from here on the relation's pager — serves
    /// again. Key maps, overlays and live counts are untouched, so the
    /// demotion is logically a no-op — the pager contract is that the id
    /// yields exactly the dropped rows. A relation holds one pager, so one
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
}
