//! Ongoing relations (Definition 5), their versioned chunked storage and
//! the bind operator.
//!
//! An ongoing database exists to *absorb change*: tuples are inserted,
//! terminated and updated continuously while readers keep pinned snapshots
//! (Sec. III / VII of the paper). A flat `Vec<Tuple>` would force every
//! modification to clone the whole relation — O(table) per write. An
//! [`OngoingRelation`] instead stores its tuples as a version tree over
//! immutable chunks:
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
//! Cloning a relation is the *fork* operation: O(#chunks) reference bumps
//! plus a copy of the (bounded) pending tail. A modification then touches
//! only the chunks holding edited rows, so a writer costs O(rows touched),
//! not O(table). [`OngoingRelation::compact`] folds overlays and
//! fragmented chunks back into dense chunks; it changes the physical
//! layout only, never the logical tuple sequence.
//!
//! A sealed chunk's base ([`ChunkSource`]) may be *cold*: durable identity
//! only, its rows paged in through the relation's one [`ChunkPager`].
//! Every read of a version pins one chunk at a time and releases it
//! ([`PinnedChunk`]) — the executors' morsels through
//! [`OngoingRelation::lazy_views`], and inside this module the edit
//! planners, keyed lookups, key-index builds and folds. A pager failure is
//! a [`PagerError`], never a panic. Only the borrowing
//! [`OngoingRelation::iter`] keeps what it touched resident for the
//! version's lifetime.
//!
//! All physical write work (tuples appended, overlay entries written,
//! overlay copy-on-write, tail copies on fork, compaction copies) is
//! metered in [`OngoingRelation::write_work`] — the deterministic
//! work-unit counter the storage tests and the catalog's
//! statistics-staleness accounting consume.
//!
//! The code is split along these seams: `chunk` (bases, overlays, pins
//! and the pager), `edit` (row edits, key probes and the candidate walk),
//! `journal` (the write-ahead journal and the physical parts), `compaction`
//! (the fold policy) and `iter` (the borrowing iterator and the chunk
//! parking it needs).

mod chunk;
mod compaction;
mod edit;
mod iter;
mod journal;

pub use chunk::{
    ChunkPager, ChunkPart, ChunkRows, ChunkSource, LazyChunkView, PagerError, PinnedChunk,
    TARGET_CHUNK_ROWS,
};
pub use compaction::{COMPACT_CHUNK_SLACK, RUN_CHUNK_SLACK, RUN_DIRTY_FRAC};
pub use edit::RowEdit;
pub use iter::StoreIter;
pub use journal::JournalOp;

use crate::schema::{Schema, SchemaError};
use crate::tuple::Tuple;
use crate::value::Value;
use chunk::{dense_chunks, Chunk};
use ongoing_core::{IntervalSet, TimePoint};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// The three deterministic write-path counters as one snapshot — see
/// [`OngoingRelation::work_counters`]. Summable across tables with
/// [`StoreWork::add`], which is how a catalog-wide metrics view rolls the
/// per-table counters up.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreWork {
    /// Physical write work units ([`OngoingRelation::write_work`]).
    pub write_work: u64,
    /// Logical row writes ([`OngoingRelation::logical_writes`]).
    pub logical_writes: u64,
    /// Qualification work units ([`OngoingRelation::qual_work`]).
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

/// Physical-layout observability: what a version is made of.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreSummary {
    /// Sealed chunks in the version.
    pub chunks: usize,
    /// Live rows (what [`OngoingRelation::len`] reports).
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

/// An ongoing relation: a schema plus a finite set of tuples, each carrying
/// a reference-time attribute `RT`.
///
/// The tuples live in shared immutable chunks, per-version edit overlays
/// and an owned pending tail (see the [module docs](self)): cloning a
/// relation shares all sealed chunks, and row-level edits through
/// [`edit_tuples`](Self::edit_tuples) cost O(rows touched) instead of
/// O(table). Engine readers pin one chunk at a time
/// ([`lazy_views`](Self::lazy_views)); [`iter`](Self::iter) borrows every
/// row for the relation's lifetime.
#[derive(Debug)]
pub struct OngoingRelation {
    schema: Schema,
    chunks: Vec<Chunk>,
    pending: Vec<Tuple>,
    live: usize,
    write_work: u64,
    logical_writes: u64,
    qual_work: u64,
    /// Columns carrying a keyed qualification index, sorted. Every sealed
    /// chunk holds a key map per entry; the pending tail is walked.
    indexed: Vec<usize>,
    /// The pager every cold chunk of the relation loads through — one per
    /// relation, so a fork bumps one `Arc` however many chunks are cold.
    pager: Option<Arc<dyn ChunkPager>>,
    /// Armed by [`begin_journal`](Self::begin_journal): every mutation
    /// primitive records a [`JournalOp`]. `None` (the default) is
    /// zero-cost. Deliberately *not* carried across `clone()`: a journal
    /// is complete only for mutations made through this very relation, so
    /// a closure that swaps in a clone (or a rebuilt relation) severs it —
    /// the durable catalog then falls back to a full-state record.
    journal: Option<Vec<JournalOp>>,
}

impl Clone for OngoingRelation {
    fn clone(&self) -> OngoingRelation {
        OngoingRelation {
            schema: self.schema.clone(),
            chunks: self.chunks.clone(),
            pending: self.pending.clone(),
            live: self.live,
            // The fork physically copies the pending tail (bounded by
            // TARGET_CHUNK_ROWS for sealed relations); meter it. Logically
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

impl PartialEq for OngoingRelation {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema && self.len() == other.len() && self.iter().eq(other.iter())
    }
}

// The vendored serde is a marker-trait stand-in (nothing serializes through
// it yet); when the real crate is swapped in these two impls must become a
// `(schema, Vec<Tuple>)` proxy implementation (see vendor/serde's crate
// docs) — the chunked storage layout is not a wire format.
impl serde::Serialize for OngoingRelation {}
impl<'de> serde::Deserialize<'de> for OngoingRelation {}

impl OngoingRelation {
    /// An empty relation over `schema`.
    pub fn new(schema: Schema) -> Self {
        OngoingRelation::dense(schema, Vec::new())
    }

    /// Builds a relation from pre-made tuples (arity-checked), sealed into
    /// dense chunks.
    pub fn from_tuples(schema: Schema, tuples: Vec<Tuple>) -> Result<Self, SchemaError> {
        for t in &tuples {
            if t.arity() != schema.len() {
                return Err(SchemaError::Mismatch(format!(
                    "tuple arity {} does not match schema arity {}",
                    t.arity(),
                    schema.len()
                )));
            }
        }
        Ok(OngoingRelation::dense(schema, tuples))
    }

    /// `tuples` sealed into dense chunks, unchecked.
    fn dense(schema: Schema, tuples: Vec<Tuple>) -> Self {
        let live = tuples.len();
        OngoingRelation {
            schema,
            chunks: dense_chunks(tuples),
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

    /// Inserts a base tuple with the trivial reference time `{(-∞, ∞)}` —
    /// how base ongoing relations are populated (Sec. VII-A).
    pub fn insert(&mut self, values: Vec<Value>) -> Result<(), SchemaError> {
        self.insert_with_rt(values, IntervalSet::full())
    }

    /// Inserts a tuple with an explicit reference time. Tuples with an
    /// empty reference time are deleted (not stored).
    pub fn insert_with_rt(
        &mut self,
        values: Vec<Value>,
        rt: IntervalSet,
    ) -> Result<(), SchemaError> {
        if values.len() != self.schema.len() {
            return Err(SchemaError::Mismatch(format!(
                "tuple arity {} does not match schema arity {}",
                values.len(),
                self.schema.len()
            )));
        }
        if rt.is_empty() {
            return Ok(());
        }
        self.append(Tuple::with_rt(values, rt));
        Ok(())
    }

    /// Pushes a pre-built tuple, dropping it if its `RT` is empty.
    pub fn push(&mut self, tuple: Tuple) {
        debug_assert_eq!(tuple.arity(), self.schema.len());
        if !tuple.rt().is_empty() {
            self.append(tuple);
        }
    }

    /// Appends a row to the pending tail, sealing the tail into a chunk at
    /// [`TARGET_CHUNK_ROWS`].
    fn append(&mut self, tuple: Tuple) {
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

    /// Seals the pending insert tail into an immutable chunk so clones of
    /// this relation are pure reference bumps (no copies: the tail buffer
    /// is moved; indexed relations additionally build the new chunk's key
    /// maps, metered per row). Catalog registration seals so that forking
    /// a published version never copies rows.
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

    /// The schema `(A, RT)`.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Is the relation empty?
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Cumulative physical write work units (tuples appended or copied,
    /// overlay entries written, fork/compaction copies). Deterministic:
    /// depends only on the operation sequence, never on timing or thread
    /// count. The difference between a fork and its base is the exact
    /// physical cost of the modifications between them.
    pub fn write_work(&self) -> u64 {
        self.write_work
    }

    /// Cumulative *logical* row writes: rows appended, replaced or
    /// tombstoned. Unlike [`write_work`](Self::write_work) this excludes
    /// physical bookkeeping (overlay copy-on-write, fork tail copies,
    /// compaction), so the difference between a fork and its base is
    /// exactly the number of rows the modifications between them touched —
    /// what the catalog's statistics-staleness accounting needs.
    pub fn logical_writes(&self) -> u64 {
        self.logical_writes
    }

    /// Cumulative *qualification* work units: rows visited while deciding
    /// which rows a modification touches
    /// ([`edit_tuples`](Self::edit_tuples)). Deterministic, like
    /// [`write_work`](Self::write_work); the difference between a fork and
    /// its base is the exact read-side qualification cost between them —
    /// the counter the keyed-index tests assert on.
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

    /// Physical-layout summary.
    pub fn storage_summary(&self) -> StoreSummary {
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

    /// O(1) lineage probe: does this relation still hold `base`'s first
    /// sealed chunk allocation? Row edits never replace a base chunk (they
    /// only copy overlays) and inserts only append, so a direct descendant
    /// of `base` always shares it; a wholesale rebuild — or a compaction,
    /// which already paid O(table) itself — does not.
    pub fn derives_from(&self, base: &OngoingRelation) -> bool {
        match (self.chunks.first(), base.chunks.first()) {
            (Some(a), Some(b)) => a.base.same_alloc(&b.base),
            _ => false,
        }
    }

    /// Number of sealed chunks whose base storage is physically shared
    /// (same allocation) with `other` — how much storage a version re-uses
    /// from the version it was forked off. Quadratic in the chunk counts;
    /// meant for tests and diagnostics.
    pub fn shares_chunks_with(&self, other: &OngoingRelation) -> usize {
        self.chunks
            .iter()
            .filter(|a| other.chunks.iter().any(|b| a.base.same_alloc(&b.base)))
            .count()
    }

    /// Replaces the schema (names only — used by `qualify`/rename).
    pub fn with_schema(self, schema: Schema) -> Result<Self, SchemaError> {
        if !self.schema.compatible_with(&schema) {
            return Err(SchemaError::Mismatch(
                "rename must preserve attribute types".into(),
            ));
        }
        Ok(OngoingRelation { schema, ..self })
    }

    /// Qualifies all attribute names with a relation alias (`B.VT`).
    pub fn qualify(self, rel: &str) -> Self {
        let schema = self.schema.qualify(rel);
        OngoingRelation { schema, ..self }
    }

    /// The bind operator `∥R∥rt` (Sec. VII-A): instantiates every ongoing
    /// attribute at `rt` and omits tuples whose `RT` does not contain `rt`.
    /// The result is a fixed relation with set semantics.
    ///
    /// Requires `rt < ∞`: `RT` is a set of half-open ranges `[ts, te)`, so
    /// no tuple is alive at `∞` and the result there is always empty.
    /// `MAX_FINITE` is the latest reference time.
    ///
    /// # Panics
    /// On a pager failure; [`bind_rows`](Self::bind_rows) returns it.
    pub fn bind(&self, rt: TimePoint) -> FixedRelation {
        let rows = self.bind_rows(rt).unwrap_or_else(|e| panic!("bind: {e}"));
        FixedRelation::from_rows(rows)
    }

    /// The raw row bag of `∥R∥rt`, without the canonicalizing sort/dedup of
    /// [`bind`](Self::bind) — what a system hands to an application when
    /// instantiating a materialized ongoing result (and what the benchmark
    /// harness times, so the comparison against re-evaluation does not
    /// charge either side for canonicalization). Reads one transient chunk
    /// pin at a time, so a cold relation stays cold, and a pager failure is
    /// an error. Requires `rt < ∞`, like [`bind`](Self::bind).
    pub fn bind_rows(&self, rt: TimePoint) -> Result<Vec<Vec<Value>>, PagerError> {
        let mut rows = Vec::new();
        for view in self.lazy_views() {
            rows.extend(view.pin()?.iter().filter_map(|t| t.bind(rt)));
        }
        Ok(rows)
    }

    /// Merges tuples with identical attribute values by unioning their
    /// reference times. The result has the same instantiations at every
    /// reference time but a canonical tuple set.
    pub fn coalesce(&self) -> OngoingRelation {
        let mut groups: HashMap<&[Value], IntervalSet> = HashMap::with_capacity(self.len());
        let mut order: Vec<&Tuple> = Vec::with_capacity(self.len());
        for t in self.iter() {
            match groups.entry(t.values()) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    let merged = e.get().union(t.rt());
                    e.insert(merged);
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(t.rt().clone());
                    order.push(t);
                }
            }
        }
        let tuples = order
            .into_iter()
            .map(|t| Tuple::with_rt(t.values().to_vec(), groups[t.values()].clone()))
            .collect();
        OngoingRelation::dense(self.schema.clone(), tuples)
    }

    /// Renders the relation like the paper's figures (one row per tuple,
    /// `RT` last).
    pub fn to_table_string(&self) -> String {
        self.render_table(|v| v.to_string(), |rt| rt.to_string())
    }

    /// Renders the relation with day-granularity values formatted as civil
    /// dates (the paper's `mm/dd` shorthand) — for examples and the repro
    /// harness.
    pub fn to_table_string_md(&self) -> String {
        use ongoing_core::date::AsMd;
        self.render_table(
            |v| v.display_md(),
            |rt| {
                let parts: Vec<String> = rt
                    .ranges()
                    .iter()
                    .map(|r| format!("[{}, {})", AsMd(r.ts()), AsMd(r.te())))
                    .collect();
                format!("{{{}}}", parts.join(", "))
            },
        )
    }

    fn render_table(
        &self,
        fmt_value: impl Fn(&Value) -> String,
        fmt_rt: impl Fn(&IntervalSet) -> String,
    ) -> String {
        let mut head: Vec<String> = self.schema.attrs().iter().map(|a| a.name.clone()).collect();
        head.push("RT".to_string());
        let mut rows: Vec<Vec<String>> = vec![head];
        for t in self.iter() {
            let mut row: Vec<String> = t.values().iter().map(&fmt_value).collect();
            row.push(fmt_rt(t.rt()));
            rows.push(row);
        }
        let widths: Vec<usize> = (0..rows[0].len())
            .map(|c| rows.iter().map(|r| r[c].chars().count()).max().unwrap_or(0))
            .collect();
        let mut out = String::new();
        for (i, row) in rows.iter().enumerate() {
            for (c, cell) in row.iter().enumerate() {
                out.push_str(cell);
                out.extend(std::iter::repeat_n(
                    ' ',
                    widths[c] - cell.chars().count() + 2,
                ));
            }
            out.push('\n');
            if i == 0 {
                let total: usize = widths.iter().map(|w| w + 2).sum();
                out.extend(std::iter::repeat_n('-', total));
                out.push('\n');
            }
        }
        out
    }
}

impl fmt::Display for OngoingRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_table_string())
    }
}

/// A fixed relation with set semantics — the result of instantiating an
/// ongoing relation at a reference time. Rows are kept sorted and
/// deduplicated so equality is structural; this is the oracle representation
/// for the paper's correctness criterion `∥Q(D)∥rt ≡ Q(∥D∥rt)`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FixedRelation {
    rows: Vec<Vec<Value>>,
}

impl FixedRelation {
    /// Builds a fixed relation, sorting and deduplicating the rows.
    pub fn from_rows(mut rows: Vec<Vec<Value>>) -> Self {
        rows.sort_unstable_by(|a, b| crate::value::cmp_rows(a, b));
        rows.dedup();
        FixedRelation { rows }
    }

    /// The canonical rows.
    pub fn rows(&self) -> &[Vec<Value>] {
        &self.rows
    }

    /// Number of (distinct) rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Is the relation empty?
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Does a row appear in the relation?
    pub fn contains(&self, row: &[Value]) -> bool {
        self.rows
            .binary_search_by(|r| crate::value::cmp_rows(r, row))
            .is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keyindex::KeyProbe;
    use ongoing_core::time::tp;
    use ongoing_core::OngoingInterval;

    fn bugs() -> OngoingRelation {
        let schema = Schema::builder().int("BID").str("C").interval("VT").build();
        let mut r = OngoingRelation::new(schema);
        r.insert(vec![
            Value::Int(500),
            Value::str("Spam filter"),
            Value::Interval(OngoingInterval::from_until_now(tp(25))),
        ])
        .unwrap();
        r.insert(vec![
            Value::Int(501),
            Value::str("Spam filter"),
            Value::Interval(OngoingInterval::fixed(tp(89), tp(233))),
        ])
        .unwrap();
        r
    }

    #[test]
    fn tuples_after_edit_on_fragmented_store_reflects_the_edit() {
        let schema = Schema::builder().int("X").build();
        let mut r = OngoingRelation::new(schema);
        for i in 0..600i64 {
            r.insert(vec![Value::Int(i)]).unwrap();
        }
        r.create_key_index::<Box<dyn std::error::Error>>(0).unwrap();
        // Fragmented: a sealed chunk plus a pending tail, read once before
        // the edit.
        assert_eq!(r.iter().count(), 600);
        let probe = KeyProbe::Eq {
            col: 0,
            key: Value::Int(42),
        };
        r.edit_tuples::<PagerError>(Some(&probe), |t| {
            Ok(if t.value(0) == &Value::Int(42) {
                RowEdit::Replace(vec![Tuple::base(vec![Value::Int(4242)])])
            } else {
                RowEdit::Keep
            })
        })
        .unwrap();
        assert!(r.iter().any(|t| t.value(0) == &Value::Int(4242)));
        assert!(!r.iter().any(|t| t.value(0) == &Value::Int(42)));
        assert_eq!(r.iter().count(), 600);
    }

    #[test]
    fn insert_checks_arity() {
        let mut r = bugs();
        assert!(r.insert(vec![Value::Int(1)]).is_err());
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn empty_rt_tuples_are_deleted() {
        let mut r = bugs();
        r.insert_with_rt(
            vec![
                Value::Int(502),
                Value::str("X"),
                Value::Interval(OngoingInterval::fixed(tp(0), tp(1))),
            ],
            IntervalSet::empty(),
        )
        .unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn bind_instantiates_and_filters() {
        let r = bugs();
        let snap = r.bind(tp(30));
        assert_eq!(snap.len(), 2);
        assert!(snap.contains(&[
            Value::Int(500),
            Value::str("Spam filter"),
            Value::Span(tp(25), tp(30)),
        ]));
    }

    #[test]
    fn bind_omits_dead_tuples() {
        let schema = Schema::builder().int("X").build();
        let mut r = OngoingRelation::new(schema);
        r.insert_with_rt(vec![Value::Int(1)], IntervalSet::range(tp(0), tp(10)))
            .unwrap();
        assert_eq!(r.bind(tp(5)).len(), 1);
        assert_eq!(r.bind(tp(15)).len(), 0);
    }

    #[test]
    fn bind_applies_set_semantics() {
        let schema = Schema::builder().int("X").build();
        let mut r = OngoingRelation::new(schema);
        r.insert(vec![Value::Int(1)]).unwrap();
        r.insert(vec![Value::Int(1)]).unwrap();
        assert_eq!(r.bind(tp(0)).len(), 1);
    }

    #[test]
    fn coalesce_merges_equal_payloads() {
        let schema = Schema::builder().int("X").build();
        let mut r = OngoingRelation::new(schema);
        r.insert_with_rt(vec![Value::Int(1)], IntervalSet::range(tp(0), tp(5)))
            .unwrap();
        r.insert_with_rt(vec![Value::Int(1)], IntervalSet::range(tp(5), tp(9)))
            .unwrap();
        r.insert_with_rt(vec![Value::Int(2)], IntervalSet::range(tp(0), tp(1)))
            .unwrap();
        let c = r.coalesce();
        assert_eq!(c.len(), 2);
        assert_eq!(
            c.iter().next().unwrap().rt(),
            &IntervalSet::range(tp(0), tp(9))
        );
    }

    #[test]
    fn qualify_prefixes_names() {
        let r = bugs().qualify("B");
        assert_eq!(r.schema().attrs()[0].name, "B.BID");
    }

    #[test]
    fn table_rendering_includes_rt_column() {
        let s = bugs().to_table_string();
        assert!(s.contains("RT"));
        assert!(s.contains("[25, now)"));
    }

    #[test]
    fn fixed_relation_dedups_and_sorts() {
        let r = FixedRelation::from_rows(vec![
            vec![Value::Int(2)],
            vec![Value::Int(1)],
            vec![Value::Int(2)],
        ]);
        assert_eq!(r.len(), 2);
        assert!(r.contains(&[Value::Int(1)]));
        assert!(!r.contains(&[Value::Int(3)]));
    }
}
