//! Ongoing relations (Definition 5) and their bind operator.

use crate::expr::Expr;
use crate::keyindex::{KeyProbe, QualEstimate};
use crate::schema::{Schema, SchemaError};
use crate::store::{
    ChunkPager, ChunkPart, JournalOp, LazyChunkView, PagerError, RowEdit, StoreIter, StoreSummary,
    TupleStore,
};
use crate::tuple::Tuple;
use crate::value::Value;
use crate::value::ValueType;
use ongoing_core::{IntervalSet, TimePoint};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// An ongoing relation: a schema plus a finite set of tuples, each carrying
/// a reference-time attribute `RT`.
///
/// Tuples live in a versioned, chunked copy-on-write [`TupleStore`]
/// (see [`crate::store`]): cloning a relation shares all sealed chunks, and
/// row-level edits through [`edit_tuples`](Self::edit_tuples) cost
/// O(rows touched) instead of O(table). Engine readers pin one chunk at a
/// time ([`lazy_views`](Self::lazy_views)); [`iter`](Self::iter) borrows
/// every row for the relation's lifetime.
#[derive(Debug, Clone)]
pub struct OngoingRelation {
    schema: Schema,
    store: TupleStore,
}

impl PartialEq for OngoingRelation {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema
            && self.store.len() == other.store.len()
            && self.store.iter().eq(other.store.iter())
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
        OngoingRelation {
            schema,
            store: TupleStore::new(),
        }
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
        Ok(OngoingRelation {
            schema,
            store: TupleStore::from_tuples(tuples),
        })
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
        self.store.push(Tuple::with_rt(values, rt));
        Ok(())
    }

    /// Pushes a pre-built tuple, dropping it if its `RT` is empty.
    pub fn push(&mut self, tuple: Tuple) {
        debug_assert_eq!(tuple.arity(), self.schema.len());
        if !tuple.rt().is_empty() {
            self.store.push(tuple);
        }
    }

    /// The schema `(A, RT)`.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The tuples in storage order, borrowed for the relation's lifetime:
    /// a cold chunk is paged in on first touch and stays resident with
    /// this version (see [`crate::store::TupleStore::iter`]). Readers that
    /// must honor the memory budget pin chunks through
    /// [`lazy_views`](Self::lazy_views) instead.
    pub fn iter(&self) -> StoreIter<'_> {
        self.store.iter()
    }

    /// The store's chunk views without loading anything: rows are paged in
    /// per view by [`LazyChunkView::pin`] and released with the pin — the
    /// memory-budget-honoring morsel source (see
    /// [`crate::store::TupleStore::lazy_views`]).
    pub fn lazy_views(&self) -> Vec<LazyChunkView<'_>> {
        self.store.lazy_views()
    }

    /// Demotes resident sealed chunks to cold pager references (see
    /// [`crate::store::TupleStore::demote_where`]): `f` names each base
    /// allocation's durable chunk id, or `None` to keep it resident.
    /// Logically a no-op; returns the number of chunks demoted.
    pub fn demote_where(
        &mut self,
        pager: &Arc<dyn ChunkPager>,
        f: impl FnMut(&Arc<[Tuple]>) -> Option<u64>,
    ) -> usize {
        self.store.demote_where(pager, f)
    }

    /// The pager this relation's cold chunks load through, if any.
    pub fn pager(&self) -> Option<&Arc<dyn ChunkPager>> {
        self.store.pager()
    }

    /// Pages every cold chunk in and keeps it resident, dropping the pager
    /// (see [`crate::store::TupleStore::make_resident`]). Logically a
    /// no-op; a pager failure leaves the relation untouched.
    pub fn make_resident(&mut self) -> Result<(), PagerError> {
        self.store.make_resident()
    }

    /// Applies row-level edits: `f` visits the live tuples in storage
    /// order — every one with `None`, only those that can satisfy `probe`
    /// otherwise (index candidates + overlay deltas + pending tail) — and
    /// returns what should happen to each ([`RowEdit`]). `probe` must be a
    /// necessary condition of `f`'s decision; take it from
    /// [`key_probe`](Self::key_probe). The write cost is O(rows touched) —
    /// untouched chunks stay shared with other versions of this relation.
    /// Returns the number of storage entries written; an error from `f` or
    /// the pager leaves the relation untouched.
    pub fn edit_tuples<E: From<PagerError>>(
        &mut self,
        probe: Option<&KeyProbe>,
        f: impl FnMut(&Tuple) -> Result<RowEdit, E>,
    ) -> Result<usize, E> {
        self.store.edit(probe, f)
    }

    /// Declares a keyed qualification index over `column`, which must hold
    /// a fixed scalar type (`Int`, `Str`, `Bool` or `Time`) — key lookup
    /// on reference-time-dependent values would make *which rows an edit
    /// addresses* depend on the reference time, which the modification
    /// model forbids (Sec. III). Maintained incrementally from here on
    /// (see [`crate::keyindex`]); idempotent. Cold chunks are read through
    /// transient pins; a pager failure leaves the relation untouched.
    pub fn create_key_index<E: From<SchemaError> + From<PagerError>>(
        &mut self,
        column: usize,
    ) -> Result<(), E> {
        let attr = self.schema.attr(column)?;
        if !matches!(
            attr.ty,
            ValueType::Int | ValueType::Str | ValueType::Bool | ValueType::Time
        ) {
            return Err(SchemaError::Mismatch(format!(
                "key index requires a fixed scalar column; `{}` is {:?}",
                attr.name, attr.ty
            ))
            .into());
        }
        Ok(self.store.create_key_index(column)?)
    }

    /// Columns carrying a keyed qualification index, sorted.
    pub fn key_indexed_columns(&self) -> &[usize] {
        self.store.indexed_columns()
    }

    /// Exact qualification cost of `probe` per path (keyed vs scan), in
    /// the store's deterministic work units — `None` when the probe's
    /// column carries no index or some chunk has no key map for it.
    pub fn qualification_estimate(&self, probe: &KeyProbe) -> Option<QualEstimate> {
        self.store.qualification_estimate(probe)
    }

    /// The keyed access path for a predicate over this relation — the one
    /// place reads (`KeyScan`) and modifications decide it. For the first
    /// key-indexed column any conjunct of `pred` constrains against a
    /// constant of the column's type, the probe is that equality or else
    /// the tightest range the `<`, `<=`, `>`, `>=` conjuncts imply (either
    /// operand order). It is returned only when every chunk has a key map
    /// for the column and the keyed walk is strictly cheaper than the scan
    /// ([`qualification_estimate`](Self::qualification_estimate)); `None`
    /// means scan. Costs O(#chunks · log chunk), never a row read.
    pub fn key_probe(&self, pred: &Expr) -> Option<KeyProbe> {
        let probe = KeyProbe::derive(pred, &self.schema, self.key_indexed_columns())?;
        let est = self.qualification_estimate(&probe)?;
        (est.keyed < est.scan).then_some(probe)
    }

    /// The live rows that satisfy `probe`, in live (iteration) order, plus
    /// the rows visited collecting them — the read-path counterpart of
    /// [`edit_tuples`](Self::edit_tuples). Equals the full scan filtered
    /// by [`KeyProbe::matches`] on the probe column.
    pub fn keyed_rows(&self, probe: &KeyProbe) -> Result<(Vec<Tuple>, u64), PagerError> {
        self.store.keyed_rows(probe)
    }

    /// Cumulative qualification work units (rows visited while deciding
    /// which rows modifications touch); the difference between a fork and
    /// its base is the exact read-side qualification cost between them.
    pub fn qual_work(&self) -> u64 {
        self.store.qual_work()
    }

    /// Folds delta overlays and fragmented chunks into dense chunks — a
    /// semantic no-op that resets fork cost and scan fragmentation.
    pub fn compact(&mut self) -> Result<(), PagerError> {
        self.store.compact()
    }

    /// Partial compaction: folds only fragmented chunk *runs* (heavily
    /// overlaid chunks, runs of undersized insert-batch chunks), costing
    /// O(fragmented rows) instead of O(table). Returns the write work
    /// spent. Semantically a no-op, like [`compact`](Self::compact).
    pub fn compact_runs(&mut self) -> Result<u64, PagerError> {
        self.store.compact_runs()
    }

    /// Does the storage policy recommend a partial (run-level) fold (see
    /// [`crate::store::TupleStore::should_compact_runs`])?
    pub fn should_compact_runs(&self) -> bool {
        self.store.should_compact_runs()
    }

    /// Seals the pending insert tail into an immutable chunk so clones of
    /// this relation are pure reference bumps.
    pub fn seal_pending(&mut self) {
        self.store.seal_pending();
    }

    /// Arms the store's mutation journal (see
    /// [`crate::store::TupleStore::begin_journal`]): every mutation from
    /// here on records a [`JournalOp`] the persistence layer can
    /// write-ahead-log.
    pub fn begin_journal(&mut self) {
        self.store.begin_journal();
    }

    /// Takes the accumulated mutation journal, disarming it. `None` when
    /// no journal was armed or when it was severed by a wholesale relation
    /// replacement (clones never inherit a journal).
    pub fn take_journal(&mut self) -> Option<Vec<JournalOp>> {
        self.store.take_journal()
    }

    /// Replays journaled mutations against this relation (see
    /// [`crate::store::TupleStore::apply_journal`]).
    pub fn apply_journal(&mut self, ops: Vec<JournalOp>) -> Result<(), PagerError> {
        self.store.apply_journal(ops)
    }

    /// Serialization views of the store's sealed chunks (the pending tail
    /// is excluded; persistence operates on sealed versions).
    pub fn chunk_parts(&self) -> Vec<ChunkPart> {
        self.store.chunk_parts()
    }

    /// Rebuilds a relation from its physical parts — the inverse of
    /// [`chunk_parts`](Self::chunk_parts), used by crash recovery. Key
    /// maps for `indexed` are rebuilt eagerly for resident parts; cold
    /// parts page in on demand through `pager`, so recovering an
    /// out-of-core table reads no rows (see
    /// [`crate::store::TupleStore::from_parts`]).
    pub fn from_parts(
        schema: Schema,
        parts: Vec<ChunkPart>,
        pager: Option<Arc<dyn ChunkPager>>,
        indexed: &[usize],
    ) -> Self {
        OngoingRelation {
            schema,
            store: TupleStore::from_parts(parts, pager, indexed),
        }
    }

    /// Does the storage policy recommend folding this version (see
    /// [`crate::store::TupleStore::should_compact`])?
    pub fn should_compact(&self) -> bool {
        self.store.should_compact()
    }

    /// Cumulative physical write work units of the underlying store; the
    /// difference between a fork and its base is the exact physical cost
    /// of the modifications between them.
    pub fn write_work(&self) -> u64 {
        self.store.write_work()
    }

    /// Cumulative logical row writes (rows appended, replaced or
    /// tombstoned — no physical bookkeeping); the difference between a
    /// fork and its base is exactly the number of rows the modifications
    /// between them touched.
    pub fn logical_writes(&self) -> u64 {
        self.store.logical_writes()
    }

    /// All three write-path counters of the underlying store as one
    /// snapshot — see [`crate::store::TupleStore::work_counters`].
    pub fn work_counters(&self) -> crate::store::StoreWork {
        self.store.work_counters()
    }

    /// O(1) lineage probe: is this relation's store a direct descendant
    /// of `base`'s (sharing its first sealed chunk)? See
    /// [`crate::store::TupleStore::derives_from`].
    pub fn derives_from(&self, base: &OngoingRelation) -> bool {
        self.store.derives_from(&base.store)
    }

    /// Physical-layout summary of the underlying store.
    pub fn storage_summary(&self) -> StoreSummary {
        self.store.summary()
    }

    /// Number of sealed chunks physically shared with `other` — how much
    /// storage a version re-uses from the version it was forked off.
    pub fn shares_chunks_with(&self, other: &OngoingRelation) -> usize {
        self.store.shared_chunks(&other.store)
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Is the relation empty?
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Replaces the schema (names only — used by `qualify`/rename).
    pub fn with_schema(self, schema: Schema) -> Result<Self, SchemaError> {
        if !self.schema.compatible_with(&schema) {
            return Err(SchemaError::Mismatch(
                "rename must preserve attribute types".into(),
            ));
        }
        Ok(OngoingRelation {
            schema,
            store: self.store,
        })
    }

    /// Qualifies all attribute names with a relation alias (`B.VT`).
    pub fn qualify(self, rel: &str) -> Self {
        let schema = self.schema.qualify(rel);
        OngoingRelation {
            schema,
            store: self.store,
        }
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
        OngoingRelation {
            schema: self.schema.clone(),
            store: TupleStore::from_tuples(tuples),
        }
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
        use crate::store::RowEdit;
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
