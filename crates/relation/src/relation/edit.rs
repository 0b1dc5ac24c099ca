//! Row edits, key probes and the candidate walk they share.
//!
//! A modification is planned by visiting live rows and collecting a
//! [`RowEdit`] per touched row, then applied by writing the edits into the
//! touched chunks' overlays (copy-on-write) — so a failed planning pass
//! leaves the relation untouched, and the write costs O(rows touched).
//! With a [`KeyProbe`] the visit walks only the index candidates, the
//! overlay and the pending tail (see [`crate::keyindex`]).

use super::chunk::{PagerError, PinnedChunk};
use super::journal::JournalOp;
use super::OngoingRelation;
use crate::expr::Expr;
use crate::keyindex::{build_key_map, KeyProbe, QualEstimate};
use crate::schema::SchemaError;
use crate::tuple::Tuple;
use crate::value::ValueType;
use std::sync::Arc;

/// The outcome of visiting one live row during
/// [`OngoingRelation::edit_tuples`].
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

/// A planned physical edit: `(chunk index, base offset, edit, touched)`,
/// where `touched` is the *logical* row count the edit represents — for a
/// rebuild of an existing replacement list it counts only the members the
/// caller actually changed, not the untouched ones carried along.
///
/// Produced by [`OngoingRelation::plan_edits`], consumed by
/// [`OngoingRelation::apply_edits`]; splitting the scan from the write
/// keeps a failed planning pass (e.g. a predicate evaluation error) from
/// leaving the relation half-modified.
pub(super) type PlannedEdit = (usize, usize, RowEdit, u64);

impl OngoingRelation {
    /// Columns carrying a keyed qualification index, sorted.
    pub fn key_indexed_columns(&self) -> &[usize] {
        &self.indexed
    }

    /// Declares a keyed qualification index over `column`, which must hold
    /// a fixed scalar type (`Int`, `Str`, `Bool` or `Time`) — key lookup
    /// on reference-time-dependent values would make *which rows an edit
    /// addresses* depend on the reference time, which the modification
    /// model forbids (Sec. III). Every sealed chunk gets an immutable key
    /// map (O(table log chunk) once), and every chunk sealed or folded
    /// from now on builds its map incrementally — O(chunk) at seal time,
    /// never again. Idempotent. The build is metered in
    /// [`write_work`](Self::write_work) at one unit per row indexed. Cold
    /// chunks are read through transient pins; only the key maps stay. A
    /// pager failure leaves the relation untouched.
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
        Ok(self.build_key_index(column)?)
    }

    /// [`create_key_index`](Self::create_key_index) without the column
    /// type check — what folds and journal replay re-derive.
    pub(crate) fn build_key_index(&mut self, col: usize) -> Result<(), PagerError> {
        if self.indexed.contains(&col) {
            return Ok(());
        }
        let maps = (0..self.chunks.len())
            .map(|ci| Ok(Arc::new(build_key_map(self.pin(ci)?.base(), col))))
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

    /// Exact qualification cost of `probe` per path (keyed vs scan), in
    /// the relation's deterministic work units — `None` when the probe's
    /// column carries no index or some chunk has no key map for it (a
    /// chunk reopened cold). Computing the candidate count touches only
    /// the per-chunk key maps (O(#chunks · log chunk + matching keys)),
    /// never the rows.
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
        match pin.edit_at(off) {
            None => {
                let edit = f(&pin.base()[off])?;
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
    /// without touching the relation — plus the rows visited. With `None`
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
    pub(crate) fn plan_edits<E: From<PagerError>>(
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
    /// the rows visited collecting them — the read-path counterpart of
    /// [`edit_tuples`](Self::edit_tuples), over the same walk. Each visited
    /// value is re-checked against the probe, so the output equals the
    /// full scan filtered by [`KeyProbe::matches`] on the probe column —
    /// same rows, same order.
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

    /// Applies row-level edits: `f` visits the live tuples in storage
    /// order — every one with `None`, only those that can satisfy `probe`
    /// otherwise (index candidates + overlay deltas + pending tail) — and
    /// returns what should happen to each ([`RowEdit`]). `probe` must be a
    /// necessary condition of `f`'s decision; take it from
    /// [`key_probe`](Self::key_probe). The rows visited are metered in
    /// [`qual_work`](Self::qual_work). The write cost is O(rows touched) —
    /// untouched chunks stay shared with other versions of this relation.
    /// Returns the number of storage entries written; an error from `f` or
    /// the pager leaves the relation untouched.
    pub fn edit_tuples<E: From<PagerError>>(
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
    pub(crate) fn apply_edits(&mut self, plan: Vec<PlannedEdit>) -> usize {
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
}
