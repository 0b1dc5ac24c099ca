//! The mutation journal and the physical parts persistence reads and
//! rebuilds a relation from.
//!
//! While a journal is armed every mutation primitive records one
//! [`JournalOp`], which the persistence layer write-ahead-logs. Replaying
//! the ops against a relation rebuilt from the same [`ChunkPart`]s
//! reproduces the journaling relation's exact layout.

use super::chunk::{Chunk, ChunkPager, ChunkPart, ChunkSource, Overlay, PagerError};
use super::edit::{PlannedEdit, RowEdit};
use super::OngoingRelation;
use crate::schema::Schema;
use crate::tuple::Tuple;
use std::sync::Arc;

/// One recorded relation mutation — the unit of the persistence layer's
/// write-ahead log.
///
/// While a journal is armed ([`OngoingRelation::begin_journal`]) every
/// mutation primitive appends one op. Replaying the ops with
/// [`OngoingRelation::apply_journal`] against a physically identical
/// starting state reproduces the exact resulting layout: every primitive
/// is a deterministic function of the relation's state, so layout-changing
/// ops that would be O(table) to describe (compaction, sealing) are
/// recorded as O(1) markers and re-derived on replay.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalOp {
    /// A row appended to the pending tail ([`OngoingRelation::push`]).
    Append(Tuple),
    /// One applied edit plan: `(chunk, base offset, replacement rows,
    /// logically touched)` per entry, in plan order (an empty replacement
    /// list is a tombstone). See [`OngoingRelation::edit_tuples`].
    Edits(Vec<(usize, usize, Vec<Tuple>, u64)>),
    /// The pending tail was sealed into a chunk
    /// ([`OngoingRelation::seal_pending`]).
    Seal,
    /// A whole-table fold ran ([`OngoingRelation::compact`]).
    Compact,
    /// A partial (run-level) fold ran ([`OngoingRelation::compact_runs`]).
    CompactRuns,
    /// A keyed qualification index was declared over the column
    /// ([`OngoingRelation::create_key_index`]).
    CreateKeyIndex(usize),
}

impl OngoingRelation {
    /// Arms the mutation journal: from here on every mutation primitive
    /// records a [`JournalOp`] the persistence layer can
    /// write-ahead-log. Any previously accumulated journal is discarded.
    pub fn begin_journal(&mut self) {
        self.journal = Some(Vec::new());
    }

    /// Takes the accumulated mutation journal, disarming it. `None` when
    /// no journal was armed — or when it was severed by a wholesale
    /// relation replacement (clones never inherit a journal), which is
    /// exactly the signal the durable catalog needs to fall back to a
    /// full-state record.
    pub fn take_journal(&mut self) -> Option<Vec<JournalOp>> {
        self.journal.take()
    }

    /// Replays journaled mutations. Starting from a physically identical
    /// layout (same chunk boundaries and overlays — see
    /// [`from_parts`](Self::from_parts)) this reproduces the exact layout
    /// the journaling relation ended with: every primitive is
    /// deterministic in the relation's state. The folds and index builds a
    /// journal re-derives read through transient pins; a pager failure
    /// stops the replay.
    pub fn apply_journal(&mut self, ops: Vec<JournalOp>) -> Result<(), PagerError> {
        for op in ops {
            match op {
                JournalOp::Append(t) => self.append(t),
                JournalOp::Seal => self.seal_pending(),
                JournalOp::Compact => self.compact()?,
                JournalOp::CompactRuns => {
                    self.compact_runs()?;
                }
                JournalOp::CreateKeyIndex(col) => self.build_key_index(col)?,
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

    /// Records `op` if a journal is armed.
    pub(super) fn log(&mut self, op: JournalOp) {
        if let Some(j) = &mut self.journal {
            j.push(op);
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
                edits: c.edits().cloned().unwrap_or_default(),
            })
            .collect()
    }

    /// Rebuilds a relation from its physical parts — per-chunk bases and
    /// overlay deltas, as exposed by [`chunk_parts`](Self::chunk_parts) —
    /// with key maps rebuilt for `indexed`; used by crash recovery. The
    /// resulting layout (chunk boundaries, overlays, live counts) is
    /// exactly what the parts describe, so journaled mutations recorded
    /// against the original layout replay correctly against it.
    ///
    /// A cold part contributes only its durable identity and is paged in
    /// on demand through `pager`, so recovering an out-of-core table is
    /// O(#chunks + overlay) with zero row reads. Cold bases skip key-map
    /// construction (it would force a page-in); keyed qualification falls
    /// back to a scan for them. Overlays are in memory, so every overlay's
    /// key maps are rebuilt, cold base or not. Panics if a cold part comes
    /// without a pager.
    pub fn from_parts(
        schema: Schema,
        parts: Vec<ChunkPart>,
        pager: Option<Arc<dyn ChunkPager>>,
        indexed: &[usize],
    ) -> Self {
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
                let overlay = Overlay::new(edits, &sorted);
                c.live = c.live - overlay.rows.len() + overlay.len;
                c.overlay = Some(Arc::new(overlay));
            }
            live_total += c.live;
            chunks.push(c);
        }
        OngoingRelation {
            schema,
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
}
