//! The compaction policy: when and how overlays and fragmented chunks are
//! folded back into dense chunks.
//!
//! Every fold is logically a no-op — the tuple sequence is unchanged, only
//! the physical layout (and so fork cost and scan fragmentation) improves.
//! A partial fold ([`OngoingRelation::compact_runs`]) costs
//! O(fragmented rows); the whole-table fold ([`OngoingRelation::compact`])
//! is the backstop the catalog runs only when
//! [`OngoingRelation::should_compact`] says so.

use super::chunk::{dense_chunks, Chunk, ChunkSource, PagerError, TARGET_CHUNK_ROWS};
use super::journal::JournalOp;
use super::OngoingRelation;
use crate::tuple::Tuple;

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

impl Chunk {
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

impl OngoingRelation {
    /// Folds delta overlays, tombstones and fragmented chunks back into
    /// dense [`TARGET_CHUNK_ROWS`] chunks — a semantic no-op that resets
    /// fork cost and scan fragmentation. O(table) — the policy in
    /// [`should_compact`](Self::should_compact) keeps it amortized O(1)
    /// per written row. Reads each chunk through one transient pin; a
    /// pager failure leaves the relation untouched.
    pub fn compact(&mut self) -> Result<(), PagerError> {
        // Already dense — no overlays, no tail, every chunk but the last
        // full (exactly the layout a rebuild would produce): skip the
        // O(table) rebuild.
        let dense_prefix = self
            .chunks
            .split_last()
            .is_none_or(|(_, init)| init.iter().all(|c| c.base.len() == TARGET_CHUNK_ROWS));
        if self.pending.is_empty()
            && dense_prefix
            && self.chunks.iter().all(|c| c.overlay.is_none())
        {
            return Ok(());
        }
        let mut tuples = Vec::with_capacity(self.live);
        for ci in 0..self.total_views() {
            tuples.extend(self.pin(ci)?.iter().cloned());
        }
        self.write_work += tuples.len() as u64;
        self.live = tuples.len();
        self.chunks = dense_chunks(tuples);
        self.pending = Vec::new();
        // Every chunk is resident now.
        self.pager = None;
        let indexed = std::mem::take(&mut self.indexed);
        // The journal survives the rebuild but must not record the index
        // rebuilds below (replaying `Compact` re-derives them): restore it
        // only after, then record the fold as a single O(1) marker.
        let journal = self.journal.take();
        for col in indexed {
            self.build_key_index(col)?;
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
    pub(crate) fn fragmented_runs(&self) -> Vec<std::ops::Range<usize>> {
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

    /// Partial compaction: folds only the fragmented chunk *runs* (heavily
    /// overlaid chunks, runs of undersized insert-batch chunks) into dense
    /// chunks, leaving every other chunk untouched — and therefore still
    /// physically shared with older versions. Returns the write work
    /// spent: O(rows in fragmented runs), **not** O(table), which is what
    /// keeps sustained churn on very large tables from ever paying a
    /// whole-table fold. Logically a no-op, like
    /// [`compact`](Self::compact). Reads each folded chunk through one
    /// transient pin; a pager failure leaves the relation untouched.
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
}
