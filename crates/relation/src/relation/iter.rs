//! The borrowing iterator and the chunk parking it needs.
//!
//! [`OngoingRelation::iter`] hands out `&Tuple` for the version's
//! lifetime, so it cannot read through a transient pin: it *parks* a cold
//! chunk's loaded rows in the chunk ([`Parked`]) on first touch and panics
//! on a pager failure. Every other reader pins one chunk at a time (see
//! [`super::chunk`]); this file is all the parking there is.

use super::chunk::{Chunk, ChunkRows, ChunkSource};
use super::OngoingRelation;
use crate::tuple::Tuple;
use std::sync::{Arc, OnceLock};

/// A cold chunk base's rows, parked by [`OngoingRelation::iter`] on first
/// touch. Cloning yields an empty slot, so parks made by a query-scoped
/// clone die with that clone instead of bloating the published version.
#[derive(Debug, Default)]
pub(super) struct Parked(OnceLock<Arc<[Tuple]>>);

impl Clone for Parked {
    fn clone(&self) -> Parked {
        // A fork starts un-parked: rows a clone touches stay resident only
        // as long as the clone lives.
        Parked::default()
    }
}

impl Parked {
    /// The parked rows, if any.
    pub(super) fn get(&self) -> Option<&Arc<[Tuple]>> {
        self.0.get()
    }

    /// Drops the parked rows.
    pub(super) fn clear(&mut self) {
        self.0.take();
    }
}

/// Iterator over every live row of a relation, in storage order.
#[derive(Debug, Clone)]
pub struct StoreIter<'a> {
    rel: &'a OngoingRelation,
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
            if self.chunk >= self.rel.total_views() {
                return None;
            }
            self.rows = Some(match self.rel.chunks.get(self.chunk) {
                Some(c) => ChunkRows::new(self.rel.parked_rows(c), c.edits.as_deref()),
                None => ChunkRows::new(&self.rel.pending, None),
            });
            self.chunk += 1;
        }
    }
}

impl OngoingRelation {
    /// The tuples in storage order, borrowed for the relation's lifetime:
    /// a cold chunk is paged in on first touch and stays resident with
    /// this version, and a pager failure panics. Readers that must honor
    /// the memory budget, or handle a pager failure, pin chunks through
    /// [`lazy_views`](Self::lazy_views) instead.
    pub fn iter(&self) -> StoreIter<'_> {
        StoreIter {
            rel: self,
            chunk: 0,
            rows: None,
        }
    }

    /// Chunk `c`'s base rows as a borrow of this version — parking a cold
    /// base on first touch. Panics on a pager failure; only [`StoreIter`]
    /// reads this way.
    fn parked_rows<'a>(&'a self, c: &'a Chunk) -> &'a [Tuple] {
        match (&c.base, c.parked.get()) {
            (ChunkSource::Resident(rows), _) | (ChunkSource::Cold { .. }, Some(rows)) => rows,
            (&ChunkSource::Cold { id, len }, None) => {
                let loaded = self
                    .load(id, len)
                    .unwrap_or_else(|e| panic!("cold chunk {id} failed to page in: {e}"));
                c.parked.0.get_or_init(|| loaded)
            }
        }
    }
}
