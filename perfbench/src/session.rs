//! One client's session against the database under test: read ops in both
//! modes with the master-criterion check of each pair, and commits to the
//! `Ledger` table with the naive replay that checks them.

use crate::edits::{self, Edit, Replay};
use crate::layers::Layers;
use crate::reads::{self, Answer};
use crate::run::Kind;
use crate::Fallible;
use ongoing_core::TimePoint;
use ongoing_engine::{Database, DurableOptions};
use ongoing_relation::OngoingRelation;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Name of the naive-layout table every workload commits to.
pub const LEDGER: &str = "Ledger";

/// The database, its options, and the state the output checks need.
pub struct Session {
    db: Database,
    dir: PathBuf,
    replay: Replay,
    /// Answer of the op just executed, consumed by `verify`.
    last: Option<Answer>,
    /// Ongoing half of the pair in progress.
    pending: Option<OngoingRelation>,
    /// Milliseconds the open of the database took during set-up.
    open_ms: f64,
}

impl Session {
    /// Opens the database at `dir` under `opts`, timing the open.
    pub fn open(
        dir: &Path,
        opts: DurableOptions,
        ledger: &OngoingRelation,
    ) -> Result<Session, String> {
        let start = Instant::now();
        let db =
            Database::open_with(dir, opts).map_err(|e| format!("open {}: {e}", dir.display()))?;
        Ok(Session {
            db,
            dir: dir.to_path_buf(),
            replay: Replay::new(ledger),
            last: None,
            pending: None,
            open_ms: start.elapsed().as_secs_f64() * 1e3,
        })
    }

    /// The database under test.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Mutable access for set-up-time configuration.
    pub fn db_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// Runs a read op in mode `kind` and keeps its answer for `verify`.
    pub fn read(
        &mut self,
        text: &str,
        shape: &str,
        rt: TimePoint,
        kind: Kind,
        layers: Option<&mut Layers>,
    ) -> Fallible {
        self.last = Some(match kind {
            Kind::AtRt => Answer::AtRt(reads::at_rt(&self.db, text, rt, shape, layers)?),
            _ => Answer::Ongoing(reads::ongoing(&self.db, text, shape, layers)?),
        });
        Ok(())
    }

    /// Keeps an ongoing answer produced outside [`Self::read`].
    pub fn keep(&mut self, rel: OngoingRelation) {
        self.last = Some(Answer::Ongoing(rel));
    }

    /// The answer of the op just executed.
    pub fn answer(&self) -> Option<&Answer> {
        self.last.as_ref()
    }

    /// The ongoing answer of the op just executed, if it was one.
    pub fn take_ongoing(&mut self) -> Option<OngoingRelation> {
        match self.last.take() {
            Some(Answer::Ongoing(rel)) => Some(rel),
            _ => None,
        }
    }

    /// Checks a read op: an ongoing answer is held until its instantiated
    /// twin arrives, and then `∥Q(D)∥rt ≡ Q(∥D∥rt)` must hold.
    pub fn verify_read(&mut self, text: &str, rt: TimePoint) -> Fallible {
        match self.last.take() {
            Some(Answer::Ongoing(rel)) => {
                self.pending = Some(rel);
                Ok(())
            }
            Some(Answer::AtRt(fixed)) => {
                let ongoing = self
                    .pending
                    .take()
                    .ok_or_else(|| format!("{text}: instantiated read without its ongoing twin"))?;
                if ongoing.bind(rt) == fixed {
                    Ok(())
                } else {
                    Err(format!(
                        "{text}: ongoing result bound at {rt} differs from the result at {rt}"
                    ))
                }
            }
            None => Err(format!("{text}: no answer")),
        }
    }

    /// Commits one edit to the ledger.
    pub fn commit(&self, edit: &Edit, layers: Option<&mut Layers>) -> Fallible {
        edits::commit(&self.db, LEDGER, edit, layers)
    }

    /// Records a committed edit in the replay.
    pub fn verify_commit(&mut self, edit: &Edit) -> Fallible {
        self.replay.apply(edit);
        Ok(())
    }

    /// Final checkpoint, then the ledger's layout and the open time.
    pub fn finish(&mut self, layers: &mut Layers) -> Fallible {
        self.db
            .persist()
            .map_err(|e| format!("final checkpoint: {e}"))?;
        let ledger = self.db.table(LEDGER).map_err(|e| e.to_string())?;
        let summary = ledger.data().storage_summary();
        layers.add("store.chunks", summary.chunks as f64);
        layers.add("store.overlay_rows", summary.overlay_rows as f64);
        layers.add("storage.open_ms", self.open_ms);
        Ok(())
    }

    /// Compares the ledger with the replay, reopens the directory under
    /// `opts`, and compares again.
    pub fn check_ledger(&mut self, opts: DurableOptions) -> Vec<String> {
        let mut failures = Vec::new();
        let mut compare = |db: &Database, what: &str| match db.table(LEDGER) {
            Ok(t) => failures.extend(self.replay.check(t.data(), what)),
            Err(e) => failures.push(format!("{what}: {e}")),
        };
        compare(&self.db, "ledger");
        // Close before reopening: one open handle per directory.
        drop(std::mem::take(&mut self.db));
        match Database::open_with(&self.dir, opts) {
            Ok(db) => {
                compare(&db, "ledger after reopen");
                self.db = db;
            }
            Err(e) => failures.push(format!("reopen {}: {e}", self.dir.display())),
        }
        failures
    }
}
