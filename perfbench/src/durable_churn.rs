//! `durable_churn`: now-relative modifications beside keyed point reads
//! on a durable table that fsyncs every commit.
//!
//! The table is the `ongoing_bench::naive` layout `(K, P, VT)` seeded from
//! the MozillaBugs assignments (`K` = bug ID, `VT` = assignment valid
//! time) with a key index on `K`. Four in five ops are one modification
//! per publication; the rest are keyed point reads in both modes (fresh
//! keys, and every commit publishes a new table version, so they always
//! miss the result cache). Checkpoints and automatic re-ANALYZE fire at
//! fixed op indices of the sequence.

use crate::edits::{self, Edit, EditGen};
use crate::layers::Layers;
use crate::reads::Fresh;
use crate::run::{interleave, Kind, OpInfo, Workload};
use crate::session::{Session, LEDGER};
use crate::{day, Fallible};
use ongoing_core::TimePoint;
use ongoing_datasets::mozilla::{self, MozillaConfig};
use ongoing_engine::{Database, DurableOptions};
use ongoing_relation::OngoingRelation;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::Path;

/// MozillaBugs size the table's rows come from.
const BUGS: usize = 10_000;
/// Commits and read pairs per round: 16 commits + 2 pairs, so commits
/// are 80 % of ops and the op median falls inside the keyed-edit class.
const COMMITS_PER_ROUND: usize = 16;
const PAIRS_PER_ROUND: usize = 2;
/// Rounds of a separate sequence whose reads run during set-up.
const WARM_ROUNDS: usize = 1_500;
/// Result-cache budget: small enough to be full after the warm-up.
const RESULT_CACHE_BYTES: u64 = 256 << 10;

/// One op of the sequence.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// A keyed point read in mode `kind`.
    Read {
        text: String,
        rt: TimePoint,
        kind: Kind,
    },
    /// One modification published through the catalog.
    Commit(Edit),
}

impl OpInfo for Op {
    fn class(&self) -> &'static str {
        match self {
            Op::Read { .. } => "point_read",
            Op::Commit(Edit::Update { .. }) => "update",
            Op::Commit(Edit::Terminate { .. }) => "terminate",
            Op::Commit(Edit::Insert { .. }) => "insert",
            Op::Commit(Edit::Delete { .. }) => "delete",
        }
    }

    fn kind(&self) -> Kind {
        match self {
            Op::Read { kind, .. } => *kind,
            Op::Commit(_) => Kind::Commit,
        }
    }
}

/// The seeded op sequence.
#[derive(Debug)]
pub struct Ops {
    rng: SmallRng,
    edits: EditGen,
    fresh: Fresh,
}

impl Ops {
    /// The sequence of `seed` over the initial table.
    pub fn new(seed: u64, table: &OngoingRelation) -> Ops {
        Ops {
            rng: SmallRng::seed_from_u64(seed ^ 0x5eed_0101),
            edits: EditGen::new(seed ^ 0x5eed_0102, table),
            fresh: Fresh::default(),
        }
    }

    /// The next round: commits and read pairs, evenly interleaved.
    pub fn round(&mut self) -> Vec<Op> {
        let mut ops = Vec::new();
        for pair in interleave(&[(true, PAIRS_PER_ROUND), (false, COMMITS_PER_ROUND)]) {
            if !pair {
                ops.push(Op::Commit(self.edits.next_edit()));
                continue;
            }
            let (rng, keys) = (&mut self.rng, self.edits.key_space());
            let text = self.fresh.text(|| {
                format!(
                    "SELECT K, P, VT FROM {LEDGER} WHERE K = {}",
                    rng.gen_range(0..keys)
                )
            });
            let rt = day(&mut self.rng, (2010, 1, 1), 1_461);
            for kind in [Kind::Ongoing, Kind::AtRt] {
                ops.push(Op::Read {
                    text: text.clone(),
                    rt,
                    kind,
                });
            }
        }
        ops
    }
}

/// The workload state.
pub struct DurableChurn {
    session: Session,
    ops: Ops,
}

/// The flush policy under test: fsync on every commit, the default 4 MiB
/// checkpoint threshold, everything resident.
fn options() -> DurableOptions {
    DurableOptions {
        fsync: true,
        checkpoint_bytes: 4 << 20,
        memory_budget: u64::MAX,
    }
}

impl Workload for DurableChurn {
    type Op = Op;
    const ROUNDS_PER_SECOND: f64 = 245.0;

    fn setup(seed: u64, dir: &Path) -> Result<Self, String> {
        let err = |e: ongoing_engine::EngineError| e.to_string();
        let m = mozilla::generate(&MozillaConfig::scaled(BUGS, seed));
        let table = edits::table_from(&m.bug_assignment, i64::MAX);
        let mut session = Session::open(dir, options(), &table)?;
        session.db_mut().configure_result_cache(RESULT_CACHE_BYTES);
        let db = session.db();
        db.create_table(LEDGER, table.clone()).map_err(err)?;
        db.create_key_index(LEDGER, "K").map_err(err)?;
        db.analyze(LEDGER).map_err(err)?;
        db.persist().map_err(err)?;
        let mut w = DurableChurn {
            session,
            ops: Ops::new(seed, &table),
        };
        // Warm-up: the reads of a separate sequence.
        let mut warm = Ops::new(!seed, &table);
        for _ in 0..WARM_ROUNDS {
            for op in warm.round() {
                if let Op::Read { .. } = op {
                    w.execute(&op, None)?;
                    w.verify(&op)?;
                }
            }
        }
        Ok(w)
    }

    fn round(&mut self) -> Vec<Op> {
        self.ops.round()
    }

    fn execute(&mut self, op: &Op, layers: Option<&mut Layers>) -> Fallible {
        match op {
            Op::Read { text, rt, kind } => {
                self.session.read(text, "point_read", *rt, *kind, layers)
            }
            Op::Commit(edit) => self.session.commit(edit, layers),
        }
    }

    fn verify(&mut self, op: &Op) -> Fallible {
        match op {
            Op::Read { text, rt, .. } => self.session.verify_read(text, *rt),
            Op::Commit(edit) => self.session.verify_commit(edit),
        }
    }

    fn db(&self) -> &Database {
        self.session.db()
    }

    fn finish(&mut self, layers: &mut Layers) -> Fallible {
        self.session.finish(layers)
    }

    fn check(&mut self) -> Vec<String> {
        self.session.check_ledger(options())
    }

    fn describe(&self) -> String {
        let rows = self.db().table(LEDGER).map_or(0, |t| t.data().len());
        format!(
            "{LEDGER} (K, P, VT) from MozillaBugs {BUGS} bugs: {rows} rows, key index on K; \
             durable, fsync on every commit, checkpoint at 4 MiB of WAL, \
             unbounded chunk cache (all resident); result cache {} KiB",
            RESULT_CACHE_BYTES >> 10
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_one_op_sequence() {
        let m = mozilla::generate(&MozillaConfig::scaled(300, 5));
        let t = edits::table_from(&m.bug_assignment, i64::MAX);
        let run = |seed| {
            let mut ops = Ops::new(seed, &t);
            (0..30).flat_map(|_| ops.round()).collect::<Vec<_>>()
        };
        let a = run(3);
        assert_eq!(a, run(3));
        assert_ne!(a, run(4));
        assert_eq!(a.len(), 30 * 20);
        let commits = a.iter().filter(|o| o.kind() == Kind::Commit).count();
        assert_eq!(commits, 30 * COMMITS_PER_ROUND);
    }
}
