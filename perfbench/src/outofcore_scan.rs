//! `outofcore_scan`: a checkpointed durable table several times the
//! chunk-cache budget, reopened cold, under selective scans and a hash
//! join against a small build side.
//!
//! Every scan pages the table's chunks in under the budget, so chunk
//! page-in, decode and eviction do the work that stays idle when data
//! fits. Reads run as ongoing + at-rt pairs with fresh literals; a few
//! one-row commits go to the small `Ledger` table. Sampled answers are
//! compared at the end with an unbounded-budget open of the same
//! directory.

use crate::edits::{self, Edit, EditGen};
use crate::layers::Layers;
use crate::reads::{self, Answer, Fresh};
use crate::run::{interleave, Kind, OpInfo, Workload};
use crate::session::{Session, LEDGER};
use crate::{day, sql_date, Fallible};
use ongoing_core::{OngoingInterval, TimePoint};
use ongoing_engine::{Database, DurableOptions};
use ongoing_relation::{OngoingRelation, Schema, Tuple, Value, TARGET_CHUNK_ROWS};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::Path;

/// Sealed chunks of the scanned table `T`.
const CHUNKS: usize = 96;
/// Rows of the build side `S`.
const BUILD_ROWS: usize = 256;
/// Distinct values of the `G` column.
const GROUPS: i64 = 16;
/// The budget is this fraction of the chunk bytes on disk.
const OUT_OF_CORE: u64 = 4;
/// Ledger rows come from the rows of `T` with smaller keys.
const LEDGER_KEYS: i64 = 2_000;
/// Every `KEEP_EVERY`-th round's answers are re-checked at the end.
const KEEP_EVERY: u64 = 4;
/// Result-cache budget: small enough that the warm-up fills it.
const RESULT_CACHE_BYTES: u64 = 256 << 10;
/// Rounds of reads from a separate sequence that run during set-up.
const WARM_ROUNDS: usize = 2;

/// One round: commits, scan pairs and join pairs.
const ROUND: [(Unit, usize); 3] = [
    (Unit::Commit, 4),
    (Unit::Pair("scan"), 4),
    (Unit::Pair("scan_join"), 2),
];

#[derive(Debug, Clone, Copy)]
enum Unit {
    Commit,
    Pair(&'static str),
}

/// One op of the sequence.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// A read of `shape` in mode `kind`; `keep` marks answers re-checked
    /// against the unbounded open.
    Read {
        shape: &'static str,
        text: String,
        rt: TimePoint,
        kind: Kind,
        keep: bool,
    },
    /// One modification of the ledger.
    Commit(Edit),
}

impl OpInfo for Op {
    fn class(&self) -> &'static str {
        match self {
            Op::Read { shape, .. } => shape,
            Op::Commit(_) => "commit",
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
    rounds: u64,
}

impl Ops {
    /// The sequence of `seed` over the given ledger.
    pub fn new(seed: u64, ledger: &OngoingRelation) -> Ops {
        Ops {
            rng: SmallRng::seed_from_u64(seed ^ 0x5eed_0201),
            edits: EditGen::new(seed ^ 0x5eed_0202, ledger),
            fresh: Fresh::default(),
            rounds: 0,
        }
    }

    fn text(&mut self, shape: &str) -> String {
        let rng = &mut self.rng;
        self.fresh.text(|| {
            let g = rng.gen_range(0..GROUPS);
            let d1 = day(rng, (2000, 1, 1), 5_000);
            let d2 = TimePoint::new(d1.ticks() + rng.gen_range(30i64..365));
            let window = format!("PERIOD({}, {})", sql_date(d1), sql_date(d2));
            if shape == "scan" {
                format!("SELECT K, G, VT FROM T WHERE G = {g} AND VT OVERLAPS {window}")
            } else {
                format!(
                    "SELECT T.K, T.G, S.G FROM T JOIN S ON T.K = S.K AND T.VT OVERLAPS S.VT \
                     WHERE T.G = {g} AND T.VT OVERLAPS {window}"
                )
            }
        })
    }

    /// The next round: the units of [`ROUND`], evenly interleaved.
    pub fn round(&mut self) -> Vec<Op> {
        let keep = self.rounds.is_multiple_of(KEEP_EVERY);
        self.rounds += 1;
        let mut ops = Vec::new();
        for unit in interleave(&ROUND) {
            match unit {
                Unit::Commit => ops.push(Op::Commit(self.edits.next_edit())),
                Unit::Pair(shape) => {
                    let text = self.text(shape);
                    let rt = day(&mut self.rng, (2008, 1, 1), 2_190);
                    for kind in [Kind::Ongoing, Kind::AtRt] {
                        ops.push(Op::Read {
                            shape,
                            text: text.clone(),
                            rt,
                            kind,
                            keep,
                        });
                    }
                }
            }
        }
        ops
    }
}

fn schema() -> Schema {
    Schema::builder().int("K").int("G").interval("VT").build()
}

/// `n` rows `(K, G, VT)`: keys from `keys`, 15 % of valid times ongoing.
fn rows(rng: &mut SmallRng, keys: impl Iterator<Item = i64>) -> Vec<Tuple> {
    keys.map(|k| {
        let start = day(rng, (2000, 1, 1), 5_000);
        let vt = if rng.gen_bool(0.15) {
            OngoingInterval::from_until_now(start)
        } else {
            OngoingInterval::fixed(
                start,
                TimePoint::new(start.ticks() + rng.gen_range(1i64..400)),
            )
        };
        Tuple::base(vec![
            Value::Int(k),
            Value::Int(rng.gen_range(0..GROUPS)),
            Value::Interval(vt),
        ])
    })
    .collect()
}

/// Out-of-core reads are the load here, so commits do not fsync: their
/// latency stays a CPU cost, like the rest of the workload.
fn options(memory_budget: u64) -> DurableOptions {
    DurableOptions {
        fsync: false,
        checkpoint_bytes: 4 << 20,
        memory_budget,
    }
}

/// Total and largest chunk-file sizes under `<dir>/chunks`.
fn chunk_bytes(dir: &Path) -> Result<(u64, u64), String> {
    let mut total = 0;
    let mut max = 0;
    let entries = std::fs::read_dir(dir.join("chunks")).map_err(|e| format!("chunks: {e}"))?;
    for entry in entries {
        let len = entry
            .and_then(|e| e.metadata())
            .map_err(|e| e.to_string())?
            .len();
        total += len;
        max = max.max(len);
    }
    Ok((total, max))
}

/// The workload state.
pub struct OutOfCoreScan {
    session: Session,
    ops: Ops,
    budget: u64,
    disk_chunks: u64,
    kept: Vec<(String, TimePoint, Answer)>,
}

impl Workload for OutOfCoreScan {
    type Op = Op;
    const ROUNDS_PER_SECOND: f64 = 2.2;

    fn setup(seed: u64, dir: &Path) -> Result<Self, String> {
        let err = |e: ongoing_engine::EngineError| e.to_string();
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = (CHUNKS * TARGET_CHUNK_ROWS) as i64;
        let t = OngoingRelation::from_tuples(schema(), rows(&mut rng, 0..n))
            .map_err(|e| e.to_string())?;
        let build: Vec<i64> = (0..BUILD_ROWS).map(|_| rng.gen_range(0..n)).collect();
        let s = OngoingRelation::from_tuples(schema(), rows(&mut rng, build.into_iter()))
            .map_err(|e| e.to_string())?;
        let ledger = edits::table_from(&t, LEDGER_KEYS);
        {
            let db = Database::open_with(dir, options(u64::MAX)).map_err(err)?;
            db.create_table("T", t).map_err(err)?;
            db.create_table("S", s).map_err(err)?;
            db.persist().map_err(err)?;
        }
        let (total, max_file) = chunk_bytes(dir)?;
        let budget = (total / OUT_OF_CORE).max(2 * max_file);
        if total < OUT_OF_CORE * budget {
            return Err(format!(
                "{total} B of chunks is not {OUT_OF_CORE}x the {budget} B budget"
            ));
        }
        // The cold open: recovery reads no chunk files.
        let mut session = Session::open(dir, options(budget), &ledger)?;
        session.db_mut().configure_result_cache(RESULT_CACHE_BYTES);
        // Created after the cold open, the ledger stays resident (only a
        // checkpoint would page it out): commits never wait for the scans'
        // evictions.
        session
            .db()
            .create_table(LEDGER, ledger.clone())
            .map_err(err)?;
        session.db().create_key_index(LEDGER, "K").map_err(err)?;
        // No ANALYZE: run on the cold table it leaves all of `T` resident
        // (no chunk-cache misses afterwards), and the budget idle.
        let mut w = OutOfCoreScan {
            session,
            ops: Ops::new(seed, &ledger),
            budget,
            disk_chunks: total,
            kept: Vec::new(),
        };
        let mut warm = Ops::new(!seed, &ledger);
        for _ in 0..WARM_ROUNDS {
            for op in warm.round() {
                if let Op::Read { .. } = op {
                    w.execute(&op, None)?;
                    w.verify(&op)?;
                }
            }
        }
        w.kept.clear();
        Ok(w)
    }

    fn round(&mut self) -> Vec<Op> {
        self.ops.round()
    }

    fn execute(&mut self, op: &Op, layers: Option<&mut Layers>) -> Fallible {
        match op {
            Op::Read {
                shape,
                text,
                rt,
                kind,
                ..
            } => self.session.read(text, shape, *rt, *kind, layers),
            Op::Commit(edit) => self.session.commit(edit, layers),
        }
    }

    fn verify(&mut self, op: &Op) -> Fallible {
        match op {
            Op::Read {
                text,
                rt,
                keep: true,
                ..
            } => {
                if let Some(a) = self.session.answer() {
                    self.kept.push((text.clone(), *rt, a.clone()));
                }
                self.session.verify_read(text, *rt)
            }
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

    /// Reopens with an unbounded budget (checking the ledger), then
    /// recomputes every kept answer there.
    fn check(&mut self) -> Vec<String> {
        let mut failures = self.session.check_ledger(options(u64::MAX));
        let db = self.session.db();
        for (text, rt, answer) in &self.kept {
            let again = match answer {
                Answer::Ongoing(_) => reads::ongoing(db, text, "", None).map(Answer::Ongoing),
                Answer::AtRt(_) => reads::at_rt(db, text, *rt, "", None).map(Answer::AtRt),
            };
            match again {
                Ok(a) if &a == answer => {}
                Ok(_) => failures.push(format!("{text}: budgeted answer differs from unbounded")),
                Err(e) => failures.push(e),
            }
        }
        failures
    }

    fn describe(&self) -> String {
        format!(
            "T (K, G, VT) {} rows in {CHUNKS} chunks + S {BUILD_ROWS} rows + {LEDGER}: \
             {} B of chunk files, chunk-cache budget {} B ({:.1}x out of core), reopened cold; \
             durable, fsync off, checkpoint at 4 MiB of WAL; result cache {} KiB",
            CHUNKS * TARGET_CHUNK_ROWS,
            self.disk_chunks,
            self.budget,
            self.disk_chunks as f64 / self.budget as f64,
            RESULT_CACHE_BYTES >> 10
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_one_op_sequence() {
        let mut rng = SmallRng::seed_from_u64(1);
        let t = OngoingRelation::from_tuples(schema(), rows(&mut rng, 0..500)).unwrap();
        let ledger = edits::table_from(&t, 100);
        let run = |seed| {
            let mut ops = Ops::new(seed, &ledger);
            (0..12).flat_map(|_| ops.round()).collect::<Vec<_>>()
        };
        let a = run(9);
        assert_eq!(a, run(9));
        assert_ne!(a, run(10));
        assert_eq!(a.len(), 12 * 16);
        let kept = a
            .iter()
            .filter(|o| matches!(o, Op::Read { keep: true, .. }))
            .count();
        assert_eq!(kept, 3 * 12);
    }
}
