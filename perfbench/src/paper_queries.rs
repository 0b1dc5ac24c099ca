//! `paper_queries`: the paper's evaluation queries (Sec. IX) over a
//! MozillaBugs database that fits in memory.
//!
//! Each query is fresh OngoingQL text with seeded literals and runs as a
//! pair — ongoing, then instantiated at a seeded reference time — so the
//! ratio of the two modes is measured side by side. A prepared dashboard
//! query is answered from the result cache, and a few one-row commits go
//! to the small `Ledger` table that no query reads.

use crate::edits::{self, Edit, EditGen};
use crate::layers::Layers;
use crate::reads::Fresh;
use crate::run::{interleave, Kind, OpInfo, Workload};
use crate::session::{Session, LEDGER};
use crate::{day, sql_date, Fallible};
use ongoing_core::TimePoint;
use ongoing_datasets::mozilla::{self, MozillaConfig};
use ongoing_engine::plan::optimizer::compile;
use ongoing_engine::{sql, Database, DurableOptions, PlannerConfig, Prepared};
use ongoing_relation::OngoingRelation;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::time::Instant;

/// `BugInfo` cardinality.
pub const BUGS: usize = 20_000;
/// Ledger rows come from the assignments of bugs with smaller IDs.
const LEDGER_KEYS: i64 = 1_500;
/// Bug-ID range of one `Q⋈_ovlp`.
const JOIN_IDS: i64 = 3_000;
/// Bug-ID range of one `QC⋈`.
const CJOIN_IDS: i64 = 2_000;
/// Result-cache budget: the warm-up fills it, so the timed window runs
/// with a full, evicting cache.
const RESULT_CACHE_BYTES: u64 = 16 << 20;
/// Rounds of reads from a separate sequence that run during set-up.
const WARM_ROUNDS: usize = 2;

/// One round: (unit, count). A query unit is an ongoing + at-rt pair.
const ROUND: [(Unit, usize); 5] = [
    (Unit::Desk, 4),
    (Unit::Pair("sel_ovlp"), 2),
    (Unit::Pair("sel_bef"), 6),
    (Unit::Pair("join_ovlp"), 2),
    (Unit::Pair("cjoin"), 3),
];

const DASHBOARD: &str = "SELECT ID, Severity, VT FROM BugSeverity \
     WHERE Severity = 'blocker' AND VT OVERLAPS PERIOD(DATE '2012-01-01', NOW)";

#[derive(Debug, Clone, Copy)]
enum Unit {
    /// A look at the dashboard, then two ledger edits: commits always
    /// follow a light op, never a large scan whose cache footprint would
    /// decide their latency.
    Desk,
    Pair(&'static str),
}

/// One op of the sequence.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// A query of `shape` in mode `kind`, instantiated at `rt` if at-rt.
    Read {
        shape: &'static str,
        text: String,
        rt: TimePoint,
        kind: Kind,
    },
    /// The prepared dashboard query.
    Dashboard,
    /// One modification of the ledger.
    Commit(Edit),
}

impl OpInfo for Op {
    fn class(&self) -> &'static str {
        match self {
            Op::Read { shape, .. } => shape,
            Op::Dashboard => "dashboard",
            Op::Commit(_) => "commit",
        }
    }

    fn kind(&self) -> Kind {
        match self {
            Op::Read { kind, .. } => *kind,
            Op::Dashboard => Kind::CacheHit,
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
    /// The sequence of `seed` over the given ledger.
    pub fn new(seed: u64, ledger: &OngoingRelation) -> Ops {
        Ops {
            rng: SmallRng::seed_from_u64(seed ^ 0x5eed_0001),
            edits: EditGen::new(seed ^ 0x5eed_0002, ledger),
            fresh: Fresh::default(),
        }
    }

    fn text(&mut self, shape: &str) -> String {
        let rng = &mut self.rng;
        self.fresh.text(|| match shape {
            "sel_ovlp" | "sel_bef" => {
                let (from, pred) = if shape == "sel_ovlp" {
                    ((1995, 1, 1), "OVERLAPS")
                } else {
                    ((2002, 1, 1), "BEFORE")
                };
                let span = if shape == "sel_ovlp" { 6_900 } else { 1_095 };
                let d1 = day(rng, from, span);
                let d2 = TimePoint::new(d1.ticks() + rng.gen_range(30i64..120));
                format!(
                    "SELECT ID, Product, VT FROM BugInfo WHERE VT {pred} PERIOD({}, {})",
                    sql_date(d1),
                    sql_date(d2)
                )
            }
            "join_ovlp" => {
                let lo = rng.gen_range(0..BUGS as i64 - JOIN_IDS);
                format!(
                    "SELECT A.ID, A.Assignee, S.Severity FROM BugAssignment A \
                     JOIN BugSeverity S ON A.ID = S.ID AND A.VT OVERLAPS S.VT \
                     WHERE A.ID >= {lo} AND A.ID < {hi} AND S.ID >= {lo} AND S.ID < {hi}",
                    hi = lo + JOIN_IDS
                )
            }
            _ => {
                let lo = rng.gen_range(0..BUGS as i64 - CJOIN_IDS);
                format!(
                    "SELECT A.ID, A.Assignee, B2.ID FROM BugAssignment A \
                     JOIN BugSeverity S ON A.ID = S.ID AND A.VT OVERLAPS S.VT \
                     JOIN BugInfo B ON A.ID = B.ID \
                     JOIN BugInfo B2 ON B.Product = B2.Product AND B.Component = B2.Component \
                     AND B.OS = B2.OS AND A.VT OVERLAPS B2.VT \
                     WHERE S.Severity = 'major' AND A.ID >= {lo} AND A.ID < {hi} \
                     AND S.ID >= {lo} AND S.ID < {hi} AND B.ID >= {lo} AND B.ID < {hi}",
                    hi = lo + CJOIN_IDS
                )
            }
        })
    }

    /// The next round: the units of [`ROUND`], evenly interleaved.
    pub fn round(&mut self) -> Vec<Op> {
        let mut ops = Vec::new();
        for unit in interleave(&ROUND) {
            match unit {
                Unit::Desk => {
                    ops.push(Op::Dashboard);
                    for _ in 0..2 {
                        ops.push(Op::Commit(self.edits.next_edit()));
                    }
                }
                Unit::Pair(shape) => {
                    let text = self.text(shape);
                    let rt = day(&mut self.rng, (2010, 1, 1), 1_461);
                    for kind in [Kind::Ongoing, Kind::AtRt] {
                        ops.push(Op::Read {
                            shape,
                            text: text.clone(),
                            rt,
                            kind,
                        });
                    }
                }
            }
        }
        ops
    }
}

/// The workload state.
pub struct PaperQueries {
    session: Session,
    ops: Ops,
    dashboard: Prepared,
    dashboard_rows: OngoingRelation,
}

fn options() -> DurableOptions {
    DurableOptions {
        fsync: false,
        checkpoint_bytes: 4 << 20,
        memory_budget: u64::MAX,
    }
}

impl Workload for PaperQueries {
    type Op = Op;
    const ROUNDS_PER_SECOND: f64 = 1.75;

    fn setup(seed: u64, dir: &Path) -> Result<Self, String> {
        let err = |e: ongoing_engine::EngineError| e.to_string();
        let m = mozilla::generate(&MozillaConfig::scaled(BUGS, seed));
        let ledger = edits::table_from(&m.bug_assignment, LEDGER_KEYS);
        let mut session = Session::open(dir, options(), &ledger)?;
        session.db_mut().configure_result_cache(RESULT_CACHE_BYTES);
        let db = session.db();
        db.create_table("BugInfo", m.bug_info).map_err(err)?;
        db.create_table("BugAssignment", m.bug_assignment)
            .map_err(err)?;
        db.create_table("BugSeverity", m.bug_severity)
            .map_err(err)?;
        db.create_table(LEDGER, ledger.clone()).map_err(err)?;
        db.create_key_index(LEDGER, "K").map_err(err)?;
        db.persist().map_err(err)?;
        db.analyze_all();
        let dashboard = sql::prepare(db, DASHBOARD).map_err(err)?;
        let cfg = PlannerConfig::default();
        let plan = sql::plan_query(db, DASHBOARD).map_err(err)?;
        let (dashboard_rows, _) = compile(db, &plan, &cfg)
            .and_then(|p| p.execute_with_stats(&cfg.exec_context()))
            .map_err(err)?;
        let mut w = PaperQueries {
            session,
            ops: Ops::new(seed, &ledger),
            dashboard,
            dashboard_rows,
        };
        // Warm-up: the dashboard's first (missing) execution and rounds
        // of reads from a separate sequence.
        let mut warm = Ops::new(!seed, &ledger);
        for _ in 0..WARM_ROUNDS {
            for op in warm.round() {
                if !matches!(op, Op::Commit(_)) {
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
            Op::Read {
                shape,
                text,
                rt,
                kind,
            } => self.session.read(text, shape, *rt, *kind, layers),
            Op::Dashboard => {
                let start = Instant::now();
                let rows = self
                    .dashboard
                    .execute(self.session.db())
                    .map_err(|e| format!("dashboard: {e}"))?;
                if let Some(layers) = layers {
                    layers.add("rescache.hit_us", start.elapsed().as_secs_f64() * 1e6);
                }
                self.session.keep(rows);
                Ok(())
            }
            Op::Commit(edit) => self.session.commit(edit, layers),
        }
    }

    fn verify(&mut self, op: &Op) -> Fallible {
        match op {
            Op::Read { text, rt, .. } => self.session.verify_read(text, *rt),
            Op::Dashboard => match self.session.take_ongoing() {
                Some(rows) if rows == self.dashboard_rows => Ok(()),
                _ => Err("dashboard: cached answer differs from the uncached one".into()),
            },
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
        let rows = |t: &str| self.db().table(t).map_or(0, |t| t.data().len());
        format!(
            "MozillaBugs {BUGS} bugs: BugInfo {} / BugAssignment {} / BugSeverity {} rows, \
             {LEDGER} {} rows; durable, fsync off, checkpoint at 4 MiB of WAL, \
             unbounded chunk cache (all resident); result cache {} MiB",
            rows("BugInfo"),
            rows("BugAssignment"),
            rows("BugSeverity"),
            rows(LEDGER),
            RESULT_CACHE_BYTES >> 20
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger() -> OngoingRelation {
        let m = mozilla::generate(&MozillaConfig::scaled(300, 5));
        edits::table_from(&m.bug_assignment, 100)
    }

    #[test]
    fn one_seed_one_op_sequence() {
        let l = ledger();
        let run = |seed| {
            let mut ops = Ops::new(seed, &l);
            (0..20).flat_map(|_| ops.round()).collect::<Vec<_>>()
        };
        let a = run(11);
        assert_eq!(a, run(11));
        assert_ne!(a, run(12));
        // 38 ops per round in the declared mix; pairs stay adjacent.
        assert_eq!(a.len(), 20 * 38);
        let count = |kind: Kind| a.iter().filter(|o| o.kind() == kind).count();
        assert_eq!(count(Kind::CacheHit), 20 * 4);
        assert_eq!(count(Kind::Commit), 20 * 8);
        assert_eq!(count(Kind::Ongoing), 20 * 13);
        for w in a.windows(2) {
            if w[1].kind() == Kind::AtRt {
                assert_eq!(w[0].kind(), Kind::Ongoing);
                assert_eq!(w[0].class(), w[1].class());
            }
        }
        // Every query text is fresh within the run.
        let mut texts: Vec<&String> = a
            .iter()
            .filter_map(|o| match o {
                Op::Read {
                    text,
                    kind: Kind::Ongoing,
                    ..
                } => Some(text),
                _ => None,
            })
            .collect();
        let n = texts.len();
        texts.sort();
        texts.dedup();
        assert_eq!(texts.len(), n);
    }
}
