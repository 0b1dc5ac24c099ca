//! The commit stream shared by every workload: one now-relative
//! modification per `Database::modify_table` on a table in the
//! `ongoing_bench::naive` layout `(K, P, VT)` with a key index on `K`,
//! plus the naive replay that checks the result.

use crate::layers::Layers;
use crate::run::interleave;
use crate::{day, Fallible};
use ongoing_bench::naive;
use ongoing_core::TimePoint;
use ongoing_engine::modify::Modifier;
use ongoing_engine::Database;
use ongoing_relation::{Expr, OngoingRelation, Schema, Tuple, Value};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// One modification, qualified by key equality.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Edit {
    /// `Modifier::update`: reassign the payload from `at` on.
    Update {
        key: i64,
        payload: i64,
        at: TimePoint,
    },
    /// `Modifier::terminate`: end the key's validity at `at`.
    Terminate { key: i64, at: TimePoint },
    /// `Modifier::insert_open`: a fresh key valid `[start, now)`.
    Insert {
        key: i64,
        payload: i64,
        start: TimePoint,
    },
    /// `Modifier::delete`: remove every row of the key.
    Delete { key: i64 },
}

/// Edits of each kind (update, terminate, insert, delete) in every 20:
/// inserts and deletes balance, so the key set turns over at a constant
/// size. The kinds cycle in a fixed order; only keys, payloads and times
/// are drawn from the seed, so every seed runs the same mix.
const KINDS_PER_20: [(u8, usize); 4] = [(0, 6), (1, 4), (2, 5), (3, 5)];

/// The naive-layout schema.
pub fn schema() -> Schema {
    Schema::builder().int("K").int("P").interval("VT").build()
}

/// Builds the naive-layout table from `(key, valid time)` rows taken from
/// a MozillaBugs relation (its `ID` and `VT` columns); the payload is the
/// row's ordinal.
pub fn table_from(source: &OngoingRelation, max_key: i64) -> OngoingRelation {
    let tuples = source
        .iter()
        .filter(|t| matches!(t.value(0), Value::Int(k) if *k < max_key))
        .enumerate()
        .map(|(i, t)| {
            let vt = t.values().last().expect("VT is the last column").clone();
            Tuple::base(vec![t.value(0).clone(), Value::Int(i as i64), vt])
        })
        .collect();
    OngoingRelation::from_tuples(schema(), tuples).expect("naive layout")
}

/// Deterministic edit generator. Keys for update/terminate/delete come
/// from the keys still present; inserts use fresh keys, so the sequence
/// never depends on timing or on the engine's answers.
#[derive(Debug)]
pub struct EditGen {
    rng: SmallRng,
    live: Vec<i64>,
    next_key: i64,
    kinds: Vec<u8>,
    edits: usize,
}

impl EditGen {
    /// A generator over the distinct keys of `table`.
    pub fn new(seed: u64, table: &OngoingRelation) -> EditGen {
        let mut live: Vec<i64> = table.iter().filter_map(|t| t.value(0).as_int()).collect();
        live.sort_unstable();
        live.dedup();
        let next_key = live.last().map_or(0, |k| k + 1);
        EditGen {
            rng: SmallRng::seed_from_u64(seed),
            live,
            next_key,
            kinds: interleave(&KINDS_PER_20),
            edits: 0,
        }
    }

    /// Keys inserted so far plus the initial ones: every key ever seen.
    pub fn key_space(&self) -> i64 {
        self.next_key
    }

    /// The next edit of the sequence.
    pub fn next_edit(&mut self) -> Edit {
        let mut kind = self.kinds[self.edits % self.kinds.len()];
        self.edits += 1;
        if self.live.is_empty() {
            kind = 2;
        }
        let at = day(&mut self.rng, (2012, 1, 1), 730);
        let payload = self.rng.gen_range(0..1_000_000);
        let slot = self.rng.gen_range(0..self.live.len().max(1));
        match kind {
            0 => Edit::Update {
                key: self.live[slot],
                payload,
                at,
            },
            1 => Edit::Terminate {
                key: self.live[slot],
                at,
            },
            2 => {
                let key = self.next_key;
                self.next_key += 1;
                self.live.push(key);
                Edit::Insert {
                    key,
                    payload,
                    start: at,
                }
            }
            _ => Edit::Delete {
                key: self.live.swap_remove(slot),
            },
        }
    }
}

fn key_eq(key: i64) -> Expr {
    Expr::Col(0).eq(Expr::lit(key))
}

fn apply_modifier(rel: &mut OngoingRelation, edit: &Edit) -> ongoing_engine::Result<()> {
    let mut m = Modifier::new(rel, "VT")?;
    match *edit {
        Edit::Update { key, payload, at } => {
            m.update(&key_eq(key), &[(1, Value::Int(payload))], at)?;
        }
        Edit::Terminate { key, at } => {
            m.terminate(&key_eq(key), at)?;
        }
        Edit::Insert {
            key,
            payload,
            start,
        } => {
            m.insert_open(
                vec![Value::Int(key), Value::Int(payload), Value::Bool(false)],
                start,
            )?;
        }
        Edit::Delete { key } => {
            m.delete(&key_eq(key))?;
        }
    }
    Ok(())
}

/// Commits `edit` to `table` as one publication. With `layers`, the
/// commit is split into the `Modifier` call (timed inside the closure),
/// the catalog's publication around it, and the store/WAL deltas.
pub fn commit(db: &Database, table: &str, edit: &Edit, layers: Option<&mut Layers>) -> Fallible {
    let Some(layers) = layers else {
        return db
            .modify_table(table, |rel| apply_modifier(rel, edit))
            .map_err(|e| format!("commit {edit:?}: {e}"));
    };
    let before = db.table(table).map_err(|e| e.to_string())?;
    let durable_before = db.durable_stats();
    let mut edit_ns = 0u128;
    let start = Instant::now();
    db.modify_table(table, |rel| {
        let t = Instant::now();
        let r = apply_modifier(rel, edit);
        edit_ns = t.elapsed().as_nanos();
        r
    })
    .map_err(|e| format!("commit {edit:?}: {e}"))?;
    let wall_us = start.elapsed().as_secs_f64() * 1e6;
    let edit_us = edit_ns as f64 / 1e3;
    let after = db.table(table).map_err(|e| e.to_string())?;
    layers.add("modify.edit_us", edit_us);
    layers.add("catalog.publish_us", wall_us - edit_us);
    let (b, a) = (before.data(), after.data());
    layers.add(
        "store.qual_work_per_commit",
        a.qual_work().saturating_sub(b.qual_work()) as f64,
    );
    layers.add(
        "store.write_work_per_commit",
        a.write_work().saturating_sub(b.write_work()) as f64,
    );
    let reanalyzed = match (before.statistics(), after.statistics()) {
        (Some(x), Some(y)) => !Arc::ptr_eq(&x, &y),
        (None, Some(_)) => true,
        _ => false,
    };
    if reanalyzed {
        layers.add("catalog.reanalyze_commit_us", wall_us);
    }
    if let (Some(d0), Some(d1)) = (durable_before, db.durable_stats()) {
        layers.add("wal.bytes_per_commit", (d1.wal_bytes - d0.wal_bytes) as f64);
        if d1.checkpoints > d0.checkpoints {
            layers.add("storage.checkpoint_commit_us", wall_us);
            layers.add(
                "storage.checkpoints",
                (d1.checkpoints - d0.checkpoints) as f64,
            );
        }
    }
    Ok(())
}

/// The naive replay of an edit log, kept per key: every edit touches only
/// the rows of its own key, so replaying per key equals replaying the
/// whole vector and costs O(rows of the key) per edit.
#[derive(Debug, Default)]
pub struct Replay {
    by_key: BTreeMap<i64, Vec<Tuple>>,
}

impl Replay {
    /// Starts from the rows of `table`.
    pub fn new(table: &OngoingRelation) -> Replay {
        let mut by_key: BTreeMap<i64, Vec<Tuple>> = BTreeMap::new();
        for t in table.iter() {
            let key = t.value(naive::KEY_COL).as_int().expect("integer key");
            by_key.entry(key).or_default().push(t.clone());
        }
        Replay { by_key }
    }

    /// Applies one committed edit.
    pub fn apply(&mut self, edit: &Edit) {
        match *edit {
            Edit::Update { key, payload, at } => {
                naive::update(self.by_key.entry(key).or_default(), key, payload, at)
            }
            Edit::Terminate { key, at } => {
                naive::terminate(self.by_key.entry(key).or_default(), key, at)
            }
            Edit::Insert {
                key,
                payload,
                start,
            } => naive::insert_open(self.by_key.entry(key).or_default(), key, payload, start),
            Edit::Delete { key } => {
                self.by_key.remove(&key);
            }
        }
    }

    /// Compares the replay with `table` as multisets of tuples.
    pub fn check(&self, table: &OngoingRelation, what: &str) -> Option<String> {
        let mut want: Vec<String> = self
            .by_key
            .values()
            .flatten()
            .map(|t| format!("{t:?}"))
            .collect();
        let mut got: Vec<String> = table.iter().map(|t| format!("{t:?}")).collect();
        want.sort_unstable();
        got.sort_unstable();
        (want != got).then(|| {
            format!(
                "{what}: table has {} rows, naive replay {} rows, contents differ",
                got.len(),
                want.len()
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ongoing_core::OngoingInterval;

    fn seed_table() -> OngoingRelation {
        let rows = (0..40)
            .map(|k| {
                Tuple::base(vec![
                    Value::Int(k / 2),
                    Value::Int(k),
                    Value::Interval(OngoingInterval::from_until_now(TimePoint::new(15_000 + k))),
                ])
            })
            .collect();
        OngoingRelation::from_tuples(schema(), rows).unwrap()
    }

    #[test]
    fn one_seed_one_edit_sequence() {
        let t = seed_table();
        let run = |seed| {
            let mut g = EditGen::new(seed, &t);
            (0..500).map(|_| g.next_edit()).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
        let edits = run(7);
        for kind in 0..4 {
            let n = edits
                .iter()
                .filter(|e| {
                    kind == match e {
                        Edit::Update { .. } => 0,
                        Edit::Terminate { .. } => 1,
                        Edit::Insert { .. } => 2,
                        Edit::Delete { .. } => 3,
                    }
                })
                .count();
            assert_eq!(n, [150, 100, 125, 125][kind], "edit kind {kind}");
        }
    }

    #[test]
    fn commits_match_the_naive_replay() {
        let db = Database::new();
        let t = seed_table();
        db.create_table("T", t.clone()).unwrap();
        db.create_key_index("T", "K").unwrap();
        let mut gen = EditGen::new(3, &t);
        let mut replay = Replay::new(&t);
        let mut layers = Layers::default();
        for i in 0..200 {
            let e = gen.next_edit();
            let traced = (i % 2 == 0).then_some(&mut layers);
            commit(&db, "T", &e, traced).unwrap();
            replay.apply(&e);
        }
        assert_eq!(replay.check(db.table("T").unwrap().data(), "T"), None);
        assert_eq!(layers.count("modify.edit_us"), 100);
        // A diverging replay is reported.
        replay.apply(&Edit::Insert {
            key: 1_000_000,
            payload: 0,
            start: TimePoint::new(15_000),
        });
        assert!(replay.check(db.table("T").unwrap().data(), "T").is_some());
    }
}
