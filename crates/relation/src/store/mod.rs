//! Unit tests of the relation's chunked storage — the submodules of
//! [`crate::relation`] — and the fixtures they share. They stay together
//! in one module so each keeps its `store::tests::*` test id.

use crate::keyindex::KeyProbe;
use crate::relation::{ChunkPager, ChunkPart, ChunkSource, OngoingRelation, PagerError};
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The one-column `Int` schema every fixture relation uses.
fn schema() -> Schema {
    Schema::builder().int("X").build()
}

/// A base tuple holding `x`.
fn t(x: i64) -> Tuple {
    Tuple::base(vec![Value::Int(x)])
}

/// `tuples` sealed into dense chunks.
fn rel(tuples: Vec<Tuple>) -> OngoingRelation {
    OngoingRelation::from_tuples(schema(), tuples).unwrap()
}

/// The live values, in storage order.
fn ints(rel: &OngoingRelation) -> Vec<i64> {
    rel.iter().map(|t| t.value(0).as_int().unwrap()).collect()
}

/// An equality probe on the fixture column.
fn eq_probe(x: i64) -> KeyProbe {
    KeyProbe::Eq {
        col: 0,
        key: Value::Int(x),
    }
}

/// A resident part's rows.
fn resident_rows(p: &ChunkPart) -> &Arc<[Tuple]> {
    match &p.source {
        ChunkSource::Resident(a) => a,
        ChunkSource::Cold { .. } => panic!("expected a resident chunk"),
    }
}

/// In-memory pager for cold-chunk tests: serves chunks from a map and
/// counts loads.
#[derive(Debug)]
struct TestPager {
    chunks: Mutex<std::collections::HashMap<u64, Vec<Tuple>>>,
    loads: AtomicU64,
    fail: AtomicBool,
}

impl TestPager {
    fn of(chunks: Vec<(u64, Vec<Tuple>)>) -> Arc<TestPager> {
        Arc::new(TestPager {
            chunks: Mutex::new(chunks.into_iter().collect()),
            loads: AtomicU64::new(0),
            fail: AtomicBool::new(false),
        })
    }

    fn loads(&self) -> u64 {
        self.loads.load(Ordering::SeqCst)
    }
}

impl ChunkPager for TestPager {
    fn load(&self, id: u64, len: usize) -> Result<Arc<[Tuple]>, PagerError> {
        if self.fail.load(Ordering::SeqCst) {
            return Err(PagerError("injected".into()));
        }
        self.loads.fetch_add(1, Ordering::SeqCst);
        let chunks = self.chunks.lock().unwrap();
        let rows = chunks
            .get(&id)
            .ok_or_else(|| PagerError(format!("unknown chunk {id}")))?;
        assert_eq!(rows.len(), len);
        Ok(rows.clone().into())
    }
}

/// Builds a two-chunk relation (one cold, one resident) over 0..600.
fn cold_store(pager: &Arc<TestPager>) -> OngoingRelation {
    let cold: Vec<Tuple> = (0..512).map(t).collect();
    pager.chunks.lock().unwrap().insert(7, cold);
    OngoingRelation::from_parts(
        schema(),
        vec![
            ChunkPart {
                source: ChunkSource::Cold { id: 7, len: 512 },
                edits: BTreeMap::new(),
            },
            ChunkPart {
                source: ChunkSource::Resident((512..600).map(t).collect()),
                edits: BTreeMap::new(),
            },
        ],
        Some(Arc::clone(pager) as Arc<dyn ChunkPager>),
        &[],
    )
}

mod tests;
