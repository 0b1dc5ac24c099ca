//! The hash join against a reference kept here: a map from owned key
//! vectors to build positions, the shape the engine's join does not use.
//! Two-column `Str` + `Int` keys with duplicates on both sides, in both
//! modes and at pools 1 and 4: the engine must return exactly the
//! reference's pairs, in its order and with its reference times.

use ongoing_core::time::tp;
use ongoing_core::{IntervalSet, OngoingInterval};
use ongoing_relation::{Expr, OngoingRelation, Schema, Tuple, Value};
use ongoingdb::engine::plan::{compile, JoinStrategy, PlannerConfig};
use ongoingdb::engine::{Database, ExecContext, QueryBuilder};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

const NAMES: [&str; 5] = [
    "alpha",
    "beta",
    "gamma",
    "a-much-longer-key-than-one-word",
    "",
];

/// `(ID, S, N, VT)` rows whose `(S, N)` keys repeat, each alive on its
/// own `RT`. Every `S` is a fresh allocation, so equal keys are equal by
/// content only.
fn relation(rng: &mut SmallRng, rows: i64) -> OngoingRelation {
    let schema = Schema::builder()
        .int("ID")
        .str("S")
        .int("N")
        .interval("VT")
        .build();
    let mut rel = OngoingRelation::new(schema);
    for id in 0..rows {
        let s = Value::str(NAMES[rng.gen_range(0..NAMES.len())]);
        let vt = OngoingInterval::from_until_now(tp(rng.gen_range(0..50)));
        let values = vec![
            Value::Int(id),
            s,
            Value::Int(rng.gen_range(0..8)),
            Value::Interval(vt),
        ];
        let rt = match rng.gen_range(0..4) {
            0 => IntervalSet::full(),
            _ => {
                let lo: i64 = rng.gen_range(0..60);
                IntervalSet::range(tp(lo), tp(lo + rng.gen_range(1..30i64)))
            }
        };
        rel.insert_with_rt(values, rt).unwrap();
    }
    rel
}

/// Build positions by owned `(S, N)` key.
fn reference_index(build: &[Tuple]) -> HashMap<Vec<Value>, Vec<usize>> {
    let mut index: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
    for (i, t) in build.iter().enumerate() {
        index.entry(t.values()[1..3].to_vec()).or_default().push(i);
    }
    index
}

#[test]
fn hash_join_matches_an_owned_key_reference_in_both_modes_and_pools() {
    let mut rng = SmallRng::seed_from_u64(0x5eed_0038);
    let (l_rel, r_rel) = (relation(&mut rng, 2_000), relation(&mut rng, 400));
    let db = Database::new();
    db.create_table("L", l_rel.clone()).unwrap();
    db.create_table("R", r_rel.clone()).unwrap();
    let plan = QueryBuilder::scan_as(&db, "L", "L")
        .unwrap()
        .join(QueryBuilder::scan_as(&db, "R", "R").unwrap(), |s| {
            Ok(Expr::col(s, "L.S")?
                .eq(Expr::col(s, "R.S")?)
                .and(Expr::col(s, "L.N")?.eq(Expr::col(s, "R.N")?)))
        })
        .unwrap()
        .build();
    let cfg = PlannerConfig {
        join_strategy: JoinStrategy::Hash,
        ..PlannerConfig::default()
    };
    let phys = compile(&db, &plan, &cfg).unwrap();
    assert!(phys.explain().contains("HashJoin on"), "{}", phys.explain());

    let probe: Vec<Tuple> = l_rel.iter().cloned().collect();
    let build: Vec<Tuple> = r_rel.iter().cloned().collect();
    let index = reference_index(&build);
    let matches = |l: &Tuple| index.get(&l.values()[1..3]).map_or(&[][..], Vec::as_slice);

    // Ongoing: every key-equal pair is compared; those whose `RT`s meet
    // are kept, with the intersection as their `RT`.
    let mut expected = Vec::new();
    let mut pairs = 0u64;
    for l in &probe {
        for &ri in matches(l) {
            pairs += 1;
            let rt = l.rt().intersect(build[ri].rt());
            if !rt.is_empty() {
                expected.push(l.concat_with_rt(&build[ri], rt));
            }
        }
    }
    assert!(
        pairs > 10_000 && expected.len() < pairs as usize,
        "{pairs} pairs"
    );
    for pool in [1, 4] {
        let (got, stats) = phys.execute_with_stats(&ExecContext::new(pool)).unwrap();
        let want = OngoingRelation::from_tuples(got.schema().clone(), expected.clone()).unwrap();
        assert_eq!(got, want, "ongoing at pool {pool}");
        assert_eq!(stats.pairs_compared, pairs, "ongoing at pool {pool}");
    }

    // At `rt`: the pairs of rows alive there, bound, in probe order.
    for rt in [tp(5), tp(20), tp(45), tp(70)] {
        let alive = |t: &Tuple| t.rt().contains(rt);
        let row = |l: &Tuple, r: &Tuple| {
            l.values()
                .iter()
                .chain(r.values())
                .map(|v| v.bind(rt))
                .collect()
        };
        let mut expected: Vec<Vec<Value>> = Vec::new();
        for l in probe.iter().filter(|t| alive(t)) {
            for &ri in matches(l).iter().filter(|&&ri| alive(&build[ri])) {
                expected.push(row(l, &build[ri]));
            }
        }
        for pool in [1, 4] {
            let (got, _) = phys
                .rows_at_with_stats(rt, &ExecContext::new(pool))
                .unwrap();
            assert_eq!(got, expected, "at rt {rt} at pool {pool}");
        }
    }
}
