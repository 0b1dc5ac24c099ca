//! `repro_readcache`: heavy read traffic over the versioned result cache.
//!
//! The paper's core property — an ongoing query result stays valid as time
//! passes by — makes executed results cacheable with *free* invalidation:
//! an entry is keyed by the exact table versions (`Arc` identities) the
//! plan read, and a publication swaps those `Arc`s, so stale entries
//! simply stop matching. This repro drives a hot read workload and
//! asserts the three claims that make the cache shippable:
//!
//! 1. **Hot reads hit.** A fixed query set replayed over unchanged tables
//!    reaches a ≥ 90% cache hit rate, and every hit is bit-identical —
//!    relation and deterministic work-unit stats — to a direct execution,
//!    at pool sizes 1 and 4.
//! 2. **The budget holds.** Peak estimated resident bytes never exceed
//!    the configured budget; overflowing it evicts (GDSF) instead.
//! 3. **Publications invalidate.** After a table publication the same
//!    statements miss, recompute against the new version, and observe the
//!    new rows; re-reads hit again.

use ongoing_core::date::md;
use ongoing_core::OngoingInterval;
use ongoing_engine::exec::{
    RESULT_CACHE_BYTES_METRIC, RESULT_CACHE_EVICTIONS_METRIC, RESULT_CACHE_HITS_METRIC,
    RESULT_CACHE_MISSES_METRIC,
};
use ongoing_engine::sql::{plan_query, prepare};
use ongoing_engine::{Database, EngineError, PlannerConfig};
use ongoing_relation::{OngoingRelation, Schema, Value};

const BUDGET: u64 = 1024 * 1024;
/// Small enough for roughly two point-read results, so a sweep of sixteen
/// distinct keys must evict; large enough that entries do fit (oversized
/// results are simply not cached).
const TINY_BUDGET: u64 = 32 * 1024;
const ROUNDS: usize = 25;
const MIN_HIT_RATE: f64 = 0.90;

/// A deterministic (K: Int, C: Str, VT: OngoingInterval) relation with a
/// keyed qualification index on `K`, compacted into dense chunks.
fn seeded(rows: usize) -> OngoingRelation {
    let schema = Schema::builder().int("K").str("C").interval("VT").build();
    let mut r = OngoingRelation::new(schema);
    for i in 0..rows {
        let m = 1 + (i % 6) as u8;
        let d = 1 + (i % 27) as u8;
        let vt = if i % 3 == 0 {
            OngoingInterval::from_until_now(md(m, d))
        } else {
            OngoingInterval::fixed(md(m, d), md(m + 4, d))
        };
        r.insert(vec![
            Value::Int((i % 16) as i64),
            Value::str(["x", "y", "z"][i % 3]),
            Value::Interval(vt),
        ])
        .unwrap();
    }
    r.create_key_index::<EngineError>(0).unwrap();
    r.compact().unwrap();
    r
}

fn read_db(budget: u64) -> Database {
    let mut db = Database::new();
    db.configure_result_cache(budget);
    db.create_table("Big", seeded(2_000)).unwrap();
    db.create_table("Small", seeded(60)).unwrap();
    db
}

/// The hot query set: keyed point reads, a temporal range, and an
/// equi-join against the key-indexed table.
const QUERIES: &[&str] = &[
    "SELECT K, C FROM Big WHERE K = 7",
    "SELECT K, VT FROM Big WHERE K = 11 AND C = 'x'",
    "SELECT K FROM Big WHERE VT OVERLAPS PERIOD(DATE '2019-03-01', DATE '2019-06-01')",
    "SELECT Small.K, Big.C FROM Small JOIN Big ON Small.K = Big.K AND Small.C = 'y'",
];

fn counter(db: &Database, name: &str) -> u64 {
    db.metrics_snapshot().value(name)
}

/// Claims 1 and 2 at one pool size: hot replay hits, every answer is
/// bit-identical to direct execution, peak bytes stay within the budget.
fn hot_read_phase(parallelism: usize) -> Database {
    let db = read_db(BUDGET);
    let cfg = PlannerConfig {
        parallelism,
        ..PlannerConfig::default()
    };
    let stmts: Vec<_> = QUERIES.iter().map(|q| prepare(&db, q).unwrap()).collect();
    // Uncached references, computed outside the cache seam.
    let refs: Vec<_> = QUERIES
        .iter()
        .map(|q| {
            ongoing_engine::plan::compile(&db, &plan_query(&db, q).unwrap(), &cfg)
                .unwrap()
                .execute_with_stats(&cfg.exec_context())
                .unwrap()
        })
        .collect();
    let mut peak = 0u64;
    for round in 0..ROUNDS {
        for (i, stmt) in stmts.iter().enumerate() {
            let (rel, stats) = stmt.execute_with(&db, &cfg).unwrap();
            assert_eq!(
                rel, refs[i].0,
                "pool {parallelism}, round {round}, query {i}: result diverged"
            );
            assert_eq!(
                stats, refs[i].1,
                "pool {parallelism}, round {round}, query {i}: stats diverged"
            );
            peak = peak.max(db.result_cache().resident_bytes());
        }
    }
    let hits = counter(&db, RESULT_CACHE_HITS_METRIC);
    let misses = counter(&db, RESULT_CACHE_MISSES_METRIC);
    let rate = hits as f64 / (hits + misses) as f64;
    println!(
        "pool {parallelism}: {hits} hits / {misses} misses over {ROUNDS} rounds \
         (hit rate {:.1}%), peak {peak} B of {BUDGET} B budget",
        rate * 100.0
    );
    assert!(
        rate >= MIN_HIT_RATE,
        "hot-read hit rate {rate:.3} below {MIN_HIT_RATE}"
    );
    assert!(
        peak <= BUDGET,
        "peak {peak} B exceeded the {BUDGET} B budget"
    );
    assert!(peak > 0, "nothing was ever resident");
    db
}

/// Claim 3: a publication makes the same statements miss, recompute, and
/// see the new rows; the refreshed entries serve hits again.
fn invalidation_phase(db: &Database) {
    let stmt = prepare(db, "SELECT K, C FROM Big WHERE K = 7").unwrap();
    let before = stmt.execute(db).unwrap().len();
    let misses0 = counter(db, RESULT_CACHE_MISSES_METRIC);
    db.modify_table("Big", |r| {
        r.insert(vec![
            Value::Int(7),
            Value::str("published"),
            Value::Interval(OngoingInterval::from_until_now(md(7, 1))),
        ])?;
        Ok(())
    })
    .unwrap();
    let after = stmt.execute(db).unwrap();
    assert_eq!(
        after.len(),
        before + 1,
        "publication was not observed — stale cache hit"
    );
    assert!(
        counter(db, RESULT_CACHE_MISSES_METRIC) > misses0,
        "publication must force a miss"
    );
    let hits0 = counter(db, RESULT_CACHE_HITS_METRIC);
    assert_eq!(stmt.execute(db).unwrap(), after);
    assert_eq!(
        counter(db, RESULT_CACHE_HITS_METRIC),
        hits0 + 1,
        "refreshed entry must hit again"
    );
    println!("publication: invalidated by version identity, refreshed entry hits again");
}

/// Budget pressure: a tiny budget forces GDSF evictions while the resident
/// estimate never exceeds it.
fn eviction_phase() {
    let db = read_db(TINY_BUDGET);
    for k in 0..16 {
        let sql = format!("SELECT K, C FROM Big WHERE K = {k}");
        prepare(&db, &sql).unwrap().execute(&db).unwrap();
        assert!(
            db.result_cache().resident_bytes() <= TINY_BUDGET,
            "resident bytes exceeded the tiny budget"
        );
    }
    let evictions = counter(&db, RESULT_CACHE_EVICTIONS_METRIC);
    assert!(evictions > 0, "16 point reads in 32 KiB must evict");
    println!(
        "tiny budget: {evictions} GDSF evictions, resident {} B ≤ {TINY_BUDGET} B",
        db.result_cache().resident_bytes()
    );
}

fn main() {
    println!("repro_readcache: versioned result cache under heavy read traffic\n");
    let mut last = None;
    for pool in [1usize, 4] {
        last = Some(hot_read_phase(pool));
    }
    let db = last.expect("at least one pool size ran");
    invalidation_phase(&db);
    eviction_phase();

    let text = db.metrics_text();
    for name in [
        RESULT_CACHE_HITS_METRIC,
        RESULT_CACHE_MISSES_METRIC,
        RESULT_CACHE_EVICTIONS_METRIC,
        RESULT_CACHE_BYTES_METRIC,
    ] {
        assert!(text.contains(name), "metrics exposition lost `{name}`");
    }
    println!("\n{text}");
    println!("ok: hot reads hit, budget held, publications invalidate by version identity.");
}
