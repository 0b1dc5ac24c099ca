//! Versioned result cache suite (PR 10).
//!
//! Pinned contracts:
//!
//! 1. **Hits are bit-identical to execution.** A cached answer — the
//!    relation *and* the deterministic work-unit stats — equals what the
//!    executor produces, at every pool size. The cache may change wall
//!    time, never results or recorded metrics. A hot read set replayed
//!    over unchanged tables misses once per statement, then always hits.
//! 2. **Publications invalidate for free.** A table publication swaps the
//!    table `Arc`; the very next lookup misses (version identity), with no
//!    invalidation registry anywhere.
//! 3. **The budget holds.** Estimated resident bytes never exceed the
//!    configured budget; overflow evicts by GDSF rank and counts
//!    `ongoingdb_result_cache_evictions`.
//! 4. **Traced runs bypass the cache.** `EXPLAIN ANALYZE` shares the one
//!    execution seam with cached queries, yet always executes for real
//!    and neither reads nor fills the cache.
//! 5. **Keyed read paths are transparent.** `KeyScan` (candidates from the
//!    store's per-chunk `KeyMap`s) returns exactly what the unindexed plan
//!    returns, ongoing and instantiated; a hash join over a key-indexed
//!    build table hashes its build like any other.

use ongoing_core::time::tp;
use ongoing_core::OngoingInterval;
use ongoing_relation::{OngoingRelation, Schema, Value};
use ongoingdb::engine::exec::{
    RESULT_CACHE_BYTES_METRIC, RESULT_CACHE_EVICTIONS_METRIC, RESULT_CACHE_HITS_METRIC,
    RESULT_CACHE_MISSES_METRIC,
};
use ongoingdb::engine::plan::compile;
use ongoingdb::engine::sql::{explain_analyze, plan_query, prepare, query, run_statement};
use ongoingdb::engine::{Database, EngineError, MaterializedView, PlannerConfig, RefreshOutcome};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// `rows` bugs over (K: Int, C: Str, VT: OngoingInterval), deterministic.
fn bug_relation(rows: usize, indexed: bool) -> OngoingRelation {
    let schema = Schema::builder().int("K").str("C").interval("VT").build();
    let mut r = OngoingRelation::new(schema);
    for i in 0..rows as i64 {
        let iv = if i % 3 == 0 {
            OngoingInterval::from_until_now(tp(i % 40))
        } else {
            OngoingInterval::fixed(tp(i % 40), tp(i % 40 + 5 + i % 7))
        };
        r.insert(vec![
            Value::Int(i % 23),
            Value::str(["x", "y", "z"][(i % 3) as usize]),
            Value::Interval(iv),
        ])
        .unwrap();
    }
    if indexed {
        r.create_key_index::<EngineError>(0).unwrap();
    }
    // Dense chunks, empty pending tail: the KeyScan gate measures an
    // overlay-free store, and chunk boundaries are stable across runs.
    r.compact().unwrap();
    r
}

fn fixture(indexed: bool) -> Database {
    let db = Database::new();
    db.create_table("T", bug_relation(600, indexed)).unwrap();
    db.create_table("S", bug_relation(60, false)).unwrap();
    db
}

fn counter(db: &Database, name: &str) -> u64 {
    db.metrics_snapshot().value(name)
}

/// A hot read set — keyed point reads, a temporal range and an equi-join
/// against the key-indexed table — replayed over unchanged tables: each
/// statement misses once and then always hits (a 24 / 25 hit rate), every
/// answer equals a direct execution, and the resident bytes never exceed
/// the budget.
#[test]
fn repeated_execution_hits_the_cache_with_identical_results() {
    const BUDGET: u64 = 1 << 20;
    const ROUNDS: u64 = 25;
    const HOT: &[&str] = &[
        "SELECT K, VT FROM T WHERE K = 7",
        "SELECT K, VT FROM T WHERE K = 11 AND C = 'x'",
        "SELECT K FROM T WHERE VT OVERLAPS PERIOD(DATE '2019-01-10', DATE '2019-02-01')",
        "SELECT S.K, T.C FROM S JOIN T ON S.K = T.K AND S.C = 'y'",
    ];
    for parallelism in [1usize, 4] {
        let mut db = fixture(true);
        db.configure_result_cache(BUDGET);
        let cfg = PlannerConfig {
            parallelism,
            ..PlannerConfig::default()
        };
        // Uncached references: compile and execute directly, no cache seam.
        let direct: Vec<_> = HOT
            .iter()
            .map(|sql| {
                compile(&db, &plan_query(&db, sql).unwrap(), &cfg)
                    .unwrap()
                    .execute_with_stats(&cfg.exec_context())
                    .unwrap()
            })
            .collect();
        assert!(direct.iter().all(|(rel, _)| !rel.is_empty()));

        let stmts: Vec<_> = HOT.iter().map(|sql| prepare(&db, sql).unwrap()).collect();
        let hits0 = counter(&db, RESULT_CACHE_HITS_METRIC);
        let misses0 = counter(&db, RESULT_CACHE_MISSES_METRIC);
        let mut peak = 0;
        for round in 0..ROUNDS {
            for ((stmt, want), sql) in stmts.iter().zip(&direct).zip(HOT) {
                let got = stmt.execute_with(&db, &cfg).unwrap();
                assert_eq!(&got, want, "pool {parallelism}, round {round}: {sql}");
                peak = peak.max(db.result_cache().resident_bytes());
            }
        }
        let n = HOT.len() as u64;
        assert_eq!(counter(&db, RESULT_CACHE_MISSES_METRIC), misses0 + n);
        assert_eq!(
            counter(&db, RESULT_CACHE_HITS_METRIC),
            hits0 + n * (ROUNDS - 1)
        );
        assert!(peak > 0, "nothing was ever resident");
        assert!(
            peak <= BUDGET,
            "peak {peak} B exceeded the {BUDGET} B budget"
        );
    }
}

#[test]
fn explain_analyze_of_a_cached_query_executes_and_leaves_the_cache_alone() {
    let db = fixture(false);
    let sql = "SELECT K, VT FROM T WHERE K = 7";
    let cfg = PlannerConfig::default();
    // Untraced reference: the executor's own counters.
    let phys = compile(&db, &plan_query(&db, sql).unwrap(), &cfg).unwrap();
    let (_, want) = phys.execute_with_stats(&cfg.exec_context()).unwrap();
    // The cache holds the query: a repeat is a hit.
    query(&db, sql).unwrap();
    let hits = counter(&db, RESULT_CACHE_HITS_METRIC);
    query(&db, sql).unwrap();
    assert_eq!(counter(&db, RESULT_CACHE_HITS_METRIC), hits + 1);

    let hits = counter(&db, RESULT_CACHE_HITS_METRIC);
    let misses = counter(&db, RESULT_CACHE_MISSES_METRIC);
    let entries = db.result_cache().len();
    assert!(entries > 0);
    let report = explain_analyze(&db, sql, &cfg).unwrap();
    // It executed for real: the root span carries the untraced run's work.
    assert_eq!(report.root.total_work, want);
    assert_eq!(report.stats, want);
    assert!(report.root.total_work.tuples_scanned > 0);
    // It neither probed nor filled the cache.
    assert_eq!(counter(&db, RESULT_CACHE_HITS_METRIC), hits);
    assert_eq!(counter(&db, RESULT_CACHE_MISSES_METRIC), misses);
    assert_eq!(db.result_cache().len(), entries);
    // The next query of the same text is still a hit.
    query(&db, sql).unwrap();
    assert_eq!(counter(&db, RESULT_CACHE_HITS_METRIC), hits + 1);
}

#[test]
fn publication_invalidates_and_the_next_read_sees_new_data() {
    let db = fixture(true);
    let sql = "SELECT K, C FROM T WHERE K = 7";
    let stmt = prepare(&db, sql).unwrap();
    let before = stmt.execute(&db).unwrap().len();
    stmt.execute(&db).unwrap(); // hit
    let hits = counter(&db, RESULT_CACHE_HITS_METRIC);
    let misses = counter(&db, RESULT_CACHE_MISSES_METRIC);
    // Publish: the table Arc swaps, so the cached entry is stale.
    db.modify_table("T", |r| {
        r.insert(vec![
            Value::Int(7),
            Value::str("fresh"),
            Value::Interval(OngoingInterval::from_until_now(tp(1))),
        ])?;
        Ok(())
    })
    .unwrap();
    let after = stmt.execute(&db).unwrap();
    assert_eq!(
        after.len(),
        before + 1,
        "stale hit served after publication"
    );
    assert!(after.iter().any(|t| t.value(1).as_str() == Some("fresh")));
    assert_eq!(counter(&db, RESULT_CACHE_MISSES_METRIC), misses + 1);
    // The refreshed entry serves hits again.
    stmt.execute(&db).unwrap();
    assert_eq!(counter(&db, RESULT_CACHE_HITS_METRIC), hits + 1);
}

#[test]
fn budget_is_respected_and_overflow_evicts() {
    let mut db = Database::new();
    db.configure_result_cache(4096);
    db.create_table("T", bug_relation(600, true)).unwrap();
    db.create_table("S", bug_relation(60, false)).unwrap();
    // Distinct point queries, each with a small result, until the budget
    // cannot hold them all.
    let budget = db.result_cache().budget();
    assert!(budget == 4096);
    for k in 0..12 {
        run_statement(&db, &format!("SELECT K, C FROM T WHERE K = {k}")).unwrap();
        assert!(
            db.result_cache().resident_bytes() <= budget,
            "resident {} exceeds budget {budget}",
            db.result_cache().resident_bytes()
        );
    }
    assert_eq!(
        counter(&db, RESULT_CACHE_BYTES_METRIC),
        db.result_cache().resident_bytes()
    );
    assert!(
        counter(&db, RESULT_CACHE_EVICTIONS_METRIC) > 0,
        "12 entries in 4 KiB must evict"
    );
    // Whatever survived still answers correctly.
    let r = query(&db, "SELECT K, C FROM T WHERE K = 11").unwrap();
    assert!(r.iter().all(|t| t.value(0) == &Value::Int(11)));
}

#[test]
fn zero_budget_disables_the_cache_without_changing_results() {
    let mut db = Database::new();
    db.configure_result_cache(0);
    db.create_table("T", bug_relation(600, true)).unwrap();
    let a = query(&db, "SELECT K FROM T WHERE K = 3").unwrap();
    let b = query(&db, "SELECT K FROM T WHERE K = 3").unwrap();
    assert_eq!(a, b);
    assert_eq!(counter(&db, RESULT_CACHE_HITS_METRIC), 0);
    assert_eq!(counter(&db, RESULT_CACHE_MISSES_METRIC), 0);
}

#[test]
fn keyed_read_paths_match_the_unindexed_plans() {
    let indexed = fixture(true);
    let plain = fixture(false);
    let cases = [
        "SELECT K, C, VT FROM T WHERE K = 7",
        "SELECT K, C, VT FROM T WHERE K = 7 AND C = 'x'",
        "SELECT K, C, VT FROM T WHERE K >= 5 AND 8 > K AND C != 'y'",
        "SELECT S.K, T.C FROM S JOIN T ON S.K = T.K",
    ];
    for (i, sql) in cases.iter().enumerate() {
        for parallelism in [1usize, 4] {
            let cfg = PlannerConfig {
                parallelism,
                ..PlannerConfig::default()
            };
            let pi = compile(&indexed, &plan_query(&indexed, sql).unwrap(), &cfg).unwrap();
            let pp = compile(&plain, &plan_query(&plain, sql).unwrap(), &cfg).unwrap();
            if i < 3 {
                assert!(
                    pi.explain().contains("KeyScan"),
                    "case {i} should lower to a KeyScan:\n{}",
                    pi.explain()
                );
                assert_eq!(pi.explain().contains(" in ("), i == 2, "range probe");
            } else {
                assert!(
                    pi.explain().contains("HashJoin"),
                    "case {i} should lower to a HashJoin:\n{}",
                    pi.explain()
                );
            }
            assert!(!pp.explain().contains("KeyScan"));
            let (ri, _si) = pi.execute_with_stats(&cfg.exec_context()).unwrap();
            let (rp, _sp) = pp.execute_with_stats(&cfg.exec_context()).unwrap();
            assert_eq!(ri, rp, "case {i}, pool {parallelism}: ongoing diverged");
            for rt in [tp(-5), tp(0), tp(20), tp(60)] {
                let (rows_i, _) = pi.rows_at_with_stats(rt, &cfg.exec_context()).unwrap();
                let (rows_p, _) = pp.rows_at_with_stats(rt, &cfg.exec_context()).unwrap();
                assert_eq!(
                    rows_i, rows_p,
                    "case {i}, pool {parallelism}, rt {rt}: instantiated diverged"
                );
            }
        }
    }
}

#[test]
fn materialized_views_ride_the_cache_and_skip_clean_refreshes() {
    let db = fixture(true);
    let plan = plan_query(&db, "SELECT K, VT FROM T WHERE K = 7").unwrap();
    let misses0 = counter(&db, RESULT_CACHE_MISSES_METRIC);
    let view = MaterializedView::create(&db, "v", plan.clone(), PlannerConfig::default()).unwrap();
    // Re-creating the same view over unchanged versions is a cache hit.
    let hits0 = counter(&db, RESULT_CACHE_HITS_METRIC);
    let again = MaterializedView::create(&db, "v2", plan, PlannerConfig::default()).unwrap();
    assert_eq!(view.result(), again.result());
    assert_eq!(counter(&db, RESULT_CACHE_HITS_METRIC), hits0 + 1);
    assert_eq!(counter(&db, RESULT_CACHE_MISSES_METRIC), misses0 + 1);
    // A clean refresh does not even consult the cache: O(#tables) no-op.
    let mut view = view;
    let lookups = counter(&db, RESULT_CACHE_HITS_METRIC) + counter(&db, RESULT_CACHE_MISSES_METRIC);
    assert_eq!(view.refresh(&db).unwrap(), RefreshOutcome::Unchanged);
    assert_eq!(
        counter(&db, RESULT_CACHE_HITS_METRIC) + counter(&db, RESULT_CACHE_MISSES_METRIC),
        lookups
    );
    // After a publication the refresh recomputes and sees the new row.
    let before = view.len();
    db.modify_table("T", |r| {
        r.insert(vec![
            Value::Int(7),
            Value::str("new"),
            Value::Interval(OngoingInterval::from_until_now(tp(2))),
        ])?;
        Ok(())
    })
    .unwrap();
    assert_eq!(view.refresh(&db).unwrap(), RefreshOutcome::Recomputed);
    assert_eq!(view.len(), before + 1);
}

/// Randomized sweep: random predicates over the fixture tables, each run
/// uncached (direct execution) and through the cache seam twice, at pool
/// sizes 1 and 4 — results and work stats must agree everywhere.
#[test]
fn fuzz_cached_execution_is_bit_identical_at_every_pool_size() {
    let mut rng = SmallRng::seed_from_u64(20260808);
    let db = fixture(true);
    for trial in 0..10 {
        let k = rng.gen_range(0..23i64);
        let c = ["x", "y", "z"][rng.gen_range(0..3usize)];
        let sql = match rng.gen_range(0..4) {
            0 => format!("SELECT K, C, VT FROM T WHERE K = {k}"),
            1 => format!("SELECT K, VT FROM T WHERE K = {k} AND C = '{c}'"),
            2 => format!(
                "SELECT K, C FROM T WHERE VT OVERLAPS PERIOD(DATE '2019-01-{:02}', DATE '2019-02-01')",
                rng.gen_range(1..28)
            ),
            _ => format!("SELECT S.K, T.C FROM S JOIN T ON S.K = T.K AND S.C = '{c}'"),
        };
        let stmt = prepare(&db, &sql).unwrap();
        for parallelism in [1usize, 4] {
            let cfg = PlannerConfig {
                parallelism,
                ..PlannerConfig::default()
            };
            let phys = compile(&db, &plan_query(&db, &sql).unwrap(), &cfg).unwrap();
            let (reference, ref_stats) = phys.execute_with_stats(&cfg.exec_context()).unwrap();
            for round in 0..2 {
                let (rel, stats) = stmt.execute_with(&db, &cfg).unwrap();
                assert_eq!(
                    rel, reference,
                    "trial {trial} pool {parallelism} round {round}: {sql}"
                );
                assert_eq!(
                    stats, ref_stats,
                    "trial {trial} pool {parallelism} round {round}: {sql}"
                );
            }
        }
    }
    assert!(counter(&db, RESULT_CACHE_HITS_METRIC) > 0);
}
