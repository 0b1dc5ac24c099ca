//! Resource-governance suite: the memory budget.
//!
//! This suite pins the contract of the engine's resource governor,
//! **out-of-core execution**: a durable table several times the chunk
//! cache's byte budget reopens *cold* (`tuples_loaded == 0` until first
//! access) and scans/joins with peak resident cache bytes at or below the
//! budget — producing results identical to an unbounded reopen of the
//! same directory. Paging is deterministic: identical serial passes leave
//! identical cache counters. Every engine reader and writer of a cold
//! table stays within the budget, and disk corruption on the way is an
//! error, not a panic.

use ongoing_core::time::tp;
use ongoing_core::OngoingInterval;
use ongoing_relation::aggregate::AggFn;
use ongoing_relation::{Expr, OngoingRelation, Schema, Tuple, Value};
use ongoingdb::engine::baseline::clifford;
use ongoingdb::engine::modify::Modifier;
use ongoingdb::engine::plan::{compile, JoinStrategy, PlannerConfig};
use ongoingdb::engine::storage::{DurableOptions, FaultFs, TempDir};
use ongoingdb::engine::{sql, Database, EngineError, LogicalPlan, MaterializedView, QueryBuilder};
use std::path::Path;
use std::sync::Arc;

const CHUNK: usize = ongoing_relation::TARGET_CHUNK_ROWS;

fn schema() -> Schema {
    Schema::builder().int("K").int("G").interval("VT").build()
}

fn big_rows(n: usize) -> Vec<Tuple> {
    (0..n as i64)
        .map(|k| {
            Tuple::base(vec![
                Value::Int(k),
                Value::Int(k % 7),
                Value::Interval(OngoingInterval::from_until_now(tp(k % 40))),
            ])
        })
        .collect()
}

/// Durable options with an explicit budget (ignoring the env override so
/// the test controls both sides of the comparison).
fn opts(memory_budget: u64) -> DurableOptions {
    DurableOptions {
        fsync: false,
        checkpoint_bytes: u64::MAX,
        memory_budget,
    }
}

/// Total and maximum chunk-file bytes under `<dir>/chunks`.
fn chunk_file_bytes(dir: &Path) -> (u64, u64) {
    let mut total = 0;
    let mut max = 0;
    for entry in std::fs::read_dir(dir.join("chunks")).expect("chunks dir") {
        let len = entry.unwrap().metadata().unwrap().len();
        total += len;
        max = max.max(len);
    }
    (total, max)
}

/// Reference time of the instantiated runs (inside the `VT` starts, so
/// the bound spans differ per row).
const RT: i64 = 20;

/// One query shape's answer in both modes: the ongoing result's tuples
/// and the rows instantiated at [`RT`].
type Answer = (Vec<Tuple>, Vec<Vec<Value>>);

/// The governed query shapes — a filtered scan of the big table, a
/// temporal `overlaps` filter over it, a bare projection of it, a hash join probing it with a small build side, a hash join whose
/// build side is a bare scan of it, its union with itself, its difference
/// with the small table and a grouped count — each run ongoing and
/// instantiated.
fn run_queries(db: &Database, parallelism: usize) -> Vec<(&'static str, Answer)> {
    let cfg = PlannerConfig {
        join_strategy: JoinStrategy::Hash,
        parallelism,
    };
    let run = |plan: LogicalPlan| -> Answer {
        let phys = compile(db, &plan, &cfg).unwrap();
        let ctx = cfg.exec_context();
        let (ongoing, _) = phys.execute_with_stats(&ctx).unwrap();
        let (rows, _) = phys.rows_at_with_stats(tp(RT), &ctx).unwrap();
        (ongoing.iter().cloned().collect(), rows)
    };
    let filter = QueryBuilder::scan(db, "T")
        .unwrap()
        .filter(|s| Ok(Expr::col(s, "G")?.eq(Expr::lit(3i64))))
        .unwrap()
        .build();
    let window = Value::Interval(OngoingInterval::fixed(tp(0), tp(5)));
    let overlaps = QueryBuilder::scan(db, "T")
        .unwrap()
        .filter(|s| Ok(Expr::col(s, "VT")?.overlaps(Expr::lit(window.clone()))))
        .unwrap()
        .build();
    let project = QueryBuilder::scan(db, "T")
        .unwrap()
        .project_cols(&["K", "G"])
        .unwrap()
        .build();
    let join = |probe: &str, build: &str| {
        let l = QueryBuilder::scan_as(db, probe, probe).unwrap();
        let r = QueryBuilder::scan_as(db, build, build).unwrap();
        l.join(r, |sch| {
            Ok(Expr::col(sch, "T.K")?.eq(Expr::col(sch, "S.K")?))
        })
        .unwrap()
        .build()
    };
    let scan = |name: &str| QueryBuilder::scan(db, name).unwrap();
    let union = scan("T").union(scan("T")).unwrap().build();
    let except = scan("T").difference(scan("S")).unwrap().build();
    let grouped = scan("T")
        .aggregate(&["G"], vec![AggFn::CountStar], vec!["N".into()])
        .unwrap()
        .build();
    vec![
        ("filter", run(filter)),
        ("overlaps filter", run(overlaps)),
        ("projection", run(project)),
        ("join probing T", run(join("T", "S"))),
        ("join building on T", run(join("S", "T"))),
        ("union", run(union)),
        ("except", run(except)),
        ("aggregate", run(grouped)),
    ]
}

/// Seeds `dir` with a 16-chunk table `T` plus a small join side `S`,
/// checkpointed into sealed chunk files, and returns a chunk-cache budget
/// a quarter of the table's on-disk bytes (≥ 4× out-of-core),
/// comfortably above the largest single chunk so every morsel fits.
fn seed_out_of_core(dir: &Path) -> u64 {
    {
        let db = Database::open_with(dir, opts(u64::MAX)).unwrap();
        db.create_table(
            "T",
            OngoingRelation::from_tuples(schema(), big_rows(16 * CHUNK)).unwrap(),
        )
        .unwrap();
        db.create_table(
            "S",
            OngoingRelation::from_tuples(schema(), big_rows(64)).unwrap(),
        )
        .unwrap();
        db.persist().unwrap();
    }
    let (total, max_file) = chunk_file_bytes(dir);
    let budget = (total / 4).max(2 * max_file);
    assert!(
        total >= 4 * budget,
        "seed table must be ≥ 4× the budget (total {total}, budget {budget})"
    );
    budget
}

#[test]
fn out_of_core_scan_and_join_match_unbounded_within_budget() {
    let dir = TempDir::new("govern-ooc");
    let budget = seed_out_of_core(dir.path());
    // Budgeted reopen: cold tables load zero tuples until first access,
    // queries stay within budget, eviction actually happens.
    let answers = {
        let db = Database::open_with(dir.path(), opts(budget)).unwrap();
        db.table("T").unwrap();
        db.table("S").unwrap();
        let stats = db.durable_stats().unwrap();
        assert_eq!(
            stats.tuples_loaded, 0,
            "budgeted open must materialize nothing"
        );

        // Two workers: parallel paging coverage while keeping worst-case
        // concurrent pins (one morsel per worker) well inside any budget
        // derived from the table size — peak ≤ budget must hold on
        // machines of any core count.
        let out = run_queries(&db, 2);
        let stats = db.durable_stats().unwrap();
        assert!(
            stats.cache_peak_bytes <= budget,
            "peak resident {} exceeded budget {budget}",
            stats.cache_peak_bytes
        );
        assert!(stats.cache_misses > 0, "scans must page chunks in");
        assert!(
            stats.cache_evictions > 0,
            "a 4×-budget scan must evict under pressure"
        );
        // No query parked a chunk on the published version: every
        // operator reads through transient pins.
        assert!(t_is_cold(&db), "the queries left T's chunks resident");
        out
    };

    // Unbounded reopen of the same directory: bit-identical results.
    let db = Database::open_with(dir.path(), opts(u64::MAX)).unwrap();
    let full = run_queries(&db, 2);
    assert_eq!(answers.len(), full.len());
    for ((name, got), (_, want)) in answers.iter().zip(&full) {
        assert_eq!(got.0, want.0, "budgeted ongoing {name} result diverged");
        assert_eq!(got.1, want.1, "budgeted at-rt {name} result diverged");
    }
    // (ongoing tuples, instantiated rows): the union coalesces identical
    // rows in both modes, so `T ∪ T` is `T` at `rt` too.
    let filtered = 16 * CHUNK / 7 + usize::from(16 * CHUNK % 7 > 3);
    // `VT = [k % 40, now)` overlaps [0, 5) iff it starts before 5.
    let windowed = (0..16 * CHUNK).filter(|k| k % 40 < 5).count();
    let expected = [
        (filtered, filtered),
        (windowed, windowed),
        (16 * CHUNK, 16 * CHUNK),
        (64, 64),
        (64, 64),
        (16 * CHUNK, 16 * CHUNK),
        (16 * CHUNK - 64, 16 * CHUNK - 64),
        (7, 7),
    ];
    for ((name, (ongoing, rows)), (n, m)) in answers.iter().zip(expected) {
        assert_eq!(ongoing.len(), n, "ongoing {name}");
        // Every tuple is alive at RT and no predicate reads VT.
        assert_eq!(rows.len(), m, "at-rt {name}");
    }
}

/// Paging is deterministic: two identical serial passes over a budgeted
/// reopen give the same answers and the same cache counters, and the
/// metrics registry reports exactly the counters `DurableStats` holds.
#[test]
fn budgeted_passes_leave_identical_cache_counters() {
    let dir = TempDir::new("govern-counters");
    let budget = seed_out_of_core(dir.path());
    let pass = || {
        let db = Database::open_with(dir.path(), opts(budget)).unwrap();
        let answers = run_queries(&db, 1);
        let s = db.durable_stats().unwrap();
        let counters = [
            ("ongoingdb_cache_hits", s.cache_hits),
            ("ongoingdb_cache_misses", s.cache_misses),
            ("ongoingdb_cache_evictions", s.cache_evictions),
            ("ongoingdb_cache_peak_bytes", s.cache_peak_bytes),
        ];
        let registry = db.metrics_snapshot();
        for (name, value) in counters {
            assert_eq!(registry.value(name), value, "registry disagrees on {name}");
        }
        (answers, counters)
    };
    let (answers, counters) = pass();
    assert!(counters[2].1 > 0, "a 4×-budget pass must evict");
    let (again, counters_again) = pass();
    assert_eq!(answers, again, "budgeted answers not reproducible");
    assert_eq!(
        counters, counters_again,
        "cache counters must be deterministic across identical passes"
    );
}

#[test]
fn analyze_of_a_cold_table_stays_within_budget_and_leaves_it_cold() {
    let dir = TempDir::new("govern-analyze");
    let budget = seed_out_of_core(dir.path());
    let db = Database::open_with(dir.path(), opts(budget)).unwrap();
    let stats = db.analyze("T").unwrap();
    let after = db.durable_stats().unwrap();
    assert!(
        after.cache_peak_bytes <= budget,
        "ANALYZE peak resident {} exceeded budget {budget}",
        after.cache_peak_bytes
    );
    // The published version holds no parked chunks: a later (serial)
    // scan still pages through the cache.
    let filter = QueryBuilder::scan(&db, "T")
        .unwrap()
        .filter(|s| Ok(Expr::col(s, "G")?.eq(Expr::lit(3i64))))
        .unwrap()
        .build();
    let serial = PlannerConfig {
        parallelism: 1,
        ..PlannerConfig::default()
    };
    compile(&db, &filter, &serial)
        .unwrap()
        .execute_with_stats(&serial.exec_context())
        .unwrap();
    let scanned = db.durable_stats().unwrap();
    assert!(
        scanned.cache_misses > after.cache_misses,
        "a scan after ANALYZE paged nothing in: the table was parked"
    );
    assert!(scanned.cache_peak_bytes <= budget);
    // Statistics equal those of an unbounded open.
    let full = Database::open_with(dir.path(), opts(u64::MAX)).unwrap();
    let want = full.analyze("T").unwrap();
    assert_eq!(format!("{stats:?}"), format!("{want:?}"));
    assert_eq!(stats.rows, (16 * CHUNK) as u64);
}

/// `rel`'s rows read one transient chunk pin at a time, so reading them
/// leaves a cold relation cold.
fn pinned_rows(rel: &OngoingRelation) -> Vec<Tuple> {
    let mut rows = Vec::new();
    for view in rel.lazy_views() {
        rows.extend(view.pin().unwrap().iter().cloned());
    }
    rows
}

/// Is every chunk of the published `T` cold?
fn t_is_cold(db: &Database) -> bool {
    let t = db.table("T").unwrap();
    let views = t.data().lazy_views();
    views.len() == 16 && views.iter().all(|v| !v.is_resident())
}

#[test]
fn unkeyed_modifications_of_a_cold_table_stay_within_budget_and_leave_it_cold() {
    // Two identical seeds: one edited under the budget, one unbounded.
    let (cold_dir, full_dir) = (
        TempDir::new("govern-modify"),
        TempDir::new("govern-modify-full"),
    );
    let budget = seed_out_of_core(cold_dir.path());
    assert_eq!(seed_out_of_core(full_dir.path()), budget);
    let col_eq = |col: usize, v: i64| Expr::Col(col).eq(Expr::lit(v));
    // No key index on `T`, so both edits qualify by a full scan. A
    // one-row terminate, then every `G = 3` row terminated at 0, which
    // empties their valid time: tombstones, too few per chunk to fold.
    let edit = |db: &Database| {
        for (pred, at) in [(col_eq(0, 3), 30), (col_eq(1, 3), 0)] {
            db.modify_table("T", |rel| {
                Modifier::new(rel, "VT")?.terminate(&pred, tp(at))
            })
            .unwrap();
        }
    };
    let db = Database::open_with(cold_dir.path(), opts(budget)).unwrap();
    edit(&db);
    let stats = db.durable_stats().unwrap();
    assert!(
        stats.cache_peak_bytes <= budget,
        "modification peak resident {} exceeded budget {budget}",
        stats.cache_peak_bytes
    );
    assert!(t_is_cold(&db), "the modifications left T's chunks resident");
    let full = Database::open_with(full_dir.path(), opts(u64::MAX)).unwrap();
    edit(&full);
    let want = pinned_rows(full.table("T").unwrap().data());
    assert_eq!(
        want.len(),
        16 * CHUNK - (0..16 * CHUNK).filter(|k| k % 7 == 3).count()
    );
    assert_eq!(pinned_rows(db.table("T").unwrap().data()), want);
}

#[test]
fn engine_readers_of_a_cold_table_stay_within_budget_and_leave_it_cold() {
    let dir = TempDir::new("govern-readers");
    let budget = seed_out_of_core(dir.path());
    // A bare scan's result is a fork of `T`; filling the result cache,
    // serving the hit, instantiating a bare-scan view and finding
    // `Cliff_max` each read every row of it (or of `T` itself).
    let read = |memory_budget: u64| {
        let mut db = Database::open_with(dir.path(), opts(memory_budget)).unwrap();
        db.configure_result_cache(64 << 20);
        let hits = || {
            db.metrics_snapshot()
                .value(ongoingdb::engine::exec::RESULT_CACHE_HITS_METRIC)
        };
        let scanned = sql::query(&db, "SELECT * FROM T").unwrap();
        let hits0 = hits();
        let cached = sql::query(&db, "SELECT * FROM T").unwrap();
        assert_eq!(hits(), hits0 + 1, "the second scan must hit the cache");
        let plan = QueryBuilder::scan(&db, "T").unwrap().build();
        let view = MaterializedView::create(&db, "v", plan, PlannerConfig::default()).unwrap();
        let snapshot = view.instantiate(tp(RT)).unwrap();
        let cliff_max = clifford::cliff_max_reference_time(&db).unwrap();
        let stats = db.durable_stats().unwrap();
        let rows = pinned_rows(&scanned);
        assert_eq!(pinned_rows(&cached), rows);
        (
            stats.cache_peak_bytes,
            t_is_cold(&db),
            (rows, snapshot, cliff_max),
        )
    };
    let (peak, cold, answers) = read(budget);
    assert!(
        peak <= budget,
        "peak resident {peak} exceeded budget {budget}"
    );
    assert!(cold, "the readers left T's chunks resident");
    let (_, _, want) = read(u64::MAX);
    assert_eq!(answers.0.len(), 16 * CHUNK);
    assert_eq!(answers, want, "budgeted readers diverged from unbounded");
}

#[test]
fn keyed_read_of_a_cold_table_scans_within_budget_and_leaves_it_cold() {
    // A key index on `T.K`, persisted; a budgeted reopen pages `T` in
    // cold, and cold chunks carry no key maps, so the keyed path is not
    // available and the read must plan a scan instead of failing.
    let dir = TempDir::new("govern-keyed-read");
    let budget = seed_out_of_core(dir.path());
    {
        let db = Database::open_with(dir.path(), opts(u64::MAX)).unwrap();
        db.create_key_index("T", "K").unwrap();
        db.persist().unwrap();
    }
    let text = "SELECT K, G FROM T WHERE K = 5";
    let read = |memory_budget: u64| {
        let db = Database::open_with(dir.path(), opts(memory_budget)).unwrap();
        let ongoing = pinned_rows(&sql::query(&db, text).unwrap());
        let plan = sql::plan_query(&db, text).unwrap();
        let at = ongoingdb::engine::execute_at(&db, &plan, tp(RT)).unwrap();
        let explain = match sql::run_statement(&db, &format!("EXPLAIN {text}")).unwrap() {
            sql::StatementResult::Explained(text) => text,
            other => panic!("EXPLAIN returned {other:?}"),
        };
        (db, (ongoing, at), explain)
    };
    let (db, answer, explain) = read(budget);
    assert!(
        explain.contains("Filter") && explain.contains("SeqScan") && !explain.contains("KeyScan"),
        "a cold T must be read by a scan:\n{explain}"
    );
    assert!(t_is_cold(&db), "the keyed read left T's chunks resident");
    let peak = db.durable_stats().unwrap().cache_peak_bytes;
    assert!(
        peak <= budget,
        "peak resident {peak} exceeded budget {budget}"
    );
    let (_, want, resident_explain) = read(u64::MAX);
    assert!(
        resident_explain.contains("KeyScan"),
        "a resident T must use its key index:\n{resident_explain}"
    );
    assert_eq!(want.0.len(), 1);
    assert_eq!(answer, want, "the cold read diverged from the resident one");
    // A keyed modification of the same cold table still commits.
    let n = db
        .modify_table("T", |rel| {
            Modifier::new(rel, "VT")?.terminate(&Expr::Col(0).eq(Expr::lit(5i64)), tp(30))
        })
        .unwrap();
    assert_eq!(n, 1);
}

#[test]
fn disk_corruption_on_the_write_path_is_an_error_not_a_panic() {
    let dir = TempDir::new("govern-corrupt");
    let budget = seed_out_of_core(dir.path());
    // Damage every chunk file (T's sixteen and S's one) behind the open.
    for entry in std::fs::read_dir(dir.path().join("chunks")).unwrap() {
        FaultFs::flip_byte(&entry.unwrap().path(), 21).unwrap();
    }
    let db = Database::open_with(dir.path(), opts(budget)).unwrap();
    let before = db.table("T").unwrap();
    // A key-index build pages every chunk in; an unkeyed modification
    // scans them. Both must surface the damage as an error.
    let index = db
        .create_key_index("T", "K")
        .expect_err("a key index over corrupt chunks must fail");
    let modify = db
        .modify_table("T", |rel| {
            Modifier::new(rel, "VT")?.terminate(&Expr::Col(0).eq(Expr::lit(3i64)), tp(30))
        })
        .expect_err("a scan over corrupt chunks must fail");
    assert!(matches!(index, EngineError::Io(_)), "{index:?}");
    assert_eq!(modify, index);
    // The published version is the one the open produced, still cold.
    let after = db.table("T").unwrap();
    assert!(Arc::ptr_eq(&before, &after), "a failed write published");
    assert!(after.data().key_indexed_columns().is_empty());
    assert!(after.data().lazy_views().iter().all(|v| !v.is_resident()));
    // A later scan reports the same error.
    let filter = QueryBuilder::scan(&db, "T")
        .unwrap()
        .filter(|s| Ok(Expr::col(s, "G")?.eq(Expr::lit(3i64))))
        .unwrap()
        .build();
    let serial = PlannerConfig {
        parallelism: 1,
        ..PlannerConfig::default()
    };
    let err = compile(&db, &filter, &serial)
        .unwrap()
        .execute_with_stats(&serial.exec_context())
        .expect_err("a scan over corrupt chunks must fail");
    assert_eq!(err, index);
    // So do the engine's whole-relation readers, and a bare scan (a fork
    // of `T`) is returned uncached rather than measured into a panic.
    let cliff_max = clifford::cliff_max_reference_time(&db).expect_err("Cliff_max reads T");
    assert!(matches!(cliff_max, EngineError::Io(_)), "{cliff_max:?}");
    let scanned = sql::query(&db, "SELECT * FROM T").unwrap();
    assert_eq!(scanned.len(), 16 * CHUNK);
    assert!(db.result_cache().is_empty());
}
