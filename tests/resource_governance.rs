//! Resource-governance suite: memory budget, deadlines, cancellation.
//!
//! PR 7 gave the engine three governors; this suite pins their contracts:
//!
//! 1. **Out-of-core execution.** A durable table several times the chunk
//!    cache's byte budget reopens *cold* (`tuples_loaded == 0` until first
//!    access) and scans/joins with peak resident cache bytes at or below
//!    the budget — producing results identical to an unbounded reopen of
//!    the same directory.
//! 2. **Deadlines & cancellation are cooperative and clean.** An expired
//!    deadline or a cancelled [`QueryControl`] surfaces within one morsel
//!    as a typed error ([`EngineError::DeadlineExceeded`] /
//!    [`EngineError::Cancelled`]) — never a panic — and the store stays
//!    fully usable afterwards.
//! 3. **Write deadlines never tear.** `RetryPolicy::timeout` bounds a
//!    perpetually conflicting `modify_table` (including backoff sleeps and
//!    writer-queue waits); expiry means *not applied*, and a timed-out
//!    queued writer's abandoned ticket never stalls the writers behind it.

use ongoing_core::time::tp;
use ongoing_core::OngoingInterval;
use ongoing_relation::aggregate::AggFn;
use ongoing_relation::{Expr, OngoingRelation, Schema, Tuple, Value};
use ongoingdb::engine::catalog::RetryPolicy;
use ongoingdb::engine::modify::Modifier;
use ongoingdb::engine::plan::{compile, JoinStrategy, PlannerConfig};
use ongoingdb::engine::storage::{DurableOptions, TempDir};
use ongoingdb::engine::{
    Database, EngineError, ExecContext, LogicalPlan, QueryBuilder, QueryControl,
};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// The governed query shapes — a filtered scan of the big table, the
/// same kind of filter through its interval index, a bare projection of
/// it, a hash join probing it with a small build side, a hash join whose
/// build side is a bare scan of it, its union with itself, its difference
/// with the small table and a grouped count — each run ongoing and
/// instantiated.
fn run_queries(db: &Database) -> Vec<(&'static str, Answer)> {
    // Two workers: parallel paging coverage while keeping worst-case
    // concurrent pins (one morsel per worker) well inside any budget the
    // caller derives from the table size — peak ≤ budget must hold on
    // machines of any core count.
    let cfg = PlannerConfig {
        join_strategy: JoinStrategy::Hash,
        parallelism: 2,
        ..PlannerConfig::default()
    };
    let indexed = PlannerConfig {
        use_interval_index: true,
        ..cfg.clone()
    };
    let run_with = |plan: LogicalPlan, cfg: &PlannerConfig| -> Answer {
        let phys = compile(db, &plan, cfg).unwrap();
        let ctx = cfg.exec_context();
        let (ongoing, _) = phys.execute_with_stats(&ctx).unwrap();
        let (rows, _) = phys.rows_at_with_stats(tp(RT), &ctx).unwrap();
        (ongoing.iter().cloned().collect(), rows)
    };
    let run = |plan: LogicalPlan| run_with(plan, &cfg);
    let filter = QueryBuilder::scan(db, "T")
        .unwrap()
        .filter(|s| Ok(Expr::col(s, "G")?.eq(Expr::lit(3i64))))
        .unwrap()
        .build();
    let window = Value::Interval(OngoingInterval::fixed(tp(0), tp(5)));
    let index = QueryBuilder::scan(db, "T")
        .unwrap()
        .filter(|s| Ok(Expr::col(s, "VT")?.overlaps(Expr::lit(window.clone()))))
        .unwrap()
        .build();
    let explain = compile(db, &index, &indexed).unwrap().explain();
    assert!(explain.contains("IndexScan"), "{explain}");
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
        ("index scan", run_with(index, &indexed)),
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

        let out = run_queries(&db);
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
        // No query parked a chunk on the published version: the index
        // build and the index scan read through transient pins too.
        let t = db.table("T").unwrap();
        let views = t.data().lazy_views();
        assert_eq!(views.len(), 16);
        assert!(
            views.iter().all(|v| !v.is_resident()),
            "the queries left T's chunks resident"
        );
        out
    };

    // Unbounded reopen of the same directory: bit-identical results.
    let db = Database::open_with(dir.path(), opts(u64::MAX)).unwrap();
    let full = run_queries(&db);
    assert_eq!(answers.len(), full.len());
    for ((name, got), (_, want)) in answers.iter().zip(&full) {
        assert_eq!(got.0, want.0, "budgeted ongoing {name} result diverged");
        assert_eq!(got.1, want.1, "budgeted at-rt {name} result diverged");
    }
    // (ongoing tuples, instantiated rows): the instantiated union is a
    // bag, deduplicated only by `FixedRelation`.
    let filtered = 16 * CHUNK / 7 + usize::from(16 * CHUNK % 7 > 3);
    // `VT = [k % 40, now)` overlaps [0, 5) iff it starts before 5.
    let windowed = (0..16 * CHUNK).filter(|k| k % 40 < 5).count();
    let expected = [
        (filtered, filtered),
        (windowed, windowed),
        (16 * CHUNK, 16 * CHUNK),
        (64, 64),
        (64, 64),
        (16 * CHUNK, 2 * 16 * CHUNK),
        (16 * CHUNK - 64, 16 * CHUNK - 64),
        (7, 7),
    ];
    for ((name, (ongoing, rows)), (n, m)) in answers.iter().zip(expected) {
        assert_eq!(ongoing.len(), n, "ongoing {name}");
        // Every tuple is alive at RT and no predicate reads VT.
        assert_eq!(rows.len(), m, "at-rt {name}");
    }
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

#[test]
fn zero_deadline_fails_within_one_morsel_and_leaves_store_intact() {
    let dir = TempDir::new("govern-deadline");
    let db = Database::open_with(dir.path(), opts(u64::MAX)).unwrap();
    db.create_table(
        "T",
        OngoingRelation::from_tuples(schema(), big_rows(2 * CHUNK)).unwrap(),
    )
    .unwrap();

    let plan = QueryBuilder::scan(&db, "T")
        .unwrap()
        .filter(|s| Ok(Expr::col(s, "G")?.eq(Expr::lit(1i64))))
        .unwrap()
        .build();
    let phys = compile(&db, &plan, &PlannerConfig::default()).unwrap();

    // Already-expired deadline: the very first morsel-boundary check
    // fails, as a typed error.
    let expired = ExecContext::serial().with_timeout(Duration::ZERO);
    match phys.execute_with_stats(&expired) {
        Err(EngineError::DeadlineExceeded) => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }

    // The store is untouched: the same plan without a deadline succeeds,
    // and the table still accepts writes.
    let (ok, _) = phys.execute_with_stats(&ExecContext::serial()).unwrap();
    assert!(!ok.is_empty());
    db.modify_table("T", |rel| {
        Modifier::new(rel, "VT")?.insert_open(
            vec![Value::Int(-1), Value::Int(0), Value::Bool(false)],
            tp(1),
        )
    })
    .unwrap();
}

#[test]
fn cancelled_control_surfaces_cancelled_from_any_thread() {
    let db = Database::new();
    db.create_table(
        "T",
        OngoingRelation::from_tuples(schema(), big_rows(CHUNK)).unwrap(),
    )
    .unwrap();
    let plan = QueryBuilder::scan(&db, "T")
        .unwrap()
        .filter(|s| Ok(Expr::col(s, "G")?.eq(Expr::lit(2i64))))
        .unwrap()
        .build();
    let phys = compile(&db, &plan, &PlannerConfig::default()).unwrap();

    // The caller keeps one handle and cancels from another thread; the
    // clone inside the context observes it at the next check.
    let control = QueryControl::unbounded();
    let handle = control.clone();
    std::thread::spawn(move || handle.cancel()).join().unwrap();
    assert!(control.is_cancelled());
    let ctx = ExecContext::serial().with_control(control);
    match phys.execute_with_stats(&ctx) {
        Err(EngineError::Cancelled) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }
    // Cancellation is per-token, not per-plan: a fresh context runs fine.
    assert!(phys.execute_with_stats(&ExecContext::serial()).is_ok());
}

#[test]
fn modify_timeout_bounds_a_perpetually_conflicting_writer() {
    let db = Database::new();
    db.create_table(
        "T",
        OngoingRelation::from_tuples(schema(), big_rows(32)).unwrap(),
    )
    .unwrap();

    // Every attempt's fork is stale by publication time: the closure
    // itself republishes the table. Without a timeout this retries until
    // max_attempts; with one it must return DeadlineExceeded promptly —
    // and the interference pattern guarantees the modification itself was
    // never applied.
    let policy = RetryPolicy {
        max_attempts: u32::MAX,
        queue_after: u32::MAX,
        timeout: Some(Duration::from_millis(100)),
        ..RetryPolicy::default()
    };
    let started = Instant::now();
    let result = db.modify_table_with("T", policy, |rel| {
        db.put_table(
            "T",
            OngoingRelation::from_tuples(schema(), big_rows(32)).unwrap(),
        )?;
        Modifier::new(rel, "VT")?.insert_open(
            vec![Value::Int(-7), Value::Int(0), Value::Bool(false)],
            tp(1),
        )
    });
    match result {
        Err(EngineError::DeadlineExceeded) => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "timeout failed to bound the retry loop"
    );
    // Not applied: the conflicting writes won, the timed-out insert lost.
    let rows: Vec<Tuple> = db.table("T").unwrap().data().iter().cloned().collect();
    assert!(
        !rows.iter().any(|t| t.value(0).as_int() == Some(-7)),
        "timed-out modification must not be applied"
    );
}

#[test]
fn abandoned_queue_ticket_never_stalls_later_writers() {
    let db = Arc::new(Database::new());
    db.create_table(
        "T",
        OngoingRelation::from_tuples(schema(), big_rows(8)).unwrap(),
    )
    .unwrap();
    // Strict FIFO writers: everyone queues from the first attempt.
    let fifo = RetryPolicy {
        queue_after: 0,
        ..RetryPolicy::default()
    };

    let a_entered = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        // Writer A takes the gate and holds it in its closure.
        let db_a = Arc::clone(&db);
        let entered = Arc::clone(&a_entered);
        let a = s.spawn(move || {
            db_a.modify_table_with("T", fifo, |rel| {
                entered.store(true, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(250));
                Modifier::new(rel, "VT")?.insert_open(
                    vec![Value::Int(-10), Value::Int(0), Value::Bool(false)],
                    tp(1),
                )
            })
        });
        while !a_entered.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }

        // Writer B queues behind A and times out waiting — its abandoned
        // ticket must be skipped, not served into the void.
        let timed_out = RetryPolicy {
            timeout: Some(Duration::from_millis(20)),
            ..fifo
        };
        let b = db.modify_table_with("T", timed_out, |rel| {
            Modifier::new(rel, "VT")?.insert_open(
                vec![Value::Int(-20), Value::Int(0), Value::Bool(false)],
                tp(1),
            )
        });
        match b {
            Err(EngineError::DeadlineExceeded) => {}
            other => panic!("expected DeadlineExceeded for queued writer, got {other:?}"),
        }

        // Writer C queues after B's abandonment, behind A — it must be
        // served once A releases, within a bounded wait.
        let started = Instant::now();
        db.modify_table_with("T", fifo, |rel| {
            Modifier::new(rel, "VT")?.insert_open(
                vec![Value::Int(-30), Value::Int(0), Value::Bool(false)],
                tp(1),
            )
        })
        .expect("writer C must not stall behind the abandoned ticket");
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "writer C stalled behind an abandoned ticket"
        );
        a.join().unwrap().expect("writer A");
    });

    let rows: Vec<Tuple> = db.table("T").unwrap().data().iter().cloned().collect();
    let has = |k: i64| rows.iter().any(|t| t.value(0).as_int() == Some(k));
    assert!(has(-10) && has(-30), "writers A and C must have committed");
    assert!(!has(-20), "timed-out writer B must not have committed");
}
