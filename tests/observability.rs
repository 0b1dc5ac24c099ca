//! Observability suite: the metrics registry, per-query trace spans,
//! `EXPLAIN ANALYZE` and the structured event log (PR 8).
//!
//! Pinned contracts:
//!
//! 1. **Work-unit metrics are deterministic.** The same workload at 1 and
//!    4 executor threads leaves bit-identical executor counters and store
//!    gauges in the registry; only wall-clock metrics may differ.
//! 2. **`EXPLAIN ANALYZE` actuals are the executor's counters** — the
//!    root span equals `execute_with_stats`' totals exactly, and
//!    per-operator self work plus child work reconstructs them.
//! 3. **Exposition is complete**: `metrics_text()` lists every core
//!    executor, store, durability, writer, worker-pool, prepared-statement
//!    and result-cache metric under its stable name.
//! 4. **The event ring stays bounded and ordered** under concurrent
//!    writers: sequence numbers strictly increase, the ring never exceeds
//!    its capacity, and `dropped()` accounts for the rest.
//! 5. **The JSONL sink survives transient write faults** through the
//!    `Vfs` seam: a torn or failed append is retried; no event line is
//!    lost or duplicated.
//! 6. **Every client entry point is metered once, in both modes**: one
//!    query, its executor counters and one event per call; only ongoing
//!    runs probe the result cache.

use ongoing_core::time::tp;
use ongoing_core::OngoingInterval;
use ongoing_relation::{Expr, OngoingRelation, Schema, Value};
use ongoingdb::engine::exec::{
    RESULT_CACHE_BYTES_METRIC, RESULT_CACHE_EVICTIONS_METRIC, RESULT_CACHE_HITS_METRIC,
    RESULT_CACHE_MISSES_METRIC,
};
use ongoingdb::engine::modify::Modifier;
use ongoingdb::engine::obs::{
    EventLog, DURABLE_METRIC_NAMES, EXEC_METRIC_NAMES, STORE_METRIC_NAMES,
};
use ongoingdb::engine::sql::prepare::{PREPARED_HITS_METRIC, PREPARED_MISSES_METRIC};
use ongoingdb::engine::sql::{self, explain_analyze, prepare, run_statement, StatementResult};
use ongoingdb::engine::storage::{FaultKind, FaultMode, FaultPlan, FaultVfs, TempDir};
use ongoingdb::engine::{
    execute, execute_at, Database, DurableOptions, EngineEvent, ExecStats, MaterializedView,
    MetricsSnapshot, PlannerConfig,
};
use std::sync::Arc;

fn schema() -> Schema {
    Schema::builder().int("K").int("G").interval("VT").build()
}

fn seeded(rows: usize) -> OngoingRelation {
    let mut r = OngoingRelation::new(schema());
    for i in 0..rows as i64 {
        r.insert(vec![
            Value::Int(i),
            Value::Int(i % 5),
            Value::Interval(OngoingInterval::fixed(tp(i % 60), tp(i % 60 + 7))),
        ])
        .unwrap();
    }
    r
}

fn fixture() -> Database {
    let db = Database::new();
    db.observability().set_slow_query_ms(0); // event-log every query
    db.create_table("T", seeded(3_000)).unwrap();
    db.create_table("S", seeded(64)).unwrap();
    db
}

const QUERIES: &[&str] = &[
    "SELECT K FROM T WHERE G = 2",
    "SELECT T.K, S.G FROM T JOIN S ON T.K = S.K",
    "SELECT K FROM T WHERE G = 0 UNION SELECT K FROM S WHERE G = 1",
];

/// Runs the mixed workload at `threads` workers and returns the final
/// snapshot.
fn workload(threads: usize) -> MetricsSnapshot {
    let db = fixture();
    let cfg = PlannerConfig {
        parallelism: threads,
        ..PlannerConfig::default()
    };
    for r in 0..3i64 {
        db.modify_table("T", |rel| {
            let mut m = Modifier::new(rel, "VT")?;
            m.insert_open(
                vec![Value::Int(900_000 + r), Value::Int(r), Value::Bool(false)],
                tp(r % 30),
            )?;
            m.terminate(&Expr::Col(0).eq(Expr::lit(r * 17)), tp(80))?;
            Ok(())
        })
        .unwrap();
        for sql in QUERIES {
            explain_analyze(&db, sql, &cfg).unwrap();
        }
    }
    db.metrics_snapshot()
}

#[test]
fn serial_and_parallel_runs_leave_identical_work_metrics() {
    let serial = workload(1);
    let parallel = workload(4);
    let mut names: Vec<&str> = EXEC_METRIC_NAMES.to_vec();
    names.extend(STORE_METRIC_NAMES);
    names.extend(["ongoingdb_queries", "ongoingdb_publications"]);
    for name in names {
        assert_eq!(
            serial.value(name),
            parallel.value(name),
            "{name} must be bit-identical at 1 and 4 threads"
        );
    }
}

#[test]
fn explain_analyze_actuals_match_executor_counters() {
    let db = fixture();
    let cfg = PlannerConfig::default();
    let sql = "SELECT T.K, S.G FROM T JOIN S ON T.K = S.K WHERE T.G = 2";
    let report = explain_analyze(&db, sql, &cfg).unwrap();

    // A second, untraced execution of the same plan must count the same.
    let plan = ongoingdb::engine::sql::plan_query(&db, sql).unwrap();
    let phys = ongoingdb::engine::plan::compile(&db, &plan, &cfg).unwrap();
    let (_, stats) = phys.execute_with_stats(&cfg.exec_context()).unwrap();
    assert_eq!(report.stats, stats, "traced run must not change counting");
    assert_eq!(
        report.root.total_work, stats,
        "root span == executor totals"
    );

    // Parent self work + child totals reconstruct the root exactly.
    let child: u64 = report
        .root
        .children
        .iter()
        .map(|c| c.total_work.total_work())
        .sum();
    assert_eq!(
        report.root.self_work.total_work() + child,
        stats.total_work()
    );

    // Every operator line in the text carries estimates and actuals.
    for line in report.text.lines().filter(|l| l.contains("est rows≈")) {
        assert!(line.contains("rows="), "{line}");
        assert!(line.contains("work="), "{line}");
        assert!(line.contains("wall="), "{line}");
    }

    // The statement form renders the same tree shape.
    match run_statement(&db, &format!("EXPLAIN ANALYZE {sql}")).unwrap() {
        StatementResult::Explained(text) => {
            assert_eq!(
                text.lines().count(),
                report.text.lines().count(),
                "statement and API renderings must share the layout"
            );
        }
        other => panic!("expected Explained, got {other:?}"),
    }
}

#[test]
fn every_client_entry_point_records_one_query_in_both_modes() {
    let db = fixture();
    let cfg = PlannerConfig::default();
    let text = "SELECT T.K, S.G FROM T JOIN S ON T.K = S.K WHERE T.G = 2";
    let rt = tp(30);
    let plan = sql::plan_query(&db, text).unwrap();
    let phys = ongoingdb::engine::plan::compile(&db, &plan, &cfg).unwrap();
    let (_, ongoing) = phys.execute_with_stats(&cfg.exec_context()).unwrap();
    let (_, at_rt) = phys.execute_at_with_stats(rt, &cfg.exec_context()).unwrap();
    assert!(ongoing.total_work() > 0 && at_rt.total_work() > 0);
    let stmt = prepare(&db, text).unwrap();
    let cached = db.result_cache().budget() > 0;
    type Run<'a> = Box<dyn Fn() + 'a>;
    let entries: [(&str, Run<'_>, ExecStats, bool); 6] = [
        (
            "sql::query",
            Box::new(|| drop(sql::query(&db, text).unwrap())),
            ongoing,
            true,
        ),
        (
            "sql::query_at",
            Box::new(|| drop(sql::query_at(&db, text, rt).unwrap())),
            at_rt,
            false,
        ),
        (
            "execute",
            Box::new(|| drop(execute(&db, &plan).unwrap())),
            ongoing,
            true,
        ),
        (
            "execute_at",
            Box::new(|| drop(execute_at(&db, &plan, rt).unwrap())),
            at_rt,
            false,
        ),
        (
            "Prepared::execute",
            Box::new(|| drop(stmt.execute(&db).unwrap())),
            ongoing,
            true,
        ),
        (
            "MaterializedView::create",
            Box::new(|| {
                drop(MaterializedView::create(&db, "v", plan.clone(), cfg.clone()).unwrap())
            }),
            ongoing,
            true,
        ),
    ];
    let slow_queries = || {
        db.recent_events()
            .iter()
            .filter(|r| matches!(r.event, EngineEvent::SlowQuery { .. }))
            .count()
    };
    for (name, run, stats, ongoing_mode) in entries {
        let (before, events) = (db.metrics_snapshot(), slow_queries());
        run();
        let after = db.metrics_snapshot();
        let delta = |metric: &str| after.value(metric) - before.value(metric);
        assert_eq!(delta("ongoingdb_queries"), 1, "{name}");
        assert_eq!(slow_queries(), events + 1, "{name}: one event per query");
        let want = [
            stats.tuples_scanned,
            stats.tuples_filtered,
            stats.pairs_compared,
            stats.index_candidates,
            stats.intervals_merged,
        ];
        for (metric, want) in EXEC_METRIC_NAMES.into_iter().zip(want) {
            assert_eq!(delta(metric), want, "{name}: {metric}");
        }
        let probes = delta(RESULT_CACHE_HITS_METRIC) + delta(RESULT_CACHE_MISSES_METRIC);
        assert_eq!(
            probes,
            u64::from(ongoing_mode && cached),
            "{name}: result-cache probes"
        );
    }
}

#[test]
fn metrics_text_exposes_every_core_metric() {
    let dir = TempDir::new("obs-exposition");
    let db = Database::open_with(
        dir.path(),
        DurableOptions {
            fsync: false,
            ..DurableOptions::default()
        },
    )
    .unwrap();
    db.create_table("T", seeded(256)).unwrap();
    run_statement(&db, "SELECT K FROM T WHERE G = 1").unwrap();
    db.persist().unwrap();
    let text = db.metrics_text();
    for name in EXEC_METRIC_NAMES
        .iter()
        .chain(DURABLE_METRIC_NAMES.iter())
        .chain(STORE_METRIC_NAMES.iter())
    {
        assert!(
            text.contains(&format!("\n{name} ")) || text.starts_with(&format!("{name} ")),
            "exposition missing {name}:\n{text}"
        );
    }
    // Registry counters folded by the query path are present too.
    assert!(text.contains("\nongoingdb_queries 1"));

    // A prepared statement fanned out on the shared pool (several
    // morsels) and a repeated (cached) read populate the service metrics,
    // which join the same exposition.
    db.create_table("U", seeded(4_096)).unwrap();
    let parallel = PlannerConfig {
        parallelism: 2,
        ..PlannerConfig::default()
    };
    prepare(&db, "SELECT K FROM U WHERE G = 2")
        .unwrap()
        .execute_with(&db, &parallel)
        .unwrap();
    run_statement(&db, "SELECT K FROM T WHERE G = 1").unwrap();
    let text = db.metrics_text();
    for name in [
        "ongoingdb_publications",
        "ongoingdb_writer_wait_us",
        "ongoingdb_pool_threads",
        "ongoingdb_pool_queue_depth",
        "ongoingdb_pool_tasks_executed",
        "ongoingdb_pool_tasks_stolen",
        "ongoingdb_pool_queries",
        PREPARED_HITS_METRIC,
        PREPARED_MISSES_METRIC,
        RESULT_CACHE_HITS_METRIC,
        RESULT_CACHE_MISSES_METRIC,
        RESULT_CACHE_EVICTIONS_METRIC,
        RESULT_CACHE_BYTES_METRIC,
    ] {
        assert!(
            text.contains(&format!("# TYPE {name} ")),
            "exposition missing {name}:\n{text}"
        );
    }
}

#[test]
fn event_ring_bounds_and_orders_under_concurrent_writers() {
    const WRITERS: i64 = 8;
    const ROUNDS: i64 = 20;
    const CAPACITY: usize = 32;
    let db = Arc::new(Database::new());
    db.create_table("T", seeded(128)).unwrap();
    db.observability().events.set_capacity(CAPACITY);
    std::thread::scope(|s| {
        for t in 0..WRITERS {
            let db = Arc::clone(&db);
            s.spawn(move || {
                for r in 0..ROUNDS {
                    db.modify_table("T", |rel| {
                        Modifier::new(rel, "VT")?.insert_open(
                            vec![
                                Value::Int(t * 10_000 + r),
                                Value::Int(t),
                                Value::Bool(false),
                            ],
                            tp(5),
                        )?;
                        Ok(())
                    })
                    .unwrap();
                }
            });
        }
    });
    let events = db.recent_events();
    assert!(events.len() <= CAPACITY, "ring exceeded its capacity");
    assert!(
        events.windows(2).all(|w| w[0].seq < w[1].seq),
        "sequence numbers must strictly increase"
    );
    let obs = db.observability();
    let total = events.last().unwrap().seq + 1;
    assert_eq!(
        obs.events.dropped(),
        total - events.len() as u64,
        "dropped() must account for every record that fell off"
    );
    // Publications were recorded: at least one per successful commit.
    let publications = events
        .iter()
        .filter(|r| matches!(r.event, EngineEvent::Publication { .. }))
        .count();
    assert!(publications > 0);
}

#[test]
fn jsonl_sink_survives_transient_write_faults() {
    // Sweep the fault over the first few appends, in both shapes: a clean
    // error and a torn (short) write. Either way every event must land in
    // the file exactly once, in order.
    for mode in [FaultMode::Error, FaultMode::ShortWrite] {
        for at in 0..4u64 {
            let dir = TempDir::new("obs-sink");
            let path = dir.path().join("events.jsonl");
            let vfs = Arc::new(FaultVfs::with_fault(FaultPlan {
                at,
                kind: FaultKind::Transient,
                mode,
            }));
            let log = EventLog::with_capacity(64);
            log.set_sink(Arc::clone(&vfs) as Arc<dyn ongoingdb::engine::Vfs>, &path);
            for i in 0..10u64 {
                log.record(EngineEvent::Publication {
                    table: "T".into(),
                    wait_us: i,
                });
            }
            assert_eq!(log.sink_errors(), 0, "transient faults must be absorbed");
            let text = std::fs::read_to_string(&path).unwrap();
            let lines: Vec<&str> = text.lines().collect();
            assert_eq!(
                lines.len(),
                10,
                "mode {mode:?} fault at {at}: lost or duplicated lines"
            );
            for (i, line) in lines.iter().enumerate() {
                assert!(
                    line.starts_with(&format!("{{\"seq\":{i},")),
                    "line {i} out of order after {mode:?} fault at {at}: {line}"
                );
                assert!(line.ends_with('}'), "torn line survived: {line}");
            }
            // The ring saw the same ten records.
            assert_eq!(log.recent().len(), 10);
        }
    }
}

#[test]
fn slow_query_threshold_and_sink_via_database() {
    let db = fixture();
    run_statement(&db, "SELECT K FROM T WHERE G = 3").unwrap();
    let slow: Vec<_> = db
        .recent_events()
        .into_iter()
        .filter(|r| matches!(r.event, EngineEvent::SlowQuery { .. }))
        .collect();
    assert_eq!(slow.len(), 1, "threshold 0 must log every query");
    match &slow[0].event {
        EngineEvent::SlowQuery { query, work, .. } => {
            assert!(query.contains("SELECT K FROM T"));
            assert!(*work > 0);
        }
        _ => unreachable!(),
    }
    // Raising the threshold silences the log again.
    db.observability().set_slow_query_ms(1_000_000);
    run_statement(&db, "SELECT K FROM T WHERE G = 3").unwrap();
    let after = db
        .recent_events()
        .into_iter()
        .filter(|r| matches!(r.event, EngineEvent::SlowQuery { .. }))
        .count();
    assert_eq!(after, 1, "fast query above threshold must not log");
}

/// Pins the two documented `ONGOINGDB_SLOW_QUERY_MS` contracts: `0` means
/// *log every query* (not *disable logging*), and an unset variable means
/// the 250 ms default.
#[test]
fn slow_query_zero_logs_everything_and_default_is_250ms() {
    assert_eq!(ongoingdb::engine::obs::DEFAULT_SLOW_QUERY_MS, 250);
    // The default path. Guarded so an externally exported
    // ONGOINGDB_SLOW_QUERY_MS (which legitimately overrides the default)
    // doesn't turn this pin into a false failure.
    if std::env::var(ongoingdb::engine::SLOW_QUERY_ENV).is_err() {
        let db = Database::new();
        assert_eq!(db.observability().slow_query_ns(), 250 * 1_000_000);
    }
    // The zero path: every query logs, however fast.
    let db = fixture();
    assert_eq!(db.observability().slow_query_ns(), 0);
    for _ in 0..3 {
        run_statement(&db, "SELECT K FROM T WHERE G = 1").unwrap();
    }
    let slow = db
        .recent_events()
        .into_iter()
        .filter(|r| matches!(r.event, EngineEvent::SlowQuery { .. }))
        .count();
    assert_eq!(
        slow, 3,
        "threshold 0 must log every query, repeats included"
    );
}
