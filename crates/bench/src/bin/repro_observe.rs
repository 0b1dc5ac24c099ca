//! `repro_observe`: the unified observability layer end to end — metrics
//! registry, per-query trace spans, `EXPLAIN ANALYZE`, and the structured
//! event log — driven by a mixed read/write workload.
//!
//! Asserted:
//!
//! 1. **Work-unit metrics are deterministic.** The same workload run at
//!    1 worker thread and at 4 worker threads leaves bit-identical
//!    executor work-unit counters and store write/qualification gauges in
//!    the registry. Only wall-clock metrics may differ.
//! 2. **Spans add up.** For every `EXPLAIN ANALYZE`, the root span's
//!    total work equals the executor's `ExecStats` total, and parent self
//!    work plus child totals reconstruct it exactly.
//! 3. **The exposition is complete.** `metrics_text()` lists every core
//!    executor and durability metric under its stable name.
//!
//! Reported: the Prometheus-style exposition of the 4-thread run and the
//! top-3 slowest queries from the event log.

use ongoing_bench::scaled;
use ongoing_core::time::tp;
use ongoing_core::OngoingInterval;
use ongoing_engine::modify::Modifier;
use ongoing_engine::obs::{EXEC_METRIC_NAMES, STORE_METRIC_NAMES};
use ongoing_engine::sql::explain_analyze;
use ongoing_engine::{Database, EngineEvent, MetricsSnapshot, PlannerConfig};
use ongoing_relation::{Expr, OngoingRelation, Schema, Value};

const ROUNDS: i64 = 6;

fn schema() -> Schema {
    Schema::builder().int("K").int("G").interval("VT").build()
}

fn seeded(rows: usize) -> OngoingRelation {
    let mut r = OngoingRelation::new(schema());
    for i in 0..rows as i64 {
        r.insert(vec![
            Value::Int(i),
            Value::Int(i % 7),
            Value::Interval(OngoingInterval::fixed(tp(i % 80), tp(i % 80 + 9))),
        ])
        .unwrap();
    }
    r
}

const QUERIES: &[&str] = &[
    "SELECT K FROM T WHERE G = 3",
    "SELECT T.K, S.G FROM T JOIN S ON T.K = S.K",
    "SELECT K FROM T WHERE G = 1 UNION SELECT K FROM S WHERE G = 2",
];

/// The mixed workload: interleaved keyed modifications and traced queries
/// on a fresh database, at a fixed worker-thread count. Returns the final
/// metrics snapshot.
fn workload(threads: usize) -> (MetricsSnapshot, Database) {
    let db = Database::new();
    db.observability().set_slow_query_ms(0); // event-log every query
    db.create_table("T", seeded(scaled(20_000))).unwrap();
    db.create_table("S", seeded(512)).unwrap();
    db.create_key_index("T", "K").unwrap();
    let cfg = PlannerConfig {
        parallelism: threads,
        ..PlannerConfig::default()
    };
    for r in 0..ROUNDS {
        db.modify_table("T", |rel| {
            let mut m = Modifier::new(rel, "VT")?;
            m.insert_open(
                vec![Value::Int(1_000_000 + r), Value::Int(r), Value::Bool(false)],
                tp(r % 50),
            )?;
            m.terminate(&Expr::Col(0).eq(Expr::lit(r * 31)), tp(95))?;
            Ok(())
        })
        .unwrap();
        for sql in QUERIES {
            let report = explain_analyze(&db, sql, &cfg).unwrap();
            // Claim 2: the span tree reconstructs the executor totals.
            assert_eq!(report.root.total_work, report.stats, "span/stats drift");
            let child: u64 = report
                .root
                .children
                .iter()
                .map(|c| c.total_work.total_work())
                .sum();
            assert_eq!(
                report.root.self_work.total_work() + child,
                report.stats.total_work(),
                "parent self work + child work must equal the total"
            );
        }
    }
    let snap = db.metrics_snapshot();
    (snap, db)
}

fn main() {
    println!("repro_observe: metrics, spans and events over a mixed read/write workload.\n");
    let (serial, _db1) = workload(1);
    let (parallel, db) = workload(4);

    // Claim 1: deterministic metrics are bit-identical across thread
    // counts — executor work units and store write/qualification work.
    let mut names: Vec<&str> = EXEC_METRIC_NAMES.to_vec();
    names.extend(STORE_METRIC_NAMES);
    names.push("ongoingdb_queries");
    names.push("ongoingdb_publications");
    for name in names {
        assert_eq!(
            serial.value(name),
            parallel.value(name),
            "{name} must be identical at 1 and 4 threads"
        );
    }
    println!(
        "determinism: {} work-unit metrics bit-identical at 1 vs 4 threads\n",
        EXEC_METRIC_NAMES.len() + STORE_METRIC_NAMES.len() + 2
    );

    // Claim 3: the exposition lists every core metric.
    let text = db.metrics_text();
    for name in EXEC_METRIC_NAMES {
        assert!(text.contains(name), "exposition missing {name}");
    }
    println!("metrics exposition (4-thread run):\n{text}");

    // Top-3 slowest queries from the structured event log.
    let mut slow: Vec<(u64, u64, String)> = db
        .recent_events()
        .into_iter()
        .filter_map(|rec| match rec.event {
            EngineEvent::SlowQuery {
                query,
                wall_ns,
                work,
            } => Some((wall_ns, work, query)),
            _ => None,
        })
        .collect();
    slow.sort_by_key(|&(wall_ns, _, _)| std::cmp::Reverse(wall_ns));
    println!("top-3 slowest queries (event log):");
    for (wall_ns, work, query) in slow.iter().take(3) {
        println!("  {:>9} ns  {work:>8} wu  {query}", wall_ns);
    }
    assert!(
        slow.len() as i64 >= ROUNDS * QUERIES.len() as i64,
        "every query must reach the event log at threshold 0"
    );
    println!("\nrepro_observe: work units deterministic, spans exact, exposition complete.");
}
