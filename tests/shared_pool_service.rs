//! The engine as a service: client threads firing mixed read/write traffic
//! at one database on the process-wide worker pool.
//!
//! This binary holds exactly one test, because it counts the process's
//! threads (`/proc/self/status`): with no other test running beside it,
//! the harness's own threads stay constant and every change in the count
//! belongs to the pool or to the clients. It pins three contracts:
//!
//! 1. **Concurrency changes nothing but wall clock.** Every query a client
//!    runs concurrently — while writers publish to another table — reports
//!    the work-unit stats of its serial replay.
//! 2. **No client starves.** Identical clients hammering the pool for a
//!    fixed window each complete queries, within 10x of each other
//!    (round-robin dispatch serves every query one morsel per turn).
//! 3. **The thread count stays flat.** The pool owns exactly its worker
//!    threads, and N concurrent clients add exactly N threads: operator
//!    fan-out runs on the pool's fixed workers, never on spawned threads.

use ongoing_core::date::md;
use ongoing_core::OngoingInterval;
use ongoing_relation::{Expr, OngoingRelation, Schema, Value};
use ongoingdb::engine::modify::Modifier;
use ongoingdb::engine::sql::prepare;
use ongoingdb::engine::{Database, PlannerConfig, WorkerPool};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

const POOL_THREADS: usize = 4;
const CLIENTS: usize = 6;
const ROUNDS: usize = 8;
const FAIR_WINDOW_MS: u64 = 250;
const FAIR_MAX_RATIO: f64 = 10.0;

/// A deterministic (K: Int, C: Str, VT: OngoingInterval) relation.
fn seeded(rows: usize) -> OngoingRelation {
    let schema = Schema::builder().int("K").str("C").interval("VT").build();
    let mut r = OngoingRelation::new(schema);
    for i in 0..rows {
        let (m, d) = (1 + (i % 6) as u8, 1 + (i % 27) as u8);
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
    r
}

/// Multi-morsel at parallelism 4, so the clients contend for pool slots.
const QUERIES: &[&str] = &[
    "SELECT K FROM Big WHERE K = 7",
    "SELECT K FROM Big WHERE VT OVERLAPS PERIOD(DATE '2019-03-01', DATE '2019-06-01')",
    "SELECT Mid.K FROM Mid JOIN Small ON Mid.K = Small.K AND Mid.VT OVERLAPS Small.VT",
    "SELECT K FROM Big WHERE START(VT) < DATE '2019-04-01'",
];

/// `Threads:` from `/proc/self/status` (0 when unavailable).
fn os_thread_count() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

/// The thread count once just-joined threads have been reaped: the
/// minimum over a short sampling window.
fn settled_thread_count() -> usize {
    (0..10)
        .map(|_| {
            std::thread::sleep(Duration::from_millis(10));
            os_thread_count()
        })
        .min()
        .unwrap_or(0)
}

/// Writer `t`'s round `r` against the writers-only table `W`.
fn write_round(db: &Database, t: i64, r: i64) {
    db.modify_table("W", |rel| {
        let mut m = Modifier::new(rel, "VT")?;
        let k = 10_000 + t * 1_000 + r;
        m.insert_open(
            vec![Value::Int(k), Value::str("w"), Value::Bool(false)],
            md(2, 1 + (r % 27) as u8),
        )?;
        if r % 3 == 2 {
            m.terminate(&Expr::Col(0).eq(Expr::lit(k - 2)), md(9, 1))?;
        }
        Ok(())
    })
    .unwrap_or_else(|e| panic!("writer {t} round {r}: {e}"));
}

#[test]
fn concurrent_clients_match_serial_stay_fair_and_add_no_threads() {
    let base_threads = os_thread_count();
    let db = Database::new();
    for (name, rows) in [("Big", 2_000), ("Mid", 700), ("Small", 60), ("W", 500)] {
        db.create_table(name, seeded(rows)).unwrap();
    }
    let stmts: Vec<_> = QUERIES.iter().map(|q| prepare(&db, q).unwrap()).collect();
    let parallel = PlannerConfig {
        parallelism: POOL_THREADS,
        ..PlannerConfig::default()
    };
    // Parallelism 1 executes inline and never creates the pool.
    let inline = PlannerConfig {
        parallelism: 1,
        ..PlannerConfig::default()
    };
    let serial: Vec<_> = stmts
        .iter()
        .map(|s| s.execute_with(&db, &inline).unwrap().1)
        .collect();
    assert!(
        WorkerPool::global_peek().is_none(),
        "serial runs made a pool"
    );

    // 1. Clients match the serial replay while two writers publish to W.
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let (db, stmts, serial, parallel) = (&db, &stmts, &serial, &parallel);
            scope.spawn(move || {
                for r in 0..ROUNDS {
                    for (q, stmt) in stmts.iter().enumerate() {
                        let (_, stats) = stmt.execute_with(db, parallel).unwrap();
                        assert_eq!(stats, serial[q], "client {c} round {r} query {q}");
                    }
                }
            });
        }
        for t in 0..2 {
            let db = &db;
            scope.spawn(move || (0..24).for_each(|r| write_round(db, t, r)));
        }
    });
    let pool = WorkerPool::global_peek().expect("parallel queries create the pool");
    assert_eq!(pool.threads(), POOL_THREADS);
    let idle_threads = settled_thread_count();

    // 2. Identical clients over a fixed window: nobody starves.
    let stop = AtomicBool::new(false);
    let done: Vec<AtomicU64> = (0..CLIENTS).map(|_| AtomicU64::new(0)).collect();
    let mut peak_threads = 0;
    std::thread::scope(|scope| {
        for count in &done {
            let (db, stmt, parallel, stop) = (&db, &stmts[1], &parallel, &stop);
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    stmt.execute_with(db, parallel).unwrap();
                    count.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        for _ in 0..10 {
            std::thread::sleep(Duration::from_millis(FAIR_WINDOW_MS / 10));
            peak_threads = peak_threads.max(os_thread_count());
        }
        stop.store(true, Ordering::Relaxed);
    });
    let done: Vec<u64> = done.iter().map(|c| c.load(Ordering::Relaxed)).collect();
    let (min, max) = (*done.iter().min().unwrap(), *done.iter().max().unwrap());
    assert!(min >= 1, "a client starved: {done:?}");
    let ratio = max as f64 / min as f64;
    assert!(
        ratio <= FAIR_MAX_RATIO,
        "completed-query ratio {ratio:.2} exceeds the starvation bound: {done:?}"
    );

    // 3. The pool owns exactly its workers; the clients add only
    //    themselves.
    if base_threads > 0 {
        assert_eq!(
            idle_threads,
            base_threads + POOL_THREADS,
            "the pool must own exactly {POOL_THREADS} worker threads"
        );
        assert_eq!(
            peak_threads,
            idle_threads + CLIENTS,
            "concurrent execution must not spawn threads beyond the clients"
        );
    }
}
