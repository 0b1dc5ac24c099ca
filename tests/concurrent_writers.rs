//! Multi-writer stress suite for the gated write path.
//!
//! Every publisher of a table holds the table's FIFO writer gate from the
//! pin of the current version to the swap, so a `modify_table` closure
//! runs exactly once and publishes without a retry. This suite pins that
//! contract:
//!
//! 1. **No lost or duplicated updates** — N writer threads × M rounds of
//!    `modify_table` (inserts, terminates, sequenced updates, deletes on
//!    disjoint key spaces) all commit, each closure running once and each
//!    publication observed once in `ongoingdb_writer_wait_us`; the
//!    final table equals a serialized naive replay (`ongoing_bench::naive`)
//!    of the same operations — every committed round applied exactly once.
//! 2. **No torn versions** — every round publishes a *pair* of marker
//!    rows atomically; concurrent snapshot-pinned readers never observe a
//!    version containing half a pair, and a pinned version never changes.
//! 3. **Residency changes are not conflicts** — a checkpoint that demotes
//!    the pinned table mid-closure leaves the commit to land once.
//! 4. **Nested publications are refused** — a closure that publishes to
//!    the catalog gets [`EngineError::NestedPublication`], without
//!    deadlock, and nothing it tried is applied.
//! 5. **Prepared statements follow publications** — a statement
//!    re-executed beside a writer answers from the latest version once
//!    the writer stops.

use ongoing_bench::naive;
use ongoing_core::time::tp;
use ongoing_relation::{Expr, OngoingRelation, Schema, Tuple, Value};
use ongoingdb::engine::modify::Modifier;
use ongoingdb::engine::{Database, EngineError};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

const WRITERS: i64 = 8;
const ROUNDS: i64 = 50;
/// Disjoint per-writer key spaces: writer `t` owns `[t·SPACE, (t+1)·SPACE)`.
const SPACE: i64 = 1_000_000;

fn schema() -> Schema {
    Schema::builder().int("K").int("G").interval("VT").build()
}

/// The static base table (keys < SPACE·0 are never touched by writers).
fn base_rows(n: i64) -> Vec<Tuple> {
    (0..n)
        .map(|i| {
            Tuple::base(vec![
                Value::Int(-1 - i),
                Value::Int(i % 13),
                Value::Interval(ongoing_core::OngoingInterval::from_until_now(tp(i % 40))),
            ])
        })
        .collect()
}

/// Writer `t`, round `r`: one `modify_table` closure — published
/// atomically or not at all. Inserts a marker *pair*, and every few
/// rounds terminates / updates / deletes earlier own keys.
fn writer_round(m: &mut Modifier, t: i64, r: i64) -> ongoingdb::engine::Result<()> {
    let id = |round: i64, half: i64| t * SPACE + round * 2 + half;
    let k_eq = |k: i64| Expr::Col(0).eq(Expr::lit(k));
    m.insert_open(
        vec![Value::Int(id(r, 0)), Value::Int(r), Value::Bool(false)],
        tp(r % 50),
    )?;
    m.insert_open(
        vec![Value::Int(id(r, 1)), Value::Int(r), Value::Bool(false)],
        tp(r % 50),
    )?;
    if r % 3 == 0 && r >= 3 {
        // Terminate an earlier pair (cap past the start: rows stay).
        m.terminate(&k_eq(id(r - 3, 0)), tp(90))?;
        m.terminate(&k_eq(id(r - 3, 1)), tp(90))?;
    }
    if r % 5 == 0 && r >= 5 {
        m.update(&k_eq(id(r - 5, 0)), &[(1, Value::Int(-r))], tp(45))?;
        m.update(&k_eq(id(r - 5, 1)), &[(1, Value::Int(-r))], tp(45))?;
    }
    if r % 7 == 0 && r >= 7 {
        m.delete(&k_eq(id(r - 7, 0)))?;
        m.delete(&k_eq(id(r - 7, 1)))?;
    }
    Ok(())
}

/// The same round against the naive `Vec<Tuple>` model.
fn replay_round(rows: &mut Vec<Tuple>, t: i64, r: i64) {
    let id = |round: i64, half: i64| t * SPACE + round * 2 + half;
    naive::insert_open(rows, id(r, 0), r, tp(r % 50));
    naive::insert_open(rows, id(r, 1), r, tp(r % 50));
    if r % 3 == 0 && r >= 3 {
        naive::terminate(rows, id(r - 3, 0), tp(90));
        naive::terminate(rows, id(r - 3, 1), tp(90));
    }
    if r % 5 == 0 && r >= 5 {
        naive::update(rows, id(r - 5, 0), -r, tp(45));
        naive::update(rows, id(r - 5, 1), -r, tp(45));
    }
    if r % 7 == 0 && r >= 7 {
        naive::delete(rows, id(r - 7, 0));
        naive::delete(rows, id(r - 7, 1));
    }
}

/// Canonical multiset order (all RTs are trivial in this workload, so
/// value order is a total order up to identical tuples).
fn sorted(mut rows: Vec<Tuple>) -> Vec<Tuple> {
    rows.sort_unstable_by(|a, b| ongoing_relation::value::cmp_rows(a.values(), b.values()));
    rows
}

/// Marker-pair invariant: for every writer, the present `2r` ids must
/// exactly match the present `2r+1` ids — half-applied rounds are torn
/// versions. Update splits may duplicate an id (two versions); dedup.
fn assert_untorn(rows: &[Tuple], context: &str) {
    let mut halves: std::collections::HashMap<i64, [std::collections::BTreeSet<i64>; 2]> =
        std::collections::HashMap::new();
    for t in rows {
        let k = t.value(0).as_int().unwrap();
        if k < 0 {
            continue; // static base row
        }
        let (writer, local) = (k / SPACE, k % SPACE);
        let entry = halves.entry(writer).or_default();
        entry[(local % 2) as usize].insert(local / 2);
    }
    for (writer, [a, b]) in &halves {
        assert_eq!(
            a, b,
            "{context}: torn version — writer {writer} has unpaired markers"
        );
    }
}

#[test]
fn eight_writers_fifty_rounds_no_lost_updates() {
    let db = Arc::new(Database::new());
    let base = base_rows(500);
    db.create_table(
        "T",
        OngoingRelation::from_tuples(schema(), base.clone()).unwrap(),
    )
    .unwrap();
    // Writers qualify through the keyed index, under contention.
    db.create_key_index("T", "K").unwrap();

    let done = Arc::new(AtomicBool::new(false));
    let runs = Arc::new(AtomicU64::new(0));

    std::thread::scope(|s| {
        // Snapshot-pinned readers: every pinned version satisfies the
        // pair invariant and never changes while held.
        for _ in 0..2 {
            let db = Arc::clone(&db);
            let done = Arc::clone(&done);
            s.spawn(move || {
                while !done.load(Ordering::Relaxed) {
                    let pinned = db.table("T").unwrap();
                    let rows: Vec<Tuple> = pinned.data().iter().cloned().collect();
                    assert_untorn(&rows, "reader");
                    // The pinned version is immutable: re-reading it
                    // observes the identical sequence.
                    let again: Vec<Tuple> = pinned.data().iter().cloned().collect();
                    assert_eq!(rows, again, "pinned snapshot changed under reader");
                    std::thread::yield_now();
                }
            });
        }
        for t in 0..WRITERS {
            let db = Arc::clone(&db);
            let runs = Arc::clone(&runs);
            s.spawn(move || {
                for r in 0..ROUNDS {
                    db.modify_table("T", |rel| {
                        runs.fetch_add(1, Ordering::Relaxed);
                        writer_round(&mut Modifier::new(rel, "VT")?, t, r)
                    })
                    .unwrap_or_else(|e| panic!("writer {t} round {r}: surfaced {e}"));
                }
            });
        }
        // Monitor: the readers must outlive the writers, so a dedicated
        // thread flips `done` once every writer's final-round marker pair
        // is visible (round `ROUNDS-1` pairs are never deleted — deletes
        // only target rounds ≤ ROUNDS-8).
        let db_mon = Arc::clone(&db);
        let done_mon = Arc::clone(&done);
        s.spawn(move || loop {
            std::thread::sleep(std::time::Duration::from_millis(20));
            let rows: Vec<Tuple> = db_mon.table("T").unwrap().data().iter().cloned().collect();
            let complete = (0..WRITERS).all(|t| {
                rows.iter()
                    .any(|tu| tu.value(0).as_int() == Some(t * SPACE + (ROUNDS - 1) * 2 + 1))
            });
            if complete {
                done_mon.store(true, Ordering::Relaxed);
                break;
            }
        });
    });

    // Differential check: serialized naive replay (disjoint key spaces
    // commute, so per-writer program order is a valid serialization).
    let mut replay = base;
    for t in 0..WRITERS {
        for r in 0..ROUNDS {
            replay_round(&mut replay, t, r);
        }
    }
    let live: Vec<Tuple> = db.table("T").unwrap().data().iter().cloned().collect();
    assert_untorn(&live, "final");
    assert_eq!(
        live.len(),
        replay.len(),
        "lost or duplicated updates: row-count mismatch"
    );
    assert_eq!(
        sorted(live),
        sorted(replay),
        "final table diverged from the serialized naive replay"
    );
    assert_eq!(
        runs.load(Ordering::Relaxed),
        (WRITERS * ROUNDS) as u64,
        "every closure runs exactly once per commit"
    );
    // One publication per commit plus the two setup publications
    // (create_table, create_key_index), each one writer-gate wait.
    let snap = db.metrics_snapshot();
    let publications = snap.value("ongoingdb_publications");
    assert_eq!(publications, (WRITERS * ROUNDS) as u64 + 2);
    assert_eq!(
        snap.histogram("ongoingdb_writer_wait_us")
            .expect("writer-wait histogram")
            .count,
        publications,
        "one writer-wait observation per publication"
    );
}

#[test]
fn eight_durable_writers_recover_to_the_serialized_replay() {
    // The same multi-writer workload against an on-disk database, with a
    // tiny checkpoint threshold so checkpoints race the concurrent
    // commits, then a simulated crash (drop without persist) and
    // recovery: the reopened database must equal the serialized naive
    // replay — every committed round durable exactly once, no torn pairs.
    let rounds: i64 = 20;
    let dir = ongoingdb::engine::storage::TempDir::new("writers-durable");
    let base = base_rows(200);
    {
        let db = Arc::new(
            Database::open_with(
                dir.path(),
                ongoingdb::engine::DurableOptions {
                    fsync: false,
                    checkpoint_bytes: 8 << 10,
                    ..Default::default()
                },
            )
            .unwrap(),
        );
        db.create_table(
            "T",
            OngoingRelation::from_tuples(schema(), base.clone()).unwrap(),
        )
        .unwrap();
        db.create_key_index("T", "K").unwrap();
        let runs = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..WRITERS {
                let (db, runs) = (Arc::clone(&db), &runs);
                s.spawn(move || {
                    for r in 0..rounds {
                        db.modify_table("T", |rel| {
                            runs.fetch_add(1, Ordering::Relaxed);
                            writer_round(&mut Modifier::new(rel, "VT")?, t, r)
                        })
                        .unwrap_or_else(|e| panic!("durable writer {t} round {r}: {e}"));
                    }
                });
            }
        });
        let stats = db.durable_stats().unwrap();
        assert!(stats.checkpoints > 0, "workload must exercise checkpoints");
        assert_eq!(
            runs.load(Ordering::Relaxed),
            (WRITERS * rounds) as u64,
            "every closure runs exactly once per commit"
        );
    } // drop = crash: whatever the WAL holds is the durable state.

    let db = Database::open(dir.path()).unwrap();
    let recovered: Vec<Tuple> = db.table("T").unwrap().data().iter().cloned().collect();
    assert_untorn(&recovered, "recovered");
    let mut replay = base;
    for t in 0..WRITERS {
        for r in 0..rounds {
            replay_round(&mut replay, t, r);
        }
    }
    assert_eq!(
        sorted(recovered),
        sorted(replay),
        "recovered table diverged from the serialized naive replay"
    );
    // Recovered key index still accelerates keyed predicates and the
    // database keeps accepting durable writes.
    assert_eq!(db.table("T").unwrap().data().key_indexed_columns(), &[0]);
    db.modify_table("T", |rel| {
        Modifier::new(rel, "VT")?.delete(&Expr::Col(0).eq(Expr::lit(-1i64)))
    })
    .unwrap();
}

#[test]
fn checkpoint_mid_closure_demotes_without_a_retry() {
    // The writer pins the resident version of `T`. Mid-closure, a
    // checkpoint under a 64 KiB budget persists `T` and demotes its chunks
    // to cold references: the slot now holds a demoted copy of the pinned
    // version. That changes residency only, so the commit lands on its
    // first and only run, and the reopened database equals the naive
    // replay. Deterministic — no thread timing involved.
    let dir = ongoingdb::engine::storage::TempDir::new("writers-demote");
    let base = base_rows(2 * ongoing_relation::TARGET_CHUNK_ROWS as i64);
    {
        let db = Database::open_with(
            dir.path(),
            ongoingdb::engine::DurableOptions {
                fsync: false,
                checkpoint_bytes: u64::MAX,
                memory_budget: 64 << 10,
            },
        )
        .unwrap();
        db.create_table(
            "T",
            OngoingRelation::from_tuples(schema(), base.clone()).unwrap(),
        )
        .unwrap();
        let published = db.metrics_snapshot().value("ongoingdb_publications");
        let mut runs = 0;
        db.modify_table("T", |rel| {
            runs += 1;
            db.persist()?;
            let demoted = db.table("T")?;
            assert!(
                demoted.data().lazy_views().iter().all(|v| !v.is_resident()),
                "the checkpoint must demote T mid-closure"
            );
            Modifier::new(rel, "VT")?.terminate(&Expr::Col(0).eq(Expr::lit(-1i64)), tp(99))
        })
        .unwrap();
        assert_eq!(runs, 1, "the closure runs exactly once");
        assert_eq!(
            db.metrics_snapshot().value("ongoingdb_publications"),
            published + 1,
            "one publication, no retry"
        );
    } // drop = crash: the terminate lives only in the WAL.
    let db = Database::open(dir.path()).unwrap();
    let recovered: Vec<Tuple> = db.table("T").unwrap().data().iter().cloned().collect();
    let mut replay = base;
    naive::terminate(&mut replay, -1, tp(99));
    assert_eq!(sorted(recovered), sorted(replay));
}

#[test]
fn nested_gated_modification_does_not_self_deadlock() {
    // A closure holds `T`'s writer gate. Any catalog publication from
    // inside it — on `T` or on another table — is refused with the typed
    // error instead of waiting on a gate; the outer closure still runs
    // once and commits, and the refused calls change nothing.
    let db = Database::new();
    let t = OngoingRelation::from_tuples(schema(), base_rows(20)).unwrap();
    let u = OngoingRelation::from_tuples(schema(), base_rows(5)).unwrap();
    db.create_table("T", t.clone()).unwrap();
    db.create_table("U", u.clone()).unwrap();
    let insert = |rel: &mut OngoingRelation| {
        Modifier::new(rel, "VT")?.insert_open(
            vec![Value::Int(8_000), Value::Int(0), Value::Bool(false)],
            tp(1),
        )
    };
    let mut runs = 0;
    db.modify_table("T", |rel| {
        runs += 1;
        for name in ["T", "U", "V"] {
            let refused = |r: ongoingdb::engine::Result<()>| match r {
                Err(EngineError::NestedPublication(table)) => assert_eq!(table, name),
                other => panic!("nested publication on {name}: expected a refusal, got {other:?}"),
            };
            refused(db.modify_table(name, insert));
            refused(db.put_table(name, u.clone()));
            refused(db.create_table(name, u.clone()));
            refused(db.drop_table(name));
            refused(db.create_key_index(name, "K"));
        }
        Modifier::new(rel, "VT")?.terminate(&Expr::Col(0).eq(Expr::lit(-1i64)), tp(99))
    })
    .unwrap();
    assert_eq!(runs, 1);
    // The outer commit landed; the refused calls left U alone and
    // created no V.
    let rows: Vec<Tuple> = db.table("T").unwrap().data().iter().cloned().collect();
    let mut replay: Vec<Tuple> = t.iter().cloned().collect();
    naive::terminate(&mut replay, -1, tp(99));
    assert_eq!(sorted(rows), sorted(replay));
    let u_now: Vec<Tuple> = db.table("U").unwrap().data().iter().cloned().collect();
    assert_eq!(u_now, u.iter().cloned().collect::<Vec<_>>());
    assert!(db
        .table("U")
        .unwrap()
        .data()
        .key_indexed_columns()
        .is_empty());
    assert_eq!(db.table_names(), vec!["T".to_string(), "U".to_string()]);
    // The gate was released: later publications go through.
    db.modify_table("T", insert).unwrap();
    db.drop_table("U").unwrap();
}

#[test]
fn nested_modification_is_refused_and_the_outer_commit_lands_once() {
    // A nested writer on the same table used to publish mid-closure and
    // force the outer writer to retry. Now the nested call is refused, so
    // the outer closure runs once, one publication lands, and only the
    // outer terminate is visible.
    let db = Database::new();
    db.create_table(
        "T",
        OngoingRelation::from_tuples(schema(), base_rows(50)).unwrap(),
    )
    .unwrap();
    let published = db.metrics_snapshot().value("ongoingdb_publications");
    let mut runs = 0;
    db.modify_table("T", |rel| {
        runs += 1;
        let nested = db.modify_table("T", |inner| {
            Modifier::new(inner, "VT")?.insert_open(
                vec![Value::Int(7_000), Value::Int(0), Value::Bool(false)],
                tp(1),
            )
        });
        assert!(
            matches!(&nested, Err(EngineError::NestedPublication(t)) if t == "T"),
            "expected a refusal, got {nested:?}"
        );
        Modifier::new(rel, "VT")?.terminate(&Expr::Col(0).eq(Expr::lit(-1i64)), tp(99))
    })
    .unwrap();
    assert_eq!(runs, 1, "the closure runs exactly once");
    assert_eq!(
        db.metrics_snapshot().value("ongoingdb_publications"),
        published + 1,
        "one publication, no retry"
    );
    let data = db.table("T").unwrap().data().clone();
    assert_eq!(data.len(), 50);
    assert!(!data.iter().any(|t| t.value(0) == &Value::Int(7_000)));
}

#[test]
fn nested_put_table_error_aborts_the_outer_modification() {
    // A closure that propagates the refusal of a nested `put_table`
    // surfaces it from the outer `modify_table` after one run, and the
    // table keeps its previous version: neither the nested replacement
    // nor the outer delete is applied.
    let db = Database::new();
    let base = OngoingRelation::from_tuples(schema(), base_rows(10)).unwrap();
    db.create_table("T", base.clone()).unwrap();
    let mut runs = 0;
    let r = db.modify_table("T", |rel| {
        runs += 1;
        db.put_table(
            "T",
            OngoingRelation::from_tuples(schema(), base_rows(3)).unwrap(),
        )?;
        Modifier::new(rel, "VT")?.delete(&Expr::Col(0).eq(Expr::lit(-1i64)))
    });
    match r {
        Err(EngineError::NestedPublication(table)) => assert_eq!(table, "T"),
        other => panic!("expected NestedPublication, got {other:?}"),
    }
    assert_eq!(runs, 1);
    let rows: Vec<Tuple> = db.table("T").unwrap().data().iter().cloned().collect();
    assert_eq!(rows, base.iter().cloned().collect::<Vec<_>>());
    // The gate was released by the failed modification.
    db.put_table("T", base).unwrap();
}

#[test]
fn uncontended_modification_reports_one_attempt() {
    // One publication: the closure runs once, the gate-wait histogram
    // gains one observation and the event log one publication.
    let db = Database::new();
    db.create_table(
        "T",
        OngoingRelation::from_tuples(schema(), base_rows(10)).unwrap(),
    )
    .unwrap();
    let waits = |db: &Database| {
        db.metrics_snapshot()
            .histogram("ongoingdb_writer_wait_us")
            .map_or(0, |h| h.count)
    };
    let before = waits(&db);
    let mut runs = 0;
    db.modify_table("T", |rel| {
        runs += 1;
        Modifier::new(rel, "VT")?.delete(&Expr::Col(0).eq(Expr::lit(-3i64)))
    })
    .unwrap();
    assert_eq!(runs, 1);
    assert_eq!(waits(&db), before + 1);
    let last = db.recent_events().pop().unwrap();
    assert!(
        matches!(&last.event, ongoingdb::engine::EngineEvent::Publication { table, .. } if table == "T")
    );
}

#[test]
fn queued_writers_commit_in_ticket_order() {
    // Every publisher queues on the table's FIFO gate, so N contending
    // writers serialize: each closure runs exactly once and every commit
    // lands.
    let db = Arc::new(Database::new());
    db.create_table(
        "T",
        OngoingRelation::from_tuples(schema(), base_rows(20)).unwrap(),
    )
    .unwrap();
    let runs = AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..6i64 {
            let (db, runs) = (Arc::clone(&db), &runs);
            s.spawn(move || {
                for r in 0..10i64 {
                    db.modify_table("T", |rel| {
                        runs.fetch_add(1, Ordering::Relaxed);
                        Modifier::new(rel, "VT")?.insert_open(
                            vec![Value::Int(t * SPACE + r), Value::Int(r), Value::Bool(false)],
                            tp(r % 9),
                        )
                    })
                    .expect("queued writer must commit");
                }
            });
        }
    });
    assert_eq!(db.table("T").unwrap().data().len(), 20 + 60);
    assert_eq!(
        runs.load(Ordering::Relaxed),
        60,
        "closures ran more than once"
    );
}

#[test]
fn eight_writers_under_a_tight_memory_budget_evict_and_stay_exact() {
    // PR 7 interaction test: the multi-writer workload against a durable
    // database whose chunk cache is far smaller than the table, with a
    // tiny checkpoint threshold so checkpoints keep demoting freshly
    // sealed chunks to cold mid-flight. Writers then page those chunks
    // back in through the budgeted cache while qualifying their updates —
    // eviction under contention must never lose, duplicate or tear a
    // committed round.
    let rounds: i64 = 15;
    let budget: u64 = 64 << 10;
    let dir = ongoingdb::engine::storage::TempDir::new("writers-evict");
    let base = base_rows(8 * ongoing_relation::TARGET_CHUNK_ROWS as i64);
    let db = Arc::new(
        Database::open_with(
            dir.path(),
            ongoingdb::engine::DurableOptions {
                fsync: false,
                checkpoint_bytes: 16 << 10,
                memory_budget: budget,
            },
        )
        .unwrap(),
    );
    db.create_table(
        "T",
        OngoingRelation::from_tuples(schema(), base.clone()).unwrap(),
    )
    .unwrap();
    db.create_key_index("T", "K").unwrap();
    let runs = AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..WRITERS {
            let (db, runs) = (Arc::clone(&db), &runs);
            s.spawn(move || {
                for r in 0..rounds {
                    db.modify_table("T", |rel| {
                        runs.fetch_add(1, Ordering::Relaxed);
                        writer_round(&mut Modifier::new(rel, "VT")?, t, r)
                    })
                    .unwrap_or_else(|e| panic!("budgeted writer {t} round {r}: {e}"));
                }
            });
        }
    });

    assert!(
        db.durable_stats().unwrap().checkpoints > 0,
        "workload must exercise checkpoints"
    );
    assert_eq!(
        runs.load(Ordering::Relaxed),
        (WRITERS * rounds) as u64,
        "every closure runs exactly once per commit"
    );

    // The final full scan pages the whole (≈8×-budget) table through the
    // budgeted cache: by the time it finishes, chunks demoted at the
    // checkpoints must have been read back and the cache must have
    // shed entries under pressure.
    let live: Vec<Tuple> = db.table("T").unwrap().data().iter().cloned().collect();
    let stats = db.durable_stats().unwrap();
    assert!(
        stats.cache_misses > 0,
        "demoted chunks must page back in through the cache"
    );
    assert!(
        stats.cache_evictions > 0,
        "an 8×-budget table must evict under a {budget}-byte budget"
    );
    assert_untorn(&live, "budgeted final");
    let mut replay = base;
    for t in 0..WRITERS {
        for r in 0..rounds {
            replay_round(&mut replay, t, r);
        }
    }
    assert_eq!(
        sorted(live),
        sorted(replay),
        "budgeted table diverged from the serialized naive replay"
    );
}

#[test]
fn a_prepared_statement_re_executed_beside_a_writer_ends_on_the_latest_version() {
    use ongoingdb::engine::sql::{prepare, query};
    let db = Database::new();
    db.create_table(
        "T",
        OngoingRelation::from_tuples(schema(), base_rows(4)).unwrap(),
    )
    .unwrap();
    let sql = "SELECT K, G FROM T WHERE G >= 0";
    let stmt = prepare(&db, sql).unwrap();
    let done = AtomicBool::new(false);
    let executions = AtomicU64::new(0);
    std::thread::scope(|s| {
        s.spawn(|| {
            while !done.load(Ordering::Relaxed) {
                stmt.execute(&db).unwrap();
                executions.fetch_add(1, Ordering::Relaxed);
            }
        });
        while executions.load(Ordering::Relaxed) == 0 {
            std::thread::yield_now();
        }
        for k in 0..200i64 {
            db.modify_table("T", |rel| {
                Modifier::new(rel, "VT")?.insert_open(
                    vec![Value::Int(k), Value::Int(k), Value::Bool(false)],
                    tp(k % 40),
                )
            })
            .unwrap();
        }
        done.store(true, Ordering::Relaxed);
    });
    let rows = |rel: OngoingRelation| sorted(rel.iter().cloned().collect());
    let fresh = rows(query(&db, sql).unwrap());
    assert_eq!(fresh.len(), 4 + 200);
    assert_eq!(rows(stmt.execute(&db).unwrap()), fresh);
}
