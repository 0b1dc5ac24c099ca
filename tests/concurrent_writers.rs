//! Multi-writer stress suite for the retrying write path.
//!
//! PR 4 made `modify_table` optimistic: fork off-lock, publish via
//! compare-and-swap, error on conflict. This suite pins the PR 5
//! contract that turned the error into an internal event:
//!
//! 1. **No lost or duplicated updates** — N writer threads × M rounds of
//!    `modify_table` (inserts, terminates, sequenced updates, deletes on
//!    disjoint key spaces) complete with *zero* surfaced
//!    [`EngineError::ConcurrentModification`]; the final table equals a
//!    serialized naive replay (`ongoing_bench::naive`) of the same
//!    operations — every committed round applied exactly once.
//! 2. **No torn versions** — every round publishes a *pair* of marker
//!    rows atomically; concurrent snapshot-pinned readers never observe a
//!    version containing half a pair, and a pinned version never changes.
//! 3. **Attempts are observable** — `modify_table_with` reports the
//!    publication attempt count; a deterministic nested-writer conflict
//!    retries exactly once, and an always-conflicting closure surfaces
//!    `ConcurrentModification { table, attempts }` only after the budget.

use ongoing_bench::naive;
use ongoing_core::time::tp;
use ongoing_relation::{Expr, OngoingRelation, Schema, Tuple, Value};
use ongoingdb::engine::catalog::RetryPolicy;
use ongoingdb::engine::modify::Modifier;
use ongoingdb::engine::{Database, EngineError};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
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
    let max_attempts_seen = Arc::new(AtomicU32::new(0));
    let total_attempts = Arc::new(AtomicU32::new(0));

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
            let max_seen = Arc::clone(&max_attempts_seen);
            let total = Arc::clone(&total_attempts);
            s.spawn(move || {
                for r in 0..ROUNDS {
                    let (_, attempts) = db
                        .modify_table_with("T", RetryPolicy::default(), |rel| {
                            writer_round(&mut Modifier::new(rel, "VT")?, t, r)
                        })
                        .unwrap_or_else(|e| {
                            panic!("writer {t} round {r}: surfaced {e} — retry failed")
                        });
                    max_seen.fetch_max(attempts, Ordering::Relaxed);
                    total.fetch_add(attempts, Ordering::Relaxed);
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
    let (max, total) = (
        max_attempts_seen.load(Ordering::Relaxed),
        total_attempts.load(Ordering::Relaxed),
    );
    assert!(max >= 1 && total >= (WRITERS * ROUNDS) as u32);
    println!(
        "writers done: {total} attempts for {} commits (max {max} per commit)",
        WRITERS * ROUNDS
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
        std::thread::scope(|s| {
            for t in 0..WRITERS {
                let db = Arc::clone(&db);
                s.spawn(move || {
                    for r in 0..rounds {
                        db.modify_table("T", |rel| {
                            writer_round(&mut Modifier::new(rel, "VT")?, t, r)
                        })
                        .unwrap_or_else(|e| panic!("durable writer {t} round {r}: {e}"));
                    }
                });
            }
        });
        let stats = db.durable_stats().unwrap();
        assert!(stats.checkpoints > 0, "workload must exercise checkpoints");
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
fn nested_conflict_retries_and_reports_attempts() {
    let db = Database::new();
    db.create_table(
        "T",
        OngoingRelation::from_tuples(schema(), base_rows(50)).unwrap(),
    )
    .unwrap();
    // First run: a nested writer publishes mid-closure, so the outer CAS
    // must fail; the retry re-runs the closure against the new version
    // and succeeds. Deterministic — no thread timing involved.
    let mut first = true;
    let (n, attempts) = db
        .modify_table_with("T", RetryPolicy::default(), |rel| {
            if first {
                first = false;
                db.modify_table("T", |inner| {
                    let mut m = Modifier::new(inner, "VT")?;
                    m.insert_open(
                        vec![Value::Int(7_000), Value::Int(0), Value::Bool(false)],
                        tp(1),
                    )
                })?;
            }
            Modifier::new(rel, "VT")?.terminate(&Expr::Col(0).eq(Expr::lit(-1i64)), tp(99))
        })
        .unwrap();
    assert_eq!(n, 1, "the retried modification applied exactly once");
    assert_eq!(attempts, 2, "one conflict, one successful retry");
    // Both the nested insert and the retried terminate are visible.
    let data = db.table("T").unwrap().data().clone();
    assert_eq!(data.len(), 51);
    assert!(data.iter().any(|t| t.value(0) == &Value::Int(7_000)));
}

#[test]
fn io_error_on_a_superseded_version_retries_as_a_conflict() {
    // The writer pins the cold version V of `T`. Mid-closure, a nested
    // writer rebuilds `T` and a checkpoint garbage-collects the chunk
    // files only V still references, so the writer's edit of its fork
    // fails to page a chunk in. V is no longer published, so that is a
    // conflict: the retry runs against the rebuilt version and applies.
    // Deterministic — no thread timing involved.
    let dir = ongoingdb::engine::storage::TempDir::new("writers-gc-race");
    let db = Database::open_with(
        dir.path(),
        ongoingdb::engine::DurableOptions {
            fsync: false,
            checkpoint_bytes: u64::MAX,
            memory_budget: 64 << 10,
        },
    )
    .unwrap();
    let base = base_rows(2 * ongoing_relation::TARGET_CHUNK_ROWS as i64);
    db.create_table(
        "T",
        OngoingRelation::from_tuples(schema(), base.clone()).unwrap(),
    )
    .unwrap();
    // The checkpoint persists `T` and, under the finite budget, demotes
    // its chunks to cold references.
    db.persist().unwrap();
    let mut first = true;
    let (n, attempts) = db
        .modify_table_with("T", RetryPolicy::default(), |rel| {
            if first {
                first = false;
                let rebuilt = OngoingRelation::from_tuples(schema(), base.clone())?;
                db.modify_table("T", |inner| {
                    *inner = rebuilt.clone();
                    Ok(())
                })?;
                db.persist()?;
            }
            Modifier::new(rel, "VT")?.terminate(&Expr::Col(0).eq(Expr::lit(-1i64)), tp(99))
        })
        .unwrap();
    assert_eq!(n, 1, "the retried modification applied exactly once");
    assert_eq!(attempts, 2, "one superseded attempt, one successful retry");
    assert_eq!(
        db.metrics_snapshot().value("ongoingdb_cas_conflicts"),
        1,
        "the retry is counted as a conflict"
    );
}

#[test]
fn nested_gated_modification_does_not_self_deadlock() {
    // queue_after = 0 puts every attempt under the FIFO gate. A closure
    // nesting a gated modify_table on the same table would deadlock on
    // its own ticket; the gate detects the re-entry and runs the nested
    // call ungated instead. The outer CAS then conflicts once and the
    // retry succeeds.
    let db = Database::new();
    db.create_table(
        "T",
        OngoingRelation::from_tuples(schema(), base_rows(20)).unwrap(),
    )
    .unwrap();
    let policy = RetryPolicy {
        queue_after: 0,
        ..RetryPolicy::default()
    };
    let mut first = true;
    let (_, attempts) = db
        .modify_table_with("T", policy, |rel| {
            if first {
                first = false;
                db.modify_table_with("T", policy, |inner| {
                    let mut m = Modifier::new(inner, "VT")?;
                    m.insert_open(
                        vec![Value::Int(8_000), Value::Int(0), Value::Bool(false)],
                        tp(1),
                    )
                })?;
            }
            Modifier::new(rel, "VT")?.terminate(&Expr::Col(0).eq(Expr::lit(-1i64)), tp(99))
        })
        .unwrap();
    assert_eq!(attempts, 2);
    assert_eq!(db.table("T").unwrap().data().len(), 21);
}

#[test]
fn uncontended_modification_reports_one_attempt() {
    let db = Database::new();
    db.create_table(
        "T",
        OngoingRelation::from_tuples(schema(), base_rows(10)).unwrap(),
    )
    .unwrap();
    let (_, attempts) = db
        .modify_table_with("T", RetryPolicy::default(), |rel| {
            Modifier::new(rel, "VT")?.delete(&Expr::Col(0).eq(Expr::lit(-3i64)))
        })
        .unwrap();
    assert_eq!(attempts, 1);
}

#[test]
fn no_retry_policy_surfaces_the_first_conflict() {
    let db = Database::new();
    db.create_table(
        "T",
        OngoingRelation::from_tuples(schema(), base_rows(10)).unwrap(),
    )
    .unwrap();
    let r = db.modify_table_with("T", RetryPolicy::no_retry(), |rel| {
        db.put_table(
            "T",
            OngoingRelation::from_tuples(schema(), base_rows(3)).unwrap(),
        )
        .unwrap();
        Modifier::new(rel, "VT")?.delete(&Expr::Col(0).eq(Expr::lit(-1i64)))
    });
    match r {
        Err(EngineError::ConcurrentModification { table, attempts }) => {
            assert_eq!(table, "T");
            assert_eq!(attempts, 1);
        }
        other => panic!("expected ConcurrentModification, got {other:?}"),
    }
}

#[test]
fn queued_writers_commit_in_ticket_order() {
    // queue_after = 0: every attempt runs under the FIFO gate, so N
    // contending writers serialize and each commits on its first attempt.
    let db = Arc::new(Database::new());
    db.create_table(
        "T",
        OngoingRelation::from_tuples(schema(), base_rows(20)).unwrap(),
    )
    .unwrap();
    let policy = RetryPolicy {
        queue_after: 0,
        ..RetryPolicy::default()
    };
    let worst = Arc::new(AtomicU32::new(0));
    std::thread::scope(|s| {
        for t in 0..6i64 {
            let db = Arc::clone(&db);
            let worst = Arc::clone(&worst);
            s.spawn(move || {
                for r in 0..10i64 {
                    let (_, attempts) = db
                        .modify_table_with("T", policy, |rel| {
                            Modifier::new(rel, "VT")?.insert_open(
                                vec![Value::Int(t * SPACE + r), Value::Int(r), Value::Bool(false)],
                                tp(r % 9),
                            )
                        })
                        .expect("queued writer must not surface a conflict");
                    worst.fetch_max(attempts, Ordering::Relaxed);
                }
            });
        }
    });
    assert_eq!(db.table("T").unwrap().data().len(), 20 + 60);
    // Every writer forks *inside* the gate and all writers are gated, so
    // publications serialize completely: no CAS can ever fail.
    assert_eq!(
        worst.load(Ordering::Relaxed),
        1,
        "queued writers conflicted"
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
    std::thread::scope(|s| {
        for t in 0..WRITERS {
            let db = Arc::clone(&db);
            s.spawn(move || {
                for r in 0..rounds {
                    db.modify_table("T", |rel| {
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
