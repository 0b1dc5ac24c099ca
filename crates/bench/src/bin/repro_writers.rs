//! `repro_writers`: the multi-writer write path — keyed qualification,
//! the per-table writer queue under contention, partial compaction — in the
//! paper's Sec. I setting of an ongoing database absorbing change from
//! many clients at once.
//!
//! Three claims are asserted, in deterministic work units where possible:
//!
//! 1. **Keyed qualification is O(rows touched).** A 10-row keyed
//!    modification costs the same qualification work whether the table
//!    holds 10 k or 100 k rows (≤ 1.1× across the 10× step), while the
//!    scan path grows ~10×.
//! 2. **Contention is absorbed.** 8 writer threads × 50 rounds of
//!    `modify_table` (disjoint key spaces) queue on the table's FIFO
//!    writer gate and all commit, each closure running exactly once. The
//!    gate-wait histogram holds one observation per publication. The
//!    final table equals a serialized naive replay — no lost updates, no
//!    duplicated applications.
//! 3. **Compaction stays partial.** Across the whole contended run, no
//!    single publication spends O(table) write work.

use ongoing_bench::{header, naive, row, scaled};
use ongoing_core::time::tp;
use ongoing_core::OngoingInterval;
use ongoing_engine::modify::Modifier;
use ongoing_engine::Database;
use ongoing_relation::{Expr, OngoingRelation, Schema, Tuple, Value};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

const WRITERS: i64 = 8;
const ROUNDS: i64 = 50;
const SPACE: i64 = 1_000_000;

fn schema() -> Schema {
    Schema::builder().int("K").int("G").interval("VT").build()
}

fn k_eq(k: i64) -> Expr {
    Expr::Col(0).eq(Expr::lit(k))
}

fn seeded(rows: usize) -> OngoingRelation {
    let mut r = OngoingRelation::new(schema());
    for i in 0..rows as i64 {
        r.insert(vec![
            Value::Int(i),
            Value::Int(i % 11),
            Value::Interval(OngoingInterval::fixed(tp(i % 89), tp(i % 89 + 5))),
        ])
        .unwrap();
    }
    r
}

/// Claim 1: keyed qualification work is flat across table sizes.
fn keyed_scaling() {
    println!("10-row keyed modification vs table size (qualification work units):\n");
    let widths = [12, 14, 14];
    header(&["rows", "keyed [wu]", "scan [wu]"], &widths);
    let sizes = [scaled(10_000), scaled(100_000)];
    let mut keyed = Vec::new();
    let mut scan = Vec::new();
    for &n in &sizes {
        let cost = |index: bool| {
            let db = Database::new();
            db.create_table("T", seeded(n)).unwrap();
            if index {
                db.create_key_index("T", "K").unwrap();
            }
            let before = db.table("T").unwrap().data().qual_work();
            db.modify_table("T", |rel| {
                let mut m = Modifier::new(rel, "VT")?;
                for i in 0..10i64 {
                    m.terminate(&k_eq(n as i64 / 2 + i * 13), tp(3_000))?;
                }
                Ok(())
            })
            .unwrap();
            db.table("T").unwrap().data().qual_work() - before
        };
        let (k, s) = (cost(true), cost(false));
        row(&[n.to_string(), k.to_string(), s.to_string()], &widths);
        keyed.push(k);
        scan.push(s);
    }
    let flat = keyed[1] as f64 / keyed[0] as f64;
    let growth = scan[1] as f64 / scan[0] as f64;
    println!("\nkeyed growth across 10x rows: {flat:.2}x; scan growth: {growth:.2}x");
    assert!(
        flat <= 1.1,
        "keyed qualification must stay flat across a 10x size step (got {flat:.2}x)"
    );
    assert!(
        growth >= 8.0,
        "scan qualification must grow with the table (got {growth:.2}x)"
    );
}

/// One writer round: insert a fresh pair, rework older own keys.
fn writer_round(m: &mut Modifier, t: i64, r: i64) -> ongoing_engine::Result<()> {
    let id = |round: i64, half: i64| t * SPACE + round * 2 + half;
    m.insert_open(
        vec![Value::Int(id(r, 0)), Value::Int(r), Value::Bool(false)],
        tp(r % 50),
    )?;
    m.insert_open(
        vec![Value::Int(id(r, 1)), Value::Int(r), Value::Bool(false)],
        tp(r % 50),
    )?;
    if r % 3 == 0 && r >= 3 {
        m.terminate(&k_eq(id(r - 3, 0)), tp(90))?;
    }
    if r % 5 == 0 && r >= 5 {
        m.update(&k_eq(id(r - 5, 1)), &[(1, Value::Int(-r))], tp(45))?;
    }
    if r % 7 == 0 && r >= 7 {
        m.delete(&k_eq(id(r - 7, 0)))?;
    }
    Ok(())
}

fn replay_round(rows: &mut Vec<Tuple>, t: i64, r: i64) {
    let id = |round: i64, half: i64| t * SPACE + round * 2 + half;
    naive::insert_open(rows, id(r, 0), r, tp(r % 50));
    naive::insert_open(rows, id(r, 1), r, tp(r % 50));
    if r % 3 == 0 && r >= 3 {
        naive::terminate(rows, id(r - 3, 0), tp(90));
    }
    if r % 5 == 0 && r >= 5 {
        naive::update(rows, id(r - 5, 1), -r, tp(45));
    }
    if r % 7 == 0 && r >= 7 {
        naive::delete(rows, id(r - 7, 0));
    }
}

fn sorted(mut rows: Vec<Tuple>) -> Vec<Tuple> {
    rows.sort_unstable_by(|a, b| ongoing_relation::value::cmp_rows(a.values(), b.values()));
    rows
}

/// Claims 2 + 3: contended writers lose nothing; folds stay partial.
fn contended_writers() {
    let n = scaled(20_000);
    println!("\n{WRITERS} writers x {ROUNDS} rounds of modify_table over {n} rows:\n");
    let db = Arc::new(Database::new());
    db.create_table("T", seeded(n)).unwrap();
    db.create_key_index("T", "K").unwrap();
    let base: Vec<Tuple> = db.table("T").unwrap().data().iter().cloned().collect();

    let runs = Arc::new(AtomicU32::new(0));
    let work0 = db.table("T").unwrap().data().write_work();
    std::thread::scope(|s| {
        for t in 0..WRITERS {
            let db = Arc::clone(&db);
            let runs = Arc::clone(&runs);
            s.spawn(move || {
                for r in 0..ROUNDS {
                    db.modify_table("T", |rel| {
                        runs.fetch_add(1, Ordering::Relaxed);
                        writer_round(&mut Modifier::new(rel, "VT")?, t, r)
                    })
                    .unwrap_or_else(|e| panic!("writer {t} round {r}: {e}"));
                }
            });
        }
    });

    let commits = (WRITERS * ROUNDS) as u32;
    let runs = runs.load(Ordering::Relaxed);
    let data = db.table("T").unwrap().data().clone();
    println!("commits: {commits}; closure runs: {runs}");
    assert_eq!(runs, commits, "every closure must run exactly once");
    println!(
        "physical write work under contention: {} wu total",
        data.write_work() - work0
    );

    // The publication path reports through the metrics registry: how
    // long each publisher queued for the table's writer gate.
    let snap = db.metrics_snapshot();
    let wait = snap
        .histogram("ongoingdb_writer_wait_us")
        .expect("writer-wait histogram");
    let publications = snap.value("ongoingdb_publications");
    println!(
        "writer wait histogram: count={} sum={} us publications={publications}",
        wait.count, wait.sum,
    );
    // One observation per publication: the writers' commits plus the two
    // setup publications (create_table, create_key_index).
    assert_eq!(
        publications,
        u64::from(commits) + 2,
        "every commit publishes once"
    );
    assert_eq!(
        wait.count, publications,
        "one writer-wait observation per publication"
    );

    // Differential replay: disjoint key spaces commute, so per-writer
    // program order is a valid serialization of the committed history.
    let mut replay = base;
    for t in 0..WRITERS {
        for r in 0..ROUNDS {
            replay_round(&mut replay, t, r);
        }
    }
    let live: Vec<Tuple> = data.iter().cloned().collect();
    let rows = replay.len();
    assert_eq!(live.len(), rows, "lost or duplicated updates");
    assert_eq!(
        sorted(live),
        sorted(replay),
        "contended table diverged from the serialized replay"
    );
    println!("replay check: {rows} rows identical to the serialized naive model");
}

fn main() {
    println!("repro_writers: the multi-writer write path under contention.\n");
    keyed_scaling();
    contended_writers();
    println!("\nok: keyed qualification is O(rows touched), contended writers queue and commit once each, no updates lost.");
}
