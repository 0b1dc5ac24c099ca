//! Storage-substrate benchmarks: tuple codec, chunk files (the durable
//! on-disk format), and the write path of the versioned copy-on-write
//! tuple store.
//!
//! The `cow_writes` group carries a *deterministic* assertion next to the
//! wall-clock numbers: a fixed 10-row modification must cost the same
//! physical write units (within 1.1×) whether the table holds 10 k or
//! 100 k rows, while the pre-refactor clone path (snapshot every tuple per
//! modification) grows ~10×. Wall-clock medians are informational; the
//! work-unit assertion is the contract.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ongoing_core::time::tp;
use ongoing_datasets::synthetic::{generate, SyntheticConfig};
use ongoing_engine::modify::Modifier;
use ongoing_engine::storage::chunkfile::{decode_chunk, encode_chunk};
use ongoing_engine::storage::codec::{decode_tuple, encode_tuple};
use ongoing_engine::Database;
use ongoing_relation::{Expr, Tuple, Value};
use std::hint::black_box;

fn codec(c: &mut Criterion) {
    let rel = generate(&SyntheticConfig::dex(4_096, None, 42));
    let encoded: Vec<_> = rel.iter().map(encode_tuple).collect();
    let bytes: usize = encoded.iter().map(|b| b.len()).sum();
    let mut g = c.benchmark_group("codec");
    g.throughput(Throughput::Bytes(bytes as u64));
    g.bench_function("encode", |b| {
        b.iter(|| {
            for t in rel.iter() {
                black_box(encode_tuple(black_box(t)));
            }
        })
    });
    g.bench_function("decode", |b| {
        b.iter(|| {
            for e in &encoded {
                black_box(decode_tuple(black_box(e)).unwrap());
            }
        })
    });
    g.finish();
}

fn chunks(c: &mut Criterion) {
    let rows: Vec<Tuple> = generate(&SyntheticConfig::dex(4_096, None, 42))
        .iter()
        .cloned()
        .collect();
    let mut g = c.benchmark_group("chunkfile");
    g.bench_function("encode_4k_tuples", |b| {
        b.iter(|| black_box(encode_chunk(black_box(&rows)).len()))
    });
    let encoded = encode_chunk(&rows);
    g.bench_function("decode_4k_tuples", |b| {
        b.iter(|| black_box(decode_chunk(black_box(&encoded)).unwrap().len()))
    });
    g.finish();
}

/// A keyed DEX-style table registered in a fresh catalog.
fn cow_db(rows: usize) -> Database {
    let db = Database::new();
    db.create_table("T", generate(&SyntheticConfig::dex(rows, None, 42)))
        .unwrap();
    db
}

/// Terminate 10 keys spread through the middle of the table, returning the
/// store's deterministic write-unit cost of the modification.
fn edit_ten(db: &Database, rows: usize) -> u64 {
    let before = db.table("T").unwrap().data().write_work();
    db.modify_table("T", |rel| {
        let mut m = Modifier::new(rel, "VT")?;
        for i in 0..10i64 {
            m.terminate(
                &Expr::Col(0).eq(Expr::lit(rows as i64 / 2 + i * 7)),
                tp(4_000),
            )?;
        }
        Ok(())
    })
    .unwrap();
    db.table("T").unwrap().data().write_work() - before
}

/// Write-heavy workload over the copy-on-write store: O(delta) vs the
/// pre-refactor O(table) clone path, asserted on work units and timed.
fn cow_writes(c: &mut Criterion) {
    // -- Deterministic contract (independent of the timing loops below),
    // shared with repro_churn via ongoing_bench::assert_odelta_contract.
    let sizes = [10_000usize, 100_000];
    let units: Vec<u64> = sizes.iter().map(|&n| edit_ten(&cow_db(n), n)).collect();
    let clone_units: Vec<u64> = sizes
        .iter()
        .map(|&n| cow_db(n).table("T").unwrap().data().len() as u64)
        .collect();
    ongoing_bench::assert_odelta_contract(&[units[0], units[1]], &[clone_units[0], clone_units[1]]);
    println!(
        "cow_writes contract: 10-row edit = {} wu vs {} wu across 10x rows; \
         clone path {} wu vs {} wu",
        units[0], units[1], clone_units[0], clone_units[1]
    );

    // -- Wall-clock medians.
    let mut g = c.benchmark_group("cow_writes");
    for &n in &sizes {
        let db = cow_db(n);
        g.bench_function(format!("modify_10_rows/{n}"), |b| {
            b.iter(|| black_box(edit_ten(&db, n)))
        });
        let rel = db.table("T").unwrap().data().clone();
        g.bench_function(format!("clone_path/{n}"), |b| {
            // The pre-refactor write path: snapshot every tuple.
            b.iter(|| {
                let cloned: Vec<Tuple> = rel.iter().cloned().collect();
                black_box(cloned.len())
            })
        });
        g.bench_function(format!("fork_version/{n}"), |b| {
            // The COW fork a writer (or reader pin) actually pays.
            b.iter(|| black_box(rel.clone().len()))
        });
    }
    g.finish();
}

/// Sustained insert/terminate churn through the catalog (amortized
/// compaction included) — the write-path half of `repro_churn`, timed.
fn churn(c: &mut Criterion) {
    let rows = 20_000usize;
    let mut g = c.benchmark_group("churn");
    g.bench_function("insert_terminate_round/20k", |b| {
        let db = cow_db(rows);
        let mut r = 0i64;
        b.iter(|| {
            r += 1;
            db.modify_table("T", |rel| {
                let mut m = Modifier::new(rel, "VT")?;
                m.insert_open(
                    vec![
                        Value::Int(rows as i64 + r),
                        Value::Int(r),
                        Value::Bool(false),
                    ],
                    tp(r % 3_000),
                )?;
                m.terminate(&Expr::Col(0).eq(Expr::lit((r * 31) % rows as i64)), tp(500))?;
                Ok(())
            })
            .unwrap();
        })
    });
    g.finish();
}

/// 1 000-round churn on a 100 000-row table with a keyed index — the
/// partial-compaction + keyed-qualification contract at scale, asserted
/// on deterministic work units before the timing loop runs:
///
/// * no publication (compaction rounds included) spends O(table) write
///   work — folds stay O(fragmented run);
/// * chunk fragmentation stays inside the storage policy's bound;
/// * keyed qualification stays O(rows touched) per round on the churned,
///   fragmented layout.
fn churn_large(c: &mut Criterion) {
    let rows = 100_000usize;
    let rounds = 1_000i64;
    let db = cow_db(rows);
    db.create_key_index("T", "ID").unwrap();
    let data0 = db.table("T").unwrap().data().clone();
    let (mut prev_work, qual0) = (data0.write_work(), data0.qual_work());
    let mut max_spike = 0u64;
    let mut max_chunks = 0usize;
    for r in 0..rounds {
        db.modify_table("T", |rel| {
            let mut m = Modifier::new(rel, "VT")?;
            m.insert_open(
                vec![
                    Value::Int(rows as i64 + r),
                    Value::Int(r),
                    Value::Bool(false),
                ],
                tp(r % 3_000),
            )?;
            m.terminate(&Expr::Col(0).eq(Expr::lit((r * 31) % rows as i64)), tp(500))?;
            Ok(())
        })
        .unwrap();
        let data = db.table("T").unwrap().data().clone();
        max_spike = max_spike.max(data.write_work() - prev_work);
        prev_work = data.write_work();
        max_chunks = max_chunks.max(data.storage_summary().chunks);
    }
    let data = db.table("T").unwrap().data().clone();
    let qual_per_round = (data.qual_work() - qual0) as f64 / rounds as f64;
    let ideal = data.len().div_ceil(ongoing_relation::TARGET_CHUNK_ROWS);
    println!(
        "churn_large contract: worst publication {max_spike} wu on {rows} rows; \
         peak {max_chunks} chunks (ideal {ideal}); \
         keyed qualification {qual_per_round:.1} wu/round"
    );
    assert!(
        (max_spike as f64) < rows as f64 / 20.0,
        "publication spike {max_spike} wu ≈ O(table): partial compaction regressed"
    );
    let slack = ongoing_relation::store::COMPACT_CHUNK_SLACK.max(ideal);
    assert!(
        max_chunks <= ideal + slack + 1,
        "fragmentation escaped the policy (peak {max_chunks}, ideal {ideal})"
    );
    assert!(
        qual_per_round < 200.0,
        "keyed qualification {qual_per_round:.1} wu/round is not O(rows touched)"
    );

    let mut g = c.benchmark_group("churn_large");
    let mut r = rounds;
    g.bench_function("keyed_insert_terminate_round/100k", |b| {
        b.iter(|| {
            r += 1;
            db.modify_table("T", |rel| {
                let mut m = Modifier::new(rel, "VT")?;
                m.insert_open(
                    vec![
                        Value::Int(rows as i64 + r),
                        Value::Int(r),
                        Value::Bool(false),
                    ],
                    tp(r % 3_000),
                )?;
                m.terminate(&Expr::Col(0).eq(Expr::lit((r * 31) % rows as i64)), tp(500))?;
                Ok(())
            })
            .unwrap();
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = codec, chunks, cow_writes, churn, churn_large
}
criterion_main!(benches);
