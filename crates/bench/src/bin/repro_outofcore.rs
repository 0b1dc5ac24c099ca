//! `repro_outofcore`: the resource-governance headline contract — tables
//! several times the chunk-cache budget execute correctly and bounded.
//!
//! A checkpointed table ≥ 4× `DurableOptions::memory_budget` is reopened
//! *cold* (recovery materializes zero tuples) and driven through a
//! filtered scan and a hash join with a small build side. Asserted:
//!
//! 1. **Peak resident chunk bytes ≤ budget** — scans pin one morsel at a
//!    time and the cache makes room *before* admitting, so the budget is
//!    a hard ceiling, not a suggestion.
//! 2. **Results are bit-identical to the unbounded configuration** — the
//!    budget changes paging, never answers.
//! 3. **The cache counters are deterministic** — two identical budgeted
//!    runs report the same hits / misses / evictions / peak, byte for
//!    byte (queries run serially here; parallelism only races wall-clock,
//!    but counter equality is simplest to pin single-threaded).
//!
//! Reported: per-query wall-clock cold vs unbounded, plus the counters.

use ongoing_bench::{header, ms, row, scaled};
use ongoing_core::time::tp;
use ongoing_core::OngoingInterval;
use ongoing_engine::plan::optimizer::compile;
use ongoing_engine::storage::TempDir;
use ongoing_engine::{
    Database, DurableOptions, DurableStats, ExecContext, JoinStrategy, MetricsSnapshot,
    PlannerConfig, QueryBuilder,
};
use ongoing_relation::{Expr, OngoingRelation, Schema, Tuple, Value, TARGET_CHUNK_ROWS};
use std::path::Path;
use std::time::{Duration, Instant};

fn schema() -> Schema {
    Schema::builder().int("K").int("G").interval("VT").build()
}

fn opts(memory_budget: u64) -> DurableOptions {
    DurableOptions {
        fsync: false,
        checkpoint_bytes: u64::MAX,
        memory_budget,
    }
}

fn rows(n: usize) -> Vec<Tuple> {
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

/// Total and largest chunk-file sizes under `<dir>/chunks`.
fn chunk_bytes(dir: &Path) -> (u64, u64) {
    let mut total = 0;
    let mut max = 0;
    for entry in std::fs::read_dir(dir.join("chunks")).expect("chunks dir") {
        let len = entry.unwrap().metadata().unwrap().len();
        total += len;
        max = max.max(len);
    }
    (total, max)
}

/// The governed workload: a filtered scan of `T` and a hash join probing
/// `T` with the small `S`. Serial execution keeps every counter exact.
fn run_queries(db: &Database) -> (Vec<Tuple>, Vec<Tuple>, Duration, Duration) {
    let cfg = PlannerConfig {
        join_strategy: JoinStrategy::Hash,
        parallelism: 1,
    };
    let ctx = ExecContext::serial();

    let filter = QueryBuilder::scan(db, "T")
        .unwrap()
        .filter(|s| Ok(Expr::col(s, "G")?.eq(Expr::lit(3i64))))
        .unwrap()
        .build();
    let t0 = Instant::now();
    let filtered: Vec<Tuple> = compile(db, &filter, &cfg)
        .unwrap()
        .execute_with_stats(&ctx)
        .unwrap()
        .0
        .iter()
        .cloned()
        .collect();
    let t_filter = t0.elapsed();

    let join = QueryBuilder::scan_as(db, "T", "T")
        .unwrap()
        .join(QueryBuilder::scan_as(db, "S", "S").unwrap(), |s| {
            Ok(Expr::col(s, "T.K")?.eq(Expr::col(s, "S.K")?))
        })
        .unwrap()
        .build();
    let t1 = Instant::now();
    let joined: Vec<Tuple> = compile(db, &join, &cfg)
        .unwrap()
        .execute_with_stats(&ctx)
        .unwrap()
        .0
        .iter()
        .cloned()
        .collect();
    let t_join = t1.elapsed();
    (filtered, joined, t_filter, t_join)
}

/// One budgeted pass over a fresh open: queries + the stats they leave,
/// both as the typed [`DurableStats`] (asserted on) and as the metrics
/// registry's view of the same counters (reported).
fn budgeted_pass(
    dir: &Path,
    budget: u64,
) -> (Vec<Tuple>, Vec<Tuple>, DurableStats, MetricsSnapshot) {
    let db = Database::open_with(dir, opts(budget)).unwrap();
    db.table("T").unwrap();
    db.table("S").unwrap();
    assert_eq!(
        db.durable_stats().unwrap().tuples_loaded,
        0,
        "budgeted open must materialize zero tuples"
    );
    let (filtered, joined, t_filter, t_join) = run_queries(&db);
    let stats = db.durable_stats().unwrap();
    let snap = db.metrics_snapshot();
    println!(
        "  budget {budget:>9} B: filter {} ms, join {} ms",
        ms(t_filter),
        ms(t_join)
    );
    (filtered, joined, stats, snap)
}

fn main() {
    println!(
        "repro_outofcore: a table ≥ 4x the chunk-cache budget scans and joins \
         within budget, bit-identically to the unbounded configuration.\n"
    );
    let chunks = scaled(16).max(8);
    let dir = TempDir::new("repro-ooc");
    {
        let db = Database::open_with(dir.path(), opts(u64::MAX)).unwrap();
        db.create_table(
            "T",
            OngoingRelation::from_tuples(schema(), rows(chunks * TARGET_CHUNK_ROWS)).unwrap(),
        )
        .unwrap();
        db.create_table(
            "S",
            OngoingRelation::from_tuples(schema(), rows(64)).unwrap(),
        )
        .unwrap();
        db.persist().unwrap();
    }
    let (total, max_file) = chunk_bytes(dir.path());
    let budget = (total / 4).max(2 * max_file);
    assert!(
        total >= 4 * budget,
        "table on disk ({total} B) must be ≥ 4x the budget ({budget} B)"
    );
    println!(
        "table: {} rows in {chunks} sealed chunks, {total} B on disk; budget {budget} B \
         ({:.1}x out-of-core)\n",
        chunks * TARGET_CHUNK_ROWS,
        total as f64 / budget as f64
    );

    let (f1, j1, s1, m1) = budgeted_pass(dir.path(), budget);
    let (f2, j2, s2, m2) = budgeted_pass(dir.path(), budget);

    // Unbounded baseline over the same directory.
    let db = Database::open_with(dir.path(), opts(u64::MAX)).unwrap();
    let (f_full, j_full, t_filter, t_join) = run_queries(&db);
    println!(
        "  unbounded    : filter {} ms, join {} ms\n",
        ms(t_filter),
        ms(t_join)
    );

    assert!(
        s1.cache_peak_bytes <= budget,
        "peak resident {} B broke the {budget} B budget",
        s1.cache_peak_bytes
    );
    assert!(s1.cache_evictions > 0, "a 4x-budget scan must evict");
    assert_eq!(f1, f_full, "budgeted filter result diverged from unbounded");
    assert_eq!(j1, j_full, "budgeted join result diverged from unbounded");
    assert_eq!(f1, f2, "budgeted filter result not reproducible");
    assert_eq!(j1, j2, "budgeted join result not reproducible");
    let counters = |s: &DurableStats| {
        (
            s.cache_hits,
            s.cache_misses,
            s.cache_evictions,
            s.cache_peak_bytes,
        )
    };
    assert_eq!(
        counters(&s1),
        counters(&s2),
        "cache counters must be deterministic across identical runs"
    );

    // The same counters through the metrics registry's stable names —
    // the typed DurableStats above stays the asserted source of truth.
    let widths = [10, 12, 12, 12, 14, 10];
    header(
        &["run", "hits", "misses", "evictions", "peak [B]", "hit rate"],
        &widths,
    );
    for (name, m) in [("first", &m1), ("second", &m2)] {
        let (hits, misses) = (
            m.value("ongoingdb_cache_hits"),
            m.value("ongoingdb_cache_misses"),
        );
        row(
            &[
                name.to_string(),
                hits.to_string(),
                misses.to_string(),
                m.value("ongoingdb_cache_evictions").to_string(),
                m.value("ongoingdb_cache_peak_bytes").to_string(),
                format!(
                    "{:.1}%",
                    100.0 * hits as f64 / (hits + misses).max(1) as f64
                ),
            ],
            &widths,
        );
    }
    assert_eq!(
        m1.value("ongoingdb_cache_peak_bytes"),
        s1.cache_peak_bytes,
        "registry view must agree with DurableStats"
    );
    println!(
        "\nrepro_outofcore: {} filter rows + {} join rows identical at {:.1}x \
         out-of-core; peak {} B ≤ budget {} B; counters deterministic.",
        f1.len(),
        j1.len(),
        total as f64 / budget as f64,
        s1.cache_peak_bytes,
        budget
    );
}
