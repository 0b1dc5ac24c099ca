//! Fig. 9: location of ongoing time intervals.
//!
//! `Q⋈_ovlp` (self-join with an equality conjunct `θN` on `K` plus the
//! temporal `overlaps` conjunct) on Dex (expanding intervals, Fig. 9a) and
//! Dsh (shrinking intervals, Fig. 9b). The 10-year history is divided into
//! 5 segments; all ongoing anchor points are placed into one segment per
//! run. The "w/out ongoing intervals" baseline replaces every ongoing
//! interval with a fixed one.
//!
//! Paper shape: on Dex the ongoing runtime *decreases* toward later
//! segments (expanding intervals placed late overlap less); on Dsh it
//! *increases* (shrinking intervals ending late live longer). The fixed
//! baseline accounts for 80–90 % of the runtime. The driver of both trends
//! is deterministic — the number of qualifying pairs — so the shape
//! assertions check the result cardinalities; wall-clock times are
//! reported alongside.

use ongoing_bench::{header, ms, row, scaled, time_clifford, time_ongoing};
use ongoing_core::allen::TemporalPredicate;
use ongoing_datasets::synthetic::{defuse, generate, SyntheticConfig};
use ongoing_datasets::History;
use ongoing_engine::baseline::clifford;
use ongoing_engine::{queries, Database, PlannerConfig};

struct SegmentRun {
    result_size: usize,
    t_ongoing: std::time::Duration,
    t_baseline: std::time::Duration,
}

fn run(kind: &str, make: impl Fn(usize) -> SyntheticConfig) -> Vec<SegmentRun> {
    let cfg = PlannerConfig::default();
    let h = History::synthetic();
    let widths = [9, 22, 13, 15, 16];
    header(
        &[
            "segment",
            "w/out ongoing [ms]",
            "ongoing [ms]",
            "Cliff_max [ms]",
            "|result| [pairs]",
        ],
        &widths,
    );
    let mut out = Vec::new();
    for seg in 0..5 {
        let rel = generate(&make(seg));
        let db = Database::new();
        db.create_table("D", rel.clone()).unwrap();
        let plan = queries::self_join(&db, "D", "K", TemporalPredicate::Overlaps).unwrap();
        let rt = clifford::cliff_max_reference_time(&db).unwrap();

        // Baseline without ongoing intervals: same query on the defused data.
        let fdb = Database::new();
        fdb.create_table("D", defuse(&rel, 2, h.end)).unwrap();
        let fplan = queries::self_join(&fdb, "D", "K", TemporalPredicate::Overlaps).unwrap();
        let (t_fixed, _) = time_ongoing(&fdb, &fplan, &cfg, 5);

        let (t_on, on_res) = time_ongoing(&db, &plan, &cfg, 5);
        let (t_cl, _) = time_clifford(&db, &plan, &cfg, rt, 5);
        row(
            &[
                seg.to_string(),
                ms(t_fixed),
                ms(t_on),
                ms(t_cl),
                on_res.len().to_string(),
            ],
            &widths,
        );
        out.push(SegmentRun {
            result_size: on_res.len(),
            t_ongoing: t_on,
            t_baseline: t_fixed,
        });
    }
    println!("({kind})\n");
    out
}

fn main() {
    let n = scaled(30_000);
    println!("Fig. 9: location of ongoing time intervals (Q⋈_ovlp, n = {n}).\n");

    println!("(a) Dex — expanding intervals [a, now):");
    let dex = run("work decreases toward later segments", |seg| {
        SyntheticConfig::dex(n, Some(seg), 42)
    });

    println!("(b) Dsh — shrinking intervals [now, b):");
    let dsh = run("work increases toward later segments", |seg| {
        SyntheticConfig::dsh(n, Some(seg), 42)
    });

    // Shape assertions on the deterministic driver of the runtime trends:
    // expanding intervals placed early join with more partners; shrinking
    // intervals ending late join with more partners.
    assert!(
        dex[0].result_size > dex[4].result_size,
        "Dex: early segments must produce more pairs ({} vs {})",
        dex[0].result_size,
        dex[4].result_size
    );
    assert!(
        dsh[4].result_size > dsh[0].result_size,
        "Dsh: late segments must produce more pairs ({} vs {})",
        dsh[4].result_size,
        dsh[0].result_size
    );
    let share = dex[2].t_baseline.as_secs_f64() / dex[2].t_ongoing.as_secs_f64();
    println!(
        "join processing without ongoing intervals accounts for {:.0}% of the ongoing runtime \
         (paper: 80–90%).",
        (share * 100.0).min(100.0)
    );
}
