//! Fig. 8: number of query re-evaluations on Incumbent.
//!
//! `Qσ_ovlp` and `Qσ_bef` (selection with a temporal predicate whose fixed
//! window spans the last 10 % of the history). The ongoing approach
//! evaluates once; Clifford's approach re-evaluates at each reference time.
//! Prints the cumulative cost after k = 0..6 re-evaluations and the
//! break-even point. The paper's result: ongoing is faster after 2
//! re-evaluations for `overlaps` and 3 for `before`.
//!
//! The break-even *assertion* uses deterministic
//! [`ExecStats`](ongoing_engine::ExecStats) work units (identical on every
//! machine and at every thread count); wall-clock durations are printed
//! for context only.

use ongoing_bench::{
    break_even_reevaluations, header, ms, row, scaled, time_clifford_stats, time_ongoing_stats,
    work_break_even,
};
use ongoing_core::allen::TemporalPredicate;
use ongoing_datasets::{incumbent_database, History};
use ongoing_engine::baseline::clifford;
use ongoing_engine::{queries, PlannerConfig};

fn main() {
    let n = scaled(40_000);
    println!("Fig. 8: number of query re-evaluations on Incumbent (n = {n}).\n");
    let db = incumbent_database(n, 42);
    let h = History::incumbent();
    let w = h.last_fraction(0.1);
    let cfg = PlannerConfig::default();
    let rt = clifford::cliff_max_reference_time(&db).unwrap();

    for pred in [TemporalPredicate::Overlaps, TemporalPredicate::Before] {
        let plan = queries::selection(&db, "Incumbent", pred, (w.start, w.end)).unwrap();
        let (t_on, on_res, s_on) = time_ongoing_stats(&db, &plan, &cfg, 5);
        let (t_cl, cl_res, s_cl) = time_clifford_stats(&db, &plan, &cfg, rt, 5);

        println!(
            "Qσ_{} — ongoing: {} ms ({} tuples) | Cliff_max per evaluation: {} ms ({} tuples)",
            pred.name(),
            ms(t_on),
            on_res.len(),
            ms(t_cl),
            cl_res.len()
        );
        println!("  ongoing work units: {s_on}");
        println!("  Cliff_max work units: {s_cl}");
        let (w_on, w_cl) = (s_on.total_work(), s_cl.total_work());
        let widths = [18, 14, 16, 14, 16];
        header(
            &[
                "# re-evaluations",
                "ongoing [ms]",
                "ongoing [work]",
                "Cliff [ms]",
                "Cliff [work]",
            ],
            &widths,
        );
        for k in 0..=6u32 {
            row(
                &[
                    k.to_string(),
                    ms(t_on), // computed once, stays valid
                    w_on.to_string(),
                    ms(t_cl * k.max(1)),
                    (w_cl * u64::from(k.max(1))).to_string(),
                ],
                &widths,
            );
        }
        let be_work = work_break_even(w_on, w_cl);
        let be_time = break_even_reevaluations(t_on, t_cl);
        println!(
            "→ ongoing is faster after {be_work} re-evaluation(s) by work units \
             (wall-clock estimate: {be_time}; paper: 2 for overlaps, 3 for before)\n"
        );
        // Deterministic shape assertions: evaluating once in ongoing mode
        // costs at least one Clifford evaluation (the extra interval-set
        // merges) but only a small constant number of them.
        assert!(
            w_on >= w_cl,
            "ongoing evaluation must cost at least one instantiated evaluation \
             (got {w_on} vs {w_cl} work units)"
        );
        assert!(
            (1..=6).contains(&be_work),
            "work-unit break-even must be a small constant, got {be_work}"
        );
    }
}
