//! Fig. 10: number of input tuples (`Qσ_ovlp` on Dsc).
//!
//! (a) runtime of the ongoing approach vs. Cliff_max as the input grows —
//! both scale linearly; (b) the number of re-evaluations after which the
//! ongoing approach wins — constant in the input size.
//!
//! Scaling and break-even *assertions* run on deterministic
//! [`ExecStats`](ongoing_engine::ExecStats) work units, so they cannot
//! flake under CPU contention; wall-clock durations stay in the table as
//! informational output.

use ongoing_bench::{
    header, ms, row, scaled, time_clifford_stats, time_ongoing_stats, work_break_even,
};
use ongoing_core::allen::TemporalPredicate;
use ongoing_datasets::synthetic::{generate, SyntheticConfig};
use ongoing_datasets::History;
use ongoing_engine::baseline::clifford;
use ongoing_engine::{queries, Database, PlannerConfig};

fn main() {
    let base = scaled(20_000);
    let sizes = [base, base * 2, base * 4, base * 8];
    println!("Fig. 10: number of input tuples (Qσ_ovlp on Dsc, sizes {sizes:?}).\n");
    let cfg = PlannerConfig::default();
    let h = History::synthetic();
    let w = h.last_fraction(0.1);

    let widths = [12, 14, 16, 15, 16, 16];
    header(
        &[
            "# tuples",
            "ongoing [ms]",
            "ongoing [work]",
            "Cliff_max [ms]",
            "Cliff [work]",
            "# re-evaluations",
        ],
        &widths,
    );
    let mut works = Vec::new();
    let mut breaks = Vec::new();
    for &n in &sizes {
        let db = Database::new();
        db.create_table("Dsc", generate(&SyntheticConfig::dsc(n, 42)))
            .unwrap();
        let plan =
            queries::selection(&db, "Dsc", TemporalPredicate::Overlaps, (w.start, w.end)).unwrap();
        let rt = clifford::cliff_max_reference_time(&db);
        let (t_on, _, s_on) = time_ongoing_stats(&db, &plan, &cfg, 5);
        let (t_cl, _, s_cl) = time_clifford_stats(&db, &plan, &cfg, rt, 5);
        let be = work_break_even(s_on.total_work(), s_cl.total_work());
        row(
            &[
                n.to_string(),
                ms(t_on),
                s_on.total_work().to_string(),
                ms(t_cl),
                s_cl.total_work().to_string(),
                be.to_string(),
            ],
            &widths,
        );
        works.push((s_on.total_work(), s_cl.total_work()));
        breaks.push(be);
    }

    // Shape (deterministic): work units scale linearly in the input —
    // growing the input 8x keeps the per-tuple work within a factor of two
    // of the smallest size — and the break-even count stays constant.
    let per_tuple_first = works[0].0 as f64 / sizes[0] as f64;
    let per_tuple_last = works[3].0 as f64 / sizes[3] as f64;
    assert!(
        per_tuple_last < per_tuple_first * 2.0 && per_tuple_first < per_tuple_last * 2.0,
        "ongoing work units must scale ~linearly: {per_tuple_first:.2} vs {per_tuple_last:.2} per tuple"
    );
    let spread = breaks.iter().max().unwrap() - breaks.iter().min().unwrap();
    assert!(
        spread <= 1,
        "work-unit break-even count must stay ~constant, got {breaks:?}"
    );
    println!(
        "\nwork units grow linearly; break-even stays at {breaks:?} re-evaluations (paper: ~2, constant)."
    );
}
