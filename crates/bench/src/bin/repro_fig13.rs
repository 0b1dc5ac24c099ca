//! Fig. 13: result size vs. reference time on MozillaBugs.
//!
//! Four panels: selections `Qσ_ovlp(B)` / `Qσ_bef(B)` and complex joins
//! `QC⋈_ovlp` / `QC⋈_bef`. Each prints the (constant) ongoing result size
//! against the instantiated result size across reference times.
//!
//! Paper shapes: for `overlaps` the instantiated size climbs monotonically
//! to *exactly* the ongoing size (the ongoing result is optimal); for
//! `before` the instantiated curve peaks and then falls (expanding
//! intervals eventually stop being before the window), with the ongoing
//! size equal to the peak for selections and slightly above it for joins.

use ongoing_bench::{header, row, scaled};
use ongoing_core::allen::TemporalPredicate;
use ongoing_core::date::AsDate;
use ongoing_core::TimePoint;
use ongoing_datasets::{mozilla_database, History};
use ongoing_engine::plan::compile;
use ongoing_engine::{queries, Database, LogicalPlan, PlannerConfig};

fn panel(db: &Database, plan: &LogicalPlan, label: &str, optimal_expected: bool) {
    let h = History::mozilla();
    let cfg = PlannerConfig::default();
    let phys = compile(db, plan, &cfg).unwrap();
    let ctx = cfg.exec_context();
    let (ongoing, _) = phys.execute_with_stats(&ctx).unwrap();
    let ongoing_size = ongoing.coalesce().len();
    println!("{label}: |ongoing| = {ongoing_size}");
    let widths = [14, 16, 11];
    header(&["rt", "|instantiated|", "|ongoing|"], &widths);
    let steps = 8;
    let mut sizes = Vec::new();
    for i in 0..=steps {
        let rt = TimePoint::new(h.start.ticks() + h.days() * i / steps);
        let (snap, _) = phys.execute_at_with_stats(rt, &ctx).unwrap();
        row(
            &[
                AsDate(rt).to_string(),
                snap.len().to_string(),
                ongoing_size.to_string(),
            ],
            &widths,
        );
        sizes.push(snap.len());
    }
    let max_inst = *sizes.iter().max().unwrap();
    assert!(
        max_inst <= ongoing_size,
        "{label}: ongoing result must contain the largest instantiated result"
    );
    if optimal_expected {
        assert_eq!(
            max_inst, ongoing_size,
            "{label}: for overlaps the ongoing size equals the largest instantiation"
        );
        println!("→ ongoing result size is optimal (= largest instantiated result)\n");
    } else {
        println!(
            "→ largest instantiated result {max_inst} vs ongoing {ongoing_size} \
             (before: close to optimal)\n"
        );
    }
}

fn main() {
    let n = scaled(2_000);
    println!("Fig. 13: result size vs. reference time on MozillaBugs (bugs = {n}).\n");
    let db = mozilla_database(n, 42);
    let h = History::mozilla();
    let w = h.last_fraction(0.1);

    let sel = |pred| queries::selection(&db, "BugInfo", pred, (w.start, w.end)).unwrap();
    panel(
        &db,
        &sel(TemporalPredicate::Overlaps),
        "(a) Qσ_ovlp(B)",
        true,
    );
    panel(&db, &sel(TemporalPredicate::Before), "(b) Qσ_bef(B)", false);

    let join_db = mozilla_database(scaled(400), 42);
    let join = |pred| queries::complex_join(&join_db, pred).unwrap();
    panel(
        &join_db,
        &join(TemporalPredicate::Overlaps),
        "(c) QC⋈_ovlp(A, S, B)",
        true,
    );
    panel(
        &join_db,
        &join(TemporalPredicate::Before),
        "(d) QC⋈_bef(A, S, B)",
        false,
    );
}
