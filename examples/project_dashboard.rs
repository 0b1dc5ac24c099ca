//! Materialized ongoing views powering a project dashboard (Sec. IX-C).
//!
//! The Incumbent workload: projects are assigned to university employees,
//! a fifth of the assignments are still running (`[start, now)`). A
//! dashboard wants "who worked on something during the review window?" at
//! *many different reference times* (today, end of quarter, an auditor's
//! back-dated view...).
//!
//! With Clifford's state of the art every request re-runs the query. With
//! ongoing results the query runs **once** into a materialized view; every
//! request is a cheap bind pass — and provably identical to re-evaluation.
//!
//! ```sh
//! cargo run --release --example project_dashboard
//! ```

use ongoing_core::allen::TemporalPredicate;
use ongoing_core::date::AsDate;
use ongoing_datasets::{incumbent_database, History};
use ongoingdb::engine::matview::MaterializedView;
use ongoingdb::engine::{execute_at, queries, PlannerConfig};
use std::time::Instant;

fn main() {
    let n = 20_000;
    let db = incumbent_database(n, 42);
    let history = History::incumbent();
    let window = history.last_fraction(0.1);

    // Qσ_ovlp: assignments active during the review window.
    let plan = queries::selection(
        &db,
        "Incumbent",
        TemporalPredicate::Overlaps,
        (window.start, window.end),
    )
    .unwrap();

    // ------------------------------------------------------------------
    // Compute the ongoing result once, into a materialized view.
    // ------------------------------------------------------------------
    let t0 = Instant::now();
    let view =
        MaterializedView::create(&db, "active", plan.clone(), PlannerConfig::default()).unwrap();
    let t_ongoing = t0.elapsed();
    println!(
        "materialized ongoing view: {} tuples in {:.2?} (over {n} assignments)",
        view.len(),
        t_ongoing
    );

    // ------------------------------------------------------------------
    // Serve the dashboard at several reference times.
    // ------------------------------------------------------------------
    let rts = [
        history.midpoint(),
        window.start,
        history.end.pred(),
        history.end,
    ];
    let mut t_instantiate = std::time::Duration::ZERO;
    let mut t_clifford = std::time::Duration::ZERO;
    for &rt in &rts {
        let t1 = Instant::now();
        let snap = view.instantiate(rt).unwrap();
        t_instantiate += t1.elapsed();

        let t2 = Instant::now();
        let reeval = execute_at(&db, &plan, rt).unwrap();
        t_clifford += t2.elapsed();

        assert_eq!(snap, reeval, "view must agree with re-evaluation");
        println!(
            "  {}: {} active assignment(s) (bind agrees with re-evaluation)",
            AsDate(rt),
            snap.len()
        );
    }

    println!(
        "\nserving {} snapshots: bind {t_instantiate:.2?} vs re-evaluation {t_clifford:.2?}",
        rts.len()
    );
    println!(
        "ongoing once + binds = {:.2?}; Clifford x{} = {:.2?}",
        t_ongoing + t_instantiate,
        rts.len(),
        t_clifford
    );
    if t_ongoing + t_instantiate < t_clifford {
        println!("→ the ongoing approach already amortized (cf. Fig. 11/12).");
    } else {
        println!("→ amortization expected after a few more snapshots (cf. Fig. 11/12).");
    }
}
