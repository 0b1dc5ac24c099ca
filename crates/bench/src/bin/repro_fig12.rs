//! Fig. 12: amortization and result size vs. reference time
//! (`Qσ_ovlp(B)` on MozillaBugs).
//!
//! The ongoing result's size is independent of the reference time, whereas
//! the instantiated result grows toward late reference times (more
//! expanding intervals instantiate non-empty and satisfy `overlaps`).
//! Earlier reference times therefore mean *larger* size differences and
//! slower amortization: the paper reports 3 instantiations at `rt = min`
//! dropping to 2 for late reference times.

use ongoing_bench::{
    amortization_point, header, ms, row, scaled, time_bind, time_clifford, time_ongoing,
};
use ongoing_core::allen::TemporalPredicate;
use ongoing_core::date::{date, AsDate};
use ongoing_datasets::{mozilla_database, History};
use ongoing_engine::baseline::clifford;
use ongoing_engine::{queries, PlannerConfig};

fn main() {
    let base = scaled(1_500);
    let sizes = [base, base * 2, base * 3, base * 4];
    println!("Fig. 12: amortization for Qσ_ovlp(B) vs. reference time (bugs {sizes:?}).\n");
    let h = History::mozilla();
    let w = h.last_fraction(0.1);
    let cfg = PlannerConfig::default();

    let widths = [12, 14, 16, 16, 14, 14];
    for &n in &sizes {
        let db = mozilla_database(n, 42);
        let plan = queries::selection(
            &db,
            "BugInfo",
            TemporalPredicate::Overlaps,
            (w.start, w.end),
        )
        .unwrap();
        let (t_on, on_res) = time_ongoing(&db, &plan, &cfg, 5);
        println!(
            "# bugs = {n}: ongoing result {} tuples in {} ms",
            on_res.len(),
            ms(t_on)
        );
        header(
            &[
                "rt",
                "Cliff [ms]",
                "bind [ms]",
                "# instantiations",
                "|instantiated|",
                "|ongoing|",
            ],
            &widths,
        );
        let rts = [
            (h.start, "min"),
            (date(2012, 1, 1), "2012/01"),
            (date(2012, 9, 1), "2012/09"),
            (clifford::cliff_max_reference_time(&db).unwrap(), "max"),
        ];
        let mut points = Vec::new();
        for (rt, label) in rts {
            let (t_cl, snap) = time_clifford(&db, &plan, &cfg, rt, 5);
            let t_bind = time_bind(&on_res, rt, 5);
            let k = amortization_point(t_on, t_bind, t_cl).unwrap_or(u32::MAX);
            row(
                &[
                    format!("{label} ({})", AsDate(rt)),
                    ms(t_cl),
                    ms(t_bind),
                    k.to_string(),
                    snap.len().to_string(),
                    on_res.len().to_string(),
                ],
                &widths,
            );
            points.push((label, k, snap.len()));
        }
        // Shape: instantiated result sizes grow with the reference time.
        assert!(
            points[0].2 <= points[3].2,
            "instantiated result must grow toward late rts: {points:?}"
        );
        println!();
    }
    println!("paper: 3 instantiations at rt = min, 2 at later reference times;");
    println!("instantiated result sizes approach the ongoing size as rt grows.");
}
