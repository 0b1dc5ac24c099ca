//! Table V: per-tuple storage on MozillaBugs.
//!
//! Average tuple size, the `RT` attribute's contribution, and the
//! ongoing-over-fixed size ratio for the three base relations and two query
//! results. The paper's shape: `RT` costs a constant 29 B per tuple —
//! significant for small tuples (A, S: +32–34 %), negligible for large ones
//! (B, QC⋈: 1–3 %); the ongoing format costs ~4 % extra for B and ~67–75 %
//! for the small foreign-key relations.

use ongoing_bench::{header, row, scaled};
use ongoing_core::allen::TemporalPredicate;
use ongoing_datasets::{mozilla_database, History};
use ongoing_engine::storage::layout::measure_relation;
use ongoing_engine::{execute, queries};

fn main() {
    let n = scaled(1_200);
    println!("Table V: per-tuple storage on MozillaBugs (bugs = {n}).\n");
    let db = mozilla_database(n, 42);
    let h = History::mozilla();
    let w = h.last_fraction(0.1);

    let sel = queries::selection(
        &db,
        "BugInfo",
        TemporalPredicate::Overlaps,
        (w.start, w.end),
    )
    .unwrap();
    let sel_res = execute(&db, &sel).unwrap();
    let join = queries::complex_join(&db, TemporalPredicate::Overlaps).unwrap();
    let join_res = execute(&db, &join).unwrap();

    let b = db.table("BugInfo").unwrap();
    let a = db.table("BugAssignment").unwrap();
    let s = db.table("BugSeverity").unwrap();

    let widths = [16, 14, 18, 22, 12];
    header(
        &[
            "relation",
            "avg tuple [B]",
            "RT size [B] (%)",
            "ongoing/fixed size",
            "max |RT|",
        ],
        &widths,
    );
    let mut shares = Vec::new();
    for (name, rel) in [
        ("B", b.data()),
        ("A", a.data()),
        ("S", s.data()),
        ("Qσ_ovlp(B)", &sel_res),
        ("QC⋈_ovlp", &join_res),
    ] {
        let f = measure_relation(rel).unwrap();
        let rt_share = f.avg_rt_bytes() / f.avg_tuple_bytes() * 100.0;
        row(
            &[
                name.to_string(),
                format!("{:.0}", f.avg_tuple_bytes()),
                format!("{:.0} ({:.0}%)", f.avg_rt_bytes(), rt_share),
                format!("{:.0}%", f.ongoing_over_fixed() * 100.0),
                f.max_rt_cardinality.to_string(),
            ],
            &widths,
        );
        shares.push((name, f));
    }

    println!("\npaper: B 968 B, RT 29 B (3%), 104% | A 90 B, 29 B (32%), 167% | S 86 B, 29 B (34%), 175%");
    println!("       Qσ_ovlp(B) as B | QC⋈_ovlp 2.34 kB, 29 B (1%), 103%");

    // Shape assertions: constant RT cost, significant only for small tuples.
    let b_stats = &shares[0].1;
    let a_stats = &shares[1].1;
    assert!(
        (b_stats.avg_rt_bytes() - 29.0).abs() < 1.0,
        "B: typical RT is one range"
    );
    assert!(
        b_stats.avg_rt_bytes() / b_stats.avg_tuple_bytes() < 0.05,
        "RT share of the wide B relation stays small"
    );
    assert!(
        a_stats.avg_rt_bytes() / a_stats.avg_tuple_bytes() > 0.2,
        "RT share of the narrow A relation is significant"
    );
    assert!(a_stats.ongoing_over_fixed() > 1.4);
    assert!(b_stats.ongoing_over_fixed() < 1.15);
    println!("\nshape verified: constant RT overhead, large for narrow tuples, negligible for wide ones.");
}
