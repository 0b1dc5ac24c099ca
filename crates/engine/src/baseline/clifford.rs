//! The Clifford et al. baseline: instantiate `now` when accessed.
//!
//! Clifford et al.\[3\] evaluate queries on *instantiated* relations: every
//! ongoing time point is replaced with the reference time the moment it is
//! accessed. Existing (fixed) query processing applies unchanged, but the
//! result is only valid at the chosen reference time and must be
//! re-computed after time passes.
//!
//! In this engine the baseline is the instantiated execution mode
//! ([`PhysicalPlan::execute_at_with_stats`](crate::plan::PhysicalPlan::execute_at_with_stats),
//! or [`execute_at`](crate::execute_at) from a logical plan): operators
//! pass the stored tuples and every predicate binds an ongoing operand at
//! `rt` the moment it reads it (the paper implements the bind operator as
//! a C kernel function for the same effect), so all predicates run on
//! fixed values via the fixed-interval fast path. Rows of fixed values are
//! built only at the plan root and at the Difference and Aggregate
//! barriers, so tuples a query discards are never instantiated. This
//! module adds the evaluation conveniences: `Cliff_max`, the paper's
//! "reference time greater than the latest end point" (the typical use
//! case of reference times close to the current time), and whole-database
//! instantiation.

use crate::catalog::Database;
use ongoing_core::{TimePoint, TimeRange};
use ongoing_relation::{FixedRelation, OngoingRelation, Value};

/// The latest *finite* time point mentioned by any temporal attribute or
/// reference time of the relation.
pub fn latest_time_point(rel: &OngoingRelation) -> Option<TimePoint> {
    let mut latest: Option<TimePoint> = None;
    let mut bump = |t: TimePoint| {
        if t.is_finite() {
            latest = Some(latest.map_or(t, |l| l.max_f(t)));
        }
    };
    for t in rel.iter() {
        for v in t.values() {
            match v {
                Value::Time(x) => bump(*x),
                Value::Span(s, e) => {
                    bump(*s);
                    bump(*e);
                }
                Value::Point(p) => {
                    bump(p.a());
                    bump(p.b());
                }
                Value::Interval(i) => {
                    bump(i.ts().a());
                    bump(i.ts().b());
                    bump(i.te().a());
                    bump(i.te().b());
                }
                _ => {}
            }
        }
        for r in t.rt().ranges() {
            let TimeRange { .. } = r; // ranges are canonical
            bump(r.ts());
            bump(r.te());
        }
    }
    latest
}

/// `Cliff_max`: a reference time strictly greater than every end point in
/// the database — the paper's stand-in for "a reference time close to the
/// current time".
pub fn cliff_max_reference_time(db: &Database) -> TimePoint {
    let mut latest: Option<TimePoint> = None;
    for name in db.table_names() {
        if let Ok(t) = db.table(&name) {
            if let Some(l) = latest_time_point(t.data()) {
                latest = Some(latest.map_or(l, |x| x.max_f(l)));
            }
        }
    }
    latest.map_or(TimePoint::new(0), |l| l.succ())
}

/// Instantiates a whole relation at `rt` into a fixed relation with the
/// same schema shape (ongoing attributes become spans), dropping tuples
/// dead at `rt`. This is what a system following Clifford's approach would
/// materialize.
pub fn instantiate_relation(rel: &OngoingRelation, rt: TimePoint) -> FixedRelation {
    rel.bind(rt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execute_at;
    use ongoing_core::date::md;
    use ongoing_core::OngoingInterval;
    use ongoing_relation::{Expr, Schema};

    fn setup() -> Database {
        let db = Database::new();
        let schema = Schema::builder().int("BID").str("C").interval("VT").build();
        let mut b = OngoingRelation::new(schema);
        b.insert(vec![
            Value::Int(500),
            Value::str("Spam filter"),
            Value::Interval(OngoingInterval::from_until_now(md(1, 25))),
        ])
        .unwrap();
        b.insert(vec![
            Value::Int(501),
            Value::str("Spam filter"),
            Value::Interval(OngoingInterval::fixed(md(3, 30), md(8, 21))),
        ])
        .unwrap();
        db.create_table("B", b).unwrap();
        db
    }

    #[test]
    fn cliff_max_is_after_every_endpoint() {
        let db = setup();
        let rt = cliff_max_reference_time(&db);
        assert!(rt > md(8, 21));
    }

    #[test]
    fn run_at_gives_instantiated_results() {
        let db = setup();
        let plan = crate::QueryBuilder::scan(&db, "B")
            .unwrap()
            .filter(|s| {
                Ok(Expr::col(s, "VT")?.overlaps(Expr::lit(Value::Interval(
                    OngoingInterval::fixed(md(8, 1), md(9, 1)),
                ))))
            })
            .unwrap()
            .build();
        // At rt 08/15 both bugs overlap the window.
        assert_eq!(execute_at(&db, &plan, md(8, 15)).unwrap().len(), 2);
        // At rt 02/01, bug 500's instantiation [01/25, 02/01) ends before
        // the window; only the fixed-interval bug 501 qualifies.
        assert_eq!(execute_at(&db, &plan, md(2, 1)).unwrap().len(), 1);
    }

    #[test]
    fn results_get_invalidated_by_time_passing() {
        // The defining drawback: the same query, two reference times, two
        // different results — Clifford results do not remain valid.
        let db = setup();
        let plan = crate::QueryBuilder::scan(&db, "B").unwrap().build();
        let r1 = execute_at(&db, &plan, md(2, 1)).unwrap();
        let r2 = execute_at(&db, &plan, md(8, 15)).unwrap();
        assert_ne!(r1, r2);
    }

    #[test]
    fn latest_time_point_scans_all_temporal_values() {
        let db = setup();
        let t = db.table("B").unwrap();
        assert_eq!(latest_time_point(t.data()), Some(md(8, 21)));
    }
}
