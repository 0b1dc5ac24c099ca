//! Edge-case and failure-injection tests across the stack: domain limits,
//! empty inputs, degenerate plans, and error paths.

use ongoing_core::date::{date, md, AsDate, AsMd};
use ongoing_core::time::tp;
use ongoing_core::{
    allen, ops, Emptiness, IntervalSet, OngoingInt, OngoingInterval, OngoingPoint, TimePoint,
};
use ongoing_relation::{Expr, OngoingRelation, Schema, Value};
use ongoingdb::engine::plan::PlannerConfig;
use ongoingdb::engine::{execute, execute_at, Database, EngineError, QueryBuilder};

// ---------------------------------------------------------------------
// Domain limits.
// ---------------------------------------------------------------------

#[test]
fn predicates_at_domain_limits() {
    // now vs the limits themselves.
    let now = OngoingPoint::now();
    let top = OngoingPoint::fixed(TimePoint::POS_INF);
    let bottom = OngoingPoint::fixed(TimePoint::NEG_INF);
    // now < +inf everywhere except... ∥now∥rt = rt < +inf always (rt finite).
    let b = ops::lt(now, top);
    for rt in [TimePoint::MIN_FINITE, tp(0), TimePoint::MAX_FINITE] {
        assert!(b.bind(rt), "rt={rt}");
    }
    // -inf < now everywhere (for finite rt).
    let b = ops::lt(bottom, now);
    for rt in [TimePoint::MIN_FINITE, tp(0), TimePoint::MAX_FINITE] {
        assert!(b.bind(rt));
    }
}

#[test]
fn interval_spanning_everything() {
    let all = OngoingInterval::fixed(TimePoint::NEG_INF, TimePoint::POS_INF);
    assert_eq!(all.emptiness(), Emptiness::NeverEmpty);
    let never = OngoingInterval::fixed(TimePoint::POS_INF, TimePoint::NEG_INF);
    assert_eq!(never.emptiness(), Emptiness::AlwaysEmpty);
    // overlaps of everything with anything non-empty is always true.
    let b = allen::overlaps(all, OngoingInterval::fixed(tp(0), tp(1)));
    assert!(b.is_always_true());
}

#[test]
fn ongoing_int_saturation_at_extremes() {
    // Duration of the unbounded expanding interval saturates, never panics.
    let d = OngoingInt::duration(OngoingInterval::fixed(
        TimePoint::NEG_INF,
        TimePoint::POS_INF,
    ));
    assert_eq!(d.bind(tp(0)), i64::MAX);
    let d = OngoingInt::duration(OngoingInterval::from_until_now(TimePoint::NEG_INF));
    assert!(d.bind(tp(5)) > 0);
}

#[test]
fn interval_set_infinite_ranges() {
    let s = IntervalSet::from_ranges([(TimePoint::NEG_INF, tp(0)), (tp(10), TimePoint::POS_INF)]);
    assert_eq!(s.cardinality(), 2);
    assert_eq!(s.complement(), IntervalSet::range(tp(0), tp(10)));
    assert_eq!(s.total_duration(), i64::MAX);
    // points_in clips to the window.
    let pts: Vec<i64> = s.points_in(tp(-2), tp(12)).map(|p| p.ticks()).collect();
    assert_eq!(pts, vec![-2, -1, 10, 11]);
}

#[test]
fn date_boundaries() {
    assert_eq!(AsDate(date(1, 1, 1)).to_string(), "0001/01/01");
    assert_eq!(AsMd(md(12, 31)).to_string(), "12/31");
    // Non-2019 dates fall back to full format in AsMd.
    assert_eq!(AsMd(date(2020, 1, 1)).to_string(), "2020/01/01");
}

// ---------------------------------------------------------------------
// Degenerate relations and plans.
// ---------------------------------------------------------------------

fn empty_db() -> Database {
    let db = Database::new();
    db.create_table(
        "E",
        OngoingRelation::new(Schema::builder().int("K").interval("VT").build()),
    )
    .unwrap();
    db
}

#[test]
fn queries_over_empty_relations() {
    let db = empty_db();
    let plan =
        QueryBuilder::scan(&db, "E")
            .unwrap()
            .filter(|s| {
                Ok(Expr::col(s, "VT")?.overlaps(Expr::lit(Value::Interval(
                    OngoingInterval::fixed(tp(0), tp(10)),
                ))))
            })
            .unwrap()
            .build();
    assert!(execute(&db, &plan).unwrap().is_empty());
    assert!(execute_at(&db, &plan, tp(5)).unwrap().is_empty());
}

#[test]
fn self_join_of_empty_is_empty() {
    let db = empty_db();
    let l = QueryBuilder::scan_as(&db, "E", "L").unwrap();
    let r = QueryBuilder::scan_as(&db, "E", "R").unwrap();
    let plan = l
        .join(r, |s| Ok(Expr::col(s, "L.K")?.eq(Expr::col(s, "R.K")?)))
        .unwrap()
        .build();
    assert!(execute(&db, &plan).unwrap().is_empty());
}

#[test]
fn union_and_difference_with_empty() {
    let db = empty_db();
    let mut t = OngoingRelation::new(Schema::builder().int("K").interval("VT").build());
    t.insert(vec![
        Value::Int(1),
        Value::Interval(OngoingInterval::from_until_now(tp(0))),
    ])
    .unwrap();
    db.create_table("T", t).unwrap();
    let t_scan = || QueryBuilder::scan(&db, "T").unwrap();
    let e_scan = || QueryBuilder::scan(&db, "E").unwrap();
    let u = t_scan().union(e_scan()).unwrap().build();
    assert_eq!(execute(&db, &u).unwrap().len(), 1);
    let d = t_scan().difference(e_scan()).unwrap().build();
    assert_eq!(execute(&db, &d).unwrap().len(), 1);
    let d2 = e_scan().difference(t_scan()).unwrap().build();
    assert!(execute(&db, &d2).unwrap().is_empty());
}

#[test]
fn difference_with_self_is_empty_everywhere() {
    let db = empty_db();
    let mut t = OngoingRelation::new(Schema::builder().int("K").interval("VT").build());
    for i in 0..5 {
        t.insert(vec![
            Value::Int(i),
            Value::Interval(OngoingInterval::from_until_now(tp(i))),
        ])
        .unwrap();
    }
    db.create_table("T", t).unwrap();
    let plan = QueryBuilder::scan(&db, "T")
        .unwrap()
        .difference(QueryBuilder::scan(&db, "T").unwrap())
        .unwrap()
        .build();
    let r = execute(&db, &plan).unwrap();
    assert!(r.is_empty());
}

#[test]
fn selection_with_always_false_and_always_true() {
    let db = empty_db();
    let mut t = OngoingRelation::new(Schema::builder().int("K").interval("VT").build());
    t.insert(vec![
        Value::Int(1),
        Value::Interval(OngoingInterval::fixed(tp(0), tp(5))),
    ])
    .unwrap();
    db.create_table("T", t).unwrap();
    let plan = |lit: bool| {
        QueryBuilder::scan(&db, "T")
            .unwrap()
            .filter(|_| Ok(Expr::lit(lit)))
            .unwrap()
            .build()
    };
    assert_eq!(execute(&db, &plan(true)).unwrap().len(), 1);
    assert!(execute(&db, &plan(false)).unwrap().is_empty());
}

// ---------------------------------------------------------------------
// Error paths.
// ---------------------------------------------------------------------

#[test]
fn planner_reports_bad_columns() {
    let db = empty_db();
    let e = QueryBuilder::scan(&db, "E")
        .unwrap()
        .filter(|s| Ok(Expr::col(s, "missing")?.eq(Expr::lit(1i64))))
        .err()
        .unwrap();
    assert!(matches!(e, EngineError::Schema(_)));
}

#[test]
fn type_errors_surface_through_execution() {
    let db = empty_db();
    let mut t = OngoingRelation::new(Schema::builder().int("K").interval("VT").build());
    t.insert(vec![
        Value::Int(1),
        Value::Interval(OngoingInterval::fixed(tp(0), tp(5))),
    ])
    .unwrap();
    db.create_table("T", t).unwrap();
    // Comparing an int column to a string literal fails at evaluation.
    let plan = QueryBuilder::scan(&db, "T")
        .unwrap()
        .filter(|s| Ok(Expr::col(s, "K")?.lt(Expr::lit("oops"))))
        .unwrap()
        .build();
    assert!(matches!(execute(&db, &plan), Err(EngineError::Eval(_))));
}

#[test]
fn interval_index_rejects_non_interval_columns() {
    let db = empty_db();
    let t = db.table("E").unwrap();
    assert!(t.interval_index(0).is_err());
    assert!(t.interval_index(1).is_ok());
    assert!(t.interval_index(9).is_err());
}

// ---------------------------------------------------------------------
// Instantiated-mode specifics.
// ---------------------------------------------------------------------

#[test]
fn instantiated_union_applies_set_semantics() {
    let db = empty_db();
    let mut t = OngoingRelation::new(Schema::builder().int("K").interval("VT").build());
    // Two tuples with different stored intervals that instantiate equally
    // at rt 5: [0, now) and [0, 5).
    t.insert(vec![
        Value::Int(1),
        Value::Interval(OngoingInterval::from_until_now(tp(0))),
    ])
    .unwrap();
    t.insert(vec![
        Value::Int(1),
        Value::Interval(OngoingInterval::fixed(tp(0), tp(5))),
    ])
    .unwrap();
    db.create_table("T", t).unwrap();
    let plan = QueryBuilder::scan(&db, "T")
        .unwrap()
        .union(QueryBuilder::scan(&db, "T").unwrap())
        .unwrap()
        .build();
    // At rt 5 both tuples instantiate to (1, [0, 5)) — one row.
    assert_eq!(execute_at(&db, &plan, tp(5)).unwrap().len(), 1);
    // ... and the ongoing result agrees under bind.
    assert_eq!(execute(&db, &plan).unwrap().bind(tp(5)).len(), 1);
    // At rt 7 they differ — two rows.
    assert_eq!(execute_at(&db, &plan, tp(7)).unwrap().len(), 2);
}

#[test]
fn ongoing_literals_in_predicates_bind_in_clifford_mode() {
    // Regression test for the fuzzer finding: a query literal like
    // [3, now) must be instantiated by the baseline too.
    let db = empty_db();
    let mut t = OngoingRelation::new(Schema::builder().int("K").interval("VT").build());
    t.insert(vec![
        Value::Int(1),
        Value::Interval(OngoingInterval::fixed(tp(0), tp(20))),
    ])
    .unwrap();
    db.create_table("T", t).unwrap();
    let plan = QueryBuilder::scan(&db, "T")
        .unwrap()
        .filter(|s| {
            Ok(Expr::col(s, "VT")?.overlaps(Expr::lit(Value::Interval(
                OngoingInterval::from_until_now(tp(3)),
            ))))
        })
        .unwrap()
        .build();
    let ongoing = execute(&db, &plan).unwrap();
    for rt in [tp(0), tp(3), tp(4), tp(19), tp(25)] {
        assert_eq!(
            ongoing.bind(rt),
            execute_at(&db, &plan, rt).unwrap(),
            "rt={rt}"
        );
    }
    // [3, now) is empty until rt > 3, so nothing overlaps before then.
    assert!(execute_at(&db, &plan, tp(3)).unwrap().is_empty());
    assert_eq!(execute_at(&db, &plan, tp(4)).unwrap().len(), 1);
}

#[test]
fn projection_of_intersection_instantiates_consistently() {
    let db = empty_db();
    let mut t = OngoingRelation::new(Schema::builder().int("K").interval("VT").build());
    t.insert(vec![
        Value::Int(1),
        Value::Interval(OngoingInterval::from_until_now(tp(0))),
    ])
    .unwrap();
    db.create_table("T", t).unwrap();
    let b = QueryBuilder::scan(&db, "T").unwrap();
    let schema = b.schema().clone();
    let plan = b
        .project(vec![ongoing_relation::algebra::ProjItem::named(
            Expr::col(&schema, "VT")
                .unwrap()
                .intersect(Expr::lit(Value::Interval(OngoingInterval::fixed(
                    tp(2),
                    tp(8),
                )))),
            "clipped",
        )])
        .unwrap()
        .build();
    let ongoing = execute(&db, &plan).unwrap();
    for rt in [tp(1), tp(5), tp(12)] {
        assert_eq!(
            ongoing.bind(rt),
            execute_at(&db, &plan, rt).unwrap(),
            "rt={rt}"
        );
    }
}

#[test]
fn matview_of_aggregate_serves_snapshots() {
    use ongoing_relation::aggregate::AggFn;
    let db = empty_db();
    let mut t = OngoingRelation::new(Schema::builder().int("K").interval("VT").build());
    for i in 0..6 {
        t.insert_with_rt(
            vec![
                Value::Int(i % 2),
                Value::Interval(OngoingInterval::fixed(tp(0), tp(1))),
            ],
            IntervalSet::range(tp(i), tp(i + 10)),
        )
        .unwrap();
    }
    db.create_table("T", t).unwrap();
    let plan = QueryBuilder::scan(&db, "T")
        .unwrap()
        .aggregate(&["K"], vec![AggFn::CountStar], vec!["cnt".into()])
        .unwrap()
        .build();
    let view = ongoingdb::engine::matview::MaterializedView::create(
        &db,
        "per_k",
        plan.clone(),
        PlannerConfig::default(),
    )
    .unwrap();
    for rt in -1i64..18 {
        assert_eq!(
            view.instantiate(tp(rt)),
            execute_at(&db, &plan, tp(rt)).unwrap()
        );
    }
}
