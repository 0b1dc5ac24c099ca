//! End-to-end tests for the grouped aggregation operator (Sec. X
//! extension): `∀rt: ∥γ(R)∥rt ≡ γF(∥R∥rt)` through the engine, plus
//! aggregate values in predicates and storage.

use ongoing_core::time::tp;
use ongoing_core::{IntervalSet, OngoingInt, OngoingInterval, TimePoint};
use ongoing_relation::aggregate::AggFn;
use ongoing_relation::{Expr, OngoingRelation, Schema, Value};
use ongoingdb::engine::{execute, execute_at, Database, QueryBuilder};

fn sample_db() -> Database {
    let db = Database::new();
    let schema = Schema::builder().int("N").str("C").interval("VT").build();
    let mut r = OngoingRelation::new(schema);
    let rows: Vec<(i64, &str, OngoingInterval, IntervalSet)> = vec![
        (
            10,
            "a",
            OngoingInterval::from_until_now(tp(0)),
            IntervalSet::full(),
        ),
        (
            20,
            "a",
            OngoingInterval::fixed(tp(1), tp(2)),
            IntervalSet::range(tp(5), tp(15)),
        ),
        (
            30,
            "b",
            OngoingInterval::fixed(tp(1), tp(2)),
            IntervalSet::range(tp(10), tp(20)),
        ),
        // Duplicate payload of the row above, different reference time:
        // set semantics must count it once where both are alive.
        (
            30,
            "b",
            OngoingInterval::fixed(tp(1), tp(2)),
            IntervalSet::range(tp(15), tp(25)),
        ),
    ];
    for (n, c, vt, rt) in rows {
        r.insert_with_rt(vec![Value::Int(n), Value::str(c), Value::Interval(vt)], rt)
            .unwrap();
    }
    db.create_table("T", r).unwrap();
    db
}

fn agg_plan(db: &Database) -> ongoingdb::engine::LogicalPlan {
    QueryBuilder::scan(db, "T")
        .unwrap()
        .aggregate(
            &["C"],
            vec![AggFn::CountStar, AggFn::SumInt(0)],
            vec!["cnt".into(), "total".into()],
        )
        .unwrap()
        .build()
}

#[test]
fn aggregate_commutes_with_bind() {
    let db = sample_db();
    let plan = agg_plan(&db);
    let ongoing = execute(&db, &plan).unwrap();
    for rt in -3i64..30 {
        let rt = tp(rt);
        let lhs = ongoing.bind(rt);
        let rhs = execute_at(&db, &plan, rt).unwrap();
        assert_eq!(lhs, rhs, "∥γ(R)∥rt != γF(∥R∥rt) at rt={rt}");
    }
}

#[test]
fn at_rt_sum_saturates_at_the_i64_limits_like_the_ongoing_sum() {
    // `∥γ(R)∥rt ≡ γF(∥R∥rt)` at the limits: the ongoing `SumInt` adds
    // exactly and clamps once at bind, so the instantiated aggregate must
    // saturate too, never wrap or overflow.
    let db = Database::new();
    let schema = Schema::builder().int("N").str("C").build();
    let mut r = OngoingRelation::new(schema);
    for (n, c) in [
        (i64::MAX, "max"),
        (1, "max"),
        (i64::MIN, "min"),
        (-1, "min"),
    ] {
        r.insert(vec![Value::Int(n), Value::str(c)]).unwrap();
    }
    db.create_table("T", r).unwrap();
    let plan = QueryBuilder::scan(&db, "T")
        .unwrap()
        .aggregate(&["C"], vec![AggFn::SumInt(0)], vec!["total".into()])
        .unwrap()
        .build();
    let rt = tp(3);
    let at_rt = execute_at(&db, &plan, rt).unwrap();
    assert_eq!(execute(&db, &plan).unwrap().bind(rt), at_rt);
    assert!(at_rt.contains(&[Value::str("max"), Value::Int(i64::MAX)]));
    assert!(at_rt.contains(&[Value::str("min"), Value::Int(i64::MIN)]));
}

#[test]
fn aggregate_values_track_reference_time() {
    let db = sample_db();
    let plan = agg_plan(&db);
    let result = execute(&db, &plan).unwrap();
    assert_eq!(result.len(), 2);
    let group_a = result
        .iter()
        .find(|t| t.value(0).as_str() == Some("a"))
        .unwrap();
    let cnt = group_a.value(1).as_ongoing_int().unwrap();
    assert_eq!(cnt.bind(tp(0)), 1);
    assert_eq!(cnt.bind(tp(7)), 2);
    assert_eq!(cnt.bind(tp(20)), 1);
    let total = group_a.value(2).as_ongoing_int().unwrap();
    assert_eq!(total.bind(tp(0)), 10);
    assert_eq!(total.bind(tp(7)), 30);

    // Duplicates in group b count once where both copies are alive.
    let group_b = result
        .iter()
        .find(|t| t.value(0).as_str() == Some("b"))
        .unwrap();
    let cnt_b = group_b.value(1).as_ongoing_int().unwrap();
    assert_eq!(cnt_b.bind(tp(17)), 1, "set semantics over duplicates");
    assert_eq!(cnt_b.bind(tp(12)), 1);
    assert_eq!(cnt_b.bind(tp(30)), 0);
    // Group exists exactly while some member is alive.
    assert_eq!(group_b.rt(), &IntervalSet::range(tp(10), tp(25)));
}

#[test]
fn having_style_predicates_over_aggregates() {
    // Filter the aggregate relation on the ongoing count: groups while at
    // least 2 tuples are alive.
    let db = sample_db();
    let plan = QueryBuilder::scan(&db, "T")
        .unwrap()
        .aggregate(&["C"], vec![AggFn::CountStar], vec!["cnt".into()])
        .unwrap()
        .filter(|s| {
            Ok(Expr::col(s, "cnt")?
                .ne(Expr::lit(0i64))
                .and(Expr::lit(Value::Count(OngoingInt::constant(1))).lt(Expr::col(s, "cnt")?)))
        })
        .unwrap()
        .build();
    let result = execute(&db, &plan).unwrap();
    // Only group "a" ever reaches count 2 — during [5, 15).
    assert_eq!(result.len(), 1);
    assert_eq!(result.iter().next().unwrap().value(0).as_str(), Some("a"));
    assert_eq!(
        result.iter().next().unwrap().rt(),
        &IntervalSet::range(tp(5), tp(15))
    );
}

#[test]
fn aggregate_rejects_ongoing_group_keys_and_bad_sums() {
    let db = sample_db();
    assert!(QueryBuilder::scan(&db, "T")
        .unwrap()
        .aggregate(&["VT"], vec![AggFn::CountStar], vec!["c".into()])
        .is_err());
    assert!(QueryBuilder::scan(&db, "T")
        .unwrap()
        .aggregate(&["C"], vec![AggFn::SumInt(1)], vec!["s".into()])
        .is_err());
    assert!(QueryBuilder::scan(&db, "T")
        .unwrap()
        .aggregate(&["C"], vec![AggFn::CountStar], vec![])
        .is_err());
}

#[test]
fn ongoing_int_values_round_trip_through_storage() {
    use ongoingdb::engine::storage::codec::{decode_tuple, encode_tuple};
    let db = sample_db();
    let result = execute(&db, &agg_plan(&db)).unwrap();
    for t in result.iter() {
        let bytes = encode_tuple(t);
        assert_eq!(&decode_tuple(&bytes).unwrap(), t);
    }
}

#[test]
fn aggregate_over_selection_pipeline() {
    // γ over σ: open bugs per component while they are open.
    let db = sample_db();
    let plan =
        QueryBuilder::scan(&db, "T")
            .unwrap()
            .filter(|s| {
                Ok(Expr::col(s, "VT")?.overlaps(Expr::lit(Value::Interval(
                    OngoingInterval::fixed(tp(0), tp(100)),
                ))))
            })
            .unwrap()
            .aggregate(&["C"], vec![AggFn::CountStar], vec!["cnt".into()])
            .unwrap()
            .build();
    let ongoing = execute(&db, &plan).unwrap();
    for rt in [tp(-5), tp(3), tp(12), tp(22), TimePoint::new(40)] {
        assert_eq!(
            ongoing.bind(rt),
            execute_at(&db, &plan, rt).unwrap(),
            "rt={rt}"
        );
    }
}
