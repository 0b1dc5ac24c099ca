//! Integration tests for the three state-of-the-art baselines (Sec. III):
//! Clifford's results get invalidated, Torp's `Tf` cannot evaluate
//! predicates, and `Forever` returns provably incorrect answers.

use ongoing_core::allen::TemporalPredicate;
use ongoing_core::date::md;
use ongoing_core::{ops, OngoingInterval, OngoingPoint, TimePoint};
use ongoing_relation::{Expr, OngoingRelation, Schema, Value};
use ongoingdb::engine::baseline::{clifford, forever, torp};
use ongoingdb::engine::matview::MaterializedView;
use ongoingdb::engine::{execute, execute_at, Database, PlannerConfig, QueryBuilder};

/// The Fig. 1 database.
fn running_example_db() -> Database {
    let db = Database::new();
    let mut b = OngoingRelation::new(Schema::builder().int("BID").str("C").interval("VT").build());
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

    let mut p = OngoingRelation::new(Schema::builder().int("PID").str("C").interval("VT").build());
    p.insert(vec![
        Value::Int(201),
        Value::str("Spam filter"),
        Value::Interval(OngoingInterval::fixed(md(8, 15), md(8, 24))),
    ])
    .unwrap();
    p.insert(vec![
        Value::Int(202),
        Value::str("Spam filter"),
        Value::Interval(OngoingInterval::fixed(md(8, 24), md(8, 27))),
    ])
    .unwrap();
    db.create_table("P", p).unwrap();
    db
}

/// "Which bugs might be resolved before patch 201 goes live?"
fn before_patch_201(db: &Database) -> ongoingdb::engine::LogicalPlan {
    QueryBuilder::scan_as(db, "B", "B")
        .unwrap()
        .join(QueryBuilder::scan_as(db, "P", "P").unwrap(), |s| {
            Ok(Expr::col(s, "P.PID")?
                .eq(Expr::lit(201i64))
                .and(Expr::col(s, "B.VT")?.before(Expr::col(s, "P.VT")?)))
        })
        .unwrap()
        .project_cols(&["B.BID"])
        .unwrap()
        .build()
}

#[test]
fn forever_is_incorrect() {
    // Sec. III: with Forever end points, bug 500 is missing from the
    // result at rt 05/14 — the ongoing approach keeps it.
    let db = running_example_db();
    let plan = before_patch_201(&db);

    // Ground truth (ongoing): bug 500 is in the answer at rt 05/14.
    let ongoing = execute(&db, &plan).unwrap();
    let truth = ongoing.bind(md(5, 14));
    assert!(truth.contains(&[Value::Int(500)]), "bug 500 must qualify");

    // Forever database: rewrite and re-ask.
    let fdb = Database::new();
    for name in db.table_names() {
        let t = db.table(&name).unwrap();
        fdb.create_table(&name, forever::rewrite_relation(t.data()))
            .unwrap();
    }
    let fplan = before_patch_201(&fdb);
    let fres = execute(&fdb, &fplan).unwrap().bind(md(5, 14));
    assert!(
        !fres.contains(&[Value::Int(500)]),
        "Forever silently loses bug 500 — the incorrectness the paper describes"
    );
}

#[test]
fn clifford_results_differ_across_reference_times() {
    let db = running_example_db();
    let plan = before_patch_201(&db);
    let r_may = execute_at(&db, &plan, md(5, 14)).unwrap();
    let r_sep = execute_at(&db, &plan, md(9, 1)).unwrap();
    assert!(r_may.contains(&[Value::Int(500)]));
    assert!(
        !r_sep.contains(&[Value::Int(500)]),
        "by September the bug can no longer end before the patch"
    );
    assert_ne!(r_may, r_sep, "instantiated results get outdated");
}

#[test]
fn ongoing_view_replaces_all_clifford_reevaluations() {
    let db = running_example_db();
    let plan = before_patch_201(&db);
    let view = MaterializedView::create(&db, "v", plan.clone(), PlannerConfig::default()).unwrap();
    // One ongoing result serves every reference time Clifford would need a
    // fresh evaluation for.
    let mut day = md(1, 1);
    while day < md(12, 31) {
        assert_eq!(
            view.instantiate(day),
            execute_at(&db, &plan, day).unwrap(),
            "rt={day}"
        );
        day = TimePoint::new(day.ticks() + 13);
    }
}

#[test]
fn cliff_max_is_past_every_endpoint_and_stabilizes_memberships() {
    let db = running_example_db();
    let rt = clifford::cliff_max_reference_time(&db);
    assert!(rt > md(8, 27));
    // Expanding-interval instantiations keep growing with rt (that is the
    // paper's point), but *membership* results of queries whose output has
    // no ongoing attributes are stable from Cliff_max on: every predicate
    // over the data has crossed its last breakpoint.
    let plan = before_patch_201(&db);
    let at_max = execute_at(&db, &plan, rt).unwrap();
    let later = execute_at(&db, &plan, TimePoint::new(rt.ticks() + 1000)).unwrap();
    assert_eq!(at_max, later);
    // ... and at Cliff_max every [a, now) interval instantiates non-empty.
    let b = db.table("B").unwrap();
    for t in b.data().tuples() {
        let iv = t.value(2).as_interval().unwrap();
        assert!(iv.nonempty_at(rt));
    }
}

#[test]
fn torp_handles_modifications_but_not_predicates() {
    // A now-relative modification: terminating an open interval at a fixed
    // date — expressible in Tf via intersection.
    let open = torp::TfInterval::new(torp::TfPoint::Fixed(md(1, 25)), torp::TfPoint::NOW);
    let cap = torp::TfInterval::new(
        torp::TfPoint::Fixed(TimePoint::NEG_INF),
        torp::TfPoint::Fixed(md(8, 21)),
    );
    let capped = open.intersect(cap).expect("stays in Tf");
    assert_eq!(capped.ts, torp::TfPoint::Fixed(md(1, 25)));
    assert_eq!(capped.te, torp::TfPoint::MinNow(md(8, 21)));
    // ... and it instantiates exactly like the Ω intersection.
    for rt in [md(2, 1), md(8, 21), md(12, 1)] {
        let omega = open.to_omega().intersect(cap.to_omega());
        assert_eq!(capped.to_omega().bind(rt), omega.bind(rt));
    }

    // But the domain is not closed (Table I): combining a growing point
    // with a fixed bound leaves Tf, so predicate evaluation à la Sec. VI is
    // impossible and queries fall back to Clifford.
    let grown = torp::TfPoint::MaxNow(md(3, 1));
    assert_eq!(grown.min(torp::TfPoint::Fixed(md(8, 1))), None);
    let db = running_example_db();
    let plan = before_patch_201(&db);
    assert_eq!(
        torp::run_query_at(&db, &plan, md(5, 14)).unwrap(),
        execute_at(&db, &plan, md(5, 14)).unwrap()
    );
}

#[test]
fn table_i_closure_summary() {
    // T: fixed points only, closed trivially (minF/maxF).
    // Tnow (Clifford): now cannot combine with fixed points at all — the
    // domain offers no min/max beyond instantiation.
    // Tf (Torp): counterexample above.
    // Ω: closed — exercised here across all shapes.
    let shapes = [
        OngoingPoint::fixed(md(5, 1)),
        OngoingPoint::now(),
        OngoingPoint::growing(md(5, 1)),
        OngoingPoint::limited(md(5, 1)),
        OngoingPoint::new(md(3, 1), md(9, 1)).unwrap(),
    ];
    for &p in &shapes {
        for &q in &shapes {
            // Closure: constructing the result never fails, and it binds
            // pointwise-correctly.
            let mn = ops::min(p, q);
            let mx = ops::max(p, q);
            for rt in [md(1, 1), md(5, 1), md(12, 31)] {
                assert_eq!(mn.bind(rt), p.bind(rt).min_f(q.bind(rt)));
                assert_eq!(mx.bind(rt), p.bind(rt).max_f(q.bind(rt)));
            }
        }
    }
}

#[test]
fn instantiate_relation_is_bind() {
    let db = running_example_db();
    let b = db.table("B").unwrap();
    let snap = clifford::instantiate_relation(b.data(), md(5, 14));
    assert_eq!(snap, b.data().bind(md(5, 14)));
    assert_eq!(snap.len(), 2);
}

#[test]
fn selection_predicates_agree_with_ongoing_for_every_allen_relation() {
    // All 7 Table-II predicates: Clifford at rt equals ongoing-then-bind.
    let db = running_example_db();
    for pred in TemporalPredicate::ALL {
        let plan =
            ongoingdb::engine::queries::selection(&db, "B", pred, (md(6, 1), md(9, 1))).unwrap();
        let ongoing = execute(&db, &plan).unwrap();
        for rt in [md(1, 1), md(6, 15), md(8, 22), md(11, 11)] {
            assert_eq!(
                ongoing.bind(rt),
                execute_at(&db, &plan, rt).unwrap(),
                "{} at rt={rt}",
                pred.name()
            );
        }
    }
}
