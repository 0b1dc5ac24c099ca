//! The paper's master correctness criterion, end to end:
//!
//! ```text
//! ∀rt ( ∥Q(D)∥rt ≡ Q(∥D∥rt) )
//! ```
//!
//! For a battery of queries over generated ongoing databases, the
//! instantiation of the ongoing result at every probed reference time must
//! equal the result of Clifford-style evaluation (instantiate the inputs,
//! run the fixed query). The ongoing side runs through the optimized
//! physical plans (hash joins, sweep joins, pushdown); the instantiated
//! side runs through the same plans' fixed mode — and both are additionally
//! cross-checked against the naive reference algebra.

use ongoing_core::allen::TemporalPredicate;
use ongoing_core::TimePoint;
use ongoing_datasets::{synthetic, History, SyntheticConfig};
use ongoing_relation::{algebra, Expr, OngoingRelation, Value};
use ongoingdb::engine::plan::{compile, JoinStrategy, PlannerConfig};
use ongoingdb::engine::{execute, queries, Database, LogicalPlan, QueryBuilder};

/// Reference times probed in every check: inside, outside and at the edges
/// of the synthetic history.
fn probe_rts() -> Vec<TimePoint> {
    let h = History::synthetic();
    let mut rts = vec![
        TimePoint::new(h.start.ticks() - 400),
        h.start,
        h.midpoint(),
        h.end.pred(),
        h.end,
        TimePoint::new(h.end.ticks() + 400),
    ];
    for i in 1..10 {
        rts.push(TimePoint::new(h.start.ticks() + h.days() * i / 10));
    }
    rts
}

fn check_equivalence(db: &Database, plan: &LogicalPlan, label: &str) {
    let cfg = PlannerConfig::default();
    let physical = compile(db, plan, &cfg).unwrap();
    let ctx = cfg.exec_context();
    let (ongoing, _) = physical.execute_with_stats(&ctx).unwrap();
    for rt in probe_rts() {
        let lhs = ongoing.bind(rt);
        let (rhs, _) = physical.execute_at_with_stats(rt, &ctx).unwrap();
        assert_eq!(
            lhs,
            rhs,
            "{label}: ∥Q(D)∥rt != Q(∥D∥rt) at rt={rt}\nplan:\n{}",
            physical.explain()
        );
    }
}

fn small_db() -> Database {
    let db = Database::new();
    db.create_table(
        "Dex",
        synthetic::generate(&SyntheticConfig {
            join_group_size: 3,
            ..SyntheticConfig::dex(120, None, 71)
        }),
    )
    .unwrap();
    db.create_table(
        "Dsh",
        synthetic::generate(&SyntheticConfig {
            join_group_size: 3,
            ..SyntheticConfig::dsh(120, Some(2), 72)
        }),
    )
    .unwrap();
    db
}

#[test]
fn selection_equivalence_for_every_temporal_predicate() {
    let db = small_db();
    let h = History::synthetic();
    let w = h.last_fraction(0.1);
    for pred in TemporalPredicate::ALL {
        for table in ["Dex", "Dsh"] {
            let plan = queries::selection(&db, table, pred, (w.start, w.end)).unwrap();
            check_equivalence(&db, &plan, &format!("Qσ_{} on {table}", pred.name()));
        }
    }
}

#[test]
fn self_join_equivalence_overlaps_and_before() {
    let db = small_db();
    for pred in [TemporalPredicate::Overlaps, TemporalPredicate::Before] {
        for table in ["Dex", "Dsh"] {
            let plan = queries::self_join(&db, table, "K", pred).unwrap();
            check_equivalence(&db, &plan, &format!("Q⋈_{} on {table}", pred.name()));
        }
    }
}

#[test]
fn join_across_interval_shapes() {
    let db = small_db();
    let l = QueryBuilder::scan_as(&db, "Dex", "R").unwrap();
    let r = QueryBuilder::scan_as(&db, "Dsh", "S").unwrap();
    let plan = l
        .join(r, |s| {
            Ok(Expr::col(s, "R.VT")?.overlaps(Expr::col(s, "S.VT")?))
        })
        .unwrap()
        .build();
    check_equivalence(&db, &plan, "Dex ⋈_overlaps Dsh (no equi keys)");
}

#[test]
fn union_difference_project_equivalence() {
    let db = small_db();
    let h = History::synthetic();
    let w = h.last_fraction(0.3);
    let sel = |table: &str, pred| {
        QueryBuilder::scan(&db, table)
            .unwrap()
            .filter(|s| {
                Ok(Expr::col(s, "VT")?.temporal(
                    pred,
                    Expr::lit(Value::Interval(ongoing_core::OngoingInterval::fixed(
                        w.start, w.end,
                    ))),
                ))
            })
            .unwrap()
    };
    let union_plan = sel("Dex", TemporalPredicate::Overlaps)
        .union(sel("Dex", TemporalPredicate::Before))
        .unwrap()
        .build();
    check_equivalence(&db, &union_plan, "union of selections");

    let diff_plan = sel("Dex", TemporalPredicate::Overlaps)
        .difference(sel("Dex", TemporalPredicate::During))
        .unwrap()
        .build();
    check_equivalence(&db, &diff_plan, "difference of selections");

    let proj_plan = sel("Dex", TemporalPredicate::Overlaps)
        .project_cols(&["K", "VT"])
        .unwrap()
        .build();
    check_equivalence(&db, &proj_plan, "projection");
}

#[test]
fn complex_join_equivalence_on_mozilla() {
    let db = ongoing_datasets::mozilla_database(60, 5);
    for pred in [TemporalPredicate::Overlaps, TemporalPredicate::Before] {
        let plan = queries::complex_join(&db, pred).unwrap();
        check_equivalence(&db, &plan, &format!("QC⋈_{}", pred.name()));
    }
}

#[test]
fn physical_plans_match_reference_algebra() {
    // The optimized executors (hash join, sweep join, pushdown) must return
    // exactly what the naive Theorem-2 algebra returns.
    let db = small_db();
    let dex = db.table("Dex").unwrap();
    let dsh = db.table("Dsh").unwrap();

    let l = dex.data().clone().qualify("R");
    let r = dsh.data().clone().qualify("S");
    let schema = l.schema().product(r.schema());
    let pred = Expr::col(&schema, "R.K")
        .unwrap()
        .eq(Expr::col(&schema, "S.K").unwrap())
        .and(
            Expr::col(&schema, "R.VT")
                .unwrap()
                .overlaps(Expr::col(&schema, "S.VT").unwrap()),
        );
    let reference = algebra::join(&l, &r, &pred).unwrap().coalesce();

    let plan = QueryBuilder::scan_as(&db, "Dex", "R")
        .unwrap()
        .join(QueryBuilder::scan_as(&db, "Dsh", "S").unwrap(), |s| {
            Ok(Expr::col(s, "R.K")?
                .eq(Expr::col(s, "S.K")?)
                .and(Expr::col(s, "R.VT")?.overlaps(Expr::col(s, "S.VT")?)))
        })
        .unwrap()
        .build();

    for strategy in [
        JoinStrategy::Auto,
        JoinStrategy::NestedLoop,
        JoinStrategy::Hash,
        JoinStrategy::Sweep,
    ] {
        let cfg = PlannerConfig {
            join_strategy: strategy,
            ..PlannerConfig::default()
        };
        let (got, _) = compile(&db, &plan, &cfg)
            .unwrap()
            .execute_with_stats(&cfg.exec_context())
            .unwrap();
        let got = got.coalesce();
        assert_eq!(
            sorted(&got),
            sorted(&reference),
            "strategy {strategy:?} diverges from reference algebra"
        );
    }
}

#[test]
fn ablation_configs_agree() {
    // Disabling pushdown / predicate splitting / enabling the interval
    // index must never change results — only performance.
    let db = small_db();
    let h = History::synthetic();
    let w = h.last_fraction(0.1);
    let plan =
        queries::selection(&db, "Dex", TemporalPredicate::Overlaps, (w.start, w.end)).unwrap();
    let base = execute(&db, &plan).unwrap();
    for cfg in [
        PlannerConfig {
            pushdown: false,
            ..PlannerConfig::default()
        },
        PlannerConfig {
            split_predicates: false,
            ..PlannerConfig::default()
        },
        PlannerConfig {
            use_interval_index: true,
            ..PlannerConfig::default()
        },
    ] {
        let phys = compile(&db, &plan, &cfg).unwrap();
        let (got, _) = phys.execute_with_stats(&cfg.exec_context()).unwrap();
        assert_eq!(sorted(&got.coalesce()), sorted(&base.coalesce()), "{cfg:?}");
    }
}

fn sorted(rel: &OngoingRelation) -> Vec<String> {
    let mut rows: Vec<String> = rel.tuples().iter().map(|t| format!("{t}")).collect();
    rows.sort();
    rows
}
