//! The evaluation queries of Sec. IX.
//!
//! * `Qσ_i = σ_{VT pred_i [ts, te)}(R)` — selection with a temporal
//!   predicate against a fixed window.
//! * `Q⋈_i = R ⋈_{θN ∧ R.VT pred_i S.VT} S` — self-join with equality on a
//!   non-temporal attribute plus a temporal predicate (`S` and `R` refer to
//!   the same relation).
//! * `QC⋈_i` — the complex MozillaBugs join: for a person, similar bugs
//!   open at any time while the person works on a bug of severity *major*;
//!   similar bugs share product, component and operating system (`θsim`).
//!
//! The builders only need a [`Database`] with the right table names; the
//! datasets crate produces matching relations.

use crate::catalog::Database;
use crate::error::Result;
use crate::plan::{LogicalPlan, QueryBuilder};
use ongoing_core::allen::TemporalPredicate;
use ongoing_core::{OngoingInterval, TimePoint};
use ongoing_relation::{Expr, Value};

/// `Qσ_pred`: selection of tuples whose `VT` satisfies `pred` against the
/// fixed window `[ts, te)`.
pub fn selection(
    db: &Database,
    table: &str,
    pred: TemporalPredicate,
    window: (TimePoint, TimePoint),
) -> Result<LogicalPlan> {
    let win = Value::Interval(OngoingInterval::fixed(window.0, window.1));
    Ok(QueryBuilder::scan(db, table)?
        .filter(|s| Ok(Expr::col(s, "VT")?.temporal(pred, Expr::lit(win))))?
        .build())
}

/// `Q⋈_pred`: self-join `R ⋈_{R.c = S.c ∧ R.VT pred S.VT} R` with equality
/// on the non-temporal attribute `eq_attr`.
pub fn self_join(
    db: &Database,
    table: &str,
    eq_attr: &str,
    pred: TemporalPredicate,
) -> Result<LogicalPlan> {
    let l = QueryBuilder::scan_as(db, table, "R")?;
    let r = QueryBuilder::scan_as(db, table, "S")?;
    let l_eq = format!("R.{eq_attr}");
    let r_eq = format!("S.{eq_attr}");
    Ok(l.join(r, |s| {
        Ok(Expr::col(s, &l_eq)?
            .eq(Expr::col(s, &r_eq)?)
            .and(Expr::col(s, "R.VT")?.temporal(pred, Expr::col(s, "S.VT")?)))
    })?
    .build())
}

/// `QC⋈_pred`: the complex MozillaBugs join of Sec. IX-A:
///
/// ```text
/// A ⋈_{A.ID = S.ID ∧ A.VT overlaps S.VT ∧ S.Severity = 'major'} S
///   ⋈_{A.ID = B.ID} B
///   ⋈_{θsim ∧ A.VT pred B'.VT} B'
/// ```
///
/// with `θsim`: same product, component and operating system. Expects
/// tables `BugAssignment(ID, Assignee, VT)`, `BugSeverity(ID, Severity,
/// VT)` and `BugInfo(ID, Product, Component, OS, Description, VT)`.
pub fn complex_join(db: &Database, pred: TemporalPredicate) -> Result<LogicalPlan> {
    let a = QueryBuilder::scan_as(db, "BugAssignment", "A")?;
    let s = QueryBuilder::scan_as(db, "BugSeverity", "S")?;
    let b = QueryBuilder::scan_as(db, "BugInfo", "B")?;
    let b2 = QueryBuilder::scan_as(db, "BugInfo", "B2")?;

    let a_s = a.join(s, |sc| {
        Ok(Expr::col(sc, "A.ID")?
            .eq(Expr::col(sc, "S.ID")?)
            .and(Expr::col(sc, "A.VT")?.overlaps(Expr::col(sc, "S.VT")?))
            .and(Expr::col(sc, "S.Severity")?.eq(Expr::lit("major"))))
    })?;

    let asb = a_s.join(
        b,
        |sc| Ok(Expr::col(sc, "A.ID")?.eq(Expr::col(sc, "B.ID")?)),
    )?;

    Ok(asb
        .join(b2, |sc| {
            Ok(Expr::col(sc, "B.Product")?
                .eq(Expr::col(sc, "B2.Product")?)
                .and(Expr::col(sc, "B.Component")?.eq(Expr::col(sc, "B2.Component")?))
                .and(Expr::col(sc, "B.OS")?.eq(Expr::col(sc, "B2.OS")?))
                .and(Expr::col(sc, "A.VT")?.temporal(pred, Expr::col(sc, "B2.VT")?)))
        })?
        .build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{compile, PlannerConfig};
    use ongoing_core::date::md;
    use ongoing_relation::{OngoingRelation, Schema};

    fn bugs_db() -> Database {
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
    fn selection_query_shape() {
        let db = bugs_db();
        let plan = selection(&db, "B", TemporalPredicate::Overlaps, (md(8, 1), md(9, 1))).unwrap();
        let result = crate::execute(&db, &plan).unwrap();
        assert_eq!(result.len(), 2);
    }

    #[test]
    fn self_join_uses_hash_join() {
        let db = bugs_db();
        let plan = self_join(&db, "B", "C", TemporalPredicate::Overlaps).unwrap();
        let phys = compile(&db, &plan, &PlannerConfig::default()).unwrap();
        assert!(
            phys.explain().contains("HashJoin"),
            "equality conjunct should drive a hash join:\n{}",
            phys.explain()
        );
        let (result, _) = phys
            .execute_with_stats(&crate::ExecContext::from_env())
            .unwrap();
        // Both bugs share the component and their VTs overlap at some rt
        // (plus self-pairs): at least the 2 self-pairs and 2 cross pairs.
        assert_eq!(result.len(), 4);
    }

    #[test]
    fn complex_join_builds_against_mozilla_schema() {
        let db = Database::new();
        db.create_table(
            "BugAssignment",
            OngoingRelation::new(
                Schema::builder()
                    .int("ID")
                    .str("Assignee")
                    .interval("VT")
                    .build(),
            ),
        )
        .unwrap();
        db.create_table(
            "BugSeverity",
            OngoingRelation::new(
                Schema::builder()
                    .int("ID")
                    .str("Severity")
                    .interval("VT")
                    .build(),
            ),
        )
        .unwrap();
        db.create_table(
            "BugInfo",
            OngoingRelation::new(
                Schema::builder()
                    .int("ID")
                    .str("Product")
                    .str("Component")
                    .str("OS")
                    .str("Description")
                    .interval("VT")
                    .build(),
            ),
        )
        .unwrap();
        let plan = complex_join(&db, TemporalPredicate::Overlaps).unwrap();
        // 3 + 3 + 6 + 6 attributes.
        assert_eq!(plan.schema().len(), 18);
        let result = crate::execute(&db, &plan).unwrap();
        assert!(result.is_empty());
    }
}
