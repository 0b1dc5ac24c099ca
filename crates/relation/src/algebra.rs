//! The relational algebra on ongoing relations (Sec. VII-B, Theorem 2).
//!
//! Each operator is defined so that for every reference time `rt`,
//! `∥op(R, …)∥rt ≡ opF(∥R∥rt, …)` — instantiating the result equals
//! evaluating the fixed operator on the instantiated inputs. The operators
//! restrict a result tuple's reference time to the conjunction of its input
//! tuples' reference times and the reference times at which the predicate
//! holds; tuples with an empty reference time are deleted.
//!
//! These are the *reference* implementations (straightforward, obviously
//! matching Theorem 2). The `ongoing-engine` crate layers physical
//! operators (hash joins, sort-merge joins, index pre-filters) on top that
//! must produce identical results.

use crate::expr::{EvalError, Expr};
use crate::relation::OngoingRelation;
use crate::schema::{Attribute, Schema, SchemaError};
use crate::tuple::Tuple;
use crate::value::Value;
use ongoing_core::OngoingBool;

/// One output column of a projection: either a pass-through attribute or a
/// computed scalar (e.g. `B.VT ∩ L.VT` in the running example).
#[derive(Debug, Clone)]
pub enum ProjItem {
    /// Keep the input attribute at this index.
    Col(usize),
    /// Compute a scalar expression and name the result.
    Named {
        /// The scalar expression.
        expr: Expr,
        /// The output attribute name.
        name: String,
    },
}

impl ProjItem {
    /// Resolves a pass-through column by name.
    pub fn col(schema: &Schema, name: &str) -> Result<ProjItem, SchemaError> {
        Ok(ProjItem::Col(schema.index_of(name)?))
    }

    /// A computed output column.
    pub fn named(expr: Expr, name: impl Into<String>) -> ProjItem {
        ProjItem::Named {
            expr,
            name: name.into(),
        }
    }
}

/// Projection `π_B(R)` (Theorem 2): keeps the listed attributes (and
/// computed scalars); the reference time of each tuple is unchanged.
pub fn project(rel: &OngoingRelation, items: &[ProjItem]) -> Result<OngoingRelation, EvalError> {
    let in_schema = rel.schema();
    let mut attrs = Vec::with_capacity(items.len());
    for item in items {
        match item {
            ProjItem::Col(i) => attrs.push(in_schema.attr(*i)?.clone()),
            ProjItem::Named { expr, name } => {
                attrs.push(Attribute::new(name.clone(), expr.result_type(in_schema)?))
            }
        }
    }
    let mut out = OngoingRelation::new(Schema::new(attrs));
    for t in rel.iter() {
        let mut values = Vec::with_capacity(items.len());
        for item in items {
            match item {
                ProjItem::Col(i) => values.push(t.value(*i).clone()),
                ProjItem::Named { expr, .. } => values.push(expr.eval_scalar(t.values())?),
            }
        }
        out.push(Tuple::with_rt(values, t.rt().clone()));
    }
    Ok(out)
}

/// Selection `σ_θ(R)` (Theorem 2): each tuple's reference time is restricted
/// to `r.RT ∧ θ(r)`; tuples with an empty reference time are deleted.
pub fn select(rel: &OngoingRelation, pred: &Expr) -> Result<OngoingRelation, EvalError> {
    let mut out = OngoingRelation::new(rel.schema().clone());
    for t in rel.iter() {
        let theta = pred.eval_predicate(t.values())?;
        let rt = restrict(t, &theta);
        if !rt.is_empty() {
            out.push(t.restricted(rt));
        }
    }
    Ok(out)
}

/// Restricts a tuple's reference time with a predicate result:
/// `r.RT ∧ θ(r)` — the conjunction of the tuple's reference time (as the
/// `St` of an ongoing boolean) with the predicate's ongoing boolean.
#[inline]
pub fn restrict(t: &Tuple, theta: &OngoingBool) -> ongoing_core::IntervalSet {
    t.rt().intersect(theta.true_set())
}

/// Cartesian product `R × S` (Theorem 2): concatenates attribute values;
/// the result reference time is `r.RT ∧ s.RT`.
pub fn product(l: &OngoingRelation, r: &OngoingRelation) -> OngoingRelation {
    let schema = l.schema().product(r.schema());
    let mut out = OngoingRelation::new(schema);
    for lt in l.iter() {
        for rt_ in r.iter() {
            let t = lt.concat(rt_);
            out.push(t); // push drops empty-RT tuples
        }
    }
    out
}

/// Theta-join `R ⋈_θ S = σ_θ(R × S)` — fused so non-qualifying pairs are
/// dropped without materializing the full product.
pub fn join(
    l: &OngoingRelation,
    r: &OngoingRelation,
    pred: &Expr,
) -> Result<OngoingRelation, EvalError> {
    let schema = l.schema().product(r.schema());
    let mut out = OngoingRelation::new(schema);
    for lt in l.iter() {
        for rt_ in r.iter() {
            let t = lt.concat(rt_);
            if t.rt().is_empty() {
                continue;
            }
            let theta = pred.eval_predicate(t.values())?;
            let rt = restrict(&t, &theta);
            if !rt.is_empty() {
                out.push(t.restricted(rt));
            }
        }
    }
    Ok(out)
}

/// Union `R ∪ S` (Theorem 2). Tuples with identical attribute values are
/// coalesced (their reference times are unioned), preserving set semantics
/// at every instantiation.
pub fn union(l: &OngoingRelation, r: &OngoingRelation) -> Result<OngoingRelation, SchemaError> {
    if !l.schema().compatible_with(r.schema()) {
        return Err(SchemaError::Mismatch(
            "union requires type-compatible schemas".into(),
        ));
    }
    let mut out = OngoingRelation::new(l.schema().clone());
    for t in l.iter().chain(r.iter()) {
        out.push(t.clone());
    }
    Ok(out.coalesce())
}

/// Difference `R − S` (Theorem 2): a tuple of `R` survives at the reference
/// times where no `S`-tuple instantiates to the same fixed values while
/// alive:
///
/// ```text
/// x.RT = {rt ∈ r.RT | ∄ s ∈ S (∥r.A∥rt = ∥s.A∥rt ∧ rt ∈ s.RT)}
/// ```
///
/// computed as `r.RT ∧ ¬ ⋁_s (eq(r.A, s.A) ∧ s.RT)` using the ongoing
/// equality of attribute values.
pub fn difference(
    l: &OngoingRelation,
    r: &OngoingRelation,
) -> Result<OngoingRelation, SchemaError> {
    if !l.schema().compatible_with(r.schema()) {
        return Err(SchemaError::Mismatch(
            "difference requires type-compatible schemas".into(),
        ));
    }
    let mut out = OngoingRelation::new(l.schema().clone());
    for lt in l.iter() {
        let mut removed = OngoingBool::always_false();
        for st in r.iter() {
            if removed.is_always_true() {
                break;
            }
            let eq = tuple_eq(lt.values(), st.values());
            if eq.is_always_false() {
                continue;
            }
            let alive = OngoingBool::from_set(st.rt().clone());
            removed = removed.or(&eq.and(&alive));
        }
        let rt = lt.rt().intersect(&removed.not().into_true_set());
        if !rt.is_empty() {
            out.push(lt.restricted(rt));
        }
    }
    Ok(out)
}

/// Reference-time-dependent equality of two rows: the conjunction of the
/// attribute-wise ongoing equalities.
pub fn tuple_eq(a: &[Value], b: &[Value]) -> OngoingBool {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = OngoingBool::always_true();
    for (x, y) in a.iter().zip(b.iter()) {
        if acc.is_always_false() {
            break;
        }
        acc = acc.and(&x.ongoing_eq(y));
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use ongoing_core::date::md;
    use ongoing_core::time::tp;
    use ongoing_core::{IntervalSet, OngoingInterval, TimePoint};

    fn bugs() -> OngoingRelation {
        // Relation B of Fig. 1.
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
        b
    }

    fn patches() -> OngoingRelation {
        // Relation P of Fig. 1.
        let schema = Schema::builder().int("PID").str("C").interval("VT").build();
        let mut p = OngoingRelation::new(schema);
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
        p
    }

    #[test]
    fn selection_restricts_rt_example_3() {
        // Example 3: σ_{VT overlaps [01/20, 08/18)} on a tuple with
        // RT = {(-∞, 08/16)} yields RT = {[01/26, 08/16)}.
        let schema = Schema::builder().int("BID").str("C").interval("VT").build();
        let mut x = OngoingRelation::new(schema.clone());
        x.insert_with_rt(
            vec![
                Value::Int(500),
                Value::str("Spam filter"),
                Value::Interval(OngoingInterval::from_until_now(md(1, 25))),
            ],
            IntervalSet::range(TimePoint::NEG_INF, md(8, 16)),
        )
        .unwrap();
        let pred = Expr::col(&schema, "VT")
            .unwrap()
            .overlaps(Expr::lit(Value::Interval(OngoingInterval::fixed(
                md(1, 20),
                md(8, 18),
            ))));
        let q = select(&x, &pred).unwrap();
        assert_eq!(q.len(), 1);
        assert_eq!(
            q.iter().next().unwrap().rt(),
            &IntervalSet::range(md(1, 26), md(8, 16))
        );
    }

    #[test]
    fn selection_deletes_empty_rt_tuples() {
        let b = bugs();
        let schema = b.schema().clone();
        let pred = Expr::col(&schema, "C").unwrap().eq(Expr::lit("No match"));
        let q = select(&b, &pred).unwrap();
        assert!(q.is_empty());
    }

    #[test]
    fn join_reproduces_running_example_rt() {
        // σ_{C='Spam filter'}(B) ⋈ (B.C = P.C ∧ B.VT before P.VT) P:
        // b1 ⋈ p1 gets RT = {[01/26, 08/16)} (Sec. II).
        let b = bugs().qualify("B");
        let p = patches().qualify("P");
        let schema = b.schema().product(p.schema());
        let pred = Expr::col(&schema, "B.C")
            .unwrap()
            .eq(Expr::col(&schema, "P.C").unwrap())
            .and(
                Expr::col(&schema, "B.VT")
                    .unwrap()
                    .before(Expr::col(&schema, "P.VT").unwrap()),
            );
        let v = join(&b, &p, &pred).unwrap();
        // b1 joins p1 and p2; b2 joins p2 only ([03/30, 08/21) is not
        // before [08/15, 08/24)).
        assert_eq!(v.len(), 3);
        let b1p1 = v
            .iter()
            .find(|t| t.value(0) == &Value::Int(500) && t.value(3) == &Value::Int(201))
            .unwrap();
        assert_eq!(b1p1.rt(), &IntervalSet::range(md(1, 26), md(8, 16)));
    }

    #[test]
    fn product_intersects_input_rts() {
        let schema = Schema::builder().int("X").build();
        let mut l = OngoingRelation::new(schema.clone());
        l.insert_with_rt(vec![Value::Int(1)], IntervalSet::range(tp(0), tp(10)))
            .unwrap();
        let mut r = OngoingRelation::new(schema);
        r.insert_with_rt(vec![Value::Int(2)], IntervalSet::range(tp(5), tp(20)))
            .unwrap();
        let p = product(&l, &r);
        assert_eq!(p.len(), 1);
        assert_eq!(
            p.iter().next().unwrap().rt(),
            &IntervalSet::range(tp(5), tp(10))
        );
    }

    #[test]
    fn product_drops_disjoint_rt_pairs() {
        let schema = Schema::builder().int("X").build();
        let mut l = OngoingRelation::new(schema.clone());
        l.insert_with_rt(vec![Value::Int(1)], IntervalSet::range(tp(0), tp(5)))
            .unwrap();
        let mut r = OngoingRelation::new(schema);
        r.insert_with_rt(vec![Value::Int(2)], IntervalSet::range(tp(5), tp(9)))
            .unwrap();
        assert!(product(&l, &r).is_empty());
    }

    #[test]
    fn projection_keeps_rt_and_computes_intersection() {
        // π_{BID, VT ∩ [08/01, 09/01)} over bugs.
        let b = bugs();
        let schema = b.schema().clone();
        let items = [
            ProjItem::col(&schema, "BID").unwrap(),
            ProjItem::named(
                Expr::col(&schema, "VT")
                    .unwrap()
                    .intersect(Expr::lit(Value::Interval(OngoingInterval::fixed(
                        md(8, 1),
                        md(9, 1),
                    )))),
                "OverlapVT",
            ),
        ];
        let q = project(&b, &items).unwrap();
        assert_eq!(q.schema().attrs()[1].name, "OverlapVT");
        assert_eq!(q.len(), 2);
        assert!(q.iter().all(|t| t.rt().is_full()));
    }

    #[test]
    fn union_coalesces_same_payload() {
        let schema = Schema::builder().int("X").build();
        let mut l = OngoingRelation::new(schema.clone());
        l.insert_with_rt(vec![Value::Int(1)], IntervalSet::range(tp(0), tp(5)))
            .unwrap();
        let mut r = OngoingRelation::new(schema);
        r.insert_with_rt(vec![Value::Int(1)], IntervalSet::range(tp(3), tp(9)))
            .unwrap();
        let u = union(&l, &r).unwrap();
        assert_eq!(u.len(), 1);
        assert_eq!(
            u.iter().next().unwrap().rt(),
            &IntervalSet::range(tp(0), tp(9))
        );
    }

    #[test]
    fn union_requires_compatible_schemas() {
        let a = OngoingRelation::new(Schema::builder().int("X").build());
        let b = OngoingRelation::new(Schema::builder().str("X").build());
        assert!(union(&a, &b).is_err());
    }

    #[test]
    fn difference_on_fixed_values() {
        let schema = Schema::builder().int("X").build();
        let mut l = OngoingRelation::new(schema.clone());
        l.insert_with_rt(vec![Value::Int(1)], IntervalSet::range(tp(0), tp(10)))
            .unwrap();
        let mut r = OngoingRelation::new(schema);
        r.insert_with_rt(vec![Value::Int(1)], IntervalSet::range(tp(4), tp(20)))
            .unwrap();
        let d = difference(&l, &r).unwrap();
        assert_eq!(d.len(), 1);
        // Removed where the S tuple is alive: survives only on [0, 4).
        assert_eq!(
            d.iter().next().unwrap().rt(),
            &IntervalSet::range(tp(0), tp(4))
        );
    }

    #[test]
    fn difference_with_ongoing_values_is_pointwise() {
        // R has [0, now); S has the fixed [0, 6). They instantiate equally
        // exactly at rt = 6, so R's tuple is removed only there.
        let schema = Schema::builder().interval("VT").build();
        let mut l = OngoingRelation::new(schema.clone());
        l.insert(vec![Value::Interval(OngoingInterval::from_until_now(tp(
            0,
        )))])
        .unwrap();
        let mut r = OngoingRelation::new(schema);
        r.insert(vec![Value::Interval(OngoingInterval::fixed(tp(0), tp(6)))])
            .unwrap();
        let d = difference(&l, &r).unwrap();
        assert_eq!(d.len(), 1);
        let rt = d.iter().next().unwrap().rt();
        assert!(rt.contains(tp(5)));
        assert!(!rt.contains(tp(6)));
        assert!(rt.contains(tp(7)));
        // Cross-check the paper's criterion at a few reference times.
        for rt_probe in -2i64..10 {
            let rt_probe = tp(rt_probe);
            let expect = l
                .bind(rt_probe)
                .rows()
                .iter()
                .filter(|row| !r.bind(rt_probe).contains(row))
                .count();
            assert_eq!(d.bind(rt_probe).len(), expect, "rt={rt_probe}");
        }
    }

    #[test]
    fn operators_satisfy_bind_commutation_smoke() {
        // ∥σ(R)∥rt == σF(∥R∥rt) spot-check on the running-example data.
        let b = bugs();
        let schema = b.schema().clone();
        let pred = Expr::col(&schema, "VT")
            .unwrap()
            .overlaps(Expr::lit(Value::Interval(OngoingInterval::fixed(
                md(8, 1),
                md(9, 1),
            ))));
        let q = select(&b, &pred).unwrap();
        for rt in [md(1, 1), md(8, 2), md(8, 22), md(12, 1)] {
            let lhs = q.bind(rt);
            let rhs_rows: Vec<Vec<Value>> = b
                .bind(rt)
                .rows()
                .iter()
                .filter(|row| {
                    let iv = row[2].as_interval().unwrap();
                    ongoing_core::allen::fixed::overlaps(
                        (iv.ts().a(), iv.te().a()),
                        (md(8, 1), md(9, 1)),
                    )
                })
                .cloned()
                .collect();
            let rhs = crate::relation::FixedRelation::from_rows(rhs_rows);
            assert_eq!(lhs, rhs, "rt={rt}");
        }
    }
}
