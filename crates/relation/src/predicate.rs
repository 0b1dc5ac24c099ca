//! Predicates compiled once per plan into conjunct kernels.
//!
//! An operator predicate is evaluated for every tuple (or join candidate
//! pair) it sees, so walking the [`Expr`] tree per row dominates a filter's
//! cost. A [`Predicate`] keeps the source `Expr` and splits it, once, into
//! its conjuncts, each with a *kernel* for the shapes the paper's queries
//! use:
//!
//! * `#i θ n` — a column against an `Int` literal, every [`CmpOp`], either
//!   operand order (`n θ #i` stores the mirrored operator);
//! * `#i θ 'text'` — a column against a `Str` literal;
//! * `#i θ [s, e)` — a Table II predicate between a column and a fixed
//!   interval literal, either operand order;
//! * `#i θ #j` — a Table II predicate between two columns (the join
//!   residual `A.VT overlaps S.VT`).
//!
//! A kernel reads the stored value and decides only when it has the type
//! and shape the kernel handles: an `Int`, a `Str`, or an interval that is
//! fixed (a `Span`, or an `Interval` with fixed endpoints) — at a reference
//! time every interval is, once bound. Anything else (an ongoing interval
//! in ongoing mode, a `Count` next to an `Int` literal, a missing column)
//! goes to the conjunct's own `Expr` evaluator, so results and errors are
//! the generic evaluator's by construction. On fixed operands every
//! Table II predicate is true at all reference times or at none, so in
//! ongoing mode a kernel's decision is [`OngoingBool::from_bool`].
//!
//! Conjunct order and short-circuiting are those of the `Expr`: the
//! conjuncts are the left spine of its `AND` tree, the boolean entry
//! points stop at the first false conjunct and
//! [`eval_predicate`](Predicate::eval_predicate) stops once the
//! accumulated ongoing boolean is always false — so exactly the rows that
//! `Expr` evaluates are evaluated, and the same rows raise the same
//! [`EvalError`].
//!
//! Every entry point reads a [`Row`]: a tuple's values, or a join's
//! candidate [`Pair`] read in place, so a join concatenates only the pairs
//! that pass.

use crate::expr::{AsStored, BoundAt, CmpOp, EvalError, Expr, Row};
use crate::value::Value;
use ongoing_core::allen::TemporalPredicate;
use ongoing_core::{OngoingBool, TimePoint};
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// A predicate compiled into conjunct kernels (see the
/// [module docs](self)). Renders, in `Display` and `Debug`, exactly as its
/// source [`Expr`].
#[derive(Clone)]
pub struct Predicate {
    source: Expr,
    conjuncts: Vec<Conjunct>,
}

/// A left-spine conjunct of the source: its `Expr` and its kernel.
#[derive(Debug, Clone)]
struct Conjunct {
    expr: Expr,
    kernel: Kernel,
}

/// The shape a conjunct is decided by, resolved at compile time.
#[derive(Debug, Clone)]
enum Kernel {
    /// No kernel: the conjunct's `Expr` decides.
    Generic,
    /// `#col op lit` over `Int` values.
    Int { col: usize, op: CmpOp, lit: i64 },
    /// `#col op lit` over `Str` values.
    Str {
        col: usize,
        op: CmpOp,
        lit: Arc<str>,
    },
    /// `#col pred [s, e)`, or `[s, e) pred #col` when `!col_first`.
    Interval {
        col: usize,
        pred: TemporalPredicate,
        lit: (TimePoint, TimePoint),
        col_first: bool,
    },
    /// `#l pred #r`.
    Columns {
        pred: TemporalPredicate,
        l: usize,
        r: usize,
    },
}

/// A join's candidate pair, read as the concatenated row `l ++ r` without
/// building it.
#[derive(Debug, Clone, Copy)]
pub struct Pair<'a> {
    left: &'a [Value],
    right: &'a [Value],
}

impl<'a> Pair<'a> {
    /// The pair `(left, right)`; attribute `i` is `left[i]` below
    /// `left.len()` and `right[i - left.len()]` above.
    pub fn new(left: &'a [Value], right: &'a [Value]) -> Self {
        Pair { left, right }
    }
}

impl Row for Pair<'_> {
    #[inline]
    fn attr(&self, i: usize) -> Option<&Value> {
        match i.checked_sub(self.left.len()) {
            None => self.left.get(i),
            Some(j) => self.right.get(j),
        }
    }
}

impl Predicate {
    /// Compiles `source` into conjunct kernels.
    pub fn compile(source: Expr) -> Predicate {
        let mut spine = Vec::new();
        let mut e = &source;
        while let Expr::And(l, r) = e {
            spine.push(r.as_ref());
            e = l;
        }
        spine.push(e);
        let conjuncts = spine
            .into_iter()
            .rev()
            .map(|c| Conjunct {
                kernel: Kernel::of(c),
                expr: c.clone(),
            })
            .collect();
        Predicate { source, conjuncts }
    }

    /// The source expression, as compiled.
    pub fn source(&self) -> &Expr {
        &self.source
    }

    /// [`Expr::eval_bool`] of the source over `row`.
    pub fn eval_bool<R: Row + ?Sized>(&self, row: &R) -> Result<bool, EvalError> {
        for c in &self.conjuncts {
            let holds = match c.kernel.decide(row, None) {
                Some(b) => b,
                None => c.expr.boolean(row, AsStored)?,
            };
            if !holds {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// [`Expr::eval_bool_at`] of the source over `row` at `rt`.
    pub fn eval_bool_at<R: Row + ?Sized>(&self, row: &R, rt: TimePoint) -> Result<bool, EvalError> {
        for c in &self.conjuncts {
            let holds = match c.kernel.decide(row, Some(rt)) {
                Some(b) => b,
                None => c.expr.boolean(row, BoundAt(rt))?,
            };
            if !holds {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// [`Expr::eval_predicate`] of the source over `row`.
    pub fn eval_predicate<R: Row + ?Sized>(&self, row: &R) -> Result<OngoingBool, EvalError> {
        let mut acc = OngoingBool::always_true();
        for c in &self.conjuncts {
            match c.kernel.decide(row, None) {
                // `acc ∧ true` is `acc`; `acc ∧ false` is always false.
                Some(true) => {}
                Some(false) => return Ok(OngoingBool::always_false()),
                None => {
                    let b = c.expr.predicate(row)?;
                    acc = if acc.is_always_true() { b } else { acc.and(&b) };
                    if acc.is_always_false() {
                        return Ok(acc);
                    }
                }
            }
        }
        Ok(acc)
    }
}

impl Kernel {
    fn of(e: &Expr) -> Kernel {
        match e {
            Expr::Cmp(op, l, r) => match (l.as_ref(), r.as_ref()) {
                (Expr::Col(col), Expr::Const(v)) => Kernel::cmp(*col, *op, v),
                (Expr::Const(v), Expr::Col(col)) => Kernel::cmp(*col, op.mirror(), v),
                _ => Kernel::Generic,
            },
            Expr::Temporal(pred, l, r) => match (l.as_ref(), r.as_ref()) {
                (Expr::Col(l), Expr::Col(r)) => Kernel::Columns {
                    pred: *pred,
                    l: *l,
                    r: *r,
                },
                (Expr::Col(col), Expr::Const(v)) | (Expr::Const(v), Expr::Col(col)) => {
                    match fixed_span(v, None) {
                        Some(lit) => Kernel::Interval {
                            col: *col,
                            pred: *pred,
                            lit,
                            col_first: matches!(l.as_ref(), Expr::Col(_)),
                        },
                        None => Kernel::Generic,
                    }
                }
                _ => Kernel::Generic,
            },
            _ => Kernel::Generic,
        }
    }

    fn cmp(col: usize, op: CmpOp, lit: &Value) -> Kernel {
        match lit {
            Value::Int(n) => Kernel::Int { col, op, lit: *n },
            Value::Str(s) => Kernel::Str {
                col,
                op,
                lit: Arc::clone(s),
            },
            _ => Kernel::Generic,
        }
    }

    /// The conjunct's value on `row` — as stored, or bound at `rt` — when
    /// the stored operands have the shape this kernel handles; `None`
    /// hands the row to the conjunct's `Expr`.
    #[inline]
    fn decide<R: Row + ?Sized>(&self, row: &R, rt: Option<TimePoint>) -> Option<bool> {
        match self {
            Kernel::Generic => None,
            Kernel::Int { col, op, lit } => match row.attr(*col)? {
                Value::Int(n) => Some(holds(*op, n.cmp(lit))),
                _ => None,
            },
            Kernel::Str { col, op, lit } => match row.attr(*col)? {
                Value::Str(s) => Some(match op {
                    CmpOp::Eq => **s == **lit,
                    CmpOp::Ne => **s != **lit,
                    _ => holds(*op, s.cmp(lit)),
                }),
                _ => None,
            },
            Kernel::Interval {
                col,
                pred,
                lit,
                col_first,
            } => {
                let v = fixed_span(row.attr(*col)?, rt)?;
                Some(if *col_first {
                    pred.eval_fixed(v, *lit)
                } else {
                    pred.eval_fixed(*lit, v)
                })
            }
            Kernel::Columns { pred, l, r } => {
                let lv = fixed_span(row.attr(*l)?, rt)?;
                let rv = fixed_span(row.attr(*r)?, rt)?;
                Some(pred.eval_fixed(lv, rv))
            }
        }
    }
}

/// `a op b` given `a.cmp(b)`.
#[inline]
fn holds(op: CmpOp, ord: Ordering) -> bool {
    match op {
        CmpOp::Lt => ord.is_lt(),
        CmpOp::Le => ord.is_le(),
        CmpOp::Eq => ord.is_eq(),
        CmpOp::Ne => ord.is_ne(),
        CmpOp::Ge => ord.is_ge(),
        CmpOp::Gt => ord.is_gt(),
    }
}

/// An interval value as a fixed pair: a `Span`, an `Interval` with fixed
/// endpoints, or — at a reference time — any `Interval`, bound. `None`
/// for an ongoing interval as stored and for every non-interval.
#[inline]
fn fixed_span(v: &Value, rt: Option<TimePoint>) -> Option<(TimePoint, TimePoint)> {
    match (v, rt) {
        (Value::Span(s, e), _) => Some((*s, *e)),
        (Value::Interval(iv), Some(rt)) => Some(iv.bind(rt)),
        (Value::Interval(iv), None) if !iv.is_ongoing() => Some((iv.ts().a(), iv.te().a())),
        _ => None,
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.source, f)
    }
}

impl fmt::Debug for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.source, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::tests::{probe_rts, typed_samples, CMP_OPS};
    use crate::schema::SchemaError;
    use ongoing_core::time::tp;
    use ongoing_core::{OngoingInterval, OngoingPoint};

    /// PR 19's typed samples plus the domain limits and empty intervals.
    fn samples() -> Vec<Value> {
        let (neg, pos) = (TimePoint::NEG_INF, TimePoint::POS_INF);
        let mut out = typed_samples();
        out.extend([
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Time(neg),
            Value::Span(neg, pos),
            Value::Span(tp(5), tp(2)),
            Value::Span(tp(4), tp(4)),
            Value::Interval(OngoingInterval::fixed(neg, tp(3))),
            Value::Interval(OngoingInterval::fixed(tp(2), pos)),
            Value::Interval(OngoingInterval::fixed(tp(6), tp(1))),
            Value::Interval(OngoingInterval::from_until_now(neg)),
            Value::Interval(OngoingInterval::new(
                OngoingPoint::growing(tp(7)),
                OngoingPoint::fixed(tp(3)),
            )),
        ]);
        out
    }

    /// Every kernel shape over columns 0 and 1 or a literal: `Cmp` for
    /// each operator and Table II predicate for each predicate, column
    /// first, literal first and column against column.
    fn shapes(l: &Value, r: &Value) -> Vec<Expr> {
        let c = |v: &Value| Expr::Const(v.clone());
        let mut out = Vec::new();
        for op in CMP_OPS {
            let cmp = |a: Expr, b: Expr| Expr::Cmp(op, Box::new(a), Box::new(b));
            out.push(cmp(Expr::Col(0), c(r)));
            out.push(cmp(c(l), Expr::Col(1)));
            out.push(cmp(Expr::Col(0), Expr::Col(1)));
        }
        for pred in TemporalPredicate::ALL {
            out.push(Expr::Col(0).temporal(pred, c(r)));
            out.push(c(l).temporal(pred, Expr::Col(1)));
            out.push(Expr::Col(0).temporal(pred, Expr::Col(1)));
        }
        out
    }

    /// The compiled entry points equal the `Expr` ones on `row` — as
    /// stored, and at every `rt` probed for `values`.
    fn assert_same<R: Row + ?Sized>(
        e: &Expr,
        p: &Predicate,
        row: &R,
        flat: &[Value],
        rts: &[TimePoint],
    ) {
        assert_eq!(p.eval_bool(row), e.eval_bool(flat), "{e} over {flat:?}");
        assert_eq!(
            p.eval_predicate(row),
            e.eval_predicate(flat),
            "{e} over {flat:?}"
        );
        for &rt in rts {
            let want = e.eval_bool_at(flat, rt);
            assert_eq!(
                p.eval_bool_at(row, rt),
                want,
                "{e} over {flat:?} at rt={rt}"
            );
        }
    }

    #[test]
    fn kernels_equal_expr_on_every_sample() {
        let samples = samples();
        let (mut decided, mut errors) = (0usize, 0usize);
        for l in &samples {
            for r in &samples {
                let row = [l.clone(), r.clone()];
                let rts = probe_rts(&[l, r]);
                for e in shapes(l, r) {
                    let p = Predicate::compile(e.clone());
                    assert_same(&e, &p, &row[..], &row, &rts);
                    // Read as a join pair, split after either column.
                    let (a, b) = row.split_at(1);
                    assert_same(&e, &p, &Pair::new(a, b), &row, &rts);
                    assert_same(&e, &p, &Pair::new(&row, &[]), &row, &rts);
                    assert_same(&e, &p, &Pair::new(&[], &row), &row, &rts);
                    decided += usize::from(p.conjuncts[0].kernel.decide(&row[..], None).is_some());
                    errors += usize::from(e.eval_bool(&row).is_err());
                }
            }
        }
        // Both the kernels and the fallback (errors included) ran.
        assert!(
            decided > 0 && errors > 0,
            "decided {decided}, errors {errors}"
        );
    }

    #[test]
    fn kernel_shapes_are_recognised() {
        let window = Value::Interval(OngoingInterval::fixed(tp(1), tp(5)));
        let kernel = |e: Expr| Predicate::compile(e).conjuncts[0].kernel.clone();
        assert!(matches!(
            kernel(Expr::lit(3i64).lt(Expr::Col(2))),
            Kernel::Int {
                col: 2,
                op: CmpOp::Gt,
                lit: 3
            }
        ));
        assert!(matches!(
            kernel(Expr::Col(1).eq(Expr::lit("major"))),
            Kernel::Str {
                col: 1,
                op: CmpOp::Eq,
                ..
            }
        ));
        assert!(matches!(
            kernel(Expr::lit(window.clone()).before(Expr::Col(0))),
            Kernel::Interval {
                col: 0,
                col_first: false,
                ..
            }
        ));
        assert!(matches!(
            kernel(Expr::Col(0).overlaps(Expr::Col(4))),
            Kernel::Columns { l: 0, r: 4, .. }
        ));
        // An ongoing literal, a point comparison and connectives have none.
        let ongoing = Value::Interval(OngoingInterval::from_until_now(tp(1)));
        for e in [
            Expr::Col(0).overlaps(Expr::lit(ongoing)),
            Expr::Col(0).lt(Expr::lit(Value::Time(tp(3)))),
            Expr::Col(0).lt(Expr::lit(1i64)).not(),
        ] {
            assert!(matches!(kernel(e), Kernel::Generic));
        }
    }

    #[test]
    fn conjunctions_keep_order_short_circuits_and_errors() {
        // Over (K: Int, C: Str, VT, W): a true range, a false equality, a
        // type error and an ongoing conjunct, nested left and right.
        let vt = |s, e| Value::Interval(OngoingInterval::fixed(tp(s), tp(e)));
        let rows = [
            vec![
                Value::Int(4),
                Value::str("major"),
                Value::Interval(OngoingInterval::from_until_now(tp(3))),
                vt(1, 9),
            ],
            vec![Value::Int(9), Value::str("minor"), vt(2, 6), vt(7, 9)],
            vec![Value::Int(4), Value::Int(1), vt(2, 6), vt(0, 3)],
        ];
        let range = Expr::lit(2i64)
            .le(Expr::Col(0))
            .and(Expr::Col(0).lt(Expr::lit(8i64)));
        let major = Expr::Col(1).eq(Expr::lit("major"));
        let ovlp = Expr::Col(2).overlaps(Expr::Col(3));
        let win = Expr::Col(2).before(Expr::lit(vt(5, 8)));
        let bad = Expr::Col(0).lt(Expr::lit("x"));
        let missing = Expr::Col(7).eq(Expr::lit(1i64));
        let parts = [range, major, ovlp, win, bad, missing];
        let mut exprs = Vec::new();
        for a in &parts {
            for b in &parts {
                for c in &parts {
                    exprs.push(a.clone().and(b.clone()).and(c.clone()));
                    exprs.push(a.clone().and(b.clone().and(c.clone())));
                    exprs.push(a.clone().or(b.clone()).and(c.clone()));
                }
            }
        }
        for row in &rows {
            let rts = probe_rts(&row.iter().collect::<Vec<_>>());
            for e in &exprs {
                let p = Predicate::compile(e.clone());
                assert_eq!(p.to_string(), e.to_string());
                assert_eq!(format!("{p:?}"), format!("{e:?}"));
                assert_same(e, &p, &row[..], row, &rts);
                let (a, b) = row.split_at(2);
                assert_same(e, &p, &Pair::new(a, b), row, &rts);
            }
        }
        let p = Predicate::compile(parts[5].clone());
        let err = Err(EvalError::Schema(SchemaError::BadIndex(7)));
        assert_eq!(p.eval_bool(&rows[0][..]), err);
    }
}
