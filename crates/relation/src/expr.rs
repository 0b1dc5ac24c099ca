//! Predicate and scalar expressions over ongoing tuples.
//!
//! A predicate evaluates to an [`OngoingBool`]: predicates on fixed
//! attributes retain their standard behaviour (their result is `true` or
//! `false` at *every* reference time), while predicates on ongoing
//! attributes evaluate to booleans whose value depends on the reference time
//! (Sec. VI). Relational operators restrict a tuple's `RT` with the
//! predicate result (Theorem 2).
//!
//! Following the paper's query-optimization rule (Sec. VIII), a conjunctive
//! predicate can be [split](Expr::split_fixed_ongoing) into a conjunct over
//! fixed attributes only — evaluated cheaply to a plain boolean, enabling
//! standard optimizations such as hash joins on equality conjuncts — and a
//! conjunct referencing ongoing attributes, which contributes to the result
//! tuple's reference time.

use crate::schema::{Schema, SchemaError};
use crate::value::{Value, ValueType};
use ongoing_core::allen::TemporalPredicate;
use ongoing_core::{ops, OngoingBool, TimePoint};
use std::borrow::Cow;
use std::fmt;

/// Scalar comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum CmpOp {
    Lt,
    Le,
    Eq,
    Ne,
    Ge,
    Gt,
}

impl CmpOp {
    fn name(self) -> &'static str {
        match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Ge => ">=",
            CmpOp::Gt => ">",
        }
    }

    /// The operator with its operands swapped: `a op b ⇔ b op.mirror() a`.
    pub fn mirror(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Ge => CmpOp::Le,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Eq | CmpOp::Ne => self,
        }
    }
}

/// Errors raised during expression evaluation or type checking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// Operation applied to incompatible value types.
    TypeMismatch(String),
    /// Attribute resolution failed.
    Schema(SchemaError),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::TypeMismatch(m) => write!(f, "type mismatch: {m}"),
            EvalError::Schema(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EvalError {}

impl From<SchemaError> for EvalError {
    fn from(e: SchemaError) -> Self {
        EvalError::Schema(e)
    }
}

/// An expression tree over the attributes of a tuple.
///
/// Attribute references are positional; use [`Expr::col`] to resolve names
/// against a schema.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// The attribute at an index.
    Col(usize),
    /// A literal value.
    Const(Value),
    /// Scalar comparison; on ongoing points it evaluates via the core
    /// operations of Definition 4.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// A temporal predicate of Table II over two (ongoing) intervals.
    Temporal(TemporalPredicate, Box<Expr>, Box<Expr>),
    /// Logical conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Logical disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Logical negation.
    Not(Box<Expr>),
    /// Interval intersection `∩` (a scalar function, Table II).
    Intersect(Box<Expr>, Box<Expr>),
    /// The (ongoing) start point of an interval expression.
    StartOf(Box<Expr>),
    /// The (ongoing) exclusive end point of an interval expression.
    EndOf(Box<Expr>),
}

impl Expr {
    /// Resolves an attribute name against a schema.
    pub fn col(schema: &Schema, name: &str) -> Result<Expr, SchemaError> {
        Ok(Expr::Col(schema.index_of(name)?))
    }

    /// A literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Const(v.into())
    }

    /// `self < other`.
    pub fn lt(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Lt, Box::new(self), Box::new(other))
    }

    /// `self <= other`.
    pub fn le(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Le, Box::new(self), Box::new(other))
    }

    /// `self = other`.
    pub fn eq(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Eq, Box::new(self), Box::new(other))
    }

    /// `self != other`.
    pub fn ne(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Ne, Box::new(self), Box::new(other))
    }

    /// `self AND other`.
    pub fn and(self, other: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(other))
    }

    /// `self OR other`.
    pub fn or(self, other: Expr) -> Expr {
        Expr::Or(Box::new(self), Box::new(other))
    }

    /// `NOT self`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Expr {
        Expr::Not(Box::new(self))
    }

    /// `self <temporal-predicate> other` over interval expressions.
    pub fn temporal(self, pred: TemporalPredicate, other: Expr) -> Expr {
        Expr::Temporal(pred, Box::new(self), Box::new(other))
    }

    /// `self before other`.
    pub fn before(self, other: Expr) -> Expr {
        self.temporal(TemporalPredicate::Before, other)
    }

    /// `self overlaps other`.
    pub fn overlaps(self, other: Expr) -> Expr {
        self.temporal(TemporalPredicate::Overlaps, other)
    }

    /// `self ∩ other` (scalar).
    pub fn intersect(self, other: Expr) -> Expr {
        Expr::Intersect(Box::new(self), Box::new(other))
    }

    /// The start point of this interval expression.
    pub fn start_point(self) -> Expr {
        Expr::StartOf(Box::new(self))
    }

    /// The exclusive end point of this interval expression.
    pub fn end_point(self) -> Expr {
        Expr::EndOf(Box::new(self))
    }

    /// `now ∈ self`: true at exactly the reference times contained in the
    /// instantiation of this interval expression
    /// (`ts <= now ∧ now < te`). Restricting a tuple's reference time by
    /// its own valid time — "while the tuple is valid".
    pub fn contains_now(self) -> Expr {
        let now = || Expr::lit(crate::value::Value::Point(ongoing_core::OngoingPoint::now()));
        self.clone()
            .start_point()
            .le(now())
            .and(now().lt(self.end_point()))
    }

    /// Evaluates the expression as a scalar over a tuple.
    pub fn eval_scalar(&self, row: &[Value]) -> Result<Value, EvalError> {
        self.scalar(row, AsStored)
    }

    /// [`eval_scalar`](Self::eval_scalar) over the tuple instantiated at
    /// `rt`: every ongoing operand — column or literal — is bound at `rt`
    /// the moment it is read, every other operand is borrowed. Equal to
    /// `eval_scalar` on the bound row, without building that row.
    pub fn eval_scalar_at(&self, row: &[Value], rt: TimePoint) -> Result<Value, EvalError> {
        self.scalar(row, BoundAt(rt))
    }

    fn scalar<R: Row + ?Sized>(&self, row: &R, read: impl Read) -> Result<Value, EvalError> {
        match self {
            Expr::Col(_) | Expr::Const(_) => operand(self, row, read).map(Cow::into_owned),
            Expr::Intersect(l, r) => {
                let (lv, rv) = (operand(l, row, read)?, operand(r, row, read)?);
                match (lv.as_interval(), rv.as_interval()) {
                    (Some(a), Some(b)) => Ok(Value::Interval(a.intersect(b))),
                    _ => Err(EvalError::TypeMismatch(
                        "∩ requires interval operands".into(),
                    )),
                }
            }
            Expr::StartOf(e) | Expr::EndOf(e) => {
                let iv = operand(e, row, read)?
                    .as_interval()
                    .ok_or_else(|| EvalError::TypeMismatch("start/end of a non-interval".into()))?;
                let p = if matches!(self, Expr::StartOf(_)) {
                    iv.ts()
                } else {
                    iv.te()
                };
                Ok(Value::Point(p))
            }
            _ => Err(EvalError::TypeMismatch(
                "predicate used in scalar position".into(),
            )),
        }
    }

    /// Evaluates the expression as a predicate over a tuple, producing an
    /// ongoing boolean.
    pub fn eval_predicate(&self, row: &[Value]) -> Result<OngoingBool, EvalError> {
        self.predicate(row)
    }

    /// [`eval_predicate`](Self::eval_predicate) over any [`Row`] — the
    /// fallback a compiled [`Predicate`](crate::Predicate) conjunct takes.
    pub(crate) fn predicate<R: Row + ?Sized>(&self, row: &R) -> Result<OngoingBool, EvalError> {
        match self {
            Expr::And(l, r) => {
                let lb = l.predicate(row)?;
                // Short-circuit: ∧ with always-false stays always-false.
                if lb.is_always_false() {
                    return Ok(lb);
                }
                Ok(lb.and(&r.predicate(row)?))
            }
            Expr::Or(l, r) => {
                let lb = l.predicate(row)?;
                if lb.is_always_true() {
                    return Ok(lb);
                }
                Ok(lb.or(&r.predicate(row)?))
            }
            Expr::Not(e) => Ok(e.predicate(row)?.not()),
            Expr::Cmp(op, l, r) => {
                let (lv, rv) = (operand(l, row, AsStored)?, operand(r, row, AsStored)?);
                eval_cmp(*op, &lv, &rv)
            }
            Expr::Temporal(pred, l, r) => {
                let (lv, rv) = (operand(l, row, AsStored)?, operand(r, row, AsStored)?);
                match (lv.as_interval(), rv.as_interval()) {
                    (Some(a), Some(b)) => Ok(pred.eval(a, b)),
                    _ => Err(EvalError::TypeMismatch(format!(
                        "{} requires interval operands",
                        pred.name()
                    ))),
                }
            }
            Expr::Col(_)
            | Expr::Const(_)
            | Expr::Intersect(..)
            | Expr::StartOf(_)
            | Expr::EndOf(_) => match *operand(self, row, AsStored)? {
                Value::Bool(b) => Ok(OngoingBool::from_bool(b)),
                ref v => Err(EvalError::TypeMismatch(format!(
                    "expected boolean, got {v}"
                ))),
            },
        }
    }

    /// Does this expression reference any attribute with an ongoing type
    /// (or an ongoing literal)? Such predicates restrict the reference time;
    /// all others keep their standard behaviour.
    pub fn references_ongoing(&self, schema: &Schema) -> bool {
        match self {
            Expr::Col(i) => schema.attr(*i).map(|a| a.ty.is_ongoing()).unwrap_or(false),
            Expr::Const(v) => v.is_ongoing(),
            Expr::Cmp(_, l, r) | Expr::Or(l, r) | Expr::And(l, r) | Expr::Intersect(l, r) => {
                l.references_ongoing(schema) || r.references_ongoing(schema)
            }
            Expr::Temporal(_, l, r) => {
                // A temporal predicate over two genuinely fixed intervals is
                // still fixed; over anything ongoing it restricts RT.
                l.references_ongoing(schema) || r.references_ongoing(schema)
            }
            Expr::Not(e) | Expr::StartOf(e) | Expr::EndOf(e) => e.references_ongoing(schema),
        }
    }

    /// Flattens nested conjunctions into a conjunct list.
    pub fn conjuncts(self) -> Vec<Expr> {
        match self {
            Expr::And(l, r) => {
                let mut out = l.conjuncts();
                out.extend(r.conjuncts());
                out
            }
            e => vec![e],
        }
    }

    /// The conjunct list by reference — [`conjuncts`](Self::conjuncts)
    /// without consuming (or cloning) the expression.
    pub fn conjuncts_ref(&self) -> Vec<&Expr> {
        fn walk<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
            if let Expr::And(l, r) = e {
                walk(l, out);
                walk(r, out);
            } else {
                out.push(e);
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out
    }

    /// The paper's predicate split (Sec. VIII): partitions a conjunctive
    /// predicate into the conjunction over fixed attributes only (left) and
    /// the conjunction referencing ongoing attributes (right). Either side
    /// may be absent.
    pub fn split_fixed_ongoing(self, schema: &Schema) -> (Option<Expr>, Option<Expr>) {
        let mut fixed: Option<Expr> = None;
        let mut ongoing: Option<Expr> = None;
        for c in self.conjuncts() {
            let slot = if c.references_ongoing(schema) {
                &mut ongoing
            } else {
                &mut fixed
            };
            *slot = Some(match slot.take() {
                Some(acc) => acc.and(c),
                None => c,
            });
        }
        (fixed, ongoing)
    }

    /// Evaluates a predicate that references no genuinely ongoing values to
    /// a plain boolean — the fast path instantiation-based approaches
    /// (Clifford) use, mirroring the paper's setup where the baseline runs
    /// predicates for *fixed* time intervals.
    ///
    /// Returns an error if an ongoing value is encountered; callers decide
    /// whether to fall back to [`Expr::eval_predicate`].
    pub fn eval_bool(&self, row: &[Value]) -> Result<bool, EvalError> {
        self.boolean(row, AsStored)
    }

    /// [`eval_bool`](Self::eval_bool) over the tuple instantiated at `rt`
    /// — Clifford's "instantiate `now` when accessed": every ongoing
    /// operand (`Point`, `Interval`, `Count`; column or literal) is bound
    /// at `rt` the moment it is read, every other operand is borrowed, so
    /// each comparison sees exactly the bound values while no bound row is
    /// ever built. Equal to `eval_bool` on the bound row with bound
    /// literals, errors included.
    pub fn eval_bool_at(&self, row: &[Value], rt: TimePoint) -> Result<bool, EvalError> {
        self.boolean(row, BoundAt(rt))
    }

    /// The boolean evaluators over any [`Row`], as stored or bound at an
    /// `rt` — the fallback a compiled [`Predicate`](crate::Predicate)
    /// conjunct takes.
    pub(crate) fn boolean<R: Row + ?Sized>(
        &self,
        row: &R,
        read: impl Read,
    ) -> Result<bool, EvalError> {
        match self {
            Expr::And(l, r) => Ok(l.boolean(row, read)? && r.boolean(row, read)?),
            Expr::Or(l, r) => Ok(l.boolean(row, read)? || r.boolean(row, read)?),
            Expr::Not(e) => Ok(!e.boolean(row, read)?),
            Expr::Cmp(op, l, r) => {
                let (lv, rv) = (operand(l, row, read)?, operand(r, row, read)?);
                if let Some(b) = cmp_fixed(*op, &lv, &rv) {
                    return Ok(b);
                }
                if lv.is_ongoing() || rv.is_ongoing() {
                    return Err(EvalError::TypeMismatch("eval_bool on ongoing value".into()));
                }
                let b = eval_cmp(*op, &lv, &rv)?;
                Ok(b.is_always_true())
            }
            Expr::Temporal(pred, l, r) => {
                let (lv, rv) = (operand(l, row, read)?, operand(r, row, read)?);
                match (&*lv, &*rv) {
                    (Value::Span(a, b), Value::Span(c, d)) => {
                        Ok(pred.eval_fixed((*a, *b), (*c, *d)))
                    }
                    // Fixed intervals stored as ongoing values still take
                    // the fast path.
                    _ => match (lv.as_interval(), rv.as_interval()) {
                        (Some(a), Some(b)) if !lv.is_ongoing() && !rv.is_ongoing() => {
                            Ok(pred.eval_fixed((a.ts().a(), a.te().a()), (b.ts().a(), b.te().a())))
                        }
                        _ => Err(EvalError::TypeMismatch(
                            "eval_bool on ongoing interval".into(),
                        )),
                    },
                }
            }
            Expr::Col(_)
            | Expr::Const(_)
            | Expr::Intersect(..)
            | Expr::StartOf(_)
            | Expr::EndOf(_) => match *operand(self, row, read)? {
                Value::Bool(b) => Ok(b),
                ref v => Err(EvalError::TypeMismatch(format!(
                    "expected boolean, got {v}"
                ))),
            },
        }
    }

    /// Collects the column indices referenced by this expression.
    pub fn columns(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_columns(&self, out: &mut Vec<usize>) {
        match self {
            Expr::Col(i) => out.push(*i),
            Expr::Const(_) => {}
            Expr::Cmp(_, l, r)
            | Expr::Temporal(_, l, r)
            | Expr::And(l, r)
            | Expr::Or(l, r)
            | Expr::Intersect(l, r) => {
                l.collect_columns(out);
                r.collect_columns(out);
            }
            Expr::Not(e) | Expr::StartOf(e) | Expr::EndOf(e) => e.collect_columns(out),
        }
    }

    /// Rewrites every column reference through `f` — used by the optimizer
    /// to move predicates across products (shifting indices) and under
    /// projections.
    pub fn map_columns(&self, f: &impl Fn(usize) -> usize) -> Expr {
        match self {
            Expr::Col(i) => Expr::Col(f(*i)),
            Expr::Const(v) => Expr::Const(v.clone()),
            Expr::Cmp(op, l, r) => {
                Expr::Cmp(*op, Box::new(l.map_columns(f)), Box::new(r.map_columns(f)))
            }
            Expr::Temporal(p, l, r) => {
                Expr::Temporal(*p, Box::new(l.map_columns(f)), Box::new(r.map_columns(f)))
            }
            Expr::And(l, r) => Expr::And(Box::new(l.map_columns(f)), Box::new(r.map_columns(f))),
            Expr::Or(l, r) => Expr::Or(Box::new(l.map_columns(f)), Box::new(r.map_columns(f))),
            Expr::Not(e) => Expr::Not(Box::new(e.map_columns(f))),
            Expr::Intersect(l, r) => {
                Expr::Intersect(Box::new(l.map_columns(f)), Box::new(r.map_columns(f)))
            }
            Expr::StartOf(e) => Expr::StartOf(Box::new(e.map_columns(f))),
            Expr::EndOf(e) => Expr::EndOf(Box::new(e.map_columns(f))),
        }
    }

    /// If this conjunct is `Col(i) = Col(j)` with `i` on the left side of a
    /// product of `split` columns and `j` on the right (or vice versa),
    /// returns the `(left, right-local)` key pair — a hash-join key.
    pub fn as_equi_key(&self, split: usize) -> Option<(usize, usize)> {
        if let Expr::Cmp(CmpOp::Eq, l, r) = self {
            if let (Expr::Col(i), Expr::Col(j)) = (l.as_ref(), r.as_ref()) {
                let (i, j) = (*i, *j);
                if i < split && j >= split {
                    return Some((i, j - split));
                }
                if j < split && i >= split {
                    return Some((j, i - split));
                }
            }
        }
        None
    }

    /// Infers the scalar result type against a schema (predicates are
    /// `Bool`).
    pub fn result_type(&self, schema: &Schema) -> Result<ValueType, EvalError> {
        match self {
            Expr::Col(i) => Ok(schema.attr(*i)?.ty),
            Expr::Const(v) => Ok(v.value_type()),
            Expr::Intersect(..) => Ok(ValueType::OngoingInterval),
            Expr::StartOf(_) | Expr::EndOf(_) => Ok(ValueType::OngoingPoint),
            _ => Ok(ValueType::Bool),
        }
    }
}

/// The attribute values an evaluator reads by position: a tuple's value
/// slice, or a join's candidate pair read in place
/// ([`Pair`](crate::Pair)).
pub trait Row {
    /// The value of the attribute at `i`, `None` past the row's end.
    fn attr(&self, i: usize) -> Option<&Value>;
}

impl Row for [Value] {
    #[inline]
    fn attr(&self, i: usize) -> Option<&Value> {
        self.get(i)
    }
}

/// How an evaluator reads a column or literal operand. The evaluators are
/// generic over it, so the as-stored and the instantiated readings share
/// one code path, each monomorphized without a per-operand branch.
pub(crate) trait Read: Copy {
    fn read(self, v: &Value) -> Cow<'_, Value>;
}

/// Operands as stored: ongoing values stay ongoing.
#[derive(Clone, Copy)]
pub(crate) struct AsStored;

impl Read for AsStored {
    #[inline]
    fn read(self, v: &Value) -> Cow<'_, Value> {
        Cow::Borrowed(v)
    }
}

/// Operands instantiated at a reference time when read (the bind
/// operator applied per access); fixed operands are borrowed.
#[derive(Clone, Copy)]
pub(crate) struct BoundAt(pub(crate) TimePoint);

impl Read for BoundAt {
    #[inline]
    fn read(self, v: &Value) -> Cow<'_, Value> {
        match v {
            Value::Point(_) | Value::Interval(_) | Value::Count(_) => Cow::Owned(v.bind(self.0)),
            _ => Cow::Borrowed(v),
        }
    }
}

/// A scalar operand: read from the row or the literal for a column or
/// constant, evaluated for anything else. Predicates read their operands
/// through it so a per-tuple comparison clones no stored value.
fn operand<'a, R: Row + ?Sized>(
    e: &'a Expr,
    row: &'a R,
    read: impl Read,
) -> Result<Cow<'a, Value>, EvalError> {
    match e {
        Expr::Col(i) => match row.attr(*i) {
            Some(v) => Ok(read.read(v)),
            None => Err(EvalError::Schema(SchemaError::BadIndex(*i))),
        },
        Expr::Const(v) => Ok(read.read(v)),
        _ => e.scalar(row, read).map(Cow::Owned),
    }
}

/// Compares two fixed values of one type with a total order of its own
/// (Int, Str, Bool, Time, Span) to a plain boolean. `None` for every other
/// pairing, which only [`eval_cmp`] decides (or rejects).
fn cmp_fixed(op: CmpOp, lv: &Value, rv: &Value) -> Option<bool> {
    let ord = match (lv, rv) {
        (Value::Int(a), Value::Int(b)) => a.cmp(b),
        (Value::Str(a), Value::Str(b)) => a.cmp(b),
        (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
        (Value::Time(a), Value::Time(b)) => a.cmp(b),
        (Value::Span(a, b), Value::Span(c, d)) => a.cmp(c).then(b.cmp(d)),
        _ => return None,
    };
    Some(match op {
        CmpOp::Lt => ord.is_lt(),
        CmpOp::Le => ord.is_le(),
        CmpOp::Eq => ord.is_eq(),
        CmpOp::Ne => ord.is_ne(),
        CmpOp::Ge => ord.is_ge(),
        CmpOp::Gt => ord.is_gt(),
    })
}

fn eval_cmp(op: CmpOp, lv: &Value, rv: &Value) -> Result<OngoingBool, EvalError> {
    // Fixed values of one ordered type keep their standard comparison.
    if let Some(b) = cmp_fixed(op, lv, rv) {
        return Ok(OngoingBool::from_bool(b));
    }
    // Ongoing integers (aggregate results) compare pointwise over the
    // reference time; mixed Int/ongoing-int comparisons coerce.
    if matches!(lv, Value::Count(_)) || matches!(rv, Value::Count(_)) {
        let (p, q) = match (lv.as_ongoing_int(), rv.as_ongoing_int()) {
            (Some(p), Some(q)) => (p, q),
            _ => {
                return Err(EvalError::TypeMismatch(format!(
                    "cannot compare {lv} {} {rv}",
                    op.name()
                )))
            }
        };
        let st = match op {
            CmpOp::Lt => p.lt_set(&q),
            CmpOp::Le => q.lt_set(&p).complement(),
            CmpOp::Eq => p.eq_set(&q),
            CmpOp::Ne => p.eq_set(&q).complement(),
            CmpOp::Ge => p.lt_set(&q).complement(),
            CmpOp::Gt => q.lt_set(&p),
        };
        return Ok(OngoingBool::from_set(st));
    }
    // Ongoing (or mixed fixed/ongoing) time points go through the core
    // operations.
    if matches!(lv, Value::Point(_)) || matches!(rv, Value::Point(_)) {
        let (p, q) = match (lv.as_point(), rv.as_point()) {
            (Some(p), Some(q)) => (p, q),
            _ => {
                return Err(EvalError::TypeMismatch(format!(
                    "cannot compare {lv} {} {rv}",
                    op.name()
                )))
            }
        };
        return Ok(match op {
            CmpOp::Lt => ops::lt(p, q),
            CmpOp::Le => ops::le(p, q),
            CmpOp::Eq => ops::eq(p, q),
            CmpOp::Ne => ops::ne(p, q),
            CmpOp::Ge => ops::ge(p, q),
            CmpOp::Gt => ops::gt(p, q),
        });
    }
    if matches!(lv, Value::Interval(_)) || matches!(rv, Value::Interval(_)) {
        // Only (in)equality is defined on interval values; ordering of
        // intervals is expressed through the Table II predicates.
        return match op {
            CmpOp::Eq => Ok(lv.ongoing_eq(rv)),
            CmpOp::Ne => Ok(lv.ongoing_eq(rv).not()),
            _ => Err(EvalError::TypeMismatch(format!(
                "{} is not defined on intervals; use a temporal predicate",
                op.name()
            ))),
        };
    }
    Err(EvalError::TypeMismatch(format!(
        "cannot compare {lv} {} {rv}",
        op.name()
    )))
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Col(i) => write!(f, "#{i}"),
            Expr::Const(v) => write!(f, "{v}"),
            Expr::Cmp(op, l, r) => write!(f, "({l} {} {r})", op.name()),
            Expr::Temporal(p, l, r) => write!(f, "({l} {} {r})", p.name()),
            Expr::And(l, r) => write!(f, "({l} AND {r})"),
            Expr::Or(l, r) => write!(f, "({l} OR {r})"),
            Expr::Not(e) => write!(f, "(NOT {e})"),
            Expr::Intersect(l, r) => write!(f, "({l} ∩ {r})"),
            Expr::StartOf(e) => write!(f, "start({e})"),
            Expr::EndOf(e) => write!(f, "end({e})"),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::tuple::Tuple;
    use ongoing_core::date::md;
    use ongoing_core::time::tp;
    use ongoing_core::{IntervalSet, OngoingInterval, OngoingPoint, TimePoint};

    fn bug_tuple() -> (Schema, Tuple) {
        let schema = Schema::builder().int("BID").str("C").interval("VT").build();
        let t = Tuple::base(vec![
            Value::Int(500),
            Value::str("Spam filter"),
            Value::Interval(OngoingInterval::from_until_now(md(1, 25))),
        ]);
        (schema, t)
    }

    #[test]
    fn fixed_predicate_keeps_standard_behaviour() {
        let (schema, t) = bug_tuple();
        let e = Expr::col(&schema, "C")
            .unwrap()
            .eq(Expr::lit("Spam filter"));
        assert!(e.eval_predicate(t.values()).unwrap().is_always_true());
        let e = Expr::col(&schema, "C").unwrap().eq(Expr::lit("Other"));
        assert!(e.eval_predicate(t.values()).unwrap().is_always_false());
    }

    #[test]
    fn temporal_predicate_restricts_reference_time() {
        let (schema, t) = bug_tuple();
        // VT overlaps [01/20, 08/18) — Example 3 yields b[{[01/26, ∞)}].
        let e = Expr::col(&schema, "VT")
            .unwrap()
            .overlaps(Expr::lit(Value::Interval(OngoingInterval::fixed(
                md(1, 20),
                md(8, 18),
            ))));
        let b = e.eval_predicate(t.values()).unwrap();
        assert_eq!(
            b.true_set(),
            &IntervalSet::range(md(1, 26), TimePoint::POS_INF)
        );
    }

    #[test]
    fn point_comparison_goes_through_core_ops() {
        let schema = Schema::builder().point("P").build();
        let t = Tuple::base(vec![Value::Point(OngoingPoint::now())]);
        let e = Expr::col(&schema, "P")
            .unwrap()
            .le(Expr::lit(Value::Time(tp(17))));
        let b = e.eval_predicate(t.values()).unwrap();
        assert!(b.bind(tp(17)));
        assert!(!b.bind(tp(18)));
    }

    #[test]
    fn intersect_is_scalar() {
        let (schema, t) = bug_tuple();
        let e = Expr::col(&schema, "VT")
            .unwrap()
            .intersect(Expr::lit(Value::Interval(OngoingInterval::fixed(
                md(1, 20),
                md(8, 18),
            ))));
        let v = e.eval_scalar(t.values()).unwrap();
        let iv = v.as_interval().unwrap();
        assert_eq!(iv.ts(), OngoingPoint::fixed(md(1, 25)));
        assert_eq!(iv.te(), OngoingPoint::limited(md(8, 18)));
    }

    #[test]
    fn connectives_combine_pointwise() {
        let (schema, t) = bug_tuple();
        let vt = || Expr::col(&schema, "VT").unwrap();
        let ovl = |a: u8, b: u8, c: u8, d: u8| {
            vt().overlaps(Expr::lit(Value::Interval(OngoingInterval::fixed(
                md(a, b),
                md(c, d),
            ))))
        };
        let e = ovl(1, 20, 8, 18).and(ovl(3, 1, 12, 31).not());
        let b = e.eval_predicate(t.values()).unwrap();
        for rt_day in [md(1, 20), md(1, 26), md(3, 1), md(3, 2), md(9, 1)] {
            let lhs = t.value(2).as_interval().unwrap();
            let (s, e_) = lhs.bind(rt_day);
            let o1 = ongoing_core::allen::fixed::overlaps((s, e_), (md(1, 20), md(8, 18)));
            let o2 = ongoing_core::allen::fixed::overlaps((s, e_), (md(3, 1), md(12, 31)));
            assert_eq!(b.bind(rt_day), o1 && !o2);
        }
    }

    #[test]
    fn split_separates_fixed_and_ongoing_conjuncts() {
        let (schema, _) = bug_tuple();
        let e = Expr::col(&schema, "C")
            .unwrap()
            .eq(Expr::lit("Spam filter"))
            .and(
                Expr::col(&schema, "VT")
                    .unwrap()
                    .overlaps(Expr::lit(Value::Interval(OngoingInterval::fixed(
                        md(1, 1),
                        md(12, 31),
                    ))))
                    .and(Expr::col(&schema, "BID").unwrap().eq(Expr::lit(500i64))),
            );
        let (fixed, ongoing) = e.split_fixed_ongoing(&schema);
        let fixed = fixed.unwrap();
        let ongoing = ongoing.unwrap();
        assert!(!fixed.references_ongoing(&schema));
        assert!(ongoing.references_ongoing(&schema));
        // The fixed part contains both fixed conjuncts.
        assert_eq!(fixed.conjuncts().len(), 2);
        assert_eq!(ongoing.conjuncts().len(), 1);
    }

    #[test]
    fn split_with_only_fixed_conjuncts() {
        let (schema, _) = bug_tuple();
        let e = Expr::col(&schema, "BID").unwrap().eq(Expr::lit(1i64));
        let (fixed, ongoing) = e.clone().split_fixed_ongoing(&schema);
        assert_eq!(fixed, Some(e));
        assert!(ongoing.is_none());
    }

    #[test]
    fn type_errors_are_reported() {
        let (schema, t) = bug_tuple();
        let e = Expr::col(&schema, "BID")
            .unwrap()
            .lt(Expr::lit("not an int"));
        assert!(matches!(
            e.eval_predicate(t.values()),
            Err(EvalError::TypeMismatch(_))
        ));
        // Ordering intervals directly is rejected.
        let e = Expr::col(&schema, "VT")
            .unwrap()
            .lt(Expr::lit(Value::Interval(OngoingInterval::fixed(
                tp(0),
                tp(1),
            ))));
        assert!(matches!(
            e.eval_predicate(t.values()),
            Err(EvalError::TypeMismatch(_))
        ));
    }

    #[test]
    fn display_is_readable() {
        let (schema, _) = bug_tuple();
        let e = Expr::col(&schema, "C").unwrap().eq(Expr::lit("x")).and(
            Expr::col(&schema, "VT")
                .unwrap()
                .before(Expr::lit(Value::Interval(OngoingInterval::fixed(
                    tp(0),
                    tp(1),
                )))),
        );
        assert_eq!(e.to_string(), "((#1 = x) AND (#2 before [0, 1)))");
    }

    #[test]
    fn endpoint_accessors_extract_ongoing_points() {
        let (schema, t) = bug_tuple();
        let vt = Expr::col(&schema, "VT").unwrap();
        let s = vt.clone().start_point().eval_scalar(t.values()).unwrap();
        assert_eq!(s, Value::Point(OngoingPoint::fixed(md(1, 25))));
        let e = vt.end_point().eval_scalar(t.values()).unwrap();
        assert_eq!(e, Value::Point(OngoingPoint::now()));
        // Non-interval input is a type error.
        assert!(Expr::col(&schema, "BID")
            .unwrap()
            .start_point()
            .eval_scalar(t.values())
            .is_err());
    }

    #[test]
    fn contains_now_restricts_to_validity() {
        // VT = [01/25, now): rt ∈ ∥VT∥rt exactly for rt > 01/25 ... wait,
        // ts <= rt < te with te = rt means never... check semantics:
        // ∥[01/25, now)∥rt = [01/25, rt); rt ∈ it is false (rt < rt fails).
        // For the expanding interval the *probe* form is ts <= now < te.
        let (schema, t) = bug_tuple();
        let e = Expr::col(&schema, "VT").unwrap().contains_now();
        let b = e.eval_predicate(t.values()).unwrap();
        // now < now is always false: an expanding interval never contains
        // the current instant itself (it is right-open at now).
        assert!(b.is_always_false());
        // A fixed interval contains now exactly while it lasts.
        let schema2 = Schema::builder().interval("VT").build();
        let t2 = Tuple::base(vec![Value::Interval(OngoingInterval::fixed(
            tp(10),
            tp(20),
        ))]);
        let e2 = Expr::col(&schema2, "VT").unwrap().contains_now();
        let b2 = e2.eval_predicate(t2.values()).unwrap();
        for rt in 0i64..30 {
            assert_eq!(b2.bind(tp(rt)), (10..20).contains(&rt), "rt={rt}");
        }
    }

    #[test]
    fn eval_bool_fast_path_on_fixed_values() {
        let schema = Schema::builder().int("X").build();
        let t = Tuple::base(vec![Value::Int(5)]);
        let e = Expr::col(&schema, "X").unwrap().lt(Expr::lit(10i64));
        assert!(e.eval_bool(t.values()).unwrap());
        // Temporal predicate on instantiated spans.
        let t2 = Tuple::base(vec![Value::Int(1)]);
        let e2 =
            Expr::lit(Value::Span(tp(0), tp(5))).overlaps(Expr::lit(Value::Span(tp(3), tp(9))));
        assert!(e2.eval_bool(t2.values()).unwrap());
    }

    #[test]
    fn eval_bool_rejects_ongoing_values() {
        let (schema, t) = bug_tuple();
        let e = Expr::col(&schema, "VT")
            .unwrap()
            .overlaps(Expr::lit(Value::Interval(OngoingInterval::fixed(
                tp(0),
                tp(1),
            ))));
        assert!(e.eval_bool(t.values()).is_err());
    }

    pub(crate) const CMP_OPS: [CmpOp; 6] = [
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Ge,
        CmpOp::Gt,
    ];

    /// One `(lo, hi)` pair with `lo < hi` per type the fast path compares.
    fn ordered_pairs() -> Vec<(Value, Value)> {
        vec![
            (Value::Int(3), Value::Int(7)),
            (Value::str("abc"), Value::str("abd")),
            (Value::Bool(false), Value::Bool(true)),
            (Value::Time(tp(-4)), Value::Time(tp(9))),
            (Value::Span(tp(0), tp(5)), Value::Span(tp(0), tp(6))),
        ]
    }

    /// `Col(0) op Col(1)` and the three column/literal mixes over `[l, r]`.
    fn operand_shapes(op: CmpOp, l: &Value, r: &Value) -> Vec<Expr> {
        let c = |v: &Value| Expr::Const(v.clone());
        vec![
            Expr::Cmp(op, Box::new(Expr::Col(0)), Box::new(Expr::Col(1))),
            Expr::Cmp(op, Box::new(Expr::Col(0)), Box::new(c(r))),
            Expr::Cmp(op, Box::new(c(l)), Box::new(Expr::Col(1))),
            Expr::Cmp(op, Box::new(c(l)), Box::new(c(r))),
        ]
    }

    #[test]
    fn fixed_comparison_fast_path_matches_general_path() {
        use std::cmp::Ordering;
        for (lo, hi) in ordered_pairs() {
            let cases = [
                (&lo, &lo, Ordering::Equal),
                (&lo, &hi, Ordering::Less),
                (&hi, &lo, Ordering::Greater),
            ];
            for (l, r, ord) in cases {
                let row = [l.clone(), r.clone()];
                for op in CMP_OPS {
                    let expected = match op {
                        CmpOp::Lt => ord == Ordering::Less,
                        CmpOp::Le => ord != Ordering::Greater,
                        CmpOp::Eq => ord == Ordering::Equal,
                        CmpOp::Ne => ord != Ordering::Equal,
                        CmpOp::Ge => ord != Ordering::Less,
                        CmpOp::Gt => ord == Ordering::Greater,
                    };
                    let general = eval_cmp(op, l, r).unwrap();
                    assert_eq!(general, OngoingBool::from_bool(expected), "{l} {op:?} {r}");
                    // Ints and time points also compare through the ongoing
                    // machinery (constant ongoing ints, fixed ongoing points).
                    let ongoing = match (l, r) {
                        (Value::Int(a), Value::Int(b)) => Some(eval_cmp(
                            op,
                            &Value::Count(ongoing_core::OngoingInt::constant(*a)),
                            &Value::Count(ongoing_core::OngoingInt::constant(*b)),
                        )),
                        (Value::Time(a), Value::Time(b)) => Some(eval_cmp(
                            op,
                            &Value::Point(OngoingPoint::fixed(*a)),
                            &Value::Point(OngoingPoint::fixed(*b)),
                        )),
                        _ => None,
                    };
                    if let Some(ongoing) = ongoing {
                        assert_eq!(ongoing.unwrap(), general, "{l} {op:?} {r}");
                    }
                    for e in operand_shapes(op, l, r) {
                        assert_eq!(e.eval_bool(&row), Ok(expected), "{e}");
                        assert_eq!(e.eval_predicate(&row), Ok(general.clone()), "{e}");
                    }
                }
            }
        }
    }

    #[test]
    fn fast_path_keeps_error_variants() {
        // Int against Str: no fast path, the general path rejects it.
        let (i, s) = (Value::Int(1), Value::str("x"));
        for op in CMP_OPS {
            for (l, r) in [(&i, &s), (&s, &i)] {
                let want = EvalError::TypeMismatch(format!("cannot compare {l} {} {r}", op.name()));
                for e in operand_shapes(op, l, r) {
                    let row = [l.clone(), r.clone()];
                    assert_eq!(e.eval_bool(&row), Err(want.clone()), "{e}");
                    assert_eq!(e.eval_predicate(&row), Err(want.clone()), "{e}");
                }
            }
        }
        // An ongoing value inside eval_bool.
        let row = [Value::Point(OngoingPoint::now()), Value::Time(tp(3))];
        let ongoing = EvalError::TypeMismatch("eval_bool on ongoing value".into());
        for op in CMP_OPS {
            for e in operand_shapes(op, &row[0], &row[1]) {
                assert_eq!(e.eval_bool(&row), Err(ongoing.clone()), "{e}");
                assert!(e.eval_predicate(&row).is_ok(), "{e}");
            }
        }
        // A column outside the row.
        let bad = Expr::Col(9).lt(Expr::lit(1i64));
        let schema_err = EvalError::Schema(SchemaError::BadIndex(9));
        assert_eq!(bad.eval_bool(&[]), Err(schema_err.clone()));
        assert_eq!(bad.eval_predicate(&[]), Err(schema_err.clone()));
        assert_eq!(Expr::Col(9).eval_scalar(&[]), Err(schema_err));
    }

    /// Samples of every value type, the ongoing ones of several kinds.
    pub(crate) fn typed_samples() -> Vec<Value> {
        use ongoing_core::OngoingInt;
        let iv = |s: OngoingPoint, e: OngoingPoint| Value::Interval(OngoingInterval::new(s, e));
        vec![
            Value::Int(3),
            Value::Int(7),
            Value::str("abc"),
            Value::str("abd"),
            Value::Bool(false),
            Value::Bool(true),
            Value::Time(tp(-4)),
            Value::Time(tp(9)),
            Value::Span(tp(0), tp(5)),
            Value::Span(tp(2), tp(9)),
            Value::Point(OngoingPoint::now()),
            Value::Point(OngoingPoint::fixed(tp(3))),
            Value::Point(OngoingPoint::growing(tp(2))),
            Value::Point(OngoingPoint::limited(tp(8))),
            Value::Point(OngoingPoint::new(tp(2), tp(8)).unwrap()),
            Value::Interval(OngoingInterval::from_until_now(tp(3))),
            Value::Interval(OngoingInterval::fixed(tp(1), tp(5))),
            Value::Interval(OngoingInterval::from_now_until(tp(6))),
            iv(OngoingPoint::growing(tp(2)), OngoingPoint::limited(tp(9))),
            Value::Count(OngoingInt::constant(5)),
            Value::Count(OngoingInt::duration(OngoingInterval::from_until_now(tp(3)))),
            Value::Count(OngoingInt::from_point(OngoingPoint::growing(tp(2)))),
        ]
    }

    /// The time points at which a value's instantiation can change.
    fn breakpoints(v: &Value) -> Vec<TimePoint> {
        match v {
            Value::Time(t) => vec![*t],
            Value::Span(s, e) => vec![*s, *e],
            Value::Point(p) => vec![p.a(), p.b()],
            Value::Interval(i) => vec![i.ts().a(), i.ts().b(), i.te().a(), i.te().b()],
            Value::Count(c) => c.pieces().map(|(start, _, _)| start).collect(),
            Value::Int(_) | Value::Str(_) | Value::Bool(_) => Vec::new(),
        }
    }

    /// `±∞` and every operand breakpoint with its neighbours.
    pub(crate) fn probe_rts(values: &[&Value]) -> Vec<TimePoint> {
        let mut rts = vec![TimePoint::NEG_INF, TimePoint::POS_INF];
        for x in values.iter().flat_map(|v| breakpoints(v)) {
            rts.extend([x.pred(), x, x.succ()]);
        }
        rts.sort_unstable();
        rts.dedup();
        rts
    }

    fn bind_row(row: &[Value], rt: TimePoint) -> Vec<Value> {
        row.iter().map(|v| v.bind(rt)).collect()
    }

    /// `e(l, r)` in the four column/literal shapes, read at `rt`, against
    /// `eval_bool` on the bound row with bound literals. Returns how many
    /// evaluations failed (with equal errors on both sides).
    fn assert_bool_at_matches(shape: impl Fn(Expr, Expr) -> Expr, l: &Value, r: &Value) -> usize {
        let row = [l.clone(), r.clone()];
        let shapes = |l: &Value, r: &Value| {
            let c = |v: &Value| Expr::Const(v.clone());
            [
                shape(Expr::Col(0), Expr::Col(1)),
                shape(Expr::Col(0), c(r)),
                shape(c(l), Expr::Col(1)),
                shape(c(l), c(r)),
            ]
        };
        let mut errors = 0;
        for rt in probe_rts(&[l, r]) {
            let bound = bind_row(&row, rt);
            for (e, oracle) in shapes(l, r).iter().zip(shapes(&bound[0], &bound[1])) {
                let got = e.eval_bool_at(&row, rt);
                assert_eq!(got, oracle.eval_bool(&bound), "{e} at rt={rt}");
                errors += usize::from(got.is_err());
            }
        }
        errors
    }

    #[test]
    fn eval_bool_at_equals_eval_bool_on_the_bound_row() {
        let samples = typed_samples();
        let mut errors = 0;
        for l in &samples {
            for r in &samples {
                for op in CMP_OPS {
                    let cmp = |a: Expr, b: Expr| Expr::Cmp(op, Box::new(a), Box::new(b));
                    errors += assert_bool_at_matches(cmp, l, r);
                }
                for pred in TemporalPredicate::ALL {
                    errors += assert_bool_at_matches(|a, b| a.temporal(pred, b), l, r);
                }
                // Connectives over an ongoing and a fixed conjunct.
                let mixed = |a: Expr, b: Expr| {
                    let t = a.clone().overlaps(b.clone());
                    let c = a.eq(b);
                    t.clone().and(c.clone().not()).or(c.and(t.not()))
                };
                errors += assert_bool_at_matches(mixed, l, r);
                // As stored, a row with an ongoing operand stays an error.
                if l.is_ongoing() || r.is_ongoing() {
                    let row = [l.clone(), r.clone()];
                    for op in CMP_OPS {
                        let e = Expr::Cmp(op, Box::new(Expr::Col(0)), Box::new(Expr::Col(1)));
                        assert!(e.eval_bool(&row).is_err(), "{e} over {l}, {r}");
                    }
                    for pred in TemporalPredicate::ALL {
                        let e = Expr::Col(0).temporal(pred, Expr::Col(1));
                        assert!(e.eval_bool(&row).is_err(), "{e} over {l}, {r}");
                    }
                }
            }
        }
        // Mismatched pairings (e.g. Int against Str, intervals against
        // points) are rejected identically on both sides.
        assert!(errors > 0);
    }

    #[test]
    fn eval_scalar_at_equals_eval_scalar_on_the_bound_row() {
        let samples = typed_samples();
        for l in &samples {
            for r in &samples {
                let row = [l.clone(), r.clone()];
                let exprs = [
                    Expr::Col(0),
                    Expr::Const(l.clone()),
                    Expr::Col(0).intersect(Expr::Col(1)),
                    Expr::Col(0).intersect(Expr::Const(r.clone())),
                    Expr::Col(0).start_point(),
                    Expr::Col(1).end_point(),
                    Expr::Col(0).intersect(Expr::Col(1)).end_point(),
                    Expr::Col(0).lt(Expr::Col(1)),
                ];
                for rt in probe_rts(&[l, r]) {
                    let bound = bind_row(&row, rt);
                    for e in &exprs {
                        let oracle = match e {
                            Expr::Const(v) => Expr::Const(v.bind(rt)),
                            Expr::Intersect(a, b) if matches!(**b, Expr::Const(_)) => {
                                a.as_ref().clone().intersect(Expr::Const(r.bind(rt)))
                            }
                            e => e.clone(),
                        };
                        assert_eq!(
                            e.eval_scalar_at(&row, rt),
                            oracle.eval_scalar(&bound),
                            "{e} at rt={rt}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn eval_at_reads_bad_columns_as_errors() {
        let bad = Expr::Col(9).lt(Expr::lit(1i64));
        let schema_err = EvalError::Schema(SchemaError::BadIndex(9));
        assert_eq!(bad.eval_bool_at(&[], tp(0)), Err(schema_err.clone()));
        assert_eq!(Expr::Col(9).eval_scalar_at(&[], tp(0)), Err(schema_err));
    }

    #[test]
    fn columns_and_map_columns() {
        let e = Expr::Col(3)
            .eq(Expr::Col(1))
            .and(Expr::Col(3).lt(Expr::lit(5i64)));
        assert_eq!(e.columns(), vec![1, 3]);
        let shifted = e.map_columns(&|i| i + 10);
        assert_eq!(shifted.columns(), vec![11, 13]);
    }

    #[test]
    fn equi_key_detection() {
        // #1 = #4 over a product split at 3 → key pair (1, 1).
        let e = Expr::Col(1).eq(Expr::Col(4));
        assert_eq!(e.as_equi_key(3), Some((1, 1)));
        // Reversed order too.
        let e = Expr::Col(4).eq(Expr::Col(1));
        assert_eq!(e.as_equi_key(3), Some((1, 1)));
        // Same-side equality is not a join key.
        let e = Expr::Col(0).eq(Expr::Col(1));
        assert_eq!(e.as_equi_key(3), None);
        // Non-equality is not a key.
        let e = Expr::Col(1).lt(Expr::Col(4));
        assert_eq!(e.as_equi_key(3), None);
    }
}
