//! Attribute values of ongoing relations.
//!
//! An ongoing relation mixes *fixed* attributes (integers, strings,
//! booleans, fixed time points) with *ongoing* attributes (ongoing time
//! points and intervals). [`Value`] covers both; the bind operator
//! instantiates ongoing variants into fixed ones.

use ongoing_core::{ops, OngoingBool, OngoingInt, OngoingInterval, OngoingPoint, TimePoint};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// The type of an attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ValueType {
    /// 64-bit integer.
    Int,
    /// UTF-8 string.
    Str,
    /// Fixed boolean.
    Bool,
    /// Fixed time point.
    Time,
    /// Fixed time interval `[ts, te)`.
    Span,
    /// Ongoing time point `a+b ∈ Ω`.
    OngoingPoint,
    /// Ongoing time interval over `Ω × Ω`.
    OngoingInterval,
    /// Ongoing integer (aggregation / duration results, Sec. X).
    OngoingInt,
}

impl ValueType {
    /// Can values of this type change with the reference time?
    pub fn is_ongoing(self) -> bool {
        matches!(
            self,
            ValueType::OngoingPoint | ValueType::OngoingInterval | ValueType::OngoingInt
        )
    }
}

/// A single attribute value.
///
/// Strings are reference-counted so tuples can be copied between operators
/// without reallocating payload data.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Value {
    /// 64-bit integer.
    Int(i64),
    /// UTF-8 string.
    Str(Arc<str>),
    /// Fixed boolean.
    Bool(bool),
    /// Fixed time point.
    Time(TimePoint),
    /// Fixed time interval `[ts, te)` (the result of instantiating an
    /// ongoing interval; may be empty).
    Span(TimePoint, TimePoint),
    /// Ongoing time point.
    Point(OngoingPoint),
    /// Ongoing time interval.
    Interval(OngoingInterval),
    /// Ongoing integer — an integer whose value depends on the reference
    /// time (aggregate results, durations).
    Count(OngoingInt),
}

impl Value {
    /// A string value.
    pub fn str(s: &str) -> Value {
        Value::Str(Arc::from(s))
    }

    /// The type of this value.
    pub fn value_type(&self) -> ValueType {
        match self {
            Value::Int(_) => ValueType::Int,
            Value::Str(_) => ValueType::Str,
            Value::Bool(_) => ValueType::Bool,
            Value::Time(_) => ValueType::Time,
            Value::Span(..) => ValueType::Span,
            Value::Point(_) => ValueType::OngoingPoint,
            Value::Interval(_) => ValueType::OngoingInterval,
            Value::Count(_) => ValueType::OngoingInt,
        }
    }

    /// Does this value depend on the reference time?
    pub fn is_ongoing(&self) -> bool {
        match self {
            Value::Point(p) => p.is_ongoing(),
            Value::Interval(i) => i.is_ongoing(),
            Value::Count(c) => !c.is_constant(),
            _ => false,
        }
    }

    /// The bind operator: instantiates ongoing variants at `rt`, turning
    /// `Point` into `Time` and `Interval` into `Span`; fixed values are
    /// returned unchanged.
    pub fn bind(&self, rt: TimePoint) -> Value {
        match self {
            Value::Point(p) => Value::Time(p.bind(rt)),
            Value::Interval(i) => {
                let (s, e) = i.bind(rt);
                Value::Span(s, e)
            }
            Value::Count(c) => Value::Int(c.bind(rt)),
            v => v.clone(),
        }
    }

    /// Reference-time-dependent equality of two values: the ongoing boolean
    /// that is true at `rt` iff `∥self∥rt = ∥other∥rt` (component-wise
    /// fixed equality — the comparison the difference operator of Theorem 2
    /// performs).
    ///
    /// Values of different types are never equal.
    pub fn ongoing_eq(&self, other: &Value) -> OngoingBool {
        match (self, other) {
            (Value::Point(p), Value::Point(q)) => ops::eq(*p, *q),
            (Value::Point(p), Value::Time(t)) | (Value::Time(t), Value::Point(p)) => {
                ops::eq(*p, OngoingPoint::fixed(*t))
            }
            (Value::Interval(i), Value::Interval(j)) => {
                ops::eq(i.ts(), j.ts()).and(&ops::eq(i.te(), j.te()))
            }
            (Value::Interval(i), Value::Span(s, e)) | (Value::Span(s, e), Value::Interval(i)) => {
                ops::eq(i.ts(), OngoingPoint::fixed(*s))
                    .and(&ops::eq(i.te(), OngoingPoint::fixed(*e)))
            }
            (Value::Count(a), Value::Count(b)) => OngoingBool::from_set(a.eq_set(b)),
            (Value::Count(c), Value::Int(v)) | (Value::Int(v), Value::Count(c)) => {
                OngoingBool::from_set(c.eq_set(&OngoingInt::constant(*v)))
            }
            (a, b) => OngoingBool::from_bool(a == b),
        }
    }

    /// Extracts an ongoing point, coercing fixed time points.
    pub fn as_point(&self) -> Option<OngoingPoint> {
        match self {
            Value::Point(p) => Some(*p),
            Value::Time(t) => Some(OngoingPoint::fixed(*t)),
            _ => None,
        }
    }

    /// Extracts an ongoing interval, coercing fixed spans.
    pub fn as_interval(&self) -> Option<OngoingInterval> {
        match self {
            Value::Interval(i) => Some(*i),
            Value::Span(s, e) => Some(OngoingInterval::fixed(*s, *e)),
            _ => None,
        }
    }

    /// Extracts an ongoing integer, coercing fixed integers.
    pub fn as_ongoing_int(&self) -> Option<OngoingInt> {
        match self {
            Value::Count(c) => Some(c.clone()),
            Value::Int(v) => Some(OngoingInt::constant(*v)),
            _ => None,
        }
    }

    /// Extracts an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Extracts a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Extracts a fixed boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl Value {
    /// Formats the value with day-granularity time points rendered as civil
    /// dates in the paper's `mm/dd` shorthand (2019 dates) or `yyyy/mm/dd`.
    pub fn display_md(&self) -> String {
        use ongoing_core::date::AsMd;
        fn point_md(p: &OngoingPoint) -> String {
            use ongoing_core::PointKind;
            match p.kind() {
                PointKind::Fixed => AsMd(p.a()).to_string(),
                PointKind::Now => "now".to_string(),
                PointKind::Growing => format!("{}+", AsMd(p.a())),
                PointKind::Limited => format!("+{}", AsMd(p.b())),
                PointKind::General => format!("{}+{}", AsMd(p.a()), AsMd(p.b())),
            }
        }
        match self {
            Value::Time(t) => AsMd(*t).to_string(),
            Value::Span(s, e) => format!("[{}, {})", AsMd(*s), AsMd(*e)),
            Value::Point(p) => point_md(p),
            Value::Interval(i) => {
                format!("[{}, {})", point_md(&i.ts()), point_md(&i.te()))
            }
            other => other.to_string(),
        }
    }
}

/// A total order over values, used only to canonicalize row sets (sort +
/// dedup). It is *not* the temporal comparison — that is
/// [`ongoing_core::ops::lt`] and friends, which return ongoing booleans.
pub fn cmp_values(a: &Value, b: &Value) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    fn rank(v: &Value) -> u8 {
        match v {
            Value::Int(_) => 0,
            Value::Str(_) => 1,
            Value::Bool(_) => 2,
            Value::Time(_) => 3,
            Value::Span(..) => 4,
            Value::Point(_) => 5,
            Value::Interval(_) => 6,
            Value::Count(_) => 7,
        }
    }
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => x.cmp(y),
        (Value::Str(x), Value::Str(y)) => x.cmp(y),
        (Value::Bool(x), Value::Bool(y)) => x.cmp(y),
        (Value::Time(x), Value::Time(y)) => x.cmp(y),
        (Value::Span(xs, xe), Value::Span(ys, ye)) => xs.cmp(ys).then(xe.cmp(ye)),
        (Value::Point(x), Value::Point(y)) => x.a().cmp(&y.a()).then(x.b().cmp(&y.b())),
        (Value::Interval(x), Value::Interval(y)) => {
            let key = |i: &OngoingInterval| (i.ts().a(), i.ts().b(), i.te().a(), i.te().b());
            key(x).cmp(&key(y))
        }
        (Value::Count(x), Value::Count(y)) => x.cmp(y),
        _ => rank(a).cmp(&rank(b)).then(Ordering::Equal),
    }
}

/// Lexicographic [`cmp_values`] over rows.
pub fn cmp_rows(a: &[Value], b: &[Value]) -> std::cmp::Ordering {
    for (x, y) in a.iter().zip(b.iter()) {
        let c = cmp_values(x, y);
        if c != std::cmp::Ordering::Equal {
            return c;
        }
    }
    a.len().cmp(&b.len())
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<TimePoint> for Value {
    fn from(v: TimePoint) -> Self {
        Value::Time(v)
    }
}

impl From<OngoingPoint> for Value {
    fn from(v: OngoingPoint) -> Self {
        Value::Point(v)
    }
}

impl From<OngoingInterval> for Value {
    fn from(v: OngoingInterval) -> Self {
        Value::Interval(v)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Time(v) => write!(f, "{v}"),
            Value::Span(s, e) => write!(f, "[{s}, {e})"),
            Value::Point(v) => write!(f, "{v}"),
            Value::Interval(v) => write!(f, "{v}"),
            Value::Count(v) => write!(f, "{v}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ongoing_core::time::tp;

    #[test]
    fn bind_instantiates_ongoing_values() {
        let p = Value::Point(OngoingPoint::now());
        assert_eq!(p.bind(tp(7)), Value::Time(tp(7)));
        let i = Value::Interval(OngoingInterval::from_until_now(tp(3)));
        assert_eq!(i.bind(tp(7)), Value::Span(tp(3), tp(7)));
        let s = Value::str("abc");
        assert_eq!(s.bind(tp(7)), s);
    }

    #[test]
    fn is_ongoing_only_for_ongoing_payloads() {
        assert!(Value::Point(OngoingPoint::now()).is_ongoing());
        assert!(!Value::Point(OngoingPoint::fixed(tp(3))).is_ongoing());
        assert!(Value::Interval(OngoingInterval::from_until_now(tp(3))).is_ongoing());
        assert!(!Value::Interval(OngoingInterval::fixed(tp(3), tp(5))).is_ongoing());
        assert!(!Value::Int(1).is_ongoing());
    }

    #[test]
    fn ongoing_eq_is_pointwise_equality() {
        let a = Value::Interval(OngoingInterval::from_until_now(tp(0)));
        let b = Value::Interval(OngoingInterval::fixed(tp(0), tp(5)));
        let e = a.ongoing_eq(&b);
        for rt in -3i64..9 {
            let rt = tp(rt);
            assert_eq!(e.bind(rt), a.bind(rt) == b.bind(rt), "rt={rt}");
        }
    }

    #[test]
    fn ongoing_eq_on_fixed_values_is_constant() {
        assert!(Value::Int(3).ongoing_eq(&Value::Int(3)).is_always_true());
        assert!(Value::Int(3).ongoing_eq(&Value::Int(4)).is_always_false());
        assert!(Value::str("x")
            .ongoing_eq(&Value::str("x"))
            .is_always_true());
        // Cross-type comparisons are never equal.
        assert!(Value::Int(3).ongoing_eq(&Value::str("3")).is_always_false());
    }

    #[test]
    fn point_time_coercion_in_eq() {
        let p = Value::Point(OngoingPoint::now());
        let t = Value::Time(tp(5));
        let e = p.ongoing_eq(&t);
        assert!(e.bind(tp(5)));
        assert!(!e.bind(tp(6)));
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(3).as_int(), Some(3));
        assert_eq!(Value::str("x").as_str(), Some("x"));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert!(Value::Int(3).as_str().is_none());
        assert_eq!(
            Value::Time(tp(3)).as_point(),
            Some(OngoingPoint::fixed(tp(3)))
        );
        assert_eq!(
            Value::Span(tp(1), tp(2)).as_interval(),
            Some(OngoingInterval::fixed(tp(1), tp(2)))
        );
    }

    #[test]
    fn display_round_trips_notation() {
        assert_eq!(Value::Point(OngoingPoint::now()).to_string(), "now");
        assert_eq!(
            Value::Interval(OngoingInterval::from_until_now(tp(3))).to_string(),
            "[3, now)"
        );
        assert_eq!(Value::Span(tp(1), tp(2)).to_string(), "[1, 2)");
    }
}
