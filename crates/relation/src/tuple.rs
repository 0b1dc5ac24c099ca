//! Tuples of ongoing relations.
//!
//! Every tuple carries, next to its attribute values `A`, the reference-time
//! attribute `RT`: the set of reference times at which the tuple belongs to
//! the instantiated relations. Base tuples start with the trivial reference
//! time `{(-∞, ∞)}`; relational operators restrict it (Theorem 2). Tuples
//! whose `RT` becomes empty are deleted.

use crate::value::Value;
use ongoing_core::{IntervalSet, TimePoint};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// A tuple `(A, RT)` of an ongoing relation.
///
/// Attribute values are stored in a shared slice so operators that only
/// restrict `RT` (selection, the inputs of a product) can reuse the payload
/// without copying values.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Tuple {
    values: Arc<[Value]>,
    rt: IntervalSet,
}

impl Tuple {
    /// A base tuple: values with the trivial reference time `{(-∞, ∞)}`.
    pub fn base(values: impl Into<Arc<[Value]>>) -> Self {
        Tuple {
            values: values.into(),
            rt: IntervalSet::full(),
        }
    }

    /// A tuple with an explicit reference time.
    pub fn with_rt(values: Vec<Value>, rt: IntervalSet) -> Self {
        Tuple {
            values: values.into(),
            rt,
        }
    }

    /// A tuple sharing this tuple's values but carrying a different `RT` —
    /// the cheap path for selection.
    pub fn restricted(&self, rt: IntervalSet) -> Self {
        Tuple {
            values: Arc::clone(&self.values),
            rt,
        }
    }

    /// The attribute values `A`.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The value of the attribute at `idx`.
    pub fn value(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    /// The reference time `RT`.
    pub fn rt(&self) -> &IntervalSet {
        &self.rt
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Does the tuple belong to the instantiated relation at `rt`?
    pub fn alive_at(&self, rt: TimePoint) -> bool {
        self.rt.contains(rt)
    }

    /// The bind operator for tuples: instantiates every attribute at `rt`,
    /// or `None` when `rt ∉ RT` (the tuple is omitted from `∥R∥rt`).
    /// Requires `rt < ∞`: no half-open `RT` range contains `∞`, so every
    /// tuple binds to `None` there.
    pub fn bind(&self, rt: TimePoint) -> Option<Vec<Value>> {
        if !self.alive_at(rt) {
            return None;
        }
        Some(self.values.iter().map(|v| v.bind(rt)).collect())
    }

    /// Concatenates two tuples for a Cartesian product; the result's `RT`
    /// is the intersection of the inputs' reference times (Theorem 2).
    ///
    /// The chained value iterator has an exact length, so collecting it
    /// allocates the shared slice once (no intermediate `Vec`).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        self.concat_with_rt(other, self.rt.intersect(&other.rt))
    }

    /// [`concat`](Self::concat) with a reference time the caller already
    /// computed — a join concatenates a candidate pair only once it passed,
    /// with its restricted `RT`.
    pub fn concat_with_rt(&self, other: &Tuple, rt: IntervalSet) -> Tuple {
        Tuple {
            values: self
                .values
                .iter()
                .chain(other.values.iter())
                .cloned()
                .collect(),
            rt,
        }
    }

    /// Projects onto the attributes at `indices`; `RT` is unchanged.
    pub fn project(&self, indices: &[usize]) -> Tuple {
        Tuple {
            values: indices.iter().map(|&i| self.values[i].clone()).collect(),
            rt: self.rt.clone(),
        }
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, " | RT = {})", self.rt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ongoing_core::time::tp;
    use ongoing_core::OngoingInterval;

    fn sample() -> Tuple {
        Tuple::base(vec![
            Value::Int(500),
            Value::str("Spam filter"),
            Value::Interval(OngoingInterval::from_until_now(tp(25))),
        ])
    }

    #[test]
    fn tuple_layout_size_is_pinned() {
        // Shared value slice (16 bytes) plus the inline reference time.
        assert!(std::mem::size_of::<Tuple>() <= 56);
    }

    #[test]
    fn base_tuples_have_trivial_rt() {
        let t = sample();
        assert!(t.rt().is_full());
        assert!(t.alive_at(tp(0)));
        assert!(t.alive_at(tp(1_000_000)));
    }

    #[test]
    fn bind_instantiates_or_omits() {
        let t = sample().restricted(IntervalSet::range(tp(26), tp(100)));
        assert!(t.bind(tp(10)).is_none());
        let vals = t.bind(tp(30)).unwrap();
        assert_eq!(vals[2], Value::Span(tp(25), tp(30)));
    }

    #[test]
    fn concat_intersects_rts() {
        let a = sample().restricted(IntervalSet::range(tp(0), tp(10)));
        let b = sample().restricted(IntervalSet::range(tp(5), tp(20)));
        let c = a.concat(&b);
        assert_eq!(c.arity(), 6);
        assert_eq!(c.rt(), &IntervalSet::range(tp(5), tp(10)));
        let expected: Vec<Value> = a.values().iter().chain(b.values()).cloned().collect();
        assert_eq!(c.values(), expected.as_slice());
        // Uneven arities and an empty side keep every value in order.
        let one = Tuple::base(vec![Value::Int(7)]);
        let empty = Tuple::base(Vec::new());
        assert_eq!(one.concat(&a).values()[0], Value::Int(7));
        assert_eq!(one.concat(&a).values()[1..], *a.values());
        assert_eq!(empty.concat(&one).values(), one.values());
        assert_eq!(a.concat(&empty).values(), a.values());
        assert_eq!(a.concat(&empty).rt(), a.rt());
        // Disjoint reference times intersect to the empty set.
        let late = sample().restricted(IntervalSet::range(tp(50), tp(60)));
        assert!(a.concat(&late).rt().is_empty());
    }

    #[test]
    fn project_keeps_rt() {
        let t = sample().restricted(IntervalSet::range(tp(0), tp(10)));
        let p = t.project(&[2, 0]);
        assert_eq!(p.arity(), 2);
        assert_eq!(p.value(1), &Value::Int(500));
        assert_eq!(p.rt(), t.rt());
    }

    #[test]
    fn restricted_shares_payload() {
        let t = sample();
        let r = t.restricted(IntervalSet::range(tp(0), tp(1)));
        assert!(Arc::ptr_eq(&t.values, &r.values));
    }

    #[test]
    fn display_shows_rt() {
        let t = sample().restricted(IntervalSet::range(tp(26), tp(228)));
        let s = t.to_string();
        assert!(s.contains("500"));
        assert!(s.contains("RT = {[26, 228)}"));
    }
}
