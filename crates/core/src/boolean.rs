//! Ongoing booleans `b[St, Sf]` (Definition 3).
//!
//! An ongoing boolean is a boolean whose truth value depends on the
//! reference time: it is `true` at the reference times in `St` and `false`
//! at those in `Sf`, where `St` and `Sf` partition the time domain.
//!
//! Following the paper's implementation (Sec. VIII), only `St` is stored —
//! as a canonical [`IntervalSet`] — and `Sf` is its complement. Storing `St`
//! in the same representation as a tuple's reference time lets a relational
//! operator restrict `RT` with a predicate result through a single sweep-line
//! conjunction.

use crate::set::IntervalSet;
use crate::time::TimePoint;
use serde::{Deserialize, Serialize};
use std::fmt;

/// An ongoing boolean: `true` exactly at the reference times in its
/// (canonically represented) true-set `St`.
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct OngoingBool {
    st: IntervalSet,
}

impl OngoingBool {
    /// The ongoing boolean that is true everywhere — the generalization of
    /// fixed `true` (`b[{(-∞,∞)}, ∅]`).
    #[inline]
    pub fn always_true() -> Self {
        OngoingBool {
            st: IntervalSet::full(),
        }
    }

    /// The ongoing boolean that is false everywhere (`b[∅, {(-∞,∞)}]`).
    #[inline]
    pub fn always_false() -> Self {
        OngoingBool {
            st: IntervalSet::empty(),
        }
    }

    /// Embeds a fixed boolean (predicates on fixed attributes keep their
    /// standard behaviour, Sec. VII-B).
    #[inline]
    pub fn from_bool(v: bool) -> Self {
        if v {
            Self::always_true()
        } else {
            Self::always_false()
        }
    }

    /// An ongoing boolean from its true-set.
    #[inline]
    pub fn from_set(st: IntervalSet) -> Self {
        OngoingBool { st }
    }

    /// The bind operator `∥b[St, Sf]∥rt`: `true` iff `rt ∈ St`.
    #[inline]
    pub fn bind(&self, rt: TimePoint) -> bool {
        self.st.contains(rt)
    }

    /// The true-set `St`.
    #[inline]
    pub fn true_set(&self) -> &IntervalSet {
        &self.st
    }

    /// Consumes the boolean, returning its true-set — used when restricting
    /// a tuple's reference time (Theorem 2).
    #[inline]
    pub fn into_true_set(self) -> IntervalSet {
        self.st
    }

    /// Is this boolean `true` at every reference time?
    #[inline]
    pub fn is_always_true(&self) -> bool {
        self.st.is_full()
    }

    /// Is this boolean `false` at every reference time?
    #[inline]
    pub fn is_always_false(&self) -> bool {
        self.st.is_empty()
    }

    /// Logical conjunction `b1 ∧ b2 ≡ b[St ∩ ˜St, Sf ∪ ˜Sf]` (Theorem 1),
    /// computed with the sweep-line Algorithm 1.
    #[inline]
    pub fn and(&self, other: &OngoingBool) -> OngoingBool {
        OngoingBool {
            st: self.st.intersect(&other.st),
        }
    }

    /// Logical disjunction `b1 ∨ b2 ≡ b[St ∪ ˜St, Sf ∩ ˜Sf]` (Theorem 1).
    #[inline]
    pub fn or(&self, other: &OngoingBool) -> OngoingBool {
        OngoingBool {
            st: self.st.union(&other.st),
        }
    }

    /// Logical negation `¬b[St, Sf] ≡ b[Sf, St]` (Theorem 1).
    #[inline]
    pub fn not(&self) -> OngoingBool {
        OngoingBool {
            st: self.st.complement(),
        }
    }
}

impl From<bool> for OngoingBool {
    #[inline]
    fn from(v: bool) -> Self {
        OngoingBool::from_bool(v)
    }
}

impl From<IntervalSet> for OngoingBool {
    #[inline]
    fn from(st: IntervalSet) -> Self {
        OngoingBool::from_set(st)
    }
}

impl fmt::Debug for OngoingBool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for OngoingBool {
    /// Prints `b[St, Sf]` in the paper's notation, with the false-set
    /// implied: `b[{[10/18, +inf)}]`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b[{}]", self.st)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::tp;

    fn ob(ranges: &[(i64, i64)]) -> OngoingBool {
        OngoingBool::from_set(IntervalSet::from_ranges(
            ranges.iter().map(|&(a, b)| (tp(a), tp(b))),
        ))
    }

    #[test]
    fn definition_3_example() {
        // b[{[10/18, ∞)}, {(-∞, 10/18)}] is true at 10/18 and later, false
        // earlier.
        let b = OngoingBool::from_set(IntervalSet::range(tp(18), TimePoint::POS_INF));
        assert!(b.bind(tp(18)));
        assert!(b.bind(tp(100)));
        assert!(!b.bind(tp(17)));
    }

    #[test]
    fn booleans_generalize_fixed_booleans() {
        assert!(OngoingBool::from_bool(true).is_always_true());
        assert!(OngoingBool::from_bool(false).is_always_false());
        for rt in [-10i64, 0, 10] {
            assert!(OngoingBool::from_bool(true).bind(tp(rt)));
            assert!(!OngoingBool::from_bool(false).bind(tp(rt)));
        }
    }

    #[test]
    fn connectives_are_pointwise() {
        let x = ob(&[(0, 10)]);
        let y = ob(&[(5, 15)]);
        for rt in -2i64..18 {
            let rt = tp(rt);
            assert_eq!(x.and(&y).bind(rt), x.bind(rt) && y.bind(rt));
            assert_eq!(x.or(&y).bind(rt), x.bind(rt) || y.bind(rt));
            assert_eq!(x.not().bind(rt), !x.bind(rt));
        }
    }

    #[test]
    fn negation_swaps_st_and_sf() {
        let x = ob(&[(0, 10)]);
        assert_eq!(x.not().true_set(), &x.true_set().complement());
        assert_eq!(x.not().not(), x);
    }

    #[test]
    fn conjunction_with_true_is_identity() {
        let x = ob(&[(0, 10), (20, 30)]);
        assert_eq!(x.and(&OngoingBool::always_true()), x);
        assert!(x.and(&OngoingBool::always_false()).is_always_false());
        assert_eq!(x.or(&OngoingBool::always_false()), x);
        assert!(x.or(&OngoingBool::always_true()).is_always_true());
    }

    #[test]
    fn example_3_reference_time_restriction() {
        use crate::date::md;
        // x.RT ∧ θ(x): {(-∞, 08/16)} ∧ b[{[01/26, ∞)}] = {[01/26, 08/16)}
        let rt = OngoingBool::from_set(IntervalSet::range(TimePoint::NEG_INF, md(8, 16)));
        let theta = OngoingBool::from_set(IntervalSet::range(md(1, 26), TimePoint::POS_INF));
        let restricted = rt.and(&theta);
        assert_eq!(
            restricted.into_true_set(),
            IntervalSet::range(md(1, 26), md(8, 16))
        );
    }

    #[test]
    fn display_shows_true_set() {
        assert_eq!(ob(&[(1, 3)]).to_string(), "b[{[1, 3)}]");
        assert_eq!(OngoingBool::always_true().to_string(), "b[{[-inf, +inf)}]");
    }
}
