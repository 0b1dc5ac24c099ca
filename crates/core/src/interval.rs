//! Ongoing time intervals `[ts, te)` over `Ω × Ω` (Sec. V-B, Fig. 4).
//!
//! An ongoing time interval instantiates to a fixed time interval by
//! instantiating its start and end points. Depending on the reference time
//! the instantiation can be empty — a *partially empty* interval — which is
//! why the paper's derived predicates (Table II) carry explicit per-reference
//! -time non-emptiness checks.

use crate::point::OngoingPoint;
use crate::set::IntervalSet;
use crate::time::TimePoint;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The interval shapes distinguished in Fig. 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntervalKind {
    /// Both endpoints fixed: instantiates to the same interval everywhere.
    Fixed,
    /// Fixed start, ongoing end: instantiation duration grows with `rt`
    /// (e.g. `[10/17, now)`).
    Expanding,
    /// Ongoing start, fixed end: instantiation duration shrinks with `rt`
    /// (e.g. `[+10/17, 10/19)`).
    Shrinking,
    /// Both endpoints ongoing (e.g. `[10/16+10/17, 10/19+10/20)`).
    General,
}

/// How the emptiness of an interval's instantiations depends on `rt`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Emptiness {
    /// Non-empty at every reference time.
    NeverEmpty,
    /// Empty at some reference times, non-empty at others
    /// (e.g. `[10/17, now)` is empty for `rt <= 10/17`).
    PartiallyEmpty,
    /// Empty at every reference time.
    AlwaysEmpty,
}

/// An ongoing time interval `[ts, te)` with endpoints from `Ω`.
///
/// No ordering between `ts` and `te` is required: intervals may be partially
/// or even always empty, and the algebra handles that through the
/// per-reference-time non-emptiness checks baked into the predicates.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct OngoingInterval {
    ts: OngoingPoint,
    te: OngoingPoint,
}

impl OngoingInterval {
    /// Creates `[ts, te)` from two ongoing points.
    #[inline]
    pub const fn new(ts: OngoingPoint, te: OngoingPoint) -> Self {
        OngoingInterval { ts, te }
    }

    /// A fixed interval `[ts, te)` embedded into the ongoing domain.
    #[inline]
    pub const fn fixed(ts: TimePoint, te: TimePoint) -> Self {
        OngoingInterval {
            ts: OngoingPoint::fixed(ts),
            te: OngoingPoint::fixed(te),
        }
    }

    /// The expanding interval `[ts, now)` — the most common ongoing interval
    /// ("valid from `ts` onward").
    #[inline]
    pub const fn from_until_now(ts: TimePoint) -> Self {
        OngoingInterval {
            ts: OngoingPoint::fixed(ts),
            te: OngoingPoint::now(),
        }
    }

    /// The shrinking interval `[now, te)` — valid from now until `te`.
    #[inline]
    pub const fn from_now_until(te: TimePoint) -> Self {
        OngoingInterval {
            ts: OngoingPoint::now(),
            te: OngoingPoint::fixed(te),
        }
    }

    /// The inclusive ongoing start point.
    #[inline]
    pub const fn ts(self) -> OngoingPoint {
        self.ts
    }

    /// The exclusive ongoing end point.
    #[inline]
    pub const fn te(self) -> OngoingPoint {
        self.te
    }

    /// The bind operator for intervals: `∥[ts, te)∥rt = [∥ts∥rt, ∥te∥rt)`.
    /// The result may be an empty fixed interval.
    #[inline]
    pub fn bind(self, rt: TimePoint) -> (TimePoint, TimePoint) {
        (self.ts.bind(rt), self.te.bind(rt))
    }

    /// Is the instantiation at `rt` non-empty?
    #[inline]
    pub fn nonempty_at(self, rt: TimePoint) -> bool {
        let (s, e) = self.bind(rt);
        s < e
    }

    /// The set of reference times at which the interval instantiates to a
    /// *non-empty* fixed interval — the ongoing boolean `ts < te`
    /// underlying the paper's explicit non-empty checks.
    pub fn nonempty_set(self) -> IntervalSet {
        crate::ops::lt(self.ts, self.te).into_true_set()
    }

    /// Classifies the emptiness behaviour (Fig. 4, bottom row).
    pub fn emptiness(self) -> Emptiness {
        let ne = self.nonempty_set();
        if ne.is_empty() {
            Emptiness::AlwaysEmpty
        } else if ne.is_full() {
            Emptiness::NeverEmpty
        } else {
            Emptiness::PartiallyEmpty
        }
    }

    /// Classifies the interval shape (Fig. 4, top row).
    pub fn kind(self) -> IntervalKind {
        match (self.ts.is_fixed(), self.te.is_fixed()) {
            (true, true) => IntervalKind::Fixed,
            (true, false) => IntervalKind::Expanding,
            (false, true) => IntervalKind::Shrinking,
            (false, false) => IntervalKind::General,
        }
    }

    /// Does the interval mention any ongoing (non-fixed) endpoint?
    #[inline]
    pub fn is_ongoing(self) -> bool {
        self.ts.is_ongoing() || self.te.is_ongoing()
    }

    /// Interval intersection `∩` (Table II):
    /// `[ts, te) ∩ [˜ts, ˜te) ≡ [max(ts, ˜ts), min(te, ˜te))`.
    pub fn intersect(self, other: OngoingInterval) -> OngoingInterval {
        OngoingInterval {
            ts: crate::ops::max(self.ts, other.ts),
            te: crate::ops::min(self.te, other.te),
        }
    }
}

impl fmt::Debug for OngoingInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for OngoingInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.ts, self.te)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::limit_grid_points;
    use crate::time::{tp, LIMIT_GRID};

    /// Exhaustive over the limit grid: for every interval with endpoints
    /// on the grid, `bind`, `nonempty_at`, `nonempty_set` and `intersect`
    /// agree with the fixed semantics at every grid `rt`. `∞` is not a
    /// reference time: no half-open range of `nonempty_set` contains it.
    #[test]
    fn bind_nonempty_and_intersect_agree_on_the_limit_grid() {
        let points = limit_grid_points();
        let intervals: Vec<OngoingInterval> = points
            .iter()
            .flat_map(|&ts| points.iter().map(move |&te| OngoingInterval::new(ts, te)))
            .collect();
        for &i in &intervals {
            let set = i.nonempty_set();
            for rt in LIMIT_GRID {
                let (s, e) = i.bind(rt);
                assert_eq!((s, e), (i.ts().bind(rt), i.te().bind(rt)), "{i} at {rt}");
                assert_eq!(i.nonempty_at(rt), s < e, "{i} at {rt}");
                let member = s < e && !rt.is_pos_inf();
                assert_eq!(set.contains(rt), member, "{i}: {set} at {rt}");
            }
        }
        for &i in &intervals {
            for &j in &intervals {
                let both = i.intersect(j);
                for rt in LIMIT_GRID {
                    let ((s1, e1), (s2, e2)) = (i.bind(rt), j.bind(rt));
                    let want = (s1.max(s2), e1.min(e2));
                    assert_eq!(both.bind(rt), want, "{i} ∩ {j} at {rt}");
                    assert_eq!(both.nonempty_at(rt), want.0 < want.1, "{i} ∩ {j} at {rt}");
                }
            }
        }
    }

    fn pt(a: i64, b: i64) -> OngoingPoint {
        OngoingPoint::new(tp(a), tp(b)).unwrap()
    }

    #[test]
    fn bind_instantiates_both_endpoints() {
        // [10/17, now) at rt 10/20 is [10/17, 10/20).
        let i = OngoingInterval::from_until_now(tp(17));
        assert_eq!(i.bind(tp(20)), (tp(17), tp(20)));
        // ... and empty before 10/17.
        assert_eq!(i.bind(tp(15)), (tp(17), tp(15)));
        assert!(!i.nonempty_at(tp(15)));
        assert!(!i.nonempty_at(tp(17)));
        assert!(i.nonempty_at(tp(18)));
    }

    #[test]
    fn expanding_interval_with_limited_growth() {
        // [10/17, 10/19+10/21): duration grows until rt 10/21, then stays
        // [10/17, 10/21) (example in Sec. V-B).
        let i = OngoingInterval::new(OngoingPoint::fixed(tp(17)), pt(19, 21));
        assert_eq!(i.bind(tp(15)), (tp(17), tp(19)));
        assert_eq!(i.bind(tp(20)), (tp(17), tp(20)));
        assert_eq!(i.bind(tp(21)), (tp(17), tp(21)));
        assert_eq!(i.bind(tp(30)), (tp(17), tp(21)));
        assert_eq!(i.kind(), IntervalKind::Expanding);
        assert_eq!(i.emptiness(), Emptiness::NeverEmpty);
    }

    #[test]
    fn kinds_match_fig_4() {
        assert_eq!(
            OngoingInterval::fixed(tp(17), tp(19)).kind(),
            IntervalKind::Fixed
        );
        assert_eq!(
            OngoingInterval::from_until_now(tp(17)).kind(),
            IntervalKind::Expanding
        );
        assert_eq!(
            OngoingInterval::from_now_until(tp(19)).kind(),
            IntervalKind::Shrinking
        );
        assert_eq!(
            OngoingInterval::new(pt(16, 17), pt(19, 20)).kind(),
            IntervalKind::General
        );
    }

    #[test]
    fn shrinking_interval_via_limited_start() {
        // [+10/17, 10/19): starts possibly earlier than 10/17 but not later.
        let i = OngoingInterval::new(OngoingPoint::limited(tp(17)), OngoingPoint::fixed(tp(19)));
        assert_eq!(i.bind(tp(10)), (tp(10), tp(19)));
        assert_eq!(i.bind(tp(18)), (tp(17), tp(19)));
        assert_eq!(i.kind(), IntervalKind::Shrinking);
        assert_eq!(i.emptiness(), Emptiness::NeverEmpty);
    }

    #[test]
    fn partially_empty_expanding() {
        // [10/17, now) is empty up to and including rt 10/17 (Sec. V-B).
        let i = OngoingInterval::from_until_now(tp(17));
        assert_eq!(i.emptiness(), Emptiness::PartiallyEmpty);
        let ne = i.nonempty_set();
        assert!(!ne.contains(tp(17)));
        assert!(ne.contains(tp(18)));
        assert!(ne.contains(tp(1_000)));
    }

    #[test]
    fn partially_empty_shrinking() {
        // [10/16+, 10/19): empty from rt 10/19 on (Fig. 4 bottom right).
        let i = OngoingInterval::new(OngoingPoint::growing(tp(16)), OngoingPoint::fixed(tp(19)));
        assert_eq!(i.emptiness(), Emptiness::PartiallyEmpty);
        let ne = i.nonempty_set();
        assert!(ne.contains(tp(10)));
        assert!(ne.contains(tp(18)));
        assert!(!ne.contains(tp(19)));
        assert!(!ne.contains(tp(30)));
    }

    #[test]
    fn always_empty_interval() {
        let i = OngoingInterval::fixed(tp(19), tp(17));
        assert_eq!(i.emptiness(), Emptiness::AlwaysEmpty);
        assert!(i.nonempty_set().is_empty());
    }

    #[test]
    fn never_empty_fixed_interval() {
        let i = OngoingInterval::fixed(tp(17), tp(19));
        assert_eq!(i.emptiness(), Emptiness::NeverEmpty);
        assert!(i.nonempty_set().is_full());
    }

    #[test]
    fn intersection_matches_table_ii_example() {
        // [10/17, now) ∩ [10/14, 10/20) = [10/17, +10/20)
        let l = OngoingInterval::from_until_now(tp(17));
        let r = OngoingInterval::fixed(tp(14), tp(20));
        let x = l.intersect(r);
        assert_eq!(x.ts(), OngoingPoint::fixed(tp(17)));
        assert_eq!(x.te(), OngoingPoint::limited(tp(20)));
        assert_eq!(x.to_string(), "[17, +20)");
    }

    #[test]
    fn running_example_intersection_v1() {
        // b1.VT ∩ l1.VT = [01/25, now) ∩ [01/20, 08/18) = [01/25, +08/18)
        use crate::date::md;
        let b1 = OngoingInterval::from_until_now(md(1, 25));
        let l1 = OngoingInterval::fixed(md(1, 20), md(8, 18));
        let x = b1.intersect(l1);
        assert_eq!(x.ts(), OngoingPoint::fixed(md(1, 25)));
        assert_eq!(x.te(), OngoingPoint::limited(md(8, 18)));
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(
            OngoingInterval::from_until_now(tp(17)).to_string(),
            "[17, now)"
        );
        assert_eq!(
            OngoingInterval::fixed(tp(17), tp(19)).to_string(),
            "[17, 19)"
        );
    }
}
