//! The ongoing time domain `Ω` (Definitions 1 and 2, Fig. 3).
//!
//! An ongoing time point `a+b` means *not earlier than `a`, but not later
//! than `b`*. At reference time `rt` it instantiates to
//! `minF(b, maxF(a, rt))`. The domain `Ω` generalizes
//!
//! * fixed time points `a = a+a`,
//! * the current time point `now = -∞+∞`,
//! * growing time points `a+ = a+∞`, and
//! * limited time points `+b = -∞+b`,
//!
//! and — unlike the previously proposed domains `T ∪ {now}` (Clifford) and
//! `Tf` (Torp) — is *closed* under `min` and `max` (Theorem 1, Table I).

use crate::time::TimePoint;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Error returned when constructing an ongoing point with `a > b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct InvalidOngoingPoint {
    pub a: TimePoint,
    pub b: TimePoint,
}

impl fmt::Display for InvalidOngoingPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid ongoing time point: a = {} must not exceed b = {}",
            self.a, self.b
        )
    }
}

impl std::error::Error for InvalidOngoingPoint {}

/// The four shapes of ongoing time points distinguished in Fig. 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PointKind {
    /// `a+a`: instantiates to `a` at every reference time.
    Fixed,
    /// `-∞+∞`: instantiates to the reference time itself.
    Now,
    /// `a+∞` (written `a+`): not earlier than `a`, possibly later.
    Growing,
    /// `-∞+b` (written `+b`): possibly earlier than `b`, but not later.
    Limited,
    /// General `a+b` with `-∞ < a < b < ∞`.
    General,
}

/// An ongoing time point `a+b ∈ Ω` with the invariant `a <= b`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct OngoingPoint {
    a: TimePoint,
    b: TimePoint,
}

impl OngoingPoint {
    /// The ongoing time point `now = -∞+∞`.
    pub const NOW: OngoingPoint = OngoingPoint {
        a: TimePoint::NEG_INF,
        b: TimePoint::POS_INF,
    };

    /// Creates `a+b`; fails if `a > b`.
    #[inline]
    pub fn new(a: TimePoint, b: TimePoint) -> Result<Self, InvalidOngoingPoint> {
        if a <= b {
            Ok(OngoingPoint { a, b })
        } else {
            Err(InvalidOngoingPoint { a, b })
        }
    }

    /// The fixed time point `a = a+a`.
    #[inline]
    pub const fn fixed(t: TimePoint) -> Self {
        OngoingPoint { a: t, b: t }
    }

    /// The current time point `now = -∞+∞`.
    #[inline]
    pub const fn now() -> Self {
        Self::NOW
    }

    /// The growing time point `a+ = a+∞`.
    #[inline]
    pub const fn growing(a: TimePoint) -> Self {
        OngoingPoint {
            a,
            b: TimePoint::POS_INF,
        }
    }

    /// The limited time point `+b = -∞+b`.
    #[inline]
    pub const fn limited(b: TimePoint) -> Self {
        OngoingPoint {
            a: TimePoint::NEG_INF,
            b,
        }
    }

    /// The lower component `a` (*not earlier than `a`*).
    #[inline]
    pub const fn a(self) -> TimePoint {
        self.a
    }

    /// The upper component `b` (*not later than `b`*).
    #[inline]
    pub const fn b(self) -> TimePoint {
        self.b
    }

    /// The bind operator `∥a+b∥rt` (Definition 2):
    ///
    /// ```text
    ///            ⎧ a   rt <= a
    /// ∥a+b∥rt =  ⎨ rt  a < rt < b
    ///            ⎩ b   otherwise
    /// ```
    ///
    /// equivalently `minF(b, maxF(a, rt))` — the closed form the proof of
    /// Theorem 1 relies on.
    #[inline]
    pub fn bind(self, rt: TimePoint) -> TimePoint {
        rt.clamp_to(self.a, self.b)
    }

    /// Does this point instantiate to the same value at every reference time?
    #[inline]
    pub fn is_fixed(self) -> bool {
        self.a == self.b
    }

    /// Is this a genuinely ongoing (non-fixed) point?
    #[inline]
    pub fn is_ongoing(self) -> bool {
        !self.is_fixed()
    }

    /// Classifies the point per Fig. 3.
    pub fn kind(self) -> PointKind {
        match (self.a.is_neg_inf(), self.b.is_pos_inf()) {
            _ if self.a == self.b => PointKind::Fixed,
            (true, true) => PointKind::Now,
            (false, true) => PointKind::Growing,
            (true, false) => PointKind::Limited,
            (false, false) => PointKind::General,
        }
    }
}

impl From<TimePoint> for OngoingPoint {
    #[inline]
    fn from(t: TimePoint) -> Self {
        OngoingPoint::fixed(t)
    }
}

impl fmt::Debug for OngoingPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for OngoingPoint {
    /// Prints the short notation of Fig. 3: `a` for fixed points, `now`,
    /// `a+` for growing, `+b` for limited, and `a+b` otherwise.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind() {
            PointKind::Fixed => write!(f, "{}", self.a),
            PointKind::Now => write!(f, "now"),
            PointKind::Growing => write!(f, "{}+", self.a),
            PointKind::Limited => write!(f, "+{}", self.b),
            PointKind::General => write!(f, "{}+{}", self.a, self.b),
        }
    }
}

/// Every valid point `a+b` with both components on the
/// [limit grid](crate::time::LIMIT_GRID): the 28 pairs with `a ≤ b`.
#[cfg(test)]
pub(crate) fn limit_grid_points() -> Vec<OngoingPoint> {
    use crate::time::LIMIT_GRID;
    let pairs = LIMIT_GRID.iter().flat_map(|&a| LIMIT_GRID.map(|b| (a, b)));
    pairs
        .filter_map(|(a, b)| OngoingPoint::new(a, b).ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::tp;

    #[test]
    fn constructor_enforces_invariant() {
        assert!(OngoingPoint::new(tp(3), tp(5)).is_ok());
        assert!(OngoingPoint::new(tp(3), tp(3)).is_ok());
        let err = OngoingPoint::new(tp(5), tp(3)).unwrap_err();
        assert_eq!(err.a, tp(5));
        assert!(err.to_string().contains("must not exceed"));
    }

    #[test]
    fn bind_follows_definition_2() {
        // 10/17+10/19 instantiates to 10/17 up to rt 10/17, to rt between,
        // to 10/19 afterwards (paper example below Definition 2).
        let p = OngoingPoint::new(tp(17), tp(19)).unwrap();
        assert_eq!(p.bind(tp(10)), tp(17)); // rt <= a
        assert_eq!(p.bind(tp(17)), tp(17)); // rt == a
        assert_eq!(p.bind(tp(18)), tp(18)); // a < rt < b
        assert_eq!(p.bind(tp(19)), tp(19)); // rt == b
        assert_eq!(p.bind(tp(25)), tp(19)); // rt >= b
    }

    #[test]
    fn bind_equals_min_max_closed_form() {
        for a in -3i64..4 {
            for b in a..4 {
                let p = OngoingPoint::new(tp(a), tp(b)).unwrap();
                for rt in -5i64..6 {
                    let expect = tp(b).min_f(tp(a).max_f(tp(rt)));
                    assert_eq!(p.bind(tp(rt)), expect, "a={a} b={b} rt={rt}");
                }
            }
        }
    }

    #[test]
    fn now_instantiates_to_reference_time() {
        for rt in [-100i64, 0, 42] {
            assert_eq!(OngoingPoint::now().bind(tp(rt)), tp(rt));
        }
    }

    #[test]
    fn fixed_point_is_constant() {
        let p = OngoingPoint::fixed(tp(7));
        for rt in [-100i64, 0, 7, 100] {
            assert_eq!(p.bind(tp(rt)), tp(7));
        }
    }

    #[test]
    fn growing_point_clamps_below() {
        let p = OngoingPoint::growing(tp(17));
        assert_eq!(p.bind(tp(15)), tp(17));
        assert_eq!(p.bind(tp(19)), tp(19));
    }

    #[test]
    fn limited_point_clamps_above() {
        let p = OngoingPoint::limited(tp(17));
        assert_eq!(p.bind(tp(15)), tp(15));
        assert_eq!(p.bind(tp(19)), tp(17));
    }

    #[test]
    fn kinds_match_fig_3() {
        assert_eq!(OngoingPoint::fixed(tp(1)).kind(), PointKind::Fixed);
        assert_eq!(OngoingPoint::now().kind(), PointKind::Now);
        assert_eq!(OngoingPoint::growing(tp(1)).kind(), PointKind::Growing);
        assert_eq!(OngoingPoint::limited(tp(1)).kind(), PointKind::Limited);
        assert_eq!(
            OngoingPoint::new(tp(1), tp(2)).unwrap().kind(),
            PointKind::General
        );
        // A fixed point at a limit is still fixed.
        assert_eq!(
            OngoingPoint::fixed(TimePoint::POS_INF).kind(),
            PointKind::Fixed
        );
    }

    #[test]
    fn display_uses_short_notation() {
        assert_eq!(OngoingPoint::fixed(tp(17)).to_string(), "17");
        assert_eq!(OngoingPoint::now().to_string(), "now");
        assert_eq!(OngoingPoint::growing(tp(17)).to_string(), "17+");
        assert_eq!(OngoingPoint::limited(tp(17)).to_string(), "+17");
        assert_eq!(
            OngoingPoint::new(tp(17), tp(19)).unwrap().to_string(),
            "17+19"
        );
    }
}
