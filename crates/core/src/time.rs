//! The fixed time domain `T` (Sec. IV of the paper).
//!
//! `T` is a linearly ordered, discrete time domain with `-∞` as the lower
//! limit and `∞` as the upper limit. A [`TimePoint`] is an element of `T`,
//! represented as a signed 64-bit tick count. The tick granularity is chosen
//! by the application: the paper's PostgreSQL prototype supports dates
//! (granularity of days) and timestamps (granularity of microseconds); the
//! [`crate::date`] module provides conversions for both.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A fixed time point of the discrete time domain `T`.
///
/// The two domain limits `-∞` and `∞` are first-class values (PostgreSQL
/// likewise provides `-infinity`/`infinity` for dates and timestamps, which
/// the paper's implementation relies on to represent `now = -∞+∞`).
///
/// Ordering is the numeric tick ordering with `-∞` below and `∞` above every
/// finite point.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TimePoint(i64);

impl TimePoint {
    /// The lower limit `-∞` of the time domain.
    pub const NEG_INF: TimePoint = TimePoint(i64::MIN);
    /// The upper limit `∞` of the time domain.
    pub const POS_INF: TimePoint = TimePoint(i64::MAX);
    /// The smallest finite time point.
    pub const MIN_FINITE: TimePoint = TimePoint(i64::MIN + 1);
    /// The largest finite time point.
    pub const MAX_FINITE: TimePoint = TimePoint(i64::MAX - 1);

    /// Creates a time point from a raw tick count.
    ///
    /// `i64::MIN` and `i64::MAX` map onto `-∞` and `∞` respectively.
    #[inline]
    pub const fn new(ticks: i64) -> Self {
        TimePoint(ticks)
    }

    /// The raw tick count.
    #[inline]
    pub const fn ticks(self) -> i64 {
        self.0
    }

    /// Is this the lower limit `-∞`?
    #[inline]
    pub const fn is_neg_inf(self) -> bool {
        self.0 == i64::MIN
    }

    /// Is this the upper limit `∞`?
    #[inline]
    pub const fn is_pos_inf(self) -> bool {
        self.0 == i64::MAX
    }

    /// Is this a finite (non-limit) time point?
    #[inline]
    pub const fn is_finite(self) -> bool {
        !self.is_neg_inf() && !self.is_pos_inf()
    }

    /// The discrete successor of this time point.
    ///
    /// The domain limits saturate: `succ(∞) = ∞` and, by convention,
    /// `succ(-∞) = -∞ + 1` (the smallest finite point). The successor is what
    /// the `<` equivalence of Theorem 1 uses in its `b + 1` cases.
    #[inline]
    pub const fn succ(self) -> Self {
        if self.is_pos_inf() {
            self
        } else {
            TimePoint(self.0 + 1)
        }
    }

    /// The discrete predecessor, mirroring [`succ`](Self::succ):
    /// `pred(-∞) = -∞` and, by convention, `pred(∞) = ∞ - 1` (the largest
    /// finite point).
    #[inline]
    pub const fn pred(self) -> Self {
        if self.is_neg_inf() {
            self
        } else {
            TimePoint(self.0 - 1)
        }
    }

    /// `minF`: the standard minimum over fixed time points (Sec. IV).
    #[inline]
    pub fn min_f(self, other: Self) -> Self {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// `maxF`: the standard maximum over fixed time points (Sec. IV).
    #[inline]
    pub fn max_f(self, other: Self) -> Self {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Clamps this point into `[lo, hi]`; requires `lo <= hi`.
    #[inline]
    pub fn clamp_to(self, lo: Self, hi: Self) -> Self {
        debug_assert!(lo <= hi);
        self.max_f(lo).min_f(hi)
    }

    /// Saturating distance `other - self` in ticks. Distances touching a
    /// domain limit saturate to `i64::MAX`.
    pub fn distance_to(self, other: Self) -> i64 {
        if !self.is_finite() || !other.is_finite() {
            return i64::MAX;
        }
        other.0.saturating_sub(self.0)
    }
}

impl From<i64> for TimePoint {
    #[inline]
    fn from(ticks: i64) -> Self {
        TimePoint::new(ticks)
    }
}

impl fmt::Debug for TimePoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for TimePoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_neg_inf() {
            write!(f, "-inf")
        } else if self.is_pos_inf() {
            write!(f, "+inf")
        } else {
            write!(f, "{}", self.0)
        }
    }
}

/// Convenience constructor used pervasively in tests and examples.
#[inline]
pub fn tp(ticks: i64) -> TimePoint {
    TimePoint::new(ticks)
}

/// The limit grid the arithmetic tests run exhaustively: the domain
/// limits, the finite points next to them, and `-1, 0, 1`.
#[cfg(test)]
pub(crate) const LIMIT_GRID: [TimePoint; 7] = [
    TimePoint::NEG_INF,
    TimePoint::MIN_FINITE,
    TimePoint::new(-1),
    TimePoint::new(0),
    TimePoint::new(1),
    TimePoint::MAX_FINITE,
    TimePoint::POS_INF,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limits_order_around_finite_points() {
        assert!(TimePoint::NEG_INF < tp(0));
        assert!(tp(0) < TimePoint::POS_INF);
        assert!(TimePoint::NEG_INF < TimePoint::POS_INF);
        assert!(TimePoint::MIN_FINITE > TimePoint::NEG_INF);
        assert!(TimePoint::MAX_FINITE < TimePoint::POS_INF);
    }

    #[test]
    fn succ_and_pred_saturate_at_limits() {
        assert_eq!(TimePoint::POS_INF.succ(), TimePoint::POS_INF);
        assert_eq!(TimePoint::NEG_INF.pred(), TimePoint::NEG_INF);
        assert_eq!(TimePoint::NEG_INF.succ(), TimePoint::MIN_FINITE);
        assert_eq!(TimePoint::POS_INF.pred(), TimePoint::MAX_FINITE);
        assert_eq!(tp(5).succ(), tp(6));
        assert_eq!(tp(5).pred(), tp(4));
    }

    /// Exhaustive over the limit grid: every operation saturates instead
    /// of wrapping, and no limit turns into a finite tick except by the
    /// documented `succ(-∞)` / `pred(∞)` convention.
    #[test]
    fn arithmetic_saturates_on_the_limit_grid() {
        for x in LIMIT_GRID {
            let succ = match x {
                TimePoint::POS_INF => x,
                TimePoint::NEG_INF => TimePoint::MIN_FINITE,
                _ => TimePoint::new(x.ticks() + 1),
            };
            let pred = match x {
                TimePoint::NEG_INF => x,
                TimePoint::POS_INF => TimePoint::MAX_FINITE,
                _ => TimePoint::new(x.ticks() - 1),
            };
            assert_eq!(x.succ(), succ, "succ({x})");
            assert_eq!(x.pred(), pred, "pred({x})");
            for y in LIMIT_GRID {
                let (lo, hi) = if x <= y { (x, y) } else { (y, x) };
                assert_eq!(x.min_f(y), lo, "minF({x}, {y})");
                assert_eq!(x.max_f(y), hi, "maxF({x}, {y})");
                let distance = if x.is_finite() && y.is_finite() {
                    let exact = i128::from(y.ticks()) - i128::from(x.ticks());
                    exact.clamp(i64::MIN.into(), i64::MAX.into()) as i64
                } else {
                    i64::MAX
                };
                assert_eq!(x.distance_to(y), distance, "distance({x}, {y})");
                // Clamping picks one of its inputs: never a new tick.
                for z in LIMIT_GRID {
                    let c = z.clamp_to(lo, hi);
                    assert!(lo <= c && c <= hi, "clamp({z}, {lo}, {hi}) = {c}");
                    let want = if z < lo {
                        lo
                    } else if z > hi {
                        hi
                    } else {
                        z
                    };
                    assert_eq!(c, want, "clamp({z}, {lo}, {hi})");
                }
            }
        }
    }

    #[test]
    fn min_max_f_follow_standard_semantics() {
        assert_eq!(tp(3).min_f(tp(7)), tp(3));
        assert_eq!(tp(3).max_f(tp(7)), tp(7));
        assert_eq!(TimePoint::NEG_INF.min_f(tp(0)), TimePoint::NEG_INF);
        assert_eq!(TimePoint::POS_INF.max_f(tp(0)), TimePoint::POS_INF);
    }

    #[test]
    fn clamp_to_is_min_of_max() {
        assert_eq!(tp(5).clamp_to(tp(0), tp(3)), tp(3));
        assert_eq!(tp(-5).clamp_to(tp(0), tp(3)), tp(0));
        assert_eq!(tp(2).clamp_to(tp(0), tp(3)), tp(2));
    }

    #[test]
    fn finite_checks() {
        assert!(tp(0).is_finite());
        assert!(!TimePoint::NEG_INF.is_finite());
        assert!(!TimePoint::POS_INF.is_finite());
    }

    #[test]
    fn distance_saturates_at_limits() {
        assert_eq!(tp(3).distance_to(tp(10)), 7);
        assert_eq!(tp(10).distance_to(tp(3)), -7);
        assert_eq!(TimePoint::NEG_INF.distance_to(tp(0)), i64::MAX);
        assert_eq!(tp(0).distance_to(TimePoint::POS_INF), i64::MAX);
    }

    #[test]
    fn display_formats_limits() {
        assert_eq!(TimePoint::NEG_INF.to_string(), "-inf");
        assert_eq!(TimePoint::POS_INF.to_string(), "+inf");
        assert_eq!(tp(42).to_string(), "42");
    }
}
