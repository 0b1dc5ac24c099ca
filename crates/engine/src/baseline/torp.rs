//! The Torp et al. baseline: the time domain `Tf` (Sec. III, Table I).
//!
//! Torp et al.\[4\] handle now-relative *modifications* with the domain
//!
//! ```text
//! Tf = T ∪ { min(a, now) | a ∈ T } ∪ { max(a, now) | a ∈ T }
//! ```
//!
//! `Tf` supports intersection and difference without instantiating `now`,
//! which suffices for modification semantics — but it is **not closed**
//! under `min`/`max` (Table I): `min(max(a, now), b)` with `a < b` is the
//! general ongoing point `a+b`, which `Tf` cannot represent. Queries with
//! predicates on uninstantiated attributes therefore fall back to
//! Clifford's instantiation, and their results get invalidated as time
//! passes by.
//!
//! This module embeds `Tf` into `Ω` (every `Tf` point *is* an ongoing
//! point), implements `min`/`max`/intersection the way Torp et al. can —
//! returning `None` where the result leaves `Tf` — and exposes the
//! Clifford fallback for predicate queries.

use crate::catalog::Database;
use crate::error::Result;
use crate::plan::LogicalPlan;
use ongoing_core::{ops, OngoingInterval, OngoingPoint, PointKind, TimePoint};
use ongoing_relation::FixedRelation;
use std::fmt;

/// A time point of Torp's domain `Tf`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TfPoint {
    /// A fixed time point `a ∈ T`.
    Fixed(TimePoint),
    /// `min(a, now)`: the reference time, capped at `a`.
    MinNow(TimePoint),
    /// `max(a, now)`: the reference time, but not earlier than `a`.
    MaxNow(TimePoint),
}

impl TfPoint {
    /// The ongoing time point `now = min(∞, now) = max(-∞, now)`.
    pub const NOW: TfPoint = TfPoint::MaxNow(TimePoint::NEG_INF);

    /// Embeds the `Tf` point into the ongoing domain `Ω`.
    pub fn to_omega(self) -> OngoingPoint {
        match self {
            TfPoint::Fixed(a) => OngoingPoint::fixed(a),
            // min(a, now) instantiates to min(a, rt): possibly earlier than
            // a but never later — the limited point +a.
            TfPoint::MinNow(a) => OngoingPoint::limited(a),
            // max(a, now): never earlier than a — the growing point a+.
            TfPoint::MaxNow(a) => OngoingPoint::growing(a),
        }
    }

    /// Tries to represent an ongoing point in `Tf`. General points `a+b`
    /// with `-∞ < a < b < ∞` are not representable — the non-closure of
    /// Table I.
    pub fn from_omega(p: OngoingPoint) -> Option<TfPoint> {
        match p.kind() {
            PointKind::Fixed => Some(TfPoint::Fixed(p.a())),
            PointKind::Now => Some(TfPoint::NOW),
            PointKind::Growing => Some(TfPoint::MaxNow(p.a())),
            PointKind::Limited => Some(TfPoint::MinNow(p.b())),
            PointKind::General => None,
        }
    }

    /// The bind operator (via the `Ω` embedding).
    pub fn bind(self, rt: TimePoint) -> TimePoint {
        self.to_omega().bind(rt)
    }

    /// `min` within `Tf`: `None` when the true (ongoing) result leaves the
    /// domain.
    pub fn min(self, other: TfPoint) -> Option<TfPoint> {
        TfPoint::from_omega(ops::min(self.to_omega(), other.to_omega()))
    }

    /// `max` within `Tf`: `None` when the result leaves the domain.
    pub fn max(self, other: TfPoint) -> Option<TfPoint> {
        TfPoint::from_omega(ops::max(self.to_omega(), other.to_omega()))
    }
}

impl fmt::Display for TfPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TfPoint::Fixed(a) => write!(f, "{a}"),
            TfPoint::MinNow(a) => write!(f, "min({a}, now)"),
            TfPoint::MaxNow(a) if a.is_neg_inf() => write!(f, "now"),
            TfPoint::MaxNow(a) => write!(f, "max({a}, now)"),
        }
    }
}

/// A `Tf` time interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TfInterval {
    /// Inclusive start.
    pub ts: TfPoint,
    /// Exclusive end.
    pub te: TfPoint,
}

impl TfInterval {
    /// Creates a `Tf` interval.
    pub fn new(ts: TfPoint, te: TfPoint) -> Self {
        TfInterval { ts, te }
    }

    /// Embeds into an ongoing interval.
    pub fn to_omega(self) -> OngoingInterval {
        OngoingInterval::new(self.ts.to_omega(), self.te.to_omega())
    }

    /// Intersection within `Tf` — the operation Torp et al. use to express
    /// now-relative modifications. `None` when the exact result needs a
    /// general ongoing endpoint (the caller would have to instantiate,
    /// invalidating the result as time passes by).
    pub fn intersect(self, other: TfInterval) -> Option<TfInterval> {
        let ts = self.ts.max(other.ts)?;
        let te = self.te.min(other.te)?;
        Some(TfInterval { ts, te })
    }
}

impl fmt::Display for TfInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.ts, self.te)
    }
}

/// Queries with predicates on ongoing attributes cannot be answered within
/// `Tf`; Torp et al. resort to Clifford's approach (Sec. III). The runtime
/// and invalidation behaviour are therefore identical to
/// [`execute_at`](crate::execute_at).
pub fn run_query_at(db: &Database, plan: &LogicalPlan, rt: TimePoint) -> Result<FixedRelation> {
    crate::execute_at(db, plan, rt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ongoing_core::date::md;
    use ongoing_core::time::tp;

    #[test]
    fn embedding_round_trips() {
        for p in [
            TfPoint::Fixed(tp(5)),
            TfPoint::MinNow(tp(5)),
            TfPoint::MaxNow(tp(5)),
            TfPoint::NOW,
        ] {
            assert_eq!(TfPoint::from_omega(p.to_omega()), Some(p));
        }
    }

    #[test]
    fn bind_matches_min_max_semantics() {
        // min(5, now) at rt 3 is 3; at rt 9 is 5.
        assert_eq!(TfPoint::MinNow(tp(5)).bind(tp(3)), tp(3));
        assert_eq!(TfPoint::MinNow(tp(5)).bind(tp(9)), tp(5));
        // max(5, now) at rt 3 is 5; at rt 9 is 9.
        assert_eq!(TfPoint::MaxNow(tp(5)).bind(tp(3)), tp(5));
        assert_eq!(TfPoint::MaxNow(tp(5)).bind(tp(9)), tp(9));
        assert_eq!(TfPoint::NOW.bind(tp(7)), tp(7));
    }

    #[test]
    fn tf_is_not_closed_under_min_max() {
        // Table I: min(max(3, now), 7) = 3+7 ∉ Tf.
        let grown = TfPoint::MaxNow(tp(3));
        let fixed = TfPoint::Fixed(tp(7));
        assert_eq!(grown.min(fixed), None);
        // ... while Ω represents it exactly.
        let omega = ops::min(grown.to_omega(), fixed.to_omega());
        assert_eq!(omega, OngoingPoint::new(tp(3), tp(7)).unwrap());
    }

    #[test]
    fn simple_intersections_stay_in_tf() {
        // Anselma-style case that works: [10/14, now) ∩ [10/17, now) =
        // [10/17, now).
        let a = TfInterval::new(TfPoint::Fixed(md(10, 14)), TfPoint::NOW);
        let b = TfInterval::new(TfPoint::Fixed(md(10, 17)), TfPoint::NOW);
        let x = a.intersect(b).unwrap();
        assert_eq!(x.ts, TfPoint::Fixed(md(10, 17)));
        assert_eq!(x.te, TfPoint::NOW);
    }

    #[test]
    fn min_now_intersection_stays_in_tf() {
        // [10/17, 10/22) ∩ [10/17, now): end point min(10/22, now) ∈ Tf.
        let a = TfInterval::new(TfPoint::Fixed(md(10, 17)), TfPoint::Fixed(md(10, 22)));
        let b = TfInterval::new(TfPoint::Fixed(md(10, 17)), TfPoint::NOW);
        let x = a.intersect(b).unwrap();
        assert_eq!(x.te, TfPoint::MinNow(md(10, 22)));
    }

    #[test]
    fn nested_intersection_leaves_tf() {
        // Intersecting a growing start with a fixed end interval produces a
        // general end point: [max(3,now), 10) ∩ [0, 7) keeps end min(10,7)
        // = 7 fine, but [0, max(3, now)) ∩ [0, 7) needs min(max(3,now), 7)
        // = 3+7 ∉ Tf.
        let a = TfInterval::new(TfPoint::Fixed(tp(0)), TfPoint::MaxNow(tp(3)));
        let b = TfInterval::new(TfPoint::Fixed(tp(0)), TfPoint::Fixed(tp(7)));
        assert_eq!(a.intersect(b), None);
    }

    #[test]
    fn display_is_paperish() {
        assert_eq!(TfPoint::MinNow(tp(5)).to_string(), "min(5, now)");
        assert_eq!(TfPoint::NOW.to_string(), "now");
    }
}
