//! The Snodgrass `Forever` baseline (Sec. III).
//!
//! TQuel\[22\] avoids ongoing time points by storing `Forever` — the largest
//! time point of the domain — instead of `now`. Fixed query evaluation
//! applies unchanged, but the semantics are wrong: a bug "open until now"
//! is *not* open until the end of time, and queries over such data return
//! incorrect results (the paper's example: at reference time 05/14, "which
//! bugs might be resolved before patch 201 goes live?" must include bug
//! 500, yet with `Forever` end points it does not).

use crate::error::Result;
use ongoing_core::{OngoingInterval, OngoingPoint, PointKind, TimePoint};
use ongoing_relation::{OngoingRelation, Tuple, Value};

/// The `Forever` time point: the largest (finite) time point.
pub const FOREVER: TimePoint = TimePoint::MAX_FINITE;

/// Rewrites an ongoing point the way a `Forever`-based system stores it:
/// `now` becomes the fixed point `Forever`; growing points `a+` (the other
/// "open-ended" shape) also collapse to their ceiling.
pub fn rewrite_point(p: OngoingPoint) -> OngoingPoint {
    match p.kind() {
        PointKind::Now => OngoingPoint::fixed(FOREVER),
        PointKind::Growing => OngoingPoint::fixed(FOREVER),
        _ => p,
    }
}

/// Rewrites every ongoing value in a relation to its `Forever`
/// representation. The result contains only fixed values; any fixed-algebra
/// evaluator can process it — incorrectly. Reads one transient chunk pin
/// at a time, so a cold input stays cold and a pager failure is an error.
pub fn rewrite_relation(rel: &OngoingRelation) -> Result<OngoingRelation> {
    let mut out = OngoingRelation::new(rel.schema().clone());
    for view in rel.lazy_views() {
        for t in view.pin()?.iter() {
            let values: Vec<Value> = t
                .values()
                .iter()
                .map(|v| match v {
                    Value::Point(p) => Value::Point(rewrite_point(*p)),
                    Value::Interval(i) => Value::Interval(OngoingInterval::new(
                        rewrite_point(i.ts()),
                        rewrite_point(i.te()),
                    )),
                    other => other.clone(),
                })
                .collect();
            out.push(Tuple::with_rt(values, t.rt().clone()));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ongoing_core::allen;
    use ongoing_core::date::md;
    use ongoing_relation::Schema;

    #[test]
    fn rewrite_replaces_now_with_forever() {
        let p = rewrite_point(OngoingPoint::now());
        assert_eq!(p, OngoingPoint::fixed(FOREVER));
        let q = rewrite_point(OngoingPoint::fixed(md(3, 1)));
        assert_eq!(q, OngoingPoint::fixed(md(3, 1)));
    }

    #[test]
    fn forever_gives_incorrect_before_results() {
        // Sec. III: at rt 05/14, bug 500 (open [01/25, now)) might be
        // resolved before patch 201 goes live [08/15, 08/24).
        let bug = OngoingInterval::from_until_now(md(1, 25));
        let patch = OngoingInterval::fixed(md(8, 15), md(8, 24));

        // Ground truth (ongoing evaluation): true at rt = 05/14.
        let correct = allen::before(bug, patch);
        assert!(correct.bind(md(5, 14)));

        // Forever rewrite: [01/25, Forever) is never before the patch.
        let forever_bug = OngoingInterval::new(rewrite_point(bug.ts()), rewrite_point(bug.te()));
        let wrong = allen::before(forever_bug, patch);
        assert!(!wrong.bind(md(5, 14)), "Forever drops bug 500 — incorrect");
    }

    #[test]
    fn rewrite_relation_touches_only_ongoing_values() {
        let schema = Schema::builder().int("BID").interval("VT").build();
        let mut r = OngoingRelation::new(schema);
        r.insert(vec![
            Value::Int(500),
            Value::Interval(OngoingInterval::from_until_now(md(1, 25))),
        ])
        .unwrap();
        r.insert(vec![
            Value::Int(501),
            Value::Interval(OngoingInterval::fixed(md(3, 30), md(8, 21))),
        ])
        .unwrap();
        let f = rewrite_relation(&r).unwrap();
        let iv0 = f.iter().next().unwrap().value(1).as_interval().unwrap();
        assert_eq!(iv0.te(), OngoingPoint::fixed(FOREVER));
        let iv1 = f.iter().nth(1).unwrap().value(1).as_interval().unwrap();
        assert_eq!(iv1.te(), OngoingPoint::fixed(md(8, 21)));
        assert_eq!(f.iter().next().unwrap().value(0), &Value::Int(500));
    }
}
