//! The six core operations on ongoing data types (Definition 4, Theorem 1).
//!
//! `<`, `min`, `max` on ongoing time points and `∧`, `∨`, `¬` on ongoing
//! booleans. Every operation satisfies the paper's correctness criterion:
//! at each reference time its result equals the corresponding fixed
//! operation applied to the instantiated arguments,
//! `∀rt: ∥f(x, y)∥rt = fF(∥x∥rt, ∥y∥rt)`.
//!
//! The logical connectives live on [`OngoingBool`]; this module provides the
//! point operations plus the comparison predicates derived from them
//! (Table II): `≤`, `=`, `≠`, and the flipped `>`, `≥`.
//!
//! The `<` implementation follows the decision tree of Fig. 6, reaching the
//! correct case of Theorem 1's equivalence with **at most three fixed-value
//! comparisons**. A naive implementation that scans the five orderings in
//! sequence is kept as [`lt_naive`], the reference the tests compare against.

use crate::boolean::OngoingBool;
use crate::point::OngoingPoint;
use crate::set::IntervalSet;
use crate::time::TimePoint;

/// The less-than predicate `a+b < c+d` (Theorem 1), via the Fig. 6 decision
/// tree.
///
/// Case map (with `a ≤ b` and `c ≤ d` guaranteed by `Ω`):
///
/// | ordering              | result `St`               |
/// |-----------------------|---------------------------|
/// | `a ≤ b < c ≤ d`       | `{(-∞, ∞)}` (always true) |
/// | `a < c ≤ d ≤ b`       | `{(-∞, c)}`               |
/// | `c ≤ a ≤ b < d`       | `{[b+1, ∞)}`              |
/// | `a < c ≤ b < d`       | `{(-∞, c), [b+1, ∞)}`     |
/// | otherwise             | `∅` (always false)        |
pub fn lt(p: OngoingPoint, q: OngoingPoint) -> OngoingBool {
    let (a, b) = (p.a(), p.b());
    let (c, d) = (q.a(), q.b());
    if b < d {
        if b < c {
            // a <= b < c <= d: true at every reference time.
            OngoingBool::always_true()
        } else if a < c {
            // a < c <= b < d: true outside [c, b+1). The gap is non-empty
            // (c <= b < b+1, and b < d rules out b = ∞).
            OngoingBool::from_set(IntervalSet::two(
                (TimePoint::NEG_INF, c),
                (b.succ(), TimePoint::POS_INF),
            ))
        } else {
            // c <= a <= b < d: true from b+1 on.
            OngoingBool::from_set(IntervalSet::range(b.succ(), TimePoint::POS_INF))
        }
    } else if a < c {
        // a < c <= d <= b: true before c.
        OngoingBool::from_set(IntervalSet::range(TimePoint::NEG_INF, c))
    } else {
        // No reference time can make the instantiations strictly ordered.
        OngoingBool::always_false()
    }
}

/// Number of fixed-value comparisons the decision tree performs for this
/// argument pair — at most three (Fig. 6); used by tests and the ablation
/// bench.
pub fn lt_comparisons(p: OngoingPoint, q: OngoingPoint) -> u32 {
    let (a, b) = (p.a(), p.b());
    let (c, d) = (q.a(), q.b());
    if b < d {
        if b < c {
            2
        } else {
            let _ = a < c;
            3
        }
    } else {
        let _ = a < c;
        2
    }
}

/// Reference implementation of `<` that tests the five orderings of
/// Theorem 1 in sequence (up to eight fixed-value comparisons). The
/// reference of the differential tests.
pub fn lt_naive(p: OngoingPoint, q: OngoingPoint) -> OngoingBool {
    let (a, b) = (p.a(), p.b());
    let (c, d) = (q.a(), q.b());
    // Case 1: a <= b < c <= d.
    if b < c {
        return OngoingBool::always_true();
    }
    // Case 2: a < c <= d <= b.
    if a < c && d <= b {
        return OngoingBool::from_set(IntervalSet::range(TimePoint::NEG_INF, c));
    }
    // Case 3: c <= a <= b < d.
    if c <= a && b < d {
        return OngoingBool::from_set(IntervalSet::range(b.succ(), TimePoint::POS_INF));
    }
    // Case 4: a < c <= b < d.
    if a < c && c <= b && b < d {
        return OngoingBool::from_set(IntervalSet::from_ranges([
            (TimePoint::NEG_INF, c),
            (b.succ(), TimePoint::POS_INF),
        ]));
    }
    // Case 5: otherwise.
    OngoingBool::always_false()
}

/// The minimum function `min(a+b, c+d) ≡ minF(a,c)+minF(b,d)` (Theorem 1).
/// `Ω` is closed under `min` — the result is again a valid ongoing point.
#[inline]
pub fn min(p: OngoingPoint, q: OngoingPoint) -> OngoingPoint {
    // minF(a,c) <= minF(b,d) holds whenever a <= b and c <= d, so the
    // constructor invariant cannot fail (proof of Theorem 1).
    OngoingPoint::new(p.a().min_f(q.a()), p.b().min_f(q.b())).expect("Ω is closed under min")
}

/// The maximum function `max(a+b, c+d) ≡ maxF(a,c)+maxF(b,d)` (Theorem 1).
#[inline]
pub fn max(p: OngoingPoint, q: OngoingPoint) -> OngoingPoint {
    OngoingPoint::new(p.a().max_f(q.a()), p.b().max_f(q.b())).expect("Ω is closed under max")
}

/// The true-set of `a+b ≤ c+d` as one range `[lo, hi)` (empty when
/// `lo >= hi`): the complement of each case of `c+d < a+b` in the Fig. 6
/// tree, which is always a single range.
#[inline]
fn le_range(p: OngoingPoint, q: OngoingPoint) -> (TimePoint, TimePoint) {
    let (a, b) = (p.a(), p.b());
    let (c, d) = (q.a(), q.b());
    if d < b {
        if d < a {
            // c <= d < a <= b: q < p everywhere, so p <= q never holds.
            (TimePoint::POS_INF, TimePoint::POS_INF)
        } else if c < a {
            // c < a <= d < b: q < p outside [a, d+1).
            (a, d.succ())
        } else {
            // a <= c <= d < b: q < p from d+1 on.
            (TimePoint::NEG_INF, d.succ())
        }
    } else if c < a {
        // c < a <= b <= d: q < p before a.
        (a, TimePoint::POS_INF)
    } else {
        (TimePoint::NEG_INF, TimePoint::POS_INF)
    }
}

/// `t1 ≤ t2 ≡ ¬(t2 < t1)` (Table II), built as the single range that
/// complements the Fig. 6 case of `t2 < t1`.
#[inline]
pub fn le(p: OngoingPoint, q: OngoingPoint) -> OngoingBool {
    let (lo, hi) = le_range(p, q);
    OngoingBool::from_set(IntervalSet::range(lo, hi))
}

/// The true-set of `t1 = t2 ≡ t1 ≤ t2 ∧ t2 ≤ t1` as one range `[lo, hi)`:
/// the intersection of two single ranges.
#[inline]
fn eq_range(p: OngoingPoint, q: OngoingPoint) -> (TimePoint, TimePoint) {
    let (lo1, hi1) = le_range(p, q);
    let (lo2, hi2) = le_range(q, p);
    (lo1.max_f(lo2), hi1.min_f(hi2))
}

/// `t1 = t2 ≡ t1 ≤ t2 ∧ t2 ≤ t1` (Table II).
#[inline]
pub fn eq(p: OngoingPoint, q: OngoingPoint) -> OngoingBool {
    let (lo, hi) = eq_range(p, q);
    OngoingBool::from_set(IntervalSet::range(lo, hi))
}

/// `t1 ≠ t2 ≡ (t1 < t2) ∨ (t2 < t1) ≡ ¬(t1 = t2)` (Table II): the
/// complement of the single equality range, at most two ranges.
#[inline]
pub fn ne(p: OngoingPoint, q: OngoingPoint) -> OngoingBool {
    let (lo, hi) = eq_range(p, q);
    if lo >= hi {
        return OngoingBool::always_true();
    }
    OngoingBool::from_set(IntervalSet::two(
        (TimePoint::NEG_INF, lo),
        (hi, TimePoint::POS_INF),
    ))
}

/// `t1 > t2 ≡ t2 < t1`.
#[inline]
pub fn gt(p: OngoingPoint, q: OngoingPoint) -> OngoingBool {
    lt(q, p)
}

/// `t1 ≥ t2 ≡ t2 ≤ t1`.
#[inline]
pub fn ge(p: OngoingPoint, q: OngoingPoint) -> OngoingBool {
    le(q, p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::date::md;
    use crate::time::tp;

    /// Exhaustive differential check of an ongoing comparison against its
    /// fixed counterpart over a window of reference times.
    fn check_pointwise(
        f: impl Fn(OngoingPoint, OngoingPoint) -> OngoingBool,
        g: impl Fn(TimePoint, TimePoint) -> bool,
    ) {
        let lo = -4i64;
        let hi = 5i64;
        let mut points = Vec::new();
        for a in lo..=hi {
            for b in a..=hi {
                points.push(OngoingPoint::new(tp(a), tp(b)).unwrap());
            }
        }
        // Include the unbounded shapes.
        points.push(OngoingPoint::now());
        points.push(OngoingPoint::growing(tp(0)));
        points.push(OngoingPoint::limited(tp(0)));
        for &p in &points {
            for &q in &points {
                let ob = f(p, q);
                for rt in (lo - 2)..=(hi + 2) {
                    let rt = tp(rt);
                    assert_eq!(
                        ob.bind(rt),
                        g(p.bind(rt), q.bind(rt)),
                        "p={p} q={q} rt={rt} result={ob}"
                    );
                }
            }
        }
    }

    /// Exhaustive over the limit grid `{-∞, MIN_FINITE, -1, 0, 1,
    /// MAX_FINITE, ∞}`: every valid point `a+b` binds into `[a, b]` at every
    /// `rt`, and `lt` equals `lt_naive` and Theorem 1 pointwise. `∞` is not
    /// a reference time: true sets are unions of half-open ranges
    /// `[ts, te)`, so none contains `∞`.
    #[test]
    fn bind_and_lt_are_exact_on_the_limit_grid() {
        let grid = crate::time::LIMIT_GRID;
        let points = crate::point::limit_grid_points();
        // Exactly the pairs `a ≤ b` are valid points.
        assert_eq!(points.len(), 28);
        for &p in &points {
            for rt in grid {
                let v = p.bind(rt);
                assert!(p.a() <= v && v <= p.b(), "∥{p}∥{rt} = {v}");
                // Binding picks `a`, `b` or `rt`: never a new tick.
                assert!(v == p.a() || v == p.b() || v == rt, "∥{p}∥{rt} = {v}");
            }
            for &q in &points {
                let ob = lt(p, q);
                assert_eq!(ob, lt_naive(p, q), "{p} < {q}");
                for rt in grid {
                    let fixed = p.bind(rt) < q.bind(rt) && !rt.is_pos_inf();
                    assert_eq!(ob.bind(rt), fixed, "{p} < {q} at {rt}: {ob}");
                }
            }
        }
    }

    #[test]
    fn lt_is_pointwise_correct() {
        check_pointwise(lt, |x, y| x < y);
    }

    #[test]
    fn lt_naive_is_pointwise_correct() {
        check_pointwise(lt_naive, |x, y| x < y);
    }

    #[test]
    fn le_eq_ne_gt_ge_are_pointwise_correct() {
        check_pointwise(le, |x, y| x <= y);
        check_pointwise(eq, |x, y| x == y);
        check_pointwise(ne, |x, y| x != y);
        check_pointwise(gt, |x, y| x > y);
        check_pointwise(ge, |x, y| x >= y);
    }

    #[test]
    fn direct_forms_equal_table_ii_definitions() {
        // Set equality with the Table II compositions (not only pointwise
        // on a window), including the domain limits as endpoints.
        let ends = [
            TimePoint::NEG_INF,
            TimePoint::MIN_FINITE,
            tp(-2),
            tp(0),
            tp(1),
            tp(3),
            TimePoint::MAX_FINITE,
            TimePoint::POS_INF,
        ];
        let points: Vec<OngoingPoint> = ends
            .iter()
            .flat_map(|&a| {
                ends.iter()
                    .filter_map(move |&b| OngoingPoint::new(a, b).ok())
            })
            .collect();
        for &p in &points {
            for &q in &points {
                let (le_pq, eq_pq, ne_pq) = (le(p, q), eq(p, q), ne(p, q));
                assert_eq!(le_pq, lt(q, p).not(), "{p} <= {q}");
                assert_eq!(eq_pq, le(p, q).and(&le(q, p)), "{p} = {q}");
                assert_eq!(ne_pq, lt(p, q).or(&lt(q, p)), "{p} != {q}");
                assert_eq!(lt(p, q), lt_naive(p, q), "{p} < {q}");
                for b in [lt(p, q), le_pq, eq_pq, ne_pq] {
                    assert!(b.true_set().is_canonical(), "{b}");
                }
            }
        }
    }

    #[test]
    fn lt_tree_agrees_with_naive() {
        for a in -3i64..4 {
            for b in a..4 {
                for c in -3i64..4 {
                    for d in c..4 {
                        let p = OngoingPoint::new(tp(a), tp(b)).unwrap();
                        let q = OngoingPoint::new(tp(c), tp(d)).unwrap();
                        assert_eq!(lt(p, q), lt_naive(p, q), "{p} < {q}");
                    }
                }
            }
        }
    }

    #[test]
    fn lt_at_most_three_comparisons() {
        for a in -3i64..4 {
            for b in a..4 {
                for c in -3i64..4 {
                    for d in c..4 {
                        let p = OngoingPoint::new(tp(a), tp(b)).unwrap();
                        let q = OngoingPoint::new(tp(c), tp(d)).unwrap();
                        assert!(lt_comparisons(p, q) <= 3);
                    }
                }
            }
        }
    }

    #[test]
    fn min_closure_example_1() {
        // Example 1: min(10/17, now) = +10/17.
        let r = min(OngoingPoint::fixed(md(10, 17)), OngoingPoint::now());
        assert_eq!(r, OngoingPoint::limited(md(10, 17)));
        // Fig. 5: at rt 10/15 it instantiates to 10/15, at rt 10/19 to 10/17.
        assert_eq!(r.bind(md(10, 15)), md(10, 15));
        assert_eq!(r.bind(md(10, 19)), md(10, 17));
    }

    #[test]
    fn min_max_are_pointwise_correct() {
        let vals: Vec<OngoingPoint> = {
            let mut v = Vec::new();
            for a in -3i64..4 {
                for b in a..4 {
                    v.push(OngoingPoint::new(tp(a), tp(b)).unwrap());
                }
            }
            v.push(OngoingPoint::now());
            v.push(OngoingPoint::growing(tp(1)));
            v.push(OngoingPoint::limited(tp(-1)));
            v
        };
        for &p in &vals {
            for &q in &vals {
                let mn = min(p, q);
                let mx = max(p, q);
                for rt in -6i64..7 {
                    let rt = tp(rt);
                    assert_eq!(mn.bind(rt), p.bind(rt).min_f(q.bind(rt)), "min {p} {q}");
                    assert_eq!(mx.bind(rt), p.bind(rt).max_f(q.bind(rt)), "max {p} {q}");
                }
            }
        }
    }

    #[test]
    fn closure_of_omega_under_min_max() {
        // Table I: Ω is closed; applying min/max to any two ongoing points
        // yields an ongoing point (the constructor invariant holds). Torp's
        // Tf = {min(a, now)} ∪ {max(a, now)} ∪ T is not: min(max(a, now),
        // b) with a < b is a+b, which is not in Tf.
        let a = OngoingPoint::growing(tp(3)); // max(3, now) ∈ Tf
        let b = OngoingPoint::fixed(tp(7));
        let r = min(a, b);
        assert_eq!(r, OngoingPoint::new(tp(3), tp(7)).unwrap());
        // r is a general ongoing point — representable in Ω but not in Tf.
        assert_eq!(r.kind(), crate::point::PointKind::General);
    }

    #[test]
    fn table_ii_le_example() {
        // now <= 10/17 = b[{(-∞, 10/18)}, {[10/18, ∞)}]
        let b = le(OngoingPoint::now(), OngoingPoint::fixed(md(10, 17)));
        assert_eq!(
            b.true_set(),
            &IntervalSet::range(TimePoint::NEG_INF, md(10, 18))
        );
    }

    #[test]
    fn table_ii_eq_example() {
        // (10/17 = now) = b[{[10/17, 10/18)}, ...]
        let b = eq(OngoingPoint::fixed(md(10, 17)), OngoingPoint::now());
        assert_eq!(b.true_set(), &IntervalSet::range(md(10, 17), md(10, 18)));
    }

    #[test]
    fn table_ii_ne_example() {
        // 10/17 != now = b[{(-∞, 10/17), [10/18, ∞)}, ...]
        let b = ne(OngoingPoint::fixed(md(10, 17)), OngoingPoint::now());
        assert_eq!(
            b.true_set(),
            &IntervalSet::from_ranges([
                (TimePoint::NEG_INF, md(10, 17)),
                (md(10, 18), TimePoint::POS_INF),
            ])
        );
    }

    #[test]
    fn lt_infinite_endpoint_saturation() {
        // b = +∞ in case 3/4 territory: [b+1, ∞) must be empty, not wrap.
        let p = OngoingPoint::growing(tp(0)); // 0+∞
        let q = OngoingPoint::now(); // -∞+∞
                                     // b = d = +∞ -> not (b < d) -> a < c? 0 < -∞ is false -> always false.
        assert!(lt(p, q).is_always_false());
        // now < 0+: a=-∞<0=c, d=+∞<=b=+∞ -> case 2: true before 0.
        let b = lt(q, p);
        assert_eq!(b.true_set(), &IntervalSet::range(TimePoint::NEG_INF, tp(0)));
    }
}
