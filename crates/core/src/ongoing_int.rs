//! Ongoing integers — integers whose value depends on the reference time.
//!
//! The paper's conclusions (Sec. X) name two extensions that need a numeric
//! ongoing data type: a `duration` function for ongoing time intervals
//! "whose result are ongoing integers", and aggregation over ongoing
//! relations. [`OngoingInt`] provides that type.
//!
//! An ongoing integer is represented as a piecewise-affine function of the
//! reference time: a sorted list of segments `[startᵢ, startᵢ₊₁)`, each
//! carrying an affine value `coef · rt + offset`. Instantiating an ongoing
//! interval's endpoints yields clamp functions with slopes in `{0, 1}`, so
//! durations are piecewise affine with slopes in `{-1, 0, 1}`; aggregation
//! over reference times yields step functions (slope 0 everywhere). The type
//! is closed under addition, negation, `min`/`max`, and scaling — exactly
//! the operations the duration and aggregation extensions need.

use crate::interval::OngoingInterval;
use crate::point::OngoingPoint;
use crate::set::IntervalSet;
use crate::time::TimePoint;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// One affine piece: on `[start, next start)` the value is
/// `coef · rt + offset`. The coefficients are `i128`, so one operation on
/// `i64`-valued functions is exact up to the final clamp in
/// [`eval`](Self::eval); the arithmetic saturates (at the `i128` limits)
/// only in long chains of scalings.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
struct Segment {
    start: TimePoint,
    coef: i128,
    offset: i128,
}

impl Segment {
    #[inline]
    fn eval(&self, rt: TimePoint) -> i64 {
        let v = self
            .coef
            .saturating_mul(i128::from(rt.ticks()))
            .saturating_add(self.offset);
        clamp_i64(v)
    }

    #[inline]
    fn same_fn(&self, other: &Segment) -> bool {
        self.coef == other.coef && self.offset == other.offset
    }
}

/// An integer value that changes as time passes by, represented as a
/// piecewise-affine function of the reference time.
///
/// Equality, hashing and ordering compare the *value* — the pieces as
/// [`bind`](Self::bind) evaluates them (see `value_form`) — not the `i128`
/// representation, so `constant(i64::MIN).neg() == constant(i64::MAX)`.
#[derive(Clone, Serialize, Deserialize)]
pub struct OngoingInt {
    /// Non-empty; `segs[0].start == -∞`; starts strictly ascending; adjacent
    /// segments carry different affine functions (canonical form).
    segs: Vec<Segment>,
}

impl OngoingInt {
    /// The constant function `v`.
    pub fn constant(v: i64) -> Self {
        OngoingInt {
            segs: vec![Segment {
                start: TimePoint::NEG_INF,
                coef: 0,
                offset: i128::from(v),
            }],
        }
    }

    /// The instantiation function of an ongoing point:
    /// `rt ↦ ∥a+b∥rt = clamp(rt; a, b)` (in ticks).
    ///
    /// Infinite components saturate: `∥now∥rt = rt` is the identity
    /// function, unbounded in both directions.
    pub fn from_point(p: OngoingPoint) -> Self {
        let (a, b) = (p.a(), p.b());
        let mut segs = Vec::with_capacity(3);
        if !a.is_neg_inf() {
            segs.push(Segment {
                start: TimePoint::NEG_INF,
                coef: 0,
                offset: i128::from(a.ticks()),
            });
        }
        if a < b {
            // The identity piece [a, b).
            segs.push(Segment {
                start: if a.is_neg_inf() {
                    TimePoint::NEG_INF
                } else {
                    a
                },
                coef: 1,
                offset: 0,
            });
            if !b.is_pos_inf() {
                segs.push(Segment {
                    start: b,
                    coef: 0,
                    offset: i128::from(b.ticks()),
                });
            }
        }
        if segs.is_empty() {
            // a == b == ±∞: constant at the (saturated) limit.
            return OngoingInt::constant(a.ticks());
        }
        let mut r = OngoingInt { segs };
        r.canonicalize();
        r
    }

    /// The indicator function of a reference-time set: `1` inside, `0`
    /// outside. The building block of reference-time-resolved aggregation.
    pub fn indicator(set: &IntervalSet) -> Self {
        let mut segs = vec![Segment {
            start: TimePoint::NEG_INF,
            coef: 0,
            offset: 0,
        }];
        for r in set.ranges() {
            segs.push(Segment {
                start: r.ts(),
                coef: 0,
                offset: 1,
            });
            if !r.te().is_pos_inf() {
                segs.push(Segment {
                    start: r.te(),
                    coef: 0,
                    offset: 0,
                });
            }
        }
        let mut r = OngoingInt { segs };
        r.canonicalize();
        r
    }

    /// The `duration` function of Sec. X: the number of time points in the
    /// instantiation of an ongoing interval, as an ongoing integer —
    /// `rt ↦ maxF(0, ∥te∥rt - ∥ts∥rt)`.
    pub fn duration(interval: OngoingInterval) -> Self {
        let start = Self::from_point(interval.ts());
        let end = Self::from_point(interval.te());
        end.sub(&start).max_with(&Self::constant(0))
    }

    /// The value at reference time `rt` (saturating at the `i64` limits).
    pub fn bind(&self, rt: TimePoint) -> i64 {
        let idx = match self.segs.binary_search_by(|s| s.start.cmp(&rt)) {
            Ok(i) => i,
            Err(i) => i - 1, // segs[0].start == -∞ <= rt always
        };
        self.segs[idx].eval(rt)
    }

    /// Pointwise sum (clamped to `i64` when bound).
    pub fn add(&self, other: &OngoingInt) -> OngoingInt {
        let mut r = self.zip_with(other, |f, g| Segment {
            start: TimePoint::NEG_INF, // overwritten by zip_with
            coef: f.coef.saturating_add(g.coef),
            offset: f.offset.saturating_add(g.offset),
        });
        r.canonicalize();
        r
    }

    /// Pointwise negation.
    pub fn neg(&self) -> OngoingInt {
        OngoingInt {
            segs: self
                .segs
                .iter()
                .map(|s| Segment {
                    start: s.start,
                    coef: s.coef.saturating_neg(),
                    offset: s.offset.saturating_neg(),
                })
                .collect(),
        }
    }

    /// Pointwise difference.
    pub fn sub(&self, other: &OngoingInt) -> OngoingInt {
        self.add(&other.neg())
    }

    /// Pointwise scaling by a constant.
    pub fn scale(&self, k: i64) -> OngoingInt {
        let mut r = OngoingInt {
            segs: self
                .segs
                .iter()
                .map(|s| Segment {
                    start: s.start,
                    coef: s.coef.saturating_mul(i128::from(k)),
                    offset: s.offset.saturating_mul(i128::from(k)),
                })
                .collect(),
        };
        r.canonicalize();
        r
    }

    /// Pointwise maximum. Within each merged segment two affine functions
    /// cross at most once, so each segment splits into at most two pieces.
    pub fn max_with(&self, other: &OngoingInt) -> OngoingInt {
        self.combine_minmax(other, true)
    }

    /// Pointwise minimum.
    pub fn min_with(&self, other: &OngoingInt) -> OngoingInt {
        self.combine_minmax(other, false)
    }

    /// The set of reference times at which the value is strictly positive.
    /// Useful to turn aggregates back into reference-time sets
    /// (e.g. "times with at least one open bug").
    pub fn positive_set(&self) -> IntervalSet {
        self.cmp_zero_set(|v| v > 0)
    }

    /// The set of reference times at which the value is zero.
    pub fn zero_set(&self) -> IntervalSet {
        self.cmp_zero_set(|v| v == 0)
    }

    /// Number of affine pieces (canonical form).
    pub fn piece_count(&self) -> usize {
        self.segs.len()
    }

    /// Is the value independent of the reference time?
    pub fn is_constant(&self) -> bool {
        self.segs.len() == 1 && self.segs[0].coef == 0
    }

    /// The canonical pieces as `(start, coef, offset)` triples —
    /// `value(rt) = coef · rt + offset` on `[start, next start)`, clamped
    /// to `i64` when bound.
    pub fn pieces(&self) -> impl Iterator<Item = (TimePoint, i128, i128)> + '_ {
        self.segs.iter().map(|s| (s.start, s.coef, s.offset))
    }

    /// Rebuilds an ongoing integer from `(start, coef, offset)` pieces.
    /// The first piece must start at `-∞`; starts must be strictly
    /// ascending.
    pub fn from_pieces<I>(pieces: I) -> Option<Self>
    where
        I: IntoIterator<Item = (TimePoint, i128, i128)>,
    {
        let segs: Vec<Segment> = pieces
            .into_iter()
            .map(|(start, coef, offset)| Segment {
                start,
                coef,
                offset,
            })
            .collect();
        if segs.first().map(|s| s.start) != Some(TimePoint::NEG_INF) {
            return None;
        }
        if segs.windows(2).any(|w| w[0].start >= w[1].start) {
            return None;
        }
        let mut v = OngoingInt { segs };
        v.canonicalize();
        Some(v)
    }

    /// The set of reference times where `self == other`.
    pub fn eq_set(&self, other: &OngoingInt) -> IntervalSet {
        self.sub(other).zero_set()
    }

    /// The set of reference times where `self < other`.
    pub fn lt_set(&self, other: &OngoingInt) -> IntervalSet {
        other.sub(self).positive_set()
    }

    fn cmp_zero_set(&self, keep: impl Fn(i64) -> bool) -> IntervalSet {
        let mut ranges: Vec<(TimePoint, TimePoint)> = Vec::new();
        for (i, s) in self.segs.iter().enumerate() {
            let end = self.segs.get(i + 1).map_or(TimePoint::POS_INF, |n| n.start);
            if s.coef == 0 {
                if keep(clamp_i64(s.offset)) {
                    ranges.push((s.start, end));
                }
            } else {
                // Affine piece: walk the (at most two) sign regions around
                // the root of coef·rt + offset relative to the predicate.
                // We split at the root and test one representative point in
                // each half.
                let root = s.offset.saturating_neg() / s.coef;
                let mut cuts = vec![s.start];
                for delta in [-1i128, 0, 1, 2] {
                    let c = root.saturating_add(delta);
                    if c > i128::from(s.start.ticks()) && c < i128::from(end.ticks()) {
                        cuts.push(TimePoint::new(c as i64));
                    }
                }
                cuts.push(end);
                cuts.dedup();
                for w in cuts.windows(2) {
                    let (lo, hi) = (w[0], w[1]);
                    if lo >= hi {
                        continue;
                    }
                    // Representative: lo when finite, else just below hi.
                    let rep = if lo.is_neg_inf() {
                        hi.pred().pred()
                    } else {
                        lo
                    };
                    if keep(s.eval(rep)) {
                        ranges.push((lo, hi));
                    }
                }
            }
        }
        IntervalSet::from_ranges(ranges)
    }

    /// Applies `f` segment-pair-wise over the merged breakpoints of the two
    /// inputs. `f` receives the active segment of each input; the returned
    /// segment's `start` is fixed up by the caller.
    fn zip_with(
        &self,
        other: &OngoingInt,
        f: impl Fn(&Segment, &Segment) -> Segment,
    ) -> OngoingInt {
        let mut segs = Vec::with_capacity(self.segs.len() + other.segs.len());
        let (mut i, mut j) = (0usize, 0usize);
        let mut start = TimePoint::NEG_INF;
        loop {
            let s = &self.segs[i];
            let t = &other.segs[j];
            let mut seg = f(s, t);
            seg.start = start;
            segs.push(seg);
            // Advance to the next merged breakpoint.
            let next_i = self.segs.get(i + 1).map(|s| s.start);
            let next_j = other.segs.get(j + 1).map(|s| s.start);
            match (next_i, next_j) {
                (None, None) => break,
                (Some(a), None) => {
                    start = a;
                    i += 1;
                }
                (None, Some(b)) => {
                    start = b;
                    j += 1;
                }
                (Some(a), Some(b)) => {
                    start = a.min_f(b);
                    if a <= start {
                        i += 1;
                    }
                    if b <= start {
                        j += 1;
                    }
                }
            }
        }
        OngoingInt { segs }
    }

    fn combine_minmax(&self, other: &OngoingInt, want_max: bool) -> OngoingInt {
        // First merge breakpoints, then split each merged segment at the
        // crossing of its two affine functions.
        let mut segs: Vec<Segment> = Vec::new();
        let merged = self.zip_with(other, |_, _| Segment {
            start: TimePoint::NEG_INF,
            coef: 0,
            offset: 0,
        });
        for (k, probe) in merged.segs.iter().enumerate() {
            let seg_start = probe.start;
            let seg_end = merged
                .segs
                .get(k + 1)
                .map_or(TimePoint::POS_INF, |n| n.start);
            let f = self.segment_at(seg_start);
            let g = other.segment_at(seg_start);
            let pick = |better_f: bool| if better_f == want_max { f } else { g };
            if f.coef == g.coef {
                let better_f = f.offset >= g.offset;
                let chosen = pick(better_f);
                segs.push(Segment {
                    start: seg_start,
                    ..*chosen
                });
                continue;
            }
            // f - g = (dc)·rt + dofs; f >= g iff (dc)·rt >= -dofs.
            let dc = f.coef.saturating_sub(g.coef);
            let dofs = f.offset.saturating_sub(g.offset);
            // Threshold: smallest rt with f >= g (dc > 0) or largest rt
            // with f >= g (dc < 0).
            if dc > 0 {
                // f >= g iff rt >= ceil(-dofs / dc).
                let ndofs = dofs.saturating_neg();
                let thr = ndofs.div_euclid(dc) + i128::from(ndofs.rem_euclid(dc) != 0);
                let thr = clamp_tick(thr);
                // Below thr: g bigger; from thr on: f bigger-or-equal.
                push_split(&mut segs, seg_start, seg_end, thr, pick(false), pick(true));
            } else {
                // dc < 0: f >= g iff rt <= floor(-dofs / dc)  — division by
                // a negative number; rewrite: (-dc)·rt <= dofs.
                let ndc = dc.saturating_neg();
                let thr = dofs.div_euclid(ndc); // floor
                let thr = clamp_tick(thr.saturating_add(1)); // first rt where g wins
                push_split(&mut segs, seg_start, seg_end, thr, pick(true), pick(false));
            }
        }
        let mut r = OngoingInt { segs };
        r.canonicalize();
        r
    }

    fn segment_at(&self, rt: TimePoint) -> &Segment {
        let idx = match self.segs.binary_search_by(|s| s.start.cmp(&rt)) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        &self.segs[idx]
    }

    /// The form equality, hashing and ordering compare: the pieces as
    /// [`bind`](Self::bind) evaluates them. A constant piece is clamped to
    /// `i64`; a sloped piece is split where it reaches a limit into its
    /// clamped constant ends and the sloped part between them (a sloped
    /// part of one point becomes that point's constant); equal neighbours
    /// are merged. Equal forms bind alike at every `rt`. One-point pieces
    /// on the line of a sloped neighbour are not folded into it, so a few
    /// equal values still compare unequal.
    fn value_form(&self) -> Vec<Segment> {
        let mut out: Vec<Segment> = Vec::with_capacity(self.segs.len());
        let mut push = |start: i128, coef: i128, offset: i128| {
            let seg = Segment {
                start: TimePoint::new(start as i64),
                coef,
                offset,
            };
            if !out.last().is_some_and(|l| l.same_fn(&seg)) {
                out.push(seg);
            }
        };
        for (i, s) in self.segs.iter().enumerate() {
            let first = i128::from(s.start.ticks());
            let last = self
                .segs
                .get(i + 1)
                .map_or(i128::from(i64::MAX), |n| i128::from(n.start.ticks()) - 1);
            if s.coef == 0 {
                push(first, 0, i128::from(clamp_i64(s.offset)));
                continue;
            }
            // `eval` is monotone over the piece: the limit it starts at up
            // to `p`, strictly between the limits on `[p, q)`, the other
            // limit from `q` on.
            let (from, to) = if s.coef > 0 {
                (i64::MIN, i64::MAX)
            } else {
                (i64::MAX, i64::MIN)
            };
            let p = first_where(first, last, |rt| s.eval(rt) != from);
            let q = first_where(p, last, |rt| s.eval(rt) == to);
            if p > first {
                push(first, 0, i128::from(from));
            }
            if q == p + 1 {
                push(p, 0, i128::from(s.eval(TimePoint::new(p as i64))));
            } else if q > p {
                push(p, s.coef, s.offset);
            }
            if q <= last {
                push(q, 0, i128::from(to));
            }
        }
        out
    }

    fn canonicalize(&mut self) {
        debug_assert!(!self.segs.is_empty());
        debug_assert!(self.segs[0].start == TimePoint::NEG_INF);
        let mut out: Vec<Segment> = Vec::with_capacity(self.segs.len());
        for s in self.segs.drain(..) {
            match out.last() {
                Some(last) if last.same_fn(&s) => {}
                Some(last) if last.start == s.start => {
                    *out.last_mut().unwrap() = s;
                }
                _ => out.push(s),
            }
        }
        self.segs = out;
    }
}

impl PartialEq for OngoingInt {
    fn eq(&self, other: &Self) -> bool {
        self.value_form() == other.value_form()
    }
}

impl Eq for OngoingInt {}

impl Hash for OngoingInt {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.value_form().hash(state);
    }
}

impl PartialOrd for OngoingInt {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A total order consistent with equality (by value form); it carries no
/// temporal meaning.
impl Ord for OngoingInt {
    fn cmp(&self, other: &Self) -> Ordering {
        self.value_form().cmp(&other.value_form())
    }
}

/// The first `rt` in `[lo, hi]` at which the monotone `pred` (false, then
/// true) holds, or `hi + 1` when it never does.
fn first_where(mut lo: i128, hi: i128, pred: impl Fn(TimePoint) -> bool) -> i128 {
    let mut hi = hi + 1;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(TimePoint::new(mid as i64)) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

#[inline]
fn clamp_i64(v: i128) -> i64 {
    v.clamp(i128::from(i64::MIN), i128::from(i64::MAX)) as i64
}

#[inline]
fn clamp_tick(v: i128) -> TimePoint {
    TimePoint::new(clamp_i64(v))
}

/// Pushes `lo_seg` on `[start, thr)` and `hi_seg` on `[thr, end)` (either
/// side may be empty after clamping). The last segment also covers
/// `rt = ∞` itself, so an `end` of `∞` keeps a `hi_seg` starting there.
fn push_split(
    segs: &mut Vec<Segment>,
    start: TimePoint,
    end: TimePoint,
    thr: TimePoint,
    lo_seg: &Segment,
    hi_seg: &Segment,
) {
    if thr > start {
        segs.push(Segment { start, ..*lo_seg });
    }
    let hi_start = thr.max_f(start);
    if hi_start < end || end.is_pos_inf() {
        segs.push(Segment {
            start: hi_start,
            ..*hi_seg
        });
    }
}

/// Sums the indicator functions of many reference-time sets — the
/// reference-time-resolved `COUNT` aggregate.
pub fn count_over<'a, I>(sets: I) -> OngoingInt
where
    I: IntoIterator<Item = &'a IntervalSet>,
{
    sets.into_iter().fold(OngoingInt::constant(0), |acc, s| {
        acc.add(&OngoingInt::indicator(s))
    })
}

impl fmt::Debug for OngoingInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for OngoingInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "int[")?;
        for (i, s) in self.segs.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            match s.coef {
                0 => write!(f, "{} ↦ {}", s.start, s.offset)?,
                1 if s.offset == 0 => write!(f, "{} ↦ rt", s.start)?,
                c => write!(f, "{} ↦ {c}·rt{:+}", s.start, s.offset)?,
            }
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::limit_grid_points;
    use crate::time::{tp, LIMIT_GRID};

    /// Exhaustive over the limit grid: every constant and every point's
    /// instantiation function as operands, every op bound at every grid
    /// `rt` equals the exact result clamped to `i64`.
    #[test]
    fn ops_are_exact_on_the_limit_grid() {
        let points = limit_grid_points();
        let ticks = LIMIT_GRID.map(TimePoint::ticks);
        let mut operands: Vec<OngoingInt> =
            ticks.iter().map(|&v| OngoingInt::constant(v)).collect();
        operands.extend(points.iter().map(|&p| OngoingInt::from_point(p)));
        for (i, &p) in points.iter().enumerate() {
            for rt in LIMIT_GRID {
                assert_eq!(operands[7 + i].bind(rt), p.bind(rt).ticks(), "{p} at {rt}");
            }
        }
        let at = |x: &OngoingInt, rt| i128::from(x.bind(rt));
        for x in &operands {
            for rt in LIMIT_GRID {
                assert_eq!(x.neg().bind(rt), clamp_i64(-at(x, rt)), "-({x}) at {rt}");
                for k in ticks {
                    let want = clamp_i64(at(x, rt) * i128::from(k));
                    assert_eq!(x.scale(k).bind(rt), want, "({x})·{k} at {rt}");
                }
            }
            for y in &operands {
                for rt in LIMIT_GRID {
                    let (a, b) = (at(x, rt), at(y, rt));
                    let ctx = format!("{x}, {y} at {rt}");
                    assert_eq!(x.add(y).bind(rt), clamp_i64(a + b), "add {ctx}");
                    assert_eq!(x.sub(y).bind(rt), clamp_i64(a - b), "sub {ctx}");
                    assert_eq!(x.max_with(y).bind(rt), clamp_i64(a.max(b)), "max {ctx}");
                    assert_eq!(x.min_with(y).bind(rt), clamp_i64(a.min(b)), "min {ctx}");
                }
            }
        }
        for &ts in &points {
            for &te in &points {
                let d = OngoingInt::duration(OngoingInterval::new(ts, te));
                for rt in LIMIT_GRID {
                    let len = i128::from(te.bind(rt).ticks()) - i128::from(ts.bind(rt).ticks());
                    assert_eq!(d.bind(rt), clamp_i64(len.max(0)), "|[{ts}, {te})| at {rt}");
                }
            }
        }
    }

    fn hash_of(x: &OngoingInt) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        x.hash(&mut h);
        h.finish()
    }

    /// Equality and hashing compare what `bind` returns, not the `i128`
    /// pieces: on the limit grid, values that compare equal hash alike and
    /// bind alike at every grid `rt`.
    #[test]
    fn equality_and_hashing_are_by_value() {
        let (a, b) = (
            OngoingInt::constant(i64::MIN).neg(),
            OngoingInt::constant(i64::MAX),
        );
        assert_ne!(a.segs, b.segs);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
        let ticks = LIMIT_GRID.map(TimePoint::ticks);
        let mut operands: Vec<OngoingInt> =
            ticks.iter().map(|&v| OngoingInt::constant(v)).collect();
        operands.extend(limit_grid_points().into_iter().map(OngoingInt::from_point));
        let mut values = Vec::new();
        for x in &operands {
            values.push(x.clone());
            values.push(x.neg());
            values.extend(ticks.iter().map(|&k| x.scale(k)));
            for y in &operands {
                values.push(x.add(y));
                values.push(x.sub(y));
            }
        }
        values.sort_by_cached_key(OngoingInt::value_form);
        let mut rewritten = 0;
        for w in values.windows(2) {
            let (x, y) = (&w[0], &w[1]);
            if x != y {
                continue;
            }
            rewritten += usize::from(x.segs != y.segs);
            assert_eq!(hash_of(x), hash_of(y), "{x} == {y}");
            for rt in LIMIT_GRID {
                assert_eq!(x.bind(rt), y.bind(rt), "{x} == {y} at {rt}");
            }
        }
        assert!(rewritten > 0, "no two representations of one value met");
    }

    fn op(a: i64, b: i64) -> OngoingPoint {
        OngoingPoint::new(tp(a), tp(b)).unwrap()
    }

    #[test]
    fn constant_evaluates_everywhere() {
        let c = OngoingInt::constant(42);
        for rt in [-100i64, 0, 100] {
            assert_eq!(c.bind(tp(rt)), 42);
        }
        assert_eq!(c.piece_count(), 1);
    }

    #[test]
    fn from_point_matches_bind() {
        let pts = [
            op(3, 7),
            OngoingPoint::fixed(tp(5)),
            OngoingPoint::now(),
            OngoingPoint::growing(tp(2)),
            OngoingPoint::limited(tp(4)),
        ];
        for p in pts {
            let f = OngoingInt::from_point(p);
            for rt in -10i64..12 {
                assert_eq!(f.bind(tp(rt)), p.bind(tp(rt)).ticks(), "p={p} rt={rt}");
            }
        }
    }

    #[test]
    fn add_and_sub_are_pointwise() {
        let f = OngoingInt::from_point(op(0, 5));
        let g = OngoingInt::from_point(op(3, 9));
        let sum = f.add(&g);
        let diff = f.sub(&g);
        for rt in -5i64..15 {
            let rt = tp(rt);
            assert_eq!(sum.bind(rt), f.bind(rt) + g.bind(rt));
            assert_eq!(diff.bind(rt), f.bind(rt) - g.bind(rt));
        }
    }

    #[test]
    fn max_min_are_pointwise() {
        let f = OngoingInt::from_point(op(0, 8));
        let g = OngoingInt::constant(4);
        let mx = f.max_with(&g);
        let mn = f.min_with(&g);
        for rt in -5i64..15 {
            let rt = tp(rt);
            assert_eq!(mx.bind(rt), f.bind(rt).max(4), "rt={rt}");
            assert_eq!(mn.bind(rt), f.bind(rt).min(4), "rt={rt}");
        }
    }

    #[test]
    fn max_of_crossing_ramps() {
        // f = rt, g = -rt: max is |rt|, min is -|rt|.
        let f = OngoingInt::from_point(OngoingPoint::now());
        let g = f.neg();
        let mx = f.max_with(&g);
        let mn = f.min_with(&g);
        for rt in -10i64..11 {
            assert_eq!(mx.bind(tp(rt)), rt.abs());
            assert_eq!(mn.bind(tp(rt)), -rt.abs());
        }
    }

    #[test]
    fn duration_of_expanding_interval() {
        // [3, now): duration 0 before rt 3, then rt - 3.
        let i = OngoingInterval::from_until_now(tp(3));
        let d = OngoingInt::duration(i);
        assert_eq!(d.bind(tp(0)), 0);
        assert_eq!(d.bind(tp(3)), 0);
        assert_eq!(d.bind(tp(5)), 2);
        assert_eq!(d.bind(tp(100)), 97);
    }

    #[test]
    fn duration_matches_fixed_semantics_pointwise() {
        let intervals = [
            OngoingInterval::fixed(tp(2), tp(9)),
            OngoingInterval::from_until_now(tp(3)),
            OngoingInterval::from_now_until(tp(6)),
            OngoingInterval::new(op(1, 4), op(5, 8)),
            OngoingInterval::new(op(5, 8), op(1, 4)), // always empty
        ];
        for i in intervals {
            let d = OngoingInt::duration(i);
            for rt in -5i64..15 {
                let rt = tp(rt);
                let (s, e) = i.bind(rt);
                let expect = s.distance_to(e).max(0);
                assert_eq!(d.bind(rt), expect, "i={i} rt={rt}");
            }
        }
    }

    #[test]
    fn indicator_is_membership() {
        let s = IntervalSet::from_ranges([(tp(0), tp(3)), (tp(7), tp(9))]);
        let f = OngoingInt::indicator(&s);
        for rt in -2i64..12 {
            assert_eq!(f.bind(tp(rt)), i64::from(s.contains(tp(rt))));
        }
    }

    #[test]
    fn count_over_sums_indicators() {
        let sets = [
            IntervalSet::range(tp(0), tp(10)),
            IntervalSet::range(tp(5), tp(15)),
            IntervalSet::range(tp(8), tp(9)),
        ];
        let c = count_over(sets.iter());
        for rt in -2i64..18 {
            let expect = sets.iter().filter(|s| s.contains(tp(rt))).count() as i64;
            assert_eq!(c.bind(tp(rt)), expect, "rt={rt}");
        }
        // Peak of 3 at rt = 8.
        assert_eq!(c.bind(tp(8)), 3);
    }

    #[test]
    fn positive_and_zero_sets() {
        let c = count_over(
            [
                IntervalSet::range(tp(0), tp(5)),
                IntervalSet::range(tp(10), tp(12)),
            ]
            .iter(),
        );
        let pos = c.positive_set();
        assert_eq!(
            pos,
            IntervalSet::from_ranges([(tp(0), tp(5)), (tp(10), tp(12))])
        );
        assert_eq!(pos.complement(), c.zero_set());
    }

    #[test]
    fn positive_set_of_ramp() {
        // duration of [3, now) is positive exactly after rt 3.
        let d = OngoingInt::duration(OngoingInterval::from_until_now(tp(3)));
        let pos = d.positive_set();
        assert!(!pos.contains(tp(3)));
        assert!(pos.contains(tp(4)));
        assert!(pos.contains(tp(1000)));
        assert!(!pos.contains(tp(-5)));
    }

    #[test]
    fn canonical_form_merges_equal_pieces() {
        let f = OngoingInt::constant(1).add(&OngoingInt::constant(2));
        assert_eq!(f.piece_count(), 1);
        assert_eq!(f.bind(tp(0)), 3);
    }

    #[test]
    fn display_is_readable() {
        let d = OngoingInt::duration(OngoingInterval::from_until_now(tp(3)));
        let s = d.to_string();
        assert!(s.starts_with("int["), "{s}");
    }

    #[test]
    fn pieces_round_trip() {
        let d = OngoingInt::duration(OngoingInterval::from_until_now(tp(3)));
        let back = OngoingInt::from_pieces(d.pieces()).unwrap();
        assert_eq!(back, d);
        // Bad inputs rejected.
        assert!(OngoingInt::from_pieces([(tp(0), 0, 1)]).is_none());
        assert!(OngoingInt::from_pieces([
            (TimePoint::NEG_INF, 0, 1),
            (tp(5), 1, 0),
            (tp(5), 0, 2),
        ])
        .is_none());
    }

    #[test]
    fn eq_and_lt_sets_are_pointwise() {
        let f = OngoingInt::from_point(op(0, 8));
        let g = OngoingInt::constant(4);
        let eq = f.eq_set(&g);
        let lt = f.lt_set(&g);
        for rt in -5i64..15 {
            let rt = tp(rt);
            assert_eq!(eq.contains(rt), f.bind(rt) == g.bind(rt), "eq rt={rt}");
            assert_eq!(lt.contains(rt), f.bind(rt) < g.bind(rt), "lt rt={rt}");
        }
    }

    #[test]
    fn is_constant_detection() {
        assert!(OngoingInt::constant(5).is_constant());
        assert!(!OngoingInt::from_point(OngoingPoint::now()).is_constant());
        assert!(!OngoingInt::indicator(&IntervalSet::range(tp(0), tp(5))).is_constant());
    }
}
