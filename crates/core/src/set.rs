//! Canonical sets of fixed time intervals.
//!
//! The paper represents both a tuple's reference time `RT` and the `St` set
//! of an ongoing boolean as "a list of fixed time intervals" that are
//! *maximal, non-overlapping, and sorted in ascending order* (Sec. VIII).
//! [`IntervalSet`] is that representation. The canonical form makes equality
//! structural and lets the logical connectives run as single-pass sweep-line
//! algorithms (Algorithm 1 of the paper, implemented in
//! [`IntervalSet::intersect`] / [`IntervalSet::union`]).
//!
//! **Inline layout.** A set stores up to two ranges in place and moves to
//! a heap vector only when a third range is added. Table IV of the
//! extended paper (arXiv:2001.05722) shows that reference times and
//! predicate true-sets of real ongoing data need at most two ranges, so
//! building an ongoing boolean, restricting a tuple's `RT`, and cloning a
//! tuple do not allocate. A set that spilled keeps its buffer when it
//! shrinks; equality and hashing look only at the range slice, so both
//! forms of one set are equal.

use crate::time::TimePoint;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

/// A non-empty, closed-open fixed time interval `[ts, te)` with `ts < te`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TimeRange {
    ts: TimePoint,
    te: TimePoint,
}

impl TimeRange {
    /// Creates `[ts, te)`; returns `None` when the interval would be empty.
    #[inline]
    pub fn new(ts: TimePoint, te: TimePoint) -> Option<Self> {
        if ts < te {
            Some(TimeRange { ts, te })
        } else {
            None
        }
    }

    /// The inclusive start point.
    #[inline]
    pub fn ts(self) -> TimePoint {
        self.ts
    }

    /// The exclusive end point.
    #[inline]
    pub fn te(self) -> TimePoint {
        self.te
    }

    /// Does `[ts, te)` contain `t`?
    #[inline]
    pub fn contains(self, t: TimePoint) -> bool {
        self.ts <= t && t < self.te
    }

    /// Number of time points in the range; saturates at `i64::MAX` when a
    /// domain limit is involved.
    pub fn duration(self) -> i64 {
        self.ts.distance_to(self.te)
    }
}

impl fmt::Debug for TimeRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.ts, self.te)
    }
}

impl fmt::Display for TimeRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.ts, self.te)
    }
}

/// Number of ranges an [`IntervalSet`] holds without a heap allocation.
const INLINE: usize = 2;

/// Filler for unused inline slots; never visible through the slice.
const PAD: TimeRange = TimeRange {
    ts: TimePoint::NEG_INF,
    te: TimePoint::NEG_INF,
};

/// The range list of an [`IntervalSet`]: up to [`INLINE`] ranges in place,
/// a heap vector beyond that. Dereferences to the live range slice.
enum Ranges {
    Inline { len: u8, buf: [TimeRange; INLINE] },
    Spilled(Vec<TimeRange>),
}

impl Ranges {
    const EMPTY: Ranges = Ranges::Inline {
        len: 0,
        buf: [PAD; INLINE],
    };

    #[inline]
    fn one(r: TimeRange) -> Self {
        Ranges::Inline {
            len: 1,
            buf: [r, PAD],
        }
    }

    fn push(&mut self, r: TimeRange) {
        match self {
            Ranges::Inline { len, buf } if usize::from(*len) < INLINE => {
                buf[usize::from(*len)] = r;
                *len += 1;
            }
            Ranges::Inline { buf, .. } => {
                let mut v = Vec::with_capacity(2 * INLINE);
                v.extend_from_slice(buf);
                v.push(r);
                *self = Ranges::Spilled(v);
            }
            Ranges::Spilled(v) => v.push(r),
        }
    }

    fn extend_from_slice(&mut self, rs: &[TimeRange]) {
        if let Ranges::Spilled(v) = self {
            v.extend_from_slice(rs);
        } else {
            for &r in rs {
                self.push(r);
            }
        }
    }

    fn truncate(&mut self, n: usize) {
        match self {
            Ranges::Inline { len, .. } => {
                if n < usize::from(*len) {
                    // n < len <= INLINE, so the cast is lossless.
                    *len = n as u8;
                }
            }
            Ranges::Spilled(v) => v.truncate(n),
        }
    }
}

impl Deref for Ranges {
    type Target = [TimeRange];

    #[inline]
    fn deref(&self) -> &[TimeRange] {
        match self {
            Ranges::Inline { len, buf } => &buf[..usize::from(*len)],
            Ranges::Spilled(v) => v,
        }
    }
}

impl DerefMut for Ranges {
    #[inline]
    fn deref_mut(&mut self) -> &mut [TimeRange] {
        match self {
            Ranges::Inline { len, buf } => &mut buf[..usize::from(*len)],
            Ranges::Spilled(v) => v,
        }
    }
}

impl Clone for Ranges {
    /// Clones into the smallest form: a spilled list that shrank back to
    /// [`INLINE`] ranges or fewer is cloned inline.
    fn clone(&self) -> Self {
        match self {
            Ranges::Inline { len, buf } => Ranges::Inline {
                len: *len,
                buf: *buf,
            },
            Ranges::Spilled(v) if v.len() <= INLINE => {
                let mut out = Ranges::EMPTY;
                out.extend_from_slice(v);
                out
            }
            Ranges::Spilled(v) => Ranges::Spilled(v.clone()),
        }
    }
}

/// A canonical set of fixed time points, stored as maximal, non-overlapping
/// time ranges in ascending order.
///
/// This is the value type of the reference-time attribute `RT` and the
/// carrier of ongoing booleans ([`crate::OngoingBool`]). The empty set is
/// `{}` (a deleted tuple / `false`); the full set is `{(-∞, ∞)}` (a base
/// tuple's trivial reference time / `true`). Sets of up to two ranges live
/// inline (see the module docs).
#[derive(Clone)]
pub struct IntervalSet {
    ranges: Ranges,
}

// Equality and hashing go through the range slice, so the inline and the
// spilled form of one set compare and hash alike.
impl PartialEq for IntervalSet {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.ranges() == other.ranges()
    }
}

impl Eq for IntervalSet {}

impl Hash for IntervalSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.ranges().hash(state);
    }
}

impl Default for IntervalSet {
    #[inline]
    fn default() -> Self {
        IntervalSet::empty()
    }
}

// The vendored serde is a marker-trait stand-in (nothing serializes through
// it yet); when the real crate is swapped in these two impls must become a
// proxy over `ranges()` / `from_ranges` — the inline layout is not a wire
// format.
impl Serialize for IntervalSet {}
impl<'de> Deserialize<'de> for IntervalSet {}

impl IntervalSet {
    /// The empty set `{}`.
    #[inline]
    pub fn empty() -> Self {
        IntervalSet {
            ranges: Ranges::EMPTY,
        }
    }

    /// The full set `{(-∞, ∞)}` containing every reference time.
    #[inline]
    pub fn full() -> Self {
        IntervalSet {
            ranges: Ranges::one(TimeRange {
                ts: TimePoint::NEG_INF,
                te: TimePoint::POS_INF,
            }),
        }
    }

    /// The set containing the single interval `[ts, te)`; empty if `ts >= te`.
    #[inline]
    pub fn range(ts: TimePoint, te: TimePoint) -> Self {
        match TimeRange::new(ts, te) {
            Some(r) => IntervalSet {
                ranges: Ranges::one(r),
            },
            None => IntervalSet::empty(),
        }
    }

    /// The set `[ts1, te1) ∪ [ts2, te2)` for two pairs the caller knows to
    /// be ascending with a gap between them (`te1 < ts2`); empty pairs are
    /// dropped. The direct constructor for the two-range results of the
    /// point comparisons in [`crate::ops`].
    #[inline]
    pub(crate) fn two(first: (TimePoint, TimePoint), second: (TimePoint, TimePoint)) -> Self {
        debug_assert!(first.1 < second.0, "ranges must be separated by a gap");
        let mut ranges = Ranges::EMPTY;
        for (ts, te) in [first, second] {
            if let Some(r) = TimeRange::new(ts, te) {
                ranges.push(r);
            }
        }
        IntervalSet { ranges }
    }

    /// The singleton set `{t}` = `[t, succ(t))`.
    pub fn point(t: TimePoint) -> Self {
        IntervalSet::range(t, t.succ())
    }

    /// Builds a canonical set from arbitrary `(ts, te)` pairs: empty pairs
    /// are dropped, the rest are sorted and overlapping or adjacent ranges
    /// are merged so the result is maximal.
    pub fn from_ranges<I>(ranges: I) -> Self
    where
        I: IntoIterator<Item = (TimePoint, TimePoint)>,
    {
        let mut rs = Ranges::EMPTY;
        for (ts, te) in ranges {
            if let Some(r) = TimeRange::new(ts, te) {
                rs.push(r);
            }
        }
        rs.sort_unstable();
        // Merge overlap and adjacency: [1,3) and [3,5) are one maximal
        // range [1,5).
        coalesce_in_place(&mut rs, 0);
        IntervalSet { ranges: rs }
    }

    /// The canonical ranges, ascending, non-overlapping, maximal.
    #[inline]
    pub fn ranges(&self) -> &[TimeRange] {
        &self.ranges
    }

    /// Number of ranges needed to represent the set — the "cardinality of
    /// RT" that Table IV and Table V of the paper analyze.
    #[inline]
    pub fn cardinality(&self) -> usize {
        self.ranges.len()
    }

    /// Is this the empty set?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Is this the full set `{(-∞, ∞)}`?
    #[inline]
    pub fn is_full(&self) -> bool {
        self.ranges.len() == 1
            && self.ranges[0].ts == TimePoint::NEG_INF
            && self.ranges[0].te == TimePoint::POS_INF
    }

    /// Does the set contain reference time `rt`? Binary search over the
    /// canonical ranges.
    pub fn contains(&self, rt: TimePoint) -> bool {
        match self.ranges.binary_search_by(|r| r.ts.cmp(&rt)) {
            Ok(_) => true,
            Err(0) => false,
            Err(i) => self.ranges[i - 1].contains(rt),
        }
    }

    /// Total number of contained time points; saturates at `i64::MAX` when a
    /// domain limit is involved.
    pub fn total_duration(&self) -> i64 {
        let mut acc: i64 = 0;
        for r in self.ranges() {
            acc = acc.saturating_add(r.duration());
        }
        acc
    }

    /// Set intersection — the logical conjunction of ongoing booleans
    /// (Algorithm 1 of the paper).
    ///
    /// A single sweep over both canonical inputs: no sorting is needed, each
    /// input range is visited at most once, and the output is canonical by
    /// construction.
    pub fn intersect(&self, other: &IntervalSet) -> IntervalSet {
        let (b1, b2) = (self.ranges(), other.ranges());
        let mut out = Ranges::EMPTY;
        let (mut i1, mut i2) = (0usize, 0usize);
        while i1 < b1.len() && i2 < b2.len() {
            let (r1, r2) = (b1[i1], b2[i2]);
            if r1.te <= r2.ts {
                i1 += 1;
            } else if r2.te <= r1.ts {
                i2 += 1;
            } else {
                // Append the intersection of r1 and r2.
                let ts = r1.ts.max_f(r2.ts);
                let te = r1.te.min_f(r2.te);
                out.push(TimeRange { ts, te });
                if r1.te < r2.te {
                    i1 += 1;
                } else {
                    i2 += 1;
                }
            }
        }
        // Intersections of canonical inputs cannot touch, so `out` is
        // already maximal, disjoint and ascending.
        IntervalSet { ranges: out }
    }

    /// In-place set intersection: `*self = self ∩ other`, reusing the
    /// receiver's storage. This is the executor hot-loop variant of
    /// [`intersect`](Self::intersect): restricting a reference time per
    /// tuple (pair) does not have to build a fresh range list.
    ///
    /// The sweep writes results back into the receiver. Each input range is
    /// only read once (it is copied into a register when the read cursor
    /// reaches it), so in-place writes behind the read cursor are safe; in
    /// the rare case where the output outgrows the consumed prefix (one
    /// coarse receiver range split by many `other` ranges), the tail spills
    /// into a temporary and is appended afterwards.
    pub fn intersect_assign(&mut self, other: &IntervalSet) {
        if self.ranges.is_empty() || other.is_full() {
            return;
        }
        if other.ranges.is_empty() {
            self.ranges.truncate(0);
            return;
        }
        let n = self.ranges.len();
        let b2 = other.ranges();
        let (mut i1, mut i2) = (0usize, 0usize);
        let mut w = 0usize;
        let mut spill: Vec<TimeRange> = Vec::new();
        let mut cur1 = self.ranges[0];
        while i1 < n && i2 < b2.len() {
            let r2 = b2[i2];
            if cur1.te <= r2.ts {
                i1 += 1;
                if i1 < n {
                    cur1 = self.ranges[i1];
                }
            } else if r2.te <= cur1.ts {
                i2 += 1;
            } else {
                let piece = TimeRange {
                    ts: cur1.ts.max_f(r2.ts),
                    te: cur1.te.min_f(r2.te),
                };
                // Keep output order: once a piece spills, all later pieces
                // spill too.
                if spill.is_empty() && w <= i1 {
                    self.ranges[w] = piece;
                    w += 1;
                } else {
                    spill.push(piece);
                }
                if cur1.te < r2.te {
                    i1 += 1;
                    if i1 < n {
                        cur1 = self.ranges[i1];
                    }
                } else {
                    i2 += 1;
                }
            }
        }
        self.ranges.truncate(w);
        self.ranges.extend_from_slice(&spill);
    }

    /// Set union — the logical disjunction of ongoing booleans. Sweep-line
    /// merge of the two canonical inputs; each range is visited once.
    pub fn union(&self, other: &IntervalSet) -> IntervalSet {
        let (b1, b2) = (self.ranges(), other.ranges());
        let mut out = Ranges::EMPTY;
        let (mut i1, mut i2) = (0usize, 0usize);
        let push = |out: &mut Ranges, r: TimeRange| match out.last_mut() {
            Some(last) if r.ts <= last.te => {
                if r.te > last.te {
                    last.te = r.te;
                }
            }
            _ => out.push(r),
        };
        while i1 < b1.len() || i2 < b2.len() {
            let take_first = match (b1.get(i1), b2.get(i2)) {
                (Some(r1), Some(r2)) => r1.ts <= r2.ts,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => unreachable!(),
            };
            if take_first {
                push(&mut out, b1[i1]);
                i1 += 1;
            } else {
                push(&mut out, b2[i2]);
                i2 += 1;
            }
        }
        IntervalSet { ranges: out }
    }

    /// In-place set union: `*self = self ∪ other`, reusing the receiver's
    /// storage (amortized: a spilled buffer only grows, it is never
    /// reallocated from scratch). The hot-loop variant of
    /// [`union`](Self::union) for accumulator patterns such as folding the
    /// reference span of a relation.
    pub fn union_assign(&mut self, other: &IntervalSet) {
        if other.ranges.is_empty() {
            return;
        }
        if self.ranges.is_empty() {
            self.ranges.extend_from_slice(&other.ranges);
            return;
        }
        // Fast path for the common accumulator case: `other` lies entirely
        // after the receiver — append and merge the boundary.
        let last = *self.ranges.last().expect("non-empty");
        if other.ranges[0].ts >= last.ts {
            let boundary = self.ranges.len() - 1;
            self.ranges.extend_from_slice(&other.ranges);
            coalesce_in_place(&mut self.ranges, boundary);
            return;
        }
        self.ranges.extend_from_slice(&other.ranges);
        self.ranges.sort_unstable();
        coalesce_in_place(&mut self.ranges, 0);
    }

    /// Set complement — the logical negation `¬b[St, Sf] = b[Sf, St]`.
    pub fn complement(&self) -> IntervalSet {
        let mut out = Ranges::EMPTY;
        let mut cursor = TimePoint::NEG_INF;
        for r in self.ranges() {
            if cursor < r.ts {
                out.push(TimeRange {
                    ts: cursor,
                    te: r.ts,
                });
            }
            cursor = r.te;
        }
        if cursor < TimePoint::POS_INF {
            out.push(TimeRange {
                ts: cursor,
                te: TimePoint::POS_INF,
            });
        }
        IntervalSet { ranges: out }
    }

    /// Set difference `self \ other`.
    pub fn difference(&self, other: &IntervalSet) -> IntervalSet {
        self.intersect(&other.complement())
    }

    /// Checks the representation invariant: ranges non-empty, ascending,
    /// disjoint and maximal (no two ranges touch).
    pub fn is_canonical(&self) -> bool {
        self.ranges.iter().all(|r| r.ts < r.te) && self.ranges.windows(2).all(|w| w[0].te < w[1].ts)
    }

    /// Iterates over the contained time points inside `[lo, hi)` — used by
    /// differential tests that compare instantiations at every reference
    /// time of a window.
    pub fn points_in(&self, lo: TimePoint, hi: TimePoint) -> impl Iterator<Item = TimePoint> + '_ {
        self.ranges.iter().flat_map(move |r| {
            let s = r.ts.max_f(lo);
            let e = r.te.min_f(hi);
            (s.ticks()..e.ticks().max(s.ticks())).map(TimePoint::new)
        })
    }
}

/// Merges overlapping or adjacent ranges of a ts-sorted suffix `v[from..]`
/// in place (write index never passes the read index). The prefix
/// `v[..from]` must already be canonical and end before `v[from]` starts.
fn coalesce_in_place(v: &mut Ranges, from: usize) {
    if v.len().saturating_sub(from) < 2 {
        return;
    }
    let mut w = from;
    for i in from + 1..v.len() {
        let r = v[i];
        if r.ts <= v[w].te {
            if r.te > v[w].te {
                v[w].te = r.te;
            }
        } else {
            w += 1;
            v[w] = r;
        }
    }
    v.truncate(w + 1);
}

impl FromIterator<(TimePoint, TimePoint)> for IntervalSet {
    fn from_iter<I: IntoIterator<Item = (TimePoint, TimePoint)>>(iter: I) -> Self {
        IntervalSet::from_ranges(iter)
    }
}

impl fmt::Debug for IntervalSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for IntervalSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, r) in self.ranges.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::tp;

    type RangeCases = [(&'static [(i64, i64)], &'static [(i64, i64)])];

    fn set(ranges: &[(i64, i64)]) -> IntervalSet {
        IntervalSet::from_ranges(ranges.iter().map(|&(a, b)| (tp(a), tp(b))))
    }

    #[test]
    fn construction_drops_empty_and_merges_adjacent() {
        let s = set(&[(5, 5), (3, 1), (0, 2), (2, 4), (10, 12)]);
        assert_eq!(s, set(&[(0, 4), (10, 12)]));
        assert!(s.is_canonical());
        assert_eq!(s.cardinality(), 2);
    }

    #[test]
    fn construction_merges_overlap() {
        let s = set(&[(0, 5), (3, 8), (8, 9)]);
        assert_eq!(s, set(&[(0, 9)]));
        assert_eq!(s.cardinality(), 1);
    }

    #[test]
    fn empty_and_full() {
        assert!(IntervalSet::empty().is_empty());
        assert!(IntervalSet::full().is_full());
        assert!(!IntervalSet::full().is_empty());
        assert!(IntervalSet::full().contains(tp(123)));
        assert!(!IntervalSet::empty().contains(tp(123)));
    }

    #[test]
    fn contains_uses_half_open_semantics() {
        let s = set(&[(0, 3), (10, 20)]);
        assert!(s.contains(tp(0)));
        assert!(s.contains(tp(2)));
        assert!(!s.contains(tp(3)));
        assert!(!s.contains(tp(9)));
        assert!(s.contains(tp(10)));
        assert!(s.contains(tp(19)));
        assert!(!s.contains(tp(20)));
    }

    #[test]
    fn intersect_matches_paper_algorithm_example() {
        // Example 3 of the paper:
        // {(-inf, 08/16)} ∧ {[01/26, inf)} = {[01/26, 08/16)}
        let d0816 = crate::date::md(8, 16);
        let d0126 = crate::date::md(1, 26);
        let a = IntervalSet::range(TimePoint::NEG_INF, d0816);
        let b = IntervalSet::range(d0126, TimePoint::POS_INF);
        assert_eq!(a.intersect(&b), IntervalSet::range(d0126, d0816));
    }

    #[test]
    fn intersect_skips_disjoint_ranges() {
        let a = set(&[(0, 5), (10, 15), (20, 25)]);
        let b = set(&[(5, 10), (15, 20)]);
        assert!(a.intersect(&b).is_empty());
    }

    #[test]
    fn intersect_partial_overlaps() {
        let a = set(&[(0, 10), (20, 30)]);
        let b = set(&[(5, 25)]);
        assert_eq!(a.intersect(&b), set(&[(5, 10), (20, 25)]));
    }

    #[test]
    fn union_merges_touching_ranges() {
        let a = set(&[(0, 5), (10, 15)]);
        let b = set(&[(5, 10)]);
        assert_eq!(a.union(&b), set(&[(0, 15)]));
    }

    #[test]
    fn union_keeps_disjoint_ranges() {
        let a = set(&[(0, 2)]);
        let b = set(&[(4, 6)]);
        assert_eq!(a.union(&b), set(&[(0, 2), (4, 6)]));
    }

    #[test]
    fn complement_roundtrips() {
        let s = set(&[(0, 5), (10, 15)]);
        let c = s.complement();
        assert!(c.contains(tp(-1)));
        assert!(!c.contains(tp(0)));
        assert!(c.contains(tp(5)));
        assert!(c.contains(tp(9)));
        assert!(!c.contains(tp(12)));
        assert!(c.contains(tp(15)));
        assert_eq!(c.complement(), s);
        assert_eq!(IntervalSet::full().complement(), IntervalSet::empty());
        assert_eq!(IntervalSet::empty().complement(), IntervalSet::full());
    }

    #[test]
    fn difference_removes_overlap() {
        let a = set(&[(0, 10)]);
        let b = set(&[(3, 5)]);
        assert_eq!(a.difference(&b), set(&[(0, 3), (5, 10)]));
    }

    #[test]
    fn de_morgan_holds() {
        let a = set(&[(0, 6), (12, 20)]);
        let b = set(&[(4, 15)]);
        assert_eq!(
            a.intersect(&b).complement(),
            a.complement().union(&b.complement())
        );
        assert_eq!(
            a.union(&b).complement(),
            a.complement().intersect(&b.complement())
        );
    }

    #[test]
    fn intersect_assign_matches_intersect() {
        // Includes the spill case: one coarse receiver range split by many
        // `other` fragments (output outgrows the consumed prefix).
        let cases: &RangeCases = &[
            (&[(0, 100)], &[(1, 2), (4, 5), (7, 8), (10, 11), (20, 30)]),
            (&[(0, 10), (20, 30)], &[(5, 25)]),
            (&[(0, 5), (10, 15), (20, 25)], &[(5, 10), (15, 20)]),
            (&[(0, 5)], &[]),
            (&[], &[(0, 5)]),
            (&[(0, 3), (6, 9), (12, 40)], &[(2, 7), (8, 13), (30, 50)]),
        ];
        for (a, b) in cases {
            let (a, b) = (set(a), set(b));
            let mut got = a.clone();
            got.intersect_assign(&b);
            assert_eq!(got, a.intersect(&b), "{a} ∩ {b}");
            assert!(got.is_canonical());
        }
        let mut full = IntervalSet::full();
        full.intersect_assign(&set(&[(1, 2), (3, 4)]));
        assert_eq!(full, set(&[(1, 2), (3, 4)]));
    }

    #[test]
    fn union_assign_matches_union() {
        let cases: &RangeCases = &[
            (&[(0, 5), (10, 15)], &[(5, 10)]),
            (&[(0, 2)], &[(4, 6)]),
            (&[(4, 6)], &[(0, 2)]),          // other strictly before self
            (&[(0, 5)], &[(3, 8), (9, 12)]), // accumulator fast path
            (&[(0, 5)], &[]),
            (&[], &[(0, 5)]),
            (&[(0, 3), (10, 12)], &[(2, 11)]),
        ];
        for (a, b) in cases {
            let (a, b) = (set(a), set(b));
            let mut got = a.clone();
            got.union_assign(&b);
            assert_eq!(got, a.union(&b), "{a} ∪ {b}");
            assert!(got.is_canonical());
        }
    }

    #[test]
    fn assign_ops_differential_sweep() {
        // Deterministic pseudo-random differential test across many shapes.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..500 {
            let mk = |next: &mut dyn FnMut() -> u64| {
                let n = (next() % 5) as usize;
                IntervalSet::from_ranges((0..n).map(|_| {
                    let s = (next() % 40) as i64 - 20;
                    (tp(s), tp(s + (next() % 9) as i64))
                }))
            };
            let a = mk(&mut next);
            let b = mk(&mut next);
            let mut ia = a.clone();
            ia.intersect_assign(&b);
            assert_eq!(ia, a.intersect(&b), "{a} ∩ {b}");
            let mut ua = a.clone();
            ua.union_assign(&b);
            assert_eq!(ua, a.union(&b), "{a} ∪ {b}");
        }
    }

    /// Reference model: a plain `Vec<TimeRange>` computed point by point.
    /// Between two consecutive endpoints of the inputs membership is
    /// constant, so sampling each elementary segment at its start and
    /// merging member segments gives the canonical result — no sweep, no
    /// in-place reuse, and `±∞` endpoints are ordinary boundaries.
    fn model(endpoints: &[TimePoint], member: impl Fn(TimePoint) -> bool) -> Vec<TimeRange> {
        let mut bounds = vec![TimePoint::NEG_INF, TimePoint::POS_INF];
        bounds.extend_from_slice(endpoints);
        bounds.sort_unstable();
        bounds.dedup();
        let mut out: Vec<TimeRange> = Vec::new();
        for w in bounds.windows(2) {
            if !member(w[0]) {
                continue;
            }
            match out.last_mut() {
                Some(last) if last.te == w[0] => last.te = w[1],
                _ => out.push(TimeRange { ts: w[0], te: w[1] }),
            }
        }
        out
    }

    fn ends(rs: &[TimeRange]) -> Vec<TimePoint> {
        rs.iter().flat_map(|r| [r.ts, r.te]).collect()
    }

    fn model_contains(rs: &[TimeRange], t: TimePoint) -> bool {
        rs.iter().any(|r| r.ts <= t && t < r.te)
    }

    fn model_binary(a: &[TimeRange], b: &[TimeRange], f: fn(bool, bool) -> bool) -> Vec<TimeRange> {
        let pts: Vec<TimePoint> = ends(a).into_iter().chain(ends(b)).collect();
        model(&pts, |t| f(model_contains(a, t), model_contains(b, t)))
    }

    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// A finite point in [-20, 20), or (rarely) a domain limit.
        fn point(&mut self) -> TimePoint {
            match self.below(12) {
                0 => TimePoint::NEG_INF,
                1 => TimePoint::POS_INF,
                _ => tp(self.below(40) as i64 - 20),
            }
        }

        /// 0–6 raw (possibly empty, unsorted, overlapping) pairs.
        fn pairs(&mut self) -> Vec<(TimePoint, TimePoint)> {
            let n = self.below(7);
            (0..n)
                .map(|_| {
                    let ts = self.point();
                    let te = if self.below(4) == 0 {
                        self.point()
                    } else {
                        tp(ts.ticks().clamp(-30, 30) + self.below(8) as i64)
                    };
                    (ts, te)
                })
                .collect()
        }
    }

    fn from_pairs_model(pairs: &[(TimePoint, TimePoint)]) -> Vec<TimeRange> {
        let pts: Vec<TimePoint> = pairs.iter().flat_map(|&(a, b)| [a, b]).collect();
        model(&pts, |t| pairs.iter().any(|&(ts, te)| ts <= t && t < te))
    }

    #[test]
    fn op_sequences_match_reference_model() {
        let mut rng = Rng(0x2545_f491_4f6c_dd1d);
        let (mut spills, mut unspills) = (0usize, 0usize);
        for _ in 0..200 {
            let mut cur = IntervalSet::empty();
            let mut want: Vec<TimeRange> = Vec::new();
            for _ in 0..25 {
                let pairs = rng.pairs();
                let other = IntervalSet::from_ranges(pairs.iter().copied());
                assert_eq!(other.ranges(), &from_pairs_model(&pairs)[..], "{pairs:?}");
                assert!(other.is_canonical());
                let o = other.ranges().to_vec();
                let before = cur.cardinality();
                match rng.below(7) {
                    0 => {
                        cur = cur.intersect(&other);
                        want = model_binary(&want, &o, |x, y| x && y);
                    }
                    1 => {
                        cur.intersect_assign(&other);
                        want = model_binary(&want, &o, |x, y| x && y);
                    }
                    2 => {
                        cur = cur.union(&other);
                        want = model_binary(&want, &o, |x, y| x || y);
                    }
                    3 => {
                        cur.union_assign(&other);
                        want = model_binary(&want, &o, |x, y| x || y);
                    }
                    4 => {
                        cur = cur.complement();
                        want = model(&ends(&want), |t| !model_contains(&want, t));
                    }
                    5 => {
                        cur = cur.difference(&other);
                        want = model_binary(&want, &o, |x, y| x && !y);
                    }
                    _ => {
                        cur = other;
                        want = o;
                    }
                }
                assert_eq!(cur.ranges(), &want[..]);
                assert!(cur.is_canonical(), "{cur}");
                let after = cur.cardinality();
                spills += usize::from(before <= INLINE && after > INLINE);
                unspills += usize::from(before > INLINE && after <= INLINE);
            }
        }
        // The sequences cross the inline/spilled boundary both ways.
        assert!(spills > 0 && unspills > 0, "{spills} {unspills}");
        // One long input: two 200-range stripes offset by half a range,
        // so the conjunction keeps a piece of every range.
        let stripes = |offset: i64| {
            IntervalSet::from_ranges(
                (0..200).map(|i| (tp(offset + i * 10), tp(offset + i * 10 + 6))),
            )
        };
        let (a, b) = (stripes(0), stripes(3));
        let want = model_binary(a.ranges(), b.ranges(), |x, y| x && y);
        assert_eq!(want.len(), 200);
        assert_eq!(a.intersect(&b).ranges(), &want[..]);
    }

    #[test]
    fn inline_boundary_crossings_keep_contents() {
        // 2 → 3 ranges: union, in place and not.
        let two = set(&[(0, 2), (4, 6)]);
        let third = set(&[(8, 10)]);
        let mut grown = two.clone();
        grown.union_assign(&third);
        assert!(matches!(grown.ranges, Ranges::Spilled(_)));
        assert_eq!(grown, two.union(&third));
        assert_eq!(grown, set(&[(0, 2), (4, 6), (8, 10)]));
        // Complementing two bounded ranges yields three.
        assert_eq!(two.complement().cardinality(), 3);
        // 3 → 2 and 3 → 1: shrinking in place keeps the spilled buffer.
        let mut shrunk = grown.clone();
        shrunk.intersect_assign(&set(&[(0, 7)]));
        assert_eq!(shrunk, two);
        shrunk.intersect_assign(&set(&[(1, 5)]));
        assert_eq!(shrunk, set(&[(1, 2), (4, 5)]));
        shrunk.intersect_assign(&set(&[(4, 5)]));
        assert_eq!(shrunk, set(&[(4, 5)]));
        // And back up again.
        shrunk.union_assign(&set(&[(-9, -8), (7, 8)]));
        assert_eq!(shrunk, set(&[(-9, -8), (4, 5), (7, 8)]));
    }

    fn hash_of(s: &IntervalSet) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        let mut h = DefaultHasher::new();
        s.hash(&mut h);
        h.finish()
    }

    #[test]
    fn inline_and_spilled_forms_are_equal_and_hash_alike() {
        let inline = set(&[(0, 5), (10, 15)]);
        let mut shrunk = set(&[(0, 5), (10, 15), (20, 25)]);
        shrunk.intersect_assign(&set(&[(0, 16)]));
        assert!(matches!(inline.ranges, Ranges::Inline { .. }));
        assert!(matches!(shrunk.ranges, Ranges::Spilled(_)));
        assert_eq!(shrunk, inline);
        assert_eq!(hash_of(&shrunk), hash_of(&inline));
        // Cloning a shrunk set returns to the inline form.
        assert!(matches!(shrunk.clone().ranges, Ranges::Inline { .. }));
        // The empty set, both ways.
        let mut emptied = set(&[(0, 1), (2, 3), (4, 5)]);
        emptied.intersect_assign(&IntervalSet::empty());
        assert_eq!(emptied, IntervalSet::empty());
        assert_eq!(hash_of(&emptied), hash_of(&IntervalSet::empty()));
        assert_eq!(IntervalSet::default(), IntervalSet::empty());
    }

    #[test]
    fn inline_layout_size_is_pinned() {
        // Two inline ranges (32 bytes) plus length and tag; a heap vector
        // would be 24 bytes but allocate for every set.
        assert!(std::mem::size_of::<IntervalSet>() <= 40);
    }

    #[test]
    fn total_duration_counts_points() {
        assert_eq!(set(&[(0, 5), (10, 12)]).total_duration(), 7);
        assert_eq!(IntervalSet::full().total_duration(), i64::MAX);
        assert_eq!(IntervalSet::empty().total_duration(), 0);
    }

    #[test]
    fn points_in_enumerates_window() {
        let s = set(&[(0, 3), (8, 10)]);
        let pts: Vec<i64> = s.points_in(tp(1), tp(9)).map(|p| p.ticks()).collect();
        assert_eq!(pts, vec![1, 2, 8]);
    }

    #[test]
    fn point_constructor_is_singleton() {
        let s = IntervalSet::point(tp(7));
        assert!(s.contains(tp(7)));
        assert!(!s.contains(tp(6)));
        assert!(!s.contains(tp(8)));
        assert_eq!(s.total_duration(), 1);
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(IntervalSet::full().to_string(), "{[-inf, +inf)}");
        assert_eq!(set(&[(1, 3), (5, 9)]).to_string(), "{[1, 3), [5, 9)}");
        assert_eq!(IntervalSet::empty().to_string(), "{}");
    }
}
