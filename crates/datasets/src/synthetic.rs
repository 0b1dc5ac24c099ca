//! The synthetic data sets Dex, Dsh and Dsc (Table III).
//!
//! | set | intervals | % ongoing | span | role |
//! |-----|-----------|-----------|------|------|
//! | Dex | `[a, now)` (expanding) | 15 % | 10 y | Fig. 9a — location of ongoing *start* points |
//! | Dsh | `[now, b)` (shrinking) | 15 % | 10 y | Fig. 9b — location of ongoing *end* points |
//! | Dsc | `[a, now)` | 20 % | 10 y | Fig. 10 — scalability in the input size |
//!
//! The paper places all ongoing start (Dex) or end (Dsh) points into one of
//! five two-year *ongoing segments*; [`SyntheticConfig::ongoing_segment`]
//! reproduces that. Every generator is deterministic per seed.
//!
//! Schema: `(ID: Int, K: Int, VT: OngoingInterval)` — `K` is the
//! non-temporal join attribute for `Q⋈` (`θN`: `R.K = S.K`), with a
//! configurable group size controlling the equi-join fan-out.

use crate::history::History;
use ongoing_core::{OngoingInterval, TimePoint};
use ongoing_relation::{OngoingRelation, Schema, Value};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The two ongoing interval shapes of the experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OngoingKind {
    /// `[a, now)`: duration grows as the reference time increases.
    Expanding,
    /// `[now, b)`: duration shrinks as the reference time increases.
    Shrinking,
}

/// Generator configuration for the synthetic data sets.
#[derive(Debug, Clone)]
pub struct SyntheticConfig {
    /// Number of tuples.
    pub n: usize,
    /// Fraction of tuples with ongoing intervals (0.15 for Dex/Dsh, 0.20
    /// for Dsc).
    pub ongoing_pct: f64,
    /// Shape of the ongoing intervals.
    pub kind: OngoingKind,
    /// If set, all ongoing start points (expanding) or end points
    /// (shrinking) fall into this segment (0..`segments`); otherwise they
    /// are uniform over the history.
    pub ongoing_segment: Option<usize>,
    /// Number of ongoing segments the history divides into (the paper uses
    /// 5 segments of 2 years).
    pub segments: usize,
    /// Tuples per join-key group (equi-join fan-out of `Q⋈`).
    pub join_group_size: usize,
    /// Maximum duration of fixed intervals, in days.
    pub max_fixed_duration: i64,
    /// RNG seed.
    pub seed: u64,
}

impl SyntheticConfig {
    /// Dex: expanding intervals `[a, now)`, 15 % ongoing.
    pub fn dex(n: usize, ongoing_segment: Option<usize>, seed: u64) -> Self {
        SyntheticConfig {
            n,
            ongoing_pct: 0.15,
            kind: OngoingKind::Expanding,
            ongoing_segment,
            segments: 5,
            join_group_size: 4,
            max_fixed_duration: 90,
            seed,
        }
    }

    /// Dsh: shrinking intervals `[now, b)`, 15 % ongoing.
    pub fn dsh(n: usize, ongoing_segment: Option<usize>, seed: u64) -> Self {
        SyntheticConfig {
            kind: OngoingKind::Shrinking,
            ..SyntheticConfig::dex(n, ongoing_segment, seed)
        }
    }

    /// Dsc: expanding intervals, 20 % ongoing (the scalability data set).
    pub fn dsc(n: usize, seed: u64) -> Self {
        SyntheticConfig {
            ongoing_pct: 0.20,
            ..SyntheticConfig::dex(n, None, seed)
        }
    }
}

/// The schema `(ID, K, VT)`.
pub fn synthetic_schema() -> Schema {
    Schema::builder().int("ID").int("K").interval("VT").build()
}

/// Generates a synthetic relation per the configuration.
pub fn generate(cfg: &SyntheticConfig) -> OngoingRelation {
    let history = History::synthetic();
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut rel = OngoingRelation::new(synthetic_schema());
    let ongoing_window = cfg
        .ongoing_segment
        .map(|i| history.segment(i, cfg.segments))
        .unwrap_or(history);
    for id in 0..cfg.n {
        let k = (id / cfg.join_group_size.max(1)) as i64;
        let vt = if rng.gen_bool(cfg.ongoing_pct) {
            let anchor = sample_day(&mut rng, ongoing_window);
            match cfg.kind {
                OngoingKind::Expanding => OngoingInterval::from_until_now(anchor),
                OngoingKind::Shrinking => OngoingInterval::from_now_until(anchor),
            }
        } else {
            let start = sample_day(&mut rng, history);
            let dur = rng.gen_range(1..=cfg.max_fixed_duration);
            let end = TimePoint::new((start.ticks() + dur).min(history.end.ticks()));
            // Clamping can collapse the interval; keep at least one day.
            let end = if end <= start { start.succ() } else { end };
            OngoingInterval::fixed(start, end)
        };
        rel.insert(vec![
            Value::Int(id as i64),
            Value::Int(k),
            Value::Interval(vt),
        ])
        .expect("schema arity");
    }
    rel
}

/// Replaces every ongoing interval with a fixed one anchored at the history
/// end — the paper's "w/out ongoing intervals" baseline of Fig. 9
/// ("we replaced all ongoing time intervals ... with fixed time
/// intervals").
pub fn defuse(rel: &OngoingRelation, vt_col: usize, fixed_end: TimePoint) -> OngoingRelation {
    let mut out = OngoingRelation::new(rel.schema().clone());
    for t in rel.iter() {
        let mut values = t.values().to_vec();
        if let Value::Interval(iv) = &values[vt_col] {
            if iv.is_ongoing() {
                let (s, e) = (iv.ts(), iv.te());
                let fixed = if s.is_ongoing() {
                    // [now, b): anchor the start at the history start.
                    OngoingInterval::fixed(e.a().pred().min_f(e.a()), e.a())
                } else {
                    // [a, now): anchor the end at `fixed_end`.
                    let end = fixed_end.max_f(s.a().succ());
                    OngoingInterval::fixed(s.a(), end)
                };
                values[vt_col] = Value::Interval(fixed);
            }
        }
        out.push(ongoing_relation_tuple(values, t.rt().clone()));
    }
    out
}

fn ongoing_relation_tuple(
    values: Vec<Value>,
    rt: ongoing_core::IntervalSet,
) -> ongoing_relation::Tuple {
    ongoing_relation::Tuple::with_rt(values, rt)
}

/// Uniform day inside a history window.
pub(crate) fn sample_day<R: Rng>(rng: &mut R, h: History) -> TimePoint {
    TimePoint::new(rng.gen_range(h.start.ticks()..h.end.ticks()))
}

/// Summary statistics for Table III.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetStats {
    /// Cardinality.
    pub n: usize,
    /// Number of tuples with ongoing intervals.
    pub ongoing: usize,
    /// Earliest interval start.
    pub first_start: Option<TimePoint>,
    /// Latest finite end point.
    pub last_end: Option<TimePoint>,
}

impl DatasetStats {
    /// Percentage of ongoing tuples.
    pub fn ongoing_pct(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        self.ongoing as f64 / self.n as f64 * 100.0
    }
}

/// Computes Table III statistics over an interval column.
pub fn stats(rel: &OngoingRelation, vt_col: usize) -> DatasetStats {
    let mut s = DatasetStats {
        n: rel.len(),
        ongoing: 0,
        first_start: None,
        last_end: None,
    };
    for t in rel.iter() {
        if let Some(iv) = t.value(vt_col).as_interval() {
            if iv.is_ongoing() {
                s.ongoing += 1;
            }
            let start = iv.ts().a();
            if start.is_finite() {
                s.first_start = Some(s.first_start.map_or(start, |f| f.min_f(start)));
            }
            for cand in [iv.te().a(), iv.te().b()] {
                if cand.is_finite() {
                    s.last_end = Some(s.last_end.map_or(cand, |l| l.max_f(cand)));
                }
            }
        }
    }
    s
}

/// Cumulative distribution of ongoing interval anchor points (start points
/// of expanding, end points of shrinking intervals) — the Fig. 7 curves.
/// Returns `(bucket upper bound, cumulative count)` for `buckets` equal
/// slices of the history.
pub fn cumulative_ongoing_anchors(
    rel: &OngoingRelation,
    vt_col: usize,
    history: History,
    buckets: usize,
) -> Vec<(TimePoint, usize)> {
    let mut counts = vec![0usize; buckets];
    let len = history.days();
    for t in rel.iter() {
        let Some(iv) = t.value(vt_col).as_interval() else {
            continue;
        };
        if !iv.is_ongoing() {
            continue;
        }
        let anchor = if iv.ts().is_ongoing() {
            iv.te().a()
        } else {
            iv.ts().a()
        };
        if !anchor.is_finite() {
            continue;
        }
        let off = history.start.distance_to(anchor).clamp(0, len - 1);
        let b = (off * buckets as i64 / len).clamp(0, buckets as i64 - 1) as usize;
        counts[b] += 1;
    }
    let mut acc = 0;
    (0..buckets)
        .map(|b| {
            acc += counts[b];
            let bound =
                TimePoint::new(history.start.ticks() + len * (b as i64 + 1) / buckets as i64);
            (bound, acc)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cardinality_and_ongoing_fraction() {
        let rel = generate(&SyntheticConfig::dex(2000, None, 42));
        let s = stats(&rel, 2);
        assert_eq!(s.n, 2000);
        assert!((s.ongoing_pct() - 15.0).abs() < 2.5, "{}", s.ongoing_pct());
    }

    #[test]
    fn dsc_has_20_pct_ongoing() {
        let rel = generate(&SyntheticConfig::dsc(2000, 42));
        let s = stats(&rel, 2);
        assert!((s.ongoing_pct() - 20.0).abs() < 2.5);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&SyntheticConfig::dex(100, Some(2), 7));
        let b = generate(&SyntheticConfig::dex(100, Some(2), 7));
        assert_eq!(a, b);
        let c = generate(&SyntheticConfig::dex(100, Some(2), 8));
        assert_ne!(a, c);
    }

    #[test]
    fn expanding_segment_placement() {
        let h = History::synthetic();
        for seg in 0..5 {
            let rel = generate(&SyntheticConfig::dex(500, Some(seg), 1));
            let window = h.segment(seg, 5);
            for t in rel.iter() {
                let iv = t.value(2).as_interval().unwrap();
                if iv.is_ongoing() {
                    assert_eq!(iv.te().b(), TimePoint::POS_INF, "expanding shape");
                    assert!(window.contains(iv.ts().a()), "start in segment {seg}");
                }
            }
        }
    }

    #[test]
    fn shrinking_segment_placement() {
        let h = History::synthetic();
        let rel = generate(&SyntheticConfig::dsh(500, Some(3), 1));
        let window = h.segment(3, 5);
        let mut seen = 0;
        for t in rel.iter() {
            let iv = t.value(2).as_interval().unwrap();
            if iv.is_ongoing() {
                seen += 1;
                assert!(iv.ts().is_ongoing(), "shrinking shape starts at now");
                assert!(window.contains(iv.te().a()), "end in segment");
            }
        }
        assert!(seen > 30);
    }

    #[test]
    fn fixed_intervals_stay_inside_history() {
        let h = History::synthetic();
        let rel = generate(&SyntheticConfig::dex(1000, None, 3));
        for t in rel.iter() {
            let iv = t.value(2).as_interval().unwrap();
            if !iv.is_ongoing() {
                assert!(iv.ts().a() >= h.start);
                assert!(iv.te().a() <= h.end);
                assert!(iv.ts().a() < iv.te().a(), "non-empty fixed interval");
            }
        }
    }

    #[test]
    fn join_groups_have_requested_size() {
        let rel = generate(&SyntheticConfig {
            join_group_size: 3,
            ..SyntheticConfig::dex(9, None, 1)
        });
        let ks: Vec<i64> = rel.iter().map(|t| t.value(1).as_int().unwrap()).collect();
        assert_eq!(ks, vec![0, 0, 0, 1, 1, 1, 2, 2, 2]);
    }

    #[test]
    fn defuse_removes_all_ongoing_intervals() {
        let h = History::synthetic();
        let rel = generate(&SyntheticConfig::dex(500, Some(1), 9));
        let fixed = defuse(&rel, 2, h.end);
        assert_eq!(stats(&fixed, 2).ongoing, 0);
        assert_eq!(fixed.len(), rel.len());
        // Previously-ongoing expanding intervals now end at the history end.
        for (t, u) in rel.iter().zip(fixed.iter()) {
            let was = t.value(2).as_interval().unwrap();
            let is = u.value(2).as_interval().unwrap();
            if was.is_ongoing() {
                assert!(!is.is_ongoing());
            } else {
                assert_eq!(was, is);
            }
        }
    }

    #[test]
    fn cumulative_anchors_are_monotone() {
        let h = History::synthetic();
        let rel = generate(&SyntheticConfig::dex(1000, Some(4), 5));
        let curve = cumulative_ongoing_anchors(&rel, 2, h, 10);
        assert_eq!(curve.len(), 10);
        for w in curve.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        // Segment 4 = last fifth: the first 8 buckets stay at zero.
        assert_eq!(curve[7].1, 0);
        assert_eq!(curve[9].1, stats(&rel, 2).ongoing);
    }
}
