//! Table statistics for cost-based planning (the `ANALYZE` subsystem).
//!
//! The relative cost of the engine's join strategies depends on the data
//! shape: hash joins win when fixed equality keys are selective, the
//! envelope sweep join wins when temporal predicates prune harder than the
//! keys, nested loops only ever win on tiny inputs. This module collects
//! the summaries that let the optimizer make that choice *per workload*
//! instead of hard-coding it:
//!
//! * per-table row counts,
//! * per-column **fixed summaries** — exact distinct counts plus an
//!   equi-depth [`PointHistogram`] for integer/time attributes,
//! * per-column **interval summaries** for (ongoing) interval attributes —
//!   start-point, end-point and envelope-length histograms, the ongoing
//!   fraction, a deterministic stride sample of instantiation envelopes,
//!   and a self-join overlap-density estimate.
//!
//! Statistics are collected by [`analyze_relation`] (wired to
//! `Database::analyze` / the OngoingQL `ANALYZE` statement) and consumed by
//! the work-unit cost model in [`cost`].

pub mod cost;

use ongoing_core::hist::DEFAULT_BUCKETS;
use ongoing_core::PointHistogram;
use ongoing_relation::{OngoingRelation, PagerError, Value, ValueType};
use std::collections::HashSet;
use std::sync::Arc;

/// Size of the deterministic envelope sample kept per interval column.
pub const SAMPLE_SIZE: usize = 128;

/// Summary of a fixed (non-temporal) attribute.
#[derive(Debug, Clone)]
pub struct FixedSummary {
    /// Exact number of distinct values at analyze time.
    pub distinct: u64,
    /// Value histogram for orderable numeric domains (`Int`, `Time`,
    /// `Bool`); `None` for strings.
    pub histogram: Option<PointHistogram>,
}

/// Summary of an (ongoing) interval attribute.
///
/// All histograms are built over the **instantiation envelopes**
/// `[ts.a, te.b)` of the non-empty intervals — the same abstraction the
/// sweep join operates on, so estimates and executor work units speak the
/// same language.
#[derive(Debug, Clone)]
pub struct IntervalSummary {
    /// Rows analyzed (including always-empty envelopes).
    pub rows: u64,
    /// Intervals with a non-empty envelope (`ts.a < te.b`).
    pub nonempty: u64,
    /// Intervals with at least one ongoing endpoint.
    pub ongoing: u64,
    /// Envelope start points.
    pub starts: PointHistogram,
    /// Envelope end points (`∞` for ongoing ends, kept as a saturated
    /// tick so the mass above any finite query point stays visible).
    pub ends: PointHistogram,
    /// Envelope lengths in ticks (saturating for infinite envelopes).
    pub lengths: PointHistogram,
    /// Deterministic stride sample of non-empty envelopes `(start, end)`
    /// in ticks, used to estimate join pair counts.
    pub sample: Vec<(i64, i64)>,
    /// Overlap density: the mean, over the sample, of the fraction of this
    /// column's envelopes a single envelope overlaps — the expected
    /// candidate fraction of an envelope self-join.
    pub overlap_density: f64,
}

impl IntervalSummary {
    /// Fraction of rows with a non-empty envelope.
    pub fn nonempty_frac(&self) -> f64 {
        if self.rows == 0 {
            return 0.0;
        }
        self.nonempty as f64 / self.rows as f64
    }

    /// Fraction of rows with an ongoing endpoint.
    pub fn ongoing_frac(&self) -> f64 {
        if self.rows == 0 {
            return 0.0;
        }
        self.ongoing as f64 / self.rows as f64
    }

    /// Median envelope length in ticks, `None` when no non-empty envelopes
    /// exist or the median envelope is infinite (ongoing-dominated
    /// columns). The robust summary of the length histogram — a mean would
    /// be swamped by the saturated lengths of ongoing intervals.
    pub fn median_envelope_days(&self) -> Option<i64> {
        self.lengths.median().filter(|&m| m < i64::MAX - 1)
    }

    /// Estimated fraction of the *non-empty* envelopes that overlap the
    /// query envelope `[qs, qe)`.
    ///
    /// Uses the exact identity `#(s < qe ∧ e > qs) = #(s < qe) − #(e <= qs)`
    /// (an envelope ending at or before `qs` necessarily also starts before
    /// `qe`), so the only error is histogram interpolation error.
    pub fn overlap_frac(&self, qs: i64, qe: i64) -> f64 {
        if qs >= qe {
            return 0.0;
        }
        (self.starts.frac_lt(qe) - self.ends.frac_le(qs)).clamp(0.0, 1.0)
    }

    /// Estimated fraction of `left × right` pairs whose envelopes overlap —
    /// the sweep join's candidate selectivity. Averages the right-side
    /// overlap fraction over the left sample (falling back to the mirrored
    /// direction, then to the overlap density).
    pub fn pair_overlap_frac(&self, other: &IntervalSummary) -> f64 {
        let avg_over = |sample: &[(i64, i64)], against: &IntervalSummary| -> Option<f64> {
            if sample.is_empty() {
                return None;
            }
            let sum: f64 = sample
                .iter()
                .map(|&(s, e)| against.overlap_frac(s, e))
                .sum();
            Some(sum / sample.len() as f64)
        };
        let frac = avg_over(&self.sample, other)
            .or_else(|| avg_over(&other.sample, self))
            .unwrap_or_else(|| self.overlap_density.max(other.overlap_density));
        (frac * self.nonempty_frac() * other.nonempty_frac()).clamp(0.0, 1.0)
    }
}

/// Per-column statistics.
#[derive(Debug, Clone)]
pub enum ColumnStats {
    /// A fixed attribute.
    Fixed(Arc<FixedSummary>),
    /// An (ongoing) interval attribute.
    Interval(Arc<IntervalSummary>),
    /// A type the subsystem keeps no summary for (ongoing points, ongoing
    /// integers); only the row count applies.
    Opaque,
}

/// Statistics of one table, produced by `ANALYZE`.
#[derive(Debug, Clone)]
pub struct TableStatistics {
    /// Row count at analyze time.
    pub rows: u64,
    /// One entry per schema attribute.
    pub columns: Vec<ColumnStats>,
}

impl TableStatistics {
    /// The fixed summary of column `i`, if one was collected.
    pub fn fixed(&self, i: usize) -> Option<&Arc<FixedSummary>> {
        match self.columns.get(i) {
            Some(ColumnStats::Fixed(f)) => Some(f),
            _ => None,
        }
    }

    /// The interval summary of column `i`, if one was collected.
    pub fn interval(&self, i: usize) -> Option<&Arc<IntervalSummary>> {
        match self.columns.get(i) {
            Some(ColumnStats::Interval(s)) => Some(s),
            _ => None,
        }
    }

    /// One-line rendering per column, for diagnostics and the repro
    /// binaries.
    pub fn describe(&self, schema: &ongoing_relation::Schema) -> String {
        let mut out = format!("rows={}\n", self.rows);
        for (attr, col) in schema.attrs().iter().zip(&self.columns) {
            match col {
                ColumnStats::Fixed(f) => {
                    out.push_str(&format!("  {}: distinct={}\n", attr.name, f.distinct));
                }
                ColumnStats::Interval(s) => {
                    out.push_str(&format!(
                        "  {}: nonempty={} ongoing={:.0}% overlap-density={:.4} median-envelope={}\n",
                        attr.name,
                        s.nonempty,
                        s.ongoing_frac() * 100.0,
                        s.overlap_density,
                        s.median_envelope_days()
                            .map(|d| d.to_string())
                            .unwrap_or_else(|| "∞".into()),
                    ));
                }
                ColumnStats::Opaque => {
                    out.push_str(&format!("  {}: (no summary)\n", attr.name));
                }
            }
        }
        out
    }
}

/// The instantiation envelope of a value's interval, in ticks, if the value
/// is an interval with a non-empty envelope.
fn envelope(v: &Value) -> Option<(i64, i64)> {
    let iv = v.as_interval()?;
    let (s, e) = (iv.ts().a(), iv.te().b());
    (s < e).then(|| (s.ticks(), e.ticks()))
}

/// One column's statistics under construction, fed one value per row.
enum ColumnAcc {
    /// A fixed attribute: for orderable types the histogram keys, which
    /// also give the distinct count once sorted; every other value is
    /// kept in `others` (owned; a `Str` clone is an `Arc` bump).
    Fixed {
        ty: ValueType,
        keys: Vec<i64>,
        others: HashSet<Value>,
    },
    /// An interval attribute: ongoing count and non-empty envelopes.
    Interval {
        ongoing: u64,
        envelopes: Vec<(i64, i64)>,
    },
    Opaque,
}

impl ColumnAcc {
    fn new(ty: ValueType) -> Self {
        match ty {
            ValueType::OngoingInterval | ValueType::Span => ColumnAcc::Interval {
                ongoing: 0,
                envelopes: Vec::new(),
            },
            ValueType::Int | ValueType::Str | ValueType::Bool | ValueType::Time => {
                ColumnAcc::Fixed {
                    ty,
                    keys: Vec::new(),
                    others: HashSet::new(),
                }
            }
            ValueType::OngoingPoint | ValueType::OngoingInt => ColumnAcc::Opaque,
        }
    }

    fn add(&mut self, v: &Value) {
        match self {
            ColumnAcc::Fixed { ty, keys, others } => match (*ty, v) {
                (ValueType::Int, Value::Int(n)) => keys.push(*n),
                (ValueType::Time, Value::Time(p)) => keys.push(p.ticks()),
                (ValueType::Bool, Value::Bool(b)) => keys.push(i64::from(*b)),
                _ => {
                    if !others.contains(v) {
                        others.insert(v.clone());
                    }
                }
            },
            ColumnAcc::Interval { ongoing, envelopes } => {
                if v.as_interval().is_some_and(|iv| iv.is_ongoing()) {
                    *ongoing += 1;
                }
                envelopes.extend(envelope(v));
            }
            ColumnAcc::Opaque => {}
        }
    }

    fn finish(self, rows: u64) -> ColumnStats {
        match self {
            ColumnAcc::Fixed {
                ty,
                mut keys,
                others,
            } => {
                // Keys of one column are all of its type, so none equals
                // a value in `others`.
                keys.sort_unstable();
                let mut distinct = others.len() as u64;
                distinct += keys.windows(2).filter(|w| w[0] != w[1]).count() as u64;
                distinct += u64::from(!keys.is_empty());
                let histogram = match ty {
                    ValueType::Int | ValueType::Time => {
                        Some(PointHistogram::build(keys, DEFAULT_BUCKETS))
                    }
                    ValueType::Bool => Some(PointHistogram::build(keys, 2)),
                    _ => None,
                };
                ColumnStats::Fixed(Arc::new(FixedSummary {
                    distinct,
                    histogram,
                }))
            }
            ColumnAcc::Interval { ongoing, envelopes } => {
                ColumnStats::Interval(Arc::new(interval_summary(rows, ongoing, envelopes)))
            }
            ColumnAcc::Opaque => ColumnStats::Opaque,
        }
    }
}

fn interval_summary(rows: u64, ongoing: u64, envelopes: Vec<(i64, i64)>) -> IntervalSummary {
    let starts = envelopes.iter().map(|&(s, _)| s).collect();
    let ends = envelopes.iter().map(|&(_, e)| e).collect();
    let lengths = envelopes
        .iter()
        .map(|&(s, e)| e.saturating_sub(s))
        .collect();
    let nonempty = envelopes.len() as u64;
    let stride = (envelopes.len() / SAMPLE_SIZE).max(1);
    let sample: Vec<(i64, i64)> = envelopes.iter().step_by(stride).copied().collect();
    let mut summary = IntervalSummary {
        rows,
        nonempty,
        ongoing,
        starts: PointHistogram::build(starts, DEFAULT_BUCKETS),
        ends: PointHistogram::build(ends, DEFAULT_BUCKETS),
        lengths: PointHistogram::build(lengths, DEFAULT_BUCKETS),
        sample,
        overlap_density: 0.0,
    };
    if !summary.sample.is_empty() {
        let sum: f64 = summary
            .sample
            .iter()
            .map(|&(s, e)| summary.overlap_frac(s, e))
            .sum();
        summary.overlap_density = sum / summary.sample.len() as f64;
    }
    summary
}

/// Collects full statistics over one relation — the `ANALYZE` primitive.
///
/// One pass over the relation's chunks, each pinned only while it is read
/// ([`OngoingRelation::lazy_views`]): a cold table pages in one chunk at
/// a time within the chunk-cache budget and stays cold afterwards, and a
/// pager failure is an error. The walk is deterministic (stride sampling,
/// no randomness), so repeated analyzes of the same data produce
/// identical statistics and therefore identical plans.
pub fn analyze_relation(rel: &OngoingRelation) -> Result<TableStatistics, PagerError> {
    let mut columns: Vec<ColumnAcc> = rel
        .schema()
        .attrs()
        .iter()
        .map(|attr| ColumnAcc::new(attr.ty))
        .collect();
    for view in rel.lazy_views() {
        for t in view.pin()?.iter() {
            for (acc, v) in columns.iter_mut().zip(t.values()) {
                acc.add(v);
            }
        }
    }
    let rows = rel.len() as u64;
    Ok(TableStatistics {
        rows,
        columns: columns.into_iter().map(|c| c.finish(rows)).collect(),
    })
}

/// Convenience: the envelope of a constant interval value in ticks
/// (used by the cost model for `Col pred literal` selections).
pub fn const_envelope(v: &Value) -> Option<(i64, i64)> {
    envelope(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ongoing_core::date::md;
    use ongoing_core::{OngoingInterval, TimePoint};
    use ongoing_relation::Schema;

    fn rel() -> OngoingRelation {
        let schema = Schema::builder().int("K").str("C").interval("VT").build();
        let mut r = OngoingRelation::new(schema);
        for i in 0..100i64 {
            let vt = if i % 5 == 0 {
                OngoingInterval::from_until_now(md(1, 1))
            } else {
                OngoingInterval::fixed(
                    TimePoint::new(md(1, 1).ticks() + i),
                    TimePoint::new(md(1, 1).ticks() + i + 10),
                )
            };
            r.insert(vec![
                Value::Int(i % 4),
                Value::str(if i % 2 == 0 { "a" } else { "b" }),
                Value::Interval(vt),
            ])
            .unwrap();
        }
        r
    }

    #[test]
    fn analyze_counts_rows_and_distincts() {
        let s = analyze_relation(&rel()).unwrap();
        assert_eq!(s.rows, 100);
        assert_eq!(s.fixed(0).unwrap().distinct, 4);
        assert_eq!(s.fixed(1).unwrap().distinct, 2);
        assert!(s.fixed(0).unwrap().histogram.is_some());
        assert!(
            s.fixed(1).unwrap().histogram.is_none(),
            "no string histogram"
        );
    }

    #[test]
    fn distinct_counts_every_fixed_type() {
        let schema = Schema::builder().bool("B").time("T").int("K").build();
        let mut r = OngoingRelation::new(schema);
        for i in 0..50i64 {
            r.insert(vec![
                Value::Bool(i % 3 == 0),
                Value::Time(TimePoint::new(i % 7 - 3)),
                Value::Int(i.min(9)),
            ])
            .unwrap();
        }
        let s = analyze_relation(&r).unwrap();
        let distinct = |c| s.fixed(c).unwrap().distinct;
        assert_eq!((distinct(0), distinct(1), distinct(2)), (2, 7, 10));
        let empty = analyze_relation(&OngoingRelation::new(r.schema().clone())).unwrap();
        assert_eq!(empty.fixed(2).unwrap().distinct, 0);
    }

    #[test]
    fn interval_summary_tracks_ongoing_and_overlap() {
        let s = analyze_relation(&rel()).unwrap();
        let iv = s.interval(2).unwrap();
        assert_eq!(iv.rows, 100);
        assert_eq!(iv.nonempty, 100);
        assert_eq!(iv.ongoing, 20);
        assert!(iv.overlap_density > 0.0 && iv.overlap_density <= 1.0);
        // A window over the whole data overlaps everything.
        let all = iv.overlap_frac(md(1, 1).ticks() - 10, md(1, 1).ticks() + 1000);
        assert!(all > 0.95, "{all}");
        // A window strictly before the data overlaps nothing.
        let none = iv.overlap_frac(0, md(1, 1).ticks() - 100);
        assert!(none < 0.05, "{none}");
    }

    #[test]
    fn pair_overlap_uses_samples_symmetrically() {
        let s = analyze_relation(&rel()).unwrap();
        let iv = s.interval(2).unwrap();
        let f = iv.pair_overlap_frac(iv);
        let g = iv.overlap_density;
        assert!((f - g).abs() < 0.05, "self pair frac {f} vs density {g}");
    }

    #[test]
    fn always_empty_envelopes_are_excluded() {
        let schema = Schema::builder().interval("VT").build();
        let mut r = OngoingRelation::new(schema);
        r.insert(vec![Value::Interval(OngoingInterval::fixed(
            md(5, 1),
            md(2, 1),
        ))])
        .unwrap();
        let s = analyze_relation(&r).unwrap();
        let iv = s.interval(0).unwrap();
        assert_eq!(iv.rows, 1);
        assert_eq!(iv.nonempty, 0);
        assert_eq!(iv.nonempty_frac(), 0.0);
        assert_eq!(iv.pair_overlap_frac(iv), 0.0);
    }

    #[test]
    fn describe_mentions_every_column() {
        let s = analyze_relation(&rel()).unwrap();
        let d = s.describe(rel().schema());
        assert!(d.contains("rows=100"));
        assert!(d.contains("K:"));
        assert!(d.contains("VT:"));
    }
}
