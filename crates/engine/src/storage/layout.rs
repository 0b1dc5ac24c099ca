//! The per-tuple storage layout model (Sec. VIII "Reference Time RT" and
//! Sec. IX-D, Table V).
//!
//! The paper stores a tuple's reference time as a PostgreSQL variable-length
//! `array` of fixed ranges, and extends the 4-byte `date` into an 8-byte
//! pair for ongoing time points. We model the equivalent layout explicitly
//! so the Table V experiment (per-tuple storage overhead) can be measured
//! byte-for-byte:
//!
//! | piece | bytes |
//! |-------|-------|
//! | tuple header | 24 |
//! | `Int` | 8 |
//! | `Str` | 4 + len (varlena-style) |
//! | `Bool` | 1 |
//! | fixed time point (`Time`) | 4 (a day-granularity date, as in PostgreSQL) |
//! | ongoing time point | 8 (two dates — the paper's "doubling") |
//! | fixed interval (`Span`) | 8 |
//! | ongoing interval | 16 (the paper's "+8 Bytes" over a fixed `VT`) |
//! | `RT` array | 13 + 16 × #ranges (29 B in the typical 1-range case, matching Table V) |
//!
//! The absolute constants differ slightly from PostgreSQL varlena internals;
//! what the experiment depends on — a constant typical `RT` overhead that is
//! large relative to small tuples and negligible for 1 kB tuples — is
//! preserved. See "Dataset substitution" in `EXPERIMENTS.md`.

use crate::error::Result;
use ongoing_relation::{OngoingRelation, Tuple, Value};

/// Byte size of the fixed per-tuple header.
pub const TUPLE_HEADER_BYTES: usize = 24;
/// Base byte cost of the `RT` array (varlena-style header).
pub const RT_HEADER_BYTES: usize = 13;
/// Byte cost per fixed range in the `RT` array.
pub const RT_RANGE_BYTES: usize = 16;

/// Byte-size breakdown of one stored tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TupleFootprint {
    /// Fixed header bytes.
    pub header: usize,
    /// Attribute payload bytes.
    pub attrs: usize,
    /// Reference-time attribute bytes.
    pub rt: usize,
}

impl TupleFootprint {
    /// Total stored bytes.
    pub fn total(&self) -> usize {
        self.header + self.attrs + self.rt
    }

    /// Fraction of the total contributed by `RT`.
    pub fn rt_share(&self) -> f64 {
        self.rt as f64 / self.total() as f64
    }
}

/// Bytes needed to store one attribute value.
pub fn value_bytes(v: &Value) -> usize {
    match v {
        Value::Int(_) => 8,
        Value::Str(s) => 4 + s.len(),
        Value::Bool(_) => 1,
        Value::Time(_) => 4,
        Value::Span(..) => 8,
        Value::Point(_) => 8,
        Value::Interval(_) => 16,
        // Ongoing integers store a varlena-style piece list.
        Value::Count(c) => 4 + 24 * c.piece_count(),
    }
}

/// Bytes needed to store a reference time with `ranges` fixed ranges.
pub fn rt_bytes(ranges: usize) -> usize {
    RT_HEADER_BYTES + RT_RANGE_BYTES * ranges
}

/// Measures one tuple.
pub fn measure_tuple(t: &Tuple) -> TupleFootprint {
    TupleFootprint {
        header: TUPLE_HEADER_BYTES,
        attrs: t.values().iter().map(value_bytes).sum(),
        rt: rt_bytes(t.rt().cardinality()),
    }
}

/// Measures the same tuple as the instantiating baselines would store it:
/// no `RT` attribute, ongoing values replaced by their fixed counterparts
/// (halving interval storage) — the "fixed tuple size" row of Table V.
pub fn measure_tuple_fixed(t: &Tuple) -> TupleFootprint {
    let attrs = t
        .values()
        .iter()
        .map(|v| match v {
            Value::Point(_) => 4,
            Value::Interval(_) => 8,
            Value::Count(_) => 8, // instantiated to a fixed integer
            other => value_bytes(other),
        })
        .sum();
    TupleFootprint {
        header: TUPLE_HEADER_BYTES,
        attrs,
        rt: 0,
    }
}

/// Aggregate storage statistics of a relation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RelationFootprint {
    /// Number of tuples measured.
    pub tuples: usize,
    /// Total ongoing-format bytes.
    pub total_bytes: usize,
    /// Total bytes of the `RT` attributes.
    pub rt_bytes: usize,
    /// Total bytes in the fixed (baseline) format.
    pub fixed_bytes: usize,
    /// Maximum `RT` cardinality observed.
    pub max_rt_cardinality: usize,
}

impl RelationFootprint {
    /// Average ongoing tuple size in bytes.
    pub fn avg_tuple_bytes(&self) -> f64 {
        if self.tuples == 0 {
            return 0.0;
        }
        self.total_bytes as f64 / self.tuples as f64
    }

    /// Average `RT` bytes per tuple.
    pub fn avg_rt_bytes(&self) -> f64 {
        if self.tuples == 0 {
            return 0.0;
        }
        self.rt_bytes as f64 / self.tuples as f64
    }

    /// Ongoing-over-fixed size ratio (Table V's "ongoing / fixed tuple
    /// size" row).
    pub fn ongoing_over_fixed(&self) -> f64 {
        if self.fixed_bytes == 0 {
            return 0.0;
        }
        self.total_bytes as f64 / self.fixed_bytes as f64
    }
}

/// Measures every tuple of a relation, one transient chunk pin at a time:
/// a cold relation stays cold and a pager failure is an error.
pub fn measure_relation(rel: &OngoingRelation) -> Result<RelationFootprint> {
    let mut out = RelationFootprint::default();
    for view in rel.lazy_views() {
        for t in view.pin()?.iter() {
            let f = measure_tuple(t);
            let g = measure_tuple_fixed(t);
            out.tuples += 1;
            out.total_bytes += f.total();
            out.rt_bytes += f.rt;
            out.fixed_bytes += g.total();
            out.max_rt_cardinality = out.max_rt_cardinality.max(t.rt().cardinality());
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ongoing_core::time::tp;
    use ongoing_core::{IntervalSet, OngoingInterval};
    use ongoing_relation::Schema;

    #[test]
    fn typical_rt_is_29_bytes() {
        // Table V: a 1-range reference time costs 29 bytes.
        assert_eq!(rt_bytes(1), 29);
        assert_eq!(rt_bytes(2), 45);
    }

    #[test]
    fn ongoing_interval_doubles_fixed_interval() {
        let ongoing = Value::Interval(OngoingInterval::from_until_now(tp(0)));
        let fixed = Value::Span(tp(0), tp(1));
        assert_eq!(value_bytes(&ongoing), 2 * value_bytes(&fixed));
    }

    #[test]
    fn tuple_footprint_breaks_down() {
        let t = Tuple::with_rt(
            vec![
                Value::Int(500),
                Value::str("Spam filter"), // 11 chars
                Value::Interval(OngoingInterval::from_until_now(tp(0))),
            ],
            IntervalSet::range(tp(0), tp(5)),
        );
        let f = measure_tuple(&t);
        assert_eq!(f.header, 24);
        assert_eq!(f.attrs, 8 + (4 + 11) + 16);
        assert_eq!(f.rt, 29);
        assert_eq!(f.total(), 24 + 39 + 29);
        assert!(f.rt_share() > 0.0 && f.rt_share() < 1.0);
    }

    #[test]
    fn fixed_variant_halves_intervals_and_drops_rt() {
        let t = Tuple::with_rt(
            vec![Value::Interval(OngoingInterval::from_until_now(tp(0)))],
            IntervalSet::full(),
        );
        let f = measure_tuple_fixed(&t);
        assert_eq!(f.rt, 0);
        assert_eq!(f.attrs, 8);
    }

    #[test]
    fn relation_footprint_aggregates() {
        let mut r = OngoingRelation::new(Schema::builder().int("X").interval("VT").build());
        r.insert(vec![
            Value::Int(1),
            Value::Interval(OngoingInterval::from_until_now(tp(0))),
        ])
        .unwrap();
        r.insert_with_rt(
            vec![
                Value::Int(2),
                Value::Interval(OngoingInterval::fixed(tp(0), tp(1))),
            ],
            IntervalSet::from_ranges([(tp(0), tp(1)), (tp(5), tp(9))]),
        )
        .unwrap();
        let f = measure_relation(&r).unwrap();
        assert_eq!(f.tuples, 2);
        assert_eq!(f.max_rt_cardinality, 2);
        assert!(f.ongoing_over_fixed() > 1.0);
        assert!(f.avg_rt_bytes() >= 29.0);
    }
}
