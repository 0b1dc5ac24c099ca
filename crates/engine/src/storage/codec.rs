//! Binary tuple codec.
//!
//! Serializes tuples into the byte layout described in
//! [`super::layout`] so relations can be stored in chunk files
//! ([`super::chunkfile`]) and WAL records ([`super::wal`]). The codec is self-describing per value (a 1-byte tag
//! precedes each payload) and round-trips exactly.
//!
//! Time points are stored as full 8-byte ticks (the 4-byte date figure in
//! the *layout model* mirrors PostgreSQL's `date`; the wire codec keeps the
//! full i64 so both granularities — dates and microsecond timestamps —
//! round-trip losslessly).

use crate::error::{EngineError, Result};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use ongoing_core::{IntervalSet, OngoingInt, OngoingInterval, OngoingPoint, TimePoint};
use ongoing_relation::{Tuple, Value};

const TAG_INT: u8 = 0;
const TAG_STR: u8 = 1;
const TAG_BOOL: u8 = 2;
const TAG_TIME: u8 = 3;
const TAG_SPAN: u8 = 4;
const TAG_POINT: u8 = 5;
const TAG_INTERVAL: u8 = 6;
const TAG_ONGOING_INT: u8 = 7;
/// An ongoing integer whose pieces need `i128` coefficients (arithmetic
/// at the domain limits); the compact tag above keeps `i64` ones.
const TAG_ONGOING_INT_WIDE: u8 = 8;

fn put_value(buf: &mut BytesMut, v: &Value) {
    match v {
        Value::Int(x) => {
            buf.put_u8(TAG_INT);
            buf.put_i64_le(*x);
        }
        Value::Str(s) => {
            buf.put_u8(TAG_STR);
            buf.put_u32_le(s.len() as u32);
            buf.put_slice(s.as_bytes());
        }
        Value::Bool(b) => {
            buf.put_u8(TAG_BOOL);
            buf.put_u8(u8::from(*b));
        }
        Value::Time(t) => {
            buf.put_u8(TAG_TIME);
            buf.put_i64_le(t.ticks());
        }
        Value::Span(s, e) => {
            buf.put_u8(TAG_SPAN);
            buf.put_i64_le(s.ticks());
            buf.put_i64_le(e.ticks());
        }
        Value::Point(p) => {
            buf.put_u8(TAG_POINT);
            buf.put_i64_le(p.a().ticks());
            buf.put_i64_le(p.b().ticks());
        }
        Value::Interval(i) => {
            buf.put_u8(TAG_INTERVAL);
            buf.put_i64_le(i.ts().a().ticks());
            buf.put_i64_le(i.ts().b().ticks());
            buf.put_i64_le(i.te().a().ticks());
            buf.put_i64_le(i.te().b().ticks());
        }
        Value::Count(c) => {
            let pieces: Vec<_> = c.pieces().collect();
            let narrow = |x: i128| i64::try_from(x).ok();
            let compact = pieces
                .iter()
                .all(|&(_, coef, offset)| narrow(coef).and(narrow(offset)).is_some());
            buf.put_u8(if compact {
                TAG_ONGOING_INT
            } else {
                TAG_ONGOING_INT_WIDE
            });
            buf.put_u32_le(pieces.len() as u32);
            for (start, coef, offset) in pieces {
                buf.put_i64_le(start.ticks());
                for x in [coef, offset] {
                    match narrow(x) {
                        Some(x) if compact => buf.put_i64_le(x),
                        _ => buf.put_slice(&x.to_le_bytes()),
                    }
                }
            }
        }
    }
}

fn get_value(buf: &mut impl Buf) -> Result<Value> {
    if buf.remaining() < 1 {
        return Err(EngineError::Storage("truncated value".into()));
    }
    let tag = buf.get_u8();
    let need = |buf: &mut dyn Buf, n: usize| -> Result<()> {
        if buf.remaining() < n {
            Err(EngineError::Storage("truncated value payload".into()))
        } else {
            Ok(())
        }
    };
    match tag {
        TAG_INT => {
            need(buf, 8)?;
            Ok(Value::Int(buf.get_i64_le()))
        }
        TAG_STR => {
            need(buf, 4)?;
            let len = buf.get_u32_le() as usize;
            need(buf, len)?;
            let mut raw = vec![0u8; len];
            buf.copy_to_slice(&mut raw);
            let s = String::from_utf8(raw)
                .map_err(|_| EngineError::Storage("invalid utf-8 string".into()))?;
            Ok(Value::str(&s))
        }
        TAG_BOOL => {
            need(buf, 1)?;
            Ok(Value::Bool(buf.get_u8() != 0))
        }
        TAG_TIME => {
            need(buf, 8)?;
            Ok(Value::Time(TimePoint::new(buf.get_i64_le())))
        }
        TAG_SPAN => {
            need(buf, 16)?;
            let s = TimePoint::new(buf.get_i64_le());
            let e = TimePoint::new(buf.get_i64_le());
            Ok(Value::Span(s, e))
        }
        TAG_POINT => {
            need(buf, 16)?;
            let a = TimePoint::new(buf.get_i64_le());
            let b = TimePoint::new(buf.get_i64_le());
            let p = OngoingPoint::new(a, b).map_err(|e| EngineError::Storage(e.to_string()))?;
            Ok(Value::Point(p))
        }
        TAG_INTERVAL => {
            need(buf, 32)?;
            let tsa = TimePoint::new(buf.get_i64_le());
            let tsb = TimePoint::new(buf.get_i64_le());
            let tea = TimePoint::new(buf.get_i64_le());
            let teb = TimePoint::new(buf.get_i64_le());
            let ts =
                OngoingPoint::new(tsa, tsb).map_err(|e| EngineError::Storage(e.to_string()))?;
            let te =
                OngoingPoint::new(tea, teb).map_err(|e| EngineError::Storage(e.to_string()))?;
            Ok(Value::Interval(OngoingInterval::new(ts, te)))
        }
        TAG_ONGOING_INT | TAG_ONGOING_INT_WIDE => {
            let wide = tag == TAG_ONGOING_INT_WIDE;
            let piece = if wide { 8 + 2 * 16 } else { 3 * 8 };
            need(buf, 4)?;
            let n = buf.get_u32_le() as usize;
            let mut pieces = Vec::with_capacity(capacity(n, buf.remaining(), piece));
            for _ in 0..n {
                need(buf, piece)?;
                let start = TimePoint::new(buf.get_i64_le());
                let [coef, offset] = [(); 2].map(|()| {
                    if wide {
                        let mut raw = [0u8; 16];
                        buf.copy_to_slice(&mut raw);
                        i128::from_le_bytes(raw)
                    } else {
                        i128::from(buf.get_i64_le())
                    }
                });
                pieces.push((start, coef, offset));
            }
            let c = OngoingInt::from_pieces(pieces)
                .ok_or_else(|| EngineError::Storage("malformed ongoing integer".into()))?;
            Ok(Value::Count(c))
        }
        t => Err(EngineError::Storage(format!("unknown value tag {t}"))),
    }
}

/// The fewest bytes [`encode_tuple`] emits: the arity and `RT`
/// cardinality fields.
pub(crate) const MIN_TUPLE_BYTES: usize = 2 + 4;

/// A `Vec` capacity for `count` decoded elements of at least `min_bytes`
/// encoded bytes each when `remaining` bytes are left: never more than
/// the input can hold, so a corrupt or hostile count field cannot size an
/// allocation.
pub(crate) fn capacity(count: usize, remaining: usize, min_bytes: usize) -> usize {
    count.min(remaining / min_bytes)
}

/// Encodes a tuple (values + `RT`) into bytes.
pub fn encode_tuple(t: &Tuple) -> Bytes {
    let mut buf = BytesMut::with_capacity(64);
    buf.put_u16_le(t.arity() as u16);
    for v in t.values() {
        put_value(&mut buf, v);
    }
    let rt = t.rt();
    buf.put_u32_le(rt.cardinality() as u32);
    for r in rt.ranges() {
        buf.put_i64_le(r.ts().ticks());
        buf.put_i64_le(r.te().ticks());
    }
    buf.freeze()
}

/// Decodes a tuple encoded by [`encode_tuple`].
pub fn decode_tuple(mut buf: &[u8]) -> Result<Tuple> {
    if buf.remaining() < 2 {
        return Err(EngineError::Storage("truncated tuple".into()));
    }
    let arity = buf.get_u16_le() as usize;
    // A value encodes to at least its tag byte.
    let mut values = Vec::with_capacity(capacity(arity, buf.remaining(), 1));
    for _ in 0..arity {
        values.push(get_value(&mut buf)?);
    }
    if buf.remaining() < 4 {
        return Err(EngineError::Storage("truncated RT".into()));
    }
    let n = buf.get_u32_le() as usize;
    let mut ranges = Vec::with_capacity(capacity(n, buf.remaining(), 16));
    for _ in 0..n {
        if buf.remaining() < 16 {
            return Err(EngineError::Storage("truncated RT range".into()));
        }
        let ts = TimePoint::new(buf.get_i64_le());
        let te = TimePoint::new(buf.get_i64_le());
        ranges.push((ts, te));
    }
    Ok(Tuple::with_rt(values, IntervalSet::from_ranges(ranges)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ongoing_core::time::tp;

    fn roundtrip(t: &Tuple) {
        let bytes = encode_tuple(t);
        let back = decode_tuple(&bytes).unwrap();
        assert_eq!(&back, t);
    }

    #[test]
    fn all_value_kinds_round_trip() {
        let t = Tuple::with_rt(
            vec![
                Value::Int(-42),
                Value::str("héllo wörld"),
                Value::Bool(true),
                Value::Time(tp(123)),
                Value::Span(tp(1), tp(9)),
                Value::Point(OngoingPoint::now()),
                Value::Interval(OngoingInterval::from_until_now(tp(7))),
            ],
            IntervalSet::from_ranges([(tp(0), tp(5)), (tp(10), TimePoint::POS_INF)]),
        );
        roundtrip(&t);
    }

    #[test]
    fn empty_string_and_full_rt() {
        let t = Tuple::base(vec![Value::str("")]);
        roundtrip(&t);
    }

    #[test]
    fn limits_round_trip() {
        let t = Tuple::base(vec![
            Value::Time(TimePoint::NEG_INF),
            Value::Time(TimePoint::POS_INF),
            Value::Point(OngoingPoint::growing(tp(3))),
            Value::Point(OngoingPoint::limited(tp(3))),
        ]);
        roundtrip(&t);
    }

    #[test]
    fn ongoing_integers_round_trip_compact_and_wide() {
        let now = OngoingInt::from_point(OngoingPoint::now());
        let t = Tuple::base(vec![
            Value::Count(OngoingInt::constant(3)),
            // `rt - i64::MIN` needs an `i128` offset.
            Value::Count(now.sub(&OngoingInt::constant(i64::MIN))),
        ]);
        let bytes = encode_tuple(&t);
        // Arity, then a one-piece compact value: tag, count, 3 × 8 bytes.
        assert_eq!(bytes[2], TAG_ONGOING_INT);
        assert_eq!(bytes[2 + 1 + 4 + 24], TAG_ONGOING_INT_WIDE);
        roundtrip(&t);
        for cut in 0..bytes.len() {
            assert!(decode_tuple(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn truncated_input_is_an_error() {
        let t = Tuple::base(vec![Value::Int(7)]);
        let bytes = encode_tuple(&t);
        for cut in 0..bytes.len() {
            assert!(
                decode_tuple(&bytes[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn garbage_tag_is_an_error() {
        let mut raw = encode_tuple(&Tuple::base(vec![Value::Int(7)])).to_vec();
        raw[2] = 99; // clobber the value tag
        assert!(decode_tuple(&raw).is_err());
    }

    #[test]
    fn invalid_point_is_an_error() {
        // Hand-craft a point with a > b.
        let mut buf = BytesMut::new();
        buf.put_u16_le(1);
        buf.put_u8(5); // TAG_POINT
        buf.put_i64_le(9);
        buf.put_i64_le(3);
        buf.put_u32_le(0);
        assert!(decode_tuple(&buf).is_err());
    }
}
