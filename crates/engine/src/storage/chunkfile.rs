//! On-disk chunk files: one sealed, immutable
//! [`OngoingRelation`](ongoing_relation::OngoingRelation) chunk each.
//!
//! A chunk file holds the *base* rows of one sealed chunk — exactly the
//! `Arc<[Tuple]>` allocation a relation shares between versions — encoded
//! with the tuple codec and guarded by a trailing CRC-32. Chunk files are
//! written once (at checkpoint time, or when a full-state WAL record needs
//! them), never appended to, and deleted only by checkpoint garbage
//! collection once no manifest or WAL record references them. Overlay
//! deltas are *not* stored here; they live in the manifest / WAL, which is
//! what keeps publications O(delta).
//!
//! Layout (all little-endian):
//!
//! ```text
//! [magic u32][row count u32]([tuple len u32][tuple bytes])*[crc32 u32]
//! ```
//!
//! The CRC covers every byte before it. A mismatch — or any structural
//! damage — surfaces as [`EngineError::CorruptStorage`]; chunk files are
//! written in full and fsynced *before* any record referencing them, so a
//! crash can only ever orphan a complete file, never tear a referenced
//! one.

use crate::error::{EngineError, Result};
use crate::storage::checksum::crc32;
use crate::storage::codec::{capacity, decode_tuple, put_framed_tuple, MIN_TUPLE_BYTES};
use crate::storage::vfs::{with_retry, DiskError, Vfs};
use bytes::{Buf, BufMut};
use ongoing_relation::Tuple;
use std::path::Path;

/// Chunk file magic: `"ODC1"`.
pub const CHUNK_MAGIC: u32 = 0x3143_444F;

/// Encodes `rows` into the chunk-file byte layout.
pub fn encode_chunk(rows: &[Tuple]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64 * rows.len() + 12);
    buf.put_u32_le(CHUNK_MAGIC);
    buf.put_u32_le(rows.len() as u32);
    for t in rows {
        put_framed_tuple(&mut buf, t);
    }
    let crc = crc32(&buf);
    buf.put_u32_le(crc);
    buf
}

/// Decodes a chunk-file image, verifying magic and checksum.
pub fn decode_chunk(raw: &[u8]) -> Result<Vec<Tuple>> {
    if raw.len() < 12 {
        return Err(EngineError::CorruptStorage(format!(
            "chunk file too short ({} bytes)",
            raw.len()
        )));
    }
    let (body, tail) = raw.split_at(raw.len() - 4);
    let stored = u32::from_le_bytes(tail.try_into().expect("4-byte tail"));
    if crc32(body) != stored {
        return Err(EngineError::CorruptStorage(
            "chunk file checksum mismatch".into(),
        ));
    }
    let mut buf = body;
    let magic = buf.get_u32_le();
    if magic != CHUNK_MAGIC {
        return Err(EngineError::CorruptStorage(format!(
            "bad chunk magic {magic:#x}"
        )));
    }
    let n = buf.get_u32_le() as usize;
    // A row is its length prefix and an encoded tuple.
    let mut rows = Vec::with_capacity(capacity(n, buf.len(), 4 + MIN_TUPLE_BYTES));
    for _ in 0..n {
        if buf.remaining() < 4 {
            return Err(EngineError::CorruptStorage("truncated chunk row".into()));
        }
        let len = buf.get_u32_le() as usize;
        if buf.remaining() < len {
            return Err(EngineError::CorruptStorage("truncated chunk row".into()));
        }
        let t = decode_tuple(&buf[..len])
            .map_err(|e| EngineError::CorruptStorage(format!("chunk row: {e}")))?;
        buf.advance(len);
        rows.push(t);
    }
    if buf.has_remaining() {
        return Err(EngineError::CorruptStorage(
            "trailing bytes after chunk rows".into(),
        ));
    }
    Ok(rows)
}

/// Writes `rows` as a chunk file at `path` (created fresh), optionally
/// fsyncing. Transient write failures are retried (a full rewrite is
/// idempotent); a failed fsync is surfaced as [`DiskError::SyncFailed`]
/// for the caller to fail stop on. Returns the bytes written.
pub fn write_chunk(
    vfs: &dyn Vfs,
    path: &Path,
    rows: &[Tuple],
    fsync: bool,
) -> std::result::Result<u64, DiskError> {
    let buf = encode_chunk(rows);
    with_retry(|| vfs.write(path, &buf), || Ok(())).map_err(DiskError::Io)?;
    if fsync {
        vfs.sync(path).map_err(DiskError::SyncFailed)?;
    }
    Ok(buf.len() as u64)
}

/// Reads the chunk file at `path` — the one reader of chunk files:
/// retries transient read failures, verifies the image and checks that
/// it holds the `len` rows the manifest records. Returns the rows and the
/// file size.
pub fn read_chunk(vfs: &dyn Vfs, path: &Path, len: usize) -> Result<(Vec<Tuple>, u64)> {
    let raw = with_retry(|| vfs.read(path), || Ok(()))?;
    let corrupt = |m: String| EngineError::CorruptStorage(format!("{}: {m}", path.display()));
    let rows = decode_chunk(&raw).map_err(|e| match e {
        EngineError::CorruptStorage(m) => corrupt(m),
        other => other,
    })?;
    if rows.len() != len {
        let n = rows.len();
        return Err(corrupt(format!("holds {n} rows, manifest says {len}")));
    }
    Ok((rows, raw.len() as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ongoing_core::time::tp;
    use ongoing_core::{IntervalSet, OngoingInt, OngoingInterval, OngoingPoint, TimePoint};
    use ongoing_relation::Value;

    fn rows() -> Vec<Tuple> {
        (0..50)
            .map(|i| {
                Tuple::with_rt(
                    vec![
                        Value::Int(i),
                        Value::str(&format!("row-{i}")),
                        Value::Interval(OngoingInterval::from_until_now(tp(i))),
                    ],
                    IntervalSet::range(tp(0), tp(100 + i)),
                )
            })
            .collect()
    }

    #[test]
    fn round_trips() {
        let rows = rows();
        let buf = encode_chunk(&rows);
        assert_eq!(decode_chunk(&buf).unwrap(), rows);
        assert_eq!(
            decode_chunk(&encode_chunk(&[])).unwrap(),
            Vec::<Tuple>::new()
        );
    }

    #[test]
    fn every_byte_flip_is_detected() {
        let mut buf = encode_chunk(&rows()[..4]);
        for i in 0..buf.len() {
            buf[i] ^= 0x40;
            assert!(
                matches!(decode_chunk(&buf), Err(EngineError::CorruptStorage(_))),
                "flip at byte {i} went undetected"
            );
            buf[i] ^= 0x40;
        }
        decode_chunk(&buf).unwrap();
    }

    #[test]
    fn truncation_is_detected() {
        let buf = encode_chunk(&rows()[..4]);
        for cut in 0..buf.len() {
            assert!(
                matches!(
                    decode_chunk(&buf[..cut]),
                    Err(EngineError::CorruptStorage(_))
                ),
                "cut at {cut} went undetected"
            );
        }
    }

    /// Every value kind, a multi-range `RT` and a wide ongoing integer.
    fn golden_rows() -> Vec<Tuple> {
        let now = OngoingInt::from_point(OngoingPoint::now());
        vec![
            Tuple::with_rt(
                vec![
                    Value::Int(-42),
                    Value::str("héllo"),
                    Value::Bool(true),
                    Value::Time(tp(123)),
                ],
                IntervalSet::from_ranges([(tp(0), tp(5)), (tp(10), TimePoint::POS_INF)]),
            ),
            Tuple::base(vec![
                Value::Span(tp(1), tp(9)),
                Value::Point(OngoingPoint::now()),
                Value::Interval(OngoingInterval::from_until_now(tp(7))),
            ]),
            Tuple::base(vec![
                Value::Count(OngoingInt::constant(3)),
                Value::Count(now.sub(&OngoingInt::constant(i64::MIN))),
            ]),
        ]
    }

    /// `encode_chunk(&golden_rows())` as the per-tuple-buffer encoder
    /// wrote it before the codec encoded in place: chunk files on disk
    /// must keep decoding, and the encoder must keep writing exactly
    /// these bytes.
    const GOLDEN_CHUNK: &str = "\
        4f4443310300000045000000040000d6ffffffffffffff010600000068c3a96c6c6f0201037b0000\
        000000000002000000000000000000000005000000000000000a00000000000000ffffffffffffff\
        7f5900000003000401000000000000000900000000000000050000000000000080ffffffffffffff\
        7f06070000000000000007000000000000000000000000000080ffffffffffffff7f010000000000\
        000000000080ffffffffffffff7f6000000002000701000000000000000000008000000000000000\
        00030000000000000008010000000000000000000080010000000000000000000000000000000000\
        0000000000800000000000000000010000000000000000000080ffffffffffffff7fa587847e";

    #[test]
    fn golden_image_decodes_and_reencodes_byte_for_byte() {
        let golden = crate::storage::unhex(GOLDEN_CHUNK);
        assert_eq!(decode_chunk(&golden).unwrap(), golden_rows());
        assert_eq!(encode_chunk(&golden_rows()), golden);
    }
}
