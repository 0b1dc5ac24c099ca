//! The write-ahead log: every catalog state change is one checksummed,
//! fsynced record appended here *before* it becomes visible.
//!
//! Record kinds:
//!
//! * [`WalRecord::Commit`] — an O(delta) publication: the journal of
//!   physical store mutations ([`JournalOp`]) a `modify_table` closure
//!   performed on its fork. Replay applies the ops to the table's
//!   recovered store; layout-changing folds are O(1) markers re-derived
//!   deterministically, so commit records are sized by rows *touched*,
//!   never by table size.
//! * [`WalRecord::TableState`] — a full physical description of one table
//!   (schema, indexed columns, chunk-file references, overlay deltas).
//!   Written for `create_table`/`put_table` and for publications whose
//!   closure replaced the relation wholesale (severing the journal). The
//!   chunk files it references are written and fsynced *first*, so a
//!   surviving record only ever points at complete files.
//! * [`WalRecord::DropTable`] — the table was dropped.
//!
//! Framing (little-endian):
//!
//! ```text
//! [body len u32][crc32(body) u32][body: seq u64 ++ payload]
//! ```
//!
//! Sequence numbers increase monotonically across the database's life and
//! survive checkpoints; recovery skips records at or below the manifest's
//! LSN (they are already folded into it — a crash between manifest
//! publication and WAL truncation must not double-apply).
//!
//! [`scan`] distinguishes the two failure modes the recovery contract
//! cares about: an *incomplete* final record (frame or body cut short —
//! the signature of a crash mid-append) ends the scan cleanly as a
//! [`WalTail::Torn`] tail the caller truncates away, while a *complete*
//! record whose checksum or structure is wrong surfaces as
//! [`EngineError::CorruptStorage`] — damage is never silently dropped.

use crate::error::{EngineError, Result};
use crate::storage::checksum::crc32;
use crate::storage::codec::{capacity, decode_tuple, encode_tuple, MIN_TUPLE_BYTES};
use crate::storage::vfs::{with_retry, with_retry_counted, DiskError, Vfs};
use bytes::{Buf, BufMut};
use ongoing_relation::{Attribute, JournalOp, Schema, Tuple, ValueType};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// One sealed chunk in a [`TableState`]: the id of the chunk file holding
/// its base rows, the base row count, and the overlay delta inline.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkEntry {
    /// Chunk file id (`chunks/<id>.odc`).
    pub file: u64,
    /// Base rows in the chunk file — validated against it on load.
    pub base_len: usize,
    /// Overlay delta: base offset → replacement rows (empty = tombstone).
    pub overlay: BTreeMap<usize, Vec<Tuple>>,
}

/// A full physical description of one table — the payload of
/// [`WalRecord::TableState`] and of every manifest entry.
#[derive(Debug, Clone, PartialEq)]
pub struct TableState {
    /// Table name.
    pub name: String,
    /// The schema.
    pub schema: Schema,
    /// Columns carrying a keyed qualification index.
    pub indexed: Vec<usize>,
    /// The sealed chunks, in storage order.
    pub chunks: Vec<ChunkEntry>,
}

/// One WAL record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// Full physical state of a table (create/replace/wholesale rebuild).
    TableState(TableState),
    /// An O(delta) publication: replay `ops` against the table's store.
    Commit {
        /// The published table.
        table: String,
        /// The journaled physical mutations, in order.
        ops: Vec<JournalOp>,
    },
    /// The table was dropped.
    DropTable {
        /// The dropped table.
        table: String,
    },
}

const TAG_TABLE_STATE: u8 = 1;
const TAG_COMMIT: u8 = 2;
const TAG_DROP: u8 = 3;

const OP_APPEND: u8 = 0;
const OP_EDITS: u8 = 1;
const OP_SEAL: u8 = 2;
const OP_COMPACT: u8 = 3;
const OP_COMPACT_RUNS: u8 = 4;
const OP_CREATE_KEY_INDEX: u8 = 5;

fn type_tag(ty: ValueType) -> u8 {
    match ty {
        ValueType::Int => 0,
        ValueType::Str => 1,
        ValueType::Bool => 2,
        ValueType::Time => 3,
        ValueType::Span => 4,
        ValueType::OngoingPoint => 5,
        ValueType::OngoingInterval => 6,
        ValueType::OngoingInt => 7,
    }
}

fn tag_type(tag: u8) -> Result<ValueType> {
    Ok(match tag {
        0 => ValueType::Int,
        1 => ValueType::Str,
        2 => ValueType::Bool,
        3 => ValueType::Time,
        4 => ValueType::Span,
        5 => ValueType::OngoingPoint,
        6 => ValueType::OngoingInterval,
        7 => ValueType::OngoingInt,
        t => return Err(corrupt(format!("unknown attribute type tag {t}"))),
    })
}

fn corrupt(msg: impl Into<String>) -> EngineError {
    EngineError::CorruptStorage(msg.into())
}

fn need(buf: &impl Buf, n: usize, what: &str) -> Result<()> {
    if buf.remaining() < n {
        Err(corrupt(format!("truncated {what}")))
    } else {
        Ok(())
    }
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_str(buf: &mut &[u8]) -> Result<String> {
    need(buf, 4, "string length")?;
    let len = buf.get_u32_le() as usize;
    need(buf, len, "string")?;
    let raw = buf[..len].to_vec();
    buf.advance(len);
    String::from_utf8(raw).map_err(|_| corrupt("invalid utf-8 string"))
}

fn put_tuple(buf: &mut Vec<u8>, t: &Tuple) {
    let bytes = encode_tuple(t);
    buf.put_u32_le(bytes.len() as u32);
    buf.put_slice(&bytes);
}

/// The fewest bytes a framed tuple takes: its length prefix and the
/// shortest encoding.
const MIN_FRAMED_TUPLE: usize = 4 + MIN_TUPLE_BYTES;

fn get_tuple(buf: &mut &[u8]) -> Result<Tuple> {
    need(buf, 4, "tuple length")?;
    let len = buf.get_u32_le() as usize;
    need(buf, len, "tuple")?;
    let t = decode_tuple(&buf[..len]).map_err(|e| corrupt(format!("tuple: {e}")))?;
    buf.advance(len);
    Ok(t)
}

fn put_overlay(buf: &mut Vec<u8>, overlay: &BTreeMap<usize, Vec<Tuple>>) {
    buf.put_u32_le(overlay.len() as u32);
    for (&off, rows) in overlay {
        buf.put_u32_le(off as u32);
        buf.put_u32_le(rows.len() as u32);
        for t in rows {
            put_tuple(buf, t);
        }
    }
}

fn get_overlay(buf: &mut &[u8]) -> Result<BTreeMap<usize, Vec<Tuple>>> {
    need(buf, 4, "overlay")?;
    let n = buf.get_u32_le() as usize;
    let mut overlay = BTreeMap::new();
    for _ in 0..n {
        need(buf, 8, "overlay entry")?;
        let off = buf.get_u32_le() as usize;
        let rows = buf.get_u32_le() as usize;
        let mut reps = Vec::with_capacity(capacity(rows, buf.len(), MIN_FRAMED_TUPLE));
        for _ in 0..rows {
            reps.push(get_tuple(buf)?);
        }
        overlay.insert(off, reps);
    }
    Ok(overlay)
}

/// Encodes a [`TableState`] payload (shared by WAL records and the
/// manifest).
pub fn put_table_state(buf: &mut Vec<u8>, state: &TableState) {
    put_str(buf, &state.name);
    buf.put_u16_le(state.schema.len() as u16);
    for attr in state.schema.attrs() {
        put_str(buf, &attr.name);
        buf.put_u8(type_tag(attr.ty));
    }
    buf.put_u16_le(state.indexed.len() as u16);
    for &col in &state.indexed {
        buf.put_u32_le(col as u32);
    }
    buf.put_u32_le(state.chunks.len() as u32);
    for c in &state.chunks {
        buf.put_u64_le(c.file);
        buf.put_u32_le(c.base_len as u32);
        put_overlay(buf, &c.overlay);
    }
}

/// Decodes a [`TableState`] payload.
pub fn get_table_state(buf: &mut &[u8]) -> Result<TableState> {
    let name = get_str(buf)?;
    need(buf, 2, "schema")?;
    let nattrs = buf.get_u16_le() as usize;
    // Name length + type tag.
    let mut attrs = Vec::with_capacity(capacity(nattrs, buf.len(), 4 + 1));
    for _ in 0..nattrs {
        let attr_name = get_str(buf)?;
        need(buf, 1, "attribute type")?;
        attrs.push(Attribute::new(attr_name, tag_type(buf.get_u8())?));
    }
    need(buf, 2, "indexed columns")?;
    let nidx = buf.get_u16_le() as usize;
    let mut indexed = Vec::with_capacity(capacity(nidx, buf.len(), 4));
    for _ in 0..nidx {
        need(buf, 4, "indexed column")?;
        indexed.push(buf.get_u32_le() as usize);
    }
    need(buf, 4, "chunk list")?;
    let nchunks = buf.get_u32_le() as usize;
    // File id, base length and overlay count.
    let mut chunks = Vec::with_capacity(capacity(nchunks, buf.len(), 12 + 4));
    for _ in 0..nchunks {
        need(buf, 12, "chunk entry")?;
        let file = buf.get_u64_le();
        let base_len = buf.get_u32_le() as usize;
        let overlay = get_overlay(buf)?;
        chunks.push(ChunkEntry {
            file,
            base_len,
            overlay,
        });
    }
    Ok(TableState {
        name,
        schema: Schema::new(attrs),
        indexed,
        chunks,
    })
}

fn put_op(buf: &mut Vec<u8>, op: &JournalOp) {
    match op {
        JournalOp::Append(t) => {
            buf.put_u8(OP_APPEND);
            put_tuple(buf, t);
        }
        JournalOp::Edits(entries) => {
            buf.put_u8(OP_EDITS);
            buf.put_u32_le(entries.len() as u32);
            for (ci, off, rows, touched) in entries {
                buf.put_u32_le(*ci as u32);
                buf.put_u32_le(*off as u32);
                buf.put_u64_le(*touched);
                buf.put_u32_le(rows.len() as u32);
                for t in rows {
                    put_tuple(buf, t);
                }
            }
        }
        JournalOp::Seal => buf.put_u8(OP_SEAL),
        JournalOp::Compact => buf.put_u8(OP_COMPACT),
        JournalOp::CompactRuns => buf.put_u8(OP_COMPACT_RUNS),
        JournalOp::CreateKeyIndex(col) => {
            buf.put_u8(OP_CREATE_KEY_INDEX);
            buf.put_u32_le(*col as u32);
        }
    }
}

fn get_op(buf: &mut &[u8]) -> Result<JournalOp> {
    need(buf, 1, "journal op")?;
    Ok(match buf.get_u8() {
        OP_APPEND => JournalOp::Append(get_tuple(buf)?),
        OP_EDITS => {
            need(buf, 4, "edit plan")?;
            let n = buf.get_u32_le() as usize;
            let mut entries = Vec::with_capacity(capacity(n, buf.len(), 20));
            for _ in 0..n {
                need(buf, 20, "edit entry")?;
                let ci = buf.get_u32_le() as usize;
                let off = buf.get_u32_le() as usize;
                let touched = buf.get_u64_le();
                let nrows = buf.get_u32_le() as usize;
                let mut rows = Vec::with_capacity(capacity(nrows, buf.len(), MIN_FRAMED_TUPLE));
                for _ in 0..nrows {
                    rows.push(get_tuple(buf)?);
                }
                entries.push((ci, off, rows, touched));
            }
            JournalOp::Edits(entries)
        }
        OP_SEAL => JournalOp::Seal,
        OP_COMPACT => JournalOp::Compact,
        OP_COMPACT_RUNS => JournalOp::CompactRuns,
        OP_CREATE_KEY_INDEX => {
            need(buf, 4, "index column")?;
            JournalOp::CreateKeyIndex(buf.get_u32_le() as usize)
        }
        t => return Err(corrupt(format!("unknown journal op tag {t}"))),
    })
}

/// Encodes a record payload (without frame or sequence number).
pub fn encode_payload(rec: &WalRecord) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    match rec {
        WalRecord::TableState(state) => {
            buf.put_u8(TAG_TABLE_STATE);
            put_table_state(&mut buf, state);
        }
        WalRecord::Commit { table, ops } => {
            buf.put_u8(TAG_COMMIT);
            put_str(&mut buf, table);
            buf.put_u32_le(ops.len() as u32);
            for op in ops {
                put_op(&mut buf, op);
            }
        }
        WalRecord::DropTable { table } => {
            buf.put_u8(TAG_DROP);
            put_str(&mut buf, table);
        }
    }
    buf
}

/// Decodes a record payload.
pub fn decode_payload(mut buf: &[u8]) -> Result<WalRecord> {
    need(&buf, 1, "record tag")?;
    let tag = buf.get_u8();
    let rec = match tag {
        TAG_TABLE_STATE => WalRecord::TableState(get_table_state(&mut buf)?),
        TAG_COMMIT => {
            let table = get_str(&mut buf)?;
            need(&buf, 4, "op count")?;
            let n = buf.get_u32_le() as usize;
            // An op encodes to at least its tag byte.
            let mut ops = Vec::with_capacity(capacity(n, buf.len(), 1));
            for _ in 0..n {
                ops.push(get_op(&mut buf)?);
            }
            WalRecord::Commit { table, ops }
        }
        TAG_DROP => WalRecord::DropTable {
            table: get_str(&mut buf)?,
        },
        t => return Err(corrupt(format!("unknown record tag {t}"))),
    };
    if buf.has_remaining() {
        return Err(corrupt("trailing bytes after record payload"));
    }
    Ok(rec)
}

/// How the log ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalTail {
    /// The last record is complete.
    Clean,
    /// The log ends in an incomplete record starting at this offset — a
    /// crash cut an append short. Recovery truncates to the offset.
    Torn {
        /// Byte offset of the first incomplete record.
        at: u64,
    },
}

/// One scanned record: `(sequence number, end offset, record)`. The end
/// offset is the byte position just past the record's frame — the durable
/// prefix containing it.
pub type ScannedRecord = (u64, u64, WalRecord);

/// Scans a WAL image: every complete record in order, plus how the log
/// ends. A complete record that fails its checksum or does not decode is
/// [`EngineError::CorruptStorage`] — only an *incomplete* trailing record
/// is reported (and tolerated) as a torn tail.
pub fn scan_bytes(raw: &[u8]) -> Result<(Vec<ScannedRecord>, WalTail)> {
    let mut records = Vec::new();
    let mut off = 0usize;
    while off < raw.len() {
        let rest = &raw[off..];
        if rest.len() < 8 {
            return Ok((records, WalTail::Torn { at: off as u64 }));
        }
        let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
        let stored = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes"));
        if len > rest.len() - 8 {
            // The frame promises more bytes than the file holds: an
            // append the crash cut short (or a length field clobbered so
            // badly the distinction is unknowable). Torn either way.
            return Ok((records, WalTail::Torn { at: off as u64 }));
        }
        let body = &rest[8..8 + len];
        if crc32(body) != stored {
            return Err(corrupt(format!(
                "wal record at offset {off} failed its checksum"
            )));
        }
        if len < 8 {
            return Err(corrupt(format!("wal record at offset {off} too short")));
        }
        let seq = u64::from_le_bytes(body[..4 + 4].try_into().expect("8 bytes"));
        let rec = decode_payload(&body[8..])
            .map_err(|e| corrupt(format!("wal record at offset {off}: {e}")))?;
        off += 8 + len;
        records.push((seq, off as u64, rec));
    }
    Ok((records, WalTail::Clean))
}

/// Reads and scans the WAL at `path`, retrying transient read failures; a
/// missing file is an empty log.
pub fn scan(vfs: &dyn Vfs, path: &Path) -> Result<(Vec<ScannedRecord>, WalTail)> {
    let raw = match with_retry(|| vfs.read(path), || Ok(())) {
        Ok(raw) => raw,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e.into()),
    };
    scan_bytes(&raw)
}

/// Append handle for the WAL file.
#[derive(Debug)]
pub struct WalWriter {
    vfs: Arc<dyn Vfs>,
    path: PathBuf,
    len: u64,
    next_seq: u64,
    /// Transient append faults absorbed by retrying since open —
    /// monotone, read by the observability layer to emit
    /// `wal_fault_retry` events.
    absorbed_retries: u64,
}

impl WalWriter {
    /// Opens (creating if absent) the WAL at `path` for appending. `len`
    /// must be the verified length of the intact prefix (the caller
    /// truncates a torn tail first); `next_seq` the next sequence number
    /// to issue.
    pub fn open(vfs: Arc<dyn Vfs>, path: &Path, len: u64, next_seq: u64) -> Result<WalWriter> {
        // Materialize the file so later appends and syncs find it (an
        // empty append is idempotent, so transient failures just retry).
        with_retry(|| vfs.append(path, &[]), || Ok(())).map_err(DiskError::Io)?;
        Ok(WalWriter {
            vfs,
            path: path.to_path_buf(),
            len,
            next_seq,
            absorbed_retries: 0,
        })
    }

    /// Transient append faults absorbed by retrying since open.
    pub fn absorbed_retries(&self) -> u64 {
        self.absorbed_retries
    }

    /// Bytes in the log (the intact prefix plus everything appended since).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Is the log empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The sequence number the next append will carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Appends one record, optionally fsyncing — the durability point of
    /// every commit. A transient write failure is retried after
    /// truncating the log back to its pre-append length, so a short write
    /// can never leave garbage mid-log; a failed fsync comes back as
    /// [`DiskError::SyncFailed`], which the durable layer fails stop on.
    /// Returns `(sequence number, frame bytes)`.
    pub fn append(
        &mut self,
        rec: &WalRecord,
        fsync: bool,
    ) -> std::result::Result<(u64, u64), DiskError> {
        let seq = self.next_seq;
        let payload = encode_payload(rec);
        let mut body = Vec::with_capacity(8 + payload.len());
        body.put_u64_le(seq);
        body.put_slice(&payload);
        let mut frame = Vec::with_capacity(8 + body.len());
        frame.put_u32_le(body.len() as u32);
        frame.put_u32_le(crc32(&body));
        frame.put_slice(&body);
        let (vfs, path, len) = (&self.vfs, &self.path, self.len);
        let (_, attempts) = with_retry_counted(
            || vfs.append(path, &frame),
            // A failed attempt may have appended a partial frame; cut the
            // log back to the last durable record before trying again.
            || vfs.truncate(path, len),
        )
        .map_err(DiskError::Io)?;
        self.absorbed_retries += u64::from(attempts - 1);
        if fsync {
            self.vfs.sync(&self.path).map_err(DiskError::SyncFailed)?;
        }
        self.next_seq += 1;
        self.len += frame.len() as u64;
        Ok((seq, frame.len() as u64))
    }

    /// Truncates the log to zero bytes — the post-checkpoint reset. The
    /// sequence counter keeps running: records folded into the manifest
    /// stay strictly below every future record's number.
    pub fn reset(&mut self) -> std::result::Result<(), DiskError> {
        let (vfs, path) = (&self.vfs, &self.path);
        with_retry(|| vfs.truncate(path, 0), || Ok(())).map_err(DiskError::Io)?;
        self.vfs.sync(&self.path).map_err(DiskError::SyncFailed)?;
        self.len = 0;
        Ok(())
    }
}

/// Truncates the file at `path` to `len` bytes — how recovery removes a
/// torn tail.
pub fn truncate_file(vfs: &dyn Vfs, path: &Path, len: u64) -> Result<()> {
    with_retry(|| vfs.truncate(path, len), || Ok(()))?;
    vfs.sync(path)
        .map_err(|e| EngineError::Io(format!("fsync failed: {e}")))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ongoing_relation::Value;

    fn t(x: i64) -> Tuple {
        Tuple::base(vec![Value::Int(x)])
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::TableState(TableState {
                name: "T".into(),
                schema: Schema::builder().int("K").str("S").interval("VT").build(),
                indexed: vec![0],
                chunks: vec![ChunkEntry {
                    file: 7,
                    base_len: 3,
                    overlay: BTreeMap::from([(1usize, vec![t(10), t(11)]), (2, vec![])]),
                }],
            }),
            WalRecord::Commit {
                table: "T".into(),
                ops: vec![
                    JournalOp::Append(t(1)),
                    JournalOp::Edits(vec![(0, 2, vec![t(5)], 1), (1, 0, vec![], 2)]),
                    JournalOp::Seal,
                    JournalOp::Compact,
                    JournalOp::CompactRuns,
                    JournalOp::CreateKeyIndex(2),
                ],
            },
            WalRecord::DropTable { table: "T".into() },
        ]
    }

    #[test]
    fn payloads_round_trip() {
        for rec in sample_records() {
            let buf = encode_payload(&rec);
            assert_eq!(decode_payload(&buf).unwrap(), rec);
        }
    }

    fn vfs() -> Arc<dyn Vfs> {
        Arc::new(crate::storage::vfs::RealFs)
    }

    #[test]
    fn writer_and_scan_round_trip() {
        let dir = crate::storage::fault::TempDir::new("wal-roundtrip");
        let path = dir.path().join("wal.log");
        let mut w = WalWriter::open(vfs(), &path, 0, 1).unwrap();
        let mut ends = Vec::new();
        for rec in sample_records() {
            let (_, bytes) = w.append(&rec, true).unwrap();
            assert!(bytes > 0);
            ends.push(w.len());
        }
        let (records, tail) = scan(&crate::storage::vfs::RealFs, &path).unwrap();
        assert_eq!(tail, WalTail::Clean);
        assert_eq!(records.len(), 3);
        assert_eq!(
            records.iter().map(|(s, _, _)| *s).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert_eq!(records.iter().map(|(_, e, _)| *e).collect::<Vec<_>>(), ends);
        assert_eq!(
            records.into_iter().map(|(_, _, r)| r).collect::<Vec<_>>(),
            sample_records()
        );
    }

    #[test]
    fn every_truncation_is_a_clean_torn_tail() {
        let dir = crate::storage::fault::TempDir::new("wal-torn");
        let path = dir.path().join("wal.log");
        let mut w = WalWriter::open(vfs(), &path, 0, 1).unwrap();
        let mut ends = vec![0u64];
        for rec in sample_records() {
            w.append(&rec, false).unwrap();
            ends.push(w.len());
        }
        let raw = std::fs::read(&path).unwrap();
        for cut in 0..raw.len() {
            let (records, tail) = scan_bytes(&raw[..cut]).unwrap();
            // The surviving records are exactly the complete prefix.
            let complete = ends.iter().filter(|&&e| e <= cut as u64).count() - 1;
            assert_eq!(records.len(), complete, "cut at {cut}");
            if (cut as u64) == ends[complete] {
                assert_eq!(tail, WalTail::Clean, "cut at {cut}");
            } else {
                assert_eq!(tail, WalTail::Torn { at: ends[complete] }, "cut at {cut}");
            }
        }
    }

    #[test]
    fn complete_record_damage_is_corruption() {
        let dir = crate::storage::fault::TempDir::new("wal-corrupt");
        let path = dir.path().join("wal.log");
        let mut w = WalWriter::open(vfs(), &path, 0, 1).unwrap();
        for rec in sample_records() {
            w.append(&rec, false).unwrap();
        }
        let raw = std::fs::read(&path).unwrap();
        // Flip a payload byte inside the *first* record: mid-log damage.
        let mut bad = raw.clone();
        bad[20] ^= 0x01;
        assert!(matches!(
            scan_bytes(&bad),
            Err(EngineError::CorruptStorage(_))
        ));
        // Flip a payload byte of the *last* record: still a complete
        // record, still corruption (torn means incomplete, not wrong).
        let mut bad = raw.clone();
        let last = bad.len() - 3;
        bad[last] ^= 0x01;
        assert!(matches!(
            scan_bytes(&bad),
            Err(EngineError::CorruptStorage(_))
        ));
    }
}
