//! The checkpoint manifest: a single atomically replaced file describing
//! every table's durable state at one log sequence number.
//!
//! A checkpoint folds the WAL into the manifest: each table's full
//! physical state ([`TableState`] — schema, indexed columns, chunk-file
//! references, overlay deltas) is written here, the file is published by
//! `rename` (atomic on POSIX), and only then is the WAL truncated. The
//! stored [`Manifest::lsn`] is the sequence number of the last record the
//! manifest covers; recovery skips WAL records at or below it, which makes
//! the checkpoint crash-safe — a crash in the manifest-publish → WAL-reset
//! window merely leaves already-folded records in the log, and the LSN
//! filter renders replaying them a no-op.
//!
//! Layout (little-endian):
//!
//! ```text
//! [magic u32][version u32][lsn u64][next chunk id u64]
//! [table count u32][TableState]*[crc32 u32]
//! ```

use crate::error::{EngineError, Result};
use crate::storage::checksum::crc32;
use crate::storage::codec::capacity;
use crate::storage::vfs::{with_retry, DiskError, Vfs};
use crate::storage::wal::{get_table_state, put_table_state, TableState};
use bytes::{Buf, BufMut};
use std::path::Path;

/// Manifest magic: `"ODM1"`.
pub const MANIFEST_MAGIC: u32 = 0x314D_444F;
/// Current manifest format version.
pub const MANIFEST_VERSION: u32 = 1;

/// The durable snapshot a checkpoint publishes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Manifest {
    /// Sequence number of the last WAL record folded into this manifest;
    /// recovery skips records with `seq <= lsn`.
    pub lsn: u64,
    /// The next chunk file id to allocate.
    pub next_chunk: u64,
    /// Every table's physical state.
    pub tables: Vec<TableState>,
}

/// Encodes a manifest image.
pub fn encode_manifest(m: &Manifest) -> Vec<u8> {
    let mut buf = Vec::with_capacity(256);
    buf.put_u32_le(MANIFEST_MAGIC);
    buf.put_u32_le(MANIFEST_VERSION);
    buf.put_u64_le(m.lsn);
    buf.put_u64_le(m.next_chunk);
    buf.put_u32_le(m.tables.len() as u32);
    for t in &m.tables {
        put_table_state(&mut buf, t);
    }
    let crc = crc32(&buf);
    buf.put_u32_le(crc);
    buf
}

/// Decodes and verifies a manifest image.
pub fn decode_manifest(raw: &[u8]) -> Result<Manifest> {
    let corrupt = |m: String| EngineError::CorruptStorage(m);
    if raw.len() < 28 {
        return Err(corrupt(format!("manifest too short ({} bytes)", raw.len())));
    }
    let (body, tail) = raw.split_at(raw.len() - 4);
    let stored = u32::from_le_bytes(tail.try_into().expect("4-byte tail"));
    if crc32(body) != stored {
        return Err(corrupt("manifest checksum mismatch".into()));
    }
    let mut buf = body;
    let magic = buf.get_u32_le();
    if magic != MANIFEST_MAGIC {
        return Err(corrupt(format!("bad manifest magic {magic:#x}")));
    }
    let version = buf.get_u32_le();
    if version != MANIFEST_VERSION {
        return Err(corrupt(format!("unsupported manifest version {version}")));
    }
    let lsn = buf.get_u64_le();
    let next_chunk = buf.get_u64_le();
    let ntables = buf.get_u32_le() as usize;
    // Name length, attribute, index and chunk counts.
    let mut tables = Vec::with_capacity(capacity(ntables, buf.len(), 4 + 2 + 2 + 4));
    for _ in 0..ntables {
        tables.push(get_table_state(&mut buf).map_err(|e| corrupt(format!("manifest: {e}")))?);
    }
    if buf.has_remaining() {
        return Err(corrupt("trailing bytes after manifest tables".into()));
    }
    Ok(Manifest {
        lsn,
        next_chunk,
        tables,
    })
}

/// Writes the manifest atomically: temp file, fsync, rename over `path`.
/// Transient write/rename failures are retried (rewriting the temp file
/// is idempotent); a failed fsync — of the temp file or of the directory
/// making the rename durable — is [`DiskError::SyncFailed`], which the
/// durable layer treats as fatal.
pub fn write_manifest(
    vfs: &dyn Vfs,
    path: &Path,
    m: &Manifest,
    fsync: bool,
) -> std::result::Result<(), DiskError> {
    let tmp = path.with_extension("tmp");
    let raw = encode_manifest(m);
    with_retry(|| vfs.write(&tmp, &raw), || Ok(())).map_err(DiskError::Io)?;
    if fsync {
        vfs.sync(&tmp).map_err(DiskError::SyncFailed)?;
    }
    with_retry(|| vfs.rename(&tmp, path), || Ok(())).map_err(DiskError::Io)?;
    if fsync {
        // Make the rename itself durable.
        if let Some(dir) = path.parent() {
            vfs.sync_dir(dir).map_err(DiskError::SyncFailed)?;
        }
    }
    Ok(())
}

/// Reads the manifest at `path`, retrying transient read failures; `None`
/// if no checkpoint has happened yet.
pub fn read_manifest(vfs: &dyn Vfs, path: &Path) -> Result<Option<Manifest>> {
    match with_retry(|| vfs.read(path), || Ok(())) {
        Ok(raw) => decode_manifest(&raw).map(Some).map_err(|e| match e {
            EngineError::CorruptStorage(m) => {
                EngineError::CorruptStorage(format!("{}: {m}", path.display()))
            }
            other => other,
        }),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e.into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::fault::TempDir;
    use crate::storage::wal::ChunkEntry;
    use ongoing_relation::{Schema, Tuple, Value};
    use std::collections::BTreeMap;

    fn sample() -> Manifest {
        Manifest {
            lsn: 42,
            next_chunk: 7,
            tables: vec![TableState {
                name: "bugs".into(),
                schema: Schema::builder().int("K").int("G").interval("VT").build(),
                indexed: vec![0],
                chunks: vec![ChunkEntry {
                    file: 3,
                    base_len: 2,
                    overlay: BTreeMap::from([(0usize, vec![Tuple::base(vec![Value::Int(9)])])]),
                }],
            }],
        }
    }

    #[test]
    fn round_trips_via_file() {
        let vfs = crate::storage::vfs::RealFs;
        let dir = TempDir::new("manifest");
        let path = dir.path().join("MANIFEST");
        assert_eq!(read_manifest(&vfs, &path).unwrap(), None);
        write_manifest(&vfs, &path, &sample(), true).unwrap();
        assert_eq!(read_manifest(&vfs, &path).unwrap(), Some(sample()));
        // Re-publishing replaces atomically.
        let mut next = sample();
        next.lsn = 99;
        write_manifest(&vfs, &path, &next, false).unwrap();
        assert_eq!(read_manifest(&vfs, &path).unwrap().unwrap().lsn, 99);
    }

    #[test]
    fn damage_is_detected() {
        let mut raw = encode_manifest(&sample());
        for i in 0..raw.len() {
            raw[i] ^= 0x10;
            assert!(
                matches!(decode_manifest(&raw), Err(EngineError::CorruptStorage(_))),
                "flip at byte {i} went undetected"
            );
            raw[i] ^= 0x10;
        }
        for cut in 0..raw.len() {
            assert!(decode_manifest(&raw[..cut]).is_err(), "cut at {cut}");
        }
    }
}
