//! Storage substrate: tuple codec, byte layout model, and the durability
//! stack (checksums, chunk files, write-ahead log, manifest, fault
//! injection, durable state).
//!
//! The durable layout and its crash-recovery contract are documented on
//! [`durable`]; the individual formats on [`wal`], [`chunkfile`] and
//! [`manifest`].

pub mod cache;
pub mod checksum;
pub mod chunkfile;
pub mod codec;
pub mod durable;
pub mod fault;
pub mod layout;
pub mod manifest;
pub mod vfs;
pub mod wal;

pub use cache::{CacheStats, ChunkCache};
pub use durable::{DurableOptions, DurableStats};
pub use fault::{FaultFs, FaultKind, FaultMode, FaultPlan, FaultVfs, OpKind, TempDir};
pub use layout::{measure_relation, measure_tuple, RelationFootprint, TupleFootprint};
pub use vfs::{DiskError, RealFs, Vfs};

/// The bytes a hex literal spells — how the golden-image tests pin the
/// on-disk formats.
#[cfg(test)]
pub(crate) fn unhex(hex: &str) -> Vec<u8> {
    hex.as_bytes()
        .chunks(2)
        .map(|p| u8::from_str_radix(std::str::from_utf8(p).expect("ascii"), 16).expect("hex"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::checksum::crc32;
    use super::{chunkfile, codec, manifest, wal};

    /// An image with its trailing CRC32, as the chunk-file and manifest
    /// writers seal it — so the decoders get past the checksum.
    fn sealed(parts: &[&[u8]]) -> Vec<u8> {
        let mut image = parts.concat();
        let crc = crc32(&image);
        image.extend_from_slice(&crc.to_le_bytes());
        image
    }

    /// Every count field set to `u32::MAX` (or `u16::MAX`) with no element
    /// bytes behind it is an error, not an allocation sized by the count.
    #[test]
    fn decoders_reject_huge_counts_without_reserving_them() {
        let max = u32::MAX.to_le_bytes();
        let (zero2, zero4, zero8, one4) = ([0u8; 2], [0u8; 4], [0u8; 8], 1u32.to_le_bytes());
        // WAL payloads: tag 1 is a table state, tag 2 a commit (empty
        // table names); journal op 1 is an edit plan.
        let payloads: [Vec<u8>; 6] = [
            [&[2u8][..], &zero4, &max].concat(),
            [&[2u8][..], &zero4, &one4, &[1], &max].concat(),
            [&[2u8][..], &zero4, &one4, &[1], &one4, &zero8, &zero8, &max].concat(),
            [&[1u8][..], &zero4, &[0xff, 0xff]].concat(),
            [&[1u8][..], &zero4, &zero2, &zero2, &max].concat(),
            [
                &[1u8][..],
                &zero4,
                &zero2,
                &zero2,
                &one4,
                &zero8,
                &zero4,
                &one4,
                &zero4,
                &max,
            ]
            .concat(),
        ];
        for (i, p) in payloads.iter().enumerate() {
            assert!(wal::decode_payload(p).is_err(), "WAL payload {i}");
        }
        let chunk = sealed(&[&chunkfile::CHUNK_MAGIC.to_le_bytes(), &max]);
        assert!(chunkfile::decode_chunk(&chunk).is_err());
        let image = sealed(&[
            &manifest::MANIFEST_MAGIC.to_le_bytes(),
            &manifest::MANIFEST_VERSION.to_le_bytes(),
            &zero8,
            &zero8,
            &max,
        ]);
        assert!(manifest::decode_manifest(&image).is_err());
        // Tuples: an `RT` range count, an ongoing integer's piece count
        // (value tag 7) and an arity.
        assert!(codec::decode_tuple(&[&zero2[..], &max].concat()).is_err());
        assert!(codec::decode_tuple(&[&1u16.to_le_bytes()[..], &[7], &max].concat()).is_err());
        assert!(codec::decode_tuple(&[0xff, 0xff]).is_err());
    }
}
