//! Seeded byte-level fuzz of the on-disk decoders: no input may panic
//! [`chunkfile::decode_chunk`], [`manifest::decode_manifest`],
//! [`wal::decode_payload`] or [`codec::decode_tuple`].
//!
//! Each decoder sees random bytes, every strict prefix of each valid
//! image, and one-byte mutations of valid images. A checksummed format
//! (chunk file, manifest) gets its CRC recomputed after a mutation, and
//! half of its random inputs are a valid magic plus random bytes,
//! resealed — so the inputs reach the structural decoder behind the
//! checksum. Random bytes and strict prefixes of a checksummed image
//! must be rejected, and so must every strict prefix of any image (each
//! format is self-delimiting), resealed or not: a resealed prefix keeps
//! the valid magic and version, so a header shorter than the decoder
//! reads reaches its length guard. A mutation may decode (a changed value
//! byte is another valid row), but nothing may panic: every damaged
//! image is an `Err`.

use ongoing_core::time::tp;
use ongoing_core::{IntervalSet, OngoingInt, OngoingInterval, OngoingPoint, TimePoint};
use ongoing_relation::{JournalOp, Schema, Tuple, Value};
use ongoingdb::engine::storage::checksum::crc32;
use ongoingdb::engine::storage::wal::{ChunkEntry, TableState, WalRecord};
use ongoingdb::engine::storage::{chunkfile, codec, manifest, wal};
use ongoingdb::engine::EngineError;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Rows covering every value kind, reference-time shapes and both
/// ongoing-integer encodings.
fn rows() -> Vec<Tuple> {
    let now = OngoingInt::from_point(OngoingPoint::now());
    (0..6i64)
        .map(|i| {
            Tuple::with_rt(
                vec![
                    Value::Int(i - 3),
                    Value::str(&"ab".repeat(i as usize)),
                    Value::Bool(i % 2 == 0),
                    Value::Time(tp(i)),
                    Value::Span(tp(i), tp(i + 9)),
                    Value::Point(OngoingPoint::growing(tp(i))),
                    Value::Interval(OngoingInterval::from_until_now(tp(i))),
                    Value::Count(match i % 3 {
                        0 => OngoingInt::constant(i),
                        1 => now.clone(),
                        _ => now.sub(&OngoingInt::constant(i64::MIN)),
                    }),
                ],
                IntervalSet::from_ranges([(tp(0), tp(5 + i)), (tp(20), TimePoint::POS_INF)]),
            )
        })
        .collect()
}

fn table_state() -> TableState {
    let schema = Schema::builder()
        .int("K")
        .str("S")
        .bool("B")
        .time("T")
        .interval("VT")
        .build();
    let rows = rows();
    let overlay: BTreeMap<usize, Vec<Tuple>> =
        BTreeMap::from([(0, Vec::new()), (3, rows[..2].to_vec())]);
    TableState {
        name: "T".into(),
        schema,
        indexed: vec![0, 1],
        chunks: vec![
            ChunkEntry {
                file: 7,
                base_len: 512,
                overlay,
            },
            ChunkEntry {
                file: 9,
                base_len: 3,
                overlay: BTreeMap::new(),
            },
        ],
    }
}

/// One decoder under fuzz: its valid images, whether the format carries
/// a trailing CRC (and its magic), and the decoder itself.
struct Target {
    name: &'static str,
    images: Vec<Vec<u8>>,
    magic: Option<u32>,
    decode: fn(&[u8]) -> Result<(), EngineError>,
}

fn targets() -> Vec<Target> {
    let rows = rows();
    let ops = vec![
        JournalOp::Append(rows[0].clone()),
        JournalOp::Edits(vec![(0, 3, rows[1..3].to_vec(), 2), (1, 0, Vec::new(), 1)]),
        JournalOp::Seal,
        JournalOp::Compact,
        JournalOp::CompactRuns,
        JournalOp::CreateKeyIndex(1),
    ];
    let records = [
        WalRecord::TableState(table_state()),
        WalRecord::Commit {
            table: "T".into(),
            ops,
        },
        WalRecord::DropTable { table: "T".into() },
    ];
    let manifests = [
        manifest::Manifest::default(),
        manifest::Manifest {
            lsn: 41,
            next_chunk: 10,
            tables: vec![table_state(), table_state()],
        },
    ];
    vec![
        Target {
            name: "decode_chunk",
            images: vec![chunkfile::encode_chunk(&rows), chunkfile::encode_chunk(&[])],
            magic: Some(chunkfile::CHUNK_MAGIC),
            decode: |b| chunkfile::decode_chunk(b).map(drop),
        },
        Target {
            name: "decode_manifest",
            images: manifests.iter().map(manifest::encode_manifest).collect(),
            magic: Some(manifest::MANIFEST_MAGIC),
            decode: |b| manifest::decode_manifest(b).map(drop),
        },
        Target {
            name: "decode_payload",
            images: records.iter().map(wal::encode_payload).collect(),
            magic: None,
            decode: |b| wal::decode_payload(b).map(drop),
        },
        Target {
            name: "decode_tuple",
            images: rows
                .iter()
                .map(|t| codec::encode_tuple(t).to_vec())
                .collect(),
            magic: None,
            decode: |b| codec::decode_tuple(b).map(drop),
        },
    ]
}

/// Recomputes an image's trailing CRC over everything before it.
fn reseal(image: &mut [u8]) {
    let body = image.len() - 4;
    let crc = crc32(&image[..body]);
    image[body..].copy_from_slice(&crc.to_le_bytes());
}

/// Runs one input through the target's decoder: `true` when it decoded.
/// A panic fails the test with the target, the input's origin and bytes,
/// and so does an untyped error: a file or record decoder reports damage
/// as [`EngineError::CorruptStorage`], the tuple codec as
/// [`EngineError::Storage`] (its callers wrap it).
fn decodes(t: &Target, what: &str, input: &[u8]) -> bool {
    match catch_unwind(AssertUnwindSafe(|| (t.decode)(input))) {
        Ok(Ok(())) => true,
        Ok(Err(EngineError::CorruptStorage(_))) => false,
        Ok(Err(EngineError::Storage(_))) if t.name == "decode_tuple" => false,
        Ok(Err(e)) => panic!("{}: {what} gave an untyped error {e:?}: {input:?}", t.name),
        Err(_) => panic!("{}: {what} panicked the decoder: {input:?}", t.name),
    }
}

/// Random bytes — for a checksummed format, half the time a valid magic
/// plus random bytes, resealed. Returns the input and whether it was
/// resealed (only a resealed input may decode).
fn random_input(rng: &mut SmallRng, magic: Option<u32>) -> (Vec<u8>, bool) {
    let len = rng.gen_range(0..96);
    let mut bytes: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
    let Some(magic) = magic.filter(|_| rng.gen_bool(0.5)) else {
        return (bytes, false);
    };
    bytes.splice(0..0, magic.to_le_bytes());
    bytes.extend([0; 4]);
    reseal(&mut bytes);
    (bytes, true)
}

#[test]
fn disk_decoders_never_panic() {
    let mut rng = SmallRng::seed_from_u64(20261018);
    for t in targets() {
        for image in &t.images {
            assert!(decodes(&t, "valid image", image), "{}: seed image", t.name);
            for cut in 0..image.len() {
                let ok = decodes(&t, &format!("prefix {cut}"), &image[..cut]);
                assert!(!ok, "{}: prefix of {cut} bytes decoded", t.name);
                if t.magic.is_some() && cut >= 4 {
                    let mut sealed = image[..cut - 4].to_vec();
                    sealed.extend([0; 4]);
                    reseal(&mut sealed);
                    let ok = decodes(&t, &format!("resealed prefix {cut}"), &sealed);
                    assert!(!ok, "{}: resealed prefix of {cut} bytes decoded", t.name);
                }
            }
        }
        let (mut ok, mut err) = (0usize, 0usize);
        for i in 0..4_000 {
            let (input, resealed) = random_input(&mut rng, t.magic);
            let decoded = decodes(&t, &format!("random input {i}"), &input);
            if t.magic.is_some() && !resealed {
                assert!(!decoded, "{}: random bytes decoded: {input:?}", t.name);
            }
        }
        for i in 0..8_000 {
            let mut image = t.images[i % t.images.len()].clone();
            let at = rng.gen_range(0..image.len());
            image[at] ^= rng.gen_range(1..=u8::MAX);
            if t.magic.is_some() && at < image.len() - 4 {
                reseal(&mut image);
            }
            match decodes(&t, &format!("mutation {i} at byte {at}"), &image) {
                true => ok += 1,
                false => err += 1,
            }
        }
        // Both outcomes occur, so the mutations reach past the framing.
        assert!(ok > 0 && err > 100, "{}: ok {ok}, err {err}", t.name);
    }
}
