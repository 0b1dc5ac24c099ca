//! The keyed row table behind hash joins and grouping.
//!
//! [`KeyedRows`] owns a list of rows and chains them by a hash of their
//! key columns. Keys are hashed and compared in place — the hash reads
//! the row's key values through [`FxHasher`], a probe compares key
//! columns with `Value`'s `==` — so neither a build row nor a probe row
//! collects its key into an owned `Vec<Value>`. Rows are chained back to
//! front, so every chain, and every probe's matches, list rows in build
//! order. Equal hashes of unequal keys cost one key comparison each and
//! are never returned.

use ongoing_relation::{Tuple, Value};
use std::hash::{Hash, Hasher};

/// The end of a chain.
const NONE: usize = usize::MAX;

/// Fx's multiplier (rustc's `FxHasher`): odd, with its bits spread.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fixed, unseeded word-at-a-time hasher in the style of rustc's
/// `FxHasher`: each word is folded in as `h = (h <<< 5 ^ w) · SEED`. The
/// multiply carries every input bit into the high bits, which is where
/// [`KeyedRows`] takes its bucket from.
#[derive(Default)]
struct FxHasher(u64);

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            self.add(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// The hash of `row`'s values at `cols`, read in place.
fn key_hash(row: &[Value], cols: &[usize]) -> u64 {
    let mut h = FxHasher::default();
    for &c in cols {
        row[c].hash(&mut h);
    }
    h.finish()
}

/// The bucket of `hash` among `2^(64 − shift)`: its top bits.
fn bucket(hash: u64, shift: u32) -> usize {
    hash.checked_shr(shift).unwrap_or(0) as usize
}

/// Build rows chained by the hash of their key columns — see the
/// [module docs](self).
pub(crate) struct KeyedRows {
    rows: Vec<Tuple>,
    /// The build rows' key columns.
    cols: Vec<usize>,
    /// Per row: its key hash and the next row of its chain.
    hashes: Vec<u64>,
    next: Vec<usize>,
    /// Per bucket: the first row of its chain.
    heads: Vec<usize>,
    /// `64 − log2(#buckets)`, see [`bucket`].
    shift: u32,
    /// [`key_hash`]; a test substitutes a degenerate one.
    hash: fn(&[Value], &[usize]) -> u64,
}

impl KeyedRows {
    /// `rows` keyed on their values at `cols`. With no key columns every
    /// row shares one chain, which a probe then walks whole.
    pub(crate) fn build(rows: Vec<Tuple>, cols: Vec<usize>) -> Self {
        Self::build_with(rows, cols, key_hash)
    }

    fn build_with(rows: Vec<Tuple>, cols: Vec<usize>, hash: fn(&[Value], &[usize]) -> u64) -> Self {
        let buckets = rows.len().next_power_of_two();
        let shift = 64 - buckets.trailing_zeros();
        let hashes: Vec<u64> = rows.iter().map(|t| hash(t.values(), &cols)).collect();
        let (mut heads, mut next) = (vec![NONE; buckets], vec![NONE; rows.len()]);
        // Back to front: each row is pushed before the earlier rows of
        // its chain, so a chain reads in build order.
        for i in (0..rows.len()).rev() {
            let b = bucket(hashes[i], shift);
            next[i] = heads[b];
            heads[b] = i;
        }
        KeyedRows {
            rows,
            cols,
            hashes,
            next,
            heads,
            shift,
            hash,
        }
    }

    /// The build rows, in build order.
    pub(crate) fn rows(&self) -> &[Tuple] {
        &self.rows
    }

    /// Positions of the build rows whose key equals `probe`'s values at
    /// `cols` (paired with the build key columns in order), ascending.
    pub(crate) fn matches<'a>(
        &'a self,
        probe: &'a [Value],
        cols: &'a [usize],
    ) -> impl Iterator<Item = usize> + 'a {
        let hash = (self.hash)(probe, cols);
        let head = self.heads[bucket(hash, self.shift)];
        let step = |&i: &usize| Some(self.next[i]).filter(|&n| n != NONE);
        std::iter::successors(Some(head).filter(|&h| h != NONE), step).filter(move |&i| {
            let row = self.rows[i].values();
            self.hashes[i] == hash
                && self
                    .cols
                    .iter()
                    .zip(cols)
                    .all(|(&b, &p)| row[b] == probe[p])
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(keys: &[(&str, i64)]) -> Vec<Tuple> {
        let row = |(i, &(s, k)): (usize, &(&str, i64))| {
            Tuple::base(vec![Value::str(s), Value::Int(k), Value::Int(i as i64)])
        };
        keys.iter().enumerate().map(row).collect()
    }

    /// Every row in one chain: only the in-place key comparison tells
    /// rows apart, and the chain must still read in build order.
    #[test]
    fn a_degenerate_hash_still_returns_exactly_the_equal_keys_in_build_order() {
        let keys = [("a", 1), ("b", 1), ("a", 2), ("a", 1), ("b", 1), ("a", 1)];
        let table = KeyedRows::build_with(rows(&keys), vec![0, 1], |_, _| 0);
        for probe in [("a", 1), ("b", 1), ("a", 2), ("c", 1), ("b", 2)] {
            let probe_row = [Value::Int(0), Value::Int(probe.1), Value::str(probe.0)];
            let got: Vec<usize> = table.matches(&probe_row, &[2, 1]).collect();
            let want: Vec<usize> = (0..keys.len()).filter(|&i| keys[i] == probe).collect();
            assert_eq!(got, want, "probe {probe:?}");
        }
        // Keyless: one chain of every row, in build order.
        let all = KeyedRows::build(rows(&keys), Vec::new());
        let got: Vec<usize> = all.matches(&[], &[]).collect();
        assert_eq!(got, (0..keys.len()).collect::<Vec<_>>());
    }

    #[test]
    fn the_hash_reads_values_not_their_allocation() {
        let (a, b) = (Value::str("same"), Value::str("same"));
        assert_eq!(key_hash(&[a], &[0]), key_hash(&[b], &[0]));
        let long = |s: &str| key_hash(&[Value::str(s)], &[0]);
        assert_ne!(long("0123456789abcdef0"), long("0123456789abcdef1"));
        assert_ne!(
            key_hash(&[Value::Int(1)], &[0]),
            key_hash(&[Value::Int(2)], &[0])
        );
        let empty = KeyedRows::build(Vec::new(), vec![0]);
        assert_eq!(empty.matches(&[Value::Int(1)], &[0]).count(), 0);
    }
}
