//! Keyed qualification indexes over fixed attributes.
//!
//! Modifications address tuples by key ("terminate bug 500"), yet the
//! plain write path qualifies a `Modifier` predicate by scanning every
//! live row — O(table) read work for an O(rows touched) write. Classical
//! temporal-manipulation systems treat update qualification as an indexed
//! operation instead; this module brings the storage layer in line.
//!
//! The index follows the relation's chunked copy-on-write layout
//! ([`crate::relation`]):
//!
//! * **Per-chunk key maps** — every sealed chunk carries an immutable
//!   [`KeyMap`] per indexed column, mapping key value → base offsets.
//!   Chunk bases never mutate, so a key map is built once (when the chunk
//!   is sealed or folded) and shared by every version holding the chunk —
//!   forks copy nothing.
//! * **Overlay key maps** — a chunk's edit overlay carries its own
//!   [`KeyMap`] per indexed column, filing each base offset under the keys
//!   of its *replacement* rows (so an update that reassigns the key stays
//!   addressable by the new key). It lives behind the overlay's one `Arc`,
//!   so the overlay's copy-on-write copies it too, and each row edit
//!   maintains it in O(delta · log): the replaced list's keys out, the new
//!   list's keys in. Base offsets the overlay supersedes are skipped.
//! * **Pending tail** — the open insert tail is walked unconditionally.
//!   It carries no key map because every published version has an empty
//!   tail (the catalog seals before publishing); only a version under
//!   modification holds one, bounded by one chunk of rows.
//!
//! Keyed qualification therefore costs O(rows matching + pending rows +
//! #chunks) instead of O(table).
//!
//! A [`KeyProbe`] names the indexable component of a qualification
//! predicate — an equality or range condition on one indexed column. The
//! probe must be a *necessary* condition of the full predicate (it is
//! derived from conjuncts, which always are): rows failing the probe are
//! skipped without evaluating the predicate.
//!
//! Reads and writes choose the keyed path through one method,
//! [`OngoingRelation::key_probe`](crate::OngoingRelation::key_probe): it
//! derives the probe from the predicate's conjuncts and returns it only
//! when every chunk carries a key map for the column and the keyed walk
//! visits fewer rows than the scan ([`QualEstimate`]). The optimizer
//! lowers a `KeyScan` exactly when it returns a probe, and the `Modifier`
//! edits through it.

use crate::expr::{CmpOp, Expr};
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::{cmp_values, Value};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::ops::Bound;

/// A key value ordered by [`cmp_values`] — the total order the relation
/// layer already uses to canonicalize rows. Index keys are restricted to
/// fixed scalar types (`Int`, `Str`, `Bool`, `Time`), for which the order
/// agrees with equality.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexKey(pub Value);

impl PartialOrd for IndexKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for IndexKey {
    fn cmp(&self, other: &Self) -> Ordering {
        cmp_values(&self.0, &other.0)
    }
}

/// A key → base-offset index over one chunk: over its immutable base, or
/// over its overlay's replacement rows (filed under their base offset).
/// Offsets are chunk-local (`u32` — chunks hold at most
/// [`crate::TARGET_CHUNK_ROWS`] rows) and stored ascending and distinct
/// per key.
pub type KeyMap = BTreeMap<IndexKey, Vec<u32>>;

/// Builds the key map of a sealed chunk base for one column.
pub(crate) fn build_key_map(base: &[Tuple], col: usize) -> KeyMap {
    let mut map = KeyMap::new();
    for (off, t) in base.iter().enumerate() {
        map.entry(IndexKey(t.value(col).clone()))
            .or_default()
            .push(off as u32);
    }
    map
}

/// Files `off` under `key`, keeping the key's offsets ascending and
/// distinct. O(log |map| + offsets under the key).
pub(crate) fn add_key(map: &mut KeyMap, key: &Value, off: usize) {
    let offs = map.entry(IndexKey(key.clone())).or_default();
    if let Err(i) = offs.binary_search(&(off as u32)) {
        offs.insert(i, off as u32);
    }
}

/// Withdraws `off` from `key`, dropping the key once it files nothing.
/// Withdrawing an offset the key does not file is a no-op.
pub(crate) fn remove_key(map: &mut KeyMap, key: &Value, off: usize) {
    let key = IndexKey(key.clone());
    let Some(offs) = map.get_mut(&key) else {
        return;
    };
    if let Ok(i) = offs.binary_search(&(off as u32)) {
        offs.remove(i);
    }
    if offs.is_empty() {
        map.remove(&key);
    }
}

/// The indexable component of a qualification predicate: an equality or
/// range condition on one indexed column. Probes are *pruning* conditions
/// only — the caller still evaluates its full predicate on every candidate
/// row, so a probe that is a necessary condition of the predicate changes
/// which rows are *visited*, never which rows are *edited*.
#[derive(Debug, Clone, PartialEq)]
pub enum KeyProbe {
    /// `column = key`.
    Eq {
        /// The indexed column.
        col: usize,
        /// The key value.
        key: Value,
    },
    /// `lo ≤/< column ≤/< hi` (either side may be unbounded, not both).
    Range {
        /// The indexed column.
        col: usize,
        /// Lower bound.
        lo: Bound<Value>,
        /// Upper bound.
        hi: Bound<Value>,
    },
}

fn key_bound(b: &Bound<Value>) -> Bound<IndexKey> {
    match b {
        Bound::Included(v) => Bound::Included(IndexKey(v.clone())),
        Bound::Excluded(v) => Bound::Excluded(IndexKey(v.clone())),
        Bound::Unbounded => Bound::Unbounded,
    }
}

/// Is `[lo, hi]` a provably empty range? Contradictory conjuncts
/// (`K >= 5 AND K <= 3`, `K > 5 AND K < 5`) produce such probes;
/// `BTreeMap::range` panics on an inverted range, so they are answered
/// with an empty candidate set instead.
fn range_is_empty(lo: &Bound<Value>, hi: &Bound<Value>) -> bool {
    use Ordering::*;
    match (lo, hi) {
        (Bound::Unbounded, _) | (_, Bound::Unbounded) => false,
        (Bound::Included(l), Bound::Included(h)) => cmp_values(l, h) == Greater,
        (Bound::Included(l), Bound::Excluded(h))
        | (Bound::Excluded(l), Bound::Included(h))
        | (Bound::Excluded(l), Bound::Excluded(h)) => cmp_values(l, h) != Less,
    }
}

/// Keeps the tighter of `cur` and `new`, two bounds on the same side of
/// a range (`upper`: the smaller limit wins); on equal limits the
/// exclusive bound wins (it admits fewer rows).
fn tighten(cur: &mut Bound<Value>, new: Bound<Value>, upper: bool) {
    let (Bound::Included(v) | Bound::Excluded(v)) = &new else {
        return;
    };
    let tighter = match &*cur {
        Bound::Unbounded => true,
        Bound::Included(c) | Bound::Excluded(c) => {
            let ord = cmp_values(v, c);
            let ord = if upper { ord } else { ord.reverse() };
            ord == Ordering::Less || (ord == Ordering::Equal && matches!(new, Bound::Excluded(_)))
        }
    };
    if tighter {
        *cur = new;
    }
}

impl KeyProbe {
    /// The indexable component of `pred`: for the first column of `cols`
    /// any conjunct constrains, the equality (the last `col = const`
    /// conjunct) or else the tightest range its `<`, `<=`, `>`, `>=`
    /// conjuncts imply, in either operand order. Conjuncts are necessary
    /// conditions, so the probe is a sound pruning condition for the whole
    /// predicate. A constant of another type than the column never drives
    /// the probe, so the *key* conjunct itself cannot type-error on a row
    /// the keyed walk skips; errors raised by other conjuncts surface only
    /// for rows the walk visits (as with any index access path).
    pub(crate) fn derive(pred: &Expr, schema: &Schema, cols: &[usize]) -> Option<KeyProbe> {
        let conjuncts = pred.conjuncts_ref();
        for &col in cols {
            let Ok(attr) = schema.attr(col) else { continue };
            let mut eq: Option<Value> = None;
            let (mut lo, mut hi) = (Bound::Unbounded, Bound::Unbounded);
            for c in &conjuncts {
                let Expr::Cmp(op, l, r) = c else { continue };
                let (i, v, op) = match (l.as_ref(), r.as_ref()) {
                    (Expr::Col(i), Expr::Const(v)) => (*i, v, *op),
                    (Expr::Const(v), Expr::Col(i)) => (*i, v, op.mirror()),
                    _ => continue,
                };
                if i != col || v.value_type() != attr.ty {
                    continue;
                }
                match op {
                    CmpOp::Eq => eq = Some(v.clone()),
                    CmpOp::Le => tighten(&mut hi, Bound::Included(v.clone()), true),
                    CmpOp::Lt => tighten(&mut hi, Bound::Excluded(v.clone()), true),
                    CmpOp::Ge => tighten(&mut lo, Bound::Included(v.clone()), false),
                    CmpOp::Gt => tighten(&mut lo, Bound::Excluded(v.clone()), false),
                    CmpOp::Ne => {}
                }
            }
            if let Some(key) = eq {
                return Some(KeyProbe::Eq { col, key });
            }
            if !matches!((&lo, &hi), (Bound::Unbounded, Bound::Unbounded)) {
                return Some(KeyProbe::Range { col, lo, hi });
            }
        }
        None
    }

    /// The column the probe addresses.
    pub fn col(&self) -> usize {
        match self {
            KeyProbe::Eq { col, .. } | KeyProbe::Range { col, .. } => *col,
        }
    }

    /// Does a key value satisfy the probe?
    pub fn matches(&self, v: &Value) -> bool {
        use Ordering::*;
        match self {
            KeyProbe::Eq { key, .. } => v == key,
            KeyProbe::Range { lo, hi, .. } => {
                let above = match lo {
                    Bound::Included(l) => cmp_values(v, l) != Less,
                    Bound::Excluded(l) => cmp_values(v, l) == Greater,
                    Bound::Unbounded => true,
                };
                let below = match hi {
                    Bound::Included(h) => cmp_values(v, h) != Greater,
                    Bound::Excluded(h) => cmp_values(v, h) == Less,
                    Bound::Unbounded => true,
                };
                above && below
            }
        }
    }

    /// The chunk-local base offsets matching the probe, in ascending key
    /// order. O(log |map| + matches).
    pub(crate) fn candidates<'a>(&self, map: &'a KeyMap) -> Box<dyn Iterator<Item = u32> + 'a> {
        match self {
            KeyProbe::Eq { key, .. } => Box::new(
                map.get(&IndexKey(key.clone()))
                    .into_iter()
                    .flatten()
                    .copied(),
            ),
            KeyProbe::Range { lo, hi, .. } if range_is_empty(lo, hi) => {
                Box::new(std::iter::empty())
            }
            KeyProbe::Range { lo, hi, .. } => Box::new(
                map.range((key_bound(lo), key_bound(hi)))
                    .flat_map(|(_, offs)| offs.iter().copied()),
            ),
        }
    }

    /// Number of matching base offsets in one chunk map, without
    /// materializing them.
    pub(crate) fn candidate_count(&self, map: &KeyMap) -> u64 {
        match self {
            KeyProbe::Eq { key, .. } => {
                map.get(&IndexKey(key.clone())).map_or(0, |o| o.len()) as u64
            }
            KeyProbe::Range { lo, hi, .. } if range_is_empty(lo, hi) => 0,
            KeyProbe::Range { lo, hi, .. } => map
                .range((key_bound(lo), key_bound(hi)))
                .map(|(_, offs)| offs.len() as u64)
                .sum(),
        }
    }
}

/// Exact (not estimated) per-path qualification work for one probe over
/// one relation version, in its deterministic work units (rows
/// visited, plus one unit per chunk probed for the keyed path).
/// [`OngoingRelation::key_probe`](crate::OngoingRelation::key_probe)
/// takes the keyed path only when it is strictly cheaper (on ties the
/// scan's better constants prevail); the units are the same currency as
/// [`OngoingRelation::qual_work`](crate::OngoingRelation::qual_work).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QualEstimate {
    /// Work of the keyed path: `candidates + pending + chunks` — the rows
    /// the keyed walk visits, plus one key-map probe per sealed chunk.
    pub keyed: u64,
    /// Work of the full-scan path: every live row.
    pub scan: u64,
    /// Live sealed rows the keyed walk visits: base rows whose key matches
    /// and that no overlay entry supersedes, plus every replacement list
    /// holding a matching key (a list is visited whole).
    pub candidates: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(x: i64) -> Tuple {
        Tuple::base(vec![Value::Int(x), Value::str(&format!("s{x}"))])
    }

    #[test]
    fn key_map_groups_offsets_by_value() {
        let base: Vec<Tuple> = [1i64, 2, 1, 3, 2].iter().map(|&x| t(x)).collect();
        let map = build_key_map(&base, 0);
        assert_eq!(map[&IndexKey(Value::Int(1))], vec![0, 2]);
        assert_eq!(map[&IndexKey(Value::Int(2))], vec![1, 4]);
        assert_eq!(map[&IndexKey(Value::Int(3))], vec![3]);
    }

    #[test]
    fn eq_probe_finds_exact_matches() {
        let base: Vec<Tuple> = (0..10).map(t).collect();
        let map = build_key_map(&base, 0);
        let p = KeyProbe::Eq {
            col: 0,
            key: Value::Int(7),
        };
        assert_eq!(p.candidates(&map).collect::<Vec<_>>(), vec![7]);
        assert_eq!(p.candidate_count(&map), 1);
        assert!(p.matches(&Value::Int(7)));
        assert!(!p.matches(&Value::Int(8)));
    }

    #[test]
    fn range_probe_respects_bounds() {
        let base: Vec<Tuple> = (0..10).map(t).collect();
        let map = build_key_map(&base, 0);
        let p = KeyProbe::Range {
            col: 0,
            lo: Bound::Included(Value::Int(3)),
            hi: Bound::Excluded(Value::Int(6)),
        };
        assert_eq!(p.candidates(&map).collect::<Vec<_>>(), vec![3, 4, 5]);
        assert_eq!(p.candidate_count(&map), 3);
        assert!(p.matches(&Value::Int(3)));
        assert!(!p.matches(&Value::Int(6)));
        let open = KeyProbe::Range {
            col: 0,
            lo: Bound::Excluded(Value::Int(7)),
            hi: Bound::Unbounded,
        };
        assert_eq!(open.candidates(&map).collect::<Vec<_>>(), vec![8, 9]);
    }

    #[test]
    fn contradictory_ranges_match_nothing_without_panicking() {
        let base: Vec<Tuple> = (0..10).map(t).collect();
        let map = build_key_map(&base, 0);
        for (lo, hi) in [
            (
                Bound::Included(Value::Int(5)),
                Bound::Included(Value::Int(3)),
            ),
            (
                Bound::Excluded(Value::Int(5)),
                Bound::Excluded(Value::Int(5)),
            ),
            (
                Bound::Included(Value::Int(5)),
                Bound::Excluded(Value::Int(5)),
            ),
            (
                Bound::Excluded(Value::Int(5)),
                Bound::Included(Value::Int(5)),
            ),
        ] {
            let p = KeyProbe::Range { col: 0, lo, hi };
            assert_eq!(p.candidates(&map).count(), 0, "{p:?}");
            assert_eq!(p.candidate_count(&map), 0, "{p:?}");
        }
        // The adjacent satisfiable case still matches.
        let p = KeyProbe::Range {
            col: 0,
            lo: Bound::Included(Value::Int(5)),
            hi: Bound::Included(Value::Int(5)),
        };
        assert_eq!(p.candidates(&map).collect::<Vec<_>>(), vec![5]);
    }

    #[test]
    fn string_keys_order_lexicographically() {
        let base: Vec<Tuple> = [3i64, 1, 2].iter().map(|&x| t(x)).collect();
        let map = build_key_map(&base, 1);
        let p = KeyProbe::Range {
            col: 1,
            lo: Bound::Included(Value::str("s1")),
            hi: Bound::Included(Value::str("s2")),
        };
        let mut offs: Vec<u32> = p.candidates(&map).collect();
        offs.sort_unstable();
        assert_eq!(offs, vec![1, 2]);
    }
}
