//! Now-relative database modifications (the Torp et al.\[4\] setting,
//! Sec. III).
//!
//! Torp et al. showed that *instantiating* ongoing time points while
//! modifying a temporal database corrupts it: binding `now` at modification
//! time freezes a value that was supposed to keep changing. Their fix —
//! and what this module implements on top of `Ω` — is to express
//! modifications through uninstantiated `min`/`max` (interval
//! intersection), so the stored data remains correct as time passes by.
//!
//! Supported operations on a valid-time attribute:
//!
//! * [`Modifier::insert_open`] — insert a tuple valid `[start, now)`;
//! * [`Modifier::terminate`] — logical deletion: cap the valid time of the
//!   qualifying tuples at a point `at`, i.e. `te := min(te, at)` — for an
//!   open tuple this yields the *limited* point `+at`, still ongoing;
//! * [`Modifier::update`] — sequenced update: the old version keeps
//!   `[ts, min(te, at))`, the new version gets `[max(ts, at), te)`;
//! * [`Modifier::delete`] — physical deletion of qualifying tuples.
//!
//! Qualification predicates must reference only fixed attributes
//! (modifications address tuples by key); predicates over ongoing
//! attributes would make *which tuple is modified* depend on the reference
//! time, which the paper leaves to query processing.
//!
//! All operations write through the relation's copy-on-write store
//! ([`OngoingRelation::edit_tuples`]): the *write* cost — and therefore
//! the physical delta a new version carries — is O(rows modified), not
//! O(table). The *read* side of a modification (deciding which rows
//! qualify) matches: when the predicate carries an equality or range
//! conjunct on a column with a keyed index
//! ([`OngoingRelation::create_key_index`]), the modifier derives a
//! [`KeyProbe`] and qualifies through the index in O(rows matching)
//! instead of scanning the table — choosing index vs scan with the cost
//! model's [`qualification_path`] over the storage layer's exact per-path
//! work figures.

use crate::error::{EngineError, Result};
use crate::stats::cost::{qualification_path, QualPath};
use ongoing_core::{ops, OngoingInterval, OngoingPoint, TimePoint};
use ongoing_relation::value::cmp_values;
use ongoing_relation::{CmpOp, Expr, KeyProbe, OngoingRelation, RowEdit, Tuple, Value};
use std::ops::Bound;

/// Edits an ongoing relation's valid-time attribute with now-relative
/// semantics.
pub struct Modifier<'a> {
    rel: &'a mut OngoingRelation,
    vt_col: usize,
}

impl<'a> Modifier<'a> {
    /// Creates a modifier over the valid-time attribute named `vt`.
    pub fn new(rel: &'a mut OngoingRelation, vt: &str) -> Result<Self> {
        let vt_col = rel.schema().index_of(vt)?;
        let ty = rel.schema().attr(vt_col)?.ty;
        if ty != ongoing_relation::ValueType::OngoingInterval {
            return Err(EngineError::Plan(format!(
                "valid-time attribute must be an ongoing interval, `{vt}` is {ty:?}"
            )));
        }
        Ok(Modifier { rel, vt_col })
    }

    fn check_fixed_pred(&self, pred: &Expr) -> Result<()> {
        if pred.references_ongoing(self.rel.schema()) {
            return Err(EngineError::Plan(
                "modification predicates must reference fixed attributes only".into(),
            ));
        }
        Ok(())
    }

    /// Derives the indexable component of `pred`: the tightest equality or
    /// range condition any conjunct places on a key-indexed column.
    /// Conjuncts are necessary conditions, so the probe is a sound pruning
    /// condition for the whole predicate; the probe constant is typed
    /// against the schema, so the *key* conjunct itself can never
    /// type-error on a row the keyed pass skips. Errors raised by *other*
    /// conjuncts surface lazily — only for rows the qualification actually
    /// visits (as with any database access path, a predicate error on a
    /// row the index prunes is never observed).
    fn key_probe(&self, pred: &Expr) -> Option<KeyProbe> {
        let schema = self.rel.schema();
        let conjuncts = pred.conjuncts_ref();
        for &col in self.rel.key_indexed_columns() {
            let Ok(attr) = schema.attr(col) else { continue };
            let mut eq: Option<Value> = None;
            let mut lo: Bound<Value> = Bound::Unbounded;
            let mut hi: Bound<Value> = Bound::Unbounded;
            for c in &conjuncts {
                let Expr::Cmp(op, l, r) = c else { continue };
                let (i, v, op) = match (l.as_ref(), r.as_ref()) {
                    (Expr::Col(i), Expr::Const(v)) => (*i, v, *op),
                    // `const op col` reads as `col flipped-op const`.
                    (Expr::Const(v), Expr::Col(i)) => (
                        *i,
                        v,
                        match *op {
                            CmpOp::Lt => CmpOp::Gt,
                            CmpOp::Le => CmpOp::Ge,
                            CmpOp::Gt => CmpOp::Lt,
                            CmpOp::Ge => CmpOp::Le,
                            eq_ne => eq_ne,
                        },
                    ),
                    _ => continue,
                };
                if i != col || v.value_type() != attr.ty {
                    continue;
                }
                match op {
                    CmpOp::Eq => eq = Some(v.clone()),
                    CmpOp::Le => tighten_upper(&mut hi, v, true),
                    CmpOp::Lt => tighten_upper(&mut hi, v, false),
                    CmpOp::Ge => tighten_lower(&mut lo, v, true),
                    CmpOp::Gt => tighten_lower(&mut lo, v, false),
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

    /// The access path qualification of `pred` will take, with the
    /// work-unit figures that drive the choice — for `EXPLAIN`-style
    /// inspection and the cost-flip tests.
    pub fn qualification(&self, pred: &Expr) -> QualPath {
        if let Some(probe) = self.key_probe(pred) {
            if let Some(est) = self.rel.qualification_estimate(&probe) {
                return qualification_path(probe.col(), &est);
            }
        }
        QualPath::Scan {
            rows: self.rel.len() as u64,
        }
    }

    /// Runs a row-edit pass qualified by `pred`: through the keyed index
    /// when a probe exists and the cost model favors it, by full scan
    /// otherwise. `f` sees exactly the rows it would see under a full
    /// scan restricted to possibly-matching rows.
    fn edit_qualified(
        &mut self,
        pred: &Expr,
        mut f: impl FnMut(&Tuple) -> Result<RowEdit>,
    ) -> Result<()> {
        if let Some(probe) = self.key_probe(pred) {
            if let Some(est) = self.rel.qualification_estimate(&probe) {
                if qualification_path(probe.col(), &est).is_keyed()
                    && self.rel.edit_tuples_where(&probe, &mut f)?.is_some()
                {
                    return Ok(());
                }
            }
        }
        self.rel.edit_tuples(f)?;
        Ok(())
    }

    /// Inserts a tuple whose validity starts at `start` and is open-ended:
    /// `VT = [start, now)`. `values` must contain a placeholder at the
    /// valid-time position (it is overwritten).
    pub fn insert_open(&mut self, mut values: Vec<Value>, start: TimePoint) -> Result<()> {
        if values.len() != self.rel.schema().len() {
            return Err(EngineError::Schema(
                ongoing_relation::SchemaError::Mismatch(format!(
                    "tuple arity {} does not match schema arity {}",
                    values.len(),
                    self.rel.schema().len()
                )),
            ));
        }
        values[self.vt_col] = Value::Interval(OngoingInterval::from_until_now(start));
        self.rel.insert(values).map_err(EngineError::Schema)
    }

    /// Logical deletion: for every tuple satisfying `pred`, the valid time
    /// end becomes `min(te, at)` — uninstantiated, per Torp et al. Returns
    /// the number of modified tuples. Tuples whose valid time becomes
    /// always-empty are removed.
    pub fn terminate(&mut self, pred: &Expr, at: TimePoint) -> Result<usize> {
        self.check_fixed_pred(pred)?;
        let vt_col = self.vt_col;
        let cap = OngoingPoint::fixed(at);
        let mut modified = 0usize;
        self.edit_qualified(pred, |t| -> Result<RowEdit> {
            if !pred.eval_bool(t.values())? {
                return Ok(RowEdit::Keep);
            }
            modified += 1;
            let iv = t
                .value(vt_col)
                .as_interval()
                .ok_or_else(|| EngineError::Plan("valid-time value is not an interval".into()))?;
            let capped = OngoingInterval::new(iv.ts(), ops::min(iv.te(), cap));
            if capped.nonempty_set().is_empty() {
                return Ok(RowEdit::Remove); // never valid anywhere: physically gone
            }
            let mut values = t.values().to_vec();
            values[vt_col] = Value::Interval(capped);
            Ok(RowEdit::Replace(vec![Tuple::with_rt(
                values,
                t.rt().clone(),
            )]))
        })?;
        Ok(modified)
    }

    /// Sequenced update: tuples satisfying `pred` are split at `at` — the
    /// old version keeps `[ts, min(te, at))`, a new version with
    /// `assignments` applied gets `[max(ts, at), te)`. Returns the number
    /// of updated tuples.
    pub fn update(
        &mut self,
        pred: &Expr,
        assignments: &[(usize, Value)],
        at: TimePoint,
    ) -> Result<usize> {
        self.check_fixed_pred(pred)?;
        for (col, _) in assignments {
            if *col == self.vt_col {
                return Err(EngineError::Plan(
                    "cannot assign the valid-time attribute directly; use terminate/insert".into(),
                ));
            }
            self.rel.schema().attr(*col)?;
        }
        let vt_col = self.vt_col;
        let split = OngoingPoint::fixed(at);
        let mut modified = 0usize;
        self.edit_qualified(pred, |t| -> Result<RowEdit> {
            if !pred.eval_bool(t.values())? {
                return Ok(RowEdit::Keep);
            }
            modified += 1;
            let iv = t
                .value(vt_col)
                .as_interval()
                .ok_or_else(|| EngineError::Plan("valid-time value is not an interval".into()))?;
            // The split replaces the row in place: old version first, new
            // version right behind it, exactly where the tuple stood.
            let mut versions = Vec::with_capacity(2);
            // Old version: [ts, min(te, at)).
            let old_iv = OngoingInterval::new(iv.ts(), ops::min(iv.te(), split));
            if !old_iv.nonempty_set().is_empty() {
                let mut values = t.values().to_vec();
                values[vt_col] = Value::Interval(old_iv);
                versions.push(Tuple::with_rt(values, t.rt().clone()));
            }
            // New version: [max(ts, at), te) with assignments applied.
            let new_iv = OngoingInterval::new(ops::max(iv.ts(), split), iv.te());
            if !new_iv.nonempty_set().is_empty() {
                let mut values = t.values().to_vec();
                for (col, v) in assignments {
                    values[*col] = v.clone();
                }
                values[vt_col] = Value::Interval(new_iv);
                versions.push(Tuple::with_rt(values, t.rt().clone()));
            }
            Ok(if versions.is_empty() {
                RowEdit::Remove
            } else {
                RowEdit::Replace(versions)
            })
        })?;
        Ok(modified)
    }

    /// Physical deletion of qualifying tuples. Returns the number removed.
    pub fn delete(&mut self, pred: &Expr) -> Result<usize> {
        self.check_fixed_pred(pred)?;
        let mut removed = 0usize;
        self.edit_qualified(pred, |t| -> Result<RowEdit> {
            Ok(if pred.eval_bool(t.values())? {
                removed += 1;
                RowEdit::Remove
            } else {
                RowEdit::Keep
            })
        })?;
        Ok(removed)
    }
}

/// Tightens an upper bound: keeps the smaller limit; on equal limits the
/// exclusive bound wins (it admits fewer rows).
fn tighten_upper(hi: &mut Bound<Value>, v: &Value, inclusive: bool) {
    use std::cmp::Ordering::*;
    let tighter = match &*hi {
        Bound::Unbounded => true,
        Bound::Included(cur) => match cmp_values(v, cur) {
            Less => true,
            Equal => !inclusive,
            Greater => false,
        },
        Bound::Excluded(cur) => cmp_values(v, cur) == Less,
    };
    if tighter {
        *hi = if inclusive {
            Bound::Included(v.clone())
        } else {
            Bound::Excluded(v.clone())
        };
    }
}

/// Tightens a lower bound: keeps the larger limit; on equal limits the
/// exclusive bound wins.
fn tighten_lower(lo: &mut Bound<Value>, v: &Value, inclusive: bool) {
    use std::cmp::Ordering::*;
    let tighter = match &*lo {
        Bound::Unbounded => true,
        Bound::Included(cur) => match cmp_values(v, cur) {
            Greater => true,
            Equal => !inclusive,
            Less => false,
        },
        Bound::Excluded(cur) => cmp_values(v, cur) == Greater,
    };
    if tighter {
        *lo = if inclusive {
            Bound::Included(v.clone())
        } else {
            Bound::Excluded(v.clone())
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ongoing_core::date::md;
    use ongoing_relation::Schema;

    fn bugs() -> OngoingRelation {
        let schema = Schema::builder().int("BID").str("C").interval("VT").build();
        let mut r = OngoingRelation::new(schema);
        r.insert(vec![
            Value::Int(500),
            Value::str("Spam filter"),
            Value::Interval(OngoingInterval::from_until_now(md(1, 25))),
        ])
        .unwrap();
        r.insert(vec![
            Value::Int(501),
            Value::str("Search"),
            Value::Interval(OngoingInterval::fixed(md(3, 30), md(8, 21))),
        ])
        .unwrap();
        r
    }

    fn by_bid(bid: i64) -> Expr {
        Expr::Col(0).eq(Expr::lit(bid))
    }

    #[test]
    fn terminate_open_tuple_stays_ongoing() {
        // Resolve bug 500 effective 09/01 — scheduled in advance. The end
        // point becomes min(now, 09/01) = +09/01, *not* a frozen date.
        let mut r = bugs();
        let n = Modifier::new(&mut r, "VT")
            .unwrap()
            .terminate(&by_bid(500), md(9, 1))
            .unwrap();
        assert_eq!(n, 1);
        let iv = r.iter().next().unwrap().value(2).as_interval().unwrap();
        assert_eq!(iv.te(), OngoingPoint::limited(md(9, 1)));
        // Before 09/01 the bug still tracks now; afterwards it is capped.
        assert_eq!(iv.bind(md(5, 1)), (md(1, 25), md(5, 1)));
        assert_eq!(iv.bind(md(12, 1)), (md(1, 25), md(9, 1)));
    }

    #[test]
    fn instantiate_then_modify_is_wrong_torp_motivation() {
        // The broken alternative: bind now at modification time (say
        // 05/14), store the fixed end, then cap. At any later reference
        // time the stored interval is too short — the bug was still open.
        let modification_time = md(5, 14);
        let open = OngoingInterval::from_until_now(md(1, 25));
        let frozen_end = open.te().bind(modification_time); // = 05/14
        let broken = OngoingInterval::fixed(md(1, 25), frozen_end.min_f(md(9, 1)));

        let mut r = bugs();
        Modifier::new(&mut r, "VT")
            .unwrap()
            .terminate(&by_bid(500), md(9, 1))
            .unwrap();
        let correct = r.iter().next().unwrap().value(2).as_interval().unwrap();

        // At rt 07/01 the correct interval still grows; the broken one is
        // frozen at the modification time.
        let rt = md(7, 1);
        assert_eq!(correct.bind(rt), (md(1, 25), md(7, 1)));
        assert_eq!(broken.bind(rt), (md(1, 25), md(5, 14)));
        assert_ne!(correct.bind(rt), broken.bind(rt));
    }

    #[test]
    fn terminate_fixed_tuple_caps_end() {
        let mut r = bugs();
        Modifier::new(&mut r, "VT")
            .unwrap()
            .terminate(&by_bid(501), md(6, 1))
            .unwrap();
        let iv = r.iter().nth(1).unwrap().value(2).as_interval().unwrap();
        assert_eq!(iv, OngoingInterval::fixed(md(3, 30), md(6, 1)));
    }

    #[test]
    fn terminate_before_start_removes_tuple() {
        let mut r = bugs();
        Modifier::new(&mut r, "VT")
            .unwrap()
            .terminate(&by_bid(501), md(1, 1))
            .unwrap();
        assert_eq!(r.len(), 1, "always-empty validity is removed");
    }

    #[test]
    fn update_splits_at_the_effective_date() {
        // Reassign bug 500 to component 'Search' effective 06/01.
        let mut r = bugs();
        let n = Modifier::new(&mut r, "VT")
            .unwrap()
            .update(&by_bid(500), &[(1, Value::str("Search"))], md(6, 1))
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(r.len(), 3);
        let old = r.iter().next().unwrap();
        let new = r.iter().nth(1).unwrap();
        assert_eq!(old.value(1).as_str(), Some("Spam filter"));
        assert_eq!(
            old.value(2).as_interval().unwrap().te(),
            OngoingPoint::limited(md(6, 1))
        );
        assert_eq!(new.value(1).as_str(), Some("Search"));
        let niv = new.value(2).as_interval().unwrap();
        assert_eq!(niv.ts(), OngoingPoint::fixed(md(6, 1)));
        assert_eq!(niv.te(), OngoingPoint::now());
        // At every rt, exactly one version is valid at any instant the bug
        // is open: the versions meet at 06/01 without overlap.
        for rt in [md(5, 1), md(8, 1), md(12, 1)] {
            let (os, oe) = old.value(2).as_interval().unwrap().bind(rt);
            let (ns, ne) = niv.bind(rt);
            if os < oe && ns < ne {
                assert!(oe <= ns, "versions must not overlap at rt={rt}");
            }
        }
    }

    #[test]
    fn update_cannot_touch_vt_directly() {
        let mut r = bugs();
        let e = Modifier::new(&mut r, "VT").unwrap().update(
            &by_bid(500),
            &[(2, Value::Int(1))],
            md(6, 1),
        );
        assert!(e.is_err());
    }

    #[test]
    fn insert_open_and_delete() {
        let mut r = bugs();
        {
            let mut m = Modifier::new(&mut r, "VT").unwrap();
            m.insert_open(
                vec![Value::Int(502), Value::str("Compose"), Value::Bool(false)],
                md(7, 4),
            )
            .unwrap();
        }
        assert_eq!(r.len(), 3);
        let iv = r.iter().nth(2).unwrap().value(2).as_interval().unwrap();
        assert_eq!(iv, OngoingInterval::from_until_now(md(7, 4)));
        let n = Modifier::new(&mut r, "VT")
            .unwrap()
            .delete(&by_bid(502))
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn ongoing_predicates_are_rejected() {
        let mut r = bugs();
        let pred = Expr::Col(2).overlaps(Expr::lit(Value::Interval(OngoingInterval::fixed(
            md(1, 1),
            md(2, 1),
        ))));
        assert!(Modifier::new(&mut r, "VT")
            .unwrap()
            .terminate(&pred, md(6, 1))
            .is_err());
    }

    #[test]
    fn modifier_requires_interval_column() {
        let mut r = bugs();
        assert!(Modifier::new(&mut r, "BID").is_err());
        assert!(Modifier::new(&mut r, "missing").is_err());
    }
}
