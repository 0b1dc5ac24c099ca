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
//! ([`OngoingRelation::create_key_index`]) and the keyed walk is cheaper
//! than the scan, [`OngoingRelation::key_probe`] returns a
//! [`KeyProbe`](ongoing_relation::KeyProbe) and the modifier qualifies
//! through the index in O(rows matching) instead of scanning the table.
//! Reads lower a `KeyScan` through the same method, so both sides take
//! the keyed path under one rule.

use crate::error::{EngineError, Result};
use ongoing_core::{ops, OngoingInterval, OngoingPoint, TimePoint};
use ongoing_relation::{Expr, OngoingRelation, RowEdit, Tuple, Value};

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
        let rel = &mut *self.rel;
        let probe = rel.key_probe(pred);
        rel.edit_tuples(probe.as_ref(), |t| -> Result<RowEdit> {
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
        let rel = &mut *self.rel;
        let probe = rel.key_probe(pred);
        rel.edit_tuples(probe.as_ref(), |t| -> Result<RowEdit> {
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
        let rel = &mut *self.rel;
        let probe = rel.key_probe(pred);
        rel.edit_tuples(probe.as_ref(), |t| -> Result<RowEdit> {
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
