//! Naive reference semantics for now-relative modifications over a plain
//! `Vec<Tuple>` — the pre-refactor write path (iterate, rebuild, in
//! order), kept as the shared differential oracle for the copy-on-write
//! store: `tests/storage_versioning.rs` proptests `Modifier` sequences
//! and replays a sustained churn through it, and `tests/recovery.rs`,
//! `tests/concurrent_writers.rs` and perfbench's `durable_churn` check
//! their tables against it.
//!
//! All functions assume the 3-column layout the storage workloads use:
//! an integer key at column 0, an integer payload at column 1, and the
//! valid-time `OngoingInterval` at column 2.

use ongoing_core::{ops, OngoingInterval, OngoingPoint, TimePoint};
use ongoing_relation::{Tuple, Value};

/// Key column of the workload layout.
pub const KEY_COL: usize = 0;
/// Payload column of the workload layout.
pub const PAYLOAD_COL: usize = 1;
/// Valid-time column of the workload layout.
pub const VT_COL: usize = 2;

/// `Modifier::insert_open`: append a base tuple valid `[start, now)`.
pub fn insert_open(rows: &mut Vec<Tuple>, key: i64, payload: i64, start: TimePoint) {
    rows.push(Tuple::base(vec![
        Value::Int(key),
        Value::Int(payload),
        Value::Interval(OngoingInterval::from_until_now(start)),
    ]));
}

/// `Modifier::terminate` on `key`: cap the valid-time end at
/// `min(te, at)`; rows whose validity becomes always-empty disappear.
pub fn terminate(rows: &mut Vec<Tuple>, key: i64, at: TimePoint) {
    let cap = OngoingPoint::fixed(at);
    let mut out = Vec::with_capacity(rows.len());
    for t in rows.iter() {
        if t.value(KEY_COL) != &Value::Int(key) {
            out.push(t.clone());
            continue;
        }
        let iv = t.value(VT_COL).as_interval().expect("VT is an interval");
        let capped = OngoingInterval::new(iv.ts(), ops::min(iv.te(), cap));
        if capped.nonempty_set().is_empty() {
            continue;
        }
        let mut values = t.values().to_vec();
        values[VT_COL] = Value::Interval(capped);
        out.push(Tuple::with_rt(values, t.rt().clone()));
    }
    *rows = out;
}

/// `Modifier::update` on `key`: sequenced split at `at` — the old version
/// keeps `[ts, min(te, at))`, the new version gets `[max(ts, at), te)`
/// with the payload reassigned.
pub fn update(rows: &mut Vec<Tuple>, key: i64, payload: i64, at: TimePoint) {
    let split = OngoingPoint::fixed(at);
    let mut out = Vec::with_capacity(rows.len());
    for t in rows.iter() {
        if t.value(KEY_COL) != &Value::Int(key) {
            out.push(t.clone());
            continue;
        }
        let iv = t.value(VT_COL).as_interval().expect("VT is an interval");
        let old_iv = OngoingInterval::new(iv.ts(), ops::min(iv.te(), split));
        if !old_iv.nonempty_set().is_empty() {
            let mut values = t.values().to_vec();
            values[VT_COL] = Value::Interval(old_iv);
            out.push(Tuple::with_rt(values, t.rt().clone()));
        }
        let new_iv = OngoingInterval::new(ops::max(iv.ts(), split), iv.te());
        if !new_iv.nonempty_set().is_empty() {
            let mut values = t.values().to_vec();
            values[PAYLOAD_COL] = Value::Int(payload);
            values[VT_COL] = Value::Interval(new_iv);
            out.push(Tuple::with_rt(values, t.rt().clone()));
        }
    }
    *rows = out;
}

/// `Modifier::delete` on `key`: physical removal.
pub fn delete(rows: &mut Vec<Tuple>, key: i64) {
    rows.retain(|t| t.value(KEY_COL) != &Value::Int(key));
}
