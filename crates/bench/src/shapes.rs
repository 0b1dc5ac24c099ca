//! The cost-model calibration grid: deterministic synthetic data shapes.
//!
//! The workloads of the `tests/cost_model.rs` property tests — varied
//! interval length, start-point spread (overlap density), equality-key
//! skew, and ongoing mix. Generation is arithmetic (no RNG), so a shape
//! is reproducible from its parameters alone and identical at every
//! thread count.

use ongoing_core::{OngoingInterval, TimePoint};
use ongoing_engine::{Database, LogicalPlan, QueryBuilder};
use ongoing_relation::{Expr, OngoingRelation, Schema, Value};

/// Ten-year day-granularity history, like the synthetic datasets.
pub const HISTORY_DAYS: i64 = 3650;

/// A multiplicative stride coprime to the history length, so start points
/// spread pseudo-uniformly without an RNG.
const STRIDE: i64 = 1361;

/// One synthetic data shape of the calibration grid.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Shape label for tables and assertion messages.
    pub name: &'static str,
    /// Rows per side.
    pub rows: usize,
    /// Tuples per equality-key group (key skew: 1 = unique keys).
    pub group: usize,
    /// Fixed interval length in days.
    pub len: i64,
    /// Fraction of the history the start points spread over (overlap
    /// density: small = clustered = dense overlap).
    pub spread: f64,
    /// Every `ongoing_every`-th tuple gets an ongoing `[a, now)` interval
    /// (0 = none).
    pub ongoing_every: usize,
}

/// The calibration grid: interval length × spread × key skew × ongoing mix.
pub fn grid(rows: usize) -> Vec<Shape> {
    vec![
        Shape {
            name: "short/spread/unique",
            rows,
            group: 1,
            len: 3,
            spread: 1.0,
            ongoing_every: 0,
        },
        Shape {
            name: "short/spread/skewed",
            rows,
            group: (rows / 2).max(1),
            len: 3,
            spread: 1.0,
            ongoing_every: 0,
        },
        Shape {
            name: "long/clustered/grouped",
            rows,
            group: 8,
            len: 500,
            spread: 0.2,
            ongoing_every: 0,
        },
        Shape {
            name: "short/clustered/grouped",
            rows,
            group: 8,
            len: 10,
            spread: 0.03,
            ongoing_every: 0,
        },
        Shape {
            name: "ongoing/spread/unique",
            rows,
            group: 1,
            len: 30,
            spread: 1.0,
            ongoing_every: 7,
        },
        Shape {
            name: "ongoing/clustered/skewed",
            rows,
            group: (rows / 4).max(1),
            len: 30,
            spread: 0.25,
            ongoing_every: 5,
        },
    ]
}

/// A shape where selective equality keys beat envelope overlap — the
/// cost-based optimizer should pick the hash join.
pub fn hash_wins(rows: usize) -> Shape {
    Shape {
        name: "hash-wins",
        rows,
        group: 1,
        len: 500,
        spread: 0.2,
        ongoing_every: 0,
    }
}

/// A shape with degenerate keys (two distinct values) and tiny intervals
/// spread over the whole history — envelope overlap prunes orders of
/// magnitude harder than the keys, so the sweep join should win.
pub fn sweep_wins(rows: usize) -> Shape {
    Shape {
        name: "sweep-wins",
        rows,
        group: (rows / 2).max(1),
        len: 2,
        spread: 1.0,
        ongoing_every: 0,
    }
}

/// Deterministic relation for a shape: `(ID, K, VT)`; `phase` offsets the
/// start points so the two join sides differ.
fn relation(shape: &Shape, phase: i64) -> OngoingRelation {
    let schema = Schema::builder().int("ID").int("K").interval("VT").build();
    let mut rel = OngoingRelation::new(schema);
    let span = ((HISTORY_DAYS as f64 * shape.spread) as i64).max(1);
    for i in 0..shape.rows as i64 {
        let start = (i * STRIDE + phase * 37) % span;
        let vt = if shape.ongoing_every > 0 && (i as usize).is_multiple_of(shape.ongoing_every) {
            OngoingInterval::from_until_now(TimePoint::new(start))
        } else {
            OngoingInterval::fixed(TimePoint::new(start), TimePoint::new(start + shape.len))
        };
        rel.insert(vec![
            Value::Int(i),
            Value::Int(i / shape.group.max(1) as i64),
            Value::Interval(vt),
        ])
        .expect("schema arity");
    }
    rel
}

/// A two-table database `L`/`R` of the shape (phases 0 and 1).
pub fn database(shape: &Shape) -> Database {
    let db = Database::new();
    db.create_table("L", relation(shape, 0)).unwrap();
    db.create_table("R", relation(shape, 1)).unwrap();
    db
}

/// `L ⋈ R` on key equality plus `overlaps` — every join strategy applies.
pub fn key_overlap_join(db: &Database) -> LogicalPlan {
    let l = QueryBuilder::scan_as(db, "L", "L").unwrap();
    let r = QueryBuilder::scan_as(db, "R", "R").unwrap();
    l.join(r, |s| {
        Ok(Expr::col(s, "L.K")?
            .eq(Expr::col(s, "R.K")?)
            .and(Expr::col(s, "L.VT")?.overlaps(Expr::col(s, "R.VT")?)))
    })
    .unwrap()
    .build()
}
