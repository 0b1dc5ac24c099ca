//! # ongoing-relation
//!
//! Ongoing relations and their relational algebra — Sec. VII of
//! *"Query Results over Ongoing Databases that Remain Valid as Time Passes
//! By"* (ICDE 2020).
//!
//! An [`OngoingRelation`] is a relation over fixed and ongoing attributes in
//! which every tuple carries a reference-time attribute `RT`: the set of
//! reference times at which the tuple belongs to the instantiated relations.
//! Base tuples have the trivial reference time `{(-∞, ∞)}`; the operators in
//! [`algebra`] restrict it according to Theorem 2, so that for every
//! reference time
//!
//! ```text
//! ∥Q(D)∥rt ≡ Q(∥D∥rt)
//! ```
//!
//! — instantiating an ongoing query result gives exactly the result of
//! running the query on the instantiated database. Results therefore remain
//! valid as time passes by.
//!
//! ```
//! use ongoing_relation::{algebra, Expr, OngoingRelation, Schema, Value};
//! use ongoing_core::{date::md, OngoingInterval};
//!
//! // Relation B of the paper's Fig. 1 (bugs with ongoing valid times).
//! let schema = Schema::builder().int("BID").str("C").interval("VT").build();
//! let mut bugs = OngoingRelation::new(schema.clone());
//! bugs.insert(vec![
//!     Value::Int(500),
//!     Value::str("Spam filter"),
//!     Value::Interval(OngoingInterval::from_until_now(md(1, 25))),
//! ]).unwrap();
//!
//! // σ_{VT overlaps [01/20, 08/18)}(B): the reference time of the result
//! // tuple records *when* it belongs to the instantiated result.
//! let pred = Expr::col(&schema, "VT").unwrap().overlaps(
//!     Expr::lit(Value::Interval(OngoingInterval::fixed(md(1, 20), md(8, 18)))));
//! let q = algebra::select(&bugs, &pred).unwrap();
//! assert_eq!(q.len(), 1);
//! let member = q.iter().next().unwrap();
//! assert!(member.rt().contains(md(2, 1)));   // member from 01/26 on
//! assert!(!member.rt().contains(md(1, 20))); // bug not open yet
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod algebra;
pub mod expr;
pub mod keyindex;
pub mod predicate;
pub mod relation;
pub mod schema;
pub mod tuple;
pub mod value;

pub use expr::{CmpOp, EvalError, Expr, Row};
pub use keyindex::{KeyProbe, QualEstimate};
pub use predicate::{Pair, Predicate};
pub use relation::{
    ChunkPager, ChunkPart, ChunkSource, FixedRelation, JournalOp, LazyChunkView, OngoingRelation,
    PagerError, PinnedChunk, RowEdit, StoreSummary, StoreWork, TARGET_CHUNK_ROWS,
};
pub use schema::{Attribute, Schema, SchemaError};
pub use tuple::Tuple;
pub use value::{Value, ValueType};

// Re-export the temporal predicate enum; it appears in `Expr`.
pub use ongoing_core::allen::TemporalPredicate;

// The storage unit tests (see `store/mod.rs`).
#[cfg(test)]
mod store;
