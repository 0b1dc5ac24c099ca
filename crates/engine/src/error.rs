//! Engine-wide error type.

use ongoing_relation::{EvalError, SchemaError};
use std::fmt;

/// Errors raised by the catalog, planner, executors and storage layer.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The named table does not exist.
    UnknownTable(String),
    /// A table with this name already exists.
    DuplicateTable(String),
    /// Schema resolution or compatibility failure.
    Schema(SchemaError),
    /// Expression evaluation failure.
    Eval(EvalError),
    /// A catalog publication (`modify_table`, `put_table`,
    /// `create_table`, `drop_table`, `create_key_index`) was started from
    /// inside another one — a `modify_table` closure. The writer already
    /// holds a table's writer gate there, so the nested call is refused
    /// instead of waiting on its own gate. Nothing was applied; carries
    /// the table the nested call named.
    NestedPublication(String),
    /// Instantiated execution was asked for `rt = ∞`. `∞` is not a
    /// reference time: the `RT` of a tuple is a set of half-open ranges
    /// `[ts, te)`, and none of them contains `∞`, so every relation
    /// would bind empty there. `MAX_FINITE` is the latest reference time.
    InfiniteReferenceTime,
    /// Planner rejected the query.
    Plan(String),
    /// Storage-layer failure (encode/decode, page overflow).
    Storage(String),
    /// Durable storage is damaged: a checksum mismatch in a complete WAL
    /// record, chunk file or manifest, or a structurally impossible
    /// record sequence. Distinct from a *torn tail* (an incomplete final
    /// WAL record, the signature of a crash mid-append), which recovery
    /// truncates silently — corruption is never silently dropped.
    CorruptStorage(String),
    /// An operating-system I/O failure in the durable storage layer
    /// (stringified: `std::io::Error` is neither `Clone` nor `PartialEq`).
    Io(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownTable(n) => write!(f, "unknown table `{n}`"),
            EngineError::DuplicateTable(n) => write!(f, "table `{n}` already exists"),
            EngineError::NestedPublication(n) => write!(
                f,
                "cannot publish to table `{n}` from inside another publication"
            ),
            EngineError::InfiniteReferenceTime => {
                write!(f, "`∞` is not a reference time (the latest is MAX_FINITE)")
            }
            EngineError::Schema(e) => write!(f, "{e}"),
            EngineError::Eval(e) => write!(f, "{e}"),
            EngineError::Plan(m) => write!(f, "plan error: {m}"),
            EngineError::Storage(m) => write!(f, "storage error: {m}"),
            EngineError::CorruptStorage(m) => write!(f, "corrupt storage: {m}"),
            EngineError::Io(m) => write!(f, "i/o error: {m}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<SchemaError> for EngineError {
    fn from(e: SchemaError) -> Self {
        EngineError::Schema(e)
    }
}

impl From<EvalError> for EngineError {
    fn from(e: EvalError) -> Self {
        EngineError::Eval(e)
    }
}

impl From<std::io::Error> for EngineError {
    fn from(e: std::io::Error) -> Self {
        EngineError::Io(e.to_string())
    }
}

impl From<ongoing_relation::PagerError> for EngineError {
    fn from(e: ongoing_relation::PagerError) -> Self {
        // A pager failure is an I/O (or corruption) failure reaching a
        // scan; the original variant was rendered into the message by the
        // chunk cache.
        EngineError::Io(e.0)
    }
}

/// Engine result alias.
pub type Result<T> = std::result::Result<T, EngineError>;
