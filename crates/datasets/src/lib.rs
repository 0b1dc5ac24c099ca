//! # ongoing-datasets
//!
//! Seeded synthetic workload generators reproducing the evaluation data
//! sets of *"Query Results over Ongoing Databases that Remain Valid as Time
//! Passes By"* (ICDE 2020, Table III and Fig. 7):
//!
//! * [`mozilla`] — the three MozillaBugs relations (`BugInfo`,
//!   `BugAssignment`, `BugSeverity`) with the paper's cardinality ratios,
//!   ongoing percentages, tuple sizes and start-point skew;
//! * [`incumbent`] — the Incumbent project-assignment relation;
//! * [`synthetic`] — the Dex / Dsh / Dsc relations with controllable
//!   ongoing-interval location (the Fig. 9 "ongoing segments") and size;
//! * [`history`] — the shared time-history helpers.
//!
//! The real dumps are not redistributable; "Dataset substitution" in
//! `EXPERIMENTS.md` documents why the aggregate statistics these generators
//! match are the ones the experiments depend on. All generators are deterministic per seed.
//!
//! ```
//! use ongoing_datasets::mozilla_database;
//!
//! // 100 bugs, seed 42 — deterministic: same seed, same database.
//! let db = mozilla_database(100, 42);
//! assert_eq!(db.table("BugInfo").unwrap().data().len(), 100);
//! assert!(db.table("BugAssignment").is_ok());
//! assert!(db.table("BugSeverity").is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod history;
pub mod incumbent;
pub mod mozilla;
pub mod synthetic;
pub mod text;

pub use history::History;
pub use incumbent::IncumbentConfig;
pub use mozilla::{MozillaBugs, MozillaConfig};
pub use synthetic::{DatasetStats, OngoingKind, SyntheticConfig};

use ongoing_engine::Database;

/// Loads a scaled MozillaBugs database with the table names the
/// [`ongoing_engine::queries`] builders expect.
pub fn mozilla_database(bugs: usize, seed: u64) -> Database {
    let m = mozilla::generate(&MozillaConfig::scaled(bugs, seed));
    let db = Database::new();
    db.create_table("BugInfo", m.bug_info).expect("fresh db");
    db.create_table("BugAssignment", m.bug_assignment)
        .expect("fresh db");
    db.create_table("BugSeverity", m.bug_severity)
        .expect("fresh db");
    db
}

/// Loads a scaled Incumbent database (table `Incumbent`).
pub fn incumbent_database(n: usize, seed: u64) -> Database {
    let db = Database::new();
    db.create_table(
        "Incumbent",
        incumbent::generate(&IncumbentConfig::scaled(n, seed)),
    )
    .expect("fresh db");
    db
}
