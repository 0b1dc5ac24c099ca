//! Seeded byte-level fuzz of the SQL front end: no input text may panic
//! the lexer, the parser, the planner or the optimizer.
//!
//! Over 20 000 inputs go through [`plan_query`] and, when they plan,
//! [`compile`] against a one-table database with a key index — once
//! resident and once reopened cold under a small memory budget, where the
//! chunks carry no key maps and the optimizer must fall back to a scan.
//! The inputs are random bytes, random strings over the OngoingQL token
//! alphabet, and truncations and one-byte mutations of valid queries.
//! Each must come back as `Ok` or `Err`; a panic fails the test with the
//! offending input. Nothing is executed: a 16-relation product of the
//! 4-row table has 4^16 rows.

use ongoing_core::time::tp;
use ongoing_core::OngoingInterval;
use ongoing_relation::{OngoingRelation, Schema, Value};
use ongoingdb::engine::plan::{compile, PlannerConfig};
use ongoingdb::engine::sql::plan_query;
use ongoingdb::engine::storage::{DurableOptions, TempDir};
use ongoingdb::engine::{Database, Result};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

/// Valid queries over `T(K, C, OK, VT)`, covering the grammar: projections
/// and aliases, every comparison and Table II predicate, the scalar
/// functions, literals of every kind, joins and set operations.
const VALID: &[&str] = &[
    "SELECT * FROM T",
    "SELECT K, C FROM T WHERE K = 3",
    "SELECT U.K AS id, VT FROM T U WHERE K != 2 AND C <> 'x' OR OK = TRUE",
    "SELECT K FROM T WHERE NOT (K < 1 OR K <= 2) AND K > 0 AND K >= 1",
    "SELECT K FROM T WHERE VT OVERLAPS PERIOD(DATE '2019-08-01', NOW)",
    "SELECT K FROM T WHERE VT BEFORE PERIOD(DATE '2019-01-01', DATE '2019-12-31')",
    "SELECT K FROM T WHERE VT MEETS VT AND VT STARTS VT AND VT FINISHES VT",
    "SELECT K FROM T WHERE VT DURING VT OR VT EQUALS VT",
    "SELECT INTERSECTION(A.VT, B.VT) AS X, START(A.VT), END(B.VT) \
     FROM T A JOIN T AS B ON A.K = B.K AND A.VT OVERLAPS B.VT",
    "SELECT K FROM T WHERE START(VT) < DATE '2020-02-29' AND END(VT) > NOW",
    "SELECT K FROM T UNION SELECT K FROM T EXCEPT SELECT K FROM T WHERE OK = FALSE",
    "SELECT C FROM T WHERE C = 'it''s' -- trailing comment",
];

/// Seed queries whose range conjuncts on the key-indexed `K` derive a
/// range probe. Checked like [`VALID`] but not mutated, so the mutation
/// stream over `VALID` stays as it is.
const KEY_RANGES: &[&str] = &[
    "SELECT K FROM T WHERE K >= 1 AND K < 3",
    "SELECT * FROM T WHERE 2 < K",
];

/// Fragments the token-alphabet generator strings together.
const TOKENS: &[&str] = &[
    "SELECT",
    "FROM",
    "WHERE",
    "JOIN",
    "ON",
    "AS",
    "AND",
    "OR",
    "NOT",
    "UNION",
    "EXCEPT",
    "TRUE",
    "FALSE",
    "NOW",
    "DATE",
    "PERIOD",
    "INTERSECTION",
    "START",
    "END",
    "BEFORE",
    "MEETS",
    "OVERLAPS",
    "STARTS",
    "FINISHES",
    "DURING",
    "EQUALS",
    "ANALYZE",
    "EXPLAIN",
    "T",
    "A",
    "B",
    "K",
    "C",
    "OK",
    "VT",
    "T.K",
    "A.VT",
    "*",
    ",",
    "(",
    ")",
    ".",
    "=",
    "!=",
    "<>",
    "<",
    "<=",
    ">",
    ">=",
    "0",
    "1",
    "-1",
    "42",
    "99999999999999999999",
    "'x'",
    "''",
    "'2019-08-01'",
    "'2019-02-31'",
    "'9999999999-01-01'",
    "'",
    "--",
    "\n",
    "é",
    "\u{0}",
];

/// Creates the 4-row `T(K, C, OK, VT)` with a key index on `K` in `db`.
fn populate(db: &Database) {
    let schema = Schema::builder()
        .int("K")
        .str("C")
        .bool("OK")
        .interval("VT")
        .build();
    let mut rel = OngoingRelation::new(schema);
    for i in 0..4i64 {
        rel.insert(vec![
            Value::Int(i),
            Value::str(["x", "y"][i as usize % 2]),
            Value::Bool(i % 2 == 0),
            Value::Interval(OngoingInterval::from_until_now(tp(i))),
        ])
        .unwrap();
    }
    db.create_table("T", rel).unwrap();
    db.create_key_index("T", "K").unwrap();
}

fn fixture() -> Database {
    let db = Database::new();
    populate(&db);
    db
}

/// The fixture persisted in `dir` and reopened under a budget below its
/// one chunk, so `T`'s chunk is cold and has no key map.
fn cold_fixture(dir: &Path) -> Database {
    let opts = |memory_budget| DurableOptions {
        fsync: false,
        checkpoint_bytes: u64::MAX,
        memory_budget,
    };
    {
        let db = Database::open_with(dir, opts(u64::MAX)).unwrap();
        populate(&db);
        db.persist().unwrap();
    }
    Database::open_with(dir, opts(64)).unwrap()
}

fn random_bytes(rng: &mut SmallRng) -> String {
    let len = rng.gen_range(0..48);
    let bytes: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
    String::from_utf8_lossy(&bytes).into_owned()
}

fn random_tokens(rng: &mut SmallRng) -> String {
    let len = rng.gen_range(0..24);
    let mut s = String::new();
    for _ in 0..len {
        s.push_str(TOKENS[rng.gen_range(0..TOKENS.len())]);
        if rng.gen_bool(0.8) {
            s.push(' ');
        }
    }
    s
}

fn mutated_query(rng: &mut SmallRng) -> String {
    let mut bytes = VALID[rng.gen_range(0..VALID.len())].as_bytes().to_vec();
    match rng.gen_range(0..4) {
        0 => bytes.truncate(rng.gen_range(0..=bytes.len())),
        1 => {
            let i = rng.gen_range(0..bytes.len());
            bytes[i] = rng.gen();
        }
        2 => {
            let i = rng.gen_range(0..=bytes.len());
            bytes.insert(i, rng.gen());
        }
        _ => {
            bytes.remove(rng.gen_range(0..bytes.len()));
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn sql_front_end_never_panics() {
    let dir = TempDir::new("sql-fuzz");
    let dbs = [fixture(), cold_fixture(dir.path())];
    let cfg = PlannerConfig::default();
    // Plans `sql` against each fixture and compiles what plans.
    let front_end = |sql: &str| -> Result<()> {
        for db in &dbs {
            compile(db, &plan_query(db, sql)?, &cfg)?;
        }
        Ok(())
    };
    for sql in VALID.iter().chain(KEY_RANGES) {
        if let Err(e) = front_end(sql) {
            panic!("seed query must plan: {sql}: {e}");
        }
    }
    // The fixtures reach both access paths: keyed when resident, a scan
    // when cold.
    let explain = |db: &Database| {
        let plan = plan_query(db, "SELECT K FROM T WHERE K = 3").unwrap();
        compile(db, &plan, &cfg).unwrap().explain()
    };
    assert!(explain(&dbs[0]).contains("KeyScan"), "{}", explain(&dbs[0]));
    assert!(
        !explain(&dbs[1]).contains("KeyScan"),
        "{}",
        explain(&dbs[1])
    );
    let mut rng = SmallRng::seed_from_u64(20261018);
    let (mut ok, mut err) = (0usize, 0usize);
    for i in 0..21_000 {
        let sql = match i % 3 {
            0 => random_bytes(&mut rng),
            1 => random_tokens(&mut rng),
            _ => mutated_query(&mut rng),
        };
        match catch_unwind(AssertUnwindSafe(|| front_end(&sql))) {
            Ok(Ok(_)) => ok += 1,
            Ok(Err(_)) => err += 1,
            Err(_) => panic!("input {i} panicked the SQL front end: {sql:?}"),
        }
    }
    // Both outcomes occur, so the inputs reach past the lexer.
    assert!(ok > 100 && err > 100, "ok {ok}, err {err}");
}

/// Nesting and chains recurse through every later pass, so past the
/// parser's bounds (128 boolean terms, 16 relations) a statement is an
/// error; before them it plans. Without the bounds each of these inputs
/// overflows the stack and aborts the process.
#[test]
fn deep_and_long_statements_are_errors_not_stack_overflows() {
    let db = fixture();
    let shapes: [fn(usize) -> String; 5] = [
        |n| {
            format!(
                "SELECT * FROM T WHERE {}K = 1{}",
                "(".repeat(n),
                ")".repeat(n)
            )
        },
        |n| format!("SELECT * FROM T WHERE {}K = 1", "NOT ".repeat(n)),
        |n| format!("SELECT * FROM T WHERE K = 1{}", " AND K = 1".repeat(n)),
        |n| format!("SELECT * FROM T{}", " UNION SELECT * FROM T".repeat(n)),
        |n| {
            let joins: String = (1..=n)
                .map(|i| format!(" JOIN T A{i} ON A{i}.K = A0.K"))
                .collect();
            format!("SELECT * FROM T A0{joins}")
        },
    ];
    for (i, shape) in shapes.iter().enumerate() {
        let small = if i < 3 { 100 } else { 10 };
        assert!(
            plan_query(&db, &shape(small)).is_ok(),
            "shape {i} at {small}"
        );
        let err = plan_query(&db, &shape(100_000)).unwrap_err();
        assert!(err.to_string().contains("statement too large"), "{err}");
    }
}
