//! Randomized whole-plan differential testing.
//!
//! Generates random logical plans (selections, joins, products, unions,
//! differences, projections, aggregations — nested up to depth 3) over
//! randomly generated ongoing relations and verifies the paper's master
//! criterion `∀rt: ∥Q(D)∥rt ≡ Q(∥D∥rt)` at every breakpoint-relevant
//! reference time, under every join strategy with the interval index on
//! and off — so every instantiated operator arm (index and key scans,
//! keyed and hashed joins, sweeps, computed projections) is compared
//! against the bound ongoing result.
//!
//! This is the heaviest single guarantee in the suite: any divergence
//! between the ongoing executors (interval-set arithmetic, RT
//! restriction) and the instantiated executors (fixed evaluation) for any
//! generated plan shape is a bug.

use ongoing_core::allen::TemporalPredicate;
use ongoing_core::time::tp;
use ongoing_core::{IntervalSet, OngoingInterval, OngoingPoint, TimePoint};
use ongoing_relation::aggregate::AggFn;
use ongoing_relation::algebra::ProjItem;
use ongoing_relation::{algebra, CmpOp, Expr, OngoingRelation, Schema, Value, ValueType};
use ongoingdb::engine::plan::{compile, JoinStrategy, PlannerConfig};
use ongoingdb::engine::{execute, Database, LogicalPlan, QueryBuilder};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

const LO: i64 = -10;
const HI: i64 = 10;

fn random_point(rng: &mut SmallRng) -> OngoingPoint {
    let a = rng.gen_range(LO..=HI);
    let b = rng.gen_range(a..=HI + 3);
    match rng.gen_range(0..5) {
        0 => OngoingPoint::fixed(tp(a)),
        1 => OngoingPoint::now(),
        2 => OngoingPoint::growing(tp(a)),
        3 => OngoingPoint::limited(tp(b)),
        _ => OngoingPoint::new(tp(a), tp(b)).unwrap(),
    }
}

fn random_interval(rng: &mut SmallRng) -> OngoingInterval {
    OngoingInterval::new(random_point(rng), random_point(rng))
}

fn random_rt_set(rng: &mut SmallRng) -> IntervalSet {
    if rng.gen_bool(0.5) {
        return IntervalSet::full();
    }
    let n = rng.gen_range(1..3);
    IntervalSet::from_ranges((0..n).map(|_| {
        let s = rng.gen_range(LO..=HI);
        (tp(s), tp(s + rng.gen_range(1..8i64)))
    }))
}

/// A random relation over (K: Int, C: Str, VT: OngoingInterval).
fn random_relation(rng: &mut SmallRng, rows: usize) -> OngoingRelation {
    let schema = Schema::builder().int("K").str("C").interval("VT").build();
    let mut r = OngoingRelation::new(schema);
    for _ in 0..rows {
        r.insert_with_rt(
            vec![
                Value::Int(rng.gen_range(0..4)),
                Value::str(["x", "y", "z"][rng.gen_range(0..3usize)]),
                Value::Interval(random_interval(rng)),
            ],
            random_rt_set(rng),
        )
        .unwrap();
    }
    r
}

fn random_pred(rng: &mut SmallRng, schema: &Schema) -> Expr {
    let col = |rng: &mut SmallRng, schema: &Schema, want_interval: bool| {
        let candidates: Vec<usize> = schema
            .attrs()
            .iter()
            .enumerate()
            .filter(|(_, a)| {
                if want_interval {
                    a.ty == ongoing_relation::ValueType::OngoingInterval
                } else {
                    a.ty == ongoing_relation::ValueType::Int
                        || a.ty == ongoing_relation::ValueType::Str
                }
            })
            .map(|(i, _)| i)
            .collect();
        candidates[rng.gen_range(0..candidates.len())]
    };
    match rng.gen_range(0..5) {
        0 => {
            // Fixed equality between two fixed columns or a literal.
            let i = col(rng, schema, false);
            if rng.gen_bool(0.5) {
                let j = col(rng, schema, false);
                if schema.attr(i).unwrap().ty == schema.attr(j).unwrap().ty {
                    return Expr::Col(i).eq(Expr::Col(j));
                }
            }
            match schema.attr(i).unwrap().ty {
                ongoing_relation::ValueType::Int => {
                    Expr::Col(i).eq(Expr::lit(rng.gen_range(0..4i64)))
                }
                _ => Expr::Col(i).eq(Expr::lit(["x", "y", "z"][rng.gen_range(0..3usize)])),
            }
        }
        1 => {
            // Temporal predicate between two interval columns.
            let preds = TemporalPredicate::ALL;
            let p = preds[rng.gen_range(0..preds.len())];
            Expr::Col(col(rng, schema, true)).temporal(p, Expr::Col(col(rng, schema, true)))
        }
        2 => {
            // Temporal predicate against a literal window.
            let preds = TemporalPredicate::ALL;
            let p = preds[rng.gen_range(0..preds.len())];
            Expr::Col(col(rng, schema, true))
                .temporal(p, Expr::lit(Value::Interval(random_interval(rng))))
        }
        3 => {
            // Point comparison: START/END vs now or a date.
            let c = Expr::Col(col(rng, schema, true));
            let lhs = if rng.gen_bool(0.5) {
                c.start_point()
            } else {
                c.end_point()
            };
            let rhs = if rng.gen_bool(0.5) {
                Expr::lit(Value::Point(OngoingPoint::now()))
            } else {
                Expr::lit(Value::Time(tp(rng.gen_range(LO..=HI))))
            };
            match rng.gen_range(0..3) {
                0 => lhs.lt(rhs),
                1 => lhs.le(rhs),
                _ => lhs.eq(rhs),
            }
        }
        _ => {
            // Boolean combination.
            let a = random_pred(rng, schema);
            let b = random_pred(rng, schema);
            match rng.gen_range(0..3) {
                0 => a.and(b),
                1 => a.or(b),
                _ => a.not(),
            }
        }
    }
}

fn random_plan(rng: &mut SmallRng, db: &Database, depth: usize) -> LogicalPlan {
    random_query(rng, db, depth).build()
}

fn random_query(rng: &mut SmallRng, db: &Database, depth: usize) -> QueryBuilder {
    let table = ["T0", "T1", "T2"][rng.gen_range(0..3usize)];
    let alias = format!("A{}", rng.gen_range(0..100));
    let mut b = QueryBuilder::scan_as(db, table, &alias).unwrap();
    if depth > 0 {
        match rng.gen_range(0..6) {
            0 => {
                // Nested join.
                let rhs_table = ["T0", "T1", "T2"][rng.gen_range(0..3usize)];
                let rhs_alias = format!("B{}", rng.gen_range(0..100));
                let rhs = QueryBuilder::scan_as(db, rhs_table, &rhs_alias).unwrap();
                let schema = b.schema().product(rhs.schema());
                let pred = random_pred(rng, &schema);
                b = b.join(rhs, |_| Ok(pred)).unwrap();
            }
            1 => {
                let schema = b.schema().clone();
                let pred = random_pred(rng, &schema);
                b = b.filter(|_| Ok(pred)).unwrap();
            }
            2 => {
                // Union of two selections over the same table.
                let other = QueryBuilder::scan_as(db, table, "U").unwrap();
                let pred = random_pred(rng, other.schema());
                let other = other.filter(|_| Ok(pred)).unwrap();
                b = b.union(other).unwrap();
            }
            3 => {
                let other = QueryBuilder::scan_as(db, table, "D").unwrap();
                let pred = random_pred(rng, other.schema());
                let other = other.filter(|_| Ok(pred)).unwrap();
                b = b.difference(other).unwrap();
            }
            4 => {
                // Aggregate over the scan.
                let group = if rng.gen_bool(0.5) {
                    vec!["K"]
                } else {
                    vec!["C"]
                };
                b = b
                    .aggregate(&group, vec![AggFn::CountStar], vec!["cnt".into()])
                    .unwrap();
            }
            _ => {
                // Projection (drop a column).
                let n = b.schema().len();
                let keep: Vec<usize> = (0..n).filter(|&i| i != n - 1 || n == 1).collect();
                let names: Vec<String> = keep
                    .iter()
                    .map(|&i| b.schema().attrs()[i].name.clone())
                    .collect();
                let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
                b = b.project_cols(&refs).unwrap();
            }
        }
    }
    b
}

/// Interval-typed columns of a schema.
fn interval_cols(schema: &Schema) -> Vec<usize> {
    (0..schema.len())
        .filter(|&i| schema.attr(i).unwrap().ty == ValueType::OngoingInterval)
        .collect()
}

/// A computed projection over `b` — `VT ∩ <literal>`, `START(VT)` and
/// `END(VT)` next to a pass-through column — optionally filtered on the
/// computed columns or unioned with itself, so projections run both at
/// the plan root and below other operators. `None` when `b` has no
/// interval column (an aggregate).
fn computed_projection(rng: &mut SmallRng, b: QueryBuilder) -> Option<QueryBuilder> {
    let ivs = interval_cols(b.schema());
    if ivs.is_empty() {
        return None;
    }
    let vt = Expr::Col(ivs[rng.gen_range(0..ivs.len())]);
    let lit = Expr::lit(Value::Interval(random_interval(rng)));
    let p = b
        .project(vec![
            ProjItem::Col(0),
            ProjItem::named(vt.clone().intersect(lit.clone()), "X"),
            ProjItem::named(vt.clone().start_point(), "S"),
            ProjItem::named(vt.end_point(), "E"),
        ])
        .unwrap();
    Some(match rng.gen_range(0..4) {
        0 => p.filter(|_| Ok(Expr::Col(2).lt(Expr::Col(3)))).unwrap(),
        1 => {
            let window = Expr::lit(Value::Interval(random_interval(rng)));
            p.filter(|_| Ok(Expr::Col(1).overlaps(window))).unwrap()
        }
        2 => p.clone().union(p).unwrap(),
        _ => p,
    })
}

/// Plans that steer the optimizer into the access paths a random plan
/// rarely reaches: a key-equality selection on the key-indexed `T1`
/// (`KeyScan`), an envelope-indexable selection (`IndexScan`), a hash
/// join building on a bare scan of `T1` (keyed build), and an interval
/// join (`SweepJoin`) — each with a random residual conjunct.
fn access_path_query(rng: &mut SmallRng, db: &Database) -> QueryBuilder {
    let table = ["T0", "T1", "T2"][rng.gen_range(0..3usize)];
    match rng.gen_range(0..4) {
        0 => {
            let b = QueryBuilder::scan_as(db, "T1", "K1").unwrap();
            let residual = random_pred(rng, b.schema());
            let key = rng.gen_range(0..4i64);
            b.filter(|_| Ok(Expr::Col(0).eq(Expr::lit(key)).and(residual)))
                .unwrap()
        }
        1 => {
            let b = QueryBuilder::scan_as(db, table, "I").unwrap();
            let residual = random_pred(rng, b.schema());
            let preds = [
                TemporalPredicate::Overlaps,
                TemporalPredicate::Starts,
                TemporalPredicate::Finishes,
            ];
            let p = preds[rng.gen_range(0..preds.len())];
            let window = Expr::lit(Value::Interval(random_interval(rng)));
            b.filter(|_| Ok(Expr::Col(2).temporal(p, window).and(residual)))
                .unwrap()
        }
        2 => {
            let l = random_query(rng, db, 0);
            let split = l.schema().len();
            let r = QueryBuilder::scan_as(db, "T1", "R").unwrap();
            let schema = l.schema().product(r.schema());
            let residual = random_pred(rng, &schema);
            l.join(r, |_| Ok(Expr::Col(0).eq(Expr::Col(split)).and(residual)))
                .unwrap()
        }
        _ => {
            let l = QueryBuilder::scan_as(db, table, "L").unwrap();
            let r_table = ["T0", "T1", "T2"][rng.gen_range(0..3usize)];
            let r = QueryBuilder::scan_as(db, r_table, "R").unwrap();
            let schema = l.schema().product(r.schema());
            let residual = random_pred(rng, &schema);
            l.join(r, |_| Ok(Expr::Col(2).overlaps(Expr::Col(5)).and(residual)))
                .unwrap()
        }
    }
}

/// Asserts `∥Q(D)∥rt ≡ Q(∥D∥rt)` for `plan` at every `rt`, under every
/// join strategy with the interval index on and off, and records which
/// physical operators the plans used.
fn assert_commutes(
    db: &Database,
    plan: &LogicalPlan,
    rts: &[TimePoint],
    label: &str,
    seen: &mut BTreeSet<&'static str>,
) {
    for strategy in [
        JoinStrategy::Auto,
        JoinStrategy::NestedLoop,
        JoinStrategy::Hash,
        JoinStrategy::Sweep,
    ] {
        for use_interval_index in [false, true] {
            let cfg = PlannerConfig {
                join_strategy: strategy,
                use_interval_index,
                ..PlannerConfig::default()
            };
            let phys = compile(db, plan, &cfg).unwrap();
            let explain = phys.explain();
            for op in OPERATORS {
                if explain.contains(op) {
                    seen.insert(op);
                }
            }
            let ctx = cfg.exec_context();
            let ongoing = match phys.execute_with_stats(&ctx) {
                Ok((o, _)) => o,
                Err(e) => panic!(
                    "{label} ({strategy:?}, index {use_interval_index}): {e}\nplan:\n{explain}"
                ),
            };
            for &rt in rts {
                let lhs = ongoing.bind(rt);
                let (rhs, _) = phys.execute_at_with_stats(rt, &ctx).unwrap();
                assert_eq!(
                    lhs, rhs,
                    "{label} ({strategy:?}, index {use_interval_index}): divergence at rt={rt}\nplan:\n{explain}"
                );
            }
        }
    }
}

/// EXPLAIN fragments of the operators (and the keyed hash-join build) the
/// master-criterion fuzzer must reach.
const OPERATORS: [&str; 8] = [
    "SeqScan",
    "IndexScan",
    "KeyScan",
    "NestedLoopJoin",
    "HashJoin",
    "(keyed build)",
    "SweepJoin",
    "Project",
];

#[test]
fn random_plans_commute_with_bind() {
    let mut rng = SmallRng::seed_from_u64(20260609);
    let db = Database::new();
    for (i, rows) in [7usize, 5, 9].iter().enumerate() {
        let mut rel = random_relation(&mut rng, *rows);
        if i == 1 {
            // A sealed, key-indexed table lowers key scans and keyed
            // hash-join builds.
            rel.seal_pending();
            rel.create_key_index(0).unwrap();
        }
        db.create_table(&format!("T{i}"), rel).unwrap();
    }
    let rts: Vec<TimePoint> = (LO - 4..=HI + 6).map(tp).collect();
    let mut seen = BTreeSet::new();
    for trial in 0..120 {
        let plan = random_plan(&mut rng, &db, 1 + trial % 2);
        assert_commutes(&db, &plan, &rts, &format!("trial {trial}"), &mut seen);
    }
    // Computed projections (so `eval_scalar_at` is checked) and the
    // steered access paths, from their own seed.
    let mut rng = SmallRng::seed_from_u64(20261017);
    for trial in 0..60 {
        let b = random_query(&mut rng, &db, trial % 2);
        if let Some(p) = computed_projection(&mut rng, b) {
            let label = format!("projection trial {trial}");
            assert_commutes(&db, &p.build(), &rts, &label, &mut seen);
        }
        let plan = access_path_query(&mut rng, &db).build();
        let label = format!("access-path trial {trial}");
        assert_commutes(&db, &plan, &rts, &label, &mut seen);
    }
    for op in OPERATORS {
        assert!(seen.contains(op), "no generated plan lowered {op}");
    }
    // Filters and join residuals in the shapes compiled predicates decide
    // directly, over tables holding both fixed and ongoing `VT` values,
    // also checked against the `Expr`-evaluated algebra.
    let mut rng = SmallRng::seed_from_u64(20261101);
    let db = Database::new();
    let tables: Vec<OngoingRelation> = (0..2).map(|_| mixed_relation(&mut rng, 9)).collect();
    for (i, rel) in tables.iter().enumerate() {
        db.create_table(&format!("M{i}"), rel.clone()).unwrap();
    }
    for trial in 0..40 {
        let (l, r) = (rng.gen_range(0..2usize), rng.gen_range(0..2usize));
        let (plan, oracle) = if trial % 2 == 0 {
            let pred = kernel_mix(&mut rng, None);
            let plan = QueryBuilder::scan(&db, &format!("M{l}"))
                .unwrap()
                .filter(|_| Ok(pred.clone()))
                .unwrap();
            (plan, algebra::select(&tables[l], &pred).unwrap())
        } else {
            let mut pred = kernel_mix(&mut rng, Some(5));
            if rng.gen_bool(0.5) {
                pred = Expr::Col(0).eq(Expr::Col(3)).and(pred);
            }
            let lq = QueryBuilder::scan_as(&db, &format!("M{l}"), "L").unwrap();
            let rq = QueryBuilder::scan_as(&db, &format!("M{r}"), "R").unwrap();
            let plan = lq.join(rq, |_| Ok(pred.clone())).unwrap();
            (plan, algebra::join(&tables[l], &tables[r], &pred).unwrap())
        };
        let plan = plan.build();
        let label = format!("kernel trial {trial}");
        assert_commutes(&db, &plan, &rts, &label, &mut seen);
        let got = execute(&db, &plan).unwrap();
        for &rt in &rts {
            assert_eq!(
                got.bind(rt),
                oracle.bind(rt),
                "{label} vs algebra at rt={rt}"
            );
        }
    }
}

/// A relation over (K: Int, C: Str, VT: OngoingInterval) whose `VT` is a
/// fixed interval (possibly empty) in about half the rows.
fn mixed_relation(rng: &mut SmallRng, rows: usize) -> OngoingRelation {
    let schema = Schema::builder().int("K").str("C").interval("VT").build();
    let mut r = OngoingRelation::new(schema);
    for _ in 0..rows {
        let vt = if rng.gen_bool(0.5) {
            let s = rng.gen_range(LO..=HI);
            OngoingInterval::fixed(tp(s), tp(s + rng.gen_range(-2..8i64)))
        } else {
            random_interval(rng)
        };
        r.insert_with_rt(
            vec![
                Value::Int(rng.gen_range(0..6)),
                Value::str(["x", "y", "z"][rng.gen_range(0..3usize)]),
                Value::Interval(vt),
            ],
            random_rt_set(rng),
        )
        .unwrap();
    }
    r
}

/// A conjunction, in random order, of an `Int`-literal range on `K`, a
/// `Str`-literal (in)equality on `C` and a Table II conjunct on `VT` —
/// against a fixed window or, given `other_vt`, that column — over the
/// leading (K, C, VT) columns; literals on either side.
fn kernel_mix(rng: &mut SmallRng, other_vt: Option<usize>) -> Expr {
    let (k, c, vt) = (Expr::Col(0), Expr::Col(1), Expr::Col(2));
    let cmp = |op, a: Expr, b: Expr| Expr::Cmp(op, Box::new(a), Box::new(b));
    let flip = |rng: &mut SmallRng, op, col: Expr, lit: Expr, mirrored| {
        if rng.gen_bool(0.5) {
            cmp(op, col, lit)
        } else {
            cmp(mirrored, lit, col)
        }
    };
    let lo = rng.gen_range(-1..4i64);
    let hi = lo + rng.gen_range(1..4i64);
    let range = flip(rng, CmpOp::Ge, k.clone(), Expr::lit(lo), CmpOp::Le).and(flip(
        rng,
        CmpOp::Lt,
        k,
        Expr::lit(hi),
        CmpOp::Gt,
    ));
    let word = Expr::lit(["x", "y", "z"][rng.gen_range(0..3usize)]);
    let op = if rng.gen_bool(0.7) {
        CmpOp::Eq
    } else {
        CmpOp::Ne
    };
    let text = flip(rng, op, c, word, op);
    let pred = TemporalPredicate::ALL[rng.gen_range(0..TemporalPredicate::ALL.len())];
    let temporal = match other_vt {
        Some(j) if rng.gen_bool(0.7) => vt.temporal(pred, Expr::Col(j)),
        _ => {
            let s = rng.gen_range(LO..=HI);
            let e = s + rng.gen_range(0..8i64);
            let window = if rng.gen_bool(0.5) {
                Value::Span(tp(s), tp(e))
            } else {
                Value::Interval(OngoingInterval::fixed(tp(s), tp(e)))
            };
            if rng.gen_bool(0.5) {
                vt.temporal(pred, Expr::lit(window))
            } else {
                Expr::lit(window).temporal(pred, vt)
            }
        }
    };
    let mut conjuncts = vec![range, text, temporal];
    let first = conjuncts.remove(rng.gen_range(0..3usize));
    let second = conjuncts.remove(rng.gen_range(0..2usize));
    first.and(second).and(conjuncts.remove(0))
}

#[test]
fn random_plans_agree_across_join_strategies() {
    let mut rng = SmallRng::seed_from_u64(77);
    let db = Database::new();
    for i in 0..3 {
        db.create_table(&format!("T{i}"), random_relation(&mut rng, 6))
            .unwrap();
    }
    for trial in 0..40 {
        let plan = random_plan(&mut rng, &db, 1);
        let mut reference: Option<Vec<String>> = None;
        for strategy in [
            JoinStrategy::Auto,
            JoinStrategy::NestedLoop,
            JoinStrategy::Hash,
            JoinStrategy::Sweep,
        ] {
            let cfg = PlannerConfig {
                join_strategy: strategy,
                ..PlannerConfig::default()
            };
            let phys = compile(&db, &plan, &cfg).unwrap();
            let (rel, _) = phys.execute_with_stats(&cfg.exec_context()).unwrap();
            let mut rows: Vec<String> = rel
                .coalesce()
                .tuples()
                .iter()
                .map(|t| t.to_string())
                .collect();
            rows.sort();
            match &reference {
                None => reference = Some(rows),
                Some(r) => assert_eq!(&rows, r, "trial {trial} strategy {strategy:?}"),
            }
        }
    }
}
