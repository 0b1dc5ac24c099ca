//! The paper's running example (Sec. II), end to end.
//!
//! A company tracks bugs (`B`), pre-scheduled patches (`P`) and technical
//! leads (`L`) for its email service. Deprioritized bugs are open "until
//! now" — their valid-time end points keep increasing. The query `V` joins
//! the Spam-filter bugs with upcoming patches and the responsible technical
//! leads:
//!
//! ```text
//! V ← π_{BID, B.VT, PID, Name, B.VT ∩ L.VT}(
//!         σ_{C='Spam filter'}(B)
//!           ⋈_{B.C = P.C ∧ B.VT before P.VT} P
//!           ⋈_{B.C = L.C ∧ B.VT overlaps L.VT} L)
//! ```
//!
//! The result must be exactly the five tuples of Fig. 2 — including the
//! uninstantiated ongoing intervals like `[01/25, +08/18)` and the
//! reference times like `{[01/26, 08/16)}` — and it remains valid no matter
//! when you look at it. Run with:
//!
//! ```sh
//! cargo run --example bug_tracker
//! ```

use ongoing_core::date::{md, AsMd};
use ongoing_core::{IntervalSet, OngoingInterval, OngoingPoint, TimePoint};
use ongoing_relation::algebra::ProjItem;
use ongoing_relation::{Expr, OngoingRelation, Schema, Value};
use ongoingdb::engine::{execute, Database, QueryBuilder};

fn interval(v: &Value) -> OngoingInterval {
    v.as_interval().expect("interval value")
}

fn main() {
    // ------------------------------------------------------------------
    // Base relations of Fig. 1. Base tuples get the trivial reference
    // time {(-∞, ∞)} automatically.
    // ------------------------------------------------------------------
    let db = Database::new();

    let mut bugs =
        OngoingRelation::new(Schema::builder().int("BID").str("C").interval("VT").build());
    bugs.insert(vec![
        Value::Int(500),
        Value::str("Spam filter"),
        Value::Interval(OngoingInterval::from_until_now(md(1, 25))), // b1
    ])
    .unwrap();
    bugs.insert(vec![
        Value::Int(501),
        Value::str("Spam filter"),
        Value::Interval(OngoingInterval::fixed(md(3, 30), md(8, 21))), // b2
    ])
    .unwrap();
    db.create_table("B", bugs).unwrap();

    let mut patches =
        OngoingRelation::new(Schema::builder().int("PID").str("C").interval("VT").build());
    patches
        .insert(vec![
            Value::Int(201),
            Value::str("Spam filter"),
            Value::Interval(OngoingInterval::fixed(md(8, 15), md(8, 24))), // p1
        ])
        .unwrap();
    patches
        .insert(vec![
            Value::Int(202),
            Value::str("Spam filter"),
            Value::Interval(OngoingInterval::fixed(md(8, 24), md(8, 27))), // p2
        ])
        .unwrap();
    db.create_table("P", patches).unwrap();

    let mut leads = OngoingRelation::new(
        Schema::builder()
            .str("Name")
            .str("C")
            .interval("VT")
            .build(),
    );
    leads
        .insert(vec![
            Value::str("Ann"),
            Value::str("Spam filter"),
            Value::Interval(OngoingInterval::fixed(md(1, 20), md(8, 18))), // l1
        ])
        .unwrap();
    leads
        .insert(vec![
            Value::str("Bob"),
            Value::str("Spam filter"),
            Value::Interval(OngoingInterval::from_until_now(md(8, 18))), // l2
        ])
        .unwrap();
    db.create_table("L", leads).unwrap();

    // ------------------------------------------------------------------
    // The query V.
    // ------------------------------------------------------------------
    let b = QueryBuilder::scan_as(&db, "B", "B")
        .unwrap()
        .filter(|s| Ok(Expr::col(s, "B.C")?.eq(Expr::lit("Spam filter"))))
        .unwrap();
    let p = QueryBuilder::scan_as(&db, "P", "P").unwrap();
    let l = QueryBuilder::scan_as(&db, "L", "L").unwrap();

    let joined = b
        .join(p, |s| {
            Ok(Expr::col(s, "B.C")?
                .eq(Expr::col(s, "P.C")?)
                .and(Expr::col(s, "B.VT")?.before(Expr::col(s, "P.VT")?)))
        })
        .unwrap()
        .join(l, |s| {
            Ok(Expr::col(s, "B.C")?
                .eq(Expr::col(s, "L.C")?)
                .and(Expr::col(s, "B.VT")?.overlaps(Expr::col(s, "L.VT")?)))
        })
        .unwrap();

    let schema = joined.schema().clone();
    let plan = joined
        .project(vec![
            ProjItem::col(&schema, "B.BID").unwrap(),
            ProjItem::col(&schema, "B.VT").unwrap(),
            ProjItem::col(&schema, "P.PID").unwrap(),
            ProjItem::col(&schema, "Name").unwrap(),
            ProjItem::named(
                Expr::col(&schema, "B.VT")
                    .unwrap()
                    .intersect(Expr::col(&schema, "L.VT").unwrap()),
                "B.VT ∩ L.VT",
            ),
        ])
        .unwrap()
        .build();

    let v = execute(&db, &plan).unwrap();

    println!("Query result V (remains valid as time passes by):\n");
    println!("{}", v.to_table_string_md());

    // ------------------------------------------------------------------
    // Assert the exact Fig. 2 contents.
    // ------------------------------------------------------------------
    assert_eq!(v.len(), 5, "Fig. 2 has exactly five tuples");
    let find = |bid: i64, pid: i64, name: &str| {
        v.iter()
            .find(|t| {
                t.value(0) == &Value::Int(bid)
                    && t.value(2) == &Value::Int(pid)
                    && t.value(3).as_str() == Some(name)
            })
            .unwrap_or_else(|| panic!("missing tuple ({bid}, {pid}, {name})"))
    };

    // v1 = (500, [01/25, now), 201, Ann, [01/25, +08/18)) RT {[01/26, 08/16)}
    let v1 = find(500, 201, "Ann");
    assert_eq!(
        interval(v1.value(4)),
        OngoingInterval::new(
            OngoingPoint::fixed(md(1, 25)),
            OngoingPoint::limited(md(8, 18))
        )
    );
    assert_eq!(v1.rt(), &IntervalSet::range(md(1, 26), md(8, 16)));

    // v2 = (500, ..., 202, Ann, [01/25, +08/18)) RT {[01/26, 08/25)}
    let v2 = find(500, 202, "Ann");
    assert_eq!(v2.rt(), &IntervalSet::range(md(1, 26), md(8, 25)));

    // v3 = (500, ..., 202, Bob, [08/18, now)) RT {[08/19, 08/25)}
    let v3 = find(500, 202, "Bob");
    assert_eq!(
        interval(v3.value(4)),
        OngoingInterval::from_until_now(md(8, 18))
    );
    assert_eq!(v3.rt(), &IntervalSet::range(md(8, 19), md(8, 25)));

    // v4 = (501, [03/30, 08/21), 202, Ann, [03/30, 08/18)) RT {(-∞, ∞)}
    let v4 = find(501, 202, "Ann");
    assert_eq!(
        interval(v4.value(4)),
        OngoingInterval::fixed(md(3, 30), md(8, 18))
    );
    assert!(v4.rt().is_full());

    // v5 = (501, ..., 202, Bob, [08/18, +08/21)) RT {[08/19, ∞)}
    let v5 = find(501, 202, "Bob");
    assert_eq!(
        interval(v5.value(4)),
        OngoingInterval::new(
            OngoingPoint::fixed(md(8, 18)),
            OngoingPoint::limited(md(8, 21))
        )
    );
    assert_eq!(v5.rt(), &IntervalSet::range(md(8, 19), TimePoint::POS_INF));

    // ------------------------------------------------------------------
    // The whole point: instantiating V at any reference time equals
    // re-running the query on the instantiated database.
    // ------------------------------------------------------------------
    for rt in [md(1, 1), md(5, 14), md(8, 15), md(8, 20), md(12, 31)] {
        let from_v = v.bind(rt);
        let clifford = ongoingdb::engine::execute_at(&db, &plan, rt).unwrap();
        assert_eq!(from_v, clifford, "divergence at rt = {}", AsMd(rt));
        println!(
            "at rt = {}: {} result tuple(s) — V agrees with re-evaluation",
            AsMd(rt),
            from_v.len()
        );
    }
    println!("\nAll Fig. 2 tuples verified; V remains valid as time passes by.");
}
