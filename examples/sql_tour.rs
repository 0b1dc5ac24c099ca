//! OngoingQL tour: querying and modifying an ongoing database through the
//! SQL-like front end, with now-relative modification semantics.
//!
//! ```sh
//! cargo run --example sql_tour
//! ```

use ongoing_core::date::md;
use ongoing_core::OngoingInterval;
use ongoingdb::engine::modify::Modifier;
use ongoingdb::engine::sql;
use ongoingdb::engine::Database;
use ongoingdb::relation::{Expr, OngoingRelation, Schema, Value};

fn main() {
    // The Fig. 1 bug tracker, loaded as base relations.
    let db = Database::new();
    let mut bugs =
        OngoingRelation::new(Schema::builder().int("BID").str("C").interval("VT").build());
    for (bid, c, vt) in [
        (
            500,
            "Spam filter",
            OngoingInterval::from_until_now(md(1, 25)),
        ),
        (
            501,
            "Spam filter",
            OngoingInterval::fixed(md(3, 30), md(8, 21)),
        ),
        (502, "Search", OngoingInterval::from_until_now(md(6, 1))),
    ] {
        bugs.insert(vec![Value::Int(bid), Value::str(c), Value::Interval(vt)])
            .unwrap();
    }
    db.create_table("bugs", bugs).unwrap();

    let mut patches =
        OngoingRelation::new(Schema::builder().int("PID").str("C").interval("VT").build());
    for (pid, c, s, e) in [
        (201, "Spam filter", md(8, 15), md(8, 24)),
        (202, "Spam filter", md(8, 24), md(8, 27)),
        (301, "Search", md(9, 1), md(9, 8)),
    ] {
        patches
            .insert(vec![
                Value::Int(pid),
                Value::str(c),
                Value::Interval(OngoingInterval::fixed(s, e)),
            ])
            .unwrap();
    }
    db.create_table("patches", patches).unwrap();

    // ------------------------------------------------------------------
    // 1. Plain OngoingQL — results carry reference times and stay valid.
    // ------------------------------------------------------------------
    let open_in_august = sql::query(
        &db,
        "SELECT BID, C, VT FROM bugs \
         WHERE VT OVERLAPS PERIOD(DATE '2019-08-01', DATE '2019-09-01')",
    )
    .unwrap();
    println!("bugs open during August (ongoing result):\n");
    println!("{}", open_in_august.to_table_string_md());

    // 2. A join with a temporal predicate and a computed intersection.
    let fixes = sql::query(
        &db,
        "SELECT b.BID, p.PID, INTERSECTION(b.VT, p.VT) AS Overlap \
         FROM bugs AS b JOIN patches AS p \
         ON b.C = p.C AND b.VT OVERLAPS p.VT",
    )
    .unwrap();
    println!("bugs overlapping their component's patch window:\n");
    println!("{}", fixes.to_table_string_md());

    // 3. Set operations.
    let spam_only = sql::query(
        &db,
        "SELECT BID FROM bugs WHERE C = 'Spam filter' \
         EXCEPT SELECT BID FROM bugs WHERE VT BEFORE PERIOD(DATE '2019-08-15', DATE '2019-08-24')",
    )
    .unwrap();
    println!("spam-filter bugs that cannot finish before patch 201:\n");
    println!("{}", spam_only.to_table_string_md());

    // ------------------------------------------------------------------
    // 4. Now-relative modifications (Torp semantics): schedule bug 500's
    //    resolution for 09/01 *without* freezing `now`.
    // ------------------------------------------------------------------
    let table = db.table("bugs").unwrap();
    let mut data = table.data().clone();
    {
        let mut m = Modifier::new(&mut data, "VT").unwrap();
        m.terminate(&Expr::Col(0).eq(Expr::lit(500i64)), md(9, 1))
            .unwrap();
        // And log a fresh bug discovered on 08/20, open-ended.
        m.insert_open(
            vec![Value::Int(503), Value::str("Search"), Value::Bool(false)],
            md(8, 20),
        )
        .unwrap();
    }
    db.put_table("bugs", data).unwrap();

    let after = sql::query(&db, "SELECT BID, VT FROM bugs").unwrap();
    println!("after scheduling bug 500's resolution for 09/01 and filing bug 503:\n");
    println!("{}", after.to_table_string_md());

    // The terminated bug's end point is min(now, 09/01) = +09/01 — still
    // ongoing, still correct at every reference time.
    let b500 = after
        .iter()
        .find(|t| t.value(0) == &Value::Int(500))
        .unwrap();
    let iv = b500.value(1).as_interval().unwrap();
    assert_eq!(iv.bind(md(7, 1)), (md(1, 25), md(7, 1)), "still tracks now");
    assert_eq!(iv.bind(md(12, 1)), (md(1, 25), md(9, 1)), "capped at 09/01");
    println!("bug 500 instantiates to [01/25, 07/01) at rt 07/01 and [01/25, 09/01) at rt 12/01 — as intended.");
}
