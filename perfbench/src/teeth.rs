//! The checks have teeth: perturbed engine results must be flagged, and
//! an injected operator panic must count as a failed operation while
//! the run goes on.

use std::sync::Arc;

use morsel_core::{ExecEnv, FaultPlan};
use morsel_datagen::{generate_tpch, TpchConfig, TpchDb};
use morsel_service::{QueryService, ServiceConfig, Session};
use morsel_storage::{date, Value};
use morsel_txn::TxnDb;

use crate::check::{check_rows, rows_of, Cell, Expected, Row};
use crate::common::{plan_targets, read, settle, topology, RunDir, Tally, WORKERS};
use crate::queries::Query;
use crate::table::Tpch;
use crate::write_read::Change;

fn tiny() -> TpchDb {
    generate_tpch(TpchConfig::scaled(0.005), &topology())
}

fn service(env: ExecEnv) -> QueryService {
    QueryService::start(env, ServiceConfig::new(WORKERS))
}

/// Run `name` through a catalog session; returns its rows and reference.
fn engine_rows(db: &TpchDb, name: &str) -> (Vec<Row>, Expected) {
    let svc = service(ExecEnv::new(topology()));
    let session = Session::builder()
        .catalog(db.catalog())
        .topology(&topology())
        .build();
    let q = Query::fixture(name);
    let r = read(&session, &svc, name, &q.sql());
    let rows = rows_of(r.result.expect("query completes").rows().unwrap());
    svc.shutdown();
    let want = q.reference(Some(&Tpch::from_db(db)), None);
    assert!(
        check_rows(&want, &rows).is_ok(),
        "{name}: the unperturbed result passes"
    );
    (rows, want)
}

#[test]
fn a_dropped_row_is_flagged() {
    let db = tiny();
    for name in ["q1", "q3", "q13"] {
        let (mut rows, want) = engine_rows(&db, name);
        rows.remove(rows.len() / 2);
        assert!(check_rows(&want, &rows).is_err(), "{name}");
    }
}

#[test]
fn a_value_off_by_one_cent_is_flagged() {
    let db = tiny();
    let (mut rows, want) = engine_rows(&db, "q1");
    // sum_base_price of the first group, in cents.
    let Cell::I(v) = rows[0][3] else {
        panic!("cents column")
    };
    rows[0][3] = Cell::I(v + 1);
    assert!(check_rows(&want, &rows).is_err());
}

#[test]
fn a_reversed_order_by_is_flagged() {
    let db = tiny();
    for name in ["q1", "q3", "q13"] {
        let (mut rows, want) = engine_rows(&db, name);
        rows.reverse();
        assert!(check_rows(&want, &rows).is_err(), "{name}");
    }
}

#[test]
fn a_swapped_group_key_is_flagged() {
    let db = tiny();
    // Q4: one row per order priority, sorted by it. Swapping the keys
    // of two groups keeps the key order check honest only if values
    // are compared too.
    let (mut rows, want) = engine_rows(&db, "q4");
    assert!(rows.len() >= 2);
    let (a, b) = (rows[0][0].clone(), rows[1][0].clone());
    rows[0][0] = b;
    rows[1][0] = a;
    rows.swap(0, 1);
    assert!(check_rows(&want, &rows).is_err());
}

#[test]
fn a_read_one_commit_behind_is_flagged() {
    let db = tiny();
    let dir = RunDir::new("teeth-stale");
    let txn = Arc::new(TxnDb::create(dir.path(), vec![("lineitem", db.lineitem.clone())]).unwrap());
    let svc = service(ExecEnv::new(topology()));
    let session = Session::builder()
        .database(Arc::clone(&txn))
        .topology(&topology())
        .build();
    let mut model = Tpch::from_db(&db);
    let behind = model.clone();
    // A line inside Q6's window: it moves Q6's revenue.
    let ship = i64::from(date(1994, 6, 1));
    let row: Vec<Value> = [
        Value::I64(1),
        Value::I64(1),
        Value::I64(1),
        Value::I64(9),
        Value::I64(10),
        Value::I64(100_000),
        Value::I64(6),
        Value::I64(0),
        Value::Str("N".into()),
        Value::Str("O".into()),
        Value::I64(ship),
        Value::I64(ship),
        Value::I64(ship + 1),
        Value::Str("NONE".into()),
        Value::Str("AIR".into()),
        Value::Str("stale read probe".into()),
    ]
    .to_vec();
    let change = Change::Insert {
        table: "lineitem",
        rows: vec![row],
    };
    let ack = session.execute(&svc, "dml", &change.sql()).expect("commit");
    assert_eq!(ack.dml().unwrap().rows_affected, change.apply(&mut model));
    let q = Query::fixture("q6");
    let r = read(&session, &svc, "q6", &q.sql());
    let rows = rows_of(r.result.expect("q6 completes").rows().unwrap());
    svc.shutdown();
    assert!(check_rows(&q.reference(Some(&model), None), &rows).is_ok());
    assert!(check_rows(&q.reference(Some(&behind), None), &rows).is_err());
}

/// Runs q6 and q14 three times each on a service whose fault plan
/// panics q6's first pipeline; returns the tally with q6's failures
/// predicted or not.
fn run_with_injected_panic(predict: bool) -> Tally {
    let db = tiny();
    let plan: FaultPlan = "panic@q6/#0".parse().unwrap();
    let targets = if predict { plan_targets(&plan) } else { vec![] };
    let svc = service(ExecEnv::new(topology()).with_fault_plan(plan));
    let session = Session::builder()
        .catalog(db.catalog())
        .topology(&topology())
        .build();
    let plain = Tpch::from_db(&db);
    let mut tally = Tally::default();
    for _ in 0..3 {
        for name in ["q6", "q14"] {
            let q = Query::fixture(name);
            let r = read(&session, &svc, name, &q.sql());
            let predicted = targets.iter().any(|t| t == name);
            settle(
                &mut tally,
                name,
                &r,
                &q.reference(Some(&plain), None),
                predicted,
                None,
            );
        }
    }
    svc.shutdown();
    tally
}

#[test]
fn an_injected_operator_panic_counts_as_failed_and_the_run_goes_on() {
    let tally = run_with_injected_panic(true);
    assert_eq!((tally.attempted, tally.failed), (6, 1));
    assert!(tally.correct(), "{:?}", tally.mismatches);
}

#[test]
fn an_unpredicted_failure_makes_the_run_incorrect() {
    let tally = run_with_injected_panic(false);
    assert_eq!((tally.attempted, tally.failed), (6, 0));
    assert_eq!(tally.unpredicted.len(), 1);
    assert!(tally.mismatches.is_empty(), "{:?}", tally.mismatches);
    assert!(!tally.correct());
}
