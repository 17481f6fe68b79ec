//! Prepared-statement parameters, differentially: `?` markers bind as
//! XQuery external variables (`$sqlParamN`) on the driver path and as
//! ordinal parameters on the oracle path; results must agree for every
//! binding — including NULL bindings, whose comparisons are UNKNOWN.

use aldsp::driver::{Connection, DspServer};
use aldsp::relational::{execute_query, Relation, SqlValue};
use aldsp::sql::parse_select;
use aldsp::workload::{build_application, populate_database, Scale};
use std::sync::Arc;

fn setup() -> (Connection, aldsp::relational::Database) {
    let app = build_application();
    let db = populate_database(&app, Scale::of(30), 77);
    let oracle = db.clone();
    (Connection::open(Arc::new(DspServer::new(app, db))), oracle)
}

fn check(sql: &str, params: &[SqlValue]) {
    let (conn, oracle_db) = setup();
    let mut statement = conn.prepare(sql).unwrap();
    for (i, p) in params.iter().enumerate() {
        statement.set(i + 1, p.clone()).unwrap();
    }
    let rs = statement.execute_query().unwrap();
    let parsed = parse_select(sql).unwrap();
    let oracle = execute_query(&oracle_db, &parsed, params).unwrap();

    let key = |r: &Vec<SqlValue>| Relation::row_key(r);
    let mut got = rs.rows().to_vec();
    let mut want = oracle.rows.clone();
    got.sort_by_key(key);
    want.sort_by_key(key);
    assert_eq!(got.len(), want.len(), "row counts differ for {sql}");
    for (g, w) in got.iter().zip(&want) {
        for (a, b) in g.iter().zip(w) {
            let agree = match (a, b) {
                (SqlValue::Null, SqlValue::Null) => true,
                (SqlValue::Null, _) | (_, SqlValue::Null) => false,
                _ => a.group_key() == b.group_key(),
            };
            assert!(agree, "{sql}: {g:?} vs {w:?}");
        }
    }
}

#[test]
fn integer_parameter_in_comparison() {
    check(
        "SELECT CUSTOMERID FROM CUSTOMERS WHERE CUSTOMERID > ?",
        &[SqlValue::Int(15)],
    );
}

#[test]
fn two_parameters_in_range() {
    check(
        "SELECT ORDERID, AMOUNT FROM ORDERS WHERE AMOUNT BETWEEN ? AND ?",
        &[SqlValue::Int(50), SqlValue::Int(300)],
    );
}

#[test]
fn string_parameter_equality_and_like_column() {
    check(
        "SELECT CUSTOMERID FROM CUSTOMERS WHERE REGION = ?",
        &[SqlValue::Str("WEST".into())],
    );
}

#[test]
fn parameter_in_subquery() {
    check(
        "SELECT CUSTOMERID FROM CUSTOMERS WHERE CUSTOMERID IN \
         (SELECT CUSTID FROM ORDERS WHERE ORDERID < ?)",
        &[SqlValue::Int(20)],
    );
}

#[test]
fn parameter_in_projection_arithmetic() {
    check(
        "SELECT CUSTOMERID, CUSTOMERID + ? FROM CUSTOMERS WHERE CUSTOMERID <= 5",
        &[SqlValue::Int(100)],
    );
}

#[test]
fn null_parameter_makes_predicate_unknown() {
    // `X = NULL` is UNKNOWN for every row: zero rows on both paths.
    check(
        "SELECT CUSTOMERID FROM CUSTOMERS WHERE CUSTOMERID = ?",
        &[SqlValue::Null],
    );
}

#[test]
fn decimal_parameter_against_decimal_column() {
    check(
        "SELECT PAYMENTID FROM PAYMENTS WHERE PAYMENT >= ?",
        &[SqlValue::Decimal(75.5)],
    );
}

#[test]
fn date_parameter() {
    check(
        "SELECT CUSTOMERID FROM CUSTOMERS WHERE SIGNUP < ?",
        &[SqlValue::Date("2005-06-15".into())],
    );
}

#[test]
fn rebinding_reuses_translation() {
    let (conn, oracle_db) = setup();
    let mut statement = conn
        .prepare("SELECT COUNT(*) FROM ORDERS WHERE CUSTID = ?")
        .unwrap();
    let parsed = parse_select("SELECT COUNT(*) FROM ORDERS WHERE CUSTID = ?").unwrap();
    for id in 1..=10i64 {
        statement.set(1, SqlValue::Int(id)).unwrap();
        let mut rs = statement.execute_query().unwrap();
        rs.next();
        let got = rs.get_i64(1).unwrap();
        let oracle = execute_query(&oracle_db, &parsed, &[SqlValue::Int(id)]).unwrap();
        let SqlValue::Int(want) = oracle.rows[0][0] else {
            panic!()
        };
        assert_eq!(got, want, "count mismatch for CUSTID {id}");
    }
}

/// Parameter indexes are 1-based; 0 used to underflow `index - 1` (a panic
/// in debug builds, a wrapped index in release). Both ends of the range
/// are the same typed usage error in every profile.
#[test]
fn out_of_range_parameter_index_is_a_usage_error() {
    use aldsp::driver::DriverError;

    let (conn, _) = setup();
    let mut statement = conn
        .prepare("SELECT CUSTOMERID FROM CUSTOMERS WHERE CUSTOMERID > ?")
        .unwrap();
    for index in [0, 2] {
        match statement.set(index, SqlValue::Int(1)) {
            Err(DriverError::Usage(message)) => {
                assert_eq!(message, format!("parameter index {index} out of range"))
            }
            other => panic!("set({index}, ..) must be a usage error, got {other:?}"),
        }
    }
    statement.set(1, SqlValue::Int(1)).unwrap();
}

/// Column indexes are 1-based too, on the result set and on its metadata:
/// 0 is the same typed usage error as one past the end from every getter
/// (`None` from the metadata getters), in every profile.
#[test]
fn out_of_range_column_index_is_a_usage_error() {
    use aldsp::driver::DriverError;

    let (conn, _) = setup();
    let mut rs = conn
        .create_statement()
        .execute_query("SELECT CUSTOMERID FROM CUSTOMERS WHERE CUSTOMERID = 1")
        .unwrap();
    assert!(rs.next());
    for index in [0, 2] {
        let expected = format!("column index {index} out of range");
        let usage = |e: DriverError| match e {
            DriverError::Usage(message) => message,
            other => panic!("index {index} must be a usage error, got {other:?}"),
        };
        assert_eq!(usage(rs.value(index).map(|_| ()).unwrap_err()), expected);
        assert_eq!(usage(rs.get_string(index).unwrap_err()), expected);
        assert_eq!(usage(rs.get_i64(index).unwrap_err()), expected);
        assert_eq!(usage(rs.get_f64(index).unwrap_err()), expected);
        assert_eq!(usage(rs.get_bool(index).unwrap_err()), expected);
        assert_eq!(usage(rs.get_date(index).unwrap_err()), expected);
        assert_eq!(rs.meta().column_label(index), None);
        assert_eq!(rs.meta().column_type_name(index), None);
        assert_eq!(rs.meta().is_nullable(index), None);
    }
    assert_eq!(rs.get_i64(1).unwrap(), 1);
    assert_eq!(rs.meta().column_label(1), Some("CUSTOMERID"));
}
