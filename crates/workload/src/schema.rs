//! The benchmark universe: the paper's tables at parameterized scale.

use aldsp_catalog::stats::CatalogStats;
use aldsp_catalog::{Application, ApplicationBuilder, SqlColumnType};
use aldsp_relational::{Database, SqlValue, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Scale factor: row counts per table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// CUSTOMERS rows.
    pub customers: usize,
    /// ORDERS rows.
    pub orders: usize,
    /// PAYMENTS rows.
    pub payments: usize,
}

impl Scale {
    /// A small scale for unit/differential tests.
    pub fn small() -> Scale {
        Scale {
            customers: 25,
            orders: 60,
            payments: 40,
        }
    }

    /// A scale proportional to `n` customers (orders ~2.5x, payments
    /// ~1.5x), for benchmark sweeps.
    pub fn of(n: usize) -> Scale {
        Scale {
            customers: n,
            orders: n * 5 / 2,
            payments: n * 3 / 2,
        }
    }
}

/// Builds the DSP application exposing the universe as data services
/// (Figure 2 mapping): one project, one `.ds` file per business object.
pub fn build_application() -> Application {
    ApplicationBuilder::new("REPORTAPP")
        .project("TestDataServices")
        .data_service("CUSTOMERS")
        .physical_table("CUSTOMERS", |t| {
            t.column("CUSTOMERID", SqlColumnType::Integer, false)
                .column("CUSTOMERNAME", SqlColumnType::Varchar, true)
                .column("REGION", SqlColumnType::Varchar, false)
                .column("CREDIT", SqlColumnType::Decimal, true)
                .column("SIGNUP", SqlColumnType::Date, false)
        })
        .finish_service()
        .data_service("ORDERS")
        .physical_table("ORDERS", |t| {
            t.column("ORDERID", SqlColumnType::Integer, false)
                .column("CUSTID", SqlColumnType::Integer, false)
                .column("AMOUNT", SqlColumnType::Decimal, true)
                .column("STATUS", SqlColumnType::Varchar, false)
        })
        .finish_service()
        .data_service("PAYMENTS")
        .physical_table("PAYMENTS", |t| {
            t.column("PAYMENTID", SqlColumnType::Integer, false)
                .column("CUSTID", SqlColumnType::Integer, false)
                .column("PAYMENT", SqlColumnType::Decimal, false)
                .column("METHOD", SqlColumnType::Varchar, true)
        })
        .finish_service()
        .finish_project()
        .build()
}

const REGIONS: &[&str] = &["NORTH", "SOUTH", "EAST", "WEST"];
const STATUSES: &[&str] = &["OPEN", "SHIPPED", "BILLED", "CLOSED"];
const METHODS: &[&str] = &["CARD", "WIRE", "CHECK"];
const FIRST_NAMES: &[&str] = &[
    "Joe", "Sue", "Ann", "Max", "Ida", "Leo", "Eva", "Sam", "Zoe", "Ben",
];
const LAST_NAMES: &[&str] = &[
    "Smith", "Jones", "Brown", "Davis", "Quinn", "Young", "Moore", "Price",
];

/// Populates the universe deterministically from a seed. Customer ids are
/// `1..=customers`; roughly 10% of orders reference a missing customer
/// (dangling foreign keys keep outer joins interesting) and nullable
/// columns are NULL ~15% of the time.
pub fn populate_database(app: &Application, scale: Scale, seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    let schema_of = |name: &str| {
        app.functions()
            .find(|(_, _, f)| f.name == name)
            .map(|(_, _, f)| f.schema.clone())
            .expect("table declared by build_application")
    };

    let mut customers = Table::new(schema_of("CUSTOMERS"));
    for id in 1..=scale.customers as i64 {
        let name = if rng.gen_bool(0.15) {
            SqlValue::Null
        } else {
            SqlValue::Str(format!(
                "{} {}",
                FIRST_NAMES[rng.gen_range(0..FIRST_NAMES.len())],
                LAST_NAMES[rng.gen_range(0..LAST_NAMES.len())]
            ))
        };
        let credit = if rng.gen_bool(0.15) {
            SqlValue::Null
        } else {
            SqlValue::Decimal((rng.gen_range(100..100_000) as f64) / 100.0)
        };
        customers.insert(vec![
            SqlValue::Int(id),
            name,
            SqlValue::Str(REGIONS[rng.gen_range(0..REGIONS.len())].to_string()),
            credit,
            SqlValue::Date(format!(
                "20{:02}-{:02}-{:02}",
                rng.gen_range(0..10),
                rng.gen_range(1..13),
                rng.gen_range(1..29)
            )),
        ]);
    }
    db.add_table(customers);

    let mut orders = Table::new(schema_of("ORDERS"));
    for id in 1..=scale.orders as i64 {
        let custid = if rng.gen_bool(0.1) {
            // Dangling reference.
            scale.customers as i64 + rng.gen_range(1..100)
        } else {
            rng.gen_range(1..=scale.customers.max(1) as i64)
        };
        let amount = if rng.gen_bool(0.15) {
            SqlValue::Null
        } else {
            SqlValue::Decimal((rng.gen_range(50..50_000) as f64) / 100.0)
        };
        orders.insert(vec![
            SqlValue::Int(id),
            SqlValue::Int(custid),
            amount,
            SqlValue::Str(STATUSES[rng.gen_range(0..STATUSES.len())].to_string()),
        ]);
    }
    db.add_table(orders);

    let mut payments = Table::new(schema_of("PAYMENTS"));
    for id in 1..=scale.payments as i64 {
        let method = if rng.gen_bool(0.15) {
            SqlValue::Null
        } else {
            SqlValue::Str(METHODS[rng.gen_range(0..METHODS.len())].to_string())
        };
        payments.insert(vec![
            SqlValue::Int(id),
            SqlValue::Int(rng.gen_range(1..=scale.customers.max(1) as i64)),
            SqlValue::Decimal((rng.gen_range(100..20_000) as f64) / 100.0),
            method,
        ]);
    }
    db.add_table(payments);
    db
}

/// Catalog statistics matching what [`populate_database`] actually
/// generates at `scale`. Only the optimizer shell takes them today
/// (`Optimizer::new`), and it reads none; both go together (ROADMAP
/// B2). NDVs follow the population
/// code: ids are unique sequences, category columns draw from the fixed
/// pools (`REGIONS`/`STATUSES`/`METHODS`), foreign keys cover at
/// most the customer id range, and money columns are effectively
/// distinct.
pub fn stats_for(scale: Scale) -> CatalogStats {
    let customers = scale.customers as u64;
    let orders = scale.orders as u64;
    let payments = scale.payments as u64;
    CatalogStats::new()
        .table("CUSTOMERS", customers, |t| {
            t.unique("CUSTOMERID")
                .ndv("CUSTOMERNAME", (customers * 17 / 20).max(1))
                .ndv("REGION", REGIONS.len() as u64)
                .ndv("CREDIT", (customers * 17 / 20).max(1))
                .ndv("SIGNUP", (customers * 7 / 10).max(1))
        })
        .table("ORDERS", orders, |t| {
            t.unique("ORDERID")
                .ndv("CUSTID", orders.min(customers).max(1))
                .ndv("AMOUNT", (orders * 17 / 20).max(1))
                .ndv("STATUS", STATUSES.len() as u64)
        })
        .table("PAYMENTS", payments, |t| {
            t.unique("PAYMENTID")
                .ndv("CUSTID", payments.min(customers).max(1))
                .ndv("PAYMENT", payments.max(1))
                .ndv("METHOD", METHODS.len() as u64)
        })
}

/// The paper's worked example queries (adapted to this universe where the
/// paper's tables differ), used by the translation-latency experiment
/// (E2): one canonical query per construct class.
pub fn paper_queries() -> Vec<(&'static str, &'static str)> {
    vec![
        ("simple", "SELECT * FROM CUSTOMERS"),
        (
            "alias",
            "SELECT CUSTOMERID ID, CUSTOMERNAME NAME FROM CUSTOMERS",
        ),
        (
            "subquery",
            "SELECT INFO.ID, INFO.NAME FROM (SELECT CUSTOMERID ID, CUSTOMERNAME NAME \
             FROM CUSTOMERS) AS INFO WHERE INFO.ID > 10",
        ),
        (
            "inner_join",
            "SELECT CUSTOMERS.CUSTOMERNAME, ORDERS.AMOUNT FROM CUSTOMERS INNER JOIN ORDERS \
             ON CUSTOMERS.CUSTOMERID = ORDERS.CUSTID",
        ),
        (
            "outer_join",
            "SELECT CUSTOMERS.CUSTOMERID, PAYMENTS.PAYMENT FROM CUSTOMERS LEFT OUTER JOIN \
             PAYMENTS ON CUSTOMERS.CUSTOMERID = PAYMENTS.CUSTID",
        ),
        (
            "group_by_complex",
            "SELECT CUSTOMERS.CUSTOMERID, COUNT(ORDERS.ORDERID), SUM(ORDERS.AMOUNT) \
             FROM CUSTOMERS INNER JOIN ORDERS ON CUSTOMERS.CUSTOMERID = ORDERS.CUSTID \
             GROUP BY CUSTOMERS.CUSTOMERID \
             HAVING COUNT(ORDERS.ORDERID) > 1 \
             ORDER BY CUSTOMERS.CUSTOMERID",
        ),
    ]
}

/// The statements of `tests/golden.sql` — the paper's Example shapes
/// restated against this universe, the corpus CI's `analyze` steps read.
pub fn golden_statements() -> Vec<String> {
    split_statements(include_str!("../../../tests/golden.sql"))
}

/// Drops `--` comment lines and splits on `;`. Lines are re-joined with
/// `\n`, so a statement wrapped onto a second line keeps its token
/// boundary.
fn split_statements(text: &str) -> Vec<String> {
    text.lines()
        .filter(|l| !l.trim_start().starts_with("--"))
        .collect::<Vec<_>>()
        .join("\n")
        .split(';')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrapped_statements_keep_their_token_boundaries() {
        let statements = split_statements(
            "-- a comment\nSELECT A FROM T WHERE D >= '2005-01-01'\nORDER BY A;\n\
             -- another\nSELECT B FROM T;\n",
        );
        assert_eq!(
            statements,
            [
                "SELECT A FROM T WHERE D >= '2005-01-01'\nORDER BY A",
                "SELECT B FROM T"
            ]
        );
        aldsp_sql::parse_select(&statements[0]).expect("the wrapped statement still parses");
        let golden = golden_statements();
        assert_eq!(golden.len(), 25);
        assert!(golden.iter().all(|s| !s.contains("--")));
    }

    #[test]
    fn population_is_deterministic() {
        let app = build_application();
        let a = populate_database(&app, Scale::small(), 42);
        let b = populate_database(&app, Scale::small(), 42);
        assert_eq!(
            a.table("CUSTOMERS").unwrap().rows,
            b.table("CUSTOMERS").unwrap().rows
        );
        let c = populate_database(&app, Scale::small(), 43);
        assert_ne!(
            a.table("CUSTOMERS").unwrap().rows,
            c.table("CUSTOMERS").unwrap().rows
        );
    }

    #[test]
    fn scale_controls_row_counts() {
        let app = build_application();
        let db = populate_database(&app, Scale::of(10), 1);
        assert_eq!(db.table("CUSTOMERS").unwrap().rows.len(), 10);
        assert_eq!(db.table("ORDERS").unwrap().rows.len(), 25);
        assert_eq!(db.table("PAYMENTS").unwrap().rows.len(), 15);
    }

    #[test]
    fn nullable_columns_contain_nulls() {
        let app = build_application();
        let db = populate_database(&app, Scale::of(200), 7);
        let customers = db.table("CUSTOMERS").unwrap();
        assert!(customers.rows.iter().any(|r| r[1] == SqlValue::Null));
        assert!(customers.rows.iter().any(|r| r[1] != SqlValue::Null));
    }

    #[test]
    fn paper_queries_parse() {
        for (name, sql) in paper_queries() {
            aldsp_sql::parse_select(sql)
                .unwrap_or_else(|e| panic!("paper query {name} failed to parse: {e}"));
        }
    }
}
