//! The five workloads: statement texts, classes, and the seeded schedule.
//!
//! The universe (CUSTOMERS / ORDERS / PAYMENTS) is populated from a fixed
//! seed so every run of a workload sees the same rows; `--seed` drives what
//! a client sends — which keys the point lookups ask for, which statements
//! the fuzzer writes, and the order of the round-robin schedule.

use crate::sut;

/// Which of the two services a statement goes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// `Transport::DelimitedText` — the production default.
    Text,
    /// `Transport::Xml` — the paper's §4 baseline, used by `bulk_export`.
    Xml,
}

/// Row counts of the universe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// 25 / 60 / 40 rows — the differential-test scale.
    Small,
    /// `n` customers, 2.5 n orders, 1.5 n payments.
    Of(usize),
}

/// One statement a client can send.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Statement {
    pub class: &'static str,
    pub lane: Lane,
    pub sql: String,
    /// Values for the `?` markers, in order.
    pub params: Vec<i64>,
}

/// The `reload_churn` write: client 0 inserts one ORDERS row for
/// `custid` after every `every`-th of its statements, then runs and
/// re-verifies `touched`, the statement that reads that customer's orders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Churn {
    pub every: usize,
    pub custid: i64,
    pub touched: usize,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Workload {
    pub name: &'static str,
    pub scale: Scale,
    pub statements: Vec<Statement>,
    /// Indices into `statements`: one pass is the traced run's fixed list,
    /// and timed clients cycle through it.
    pub schedule: Vec<usize>,
    pub churn: Option<Churn>,
}

/// `(name, why)` for every workload, in report order. `BENCHMARK.json`
/// carries the same text.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "warm_point",
        "64 point lookups returning <= 10 rows, every one an exact plan-cache hit: the fixed per-statement path (cache lookup, XQuery re-parse, locks, pool) is most of the time",
    ),
    (
        "join_report",
        "11 join/group/set/subquery report shapes at 200 customers, warm cache: evaluation is > 95 % of every statement; translation, parse and decode are noise",
    ),
    (
        "bulk_export",
        "full-table scans of 2,000 customers and 5,000 orders over delimited text and over XML: the string-join wrapper, serialization and result decoding dominate",
    ),
    (
        "adhoc_fuzz",
        "4,096 unique generated statements cycled through a 1,024-entry plan cache on tiny data: SQL parse, stages 1-3, optimizer and validation gate, eviction are the work",
    ),
    (
        "reload_churn",
        "warm_point's lookups while one client inserts a row every 500 statements: epoch bump, stale plans, retranslation and re-materialization instead of hits",
    ),
];

/// Full scale, or the `--smoke` scale the self-check test runs at: lists a
/// tenth as long, bulk data a tenth as large, and just enough fuzzed
/// statements to overflow the plan cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

impl Size {
    fn pick(self, full: usize, smoke: usize) -> usize {
        match self {
            Size::Full => full,
            Size::Smoke => smoke,
        }
    }
}

/// splitmix64: the schedule only needs a seeded shuffle that is the same
/// on every machine and in every later version of this benchmark.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Round-robin with a fresh seeded order each round, cut at `len`: every
/// statement appears once before any appears twice.
fn round_robin(rng: &mut Rng, statements: usize, len: usize) -> Vec<usize> {
    let mut schedule = Vec::with_capacity(len + statements);
    let mut round: Vec<usize> = (0..statements).collect();
    while schedule.len() < len {
        rng.shuffle(&mut round);
        schedule.extend_from_slice(&round);
    }
    schedule.truncate(len);
    schedule
}

/// Builds a workload by name; `None` for an unknown name.
pub fn build(name: &str, seed: u64, size: Size) -> Option<Workload> {
    let mut rng = Rng::new(seed);
    let text = |class, sql: &str, params: Vec<i64>| Statement {
        class,
        lane: Lane::Text,
        sql: sql.to_string(),
        params,
    };
    let workload = match name {
        "warm_point" | "reload_churn" => {
            let customers = 50;
            let mut statements = Vec::new();
            let parameterized = [
                (
                    "point_customer",
                    "SELECT CUSTOMERID, CUSTOMERNAME, REGION FROM CUSTOMERS WHERE CUSTOMERID = ?",
                ),
                (
                    "orders_by_cust",
                    "SELECT ORDERID, AMOUNT, STATUS FROM ORDERS WHERE CUSTID = ?",
                ),
                (
                    "payments_by_cust",
                    "SELECT PAYMENTID, PAYMENT, METHOD FROM PAYMENTS WHERE CUSTID = ?",
                ),
            ];
            // 20 + 12 + 12 + 20: the two cheap classes hold more than half
            // of the mix, so its median falls inside them and not on the
            // step up to the dearer ones.
            let keys = |rng: &mut Rng, count: usize| {
                let mut ids: Vec<i64> = (1..=customers).collect();
                rng.shuffle(&mut ids);
                ids.truncate(count);
                ids
            };
            for ((class, sql), count) in parameterized.into_iter().zip([20, 12, 12]) {
                for id in keys(&mut rng, count) {
                    statements.push(text(class, sql, vec![id]));
                }
            }
            // The write goes to the customer the first `orders_by_cust`
            // statement asks for.
            let touched = 20;
            let custid = statements[touched].params[0];
            for id in keys(&mut rng, 20) {
                let sql = format!(
                    "SELECT CUSTOMERID, CUSTOMERNAME, CREDIT FROM CUSTOMERS WHERE CUSTOMERID = {id}"
                );
                statements.push(text("literal_point", &sql, vec![]));
            }
            let len = size.pick(2000, 200);
            Workload {
                name: if name == "warm_point" {
                    "warm_point"
                } else {
                    "reload_churn"
                },
                scale: Scale::Of(customers as usize),
                schedule: round_robin(&mut rng, statements.len(), len),
                statements,
                churn: (name == "reload_churn").then_some(Churn {
                    every: len / 4,
                    custid,
                    touched,
                }),
            }
        }
        "join_report" => {
            let statements: Vec<Statement> = JOIN_REPORT
                .iter()
                .map(|(class, sql)| text(class, sql, vec![]))
                .collect();
            Workload {
                name: "join_report",
                scale: Scale::Of(200),
                schedule: round_robin(&mut rng, statements.len(), size.pick(330, 33)),
                statements,
                churn: None,
            }
        }
        "bulk_export" => {
            let customers =
                "SELECT CUSTOMERID, CUSTOMERNAME, REGION, CREDIT, SIGNUP FROM CUSTOMERS";
            let orders = "SELECT ORDERID, CUSTID, AMOUNT, STATUS FROM ORDERS";
            let statements: Vec<Statement> = [
                ("customers_text", Lane::Text, customers),
                ("orders_text", Lane::Text, orders),
                ("customers_xml", Lane::Xml, customers),
                ("orders_xml", Lane::Xml, orders),
            ]
            .into_iter()
            .map(|(class, lane, sql)| Statement {
                class,
                lane,
                sql: sql.to_string(),
                params: vec![],
            })
            .collect();
            // A round holds each CUSTOMERS export twice and each ORDERS
            // export once. With four classes sent equally often the mix
            // median would sit between the second and the third class and
            // jump from one to the other with the noise; this way it falls
            // inside `customers_text`.
            let round = [0, 0, 1, 2, 2, 3];
            let schedule = round_robin(&mut rng, round.len(), size.pick(80, 8))
                .into_iter()
                .map(|slot| round[slot])
                .collect();
            Workload {
                name: "bulk_export",
                scale: Scale::Of(size.pick(2000, 200)),
                schedule,
                statements,
                churn: None,
            }
        }
        "adhoc_fuzz" => {
            // Four times the default cache's 1,024 entries at full size;
            // the smoke list still overflows it.
            let count = size.pick(4096, 1280);
            let statements: Vec<Statement> = sut::fuzz_statements(seed, count)
                .into_iter()
                .enumerate()
                .map(|(n, (class, sql))| text(class, &format!("{sql} /* {n} */"), vec![]))
                .collect();
            Workload {
                name: "adhoc_fuzz",
                scale: Scale::Small,
                // Traced pass: the head of the cycle. Timed clients walk
                // the whole list, so by the time a text comes round again
                // the cache has evicted it.
                schedule: (0..count).collect(),
                statements,
                churn: None,
            }
        }
        _ => return None,
    };
    Some(workload)
}

/// How many schedule entries the traced pass replays.
pub fn traced_len(workload: &Workload, size: Size) -> usize {
    match workload.name {
        "adhoc_fuzz" => size.pick(1500, 150).min(workload.schedule.len()),
        _ => workload.schedule.len(),
    }
}

/// One statement per class: the paper's worked examples, `tests/golden.sql`
/// shapes and the E13 join-heavy slice, over the same three tables.
const JOIN_REPORT: [(&str, &str); 11] = [
    (
        "inner_join",
        "SELECT CUSTOMERS.CUSTOMERNAME, ORDERS.AMOUNT FROM CUSTOMERS \
         INNER JOIN ORDERS ON CUSTOMERS.CUSTOMERID = ORDERS.CUSTID",
    ),
    (
        "join_residual",
        "SELECT CUSTOMERS.CUSTOMERNAME, ORDERS.AMOUNT FROM CUSTOMERS \
         INNER JOIN ORDERS ON CUSTOMERS.CUSTOMERID = ORDERS.CUSTID \
         WHERE ORDERS.AMOUNT > 100",
    ),
    (
        "three_way_join",
        "SELECT CUSTOMERS.CUSTOMERID, ORDERS.ORDERID, PAYMENTS.PAYMENT \
         FROM CUSTOMERS INNER JOIN ORDERS ON CUSTOMERS.CUSTOMERID = ORDERS.CUSTID \
         INNER JOIN PAYMENTS ON CUSTOMERS.CUSTOMERID = PAYMENTS.CUSTID \
         WHERE ORDERS.ORDERID < 100",
    ),
    (
        "grouped_join",
        "SELECT CUSTOMERS.CUSTOMERID, COUNT(ORDERS.ORDERID), SUM(ORDERS.AMOUNT) \
         FROM CUSTOMERS INNER JOIN ORDERS ON CUSTOMERS.CUSTOMERID = ORDERS.CUSTID \
         GROUP BY CUSTOMERS.CUSTOMERID ORDER BY CUSTOMERS.CUSTOMERID",
    ),
    (
        "group_having",
        "SELECT CUSTID, COUNT(*) AS N, SUM(PAYMENT) AS TOTAL FROM PAYMENTS \
         GROUP BY CUSTID HAVING COUNT(*) >= 2",
    ),
    (
        "outer_join",
        "SELECT CUSTOMERS.CUSTOMERID, PAYMENTS.PAYMENT FROM CUSTOMERS \
         LEFT OUTER JOIN PAYMENTS ON CUSTOMERS.CUSTOMERID = PAYMENTS.CUSTID",
    ),
    (
        "order_by",
        "SELECT CUSTOMERID, CUSTOMERNAME FROM CUSTOMERS ORDER BY CUSTOMERID DESC",
    ),
    ("distinct", "SELECT DISTINCT CUSTID FROM PAYMENTS"),
    (
        "union",
        "SELECT CUSTID FROM PAYMENTS UNION SELECT CUSTID FROM ORDERS",
    ),
    (
        "in_subquery",
        "SELECT CUSTOMERID, REGION FROM CUSTOMERS WHERE CUSTOMERID IN \
         (SELECT CUSTID FROM ORDERS WHERE AMOUNT > 250)",
    ),
    (
        "derived_table",
        "SELECT INFO.ID, INFO.NAME FROM (SELECT CUSTOMERID ID, CUSTOMERNAME NAME \
         FROM CUSTOMERS) AS INFO WHERE INFO.ID > 10",
    ),
];

/// Every statement class any workload reports, in report order; the
/// `class.<name>.p50_us` metrics are declared from this list. Five of the
/// fuzzer's construct classes share a name with a `join_report` class.
pub const CLASSES: [&str; 25] = [
    "point_customer",
    "orders_by_cust",
    "payments_by_cust",
    "literal_point",
    "inner_join",
    "join_residual",
    "three_way_join",
    "grouped_join",
    "group_having",
    "outer_join",
    "order_by",
    "distinct",
    "union",
    "in_subquery",
    "derived_table",
    "customers_text",
    "orders_text",
    "customers_xml",
    "orders_xml",
    "simple",
    "expressions",
    "group_by",
    "set_op",
    "subquery",
    "distinct_order",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for (name, _) in WORKLOADS {
            let a = build(name, 7, Size::Smoke).unwrap();
            assert_eq!(a, build(name, 7, Size::Smoke).unwrap(), "{name}");
            assert_ne!(a, build(name, 8, Size::Smoke).unwrap(), "{name}");
        }
        let texts = |seed| -> Vec<String> {
            let w = build("adhoc_fuzz", seed, Size::Smoke).unwrap();
            w.statements.into_iter().map(|s| s.sql).collect()
        };
        assert_ne!(texts(7), texts(11));
    }

    #[test]
    fn every_class_is_declared_and_every_round_is_fair() {
        for (name, _) in WORKLOADS {
            let w = build(name, 7, Size::Smoke).unwrap();
            for s in &w.statements {
                assert!(CLASSES.contains(&s.class), "{name}: {}", s.class);
            }
            if name != "bulk_export" {
                let round = &w.schedule[..w.statements.len().min(w.schedule.len())];
                let mut seen = round.to_vec();
                seen.sort_unstable();
                seen.dedup();
                assert_eq!(seen.len(), round.len(), "{name}: a round repeats");
            }
        }
        assert!(build("no_such", 7, Size::Smoke).is_none());
    }

    #[test]
    fn warm_point_has_64_statements_in_four_classes() {
        let w = build("warm_point", 7, Size::Full).unwrap();
        assert_eq!(w.statements.len(), 64);
        assert_eq!(w.schedule.len(), 2000);
        let churn = build("reload_churn", 7, Size::Full).unwrap().churn.unwrap();
        assert_eq!(churn.every, 500);
        assert_eq!(w.statements[churn.touched].class, "orders_by_cust");
        assert_eq!(w.statements[churn.touched].params, vec![churn.custid]);
    }
}
