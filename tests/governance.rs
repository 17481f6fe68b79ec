//! Resource-governance integration tests: query budgets, the in-flight
//! deadline, admission control, the circuit breaker, and stats accounting
//! — the overload-protection subsystem exercised through the public
//! facade, end to end.

mod common;

use aldsp::core::Transport;
use aldsp::driver::{
    BreakerConfig, BreakerState, Connection, DriverError, DspServer, FaultConfig, FaultInjector,
    GovernorConfig, QueryBudget, QueryService, RetryPolicy,
};
use aldsp::governor::Lowering;
use aldsp::relational::SqlValue;
use aldsp::workload::{
    build_application, populate_database, run_overload, Lane, OverloadConfig, Scale,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A three-way cartesian product: cheap to translate, ruinous to
/// evaluate. At `Scale::of(50)` the expansion is 50 x 125 x 75 bindings.
const CARTESIAN: &str =
    "SELECT CUSTOMERS.CUSTOMERID FROM CUSTOMERS, ORDERS, PAYMENTS WHERE CUSTOMERS.CUSTOMERID > 0";

fn server(scale: Scale, seed: u64) -> Arc<DspServer> {
    let app = build_application();
    let db = populate_database(&app, scale, seed);
    Arc::new(DspServer::new(app, db))
}

/// The satellite-1 regression: `RetryPolicy.deadline` used to be checked
/// only *between* attempts, so a single runaway evaluation could blow
/// far past the statement budget and still return rows. The deadline now
/// seeds a shared `QueryBudget` that the evaluator polls mid-flight —
/// the cartesian below must be stopped inside its (only) attempt and
/// surface as `Timeout`, never complete successfully.
#[test]
fn in_flight_attempt_observes_the_deadline_budget() {
    let mut conn = Connection::open(server(Scale::of(50), 3));
    conn.set_retry_policy(RetryPolicy {
        max_attempts: 3,
        base_backoff: Duration::ZERO,
        max_backoff: Duration::ZERO,
        deadline: Some(Duration::from_millis(50)),
    });
    let started = Instant::now();
    let result = conn.create_statement().execute_query(CARTESIAN);
    let elapsed = started.elapsed();
    match result {
        Err(DriverError::Timeout(_)) => {}
        other => panic!(
            "expected Timeout from the in-flight deadline, got {:?}",
            other.map(|rs| rs.row_count())
        ),
    }
    // The evaluator polls the budget clock every few dozen operations, so
    // the statement dies shortly after the 50ms deadline — not after the
    // full cartesian expansion.
    assert!(
        elapsed < Duration::from_secs(10),
        "deadline took {elapsed:?} to be observed"
    );
}

/// The same in-flight deadline through the governed `QueryService` path,
/// with the budget handed in by the caller instead of derived from the
/// retry policy.
#[test]
fn service_budget_deadline_stops_runaway_evaluation() {
    let service = QueryService::new(server(Scale::of(50), 3), Default::default());
    let budget = QueryBudget::unlimited().with_deadline(Duration::from_millis(50));
    let result = service.execute_with_budget(CARTESIAN, &[], Some(&budget));
    assert!(
        matches!(result, Err(DriverError::Timeout(_))),
        "expected Timeout, got {:?}",
        result.map(|rs| rs.row_count())
    );
    // The violation is counted as the caller's budget choice, not a
    // backend failure: the breaker must still be closed.
    assert_eq!(service.governor_stats().breaker_state, BreakerState::Closed);
}

#[test]
fn oversized_statement_is_rejected_before_translation() {
    let service = QueryService::new(server(Scale::small(), 1), Default::default()).with_governor(
        GovernorConfig {
            max_statement_bytes: 256,
            ..GovernorConfig::default()
        },
    );
    let sql = format!("SELECT CUSTOMERID FROM CUSTOMERS{}", " ".repeat(300));
    let result = service.execute(&sql, &[]);
    assert!(
        matches!(result, Err(DriverError::BudgetExceeded(_))),
        "expected BudgetExceeded, got {result:?}"
    );
    let stats = service.governor_stats();
    assert_eq!(stats.submitted, 1);
    assert_eq!(stats.admitted, 0);
    assert_eq!(stats.statement_rejections, 1);
    // The guard fired before any translation or cache work.
    let cache = service.cache_stats();
    assert_eq!(cache.misses + cache.hits(), 0);
}

/// Breaker lifecycle through the service: consecutive backend failures
/// trip it open, an open breaker sheds with `Overloaded`, and once the
/// backend heals the half-open probe closes it again.
#[test]
fn breaker_opens_sheds_and_recovers_via_half_open_probe() {
    let srv = server(Scale::small(), 5);
    let injector = Arc::new(FaultInjector::new(FaultConfig {
        seed: 9,
        metadata_failure: 0.0,
        execute_failure: 1.0,
        execute_timeout: 0.0,
        transport_failure: 0.0,
        transport_corruption: 0.0,
        permanent_ratio: 1.0,
    }));
    srv.install_fault_injector(Some(Arc::clone(&injector)));
    let service =
        QueryService::new(Arc::clone(&srv), Default::default()).with_governor(GovernorConfig {
            breaker: BreakerConfig {
                failure_threshold: 3,
                open_duration: Duration::from_millis(30),
            },
            ..GovernorConfig::default()
        });
    let sql = "SELECT CUSTOMERID FROM CUSTOMERS ORDER BY CUSTOMERID";

    // Three consecutive permanent execution failures trip the breaker.
    for _ in 0..3 {
        let r = service.execute(sql, &[]);
        assert!(
            matches!(r, Err(DriverError::Execution(_))),
            "expected Execution failure, got {r:?}"
        );
    }
    assert_eq!(service.governor_stats().breaker_state, BreakerState::Open);
    assert_eq!(service.governor_stats().breaker_trips, 1);

    // While open, statements are shed without touching the backend.
    let shed = service.execute(sql, &[]);
    assert!(
        matches!(shed, Err(DriverError::Overloaded(_))),
        "expected Overloaded from the open breaker, got {shed:?}"
    );
    assert_eq!(service.governor_stats().breaker_rejections, 1);

    // Heal the backend, wait out the open window: the next statement is
    // the half-open probe, and its success closes the breaker.
    srv.install_fault_injector(None);
    std::thread::sleep(Duration::from_millis(40));
    let probe = service.execute(sql, &[]);
    assert!(probe.is_ok(), "probe failed: {probe:?}");
    assert_eq!(service.governor_stats().breaker_state, BreakerState::Closed);

    // And the service keeps working.
    assert!(service.execute(sql, &[]).is_ok());
    assert!(service.governor_stats().is_consistent());
}

/// A statement's own dynamic error says nothing of the backend: twice the
/// breaker's threshold of divisions by zero, each a typed `Evaluation`
/// error, leave it closed, and a good statement after them runs.
#[test]
fn a_statements_own_dynamic_errors_do_not_trip_the_breaker() {
    const THRESHOLD: u32 = 3;
    let service = QueryService::new(server(Scale::small(), 5), Default::default()).with_governor(
        GovernorConfig {
            breaker: BreakerConfig {
                failure_threshold: THRESHOLD,
                open_duration: Duration::from_secs(60),
            },
            ..GovernorConfig::default()
        },
    );
    for _ in 0..2 * THRESHOLD {
        let r = service.execute("SELECT CUSTOMERID / 0 FROM CUSTOMERS", &[]);
        assert!(
            matches!(&r, Err(DriverError::Evaluation(m)) if m.contains("division by zero")),
            "expected a division-by-zero Evaluation error, got {r:?}"
        );
    }
    let stats = service.governor_stats();
    assert_eq!(stats.breaker_state, BreakerState::Closed);
    assert_eq!(stats.breaker_trips, 0);
    let good = service.execute("SELECT CUSTOMERID FROM CUSTOMERS ORDER BY CUSTOMERID", &[]);
    assert!(good.is_ok(), "{good:?}");
}

/// Satellite 3: 8 threads of mixed good/pathological statements against
/// a tightly governed service — the governor and cache counters must sum
/// consistently whatever the interleaving, and every shed statement must
/// have surfaced as `Overloaded`.
#[test]
fn stats_account_consistently_under_8_thread_overload() {
    const THREADS: usize = 8;
    const ITERATIONS: usize = 20;
    let service = QueryService::new(server(Scale::small(), 7), Default::default()).with_governor(
        GovernorConfig {
            max_concurrency: 2,
            queue_timeout: Duration::from_micros(200),
            max_statement_bytes: 512,
            ..GovernorConfig::default()
        },
    );
    let oversized = format!("SELECT CUSTOMERID FROM CUSTOMERS{}", " ".repeat(600));

    let per_worker: Vec<(usize, usize, usize)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|worker| {
                let service = &service;
                let oversized = &oversized;
                scope.spawn(move || {
                    let (mut ok, mut typed, mut oversize_sent) = (0usize, 0usize, 0usize);
                    for turn in 0..ITERATIONS {
                        let r = if (worker + turn) % 5 == 4 {
                            oversize_sent += 1;
                            service.execute(oversized, &[])
                        } else {
                            let v = SqlValue::Int((turn % 9 + 1) as i64);
                            service.execute(
                                "SELECT CUSTOMERID, CUSTOMERNAME FROM CUSTOMERS \
                                 WHERE CUSTOMERID > ? ORDER BY CUSTOMERID",
                                &[v],
                            )
                        };
                        match r {
                            Ok(_) => ok += 1,
                            Err(DriverError::Overloaded(_) | DriverError::BudgetExceeded(_)) => {
                                typed += 1
                            }
                            Err(e) => panic!("out-of-taxonomy error under overload: {e}"),
                        }
                    }
                    (ok, typed, oversize_sent)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });

    let submitted: usize = THREADS * ITERATIONS;
    let ok: usize = per_worker.iter().map(|(a, _, _)| a).sum();
    let typed: usize = per_worker.iter().map(|(_, b, _)| b).sum();
    let oversize_sent: usize = per_worker.iter().map(|(_, _, c)| c).sum();
    assert_eq!(ok + typed, submitted, "an execution was dropped");

    let stats = service.governor_stats();
    assert!(stats.is_consistent(), "identity violated: {stats:#?}");
    assert_eq!(stats.submitted as usize, submitted);
    assert_eq!(stats.statement_rejections as usize, oversize_sent);
    assert_eq!(
        stats.admitted as usize,
        ok + typed - stats.rejected() as usize
    );
    // Every admitted statement took exactly one plan-cache lookup.
    let cache = service.cache_stats();
    assert_eq!(
        (cache.hits() + cache.misses + cache.fallbacks) as usize,
        stats.admitted as usize
    );
}

/// The overload mix (`workload::overload`: good templates, deep nesting,
/// fuel-starved cartesians, oversized texts, cancelled budgets — 8
/// threads against admission capacity 2) against a service configured as
/// the production lane, fault-free and under a 20 % fault plan: the
/// governance invariant is a property of the configuration that ships,
/// not only of the all-defaults one the scenario's unit tests run.
#[test]
fn overload_mix_holds_under_the_production_lane() {
    for fault_rate in [0.0, 0.2] {
        let mut config = OverloadConfig::new(41, 8);
        config.iterations_per_thread = 16;
        config.fault_rate = fault_rate;
        config.lane = Lane::production(Transport::DelimitedText, common::engine(config.scale));
        let report = run_overload(&config);
        assert!(
            report.invariant_holds(),
            "fault rate {fault_rate}: violations {:#?}\ngovernor {:#?}",
            report.violations,
            report.governor
        );
        assert_eq!(report.executions, 8 * 16);
        assert!(report.passed > 0, "no good query survived admission");
        assert!(report.cache.hits() > 0, "the plan cache never hit");
    }
}

/// The five `join_report` statements with an indexable build side, and how
/// many they ask for.
const INDEXED_SHAPES: [(&str, u64, &str); 5] = [
    (
        "inner_join",
        1,
        "SELECT CUSTOMERS.CUSTOMERNAME, ORDERS.AMOUNT FROM CUSTOMERS \
         INNER JOIN ORDERS ON CUSTOMERS.CUSTOMERID = ORDERS.CUSTID",
    ),
    (
        "join_residual",
        1,
        "SELECT CUSTOMERS.CUSTOMERNAME, ORDERS.AMOUNT FROM CUSTOMERS \
         INNER JOIN ORDERS ON CUSTOMERS.CUSTOMERID = ORDERS.CUSTID \
         WHERE ORDERS.AMOUNT > 100",
    ),
    (
        "three_way_join",
        2,
        "SELECT CUSTOMERS.CUSTOMERID, ORDERS.ORDERID, PAYMENTS.PAYMENT \
         FROM CUSTOMERS INNER JOIN ORDERS ON CUSTOMERS.CUSTOMERID = ORDERS.CUSTID \
         INNER JOIN PAYMENTS ON CUSTOMERS.CUSTOMERID = PAYMENTS.CUSTID \
         WHERE ORDERS.ORDERID < 100",
    ),
    (
        "grouped_join",
        1,
        "SELECT CUSTOMERS.CUSTOMERID, COUNT(ORDERS.ORDERID), SUM(ORDERS.AMOUNT) \
         FROM CUSTOMERS INNER JOIN ORDERS ON CUSTOMERS.CUSTOMERID = ORDERS.CUSTID \
         GROUP BY CUSTOMERS.CUSTOMERID ORDER BY CUSTOMERS.CUSTOMERID",
    ),
    (
        "outer_join",
        1,
        "SELECT CUSTOMERS.CUSTOMERID, PAYMENTS.PAYMENT FROM CUSTOMERS \
         LEFT OUTER JOIN PAYMENTS ON CUSTOMERS.CUSTOMERID = PAYMENTS.CUSTID",
    ),
];

/// A budget bounds a statement's logical work, so it cannot depend on who
/// ran before it: on the production lane, the execution that builds a join
/// index and the one that finds it spend the same fuel to the unit, a limit
/// one unit below that fails both, and so does a server's very first
/// execution on another server.
#[test]
fn a_statement_is_charged_for_its_join_index_whoever_built_it() {
    let scale = Scale::small();
    let lane = Lane::production(Transport::DelimitedText, common::engine(scale));
    for (class, asks, sql) in INDEXED_SHAPES {
        let service = lane.service(server(scale, 5));
        let run = |service: &QueryService, budget: QueryBudget| {
            let outcome = service.execute_with_budget(sql, &[], Some(&budget));
            (outcome.map(|rs| rs.rows().to_vec()), budget)
        };
        let (built_rows, building) = run(&service, QueryBudget::unlimited());
        let (found_rows, reusing) = run(&service, QueryBudget::unlimited());
        assert_eq!(building.index_counts(), (asks, 0), "{class}");
        assert_eq!(reusing.index_counts(), (0, asks), "{class}");
        assert_eq!(built_rows.unwrap(), found_rows.unwrap(), "{class}");
        let fuel = building.fuel_consumed();
        assert_eq!(
            reusing.fuel_consumed(),
            fuel,
            "{class}: a found index is free"
        );

        let starved = || QueryBudget::unlimited().with_fuel(fuel - 1);
        let elsewhere = lane.service(server(scale, 5));
        for (service, what) in [(&service, "reusing"), (&elsewhere, "building")] {
            match run(service, starved()).0 {
                Err(DriverError::BudgetExceeded(m)) if m.contains("fuel exhausted") => {}
                other => panic!("{class}, {what}: one unit short must fail, got {other:?}"),
            }
        }
        let (_, exact) = run(&elsewhere, QueryBudget::unlimited().with_fuel(fuel));
        assert_eq!(
            exact.fuel_consumed(),
            fuel,
            "{class}: the exact limit passes"
        );
    }
}

/// The end-to-end benchmark's two grouped `join_report` statements, each
/// with the statement that counts its `$inter` rows.
const GROUPED_SHAPES: [(&str, &str, &str); 2] = [
    (
        "grouped_join",
        "SELECT CUSTOMERS.CUSTOMERID, COUNT(ORDERS.ORDERID), SUM(ORDERS.AMOUNT) \
         FROM CUSTOMERS INNER JOIN ORDERS ON CUSTOMERS.CUSTOMERID = ORDERS.CUSTID \
         GROUP BY CUSTOMERS.CUSTOMERID ORDER BY CUSTOMERS.CUSTOMERID",
        "SELECT COUNT(*) FROM CUSTOMERS INNER JOIN ORDERS \
         ON CUSTOMERS.CUSTOMERID = ORDERS.CUSTID",
    ),
    (
        "group_having",
        "SELECT CUSTID, COUNT(*) AS N, SUM(PAYMENT) AS TOTAL FROM PAYMENTS \
         GROUP BY CUSTID HAVING COUNT(*) >= 2",
        "SELECT COUNT(*) FROM PAYMENTS",
    ),
];

/// A grouped statement's budget is its logical work under the aggregate
/// too: on the production lane it costs no more fuel than on the
/// interpreter, the fuel it spent passes and one unit less fails, and a row
/// cap one below its `$inter` rows fails it on both lanes.
#[test]
fn a_grouped_statement_is_charged_its_fuel_and_capped_at_its_rows() {
    let scale = Scale::small();
    let production = Lane::production(Transport::DelimitedText, common::engine(scale));
    for (class, sql, inter) in GROUPED_SHAPES {
        let service = production.service(server(scale, 5));
        let naive = Lane::plain(Transport::DelimitedText).service(server(scale, 5));
        let run = |service: &QueryService, budget: QueryBudget| {
            let outcome = service.execute_with_budget(sql, &[], Some(&budget));
            (outcome.map(|rs| rs.rows().to_vec()), budget)
        };
        let (rows, meter) = run(&service, QueryBudget::unlimited());
        let (naive_rows, naive_meter) = run(&naive, QueryBudget::unlimited());
        assert_eq!(rows.unwrap().len(), naive_rows.unwrap().len(), "{class}");
        assert_eq!(
            meter.lowering_counts(Lowering::Aggregate),
            (1, 0, 0),
            "{class}"
        );
        let fuel = meter.fuel_consumed();
        assert!(fuel < naive_meter.fuel_consumed(), "{class}");
        let (_, exact) = run(&service, QueryBudget::unlimited().with_fuel(fuel));
        assert_eq!(
            exact.fuel_consumed(),
            fuel,
            "{class}: the exact limit passes"
        );
        match run(&service, QueryBudget::unlimited().with_fuel(fuel - 1)).0 {
            Err(DriverError::BudgetExceeded(m)) if m.contains("fuel exhausted") => {}
            other => panic!("{class}: one unit short must fail, got {other:?}"),
        }
        let counted = naive.execute(inter, &[]).unwrap();
        let SqlValue::Int(inter_rows) = counted.rows()[0][0] else {
            panic!("{class}: no count");
        };
        let cap = inter_rows as u64 - 1;
        for (lane, service) in [("production", &service), ("interpreter", &naive)] {
            match run(service, QueryBudget::unlimited().with_row_cap(cap)).0 {
                Err(DriverError::BudgetExceeded(m)) if m.contains("row cap exceeded") => {}
                other => panic!("{class}, {lane}: a cap of {cap} must fail, got {other:?}"),
            }
        }
    }
}

/// The statements of the end-to-end benchmark's `warm_point`,
/// `reload_churn` and `bulk_export` workloads — point lookups by key and
/// full scans — have no hash operator, no group, no sort and no set
/// operation: the production lane asks for no join index on any of them and
/// asks no operator to run a whole FLWOR, so none can move those workloads.
#[test]
fn point_lookups_and_exports_ask_for_no_join_index() {
    let scale = Scale::small();
    let lane = Lane::production(Transport::DelimitedText, common::engine(scale));
    let service = lane.service(server(scale, 5));
    let by_key = [SqlValue::Int(3)];
    for (sql, params) in [
        (
            "SELECT CUSTOMERID, CUSTOMERNAME, REGION FROM CUSTOMERS WHERE CUSTOMERID = ?",
            &by_key[..],
        ),
        (
            "SELECT ORDERID, AMOUNT, STATUS FROM ORDERS WHERE CUSTID = ?",
            &by_key[..],
        ),
        (
            "SELECT PAYMENTID, PAYMENT, METHOD FROM PAYMENTS WHERE CUSTID = ?",
            &by_key[..],
        ),
        (
            "SELECT CUSTOMERID, CUSTOMERNAME, CREDIT FROM CUSTOMERS WHERE CUSTOMERID = 3",
            &[][..],
        ),
        (
            "SELECT CUSTOMERID, CUSTOMERNAME, REGION, CREDIT, SIGNUP FROM CUSTOMERS",
            &[][..],
        ),
        (
            "SELECT ORDERID, CUSTID, AMOUNT, STATUS FROM ORDERS",
            &[][..],
        ),
    ] {
        for _ in 0..2 {
            let meter = QueryBudget::unlimited();
            service
                .execute_with_budget(sql, params, Some(&meter))
                .unwrap_or_else(|e| panic!("`{sql}`: {e}"));
            assert_eq!(meter.index_counts(), (0, 0), "`{sql}`");
            for kind in [Lowering::Aggregate, Lowering::Sort, Lowering::Set] {
                assert_eq!(meter.lowering_counts(kind), (0, 0, 0), "{kind:?}: `{sql}`");
            }
        }
    }
}
