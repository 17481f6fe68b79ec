//! Multi-threaded `QueryService` integration tests: M threads replaying
//! K parameterized templates must produce rows byte-identical to a
//! single-threaded, uncached oracle connection — the acceptance bar for
//! the concurrent plan-cache subsystem.

use aldsp_core::TranslationOptions;
use aldsp_driver::{Connection, DspServer, QueryService};
use aldsp_relational::SqlValue;
use aldsp_workload::{build_application, populate_database, Scale};
use std::sync::Arc;

const THREADS: usize = 8;
const ITERATIONS: usize = 12;

/// The template mix: `?`-parameterized statements plus one that bakes
/// the value in as a literal (distinct texts, one normalized plan).
fn statement(template: usize, turn: i64) -> (String, Vec<SqlValue>) {
    let v = turn % 9 + 1;
    match template % 4 {
        0 => (
            "SELECT CUSTOMERID, CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID > ? \
             ORDER BY CUSTOMERID"
                .to_string(),
            vec![SqlValue::Int(v)],
        ),
        1 => (
            "SELECT ORDERID, AMOUNT FROM ORDERS WHERE CUSTID = ? ORDER BY ORDERID".to_string(),
            vec![SqlValue::Int(v)],
        ),
        2 => (
            "SELECT CUSTOMERS.CUSTOMERNAME, ORDERS.AMOUNT FROM CUSTOMERS \
             INNER JOIN ORDERS ON CUSTOMERS.CUSTOMERID = ORDERS.CUSTID \
             WHERE ORDERS.CUSTID = ? ORDER BY CUSTOMERS.CUSTOMERNAME, ORDERS.AMOUNT"
                .to_string(),
            vec![SqlValue::Int(v)],
        ),
        _ => (
            format!("SELECT CUSTOMERID FROM CUSTOMERS WHERE CUSTOMERID > {v} ORDER BY CUSTOMERID"),
            Vec::new(),
        ),
    }
}

#[test]
fn threaded_service_is_byte_identical_to_single_threaded_oracle() {
    let app = build_application();
    let db = populate_database(&app, Scale::small(), 17);
    let server = Arc::new(DspServer::new(app, db));

    // The oracle: one plain connection, no plan cache, executed serially
    // before any service thread starts.
    let oracle_conn = Connection::open(Arc::clone(&server));
    let mut oracle: Vec<Vec<Vec<Vec<SqlValue>>>> = Vec::new();
    for worker in 0..THREADS {
        let mut per_worker = Vec::new();
        for turn in 0..ITERATIONS {
            let (sql, params) = statement(worker + turn, (worker + turn) as i64);
            let rs = oracle_conn.execute_cached(&sql, &params).unwrap();
            per_worker.push(rs.rows().to_vec());
        }
        oracle.push(per_worker);
    }

    let service = QueryService::new(Arc::clone(&server), TranslationOptions::default());
    std::thread::scope(|scope| {
        for (worker, expected) in oracle.iter().enumerate() {
            let service = &service;
            scope.spawn(move || {
                for (turn, expected_rows) in expected.iter().enumerate() {
                    let (sql, params) = statement(worker + turn, (worker + turn) as i64);
                    let rs = service.execute(&sql, &params).unwrap();
                    assert_eq!(
                        rs.rows(),
                        expected_rows.as_slice(),
                        "worker {worker} turn {turn}: `{sql}` diverged from the \
                         single-threaded oracle"
                    );
                }
            });
        }
    });

    assert_eq!(service.executions(), (THREADS * ITERATIONS) as u64);
    let stats = service.cache_stats();
    assert!(
        stats.hits() > 0,
        "threads never reused each other's plans: {stats:#?}"
    );
    // Four distinct templates; everything beyond the first translation
    // of each is shared work.
    assert!(
        stats.misses <= 8,
        "plan sharing collapsed — every thread translated for itself: {stats:#?}"
    );
    // One connection, hence one metadata cache, for all eight clients:
    // the templates name two tables, and each was fetched from the server
    // once — not once per client.
    let metadata = service.connection().translator().metadata().stats();
    assert_eq!(
        metadata.misses, 2,
        "CUSTOMERS and ORDERS must each be fetched exactly once per epoch: {metadata:#?}"
    );
}

/// Eight threads share one `&Connection` directly — no service, no pool —
/// while the catalog is redeployed under them. Every result must match
/// the single-threaded oracle, and the connection's recovery counter must
/// not lose an update.
///
/// Stale rejections are counted from outside the connection. A prepared
/// statement carries its translation, so each one prepared before the
/// reload is rejected exactly once after it, and its translation's epoch
/// moves exactly then. A cached execution can only be rejected when the
/// epoch moved while it ran; those few are the slack in the upper bound.
#[test]
fn shared_connection_survives_a_racing_reload_without_losing_recoveries() {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Barrier;

    const PREPARED: usize = 3;

    let app = build_application();
    let db = populate_database(&app, Scale::small(), 17);
    let server = Arc::new(DspServer::new(app, db));

    // oracle[template][turn % 9], executed serially and uncached.
    let oracle_conn = Connection::open(Arc::clone(&server));
    let oracle: Vec<Vec<Vec<Vec<SqlValue>>>> = (0..4)
        .map(|template| {
            (0..9)
                .map(|turn| {
                    let (sql, params) = statement(template, turn);
                    oracle_conn
                        .execute_cached(&sql, &params)
                        .unwrap()
                        .rows()
                        .to_vec()
                })
                .collect()
        })
        .collect();

    let conn = Connection::open_with_cache(
        Arc::clone(&server),
        TranslationOptions::default(),
        Arc::new(aldsp_plancache::PlanCache::default()),
    );
    let all_prepared = Barrier::new(THREADS + 1);
    let progress = AtomicUsize::new(0);
    let reloaded = AtomicBool::new(false);
    let epoch_moves = AtomicUsize::new(0);
    let straddlers = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for worker in 0..THREADS {
            let (conn, server, oracle) = (&conn, &server, &oracle);
            let (all_prepared, progress, reloaded) = (&all_prepared, &progress, &reloaded);
            let (epoch_moves, straddlers) = (&epoch_moves, &straddlers);
            scope.spawn(move || {
                let mut prepared: Vec<_> = (0..PREPARED)
                    .map(|template| conn.prepare(&statement(template, 0).0).unwrap())
                    .collect();
                all_prepared.wait();

                let mut run_prepared = |template: usize, turn: usize| {
                    let ps = &mut prepared[template];
                    let (sql, params) = statement(template, turn as i64);
                    ps.set(1, params[0].clone()).unwrap();
                    let before = ps.translation().metadata_epoch;
                    let rs = ps.execute_query().unwrap();
                    if ps.translation().metadata_epoch != before {
                        epoch_moves.fetch_add(1, Ordering::Relaxed);
                    }
                    assert_eq!(
                        rs.rows(),
                        oracle[template][turn % 9].as_slice(),
                        "worker {worker} turn {turn}: prepared `{sql}` diverged"
                    );
                };

                let mut turn = worker;
                while turn < worker + ITERATIONS || !reloaded.load(Ordering::Acquire) {
                    let (sql, params) = statement(turn, turn as i64);
                    let before = server.epoch();
                    let rs = conn.execute_cached(&sql, &params).unwrap();
                    if server.epoch() != before {
                        straddlers.fetch_add(1, Ordering::Relaxed);
                    }
                    assert_eq!(
                        rs.rows(),
                        oracle[turn % 4][turn % 9].as_slice(),
                        "worker {worker} turn {turn}: cached `{sql}` diverged"
                    );
                    run_prepared(turn % PREPARED, turn);
                    progress.fetch_add(1, Ordering::Relaxed);
                    turn += 1;
                }
                // Whatever the interleaving was, every prepared statement
                // has now run at least once on the new catalog.
                for template in 0..PREPARED {
                    run_prepared(template, turn);
                }
            });
        }

        all_prepared.wait();
        while progress.load(Ordering::Relaxed) < THREADS * ITERATIONS / 3 {
            std::thread::yield_now();
        }
        // The same catalog and rows again: the oracle stays valid, the
        // epoch moves, and everything translated before is stale.
        let app = build_application();
        let db = populate_database(&app, Scale::small(), 17);
        server.reload(app, db);
        reloaded.store(true, Ordering::Release);
    });

    let observed = epoch_moves.load(Ordering::Relaxed) as u64;
    assert_eq!(
        observed,
        (THREADS * PREPARED) as u64,
        "each prepared statement is rejected as stale exactly once"
    );
    let retranslations = conn.retry_stats().retranslations;
    let slack = straddlers.load(Ordering::Relaxed) as u64;
    assert!(
        (observed..=observed + slack).contains(&retranslations),
        "{retranslations} retranslations counted for {observed} stale rejections observed \
         (+ at most {slack} in cached executions that straddled the reload)"
    );
}

#[test]
fn service_surfaces_translation_errors_without_poisoning_the_cache() {
    let app = build_application();
    let db = populate_database(&app, Scale::small(), 17);
    let server = Arc::new(DspServer::new(app, db));
    let service = QueryService::new(server, TranslationOptions::default());

    assert!(service.execute("SELECT NOPE FROM NOWHERE", &[]).is_err());
    let rs = service
        .execute("SELECT CUSTOMERID FROM CUSTOMERS ORDER BY CUSTOMERID", &[])
        .unwrap();
    assert!(!rs.rows().is_empty());
    // The failed statement cached nothing.
    let (exact, plans) = service.cache().len();
    assert_eq!((exact, plans), (1, 1));
}
