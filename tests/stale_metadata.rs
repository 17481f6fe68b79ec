//! Stale-metadata degradation regression tests.
//!
//! The hole being regression-tested: `DspServer` catalog changes used to
//! leave open connections serving stale `CachedMetadataApi` entries and
//! executing translations prepared against the old catalog. Now every
//! catalog/data change bumps the server's metadata epoch; connections
//! observe it through the shared locator (cache auto-invalidation), and
//! the server rejects epoch-mismatched translations so the driver can
//! invalidate and retranslate — at most once — instead of returning
//! silently wrong rows.

use aldsp_catalog::builder::TableSchemaBuilder;
use aldsp_catalog::stats::CatalogStats;
use aldsp_catalog::{Application, ApplicationBuilder, MetadataApi, SqlColumnType};
use aldsp_core::{
    ExecStrategy, OptimizeLevel, OptimizeOutcome, PreparedQuery, QueryOptimizer, RewriteStep,
    TranslationOptions,
};
use aldsp_driver::{Connection, DriverError, DspServer};
use aldsp_governor::QueryBudget;
use aldsp_optimizer::Optimizer;
use aldsp_plancache::PlanCache;
use aldsp_relational::{execute_query, Database, Relation, SqlValue, Table};
use aldsp_sql::parse_select;
use aldsp_workload::{build_application, compare_results, populate_database, stats_for, Scale};
use aldsp_xml::Sequence;
use aldsp_xquery::{evaluate_program_exec, parse_program, FunctionSource, JoinTable, XqError};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

fn build_app(with_email: bool) -> Application {
    ApplicationBuilder::new("APP")
        .project("P")
        .data_service("CUSTOMERS")
        .physical_table("CUSTOMERS", |t| {
            let t = t.column("ID", SqlColumnType::Integer, false).column(
                "NAME",
                SqlColumnType::Varchar,
                true,
            );
            if with_email {
                t.column("EMAIL", SqlColumnType::Varchar, true)
            } else {
                t
            }
        })
        .finish_service()
        .finish_project()
        .build()
}

fn build_db(app: &Application, rows: &[(i64, &str)]) -> Database {
    let schema = app.projects[0].data_services[0].functions[0].schema.clone();
    let mut table = Table::new(schema);
    let width = table.schema.columns.len();
    for (id, name) in rows {
        let mut row = vec![SqlValue::Int(*id), SqlValue::Str((*name).into())];
        while row.len() < width {
            row.push(SqlValue::Null);
        }
        table.insert(row);
    }
    let mut db = Database::new();
    db.add_table(table);
    db
}

fn open(rows: &[(i64, &str)]) -> (Arc<DspServer>, Connection) {
    let app = build_app(false);
    let db = build_db(&app, rows);
    let server = Arc::new(DspServer::new(app, db));
    let conn = Connection::open(Arc::clone(&server));
    (server, conn)
}

#[test]
fn prepared_statement_survives_catalog_reload_via_one_retranslation() {
    let (server, conn) = open(&[(1, "Joe"), (2, "Sue")]);
    let ps = conn
        .prepare("SELECT ID, NAME FROM CUSTOMERS ORDER BY ID")
        .unwrap();
    let rs = ps.execute_query().unwrap();
    assert_eq!(rs.row_count(), 2);
    let epoch_before = ps.translation().metadata_epoch;

    // Catalog redeployment between two executions on one connection: the
    // schema grows a column and the data changes.
    let app2 = build_app(true);
    let db2 = build_db(&app2, &[(7, "Ada"), (8, "Bo"), (9, "Cy")]);
    server.reload(app2, db2);

    // The second execution's stored translation is stale; the driver
    // must recover through exactly one invalidate-and-retranslate.
    let mut rs = ps.execute_query().unwrap();
    assert_eq!(rs.row_count(), 3);
    rs.next();
    assert_eq!(rs.get_i64(1).unwrap(), 7);
    assert_eq!(rs.get_string(2).unwrap().as_deref(), Some("Ada"));
    assert_eq!(conn.retry_stats().retranslations, 1);
    assert!(ps.translation().metadata_epoch > epoch_before);

    // Steady state: the refreshed translation is kept, so a third
    // execution needs no further recovery.
    let rs = ps.execute_query().unwrap();
    assert_eq!(rs.row_count(), 3);
    assert_eq!(conn.retry_stats().retranslations, 1);
}

#[test]
fn open_connection_cache_invalidates_on_epoch_bump() {
    let (server, conn) = open(&[(1, "Joe")]);
    conn.create_statement()
        .execute_query("SELECT ID FROM CUSTOMERS")
        .unwrap();
    conn.create_statement()
        .execute_query("SELECT NAME FROM CUSTOMERS")
        .unwrap();
    // Steady state: one metadata round trip, served from cache after.
    assert_eq!(conn.translator().metadata().round_trips(), 1);

    // Reload with a wider schema. The old cached entry has no EMAIL
    // column; serving it would wrongly reject the next query.
    let app2 = build_app(true);
    let db2 = build_db(&app2, &[(1, "Joe")]);
    server.reload(app2, db2);

    let mut rs = conn
        .create_statement()
        .execute_query("SELECT EMAIL FROM CUSTOMERS")
        .unwrap();
    assert_eq!(rs.row_count(), 1);
    rs.next();
    assert_eq!(rs.get_string(1).unwrap(), None);
    assert_eq!(conn.translator().metadata().round_trips(), 2);
    assert!(conn.translator().metadata().stats().invalidations >= 1);
}

#[test]
fn data_mutation_through_shared_handle_is_visible_and_safe() {
    let (server, conn) = open(&[(1, "Joe")]);
    let ps = conn.prepare("SELECT COUNT(*) FROM CUSTOMERS").unwrap();
    let mut rs = ps.execute_query().unwrap();
    rs.next();
    assert_eq!(rs.get_i64(1).unwrap(), 1);

    // Mutate data in place (no schema change): the epoch still moves, so
    // the server drops materialized results and the prepared statement
    // retranslates rather than serving the old materialization.
    server.mutate_database(|db| {
        let table = db.table_mut("CUSTOMERS").unwrap();
        table.insert(vec![SqlValue::Int(2), SqlValue::Str("Sue".into())]);
    });

    let mut rs = ps.execute_query().unwrap();
    rs.next();
    assert_eq!(rs.get_i64(1).unwrap(), 2);
    assert_eq!(conn.retry_stats().retranslations, 1);
}

#[test]
fn cached_plans_are_invalidated_on_reload_never_served_stale() {
    let app = build_app(false);
    let db = build_db(&app, &[(1, "Joe"), (2, "Sue")]);
    let server = Arc::new(DspServer::new(app, db));
    let cache = Arc::new(PlanCache::default());
    let conn = Connection::open_with_cache(
        Arc::clone(&server),
        TranslationOptions::default(),
        Arc::clone(&cache),
    );

    // Fill the cache: two literal-differing statements share one
    // normalized plan.
    let rs = conn
        .execute_cached("SELECT ID, NAME FROM CUSTOMERS WHERE ID = 1", &[])
        .unwrap();
    assert_eq!(rs.row_count(), 1);
    let rs = conn
        .execute_cached("SELECT ID, NAME FROM CUSTOMERS WHERE ID = 2", &[])
        .unwrap();
    assert_eq!(rs.row_count(), 1);
    assert_eq!(cache.stats().normalized_hits, 1);

    // Catalog redeployment: wider schema, different rows. Every plan in
    // the cache now carries a stale epoch tag.
    let app2 = build_app(true);
    let db2 = build_db(&app2, &[(2, "Sue"), (3, "Ada")]);
    server.reload(app2, db2);

    // A literal-sharing sibling of the cached plan: the stale plan must
    // be invalidated and rebuilt, not served.
    let mut rs = conn
        .execute_cached("SELECT ID, NAME FROM CUSTOMERS WHERE ID = 3", &[])
        .unwrap();
    assert_eq!(rs.row_count(), 1);
    rs.next();
    assert_eq!(rs.get_i64(1).unwrap(), 3);
    assert_eq!(rs.get_string(2).unwrap().as_deref(), Some("Ada"));

    // The exact text cached before the reload: same story.
    let mut rs = conn
        .execute_cached("SELECT ID, NAME FROM CUSTOMERS WHERE ID = 2", &[])
        .unwrap();
    assert_eq!(rs.row_count(), 1);
    rs.next();
    assert_eq!(rs.get_string(2).unwrap().as_deref(), Some("Sue"));

    let stats = cache.stats();
    assert!(
        stats.epoch_invalidations >= 1,
        "reload never invalidated a cached plan: {stats:#?}"
    );

    // Steady state at the new epoch: the rebuilt plan is a normal hit.
    let hits_before = cache.stats().hits();
    conn.execute_cached("SELECT ID, NAME FROM CUSTOMERS WHERE ID = 3", &[])
        .unwrap();
    assert!(cache.stats().hits() > hits_before);
}

/// Optimized plans ride the same epoch protocol as naive ones: a reload
/// invalidates the cached optimized plan, and recovery retranslates and
/// re-optimizes exactly once — the stale optimized program is never
/// served, and steady-state cache hits never re-run the optimizer. The
/// production optimizer rewrites nothing, so the wrapper stamps each
/// outcome with a step naming its call, which the rebuilt plan must carry.
#[test]
fn optimized_plans_reoptimize_once_on_epoch_invalidation() {
    struct CountingOptimizer {
        inner: Optimizer,
        calls: AtomicUsize,
    }
    impl QueryOptimizer for CountingOptimizer {
        fn optimize(
            &self,
            prepared: &PreparedQuery,
            xquery: &str,
            options: TranslationOptions,
        ) -> OptimizeOutcome {
            let call = self.calls.fetch_add(1, Ordering::SeqCst) + 1;
            let mut outcome = self.inner.optimize(prepared, xquery, options);
            outcome.trace.steps.push(RewriteStep {
                rule: "count",
                lint: "",
                cost_before: 0.0,
                cost_after: 0.0,
                applied: true,
                note: format!("call {call}"),
            });
            outcome
        }
    }

    let app = build_app(false);
    let db = build_db(&app, &[(1, "Joe"), (2, "Sue")]);
    let server = Arc::new(DspServer::new(app, db));
    let cache = Arc::new(PlanCache::default());
    let stats = CatalogStats::new().table("CUSTOMERS", 2, |t| t.unique("ID"));
    let optimizer = Arc::new(CountingOptimizer {
        inner: Optimizer::new(stats).with_validation(true),
        calls: AtomicUsize::new(0),
    });
    let options = TranslationOptions::default().optimized(OptimizeLevel::Full);
    let mut conn = Connection::open_with_cache(Arc::clone(&server), options, Arc::clone(&cache));
    conn.set_optimizer(Some(
        Arc::clone(&optimizer) as Arc<dyn QueryOptimizer + Send + Sync>
    ));

    // Build once: the plan is optimized at build time, then hits reuse it
    // untouched.
    let sql = "SELECT A.ID FROM CUSTOMERS A INNER JOIN CUSTOMERS B ON A.ID = B.ID";
    assert_eq!(conn.execute_cached(sql, &[]).unwrap().row_count(), 2);
    assert_eq!(optimizer.calls.load(Ordering::SeqCst), 1);
    assert_eq!(conn.execute_cached(sql, &[]).unwrap().row_count(), 2);
    assert_eq!(
        optimizer.calls.load(Ordering::SeqCst),
        1,
        "cache hits must not re-optimize"
    );

    // Catalog redeployment: the cached optimized plan is stale. Recovery
    // must invalidate, retranslate and re-optimize — exactly once.
    let app2 = build_app(true);
    let db2 = build_db(&app2, &[(7, "Ada"), (8, "Bo"), (9, "Cy")]);
    server.reload(app2, db2);
    assert_eq!(conn.execute_cached(sql, &[]).unwrap().row_count(), 3);
    assert_eq!(
        optimizer.calls.load(Ordering::SeqCst),
        2,
        "recovery must re-optimize exactly once"
    );
    assert!(cache.stats().epoch_invalidations >= 1);

    // The rebuilt plan is served as a normal hit (no further optimizer
    // runs) and carries the trace of the call that rebuilt it.
    let (bound, _) = cache
        .plan_with(conn.translator(), sql, options, Some(&*optimizer))
        .unwrap();
    assert_eq!(optimizer.calls.load(Ordering::SeqCst), 2);
    let rewrite = bound
        .plan
        .rewrite
        .as_ref()
        .expect("rebuilt plan has a trace");
    assert!(
        rewrite
            .steps
            .iter()
            .any(|s| s.applied && s.note == "call 2"),
        "rebuilt plan lost its trace: {rewrite:?}"
    );
}

#[test]
fn connections_opened_after_reload_start_fresh() {
    let (server, _old) = open(&[(1, "Joe")]);
    let app2 = build_app(true);
    let db2 = build_db(&app2, &[(5, "Eve")]);
    server.reload(app2, db2);

    let conn = Connection::open(Arc::clone(&server));
    let mut rs = conn
        .create_statement()
        .execute_query("SELECT ID, EMAIL FROM CUSTOMERS")
        .unwrap();
    assert_eq!(rs.row_count(), 1);
    rs.next();
    assert_eq!(rs.get_i64(1).unwrap(), 5);
    assert_eq!(conn.retry_stats().retranslations, 0);
}

// ---------------------------------------------------------------------
// Join indexes: kept beside the materialized rows, for as long as they are
// ---------------------------------------------------------------------

/// The three `join_report` statements whose build side is a bare
/// data-service function keyed by one column: `ORDERS.CUSTID` twice (once
/// scanned where it is joined, once under a GROUP BY's view) and
/// `PAYMENTS.CUSTID` (the outer join's probe-let).
const INDEXED_JOINS: [&str; 3] = [
    "SELECT CUSTOMERS.CUSTOMERNAME, ORDERS.AMOUNT FROM CUSTOMERS \
     INNER JOIN ORDERS ON CUSTOMERS.CUSTOMERID = ORDERS.CUSTID",
    "SELECT CUSTOMERS.CUSTOMERID, COUNT(ORDERS.ORDERID), SUM(ORDERS.AMOUNT) \
     FROM CUSTOMERS INNER JOIN ORDERS ON CUSTOMERS.CUSTOMERID = ORDERS.CUSTID \
     GROUP BY CUSTOMERS.CUSTOMERID ORDER BY CUSTOMERS.CUSTOMERID",
    "SELECT CUSTOMERS.CUSTOMERID, PAYMENTS.PAYMENT FROM CUSTOMERS \
     LEFT OUTER JOIN PAYMENTS ON CUSTOMERS.CUSTOMERID = PAYMENTS.CUSTID",
];

/// `sql` on `conn`, checked against the oracle over `oracle`; answers the
/// execution's `(join indexes built, join indexes reused)`.
fn checked_join(conn: &Connection, oracle: &Database, sql: &str) -> (u64, u64) {
    let meter = QueryBudget::unlimited();
    let rs = conn
        .execute_cached_governed(sql, &[], Some(&meter))
        .unwrap_or_else(|e| panic!("`{sql}`: {e}"));
    let query = parse_select(sql).unwrap();
    let expected = execute_query(oracle, &query, &[]).unwrap();
    compare_results(rs.rows(), &expected, !query.order_by.is_empty())
        .unwrap_or_else(|reason| panic!("`{sql}`: {reason}"));
    meter.index_counts()
}

/// One pass over [`INDEXED_JOINS`]: `(built, reused)` summed.
fn indexed_joins_pass(conn: &Connection, oracle: &Database) -> (u64, u64) {
    INDEXED_JOINS.iter().fold((0, 0), |(built, reused), sql| {
        let counts = checked_join(conn, oracle, sql);
        (built + counts.0, reused + counts.1)
    })
}

/// The production configuration over the paper's universe, and the
/// oracle's copy of its data.
fn production_universe() -> (Arc<DspServer>, Connection, Database) {
    let scale = Scale::small();
    let app = build_application();
    let oracle = populate_database(&app, scale, 23);
    let server = Arc::new(DspServer::new(app, oracle.clone()));
    let options = TranslationOptions::default()
        .optimized(OptimizeLevel::Full)
        .with_exec(ExecStrategy::HashJoin);
    let mut conn =
        Connection::open_with_cache(Arc::clone(&server), options, Arc::new(PlanCache::default()));
    conn.set_optimizer(Some(Arc::new(
        Optimizer::new(stats_for(scale)).with_validation(true),
    )));
    (server, conn, oracle)
}

#[test]
fn a_join_index_is_built_once_per_epoch_and_never_outlives_its_rows() {
    let (server, conn, mut oracle) = production_universe();
    // (a) However often the joins run, each build side is keyed once.
    assert_eq!(indexed_joins_pass(&conn, &oracle), (2, 1));
    for _ in 0..4 {
        assert_eq!(indexed_joins_pass(&conn, &oracle), (0, 3));
    }

    // (b) A write drops the indexes with the rows they were built from: the
    // next join sees the new row, and keys its build side once more.
    let order = vec![
        SqlValue::Int(9_001),
        SqlValue::Int(1),
        SqlValue::Decimal(12.5),
        SqlValue::Str("OPEN".into()),
    ];
    oracle.table_mut("ORDERS").unwrap().insert(order.clone());
    server.mutate_database(|db| db.table_mut("ORDERS").unwrap().insert(order));
    assert_eq!(indexed_joins_pass(&conn, &oracle), (2, 1));
    assert_eq!(indexed_joins_pass(&conn, &oracle), (0, 3));

    // (c) So does a redeployment with other data behind the same catalog.
    let app = build_application();
    let oracle = populate_database(&app, Scale::small(), 29);
    server.reload(app, oracle.clone());
    assert_eq!(indexed_joins_pass(&conn, &oracle), (2, 1));
    assert_eq!(indexed_joins_pass(&conn, &oracle), (0, 3));
}

/// The server as a function source that inserts `order` as soon as it has
/// handed out `ORDERS`' rows for the first time: a write that lands between
/// a statement's call of the function and its join's first probe …
struct WriteAfterCall<'a> {
    server: &'a DspServer,
    order: Mutex<Option<Vec<SqlValue>>>,
}

impl FunctionSource for WriteAfterCall<'_> {
    fn call(
        &self,
        namespace: Option<&str>,
        local: &str,
        args: &[Sequence],
    ) -> Result<Sequence, XqError> {
        let rows = self.server.call(namespace, local, args)?;
        if local == "ORDERS" {
            if let Some(order) = self.order.lock().unwrap().take() {
                self.server
                    .mutate_database(|db| db.table_mut("ORDERS").unwrap().insert(order));
                // … and another statement has the new rows materialized
                // before this one asks for its index.
                self.server.call(namespace, local, args)?;
            }
        }
        Ok(rows)
    }

    fn join_index(
        &self,
        local: &str,
        child: &str,
        rows: &Sequence,
        build: &dyn Fn() -> Result<Arc<JoinTable>, XqError>,
    ) -> Result<Arc<JoinTable>, XqError> {
        self.server.join_index(local, child, rows, build)
    }
}

/// The table a statement builds over rows a write has since outdated is
/// the statement's own: it answers from the snapshot its `call` took, and
/// the server keeps nothing of it.
#[test]
fn a_write_between_a_call_and_its_join_leaves_no_index_behind() {
    let xquery = "for $c in ns0:CUSTOMERS() for $b in ns1:ORDERS() \
                  where $c/CUSTOMERID = $b/CUSTID return <R>{fn:data($b/ORDERID)}</R>";
    let (server, _, _) = production_universe();
    // On the server itself: the rows the join returns, and what it did
    // about its index.
    let on_server = || {
        let meter = QueryBudget::unlimited();
        let rows = server
            .execute_governed_with(xquery, &[], Some(&meter), ExecStrategy::HashJoin)
            .unwrap();
        (rows.len(), meter.index_counts())
    };
    let (before, built) = on_server();
    assert_eq!(built, (1, 0));
    assert_eq!(on_server(), (before, (0, 1)));

    let order = vec![
        SqlValue::Int(9_001),
        SqlValue::Int(1),
        SqlValue::Decimal(12.5),
        SqlValue::Str("OPEN".into()),
    ];
    let racing = WriteAfterCall {
        server: &server,
        order: Mutex::new(Some(order)),
    };
    let program = parse_program(xquery).unwrap();
    let meter = QueryBudget::unlimited();
    let rows = evaluate_program_exec(&program, &racing, &[], Some(&meter), ExecStrategy::HashJoin)
        .unwrap();
    assert_eq!(server.epoch(), 1, "the write landed mid-statement");
    assert_eq!(rows.len(), before, "a snapshot of its one call");
    assert_eq!(meter.index_counts(), (1, 0));

    // The next statement keys the new rows, the new order among them.
    assert_eq!(on_server(), (before + 1, (1, 0)));
    assert_eq!(on_server(), (before + 1, (0, 1)));
}

/// `C`, `O` and `P`, and the logical `BIG_O` — the orders of 10 and more —
/// whose body calls back into the server.
fn logical_join_app() -> Application {
    let keyed = |t: TableSchemaBuilder, id: &str, value: &str| {
        t.column(id, SqlColumnType::Integer, false)
            .column("CID", SqlColumnType::Integer, false)
            .column(value, SqlColumnType::Integer, false)
    };
    ApplicationBuilder::new("APP")
        .project("P")
        .data_service("C")
        .physical_table("C", |t| {
            t.column("ID", SqlColumnType::Integer, false).column(
                "NAME",
                SqlColumnType::Varchar,
                false,
            )
        })
        .finish_service()
        .data_service("O")
        .physical_table("O", |t| keyed(t, "OID", "AMT"))
        .finish_service()
        .data_service("BIG_O")
        .logical_table(
            "BIG_O",
            "import schema namespace src = \"ld:P/O\" at \"ld:P/schemas/O.xsd\";\n\
             for $o in src:O() where $o/AMT >= 10 return \
             <BIG_O><OID>{fn:data($o/OID)}</OID><CID>{fn:data($o/CID)}</CID>\
             <AMT>{fn:data($o/AMT)}</AMT></BIG_O>",
            |t| keyed(t, "OID", "AMT"),
        )
        .finish_service()
        .finish_project()
        .build()
}

/// The data of [`logical_join_app`] after the first `orders` of an endless
/// list of orders: what the server holds (`C`, `O`), plus — `for_oracle` —
/// `BIG_O` as the table the oracle reads it from.
fn logical_join_db(app: &Application, orders: i64, for_oracle: bool) -> Database {
    let schema_of = |name: &str| {
        let (_, _, function) = app.functions().find(|(_, _, f)| f.name == name).unwrap();
        function.schema.clone()
    };
    let mut customers = Table::new(schema_of("C"));
    for id in 1..=6 {
        customers.insert(vec![SqlValue::Int(id), SqlValue::Str(format!("c{id}"))]);
    }
    let mut all = Table::new(schema_of("O"));
    let mut big = Table::new(schema_of("BIG_O"));
    for n in 0..orders {
        // Customer 7 does not exist; every third order is a small one.
        let row = vec![
            SqlValue::Int(100 + n),
            SqlValue::Int(n % 7 + 1),
            SqlValue::Int(if n % 3 == 0 { 5 } else { 10 + n }),
        ];
        if n % 3 != 0 {
            big.insert(row.clone());
        }
        all.insert(row);
    }
    let mut db = Database::new();
    db.add_table(customers);
    db.add_table(all);
    if for_oracle {
        db.add_table(big);
    }
    db
}

/// (d) Eight readers run three joins — one of them over the logical
/// service, whose rows the server evaluates while the index over them is
/// being built — and a writer inserts an order whenever the readers have
/// answered a few more statements. Every answer is the oracle's at some
/// epoch the statement overlapped: an index never mixes two epochs' rows
/// and is never served after the write that outdated it has returned.
#[test]
fn join_indexes_stay_consistent_under_concurrent_writes() {
    const JOINS: [&str; 3] = [
        "SELECT C.NAME, O.AMT FROM C INNER JOIN O ON C.ID = O.CID",
        "SELECT C.ID, COUNT(O.OID) FROM C INNER JOIN O ON C.ID = O.CID \
         GROUP BY C.ID ORDER BY C.ID",
        "SELECT C.ID, BIG_O.AMT FROM C LEFT OUTER JOIN BIG_O ON C.ID = BIG_O.CID",
    ];
    const READERS: usize = 8;
    const WRITES: i64 = 24;
    const INITIAL: i64 = 12;

    let app = logical_join_app();
    // The oracle's answer to each join after `w` writes.
    let answers: Vec<Vec<Relation>> = (0..=WRITES)
        .map(|w| {
            let db = logical_join_db(&app, INITIAL + w, true);
            let answer = |sql: &&str| execute_query(&db, &parse_select(sql).unwrap(), &[]).unwrap();
            JOINS.iter().map(answer).collect()
        })
        .collect();
    let database = logical_join_db(&app, INITIAL, false);
    let server = Arc::new(DspServer::new(app.clone(), database));
    let conn = Connection::open_with_cache(
        Arc::clone(&server),
        TranslationOptions::default().with_exec(ExecStrategy::HashJoin),
        Arc::new(PlanCache::default()),
    );

    // Writes begun, writes whose `mutate_database` has returned, and
    // statements answered. A statement sees at least the writes that had
    // returned before it started …
    let begun = AtomicUsize::new(0);
    let returned = AtomicUsize::new(0);
    let answered = AtomicUsize::new(0);
    let reused = AtomicUsize::new(0);
    // The first wrong answer; it stops every thread, so that a failure is
    // a failed test and not a writer waiting for readers that are gone.
    let failure: Mutex<Option<String>> = Mutex::new(None);
    let failed = || failure.lock().unwrap().is_some();
    std::thread::scope(|scope| {
        for reader in 0..READERS {
            let (conn, answers, failure, failed) = (&conn, &answers, &failure, &failed);
            let (begun, returned, answered, reused) = (&begun, &returned, &answered, &reused);
            scope.spawn(move || {
                let mut n = reader;
                let writes = WRITES as usize;
                while !failed()
                    && (returned.load(Ordering::SeqCst) < writes || n < reader + JOINS.len())
                {
                    let (at, sql) = (n % JOINS.len(), JOINS[n % JOINS.len()]);
                    n += 1;
                    // … and at most those begun by the time it has its
                    // answer.
                    let done_before = returned.load(Ordering::SeqCst);
                    let meter = QueryBudget::unlimited();
                    let outcome = match conn.execute_cached_governed(sql, &[], Some(&meter)) {
                        // Two writes landed between one statement's plan
                        // and its execution: typed, and the caller's to
                        // send again.
                        Err(DriverError::StaleMetadata { .. }) => continue,
                        Err(e) => Err(e.to_string()),
                        Ok(rs) => {
                            let begun_after = begun.load(Ordering::SeqCst);
                            let ordered = sql.contains("ORDER BY");
                            let overlapped = &answers[done_before..=begun_after];
                            let agrees = |at_epoch: &Vec<Relation>| {
                                compare_results(rs.rows(), &at_epoch[at], ordered).is_ok()
                            };
                            overlapped.iter().any(agrees).then_some(()).ok_or(format!(
                                "{} rows match no epoch of {done_before}..={begun_after}",
                                rs.row_count()
                            ))
                        }
                    };
                    if let Err(reason) = outcome {
                        failure
                            .lock()
                            .unwrap()
                            .get_or_insert(format!("`{sql}`: {reason}"));
                        return;
                    }
                    reused.fetch_add(meter.index_counts().1 as usize, Ordering::Relaxed);
                    answered.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
        scope.spawn(|| {
            for w in 0..WRITES {
                // Paced by the readers' progress, not by the clock.
                let seen = answered.load(Ordering::SeqCst);
                while answered.load(Ordering::SeqCst) < seen + READERS {
                    if failed() {
                        return;
                    }
                    std::thread::yield_now();
                }
                let n = INITIAL + w;
                let order = vec![
                    SqlValue::Int(100 + n),
                    SqlValue::Int(n % 7 + 1),
                    SqlValue::Int(if n % 3 == 0 { 5 } else { 10 + n }),
                ];
                begun.fetch_add(1, Ordering::SeqCst);
                server.mutate_database(|db| db.table_mut("O").unwrap().insert(order));
                returned.fetch_add(1, Ordering::SeqCst);
            }
        });
    });
    assert_eq!(*failure.lock().unwrap(), None);
    assert_eq!(server.epoch(), WRITES as u64);
    assert!(
        reused.load(Ordering::Relaxed) > 0,
        "no statement found an index an earlier one had built"
    );
    // Quiescent again: the last epoch's indexes are built once and kept.
    let oracle = logical_join_db(&app, INITIAL + WRITES, true);
    let pass = || {
        JOINS.iter().fold((0, 0), |(built, kept), sql| {
            let counts = checked_join(&conn, &oracle, sql);
            (built + counts.0, kept + counts.1)
        })
    };
    pass();
    assert_eq!(pass(), (0, 3));
}
