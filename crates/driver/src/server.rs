//! The simulated AquaLogic DSP server.
//!
//! Holds the application's artifacts (catalog) and the physical data
//! (relational tables), exposes data-service functions to the XQuery
//! engine as sequences of flat row elements (paper Example 1), compiles
//! and executes query text, and ships results across a simulated
//! client/server boundary — as serialized XML or as the §4 delimited text.

use crate::fault::FaultInjector;
use crate::DriverError;
use aldsp_catalog::{shared_locator, Application, SharedLocator, TableLocator};
use aldsp_governor::{ExecStrategy, QueryBudget};
pub use aldsp_relational::sql_value_to_sequence;
use aldsp_relational::Database;
use aldsp_xml::{Item, Sequence};
use aldsp_xquery::{
    evaluate_program, evaluate_program_exec, evaluate_program_to_payload, parse_program,
    FunctionSource, JoinTable, Program, XqError,
};
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::ThreadId;

/// A read guard over the server's application artifacts.
pub type ApplicationRef<'a> = std::sync::RwLockReadGuard<'a, Application>;

/// A read guard over the server's backing database.
pub type DatabaseRef<'a> = std::sync::RwLockReadGuard<'a, Database>;

/// Execution statistics (bytes shipped, calls made) for the E1/E4
/// experiments.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerStats {
    /// Queries executed.
    pub queries: u64,
    /// Data-service function invocations.
    pub function_calls: u64,
    /// Bytes of result payload shipped to the client.
    pub bytes_shipped: u64,
}

/// The server: artifacts + data + an XQuery engine.
///
/// The catalog side is mutable at runtime ([`DspServer::reload`],
/// [`DspServer::mutate_database`]); every change bumps a *metadata epoch*
/// that open connections observe through the shared locator's metadata
/// API, and that executions carry so the server can reject translations
/// prepared against an older catalog ([`DriverError::StaleMetadata`])
/// instead of running them against changed metadata.
pub struct DspServer {
    /// Shared with every connection's metadata API, so catalog reloads
    /// are visible without reopening connections.
    locator: SharedLocator,
    /// The metadata generation; bumped on every catalog/data change.
    epoch: Arc<AtomicU64>,
    database: RwLock<Database>,
    application: RwLock<Application>,
    /// Materialized function results, keyed by function name, each with
    /// the join indexes built over it.
    materialized: RwLock<HashMap<String, Materialized>>,
    /// Logical functions currently being evaluated, tracked per thread
    /// (cycle detection must not trip when two threads evaluate the same
    /// logical service concurrently).
    logical_in_flight: Mutex<HashMap<ThreadId, HashSet<String>>>,
    /// [`ServerStats`], one counter per field: bumped on every query and
    /// every data-service call, so they must not serialize the workers.
    queries: AtomicU64,
    function_calls: AtomicU64,
    bytes_shipped: AtomicU64,
    /// Optional fault injector exercising the driver boundary.
    fault: RwLock<Option<Arc<FaultInjector>>>,
}

/// One function's rows as every `call` hands them out until the next
/// write, and the join indexes over them by the child that keys a row
/// ([`FunctionSource::join_index`]) — the stand-in for the relational
/// source's own index on `ORDERS.CUSTID`. An index lives in the entry it
/// was built from and dies with it, and there are at most as many as the
/// catalog has columns, so nothing is ever evicted.
struct Materialized {
    rows: Sequence,
    indexes: HashMap<String, Arc<JoinTable>>,
}

impl Materialized {
    /// Whether `rows` are these rows: element for element the same
    /// allocation, not merely equal — what a kept index may be served for.
    fn holds(&self, rows: &Sequence) -> bool {
        let same = |(mine, theirs): (&Item, &Item)| match (mine.as_element(), theirs.as_element()) {
            (Some(mine), Some(theirs)) => Arc::ptr_eq(mine, theirs),
            _ => false,
        };
        self.rows.len() == rows.len() && self.rows.iter().zip(rows.iter()).all(same)
    }
}

impl DspServer {
    /// Creates a server for an application with its physical data.
    pub fn new(application: Application, database: Database) -> DspServer {
        DspServer {
            locator: shared_locator(TableLocator::for_application(&application)),
            epoch: Arc::new(AtomicU64::new(0)),
            database: RwLock::new(database),
            application: RwLock::new(application),
            materialized: RwLock::new(HashMap::new()),
            logical_in_flight: Mutex::new(HashMap::new()),
            queries: AtomicU64::new(0),
            function_calls: AtomicU64::new(0),
            bytes_shipped: AtomicU64::new(0),
            fault: RwLock::new(None),
        }
    }

    /// The application's artifacts.
    pub fn application(&self) -> ApplicationRef<'_> {
        self.application.read()
    }

    /// The table locator handle (shared with the driver's metadata API).
    pub fn locator(&self) -> &SharedLocator {
        &self.locator
    }

    /// The current metadata epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The epoch counter handle (shared with the driver's metadata API).
    pub fn epoch_handle(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.epoch)
    }

    fn bump_epoch(&self) {
        self.epoch.fetch_add(1, Ordering::AcqRel);
        self.materialized.write().clear();
    }

    /// Mutates the backing database through a shared handle (the driver
    /// holds servers in `Arc`). Counts as a metadata/data change:
    /// materialized results are dropped and the epoch moves.
    pub fn mutate_database(&self, f: impl FnOnce(&mut Database)) {
        f(&mut self.database.write());
        self.bump_epoch();
    }

    /// Replaces the application and its data wholesale — a catalog
    /// redeployment. The shared locator is rebuilt in place, so open
    /// connections resolve against the new catalog, and the epoch bump
    /// makes their caches and prepared translations detectably stale.
    pub fn reload(&self, application: Application, database: Database) {
        *self.locator.write() = TableLocator::for_application(&application);
        *self.application.write() = application;
        *self.database.write() = database;
        self.bump_epoch();
    }

    /// Installs (or, with `None`, removes) a fault injector on the
    /// simulated boundary. Connections opened on this server also route
    /// their metadata fetches through it.
    pub fn install_fault_injector(&self, injector: Option<Arc<FaultInjector>>) {
        *self.fault.write() = injector;
    }

    /// The installed fault injector, if any.
    pub fn fault_injector(&self) -> Option<Arc<FaultInjector>> {
        self.fault.read().clone()
    }

    /// The backing database (read access).
    pub fn database(&self) -> DatabaseRef<'_> {
        self.database.read()
    }

    /// Statistics so far.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            queries: self.queries.load(Ordering::Relaxed),
            function_calls: self.function_calls.load(Ordering::Relaxed),
            bytes_shipped: self.bytes_shipped.load(Ordering::Relaxed),
        }
    }

    /// Resets statistics (benchmark warm-up).
    pub fn reset_stats(&self) {
        self.queries.store(0, Ordering::Relaxed);
        self.function_calls.store(0, Ordering::Relaxed);
        self.bytes_shipped.store(0, Ordering::Relaxed);
    }

    /// Compiles and runs XQuery text with external variable bindings,
    /// returning the raw result sequence (server side).
    ///
    /// Under a [`QueryBudget`] the evaluator charges fuel per expression
    /// and enforces the row cap and deadline mid-evaluation, so a runaway
    /// query stops inside the engine instead of after it. Under
    /// [`ExecStrategy::HashJoin`] the engine streams recognized
    /// join-shaped FLWORs through hash-join operators instead of
    /// materializing cross products; results are identical either way.
    pub fn execute_governed_with(
        &self,
        xquery: &str,
        params: &[(String, Sequence)],
        budget: Option<&QueryBudget>,
        strategy: ExecStrategy,
    ) -> Result<Sequence, DriverError> {
        self.compile_and(xquery, |program| {
            evaluate_program_exec(program, self, params, budget, strategy)
        })
    }

    /// One execution: the fault hook, compilation, the query count, then
    /// `evaluate` with its errors mapped onto the driver's.
    fn compile_and<T>(
        &self,
        xquery: &str,
        evaluate: impl FnOnce(&Program) -> Result<T, XqError>,
    ) -> Result<T, DriverError> {
        if let Some(injector) = self.fault_injector() {
            injector.on_execute()?;
        }
        let program = parse_program(xquery)
            .map_err(|e| DriverError::Execution(format!("XQuery compilation failed: {e}")))?;
        self.queries.fetch_add(1, Ordering::Relaxed);
        evaluate(&program).map_err(|e| match e.budget_error() {
            Some(b) => DriverError::from_budget(b),
            None => DriverError::Execution(e.message),
        })
    }

    /// Executes and ships the result as serialized text (either the XML
    /// serialization of the result sequence, or — for §4 wrapper queries —
    /// the single joined string). Returns the payload exactly as it would
    /// cross the client/server boundary; the engine writes it
    /// ([`evaluate_program_to_payload`]), so under
    /// [`ExecStrategy::HashJoin`] a statement whose body has a sink's shape
    /// is serialized while it is evaluated.
    ///
    /// When `client_epoch` is given and differs from the server's current
    /// metadata epoch, the query is rejected with
    /// [`DriverError::StaleMetadata`] before evaluation — executing a
    /// translation against metadata it was not prepared for could
    /// otherwise return silently wrong rows. `budget` and `strategy` are
    /// those of [`DspServer::execute_governed_with`].
    pub fn execute_to_payload_governed_with(
        &self,
        xquery: &str,
        params: &[(String, Sequence)],
        client_epoch: Option<u64>,
        budget: Option<&QueryBudget>,
        strategy: ExecStrategy,
    ) -> Result<String, DriverError> {
        if let Some(client_epoch) = client_epoch {
            let server_epoch = self.epoch();
            if client_epoch != server_epoch {
                return Err(DriverError::StaleMetadata {
                    client_epoch,
                    server_epoch,
                });
            }
        }
        let mut payload = self.compile_and(xquery, |program| {
            evaluate_program_to_payload(program, self, params, budget, strategy)
        })?;
        if let Some(injector) = self.fault_injector() {
            payload = injector.on_transport(payload)?;
        }
        self.bytes_shipped
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        Ok(payload)
    }

    fn rows_for_function(&self, name: &str) -> Result<Sequence, XqError> {
        // Read before any data is: the rows built below are at least as
        // new as this epoch, so `store_materialized` can tell whether a
        // write has landed since.
        let epoch = self.epoch();
        if let Some(cached) = self.materialized.read().get(name) {
            return Ok(cached.rows.clone());
        }
        // Logical data services execute their XQuery body, which calls
        // lower-level data-service functions (paper §3.1: "The body of
        // each data service function for a logical data service is an
        // XQuery written in terms of one or more lower-level data service
        // function calls").
        let logical_body = {
            let application = self.application.read();
            let body = application.functions().find_map(|(_, _, f)| {
                if f.name == name {
                    match &f.kind {
                        aldsp_catalog::FunctionKind::Logical { body } => Some(body.clone()),
                        aldsp_catalog::FunctionKind::Physical => None,
                    }
                } else {
                    None
                }
            });
            body
        };
        let rows = match logical_body {
            Some(body) => {
                // Re-entrancy guard: a logical function calling itself
                // (directly or through a cycle) must fail, not recurse
                // forever.
                {
                    let mut in_flight = self.logical_in_flight.lock();
                    let mine = in_flight.entry(std::thread::current().id()).or_default();
                    if !mine.insert(name.to_string()) {
                        return Err(XqError::new(format!(
                            "cyclic logical data service definition involving {name}"
                        )));
                    }
                }
                let result = (|| {
                    let program = aldsp_xquery::parse_program(&body).map_err(|e| {
                        XqError::new(format!("logical service {name} failed to compile: {e}"))
                    })?;
                    evaluate_program(&program, self)
                })();
                {
                    let mut in_flight = self.logical_in_flight.lock();
                    let id = std::thread::current().id();
                    if let Some(mine) = in_flight.get_mut(&id) {
                        mine.remove(name);
                        if mine.is_empty() {
                            in_flight.remove(&id);
                        }
                    }
                }
                result?
            }
            None => {
                let database = self.database.read();
                let table = database.table(name).ok_or_else(|| {
                    XqError::new(format!("no data behind data-service function {name}"))
                })?;
                table.row_elements()
            }
        };
        self.store_materialized(name, &rows, epoch);
        Ok(rows)
    }

    /// Caches `rows`, built from data read at `epoch` or later — unless
    /// the epoch has moved since. `bump_epoch` moves the epoch first and
    /// clears the map second, so a check under the map's write lock
    /// either sees the new epoch (and keeps the stale rows out) or runs
    /// before the clear (which then drops them).
    fn store_materialized(&self, name: &str, rows: &Sequence, epoch: u64) {
        let mut materialized = self.materialized.write();
        if self.epoch() == epoch {
            let fresh = Materialized {
                rows: rows.clone(),
                indexes: HashMap::new(),
            };
            materialized.insert(name.to_string(), fresh);
        }
    }
}

impl FunctionSource for DspServer {
    fn call(
        &self,
        _namespace: Option<&str>,
        local: &str,
        args: &[Sequence],
    ) -> Result<Sequence, XqError> {
        self.function_calls.fetch_add(1, Ordering::Relaxed);
        let rows = self.rows_for_function(local)?;
        if args.is_empty() {
            return Ok(rows);
        }
        // Functions with parameters (SQL stored procedures, Figure 2
        // (iii)): parameters filter by the function's declared parameter
        // names, matched against row columns.
        let application = self.application.read();
        let function = application
            .functions()
            .map(|(_, _, f)| f)
            .find(|f| f.name == local)
            .ok_or_else(|| XqError::new(format!("unknown data-service function {local}")))?;
        if args.len() != function.parameters.len() {
            return Err(XqError::new(format!(
                "{local} expects {} argument(s), got {}",
                function.parameters.len(),
                args.len()
            )));
        }
        let mut filtered = Sequence::empty();
        'rows: for item in rows.iter() {
            let Some(element) = item.as_element() else {
                continue;
            };
            for ((param_name, _), arg) in function.parameters.iter().zip(args) {
                let value = element
                    .children_named(param_name)
                    .next()
                    .map(|e| e.string_value());
                let wanted = arg.as_singleton().map(|i| i.string_value());
                if value != wanted {
                    continue 'rows;
                }
            }
            filtered.push(item.clone());
        }
        Ok(filtered)
    }

    /// Kept in the function's `materialized` entry, and only ever for the
    /// rows of that entry: a request holding other rows — an epoch's, or a
    /// racing materialization's, that the entry no longer has — builds and
    /// keeps nothing. No lock is held while `build` runs, so statements
    /// that miss together all build.
    fn join_index(
        &self,
        local: &str,
        child: &str,
        rows: &Sequence,
        build: &dyn Fn() -> Result<Arc<JoinTable>, XqError>,
    ) -> Result<Arc<JoinTable>, XqError> {
        if let Some(of) = self.materialized.read().get(local) {
            if let Some(index) = of.indexes.get(child).filter(|_| of.holds(rows)) {
                return Ok(Arc::clone(index));
            }
        }
        let index = build()?;
        if let Some(of) = self.materialized.write().get_mut(local) {
            if of.holds(rows) {
                of.indexes.insert(child.to_string(), Arc::clone(&index));
            }
        }
        Ok(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aldsp_catalog::{ApplicationBuilder, SqlColumnType};
    use aldsp_relational::{SqlValue, Table};

    fn server() -> DspServer {
        let app = ApplicationBuilder::new("APP")
            .project("P")
            .data_service("T")
            .physical_table("T", |t| {
                t.column("ID", SqlColumnType::Integer, false).column(
                    "NAME",
                    SqlColumnType::Varchar,
                    true,
                )
            })
            .physical_procedure(
                "T_BY_ID",
                vec![("ID".into(), SqlColumnType::Integer)],
                |t| {
                    t.row_element("T")
                        .column("ID", SqlColumnType::Integer, false)
                        .column("NAME", SqlColumnType::Varchar, true)
                },
            )
            .finish_service()
            .finish_project()
            .build();
        let mut db = Database::new();
        let schema = app.projects[0].data_services[0].functions[0].schema.clone();
        let mut table = Table::new(schema);
        table.insert(vec![SqlValue::Int(1), SqlValue::Str("a".into())]);
        table.insert(vec![SqlValue::Int(2), SqlValue::Null]);
        db.add_table(table);
        // The procedure shares the same backing table.
        let mut by_id = db.table("T").unwrap().clone();
        by_id.schema.table_name = "T_BY_ID".into();
        db.add_table(by_id);
        DspServer::new(app, db)
    }

    #[test]
    fn functions_return_flat_rows_with_absent_nulls() {
        let s = server();
        let rows = s.call(None, "T", &[]).unwrap();
        assert_eq!(rows.len(), 2);
        let second = rows.items()[1].as_element().unwrap();
        assert!(second.children_named("NAME").next().is_none());
    }

    #[test]
    fn execute_runs_queries_over_functions() {
        let s = server();
        let out = s
            .execute_governed_with(
                "import schema namespace ns0 = \"ld:P/T\" at \"ld:P/schemas/T.xsd\";\n\
                 for $t in ns0:T() where $t/ID = 2 return <R>{fn:data($t/ID)}</R>",
                &[],
                None,
                ExecStrategy::default(),
            )
            .unwrap();
        assert_eq!(aldsp_xml::serialize_sequence(&out), "<R>2</R>");
        assert_eq!(s.stats().queries, 1);
        assert_eq!(s.stats().function_calls, 1);
    }

    #[test]
    fn external_variables_bind() {
        let s = server();
        let out = s
            .execute_governed_with(
                "import schema namespace ns0 = \"ld:P/T\" at \"ld:P/schemas/T.xsd\";\n\
                 for $t in ns0:T() where $t/ID = $sqlParam1 return <R>{fn:data($t/ID)}</R>",
                &[(
                    "sqlParam1".to_string(),
                    sql_value_to_sequence(&SqlValue::Int(1)),
                )],
                None,
                ExecStrategy::default(),
            )
            .unwrap();
        assert_eq!(aldsp_xml::serialize_sequence(&out), "<R>1</R>");
    }

    #[test]
    fn procedures_filter_by_parameters() {
        let s = server();
        let rows = s
            .call(
                None,
                "T_BY_ID",
                &[Sequence::singleton(aldsp_xml::Atomic::Integer(2))],
            )
            .unwrap();
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn payload_counts_bytes() {
        let s = server();
        let payload = s
            .execute_to_payload_governed_with(
                "import schema namespace ns0 = \"ld:P/T\" at \"ld:P/schemas/T.xsd\";\n\
                 <RECORDSET>{ for $t in ns0:T() return <RECORD><ID>{fn:data($t/ID)}</ID></RECORD> }</RECORDSET>",
                &[],
                None,
                None,
                ExecStrategy::default(),
            )
            .unwrap();
        assert!(payload.starts_with("<RECORDSET>"));
        assert_eq!(s.stats().bytes_shipped, payload.len() as u64);
    }

    fn server_with_logical() -> DspServer {
        // A logical service projecting/filtering the physical one — the
        // paper's layered data-service architecture (§2).
        let app = ApplicationBuilder::new("APP")
            .project("P")
            .data_service("T")
            .physical_table("T", |t| {
                t.column("ID", SqlColumnType::Integer, false).column(
                    "NAME",
                    SqlColumnType::Varchar,
                    true,
                )
            })
            .finish_service()
            .data_service("BIG_T")
            .logical_table(
                "BIG_T",
                "import schema namespace src = \"ld:P/T\" at \"ld:P/schemas/T.xsd\";\n\
                 for $t in src:T() where $t/ID > 1 return \
                 <BIG_T><ID>{fn:data($t/ID)}</ID>\
                 { for $n in fn:data($t/NAME) return <NAME>{$n}</NAME> }</BIG_T>",
                |t| {
                    t.column("ID", SqlColumnType::Integer, false).column(
                        "NAME",
                        SqlColumnType::Varchar,
                        true,
                    )
                },
            )
            .finish_service()
            .finish_project()
            .build();
        let mut db = Database::new();
        let schema = app.projects[0].data_services[0].functions[0].schema.clone();
        let mut table = Table::new(schema);
        table.insert(vec![SqlValue::Int(1), SqlValue::Str("a".into())]);
        table.insert(vec![SqlValue::Int(2), SqlValue::Null]);
        table.insert(vec![SqlValue::Int(3), SqlValue::Str("c".into())]);
        db.add_table(table);
        DspServer::new(app, db)
    }

    #[test]
    fn logical_service_evaluates_its_body() {
        let s = server_with_logical();
        let rows = s.call(None, "BIG_T", &[]).unwrap();
        assert_eq!(rows.len(), 2); // IDs 2 and 3
                                   // NULL NAME stays an absent element through the logical layer.
        let first = rows.items()[0].as_element().unwrap();
        assert!(first.children_named("NAME").next().is_none());
    }

    #[test]
    fn sql_queries_run_over_logical_services() {
        // The JDBC driver treats the logical function as just another
        // table (paper §2.3: "one can always define additional 'flat'
        // data service functions").
        let conn = crate::Connection::open(std::sync::Arc::new(server_with_logical()));
        let mut rs = conn
            .create_statement()
            .execute_query("SELECT ID, NAME FROM BIG_T WHERE NAME IS NOT NULL")
            .unwrap();
        assert_eq!(rs.row_count(), 1);
        rs.next();
        assert_eq!(rs.get_i64(1).unwrap(), 3);
        assert_eq!(rs.get_string(2).unwrap().as_deref(), Some("c"));
    }

    #[test]
    fn cyclic_logical_services_error_cleanly() {
        let app = ApplicationBuilder::new("APP")
            .project("P")
            .data_service("LOOP")
            .logical_table(
                "LOOP",
                "import schema namespace me = \"ld:P/LOOP\" at \"ld:P/schemas/LOOP.xsd\";\n\
                 for $x in me:LOOP() return $x",
                |t| t.column("ID", SqlColumnType::Integer, false),
            )
            .finish_service()
            .finish_project()
            .build();
        let s = DspServer::new(app, Database::new());
        let err = s.call(None, "LOOP", &[]).unwrap_err();
        assert!(err.message.contains("cyclic"), "{}", err.message);
    }

    #[test]
    fn rows_built_before_a_write_are_not_cached_after_it() {
        // The interleaving `rows_for_function` can lose: it reads the
        // epoch and builds T's rows, a write bumps the epoch and clears
        // the map, and only then does it reach the store.
        let s = server();
        let epoch = s.epoch();
        let stale = s.database().table("T").unwrap().row_elements();
        s.mutate_database(|db| {
            db.table_mut("T")
                .unwrap()
                .insert(vec![SqlValue::Int(3), SqlValue::Str("c".into())])
        });
        s.store_materialized("T", &stale, epoch);
        assert!(
            s.materialized.read().is_empty(),
            "rows of the old data were cached at the new epoch"
        );
        assert_eq!(s.call(None, "T", &[]).unwrap().len(), 3);
        // Rows built at the current epoch do get cached.
        assert_eq!(s.materialized.read().len(), 1);
    }

    #[test]
    fn materialization_cache_reused() {
        let s = server();
        s.call(None, "T", &[]).unwrap();
        s.call(None, "T", &[]).unwrap();
        assert_eq!(s.stats().function_calls, 2);
        assert_eq!(s.materialized.read().len(), 1);
    }
}
