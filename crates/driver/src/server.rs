//! The simulated AquaLogic DSP server.
//!
//! Holds the application's artifacts (catalog) and the physical data
//! (relational tables), exposes data-service functions to the XQuery
//! engine as sequences of flat row elements (paper Example 1), compiles
//! and executes query text, and ships results across a simulated
//! client/server boundary — as serialized XML or as the §4 delimited text.

use crate::fault::FaultInjector;
use crate::DriverError;
use aldsp_catalog::{
    shared_locator, Application, DataServiceFunction, FunctionKind, SharedLocator, TableLocator,
};
use aldsp_governor::{ExecStrategy, QueryBudget};
pub use aldsp_relational::sql_value_to_sequence;
use aldsp_relational::Database;
use aldsp_xml::{Item, Sequence};
use aldsp_xquery::{
    evaluate_program, evaluate_program_exec, evaluate_program_to_payload, parse_program,
    FunctionSource, JoinTable, Program, XqError,
};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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
/// The catalog and the data are one *snapshot*, which a statement takes
/// once and answers every `call` from — a logical body's nested calls too —
/// so no statement joins two epochs' rows. A change ([`DspServer::reload`],
/// [`DspServer::mutate_database`]) builds the next snapshot and swaps it
/// in; what was materialized of the old one dies with it. Every change
/// bumps a *metadata epoch* that open connections observe through the
/// shared locator's metadata API, and that executions carry so the server
/// can reject translations prepared against an older catalog
/// ([`DriverError::StaleMetadata`]) instead of running them against
/// changed metadata — checked against the snapshot the statement runs on.
pub struct DspServer {
    /// Shared with every connection's metadata API, so catalog reloads
    /// are visible without reopening connections.
    locator: SharedLocator,
    /// The current snapshot's epoch, for the connections' metadata API.
    epoch: Arc<AtomicU64>,
    /// The catalog and data every statement starting now runs on.
    snapshot: RwLock<Arc<Snapshot>>,
    /// [`ServerStats`], one counter per field: bumped on every query and
    /// every data-service call, so they must not serialize the workers.
    queries: AtomicU64,
    function_calls: AtomicU64,
    bytes_shipped: AtomicU64,
    /// Optional fault injector exercising the driver boundary.
    fault: RwLock<Option<Arc<FaultInjector>>>,
}

/// One epoch of the server: its catalog, its data, and the function
/// results materialized from them. Never changed but for the memo, which
/// only ever grows.
struct Snapshot {
    epoch: u64,
    application: Arc<Application>,
    database: Database,
    /// Each function's first materialization in this snapshot, keyed by
    /// its name: every later call of it is handed the same elements.
    materialized: RwLock<HashMap<String, Materialized>>,
}

/// One function's rows as every `call` of its snapshot hands them out,
/// and the join indexes over them by the child that keys a row
/// ([`FunctionSource::join_index`]) — the stand-in for the relational
/// source's own index on `ORDERS.CUSTID`. An index lives in the entry it
/// was built from and dies with its snapshot, and there are at most as
/// many as the catalog has columns, so nothing is ever evicted.
struct Materialized {
    rows: Sequence,
    indexes: HashMap<String, Arc<JoinTable>>,
}

impl Snapshot {
    fn new(epoch: u64, application: Arc<Application>, database: Database) -> Arc<Snapshot> {
        let materialized = RwLock::new(HashMap::new());
        Arc::new(Snapshot {
            epoch,
            application,
            database,
            materialized,
        })
    }
}

impl DspServer {
    /// Creates a server for an application with its physical data.
    pub fn new(application: Application, database: Database) -> DspServer {
        DspServer {
            locator: shared_locator(TableLocator::for_application(&application)),
            epoch: Arc::new(AtomicU64::new(0)),
            snapshot: RwLock::new(Snapshot::new(0, Arc::new(application), database)),
            queries: AtomicU64::new(0),
            function_calls: AtomicU64::new(0),
            bytes_shipped: AtomicU64::new(0),
            fault: RwLock::new(None),
        }
    }

    /// The snapshot a statement starting now runs on.
    fn snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&self.snapshot.read())
    }

    /// Swaps in the next epoch's snapshot, whose catalog and data `next`
    /// makes from the current one's. Writers take turns, so none builds
    /// on a snapshot another has already replaced.
    fn advance(&self, next: impl FnOnce(&Snapshot) -> (Arc<Application>, Database)) {
        let mut current = self.snapshot.write();
        let (application, database) = next(&current);
        let epoch = current.epoch + 1;
        *current = Snapshot::new(epoch, application, database);
        self.epoch.store(epoch, Ordering::Release);
    }

    /// The application's artifacts.
    pub fn application(&self) -> Arc<Application> {
        Arc::clone(&self.snapshot().application)
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

    /// Mutates the backing database through a shared handle (the driver
    /// holds servers in `Arc`). Counts as a metadata/data change: the
    /// epoch moves, and statements from now on see the new data with
    /// nothing materialized. `f` changes a copy that shares every table
    /// but the ones it writes.
    pub fn mutate_database(&self, f: impl FnOnce(&mut Database)) {
        self.advance(|current| {
            let mut database = current.database.clone();
            f(&mut database);
            (Arc::clone(&current.application), database)
        });
    }

    /// Replaces the application and its data wholesale — a catalog
    /// redeployment. The shared locator is rebuilt in place, so open
    /// connections resolve against the new catalog, and the epoch bump
    /// makes their caches and prepared translations detectably stale.
    pub fn reload(&self, application: Application, database: Database) {
        *self.locator.write() = TableLocator::for_application(&application);
        self.advance(|_| (Arc::new(application), database));
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

    /// The backing database: a copy sharing the current snapshot's tables.
    pub fn database(&self) -> Database {
        self.snapshot().database.clone()
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
        self.compile_and(xquery, None, |program, reader| {
            evaluate_program_exec(program, reader, params, budget, strategy)
        })
    }

    /// One execution on one snapshot: the epoch check, the fault hook,
    /// compilation, the query count, then `evaluate` through the
    /// statement's [`Reader`], with its errors mapped onto the driver's.
    fn compile_and<T>(
        &self,
        xquery: &str,
        client_epoch: Option<u64>,
        evaluate: impl FnOnce(&Program, &Reader<'_>) -> Result<T, XqError>,
    ) -> Result<T, DriverError> {
        let snapshot = self.snapshot();
        if let Some(client_epoch) = client_epoch.filter(|&epoch| epoch != snapshot.epoch) {
            return Err(DriverError::StaleMetadata {
                client_epoch,
                server_epoch: snapshot.epoch,
            });
        }
        if let Some(injector) = self.fault_injector() {
            injector.on_execute()?;
        }
        let program = parse_program(xquery)
            .map_err(|e| DriverError::Execution(format!("XQuery compilation failed: {e}")))?;
        self.queries.fetch_add(1, Ordering::Relaxed);
        evaluate(&program, &Reader::new(self, &snapshot)).map_err(|e| match e.budget_error() {
            Some(b) => DriverError::from_budget(b),
            None => DriverError::Evaluation(e.message),
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
    /// When `client_epoch` is given and differs from the epoch of the
    /// snapshot the statement would run on, the query is rejected with
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
        let mut payload = self.compile_and(xquery, client_epoch, |program, reader| {
            evaluate_program_to_payload(program, reader, params, budget, strategy)
        })?;
        if let Some(injector) = self.fault_injector() {
            payload = injector.on_transport(payload)?;
        }
        self.bytes_shipped
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        Ok(payload)
    }
}

/// Outside a statement: each call is a statement of its own on the
/// current snapshot. `join_index` is the trait's default — build, keep
/// nothing — because a caller here cannot show that the rows it holds are
/// a snapshot's.
impl FunctionSource for DspServer {
    fn call(
        &self,
        namespace: Option<&str>,
        local: &str,
        args: &[Sequence],
    ) -> Result<Sequence, XqError> {
        Reader::new(self, &self.snapshot()).call(namespace, local, args)
    }
}

/// A statement's function source: every `call` answered from one
/// snapshot, a logical body's nested calls included.
struct Reader<'a> {
    server: &'a DspServer,
    snapshot: &'a Snapshot,
    /// The logical services whose bodies this source is evaluating,
    /// outermost first: a call of one of them is a cycle.
    calling: Vec<String>,
}

impl<'a> Reader<'a> {
    fn new(server: &'a DspServer, snapshot: &'a Snapshot) -> Reader<'a> {
        Reader {
            server,
            snapshot,
            calling: Vec::new(),
        }
    }

    /// The function's rows: the snapshot's materialization of it, made
    /// here on the first call. Two statements that miss together both
    /// build, and both are handed the rows stored first.
    fn rows(&self, name: &str) -> Result<Sequence, XqError> {
        if let Some(cached) = self.snapshot.materialized.read().get(name) {
            return Ok(cached.rows.clone());
        }
        // Logical data services execute their XQuery body, which calls
        // lower-level data-service functions (paper §3.1: "The body of
        // each data service function for a logical data service is an
        // XQuery written in terms of one or more lower-level data service
        // function calls").
        let rows = match self.function(name).map(|f| &f.kind) {
            // A logical function calling itself (directly or through a
            // cycle) must fail, not recurse forever.
            Some(FunctionKind::Logical { .. }) if self.calling.iter().any(|c| c == name) => {
                return Err(XqError::new(format!(
                    "cyclic logical data service definition involving {name}"
                )))
            }
            Some(FunctionKind::Logical { body }) => {
                let program = parse_program(body).map_err(|e| {
                    XqError::new(format!("logical service {name} failed to compile: {e}"))
                })?;
                let mut inner = Reader::new(self.server, self.snapshot);
                inner.calling = self.calling.clone();
                inner.calling.push(name.to_string());
                evaluate_program(&program, &inner)?
            }
            _ => {
                let table = self.snapshot.database.table(name).ok_or_else(|| {
                    XqError::new(format!("no data behind data-service function {name}"))
                })?;
                table.row_elements()
            }
        };
        let mut materialized = self.snapshot.materialized.write();
        let fresh = Materialized {
            rows,
            indexes: HashMap::new(),
        };
        let kept = materialized.entry(name.to_string()).or_insert(fresh);
        Ok(kept.rows.clone())
    }

    fn function(&self, name: &str) -> Option<&DataServiceFunction> {
        let functions = self.snapshot.application.functions();
        functions.map(|(_, _, f)| f).find(|f| f.name == name)
    }
}

impl FunctionSource for Reader<'_> {
    fn call(
        &self,
        _namespace: Option<&str>,
        local: &str,
        args: &[Sequence],
    ) -> Result<Sequence, XqError> {
        self.server.function_calls.fetch_add(1, Ordering::Relaxed);
        let rows = self.rows(local)?;
        if args.is_empty() {
            return Ok(rows);
        }
        // Functions with parameters (SQL stored procedures, Figure 2
        // (iii)): parameters filter by the function's declared parameter
        // names, matched against row columns.
        let unknown = || XqError::new(format!("unknown data-service function {local}"));
        let function = self.function(local).ok_or_else(unknown)?;
        if args.len() != function.parameters.len() {
            return Err(XqError::new(format!(
                "{local} expects {} argument(s), got {}",
                function.parameters.len(),
                args.len()
            )));
        }
        // Each parameter's wanted text, once per call: an argument that is
        // no singleton (NULL) wants a row without the column.
        let wanted: Vec<Option<String>> = args
            .iter()
            .map(|arg| arg.as_singleton().map(Item::string_value))
            .collect();
        let mut filtered = Sequence::empty();
        'rows: for item in rows.iter() {
            let Some(element) = item.as_element_ref() else {
                continue;
            };
            for ((param_name, _), wanted) in function.parameters.iter().zip(&wanted) {
                let value = element
                    .children_named(param_name)
                    .next()
                    .map(|e| e.string_value());
                if value != *wanted {
                    continue 'rows;
                }
            }
            filtered.push(item.clone());
        }
        Ok(filtered)
    }

    /// Kept in the function's entry of the snapshot. The rows a request
    /// holds are that entry's by construction — every call of the
    /// statement was answered from this snapshot, which hands out its
    /// first materialization only — so the index is served without
    /// looking at them. No lock is held while `build` runs, so statements
    /// that miss together all build.
    fn join_index(
        &self,
        local: &str,
        child: &str,
        _rows: &Sequence,
        build: &dyn Fn() -> Result<Arc<JoinTable>, XqError>,
    ) -> Result<Arc<JoinTable>, XqError> {
        let materialized = &self.snapshot.materialized;
        let kept = |of: &Materialized| of.indexes.get(child).cloned();
        if let Some(index) = materialized.read().get(local).and_then(kept) {
            return Ok(index);
        }
        let index = build()?;
        if let Some(of) = materialized.write().get_mut(local) {
            of.indexes.insert(child.to_string(), Arc::clone(&index));
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
            .physical_procedure(
                "T_BY_NAME",
                vec![("NAME".into(), SqlColumnType::Varchar)],
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
        // The procedures share the same backing table.
        for procedure in ["T_BY_ID", "T_BY_NAME"] {
            let mut rows = db.table("T").unwrap().clone();
            rows.schema.table_name = procedure.into();
            db.add_table(rows);
        }
        DspServer::new(app, db)
    }

    #[test]
    fn functions_return_flat_rows_with_absent_nulls() {
        let s = server();
        let rows = s.call(None, "T", &[]).unwrap();
        assert_eq!(rows.len(), 2);
        let second = rows.items()[1].as_element_ref().unwrap();
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
        use aldsp_xml::Atomic;
        let s = server();
        // The IDs of the rows `procedure(arg)` returns.
        let ids = |procedure: &str, arg: Sequence| -> Vec<String> {
            let rows = s.call(None, procedure, &[arg]).unwrap();
            let id = |row: &Item| {
                let row = row.as_element_ref().unwrap();
                row.children_named("ID").next().map(|id| id.to_node())
            };
            rows.iter()
                .map(|row| id(row).unwrap().string_value())
                .collect()
        };
        assert_eq!(
            ids("T_BY_ID", Sequence::singleton(Atomic::Integer(2))),
            ["2"]
        );
        assert!(ids("T_BY_ID", Sequence::singleton(Atomic::Integer(9))).is_empty());
        assert_eq!(
            ids("T_BY_NAME", Sequence::singleton(Atomic::String("a".into()))),
            ["1"]
        );
        assert!(ids(
            "T_BY_NAME",
            Sequence::singleton(Atomic::String("zz".into()))
        )
        .is_empty());
        // A NULL argument matches the row whose column is NULL, and a
        // prefix of a value is no match.
        assert_eq!(ids("T_BY_NAME", Sequence::empty()), ["2"]);
        assert!(ids("T_BY_NAME", Sequence::singleton(Atomic::String("".into()))).is_empty());
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
        let first = rows.items()[0].as_element_ref().unwrap();
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
        // A statement that took its snapshot before a write materializes
        // T after it: the old data's rows stay with the old snapshot.
        let s = server();
        let before = s.snapshot();
        s.mutate_database(|db| {
            db.table_mut("T")
                .unwrap()
                .insert(vec![SqlValue::Int(3), SqlValue::Str("c".into())])
        });
        let stale = Reader::new(&s, &before).call(None, "T", &[]).unwrap();
        assert_eq!(stale.len(), 2);
        assert!(
            s.snapshot().materialized.read().is_empty(),
            "rows of the old data were cached at the new epoch"
        );
        assert_eq!(s.call(None, "T", &[]).unwrap().len(), 3);
        // Rows built at the current epoch do get cached.
        assert_eq!(s.snapshot().materialized.read().len(), 1);
    }

    #[test]
    fn materialization_cache_reused() {
        let s = server();
        s.call(None, "T", &[]).unwrap();
        s.call(None, "T", &[]).unwrap();
        assert_eq!(s.stats().function_calls, 2);
        assert_eq!(s.snapshot().materialized.read().len(), 1);
    }

    /// `server_with_logical`'s data with one more row of T, `ID` 4.
    fn written(db: &mut Database) {
        let row = vec![SqlValue::Int(4), SqlValue::Str("d".into())];
        db.table_mut("T").unwrap().insert(row);
    }

    #[test]
    fn one_statement_reads_one_snapshot() {
        for change in ["a write", "a reload"] {
            let s = server_with_logical();
            let land = |s: &DspServer| match change {
                "a write" => s.mutate_database(written),
                _ => {
                    let mut database = s.database();
                    written(&mut database);
                    s.reload((*s.application()).clone(), database)
                }
            };
            let snapshot = s.snapshot();
            // One statement calls T before the change; another has made
            // no call yet, so BIG_T's body reads T only after it.
            let (called, idle) = (Reader::new(&s, &snapshot), Reader::new(&s, &snapshot));
            assert_eq!(called.call(None, "T", &[]).unwrap().len(), 3, "{change}");
            land(&s);
            for statement in [&called, &idle] {
                assert_eq!(statement.call(None, "T", &[]).unwrap().len(), 3, "{change}");
                assert_eq!(
                    statement.call(None, "BIG_T", &[]).unwrap().len(),
                    2,
                    "{change}"
                );
            }
            // A statement that starts now sees the change.
            assert_eq!(s.call(None, "T", &[]).unwrap().len(), 4, "{change}");
            assert_eq!(s.call(None, "BIG_T", &[]).unwrap().len(), 3, "{change}");
        }
    }

    #[test]
    fn concurrent_first_materializations_share_one() {
        // Eight statements on one snapshot call a logical service at once:
        // none is taken for a cycle of another's, and all are handed the
        // elements of the one materialization the snapshot kept.
        const STATEMENTS: usize = 8;
        let s = server_with_logical();
        let snapshot = s.snapshot();
        let start = std::sync::Barrier::new(STATEMENTS);
        let answers: Vec<Sequence> = std::thread::scope(|scope| {
            let statements: Vec<_> = (0..STATEMENTS)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        Reader::new(&s, &snapshot).call(None, "BIG_T", &[])
                    })
                })
                .collect();
            let answers = statements.into_iter().map(|t| t.join().unwrap());
            answers.collect::<Result<_, _>>().unwrap()
        });
        // A logical service's rows are constructed elements.
        let element = |item: &aldsp_xml::Item| match item {
            aldsp_xml::Item::Node(aldsp_xml::Node::Element(e)) => Arc::clone(e),
            other => panic!("not a constructed element: {other:?}"),
        };
        let first: Vec<_> = answers[0].iter().map(element).collect();
        assert_eq!(first.len(), 2);
        for answer in &answers {
            let rows: Vec<_> = answer.iter().map(element).collect();
            assert_eq!(rows.len(), first.len());
            assert!(rows.iter().zip(&first).all(|(a, b)| Arc::ptr_eq(a, b)));
        }
    }
}
