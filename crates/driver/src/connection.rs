//! Connections and statements — the client-side API.
//!
//! A [`Connection`] owns a translator (with its local metadata cache,
//! paper §3.5) and a handle to the server. `Statement` executes SQL text
//! directly; `PreparedStatement` translates once and binds `?` parameters
//! per execution, the way reporting tools reuse parameterized queries.
//!
//! There is one statement path. Every execution — plain, prepared,
//! cached — obtains a plan (by translating, or from the shared plan
//! cache) and from there on is the same code: one routine binds the
//! parameters, ships the XQuery and decodes the payload, and one loop
//! runs it under the connection's [`RetryPolicy`]. Transient boundary
//! failures (dropped fetches, lost or corrupted payloads, timeouts — see
//! [`DriverError::is_transient`]) are retried with exponential backoff
//! inside the statement's deadline budget, and a stale-metadata rejection
//! by the server triggers at most one invalidate-and-retranslate before
//! the error surfaces.

use crate::fault::RetryPolicy;
use crate::resultset::ResultSet;
use crate::server::{sql_value_to_sequence, DspServer};
use crate::DriverError;
use aldsp_catalog::{CachedMetadataApi, InProcessMetadataApi, MetadataApi};
use aldsp_core::{
    sql_param_name, OutputColumn, QueryOptimizer, Translation, TranslationOptions, Translator,
    Transport,
};
use aldsp_governor::QueryBudget;
use aldsp_plancache::PlanCache;
use aldsp_relational::SqlValue;
use aldsp_xml::Sequence;
use parking_lot::Mutex;
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Recovery-action counters for one connection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Transient failures retried.
    pub retries: u64,
    /// Stale-metadata recoveries (cache invalidation + retranslation).
    pub retranslations: u64,
}

/// A client connection to a DSP application. `Send + Sync`: any number of
/// threads may execute statements through one shared `&Connection` (the
/// metadata cache and the plan cache synchronize internally, the recovery
/// counters are atomics); configuration (`set_*`) takes `&mut self`, so it
/// happens before the connection is shared.
pub struct Connection {
    server: Arc<DspServer>,
    translator: Translator<CachedMetadataApi<InProcessMetadataApi>>,
    options: TranslationOptions,
    plan_cache: Option<Arc<PlanCache>>,
    optimizer: Option<Arc<dyn QueryOptimizer + Send + Sync>>,
    retry: RetryPolicy,
    retries: AtomicU64,
    retranslations: AtomicU64,
}

/// Where a statement's executable plan comes from — the only thing the
/// cached and uncached statement paths disagree on.
enum PlanSource<'a> {
    /// Translate the SQL on demand. The slot keeps the translation across
    /// attempts — and, for a `PreparedStatement`, across executions.
    Translate(&'a mut Option<Translation>),
    /// Look the SQL up in (or build it into) the shared plan cache.
    Cache(&'a PlanCache),
}

impl Connection {
    /// Opens a connection with the default (delimited-text) transport.
    pub fn open(server: Arc<DspServer>) -> Connection {
        Connection::open_with(server, TranslationOptions::default(), Duration::ZERO)
    }

    /// Opens a connection that shares a translation plan cache with other
    /// connections (typically via a `QueryService`). The cached execute
    /// path is [`Connection::execute_cached`].
    pub fn open_with_cache(
        server: Arc<DspServer>,
        options: TranslationOptions,
        cache: Arc<PlanCache>,
    ) -> Connection {
        let mut connection = Connection::open_with(server, options, Duration::ZERO);
        connection.plan_cache = Some(cache);
        connection
    }

    /// Opens a connection choosing the transport and a simulated metadata
    /// round-trip latency (experiment E3). The metadata API shares the
    /// server's locator and epoch counter, and routes through the
    /// server's fault injector when one is installed.
    pub fn open_with(
        server: Arc<DspServer>,
        options: TranslationOptions,
        metadata_latency: Duration,
    ) -> Connection {
        let mut api = InProcessMetadataApi::shared(
            server.locator().clone(),
            server.epoch_handle(),
            metadata_latency,
        );
        if let Some(injector) = server.fault_injector() {
            api = api.with_fault_hook(injector.metadata_hook());
        }
        Connection {
            translator: Translator::new(CachedMetadataApi::new(api)),
            server,
            options,
            plan_cache: None,
            optimizer: None,
            retry: RetryPolicy::default(),
            retries: AtomicU64::new(0),
            retranslations: AtomicU64::new(0),
        }
    }

    /// Attaches (or detaches) a rewrite engine. Plans built through
    /// [`Connection::execute_cached`] are optimized after translation when
    /// the connection's [`TranslationOptions::optimize`] level is not
    /// `Off`; the engine runs once per cache miss, so the cost is
    /// amortized over every hit on the optimized plan.
    pub fn set_optimizer(&mut self, optimizer: Option<Arc<dyn QueryOptimizer + Send + Sync>>) {
        self.optimizer = optimizer;
    }

    /// The server handle.
    pub fn server(&self) -> &Arc<DspServer> {
        &self.server
    }

    /// The translator (benchmarks inspect cache stats through it).
    pub fn translator(&self) -> &Translator<CachedMetadataApi<InProcessMetadataApi>> {
        &self.translator
    }

    /// Replaces the retry policy for subsequent executions.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry = policy;
    }

    /// Recovery actions taken so far on this connection.
    pub fn retry_stats(&self) -> RetryStats {
        RetryStats {
            retries: self.retries.load(Ordering::Relaxed),
            retranslations: self.retranslations.load(Ordering::Relaxed),
        }
    }

    /// Builds the per-statement [`QueryBudget`] for entry points that were
    /// not handed one by the caller: the retry policy's deadline becomes
    /// the budget deadline, so the *in-flight* attempt observes it (the
    /// evaluator polls the budget clock) instead of only the gaps between
    /// attempts. No deadline → no budget → zero governance overhead.
    fn budget_from_policy(&self) -> Option<QueryBudget> {
        self.retry
            .deadline
            .map(|d| QueryBudget::unlimited().with_deadline(d))
    }

    /// Runs `op` under the retry policy: transient errors are retried
    /// with exponential backoff up to `max_attempts`, never past the
    /// deadline budget (exceeding it surfaces as
    /// [`DriverError::Timeout`]).
    ///
    /// When a budget is supplied it is authoritative: it is re-checked at
    /// the head of every attempt, so a deadline that expired (or a token
    /// cancelled) *during* the previous attempt stops the loop here even
    /// though the resulting `Timeout` is nominally transient — retrying
    /// against a spent budget could only time out again.
    fn retry_transient<T>(
        &self,
        budget: Option<&QueryBudget>,
        mut op: impl FnMut() -> Result<T, DriverError>,
    ) -> Result<T, DriverError> {
        let policy = self.retry;
        let started = Instant::now();
        let mut attempt: u32 = 0;
        loop {
            if let Some(budget) = budget {
                budget.check().map_err(DriverError::from_budget)?;
            }
            attempt += 1;
            match op() {
                Ok(value) => return Ok(value),
                Err(e) if e.is_transient() && attempt < policy.max_attempts => {
                    let backoff = policy.backoff(attempt, 0x5A17_F00F);
                    if let Some(deadline) = policy.deadline {
                        if started.elapsed() + backoff >= deadline {
                            return Err(DriverError::Timeout(format!(
                                "statement budget {deadline:?} exhausted after \
                                 {attempt} attempt(s); last error: {e}"
                            )));
                        }
                    }
                    // The shared budget may carry a tighter deadline than
                    // the policy (e.g. one handed in by a `QueryService`
                    // caller): don't sleep past it either.
                    if let Some(remaining) = budget.and_then(|b| b.remaining()) {
                        if backoff >= remaining {
                            return Err(DriverError::Timeout(format!(
                                "query budget exhausted after {attempt} attempt(s); \
                                 last error: {e}"
                            )));
                        }
                    }
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff);
                    }
                    self.retries.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Creates a plain statement.
    pub fn create_statement(&self) -> Statement<'_> {
        Statement {
            connection: self,
            max_rows: 0,
        }
    }

    /// Prepares a parameterized statement (translation happens once,
    /// here — transient metadata failures are retried under the policy).
    pub fn prepare(&self, sql: &str) -> Result<PreparedStatement<'_>, DriverError> {
        let budget = self.budget_from_policy();
        let translation = self.retry_transient(budget.as_ref(), || {
            self.translator
                .translate_full_governed(sql, self.options, budget.as_ref())
                .map(|full| full.translation)
                .map_err(DriverError::from)
        })?;
        let parameters = vec![None; translation.parameter_count];
        Ok(PreparedStatement {
            connection: self,
            sql: sql.to_string(),
            translation: Mutex::new(translation),
            parameters,
        })
    }

    /// Calls a data-service function *with parameters* — presented as a
    /// SQL stored procedure (paper Figure 2 (iii): "If a function has
    /// parameters, it becomes a callable SQL stored procedure"). Accepts
    /// the JDBC escape form `{call NAME(?, ?)}` or a bare name; `args`
    /// bind positionally. The driver composes the XQuery directly (there
    /// is no SQL statement to translate) and decodes the function's flat
    /// rows with its declared schema.
    pub fn prepare_call(&self, call: &str) -> Result<CallableStatement<'_>, DriverError> {
        let name = parse_call_syntax(call)?;
        let application = self.server.application();
        let function = application
            .functions()
            .map(|(_, _, f)| f)
            .find(|f| f.name == name)
            .ok_or_else(|| DriverError::Usage(format!("unknown procedure {name}")))?;
        if !function.is_procedure() {
            return Err(DriverError::Usage(format!(
                "{name} takes no parameters; query it as a table"
            )));
        }
        let schema = function.schema.clone();
        let parameter_count = function.parameters.len();

        // Compose the XQuery: call the function with the bound external
        // variables and wrap its rows in the standard RECORD shape.
        let args: Vec<String> = (0..parameter_count)
            .map(|i| format!("${}", sql_param_name(i)))
            .collect();
        let mut record = String::new();
        let columns: Vec<OutputColumn> = schema
            .columns
            .iter()
            .map(|c| {
                let element = format!("{}.{}", name, c.name);
                if c.nullable {
                    record.push_str(&format!(
                        "{{ for $v in fn:data($row/{}) return <{element}>{{$v}}</{element}> }}",
                        c.name
                    ));
                } else {
                    record.push_str(&format!(
                        "<{element}>{{fn:data($row/{})}}</{element}>",
                        c.name
                    ));
                }
                OutputColumn {
                    name: element,
                    label: c.name.clone(),
                    sql_type: Some(c.sql_type),
                    nullable: c.nullable,
                }
            })
            .collect();
        let xquery = format!(
            "import schema namespace ns0 = \"{}\" at \"{}\";\n\
             <RECORDSET>{{\nfor $row in ns0:{name}({})\nreturn\n<RECORD>{record}</RECORD>\n}}</RECORDSET>",
            schema.namespace,
            schema.schema_location,
            args.join(", ")
        );
        Ok(CallableStatement {
            connection: self,
            xquery,
            columns,
            parameters: vec![None; parameter_count],
        })
    }

    /// Executes one SELECT through the shared plan cache: exact-text hits
    /// skip translation (and parsing) entirely, normalized hits re-bind
    /// this statement's literals onto a plan built for a sibling
    /// statement, and misses translate once for every future caller.
    /// `params` bind the statement's own `?` markers, in order.
    ///
    /// Recovery is the one every statement gets: transient failures
    /// retry under the policy, and a stale-metadata rejection
    /// invalidates both the metadata cache *and* the cached plan, then
    /// retranslates — at most once — before failing. Without an attached
    /// cache this degrades to the ordinary translate-and-execute path.
    pub fn execute_cached(&self, sql: &str, params: &[SqlValue]) -> Result<ResultSet, DriverError> {
        let budget = self.budget_from_policy();
        self.execute_cached_governed(sql, params, budget.as_ref())
    }

    /// [`Connection::execute_cached`] under an explicit [`QueryBudget`]
    /// (the `QueryService` execution path). The budget governs the whole
    /// statement: translation stage boundaries, every evaluator loop, and
    /// the retry loop all spend from it, so retries and evaluation share
    /// one deadline instead of each starting their own clock.
    pub fn execute_cached_governed(
        &self,
        sql: &str,
        params: &[SqlValue],
        budget: Option<&QueryBudget>,
    ) -> Result<ResultSet, DriverError> {
        match &self.plan_cache {
            Some(cache) => self.run(sql, params, PlanSource::Cache(cache), budget),
            None => self.run(sql, params, PlanSource::Translate(&mut None), budget),
        }
    }

    /// The one statement path: obtain a plan from `source`, bind, ship,
    /// decode. Transient failures retry under the policy; a
    /// stale-metadata rejection refreshes the metadata cache and the plan
    /// source, then retranslates `sql` — at most once — before failing.
    /// On return a [`PlanSource::Translate`] slot holds the translation
    /// that last ran (so prepared statements keep the refreshed one).
    fn run(
        &self,
        sql: &str,
        params: &[SqlValue],
        mut source: PlanSource<'_>,
        budget: Option<&QueryBudget>,
    ) -> Result<ResultSet, DriverError> {
        let mut retranslated = false;
        loop {
            let result = self.retry_transient(budget, || {
                // Keeps a cached plan alive for the attempt.
                let bound;
                let (translation, values) = match &mut source {
                    PlanSource::Translate(slot) => {
                        if slot.is_none() {
                            **slot = Some(
                                self.translator
                                    .translate_full_governed(sql, self.options, budget)?
                                    .translation,
                            );
                        }
                        let translation = slot.as_ref().expect("translation just filled");
                        if translation.parameter_count != params.len() {
                            return Err(DriverError::Usage(format!(
                                "statement expects {} parameter(s), {} bound",
                                translation.parameter_count,
                                params.len()
                            )));
                        }
                        (translation, Cow::Borrowed(params))
                    }
                    PlanSource::Cache(cache) => {
                        bound = cache
                            .plan_with(
                                &self.translator,
                                sql,
                                self.options,
                                self.optimizer.as_deref().map(|o| o as &dyn QueryOptimizer),
                            )?
                            .0;
                        // User parameters + extracted literals, in the
                        // plan's `$sqlParam` order.
                        let values = bound.resolve_args(params).map_err(DriverError::Usage)?;
                        (&bound.plan.translation, Cow::Owned(values))
                    }
                };
                self.ship(
                    &translation.xquery,
                    &translation.columns,
                    &values,
                    Some(translation.metadata_epoch),
                    self.options.transport,
                    budget,
                )
            });
            match result {
                Err(DriverError::StaleMetadata { .. }) if !retranslated => {
                    retranslated = true;
                    // Refresh the metadata view first: invalidate() also
                    // advances the cached epoch, so the purge below sees
                    // the server's current generation and drops the plan
                    // that just failed along with every other stale one.
                    self.translator.metadata().invalidate();
                    match &mut source {
                        PlanSource::Translate(slot) => **slot = None,
                        PlanSource::Cache(cache) => {
                            cache.purge_stale(self.translator.metadata().epoch());
                        }
                    }
                    self.retranslations.fetch_add(1, Ordering::Relaxed);
                }
                other => return other,
            }
        }
    }

    /// One trip to the server: bind `values` to `$sqlParam1..N`, execute
    /// `xquery` (at `client_epoch`, when the caller wants the server's
    /// staleness check), decode the payload by `transport`.
    fn ship(
        &self,
        xquery: &str,
        columns: &[OutputColumn],
        values: &[SqlValue],
        client_epoch: Option<u64>,
        transport: Transport,
        budget: Option<&QueryBudget>,
    ) -> Result<ResultSet, DriverError> {
        let external: Vec<(String, Sequence)> = values
            .iter()
            .enumerate()
            .map(|(i, v)| (sql_param_name(i), sql_value_to_sequence(v)))
            .collect();
        let payload = self.server.execute_to_payload_governed_with(
            xquery,
            &external,
            client_epoch,
            budget,
            self.options.exec,
        )?;
        match transport {
            Transport::DelimitedText => ResultSet::from_delimited(columns.to_vec(), &payload),
            Transport::Xml => ResultSet::from_xml(columns.to_vec(), &payload),
        }
    }
}

/// A plain (non-parameterized) statement.
pub struct Statement<'a> {
    connection: &'a Connection,
    /// JDBC `setMaxRows`: 0 = unlimited. SQL-92 has no LIMIT clause, so —
    /// like the real driver — truncation happens on the client after the
    /// result arrives.
    max_rows: usize,
}

impl<'a> Statement<'a> {
    /// JDBC `setMaxRows` (0 = unlimited).
    pub fn set_max_rows(&mut self, max_rows: usize) {
        self.max_rows = max_rows;
    }

    /// Translates and executes one SELECT (under the connection's retry
    /// and stale-metadata recovery).
    pub fn execute_query(&self, sql: &str) -> Result<ResultSet, DriverError> {
        let budget = self.connection.budget_from_policy();
        let mut rs =
            self.connection
                .run(sql, &[], PlanSource::Translate(&mut None), budget.as_ref())?;
        if self.max_rows > 0 {
            rs.truncate(self.max_rows);
        }
        Ok(rs)
    }

    /// Translates without executing (tooling/debugging).
    pub fn explain(&self, sql: &str) -> Result<Translation, DriverError> {
        Ok(self
            .connection
            .translator
            .translate(sql, self.connection.options)?)
    }
}

/// A prepared, parameterized statement.
pub struct PreparedStatement<'a> {
    connection: &'a Connection,
    /// The original SQL, kept so a stale-metadata rejection can
    /// retranslate against the refreshed catalog.
    sql: String,
    /// Replaced by `execute_query(&self)` after a stale-metadata
    /// recovery; behind a lock so the statement is as shareable as its
    /// connection.
    translation: Mutex<Translation>,
    parameters: Vec<Option<SqlValue>>,
}

impl<'a> PreparedStatement<'a> {
    /// Number of `?` markers.
    pub fn parameter_count(&self) -> usize {
        self.parameters.len()
    }

    /// Binds a parameter (1-based index, like JDBC `setXxx`).
    pub fn set(&mut self, index: usize, value: SqlValue) -> Result<(), DriverError> {
        set_parameter(&mut self.parameters, index, value)
    }

    /// Clears all bindings.
    pub fn clear_parameters(&mut self) {
        for p in &mut self.parameters {
            *p = None;
        }
    }

    /// Executes with the current bindings. If the server rejects the
    /// stored translation as stale (the catalog changed since
    /// `prepare()`), the statement retranslates its SQL once and keeps
    /// the refreshed translation for subsequent executions.
    pub fn execute_query(&self) -> Result<ResultSet, DriverError> {
        let values = bound_values(&self.parameters)?;
        let mut slot = Some(self.translation.lock().clone());
        let budget = self.connection.budget_from_policy();
        let result = self.connection.run(
            &self.sql,
            &values,
            PlanSource::Translate(&mut slot),
            budget.as_ref(),
        );
        if let Some(refreshed) = slot {
            *self.translation.lock() = refreshed;
        }
        result
    }

    /// The translation backing this statement (refreshed in place when a
    /// stale-metadata recovery retranslated it).
    pub fn translation(&self) -> Translation {
        self.translation.lock().clone()
    }

    /// The SQL text this statement was prepared from.
    pub fn sql(&self) -> &str {
        &self.sql
    }
}

/// A callable statement over a parameterized data-service function.
pub struct CallableStatement<'a> {
    connection: &'a Connection,
    xquery: String,
    columns: Vec<OutputColumn>,
    parameters: Vec<Option<SqlValue>>,
}

impl<'a> CallableStatement<'a> {
    /// Number of procedure parameters.
    pub fn parameter_count(&self) -> usize {
        self.parameters.len()
    }

    /// Binds a parameter (1-based).
    pub fn set(&mut self, index: usize, value: SqlValue) -> Result<(), DriverError> {
        set_parameter(&mut self.parameters, index, value)
    }

    /// Executes the call (always the XML transport: the call bypasses the
    /// SQL translator, and its result is the function's flat rows).
    /// Transient failures retry under the connection's policy; there is
    /// no staleness check because the XQuery is composed from the live
    /// catalog, not a cached translation.
    pub fn execute(&self) -> Result<ResultSet, DriverError> {
        let values = bound_values(&self.parameters)?;
        let budget = self.connection.budget_from_policy();
        self.connection.retry_transient(budget.as_ref(), || {
            self.connection.ship(
                &self.xquery,
                &self.columns,
                &values,
                None,
                Transport::Xml,
                budget.as_ref(),
            )
        })
    }

    /// The composed XQuery (debugging).
    pub fn xquery(&self) -> &str {
        &self.xquery
    }
}

/// JDBC `setXxx` on a parameter vector: `index` is 1-based.
fn set_parameter(
    parameters: &mut [Option<SqlValue>],
    index: usize,
    value: SqlValue,
) -> Result<(), DriverError> {
    let slot = index
        .checked_sub(1)
        .and_then(|i| parameters.get_mut(i))
        .ok_or_else(|| DriverError::Usage(format!("parameter index {index} out of range")))?;
    *slot = Some(value);
    Ok(())
}

/// The bound values of a parameter vector, in order; an unbound marker is
/// a usage error.
fn bound_values(parameters: &[Option<SqlValue>]) -> Result<Vec<SqlValue>, DriverError> {
    parameters
        .iter()
        .enumerate()
        .map(|(i, v)| {
            v.clone()
                .ok_or_else(|| DriverError::Usage(format!("parameter {} is not bound", i + 1)))
        })
        .collect()
}

/// Accepts `{call NAME(?, ?)}`, `{call NAME}`, or a bare `NAME`.
fn parse_call_syntax(call: &str) -> Result<String, DriverError> {
    let trimmed = call.trim();
    let inner = if let Some(body) = trimmed.strip_prefix('{').and_then(|s| s.strip_suffix('}')) {
        let body = body.trim();
        body.strip_prefix("call")
            .or_else(|| body.strip_prefix("CALL"))
            .ok_or_else(|| DriverError::Usage(format!("malformed call syntax: {call}")))?
            .trim()
    } else {
        trimmed
    };
    let name_end = inner.find('(').unwrap_or(inner.len());
    let name = inner[..name_end].trim();
    if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
        return Err(DriverError::Usage(format!("malformed call syntax: {call}")));
    }
    Ok(name.to_ascii_uppercase())
}

#[cfg(test)]
mod tests {
    use super::*;
    use aldsp_catalog::{ApplicationBuilder, MetadataApi, SqlColumnType};
    use aldsp_relational::{Database, Table};

    fn connection(transport: Transport) -> Connection {
        let app = ApplicationBuilder::new("APP")
            .project("P")
            .data_service("CUSTOMERS")
            .physical_table("CUSTOMERS", |t| {
                t.column("CUSTOMERID", SqlColumnType::Integer, false)
                    .column("CUSTOMERNAME", SqlColumnType::Varchar, true)
            })
            .finish_service()
            .finish_project()
            .build();
        let mut db = Database::new();
        let schema = app.projects[0].data_services[0].functions[0].schema.clone();
        let mut table = Table::new(schema);
        for (id, name) in [(55, Some("Joe")), (23, Some("Sue")), (7, None)] {
            table.insert(vec![
                SqlValue::Int(id),
                name.map(|n| SqlValue::Str(n.into()))
                    .unwrap_or(SqlValue::Null),
            ]);
        }
        db.add_table(table);
        let server = Arc::new(DspServer::new(app, db));
        Connection::open_with(
            server,
            TranslationOptions::with_transport(transport),
            Duration::ZERO,
        )
    }

    #[test]
    fn end_to_end_text_transport() {
        let conn = connection(Transport::DelimitedText);
        let mut rs = conn
            .create_statement()
            .execute_query("SELECT CUSTOMERID, CUSTOMERNAME FROM CUSTOMERS ORDER BY CUSTOMERID")
            .unwrap();
        assert_eq!(rs.row_count(), 3);
        assert!(rs.next());
        assert_eq!(rs.get_i64(1).unwrap(), 7);
        assert_eq!(rs.get_string(2).unwrap(), None); // NULL preserved
        assert!(rs.next());
        assert_eq!(rs.get_i64(1).unwrap(), 23);
        assert_eq!(rs.get_string(2).unwrap().as_deref(), Some("Sue"));
    }

    #[test]
    fn end_to_end_xml_transport() {
        let conn = connection(Transport::Xml);
        let mut rs = conn
            .create_statement()
            .execute_query("SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID = 55")
            .unwrap();
        assert_eq!(rs.row_count(), 1);
        rs.next();
        assert_eq!(rs.get_string(1).unwrap().as_deref(), Some("Joe"));
    }

    #[test]
    fn both_transports_agree() {
        let sql = "SELECT CUSTOMERID, CUSTOMERNAME FROM CUSTOMERS ORDER BY CUSTOMERID DESC";
        let text = connection(Transport::DelimitedText)
            .create_statement()
            .execute_query(sql)
            .unwrap();
        let xml = connection(Transport::Xml)
            .create_statement()
            .execute_query(sql)
            .unwrap();
        assert_eq!(text.rows(), xml.rows());
    }

    #[test]
    fn prepared_statements_bind_and_rebind() {
        let conn = connection(Transport::DelimitedText);
        let mut ps = conn
            .prepare("SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID = ?")
            .unwrap();
        assert_eq!(ps.parameter_count(), 1);
        ps.set(1, SqlValue::Int(55)).unwrap();
        let mut rs = ps.execute_query().unwrap();
        rs.next();
        assert_eq!(rs.get_string(1).unwrap().as_deref(), Some("Joe"));
        ps.set(1, SqlValue::Int(23)).unwrap();
        let mut rs = ps.execute_query().unwrap();
        rs.next();
        assert_eq!(rs.get_string(1).unwrap().as_deref(), Some("Sue"));
    }

    #[test]
    fn unbound_parameter_is_usage_error() {
        let conn = connection(Transport::DelimitedText);
        let ps = conn
            .prepare("SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID = ?")
            .unwrap();
        assert!(matches!(ps.execute_query(), Err(DriverError::Usage(_))));
    }

    #[test]
    fn statement_with_parameters_rejected() {
        let conn = connection(Transport::DelimitedText);
        assert!(matches!(
            conn.create_statement()
                .execute_query("SELECT CUSTOMERID FROM CUSTOMERS WHERE CUSTOMERID = ?"),
            Err(DriverError::Usage(_))
        ));
    }

    #[test]
    fn translation_errors_surface() {
        let conn = connection(Transport::DelimitedText);
        assert!(matches!(
            conn.create_statement().execute_query("SELECT * FROM NOPE"),
            Err(DriverError::Translation(_))
        ));
    }

    fn connection_with_procedure() -> Connection {
        let app = ApplicationBuilder::new("APP")
            .project("P")
            .data_service("CUSTOMERS")
            .physical_table("CUSTOMERS", |t| {
                t.column("CUSTOMERID", SqlColumnType::Integer, false)
                    .column("CUSTOMERNAME", SqlColumnType::Varchar, true)
            })
            .physical_procedure(
                "CUSTOMER_BY_ID",
                vec![("CUSTOMERID".into(), SqlColumnType::Integer)],
                |t| {
                    t.row_element("CUSTOMERS")
                        .column("CUSTOMERID", SqlColumnType::Integer, false)
                        .column("CUSTOMERNAME", SqlColumnType::Varchar, true)
                },
            )
            .finish_service()
            .finish_project()
            .build();
        let mut db = Database::new();
        let schema = app.projects[0].data_services[0].functions[0].schema.clone();
        let mut table = Table::new(schema);
        table.insert(vec![SqlValue::Int(55), SqlValue::Str("Joe".into())]);
        table.insert(vec![SqlValue::Int(23), SqlValue::Str("Sue".into())]);
        db.add_table(table);
        // The procedure reads the same backing table under its own name.
        let mut backing = db.table("CUSTOMERS").unwrap().clone();
        backing.schema.table_name = "CUSTOMER_BY_ID".into();
        db.add_table(backing);
        Connection::open(Arc::new(DspServer::new(app, db)))
    }

    #[test]
    fn callable_statement_filters_by_parameter() {
        let conn = connection_with_procedure();
        let mut call = conn.prepare_call("{call CUSTOMER_BY_ID(?)}").unwrap();
        assert_eq!(call.parameter_count(), 1);
        call.set(1, SqlValue::Int(23)).unwrap();
        let mut rs = call.execute().unwrap();
        assert_eq!(rs.row_count(), 1);
        rs.next();
        assert_eq!(rs.get_string(2).unwrap().as_deref(), Some("Sue"));
    }

    #[test]
    fn call_syntax_variants() {
        let conn = connection_with_procedure();
        assert!(conn.prepare_call("CUSTOMER_BY_ID").is_ok());
        assert!(conn.prepare_call("{ CALL CUSTOMER_BY_ID(?) }").is_ok());
        assert!(conn.prepare_call("{call}").is_err());
        assert!(conn.prepare_call("{call NO_SUCH(?)}").is_err());
        // Tables are not callable.
        assert!(matches!(
            conn.prepare_call("{call CUSTOMERS}"),
            Err(DriverError::Usage(_))
        ));
    }

    #[test]
    fn call_parameter_index_zero_is_usage_error() {
        let conn = connection_with_procedure();
        let mut call = conn.prepare_call("CUSTOMER_BY_ID").unwrap();
        assert!(matches!(
            call.set(0, SqlValue::Int(23)),
            Err(DriverError::Usage(_))
        ));
    }

    #[test]
    fn unbound_call_parameter_is_usage_error() {
        let conn = connection_with_procedure();
        let call = conn.prepare_call("CUSTOMER_BY_ID").unwrap();
        assert!(matches!(call.execute(), Err(DriverError::Usage(_))));
    }

    #[test]
    fn max_rows_truncates_client_side() {
        let conn = connection(Transport::DelimitedText);
        let mut statement = conn.create_statement();
        statement.set_max_rows(2);
        let rs = statement
            .execute_query("SELECT CUSTOMERID FROM CUSTOMERS ORDER BY CUSTOMERID")
            .unwrap();
        assert_eq!(rs.row_count(), 2);
        // 0 = unlimited.
        statement.set_max_rows(0);
        let rs = statement
            .execute_query("SELECT CUSTOMERID FROM CUSTOMERS")
            .unwrap();
        assert_eq!(rs.row_count(), 3);
    }

    #[test]
    fn metadata_cache_spans_statements() {
        let conn = connection(Transport::DelimitedText);
        conn.create_statement()
            .execute_query("SELECT CUSTOMERID FROM CUSTOMERS")
            .unwrap();
        conn.create_statement()
            .execute_query("SELECT CUSTOMERNAME FROM CUSTOMERS")
            .unwrap();
        assert_eq!(conn.translator().metadata().inner().round_trips(), 1);
    }
}
