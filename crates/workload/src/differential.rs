//! The differential matrix (experiments E6, E13 and the chaos sweeps).
//!
//! Correctness goal (paper §3.2 (i)): "the XQuery must do what the SQL
//! query would have done". We check that mechanically, in one place:
//! [`run_matrix`] takes a [`Universe`] (a populated server and the
//! oracle's copy of its data), a corpus of `(origin, sql)` statements and
//! a list of [`Lane`]s — driver configurations, as data — and runs every
//! statement on every lane through one call site,
//! [`Connection::execute_cached_governed`] under an unlimited
//! [`QueryBudget`] meter. Every lane's rows go to the relational oracle
//! through [`compare_results`] — as ordered lists when the query has
//! ORDER BY, as multisets otherwise, numeric values compared by value (the
//! transports serialize decimals canonically). A lane may also claim its
//! rows are *identical, in emission order,* to an earlier lane's (hash
//! joins vs the interpreter, cached vs fresh, optimized vs naive): every
//! lane but the plain ones claims its transport's plain lane.
//!
//! Faults are a property of the run, not a second runner: with a
//! [`ChaosConfig`] the injector goes onto the server, every lane retries
//! under the config's policy, and a typed [`DriverError`] is an acceptable
//! outcome — wrong rows never are. Everything is deterministic per
//! `(seed, fault plan)`; [`MatrixReport::fingerprint`] canonicalizes the
//! per-execution outcomes for byte-identical comparison across runs.

use crate::chaos::ChaosConfig;
use crate::querygen::{ConstructClass, QueryGenerator};
use crate::schema::{
    build_application, golden_statements, paper_queries, populate_database, Scale,
};
use aldsp_analyzer::{analyze_sql_with, QueryFacts, ValidateOptions};
use aldsp_catalog::{Application, MetadataApi};
use aldsp_core::{
    stage1, ExecStrategy, OptimizeLevel, QueryOptimizer, TranslationOptions, Transport,
};
use aldsp_driver::{
    Connection, DriverError, DspServer, FaultConfig, FaultInjector, FaultStats, QueryService,
};
use aldsp_governor::{Lowering, QueryBudget};
use aldsp_plancache::{CacheStats, PlanCache};
use aldsp_relational::{execute_query, Database, Relation, SqlValue};
use aldsp_sql::parse_select;
use aldsp_xquery::exec::{Lowered, PhysicalPlan};
use aldsp_xquery::visit::each_expr;
use aldsp_xquery::{parse_program, Program};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// A populated server and the oracle's copy of its data. The fields are
/// public so a test can hand the oracle a database that differs from the
/// server's.
pub struct Universe {
    /// The server every lane connects to.
    pub server: Arc<DspServer>,
    /// What the relational oracle reads.
    pub oracle: Database,
}

impl Universe {
    /// A server over `database`, the oracle reading a clone of it.
    pub fn new(application: Application, database: Database) -> Universe {
        Universe {
            oracle: database.clone(),
            server: Arc::new(DspServer::new(application, database)),
        }
    }

    /// The paper's universe at `scale`, populated from `seed`.
    pub fn generated(scale: Scale, seed: u64) -> Universe {
        let application = build_application();
        let database = populate_database(&application, scale, seed);
        Universe::new(application, database)
    }

    /// How many join indexes one epoch of the server can hold: one per
    /// column of every data-service function. What a fault-free matrix
    /// run, which never writes, may build over all its lanes together.
    pub fn index_bound(&self) -> u64 {
        let application = self.server.application();
        let columns = application
            .functions()
            .map(|(_, _, f)| f.schema.columns.len() as u64);
        columns.sum()
    }
}

/// The rewrite engine a lane runs, handed in by callers that have the
/// optimizer crate (this one does not depend on it).
pub type Engine = Arc<dyn QueryOptimizer + Send + Sync>;

/// One driver configuration a statement runs under.
#[derive(Clone)]
pub struct Lane {
    /// Names the lane in mismatches, the outcome log and the report.
    pub label: String,
    /// Transport, optimize level and execution strategy.
    pub options: TranslationOptions,
    /// Whether the connection has a plan cache. A cached lane runs every
    /// statement twice — a miss, then an exact hit — and checks that the
    /// resident plan analyzes clean.
    pub cache: bool,
    /// The rewrite engine; it only runs on a cached lane whose options ask
    /// for an optimize level above `Off`.
    pub optimizer: Option<Engine>,
    /// Label of an earlier lane whose rows this lane's must equal row by
    /// row, in emission order, ORDER BY or not.
    pub identical_to: Option<String>,
}

fn transport_label(transport: Transport) -> &'static str {
    match transport {
        Transport::DelimitedText => "text",
        Transport::Xml => "xml",
    }
}

impl Lane {
    /// The uncached lane `<transport><suffix>` under `options`.
    fn on(suffix: &str, options: TranslationOptions) -> Lane {
        Lane {
            label: format!("{}{suffix}", transport_label(options.transport)),
            options,
            cache: false,
            optimizer: None,
            identical_to: None,
        }
    }

    /// All defaults on `transport`, no cache: the plain translate path.
    /// Labelled `text` / `xml`.
    pub fn plain(transport: Transport) -> Lane {
        Lane::on("", TranslationOptions::with_transport(transport))
    }

    /// [`Lane::plain`] under [`ExecStrategy::HashJoin`], claiming the
    /// interpreter's emission order (`text+hash` ≡ `text`).
    pub fn hash(transport: Transport) -> Lane {
        let options =
            TranslationOptions::with_transport(transport).with_exec(ExecStrategy::HashJoin);
        Lane {
            identical_to: Some(transport_label(transport).to_string()),
            ..Lane::on("+hash", options)
        }
    }

    /// [`Lane::plain`] through a plan cache, cold and warm both claiming
    /// the fresh translation's rows (`text+cache` ≡ `text`).
    pub fn cached(transport: Transport) -> Lane {
        Lane {
            cache: true,
            identical_to: Some(transport_label(transport).to_string()),
            ..Lane::on("+cache", TranslationOptions::with_transport(transport))
        }
    }

    /// `OptimizeLevel::Full` through `optimizer` on the interpreter
    /// (`text+opt`), claiming the naive plan's emission order (`text+opt`
    /// ≡ `text`): the optimizer's rewrite keeps the tuple order.
    pub fn optimized(transport: Transport, optimizer: Engine) -> Lane {
        let options = TranslationOptions::with_transport(transport).optimized(OptimizeLevel::Full);
        Lane {
            cache: true,
            optimizer: Some(optimizer),
            identical_to: Some(transport_label(transport).to_string()),
            ..Lane::on("+opt", options)
        }
    }

    /// What production and the end-to-end benchmark run
    /// (`e2e/src/sut.rs::Sut::open`): `OptimizeLevel::Full` through
    /// `optimizer` (built with the validation gate on), hash-join
    /// execution, a plan cache. Labelled `text+production`, claiming the
    /// plain lane's emission order (`text+production` ≡ `text`).
    pub fn production(transport: Transport, optimizer: Engine) -> Lane {
        let options = TranslationOptions::with_transport(transport)
            .optimized(OptimizeLevel::Full)
            .with_exec(ExecStrategy::HashJoin);
        Lane {
            cache: true,
            optimizer: Some(optimizer),
            identical_to: Some(transport_label(transport).to_string()),
            ..Lane::on("+production", options)
        }
    }

    /// `lane` on both transports, delimited text first.
    pub fn both(lane: impl Fn(Transport) -> Lane) -> Vec<Lane> {
        vec![lane(Transport::DelimitedText), lane(Transport::Xml)]
    }

    /// A [`QueryService`] configured as this lane (a service always has a
    /// plan cache), for the threaded scenarios.
    pub fn service(&self, server: Arc<DspServer>) -> QueryService {
        let service = QueryService::new(server, self.options);
        match &self.optimizer {
            Some(optimizer) => service.with_optimizer(Arc::clone(optimizer)),
            None => service,
        }
    }
}

/// The paper's worked examples, origins `paper:<label>`.
pub fn paper_corpus() -> Vec<(String, String)> {
    paper_queries()
        .into_iter()
        .map(|(label, sql)| (format!("paper:{label}"), sql.to_string()))
        .collect()
}

/// The statements of `tests/golden.sql` that take no `?` parameter (the
/// matrix binds none), origins `golden:<n>` (1-based position in the
/// file).
pub fn golden_corpus() -> Vec<(String, String)> {
    golden_statements()
        .into_iter()
        .enumerate()
        .filter(|(_, sql)| stage1::parse(sql).map_or(true, |p| p.parameter_count == 0))
        .map(|(i, sql)| (format!("golden:{}", i + 1), sql))
        .collect()
}

/// `count_per_class` generated statements per construct class, origins
/// the class labels.
pub fn fuzzed_corpus(seed: u64, count_per_class: usize) -> Vec<(String, String)> {
    let mut generator = QueryGenerator::new(seed);
    let mut corpus = Vec::new();
    for class in ConstructClass::all() {
        for _ in 0..count_per_class {
            corpus.push((class.label().to_string(), generator.generate(*class)));
        }
    }
    corpus
}

/// One disagreement.
#[derive(Debug, Clone)]
pub struct Mismatch {
    /// Where the statement came from.
    pub origin: String,
    /// The lane that disagreed (`lint` / `oracle` for the per-statement
    /// checks that run before any lane).
    pub lane: String,
    /// The SQL text.
    pub sql: String,
    /// What went wrong.
    pub reason: String,
}

/// What one lane did over the whole corpus.
#[derive(Debug, Clone, Default)]
pub struct LaneReport {
    /// The lane's label.
    pub label: String,
    /// Evaluator fuel of each statement's last execution, in corpus order
    /// (0 for a statement that never reached the lane).
    pub fuel: Vec<u64>,
    /// Hash operators the streaming engine ran.
    pub hash_operators: u64,
    /// Hashable FLWORs that fell back to the interpreter.
    pub join_fallbacks: u64,
    /// Those of them whose pipeline was planned, ran and raised: 0 on a
    /// fault-free run, or a pipeline diverged from the interpreter.
    pub join_abandons: u64,
    /// Join-index requests that built their table: at most one per
    /// (data-service function, key column) per epoch of a server that
    /// keeps them, whichever lane asked first.
    pub indexes_built: u64,
    /// Join-index requests the server answered with a table it had kept.
    pub index_hits: u64,
    /// Statement bodies a sink wrote. Under the pipeline strategy, on a
    /// delimited-text lane: one per execution that reached evaluation; on
    /// an XML lane: one per such execution whose body is a `<RECORDSET>`
    /// of one FLWOR's `<RECORD>`s, or of a sort or set wrapper the rows
    /// operator runs.
    pub sinks: u64,
    /// Statement bodies a sink abandoned to the interpreter.
    pub sink_fallbacks: u64,
    /// `let`-bound views the engine built by a tail plan.
    pub views: u64,
    /// Cells those plans left out: nothing after the `let` reads them.
    pub cells_pruned: u64,
    /// Views a tail plan abandoned to the interpreter.
    pub view_fallbacks: u64,
    /// Grouped FLWORs the aggregate operator ran.
    pub aggregates_lowered: u64,
    /// Grouped FLWORs it declined: shapes it does not read.
    pub aggregates_declined: u64,
    /// Grouped FLWORs it ran and abandoned to the interpreter: 0 on a
    /// fault-free run, or the operator diverged from the interpreter.
    pub aggregates_abandoned: u64,
    /// ORDER BY wrappers the rows operator sorted, declined and abandoned,
    /// as the aggregate's three above.
    pub sorts_lowered: u64,
    /// See [`LaneReport::sorts_lowered`].
    pub sorts_declined: u64,
    /// See [`LaneReport::sorts_lowered`].
    pub sorts_abandoned: u64,
    /// DISTINCT and set-operation wrappers the rows operator ran, declined
    /// and abandoned; INTERSECT and EXCEPT without ALL are not asked.
    pub sets_lowered: u64,
    /// See [`LaneReport::sets_lowered`].
    pub sets_declined: u64,
    /// See [`LaneReport::sets_lowered`].
    pub sets_abandoned: u64,
    /// Final plan-cache counters of a cached lane.
    pub cache: Option<CacheStats>,
    /// Resident plans put through analyzer layers 1–3.
    pub analyzed: usize,
    /// Resident plans carrying at least one applied rewrite.
    pub rewritten: usize,
    /// Resident plans whose physical plan, under the lane's strategy,
    /// memoizes a loop-invariant source ([`memoized_sources`]).
    pub memoized: usize,
    /// Transient failures the connection retried.
    pub retries: u64,
}

/// Aggregate outcome of one [`run_matrix`] call. `passed`, `rejected` and
/// `typed_errors` count *executions* (statement × lane × run);
/// `per_origin` counts statements.
#[derive(Debug, Clone, Default)]
pub struct MatrixReport {
    /// Executions whose rows matched the oracle (and the lane's identity
    /// claim), possibly after retries.
    pub passed: usize,
    /// Statements the SQL parser refused plus executions the translator
    /// rejected on a fault-free run — the generator should produce none.
    pub rejected: usize,
    /// Executions that surfaced a typed error under a fault plan — the
    /// acceptable failure mode there.
    pub typed_errors: usize,
    /// Invariant violations: wrong rows, a broken identity claim, lint
    /// findings, a fault-free execution error, a dirty cached plan.
    pub mismatches: Vec<Mismatch>,
    /// Per origin, `(statements clean on every lane, statements attempted)`.
    pub per_origin: BTreeMap<String, (usize, usize)>,
    /// Per lane, in the order the lanes were given.
    pub lanes: Vec<LaneReport>,
    /// One canonical line per execution, in order.
    pub outcome_log: Vec<String>,
    /// What the injector did (all zero without a fault plan).
    pub fault_stats: FaultStats,
}

impl LaneReport {
    /// Per [`Lowering`] — the aggregate, the sort, the set operations —
    /// `(lowered, declined, abandoned)`.
    pub fn lowerings(&self) -> [(Lowering, (u64, u64, u64)); 3] {
        [
            (
                Lowering::Aggregate,
                (
                    self.aggregates_lowered,
                    self.aggregates_declined,
                    self.aggregates_abandoned,
                ),
            ),
            (
                Lowering::Sort,
                (
                    self.sorts_lowered,
                    self.sorts_declined,
                    self.sorts_abandoned,
                ),
            ),
            (
                Lowering::Set,
                (self.sets_lowered, self.sets_declined, self.sets_abandoned),
            ),
        ]
    }
}

impl MatrixReport {
    /// No wrong rows, no untyped failure, nothing rejected.
    pub fn is_clean(&self) -> bool {
        self.mismatches.is_empty() && self.rejected == 0
    }

    /// `(statements clean on every lane, statements attempted)`.
    pub fn statements(&self) -> (usize, usize) {
        self.per_origin
            .values()
            .fold((0, 0), |acc, (ok, n)| (acc.0 + ok, acc.1 + n))
    }

    /// The report of the lane labelled `label`.
    pub fn lane(&self, label: &str) -> &LaneReport {
        self.lanes
            .iter()
            .find(|l| l.label == label)
            .unwrap_or_else(|| panic!("no lane labelled `{label}` in this run"))
    }

    /// Join indexes built across all lanes (they share one server).
    pub fn indexes_built(&self) -> u64 {
        self.lanes.iter().map(|l| l.indexes_built).sum()
    }

    /// Transient retries across all lanes.
    pub fn retries(&self) -> u64 {
        self.lanes.iter().map(|l| l.retries).sum()
    }

    /// The canonical outcome transcript; equal seeds and plans must
    /// produce byte-identical fingerprints.
    pub fn fingerprint(&self) -> String {
        self.outcome_log.join("\n")
    }
}

/// How many `for` and quantifier sources `program`'s plan under
/// `strategy` evaluates at most once per evaluation of their FLWOR, as
/// [`PhysicalPlan::lowered`] reports them.
pub fn memoized_sources(program: &Program, strategy: ExecStrategy) -> usize {
    let plan = PhysicalPlan::new(program, strategy, false);
    let mut sources = 0;
    each_expr(&program.body, &mut |expr| {
        if let Lowered::Flwor { memoized, .. } = plan.lowered(expr) {
            sources += memoized;
        }
    });
    sources
}

/// Compares a driver result set against an oracle relation.
///
/// `ordered` compares row-by-row; unordered comparison sorts both sides
/// by a canonical key first (SQL bags).
pub fn compare_results(
    driver_rows: &[Vec<SqlValue>],
    oracle: &Relation,
    ordered: bool,
) -> Result<(), String> {
    if driver_rows.len() != oracle.rows.len() {
        return Err(format!(
            "row count differs: driver {} vs oracle {}",
            driver_rows.len(),
            oracle.rows.len()
        ));
    }
    let canonicalize = |rows: &[Vec<SqlValue>]| -> Vec<Vec<SqlValue>> {
        let mut sorted: Vec<Vec<SqlValue>> = rows.to_vec();
        if !ordered {
            sorted.sort_by_key(|r| Relation::row_key(r));
        }
        sorted
    };
    let left = canonicalize(driver_rows);
    let right = canonicalize(&oracle.rows);
    for (i, (l, r)) in left.iter().zip(&right).enumerate() {
        if l.len() != r.len() {
            return Err(format!("arity differs at row {i}"));
        }
        for (j, (a, b)) in l.iter().zip(r).enumerate() {
            if !a.agrees_with(b) {
                return Err(format!(
                    "row {i} column {j} differs: driver {a:?} vs oracle {b:?}"
                ));
            }
        }
    }
    Ok(())
}

/// One execution's rows against the oracle's answer for `sql` over
/// `database`: the per-execution check of the threaded scenarios (the
/// matrix asks the oracle once per statement, for all its lanes).
pub fn check_against_oracle(
    database: &Database,
    sql: &str,
    params: &[SqlValue],
    rows: &[Vec<SqlValue>],
) -> Result<(), String> {
    let parsed = parse_select(sql).map_err(|e| format!("statement does not parse: {e}"))?;
    let oracle =
        execute_query(database, &parsed, params).map_err(|e| format!("oracle failed: {e}"))?;
    compare_results(rows, &oracle, !parsed.order_by.is_empty())
}

/// Analyzes one query through the connection's translator metadata, in
/// both transports (the delimited-text wrapper introduces its own
/// variables, so both final forms are checked): the static layers, and
/// layer 5 under its quick budget. Returns the rendered findings when the
/// analyzer is not clean; translation failures return `None` — they
/// surface through the normal execution path as rejections.
pub fn lint_query(conn: &Connection, sql: &str) -> Option<String> {
    let metadata = conn.translator().metadata();
    for transport in [Transport::DelimitedText, Transport::Xml] {
        if let Ok(analysis) = analyze_sql_with(
            sql,
            metadata,
            TranslationOptions::with_transport(transport),
            Some(&ValidateOptions::quick()),
        ) {
            if !analysis.report.is_clean() {
                return Some(format!(
                    "analyzer ({transport:?}): {}",
                    analysis.report.render()
                ));
            }
        }
    }
    None
}

/// The identity claim: same rows, same physical order.
fn identical(rows: &[Vec<SqlValue>], reference: &[Vec<SqlValue>], to: &str) -> Result<(), String> {
    if rows == reference {
        return Ok(());
    }
    let at = rows.iter().zip(reference).position(|(a, b)| a != b);
    Err(format!(
        "not identical to lane `{to}`: {} vs {} rows, first divergence at row {at:?}",
        rows.len(),
        reference.len()
    ))
}

/// Runs every statement of `corpus` on every lane of `lanes` against
/// `universe`, under `faults` when given. Per statement: parse, lint once
/// ([`lint_query`] on the fault-free metadata path; findings are
/// mismatches — the matrix doubles as a find-the-generator-bug machine),
/// ask the oracle once, then execute lane by lane.
pub fn run_matrix(
    universe: &Universe,
    corpus: &[(String, String)],
    lanes: &[Lane],
    faults: Option<&ChaosConfig>,
) -> MatrixReport {
    let server = &universe.server;
    // A connection captures the metadata fault hook when it opens, so the
    // lint connection opens before the injector goes in: analysis results
    // must be a pure function of the SQL, not of the fault plan.
    let lint_conn = Connection::open(Arc::clone(server));
    let injector = faults.map(|config| {
        let injector = Arc::new(FaultInjector::new(FaultConfig::uniform(
            config.seed ^ 0xC4A0_5CA0_5CA0_5EED,
            config.fault_rate,
        )));
        server.install_fault_injector(Some(Arc::clone(&injector)));
        injector
    });
    let open: Vec<(Connection, Option<Arc<PlanCache>>)> = lanes
        .iter()
        .map(|lane| {
            let cache = lane.cache.then(|| Arc::new(PlanCache::default()));
            let mut conn = match &cache {
                Some(cache) => {
                    Connection::open_with_cache(Arc::clone(server), lane.options, Arc::clone(cache))
                }
                None => Connection::open_with(Arc::clone(server), lane.options, Duration::ZERO),
            };
            conn.set_optimizer(lane.optimizer.clone());
            if let Some(config) = faults {
                conn.set_retry_policy(config.retry);
            }
            (conn, cache)
        })
        .collect();
    // The index of the earlier lane that lane `k` claims identity to.
    let reference = |k: usize| {
        let to = lanes[k].identical_to.as_ref()?;
        let found = lanes[..k].iter().position(|l| l.label == *to);
        Some(found.unwrap_or_else(|| panic!("`{}`: no earlier lane `{to}`", lanes[k].label)))
    };
    let runs_per_statement: usize = lanes.iter().map(|l| 1 + usize::from(l.cache)).sum();

    let mut report = MatrixReport {
        lanes: lanes
            .iter()
            .map(|lane| LaneReport {
                label: lane.label.clone(),
                fuel: vec![0; corpus.len()],
                ..LaneReport::default()
            })
            .collect(),
        ..MatrixReport::default()
    };
    for (index, (origin, sql)) in corpus.iter().enumerate() {
        let entry = report.per_origin.entry(origin.clone()).or_insert((0, 0));
        let ordinal = entry.1;
        entry.1 += 1;
        let (passed_before, mismatches_before) = (report.passed, report.mismatches.len());
        let mismatch = |lane: &str, reason: String| Mismatch {
            origin: origin.clone(),
            lane: lane.to_string(),
            sql: sql.clone(),
            reason,
        };
        let Ok(parsed) = parse_select(sql) else {
            report.rejected += 1;
            continue;
        };
        if let Some(reason) = lint_query(&lint_conn, sql) {
            report.mismatches.push(mismatch("lint", reason));
            continue;
        }
        // The oracle never sees faults: it is the ground truth a
        // successful (possibly retried) execution must reproduce.
        let oracle = match execute_query(&universe.oracle, &parsed, &[]) {
            Ok(relation) => relation,
            Err(e) => {
                let reason = format!("oracle failed: {e}");
                report.mismatches.push(mismatch("oracle", reason));
                continue;
            }
        };
        let ordered = !parsed.order_by.is_empty();
        // Each lane's rows from its latest execution, for identity claims.
        let mut rows_of: Vec<Option<Vec<Vec<SqlValue>>>> = vec![None; lanes.len()];
        for (k, lane) in lanes.iter().enumerate() {
            let (conn, cache) = &open[k];
            for _ in 0..1 + usize::from(lane.cache) {
                // Unlimited: lanes legitimately differ in fuel and in what
                // a row cap would measure, so no limit may fire on one
                // side only; the budget is here as the meter.
                let meter = QueryBudget::unlimited();
                let result = conn.execute_cached_governed(sql, &[], Some(&meter));
                let stats = &mut report.lanes[k];
                stats.fuel[index] = meter.fuel_consumed();
                stats.hash_operators += meter.hash_joins();
                stats.join_fallbacks += meter.join_fallbacks();
                stats.join_abandons += meter.join_abandons();
                let (indexes_built, index_hits) = meter.index_counts();
                stats.indexes_built += indexes_built;
                stats.index_hits += index_hits;
                let (sinks, sink_fallbacks) = meter.sink_counts();
                stats.sinks += sinks;
                stats.sink_fallbacks += sink_fallbacks;
                let (views, cells_pruned, view_fallbacks) = meter.view_counts();
                stats.views += views;
                stats.cells_pruned += cells_pruned;
                stats.view_fallbacks += view_fallbacks;
                let (lowered, declined, abandoned) = meter.lowering_counts(Lowering::Aggregate);
                stats.aggregates_lowered += lowered;
                stats.aggregates_declined += declined;
                stats.aggregates_abandoned += abandoned;
                let (lowered, declined, abandoned) = meter.lowering_counts(Lowering::Sort);
                stats.sorts_lowered += lowered;
                stats.sorts_declined += declined;
                stats.sorts_abandoned += abandoned;
                let (lowered, declined, abandoned) = meter.lowering_counts(Lowering::Set);
                stats.sets_lowered += lowered;
                stats.sets_declined += declined;
                stats.sets_abandoned += abandoned;
                let tag = match result {
                    Ok(rs) => {
                        let claim = reference(k).and_then(|r| Some((r, rows_of[r].as_ref()?)));
                        let verdict = compare_results(rs.rows(), &oracle, ordered)
                            .map_err(|reason| format!("vs oracle: {reason}"))
                            .and_then(|()| match claim {
                                Some((r, rows)) => identical(rs.rows(), rows, &lanes[r].label),
                                None => Ok(()),
                            });
                        rows_of[k] = Some(rs.rows().to_vec());
                        match verdict {
                            Ok(()) => {
                                report.passed += 1;
                                "ok".to_string()
                            }
                            Err(reason) => {
                                let tag = format!("MISMATCH:{reason}");
                                report.mismatches.push(mismatch(&lane.label, reason));
                                tag
                            }
                        }
                    }
                    Err(e) => {
                        rows_of[k] = None;
                        match e {
                            _ if faults.is_some() => report.typed_errors += 1,
                            DriverError::Translation(_) => report.rejected += 1,
                            _ => {
                                let reason = format!("execution failed: {e}");
                                report.mismatches.push(mismatch(&lane.label, reason));
                            }
                        }
                        format!("error:{e}")
                    }
                };
                report
                    .outcome_log
                    .push(format!("{origin}#{ordinal}/{}: {tag}", lane.label));
            }
            // After a warm execution that returned rows, the plan must be
            // resident under this exact text, and it is what the cache
            // will keep serving: it has to analyze clean.
            if let (Some(cache), Some(_)) = (cache, &rows_of[k]) {
                let epoch = conn.translator().metadata().epoch();
                let verdict = match cache.lookup_exact(sql, lane.options, epoch) {
                    None => Err("no exact-hit plan resident after a warm execution".to_string()),
                    Some(bound) => {
                        let plan = &bound.plan;
                        let stats = &mut report.lanes[k];
                        stats.analyzed += 1;
                        stats.rewritten +=
                            usize::from(plan.rewrite.as_ref().is_some_and(|t| t.applied() > 0));
                        let parsed = parse_program(&plan.translation.xquery);
                        stats.memoized +=
                            usize::from(parsed.as_ref().is_ok_and(|program| {
                                memoized_sources(program, lane.options.exec) > 0
                            }));
                        let analysis = QueryFacts::of(&plan.prepared).check(parsed.as_ref());
                        match analysis.is_clean() {
                            true => Ok(()),
                            false => {
                                Err(format!("cached plan has findings:\n{}", analysis.render()))
                            }
                        }
                    }
                };
                if let Err(reason) = verdict {
                    report.mismatches.push(mismatch(&lane.label, reason));
                }
            }
        }
        if report.passed - passed_before == runs_per_statement
            && report.mismatches.len() == mismatches_before
        {
            report.per_origin.get_mut(origin).expect("made above").0 += 1;
        }
    }

    for (stats, (conn, cache)) in report.lanes.iter_mut().zip(&open) {
        stats.cache = cache.as_ref().map(|c| c.stats());
        stats.retries = conn.retry_stats().retries;
    }
    if let Some(injector) = injector {
        report.fault_stats = injector.stats();
        server.install_fault_injector(None);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lanes(kinds: &[fn(Transport) -> Lane]) -> Vec<Lane> {
        kinds.iter().flat_map(Lane::both).collect()
    }

    #[test]
    fn small_differential_run_is_clean() {
        let report = run_matrix(
            &Universe::generated(Scale::small(), 11),
            &fuzzed_corpus(11, 3),
            &lanes(&[Lane::plain]),
            None,
        );
        assert!(report.is_clean(), "mismatches: {:#?}", report.mismatches);
        assert_eq!(report.passed, 66);
        assert_eq!(report.statements(), (33, 33));
    }

    #[test]
    fn small_exec_differential_run_is_clean() {
        let mut corpus = paper_corpus();
        corpus.extend(fuzzed_corpus(13, 2));
        let universe = Universe::generated(Scale::small(), 13);
        let report = run_matrix(&universe, &corpus, &lanes(&[Lane::plain, Lane::hash]), None);
        assert!(report.is_clean(), "mismatches: {:#?}", report.mismatches);
        assert_eq!(report.passed, 4 * corpus.len());
        let plain = report.lane("text");
        assert_eq!(plain.hash_operators, 0);
        assert_eq!((plain.indexes_built, plain.index_hits), (0, 0));
        for label in ["text+hash", "xml+hash"] {
            let lane = report.lane(label);
            assert!(
                lane.hash_operators > 0,
                "{label}: join classes should exercise the hash path"
            );
            assert_eq!(lane.join_abandons, 0, "{label}: a pipeline ran and raised");
            assert!(lane.index_hits > 0, "{label}: no join index was reused");
        }
        // One server, one epoch: what the first lane to ask built, every
        // later request found.
        assert!(
            report.indexes_built() <= universe.index_bound(),
            "{} indexes over one epoch",
            report.indexes_built()
        );
    }
}
