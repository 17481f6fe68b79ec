//! The overload chaos harness — resource governance under pressure.
//!
//! [`chaos`](crate::chaos) establishes robustness against *boundary*
//! faults. This harness attacks the other failure axis: resource
//! exhaustion. `threads` workers hammer one governed [`QueryService`]
//! with a mix of well-behaved reporting queries and deliberately
//! pathological statements — deeply nested expressions, unbounded
//! cartesian products under a tiny fuel budget, oversized statement
//! texts, pre-cancelled budgets — optionally under an injected fault
//! plan, and checks the governance invariant:
//!
//! > The service never panics and never returns wrong rows. Every
//! > rejection is a *typed* error ([`DriverError::Overloaded`],
//! > [`DriverError::BudgetExceeded`], [`DriverError::Cancelled`],
//! > [`DriverError::DepthExceeded`], or a PR-1 fault-taxonomy error),
//! > and an admitted, well-budgeted query returns rows byte-identical
//! > to the relational oracle.
//!
//! The governor's accounting identity
//! (`submitted == admitted + shed + breaker + statement` — see
//! [`GovernorStats::is_consistent`]) must hold at the end of every run,
//! however many threads raced.

use crate::cached::report_statement;
use crate::differential::{check_against_oracle, Lane, Universe};
use crate::schema::Scale;
use aldsp_core::Transport;
use aldsp_driver::{
    DriverError, FaultConfig, FaultInjector, GovernorConfig, GovernorStats, QueryBudget,
    QueryService,
};
use aldsp_plancache::CacheStats;
use aldsp_relational::SqlValue;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// One overload run's parameters.
#[derive(Clone)]
pub struct OverloadConfig {
    /// Seed for data and the fault plan.
    pub seed: u64,
    /// Worker threads hammering the service concurrently.
    pub threads: usize,
    /// Statements per worker (the good/pathological mix cycles per
    /// statement).
    pub iterations_per_thread: usize,
    /// Data scale.
    pub scale: Scale,
    /// Boundary fault rate (0.0 = faults off; governance pressure only).
    pub fault_rate: f64,
    /// Governor tuning for the service under test.
    pub governor: GovernorConfig,
    /// The configuration of the service under test.
    pub lane: Lane,
}

impl OverloadConfig {
    /// A small, fast configuration: admission capacity 2 with a short
    /// queue, a modest statement cap, the default breaker, and a
    /// default-options service (E9's).
    pub fn new(seed: u64, threads: usize) -> OverloadConfig {
        OverloadConfig {
            seed,
            threads,
            iterations_per_thread: 12,
            scale: Scale::small(),
            fault_rate: 0.0,
            governor: GovernorConfig {
                max_concurrency: 2,
                queue_timeout: std::time::Duration::from_millis(5),
                max_statement_bytes: 4096,
                ..GovernorConfig::default()
            },
            lane: Lane::cached(Transport::DelimitedText),
        }
    }
}

/// The statement mix, cycled per iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A well-formed reporting query under a generous budget; when it
    /// runs, its rows must match the oracle.
    Good,
    /// Expression nesting far past `aldsp_sql::MAX_PARSE_DEPTH`.
    Nested,
    /// A three-way cartesian product under a tiny fuel budget.
    Starved,
    /// Statement text past the governor's size cap.
    Oversized,
    /// A budget whose cancellation token fired before submission.
    Cancelled,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Good => "good",
            Kind::Nested => "nested",
            Kind::Starved => "starved",
            Kind::Oversized => "oversized",
            Kind::Cancelled => "cancelled",
        }
    }
}

/// Aggregate outcome of one overload run.
#[derive(Debug, Clone, Default)]
pub struct OverloadReport {
    /// Statements submitted across all workers.
    pub executions: usize,
    /// Good queries that ran and matched the oracle.
    pub passed: usize,
    /// Typed rejections, by driver-error tag prefix (overloaded, budget,
    /// cancelled, depth, plus the PR-1 fault taxonomy).
    pub typed_errors: usize,
    /// Worker panics caught (the invariant demands zero).
    pub panics: usize,
    /// Invariant violations, one line each: wrong rows, a panic, or an
    /// error class impossible for the statement that produced it.
    pub violations: Vec<String>,
    /// Per-kind (kind, signature-error) hit counts, e.g. how many
    /// `nested` statements actually surfaced `DepthExceeded`.
    pub signature_hits: Vec<(&'static str, usize)>,
    /// Latencies of *admitted* good-query executions, in microseconds
    /// (the E9 benchmark derives p95 from this).
    pub good_latencies_us: Vec<u64>,
    /// Final governor counters.
    pub governor: GovernorStats,
    /// Final shared-cache counters.
    pub cache: CacheStats,
}

impl OverloadReport {
    /// The governance invariant: no panics, no wrong rows, no
    /// out-of-taxonomy errors, and consistent governor accounting.
    pub fn invariant_holds(&self) -> bool {
        self.panics == 0 && self.violations.is_empty() && self.governor.is_consistent()
    }

    /// Queries shed before execution (queue timeout + open breaker).
    pub fn shed(&self) -> u64 {
        self.governor.shed + self.governor.breaker_rejections
    }

    /// p95 of admitted good-query latencies, in microseconds (0 when
    /// nothing ran).
    pub fn p95_latency_us(&self) -> u64 {
        if self.good_latencies_us.is_empty() {
            return 0;
        }
        let mut sorted = self.good_latencies_us.clone();
        sorted.sort_unstable();
        sorted[(sorted.len() - 1) * 95 / 100]
    }
}

/// The well-behaved template mix (all oracle-checkable): the two
/// single-table `?` templates and the literal one, cycled.
fn good_statement(turn: usize) -> (String, Vec<SqlValue>) {
    report_statement([0, 1, 3][turn % 3], (turn % 10 + 1) as i64)
}

/// A WHERE expression nested ~400 parentheses deep — far past the SQL
/// parser's recursion limit, far short of anything that could overflow a
/// stack.
fn nested_statement() -> String {
    let depth = 400;
    format!(
        "SELECT CUSTOMERID FROM CUSTOMERS WHERE {}1 = 1{}",
        "(".repeat(depth),
        ")".repeat(depth)
    )
}

/// A three-way cartesian product (25 x 60 x 40 tuples at small scale):
/// cheap to translate, ruinous to evaluate without a fuel budget.
const STARVED_SQL: &str =
    "SELECT CUSTOMERS.CUSTOMERID FROM CUSTOMERS, ORDERS, PAYMENTS WHERE CUSTOMERS.CUSTOMERID > 0";

/// Pads a valid statement past the governor's size cap.
fn oversized_statement(cap: usize) -> String {
    let mut sql = String::from("SELECT CUSTOMERID FROM CUSTOMERS");
    sql.push_str(&" ".repeat(cap + 1));
    sql
}

/// Classifies one outcome against the allowed set for its kind. Returns
/// `Err(reason)` on an invariant violation, `Ok(signature_hit)` with
/// whether the kind's signature rejection fired.
fn classify(
    kind: Kind,
    outcome: &Result<(), DriverError>,
    faults_on: bool,
) -> Result<bool, String> {
    match (kind, outcome) {
        (_, Ok(())) if kind == Kind::Good => Ok(false),
        (_, Ok(())) => Err(format!(
            "{} statement executed successfully — its guard never fired",
            kind.label()
        )),
        // Admission shedding is legitimate for every kind: the governor
        // rejects before it can tell good statements from bad.
        (_, Err(DriverError::Overloaded(_))) => Ok(false),
        // `Usage` on a good template is the harness's own wrong-rows /
        // oracle-failure marker (the templates cannot misuse the API) —
        // never excusable, faults or not.
        (Kind::Good, Err(DriverError::Usage(m))) => Err(format!("good statement: {m}")),
        (Kind::Good, Err(e)) => {
            // Under an injected fault plan, good statements may exhaust
            // their retries and surface any PR-1 taxonomy error. Without
            // faults, a good statement must not fail at all (shedding was
            // handled above).
            if faults_on {
                Ok(false)
            } else {
                Err(format!("good statement failed without faults: {e}"))
            }
        }
        (Kind::Nested, Err(DriverError::DepthExceeded(_))) => Ok(true),
        (Kind::Starved, Err(DriverError::BudgetExceeded(_))) => Ok(true),
        (Kind::Oversized, Err(DriverError::BudgetExceeded(_))) => Ok(true),
        (Kind::Cancelled, Err(DriverError::Cancelled(_))) => Ok(true),
        // With faults on, a pathological statement can trip a boundary
        // fault before its own guard (e.g. a metadata fetch dies before
        // the fuel runs out). The error must still be typed — which it
        // is, by construction — but only the PR-1 taxonomy is excused.
        (_, Err(e)) if faults_on && e.is_transient() => Ok(false),
        (_, Err(DriverError::Execution(_))) if faults_on => Ok(false),
        (kind, Err(e)) => Err(format!(
            "{} statement surfaced the wrong error class: {e}",
            kind.label()
        )),
    }
}

/// Drives a governed [`QueryService`] from `threads` workers with the
/// good/pathological mix and verifies the governance invariant. Workers
/// run free (no barriers): contention on the admission gate is the point.
pub fn run_overload(config: &OverloadConfig) -> OverloadReport {
    let universe = Universe::generated(config.scale, config.seed);
    let (server, oracle_db) = (&universe.server, &universe.oracle);
    if config.fault_rate > 0.0 {
        let injector = Arc::new(FaultInjector::new(FaultConfig::uniform(
            config.seed ^ 0x07E8_10AD,
            config.fault_rate,
        )));
        server.install_fault_injector(Some(injector));
    }
    let service = config
        .lane
        .service(Arc::clone(server))
        .with_governor(config.governor);
    let faults_on = config.fault_rate > 0.0;
    let statement_cap = config.governor.max_statement_bytes.max(1);

    let mix = [
        Kind::Good,
        Kind::Good,
        Kind::Nested,
        Kind::Good,
        Kind::Starved,
        Kind::Good,
        Kind::Oversized,
        Kind::Cancelled,
    ];

    let outcomes: Vec<WorkerOutcome> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..config.threads)
            .map(|worker| {
                let service = &service;
                scope.spawn(move || {
                    let mut out = WorkerOutcome::default();
                    for turn in 0..config.iterations_per_thread {
                        let kind = mix[(worker + turn) % mix.len()];
                        let attempt = catch_unwind(AssertUnwindSafe(|| {
                            run_one(service, oracle_db, kind, worker + turn, statement_cap)
                        }));
                        out.executions += 1;
                        match attempt {
                            Ok((result, latency_us)) => {
                                if result.is_err() {
                                    out.typed_errors += 1;
                                }
                                if let Some(us) = latency_us {
                                    out.good_latencies_us.push(us);
                                }
                                match classify(kind, &result, faults_on) {
                                    Ok(true) => add_hits(&mut out.signature_hits, kind.label(), 1),
                                    Ok(false) => {}
                                    Err(reason) => out.violations.push(reason),
                                }
                                if kind == Kind::Good && result.is_ok() {
                                    out.passed += 1;
                                }
                            }
                            Err(_) => {
                                out.panics += 1;
                                out.violations
                                    .push(format!("{} statement panicked", kind.label()));
                            }
                        }
                    }
                    out
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });

    let mut report = OverloadReport::default();
    for out in outcomes {
        report.executions += out.executions;
        report.passed += out.passed;
        report.typed_errors += out.typed_errors;
        report.panics += out.panics;
        report.violations.extend(out.violations);
        report.good_latencies_us.extend(out.good_latencies_us);
        for (label, n) in out.signature_hits {
            add_hits(&mut report.signature_hits, label, n);
        }
    }
    report.governor = service.governor_stats();
    report.cache = service.cache_stats();
    report
}

#[derive(Debug, Default)]
struct WorkerOutcome {
    executions: usize,
    passed: usize,
    typed_errors: usize,
    panics: usize,
    violations: Vec<String>,
    signature_hits: Vec<(&'static str, usize)>,
    good_latencies_us: Vec<u64>,
}

/// Adds `n` signature rejections of the kind labelled `label`.
fn add_hits(hits: &mut Vec<(&'static str, usize)>, label: &'static str, n: usize) {
    match hits.iter_mut().find(|(l, _)| *l == label) {
        Some((_, total)) => *total += n,
        None => hits.push((label, n)),
    }
}

/// Executes one statement of `kind`, returning the simplified outcome
/// and — for admitted good statements — the wall-clock latency.
fn run_one(
    service: &QueryService,
    oracle_db: &aldsp_relational::Database,
    kind: Kind,
    turn: usize,
    statement_cap: usize,
) -> (Result<(), DriverError>, Option<u64>) {
    match kind {
        Kind::Good => {
            let (sql, params) = good_statement(turn);
            let budget = QueryBudget::unlimited()
                .with_deadline(std::time::Duration::from_secs(10))
                .with_fuel(10_000_000);
            let started = Instant::now();
            match service.execute_with_budget(&sql, &params, Some(&budget)) {
                Ok(rs) => {
                    let latency = started.elapsed().as_micros() as u64;
                    // `Usage` on a good template marks wrong rows: the
                    // templates cannot misuse the API.
                    let verdict = check_against_oracle(oracle_db, &sql, &params, rs.rows());
                    (verdict.map_err(DriverError::Usage), Some(latency))
                }
                Err(e) => (Err(e), None),
            }
        }
        Kind::Nested => {
            let sql = nested_statement();
            let result = service.execute(&sql, &[]).map(|_| ());
            (result, None)
        }
        Kind::Starved => {
            let budget = QueryBudget::unlimited().with_fuel(50);
            let result = service
                .execute_with_budget(STARVED_SQL, &[], Some(&budget))
                .map(|_| ());
            (result, None)
        }
        Kind::Oversized => {
            let sql = oversized_statement(statement_cap);
            let result = service.execute(&sql, &[]).map(|_| ());
            (result, None)
        }
        Kind::Cancelled => {
            let budget = QueryBudget::unlimited();
            budget.cancel();
            let (sql, params) = good_statement(turn);
            let result = service
                .execute_with_budget(&sql, &params, Some(&budget))
                .map(|_| ());
            (result, None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn governed_overload_holds_invariant_across_8_threads() {
        let mut config = OverloadConfig::new(41, 8);
        config.iterations_per_thread = 16;
        let report = run_overload(&config);
        assert!(
            report.invariant_holds(),
            "violations: {:#?}\ngovernor: {:#?}",
            report.violations,
            report.governor
        );
        assert_eq!(report.panics, 0);
        assert_eq!(report.executions, 8 * 16);
        assert_eq!(report.governor.submitted, 8 * 16);
        assert!(report.passed > 0, "no good query survived admission");
    }

    #[test]
    fn every_pathological_class_fires_its_signature_rejection() {
        // Single thread, capacity ample: nothing is shed, so every
        // pathological statement must reach its own guard.
        let mut config = OverloadConfig::new(5, 1);
        config.iterations_per_thread = mix_len() * 2;
        config.governor.max_concurrency = 8;
        config.governor.queue_timeout = std::time::Duration::from_secs(1);
        let report = run_overload(&config);
        assert!(report.invariant_holds(), "{:#?}", report.violations);
        for expected in ["nested", "starved", "oversized", "cancelled"] {
            let hits = report
                .signature_hits
                .iter()
                .find(|(l, _)| *l == expected)
                .map(|(_, n)| *n)
                .unwrap_or(0);
            assert!(hits > 0, "{expected} never surfaced its typed rejection");
        }
        assert_eq!(report.governor.statement_rejections, 2);
        assert!(report.governor.is_consistent(), "{:#?}", report.governor);
    }

    #[test]
    fn tight_admission_sheds_under_contention() {
        let mut config = OverloadConfig::new(17, 8);
        config.iterations_per_thread = 24;
        config.governor.max_concurrency = 1;
        config.governor.queue_timeout = std::time::Duration::from_micros(50);
        let report = run_overload(&config);
        assert!(report.invariant_holds(), "{:#?}", report.violations);
        assert!(
            report.governor.shed > 0,
            "8 threads against capacity 1 never shed: {:#?}",
            report.governor
        );
    }

    #[test]
    fn overload_with_faults_still_types_every_failure() {
        let mut config = OverloadConfig::new(29, 4);
        config.fault_rate = 0.2;
        config.iterations_per_thread = 16;
        let report = run_overload(&config);
        assert!(
            report.invariant_holds(),
            "violations: {:#?}",
            report.violations
        );
        assert_eq!(report.panics, 0);
        assert!(report.governor.is_consistent(), "{:#?}", report.governor);
    }

    fn mix_len() -> usize {
        8
    }
}
