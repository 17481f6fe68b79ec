//! The chaos differential harness — E6 under injected faults.
//!
//! [`differential`](crate::differential) establishes that the driver
//! stack agrees with the relational oracle on a fault-free boundary. This
//! harness re-runs the same generated workload with a
//! [`FaultInjector`](aldsp_driver::FaultInjector) on the driver/server
//! boundary (failing metadata fetches, aborted executions, timeouts,
//! dropped and corrupted payloads) and a retrying connection, and checks
//! the robustness invariant:
//!
//! > Every query either returns rows that match the relational oracle, or
//! > a typed [`DriverError`] — never a panic, and never silently wrong
//! > rows after a retry.
//!
//! Everything is deterministic per `(seed, fault plan)`: the generator,
//! the data, and every fault decision replay exactly, so a failing run is
//! reproducible from its config alone. [`ChaosReport::fingerprint`]
//! canonicalizes the per-query outcomes for byte-identical comparison
//! across runs.

use crate::differential::{compare_results, lint_query, Mismatch};
use crate::querygen::{ConstructClass, QueryGenerator};
use crate::schema::{build_application, populate_database, Scale};
use aldsp_driver::{
    Connection, DriverError, DspServer, FaultConfig, FaultInjector, FaultStats, RetryPolicy,
};
use aldsp_relational::execute_query;
use aldsp_sql::parse_select;

use std::sync::Arc;
use std::time::Duration;

/// One chaos run's parameters.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seed for data, query generation, and the fault plan.
    pub seed: u64,
    /// Queries per construct class.
    pub count_per_class: usize,
    /// Data scale.
    pub scale: Scale,
    /// Overall fault rate, spread across operations by
    /// [`FaultConfig::uniform`]. `0.0` degenerates to the fault-free
    /// differential run.
    pub fault_rate: f64,
    /// The connection retry policy. The default keeps `deadline: None`:
    /// a wall-clock budget would make outcomes timing-dependent, and the
    /// harness asserts byte-identical replays.
    pub retry: RetryPolicy,
    /// Statically analyze every generated query (through a separate,
    /// fault-free metadata path — lint results must not depend on the
    /// fault plan) before executing it; findings are mismatches.
    pub lint: bool,
}

impl ChaosConfig {
    /// A small, fast configuration at the given seed and fault rate.
    pub fn new(seed: u64, fault_rate: f64) -> ChaosConfig {
        ChaosConfig {
            seed,
            count_per_class: 3,
            scale: Scale::small(),
            fault_rate,
            retry: RetryPolicy {
                max_attempts: 4,
                base_backoff: Duration::from_micros(20),
                max_backoff: Duration::from_micros(200),
                deadline: None,
            },
            lint: true,
        }
    }
}

/// Aggregate outcome of one chaos run.
#[derive(Debug, Clone, Default)]
pub struct ChaosReport {
    /// Executions that returned rows matching the oracle (possibly after
    /// retries).
    pub passed: usize,
    /// Executions that surfaced a typed error — the acceptable failure
    /// mode under faults.
    pub typed_errors: usize,
    /// Invariant violations: wrong rows, or error shapes that should be
    /// impossible under the plan.
    pub mismatches: Vec<Mismatch>,
    /// One canonical line per execution, in order.
    pub outcome_log: Vec<String>,
    /// What the injector actually did.
    pub fault_stats: FaultStats,
    /// Transient retries across both connections.
    pub retries: u64,
}

impl ChaosReport {
    /// Executions performed.
    pub fn total(&self) -> usize {
        self.passed + self.typed_errors + self.mismatches.len()
    }

    /// The robustness invariant: no wrong rows, no untyped failures.
    pub fn invariant_holds(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// The canonical outcome transcript; equal seeds and plans must
    /// produce byte-identical fingerprints.
    pub fn fingerprint(&self) -> String {
        self.outcome_log.join("\n")
    }
}

/// A stable, deterministic tag for an execution outcome.
pub(crate) fn error_tag(e: &DriverError) -> String {
    match e {
        DriverError::Translation(inner) => format!("error:translation:{inner}"),
        DriverError::Execution(m) => format!("error:execution:{m}"),
        DriverError::Transient(m) => format!("error:transient:{m}"),
        DriverError::Timeout(m) => format!("error:timeout:{m}"),
        DriverError::StaleMetadata { .. } => "error:stale-metadata".to_string(),
        DriverError::Decode(m) => format!("error:decode:{m}"),
        DriverError::Usage(m) => format!("error:usage:{m}"),
        DriverError::BudgetExceeded(m) => format!("error:budget:{m}"),
        DriverError::Cancelled(m) => format!("error:cancelled:{m}"),
        // Shed queries carry the queue-timeout duration in the message;
        // keep the tag message-free so fingerprints stay deterministic.
        DriverError::Overloaded(_) => "error:overloaded".to_string(),
        DriverError::DepthExceeded(m) => format!("error:depth:{m}"),
    }
}

/// Runs the generated workload through both transports under the fault
/// plan, comparing successful executions against the fault-free
/// relational oracle.
pub fn run_chaos(config: &ChaosConfig) -> ChaosReport {
    #[cfg(feature = "debug-analyze")]
    aldsp_analyzer::install_debug_validator();
    let app = build_application();
    let db = populate_database(&app, config.scale, config.seed);
    let oracle_db = db.clone();
    let server = Arc::new(DspServer::new(app, db));
    // The lint connection gets its own fault-free server: the injector
    // below intercepts metadata fetches on the main server, and analysis
    // results must be a pure function of (seed, sql), not of the plan.
    let lint_conn = config.lint.then(|| {
        Connection::open(Arc::new(DspServer::new(
            build_application(),
            aldsp_relational::Database::new(),
        )))
    });
    let injector = Arc::new(FaultInjector::new(FaultConfig::uniform(
        config.seed ^ 0xC4A0_5CA0_5CA0_5EED,
        config.fault_rate,
    )));
    server.install_fault_injector(Some(Arc::clone(&injector)));

    let open = |transport| {
        let mut conn = Connection::open_with(
            Arc::clone(&server),
            aldsp_core::TranslationOptions::with_transport(transport),
            Duration::ZERO,
        );
        conn.set_retry_policy(config.retry);
        conn
    };
    let connections = [
        ("text", open(aldsp_core::Transport::DelimitedText)),
        ("xml", open(aldsp_core::Transport::Xml)),
    ];

    let mut generator = QueryGenerator::new(config.seed);
    let mut report = ChaosReport::default();

    for class in ConstructClass::all() {
        for i in 0..config.count_per_class {
            let sql = generator.generate(*class);
            // The oracle never sees faults: it defines the ground truth a
            // successful (possibly retried) execution must reproduce.
            let parsed = match parse_select(&sql) {
                Ok(p) => p,
                Err(e) => {
                    report.mismatches.push(Mismatch {
                        sql,
                        class: *class,
                        reason: format!("generator produced unparseable SQL: {e}"),
                    });
                    continue;
                }
            };
            if let Some(conn) = &lint_conn {
                if let Some(reason) = lint_query(conn, &sql) {
                    report.mismatches.push(Mismatch {
                        sql,
                        class: *class,
                        reason,
                    });
                    continue;
                }
            }
            let ordered = !parsed.order_by.is_empty();
            let oracle = match execute_query(&oracle_db, &parsed, &[]) {
                Ok(r) => r,
                Err(e) => {
                    report.mismatches.push(Mismatch {
                        sql,
                        class: *class,
                        reason: format!("oracle failed: {e}"),
                    });
                    continue;
                }
            };

            for (label, conn) in &connections {
                let tag = match conn.create_statement().execute_query(&sql) {
                    Ok(rs) => match compare_results(rs.rows(), &oracle, ordered) {
                        Ok(()) => {
                            report.passed += 1;
                            "ok".to_string()
                        }
                        Err(reason) => {
                            report.mismatches.push(Mismatch {
                                sql: sql.clone(),
                                class: *class,
                                reason: format!(
                                    "{label} transport returned wrong rows under faults: {reason}"
                                ),
                            });
                            format!("MISMATCH:{reason}")
                        }
                    },
                    Err(e) => {
                        report.typed_errors += 1;
                        error_tag(&e)
                    }
                };
                report
                    .outcome_log
                    .push(format!("{}#{i}/{label}: {tag}", class.label()));
            }
        }
    }

    report.fault_stats = injector.stats();
    report.retries = connections
        .iter()
        .map(|(_, c)| c.retry_stats().retries)
        .sum();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fault_rate_matches_differential_behavior() {
        let report = run_chaos(&ChaosConfig::new(11, 0.0));
        assert!(report.invariant_holds(), "{:#?}", report.mismatches);
        assert_eq!(report.typed_errors, 0);
        assert_eq!(report.fault_stats.total(), 0);
        assert_eq!(report.passed, report.total());
    }

    #[test]
    fn faulted_run_holds_invariant_and_recovers_some_queries() {
        let report = run_chaos(&ChaosConfig::new(11, 0.2));
        assert!(report.invariant_holds(), "{:#?}", report.mismatches);
        assert!(report.fault_stats.total() > 0, "plan injected nothing");
        assert!(report.retries > 0, "no retries despite faults");
        assert!(report.passed > 0, "nothing survived the fault plan");
    }

    #[test]
    fn chaos_runs_replay_byte_identically() {
        let a = run_chaos(&ChaosConfig::new(23, 0.3));
        let b = run_chaos(&ChaosConfig::new(23, 0.3));
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fault_stats, b.fault_stats);
        let c = run_chaos(&ChaosConfig::new(24, 0.3));
        assert_ne!(a.fingerprint(), c.fingerprint(), "seed has no effect");
    }
}
