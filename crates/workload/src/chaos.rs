//! The fault plan of a matrix run — E6 under injected faults.
//!
//! A fault-free [`run_matrix`](crate::differential::run_matrix)
//! establishes that the driver stack agrees with the relational oracle.
//! Handing the same call a [`ChaosConfig`] re-runs the same corpus on the
//! same lanes with a [`FaultInjector`](aldsp_driver::FaultInjector) on the
//! driver/server boundary (failing metadata fetches, aborted executions,
//! timeouts, dropped and corrupted payloads) and retrying connections, and
//! the robustness invariant becomes:
//!
//! > Every execution either returns rows that match the relational oracle,
//! > or a typed [`DriverError`](aldsp_driver::DriverError) — never a
//! > panic, and never silently wrong rows after a retry.
//!
//! The generator, the data and every fault decision replay exactly per
//! `(seed, fault plan)`, so a failing run is reproducible from its
//! arguments alone.

use aldsp_driver::RetryPolicy;
use std::time::Duration;

/// The fault side of one matrix run.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seed of the fault plan.
    pub seed: u64,
    /// Overall fault rate, spread across operations by
    /// [`FaultConfig::uniform`](aldsp_driver::FaultConfig::uniform). At
    /// `0.0` the injector is installed and injects nothing.
    pub fault_rate: f64,
    /// Every lane's retry policy. The default keeps `deadline: None`: a
    /// wall-clock budget would make outcomes timing-dependent, and the
    /// tests assert byte-identical replays.
    pub retry: RetryPolicy,
}

impl ChaosConfig {
    /// Four attempts with microsecond backoffs at the given seed and rate.
    pub fn new(seed: u64, fault_rate: f64) -> ChaosConfig {
        ChaosConfig {
            seed,
            fault_rate,
            retry: RetryPolicy {
                max_attempts: 4,
                base_backoff: Duration::from_micros(20),
                max_backoff: Duration::from_micros(200),
                deadline: None,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::differential::{fuzzed_corpus, run_matrix, Lane, MatrixReport, Universe};
    use crate::schema::Scale;

    /// Plain and cached lanes on both transports: this crate cannot build
    /// the optimizer, so the production lane's chaos runs are in the root
    /// package's `tests/chaos.rs`.
    fn chaos(seed: u64, fault_rate: f64) -> MatrixReport {
        let mut lanes = Lane::both(Lane::plain);
        lanes.extend(Lane::both(Lane::cached));
        run_matrix(
            &Universe::generated(Scale::small(), seed),
            &fuzzed_corpus(seed, 3),
            &lanes,
            Some(&ChaosConfig::new(seed, fault_rate)),
        )
    }

    #[test]
    fn zero_fault_rate_matches_differential_behavior() {
        let report = chaos(11, 0.0);
        assert!(report.is_clean(), "{:#?}", report.mismatches);
        assert_eq!(report.typed_errors, 0);
        assert_eq!(report.fault_stats.total(), 0);
        assert_eq!(report.passed, report.outcome_log.len());
    }

    #[test]
    fn faulted_run_holds_invariant_and_recovers_some_queries() {
        let report = chaos(11, 0.2);
        assert!(report.is_clean(), "{:#?}", report.mismatches);
        assert!(report.fault_stats.total() > 0, "plan injected nothing");
        assert!(report.retries() > 0, "no retries despite faults");
        assert!(report.passed > 0, "nothing survived the fault plan");
    }

    #[test]
    fn chaos_runs_replay_byte_identically() {
        let a = chaos(23, 0.3);
        let b = chaos(23, 0.3);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fault_stats, b.fault_stats);
        let c = chaos(24, 0.3);
        assert_ne!(a.fingerprint(), c.fingerprint(), "seed has no effect");
    }
}
