//! The plan-cache reload race.
//!
//! Cached == fresh is a lane of the differential matrix
//! ([`Lane::cached`]: cold and warm executions identical to the fresh
//! translation's rows, the resident plan an exact hit that analyzes
//! clean). This module holds the invariant a single-threaded matrix cannot
//! check — **never stale** ([`run_cache_consistency`]): a multi-threaded
//! [`QueryService`](aldsp_driver::QueryService) racing a mid-run
//! [`DspServer::reload`](aldsp_driver::DspServer::reload) must return rows matching either the old-catalog
//! oracle or the new-catalog oracle for every execution — never a stale or
//! mixed answer. The epoch tags on cached entries are what makes this
//! hold: a reload bumps the server epoch, and every post-reload lookup
//! invalidates the entry instead of serving it.

use crate::differential::{check_against_oracle, Lane, Universe};
use crate::schema::{build_application, populate_database, Scale};
use aldsp_core::Transport;
use aldsp_plancache::CacheStats;
use aldsp_relational::{Database, SqlValue};
use std::sync::{Arc, Barrier};

/// One cache-consistency run's parameters.
#[derive(Clone)]
pub struct CacheConsistencyConfig {
    /// Seed for the two data populations (old catalog: `seed`, new
    /// catalog: `seed + 1`).
    pub seed: u64,
    /// Worker threads driving the service concurrently.
    pub threads: usize,
    /// Executions per thread in each of the three phases (before the
    /// reload, racing it, and after it).
    pub iterations_per_phase: usize,
    /// Data scale.
    pub scale: Scale,
    /// The configuration of the service under test.
    pub lane: Lane,
}

impl CacheConsistencyConfig {
    /// A small, fast configuration: a default-options service (E8's).
    pub fn new(seed: u64, threads: usize) -> CacheConsistencyConfig {
        CacheConsistencyConfig {
            seed,
            threads,
            iterations_per_phase: 4,
            scale: Scale::small(),
            lane: Lane::cached(Transport::DelimitedText),
        }
    }
}

/// Aggregate outcome of one cache-consistency run.
#[derive(Debug, Clone, Default)]
pub struct CacheConsistencyReport {
    /// Total executions across all threads and phases.
    pub executions: usize,
    /// Executions whose rows matched the old-catalog oracle.
    pub matched_old: usize,
    /// Executions whose rows matched the new-catalog oracle.
    pub matched_new: usize,
    /// Invariant violations: rows matching neither oracle (a stale or
    /// mixed answer), or an execution error (this run injects no faults,
    /// so every statement must succeed).
    pub mismatches: Vec<String>,
    /// Final shared-cache counters.
    pub cache_stats: CacheStats,
}

impl CacheConsistencyReport {
    /// The consistency invariant: every execution matched one catalog
    /// generation in full.
    pub fn invariant_holds(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// The reporting-statement templates the threaded scenarios and E8
/// replay. Templates 0–2 carry a `?` marker bound to `v`; template 3 bakes
/// `v` in as a literal, so distinct values produce distinct SQL texts that
/// the normalizer folds onto one shared plan.
pub fn report_statement(template: usize, v: i64) -> (String, Vec<SqlValue>) {
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

/// Which catalog generation one execution's rows matched. Queries over
/// data the reload leaves unchanged (sequential key columns) legitimately
/// match both generations.
enum Generation {
    Old,
    New,
    Both,
    Neither(String),
}

fn classify(
    sql: &str,
    params: &[SqlValue],
    rows: &[Vec<SqlValue>],
    old_db: &Database,
    new_db: &Database,
) -> Generation {
    let matches = |db: &Database| check_against_oracle(db, sql, params, rows);
    match (matches(old_db), matches(new_db)) {
        (Ok(()), Ok(())) => Generation::Both,
        (Ok(()), Err(_)) => Generation::Old,
        (Err(_), Ok(())) => Generation::New,
        (Err(_), Err(reason)) => Generation::Neither(format!(
            "rows match neither catalog generation (vs new: {reason})"
        )),
    }
}

/// Drives a shared [`QueryService`] from `threads` workers while the
/// catalog is reloaded mid-run, and classifies every result against the
/// old- and new-catalog relational oracles.
///
/// The run has three phases, fenced by barriers so the claim per phase is
/// exact:
///
/// 1. **Warm-up** — the reload has not happened; every result must match
///    the old oracle (and the shared cache fills up with old-epoch
///    plans).
/// 2. **Race** — the main thread reloads the server while workers keep
///    executing; each result may match either generation, but must match
///    one of them in full.
/// 3. **Settled** — the reload is complete before the phase starts; every
///    result must match the new oracle. Old-epoch plans cached in phase 1
///    must be invalidated here (epoch tag or server rejection), never
///    served.
pub fn run_cache_consistency(config: &CacheConsistencyConfig) -> CacheConsistencyReport {
    let universe = Universe::generated(config.scale, config.seed);
    let (server, old_oracle) = (&universe.server, &universe.oracle);
    let new_db = populate_database(
        &build_application(),
        config.scale,
        config.seed.wrapping_add(1),
    );
    let new_oracle = new_db.clone();
    let service = config.lane.service(Arc::clone(server));
    // threads + 1: the main thread participates to place the reload
    // between the phase fences.
    let fence = Barrier::new(config.threads + 1);
    let per_phase = config.iterations_per_phase;

    let mut report = CacheConsistencyReport::default();
    let outcomes: Vec<(usize, usize, Vec<String>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..config.threads)
            .map(|worker| {
                let service = &service;
                let fence = &fence;
                let new_oracle = &new_oracle;
                scope.spawn(move || {
                    let mut matched = (0usize, 0usize);
                    let mut mismatches = Vec::new();
                    let mut run = |phase: usize, turn: usize, expect: &str| {
                        let v = (worker * per_phase + turn) as i64 % 10 + 1;
                        let (sql, params) = report_statement(worker + turn, v);
                        match service.execute(&sql, &params) {
                            Ok(rs) => {
                                let generation =
                                    classify(&sql, &params, rs.rows(), old_oracle, new_oracle);
                                match generation {
                                    Generation::Both if expect == "old" => matched.0 += 1,
                                    Generation::Both => matched.1 += 1,
                                    Generation::Old if expect != "new" => matched.0 += 1,
                                    Generation::New if expect != "old" => matched.1 += 1,
                                    Generation::Old => mismatches.push(format!(
                                        "phase {phase}: stale (old-catalog) rows served \
                                         after reload for `{sql}`"
                                    )),
                                    Generation::New => mismatches.push(format!(
                                        "phase {phase}: new-catalog rows served before \
                                         reload for `{sql}`"
                                    )),
                                    Generation::Neither(reason) => {
                                        mismatches.push(format!("phase {phase}: `{sql}`: {reason}"))
                                    }
                                }
                            }
                            Err(e) => {
                                mismatches.push(format!("phase {phase}: `{sql}` failed: {e}"))
                            }
                        }
                    };
                    for turn in 0..per_phase {
                        run(1, turn, "old");
                    }
                    fence.wait();
                    for turn in 0..per_phase {
                        run(2, turn, "either");
                    }
                    fence.wait();
                    for turn in 0..per_phase {
                        run(3, turn, "new");
                    }
                    (matched.0, matched.1, mismatches)
                })
            })
            .collect();

        fence.wait(); // end of phase 1 — all warm-up executions are done
        server.reload(build_application(), new_db); // races phase 2
        fence.wait(); // reload complete — phase 3 may begin

        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });

    for (old, new, mismatches) in outcomes {
        report.matched_old += old;
        report.matched_new += new;
        report.executions += old + new + mismatches.len();
        report.mismatches.extend(mismatches);
    }
    report.cache_stats = service.cache_stats();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cached_execution_matches_fresh_on_golden_and_fuzzed_queries() {
        use crate::differential::{fuzzed_corpus, paper_corpus, run_matrix, Universe};
        let mut corpus = paper_corpus();
        corpus.extend(fuzzed_corpus(7, 2));
        let mut lanes = Lane::both(Lane::plain);
        lanes.extend(Lane::both(Lane::cached));
        let universe = Universe::generated(Scale::small(), 7);
        let report = run_matrix(&universe, &corpus, &lanes, None);
        assert!(report.is_clean(), "{:#?}", report.mismatches);
        for label in ["text+cache", "xml+cache"] {
            let lane = report.lane(label);
            assert_eq!(
                lane.analyzed,
                corpus.len(),
                "{label}: a plan skipped the analyzer"
            );
            let stats = lane.cache.expect("a cached lane reports its counters");
            assert!(stats.exact_hits > 0, "{label}: warm executions never hit");
        }
    }

    #[test]
    fn concurrent_service_never_serves_stale_plans_across_reload() {
        let report = run_cache_consistency(&CacheConsistencyConfig::new(3, 4));
        assert!(report.invariant_holds(), "{:#?}", report.mismatches);
        assert!(
            report.matched_old > 0,
            "no execution observed the old catalog"
        );
        assert!(
            report.matched_new > 0,
            "no execution observed the new catalog"
        );
        assert_eq!(
            report.executions,
            4 * 3 * report_phase_len(&report),
            "an execution was dropped"
        );
        assert!(
            report.cache_stats.epoch_invalidations > 0,
            "the reload never invalidated a cached plan: {:#?}",
            report.cache_stats
        );
    }

    fn report_phase_len(_report: &CacheConsistencyReport) -> usize {
        CacheConsistencyConfig::new(3, 4).iterations_per_phase
    }
}
