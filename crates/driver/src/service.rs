//! The multi-threaded query service.
//!
//! The paper's driver is single-connection: one translator, one metadata
//! cache, one statement at a time. A reporting deployment in the
//! ROADMAP's north star serves many clients concurrently against one
//! server, sharing translation work between them. [`QueryService`] is
//! that front end:
//!
//! * one shared [`Connection`] — it is `Send + Sync`, so every client
//!   thread executes through the same translator and the same metadata
//!   cache (one metadata fetch per table per epoch, not one per client),
//!   and no lock is held across translation or execution;
//! * one shared [`PlanCache`] behind it — all threads reuse each other's
//!   translations (normalized, so literal-differing statements share);
//! * a [`Governor`] in front — admission gate, statement-size cap and
//!   circuit breaker;
//! * the server itself ([`DspServer`]) is thread-safe (interior locking
//!   over catalog, database, and materialization state).
//!
//! The connection is opened in [`QueryService::new`], and that is when it
//! captures the server's metadata fault hook: install a fault injector on
//! the server *before* constructing the service if metadata fetches are
//! to route through it.
//!
//! `execute` is safe to call from any number of threads; results are
//! byte-identical to a single-threaded uncached connection (pinned by
//! `tests/query_service.rs` and the cache-consistency chaos scenario),
//! including across a mid-run [`DspServer::reload`], where the epoch
//! protocol invalidates cached plans instead of serving stale ones.

use crate::connection::Connection;
use crate::resultset::ResultSet;
use crate::server::DspServer;
use crate::DriverError;
use aldsp_core::{QueryOptimizer, TranslationOptions};
use aldsp_governor::{AdmissionError, Governor, GovernorConfig, GovernorStats, QueryBudget};
use aldsp_plancache::{CacheStats, PlanCache};
use aldsp_relational::SqlValue;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A thread-safe, plan-caching query front end over one server.
pub struct QueryService {
    connection: Connection,
    cache: Arc<PlanCache>,
    governor: Governor,
    executions: AtomicU64,
}

impl QueryService {
    /// A service with a default-sized plan cache.
    pub fn new(server: Arc<DspServer>, options: TranslationOptions) -> QueryService {
        let cache = Arc::new(PlanCache::default());
        QueryService {
            connection: Connection::open_with_cache(server, options, Arc::clone(&cache)),
            cache,
            governor: Governor::default(),
            executions: AtomicU64::new(0),
        }
    }

    /// Replaces the governor tuning (admission concurrency, queue
    /// timeout, statement-size cap, breaker thresholds). Builder-style:
    /// call before sharing the service across threads.
    pub fn with_governor(mut self, config: GovernorConfig) -> QueryService {
        self.governor = Governor::new(config);
        self
    }

    /// Attaches a rewrite engine. Every plan built on a cache miss is
    /// optimized before it is cached (when the service's
    /// [`TranslationOptions::optimize`] level is not `Off`), so the
    /// engine's cost — including its validation gate — is paid once per
    /// distinct statement shape, not per execution. Builder-style: call
    /// before sharing the service across threads.
    pub fn with_optimizer(
        mut self,
        optimizer: Arc<dyn QueryOptimizer + Send + Sync>,
    ) -> QueryService {
        self.connection.set_optimizer(Some(optimizer));
        self
    }

    /// Executes one SELECT with positional `?` parameters through the
    /// shared plan cache. Callable from any thread.
    pub fn execute(&self, sql: &str, params: &[SqlValue]) -> Result<ResultSet, DriverError> {
        self.execute_with_budget(sql, params, None)
    }

    /// [`QueryService::execute`] under a caller-supplied [`QueryBudget`].
    ///
    /// Every statement first passes the governor's guards — statement-size
    /// cap, circuit breaker, admission gate — and a rejection surfaces as
    /// a typed error *before* any translation or execution work happens:
    ///
    /// * queue timeout / open breaker → [`DriverError::Overloaded`]
    /// * oversized statement → [`DriverError::BudgetExceeded`]
    ///
    /// Admitted statements run under `budget` (or, when `None`, a budget
    /// derived from the connection's retry-policy deadline), and their
    /// outcome feeds the breaker: backend failures count toward opening
    /// it, successes close it, and the caller's own budget violations are
    /// counted separately without penalizing the backend.
    pub fn execute_with_budget(
        &self,
        sql: &str,
        params: &[SqlValue],
        budget: Option<&QueryBudget>,
    ) -> Result<ResultSet, DriverError> {
        self.executions.fetch_add(1, Ordering::Relaxed);
        let _permit = match self.governor.admit(sql.len()) {
            Ok(permit) => permit,
            Err(e) => return Err(admission_to_driver(e)),
        };
        let result = match budget {
            Some(budget) => self
                .connection
                .execute_cached_governed(sql, params, Some(budget)),
            None => self.connection.execute_cached(sql, params),
        };
        self.observe(&result);
        // Fold the execution-strategy telemetry the evaluator recorded on
        // the budget (hash joins taken, join-shaped fallbacks) into the
        // service-wide governor counters. Only budgeted executions are
        // metered — the harness and tests always pass one.
        if let Some(budget) = budget {
            let (hash_joins, join_fallbacks) = budget.take_exec_counts();
            self.governor.record_exec(hash_joins, join_fallbacks);
        }
        result
    }

    /// Feeds an execution outcome back into the governor. Backend-health
    /// signals (execution, transport, timeout, decode failures) count
    /// toward opening the breaker; the statement's own defects
    /// (translation, evaluation, usage, depth) and the caller's budget choices
    /// (budget, cancellation) are neutral — a storm of bad queries must
    /// not take the backend offline for good ones.
    fn observe(&self, result: &Result<ResultSet, DriverError>) {
        match result {
            Ok(_) => self.governor.record_backend_success(),
            Err(
                DriverError::Execution(_)
                | DriverError::Transient(_)
                | DriverError::Timeout(_)
                | DriverError::Decode(_),
            ) => self.governor.record_backend_failure(),
            Err(DriverError::BudgetExceeded(_) | DriverError::Cancelled(_)) => {
                self.governor.record_budget_rejection()
            }
            Err(_) => {}
        }
    }

    /// The shared plan cache.
    pub fn cache(&self) -> &Arc<PlanCache> {
        &self.cache
    }

    /// Plan-cache counters (exposed alongside [`DspServer::stats`]).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The governor guarding this service.
    pub fn governor(&self) -> &Governor {
        &self.governor
    }

    /// Governor counters (exposed alongside [`QueryService::cache_stats`]).
    pub fn governor_stats(&self) -> GovernorStats {
        self.governor.stats()
    }

    /// The server this service fronts.
    pub fn server(&self) -> &Arc<DspServer> {
        self.connection.server()
    }

    /// The connection every statement runs through (its translator,
    /// metadata-cache counters and retry counters).
    pub fn connection(&self) -> &Connection {
        &self.connection
    }

    /// Total `execute` calls.
    pub fn executions(&self) -> u64 {
        self.executions.load(Ordering::Relaxed)
    }
}

/// Maps a pre-execution governor rejection onto the driver taxonomy.
/// Shedding (queue timeout, open breaker) is [`DriverError::Overloaded`]
/// — deliberately non-transient, so callers back off instead of
/// amplifying the load being shed. The size cap is a budget violation.
fn admission_to_driver(e: AdmissionError) -> DriverError {
    match e {
        AdmissionError::QueueTimeout { .. } | AdmissionError::BreakerOpen => {
            DriverError::Overloaded(e.to_string())
        }
        AdmissionError::StatementTooLarge(b) => DriverError::from_budget(b),
    }
}

// The service's whole point is cross-thread sharing; assert the bounds
// at compile time rather than at first use in a distant test.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<QueryService>();
    assert_send_sync::<DspServer>();
    assert_send_sync::<PlanCache>();
    assert_send_sync::<Governor>();
    assert_send_sync::<Connection>();
};
