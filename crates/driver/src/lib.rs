//! # aldsp-driver — the JDBC-analogue driver
//!
//! The paper's subject is a JDBC driver: SQL statements in, result sets
//! out, over an XQuery-speaking server (Figure 1). This crate is the Rust
//! analogue of that driver plus the simulated server it talks to:
//!
//! * [`server`] — the stand-in for the AquaLogic DSP server: data-service
//!   functions backed by `aldsp-relational` tables, executing generated
//!   XQuery with `aldsp-xquery` and shipping results as serialized XML or
//!   delimited text across a simulated client/server boundary.
//! * [`connection`] — `Connection`, `Statement`, `PreparedStatement`: the
//!   client API. Each query is translated (`aldsp-core`), executed, and
//!   decoded into a [`ResultSet`].
//! * [`resultset`] — forward-only cursors with typed getters and
//!   result-set metadata, built from either transport.
//! * [`dbmeta`] — `DatabaseMetaData`: catalog/schema/table/column
//!   enumeration per the paper's Figure-2 artifact mapping.

pub mod connection;
pub mod dbmeta;
pub mod fault;
pub mod resultset;
pub mod server;
pub mod service;

/// Resource-governance primitives (re-exported from `aldsp-governor`):
/// budgets, cancellation, admission control, and the circuit breaker.
pub use aldsp_governor as governor;

pub use connection::{CallableStatement, Connection, PreparedStatement, RetryStats, Statement};
pub use dbmeta::DatabaseMetaData;
pub use fault::{FaultConfig, FaultInjector, FaultStats, RetryPolicy};
pub use governor::{
    AdmissionError, BreakerConfig, BreakerState, BudgetError, CancellationToken, CircuitBreaker,
    Governor, GovernorConfig, GovernorStats, QueryBudget,
};
pub use resultset::{ResultSet, ResultSetMetaData};
pub use server::{DspServer, ServerStats};
pub use service::QueryService;

use std::fmt;

/// Driver-level errors, classified by where they arose *and* whether
/// retrying can help ([`DriverError::is_transient`]).
#[derive(Debug, Clone, PartialEq)]
pub enum DriverError {
    /// Translation failed (syntax, semantics, metadata).
    Translation(aldsp_core::TranslateError),
    /// Server-side execution failed permanently: the query did not
    /// compile on the server, or the endpoint declared the failure final.
    /// Counts toward the circuit breaker.
    Execution(String),
    /// The statement's own dynamic error at evaluation — a division by
    /// zero, a failed cast, an overflow. Permanent, and no sign of the
    /// backend's health: the circuit breaker does not count it.
    Evaluation(String),
    /// A transient boundary failure — a dropped fetch, an aborted
    /// execution, a lost payload. Retrying the same statement can
    /// succeed.
    Transient(String),
    /// The operation exceeded a time limit (the server's, or the
    /// statement's [`RetryPolicy::deadline`] budget).
    Timeout(String),
    /// The server rejected a translation prepared against an older
    /// metadata generation than its catalog. The driver handles this by
    /// invalidating its metadata cache and retranslating once.
    StaleMetadata {
        /// Epoch the translation was prepared against.
        client_epoch: u64,
        /// The server catalog's current epoch.
        server_epoch: u64,
    },
    /// Result decoding failed.
    Decode(String),
    /// Client misuse (bad column index, unbound parameter, ...).
    Usage(String),
    /// A [`QueryBudget`] resource limit was hit (fuel, row cap, or
    /// statement size). Permanent: the same budget would blow again.
    BudgetExceeded(String),
    /// The query's [`CancellationToken`] was triggered.
    Cancelled(String),
    /// The service shed the query before execution — the admission gate
    /// timed out or the backend's circuit breaker is open. Deliberately
    /// *not* transient: overload pushes back on the caller; auto-retry
    /// would amplify the very load being shed.
    Overloaded(String),
    /// The statement nests past a parser's recursion limit.
    DepthExceeded(String),
}

impl DriverError {
    /// Whether retrying the same operation can succeed. Corrupted
    /// payloads ([`DriverError::Decode`]) count as transient: the data
    /// was damaged in transit, and re-shipping it can deliver it intact.
    /// [`DriverError::StaleMetadata`] is deliberately *not* transient —
    /// blind re-execution cannot fix it; it takes the
    /// invalidate-and-retranslate path instead.
    pub fn is_transient(&self) -> bool {
        match self {
            DriverError::Transient(_) | DriverError::Timeout(_) | DriverError::Decode(_) => true,
            DriverError::Translation(e) => e.is_transient(),
            DriverError::Execution(_)
            | DriverError::Evaluation(_)
            | DriverError::StaleMetadata { .. }
            | DriverError::Usage(_)
            | DriverError::BudgetExceeded(_)
            | DriverError::Cancelled(_)
            | DriverError::Overloaded(_)
            | DriverError::DepthExceeded(_) => false,
        }
    }

    /// Maps a budget violation onto the driver taxonomy: deadlines align
    /// with [`DriverError::Timeout`] (PR-1's retry loop already speaks
    /// that language), cancellation and resource caps get their own
    /// variants.
    pub fn from_budget(err: BudgetError) -> DriverError {
        match err {
            BudgetError::DeadlineExceeded { .. } => DriverError::Timeout(err.to_string()),
            BudgetError::Cancelled => DriverError::Cancelled(err.to_string()),
            BudgetError::FuelExhausted { .. }
            | BudgetError::RowCapExceeded { .. }
            | BudgetError::StatementTooLarge { .. } => DriverError::BudgetExceeded(err.to_string()),
        }
    }
}

impl fmt::Display for DriverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriverError::Translation(e) => write!(f, "translation: {e}"),
            DriverError::Execution(m) => write!(f, "execution: {m}"),
            DriverError::Evaluation(m) => write!(f, "evaluation: {m}"),
            DriverError::Transient(m) => write!(f, "transient failure: {m}"),
            DriverError::Timeout(m) => write!(f, "timeout: {m}"),
            DriverError::StaleMetadata {
                client_epoch,
                server_epoch,
            } => write!(
                f,
                "stale metadata: translation prepared at epoch {client_epoch}, server at {server_epoch}"
            ),
            DriverError::Decode(m) => write!(f, "decode: {m}"),
            DriverError::Usage(m) => write!(f, "usage: {m}"),
            DriverError::BudgetExceeded(m) => write!(f, "budget exceeded: {m}"),
            DriverError::Cancelled(m) => write!(f, "cancelled: {m}"),
            DriverError::Overloaded(m) => write!(f, "overloaded: {m}"),
            DriverError::DepthExceeded(m) => write!(f, "depth exceeded: {m}"),
        }
    }
}

impl std::error::Error for DriverError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DriverError::Translation(e) => Some(e),
            _ => None,
        }
    }
}

impl From<aldsp_core::TranslateError> for DriverError {
    fn from(e: aldsp_core::TranslateError) -> Self {
        // Resource rejections keep their identity across the boundary
        // instead of hiding inside `Translation`.
        match e.kind {
            aldsp_core::ErrorKind::DepthExceeded => DriverError::DepthExceeded(e.message),
            aldsp_core::ErrorKind::Budget(b) => DriverError::from_budget(b),
            _ => DriverError::Translation(e),
        }
    }
}
