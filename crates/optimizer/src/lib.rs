//! # aldsp-optimizer — the rewrite engine's shell
//!
//! The paper leaves optimization to the engine underneath the translator
//! (§3.5), and the engine now does all of it: it plans joins, views,
//! aggregates, sorts and set operations per statement, and evaluates a
//! loop-invariant source once per evaluation of its FLWOR (DESIGN §17,
//! "Invariant sources"). The rewrite rule that used to move such a source
//! into a `let` — and the cost and validation gates it needed — are gone,
//! so [`Optimizer`] hands every program back as stage 3 wrote it.
//!
//! What is left is the constructor the end-to-end benchmark
//! (`e2e/src/sut.rs`) builds; ROADMAP item B2 deletes the crate together
//! with that use.

use aldsp_catalog::stats::CatalogStats;
use aldsp_core::{
    OptimizeOutcome, PreparedQuery, QueryOptimizer, RewriteTrace, TranslationOptions,
};

/// The optimizer production configures: it rewrites nothing, whatever the
/// [`aldsp_core::OptimizeLevel`], and its trace is empty at cost 0 / 0.
pub struct Optimizer;

impl Optimizer {
    /// An optimizer for plans that execute under `stats`.
    pub fn new(_stats: CatalogStats) -> Optimizer {
        Optimizer
    }

    /// Kept for its callers: there is no gate left to validate.
    pub fn with_validation(self, _validate: bool) -> Optimizer {
        self
    }
}

impl QueryOptimizer for Optimizer {
    fn optimize(&self, _: &PreparedQuery, xquery: &str, _: TranslationOptions) -> OptimizeOutcome {
        OptimizeOutcome {
            xquery: xquery.to_string(),
            trace: RewriteTrace::default(),
        }
    }
}
