//! # aldsp-plancache — normalized translation plan caching
//!
//! The paper's driver re-runs the three-stage translation for every
//! statement, caching only table metadata (§3.3). This crate adds the
//! missing layer: a concurrent, sharded cache of *finished* translation
//! products, keyed by a normalized form of the statement so that
//! statements differing only in predicate literals share one plan — the
//! same literal/parameter equivalence the paper's §3.2 stored-procedure
//! machinery already exploits for explicit `?` markers.
//!
//! * [`mod@normalize`]: the literal-extraction pass over the stage-one
//!   AST — canonical text, slot vector, extracted values
//!   ([`normalize::normalize`]).
//! * [`cache`]: the N-way sharded, `RwLock`-per-shard, approximately-LRU,
//!   epoch-invalidated store and its [`PlanCache::plan`] orchestration
//!   (exact hit → normalized hit → translate → fallback).
//!
//! The driver crate wires this into `Connection::execute_cached` and the
//! multi-threaded `QueryService`; differential tests pin that cached
//! executions are byte-identical to fresh uncached translations.

pub mod cache;
pub mod normalize;

pub use cache::{BoundPlan, CacheStats, CachedPlan, Lookup, PlanCache, DEFAULT_STATEMENT_CAP};
pub use normalize::{normalize, NormalizedStatement, ParamSlot};
