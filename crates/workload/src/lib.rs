//! # aldsp-workload — schemas, data, and query generators
//!
//! The paper's motivating workload is SQL-based reporting over integrated
//! data services (§1). This crate provides the test/benchmark stand-in:
//!
//! * [`schema`] — the paper's CUSTOMERS/ORDERS/PAYMENTS universe (plus the
//!   Example-11 `PO_CUSTOMERS` view) at a parameterized scale, with
//!   deterministic, seeded data.
//! * [`querygen`] — a seeded random SQL-92 SELECT generator, stratified by
//!   construct class (simple selects through outer joins, grouping, set
//!   operations, and subqueries), used by differential tests (E6) and
//!   benchmarks (E2/E4).
//! * [`differential`] — the differential matrix (E6, E12, E13): one
//!   runner takes a universe, a corpus of `(origin, sql)` and a list of
//!   lanes (driver configurations as data: plain, hash joins, plan cache,
//!   optimizer, and the production combination of all three), runs every
//!   statement on every lane through the full driver stack (SQL → XQuery
//!   → evaluation → result set), and compares every lane with the
//!   relational oracle and, where a lane claims it, with another lane row
//!   by row.
//! * [`chaos`] — the fault plan the same runner takes: under injected
//!   boundary faults and retrying connections every execution must either
//!   match the oracle or fail with a typed error.
//! * [`cached`] — the threaded plan-cache scenario: a multi-threaded
//!   `QueryService` must never serve a stale plan across a mid-run
//!   catalog reload.
//! * [`overload`] — the resource-governance chaos harness: worker
//!   threads hammer a governed `QueryService` with mixed good and
//!   pathological statements (deep nesting, fuel-starved cartesian
//!   products, oversized texts, cancelled budgets); every rejection must
//!   be typed, admitted good queries must match the oracle, and the
//!   governor's accounting identity must hold.
//! * [`mutation`] — seeded single-site corruptions of generated XQuery,
//!   for measuring the layer-5 validator's and the optimizer gate's kill
//!   rates (E11).

pub mod cached;
pub mod chaos;
pub mod differential;
pub mod mutation;
pub mod overload;
pub mod querygen;
pub mod schema;

pub use cached::{
    report_statement, run_cache_consistency, CacheConsistencyConfig, CacheConsistencyReport,
};
pub use chaos::ChaosConfig;
pub use differential::{
    compare_results, fuzzed_corpus, golden_corpus, memoized_sources, paper_corpus, run_matrix,
    Engine, Lane, LaneReport, MatrixReport, Mismatch, Universe,
};
pub use mutation::{mutants_for, Mutant, MutationClass};
pub use overload::{run_overload, OverloadConfig, OverloadReport};
pub use querygen::{ConstructClass, QueryGenerator};
pub use schema::{
    build_application, golden_statements, paper_queries, populate_database, stats_for, Scale,
};
