//! # aldsp — SQL-92 to XQuery translation, AquaLogic DSP style
//!
//! Facade crate re-exporting the full public API of the workspace. This is
//! the crate examples and integration tests build against; downstream users
//! can depend on it alone.
//!
//! The subsystems (see `DESIGN.md` for the inventory):
//!
//! * [`xml`] — XQuery data model subset (nodes, atomics, sequences).
//! * [`sql`] — SQL-92 SELECT lexer, AST, parser.
//! * [`catalog`] — DSP artifact model and metadata API.
//! * [`relational`] — in-memory relational engine (baseline/oracle).
//! * [`xquery`] — XQuery dialect parser and evaluator.
//! * [`core`] — the three-stage SQL→XQuery translator (the paper's
//!   contribution).
//! * [`analyzer`] — static analysis over the pipeline: IR invariant
//!   checks and XQuery lint (see the `analyze` bin).
//! * [`optimizer`] — the rewrite engine's shell: hands every program
//!   back unchanged (the engine optimizes in [`xquery`]'s planner).
//! * [`driver`] — JDBC-analogue driver with both result-transport modes.
//! * [`workload`] — schema/data/query generators for tests and benches.

pub use aldsp_analyzer as analyzer;
pub use aldsp_catalog as catalog;
pub use aldsp_core as core;
pub use aldsp_driver as driver;
pub use aldsp_governor as governor;
pub use aldsp_optimizer as optimizer;
pub use aldsp_plancache as plancache;
pub use aldsp_relational as relational;
pub use aldsp_sql as sql;
pub use aldsp_workload as workload;
pub use aldsp_xml as xml;
pub use aldsp_xquery as xquery;
