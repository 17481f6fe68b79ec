//! # aldsp-relational — in-memory relational engine
//!
//! Two roles (DESIGN.md §2):
//!
//! 1. **Substrate**: physical data services in the platform wrap relational
//!    sources; here, those sources are in-memory tables from this crate,
//!    exposed to the XQuery evaluator as data-service functions returning
//!    flat XML.
//! 2. **Oracle**: the engine executes the *same* `aldsp-sql` AST directly,
//!    with SQL-92 semantics (three-valued logic, bag set-operations, NULL
//!    handling), so differential tests can check that a translated XQuery
//!    computes exactly what the SQL would have (paper correctness goal,
//!    §3.2 (i)).
//!
//! Modules:
//! * [`value`] — runtime SQL values with 3VL comparison and promotion
//!   arithmetic.
//! * [`sqltype`] — the shared SQL type table: AST-type-name → catalog
//!   type, and typed decoding of transported text cells (consumed by the
//!   driver's result sets and the analyzer's type pass).
//! * [`like`] — SQL `LIKE` pattern matching with `ESCAPE`.
//! * [`relation`] — materialized relations (ordered columns + rows).
//! * [`database`] — named tables.
//! * [`eval`] — scalar expression evaluation with correlation scopes,
//!   and the SQL-92 *value kernel* it is written over.
//! * [`exec`] — the query executor (joins, grouping, set ops, ordering),
//!   and the *relation kernel* it is written over.
//!
//! The two kernels are the workspace's one statement of SQL-92 value
//! semantics (DESIGN.md §15): the oracle here walks the SQL AST over
//! them, the analyzer's layer-5 reference interpreter walks the stage-2
//! IR over the same functions.

pub mod database;
pub mod eval;
pub mod exec;
pub mod like;
pub mod relation;
pub mod sqltype;
pub mod value;

pub use database::{Database, Table};
pub use exec::{execute_query, ExecError};
pub use relation::{ColumnInfo, Relation};
pub use sqltype::{column_type_from_name, decode_cell, type_name_to_column};
pub use value::{sql_value_to_sequence, SqlValue};
