//! # aldsp-xquery — XQuery dialect parser and evaluator
//!
//! The AquaLogic DSP server compiles and executes the XQuery produced by
//! the JDBC driver's translator. That engine is closed source, so this
//! crate implements the dialect the translator emits (and the XQuery
//! written in `.ds` files), end to end:
//!
//! * [`ast`] — expressions: FLWOR (with the BEA `group ... by` extension
//!   the paper uses for SQL GROUP BY), paths with predicates, element
//!   constructors, general/value comparisons, arithmetic, `if/then/else`,
//!   quantified expressions, function calls, `xs:*` constructor casts.
//! * [`parser`] — a hand-written scanner/parser for the dialect, including
//!   the prolog's `import schema namespace ... at ...;` declarations.
//! * [`functions`] — the `fn:` library subset plus the `fn-bea:` extension
//!   functions the generated queries rely on (`serialize-atomic`,
//!   `xml-escape`, `if-empty`, `sql-like`, ...).
//! * [`eval`] — a tuple-stream evaluator over the `aldsp-xml` data model.
//!   Untyped node content coerces per XQuery 1.0 rules, so comparisons
//!   like the paper's `$var1FR2/ID > xs:integer(10)` behave numerically.
//! * [`exec`] — the streaming physical layer: under
//!   [`ExecStrategy::HashJoin`], join-shaped FLWORs lower onto
//!   scan/hash-join/filter operators instead of materialized
//!   cartesian tuple vectors; unrecognized shapes fall back to the
//!   interpreter unchanged.
//!
//! Data-service functions (`ns0:CUSTOMERS()`) resolve through the
//! [`FunctionSource`] trait; the driver crate wires that to catalog-backed
//! relational tables.

pub mod ast;
pub mod eval;
pub mod exec;
pub mod functions;
pub mod parser;
pub mod unparse;
pub mod visit;

pub use aldsp_governor::ExecStrategy;
pub use ast::{Clause, Expr, Flwor, Program, SchemaImport};
pub use eval::{
    evaluate_program, evaluate_program_exec, evaluate_program_to_payload, EmptyFunctionSource, Env,
    Evaluator, FunctionSource, XqError, XqErrorKind,
};
pub use exec::{AtomKey, JoinTable};
pub use parser::{parse_program, XqParseError, XqParseErrorKind, MAX_PARSE_DEPTH};
pub use unparse::{unparse_expr, unparse_program};
