//! # aldsp-analyzer — static analysis over the translation pipeline
//!
//! The paper's translator leans on structural discipline that is easy to
//! break silently: one query context per (sub)query block (§3.4.3), one
//! RSN per tabular abstraction (§3.4.2), deterministic
//! `var<ctx><zone><n>` variable naming and zone-ordered FLWOR assembly
//! (§3.5 (iv)). This crate re-verifies that discipline on every
//! translation:
//!
//! * **Layer 1** ([`ir_check`]) — invariants over the stage-1/stage-2 IR:
//!   context-id uniqueness, range-variable uniqueness per FROM, column
//!   resolution against the RSN scope chain, post-restructuring GROUP BY
//!   legality, projection/output and ORDER BY index integrity, set-op
//!   arity, and no stage-3-internal nodes. Codes `A001`–`A008`.
//! * **Layer 2** ([`xq_lint`]) — scope/def-use lint over the generated
//!   XQuery text: parseability, unbound variables, shadowing, dead `let`
//!   bindings, naming/zone conformance, and function-map conformance.
//!   Codes `A100`–`A106`.
//! * **Layer 3** ([`ty`]) — type flow and translation validation: a
//!   bottom-up re-inference of `(type, nullability)` over the prepared IR
//!   (SQL-92 promotion, aggregate typing, 3VL NULL propagation), an
//!   independent abstract interpretation of the *generated* XQuery's
//!   result type against the imported XML schemas, and a per-output-column
//!   diff between the two — plus a cross-check against the driver's
//!   result-set metadata. Codes `T001`–`T008`.
//! * *Layer 4*, a cost model with advisory `P` lints, is retired: once
//!   the physical planner took over optimization nothing that ran read
//!   an estimate (DESIGN.md §14). The number is kept so the layers keep
//!   theirs.
//! * **Layer 5** ([`validate`]) — bounded equivalence validation: a
//!   reference relational interpreter executes the prepared IR under
//!   SQL-92 bag semantics while the generated XQuery runs through the
//!   real evaluator against the same enumerated witness databases
//!   (0–2 rows per table, NULL-bearing value domains seeded from the
//!   query's own literals); the decoded row bags are compared. A
//!   divergence is a *miscompilation witness*, reported as hard-error
//!   codes `V001`–`V006` carrying the minimal witness database. Teeth
//!   are measured by harness E11's seeded mutation kill rate.
//!
//! Entry points: [`analyze_sql`] runs the static pipeline on a SQL
//! string (used by the `analyze` bin and the workload harnesses;
//! [`analyze_sql_with`] is the general form: given [`ValidateOptions`],
//! layer 5 as well); [`analyze_translation_with`] checks an existing
//! prepared query + generated text and also returns the inferred output
//! typing. Every text entry point parses its text once and hands the
//! program to two values that are built per prepared query and judge any
//! number of programs against it:
//! [`QueryFacts`] (what layers 1 and 3 learn from the query alone;
//! [`QueryFacts::check`] is layers 1–3 over a parse) and [`Witnesses`]
//! (layer 5's witness databases and reference answers;
//! [`Witnesses::check`] runs a program on them). Piecewise:
//! [`lint_program`]/[`lint_text`] run layer 2 alone;
//! [`ty::check_types`]/[`ty::check_translation`]/[`ty::check_metadata`]
//! layer 3; [`validate::check_equivalence`] /
//! [`validate::validate_translation`] / [`validate::execute_reference`]
//! layer 5.

pub mod diag;
pub mod ir_check;
pub mod report;
pub mod ty;
pub mod validate;
pub mod xq_lint;

pub use diag::{DiagCode, Diagnostic};
pub use ir_check::check_prepared;
pub use report::{
    analyze_sql, analyze_sql_with, analyze_translation_with, Analysis, QueryFacts,
    TranslationReport,
};
pub use ty::{
    check_metadata, check_translation, check_types, InferredColumn, ReportedColumn, TypeFlow,
};
pub use validate::{
    check_equivalence, execute_reference, validate_translation, ValidateOptions, ValidationOutcome,
    Witnesses,
};
pub use xq_lint::{lint_program, lint_text};
