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
//! * **Layer 4** ([`cost`]) — catalog-seeded cardinality and cost
//!   estimation: a bottom-up estimator over the prepared IR (standard
//!   selectivity heuristics, a fuel-unit cost algebra mirroring the
//!   evaluator's FLWOR iteration) cross-checked by an independent fuel
//!   walk over the generated XQuery AST, emitting *advisory* performance
//!   lints — cartesian products, unpushed predicates, redundant
//!   DISTINCT/ORDER BY under unique keys, plan-cache-hostile NULL
//!   literals, row-cap blowups, large re-scans, per-row subqueries.
//!   Codes `P001`–`P008`; calibrated against measured evaluator fuel by
//!   harness E10.
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
//! [`analyze_sql_with`] is the general form: explicit [`CostOptions`]
//! and, given [`ValidateOptions`], layer 5 as well);
//! [`analyze_translation`] checks an existing prepared query + generated
//! text ([`analyze_translation_with`] takes [`CostOptions`] and also
//! returns the inferred output typing); [`lint_program`]/[`lint_text`]
//! run layer 2 alone;
//! [`ty::check_types`]/[`ty::check_translation`]/[`ty::check_metadata`]
//! run layer 3 piecewise; [`cost::check_cost`]/[`cost::estimate_prepared`]
//! run layer 4 alone; [`validate::check_equivalence`] /
//! [`validate::validate_translation`] /
//! [`validate::execute_reference`] run layer 5 piecewise. With the
//! `debug-analyze` feature, [`install_debug_validator`] hooks the
//! *correctness* layers (1–3, plus a quick-budget layer-5 pass when the
//! static layers are clean) into `core::stage3` so every generation in
//! a test build re-checks itself and fails hard on findings — layer 4
//! stays out of the validator because its findings are advisory and
//! test workloads run expensive queries on purpose.

pub mod cost;
pub mod diag;
pub mod ir_check;
pub mod report;
pub mod ty;
pub mod validate;
pub mod xq_lint;

pub use cost::{check_cost, estimate_prepared, CostOptions, CostReport, Estimate};
pub use diag::{DiagCode, Diagnostic, Severity};
pub use ir_check::check_prepared;
pub use report::{
    analyze_sql, analyze_sql_with, analyze_translation, analyze_translation_with, Analysis,
    TranslationReport,
};
pub use ty::{
    check_metadata, check_translation, check_types, InferredColumn, ReportedColumn, TypeFlow,
};
pub use validate::{
    check_equivalence, execute_reference, validate_translation, ValidateOptions, ValidationOutcome,
};
pub use xq_lint::{lint_program, lint_text};

/// Installs the analyzer into `core::stage3`'s debug validation slot:
/// from then on, every `stage3::generate` in this process re-checks its
/// own output (both layers, on the unwrapped query text) and fails the
/// translation with a semantic error when diagnostics are found.
/// Idempotent; test harnesses call it unconditionally.
#[cfg(feature = "debug-analyze")]
pub fn install_debug_validator() {
    aldsp_core::stage3::debug_validate::install(validate_generated);
}

#[cfg(feature = "debug-analyze")]
fn validate_generated(
    prepared: &aldsp_core::ir::PreparedQuery,
    generated: &aldsp_core::stage3::Generated,
) -> Vec<String> {
    let text = generated.clone().into_query_text();
    let report = analyze_translation(prepared, &text);
    // Correctness layers only: advisory `P` findings must not fail a
    // translation (chaos/governance tests execute cartesian stressors
    // and NULL-literal predicates deliberately).
    let mut findings: Vec<String> = report
        .ir
        .iter()
        .chain(report.xquery.iter())
        .chain(report.types.iter())
        .map(|d| d.to_string())
        .collect();
    // Layer 5 under the quick budget, only once the static layers are
    // clean (a statically broken program would just produce a noisier
    // `V006` for the same root cause). `V` findings are hard errors too:
    // an inequivalence witness is a miscompilation.
    if findings.is_empty() {
        findings.extend(
            validate::check_equivalence(prepared, &text, &validate::ValidateOptions::quick())
                .iter()
                .map(|d| d.to_string()),
        );
    }
    findings
}
