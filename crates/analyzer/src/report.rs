//! The combined five-layer report, plus the end-to-end entry point the
//! `analyze` bin and the workload harnesses use.

use crate::cost::{self, CostOptions, CostReport};
use crate::diag::{Diagnostic, Severity};
use crate::validate::{self, ValidateOptions};
use crate::{ir_check, ty, xq_lint};
use aldsp_catalog::MetadataApi;
use aldsp_core::ir::PreparedQuery;
use aldsp_core::{stage1, stage2, stage3, wrapper, TranslateError, TranslationOptions, Transport};

/// All five analysis layers over one translation.
#[derive(Debug, Clone, Default)]
pub struct TranslationReport {
    /// Layer-1 findings (IR invariants, `A0xx`).
    pub ir: Vec<Diagnostic>,
    /// Layer-2 findings (XQuery lint, `A1xx`).
    pub xquery: Vec<Diagnostic>,
    /// Layer-3 findings (type flow + translation type diff, `T0xx`).
    pub types: Vec<Diagnostic>,
    /// Layer-5 findings (bounded equivalence validation, `V0xx`).
    /// Empty unless validation was requested ([`analyze_sql_with`] given
    /// [`ValidateOptions`], or [`validate::check_equivalence`] directly).
    pub validation: Vec<Diagnostic>,
    /// Layer-4 result: cardinality/cost estimates and the advisory
    /// `P0xx` findings.
    pub cost: CostReport,
}

impl TranslationReport {
    /// True when no finding of [`Severity::Error`] is present — the
    /// correctness layers (`A`/`T` codes) and, when validation ran, the
    /// `V` codes. Layer-4 `P` findings are advisory or warning — a
    /// `P`-flagged query still computes the right answer — so they
    /// deliberately do not dirty this predicate (chaos workloads run
    /// cartesian stressors on purpose). Use
    /// [`TranslationReport::is_performance_clean`] or
    /// [`TranslationReport::all`] when `P` findings should count.
    pub fn is_clean(&self) -> bool {
        self.all().all(|d| d.severity() != Severity::Error)
    }

    /// True when there are no warning/advisory findings either (today:
    /// layer 4's performance lints).
    pub fn is_performance_clean(&self) -> bool {
        !self.all().any(|d| d.severity() != Severity::Error)
    }

    /// All findings, layer 1 first, advisory layer-4 findings last.
    pub fn all(&self) -> impl Iterator<Item = &Diagnostic> {
        self.ir
            .iter()
            .chain(self.xquery.iter())
            .chain(self.types.iter())
            .chain(self.validation.iter())
            .chain(self.cost.diagnostics.iter())
    }

    /// One line per finding.
    pub fn render(&self) -> String {
        self.all()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Analyzes one already-produced translation: layer 1 over the prepared
/// IR, layer 2 over the generated query text (wrapped or unwrapped),
/// layer 3 re-inferring types on both sides of the translation and
/// diffing them, layer 4 estimating cardinality/cost under
/// `cost_options`. Returns the report together with the SQL-side
/// inferred output typing.
pub fn analyze_translation_with(
    prepared: &PreparedQuery,
    xquery_text: &str,
    cost_options: &CostOptions,
) -> (TranslationReport, Vec<ty::InferredColumn>) {
    let ir = ir_check::check_prepared(prepared);
    let xquery = xq_lint::lint_text(xquery_text);
    let flow = ty::check_types(prepared);
    let mut types = flow.diagnostics;
    // The translation diff (and layer 4's FLWOR fuel walk) need a
    // parseable program; when the text does not parse, layer 2 already
    // reports `A100` and both are moot.
    let program = aldsp_xquery::parse_program(xquery_text).ok();
    if let Some(program) = &program {
        types.extend(ty::check_translation(prepared, program, &flow.columns));
    }
    let cost = cost::check_cost(prepared, program.as_ref(), cost_options);
    (
        TranslationReport {
            ir,
            xquery,
            types,
            validation: Vec::new(),
            cost,
        },
        flow.columns,
    )
}

/// [`analyze_translation_with`] under default (stats-less) cost options,
/// findings only.
pub fn analyze_translation(prepared: &PreparedQuery, xquery_text: &str) -> TranslationReport {
    analyze_translation_with(prepared, xquery_text, &CostOptions::default()).0
}

/// An end-to-end analysis: the translation plus its report.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// The generated query text, per the requested transport.
    pub xquery: String,
    /// The four-layer report.
    pub report: TranslationReport,
    /// The SQL-side inferred output typing (layer 3's view of the
    /// result-set metadata).
    pub typing: Vec<ty::InferredColumn>,
}

/// Translates `sql` (stage 1 → 2 → 3 → transport wrapper) and analyzes
/// both the prepared IR and the generated text, estimating cost under
/// `cost_options`. Translation failures are returned as-is — they are
/// the translator rejecting the statement, not analyzer findings.
///
/// With `validate_options`, layer 5 runs too: the bounded equivalence
/// validator fills [`TranslationReport::validation`]. `V` findings are
/// hard errors ([`TranslationReport::is_clean`] goes false), because an
/// observed inequivalence on a concrete witness database is a
/// miscompilation, not advice.
pub fn analyze_sql_with<M: MetadataApi>(
    sql: &str,
    metadata: &M,
    options: TranslationOptions,
    cost_options: &CostOptions,
    validate_options: Option<&ValidateOptions>,
) -> Result<Analysis, TranslateError> {
    let parsed = stage1::parse(sql)?;
    let prepared = stage2::prepare(&parsed, metadata)?;
    let generated = stage3::generate(&prepared)?;
    let xquery = match options.transport {
        Transport::Xml => generated.into_query_text(),
        Transport::DelimitedText => wrapper::wrap_delimited(generated, &prepared),
    };
    let (mut report, typing) = analyze_translation_with(&prepared, &xquery, cost_options);
    if let Some(validate_options) = validate_options {
        report.validation = validate::check_equivalence(&prepared, &xquery, validate_options);
    }
    Ok(Analysis {
        xquery,
        report,
        typing,
    })
}

/// [`analyze_sql_with`] under default (stats-less) cost options, layers
/// 1–4 only.
pub fn analyze_sql<M: MetadataApi>(
    sql: &str,
    metadata: &M,
    options: TranslationOptions,
) -> Result<Analysis, TranslateError> {
    analyze_sql_with(sql, metadata, options, &CostOptions::default(), None)
}
