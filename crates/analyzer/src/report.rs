//! The combined report of layers 1–3 and 5, plus the end-to-end entry
//! point the `analyze` bin and the workload harnesses use.

use crate::diag::Diagnostic;
use crate::validate::{ValidateOptions, Witnesses};
use crate::{ir_check, ty, xq_lint};
use aldsp_catalog::MetadataApi;
use aldsp_core::ir::PreparedQuery;
use aldsp_core::{stage1, stage2, stage3, wrapper, TranslateError, TranslationOptions, Transport};
use aldsp_xquery::{parse_program, Program, XqParseError};

/// Every analysis layer over one translation.
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
    /// [`ValidateOptions`], or [`crate::validate::check_equivalence`] directly).
    pub validation: Vec<Diagnostic>,
}

impl TranslationReport {
    /// True when there is no finding. Every code is a correctness defect:
    /// `A`/`T` always, `V` when validation ran.
    pub fn is_clean(&self) -> bool {
        self.all().next().is_none()
    }

    /// All findings, layer 1 first.
    pub fn all(&self) -> impl Iterator<Item = &Diagnostic> {
        self.ir
            .iter()
            .chain(self.xquery.iter())
            .chain(self.types.iter())
            .chain(self.validation.iter())
    }

    /// One line per finding.
    pub fn render(&self) -> String {
        self.all()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// What layers 1–3 know about a prepared query before they see any
/// program for it: layer 1's findings and layer 3's SQL-side type flow.
/// Built once per query; every program that claims to translate the
/// query — the generated text, each rewrite candidate, the plan a cache
/// keeps serving — is judged against the same value.
pub struct QueryFacts<'q> {
    prepared: &'q PreparedQuery,
    ir: Vec<Diagnostic>,
    flow: ty::TypeFlow,
}

impl<'q> QueryFacts<'q> {
    /// Runs the two checks that look at the prepared query alone.
    pub fn of(prepared: &'q PreparedQuery) -> QueryFacts<'q> {
        QueryFacts {
            prepared,
            ir: ir_check::check_prepared(prepared),
            flow: ty::check_types(prepared),
        }
    }

    /// Layers 1–3 over one parse of a translation's text (`validation`
    /// stays empty). Text that did not parse is layer 2's single `A100`;
    /// the translation type diff needs a program and is skipped.
    pub fn check(&self, parsed: Result<&Program, &XqParseError>) -> TranslationReport {
        let mut types = self.flow.diagnostics.clone();
        let xquery = match parsed {
            Ok(program) => {
                types.extend(ty::check_translation(
                    self.prepared,
                    program,
                    &self.flow.columns,
                ));
                xq_lint::lint_program(program)
            }
            Err(error) => vec![xq_lint::unparsable(error)],
        };
        TranslationReport {
            ir: self.ir.clone(),
            xquery,
            types,
            ..TranslationReport::default()
        }
    }
}

/// Every layer over one parse of `xquery_text`: [`QueryFacts::check`]
/// and, given a budget and a program, layer 5.
fn analyze_text(
    prepared: &PreparedQuery,
    xquery_text: &str,
    validate_options: Option<&ValidateOptions>,
) -> (TranslationReport, Vec<ty::InferredColumn>) {
    let parsed = parse_program(xquery_text);
    let parsed = parsed.as_ref();
    let facts = QueryFacts::of(prepared);
    let mut report = facts.check(parsed);
    if let (Some(options), Ok(program)) = (validate_options, parsed) {
        report.validation = Witnesses::of(prepared, options).check(program).diagnostics;
    }
    (report, facts.flow.columns)
}

/// Analyzes one already-produced translation: layer 1 over the prepared
/// IR, layer 2 over the generated query text (wrapped or unwrapped),
/// layer 3 re-inferring types on both sides of the translation and
/// diffing them — all over one parse of the text. Returns the report
/// together with the SQL-side inferred output typing.
pub fn analyze_translation_with(
    prepared: &PreparedQuery,
    xquery_text: &str,
) -> (TranslationReport, Vec<ty::InferredColumn>) {
    analyze_text(prepared, xquery_text, None)
}

/// An end-to-end analysis: the translation plus its report.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// The generated query text, per the requested transport.
    pub xquery: String,
    /// The report.
    pub report: TranslationReport,
    /// The SQL-side inferred output typing (layer 3's view of the
    /// result-set metadata).
    pub typing: Vec<ty::InferredColumn>,
}

/// Translates `sql` (stage 1 → 2 → 3 → transport wrapper) and analyzes
/// both the prepared IR and the generated text. Translation failures are
/// returned as-is — they are the translator rejecting the statement, not
/// analyzer findings.
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
    validate_options: Option<&ValidateOptions>,
) -> Result<Analysis, TranslateError> {
    let parsed = stage1::parse(sql)?;
    let prepared = stage2::prepare(&parsed, metadata)?;
    let generated = stage3::generate(&prepared)?;
    let xquery = match options.transport {
        Transport::Xml => generated.into_query_text(),
        Transport::DelimitedText => wrapper::wrap_delimited(generated, &prepared),
    };
    let (report, typing) = analyze_text(&prepared, &xquery, validate_options);
    Ok(Analysis {
        xquery,
        report,
        typing,
    })
}

/// [`analyze_sql_with`] without validation: layers 1–3 only.
pub fn analyze_sql<M: MetadataApi>(
    sql: &str,
    metadata: &M,
    options: TranslationOptions,
) -> Result<Analysis, TranslateError> {
    analyze_sql_with(sql, metadata, options, None)
}
