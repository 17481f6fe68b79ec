//! # aldsp-core — the SQL-92 → XQuery translator
//!
//! The paper's primary contribution (§3): a component-based, three-stage
//! translator that turns SQL-92 SELECT statements into XQuery expressions
//! over data-service functions.
//!
//! * **Stage one** ([`stage1`]): lexical analysis and parsing (via
//!   `aldsp-sql`), building a typed AST and assigning a *query context* to
//!   every query block (§3.4.3). Syntactically invalid SQL is rejected
//!   immediately.
//! * **Stage two** ([`stage2`]): semantic analysis against catalog
//!   metadata — table resolution, wildcard expansion, column
//!   existence/ambiguity checks, the GROUP BY legality rule, ORDER BY
//!   resolution to output columns, and bottom-up expression type inference
//!   (§3.5 (v)). Produces a prepared form whose FROM tree is a tree of
//!   *resultset nodes* (RSNs, §3.4.2): tables, derived tables, joins, and
//!   set operations, each a uniform tabular view.
//! * **Stage three** ([`stage3`]): XQuery generation. Each RSN translates
//!   itself (tables → `for` over the data-service function; views → `let`
//!   bound `<RECORDSET>` constructors; outer joins → the
//!   filtered-`let` + `if (fn:empty(...))` pattern of Example 10; GROUP BY
//!   → the BEA group-by extension of Example 12), with the paper's
//!   `var<ctx><zone><n>` variable naming discipline.
//! * **Result wrapper** ([`wrapper`], §4): optionally wraps the query in
//!   the `fn:string-join` delimited-text transport that the driver parses
//!   into result sets without XML materialization.
//!
//! Deviations from the paper's printed examples, where engineering
//! demanded them, are catalogued in `DESIGN.md` (conditional construction
//! of nullable result elements; casts on order/group keys and on
//! both-untyped ordered comparisons; NULL markers in the text transport).

pub mod error;
pub mod funcmap;
pub mod ir;
pub mod stage1;
pub mod stage2;
pub mod stage3;
pub mod wrapper;

pub use error::{ErrorKind, TranslateError};
pub use ir::{OutputColumn, PreparedBody, PreparedQuery, PreparedSelect, Rsn, TExpr, TExprKind};
pub use stage2::prepare;
pub use wrapper::{COLUMN_SEPARATOR, NULL_MARKER, ROW_SEPARATOR};

use aldsp_catalog::MetadataApi;
pub use aldsp_governor::ExecStrategy;
use aldsp_governor::QueryBudget;
use std::time::{Duration, Instant};

/// Name prefix of the XQuery external variables that carry statement
/// parameters; what follows is the 1-based ordinal in decimal.
pub const SQL_PARAM_PREFIX: &str = "sqlParam";

/// The external variable (no `$`) bound to the parameter with 0-based
/// `ordinal`: `sqlParam1`, `sqlParam2`, ... — the one spelling of the
/// contract between stage 3, which emits references to these variables,
/// and whoever executes the program and binds them (the driver, the
/// layer-5 validator).
pub fn sql_param_name(ordinal: usize) -> String {
    format!("{SQL_PARAM_PREFIX}{}", ordinal + 1)
}

/// How results travel back to the driver (paper §4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Transport {
    /// Serialize the `<RECORDSET>` XML and re-parse in the driver — the
    /// baseline the paper found wasteful.
    Xml,
    /// The delimited-text wrapper (`fn:string-join` over separator-tagged
    /// column values) — the paper's "measurably improved" design.
    #[default]
    DelimitedText,
}

/// How hard the optimizer rewrites a generated program before execution.
/// The optimizer production configures rewrites nothing at either level
/// (the engine evaluates a loop-invariant source once by itself); the knob
/// stays for the [`QueryOptimizer`]s a caller brings.
///
/// Part of [`TranslationOptions`], and therefore of plan-cache keys: an
/// optimized plan and the naive plan for the same SQL are distinct cache
/// entries, so flipping the knob can never serve the wrong program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum OptimizeLevel {
    /// No rewriting: execute the stage-three program verbatim.
    #[default]
    Off,
    /// Run the configured [`QueryOptimizer`].
    Full,
}

/// Translation options. Part of plan-cache keys (two translations share a
/// cached plan only when their options agree), hence `Eq + Hash`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TranslationOptions {
    /// Result transport mode.
    pub transport: Transport,
    /// Optimizer aggressiveness for this translation.
    pub optimize: OptimizeLevel,
    /// How the evaluator executes the translated program. Unlike
    /// `optimize` this never changes the program text — it selects the
    /// runtime pipeline — but it rides here so connections, prepared
    /// statements, and services configure it the same way they configure
    /// the optimizer, and so cached plans stay strategy-agnostic (the
    /// strategy is applied at execution time, not baked into the plan).
    pub exec: ExecStrategy,
}

impl TranslationOptions {
    /// Options with the given transport and everything else defaulted.
    pub fn with_transport(transport: Transport) -> TranslationOptions {
        TranslationOptions {
            transport,
            ..TranslationOptions::default()
        }
    }

    /// Returns these options with the optimize level replaced.
    pub fn optimized(mut self, level: OptimizeLevel) -> TranslationOptions {
        self.optimize = level;
        self
    }

    /// Returns these options with the execution strategy replaced.
    pub fn with_exec(mut self, exec: ExecStrategy) -> TranslationOptions {
        self.exec = exec;
        self
    }
}

/// One rule application (or refusal) in an optimizer's rewrite trace.
#[derive(Debug, Clone)]
pub struct RewriteStep {
    /// Rule name.
    pub rule: &'static str,
    /// The performance finding the rule discharges.
    pub lint: &'static str,
    /// Estimated evaluator fuel before the rule ran.
    pub cost_before: f64,
    /// Estimated evaluator fuel after the rule ran (equals `cost_before`
    /// when the rule was rejected).
    pub cost_after: f64,
    /// Whether the rewrite was kept. A `false` here means the optimizer
    /// refused its own candidate, which was then discarded — never
    /// silently executed.
    pub applied: bool,
    /// Human-readable description of what changed (or why it was refused).
    pub note: String,
}

/// The rewrite trace of one optimization: per-rule steps plus whole-program
/// fuel estimates before and after.
#[derive(Debug, Clone, Default)]
pub struct RewriteTrace {
    /// Estimated fuel of the program as generated by stage three.
    pub cost_before: f64,
    /// Estimated fuel of the program actually returned.
    pub cost_after: f64,
    /// One entry per rule that changed the program or was refused by the
    /// safety gate; rules that found nothing to do are omitted.
    pub steps: Vec<RewriteStep>,
}

impl RewriteTrace {
    /// Number of rewrites kept.
    pub fn applied(&self) -> usize {
        self.steps.iter().filter(|s| s.applied).count()
    }

    /// Number of rewrites refused by the safety gate.
    pub fn rejected(&self) -> usize {
        self.steps.iter().filter(|s| !s.applied).count()
    }
}

/// The result of optimizing one generated program.
#[derive(Debug, Clone)]
pub struct OptimizeOutcome {
    /// The program to execute. When no rule applied (or every candidate
    /// was refused), this is the input program unchanged.
    pub xquery: String,
    /// What happened, rule by rule.
    pub trace: RewriteTrace,
}

/// A rewrite engine over generated XQuery programs.
///
/// Defined here (rather than in the optimizer crate) so the plan cache and
/// driver can hold an optimizer without depending on an implementation:
/// `aldsp-optimizer`'s hands every program back unchanged, and tests bring
/// their own.
pub trait QueryOptimizer {
    /// Rewrites `xquery` (the stage-three output for `prepared`, in the
    /// transport of `options`) under `options.optimize`. Implementations
    /// must be failure-free: a program they cannot improve — or cannot
    /// even parse — comes back unchanged with an empty or explanatory
    /// trace, never an error.
    fn optimize(
        &self,
        prepared: &PreparedQuery,
        xquery: &str,
        options: TranslationOptions,
    ) -> OptimizeOutcome;
}

/// Per-stage wall-clock timings, for the translation-latency experiment
/// (E2 in `EXPERIMENTS.md`).
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimings {
    /// Stage one (lex + parse + contexts).
    pub parse: Duration,
    /// Stage two (metadata + semantics + typing).
    pub prepare: Duration,
    /// Stage three (+ wrapper) generation.
    pub generate: Duration,
}

/// The result of a successful translation.
#[derive(Debug, Clone)]
pub struct Translation {
    /// The generated XQuery text (prolog included).
    pub xquery: String,
    /// Result-set metadata: one entry per output column.
    pub columns: Vec<OutputColumn>,
    /// Number of `?` parameter markers; the driver binds
    /// `$sqlParam1 ... $sqlParamN`.
    pub parameter_count: usize,
    /// The server metadata generation this translation was prepared
    /// against ([`MetadataApi::epoch`]). A server can reject execution of
    /// a translation carrying an older epoch than its catalog, letting the
    /// driver invalidate its metadata cache and retranslate instead of
    /// returning silently wrong results.
    pub metadata_epoch: u64,
    /// Per-stage timings.
    pub timings: StageTimings,
}

/// The translator: metadata access plus options.
pub struct Translator<M> {
    metadata: M,
}

impl<M: MetadataApi> Translator<M> {
    /// Creates a translator over a metadata API (usually a
    /// [`aldsp_catalog::CachedMetadataApi`]).
    pub fn new(metadata: M) -> Self {
        Translator { metadata }
    }

    /// The underlying metadata API.
    pub fn metadata(&self) -> &M {
        &self.metadata
    }

    /// Translates one SQL-92 SELECT statement.
    pub fn translate(
        &self,
        sql: &str,
        options: TranslationOptions,
    ) -> Result<Translation, TranslateError> {
        Ok(self.translate_full(sql, options)?.translation)
    }

    /// [`Translator::translate`], also returning the stage-two
    /// [`PreparedQuery`] — plan caches keep it so cached plans can be
    /// re-analyzed without re-running the pipeline.
    pub fn translate_full(
        &self,
        sql: &str,
        options: TranslationOptions,
    ) -> Result<FullTranslation, TranslateError> {
        self.translate_full_governed(sql, options, None)
    }

    /// [`Translator::translate_full`] under an optional [`QueryBudget`]:
    /// the budget's deadline and cancellation token are checked before
    /// stage one and between stages, so a cancelled or out-of-time query
    /// stops at the next stage boundary instead of completing generation
    /// it will never use.
    pub fn translate_full_governed(
        &self,
        sql: &str,
        options: TranslationOptions,
        budget: Option<&QueryBudget>,
    ) -> Result<FullTranslation, TranslateError> {
        if let Some(budget) = budget {
            budget.check().map_err(TranslateError::budget)?;
        }
        let start = Instant::now();
        // Captured before stage two's lookups: if the catalog changes
        // mid-translation, the stale epoch makes the server reject the
        // translation rather than execute it against changed metadata.
        let metadata_epoch = self.metadata.epoch();
        let parsed = stage1::parse(sql)?;
        let after_parse = Instant::now();
        self.translate_parsed_at(
            &parsed,
            options,
            metadata_epoch,
            after_parse - start,
            budget,
        )
    }

    /// Runs stages two and three over an already-parsed statement — the
    /// plan-cache path, where stage one ran once on the original text and
    /// the normalized statement is translated without re-parsing.
    pub fn translate_parsed(
        &self,
        parsed: &stage1::ParsedStatement,
        options: TranslationOptions,
    ) -> Result<FullTranslation, TranslateError> {
        self.translate_parsed_at(parsed, options, self.metadata.epoch(), Duration::ZERO, None)
    }

    fn translate_parsed_at(
        &self,
        parsed: &stage1::ParsedStatement,
        options: TranslationOptions,
        metadata_epoch: u64,
        parse_time: Duration,
        budget: Option<&QueryBudget>,
    ) -> Result<FullTranslation, TranslateError> {
        let check = |budget: Option<&QueryBudget>| match budget {
            Some(b) => b.check().map_err(TranslateError::budget),
            None => Ok(()),
        };
        check(budget)?;
        let after_parse = Instant::now();
        let prepared = stage2::prepare(parsed, &self.metadata)?;
        check(budget)?;
        let after_prepare = Instant::now();

        let generated = stage3::generate(&prepared)?;
        let xquery = match options.transport {
            Transport::Xml => generated.into_query_text(),
            Transport::DelimitedText => wrapper::wrap_delimited(generated, &prepared),
        };
        let after_generate = Instant::now();

        let translation = Translation {
            xquery,
            columns: prepared.output.clone(),
            parameter_count: parsed.parameter_count,
            metadata_epoch,
            timings: StageTimings {
                parse: parse_time,
                prepare: after_prepare - after_parse,
                generate: after_generate - after_prepare,
            },
        };
        Ok(FullTranslation {
            translation,
            prepared,
        })
    }
}

/// A translation together with the stage-two IR it was generated from.
#[derive(Debug, Clone)]
pub struct FullTranslation {
    /// The generated translation.
    pub translation: Translation,
    /// The stage-two prepared query (the cacheable plan form).
    pub prepared: PreparedQuery,
}
