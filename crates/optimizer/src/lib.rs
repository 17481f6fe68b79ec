//! # aldsp-optimizer — cost-driven FLWOR rewrite engine
//!
//! The paper's stage-three generator is deliberately naive and
//! compositional (§3.5): every query-block zone becomes its own nested
//! `for`/`let`, predicates stay where SQL put them, and DISTINCT / ORDER
//! BY translate structurally whether or not they do anything. The layer-4
//! cost analyzer *diagnoses* the resulting waste (`P001`–`P008`); this
//! crate closes the loop and *fixes* it, the way mediator-style XQuery
//! engines recover performance from a naive algebraic translation.
//!
//! The engine parses the generated program back to the `aldsp-xquery`
//! AST, runs the rule pipeline of [`rules::PIPELINE`] — each rule keyed
//! to the lint it discharges — and prices every candidate with the same
//! fuel model the analyzer calibrated against the evaluator
//! (`estimate_program_fuel`). A rewrite is kept only when it passes the
//! **safety gate**:
//!
//! 1. it must not raise the program's estimated fuel;
//! 2. analyzer layers 1–3 over the rewritten program must stay as clean
//!    as the baseline (no new findings, no errors);
//! 3. when validation is on (the default), the layer-5
//!    bounded-equivalence validator must find no diverging witness under
//!    its `quick()` budget.
//!
//! Gates 2 and 3 judge a fresh parse of the candidate's *text* — what
//! ships — against facts a [`Gate`] works out once per `optimize` call,
//! when the first candidate reaches it.
//!
//! A rule instance that fails any gate is *refused*: recorded in the
//! rewrite trace with `applied: false`, and the program reverts to the
//! last accepted state. A diverging rewrite is therefore never silently
//! executed — the worst case is the naive program the generator already
//! produced.

pub mod rules;
pub mod support;

use aldsp_analyzer::cost::estimate_program_fuel;
use aldsp_analyzer::{QueryFacts, ValidateOptions, Witnesses};
use aldsp_catalog::stats::CatalogStats;
use aldsp_core::{
    OptimizeLevel, OptimizeOutcome, PreparedQuery, QueryOptimizer, RewriteStep, RewriteTrace,
    TranslationOptions,
};
use aldsp_xquery::{parse_program, unparse_program, Program, XqParseError};
use rules::RuleContext;

/// Which layer of the safety gate refused a rewrite.
#[derive(Debug, Clone)]
pub struct GateRefusal {
    /// `"cost"`, `"analyzer"`, or `"validator"`.
    pub layer: &'static str,
    /// The first finding (or the regression) that caused the refusal.
    pub reason: String,
}

impl std::fmt::Display for GateRefusal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} gate: {}", self.layer, self.reason)
    }
}

/// The rewrite engine. Construct with the statistics snapshot the plans
/// will execute under; cardinality-keyed rules (join reordering, DISTINCT
/// elimination, ORDER BY pruning) answer from it.
pub struct Optimizer {
    stats: CatalogStats,
    validate: bool,
    validate_options: ValidateOptions,
}

impl Optimizer {
    /// An optimizer over `stats`. Layer-5 validation of every rewrite is
    /// on; [`Optimizer::with_validation`] turns it off (the analyzer
    /// layers 1–3 and the fuel gate still run). The validation budget
    /// defaults to
    /// [`ValidateOptions::quick`] with the stats' declared-unique columns
    /// as key constraints, so uniqueness-keyed rewrites are judged
    /// relative to the integrity constraints they rely on.
    pub fn new(stats: CatalogStats) -> Optimizer {
        let validate_options = ValidateOptions::quick().with_key_columns(stats.unique_columns());
        Optimizer {
            stats,
            validate: true,
            validate_options,
        }
    }

    /// Forces the layer-5 bounded-equivalence gate on or off.
    pub fn with_validation(mut self, validate: bool) -> Optimizer {
        self.validate = validate;
        self
    }

    /// Replaces the validation budget (default: [`ValidateOptions::quick`]).
    pub fn with_validate_options(mut self, options: ValidateOptions) -> Optimizer {
        self.validate_options = options;
        self
    }

    /// Whether the layer-5 gate is on.
    pub fn validates(&self) -> bool {
        self.validate
    }

    /// The statistics snapshot the engine prices with.
    pub fn stats(&self) -> &CatalogStats {
        &self.stats
    }

    /// Runs the safety gate alone: would this engine accept `candidate`
    /// as a rewrite of `baseline` (both translations of `prepared`)?
    /// Used by the mutation harness to measure the gate's kill rate
    /// against rewrite-shaped miscompilations; [`Optimizer::gate_for`]
    /// judges many candidates of one query.
    pub fn gate(
        &self,
        prepared: &PreparedQuery,
        baseline: &str,
        candidate: &str,
    ) -> Result<(), GateRefusal> {
        self.gate_for(prepared, baseline).admit(candidate)
    }

    /// The safety gate over `prepared`, with `baseline` as the translation
    /// candidates must stay as clean as.
    pub fn gate_for<'q>(&self, prepared: &'q PreparedQuery, baseline: &str) -> Gate<'q> {
        self.open_gate(prepared, parse_program(baseline).as_ref())
    }

    fn open_gate<'q>(
        &self,
        prepared: &'q PreparedQuery,
        baseline: Result<&Program, &XqParseError>,
    ) -> Gate<'q> {
        let facts = QueryFacts::of(prepared);
        let baseline_findings = facts.check(baseline).all().count();
        let witnesses = self
            .validate
            .then(|| Witnesses::of(prepared, &self.validate_options));
        Gate {
            facts,
            baseline_findings,
            witnesses,
        }
    }
}

/// Gates 2 and 3 over one prepared query: everything that depends on the
/// query alone — layer 1's findings and layer 3's SQL-side type flow, how
/// many layer-1–3 findings (of any severity) the baseline translation
/// has, and, when validation is on, the witness databases with the
/// reference's answers — worked out once, for every candidate the query
/// gets.
pub struct Gate<'q> {
    facts: QueryFacts<'q>,
    baseline_findings: usize,
    witnesses: Option<Witnesses<'q>>,
}

impl Gate<'_> {
    /// Judges one candidate. What is judged is a fresh parse of
    /// `candidate` — the text that ships, with the printer between the
    /// rule and the server inside the check — never the rule's AST; text
    /// that does not parse is refused with layer 2's `A100`.
    pub fn admit(&self, candidate: &str) -> Result<(), GateRefusal> {
        let parsed = parse_program(candidate);
        let report = self.facts.check(parsed.as_ref());
        if !report.is_clean() || report.all().count() > self.baseline_findings {
            let first = report.all().next().expect("either test needs a finding");
            return Err(GateRefusal {
                layer: "analyzer",
                reason: first.to_string(),
            });
        }
        if let (Some(witnesses), Ok(program)) = (&self.witnesses, &parsed) {
            if let Some(first) = witnesses.check(program).diagnostics.first() {
                return Err(GateRefusal {
                    layer: "validator",
                    reason: first.to_string(),
                });
            }
        }
        Ok(())
    }
}

impl QueryOptimizer for Optimizer {
    fn optimize(
        &self,
        prepared: &PreparedQuery,
        xquery: &str,
        options: TranslationOptions,
    ) -> OptimizeOutcome {
        let unchanged = |steps: Vec<RewriteStep>, cost: f64| OptimizeOutcome {
            xquery: xquery.to_string(),
            trace: RewriteTrace {
                cost_before: cost,
                cost_after: cost,
                steps,
            },
        };
        if options.optimize == OptimizeLevel::Off {
            return unchanged(Vec::new(), 0.0);
        }
        let Ok(mut program) = parse_program(xquery) else {
            // Unparsable output is layer 2's A100 finding, not ours;
            // execute the program verbatim.
            return unchanged(Vec::new(), 0.0);
        };
        let cost_start = estimate_program_fuel(prepared, &program, &self.stats);
        // Opened by the first candidate that gets past the cost gate:
        // until one is accepted `program` is still the baseline.
        let mut gate: Option<Gate<'_>> = None;
        let cx = RuleContext {
            prepared,
            stats: &self.stats,
            level: options.optimize,
        };
        let mut current_text = xquery.to_string();
        let mut current_cost = cost_start;
        let mut steps: Vec<RewriteStep> = Vec::new();
        for rule in rules::PIPELINE {
            let mut candidate = program.clone();
            let Some(note) = (rule.apply)(&mut candidate, &cx) else {
                continue;
            };
            let candidate_text = unparse_program(&candidate);
            if candidate_text == current_text {
                continue;
            }
            let candidate_cost = estimate_program_fuel(prepared, &candidate, &self.stats);
            if candidate_cost > current_cost * (1.0 + 1e-9) {
                steps.push(RewriteStep {
                    rule: rule.name,
                    lint: rule.lint,
                    cost_before: current_cost,
                    cost_after: current_cost,
                    applied: false,
                    note: format!(
                        "cost gate: estimated fuel {candidate_cost:.0} exceeds {current_cost:.0} ({note})"
                    ),
                });
                continue;
            }
            let gate = gate.get_or_insert_with(|| self.open_gate(prepared, Ok(&program)));
            if let Err(refusal) = gate.admit(&candidate_text) {
                steps.push(RewriteStep {
                    rule: rule.name,
                    lint: rule.lint,
                    cost_before: current_cost,
                    cost_after: current_cost,
                    applied: false,
                    note: format!("{refusal} ({note})"),
                });
                continue;
            }
            steps.push(RewriteStep {
                rule: rule.name,
                lint: rule.lint,
                cost_before: current_cost,
                cost_after: candidate_cost,
                applied: true,
                note,
            });
            program = candidate;
            current_text = candidate_text;
            current_cost = candidate_cost;
        }
        OptimizeOutcome {
            xquery: current_text,
            trace: RewriteTrace {
                cost_before: cost_start,
                cost_after: current_cost,
                steps,
            },
        }
    }
}
