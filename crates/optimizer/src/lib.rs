//! # aldsp-optimizer — cost-gated FLWOR rewrite engine
//!
//! The paper's stage-three generator is deliberately naive and
//! compositional (§3.5): every query-block zone becomes its own nested
//! `for`/`let`, predicates stay where SQL put them, and DISTINCT / ORDER
//! BY translate structurally whether or not they do anything. The layer-4
//! cost analyzer *diagnoses* the resulting waste (`P001`–`P008`). Most of
//! it the XQuery engine underneath cleans up by itself — it plans joins,
//! views, aggregates, sorts and set operations per statement — so this
//! crate fixes the one pattern the engine does not: a loop-invariant
//! source re-evaluated per tuple (`P008`), which the `invariant_hoist`
//! rule moves into one `let`.
//!
//! The engine parses the generated program back to the `aldsp-xquery`
//! AST, applies the rule, and prices the candidate with the same fuel
//! model the analyzer calibrated against the evaluator
//! (`estimate_program_fuel`). The rewrite is kept only when it passes the
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
//! ships — against facts a [`Gate`] works out once per query.
//!
//! A rewrite that fails any gate is *refused*: recorded in the rewrite
//! trace with `applied: false`, and the naive program runs instead. A
//! diverging rewrite is therefore never silently executed. The hoist
//! keeps every binding's value and every tuple's order, so an optimized
//! program emits the naive program's rows in the naive order.

mod rules;

use aldsp_analyzer::cost::estimate_program_fuel;
use aldsp_analyzer::{QueryFacts, ValidateOptions, Witnesses};
use aldsp_catalog::stats::CatalogStats;
use aldsp_core::{
    OptimizeLevel, OptimizeOutcome, PreparedQuery, QueryOptimizer, RewriteStep, RewriteTrace,
    TranslationOptions,
};
use aldsp_xquery::{parse_program, unparse_program, Program, XqParseError};

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
/// will execute under; the fuel estimates of the cost gate answer from it.
pub struct Optimizer {
    stats: CatalogStats,
    validate: bool,
    validate_options: ValidateOptions,
}

impl Optimizer {
    /// An optimizer over `stats`. Layer-5 validation of every rewrite is
    /// on; [`Optimizer::with_validation`] turns it off (the analyzer
    /// layers 1–3 and the fuel gate still run). The validation budget
    /// defaults to [`ValidateOptions::quick`] with the stats' declared-unique
    /// columns as key constraints, so the witness databases respect the
    /// integrity constraints the data declares.
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
        let Ok(program) = parse_program(xquery) else {
            // Unparsable output is layer 2's A100 finding, not ours;
            // execute the program verbatim.
            return unchanged(Vec::new(), 0.0);
        };
        let cost_before = estimate_program_fuel(prepared, &program, &self.stats);
        let mut candidate = program.clone();
        let Some(note) = rules::invariant_hoist(&mut candidate) else {
            return unchanged(Vec::new(), cost_before);
        };
        let candidate_text = unparse_program(&candidate);
        if candidate_text == xquery {
            return unchanged(Vec::new(), cost_before);
        }
        let step = |applied: bool, cost_after: f64, note: String| RewriteStep {
            rule: "invariant_hoist",
            lint: "P008",
            cost_before,
            cost_after,
            applied,
            note,
        };
        let candidate_cost = estimate_program_fuel(prepared, &candidate, &self.stats);
        if candidate_cost > cost_before * (1.0 + 1e-9) {
            let note = format!(
                "cost gate: estimated fuel {candidate_cost:.0} exceeds {cost_before:.0} ({note})"
            );
            return unchanged(vec![step(false, cost_before, note)], cost_before);
        }
        if let Err(refusal) = self
            .open_gate(prepared, Ok(&program))
            .admit(&candidate_text)
        {
            let note = format!("{refusal} ({note})");
            return unchanged(vec![step(false, cost_before, note)], cost_before);
        }
        OptimizeOutcome {
            xquery: candidate_text,
            trace: RewriteTrace {
                cost_before,
                cost_after: candidate_cost,
                steps: vec![step(true, candidate_cost, note)],
            },
        }
    }
}
