//! Optimizer integration tests: the hoist rule on a real translation,
//! golden-corpus cleanliness through all five analyzer layers, the
//! validator gate's kill rate against rewrite-shaped miscompilations,
//! and end-to-end result equality on the optimized lanes of the
//! differential matrix.

use aldsp::analyzer::validate::ValidateOptions;
use aldsp::catalog::{CachedMetadataApi, InProcessMetadataApi, TableLocator};
use aldsp::core::{OptimizeLevel, QueryOptimizer, TranslationOptions, Translator, Transport};
use aldsp::optimizer::Optimizer;
use aldsp::workload::{
    build_application, fuzzed_corpus, golden_corpus, golden_statements, mutants_for, paper_corpus,
    run_matrix, stats_for, Engine, Lane, MutationClass, QueryGenerator, Scale, Universe,
};
use aldsp::xquery::parse_program;
use std::sync::Arc;

fn translator() -> Translator<CachedMetadataApi<InProcessMetadataApi>> {
    let app = build_application();
    Translator::new(CachedMetadataApi::new(InProcessMetadataApi::new(
        TableLocator::for_application(&app),
    )))
}

fn optimizer() -> Optimizer {
    Optimizer::new(stats_for(Scale::small())).with_validation(true)
}

/// Translates `sql` and runs the optimizer at `Full` with the layer-5
/// gate on; returns (naive text, outcome).
fn optimize(sql: &str) -> (String, aldsp::core::OptimizeOutcome) {
    let translator = translator();
    let options = TranslationOptions::with_transport(Transport::Xml).optimized(OptimizeLevel::Full);
    let full = translator.translate_full(sql, options).expect("translates");
    let outcome = optimizer().optimize(&full.prepared, &full.translation.xquery, options);
    (full.translation.xquery, outcome)
}

fn applied_rules(outcome: &aldsp::core::OptimizeOutcome) -> Vec<&'static str> {
    outcome
        .trace
        .steps
        .iter()
        .filter(|s| s.applied)
        .map(|s| s.rule)
        .collect()
}

/// The one rule: a join's second data-service scan, re-evaluated per
/// tuple of the first, moves into one `let` in the hoist zone, and the
/// estimated fuel falls.
#[test]
fn hoist_moves_a_join_source_into_one_let() {
    let (naive, outcome) = optimize(
        "SELECT CUSTOMERS.CUSTOMERNAME, ORDERS.AMOUNT FROM CUSTOMERS \
         INNER JOIN ORDERS ON CUSTOMERS.CUSTOMERID = ORDERS.CUSTID",
    );
    assert_eq!(
        applied_rules(&outcome),
        ["invariant_hoist"],
        "trace: {:?}",
        outcome.trace.steps
    );
    assert!(!naive.contains("var0HX1"), "{naive}");
    assert!(
        outcome.xquery.contains("let $var0HX1"),
        "{}",
        outcome.xquery
    );
    assert!(
        outcome.trace.cost_after < outcome.trace.cost_before,
        "the hoist must lower estimated fuel: {} -> {}",
        outcome.trace.cost_before,
        outcome.trace.cost_after
    );
    parse_program(&outcome.xquery).expect("optimized text parses");
}

#[test]
fn every_step_reruns_the_gate_and_never_raises_cost() {
    let queries = [
        "SELECT DISTINCT CUSTOMERID, CUSTOMERNAME FROM CUSTOMERS \
         ORDER BY CUSTOMERID, CUSTOMERNAME",
        "SELECT CUSTOMERS.CUSTOMERNAME, ORDERS.AMOUNT, PAYMENTS.PAYMENT FROM CUSTOMERS \
         INNER JOIN ORDERS ON CUSTOMERS.CUSTOMERID = ORDERS.CUSTID \
         INNER JOIN PAYMENTS ON CUSTOMERS.CUSTOMERID = PAYMENTS.CUSTID \
         WHERE CUSTOMERS.REGION = 'EAST' AND ORDERS.STATUS = 'OPEN'",
    ];
    for sql in queries {
        let (_, outcome) = optimize(sql);
        for pair in outcome.trace.steps.windows(2) {
            assert!(
                pair[1].cost_before <= pair[0].cost_after + 1e-6,
                "per-step costs must be monotone: {:?}",
                outcome.trace.steps
            );
        }
        assert!(outcome.trace.cost_after <= outcome.trace.cost_before);
    }
}

/// Every golden-corpus statement must come out of the optimizer clean
/// through all five analyzer layers: the engine's own gate — one fresh
/// parse of the optimized text, layers 1–3 with no error and no more
/// findings than the naive text has, no diverging witness against the
/// prepared IR — accepts the final text as a rewrite of the naive one.
#[test]
fn golden_corpus_optimizes_clean_through_all_layers() {
    let translator = translator();
    let engine = optimizer();
    let options = TranslationOptions::with_transport(Transport::Xml).optimized(OptimizeLevel::Full);
    let mut statements = 0usize;
    let mut rewritten = 0usize;
    for sql in &golden_statements() {
        statements += 1;
        let full = translator
            .translate_full(sql, options)
            .unwrap_or_else(|e| panic!("golden `{sql}` must translate: {e}"));
        let outcome = engine.optimize(&full.prepared, &full.translation.xquery, options);
        // Optimized programs are equivalent *relative to the declared
        // key constraints*: the engine's budget enumerates
        // constraint-respecting witnesses.
        if let Err(refusal) = engine.gate(&full.prepared, &full.translation.xquery, &outcome.xquery)
        {
            panic!("golden `{sql}` optimized dirty: {refusal}");
        }
        if outcome.trace.applied() > 0 {
            rewritten += 1;
        }
    }
    assert!(statements >= 20, "golden corpus shrank to {statements}");
    assert!(
        rewritten >= 3,
        "expected several golden statements to actually rewrite, got {rewritten}"
    );
}

/// The gate must reject >= 95% of rewrite-shaped miscompilations: the
/// `bad_pushdown` class (predicate moved past its binder / the
/// outer-join padding boundary) and the `unsound_let_inline` class
/// (value inlined against the wrong binder). Both model bugs *this*
/// optimizer could have, which is exactly what the per-rewrite gate is
/// for.
#[test]
fn gate_rejects_rewrite_shaped_miscompilations() {
    let translator = translator();
    // Kill-rate measurement runs with the full (E11) witness budget —
    // the per-rewrite quick() budget trades a few 3-way-join escapes
    // for latency, which is the wrong trade when measuring teeth.
    let engine = optimizer().with_validate_options(ValidateOptions::default());
    let options = TranslationOptions::with_transport(Transport::Xml);
    let corpus: Vec<String> = {
        let mut queries: Vec<String> = vec![
            // Outer join: the padded view + row expansion + filter shape.
            "SELECT CUSTOMERS.CUSTOMERID, PAYMENTS.PAYMENT FROM CUSTOMERS \
             LEFT OUTER JOIN PAYMENTS ON CUSTOMERS.CUSTOMERID = PAYMENTS.CUSTID \
             WHERE PAYMENTS.PAYMENT > 50"
                .into(),
            "SELECT CUSTOMERS.CUSTOMERNAME, ORDERS.AMOUNT FROM CUSTOMERS \
             INNER JOIN ORDERS ON CUSTOMERS.CUSTOMERID = ORDERS.CUSTID \
             WHERE ORDERS.AMOUNT > 100 AND CUSTOMERS.REGION = 'WEST'"
                .into(),
        ];
        let mut generator = QueryGenerator::new(7);
        for _ in 0..60 {
            let (_, sql) = generator.generate_any();
            queries.push(sql);
        }
        queries
    };

    let mut total = 0usize;
    let mut rejected = 0usize;
    let mut analyzer_kills = 0usize;
    let mut validator_kills = 0usize;
    let mut escaped: Vec<String> = Vec::new();
    for sql in &corpus {
        let Ok(full) = translator.translate_full(sql, options) else {
            continue;
        };
        // One gate per statement: every mutant is judged against the same
        // query facts, baseline and reference side.
        let gate = engine.gate_for(&full.prepared, &full.translation.xquery);
        for mutant in mutants_for(&full.translation.xquery) {
            if !matches!(
                mutant.class,
                MutationClass::BadPushdown | MutationClass::UnsoundLetInline
            ) {
                continue;
            }
            total += 1;
            match gate.admit(&mutant.xquery) {
                Err(refusal) => {
                    rejected += 1;
                    match refusal.layer {
                        "analyzer" => analyzer_kills += 1,
                        "validator" => validator_kills += 1,
                        other => panic!("unexpected gate layer {other}"),
                    }
                }
                Ok(()) => {
                    if escaped.len() < 5 {
                        escaped.push(format!("[{}] {sql}", mutant.description));
                    }
                }
            }
        }
    }
    assert!(
        total >= 40,
        "mutation corpus too small to measure a rate: {total}"
    );
    let rate = rejected as f64 / total as f64;
    assert!(
        rate >= 0.95,
        "gate rejected {rejected}/{total} ({rate:.3}), needs >= 0.95; escaped: {escaped:?}"
    );
    // Both gate layers must contribute: bad pushdowns break scoping
    // (layer 2), unsound inlines stay lint-clean and only the bounded
    // equivalence check (layer 5) can refute them.
    assert!(analyzer_kills > 0, "expected analyzer-layer rejections");
    assert!(validator_kills > 0, "expected validator-layer rejections");
}

/// The gate judges the text that ships, not the rule's AST: a candidate
/// that does not parse is refused with layer 2's `A100`, and a baseline
/// that does not parse is a baseline with that one finding.
#[test]
fn gate_refuses_unparsable_text_at_the_analyzer_layer() {
    let options = TranslationOptions::with_transport(Transport::Xml);
    let full = translator()
        .translate_full("SELECT CUSTOMERID FROM CUSTOMERS", options)
        .expect("translates");
    let (engine, naive) = (optimizer(), &full.translation.xquery);
    for baseline in [naive.as_str(), "for $x in ("] {
        let refusal = engine
            .gate(&full.prepared, baseline, "for $x in (")
            .expect_err("unparsable candidate");
        assert_eq!(refusal.layer, "analyzer");
        assert!(refusal.reason.contains("A100"), "{refusal}");
        engine
            .gate(&full.prepared, baseline, naive)
            .unwrap_or_else(|refusal| panic!("the clean text is refused: {refusal}"));
    }
}

/// The layer-5 gate only ever refuses: with it on and off the engine
/// tries the same rewrite and, wherever layer 5 refused nothing, produces
/// the same text and the same trace.
#[test]
fn validation_gate_changes_nothing_it_does_not_refuse() {
    let translator = translator();
    let stats = stats_for(Scale::small());
    let (gated, ungated) = (
        Optimizer::new(stats.clone()),
        Optimizer::new(stats).with_validation(false),
    );
    assert!(gated.validates() && !ungated.validates());
    let mut statements = paper_corpus();
    statements.extend(golden_corpus());
    statements.extend(fuzzed_corpus(3, 10));
    let (mut compared, mut rewritten) = (0usize, 0usize);
    for (origin, sql) in &statements {
        for transport in [Transport::DelimitedText, Transport::Xml] {
            let options =
                TranslationOptions::with_transport(transport).optimized(OptimizeLevel::Full);
            let full = translator
                .translate_full(sql, options)
                .unwrap_or_else(|e| panic!("{origin}: `{sql}`: {e}"));
            let optimize = |engine: &Optimizer| {
                engine.optimize(&full.prepared, &full.translation.xquery, options)
            };
            let (on, off) = (optimize(&gated), optimize(&ungated));
            if on
                .trace
                .steps
                .iter()
                .any(|s| s.note.starts_with("validator gate:"))
            {
                continue;
            }
            let steps = |outcome: &aldsp::core::OptimizeOutcome| -> Vec<(&str, bool, String)> {
                let steps = outcome.trace.steps.iter();
                steps.map(|s| (s.rule, s.applied, s.note.clone())).collect()
            };
            assert_eq!(steps(&on), steps(&off), "{origin} {transport:?}: `{sql}`");
            assert_eq!(on.xquery, off.xquery, "{origin} {transport:?}: `{sql}`");
            compared += 1;
            rewritten += usize::from(on.trace.applied() > 0);
        }
    }
    assert!(
        compared >= 200 && rewritten >= 50,
        "{compared} statements compared, {rewritten} of them rewritten"
    );
}

/// End to end: the lanes that optimize at `Full` — on the interpreter and
/// in the production configuration — agree with the oracle on both
/// transports for a mixed workload (ordered queries compared
/// positionally, unordered as bags), and each emits its plain lane's rows
/// in the plain lane's order.
#[test]
fn optimized_service_matches_naive_service() {
    let queries = [
        "SELECT CUSTOMERID, CUSTOMERNAME FROM CUSTOMERS ORDER BY CUSTOMERID",
        "SELECT DISTINCT CUSTOMERID, CUSTOMERNAME FROM CUSTOMERS \
         ORDER BY CUSTOMERID, CUSTOMERNAME",
        "SELECT ORDERS.ORDERID, CUSTOMERS.CUSTOMERNAME FROM ORDERS \
         INNER JOIN CUSTOMERS ON ORDERS.CUSTID = CUSTOMERS.CUSTOMERID \
         WHERE CUSTOMERS.REGION = 'WEST'",
        "SELECT CUSTOMERS.CUSTOMERID, PAYMENTS.PAYMENT FROM CUSTOMERS \
         LEFT OUTER JOIN PAYMENTS ON CUSTOMERS.CUSTOMERID = PAYMENTS.CUSTID \
         WHERE PAYMENTS.PAYMENT > 50",
        "SELECT CUSTOMERS.CUSTOMERNAME, PAYMENTS.PAYMENT FROM CUSTOMERS \
         INNER JOIN PAYMENTS ON CUSTOMERS.CUSTOMERID = PAYMENTS.CUSTID",
    ];
    let corpus: Vec<(String, String)> = queries
        .iter()
        .enumerate()
        .map(|(i, sql)| (format!("q{i}"), sql.to_string()))
        .collect();
    let engine = || -> Engine { Arc::new(optimizer()) };
    let mut lanes = Lane::both(Lane::plain);
    lanes.extend(Lane::both(|t| Lane::optimized(t, engine())));
    lanes.extend(Lane::both(|t| Lane::production(t, engine())));
    let universe = Universe::generated(Scale::small(), 23);
    let report = run_matrix(&universe, &corpus, &lanes, None);
    assert!(report.is_clean(), "{:#?}", report.mismatches);
    // The optimizer actually ran: cached plans carry applied rewrites,
    // and they cost less fuel than the same transport's naive plans.
    let fuel = |label: &str| report.lane(label).fuel.iter().sum::<u64>();
    for lane in &report.lanes[2..] {
        assert!(lane.rewritten >= 2, "{}: {}", lane.label, lane.rewritten);
        let naive = lane.label.split('+').next().expect("<transport>+<kind>");
        assert!(
            fuel(&lane.label) < fuel(naive),
            "{} saved no fuel",
            lane.label
        );
    }
}
