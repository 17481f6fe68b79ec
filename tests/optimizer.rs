//! Optimizer integration tests: per-rule behavior on real translations,
//! golden-corpus cleanliness through all five analyzer layers, the
//! validator gate's kill rate against rewrite-shaped miscompilations,
//! and end-to-end result equality on the optimized lanes of the
//! differential matrix.

use aldsp::analyzer::report::analyze_translation;
use aldsp::analyzer::validate::{check_equivalence, ValidateOptions};
use aldsp::catalog::{CachedMetadataApi, InProcessMetadataApi, TableLocator};
use aldsp::core::{OptimizeLevel, QueryOptimizer, TranslationOptions, Translator, Transport};
use aldsp::optimizer::Optimizer;
use aldsp::workload::{
    build_application, golden_statements, mutants_for, run_matrix, stats_for, Engine, Lane,
    MutationClass, QueryGenerator, Scale, Universe,
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

/// Translates `sql` and runs the optimizer at `level` with the layer-5
/// gate on; returns (naive text, outcome).
fn optimize(sql: &str, level: OptimizeLevel) -> (String, aldsp::core::OptimizeOutcome) {
    let translator = translator();
    let options = TranslationOptions::with_transport(Transport::Xml).optimized(level);
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

/// The first `for` clause line of a program — the source that drives the
/// outermost loop nest.
fn first_for_source(text: &str) -> String {
    text.lines()
        .find(|l| l.trim_start().starts_with("for "))
        .expect("program has a for clause")
        .to_string()
}

#[test]
fn pushdown_anchors_filter_before_join_expansion() {
    let (naive, outcome) = optimize(
        "SELECT CUSTOMERS.CUSTOMERNAME, ORDERS.AMOUNT FROM CUSTOMERS \
         INNER JOIN ORDERS ON CUSTOMERS.CUSTOMERID = ORDERS.CUSTID \
         WHERE CUSTOMERS.REGION = 'WEST'",
        OptimizeLevel::Basic,
    );
    assert!(
        applied_rules(&outcome).contains(&"predicate_pushdown"),
        "trace: {:?}",
        outcome.trace.steps
    );
    assert_ne!(outcome.xquery, naive);
    assert!(
        outcome.trace.cost_after < outcome.trace.cost_before,
        "pushdown must lower estimated fuel: {} -> {}",
        outcome.trace.cost_before,
        outcome.trace.cost_after
    );
    parse_program(&outcome.xquery).expect("optimized text parses");
}

#[test]
fn join_reorder_puts_smaller_source_first_at_full_only() {
    // ORDERS (60 rows) drives the loop, CUSTOMERS (25) re-scans per
    // tuple: Full level reorders, Basic must not (order sensitivity).
    let sql = "SELECT ORDERS.ORDERID, CUSTOMERS.CUSTOMERNAME FROM ORDERS \
               INNER JOIN CUSTOMERS ON ORDERS.CUSTID = CUSTOMERS.CUSTOMERID";
    let (_, full) = optimize(sql, OptimizeLevel::Full);
    assert!(
        applied_rules(&full).contains(&"join_reorder"),
        "trace: {:?}",
        full.trace.steps
    );
    // Inspect the first `for` clause (later sources may also be hoisted
    // into `let` bindings above it, so raw text positions don't reflect
    // loop order): the smaller CUSTOMERS source must drive the loop.
    assert!(
        first_for_source(&full.xquery).contains("CUSTOMERS()"),
        "smaller source must drive the loop nest:\n{}",
        full.xquery
    );
    let (_, basic) = optimize(sql, OptimizeLevel::Basic);
    assert!(!applied_rules(&basic).contains(&"join_reorder"));
}

#[test]
fn join_reorder_refuses_ordered_queries() {
    let (naive, outcome) = optimize(
        "SELECT ORDERS.ORDERID, CUSTOMERS.CUSTOMERNAME FROM ORDERS \
         INNER JOIN CUSTOMERS ON ORDERS.CUSTID = CUSTOMERS.CUSTOMERID \
         ORDER BY ORDERS.ORDERID, CUSTOMERS.CUSTOMERNAME",
        OptimizeLevel::Full,
    );
    assert!(!applied_rules(&outcome).contains(&"join_reorder"));
    // The naive driving source is preserved: the first `for` clause
    // still ranges over ORDERS.
    assert!(first_for_source(&naive).contains("ORDERS()"));
    assert!(
        first_for_source(&outcome.xquery).contains("ORDERS()"),
        "ordered query must keep its loop order:\n{}",
        outcome.xquery
    );
}

#[test]
fn distinct_eliminated_only_under_declared_uniqueness() {
    let (naive, outcome) = optimize(
        "SELECT DISTINCT CUSTOMERID FROM CUSTOMERS",
        OptimizeLevel::Basic,
    );
    assert!(naive.contains("fn-bea:distinct-records"));
    assert!(
        applied_rules(&outcome).contains(&"distinct_elimination"),
        "trace: {:?}",
        outcome.trace.steps
    );
    assert!(!outcome.xquery.contains("fn-bea:distinct-records"));

    // REGION has 4 distinct values over 25 rows: de-dup is load-bearing.
    let (_, kept) = optimize(
        "SELECT DISTINCT REGION FROM CUSTOMERS",
        OptimizeLevel::Basic,
    );
    assert!(kept.xquery.contains("fn-bea:distinct-records"));
}

#[test]
fn orderby_pruned_after_unique_leading_key() {
    let (naive, outcome) = optimize(
        "SELECT CUSTOMERID, CUSTOMERNAME, REGION FROM CUSTOMERS \
         ORDER BY CUSTOMERID, CUSTOMERNAME, REGION",
        OptimizeLevel::Basic,
    );
    assert!(
        applied_rules(&outcome).contains(&"orderby_prune"),
        "trace: {:?}",
        outcome.trace.steps
    );
    let keys = |text: &str| {
        let tail = &text[text.find("order by").expect("order by survives")..];
        let line = tail.lines().next().unwrap_or(tail);
        line.matches(',').count() + 1
    };
    assert!(keys(&naive) > 1);
    assert_eq!(keys(&outcome.xquery), 1, "{}", outcome.xquery);
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
        let (_, outcome) = optimize(sql, OptimizeLevel::Full);
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
/// through all five analyzer layers — layers 1–3 report nothing, the
/// optimized text parses, and the bounded-equivalence validator finds no
/// diverging witness against the prepared IR.
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
        let report = analyze_translation(&full.prepared, &outcome.xquery);
        assert!(
            report.is_clean(),
            "golden `{sql}` optimized dirty: {:?}/{:?}/{:?}",
            report.ir,
            report.xquery,
            report.types
        );
        // Optimized programs are equivalent *relative to the declared
        // key constraints* (DISTINCT elimination relies on them), so the
        // final check enumerates constraint-respecting witnesses.
        let validate_options =
            ValidateOptions::quick().with_key_columns(stats_for(Scale::small()).unique_columns());
        let diagnostics = check_equivalence(&full.prepared, &outcome.xquery, &validate_options);
        assert!(
            diagnostics.is_empty(),
            "golden `{sql}` optimized text diverges: {diagnostics:?}"
        );
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
        for mutant in mutants_for(&full.translation.xquery) {
            if !matches!(
                mutant.class,
                MutationClass::BadPushdown | MutationClass::UnsoundLetInline
            ) {
                continue;
            }
            total += 1;
            match engine.gate(&full.prepared, &full.translation.xquery, &mutant.xquery) {
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

/// End to end: the lanes that optimize at `Full` — on the interpreter and
/// in the production configuration — agree with the oracle on both
/// transports for a mixed workload (ordered queries compared
/// positionally, unordered as bags; neither lane claims the naive
/// emission order, join reorder keeps only the bag).
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
