//! Optimizer integration test: the golden corpus through the optimizer
//! production configures and every analysis layer that judges a program.
//!
//! The optimizer rewrites nothing any more — the engine evaluates a
//! loop-invariant source once per evaluation of its FLWOR — so what this
//! pins is that the program it hands back is stage 3's text, that text is
//! clean through layers 1–3 and layer 5, and the saving the retired hoist
//! rule bought shows up as memoized sources in the pipeline plans.

use aldsp::analyzer::{check_equivalence, QueryFacts, ValidateOptions};
use aldsp::catalog::{CachedMetadataApi, InProcessMetadataApi, TableLocator};
use aldsp::core::{
    ExecStrategy, OptimizeLevel, QueryOptimizer, TranslationOptions, Translator, Transport,
};
use aldsp::optimizer::Optimizer;
use aldsp::workload::{build_application, golden_statements, memoized_sources, stats_for, Scale};
use aldsp::xquery::parse_program;

/// Every golden statement, translated at `Full` and passed through the
/// optimizer, comes back as the text stage 3 wrote, with an empty trace;
/// that text parses, layers 1–3 find no error in it, and the bounded
/// equivalence validator (layer 5) finds no witness on which it diverges
/// from the prepared IR. At least three golden statements have pipeline
/// plans that memoize a source — the statements the hoist used to rewrite.
#[test]
fn golden_corpus_optimizes_clean_through_all_layers() {
    let app = build_application();
    let translator = Translator::new(CachedMetadataApi::new(InProcessMetadataApi::new(
        TableLocator::for_application(&app),
    )));
    let engine = Optimizer::new(stats_for(Scale::small())).with_validation(true);
    let options = TranslationOptions::with_transport(Transport::Xml).optimized(OptimizeLevel::Full);
    let mut statements = 0usize;
    let mut memoizing = 0usize;
    for sql in &golden_statements() {
        statements += 1;
        let full = translator
            .translate_full(sql, options)
            .unwrap_or_else(|e| panic!("golden `{sql}` must translate: {e}"));
        let outcome = engine.optimize(&full.prepared, &full.translation.xquery, options);
        assert_eq!(
            outcome.xquery, full.translation.xquery,
            "`{sql}` was rewritten"
        );
        assert_eq!(outcome.trace.applied(), 0, "`{sql}`");
        let program = parse_program(&outcome.xquery)
            .unwrap_or_else(|e| panic!("golden `{sql}` must parse: {e}"));
        let report = QueryFacts::of(&full.prepared).check(Ok(&program));
        assert!(report.is_clean(), "golden `{sql}`:\n{}", report.render());
        let diverged =
            check_equivalence(&full.prepared, &outcome.xquery, &ValidateOptions::quick());
        assert!(diverged.is_empty(), "golden `{sql}` diverged: {diverged:?}");
        if memoized_sources(&program, ExecStrategy::HashJoin) > 0 {
            memoizing += 1;
        }
    }
    assert!(statements >= 20, "golden corpus shrank to {statements}");
    assert!(
        memoizing >= 3,
        "expected several golden plans to memoize a source, got {memoizing}"
    );
}
