//! Strategy parity: a program answers the same under the nested-loop
//! interpreter and under the pipeline strategy — the same payload, or an
//! error with the same text. The programs are every stage-3 text without
//! parameters of a fuzzed corpus, on both transports, and every
//! single-site mutant of each (`mutants_for`): the mutants reach shapes
//! and dynamic errors the translator never emits, which is where a
//! lowering's fallback and its error parity are decided.
//!
//! The tier-1 slice runs one statement per construct class; the full
//! sweep, 36 per class over two seeds, is `#[ignore]`d:
//!
//! ```sh
//! cargo test --release --test strategy_parity -- --ignored
//! ```

use aldsp::core::{ExecStrategy, TranslationOptions, Transport};
use aldsp::driver::Connection;
use aldsp::workload::{fuzzed_corpus, mutants_for, Scale, Universe};
use std::sync::Arc;

/// What a parity run saw.
#[derive(Debug, Default)]
struct Parity {
    /// Programs run under both strategies.
    programs: usize,
    /// Of those, the programs that raised an error (under both).
    errors: usize,
}

/// Runs every program of `fuzzed_corpus(seed, per_class)` under both
/// strategies over `Scale::of(40)` data and panics on the first few
/// programs whose two outcomes differ.
fn parity(seed: u64, per_class: usize) -> Parity {
    let universe = Universe::generated(Scale::of(40), seed);
    let server = &universe.server;
    let conn = Connection::open(Arc::clone(server));
    let mut seen = Parity::default();
    let mut divergences = Vec::new();
    for (origin, sql) in fuzzed_corpus(seed, per_class) {
        for transport in [Transport::Xml, Transport::DelimitedText] {
            let options = TranslationOptions::with_transport(transport);
            let translation = conn
                .translator()
                .translate(&sql, options)
                .unwrap_or_else(|e| panic!("{origin} `{sql}`: {e}"));
            if translation.parameter_count > 0 {
                continue;
            }
            let mutants = mutants_for(&translation.xquery);
            let texts =
                std::iter::once(&translation.xquery).chain(mutants.iter().map(|m| &m.xquery));
            for text in texts {
                let run = |strategy| {
                    server
                        .execute_to_payload_governed_with(text, &[], None, None, strategy)
                        .map_err(|e| e.to_string())
                };
                let nested = run(ExecStrategy::NestedLoop);
                let hash = run(ExecStrategy::HashJoin);
                seen.programs += 1;
                seen.errors += usize::from(nested.is_err());
                if nested != hash {
                    divergences.push(format!(
                        "{origin} `{sql}` ({transport:?}):\n{text}\nnested loop: {nested:?}\nhash join:   {hash:?}"
                    ));
                }
            }
        }
    }
    assert!(
        divergences.is_empty(),
        "seed {seed}: {} of {} programs diverge between strategies; the first:\n{}",
        divergences.len(),
        seen.programs,
        divergences[..divergences.len().min(3)].join("\n\n")
    );
    seen
}

#[test]
fn both_strategies_answer_alike_on_one_statement_per_class() {
    let seen = parity(11, 1);
    println!("seed 11: {seen:?}, 0 divergences");
    // Some mutants raise dynamic errors, so the error half is exercised
    // too, not only the payloads.
    assert!(
        seen.programs >= 100 && seen.errors > 0,
        "only {seen:?} checked"
    );
}

#[test]
#[ignore = "full sweep: about 7,700 programs, minutes in release"]
fn both_strategies_answer_alike_on_the_full_sweep() {
    for seed in [11, 23] {
        let seen = parity(seed, 36);
        println!("seed {seed}: {seen:?}, 0 divergences");
    }
}
