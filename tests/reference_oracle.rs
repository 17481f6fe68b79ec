//! The two SQL-92 interpreters checked against each other directly.
//!
//! The layer-5 reference (`analyzer::validate::execute_reference`, over
//! the stage-2 IR) and the relational oracle (`relational::execute_query`,
//! over the SQL AST) are separate plan walkers over one shared value
//! kernel. Every other differential puts the translator and the XQuery
//! engine between them; here nothing is: the same statement on the same
//! database must give `compare_results`-equal rows from both (ordered when
//! it has ORDER BY), or fail on both. A one-sided error is a failure.

use aldsp::analyzer::execute_reference;
use aldsp::catalog::{CachedMetadataApi, InProcessMetadataApi, TableLocator};
use aldsp::core::{stage1, stage2};
use aldsp::relational::{execute_query, Database, SqlValue};
use aldsp::sql::parse_select;
use aldsp::workload::{
    build_application, compare_results, populate_database, QueryGenerator, Scale,
};

struct Universe {
    metadata: CachedMetadataApi<InProcessMetadataApi>,
    db: Database,
    /// Values for the golden corpus's `?` markers (ignored elsewhere).
    params: Vec<SqlValue>,
}

impl Universe {
    fn new() -> Universe {
        let app = build_application();
        Universe {
            db: populate_database(&app, Scale::small(), 7),
            metadata: CachedMetadataApi::new(InProcessMetadataApi::new(
                TableLocator::for_application(&app),
            )),
            params: vec![SqlValue::Int(3), SqlValue::Str("Sue Jones".into())],
        }
    }

    /// `Ok(true)` both succeeded and agree, `Ok(false)` both failed,
    /// `Err` anything else.
    fn check(&self, sql: &str) -> Result<bool, String> {
        let query = parse_select(sql).map_err(|e| format!("parse: {e}"))?;
        let parsed = stage1::parse(sql).map_err(|e| format!("stage 1: {e}"))?;
        let prepared =
            stage2::prepare(&parsed, &self.metadata).map_err(|e| format!("stage 2: {e}"))?;
        let reference = execute_reference(&prepared, &self.db, &self.params);
        let oracle = execute_query(&self.db, &query, &self.params);
        match (reference, oracle) {
            (Ok(reference), Ok(oracle)) => {
                compare_results(&reference.rows, &oracle, !query.order_by.is_empty())
                    .map_err(|e| format!("reference vs oracle: {e}"))?;
                Ok(true)
            }
            (Err(_), Err(_)) => Ok(false),
            (Ok(_), Err(e)) => Err(format!("only the oracle failed: {e}")),
            (Err(e), Ok(_)) => Err(format!("only the reference failed: {e}")),
        }
    }
}

/// Runs the golden corpus plus `per_seed` generated statements for each
/// seed; returns how many statements both sides answered, alike.
fn sweep(seeds: &[u64], per_seed: usize) -> usize {
    let universe = Universe::new();
    let mut statements = aldsp::workload::golden_statements();
    assert!(statements.len() >= 20, "golden corpus went missing");
    for &seed in seeds {
        let mut generator = QueryGenerator::new(seed);
        statements.extend((0..per_seed).map(|_| generator.generate_any().1));
    }
    let mut agreed = 0;
    let mut failures = Vec::new();
    for sql in &statements {
        match universe.check(sql) {
            Ok(both_answered) => agreed += usize::from(both_answered),
            Err(reason) => failures.push(format!("`{sql}`: {reason}")),
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {} statements disagree, first: {}",
        failures.len(),
        statements.len(),
        failures[0]
    );
    agreed
}

#[test]
fn reference_and_oracle_agree_on_golden_and_fuzzed_statements() {
    // The generator avoids execution errors, so agreement must come from
    // answers, not from both sides failing alike.
    let agreed = sweep(&[1, 2, 3, 4], 300);
    assert!(agreed >= 1_220, "only {agreed} statements compared rows");
}

/// The 1,500-per-seed sweep: `cargo test --release -- --ignored`.
#[test]
#[ignore = "slow in debug builds; CI runs it in release with --ignored"]
fn reference_and_oracle_agree_deep_sweep() {
    let agreed = sweep(&[1, 2, 3, 4], 1_500);
    assert!(agreed >= 6_020, "only {agreed} statements compared rows");
}
