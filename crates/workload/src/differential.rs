//! The differential-testing harness (experiment E6).
//!
//! Correctness goal (paper §3.2 (i)): "the XQuery must do what the SQL
//! query would have done". We check that mechanically: every query runs
//! through the full driver stack (translate → XQuery evaluation → result
//! transport → result set) *and* directly through the relational oracle;
//! the materialized results must agree — as ordered lists when the query
//! has ORDER BY, as multisets otherwise, with numeric values compared by
//! value (the transports serialize decimals canonically).

use crate::querygen::{ConstructClass, QueryGenerator};
use crate::schema::{build_application, populate_database, Scale};
use aldsp_core::{TranslationOptions, Transport};
use aldsp_driver::{Connection, DriverError, DspServer};
use aldsp_relational::{execute_query, Relation, SqlValue};
use aldsp_sql::parse_select;
use std::collections::HashMap;
use std::sync::Arc;

/// One disagreement.
#[derive(Debug, Clone)]
pub struct Mismatch {
    /// The SQL text.
    pub sql: String,
    /// The construct class it came from.
    pub class: ConstructClass,
    /// What went wrong.
    pub reason: String,
}

/// Aggregate report.
#[derive(Debug, Clone, Default)]
pub struct DifferentialReport {
    /// Queries that agreed.
    pub passed: usize,
    /// Queries whose translation was rejected (counted separately —
    /// the generator should not produce these).
    pub rejected: usize,
    /// Disagreements.
    pub mismatches: Vec<Mismatch>,
    /// Per-class pass counts.
    pub per_class: HashMap<&'static str, (usize, usize)>,
}

impl DifferentialReport {
    /// Total queries exercised.
    pub fn total(&self) -> usize {
        self.passed + self.rejected + self.mismatches.len()
    }
}

/// Compares a driver result set against an oracle relation.
///
/// `ordered` compares row-by-row; unordered comparison sorts both sides
/// by a canonical key first (SQL bags).
pub fn compare_results(
    driver_rows: &[Vec<SqlValue>],
    oracle: &Relation,
    ordered: bool,
) -> Result<(), String> {
    if driver_rows.len() != oracle.rows.len() {
        return Err(format!(
            "row count differs: driver {} vs oracle {}",
            driver_rows.len(),
            oracle.rows.len()
        ));
    }
    let canonicalize = |rows: &[Vec<SqlValue>]| -> Vec<Vec<SqlValue>> {
        let mut sorted: Vec<Vec<SqlValue>> = rows.to_vec();
        if !ordered {
            sorted.sort_by_key(|r| Relation::row_key(r));
        }
        sorted
    };
    let left = canonicalize(driver_rows);
    let right = canonicalize(&oracle.rows);
    for (i, (l, r)) in left.iter().zip(&right).enumerate() {
        if l.len() != r.len() {
            return Err(format!("arity differs at row {i}"));
        }
        for (j, (a, b)) in l.iter().zip(r).enumerate() {
            if !a.agrees_with(b) {
                return Err(format!(
                    "row {i} column {j} differs: driver {a:?} vs oracle {b:?}"
                ));
            }
        }
    }
    Ok(())
}

/// Statically analyzes one query through the connection's translator
/// metadata, in both transports (the delimited-text wrapper introduces
/// its own variables, so both final forms are linted). Returns the
/// rendered findings when the analyzer is not clean; translation failures
/// return `None` — they surface through the normal execution path as
/// rejections.
pub fn lint_query(conn: &Connection, sql: &str) -> Option<String> {
    let metadata = conn.translator().metadata();
    for transport in [Transport::DelimitedText, Transport::Xml] {
        if let Ok(analysis) = aldsp_analyzer::analyze_sql(
            sql,
            metadata,
            TranslationOptions::with_transport(transport),
        ) {
            if !analysis.report.is_clean() {
                return Some(format!(
                    "analyzer ({transport:?}): {}",
                    analysis.report.render()
                ));
            }
        }
    }
    None
}

/// Runs `count` random queries per construct class at the given scale and
/// seed, over both transports. Every generated query is linted through
/// the analyzer before execution; findings count as mismatches (the
/// harness doubles as a find-the-generator-bug machine).
pub fn run_differential(seed: u64, count_per_class: usize, scale: Scale) -> DifferentialReport {
    #[cfg(feature = "debug-analyze")]
    aldsp_analyzer::install_debug_validator();
    let app = build_application();
    let db = populate_database(&app, scale, seed);
    let oracle_db = db.clone();
    let server = Arc::new(DspServer::new(app, db));

    let text_conn = Connection::open_with(
        Arc::clone(&server),
        aldsp_core::TranslationOptions::with_transport(aldsp_core::Transport::DelimitedText),
        std::time::Duration::ZERO,
    );
    let xml_conn = Connection::open_with(
        Arc::clone(&server),
        aldsp_core::TranslationOptions::with_transport(aldsp_core::Transport::Xml),
        std::time::Duration::ZERO,
    );

    let mut generator = QueryGenerator::new(seed);
    let mut report = DifferentialReport::default();

    for class in ConstructClass::all() {
        for _ in 0..count_per_class {
            let sql = generator.generate(*class);
            let entry = report.per_class.entry(class.label()).or_insert((0, 0));
            entry.1 += 1;
            if let Some(reason) = lint_query(&text_conn, &sql) {
                report.mismatches.push(Mismatch {
                    sql,
                    class: *class,
                    reason,
                });
                continue;
            }
            match check_one(&text_conn, &xml_conn, &oracle_db, &sql) {
                Ok(()) => {
                    report.passed += 1;
                    entry.0 += 1;
                }
                Err(CheckFailure::Rejected(_)) => report.rejected += 1,
                Err(CheckFailure::Mismatch(reason)) => report.mismatches.push(Mismatch {
                    sql,
                    class: *class,
                    reason,
                }),
            }
        }
    }
    report
}

/// Why one query check failed.
pub enum CheckFailure {
    /// The translator (or SQL parser) rejected the query.
    Rejected(String),
    /// Results disagreed or execution failed.
    Mismatch(String),
}

/// Runs one query through both transports and the oracle.
pub fn check_one(
    text_conn: &Connection,
    xml_conn: &Connection,
    oracle_db: &aldsp_relational::Database,
    sql: &str,
) -> Result<(), CheckFailure> {
    let parsed = parse_select(sql).map_err(|e| CheckFailure::Rejected(format!("parse: {e}")))?;
    let ordered = !parsed.order_by.is_empty();

    let oracle = execute_query(oracle_db, &parsed, &[])
        .map_err(|e| CheckFailure::Mismatch(format!("oracle failed: {e}")))?;

    for (label, conn) in [("text", text_conn), ("xml", xml_conn)] {
        let result = conn.create_statement().execute_query(sql);
        let rs = match result {
            Ok(rs) => rs,
            Err(DriverError::Translation(e)) => {
                return Err(CheckFailure::Rejected(format!("translation: {e}")))
            }
            Err(e) => {
                return Err(CheckFailure::Mismatch(format!(
                    "{label} transport execution failed: {e}"
                )))
            }
        };
        compare_results(rs.rows(), &oracle, ordered)
            .map_err(|reason| CheckFailure::Mismatch(format!("{label} transport: {reason}")))?;
    }
    Ok(())
}

impl std::fmt::Debug for CheckFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckFailure::Rejected(m) => write!(f, "Rejected({m})"),
            CheckFailure::Mismatch(m) => write!(f, "Mismatch({m})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_differential_run_is_clean() {
        let report = run_differential(11, 3, Scale::small());
        assert!(
            report.mismatches.is_empty(),
            "mismatches: {:#?}",
            report.mismatches
        );
        assert_eq!(report.rejected, 0, "generator produced rejected queries");
        assert_eq!(report.passed, report.total());
    }
}
