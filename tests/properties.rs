//! Workspace-level property tests: every SQL statement the workload
//! generator can produce must (a) translate, (b) produce XQuery the
//! XQuery parser accepts, and (c) — via a seeded differential check —
//! compute the oracle's answer. These pin the whole pipeline, not one
//! crate.

use aldsp::catalog::{
    ApplicationBuilder, CachedMetadataApi, InProcessMetadataApi, SqlColumnType, TableLocator,
};
use aldsp::core::{TranslationOptions, Translator, Transport};
use aldsp::driver::{Connection, DspServer};
use aldsp::relational::{Database, SqlValue, Table};
use aldsp::workload::{build_application, ConstructClass, QueryGenerator};
use aldsp::xml::{Atomic, Element, Item, Sequence};
use aldsp::xquery::parse_program;
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn translator() -> Translator<CachedMetadataApi<InProcessMetadataApi>> {
    let app = build_application();
    let locator = TableLocator::for_application(&app);
    Translator::new(CachedMetadataApi::new(InProcessMetadataApi::new(locator)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// "All correct SQL queries must be translated" (paper §3.2 (i)) and
    /// the output must be syntactically valid XQuery — for both
    /// transports, for every construct class, for arbitrary seeds.
    #[test]
    fn generated_sql_translates_to_parseable_xquery(seed in 0u64..10_000) {
        let translator = translator();
        let mut generator = QueryGenerator::new(seed);
        for class in ConstructClass::all() {
            let sql = generator.generate(*class);
            for transport in [Transport::Xml, Transport::DelimitedText] {
                let translation = translator
                    .translate(&sql, TranslationOptions::with_transport(transport))
                    .unwrap_or_else(|e| panic!("translation failed [{}]: {e}\n{sql}", class.label()));
                parse_program(&translation.xquery).unwrap_or_else(|e| {
                    panic!(
                        "generated XQuery does not parse [{}]: {e}\nSQL: {sql}\nXQuery:\n{}",
                        class.label(),
                        translation.xquery
                    )
                });
            }
        }
    }

    /// Translation is deterministic: the same SQL yields byte-identical
    /// XQuery (important for plan caching in real drivers).
    #[test]
    fn translation_is_deterministic(seed in 0u64..10_000) {
        let mut generator = QueryGenerator::new(seed);
        let (_, sql) = generator.generate_any();
        let a = translator()
            .translate(&sql, TranslationOptions::default())
            .unwrap();
        let b = translator()
            .translate(&sql, TranslationOptions::default())
            .unwrap();
        prop_assert_eq!(a.xquery, b.xquery);
        prop_assert_eq!(a.columns.len(), b.columns.len());
    }

    /// Result metadata has one entry per select item with nonempty names.
    #[test]
    fn result_metadata_is_complete(seed in 0u64..10_000) {
        let translator = translator();
        let mut generator = QueryGenerator::new(seed);
        let (_, sql) = generator.generate_any();
        let translation = translator
            .translate(&sql, TranslationOptions::default())
            .unwrap();
        prop_assert!(!translation.columns.is_empty());
        for column in &translation.columns {
            prop_assert!(!column.name.is_empty());
            prop_assert!(!column.label.is_empty());
        }
        // Element names are unique within a row (the transports key on
        // them).
        let mut names: Vec<&str> =
            translation.columns.iter().map(|c| c.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        prop_assert_eq!(names.len(), translation.columns.len());
    }
}

// A slow full differential property, kept to a handful of cases so the
// default test run stays fast (the dedicated sweeps in
// `tests/differential.rs` provide volume).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn differential_agreement_for_arbitrary_seeds(seed in 0u64..1_000) {
        use aldsp::workload::{fuzzed_corpus, run_matrix, Lane, Scale, Universe};
        let report = run_matrix(
            &Universe::generated(Scale::small(), seed),
            &fuzzed_corpus(seed, 2),
            &Lane::both(Lane::plain),
            None,
        );
        prop_assert_eq!(report.rejected, 0);
        prop_assert!(
            report.mismatches.is_empty(),
            "seed {} produced mismatches: {:#?}",
            seed,
            report.mismatches.first()
        );
    }
}

// ---------------------------------------------------------------------------
// Three-valued logic over NULLs (SQL-92 §8.2, paper §4's NULL discussion).
//
// A comparison against NULL is UNKNOWN, not FALSE: `X = v`, `X <> v`, and
// `NOT (X = v)` must all exclude NULL rows, and only IS [NOT] NULL may
// observe them. Aggregates skip NULL inputs, and a HAVING predicate over a
// NULL aggregate (an all-NULL group) is UNKNOWN and drops the group. These
// tests pin that behaviour through the *full* pipeline — SQL → XQuery →
// execution — in both transports, so a translation change that collapses
// UNKNOWN into FALSE (or TRUE) fails here, not just in the analyzer.
// ---------------------------------------------------------------------------

/// ID INTEGER NOT NULL, CATEGORY VARCHAR NOT NULL, AMOUNT INTEGER NULL.
/// Rows 2, 3 and 5 have a NULL AMOUNT; category 'c' is entirely NULL.
fn null_heavy_server() -> Arc<DspServer> {
    let app = ApplicationBuilder::new("TESTAPP")
        .project("TestDataServices")
        .data_service("METRICS")
        .physical_table("METRICS", |t| {
            t.column("ID", SqlColumnType::Integer, false)
                .column("CATEGORY", SqlColumnType::Varchar, false)
                .column("AMOUNT", SqlColumnType::Integer, true)
        })
        .finish_service()
        .finish_project()
        .build();

    let schema = app
        .functions()
        .find(|(_, _, f)| f.name == "METRICS")
        .unwrap()
        .2
        .schema
        .clone();
    let mut metrics = Table::new(schema);
    for (id, cat, amount) in [
        (1, "a", Some(10)),
        (2, "a", None),
        (3, "b", None),
        (4, "b", Some(20)),
        (5, "c", None),
    ] {
        metrics.insert(vec![
            SqlValue::Int(id),
            SqlValue::Str(cat.into()),
            amount.map(SqlValue::Int).unwrap_or(SqlValue::Null),
        ]);
    }
    let mut db = Database::new();
    db.add_table(metrics);
    Arc::new(DspServer::new(app, db))
}

/// Runs `sql` in the given transport and returns the first column as ints.
fn ids_in(transport: Transport, sql: &str) -> Vec<i64> {
    let conn = Connection::open_with(
        null_heavy_server(),
        TranslationOptions::with_transport(transport),
        Duration::ZERO,
    );
    let rs = conn
        .create_statement()
        .execute_query(sql)
        .unwrap_or_else(|e| panic!("query failed [{transport:?}]: {e}\nsql: {sql}"));
    rs.rows()
        .iter()
        .map(|row| match &row[0] {
            SqlValue::Int(i) => *i,
            other => panic!("expected int id, got {other:?} [{transport:?}]\nsql: {sql}"),
        })
        .collect()
}

fn both_transports(check: impl Fn(Transport)) {
    check(Transport::Xml);
    check(Transport::DelimitedText);
}

#[test]
fn null_comparison_is_unknown_in_where() {
    both_transports(|t| {
        // Neither the comparison nor its complement admits a NULL row:
        // rows 2, 3, 5 satisfy neither AMOUNT = 10 nor AMOUNT <> 10.
        assert_eq!(
            ids_in(t, "SELECT ID FROM METRICS WHERE AMOUNT = 10 ORDER BY ID"),
            vec![1]
        );
        assert_eq!(
            ids_in(t, "SELECT ID FROM METRICS WHERE AMOUNT <> 10 ORDER BY ID"),
            vec![4]
        );
    });
}

#[test]
fn negation_of_unknown_stays_unknown() {
    both_transports(|t| {
        // NOT UNKNOWN is UNKNOWN: negating the predicate must not turn the
        // excluded NULL rows into matches.
        assert_eq!(
            ids_in(
                t,
                "SELECT ID FROM METRICS WHERE NOT (AMOUNT = 10) ORDER BY ID"
            ),
            vec![4]
        );
    });
}

#[test]
fn is_null_partitions_the_rows() {
    both_transports(|t| {
        assert_eq!(
            ids_in(t, "SELECT ID FROM METRICS WHERE AMOUNT IS NULL ORDER BY ID"),
            vec![2, 3, 5]
        );
        assert_eq!(
            ids_in(
                t,
                "SELECT ID FROM METRICS WHERE AMOUNT IS NOT NULL ORDER BY ID"
            ),
            vec![1, 4]
        );
    });
}

#[test]
fn kleene_connectives_over_unknown() {
    both_transports(|t| {
        // UNKNOWN OR TRUE = TRUE: row 2's NULL comparison is rescued by the
        // true right disjunct.
        assert_eq!(
            ids_in(
                t,
                "SELECT ID FROM METRICS WHERE AMOUNT = 10 OR ID = 2 ORDER BY ID"
            ),
            vec![1, 2]
        );
        // UNKNOWN AND FALSE = FALSE, so NOT of it is TRUE: rows 3 and 5
        // (NULL AMOUNT, ID <> 2) pass; row 2 (UNKNOWN AND TRUE = UNKNOWN)
        // still does not.
        assert_eq!(
            ids_in(
                t,
                "SELECT ID FROM METRICS WHERE NOT (AMOUNT = 10 AND ID = 2) ORDER BY ID"
            ),
            vec![1, 3, 4, 5]
        );
    });
}

#[test]
fn aggregates_skip_nulls_and_having_drops_unknown_groups() {
    both_transports(|t| {
        // COUNT(column) counts only non-NULL values; COUNT(*) counts rows.
        let conn = Connection::open_with(
            null_heavy_server(),
            TranslationOptions::with_transport(t),
            Duration::ZERO,
        );
        let rs = conn
            .create_statement()
            .execute_query(
                "SELECT CATEGORY, COUNT(*), COUNT(AMOUNT) FROM METRICS \
                 GROUP BY CATEGORY ORDER BY CATEGORY",
            )
            .unwrap();
        assert_eq!(
            rs.rows().to_vec(),
            vec![
                vec![
                    SqlValue::Str("a".into()),
                    SqlValue::Int(2),
                    SqlValue::Int(1)
                ],
                vec![
                    SqlValue::Str("b".into()),
                    SqlValue::Int(2),
                    SqlValue::Int(1)
                ],
                vec![
                    SqlValue::Str("c".into()),
                    SqlValue::Int(1),
                    SqlValue::Int(0)
                ],
            ],
            "[{t:?}]"
        );

        // Category 'c' has only NULL AMOUNTs: SUM(AMOUNT) is NULL, the
        // HAVING comparison is UNKNOWN, and the group is dropped — it is
        // not treated as 0 (which would pass a `> -1` threshold either).
        let conn = Connection::open_with(
            null_heavy_server(),
            TranslationOptions::with_transport(t),
            Duration::ZERO,
        );
        let rs = conn
            .create_statement()
            .execute_query(
                "SELECT CATEGORY FROM METRICS GROUP BY CATEGORY \
                 HAVING SUM(AMOUNT) > 5 ORDER BY CATEGORY",
            )
            .unwrap();
        assert_eq!(
            rs.rows().to_vec(),
            vec![
                vec![SqlValue::Str("a".into())],
                vec![SqlValue::Str("b".into())],
            ],
            "[{t:?}]"
        );
        let conn = Connection::open_with(
            null_heavy_server(),
            TranslationOptions::with_transport(t),
            Duration::ZERO,
        );
        let rs = conn
            .create_statement()
            .execute_query(
                "SELECT CATEGORY FROM METRICS GROUP BY CATEGORY \
                 HAVING SUM(AMOUNT) > -1 ORDER BY CATEGORY",
            )
            .unwrap();
        assert_eq!(
            rs.rows().to_vec(),
            vec![
                vec![SqlValue::Str("a".into())],
                vec![SqlValue::Str("b".into())],
            ],
            "[{t:?}]"
        );
    });
}

/// Items of every kind a sequence holds: atomics, including ones whose
/// effective boolean value is false, and a node.
fn item(at: usize) -> Item {
    match at % 6 {
        0 => Atomic::Integer(at as i64 / 6).into(),
        1 => Atomic::String(String::new()).into(),
        2 => Atomic::Untyped("x".into()).into(),
        3 => Atomic::Boolean(at % 4 == 3).into(),
        4 => Atomic::Double(0.5).into(),
        _ => Item::element(Element::new("ROW").with_text("5")),
    }
}

/// `len` items starting at `from`.
fn items(from: usize, len: usize) -> Vec<Item> {
    (from..from + len).map(item).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `Sequence` holds zero and one item inline and more in a vector;
    /// whatever the route to a value, it reads as the `Vec<Item>` model.
    #[test]
    fn sequence_agrees_with_a_vec_model(
        ops in proptest::collection::vec((0usize..5, 0usize..4, 0usize..12), 1..12),
    ) {
        let (mut seq, mut model) = (Sequence::empty(), Vec::<Item>::new());
        for (op, len, from) in ops {
            match op {
                0 => {
                    seq.push(item(from));
                    model.push(item(from));
                }
                1 => {
                    seq.extend(Sequence::from_items(items(from, len)));
                    model.extend(items(from, len));
                }
                2 => {
                    seq = Sequence::from_items(items(from, len));
                    model = items(from, len);
                }
                3 => {
                    seq = items(from, len).into_iter().collect();
                    model = items(from, len);
                }
                _ => {
                    let drained: Vec<Item> = seq.into_iter().collect();
                    prop_assert_eq!(&drained, &model);
                    seq = drained.into_iter().collect();
                }
            }
            prop_assert_eq!(seq.items(), model.as_slice());
            prop_assert_eq!(seq.len(), model.len());
            prop_assert_eq!(seq.is_empty(), model.is_empty());
            prop_assert_eq!(seq.as_singleton(), (model.len() == 1).then(|| &model[0]));
            let ebv = match model.as_slice() {
                [] => false,
                [Item::Node(_), ..] => true,
                [Item::Atomic(a)] => a.effective_boolean(),
                [Item::Atomic(_), ..] => false,
            };
            prop_assert_eq!(seq.effective_boolean(), ebv);
            let atoms: Vec<Atomic> = model.iter().filter_map(|i| i.atomize(None)).collect();
            prop_assert_eq!(seq.atomize(None), atoms);
            prop_assert_eq!(&seq, &Sequence::from_items(model.clone()));
            if let [only] = model.as_slice() {
                let mut pushed = Sequence::empty();
                pushed.push(only.clone());
                let mut extended = Sequence::empty();
                extended.extend(Sequence::singleton(only.clone()));
                prop_assert_eq!(&seq, &Sequence::singleton(only.clone()));
                prop_assert_eq!(&seq, &pushed);
                prop_assert_eq!(&seq, &extended);
            }
        }
    }
}
