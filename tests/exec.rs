//! Execution-engine integration tests (the `execcheck` CI step): the
//! streaming hash-join engine run end-to-end against the nested-loop
//! interpreter and the relational oracle — the strategy comparisons as
//! lanes of the differential matrix (`text+hash` ≡ `text`, row by row),
//! the budget and telemetry checks through the `QueryService`.
//!
//! The evaluator-level unit tests (`aldsp-xquery`'s `exec` and `eval`
//! modules) pin lowering decisions, NULL-join semantics, emission order,
//! and budget parity on hand-built FLWORs; these tests pin the same
//! properties on *translated SQL* across both transports, plus the
//! governor telemetry that reports hash-path coverage — and that every
//! delimited-text statement of the pipeline strategy ends in the text
//! sink (`strategies_agree` counts them).

mod common;

use aldsp::catalog::{ApplicationBuilder, SqlColumnType};
use aldsp::core::{ExecStrategy, TranslationOptions, Transport};
use aldsp::driver::{Connection, DriverError, DspServer, QueryService};
use aldsp::governor::{Lowering, QueryBudget};
use aldsp::relational::{execute_query, Database, SqlValue, Table};
use aldsp::sql::parse_select;
use aldsp::workload::{
    build_application, compare_results, fuzzed_corpus, golden_corpus, memoized_sources,
    paper_corpus, paper_queries, populate_database, run_matrix, Lane, MatrixReport, Scale,
    Universe,
};
use aldsp::xml::Sequence;
use aldsp::xquery::parse_program;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn server(seed: u64) -> Arc<DspServer> {
    let app = build_application();
    let db = populate_database(&app, Scale::small(), seed);
    Arc::new(DspServer::new(app, db))
}

fn service(server: &Arc<DspServer>, transport: Transport, exec: ExecStrategy) -> QueryService {
    QueryService::new(
        Arc::clone(server),
        TranslationOptions::with_transport(transport).with_exec(exec),
    )
}

fn rows(service: &QueryService, sql: &str) -> Vec<Vec<SqlValue>> {
    let budget = QueryBudget::unlimited();
    service
        .execute_with_budget(sql, &[], Some(&budget))
        .unwrap_or_else(|e| panic!("`{sql}` failed: {e}"))
        .rows()
        .to_vec()
}

/// `corpus` on the interpreter and the hash-join lanes of both transports
/// (and on `more` lanes): clean, or the test fails here.
fn strategies_agree(
    universe: &Universe,
    corpus: &[(String, String)],
    more: Vec<Lane>,
) -> MatrixReport {
    let mut lanes = Lane::both(Lane::plain);
    lanes.extend(Lane::both(Lane::hash));
    lanes.extend(more);
    let report = run_matrix(universe, corpus, &lanes, None);
    assert!(report.is_clean(), "mismatches: {:#?}", report.mismatches);
    assert_eq!(report.passed, report.outcome_log.len());
    // No silent fallback: every delimited-text statement of the pipeline
    // strategy ends in the text sink, every XML one whose body is a
    // `<RECORDSET>` of one FLWOR's `<RECORD>`s in the XML sink, and the
    // interpreter lanes in none.
    let xml_bodies = common::xml_sink_bodies(universe, corpus, &Lane::hash(Transport::Xml));
    for (label, sinks) in [
        ("text+hash", corpus.len() as u64),
        ("xml+hash", xml_bodies),
        ("text", 0),
        ("xml", 0),
    ] {
        let lane = report.lane(label);
        assert_eq!(
            (lane.sinks, lane.sink_fallbacks),
            (sinks, 0),
            "{label}: one sink per statement a sink can write"
        );
        assert_eq!(lane.view_fallbacks, 0, "{label}: a view fell back");
        for (kind, (lowered, declined, abandoned)) in lane.lowerings() {
            assert_eq!(
                (declined, abandoned),
                (0, 0),
                "{label}: a {kind:?} lowering's FLWOR was interpreted"
            );
            if !label.ends_with("+hash") {
                assert_eq!(
                    lowered, 0,
                    "{label}: the interpreter ran a {kind:?} lowering"
                );
            }
        }
        if !label.ends_with("+hash") {
            assert_eq!(lane.views, 0, "{label}: the interpreter planned a view");
            assert_eq!(
                (lane.indexes_built, lane.index_hits),
                (0, 0),
                "{label}: the interpreter asked for a join index"
            );
        }
    }
    // No pipeline ran and raised, and over the one epoch of a run that
    // never writes no build side was keyed twice.
    for lane in &report.lanes {
        assert_eq!(lane.join_abandons, 0, "{}: a pipeline raised", lane.label);
    }
    assert!(
        report.indexes_built() <= universe.index_bound(),
        "{} join indexes built over one epoch",
        report.indexes_built()
    );
    report
}

/// The golden paper corpus comes back row-for-row identical (same rows,
/// same physical order) under both strategies, in both transports.
#[test]
fn golden_corpus_is_strategy_invariant() {
    let universe = Universe::generated(Scale::small(), 41);
    let report = strategies_agree(&universe, &paper_corpus(), Vec::new());
    assert_eq!(report.statements(), (6, 6));
}

/// The full differential (golden + fuzzed, both transports, every lane
/// against the oracle and hash against the interpreter row by row) is
/// clean on the strategy lanes and on the production lane, and the hash
/// path actually fires — a run that silently fell back everywhere would
/// pass the equality checks while testing nothing.
#[test]
fn exec_differential_is_clean_and_covers_the_fast_path() {
    let mut corpus = paper_corpus();
    corpus.extend(fuzzed_corpus(29, 4));
    let report = strategies_agree(
        &Universe::generated(Scale::small(), 29),
        &corpus,
        common::production(Scale::small()),
    );
    for label in ["text+hash", "xml+hash", "text+production"] {
        let lane = report.lane(label);
        assert!(
            lane.hash_operators > lane.join_fallbacks,
            "{label}: most hashable FLWORs should lower: {} hashed / {} fell back",
            lane.hash_operators,
            lane.join_fallbacks
        );
        assert!(lane.index_hits > 0, "{label}: no join index was reused");
        for (kind, (lowered, declined, abandoned)) in lane.lowerings() {
            assert!(lowered > 0, "{label}: no {kind:?} lowering ran");
            assert_eq!((declined, abandoned), (0, 0), "{label}: {kind:?}");
        }
    }
}

/// SQL NULL never joins: rows whose key column is NULL disappear from an
/// inner join under both strategies, even though the column is stored as
/// an absent element (an empty XQuery sequence) on the wire.
#[test]
fn null_keys_never_join_under_either_strategy() {
    // CUSTOMERNAME is nullable; self-join CUSTOMERS on it. The oracle
    // keeps only rows with a name, and the strategies must agree.
    let sql = "SELECT A.CUSTOMERID, B.CUSTOMERID FROM CUSTOMERS A \
               INNER JOIN CUSTOMERS B ON A.CUSTOMERNAME = B.CUSTOMERNAME";
    let report = strategies_agree(
        &Universe::generated(Scale::small(), 17),
        &[("self_join".to_string(), sql.to_string())],
        Vec::new(),
    );
    let lane = report.lane("text+hash");
    assert!(
        lane.hash_operators > 0,
        "self-join should take the hash path"
    );
}

/// The service-level governor counters aggregate the evaluator's
/// telemetry: hash-join executions show up in `GovernorStats`, and a
/// nested-loop service records none.
#[test]
fn governor_stats_expose_hash_join_counts() {
    let server = server(41);
    let (_, join_sql) = paper_queries()
        .into_iter()
        .find(|(label, _)| *label == "inner_join")
        .expect("golden corpus has the inner_join query");

    let hash = service(&server, Transport::DelimitedText, ExecStrategy::HashJoin);
    rows(&hash, join_sql);
    rows(&hash, join_sql);
    let stats = hash.governor_stats();
    assert_eq!(stats.hash_joins, 2, "one hash join per execution");
    assert_eq!(stats.join_fallbacks, 0);

    let naive = service(&server, Transport::DelimitedText, ExecStrategy::NestedLoop);
    rows(&naive, join_sql);
    let stats = naive.governor_stats();
    assert_eq!(stats.hash_joins, 0, "naive service must not hash-join");
    assert_eq!(stats.join_fallbacks, 0);
}

/// Budget semantics survive the strategy switch: a fuel-starved budget
/// still kills a hash-joined query with a typed budget error, and the
/// hash strategy consumes no more fuel than the interpreter.
#[test]
fn budgets_still_bind_under_hash_join() {
    let server = server(41);
    let (_, join_sql) = paper_queries()
        .into_iter()
        .find(|(label, _)| *label == "inner_join")
        .expect("golden corpus has the inner_join query");
    let hash = service(&server, Transport::DelimitedText, ExecStrategy::HashJoin);

    let starved = QueryBudget::unlimited().with_fuel(5);
    match hash.execute_with_budget(join_sql, &[], Some(&starved)) {
        Err(DriverError::BudgetExceeded(_)) => {}
        other => panic!("starved budget must surface as BudgetExceeded, got {other:?}"),
    }

    let naive = service(&server, Transport::DelimitedText, ExecStrategy::NestedLoop);
    let fuel = |svc: &QueryService| {
        let budget = QueryBudget::unlimited();
        svc.execute_with_budget(join_sql, &[], Some(&budget))
            .unwrap();
        budget.fuel_consumed()
    };
    let naive_fuel = fuel(&naive);
    let hash_fuel = fuel(&hash);
    assert!(
        hash_fuel < naive_fuel,
        "hash join should consume less fuel: {hash_fuel} vs {naive_fuel}"
    );
}

/// A universe with what the generated one lacks: NULL join keys on both
/// sides, duplicate keys on the right, an empty table, and a right side
/// larger than any result (so a row cap can trip on the build table
/// alone). `L.K`: 1, 2, NULL, 3, 2. `R.K`: 2, NULL, 2, 4, 1, then 5..=11.
fn keyed_universe() -> Universe {
    let keyed = |t: aldsp::catalog::builder::TableSchemaBuilder, payload: &str| {
        t.column("K", SqlColumnType::Integer, true)
            .column(payload, SqlColumnType::Integer, true)
    };
    let app = ApplicationBuilder::new("KEYED")
        .project("P")
        .data_service("L")
        .physical_table("L", |t| keyed(t, "V"))
        .finish_service()
        .data_service("R")
        .physical_table("R", |t| keyed(t, "W"))
        .finish_service()
        .data_service("E")
        .physical_table("E", |t| keyed(t, "X"))
        .finish_service()
        .finish_project()
        .build();
    let int = |v: Option<i64>| v.map_or(SqlValue::Null, SqlValue::Int);
    let mut db = Database::new();
    let fill = |name: &str, rows: &[(Option<i64>, Option<i64>)]| {
        let (_, _, function) = app.functions().find(|(_, _, f)| f.name == name).unwrap();
        let mut table = Table::new(function.schema.clone());
        for &(k, payload) in rows {
            table.insert(vec![int(k), int(payload)]);
        }
        table
    };
    db.add_table(fill(
        "L",
        &[
            (Some(1), Some(100)),
            (Some(2), Some(200)),
            (None, Some(300)),
            (Some(3), None),
            (Some(2), Some(500)),
        ],
    ));
    let mut right = vec![
        (Some(2), Some(10)),
        (None, Some(20)),
        (Some(2), Some(30)),
        (Some(4), Some(40)),
        (Some(1), Some(5)),
    ];
    right.extend((5..=11).map(|k| (Some(k), Some(k * 10))));
    db.add_table(fill("R", &right));
    db.add_table(fill("E", &[]));
    Universe::new(app, db)
}

/// Runs `sql` under both strategies in both transports: every lane agrees
/// with the oracle, the hash lanes with the interpreter row by row, in
/// order. Returns the rows and the hash lane's `(hash operators,
/// fallbacks)` for one execution (the same in both transports).
fn check_keyed(sql: &str) -> (Vec<Vec<SqlValue>>, (u64, u64)) {
    let universe = keyed_universe();
    let report = strategies_agree(
        &universe,
        &[("keyed".to_string(), sql.to_string())],
        Vec::new(),
    );
    let counts = |label: &str| {
        let lane = report.lane(label);
        (lane.hash_operators, lane.join_fallbacks)
    };
    assert_eq!(counts("text"), (0, 0));
    assert_eq!(
        counts("text+hash"),
        counts("xml+hash"),
        "transports disagree on `{sql}`"
    );
    let hash = service(
        &universe.server,
        Transport::DelimitedText,
        ExecStrategy::HashJoin,
    );
    (rows(&hash, sql), counts("text+hash"))
}

/// The first arm of LEFT, RIGHT and FULL OUTER runs as one probe-let:
/// NULL keys on either side match nothing and are padded, duplicate right
/// rows come back in source order, an empty right table pads every row,
/// and a second ON conjunct filters the hashed matches.
#[test]
fn outer_joins_probe_a_hash_table_and_pad_like_the_interpreter() {
    let int = SqlValue::Int;
    let (rows, counts) = check_keyed("SELECT L.V, R.W FROM L LEFT OUTER JOIN R ON L.K = R.K");
    assert_eq!(counts, (1, 0), "one probe-let, no fallback");
    assert_eq!(
        rows,
        [
            vec![int(100), int(5)],
            vec![int(200), int(10)],
            vec![int(200), int(30)],
            vec![int(300), SqlValue::Null],
            vec![SqlValue::Null, SqlValue::Null],
            vec![int(500), int(10)],
            vec![int(500), int(30)],
        ],
        "left-major, each left row's matches in right-table order"
    );

    let (rows, counts) = check_keyed("SELECT L.V, R.W FROM L RIGHT OUTER JOIN R ON L.K = R.K");
    assert_eq!(counts, (1, 0));
    assert_eq!(
        rows.len(),
        5 + 1 + 1 + 7,
        "matches, NULL key, key 4, keys 5..=11"
    );
    assert_eq!(
        rows[0],
        [int(200), int(10)],
        "right-major after normalization"
    );
    assert_eq!(rows[1], [int(500), int(10)]);

    let (rows, counts) = check_keyed("SELECT L.V, R.W FROM L FULL OUTER JOIN R ON L.K = R.K");
    assert_eq!(counts, (1, 0), "the anti-join arm stays on the interpreter");
    assert_eq!(rows.len(), 7 + 9);

    let (rows, counts) = check_keyed("SELECT L.V, E.X FROM L LEFT OUTER JOIN E ON L.K = E.K");
    assert_eq!(counts, (1, 0));
    assert_eq!(rows.len(), 5);
    assert!(rows.iter().all(|r| r[1] == SqlValue::Null));

    for on in ["L.K = R.K AND R.W > 15", "R.W > 15 AND R.K = L.K"] {
        let (rows, counts) =
            check_keyed(&format!("SELECT L.V, R.W FROM L LEFT OUTER JOIN R ON {on}"));
        assert_eq!(counts, (1, 0), "ON {on}");
        assert_eq!(
            rows,
            [
                vec![int(100), SqlValue::Null],
                vec![int(200), int(30)],
                vec![int(300), SqlValue::Null],
                vec![SqlValue::Null, SqlValue::Null],
                vec![int(500), int(30)],
            ],
            "ON {on}"
        );
    }

    // A derived right side hangs the predicate off a path's last step.
    let (rows, counts) = check_keyed(
        "SELECT L.V, D.W FROM L LEFT OUTER JOIN (SELECT K, W FROM R WHERE W > 5) AS D \
         ON L.K = D.K",
    );
    assert_eq!(counts, (1, 0));
    assert_eq!(rows.len(), 7);
    assert_eq!(rows[0], [int(100), SqlValue::Null]);

    // An inequality ON has nothing to hash: declined, counted, unchanged.
    let (rows, counts) = check_keyed("SELECT L.V, R.W FROM L LEFT OUTER JOIN R ON L.K > R.K");
    assert_eq!(counts, (0, 1));
    assert_eq!(rows.len(), 7);
}

/// Positive `IN (SELECT ..)` runs as one semi-join: a NULL in the
/// subquery matches nobody, a NULL left operand is not IN anything.
/// `NOT IN` and a correlated `IN` keep the interpreter's path.
#[test]
fn in_subqueries_probe_a_hash_set() {
    let int = SqlValue::Int;
    let (rows, counts) = check_keyed("SELECT V FROM L WHERE K IN (SELECT K FROM R)");
    assert_eq!(counts, (1, 0), "one semi-join, no fallback");
    assert_eq!(rows, [[int(100)], [int(200)], [int(500)]]);

    let (rows, counts) = check_keyed("SELECT V FROM L WHERE K IN (SELECT K FROM R) AND V > 100");
    assert_eq!(counts, (1, 0));
    assert_eq!(rows, [[int(200)], [int(500)]]);

    let (rows, counts) =
        check_keyed("SELECT V FROM L WHERE K NOT IN (SELECT K FROM R WHERE K IS NOT NULL)");
    assert_eq!(counts, (0, 0), "NOT IN is no hash operator and no fallback");
    assert_eq!(
        rows,
        [[SqlValue::Null]],
        "only K = 3; a NULL K is not NOT IN"
    );
    let (rows, _) = check_keyed("SELECT V FROM L WHERE K NOT IN (SELECT K FROM R)");
    assert!(rows.is_empty(), "a NULL in the subquery empties NOT IN");

    let (rows, counts) =
        check_keyed("SELECT V FROM L WHERE K IN (SELECT K FROM R WHERE R.W < L.V)");
    assert_eq!(
        counts,
        (0, 1),
        "a correlated view is declined: one fallback"
    );
    assert_eq!(rows, [[int(100)], [int(200)], [int(500)]]);

    // IN-lists and point lookups are not even candidates.
    let (rows, counts) = check_keyed("SELECT V FROM L WHERE K IN (1, 3, 9)");
    assert_eq!(counts, (0, 0));
    assert_eq!(rows.len(), 2);
}

/// The probe-let's table and the semi-join's set are materialized state:
/// the row cap binds on them (R's 12 rows trip a cap that every tuple
/// vector of the query stays under), and fuel still runs out.
#[test]
fn budgets_bind_on_probe_let_and_semi_join_tables() {
    let server = keyed_universe().server;
    for sql in [
        "SELECT L.V, R.W FROM L LEFT OUTER JOIN R ON L.K = R.K",
        "SELECT V FROM L WHERE K IN (SELECT K FROM R)",
    ] {
        let naive = service(&server, Transport::DelimitedText, ExecStrategy::NestedLoop);
        let hash = service(&server, Transport::DelimitedText, ExecStrategy::HashJoin);
        let capped = || QueryBudget::unlimited().with_row_cap(9);
        // The subquery's own 12-row scan trips the cap under either
        // strategy; the outer join's naive run never holds 10 tuples.
        if sql.contains("OUTER") {
            naive
                .execute_with_budget(sql, &[], Some(&capped()))
                .unwrap();
        }
        match hash.execute_with_budget(sql, &[], Some(&capped())) {
            Err(DriverError::BudgetExceeded(_)) => {}
            other => panic!("`{sql}`: the cap must trip on the build table, got {other:?}"),
        }
        let starved = QueryBudget::unlimited().with_fuel(40);
        match hash.execute_with_budget(sql, &[], Some(&starved)) {
            Err(DriverError::BudgetExceeded(_)) => {}
            other => panic!("`{sql}`: starved budget must surface, got {other:?}"),
        }
        let fuel = |svc: &QueryService| {
            let budget = QueryBudget::unlimited();
            svc.execute_with_budget(sql, &[], Some(&budget)).unwrap();
            budget.fuel_consumed()
        };
        assert!(
            fuel(&hash) < fuel(&naive),
            "`{sql}` should cost less fuel hashed"
        );
    }
}

/// A join index is where a build table lives, never what a statement is
/// limited by: R's 12 rows trip a row cap of 9 on the execution that builds
/// the index over `R.K` and on one that finds it, a build that fails leaves
/// nothing behind, and both the inner join's scan and the outer join's
/// probe-let ask for the one index.
#[test]
fn a_row_cap_binds_on_a_join_index_built_or_found() {
    let server = keyed_universe().server;
    let hash = service(&server, Transport::DelimitedText, ExecStrategy::HashJoin);
    let inner = "SELECT L.V, R.W FROM L INNER JOIN R ON L.K = R.K";
    let outer = "SELECT L.V, R.W FROM L LEFT OUTER JOIN R ON L.K = R.K";
    let capped = |sql: &str| {
        let budget = QueryBudget::unlimited().with_row_cap(9);
        match hash.execute_with_budget(sql, &[], Some(&budget)) {
            Err(DriverError::BudgetExceeded(m)) if m.contains("row cap exceeded") => {}
            other => panic!("`{sql}`: the cap must trip on R's table, got {other:?}"),
        }
        budget.index_counts()
    };
    let unlimited = |sql: &str| {
        let budget = QueryBudget::unlimited();
        hash.execute_with_budget(sql, &[], Some(&budget)).unwrap();
        budget.index_counts()
    };
    // Building: the cap trips inside the build, which keeps nothing ...
    assert_eq!(capped(inner), (0, 0));
    // ... so the next statement builds, and this time the server keeps it.
    assert_eq!(unlimited(outer), (1, 0));
    assert_eq!(unlimited(inner), (0, 1));
    // Reusing: the table is found, and is as much over the cap as it was.
    assert_eq!(capped(inner), (0, 1));
    assert_eq!(capped(outer), (0, 1));
}

/// Text and integer keys that equal, or only look like, one another.
const NASTY_TEXT: [Option<&str>; 12] = [
    None,
    Some(""),
    Some("5"),
    Some(" 5"),
    Some("5 "),
    Some("5.0"),
    Some("05"),
    Some("true"),
    Some("1"),
    Some("0"),
    Some("a"),
    Some("A"),
];
const NASTY_INT: [Option<i64>; 6] = [None, Some(0), Some(1), Some(5), Some(-5), Some(50)];

/// Two tables `L` and `R` of `(ID, K integer, T varchar)`, keys drawn from
/// the nasty pools — duplicates and NULLs on both sides.
fn nasty_universe(rng: &mut StdRng) -> Universe {
    let columns = |t: aldsp::catalog::builder::TableSchemaBuilder| {
        t.column("ID", SqlColumnType::Integer, false)
            .column("K", SqlColumnType::Integer, true)
            .column("T", SqlColumnType::Varchar, true)
    };
    let app = ApplicationBuilder::new("NASTY")
        .project("P")
        .data_service("L")
        .physical_table("L", columns)
        .finish_service()
        .data_service("R")
        .physical_table("R", columns)
        .finish_service()
        .finish_project()
        .build();
    let mut db = Database::new();
    for (name, rows) in [("L", rng.gen_range(0..9)), ("R", rng.gen_range(0..14))] {
        let (_, _, function) = app.functions().find(|(_, _, f)| f.name == name).unwrap();
        let mut table = Table::new(function.schema.clone());
        for id in 0..rows {
            let k = NASTY_INT[rng.gen_range(0..NASTY_INT.len())];
            let t = NASTY_TEXT[rng.gen_range(0..NASTY_TEXT.len())];
            table.insert(vec![
                SqlValue::Int(id),
                k.map_or(SqlValue::Null, SqlValue::Int),
                t.map_or(SqlValue::Null, |t| SqlValue::Str(t.into())),
            ]);
        }
        db.add_table(table);
    }
    Universe::new(app, db)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The rows of a join do not depend on where its build table came
    /// from: built by this statement, found on the server, built on a
    /// fresh server, or never built at all (the interpreter) — four equal
    /// row lists in equal order, and (where it answers) the oracle's rows.
    #[test]
    fn a_found_join_index_answers_like_a_built_one(seed in 0u64..100_000) {
        let universe = nasty_universe(&mut StdRng::seed_from_u64(seed));
        let fresh = Universe::new(
            (*universe.server.application()).clone(),
            universe.oracle.clone(),
        );
        let transport = Transport::DelimitedText;
        let hash = service(&universe.server, transport, ExecStrategy::HashJoin);
        let naive = service(&universe.server, transport, ExecStrategy::NestedLoop);
        let elsewhere = service(&fresh.server, transport, ExecStrategy::HashJoin);
        for (join, left, right) in [
            ("INNER", "K", "K"),
            ("INNER", "T", "T"),
            ("INNER", "K", "T"),
            ("LEFT OUTER", "K", "K"),
            ("LEFT OUTER", "T", "T"),
            ("LEFT OUTER", "T", "K"),
            ("RIGHT OUTER", "T", "T"),
        ] {
            let sql = format!("SELECT L.ID, R.ID FROM L {join} JOIN R ON L.{left} = R.{right}");
            let metered = |service: &QueryService| {
                let meter = QueryBudget::unlimited();
                let rs = service
                    .execute_with_budget(&sql, &[], Some(&meter))
                    .unwrap_or_else(|e| panic!("seed {seed}: `{sql}`: {e}"));
                (rs.rows().to_vec(), meter.index_counts(), meter.fuel_consumed())
            };
            let (built, first, fuel) = metered(&hash);
            let (found, second, fuel_found) = metered(&hash);
            // An empty probe side asks for nothing; otherwise one request,
            // built the first time its column is joined on and found since.
            prop_assert_eq!(second, (0, first.0 + first.1), "seed {}: `{}`", seed, sql);
            prop_assert_eq!(fuel, fuel_found, "seed {}: `{}`", seed, sql);
            prop_assert_eq!(&built, &found, "seed {}: `{}`", seed, sql);
            prop_assert_eq!(&built, &metered(&elsewhere).0, "seed {}: `{}`", seed, sql);
            prop_assert_eq!(&built, &rows(&naive, &sql), "seed {}: `{}`", seed, sql);
            // The oracle does not compare an integer with text; the engine
            // does (untyped `"05"` equals `5`), the same four times over.
            if left == right {
                let oracle = execute_query(&universe.oracle, &parse_select(&sql).unwrap(), &[]);
                prop_assert_eq!(
                    compare_results(&built, &oracle.unwrap(), false),
                    Ok(()),
                    "seed {}: `{}`", seed, sql
                );
            }
        }
    }
}

/// Decimals whose sum depends on the order they are added in.
const ORDER_SENSITIVE: [f64; 6] = [1e16, 1.0, -1e16, 0.1, 0.2, 0.3];
/// Integers two of which overflow a SUM.
const HUGE: [i64; 3] = [i64::MAX - 1, i64::MAX / 2 + 1, -7];
/// Text a decimal cast reads, and text it refuses.
const DECIMAL_TEXT: [&str; 4] = ["1.5", " 2 ", "-0", "x1"];

/// Two tables `G` and `H` of `(K, N integer, D decimal, T varchar)`, every
/// column nullable and drawn from the pools above: NULL keys and values,
/// duplicate rows, possibly no row at all.
fn grouping_universe(rng: &mut StdRng) -> Universe {
    let columns = |t: aldsp::catalog::builder::TableSchemaBuilder| {
        t.column("K", SqlColumnType::Integer, true)
            .column("N", SqlColumnType::Integer, true)
            .column("D", SqlColumnType::Decimal, true)
            .column("T", SqlColumnType::Varchar, true)
    };
    let app = ApplicationBuilder::new("GROUPING")
        .project("P")
        .data_service("G")
        .physical_table("G", columns)
        .finish_service()
        .data_service("H")
        .physical_table("H", columns)
        .finish_service()
        .finish_project()
        .build();
    let mut db = Database::new();
    for name in ["G", "H"] {
        let (_, _, function) = app.functions().find(|(_, _, f)| f.name == name).unwrap();
        let mut table = Table::new(function.schema.clone());
        let mut row = Vec::new();
        for _ in 0..rng.gen_range(0..10) {
            // One row in three repeats the one before it.
            if row.is_empty() || rng.gen_range(0..3) > 0 {
                let pick = |present: bool, value: SqlValue| match present {
                    true => value,
                    false => SqlValue::Null,
                };
                row = vec![
                    pick(rng.gen_bool(0.8), SqlValue::Int(rng.gen_range(1..4))),
                    pick(rng.gen_bool(0.7), SqlValue::Int(HUGE[rng.gen_range(0..3)])),
                    pick(
                        rng.gen_bool(0.8),
                        SqlValue::Decimal(ORDER_SENSITIVE[rng.gen_range(0..6)]),
                    ),
                    pick(
                        rng.gen_bool(0.8),
                        SqlValue::Str(DECIMAL_TEXT[rng.gen_range(0..4)].into()),
                    ),
                ];
            }
            table.insert(row.clone());
        }
        db.add_table(table);
    }
    Universe::new(app, db)
}

/// Grouped statements over the universe above, each with the statement
/// that counts its `$inter` rows.
const GROUPED_OVER_G: [(&str, &str); 6] = [
    (
        "SELECT K, COUNT(*), COUNT(D), SUM(D), AVG(D), MIN(T), MAX(D) FROM G GROUP BY K",
        "SELECT COUNT(*) FROM G",
    ),
    (
        "SELECT K, T, COUNT(*), SUM(DISTINCT D), COUNT(DISTINCT N) FROM G GROUP BY K, T \
         HAVING COUNT(*) >= 2",
        "SELECT COUNT(*) FROM G",
    ),
    (
        "SELECT COUNT(*), SUM(N), AVG(N), MIN(N) FROM G",
        "SELECT COUNT(*) FROM G",
    ),
    (
        "SELECT T, SUM(CAST(T AS DECIMAL)) FROM G GROUP BY T",
        "SELECT COUNT(*) FROM G",
    ),
    (
        "SELECT G.K, COUNT(*), SUM(H.D), MAX(H.N) FROM G INNER JOIN H ON G.K = H.K GROUP BY G.K",
        "SELECT COUNT(*) FROM G INNER JOIN H ON G.K = H.K",
    ),
    (
        "SELECT COUNT(*), SUM(D) FROM H WHERE K > 2",
        "SELECT COUNT(*) FROM H WHERE K > 2",
    ),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A grouped statement answers the same under the aggregate and the
    /// interpreter: equal rows in equal order, or the interpreter's error
    /// (a SUM past `i64::MAX`, text a decimal cast refuses) on both. The
    /// aggregate never costs more fuel than the interpreter; a row cap one
    /// below `$inter`'s rows fails both; and the aggregate's own fuel is
    /// exactly what it needs — one unit less fails it.
    #[test]
    fn the_aggregate_answers_like_the_interpreter_on_random_universes(seed in 0u64..100_000) {
        let universe = grouping_universe(&mut StdRng::seed_from_u64(seed));
        for transport in [Transport::DelimitedText, Transport::Xml] {
            let hash = service(&universe.server, transport, ExecStrategy::HashJoin);
            let naive = service(&universe.server, transport, ExecStrategy::NestedLoop);
            for (sql, inter) in GROUPED_OVER_G {
                let at = format!("seed {seed}, {transport:?}: `{sql}`");
                let run = |service: &QueryService, budget: QueryBudget| {
                    let outcome = service.execute_with_budget(sql, &[], Some(&budget));
                    (outcome.map(|rs| rs.rows().to_vec()), budget)
                };
                let (hashed, hash_meter) = run(&hash, QueryBudget::unlimited());
                let (interpreted, naive_meter) = run(&naive, QueryBudget::unlimited());
                prop_assert_eq!(naive_meter.lowering_counts(Lowering::Aggregate), (0, 0, 0), "{}", at);
                match (&hashed, &interpreted) {
                    (Ok(hashed), Ok(interpreted)) => {
                        prop_assert_eq!(hashed, interpreted, "{}", at);
                        prop_assert_eq!(hash_meter.lowering_counts(Lowering::Aggregate), (1, 0, 0), "{}", at);
                        let fuel = hash_meter.fuel_consumed();
                        prop_assert!(fuel <= naive_meter.fuel_consumed(), "{}", at);
                        prop_assert!(run(&hash, QueryBudget::unlimited().with_fuel(fuel)).0.is_ok());
                        match run(&hash, QueryBudget::unlimited().with_fuel(fuel - 1)).0 {
                            Err(DriverError::BudgetExceeded(m)) if m.contains("fuel exhausted") => {}
                            other => prop_assert!(false, "{}: one unit short: {:?}", at, other),
                        }
                    }
                    (Err(hashed), Err(interpreted)) => {
                        prop_assert!(matches!(interpreted, DriverError::Evaluation(_)), "{}", at);
                        prop_assert_eq!(hashed.to_string(), interpreted.to_string(), "{}", at);
                        // Every attempt of the fallback chain ran the
                        // operator and handed the FLWOR back.
                        let (lowered, declined, abandoned) = hash_meter.lowering_counts(Lowering::Aggregate);
                        prop_assert!(abandoned > 0 && declined == 0, "{}", at);
                        prop_assert_eq!(lowered, 0, "{}", at);
                    }
                    _ => prop_assert!(false, "{}: {:?} vs {:?}", at, hashed, interpreted),
                }
                let rows = match rows(&naive, inter)[0][0] {
                    SqlValue::Int(rows) => rows as u64,
                    ref other => panic!("{at}: {other:?} rows"),
                };
                if rows == 0 {
                    continue;
                }
                for service in [&hash, &naive] {
                    match run(service, QueryBudget::unlimited().with_row_cap(rows - 1)).0 {
                        Err(DriverError::BudgetExceeded(m)) if m.contains("row cap exceeded") => {}
                        other => prop_assert!(false, "{}: capped at {}: {:?}", at, rows - 1, other),
                    }
                }
            }
        }
    }
}

/// `wrap_delimited` and the sink's shape test are two halves of one
/// format: every delimited-text program the translator emits must lower
/// to a sink that then writes the payload. A change to the wrapper text
/// fails here instead of silently switching the operator off.
#[test]
fn every_delimited_program_the_translator_emits_lowers_to_a_sink() {
    let scale = Scale::small();
    let server = Universe::generated(scale, 53).server;
    let programs = emitted_programs(&server, &all_corpora(53, 10), Transport::DelimitedText);
    for (origin, sql, xquery) in &programs {
        let meter = QueryBudget::unlimited();
        server
            .execute_governed_with(xquery, &[], Some(&meter), ExecStrategy::HashJoin)
            .unwrap_or_else(|e| panic!("{origin}: `{sql}`: {e}"));
        assert_eq!(
            meter.sink_counts(),
            (1, 0),
            "{origin}: `{sql}` did not end in a text sink:\n{xquery}"
        );
    }
    assert!(programs.len() >= 100, "only {} programs", programs.len());
}

/// Whatever the statement proper evaluates to, the sink writes it: a
/// `fn-bea:distinct-records` value, the set operations, a derived table,
/// an empty result, and NULLs beside values — byte for byte what the
/// interpreter joins (`strategies_agree` compares the decoded rows in
/// order and counts one sink, no fallback, per statement).
#[test]
fn sink_writes_distinct_set_operation_and_derived_table_values() {
    for sql in [
        "SELECT DISTINCT K FROM R",
        "SELECT K FROM L UNION SELECT K FROM R",
        "SELECT K, V FROM L UNION ALL SELECT K, W FROM R",
        "SELECT K FROM R EXCEPT ALL SELECT K FROM L",
        "SELECT K FROM R INTERSECT SELECT K FROM L",
        "SELECT D.W FROM (SELECT K, W FROM R WHERE W > 5) AS D",
        "SELECT K, X FROM E",
        "SELECT V, K FROM L WHERE K IS NULL OR V IS NULL",
    ] {
        check_keyed(sql);
    }
}

/// Every program of `corpus` as the translator emits it on `transport`:
/// `(origin, sql, xquery)`.
fn emitted_programs(
    server: &Arc<DspServer>,
    corpus: &[(String, String)],
    transport: Transport,
) -> Vec<(String, String, String)> {
    let conn = Connection::open(Arc::clone(server));
    let options = TranslationOptions::with_transport(transport).with_exec(ExecStrategy::HashJoin);
    let emitted = corpus.iter().map(|(origin, sql)| {
        let translation = conn
            .translator()
            .translate(sql, options)
            .unwrap_or_else(|e| panic!("{origin}: `{sql}`: {e}"));
        (origin.clone(), sql.clone(), translation.xquery)
    });
    emitted.collect()
}

fn all_corpora(seed: u64, per_class: usize) -> Vec<(String, String)> {
    let mut corpus = paper_corpus();
    corpus.extend(golden_corpus());
    corpus.extend(fuzzed_corpus(seed, per_class));
    corpus
}

/// `stage3::gen_record` and the projection's shape test are two halves of
/// one format, like the wrapper and the sink above: over the paper, golden
/// and fuzzed corpora, every `<RECORD>` constructor that is a FLWOR's
/// `return` lowers to the projection
/// operator; every delimited program whose view is a `<RECORDSET>` of one
/// FLWOR's `<RECORD>`s, or of a sort or set wrapper the rows operator runs,
/// fuses; every XML program of those shapes runs the XML sink. Only
/// INTERSECT and EXCEPT without ALL are left to build their rows. A stage-3
/// change that reshapes a cell fails here instead of switching the
/// operator off.
#[test]
fn every_record_the_translator_emits_lowers_to_the_projection() {
    use aldsp::xquery::ast::{Clause, Expr};
    use aldsp::xquery::exec::{Lowered, PhysicalPlan};
    use aldsp::xquery::visit::each_expr;

    let scale = Scale::small();
    let server = Universe::generated(scale, 59).server;
    let corpus = all_corpora(59, 10);
    let (mut records, mut fused, mut over_view, mut xml_sunk, mut xml_built) = (0, 0, 0, 0, 0);
    for transport in [Transport::DelimitedText, Transport::Xml] {
        for (origin, sql, xquery) in emitted_programs(&server, &corpus, transport) {
            let at = format!("{origin}: `{sql}`:\n{xquery}");
            let program = aldsp::xquery::parse_program(&xquery).expect("programs parse");
            let kind = {
                let plan = PhysicalPlan::new(&program, ExecStrategy::HashJoin, true);
                each_expr(&program.body, &mut |expr| {
                    let Expr::Flwor(flwor) = expr else { return };
                    if let Expr::Element(ctor) = &*flwor.ret {
                        if ctor.name == "RECORD" {
                            let lowered = plan.lowered(expr);
                            let projected = matches!(
                                lowered,
                                Lowered::Flwor {
                                    projection: true,
                                    ..
                                }
                            );
                            assert!(projected, "a RECORD is interpreted: {at}");
                            records += 1;
                        }
                    }
                });
                plan.lowered(&program.body)
            };
            let (shaped, expected) = match transport {
                Transport::Xml => {
                    let shaped = common::is_sunk_body(&program.body);
                    let sink = if shaped {
                        Lowered::XmlSink
                    } else {
                        Lowered::Interpreted
                    };
                    (shaped, sink)
                }
                Transport::DelimitedText => {
                    // `fn:string-join((let $actualQuery := V for …), "")`.
                    let view = match &program.body {
                        Expr::FunctionCall { args, .. } => match args.first() {
                            Some(Expr::Flwor(wrapper)) => match wrapper.clauses.first() {
                                Some(Clause::Let { value, .. }) => value,
                                other => panic!("no view: {other:?}"),
                            },
                            other => panic!("no wrapper FLWOR: {other:?}"),
                        },
                        other => panic!("no wrapper: {other:?}"),
                    };
                    let shaped = common::is_sunk_body(view);
                    (shaped, Lowered::TextSink { fused: shaped })
                }
            };
            assert_eq!(kind, expected, "{at}");
            // What the plan says is what runs: one sink, no fallback.
            let meter = QueryBudget::unlimited();
            server
                .execute_to_payload_governed_with(
                    &xquery,
                    &[],
                    None,
                    Some(&meter),
                    ExecStrategy::HashJoin,
                )
                .unwrap_or_else(|e| panic!("{e}: {at}"));
            let sunk = kind != Lowered::Interpreted;
            assert_eq!(meter.sink_counts(), (u64::from(sunk), 0), "{at}");
            match (transport, shaped) {
                (Transport::DelimitedText, true) => fused += 1,
                (Transport::DelimitedText, false) => over_view += 1,
                (Transport::Xml, true) => xml_sunk += 1,
                (Transport::Xml, false) => xml_built += 1,
            }
        }
    }
    // Both sides of every choice were exercised, and the sunk side is the
    // larger: only INTERSECT and EXCEPT without ALL build their rows.
    assert!(records >= 4 * 100, "only {records} RECORD returns seen");
    assert!(fused > over_view && over_view > 0, "{fused} / {over_view}");
    assert!(
        xml_sunk > xml_built && xml_built > 0,
        "{xml_sunk} / {xml_built}"
    );
    assert_eq!(fused, xml_sunk, "one statement shape, two transports");
}

/// Stage 3's views and the view planner are two halves of one format as
/// well: over the same corpora and transports, every `let`-bound
/// `<RECORDSET>` — the wrapper's own `$actualQuery` apart, which a sink
/// runs, and a body that only passes another view's rows on — lowers to a
/// tail plan; and a view that a `group` clause or an
/// outer join's `if (fn:empty(..))` arms stand on loses at least one cell
/// whenever one of its cells' names appears nowhere after the `let` (the
/// test's own reading of "unreferenced", off the AST's name tests). What
/// the plans say is what runs: views built, cells pruned, no view handed
/// back.
#[test]
fn every_view_the_translator_emits_lowers_to_a_tail_plan() {
    use aldsp::xquery::ast::{Clause, Content, Expr, NodeTest};
    use aldsp::xquery::exec::{Lowered, PhysicalPlan};
    use aldsp::xquery::visit::{each_clause_expr, each_expr};
    use std::collections::BTreeSet;

    /// The cell names of every row constructor below `body`.
    fn cell_names(body: &Expr, names: &mut BTreeSet<String>) {
        each_expr(body, &mut |expr| {
            let Expr::Element(row) = expr else { return };
            if row.name != "RECORD" {
                return;
            }
            for content in &row.content {
                match content {
                    Content::Element(cell) => names.insert(cell.name.clone()),
                    Content::Enclosed(Expr::Flwor(column)) => match &*column.ret {
                        Expr::Element(cell) => names.insert(cell.name.clone()),
                        _ => false,
                    },
                    _ => false,
                };
            }
        });
    }

    let scale = Scale::small();
    let server = Universe::generated(scale, 71).server;
    let corpus = all_corpora(71, 10);
    let (mut views, mut passed_on, mut grouped, mut outer, mut pruning) = (0, 0, 0, 0, 0);
    for transport in [Transport::DelimitedText, Transport::Xml] {
        for (origin, sql, xquery) in emitted_programs(&server, &corpus, transport) {
            let at = format!("{origin}: `{sql}`:\n{xquery}");
            let program = aldsp::xquery::parse_program(&xquery).expect("programs parse");
            let wrapper = match &program.body {
                Expr::FunctionCall { args, .. } => args.first(),
                _ => None,
            };
            let mut expected = 0;
            {
                let plan = PhysicalPlan::new(&program, ExecStrategy::HashJoin, true);
                each_expr(&program.body, &mut |expr| {
                    let Expr::Flwor(flwor) = expr else { return };
                    if wrapper == Some(expr) {
                        return;
                    }
                    let planned = match plan.lowered(expr) {
                        Lowered::Flwor { views, .. } => views,
                        _ => Vec::new(),
                    };
                    for (clause_at, clause) in flwor.clauses.iter().enumerate() {
                        let Clause::Let {
                            value: Expr::Element(view),
                            ..
                        } = clause
                        else {
                            continue;
                        };
                        assert_eq!(view.name, "RECORDSET", "{at}");
                        let [Content::Enclosed(body)] = view.content.as_slice() else {
                            panic!("{at}");
                        };
                        let pruned = planned.iter().find(|(at, _)| *at == clause_at);
                        let Some(&(_, pruned)) = pruned else {
                            // DISTINCT under ORDER BY: the body passes another
                            // view's rows on (`return $var`) and builds none.
                            let passes_on = matches!(
                                body,
                                Expr::Flwor(body) if matches!(&*body.ret, Expr::VarRef(_))
                            );
                            assert!(passes_on, "a view is interpreted: {at}");
                            passed_on += 1;
                            continue;
                        };
                        views += 1;
                        expected += pruned;
                        let is_grouped = flwor.clauses[clause_at..]
                            .iter()
                            .any(|c| matches!(c, Clause::GroupBy(_)));
                        let is_outer = matches!(
                            body,
                            Expr::Flwor(body) if matches!(&*body.ret, Expr::If { .. })
                        );
                        grouped += usize::from(is_grouped);
                        outer += usize::from(is_outer);
                        if !(is_grouped || is_outer) {
                            continue;
                        }
                        let mut cells = BTreeSet::new();
                        cell_names(body, &mut cells);
                        let mut named = BTreeSet::new();
                        let mut note = |expr: &Expr| {
                            if let Expr::Path { steps, .. } = expr {
                                for step in steps {
                                    if let NodeTest::Name(name) = &step.test {
                                        named.insert(name.clone());
                                    }
                                }
                            }
                        };
                        for clause in &flwor.clauses[clause_at + 1..] {
                            each_clause_expr(clause, &mut note);
                        }
                        each_expr(&flwor.ret, &mut note);
                        if cells.difference(&named).next().is_some() {
                            assert!(pruned > 0, "an unreferenced cell is built: {at}");
                            pruning += 1;
                        }
                    }
                })
            };
            let meter = QueryBudget::unlimited();
            server
                .execute_to_payload_governed_with(
                    &xquery,
                    &[],
                    None,
                    Some(&meter),
                    ExecStrategy::HashJoin,
                )
                .unwrap_or_else(|e| panic!("{e}: {at}"));
            let (built, cells_pruned, fallbacks) = meter.view_counts();
            assert_eq!(fallbacks, 0, "{at}");
            assert_eq!(
                (built > 0, cells_pruned > 0),
                (expected > 0 || built > 0, expected > 0),
                "{at}"
            );
        }
    }
    assert!(
        views >= 4 * 60 && passed_on < views / 10,
        "{views} views planned, {passed_on} passed on"
    );
    assert!(
        grouped >= 40 && outer >= 20 && pruning >= 60,
        "{grouped} grouped, {outer} outer-joined, {pruning} pruning"
    );
}

/// Every aggregate stage 3 writes — COUNT(*), COUNT(x), COUNT(DISTINCT x),
/// SUM, SUM(DISTINCT x), AVG, MIN, MAX — over one key and two, a nullable
/// key (its NULL group), HAVING, no GROUP BY (over rows and over none), a
/// join, an outer join, a derived table and a scalar subquery.
const GROUPED: [&str; 12] = [
    "SELECT COUNT(*) FROM ORDERS",
    "SELECT COUNT(AMOUNT), COUNT(DISTINCT CUSTID), SUM(AMOUNT), SUM(DISTINCT AMOUNT), \
     AVG(AMOUNT), MIN(STATUS), MAX(ORDERID) FROM ORDERS",
    "SELECT COUNT(*), SUM(AMOUNT), AVG(AMOUNT) FROM ORDERS WHERE ORDERID < 0",
    "SELECT STATUS, COUNT(*), SUM(DISTINCT AMOUNT), MIN(AMOUNT) FROM ORDERS GROUP BY STATUS",
    "SELECT CUSTID, STATUS, COUNT(*), MAX(AMOUNT) FROM ORDERS GROUP BY CUSTID, STATUS",
    "SELECT CUSTOMERNAME, COUNT(*), AVG(CREDIT), COUNT(DISTINCT REGION) FROM CUSTOMERS \
     GROUP BY CUSTOMERNAME",
    "SELECT REGION, COUNT(CUSTOMERNAME) FROM CUSTOMERS GROUP BY REGION HAVING SUM(CREDIT) > 100",
    "SELECT COUNT(*), MAX(PAYMENT) FROM PAYMENTS HAVING COUNT(*) > 1",
    "SELECT CUSTOMERS.REGION, COUNT(*), SUM(ORDERS.AMOUNT) FROM CUSTOMERS INNER JOIN ORDERS \
     ON CUSTOMERS.CUSTOMERID = ORDERS.CUSTID GROUP BY CUSTOMERS.REGION ORDER BY CUSTOMERS.REGION",
    "SELECT CUSTOMERS.CUSTOMERID, COUNT(PAYMENTS.PAYMENTID) FROM CUSTOMERS LEFT OUTER JOIN \
     PAYMENTS ON CUSTOMERS.CUSTOMERID = PAYMENTS.CUSTID GROUP BY CUSTOMERS.CUSTOMERID",
    "SELECT V.N FROM (SELECT STATUS, COUNT(*) AS N FROM ORDERS GROUP BY STATUS) AS V",
    "SELECT PAYMENTID FROM PAYMENTS WHERE PAYMENT > (SELECT AVG(PAYMENT) FROM PAYMENTS)",
];

fn grouped_corpus() -> Vec<(String, String)> {
    let statements = GROUPED.iter().enumerate();
    let corpus = statements.map(|(i, sql)| (format!("grouped:{i}"), sql.to_string()));
    corpus.collect()
}

/// `stage3::gen_select_grouped` / `gen_aggregate` and the aggregate's
/// recognizer are two halves of one format as well: over the statements
/// above and the paper, golden and fuzzed corpora, in both transports,
/// every FLWOR with a `group` clause or the
/// implicit group's `let $p := $inter/RECORD` (the test's own reading, off
/// the AST) lowers to the aggregate, and no other FLWOR is taken for one.
/// What the plans say is what runs: groups aggregated, none declined or
/// abandoned, and none by the interpreter. The statements above also go
/// through the matrix: the oracle's rows, the interpreter's in its order.
#[test]
fn every_grouped_flwor_the_translator_emits_lowers_to_the_aggregate() {
    use aldsp::xquery::ast::{Clause, Expr, PathStart};
    use aldsp::xquery::exec::{Lowered, PhysicalPlan};
    use aldsp::xquery::visit::each_expr;

    let scale = Scale::small();
    let universe = Universe::generated(scale, 73);
    strategies_agree(&universe, &grouped_corpus(), common::production(scale));
    let mut corpus = grouped_corpus();
    corpus.extend(all_corpora(73, 10));
    let (mut by, mut implicit) = (0, 0);
    for transport in [Transport::DelimitedText, Transport::Xml] {
        let programs = emitted_programs(&universe.server, &corpus, transport);
        for (origin, sql, xquery) in programs {
            let at = format!("{origin}: `{sql}`:\n{xquery}");
            let program = aldsp::xquery::parse_program(&xquery).expect("programs parse");
            let mut grouped = 0;
            {
                let plan = PhysicalPlan::new(&program, ExecStrategy::HashJoin, true);
                each_expr(&program.body, &mut |expr| {
                    let Expr::Flwor(flwor) = expr else { return };
                    let has_group = flwor
                        .clauses
                        .iter()
                        .any(|c| matches!(c, Clause::GroupBy(_)));
                    let one_group = match flwor.clauses.as_slice() {
                        [Clause::Let {
                            var: view,
                            value: Expr::Element(_),
                        }, Clause::Let {
                            value: Expr::Path { start, .. },
                            ..
                        }, ..] => matches!(&**start, PathStart::Var(v) if v == view),
                        _ => false,
                    };
                    let expected = (has_group || one_group).then_some(true);
                    let aggregate = match plan.lowered(expr) {
                        Lowered::Flwor { aggregate, .. } => aggregate,
                        _ => None,
                    };
                    assert_eq!(aggregate, expected, "{at}");
                    grouped += usize::from(has_group || one_group);
                    by += usize::from(has_group);
                    implicit += usize::from(one_group);
                })
            };
            for exec in [ExecStrategy::HashJoin, ExecStrategy::NestedLoop] {
                let meter = QueryBudget::unlimited();
                universe
                    .server
                    .execute_to_payload_governed_with(&xquery, &[], None, Some(&meter), exec)
                    .unwrap_or_else(|e| panic!("{e}: {at}"));
                let (lowered, declined, abandoned) = meter.lowering_counts(Lowering::Aggregate);
                let ran = exec == ExecStrategy::HashJoin && grouped > 0;
                assert_eq!(
                    (lowered > 0, declined, abandoned),
                    (ran, 0, 0),
                    "{exec:?}: {at}"
                );
            }
        }
    }
    assert!(
        by >= 2 * 30 && implicit >= 2 * 8,
        "{by} grouped, {implicit} implicit"
    );
}

/// Every sort and set wrapper stage 3 writes — ORDER BY over one key and
/// two, NULL keys and DESC, over a grouped select; DISTINCT alone, under
/// ORDER BY and under a derived table; UNION with its renamed right side,
/// over grouped sides, under ORDER BY; UNION ALL, INTERSECT ALL, EXCEPT
/// ALL — and INTERSECT and EXCEPT without ALL, which stay interpreted.
const SORTED_AND_SET: [&str; 14] = [
    "SELECT CUSTOMERID, CUSTOMERNAME FROM CUSTOMERS ORDER BY CUSTOMERID DESC",
    "SELECT CUSTOMERNAME, CREDIT FROM CUSTOMERS ORDER BY CUSTOMERNAME, CREDIT DESC",
    "SELECT REGION, COUNT(*) AS N FROM CUSTOMERS GROUP BY REGION ORDER BY REGION",
    "SELECT DISTINCT CUSTID FROM PAYMENTS",
    "SELECT DISTINCT REGION FROM CUSTOMERS ORDER BY REGION DESC",
    "SELECT V.CUSTID FROM (SELECT DISTINCT CUSTID FROM ORDERS) AS V",
    "SELECT CUSTID FROM PAYMENTS UNION SELECT CUSTID FROM ORDERS",
    "SELECT CUSTID FROM PAYMENTS UNION SELECT CUSTID FROM ORDERS ORDER BY 1 DESC",
    "SELECT CUSTID, COUNT(*) FROM ORDERS GROUP BY CUSTID \
     UNION SELECT CUSTID, COUNT(*) FROM PAYMENTS GROUP BY CUSTID",
    "SELECT AMOUNT FROM ORDERS UNION ALL SELECT PAYMENT FROM PAYMENTS",
    "SELECT CUSTID FROM ORDERS INTERSECT ALL SELECT CUSTID FROM PAYMENTS",
    "SELECT CUSTID FROM ORDERS EXCEPT ALL SELECT CUSTID FROM PAYMENTS",
    "SELECT CUSTID FROM ORDERS INTERSECT SELECT CUSTID FROM PAYMENTS",
    "SELECT CUSTID FROM ORDERS EXCEPT SELECT CUSTID FROM PAYMENTS",
];

fn sorted_and_set_corpus() -> Vec<(String, String)> {
    let statements = SORTED_AND_SET.iter().enumerate();
    let corpus = statements.map(|(i, sql)| (format!("sorted_and_set:{i}"), sql.to_string()));
    corpus.collect()
}

/// `gen_query`'s, `gen_select`'s and `gen_setop`'s wrappers and the rows
/// operator's recognizer are two halves of one format: over the statements
/// above and the paper, golden and fuzzed corpora, in both transports,
/// every FLWOR that opens with a `let` and
/// returns a bare variable (the test's own reading, off the AST) lowers to
/// the rows operator — but one with a `where`, INTERSECT or EXCEPT without
/// ALL, which is not asked — and no other FLWOR is taken for one. What the
/// plans say is what runs: sorts and set operations lowered, none declined
/// or abandoned, and none by the interpreter. The statements above also go
/// through the matrix: the oracle's rows, the interpreter's in its order.
#[test]
fn every_sort_and_set_wrapper_the_translator_emits_lowers() {
    use aldsp::xquery::ast::{Clause, Expr};
    use aldsp::xquery::exec::{Lowered, PhysicalPlan};
    use aldsp::xquery::visit::each_expr;

    let scale = Scale::small();
    let universe = Universe::generated(scale, 79);
    strategies_agree(
        &universe,
        &sorted_and_set_corpus(),
        common::production(scale),
    );
    let mut corpus = sorted_and_set_corpus();
    corpus.extend(all_corpora(79, 10));
    let (mut sorts, mut sets, mut filtered) = (0, 0, 0);
    for transport in [Transport::DelimitedText, Transport::Xml] {
        let programs = emitted_programs(&universe.server, &corpus, transport);
        for (origin, sql, xquery) in programs {
            let at = format!("{origin}: `{sql}`:\n{xquery}");
            let program = aldsp::xquery::parse_program(&xquery).expect("programs parse");
            let (mut sorted, mut set) = (0, 0);
            {
                let plan = PhysicalPlan::new(&program, ExecStrategy::HashJoin, true);
                each_expr(&program.body, &mut |expr| {
                    let Expr::Flwor(flwor) = expr else { return };
                    let has = |clause: fn(&Clause) -> bool| flwor.clauses.iter().any(clause);
                    let wrapper = matches!(flwor.clauses.first(), Some(Clause::Let { .. }))
                        && matches!(&*flwor.ret, Expr::VarRef(_));
                    let filters = has(|c| matches!(c, Clause::Where(_)));
                    let expected = (wrapper && !filters).then_some(true);
                    let rows = match plan.lowered(expr) {
                        Lowered::Flwor { rows, .. } => rows,
                        _ => None,
                    };
                    assert_eq!(rows, expected, "{at}");
                    let ordered = has(|c| matches!(c, Clause::OrderBy(_)));
                    sorted += usize::from(expected.is_some() && ordered);
                    set += usize::from(expected.is_some() && !ordered);
                    filtered += usize::from(wrapper && filters);
                })
            };
            sorts += sorted;
            sets += set;
            for exec in [ExecStrategy::HashJoin, ExecStrategy::NestedLoop] {
                let meter = QueryBudget::unlimited();
                universe
                    .server
                    .execute_to_payload_governed_with(&xquery, &[], None, Some(&meter), exec)
                    .unwrap_or_else(|e| panic!("{e}: {at}"));
                let ran = exec == ExecStrategy::HashJoin;
                for (kind, seen) in [(Lowering::Sort, sorted), (Lowering::Set, set)] {
                    let (lowered, declined, abandoned) = meter.lowering_counts(kind);
                    assert_eq!(
                        (lowered > 0, declined, abandoned),
                        (ran && seen > 0, 0, 0),
                        "{kind:?} under {exec:?}: {at}"
                    );
                }
            }
        }
    }
    assert!(
        sorts >= 2 * 30 && sets >= 2 * 20 && filtered >= 2 * 2,
        "{sorts} sorts, {sets} set operations, {filtered} left to the interpreter"
    );
}

/// Two tables `A` and `B` of `(K integer, D decimal, V varchar)`, every
/// column nullable: NULL keys, ties, duplicate rows within a table and
/// across the two, text that a decimal cast reads as one value (`1.5`,
/// `1.50`) or refuses (`x`), and possibly no row at all.
fn sorting_universe(rng: &mut StdRng) -> Universe {
    const DECIMALS: [f64; 5] = [1.5, 2.0, -0.0, 0.0, 10.25];
    const TEXT: [&str; 6] = ["1.5", "1.50", " 2 ", "2", "", "x"];
    let columns = |t: aldsp::catalog::builder::TableSchemaBuilder| {
        t.column("K", SqlColumnType::Integer, true)
            .column("D", SqlColumnType::Decimal, true)
            .column("V", SqlColumnType::Varchar, true)
    };
    let app = ApplicationBuilder::new("SORTING")
        .project("P")
        .data_service("A")
        .physical_table("A", columns)
        .finish_service()
        .data_service("B")
        .physical_table("B", columns)
        .finish_service()
        .finish_project()
        .build();
    let mut db = Database::new();
    let mut row: Vec<SqlValue> = Vec::new();
    for name in ["A", "B"] {
        let (_, _, function) = app.functions().find(|(_, _, f)| f.name == name).unwrap();
        let mut table = Table::new(function.schema.clone());
        for _ in 0..rng.gen_range(0..9) {
            // One row in three repeats the one before it, across tables too.
            if row.is_empty() || rng.gen_range(0..3) > 0 {
                let values = [
                    SqlValue::Int(rng.gen_range(1..4)),
                    SqlValue::Decimal(DECIMALS[rng.gen_range(0..5)]),
                    SqlValue::Str(TEXT[rng.gen_range(0..6)].into()),
                ];
                let present = |value| match rng.gen_bool(0.8) {
                    true => value,
                    false => SqlValue::Null,
                };
                row = values.into_iter().map(present).collect();
            }
            table.insert(row.clone());
        }
        db.add_table(table);
    }
    Universe::new(app, db)
}

/// Sort and set statements over the universe above: `(sql, every cell a
/// column read)`. A computed cell is evaluated by each read of it — the
/// key's and the projection's — so the fuel bar holds for column reads.
const SORTED_OVER_A_AND_B: [(&str, bool); 12] = [
    ("SELECT K, V FROM A ORDER BY K", true),
    ("SELECT K, D, V FROM A ORDER BY D DESC, K", true),
    ("SELECT V, K FROM A ORDER BY V DESC, K DESC", true),
    ("SELECT DISTINCT V FROM A", true),
    ("SELECT DISTINCT K, V FROM A ORDER BY V, K DESC", true),
    ("SELECT K FROM A UNION SELECT K FROM B", true),
    ("SELECT K, V FROM A UNION ALL SELECT K, V FROM B", true),
    ("SELECT V FROM A INTERSECT ALL SELECT V FROM B", true),
    ("SELECT K, D FROM A EXCEPT ALL SELECT K, D FROM B", true),
    (
        "SELECT D FROM A UNION SELECT D FROM B ORDER BY 1 DESC",
        true,
    ),
    (
        "SELECT DISTINCT CAST(V AS DECIMAL) AS X FROM A ORDER BY X",
        false,
    ),
    (
        "SELECT K, CAST(V AS DECIMAL) AS X FROM B ORDER BY X DESC, K",
        false,
    ),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A sort or set statement answers the same under the rows operator and
    /// the interpreter: equal rows in equal order, or the interpreter's error
    /// (text a decimal cast refuses) on both. Where every cell is a column
    /// read it never costs more fuel than the interpreter; the fuel it spent
    /// passes and one unit less fails; and the row cap holds the rows the
    /// views and the `for $r` held: one below the larger table fails both,
    /// and at that table's rows the two fail or pass alike.
    #[test]
    fn the_sort_and_set_operators_answer_like_the_interpreter_on_random_universes(
        seed in 0u64..100_000,
    ) {
        let universe = sorting_universe(&mut StdRng::seed_from_u64(seed));
        let count = |table: &str| universe.oracle.table(table).map_or(0, |t| t.rows.len() as u64);
        for transport in [Transport::DelimitedText, Transport::Xml] {
            let hash = service(&universe.server, transport, ExecStrategy::HashJoin);
            let naive = service(&universe.server, transport, ExecStrategy::NestedLoop);
            for (sql, column_reads) in SORTED_OVER_A_AND_B {
                let at = format!("seed {seed}, {transport:?}: `{sql}`");
                let kind = match sql.contains("ORDER BY") {
                    true => Lowering::Sort,
                    false => Lowering::Set,
                };
                let run = |service: &QueryService, budget: QueryBudget| {
                    let outcome = service.execute_with_budget(sql, &[], Some(&budget));
                    (outcome.map(|rs| rs.rows().to_vec()), budget)
                };
                let (hashed, hash_meter) = run(&hash, QueryBudget::unlimited());
                let (interpreted, naive_meter) = run(&naive, QueryBudget::unlimited());
                prop_assert_eq!(naive_meter.lowering_counts(kind), (0, 0, 0), "{}", at);
                let (lowered, declined, abandoned) = hash_meter.lowering_counts(kind);
                prop_assert_eq!(declined, 0, "{}", at);
                match (&hashed, &interpreted) {
                    (Ok(hashed), Ok(interpreted)) => {
                        prop_assert_eq!(hashed, interpreted, "{}", at);
                        prop_assert!(lowered > 0 && abandoned == 0, "{}", at);
                        let fuel = hash_meter.fuel_consumed();
                        if column_reads {
                            prop_assert!(fuel <= naive_meter.fuel_consumed(), "{}", at);
                        }
                        prop_assert!(run(&hash, QueryBudget::unlimited().with_fuel(fuel)).0.is_ok());
                        match run(&hash, QueryBudget::unlimited().with_fuel(fuel - 1)).0 {
                            Err(DriverError::BudgetExceeded(m)) if m.contains("fuel exhausted") => {}
                            other => prop_assert!(false, "{}: one unit short: {:?}", at, other),
                        }
                    }
                    (Err(hashed), Err(interpreted)) => {
                        prop_assert!(matches!(interpreted, DriverError::Evaluation(_)), "{}", at);
                        prop_assert_eq!(hashed.to_string(), interpreted.to_string(), "{}", at);
                        prop_assert!(abandoned > 0, "{}", at);
                    }
                    _ => prop_assert!(false, "{}: {:?} vs {:?}", at, hashed, interpreted),
                }
                let tables = ["A", "B"].into_iter().filter(|t| sql.contains(&format!("FROM {t}")));
                let rows = tables.map(count).max().unwrap_or(0);
                if rows == 0 {
                    continue;
                }
                for service in [&hash, &naive] {
                    match run(service, QueryBudget::unlimited().with_row_cap(rows - 1)).0 {
                        Err(DriverError::BudgetExceeded(m)) if m.contains("row cap exceeded") => {}
                        other => prop_assert!(false, "{}: capped at {}: {:?}", at, rows - 1, other),
                    }
                }
                let [capped_hash, capped_naive] = [&hash, &naive]
                    .map(|service| run(service, QueryBudget::unlimited().with_row_cap(rows)).0);
                prop_assert_eq!(
                    capped_hash.map_err(|e| e.to_string()),
                    capped_naive.map_err(|e| e.to_string()),
                    "{}: capped at {}", at, rows
                );
            }
        }
    }
}

/// The strategy changes no byte and no node: for every program of the
/// corpora, in both transports, the payload under the pipeline strategy —
/// sinks and projection — is the interpreter's payload; and the items an
/// XML program evaluates to (the views and the body the projection
/// builds, where no sink runs) are `==` to the interpreter's elements,
/// empty text nodes included.
#[test]
fn payloads_and_trees_are_strategy_invariant() {
    let scale = Scale::small();
    let server = Universe::generated(scale, 61).server;
    let corpus = all_corpora(61, 6);
    let mut compared = 0;
    for transport in [Transport::DelimitedText, Transport::Xml] {
        for (origin, sql, xquery) in emitted_programs(&server, &corpus, transport) {
            let at = format!("{origin}: `{sql}`");
            let [naive, piped] = [ExecStrategy::NestedLoop, ExecStrategy::HashJoin].map(|exec| {
                let meter = QueryBudget::unlimited();
                let payload = server
                    .execute_to_payload_governed_with(&xquery, &[], None, Some(&meter), exec)
                    .unwrap_or_else(|e| panic!("{at}: {e}"));
                let items = server
                    .execute_governed_with(&xquery, &[], Some(&meter), exec)
                    .unwrap_or_else(|e| panic!("{at}: {e}"));
                (payload, items, meter)
            });
            assert_eq!(piped.0, naive.0, "payloads differ: {at}");
            assert_eq!(piped.1, naive.1, "items differ: {at}");
            // Neither a sink nor a view was handed back to the interpreter
            // — and the interpreter planned neither.
            assert_eq!(
                (piped.2.sink_counts().1, piped.2.view_counts().2),
                (0, 0),
                "{at}"
            );
            assert_eq!(
                (naive.2.sink_counts(), naive.2.view_counts()),
                ((0, 0), (0, 0, 0)),
                "{at}"
            );
            compared += 1;
        }
    }
    assert!(compared >= 2 * 90, "only {compared} programs compared");
}

/// Budgets bind inside the fused text sink's and the XML sink's row loops
/// with the `BudgetError` the interpreter reports: a `SELECT … FROM ORDERS`
/// at scale, fuel-starved one unit short of its last row (the tuples are
/// long paid for by then), row-capped, cancelled, and past its deadline.
/// An error in a cell's value is the interpreter's error, and counted as
/// the sink's fallback.
#[test]
fn budgets_and_errors_inside_the_projected_sinks_match_the_interpreter() {
    let scale = Scale::of(200);
    let server = Universe::generated(scale, 67).server;
    let conn = Connection::open(Arc::clone(&server));
    let orders = server
        .database()
        .table("ORDERS")
        .expect("ORDERS")
        .rows
        .len() as u64;
    assert!(orders >= 400, "not at scale: {orders} orders");
    for transport in [Transport::DelimitedText, Transport::Xml] {
        let xquery_of = |sql: &str| {
            let options = TranslationOptions::with_transport(transport);
            conn.translator()
                .translate_full(sql, options)
                .unwrap()
                .translation
                .xquery
        };
        let xquery = xquery_of("SELECT ORDERID, CUSTID, AMOUNT, STATUS FROM ORDERS");
        let run = |budget: &QueryBudget, exec: ExecStrategy| {
            server.execute_to_payload_governed_with(&xquery, &[], None, Some(budget), exec)
        };
        let meter = QueryBudget::unlimited();
        run(&meter, ExecStrategy::HashJoin).unwrap();
        assert_eq!(meter.sink_counts(), (1, 0), "{transport:?}");
        let whole = meter.fuel_consumed();
        assert!(
            whole > 5 * orders,
            "{transport:?}: {whole} units for {orders} rows"
        );
        let cancelled = || {
            let budget = QueryBudget::unlimited();
            budget.cancel();
            budget
        };
        // The deadline's message carries the time it was noticed at.
        let limits: [(&str, &dyn Fn() -> QueryBudget); 4] = [
            ("fuel", &|| QueryBudget::unlimited().with_fuel(whole - 1)),
            ("row cap", &|| {
                QueryBudget::unlimited().with_row_cap(orders - 1)
            }),
            ("cancellation", &cancelled),
            ("deadline", &|| {
                QueryBudget::unlimited().with_deadline(std::time::Duration::ZERO)
            }),
        ];
        for (what, limited) in limits {
            let piped_budget = limited();
            let piped = run(&piped_budget, ExecStrategy::HashJoin).unwrap_err();
            let naive = run(&limited(), ExecStrategy::NestedLoop).unwrap_err();
            let at = format!("{transport:?} under a {what} limit: {piped} vs {naive}");
            match (&piped, &naive) {
                (DriverError::Timeout(_), DriverError::Timeout(_)) => assert_eq!(what, "deadline"),
                (
                    DriverError::BudgetExceeded(_) | DriverError::Cancelled(_),
                    DriverError::BudgetExceeded(_) | DriverError::Cancelled(_),
                ) => assert_eq!(piped.to_string(), naive.to_string(), "{at}"),
                _ => panic!("{at}"),
            }
            // A limit is neither a sink run nor a fallback.
            assert_eq!(piped_budget.sink_counts(), (0, 0), "{what}");
        }
        run(
            &QueryBudget::unlimited().with_fuel(whole),
            ExecStrategy::HashJoin,
        )
        .unwrap();

        // STATUS is 'OPEN', 'SHIPPED', …: the cast fails on the first row.
        let failing = xquery_of("SELECT ORDERID, CAST(STATUS AS INTEGER) FROM ORDERS");
        let budget = QueryBudget::unlimited();
        let run = |budget: &QueryBudget, exec: ExecStrategy| {
            server.execute_to_payload_governed_with(&failing, &[], None, Some(budget), exec)
        };
        let piped = run(&budget, ExecStrategy::HashJoin).unwrap_err();
        let naive = run(&QueryBudget::unlimited(), ExecStrategy::NestedLoop).unwrap_err();
        assert!(matches!(naive, DriverError::Evaluation(_)), "{naive}");
        assert_eq!(piped.to_string(), naive.to_string(), "{transport:?}");
        assert_eq!(budget.sink_counts(), (0, 1), "{transport:?}");
    }
}

// ---- invariant sources ------------------------------------------------

/// The prolog of a hand-written program over CUSTOMERS and ORDERS.
const IMPORTS: &str = "import schema namespace ns0 = \"ld:TestDataServices/CUSTOMERS\" \
    at \"ld:TestDataServices/schemas/CUSTOMERS.xsd\";\n\
    import schema namespace ns1 = \"ld:TestDataServices/ORDERS\" \
    at \"ld:TestDataServices/schemas/ORDERS.xsd\";\n";

/// A source the planner memoizes is evaluated lazily, at most once per
/// evaluation of its FLWOR, and only where nothing between the FLWOR and
/// the source binds a variable it reads. Each case answers under the
/// pipeline strategy what the interpreter answers, items or error.
#[test]
fn invariant_sources_are_memoized_lazily_and_per_flwor_evaluation() {
    let universe = Universe::generated(Scale::small(), 43);
    let server = &universe.server;
    let customers = universe.oracle.table("CUSTOMERS").unwrap().rows.len() as u64;
    // Per strategy, interpreter first: the outcome and the data-service
    // calls it made.
    let run = |body: &str| {
        [ExecStrategy::NestedLoop, ExecStrategy::HashJoin].map(|exec| {
            let before = server.stats().function_calls;
            let outcome = server
                .execute_governed_with(&format!("{IMPORTS}{body}"), &[], None, exec)
                .map_err(|e| e.to_string());
            (outcome, server.stats().function_calls - before)
        })
    };
    let memoized = |body: &str| {
        let program = parse_program(&format!("{IMPORTS}{body}")).expect("parses");
        let naive = memoized_sources(&program, ExecStrategy::NestedLoop);
        assert_eq!(naive, 0, "the interpreter memoizes nothing: {body}");
        memoized_sources(&program, ExecStrategy::HashJoin)
    };

    // (a) No upstream tuple: no memoized source is evaluated, so a scan
    // costs no call and a source that would raise raises nothing.
    let empty = "for $c in ns0:CUSTOMERS()[CUSTOMERID = -1] ";
    let never_called = format!(
        "{empty}for $o in ns1:ORDERS() \
         where (some $p in ns1:ORDERS() satisfies $p/CUSTID = $o/CUSTID) return $o"
    );
    let never_raised = format!(
        "{empty}for $o in fn:data(1 div 0) \
         where (every $q in fn:data(1 div 0) satisfies $q = 1) return $c"
    );
    for body in [&never_called, &never_raised] {
        let [naive, piped] = run(body);
        assert_eq!(piped, naive, "{body}");
        assert_eq!(piped, (Ok(Sequence::empty()), 1), "{body}");
        assert_eq!(memoized(body), 2, "{body}");
    }

    // (b) A source that reads an outer FLWOR's variable is evaluated once
    // per evaluation of its own FLWOR: once per customer, where the
    // interpreter evaluates it once per tuple of `$x`.
    let per_customer = "for $c in ns0:CUSTOMERS() return <C>{ \
         for $x in (1, 2) \
         for $o in (for $p in ns1:ORDERS() where $p/CUSTID = $c/CUSTOMERID return $p) \
         return fn:data($o/ORDERID) }</C>";
    let [naive, piped] = run(per_customer);
    assert_eq!(piped.0, naive.0);
    assert_eq!((naive.1, piped.1), (1 + 2 * customers, 1 + customers));
    assert_eq!(memoized(per_customer), 1);

    // (c) A quantifier source under an enclosing quantifier, or under a
    // nested FLWOR, inside the `where` reads that binder's variable: it
    // has a value per binding, and is not memoized.
    let inner = "(for $q in ns1:ORDERS() where $q/ORDERID = $o/ORDERID return $q)";
    let under_quantifier = format!(
        "for $c in ns0:CUSTOMERS() where (some $o in ns1:ORDERS() satisfies \
         (some $p in {inner} satisfies $p/CUSTID = $c/CUSTOMERID)) \
         return fn:data($c/CUSTOMERID)"
    );
    let under_flwor = format!(
        "for $c in ns0:CUSTOMERS() where fn:exists(for $o in ns1:ORDERS() \
         where (some $p in {inner} satisfies $p/CUSTID = $c/CUSTOMERID) return $o) \
         return fn:data($c/CUSTOMERID)"
    );
    for (body, sources) in [(&under_quantifier, 1), (&under_flwor, 0)] {
        let [naive, piped] = run(body);
        assert_eq!(piped.0, naive.0, "{body}");
        let answered = naive.0.as_ref().map(|items| items.len() as u64);
        assert!(
            matches!(answered, Ok(n) if 1 < n && n < customers),
            "not every customer has orders: {answered:?}"
        );
        assert_eq!(memoized(body), sources, "{body}");
    }
}

/// The fuel bar the retired rewrite experiment held its hoist to, on the
/// engine: over the shapes a loop-invariant source is re-evaluated per
/// tuple in (NOT IN's `every`, `> ALL`, `> ANY` and a join's second scan;
/// `p008` was the retired cost model's code for them), in both transports,
/// the pipeline strategy spends at most half the interpreter's fuel at the
/// median, every plan memoizing a source.
#[test]
fn invariant_sources_halve_the_fuel_of_p008_shapes() {
    let statements = [
        "SELECT CUSTOMERID FROM CUSTOMERS WHERE CUSTOMERID NOT IN (SELECT CUSTID FROM ORDERS)",
        "SELECT ORDERID FROM ORDERS WHERE AMOUNT > ALL (SELECT PAYMENT FROM PAYMENTS)",
        "SELECT ORDERID FROM ORDERS WHERE AMOUNT > ANY (SELECT PAYMENT FROM PAYMENTS)",
        "SELECT CUSTOMERS.CUSTOMERNAME, ORDERS.AMOUNT FROM CUSTOMERS \
         INNER JOIN ORDERS ON CUSTOMERS.CUSTOMERID = ORDERS.CUSTID",
    ];
    let universe = Universe::generated(Scale::small(), 47);
    let corpus: Vec<_> = statements
        .iter()
        .map(|s| ("p008".to_string(), s.to_string()))
        .collect();
    strategies_agree(&universe, &corpus, Vec::new());
    let mut ratios = Vec::new();
    for transport in [Transport::DelimitedText, Transport::Xml] {
        for (_, sql, xquery) in emitted_programs(&universe.server, &corpus, transport) {
            let program = parse_program(&xquery).expect("programs parse");
            let sources = memoized_sources(&program, ExecStrategy::HashJoin);
            assert!(sources > 0, "nothing memoized: `{sql}`");
            let [naive, piped] = [ExecStrategy::NestedLoop, ExecStrategy::HashJoin].map(|exec| {
                let meter = QueryBudget::unlimited();
                let server = &universe.server;
                let ran = server.execute_governed_with(&xquery, &[], Some(&meter), exec);
                ran.unwrap_or_else(|e| panic!("`{sql}`: {e}"));
                meter.fuel_consumed()
            });
            ratios.push(naive as f64 / piped as f64);
        }
    }
    ratios.sort_by(f64::total_cmp);
    let median = (ratios[3] + ratios[4]) / 2.0;
    assert!(median >= 2.0, "median {median:.2}x over {ratios:?}");
}
