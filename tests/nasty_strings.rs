//! Adversarial string data through the full pipeline: values containing
//! XML metacharacters, the §4 transport's separator characters, SQL quote
//! characters, and non-ASCII text must survive translation, evaluation,
//! both transports, and predicate matching — the whole point of the
//! escaping layers (`fn-bea:xml-escape`, XML serialization, SQL string
//! literal escaping). The delimited-text checks run twice: on the
//! interpreter, which calls those functions per cell, and under the
//! production strategy, whose text sink escapes into the payload itself.

use aldsp::catalog::{ApplicationBuilder, SqlColumnType};
use aldsp::core::{ExecStrategy, OutputColumn, TranslationOptions, Transport};
use aldsp::driver::{Connection, DriverError, DspServer, ResultSet};
use aldsp::relational::{Database, SqlValue, Table};
use std::sync::Arc;

mod common;

const NASTY: &[&str] = &[
    "plain",
    "a>b",                   // column separator
    "a<b",                   // row separator
    ">>><<<",                // runs of separators
    "a&b&amp;c",             // ampersands and entity look-alikes
    "<RECORD>fake</RECORD>", // markup injection attempt
    "O'Brien",               // SQL quote
    "say \"hi\"",            // double quotes (XQuery string delimiter)
    "tab\tand newline\n",    // whitespace controls
    "héllo wörld λ 🙂",      // non-ASCII
    " leading and trailing ",
    "&#65; not an A", // entity-reference look-alike
];

fn server_with_nasty() -> Arc<DspServer> {
    let mut values: Vec<Option<&str>> = NASTY.iter().copied().map(Some).collect();
    values.push(None);
    let ids = (0..NASTY.len() as i64).chain([999]);
    server_with(ids.zip(values))
}

/// Table `T(ID INTEGER NOT NULL, VAL VARCHAR)` holding `rows`.
fn server_with<'a>(rows: impl Iterator<Item = (i64, Option<&'a str>)>) -> Arc<DspServer> {
    let app = ApplicationBuilder::new("NASTY")
        .project("P")
        .data_service("T")
        .physical_table("T", |t| {
            t.column("ID", SqlColumnType::Integer, false).column(
                "VAL",
                SqlColumnType::Varchar,
                true,
            )
        })
        .finish_service()
        .finish_project()
        .build();
    let mut db = Database::new();
    let schema = app.projects[0].data_services[0].functions[0].schema.clone();
    let mut table = Table::new(schema);
    for (id, value) in rows {
        let value = value.map_or(SqlValue::Null, |s| SqlValue::Str(s.to_string()));
        table.insert(vec![SqlValue::Int(id), value]);
    }
    db.add_table(table);
    Arc::new(DspServer::new(app, db))
}

fn connection(transport: Transport) -> Connection {
    connection_under(transport, ExecStrategy::NestedLoop)
}

fn connection_under(transport: Transport, exec: ExecStrategy) -> Connection {
    Connection::open_with(
        server_with_nasty(),
        TranslationOptions::with_transport(transport).with_exec(exec),
        std::time::Duration::ZERO,
    )
}

/// Delimited text on the interpreter and under the production strategy.
fn text_connections() -> [Connection; 2] {
    [ExecStrategy::NestedLoop, ExecStrategy::HashJoin]
        .map(|exec| connection_under(Transport::DelimitedText, exec))
}

#[test]
fn all_values_roundtrip_text_transport() {
    for conn in text_connections() {
        let mut rs = conn
            .create_statement()
            .execute_query("SELECT ID, VAL FROM T ORDER BY ID")
            .unwrap();
        for (i, expected) in NASTY.iter().enumerate() {
            assert!(rs.next());
            assert_eq!(rs.get_i64(1).unwrap(), i as i64);
            assert_eq!(
                rs.get_string(2).unwrap().as_deref(),
                Some(*expected),
                "value {i} corrupted in text transport"
            );
        }
        assert!(rs.next());
        assert_eq!(rs.get_string(2).unwrap(), None); // the NULL row
    }
}

#[test]
fn all_values_roundtrip_xml_transport() {
    let conn = connection(Transport::Xml);
    let mut rs = conn
        .create_statement()
        .execute_query("SELECT ID, VAL FROM T ORDER BY ID")
        .unwrap();
    for (i, expected) in NASTY.iter().enumerate() {
        assert!(rs.next());
        assert_eq!(
            rs.get_string(2).unwrap().as_deref(),
            Some(*expected),
            "value {i} corrupted in XML transport"
        );
    }
}

#[test]
fn predicates_match_nasty_literals() {
    // The SQL literal passes through the translator's string escaping and
    // must still match the stored value exactly.
    for conn in text_connections() {
        for (i, s) in NASTY.iter().enumerate() {
            let literal = s.replace('\'', "''");
            let sql = format!("SELECT ID FROM T WHERE VAL = '{literal}'");
            let mut rs = conn
                .create_statement()
                .execute_query(&sql)
                .unwrap_or_else(|e| panic!("query failed for value {i}: {e}\nsql: {sql}"));
            assert_eq!(rs.row_count(), 1, "predicate missed value {i}: {s:?}");
            rs.next();
            assert_eq!(rs.get_i64(1).unwrap(), i as i64);
        }
    }
}

#[test]
fn like_patterns_over_nasty_data() {
    for conn in text_connections() {
        // `%>%` finds the values containing the column separator character.
        let mut rs = conn
            .create_statement()
            .execute_query("SELECT ID FROM T WHERE VAL LIKE '%>%' ORDER BY ID")
            .unwrap();
        let mut ids = Vec::new();
        while rs.next() {
            ids.push(rs.get_i64(1).unwrap());
        }
        let expected: Vec<i64> = NASTY
            .iter()
            .enumerate()
            .filter(|(_, s)| s.contains('>'))
            .map(|(i, _)| i as i64)
            .collect();
        assert_eq!(ids, expected);
    }
}

#[test]
fn concat_and_functions_preserve_content() {
    for conn in text_connections() {
        let mut rs = conn
            .create_statement()
            .execute_query("SELECT VAL || '|' || VAL FROM T WHERE ID = 1")
            .unwrap();
        rs.next();
        assert_eq!(rs.get_string(1).unwrap().as_deref(), Some("a>b|a>b"));

        let mut rs = conn
            .create_statement()
            .execute_query("SELECT CHAR_LENGTH(VAL) FROM T WHERE ID = 9")
            .unwrap();
        rs.next();
        assert_eq!(
            rs.get_i64(1).unwrap(),
            NASTY[9].chars().count() as i64,
            "character length over non-ASCII"
        );
    }
}

// ---------------------------------------------------------------------
// Corrupted/truncated payloads: the transport can damage a result in
// flight (exercised via the fault injector's corruption mode). Damage
// must surface as a typed `DriverError::Decode` — never a panic, and
// never a silently shorter result.
// ---------------------------------------------------------------------

#[test]
fn injected_corruption_yields_decode_errors_not_panics() {
    use aldsp::driver::{DriverError, FaultConfig, FaultInjector, RetryPolicy};

    for seed in [3u64, 17, 4242] {
        for transport in [Transport::DelimitedText, Transport::Xml] {
            let server = server_with_nasty();
            server.install_fault_injector(Some(std::sync::Arc::new(FaultInjector::new(
                FaultConfig {
                    seed,
                    transport_corruption: 1.0,
                    ..FaultConfig::default()
                },
            ))));
            let mut conn = Connection::open_with(
                server,
                TranslationOptions::with_transport(transport),
                std::time::Duration::ZERO,
            );
            // No retries: the corrupted payload itself must be rejected.
            conn.set_retry_policy(RetryPolicy::none());
            for _ in 0..8 {
                let result = conn
                    .create_statement()
                    .execute_query("SELECT ID, VAL FROM T ORDER BY ID");
                match result {
                    Err(DriverError::Decode(_)) => {}
                    other => {
                        panic!("seed {seed}: corrupted payload must fail decoding, got {other:?}")
                    }
                }
            }
        }
    }
}

#[test]
fn corruption_is_survivable_with_retries() {
    use aldsp::driver::{FaultConfig, FaultInjector};

    let server = server_with_nasty();
    // Corrupt roughly half the shipments; the default policy's three
    // attempts almost always find a clean one.
    server.install_fault_injector(Some(std::sync::Arc::new(FaultInjector::new(FaultConfig {
        seed: 7,
        transport_corruption: 0.5,
        ..FaultConfig::default()
    }))));
    let conn = Connection::open_with(
        server,
        TranslationOptions::with_transport(Transport::DelimitedText),
        std::time::Duration::ZERO,
    );
    let mut recovered = 0;
    for _ in 0..12 {
        if let Ok(rs) = conn
            .create_statement()
            .execute_query("SELECT ID, VAL FROM T ORDER BY ID")
        {
            // A result that arrives at all must be complete and intact.
            assert_eq!(rs.row_count(), NASTY.len() + 1);
            recovered += 1;
        }
    }
    assert!(recovered > 0, "no execution survived 50% corruption");
    assert!(conn.retry_stats().retries > 0);
}

/// The payload of the full nasty table over `transport`, shipped
/// fault-free, plus its decoded column set.
fn nasty_payload(transport: Transport) -> (Vec<OutputColumn>, String) {
    let conn = connection(transport);
    let translation = conn
        .create_statement()
        .explain("SELECT ID, VAL FROM T ORDER BY ID")
        .unwrap();
    let payload = conn
        .server()
        .execute_to_payload_governed_with(&translation.xquery, &[], None, None, Default::default())
        .unwrap();
    (translation.columns, payload)
}

fn nasty_delimited_payload() -> (Vec<OutputColumn>, String) {
    nasty_payload(Transport::DelimitedText)
}

#[test]
fn every_mid_row_truncation_is_detected() {
    use aldsp::driver::ResultSet;

    let (columns, payload) = nasty_delimited_payload();
    let full_rows = ResultSet::from_delimited(columns.clone(), &payload)
        .unwrap()
        .row_count();
    assert_eq!(full_rows, NASTY.len() + 1);

    for (cut, _) in payload.char_indices().skip(1) {
        let prefix = &payload[..cut];
        if prefix.ends_with('<') {
            // A cut exactly on a row boundary is a valid shorter payload;
            // this is precisely the cut the injector refuses to make.
            let rs = ResultSet::from_delimited(columns.clone(), prefix).unwrap();
            assert!(rs.row_count() < full_rows);
        } else {
            // Every mid-row cut — including mid-escape and mid-value over
            // separator-laden data — must be rejected, not reinterpreted.
            ResultSet::from_delimited(columns.clone(), prefix).expect_err(&format!(
                "truncation at byte {cut} decoded silently: {prefix:?}"
            ));
        }
    }
}

#[test]
fn scripted_corruption_modes_are_detected() {
    use aldsp::driver::fault::{corrupt_payload, ScriptedRng};
    use aldsp::driver::ResultSet;

    let (columns, payload) = nasty_delimited_payload();
    // Mid-escape: the payload of NASTY data is full of entities; mode 1
    // cuts inside the first one.
    let mid_escape = corrupt_payload(&payload, &mut ScriptedRng::new(vec![1]));
    assert!(ResultSet::from_delimited(columns.clone(), &mid_escape).is_err());

    // Mid-row: mode 0 with a cut landing mid-payload.
    let mid_row = corrupt_payload(&payload, &mut ScriptedRng::new(vec![0, 5]));
    assert!(ResultSet::from_delimited(columns.clone(), &mid_row).is_err());

    // Empty tail: an empty payload is a *valid* zero-row result, so the
    // injector's mutation of it must still be detectable.
    assert_eq!(
        ResultSet::from_delimited(columns.clone(), "")
            .unwrap()
            .row_count(),
        0
    );
    let empty_tail = corrupt_payload("", &mut ScriptedRng::new(vec![0]));
    assert!(ResultSet::from_delimited(columns, &empty_tail).is_err());
}

/// The XML transport's side of the two tests above: a document that
/// stops early is never a shorter result set. The streaming decoder reads
/// rows as they end, so only reading on to the end of the document tells
/// a whole payload from a cut one.
#[test]
fn every_xml_truncation_and_appendix_is_detected() {
    use aldsp::driver::fault::{corrupt_payload, ScriptedRng};

    let (columns, payload) = nasty_payload(Transport::Xml);
    let decode = |text: &str| ResultSet::from_xml(columns.clone(), text);
    assert_eq!(decode(&payload).unwrap().row_count(), NASTY.len() + 1);
    for needle in ["&lt;", "&gt;", "&amp;", "O'Brien"] {
        assert!(payload.contains(needle), "{needle} is not in the payload");
    }

    let appended = [">", "<RECORDSET/>", "<RECORD><T.ID>1</T.ID></RECORD>", "x"];
    let appended = appended.map(|tail| format!("{payload}{tail}"));
    let scripts = [vec![0, 5], vec![1], vec![2]];
    let scripted = scripts.map(|script| corrupt_payload(&payload, &mut ScriptedRng::new(script)));
    let cuts = payload.char_indices().map(|(cut, _)| &payload[..cut]);
    for damaged in cuts.chain(appended.iter().chain(&scripted).map(String::as_str)) {
        match decode(damaged) {
            Err(DriverError::Decode(_)) => {}
            other => panic!(
                "{} of {} bytes decoded as {other:?}",
                damaged.len(),
                payload.len()
            ),
        }
    }
}

#[test]
fn group_by_nasty_strings() {
    // Grouping keys pass through the $inter view and the group clause.
    for conn in text_connections() {
        let mut rs = conn
            .create_statement()
            .execute_query("SELECT VAL, COUNT(*) FROM T GROUP BY VAL ORDER BY 1")
            .unwrap();
        // 12 distinct values + the NULL group.
        assert_eq!(rs.row_count(), NASTY.len() + 1);
        // First row is the NULL group (NULL sorts least).
        rs.next();
        assert_eq!(rs.get_string(1).unwrap(), None);
        assert_eq!(rs.get_i64(2).unwrap(), 1);
    }
}

/// Adversarial *structure* instead of adversarial data: statements nested
/// far past the parsers' recursion limits must come back as a typed
/// `DepthExceeded` from the full driver stack — never a stack overflow,
/// and never a generic syntax error that callers can't distinguish.
#[test]
fn deeply_nested_statements_return_depth_exceeded() {
    use aldsp::driver::DriverError;

    let conn = connection(Transport::DelimitedText);
    let depth = 5_000;
    let nested_where = format!(
        "SELECT ID FROM T WHERE {}ID = 1{}",
        "(".repeat(depth),
        ")".repeat(depth)
    );
    let nested_query = format!("{}SELECT ID FROM T{}", "(".repeat(depth), ")".repeat(depth));
    let not_chain = format!("SELECT ID FROM T WHERE {}ID = 1", "NOT ".repeat(depth));
    for sql in [&nested_where, &nested_query, &not_chain] {
        let result = conn.create_statement().execute_query(sql);
        assert!(
            matches!(result, Err(DriverError::DepthExceeded(_))),
            "expected DepthExceeded for depth-{depth} statement, got {:?}",
            result.map(|rs| rs.row_count())
        );
    }

    // Nesting under the limit still executes: the guard rejects only
    // pathological inputs, not legitimately parenthesized queries.
    let shallow = format!(
        "SELECT ID FROM T WHERE {}ID = 0{} ORDER BY ID",
        "(".repeat(aldsp::sql::MAX_PARSE_DEPTH / 4),
        ")".repeat(aldsp::sql::MAX_PARSE_DEPTH / 4)
    );
    let rs = conn.create_statement().execute_query(&shallow).unwrap();
    assert_eq!(rs.row_count(), 1);
}

/// Adversarial *values*: `i64::MIN`, reached by arithmetic from SQL text,
/// fed to the three integer operations that have no wrapping-free answer
/// for it. `MIN mod -1` is 0; `MIN / -1` and `ABS(MIN)` overflow and must
/// come back as the typed `integer overflow` error the neighbouring
/// `+ - *` already return — from the driver in both transports under both
/// execution strategies, and from the relational oracle alike. Before the
/// fix all three panicked in debug builds, and in release `ABS` answered
/// `i64::MIN` on both sides, so no differential could see it.
#[test]
fn integer_overflow_corners_are_answers_or_typed_errors() {
    use aldsp::core::ExecStrategy;
    use aldsp::driver::DriverError;
    use aldsp::relational::execute_query;
    use aldsp::sql::parse_select;

    const MIN: &str = "(-9223372036854775807 - 1)";
    let modulo = format!("SELECT MOD({MIN}, -1) FROM T");
    let overflowing = [
        format!("SELECT {MIN} / -1 FROM T"),
        format!("SELECT ABS({MIN}) FROM T"),
    ];

    let server = server_with_nasty();
    let oracle_db = server.database().clone();
    let oracle = |sql: &str| execute_query(&oracle_db, &parse_select(sql).unwrap(), &[]);
    let zeros = oracle(&modulo).unwrap();
    assert_eq!(zeros.rows.len(), NASTY.len() + 1);
    assert!(zeros.rows.iter().all(|row| row == &[SqlValue::Int(0)]));
    for sql in &overflowing {
        let error = oracle(sql).expect_err("the oracle must reject the overflow");
        assert!(
            error.message.contains("integer overflow"),
            "`{sql}`: {error}"
        );
    }

    for transport in [Transport::DelimitedText, Transport::Xml] {
        for exec in [ExecStrategy::NestedLoop, ExecStrategy::HashJoin] {
            let conn = Connection::open_with(
                Arc::clone(&server),
                TranslationOptions::with_transport(transport).with_exec(exec),
                std::time::Duration::ZERO,
            );
            let mut rs = conn.create_statement().execute_query(&modulo).unwrap();
            assert_eq!(rs.row_count(), NASTY.len() + 1);
            while rs.next() {
                assert_eq!(rs.get_i64(1).unwrap(), 0, "{transport:?}/{exec:?}");
            }
            for sql in &overflowing {
                match conn.create_statement().execute_query(sql) {
                    Err(DriverError::Evaluation(m)) if m.contains("integer overflow") => {}
                    other => panic!(
                        "`{sql}` ({transport:?}/{exec:?}) must fail with a typed integer \
                         overflow, got {:?}",
                        other.map(|rs| rs.row_count())
                    ),
                }
            }
        }
    }
}

/// What each transport has to carry, byte for byte whichever strategy
/// writes it — the interpreter's `fn-bea:xml-escape` and serializer, or the
/// pipeline strategy's sinks writing cells straight into the payload —
/// plain statements, and ORDER BY's rows as the sort hands them over:
/// `''` beside NULL, the separators and `&` alone and as an entity
/// look-alike, the NULL marker and its neighbour, multi-byte text.
#[test]
fn payloads_are_byte_identical_under_both_strategies() {
    let odd = [
        Some(""),
        None,
        Some("<"),
        Some(">"),
        Some("a>b<c&d;"),
        Some("&lt;"),
        Some("\u{0}"),
        Some("\u{1}"),
        Some("é 🙂 >"),
    ];
    let nasty = NASTY.iter().copied().map(Some);
    let server = server_with((0..).zip(odd.into_iter().chain(nasty)));
    for transport in [Transport::DelimitedText, Transport::Xml] {
        for sql in [
            "SELECT ID, VAL FROM T",
            "SELECT VAL, ID, VAL || '<' FROM T WHERE ID >= 0",
            "SELECT ID, VAL FROM T ORDER BY ID",
            "SELECT VAL, COUNT(*) FROM T GROUP BY VAL",
        ] {
            let options = TranslationOptions::with_transport(transport);
            let conn = Connection::open_with(Arc::clone(&server), options, Default::default());
            let xquery = conn.create_statement().explain(sql).unwrap().xquery;
            let [naive, piped] = [ExecStrategy::NestedLoop, ExecStrategy::HashJoin].map(|exec| {
                let budget = aldsp::governor::QueryBudget::unlimited();
                let payload = server
                    .execute_to_payload_governed_with(&xquery, &[], None, Some(&budget), exec)
                    .unwrap_or_else(|e| panic!("{transport:?} `{sql}`: {e}"));
                (payload, budget.sink_counts())
            });
            assert_eq!(piped.0, naive.0, "{transport:?} `{sql}`");
            assert_eq!(naive.1, (0, 0));
            // A sink wrote it.
            assert_eq!(piped.1, (1, 0), "{transport:?} `{sql}`");
        }
    }
}

// ---------------------------------------------------------------------
// XML rows, streaming vs tree: `ResultSet::from_xml` reads rows off the
// reader's events; the reference below is the DOM walk it replaced. They
// must agree on every document — the server's own, hand-written ones
// that a foreign or future server could send, and damaged ones.
// ---------------------------------------------------------------------

/// The rows of an XML payload by the tree: parse the whole document, then
/// navigate it.
fn from_xml_by_tree(columns: &[OutputColumn], payload: &str) -> Result<Vec<Vec<SqlValue>>, String> {
    let document = aldsp::xml::parse_document(payload).map_err(|e| e.to_string())?;
    let mut rows = Vec::new();
    for record in document.children_named("RECORD") {
        let cells = columns.iter().map(|col| {
            let cell = record.children_named(&col.name).next();
            let cell = cell.map(|e| e.string_value().into());
            aldsp::relational::sqltype::decode_cell(cell, col.sql_type)
        });
        rows.push(cells.collect::<Result<_, _>>()?);
    }
    Ok(rows)
}

/// The rows both decoders make of `payload`, `None` when both reject it;
/// panics if they differ. Rows are compared as rendered: `NaN` is a value
/// some payloads hold, and it is not `==` to itself.
fn decoders_agree_on(columns: &[OutputColumn], payload: &str) -> Option<Vec<Vec<SqlValue>>> {
    let streamed = ResultSet::from_xml(columns.to_vec(), payload).map(|rs| rs.rows().to_vec());
    match (streamed, from_xml_by_tree(columns, payload)) {
        (Ok(streamed), Ok(by_tree)) => {
            let rendered = format!("{streamed:?}");
            assert_eq!(rendered, format!("{by_tree:?}"), "rows of {payload:?}");
            Some(streamed)
        }
        (Err(DriverError::Decode(_)), Err(_)) => None,
        (streamed, by_tree) => {
            panic!("streaming says {streamed:?}, the tree says {by_tree:?}, for {payload:?}")
        }
    }
}

fn varchar_columns<const N: usize>(names: [&str; N]) -> Vec<OutputColumn> {
    let column = |name: &str| OutputColumn {
        name: name.into(),
        label: name.into(),
        sql_type: Some(SqlColumnType::Varchar),
        nullable: true,
    };
    names.map(column).to_vec()
}

#[test]
fn xml_row_semantics_are_the_tree_walks() {
    // One document per rule of what a row and a cell are; the expected
    // rows are written out: `None` for NULL, no rows at all for a rejected
    // payload.
    type Rows = &'static [&'static [Option<&'static str>]];
    let ab = || varchar_columns(["A", "B"]);
    let table: Vec<(&str, Vec<OutputColumn>, &str, Option<Rows>)> = vec![
        (
            "the document element may have any name",
            ab(),
            "<ANY><RECORD><A>1</A><B>2</B></RECORD></ANY>",
            Some(&[&[Some("1"), Some("2")]]),
        ),
        (
            "a prefix on RECORD or on a cell is ignored",
            ab(),
            "<R><ns0:RECORD><x:A>1</x:A><B>2</B></ns0:RECORD></R>",
            Some(&[&[Some("1"), Some("2")]]),
        ),
        (
            "only the first colon ends the prefix",
            varchar_columns(["A:B"]),
            "<R><RECORD><p:A:B>1</p:A:B><A:B>2</A:B></RECORD></R>",
            Some(&[&[Some("1")]]),
        ),
        (
            "children of the root that are not RECORD are skipped",
            ab(),
            "<R><HEAD><A>no</A></HEAD><RECORD><A>1</A></RECORD><RECORDS><A>no</A></RECORDS></R>",
            Some(&[&[Some("1"), None]]),
        ),
        (
            "a RECORD nested deeper is not a row",
            ab(),
            "<R><W><RECORD><A>no</A></RECORD></W><RECORD><A>1</A><RECORD><B>no</B></RECORD></RECORD></R>",
            Some(&[&[Some("1"), None]]),
        ),
        (
            "a root that is itself RECORD is not a row",
            ab(),
            "<RECORD><A>no</A><RECORD><A>1</A></RECORD></RECORD>",
            Some(&[&[Some("1"), None]]),
        ),
        (
            "the first child of a name is the cell, later ones are ignored",
            ab(),
            "<R><RECORD><A>1</A><A>no</A><B>2</B><A/></RECORD></R>",
            Some(&[&[Some("1"), Some("2")]]),
        ),
        (
            "an empty first cell still shadows a later one",
            ab(),
            "<R><RECORD><A/><A>no</A></RECORD></R>",
            Some(&[&[Some(""), None]]),
        ),
        (
            "two columns of one name read the same child",
            varchar_columns(["A", "B", "A"]),
            "<R><RECORD><A>1 &amp; 1</A><B>2</B><A>no</A></RECORD><RECORD><B>3</B></RECORD></R>",
            Some(&[
                &[Some("1 & 1"), Some("2"), Some("1 & 1")],
                &[None, Some("3"), None],
            ]),
        ),
        (
            "a child no column names is skipped, cells come in any order",
            ab(),
            "<R><RECORD><Z>no</Z><B>2</B><Y><A>no</A></Y><A>1</A></RECORD></R>",
            Some(&[&[Some("1"), Some("2")]]),
        ),
        (
            "the cell is the string value: nested elements and split runs",
            ab(),
            "<R><RECORD><A>x<I>y<J>z</J></I>w<!-- c -->v</A><B><!-- only --></B></RECORD></R>",
            Some(&[&[Some("xyzwv"), Some("")]]),
        ),
        (
            "a column's name inside its own cell is text, not a new cell",
            ab(),
            "<R><RECORD><A><A>in</A><B>side</B></A></RECORD></R>",
            Some(&[&[Some("inside"), None]]),
        ),
        (
            "references are expanded, an unknown entity is kept",
            ab(),
            "<R><RECORD><A>&amp;&lt;&gt;&quot;&apos;&#x41;&#66;</A><B>&bogus; &amp</B></RECORD></R>",
            Some(&[&[Some("&<>\"'AB"), Some("&bogus; &amp")]]),
        ),
        (
            "a reference split by a comment is two runs, not one reference",
            ab(),
            "<R><RECORD><A>&am<!-- -->p;</A></RECORD></R>",
            Some(&[&[Some("&amp;"), None]]),
        ),
        (
            "absent is NULL, empty is the empty string",
            varchar_columns(["A", "B", "C"]),
            "<R><RECORD><A/><B></B></RECORD><RECORD/><RECORD></RECORD></R>",
            Some(&[&[Some(""), Some(""), None], &[None; 3], &[None; 3]]),
        ),
        (
            "attributes are checked and ignored",
            ab(),
            "<R a='1'><RECORD A=\"no\" b = 'x'><A B='no'>1</A></RECORD></R>",
            Some(&[&[Some("1"), None]]),
        ),
        (
            "a bad attribute anywhere rejects the payload",
            ab(),
            "<R><RECORD><A>1</A><Z q=no/></RECORD></R>",
            None,
        ),
        (
            "declaration, comments and whitespace around the document",
            ab(),
            "<?xml version=\"1.0\"?>\n<!-- head --> <R><RECORD><A>1</A></RECORD></R>\n<!-- tail -->\n",
            Some(&[&[Some("1"), None]]),
        ),
        (
            "text between rows and between cells is ignored",
            ab(),
            "<R>\n  junk<RECORD>\n    <A>1</A> &amp; <B>2</B>\n  </RECORD>more\n</R>",
            Some(&[&[Some("1"), Some("2")]]),
        ),
        (
            "no rows",
            ab(),
            "<RECORDSET/>",
            Some(&[]),
        ),
        (
            "a mismatched tag after the last row rejects every row",
            ab(),
            "<R><RECORD><A>1</A></RECORD><X></Y></R>",
            None,
        ),
        (
            "a mismatched tag inside a skipped subtree rejects the payload",
            ab(),
            "<R><HEAD><X></Y></HEAD><RECORD><A>1</A></RECORD></R>",
            None,
        ),
        (
            "a second document element rejects the payload",
            ab(),
            "<R><RECORD><A>1</A></RECORD></R><R/>",
            None,
        ),
        (
            "an undecodable cell rejects the payload",
            vec![OutputColumn {
                sql_type: Some(SqlColumnType::Integer),
                ..varchar_columns(["A"]).remove(0)
            }],
            "<R><RECORD><A>7</A></RECORD><RECORD><A>seven</A></RECORD></R>",
            None,
        ),
    ];
    for (rule, columns, document, expected) in table {
        let expected = expected.map(|rows| {
            let value =
                |cell: &Option<&str>| cell.map_or(SqlValue::Null, |s| SqlValue::Str(s.into()));
            let rows = rows.iter().map(|row| row.iter().map(value).collect());
            rows.collect::<Vec<Vec<SqlValue>>>()
        });
        assert_eq!(decoders_agree_on(&columns, document), expected, "{rule}");
    }
}

#[test]
fn streaming_and_tree_decoders_agree_on_shipped_and_damaged_payloads() {
    use aldsp::workload::{fuzzed_corpus, golden_corpus, Scale, Universe};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    // Every golden and generated statement's XML payload, as the server
    // ships it under the production strategy.
    let universe = Universe::generated(Scale::small(), 7);
    let options = TranslationOptions::with_transport(Transport::Xml);
    let conn = Connection::open_with(Arc::clone(&universe.server), options, Default::default());
    let mut shipped = Vec::new();
    for (origin, sql) in golden_corpus().into_iter().chain(fuzzed_corpus(7, 6)) {
        let translation = conn
            .create_statement()
            .explain(&sql)
            .unwrap_or_else(|e| panic!("{origin}: `{sql}`: {e}"));
        let payload = universe
            .server
            .execute_to_payload_governed_with(
                &translation.xquery,
                &[],
                None,
                None,
                ExecStrategy::HashJoin,
            )
            .unwrap_or_else(|e| panic!("{origin}: `{sql}`: {e}"));
        shipped.push((translation.columns, payload));
    }
    assert!(shipped.len() >= 80, "only {} payloads", shipped.len());
    let mut rows = 0;
    for (columns, payload) in &shipped {
        rows += decoders_agree_on(columns, payload)
            .expect("a shipped payload decodes")
            .len();
    }
    assert!(rows >= 1_000, "the corpus ships only {rows} rows");

    // Seeded damage: most of it is rejected, some of it still decodes —
    // to the same rows either way.
    let mut rng = StdRng::seed_from_u64(23);
    let (mut accepted, mut rejected) = (0, 0);
    for round in 0..4_000 {
        let (columns, payload) = &shipped[round % shipped.len()];
        let other = &shipped[rng.gen_range(0..shipped.len())].1;
        let damaged = common::mutate(&mut rng, payload.as_bytes(), other.as_bytes());
        let damaged = String::from_utf8_lossy(&damaged);
        match decoders_agree_on(columns, &damaged) {
            Some(_) => accepted += 1,
            None => rejected += 1,
        }
    }
    assert!(
        accepted >= 50 && rejected >= 1_000,
        "{accepted} / {rejected}"
    );
}
