//! Totality: nothing reachable from outside input may panic.
//!
//! The four decoders that read text from outside the process — the SQL
//! parser, the XQuery parser, the XML reader (under both its consumers,
//! the tree builder and the driver's row decoder) and the §4
//! delimited-payload decoder — are fed random bytes and byte-level
//! mutations of real inputs (golden SQL, the XQuery generated for it, the
//! `<RECORDSET>` documents
//! and delimited payloads it returns). The XQuery evaluator is fed random
//! expressions over boundary atoms (`i64::MIN`/`MAX`, `-0.0`, `NaN`,
//! `INF`, `()`, untyped text, dates) under every arithmetic and comparison
//! operator and every builtin. Every outcome must be `Ok` or a typed
//! error; each case runs under `catch_unwind` and the distinct panic
//! messages are reported. Seeds are fixed, so a failure reproduces.

use aldsp::core::{wrapper, OutputColumn, TranslationOptions, Transport};
use aldsp::driver::{Connection, DspServer, ResultSet};
use aldsp::governor::QueryBudget;
use aldsp::workload::{build_application, populate_database, Scale};
use aldsp::xml::parse::Reader;
use aldsp::xquery::functions::BUILTIN_NAMES;
use aldsp::xquery::{evaluate_program_exec, parse_program, EmptyFunctionSource, ExecStrategy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

mod common;
use common::mutate;

/// Runs `case` on every input, returning the distinct panic messages.
fn panics_over<T>(inputs: impl IntoIterator<Item = T>, case: impl Fn(&T)) -> BTreeSet<String> {
    let mut messages = BTreeSet::new();
    for input in inputs {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| case(&input))) {
            let message = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic payload".to_string());
            messages.insert(message);
        }
    }
    messages
}

// ---- inputs: real texts, mutated ---------------------------------------

/// Real inputs of each decoder, produced by running the golden statements.
struct Corpus {
    sql: Vec<String>,
    xquery: Vec<String>,
    recordsets: Vec<(Vec<OutputColumn>, String)>,
    delimited: Vec<(Vec<OutputColumn>, String)>,
}

fn corpus() -> Corpus {
    let app = build_application();
    let db = populate_database(&app, Scale::small(), 7);
    let server = Arc::new(DspServer::new(app, db));
    let mut corpus = Corpus {
        sql: aldsp::workload::golden_statements(),
        xquery: Vec::new(),
        recordsets: Vec::new(),
        delimited: Vec::new(),
    };
    for transport in [Transport::Xml, Transport::DelimitedText] {
        let conn = Connection::open_with(
            Arc::clone(&server),
            TranslationOptions::with_transport(transport),
            std::time::Duration::ZERO,
        );
        for sql in &corpus.sql {
            let translation = conn.create_statement().explain(sql).unwrap();
            if translation.parameter_count == 0 {
                let payload = server
                    .execute_to_payload_governed_with(
                        &translation.xquery,
                        &[],
                        None,
                        None,
                        ExecStrategy::default(),
                    )
                    .unwrap();
                match transport {
                    Transport::Xml => &mut corpus.recordsets,
                    Transport::DelimitedText => &mut corpus.delimited,
                }
                .push((translation.columns, payload));
            }
            corpus.xquery.push(translation.xquery);
        }
    }
    assert!(corpus.sql.len() >= 20 && corpus.recordsets.len() >= 20);
    corpus
}

/// `count` inputs for one decoder: mostly mutations of its real inputs,
/// the rest short runs of random bytes. Invalid UTF-8 reaches the decoder
/// the way it would from a socket: lossily decoded.
fn hostile_inputs(seed: u64, texts: &[&str], count: usize) -> Vec<(usize, String)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|i| {
            let which = rng.gen_range(0..texts.len());
            let bytes = if i % 5 == 4 {
                (0..rng.gen_range(0..64))
                    .map(|_| rng.gen_range(0..=255u8))
                    .collect()
            } else {
                let other = texts[rng.gen_range(0..texts.len())];
                mutate(&mut rng, texts[which].as_bytes(), other.as_bytes())
            };
            (which, String::from_utf8_lossy(&bytes).into_owned())
        })
        .collect()
}

fn refs(texts: &[String]) -> Vec<&str> {
    texts.iter().map(String::as_str).collect()
}

fn payloads(shipped: &[(Vec<OutputColumn>, String)]) -> Vec<&str> {
    shipped
        .iter()
        .map(|(_, payload)| payload.as_str())
        .collect()
}

#[test]
fn parsers_and_decoders_never_panic_on_hostile_input() {
    const PER_DECODER: usize = 3_000;
    let corpus = corpus();
    let mut panics = BTreeSet::new();

    panics.extend(panics_over(
        hostile_inputs(1, &refs(&corpus.sql), PER_DECODER),
        |(_, text)| drop(aldsp::sql::parse_select(text)),
    ));
    panics.extend(panics_over(
        hostile_inputs(2, &refs(&corpus.xquery), PER_DECODER),
        |(_, text)| drop(parse_program(text)),
    ));
    panics.extend(panics_over(
        hostile_inputs(3, &payloads(&corpus.recordsets), PER_DECODER),
        |(which, text)| {
            drop(aldsp::xml::parse_document(text));
            let mut reader = Reader::document(text);
            while let Ok(Some(_)) = reader.next() {}
            drop(ResultSet::from_xml(
                corpus.recordsets[*which].0.clone(),
                text,
            ));
        },
    ));
    panics.extend(panics_over(
        hostile_inputs(4, &payloads(&corpus.delimited), PER_DECODER),
        |(which, text)| {
            let columns = &corpus.delimited[*which].0;
            drop(wrapper::parse_delimited(text, columns.len()));
            drop(ResultSet::from_delimited(columns.clone(), text));
        },
    ));

    assert!(panics.is_empty(), "decoders panicked: {panics:#?}");
}

// ---- inputs: random expressions over boundary values --------------------

const ATOMS: &[&str] = &[
    "0",
    "1",
    "-1",
    "7",
    "9223372036854775807",
    "(-9223372036854775807 - 1)",
    "1.5",
    "-0.0e0",
    "1.0e308",
    "xs:double(\"NaN\")",
    "xs:double(\"INF\")",
    "xs:double(\"-INF\")",
    "()",
    "(1, 2, 3)",
    "\"\"",
    "\"text\"",
    "\"%_\"",
    "xs:untypedAtomic(\"7\")",
    "xs:untypedAtomic(\"abc\")",
    "xs:date(\"2006-01-01\")",
    "xs:date(\"1999-12-31\")",
    "fn:true()",
    "<R><A>1</A><B/></R>",
];
const OPERATORS: &[&str] = &[
    "+", "-", "*", "div", "idiv", "mod", "=", "!=", "<", "<=", ">", ">=", "eq", "ne", "lt", "le",
    "gt", "ge", "and", "or",
];
const CASTS: &[&str] = &[
    "xs:integer",
    "xs:decimal",
    "xs:double",
    "xs:string",
    "xs:boolean",
    "xs:date",
    "xs:untypedAtomic",
];

fn random_expr(rng: &mut StdRng, depth: usize) -> String {
    if depth == 0 || rng.gen_bool(0.25) {
        return ATOMS[rng.gen_range(0..ATOMS.len())].to_string();
    }
    let sub = |rng: &mut StdRng| random_expr(rng, depth - 1);
    match rng.gen_range(0..10) {
        0..=4 => {
            let op = OPERATORS[rng.gen_range(0..OPERATORS.len())];
            format!("({} {op} {})", sub(rng), sub(rng))
        }
        5 => format!("(-{})", sub(rng)),
        6 => format!("(if ({}) then {} else {})", sub(rng), sub(rng), sub(rng)),
        7 => {
            let cast = CASTS[rng.gen_range(0..CASTS.len())];
            format!("{cast}({})", sub(rng))
        }
        _ => {
            let name = BUILTIN_NAMES[rng.gen_range(0..BUILTIN_NAMES.len())];
            let args: Vec<String> = (0..rng.gen_range(0..=3)).map(|_| sub(rng)).collect();
            format!("{name}({})", args.join(", "))
        }
    }
}

#[test]
fn evaluator_never_panics_on_boundary_values() {
    let mut rng = StdRng::seed_from_u64(5);
    let expressions: Vec<String> = (0..12_000).map(|_| random_expr(&mut rng, 3)).collect();
    let answered = std::cell::Cell::new(0usize);
    let panics = panics_over(expressions, |text| {
        // The generator writes the dialect; a parse failure is its bug.
        let program = parse_program(text).unwrap_or_else(|e| panic!("generator: `{text}`: {e}"));
        let budget = QueryBudget::unlimited().with_fuel(10_000);
        for strategy in [ExecStrategy::NestedLoop, ExecStrategy::HashJoin] {
            let result =
                evaluate_program_exec(&program, &EmptyFunctionSource, &[], Some(&budget), strategy);
            answered.set(answered.get() + usize::from(result.is_ok()));
        }
    });
    assert!(panics.is_empty(), "the evaluator panicked: {panics:#?}");
    // Typed errors are fine, but a generator that only ever produces them
    // exercises nothing.
    assert!(answered.get() >= 4_000, "only {} answers", answered.get());
}
