//! The experiment harness: regenerates every table in EXPERIMENTS.md that
//! the end-to-end benchmark (`e2e/`) does not answer, in one run.
//!
//! ```sh
//! cargo run --release -p aldsp-bench --bin harness              # all
//! cargo run --release -p aldsp-bench --bin harness e1 e3        # subset
//! cargo run --release -p aldsp-bench --bin harness e13 smoke    # CI size
//! ```
//!
//! An experiment is named by its number or by the report it writes; any
//! other argument but `smoke` exits 2 with the list of known names.

use aldsp_bench::{
    connect, demo_metadata, payload_for, production_lanes, projection_query, server_at_scale,
};
use aldsp_catalog::{CachedMetadataApi, InProcessMetadataApi, TableLocator};
use aldsp_core::{TranslationOptions, Translator, Transport};
use aldsp_driver::{Connection, DspServer, QueryService, ResultSet};
use aldsp_governor::{Lowering, QueryBudget};
use aldsp_plancache::PlanCache;
use aldsp_relational::execute_query;
use aldsp_sql::parse_select;
use aldsp_workload::{
    build_application, fuzzed_corpus, golden_statements, paper_corpus, run_matrix, Lane,
    MatrixReport, Scale, Universe,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An experiment: its name, the name of the report it writes (also
/// accepted; empty if none), and its entry point, given whether this is a
/// smoke run.
type Experiment = (&'static str, &'static str, fn(bool));

const EXPERIMENTS: [Experiment; 8] = [
    ("e1", "", e1_result_transport),
    ("e3", "", |_| e3_metadata_cache()),
    ("e4", "", |_| e4_end_to_end()),
    ("e6", "", |_| e6_differential()),
    ("e7", "", |_| e7_null_machinery_ablation()),
    ("e9", "overload", e9_overload),
    ("e11", "validation", e11_validation),
    ("e13", "exec", e13_exec_engine),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(unknown) = unknown_arg(&args) {
        let known: Vec<&str> = EXPERIMENTS
            .iter()
            .flat_map(|(name, report, _)| [*name, *report])
            .filter(|name| !name.is_empty())
            .collect();
        eprintln!(
            "harness: unknown experiment `{unknown}`; known: {} (and `smoke`)",
            known.join(" ")
        );
        std::process::exit(2);
    }
    let smoke = args.iter().any(|a| a == "smoke");
    let all = args.iter().all(|a| a == "smoke");
    for (name, report, run) in EXPERIMENTS {
        if all || args.iter().any(|arg| names(arg, name, report)) {
            run(smoke);
        }
    }
}

/// The first argument that is neither `smoke` nor an experiment's name or
/// report name.
fn unknown_arg(args: &[String]) -> Option<&str> {
    args.iter().map(String::as_str).find(|arg| {
        *arg != "smoke"
            && !EXPERIMENTS
                .iter()
                .any(|(name, report, _)| names(arg, name, report))
    })
}

/// Whether `arg` names the experiment `name`, which writes `report`.
fn names(arg: &str, name: &str, report: &str) -> bool {
    arg == name || (!report.is_empty() && arg == report)
}

/// Writes one experiment's JSON report. A full run writes the committed
/// artifact, `BENCH_<name>.json` in the working directory; a smoke run
/// writes `target/bench/<name>.smoke.json`, so a CI-scale run can never
/// overwrite the full-scale numbers the documentation quotes.
fn write_report(name: &str, smoke: bool, report: &Json) {
    let path = if smoke {
        std::fs::create_dir_all("target/bench").unwrap();
        format!("target/bench/{name}.smoke.json")
    } else {
        format!("BENCH_{name}.json")
    };
    let mut text = String::new();
    report.write(&mut text, 0);
    std::fs::write(&path, text + "\n").unwrap();
    println!("wrote {path}");
}

/// A report value. `Num` carries the number of decimals it prints with;
/// objects keep their insertion order.
enum Json {
    Bool(bool),
    Int(u64),
    Num(f64, usize),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// `obj! { "key": value, .. }` — a report object laid out like the JSON it
/// becomes; a value is anything `Json::from` takes.
macro_rules! obj {
    ($($key:literal: $value:expr),* $(,)?) => {
        Json::Obj(vec![$(($key.to_string(), Json::from($value))),*])
    };
}

macro_rules! json_from {
    ($($from:ty => $make:expr),*) => {$(
        impl From<$from> for Json {
            fn from(value: $from) -> Json {
                $make(value)
            }
        }
    )*};
}
json_from!(
    bool => Json::Bool,
    u64 => Json::Int,
    usize => |n| Json::Int(n as u64),
    &str => |s: &str| Json::Str(s.to_string()),
    Vec<Json> => Json::Arr
);

impl Json {
    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Bool(b) => out.push_str(&b.to_string()),
            Json::Int(n) => out.push_str(&n.to_string()),
            Json::Num(x, decimals) => out.push_str(&format!("{x:.decimals$}")),
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' | '\\' => out.extend(['\\', c]),
                        c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                let items: Vec<_> = items.iter().map(|v| (None, v)).collect();
                Json::write_items(out, depth, ['[', ']'], &items)
            }
            Json::Obj(fields) => {
                let items: Vec<_> = fields.iter().map(|(k, v)| (Some(k), v)).collect();
                Json::write_items(out, depth, ['{', '}'], &items)
            }
        }
    }

    /// One item per line, except that a container of scalars stays on one
    /// line.
    fn write_items(
        out: &mut String,
        depth: usize,
        [open, close]: [char; 2],
        items: &[(Option<&String>, &Json)],
    ) {
        let nested = items
            .iter()
            .any(|(_, v)| matches!(v, Json::Arr(_) | Json::Obj(_)));
        let separator = |depth: usize| match nested {
            true => format!("\n{}", "  ".repeat(depth)),
            false => " ".to_string(),
        };
        out.push(open);
        for (i, (key, value)) in items.iter().enumerate() {
            out.push_str(if i > 0 { "," } else { "" });
            out.push_str(&separator(depth + 1));
            if let Some(key) = key {
                Json::Str(key.to_string()).write(out, 0);
                out.push_str(": ");
            }
            value.write(out, depth + 1);
        }
        out.push_str(&separator(depth));
        out.push(close);
    }
}

/// Prints the first few mismatches of a matrix run.
fn print_mismatches(report: &MatrixReport) {
    for m in report.mismatches.iter().take(8) {
        println!(
            "MISMATCH [{} on {}]: {}\n  {}",
            m.origin, m.lane, m.sql, m.reason
        );
    }
}

/// `percentile(sorted, 0.95)` — nearest-rank over a sorted sample set.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64) * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted_us(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples
}

fn time_n<R>(n: usize, mut f: impl FnMut() -> R) -> Duration {
    // One warm-up, then the mean of n runs.
    f();
    let start = Instant::now();
    for _ in 0..n {
        std::hint::black_box(f());
    }
    start.elapsed() / n as u32
}

/// The fastest of `n` runs after one warm-up: what two configurations are
/// ordered by, where a mean would carry the machine's noise.
fn fastest_of<R>(n: usize, mut f: impl FnMut() -> R) -> Duration {
    f();
    (0..n)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed()
        })
        .min()
        .expect("n > 0")
}

/// E1: payload bytes and driver-side decode time, XML vs delimited text —
/// and the whole statement (SQL text in, decoded rows out, warm plan
/// cache) per transport under the production configuration, which is the
/// paper's claim end to end: from 1,000 rows up delimited text must not
/// be slower than XML, with each transport's statement written by its sink
/// (asserted from `sink_counts()`). Smoke stops at 10,000 rows.
fn e1_result_transport(smoke: bool) {
    println!("== E1: result transport (paper §4) ==");
    println!(
        "{:>8} {:>5} {:>12} {:>12} {:>8} {:>14} {:>14} {:>8} {:>12} {:>13} {:>8}",
        "rows",
        "cols",
        "xml_bytes",
        "text_bytes",
        "ratio",
        "xml_decode_us",
        "text_decode_us",
        "speedup",
        "xml_stmt_ms",
        "text_stmt_ms",
        "speedup"
    );
    let sizes: &[usize] = if smoke {
        &[100, 1_000, 10_000]
    } else {
        &[100, 1_000, 10_000, 100_000]
    };
    for &rows in sizes {
        let server = server_at_scale(rows, 42);
        let services: Vec<QueryService> = production_lanes(Scale::of(rows))
            .iter()
            .map(|lane| lane.service(Arc::clone(&server)))
            .collect();
        let [text_service, xml_service] = services.as_slice() else {
            unreachable!("the production lanes are delimited text, then XML");
        };
        for cols in [2usize, 4] {
            let sql = projection_query(cols);
            let (xml_payload, xml_columns) = payload_for(&server, Transport::Xml, sql);
            let (text_payload, text_columns) = payload_for(&server, Transport::DelimitedText, sql);
            let iterations = (200_000 / rows).clamp(3, 200);
            let xml_time = time_n(iterations, || {
                ResultSet::from_xml(xml_columns.clone(), &xml_payload).unwrap()
            });
            let text_time = time_n(iterations, || {
                ResultSet::from_delimited(text_columns.clone(), &text_payload).unwrap()
            });
            let statement = |service: &QueryService| {
                fastest_of(iterations.min(25), || service.execute(sql, &[]).unwrap())
            };
            let xml_statement = statement(xml_service);
            let text_statement = statement(text_service);
            // Both sides of the comparison are the fused path: a transport
            // that silently stopped sinking would flatter the other.
            for (service, transport) in [(text_service, "delimited-text"), (xml_service, "XML")] {
                let meter = QueryBudget::unlimited();
                service.execute_with_budget(sql, &[], Some(&meter)).unwrap();
                assert_eq!(
                    meter.sink_counts(),
                    (1, 0),
                    "E1: the {transport} statement did not end in its sink"
                );
            }
            println!(
                "{:>8} {:>5} {:>12} {:>12} {:>7.2}x {:>14.1} {:>14.1} {:>7.2}x {:>12.2} {:>13.2} {:>7.2}x",
                rows,
                cols,
                xml_payload.len(),
                text_payload.len(),
                xml_payload.len() as f64 / text_payload.len() as f64,
                xml_time.as_secs_f64() * 1e6,
                text_time.as_secs_f64() * 1e6,
                xml_time.as_secs_f64() / text_time.as_secs_f64(),
                xml_statement.as_secs_f64() * 1e3,
                text_statement.as_secs_f64() * 1e3,
                xml_statement.as_secs_f64() / text_statement.as_secs_f64(),
            );
            assert!(
                rows < 1_000 || text_statement <= xml_statement,
                "E1: at {rows} rows x {cols} columns a delimited-text statement took \
                 {text_statement:?}, an XML one {xml_statement:?}: the §4 claim is reversed"
            );
        }
    }
    println!();
}

/// E3: metadata caching under simulated round-trip latency.
fn e3_metadata_cache() {
    println!("== E3: metadata cache (paper §3.5) ==");
    let sql = "SELECT CUSTOMERS.CUSTOMERNAME, ORDERS.AMOUNT FROM CUSTOMERS \
               INNER JOIN ORDERS ON CUSTOMERS.CUSTOMERID = ORDERS.CUSTID";
    let options = TranslationOptions::with_transport(Transport::Xml);
    println!(
        "{:>12} {:>16} {:>16} {:>9}",
        "rtt_ms", "cold_us", "warm_us", "speedup"
    );
    for rtt_ms in [0u64, 1, 5] {
        let app = build_application();
        let locator = TableLocator::for_application(&app);
        let translator = Translator::new(CachedMetadataApi::new(
            InProcessMetadataApi::with_latency(locator, Duration::from_millis(rtt_ms)),
        ));
        let n = if rtt_ms == 0 { 200 } else { 20 };
        let cold = time_n(n, || {
            translator.metadata().clear();
            translator.translate(sql, options).unwrap()
        });
        translator.translate(sql, options).unwrap();
        let warm = time_n(n, || translator.translate(sql, options).unwrap());
        println!(
            "{:>12} {:>16.1} {:>16.1} {:>8.1}x",
            rtt_ms,
            cold.as_secs_f64() * 1e6,
            warm.as_secs_f64() * 1e6,
            cold.as_secs_f64() / warm.as_secs_f64()
        );
    }
    let translator = Translator::new(demo_metadata());
    for _ in 0..50 {
        translator.translate(sql, options).unwrap();
    }
    let stats = translator.metadata().stats();
    println!(
        "hit ratio after 50 repeated translations: {:.3} ({} hits / {} misses)",
        stats.hit_ratio(),
        stats.hits,
        stats.misses
    );
    println!();
}

/// E4: full driver path vs direct relational execution.
fn e4_end_to_end() {
    println!("== E4: end-to-end driver overhead (paper Figure 1) ==");
    let queries = [
        (
            "filter",
            "SELECT CUSTOMERID, CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID <= 50",
        ),
        (
            "join",
            "SELECT CUSTOMERS.CUSTOMERNAME, ORDERS.AMOUNT FROM CUSTOMERS \
             INNER JOIN ORDERS ON CUSTOMERS.CUSTOMERID = ORDERS.CUSTID",
        ),
        (
            "group",
            "SELECT REGION, COUNT(*), AVG(CREDIT) FROM CUSTOMERS GROUP BY REGION",
        ),
        (
            "outer_join",
            "SELECT CUSTOMERS.CUSTOMERID, PAYMENTS.PAYMENT FROM CUSTOMERS \
             LEFT OUTER JOIN PAYMENTS ON CUSTOMERS.CUSTOMERID = PAYMENTS.CUSTID",
        ),
    ];
    println!(
        "{:>8} {:>12} {:>14} {:>14} {:>10}",
        "rows", "query", "driver_us", "direct_us", "overhead"
    );
    for customers in [100usize, 500] {
        let server = server_at_scale(customers, 11);
        let conn = connect(&server, Transport::DelimitedText);
        let oracle_db = server.database().clone();
        for (name, sql) in queries {
            conn.create_statement().execute_query(sql).unwrap(); // warm
            let n = if customers <= 100 { 50 } else { 15 };
            let driver = time_n(n, || conn.create_statement().execute_query(sql).unwrap());
            let parsed = parse_select(sql).unwrap();
            let direct = time_n(n, || execute_query(&oracle_db, &parsed, &[]).unwrap());
            println!(
                "{:>8} {:>12} {:>14.1} {:>14.1} {:>9.1}x",
                customers,
                name,
                driver.as_secs_f64() * 1e6,
                direct.as_secs_f64() * 1e6,
                driver.as_secs_f64() / direct.as_secs_f64()
            );
        }
    }
    println!();
}

/// E7: ablation of the NULL-fidelity machinery (DESIGN.md §8, deviations
/// 1 and 5). The same query runs over a schema whose columns are declared
/// NOT NULL (paper-plain generation: literal element constructors, no
/// guards) and over one where every value column is nullable (conditional
/// construction + emptiness guards). Data is identical and NULL-free, so
/// the time delta is pure machinery cost.
fn e7_null_machinery_ablation() {
    use aldsp_catalog::{ApplicationBuilder, SqlColumnType};
    use aldsp_driver::{Connection, DspServer};
    use aldsp_relational::{Database, SqlValue, Table};
    use std::sync::Arc;

    println!("== E7: ablation — NULL-fidelity machinery cost (DESIGN.md §8) ==");
    let build = |nullable: bool| -> Arc<DspServer> {
        let app = ApplicationBuilder::new("AB")
            .project("P")
            .data_service("T")
            .physical_table("T", |t| {
                t.column("ID", SqlColumnType::Integer, false)
                    .column("NAME", SqlColumnType::Varchar, nullable)
                    .column("V", SqlColumnType::Decimal, nullable)
            })
            .finish_service()
            .finish_project()
            .build();
        let mut db = Database::new();
        let schema = app.projects[0].data_services[0].functions[0].schema.clone();
        let mut table = Table::new(schema);
        for i in 0..5_000i64 {
            table.insert(vec![
                SqlValue::Int(i),
                SqlValue::Str(format!("name{i}")),
                SqlValue::Decimal(i as f64 / 4.0),
            ]);
        }
        db.add_table(table);
        Arc::new(DspServer::new(app, db))
    };

    let sql = "SELECT ID, UPPER(NAME) U, V FROM T WHERE V > 100 ORDER BY V DESC";
    println!(
        "{:>22} {:>14} {:>12}",
        "schema", "driver_us", "xquery_chars"
    );
    for (label, nullable) in [("all NOT NULL", false), ("nullable columns", true)] {
        let server = build(nullable);
        let conn = Connection::open(Arc::clone(&server));
        let translation = conn.create_statement().explain(sql).unwrap();
        conn.create_statement().execute_query(sql).unwrap(); // warm
        let elapsed = time_n(10, || conn.create_statement().execute_query(sql).unwrap());
        println!(
            "{:>22} {:>14.1} {:>12}",
            label,
            elapsed.as_secs_f64() * 1e6,
            translation.xquery.len()
        );
    }
    println!(
        "The nullable variant pays for conditional element construction and\n\
         emptiness guards; the NOT NULL variant generates the paper's plain\n\
         patterns. Catalog nullability is what arbitrates, per column.\n"
    );
}

/// E9: overload protection — the same mixed good/pathological workload
/// runs uncontended (1 thread), under ungoverned overload (N threads, no
/// admission control), and under governed overload (N threads, admission
/// capacity 2 with a short queue). Every run must hold the governance
/// invariant (no panics, typed rejections, oracle-matching good
/// queries); the governed run additionally demonstrates bounded
/// admitted-query latency and a nonzero shed rate. Emits
/// `BENCH_overload.json`.
fn e9_overload(smoke: bool) {
    use aldsp_workload::{run_overload, OverloadConfig, OverloadReport};

    println!("== E9: overload protection (admission control, budgets, breaker) ==");
    let threads = if smoke { 4 } else { 8 };
    let iterations = if smoke { 16 } else { 80 };
    let queue_timeout = Duration::from_micros(500);

    let run = |label: &str, threads: usize, concurrency: usize| -> OverloadReport {
        let mut config = OverloadConfig::new(33, threads);
        config.iterations_per_thread = iterations;
        config.governor.max_concurrency = concurrency;
        config.governor.queue_timeout = queue_timeout;
        let report = run_overload(&config);
        assert!(
            report.invariant_holds(),
            "acceptance ({label}): governance invariant violated: {:#?}",
            report.violations
        );
        let stats = &report.governor;
        println!(
            "{label:>22}: {} submitted, {} admitted, {} shed, {} breaker, \
             {} oversize, good p95 {}us",
            stats.submitted,
            stats.admitted,
            stats.shed,
            stats.breaker_rejections,
            stats.statement_rejections,
            report.p95_latency_us(),
        );
        report
    };

    // Admission capacity 1: admitted queries execute serially, so each
    // one sees an uncontended server — the strongest latency bound the
    // gate can give. Everything that cannot get the slot within the
    // queue timeout is shed instead of queued indefinitely.
    let uncontended = run("uncontended", 1, 0);
    let ungoverned = run("ungoverned overload", threads, 0);
    let governed = run("governed overload", threads, 1);

    let (p95_base, p95_open, p95_gov) = (
        uncontended.p95_latency_us(),
        ungoverned.p95_latency_us(),
        governed.p95_latency_us(),
    );
    let shed_rate = governed.shed() as f64 / governed.governor.submitted.max(1) as f64;
    println!(
        "admitted-query p95: uncontended {p95_base}us, ungoverned {p95_open}us, \
         governed {p95_gov}us; governed shed rate {shed_rate:.3}"
    );
    if !smoke {
        // The governor's latency guarantee: an admitted query waits at
        // most `queue_timeout` for a slot and then runs at bounded
        // concurrency, so its p95 stays within 2x the uncontended p95
        // plus the queue bound — however many threads pile on.
        let bound = 2 * (p95_base + queue_timeout.as_micros() as u64);
        assert!(
            p95_gov <= bound,
            "acceptance: governed overload p95 ({p95_gov}us) exceeds \
             2x uncontended + queue bound ({bound}us)"
        );
    }

    let json = obj! {
        "smoke": smoke, "threads": threads, "iterations_per_thread": iterations,
        "queue_timeout_us": queue_timeout.as_micros() as u64,
        "uncontended": e9_json(&uncontended), "ungoverned": e9_json(&ungoverned),
        "governed": e9_json(&governed), "governed_shed_rate": Json::Num(shed_rate, 4),
    };
    write_report("overload", smoke, &json);
    println!();
}

fn e9_json(report: &aldsp_workload::OverloadReport) -> Json {
    let g = &report.governor;
    obj! {
        "executions": report.executions, "passed": report.passed,
        "typed_errors": report.typed_errors, "good_p95_us": report.p95_latency_us(),
        "submitted": g.submitted, "admitted": g.admitted, "shed": g.shed,
        "breaker_rejections": g.breaker_rejections,
        "statement_rejections": g.statement_rejections,
        "budget_rejections": g.budget_rejections, "breaker_trips": g.breaker_trips,
    }
}

/// E6: differential correctness counts — the matrix's plain and
/// production lanes, both transports.
fn e6_differential() {
    println!("== E6: differential correctness (paper §3.2 (i)) ==");
    let scale = Scale::small();
    let mut lanes = Lane::both(Lane::plain);
    lanes.extend(production_lanes(scale));
    let (mut passed, mut total) = (0, 0);
    for seed in [1u64, 2, 3, 4, 5] {
        let universe = Universe::generated(scale, seed);
        let report = run_matrix(&universe, &fuzzed_corpus(seed, 10), &lanes, None);
        let (clean, statements) = report.statements();
        passed += clean;
        total += statements;
        print_mismatches(&report);
    }
    let classes = aldsp_workload::ConstructClass::all().len();
    println!(
        "{passed}/{total} random queries agree across oracle + plain and production lanes, \
         both transports (5 seeds x 10 per class x {classes} classes)"
    );
    println!();
}

/// E11: layer-5 validation teeth — the false-positive rate on
/// known-good translations and the kill rate on seeded translation
/// mutants. Every golden statement (both transports) and >= 500 fuzzed
/// queries per seed must validate clean under the default witness
/// budget; >= 90% of >= 200 seeded mutants must be refuted with a
/// `V`-code. Emits `BENCH_validation.json`.
fn e11_validation(smoke: bool) {
    use aldsp_analyzer::{validate_translation, ValidateOptions, Witnesses};
    use aldsp_core::{stage1, stage2, stage3, wrapper};
    use aldsp_workload::{mutants_for, MutationClass, QueryGenerator};
    use aldsp_xquery::parse_program;
    use std::collections::BTreeMap;

    println!("== E11: bounded equivalence validation teeth ==");
    let metadata = demo_metadata();
    let defaults = ValidateOptions::default();
    // The acceptance bars (>= 500 fuzzed queries per seed clean,
    // >= 90% kill over >= 200 mutants) hold at any scale; smoke only
    // trims the mutant oversample, never the bar's sample sizes.
    let per_seed = 500usize;
    let mutant_target = if smoke { 220 } else { 450 };

    let translate = |sql: &str| {
        let parsed =
            stage1::parse(sql).unwrap_or_else(|e| panic!("E11: stage 1 rejected `{sql}`: {e}"));
        let prepared = stage2::prepare(&parsed, &metadata)
            .unwrap_or_else(|e| panic!("E11: stage 2 rejected `{sql}`: {e}"));
        let generated = stage3::generate(&prepared)
            .unwrap_or_else(|e| panic!("E11: stage 3 rejected `{sql}`: {e}"));
        let xml = generated.clone().into_query_text();
        let delimited = wrapper::wrap_delimited(generated, &prepared);
        (prepared, xml, delimited)
    };

    let mut latency_us: Vec<f64> = Vec::new();
    let mut witnesses = 0usize;
    let mut validated = 0usize;
    let mut false_positives: Vec<String> = Vec::new();

    // -- false positives: the golden statements, then the fuzzed
    // workload, both transports ---------------------------------------
    let mut clean: Vec<(String, String)> = golden_statements()
        .into_iter()
        .map(|sql| ("golden".to_string(), sql))
        .collect();
    let golden_count = clean.len();
    for seed in [11u64, 23] {
        let mut generator = QueryGenerator::new(seed);
        clean.extend((0..per_seed).map(|_| (format!("seed {seed}"), generator.generate_any().1)));
    }
    let fuzzed_clean = clean.len() - golden_count;
    // The fuzzed XML-transport translations double as the mutation corpus.
    let mut corpus: Vec<(aldsp_core::ir::PreparedQuery, String)> = Vec::new();
    for (i, (origin, sql)) in clean.iter().enumerate() {
        let (prepared, xml, delimited) = translate(sql);
        for text in [&xml, &delimited] {
            let started = Instant::now();
            let outcome = validate_translation(&prepared, text, &defaults);
            latency_us.push(started.elapsed().as_secs_f64() * 1e6);
            witnesses += outcome.witnesses_checked;
            validated += 1;
            for d in &outcome.diagnostics {
                false_positives.push(format!("{origin} `{sql}`: {d}"));
            }
        }
        if i >= golden_count {
            corpus.push((prepared, xml));
        }
    }
    for fp in false_positives.iter().take(10) {
        println!("FALSE POSITIVE: {fp}");
    }

    // -- mutation kill rate -------------------------------------------
    let mut mutants_total = 0usize;
    let mut killed_total = 0usize;
    let mut by_class: BTreeMap<&'static str, (usize, usize)> = BTreeMap::new();
    for class in MutationClass::all() {
        by_class.insert(class.name(), (0, 0));
    }
    let mut escaped: Vec<String> = Vec::new();
    'corpus: for (prepared, xml) in &corpus {
        // One reference side per statement; every mutant runs against it.
        let witnesses = Witnesses::of(prepared, &defaults);
        for mutant in mutants_for(xml) {
            // A mutant that does not parse is layer 2's to kill, not ours.
            let killed = parse_program(&mutant.xquery)
                .is_ok_and(|program| !witnesses.check(&program).diagnostics.is_empty());
            mutants_total += 1;
            let entry = by_class.entry(mutant.class.name()).or_insert((0, 0));
            entry.0 += 1;
            if !killed {
                if escaped.len() < 8 {
                    escaped.push(format!("[{}] {}", mutant.class.name(), mutant.description));
                }
            } else {
                killed_total += 1;
                entry.1 += 1;
            }
        }
        if mutants_total >= mutant_target {
            break 'corpus;
        }
    }
    let kill_rate = killed_total as f64 / mutants_total.max(1) as f64;

    let sorted = sorted_us(latency_us);
    let p50 = percentile(&sorted, 0.50);
    let p95 = percentile(&sorted, 0.95);
    let witnesses_per_query = witnesses as f64 / validated.max(1) as f64;

    println!(
        "{:>22} {:>8} {:>8} {:>10}",
        "mutation class", "mutants", "killed", "kill rate"
    );
    for (name, (n, k)) in &by_class {
        let rate = if *n == 0 {
            String::from("-")
        } else {
            format!("{:.3}", *k as f64 / *n as f64)
        };
        println!("{name:>22} {n:>8} {k:>8} {rate:>10}");
    }
    println!(
        "{validated} clean validations ({golden_count} golden x 2 transports + \
         {fuzzed_clean} fuzzed x 2 transports): {} false positives, \
         {witnesses_per_query:.1} witness dbs/query, p50 {p50:.0}us p95 {p95:.0}us",
        false_positives.len()
    );
    println!("{killed_total}/{mutants_total} seeded mutants refuted ({kill_rate:.3})");
    for e in &escaped {
        println!("  escaped: {e}");
    }

    assert!(
        false_positives.is_empty(),
        "acceptance: validator must report 0 false positives on clean \
         translations, got {}",
        false_positives.len()
    );
    assert!(
        fuzzed_clean >= 2 * 500,
        "acceptance: E11 must validate >= 500 fuzzed queries per seed, got {fuzzed_clean}"
    );
    assert!(
        mutants_total >= 200,
        "acceptance: E11 must judge >= 200 seeded mutants, got {mutants_total}"
    );
    assert!(
        kill_rate >= 0.90,
        "acceptance: validator must refute >= 90% of seeded mutants, \
         got {killed_total}/{mutants_total} = {kill_rate:.3}"
    );

    let by_class_json = by_class
        .iter()
        .map(|(name, (n, k))| (name.to_string(), obj! { "mutants": *n, "killed": *k }))
        .collect();
    let json = obj! {
        "smoke": smoke, "golden_statements": golden_count, "fuzzed_clean": fuzzed_clean,
        "clean_validations": validated, "false_positives": false_positives.len(),
        "mutants": mutants_total, "killed": killed_total, "kill_rate": Json::Num(kill_rate, 4),
        "bar": Json::Num(0.9, 1), "witnesses_per_query": Json::Num(witnesses_per_query, 2),
        "validation_p50_us": Json::Num(p50, 1), "validation_p95_us": Json::Num(p95, 1),
        "kill_by_class": Json::Obj(by_class_json),
    };
    write_report("validation", smoke, &json);
    println!();
}

/// E13: the streaming hash-join execution engine. Two halves:
///
/// * **Correctness** — the differential matrix: the paper corpus plus at
///   least 1,000 fuzzed queries per seed on the interpreter lanes, the
///   hash-join lanes and the production lanes of both transports; every
///   lane must match the relational oracle and the hash lanes the
///   interpreter's rows exactly (ordered). The per-lane meter reports what
///   fraction of hashable FLWORs (two `for`s, a filtered `let`, a
///   comparison against a view) actually took the hash path, and that
///   every grouped FLWOR ran as the aggregate (none declined or abandoned).
/// * **Performance** — the join-heavy slice at scale >= 200 customers
///   (200 x 500 orders: 100k-pair naive cross products) and the grouped
///   `group_having`, p50 wall clock per strategy; the slice's median
///   speedup must reach 5x, and so must the outer-join and IN-subquery
///   rows on their own; the two grouped rows must have run the aggregate. The
///   three-way join stays in the correctness half only — its naive
///   cross product at this scale (200 x 500 x 300 = 30M tuples) is
///   exactly the blow-up the streaming engine exists to avoid timing.
///
/// Both bars are asserted here (and therefore in CI smoke, which trims
/// sample counts but never the bars' sample sizes or the scale). Emits
/// `BENCH_exec.json`.
fn e13_exec_engine(smoke: bool) {
    println!("== E13: streaming hash-join execution engine ==");

    // -- correctness: strategy differential over golden + fuzzed ------
    // 11 construct classes x 91 = 1,001 fuzzed queries per seed; the
    // >= 1,000-per-seed bar holds in smoke too — smoke drops the second
    // seed, not the per-seed count.
    let seeds: &[u64] = if smoke { &[11] } else { &[11, 23] };
    let per_class = 91usize;
    let mut strategy_lanes = Lane::both(Lane::plain);
    strategy_lanes.extend(Lane::both(Lane::hash));
    let mut lanes = strategy_lanes.clone();
    lanes.extend(production_lanes(Scale::small()));
    let reports: Vec<MatrixReport> = seeds
        .iter()
        .map(|&seed| {
            let mut corpus = paper_corpus();
            corpus.extend(fuzzed_corpus(seed, per_class));
            let universe = Universe::generated(Scale::small(), seed);
            let report = run_matrix(&universe, &corpus, &lanes, None);
            print_mismatches(&report);
            for label in ["text+production", "xml+production"] {
                let lane = report.lane(label);
                assert!(
                    lane.hash_operators > 0 && lane.join_fallbacks == 0 && lane.memoized > 0,
                    "acceptance: lane {label} must run plans that memoize invariant sources \
                     on hash operators, none falling back: {lane:?}"
                );
            }
            for label in ["text+hash", "xml+hash", "text+production", "xml+production"] {
                let lane = report.lane(label);
                assert!(
                    lane.cells_pruned > 0 && lane.view_fallbacks == 0,
                    "acceptance: lane {label} must build its views by tail plans that prune, \
                     none handed back: {} views, {} cells pruned, {} fallbacks",
                    lane.views,
                    lane.cells_pruned,
                    lane.view_fallbacks
                );
                assert!(
                    lane.index_hits > 0,
                    "acceptance: lane {label} must find join indexes the server kept"
                );
                for (kind, (lowered, declined, abandoned)) in lane.lowerings() {
                    assert!(
                        lowered > 0 && (declined, abandoned) == (0, 0),
                        "acceptance: lane {label} must run every {kind:?} lowering's FLWOR as \
                         its operator: {lowered} ran, {declined} declined, {abandoned} abandoned"
                    );
                }
            }
            for label in ["text", "xml"] {
                for (kind, counts) in report.lane(label).lowerings() {
                    assert_eq!(
                        counts,
                        (0, 0, 0),
                        "acceptance: the interpreter lane {label} ran a {kind:?} lowering"
                    );
                }
            }
            // No pipeline may run and raise, and the six lanes share one
            // server that nothing writes to: each (function, key column) is
            // keyed at most once over the whole run.
            for lane in &report.lanes {
                assert_eq!(
                    lane.join_abandons, 0,
                    "acceptance: lane {} abandoned a pipeline",
                    lane.label
                );
            }
            assert!(
                report.indexes_built() <= universe.index_bound(),
                "acceptance: {} join indexes built over one epoch (catalog bound {})",
                report.indexes_built(),
                universe.index_bound()
            );
            report
        })
        .collect();
    let sum = |f: &dyn Fn(&MatrixReport) -> usize| reports.iter().map(f).sum::<usize>();
    let (passed, total) = (sum(&|r| r.statements().0), sum(&|r| r.statements().1));
    let (rejected, mismatches) = (sum(&|r| r.rejected), sum(&|r| r.mismatches.len()));
    let golden_total = seeds.len() * paper_corpus().len();
    let fuzzed_per_seed = (total - golden_total) / seeds.len();
    let hash_lanes = || {
        reports
            .iter()
            .flat_map(|r| [r.lane("text+hash"), r.lane("xml+hash")])
    };
    let hash_joins: u64 = hash_lanes().map(|l| l.hash_operators).sum();
    let join_fallbacks: u64 = hash_lanes().map(|l| l.join_fallbacks).sum();
    let fast_path_fraction = hash_joins as f64 / (hash_joins + join_fallbacks).max(1) as f64;
    let views: u64 = hash_lanes().map(|l| l.views).sum();
    let cells_pruned: u64 = hash_lanes().map(|l| l.cells_pruned).sum();
    let view_fallbacks: u64 = hash_lanes().map(|l| l.view_fallbacks).sum();
    let all_lanes = || reports.iter().flat_map(|r| &r.lanes);
    let join_abandons: u64 = all_lanes().map(|l| l.join_abandons).sum();
    let indexes_built: u64 = all_lanes().map(|l| l.indexes_built).sum();
    let index_hits: u64 = all_lanes().map(|l| l.index_hits).sum();
    // Per lowering: lowered on the hash lanes, declined and abandoned on all.
    let mut totals = [(0, 0, 0); 3];
    for (at, total) in totals.iter_mut().enumerate() {
        total.0 = hash_lanes().map(|lane| lane.lowerings()[at].1 .0).sum();
        total.1 = all_lanes().map(|lane| lane.lowerings()[at].1 .1).sum();
        total.2 = all_lanes().map(|lane| lane.lowerings()[at].1 .2).sum();
    }
    println!(
        "{passed}/{total} queries agree (hash vs naive vs production vs oracle, both transports; \
         {} seed(s) x ({golden_total} golden / {} + {fuzzed_per_seed} fuzzed)): \
         {mismatches} mismatches, {rejected} rejected",
        seeds.len(),
        seeds.len().max(1),
    );
    let kinds = [Lowering::Aggregate, Lowering::Sort, Lowering::Set];
    let lowered_line: Vec<String> = kinds
        .iter()
        .zip(totals)
        .map(|(kind, (lowered, declined, abandoned))| {
            format!("{kind:?}: {lowered} lowered, {declined} declined, {abandoned} abandoned")
        })
        .collect();
    println!(
        "hashable FLWOR executions: {hash_joins} hash operators ran, {join_fallbacks} fell back \
         (fast-path fraction {fast_path_fraction:.3}); {views} views built by tail plans \
         less {cells_pruned} cells; {indexes_built} join indexes built, found {index_hits} times \
         (all lanes); {}",
        lowered_line.join("; ")
    );
    assert!(
        fuzzed_per_seed >= 1_000,
        "acceptance: E13 must fuzz >= 1,000 queries per seed, got {fuzzed_per_seed}"
    );
    assert_eq!(
        mismatches, 0,
        "acceptance: hash-join execution must produce 0 result mismatches"
    );
    assert!(
        hash_joins > 0,
        "acceptance: the workload must actually exercise the hash path"
    );

    // -- performance: the join-heavy slice at scale >= 200 ------------
    let customers = 200usize;
    let samples = if smoke { 5 } else { 15 };
    let universe = Universe::generated(Scale::of(customers), 11);
    let server = &universe.server;
    let naive_service = Lane::plain(Transport::DelimitedText).service(Arc::clone(server));
    let hash_service = Lane::hash(Transport::DelimitedText).service(Arc::clone(server));
    let slice = [
        (
            "inner_join",
            "SELECT CUSTOMERS.CUSTOMERNAME, ORDERS.AMOUNT FROM CUSTOMERS \
             INNER JOIN ORDERS ON CUSTOMERS.CUSTOMERID = ORDERS.CUSTID",
        ),
        (
            "join_residual",
            "SELECT CUSTOMERS.CUSTOMERNAME, ORDERS.AMOUNT FROM CUSTOMERS \
             INNER JOIN ORDERS ON CUSTOMERS.CUSTOMERID = ORDERS.CUSTID \
             WHERE ORDERS.AMOUNT > 100",
        ),
        (
            "payments_join",
            "SELECT CUSTOMERS.CUSTOMERID, PAYMENTS.PAYMENT FROM CUSTOMERS \
             INNER JOIN PAYMENTS ON CUSTOMERS.CUSTOMERID = PAYMENTS.CUSTID",
        ),
        (
            "grouped_join",
            "SELECT CUSTOMERS.CUSTOMERID, COUNT(ORDERS.ORDERID), SUM(ORDERS.AMOUNT) \
             FROM CUSTOMERS INNER JOIN ORDERS ON CUSTOMERS.CUSTOMERID = ORDERS.CUSTID \
             GROUP BY CUSTOMERS.CUSTOMERID \
             ORDER BY CUSTOMERS.CUSTOMERID",
        ),
        // The end-to-end benchmark's other grouped statement: no join, the
        // aggregate alone.
        (
            "group_having",
            "SELECT CUSTID, COUNT(*) AS N, SUM(PAYMENT) AS TOTAL FROM PAYMENTS \
             GROUP BY CUSTID HAVING COUNT(*) >= 2",
        ),
        // The end-to-end benchmark's `join_report` texts for the
        // probe-let and the semi-join; each must reach the bar alone.
        (
            "outer_join",
            "SELECT CUSTOMERS.CUSTOMERID, PAYMENTS.PAYMENT FROM CUSTOMERS \
             LEFT OUTER JOIN PAYMENTS ON CUSTOMERS.CUSTOMERID = PAYMENTS.CUSTID",
        ),
        (
            "in_subquery",
            "SELECT CUSTOMERID, REGION FROM CUSTOMERS WHERE CUSTOMERID IN \
             (SELECT CUSTID FROM ORDERS WHERE AMOUNT > 250)",
        ),
        // The end-to-end benchmark's sort and set statements: the rows
        // operator, no join — timed, with no speedup bar.
        (
            "order_by",
            "SELECT CUSTOMERID, CUSTOMERNAME FROM CUSTOMERS ORDER BY CUSTOMERID DESC",
        ),
        ("distinct", "SELECT DISTINCT CUSTID FROM PAYMENTS"),
        (
            "union",
            "SELECT CUSTID FROM PAYMENTS UNION SELECT CUSTID FROM ORDERS",
        ),
    ];
    // The timed queries return identical rows under both strategies at
    // this scale too.
    let slice_corpus: Vec<(String, String)> = slice
        .iter()
        .map(|(name, sql)| (name.to_string(), sql.to_string()))
        .collect();
    let slice_report = run_matrix(&universe, &slice_corpus, &strategy_lanes, None);
    print_mismatches(&slice_report);
    assert!(
        slice_report.is_clean(),
        "acceptance: the timed slice queries must return identical rows"
    );
    // The p50, and the last sample's `(views, cells pruned, view
    // fallbacks)` and, per `Lowering`, `(run, declined, abandoned)`. The
    // server has run the statement before (the matrix above): every join
    // index a sample asks for is found.
    type Counts = (u64, u64, u64);
    let time_service = |service: &QueryService, sql: &str| -> (f64, Counts, [Counts; 3]) {
        let mut times = Vec::with_capacity(samples);
        let (mut views, mut lowered) = ((0, 0, 0), [(0, 0, 0); 3]);
        // One extra, untimed: warms the plan cache and the materialization.
        for sample in 0..=samples {
            let budget = QueryBudget::unlimited();
            let t = Instant::now();
            std::hint::black_box(
                service
                    .execute_with_budget(sql, &[], Some(&budget))
                    .unwrap(),
            );
            if sample > 0 {
                times.push(t.elapsed().as_secs_f64() * 1e6);
            }
            views = budget.view_counts();
            lowered = kinds.map(|kind| budget.lowering_counts(kind));
            assert_eq!(
                (budget.index_counts().0, budget.join_abandons()),
                (0, 0),
                "acceptance: `{sql}`: a warm execution builds no index and abandons no pipeline"
            );
        }
        (percentile(&sorted_us(times), 0.5), views, lowered)
    };
    // The hash lane's *cold* execution: the first on a server that has
    // joined nothing yet. The plan is an exact cache hit (one cache over
    // all the fresh servers: same catalog, same epoch 0) and a scan of each
    // table has materialized its rows, so what it adds to the warm p50 is
    // keying the build side — the operator without the retained index,
    // which is what every execution paid before the index was kept.
    let hash_options = Lane::hash(Transport::DelimitedText).options;
    let cold_plans = Arc::new(PlanCache::default());
    let time_cold = |sql: &str| -> (f64, u64) {
        let mut times = Vec::with_capacity(samples);
        let mut built = 0;
        for sample in 0..=samples {
            let fresh = DspServer::new((*server.application()).clone(), universe.oracle.clone());
            let conn =
                Connection::open_with_cache(Arc::new(fresh), hash_options, Arc::clone(&cold_plans));
            for table in ["CUSTOMERS", "ORDERS", "PAYMENTS"] {
                conn.execute_cached(&format!("SELECT COUNT(*) FROM {table}"), &[])
                    .unwrap();
            }
            let budget = QueryBudget::unlimited();
            let t = Instant::now();
            std::hint::black_box(
                conn.execute_cached_governed(sql, &[], Some(&budget))
                    .unwrap(),
            );
            if sample > 0 {
                times.push(t.elapsed().as_secs_f64() * 1e6);
            }
            let (indexes_built, index_hits) = budget.index_counts();
            assert_eq!(
                index_hits, 0,
                "acceptance: `{sql}`: a fresh server kept an index"
            );
            built = indexes_built;
        }
        (percentile(&sorted_us(times), 0.5), built)
    };
    println!(
        "{:>14} {:>14} {:>14} {:>14} {:>9} {:>9} {:>6} {:>12}",
        "query",
        "naive_p50_us",
        "hash_cold_us",
        "hash_p50_us",
        "operator",
        "speedup",
        "views",
        "cells_pruned"
    );
    let mut entries = Vec::new();
    let mut speedups = Vec::new();
    for (name, sql) in slice {
        let (naive_p50, interpreted, naive_lowered) = time_service(&naive_service, sql);
        let (hash_p50, (views, cells_pruned, view_fallbacks), lowered) =
            time_service(&hash_service, sql);
        let (hash_cold, indexes_built) = time_cold(sql);
        let speedup = naive_p50 / hash_p50.max(1e-9);
        let operator_speedup = naive_p50 / hash_cold.max(1e-9);
        println!(
            "{name:>14} {naive_p50:>14.0} {hash_cold:>14.0} {hash_p50:>14.0} \
             {operator_speedup:>8.1}x {speedup:>8.1}x {views:>6} {cells_pruned:>12}"
        );
        assert!(
            !matches!(name, "outer_join" | "in_subquery") || speedup >= 5.0,
            "acceptance: `{name}` must be >= 5x faster hashed, got {speedup:.1}x"
        );
        // A view that stopped pruning returns the same rows, only slower —
        // and so does a statement an operator stopped running.
        let grouped = matches!(name, "grouped_join" | "group_having");
        let sorted = matches!(name, "grouped_join" | "order_by");
        let set = matches!(name, "distinct" | "union");
        assert!(
            !(grouped || name == "outer_join") || cells_pruned > 0,
            "acceptance: the view of `{name}` must be built without its unread cells"
        );
        assert_eq!(
            (view_fallbacks, interpreted),
            (0, (0, 0, 0)),
            "acceptance: `{name}`: no view is handed back, and the interpreter plans none"
        );
        assert_eq!(
            (lowered, naive_lowered),
            (
                [grouped, sorted, set].map(|ran| (u64::from(ran), 0, 0)),
                [(0, 0, 0); 3]
            ),
            "acceptance: `{name}`: its groups, sort and set operation are the operators', \
             and the interpreter's none"
        );
        // The semi-join's build side is a view over a parameter: its table
        // stays the statement's own. Every other join keys a bare function.
        let unjoined = [
            "in_subquery",
            "group_having",
            "order_by",
            "distinct",
            "union",
        ];
        let joins = !unjoined.contains(&name);
        assert_eq!(
            indexes_built,
            u64::from(joins),
            "acceptance: `{name}`: join indexes its cold execution builds"
        );
        entries.push(obj! {
            "query": name, "naive_p50_us": Json::Num(naive_p50, 1),
            "hash_cold_us": Json::Num(hash_cold, 1),
            "hash_p50_us": Json::Num(hash_p50, 1),
            "operator_speedup": Json::Num(operator_speedup, 2),
            "speedup": Json::Num(speedup, 2),
            "views": views, "cells_pruned": cells_pruned, "indexes_built": indexes_built,
            "aggregates": lowered[0].0, "sorts": lowered[1].0, "sets": lowered[2].0,
        });
        // The slice's bar is the joins' and the aggregate's.
        if !matches!(name, "order_by" | "distinct" | "union") {
            speedups.push(speedup);
        }
    }
    let slice_p50 = percentile(&sorted_us(speedups.clone()), 0.5);
    let slice_stats = hash_service.governor_stats();
    let timed_fraction = slice_stats.hash_joins as f64
        / (slice_stats.hash_joins + slice_stats.join_fallbacks).max(1) as f64;
    println!(
        "join-heavy slice at scale {customers}: p50 speedup {slice_p50:.1}x \
         (timed-slice fast-path fraction {timed_fraction:.3})"
    );
    assert!(
        customers >= 200,
        "acceptance: the perf half must run at scale >= 200 customers"
    );
    assert!(
        slice_p50 >= 5.0,
        "acceptance: p50 speedup on the join-heavy slice must be >= 5x, \
         got {slice_p50:.1}x"
    );

    let json = obj! {
        "smoke": smoke,
        "correctness": obj! {
            "seeds": seeds.len(), "golden": golden_total, "fuzzed_per_seed": fuzzed_per_seed,
            "passed": passed, "rejected": rejected, "mismatches": mismatches,
            "hash_joins": hash_joins, "join_fallbacks": join_fallbacks,
            "fast_path_fraction": Json::Num(fast_path_fraction, 4),
            "views": views, "cells_pruned": cells_pruned, "view_fallbacks": view_fallbacks,
            "join_abandons": join_abandons, "indexes_built": indexes_built, "index_hits": index_hits,
            "aggregates_lowered": totals[0].0, "aggregates_declined": totals[0].1,
            "aggregates_abandoned": totals[0].2, "sorts_lowered": totals[1].0,
            "sorts_declined": totals[1].1, "sorts_abandoned": totals[1].2,
            "sets_lowered": totals[2].0, "sets_declined": totals[2].1,
            "sets_abandoned": totals[2].2,
        },
        "perf": obj! {
            "scale_customers": customers, "samples_per_query": samples, "queries": entries,
            "p50_speedup": Json::Num(slice_p50, 2),
            "timed_fast_path_fraction": Json::Num(timed_fraction, 4), "bar": Json::Num(5.0, 1),
        },
    };
    write_report("exec", smoke, &json);
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unknown(args: &[&str]) -> Option<String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        unknown_arg(&args).map(str::to_string)
    }

    #[test]
    fn an_argument_naming_no_experiment_is_refused() {
        assert_eq!(unknown(&[]), None);
        assert_eq!(unknown(&["smoke"]), None);
        assert_eq!(unknown(&["e1", "e13", "smoke"]), None);
        assert_eq!(unknown(&["overload", "validation", "exec"]), None);
        // The retired experiments and their reports are names no more.
        for retired in ["e2", "e8", "plancache", "translation", "e10", "e12"] {
            assert_eq!(unknown(&[retired, "smoke"]), Some(retired.to_string()));
        }
        assert_eq!(unknown(&["e1", "E1"]), Some("E1".to_string()));
        assert_eq!(unknown(&[""]), Some(String::new()));
    }
}
