//! `analyze` — end-to-end lint of SQL statements through the translation
//! pipeline.
//!
//! Reads SQL from file arguments (or stdin when none are given), translates
//! each statement against the bundled demo schema (the workload generator's
//! universe: CUSTOMERS / ORDERS / PAYMENTS), and runs the analyzer over
//! the result in both transports: the stage-2 IR invariant check, the
//! XQuery lint over the generated text, the type-flow pass with its
//! translation type-diff, and (on request) the bounded equivalence
//! validator. Statements are separated by `;`.
//!
//! The correctness layers (`A`/`T` codes) always run and always count
//! toward the exit status. The display flags compose:
//!
//! * `--types` prints the inferred output typing of each statement as a
//!   `label TYPE NULL|NOT NULL` table — the analyzer's independently
//!   re-derived view of what the driver's result-set metadata must report.
//! * `--validate` runs the layer-5 bounded equivalence validator (the
//!   reference relational interpreter against the real evaluator over
//!   enumerated witness databases); `V` findings are hard errors and
//!   count toward the exit status.
//! * `--all` is `--types --validate`.
//! * `--format json` switches the report to machine-readable NDJSON: one
//!   JSON object per finding (`sql`, `transport`, `layer`, `code`, `rule`,
//!   `message`), and one per failed translation (`sql`, `transport`,
//!   `error`). `--format human` is the default.
//!
//! ```text
//! Usage: analyze [--print-xquery] [--types] [--validate] [--all]
//!                [--format human|json] [FILE ...]
//! ```
//!
//! Exit status is 0 when every statement is clean across every requested
//! layer, 1 when any statement fails to parse/translate or produces
//! findings in a requested layer, 2 on usage or I/O errors.

use aldsp::analyzer::{analyze_sql_with, ValidateOptions};
use aldsp::catalog::{CachedMetadataApi, InProcessMetadataApi, TableLocator};
use aldsp::core::{TranslationOptions, Transport};
use aldsp::workload::schema::build_application;
use std::io::{ErrorKind, Read, Write};

/// Escapes `s` as the contents of a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn main() {
    let mut flags = Flags {
        print_xquery: false,
        print_types: false,
        check_validate: false,
        json: false,
    };
    let mut files: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--print-xquery" => flags.print_xquery = true,
            "--types" => flags.print_types = true,
            "--validate" => flags.check_validate = true,
            "--all" => {
                flags.print_types = true;
                flags.check_validate = true;
            }
            "--format" | "--format=human" | "--format=json" => {
                let value = match arg.as_str() {
                    "--format" => match args.next() {
                        Some(v) => v,
                        None => {
                            eprintln!("analyze: --format needs a value (human|json)");
                            std::process::exit(2);
                        }
                    },
                    other => other["--format=".len()..].to_string(),
                };
                match value.as_str() {
                    "human" => flags.json = false,
                    "json" => flags.json = true,
                    other => {
                        eprintln!("analyze: unknown format `{other}` (human|json)");
                        std::process::exit(2);
                    }
                }
            }
            "--help" | "-h" => {
                println!("Usage: analyze [--print-xquery] [--types] [--validate] [--all]");
                println!("               [--format human|json] [FILE ...]");
                println!("Lints SQL statements (from files or stdin, `;`-separated)");
                println!("through the SQL-to-XQuery pipeline against the demo schema.");
                println!("--types additionally prints the inferred output typing;");
                println!("--validate runs the bounded equivalence validator (V");
                println!("findings are hard errors); --all is both.");
                println!("--format json emits NDJSON (one finding object per line).");
                return;
            }
            other if other.starts_with('-') => {
                eprintln!("analyze: unknown option `{other}`");
                std::process::exit(2);
            }
            file => files.push(file.to_string()),
        }
    }

    let mut input = String::new();
    if files.is_empty() {
        if let Err(e) = std::io::stdin().read_to_string(&mut input) {
            eprintln!("analyze: reading stdin: {e}");
            std::process::exit(2);
        }
    } else {
        for file in &files {
            match std::fs::read_to_string(file) {
                Ok(text) => {
                    input.push_str(&text);
                    input.push(';');
                }
                Err(e) => {
                    eprintln!("analyze: {file}: {e}");
                    std::process::exit(2);
                }
            }
        }
    }

    let stdout = std::io::stdout();
    match report(&mut stdout.lock(), &input, &flags) {
        Ok(dirty) => std::process::exit(if dirty { 1 } else { 0 }),
        // A reader that closed the pipe (`analyze … | head`) has all it
        // wants: stop quietly.
        Err(e) if e.kind() == ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => {
            eprintln!("analyze: writing stdout: {e}");
            std::process::exit(2);
        }
    }
}

/// What the flags ask [`report`] to show and check.
struct Flags {
    print_xquery: bool,
    print_types: bool,
    check_validate: bool,
    json: bool,
}

/// Analyzes every statement of `input`, writing the report to `out`.
/// `Ok(true)` when any statement failed or had findings.
fn report(out: &mut impl Write, input: &str, flags: &Flags) -> std::io::Result<bool> {
    let app = build_application();
    let metadata = CachedMetadataApi::new(InProcessMetadataApi::new(
        TableLocator::for_application(&app),
    ));
    let validate_options = ValidateOptions::default();
    let json = flags.json;

    let mut dirty = false;
    for sql in input.split(';').map(str::trim).filter(|s| !s.is_empty()) {
        if !json {
            writeln!(out, "-- {sql}")?;
        }
        for transport in [Transport::Xml, Transport::DelimitedText] {
            let result = analyze_sql_with(
                sql,
                &metadata,
                TranslationOptions::with_transport(transport),
                flags.check_validate.then_some(&validate_options),
            );
            match result {
                Ok(analysis) => {
                    let findings: Vec<_> = analysis.report.all().collect();
                    if !findings.is_empty() {
                        dirty = true;
                    }
                    if json {
                        for d in &findings {
                            writeln!(
                                out,
                                "{{\"sql\": \"{}\", \"transport\": \"{transport:?}\", \
                                 \"layer\": \"{}\", \"code\": \"{}\", \
                                 \"rule\": \"{}\", \"message\": \"{}\"}}",
                                json_escape(sql),
                                d.code.layer(),
                                d.code.as_str(),
                                json_escape(d.code.rule()),
                                json_escape(&d.message),
                            )?;
                        }
                        continue;
                    }
                    if findings.is_empty() {
                        writeln!(out, "   {transport:?}: clean")?;
                    } else {
                        writeln!(out, "   {transport:?}:")?;
                        for d in &findings {
                            writeln!(out, "     {d}")?;
                        }
                    }
                    if flags.print_types && transport == Transport::Xml {
                        for col in &analysis.typing {
                            writeln!(
                                out,
                                "   : {} {} {}",
                                col.label,
                                col.sql_type.map_or("<unknown>", |t| t.sql_name()),
                                if col.nullable { "NULL" } else { "NOT NULL" }
                            )?;
                        }
                    }
                    if flags.print_xquery && transport == Transport::Xml {
                        for line in analysis.xquery.lines() {
                            writeln!(out, "   | {line}")?;
                        }
                    }
                }
                Err(e) => {
                    dirty = true;
                    if json {
                        writeln!(
                            out,
                            "{{\"sql\": \"{}\", \"transport\": \"{transport:?}\", \
                             \"error\": \"{}\"}}",
                            json_escape(sql),
                            json_escape(&e.to_string()),
                        )?;
                    } else {
                        writeln!(out, "   {transport:?}: translation failed: {e}")?;
                    }
                }
            }
        }
    }
    out.flush()?;
    Ok(dirty)
}
