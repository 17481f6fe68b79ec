//! Evaluator-level join microbenchmark: the nested-loop interpreter vs
//! the streaming hash-join engine on the same two-table FLWOR, isolated
//! from translation, transport, and result decoding.
//!
//! Each side holds `n` flat rows with a dense integer key (every probe
//! row matches exactly one build row), so the interpreter enumerates
//! `n * n` tuple pairs while the streaming engine does one `O(n)` build
//! and `n` `O(1)` probes. The gap is the engine's whole value
//! proposition; E13 measures the same effect end-to-end.

use aldsp_xml::flat::{build_row, RowSchema};
use aldsp_xml::qname::QName;
use aldsp_xml::sequence::{Item, Sequence};
use aldsp_xquery::eval::{evaluate_program_exec, FunctionSource, XqError};
use aldsp_xquery::{parse_program, ExecStrategy};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// Two pre-built flat tables; cloning a `Sequence` is per-row `Arc`
/// bumps, so each call hands out the same rows.
struct TwoTables {
    left: Sequence,
    right: Sequence,
}

impl TwoTables {
    fn of(n: usize) -> TwoTables {
        let table = |name: &str, key: &str, val: &str| -> Sequence {
            let schema = RowSchema::new(QName::prefixed("ns0", name), [key, val]);
            (0..n)
                .map(|i| {
                    Item::from(build_row(
                        &schema,
                        [Some(i.to_string()), Some(format!("{name}-{i}"))],
                    ))
                })
                .collect()
        };
        TwoTables {
            left: table("L", "ID", "LNAME"),
            right: table("R", "LID", "RNAME"),
        }
    }
}

impl FunctionSource for TwoTables {
    fn call(
        &self,
        namespace: Option<&str>,
        local: &str,
        _args: &[Sequence],
    ) -> Result<Sequence, XqError> {
        match local {
            "L" => Ok(self.left.clone()),
            "R" => Ok(self.right.clone()),
            other => Err(XqError::new(format!(
                "unknown function {}:{other}",
                namespace.unwrap_or("?")
            ))),
        }
    }
}

const JOIN: &str = "import schema namespace ns0 = \"ld:T/L\" at \"ld:T/schemas/L.xsd\";\n\
    <RESULTS>{\n\
    for $l in ns0:L()\n\
    for $r in ns0:R()\n\
    where $l/ID = $r/LID\n\
    return <ROW>{$l/LNAME}{$r/RNAME}</ROW>\n\
    }</RESULTS>";

fn evaluator_join(c: &mut Criterion) {
    let program = parse_program(JOIN).unwrap();
    let mut group = c.benchmark_group("evaluator_join");
    group.sample_size(10);
    for &n in &[10usize, 100, 1_000] {
        let tables = TwoTables::of(n);
        for (label, strategy) in [
            ("nested_loop", ExecStrategy::NestedLoop),
            ("hash_join", ExecStrategy::HashJoin),
        ] {
            group.bench_with_input(BenchmarkId::new(label, n), &strategy, |b, &strategy| {
                b.iter(|| evaluate_program_exec(&program, &tables, &[], None, strategy).unwrap())
            });
        }
    }
    group.finish();
}

criterion_group!(benches, evaluator_join);
criterion_main!(benches);
