//! Analyzer integration tests.
//!
//! Positive direction: every paper golden example (Examples 1–12 shapes),
//! the Figure 3 views suite, and a fuzzed workload sample must produce
//! clean two-layer reports in both transports. Negative direction:
//! hand-built XQuery ASTs and prepared IR seeded with one defect each
//! must be reported with the exact stable diagnostic code. Finally, the
//! two per-query values every asker shares — `QueryFacts` (layers 1–3)
//! and `Witnesses` (layer 5's reference side) — are checked against the
//! piecewise layer functions and against a fresh run per text.

use aldsp::analyzer::{
    analyze_sql, check_metadata, check_prepared, check_translation, check_types, lint_program,
    DiagCode, ReportedColumn,
};
use aldsp::catalog::{
    ApplicationBuilder, CachedMetadataApi, ColumnMeta, InProcessMetadataApi, QualifiedTableName,
    SqlColumnType, TableEntry, TableLocator, TableSchema,
};
use aldsp::core::ir::{
    OutputColumn, PreparedBody, PreparedItem, PreparedQuery, PreparedSelect, Rsn, TExpr, TExprKind,
};
use aldsp::core::{stage3, TranslationOptions, Transport};
use aldsp::xquery::ast::{Clause, Expr, Flwor, Program};
use std::sync::Arc;

// ---- positive: golden examples lint clean ----------------------------

/// The paper's universe (same construction as the core golden tests).
fn paper_metadata() -> CachedMetadataApi<InProcessMetadataApi> {
    let app = ApplicationBuilder::new("TESTAPP")
        .project("TestDataServices")
        .data_service("CUSTOMERS")
        .physical_table("CUSTOMERS", |t| {
            t.column("CUSTOMERID", SqlColumnType::Integer, false)
                .column("CUSTOMERNAME", SqlColumnType::Varchar, true)
        })
        .finish_service()
        .data_service("PAYMENTS")
        .physical_table("PAYMENTS", |t| {
            t.column("CUSTID", SqlColumnType::Integer, false).column(
                "PAYMENT",
                SqlColumnType::Decimal,
                false,
            )
        })
        .finish_service()
        .data_service("ORDERS")
        .physical_table("ORDERS", |t| {
            t.column("ORDERID", SqlColumnType::Integer, false)
                .column("CUSTID", SqlColumnType::Integer, false)
                .column("AMOUNT", SqlColumnType::Decimal, true)
        })
        .finish_service()
        .data_service("PO_CUSTOMERS")
        .physical_table("PO_CUSTOMERS", |t| {
            t.column("ORDERID", SqlColumnType::Integer, false)
                .column("CUSTOMERID", SqlColumnType::Integer, false)
                .column("CUSTOMERNAME", SqlColumnType::Varchar, false)
        })
        .finish_service()
        .finish_project()
        .build();
    CachedMetadataApi::new(InProcessMetadataApi::new(TableLocator::for_application(
        &app,
    )))
}

/// Figure 3's A/B/C universe.
fn figure3_metadata() -> CachedMetadataApi<InProcessMetadataApi> {
    let mut builder = ApplicationBuilder::new("FIG3").project("P");
    for (table, key, value) in [("A", "C1", "VA"), ("B", "C1", "VB"), ("C", "C2", "VC")] {
        builder = builder
            .data_service(table)
            .physical_table(table, |t| {
                t.column(key, SqlColumnType::Integer, false).column(
                    value,
                    SqlColumnType::Varchar,
                    false,
                )
            })
            .finish_service();
    }
    let app = builder.finish_project().build();
    CachedMetadataApi::new(InProcessMetadataApi::new(TableLocator::for_application(
        &app,
    )))
}

fn assert_clean(metadata: &CachedMetadataApi<InProcessMetadataApi>, sql: &str) {
    for transport in [Transport::Xml, Transport::DelimitedText] {
        let analysis = analyze_sql(sql, metadata, TranslationOptions::with_transport(transport))
            .unwrap_or_else(|e| panic!("translation failed for `{sql}`: {e}"));
        assert!(
            analysis.report.is_clean(),
            "analyzer findings for `{sql}` ({transport:?}):\n{}\nquery:\n{}",
            analysis.report.render(),
            analysis.xquery
        );
    }
}

/// Paper Examples 2–12 (Example 1 is the schema itself), as exercised by
/// the golden suites.
const GOLDEN_EXAMPLES: &[&str] = &[
    "SELECT * FROM CUSTOMERS",
    "SELECT CUSTOMERID FROM CUSTOMERS WHERE CUSTOMERNAME = 'Sue'",
    "SELECT CUSTOMERID ID, CUSTOMERNAME NAME FROM CUSTOMERS",
    "SELECT INFO.ID, INFO.NAME FROM (SELECT CUSTOMERID ID, CUSTOMERNAME NAME \
     FROM CUSTOMERS) AS INFO WHERE INFO.ID > 10 ORDER BY INFO.ID",
    "SELECT CUSTOMERS.CUSTOMERID, PAYMENTS.PAYMENT FROM CUSTOMERS \
     LEFT OUTER JOIN PAYMENTS ON CUSTOMERS.CUSTOMERID=PAYMENTS.CUSTID \
     ORDER BY CUSTOMERS.CUSTOMERID, PAYMENTS.PAYMENT",
    "SELECT * FROM CUSTOMERS INNER JOIN PO_CUSTOMERS \
     ON CUSTOMERS.CUSTOMERID = PO_CUSTOMERS.CUSTOMERID",
    "SELECT PO_CUSTOMERS.CUSTOMERID, PO_CUSTOMERS.CUSTOMERNAME, \
     COUNT(PO_CUSTOMERS.ORDERID) \
     FROM CUSTOMERS INNER JOIN PO_CUSTOMERS \
     ON CUSTOMERS.CUSTOMERID = PO_CUSTOMERS.CUSTOMERID \
     GROUP BY PO_CUSTOMERS.CUSTOMERID, PO_CUSTOMERS.CUSTOMERNAME \
     ORDER BY PO_CUSTOMERS.CUSTOMERID",
    "SELECT DISTINCT CUSTID FROM PAYMENTS",
    "SELECT CUSTOMERID, CUSTOMERNAME FROM CUSTOMERS ORDER BY CUSTOMERID DESC",
    "SELECT CUSTID FROM PAYMENTS UNION SELECT CUSTID FROM ORDERS",
    "SELECT CUSTID FROM PAYMENTS EXCEPT ALL SELECT CUSTID FROM ORDERS",
    "SELECT CUSTOMERID FROM CUSTOMERS WHERE CUSTOMERID IN (SELECT CUSTID FROM PAYMENTS) \
     AND CUSTOMERID NOT IN (SELECT CUSTID FROM ORDERS)",
    "SELECT UPPER(CUSTOMERNAME) FROM CUSTOMERS WHERE CUSTOMERNAME LIKE 'S%'",
    "SELECT CUSTID, SUM(PAYMENT) FROM PAYMENTS GROUP BY CUSTID",
    "SELECT CUSTOMERID, CUSTOMERNAME NM, COUNT(*) FROM CUSTOMERS GROUP BY \
     CUSTOMERID, CUSTOMERNAME HAVING COUNT(*) >= 1",
    "SELECT CUSTOMERID FROM CUSTOMERS WHERE CUSTOMERID > ? AND CUSTOMERNAME = ?",
    "SELECT CUSTOMERID / 2 FROM CUSTOMERS",
    "SELECT CASE WHEN CUSTOMERID > 10 THEN 'big' ELSE 'small' END FROM CUSTOMERS",
    "SELECT COALESCE(CUSTOMERNAME, 'n/a') FROM CUSTOMERS",
    "SELECT AVG(AMOUNT) FROM ORDERS WHERE EXISTS \
     (SELECT ORDERID FROM ORDERS WHERE AMOUNT > 10)",
];

#[test]
fn golden_examples_lint_clean_in_both_transports() {
    let metadata = paper_metadata();
    for sql in GOLDEN_EXAMPLES {
        assert_clean(&metadata, sql);
    }
}

/// The Figure 3 views suite (same statements the execution tests run).
const FIGURE3_QUERIES: &[&str] = &[
    "SELECT * FROM (A JOIN (B JOIN C ON B.C1 = C.C2) AS P ON A.C1 = P.C1)",
    "SELECT X.C1 FROM (SELECT C1 FROM A WHERE C1 > 1) AS X UNION \
     SELECT Y.C1 FROM (SELECT C1 FROM B WHERE C1 < 4) AS Y",
    "SELECT J.VA FROM (SELECT A.VA VA, B.VB VB FROM A INNER JOIN B ON A.C1 = B.C1) AS J \
     UNION ALL \
     SELECT K.VC FROM (SELECT VC FROM C WHERE C2 <= 2) AS K",
    "SELECT A.C1, B.C1, C.C2 FROM A LEFT OUTER JOIN B ON A.C1 = B.C1 \
     LEFT OUTER JOIN C ON A.C1 = C.C2",
    "SELECT A.C1, D.C1 FROM A LEFT OUTER JOIN \
     (SELECT C1 FROM B WHERE C1 > 1) AS D ON A.C1 = D.C1",
    "SELECT A.C1, B.C1 FROM A FULL OUTER JOIN B ON A.C1 = B.C1",
    "SELECT * FROM A RIGHT OUTER JOIN B ON A.C1 = B.C1",
    "SELECT C1 FROM A INTERSECT SELECT C1 FROM B",
    "SELECT C1 FROM A EXCEPT SELECT Z.C1 FROM (SELECT C1 FROM B WHERE C1 <> 2) AS Z",
    "SELECT V.C1, V.C1 + 10 FROM (SELECT C1 FROM A UNION SELECT C1 FROM B) AS V \
     WHERE V.C1 < 4",
    "SELECT VA FROM A WHERE C1 IN (SELECT C1 FROM B UNION SELECT C2 FROM C)",
    "SELECT COUNT(*), MIN(V.C1), MAX(V.C1) FROM \
     (SELECT C1 FROM A UNION ALL SELECT C1 FROM B) AS V",
    "SELECT X.C1, Y.C1 FROM (SELECT C1 FROM A WHERE C1 > 1) AS X \
     INNER JOIN (SELECT C1 FROM B) AS Y ON X.C1 = Y.C1",
    "SELECT W.N FROM (SELECT V.M N FROM \
     (SELECT C1 M FROM A WHERE C1 >= 1) AS V WHERE V.M <= 3) AS W \
     WHERE W.N <> 2",
];

#[test]
fn figure3_views_suite_lints_clean() {
    let metadata = figure3_metadata();
    for sql in FIGURE3_QUERIES {
        assert_clean(&metadata, sql);
    }
}

/// ≥500 fuzzed queries per seed lint clean, without executing them (the
/// executing version runs in the chaos suite).
#[test]
fn fuzzed_workload_lints_clean_per_seed() {
    use aldsp::driver::{Connection, DspServer};
    use aldsp::workload::querygen::{ConstructClass, QueryGenerator};
    for seed in [11, 23] {
        let server = std::sync::Arc::new(DspServer::new(
            aldsp::workload::schema::build_application(),
            aldsp::relational::Database::new(),
        ));
        let conn = Connection::open(server);
        let mut generator = QueryGenerator::new(seed);
        let mut linted = 0usize;
        for class in ConstructClass::all() {
            for _ in 0..46 {
                let sql = generator.generate(*class);
                if let Some(reason) = aldsp::workload::differential::lint_query(&conn, &sql) {
                    panic!("seed {seed}: {reason}\nsql: {sql}");
                }
                linted += 1;
            }
        }
        assert!(linted >= 500, "only {linted} queries linted");
    }
}

// ---- negative: seeded defects get exact codes ------------------------

fn codes_of(program: &Program) -> Vec<DiagCode> {
    let mut codes: Vec<DiagCode> = lint_program(program).into_iter().map(|d| d.code).collect();
    codes.sort_unstable();
    codes.dedup();
    codes
}

fn flwor(clauses: Vec<Clause>, ret: Expr) -> Expr {
    Expr::Flwor(Flwor {
        clauses,
        ret: Box::new(ret),
    })
}

fn program(body: Expr) -> Program {
    Program {
        imports: vec![],
        body,
    }
}

#[test]
fn unbound_variable_is_a101() {
    let p = program(flwor(
        vec![Clause::For {
            var: "var1FR1".into(),
            source: Expr::call("fn:true", vec![]),
        }],
        Expr::var("var1FR2"), // never bound
    ));
    assert_eq!(codes_of(&p), vec![DiagCode::A101]);
}

#[test]
fn shadowed_binding_is_a102() {
    let p = program(flwor(
        vec![
            Clause::For {
                var: "var1FR1".into(),
                source: Expr::call("fn:true", vec![]),
            },
            Clause::For {
                var: "var1FR1".into(), // rebinds the same name
                source: Expr::var("var1FR1"),
            },
        ],
        Expr::var("var1FR1"),
    ));
    assert_eq!(codes_of(&p), vec![DiagCode::A102]);
}

#[test]
fn dead_let_is_a103() {
    let p = program(flwor(
        vec![Clause::Let {
            var: "var0GD1".into(), // bound, never referenced
            value: Expr::integer(1),
        }],
        Expr::integer(2),
    ));
    assert_eq!(codes_of(&p), vec![DiagCode::A103]);
}

#[test]
fn zone_violation_is_a104() {
    // FR is the for-clause zone; a let-bound FR variable is mis-zoned.
    let p = program(flwor(
        vec![Clause::Let {
            var: "var1FR1".into(),
            value: Expr::integer(1),
        }],
        Expr::var("var1FR1"),
    ));
    assert_eq!(codes_of(&p), vec![DiagCode::A104]);

    // A name outside the discipline entirely is also A104.
    let p = program(flwor(
        vec![Clause::For {
            var: "rogue".into(),
            source: Expr::call("fn:true", vec![]),
        }],
        Expr::var("rogue"),
    ));
    assert_eq!(codes_of(&p), vec![DiagCode::A104]);
}

#[test]
fn unmapped_function_is_a105_and_unknown_prefix_is_a106() {
    let p = program(Expr::call("fn:frobnicate", vec![Expr::integer(1)]));
    assert_eq!(codes_of(&p), vec![DiagCode::A105]);

    let p = program(Expr::call("ns3:CUSTOMERS", vec![]));
    assert_eq!(codes_of(&p), vec![DiagCode::A106]);
}

// ---- negative: IR defects --------------------------------------------

fn table_entry() -> Arc<TableEntry> {
    Arc::new(TableEntry {
        qualified: QualifiedTableName {
            catalog: "APP".into(),
            schema: "P.DS".into(),
            table: "T".into(),
        },
        ds_path: "P/DS".into(),
        schema: TableSchema {
            table_name: "T".into(),
            row_element: "T".into(),
            namespace: "ld:P/T".into(),
            schema_location: "ld:P/schemas/T.xsd".into(),
            columns: vec![
                ColumnMeta::new("A", SqlColumnType::Integer, false),
                ColumnMeta::new("B", SqlColumnType::Varchar, true),
            ],
        },
    })
}

fn column(range_var: &str, name: &str) -> TExpr {
    TExpr::new(
        TExprKind::Column {
            range_var: range_var.into(),
            column: name.into(),
        },
        Some(SqlColumnType::Integer),
        false,
    )
}

fn output(name: &str) -> OutputColumn {
    OutputColumn {
        name: name.into(),
        label: name.into(),
        sql_type: Some(SqlColumnType::Integer),
        nullable: false,
    }
}

fn select_of(ctx_id: u32, items: Vec<PreparedItem>, outputs: Vec<OutputColumn>) -> PreparedQuery {
    PreparedQuery {
        body: PreparedBody::Select(Box::new(PreparedSelect {
            ctx_id,
            distinct: false,
            items,
            from: vec![Rsn::Table {
                range_var: "T".into(),
                entry: table_entry(),
            }],
            where_clause: None,
            group_by: vec![],
            having: None,
            grouped: false,
            output: outputs.clone(),
        })),
        order_by: vec![],
        output: outputs,
    }
}

fn ir_codes(query: &PreparedQuery) -> Vec<DiagCode> {
    let mut codes: Vec<DiagCode> = check_prepared(query).into_iter().map(|d| d.code).collect();
    codes.sort_unstable();
    codes.dedup();
    codes
}

#[test]
fn unresolved_column_is_a003() {
    let q = select_of(
        1,
        vec![PreparedItem {
            expr: column("T", "NOPE"),
            output: 0,
        }],
        vec![output("NOPE")],
    );
    assert_eq!(ir_codes(&q), vec![DiagCode::A003]);
}

#[test]
fn reserved_context_zero_is_a001() {
    let q = select_of(
        0,
        vec![PreparedItem {
            expr: column("T", "A"),
            output: 0,
        }],
        vec![output("A")],
    );
    assert_eq!(ir_codes(&q), vec![DiagCode::A001]);
}

#[test]
fn generated_node_in_stage2_output_is_a008() {
    let q = select_of(
        1,
        vec![PreparedItem {
            expr: TExpr::new(
                TExprKind::Generated {
                    xquery: "fn:true()".into(),
                },
                None,
                false,
            ),
            output: 0,
        }],
        vec![output("X")],
    );
    assert_eq!(ir_codes(&q), vec![DiagCode::A008]);
}

#[test]
fn projection_output_mismatch_is_a005() {
    // Two items target the same output slot; slot 1 is never produced.
    let q = select_of(
        1,
        vec![
            PreparedItem {
                expr: column("T", "A"),
                output: 0,
            },
            PreparedItem {
                expr: column("T", "A"),
                output: 0,
            },
        ],
        vec![output("A"), output("A2")],
    );
    assert_eq!(ir_codes(&q), vec![DiagCode::A005]);
}

#[test]
fn order_by_out_of_range_is_a006() {
    let mut q = select_of(
        1,
        vec![PreparedItem {
            expr: column("T", "A"),
            output: 0,
        }],
        vec![output("A")],
    );
    q.order_by = vec![aldsp::core::ir::PreparedOrder {
        column: 3,
        ascending: true,
    }];
    assert_eq!(ir_codes(&q), vec![DiagCode::A006]);
}

// ---- layer 3: type-flow negatives (exact T codes) --------------------

use aldsp::core::ir::AggFunc;
use aldsp::sql::{CompareOp, JoinKind, Literal};

fn ty_codes(query: &PreparedQuery) -> Vec<DiagCode> {
    let mut codes: Vec<DiagCode> = check_types(query)
        .diagnostics
        .into_iter()
        .map(|d| d.code)
        .collect();
    codes.sort_unstable();
    codes.dedup();
    codes
}

/// A select over `T` with the given items/output and a free-form FROM.
fn select_from(
    from: Vec<Rsn>,
    items: Vec<PreparedItem>,
    outputs: Vec<OutputColumn>,
) -> PreparedQuery {
    PreparedQuery {
        body: PreparedBody::Select(Box::new(PreparedSelect {
            ctx_id: 1,
            distinct: false,
            items,
            from,
            where_clause: None,
            group_by: vec![],
            having: None,
            grouped: false,
            output: outputs.clone(),
        })),
        order_by: vec![],
        output: outputs,
    }
}

fn t_table(range_var: &str) -> Rsn {
    Rsn::Table {
        range_var: range_var.into(),
        entry: table_entry(),
    }
}

/// `T.B` — the Varchar NULL column, correctly annotated.
fn varchar_column(range_var: &str) -> TExpr {
    TExpr::new(
        TExprKind::Column {
            range_var: range_var.into(),
            column: "B".into(),
        },
        Some(SqlColumnType::Varchar),
        true,
    )
}

#[test]
fn lost_outer_join_nullability_is_t001() {
    // R.A sits on the NULL-padded side of a LEFT OUTER JOIN; the
    // annotation claims NOT NULL as if the padding never happened.
    let q = select_from(
        vec![Rsn::Join {
            kind: JoinKind::LeftOuter,
            left: Box::new(t_table("L")),
            right: Box::new(t_table("R")),
            on: None,
        }],
        vec![PreparedItem {
            expr: column("R", "A"), // annotated (Integer, NOT NULL)
            output: 0,
        }],
        vec![OutputColumn {
            name: "A".into(),
            label: "A".into(),
            sql_type: Some(SqlColumnType::Integer),
            nullable: true,
        }],
    );
    assert_eq!(ty_codes(&q), vec![DiagCode::T001]);
}

#[test]
fn numeric_string_comparison_is_t002() {
    // WHERE T.A = 'x' — INTEGER against VARCHAR has no common
    // comparability class.
    let mut q = select_from(
        vec![t_table("T")],
        vec![PreparedItem {
            expr: column("T", "A"),
            output: 0,
        }],
        vec![output("A")],
    );
    if let PreparedBody::Select(s) = &mut q.body {
        s.where_clause = Some(TExpr::new(
            TExprKind::Compare {
                op: CompareOp::Eq,
                left: Box::new(column("T", "A")),
                right: Box::new(TExpr::new(
                    TExprKind::Literal(Literal::String("x".into())),
                    Some(SqlColumnType::Varchar),
                    false,
                )),
            },
            Some(SqlColumnType::Boolean),
            false,
        ));
    }
    assert_eq!(ty_codes(&q), vec![DiagCode::T002]);
}

#[test]
fn aggregate_over_incomparable_type_is_t002() {
    // SUM over a VARCHAR column.
    let q = select_from(
        vec![t_table("T")],
        vec![PreparedItem {
            expr: TExpr::new(
                TExprKind::Aggregate {
                    func: AggFunc::Sum,
                    distinct: false,
                    arg: Some(Box::new(varchar_column("T"))),
                },
                Some(SqlColumnType::Varchar),
                true,
            ),
            output: 0,
        }],
        vec![OutputColumn {
            name: "S".into(),
            label: "S".into(),
            sql_type: Some(SqlColumnType::Varchar),
            nullable: true,
        }],
    );
    assert_eq!(ty_codes(&q), vec![DiagCode::T002]);
}

#[test]
fn arithmetic_over_non_numeric_is_t002() {
    // T.B + 1 with B VARCHAR.
    let q = select_from(
        vec![t_table("T")],
        vec![PreparedItem {
            expr: TExpr::new(
                TExprKind::Arith {
                    op: aldsp::core::ir::ArithOp::Add,
                    left: Box::new(varchar_column("T")),
                    right: Box::new(TExpr::new(
                        TExprKind::Literal(Literal::Integer(1)),
                        Some(SqlColumnType::Integer),
                        false,
                    )),
                },
                None,
                true,
            ),
            output: 0,
        }],
        vec![OutputColumn {
            name: "X".into(),
            label: "X".into(),
            sql_type: None,
            nullable: true,
        }],
    );
    assert_eq!(ty_codes(&q), vec![DiagCode::T002]);
}

#[test]
fn output_column_type_mismatch_is_t003() {
    // The item is a correctly-annotated INTEGER column, the declared
    // output column claims VARCHAR.
    let q = select_from(
        vec![t_table("T")],
        vec![PreparedItem {
            expr: column("T", "A"),
            output: 0,
        }],
        vec![OutputColumn {
            name: "A".into(),
            label: "A".into(),
            sql_type: Some(SqlColumnType::Varchar),
            nullable: false,
        }],
    );
    assert_eq!(ty_codes(&q), vec![DiagCode::T003]);
}

// ---- layer 3: translation-diff negatives (T004-T007) -----------------

/// A clean one-column query (`SELECT A FROM T`) whose inferred typing is
/// `[A INTEGER NOT NULL]` — the SQL side for the hand-built XQuery diffs.
fn one_column_query() -> PreparedQuery {
    select_from(
        vec![t_table("T")],
        vec![PreparedItem {
            expr: column("T", "A"),
            output: 0,
        }],
        vec![output("A")],
    )
}

fn diff_codes(prepared: &PreparedQuery, xquery: &str) -> Vec<DiagCode> {
    let flow = check_types(prepared);
    assert!(flow.diagnostics.is_empty(), "SQL side must be clean");
    let program = aldsp::xquery::parse_program(xquery).expect("hand-built XQuery must parse");
    let mut codes: Vec<DiagCode> = check_translation(prepared, &program, &flow.columns)
        .into_iter()
        .map(|d| d.code)
        .collect();
    codes.sort_unstable();
    codes.dedup();
    codes
}

const T_IMPORT: &str = "import schema namespace ns0 = \"ld:P/T\" at \"ld:P/schemas/T.xsd\";\n";

#[test]
fn record_shape_mismatch_is_t004() {
    // The generated RECORD carries a column named B where SQL says A.
    let xq = format!(
        "{T_IMPORT}<RECORDSET>{{\nfor $var1FR0 in ns0:T()\nreturn\n\
         <RECORD><B>{{fn:data($var1FR0/A)}}</B></RECORD>\n}}</RECORDSET>"
    );
    assert_eq!(diff_codes(&one_column_query(), &xq), vec![DiagCode::T004]);
}

#[test]
fn type_lost_in_translation_is_t005() {
    // The element is constructed from the VARCHAR column B but named A:
    // same shape, wrong value type.
    let xq = format!(
        "{T_IMPORT}<RECORDSET>{{\nfor $var1FR0 in ns0:T()\nreturn\n\
         <RECORD><A>{{fn:string(fn:data($var1FR0/A))}}</A></RECORD>\n}}</RECORDSET>"
    );
    assert_eq!(diff_codes(&one_column_query(), &xq), vec![DiagCode::T005]);
}

#[test]
fn nullability_lost_in_translation_is_t006() {
    // B is nullable, but the element is constructed unconditionally: a
    // NULL row would serialize as an empty string, not an absent element.
    let prepared = select_from(
        vec![t_table("T")],
        vec![PreparedItem {
            expr: varchar_column("T"),
            output: 0,
        }],
        vec![OutputColumn {
            name: "B".into(),
            label: "B".into(),
            sql_type: Some(SqlColumnType::Varchar),
            nullable: true,
        }],
    );
    let xq = format!(
        "{T_IMPORT}<RECORDSET>{{\nfor $var1FR0 in ns0:T()\nreturn\n\
         <RECORD><B>{{fn:data($var1FR0/B)}}</B></RECORD>\n}}</RECORDSET>"
    );
    assert_eq!(diff_codes(&prepared, &xq), vec![DiagCode::T006]);

    // The converse corruption: a NOT NULL column constructed behind a
    // conditional, so the element may be absent where NULL is forbidden.
    let xq = format!(
        "{T_IMPORT}<RECORDSET>{{\nfor $var1FR0 in ns0:T()\nreturn\n\
         <RECORD>{{ for $var1SL0 in fn:data($var1FR0/B) return <A>{{$var1SL0}}</A> }}</RECORD>\n\
         }}</RECORDSET>"
    );
    assert_eq!(
        diff_codes(&one_column_query(), &xq),
        // The element may be absent for a NOT NULL column (T006) and its
        // value type is VARCHAR where INTEGER is declared (T005).
        vec![DiagCode::T005, DiagCode::T006]
    );
}

#[test]
fn cardinality_violation_is_t007() {
    // The column element sits under an inner `for`, so one RECORD can
    // carry many A elements.
    let xq = format!(
        "{T_IMPORT}<RECORDSET>{{\nfor $var1FR0 in ns0:T()\nreturn\n\
         <RECORD>{{ for $var1SL0 in ns0:T() return <A>{{fn:data($var1SL0/A)}}</A> }}</RECORD>\n\
         }}</RECORDSET>"
    );
    assert_eq!(diff_codes(&one_column_query(), &xq), vec![DiagCode::T007]);
}

// ---- layer 3: metadata cross-check (T008) ----------------------------

#[test]
fn metadata_mismatch_is_t008() {
    let flow = check_types(&one_column_query());
    // Wrong type name.
    let codes: Vec<DiagCode> = check_metadata(
        &flow.columns,
        &[ReportedColumn {
            label: "A".into(),
            type_name: "VARCHAR".into(),
            nullable: false,
        }],
    )
    .into_iter()
    .map(|d| d.code)
    .collect();
    assert_eq!(codes, vec![DiagCode::T008]);

    // Wrong nullability.
    let codes: Vec<DiagCode> = check_metadata(
        &flow.columns,
        &[ReportedColumn {
            label: "A".into(),
            type_name: "INTEGER".into(),
            nullable: true,
        }],
    )
    .into_iter()
    .map(|d| d.code)
    .collect();
    assert_eq!(codes, vec![DiagCode::T008]);

    // Column-count mismatch.
    let codes: Vec<DiagCode> = check_metadata(&flow.columns, &[])
        .into_iter()
        .map(|d| d.code)
        .collect();
    assert_eq!(codes, vec![DiagCode::T008]);

    // The matching surface is clean.
    assert!(check_metadata(
        &flow.columns,
        &[ReportedColumn {
            label: "A".into(),
            type_name: "INTEGER".into(),
            nullable: false,
        }],
    )
    .is_empty());
}

/// The driver's actual `ResultSetMetaData` surface agrees with the
/// analyzer's independently inferred typing for every golden example —
/// type names and nullability byte-for-byte.
#[test]
fn golden_result_set_metadata_matches_inferred_typing() {
    use aldsp::driver::{Connection, DspServer};
    let server = std::sync::Arc::new(DspServer::new(
        aldsp::workload::schema::build_application(),
        aldsp::relational::Database::new(),
    ));
    let conn = Connection::open(server);
    let statement = conn.create_statement();
    let metadata = CachedMetadataApi::new(InProcessMetadataApi::new(
        TableLocator::for_application(&aldsp::workload::schema::build_application()),
    ));
    let mut checked = 0usize;
    for sql in &aldsp::workload::golden_statements() {
        let analysis = analyze_sql(sql, &metadata, TranslationOptions::default())
            .unwrap_or_else(|e| panic!("golden `{sql}` failed: {e}"));
        let translation = statement
            .explain(sql)
            .unwrap_or_else(|e| panic!("explain `{sql}` failed: {e}"));
        // What the driver's ResultSetMetaData reports, spelled exactly as
        // crates/driver/src/resultset.rs reports it.
        let reported: Vec<ReportedColumn> = translation
            .columns
            .iter()
            .map(|c| ReportedColumn {
                label: c.label.clone(),
                type_name: c.sql_type.map_or("VARCHAR", |t| t.sql_name()).to_string(),
                nullable: c.nullable,
            })
            .collect();
        let diags = check_metadata(&analysis.typing, &reported);
        assert!(
            diags.is_empty(),
            "metadata disagreement for `{sql}`:\n{}",
            diags
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
        checked += 1;
    }
    assert!(checked >= 20, "only {checked} golden statements checked");
}

/// Non-vacuity: the golden examples produce fully-inferred typings (no
/// column degrades to unknown), so the clean type-diff above is not
/// trivially clean.
#[test]
fn golden_examples_infer_complete_typings() {
    let metadata = paper_metadata();
    for sql in GOLDEN_EXAMPLES {
        let analysis = analyze_sql(sql, &metadata, TranslationOptions::default())
            .unwrap_or_else(|e| panic!("`{sql}` failed: {e}"));
        assert!(!analysis.typing.is_empty(), "no typing for `{sql}`");
        for col in &analysis.typing {
            assert!(
                col.sql_type.is_some(),
                "column {} of `{sql}` has unknown type",
                col.label
            );
        }
    }
}

/// ≥500 fuzzed queries per seed type-check clean (all T codes), in both
/// transports, with the inferred typing present for every query.
#[test]
fn fuzzed_workload_type_checks_clean_per_seed() {
    use aldsp::workload::querygen::{ConstructClass, QueryGenerator};
    let app = aldsp::workload::schema::build_application();
    let metadata = CachedMetadataApi::new(InProcessMetadataApi::new(
        TableLocator::for_application(&app),
    ));
    for seed in [11u64, 23] {
        let mut generator = QueryGenerator::new(seed);
        let mut checked = 0usize;
        for class in ConstructClass::all() {
            for _ in 0..46 {
                let sql = generator.generate(*class);
                for transport in [Transport::Xml, Transport::DelimitedText] {
                    let analysis = analyze_sql(
                        &sql,
                        &metadata,
                        TranslationOptions::with_transport(transport),
                    )
                    .unwrap_or_else(|e| panic!("seed {seed}: `{sql}` failed: {e}"));
                    assert!(
                        analysis.report.types.is_empty(),
                        "seed {seed}: type findings for `{sql}`:\n{}",
                        analysis.report.render()
                    );
                    assert!(
                        !analysis.typing.is_empty(),
                        "seed {seed}: no typing for `{sql}`"
                    );
                }
                checked += 1;
            }
        }
        assert!(checked >= 500, "only {checked} queries type-checked");
    }
}

// ---- layer 5: bounded equivalence validation -------------------------
//
// Negative direction: the generated text of a correct translation is
// corrupted surgically (the corruption pattern is asserted present
// first, so a change in stage-3 output shape fails loudly instead of
// silently validating the uncorrupted text), and the validator must
// refute it with the exact V code. Positive direction: every golden
// statement validates equivalent in both transports under the default
// witness budget, and a fuzzed workload sample per seed validates clean
// under the quick budget.

use aldsp::analyzer::{analyze_sql_with, validate_translation, ValidateOptions};
use aldsp::core::{stage1, stage2, wrapper};

fn demo_metadata() -> CachedMetadataApi<InProcessMetadataApi> {
    CachedMetadataApi::new(InProcessMetadataApi::new(TableLocator::for_application(
        &aldsp::workload::schema::build_application(),
    )))
}

/// Stages 1–3 over the demo schema: the prepared query and its final
/// text in the XML and in the delimited-text transport.
fn translate_both(
    metadata: &CachedMetadataApi<InProcessMetadataApi>,
    sql: &str,
) -> (PreparedQuery, String, String) {
    let parsed = stage1::parse(sql).unwrap_or_else(|e| panic!("`{sql}`: {e}"));
    let prepared = stage2::prepare(&parsed, metadata).unwrap_or_else(|e| panic!("`{sql}`: {e}"));
    let generated = stage3::generate(&prepared).unwrap_or_else(|e| panic!("`{sql}`: {e}"));
    let xml = generated.clone().into_query_text();
    let delimited = wrapper::wrap_delimited(generated, &prepared);
    (prepared, xml, delimited)
}

/// Translates `sql` against the demo schema, replaces `pattern` with
/// `replacement` in the generated (unwrapped) text, and returns the
/// validator's finding codes for the corrupted translation.
fn corrupted_codes(sql: &str, pattern: &str, replacement: &str) -> Vec<String> {
    let (prepared, xml, _) = translate_both(&demo_metadata(), sql);
    assert!(
        xml.contains(pattern),
        "corruption pattern `{pattern}` not found in generated text:\n{xml}"
    );
    let mutated = xml.replace(pattern, replacement);
    assert_ne!(xml, mutated, "corruption must change the text");
    let outcome = validate_translation(&prepared, &mutated, &ValidateOptions::default());
    outcome
        .diagnostics
        .iter()
        .map(|d| d.code.as_str().to_string())
        .collect()
}

#[test]
fn boundary_constant_corruption_is_v001() {
    let codes = corrupted_codes(
        "SELECT CUSTOMERID FROM CUSTOMERS WHERE CUSTOMERID > 0",
        "CUSTOMERID>xs:integer(0)",
        "CUSTOMERID>=xs:integer(0)",
    );
    assert_eq!(codes, ["V001"]);
}

#[test]
fn dropped_distinct_wrapper_is_v002() {
    let codes = corrupted_codes(
        "SELECT DISTINCT REGION FROM CUSTOMERS",
        "fn-bea:distinct-records($tempvar1DT0/RECORD)",
        "$tempvar1DT0/RECORD",
    );
    assert_eq!(codes, ["V002"]);
}

#[test]
fn unguarded_nullable_projection_is_v003() {
    // The guarded loop omits the element for NULL; the corrupted text
    // always emits it, so the two sides diverge exactly on NULL rows
    // (an empty element decodes as '', not NULL).
    let codes = corrupted_codes(
        "SELECT CUSTOMERNAME FROM CUSTOMERS",
        "{ for $var1SL0 in fn:data($var1FR0/CUSTOMERNAME) \
         return <CUSTOMERS.CUSTOMERNAME>{$var1SL0}</CUSTOMERS.CUSTOMERNAME> }",
        "<CUSTOMERS.CUSTOMERNAME>{fn:data($var1FR0/CUSTOMERNAME)}</CUSTOMERS.CUSTOMERNAME>",
    );
    assert_eq!(codes, ["V003"]);
}

#[test]
fn flipped_order_direction_is_v004() {
    let codes = corrupted_codes(
        "SELECT CUSTOMERID FROM CUSTOMERS ORDER BY CUSTOMERID DESC",
        " descending",
        "",
    );
    assert_eq!(codes, ["V004"]);
}

#[test]
fn perturbed_projection_constant_is_v005() {
    let codes = corrupted_codes("SELECT CUSTOMERID + 1 AS X FROM CUSTOMERS", "+ 1)", "+ 2)");
    assert_eq!(codes, ["V005"]);
}

#[test]
fn rejected_evaluation_is_v006() {
    // A source-function call with an argument is rejected by the
    // evaluator while the reference interpreter executes the IR fine.
    let codes = corrupted_codes(
        "SELECT CUSTOMERID FROM CUSTOMERS",
        "ns0:CUSTOMERS()",
        "ns0:CUSTOMERS(1)",
    );
    assert_eq!(codes, ["V006"]);
}

#[test]
fn golden_statements_validate_equivalent_in_both_transports() {
    let metadata = demo_metadata();
    let validate_options = ValidateOptions::default();
    let mut checked = 0usize;
    for sql in &aldsp::workload::golden_statements() {
        for transport in [Transport::Xml, Transport::DelimitedText] {
            let analysis = analyze_sql_with(
                sql,
                &metadata,
                TranslationOptions::with_transport(transport),
                Some(&validate_options),
            )
            .unwrap_or_else(|e| panic!("golden `{sql}` failed: {e}"));
            assert!(
                analysis.report.validation.is_empty(),
                "golden `{sql}` ({transport:?}) failed validation: {:?}",
                analysis.report.validation
            );
            assert!(analysis.report.is_clean(), "golden `{sql}` not clean");
        }
        checked += 1;
    }
    assert!(checked >= 20, "only {checked} golden statements validated");
}

#[test]
fn fuzzed_workload_validates_clean_per_seed() {
    use aldsp::workload::querygen::{ConstructClass, QueryGenerator};
    let metadata = demo_metadata();
    let quick = ValidateOptions::quick();
    for seed in [11u64, 23] {
        let mut generator = QueryGenerator::new(seed);
        let mut checked = 0usize;
        for class in ConstructClass::all() {
            for _ in 0..46 {
                let sql = generator.generate(*class);
                let (prepared, xml, delimited) = translate_both(&metadata, &sql);
                for text in [&xml, &delimited] {
                    let outcome = validate_translation(&prepared, text, &quick);
                    assert!(
                        outcome.diagnostics.is_empty(),
                        "seed {seed}: `{sql}` failed validation: {:?}",
                        outcome.diagnostics
                    );
                }
                checked += 1;
            }
        }
        assert!(checked >= 500, "only {checked} fuzzed queries validated");
    }
}

// ---- one verdict per translation: the two per-query values -----------
//
// `QueryFacts` and `Witnesses` are built once per prepared query and
// judge any number of programs against it. Sharing must be unobservable:
// the same findings as the piecewise layer functions composed by hand
// (which is how `analyze_translation_with` was written before it parsed
// once), the same outcome as a fresh validation of each text.

use aldsp::analyzer::{analyze_translation_with, lint_text, Witnesses};
use aldsp::workload::{fuzzed_corpus, golden_statements, mutants_for, paper_corpus};
use aldsp::xquery::parse_program;

/// Paper + golden (parameterized statements included) +
/// `fuzzed_corpus(3, 10)`: the prepared query with its final text in the
/// XML and the delimited-text transport.
fn verdict_corpus() -> Vec<(String, PreparedQuery, String, String)> {
    let metadata = demo_metadata();
    let mut statements = paper_corpus();
    statements.extend(
        golden_statements()
            .into_iter()
            .enumerate()
            .map(|(i, sql)| (format!("golden:{}", i + 1), sql)),
    );
    statements.extend(fuzzed_corpus(3, 10));
    statements
        .into_iter()
        .map(|(origin, sql)| {
            let (prepared, xml, delimited) = translate_both(&metadata, &sql);
            (format!("{origin} `{sql}`"), prepared, xml, delimited)
        })
        .collect()
}

#[test]
fn shared_reference_side_agrees_with_a_fresh_validation() {
    let corpus = verdict_corpus();
    let (mut clean, mut refuted) = (0usize, 0usize);
    for options in [ValidateOptions::quick(), ValidateOptions::default()] {
        for (origin, prepared, xml, _) in &corpus {
            let shared = Witnesses::of(prepared, &options);
            let mutants = mutants_for(xml);
            for text in std::iter::once(xml).chain(mutants.iter().map(|m| &m.xquery)) {
                let fresh = validate_translation(prepared, text, &options);
                let program = parse_program(text)
                    .unwrap_or_else(|e| panic!("{origin}: mutants are unparsed programs: {e}"));
                let outcome = shared.check(&program);
                let first = |o: &aldsp::analyzer::ValidationOutcome| {
                    o.diagnostics.first().map(|d| (d.code, d.message.clone()))
                };
                assert_eq!(first(&outcome), first(&fresh), "{origin}:\n{text}");
                assert_eq!(
                    (outcome.databases_enumerated, outcome.witnesses_checked),
                    (fresh.databases_enumerated, fresh.witnesses_checked),
                    "{origin}:\n{text}"
                );
                match outcome.diagnostics.is_empty() {
                    true => clean += 1,
                    false => refuted += 1,
                }
            }
        }
    }
    assert!(
        clean >= 2 * corpus.len() && refuted >= 100,
        "{clean} agreeing, {refuted} refuted checks"
    );
}

/// Layers 1–3 composed by hand from the piecewise functions, each given
/// the text or a parse of its own.
fn piecewise_report(prepared: &PreparedQuery, text: &str) -> String {
    let flow = check_types(prepared);
    let program = parse_program(text).ok();
    let diff = program
        .iter()
        .flat_map(|program| check_translation(prepared, program, &flow.columns));
    let findings: Vec<String> = check_prepared(prepared)
        .into_iter()
        .chain(lint_text(text))
        .chain(flow.diagnostics.iter().cloned())
        .chain(diff)
        .map(|d| d.to_string())
        .collect();
    findings.join("\n")
}

#[test]
fn one_parse_returns_the_piecewise_report() {
    let (mut texts, mut dirty) = (0usize, 0usize);
    for (origin, prepared, xml, delimited) in &verdict_corpus() {
        let mutants = mutants_for(xml);
        for text in [xml, delimited]
            .into_iter()
            .chain(mutants.iter().map(|m| &m.xquery))
        {
            let (report, _) = analyze_translation_with(prepared, text);
            assert_eq!(
                report.render(),
                piecewise_report(prepared, text),
                "{origin}:\n{text}"
            );
            assert!(report.validation.is_empty());
            texts += 1;
            dirty += usize::from(!report.is_clean());
        }
        // Text that is not a program: `A100` once, no translation diff.
        let broken = format!("{xml} (");
        let (report, typing) = analyze_translation_with(prepared, &broken);
        assert_eq!(
            report.render(),
            piecewise_report(prepared, &broken),
            "{origin}: unparsable text"
        );
        let codes: Vec<DiagCode> = report.xquery.iter().map(|d| d.code).collect();
        assert_eq!(codes, [DiagCode::A100], "{origin}");
        assert!(report.types.iter().all(|d| !matches!(
            d.code,
            DiagCode::T004 | DiagCode::T005 | DiagCode::T006 | DiagCode::T007
        )));
        assert_eq!(typing.len(), prepared.output.len());
    }
    assert!(
        texts >= 500 && dirty >= 50,
        "{texts} texts, {dirty} with findings"
    );
}

/// A reader that stops early (`analyze … | head -5`) ends the report: the
/// binary exits 0 without a word on stderr instead of panicking on the
/// closed pipe.
#[test]
fn analyze_stops_quietly_when_its_reader_closes_the_pipe() {
    use std::io::{BufRead, BufReader, Read, Write};
    use std::process::{Command, Stdio};
    let mut child = Command::new(env!("CARGO_BIN_EXE_analyze"))
        .args(["--print-xquery", "--types"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let statements: String = (0..300)
        .map(|i| format!("SELECT CUSTOMERID FROM CUSTOMERS WHERE CUSTOMERID = {i};\n"))
        .collect();
    let mut stdin = child.stdin.take().unwrap();
    stdin.write_all(statements.as_bytes()).unwrap();
    drop(stdin);
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    for _ in 0..5 {
        let mut line = String::new();
        assert!(stdout.read_line(&mut line).unwrap() > 0);
    }
    drop(stdout);
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut stderr)
        .unwrap();
    let status = child.wait().unwrap();
    assert_eq!(status.code(), Some(0), "stderr: {stderr}");
    assert_eq!(stderr, "");
}
