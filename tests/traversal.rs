//! The two child enumerations of each tree agree, on real trees.
//!
//! `aldsp_xquery::visit` and `aldsp_core::ir` each hold one shared and one
//! mutable enumeration of "the children of this node", plus the deep
//! walks every analysis and rewrite is written against (DESIGN §19). A
//! variant added to one match and forgotten in the other, or a site the
//! IR deep walk skips, fails here — on the paper, golden and fuzzed
//! corpus in both transports — rather than in an analysis that silently
//! misses a node.

use aldsp::catalog::{CachedMetadataApi, InProcessMetadataApi, TableLocator};
use aldsp::core::ir::{IrNode, PreparedQuery, TExpr, TExprKind};
use aldsp::core::{sql_param_name, TranslationOptions, Translator, Transport};
use aldsp::workload::{build_application, fuzzed_corpus, golden_statements, paper_corpus};
use aldsp::xquery::ast::{Expr, Program};
use aldsp::xquery::visit::{each_expr_mut, free_vars, walk_expr, walk_expr_mut, Visitor};
use aldsp::xquery::{parse_program, unparse_program};
use std::collections::{BTreeSet, HashSet};
use std::sync::OnceLock;

/// One translated statement: the IR, the parsed program, and how many `?`
/// markers it takes.
struct Case {
    origin: String,
    prepared: PreparedQuery,
    program: Program,
    parameter_count: usize,
}

/// Paper + golden (parameterized statements included) + `fuzzed_corpus(3,
/// FUZZED_PER_CLASS)`, × both transports, each program once; translated
/// once for the whole test binary.
fn corpus() -> &'static [Case] {
    static CORPUS: OnceLock<Vec<Case>> = OnceLock::new();
    CORPUS.get_or_init(translate_corpus)
}

/// Fuzzed statements per construct class: enough that the bars below
/// hold over distinct programs.
const FUZZED_PER_CLASS: usize = 25;

fn translate_corpus() -> Vec<Case> {
    let app = build_application();
    let translator = Translator::new(CachedMetadataApi::new(InProcessMetadataApi::new(
        TableLocator::for_application(&app),
    )));
    let mut statements = paper_corpus();
    statements.extend(
        golden_statements()
            .into_iter()
            .enumerate()
            .map(|(i, sql)| (format!("golden:{}", i + 1), sql)),
    );
    statements.extend(fuzzed_corpus(3, FUZZED_PER_CLASS));
    let mut seen = HashSet::new();
    let mut cases = Vec::new();
    for (origin, sql) in &statements {
        for transport in [Transport::DelimitedText, Transport::Xml] {
            let full = translator
                .translate_full(sql, TranslationOptions::with_transport(transport))
                .unwrap_or_else(|e| panic!("{origin}: `{sql}`: {e}"));
            if !seen.insert(full.translation.xquery.clone()) {
                continue;
            }
            cases.push(Case {
                origin: format!("{origin} {transport:?}"),
                program: parse_program(&full.translation.xquery)
                    .unwrap_or_else(|e| panic!("{origin}: generated text parses: {e}")),
                prepared: full.prepared,
                parameter_count: full.translation.parameter_count,
            });
        }
    }
    assert!(cases.len() >= 500, "only {} programs", cases.len());
    cases
}

/// The direct children the shared enumeration yields, by address.
struct Children(Vec<*const Expr>);

impl Visitor<'_> for Children {
    fn visit_expr(&mut self, expr: &Expr) {
        self.0.push(expr);
    }
}

/// Checks `node` and everything below it; returns the nodes seen.
fn check_xquery_node(node: &mut Expr, origin: &str) -> usize {
    let mut shared = Children(Vec::new());
    walk_expr(&mut shared, node);
    let mut mutable: Vec<*const Expr> = Vec::new();
    walk_expr_mut(node, &mut |child| mutable.push(child));
    assert_eq!(
        shared.0, mutable,
        "{origin}: walk_expr and walk_expr_mut disagree on the children of {node:?}"
    );
    let mut seen = 1;
    walk_expr_mut(node, &mut |child| seen += check_xquery_node(child, origin));
    seen
}

#[test]
fn xquery_enumerations_agree_on_every_node() {
    let mut nodes = 0usize;
    for case in corpus() {
        let mut program = case.program.clone();
        nodes += check_xquery_node(&mut program.body, &case.origin);
        each_expr_mut(&mut program.body, &mut |_| {});
        assert_eq!(
            unparse_program(&program),
            unparse_program(&case.program),
            "{}: a no-op post-order walk changed the program",
            case.origin
        );
    }
    assert!(nodes > 20_000, "only {nodes} expression nodes checked");
}

fn noop_post_order(expr: &mut TExpr) {
    let walked: Result<(), ()> = expr.try_visit_children_mut(&mut |child| {
        noop_post_order(child);
        Ok(())
    });
    walked.expect("the no-op never fails");
}

#[test]
fn ir_enumerations_agree_and_the_deep_walk_reaches_every_column() {
    let (mut nodes, mut columns) = (0usize, 0usize);
    for case in corpus() {
        let mut walked_columns = 0usize;
        case.prepared.walk(&mut |node| {
            let IrNode::Expr(expr) = node else { return };
            nodes += 1;
            if matches!(expr.kind, TExprKind::Column { .. }) {
                walked_columns += 1;
            }
            let mut shared: Vec<&TExpr> = Vec::new();
            expr.visit_children(&mut |child| shared.push(child));
            let mut copy = expr.clone();
            let mut mutable: Vec<TExpr> = Vec::new();
            let collected: Result<(), ()> = copy.try_visit_children_mut(&mut |child| {
                mutable.push(child.clone());
                Ok(())
            });
            collected.expect("collecting never fails");
            assert!(
                shared.iter().copied().eq(mutable.iter()),
                "{}: visit_children and try_visit_children_mut disagree on the children of \
                 {expr:?}",
                case.origin
            );
            // The mutable side stops at the first error.
            let mut calls = 0usize;
            let stopped = copy.try_visit_children_mut(&mut |_| {
                calls += 1;
                Err(())
            });
            assert_eq!(calls, shared.len().min(1));
            assert_eq!(stopped.is_err(), !shared.is_empty());
            noop_post_order(&mut copy);
            assert_eq!(&copy, expr, "{}: a no-op walk changed the IR", case.origin);
        });
        // A site the walk forgot shows up as a column it never reached.
        let mentioned = format!("{:?}", case.prepared)
            .matches("kind: Column {")
            .count();
        assert_eq!(
            walked_columns, mentioned,
            "{}: PreparedQuery::walk reached {walked_columns} of {mentioned} columns",
            case.origin
        );
        columns += mentioned;
    }
    assert!(
        nodes > 3_000 && columns > 2_000,
        "{nodes} nodes, {columns} columns"
    );
}

/// Generated programs bind everything but the statement's parameters, so
/// `free_vars` is checked against a closed world: binder forms included
/// (group-by partition and key variables, quantifiers, let-bound views).
#[test]
fn free_vars_of_a_generated_program_are_exactly_its_parameters() {
    let (mut grouped, mut quantified, mut parameterized) = (0usize, 0usize, 0usize);
    for case in corpus() {
        let expected: BTreeSet<String> = (0..case.parameter_count).map(sql_param_name).collect();
        assert_eq!(free_vars(&case.program.body), expected, "{}", case.origin);
        let shape = format!("{:?}", case.program.body);
        grouped += usize::from(shape.contains("GroupBy("));
        quantified += usize::from(shape.contains("Quantified {"));
        parameterized += usize::from(case.parameter_count > 0);
    }
    assert!(
        grouped > 0 && quantified > 0 && parameterized > 0,
        "the corpus lost a binder form: {grouped} grouped, {quantified} quantified, \
         {parameterized} parameterized programs"
    );
}
