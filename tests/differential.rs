//! E6: large-scale differential testing — the mechanical check of the
//! paper's correctness goal (§3.2 (i)). Hundreds of seeded random queries
//! per construct class run through the full driver stack on the lanes of
//! the differential matrix (`aldsp_workload::differential`) — the plain
//! translate path and the production configuration, both result
//! transports — and the relational oracle; all results must agree.
//!
//! The second half gives the one checker teeth of its own: a matrix that
//! silently compared nothing, or a lane that quietly ran the default
//! configuration, would pass every sweep above.

mod common;

use aldsp::core::{
    OptimizeOutcome, PreparedQuery, QueryOptimizer, RewriteStep, RewriteTrace, TranslationOptions,
    Transport,
};
use aldsp::driver::RetryPolicy;
use aldsp::relational::SqlValue;
use aldsp::workload::{
    fuzzed_corpus, golden_corpus, paper_corpus, run_matrix, ChaosConfig, ConstructClass, Lane,
    MatrixReport, Scale, Universe,
};
use aldsp::xquery::ast::{Clause, Expr};
use aldsp::xquery::visit::each_expr_mut;
use aldsp::xquery::{parse_program, unparse_program};
use std::sync::Arc;

/// `count_per_class` fuzzed statements per class on the plain and the
/// production lanes, both transports. The production lanes' counters are
/// checked as well when `production_ran` asks.
fn sweep(seed: u64, count_per_class: usize, scale: Scale, production_ran: bool) -> MatrixReport {
    let mut lanes = Lane::both(Lane::plain);
    lanes.extend(common::production(scale));
    let universe = Universe::generated(scale, seed);
    let corpus = fuzzed_corpus(seed, count_per_class);
    let report = run_matrix(&universe, &corpus, &lanes, None);
    assert_eq!(
        report.rejected, 0,
        "seed {seed}: generator produced rejected queries"
    );
    assert!(
        report.mismatches.is_empty(),
        "seed {seed}: {} mismatches, first: {:#?}",
        report.mismatches.len(),
        report.mismatches.first()
    );
    if production_ran {
        assert_production_ran(&report, &universe, &corpus, &lanes);
    }
    report
}

/// The counters that prove a production lane ran the production
/// configuration: plans memoize invariant sources, hash operators ran and
/// none fell back, warm executions were exact hits — and every execution
/// (cold and warm) whose body a sink can write ended in that sink, none of
/// which gave up: every delimited-text one, and every XML one that is a
/// `<RECORDSET>` of one FLWOR's `<RECORD>`s or of a sort or set wrapper.
/// Its `let`-bound views were built by tail plans that dropped cells, and
/// none gave up either; its grouped FLWORs and its sort and set wrappers
/// ran as their operators.
fn assert_production_ran(
    report: &MatrixReport,
    universe: &Universe,
    corpus: &[(String, String)],
    lanes: &[Lane],
) {
    for production in lanes.iter().filter(|l| l.label.ends_with("+production")) {
        let label = production.label.as_str();
        let sinks = match production.options.transport {
            Transport::DelimitedText => corpus.len() as u64,
            Transport::Xml => common::xml_sink_bodies(universe, corpus, production),
        };
        assert!(sinks > 0, "{label}: no statement a sink could write");
        let lane = report.lane(label);
        assert_eq!(
            (lane.sinks, lane.sink_fallbacks),
            (2 * sinks, 0),
            "{label}: one sink per sink-shaped execution, no fallback"
        );
        assert!(lane.memoized > 0, "{label}: no plan memoized a source");
        assert!(lane.hash_operators > 0, "{label}: no hash operator ran");
        assert_eq!(
            (lane.join_fallbacks, lane.join_abandons),
            (0, 0),
            "{label}: a hashable FLWOR fell back"
        );
        assert!(lane.index_hits > 0, "{label}: no join index was reused");
        assert!(
            lane.views > 0 && lane.cells_pruned > 0,
            "{label}: {} views pruned {} cells",
            lane.views,
            lane.cells_pruned
        );
        assert_eq!(lane.view_fallbacks, 0, "{label}: a view fell back");
        // Every grouped FLWOR, ORDER BY, DISTINCT and set-operation wrapper
        // stage 3 emits runs as its operator (INTERSECT and EXCEPT without
        // ALL are not asked), which never gives up on a statement that
        // succeeds.
        for (kind, (lowered, declined, abandoned)) in lane.lowerings() {
            assert!(lowered > 0, "{label}: no {kind:?} lowering ran");
            assert_eq!(
                (declined, abandoned),
                (0, 0),
                "{label}: a {kind:?} lowering's FLWOR was interpreted"
            );
        }
        let cache = lane.cache.expect("the production lane has a plan cache");
        assert!(cache.exact_hits > 0, "{label}: warm executions never hit");
    }
    // A fault-free matrix never writes: one epoch, so at most one build per
    // function and key column, whichever lane asked first — and the
    // interpreter's lanes ask for nothing.
    assert!(
        report.indexes_built() <= universe.index_bound(),
        "{} join indexes built over one epoch",
        report.indexes_built()
    );
    for plain in ["text", "xml"] {
        let lane = report.lane(plain);
        assert_eq!((lane.indexes_built, lane.index_hits), (0, 0), "{plain}");
        for (kind, counts) in lane.lowerings() {
            assert_eq!(counts, (0, 0, 0), "{plain}: {kind:?}");
        }
    }
}

#[test]
fn differential_sweep_seed_1() {
    sweep(1, 12, Scale::small(), true);
}

#[test]
fn differential_sweep_seed_2_larger_data() {
    sweep(2, 8, Scale::of(60), false);
}

#[test]
fn differential_sweep_seed_3() {
    sweep(3, 12, Scale::small(), false);
}

#[test]
fn per_class_coverage_is_complete() {
    let report = sweep(4, 4, Scale::small(), true);
    // Every construct class must have been exercised and passed, on
    // every lane.
    for class in ConstructClass::all() {
        let (passed, total) = report.per_origin[class.label()];
        assert_eq!(passed, total, "class {} not fully passing", class.label());
        assert_eq!(total, 4);
    }
}

/// A larger sweep for occasional deep runs: `cargo test -- --ignored`.
/// 6 seeds × 275 statements × (2 plain + 2 × 2 production) executions;
/// the production lanes alone are 6,600 statement × transport checks.
#[test]
#[ignore = "slow; run explicitly with --ignored"]
fn differential_deep_sweep() {
    let mut production_checks = 0;
    for seed in 10..16 {
        let report = sweep(seed, 25, Scale::of(40), true);
        production_checks += 2 * report.statements().1 * 2;
    }
    assert!(production_checks >= 3_000, "only {production_checks}");
}

// ---- the checker's own teeth -------------------------------------------

/// The four lane kinds of a real engine on both transports, in
/// dependency order.
fn every_lane(scale: Scale) -> Vec<Lane> {
    let mut lanes = Lane::both(Lane::plain);
    lanes.extend(Lane::both(Lane::hash));
    lanes.extend(Lane::both(Lane::cached));
    lanes.extend(common::production(scale));
    lanes
}

fn corpus(statements: &[&str]) -> Vec<(String, String)> {
    statements
        .iter()
        .enumerate()
        .map(|(i, sql)| (format!("s{i}"), sql.to_string()))
        .collect()
}

/// Statements whose answer must change when ORDERS gains a row for
/// customer 1.
const READS_ORDERS: [&str; 4] = [
    "SELECT ORDERID, AMOUNT FROM ORDERS",
    "SELECT COUNT(*) FROM ORDERS",
    "SELECT CUSTOMERS.CUSTOMERNAME, ORDERS.ORDERID FROM CUSTOMERS INNER JOIN ORDERS \
     ON CUSTOMERS.CUSTOMERID = ORDERS.CUSTID",
    "SELECT CUSTID FROM PAYMENTS UNION ALL SELECT CUSTID FROM ORDERS",
];

/// A universe whose oracle has one ORDERS row the server does not.
fn universe_with_a_lying_oracle(seed: u64) -> Universe {
    let mut universe = Universe::generated(Scale::small(), seed);
    let orders = universe.oracle.table_mut("ORDERS").expect("ORDERS exists");
    let id = orders.rows.len() as i64 + 1;
    orders.insert(vec![
        SqlValue::Int(id),
        SqlValue::Int(1),
        SqlValue::Decimal(19.5),
        SqlValue::Str("OPEN".to_string()),
    ]);
    universe
}

/// (a) One ORDERS row of difference between the oracle and the server is
/// reported on *every* lane, cold and warm, for the statements that read
/// ORDERS — and on none for those that do not.
#[test]
fn one_row_of_difference_is_a_mismatch_on_every_lane() {
    let mut statements = READS_ORDERS.to_vec();
    statements.extend([
        "SELECT * FROM CUSTOMERS",
        "SELECT CUSTOMERS.CUSTOMERID, PAYMENTS.PAYMENT FROM CUSTOMERS LEFT OUTER JOIN PAYMENTS \
         ON CUSTOMERS.CUSTOMERID = PAYMENTS.CUSTID",
        "SELECT REGION, COUNT(*) FROM CUSTOMERS GROUP BY REGION",
    ]);
    let lanes = every_lane(Scale::small());
    let report = run_matrix(
        &universe_with_a_lying_oracle(31),
        &corpus(&statements),
        &lanes,
        None,
    );
    for (i, sql) in statements.iter().enumerate() {
        for lane in &lanes {
            let seen = report
                .mismatches
                .iter()
                .filter(|m| m.origin == format!("s{i}") && m.lane == lane.label)
                .count();
            let expected = if sql.contains("ORDERS") {
                1 + usize::from(lane.cache)
            } else {
                0
            };
            assert_eq!(seen, expected, "lane {} on `{sql}`", lane.label);
        }
    }
    assert!(report
        .mismatches
        .iter()
        .all(|m| m.reason.starts_with("vs oracle")));
    assert_eq!(report.statements(), (3, 7));
}

/// A rewrite that keeps the bag and changes the order: the first FLWOR
/// that leads with two `for` clauses swaps them, so the other table
/// drives the loop.
struct SwapLeadingFors;

impl QueryOptimizer for SwapLeadingFors {
    fn optimize(&self, _: &PreparedQuery, xquery: &str, _: TranslationOptions) -> OptimizeOutcome {
        let mut program = parse_program(xquery).expect("the translation parses");
        let mut swapped = false;
        each_expr_mut(&mut program.body, &mut |e| {
            if let Expr::Flwor(flwor) = e {
                if !swapped
                    && matches!(
                        flwor.clauses[..],
                        [Clause::For { .. }, Clause::For { .. }, ..]
                    )
                {
                    flwor.clauses.swap(0, 1);
                    swapped = true;
                }
            }
        });
        assert!(swapped, "no FLWOR leads with two `for` clauses:\n{xquery}");
        let step = RewriteStep {
            rule: "swap_leading_fors",
            lint: "",
            cost_before: 0.0,
            cost_after: 0.0,
            applied: true,
            note: String::new(),
        };
        OptimizeOutcome {
            xquery: unparse_program(&program),
            trace: RewriteTrace {
                steps: vec![step],
                ..RewriteTrace::default()
            },
        }
    }
}

/// (b) The identity claim is stronger than the oracle comparison: a
/// rewrite that returns the same bag in another order passes as a bag and
/// fails the moment its lane claims the plain lane's emission order.
#[test]
fn identity_claim_rejects_the_same_bag_in_another_order() {
    let universe = Universe::generated(Scale::small(), 23);
    let reorderable = corpus(
        &["SELECT ORDERS.ORDERID, CUSTOMERS.CUSTOMERNAME FROM ORDERS \
         INNER JOIN CUSTOMERS ON ORDERS.CUSTID = CUSTOMERS.CUSTOMERID"],
    );
    let xml = aldsp::core::Transport::Xml;
    let optimized = Lane::optimized(xml, Arc::new(SwapLeadingFors));
    let as_bag = [
        Lane::plain(xml),
        Lane {
            identical_to: None,
            ..optimized.clone()
        },
    ];
    let report = run_matrix(&universe, &reorderable, &as_bag, None);
    assert!(report.is_clean(), "{:#?}", report.mismatches);
    assert_eq!(report.lane("xml+opt").rewritten, 1, "the swap must fire");

    let claiming = [
        Lane::plain(xml),
        Lane {
            identical_to: Some("xml".to_string()),
            ..optimized
        },
    ];
    let report = run_matrix(&universe, &reorderable, &claiming, None);
    assert_eq!(report.mismatches.len(), 2, "cold and warm both diverge");
    for m in &report.mismatches {
        assert_eq!(m.lane, "xml+opt");
        assert!(m.reason.starts_with("not identical to lane `xml`"), "{m:?}");
    }
    assert_eq!(report.statements(), (0, 1));
}

/// (c) Under faults a typed error is an acceptable outcome *of that
/// execution* only: with the oracle one row off, every execution that does
/// return rows is still a mismatch, on the same statement where another
/// lane failed typed.
#[test]
fn a_typed_error_on_one_lane_does_not_excuse_wrong_rows_on_another() {
    let mut lanes = Lane::both(Lane::plain);
    lanes.extend(common::production(Scale::small()));
    let mut faults = ChaosConfig::new(31, 0.5);
    faults.retry = RetryPolicy::none();
    let statements = corpus(&READS_ORDERS);
    let report = run_matrix(
        &universe_with_a_lying_oracle(31),
        &statements,
        &lanes,
        Some(&faults),
    );
    assert_eq!(
        report.passed, 0,
        "no execution may pass against this oracle"
    );
    assert!(report.typed_errors > 0, "the plan injected nothing");
    assert_eq!(
        report.typed_errors + report.mismatches.len(),
        statements.len() * 6,
        "every execution is a typed error or a mismatch"
    );
    let mixed = statements.iter().any(|(origin, _)| {
        let of = |needle: &str| {
            report
                .outcome_log
                .iter()
                .any(|line| line.starts_with(&format!("{origin}#0/")) && line.contains(needle))
        };
        of(": error:") && of(": MISMATCH:")
    });
    assert!(
        mixed,
        "no statement saw both outcomes:\n{}",
        report.fingerprint()
    );
}

/// (d) Per-lane counters over the paper and golden corpora: each lane kind
/// leaves the trace only its own configuration can leave.
#[test]
fn lane_counters_prove_each_lane_ran_its_own_configuration() {
    let mut statements = paper_corpus();
    statements.extend(golden_corpus());
    let universe = Universe::generated(Scale::small(), 41);
    let lanes = every_lane(Scale::small());
    let report = run_matrix(&universe, &statements, &lanes, None);
    assert!(report.is_clean(), "{:#?}", report.mismatches);
    for transport in ["text", "xml"] {
        let lane = |suffix: &str| report.lane(&format!("{transport}{suffix}"));
        let exact_hits = |suffix: &str| lane(suffix).cache.map(|c| c.exact_hits);
        for interpreted in ["", "+cache"] {
            let lane = lane(interpreted);
            assert_eq!(
                (lane.hash_operators, lane.views, lane.cells_pruned),
                (0, 0, 0),
                "{transport}{interpreted}"
            );
            assert_eq!(
                (lane.indexes_built, lane.index_hits),
                (0, 0),
                "{transport}{interpreted}"
            );
            for (kind, counts) in lane.lowerings() {
                assert_eq!(counts, (0, 0, 0), "{transport}{interpreted}: {kind:?}");
            }
        }
        for hashed in ["+hash", "+production"] {
            let lane = lane(hashed);
            assert!(lane.hash_operators > 0, "{transport}{hashed}");
            assert_eq!(lane.join_fallbacks, 0, "{transport}{hashed}");
            assert_eq!(lane.join_abandons, 0, "{transport}{hashed}");
            // Ten lanes share one server and nothing writes to it: every
            // build side that is a bare function keyed by one column was
            // keyed once, by whichever lane came first.
            assert!(lane.index_hits > 0, "{transport}{hashed}");
            // The views of the pipeline strategy are tail plans, less the
            // cells their consumers never name; none is handed back.
            assert!(
                lane.views > 0 && lane.cells_pruned > 0,
                "{transport}{hashed}"
            );
            assert_eq!(lane.view_fallbacks, 0, "{transport}{hashed}");
            // Every GROUP BY and implicit group runs as the aggregate, every
            // ORDER BY as the sort, every DISTINCT, UNION [ALL], INTERSECT
            // ALL and EXCEPT ALL as the set operation.
            for (kind, (lowered, declined, abandoned)) in lane.lowerings() {
                assert!(lowered > 0, "{transport}{hashed}: {kind:?}");
                assert_eq!(
                    (declined, abandoned),
                    (0, 0),
                    "{transport}{hashed}: {kind:?}"
                );
            }
        }
        // A sink ends every execution of the pipeline strategy (a cached
        // lane executes twice) whose body it can write — every
        // delimited-text one, every XML `<RECORDSET>` of one FLWOR's
        // `<RECORD>`s or of a sort or set wrapper — and nothing else; it
        // never gives up on a statement that succeeds.
        for (suffix, executions) in [("", 0), ("+hash", 1), ("+cache", 0), ("+production", 2)] {
            let sunk = match (transport, executions) {
                (_, 0) => 0,
                ("text", _) => statements.len() as u64,
                _ => {
                    let label = format!("{transport}{suffix}");
                    let planned_as = lanes.iter().find(|l| l.label == label).unwrap();
                    let shaped = common::xml_sink_bodies(&universe, &statements, planned_as);
                    assert!(shaped > statements.len() as u64 / 2, "{label}: {shaped}");
                    shaped
                }
            };
            assert_eq!(
                (lane(suffix).sinks, lane(suffix).sink_fallbacks),
                (executions * sunk, 0),
                "{transport}{suffix}"
            );
        }
        for uncached in ["", "+hash"] {
            assert_eq!(exact_hits(uncached), None, "{transport}{uncached}");
            assert_eq!(lane(uncached).analyzed, 0);
        }
        for cached in ["+cache", "+production"] {
            assert!(exact_hits(cached) >= Some(statements.len() as u64));
            assert_eq!(
                lane(cached).analyzed,
                statements.len(),
                "{transport}{cached}"
            );
        }
        // Nothing rewrites a program any more: the engine memoizes what
        // the rewrite used to hoist, on the pipeline strategy alone, and in
        // several of the paper and golden statements.
        for cached in ["+cache", "+production"] {
            assert_eq!(lane(cached).rewritten, 0, "{transport}{cached}");
        }
        assert_eq!(lane("+cache").memoized, 0, "{transport}+cache");
        let memoized = lane("+production").memoized;
        assert!(memoized >= 3, "{transport}+production: {memoized}");
        let fuel = |suffix: &str| lane(suffix).fuel.iter().sum::<u64>();
        assert!(fuel("+hash") < fuel(""), "{transport}+hash saved no fuel");
    }
    assert!(
        report.indexes_built() <= universe.index_bound(),
        "{} join indexes built over one epoch",
        report.indexes_built()
    );
}
