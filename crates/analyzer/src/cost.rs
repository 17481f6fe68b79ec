//! Layer 4: catalog-seeded cardinality and cost estimation with the
//! `P001`–`P008` performance lints.
//!
//! The translation scheme (paper §3–§4) maps every SQL block onto nested
//! FLWOR loops: one `for` per FROM input, the whole WHERE in the where
//! zone after the innermost `for`, joins as nested loops whose inner
//! source is re-evaluated per outer tuple, and predicate subqueries
//! re-evaluated per candidate row. That structure is *correct* but its
//! cost is invisible until the evaluator runs out of fuel. This layer
//! makes the cost static:
//!
//! * a **bottom-up cardinality estimator** over the stage-2 IR, seeded
//!   with [`CatalogStats`] row counts and per-column NDV, using the
//!   textbook selectivity heuristics — equality `1/NDV`, range `1/3`,
//!   conjunction independence, join containment `1/max(NDV)`;
//! * a **cost algebra in evaluator-fuel units** mirroring how
//!   `aldsp-xquery` actually iterates (one fuel per expression node per
//!   evaluation, one per FLWOR tuple): the nested-loop pipeline cost of a
//!   FROM list is `c1 + n1*(c2 + n2*(c3 + ...))`, predicates cost their
//!   node count once per surviving tuple, sorts cost `n·log n`
//!   comparisons, and subqueries in predicate position cost their full
//!   estimate once per candidate row;
//! * an independent **FLWOR fuel walk** over the *generated* XQuery AST
//!   ([`estimate_program_fuel`]), resolving table-function sources
//!   through the prepared query's schemas — a structural cross-check on
//!   the IR-level estimate that sees exactly what the evaluator sees;
//! * the **`P` lints** on top of the estimates (see [`DiagCode`]):
//!   cartesian products (P001), unpushed join predicates (P002),
//!   DISTINCT/ORDER-BY work made redundant by a declared-unique key
//!   (P003/P004), the NULL-literal predicates plan-cache normalization
//!   cannot extract (P005), estimates past the governor row cap (P006),
//!   large-table nested-loop re-scans (P007), and expensive per-row
//!   subquery re-evaluation (P008).
//!
//! `P` findings are *advisory*: unlike the `A`/`T` layers, a flagged
//! query still computes the correct answer, so the optimizer's safety
//! gate and [`crate::TranslationReport::is_clean`] deliberately do
//! not fail on them — chaos workloads legitimately run cartesian
//! stressors. The estimator itself never panics and degrades to the
//! documented [`aldsp_catalog::stats`] defaults when stats are missing.
//! E10 (EXPERIMENTS.md) calibrates the whole algebra against measured
//! [`aldsp_governor::QueryBudget`] fuel.

use crate::diag::{DiagCode, Diagnostic};
use aldsp_catalog::stats::{CatalogStats, ColumnStats};
use aldsp_core::ir::{IrNode, PreparedBody, PreparedQuery, PreparedSelect, Rsn, TExpr, TExprKind};
use aldsp_sql::{CompareOp, JoinKind, SetOp};
use aldsp_xquery::ast as xq;
use std::collections::HashMap;

/// Tuning for one cost analysis.
#[derive(Debug, Clone)]
pub struct CostOptions {
    /// The statistics snapshot estimates are seeded from. Defaults answer
    /// every lookup when no stats were gathered.
    pub stats: CatalogStats,
    /// The governor row cap the query will run under; `None` (the
    /// default) disables P006.
    pub row_cap: Option<u64>,
    /// P007 fires only when a nested-loop inner table holds at least this
    /// many rows (default 10 000 — the assumed-stats default of 1 000
    /// never trips it).
    pub large_table_rows: u64,
    /// P007 fires only when the estimated total re-scan work (outer
    /// tuples x inner rows) reaches this many fuel units (default 1e8).
    pub rescan_work: f64,
    /// P008 fires only when a predicate subquery's estimated total work
    /// (candidate tuples x per-evaluation cost) reaches this many fuel
    /// units (default 1e8).
    pub subquery_work: f64,
}

impl Default for CostOptions {
    fn default() -> CostOptions {
        CostOptions {
            stats: CatalogStats::default(),
            row_cap: None,
            large_table_rows: 10_000,
            rescan_work: 1e8,
            subquery_work: 1e8,
        }
    }
}

/// A bottom-up estimate for one (sub)query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Estimated result rows.
    pub rows: f64,
    /// Estimated evaluation cost, in evaluator-fuel units.
    pub cost: f64,
}

/// The layer-4 result: the estimate, the optional XQuery-side fuel walk,
/// and the `P`-series findings.
#[derive(Debug, Clone, Default)]
pub struct CostReport {
    /// Estimated output rows of the whole statement.
    pub rows: f64,
    /// Estimated evaluation cost of the whole statement (fuel units),
    /// from the IR-level algebra.
    pub cost: f64,
    /// The structural fuel estimate from walking the generated XQuery
    /// AST; `None` when no program was supplied (or it did not parse —
    /// layer 2 reports that as `A100`).
    pub flwor_fuel: Option<f64>,
    /// `P001`–`P008` findings.
    pub diagnostics: Vec<Diagnostic>,
}

/// Runs the full layer-4 analysis: IR-level estimation plus lints, and —
/// when the generated program is supplied — the FLWOR fuel walk.
pub fn check_cost(
    prepared: &PreparedQuery,
    program: Option<&xq::Program>,
    options: &CostOptions,
) -> CostReport {
    let mut estimator = Estimator::new(options);
    let estimate = estimator.query(prepared, true);
    estimator.check_row_cap(estimate);
    CostReport {
        rows: estimate.rows,
        cost: estimate.cost,
        flwor_fuel: program.map(|p| estimate_program_fuel(prepared, p, &options.stats)),
        diagnostics: estimator.diags,
    }
}

/// The estimate alone — no lints collected. Used by the plan cache to
/// price plans at build time.
pub fn estimate_prepared(prepared: &PreparedQuery, options: &CostOptions) -> Estimate {
    let mut estimator = Estimator::new(options);
    estimator.query(prepared, false)
}

// --- the IR-level estimator ---------------------------------------------

/// Fuel charged per scanned base-table tuple: the tuple charge itself
/// plus the row materialization the table function performs.
const SCAN_TUPLE_FUEL: f64 = 2.0;
/// Selectivity assumed for range predicates (`<`, `<=`, `>`, `>=`,
/// `BETWEEN`) — the System R third.
const RANGE_SEL: f64 = 1.0 / 3.0;
/// Selectivity assumed for `LIKE`.
const LIKE_SEL: f64 = 0.25;
/// Selectivity assumed for `IS NULL` on a nullable column.
const NULL_SEL: f64 = 0.1;
/// Selectivity assumed when nothing better is known (subquery membership,
/// quantified comparisons, opaque predicates are estimated as 1.0 —
/// over-estimating keeps conjunction monotone; this constant is for
/// equality against a column whose NDV cannot be resolved).
const FALLBACK_EQ_SEL: f64 = 0.1;

/// What the estimator knows about one in-scope column.
#[derive(Debug, Clone, Copy)]
struct ScopeCol {
    ndv: f64,
    unique: bool,
}

/// One SELECT block's resolution scope: per-range-variable column stats
/// and cardinalities.
#[derive(Debug, Default)]
struct Scope {
    cols: HashMap<(String, String), ScopeCol>,
    input_rows: HashMap<String, f64>,
}

/// One direct FROM input, for the connectivity (P001) and pushdown
/// (P002) lints — for P002 a flattened INNER/CROSS join operand counts
/// as its own input (see `flatten_loops`).
struct FromInput {
    range_vars: Vec<String>,
    rows: f64,
}

struct Estimator<'a> {
    options: &'a CostOptions,
    /// Scope stack, innermost last (correlated subqueries resolve
    /// outward like stage 3 does).
    scopes: Vec<Scope>,
    diags: Vec<Diagnostic>,
    /// Lints are only collected for the top-level invocation flag; the
    /// plan cache prices plans without collecting.
    lint: bool,
}

impl<'a> Estimator<'a> {
    fn new(options: &'a CostOptions) -> Estimator<'a> {
        Estimator {
            options,
            scopes: Vec::new(),
            diags: Vec::new(),
            lint: true,
        }
    }

    fn report(&mut self, code: DiagCode, message: String) {
        if self.lint {
            self.diags.push(Diagnostic::new(code, message));
        }
    }

    fn query(&mut self, query: &PreparedQuery, lint: bool) -> Estimate {
        let previous = self.lint;
        self.lint = lint && previous;
        let mut estimate = self.body(&query.body);
        if !query.order_by.is_empty() {
            // Key evaluation per row plus the comparison sort.
            let n = estimate.rows.max(1.0);
            estimate.cost += estimate.rows * query.order_by.len() as f64 + n * n.log2().max(1.0);
            self.check_order_by(query);
        }
        self.lint = previous;
        estimate
    }

    fn body(&mut self, body: &PreparedBody) -> Estimate {
        match body {
            PreparedBody::Select(select) => self.select(select),
            PreparedBody::SetOp {
                left,
                op,
                all,
                right,
                ..
            } => {
                let l = self.body(left);
                let r = self.body(right);
                let mut rows = match op {
                    SetOp::Union => l.rows + r.rows,
                    SetOp::Intersect => l.rows.min(r.rows),
                    SetOp::Except => l.rows,
                };
                let mut cost = l.cost + r.cost + l.rows + r.rows;
                if !all {
                    // Distinct semantics pay a dedup pass over both sides.
                    let n = (l.rows + r.rows).max(1.0);
                    cost += n * n.log2().max(1.0);
                    rows *= 0.75;
                }
                if matches!(op, SetOp::Intersect | SetOp::Except) {
                    // Membership probes of the right side per left row.
                    cost += l.rows * r.rows.max(1.0).log2().max(1.0);
                    rows *= 0.5;
                }
                Estimate { rows, cost }
            }
        }
    }

    fn select(&mut self, select: &PreparedSelect) -> Estimate {
        self.scopes.push(Scope::default());

        // FROM: the nested-loop pipeline. Each input's source is
        // (re-)evaluated once per tuple of the inputs before it, exactly
        // like the generated `for` nesting.
        let mut inputs: Vec<FromInput> = Vec::new();
        let mut tuples = 1.0f64;
        let mut cost = 0.0f64;
        for rsn in &select.from {
            let (rows, scan_cost) = self.rsn(rsn, tuples);
            cost += tuples.max(1.0) * scan_cost;
            self.check_rescan(rsn, tuples);
            inputs.push(FromInput {
                range_vars: rsn.range_vars().iter().map(|v| v.to_string()).collect(),
                rows,
            });
            tuples *= rows;
        }
        // One fuel per tuple of the full stream.
        cost += tuples;

        self.check_cartesian(select, &inputs);
        self.check_pushdown(select);

        // WHERE: evaluated once per tuple of the cross stream.
        let mut rows = tuples;
        if let Some(w) = &select.where_clause {
            cost += tuples.max(1.0) * self.expr_cost(w);
            rows *= self.selectivity(w);
            self.check_null_literal(w);
            self.check_subquery_work(w, tuples, "WHERE");
        }

        // Grouping: key evaluation per input row, then each aggregate
        // iterates its group's partition (sum over groups = input rows).
        if select.grouped {
            let groups = if select.group_by.is_empty() {
                1.0
            } else {
                let ndv_bound: f64 = select
                    .group_by
                    .iter()
                    .map(|k| self.expr_ndv(k).max(1.0))
                    .product();
                ndv_bound.min(rows.max(1.0))
            };
            cost += rows * select.group_by.len() as f64;
            let aggregates = count_aggregates(select);
            cost += aggregates as f64 * rows;
            rows = groups;
            if let Some(h) = &select.having {
                cost += rows.max(1.0) * self.expr_cost(h);
                rows *= self.selectivity(h);
                self.check_null_literal(h);
                self.check_subquery_work(h, groups, "HAVING");
            }
        }

        // Projection + `<RECORD>` construction per emitted row.
        let item_cost: f64 = select.items.iter().map(|i| self.expr_cost(&i.expr)).sum();
        cost += rows.max(1.0) * (item_cost + 1.0 + 2.0 * select.items.len() as f64);

        // DISTINCT: a dedup pass, bounded by the projected NDV product.
        if select.distinct {
            let n = rows.max(1.0);
            cost += n * n.log2().max(1.0);
            let bound: f64 = select
                .items
                .iter()
                .map(|i| self.expr_ndv(&i.expr).max(1.0))
                .product();
            rows = rows.min(bound);
            self.check_distinct(select, &inputs);
        }

        self.scopes.pop();
        Estimate { rows, cost }
    }

    /// Estimates one FROM input: `(cardinality, per-scan cost)`. Registers
    /// the input's columns and cardinality in the current scope.
    fn rsn(&mut self, rsn: &Rsn, outer_tuples: f64) -> (f64, f64) {
        match rsn {
            Rsn::Table { range_var, entry } => {
                let table = &entry.schema.table_name;
                let rows = self.options.stats.rows(table) as f64;
                for column in &entry.schema.columns {
                    let stats = self.options.stats.column(table, &column.name);
                    self.bind(range_var, &column.name, stats, rows);
                }
                self.scope().input_rows.insert(range_var.clone(), rows);
                // Source evaluation plus per-tuple scan fuel.
                (rows, 1.0 + rows * SCAN_TUPLE_FUEL)
            }
            Rsn::Derived { range_var, query } => {
                let estimate = self.query(query, true);
                // Derived outputs: propagate plain-column NDV through the
                // subquery's projection where possible; assume a tenth of
                // the derived cardinality otherwise.
                let inner_cols = derived_column_stats(query, estimate.rows, &self.options.stats);
                for (name, col) in inner_cols {
                    self.bind(range_var, &name, col, estimate.rows);
                }
                self.scope()
                    .input_rows
                    .insert(range_var.clone(), estimate.rows);
                (estimate.rows, estimate.cost)
            }
            Rsn::Join {
                kind,
                left,
                right,
                on,
            } => {
                let (left_rows, left_cost) = self.rsn(left, outer_tuples);
                // The inner `for` source is re-evaluated per outer tuple.
                let (right_rows, right_cost) = self.rsn(right, outer_tuples * left_rows.max(1.0));
                let cross = left_rows * right_rows;
                let mut cost = left_cost + left_rows.max(1.0) * right_cost + cross;
                let mut rows = cross;
                if let Some(on) = on {
                    cost += cross.max(1.0) * self.expr_cost(on);
                    rows *= self.selectivity(on);
                    self.check_null_literal(on);
                    self.check_join_equality(kind, left, right, on, cross);
                } else if matches!(kind, JoinKind::Inner | JoinKind::Cross) {
                    self.report(
                        DiagCode::P001,
                        format!(
                            "join of {} and {} has no ON predicate: the generated FLWOR \
                             enumerates the full cross product (~{:.0} tuples)",
                            join_vars(left),
                            join_vars(right),
                            cross
                        ),
                    );
                }
                // Outer joins pad instead of dropping unmatched rows.
                rows = match kind {
                    JoinKind::LeftOuter => rows.max(left_rows),
                    JoinKind::RightOuter => rows.max(right_rows),
                    JoinKind::FullOuter => rows.max(left_rows).max(right_rows),
                    JoinKind::Inner | JoinKind::Cross => rows,
                };
                self.check_join_rescan(kind, left, right, left_rows, right_rows, outer_tuples);
                cost += rows;
                (rows, cost)
            }
        }
    }

    fn bind(&mut self, range_var: &str, column: &str, stats: ColumnStats, rows: f64) {
        let ndv = (stats.ndv as f64).min(rows.max(1.0));
        self.scope().cols.insert(
            (range_var.to_string(), column.to_string()),
            ScopeCol {
                ndv: ndv.max(1.0),
                unique: stats.unique,
            },
        );
    }

    fn scope(&mut self) -> &mut Scope {
        self.scopes.last_mut().expect("estimator scope underflow")
    }

    /// Resolves a column against the scope stack, innermost out.
    fn lookup(&self, range_var: &str, column: &str) -> Option<ScopeCol> {
        self.scopes
            .iter()
            .rev()
            .find_map(|s| s.cols.get(&(range_var.to_string(), column.to_string())))
            .copied()
    }

    // --- selectivity ----------------------------------------------------

    /// Predicate selectivity in `[0, 1]`. Everything unknown estimates as
    /// 1.0, so conjoining a predicate can never *raise* a cardinality
    /// estimate (the monotonicity property pinned in `tests/analyzer.rs`).
    fn selectivity(&self, e: &TExpr) -> f64 {
        let s = match &e.kind {
            TExprKind::And(a, b) => self.selectivity(a) * self.selectivity(b),
            TExprKind::Or(a, b) => {
                let (sa, sb) = (self.selectivity(a), self.selectivity(b));
                sa + sb - sa * sb
            }
            TExprKind::Not(a) => 1.0 - self.selectivity(a),
            TExprKind::Compare { op, left, right } => self.compare_selectivity(*op, left, right),
            TExprKind::Between { negated, .. } => negate(RANGE_SEL, *negated),
            TExprKind::Like { negated, .. } => negate(LIKE_SEL, *negated),
            TExprKind::IsNull { expr, negated } => {
                let base = if expr.nullable { NULL_SEL } else { 0.0 };
                negate(base, *negated)
            }
            TExprKind::InList {
                expr,
                list,
                negated,
            } => {
                let ndv = self.expr_ndv(expr);
                let base = (list.len() as f64 / ndv.max(1.0)).min(1.0);
                negate(base, *negated)
            }
            // Membership and quantified predicates over subqueries, and
            // anything opaque: assume they keep everything.
            _ => 1.0,
        };
        s.clamp(0.0, 1.0)
    }

    fn compare_selectivity(&self, op: CompareOp, left: &TExpr, right: &TExpr) -> f64 {
        match op {
            CompareOp::Eq => match (self.expr_col(left), self.expr_col(right)) {
                // Join containment: the smaller domain is contained in
                // the larger.
                (Some(l), Some(r)) => 1.0 / l.ndv.max(r.ndv).max(1.0),
                (Some(c), None) | (None, Some(c)) => 1.0 / c.ndv.max(1.0),
                (None, None) => FALLBACK_EQ_SEL,
            },
            CompareOp::NotEq => match (self.expr_col(left), self.expr_col(right)) {
                (Some(c), None) | (None, Some(c)) => 1.0 - 1.0 / c.ndv.max(1.0),
                _ => 1.0 - FALLBACK_EQ_SEL,
            },
            CompareOp::Lt | CompareOp::LtEq | CompareOp::Gt | CompareOp::GtEq => RANGE_SEL,
        }
    }

    /// The scope stats behind an expression, when it is a plain column.
    fn expr_col(&self, e: &TExpr) -> Option<ScopeCol> {
        match &e.kind {
            TExprKind::Column { range_var, column } => self.lookup(range_var, column),
            TExprKind::Cast { expr, .. } => self.expr_col(expr),
            _ => None,
        }
    }

    /// NDV of an arbitrary expression: the column's for plain columns, a
    /// tenth of the innermost input's cardinality otherwise.
    fn expr_ndv(&self, e: &TExpr) -> f64 {
        if let Some(col) = self.expr_col(e) {
            return col.ndv;
        }
        if let TExprKind::Literal(_) | TExprKind::Parameter(_) = e.kind {
            return 1.0;
        }
        let input_rows: f64 = self
            .scopes
            .last()
            .map(|s| s.input_rows.values().product())
            .unwrap_or(1.0);
        (input_rows / 10.0).max(1.0)
    }

    // --- per-evaluation expression cost ---------------------------------

    /// Fuel for evaluating `e` once: one unit per node (mirroring the
    /// evaluator's per-expression charge), plus the full estimated cost
    /// of any subquery — the generated XQuery re-evaluates predicate
    /// subqueries at every site evaluation.
    fn expr_cost(&mut self, e: &TExpr) -> f64 {
        let mut child_cost = 0.0;
        e.visit_children(&mut |c| child_cost += self.expr_cost(c));
        let mut cost = 1.0 + child_cost;
        if let Some(query) = e.subquery() {
            cost += self.query(query, true).cost;
        }
        cost
    }

    // --- lints ----------------------------------------------------------

    /// P001 over a comma FROM list: every input must be connected to the
    /// rest through some equality conjunct of the WHERE clause.
    fn check_cartesian(&mut self, select: &PreparedSelect, inputs: &[FromInput]) {
        if inputs.len() < 2 || !self.lint {
            return;
        }
        // Union-find over input indices, joined by cross-input equality
        // conjuncts.
        let mut component: Vec<usize> = (0..inputs.len()).collect();
        fn root(component: &mut [usize], mut i: usize) -> usize {
            while component[i] != i {
                component[i] = component[component[i]];
                i = component[i];
            }
            i
        }
        let input_of = |rv: &str| -> Option<usize> {
            inputs
                .iter()
                .position(|i| i.range_vars.iter().any(|v| v == rv))
        };
        let mut conjuncts = Vec::new();
        if let Some(w) = &select.where_clause {
            collect_conjuncts(w, &mut conjuncts);
        }
        for c in &conjuncts {
            if let TExprKind::Compare {
                op: CompareOp::Eq,
                left,
                right,
            } = &c.kind
            {
                let (mut lv, mut rv) = (Vec::new(), Vec::new());
                collect_range_vars(left, &mut lv);
                collect_range_vars(right, &mut rv);
                for l in &lv {
                    for r in &rv {
                        if let (Some(a), Some(b)) = (input_of(l), input_of(r)) {
                            let (ra, rb) = (root(&mut component, a), root(&mut component, b));
                            component[ra] = rb;
                        }
                    }
                }
            }
        }
        let first = root(&mut component, 0);
        let disconnected: Vec<&str> = (1..inputs.len())
            .filter(|&i| root(&mut component, i) != first)
            .map(|i| inputs[i].range_vars[0].as_str())
            .collect();
        if !disconnected.is_empty() {
            let tuples: f64 = inputs.iter().map(|i| i.rows).product();
            self.report(
                DiagCode::P001,
                format!(
                    "FROM input(s) {} join no other input by equality: the generated \
                     FLWOR enumerates the full cross product (~{tuples:.0} tuples)",
                    disconnected.join(", ")
                ),
            );
        }
    }

    /// P002: a WHERE conjunct that references inputs but none bound by
    /// the *last* `for` of the generated loop nest could have filtered
    /// the stream before the innermost loop multiplied it. The loop nest
    /// is the comma FROM list with every INNER/CROSS join chain
    /// flattened the way stage 3 flattens it into sequential `for`s;
    /// outer-join subtrees stay opaque (their padded-view shape blocks
    /// pushdown inside them).
    fn check_pushdown(&mut self, select: &PreparedSelect) {
        if !self.lint {
            return;
        }
        let Some(w) = &select.where_clause else {
            return;
        };
        let mut loops: Vec<FromInput> = Vec::new();
        for rsn in &select.from {
            self.flatten_loops(rsn, &mut loops);
        }
        if loops.len() < 2 {
            return;
        }
        let last = loops.last().expect("non-empty loops");
        let own: Vec<&str> = loops
            .iter()
            .flat_map(|i| i.range_vars.iter().map(|v| v.as_str()))
            .collect();
        let mut conjuncts = Vec::new();
        collect_conjuncts(w, &mut conjuncts);
        for (index, c) in conjuncts.iter().enumerate() {
            let mut refs = Vec::new();
            collect_range_vars(c, &mut refs);
            let local: Vec<&String> = refs.iter().filter(|r| own.contains(&r.as_str())).collect();
            if !local.is_empty()
                && local
                    .iter()
                    .all(|r| !last.range_vars.iter().any(|v| v == *r))
            {
                self.report(
                    DiagCode::P002,
                    format!(
                        "WHERE conjunct {} references only {} and is evaluated after the \
                         innermost for (which binds {}); pushing it before that loop would \
                         filter ~{:.0} tuples earlier",
                        index + 1,
                        join_names(&local),
                        last.range_vars.join(", "),
                        last.rows
                    ),
                );
            }
        }
    }

    /// P003: DISTINCT over a single-table projection that includes a
    /// declared-unique column.
    fn check_distinct(&mut self, select: &PreparedSelect, inputs: &[FromInput]) {
        if !self.lint || select.grouped || inputs.len() != 1 || inputs[0].range_vars.len() != 1 {
            return;
        }
        for item in &select.items {
            if let Some(col) = self.expr_col(&item.expr) {
                if col.unique {
                    if let TExprKind::Column { range_var, column } = &item.expr.kind {
                        self.report(
                            DiagCode::P003,
                            format!(
                                "DISTINCT is redundant: projected column {range_var}.{column} \
                                 is declared unique, every row is already distinct"
                            ),
                        );
                        return;
                    }
                }
            }
        }
    }

    /// P004: ORDER BY keys after a declared-unique leading key.
    fn check_order_by(&mut self, query: &PreparedQuery) {
        if !self.lint || query.order_by.len() < 2 {
            return;
        }
        let PreparedBody::Select(select) = &query.body else {
            return;
        };
        if select.from.len() != 1 || select.from[0].range_vars().len() != 1 {
            return;
        }
        let first = query.order_by[0].column;
        let Some(item) = select.items.iter().find(|i| i.output == first) else {
            return;
        };
        // The scope was popped when the select finished; re-resolve the
        // leading key against the stats directly.
        let Rsn::Table { range_var, entry } = &select.from[0] else {
            return;
        };
        let TExprKind::Column {
            range_var: col_rv,
            column,
        } = &item.expr.kind
        else {
            return;
        };
        if col_rv != range_var {
            return;
        }
        let stats = self.options.stats.column(&entry.schema.table_name, column);
        if stats.unique {
            self.report(
                DiagCode::P004,
                format!(
                    "ORDER BY keys after {col_rv}.{column} are redundant: the leading key \
                     is declared unique, ties cannot occur ({} extra key evaluation(s) per row)",
                    query.order_by.len() - 1
                ),
            );
        }
    }

    /// The sequential `for` nest stage 3 generates for `rsn`:
    /// INNER/CROSS join chains flatten left to right into one loop input
    /// per operand; an outer-join subtree is a single opaque input sized
    /// by its cross-product upper bound.
    fn flatten_loops(&mut self, rsn: &Rsn, out: &mut Vec<FromInput>) {
        match rsn {
            Rsn::Join {
                kind: JoinKind::Inner | JoinKind::Cross,
                left,
                right,
                ..
            } => {
                self.flatten_loops(left, out);
                self.flatten_loops(right, out);
            }
            Rsn::Join { left, right, .. } => {
                let mut sides: Vec<FromInput> = Vec::new();
                self.flatten_loops(left, &mut sides);
                self.flatten_loops(right, &mut sides);
                out.push(FromInput {
                    range_vars: rsn.range_vars().iter().map(|v| v.to_string()).collect(),
                    rows: sides.iter().map(|i| i.rows.max(1.0)).product(),
                });
            }
            Rsn::Table { range_var, entry } => out.push(FromInput {
                range_vars: vec![range_var.clone()],
                rows: self.options.stats.rows(&entry.schema.table_name) as f64,
            }),
            Rsn::Derived { range_var, query } => {
                let rows = self.query(query, false).rows;
                out.push(FromInput {
                    range_vars: vec![range_var.clone()],
                    rows,
                });
            }
        }
    }

    /// P005: comparisons against a NULL literal — never true under 3VL,
    /// and the one predicate-zone literal normalization leaves verbatim.
    fn check_null_literal(&mut self, predicate: &TExpr) {
        if !self.lint {
            return;
        }
        let mut sites = 0usize;
        count_null_comparisons(predicate, &mut sites);
        for _ in 0..sites {
            self.report(
                DiagCode::P005,
                "predicate compares against a NULL literal: never true under three-valued \
                 logic, and plan-cache normalization must leave it verbatim (use IS NULL)"
                    .to_string(),
            );
        }
    }

    /// P007 (comma-join flavor): a base-table input scanned once per
    /// tuple of the inputs before it.
    fn check_rescan(&mut self, rsn: &Rsn, outer_tuples: f64) {
        if !self.lint || outer_tuples <= 1.0 {
            return;
        }
        if let Rsn::Table { range_var, entry } = rsn {
            let rows = self.options.stats.rows(&entry.schema.table_name);
            let work = outer_tuples * rows as f64;
            if rows >= self.options.large_table_rows && work >= self.options.rescan_work {
                self.report(
                    DiagCode::P007,
                    format!(
                        "{range_var} ({} rows) is re-scanned for each of ~{outer_tuples:.0} \
                         outer tuples (~{work:.0} fuel)",
                        rows
                    ),
                );
            }
        }
    }

    /// P007 (explicit-join flavor): the operand bound by the inner `for`
    /// of the generated nested loop. RIGHT OUTER generates as LEFT OUTER
    /// with swapped operands, so its inner side is the left operand.
    fn check_join_rescan(
        &mut self,
        kind: &JoinKind,
        left: &Rsn,
        right: &Rsn,
        left_rows: f64,
        right_rows: f64,
        outer_tuples: f64,
    ) {
        if !self.lint {
            return;
        }
        let (inner, inner_rows, outer_rows) = match kind {
            JoinKind::RightOuter => (left, left_rows, right_rows),
            _ => (right, right_rows, left_rows),
        };
        let Rsn::Table { range_var, entry } = inner else {
            return;
        };
        let rows = self.options.stats.rows(&entry.schema.table_name);
        let loops = outer_rows * outer_tuples.max(1.0);
        let work = loops * inner_rows;
        if rows >= self.options.large_table_rows && work >= self.options.rescan_work {
            self.report(
                DiagCode::P007,
                format!(
                    "nested-loop join re-scans {range_var} ({rows} rows) for each of \
                     ~{loops:.0} outer tuples (~{work:.0} fuel)"
                ),
            );
        }
    }

    /// P001 (explicit-join flavor): an ON clause with no equality conjunct
    /// relating the two sides degenerates to a filtered cross product.
    fn check_join_equality(
        &mut self,
        kind: &JoinKind,
        left: &Rsn,
        right: &Rsn,
        on: &TExpr,
        cross: f64,
    ) {
        if !self.lint || !matches!(kind, JoinKind::Inner | JoinKind::Cross) {
            return;
        }
        let left_vars = left.range_vars();
        let right_vars = right.range_vars();
        let mut conjuncts = Vec::new();
        collect_conjuncts(on, &mut conjuncts);
        let relates = conjuncts.iter().any(|c| {
            if let TExprKind::Compare {
                op: CompareOp::Eq,
                left: l,
                right: r,
            } = &c.kind
            {
                let (mut lv, mut rv) = (Vec::new(), Vec::new());
                collect_range_vars(l, &mut lv);
                collect_range_vars(r, &mut rv);
                let touches = |vars: &[String], side: &[&str]| {
                    vars.iter().any(|v| side.contains(&v.as_str()))
                };
                (touches(&lv, &left_vars) && touches(&rv, &right_vars))
                    || (touches(&lv, &right_vars) && touches(&rv, &left_vars))
            } else {
                false
            }
        });
        if !relates {
            self.report(
                DiagCode::P001,
                format!(
                    "ON predicate contains no equality relating {} to {}: the join \
                     degenerates to a filtered cross product (~{cross:.0} tuples)",
                    join_vars(left),
                    join_vars(right)
                ),
            );
        }
    }

    /// P008: predicate subqueries re-evaluated once per candidate tuple.
    fn check_subquery_work(&mut self, predicate: &TExpr, tuples: f64, zone: &str) {
        if !self.lint {
            return;
        }
        let mut subqueries: Vec<(&'static str, &PreparedQuery)> = Vec::new();
        collect_subqueries(predicate, &mut subqueries);
        for (what, query) in subqueries {
            let per_eval = self.query(query, false).cost;
            let work = tuples * per_eval;
            if work >= self.options.subquery_work {
                self.report(
                    DiagCode::P008,
                    format!(
                        "{what} subquery in {zone} is re-evaluated for each of \
                         ~{tuples:.0} candidate tuples (~{per_eval:.0} fuel per \
                         evaluation, ~{work:.0} total)"
                    ),
                );
            }
        }
    }

    /// P006: the final estimate against the governor row cap.
    fn check_row_cap(&mut self, estimate: Estimate) {
        if let Some(cap) = self.options.row_cap {
            if estimate.rows > cap as f64 {
                self.report(
                    DiagCode::P006,
                    format!(
                        "estimated result cardinality ~{:.0} exceeds the governor row cap \
                         {cap}: the evaluator is predicted to abort after doing most of \
                         the work",
                        estimate.rows
                    ),
                );
            }
        }
    }
}

fn negate(s: f64, negated: bool) -> f64 {
    if negated {
        1.0 - s
    } else {
        s
    }
}

fn join_names(names: &[&String]) -> String {
    let mut sorted: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
    sorted.sort_unstable();
    sorted.dedup();
    sorted.join(", ")
}

fn join_vars(rsn: &Rsn) -> String {
    rsn.range_vars().join(", ")
}

/// Splits a predicate into its top-level AND conjuncts.
fn collect_conjuncts<'e>(e: &'e TExpr, out: &mut Vec<&'e TExpr>) {
    if let TExprKind::And(a, b) = &e.kind {
        collect_conjuncts(a, out);
        collect_conjuncts(b, out);
    } else {
        out.push(e);
    }
}

/// Every range variable referenced anywhere under `e`, including inside
/// subqueries (a correlated reference still ties the conjunct to its
/// input).
fn collect_range_vars(e: &TExpr, out: &mut Vec<String>) {
    e.walk(&mut |node| {
        if let IrNode::Expr(TExpr {
            kind: TExprKind::Column { range_var, .. },
            ..
        }) = node
        {
            out.push(range_var.clone());
        }
    });
}

/// Comparison sites where one operand is a NULL literal (including NULL
/// elements of IN lists).
fn count_null_comparisons(e: &TExpr, out: &mut usize) {
    let is_null_literal = |x: &TExpr| matches!(&x.kind, TExprKind::Literal(l) if l.is_null());
    match &e.kind {
        TExprKind::Compare { left, right, .. }
            if is_null_literal(left) || is_null_literal(right) =>
        {
            *out += 1;
        }
        TExprKind::InList { list, .. } if list.iter().any(is_null_literal) => {
            *out += 1;
        }
        TExprKind::Between {
            expr, low, high, ..
        } if is_null_literal(expr) || is_null_literal(low) || is_null_literal(high) => {
            *out += 1;
        }
        _ => {}
    }
    e.visit_children(&mut |c| count_null_comparisons(c, out));
}

/// Predicate-position subqueries directly under `e` (not descending into
/// nested subqueries — each select lints its own zones).
fn collect_subqueries<'e>(e: &'e TExpr, out: &mut Vec<(&'static str, &'e PreparedQuery)>) {
    match &e.kind {
        TExprKind::InSubquery { query, .. } => out.push(("IN", query)),
        TExprKind::Exists { query, .. } => out.push(("EXISTS", query)),
        TExprKind::ScalarSubquery(query) => out.push(("scalar", query)),
        TExprKind::Quantified { query, .. } => out.push(("quantified", query)),
        _ => {}
    }
    e.visit_children(&mut |child| collect_subqueries(child, out));
}

fn count_aggregates(select: &PreparedSelect) -> usize {
    fn count(e: &TExpr, out: &mut usize) {
        if e.is_aggregate() {
            *out += 1;
        }
        e.visit_children(&mut |c| count(c, out));
    }
    let mut n = 0;
    for item in &select.items {
        count(&item.expr, &mut n);
    }
    if let Some(h) = &select.having {
        count(h, &mut n);
    }
    n
}

/// NDV stats for a derived table's output columns: plain-column items
/// over a base table keep that column's catalog stats; computed items
/// (and set-op outputs) assume the default heuristic over the derived
/// cardinality.
fn derived_column_stats(
    query: &PreparedQuery,
    rows: f64,
    stats: &CatalogStats,
) -> Vec<(String, ColumnStats)> {
    let assumed = || ColumnStats::assumed(rows.max(0.0) as u64);
    let PreparedBody::Select(select) = &query.body else {
        return query
            .output
            .iter()
            .map(|o| (o.label.clone(), assumed()))
            .collect();
    };
    // range variable -> base table name, over the subquery's FROM tree.
    fn tables<'r>(rsn: &'r Rsn, out: &mut HashMap<&'r str, &'r str>) {
        match rsn {
            Rsn::Table { range_var, entry } => {
                out.insert(range_var.as_str(), entry.schema.table_name.as_str());
            }
            Rsn::Derived { .. } => {}
            Rsn::Join { left, right, .. } => {
                tables(left, out);
                tables(right, out);
            }
        }
    }
    let mut table_of: HashMap<&str, &str> = HashMap::new();
    for rsn in &select.from {
        tables(rsn, &mut table_of);
    }
    query
        .output
        .iter()
        .enumerate()
        .map(|(index, o)| {
            let col = select
                .items
                .iter()
                .find(|i| i.output == index)
                .and_then(|item| match &item.expr.kind {
                    TExprKind::Column { range_var, column } => table_of
                        .get(range_var.as_str())
                        .map(|table| stats.column(table, column)),
                    _ => None,
                })
                .unwrap_or_else(assumed);
            (o.label.clone(), col)
        })
        .collect()
}

// --- the XQuery-side FLWOR fuel walk ------------------------------------

/// Walks the generated program and estimates total evaluator fuel the way
/// the evaluator spends it: one unit per expression node per evaluation,
/// one per FLWOR tuple, `for` sources re-evaluated per upstream tuple.
/// Table-function sources (`ns0:CUSTOMERS()`) resolve to stats row counts
/// through the prepared query's schema imports; opaque filters assume
/// half the stream survives.
pub fn estimate_program_fuel(
    prepared: &PreparedQuery,
    program: &xq::Program,
    stats: &CatalogStats,
) -> f64 {
    // prefix -> row count, joined through namespace.
    let mut rows_by_namespace: HashMap<&str, f64> = HashMap::new();
    prepared.walk(&mut |node| {
        if let IrNode::Rsn(Rsn::Table { entry, .. }) = node {
            rows_by_namespace.insert(
                entry.schema.namespace.as_str(),
                stats.rows(&entry.schema.table_name) as f64,
            );
        }
    });
    let mut rows_by_prefix: HashMap<&str, f64> = HashMap::new();
    for import in &program.imports {
        if let Some(rows) = rows_by_namespace.get(import.namespace.as_str()) {
            rows_by_prefix.insert(import.prefix.as_str(), *rows);
        }
    }
    let walker = FuelWalker {
        rows_by_prefix,
        default_rows: stats.default_rows as f64,
    };
    walker.expr(&program.body).cost
}

/// `(cardinality, cost)` of one XQuery expression evaluation.
struct Fuel {
    card: f64,
    cost: f64,
}

struct FuelWalker<'a> {
    rows_by_prefix: HashMap<&'a str, f64>,
    default_rows: f64,
}

impl FuelWalker<'_> {
    fn expr(&self, e: &xq::Expr) -> Fuel {
        use xq::Expr::*;
        match e {
            Literal(_) | VarRef(_) | ContextItem => Fuel {
                card: 1.0,
                cost: 1.0,
            },
            EmptySequence => Fuel {
                card: 0.0,
                cost: 1.0,
            },
            Sequence(items) => {
                let mut card = 0.0;
                let mut cost = 1.0;
                for item in items {
                    let f = self.expr(item);
                    card += f.card;
                    cost += f.cost;
                }
                Fuel { card, cost }
            }
            FunctionCall { name, args } => {
                // A data-service table function materializes its rows.
                if args.is_empty() {
                    if let Some(prefix) = name.split(':').next() {
                        if let Some(rows) = self.rows_by_prefix.get(prefix) {
                            return Fuel {
                                card: *rows,
                                cost: 1.0 + *rows,
                            };
                        }
                        if name.starts_with("ns") && !name.starts_with("fn") {
                            return Fuel {
                                card: self.default_rows,
                                cost: 1.0 + self.default_rows,
                            };
                        }
                    }
                }
                let mut cost = 1.0;
                for a in args {
                    cost += self.expr(a).cost;
                }
                Fuel { card: 1.0, cost }
            }
            Path { start, steps } => {
                let base = match &**start {
                    xq::PathStart::Var(_) | xq::PathStart::Context => Fuel {
                        card: 1.0,
                        cost: 1.0,
                    },
                    xq::PathStart::Expr(e) => self.expr(e),
                };
                let mut cost = base.cost + steps.len() as f64;
                for step in steps {
                    for p in &step.predicates {
                        cost += base.card.max(1.0) * self.expr(p).cost;
                    }
                }
                Fuel {
                    card: base.card,
                    cost,
                }
            }
            Filter { base, predicates } => {
                let b = self.expr(base);
                let mut cost = b.cost;
                let mut card = b.card;
                for p in predicates {
                    cost += card.max(1.0) * self.expr(p).cost;
                    card *= 0.5;
                }
                Fuel { card, cost }
            }
            Flwor(flwor) => self.flwor(flwor),
            If { cond, then, els } => {
                let c = self.expr(cond);
                let t = self.expr(then);
                let e = self.expr(els);
                Fuel {
                    card: t.card.max(e.card),
                    cost: 1.0 + c.cost + t.cost.max(e.cost),
                }
            }
            Or(a, b) | And(a, b) => Fuel {
                card: 1.0,
                cost: 1.0 + self.expr(a).cost + self.expr(b).cost,
            },
            GeneralComp { left, right, .. }
            | ValueComp { left, right, .. }
            | Arith { left, right, .. } => Fuel {
                card: 1.0,
                cost: 1.0 + self.expr(left).cost + self.expr(right).cost,
            },
            UnaryMinus(a) => Fuel {
                card: 1.0,
                cost: 1.0 + self.expr(a).cost,
            },
            Quantified {
                source, satisfies, ..
            } => {
                let s = self.expr(source);
                Fuel {
                    card: 1.0,
                    cost: 1.0 + s.cost + s.card.max(1.0) * self.expr(satisfies).cost,
                }
            }
            Element(ctor) => self.element(ctor),
        }
    }

    fn element(&self, ctor: &xq::ElementCtor) -> Fuel {
        let mut cost = 1.0;
        for (_, parts) in &ctor.attributes {
            for part in parts {
                if let xq::AttrPart::Enclosed(e) = part {
                    cost += self.expr(e).cost;
                }
            }
        }
        for content in &ctor.content {
            match content {
                xq::Content::Text(_) => {}
                xq::Content::Enclosed(e) => cost += self.expr(e).cost,
                xq::Content::Element(nested) => cost += self.element(nested).cost,
            }
        }
        Fuel { card: 1.0, cost }
    }

    fn flwor(&self, flwor: &xq::Flwor) -> Fuel {
        let mut tuples = 1.0f64;
        let mut cost = 0.0f64;
        for clause in &flwor.clauses {
            match clause {
                xq::Clause::For { source, .. } => {
                    let s = self.expr(source);
                    // The source is re-evaluated per upstream tuple, and
                    // every produced tuple is charged.
                    cost += tuples.max(1.0) * s.cost;
                    tuples *= s.card.max(0.0);
                    cost += tuples;
                }
                xq::Clause::Let { value, .. } => {
                    cost += tuples.max(1.0) * self.expr(value).cost;
                }
                xq::Clause::Where(e) => {
                    cost += tuples.max(1.0) * self.expr(e).cost;
                    tuples *= 0.5;
                }
                xq::Clause::GroupBy(group) => {
                    for (key, _) in &group.keys {
                        cost += tuples.max(1.0) * self.expr(key).cost;
                    }
                    tuples = tuples.max(0.0).sqrt();
                }
                xq::Clause::OrderBy(specs) => {
                    for spec in specs {
                        cost += tuples.max(1.0) * self.expr(&spec.key).cost;
                    }
                    let n = tuples.max(1.0);
                    cost += n * n.log2().max(1.0);
                }
            }
        }
        let r = self.expr(&flwor.ret);
        cost += tuples.max(1.0) * r.cost;
        Fuel {
            card: tuples * r.card.max(1.0),
            cost,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aldsp_catalog::{
        ApplicationBuilder, CachedMetadataApi, InProcessMetadataApi, SqlColumnType, TableLocator,
    };
    use aldsp_core::{stage1, stage2};

    /// The outer `C.ID` is reachable only through the subquery's FROM
    /// tree — a join `ON`, or the WHERE of a derived table — and still
    /// ties the conjunct to `C`.
    #[test]
    fn range_vars_inside_a_subquerys_from_tree_are_collected() {
        let mut project = ApplicationBuilder::new("APP").project("P");
        for table in ["C", "A", "B"] {
            project = project
                .data_service(table)
                .physical_table(table, |t| t.column("ID", SqlColumnType::Integer, false))
                .finish_service();
        }
        let app = project.finish_project().build();
        let metadata = CachedMetadataApi::new(InProcessMetadataApi::new(
            TableLocator::for_application(&app),
        ));
        for subquery in [
            "SELECT A.ID FROM A INNER JOIN B ON B.ID = C.ID",
            "SELECT D.ID FROM (SELECT A.ID FROM A WHERE A.ID = C.ID) AS D",
        ] {
            let sql = format!("SELECT C.ID FROM C WHERE EXISTS ({subquery})");
            let parsed = stage1::parse(&sql).unwrap_or_else(|e| panic!("`{sql}`: {e}"));
            let prepared =
                stage2::prepare(&parsed, &metadata).unwrap_or_else(|e| panic!("`{sql}`: {e}"));
            let PreparedBody::Select(select) = &prepared.body else {
                panic!("a select")
            };
            let mut vars = Vec::new();
            collect_range_vars(select.where_clause.as_ref().expect("a WHERE"), &mut vars);
            assert!(vars.iter().any(|v| v == "C"), "`{sql}`: {vars:?}");
        }
    }
}
