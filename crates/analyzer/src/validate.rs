//! Layer 5: bounded translation validation (`V` codes).
//!
//! The four static layers check *necessary* conditions — invariants,
//! scopes, types, cost — but never the paper's central claim: that the
//! generated XQuery computes the same bag of rows as the source SQL
//! (§3.4/§3.5). This layer checks equivalence directly, bounded:
//!
//! 1. A **reference relational interpreter** ([`execute_reference`])
//!    executes the stage-2 [`PreparedQuery`] IR under SQL-92 bag
//!    semantics — 3VL WHERE/HAVING, GROUP BY and aggregates over groups
//!    discovered in row order, outer-join padding, set operations on
//!    multiplicities, DISTINCT, ORDER BY. It deliberately mirrors the
//!    oracle executor in `aldsp-relational::exec` (the differential
//!    harness's ground truth), but consumes the prepared IR instead of
//!    the SQL AST, so a stage-2 bug cannot hide in a shared frontend.
//! 2. A **witness-database enumerator** builds small databases over the
//!    tables the IR references: 0–2 rows per table drawn from a value
//!    domain seeded with literals harvested from the query (plus NULL,
//!    duplicates, empty strings, and off-by-one neighbours of integer
//!    literals so comparison boundaries are exercised). Columns the IR
//!    never touches are pinned to a single value. Databases are
//!    enumerated in ascending total-row order, so the first divergence
//!    found is a minimal witness.
//! 3. For each witness database, the prepared IR runs through the
//!    reference interpreter and the generated XQuery runs through the
//!    real `aldsp-xquery` evaluator against a [`FunctionSource`] serving
//!    the same rows as flat row elements (NULL = absent child, exactly
//!    like the driver's `DspServer`). The transport payload is decoded
//!    with the driver's own cell rules and the two row bags compared.
//!
//! Divergence classifies into stable codes `V001`–`V006`; each finding
//! carries the witness database and the differing rows. `V` findings are
//! hard errors ([`Severity::Error`]): an inequivalence is a
//! miscompilation, not advice.
//!
//! Soundness caveats (DESIGN.md §15): a clean validation is *bounded*
//! evidence, not proof — only enumerated databases are checked, and any
//! witness on which the reference interpreter itself errors (division by
//! zero on witness data, unsupported corner) is skipped rather than
//! reported, so the layer never converts its own incompleteness into a
//! false positive.

use crate::diag::{DiagCode, Diagnostic};
use aldsp_catalog::{ColumnMeta, SqlColumnType, TableSchema};
use aldsp_core::ir::{
    AggFunc, ArithOp, OutputColumn, PreparedBody, PreparedQuery, PreparedSelect, Rsn, TExpr,
    TExprKind,
};
use aldsp_core::wrapper;
use aldsp_relational::eval::{
    and3, compare_values, compare_with_op, or3, scalar_function, truth, truth_to_value,
};
use aldsp_relational::like::like_match;
use aldsp_relational::value::ArithOp as ValueArithOp;
use aldsp_relational::{decode_cell, ColumnInfo, Database, Relation, SqlValue, Table};
use aldsp_sql::{JoinKind, Literal, Quantifier, SetOp, TrimSide};
use aldsp_xml::{Atomic, Item, QName, Sequence};
use aldsp_xquery::{
    evaluate_program_exec, parse_program, ExecStrategy, FunctionSource, Program, XqError,
};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Budget knobs for the enumerator.
#[derive(Debug, Clone)]
pub struct ValidateOptions {
    /// Maximum witness databases to execute per translation. Databases
    /// are enumerated smallest-first, so lowering this trades coverage
    /// for latency but keeps witnesses minimal.
    pub max_databases: usize,
    /// Floor on candidate rows drawn per table before bag enumeration
    /// (the enumerator raises it to the longest column domain so every
    /// harvested constant appears in some candidate).
    pub candidate_rows: usize,
    /// Rows per table per witness database (0..=cap, capped at 3 — the
    /// bound that makes duplicate multiplicity, outer-join padding and
    /// small `COUNT(*)` thresholds observable while keeping enumeration
    /// tiny).
    pub max_rows_per_table: usize,
    /// `(table, column)` pairs declared unique keys: witness databases
    /// whose named column repeats a value (NULL included — key, not
    /// `UNIQUE`, semantics) are skipped, making the verdict *bounded
    /// equivalence relative to these integrity constraints*. Empty by
    /// default — plain validation quantifies over unconstrained
    /// databases. The optimizer seeds this from its catalog statistics
    /// so uniqueness-keyed rewrites (DISTINCT elimination, ORDER BY key
    /// pruning) are judged only on databases that can actually occur.
    pub key_columns: Vec<(String, String)>,
}

impl Default for ValidateOptions {
    fn default() -> ValidateOptions {
        ValidateOptions {
            max_databases: 1024,
            candidate_rows: 4,
            max_rows_per_table: 3,
            key_columns: Vec::new(),
        }
    }
}

impl ValidateOptions {
    /// A reduced budget for the per-translation debug hook, where the
    /// validator runs on every `stage3::generate` under test.
    pub fn quick() -> ValidateOptions {
        ValidateOptions {
            max_databases: 6,
            candidate_rows: 3,
            max_rows_per_table: 2,
            key_columns: Vec::new(),
        }
    }

    /// Declares unique-key constraints the witness enumerator must
    /// respect (see [`ValidateOptions::key_columns`]).
    pub fn with_key_columns(mut self, keys: Vec<(String, String)>) -> ValidateOptions {
        self.key_columns = keys;
        self
    }
}

/// What a validation run did, for harness reporting.
#[derive(Debug, Clone, Default)]
pub struct ValidationOutcome {
    /// Findings (at most one — validation stops at the first, minimal,
    /// diverging witness).
    pub diagnostics: Vec<Diagnostic>,
    /// Witness databases enumerated under the budget.
    pub databases_enumerated: usize,
    /// Witness databases actually executed (skips excluded).
    pub witnesses_checked: usize,
}

/// Validates one translation: prepared IR vs generated XQuery text (in
/// either transport). Returns only the findings.
pub fn check_equivalence(
    prepared: &PreparedQuery,
    xquery_text: &str,
    options: &ValidateOptions,
) -> Vec<Diagnostic> {
    validate_translation(prepared, xquery_text, options).diagnostics
}

/// Validates one translation, reporting enumeration counters along with
/// any finding.
pub fn validate_translation(
    prepared: &PreparedQuery,
    xquery_text: &str,
    options: &ValidateOptions,
) -> ValidationOutcome {
    let mut outcome = ValidationOutcome::default();
    // Unparsable text is layer 2's A100; nothing to execute here.
    let Ok(program) = parse_program(xquery_text) else {
        return outcome;
    };
    let shape = QueryShape::of(prepared);
    let params = shape.parameter_values();
    let databases = shape.enumerate_databases(options);
    outcome.databases_enumerated = databases.len();

    for db in &databases {
        let reference = match execute_reference(prepared, db, &params) {
            Ok(rel) => rel,
            // The reference erred on this witness (division by zero on
            // enumerated data, an unsupported corner): skip rather than
            // blame the translation.
            Err(_) => continue,
        };
        outcome.witnesses_checked += 1;
        let generated = run_generated(&program, db, &params, &prepared.output);
        if let Some(diag) = classify(prepared, db, &reference, generated) {
            outcome.diagnostics.push(diag);
            break;
        }
    }
    outcome
}

// ====================================================================
// Reference interpreter over the prepared IR
// ====================================================================

type VResult<T> = Result<T, String>;

/// A row binding, chained outward for correlated subqueries (the
/// interpreter-side analogue of the paper's context chain, §3.4.3).
struct Frame<'a> {
    rel: &'a Relation,
    row: &'a [SqlValue],
    parent: Option<&'a Frame<'a>>,
}

impl<'a> Frame<'a> {
    fn resolve(&self, range_var: &str, column: &str) -> VResult<SqlValue> {
        let found = self.rel.find_columns(Some(range_var), column);
        match found.as_slice() {
            [i] => Ok(self.row[*i].clone()),
            [] => match self.parent {
                Some(parent) => parent.resolve(range_var, column),
                None => Err(format!("unknown column {range_var}.{column}")),
            },
            _ => Err(format!("ambiguous column {range_var}.{column}")),
        }
    }
}

/// Executes a prepared query against an in-memory database under SQL-92
/// bag semantics. This is the layer's oracle; it never consults stage 3.
pub fn execute_reference(
    query: &PreparedQuery,
    db: &Database,
    params: &[SqlValue],
) -> Result<Relation, String> {
    exec_query(query, db, params, None)
}

fn exec_query(
    query: &PreparedQuery,
    db: &Database,
    params: &[SqlValue],
    outer: Option<&Frame<'_>>,
) -> VResult<Relation> {
    let mut rel = exec_body(&query.body, db, params, outer)?;
    if !query.order_by.is_empty() {
        let order = query.order_by.clone();
        let mut keyed: Vec<Vec<SqlValue>> = std::mem::take(&mut rel.rows);
        keyed.sort_by(|a, b| {
            for item in &order {
                let ord = a[item.column].sort_cmp(&b[item.column]);
                let ord = if item.ascending { ord } else { ord.reverse() };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
        rel.rows = keyed;
    }
    Ok(rel)
}

fn exec_body(
    body: &PreparedBody,
    db: &Database,
    params: &[SqlValue],
    outer: Option<&Frame<'_>>,
) -> VResult<Relation> {
    match body {
        PreparedBody::Select(select) => exec_select(select, db, params, outer),
        PreparedBody::SetOp {
            left,
            op,
            all,
            right,
            output,
        } => {
            let l = exec_body(left, db, params, outer)?;
            let r = exec_body(right, db, params, outer)?;
            if l.arity() != r.arity() {
                return Err(format!(
                    "set operands have different arity: {} vs {}",
                    l.arity(),
                    r.arity()
                ));
            }
            let mut rel = apply_set_op(l, r, *op, *all);
            rel.columns = output_columns(output);
            Ok(rel)
        }
    }
}

/// Bag-semantics set operations (SQL-92 §7.10), mirroring the oracle
/// executor: plain forms eliminate duplicates, ALL forms operate on
/// multiplicities.
fn apply_set_op(left: Relation, right: Relation, op: SetOp, all: bool) -> Relation {
    let columns = left.columns.clone();
    let count = |rel: &Relation| {
        let mut m: HashMap<String, usize> = HashMap::new();
        for row in &rel.rows {
            *m.entry(Relation::row_key(row)).or_insert(0) += 1;
        }
        m
    };
    let rows = match (op, all) {
        (SetOp::Union, true) => {
            let mut rows = left.rows;
            rows.extend(right.rows);
            rows
        }
        (SetOp::Union, false) => {
            let mut seen = HashMap::new();
            let mut rows = Vec::new();
            for row in left.rows.into_iter().chain(right.rows) {
                if seen.insert(Relation::row_key(&row), ()).is_none() {
                    rows.push(row);
                }
            }
            rows
        }
        (SetOp::Intersect, all) => {
            let mut right_counts = count(&right);
            let mut seen: HashMap<String, ()> = HashMap::new();
            let mut rows = Vec::new();
            for row in left.rows {
                let key = Relation::row_key(&row);
                match right_counts.get_mut(&key) {
                    Some(n) if *n > 0 => {
                        if all {
                            *n -= 1;
                            rows.push(row);
                        } else if seen.insert(key, ()).is_none() {
                            rows.push(row);
                        }
                    }
                    _ => {}
                }
            }
            rows
        }
        (SetOp::Except, all) => {
            let mut right_counts = count(&right);
            let mut seen: HashMap<String, ()> = HashMap::new();
            let mut rows = Vec::new();
            for row in left.rows {
                let key = Relation::row_key(&row);
                match right_counts.get_mut(&key) {
                    Some(n) if *n > 0 => {
                        if all {
                            *n -= 1;
                        }
                        // Plain EXCEPT: suppressed entirely.
                    }
                    _ => {
                        // ALL keeps every leftover; plain EXCEPT keeps the
                        // first occurrence only.
                        if all || seen.insert(key, ()).is_none() {
                            rows.push(row);
                        }
                    }
                }
            }
            rows
        }
    };
    Relation { columns, rows }
}

fn output_columns(output: &[OutputColumn]) -> Vec<ColumnInfo> {
    output
        .iter()
        .map(|o| ColumnInfo::new(o.label.clone(), None, o.sql_type, o.nullable))
        .collect()
}

fn exec_select(
    select: &PreparedSelect,
    db: &Database,
    params: &[SqlValue],
    outer: Option<&Frame<'_>>,
) -> VResult<Relation> {
    // FROM: cross join the comma list of RSNs.
    let mut from_rel: Option<Relation> = None;
    for rsn in &select.from {
        let r = exec_rsn(rsn, db, params, outer)?;
        from_rel = Some(match from_rel {
            None => r,
            Some(acc) => acc.cross_join(&r),
        });
    }
    let from_rel = from_rel.ok_or_else(|| "FROM clause is empty".to_string())?;

    // WHERE, under 3VL: keep only rows where the predicate is TRUE.
    let mut filtered_rows = Vec::new();
    for row in &from_rel.rows {
        let keep = match &select.where_clause {
            None => true,
            Some(predicate) => {
                let frame = Frame {
                    rel: &from_rel,
                    row,
                    parent: outer,
                };
                truth3(&eval_expr(predicate, db, params, Some(&frame))?)? == Some(true)
            }
        };
        if keep {
            filtered_rows.push(row.clone());
        }
    }
    let filtered = Relation {
        columns: from_rel.columns.clone(),
        rows: filtered_rows,
    };

    let mut projected = if select.grouped {
        project_grouped(select, &filtered, db, params, outer)?
    } else {
        project_rows(select, &filtered, db, params, outer)?
    };

    if select.distinct {
        let mut seen = HashMap::new();
        projected
            .rows
            .retain(|row| seen.insert(Relation::row_key(row), ()).is_none());
    }
    Ok(projected)
}

fn exec_rsn(
    rsn: &Rsn,
    db: &Database,
    params: &[SqlValue],
    outer: Option<&Frame<'_>>,
) -> VResult<Relation> {
    match rsn {
        Rsn::Table { range_var, entry } => {
            let table = db
                .table(&entry.schema.table_name)
                .ok_or_else(|| format!("unknown table {}", entry.schema.table_name))?;
            Ok(table.scan(range_var))
        }
        Rsn::Derived { range_var, query } => {
            let mut rel = exec_query(query, db, params, outer)?;
            // Re-qualify the subquery's output with the range variable,
            // exposing labels as column names (matching `Rsn::columns`).
            rel.columns = query
                .output
                .iter()
                .map(|o| {
                    ColumnInfo::new(
                        o.label.clone(),
                        Some(range_var.clone()),
                        o.sql_type,
                        o.nullable,
                    )
                })
                .collect();
            Ok(rel)
        }
        Rsn::Join {
            kind,
            left,
            right,
            on,
        } => {
            let l = exec_rsn(left, db, params, outer)?;
            let r = exec_rsn(right, db, params, outer)?;
            exec_join(l, r, *kind, on.as_ref(), db, params, outer)
        }
    }
}

fn exec_join(
    left: Relation,
    right: Relation,
    kind: JoinKind,
    on: Option<&TExpr>,
    db: &Database,
    params: &[SqlValue],
    outer: Option<&Frame<'_>>,
) -> VResult<Relation> {
    let mut columns = left.columns.clone();
    columns.extend(right.columns.iter().cloned());
    let combined = Relation::with_columns(columns);

    let matches_on = |joined: &[SqlValue]| -> VResult<bool> {
        match on {
            None => Ok(true),
            Some(predicate) => {
                let frame = Frame {
                    rel: &combined,
                    row: joined,
                    parent: outer,
                };
                Ok(truth3(&eval_expr(predicate, db, params, Some(&frame))?)? == Some(true))
            }
        }
    };

    let mut rows = Vec::new();
    let mut right_matched = vec![false; right.rows.len()];
    for left_row in &left.rows {
        let mut matched = false;
        for (ri, right_row) in right.rows.iter().enumerate() {
            let mut joined = left_row.clone();
            joined.extend(right_row.iter().cloned());
            if matches_on(&joined)? {
                matched = true;
                right_matched[ri] = true;
                rows.push(joined);
            }
        }
        if !matched && matches!(kind, JoinKind::LeftOuter | JoinKind::FullOuter) {
            let mut padded = left_row.clone();
            padded.extend(right.null_row());
            rows.push(padded);
        }
    }
    if matches!(kind, JoinKind::RightOuter | JoinKind::FullOuter) {
        for (ri, right_row) in right.rows.iter().enumerate() {
            if !right_matched[ri] {
                let mut padded = left.null_row();
                padded.extend(right_row.iter().cloned());
                rows.push(padded);
            }
        }
    }
    Ok(Relation {
        columns: combined.columns,
        rows,
    })
}

fn project_rows(
    select: &PreparedSelect,
    filtered: &Relation,
    db: &Database,
    params: &[SqlValue],
    outer: Option<&Frame<'_>>,
) -> VResult<Relation> {
    let columns = output_columns(&select.output);
    let mut rows = Vec::with_capacity(filtered.rows.len());
    for row in &filtered.rows {
        let frame = Frame {
            rel: filtered,
            row,
            parent: outer,
        };
        let mut out_row = vec![SqlValue::Null; select.output.len()];
        for item in &select.items {
            out_row[item.output] = eval_expr(&item.expr, db, params, Some(&frame))?;
        }
        rows.push(out_row);
    }
    Ok(Relation { columns, rows })
}

// ---- grouping ---------------------------------------------------------

fn project_grouped(
    select: &PreparedSelect,
    filtered: &Relation,
    db: &Database,
    params: &[SqlValue],
    outer: Option<&Frame<'_>>,
) -> VResult<Relation> {
    // Discover groups in row order, keyed by the group-key values.
    let mut groups: Vec<(Vec<SqlValue>, Vec<Vec<SqlValue>>)> = Vec::new();
    let mut index: HashMap<String, usize> = HashMap::new();
    for row in &filtered.rows {
        let frame = Frame {
            rel: filtered,
            row,
            parent: outer,
        };
        let mut keys = Vec::with_capacity(select.group_by.len());
        for k in &select.group_by {
            keys.push(eval_expr(k, db, params, Some(&frame))?);
        }
        let key_str = Relation::row_key(&keys);
        match index.get(&key_str) {
            Some(&g) => groups[g].1.push(row.clone()),
            None => {
                index.insert(key_str, groups.len());
                groups.push((keys, vec![row.clone()]));
            }
        }
    }
    // No GROUP BY but aggregates: one group over everything, even empty
    // input (SQL-92: `SELECT COUNT(*) FROM empty` is one row).
    if select.group_by.is_empty() && groups.is_empty() {
        groups.push((Vec::new(), Vec::new()));
    }

    let columns = output_columns(&select.output);
    let mut rows = Vec::with_capacity(groups.len());
    for (keys, group_rows) in &groups {
        if let Some(having) = &select.having {
            let reduced = reduce_grouped(
                having, select, keys, group_rows, filtered, db, params, outer,
            )?;
            let v = eval_expr(&reduced, db, params, outer)?;
            if truth3(&v)? != Some(true) {
                continue;
            }
        }
        let mut out_row = vec![SqlValue::Null; select.output.len()];
        for item in &select.items {
            let reduced = reduce_grouped(
                &item.expr, select, keys, group_rows, filtered, db, params, outer,
            )?;
            out_row[item.output] = eval_expr(&reduced, db, params, outer)?;
        }
        rows.push(out_row);
    }
    Ok(Relation { columns, rows })
}

/// Rewrites a grouped-context expression into one with no group-sensitive
/// leaves: group-key subexpressions become their key values and aggregate
/// calls are computed over the group's rows, both substituted as literal
/// values. The residue is evaluated by the ordinary evaluator (with the
/// outer scope only — subqueries in grouped context cannot see group
/// rows, matching the oracle). A bare column that is neither a group key
/// nor inside an aggregate is the SQL-92 GROUP BY violation layer 1
/// reports as A004; here it surfaces as an unresolvable column.
#[allow(clippy::too_many_arguments)]
fn reduce_grouped(
    expr: &TExpr,
    select: &PreparedSelect,
    keys: &[SqlValue],
    group_rows: &[Vec<SqlValue>],
    from_rel: &Relation,
    db: &Database,
    params: &[SqlValue],
    outer: Option<&Frame<'_>>,
) -> VResult<TExpr> {
    for (i, key_expr) in select.group_by.iter().enumerate() {
        if expr == key_expr {
            return Ok(value_to_literal(&keys[i]));
        }
    }
    if let TExprKind::Aggregate {
        func,
        distinct,
        arg,
    } = &expr.kind
    {
        let v = eval_aggregate(
            *func,
            *distinct,
            arg.as_deref(),
            group_rows,
            from_rel,
            db,
            params,
            outer,
        )?;
        return Ok(value_to_literal(&v));
    }
    let mut reduced = expr.clone();
    rewrite_children(&mut reduced, &mut |child| {
        let r = reduce_grouped(child, select, keys, group_rows, from_rel, db, params, outer)?;
        *child = r;
        Ok(())
    })?;
    Ok(reduced)
}

/// Applies `f` to each direct child expression, in place. Subquery kinds
/// are left untouched (including their comparison operand): in grouped
/// context they evaluate against the outer scope only, exactly like the
/// oracle executor.
fn rewrite_children(expr: &mut TExpr, f: &mut dyn FnMut(&mut TExpr) -> VResult<()>) -> VResult<()> {
    use TExprKind::*;
    match &mut expr.kind {
        Column { .. } | Literal(_) | Parameter(_) | Generated { .. } | Aggregate { .. } => Ok(()),
        Neg(e) | Not(e) | Cast { expr: e, .. } | IsNull { expr: e, .. } => f(e),
        Arith { left, right, .. }
        | Concat(left, right)
        | Compare { left, right, .. }
        | And(left, right)
        | Or(left, right) => {
            f(left)?;
            f(right)
        }
        ScalarFn { args, .. } => args.iter_mut().try_for_each(f),
        Case {
            operand,
            branches,
            else_result,
        } => {
            if let Some(o) = operand {
                f(o)?;
            }
            for (w, t) in branches.iter_mut() {
                f(w)?;
                f(t)?;
            }
            if let Some(e) = else_result {
                f(e)?;
            }
            Ok(())
        }
        Between {
            expr, low, high, ..
        } => {
            f(expr)?;
            f(low)?;
            f(high)
        }
        InList { expr, list, .. } => {
            f(expr)?;
            list.iter_mut().try_for_each(f)
        }
        Like {
            expr,
            pattern,
            escape,
            ..
        } => {
            f(expr)?;
            f(pattern)?;
            if let Some(e) = escape {
                f(e)?;
            }
            Ok(())
        }
        Substring {
            expr,
            start,
            length,
        } => {
            f(expr)?;
            f(start)?;
            if let Some(l) = length {
                f(l)?;
            }
            Ok(())
        }
        Trim {
            trim_chars, expr, ..
        } => {
            if let Some(c) = trim_chars {
                f(c)?;
            }
            f(expr)
        }
        Position { needle, haystack } => {
            f(needle)?;
            f(haystack)
        }
        InSubquery { .. } | Exists { .. } | ScalarSubquery(_) | Quantified { .. } => Ok(()),
    }
}

fn value_to_literal(v: &SqlValue) -> TExpr {
    let kind = match v {
        SqlValue::Null => TExprKind::Literal(Literal::Null),
        SqlValue::Int(i) => TExprKind::Literal(Literal::Integer(*i)),
        SqlValue::Decimal(d) => TExprKind::Literal(Literal::Decimal(*d)),
        SqlValue::Double(d) => TExprKind::Literal(Literal::Double(*d)),
        SqlValue::Str(s) => TExprKind::Literal(Literal::String(s.clone())),
        SqlValue::Date(d) => TExprKind::Literal(Literal::Date(d.clone())),
        // No boolean literal in SQL-92; encode as 1=1 / 1=0.
        SqlValue::Bool(b) => TExprKind::Compare {
            op: aldsp_sql::CompareOp::Eq,
            left: Box::new(TExpr::new(
                TExprKind::Literal(Literal::Integer(if *b { 1 } else { 0 })),
                Some(SqlColumnType::Integer),
                false,
            )),
            right: Box::new(TExpr::new(
                TExprKind::Literal(Literal::Integer(1)),
                Some(SqlColumnType::Integer),
                false,
            )),
        },
    };
    TExpr::new(kind, None, true)
}

#[allow(clippy::too_many_arguments)]
fn eval_aggregate(
    func: AggFunc,
    distinct: bool,
    arg: Option<&TExpr>,
    group_rows: &[Vec<SqlValue>],
    from_rel: &Relation,
    db: &Database,
    params: &[SqlValue],
    outer: Option<&Frame<'_>>,
) -> VResult<SqlValue> {
    // COUNT(*): the group's cardinality.
    let Some(arg) = arg else {
        return Ok(SqlValue::Int(group_rows.len() as i64));
    };

    // Evaluate the argument per row, dropping NULLs (SQL-92 aggregates
    // ignore NULL inputs).
    let mut values = Vec::with_capacity(group_rows.len());
    for row in group_rows {
        let frame = Frame {
            rel: from_rel,
            row,
            parent: outer,
        };
        let v = eval_expr(arg, db, params, Some(&frame))?;
        if !v.is_null() {
            values.push(v);
        }
    }
    if distinct {
        let mut seen = HashMap::new();
        values.retain(|v| seen.insert(v.group_key(), ()).is_none());
    }

    match func {
        AggFunc::Count => Ok(SqlValue::Int(values.len() as i64)),
        AggFunc::Min | AggFunc::Max => {
            let want_min = func == AggFunc::Min;
            let mut best: Option<SqlValue> = None;
            for v in values {
                best = Some(match best {
                    None => v,
                    Some(b) => {
                        let keep_new = match v.compare(&b).map_err(|e| e.message)? {
                            Some(Ordering::Less) => want_min,
                            Some(Ordering::Greater) => !want_min,
                            _ => false,
                        };
                        if keep_new {
                            v
                        } else {
                            b
                        }
                    }
                });
            }
            Ok(best.unwrap_or(SqlValue::Null))
        }
        AggFunc::Sum | AggFunc::Avg => {
            if values.is_empty() {
                return Ok(SqlValue::Null);
            }
            let mut all_int = true;
            let mut any_double = false;
            let mut int_sum: i64 = 0;
            let mut f_sum: f64 = 0.0;
            for v in &values {
                match v {
                    SqlValue::Int(i) => {
                        int_sum = int_sum
                            .checked_add(*i)
                            .ok_or_else(|| "SUM overflow".to_string())?;
                        f_sum += *i as f64;
                    }
                    SqlValue::Decimal(d) => {
                        all_int = false;
                        f_sum += d;
                    }
                    SqlValue::Double(d) => {
                        all_int = false;
                        any_double = true;
                        f_sum += d;
                    }
                    other => return Err(format!("aggregate over non-numeric value {other:?}")),
                }
            }
            if func == AggFunc::Sum {
                Ok(if all_int {
                    SqlValue::Int(int_sum)
                } else if any_double {
                    SqlValue::Double(f_sum)
                } else {
                    SqlValue::Decimal(f_sum)
                })
            } else {
                let avg = f_sum / values.len() as f64;
                Ok(if any_double {
                    SqlValue::Double(avg)
                } else {
                    SqlValue::Decimal(avg)
                })
            }
        }
    }
}

// ---- scalar evaluation ------------------------------------------------

fn truth3(v: &SqlValue) -> VResult<Option<bool>> {
    truth(v).map_err(|e| e.message)
}

fn negate_if(t: Option<bool>, negate: bool) -> Option<bool> {
    if negate {
        t.map(|b| !b)
    } else {
        t
    }
}

fn eval_expr(
    expr: &TExpr,
    db: &Database,
    params: &[SqlValue],
    frame: Option<&Frame<'_>>,
) -> VResult<SqlValue> {
    match &expr.kind {
        TExprKind::Column { range_var, column } => match frame {
            Some(f) => f.resolve(range_var, column),
            None => Err(format!("unknown column {range_var}.{column}")),
        },
        TExprKind::Literal(l) => Ok(literal_value(l)),
        TExprKind::Parameter(ordinal) => params
            .get(*ordinal)
            .cloned()
            .ok_or_else(|| format!("parameter {} not bound", ordinal + 1)),
        TExprKind::Neg(e) => match eval_expr(e, db, params, frame)? {
            SqlValue::Null => Ok(SqlValue::Null),
            SqlValue::Int(i) => i
                .checked_neg()
                .map(SqlValue::Int)
                .ok_or_else(|| "integer overflow".to_string()),
            SqlValue::Decimal(d) => Ok(SqlValue::Decimal(-d)),
            SqlValue::Double(d) => Ok(SqlValue::Double(-d)),
            other => Err(format!("cannot negate {other:?}")),
        },
        TExprKind::Not(e) => {
            let v = eval_expr(e, db, params, frame)?;
            Ok(truth_to_value(truth3(&v)?.map(|b| !b)))
        }
        TExprKind::Arith { op, left, right } => {
            let l = eval_expr(left, db, params, frame)?;
            let r = eval_expr(right, db, params, frame)?;
            let vop = match op {
                ArithOp::Add => ValueArithOp::Add,
                ArithOp::Sub => ValueArithOp::Sub,
                ArithOp::Mul => ValueArithOp::Mul,
                ArithOp::Div => ValueArithOp::Div,
            };
            l.arith(vop, &r).map_err(|e| e.message)
        }
        TExprKind::Concat(left, right) => {
            let l = eval_expr(left, db, params, frame)?;
            let r = eval_expr(right, db, params, frame)?;
            Ok(l.concat(&r))
        }
        TExprKind::Compare { op, left, right } => {
            let l = eval_expr(left, db, params, frame)?;
            let r = eval_expr(right, db, params, frame)?;
            Ok(truth_to_value(
                compare_with_op(&l, *op, &r).map_err(|e| e.message)?,
            ))
        }
        TExprKind::And(left, right) => {
            let l = truth3(&eval_expr(left, db, params, frame)?)?;
            // Short circuit: FALSE AND x is FALSE without evaluating x.
            if l == Some(false) {
                return Ok(SqlValue::Bool(false));
            }
            let r = truth3(&eval_expr(right, db, params, frame)?)?;
            Ok(truth_to_value(and3(l, r)))
        }
        TExprKind::Or(left, right) => {
            let l = truth3(&eval_expr(left, db, params, frame)?)?;
            if l == Some(true) {
                return Ok(SqlValue::Bool(true));
            }
            let r = truth3(&eval_expr(right, db, params, frame)?)?;
            Ok(truth_to_value(or3(l, r)))
        }
        TExprKind::ScalarFn { name, args } => {
            let mut values = Vec::with_capacity(args.len());
            for a in args {
                values.push(eval_expr(a, db, params, frame)?);
            }
            scalar_function(name, &values).map_err(|e| e.message)
        }
        TExprKind::Aggregate { .. } => Err("aggregate used outside grouping context".to_string()),
        TExprKind::Case {
            operand,
            branches,
            else_result,
        } => {
            for (when, then) in branches {
                let matched = match operand {
                    // Simple CASE compares operand = when.
                    Some(op_expr) => {
                        let lhs = eval_expr(op_expr, db, params, frame)?;
                        let rhs = eval_expr(when, db, params, frame)?;
                        compare_values(&lhs, &rhs)
                            .map_err(|e| e.message)?
                            .map(|o| o == Ordering::Equal)
                    }
                    // Searched CASE evaluates the predicate.
                    None => truth3(&eval_expr(when, db, params, frame)?)?,
                };
                if matched == Some(true) {
                    return eval_expr(then, db, params, frame);
                }
            }
            match else_result {
                Some(e) => eval_expr(e, db, params, frame),
                None => Ok(SqlValue::Null),
            }
        }
        TExprKind::Cast { expr: e, target } => {
            let v = eval_expr(e, db, params, frame)?;
            v.cast_to(*target).map_err(|e| e.message)
        }
        TExprKind::IsNull { expr: e, negated } => {
            let v = eval_expr(e, db, params, frame)?;
            Ok(SqlValue::Bool(v.is_null() != *negated))
        }
        TExprKind::Between {
            expr: e,
            low,
            high,
            negated,
        } => {
            let v = eval_expr(e, db, params, frame)?;
            let lo = eval_expr(low, db, params, frame)?;
            let hi = eval_expr(high, db, params, frame)?;
            let ge_lo = compare_values(&v, &lo)
                .map_err(|e| e.message)?
                .map(|o| o != Ordering::Less);
            let le_hi = compare_values(&v, &hi)
                .map_err(|e| e.message)?
                .map(|o| o != Ordering::Greater);
            Ok(truth_to_value(negate_if(and3(ge_lo, le_hi), *negated)))
        }
        TExprKind::InList {
            expr: e,
            list,
            negated,
        } => {
            let v = eval_expr(e, db, params, frame)?;
            let mut saw_unknown = false;
            for item in list {
                let candidate = eval_expr(item, db, params, frame)?;
                match compare_values(&v, &candidate).map_err(|e| e.message)? {
                    Some(Ordering::Equal) => {
                        return Ok(truth_to_value(negate_if(Some(true), *negated)))
                    }
                    Some(_) => {}
                    None => saw_unknown = true,
                }
            }
            let t = if saw_unknown { None } else { Some(false) };
            Ok(truth_to_value(negate_if(t, *negated)))
        }
        TExprKind::InSubquery {
            expr: e,
            query,
            negated,
        } => {
            let v = eval_expr(e, db, params, frame)?;
            let rel = exec_query(query, db, params, frame)?;
            require_arity(&rel, 1, "IN subquery")?;
            let mut saw_unknown = false;
            for row in &rel.rows {
                match compare_values(&v, &row[0]).map_err(|e| e.message)? {
                    Some(Ordering::Equal) => {
                        return Ok(truth_to_value(negate_if(Some(true), *negated)))
                    }
                    Some(_) => {}
                    None => saw_unknown = true,
                }
            }
            let t = if saw_unknown { None } else { Some(false) };
            Ok(truth_to_value(negate_if(t, *negated)))
        }
        TExprKind::Exists { query, negated } => {
            let rel = exec_query(query, db, params, frame)?;
            Ok(SqlValue::Bool(rel.rows.is_empty() == *negated))
        }
        TExprKind::ScalarSubquery(query) => {
            let rel = exec_query(query, db, params, frame)?;
            require_arity(&rel, 1, "scalar subquery")?;
            match rel.rows.len() {
                0 => Ok(SqlValue::Null),
                1 => Ok(rel.rows[0][0].clone()),
                n => Err(format!("scalar subquery returned {n} rows")),
            }
        }
        TExprKind::Quantified {
            expr: e,
            op,
            quantifier,
            query,
        } => {
            let v = eval_expr(e, db, params, frame)?;
            let rel = exec_query(query, db, params, frame)?;
            require_arity(&rel, 1, "quantified subquery")?;
            let mut any_true = false;
            let mut any_false = false;
            let mut any_unknown = false;
            for row in &rel.rows {
                match compare_with_op(&v, *op, &row[0]).map_err(|e| e.message)? {
                    Some(true) => any_true = true,
                    Some(false) => any_false = true,
                    None => any_unknown = true,
                }
            }
            // SQL-92 quantified truth tables: ANY is an OR over the rows,
            // ALL an AND; empty subquery → FALSE for ANY, TRUE for ALL.
            let t = match quantifier {
                Quantifier::Any => {
                    if any_true {
                        Some(true)
                    } else if any_unknown {
                        None
                    } else {
                        Some(false)
                    }
                }
                Quantifier::All => {
                    if any_false {
                        Some(false)
                    } else if any_unknown {
                        None
                    } else {
                        Some(true)
                    }
                }
            };
            Ok(truth_to_value(t))
        }
        TExprKind::Like {
            expr: e,
            pattern,
            escape,
            negated,
        } => {
            let v = eval_expr(e, db, params, frame)?;
            let p = eval_expr(pattern, db, params, frame)?;
            let esc = match escape {
                Some(esc_expr) => {
                    let ev = eval_expr(esc_expr, db, params, frame)?;
                    match ev {
                        SqlValue::Null => return Ok(SqlValue::Null),
                        SqlValue::Str(s) if s.chars().count() == 1 => s.chars().next(),
                        other => {
                            return Err(format!("ESCAPE must be a single character, got {other:?}"))
                        }
                    }
                }
                None => None,
            };
            match (&v, &p) {
                (SqlValue::Null, _) | (_, SqlValue::Null) => Ok(SqlValue::Null),
                _ => {
                    let matched = like_match(&v.display_text(), &p.display_text(), esc)
                        .map_err(|e| e.message)?;
                    Ok(SqlValue::Bool(matched != *negated))
                }
            }
        }
        TExprKind::Substring {
            expr: e,
            start,
            length,
        } => {
            let s = eval_expr(e, db, params, frame)?;
            let st = eval_expr(start, db, params, frame)?;
            let len = match length {
                Some(l) => Some(eval_expr(l, db, params, frame)?),
                None => None,
            };
            if s.is_null() || st.is_null() || len.as_ref().is_some_and(|l| l.is_null()) {
                return Ok(SqlValue::Null);
            }
            let text = s.display_text();
            let start_pos = int_of(&st, "SUBSTRING start")?;
            let length_n = match &len {
                Some(l) => {
                    let n = int_of(l, "SUBSTRING length")?;
                    if n < 0 {
                        return Err("negative SUBSTRING length".to_string());
                    }
                    Some(n)
                }
                None => None,
            };
            Ok(SqlValue::Str(sql_substring(&text, start_pos, length_n)))
        }
        TExprKind::Trim {
            side,
            trim_chars,
            expr: e,
        } => {
            let v = eval_expr(e, db, params, frame)?;
            if v.is_null() {
                return Ok(SqlValue::Null);
            }
            let pad = match trim_chars {
                Some(c) => {
                    let cv = eval_expr(c, db, params, frame)?;
                    if cv.is_null() {
                        return Ok(SqlValue::Null);
                    }
                    let s = cv.display_text();
                    let mut chars = s.chars();
                    match (chars.next(), chars.next()) {
                        (Some(ch), None) => ch,
                        _ => return Err("TRIM character must be a single character".to_string()),
                    }
                }
                None => ' ',
            };
            let text = v.display_text();
            let trimmed = match side {
                TrimSide::Both => text.trim_matches(pad),
                TrimSide::Leading => text.trim_start_matches(pad),
                TrimSide::Trailing => text.trim_end_matches(pad),
            };
            Ok(SqlValue::Str(trimmed.to_string()))
        }
        TExprKind::Position { needle, haystack } => {
            let n = eval_expr(needle, db, params, frame)?;
            let h = eval_expr(haystack, db, params, frame)?;
            if n.is_null() || h.is_null() {
                return Ok(SqlValue::Null);
            }
            let needle_text = n.display_text();
            let haystack_text = h.display_text();
            // SQL POSITION is 1-based; 0 means not found; empty needle → 1.
            let pos = if needle_text.is_empty() {
                1
            } else {
                match haystack_text.find(&needle_text) {
                    Some(byte) => haystack_text[..byte].chars().count() as i64 + 1,
                    None => 0,
                }
            };
            Ok(SqlValue::Int(pos))
        }
        TExprKind::Generated { .. } => Err("stage-3 internal node in stage-2 output".to_string()),
    }
}

/// SQL SUBSTRING semantics: 1-based, start may be ≤ 0 (window clips).
fn sql_substring(text: &str, start: i64, length: Option<i64>) -> String {
    let chars: Vec<char> = text.chars().collect();
    let end_exclusive = match length {
        Some(l) => start.saturating_add(l),
        None => i64::MAX,
    };
    let from = (start.max(1) - 1).min(chars.len() as i64) as usize;
    let to = (end_exclusive - 1).clamp(0, chars.len() as i64) as usize;
    if from >= to {
        String::new()
    } else {
        chars[from..to].iter().collect()
    }
}

fn int_of(v: &SqlValue, what: &str) -> VResult<i64> {
    match v {
        SqlValue::Int(i) => Ok(*i),
        SqlValue::Decimal(d) | SqlValue::Double(d) => Ok(*d as i64),
        other => Err(format!("{what} must be numeric, got {other:?}")),
    }
}

fn require_arity(rel: &Relation, n: usize, what: &str) -> VResult<()> {
    if rel.arity() == n {
        Ok(())
    } else {
        Err(format!(
            "{what} must return {n} column(s), returned {}",
            rel.arity()
        ))
    }
}

fn literal_value(l: &Literal) -> SqlValue {
    match l {
        Literal::Integer(i) => SqlValue::Int(*i),
        Literal::Decimal(d) => SqlValue::Decimal(*d),
        Literal::Double(d) => SqlValue::Double(*d),
        Literal::String(s) => SqlValue::Str(s.clone()),
        Literal::Date(d) => SqlValue::Date(d.clone()),
        Literal::Null => SqlValue::Null,
    }
}

// ====================================================================
// Witness-database enumeration
// ====================================================================

/// What the enumerator learned about a query: the tables it scans, which
/// columns it touches, and the constants it compares against.
struct QueryShape {
    /// Table name → schema, in deterministic order.
    tables: BTreeMap<String, TableSchema>,
    /// `(table, column)` pairs referenced anywhere in the IR.
    touched: BTreeSet<(String, String)>,
    /// Harvested literal domains.
    ints: BTreeSet<i64>,
    strings: BTreeSet<String>,
    decimals: Vec<f64>,
    dates: BTreeSet<String>,
    /// Parameter ordinal → annotated type.
    param_types: BTreeMap<usize, Option<SqlColumnType>>,
}

impl QueryShape {
    fn of(query: &PreparedQuery) -> QueryShape {
        let mut shape = QueryShape {
            tables: BTreeMap::new(),
            touched: BTreeSet::new(),
            ints: BTreeSet::new(),
            strings: BTreeSet::new(),
            decimals: Vec::new(),
            dates: BTreeSet::new(),
            param_types: BTreeMap::new(),
        };
        // Range variable → table name(s); collisions across scopes are
        // resolved by over-marking (pruning is an optimization, marking a
        // column touched in two tables is merely less pruning).
        let mut rv_tables: Vec<(String, String)> = Vec::new();
        let mut columns: Vec<(String, String)> = Vec::new();
        shape.walk_query(query, &mut rv_tables, &mut columns);
        for (rv, col) in &columns {
            for (rv2, table) in &rv_tables {
                if rv == rv2 {
                    shape.touched.insert((table.clone(), col.clone()));
                }
            }
        }
        shape
    }

    fn walk_query(
        &mut self,
        query: &PreparedQuery,
        rv_tables: &mut Vec<(String, String)>,
        columns: &mut Vec<(String, String)>,
    ) {
        self.walk_body(&query.body, rv_tables, columns);
    }

    fn walk_body(
        &mut self,
        body: &PreparedBody,
        rv_tables: &mut Vec<(String, String)>,
        columns: &mut Vec<(String, String)>,
    ) {
        match body {
            PreparedBody::Select(select) => {
                for rsn in &select.from {
                    self.walk_rsn(rsn, rv_tables, columns);
                }
                for item in &select.items {
                    self.walk_expr(&item.expr, rv_tables, columns);
                }
                for e in select
                    .where_clause
                    .iter()
                    .chain(select.group_by.iter())
                    .chain(select.having.iter())
                {
                    self.walk_expr(e, rv_tables, columns);
                }
            }
            PreparedBody::SetOp { left, right, .. } => {
                self.walk_body(left, rv_tables, columns);
                self.walk_body(right, rv_tables, columns);
            }
        }
    }

    fn walk_rsn(
        &mut self,
        rsn: &Rsn,
        rv_tables: &mut Vec<(String, String)>,
        columns: &mut Vec<(String, String)>,
    ) {
        match rsn {
            Rsn::Table { range_var, entry } => {
                let name = entry.schema.table_name.clone();
                self.tables
                    .entry(name.clone())
                    .or_insert_with(|| entry.schema.clone());
                rv_tables.push((range_var.clone(), name));
            }
            Rsn::Derived { query, .. } => self.walk_query(query, rv_tables, columns),
            Rsn::Join {
                left, right, on, ..
            } => {
                self.walk_rsn(left, rv_tables, columns);
                self.walk_rsn(right, rv_tables, columns);
                if let Some(on) = on {
                    self.walk_expr(on, rv_tables, columns);
                }
            }
        }
    }

    fn walk_expr(
        &mut self,
        expr: &TExpr,
        rv_tables: &mut Vec<(String, String)>,
        columns: &mut Vec<(String, String)>,
    ) {
        match &expr.kind {
            TExprKind::Column { range_var, column } => {
                columns.push((range_var.clone(), column.clone()));
            }
            TExprKind::Literal(l) => self.harvest(l),
            TExprKind::Parameter(n) => {
                self.param_types.entry(*n).or_insert(expr.ty);
            }
            TExprKind::Like { pattern, .. } => {
                // The pattern with wildcards resolved is a string that
                // *matches*; the defaults provide non-matching strings.
                if let TExprKind::Literal(Literal::String(p)) = &pattern.kind {
                    let resolved: String = p
                        .chars()
                        .filter(|c| *c != '%')
                        .map(|c| if c == '_' { 'x' } else { c })
                        .collect();
                    self.strings.insert(resolved);
                }
            }
            TExprKind::InSubquery { query, .. }
            | TExprKind::Exists { query, .. }
            | TExprKind::ScalarSubquery(query)
            | TExprKind::Quantified { query, .. } => {
                self.walk_query(query, rv_tables, columns);
            }
            _ => {}
        }
        expr.visit_children(&mut |child| self.walk_expr(child, rv_tables, columns));
    }

    fn harvest(&mut self, l: &Literal) {
        match l {
            Literal::Integer(i) => {
                self.ints.insert(*i);
                // The off-by-one neighbour makes strict-vs-inclusive
                // comparison boundaries observable.
                self.ints.insert(i.saturating_add(1));
            }
            Literal::Decimal(d) | Literal::Double(d) => {
                if !self.decimals.iter().any(|x| x.to_bits() == d.to_bits()) {
                    self.decimals.push(*d);
                }
            }
            Literal::String(s) => {
                self.strings.insert(s.clone());
            }
            Literal::Date(d) => {
                self.dates.insert(d.clone());
            }
            Literal::Null => {}
        }
    }

    /// Deterministic values for `?` parameters, typed from the stage-2
    /// annotation.
    fn parameter_values(&self) -> Vec<SqlValue> {
        let max = self.param_types.keys().copied().max().map_or(0, |m| m + 1);
        (0..max)
            .map(|i| match self.param_types.get(&i).copied().flatten() {
                Some(t) if t.is_character() => SqlValue::Str("a".to_string()),
                Some(SqlColumnType::Decimal) => SqlValue::Decimal(1.5),
                Some(SqlColumnType::Real) | Some(SqlColumnType::Double) => SqlValue::Double(1.5),
                Some(SqlColumnType::Date) => SqlValue::Date("2006-01-01".to_string()),
                Some(SqlColumnType::Boolean) => SqlValue::Bool(true),
                _ => SqlValue::Int(1),
            })
            .collect()
    }

    /// The value domain for one column. Untouched columns are pinned to
    /// a single value; touched columns draw from the harvested literals
    /// plus small defaults, NULL last when permitted.
    fn domain(&self, table: &str, col: &ColumnMeta) -> Vec<SqlValue> {
        let touched = self
            .touched
            .contains(&(table.to_string(), col.name.clone()));
        if !touched {
            return vec![if col.nullable {
                SqlValue::Null
            } else {
                pinned_value(col.sql_type)
            }];
        }
        let mut domain: Vec<SqlValue> = Vec::new();
        match col.sql_type {
            SqlColumnType::Smallint | SqlColumnType::Integer | SqlColumnType::Bigint => {
                domain.push(SqlValue::Int(0));
                domain.push(SqlValue::Int(1));
                for i in &self.ints {
                    if domain.len() >= 6 {
                        break;
                    }
                    if !matches!(i, 0 | 1) {
                        domain.push(SqlValue::Int(*i));
                    }
                }
            }
            SqlColumnType::Decimal => {
                domain.push(SqlValue::Decimal(0.0));
                domain.push(SqlValue::Decimal(1.5));
                // Integer literals compare against decimal columns all
                // the time (`CREDIT BETWEEN 35 AND 549`) — pool them in,
                // or such predicates are false on every witness.
                for d in self
                    .decimals
                    .iter()
                    .copied()
                    .chain(self.ints.iter().map(|i| *i as f64))
                {
                    if domain.len() >= 6 {
                        break;
                    }
                    if !domain.contains(&SqlValue::Decimal(d)) {
                        domain.push(SqlValue::Decimal(d));
                    }
                }
            }
            SqlColumnType::Real | SqlColumnType::Double => {
                domain.push(SqlValue::Double(0.0));
                domain.push(SqlValue::Double(1.5));
                for d in self
                    .decimals
                    .iter()
                    .copied()
                    .chain(self.ints.iter().map(|i| *i as f64))
                {
                    if domain.len() >= 6 {
                        break;
                    }
                    if !domain.contains(&SqlValue::Double(d)) {
                        domain.push(SqlValue::Double(d));
                    }
                }
            }
            SqlColumnType::Char | SqlColumnType::Varchar => {
                domain.push(SqlValue::Str(String::new()));
                domain.push(SqlValue::Str("a".to_string()));
                for s in &self.strings {
                    if domain.len() >= 6 {
                        break;
                    }
                    if !s.is_empty() && s != "a" {
                        domain.push(SqlValue::Str(s.clone()));
                    }
                }
            }
            SqlColumnType::Date => {
                // The sentinels sit below and above any plausible
                // harvested date, so strict-vs-inclusive boundaries on
                // date comparisons stay observable from both sides
                // (dates compare lexically in ISO form).
                domain.push(SqlValue::Date("1999-01-01".to_string()));
                domain.push(SqlValue::Date("2006-01-01".to_string()));
                for d in &self.dates {
                    if domain.len() >= 5 {
                        break;
                    }
                    if !domain.contains(&SqlValue::Date(d.clone())) {
                        domain.push(SqlValue::Date(d.clone()));
                    }
                }
                domain.push(SqlValue::Date("2099-12-31".to_string()));
            }
            SqlColumnType::Boolean => {
                domain.push(SqlValue::Bool(false));
                domain.push(SqlValue::Bool(true));
            }
        }
        if col.nullable {
            domain.push(SqlValue::Null);
        }
        domain
    }

    /// Enumerates witness databases in ascending total-row order: every
    /// combination of per-table row bags of size `0..=max_rows_per_table`
    /// drawn from diagonal samples of the column domains, truncated at
    /// `max_databases`. Within one total size, databases whose rows use
    /// *aligned* candidate indices come first: because the domains are
    /// pooled across columns and tables, rows at nearby indices carry
    /// matching join keys and boundary constants, so the distinguishing
    /// multi-table witnesses land inside the budget instead of behind a
    /// wall of unrelated cross products.
    fn enumerate_databases(&self, options: &ValidateOptions) -> Vec<Database> {
        let tables: Vec<(&String, &TableSchema)> = self.tables.iter().collect();
        if tables.is_empty() {
            // Table-free queries still get one (empty) database so the
            // two sides are compared at least once.
            return vec![Database::new()];
        }

        // Candidate rows per table: diagonal sampling over the domains,
        // so NULLs, duplicates-by-construction and harvested constants
        // all appear without a combinatorial product. Two interleaved
        // families — forward (`d[r + c]`) and backward (`d[r - c]`) —
        // because a single diagonal always pairs a column value with its
        // domain-order neighbour, leaving cross-column combinations
        // like (boundary constant, small join key) unreachable. `k`
        // grows to the longest domain so every value appears in some
        // candidate for every column, then the row count is capped by
        // how many tables multiply into each witness.
        let per_table_cap = match tables.len() {
            1 => 16,
            2 => 10,
            _ => 6,
        };
        let mut candidates: Vec<Vec<Vec<SqlValue>>> = Vec::with_capacity(tables.len());
        for (name, schema) in &tables {
            let domains: Vec<Vec<SqlValue>> = schema
                .columns
                .iter()
                .map(|c| self.domain(name, c))
                .collect();
            let longest = domains.iter().map(|d| d.len()).max().unwrap_or(1);
            let k = options.candidate_rows.max(1).max(longest);
            let mut rows: Vec<Vec<SqlValue>> = Vec::new();
            for r in 0..k {
                let forward: Vec<SqlValue> = domains
                    .iter()
                    .enumerate()
                    .map(|(c, d)| d[(r + c) % d.len()].clone())
                    .collect();
                if !rows.contains(&forward) {
                    rows.push(forward);
                }
                let backward: Vec<SqlValue> = domains
                    .iter()
                    .enumerate()
                    .map(|(c, d)| d[(r + d.len() - (c % d.len())) % d.len()].clone())
                    .collect();
                if !rows.contains(&backward) {
                    rows.push(backward);
                }
            }
            rows.truncate(per_table_cap.max(options.candidate_rows));
            candidates.push(rows);
        }

        // Per-table bags by size: [] | [i] | [i, j] | [i, j, l] with
        // i ≤ j ≤ l — duplicates included, for multiplicity witnesses;
        // size 3 makes `HAVING COUNT(*) >= 3`-style thresholds
        // reachable.
        let max_size = options.max_rows_per_table.min(3);
        let bags_by_size = |k: usize| -> Vec<Vec<Vec<usize>>> {
            let mut by_size = vec![vec![Vec::new()]];
            if max_size >= 1 {
                by_size.push((0..k).map(|i| vec![i]).collect());
            }
            if max_size >= 2 {
                let mut pairs = Vec::new();
                for i in 0..k {
                    for j in i..k {
                        pairs.push(vec![i, j]);
                    }
                }
                by_size.push(pairs);
            }
            if max_size >= 3 {
                let mut triples = Vec::new();
                for i in 0..k {
                    for j in i..k {
                        for l in j..k {
                            triples.push(vec![i, j, l]);
                        }
                    }
                }
                by_size.push(triples);
            }
            by_size
        };
        let table_bags: Vec<Vec<Vec<Vec<usize>>>> = candidates
            .iter()
            .map(|rows| bags_by_size(rows.len()))
            .collect();

        // Enumerate by ascending total rows so the first diverging
        // witness is minimal; within one total, sort by candidate-index
        // spread so aligned (join-compatible) row combinations come
        // before the long tail of unrelated products.
        let mut databases: Vec<Database> = Vec::new();
        let max_total: usize = table_bags.iter().map(|b| b.len() - 1).sum();
        for total in 0..=max_total {
            if databases.len() >= options.max_databases {
                break;
            }
            // All ways to split `total` rows over the tables.
            let mut splits: Vec<Vec<usize>> = Vec::new();
            let mut sizes = vec![0usize; tables.len()];
            fn split_rows(
                t: usize,
                remaining: usize,
                sizes: &mut Vec<usize>,
                table_bags: &[Vec<Vec<Vec<usize>>>],
                splits: &mut Vec<Vec<usize>>,
            ) {
                if t == sizes.len() {
                    if remaining == 0 {
                        splits.push(sizes.clone());
                    }
                    return;
                }
                let max_here = table_bags[t].len() - 1;
                for s in 0..=max_here.min(remaining) {
                    sizes[t] = s;
                    split_rows(t + 1, remaining - s, sizes, table_bags, splits);
                }
                sizes[t] = 0;
            }
            split_rows(0, total, &mut sizes, &table_bags, &mut splits);

            // One batch of (spread, bag choice per table) for the whole
            // total; stable sort keeps enumeration deterministic.
            let mut batch: Vec<(usize, Vec<(usize, usize)>)> = Vec::new();
            for split in &splits {
                let per_table: Vec<&Vec<Vec<usize>>> = split
                    .iter()
                    .enumerate()
                    .map(|(i, &s)| &table_bags[i][s])
                    .collect();
                let mut idx = vec![0usize; per_table.len()];
                'product: loop {
                    let mut lo = usize::MAX;
                    let mut hi = 0usize;
                    for (i, &bag_i) in idx.iter().enumerate() {
                        for &row_i in &per_table[i][bag_i] {
                            lo = lo.min(row_i);
                            hi = hi.max(row_i);
                        }
                    }
                    let spread = if lo == usize::MAX { 0 } else { hi - lo };
                    batch.push((
                        spread,
                        idx.iter()
                            .enumerate()
                            .map(|(i, &bag_i)| (split[i], bag_i))
                            .collect(),
                    ));
                    let mut d = 0;
                    loop {
                        idx[d] += 1;
                        if idx[d] < per_table[d].len() {
                            break;
                        }
                        idx[d] = 0;
                        d += 1;
                        if d == idx.len() {
                            break 'product;
                        }
                    }
                }
            }
            batch.sort_by_key(|(spread, _)| *spread);
            for (_, choice) in batch {
                if databases.len() >= options.max_databases {
                    break;
                }
                let mut db = Database::new();
                for (i, (_, schema)) in tables.iter().enumerate() {
                    let (size, bag_i) = choice[i];
                    let mut table = Table::new((*schema).clone());
                    for &row_i in &table_bags[i][size][bag_i] {
                        table.insert(candidates[i][row_i].clone());
                    }
                    db.add_table(table);
                }
                if !respects_keys(&db, &options.key_columns) {
                    continue;
                }
                databases.push(db);
            }
        }
        databases
    }
}

/// Whether `db` satisfies the declared key constraints: within each
/// constrained table the key column's values are pairwise distinct,
/// counting NULL as a value (key semantics — at most one NULL-keyed
/// row), so `SELECT DISTINCT` over a projection containing the key can
/// never collapse two rows of these witnesses.
fn respects_keys(db: &Database, keys: &[(String, String)]) -> bool {
    for (table_name, column) in keys {
        let Some(table) = db.table(table_name) else {
            continue;
        };
        let Some(ci) = table.schema.columns.iter().position(|c| c.name == *column) else {
            continue;
        };
        for (i, row) in table.rows.iter().enumerate() {
            if table.rows[..i].iter().any(|other| other[ci] == row[ci]) {
                return false;
            }
        }
    }
    true
}

fn pinned_value(t: SqlColumnType) -> SqlValue {
    match t {
        SqlColumnType::Smallint | SqlColumnType::Integer | SqlColumnType::Bigint => {
            SqlValue::Int(7)
        }
        SqlColumnType::Decimal => SqlValue::Decimal(7.0),
        SqlColumnType::Real | SqlColumnType::Double => SqlValue::Double(7.0),
        SqlColumnType::Char | SqlColumnType::Varchar => SqlValue::Str("p".to_string()),
        SqlColumnType::Date => SqlValue::Date("2006-12-31".to_string()),
        SqlColumnType::Boolean => SqlValue::Bool(true),
    }
}

// ====================================================================
// Generated-query execution (the XQuery world)
// ====================================================================

/// Serves witness tables to the XQuery evaluator exactly as the driver's
/// `DspServer` does: one flat row element per row, NULL = absent child.
struct WitnessSource<'a> {
    db: &'a Database,
}

impl FunctionSource for WitnessSource<'_> {
    fn call(
        &self,
        _namespace: Option<&str>,
        local: &str,
        args: &[Sequence],
    ) -> Result<Sequence, XqError> {
        let table = self
            .db
            .table(local)
            .ok_or_else(|| XqError::new(format!("unknown data-service function {local}")))?;
        if !args.is_empty() {
            return Err(XqError::new(format!(
                "data-service function {local} takes no arguments"
            )));
        }
        let row_name = QName::prefixed("ns0".to_string(), table.schema.row_element.clone());
        let items: Vec<Item> = table
            .rows
            .iter()
            .map(|row| {
                Item::element(aldsp_xml::flat::build_row(
                    &row_name,
                    table
                        .schema
                        .columns
                        .iter()
                        .zip(row)
                        .map(|(c, v)| (c.name.as_str(), v.to_atomic())),
                ))
            })
            .collect();
        Ok(Sequence::from_items(items))
    }
}

/// Runs the generated program against a witness database and decodes the
/// transport payload (either transport) back into SQL rows.
fn run_generated(
    program: &Program,
    db: &Database,
    params: &[SqlValue],
    output: &[OutputColumn],
) -> Result<Vec<Vec<SqlValue>>, String> {
    let source = WitnessSource { db };
    let vars: Vec<(String, Sequence)> = params
        .iter()
        .enumerate()
        .map(|(i, v)| {
            let seq = match v.to_atomic() {
                Some(a) => Sequence::singleton(a),
                None => Sequence::empty(),
            };
            (format!("sqlParam{}", i + 1), seq)
        })
        .collect();
    // The reference interpreter, deliberately: the validator is what the
    // streaming pipeline is checked against.
    let result = evaluate_program_exec(program, &source, &vars, None, ExecStrategy::NestedLoop)
        .map_err(|e| format!("evaluate: {e}"))?;
    decode_result(&result, output)
}

fn decode_result(result: &Sequence, output: &[OutputColumn]) -> Result<Vec<Vec<SqlValue>>, String> {
    let Some(item) = result.as_singleton() else {
        return Err(format!(
            "expected a singleton payload, got {} items",
            result.len()
        ));
    };
    match item {
        // Delimited transport: one string, §4's separators.
        Item::Atomic(Atomic::String(payload)) => {
            let raw = wrapper::parse_delimited(payload, output.len())?;
            raw.into_iter()
                .map(|row| {
                    row.into_iter()
                        .zip(output)
                        .map(|(cell, col)| decode_cell(cell, col.sql_type))
                        .collect::<Result<Vec<_>, _>>()
                })
                .collect()
        }
        // XML transport: a RECORDSET element of RECORD rows.
        Item::Node(_) => {
            let element = item
                .as_element()
                .ok_or_else(|| "payload node is not an element".to_string())?;
            if element.name.local_part() != "RECORDSET" {
                return Err(format!(
                    "expected a RECORDSET payload, got <{}>",
                    element.name.local_part()
                ));
            }
            let mut rows = Vec::new();
            for record in element.children_named("RECORD") {
                let mut row = Vec::with_capacity(output.len());
                for col in output {
                    let cell = record
                        .children_named(&col.name)
                        .next()
                        .map(|e| e.string_value());
                    row.push(decode_cell(cell, col.sql_type)?);
                }
                rows.push(row);
            }
            Ok(rows)
        }
        Item::Atomic(other) => Err(format!("unexpected atomic payload {other:?}")),
    }
}

// ====================================================================
// Comparison and classification
// ====================================================================

/// Two cells agree when both are NULL or their grouping keys coincide
/// (tolerant of Int-vs-Decimal decode typing, like the differential
/// harness).
fn cells_agree(a: &SqlValue, b: &SqlValue) -> bool {
    match (a.is_null(), b.is_null()) {
        (true, true) => true,
        (true, false) | (false, true) => false,
        (false, false) => a.group_key() == b.group_key(),
    }
}

fn canonical_sort(rows: &mut [Vec<SqlValue>]) {
    rows.sort_by(|a, b| Relation::row_key(a).cmp(&Relation::row_key(b)));
}

fn classify(
    prepared: &PreparedQuery,
    db: &Database,
    reference: &Relation,
    generated: Result<Vec<Vec<SqlValue>>, String>,
) -> Option<Diagnostic> {
    let witness = render_db(db);
    let gen_rows = match generated {
        Ok(rows) => rows,
        Err(e) => {
            return Some(Diagnostic::new(
                DiagCode::V006,
                format!(
                    "the generated query failed where the reference succeeds ({e}) on witness {witness}"
                ),
            ));
        }
    };

    let mut ref_sorted = reference.rows.clone();
    let mut gen_sorted = gen_rows.clone();
    canonical_sort(&mut ref_sorted);
    canonical_sort(&mut gen_sorted);

    let bags_equal = ref_sorted.len() == gen_sorted.len()
        && ref_sorted
            .iter()
            .zip(&gen_sorted)
            .all(|(a, b)| a.iter().zip(b).all(|(x, y)| cells_agree(x, y)));

    if bags_equal {
        // Same bag — check the ORDER BY contract: consecutive generated
        // rows must be non-decreasing under the key spec (ties may
        // appear in any order, so only key ordering is checked).
        if !prepared.order_by.is_empty() {
            for pair in gen_rows.windows(2) {
                let mut ord = Ordering::Equal;
                for item in &prepared.order_by {
                    let o = pair[0][item.column].sort_cmp(&pair[1][item.column]);
                    let o = if item.ascending { o } else { o.reverse() };
                    if o != Ordering::Equal {
                        ord = o;
                        break;
                    }
                }
                if ord == Ordering::Greater {
                    return Some(Diagnostic::new(
                        DiagCode::V004,
                        format!(
                            "rows {} / {} violate the ORDER BY specification on witness {witness}",
                            render_row(&pair[0]),
                            render_row(&pair[1])
                        ),
                    ));
                }
            }
        }
        return None;
    }

    if ref_sorted.len() == gen_sorted.len() {
        // Equal cardinality: pair canonically and diff cells.
        let mut diffs: Vec<(usize, usize)> = Vec::new();
        for (ri, (a, b)) in ref_sorted.iter().zip(&gen_sorted).enumerate() {
            for (ci, (x, y)) in a.iter().zip(b).enumerate() {
                if !cells_agree(x, y) {
                    diffs.push((ri, ci));
                }
            }
        }
        let all_null_diffs = !diffs.is_empty()
            && diffs
                .iter()
                .all(|&(ri, ci)| ref_sorted[ri][ci].is_null() != gen_sorted[ri][ci].is_null());
        let detail = diffs
            .iter()
            .take(3)
            .map(|&(ri, ci)| {
                format!(
                    "column {} of row {}: reference {}, generated {}",
                    prepared.output.get(ci).map_or("?", |c| c.label.as_str()),
                    ri,
                    render_value(&ref_sorted[ri][ci]),
                    render_value(&gen_sorted[ri][ci])
                )
            })
            .collect::<Vec<_>>()
            .join("; ");
        let (code, label) = if all_null_diffs {
            (DiagCode::V003, "NULL handling diverges")
        } else {
            (DiagCode::V005, "column values diverge")
        };
        return Some(Diagnostic::new(
            code,
            format!("{label} ({detail}) on witness {witness}"),
        ));
    }

    // Unequal cardinality: same distinct rows → multiplicity; else rows
    // present on one side only.
    let key_set = |rows: &[Vec<SqlValue>]| -> BTreeSet<String> {
        rows.iter().map(|r| Relation::row_key(r)).collect()
    };
    let ref_keys = key_set(&ref_sorted);
    let gen_keys = key_set(&gen_sorted);
    if ref_keys == gen_keys {
        return Some(Diagnostic::new(
            DiagCode::V002,
            format!(
                "same distinct rows but reference has {} row(s) and generated {} on witness {witness}",
                ref_sorted.len(),
                gen_sorted.len()
            ),
        ));
    }
    let only_ref: Vec<String> = ref_sorted
        .iter()
        .filter(|r| !gen_keys.contains(&Relation::row_key(r)))
        .take(3)
        .map(|r| render_row(r))
        .collect();
    let only_gen: Vec<String> = gen_sorted
        .iter()
        .filter(|r| !ref_keys.contains(&Relation::row_key(r)))
        .take(3)
        .map(|r| render_row(r))
        .collect();
    Some(Diagnostic::new(
        DiagCode::V001,
        format!(
            "reference returns {} row(s), generated {}; reference-only rows [{}], generated-only rows [{}] on witness {witness}",
            ref_sorted.len(),
            gen_sorted.len(),
            only_ref.join(", "),
            only_gen.join(", ")
        ),
    ))
}

fn render_value(v: &SqlValue) -> String {
    match v {
        SqlValue::Null => "NULL".to_string(),
        SqlValue::Str(s) => format!("'{s}'"),
        other => other.display_text(),
    }
}

fn render_row(row: &[SqlValue]) -> String {
    format!(
        "({})",
        row.iter().map(render_value).collect::<Vec<_>>().join(", ")
    )
}

fn render_db(db: &Database) -> String {
    let mut names: Vec<&str> = db.table_names().collect();
    names.sort_unstable();
    let parts: Vec<String> = names
        .iter()
        .map(|name| {
            let table = db.table(name).expect("name from listing");
            let rows: Vec<String> = table.rows.iter().map(|r| render_row(r)).collect();
            format!("{name}{{{}}}", rows.join(" "))
        })
        .collect();
    format!("[{}]", parts.join("; "))
}
