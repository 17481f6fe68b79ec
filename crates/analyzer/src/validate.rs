//! Layer 5: bounded translation validation (`V` codes).
//!
//! The three static layers check *necessary* conditions — invariants,
//! scopes, types — but never the paper's central claim: that the
//! generated XQuery computes the same bag of rows as the source SQL
//! (§3.4/§3.5). This layer checks equivalence directly, bounded:
//!
//! 1. A **reference relational interpreter** ([`execute_reference`])
//!    executes the stage-2 [`PreparedQuery`] IR under SQL-92 bag
//!    semantics — 3VL WHERE/HAVING, GROUP BY and aggregates over groups
//!    discovered in row order, outer-join padding, set operations on
//!    multiplicities, DISTINCT, ORDER BY. What a value or a row
//!    operation *means* is stated once, in `aldsp-relational`'s value
//!    and relation kernels, which the relational oracle (the
//!    differential harness's ground truth) is written over too; what is
//!    written here is only the walk — over `PreparedQuery` / `Rsn` /
//!    `TExpr` instead of the SQL AST, resolving columns by range
//!    variable, reducing grouped expressions, projecting into output
//!    slots — so a stage-2 bug cannot hide in a shared frontend, and the
//!    two walkers are checked against each other directly by
//!    `tests/reference_oracle.rs`.
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
//!    the same rows as flat row elements (`Table::row_elements`, the
//!    function the driver's `DspServer` materializes with). The
//!    transport payload is decoded
//!    with the driver's own cell rules and the two row bags compared.
//!
//! Divergence classifies into stable codes `V001`–`V006`; each finding
//! carries the witness database and the differing rows. Like every other
//! code, a `V` finding is an error: an inequivalence is a miscompilation.
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
    AggFunc, ArithOp, IrNode, OutputColumn, PreparedBody, PreparedQuery, PreparedSelect, Rsn,
    TExpr, TExprKind,
};
use aldsp_core::wrapper;
use aldsp_relational::eval::{
    and3, between, compare_with_op, in_list, in_subquery, is_true, like, literal_value, negate,
    or3, position, quantified, scalar_function, scalar_subquery, substring, trim, truth,
    truth_to_value,
};
use aldsp_relational::exec::{
    apply_set_op, cross_join_all, filter_rows, fold_aggregate, group_rows, nested_loop_join,
};
use aldsp_relational::value::ArithOp as ValueArithOp;
use aldsp_relational::{
    decode_cell, sql_value_to_sequence, ColumnInfo, Database, ExecError, Relation, SqlValue, Table,
};
use aldsp_sql::{CompareOp, Literal};
use aldsp_xml::{Atomic, Item, Sequence};
use aldsp_xquery::{
    evaluate_program_exec, parse_program, ExecStrategy, FunctionSource, Program, XqError,
};
use std::borrow::Cow;
use std::cell::OnceCell;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};

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
}

impl Default for ValidateOptions {
    fn default() -> ValidateOptions {
        ValidateOptions {
            max_databases: 1024,
            candidate_rows: 4,
            max_rows_per_table: 3,
        }
    }
}

impl ValidateOptions {
    /// A reduced budget for where the validator runs per statement: the
    /// matrix's lint.
    pub fn quick() -> ValidateOptions {
        ValidateOptions {
            max_databases: 6,
            candidate_rows: 3,
            max_rows_per_table: 2,
        }
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

/// The reference side of a validation: the witness databases a prepared
/// query is checked on (smallest first), the values its `?` parameters
/// take, and the reference interpreter's answer on each witness. It is a
/// function of the query and the budget only, so every program that claims
/// to translate the query — the generated text, each rewrite candidate,
/// each mutant — is checked against one value.
pub struct Witnesses<'q> {
    prepared: &'q PreparedQuery,
    params: Vec<SqlValue>,
    /// Each witness with the reference's answer on it, filled the first
    /// time a check reaches the witness (a refuted program stops at an
    /// early one); `None` where the reference itself erred.
    witnesses: Vec<(Database, OnceCell<Option<Relation>>)>,
}

impl<'q> Witnesses<'q> {
    /// Enumerates the witness databases of `prepared` under `options`.
    pub fn of(prepared: &'q PreparedQuery, options: &ValidateOptions) -> Witnesses<'q> {
        let shape = QueryShape::of(prepared);
        Witnesses {
            prepared,
            params: shape.parameter_values(),
            witnesses: shape
                .enumerate_databases(options)
                .into_iter()
                .map(|db| (db, OnceCell::new()))
                .collect(),
        }
    }

    /// Runs `program` on the witnesses in order and stops at the first one
    /// where its rows diverge from the reference's.
    pub fn check(&self, program: &Program) -> ValidationOutcome {
        let mut outcome = ValidationOutcome {
            databases_enumerated: self.witnesses.len(),
            ..ValidationOutcome::default()
        };
        for (db, reference) in &self.witnesses {
            let reference =
                reference.get_or_init(|| execute_reference(self.prepared, db, &self.params).ok());
            // The reference erred on this witness (division by zero on
            // enumerated data, an unsupported corner): skip rather than
            // blame the translation.
            let Some(reference) = reference else {
                continue;
            };
            outcome.witnesses_checked += 1;
            let generated = run_generated(program, db, &self.params, &self.prepared.output);
            if let Some((code, divergence)) = classify(self.prepared, reference, generated) {
                let message = format!("{divergence} on witness {}", render_db(db));
                outcome.diagnostics.push(Diagnostic::new(code, message));
                break;
            }
        }
        outcome
    }
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
    // Unparsable text is layer 2's A100; nothing to execute here.
    match parse_program(xquery_text) {
        Ok(program) => Witnesses::of(prepared, options).check(&program),
        Err(_) => ValidationOutcome::default(),
    }
}

// ====================================================================
// Reference interpreter over the prepared IR
// ====================================================================

type VResult<T> = Result<T, ExecError>;

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
                None => Err(unknown_column(range_var, column)),
            },
            _ => Err(ExecError::new(format!(
                "ambiguous column {range_var}.{column}"
            ))),
        }
    }
}

fn unknown_column(range_var: &str, column: &str) -> ExecError {
    ExecError::new(format!("unknown column {range_var}.{column}"))
}

/// Executes a prepared query against an in-memory database under SQL-92
/// bag semantics. This is the layer's oracle; it never consults stage 3.
pub fn execute_reference(
    query: &PreparedQuery,
    db: &Database,
    params: &[SqlValue],
) -> Result<Relation, String> {
    exec_query(query, db, params, None).map_err(|e| e.message)
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
            let mut rel = apply_set_op(l, r, *op, *all)?;
            rel.columns = output_columns(output);
            Ok(rel)
        }
    }
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
    let from_rel = cross_join_all(
        select
            .from
            .iter()
            .map(|rsn| exec_rsn(rsn, db, params, outer)),
    )?;
    // WHERE, under 3VL: keep only rows where the predicate is TRUE.
    let filtered = match &select.where_clause {
        None => from_rel,
        Some(predicate) => filter_rows(from_rel, |rel, row| {
            let frame = Frame {
                rel,
                row,
                parent: outer,
            };
            is_true(&eval_expr(predicate, db, params, Some(&frame))?)
        })?,
    };

    let mut projected = if select.grouped {
        project_grouped(select, &filtered, db, params, outer)?
    } else {
        project_rows(select, &filtered, db, params, outer)?
    };

    if select.distinct {
        projected.dedup_rows();
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
            let table = db.table(&entry.schema.table_name).ok_or_else(|| {
                ExecError::new(format!("unknown table {}", entry.schema.table_name))
            })?;
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
            nested_loop_join(&l, &r, *kind, |rel, row| match on {
                None => Ok(true),
                Some(predicate) => {
                    let frame = Frame {
                        rel,
                        row,
                        parent: outer,
                    };
                    is_true(&eval_expr(predicate, db, params, Some(&frame))?)
                }
            })
        }
    }
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
    let groups = group_rows(&filtered.rows, select.group_by.len(), |row, k| {
        let frame = Frame {
            rel: filtered,
            row,
            parent: outer,
        };
        eval_expr(&select.group_by[k], db, params, Some(&frame))
    })?;

    let columns = output_columns(&select.output);
    let mut rows = Vec::with_capacity(groups.len());
    for (keys, group_rows) in &groups {
        if let Some(having) = &select.having {
            let reduced = reduce_grouped(
                having, select, keys, group_rows, filtered, db, params, outer,
            )?;
            if !is_true(&eval_expr(&reduced, db, params, outer)?)? {
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
    // Subquery kinds are left untouched (including their comparison
    // operand): in grouped context they evaluate against the outer scope
    // only, exactly like the oracle executor.
    let mut reduced = expr.clone();
    if reduced.subquery().is_none() {
        reduced.try_visit_children_mut(&mut |child| {
            *child = reduce_grouped(child, select, keys, group_rows, from_rel, db, params, outer)?;
            VResult::Ok(())
        })?;
    }
    Ok(reduced)
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

    let mut values = Vec::with_capacity(group_rows.len());
    for row in group_rows {
        let frame = Frame {
            rel: from_rel,
            row,
            parent: outer,
        };
        values.push(eval_expr(arg, db, params, Some(&frame))?);
    }
    let name = match func {
        AggFunc::Count => "COUNT",
        AggFunc::Sum => "SUM",
        AggFunc::Avg => "AVG",
        AggFunc::Min => "MIN",
        AggFunc::Max => "MAX",
    };
    fold_aggregate(name, distinct, values)
}

// ---- scalar evaluation ------------------------------------------------

fn eval_expr(
    expr: &TExpr,
    db: &Database,
    params: &[SqlValue],
    frame: Option<&Frame<'_>>,
) -> VResult<SqlValue> {
    match &expr.kind {
        TExprKind::Column { range_var, column } => match frame {
            Some(f) => f.resolve(range_var, column),
            None => Err(unknown_column(range_var, column)),
        },
        TExprKind::Literal(l) => Ok(literal_value(l)),
        TExprKind::Parameter(ordinal) => params
            .get(*ordinal)
            .cloned()
            .ok_or_else(|| ExecError::new(format!("parameter {} not bound", ordinal + 1))),
        TExprKind::Neg(e) => negate(eval_expr(e, db, params, frame)?),
        TExprKind::Not(e) => {
            let v = eval_expr(e, db, params, frame)?;
            Ok(truth_to_value(truth(&v)?.map(|b| !b)))
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
            l.arith(vop, &r).map_err(|e| ExecError::new(e.message))
        }
        TExprKind::Concat(left, right) => {
            let l = eval_expr(left, db, params, frame)?;
            let r = eval_expr(right, db, params, frame)?;
            Ok(l.concat(&r))
        }
        TExprKind::Compare { op, left, right } => {
            let l = eval_expr(left, db, params, frame)?;
            let r = eval_expr(right, db, params, frame)?;
            Ok(truth_to_value(compare_with_op(&l, *op, &r)?))
        }
        TExprKind::And(left, right) => {
            let l = truth(&eval_expr(left, db, params, frame)?)?;
            // Short circuit: FALSE AND x is FALSE without evaluating x.
            if l == Some(false) {
                return Ok(SqlValue::Bool(false));
            }
            let r = truth(&eval_expr(right, db, params, frame)?)?;
            Ok(truth_to_value(and3(l, r)))
        }
        TExprKind::Or(left, right) => {
            let l = truth(&eval_expr(left, db, params, frame)?)?;
            if l == Some(true) {
                return Ok(SqlValue::Bool(true));
            }
            let r = truth(&eval_expr(right, db, params, frame)?)?;
            Ok(truth_to_value(or3(l, r)))
        }
        TExprKind::ScalarFn { name, args } => {
            let mut values = Vec::with_capacity(args.len());
            for a in args {
                values.push(eval_expr(a, db, params, frame)?);
            }
            scalar_function(name, &values)
        }
        TExprKind::Aggregate { .. } => {
            Err(ExecError::new("aggregate used outside grouping context"))
        }
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
                        compare_with_op(&lhs, CompareOp::Eq, &rhs)?
                    }
                    // Searched CASE evaluates the predicate.
                    None => truth(&eval_expr(when, db, params, frame)?)?,
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
            v.cast_to(*target).map_err(|e| ExecError::new(e.message))
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
            between(&v, &lo, &hi, *negated)
        }
        TExprKind::InList {
            expr: e,
            list,
            negated,
        } => {
            let v = eval_expr(e, db, params, frame)?;
            let candidates = list.iter().map(|item| eval_expr(item, db, params, frame));
            in_list(&v, candidates, *negated)
        }
        TExprKind::InSubquery {
            expr: e,
            query,
            negated,
        } => {
            let v = eval_expr(e, db, params, frame)?;
            let rel = exec_query(query, db, params, frame)?;
            in_subquery(&v, &rel, *negated)
        }
        TExprKind::Exists { query, negated } => {
            let rel = exec_query(query, db, params, frame)?;
            Ok(SqlValue::Bool(rel.rows.is_empty() == *negated))
        }
        TExprKind::ScalarSubquery(query) => scalar_subquery(&exec_query(query, db, params, frame)?),
        TExprKind::Quantified {
            expr: e,
            op,
            quantifier,
            query,
        } => {
            let v = eval_expr(e, db, params, frame)?;
            let rel = exec_query(query, db, params, frame)?;
            quantified(&v, *op, *quantifier, &rel)
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
                Some(esc_expr) => Some(eval_expr(esc_expr, db, params, frame)?),
                None => None,
            };
            like(&v, &p, esc.as_ref(), *negated)
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
            substring(&s, &st, len.as_ref())
        }
        TExprKind::Trim {
            side,
            trim_chars,
            expr: e,
        } => {
            let v = eval_expr(e, db, params, frame)?;
            // NULL answers before the trim character is evaluated, so an
            // erroring character expression never runs.
            if v.is_null() {
                return Ok(SqlValue::Null);
            }
            let pad = match trim_chars {
                Some(c) => Some(eval_expr(c, db, params, frame)?),
                None => None,
            };
            trim(*side, pad.as_ref(), &v)
        }
        TExprKind::Position { needle, haystack } => {
            let n = eval_expr(needle, db, params, frame)?;
            let h = eval_expr(haystack, db, params, frame)?;
            Ok(position(&n, &h))
        }
        TExprKind::Generated { .. } => {
            Err(ExecError::new("stage-3 internal node in stage-2 output"))
        }
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
        query.walk(&mut |node| match node {
            IrNode::Rsn(Rsn::Table { range_var, entry }) => {
                let name = entry.schema.table_name.clone();
                shape
                    .tables
                    .entry(name.clone())
                    .or_insert_with(|| entry.schema.clone());
                rv_tables.push((range_var.clone(), name));
            }
            IrNode::Rsn(_) => {}
            IrNode::Expr(expr) => shape.harvest_expr(expr, &mut columns),
        });
        for (rv, col) in &columns {
            for (rv2, table) in &rv_tables {
                if rv == rv2 {
                    shape.touched.insert((table.clone(), col.clone()));
                }
            }
        }
        shape
    }

    /// What one expression node contributes.
    fn harvest_expr(&mut self, expr: &TExpr, columns: &mut Vec<(String, String)>) {
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
            _ => {}
        }
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
                databases.push(db);
            }
        }
        databases
    }
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

/// Serves witness tables to the XQuery evaluator as the driver's
/// `DspServer` does, through the same [`Table::row_elements`].
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
        Ok(table.row_elements())
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
        .map(|(i, v)| (aldsp_core::sql_param_name(i), sql_value_to_sequence(v)))
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
                        .map(|(cell, col)| decode_cell(cell.map(Cow::Owned), col.sql_type))
                        .collect::<Result<Vec<_>, _>>()
                })
                .collect()
        }
        // XML transport: a RECORDSET element of RECORD rows.
        Item::Node(_) => {
            let element = item
                .as_element_ref()
                .ok_or_else(|| "payload node is not an element".to_string())?;
            if element.name().local_part() != "RECORDSET" {
                return Err(format!(
                    "expected a RECORDSET payload, got <{}>",
                    element.name().local_part()
                ));
            }
            let mut rows = Vec::new();
            for record in element.children_named("RECORD") {
                let mut row = Vec::with_capacity(output.len());
                for col in output {
                    let cell = record
                        .children_named(&col.name)
                        .next()
                        .map(|e| e.string_value().into());
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

fn canonical_sort(rows: &mut [Vec<SqlValue>]) {
    rows.sort_by(|a, b| Relation::row_key(a).cmp(&Relation::row_key(b)));
}

/// How the generated rows diverge from the reference's, if they do: the
/// finding's code and its message up to the witness.
fn classify(
    prepared: &PreparedQuery,
    reference: &Relation,
    generated: Result<Vec<Vec<SqlValue>>, String>,
) -> Option<(DiagCode, String)> {
    let gen_rows = match generated {
        Ok(rows) => rows,
        Err(e) => {
            return Some((
                DiagCode::V006,
                format!("the generated query failed where the reference succeeds ({e})"),
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
            .all(|(a, b)| a.iter().zip(b).all(|(x, y)| x.agrees_with(y)));

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
                    return Some((
                        DiagCode::V004,
                        format!(
                            "rows {} / {} violate the ORDER BY specification",
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
                if !x.agrees_with(y) {
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
        return Some((code, format!("{label} ({detail})")));
    }

    // Unequal cardinality: same distinct rows → multiplicity; else rows
    // present on one side only.
    let key_set = |rows: &[Vec<SqlValue>]| -> BTreeSet<String> {
        rows.iter().map(|r| Relation::row_key(r)).collect()
    };
    let ref_keys = key_set(&ref_sorted);
    let gen_keys = key_set(&gen_sorted);
    if ref_keys == gen_keys {
        return Some((
            DiagCode::V002,
            format!(
                "same distinct rows but reference has {} row(s) and generated {}",
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
    Some((
        DiagCode::V001,
        format!(
            "reference returns {} row(s), generated {}; reference-only rows [{}], generated-only rows [{}]",
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
