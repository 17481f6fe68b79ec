//! The SQL query executor — the differential-testing oracle.
//!
//! Executes the `aldsp-sql` AST directly over in-memory tables with SQL-92
//! semantics. No optimization: plans are evaluated naively (nested loops,
//! full materialization), because the oracle's only job is to be obviously
//! correct.
//!
//! The plan walker (`execute_select`, `expand_items`, `eval_grouped`,
//! `sort_relation`) is private to the oracle. The *relation kernel* — the
//! public functions [`cross_join_all`], [`filter_rows`],
//! [`nested_loop_join`], [`group_rows`], [`fold_aggregate`] and
//! [`apply_set_op`] — states each row-level SQL-92 rule once and is shared with the layer-5 reference interpreter
//! (`aldsp-analyzer::validate`), which walks the stage-2 IR instead.

use crate::database::Database;
use crate::eval::{eval_expr, is_true, EvalContext, Scope};
use crate::relation::{ColumnInfo, Relation};
use crate::value::SqlValue;
use aldsp_catalog::SqlColumnType;
use aldsp_sql::{
    ColumnRef, Expr, FunctionArgs, JoinKind, Literal, OrderItem, Query, QueryBody, Select,
    SelectItem, SetOp, TableRef,
};
use std::collections::HashMap;
use std::fmt;

/// Execution error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecError {
    /// Human-readable description.
    pub message: String,
}

impl ExecError {
    /// Creates an error.
    pub fn new(message: impl Into<String>) -> ExecError {
        ExecError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ExecError {}

/// Executes a top-level query.
pub fn execute_query(
    db: &Database,
    query: &Query,
    params: &[SqlValue],
) -> Result<Relation, ExecError> {
    execute_body_scoped(db, query, params, None)
}

/// Executes a query with an optional enclosing scope (correlated
/// subqueries). Public for use by the expression evaluator.
pub fn execute_body_scoped(
    db: &Database,
    query: &Query,
    params: &[SqlValue],
    outer: Option<&Scope<'_>>,
) -> Result<Relation, ExecError> {
    let ctx = EvalContext { db, params };
    let mut relation = execute_body(&ctx, &query.body, outer)?;
    if !query.order_by.is_empty() {
        sort_relation(&ctx, &mut relation, &query.order_by, outer)?;
    }
    Ok(relation)
}

fn execute_body(
    ctx: &EvalContext<'_>,
    body: &QueryBody,
    outer: Option<&Scope<'_>>,
) -> Result<Relation, ExecError> {
    match body {
        QueryBody::Select(select) => execute_select(ctx, select, outer),
        QueryBody::SetOp {
            left,
            op,
            all,
            right,
        } => {
            let l = execute_body(ctx, left, outer)?;
            let r = execute_body(ctx, right, outer)?;
            apply_set_op(l, r, *op, *all)
        }
    }
}

/// Bag-semantics set operations (SQL-92 §7.10): plain forms eliminate
/// duplicates, ALL forms operate on multiplicities. The operands must have
/// the same arity; the result keeps the left operand's columns.
pub fn apply_set_op(
    left: Relation,
    right: Relation,
    op: SetOp,
    all: bool,
) -> Result<Relation, ExecError> {
    if left.arity() != right.arity() {
        return Err(ExecError::new(format!(
            "set operands have different arity: {} vs {}",
            left.arity(),
            right.arity()
        )));
    }
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
    Ok(Relation { columns, rows })
}

fn execute_select(
    ctx: &EvalContext<'_>,
    select: &Select,
    outer: Option<&Scope<'_>>,
) -> Result<Relation, ExecError> {
    let from_rel = cross_join_all(
        select
            .from
            .iter()
            .map(|table_ref| execute_table_ref(ctx, table_ref, outer)),
    )?;
    let filtered = match &select.where_clause {
        None => from_rel,
        Some(predicate) => filter_rows(from_rel, |relation, row| {
            let scope = Scope {
                relation,
                row,
                parent: outer,
            };
            is_true(&eval_expr(ctx, &scope, predicate)?)
        })?,
    };

    let has_aggregates = select_has_aggregates(select);
    let mut projected = if !select.group_by.is_empty() || has_aggregates {
        project_grouped(ctx, select, &filtered, outer)?
    } else {
        project_rows(ctx, select, &filtered, outer)?
    };

    if select.distinct {
        projected.dedup_rows();
    }
    Ok(projected)
}

fn select_has_aggregates(select: &Select) -> bool {
    let in_items = select.items.iter().any(|item| match item {
        SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
        _ => false,
    });
    in_items
        || select
            .having
            .as_ref()
            .is_some_and(|h| h.contains_aggregate())
}

fn execute_table_ref(
    ctx: &EvalContext<'_>,
    table_ref: &TableRef,
    outer: Option<&Scope<'_>>,
) -> Result<Relation, ExecError> {
    match table_ref {
        TableRef::Table { name, alias } => {
            let table = ctx
                .db
                .table(name.base())
                .ok_or_else(|| ExecError::new(format!("unknown table {name}")))?;
            let qualifier = alias.as_deref().unwrap_or(name.base());
            Ok(table.scan(qualifier))
        }
        TableRef::Derived { query, alias } => {
            let mut rel = execute_body_scoped(ctx.db, query, ctx.params, outer)?;
            // Re-qualify every output column with the range variable.
            for col in &mut rel.columns {
                col.qualifier = Some(alias.clone());
            }
            Ok(rel)
        }
        TableRef::Join {
            left,
            right,
            kind,
            on,
        } => {
            let l = execute_table_ref(ctx, left, outer)?;
            let r = execute_table_ref(ctx, right, outer)?;
            nested_loop_join(&l, &r, *kind, |relation, row| match on {
                None => Ok(true),
                Some(predicate) => {
                    let scope = Scope {
                        relation,
                        row,
                        parent: outer,
                    };
                    is_true(&eval_expr(ctx, &scope, predicate)?)
                }
            })
        }
    }
}

// ---- projection -------------------------------------------------------

/// Expands select items into `(expr, output name, qualifier)` triples,
/// resolving wildcards against the FROM relation.
fn expand_items(
    select: &Select,
    from_rel: &Relation,
) -> Result<Vec<(Expr, String, Option<String>)>, ExecError> {
    let mut out = Vec::new();
    for item in &select.items {
        match item {
            SelectItem::Wildcard => {
                for col in &from_rel.columns {
                    out.push((
                        Expr::Column(ColumnRef {
                            qualifier: col.qualifier.clone(),
                            name: col.name.clone(),
                        }),
                        col.name.clone(),
                        col.qualifier.clone(),
                    ));
                }
            }
            SelectItem::QualifiedWildcard(q) => {
                let indices = from_rel.columns_of(q);
                if indices.is_empty() {
                    return Err(ExecError::new(format!("unknown range variable {q}")));
                }
                for i in indices {
                    let col = &from_rel.columns[i];
                    out.push((
                        Expr::Column(ColumnRef::qualified(q.clone(), col.name.clone())),
                        col.name.clone(),
                        Some(q.clone()),
                    ));
                }
            }
            SelectItem::Expr { expr, alias } => {
                let (name, qualifier) = match (alias, expr) {
                    (Some(a), _) => (a.clone(), None),
                    (None, Expr::Column(c)) => (c.name.clone(), c.qualifier.clone()),
                    (None, _) => (format!("EXPR{}", out.len() + 1), None),
                };
                out.push((expr.clone(), name, qualifier));
            }
        }
    }
    Ok(out)
}

fn project_rows(
    ctx: &EvalContext<'_>,
    select: &Select,
    filtered: &Relation,
    outer: Option<&Scope<'_>>,
) -> Result<Relation, ExecError> {
    let items = expand_items(select, filtered)?;
    let columns = items
        .iter()
        .map(|(expr, name, qualifier)| {
            ColumnInfo::new(
                name.clone(),
                qualifier.clone(),
                infer_expr_type(expr, filtered),
                true,
            )
        })
        .collect();
    let mut rows = Vec::with_capacity(filtered.rows.len());
    for row in &filtered.rows {
        let scope = Scope {
            relation: filtered,
            row,
            parent: outer,
        };
        let mut out_row = Vec::with_capacity(items.len());
        for (expr, _, _) in &items {
            out_row.push(eval_expr(ctx, &scope, expr)?);
        }
        rows.push(out_row);
    }
    Ok(Relation { columns, rows })
}

// ---- grouping ---------------------------------------------------------

fn project_grouped(
    ctx: &EvalContext<'_>,
    select: &Select,
    filtered: &Relation,
    outer: Option<&Scope<'_>>,
) -> Result<Relation, ExecError> {
    let items = expand_items(select, filtered)?;

    // Wildcards are illegal in a grouped query unless every FROM column is
    // a group key; simplest correct behaviour is to validate item-by-item
    // during rewriting below.

    let groups = group_rows(&filtered.rows, select.group_by.len(), |row, k| {
        let scope = Scope {
            relation: filtered,
            row,
            parent: outer,
        };
        eval_expr(ctx, &scope, &select.group_by[k])
    })?;

    let columns: Vec<ColumnInfo> = items
        .iter()
        .map(|(expr, name, qualifier)| {
            ColumnInfo::new(
                name.clone(),
                qualifier.clone(),
                infer_expr_type(expr, filtered),
                true,
            )
        })
        .collect();

    let mut rows = Vec::with_capacity(groups.len());
    for (keys, group_rows) in &groups {
        // HAVING.
        if let Some(having) = &select.having {
            let v = eval_grouped(ctx, select, filtered, keys, group_rows, having, outer)?;
            if !is_true(&v)? {
                continue;
            }
        }
        let mut out_row = Vec::with_capacity(items.len());
        for (expr, _, _) in &items {
            out_row.push(eval_grouped(
                ctx, select, filtered, keys, group_rows, expr, outer,
            )?);
        }
        rows.push(out_row);
    }
    Ok(Relation { columns, rows })
}

/// Evaluates an expression in grouped context: group-key subexpressions
/// become their key values, aggregate calls are computed over the group's
/// rows, and anything else recurses structurally. A bare column that is
/// neither a group key nor inside an aggregate is a semantic error
/// (SQL-92's GROUP BY rule — the paper's `SELECT EMPNO ... GROUP BY
/// EMPNAME` example, §3.4.3).
fn eval_grouped(
    ctx: &EvalContext<'_>,
    select: &Select,
    from_rel: &Relation,
    keys: &[SqlValue],
    group_rows: &[Vec<SqlValue>],
    expr: &Expr,
    outer: Option<&Scope<'_>>,
) -> Result<SqlValue, ExecError> {
    // Group key match (structural, with qualifier leniency for columns).
    for (i, key_expr) in select.group_by.iter().enumerate() {
        if exprs_match_lenient(expr, key_expr) {
            return Ok(keys[i].clone());
        }
    }
    // Aggregate call: compute over the group.
    if expr.is_aggregate_call() {
        return eval_aggregate(ctx, from_rel, group_rows, expr, outer);
    }
    match expr {
        Expr::Column(c) => Err(ExecError::new(format!(
            "column {c} must appear in GROUP BY or inside an aggregate"
        ))),
        Expr::Literal(_) | Expr::Parameter(_) => {
            let scope = empty_scope(from_rel);
            eval_expr(ctx, &scope_with_parent(&scope, outer), expr)
        }
        Expr::Unary { op, expr: inner } => {
            let v = eval_grouped(ctx, select, from_rel, keys, group_rows, inner, outer)?;
            eval_on_values(
                ctx,
                from_rel,
                outer,
                &Expr::Unary {
                    op: *op,
                    expr: Box::new(value_to_literal_expr(&v)),
                },
            )
        }
        Expr::Binary { left, op, right } => {
            let l = eval_grouped(ctx, select, from_rel, keys, group_rows, left, outer)?;
            let r = eval_grouped(ctx, select, from_rel, keys, group_rows, right, outer)?;
            eval_on_values(
                ctx,
                from_rel,
                outer,
                &Expr::Binary {
                    left: Box::new(value_to_literal_expr(&l)),
                    op: *op,
                    right: Box::new(value_to_literal_expr(&r)),
                },
            )
        }
        Expr::Function { name, args } => match args {
            FunctionArgs::Star => Err(ExecError::new(format!("{name}(*) is not scalar"))),
            FunctionArgs::List { distinct, args } => {
                let mut values = Vec::with_capacity(args.len());
                for a in args {
                    values.push(eval_grouped(
                        ctx, select, from_rel, keys, group_rows, a, outer,
                    )?);
                }
                let rebuilt = Expr::Function {
                    name: name.clone(),
                    args: FunctionArgs::List {
                        distinct: *distinct,
                        args: values.iter().map(value_to_literal_expr).collect(),
                    },
                };
                eval_on_values(ctx, from_rel, outer, &rebuilt)
            }
        },
        Expr::Case {
            operand,
            branches,
            else_result,
        } => {
            let g = |e: &Expr| eval_grouped(ctx, select, from_rel, keys, group_rows, e, outer);
            let rebuilt = Expr::Case {
                operand: match operand {
                    Some(o) => Some(Box::new(value_to_literal_expr(&g(o)?))),
                    None => None,
                },
                branches: branches
                    .iter()
                    .map(|(w, t)| {
                        Ok((value_to_literal_expr(&g(w)?), value_to_literal_expr(&g(t)?)))
                    })
                    .collect::<Result<_, ExecError>>()?,
                else_result: match else_result {
                    Some(e) => Some(Box::new(value_to_literal_expr(&g(e)?))),
                    None => None,
                },
            };
            eval_on_values(ctx, from_rel, outer, &rebuilt)
        }
        Expr::Cast {
            expr: inner,
            target,
        } => {
            let v = eval_grouped(ctx, select, from_rel, keys, group_rows, inner, outer)?;
            eval_on_values(
                ctx,
                from_rel,
                outer,
                &Expr::Cast {
                    expr: Box::new(value_to_literal_expr(&v)),
                    target: *target,
                },
            )
        }
        Expr::IsNull {
            expr: inner,
            negated,
        } => {
            let v = eval_grouped(ctx, select, from_rel, keys, group_rows, inner, outer)?;
            Ok(SqlValue::Bool(v.is_null() != *negated))
        }
        // Remaining predicate forms in HAVING: rebuild over computed
        // operand values where the operands are grouped expressions.
        Expr::Between {
            expr: e,
            low,
            high,
            negated,
        } => {
            let g = |x: &Expr| eval_grouped(ctx, select, from_rel, keys, group_rows, x, outer);
            let rebuilt = Expr::Between {
                expr: Box::new(value_to_literal_expr(&g(e)?)),
                low: Box::new(value_to_literal_expr(&g(low)?)),
                high: Box::new(value_to_literal_expr(&g(high)?)),
                negated: *negated,
            };
            eval_on_values(ctx, from_rel, outer, &rebuilt)
        }
        Expr::InList {
            expr: e,
            list,
            negated,
        } => {
            let g = |x: &Expr| eval_grouped(ctx, select, from_rel, keys, group_rows, x, outer);
            let rebuilt = Expr::InList {
                expr: Box::new(value_to_literal_expr(&g(e)?)),
                list: list
                    .iter()
                    .map(|x| Ok(value_to_literal_expr(&g(x)?)))
                    .collect::<Result<_, ExecError>>()?,
                negated: *negated,
            };
            eval_on_values(ctx, from_rel, outer, &rebuilt)
        }
        Expr::Like {
            expr: e,
            pattern,
            escape,
            negated,
        } => {
            let g = |x: &Expr| eval_grouped(ctx, select, from_rel, keys, group_rows, x, outer);
            let rebuilt = Expr::Like {
                expr: Box::new(value_to_literal_expr(&g(e)?)),
                pattern: Box::new(value_to_literal_expr(&g(pattern)?)),
                escape: match escape {
                    Some(x) => Some(Box::new(value_to_literal_expr(&g(x)?))),
                    None => None,
                },
                negated: *negated,
            };
            eval_on_values(ctx, from_rel, outer, &rebuilt)
        }
        Expr::Substring {
            expr: e,
            start,
            length,
        } => {
            let g = |x: &Expr| eval_grouped(ctx, select, from_rel, keys, group_rows, x, outer);
            let rebuilt = Expr::Substring {
                expr: Box::new(value_to_literal_expr(&g(e)?)),
                start: Box::new(value_to_literal_expr(&g(start)?)),
                length: match length {
                    Some(x) => Some(Box::new(value_to_literal_expr(&g(x)?))),
                    None => None,
                },
            };
            eval_on_values(ctx, from_rel, outer, &rebuilt)
        }
        Expr::Trim {
            side,
            trim_chars,
            expr: e,
        } => {
            let g = |x: &Expr| eval_grouped(ctx, select, from_rel, keys, group_rows, x, outer);
            let rebuilt = Expr::Trim {
                side: *side,
                trim_chars: match trim_chars {
                    Some(x) => Some(Box::new(value_to_literal_expr(&g(x)?))),
                    None => None,
                },
                expr: Box::new(value_to_literal_expr(&g(e)?)),
            };
            eval_on_values(ctx, from_rel, outer, &rebuilt)
        }
        Expr::Position { needle, haystack } => {
            let g = |x: &Expr| eval_grouped(ctx, select, from_rel, keys, group_rows, x, outer);
            let rebuilt = Expr::Position {
                needle: Box::new(value_to_literal_expr(&g(needle)?)),
                haystack: Box::new(value_to_literal_expr(&g(haystack)?)),
            };
            eval_on_values(ctx, from_rel, outer, &rebuilt)
        }
        // Subqueries in grouped context see the outer scope only.
        Expr::ScalarSubquery(_)
        | Expr::Exists { .. }
        | Expr::InSubquery { .. }
        | Expr::Quantified { .. } => {
            let scope = empty_scope(from_rel);
            eval_expr(ctx, &scope_with_parent(&scope, outer), expr)
        }
    }
}

/// Evaluates an expression containing no column references (operands have
/// been replaced with literal values).
fn eval_on_values(
    ctx: &EvalContext<'_>,
    from_rel: &Relation,
    outer: Option<&Scope<'_>>,
    expr: &Expr,
) -> Result<SqlValue, ExecError> {
    let scope = empty_scope(from_rel);
    eval_expr(ctx, &scope_with_parent(&scope, outer), expr)
}

/// A scope over an empty zero-column relation: column lookups never match
/// locally and fall through to the parent (used where operands have already
/// been reduced to literal values).
fn empty_scope(_from_rel: &Relation) -> Scope<'static> {
    static EMPTY_ROW: &[SqlValue] = &[];
    static EMPTY_RELATION: std::sync::OnceLock<Relation> = std::sync::OnceLock::new();
    Scope {
        relation: EMPTY_RELATION.get_or_init(Relation::default),
        row: EMPTY_ROW,
        parent: None,
    }
}

fn scope_with_parent<'a>(scope: &Scope<'a>, parent: Option<&'a Scope<'a>>) -> Scope<'a> {
    Scope {
        relation: scope.relation,
        row: scope.row,
        parent,
    }
}

/// Wraps a computed value back into a literal expression so rebuilt nodes
/// can reuse the ordinary evaluator.
fn value_to_literal_expr(v: &SqlValue) -> Expr {
    match v {
        SqlValue::Null => Expr::Literal(Literal::Null),
        SqlValue::Int(i) => Expr::Literal(Literal::Integer(*i)),
        SqlValue::Decimal(d) => Expr::Literal(Literal::Decimal(*d)),
        SqlValue::Double(d) => Expr::Literal(Literal::Double(*d)),
        SqlValue::Str(s) => Expr::Literal(Literal::String(s.clone())),
        SqlValue::Date(d) => Expr::Literal(Literal::Date(d.clone())),
        SqlValue::Bool(b) => {
            // No boolean literal in SQL-92; encode as 1=1 / 1=0.
            let lit = if *b { 1 } else { 0 };
            Expr::Binary {
                left: Box::new(Expr::Literal(Literal::Integer(lit))),
                op: aldsp_sql::BinaryOp::Compare(aldsp_sql::CompareOp::Eq),
                right: Box::new(Expr::Literal(Literal::Integer(1))),
            }
        }
    }
}

/// Structural equality with qualifier leniency: `GROUP BY T.C` matches a
/// select item `C` (and vice versa) when names agree.
fn exprs_match_lenient(a: &Expr, b: &Expr) -> bool {
    match (a, b) {
        (Expr::Column(ca), Expr::Column(cb)) => {
            ca.name == cb.name
                && (ca.qualifier == cb.qualifier
                    || ca.qualifier.is_none()
                    || cb.qualifier.is_none())
        }
        _ => a == b,
    }
}

fn eval_aggregate(
    ctx: &EvalContext<'_>,
    from_rel: &Relation,
    group_rows: &[Vec<SqlValue>],
    expr: &Expr,
    outer: Option<&Scope<'_>>,
) -> Result<SqlValue, ExecError> {
    let Expr::Function { name, args } = expr else {
        unreachable!("caller checked is_aggregate_call");
    };
    // COUNT(*): the group's cardinality.
    let (distinct, arg) = match args {
        FunctionArgs::Star => {
            return Ok(SqlValue::Int(group_rows.len() as i64));
        }
        FunctionArgs::List { distinct, args } => {
            if args.len() != 1 {
                return Err(ExecError::new(format!(
                    "{name} expects exactly one argument"
                )));
            }
            (*distinct, &args[0])
        }
    };

    let mut values = Vec::with_capacity(group_rows.len());
    for row in group_rows {
        let scope = Scope {
            relation: from_rel,
            row,
            parent: outer,
        };
        values.push(eval_expr(ctx, &scope, arg)?);
    }
    fold_aggregate(name, distinct, values)
}

// ---- the relation kernel ------------------------------------------------

/// The FROM clause's comma list: the cross product of its operands, in
/// order. An empty list is an error.
pub fn cross_join_all(
    operands: impl IntoIterator<Item = Result<Relation, ExecError>>,
) -> Result<Relation, ExecError> {
    let mut product: Option<Relation> = None;
    for operand in operands {
        let operand = operand?;
        product = Some(match product {
            None => operand,
            Some(acc) => acc.cross_join(&operand),
        });
    }
    product.ok_or_else(|| ExecError::new("FROM clause is empty"))
}

/// WHERE: the rows of `rel` that `keep` answers true for, in order. `keep`
/// is given the relation's header (columns, no rows) and one row.
pub fn filter_rows(
    mut rel: Relation,
    mut keep: impl FnMut(&Relation, &[SqlValue]) -> Result<bool, ExecError>,
) -> Result<Relation, ExecError> {
    let mut kept = Vec::new();
    for row in std::mem::take(&mut rel.rows) {
        if keep(&rel, &row)? {
            kept.push(row);
        }
    }
    rel.rows = kept;
    Ok(rel)
}

/// Nested-loop join with LEFT/RIGHT/FULL outer padding: every
/// left × right pair `on` answers true for, left-major; an unmatched left
/// row is padded with NULLs in place, unmatched right rows follow at the
/// end. `on` is given the joined relation's header and one joined row.
pub fn nested_loop_join(
    left: &Relation,
    right: &Relation,
    kind: JoinKind,
    mut on: impl FnMut(&Relation, &[SqlValue]) -> Result<bool, ExecError>,
) -> Result<Relation, ExecError> {
    let mut columns = left.columns.clone();
    columns.extend(right.columns.iter().cloned());
    let mut joined_rel = Relation::with_columns(columns);

    let mut rows = Vec::new();
    let mut right_matched = vec![false; right.rows.len()];
    for left_row in &left.rows {
        let mut matched = false;
        for (ri, right_row) in right.rows.iter().enumerate() {
            let mut joined = left_row.clone();
            joined.extend(right_row.iter().cloned());
            if on(&joined_rel, &joined)? {
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
    joined_rel.rows = rows;
    Ok(joined_rel)
}

/// One group: its key values and its member rows.
pub type Group = (Vec<SqlValue>, Vec<Vec<SqlValue>>);

/// GROUP BY: partitions `rows` into groups discovered in row order.
/// `key(row, k)` evaluates the `k`-th of `key_count` grouping expressions;
/// rows whose keys share a [`Relation::row_key`] (NULLs group together)
/// share a group. With no grouping expression the whole input is one
/// group *even when it is empty* (SQL-92: `SELECT COUNT(*) FROM empty` is
/// one row).
pub fn group_rows(
    rows: &[Vec<SqlValue>],
    key_count: usize,
    mut key: impl FnMut(&[SqlValue], usize) -> Result<SqlValue, ExecError>,
) -> Result<Vec<Group>, ExecError> {
    let mut groups: Vec<Group> = Vec::new();
    let mut index: HashMap<String, usize> = HashMap::new();
    for row in rows {
        let mut keys = Vec::with_capacity(key_count);
        for k in 0..key_count {
            keys.push(key(row, k)?);
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
    if key_count == 0 && groups.is_empty() {
        groups.push((Vec::new(), Vec::new()));
    }
    Ok(groups)
}

/// Folds one aggregate (`COUNT`, `MIN`, `MAX`, `SUM`, `AVG` — not
/// `COUNT(*)`, which is the group's cardinality) over its argument's
/// per-row `values`. NULLs are dropped first (SQL-92 aggregates ignore
/// NULL inputs), then duplicates under DISTINCT. Over nothing, COUNT is 0
/// and the others are NULL. SUM stays Int over integers (overflow is an
/// error), otherwise Double if any input is, else Decimal; AVG is Decimal
/// unless an input is Double.
pub fn fold_aggregate(
    name: &str,
    distinct: bool,
    mut values: Vec<SqlValue>,
) -> Result<SqlValue, ExecError> {
    values.retain(|v| !v.is_null());
    if distinct {
        let mut seen = HashMap::new();
        values.retain(|v| seen.insert(v.group_key(), ()).is_none());
    }

    match name {
        "COUNT" => Ok(SqlValue::Int(values.len() as i64)),
        "MIN" | "MAX" => {
            let mut best: Option<SqlValue> = None;
            for v in values {
                best = Some(match best {
                    None => v,
                    Some(b) => {
                        let keep_new = match v.compare(&b).map_err(|e| ExecError::new(e.message))? {
                            Some(std::cmp::Ordering::Less) => name == "MIN",
                            Some(std::cmp::Ordering::Greater) => name == "MAX",
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
        "SUM" | "AVG" => {
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
                            .ok_or_else(|| ExecError::new("SUM overflow"))?;
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
                    other => {
                        return Err(ExecError::new(format!(
                            "{name} over non-numeric value {other:?}"
                        )))
                    }
                }
            }
            if name == "SUM" {
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
        other => Err(ExecError::new(format!("unknown aggregate {other}"))),
    }
}

// ---- ordering ---------------------------------------------------------

/// Sorts the output relation. SQL-92 restricts ORDER BY keys to output
/// columns: by ordinal, by output name, or by an expression over output
/// columns.
fn sort_relation(
    ctx: &EvalContext<'_>,
    relation: &mut Relation,
    order_by: &[OrderItem],
    outer: Option<&Scope<'_>>,
) -> Result<(), ExecError> {
    // Precompute sort keys per row.
    let mut keyed: Vec<(Vec<SqlValue>, Vec<SqlValue>)> = Vec::with_capacity(relation.rows.len());
    let rows = std::mem::take(&mut relation.rows);
    for row in rows {
        let mut keys = Vec::with_capacity(order_by.len());
        for item in order_by {
            let key = match &item.expr {
                // Ordinal.
                Expr::Literal(Literal::Integer(n)) => {
                    let idx = *n;
                    if idx < 1 || idx as usize > relation.arity() {
                        return Err(ExecError::new(format!(
                            "ORDER BY ordinal {idx} out of range"
                        )));
                    }
                    row[idx as usize - 1].clone()
                }
                expr => {
                    let scope = Scope {
                        relation,
                        row: &row,
                        parent: outer,
                    };
                    eval_expr(ctx, &scope, expr)?
                }
            };
            keys.push(key);
        }
        keyed.push((keys, row));
    }
    keyed.sort_by(|(ka, _), (kb, _)| {
        for (i, item) in order_by.iter().enumerate() {
            let ord = ka[i].sort_cmp(&kb[i]);
            let ord = if item.ascending { ord } else { ord.reverse() };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    relation.rows = keyed.into_iter().map(|(_, row)| row).collect();
    Ok(())
}

// ---- type inference for result metadata --------------------------------

/// Best-effort output type inference for result-set metadata. `None` when
/// the type cannot be determined statically (e.g. NULL literal).
pub fn infer_expr_type(expr: &Expr, from_rel: &Relation) -> Option<SqlColumnType> {
    use aldsp_sql::BinaryOp;
    match expr {
        Expr::Column(c) => {
            let found = from_rel.find_columns(c.qualifier.as_deref(), &c.name);
            match found.as_slice() {
                [i] => from_rel.columns[*i].sql_type,
                _ => None,
            }
        }
        Expr::Literal(Literal::Integer(_)) => Some(SqlColumnType::Integer),
        Expr::Literal(Literal::Decimal(_)) => Some(SqlColumnType::Decimal),
        Expr::Literal(Literal::Double(_)) => Some(SqlColumnType::Double),
        Expr::Literal(Literal::String(_)) => Some(SqlColumnType::Varchar),
        Expr::Literal(Literal::Date(_)) => Some(SqlColumnType::Date),
        Expr::Literal(Literal::Null) | Expr::Parameter(_) => None,
        Expr::Unary { expr, .. } => infer_expr_type(expr, from_rel),
        Expr::Binary { left, op, right } => match op {
            BinaryOp::Concat => Some(SqlColumnType::Varchar),
            BinaryOp::And | BinaryOp::Or | BinaryOp::Compare(_) => Some(SqlColumnType::Boolean),
            _ => {
                let l = infer_expr_type(left, from_rel)?;
                let r = infer_expr_type(right, from_rel)?;
                Some(promote(l, r))
            }
        },
        Expr::Function { name, args } => match name.as_str() {
            "COUNT" => Some(SqlColumnType::Bigint),
            "SUM" | "MIN" | "MAX" => match args {
                FunctionArgs::List { args, .. } => {
                    args.first().and_then(|a| infer_expr_type(a, from_rel))
                }
                FunctionArgs::Star => Some(SqlColumnType::Bigint),
            },
            "AVG" => Some(SqlColumnType::Decimal),
            "UPPER" | "LOWER" | "UCASE" | "LCASE" | "CONCAT" => Some(SqlColumnType::Varchar),
            "CHAR_LENGTH" | "CHARACTER_LENGTH" | "LENGTH" | "MOD" => Some(SqlColumnType::Integer),
            "ABS" | "ROUND" | "FLOOR" | "CEILING" => match args {
                FunctionArgs::List { args, .. } => {
                    args.first().and_then(|a| infer_expr_type(a, from_rel))
                }
                FunctionArgs::Star => None,
            },
            _ => None,
        },
        Expr::Case {
            branches,
            else_result,
            ..
        } => branches
            .iter()
            .map(|(_, t)| t)
            .chain(else_result.iter().map(|b| &**b))
            .find_map(|e| infer_expr_type(e, from_rel)),
        Expr::Cast { target, .. } => Some(crate::eval::type_name_to_column(*target)),
        Expr::IsNull { .. }
        | Expr::Between { .. }
        | Expr::InList { .. }
        | Expr::InSubquery { .. }
        | Expr::Exists { .. }
        | Expr::Quantified { .. }
        | Expr::Like { .. } => Some(SqlColumnType::Boolean),
        Expr::ScalarSubquery(_) => None,
        Expr::Substring { .. } | Expr::Trim { .. } => Some(SqlColumnType::Varchar),
        Expr::Position { .. } => Some(SqlColumnType::Integer),
    }
}

fn promote(a: SqlColumnType, b: SqlColumnType) -> SqlColumnType {
    use SqlColumnType as T;
    if a == T::Double || b == T::Double || a == T::Real || b == T::Real {
        T::Double
    } else if a == T::Decimal || b == T::Decimal {
        T::Decimal
    } else {
        T::Integer
    }
}
