//! Scalar expression evaluation with SQL three-valued logic and
//! correlation scopes.
//!
//! Evaluation happens relative to a [`Scope`] — the current row of the
//! current relation, chained to outer rows so correlated subqueries can see
//! enclosing range variables (the oracle-side counterpart of the paper's
//! context chain, §3.4.3).
//!
//! The file has two halves. [`eval_expr`] is the oracle's walker over the
//! SQL AST. Everything below it is the SQL-92 *value kernel*: functions
//! over already-evaluated operands that state each rule once — 3VL,
//! comparison, BETWEEN, IN, quantified comparison, LIKE, SUBSTRING, TRIM,
//! POSITION, the scalar function library. The layer-5 reference
//! interpreter (`aldsp-analyzer::validate`) walks the stage-2 IR instead
//! of the AST and calls the same kernel, so the two interpreters can
//! differ only in how they walk a plan, never in what a value means.

use crate::database::Database;
use crate::exec::{execute_body_scoped, ExecError};
use crate::like::like_match;
use crate::relation::Relation;
use crate::value::{ArithOp, SqlValue};
use aldsp_sql::{
    BinaryOp, ColumnRef, CompareOp, Expr, FunctionArgs, Literal, Quantifier, TrimSide, UnaryOp,
};
use std::borrow::Borrow;
use std::cmp::Ordering;

/// Evaluation environment: the database (for subqueries) and statement
/// parameters.
pub struct EvalContext<'a> {
    /// Tables for subquery execution.
    pub db: &'a Database,
    /// Bound `?` parameter values, by ordinal.
    pub params: &'a [SqlValue],
}

/// A row binding, chained outward for correlation.
#[derive(Clone, Copy)]
pub struct Scope<'a> {
    /// The relation the row belongs to.
    pub relation: &'a Relation,
    /// The current row.
    pub row: &'a [SqlValue],
    /// Enclosing query's scope, if any.
    pub parent: Option<&'a Scope<'a>>,
}

impl<'a> Scope<'a> {
    /// Resolves a column reference, walking outward through enclosing
    /// scopes (SQL-92 correlation rules: innermost match wins; ambiguity
    /// within one scope is an error).
    pub fn resolve(&self, column: &ColumnRef) -> Result<SqlValue, ExecError> {
        let matches = self
            .relation
            .find_columns(column.qualifier.as_deref(), &column.name);
        match matches.as_slice() {
            [i] => Ok(self.row[*i].clone()),
            [] => match self.parent {
                Some(parent) => parent.resolve(column),
                None => Err(ExecError::new(format!("unknown column {column}"))),
            },
            _ => Err(ExecError::new(format!("ambiguous column {column}"))),
        }
    }
}

/// Evaluates `expr` to a value. Predicates yield `Bool`/`Null` (UNKNOWN).
pub fn eval_expr(
    ctx: &EvalContext<'_>,
    scope: &Scope<'_>,
    expr: &Expr,
) -> Result<SqlValue, ExecError> {
    match expr {
        Expr::Column(c) => scope.resolve(c),
        Expr::Literal(l) => Ok(literal_value(l)),
        Expr::Parameter(ordinal) => ctx
            .params
            .get(*ordinal)
            .cloned()
            .ok_or_else(|| ExecError::new(format!("parameter {} not bound", ordinal + 1))),
        Expr::Unary { op, expr } => {
            let v = eval_expr(ctx, scope, expr)?;
            match op {
                UnaryOp::Plus => Ok(v),
                UnaryOp::Neg => negate(v),
                UnaryOp::Not => Ok(truth_to_value(truth(&v)?.map(|b| !b))),
            }
        }
        Expr::Binary { left, op, right } => eval_binary(ctx, scope, left, *op, right),
        Expr::Function { name, args } => eval_function(ctx, scope, name, args),
        Expr::Case {
            operand,
            branches,
            else_result,
        } => {
            for (when, then) in branches {
                let matched = match operand {
                    // Simple CASE compares operand = when.
                    Some(op_expr) => {
                        let lhs = eval_expr(ctx, scope, op_expr)?;
                        let rhs = eval_expr(ctx, scope, when)?;
                        compare_with_op(&lhs, CompareOp::Eq, &rhs)?
                    }
                    // Searched CASE evaluates the predicate.
                    None => truth(&eval_expr(ctx, scope, when)?)?,
                };
                if matched == Some(true) {
                    return eval_expr(ctx, scope, then);
                }
            }
            match else_result {
                Some(e) => eval_expr(ctx, scope, e),
                None => Ok(SqlValue::Null),
            }
        }
        Expr::Cast { expr, target } => {
            let v = eval_expr(ctx, scope, expr)?;
            v.cast_to(type_name_to_column(*target))
                .map_err(|e| ExecError::new(e.message))
        }
        Expr::IsNull { expr, negated } => {
            let v = eval_expr(ctx, scope, expr)?;
            Ok(SqlValue::Bool(v.is_null() != *negated))
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let v = eval_expr(ctx, scope, expr)?;
            let lo = eval_expr(ctx, scope, low)?;
            let hi = eval_expr(ctx, scope, high)?;
            between(&v, &lo, &hi, *negated)
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval_expr(ctx, scope, expr)?;
            let candidates = list.iter().map(|item| eval_expr(ctx, scope, item));
            in_list(&v, candidates, *negated)
        }
        Expr::InSubquery {
            expr,
            query,
            negated,
        } => {
            let v = eval_expr(ctx, scope, expr)?;
            let rel = execute_body_scoped(ctx.db, query, ctx.params, Some(scope))?;
            in_subquery(&v, &rel, *negated)
        }
        Expr::Exists { query, negated } => {
            let rel = execute_body_scoped(ctx.db, query, ctx.params, Some(scope))?;
            Ok(SqlValue::Bool(rel.rows.is_empty() == *negated))
        }
        Expr::ScalarSubquery(query) => scalar_subquery(&execute_body_scoped(
            ctx.db,
            query,
            ctx.params,
            Some(scope),
        )?),
        Expr::Quantified {
            expr,
            op,
            quantifier,
            query,
        } => {
            let v = eval_expr(ctx, scope, expr)?;
            let rel = execute_body_scoped(ctx.db, query, ctx.params, Some(scope))?;
            quantified(&v, *op, *quantifier, &rel)
        }
        Expr::Like {
            expr,
            pattern,
            escape,
            negated,
        } => {
            let v = eval_expr(ctx, scope, expr)?;
            let p = eval_expr(ctx, scope, pattern)?;
            let esc = match escape {
                Some(e) => Some(eval_expr(ctx, scope, e)?),
                None => None,
            };
            like(&v, &p, esc.as_ref(), *negated)
        }
        Expr::Substring {
            expr,
            start,
            length,
        } => {
            let s = eval_expr(ctx, scope, expr)?;
            let st = eval_expr(ctx, scope, start)?;
            let len = match length {
                Some(l) => Some(eval_expr(ctx, scope, l)?),
                None => None,
            };
            substring(&s, &st, len.as_ref())
        }
        Expr::Trim {
            side,
            trim_chars,
            expr,
        } => {
            let v = eval_expr(ctx, scope, expr)?;
            // A NULL operand answers before the trim character is
            // evaluated, so an erroring character expression never runs.
            if v.is_null() {
                return Ok(SqlValue::Null);
            }
            let pad = match trim_chars {
                Some(c) => Some(eval_expr(ctx, scope, c)?),
                None => None,
            };
            trim(*side, pad.as_ref(), &v)
        }
        Expr::Position { needle, haystack } => {
            let n = eval_expr(ctx, scope, needle)?;
            let h = eval_expr(ctx, scope, haystack)?;
            Ok(position(&n, &h))
        }
    }
}

fn eval_binary(
    ctx: &EvalContext<'_>,
    scope: &Scope<'_>,
    left: &Expr,
    op: BinaryOp,
    right: &Expr,
) -> Result<SqlValue, ExecError> {
    match op {
        BinaryOp::And => {
            let l = truth(&eval_expr(ctx, scope, left)?)?;
            // Short circuit: FALSE AND x is FALSE without evaluating x
            // (also avoids spurious division-by-zero style errors).
            if l == Some(false) {
                return Ok(SqlValue::Bool(false));
            }
            let r = truth(&eval_expr(ctx, scope, right)?)?;
            Ok(truth_to_value(and3(l, r)))
        }
        BinaryOp::Or => {
            let l = truth(&eval_expr(ctx, scope, left)?)?;
            if l == Some(true) {
                return Ok(SqlValue::Bool(true));
            }
            let r = truth(&eval_expr(ctx, scope, right)?)?;
            Ok(truth_to_value(or3(l, r)))
        }
        BinaryOp::Compare(c) => {
            let l = eval_expr(ctx, scope, left)?;
            let r = eval_expr(ctx, scope, right)?;
            Ok(truth_to_value(compare_with_op(&l, c, &r)?))
        }
        BinaryOp::Concat => {
            let l = eval_expr(ctx, scope, left)?;
            let r = eval_expr(ctx, scope, right)?;
            Ok(l.concat(&r))
        }
        BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div => {
            let l = eval_expr(ctx, scope, left)?;
            let r = eval_expr(ctx, scope, right)?;
            let arith_op = match op {
                BinaryOp::Add => ArithOp::Add,
                BinaryOp::Sub => ArithOp::Sub,
                BinaryOp::Mul => ArithOp::Mul,
                _ => ArithOp::Div,
            };
            l.arith(arith_op, &r).map_err(|e| ExecError::new(e.message))
        }
    }
}

fn eval_function(
    ctx: &EvalContext<'_>,
    scope: &Scope<'_>,
    name: &str,
    args: &FunctionArgs,
) -> Result<SqlValue, ExecError> {
    if aldsp_sql::is_aggregate_function(name) {
        return Err(ExecError::new(format!(
            "aggregate {name} used outside grouping context"
        )));
    }
    let arg_exprs = match args {
        FunctionArgs::Star => {
            return Err(ExecError::new(format!("{name}(*) is not a scalar call")))
        }
        FunctionArgs::List { args, .. } => args,
    };
    let mut values = Vec::with_capacity(arg_exprs.len());
    for a in arg_exprs {
        values.push(eval_expr(ctx, scope, a)?);
    }
    scalar_function(name, &values)
}

// ---- the value kernel --------------------------------------------------

/// Evaluates a scalar function over already-computed argument values
/// (shared with the XQuery-side function map tests).
pub fn scalar_function(name: &str, values: &[SqlValue]) -> Result<SqlValue, ExecError> {
    let arity = |n: usize| -> Result<(), ExecError> {
        if values.len() == n {
            Ok(())
        } else {
            Err(ExecError::new(format!(
                "{name} expects {n} argument(s), got {}",
                values.len()
            )))
        }
    };
    match name {
        "UPPER" | "UCASE" => {
            arity(1)?;
            Ok(map_string(&values[0], |s| s.to_uppercase()))
        }
        "LOWER" | "LCASE" => {
            arity(1)?;
            Ok(map_string(&values[0], |s| s.to_lowercase()))
        }
        "CHAR_LENGTH" | "CHARACTER_LENGTH" | "LENGTH" => {
            arity(1)?;
            Ok(match &values[0] {
                SqlValue::Null => SqlValue::Null,
                v => SqlValue::Int(v.display_text().chars().count() as i64),
            })
        }
        "ABS" => {
            arity(1)?;
            Ok(match &values[0] {
                SqlValue::Null => SqlValue::Null,
                // ABS(i64::MIN) has no i64 answer.
                SqlValue::Int(i) => SqlValue::Int(
                    i.checked_abs()
                        .ok_or_else(|| ExecError::new("integer overflow"))?,
                ),
                SqlValue::Decimal(d) => SqlValue::Decimal(d.abs()),
                SqlValue::Double(d) => SqlValue::Double(d.abs()),
                other => return Err(ExecError::new(format!("ABS of non-number {other:?}"))),
            })
        }
        "ROUND" | "FLOOR" | "CEILING" => {
            arity(1)?;
            let f = |d: f64| match name {
                "ROUND" => d.round(),
                "FLOOR" => d.floor(),
                _ => d.ceil(),
            };
            Ok(match &values[0] {
                SqlValue::Null => SqlValue::Null,
                SqlValue::Int(i) => SqlValue::Int(*i),
                SqlValue::Decimal(d) => SqlValue::Decimal(f(*d)),
                SqlValue::Double(d) => SqlValue::Double(f(*d)),
                other => return Err(ExecError::new(format!("{name} of non-number {other:?}"))),
            })
        }
        "MOD" => {
            arity(2)?;
            match (&values[0], &values[1]) {
                (SqlValue::Null, _) | (_, SqlValue::Null) => Ok(SqlValue::Null),
                (SqlValue::Int(a), SqlValue::Int(b)) => {
                    if *b == 0 {
                        Err(ExecError::new("MOD by zero"))
                    } else {
                        // `i64::MIN % -1` overflows the CPU's division
                        // but has an answer, 0; wrapping gives it.
                        Ok(SqlValue::Int(a.wrapping_rem(*b)))
                    }
                }
                (a, b) => Err(ExecError::new(format!("MOD of non-integers {a:?}, {b:?}"))),
            }
        }
        "CONCAT" => {
            if values.len() < 2 {
                return Err(ExecError::new("CONCAT expects at least 2 arguments"));
            }
            let mut acc = values[0].clone();
            for v in &values[1..] {
                acc = acc.concat(v);
            }
            Ok(acc)
        }
        "COALESCE" => {
            if values.is_empty() {
                return Err(ExecError::new("COALESCE expects at least 1 argument"));
            }
            Ok(values
                .iter()
                .find(|v| !v.is_null())
                .cloned()
                .unwrap_or(SqlValue::Null))
        }
        "NULLIF" => {
            arity(2)?;
            match compare_values(&values[0], &values[1])? {
                Some(Ordering::Equal) => Ok(SqlValue::Null),
                _ => Ok(values[0].clone()),
            }
        }
        other => Err(ExecError::new(format!("unknown function {other}"))),
    }
}

fn map_string(v: &SqlValue, f: impl FnOnce(&str) -> String) -> SqlValue {
    match v {
        SqlValue::Null => SqlValue::Null,
        other => SqlValue::Str(f(&other.display_text())),
    }
}

/// Unary minus: NULL-propagating, overflow-checked on integers.
pub fn negate(v: SqlValue) -> Result<SqlValue, ExecError> {
    match v {
        SqlValue::Null => Ok(SqlValue::Null),
        SqlValue::Int(i) => i
            .checked_neg()
            .map(SqlValue::Int)
            .ok_or_else(|| ExecError::new("integer overflow")),
        SqlValue::Decimal(d) => Ok(SqlValue::Decimal(-d)),
        SqlValue::Double(d) => Ok(SqlValue::Double(-d)),
        other => Err(ExecError::new(format!("cannot negate {other:?}"))),
    }
}

/// `v [NOT] BETWEEN lo AND hi`: `v >= lo AND v <= hi` under 3VL.
pub fn between(
    v: &SqlValue,
    lo: &SqlValue,
    hi: &SqlValue,
    negated: bool,
) -> Result<SqlValue, ExecError> {
    let ge_lo = compare_with_op(v, CompareOp::GtEq, lo)?;
    let le_hi = compare_with_op(v, CompareOp::LtEq, hi)?;
    Ok(truth_to_value(negate_if(and3(ge_lo, le_hi), negated)))
}

/// `v [NOT] IN (candidates)`. TRUE at the first equal candidate — later
/// ones are never pulled from the iterator, so a list item that would
/// fail to evaluate after a match does not run; otherwise UNKNOWN when
/// any comparison was UNKNOWN (a NULL on either side), else FALSE.
pub fn in_list<V: Borrow<SqlValue>>(
    v: &SqlValue,
    candidates: impl IntoIterator<Item = Result<V, ExecError>>,
    negated: bool,
) -> Result<SqlValue, ExecError> {
    let mut saw_unknown = false;
    for candidate in candidates {
        match compare_values(v, candidate?.borrow())? {
            Some(Ordering::Equal) => return Ok(truth_to_value(negate_if(Some(true), negated))),
            Some(_) => {}
            None => saw_unknown = true,
        }
    }
    let t = if saw_unknown { None } else { Some(false) };
    Ok(truth_to_value(negate_if(t, negated)))
}

/// `v [NOT] IN (subquery)`: [`in_list`] over the subquery's one column.
pub fn in_subquery(v: &SqlValue, rel: &Relation, negated: bool) -> Result<SqlValue, ExecError> {
    require_arity(rel, 1, "IN subquery")?;
    in_list(v, rel.rows.iter().map(|row| Ok(&row[0])), negated)
}

/// `v op ANY|ALL (subquery)`. SQL-92 quantified comparison truth tables:
/// ANY is an OR over the rows, ALL is an AND; an empty subquery is FALSE
/// for ANY, TRUE for ALL.
pub fn quantified(
    v: &SqlValue,
    op: CompareOp,
    quantifier: Quantifier,
    rel: &Relation,
) -> Result<SqlValue, ExecError> {
    require_arity(rel, 1, "quantified subquery")?;
    let mut any_true = false;
    let mut any_false = false;
    let mut any_unknown = false;
    for row in &rel.rows {
        match compare_with_op(v, op, &row[0])? {
            Some(true) => any_true = true,
            Some(false) => any_false = true,
            None => any_unknown = true,
        }
    }
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

/// The value of a scalar subquery: its single cell, NULL when it returned
/// no row, an error when it returned several.
pub fn scalar_subquery(rel: &Relation) -> Result<SqlValue, ExecError> {
    require_arity(rel, 1, "scalar subquery")?;
    match rel.rows.as_slice() {
        [] => Ok(SqlValue::Null),
        [row] => Ok(row[0].clone()),
        rows => Err(ExecError::new(format!(
            "scalar subquery returned {} rows",
            rows.len()
        ))),
    }
}

/// `v [NOT] LIKE pattern [ESCAPE escape]`; NULL when any operand is NULL.
/// The escape value must be a single character.
pub fn like(
    v: &SqlValue,
    pattern: &SqlValue,
    escape: Option<&SqlValue>,
    negated: bool,
) -> Result<SqlValue, ExecError> {
    let esc = match escape {
        None => None,
        Some(SqlValue::Null) => return Ok(SqlValue::Null),
        Some(SqlValue::Str(s)) if s.chars().count() == 1 => s.chars().next(),
        Some(other) => {
            return Err(ExecError::new(format!(
                "ESCAPE must be a single character, got {other:?}"
            )))
        }
    };
    if v.is_null() || pattern.is_null() {
        return Ok(SqlValue::Null);
    }
    let matched = like_match(&v.display_text(), &pattern.display_text(), esc)
        .map_err(|e| ExecError::new(e.message))?;
    Ok(SqlValue::Bool(matched != negated))
}

/// `SUBSTRING(s FROM start [FOR length])`; NULL when any operand is NULL,
/// an error when the length is negative.
pub fn substring(
    s: &SqlValue,
    start: &SqlValue,
    length: Option<&SqlValue>,
) -> Result<SqlValue, ExecError> {
    if s.is_null() || start.is_null() || length.is_some_and(|l| l.is_null()) {
        return Ok(SqlValue::Null);
    }
    let start = int_of(start, "SUBSTRING start")?;
    let length = match length {
        Some(l) => {
            let n = int_of(l, "SUBSTRING length")?;
            if n < 0 {
                return Err(ExecError::new("negative SUBSTRING length"));
            }
            Some(n)
        }
        None => None,
    };
    Ok(SqlValue::Str(sql_substring(
        &s.display_text(),
        start,
        length,
    )))
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

/// `TRIM([side] [pad FROM] v)`: strips `pad` (one character, a blank when
/// absent) from the chosen side(s); NULL when either operand is NULL.
pub fn trim(side: TrimSide, pad: Option<&SqlValue>, v: &SqlValue) -> Result<SqlValue, ExecError> {
    if v.is_null() || pad.is_some_and(|p| p.is_null()) {
        return Ok(SqlValue::Null);
    }
    let pad = match pad {
        Some(p) => {
            let s = p.display_text();
            let mut chars = s.chars();
            match (chars.next(), chars.next()) {
                (Some(ch), None) => ch,
                _ => return Err(ExecError::new("TRIM character must be a single character")),
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

/// `POSITION(needle IN haystack)`: 1-based character position, 0 when not
/// found, 1 for an empty needle; NULL when either operand is NULL.
pub fn position(needle: &SqlValue, haystack: &SqlValue) -> SqlValue {
    if needle.is_null() || haystack.is_null() {
        return SqlValue::Null;
    }
    let needle = needle.display_text();
    let haystack = haystack.display_text();
    SqlValue::Int(if needle.is_empty() {
        1
    } else {
        match haystack.find(&needle) {
            Some(byte) => haystack[..byte].chars().count() as i64 + 1,
            None => 0,
        }
    })
}

fn int_of(v: &SqlValue, what: &str) -> Result<i64, ExecError> {
    match v {
        SqlValue::Int(i) => Ok(*i),
        SqlValue::Decimal(d) | SqlValue::Double(d) => Ok(*d as i64),
        other => Err(ExecError::new(format!(
            "{what} must be numeric, got {other:?}"
        ))),
    }
}

fn require_arity(rel: &Relation, n: usize, what: &str) -> Result<(), ExecError> {
    if rel.arity() == n {
        Ok(())
    } else {
        Err(ExecError::new(format!(
            "{what} must return {n} column(s), returned {}",
            rel.arity()
        )))
    }
}

/// Converts a predicate value into three-valued truth.
pub fn truth(v: &SqlValue) -> Result<Option<bool>, ExecError> {
    match v {
        SqlValue::Null => Ok(None),
        SqlValue::Bool(b) => Ok(Some(*b)),
        other => Err(ExecError::new(format!(
            "predicate evaluated to non-boolean {other:?}"
        ))),
    }
}

/// Whether a WHERE / ON / HAVING predicate value keeps its row: only TRUE
/// does, UNKNOWN drops it like FALSE.
pub fn is_true(v: &SqlValue) -> Result<bool, ExecError> {
    Ok(truth(v)? == Some(true))
}

/// Converts three-valued truth into a value.
pub fn truth_to_value(t: Option<bool>) -> SqlValue {
    match t {
        Some(b) => SqlValue::Bool(b),
        None => SqlValue::Null,
    }
}

/// Kleene AND.
pub fn and3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

/// Kleene OR.
pub fn or3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(true), _) | (_, Some(true)) => Some(true),
        (Some(false), Some(false)) => Some(false),
        _ => None,
    }
}

fn negate_if(t: Option<bool>, negate: bool) -> Option<bool> {
    if negate {
        t.map(|b| !b)
    } else {
        t
    }
}

/// Comparison returning 3VL ordering.
pub fn compare_values(a: &SqlValue, b: &SqlValue) -> Result<Option<Ordering>, ExecError> {
    a.compare(b).map_err(|e| ExecError::new(e.message))
}

/// Applies a comparison operator with 3VL.
pub fn compare_with_op(
    a: &SqlValue,
    op: CompareOp,
    b: &SqlValue,
) -> Result<Option<bool>, ExecError> {
    let ord = compare_values(a, b)?;
    Ok(ord.map(|o| match op {
        CompareOp::Eq => o == Ordering::Equal,
        CompareOp::NotEq => o != Ordering::Equal,
        CompareOp::Lt => o == Ordering::Less,
        CompareOp::LtEq => o != Ordering::Greater,
        CompareOp::Gt => o == Ordering::Greater,
        CompareOp::GtEq => o != Ordering::Less,
    }))
}

/// The runtime value of a SQL literal — what the oracle, the reference
/// interpreter and the plan cache's extracted-literal bindings all compute
/// with, so a literal means the same value on every path.
pub fn literal_value(l: &Literal) -> SqlValue {
    match l {
        Literal::Integer(i) => SqlValue::Int(*i),
        Literal::Decimal(d) => SqlValue::Decimal(*d),
        Literal::Double(d) => SqlValue::Double(*d),
        Literal::String(s) => SqlValue::Str(s.clone()),
        Literal::Date(d) => SqlValue::Date(d.clone()),
        Literal::Null => SqlValue::Null,
    }
}

pub use crate::sqltype::type_name_to_column;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kleene_tables() {
        assert_eq!(and3(Some(true), None), None);
        assert_eq!(and3(Some(false), None), Some(false));
        assert_eq!(or3(Some(true), None), Some(true));
        assert_eq!(or3(Some(false), None), None);
        assert_eq!(or3(None, None), None);
    }

    #[test]
    fn substring_window_clips() {
        assert_eq!(sql_substring("hello", 2, Some(2)), "el");
        assert_eq!(sql_substring("hello", 0, Some(3)), "he"); // window [0,3)
        assert_eq!(sql_substring("hello", -2, Some(4)), "h"); // window [-2,2)
        assert_eq!(sql_substring("hello", 4, None), "lo");
        assert_eq!(sql_substring("hello", 10, None), "");
    }

    #[test]
    fn scalar_functions() {
        assert_eq!(
            scalar_function("UPPER", &[SqlValue::Str("joe".into())]).unwrap(),
            SqlValue::Str("JOE".into())
        );
        assert_eq!(
            scalar_function("CHAR_LENGTH", &[SqlValue::Str("héllo".into())]).unwrap(),
            SqlValue::Int(5)
        );
        assert_eq!(
            scalar_function("COALESCE", &[SqlValue::Null, SqlValue::Int(2)]).unwrap(),
            SqlValue::Int(2)
        );
        assert_eq!(
            scalar_function("NULLIF", &[SqlValue::Int(1), SqlValue::Int(1)]).unwrap(),
            SqlValue::Null
        );
        assert_eq!(
            scalar_function("MOD", &[SqlValue::Int(7), SqlValue::Int(3)]).unwrap(),
            SqlValue::Int(1)
        );
        assert!(scalar_function("NO_SUCH_FN", &[]).is_err());
    }

    #[test]
    fn integer_min_corners_answer_or_overflow() {
        let min = SqlValue::Int(i64::MIN);
        assert_eq!(
            scalar_function("MOD", &[min.clone(), SqlValue::Int(-1)]).unwrap(),
            SqlValue::Int(0)
        );
        let overflow = ExecError::new("integer overflow");
        assert_eq!(
            scalar_function("ABS", std::slice::from_ref(&min)),
            Err(overflow.clone())
        );
        assert_eq!(negate(min.clone()), Err(overflow));
        assert_eq!(
            min.arith(ArithOp::Div, &SqlValue::Int(-1))
                .unwrap_err()
                .message,
            "integer overflow"
        );
    }

    #[test]
    fn in_list_stops_at_the_first_match_and_remembers_unknowns() {
        let one = SqlValue::Int(1);
        let boom = || Err(ExecError::new("evaluated past the match"));
        let hit = [Ok(SqlValue::Null), Ok(SqlValue::Int(1))];
        assert_eq!(
            in_list(
                &one,
                hit.into_iter().chain(std::iter::once_with(boom)),
                false
            ),
            Ok(SqlValue::Bool(true))
        );
        let miss = [Ok(SqlValue::Int(2)), Ok(SqlValue::Null)];
        assert_eq!(in_list(&one, miss.clone(), false), Ok(SqlValue::Null));
        assert_eq!(in_list(&one, miss, true), Ok(SqlValue::Null));
        assert_eq!(
            in_list(&one, [Ok(SqlValue::Int(2))], true),
            Ok(SqlValue::Bool(true))
        );
    }

    #[test]
    fn null_string_functions_propagate() {
        assert_eq!(
            scalar_function("UPPER", &[SqlValue::Null]).unwrap(),
            SqlValue::Null
        );
    }
}
