//! Layer 1: invariant checks over the stage-1/stage-2 IR.
//!
//! The paper's translator rests on structural discipline: one query
//! context per (sub)query block (§3.4.3), one RSN per table / derived
//! table / join / set operation (§3.4.2, Fig. 4), every column reference
//! resolved against catalog metadata after wildcard expansion, and the
//! GROUP BY legality rule (§3.5 (v)). Stage two is supposed to establish
//! all of this; this pass re-verifies it on the prepared IR so a stage-2
//! regression (or a hand-built IR) is caught as a stable `A0xx`
//! diagnostic instead of a confusing downstream evaluation diff.

use crate::diag::{DiagCode, Diagnostic};
use aldsp_core::ir::{
    PreparedBody, PreparedQuery, PreparedSelect, Rsn, RsnColumn, TExpr, TExprKind,
};
use std::collections::{HashMap, HashSet};

/// Checks every invariant over a prepared query tree. Empty result means
/// the IR is well-formed.
pub fn check_prepared(query: &PreparedQuery) -> Vec<Diagnostic> {
    let mut checker = IrChecker::default();
    checker.check_query(query);
    let mut by_ctx: HashMap<u32, u32> = HashMap::new();
    for ctx in &checker.ctx_ids {
        *by_ctx.entry(*ctx).or_insert(0) += 1;
    }
    let mut dups: Vec<u32> = by_ctx
        .iter()
        .filter(|(_, n)| **n > 1)
        .map(|(ctx, _)| *ctx)
        .collect();
    dups.sort_unstable();
    for ctx in dups {
        checker.diags.push(Diagnostic::new(
            DiagCode::A001,
            format!("query context {ctx} is owned by more than one query block"),
        ));
    }
    checker.diags
}

#[derive(Default)]
struct IrChecker {
    diags: Vec<Diagnostic>,
    /// Every select block's context id, for the global uniqueness check.
    ctx_ids: Vec<u32>,
    /// Column-visibility frames, innermost last. A frame holds the columns
    /// of one select's FROM clause (or of one join subtree while its ON
    /// predicate is checked).
    frames: Vec<Vec<RsnColumn>>,
}

impl IrChecker {
    fn push(&mut self, code: DiagCode, message: String) {
        self.diags.push(Diagnostic::new(code, message));
    }

    fn check_query(&mut self, query: &PreparedQuery) {
        self.check_body(&query.body);
        for order in &query.order_by {
            if order.column >= query.output.len() {
                self.push(
                    DiagCode::A006,
                    format!(
                        "ORDER BY resolved to output index {} but the query has {} output column(s)",
                        order.column,
                        query.output.len()
                    ),
                );
            }
        }
    }

    fn check_body(&mut self, body: &PreparedBody) {
        match body {
            PreparedBody::Select(select) => self.check_select(select),
            PreparedBody::SetOp {
                left,
                op,
                right,
                output,
                ..
            } => {
                let l = left.output().len();
                let r = right.output().len();
                if l != r || l != output.len() {
                    self.push(
                        DiagCode::A007,
                        format!(
                            "{op:?} operands expose {l} and {r} column(s); the node declares {}",
                            output.len()
                        ),
                    );
                }
                self.check_body(left);
                self.check_body(right);
            }
        }
    }

    fn check_select(&mut self, select: &PreparedSelect) {
        if select.ctx_id == 0 {
            self.push(
                DiagCode::A001,
                "query block carries reserved context id 0 (stage-one ids start at 1)".into(),
            );
        }
        self.ctx_ids.push(select.ctx_id);

        // A002: each range variable names exactly one RSN in this FROM.
        let mut seen: HashSet<&str> = HashSet::new();
        for rsn in &select.from {
            for range_var in rsn.range_vars() {
                if !seen.insert(range_var) {
                    self.push(
                        DiagCode::A002,
                        format!(
                            "range variable \"{range_var}\" is bound more than once in context {}",
                            select.ctx_id
                        ),
                    );
                }
            }
        }

        // Derived-table subqueries and join ON predicates are checked
        // *before* this select's frame is pushed: a derived table is
        // uncorrelated with its sibling RSNs, so only the enclosing
        // frames are visible to it (this mirrors stage three, which
        // generates derived tables against the parent scope).
        for rsn in &select.from {
            self.check_rsn(rsn);
        }

        let frame: Vec<RsnColumn> = select.from.iter().flat_map(|rsn| rsn.columns()).collect();
        self.frames.push(frame);

        // A005: items ↔ output columns is a bijection.
        let mut covered = vec![false; select.output.len()];
        for item in &select.items {
            match covered.get_mut(item.output) {
                Some(slot) if !*slot => *slot = true,
                Some(_) => self.push(
                    DiagCode::A005,
                    format!(
                        "two projection items target output column {} in context {}",
                        item.output, select.ctx_id
                    ),
                ),
                None => self.push(
                    DiagCode::A005,
                    format!(
                        "projection item targets output index {} but the block has {} column(s)",
                        item.output,
                        select.output.len()
                    ),
                ),
            }
            self.check_expr(&item.expr);
        }
        for (index, hit) in covered.iter().enumerate() {
            if !hit {
                self.push(
                    DiagCode::A005,
                    format!(
                        "output column {index} (\"{}\") has no projection item in context {}",
                        select.output[index].name, select.ctx_id
                    ),
                );
            }
        }

        if let Some(predicate) = &select.where_clause {
            self.check_expr(predicate);
        }
        for key in &select.group_by {
            self.check_expr(key);
        }
        if let Some(predicate) = &select.having {
            self.check_expr(predicate);
        }

        // A004: post-restructuring GROUP BY legality. Every projection
        // and HAVING expression over a grouped block must be built from
        // group keys, aggregates, and constants.
        if select.grouped {
            for item in &select.items {
                self.check_grouped_expr(&item.expr, select, "projection item");
            }
            if let Some(predicate) = &select.having {
                self.check_grouped_expr(predicate, select, "HAVING predicate");
            }
        }

        self.frames.pop();
    }

    fn check_rsn(&mut self, rsn: &Rsn) {
        match rsn {
            Rsn::Table { .. } => {}
            Rsn::Derived { query, .. } => self.check_query(query),
            Rsn::Join {
                left, right, on, ..
            } => {
                self.check_rsn(left);
                self.check_rsn(right);
                if let Some(predicate) = on {
                    // The ON predicate sees this join subtree's columns
                    // (plus enclosing frames for correlated cases).
                    self.frames.push(rsn.columns());
                    self.check_expr(predicate);
                    self.frames.pop();
                }
            }
        }
    }

    /// Resolves one column reference against the frame stack, innermost
    /// first. Stage two records the resolution winner's range variable, so
    /// existence of the (range var, column) pair is the whole check.
    fn resolve(&self, range_var: &str, column: &str) -> bool {
        self.frames.iter().rev().any(|frame| {
            frame
                .iter()
                .any(|c| c.range_var == range_var && c.name == column)
        })
    }

    fn check_expr(&mut self, expr: &TExpr) {
        match &expr.kind {
            TExprKind::Column { range_var, column } if !self.resolve(range_var, column) => {
                self.push(
                    DiagCode::A003,
                    format!(
                        "column {range_var}.{column} does not resolve against any RSN in scope"
                    ),
                );
            }
            TExprKind::Column { .. } => {}
            TExprKind::Generated { xquery } => {
                self.push(
                    DiagCode::A008,
                    format!(
                        "stage-3 internal Generated node (\"{}\") present in stage-2 output",
                        truncate(xquery)
                    ),
                );
            }
            _ => {}
        }
        if let Some(query) = expr.subquery() {
            // Subqueries are correlated: they see the full current frame
            // stack, so no frames are popped.
            self.check_query(query);
        }
        expr.visit_children(&mut |child| self.check_expr(child));
    }

    /// A004: `expr` over a grouped block must be a group key (structural
    /// match), an aggregate, a constant, a subquery (whose own blocks are
    /// checked separately), or a composition of legal parts.
    fn check_grouped_expr(&mut self, expr: &TExpr, select: &PreparedSelect, site: &str) {
        if !grouped_legal(expr, &select.group_by) {
            self.push(
                DiagCode::A004,
                format!(
                    "{site} in grouped context {} references non-grouped columns outside an aggregate",
                    select.ctx_id
                ),
            );
        }
    }
}

fn grouped_legal(expr: &TExpr, keys: &[TExpr]) -> bool {
    if keys.iter().any(|key| key == expr) {
        return true;
    }
    match &expr.kind {
        TExprKind::Aggregate { .. } => true,
        TExprKind::Column { .. } => false,
        TExprKind::Literal(_) | TExprKind::Parameter(_) => true,
        // Subquery operands may correlate arbitrarily; their own blocks
        // are verified by `check_query`. The *comparison operand* on the
        // outer side still has to be legal.
        TExprKind::InSubquery { expr, .. } | TExprKind::Quantified { expr, .. } => {
            grouped_legal(expr, keys)
        }
        TExprKind::Exists { .. } | TExprKind::ScalarSubquery(_) => true,
        _ => {
            let mut legal = true;
            expr.visit_children(&mut |child| {
                if !grouped_legal(child, keys) {
                    legal = false;
                }
            });
            legal
        }
    }
}

fn truncate(text: &str) -> String {
    const LIMIT: usize = 40;
    if text.len() <= LIMIT {
        text.to_string()
    } else {
        let cut = text
            .char_indices()
            .take_while(|(i, _)| *i < LIMIT)
            .last()
            .map(|(i, c)| i + c.len_utf8())
            .unwrap_or(0);
        format!("{}...", &text[..cut])
    }
}
