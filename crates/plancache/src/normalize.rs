//! SQL normalization: literal extraction and canonical-text construction.
//!
//! The paper's driver caches only table metadata (§3.3); every statement
//! pays full three-stage translation. A reporting tool issuing thousands
//! of near-identical SELECTs — differing only in literal values — should
//! instead share one plan, the way its §3.2 stored procedures already
//! share one parameterized translation. This pass makes that literal/
//! parameter equivalence explicit: it rewrites predicate literals into
//! `?` markers, producing
//!
//! * a **canonical text** — the rewritten statement rendered back to SQL,
//!   identical for `WHERE ID = 5` and `WHERE ID = 7`, which keys the
//!   shared plan; and
//! * a **slot vector** mapping each marker of the canonical text back to
//!   its origin: a user-supplied `?` (by original ordinal) or an
//!   extracted literal (by extraction index), plus the extracted values.
//!
//! ## Ordinal discipline
//!
//! Every marker in the canonical text — pre-existing `?`s and freshly
//! extracted literals alike — is renumbered to its position in the
//! **render order** of the statement. The walk below visits expressions
//! in exactly the order `aldsp_sql`'s `Display` impl emits them (see
//! [`aldsp_sql::Expr::visit_children_mut`]), so when the canonical text
//! is re-parsed, the parser's source-order ordinal `i` names slot `i`.
//! The cache verifies this invariant on every plan build by comparing the
//! re-parsed parameter count against the slot count.
//!
//! ## Extraction zones
//!
//! Literals are extracted only from *predicate* positions — `WHERE`,
//! join `ON`, and `HAVING`, at every nesting depth (each subquery's own
//! predicates are zones of their own). Everything else keeps its
//! literals:
//!
//! * **projection** — a projected literal's face type becomes result-set
//!   metadata (`SELECT 5` is an INTEGER column); a parameter there would
//!   change `ResultSetMetaData` and the decode path;
//! * **ORDER BY** — a bare integer is an ordinal reference to a select
//!   item (SQL-92), not a value;
//! * **GROUP BY** — the stage-two legality rule compares grouping
//!   expressions structurally against the projection;
//! * **NULL** anywhere — `NULL` belongs to every type and its predicate
//!   semantics are position-dependent; it stays verbatim.

use aldsp_catalog::SqlColumnType;
use aldsp_relational::eval::literal_value;
use aldsp_relational::{type_name_to_column, SqlValue};
use aldsp_sql::{Expr, Query, QueryBody, Select, SelectItem, TableRef};

/// Where one `$sqlParam` of a cached plan gets its value at execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamSlot {
    /// A user-supplied `?`, by its ordinal in the *original* statement.
    User(usize),
    /// An extracted literal, by its index into the extraction vector.
    Literal(usize),
}

/// The result of normalizing one statement.
#[derive(Debug, Clone)]
pub struct NormalizedStatement {
    /// The rewritten statement rendered back to SQL — the plan key.
    pub canonical_sql: String,
    /// One entry per `?` of the canonical text, in marker order.
    pub slots: Vec<ParamSlot>,
    /// Values of the extracted literals, in extraction order
    /// ([`ParamSlot::Literal`] indexes into this).
    pub literal_args: Vec<SqlValue>,
    /// Face types of the extracted literals (SQL-92 §5.3, via the shared
    /// [`aldsp_sql::Literal::type_name`] table — the same table the analyzer's
    /// type-flow layer consumes).
    pub literal_types: Vec<SqlColumnType>,
    /// Number of `?` markers in the *original* statement.
    pub user_param_count: usize,
}

/// Normalizes a parsed query: extracts predicate literals, renumbers all
/// markers in render order, and renders the canonical text.
pub fn normalize(query: &Query, user_param_count: usize) -> NormalizedStatement {
    let mut rewritten = query.clone();
    let mut walker = Walker::default();
    walker.query(&mut rewritten);
    NormalizedStatement {
        canonical_sql: rewritten.to_string(),
        slots: walker.slots,
        literal_args: walker.literal_args,
        literal_types: walker.literal_types,
        user_param_count,
    }
}

#[derive(Default)]
struct Walker {
    slots: Vec<ParamSlot>,
    literal_args: Vec<SqlValue>,
    literal_types: Vec<SqlColumnType>,
}

impl Walker {
    fn query(&mut self, q: &mut Query) {
        self.body(&mut q.body);
        for item in &mut q.order_by {
            // ORDER BY is not an extraction zone (ordinal references).
            self.expr(&mut item.expr, false);
        }
    }

    fn body(&mut self, b: &mut QueryBody) {
        match b {
            QueryBody::Select(s) => self.select(s),
            QueryBody::SetOp { left, right, .. } => {
                self.body(left);
                self.body(right);
            }
        }
    }

    fn select(&mut self, s: &mut Select) {
        for item in &mut s.items {
            if let SelectItem::Expr { expr, .. } = item {
                // Projection is not an extraction zone (output typing).
                self.expr(expr, false);
            }
        }
        for t in &mut s.from {
            self.table(t);
        }
        if let Some(w) = &mut s.where_clause {
            self.expr(w, true);
        }
        for g in &mut s.group_by {
            // GROUP BY is not an extraction zone (legality rule compares
            // grouping expressions structurally).
            self.expr(g, false);
        }
        if let Some(h) = &mut s.having {
            self.expr(h, true);
        }
    }

    fn table(&mut self, t: &mut TableRef) {
        match t {
            TableRef::Table { .. } => {}
            TableRef::Derived { query, .. } => self.query(query),
            TableRef::Join {
                left, right, on, ..
            } => {
                self.table(left);
                self.table(right);
                if let Some(on) = on {
                    self.expr(on, true);
                }
            }
        }
    }

    fn expr(&mut self, e: &mut Expr, extract: bool) {
        match e {
            Expr::Parameter(n) => {
                let slot = self.slots.len();
                self.slots.push(ParamSlot::User(*n));
                *n = slot;
            }
            Expr::Literal(lit) if extract && !lit.is_null() => {
                let face = lit
                    .type_name()
                    .expect("non-NULL literals always carry a face type");
                let index = self.literal_args.len();
                self.literal_args.push(literal_value(lit));
                self.literal_types.push(type_name_to_column(face));
                let slot = self.slots.len();
                self.slots.push(ParamSlot::Literal(index));
                *e = Expr::Parameter(slot);
            }
            Expr::Literal(_) => {}
            // Subquery-bearing nodes: the value operand renders before the
            // subquery, and each subquery applies its own zone rules.
            Expr::InSubquery { expr, query, .. } => {
                self.expr(expr, extract);
                self.query(query);
            }
            Expr::Quantified { expr, query, .. } => {
                self.expr(expr, extract);
                self.query(query);
            }
            Expr::Exists { query, .. } => self.query(query),
            Expr::ScalarSubquery(query) => self.query(query),
            other => other.visit_children_mut(&mut |child| self.expr(child, extract)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aldsp_sql::parse_select;

    fn norm(sql: &str) -> NormalizedStatement {
        let query = parse_select(sql).unwrap();
        let user = count_user_params(&query);
        normalize(&query, user)
    }

    fn count_user_params(query: &Query) -> usize {
        // Matches stage one: one past the highest ordinal.
        let rendered = query.to_string();
        rendered.matches('?').count()
    }

    #[test]
    fn literals_share_one_canonical_text() {
        let a = norm("SELECT NAME FROM T WHERE ID = 5");
        let b = norm("SELECT NAME FROM T WHERE ID = 7");
        assert_eq!(a.canonical_sql, b.canonical_sql);
        assert_eq!(a.literal_args, vec![SqlValue::Int(5)]);
        assert_eq!(b.literal_args, vec![SqlValue::Int(7)]);
        assert_eq!(a.slots, vec![ParamSlot::Literal(0)]);
        assert_eq!(a.literal_types, vec![SqlColumnType::Integer]);
    }

    #[test]
    fn user_markers_interleave_with_extracted_literals() {
        let n = norm("SELECT A FROM T WHERE A = ? OR (B = 5 AND C = ?)");
        // Render order: user ?, literal 5, user ?.
        assert_eq!(
            n.slots,
            vec![
                ParamSlot::User(0),
                ParamSlot::Literal(0),
                ParamSlot::User(1)
            ]
        );
        assert_eq!(n.canonical_sql.matches('?').count(), 3);
        assert_eq!(n.literal_args, vec![SqlValue::Int(5)]);
    }

    #[test]
    fn projection_group_order_literals_stay() {
        let n = norm("SELECT 5, A FROM T WHERE B = 1 GROUP BY A, 'k' ORDER BY 1");
        // Only the WHERE literal moves.
        assert_eq!(n.slots, vec![ParamSlot::Literal(0)]);
        assert!(n.canonical_sql.starts_with("SELECT 5, A"));
        assert!(n.canonical_sql.contains("GROUP BY A, 'k'"));
        assert!(n.canonical_sql.ends_with("ORDER BY 1"));
    }

    #[test]
    fn null_is_never_extracted() {
        let n = norm("SELECT A FROM T WHERE B = NULL OR C = 3");
        assert_eq!(n.slots, vec![ParamSlot::Literal(0)]);
        assert!(n.canonical_sql.contains("NULL"));
    }

    #[test]
    fn on_and_having_are_zones() {
        let n = norm(
            "SELECT A, COUNT(*) FROM T INNER JOIN U ON T.X = U.X AND U.K = 2 \
             GROUP BY A HAVING COUNT(*) > 10",
        );
        assert_eq!(n.literal_args, vec![SqlValue::Int(2), SqlValue::Int(10)]);
    }

    #[test]
    fn subquery_predicates_are_zones_projections_are_not() {
        let n = norm("SELECT A FROM T WHERE B IN (SELECT 9 FROM U WHERE C = 4)");
        // The subquery's projected 9 stays; its WHERE literal moves.
        assert_eq!(n.literal_args, vec![SqlValue::Int(4)]);
        assert!(n.canonical_sql.contains("SELECT 9 FROM U"));
    }

    #[test]
    fn canonical_reparse_counts_match_slots() {
        for sql in [
            "SELECT A FROM T WHERE A = 1 AND B BETWEEN 2 AND 3",
            "SELECT A FROM T WHERE A LIKE 'x%' ESCAPE '!' OR B IN (1, 2, 3)",
            "SELECT A FROM T WHERE A = ? AND B = 5 OR C > ALL (SELECT D FROM U WHERE E = 6)",
            "SELECT A FROM T LEFT OUTER JOIN U ON T.X = U.X AND U.Y = DATE '2006-01-01'",
            "SELECT A FROM (SELECT A FROM T WHERE B = 1) AS S WHERE A <> 2",
        ] {
            let n = norm(sql);
            let reparsed = parse_select(&n.canonical_sql).unwrap();
            let mut max: Option<usize> = None;
            count_markers(&reparsed, &mut max);
            assert_eq!(
                max.map_or(0, |m| m + 1),
                n.slots.len(),
                "marker/slot mismatch for {sql}"
            );
        }
    }

    fn count_markers(query: &Query, max: &mut Option<usize>) {
        fn walk_expr(e: &Expr, max: &mut Option<usize>) {
            if let Expr::Parameter(n) = e {
                *max = Some(max.map_or(*n, |m| m.max(*n)));
            }
            e.visit_children(&mut |c| walk_expr(c, max));
            match e {
                Expr::InSubquery { query, .. }
                | Expr::Exists { query, .. }
                | Expr::Quantified { query, .. } => count_markers(query, max),
                Expr::ScalarSubquery(query) => count_markers(query, max),
                _ => {}
            }
        }
        fn walk_body(b: &QueryBody, max: &mut Option<usize>) {
            match b {
                QueryBody::Select(s) => {
                    for item in &s.items {
                        if let SelectItem::Expr { expr, .. } = item {
                            walk_expr(expr, max);
                        }
                    }
                    for t in &s.from {
                        walk_table(t, max);
                    }
                    if let Some(w) = &s.where_clause {
                        walk_expr(w, max);
                    }
                    for g in &s.group_by {
                        walk_expr(g, max);
                    }
                    if let Some(h) = &s.having {
                        walk_expr(h, max);
                    }
                }
                QueryBody::SetOp { left, right, .. } => {
                    walk_body(left, max);
                    walk_body(right, max);
                }
            }
        }
        fn walk_table(t: &TableRef, max: &mut Option<usize>) {
            match t {
                TableRef::Table { .. } => {}
                TableRef::Derived { query, .. } => count_markers(query, max),
                TableRef::Join {
                    left, right, on, ..
                } => {
                    walk_table(left, max);
                    walk_table(right, max);
                    if let Some(on) = on {
                        walk_expr(on, max);
                    }
                }
            }
        }
        walk_body(&query.body, max);
        for item in &query.order_by {
            walk_expr(&item.expr, max);
        }
    }
}
