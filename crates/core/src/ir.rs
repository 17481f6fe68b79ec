//! The prepared intermediate representation stage two hands to stage
//! three: resultset nodes (RSNs) and typed expressions.
//!
//! "A typed view node is created for each query (or subquery), each join
//! operation on two views, each set operation on two queries, and each
//! table ... All RSNs are of the same type and represent a tabular view of
//! data" (paper §3.4.2). [`Rsn`] is that node; [`RsnColumn`] is the
//! uniform column surface every RSN exposes for resolution requests.

use aldsp_catalog::{SqlColumnType, TableEntry};
use aldsp_sql::{CompareOp, JoinKind, Literal, Quantifier, SetOp, TrimSide};
use std::sync::Arc;

/// One output column of a (sub)query — result-set metadata plus the
/// element name used in generated `<RECORD>` rows.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputColumn {
    /// Output name (alias, column name, or generated `EXPRn`). This is
    /// also the result element's name, qualified with the source range
    /// variable when the paper's examples do so (`CUSTOMERS.CUSTOMERID`).
    pub name: String,
    /// The bare column label (what JDBC metadata reports).
    pub label: String,
    /// Inferred type; `None` when statically unknown.
    pub sql_type: Option<SqlColumnType>,
    /// Whether NULL can appear.
    pub nullable: bool,
}

/// A prepared query: body plus resolved ORDER BY.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedQuery {
    /// The body.
    pub body: PreparedBody,
    /// Resolved ordering: indices into `output`.
    pub order_by: Vec<PreparedOrder>,
    /// Output columns (the body's output; shared here for convenience).
    pub output: Vec<OutputColumn>,
}

/// One resolved ORDER BY item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PreparedOrder {
    /// Index into the output columns.
    pub column: usize,
    /// Ascending unless `DESC`.
    pub ascending: bool,
}

/// A prepared query body.
#[derive(Debug, Clone, PartialEq)]
pub enum PreparedBody {
    /// A SELECT block.
    Select(Box<PreparedSelect>),
    /// A set operation of two bodies (a set-operation RSN).
    SetOp {
        /// Left operand.
        left: Box<PreparedBody>,
        /// The operation.
        op: SetOp,
        /// Bag (`ALL`) semantics.
        all: bool,
        /// Right operand.
        right: Box<PreparedBody>,
        /// Output columns (the left operand's, per SQL-92).
        output: Vec<OutputColumn>,
    },
}

impl PreparedBody {
    /// The body's output columns.
    pub fn output(&self) -> &[OutputColumn] {
        match self {
            PreparedBody::Select(s) => &s.output,
            PreparedBody::SetOp { output, .. } => output,
        }
    }
}

/// A prepared SELECT block.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedSelect {
    /// The query-context id (paper §3.4.3); embedded in generated variable
    /// names.
    pub ctx_id: u32,
    /// `DISTINCT`.
    pub distinct: bool,
    /// Projection items, wildcards already expanded.
    pub items: Vec<PreparedItem>,
    /// The FROM clause: one RSN per comma-separated reference.
    pub from: Vec<Rsn>,
    /// WHERE predicate.
    pub where_clause: Option<TExpr>,
    /// GROUP BY keys.
    pub group_by: Vec<TExpr>,
    /// HAVING predicate.
    pub having: Option<TExpr>,
    /// True when grouping applies (explicit GROUP BY or aggregates in the
    /// projection/HAVING).
    pub grouped: bool,
    /// Output columns.
    pub output: Vec<OutputColumn>,
}

/// One projection item.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedItem {
    /// The value expression.
    pub expr: TExpr,
    /// Index into the select's output columns.
    pub output: usize,
}

/// A resultset node: every tabular abstraction in the FROM clause.
#[derive(Debug, Clone, PartialEq)]
pub enum Rsn {
    /// A base table — a parameterless data-service function.
    Table {
        /// Range variable (alias or table name).
        range_var: String,
        /// Catalog entry (function name, namespace, schema).
        entry: Arc<TableEntry>,
    },
    /// A derived table (subquery with alias).
    Derived {
        /// Range variable.
        range_var: String,
        /// The prepared subquery.
        query: Box<PreparedQuery>,
    },
    /// A join of two RSNs. `RIGHT OUTER` keeps its operand order here
    /// (so wildcard expansion sees SQL's column order) and is generated
    /// as a LEFT OUTER with swapped operands in stage three.
    Join {
        /// Join kind.
        kind: JoinKind,
        /// Left operand.
        left: Box<Rsn>,
        /// Right operand.
        right: Box<Rsn>,
        /// Translated ON predicate.
        on: Option<TExpr>,
    },
}

/// One column a RSN exposes.
#[derive(Debug, Clone, PartialEq)]
pub struct RsnColumn {
    /// Owning range variable.
    pub range_var: String,
    /// Column name.
    pub name: String,
    /// Declared/inferred type.
    pub sql_type: Option<SqlColumnType>,
    /// NULL permitted (outer-join padding forces `true`).
    pub nullable: bool,
}

impl Rsn {
    /// The columns this view exposes, in order (the uniform resolution
    /// surface of paper §3.4.2).
    pub fn columns(&self) -> Vec<RsnColumn> {
        match self {
            Rsn::Table { range_var, entry } => entry
                .schema
                .columns
                .iter()
                .map(|c| RsnColumn {
                    range_var: range_var.clone(),
                    name: c.name.clone(),
                    sql_type: Some(c.sql_type),
                    nullable: c.nullable,
                })
                .collect(),
            Rsn::Derived { range_var, query } => query
                .output
                .iter()
                .map(|o| RsnColumn {
                    range_var: range_var.clone(),
                    name: o.label.clone(),
                    sql_type: o.sql_type,
                    nullable: o.nullable,
                })
                .collect(),
            Rsn::Join {
                kind, left, right, ..
            } => {
                let mut cols = left.columns();
                let mut right_cols = right.columns();
                match kind {
                    JoinKind::LeftOuter => {
                        for c in &mut right_cols {
                            c.nullable = true;
                        }
                    }
                    JoinKind::RightOuter => {
                        for c in &mut cols {
                            c.nullable = true;
                        }
                    }
                    JoinKind::FullOuter => {
                        for c in cols.iter_mut().chain(right_cols.iter_mut()) {
                            c.nullable = true;
                        }
                    }
                    _ => {}
                }
                cols.extend(right_cols);
                cols
            }
        }
    }

    /// The range variables bound by this RSN subtree.
    pub fn range_vars(&self) -> Vec<&str> {
        match self {
            Rsn::Table { range_var, .. } | Rsn::Derived { range_var, .. } => {
                vec![range_var.as_str()]
            }
            Rsn::Join { left, right, .. } => {
                let mut v = left.range_vars();
                v.extend(right.range_vars());
                v
            }
        }
    }
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT`
    Count,
    /// `SUM`
    Sum,
    /// `AVG`
    Avg,
    /// `MIN`
    Min,
    /// `MAX`
    Max,
}

impl AggFunc {
    /// Parses a SQL aggregate name.
    pub fn from_name(name: &str) -> Option<AggFunc> {
        Some(match name {
            "COUNT" => AggFunc::Count,
            "SUM" => AggFunc::Sum,
            "AVG" => AggFunc::Avg,
            "MIN" => AggFunc::Min,
            "MAX" => AggFunc::Max,
            _ => return None,
        })
    }
}

/// A typed expression: resolved columns, inferred types.
#[derive(Debug, Clone, PartialEq)]
pub struct TExpr {
    /// The node.
    pub kind: TExprKind,
    /// Inferred SQL type; `None` when statically unknown (NULL literal,
    /// parameters).
    pub ty: Option<SqlColumnType>,
    /// Whether the value can be NULL.
    pub nullable: bool,
}

/// Typed expression nodes.
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)]
pub enum TExprKind {
    /// A resolved column reference.
    Column {
        /// The owning range variable (resolution winner).
        range_var: String,
        /// Column name.
        column: String,
    },
    /// A literal.
    Literal(Literal),
    /// `?` by zero-based ordinal.
    Parameter(usize),
    /// Unary minus.
    Neg(Box<TExpr>),
    /// Logical NOT.
    Not(Box<TExpr>),
    /// Arithmetic.
    Arith {
        /// `+ - * /`.
        op: ArithOp,
        /// Left operand.
        left: Box<TExpr>,
        /// Right operand.
        right: Box<TExpr>,
    },
    /// `||`.
    Concat(Box<TExpr>, Box<TExpr>),
    /// Comparison.
    Compare {
        /// Operator.
        op: CompareOp,
        /// Left operand.
        left: Box<TExpr>,
        /// Right operand.
        right: Box<TExpr>,
    },
    /// `AND`.
    And(Box<TExpr>, Box<TExpr>),
    /// `OR`.
    Or(Box<TExpr>, Box<TExpr>),
    /// A scalar function call (UPPER, CONCAT, COALESCE, ...).
    ScalarFn {
        /// Uppercased SQL name.
        name: String,
        /// Arguments.
        args: Vec<TExpr>,
    },
    /// An aggregate call.
    Aggregate {
        /// Which aggregate.
        func: AggFunc,
        /// `DISTINCT` inside the call.
        distinct: bool,
        /// Argument; `None` for `COUNT(*)`.
        arg: Option<Box<TExpr>>,
    },
    /// `CASE`.
    Case {
        /// Simple-CASE operand.
        operand: Option<Box<TExpr>>,
        /// `(WHEN, THEN)` pairs.
        branches: Vec<(TExpr, TExpr)>,
        /// `ELSE`.
        else_result: Option<Box<TExpr>>,
    },
    /// `CAST(e AS t)`.
    Cast {
        /// Operand.
        expr: Box<TExpr>,
        /// Target type class.
        target: SqlColumnType,
    },
    /// `IS [NOT] NULL`.
    IsNull {
        /// Operand.
        expr: Box<TExpr>,
        /// `IS NOT NULL`.
        negated: bool,
    },
    /// `[NOT] BETWEEN`.
    Between {
        /// Operand.
        expr: Box<TExpr>,
        /// Low bound.
        low: Box<TExpr>,
        /// High bound.
        high: Box<TExpr>,
        /// Negated.
        negated: bool,
    },
    /// `[NOT] IN (list)`.
    InList {
        /// Operand.
        expr: Box<TExpr>,
        /// Candidates.
        list: Vec<TExpr>,
        /// Negated.
        negated: bool,
    },
    /// `[NOT] IN (subquery)`.
    InSubquery {
        /// Operand.
        expr: Box<TExpr>,
        /// The subquery.
        query: Box<PreparedQuery>,
        /// Negated.
        negated: bool,
    },
    /// `[NOT] EXISTS (subquery)`.
    Exists {
        /// The subquery.
        query: Box<PreparedQuery>,
        /// Negated.
        negated: bool,
    },
    /// Scalar subquery.
    ScalarSubquery(Box<PreparedQuery>),
    /// Quantified comparison.
    Quantified {
        /// Left operand.
        expr: Box<TExpr>,
        /// Operator.
        op: CompareOp,
        /// `ANY` vs `ALL`.
        quantifier: Quantifier,
        /// The subquery.
        query: Box<PreparedQuery>,
    },
    /// `[NOT] LIKE`.
    Like {
        /// Operand.
        expr: Box<TExpr>,
        /// Pattern.
        pattern: Box<TExpr>,
        /// Escape character expression.
        escape: Option<Box<TExpr>>,
        /// Negated.
        negated: bool,
    },
    /// `SUBSTRING`.
    Substring {
        /// Source.
        expr: Box<TExpr>,
        /// 1-based start.
        start: Box<TExpr>,
        /// Length.
        length: Option<Box<TExpr>>,
    },
    /// `TRIM`.
    Trim {
        /// Side.
        side: TrimSide,
        /// Pad character.
        trim_chars: Option<Box<TExpr>>,
        /// Source.
        expr: Box<TExpr>,
    },
    /// `POSITION`.
    Position {
        /// Needle.
        needle: Box<TExpr>,
        /// Haystack.
        haystack: Box<TExpr>,
    },
    /// Stage-3 internal: an already-generated XQuery snippet (typed,
    /// atomized). Produced by the grouped-projection rewrite that replaces
    /// group keys with their bound `$var<ctx>GB<n>` variables and
    /// aggregate calls with their generated expressions. Never produced by
    /// stage two.
    Generated {
        /// The XQuery text.
        xquery: String,
    },
}

/// Arithmetic operators (SQL side).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

impl TExpr {
    /// Wraps a kind with type info.
    pub fn new(kind: TExprKind, ty: Option<SqlColumnType>, nullable: bool) -> TExpr {
        TExpr { kind, ty, nullable }
    }

    /// True when this node *is* an aggregate call.
    pub fn is_aggregate(&self) -> bool {
        matches!(self.kind, TExprKind::Aggregate { .. })
    }

    /// True when an aggregate call appears anywhere in this tree (not
    /// descending into subqueries).
    pub fn contains_aggregate(&self) -> bool {
        if self.is_aggregate() {
            return true;
        }
        let mut found = false;
        self.visit_children(&mut |c| {
            if c.contains_aggregate() {
                found = true;
            }
        });
        found
    }

    /// The query of a subquery node (`IN` / `EXISTS` / scalar /
    /// quantified), `None` for every other kind.
    pub fn subquery(&self) -> Option<&PreparedQuery> {
        use TExprKind::*;
        match &self.kind {
            InSubquery { query, .. }
            | Exists { query, .. }
            | ScalarSubquery(query)
            | Quantified { query, .. } => Some(query),
            _ => None,
        }
    }

    /// Visits direct child expressions, in source order. A subquery's
    /// body is not a child (its comparison operand is): reach it through
    /// [`TExpr::subquery`] or [`TExpr::walk`].
    pub fn visit_children<'a>(&'a self, visit: &mut dyn FnMut(&'a TExpr)) {
        use TExprKind::*;
        match &self.kind {
            Column { .. } | Literal(_) | Parameter(_) | Generated { .. } => {}
            Neg(e) | Not(e) | Cast { expr: e, .. } | IsNull { expr: e, .. } => visit(e),
            Arith { left, right, .. }
            | Concat(left, right)
            | Compare { left, right, .. }
            | And(left, right)
            | Or(left, right) => {
                visit(left);
                visit(right);
            }
            ScalarFn { args, .. } => args.iter().for_each(&mut *visit),
            Aggregate { arg, .. } => {
                if let Some(a) = arg {
                    visit(a);
                }
            }
            Case {
                operand,
                branches,
                else_result,
            } => {
                if let Some(o) = operand {
                    visit(o);
                }
                for (w, t) in branches {
                    visit(w);
                    visit(t);
                }
                if let Some(e) = else_result {
                    visit(e);
                }
            }
            Between {
                expr, low, high, ..
            } => {
                visit(expr);
                visit(low);
                visit(high);
            }
            InList { expr, list, .. } => {
                visit(expr);
                list.iter().for_each(&mut *visit);
            }
            InSubquery { expr, .. } | Quantified { expr, .. } => visit(expr),
            Exists { .. } | ScalarSubquery(_) => {}
            Like {
                expr,
                pattern,
                escape,
                ..
            } => {
                visit(expr);
                visit(pattern);
                if let Some(e) = escape {
                    visit(e);
                }
            }
            Substring {
                expr,
                start,
                length,
            } => {
                visit(expr);
                visit(start);
                if let Some(l) = length {
                    visit(l);
                }
            }
            Trim {
                trim_chars, expr, ..
            } => {
                if let Some(c) = trim_chars {
                    visit(c);
                }
                visit(expr);
            }
            Position { needle, haystack } => {
                visit(needle);
                visit(haystack);
            }
        }
    }

    /// The mutable enumeration: [`TExpr::visit_children`]'s children in
    /// the same order, stopping at the first error.
    pub fn try_visit_children_mut<E>(
        &mut self,
        visit: &mut dyn FnMut(&mut TExpr) -> Result<(), E>,
    ) -> Result<(), E> {
        use TExprKind::*;
        match &mut self.kind {
            Column { .. } | Literal(_) | Parameter(_) | Generated { .. } => Ok(()),
            Neg(e) | Not(e) | Cast { expr: e, .. } | IsNull { expr: e, .. } => visit(e),
            Arith { left, right, .. }
            | Concat(left, right)
            | Compare { left, right, .. }
            | And(left, right)
            | Or(left, right) => {
                visit(left)?;
                visit(right)
            }
            ScalarFn { args, .. } => args.iter_mut().try_for_each(visit),
            Aggregate { arg, .. } => arg.as_deref_mut().map_or(Ok(()), visit),
            Case {
                operand,
                branches,
                else_result,
            } => {
                if let Some(o) = operand {
                    visit(o)?;
                }
                for (w, t) in branches {
                    visit(w)?;
                    visit(t)?;
                }
                else_result.as_deref_mut().map_or(Ok(()), visit)
            }
            Between {
                expr, low, high, ..
            } => {
                visit(expr)?;
                visit(low)?;
                visit(high)
            }
            InList { expr, list, .. } => {
                visit(expr)?;
                list.iter_mut().try_for_each(visit)
            }
            InSubquery { expr, .. } | Quantified { expr, .. } => visit(expr),
            Exists { .. } | ScalarSubquery(_) => Ok(()),
            Like {
                expr,
                pattern,
                escape,
                ..
            } => {
                visit(expr)?;
                visit(pattern)?;
                escape.as_deref_mut().map_or(Ok(()), visit)
            }
            Substring {
                expr,
                start,
                length,
            } => {
                visit(expr)?;
                visit(start)?;
                length.as_deref_mut().map_or(Ok(()), visit)
            }
            Trim {
                trim_chars, expr, ..
            } => {
                if let Some(c) = trim_chars {
                    visit(c)?;
                }
                visit(expr)
            }
            Position { needle, haystack } => {
                visit(needle)?;
                visit(haystack)
            }
        }
    }

    /// The deep walk from one expression: `self`, then its subquery (if
    /// it is one) through [`PreparedQuery::walk`], then its children.
    pub fn walk<'a>(&'a self, f: &mut dyn FnMut(IrNode<'a>)) {
        f(IrNode::Expr(self));
        if let Some(query) = self.subquery() {
            query.walk(f);
        }
        self.visit_children(&mut |child| child.walk(f));
    }
}

/// What the deep walk hands its callback.
#[derive(Debug, Clone, Copy)]
pub enum IrNode<'a> {
    /// A FROM-tree node.
    Rsn(&'a Rsn),
    /// An expression node.
    Expr(&'a TExpr),
}

impl PreparedQuery {
    /// The one deep walk: hands `f` every [`Rsn`] and every [`TExpr`]
    /// node of the query, parents first — per SELECT block the FROM tree
    /// (a join's `ON` after its operands), then items, WHERE, GROUP BY,
    /// HAVING — through set-operation arms, derived tables and
    /// subqueries. Scope-free: a walk that needs frames (layer 1, the
    /// estimator, the interpreters) recurses by hand.
    pub fn walk<'a>(&'a self, f: &mut dyn FnMut(IrNode<'a>)) {
        self.body.walk(f);
    }
}

impl PreparedBody {
    fn walk<'a>(&'a self, f: &mut dyn FnMut(IrNode<'a>)) {
        match self {
            PreparedBody::Select(select) => {
                select.from.iter().for_each(|rsn| rsn.walk(f));
                let exprs = select.items.iter().map(|item| &item.expr);
                exprs
                    .chain(&select.where_clause)
                    .chain(&select.group_by)
                    .chain(&select.having)
                    .for_each(|e| e.walk(f));
            }
            PreparedBody::SetOp { left, right, .. } => {
                left.walk(f);
                right.walk(f);
            }
        }
    }
}

impl Rsn {
    fn walk<'a>(&'a self, f: &mut dyn FnMut(IrNode<'a>)) {
        f(IrNode::Rsn(self));
        match self {
            Rsn::Table { .. } => {}
            Rsn::Derived { query, .. } => query.walk(f),
            Rsn::Join {
                left, right, on, ..
            } => {
                left.walk(f);
                right.walk(f);
                if let Some(on) = on {
                    on.walk(f);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aldsp_catalog::{ColumnMeta, QualifiedTableName, TableSchema};

    fn entry() -> Arc<TableEntry> {
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

    #[test]
    fn table_rsn_columns() {
        let rsn = Rsn::Table {
            range_var: "X".into(),
            entry: entry(),
        };
        let cols = rsn.columns();
        assert_eq!(cols.len(), 2);
        assert_eq!(cols[0].range_var, "X");
        assert!(!cols[0].nullable);
    }

    #[test]
    fn outer_join_forces_nullability() {
        let join = Rsn::Join {
            kind: JoinKind::LeftOuter,
            left: Box::new(Rsn::Table {
                range_var: "L".into(),
                entry: entry(),
            }),
            right: Box::new(Rsn::Table {
                range_var: "R".into(),
                entry: entry(),
            }),
            on: None,
        };
        let cols = join.columns();
        assert_eq!(cols.len(), 4);
        assert!(!cols[0].nullable); // left A stays NOT NULL
        assert!(cols[2].nullable); // right A becomes nullable
        assert_eq!(join.range_vars(), vec!["L", "R"]);
    }
}
