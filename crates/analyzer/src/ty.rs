//! Layer 3: type-flow analysis and translation validation (`T0xx`).
//!
//! Two independent type inferences, then a diff:
//!
//! 1. **SQL side** — a bottom-up re-inference over the stage-2 prepared
//!    IR. Every `TExpr` gets a `(type, nullability)` pair derived from
//!    catalog column metadata, SQL-92 literal typing and numeric
//!    promotion (paper §3.5 (v): "the resulting datatype is inferred by
//!    applying the SQL rules of promotion and casting"), aggregate result
//!    typing, and three-valued NULL propagation. Disagreements with the
//!    annotations stage 2 recorded are `T001`; operations that are
//!    ill-typed regardless of annotation are `T002`; projection items
//!    whose typing disagrees with the declared output column are `T003`.
//!
//! 2. **XQuery side** — an abstract interpretation of the *generated*
//!    query. Data-service function calls seed element shapes from the
//!    imported XML schemas (paper §3.1: every data service function has
//!    a return type defined in an XML Schema file); FLWOR clauses,
//!    paths, constructors, casts, and the `fn:`/`fn-bea:` builtins
//!    propagate abstract values of the form *(item type, cardinality)*.
//!    Anything the interpreter does not recognize degrades to *unknown*
//!    rather than guessing, so every reported mismatch is meaningful.
//!
//! The per-output-column diff compares the two typings in the XML-value
//! domain (`SqlColumnType::to_xs` images): a shape mismatch is `T004`, a
//! type-class mismatch `T005`, a nullability mismatch `T006` (SQL NULL
//! must remain an *absent* element — a column constructed
//! unconditionally turns NULL into an empty string), and a column that
//! can yield more than one value per row is `T007`. Finally,
//! [`check_metadata`] cross-checks the driver's `ResultSetMetaData`
//! surface against the inferred typing (`T008`).

use crate::diag::{DiagCode, Diagnostic};
use aldsp_catalog::{SqlColumnType, TableSchema};
use aldsp_core::funcmap;
use aldsp_core::ir::{
    AggFunc, IrNode, OutputColumn, PreparedBody, PreparedQuery, PreparedSelect, Rsn, RsnColumn,
    TExpr, TExprKind,
};
use aldsp_sql::Literal;
use aldsp_xml::XsType;
use aldsp_xquery::ast::{Clause, Content, ElementCtor, Expr, Flwor, NodeTest, PathStart, Program};
use aldsp_xquery::functions::{builtin_return_type, BuiltinReturn};
use std::collections::HashMap;

// =====================================================================
// Public surface
// =====================================================================

/// One output column as the type pass infers it from the prepared IR.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InferredColumn {
    /// Result element name (`OutputColumn::name`).
    pub name: String,
    /// Bare label (what JDBC metadata reports).
    pub label: String,
    /// Inferred type; `None` when statically unknown.
    pub sql_type: Option<SqlColumnType>,
    /// Inferred nullability.
    pub nullable: bool,
}

/// The SQL-side result: the inferred output typing plus any findings.
#[derive(Debug, Clone, Default)]
pub struct TypeFlow {
    /// Inferred typing of the query's output columns, in order.
    pub columns: Vec<InferredColumn>,
    /// `T001`/`T002`/`T003` findings.
    pub diagnostics: Vec<Diagnostic>,
}

/// One column as surfaced through the driver's `ResultSetMetaData`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportedColumn {
    /// `getColumnLabel`.
    pub label: String,
    /// `getColumnTypeName` (e.g. `"INTEGER"`).
    pub type_name: String,
    /// `isNullable`.
    pub nullable: bool,
}

/// Re-infers types over the prepared IR and checks them against the
/// stage-2 annotations (`T001`), flags ill-typed operations (`T002`),
/// and diffs projection items against declared output columns (`T003`).
pub fn check_types(query: &PreparedQuery) -> TypeFlow {
    let mut checker = SqlTypeChecker::default();
    let columns = checker.check_query(query);
    TypeFlow {
        columns,
        diagnostics: checker.diags,
    }
}

/// Re-infers the result typing of the generated XQuery and diffs it per
/// output column against the SQL-side inference (`T004`–`T007`).
///
/// `inferred` is [`TypeFlow::columns`] from [`check_types`]; `prepared`
/// supplies the schemas behind the program's imports.
pub fn check_translation(
    prepared: &PreparedQuery,
    program: &Program,
    inferred: &[InferredColumn],
) -> Vec<Diagnostic> {
    let mut schemas: HashMap<String, TableSchema> = HashMap::new();
    prepared.walk(&mut |node| {
        if let IrNode::Rsn(Rsn::Table { entry, .. }) = node {
            schemas
                .entry(entry.schema.namespace.clone())
                .or_insert_with(|| entry.schema.clone());
        }
    });
    let mut interp = XqInterp::new(program, &schemas);
    let result = interp.eval(&program.body);
    let records = interp.captured_actual.unwrap_or(result);
    let Some(cols) = record_columns(&records) else {
        // The result shape is untracked (or not a RECORDSET) — nothing
        // to diff. Unknown never becomes a finding.
        return Vec::new();
    };
    diff_columns(inferred, &cols)
}

/// Cross-checks the driver's `ResultSetMetaData` surface against the
/// inferred SQL-side typing (`T008`).
pub fn check_metadata(inferred: &[InferredColumn], reported: &[ReportedColumn]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if inferred.len() != reported.len() {
        diags.push(Diagnostic::new(
            DiagCode::T008,
            format!(
                "result-set metadata reports {} column(s), inference produced {}",
                reported.len(),
                inferred.len()
            ),
        ));
        return diags;
    }
    for (i, (inf, rep)) in inferred.iter().zip(reported).enumerate() {
        if inf.label != rep.label {
            diags.push(Diagnostic::new(
                DiagCode::T008,
                format!(
                    "column {}: metadata label {} != inferred label {}",
                    i + 1,
                    rep.label,
                    inf.label
                ),
            ));
        }
        // The driver reports VARCHAR for statically-unknown types; only
        // a *known* inferred type can disagree. The reported name is
        // parsed back through the shared type table so the comparison is
        // on types, not spellings.
        if let Some(t) = inf.sql_type {
            if aldsp_relational::column_type_from_name(&rep.type_name) != Some(t) {
                diags.push(Diagnostic::new(
                    DiagCode::T008,
                    format!(
                        "column {}: metadata type {} != inferred {}",
                        rep.label,
                        rep.type_name,
                        t.sql_name()
                    ),
                ));
            }
        }
        if inf.nullable != rep.nullable {
            diags.push(Diagnostic::new(
                DiagCode::T008,
                format!(
                    "column {}: metadata nullable={} != inferred nullable={}",
                    rep.label, rep.nullable, inf.nullable
                ),
            ));
        }
    }
    diags
}

// =====================================================================
// SQL side: bottom-up re-inference over the prepared IR
// =====================================================================

/// An inferred `(type, nullability)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Ty {
    ty: Option<SqlColumnType>,
    nullable: bool,
}

impl Ty {
    fn new(ty: Option<SqlColumnType>, nullable: bool) -> Ty {
        Ty { ty, nullable }
    }
}

/// Coarse comparability classes: SQL-92 requires comparison operands to
/// share one. Dates compare with character strings (date literals travel
/// as strings through the paper's pipeline), so they share the text
/// class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TypeClass {
    Numeric,
    Text,
    Boolean,
}

fn class_of(t: SqlColumnType) -> TypeClass {
    if t.is_numeric() {
        TypeClass::Numeric
    } else if t == SqlColumnType::Boolean {
        TypeClass::Boolean
    } else {
        // Char, Varchar, Date.
        TypeClass::Text
    }
}

/// SQL numeric promotion, re-derived (independently of stage 2) from the
/// SQL-92 §6.12 hierarchy: smallint < integer < bigint < decimal < real
/// < double.
fn promote(a: SqlColumnType, b: SqlColumnType) -> SqlColumnType {
    use SqlColumnType as T;
    let rank = |t: T| match t {
        T::Smallint => 1,
        T::Integer => 2,
        T::Bigint => 3,
        T::Decimal => 4,
        T::Real => 5,
        T::Double => 6,
        _ => 0,
    };
    if rank(a) > 0 && rank(b) > 0 && rank(b) > rank(a) {
        b
    } else {
        a
    }
}

/// SQL-92 §5.3 literal typing, via the face-type table shared with the
/// plan-cache normalizer ([`Literal::type_name`] +
/// [`aldsp_relational::type_name_to_column`]): both consumers agree on
/// what type a literal carries, so a plan cached for an extracted literal
/// type-checks identically to the inline original.
fn literal_ty(l: &Literal) -> Ty {
    match l.type_name() {
        Some(name) => Ty::new(Some(aldsp_relational::type_name_to_column(name)), false),
        // NULL belongs to every type.
        None => Ty::new(None, true),
    }
}

#[derive(Default)]
struct SqlTypeChecker {
    diags: Vec<Diagnostic>,
    /// Column-resolution frames, innermost last — the same stack
    /// discipline as the layer-1 checker.
    frames: Vec<Vec<RsnColumn>>,
}

impl SqlTypeChecker {
    fn check_query(&mut self, query: &PreparedQuery) -> Vec<InferredColumn> {
        self.check_body(&query.body)
    }

    fn check_body(&mut self, body: &PreparedBody) -> Vec<InferredColumn> {
        match body {
            PreparedBody::Select(select) => self.check_select(select),
            PreparedBody::SetOp {
                left,
                right,
                output,
                ..
            } => {
                let l = self.check_body(left);
                let r = self.check_body(right);
                let mut columns = Vec::with_capacity(output.len());
                for (i, declared) in output.iter().enumerate() {
                    // Set-operation output: left names, types promoted
                    // across sides, nullable when either side is.
                    let derived = match (l.get(i), r.get(i)) {
                        (Some(lc), Some(rc)) => Some(Ty::new(
                            match (lc.sql_type, rc.sql_type) {
                                (Some(a), Some(b)) => Some(promote(a, b)),
                                (t, None) | (None, t) => t,
                            },
                            lc.nullable || rc.nullable,
                        )),
                        // Arity mismatch is layer 1's A007; skip here.
                        _ => None,
                    };
                    let used = self.check_output(declared, derived, "set operation");
                    columns.push(InferredColumn {
                        name: declared.name.clone(),
                        label: declared.label.clone(),
                        sql_type: used.ty,
                        nullable: used.nullable,
                    });
                }
                columns
            }
        }
    }

    fn check_select(&mut self, select: &PreparedSelect) -> Vec<InferredColumn> {
        // Derived tables are uncorrelated: their bodies type-check in the
        // enclosing scope, *before* this select's frame exists. Join ON
        // predicates see only the join subtree's columns.
        for rsn in &select.from {
            self.check_rsn(rsn);
        }
        let frame: Vec<RsnColumn> = select.from.iter().flat_map(|r| r.columns()).collect();
        self.frames.push(frame);

        let mut by_output: Vec<Option<Ty>> = vec![None; select.output.len()];
        for item in &select.items {
            let t = self.infer(&item.expr);
            if let Some(slot) = by_output.get_mut(item.output) {
                *slot = Some(t);
            }
        }
        if let Some(w) = &select.where_clause {
            let t = self.infer(w);
            self.expect_boolean(&t, "WHERE");
        }
        for key in &select.group_by {
            self.infer(key);
        }
        if let Some(h) = &select.having {
            let t = self.infer(h);
            self.expect_boolean(&t, "HAVING");
        }
        self.frames.pop();

        select
            .output
            .iter()
            .zip(by_output)
            .map(|(declared, derived)| {
                let used = self.check_output(declared, derived, "projection");
                InferredColumn {
                    name: declared.name.clone(),
                    label: declared.label.clone(),
                    sql_type: used.ty,
                    nullable: used.nullable,
                }
            })
            .collect()
    }

    /// Diffs a declared output column against its derived typing (`T003`)
    /// and returns the typing downstream consumers should use.
    fn check_output(&mut self, declared: &OutputColumn, derived: Option<Ty>, what: &str) -> Ty {
        let annotated = Ty::new(declared.sql_type, declared.nullable);
        let Some(derived) = derived else {
            return annotated;
        };
        if derived.ty.is_some() && derived.ty != declared.sql_type {
            self.diags.push(Diagnostic::new(
                DiagCode::T003,
                format!(
                    "{what} column {} declares {} but its expression infers {}",
                    declared.name,
                    type_str(declared.sql_type),
                    type_str(derived.ty)
                ),
            ));
            return derived;
        }
        if derived.nullable != declared.nullable {
            self.diags.push(Diagnostic::new(
                DiagCode::T003,
                format!(
                    "{what} column {} declares nullable={} but its expression infers nullable={}",
                    declared.name, declared.nullable, derived.nullable
                ),
            ));
            return derived;
        }
        annotated
    }

    /// Type-checks sources below an RSN: derived-table bodies and join
    /// ON predicates (which see the join subtree's combined columns).
    fn check_rsn(&mut self, rsn: &Rsn) {
        match rsn {
            Rsn::Table { .. } => {}
            Rsn::Derived { query, .. } => {
                self.check_query(query);
            }
            Rsn::Join {
                left, right, on, ..
            } => {
                self.check_rsn(left);
                self.check_rsn(right);
                if let Some(on) = on {
                    // The ON predicate evaluates *during* the join, so it
                    // sees the operands' own column views — outer-join
                    // NULL padding does not apply at this position (it
                    // only affects columns referenced above the join).
                    let mut frame = left.columns();
                    frame.extend(right.columns());
                    self.frames.push(frame);
                    let t = self.infer(on);
                    self.expect_boolean(&t, "join ON");
                    self.frames.pop();
                }
            }
        }
    }

    fn expect_boolean(&mut self, t: &Ty, position: &str) {
        if let Some(ty) = t.ty {
            if ty != SqlColumnType::Boolean {
                self.diags.push(Diagnostic::new(
                    DiagCode::T002,
                    format!(
                        "{position} predicate has type {}, expected BOOLEAN",
                        ty.sql_name()
                    ),
                ));
            }
        }
    }

    fn resolve_column(&self, range_var: &str, column: &str) -> Option<Ty> {
        for frame in self.frames.iter().rev() {
            for col in frame {
                if col.range_var == range_var && col.name == column {
                    return Some(Ty::new(col.sql_type, col.nullable));
                }
            }
        }
        None
    }

    /// Infers a `(type, nullability)` pair bottom-up and compares it
    /// against the annotation stage 2 recorded on the node (`T001`).
    fn infer(&mut self, expr: &TExpr) -> Ty {
        let Some(derived) = self.infer_kind(expr) else {
            // Not independently derivable (unresolved column, generated
            // fragment): trust the annotation, no comparison.
            return Ty::new(expr.ty, expr.nullable);
        };
        if (derived.ty.is_some() || expr.ty.is_some()) && derived.ty != expr.ty {
            self.diags.push(Diagnostic::new(
                DiagCode::T001,
                format!(
                    "{} annotated as {} but re-inference gives {}",
                    kind_name(&expr.kind),
                    type_str(expr.ty),
                    type_str(derived.ty)
                ),
            ));
        } else if derived.nullable != expr.nullable {
            self.diags.push(Diagnostic::new(
                DiagCode::T001,
                format!(
                    "{} annotated nullable={} but re-inference gives nullable={}",
                    kind_name(&expr.kind),
                    expr.nullable,
                    derived.nullable
                ),
            ));
        }
        derived
    }

    /// Flags a comparison whose operands cannot share a comparability
    /// class (`T002`).
    fn check_comparable(&mut self, a: &Ty, b: &Ty, what: &str) {
        if let (Some(x), Some(y)) = (a.ty, b.ty) {
            if class_of(x) != class_of(y) {
                self.diags.push(Diagnostic::new(
                    DiagCode::T002,
                    format!(
                        "{what} compares incomparable types {} and {}",
                        x.sql_name(),
                        y.sql_name()
                    ),
                ));
            }
        }
    }

    fn check_numeric(&mut self, t: &Ty, what: &str) {
        if let Some(ty) = t.ty {
            if !ty.is_numeric() {
                self.diags.push(Diagnostic::new(
                    DiagCode::T002,
                    format!("{what} over non-numeric type {}", ty.sql_name()),
                ));
            }
        }
    }

    /// The core rule table. `None` = not independently derivable.
    fn infer_kind(&mut self, expr: &TExpr) -> Option<Ty> {
        use TExprKind::*;
        Some(match &expr.kind {
            Column { range_var, column } => return self.resolve_column(range_var, column),
            Generated { .. } => return None,
            Literal(l) => literal_ty(l),
            Parameter(_) => Ty::new(None, true),
            Neg(inner) => {
                let t = self.infer(inner);
                self.check_numeric(&t, "unary minus");
                t
            }
            Not(inner) => {
                let t = self.infer(inner);
                self.expect_boolean(&t, "NOT");
                Ty::new(Some(SqlColumnType::Boolean), t.nullable)
            }
            Arith { left, right, .. } => {
                let l = self.infer(left);
                let r = self.infer(right);
                self.check_numeric(&l, "arithmetic");
                self.check_numeric(&r, "arithmetic");
                let ty = match (l.ty, r.ty) {
                    (Some(a), Some(b)) if a.is_numeric() && b.is_numeric() => Some(promote(a, b)),
                    (Some(t), None) | (None, Some(t)) if t.is_numeric() => Some(t),
                    _ => None,
                };
                Ty::new(ty, l.nullable || r.nullable)
            }
            Concat(l, r) => {
                let l = self.infer(l);
                let r = self.infer(r);
                Ty::new(Some(SqlColumnType::Varchar), l.nullable || r.nullable)
            }
            Compare { left, right, .. } => {
                let l = self.infer(left);
                let r = self.infer(right);
                self.check_comparable(&l, &r, "comparison");
                Ty::new(Some(SqlColumnType::Boolean), l.nullable || r.nullable)
            }
            And(l, r) | Or(l, r) => {
                let l = self.infer(l);
                let r = self.infer(r);
                self.expect_boolean(&l, "logical operand");
                self.expect_boolean(&r, "logical operand");
                Ty::new(Some(SqlColumnType::Boolean), l.nullable || r.nullable)
            }
            ScalarFn { name, args } => {
                let arg_tys: Vec<Ty> = args.iter().map(|a| self.infer(a)).collect();
                return self.infer_scalar_fn(name, &arg_tys);
            }
            Aggregate { func, arg, .. } => {
                let arg_ty = arg.as_deref().map(|a| self.infer(a));
                match (func, arg_ty) {
                    (AggFunc::Count, _) => Ty::new(Some(SqlColumnType::Bigint), false),
                    (AggFunc::Sum, Some(t)) => {
                        self.check_numeric(&t, "SUM");
                        Ty::new(t.ty, true)
                    }
                    (AggFunc::Avg, Some(t)) => {
                        self.check_numeric(&t, "AVG");
                        let ty = match t.ty {
                            Some(SqlColumnType::Real) | Some(SqlColumnType::Double) => {
                                Some(SqlColumnType::Double)
                            }
                            Some(_) => Some(SqlColumnType::Decimal),
                            None => None,
                        };
                        Ty::new(ty, true)
                    }
                    (AggFunc::Min, Some(t)) | (AggFunc::Max, Some(t)) => Ty::new(t.ty, true),
                    // SUM/AVG/MIN/MAX without argument: malformed IR,
                    // but arity is not this layer's business.
                    (_, None) => return None,
                }
            }
            Case {
                operand,
                branches,
                else_result,
            } => {
                if let Some(o) = operand {
                    let op_ty = self.infer(o);
                    for (when, _) in branches {
                        let w = self.infer(when);
                        self.check_comparable(&op_ty, &w, "CASE WHEN");
                    }
                } else {
                    for (when, _) in branches {
                        let w = self.infer(when);
                        self.expect_boolean(&w, "CASE WHEN");
                    }
                }
                let results: Vec<Ty> = branches.iter().map(|(_, r)| self.infer(r)).collect();
                let else_ty = else_result.as_deref().map(|e| self.infer(e));
                let ty = results.iter().chain(else_ty.iter()).find_map(|t| t.ty);
                let nullable = else_ty.is_none()
                    || results.iter().any(|t| t.nullable)
                    || else_ty.is_some_and(|t| t.nullable);
                Ty::new(ty, nullable)
            }
            Cast {
                expr: inner,
                target,
            } => {
                let t = self.infer(inner);
                Ty::new(Some(*target), t.nullable)
            }
            IsNull { expr: inner, .. } => {
                self.infer(inner);
                Ty::new(Some(SqlColumnType::Boolean), false)
            }
            Between {
                expr: e, low, high, ..
            } => {
                let t = self.infer(e);
                let lo = self.infer(low);
                let hi = self.infer(high);
                self.check_comparable(&t, &lo, "BETWEEN");
                self.check_comparable(&t, &hi, "BETWEEN");
                Ty::new(
                    Some(SqlColumnType::Boolean),
                    t.nullable || lo.nullable || hi.nullable,
                )
            }
            InList { expr: e, list, .. } => {
                let t = self.infer(e);
                let mut nullable = t.nullable;
                for item in list {
                    let it = self.infer(item);
                    self.check_comparable(&t, &it, "IN list");
                    nullable |= it.nullable;
                }
                Ty::new(Some(SqlColumnType::Boolean), nullable)
            }
            InSubquery { expr: e, query, .. } => {
                let t = self.infer(e);
                let sub = self.check_query(query);
                if let Some(first) = sub.first() {
                    self.check_comparable(
                        &t,
                        &Ty::new(first.sql_type, first.nullable),
                        "IN subquery",
                    );
                }
                Ty::new(Some(SqlColumnType::Boolean), t.nullable)
            }
            Exists { query, .. } => {
                self.check_query(query);
                Ty::new(Some(SqlColumnType::Boolean), false)
            }
            ScalarSubquery(query) => {
                let sub = self.check_query(query);
                let ty = sub.first().and_then(|c| c.sql_type);
                Ty::new(ty, true)
            }
            Quantified { expr: e, query, .. } => {
                let t = self.infer(e);
                let sub = self.check_query(query);
                if let Some(first) = sub.first() {
                    self.check_comparable(
                        &t,
                        &Ty::new(first.sql_type, first.nullable),
                        "quantified comparison",
                    );
                }
                Ty::new(Some(SqlColumnType::Boolean), t.nullable)
            }
            Like {
                expr: e,
                pattern,
                escape,
                ..
            } => {
                let t = self.infer(e);
                let p = self.infer(pattern);
                if let Some(x) = escape {
                    self.infer(x);
                }
                Ty::new(Some(SqlColumnType::Boolean), t.nullable || p.nullable)
            }
            Substring {
                expr: e,
                start,
                length,
            } => {
                let t = self.infer(e);
                let s = self.infer(start);
                let l = length.as_deref().map(|x| self.infer(x));
                Ty::new(
                    Some(SqlColumnType::Varchar),
                    t.nullable || s.nullable || l.is_some_and(|x| x.nullable),
                )
            }
            Trim {
                trim_chars,
                expr: e,
                ..
            } => {
                let t = self.infer(e);
                let chars = trim_chars.as_deref().map(|x| self.infer(x));
                Ty::new(
                    Some(SqlColumnType::Varchar),
                    t.nullable || chars.is_some_and(|x| x.nullable),
                )
            }
            Position { needle, haystack } => {
                let n = self.infer(needle);
                let h = self.infer(haystack);
                Ty::new(Some(SqlColumnType::Integer), n.nullable || h.nullable)
            }
        })
    }

    fn infer_scalar_fn(&mut self, name: &str, args: &[Ty]) -> Option<Ty> {
        let any_nullable = args.iter().any(|a| a.nullable);
        match name {
            "MOD" => {
                for a in args {
                    self.check_numeric(a, "MOD");
                }
                Some(Ty::new(Some(SqlColumnType::Integer), any_nullable))
            }
            "COALESCE" => Some(Ty::new(
                args.iter().find_map(|a| a.ty),
                args.iter().all(|a| a.nullable),
            )),
            "NULLIF" => Some(Ty::new(args.first().and_then(|a| a.ty), true)),
            _ => {
                // Mapped functions declare their return type in the
                // SQL→XQuery function map.
                let mapping = funcmap::lookup(name)?;
                let arg_types: Vec<Option<SqlColumnType>> = args.iter().map(|a| a.ty).collect();
                Some(Ty::new(
                    mapping.result_type.resolve(&arg_types),
                    any_nullable,
                ))
            }
        }
    }
}

fn type_str(t: Option<SqlColumnType>) -> &'static str {
    t.map_or("<unknown>", |t| t.sql_name())
}

fn kind_name(kind: &TExprKind) -> &'static str {
    use TExprKind::*;
    match kind {
        Column { .. } => "column",
        Literal(_) => "literal",
        Parameter(_) => "parameter",
        Neg(_) => "unary minus",
        Not(_) => "NOT",
        Arith { .. } => "arithmetic",
        Concat(..) => "concatenation",
        Compare { .. } => "comparison",
        And(..) => "AND",
        Or(..) => "OR",
        ScalarFn { .. } => "scalar function",
        Aggregate { .. } => "aggregate",
        Case { .. } => "CASE",
        Cast { .. } => "CAST",
        IsNull { .. } => "IS NULL",
        Between { .. } => "BETWEEN",
        InList { .. } => "IN list",
        InSubquery { .. } => "IN subquery",
        Exists { .. } => "EXISTS",
        ScalarSubquery(_) => "scalar subquery",
        Quantified { .. } => "quantified comparison",
        Like { .. } => "LIKE",
        Substring { .. } => "SUBSTRING",
        Trim { .. } => "TRIM",
        Position { .. } => "POSITION",
        Generated { .. } => "generated fragment",
    }
}

// =====================================================================
// XQuery side: abstract interpretation of the generated program
// =====================================================================

/// Sequence cardinality: may the sequence be empty / hold more than one
/// item?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Card {
    opt: bool,
    many: bool,
}

impl Card {
    const ONE: Card = Card {
        opt: false,
        many: false,
    };

    /// Nesting/iteration: occurrences multiply.
    fn times(self, other: Card) -> Card {
        Card {
            opt: self.opt || other.opt,
            many: self.many || other.many,
        }
    }
}

/// `Option<Card>` algebra: `None` = unknown, which contaminates.
fn card_times(a: Option<Card>, b: Option<Card>) -> Option<Card> {
    Some(a?.times(b?))
}

fn card_join(a: Option<Card>, b: Option<Card>) -> Option<Card> {
    let (a, b) = (a?, b?);
    Some(Card {
        opt: a.opt || b.opt,
        many: a.many || b.many,
    })
}

/// The shape of one element kind.
#[derive(Debug, Clone, PartialEq)]
struct Shape {
    name: String,
    kind: ShapeKind,
}

#[derive(Debug, Clone, PartialEq)]
enum ShapeKind {
    /// Simple content carrying one atomic value of this type (a column
    /// element). `content_opt` is whether the enclosed value may be the
    /// empty sequence — a constructed element with empty content is an
    /// empty string, NOT an absent element, which is the corruption
    /// `T006` exists to catch.
    Leaf {
        ty: Option<XsType>,
        content_opt: Option<bool>,
    },
    /// Element children, in order (a `RECORD` / `RECORDSET`).
    Tree { children: Vec<Slot> },
    /// Content untracked.
    Opaque,
}

/// One child-element position inside a [`ShapeKind::Tree`].
#[derive(Debug, Clone, PartialEq)]
struct Slot {
    shape: Shape,
    /// Occurrences per parent; `None` = unknown.
    card: Option<Card>,
}

/// An abstract value.
#[derive(Debug, Clone, PartialEq)]
enum Abs {
    /// Statically the empty sequence.
    Empty,
    /// A sequence of atomic items.
    Atomic {
        ty: Option<XsType>,
        card: Option<Card>,
    },
    /// A sequence of elements, all of one shape.
    Elems { shape: Shape, card: Option<Card> },
    /// Untracked. Never produces a finding.
    Unknown,
}

impl Abs {
    fn card(&self) -> Option<Card> {
        match self {
            Abs::Empty => Some(Card {
                opt: true,
                many: false,
            }),
            Abs::Atomic { card, .. } | Abs::Elems { card, .. } => *card,
            Abs::Unknown => None,
        }
    }

    /// The atomized item type (`fn:data` semantics: a leaf element's
    /// typed value, an atomic itself).
    fn item_ty(&self) -> Option<XsType> {
        match self {
            Abs::Atomic { ty, .. } => *ty,
            Abs::Elems { shape, .. } => match &shape.kind {
                ShapeKind::Leaf { ty, .. } => *ty,
                _ => None,
            },
            Abs::Empty | Abs::Unknown => None,
        }
    }

    fn scaled(self, mult: Option<Card>) -> Abs {
        match self {
            Abs::Empty => Abs::Empty,
            Abs::Atomic { ty, card } => Abs::Atomic {
                ty,
                card: card_times(card, mult),
            },
            Abs::Elems { shape, card } => Abs::Elems {
                shape,
                card: card_times(card, mult),
            },
            Abs::Unknown => Abs::Unknown,
        }
    }
}

/// Branch join (`if`/`else`, sequence merging). Type disagreement
/// degrades to unknown rather than guessing a promotion: the two type
/// systems disagree on mixed-branch widening, and unknown never yields a
/// false finding.
fn join_abs(a: Abs, b: Abs) -> Abs {
    match (a, b) {
        (Abs::Empty, Abs::Empty) => Abs::Empty,
        (Abs::Empty, x) | (x, Abs::Empty) => match x {
            Abs::Atomic { ty, card } => Abs::Atomic {
                ty,
                card: card.map(|c| Card { opt: true, ..c }),
            },
            Abs::Elems { shape, card } => Abs::Elems {
                shape,
                card: card.map(|c| Card { opt: true, ..c }),
            },
            other => other,
        },
        (Abs::Atomic { ty: ta, card: ca }, Abs::Atomic { ty: tb, card: cb }) => Abs::Atomic {
            ty: if ta == tb { ta } else { None },
            card: card_join(ca, cb),
        },
        (
            Abs::Elems {
                shape: sa,
                card: ca,
            },
            Abs::Elems {
                shape: sb,
                card: cb,
            },
        ) => match join_shapes(sa, sb) {
            Some(shape) => Abs::Elems {
                shape,
                card: card_join(ca, cb),
            },
            None => Abs::Unknown,
        },
        _ => Abs::Unknown,
    }
}

/// Joins two element shapes of the same name. Tree children merge by
/// name (a child present on only one side becomes optional — this is how
/// outer-join padding surfaces as nullability).
fn join_shapes(a: Shape, b: Shape) -> Option<Shape> {
    if a.name != b.name {
        return None;
    }
    let kind = match (a.kind, b.kind) {
        (
            ShapeKind::Leaf {
                ty: ta,
                content_opt: oa,
            },
            ShapeKind::Leaf {
                ty: tb,
                content_opt: ob,
            },
        ) => ShapeKind::Leaf {
            ty: if ta == tb { ta } else { None },
            content_opt: match (oa, ob) {
                (Some(x), Some(y)) => Some(x || y),
                _ => None,
            },
        },
        (ShapeKind::Tree { children: ca }, ShapeKind::Tree { children: cb }) => {
            let mut merged: Vec<Slot> = Vec::with_capacity(ca.len().max(cb.len()));
            let mut used_b = vec![false; cb.len()];
            for slot_a in ca {
                if let Some(i) = cb
                    .iter()
                    .position(|s| s.shape.name == slot_a.shape.name)
                    .filter(|&i| !used_b[i])
                {
                    used_b[i] = true;
                    let slot_b = &cb[i];
                    let shape = join_shapes(slot_a.shape, slot_b.shape.clone())
                        .unwrap_or_else(|| unreachable!("names match"));
                    merged.push(Slot {
                        shape,
                        card: card_join(slot_a.card, slot_b.card),
                    });
                } else {
                    merged.push(Slot {
                        card: slot_a.card.map(|c| Card { opt: true, ..c }),
                        shape: slot_a.shape,
                    });
                }
            }
            for (i, slot_b) in cb.into_iter().enumerate() {
                if !used_b[i] {
                    merged.push(Slot {
                        card: slot_b.card.map(|c| Card { opt: true, ..c }),
                        shape: slot_b.shape,
                    });
                }
            }
            ShapeKind::Tree { children: merged }
        }
        _ => ShapeKind::Opaque,
    };
    Some(Shape { name: a.name, kind })
}

struct XqInterp<'a> {
    /// `prefix → namespace` from the program prolog.
    prefixes: HashMap<&'a str, &'a str>,
    /// `namespace → schema` from the prepared IR's table entries.
    schemas: &'a HashMap<String, TableSchema>,
    /// Lexical bindings, innermost last.
    env: Vec<(String, Abs)>,
    /// The transport wrapper's `let $actualQuery := ...` binding, if the
    /// program has one — the result rows before text serialization.
    captured_actual: Option<Abs>,
}

impl<'a> XqInterp<'a> {
    fn new(program: &'a Program, schemas: &'a HashMap<String, TableSchema>) -> XqInterp<'a> {
        XqInterp {
            prefixes: program
                .imports
                .iter()
                .map(|i| (i.prefix.as_str(), i.namespace.as_str()))
                .collect(),
            schemas,
            env: Vec::new(),
            captured_actual: None,
        }
    }

    fn lookup(&self, var: &str) -> Abs {
        for (name, value) in self.env.iter().rev() {
            if name == var {
                return value.clone();
            }
        }
        Abs::Unknown
    }

    fn eval(&mut self, expr: &Expr) -> Abs {
        match expr {
            Expr::Literal(a) => Abs::Atomic {
                ty: Some(a.xs_type()),
                card: Some(Card::ONE),
            },
            Expr::EmptySequence => Abs::Empty,
            Expr::Sequence(items) => self.eval_sequence(items),
            Expr::VarRef(name) => self.lookup(name),
            Expr::ContextItem => Abs::Unknown,
            Expr::FunctionCall { name, args } => self.eval_call(name, args),
            Expr::Path { start, steps } => {
                let mut value = match &**start {
                    PathStart::Var(v) => self.lookup(v),
                    PathStart::Expr(e) => self.eval(e),
                    PathStart::Context => Abs::Unknown,
                };
                for step in steps {
                    value = navigate(value, &step.test);
                    if !step.predicates.is_empty() {
                        value = filtered(value);
                    }
                }
                value
            }
            Expr::Filter { base, .. } => filtered(self.eval(base)),
            Expr::Flwor(f) => self.eval_flwor(f),
            Expr::If { then, els, .. } => {
                let t = self.eval(then);
                let e = self.eval(els);
                join_abs(t, e)
            }
            Expr::Or(..) | Expr::And(..) | Expr::GeneralComp { .. } | Expr::ValueComp { .. } => {
                Abs::Atomic {
                    ty: Some(XsType::Boolean),
                    card: Some(Card::ONE),
                }
            }
            Expr::Quantified { .. } => Abs::Atomic {
                ty: Some(XsType::Boolean),
                card: Some(Card::ONE),
            },
            Expr::Arith { op, left, right } => {
                let l = self.eval(left);
                let r = self.eval(right);
                let ty = arith_ty(*op, l.item_ty(), r.item_ty());
                // Arithmetic over the empty sequence is empty; over
                // singletons it is a singleton.
                let card = card_times(l.card(), r.card()).map(|c| Card { many: false, ..c });
                Abs::Atomic { ty, card }
            }
            Expr::UnaryMinus(inner) => {
                let v = self.eval(inner);
                Abs::Atomic {
                    ty: v.item_ty(),
                    card: v.card(),
                }
            }
            Expr::Element(ctor) => self.eval_element(ctor),
        }
    }

    fn eval_sequence(&mut self, items: &[Expr]) -> Abs {
        let values: Vec<Abs> = items
            .iter()
            .map(|e| self.eval(e))
            .filter(|v| *v != Abs::Empty)
            .collect();
        match values.len() {
            0 => Abs::Empty,
            1 => values.into_iter().next().unwrap(),
            _ => {
                let mut iter = values.into_iter();
                let mut acc = iter.next().unwrap();
                for next in iter {
                    // Concatenation: the result holds both sides' items.
                    acc = match join_abs(acc, next) {
                        Abs::Atomic { ty, card } => Abs::Atomic {
                            ty,
                            card: card.map(|c| Card { many: true, ..c }),
                        },
                        Abs::Elems { shape, card } => Abs::Elems {
                            shape,
                            card: card.map(|c| Card { many: true, ..c }),
                        },
                        other => other,
                    };
                }
                acc
            }
        }
    }

    fn eval_call(&mut self, name: &str, args: &[Expr]) -> Abs {
        // `xs:*` constructor cast.
        if name.starts_with("xs:") {
            if let Some(ty) = XsType::from_xs_name(name) {
                let arg = args.first().map(|a| self.eval(a));
                let card = arg
                    .as_ref()
                    .and_then(|a| a.card())
                    .map(|c| Card { many: false, ..c });
                return Abs::Atomic { ty: Some(ty), card };
            }
            return Abs::Unknown;
        }
        // A data-service function call: rows per the imported schema.
        if let Some((prefix, _)) = name.split_once(':') {
            if let Some(namespace) = self.prefixes.get(prefix) {
                if let Some(schema) = self.schemas.get(*namespace) {
                    return table_rows(schema);
                }
                // Declared import without collected schema (a table the
                // IR walk missed): shape unknown.
                return Abs::Unknown;
            }
        }
        // `fn-bea:if-empty` is a value-level join, not a plain builtin.
        if name == "fn-bea:if-empty" && args.len() == 2 {
            let a = self.eval(&args[0]);
            let b = self.eval(&args[1]);
            let ty = match (a.item_ty(), b.item_ty()) {
                (Some(x), Some(y)) if x == y => Some(x),
                _ => None,
            };
            let card = match (a.card(), b.card()) {
                (Some(ca), Some(cb)) => Some(Card {
                    // Empty only when the value is empty *and* the
                    // fallback is empty.
                    opt: ca.opt && cb.opt,
                    many: ca.many || cb.many,
                }),
                _ => None,
            };
            return Abs::Atomic { ty, card };
        }
        let values: Vec<Abs> = args.iter().map(|a| self.eval(a)).collect();
        match builtin_return_type(name) {
            Some(BuiltinReturn::Fixed(ty)) => Abs::Atomic {
                ty: Some(ty),
                card: fixed_builtin_card(name, &values),
            },
            Some(BuiltinReturn::OfArg) => self.of_arg_call(name, &values),
            Some(BuiltinReturn::Average) => {
                let arg = values.first();
                let ty = match arg.and_then(|a| a.item_ty()) {
                    Some(XsType::Double) => Some(XsType::Double),
                    Some(XsType::Integer) | Some(XsType::Decimal) => Some(XsType::Decimal),
                    _ => None,
                };
                Abs::Atomic {
                    ty,
                    card: aggregate_card(arg),
                }
            }
            None => Abs::Unknown,
        }
    }

    fn of_arg_call(&mut self, name: &str, values: &[Abs]) -> Abs {
        let arg = values.first();
        match name {
            // Record-sequence combinators: elements pass through.
            "fn-bea:distinct-records"
            | "fn-bea:intersect-all-records"
            | "fn-bea:except-all-records" => {
                let mut shapes = values.iter().filter_map(|v| match v {
                    Abs::Elems { shape, .. } => Some(shape.clone()),
                    _ => None,
                });
                let Some(first) = shapes.next() else {
                    return Abs::Unknown;
                };
                let mut acc = Some(first);
                for s in shapes {
                    acc = acc.and_then(|a| join_shapes(a, s));
                }
                match acc {
                    Some(shape) => Abs::Elems {
                        shape,
                        card: Some(Card {
                            opt: true,
                            many: true,
                        }),
                    },
                    None => Abs::Unknown,
                }
            }
            "fn:data" => match arg {
                Some(v) => Abs::Atomic {
                    ty: v.item_ty(),
                    card: v.card(),
                },
                None => Abs::Unknown,
            },
            "fn:zero-or-one" => Abs::Atomic {
                ty: arg.and_then(|a| a.item_ty()),
                card: arg.and_then(|a| a.card()).map(|c| Card {
                    opt: c.opt || c.many,
                    many: false,
                }),
            },
            // `fn:sum(())` is 0 — always exactly one item.
            "fn:sum" => Abs::Atomic {
                ty: arg.and_then(|a| a.item_ty()),
                card: Some(Card::ONE),
            },
            "fn:min" | "fn:max" => Abs::Atomic {
                ty: arg.and_then(|a| a.item_ty()),
                card: aggregate_card(arg),
            },
            "fn:distinct-values" => Abs::Atomic {
                ty: arg.and_then(|a| a.item_ty()),
                card: arg.and_then(|a| a.card()),
            },
            // Numeric unaries: empty in, empty out.
            _ => Abs::Atomic {
                ty: arg.and_then(|a| a.item_ty()),
                card: arg
                    .and_then(|a| a.card())
                    .map(|c| Card { many: false, ..c }),
            },
        }
    }

    fn eval_flwor(&mut self, f: &Flwor) -> Abs {
        let depth = self.env.len();
        let mut mult = Some(Card::ONE);
        for clause in &f.clauses {
            match clause {
                Clause::For { var, source } => {
                    let s = self.eval(source);
                    let item = match &s {
                        Abs::Atomic { ty, .. } => Abs::Atomic {
                            ty: *ty,
                            card: Some(Card::ONE),
                        },
                        Abs::Elems { shape, .. } => Abs::Elems {
                            shape: shape.clone(),
                            card: Some(Card::ONE),
                        },
                        Abs::Empty => Abs::Empty,
                        Abs::Unknown => Abs::Unknown,
                    };
                    self.env.push((var.clone(), item));
                    mult = card_times(mult, s.card());
                }
                Clause::Let { var, value } => {
                    let v = self.eval(value);
                    if var == "actualQuery" {
                        self.captured_actual = Some(v.clone());
                    }
                    self.env.push((var.clone(), v));
                }
                Clause::Where(_) => {
                    // A filter can drop any tuple.
                    mult = mult.map(|c| Card { opt: true, ..c });
                }
                Clause::GroupBy(g) => {
                    let source = self.lookup(&g.source_var);
                    let partition = match source {
                        // Each output group holds at least one tuple.
                        Abs::Elems { shape, .. } => Abs::Elems {
                            shape,
                            card: Some(Card {
                                opt: false,
                                many: true,
                            }),
                        },
                        Abs::Atomic { ty, .. } => Abs::Atomic {
                            ty,
                            card: Some(Card {
                                opt: false,
                                many: true,
                            }),
                        },
                        other => other,
                    };
                    let keys: Vec<(String, Abs)> = g
                        .keys
                        .iter()
                        .map(|(expr, var)| (var.clone(), self.eval(expr)))
                        .collect();
                    self.env.push((g.partition_var.clone(), partition));
                    for (var, value) in keys {
                        self.env.push((var, value));
                    }
                    // Grouping merges tuples: zero groups exactly when
                    // the stream was empty, so multiplicity carries over.
                }
                Clause::OrderBy(_) => {}
            }
        }
        let ret = self.eval(&f.ret);
        self.env.truncate(depth);
        ret.scaled(mult)
    }

    fn eval_element(&mut self, ctor: &ElementCtor) -> Abs {
        let mut slots: Vec<Slot> = Vec::new();
        let mut single_enclosed: Option<Abs> = None;
        let mut pieces = 0usize;
        let mut opaque = false;
        for content in &ctor.content {
            match content {
                Content::Text(t) if t.trim().is_empty() => {}
                Content::Text(_) => opaque = true,
                Content::Element(child) => {
                    pieces += 1;
                    match self.eval_element(child) {
                        Abs::Elems { shape, .. } => slots.push(Slot {
                            shape,
                            card: Some(Card::ONE),
                        }),
                        _ => opaque = true,
                    }
                }
                Content::Enclosed(expr) => {
                    pieces += 1;
                    let v = self.eval(expr);
                    match &v {
                        Abs::Elems { shape, card } => slots.push(Slot {
                            shape: shape.clone(),
                            card: *card,
                        }),
                        Abs::Empty => {}
                        Abs::Atomic { .. } => {
                            single_enclosed = Some(v);
                        }
                        Abs::Unknown => opaque = true,
                    }
                }
            }
        }
        let kind = if opaque {
            ShapeKind::Opaque
        } else if let Some(atomic) = single_enclosed {
            if pieces == 1 {
                // `<COL>{value}</COL>` — a simple-typed leaf. The value's
                // emptiness does NOT make the element optional: an empty
                // *content* is still a constructed element (which is
                // exactly the NULL-vs-absent distinction `T006` guards),
                // so the emptiness is recorded on the content instead.
                ShapeKind::Leaf {
                    ty: atomic.item_ty(),
                    content_opt: atomic.card().map(|c| c.opt || c.many),
                }
            } else {
                ShapeKind::Opaque
            }
        } else {
            ShapeKind::Tree { children: slots }
        };
        Abs::Elems {
            shape: Shape {
                name: ctor.name.clone(),
                kind,
            },
            card: Some(Card::ONE),
        }
    }
}

/// Rows of a data-service function: the row element with one leaf slot
/// per declared column (`minOccurs="0"` for nullable — SQL NULL is an
/// absent element).
fn table_rows(schema: &TableSchema) -> Abs {
    Abs::Elems {
        shape: Shape {
            name: schema.row_element.clone(),
            kind: ShapeKind::Tree {
                children: schema
                    .columns
                    .iter()
                    .map(|c| Slot {
                        shape: Shape {
                            name: c.name.clone(),
                            kind: ShapeKind::Leaf {
                                ty: Some(c.sql_type.to_xs()),
                                // A present source element always carries
                                // its value; NULL is the *absent* element.
                                content_opt: Some(false),
                            },
                        },
                        card: Some(Card {
                            opt: c.nullable,
                            many: false,
                        }),
                    })
                    .collect(),
            },
        },
        card: Some(Card {
            opt: true,
            many: true,
        }),
    }
}

fn navigate(value: Abs, test: &NodeTest) -> Abs {
    let NodeTest::Name(name) = test else {
        return Abs::Unknown;
    };
    match value {
        Abs::Elems { shape, card } => match shape.kind {
            ShapeKind::Tree { children } => {
                let matches: Vec<Slot> = children
                    .into_iter()
                    .filter(|s| &s.shape.name == name)
                    .collect();
                match matches.len() {
                    0 => Abs::Empty,
                    1 => {
                        let slot = matches.into_iter().next().unwrap();
                        Abs::Elems {
                            shape: slot.shape,
                            card: card_times(card, slot.card),
                        }
                    }
                    _ => {
                        // Duplicate names: every match contributes.
                        let mut iter = matches.into_iter();
                        let first = iter.next().unwrap();
                        let mut shape = Some(first.shape);
                        for slot in iter {
                            shape = shape.and_then(|s| join_shapes(s, slot.shape));
                        }
                        match shape {
                            Some(shape) => Abs::Elems {
                                shape,
                                card: card.map(|c| Card { many: true, ..c }),
                            },
                            None => Abs::Unknown,
                        }
                    }
                }
            }
            ShapeKind::Leaf { .. } => Abs::Empty,
            ShapeKind::Opaque => Abs::Unknown,
        },
        Abs::Empty => Abs::Empty,
        Abs::Atomic { .. } => Abs::Empty,
        Abs::Unknown => Abs::Unknown,
    }
}

fn filtered(value: Abs) -> Abs {
    match value {
        Abs::Atomic { ty, card } => Abs::Atomic {
            ty,
            card: card.map(|c| Card { opt: true, ..c }),
        },
        Abs::Elems { shape, card } => Abs::Elems {
            shape,
            card: card.map(|c| Card { opt: true, ..c }),
        },
        other => other,
    }
}

fn arith_ty(
    op: aldsp_xquery::ast::ArithOp,
    l: Option<XsType>,
    r: Option<XsType>,
) -> Option<XsType> {
    use aldsp_xquery::ast::ArithOp;
    let (l, r) = (l?, r?);
    let numeric = |t: XsType| matches!(t, XsType::Integer | XsType::Decimal | XsType::Double);
    if !numeric(l) || !numeric(r) {
        return None;
    }
    Some(match op {
        ArithOp::IDiv => XsType::Integer,
        ArithOp::Div => {
            if l == XsType::Double || r == XsType::Double {
                XsType::Double
            } else {
                // Integer `div` yields xs:decimal (why the generator
                // wraps SQL integer division in `xs:integer(... idiv)`).
                XsType::Decimal
            }
        }
        ArithOp::Mod | ArithOp::Add | ArithOp::Sub | ArithOp::Mul => {
            if l == XsType::Double || r == XsType::Double {
                XsType::Double
            } else if l == XsType::Decimal || r == XsType::Decimal {
                XsType::Decimal
            } else {
                XsType::Integer
            }
        }
    })
}

/// Cardinality for `Fixed`-return builtins: the total functions coerce
/// the empty sequence to a default and always yield one item; the
/// `fn-bea:` serialization helpers propagate emptiness from their first
/// argument.
fn fixed_builtin_card(name: &str, args: &[Abs]) -> Option<Card> {
    const TOTAL: &[&str] = &[
        "fn:string",
        "fn:concat",
        "fn:string-join",
        "fn:upper-case",
        "fn:lower-case",
        "fn:substring",
        "fn:string-length",
        "fn:count",
        "fn:empty",
        "fn:exists",
        "fn:not",
        "fn:boolean",
        "fn:true",
        "fn:false",
        "fn:contains",
        "fn:starts-with",
        "fn:ends-with",
    ];
    if TOTAL.contains(&name) {
        return Some(Card::ONE);
    }
    // Empty-propagating: empty when any argument is empty.
    let mut opt = false;
    for a in args {
        match a.card() {
            Some(c) => opt |= c.opt,
            None => return None,
        }
    }
    Some(Card { opt, many: false })
}

/// Cardinality of `fn:min`/`fn:max`/`fn:avg`: empty exactly when the
/// input is (and the input may be empty whenever it is not known to be a
/// non-empty singleton-or-more).
fn aggregate_card(arg: Option<&Abs>) -> Option<Card> {
    arg?.card().map(|c| Card {
        opt: c.opt,
        many: false,
    })
}

// =====================================================================
// The diff
// =====================================================================

/// What the generated query yields for one output column.
#[derive(Debug, Clone, PartialEq)]
struct XqColumn {
    name: String,
    ty: Option<XsType>,
    card: Option<Card>,
    /// Whether a *constructed* element's content may be empty.
    content_opt: Option<bool>,
}

/// Extracts the per-column typing from the abstract result value: a
/// `RECORDSET` element holding `RECORD` rows.
fn record_columns(value: &Abs) -> Option<Vec<XqColumn>> {
    let Abs::Elems { shape, .. } = value else {
        return None;
    };
    let record = if shape.name == "RECORDSET" {
        let ShapeKind::Tree { children } = &shape.kind else {
            return None;
        };
        let slot = children.iter().find(|s| s.shape.name == "RECORD")?;
        &slot.shape
    } else if shape.name == "RECORD" {
        shape
    } else {
        return None;
    };
    let ShapeKind::Tree { children } = &record.kind else {
        return None;
    };
    Some(
        children
            .iter()
            .map(|slot| XqColumn {
                name: slot.shape.name.clone(),
                ty: match &slot.shape.kind {
                    ShapeKind::Leaf { ty, .. } => *ty,
                    _ => None,
                },
                card: slot.card,
                content_opt: match &slot.shape.kind {
                    ShapeKind::Leaf { content_opt, .. } => *content_opt,
                    _ => None,
                },
            })
            .collect(),
    )
}

fn diff_columns(inferred: &[InferredColumn], xq: &[XqColumn]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if inferred.len() != xq.len() || inferred.iter().zip(xq).any(|(i, x)| i.name != x.name) {
        let want: Vec<&str> = inferred.iter().map(|c| c.name.as_str()).collect();
        let got: Vec<&str> = xq.iter().map(|c| c.name.as_str()).collect();
        diags.push(Diagnostic::new(
            DiagCode::T004,
            format!(
                "RECORD shape mismatch: SQL output is [{}] but the generated RECORD holds [{}]",
                want.join(", "),
                got.join(", ")
            ),
        ));
        return diags;
    }
    for (sql, col) in inferred.iter().zip(xq) {
        if let Some(card) = col.card {
            if card.many {
                diags.push(Diagnostic::new(
                    DiagCode::T007,
                    format!("column {} may yield more than one value per row", col.name),
                ));
                continue;
            }
            if card.opt && !sql.nullable {
                // An element that may be absent for a NOT NULL column:
                // absence decodes as NULL where NULL is forbidden.
                diags.push(Diagnostic::new(
                    DiagCode::T006,
                    format!(
                        "column {}: SQL declares NOT NULL but the generated element may be absent",
                        col.name
                    ),
                ));
            } else if !card.opt && col.content_opt == Some(true) {
                // An always-constructed element whose content may be the
                // empty sequence: a NULL (or empty aggregate) serializes
                // as an empty string instead of an absent element. The
                // benign converse — SQL conservatively nullable, element
                // provably always present with a value (e.g. MAX over a
                // NOT NULL column in an explicit GROUP BY) — is NOT a
                // finding: the generation is merely more precise than
                // the metadata.
                diags.push(Diagnostic::new(
                    DiagCode::T006,
                    format!(
                        "column {}: element is always constructed but its content may be empty \
                         (NULL would become an empty string, not an absent element)",
                        col.name
                    ),
                ));
            }
        }
        if let (Some(sql_ty), Some(xq_ty)) = (sql.sql_type, col.ty) {
            if sql_ty.to_xs() != xq_ty {
                diags.push(Diagnostic::new(
                    DiagCode::T005,
                    format!(
                        "column {}: SQL type {} (xs class {:?}) but the generated value has xs class {:?}",
                        col.name,
                        sql_ty.sql_name(),
                        sql_ty.to_xs(),
                        xq_ty
                    ),
                ));
            }
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn promotion_is_monotone_and_idempotent() {
        use SqlColumnType as T;
        assert_eq!(promote(T::Integer, T::Integer), T::Integer);
        assert_eq!(promote(T::Smallint, T::Bigint), T::Bigint);
        assert_eq!(promote(T::Integer, T::Decimal), T::Decimal);
        assert_eq!(promote(T::Decimal, T::Double), T::Double);
        assert_eq!(promote(T::Double, T::Integer), T::Double);
        // Non-numeric mixes keep the left type (set-op metadata rule).
        assert_eq!(promote(T::Varchar, T::Integer), T::Varchar);
    }

    #[test]
    fn literal_typing_follows_sql92() {
        assert_eq!(
            literal_ty(&Literal::Integer(1)),
            Ty::new(Some(SqlColumnType::Integer), false)
        );
        assert_eq!(literal_ty(&Literal::Null), Ty::new(None, true));
    }

    #[test]
    fn join_of_uneven_trees_marks_missing_children_optional() {
        let leaf = |name: &str| Shape {
            name: name.into(),
            kind: ShapeKind::Leaf {
                ty: Some(XsType::Integer),
                content_opt: Some(false),
            },
        };
        let tree = |slots: Vec<Slot>| Shape {
            name: "RECORD".into(),
            kind: ShapeKind::Tree { children: slots },
        };
        let one = Some(Card::ONE);
        let a = tree(vec![Slot {
            shape: leaf("A"),
            card: one,
        }]);
        let b = tree(vec![
            Slot {
                shape: leaf("A"),
                card: one,
            },
            Slot {
                shape: leaf("B"),
                card: one,
            },
        ]);
        let joined = join_shapes(a, b).unwrap();
        let ShapeKind::Tree { children } = joined.kind else {
            panic!()
        };
        assert_eq!(children.len(), 2);
        // A present on both sides: still required.
        assert_eq!(children[0].card, Some(Card::ONE));
        // B present on one side only: optional (outer-join padding).
        assert_eq!(
            children[1].card,
            Some(Card {
                opt: true,
                many: false
            })
        );
    }

    #[test]
    fn xquery_arith_typing_matches_the_generator_assumptions() {
        use aldsp_xquery::ast::ArithOp;
        // Integer div yields decimal — the reason stage 3 emits
        // `xs:integer((l idiv r))` for SQL integer division.
        assert_eq!(
            arith_ty(ArithOp::Div, Some(XsType::Integer), Some(XsType::Integer)),
            Some(XsType::Decimal)
        );
        assert_eq!(
            arith_ty(ArithOp::IDiv, Some(XsType::Integer), Some(XsType::Integer)),
            Some(XsType::Integer)
        );
        assert_eq!(
            arith_ty(ArithOp::Add, Some(XsType::Integer), Some(XsType::Double)),
            Some(XsType::Double)
        );
        assert_eq!(
            arith_ty(ArithOp::Add, Some(XsType::String), Some(XsType::Integer)),
            None
        );
    }
}
