//! Stage three: XQuery generation.
//!
//! "Stage-three uses a tree-walker to traverse the result of stage-two and
//! serialize it into XQuery. Each RSN translates itself into an XQuery
//! expression using information from the associated query contexts"
//! (paper §3.5). The generated patterns follow the paper's examples:
//!
//! * tables → `for $var<ctx>FR<n> in ns<k>:FUNC()` (Example 6);
//! * derived tables and other views → `let $tempvar... := <RECORDSET>…`
//!   then `for $var... in $tempvar/RECORD` (Example 8);
//! * inner joins → a "double for" with the condition in `where`
//!   (Example 12);
//! * outer joins → the filtered-`let` + `if (fn:empty(...))` pattern
//!   (Example 10);
//! * GROUP BY → the BEA group-by extension with `$var<ctx>Partition1` and
//!   `$var<ctx>GB<n>` variables (Example 12);
//! * variable names → `var<ctx><zone><n>` (§3.5 (iv)).
//!
//! Where the printed examples under-specify NULL and type handling, the
//! generator adds machinery the paper's closed-source runtime got from
//! schema validation (see DESIGN.md): nullable result elements are
//! constructed conditionally so SQL NULL stays an *absent* element; order
//! and group keys and ordered comparisons between two untyped operands get
//! `xs:*` casts derived from catalog types; `fn:sum` is guarded so the
//! empty sequence yields NULL rather than 0.

use crate::error::TranslateError;
use crate::ir::*;
use aldsp_catalog::SqlColumnType;
use aldsp_sql::{CompareOp, JoinKind, Literal, Quantifier, SetOp, TrimSide};
use aldsp_xml::escape::escape_text;
use std::collections::HashMap;
use std::fmt::Write as _;

/// A generated query: prolog imports plus the body expression.
#[derive(Debug, Clone)]
pub struct Generated {
    /// `import schema namespace ...;` lines.
    pub prolog: String,
    /// The body (a `<RECORDSET>{...}</RECORDSET>` expression).
    pub body: String,
}

impl Generated {
    /// The complete query text.
    pub fn into_query_text(self) -> String {
        if self.prolog.is_empty() {
            self.body
        } else {
            format!("{}\n{}", self.prolog, self.body)
        }
    }
}

/// Generates the XQuery for a prepared query.
pub fn generate(query: &PreparedQuery) -> Result<Generated, TranslateError> {
    let mut generator = Generator::default();
    let body = generator.gen_query(query, None)?;
    let mut prolog = String::new();
    for (i, (namespace, location)) in generator.imports.iter().enumerate() {
        let _ = writeln!(
            prolog,
            "import schema namespace ns{i} = \"{namespace}\" at \"{location}\";"
        );
    }
    Ok(Generated {
        prolog: prolog.trim_end().to_string(),
        body,
    })
}

/// How a range variable's columns are reached in generated XQuery.
#[derive(Debug, Clone)]
enum Access {
    /// Rows bound directly from a data-service function: `$var/COL`.
    Direct(String),
    /// Rows of a materialized view: `$var/<element>` where the element
    /// name comes from the view's output naming.
    View {
        /// The XQuery row variable.
        var: String,
        /// Column name → element name.
        names: HashMap<String, String>,
    },
    /// Inside an XPath filter predicate, the filtered side's columns are
    /// *relative* paths from the context item (paper Example 10's bare
    /// `CUSTID`).
    Relative {
        /// Column name → element name (identity for direct tables).
        names: HashMap<String, String>,
    },
}

/// Generation scope: range variable → access, chained outward.
struct GScope<'a> {
    bindings: Vec<(String, Access)>,
    parent: Option<&'a GScope<'a>>,
}

impl<'a> GScope<'a> {
    fn root() -> GScope<'static> {
        GScope {
            bindings: Vec::new(),
            parent: None,
        }
    }

    fn child(&'a self) -> GScope<'a> {
        GScope {
            bindings: Vec::new(),
            parent: Some(self),
        }
    }

    /// A fresh scope under an optional parent.
    fn under(parent: Option<&'a GScope<'a>>) -> GScope<'a> {
        GScope {
            bindings: Vec::new(),
            parent,
        }
    }

    fn bind(&mut self, range_var: impl Into<String>, access: Access) {
        self.bindings.push((range_var.into(), access));
    }

    fn lookup(&self, range_var: &str) -> Option<&Access> {
        for (rv, access) in self.bindings.iter().rev() {
            if rv == range_var {
                return Some(access);
            }
        }
        self.parent.and_then(|p| p.lookup(range_var))
    }

    /// The XPath for a resolved column.
    fn column_path(&self, range_var: &str, column: &str) -> Result<String, TranslateError> {
        match self.lookup(range_var) {
            Some(Access::Direct(var)) => Ok(format!("${var}/{column}")),
            Some(Access::View { var, names }) => {
                let element = names
                    .get(column)
                    .cloned()
                    .unwrap_or_else(|| column.to_string());
                Ok(format!("${var}/{element}"))
            }
            Some(Access::Relative { names }) => Ok(names
                .get(column)
                .cloned()
                .unwrap_or_else(|| column.to_string())),
            None => Err(TranslateError::semantic(format!(
                "internal: unbound range variable {range_var} during generation"
            ))),
        }
    }
}

/// Group-context for translating grouped projections/HAVING.
struct GroupCtx<'a> {
    /// The partition variable (`$var<ctx>Partition1`).
    partition_var: String,
    /// `(key expression, bound key variable)` pairs.
    keys: &'a [(TExpr, String)],
    /// Column → element mapping of the pre-grouped `$inter` rows.
    row_names: &'a HashMap<(String, String), String>,
}

#[derive(Default)]
struct Generator {
    counters: HashMap<(u32, &'static str), u32>,
    newlet_counter: u32,
    imports: Vec<(String, String)>,
}

impl Generator {
    /// Fresh variable per the paper's `var<ctx><zone><n>` scheme.
    fn fresh(&mut self, ctx: u32, zone: &'static str) -> String {
        let n = self.counters.entry((ctx, zone)).or_insert(0);
        let name = format!("var{ctx}{zone}{n}");
        *n += 1;
        name
    }

    /// Fresh `tempvar<ctx><zone><n>` (let-bound views).
    fn fresh_temp(&mut self, ctx: u32, zone: &'static str) -> String {
        let n = self.counters.entry((ctx, zone)).or_insert(0);
        let name = format!("tempvar{ctx}{zone}{n}");
        *n += 1;
        name
    }

    /// The `ns<k>` prefix for a table's schema, registering the import.
    fn prefix_for(&mut self, namespace: &str, location: &str) -> String {
        if let Some(i) = self
            .imports
            .iter()
            .position(|(ns, loc)| ns == namespace && loc == location)
        {
            return format!("ns{i}");
        }
        self.imports
            .push((namespace.to_string(), location.to_string()));
        format!("ns{}", self.imports.len() - 1)
    }

    // ---- query / body -----------------------------------------------

    fn gen_query(
        &mut self,
        query: &PreparedQuery,
        parent: Option<&GScope<'_>>,
    ) -> Result<String, TranslateError> {
        let ctx = body_ctx(&query.body);
        let core = self.gen_body(&query.body, parent)?;
        if query.order_by.is_empty() {
            return Ok(core);
        }
        // Uniform ordering wrapper: sort the materialized output rows by
        // their (cast) element values. `empty least` is the default, which
        // matches the oracle's NULL-first ascending order.
        let temp = self.fresh_temp(ctx, "OB");
        let row = self.fresh(ctx, "OB");
        let keys: Vec<String> = query
            .order_by
            .iter()
            .map(|o| {
                let column = &query.output[o.column];
                let path = format!("${row}/{}", column.name);
                let key = cast_for_type(column.sql_type, &path);
                if o.ascending {
                    key
                } else {
                    format!("{key} descending")
                }
            })
            .collect();
        Ok(format!(
            "<RECORDSET>{{\nlet ${temp} := {core}\nfor ${row} in ${temp}/RECORD\norder by {}\nreturn ${row}\n}}</RECORDSET>",
            keys.join(", ")
        ))
    }

    fn gen_body(
        &mut self,
        body: &PreparedBody,
        parent: Option<&GScope<'_>>,
    ) -> Result<String, TranslateError> {
        match body {
            PreparedBody::Select(select) => self.gen_select(select, parent),
            PreparedBody::SetOp {
                left,
                op,
                all,
                right,
                output,
            } => self.gen_setop(left, *op, *all, right, output, parent),
        }
    }

    // ---- set operations ---------------------------------------------

    /// Set operations over materialized sides. Plain UNION/INTERSECT/
    /// EXCEPT eliminate duplicates per SQL-92 bag semantics; the
    /// membership tests treat two NULLs (absent elements) as equal, as
    /// SQL set operations do.
    fn gen_setop(
        &mut self,
        left: &PreparedBody,
        op: SetOp,
        all: bool,
        right: &PreparedBody,
        output: &[OutputColumn],
        parent: Option<&GScope<'_>>,
    ) -> Result<String, TranslateError> {
        let ctx = body_ctx(left);
        let l_view = self.gen_body(left, parent)?;
        let r_view = self.gen_body(right, parent)?;
        let l_var = self.fresh_temp(ctx, "ST");
        let r_var = self.fresh_temp(ctx, "ST");
        let mut clauses = vec![
            format!("let ${l_var} := {l_view}"),
            format!("let ${r_var} := {r_view}"),
        ];

        // The right side's rows must carry the left side's element names;
        // rename through a projection view when they differ.
        let right_output = right.output();
        let names_match = right_output
            .iter()
            .zip(output)
            .all(|(r, l)| r.name == l.name);
        let l_rows = format!("${l_var}/RECORD");
        let r_rows = if names_match {
            format!("${r_var}/RECORD")
        } else {
            let y = self.fresh(ctx, "ST");
            let mut record = String::from("<RECORD>");
            for (l_col, r_col) in output.iter().zip(right_output) {
                record.push_str(&self.record_element(
                    &l_col.name,
                    &format!("fn:data(${y}/{})", r_col.name),
                    l_col.nullable || r_col.nullable,
                    ctx,
                ));
            }
            record.push_str("</RECORD>");
            let renamed = self.fresh_temp(ctx, "ST");
            clauses.push(format!(
                "let ${renamed} := <RECORDSET>{{\nfor ${y} in ${r_var}/RECORD\nreturn\n{record}\n}}</RECORDSET>"
            ));
            format!("${renamed}/RECORD")
        };

        let body = match (op, all) {
            (SetOp::Union, true) => {
                let u = self.fresh(ctx, "ST");
                format!("for ${u} in ({l_rows}, {r_rows})\nreturn ${u}")
            }
            (SetOp::Union, false) => {
                let u = self.fresh(ctx, "ST");
                format!("for ${u} in fn-bea:distinct-records(({l_rows}, {r_rows}))\nreturn ${u}")
            }
            (SetOp::Intersect, false) | (SetOp::Except, false) => {
                let x = self.fresh(ctx, "ST");
                let y = self.fresh(ctx, "ST");
                let row_eq = row_equality(&x, &y, output);
                let membership = format!("(some ${y} in {r_rows} satisfies {row_eq})");
                let condition = if op == SetOp::Intersect {
                    membership
                } else {
                    format!("fn:not{membership}")
                };
                format!(
                    "for ${x} in fn-bea:distinct-records({l_rows})\nwhere {condition}\nreturn ${x}"
                )
            }
            (SetOp::Intersect, true) => {
                let x = self.fresh(ctx, "ST");
                format!("for ${x} in fn-bea:intersect-all-records({l_rows}, {r_rows})\nreturn ${x}")
            }
            (SetOp::Except, true) => {
                let x = self.fresh(ctx, "ST");
                format!("for ${x} in fn-bea:except-all-records({l_rows}, {r_rows})\nreturn ${x}")
            }
        };
        Ok(format!(
            "<RECORDSET>{{\n{}\n{body}\n}}</RECORDSET>",
            clauses.join("\n")
        ))
    }

    // ---- SELECT ----------------------------------------------------------

    fn gen_select(
        &mut self,
        select: &PreparedSelect,
        parent: Option<&GScope<'_>>,
    ) -> Result<String, TranslateError> {
        let core = if select.grouped {
            self.gen_select_grouped(select, parent)?
        } else {
            self.gen_select_plain(select, parent)?
        };
        if !select.distinct {
            return Ok(core);
        }
        // DISTINCT wrapper over the materialized rows.
        let ctx = select.ctx_id;
        let temp = self.fresh_temp(ctx, "DT");
        let row = self.fresh(ctx, "DT");
        Ok(format!(
            "<RECORDSET>{{\nlet ${temp} := {core}\nfor ${row} in fn-bea:distinct-records(${temp}/RECORD)\nreturn ${row}\n}}</RECORDSET>"
        ))
    }

    fn gen_select_plain(
        &mut self,
        select: &PreparedSelect,
        parent: Option<&GScope<'_>>,
    ) -> Result<String, TranslateError> {
        let root;
        let parent_scope = match parent {
            Some(p) => p,
            None => {
                root = GScope::root();
                &root
            }
        };
        let mut scope = parent_scope.child();
        let mut clauses = Vec::new();
        let mut conditions = Vec::new();
        for rsn in &select.from {
            self.gen_rsn(
                rsn,
                select.ctx_id,
                &mut clauses,
                &mut scope,
                &mut conditions,
            )?;
        }
        if let Some(w) = &select.where_clause {
            conditions.push(self.gen_predicate(w, &scope)?);
        }

        let mut out = String::from("<RECORDSET>{\n");
        for clause in &clauses {
            out.push_str(clause);
            out.push('\n');
        }
        if !conditions.is_empty() {
            let _ = writeln!(out, "where {}", conditions.join(" and "));
        }
        out.push_str("return\n");
        out.push_str(&self.gen_record(
            &select.items,
            &select.output,
            &scope,
            Some(select.ctx_id),
        )?);
        out.push_str("\n}</RECORDSET>");
        Ok(out)
    }

    /// GROUP BY generation (paper Example 12): materialize the joined,
    /// filtered rows into `$inter<ctx>`, regroup them with the BEA
    /// extension, then project from partition and key variables.
    fn gen_select_grouped(
        &mut self,
        select: &PreparedSelect,
        parent: Option<&GScope<'_>>,
    ) -> Result<String, TranslateError> {
        let ctx = select.ctx_id;
        let root;
        let parent_scope = match parent {
            Some(p) => p,
            None => {
                root = GScope::root();
                &root
            }
        };
        let mut scope = parent_scope.child();
        let mut clauses = Vec::new();
        let mut conditions = Vec::new();
        for rsn in &select.from {
            self.gen_rsn(rsn, ctx, &mut clauses, &mut scope, &mut conditions)?;
        }
        if let Some(w) = &select.where_clause {
            conditions.push(self.gen_predicate(w, &scope)?);
        }

        // The $inter view: one element per available source column, named
        // RANGEVAR.COLUMN.
        let all_columns: Vec<RsnColumn> = select.from.iter().flat_map(|r| r.columns()).collect();
        let mut row_names: HashMap<(String, String), String> = HashMap::new();
        let mut inter_record = String::from("<RECORD>");
        for col in &all_columns {
            let element = format!("{}.{}", col.range_var, col.name);
            row_names.insert((col.range_var.clone(), col.name.clone()), element.clone());
            let path = scope.column_path(&col.range_var, &col.name)?;
            if col.nullable {
                let v = self.fresh(ctx, "SL");
                let _ = write!(
                    inter_record,
                    "{{ for ${v} in fn:data({path}) return <{element}>{{${v}}}</{element}> }}"
                );
            } else {
                let _ = write!(inter_record, "<{element}>{{fn:data({path})}}</{element}>");
            }
        }
        inter_record.push_str("</RECORD>");

        let mut inter = String::from("<RECORDSET>{\n");
        for clause in &clauses {
            inter.push_str(clause);
            inter.push('\n');
        }
        if !conditions.is_empty() {
            let _ = writeln!(inter, "where {}", conditions.join(" and "));
        }
        let _ = write!(inter, "return\n{inter_record}\n}}</RECORDSET>");

        // Regroup.
        let inter_var = format!("inter{ctx}");
        let partition_var = format!("var{ctx}Partition1");
        let mut out = format!("<RECORDSET>{{\nlet ${inter_var} := {inter}\n");

        let grouped_keys: Vec<(TExpr, String)> = if select.group_by.is_empty() {
            // Implicit single group over all rows (aggregates without
            // GROUP BY must still return exactly one row).
            let _ = writeln!(out, "let ${partition_var} := ${inter_var}/RECORD");
            Vec::new()
        } else {
            self.newlet_counter += 1;
            let row_var = format!("varNewlet{}", self.newlet_counter);
            let _ = writeln!(out, "for ${row_var} in ${inter_var}/RECORD");
            // Key expressions evaluate against the $inter rows.
            let mut row_scope = parent_scope.child();
            let names_by_rv = names_for_row_var(&row_names);
            for (rv, names) in &names_by_rv {
                row_scope.bind(
                    rv.clone(),
                    Access::View {
                        var: row_var.clone(),
                        names: names.clone(),
                    },
                );
            }
            let mut key_parts = Vec::with_capacity(select.group_by.len());
            let mut keys = Vec::with_capacity(select.group_by.len());
            for (i, key) in select.group_by.iter().enumerate() {
                let gb_var = format!("var{ctx}GB{}", i + 1);
                let typed = self.gen_typed(key, &row_scope)?;
                key_parts.push(format!("{typed} as ${gb_var}"));
                keys.push((key.clone(), gb_var));
            }
            let _ = writeln!(
                out,
                "group ${row_var} as ${partition_var} by {}",
                key_parts.join(", ")
            );
            keys
        };

        let group_ctx = GroupCtx {
            partition_var: partition_var.clone(),
            keys: &grouped_keys,
            row_names: &row_names,
        };

        if let Some(having) = &select.having {
            let rewritten = self.rewrite_grouped(having, &group_ctx, parent_scope, ctx)?;
            let scope_for_having = parent_scope.child();
            let predicate = self.gen_predicate(&rewritten, &scope_for_having)?;
            let _ = writeln!(out, "where {predicate}");
        }

        out.push_str("return\n");
        // Items rewritten into partition/key terms, then projected.
        let rewritten_items: Vec<PreparedItem> = select
            .items
            .iter()
            .map(|item| {
                Ok(PreparedItem {
                    expr: self.rewrite_grouped(&item.expr, &group_ctx, parent_scope, ctx)?,
                    output: item.output,
                })
            })
            .collect::<Result<_, TranslateError>>()?;
        let projection_scope = parent_scope.child();
        out.push_str(&self.gen_record(
            &rewritten_items,
            &select.output,
            &projection_scope,
            Some(ctx),
        )?);
        out.push_str("\n}</RECORDSET>");
        Ok(out)
    }

    /// Rewrites a grouped expression: group keys become their `$GB`
    /// variables, aggregates become generated expressions over the
    /// partition; everything else recurses.
    fn rewrite_grouped(
        &mut self,
        expr: &TExpr,
        group: &GroupCtx<'_>,
        parent_scope: &GScope<'_>,
        ctx: u32,
    ) -> Result<TExpr, TranslateError> {
        for (key, gb_var) in group.keys {
            if key == expr {
                return Ok(TExpr::new(
                    TExprKind::Generated {
                        xquery: format!("${gb_var}"),
                    },
                    expr.ty,
                    expr.nullable,
                ));
            }
        }
        if let TExprKind::Aggregate {
            func,
            distinct,
            arg,
        } = &expr.kind
        {
            let text =
                self.gen_aggregate(*func, *distinct, arg.as_deref(), group, parent_scope, ctx)?;
            return Ok(TExpr::new(
                TExprKind::Generated { xquery: text },
                expr.ty,
                expr.nullable,
            ));
        }
        if expr.subquery().is_some() {
            return Err(TranslateError::unsupported(
                "subqueries are not supported in grouped select lists or HAVING",
            ));
        }
        // Structural recursion via clone-and-map.
        let mut clone = expr.clone();
        clone.try_visit_children_mut(&mut |child| -> Result<(), TranslateError> {
            *child = self.rewrite_grouped(child, group, parent_scope, ctx)?;
            Ok(())
        })?;
        if let TExprKind::Column { range_var, column } = &clone.kind {
            return Err(TranslateError::semantic(format!(
                "column {range_var}.{column} must appear in GROUP BY or inside an aggregate"
            )));
        }
        Ok(clone)
    }

    /// Generates one aggregate over the partition (paper Example 12:
    /// "fn:concat takes the partition $var1Partition1 as an argument while
    /// fn:count uses var1GB4").
    fn gen_aggregate(
        &mut self,
        func: AggFunc,
        distinct: bool,
        arg: Option<&TExpr>,
        group: &GroupCtx<'_>,
        parent_scope: &GScope<'_>,
        ctx: u32,
    ) -> Result<String, TranslateError> {
        let partition = &group.partition_var;
        let Some(arg) = arg else {
            // COUNT(*): the partition's cardinality.
            return Ok(format!("fn:count(${partition})"));
        };
        // Per-row argument values: NULLs vanish because xs:* casts map the
        // empty sequence to the empty sequence.
        let row_var = self.fresh(ctx, "AG");
        let mut row_scope = parent_scope.child();
        let names_by_rv = names_for_row_var(group.row_names);
        for (rv, names) in &names_by_rv {
            row_scope.bind(
                rv.clone(),
                Access::View {
                    var: row_var.clone(),
                    names: names.clone(),
                },
            );
        }
        let value = self.gen_typed(arg, &row_scope)?;
        let mut values = format!("for ${row_var} in ${partition} return {value}");
        if distinct {
            values = format!("fn:distinct-values(({values}))");
        }
        Ok(match func {
            AggFunc::Count => format!("fn:count(({values}))"),
            // fn:sum(()) is 0; SQL's SUM over no rows is NULL — guard.
            AggFunc::Sum => {
                let agg_var = self.fresh(ctx, "AG");
                format!(
                    "(let ${agg_var} := ({values}) return if (fn:empty(${agg_var})) then () else fn:sum(${agg_var}))"
                )
            }
            AggFunc::Avg => format!("fn:avg(({values}))"),
            AggFunc::Min => format!("fn:min(({values}))"),
            AggFunc::Max => format!("fn:max(({values}))"),
        })
    }

    // ---- FROM / RSNs --------------------------------------------------

    /// Translates one RSN into clauses + bindings. "The join RSN should
    /// possess the knowledge of how to utilize its information and
    /// generate an XQuery expression for the join" (paper §3.4.2).
    fn gen_rsn(
        &mut self,
        rsn: &Rsn,
        ctx: u32,
        clauses: &mut Vec<String>,
        scope: &mut GScope<'_>,
        conditions: &mut Vec<String>,
    ) -> Result<(), TranslateError> {
        match rsn {
            Rsn::Table { range_var, entry } => {
                let var = self.fresh(ctx, "FR");
                let prefix =
                    self.prefix_for(&entry.schema.namespace, &entry.schema.schema_location);
                clauses.push(format!(
                    "for ${var} in {prefix}:{}()",
                    entry.qualified.table
                ));
                scope.bind(range_var.clone(), Access::Direct(var));
                Ok(())
            }
            Rsn::Derived { range_var, query } => {
                // Derived tables are uncorrelated in SQL-92; generate
                // against the enclosing scope's parent chain.
                let view = {
                    let parent = scope.parent;
                    self.gen_query(query, parent)?
                };
                let temp = self.fresh_temp(ctx, "FR");
                let var = self.fresh(ctx, "FR");
                clauses.push(format!("let ${temp} := {view}"));
                clauses.push(format!("for ${var} in ${temp}/RECORD"));
                let names = query
                    .output
                    .iter()
                    .map(|o| (o.label.clone(), o.name.clone()))
                    .collect();
                scope.bind(range_var.clone(), Access::View { var, names });
                Ok(())
            }
            Rsn::Join {
                kind: JoinKind::Inner,
                left,
                right,
                on,
            }
            | Rsn::Join {
                kind: JoinKind::Cross,
                left,
                right,
                on,
            } => {
                // Inner joins flatten into a "double for" plus a where
                // condition (paper Example 12).
                self.gen_rsn(left, ctx, clauses, scope, conditions)?;
                self.gen_rsn(right, ctx, clauses, scope, conditions)?;
                if let Some(on) = on {
                    conditions.push(self.gen_predicate(on, scope)?);
                }
                Ok(())
            }
            Rsn::Join {
                kind: JoinKind::LeftOuter,
                left,
                right,
                on,
            } => self.gen_left_outer(left, right, on.as_ref(), ctx, clauses, scope),
            // RIGHT OUTER is a LEFT OUTER with swapped operands; the view
            // names elements `RANGEVAR.COL`, so operand order does not
            // affect downstream resolution or projection order.
            Rsn::Join {
                kind: JoinKind::RightOuter,
                left,
                right,
                on,
            } => self.gen_left_outer(right, left, on.as_ref(), ctx, clauses, scope),
            Rsn::Join {
                kind: JoinKind::FullOuter,
                left,
                right,
                on,
            } => self.gen_full_outer(left, right, on.as_ref(), ctx, clauses, scope),
        }
    }

    /// The Example-10 pattern: bind the filtered right side to a `let`,
    /// then emit matched rows or a left-only row when empty; the whole
    /// join becomes a let-bound RECORDSET view.
    fn gen_left_outer(
        &mut self,
        left: &Rsn,
        right: &Rsn,
        on: Option<&TExpr>,
        ctx: u32,
        clauses: &mut Vec<String>,
        scope: &mut GScope<'_>,
    ) -> Result<(), TranslateError> {
        // Build the view body in an inner scope.
        let mut inner_scope = GScope::under(scope.parent);
        let mut inner_clauses = Vec::new();
        let mut inner_conditions = Vec::new();
        self.gen_rsn(
            left,
            ctx,
            &mut inner_clauses,
            &mut inner_scope,
            &mut inner_conditions,
        )?;

        // Right side: a filterable source plus element naming.
        let (right_source, right_names) =
            self.gen_filterable_source(right, ctx, &mut inner_clauses)?;

        // The ON condition, with right columns as context-relative paths.
        let filter = match on {
            Some(on) => {
                let mut cond_scope = inner_scope.child();
                for rv in right.range_vars() {
                    let names = right_names
                        .iter()
                        .filter(|((r, _), _)| r == rv)
                        .map(|((_, c), e)| (c.clone(), e.clone()))
                        .collect();
                    cond_scope.bind(rv.to_string(), Access::Relative { names });
                }
                let predicate = self.gen_predicate(on, &cond_scope)?;
                format!("[{predicate}]")
            }
            None => String::new(),
        };
        let matched_var = self.fresh_temp(ctx, "FR");
        inner_clauses.push(format!("let ${matched_var} := {right_source}{filter}"));

        // Record construction for both arms.
        let left_columns = left.columns();
        let right_columns = right.columns();
        let row_var = self.fresh(ctx, "FR");

        let mut left_elements = String::new();
        for col in &left_columns {
            let path = inner_scope.column_path(&col.range_var, &col.name)?;
            left_elements.push_str(&self.record_element(
                &format!("{}.{}", col.range_var, col.name),
                &format!("fn:data({path})"),
                col.nullable,
                ctx,
            ));
        }
        let mut right_elements = String::new();
        for col in &right_columns {
            let element = right_names
                .get(&(col.range_var.clone(), col.name.clone()))
                .cloned()
                .unwrap_or_else(|| col.name.clone());
            right_elements.push_str(&self.record_element(
                &format!("{}.{}", col.range_var, col.name),
                &format!("fn:data(${row_var}/{element})"),
                col.nullable,
                ctx,
            ));
        }

        let mut view = String::from("<RECORDSET>{\n");
        for clause in &inner_clauses {
            view.push_str(clause);
            view.push('\n');
        }
        if !inner_conditions.is_empty() {
            let _ = writeln!(view, "where {}", inner_conditions.join(" and "));
        }
        let _ = write!(
            view,
            "return\nif (fn:empty(${matched_var})) then\n<RECORD>{left_elements}</RECORD>\nelse\n(for ${row_var} in ${matched_var}\nreturn\n<RECORD>{left_elements}{right_elements}</RECORD>)\n}}</RECORDSET>"
        );

        // Expose the view to the enclosing query.
        let temp = self.fresh_temp(ctx, "FR");
        let var = self.fresh(ctx, "FR");
        clauses.push(format!("let ${temp} := {view}"));
        clauses.push(format!("for ${var} in ${temp}/RECORD"));
        for rv in left.range_vars().into_iter().chain(right.range_vars()) {
            let names: HashMap<String, String> = left_columns
                .iter()
                .chain(right_columns.iter())
                .filter(|c| c.range_var == rv)
                .map(|c| (c.name.clone(), format!("{}.{}", c.range_var, c.name)))
                .collect();
            scope.bind(
                rv.to_string(),
                Access::View {
                    var: var.clone(),
                    names,
                },
            );
        }
        Ok(())
    }

    /// FULL OUTER JOIN: materialize both sides, then union the left-outer
    /// rows with the unmatched right rows.
    fn gen_full_outer(
        &mut self,
        left: &Rsn,
        right: &Rsn,
        on: Option<&TExpr>,
        ctx: u32,
        clauses: &mut Vec<String>,
        scope: &mut GScope<'_>,
    ) -> Result<(), TranslateError> {
        let mut pre_clauses = Vec::new();
        let (left_source, left_names) = self.gen_filterable_source(left, ctx, &mut pre_clauses)?;
        let (right_source, right_names) =
            self.gen_filterable_source(right, ctx, &mut pre_clauses)?;

        let left_columns = left.columns();
        let right_columns = right.columns();
        let l_var = self.fresh(ctx, "FR");
        let r_var = self.fresh(ctx, "FR");
        let matched = self.fresh_temp(ctx, "FR");

        // ON with left rows bound to $l_var (via its names) and right
        // relative (for the filter on the right source) — and the mirror
        // for the anti-join.
        let bind_side =
            |scope: &mut GScope<'_>,
             rsn: &Rsn,
             names: &HashMap<(String, String), String>,
             access: &dyn Fn(HashMap<String, String>) -> Access| {
                for rv in rsn.range_vars() {
                    let side_names: HashMap<String, String> = names
                        .iter()
                        .filter(|((r, _), _)| r == rv)
                        .map(|((_, c), e)| (c.clone(), e.clone()))
                        .collect();
                    scope.bind(rv.to_string(), access(side_names));
                }
            };

        let (filter_right, filter_left) = match on {
            Some(on) => {
                let mut s1 = GScope::under(scope.parent);
                bind_side(&mut s1, left, &left_names, &|n| Access::View {
                    var: l_var.clone(),
                    names: n,
                });
                bind_side(&mut s1, right, &right_names, &|n| Access::Relative {
                    names: n,
                });
                let p1 = self.gen_predicate(on, &s1)?;

                let mut s2 = GScope::under(scope.parent);
                bind_side(&mut s2, right, &right_names, &|n| Access::View {
                    var: r_var.clone(),
                    names: n,
                });
                bind_side(&mut s2, left, &left_names, &|n| Access::Relative {
                    names: n,
                });
                let p2 = self.gen_predicate(on, &s2)?;
                (format!("[{p1}]"), format!("[{p2}]"))
            }
            None => (String::new(), String::new()),
        };

        let element_for = |names: &HashMap<(String, String), String>, col: &RsnColumn| -> String {
            names
                .get(&(col.range_var.clone(), col.name.clone()))
                .cloned()
                .unwrap_or_else(|| col.name.clone())
        };
        let mut left_elements_l = String::new();
        for col in &left_columns {
            let element = element_for(&left_names, col);
            left_elements_l.push_str(&self.record_element(
                &format!("{}.{}", col.range_var, col.name),
                &format!("fn:data(${l_var}/{element})"),
                col.nullable,
                ctx,
            ));
        }
        let mut right_elements_m = String::new();
        let m_var = self.fresh(ctx, "FR");
        for col in &right_columns {
            let element = element_for(&right_names, col);
            right_elements_m.push_str(&self.record_element(
                &format!("{}.{}", col.range_var, col.name),
                &format!("fn:data(${m_var}/{element})"),
                col.nullable,
                ctx,
            ));
        }
        let mut right_elements_r = String::new();
        for col in &right_columns {
            let element = element_for(&right_names, col);
            right_elements_r.push_str(&self.record_element(
                &format!("{}.{}", col.range_var, col.name),
                &format!("fn:data(${r_var}/{element})"),
                col.nullable,
                ctx,
            ));
        }

        // Both arms share any materialization lets, so those wrap the
        // whole pair: `let ... return (arm1, arm2)`.
        let mut view = String::from("<RECORDSET>{\n");
        for clause in &pre_clauses {
            view.push_str(clause);
            view.push('\n');
        }
        if !pre_clauses.is_empty() {
            view.push_str("return\n");
        }
        let _ = write!(
            view,
            "(for ${l_var} in {left_source}\nlet ${matched} := {right_source}{filter_right}\nreturn\nif (fn:empty(${matched})) then\n<RECORD>{left_elements_l}</RECORD>\nelse\n(for ${m_var} in ${matched}\nreturn\n<RECORD>{left_elements_l}{right_elements_m}</RECORD>)\n,\nfor ${r_var} in {right_source}\nwhere fn:empty({left_source}{filter_left})\nreturn\n<RECORD>{right_elements_r}</RECORD>\n)\n}}</RECORDSET>"
        );

        let temp = self.fresh_temp(ctx, "FR");
        let var = self.fresh(ctx, "FR");
        clauses.push(format!("let ${temp} := {view}"));
        clauses.push(format!("for ${var} in ${temp}/RECORD"));
        for rv in left.range_vars().into_iter().chain(right.range_vars()) {
            let names: HashMap<String, String> = left_columns
                .iter()
                .chain(right_columns.iter())
                .filter(|c| c.range_var == rv)
                .map(|c| (c.name.clone(), format!("{}.{}", c.range_var, c.name)))
                .collect();
            scope.bind(
                rv.to_string(),
                Access::View {
                    var: var.clone(),
                    names,
                },
            );
        }
        Ok(())
    }

    /// A source expression that can carry an XPath filter (for outer-join
    /// conditions): a direct function call for tables (Example 10's
    /// `ns1:PAYMENTS()[...]`), or a materialized view's `/RECORD` rows for
    /// anything more complex. Returns the source text plus the
    /// `(range_var, column) → element` naming for its rows.
    #[allow(clippy::type_complexity)]
    fn gen_filterable_source(
        &mut self,
        rsn: &Rsn,
        ctx: u32,
        clauses: &mut Vec<String>,
    ) -> Result<(String, HashMap<(String, String), String>), TranslateError> {
        match rsn {
            Rsn::Table { range_var, entry } => {
                let prefix =
                    self.prefix_for(&entry.schema.namespace, &entry.schema.schema_location);
                let names = entry
                    .schema
                    .columns
                    .iter()
                    .map(|c| ((range_var.clone(), c.name.clone()), c.name.clone()))
                    .collect();
                Ok((format!("{prefix}:{}()", entry.qualified.table), names))
            }
            Rsn::Derived { range_var, query } => {
                let view = self.gen_query(query, None)?;
                let temp = self.fresh_temp(ctx, "FR");
                clauses.push(format!("let ${temp} := {view}"));
                let names = query
                    .output
                    .iter()
                    .map(|o| ((range_var.clone(), o.label.clone()), o.name.clone()))
                    .collect();
                Ok((format!("${temp}/RECORD"), names))
            }
            Rsn::Join { .. } => {
                // Materialize the nested join through a scratch scope.
                let mut inner_scope = GScope::root();
                let mut inner_clauses = Vec::new();
                let mut inner_conditions = Vec::new();
                self.gen_rsn(
                    rsn,
                    ctx,
                    &mut inner_clauses,
                    &mut inner_scope,
                    &mut inner_conditions,
                )?;
                let columns = rsn.columns();
                let mut record = String::from("<RECORD>");
                let mut names = HashMap::new();
                for col in &columns {
                    let element = format!("{}.{}", col.range_var, col.name);
                    names.insert((col.range_var.clone(), col.name.clone()), element.clone());
                    let path = inner_scope.column_path(&col.range_var, &col.name)?;
                    record.push_str(&self.record_element(
                        &element,
                        &format!("fn:data({path})"),
                        col.nullable,
                        ctx,
                    ));
                }
                record.push_str("</RECORD>");
                let mut view = String::from("<RECORDSET>{\n");
                for clause in &inner_clauses {
                    view.push_str(clause);
                    view.push('\n');
                }
                if !inner_conditions.is_empty() {
                    let _ = writeln!(view, "where {}", inner_conditions.join(" and "));
                }
                let _ = write!(view, "return\n{record}\n}}</RECORDSET>");
                let temp = self.fresh_temp(ctx, "FR");
                clauses.push(format!("let ${temp} := {view}"));
                Ok((format!("${temp}/RECORD"), names))
            }
        }
    }

    // ---- records and values --------------------------------------------

    /// One result element. Non-nullable values use the paper's literal
    /// constructor form; nullable values construct conditionally so SQL
    /// NULL remains an absent element.
    fn record_element(&mut self, name: &str, value: &str, nullable: bool, ctx: u32) -> String {
        if nullable {
            let v = self.fresh(ctx, "SL");
            format!("{{ for ${v} in {value} return <{name}>{{${v}}}</{name}> }}")
        } else {
            format!("<{name}>{{{value}}}</{name}>")
        }
    }

    fn gen_record(
        &mut self,
        items: &[PreparedItem],
        output: &[OutputColumn],
        scope: &GScope<'_>,
        ctx_override: Option<u32>,
    ) -> Result<String, TranslateError> {
        let ctx = ctx_override.unwrap_or(0);
        let mut out = String::from("<RECORD>");
        for item in items {
            let column = &output[item.output];
            let value = self.gen_value(&item.expr, scope)?;
            out.push_str(&self.record_element(&column.name, &value, column.nullable, ctx));
        }
        out.push_str("</RECORD>");
        Ok(out)
    }

    /// A value expression: yields an atomized value or the empty sequence
    /// (SQL NULL).
    fn gen_value(&mut self, expr: &TExpr, scope: &GScope<'_>) -> Result<String, TranslateError> {
        use TExprKind::*;
        match &expr.kind {
            Generated { xquery } => Ok(xquery.clone()),
            Column { range_var, column } => {
                let path = scope.column_path(range_var, column)?;
                Ok(format!("fn:data({path})"))
            }
            Literal(l) => Ok(gen_literal(l)),
            Parameter(n) => Ok(format!("${}", crate::sql_param_name(*n))),
            Neg(inner) => Ok(format!("(-{})", self.gen_typed(inner, scope)?)),
            Arith { op, left, right } => {
                let l = self.gen_typed(left, scope)?;
                let r = self.gen_typed(right, scope)?;
                let int_division =
                    *op == ArithOp::Div && is_integer_type(left.ty) && is_integer_type(right.ty);
                let op_text = match op {
                    ArithOp::Add => "+",
                    ArithOp::Sub => "-",
                    ArithOp::Mul => "*",
                    ArithOp::Div => "div",
                };
                if int_division {
                    // SQL integer division truncates; XQuery's `div` on
                    // integers yields a decimal — recover SQL semantics
                    // with a cast.
                    Ok(format!("xs:integer(({l} idiv {r}))"))
                } else {
                    Ok(format!("({l} {op_text} {r})"))
                }
            }
            Concat(l, r) => self.gen_nary_concat(&[l.as_ref().clone(), r.as_ref().clone()], scope),
            ScalarFn { name, args } => self.gen_scalar_fn(name, args, scope),
            Case {
                operand,
                branches,
                else_result,
            } => {
                let else_text = match else_result {
                    Some(e) => self.gen_value(e, scope)?,
                    None => "()".to_string(),
                };
                match operand {
                    None => {
                        // Searched CASE: nested if/then/else.
                        let mut text = else_text;
                        for (when, then) in branches.iter().rev() {
                            let cond = self.gen_predicate(when, scope)?;
                            let value = self.gen_value(then, scope)?;
                            text = format!("(if ({cond}) then {value} else {text})");
                        }
                        Ok(text)
                    }
                    Some(op_expr) => {
                        let var = self.fresh(0, "CS");
                        let op_value = self.gen_value(op_expr, scope)?;
                        let mut text = else_text;
                        for (when, then) in branches.iter().rev() {
                            let when_value = self.gen_comparison_operand(when, scope)?.0;
                            let value = self.gen_value(then, scope)?;
                            text =
                                format!("(if ((${var} = {when_value})) then {value} else {text})");
                        }
                        Ok(format!("(let ${var} := {op_value} return {text})"))
                    }
                }
            }
            Cast {
                expr: inner,
                target,
            } => {
                let value = self.gen_value(inner, scope)?;
                Ok(format!("{}({value})", xs_constructor(*target)))
            }
            Substring {
                expr: source,
                start,
                length,
            } => {
                let source_text = self.gen_value(source, scope)?;
                let start_text = self.gen_typed(start, scope)?;
                let length_text = match length {
                    Some(l) => Some(self.gen_typed(l, scope)?),
                    None => None,
                };
                let needs_guard = source.nullable
                    || start.nullable
                    || length.as_ref().is_some_and(|l| l.nullable);
                if needs_guard {
                    let v1 = self.fresh(0, "GD");
                    let v2 = self.fresh(0, "GD");
                    match length_text {
                        Some(lt) => {
                            let v3 = self.fresh(0, "GD");
                            Ok(format!(
                                "(let ${v1} := {source_text}, ${v2} := {start_text}, ${v3} := {lt} return if (fn:empty(${v1}) or fn:empty(${v2}) or fn:empty(${v3})) then () else fn:substring(${v1}, ${v2}, ${v3}))"
                            ))
                        }
                        None => Ok(format!(
                            "(let ${v1} := {source_text}, ${v2} := {start_text} return if (fn:empty(${v1}) or fn:empty(${v2})) then () else fn:substring(${v1}, ${v2}))"
                        )),
                    }
                } else {
                    match length_text {
                        Some(lt) => Ok(format!("fn:substring({source_text}, {start_text}, {lt})")),
                        None => Ok(format!("fn:substring({source_text}, {start_text})")),
                    }
                }
            }
            Trim {
                side,
                trim_chars,
                expr: source,
            } => {
                let source_text = self.gen_value(source, scope)?;
                let side_text = match side {
                    TrimSide::Both => "BOTH",
                    TrimSide::Leading => "LEADING",
                    TrimSide::Trailing => "TRAILING",
                };
                let chars_text = match trim_chars {
                    Some(c) => self.gen_value(c, scope)?,
                    None => "\" \"".to_string(),
                };
                Ok(format!(
                    "fn-bea:sql-trim({source_text}, \"{side_text}\", {chars_text})"
                ))
            }
            Position { needle, haystack } => {
                let n = self.gen_value(needle, scope)?;
                let h = self.gen_value(haystack, scope)?;
                Ok(format!("fn-bea:sql-position({n}, {h})"))
            }
            ScalarSubquery(query) => {
                let view = self.gen_query(query, Some(scope))?;
                let out_name = &query.output[0].name;
                let base = format!("fn:zero-or-one(fn:data({view}/RECORD/{out_name}))");
                Ok(match expr.ty {
                    Some(t) => format!("{}({base})", xs_constructor(t)),
                    None => base,
                })
            }
            Aggregate { .. } => Err(TranslateError::semantic(
                "internal: aggregate reached value generation without grouping rewrite",
            )),
            // Predicates used in value position (e.g. inside CASE WHEN
            // they are handled by gen_predicate; a bare boolean select
            // item is not SQL-92, but handle it anyway).
            Compare { .. }
            | And(..)
            | Or(..)
            | Not(..)
            | IsNull { .. }
            | Between { .. }
            | InList { .. }
            | InSubquery { .. }
            | Exists { .. }
            | Quantified { .. }
            | Like { .. } => self.gen_predicate(expr, scope),
        }
    }

    /// A value with a guaranteed runtime type: columns get an `xs:*` cast
    /// derived from catalog metadata; other expressions are already typed.
    fn gen_typed(&mut self, expr: &TExpr, scope: &GScope<'_>) -> Result<String, TranslateError> {
        if let TExprKind::Column { range_var, column } = &expr.kind {
            let path = scope.column_path(range_var, column)?;
            return Ok(match expr.ty {
                Some(t) => format!("{}(fn:data({path}))", xs_constructor(t)),
                None => format!("fn:data({path})"),
            });
        }
        self.gen_value(expr, scope)
    }

    fn gen_nary_concat(
        &mut self,
        args: &[TExpr],
        scope: &GScope<'_>,
    ) -> Result<String, TranslateError> {
        let values: Vec<String> = args
            .iter()
            .map(|a| self.gen_value(a, scope))
            .collect::<Result<_, _>>()?;
        if args.iter().any(|a| a.nullable) {
            // SQL || is NULL-propagating; fn:concat coerces empty to "".
            let vars: Vec<String> = values.iter().map(|_| self.fresh(0, "GD")).collect();
            let lets: Vec<String> = vars
                .iter()
                .zip(&values)
                .map(|(v, val)| format!("${v} := {val}"))
                .collect();
            let empties: Vec<String> = vars.iter().map(|v| format!("fn:empty(${v})")).collect();
            let refs: Vec<String> = vars.iter().map(|v| format!("${v}")).collect();
            Ok(format!(
                "(let {} return if ({}) then () else fn:concat({}))",
                lets.join(", "),
                empties.join(" or "),
                refs.join(", ")
            ))
        } else {
            Ok(format!("fn:concat({})", values.join(", ")))
        }
    }

    fn gen_scalar_fn(
        &mut self,
        name: &str,
        args: &[TExpr],
        scope: &GScope<'_>,
    ) -> Result<String, TranslateError> {
        use crate::funcmap::{lookup, NullBehavior};
        match name {
            "CONCAT" => return self.gen_nary_concat(args, scope),
            "COALESCE" => {
                // Right fold into fn-bea:if-empty.
                let mut text = self.gen_value(args.last().expect("arity checked"), scope)?;
                for a in args[..args.len() - 1].iter().rev() {
                    let v = self.gen_value(a, scope)?;
                    text = format!("fn-bea:if-empty({v}, {text})");
                }
                return Ok(text);
            }
            "NULLIF" => {
                let a = self.gen_value(&args[0], scope)?;
                let b = self.gen_comparison_operand(&args[1], scope)?.0;
                let v = self.fresh(0, "GD");
                return Ok(format!(
                    "(let ${v} := {a} return if ((${v} = {b})) then () else ${v})"
                ));
            }
            "MOD" => {
                let a = self.gen_typed(&args[0], scope)?;
                let b = self.gen_typed(&args[1], scope)?;
                return Ok(format!("({a} mod {b})"));
            }
            _ => {}
        }
        let mapping = lookup(name)
            .ok_or_else(|| TranslateError::unsupported(format!("unknown function {name}")))?;
        let values: Vec<String> = args
            .iter()
            .map(|a| self.gen_value(a, scope))
            .collect::<Result<_, _>>()?;
        let needs_guard =
            mapping.null_behavior == NullBehavior::NeedsGuard && args.iter().any(|a| a.nullable);
        if needs_guard {
            let vars: Vec<String> = values.iter().map(|_| self.fresh(0, "GD")).collect();
            let lets: Vec<String> = vars
                .iter()
                .zip(&values)
                .map(|(v, val)| format!("${v} := {val}"))
                .collect();
            let empties: Vec<String> = vars.iter().map(|v| format!("fn:empty(${v})")).collect();
            let refs: Vec<String> = vars.iter().map(|v| format!("${v}")).collect();
            Ok(format!(
                "(let {} return if ({}) then () else {}({}))",
                lets.join(", "),
                empties.join(" or "),
                mapping.xquery_name,
                refs.join(", ")
            ))
        } else {
            Ok(format!("{}({})", mapping.xquery_name, values.join(", ")))
        }
    }

    // ---- predicates ------------------------------------------------------

    /// A boolean-position expression. SQL UNKNOWN maps to either `false`
    /// or the empty sequence — both are rejected by `where` (effective
    /// boolean value), which matches SQL's treat-UNKNOWN-as-FALSE at
    /// filter level. NOT is translated by negation push-down so UNKNOWN
    /// never flips to TRUE.
    fn gen_predicate(
        &mut self,
        expr: &TExpr,
        scope: &GScope<'_>,
    ) -> Result<String, TranslateError> {
        use TExprKind::*;
        match &expr.kind {
            Compare { op, left, right } => self.gen_comparison(*op, left, right, scope),
            And(l, r) => Ok(format!(
                "({} and {})",
                self.gen_predicate(l, scope)?,
                self.gen_predicate(r, scope)?
            )),
            Or(l, r) => Ok(format!(
                "({} or {})",
                self.gen_predicate(l, scope)?,
                self.gen_predicate(r, scope)?
            )),
            Not(inner) => self.gen_negated(inner, scope),
            IsNull {
                expr: inner,
                negated,
            } => {
                let operand = match &inner.kind {
                    Column { range_var, column } => scope.column_path(range_var, column)?,
                    _ => self.gen_value(inner, scope)?,
                };
                Ok(if *negated {
                    format!("fn:exists({operand})")
                } else {
                    format!("fn:empty({operand})")
                })
            }
            Between {
                expr: e,
                low,
                high,
                negated,
            } => {
                if *negated {
                    let below = self.gen_comparison(CompareOp::Lt, e, low, scope)?;
                    let above = self.gen_comparison(CompareOp::Gt, e, high, scope)?;
                    Ok(format!("({below} or {above})"))
                } else {
                    let ge = self.gen_comparison(CompareOp::GtEq, e, low, scope)?;
                    let le = self.gen_comparison(CompareOp::LtEq, e, high, scope)?;
                    Ok(format!("({ge} and {le})"))
                }
            }
            InList {
                expr: e,
                list,
                negated,
            } => {
                let (lhs, _) = self.gen_comparison_operand(e, scope)?;
                if *negated {
                    // `a NOT IN (v1, v2)` ⇔ `a <> v1 AND a <> v2`.
                    let parts: Vec<String> = list
                        .iter()
                        .map(|v| {
                            let (rhs, _) = self.gen_comparison_operand(v, scope)?;
                            Ok(format!("({lhs}!={rhs})"))
                        })
                        .collect::<Result<_, TranslateError>>()?;
                    Ok(format!("({})", parts.join(" and ")))
                } else {
                    // Existential general comparison against the sequence.
                    let values: Vec<String> = list
                        .iter()
                        .map(|v| Ok(self.gen_comparison_operand(v, scope)?.0))
                        .collect::<Result<_, TranslateError>>()?;
                    Ok(format!("({lhs} = ({}))", values.join(", ")))
                }
            }
            InSubquery {
                expr: e,
                query,
                negated,
            } => {
                let (lhs, _) = self.gen_comparison_operand(e, scope)?;
                let view = self.gen_query(query, Some(scope))?;
                let out_name = &query.output[0].name;
                if *negated {
                    let v = self.fresh(0, "SQ");
                    Ok(format!(
                        "(every ${v} in {view}/RECORD satisfies ({lhs}!=${v}/{out_name}))"
                    ))
                } else {
                    Ok(format!("({lhs} = {view}/RECORD/{out_name})"))
                }
            }
            Exists { query, negated } => {
                let view = self.gen_query(query, Some(scope))?;
                Ok(if *negated {
                    format!("fn:empty({view}/RECORD)")
                } else {
                    format!("fn:exists({view}/RECORD)")
                })
            }
            Quantified {
                expr: e,
                op,
                quantifier,
                query,
            } => {
                let (lhs, lhs_typed) = self.gen_comparison_operand(e, scope)?;
                let view = self.gen_query(query, Some(scope))?;
                let out_name = &query.output[0].name;
                let v = self.fresh(0, "SQ");
                let rhs_path = format!("${v}/{out_name}");
                // The subquery column is untyped; cast for ordered
                // comparisons against another untyped operand.
                let sub_ty = query.output[0].sql_type;
                let rhs = if needs_ordered_cast(*op, lhs_typed, false, sub_ty) {
                    cast_for_type(sub_ty, &rhs_path)
                } else {
                    rhs_path
                };
                let lhs_final = if needs_ordered_cast(*op, lhs_typed, false, sub_ty) {
                    self.gen_typed(e, scope)?
                } else {
                    lhs
                };
                let word = match quantifier {
                    Quantifier::Any => "some",
                    Quantifier::All => "every",
                };
                Ok(format!(
                    "({word} ${v} in {view}/RECORD satisfies ({lhs_final}{}{rhs}))",
                    comp_symbol(*op)
                ))
            }
            Like {
                expr: input,
                pattern,
                escape,
                negated,
            } => {
                let input_text = match &input.kind {
                    Column { range_var, column } => scope.column_path(range_var, column)?,
                    _ => self.gen_value(input, scope)?,
                };
                let pattern_text = self.gen_value(pattern, scope)?;
                let call = match escape {
                    Some(esc) => {
                        let esc_text = self.gen_value(esc, scope)?;
                        format!("fn-bea:sql-like({input_text}, {pattern_text}, {esc_text})")
                    }
                    None => format!("fn-bea:sql-like({input_text}, {pattern_text})"),
                };
                Ok(if *negated {
                    // NULL input → empty → `empty = false()` is false →
                    // the row is excluded, matching SQL UNKNOWN.
                    format!("({call} = fn:false())")
                } else {
                    call
                })
            }
            // Value expressions in boolean position: compare against
            // true() so empty (UNKNOWN) is rejected.
            _ => {
                let value = self.gen_value(expr, scope)?;
                Ok(format!("({value} = fn:true())"))
            }
        }
    }

    /// Negation push-down (SQL three-valued NOT must not turn UNKNOWN
    /// into TRUE, so `fn:not` is never applied to a nullable predicate).
    fn gen_negated(&mut self, expr: &TExpr, scope: &GScope<'_>) -> Result<String, TranslateError> {
        use TExprKind::*;
        match &expr.kind {
            Compare { op, left, right } => self.gen_comparison(op.negated(), left, right, scope),
            And(l, r) => {
                let nl = self.gen_negated(l, scope)?;
                let nr = self.gen_negated(r, scope)?;
                Ok(format!("({nl} or {nr})"))
            }
            Or(l, r) => {
                let nl = self.gen_negated(l, scope)?;
                let nr = self.gen_negated(r, scope)?;
                Ok(format!("({nl} and {nr})"))
            }
            Not(inner) => self.gen_predicate(inner, scope),
            IsNull {
                expr: inner,
                negated,
            } => self.gen_predicate(
                &TExpr::new(
                    IsNull {
                        expr: inner.clone(),
                        negated: !negated,
                    },
                    expr.ty,
                    false,
                ),
                scope,
            ),
            Between {
                expr: e,
                low,
                high,
                negated,
            } => self.gen_predicate(
                &TExpr::new(
                    Between {
                        expr: e.clone(),
                        low: low.clone(),
                        high: high.clone(),
                        negated: !negated,
                    },
                    expr.ty,
                    expr.nullable,
                ),
                scope,
            ),
            InList {
                expr: e,
                list,
                negated,
            } => self.gen_predicate(
                &TExpr::new(
                    InList {
                        expr: e.clone(),
                        list: list.clone(),
                        negated: !negated,
                    },
                    expr.ty,
                    expr.nullable,
                ),
                scope,
            ),
            InSubquery {
                expr: e,
                query,
                negated,
            } => self.gen_predicate(
                &TExpr::new(
                    InSubquery {
                        expr: e.clone(),
                        query: query.clone(),
                        negated: !negated,
                    },
                    expr.ty,
                    expr.nullable,
                ),
                scope,
            ),
            Exists { query, negated } => self.gen_predicate(
                &TExpr::new(
                    Exists {
                        query: query.clone(),
                        negated: !negated,
                    },
                    expr.ty,
                    false,
                ),
                scope,
            ),
            Like {
                expr: e,
                pattern,
                escape,
                negated,
            } => self.gen_predicate(
                &TExpr::new(
                    Like {
                        expr: e.clone(),
                        pattern: pattern.clone(),
                        escape: escape.clone(),
                        negated: !negated,
                    },
                    expr.ty,
                    expr.nullable,
                ),
                scope,
            ),
            Quantified {
                expr: e,
                op,
                quantifier,
                query,
            } => {
                // NOT (a op ANY q) ⇔ a negop ALL q, and vice versa.
                let flipped = match quantifier {
                    Quantifier::Any => Quantifier::All,
                    Quantifier::All => Quantifier::Any,
                };
                self.gen_predicate(
                    &TExpr::new(
                        Quantified {
                            expr: e.clone(),
                            op: op.negated(),
                            quantifier: flipped,
                            query: query.clone(),
                        },
                        expr.ty,
                        expr.nullable,
                    ),
                    scope,
                )
            }
            // Fallback: `p = false()` — empty (UNKNOWN) stays excluded.
            _ => {
                let value = self.gen_value(expr, scope)?;
                Ok(format!("({value} = fn:false())"))
            }
        }
    }

    /// Comparison generation with the paper's patterns: columns as raw
    /// paths, literals wrapped in `xs:*` constructors (Example 8's
    /// `$var1FR2/ID>xs:integer(10)`). When *both* operands are untyped
    /// (column vs column) and the comparison is ordered, both sides get
    /// casts — untyped-vs-untyped would otherwise compare as strings.
    fn gen_comparison(
        &mut self,
        op: CompareOp,
        left: &TExpr,
        right: &TExpr,
        scope: &GScope<'_>,
    ) -> Result<String, TranslateError> {
        let (l_text, l_typed) = self.gen_comparison_operand(left, scope)?;
        let (r_text, r_typed) = self.gen_comparison_operand(right, scope)?;
        let ordered = matches!(
            op,
            CompareOp::Lt | CompareOp::LtEq | CompareOp::Gt | CompareOp::GtEq
        );
        let both_untyped = !l_typed && !r_typed;
        let needs_casts = ordered
            && both_untyped
            && (is_orderable_nonstring(left.ty) || is_orderable_nonstring(right.ty));
        let (l_final, r_final) = if needs_casts {
            (self.gen_typed(left, scope)?, self.gen_typed(right, scope)?)
        } else {
            (l_text, r_text)
        };
        Ok(format!("({l_final}{}{r_final})", comp_symbol(op)))
    }

    /// Renders one comparison operand, reporting whether its runtime type
    /// is statically pinned (`true`) or untyped node content (`false`).
    fn gen_comparison_operand(
        &mut self,
        expr: &TExpr,
        scope: &GScope<'_>,
    ) -> Result<(String, bool), TranslateError> {
        use TExprKind::*;
        match &expr.kind {
            Column { range_var, column } => Ok((scope.column_path(range_var, column)?, false)),
            Literal(l) => Ok((gen_comparison_literal(l), true)),
            // Parameters are bound to typed atomics by the driver.
            Parameter(n) => Ok((format!("${}", crate::sql_param_name(*n)), true)),
            Generated { xquery } => Ok((xquery.clone(), true)),
            _ => Ok((self.gen_value(expr, scope)?, true)),
        }
    }
}

/// Per-column row equality with SQL set-operation NULL handling: two
/// absent elements are equal.
fn row_equality(x: &str, y: &str, output: &[OutputColumn]) -> String {
    let parts: Vec<String> = output
        .iter()
        .map(|col| {
            let name = &col.name;
            if col.nullable {
                format!(
                    "((fn:empty(${x}/{name}) and fn:empty(${y}/{name})) or (${x}/{name} = ${y}/{name}))"
                )
            } else {
                format!("(${x}/{name} = ${y}/{name})")
            }
        })
        .collect();
    if parts.is_empty() {
        "fn:true()".to_string()
    } else {
        format!("({})", parts.join(" and "))
    }
}

fn names_for_row_var(
    row_names: &HashMap<(String, String), String>,
) -> HashMap<String, HashMap<String, String>> {
    let mut out: HashMap<String, HashMap<String, String>> = HashMap::new();
    for ((rv, col), element) in row_names {
        out.entry(rv.clone())
            .or_default()
            .insert(col.clone(), element.clone());
    }
    out
}

fn body_ctx(body: &PreparedBody) -> u32 {
    match body {
        PreparedBody::Select(s) => s.ctx_id,
        PreparedBody::SetOp { left, .. } => body_ctx(left),
    }
}

fn comp_symbol(op: CompareOp) -> &'static str {
    match op {
        CompareOp::Eq => "=",
        CompareOp::NotEq => "!=",
        CompareOp::Lt => "<",
        CompareOp::LtEq => "<=",
        CompareOp::Gt => ">",
        CompareOp::GtEq => ">=",
    }
}

/// Ordered comparisons between two untyped operands would compare as
/// strings; when the catalog knows a non-string orderable type, both
/// sides need casts.
fn needs_ordered_cast(
    op: CompareOp,
    lhs_typed: bool,
    rhs_typed: bool,
    ty: Option<SqlColumnType>,
) -> bool {
    matches!(
        op,
        CompareOp::Lt | CompareOp::LtEq | CompareOp::Gt | CompareOp::GtEq
    ) && !lhs_typed
        && !rhs_typed
        && is_orderable_nonstring(ty)
}

fn is_integer_type(t: Option<SqlColumnType>) -> bool {
    matches!(
        t,
        Some(SqlColumnType::Smallint) | Some(SqlColumnType::Integer) | Some(SqlColumnType::Bigint)
    )
}

fn is_orderable_nonstring(t: Option<SqlColumnType>) -> bool {
    match t {
        Some(t) => t.is_numeric() || t == SqlColumnType::Date || t == SqlColumnType::Boolean,
        None => false,
    }
}

/// The `xs:*` constructor for a SQL type class.
pub fn xs_constructor(t: SqlColumnType) -> &'static str {
    use SqlColumnType as T;
    match t {
        T::Smallint | T::Integer | T::Bigint => "xs:integer",
        T::Decimal => "xs:decimal",
        T::Real | T::Double => "xs:double",
        T::Char | T::Varchar => "xs:string",
        T::Date => "xs:date",
        T::Boolean => "xs:boolean",
    }
}

fn cast_for_type(t: Option<SqlColumnType>, path: &str) -> String {
    match t {
        Some(t) if t.is_numeric() || matches!(t, SqlColumnType::Date | SqlColumnType::Boolean) => {
            format!("{}({path})", xs_constructor(t))
        }
        _ => path.to_string(),
    }
}

fn gen_literal(l: &Literal) -> String {
    match l {
        Literal::Integer(i) => i.to_string(),
        Literal::Decimal(d) => {
            if d.fract() == 0.0 {
                format!("{d:.1}")
            } else {
                format!("{d}")
            }
        }
        Literal::Double(d) => format!("{d:E}"),
        Literal::String(s) => format!("\"{}\"", escape_string_literal(s)),
        Literal::Date(d) => format!("xs:date(\"{d}\")"),
        Literal::Null => "()".to_string(),
    }
}

/// Comparison position: numeric literals carry explicit constructor casts
/// (paper Example 8 wraps `10` as `xs:integer(10)`).
fn gen_comparison_literal(l: &Literal) -> String {
    match l {
        Literal::Integer(i) => format!("xs:integer({i})"),
        Literal::Decimal(d) => {
            if d.fract() == 0.0 {
                format!("xs:decimal({d:.1})")
            } else {
                format!("xs:decimal({d})")
            }
        }
        Literal::Double(d) => format!("xs:double({d:E})"),
        other => gen_literal(other),
    }
}

/// String literals are emitted with doubled quotes and XML-escaped `&`
/// so the XQuery scanner's entity handling round-trips the exact value.
fn escape_string_literal(s: &str) -> String {
    escape_text(&s.replace('"', "\"\""))
}
