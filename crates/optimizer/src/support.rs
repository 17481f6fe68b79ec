//! Shared AST machinery for the rewrite rules: mutable FLWOR traversal,
//! variable substitution, and the cardinality model used to order
//! independent `for` clauses. (Free-variable analysis and context-item
//! detection are `aldsp_xquery::visit::{free_vars, uses_context}`, shared
//! with the physical planner.)

use aldsp_catalog::stats::CatalogStats;
use aldsp_xquery::ast::{AttrPart, Clause, Content, ElementCtor, Expr, Flwor, PathStart, Program};
use std::collections::BTreeSet;

/// Pre-order immutable walk over every sub-expression of `expr`,
/// including FLWOR clause bodies and constructor content.
pub fn each_expr(expr: &Expr, f: &mut impl FnMut(&Expr)) {
    f(expr);
    match expr {
        Expr::Literal(_) | Expr::EmptySequence | Expr::VarRef(_) | Expr::ContextItem => {}
        Expr::Sequence(items) => items.iter().for_each(|e| each_expr(e, f)),
        Expr::FunctionCall { args, .. } => args.iter().for_each(|e| each_expr(e, f)),
        Expr::Path { start, steps } => {
            if let PathStart::Expr(e) = &**start {
                each_expr(e, f);
            }
            for step in steps {
                step.predicates.iter().for_each(|e| each_expr(e, f));
            }
        }
        Expr::Filter { base, predicates } => {
            each_expr(base, f);
            predicates.iter().for_each(|e| each_expr(e, f));
        }
        Expr::Flwor(flwor) => {
            for clause in &flwor.clauses {
                match clause {
                    Clause::For { source, .. } => each_expr(source, f),
                    Clause::Let { value, .. } => each_expr(value, f),
                    Clause::Where(p) => each_expr(p, f),
                    Clause::GroupBy(g) => g.keys.iter().for_each(|(k, _)| each_expr(k, f)),
                    Clause::OrderBy(specs) => specs.iter().for_each(|s| each_expr(&s.key, f)),
                }
            }
            each_expr(&flwor.ret, f);
        }
        Expr::If { cond, then, els } => {
            each_expr(cond, f);
            each_expr(then, f);
            each_expr(els, f);
        }
        Expr::Or(a, b) | Expr::And(a, b) => {
            each_expr(a, f);
            each_expr(b, f);
        }
        Expr::GeneralComp { left, right, .. }
        | Expr::ValueComp { left, right, .. }
        | Expr::Arith { left, right, .. } => {
            each_expr(left, f);
            each_expr(right, f);
        }
        Expr::UnaryMinus(inner) => each_expr(inner, f),
        Expr::Quantified {
            source, satisfies, ..
        } => {
            each_expr(source, f);
            each_expr(satisfies, f);
        }
        Expr::Element(ctor) => each_ctor(ctor, f),
    }
}

fn each_ctor(ctor: &ElementCtor, f: &mut impl FnMut(&Expr)) {
    for (_, parts) in &ctor.attributes {
        for part in parts {
            if let AttrPart::Enclosed(e) = part {
                each_expr(e, f);
            }
        }
    }
    for content in &ctor.content {
        match content {
            Content::Text(_) => {}
            Content::Enclosed(e) => each_expr(e, f),
            Content::Element(nested) => each_ctor(nested, f),
        }
    }
}

/// Post-order mutable walk applying `f` to every sub-expression
/// (children first, so rules compose bottom-up).
pub fn each_expr_mut(expr: &mut Expr, f: &mut impl FnMut(&mut Expr)) {
    match expr {
        Expr::Literal(_) | Expr::EmptySequence | Expr::VarRef(_) | Expr::ContextItem => {}
        Expr::Sequence(items) => items.iter_mut().for_each(|e| each_expr_mut(e, f)),
        Expr::FunctionCall { args, .. } => args.iter_mut().for_each(|e| each_expr_mut(e, f)),
        Expr::Path { start, steps } => {
            if let PathStart::Expr(e) = &mut **start {
                each_expr_mut(e, f);
            }
            for step in steps {
                step.predicates.iter_mut().for_each(|e| each_expr_mut(e, f));
            }
        }
        Expr::Filter { base, predicates } => {
            each_expr_mut(base, f);
            predicates.iter_mut().for_each(|e| each_expr_mut(e, f));
        }
        Expr::Flwor(flwor) => {
            for clause in &mut flwor.clauses {
                match clause {
                    Clause::For { source, .. } => each_expr_mut(source, f),
                    Clause::Let { value, .. } => each_expr_mut(value, f),
                    Clause::Where(p) => each_expr_mut(p, f),
                    Clause::GroupBy(g) => g.keys.iter_mut().for_each(|(k, _)| each_expr_mut(k, f)),
                    Clause::OrderBy(specs) => {
                        specs.iter_mut().for_each(|s| each_expr_mut(&mut s.key, f))
                    }
                }
            }
            each_expr_mut(&mut flwor.ret, f);
        }
        Expr::If { cond, then, els } => {
            each_expr_mut(cond, f);
            each_expr_mut(then, f);
            each_expr_mut(els, f);
        }
        Expr::Or(a, b) | Expr::And(a, b) => {
            each_expr_mut(a, f);
            each_expr_mut(b, f);
        }
        Expr::GeneralComp { left, right, .. }
        | Expr::ValueComp { left, right, .. }
        | Expr::Arith { left, right, .. } => {
            each_expr_mut(left, f);
            each_expr_mut(right, f);
        }
        Expr::UnaryMinus(inner) => each_expr_mut(inner, f),
        Expr::Quantified {
            source, satisfies, ..
        } => {
            each_expr_mut(source, f);
            each_expr_mut(satisfies, f);
        }
        Expr::Element(ctor) => each_ctor_mut(ctor, f),
    }
    f(expr);
}

fn each_ctor_mut(ctor: &mut ElementCtor, f: &mut impl FnMut(&mut Expr)) {
    for (_, parts) in &mut ctor.attributes {
        for part in parts {
            if let AttrPart::Enclosed(e) = part {
                each_expr_mut(e, f);
            }
        }
    }
    for content in &mut ctor.content {
        match content {
            Content::Text(_) => {}
            Content::Enclosed(e) => each_expr_mut(e, f),
            Content::Element(nested) => each_ctor_mut(nested, f),
        }
    }
}

/// Applies `f` to every FLWOR in the program body, innermost first.
pub fn for_each_flwor_mut(program: &mut Program, f: &mut impl FnMut(&mut Flwor)) {
    each_expr_mut(&mut program.body, &mut |expr| {
        if let Expr::Flwor(flwor) = expr {
            f(flwor);
        }
    });
}

/// Counts raw references to `$name` (as a `VarRef` or a path start).
/// Callers guarantee `name` is bound exactly once program-wide, so no
/// scope tracking is needed.
pub fn count_var_uses(expr: &Expr, name: &str) -> usize {
    let mut count = 0usize;
    each_expr(expr, &mut |e| match e {
        Expr::VarRef(n) if n == name => count += 1,
        Expr::Path { start, .. } if matches!(&**start, PathStart::Var(n) if n == name) => {
            count += 1
        }
        _ => {}
    });
    count
}

/// Replaces every reference to `$name` with `replacement`. Returns false
/// (leaving `expr` possibly partially examined but unmodified) when a use
/// appears as a path start and the replacement is not itself a variable —
/// the dialect has no parenthesized path-start form to substitute into.
pub fn substitutable(expr: &Expr, name: &str, replacement: &Expr) -> bool {
    if matches!(replacement, Expr::VarRef(_)) {
        return true;
    }
    let mut ok = true;
    each_expr(expr, &mut |e| {
        if let Expr::Path { start, .. } = e {
            if matches!(&**start, PathStart::Var(n) if n == name) {
                ok = false;
            }
        }
    });
    ok
}

/// Substitutes `replacement` for every reference to `$name`. Call
/// [`substitutable`] first.
pub fn substitute_var(expr: &mut Expr, name: &str, replacement: &Expr) {
    each_expr_mut(expr, &mut |e| match e {
        Expr::VarRef(n) if n == name => *e = replacement.clone(),
        Expr::Path { start, .. } => {
            if let PathStart::Var(n) = &**start {
                if n == name {
                    if let Expr::VarRef(new_name) = replacement {
                        **start = PathStart::Var(new_name.clone());
                    }
                }
            }
        }
        _ => {}
    });
}

/// All binder names in the program (with duplicates — a name appearing
/// twice means shadowing is possible and name-keyed rules must not run).
pub fn binding_names(program: &Program) -> Vec<String> {
    let mut names = Vec::new();
    aldsp_xquery::visit::for_each_binding(program, |name, _| names.push(name.to_string()));
    names
}

/// True when `name` is bound exactly once in the whole program — the
/// capture-safety precondition for name-keyed rewrites.
pub fn bound_once(names: &[String], name: &str) -> bool {
    names.iter().filter(|n| *n == name).count() == 1
}

/// Whether re-evaluating `expr` per tuple is worth avoiding: anything
/// containing a nested FLWOR, a filter, or a function call (a data-service
/// scan or a builtin over one). Bare variables, literals, and plain
/// variable-rooted paths are not worth a hoisted `let`.
pub fn is_expensive(expr: &Expr) -> bool {
    let mut expensive = false;
    each_expr(expr, &mut |e| {
        if matches!(
            e,
            Expr::Flwor(_) | Expr::Filter { .. } | Expr::FunctionCall { .. }
        ) {
            expensive = true;
        }
    });
    expensive
}

/// Estimated cardinality of a `for` source, for ordering independent
/// clauses: data-service calls answer from the statistics snapshot
/// (`NAME` of `ns:NAME()`), FLWORs multiply their own `for` sources and
/// halve per `where`, sequences add, everything else is a small constant.
pub fn source_cardinality(expr: &Expr, stats: &CatalogStats) -> f64 {
    match expr {
        Expr::FunctionCall { name, .. } => {
            let local = name.rsplit(':').next().unwrap_or(name);
            stats.rows(local) as f64
        }
        Expr::Filter { base, predicates } => {
            source_cardinality(base, stats) * 0.5f64.powi(predicates.len() as i32)
        }
        Expr::Path { start, .. } => match &**start {
            PathStart::Expr(e) => source_cardinality(e, stats),
            _ => 8.0,
        },
        Expr::Sequence(items) => items.iter().map(|e| source_cardinality(e, stats)).sum(),
        Expr::Flwor(f) => {
            let mut card = 1.0f64;
            for clause in &f.clauses {
                match clause {
                    Clause::For { source, .. } => card *= source_cardinality(source, stats),
                    Clause::Where(_) => card *= 0.5,
                    _ => {}
                }
            }
            card
        }
        Expr::Literal(_) => 1.0,
        Expr::EmptySequence => 0.0,
        _ => 8.0,
    }
}

/// Splits an `and` tree into its conjuncts.
pub fn split_conjuncts(expr: Expr, out: &mut Vec<Expr>) {
    match expr {
        Expr::And(a, b) => {
            split_conjuncts(*a, out);
            split_conjuncts(*b, out);
        }
        other => out.push(other),
    }
}

/// The set of variables bound by any clause of `flwor` (at any position).
pub fn flwor_bound_vars(flwor: &Flwor) -> BTreeSet<String> {
    let mut vars = BTreeSet::new();
    for clause in &flwor.clauses {
        match clause {
            Clause::For { var, .. } | Clause::Let { var, .. } => {
                vars.insert(var.clone());
            }
            Clause::GroupBy(g) => {
                vars.insert(g.partition_var.clone());
                for (_, var) in &g.keys {
                    vars.insert(var.clone());
                }
            }
            Clause::Where(_) | Clause::OrderBy(_) => {}
        }
    }
    vars
}
