//! Shared AST machinery for the rewrite rules: variable substitution and
//! the cardinality model used to order independent `for` clauses. (The
//! traversals themselves, free-variable analysis and context-item
//! detection are `aldsp_xquery::visit`, shared with the physical planner
//! and the mutation harness.)

use aldsp_catalog::stats::CatalogStats;
use aldsp_xquery::ast::{Clause, Expr, Flwor, PathStart, Program};
use aldsp_xquery::visit::{each_expr, each_expr_mut};
use std::collections::BTreeSet;

/// Applies `f` to every FLWOR in the program body, innermost first.
pub fn for_each_flwor_mut(program: &mut Program, f: &mut impl FnMut(&mut Flwor)) {
    each_expr_mut(&mut program.body, &mut |expr| {
        if let Expr::Flwor(flwor) = expr {
            f(flwor);
        }
    });
}

/// True when `e` is itself a path rooted at `$name`.
pub(crate) fn is_path_from(e: &Expr, name: &str) -> bool {
    matches!(e, Expr::Path { start, .. } if matches!(&**start, PathStart::Var(n) if n == name))
}

/// True when `e` is itself a reference to `$name` (a `VarRef` or a path
/// start).
pub(crate) fn is_var_use(e: &Expr, name: &str) -> bool {
    matches!(e, Expr::VarRef(n) if n == name) || is_path_from(e, name)
}

/// Counts raw references to `$name` (as a `VarRef` or a path start).
/// Callers guarantee `name` is bound exactly once program-wide, so no
/// scope tracking is needed.
pub fn count_var_uses(expr: &Expr, name: &str) -> usize {
    let mut count = 0usize;
    each_expr(expr, &mut |e| count += usize::from(is_var_use(e, name)));
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
    each_expr(expr, &mut |e| ok &= !is_path_from(e, name));
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
