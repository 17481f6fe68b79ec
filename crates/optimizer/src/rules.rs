//! The one rewrite rule, `invariant_hoist`, and the AST helpers it uses.
//! The rule is a pure AST transform; the engine in `lib.rs` prices and
//! safety-gates its application, so it only has to be *plausibly* sound —
//! an instance that diverges is refused by the gate, never executed. (The
//! traversals themselves, free-variable analysis and context-item
//! detection are `aldsp_xquery::visit`, shared with the physical planner
//! and the mutation harness.)

use aldsp_xquery::ast::{Clause, Expr, Flwor, Program};
use aldsp_xquery::visit::{each_expr, each_expr_mut, for_each_binding, free_vars, uses_context};
use std::collections::BTreeSet;

/// P008: hoists loop-invariant work out of per-tuple scope. Two shapes:
/// a `for` source past the first clause (re-evaluated once per upstream
/// tuple by the evaluator) and a quantifier source inside a `where`
/// (re-evaluated per tuple) move into a `let` at clause position 0 —
/// evaluated exactly once — when they reference no variable bound by the
/// FLWOR, never use the context item, and are expensive enough to matter.
/// Hoisted bindings are named in the `HX` zone of the paper's
/// `var<ctx><zone><n>` discipline (`var0HX1`, ...). Returns a description
/// of what moved, or `None` (the program untouched) when nothing did.
pub(crate) fn invariant_hoist(program: &mut Program) -> Option<String> {
    let mut names = binding_names(program);
    let mut counter = 0usize;
    let mut hoisted = 0usize;
    for_each_flwor_mut(program, &mut |flwor| {
        let bound = flwor_bound_vars(flwor);
        let mut hoists: Vec<Clause> = Vec::new();
        let mut fresh = |names: &mut BTreeSet<String>| loop {
            counter += 1;
            let name = format!("var0HX{counter}");
            if names.insert(name.clone()) {
                return name;
            }
        };
        // A `group by` reshapes the tuple stream; whether earlier
        // bindings survive it is the evaluator's business, so hoisted
        // lets never serve clauses past the first group clause.
        let barrier = flwor
            .clauses
            .iter()
            .position(|c| matches!(c, Clause::GroupBy(_)))
            .unwrap_or(usize::MAX);
        for (i, clause) in flwor.clauses.iter_mut().enumerate() {
            if i >= barrier {
                break;
            }
            match clause {
                Clause::For { source, .. }
                    if i > 0
                        && is_expensive(source)
                        && !uses_context(source)
                        && free_vars(source).is_disjoint(&bound) =>
                {
                    let name = fresh(&mut names);
                    let value = std::mem::replace(source, Expr::VarRef(name.clone()));
                    hoists.push(Clause::Let { var: name, value });
                    hoisted += 1;
                }
                Clause::Where(predicate) => {
                    each_expr_mut(predicate, &mut |e| {
                        if let Expr::Quantified { source, .. } = e {
                            if is_expensive(source)
                                && !uses_context(source)
                                && free_vars(source).is_disjoint(&bound)
                            {
                                let name = fresh(&mut names);
                                let value =
                                    std::mem::replace(&mut **source, Expr::VarRef(name.clone()));
                                hoists.push(Clause::Let { var: name, value });
                                hoisted += 1;
                            }
                        }
                    });
                }
                _ => {}
            }
        }
        if !hoists.is_empty() {
            flwor.clauses.splice(0..0, hoists);
        }
    });
    (hoisted > 0).then(|| format!("hoisted {hoisted} loop-invariant source(s) to let"))
}

/// Applies `f` to every FLWOR in the program body, innermost first.
fn for_each_flwor_mut(program: &mut Program, f: &mut impl FnMut(&mut Flwor)) {
    each_expr_mut(&mut program.body, &mut |expr| {
        if let Expr::Flwor(flwor) = expr {
            f(flwor);
        }
    });
}

/// All binder names in the program, so a hoisted binding's fresh name
/// can shadow nothing.
fn binding_names(program: &Program) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for_each_binding(program, |name, _| {
        names.insert(name.to_string());
    });
    names
}

/// Whether re-evaluating `expr` per tuple is worth avoiding: anything
/// containing a nested FLWOR, a filter, or a function call (a data-service
/// scan or a builtin over one). Bare variables, literals, and plain
/// variable-rooted paths are not worth a hoisted `let`.
fn is_expensive(expr: &Expr) -> bool {
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

/// The set of variables bound by any clause of `flwor` (at any position).
fn flwor_bound_vars(flwor: &Flwor) -> BTreeSet<String> {
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
