//! The rewrite rules. Each rule is a pure AST transform keyed to the
//! layer-4 performance lint it discharges; the engine in `lib.rs` prices
//! and safety-gates every application, so rules here only have to be
//! *plausibly* sound — a rule whose instance diverges is refused by the
//! gate, never executed.

use crate::support::*;
use aldsp_catalog::stats::CatalogStats;
use aldsp_core::ir::{PreparedBody, Rsn, TExprKind};
use aldsp_core::{OptimizeLevel, PreparedQuery};
use aldsp_xquery::ast::{Clause, Expr, Program};
use aldsp_xquery::visit::{
    each_clause_expr, each_expr, each_expr_mut, free_vars, uses_context, walk_clause_mut,
};
use std::collections::BTreeSet;

/// Everything a rule may consult.
pub struct RuleContext<'a> {
    /// The stage-2 IR the program was generated from.
    pub prepared: &'a PreparedQuery,
    /// Statistics for cardinality and uniqueness decisions.
    pub stats: &'a CatalogStats,
    /// Requested aggressiveness.
    pub level: OptimizeLevel,
}

/// One rewrite rule.
pub struct Rule {
    /// Stable rule name, shown in traces.
    pub name: &'static str,
    /// The layer-4 lint the rule discharges.
    pub lint: &'static str,
    /// The transform: mutates the program in place and returns a
    /// description of what changed, or `None` when nothing applied.
    pub apply: fn(&mut Program, &RuleContext) -> Option<String>,
}

/// The rule pipeline, in application order: structural reorders first
/// (they change which clause is innermost), then the redundancy
/// eliminations, then pushdown/hoisting over the settled clause order,
/// then the `let` cleanups over whatever the other rules left behind.
pub const PIPELINE: &[Rule] = &[
    Rule {
        name: "join_reorder",
        lint: "P001/P007",
        apply: join_reorder,
    },
    Rule {
        name: "distinct_elimination",
        lint: "P003",
        apply: distinct_elimination,
    },
    Rule {
        name: "orderby_prune",
        lint: "P004",
        apply: orderby_prune,
    },
    Rule {
        name: "predicate_pushdown",
        lint: "P002",
        apply: predicate_pushdown,
    },
    Rule {
        name: "invariant_hoist",
        lint: "P008",
        apply: invariant_hoist,
    },
    Rule {
        name: "let_inline",
        lint: "A103",
        apply: let_inline,
    },
    Rule {
        name: "dead_let_elimination",
        lint: "A103",
        apply: dead_let_elimination,
    },
];

/// P001/P007: reorders a leading run of *independent* `for` clauses by
/// ascending estimated cardinality, so the cheapest stream drives the
/// nested loop and larger sources are re-evaluated fewer times. Sound
/// only up to row order, so it requires [`OptimizeLevel::Full`] and a
/// query with no ORDER BY anywhere (SQL leaves such row order
/// unspecified; the layer-5 validator compares bags for these queries).
fn join_reorder(program: &mut Program, cx: &RuleContext) -> Option<String> {
    if cx.level < OptimizeLevel::Full || !cx.prepared.order_by.is_empty() {
        return None;
    }
    let mut has_order_by = false;
    each_expr(&program.body, &mut |e| {
        if let Expr::Flwor(f) = e {
            if f.clauses.iter().any(|c| matches!(c, Clause::OrderBy(_))) {
                has_order_by = true;
            }
        }
    });
    if has_order_by {
        return None;
    }
    let mut notes: Vec<String> = Vec::new();
    let stats = cx.stats;
    for_each_flwor_mut(program, &mut |flwor| {
        if flwor
            .clauses
            .iter()
            .any(|c| matches!(c, Clause::GroupBy(_)))
        {
            return;
        }
        let bound = flwor_bound_vars(flwor);
        let mut k = 0;
        while k < flwor.clauses.len() && matches!(flwor.clauses[k], Clause::For { .. }) {
            k += 1;
        }
        if k < 2 {
            return;
        }
        let independent = flwor.clauses[..k].iter().all(|c| {
            let Clause::For { source, .. } = c else {
                return false;
            };
            !uses_context(source) && free_vars(source).is_disjoint(&bound)
        });
        if !independent {
            return;
        }
        let mut order: Vec<usize> = (0..k).collect();
        order.sort_by(|&a, &b| {
            let card = |i: usize| {
                let Clause::For { source, .. } = &flwor.clauses[i] else {
                    unreachable!("leading run is all for clauses");
                };
                source_cardinality(source, stats)
            };
            card(a)
                .partial_cmp(&card(b))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        if order.iter().enumerate().all(|(i, &o)| i == o) {
            return;
        }
        let mut run: Vec<Option<Clause>> = flwor.clauses.drain(..k).map(Some).collect();
        let reordered: Vec<Clause> = order
            .iter()
            .map(|&o| run[o].take().expect("each index used once"))
            .collect();
        let vars: Vec<String> = reordered
            .iter()
            .filter_map(|c| match c {
                Clause::For { var, .. } => Some(var.clone()),
                _ => None,
            })
            .collect();
        for clause in reordered.into_iter().rev() {
            flwor.clauses.insert(0, clause);
        }
        notes.push(format!(
            "reordered {k} independent for clauses by ascending cardinality ({})",
            vars.join(", ")
        ));
    });
    if notes.is_empty() {
        None
    } else {
        Some(notes.join("; "))
    }
}

/// P003: removes `fn-bea:distinct-records(...)` when the prepared query
/// is a non-grouped single-table DISTINCT select projecting a
/// declared-unique column — every row is already distinct, so the
/// de-duplication pass (a full sort/hash of the result) is pure waste.
/// Requires exactly one such call in the program so the rewrite cannot
/// touch a set-operation's de-duplication by accident.
fn distinct_elimination(program: &mut Program, cx: &RuleContext) -> Option<String> {
    let PreparedBody::Select(select) = &cx.prepared.body else {
        return None;
    };
    if !select.distinct || select.grouped || select.from.len() != 1 {
        return None;
    }
    let Rsn::Table { entry, .. } = &select.from[0] else {
        return None;
    };
    let table = &entry.schema.table_name;
    let unique_column = select.items.iter().find_map(|item| {
        if let TExprKind::Column { column, .. } = &item.expr.kind {
            if cx.stats.column(table, column).unique {
                return Some(column.clone());
            }
        }
        None
    })?;
    let mut calls = 0usize;
    each_expr(&program.body, &mut |e| {
        if matches!(e, Expr::FunctionCall { name, .. } if name == "fn-bea:distinct-records") {
            calls += 1;
        }
    });
    if calls != 1 {
        return None;
    }
    let mut replaced = false;
    each_expr_mut(&mut program.body, &mut |e| {
        if let Expr::FunctionCall { name, args } = e {
            if name == "fn-bea:distinct-records" && args.len() == 1 {
                *e = args.pop().expect("one argument");
                replaced = true;
            }
        }
    });
    replaced.then(|| {
        format!("removed distinct-records: projected {table}.{unique_column} is declared unique")
    })
}

/// P004: truncates an `order by` to its leading key when that key is a
/// declared-unique column of a single-table query — ties cannot occur,
/// so the remaining key evaluations (and their casts) per row are dead
/// work. Mirrors the layer-4 `check_order_by` conditions exactly.
fn orderby_prune(program: &mut Program, cx: &RuleContext) -> Option<String> {
    let query = cx.prepared;
    if query.order_by.len() < 2 {
        return None;
    }
    let PreparedBody::Select(select) = &query.body else {
        return None;
    };
    if select.from.len() != 1 || select.from[0].range_vars().len() != 1 {
        return None;
    }
    let first = query.order_by[0].column;
    let item = select.items.iter().find(|i| i.output == first)?;
    let Rsn::Table { range_var, entry } = &select.from[0] else {
        return None;
    };
    let TExprKind::Column {
        range_var: col_rv,
        column,
    } = &item.expr.kind
    else {
        return None;
    };
    if col_rv != range_var || !cx.stats.column(&entry.schema.table_name, column).unique {
        return None;
    }
    // The one order-by clause with the full key count is the statement's;
    // anything else (e.g. a subquery's) is left alone.
    let want = query.order_by.len();
    let mut sites = 0usize;
    each_expr(&program.body, &mut |e| {
        if let Expr::Flwor(f) = e {
            for clause in &f.clauses {
                if matches!(clause, Clause::OrderBy(specs) if specs.len() == want) {
                    sites += 1;
                }
            }
        }
    });
    if sites != 1 {
        return None;
    }
    let mut pruned = 0usize;
    for_each_flwor_mut(program, &mut |flwor| {
        for clause in &mut flwor.clauses {
            if let Clause::OrderBy(specs) = clause {
                if specs.len() == want {
                    pruned = specs.len() - 1;
                    specs.truncate(1);
                }
            }
        }
    });
    (pruned > 0).then(|| {
        format!("pruned {pruned} order-by key(s) after unique leading key {col_rv}.{column}")
    })
}

/// P002: splits each `where` into its conjuncts and anchors every
/// conjunct immediately after the last clause binding any variable it
/// needs, so predicates filter the tuple stream before later `for`
/// clauses multiply it. Conjuncts never move across a `group by` or
/// `order by` (those reshape the stream), and never out of their FLWOR.
fn predicate_pushdown(program: &mut Program, _cx: &RuleContext) -> Option<String> {
    let mut moved = 0usize;
    for_each_flwor_mut(program, &mut |flwor| {
        let len = flwor.clauses.len();
        // Variables bound at each clause index, and the barrier indices a
        // predicate may not cross.
        let binder_of: Vec<Vec<String>> = flwor
            .clauses
            .iter()
            .map(|c| match c {
                Clause::For { var, .. } | Clause::Let { var, .. } => vec![var.clone()],
                Clause::GroupBy(g) => {
                    let mut v = vec![g.partition_var.clone()];
                    v.extend(g.keys.iter().map(|(_, var)| var.clone()));
                    v
                }
                _ => Vec::new(),
            })
            .collect();
        let mut wants_move = false;
        let target_of = |conjunct: &Expr, index: usize| -> usize {
            if uses_context(conjunct) {
                return index;
            }
            let needed = free_vars(conjunct);
            let mut target = 0usize;
            for (j, vars) in binder_of.iter().enumerate().take(index) {
                if vars.iter().any(|v| needed.contains(v)) {
                    target = j + 1;
                }
                if matches!(flwor.clauses[j], Clause::GroupBy(_) | Clause::OrderBy(_)) {
                    target = target.max(j + 1);
                }
            }
            target
        };
        for (i, clause) in flwor.clauses.iter().enumerate() {
            if let Clause::Where(predicate) = clause {
                let mut conjuncts = Vec::new();
                split_conjuncts(predicate.clone(), &mut conjuncts);
                if conjuncts.iter().any(|c| target_of(c, i) < i) {
                    wants_move = true;
                }
            }
        }
        if !wants_move {
            return;
        }
        // slot[p] holds the pushed conjuncts that go immediately before
        // the original clause at index p.
        let mut slots: Vec<Vec<Expr>> = vec![Vec::new(); len + 1];
        let mut kept: Vec<Option<Clause>> = Vec::with_capacity(len);
        for (i, clause) in flwor.clauses.iter().enumerate() {
            match clause {
                Clause::Where(predicate) => {
                    let mut conjuncts = Vec::new();
                    split_conjuncts(predicate.clone(), &mut conjuncts);
                    for conjunct in conjuncts {
                        let target = target_of(&conjunct, i);
                        if target < i {
                            moved += 1;
                        }
                        slots[target.min(i)].push(conjunct);
                    }
                    kept.push(None);
                }
                other => kept.push(Some(other.clone())),
            }
        }
        let mut rebuilt = Vec::with_capacity(len + moved);
        for (p, clause) in kept.into_iter().enumerate() {
            rebuilt.extend(slots[p].drain(..).map(Clause::Where));
            if let Some(clause) = clause {
                rebuilt.push(clause);
            }
        }
        rebuilt.extend(slots[len].drain(..).map(Clause::Where));
        flwor.clauses = rebuilt;
    });
    (moved > 0).then(|| format!("pushed {moved} where conjunct(s) to their binding clause"))
}

/// P008: hoists loop-invariant work out of per-tuple scope. Two shapes:
/// a `for` source past the first clause (re-evaluated once per upstream
/// tuple by the evaluator) and a quantifier source inside a `where`
/// (re-evaluated per tuple) move into a `let` at clause position 0 —
/// evaluated exactly once — when they reference no variable bound by the
/// FLWOR, never use the context item, and are expensive enough to matter.
/// Hoisted bindings are named in the `HX` zone of the paper's
/// `var<ctx><zone><n>` discipline (`var0HX1`, ...).
fn invariant_hoist(program: &mut Program, _cx: &RuleContext) -> Option<String> {
    let mut names: BTreeSet<String> = binding_names(program).into_iter().collect();
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

/// True when `clause` is a `group` clause partitioning `$name` (a name
/// use that is not an expression).
fn groups(clause: &Clause, name: &str) -> bool {
    matches!(clause, Clause::GroupBy(g) if g.source_var == name)
}

/// Uses of `$name` across a clause, a `group` clause's source variable
/// included.
fn clause_uses(clause: &Clause, name: &str) -> usize {
    let mut uses = usize::from(groups(clause, name));
    each_clause_expr(clause, &mut |e| uses += usize::from(is_var_use(e, name)));
    uses
}

/// [`substitutable`] across a clause: a `group` clause's source variable
/// can only become another variable.
fn clause_substitutable(clause: &Clause, name: &str, replacement: &Expr) -> bool {
    if matches!(replacement, Expr::VarRef(_)) {
        return true;
    }
    let mut ok = !groups(clause, name);
    each_clause_expr(clause, &mut |e| ok &= !is_path_from(e, name));
    ok
}

fn substitute_in_clause(clause: &mut Clause, name: &str, replacement: &Expr) {
    walk_clause_mut(clause, &mut |e| substitute_var(e, name, replacement));
    if let (Clause::GroupBy(g), Expr::VarRef(new_name)) = (clause, replacement) {
        if g.source_var == name {
            g.source_var = new_name.clone();
        }
    }
}

/// A103 (as a fix): inlines `let $v := <trivial>` — a bare variable or
/// literal — into its uses and drops the binding. Capture safety is by
/// global name uniqueness: the rule only runs when `$v` and every
/// variable the value references are bound exactly once program-wide, so
/// no substitution can be captured by a shadowing binder.
fn let_inline(program: &mut Program, _cx: &RuleContext) -> Option<String> {
    let names = binding_names(program);
    let mut inlined: Vec<String> = Vec::new();
    for_each_flwor_mut(program, &mut |flwor| {
        let mut i = 0;
        while i < flwor.clauses.len() {
            let Clause::Let { var, value } = &flwor.clauses[i] else {
                i += 1;
                continue;
            };
            let trivial = matches!(value, Expr::VarRef(_) | Expr::Literal(_));
            let capture_safe =
                bound_once(&names, var) && free_vars(value).iter().all(|v| bound_once(&names, v));
            if !trivial || !capture_safe {
                i += 1;
                continue;
            }
            let var = var.clone();
            let value = value.clone();
            let uses: usize = flwor.clauses[i + 1..]
                .iter()
                .map(|c| clause_uses(c, &var))
                .sum::<usize>()
                + count_var_uses(&flwor.ret, &var);
            let substitutable_everywhere = flwor.clauses[i + 1..]
                .iter()
                .all(|c| clause_substitutable(c, &var, &value))
                && substitutable(&flwor.ret, &var, &value);
            if uses == 0 || !substitutable_everywhere {
                i += 1;
                continue;
            }
            for clause in &mut flwor.clauses[i + 1..] {
                substitute_in_clause(clause, &var, &value);
            }
            substitute_var(&mut flwor.ret, &var, &value);
            flwor.clauses.remove(i);
            inlined.push(var);
        }
    });
    (!inlined.is_empty()).then(|| format!("inlined trivial let(s) ${}", inlined.join(", $")))
}

/// A103 (as a fix): removes `let` bindings with zero references in the
/// rest of their FLWOR — each was still evaluated once per tuple. Global
/// name uniqueness again guards the use count.
fn dead_let_elimination(program: &mut Program, _cx: &RuleContext) -> Option<String> {
    let names = binding_names(program);
    let mut removed: Vec<String> = Vec::new();
    for_each_flwor_mut(program, &mut |flwor| {
        let mut i = 0;
        while i < flwor.clauses.len() {
            let Clause::Let { var, .. } = &flwor.clauses[i] else {
                i += 1;
                continue;
            };
            if !bound_once(&names, var) {
                i += 1;
                continue;
            }
            let var = var.clone();
            let uses: usize = flwor.clauses[i + 1..]
                .iter()
                .map(|c| clause_uses(c, &var))
                .sum::<usize>()
                + count_var_uses(&flwor.ret, &var);
            if uses == 0 {
                flwor.clauses.remove(i);
                removed.push(var);
            } else {
                i += 1;
            }
        }
    });
    (!removed.is_empty()).then(|| format!("removed dead let(s) ${}", removed.join(", $")))
}
