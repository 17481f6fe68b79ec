//! Seeded mutation of generated XQuery, for measuring the layer-5
//! validator's kill rate (harness E11).
//!
//! A validator that never fires on real translations proves nothing by
//! itself — it must also *refute* wrong translations. This module
//! manufactures wrong ones systematically: parse a generated query,
//! perturb the AST in one targeted, semantics-breaking way, serialize it
//! back (`aldsp_xquery::unparse`), and hand the mutant to the validator.
//! Each [`MutationClass`] models a plausible translator bug:
//!
//! * [`SwapComparison`](MutationClass::SwapComparison) — a predicate
//!   translated with the wrong operator (§3.5 (ii)'s comparison
//!   mapping): `=`↔`!=`, `<`↔`<=`, `>`↔`>=`. Strict-vs-inclusive swaps
//!   are only observable on boundary values, which the witness
//!   enumerator seeds from the query's own literals.
//! * [`DropWhere`](MutationClass::DropWhere) — a lost WHERE/HAVING:
//!   remove one `where` clause.
//! * [`ReorderFlwor`](MutationClass::ReorderFlwor) — zone discipline
//!   broken (§3.5 (iv)): hoist a later `where` clause to just after its
//!   FLWOR's leading clause, ahead of a `for`/`let`/`group` binding it
//!   depends on (the mutant still parses but evaluates an unbound
//!   variable).
//! * [`DropOuterPad`](MutationClass::DropOuterPad) — outer-join NULL
//!   padding lost (§3.4.2): replace an
//!   `if (fn:empty(...)) then <pad> else <matched>` with its matched
//!   branch only.
//! * [`FlipOrderDirection`](MutationClass::FlipOrderDirection) —
//!   ascending/descending inverted on an `order by` key.
//! * [`BadPushdown`](MutationClass::BadPushdown) — predicate pushdown
//!   overshooting its anchor: a rewriter that places a pushed `where`
//!   *at* the index of the last clause binding one of its variables
//!   instead of *after* it. On an outer-join translation the `where`
//!   lands above the `for` that expands the padded view — the predicate
//!   crosses the NULL-padding boundary (§3.4.2) and evaluates an
//!   unbound variable.
//! * [`UnsoundLetInline`](MutationClass::UnsoundLetInline) — a
//!   capture-unaware `let` inliner: the binding is removed and its value
//!   substituted into every use, but one free variable of the value is
//!   resolved against the wrong (shadowing) binder. The mutant is
//!   lint-clean — every variable still binds — and silently computes
//!   from the wrong row.
//!
//! Mutants are enumerated deterministically (pre-order site order, one
//! mutation per mutant), so a harness run is reproducible without any
//! RNG.

use aldsp_xquery::ast::{Clause, CompOp, Expr, PathStart, Program};
use aldsp_xquery::visit::{
    each_expr_mut, walk_clause, walk_clause_mut, walk_expr, walk_expr_mut, Visitor,
};
use aldsp_xquery::{parse_program, unparse_program};

/// One family of seeded translator bugs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MutationClass {
    /// Swap a comparison operator with its boundary neighbour.
    SwapComparison,
    /// Remove one `where` clause.
    DropWhere,
    /// Hoist a non-leading `where` clause to the front of its FLWOR.
    ReorderFlwor,
    /// Replace an `if (fn:empty(...))` padding conditional with its
    /// else branch.
    DropOuterPad,
    /// Toggle `descending` on an `order by` key.
    FlipOrderDirection,
    /// Move a `where` to the index of (not after) its last binder.
    BadPushdown,
    /// Inline a `let`, resolving one free variable of its value against
    /// a different in-scope binder.
    UnsoundLetInline,
}

impl MutationClass {
    /// Every class, in a stable order.
    pub fn all() -> [MutationClass; 7] {
        [
            MutationClass::SwapComparison,
            MutationClass::DropWhere,
            MutationClass::ReorderFlwor,
            MutationClass::DropOuterPad,
            MutationClass::FlipOrderDirection,
            MutationClass::BadPushdown,
            MutationClass::UnsoundLetInline,
        ]
    }

    /// Stable identifier used in reports.
    pub fn name(self) -> &'static str {
        match self {
            MutationClass::SwapComparison => "swap_comparison",
            MutationClass::DropWhere => "drop_where",
            MutationClass::ReorderFlwor => "reorder_flwor",
            MutationClass::DropOuterPad => "drop_outer_pad",
            MutationClass::FlipOrderDirection => "flip_order_direction",
            MutationClass::BadPushdown => "bad_pushdown",
            MutationClass::UnsoundLetInline => "unsound_let_inline",
        }
    }
}

/// One corrupted translation.
#[derive(Debug, Clone)]
pub struct Mutant {
    /// Which bug family produced it.
    pub class: MutationClass,
    /// Human-readable description of the specific site mutated.
    pub description: String,
    /// The corrupted query text.
    pub xquery: String,
}

/// Enumerates every applicable single-site mutant of `xquery_text`.
/// Unparsable text yields no mutants. Mutants whose serialized text
/// equals the original (a self-inverse site, e.g. reordering a `where`
/// already in front) are dropped.
pub fn mutants_for(xquery_text: &str) -> Vec<Mutant> {
    let Ok(program) = parse_program(xquery_text) else {
        return Vec::new();
    };
    let original = unparse_program(&program);
    let mut mutants = Vec::new();
    for class in MutationClass::all() {
        let sites = {
            let mut probe = program.clone();
            let mut counter = 0usize;
            mutate_program(&mut probe, class, usize::MAX, &mut counter);
            counter
        };
        for site in 0..sites {
            let mut mutated = program.clone();
            let mut counter = 0usize;
            if !mutate_program(&mut mutated, class, site, &mut counter) {
                continue;
            }
            let text = unparse_program(&mutated);
            if text == original {
                continue;
            }
            mutants.push(Mutant {
                class,
                description: format!("{} at site {site}", class.name()),
                xquery: text,
            });
        }
    }
    mutants
}

/// Applies `class` at the `target`-th site (pre-order), counting sites
/// into `counter` along the way. Returns true once a mutation happened.
fn mutate_program(
    program: &mut Program,
    class: MutationClass,
    target: usize,
    counter: &mut usize,
) -> bool {
    mutate_expr(&mut program.body, class, target, counter)
}

fn mutate_expr(expr: &mut Expr, class: MutationClass, target: usize, counter: &mut usize) -> bool {
    // Site checks at this node first (pre-order).
    match (&class, &mut *expr) {
        (MutationClass::SwapComparison, Expr::GeneralComp { op, .. })
        | (MutationClass::SwapComparison, Expr::ValueComp { op, .. })
            if bump(counter, target) =>
        {
            *op = swap_comp(*op);
            return true;
        }
        (MutationClass::DropOuterPad, Expr::If { cond, els, .. }) => {
            let is_empty_guard = matches!(
                &**cond,
                Expr::FunctionCall { name, .. } if name == "fn:empty" || name == "empty"
            );
            if is_empty_guard && bump(counter, target) {
                *expr = (**els).clone();
                // The replacement subtree still gets walked by the
                // caller's recursion below only via a fresh traversal;
                // returning here keeps this a single-site mutation.
                return true;
            }
        }
        _ => {}
    }

    // FLWOR clause-level sites.
    if let Expr::Flwor(flwor) = expr {
        match class {
            MutationClass::DropWhere => {
                let wheres: Vec<usize> = flwor
                    .clauses
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| matches!(c, Clause::Where(_)))
                    .map(|(i, _)| i)
                    .collect();
                for i in wheres {
                    if bump(counter, target) {
                        flwor.clauses.remove(i);
                        return true;
                    }
                }
            }
            MutationClass::ReorderFlwor => {
                // A `where` is only a reorder site when hoisting it to
                // just after the leading clause moves it ahead of a
                // clause that binds one of its variables: the mutant
                // still parses (the FLWOR keeps its leading `for`/`let`)
                // but evaluates an unbound variable. Independent
                // `where`s are skipped — moving them is semantically
                // neutral and would dilute the kill-rate measurement.
                let sites: Vec<usize> = flwor
                    .clauses
                    .iter()
                    .enumerate()
                    .filter(|(i, c)| {
                        let Clause::Where(cond) = c else { return false };
                        *i >= 2 && {
                            let mut used = Vec::new();
                            collect_var_refs(cond, &mut used);
                            flwor.clauses[1..*i]
                                .iter()
                                .any(|b| binder_vars(b).iter().any(|v| used.iter().any(|u| u == v)))
                        }
                    })
                    .map(|(i, _)| i)
                    .collect();
                for i in sites {
                    if bump(counter, target) {
                        let clause = flwor.clauses.remove(i);
                        flwor.clauses.insert(1, clause);
                        return true;
                    }
                }
            }
            MutationClass::FlipOrderDirection => {
                for clause in &mut flwor.clauses {
                    if let Clause::OrderBy(specs) = clause {
                        for spec in specs.iter_mut() {
                            if bump(counter, target) {
                                spec.descending = !spec.descending;
                                return true;
                            }
                        }
                    }
                }
            }
            MutationClass::BadPushdown => {
                // The optimizer's pushdown anchors a conjunct *after* the
                // last clause binding one of its variables; the seeded
                // bug inserts *at* that index — one clause too early.
                // Sites need the last binder at index >= 1 so the FLWOR
                // keeps its leading clause (the mutant must still parse).
                let sites: Vec<(usize, usize)> = flwor
                    .clauses
                    .iter()
                    .enumerate()
                    .filter_map(|(i, c)| {
                        let Clause::Where(cond) = c else { return None };
                        let mut used = Vec::new();
                        collect_var_refs(cond, &mut used);
                        let last_binder = flwor.clauses[..i].iter().rposition(|b| {
                            binder_vars(b).iter().any(|v| used.iter().any(|u| u == v))
                        })?;
                        (last_binder >= 1).then_some((i, last_binder))
                    })
                    .collect();
                for (i, j) in sites {
                    if bump(counter, target) {
                        let clause = flwor.clauses.remove(i);
                        flwor.clauses.insert(j, clause);
                        return true;
                    }
                }
            }
            MutationClass::UnsoundLetInline => {
                if let Some(site) = unsound_inline_sites(flwor)
                    .into_iter()
                    .find(|_| bump(counter, target))
                {
                    apply_unsound_inline(flwor, site);
                    return true;
                }
            }
            _ => {}
        }
    }

    // Recurse into children, stopping at the first that mutated.
    let mut done = false;
    walk_expr_mut(expr, &mut |child| {
        done = done || mutate_expr(child, class, target, counter);
    });
    done
}

/// An `UnsoundLetInline` site: the `let` at clause index `.0`, whose
/// value's free variable `.1` gets resolved against binder `.2`.
type InlineSite = (usize, String, String);

/// Enumerates the eligible (let, misresolved var, wrong binder) triples
/// of one FLWOR, in stable order. A site needs the `let`'s value to
/// reference a variable, the `let` variable to be used after the
/// binding (so inlining actually lands somewhere), never as a `group`
/// source (which syntactically requires a variable), and a *different*
/// binder among the preceding clauses to capture the reference.
fn unsound_inline_sites(flwor: &aldsp_xquery::ast::Flwor) -> Vec<InlineSite> {
    let mut sites = Vec::new();
    for (i, clause) in flwor.clauses.iter().enumerate() {
        let Clause::Let { var: w, value } = clause else {
            continue;
        };
        let grouped_on = flwor.clauses[i + 1..]
            .iter()
            .any(|c| matches!(c, Clause::GroupBy(g) if g.source_var == *w));
        if grouped_on {
            continue;
        }
        let mut used_after = Vec::new();
        for later in &flwor.clauses[i + 1..] {
            VarRefs(&mut used_after).visit_clause(later);
        }
        collect_var_refs(&flwor.ret, &mut used_after);
        if !used_after.iter().any(|u| u == w) {
            continue;
        }
        let mut free: Vec<String> = Vec::new();
        for v in {
            let mut refs = Vec::new();
            collect_var_refs(value, &mut refs);
            refs
        } {
            if !free.contains(&v) {
                free.push(v);
            }
        }
        let mut binders: Vec<&str> = Vec::new();
        for earlier in &flwor.clauses[..i] {
            for v in binder_vars(earlier) {
                if !binders.contains(&v) {
                    binders.push(v);
                }
            }
        }
        for u in &free {
            for z in &binders {
                if z != u && *z != w {
                    sites.push((i, u.clone(), z.to_string()));
                }
            }
        }
    }
    sites
}

/// Applies one [`unsound_inline_sites`] triple: rename `u` to `z`
/// inside the value, delete the `let`, substitute the misresolved value
/// into every remaining use.
fn apply_unsound_inline(flwor: &mut aldsp_xquery::ast::Flwor, (i, u, z): InlineSite) {
    let Clause::Let { var: w, mut value } = flwor.clauses.remove(i) else {
        unreachable!("site enumeration only yields let clauses");
    };
    rename_var(&mut value, &u, &z);
    for clause in &mut flwor.clauses[i..] {
        walk_clause_mut(clause, &mut |e| substitute_uses(e, &w, &value));
    }
    substitute_uses(&mut flwor.ret, &w, &value);
}

/// Renames every reference to `$from` (as a variable or a path start)
/// to `$to`, descending into nested scopes (generated names are unique,
/// so no nested binder can legitimately re-bind `from`).
fn rename_var(expr: &mut Expr, from: &str, to: &str) {
    each_expr_mut(expr, &mut |e| match e {
        Expr::VarRef(name) if name == from => *name = to.to_string(),
        Expr::Path { start, .. } => {
            if let PathStart::Var(v) = &mut **start {
                if v == from {
                    *v = to.to_string();
                }
            }
        }
        _ => {}
    });
}

/// Replaces every use of `$var` with `replacement` — bare references
/// become the expression itself, path starts become parenthesized
/// expression starts.
fn substitute_uses(expr: &mut Expr, var: &str, replacement: &Expr) {
    each_expr_mut(expr, &mut |e| match e {
        Expr::VarRef(name) if name == var => *e = replacement.clone(),
        Expr::Path { start, .. } => {
            if matches!(&**start, PathStart::Var(v) if v == var) {
                **start = match replacement {
                    Expr::VarRef(n) => PathStart::Var(n.clone()),
                    other => PathStart::Expr(other.clone()),
                };
            }
        }
        _ => {}
    });
}

/// Variables a FLWOR clause binds.
fn binder_vars(clause: &Clause) -> Vec<&str> {
    match clause {
        Clause::For { var, .. } | Clause::Let { var, .. } => vec![var.as_str()],
        Clause::GroupBy(group) => {
            let mut vars = vec![group.partition_var.as_str()];
            vars.extend(group.keys.iter().map(|(_, v)| v.as_str()));
            vars
        }
        Clause::Where(_) | Clause::OrderBy(_) => Vec::new(),
    }
}

/// Collects every variable use — `$var`, a `$var/...` path start, a
/// `group` clause's source variable — in visit order (used for site
/// eligibility; scopes are ignored, generated names are unique).
struct VarRefs<'a>(&'a mut Vec<String>);

impl Visitor<'_> for VarRefs<'_> {
    fn visit_expr(&mut self, expr: &Expr) {
        match expr {
            Expr::VarRef(name) => self.0.push(name.clone()),
            Expr::Path { start, .. } => {
                if let PathStart::Var(v) = &**start {
                    self.0.push(v.clone());
                }
            }
            _ => {}
        }
        walk_expr(self, expr);
    }

    fn visit_clause(&mut self, clause: &Clause) {
        if let Clause::GroupBy(group) = clause {
            self.0.push(group.source_var.clone());
        }
        walk_clause(self, clause);
    }
}

fn collect_var_refs(expr: &Expr, out: &mut Vec<String>) {
    VarRefs(out).visit_expr(expr);
}

fn bump(counter: &mut usize, target: usize) -> bool {
    let hit = *counter == target;
    *counter += 1;
    hit
}

fn swap_comp(op: CompOp) -> CompOp {
    match op {
        CompOp::Eq => CompOp::Ne,
        CompOp::Ne => CompOp::Eq,
        CompOp::Lt => CompOp::Le,
        CompOp::Le => CompOp::Lt,
        CompOp::Gt => CompOp::Ge,
        CompOp::Ge => CompOp::Gt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const QUERY: &str = "for $v in ns0:CUSTOMERS() \
        where $v/CUSTOMERID > xs:integer(3) \
        order by $v/REGION descending \
        return <RECORD>{fn:data($v/CUSTOMERID)}</RECORD>";

    #[test]
    fn enumerates_applicable_classes() {
        let mutants = mutants_for(QUERY);
        let classes: Vec<&str> = mutants.iter().map(|m| m.class.name()).collect();
        assert!(classes.contains(&"swap_comparison"), "{classes:?}");
        assert!(classes.contains(&"drop_where"), "{classes:?}");
        assert!(classes.contains(&"flip_order_direction"), "{classes:?}");
        // Every mutant differs from the original and reparses.
        for m in &mutants {
            assert_ne!(m.xquery, QUERY);
            parse_program(&m.xquery).expect("mutant parses");
        }
    }

    #[test]
    fn swap_is_targeted_and_single_site() {
        let text = "for $v in (1, 2) where $v > 1 and $v < 5 return $v";
        let mutants: Vec<Mutant> = mutants_for(text)
            .into_iter()
            .filter(|m| m.class == MutationClass::SwapComparison)
            .collect();
        assert_eq!(mutants.len(), 2);
        assert!(mutants[0].xquery.contains(">=") && !mutants[0].xquery.contains("<="));
        assert!(mutants[1].xquery.contains("<=") && !mutants[1].xquery.contains(">="));
    }

    #[test]
    fn drop_outer_pad_targets_empty_guards() {
        let text = "for $l in ns0:T() return if (fn:empty($l/X)) then <RECORD/> else \
                    (for $r in $l/X return <RECORD>{$r}</RECORD>)";
        let mutants: Vec<Mutant> = mutants_for(text)
            .into_iter()
            .filter(|m| m.class == MutationClass::DropOuterPad)
            .collect();
        assert_eq!(mutants.len(), 1);
        assert!(!mutants[0].xquery.contains("if ("), "{}", mutants[0].xquery);
    }

    #[test]
    fn reorder_targets_dependent_wheres_only() {
        // `where $w = 1` depends on the `let` at index 1: site.
        let dependent = "for $v in (1, 2) let $w := $v + 1 where $w = 1 return $w";
        let mutants: Vec<Mutant> = mutants_for(dependent)
            .into_iter()
            .filter(|m| m.class == MutationClass::ReorderFlwor)
            .collect();
        assert_eq!(mutants.len(), 1);
        parse_program(&mutants[0].xquery).expect("reorder mutant parses");
        // `where $v = 1` depends only on the leading clause: not a site.
        let independent = "for $v in (1, 2) let $w := $v + 1 where $v = 1 return $w";
        assert!(mutants_for(independent)
            .iter()
            .all(|m| m.class != MutationClass::ReorderFlwor));
    }

    #[test]
    fn unparsable_text_yields_nothing() {
        assert!(mutants_for("this is not xquery ((").is_empty());
    }

    #[test]
    fn bad_pushdown_lands_at_its_binder() {
        // Outer-join-shaped FLWOR: view let, row for, then the where on
        // the expanded rows. The pushdown overshoot puts the where at
        // the `for`'s index — above the padding expansion.
        let text = "let $t := <RECORDSET>{for $l in ns0:A() return <RECORD/>}</RECORDSET> \
                    for $v in $t/RECORD where fn:data($v/X) > 1 return $v";
        let mutants: Vec<Mutant> = mutants_for(text)
            .into_iter()
            .filter(|m| m.class == MutationClass::BadPushdown)
            .collect();
        assert_eq!(mutants.len(), 1);
        let mutant = parse_program(&mutants[0].xquery).expect("mutant parses");
        let Expr::Flwor(flwor) = &mutant.body else {
            panic!("flwor body")
        };
        assert!(
            matches!(flwor.clauses[1], Clause::Where(_)),
            "where hoisted to index 1"
        );
        assert!(matches!(flwor.clauses[2], Clause::For { .. }));
        // A where whose last binder is the leading clause is not a site
        // (the mutant would not parse without a leading binder).
        let leading_only = "for $v in ns0:A() where $v/X > 1 return $v";
        assert!(mutants_for(leading_only)
            .iter()
            .all(|m| m.class != MutationClass::BadPushdown));
    }

    #[test]
    fn unsound_inline_resolves_against_wrong_binder() {
        let text = "for $a in ns0:A() for $b in ns0:B() \
                    let $g := fn:data($b/PAYMENT) where $g > 5 return <RECORD>{$g}</RECORD>";
        let mutants: Vec<Mutant> = mutants_for(text)
            .into_iter()
            .filter(|m| m.class == MutationClass::UnsoundLetInline)
            .collect();
        // $g's value references $b; the wrong binder is $a: one site.
        assert_eq!(mutants.len(), 1);
        let mutated = &mutants[0].xquery;
        assert!(!mutated.contains("let $g"), "let removed: {mutated}");
        assert!(
            mutated.contains("fn:data($a/PAYMENT)"),
            "value inlined against the wrong binder: {mutated}"
        );
        parse_program(mutated).expect("mutant parses");
    }

    #[test]
    fn unsound_inline_skips_group_sources_and_dead_lets() {
        // $g feeds a group clause: a variable is syntactically required
        // there, so the let is not a site (without the group it would
        // be: $g's value references $v, and $a is the wrong binder).
        let grouped = "for $a in ns0:A() for $v in ns0:B() let $g := $v/X \
                       group $g as $p by fn:data($v/K) as $k return <RECORD>{$k}</RECORD>";
        parse_program(grouped).expect("group syntax");
        assert!(mutants_for(grouped)
            .iter()
            .all(|m| m.class != MutationClass::UnsoundLetInline));
        // A let never used afterwards has nowhere to inline to.
        let dead = "for $v in ns0:A() let $g := $v/X return <RECORD/>";
        assert!(mutants_for(dead)
            .iter()
            .all(|m| m.class != MutationClass::UnsoundLetInline));
    }
}
