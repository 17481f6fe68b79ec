//! Borrowing visitor over the XQuery AST.
//!
//! Static analyses (the `aldsp-analyzer` crate's scope/def-use lint, dead
//! `let` detection, naming-discipline checks) need to traverse every
//! expression and clause of a [`Program`] while tracking where variables
//! are *bound* versus *referenced*. This module provides that traversal
//! once, so analyses only override the hooks they care about:
//!
//! * [`Visitor::visit_expr`] / [`Visitor::visit_clause`] — structural
//!   hooks; the default implementations recurse via [`walk_expr`] /
//!   [`walk_clause`].
//! * [`BindingKind`] — the clause form that introduced a binding, which is
//!   what the paper's `var<ctx><zone><n>` zone discipline is checked
//!   against (a `FR` variable must come from a `for`, a guard `GD`
//!   variable from a `let`, and so on).

use crate::ast::*;
use std::collections::BTreeSet;

/// The syntactic form that introduces a variable binding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BindingKind {
    /// `for $v in ...`
    For,
    /// `let $v := ...`
    Let,
    /// The partition variable of the BEA `group ... as $v by ...` clause.
    GroupPartition,
    /// A key variable of the BEA group clause (`... by k as $v`).
    GroupKey,
    /// `some/every $v in ... satisfies ...`
    Quantifier,
}

impl BindingKind {
    /// Human-readable clause name for diagnostics.
    pub fn describe(self) -> &'static str {
        match self {
            BindingKind::For => "for",
            BindingKind::Let => "let",
            BindingKind::GroupPartition => "group partition",
            BindingKind::GroupKey => "group key",
            BindingKind::Quantifier => "some/every",
        }
    }
}

/// A read-only AST visitor. Every hook defaults to plain recursion, so an
/// implementation only overrides what it observes. Scope-sensitive
/// analyses typically override [`Visitor::visit_expr`] (to intercept
/// `VarRef` and FLWOR/quantifier scoping) and call the `walk_*` functions
/// for the parts they do not handle themselves.
pub trait Visitor {
    /// Visits one expression (default: recurse).
    fn visit_expr(&mut self, expr: &Expr)
    where
        Self: Sized,
    {
        walk_expr(self, expr);
    }

    /// Visits one FLWOR clause (default: recurse into its expressions).
    fn visit_clause(&mut self, clause: &Clause)
    where
        Self: Sized,
    {
        walk_clause(self, clause);
    }
}

/// Recurses into every sub-expression of `expr`, calling
/// `v.visit_expr` on each.
pub fn walk_expr<V: Visitor>(v: &mut V, expr: &Expr) {
    match expr {
        Expr::Literal(_) | Expr::EmptySequence | Expr::VarRef(_) | Expr::ContextItem => {}
        Expr::Sequence(items) => {
            for e in items {
                v.visit_expr(e);
            }
        }
        Expr::FunctionCall { args, .. } => {
            for a in args {
                v.visit_expr(a);
            }
        }
        Expr::Path { start, steps } => {
            if let PathStart::Expr(e) = &**start {
                v.visit_expr(e);
            }
            for step in steps {
                for p in &step.predicates {
                    v.visit_expr(p);
                }
            }
        }
        Expr::Filter { base, predicates } => {
            v.visit_expr(base);
            for p in predicates {
                v.visit_expr(p);
            }
        }
        Expr::Flwor(flwor) => walk_flwor(v, flwor),
        Expr::If { cond, then, els } => {
            v.visit_expr(cond);
            v.visit_expr(then);
            v.visit_expr(els);
        }
        Expr::Or(a, b) | Expr::And(a, b) => {
            v.visit_expr(a);
            v.visit_expr(b);
        }
        Expr::GeneralComp { left, right, .. }
        | Expr::ValueComp { left, right, .. }
        | Expr::Arith { left, right, .. } => {
            v.visit_expr(left);
            v.visit_expr(right);
        }
        Expr::UnaryMinus(inner) => v.visit_expr(inner),
        Expr::Quantified {
            source, satisfies, ..
        } => {
            v.visit_expr(source);
            v.visit_expr(satisfies);
        }
        Expr::Element(ctor) => walk_element(v, ctor),
    }
}

/// Recurses into a FLWOR's clauses and return expression.
pub fn walk_flwor<V: Visitor>(v: &mut V, flwor: &Flwor) {
    for clause in &flwor.clauses {
        v.visit_clause(clause);
    }
    v.visit_expr(&flwor.ret);
}

/// Recurses into the expressions of one clause.
pub fn walk_clause<V: Visitor>(v: &mut V, clause: &Clause) {
    match clause {
        Clause::For { source, .. } => v.visit_expr(source),
        Clause::Let { value, .. } => v.visit_expr(value),
        Clause::Where(p) => v.visit_expr(p),
        Clause::GroupBy(group) => {
            for (key, _) in &group.keys {
                v.visit_expr(key);
            }
        }
        Clause::OrderBy(specs) => {
            for spec in specs {
                v.visit_expr(&spec.key);
            }
        }
    }
}

/// Recurses into an element constructor's attributes and content.
pub fn walk_element<V: Visitor>(v: &mut V, ctor: &ElementCtor) {
    for (_, parts) in &ctor.attributes {
        for part in parts {
            if let AttrPart::Enclosed(e) = part {
                v.visit_expr(e);
            }
        }
    }
    for content in &ctor.content {
        match content {
            Content::Text(_) => {}
            Content::Enclosed(e) => v.visit_expr(e),
            Content::Element(nested) => walk_element(v, nested),
        }
    }
}

/// Calls `f` for every variable binding in the program with the binding
/// name and the clause form that introduced it. Convenience wrapper used
/// by naming-discipline checks that do not need full scope tracking.
pub fn for_each_binding(program: &Program, mut f: impl FnMut(&str, BindingKind)) {
    struct B<F>(F);
    impl<F: FnMut(&str, BindingKind)> Visitor for B<F> {
        fn visit_expr(&mut self, expr: &Expr) {
            if let Expr::Quantified { var, .. } = expr {
                (self.0)(var, BindingKind::Quantifier);
            }
            walk_expr(self, expr);
        }
        fn visit_clause(&mut self, clause: &Clause) {
            match clause {
                Clause::For { var, .. } => (self.0)(var, BindingKind::For),
                Clause::Let { var, .. } => (self.0)(var, BindingKind::Let),
                Clause::GroupBy(group) => {
                    (self.0)(&group.partition_var, BindingKind::GroupPartition);
                    for (_, key_var) in &group.keys {
                        (self.0)(key_var, BindingKind::GroupKey);
                    }
                }
                _ => {}
            }
            walk_clause(self, clause);
        }
    }
    let mut b = B(&mut f);
    b.visit_expr(&program.body);
}

/// True when `expr` contains the context item (`.` or a relative path)
/// anywhere, nested predicates included — such an expression cannot move
/// out of the predicate that gives it its context. The rewrite rules
/// refuse to move one; the physical planner uses it to tell a filter
/// predicate's build side (reads the candidate item) from its probe side
/// (must not).
pub fn uses_context(expr: &Expr) -> bool {
    struct Finder(bool);
    impl Visitor for Finder {
        fn visit_expr(&mut self, expr: &Expr) {
            match expr {
                Expr::ContextItem => self.0 = true,
                Expr::Path { start, .. } if matches!(**start, PathStart::Context) => self.0 = true,
                _ => {}
            }
            if !self.0 {
                walk_expr(self, expr);
            }
        }
    }
    let mut finder = Finder(false);
    finder.visit_expr(expr);
    finder.0
}

/// The free variables of `expr`: the ones it references but does not
/// bind. Scope-aware where the generic walkers above are not: FLWOR
/// clauses bind for subsequent clauses and the return, quantifiers bind
/// their `satisfies`, group-by binds the partition and key variables, and
/// a path starting at [`PathStart::Var`] counts as a variable use. The
/// physical planner and the rewrite rules both decide what may move on
/// this: over-approximating freeness is safe (they just decline);
/// missing a use is not, so the match is exhaustive.
pub fn free_vars(expr: &Expr) -> BTreeSet<String> {
    let mut free = BTreeSet::new();
    let mut bound = Vec::new();
    collect_free(expr, &mut bound, &mut free);
    free
}

fn note_use(name: &str, bound: &[String], free: &mut BTreeSet<String>) {
    if !bound.iter().any(|b| b == name) {
        free.insert(name.to_string());
    }
}

fn collect_free(expr: &Expr, bound: &mut Vec<String>, free: &mut BTreeSet<String>) {
    match expr {
        Expr::Literal(_) | Expr::EmptySequence | Expr::ContextItem => {}
        Expr::VarRef(name) => note_use(name, bound, free),
        Expr::Sequence(items) => {
            for e in items {
                collect_free(e, bound, free);
            }
        }
        Expr::FunctionCall { args, .. } => {
            for a in args {
                collect_free(a, bound, free);
            }
        }
        Expr::Path { start, steps } => {
            match &**start {
                PathStart::Var(v) => note_use(v, bound, free),
                PathStart::Expr(e) => collect_free(e, bound, free),
                PathStart::Context => {}
            }
            for step in steps {
                for p in &step.predicates {
                    collect_free(p, bound, free);
                }
            }
        }
        Expr::Filter { base, predicates } => {
            collect_free(base, bound, free);
            for p in predicates {
                collect_free(p, bound, free);
            }
        }
        Expr::Flwor(flwor) => {
            let depth = bound.len();
            for clause in &flwor.clauses {
                match clause {
                    Clause::For { var, source } => {
                        collect_free(source, bound, free);
                        bound.push(var.clone());
                    }
                    Clause::Let { var, value } => {
                        collect_free(value, bound, free);
                        bound.push(var.clone());
                    }
                    Clause::Where(p) => collect_free(p, bound, free),
                    Clause::GroupBy(group) => {
                        note_use(&group.source_var, bound, free);
                        for (key, _) in &group.keys {
                            collect_free(key, bound, free);
                        }
                        bound.push(group.partition_var.clone());
                        for (_, key_var) in &group.keys {
                            bound.push(key_var.clone());
                        }
                    }
                    Clause::OrderBy(specs) => {
                        for spec in specs {
                            collect_free(&spec.key, bound, free);
                        }
                    }
                }
            }
            collect_free(&flwor.ret, bound, free);
            bound.truncate(depth);
        }
        Expr::If { cond, then, els } => {
            collect_free(cond, bound, free);
            collect_free(then, bound, free);
            collect_free(els, bound, free);
        }
        Expr::Or(a, b) | Expr::And(a, b) => {
            collect_free(a, bound, free);
            collect_free(b, bound, free);
        }
        Expr::GeneralComp { left, right, .. }
        | Expr::ValueComp { left, right, .. }
        | Expr::Arith { left, right, .. } => {
            collect_free(left, bound, free);
            collect_free(right, bound, free);
        }
        Expr::UnaryMinus(e) => collect_free(e, bound, free),
        Expr::Quantified {
            var,
            source,
            satisfies,
            ..
        } => {
            collect_free(source, bound, free);
            bound.push(var.clone());
            collect_free(satisfies, bound, free);
            bound.pop();
        }
        Expr::Element(ctor) => collect_free_ctor(ctor, bound, free),
    }
}

fn collect_free_ctor(ctor: &ElementCtor, bound: &mut Vec<String>, free: &mut BTreeSet<String>) {
    for (_, parts) in &ctor.attributes {
        for part in parts {
            if let AttrPart::Enclosed(e) = part {
                collect_free(e, bound, free);
            }
        }
    }
    for content in &ctor.content {
        match content {
            Content::Text(_) => {}
            Content::Enclosed(e) => collect_free(e, bound, free),
            Content::Element(nested) => collect_free_ctor(nested, bound, free),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    #[test]
    fn for_each_binding_reports_all_clause_forms() {
        let program = parse_program(
            "let $a := 1 return \
             for $b in (1, 2) \
             group $b as $part by $a as $k \
             return (some $q in $part satisfies $q = $k)",
        )
        .unwrap();
        let mut seen = Vec::new();
        for_each_binding(&program, |name, kind| {
            seen.push((name.to_string(), kind));
        });
        assert!(seen.contains(&("a".into(), BindingKind::Let)));
        assert!(seen.contains(&("b".into(), BindingKind::For)));
        assert!(seen.contains(&("part".into(), BindingKind::GroupPartition)));
        assert!(seen.contains(&("k".into(), BindingKind::GroupKey)));
        assert!(seen.contains(&("q".into(), BindingKind::Quantifier)));
    }

    #[test]
    fn free_vars_sees_path_starts_and_respects_scopes() {
        let program =
            parse_program("for $a in $src where $a/ID = $outer return <R>{$a, $other}</R>")
                .unwrap();
        let free = free_vars(&program.body);
        let names: Vec<&str> = free.iter().map(|s| s.as_str()).collect();
        assert_eq!(names, ["other", "outer", "src"]);

        let quantified = parse_program("some $x in $pool satisfies $x > $floor").unwrap();
        let free = free_vars(&quantified.body);
        assert!(free.contains("pool") && free.contains("floor") && !free.contains("x"));
    }

    #[test]
    fn uses_context_sees_dots_and_relative_paths_at_any_depth() {
        let uses = |q: &str| uses_context(&parse_program(q).unwrap().body);
        assert!(uses("."));
        assert!(uses("CUSTID"));
        assert!(uses("xs:integer(fn:data(CUSTID)) + 1"));
        assert!(uses("<R>{ for $x in $y where $x/A = B return $x }</R>"));
        // Over-approximates: a nested predicate's own context counts.
        assert!(uses("$c/ROW[ID = 1]"));
        assert!(!uses("$c/CUSTOMERID"));
        assert!(!uses("for $x in ns0:T() return fn:data($x/A)"));
    }

    #[test]
    fn walk_reaches_nested_constructors_and_predicates() {
        let program =
            parse_program("<R a=\"{$x}\">{ for $y in $x[$z > 1] return <C>{$y}</C> }</R>").unwrap();
        struct Count(usize);
        impl Visitor for Count {
            fn visit_expr(&mut self, expr: &Expr) {
                if matches!(expr, Expr::VarRef(_)) {
                    self.0 += 1;
                }
                walk_expr(self, expr);
            }
        }
        let mut c = Count(0);
        c.visit_expr(&program.body);
        // $x (attribute), $x (for source; a path start is not a VarRef),
        // $y — plus $z inside the predicate.
        assert!(c.0 >= 3, "saw {} var refs", c.0);
    }
}
