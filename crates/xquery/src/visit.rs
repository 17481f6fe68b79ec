//! The traversals of the XQuery AST: the one shared and the one mutable
//! enumeration of an expression's children, and the deep walks built on
//! them (DESIGN §19).
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
//! * [`walk_expr_mut`] / [`walk_clause_mut`] — the same children in the
//!   same order, mutably, for closures; [`each_expr`] (pre-order) and
//!   [`each_expr_mut`] (post-order) are the deep walks the physical
//!   planner and the mutation harness share.

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
pub trait Visitor<'a> {
    /// Visits one expression (default: recurse).
    fn visit_expr(&mut self, expr: &'a Expr)
    where
        Self: Sized,
    {
        walk_expr(self, expr);
    }

    /// Visits one FLWOR clause (default: recurse into its expressions).
    fn visit_clause(&mut self, clause: &'a Clause)
    where
        Self: Sized,
    {
        walk_clause(self, clause);
    }
}

/// Recurses into every sub-expression of `expr`, calling
/// `v.visit_expr` on each.
pub fn walk_expr<'a, V: Visitor<'a>>(v: &mut V, expr: &'a Expr) {
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
pub fn walk_flwor<'a, V: Visitor<'a>>(v: &mut V, flwor: &'a Flwor) {
    for clause in &flwor.clauses {
        v.visit_clause(clause);
    }
    v.visit_expr(&flwor.ret);
}

/// Recurses into the expressions of one clause.
pub fn walk_clause<'a, V: Visitor<'a>>(v: &mut V, clause: &'a Clause) {
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
pub fn walk_element<'a, V: Visitor<'a>>(v: &mut V, ctor: &'a ElementCtor) {
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

/// The mutable enumeration: calls `f` on each direct child expression of
/// `expr`, in [`walk_expr`]'s order (path start, then step predicates;
/// clauses in order, then `return`; attributes, then content). There is
/// no clause hook on this side: a FLWOR's children are its clauses'
/// expressions, a constructor's the enclosed expressions of its whole
/// element tree.
pub fn walk_expr_mut(expr: &mut Expr, f: &mut dyn FnMut(&mut Expr)) {
    match expr {
        Expr::Literal(_) | Expr::EmptySequence | Expr::VarRef(_) | Expr::ContextItem => {}
        Expr::Sequence(items) => items.iter_mut().for_each(f),
        Expr::FunctionCall { args, .. } => args.iter_mut().for_each(f),
        Expr::Path { start, steps } => {
            if let PathStart::Expr(e) = &mut **start {
                f(e);
            }
            for step in steps {
                step.predicates.iter_mut().for_each(&mut *f);
            }
        }
        Expr::Filter { base, predicates } => {
            f(base);
            predicates.iter_mut().for_each(f);
        }
        Expr::Flwor(flwor) => {
            for clause in &mut flwor.clauses {
                walk_clause_mut(clause, f);
            }
            f(&mut flwor.ret);
        }
        Expr::If { cond, then, els } => {
            f(cond);
            f(then);
            f(els);
        }
        Expr::Or(a, b) | Expr::And(a, b) => {
            f(a);
            f(b);
        }
        Expr::GeneralComp { left, right, .. }
        | Expr::ValueComp { left, right, .. }
        | Expr::Arith { left, right, .. } => {
            f(left);
            f(right);
        }
        Expr::UnaryMinus(inner) => f(inner),
        Expr::Quantified {
            source, satisfies, ..
        } => {
            f(source);
            f(satisfies);
        }
        Expr::Element(ctor) => walk_element_mut(ctor, f),
    }
}

/// Calls `f` on each expression of one clause, mutably, in
/// [`walk_clause`]'s order. A group clause's `source_var` is a name, not
/// an expression: not a child on either side.
pub fn walk_clause_mut(clause: &mut Clause, f: &mut dyn FnMut(&mut Expr)) {
    match clause {
        Clause::For { source, .. } => f(source),
        Clause::Let { value, .. } => f(value),
        Clause::Where(p) => f(p),
        Clause::GroupBy(group) => group.keys.iter_mut().for_each(|(key, _)| f(key)),
        Clause::OrderBy(specs) => specs.iter_mut().for_each(|spec| f(&mut spec.key)),
    }
}

fn walk_element_mut(ctor: &mut ElementCtor, f: &mut dyn FnMut(&mut Expr)) {
    for (_, parts) in &mut ctor.attributes {
        for part in parts {
            if let AttrPart::Enclosed(e) = part {
                f(e);
            }
        }
    }
    for content in &mut ctor.content {
        match content {
            Content::Text(_) => {}
            Content::Enclosed(e) => f(e),
            Content::Element(nested) => walk_element_mut(nested, f),
        }
    }
}

/// A closure as a [`Visitor`]: sees every expression, parents first.
struct PreOrder<F>(F);

impl<'a, F: FnMut(&'a Expr)> Visitor<'a> for PreOrder<F> {
    fn visit_expr(&mut self, expr: &'a Expr) {
        (self.0)(expr);
        walk_expr(self, expr);
    }
}

/// Pre-order walk: calls `f` on `expr` and on every expression below it,
/// FLWOR clause bodies and constructor content included.
pub fn each_expr<'a>(expr: &'a Expr, f: &mut impl FnMut(&'a Expr)) {
    PreOrder(f).visit_expr(expr);
}

/// [`each_expr`] over the expressions of one clause.
pub fn each_clause_expr<'a>(clause: &'a Clause, f: &mut impl FnMut(&'a Expr)) {
    PreOrder(f).visit_clause(clause);
}

/// Post-order mutable walk: calls `f` on every expression below `expr`
/// and then on `expr` itself — children first, so rewrites compose
/// bottom-up and a replaced node is not descended into.
pub fn each_expr_mut(expr: &mut Expr, f: &mut dyn FnMut(&mut Expr)) {
    walk_expr_mut(expr, &mut |child| each_expr_mut(child, f));
    f(expr);
}

/// Calls `f` for every variable binding in the program with the binding
/// name and the clause form that introduced it. Convenience wrapper used
/// by naming-discipline checks that do not need full scope tracking.
pub fn for_each_binding(program: &Program, mut f: impl FnMut(&str, BindingKind)) {
    struct B<F>(F);
    impl<F: FnMut(&str, BindingKind)> Visitor<'_> for B<F> {
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
/// out of the predicate that gives it its context. The physical planner
/// memoizes no source that reads it, and uses it to tell a filter
/// predicate's build side (reads the candidate item) from its probe side
/// (must not).
pub fn uses_context(expr: &Expr) -> bool {
    struct Finder(bool);
    impl Visitor<'_> for Finder {
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
/// physical planner decides what it may hash or memoize on this:
/// over-approximating freeness is safe (it just declines); missing a use
/// is not, so everything that neither binds nor uses a name goes through
/// [`walk_expr`].
pub fn free_vars(expr: &Expr) -> BTreeSet<String> {
    free_vars_except(expr, &mut |_| false)
}

/// [`free_vars`] of `expr` as if every expression `skip` answers true for
/// were a leaf that reads nothing. `skip` sees expressions parents first,
/// and none below one it answered true for.
pub fn free_vars_except(expr: &Expr, skip: &mut dyn FnMut(&Expr) -> bool) -> BTreeSet<String> {
    struct Free<'s> {
        bound: Vec<String>,
        free: BTreeSet<String>,
        skip: &'s mut dyn FnMut(&Expr) -> bool,
    }
    impl Free<'_> {
        fn note_use(&mut self, name: &str) {
            if !self.bound.iter().any(|b| b == name) {
                self.free.insert(name.to_string());
            }
        }
    }
    impl Visitor<'_> for Free<'_> {
        fn visit_expr(&mut self, expr: &Expr) {
            if (self.skip)(expr) {
                return;
            }
            match expr {
                Expr::VarRef(name) => self.note_use(name),
                Expr::Path { start, .. } => {
                    if let PathStart::Var(name) = &**start {
                        self.note_use(name);
                    }
                    walk_expr(self, expr);
                }
                Expr::Flwor(flwor) => {
                    let depth = self.bound.len();
                    walk_flwor(self, flwor);
                    self.bound.truncate(depth);
                }
                Expr::Quantified {
                    var,
                    source,
                    satisfies,
                    ..
                } => {
                    self.visit_expr(source);
                    self.bound.push(var.clone());
                    self.visit_expr(satisfies);
                    self.bound.pop();
                }
                _ => walk_expr(self, expr),
            }
        }
        /// A clause's own expressions see the bindings before it; what it
        /// binds is in scope for the rest of the FLWOR.
        fn visit_clause(&mut self, clause: &Clause) {
            if let Clause::GroupBy(group) = clause {
                self.note_use(&group.source_var);
            }
            walk_clause(self, clause);
            match clause {
                Clause::For { var, .. } | Clause::Let { var, .. } => self.bound.push(var.clone()),
                Clause::GroupBy(group) => {
                    self.bound.push(group.partition_var.clone());
                    self.bound
                        .extend(group.keys.iter().map(|(_, key_var)| key_var.clone()));
                }
                Clause::Where(_) | Clause::OrderBy(_) => {}
            }
        }
    }
    let mut v = Free {
        bound: Vec::new(),
        free: BTreeSet::new(),
        skip,
    };
    v.visit_expr(expr);
    v.free
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
        impl Visitor<'_> for Count {
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
