//! Layer 2: scope/def-use lint over generated XQuery.
//!
//! Stage three emits query *text*, so the lint re-parses it with the
//! `aldsp-xquery` parser (a parse failure is itself a diagnostic, `A100`)
//! and then runs a single scoped walk that checks, per paper §3.5 (iv):
//!
//! * **A101** — every `$var` reference is bound by an enclosing `for` /
//!   `let` / `group` / quantifier clause (or is an external `$sqlParamN`
//!   the driver binds at execution time);
//! * **A102** — no binding shadows another in-scope binding (the
//!   generator's per-`(ctx, zone)` counters make every name unique, so
//!   shadowing always indicates a counter bug);
//! * **A103** — every `let` binding is referenced at least once;
//! * **A104** — every binding follows the `var<ctx><zone><n>` naming
//!   discipline and its zone tag matches the clause that binds it (an
//!   `FR` variable must be `for`-bound, a guard `GD` variable
//!   `let`-bound, an `SQ` variable quantifier-bound, ...);
//! * **A105/A106** — every function call resolves: `fn:` / `fn-bea:` /
//!   `xs:` names against the builtin library, any other prefix against
//!   the prolog's schema imports (data-service functions).
//!
//! Scoping mirrors the evaluator: FLWOR clauses extend the environment
//! sequentially, the BEA group clause keeps pre-group variables visible
//! (the representative-tuple rule), and a quantifier variable is visible
//! only in its `satisfies` expression.

use crate::diag::{DiagCode, Diagnostic};
use aldsp_xquery::ast::{AttrPart, Clause, Content, ElementCtor, Expr, Flwor, PathStart, Program};
use aldsp_xquery::functions;
use aldsp_xquery::visit::{walk_expr, BindingKind, Visitor};
use aldsp_xquery::XqParseError;
use std::collections::HashSet;

/// Parses and lints generated query text. A parse failure yields a single
/// `A100` diagnostic.
pub fn lint_text(text: &str) -> Vec<Diagnostic> {
    match aldsp_xquery::parse_program(text) {
        Ok(program) => lint_program(&program),
        Err(e) => vec![unparsable(&e)],
    }
}

/// Layer 2's whole verdict on text that is not a program.
pub(crate) fn unparsable(error: &XqParseError) -> Diagnostic {
    Diagnostic::new(
        DiagCode::A100,
        format!("generated XQuery does not parse: {error}"),
    )
}

/// Lints a parsed program.
pub fn lint_program(program: &Program) -> Vec<Diagnostic> {
    let mut linter = Linter {
        diags: Vec::new(),
        scope: Vec::new(),
        prefixes: program
            .imports
            .iter()
            .map(|import| import.prefix.clone())
            .collect(),
    };
    linter.visit_expr(&program.body);
    linter.unbind_to(0);
    linter.diags
}

struct Binding {
    name: String,
    kind: BindingKind,
    used: bool,
}

struct Linter {
    diags: Vec<Diagnostic>,
    /// Innermost binding last.
    scope: Vec<Binding>,
    /// Prolog import prefixes (`ns0`, `ns1`, ...).
    prefixes: HashSet<String>,
}

impl Linter {
    fn push(&mut self, code: DiagCode, message: String) {
        self.diags.push(Diagnostic::new(code, message));
    }

    fn use_var(&mut self, name: &str) {
        if let Some(binding) = self.scope.iter_mut().rev().find(|b| b.name == name) {
            binding.used = true;
        } else if !is_external(name) {
            self.push(DiagCode::A101, format!("${name} is not in scope"));
        }
    }

    fn bind(&mut self, name: &str, kind: BindingKind) {
        match expected_kinds(name) {
            None => self.push(
                DiagCode::A104,
                format!("${name} does not follow the var<ctx><zone><n> naming discipline"),
            ),
            Some(kinds) if !kinds.contains(&kind) => self.push(
                DiagCode::A104,
                format!(
                    "${name} is bound by a {} clause; its zone allows {}",
                    kind.describe(),
                    kinds
                        .iter()
                        .map(|k| k.describe())
                        .collect::<Vec<_>>()
                        .join("/")
                ),
            ),
            Some(_) => {}
        }
        if self.scope.iter().any(|b| b.name == name) {
            self.push(
                DiagCode::A102,
                format!("${name} shadows an in-scope binding"),
            );
        }
        self.scope.push(Binding {
            name: name.to_string(),
            kind,
            used: false,
        });
    }

    /// Pops bindings down to `depth`, reporting dead `let`s on the way.
    fn unbind_to(&mut self, depth: usize) {
        while self.scope.len() > depth {
            let binding = self.scope.pop().expect("depth bounded by len");
            if binding.kind == BindingKind::Let && !binding.used {
                self.push(
                    DiagCode::A103,
                    format!("let ${} is never referenced", binding.name),
                );
            }
        }
    }

    fn check_call(&mut self, name: &str) {
        match name.split_once(':') {
            Some((prefix @ ("fn" | "fn-bea" | "xs"), _)) => {
                if !functions::is_builtin(name) {
                    self.push(
                        DiagCode::A105,
                        format!("{name} is not in the {prefix}: builtin library"),
                    );
                }
            }
            Some((prefix, _)) => {
                if !self.prefixes.contains(prefix) {
                    self.push(
                        DiagCode::A106,
                        format!("call {name} uses prefix {prefix} with no matching schema import"),
                    );
                }
            }
            None => self.push(
                DiagCode::A105,
                format!("unprefixed call {name} cannot resolve in the generated dialect"),
            ),
        }
    }

    fn lint_flwor(&mut self, flwor: &Flwor) {
        let depth = self.scope.len();
        for clause in &flwor.clauses {
            match clause {
                Clause::For { var, source } => {
                    self.visit_expr(source);
                    self.bind(var, BindingKind::For);
                }
                Clause::Let { var, value } => {
                    self.visit_expr(value);
                    self.bind(var, BindingKind::Let);
                }
                Clause::Where(predicate) => self.visit_expr(predicate),
                Clause::GroupBy(group) => {
                    for (key, _) in &group.keys {
                        self.visit_expr(key);
                    }
                    // The partition concatenates the source variable's
                    // per-tuple values — that is a use.
                    self.use_var(&group.source_var);
                    self.bind(&group.partition_var, BindingKind::GroupPartition);
                    for (_, key_var) in &group.keys {
                        self.bind(key_var, BindingKind::GroupKey);
                    }
                    // Pre-group bindings stay in scope: the evaluator
                    // keeps each group's representative tuple.
                }
                Clause::OrderBy(specs) => {
                    for spec in specs {
                        self.visit_expr(&spec.key);
                    }
                }
            }
        }
        self.visit_expr(&flwor.ret);
        self.unbind_to(depth);
    }

    fn lint_element(&mut self, ctor: &ElementCtor) {
        for (_, parts) in &ctor.attributes {
            for part in parts {
                if let AttrPart::Enclosed(expr) = part {
                    self.visit_expr(expr);
                }
            }
        }
        for content in &ctor.content {
            match content {
                Content::Text(_) => {}
                Content::Enclosed(expr) => self.visit_expr(expr),
                Content::Element(nested) => self.lint_element(nested),
            }
        }
    }
}

impl Visitor<'_> for Linter {
    fn visit_expr(&mut self, expr: &Expr) {
        match expr {
            Expr::VarRef(name) => self.use_var(name),
            Expr::Path { start, .. } => {
                if let PathStart::Var(name) = &**start {
                    self.use_var(name);
                }
                // Recurses into an expression start and step predicates.
                walk_expr(self, expr);
            }
            Expr::FunctionCall { name, .. } => {
                self.check_call(name);
                walk_expr(self, expr);
            }
            Expr::Flwor(flwor) => self.lint_flwor(flwor),
            Expr::Quantified {
                var,
                source,
                satisfies,
                ..
            } => {
                self.visit_expr(source);
                let depth = self.scope.len();
                self.bind(var, BindingKind::Quantifier);
                self.visit_expr(satisfies);
                self.unbind_to(depth);
            }
            Expr::Element(ctor) => self.lint_element(ctor),
            _ => walk_expr(self, expr),
        }
    }
}

/// External variables the driver binds at execution time: `$sqlParamN`.
fn is_external(name: &str) -> bool {
    name.strip_prefix(aldsp_core::SQL_PARAM_PREFIX)
        .is_some_and(|rest| !rest.is_empty() && rest.bytes().all(|b| b.is_ascii_digit()))
}

/// The clause forms each zone tag may be bound by (derived from every
/// `fresh`/`fresh_temp` call site in `core::stage3` and the wrapper):
///
/// | name form                  | clause              |
/// |----------------------------|---------------------|
/// | `var<ctx>FR/OB/SL/DT<n>`   | `for`               |
/// | `var<ctx>ST<n>`            | `for` or quantifier |
/// | `var<ctx>AG<n>`            | `for` or `let`      |
/// | `var<ctx>GD/CS<n>`         | `let`               |
/// | `var<ctx>SQ<n>`            | quantifier          |
/// | `var<ctx>GB<n>`            | group key           |
/// | `var<ctx>Partition<n>`     | group partition or `let` (implicit group) |
/// | `tempvar<ctx><zone><n>`    | `let`               |
/// | `varNewlet<n>`             | `for` (group-by row) |
/// | `inter<ctx>`               | `let`               |
/// | `actualQuery`/`tokenQuery` | `let` / `for` (text-transport wrapper) |
fn expected_kinds(name: &str) -> Option<&'static [BindingKind]> {
    use BindingKind::*;
    const ZONES: &[(&str, &[BindingKind])] = &[
        ("FR", &[For]),
        ("OB", &[For]),
        ("SL", &[For]),
        ("DT", &[For]),
        ("ST", &[For, Quantifier]),
        ("AG", &[For, Let]),
        ("GD", &[Let]),
        ("CS", &[Let]),
        ("SQ", &[Quantifier]),
        ("GB", &[GroupKey]),
        ("Partition", &[GroupPartition, Let]),
    ];
    match name {
        "actualQuery" => return Some(&[Let]),
        "tokenQuery" => return Some(&[For]),
        _ => {}
    }
    if let Some(rest) = name.strip_prefix("varNewlet") {
        return all_digits(rest).then_some(&[For] as &[BindingKind]);
    }
    if let Some(rest) = name.strip_prefix("inter") {
        return all_digits(rest).then_some(&[Let] as &[BindingKind]);
    }
    let rest = name
        .strip_prefix("tempvar")
        .or_else(|| name.strip_prefix("var"))?;
    let temp = name.starts_with("tempvar");
    // `<ctx><zone><n>`: leading context digits, a known zone tag, a
    // trailing counter.
    let zone_start = rest.find(|c: char| !c.is_ascii_digit())?;
    if zone_start == 0 {
        return None;
    }
    let zone_and_n = &rest[zone_start..];
    let counter_digits = zone_and_n
        .chars()
        .rev()
        .take_while(|c| c.is_ascii_digit())
        .count();
    let (zone, n) = zone_and_n.split_at(zone_and_n.len() - counter_digits);
    if n.is_empty() {
        return None;
    }
    let kinds = ZONES.iter().find(|(z, _)| *z == zone).map(|(_, k)| *k)?;
    if temp {
        Some(&[BindingKind::Let])
    } else {
        Some(kinds)
    }
}

fn all_digits(s: &str) -> bool {
    !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(text: &str) -> Vec<DiagCode> {
        let mut codes: Vec<DiagCode> = lint_text(text).into_iter().map(|d| d.code).collect();
        codes.sort_unstable();
        codes.dedup();
        codes
    }

    #[test]
    fn naming_table_classifies_generated_names() {
        use BindingKind::*;
        assert_eq!(expected_kinds("var1FR2"), Some(&[For] as &[_]));
        assert_eq!(expected_kinds("var0GD3"), Some(&[Let] as &[_]));
        assert_eq!(expected_kinds("var12GB4"), Some(&[GroupKey] as &[_]));
        assert_eq!(
            expected_kinds("var1Partition1"),
            Some(&[GroupPartition, Let] as &[_])
        );
        assert_eq!(expected_kinds("tempvar1OB1"), Some(&[Let] as &[_]));
        assert_eq!(expected_kinds("varNewlet3"), Some(&[For] as &[_]));
        assert_eq!(expected_kinds("inter2"), Some(&[Let] as &[_]));
        assert_eq!(expected_kinds("var1XX1"), None);
        assert_eq!(expected_kinds("varFR1"), None); // no context digits
        assert_eq!(expected_kinds("var1FR"), None); // no counter
        assert_eq!(expected_kinds("mystery"), None);
    }

    #[test]
    fn clean_generated_shape_lints_clean() {
        let text = "import schema namespace ns0 = \"ld:T/C\" at \"ld:T/schemas/C.xsd\";\n\
                    <RECORDSET>{ for $var1FR1 in ns0:CUSTOMERS() \
                    where $var1FR1/ID = $sqlParam1 \
                    return <RECORD>{ fn:data($var1FR1/NAME) }</RECORD> }</RECORDSET>";
        assert!(codes(text).is_empty(), "{:?}", lint_text(text));
    }

    #[test]
    fn unbound_variable_is_a101() {
        assert_eq!(
            codes("<RECORDSET>{ fn:data($var1FR1/ID) }</RECORDSET>"),
            vec![DiagCode::A101]
        );
    }

    #[test]
    fn quantifier_variable_does_not_leak() {
        let text = "for $var1FR1 in (1, 2) \
                    where some $var0SQ1 in (3) satisfies $var0SQ1 = $var1FR1 \
                    return $var0SQ1";
        assert_eq!(codes(text), vec![DiagCode::A101]);
    }

    #[test]
    fn parse_failure_is_a100() {
        assert_eq!(codes("for $x in"), vec![DiagCode::A100]);
    }

    #[test]
    fn undeclared_prefix_and_unknown_builtin() {
        assert_eq!(
            codes("ns7:CUSTOMERS()"),
            vec![DiagCode::A106],
            "no import declares ns7"
        );
        assert_eq!(codes("fn:frobnicate(1)"), vec![DiagCode::A105]);
        assert!(codes("xs:integer(\"3\")").is_empty());
    }
}
