//! Diagnostic codes and the diagnostic record.
//!
//! Codes are stable API: tests assert on them, and DESIGN.md §10/§11
//! document the full table. `A0xx` codes come from the layer-1 IR checker
//! (stage-1/stage-2 invariants, paper §3.4); `A1xx` codes come from the
//! layer-2 XQuery lint (scope/def-use over the generated query, paper
//! §3.5); `T0xx` codes come from the layer-3 type pass (independent type
//! re-inference over the IR and the generated query, plus the per-output-
//! column diff between the two, paper §3.1/§3.5 (v)/§4); `V0xx` codes
//! come from the layer-5 translation validator (bounded equivalence
//! checking of the generated XQuery against a reference relational
//! interpreter over enumerated witness databases, DESIGN.md §15). Every
//! code is a correctness defect: a translation with any finding is (or
//! may be) wrong.

use std::fmt;

/// A stable diagnostic code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DiagCode {
    /// Duplicate (or reserved-zero) query-context id — each query block
    /// must own exactly one context (§3.4.3).
    A001,
    /// Range-variable collision inside one FROM clause.
    A002,
    /// Column reference that does not resolve against the RSNs in scope.
    A003,
    /// GROUP BY legality violated after stage-2 restructuring: a
    /// projection/HAVING expression references a non-grouped column
    /// outside an aggregate.
    A004,
    /// Projection items do not map one-to-one onto the output columns.
    A005,
    /// ORDER BY resolved to an output index that is out of range.
    A006,
    /// Set-operation operands (or its declared output) disagree on arity.
    A007,
    /// A stage-3-internal `Generated` node appeared in stage-2 output.
    A008,
    /// The generated XQuery text failed to parse.
    A100,
    /// Unbound variable reference.
    A101,
    /// A binding shadows an in-scope variable of the same name.
    A102,
    /// A `let` binding that is never referenced.
    A103,
    /// Variable-naming violation: the name does not follow the
    /// `var<ctx><zone><n>` discipline, or its zone tag does not match the
    /// clause that binds it (§3.5 (iv)).
    A104,
    /// A function call that is neither a `fn:`/`fn-bea:`/`xs:` builtin nor
    /// a data-service function of a declared import.
    A105,
    /// A function call whose namespace prefix is not declared.
    A106,
    /// Re-inferred expression typing disagrees with the stage-2
    /// annotation recorded on the IR node (type or nullability).
    T001,
    /// An ill-typed operation in the prepared IR (arithmetic over a
    /// non-numeric, an ordered/numeric aggregate over an incomparable
    /// type, comparison across incompatible type classes).
    T002,
    /// An output column's declared type/nullability disagrees with its
    /// projection item's inferred typing.
    T003,
    /// The generated `<RECORD>` shape does not match the declared output
    /// columns (arity, element names, or order).
    T004,
    /// A result column's type class differs between the SQL-side and the
    /// XQuery-side inference (a cast was lost or widened in generation).
    T005,
    /// A result column's nullability differs between the two inferences
    /// (conditional construction where the column is NOT NULL, or
    /// unconditional construction where NULL is possible).
    T006,
    /// A result column may yield more than one item per row (a missing
    /// `fn:zero-or-one`/aggregation guard) — no SQL column has that
    /// cardinality.
    T007,
    /// Driver-visible `ResultSetMetaData` disagrees with the inferred
    /// output typing (paper §4: the computed result schema drives the
    /// JDBC metadata).
    T008,
    /// Row-set mismatch: on some witness database the generated XQuery
    /// returns a different set of rows than the reference interpreter
    /// (rows present on one side only).
    V001,
    /// Duplicate-multiplicity mismatch: both sides agree on the distinct
    /// rows but disagree on how many times some row appears (bag
    /// semantics, SQL-92 §7.10).
    V002,
    /// NULL-handling divergence: both sides return the same number of
    /// rows, and every disagreeing cell has a NULL on exactly one side
    /// (lost or invented NULLs — 3VL or padding gone wrong).
    V003,
    /// Ordering divergence: the result bags agree but the generated
    /// query's row order violates the statement's ORDER BY specification.
    V004,
    /// Column-value divergence: both sides return the same number of rows
    /// but some non-NULL cell values differ (a miscompiled expression).
    V005,
    /// The XQuery evaluator rejected (or the transport failed to decode)
    /// a translation the reference interpreter executes cleanly.
    V006,
}

impl DiagCode {
    /// The code as printed (`"A101"`).
    pub fn as_str(self) -> &'static str {
        match self {
            DiagCode::A001 => "A001",
            DiagCode::A002 => "A002",
            DiagCode::A003 => "A003",
            DiagCode::A004 => "A004",
            DiagCode::A005 => "A005",
            DiagCode::A006 => "A006",
            DiagCode::A007 => "A007",
            DiagCode::A008 => "A008",
            DiagCode::A100 => "A100",
            DiagCode::A101 => "A101",
            DiagCode::A102 => "A102",
            DiagCode::A103 => "A103",
            DiagCode::A104 => "A104",
            DiagCode::A105 => "A105",
            DiagCode::A106 => "A106",
            DiagCode::T001 => "T001",
            DiagCode::T002 => "T002",
            DiagCode::T003 => "T003",
            DiagCode::T004 => "T004",
            DiagCode::T005 => "T005",
            DiagCode::T006 => "T006",
            DiagCode::T007 => "T007",
            DiagCode::T008 => "T008",
            DiagCode::V001 => "V001",
            DiagCode::V002 => "V002",
            DiagCode::V003 => "V003",
            DiagCode::V004 => "V004",
            DiagCode::V005 => "V005",
            DiagCode::V006 => "V006",
        }
    }

    /// The analyzer layer that produces the code, as printed by
    /// `analyze --format json`.
    pub fn layer(self) -> &'static str {
        match self.as_str().as_bytes()[0] {
            b'A' if self.as_str() < "A100" => "ir",
            b'A' => "xquery",
            b'T' => "types",
            _ => "validation",
        }
    }

    /// Short rule name, for the `analyze` bin's listing.
    pub fn rule(self) -> &'static str {
        match self {
            DiagCode::A001 => "duplicate query-context id",
            DiagCode::A002 => "range-variable collision",
            DiagCode::A003 => "unresolved column reference",
            DiagCode::A004 => "GROUP BY legality",
            DiagCode::A005 => "projection/output mismatch",
            DiagCode::A006 => "ORDER BY index out of range",
            DiagCode::A007 => "set-operation arity mismatch",
            DiagCode::A008 => "internal node leaked from stage two",
            DiagCode::A100 => "generated XQuery does not parse",
            DiagCode::A101 => "unbound variable",
            DiagCode::A102 => "shadowed binding",
            DiagCode::A103 => "dead let binding",
            DiagCode::A104 => "variable naming/zone violation",
            DiagCode::A105 => "unmapped function call",
            DiagCode::A106 => "undeclared namespace prefix",
            DiagCode::T001 => "stage-2 type annotation mismatch",
            DiagCode::T002 => "ill-typed operation",
            DiagCode::T003 => "output column typing mismatch",
            DiagCode::T004 => "RECORD shape mismatch",
            DiagCode::T005 => "type lost in translation",
            DiagCode::T006 => "nullability lost in translation",
            DiagCode::T007 => "cardinality violation",
            DiagCode::T008 => "result-set metadata mismatch",
            DiagCode::V001 => "row-set mismatch on witness database",
            DiagCode::V002 => "duplicate-multiplicity mismatch",
            DiagCode::V003 => "NULL-handling divergence",
            DiagCode::V004 => "ordering divergence under ORDER BY",
            DiagCode::V005 => "column-value divergence",
            DiagCode::V006 => "evaluator rejected a valid translation",
        }
    }
}

impl fmt::Display for DiagCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code.
    pub code: DiagCode,
    /// Human-readable detail naming the offending construct.
    pub message: String,
}

impl Diagnostic {
    /// Builds a diagnostic.
    pub fn new(code: DiagCode, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]: {}", self.code, self.code.rule(), self.message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_code_and_rule() {
        let d = Diagnostic::new(DiagCode::A101, "$x is not in scope");
        assert_eq!(d.to_string(), "A101 [unbound variable]: $x is not in scope");
    }

    #[test]
    fn layer_is_derived_from_code() {
        assert_eq!(DiagCode::A001.layer(), "ir");
        assert_eq!(DiagCode::A100.layer(), "xquery");
        assert_eq!(DiagCode::T004.layer(), "types");
        assert_eq!(DiagCode::V002.layer(), "validation");
    }
}
