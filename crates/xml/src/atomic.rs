//! Typed atomic values and the XML Schema types the translator targets.
//!
//! The translator maps SQL column types to XML Schema types and generates
//! `xs:*` cast expressions where SQL's promotion rules demand them (paper
//! §3.5 (v)). The evaluator in `aldsp-xquery` performs arithmetic and
//! comparisons on these values using the same promotion lattice, so that a
//! translated query computes the same answers as direct SQL execution.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;

/// The XML Schema atomic types used by the generated query dialect.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum XsType {
    /// `xs:string`
    String,
    /// `xs:integer` (we use 64-bit like the platform's long-backed integers)
    Integer,
    /// `xs:decimal` — represented as `f64`; see DESIGN.md §2 for the
    /// substitution rationale (both engines share the representation, so
    /// differential tests stay exact).
    Decimal,
    /// `xs:double`
    Double,
    /// `xs:boolean`
    Boolean,
    /// `xs:date` — ISO `YYYY-MM-DD` lexical form; comparisons are
    /// lexicographic, which coincides with chronological order.
    Date,
    /// `xs:untypedAtomic` — the type of atomized node content that carries
    /// no schema type. General comparisons and arithmetic coerce untyped
    /// operands to the other operand's type (XQuery 1.0 §3.5.2), which is
    /// what makes the paper's Example 8 (`$var1FR2/ID > xs:integer(10)`)
    /// compare numerically.
    Untyped,
}

impl XsType {
    /// The prefixed lexical name, as written in generated casts.
    pub fn xs_name(self) -> &'static str {
        match self {
            XsType::String => "xs:string",
            XsType::Integer => "xs:integer",
            XsType::Decimal => "xs:decimal",
            XsType::Double => "xs:double",
            XsType::Boolean => "xs:boolean",
            XsType::Date => "xs:date",
            XsType::Untyped => "xs:untypedAtomic",
        }
    }

    /// Resolves a lexical `xs:*` name (with or without the prefix).
    pub fn from_xs_name(name: &str) -> Option<XsType> {
        let local = name.strip_prefix("xs:").unwrap_or(name);
        Some(match local {
            "string" => XsType::String,
            "integer" | "int" | "long" | "short" => XsType::Integer,
            "decimal" => XsType::Decimal,
            "double" | "float" => XsType::Double,
            "boolean" => XsType::Boolean,
            "date" => XsType::Date,
            "untypedAtomic" => XsType::Untyped,
            _ => return None,
        })
    }

    /// True for the numeric types participating in arithmetic promotion.
    pub fn is_numeric(self) -> bool {
        matches!(self, XsType::Integer | XsType::Decimal | XsType::Double)
    }

    /// The common type two numeric operands promote to
    /// (integer < decimal < double).
    pub fn promote(self, other: XsType) -> XsType {
        use XsType::*;
        match (self, other) {
            (Double, _) | (_, Double) => Double,
            (Decimal, _) | (_, Decimal) => Decimal,
            _ => Integer,
        }
    }
}

/// An atomic value of the XQuery data model.
#[derive(Clone, Debug, PartialEq)]
pub enum Atomic {
    /// `xs:string`
    String(String),
    /// `xs:integer`
    Integer(i64),
    /// `xs:decimal` (f64-backed; see [`XsType::Decimal`])
    Decimal(f64),
    /// `xs:double`
    Double(f64),
    /// `xs:boolean`
    Boolean(bool),
    /// `xs:date` in ISO `YYYY-MM-DD` form
    Date(String),
    /// `xs:untypedAtomic` — atomized node content without schema type.
    Untyped(String),
}

/// Error produced by failing casts and invalid arithmetic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CastError {
    /// Human-readable description including the offending value and target.
    pub message: String,
}

impl fmt::Display for CastError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CastError {}

fn cast_err(value: &Atomic, target: XsType) -> CastError {
    CastError {
        message: format!(
            "cannot cast {} ({}) to {}",
            value.lexical(),
            value.xs_type().xs_name(),
            target.xs_name()
        ),
    }
}

impl Atomic {
    /// The dynamic type of this value.
    pub fn xs_type(&self) -> XsType {
        match self {
            Atomic::String(_) => XsType::String,
            Atomic::Integer(_) => XsType::Integer,
            Atomic::Decimal(_) => XsType::Decimal,
            Atomic::Double(_) => XsType::Double,
            Atomic::Boolean(_) => XsType::Boolean,
            Atomic::Date(_) => XsType::Date,
            Atomic::Untyped(_) => XsType::Untyped,
        }
    }

    /// The canonical lexical representation, as produced by
    /// `fn-bea:serialize-atomic` in result transport (paper §4).
    pub fn lexical(&self) -> String {
        self.lexical_str().into_owned()
    }

    /// [`Atomic::lexical`] without the copy where the value already is its
    /// lexical form — what a writer escapes straight into its buffer.
    pub fn lexical_str(&self) -> Cow<'_, str> {
        match self {
            Atomic::String(s) | Atomic::Date(s) | Atomic::Untyped(s) => Cow::Borrowed(s),
            Atomic::Integer(i) => Cow::Owned(i.to_string()),
            Atomic::Decimal(d) => Cow::Owned(format_decimal(*d)),
            Atomic::Double(d) => Cow::Owned(format_double(*d)),
            Atomic::Boolean(b) => Cow::Borrowed(if *b { "true" } else { "false" }),
        }
    }

    /// Appends [`Atomic::lexical`] to `out`, without a string of its own
    /// per value — for a caller that formats many values through one
    /// buffer.
    pub fn write_lexical(&self, out: &mut String) {
        match self {
            Atomic::Integer(i) => write_display(out, i),
            Atomic::Decimal(d) => write_decimal(out, *d),
            Atomic::Double(d) => write_double(out, *d),
            other => out.push_str(&other.lexical_str()),
        }
    }

    /// Numeric value as `f64` for promotion-based arithmetic; `None` for
    /// non-numeric values.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Atomic::Integer(i) => Some(*i as f64),
            Atomic::Decimal(d) | Atomic::Double(d) => Some(*d),
            _ => None,
        }
    }

    /// Casts this value to `target` following XQuery's `cast as` rules for
    /// the supported types.
    pub fn cast_to(&self, target: XsType) -> Result<Atomic, CastError> {
        if self.xs_type() == target {
            return Ok(self.clone());
        }
        match target {
            XsType::String => Ok(Atomic::String(self.lexical())),
            XsType::Untyped => Ok(Atomic::Untyped(self.lexical())),
            XsType::Integer => match self {
                Atomic::Decimal(d) | Atomic::Double(d) => Ok(Atomic::Integer(*d as i64)),
                Atomic::Boolean(b) => Ok(Atomic::Integer(i64::from(*b))),
                Atomic::String(s) | Atomic::Untyped(s) => s
                    .trim()
                    .parse::<i64>()
                    .map(Atomic::Integer)
                    .map_err(|_| cast_err(self, target)),
                _ => Err(cast_err(self, target)),
            },
            XsType::Decimal => match self {
                Atomic::Integer(i) => Ok(Atomic::Decimal(*i as f64)),
                Atomic::Double(d) => Ok(Atomic::Decimal(*d)),
                Atomic::Boolean(b) => Ok(Atomic::Decimal(f64::from(*b as u8))),
                Atomic::String(s) | Atomic::Untyped(s) => s
                    .trim()
                    .parse::<f64>()
                    .map(Atomic::Decimal)
                    .map_err(|_| cast_err(self, target)),
                _ => Err(cast_err(self, target)),
            },
            XsType::Double => match self {
                Atomic::Integer(i) => Ok(Atomic::Double(*i as f64)),
                Atomic::Decimal(d) => Ok(Atomic::Double(*d)),
                Atomic::Boolean(b) => Ok(Atomic::Double(f64::from(*b as u8))),
                Atomic::String(s) | Atomic::Untyped(s) => s
                    .trim()
                    .parse::<f64>()
                    .map(Atomic::Double)
                    .map_err(|_| cast_err(self, target)),
                _ => Err(cast_err(self, target)),
            },
            XsType::Boolean => match self {
                Atomic::Integer(i) => Ok(Atomic::Boolean(*i != 0)),
                Atomic::Decimal(d) | Atomic::Double(d) => Ok(Atomic::Boolean(*d != 0.0)),
                Atomic::String(s) | Atomic::Untyped(s) => match s.trim() {
                    "true" | "1" => Ok(Atomic::Boolean(true)),
                    "false" | "0" => Ok(Atomic::Boolean(false)),
                    _ => Err(cast_err(self, target)),
                },
                _ => Err(cast_err(self, target)),
            },
            XsType::Date => match self {
                Atomic::String(s) | Atomic::Untyped(s) if is_iso_date(s.trim()) => {
                    Ok(Atomic::Date(s.trim().to_string()))
                }
                _ => Err(cast_err(self, target)),
            },
        }
    }

    /// Value comparison following XQuery's rules for the supported types:
    /// numerics compare after promotion; strings, booleans, and dates
    /// compare within their own type. `None` when the types are
    /// incomparable.
    pub fn compare(&self, other: &Atomic) -> Option<Ordering> {
        use Atomic::*;
        match (self, other) {
            // Untyped coercion (XQuery 1.0 general-comparison rules):
            // against a numeric operand the untyped value casts to
            // xs:double; against strings/dates/booleans to that type; two
            // untyped values compare as strings.
            (Untyped(a), Untyped(b)) => Some(a.cmp(b)),
            (Untyped(_), typed) => {
                let target = if typed.xs_type().is_numeric() {
                    XsType::Double
                } else {
                    typed.xs_type()
                };
                let coerced = self.cast_to(target).ok()?;
                coerced.compare(typed)
            }
            (typed, Untyped(_)) => {
                let target = if typed.xs_type().is_numeric() {
                    XsType::Double
                } else {
                    typed.xs_type()
                };
                let coerced = other.cast_to(target).ok()?;
                typed.compare(&coerced)
            }
            (String(a), String(b)) => Some(a.cmp(b)),
            (Boolean(a), Boolean(b)) => Some(a.cmp(b)),
            (Date(a), Date(b)) => Some(a.cmp(b)),
            // Untyped comparisons between dates and their string lexical
            // form arise when row element content (text) meets a literal.
            (Date(a), String(b)) | (String(a), Date(b)) => Some(a.cmp(b)),
            (Integer(a), Integer(b)) => Some(a.cmp(b)),
            _ => {
                let a = self.as_f64()?;
                let b = other.as_f64()?;
                a.partial_cmp(&b)
            }
        }
    }

    /// The XQuery *effective boolean value* of a single atomic item.
    pub fn effective_boolean(&self) -> bool {
        match self {
            Atomic::Boolean(b) => *b,
            Atomic::String(s) | Atomic::Date(s) | Atomic::Untyped(s) => !s.is_empty(),
            Atomic::Integer(i) => *i != 0,
            Atomic::Decimal(d) | Atomic::Double(d) => *d != 0.0 && !d.is_nan(),
        }
    }
}

impl fmt::Display for Atomic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.lexical())
    }
}

/// Formats an `xs:double` the way the platform serializes it: integral
/// doubles print without an exponent or trailing `.0` noise beyond one
/// decimal, matching SQL result expectations for DOUBLE columns.
pub fn format_double(d: f64) -> String {
    let mut out = String::new();
    write_double(&mut out, d);
    out
}

fn write_double(out: &mut String, d: f64) {
    if d.is_nan() {
        out.push_str("NaN")
    } else if d.is_infinite() {
        out.push_str(if d > 0.0 { "INF" } else { "-INF" })
    } else if d == d.trunc() && d.abs() < 1e15 {
        write_display(out, format_args!("{:.1}", d))
    } else {
        write_display(out, d)
    }
}

/// Formats an `xs:decimal`: no exponent, minimal digits.
pub fn format_decimal(d: f64) -> String {
    let mut out = String::new();
    write_decimal(&mut out, d);
    out
}

fn write_decimal(out: &mut String, d: f64) {
    if d == d.trunc() && d.abs() < 1e15 {
        write_display(out, d as i64)
    } else {
        write_display(out, d)
    }
}

fn write_display(out: &mut String, value: impl fmt::Display) {
    use fmt::Write;
    write!(out, "{value}").expect("writing to a String cannot fail");
}

/// Recognizes the ISO `YYYY-MM-DD` lexical form.
pub fn is_iso_date(s: &str) -> bool {
    let bytes = s.as_bytes();
    bytes.len() == 10
        && bytes[4] == b'-'
        && bytes[7] == b'-'
        && bytes
            .iter()
            .enumerate()
            .all(|(i, b)| i == 4 || i == 7 || b.is_ascii_digit())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn promotion_lattice() {
        assert_eq!(XsType::Integer.promote(XsType::Integer), XsType::Integer);
        assert_eq!(XsType::Integer.promote(XsType::Decimal), XsType::Decimal);
        assert_eq!(XsType::Decimal.promote(XsType::Double), XsType::Double);
        assert_eq!(XsType::Double.promote(XsType::Integer), XsType::Double);
    }

    #[test]
    fn cast_string_to_integer() {
        let v = Atomic::String(" 42 ".into());
        assert_eq!(v.cast_to(XsType::Integer), Ok(Atomic::Integer(42)));
    }

    #[test]
    fn cast_bad_string_to_integer_fails() {
        let v = Atomic::String("Sue".into());
        assert!(v.cast_to(XsType::Integer).is_err());
    }

    #[test]
    fn cast_double_truncates_to_integer() {
        assert_eq!(
            Atomic::Double(5.9).cast_to(XsType::Integer),
            Ok(Atomic::Integer(5))
        );
    }

    #[test]
    fn compare_cross_numeric() {
        assert_eq!(
            Atomic::Integer(2).compare(&Atomic::Double(2.5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Atomic::Decimal(3.0).compare(&Atomic::Integer(3)),
            Some(Ordering::Equal)
        );
    }

    #[test]
    fn compare_string_and_integer_incomparable() {
        assert_eq!(
            Atomic::String("2".into()).compare(&Atomic::Integer(2)),
            None
        );
    }

    #[test]
    fn date_order_is_chronological() {
        let a = Atomic::Date("2006-01-31".into());
        let b = Atomic::Date("2006-02-01".into());
        assert_eq!(a.compare(&b), Some(Ordering::Less));
    }

    #[test]
    fn iso_date_recognition() {
        assert!(is_iso_date("2006-07-05"));
        assert!(!is_iso_date("2006-7-5"));
        assert!(!is_iso_date("not-a-date"));
    }

    #[test]
    fn double_formatting() {
        assert_eq!(format_double(3.0), "3.0");
        assert_eq!(format_double(3.25), "3.25");
        assert_eq!(format_double(f64::INFINITY), "INF");
    }

    #[test]
    fn decimal_formatting_drops_trailing_zero() {
        assert_eq!(format_decimal(3.0), "3");
        assert_eq!(format_decimal(3.5), "3.5");
    }

    #[test]
    fn effective_boolean_values() {
        assert!(Atomic::Integer(7).effective_boolean());
        assert!(!Atomic::Integer(0).effective_boolean());
        assert!(!Atomic::String(String::new()).effective_boolean());
        assert!(Atomic::String("x".into()).effective_boolean());
        assert!(!Atomic::Double(f64::NAN).effective_boolean());
    }

    #[test]
    fn xs_name_roundtrip() {
        for t in [
            XsType::String,
            XsType::Integer,
            XsType::Decimal,
            XsType::Double,
            XsType::Boolean,
            XsType::Date,
        ] {
            assert_eq!(XsType::from_xs_name(t.xs_name()), Some(t));
        }
    }
}
