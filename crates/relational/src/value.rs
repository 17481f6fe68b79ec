//! Runtime SQL values.
//!
//! The representation deliberately parallels `aldsp_xml::Atomic` (integers
//! are `i64`, decimals are `f64`, dates are ISO strings) so that the
//! relational oracle and the XQuery evaluator agree bit-for-bit in
//! differential tests — see DESIGN.md §2 on the decimal substitution.

use aldsp_catalog::SqlColumnType;
use aldsp_xml::{Atomic, Sequence};
use std::cmp::Ordering;
use std::fmt;

/// A runtime SQL value. `Null` is a first-class member (SQL's three-valued
/// logic needs it everywhere).
#[derive(Debug, Clone, PartialEq)]
pub enum SqlValue {
    /// SQL NULL.
    Null,
    /// SMALLINT/INTEGER/BIGINT.
    Int(i64),
    /// DECIMAL/NUMERIC (f64-backed, see crate docs).
    Decimal(f64),
    /// REAL/DOUBLE.
    Double(f64),
    /// CHAR/VARCHAR.
    Str(String),
    /// BOOLEAN.
    Bool(bool),
    /// DATE in ISO `YYYY-MM-DD` form.
    Date(String),
}

/// Errors raised during evaluation (type mismatches, overflow, bad casts).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValueError {
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ValueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ValueError {}

fn err(message: impl Into<String>) -> ValueError {
    ValueError {
        message: message.into(),
    }
}

impl SqlValue {
    /// True for NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, SqlValue::Null)
    }

    /// The value's dynamic SQL type; `None` for NULL (untyped).
    pub fn sql_type(&self) -> Option<SqlColumnType> {
        match self {
            SqlValue::Null => None,
            SqlValue::Int(_) => Some(SqlColumnType::Bigint),
            SqlValue::Decimal(_) => Some(SqlColumnType::Decimal),
            SqlValue::Double(_) => Some(SqlColumnType::Double),
            SqlValue::Str(_) => Some(SqlColumnType::Varchar),
            SqlValue::Bool(_) => Some(SqlColumnType::Boolean),
            SqlValue::Date(_) => Some(SqlColumnType::Date),
        }
    }

    /// Numeric view for promotion arithmetic.
    fn as_f64(&self) -> Option<f64> {
        match self {
            SqlValue::Int(i) => Some(*i as f64),
            SqlValue::Decimal(d) | SqlValue::Double(d) => Some(*d),
            _ => None,
        }
    }

    /// SQL comparison. NULL compared with anything is `None` (UNKNOWN);
    /// incomparable types are an error.
    pub fn compare(&self, other: &SqlValue) -> Result<Option<Ordering>, ValueError> {
        use SqlValue::*;
        match (self, other) {
            (Null, _) | (_, Null) => Ok(None),
            (Int(a), Int(b)) => Ok(Some(a.cmp(b))),
            (Str(a), Str(b)) => Ok(Some(a.cmp(b))),
            (Bool(a), Bool(b)) => Ok(Some(a.cmp(b))),
            (Date(a), Date(b)) => Ok(Some(a.cmp(b))),
            // Dates meet strings when literals are compared to DATE
            // columns in tools that skip the DATE keyword.
            (Date(a), Str(b)) | (Str(a), Date(b)) => Ok(Some(a.cmp(b))),
            _ => {
                let a = self
                    .as_f64()
                    .ok_or_else(|| err(format!("cannot compare {self:?} with {other:?}")))?;
                let b = other
                    .as_f64()
                    .ok_or_else(|| err(format!("cannot compare {self:?} with {other:?}")))?;
                Ok(a.partial_cmp(&b))
            }
        }
    }

    /// Total ordering for ORDER BY and grouping keys: NULL sorts lowest
    /// ("empty least", matching XQuery's default and therefore the
    /// translated queries).
    pub fn sort_cmp(&self, other: &SqlValue) -> Ordering {
        use SqlValue::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            _ => self
                .compare(other)
                .ok()
                .flatten()
                .unwrap_or(Ordering::Equal),
        }
    }

    /// Grouping/duplicate-elimination equality: NULLs are equal to each
    /// other (SQL's "not distinct from"), values equal per [`SqlValue::compare`].
    pub fn group_eq(&self, other: &SqlValue) -> bool {
        match (self, other) {
            (SqlValue::Null, SqlValue::Null) => true,
            (SqlValue::Null, _) | (_, SqlValue::Null) => false,
            _ => self.compare(other).ok().flatten() == Some(Ordering::Equal),
        }
    }

    /// A key string for hashing groups/duplicates consistently with
    /// [`SqlValue::group_eq`]: numeric values of equal magnitude collapse.
    pub fn group_key(&self) -> String {
        match self {
            SqlValue::Null => "\u{0}N".to_string(),
            SqlValue::Int(i) => format!("n{}", *i as f64),
            SqlValue::Decimal(d) | SqlValue::Double(d) => format!("n{d}"),
            SqlValue::Str(s) => format!("s{s}"),
            SqlValue::Bool(b) => format!("b{b}"),
            SqlValue::Date(d) => format!("d{d}"),
        }
    }

    /// Result agreement, as the differential harnesses and the layer-5
    /// validator judge two cells: NULL agrees with NULL only, anything else
    /// by [`SqlValue::group_key`] — so numerics agree by magnitude (a
    /// transport decodes `SUM(int)` as Int where an interpreter may hold a
    /// Decimal of equal value) and NaN agrees with NaN, which
    /// [`SqlValue::group_eq`]'s SQL comparison would not allow.
    pub fn agrees_with(&self, other: &SqlValue) -> bool {
        self.group_key() == other.group_key()
    }

    /// Arithmetic with SQL type promotion: Int⊕Int→Int (`/` truncates
    /// toward zero), anything involving Double→Double, else Decimal.
    pub fn arith(&self, op: ArithOp, other: &SqlValue) -> Result<SqlValue, ValueError> {
        use SqlValue::*;
        if self.is_null() || other.is_null() {
            return Ok(Null);
        }
        match (self, other) {
            (Int(a), Int(b)) => {
                let result = match op {
                    ArithOp::Add => a.checked_add(*b),
                    ArithOp::Sub => a.checked_sub(*b),
                    ArithOp::Mul => a.checked_mul(*b),
                    ArithOp::Div => {
                        if *b == 0 {
                            return Err(err("division by zero"));
                        }
                        a.checked_div(*b)
                    }
                };
                result.map(Int).ok_or_else(|| err("integer overflow"))
            }
            _ => {
                let a = self
                    .as_f64()
                    .ok_or_else(|| err(format!("non-numeric operand {self:?}")))?;
                let b = other
                    .as_f64()
                    .ok_or_else(|| err(format!("non-numeric operand {other:?}")))?;
                let r = match op {
                    ArithOp::Add => a + b,
                    ArithOp::Sub => a - b,
                    ArithOp::Mul => a * b,
                    ArithOp::Div => {
                        if b == 0.0 {
                            return Err(err("division by zero"));
                        }
                        a / b
                    }
                };
                let double = matches!(self, Double(_)) || matches!(other, Double(_));
                Ok(if double { Double(r) } else { Decimal(r) })
            }
        }
    }

    /// String concatenation (`||`); NULL-propagating, non-strings use
    /// their display form (tools rely on implicit char conversion).
    pub fn concat(&self, other: &SqlValue) -> SqlValue {
        if self.is_null() || other.is_null() {
            return SqlValue::Null;
        }
        SqlValue::Str(format!("{}{}", self.display_text(), other.display_text()))
    }

    /// The text a result set shows for this value ("NULL" never appears —
    /// null checks happen before display).
    pub fn display_text(&self) -> String {
        match self {
            SqlValue::Null => String::new(),
            SqlValue::Int(i) => i.to_string(),
            SqlValue::Decimal(d) => aldsp_xml::atomic::format_decimal(*d),
            SqlValue::Double(d) => aldsp_xml::atomic::format_double(*d),
            SqlValue::Str(s) => s.clone(),
            SqlValue::Bool(b) => b.to_string(),
            SqlValue::Date(d) => d.clone(),
        }
    }

    /// Converts to the XML atomic the data-service layer would return for
    /// this value; `None` for NULL (element absent).
    pub fn to_atomic(&self) -> Option<Atomic> {
        match self {
            SqlValue::Null => None,
            SqlValue::Int(i) => Some(Atomic::Integer(*i)),
            SqlValue::Decimal(d) => Some(Atomic::Decimal(*d)),
            SqlValue::Double(d) => Some(Atomic::Double(*d)),
            SqlValue::Str(s) => Some(Atomic::String(s.clone())),
            SqlValue::Bool(b) => Some(Atomic::Boolean(*b)),
            SqlValue::Date(d) => Some(Atomic::Date(d.clone())),
        }
    }

    /// Converts back from an XML atomic (driver result parsing).
    pub fn from_atomic(a: &Atomic) -> SqlValue {
        match a {
            Atomic::Integer(i) => SqlValue::Int(*i),
            Atomic::Decimal(d) => SqlValue::Decimal(*d),
            Atomic::Double(d) => SqlValue::Double(*d),
            Atomic::String(s) => SqlValue::Str(s.clone()),
            Atomic::Boolean(b) => SqlValue::Bool(*b),
            Atomic::Date(d) => SqlValue::Date(d.clone()),
            // Untyped content arriving from the XML layer reads as text.
            Atomic::Untyped(s) => SqlValue::Str(s.clone()),
        }
    }

    /// CAST to a SQL type class.
    pub fn cast_to(&self, target: SqlColumnType) -> Result<SqlValue, ValueError> {
        use SqlColumnType as T;
        if self.is_null() {
            return Ok(SqlValue::Null);
        }
        let fail = || err(format!("cannot cast {self:?} to {}", target.sql_name()));
        match target {
            T::Smallint | T::Integer | T::Bigint => match self {
                SqlValue::Int(i) => Ok(SqlValue::Int(*i)),
                SqlValue::Decimal(d) | SqlValue::Double(d) => Ok(SqlValue::Int(*d as i64)),
                SqlValue::Str(s) => s
                    .trim()
                    .parse::<i64>()
                    .map(SqlValue::Int)
                    .map_err(|_| fail()),
                SqlValue::Bool(b) => Ok(SqlValue::Int(i64::from(*b))),
                _ => Err(fail()),
            },
            T::Decimal => match self {
                SqlValue::Int(i) => Ok(SqlValue::Decimal(*i as f64)),
                SqlValue::Decimal(d) | SqlValue::Double(d) => Ok(SqlValue::Decimal(*d)),
                SqlValue::Str(s) => s
                    .trim()
                    .parse::<f64>()
                    .map(SqlValue::Decimal)
                    .map_err(|_| fail()),
                _ => Err(fail()),
            },
            T::Real | T::Double => match self {
                SqlValue::Int(i) => Ok(SqlValue::Double(*i as f64)),
                SqlValue::Decimal(d) | SqlValue::Double(d) => Ok(SqlValue::Double(*d)),
                SqlValue::Str(s) => s
                    .trim()
                    .parse::<f64>()
                    .map(SqlValue::Double)
                    .map_err(|_| fail()),
                _ => Err(fail()),
            },
            T::Char | T::Varchar => Ok(SqlValue::Str(self.display_text())),
            T::Date => match self {
                SqlValue::Date(d) => Ok(SqlValue::Date(d.clone())),
                SqlValue::Str(s) if aldsp_xml::atomic::is_iso_date(s.trim()) => {
                    Ok(SqlValue::Date(s.trim().to_string()))
                }
                _ => Err(fail()),
            },
            T::Boolean => match self {
                SqlValue::Bool(b) => Ok(SqlValue::Bool(*b)),
                SqlValue::Int(i) => Ok(SqlValue::Bool(*i != 0)),
                _ => Err(fail()),
            },
        }
    }
}

/// The sequence a bound XQuery external variable holds for a SQL
/// parameter value: the singleton atomic, empty for NULL.
pub fn sql_value_to_sequence(value: &SqlValue) -> Sequence {
    match value.to_atomic() {
        Some(a) => Sequence::singleton(a),
        None => Sequence::empty(),
    }
}

/// The four arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

impl fmt::Display for SqlValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlValue::Null => f.write_str("NULL"),
            other => f.write_str(&other.display_text()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_propagates_through_arithmetic() {
        assert_eq!(
            SqlValue::Null
                .arith(ArithOp::Add, &SqlValue::Int(1))
                .unwrap(),
            SqlValue::Null
        );
    }

    #[test]
    fn integer_division_truncates() {
        assert_eq!(
            SqlValue::Int(7)
                .arith(ArithOp::Div, &SqlValue::Int(2))
                .unwrap(),
            SqlValue::Int(3)
        );
        assert_eq!(
            SqlValue::Int(-7)
                .arith(ArithOp::Div, &SqlValue::Int(2))
                .unwrap(),
            SqlValue::Int(-3)
        );
    }

    #[test]
    fn division_by_zero_is_error() {
        assert!(SqlValue::Int(1)
            .arith(ArithOp::Div, &SqlValue::Int(0))
            .is_err());
        assert!(SqlValue::Decimal(1.0)
            .arith(ArithOp::Div, &SqlValue::Decimal(0.0))
            .is_err());
    }

    #[test]
    fn promotion_int_decimal_double() {
        assert_eq!(
            SqlValue::Int(1)
                .arith(ArithOp::Add, &SqlValue::Decimal(0.5))
                .unwrap(),
            SqlValue::Decimal(1.5)
        );
        assert_eq!(
            SqlValue::Decimal(1.0)
                .arith(ArithOp::Mul, &SqlValue::Double(2.0))
                .unwrap(),
            SqlValue::Double(2.0)
        );
    }

    #[test]
    fn null_comparison_is_unknown() {
        assert_eq!(SqlValue::Null.compare(&SqlValue::Int(1)).unwrap(), None);
    }

    #[test]
    fn cross_type_numeric_comparison() {
        assert_eq!(
            SqlValue::Int(2).compare(&SqlValue::Decimal(2.0)).unwrap(),
            Some(Ordering::Equal)
        );
    }

    #[test]
    fn incomparable_types_error() {
        assert!(SqlValue::Int(1)
            .compare(&SqlValue::Str("1".into()))
            .is_err());
    }

    #[test]
    fn sort_null_first() {
        let mut values = [SqlValue::Int(2), SqlValue::Null, SqlValue::Int(1)];
        values.sort_by(|a, b| a.sort_cmp(b));
        assert_eq!(values[0], SqlValue::Null);
        assert_eq!(values[1], SqlValue::Int(1));
    }

    #[test]
    fn group_semantics_nulls_equal() {
        assert!(SqlValue::Null.group_eq(&SqlValue::Null));
        assert!(!SqlValue::Null.group_eq(&SqlValue::Int(0)));
        assert!(SqlValue::Int(1).group_eq(&SqlValue::Decimal(1.0)));
        assert_eq!(
            SqlValue::Int(1).group_key(),
            SqlValue::Decimal(1.0).group_key()
        );
    }

    #[test]
    fn concat_behaviour() {
        assert_eq!(
            SqlValue::Str("a".into()).concat(&SqlValue::Int(1)),
            SqlValue::Str("a1".into())
        );
        assert_eq!(
            SqlValue::Str("a".into()).concat(&SqlValue::Null),
            SqlValue::Null
        );
    }

    #[test]
    fn casts() {
        assert_eq!(
            SqlValue::Str(" 42 ".into())
                .cast_to(SqlColumnType::Integer)
                .unwrap(),
            SqlValue::Int(42)
        );
        assert_eq!(
            SqlValue::Decimal(3.9)
                .cast_to(SqlColumnType::Integer)
                .unwrap(),
            SqlValue::Int(3)
        );
        assert_eq!(
            SqlValue::Int(3).cast_to(SqlColumnType::Varchar).unwrap(),
            SqlValue::Str("3".into())
        );
        assert!(SqlValue::Str("x".into())
            .cast_to(SqlColumnType::Date)
            .is_err());
        assert_eq!(
            SqlValue::Null.cast_to(SqlColumnType::Integer).unwrap(),
            SqlValue::Null
        );
    }

    #[test]
    fn atomic_roundtrip() {
        for v in [
            SqlValue::Int(5),
            SqlValue::Decimal(1.5),
            SqlValue::Double(2.5),
            SqlValue::Str("x".into()),
            SqlValue::Bool(true),
            SqlValue::Date("2006-07-05".into()),
        ] {
            let a = v.to_atomic().unwrap();
            assert_eq!(SqlValue::from_atomic(&a), v);
        }
        assert_eq!(SqlValue::Null.to_atomic(), None);
    }

    #[test]
    fn overflow_is_error() {
        assert!(SqlValue::Int(i64::MAX)
            .arith(ArithOp::Add, &SqlValue::Int(1))
            .is_err());
    }
}
