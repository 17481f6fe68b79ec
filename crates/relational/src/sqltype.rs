//! The one SQL type table: name-level and value-level conversions that
//! were previously duplicated between this crate's evaluator and the
//! driver's result-set decoding.
//!
//! Three conversions live here:
//!
//! * [`type_name_to_column`] — AST type names (`CAST(x AS t)`) to catalog
//!   column types. Used by the expression evaluator and the executor's
//!   output-typing pass.
//! * [`decode_cell`] — one transported text cell (either transport's
//!   payload) to a typed [`SqlValue`], driven by the column's declared
//!   type. Used by the driver's `ResultSet` builders.
//! * [`parse_double`] — the XML-Schema lexical space for doubles
//!   (`INF`/`-INF`/`NaN` plus ordinary numerals), shared by
//!   [`decode_cell`] and any caller that reads serialized `xs:double`.

use crate::value::SqlValue;
use aldsp_catalog::SqlColumnType;
use aldsp_sql::SqlTypeName;
use std::borrow::Cow;

/// Maps AST type names to catalog column types.
pub fn type_name_to_column(t: SqlTypeName) -> SqlColumnType {
    match t {
        SqlTypeName::Smallint => SqlColumnType::Smallint,
        SqlTypeName::Integer => SqlColumnType::Integer,
        SqlTypeName::Bigint => SqlColumnType::Bigint,
        SqlTypeName::Decimal => SqlColumnType::Decimal,
        SqlTypeName::Real => SqlColumnType::Real,
        SqlTypeName::Double => SqlColumnType::Double,
        SqlTypeName::Char => SqlColumnType::Char,
        SqlTypeName::Varchar => SqlColumnType::Varchar,
        SqlTypeName::Date => SqlColumnType::Date,
    }
}

/// Parses a reported SQL type name (the `ResultSetMetaData` spelling,
/// [`SqlColumnType::sql_name`]) back to the column type — the inverse the
/// analyzer's metadata cross-check uses. `None` for unknown names.
pub fn column_type_from_name(name: &str) -> Option<SqlColumnType> {
    use SqlColumnType as T;
    Some(match name {
        "SMALLINT" => T::Smallint,
        "INTEGER" => T::Integer,
        "BIGINT" => T::Bigint,
        "DECIMAL" => T::Decimal,
        "REAL" => T::Real,
        "DOUBLE" => T::Double,
        "CHAR" => T::Char,
        "VARCHAR" => T::Varchar,
        "DATE" => T::Date,
        "BOOLEAN" => T::Boolean,
        _ => return None,
    })
}

/// Decodes one transported cell into a typed value. `None` is the absent
/// cell (SQL NULL in both transports); text cells are interpreted per the
/// declared column type, untyped columns stay strings. The cell may be a
/// slice of the payload: only a string or date value copies it. The error
/// is a plain message; the driver wraps it in its own error type.
pub fn decode_cell(
    cell: Option<Cow<'_, str>>,
    sql_type: Option<SqlColumnType>,
) -> Result<SqlValue, String> {
    let Some(text) = cell else {
        return Ok(SqlValue::Null);
    };
    use SqlColumnType as T;
    let value = match sql_type {
        None | Some(T::Char) | Some(T::Varchar) => SqlValue::Str(text.into_owned()),
        Some(T::Smallint) | Some(T::Integer) | Some(T::Bigint) => SqlValue::Int(
            text.trim()
                .parse()
                .map_err(|_| format!("bad integer `{text}`"))?,
        ),
        Some(T::Decimal) => SqlValue::Decimal(
            text.trim()
                .parse()
                .map_err(|_| format!("bad decimal `{text}`"))?,
        ),
        Some(T::Real) | Some(T::Double) => SqlValue::Double(parse_double(&text)?),
        Some(T::Date) => SqlValue::Date(text.into_owned()),
        Some(T::Boolean) => match text.trim() {
            "true" | "1" => SqlValue::Bool(true),
            "false" | "0" => SqlValue::Bool(false),
            other => return Err(format!("bad boolean `{other}`")),
        },
    };
    Ok(value)
}

/// Parses the `xs:double` lexical space (`INF`, `-INF`, `NaN`, numerals).
pub fn parse_double(text: &str) -> Result<f64, String> {
    match text.trim() {
        "INF" => Ok(f64::INFINITY),
        "-INF" => Ok(f64::NEG_INFINITY),
        "NaN" => Ok(f64::NAN),
        t => t.parse().map_err(|_| format!("bad double `{text}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_name_map_is_total() {
        use SqlTypeName as N;
        for t in [
            N::Smallint,
            N::Integer,
            N::Bigint,
            N::Decimal,
            N::Real,
            N::Double,
            N::Char,
            N::Varchar,
            N::Date,
        ] {
            // Every AST type name lands on a catalog type whose canonical
            // SQL spelling round-trips through the catalog's own table.
            let col = type_name_to_column(t);
            assert!(!col.sql_name().is_empty());
        }
    }

    #[test]
    fn name_roundtrip_is_total() {
        use SqlColumnType as T;
        for t in [
            T::Smallint,
            T::Integer,
            T::Bigint,
            T::Decimal,
            T::Real,
            T::Double,
            T::Char,
            T::Varchar,
            T::Date,
            T::Boolean,
        ] {
            assert_eq!(column_type_from_name(t.sql_name()), Some(t));
        }
        assert_eq!(column_type_from_name("BLOB"), None);
    }

    #[test]
    fn decode_cell_types_and_nulls() {
        assert_eq!(
            decode_cell(None, Some(SqlColumnType::Integer)),
            Ok(SqlValue::Null)
        );
        assert_eq!(
            decode_cell(Some("55".into()), Some(SqlColumnType::Integer)),
            Ok(SqlValue::Int(55))
        );
        assert_eq!(
            decode_cell(Some("a".into()), None),
            Ok(SqlValue::Str("a".into()))
        );
        assert_eq!(
            decode_cell(Some("INF".into()), Some(SqlColumnType::Double)),
            Ok(SqlValue::Double(f64::INFINITY))
        );
        assert!(decode_cell(Some("x".into()), Some(SqlColumnType::Decimal)).is_err());
        assert!(decode_cell(Some("maybe".into()), Some(SqlColumnType::Boolean)).is_err());
    }

    #[test]
    fn double_lexical_space() {
        assert_eq!(parse_double(" -INF "), Ok(f64::NEG_INFINITY));
        assert!(parse_double("NaN").unwrap().is_nan());
        assert_eq!(parse_double("1.5"), Ok(1.5));
        assert!(parse_double("one").is_err());
    }
}
