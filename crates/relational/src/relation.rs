//! Materialized relations — the working value of the executor.

use crate::value::SqlValue;
use aldsp_catalog::SqlColumnType;
use std::collections::HashSet;

/// Metadata for one output column of a relation.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnInfo {
    /// The column's (output) name.
    pub name: String,
    /// The range variable / table the column came from, when it still has
    /// one (columns of expressions don't).
    pub qualifier: Option<String>,
    /// Declared or inferred type; `None` when unknown (e.g. NULL literal).
    pub sql_type: Option<SqlColumnType>,
    /// Whether NULLs may appear.
    pub nullable: bool,
}

impl ColumnInfo {
    /// Creates a column description.
    pub fn new(
        name: impl Into<String>,
        qualifier: Option<String>,
        sql_type: Option<SqlColumnType>,
        nullable: bool,
    ) -> ColumnInfo {
        ColumnInfo {
            name: name.into(),
            qualifier,
            sql_type,
            nullable,
        }
    }
}

/// A materialized relation: column metadata plus rows.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Relation {
    /// Column descriptions, in order.
    pub columns: Vec<ColumnInfo>,
    /// Rows; each row has exactly `columns.len()` values.
    pub rows: Vec<Vec<SqlValue>>,
}

impl Relation {
    /// An empty relation with the given columns.
    pub fn with_columns(columns: Vec<ColumnInfo>) -> Relation {
        Relation {
            columns,
            rows: Vec::new(),
        }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Finds columns matching a (possibly qualified) reference. Returns
    /// the indices of every match — the caller decides whether >1 is an
    /// ambiguity error.
    pub fn find_columns(&self, qualifier: Option<&str>, name: &str) -> Vec<usize> {
        self.columns
            .iter()
            .enumerate()
            .filter(|(_, c)| {
                c.name == name
                    && match qualifier {
                        None => true,
                        Some(q) => c.qualifier.as_deref() == Some(q),
                    }
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// Indices of all columns belonging to `qualifier` (for `T.*`).
    pub fn columns_of(&self, qualifier: &str) -> Vec<usize> {
        self.columns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.qualifier.as_deref() == Some(qualifier))
            .map(|(i, _)| i)
            .collect()
    }

    /// Cross product with another relation (used by comma FROM lists and
    /// as the base step of join evaluation).
    pub fn cross_join(&self, other: &Relation) -> Relation {
        let mut columns = self.columns.clone();
        columns.extend(other.columns.iter().cloned());
        let mut rows = Vec::with_capacity(self.rows.len() * other.rows.len());
        for left in &self.rows {
            for right in &other.rows {
                let mut row = left.clone();
                row.extend(right.iter().cloned());
                rows.push(row);
            }
        }
        Relation { columns, rows }
    }

    /// A row of all NULLs matching this relation's arity (outer-join
    /// padding).
    pub fn null_row(&self) -> Vec<SqlValue> {
        vec![SqlValue::Null; self.arity()]
    }

    /// DISTINCT: keeps the first row of every [`Relation::row_key`].
    pub fn dedup_rows(&mut self) {
        let mut seen = HashSet::new();
        self.rows.retain(|row| seen.insert(Relation::row_key(row)));
    }

    /// A canonical duplicate-elimination key for a row.
    pub fn row_key(row: &[SqlValue]) -> String {
        let mut key = String::new();
        for v in row {
            key.push_str(&v.group_key());
            key.push('\u{1}');
        }
        key
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel() -> Relation {
        Relation {
            columns: vec![
                ColumnInfo::new("ID", Some("T".into()), Some(SqlColumnType::Integer), false),
                ColumnInfo::new("NAME", Some("T".into()), Some(SqlColumnType::Varchar), true),
                ColumnInfo::new("ID", Some("U".into()), Some(SqlColumnType::Integer), false),
            ],
            rows: vec![vec![
                SqlValue::Int(1),
                SqlValue::Str("a".into()),
                SqlValue::Int(2),
            ]],
        }
    }

    #[test]
    fn qualified_lookup() {
        let r = rel();
        assert_eq!(r.find_columns(Some("T"), "ID"), vec![0]);
        assert_eq!(r.find_columns(Some("U"), "ID"), vec![2]);
    }

    #[test]
    fn unqualified_lookup_reports_all_matches() {
        let r = rel();
        assert_eq!(r.find_columns(None, "ID"), vec![0, 2]);
        assert_eq!(r.find_columns(None, "NAME"), vec![1]);
        assert!(r.find_columns(None, "MISSING").is_empty());
    }

    #[test]
    fn qualified_wildcard_indices() {
        let r = rel();
        assert_eq!(r.columns_of("T"), vec![0, 1]);
        assert_eq!(r.columns_of("U"), vec![2]);
    }

    #[test]
    fn cross_join_shapes() {
        let a = Relation {
            columns: vec![ColumnInfo::new(
                "X",
                None,
                Some(SqlColumnType::Integer),
                false,
            )],
            rows: vec![vec![SqlValue::Int(1)], vec![SqlValue::Int(2)]],
        };
        let b = Relation {
            columns: vec![ColumnInfo::new(
                "Y",
                None,
                Some(SqlColumnType::Integer),
                false,
            )],
            rows: vec![vec![SqlValue::Int(10)], vec![SqlValue::Int(20)]],
        };
        let c = a.cross_join(&b);
        assert_eq!(c.arity(), 2);
        assert_eq!(c.rows.len(), 4);
        assert_eq!(c.rows[3], vec![SqlValue::Int(2), SqlValue::Int(20)]);
    }

    #[test]
    fn row_keys_collapse_numeric_types() {
        let a = vec![SqlValue::Int(1), SqlValue::Null];
        let b = vec![SqlValue::Decimal(1.0), SqlValue::Null];
        assert_eq!(Relation::row_key(&a), Relation::row_key(&b));
    }
}
