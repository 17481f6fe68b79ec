//! Named tables — the physical layer behind data services.

use crate::relation::{ColumnInfo, Relation};
use crate::value::SqlValue;
use aldsp_catalog::TableSchema;
use aldsp_xml::{flat::build_row, Item, QName, RowSchema, Sequence};
use std::collections::HashMap;
use std::sync::Arc;

/// A stored table: its schema plus rows.
#[derive(Debug, Clone)]
pub struct Table {
    /// The table's schema (shared with the catalog layer).
    pub schema: TableSchema,
    /// Stored rows.
    pub rows: Vec<Vec<SqlValue>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(schema: TableSchema) -> Table {
        Table {
            schema,
            rows: Vec::new(),
        }
    }

    /// Appends a row after checking its arity.
    ///
    /// # Panics
    /// Panics when the row arity does not match the schema — this is a
    /// data-loading programming error, not a runtime condition.
    pub fn insert(&mut self, row: Vec<SqlValue>) {
        assert_eq!(
            row.len(),
            self.schema.columns.len(),
            "row arity mismatch for table {}",
            self.schema.table_name
        );
        self.rows.push(row);
    }

    /// Materializes the table as a [`Relation`], with every column
    /// qualified by `qualifier` (the range variable in the FROM clause).
    pub fn scan(&self, qualifier: &str) -> Relation {
        let columns = self
            .schema
            .columns
            .iter()
            .map(|c| {
                ColumnInfo::new(
                    c.name.clone(),
                    Some(qualifier.to_string()),
                    Some(c.sql_type),
                    c.nullable,
                )
            })
            .collect();
        Relation {
            columns,
            rows: self.rows.clone(),
        }
    }

    /// The table as its physical data-service function returns it (paper
    /// Example 1): one flat `ns0:<row_element>` per row, a child element
    /// per column, SQL NULL as an *absent* child — held as flat rows that
    /// share one schema. The one definition of that shape — the server
    /// materializes tables with it and the layer-5 validator serves its
    /// witness tables with it, so what the validator proves is about the
    /// rows production queries see.
    pub fn row_elements(&self) -> Sequence {
        let row_name = QName::prefixed("ns0", self.schema.row_element.clone());
        let columns = self.schema.columns.iter().map(|c| c.name.as_str());
        let schema = RowSchema::new(row_name, columns);
        // Each cell's lexical form is formatted here once, into one buffer,
        // and copied into the text the row keeps: an allocation per cell.
        let mut lexical = String::new();
        let mut text = |value: &SqlValue| {
            let atomic = match value {
                SqlValue::Str(s) | SqlValue::Date(s) => return Some(Arc::from(s.as_str())),
                other => other.to_atomic()?,
            };
            lexical.clear();
            atomic.write_lexical(&mut lexical);
            Some(Arc::from(lexical.as_str()))
        };
        self.rows
            .iter()
            .map(|row| Item::from(build_row(&schema, row.iter().map(&mut text))))
            .collect()
    }
}

/// A collection of named tables. Lookup is by bare table name — the
/// catalog layer resolves qualified SQL names down to these. Clones share
/// their tables: a clone is cheap, and a write through
/// [`Database::table_mut`] copies the one table it changes.
#[derive(Debug, Clone, Default)]
pub struct Database {
    tables: HashMap<String, Arc<Table>>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Adds (or replaces) a table.
    pub fn add_table(&mut self, table: Table) {
        self.tables
            .insert(table.schema.table_name.clone(), Arc::new(table));
    }

    /// Looks up a table.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name).map(Arc::as_ref)
    }

    /// Mutable lookup (data loading); unshares the table first.
    pub fn table_mut(&mut self, name: &str) -> Option<&mut Table> {
        self.tables.get_mut(name).map(Arc::make_mut)
    }

    /// Table names (unordered).
    pub fn table_names(&self) -> impl Iterator<Item = &str> {
        self.tables.keys().map(|s| s.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aldsp_catalog::{ColumnMeta, SqlColumnType};

    fn schema() -> TableSchema {
        TableSchema {
            table_name: "T".into(),
            row_element: "T".into(),
            namespace: "ld:P/T".into(),
            schema_location: "ld:P/schemas/T.xsd".into(),
            columns: vec![
                ColumnMeta::new("ID", SqlColumnType::Integer, false),
                ColumnMeta::new("NAME", SqlColumnType::Varchar, true),
            ],
        }
    }

    #[test]
    fn scan_qualifies_columns() {
        let mut t = Table::new(schema());
        t.insert(vec![SqlValue::Int(1), SqlValue::Str("a".into())]);
        let r = t.scan("X");
        assert_eq!(r.columns[0].qualifier.as_deref(), Some("X"));
        assert_eq!(r.rows.len(), 1);
    }

    #[test]
    fn row_elements_are_flat_with_null_as_absent_child() {
        let mut t = Table::new(schema());
        t.insert(vec![SqlValue::Int(1), SqlValue::Str("a".into())]);
        t.insert(vec![SqlValue::Int(2), SqlValue::Null]);
        assert_eq!(
            aldsp_xml::serialize_sequence(&t.row_elements()),
            "<ns0:T><ID>1</ID><NAME>a</NAME></ns0:T><ns0:T><ID>2</ID></ns0:T>"
        );
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_mismatch_panics() {
        let mut t = Table::new(schema());
        t.insert(vec![SqlValue::Int(1)]);
    }

    #[test]
    fn database_lookup() {
        let mut db = Database::new();
        db.add_table(Table::new(schema()));
        assert!(db.table("T").is_some());
        assert!(db.table("U").is_none());
        db.table_mut("T")
            .unwrap()
            .insert(vec![SqlValue::Int(1), SqlValue::Null]);
        assert_eq!(db.table("T").unwrap().rows.len(), 1);
    }
}
