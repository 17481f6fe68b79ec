//! Flat rows — the row-element shape data-service functions return (paper
//! §2.3, Example 1).
//!
//! A flat result is a sequence of identically named elements whose children
//! are simple-typed column elements. SQL NULL is represented by *omitting*
//! the column element from the row, which is why the generated queries lean
//! on `fn:empty` and `fn-bea:if-empty`.
//!
//! A [`FlatRow`] is such a row held as a row: the names live once per
//! table in a shared [`RowSchema`], the row keeps one optional text per
//! column. It is a node of its own ([`crate::Node::Row`]), and a present
//! column of it one more ([`crate::Node::Cell`]); every accessor — name,
//! children, string value, serialization, `==` — reads them exactly as the
//! element tree `<ns0:ROW><COL>text</COL>…</ns0:ROW>` they stand for.

use crate::qname::QName;
use std::sync::Arc;

/// The names every row of one materialized table shares: the row element's
/// and one per column, in column order.
pub struct RowSchema {
    name: QName,
    columns: Box<[QName]>,
    /// No two columns share a name, as in every table: a child step by
    /// name is then a lookup of one column.
    distinct: bool,
}

impl RowSchema {
    /// A schema for rows named `name` with unprefixed `columns`.
    pub fn new<C: Into<Arc<str>>>(
        name: QName,
        columns: impl IntoIterator<Item = C>,
    ) -> Arc<RowSchema> {
        let columns: Box<[QName]> = columns.into_iter().map(QName::local).collect();
        let distinct = (0..columns.len()).all(|at| !columns[..at].contains(&columns[at]));
        Arc::new(RowSchema {
            name,
            columns,
            distinct,
        })
    }

    /// The row element's name.
    #[inline]
    pub fn name(&self) -> &QName {
        &self.name
    }

    /// The column elements' names, in column order.
    #[inline]
    pub fn columns(&self) -> &[QName] {
        &self.columns
    }

    /// True when no two columns share a name.
    #[inline]
    pub(crate) fn distinct(&self) -> bool {
        self.distinct
    }
}

/// One flat row: its table's schema and one cell per column. `None` is SQL
/// NULL — no child element; `Some("")` is a column element without a text
/// child (`<COL/>`).
pub struct FlatRow {
    schema: Arc<RowSchema>,
    cells: Box<[Option<Arc<str>>]>,
}

impl FlatRow {
    /// The row's schema.
    #[inline]
    pub fn schema(&self) -> &Arc<RowSchema> {
        &self.schema
    }

    /// The cells, in column order.
    #[inline]
    pub fn cells(&self) -> &[Option<Arc<str>>] {
        &self.cells
    }

    /// The text of column `column`, when present. `column` is the index of
    /// a present cell by construction.
    #[inline]
    pub(crate) fn text(&self, column: usize) -> &Arc<str> {
        self.cells[column]
            .as_ref()
            .expect("a cell node is a present cell")
    }
}

/// A present column of a flat row, as a node: `<COL>text</COL>`.
#[derive(Clone)]
pub struct FlatCell {
    pub(crate) row: Arc<FlatRow>,
    pub(crate) column: usize,
}

/// Builds one flat row of `schema`: a cell per column, in column order;
/// `None` (SQL NULL) is an absent column element.
///
/// # Panics
/// Panics when there are not as many cells as the schema has columns — a
/// programming error, not a runtime condition.
pub fn build_row<T: Into<Arc<str>>>(
    schema: &Arc<RowSchema>,
    cells: impl IntoIterator<Item = Option<T>>,
) -> FlatRow {
    let cells: Box<[Option<Arc<str>>]> = cells.into_iter().map(|c| c.map(Into::into)).collect();
    assert_eq!(
        cells.len(),
        schema.columns.len(),
        "a flat row has one cell per column of {}",
        schema.name
    );
    FlatRow {
        schema: Arc::clone(schema),
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Element, Item, Node};

    fn schema() -> Arc<RowSchema> {
        RowSchema::new(
            QName::parse("ns0:CUSTOMERS"),
            ["CUSTOMERID", "CUSTOMERNAME"],
        )
    }

    fn row(cells: [Option<&str>; 2]) -> Node {
        Node::from(build_row(&schema(), cells))
    }

    #[test]
    fn a_row_reads_as_its_element_tree() {
        let row = row([Some("55"), Some("Joe")]);
        let tree = Element::new(QName::parse("ns0:CUSTOMERS"))
            .with_child(Element::new("CUSTOMERID").with_text("55"))
            .with_child(Element::new("CUSTOMERNAME").with_text("Joe"))
            .into_node();
        assert_eq!(row, tree);
        assert_eq!(tree, row);
        assert_eq!(format!("{row:?}"), format!("{tree:?}"));
        let element = row.as_element_ref().unwrap();
        let id = element.children_named("CUSTOMERID").next().unwrap();
        assert_eq!(id.string_value(), "55");
        assert_eq!(Item::Node(id.to_node()).string_value(), "55");
    }

    #[test]
    fn null_columns_are_absent() {
        let row = row([Some("55"), None]);
        let element = row.as_element_ref().unwrap();
        assert!(element.children_named("CUSTOMERNAME").next().is_none());
        assert_eq!(element.child_elements().count(), 1);
        assert_eq!(
            format!("{row:?}"),
            "<ns0:CUSTOMERS><CUSTOMERID>55</CUSTOMERID></ns0:CUSTOMERS>"
        );
    }

    #[test]
    fn an_empty_cell_is_an_element_without_text() {
        let row = row([Some(""), None]);
        assert_eq!(
            format!("{row:?}"),
            "<ns0:CUSTOMERS><CUSTOMERID/></ns0:CUSTOMERS>"
        );
        let cell = row
            .as_element_ref()
            .unwrap()
            .child_elements()
            .next()
            .unwrap();
        assert!(cell.text().is_none());
    }

    #[test]
    fn a_name_selects_every_present_column_it_names() {
        let schema = RowSchema::new(QName::local("R"), ["A", "B", "A"]);
        let row = Node::from(build_row(&schema, [Some("1"), Some("2"), Some("3")]));
        let named = |local| {
            let element = row.as_element_ref().unwrap();
            element
                .children_named(local)
                .map(|c| c.string_value())
                .collect::<Vec<_>>()
        };
        assert_eq!(named("A"), ["1", "3"]);
        assert_eq!(named("B"), ["2"]);
        assert!(named("C").is_empty());
        let row = Node::from(build_row(&schema, [None, Some("2"), Some("3")]));
        let element = row.as_element_ref().unwrap();
        assert_eq!(element.children_named("A").count(), 1);
    }

    #[test]
    #[should_panic(expected = "one cell per column")]
    fn a_row_has_a_cell_per_column() {
        build_row(&schema(), [Some("55")]);
    }
}
