//! Result sets: forward-only cursors with typed getters, built from
//! either transport's payload.

use crate::DriverError;
use aldsp_catalog::SqlColumnType;
use aldsp_core::{wrapper, OutputColumn};
use aldsp_relational::SqlValue;
use aldsp_xml::parse::{Event, Reader};
use aldsp_xml::QName;
use std::borrow::Cow;

/// Result-set metadata, the JDBC `ResultSetMetaData` analogue.
#[derive(Debug, Clone)]
pub struct ResultSetMetaData {
    columns: Vec<OutputColumn>,
}

impl ResultSetMetaData {
    /// Number of columns.
    pub fn column_count(&self) -> usize {
        self.columns.len()
    }

    /// The descriptor at a 1-based index (like JDBC); 0 and past-the-end
    /// are both `None`.
    fn column(&self, index: usize) -> Option<&OutputColumn> {
        self.columns.get(index.checked_sub(1)?)
    }

    /// Column label (1-based index, like JDBC).
    pub fn column_label(&self, index: usize) -> Option<&str> {
        self.column(index).map(|c| c.label.as_str())
    }

    /// SQL type name (1-based).
    pub fn column_type_name(&self, index: usize) -> Option<&'static str> {
        self.column(index)
            .map(|c| c.sql_type.map_or("VARCHAR", |t| t.sql_name()))
    }

    /// Nullability (1-based).
    pub fn is_nullable(&self, index: usize) -> Option<bool> {
        self.column(index).map(|c| c.nullable)
    }

    /// The raw column descriptors.
    pub fn columns(&self) -> &[OutputColumn] {
        &self.columns
    }
}

/// A materialized, forward-only result set.
#[derive(Debug, Clone)]
pub struct ResultSet {
    meta: ResultSetMetaData,
    rows: Vec<Vec<SqlValue>>,
    /// Cursor: `None` before the first `next()`.
    position: Option<usize>,
    /// Whether the last `get_*` returned NULL (JDBC `wasNull`).
    was_null: bool,
}

impl ResultSet {
    /// Builds a result set from already-typed rows.
    pub fn from_rows(columns: Vec<OutputColumn>, rows: Vec<Vec<SqlValue>>) -> ResultSet {
        ResultSet {
            meta: ResultSetMetaData { columns },
            rows,
            position: None,
            was_null: false,
        }
    }

    /// Decodes a delimited-text payload (paper §4 transport).
    pub fn from_delimited(
        columns: Vec<OutputColumn>,
        payload: &str,
    ) -> Result<ResultSet, DriverError> {
        // One pass: each cell is decoded off the payload where it lies.
        let rows = wrapper::decode_rows(payload, columns.len(), |column, cell| {
            aldsp_relational::sqltype::decode_cell(cell, columns[column].sql_type)
        })
        .map_err(DriverError::Decode)?;
        Ok(ResultSet::from_rows(columns, rows))
    }

    /// Decodes a serialized-XML payload: the second consumer of
    /// [`aldsp_xml::parse::Reader`]'s events, which reads rows off the
    /// `<RECORDSET>` text without building a tree. A row is a child of the
    /// document element whose local name is `RECORD`; a column's cell is
    /// the string value of the row's first child of that column's name
    /// (absent = NULL). The payload is still materialized by the server
    /// and parsed here — the paper's XML baseline — in one forward pass,
    /// and read to its end: only a well-formed document is a result set.
    pub fn from_xml(columns: Vec<OutputColumn>, payload: &str) -> Result<ResultSet, DriverError> {
        // Two columns of one name read the same child: the first's.
        let source: Vec<usize> = columns
            .iter()
            .map(|col| columns.iter().position(|c| c.name == col.name))
            .map(|first| first.expect("a column's own name is among them"))
            .collect();
        let mut rows = Vec::new();
        // The open row's cells, by column; `None`: no child of that name yet.
        let mut cells: Vec<Option<Cow<'_, str>>> = vec![None; columns.len()];
        let mut depth = 0usize;
        let mut in_row = false;
        // The column whose cell the open child of the row is.
        let mut cell: Option<usize> = None;
        let mut reader = Reader::document(payload);
        while let Some(event) = reader
            .next()
            .map_err(|e| DriverError::Decode(e.to_string()))?
        {
            match event {
                Event::Start(name) => {
                    depth += 1;
                    if depth == 2 {
                        in_row = QName::split_lexical(name).1 == "RECORD";
                    } else if depth == 3 && in_row {
                        let local = QName::split_lexical(name).1;
                        cell = columns
                            .iter()
                            .position(|c| c.name == local)
                            .filter(|&c| cells[c].is_none());
                        if let Some(c) = cell {
                            cells[c] = Some(Cow::Borrowed(""));
                        }
                    }
                }
                Event::Text(raw) => {
                    if let Some(value) = cell.and_then(|c| cells[c].as_mut()) {
                        let text = aldsp_xml::escape::unescape(raw);
                        if value.is_empty() {
                            *value = text;
                        } else {
                            value.to_mut().push_str(&text);
                        }
                    }
                }
                Event::End(_) => {
                    if depth == 3 {
                        cell = None;
                    } else if depth == 2 && in_row {
                        let mut row = Vec::with_capacity(columns.len());
                        for (col, &first) in columns.iter().zip(&source) {
                            let cell = cells[first].as_deref().map(Cow::Borrowed);
                            row.push(decode_cell(cell, col.sql_type)?);
                        }
                        rows.push(row);
                        cells.fill(None);
                    }
                    depth -= 1;
                }
            }
        }
        Ok(ResultSet::from_rows(columns, rows))
    }

    /// Metadata.
    pub fn meta(&self) -> &ResultSetMetaData {
        &self.meta
    }

    /// Number of rows (the driver materializes fully, as reporting tools
    /// typically scroll anyway).
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Advances the cursor; `false` past the last row. (Named after JDBC's
    /// `ResultSet.next()`, intentionally.)
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> bool {
        let next = self.position.map_or(0, |p| p + 1);
        if next < self.rows.len() {
            self.position = Some(next);
            true
        } else {
            self.position = Some(self.rows.len());
            false
        }
    }

    /// Raw value at a 1-based column index of the current row.
    pub fn value(&mut self, index: usize) -> Result<&SqlValue, DriverError> {
        let row = self
            .position
            .filter(|p| *p < self.rows.len())
            .ok_or_else(|| DriverError::Usage("cursor is not on a row".into()))?;
        let value = index
            .checked_sub(1)
            .and_then(|i| self.rows[row].get(i))
            .ok_or_else(|| DriverError::Usage(format!("column index {index} out of range")))?;
        self.was_null = value.is_null();
        Ok(value)
    }

    /// `getString`: `None` for NULL.
    pub fn get_string(&mut self, index: usize) -> Result<Option<String>, DriverError> {
        let v = self.value(index)?;
        Ok(match v {
            SqlValue::Null => None,
            other => Some(other.display_text()),
        })
    }

    /// `getLong`/`getInt`: NULL reads as 0 with `was_null` set (JDBC
    /// semantics).
    pub fn get_i64(&mut self, index: usize) -> Result<i64, DriverError> {
        match self.value(index)? {
            SqlValue::Null => Ok(0),
            SqlValue::Int(i) => Ok(*i),
            SqlValue::Decimal(d) | SqlValue::Double(d) => Ok(*d as i64),
            SqlValue::Str(s) => s
                .trim()
                .parse()
                .map_err(|_| DriverError::Usage(format!("cannot read `{s}` as integer"))),
            other => Err(DriverError::Usage(format!(
                "cannot read {other} as integer"
            ))),
        }
    }

    /// `getDouble`.
    pub fn get_f64(&mut self, index: usize) -> Result<f64, DriverError> {
        match self.value(index)? {
            SqlValue::Null => Ok(0.0),
            SqlValue::Int(i) => Ok(*i as f64),
            SqlValue::Decimal(d) | SqlValue::Double(d) => Ok(*d),
            SqlValue::Str(s) => s
                .trim()
                .parse()
                .map_err(|_| DriverError::Usage(format!("cannot read `{s}` as double"))),
            other => Err(DriverError::Usage(format!("cannot read {other} as double"))),
        }
    }

    /// `getBoolean`.
    pub fn get_bool(&mut self, index: usize) -> Result<bool, DriverError> {
        match self.value(index)? {
            SqlValue::Null => Ok(false),
            SqlValue::Bool(b) => Ok(*b),
            SqlValue::Int(i) => Ok(*i != 0),
            other => Err(DriverError::Usage(format!(
                "cannot read {other} as boolean"
            ))),
        }
    }

    /// `getDate`: the ISO `YYYY-MM-DD` value, `None` for NULL.
    pub fn get_date(&mut self, index: usize) -> Result<Option<String>, DriverError> {
        match self.value(index)? {
            SqlValue::Null => Ok(None),
            SqlValue::Date(d) => Ok(Some(d.clone())),
            SqlValue::Str(s) if aldsp_xml::atomic::is_iso_date(s.trim()) => {
                Ok(Some(s.trim().to_string()))
            }
            other => Err(DriverError::Usage(format!("cannot read {other} as date"))),
        }
    }

    /// `findColumn`: the 1-based index of a column label (first match,
    /// like JDBC).
    pub fn find_column(&self, label: &str) -> Result<usize, DriverError> {
        self.meta
            .columns
            .iter()
            .position(|c| c.label.eq_ignore_ascii_case(label))
            .map(|i| i + 1)
            .ok_or_else(|| DriverError::Usage(format!("no column labelled {label}")))
    }

    /// `getString` by label.
    pub fn get_string_by_label(&mut self, label: &str) -> Result<Option<String>, DriverError> {
        let index = self.find_column(label)?;
        self.get_string(index)
    }

    /// JDBC `wasNull`: whether the last read value was NULL.
    pub fn was_null(&self) -> bool {
        self.was_null
    }

    /// Truncates to at most `max_rows` rows (JDBC `setMaxRows`). No-op
    /// when already smaller.
    pub fn truncate(&mut self, max_rows: usize) {
        self.rows.truncate(max_rows);
    }

    /// The fully materialized rows (testing and differential comparison).
    pub fn rows(&self) -> &[Vec<SqlValue>] {
        &self.rows
    }
}

/// Decodes one transported cell into a typed value. The type table itself
/// lives at the relational level (`aldsp_relational::sqltype`), shared
/// with the oracle; the driver only wraps its error.
fn decode_cell(
    cell: Option<Cow<'_, str>>,
    sql_type: Option<SqlColumnType>,
) -> Result<SqlValue, DriverError> {
    aldsp_relational::sqltype::decode_cell(cell, sql_type).map_err(DriverError::Decode)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn columns() -> Vec<OutputColumn> {
        vec![
            OutputColumn {
                name: "T.ID".into(),
                label: "ID".into(),
                sql_type: Some(SqlColumnType::Integer),
                nullable: false,
            },
            OutputColumn {
                name: "T.NAME".into(),
                label: "NAME".into(),
                sql_type: Some(SqlColumnType::Varchar),
                nullable: true,
            },
        ]
    }

    #[test]
    fn delimited_decoding_types_and_nulls() {
        let payload = format!(">55>Joe<>23>{}<", aldsp_core::NULL_MARKER);
        let mut rs = ResultSet::from_delimited(columns(), &payload).unwrap();
        assert!(rs.next());
        assert_eq!(rs.get_i64(1).unwrap(), 55);
        assert_eq!(rs.get_string(2).unwrap().as_deref(), Some("Joe"));
        assert!(!rs.was_null());
        assert!(rs.next());
        assert_eq!(rs.get_string(2).unwrap(), None);
        assert!(rs.was_null());
        assert!(!rs.next());
    }

    #[test]
    fn xml_decoding_absent_element_is_null() {
        let payload =
            "<RECORDSET><RECORD><T.ID>1</T.ID><T.NAME>a</T.NAME></RECORD><RECORD><T.ID>2</T.ID></RECORD></RECORDSET>";
        let mut rs = ResultSet::from_xml(columns(), payload).unwrap();
        assert_eq!(rs.row_count(), 2);
        rs.next();
        rs.next();
        assert_eq!(rs.get_string(2).unwrap(), None);
    }

    #[test]
    fn cursor_misuse_is_usage_error() {
        let mut rs = ResultSet::from_rows(columns(), vec![]);
        assert!(matches!(rs.get_i64(1), Err(DriverError::Usage(_))));
    }

    #[test]
    fn metadata_accessors() {
        let rs = ResultSet::from_rows(columns(), vec![]);
        assert_eq!(rs.meta().column_count(), 2);
        assert_eq!(rs.meta().column_label(1), Some("ID"));
        assert_eq!(rs.meta().column_type_name(2), Some("VARCHAR"));
        assert_eq!(rs.meta().is_nullable(2), Some(true));
    }

    #[test]
    fn find_column_and_label_access() {
        let rows = vec![vec![SqlValue::Int(1), SqlValue::Str("a".into())]];
        let mut rs = ResultSet::from_rows(columns(), rows);
        assert_eq!(rs.find_column("name").unwrap(), 2);
        assert!(rs.find_column("missing").is_err());
        rs.next();
        assert_eq!(
            rs.get_string_by_label("NAME").unwrap().as_deref(),
            Some("a")
        );
    }

    #[test]
    fn get_date_accessor() {
        let cols = vec![OutputColumn {
            name: "D".into(),
            label: "D".into(),
            sql_type: Some(SqlColumnType::Date),
            nullable: true,
        }];
        let rows = vec![
            vec![SqlValue::Date("2006-07-05".into())],
            vec![SqlValue::Null],
        ];
        let mut rs = ResultSet::from_rows(cols, rows);
        rs.next();
        assert_eq!(rs.get_date(1).unwrap().as_deref(), Some("2006-07-05"));
        rs.next();
        assert_eq!(rs.get_date(1).unwrap(), None);
        assert!(rs.was_null());
    }

    #[test]
    fn get_i64_on_null_is_zero_with_flag() {
        let rows = vec![vec![SqlValue::Int(1), SqlValue::Null]];
        let mut rs = ResultSet::from_rows(columns(), rows);
        rs.next();
        // NAME is VARCHAR; read ID then NULL NAME as string.
        assert_eq!(rs.get_i64(1).unwrap(), 1);
        assert!(!rs.was_null());
        assert_eq!(rs.get_string(2).unwrap(), None);
        assert!(rs.was_null());
    }
}
