//! The §4 result-handling wrapper.
//!
//! "Performance could be measurably improved if we replaced XML as the
//! return type ... with a more compact format ... The result data is
//! actually returned as text interspersed with column and row separators"
//! (paper §4). The wrapper query surrounds the translated query — keeping
//! "a clean separation between JDBC result handling logic and the more
//! complex SQL to XQuery translation logic" — and emits, per row, a
//! column-separator + value pair per column followed by a row separator:
//!
//! ```text
//! >55>Joe<>23>Sue<
//! ```
//!
//! Values pass through `fn-bea:serialize-atomic` and `fn-bea:xml-escape`,
//! so separator characters inside data arrive as `&gt;`/`&lt;` entities
//! and cannot split fields. `fn-bea:if-empty` substitutes a NULL marker
//! for absent values — the paper substitutes the empty string, conflating
//! NULL with `''`; we use an out-of-band marker (`\u{0}`) so the driver
//! can preserve the distinction the relational oracle requires (see
//! DESIGN.md §2).

use crate::ir::PreparedQuery;
use crate::stage3::Generated;
use std::borrow::Cow;
use std::fmt::Write as _;

/// Column separator: precedes every column value.
pub const COLUMN_SEPARATOR: char = '>';

/// Row separator: terminates every row.
pub const ROW_SEPARATOR: char = '<';

/// NULL marker substituted by `fn-bea:if-empty` for absent values. NUL
/// cannot legally appear in XML content, and `fn-bea:xml-escape` output
/// never contains it, so it is collision-free for any data that survived
/// the XML layer.
pub const NULL_MARKER: &str = "\u{0}";

/// Wraps a generated query in the delimited-text transport.
pub fn wrap_delimited(generated: Generated, prepared: &PreparedQuery) -> String {
    let mut out = String::new();
    if !generated.prolog.is_empty() {
        out.push_str(&generated.prolog);
        out.push('\n');
    }
    out.push_str("fn:string-join((\nlet $actualQuery := ");
    out.push_str(&generated.body);
    out.push_str("\nfor $tokenQuery in $actualQuery/RECORD\nreturn (");
    for column in &prepared.output {
        let _ = write!(
            out,
            "\"{COLUMN_SEPARATOR}\",\nfn-bea:if-empty(fn-bea:xml-escape(fn-bea:serialize-atomic(fn:data($tokenQuery/{}))), \"&#0;\"),\n",
            column.name
        );
    }
    let _ = write!(out, "\"{ROW_SEPARATOR}\")), \"\")");
    out
}

/// Decodes one delimited-text result payload in one pass: `cell` gets each
/// value where it lies in the payload — its column index and `None` for
/// SQL NULL, a borrowed slice unless entities had to be expanded (a value
/// that holds `&`) — and what it makes of them comes back as rows. This is
/// the driver-side inverse of [`wrap_delimited`]'s output format; it lives
/// here so the format's two halves stay in one module.
pub fn decode_rows<T>(
    payload: &str,
    column_count: usize,
    mut cell: impl FnMut(usize, Option<Cow<'_, str>>) -> Result<T, String>,
) -> Result<Vec<Vec<T>>, String> {
    let mut rows = Vec::new();
    let mut rest = payload;
    while !rest.is_empty() {
        let mut row = Vec::with_capacity(column_count);
        for i in 0..column_count {
            let Some(stripped) = rest.strip_prefix(COLUMN_SEPARATOR) else {
                return Err(format!(
                    "malformed delimited payload: expected column separator before column {}",
                    i + 1
                ));
            };
            let end = stripped
                .find([COLUMN_SEPARATOR, ROW_SEPARATOR])
                .ok_or_else(|| "malformed delimited payload: unterminated value".to_string())?;
            let raw = &stripped[..end];
            rest = &stripped[end..];
            row.push(cell(
                i,
                (raw != NULL_MARKER).then(|| aldsp_xml::escape::unescape(raw)),
            )?);
        }
        let Some(stripped) = rest.strip_prefix(ROW_SEPARATOR) else {
            return Err("malformed delimited payload: missing row separator".to_string());
        };
        rest = stripped;
        rows.push(row);
    }
    Ok(rows)
}

/// Parses one delimited-text result payload back into rows of optional
/// strings (`None` = SQL NULL): [`decode_rows`], every cell kept as it is.
pub fn parse_delimited(
    payload: &str,
    column_count: usize,
) -> Result<Vec<Vec<Option<String>>>, String> {
    decode_rows(payload, column_count, |_, cell| {
        Ok(cell.map(Cow::into_owned))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip_with_nulls_and_separators() {
        // A payload as the wrapper produces: escaped separators inside
        // values, NULL marker for an absent value.
        let payload = format!(">55>Acme &gt; Widget<>23>{NULL_MARKER}<");
        let rows = parse_delimited(&payload, 2).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][0].as_deref(), Some("55"));
        assert_eq!(rows[0][1].as_deref(), Some("Acme > Widget"));
        assert_eq!(rows[1][1], None);
    }

    #[test]
    fn empty_payload_is_zero_rows() {
        assert_eq!(parse_delimited("", 3).unwrap().len(), 0);
    }

    #[test]
    fn empty_string_distinct_from_null() {
        let payload = ">>x<";
        let rows = parse_delimited(payload, 2).unwrap();
        assert_eq!(rows[0][0].as_deref(), Some(""));
        assert_eq!(rows[0][1].as_deref(), Some("x"));
    }

    #[test]
    fn malformed_payloads_rejected() {
        assert!(parse_delimited("55>Joe<", 2).is_err()); // missing leading sep
        assert!(parse_delimited(">55", 1).is_err()); // unterminated
        assert!(parse_delimited(">55>Joe", 2).is_err()); // no row separator
        assert!(parse_delimited(">55<>", 1).is_err()); // a row cut short
    }

    #[test]
    fn cells_are_borrowed_unless_they_hold_an_entity() {
        let payload = format!(">55>a &amp; b<>{NULL_MARKER}><");
        let mut seen = Vec::new();
        let rows = decode_rows(&payload, 2, |column, cell| {
            seen.push(match &cell {
                None => "null",
                Some(Cow::Borrowed(_)) => "borrowed",
                Some(Cow::Owned(_)) => "owned",
            });
            Ok((column, cell.map(Cow::into_owned)))
        })
        .unwrap();
        assert_eq!(seen, ["borrowed", "owned", "null", "borrowed"]);
        assert_eq!(rows[0][1], (1, Some("a & b".to_string())));
        assert_eq!(rows[1], [(0, None), (1, Some(String::new()))]);
        // The cell's own error stops the pass, as a malformed payload does.
        let failed = decode_rows(">1>x<>2", 2, |_, cell| match cell.as_deref() {
            Some("x") => Err("no x".to_string()),
            _ => Ok(()),
        });
        assert_eq!(failed, Err("no x".to_string()));
        // A row of no columns is its separator.
        assert_eq!(parse_delimited("<<", 0).unwrap(), [vec![], vec![]]);
    }
}
