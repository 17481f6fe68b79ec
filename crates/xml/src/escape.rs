//! Character escaping, mirroring `fn-bea:xml-escape` and standard XML
//! serialization escaping.
//!
//! Two escaping schemes coexist in the driver (paper §4):
//!
//! 1. **XML escaping** for serialized element content and attribute values
//!    (`&`, `<`, `>`, quotes).
//! 2. **Delimiter escaping** for the text-encoded result transport, where
//!    column (`>`) and row (`<`) separator characters occurring *inside
//!    data values* must not be confused with the real separators. The
//!    platform reuses XML entity escaping for this — a value containing `<`
//!    is shipped as `&lt;` — which is why the wrapper query pipes values
//!    through `fn-bea:xml-escape` before `fn:string-join`.

use std::borrow::Cow;

/// Escapes text content for XML serialization (`&`, `<`, `>`).
pub fn escape_text(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_text_into(&mut out, s);
    out
}

/// [`escape_text`], appended to `out`: what a writer that is already
/// filling a buffer calls, so the escaped form is never a string of its
/// own.
pub fn escape_text_into(out: &mut String, s: &str) {
    escape_into(out, s, false);
}

/// Escapes an attribute value (additionally `"`).
pub fn escape_attribute(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_attribute_into(&mut out, s);
    out
}

/// [`escape_attribute`], appended to `out`.
pub fn escape_attribute_into(out: &mut String, s: &str) {
    escape_into(out, s, true);
}

fn escape_into(out: &mut String, s: &str, attr: bool) {
    // Most values contain nothing to escape: copy the runs between the
    // special characters whole. All four are ASCII, so a byte offset of
    // one is a character boundary.
    let special = |b: u8| matches!(b, b'&' | b'<' | b'>') || (attr && b == b'"');
    let mut rest = s;
    while let Some(at) = rest.bytes().position(special) {
        out.push_str(&rest[..at]);
        out.push_str(match rest.as_bytes()[at] {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            _ => "&quot;",
        });
        rest = &rest[at + 1..];
    }
    out.push_str(rest);
}

/// The inverse of [`escape_text`] / [`escape_attribute`]: expands the five
/// predefined entities and decimal/hex character references. Text that
/// holds no `&` comes back as it is, borrowed.
pub fn unescape(s: &str) -> Cow<'_, str> {
    if !s.contains('&') {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(pos) = rest.find('&') {
        out.push_str(&rest[..pos]);
        rest = &rest[pos..];
        match rest.find(';') {
            Some(end) => {
                let entity = &rest[1..end];
                match entity {
                    "amp" => out.push('&'),
                    "lt" => out.push('<'),
                    "gt" => out.push('>'),
                    "quot" => out.push('"'),
                    "apos" => out.push('\''),
                    _ => {
                        let decoded = entity
                            .strip_prefix("#x")
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .or_else(|| entity.strip_prefix('#').and_then(|d| d.parse().ok()))
                            .and_then(char::from_u32);
                        match decoded {
                            Some(c) => out.push(c),
                            // Not a recognizable entity: keep it verbatim.
                            None => out.push_str(&rest[..=end]),
                        }
                    }
                }
                rest = &rest[end + 1..];
            }
            None => {
                out.push_str(rest);
                rest = "";
            }
        }
    }
    out.push_str(rest);
    Cow::Owned(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_separator_characters() {
        // The §4 transport reuses XML escaping so embedded separators
        // survive: `a>b<c` must not split into extra columns/rows.
        assert_eq!(escape_text("a>b<c&d"), "a&gt;b&lt;c&amp;d");
    }

    #[test]
    fn escaping_into_a_buffer_appends() {
        let mut out = String::from(">");
        escape_text_into(&mut out, "a<b");
        escape_text_into(&mut out, "");
        escape_text_into(&mut out, "é&\"");
        assert_eq!(out, ">a&lt;bé&amp;\"");
    }

    #[test]
    fn no_op_fast_path() {
        assert_eq!(escape_text("Acme Widget Stores"), "Acme Widget Stores");
    }

    #[test]
    fn attribute_quotes() {
        assert_eq!(escape_attribute(r#"say "hi""#), "say &quot;hi&quot;");
        // Text escaping leaves quotes alone.
        assert_eq!(escape_text(r#"say "hi""#), r#"say "hi""#);
    }

    #[test]
    fn unescape_roundtrip() {
        let original = r#"5 < 6 & "x" > 'y'"#;
        assert_eq!(unescape(&escape_attribute(original)), original);
    }

    #[test]
    fn unescape_character_references() {
        assert_eq!(unescape("&#65;&#x42;"), "AB");
    }

    #[test]
    fn unescape_keeps_unknown_entities() {
        assert_eq!(unescape("&nbsp;"), "&nbsp;");
    }

    #[test]
    fn unescape_trailing_ampersand() {
        assert_eq!(unescape("a&"), "a&");
    }
}
