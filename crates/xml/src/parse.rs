//! A small well-formed-XML tokenizer with two consumers.
//!
//! This is the driver-side parser for the XML result-transport mode: the
//! serialized `<RECORDSET>` document comes back as text (paper §4 — the
//! bytes this ships and scans motivate the delimited-text transport).
//! [`Reader`] is the one place XML text is tokenized: a pull reader that
//! yields [`Event`]s and makes every well-formedness check. The tree
//! builder ([`parse_document`], [`parse_fragment`]) is one consumer of
//! its events; the driver's `ResultSet::from_xml` is the other, and reads
//! rows off the payload without building a tree. The reader handles
//! exactly what that path needs: elements, attributes, text with entity
//! references, comments, and XML declarations. It is not a
//! general-purpose validating parser (no DTDs, no namespaces resolution
//! beyond prefixes).

use crate::escape::unescape;
use crate::node::{Element, Node};
use crate::qname::QName;
use std::fmt;

/// Error raised on malformed input, with a byte offset for diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input where the problem was detected.
    pub offset: usize,
}

impl fmt::Display for XmlParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "XML parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for XmlParseError {}

/// Parses a document with a single root element, skipping an optional XML
/// declaration, leading whitespace, and comments.
pub fn parse_document(input: &str) -> Result<Element, XmlParseError> {
    let mut roots = build(Reader::document(input))?;
    Ok(roots
        .pop()
        .expect("a document reader ends only after its one root element"))
}

/// Parses a fragment: a sequence of sibling elements (the shape of a
/// data-service function result, paper Example 1).
pub fn parse_fragment(input: &str) -> Result<Vec<Element>, XmlParseError> {
    build(Reader::fragment(input))
}

/// The tree builder: the top-level elements of `reader`'s event stream.
fn build(mut reader: Reader<'_>) -> Result<Vec<Element>, XmlParseError> {
    let mut roots = Vec::new();
    let mut open: Vec<Element> = Vec::new();
    while let Some(event) = reader.next()? {
        match event {
            Event::Start(name) => {
                let mut element = Element::new(QName::parse(name));
                element.attributes.extend(
                    reader
                        .attributes()
                        .iter()
                        .map(|(name, value)| (QName::parse(name), unescape(value).into_owned())),
                );
                open.push(element);
            }
            Event::Text(raw) => open
                .last_mut()
                .expect("the reader yields text only inside an element")
                .children
                .push(Node::Text(unescape(raw).into())),
            Event::End(_) => {
                let element = open.pop().expect("the reader balances its events");
                match open.last_mut() {
                    Some(parent) => parent.children.push(element.into_node()),
                    None => roots.push(element),
                }
            }
        }
    }
    Ok(roots)
}

/// What a [`Reader`] yields. Every slice lies in the reader's input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event<'a> {
    /// A start tag, by its lexical name (`prefix:local` or `local`). Its
    /// attributes are [`Reader::attributes`] until the next event is read.
    /// An empty-element tag `<N/>` is a `Start` followed by an `End`.
    Start(&'a str),
    /// The end of the element named.
    End(&'a str),
    /// One text run inside an element, as written: entity and character
    /// references are still to be expanded ([`unescape`]). Never empty; a
    /// comment splits the text around it into two runs.
    Text(&'a str),
}

/// A pull reader over XML text: [`Reader::next`] yields the document's
/// [`Event`]s in order, or the first well-formedness error — a bad name,
/// attribute syntax other than `name = "value"`, a close tag that does
/// not match the open element, an unterminated element, comment or
/// attribute value, content after the document element. Comments, XML
/// declarations and whitespace between top-level elements yield nothing.
/// `Ok(None)` means the whole input was read and is well formed: a
/// consumer that stops earlier has not checked the rest.
pub struct Reader<'a> {
    input: &'a str,
    pos: usize,
    /// One top-level element (a document) or any number (a fragment).
    single_root: bool,
    /// A top-level element has been started.
    root_seen: bool,
    /// Names of the open elements, outermost first.
    open: Vec<&'a str>,
    /// The last start tag was `<N/>`: its `End` comes next.
    empty_element: bool,
    /// The last start tag's attributes, values as written.
    attributes: Vec<(&'a str, &'a str)>,
}

impl<'a> Reader<'a> {
    /// A reader over a document: one root element, nothing but comments
    /// and whitespace after it.
    pub fn document(input: &'a str) -> Self {
        Reader {
            input,
            pos: 0,
            single_root: true,
            root_seen: false,
            open: Vec::new(),
            empty_element: false,
            attributes: Vec::new(),
        }
    }

    /// A reader over a fragment: any number of sibling elements.
    pub fn fragment(input: &'a str) -> Self {
        Reader {
            single_root: false,
            ..Reader::document(input)
        }
    }

    /// The attributes of the start tag last yielded, in document order:
    /// name and value as written (references not yet expanded).
    pub fn attributes(&self) -> &[(&'a str, &'a str)] {
        &self.attributes
    }

    /// The next event, `None` at the end of well-formed input.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Event<'a>>, XmlParseError> {
        if self.empty_element {
            self.empty_element = false;
            return Ok(self.open.pop().map(Event::End));
        }
        loop {
            let Some(&name) = self.open.last() else {
                self.skip_misc();
                if self.at_end() && (self.root_seen || !self.single_root) {
                    return Ok(None);
                }
                if self.root_seen && self.single_root {
                    return Err(self.error("trailing content after document element"));
                }
                self.root_seen = true;
                return self.start_tag().map(Some);
            };
            let rest = self.rest();
            match rest.as_bytes() {
                [b'<', b'/', ..] => {
                    self.pos += 2;
                    let close = self.parse_name()?;
                    if close != name {
                        return Err(self.error(format!(
                            "mismatched close tag: expected </{name}>, found </{close}>"
                        )));
                    }
                    self.skip_whitespace();
                    self.expect(">")?;
                    self.open.pop();
                    return Ok(Some(Event::End(name)));
                }
                [b'<', b'!', b'-', b'-', ..] => match rest.find("-->") {
                    Some(end) => self.pos += end + 3,
                    None => return Err(self.error("unterminated comment")),
                },
                [b'<', ..] => return self.start_tag().map(Some),
                [] => return Err(self.error(format!("unterminated element <{name}>"))),
                _ => {
                    // Text run up to the next markup.
                    let end = rest.find('<').unwrap_or(rest.len());
                    self.pos += end;
                    return Ok(Some(Event::Text(&rest[..end])));
                }
            }
        }
    }

    /// Reads a start tag with its attributes; the element is open after.
    fn start_tag(&mut self) -> Result<Event<'a>, XmlParseError> {
        self.expect("<")?;
        let name = self.parse_name()?;
        self.attributes.clear();
        loop {
            self.skip_whitespace();
            if self.rest().starts_with("/>") {
                self.pos += 2;
                self.empty_element = true;
                break;
            }
            if self.rest().starts_with('>') {
                self.pos += 1;
                break;
            }
            let attr_name = self.parse_name()?;
            self.skip_whitespace();
            self.expect("=")?;
            self.skip_whitespace();
            let quote = self
                .rest()
                .chars()
                .next()
                .filter(|c| *c == '"' || *c == '\'')
                .ok_or_else(|| self.error("expected quoted attribute value"))?;
            self.pos += 1;
            let rest = self.rest();
            let end = rest
                .find(quote)
                .ok_or_else(|| self.error("unterminated attribute value"))?;
            self.pos += end + 1;
            self.attributes.push((attr_name, &rest[..end]));
        }
        self.open.push(name);
        Ok(Event::Start(name))
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn at_end(&self) -> bool {
        self.pos >= self.input.len()
    }

    fn error(&self, message: impl Into<String>) -> XmlParseError {
        XmlParseError {
            message: message.into(),
            offset: self.pos,
        }
    }

    fn skip_whitespace(&mut self) {
        let trimmed = self.rest().trim_start();
        self.pos = self.input.len() - trimmed.len();
    }

    /// Skips whitespace, XML declarations, and comments between elements
    /// (one left unterminated, to the end of the input).
    fn skip_misc(&mut self) {
        loop {
            self.skip_whitespace();
            let rest = self.rest();
            let close = match rest.as_bytes() {
                [b'<', b'?', ..] => "?>",
                [b'<', b'!', b'-', b'-', ..] => "-->",
                _ => return,
            };
            self.pos += rest.find(close).map_or(rest.len(), |end| end + close.len());
        }
    }

    fn expect(&mut self, s: &str) -> Result<(), XmlParseError> {
        if self.rest().starts_with(s) {
            self.pos += s.len();
            Ok(())
        } else {
            Err(self.error(format!("expected `{s}`")))
        }
    }

    fn parse_name(&mut self) -> Result<&'a str, XmlParseError> {
        let rest = self.rest();
        let end = rest.find(|c| !is_name_char(c)).unwrap_or(rest.len());
        if end == 0 {
            return Err(self.error("expected a name"));
        }
        self.pos += end;
        Ok(&rest[..end])
    }
}

fn is_name_char(c: char) -> bool {
    c.is_alphanumeric() || matches!(c, '_' | '-' | '.' | ':')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serialize::serialize_node;

    #[test]
    fn parse_flat_row() {
        let e = parse_document(
            "<ns0:CUSTOMERS><CUSTOMERID>55</CUSTOMERID><CUSTOMERNAME>Joe</CUSTOMERNAME></ns0:CUSTOMERS>",
        )
        .unwrap();
        assert_eq!(e.name.to_string(), "ns0:CUSTOMERS");
        assert_eq!(
            e.children_named("CUSTOMERNAME")
                .next()
                .unwrap()
                .string_value(),
            "Joe"
        );
    }

    #[test]
    fn roundtrip_through_serializer() {
        let src = "<RECORDSET><RECORD><ID>1</ID><NAME>a &amp; b</NAME></RECORD><RECORD><ID>2</ID><NAME/></RECORD></RECORDSET>";
        let tree = parse_document(src).unwrap();
        assert_eq!(serialize_node(&tree.into_node()), src);
    }

    #[test]
    fn parse_fragment_multiple_roots() {
        let rows =
            parse_fragment("<R><ID>1</ID></R>\n<R><ID>2</ID></R>\n<R><ID>3</ID></R>").unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2].string_value(), "3");
    }

    #[test]
    fn attributes_parse_and_unescape() {
        let e = parse_document(r#"<A x="1" y='a&amp;b'/>"#).unwrap();
        assert_eq!(e.attributes.len(), 2);
        assert_eq!(e.attributes[1].1, "a&b");
    }

    #[test]
    fn skips_declaration_and_comments() {
        let e = parse_document("<?xml version=\"1.0\"?><!-- head --><A><!-- inner --><B>x</B></A>")
            .unwrap();
        assert_eq!(e.child_elements().count(), 1);
    }

    #[test]
    fn mismatched_close_tag_rejected() {
        let err = parse_document("<A><B>x</C></A>").unwrap_err();
        assert!(err.message.contains("mismatched"));
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse_document("<A/><B/>").is_err());
    }

    #[test]
    fn unterminated_element_rejected() {
        assert!(parse_document("<A><B>x</B>").is_err());
    }

    #[test]
    fn entity_references_in_text() {
        let e = parse_document("<A>5 &lt; 6 &amp; 7 &gt; 2</A>").unwrap();
        assert_eq!(e.string_value(), "5 < 6 & 7 > 2");
    }

    /// The reader keeps the recursive parser's verdicts: `message` and
    /// `offset` for each input were read off the commit that still had it.
    #[test]
    fn malformed_input_errors_are_unchanged() {
        type Verdict = Option<(&'static str, usize)>;
        let documents: &[(&str, Verdict)] = &[
            ("", Some(("expected `<`", 0))),
            ("   ", Some(("expected `<`", 3))),
            ("text", Some(("expected `<`", 0))),
            ("<", Some(("expected a name", 1))),
            ("<A", Some(("expected a name", 2))),
            ("<A ", Some(("expected a name", 3))),
            ("<A x", Some(("expected `=`", 4))),
            ("<A x=", Some(("expected quoted attribute value", 5))),
            ("<A x=1>", Some(("expected quoted attribute value", 5))),
            ("<A x=\"1>", Some(("unterminated attribute value", 6))),
            ("<A x='1", Some(("unterminated attribute value", 6))),
            ("<A>", Some(("unterminated element <A>", 3))),
            ("<A><B>x</B>", Some(("unterminated element <A>", 11))),
            ("<A>text", Some(("unterminated element <A>", 7))),
            (
                "<A></B>",
                Some(("mismatched close tag: expected </A>, found </B>", 6)),
            ),
            (
                "<A><B>x</C></A>",
                Some(("mismatched close tag: expected </B>, found </C>", 10)),
            ),
            (
                "<A><B></A></B>",
                Some(("mismatched close tag: expected </B>, found </A>", 9)),
            ),
            ("<A></>", Some(("expected a name", 5))),
            ("<A></A", Some(("expected `>`", 6))),
            ("<A></A x>", Some(("expected `>`", 7))),
            ("<A>x<B y=\"1\"></B", Some(("expected `>`", 16))),
            ("<A>&amp</A", Some(("expected `>`", 10))),
            ("<A><!-- oops</A>", Some(("unterminated comment", 3))),
            (
                "<A/><B/>",
                Some(("trailing content after document element", 4)),
            ),
            (
                "<A/>x",
                Some(("trailing content after document element", 4)),
            ),
            (
                "<A/>>",
                Some(("trailing content after document element", 4)),
            ),
            (
                "<A><B/></A></A>",
                Some(("trailing content after document element", 11)),
            ),
            ("<A><?pi?></A>", Some(("expected a name", 4))),
            ("<A><!DOCTYPE x></A>", Some(("expected a name", 4))),
            ("<A x='1' y=\"2\" / >", Some(("expected a name", 15))),
            ("< A/>", Some(("expected a name", 1))),
            ("\u{feff}<A/>", Some(("expected `<`", 0))),
            // Unterminated prolog or epilog markup is skipped to the end.
            ("<?xml version=\"1.0\"", Some(("expected `<`", 19))),
            ("<!-- unterminated", Some(("expected `<`", 17))),
            ("<A/><!-- unterminated", None),
            ("<A/><?pi", None),
            ("<A x = '1'y='2'/>", None),
            ("<é>ü</é> <!-- c --> \n", None),
            ("<a:b><c:d/></a:b >", None),
        ];
        for (input, expected) in documents {
            let got = parse_document(input).err();
            let got = got.as_ref().map(|e| (e.message.as_str(), e.offset));
            assert_eq!(got, *expected, "document {input:?}");
        }
        type Elements = Result<usize, (&'static str, usize)>;
        let fragments: &[(&str, Elements)] = &[
            ("", Ok(0)),
            ("<A/> <B/>\n", Ok(2)),
            ("<A/><!-- open", Ok(1)),
            ("x", Err(("expected `<`", 0))),
            ("<A/>x", Err(("expected `<`", 4))),
            ("<A/><B>", Err(("unterminated element <B>", 7))),
            ("<A/></A>", Err(("expected a name", 5))),
        ];
        for (input, expected) in fragments {
            let got = parse_fragment(input);
            let got = got.as_ref().map(Vec::len);
            let got = got.map_err(|e| (e.message.as_str(), e.offset));
            assert_eq!(got, *expected, "fragment {input:?}");
        }
    }

    #[test]
    fn reader_yields_events_in_document_order() {
        let mut reader =
            Reader::document("<?xml version='1.0'?><R a='1&amp;2'>x<!-- c -->y<N/>&lt;</R> ");
        let mut events = Vec::new();
        while let Some(event) = reader.next().unwrap() {
            if event == Event::Start("R") {
                assert_eq!(reader.attributes(), [("a", "1&amp;2")]);
            }
            events.push(event);
        }
        use Event::*;
        assert_eq!(
            events,
            [
                Start("R"),
                Text("x"),
                Text("y"),
                Start("N"),
                End("N"),
                Text("&lt;"),
                End("R")
            ]
        );
        assert!(reader.attributes().is_empty());
        assert_eq!(reader.next(), Ok(None));
    }

    #[test]
    fn deep_nesting_needs_no_call_stack() {
        let depth = 200_000;
        let text = "<A>".repeat(depth);
        let mut reader = Reader::document(&text);
        for _ in 0..depth {
            assert_eq!(reader.next(), Ok(Some(Event::Start("A"))));
        }
        assert_eq!(
            reader.next().unwrap_err().message,
            "unterminated element <A>"
        );
    }
}
