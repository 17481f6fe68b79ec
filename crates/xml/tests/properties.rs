//! Property-based tests for the XML substrate: escaping and
//! serialize/parse round-trips must hold for arbitrary content, because
//! the result transports put arbitrary SQL data through them.

use aldsp_xml::escape::{escape_attribute, escape_text, unescape};
use aldsp_xml::parse::{Event, Reader};
use aldsp_xml::{parse_document, serialize_node, Element, Node, QName};
use proptest::prelude::*;

/// Text without control characters (which XML cannot carry anyway).
fn xml_text() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[ -~éüλ←🙂]{0,40}").unwrap()
}

/// Valid element/attribute names.
fn xml_name() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[A-Za-z_][A-Za-z0-9_.-]{0,12}").unwrap()
}

/// A well-formed document written by hand from a flat list of steps, so
/// that it holds what the tree serializer never writes: comments, spaced
/// and single-quoted attributes, character references, `<N></N>`.
fn document_text(steps: &[(u8, String, String)]) -> String {
    let mut out = String::from("<?xml version=\"1.0\"?>\n<!-- head --><root>");
    let mut open = Vec::new();
    for (kind, name, text) in steps {
        match kind {
            0 => {
                out.push_str(&format!(
                    "<{name} a = \"{}\" b='&#x41;' >",
                    escape_attribute(text)
                ));
                open.push(name);
            }
            1 => {
                if let Some(name) = open.pop() {
                    out.push_str(&format!("</{name} >"));
                }
            }
            2 => out.push_str(&escape_text(text)),
            3 => out.push_str(&format!("<!-- {name} -->")),
            4 => out.push_str(&format!("<{name}/>&#65;")),
            _ => out.push_str(&format!("<p:{name}></p:{name}>")),
        }
    }
    while let Some(name) = open.pop() {
        out.push_str(&format!("</{name}>"));
    }
    out + "</root>\n<!-- tail -->"
}

/// The document as its event stream spells it, in the serializer's form.
fn serialize_events(text: &str) -> String {
    let mut reader = Reader::document(text);
    let mut out = String::new();
    let mut start_tag_open = false;
    while let Some(event) = reader.next().unwrap() {
        if start_tag_open {
            out.push_str(if matches!(event, Event::End(_)) {
                "/>"
            } else {
                ">"
            });
        }
        match event {
            Event::Start(name) => {
                out.push_str(&format!("<{name}"));
                for (name, value) in reader.attributes() {
                    let value = escape_attribute(&unescape(value));
                    out.push_str(&format!(" {name}=\"{value}\""));
                }
            }
            Event::End(_) if start_tag_open => {}
            Event::End(name) => out.push_str(&format!("</{name}>")),
            Event::Text(raw) => out.push_str(&escape_text(&unescape(raw))),
        }
        start_tag_open = matches!(event, Event::Start(_));
    }
    out
}

proptest! {
    #[test]
    fn event_stream_and_tree_spell_the_same_document(
        steps in proptest::collection::vec((0u8..6, xml_name(), xml_text()), 0..24),
    ) {
        let text = document_text(&steps);
        let tree = parse_document(&text).unwrap();
        prop_assert_eq!(serialize_events(&text), serialize_node(&tree.into_node()));
    }

    #[test]
    fn escape_text_roundtrips(s in xml_text()) {
        prop_assert_eq!(unescape(&escape_text(&s)), s);
    }

    #[test]
    fn escape_attribute_roundtrips(s in xml_text()) {
        prop_assert_eq!(unescape(&escape_attribute(&s)), s);
    }

    #[test]
    fn escaped_text_has_no_raw_separators(s in xml_text()) {
        // The §4 transport depends on escaped values never containing the
        // raw separator characters.
        let escaped = escape_text(&s);
        prop_assert!(!escaped.contains('<'));
        prop_assert!(!escaped.contains('>'));
    }

    #[test]
    fn flat_row_serialize_parse_roundtrip(
        name in xml_name(),
        columns in proptest::collection::vec((xml_name(), xml_text()), 0..6),
    ) {
        let mut row = Element::new(QName::local(name));
        for (col, value) in &columns {
            row = row.with_child(
                Element::new(QName::local(col.clone())).with_text(value.clone()),
            );
        }
        let serialized = serialize_node(&row.clone().into_node());
        let parsed = parse_document(&serialized).unwrap();
        prop_assert_eq!(
            serialize_node(&parsed.into_node()),
            serialized
        );
    }

    #[test]
    fn nested_tree_roundtrip(
        outer in xml_name(),
        inner in xml_name(),
        attr in xml_name(),
        attr_value in xml_text(),
        text in xml_text(),
    ) {
        let tree = Element::new(QName::local(outer))
            .with_attribute(QName::local(attr), attr_value)
            .with_child(Element::new(QName::local(inner)).with_text(text));
        let serialized = serialize_node(&tree.clone().into_node());
        let reparsed = parse_document(&serialized).unwrap();
        prop_assert_eq!(serialize_node(&Node::Element(reparsed.into())), serialized);
    }
}
