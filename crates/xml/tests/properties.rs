//! Property-based tests for the XML substrate: escaping and
//! serialize/parse round-trips must hold for arbitrary content, because
//! the result transports put arbitrary SQL data through them.

use aldsp_xml::escape::{escape_attribute, escape_text, unescape};
use aldsp_xml::flat::build_row;
use aldsp_xml::parse::{Event, Reader};
use aldsp_xml::{
    parse_document, serialize_node, Element, ElementRef, Item, Node, QName, RowSchema, XsType,
};
use proptest::prelude::*;

/// Text without control characters (which XML cannot carry anyway).
fn xml_text() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[ -~éüλ←🙂]{0,40}").unwrap()
}

/// Valid element/attribute names.
fn xml_name() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[A-Za-z_][A-Za-z0-9_.-]{0,12}").unwrap()
}

/// The element tree a data-service row was before rows were held flat: a
/// child element per present column, its text a text node unless empty.
fn tree_row(row_name: &QName, columns: &[(String, Option<String>)]) -> Element {
    let mut row = Element::new(row_name.clone());
    for (name, value) in columns {
        if let Some(v) = value {
            row = row.with_child(Element::new(QName::local(name.as_str())).with_text(v.as_str()));
        }
    }
    row
}

/// Every accessor of the parity rule, on a flat node and its tree: name,
/// attributes, string value, text pieces, typed value under every hint,
/// serialization, `Debug`, `==` both ways, and the child elements a name
/// selects; then the same of each child element, in order.
fn assert_same_element(flat: ElementRef<'_>, tree: ElementRef<'_>) {
    prop_assert_eq!(flat.name(), tree.name());
    prop_assert_eq!(flat.attributes(), tree.attributes());
    prop_assert_eq!(flat.string_value(), tree.string_value());
    prop_assert_eq!(flat.is_simple(), tree.is_simple());
    prop_assert_eq!(flat.text(), tree.text());
    let pieces = |e: ElementRef<'_>| {
        let mut pieces = Vec::new();
        e.each_text(&mut |text| pieces.push(text.to_string()));
        pieces
    };
    prop_assert_eq!(pieces(flat), pieces(tree));
    let (flat_node, tree_node) = (flat.to_node(), tree.to_node());
    for hint in [
        None,
        Some(XsType::String),
        Some(XsType::Integer),
        Some(XsType::Decimal),
        Some(XsType::Double),
        Some(XsType::Boolean),
        Some(XsType::Date),
        Some(XsType::Untyped),
    ] {
        prop_assert_eq!(flat_node.typed_value(hint), tree_node.typed_value(hint));
    }
    prop_assert_eq!(serialize_node(&flat_node), serialize_node(&tree_node));
    prop_assert_eq!(format!("{flat_node:?}"), format!("{tree_node:?}"));
    // `==` both ways: the flat side's impl on the left, then the tree's.
    prop_assert_eq!(&flat_node, &tree_node);
    prop_assert_eq!(&tree_node, &flat_node);
    prop_assert!(flat.child_elements().count() == tree.child_elements().count());
    // A child step by name: a flat row's finds the column by index.
    for child in tree.child_elements() {
        let local = child.name().local_part();
        let named = |e: ElementRef<'_>| {
            e.children_named(local)
                .map(|c| c.to_node())
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(named(flat), named(tree));
    }
    for (flat, tree) in flat.child_elements().zip(tree.child_elements()) {
        assert_same_element(flat, tree);
    }
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
    fn a_flat_row_reads_as_the_tree_it_stands_for(
        prefixed in proptest::bool::ANY,
        name in xml_name(),
        cells in proptest::collection::vec((xml_name(), 0u8..6, xml_text()), 0..10),
    ) {
        // NULL, empty, markup, numbers and any text (non-ASCII among it).
        let columns: Vec<(String, Option<String>)> = cells
            .into_iter()
            .map(|(column, kind, text)| {
                let value = match kind {
                    0 => None,
                    1 => Some(String::new()),
                    2 => Some("&<>\"".to_string()),
                    3 => Some("-12.50".to_string()),
                    4 => Some("42".to_string()),
                    _ => Some(text),
                };
                (column, value)
            })
            .collect();
        let row_name = match prefixed {
            true => QName::prefixed("ns0", name.as_str()),
            false => QName::local(name.as_str()),
        };
        let schema = RowSchema::new(row_name.clone(), columns.iter().map(|(c, _)| c.as_str()));
        let flat = Item::from(build_row(&schema, columns.iter().map(|(_, v)| v.as_deref())));
        let tree = Item::element(tree_row(&row_name, &columns));
        assert_same_element(flat.as_element_ref().unwrap(), tree.as_element_ref().unwrap());
        prop_assert_eq!(&flat, &tree);
        prop_assert_eq!(flat.string_value(), tree.string_value());
        prop_assert_eq!(flat.atomize(None), tree.atomize(None));
        prop_assert_eq!(flat.atomize(Some(XsType::Integer)), tree.atomize(Some(XsType::Integer)));
        // A row inside a constructed element is one of its children.
        let wrap = |row: &Item| {
            let Item::Node(row) = row else { unreachable!("a row is a node") };
            Element { children: vec![row.clone()], ..Element::new("RECORDSET") }
        };
        let (flat_set, tree_set) = (wrap(&flat), wrap(&tree));
        prop_assert_eq!(&flat_set, &tree_set);
        prop_assert_eq!(format!("{flat_set:?}"), format!("{tree_set:?}"));
        prop_assert_eq!(flat_set.string_value(), tree_set.string_value());
        prop_assert_eq!(flat_set.child_elements().count(), 1);
    }

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
