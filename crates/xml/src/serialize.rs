//! XML serialization.
//!
//! Used by the driver's XML result-transport mode: the evaluated
//! `<RECORDSET>` tree is serialized to text, shipped across the (simulated)
//! client/server boundary, and re-parsed in the driver (paper §4 argues this
//! is the *slow* path that the text-encoded transport replaces).

use crate::escape::{escape_attribute, escape_attribute_into, escape_text, escape_text_into};
use crate::node::{Child, Children, ElementRef, Node};
use crate::qname::QName;
use crate::sequence::{Item, Sequence};

/// Serializes a node compactly (no added whitespace).
pub fn serialize_node(node: &Node) -> String {
    let mut out = String::new();
    write_node(&mut out, node);
    out
}

/// Serializes a single item: nodes as XML, atomics as their lexical form.
pub fn serialize_item(item: &Item) -> String {
    match item {
        Item::Node(n) => serialize_node(n),
        Item::Atomic(a) => a.lexical(),
    }
}

/// Serializes a sequence: nodes as markup, adjacent atomics joined with a
/// single space (XQuery serialization rules for sequence output).
pub fn serialize_sequence(seq: &Sequence) -> String {
    let mut out = String::new();
    let mut prev_atomic = false;
    for item in seq.iter() {
        match item {
            Item::Node(n) => {
                write_node(&mut out, n);
                prev_atomic = false;
            }
            Item::Atomic(a) => {
                if prev_atomic {
                    out.push(' ');
                }
                write_text(&mut out, &a.lexical_str());
                prev_atomic = true;
            }
        }
    }
    out
}

fn write_node(out: &mut String, node: &Node) {
    write_child(out, node.as_child());
}

fn write_child(out: &mut String, child: Child<'_>) {
    match child {
        Child::Text(t) => write_text(out, t),
        Child::Element(e) => write_element(out, e),
    }
}

// The writers below are public for a writer that serializes while it
// evaluates (the XQuery engine's XML sink): what it writes is then, by
// construction, what `serialize_sequence` makes of the tree it never built.

/// `<name>`.
pub fn write_start_tag(out: &mut String, name: &QName) {
    out.push('<');
    name.write_into(out);
    out.push('>');
}

/// `<name/>`: an element without children (an empty text node is a child:
/// that element is `<name></name>`).
pub fn write_empty_tag(out: &mut String, name: &QName) {
    out.push('<');
    name.write_into(out);
    out.push_str("/>");
}

/// `</name>`.
pub fn write_end_tag(out: &mut String, name: &QName) {
    out.push_str("</");
    name.write_into(out);
    out.push('>');
}

/// Text content, escaped in place.
pub fn write_text(out: &mut String, text: &str) {
    escape_text_into(out, text);
}

/// A whole element, markup and content.
pub fn write_element(out: &mut String, e: ElementRef<'_>) {
    write_parts(out, e.name(), e.attributes(), e.children());
}

pub(crate) fn write_parts(
    out: &mut String,
    name: &QName,
    attributes: &[(QName, String)],
    children: Children<'_>,
) {
    out.push('<');
    name.write_into(out);
    for (name, value) in attributes {
        out.push(' ');
        name.write_into(out);
        out.push_str("=\"");
        escape_attribute_into(out, value);
        out.push('"');
    }
    if children.clone().next().is_none() {
        out.push_str("/>");
        return;
    }
    out.push('>');
    for child in children {
        write_child(out, child);
    }
    write_end_tag(out, name);
}

/// Pretty-prints a node with two-space indentation — used by examples and
/// debugging output, never by the transport (whitespace would pollute
/// simple content).
pub fn pretty_print(node: &Node) -> String {
    let mut out = String::new();
    pretty_node(node.as_child(), 0, &mut out);
    out
}

fn pretty_node(node: Child<'_>, depth: usize, out: &mut String) {
    match node {
        Child::Text(t) => {
            indent(depth, out);
            out.push_str(&escape_text(t));
            out.push('\n');
        }
        Child::Element(e) => {
            indent(depth, out);
            if e.children().next().is_none() {
                out.push_str(&format!("<{}/>\n", render_open(e)));
            } else if e.is_simple() {
                // Simple content inline: <ID>55</ID>
                out.push_str(&format!(
                    "<{}>{}</{}>\n",
                    render_open(e),
                    escape_text(&e.string_value()),
                    e.name()
                ));
            } else {
                out.push_str(&format!("<{}>\n", render_open(e)));
                for child in e.children() {
                    pretty_node(child, depth + 1, out);
                }
                indent(depth, out);
                out.push_str(&format!("</{}>\n", e.name()));
            }
        }
    }
}

fn render_open(e: ElementRef<'_>) -> String {
    let mut s = e.name().to_string();
    for (name, value) in e.attributes() {
        s.push_str(&format!(" {}=\"{}\"", name, escape_attribute(value)));
    }
    s
}

fn indent(depth: usize, out: &mut String) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atomic::Atomic;
    use crate::Element;

    fn record() -> Element {
        Element::new("RECORD")
            .with_child(Element::new("ID").with_text("55"))
            .with_child(Element::new("NAME").with_text("Joe & Sue"))
    }

    #[test]
    fn compact_serialization() {
        let xml = serialize_node(&record().into_node());
        assert_eq!(
            xml,
            "<RECORD><ID>55</ID><NAME>Joe &amp; Sue</NAME></RECORD>"
        );
    }

    #[test]
    fn empty_element_self_closes() {
        let xml = serialize_node(&Element::new("NIL").into_node());
        assert_eq!(xml, "<NIL/>");
    }

    #[test]
    fn attributes_serialize_escaped() {
        let e = Element::new(QName::parse("ns0:ROW")).with_attribute("note", "a\"b");
        assert_eq!(
            serialize_node(&e.into_node()),
            "<ns0:ROW note=\"a&quot;b\"/>"
        );
    }

    #[test]
    fn sequence_joins_atomics_with_space() {
        let seq = Sequence::from_items(vec![
            Atomic::Integer(1).into(),
            Atomic::Integer(2).into(),
            Item::element(Element::new("X")),
            Atomic::Integer(3).into(),
        ]);
        assert_eq!(serialize_sequence(&seq), "1 2<X/>3");
    }

    #[test]
    fn pretty_print_inlines_simple_content() {
        let out = pretty_print(&record().into_node());
        assert!(out.contains("  <ID>55</ID>\n"));
        assert!(out.starts_with("<RECORD>\n"));
    }
}
