//! Ordered XML node trees.
//!
//! The generated query dialect constructs element trees
//! (`<RECORD><ID>{...}</ID></RECORD>`) and navigates them with child steps.
//! Nodes are immutable once built and shared via `Arc`, so sequences can hold
//! many references to the same subtree without copying — important for
//! `let`-bound views that are iterated by several downstream clauses.

use crate::atomic::{Atomic, XsType};
use crate::qname::QName;
use std::fmt;
use std::sync::Arc;

/// An XML node: element or text. (The generated dialect never constructs
/// comments, processing instructions, or standalone attribute nodes;
/// attributes live on their owner [`Element`].)
#[derive(Clone, PartialEq)]
pub enum Node {
    /// An element node.
    Element(Arc<Element>),
    /// A text node.
    Text(Arc<str>),
}

/// An element: name, attributes, ordered children.
#[derive(Clone, PartialEq)]
pub struct Element {
    /// The element's qualified name.
    pub name: QName,
    /// Attributes in document order.
    pub attributes: Vec<(QName, String)>,
    /// Children in document order.
    pub children: Vec<Node>,
}

impl Element {
    /// Creates an empty element.
    pub fn new(name: impl Into<QName>) -> Element {
        Element {
            name: name.into(),
            attributes: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Builder-style: appends a child element.
    pub fn with_child(mut self, child: Element) -> Element {
        self.children.push(Node::Element(Arc::new(child)));
        self
    }

    /// Builder-style: appends a text child. The empty string appends
    /// nothing — an empty text node has no XML representation (it would
    /// not survive a serialize/parse round trip), and the element's
    /// string value is `""` either way.
    pub fn with_text(mut self, text: impl Into<Arc<str>>) -> Element {
        let text = text.into();
        if !text.is_empty() {
            self.children.push(Node::Text(text));
        }
        self
    }

    /// Builder-style: adds an attribute.
    pub fn with_attribute(mut self, name: impl Into<QName>, value: impl Into<String>) -> Element {
        self.attributes.push((name.into(), value.into()));
        self
    }

    /// Wraps this element as a [`Node`].
    pub fn into_node(self) -> Node {
        Node::Element(Arc::new(self))
    }

    /// Child *elements* in document order.
    pub fn child_elements(&self) -> impl Iterator<Item = &Arc<Element>> {
        self.children.iter().filter_map(|c| match c {
            Node::Element(e) => Some(e),
            Node::Text(_) => None,
        })
    }

    /// Child elements whose local name equals `local` (path step semantics
    /// of the generated dialect — see [`QName::matches_local`]).
    pub fn children_named<'a>(&'a self, local: &'a str) -> impl Iterator<Item = &'a Arc<Element>> {
        self.child_elements()
            .filter(move |e| e.name.matches_local(local))
    }

    /// The *string value*: concatenation of all descendant text.
    pub fn string_value(&self) -> String {
        let mut out = String::new();
        self.each_text(&mut |text| out.push_str(text));
        out
    }

    /// Calls `f` on every descendant text node in document order — the
    /// pieces of the string value, for a caller that writes them somewhere
    /// (escaped, say) without building the value first.
    pub fn each_text(&self, f: &mut impl FnMut(&str)) {
        for child in &self.children {
            match child {
                Node::Text(t) => f(t),
                Node::Element(e) => e.each_text(f),
            }
        }
    }

    /// True when this element has no element children — i.e. simple content.
    pub fn is_simple(&self) -> bool {
        self.child_elements().next().is_none()
    }
}

impl Node {
    /// The element behind this node, if it is one.
    pub fn as_element(&self) -> Option<&Arc<Element>> {
        match self {
            Node::Element(e) => Some(e),
            Node::Text(_) => None,
        }
    }

    /// The node's string value.
    pub fn string_value(&self) -> String {
        match self {
            Node::Element(e) => e.string_value(),
            Node::Text(t) => t.to_string(),
        }
    }

    /// *Typed-value atomization* (`fn:data`): the node's string value,
    /// interpreted per `hint` when one is known from schema metadata, else
    /// as `xs:untypedAtomic` — untyped values later coerce to whatever type
    /// they meet in comparisons and arithmetic (XQuery 1.0 rules).
    pub fn typed_value(&self, hint: Option<XsType>) -> Option<Atomic> {
        let s = self.string_value();
        match hint {
            None => Some(Atomic::Untyped(s)),
            Some(XsType::String) => Some(Atomic::String(s)),
            Some(t) => Atomic::Untyped(s).cast_to(t).ok(),
        }
    }
}

impl fmt::Debug for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::serialize::serialize_node(self))
    }
}

impl fmt::Debug for Element {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::serialize::serialize_node(&Node::Element(Arc::new(
            self.clone(),
        ))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_row() -> Element {
        Element::new(QName::parse("ns0:CUSTOMERS"))
            .with_child(Element::new("CUSTOMERID").with_text("55"))
            .with_child(Element::new("CUSTOMERNAME").with_text("Joe"))
    }

    #[test]
    fn child_navigation_by_local_name() {
        let row = sample_row();
        let ids: Vec<_> = row.children_named("CUSTOMERID").collect();
        assert_eq!(ids.len(), 1);
        assert_eq!(ids[0].string_value(), "55");
    }

    #[test]
    fn string_value_concatenates_descendants() {
        let nested = Element::new("A")
            .with_text("x")
            .with_child(Element::new("B").with_text("y"))
            .with_text("z");
        assert_eq!(nested.string_value(), "xyz");
    }

    #[test]
    fn typed_value_uses_hint() {
        let row = sample_row();
        let id = row.children_named("CUSTOMERID").next().unwrap();
        let v = Node::Element(id.clone()).typed_value(Some(XsType::Integer));
        assert_eq!(v, Some(Atomic::Integer(55)));
    }

    #[test]
    fn simple_content_detection() {
        let row = sample_row();
        assert!(!row.is_simple());
        assert!(row.children_named("CUSTOMERID").next().unwrap().is_simple());
    }

    #[test]
    fn document_order_preserved() {
        let row = sample_row();
        let names: Vec<_> = row
            .child_elements()
            .map(|e| e.name.local_part().to_string())
            .collect();
        assert_eq!(names, ["CUSTOMERID", "CUSTOMERNAME"]);
    }
}
