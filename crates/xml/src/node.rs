//! Ordered XML node trees.
//!
//! The generated query dialect constructs element trees
//! (`<RECORD><ID>{...}</ID></RECORD>`) and navigates them with child steps.
//! Nodes are immutable once built and shared via `Arc`, so sequences can hold
//! many references to the same subtree without copying — important for
//! `let`-bound views that are iterated by several downstream clauses.

use crate::atomic::{Atomic, XsType};
use crate::flat::{FlatCell, FlatRow};
use crate::qname::QName;
use std::fmt;
use std::sync::Arc;

/// An XML node: element or text. (The generated dialect never constructs
/// comments, processing instructions, or standalone attribute nodes;
/// attributes live on their owner [`Element`].) A data-service row is an
/// element held flat ([`crate::flat`]): `Row` and `Cell` are elements to
/// every reader, through [`Node::as_element_ref`].
#[derive(Clone)]
pub enum Node {
    /// An element node.
    Element(Arc<Element>),
    /// A text node.
    Text(Arc<str>),
    /// A flat row: the element `<ROW><COL>text</COL>…</ROW>`.
    Row(Arc<FlatRow>),
    /// A present column of a flat row: the element `<COL>text</COL>`.
    Cell(FlatCell),
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

    /// Child *elements* in document order — flat rows among them.
    #[inline]
    pub fn child_elements(&self) -> impl Iterator<Item = ElementRef<'_>> {
        self.children.iter().filter_map(Node::as_element_ref)
    }

    /// Child elements whose local name equals `local` (path step semantics
    /// of the generated dialect — see [`QName::matches_local`]).
    pub fn children_named<'a>(&'a self, local: &'a str) -> impl Iterator<Item = ElementRef<'a>> {
        self.child_elements()
            .filter(move |e| e.name().matches_local(local))
    }

    /// The *string value*: concatenation of all descendant text.
    pub fn string_value(&self) -> String {
        let mut out = String::new();
        tree_text(&self.children, &mut |text| out.push_str(text));
        out
    }

    /// True when this element has no element children — i.e. simple content.
    pub fn is_simple(&self) -> bool {
        self.child_elements().next().is_none()
    }
}

/// An element node, borrowed: a tree [`Element`], a flat row or a column
/// of one. The accessors every reader of an element goes through, so a
/// reader sees a flat row as the element it stands for.
#[derive(Clone, Copy)]
pub struct ElementRef<'a>(Repr<'a>);

#[derive(Clone, Copy)]
enum Repr<'a> {
    Tree(&'a Arc<Element>),
    Row(&'a Arc<FlatRow>),
    /// The row, the index of a present cell and the column's name.
    Cell(&'a Arc<FlatRow>, usize, &'a QName),
}

impl<'a> ElementRef<'a> {
    /// The element's name.
    #[inline]
    pub fn name(self) -> &'a QName {
        match self.0 {
            Repr::Tree(e) => &e.name,
            Repr::Row(row) => row.schema().name(),
            Repr::Cell(_, _, name) => name,
        }
    }

    /// Attributes in document order; a flat row and its columns have none.
    pub fn attributes(self) -> &'a [(QName, String)] {
        match self.0 {
            Repr::Tree(e) => &e.attributes,
            Repr::Row(_) | Repr::Cell(..) => &[],
        }
    }

    /// Every child, elements and text, in document order.
    #[inline]
    pub(crate) fn children(self) -> Children<'a> {
        match self.0 {
            Repr::Tree(e) => Children::Tree(e.children.iter()),
            Repr::Row(_) => Children::Row(self.elements()),
            Repr::Cell(row, column, _) => {
                Children::Text(Some(row.text(column)).filter(|text| !text.is_empty()))
            }
        }
    }

    /// Child elements in document order: a flat row's are its present
    /// columns, named by the schema.
    #[inline]
    pub fn child_elements(self) -> impl Iterator<Item = ElementRef<'a>> {
        self.elements()
    }

    #[inline]
    fn elements(self) -> ChildElements<'a> {
        match self.0 {
            Repr::Tree(e) => ChildElements::Tree(e.children.iter()),
            Repr::Row(row) => ChildElements::Row(row, row.cells().iter().enumerate()),
            Repr::Cell(..) => ChildElements::One(None),
        }
    }

    /// Child elements whose local name equals `local`. A flat row's column
    /// is found by its index in the row's schema, and only its cell is
    /// read.
    #[inline]
    pub fn children_named(self, local: &'a str) -> impl Iterator<Item = ElementRef<'a>> {
        let (children, test) = match self.0 {
            Repr::Row(row) if row.schema().distinct() => {
                (ChildElements::One(column(row, local)), None)
            }
            _ => (self.elements(), Some(local)),
        };
        children.filter(move |e| test.is_none_or(|local| e.name().matches_local(local)))
    }

    /// Calls `f` on every descendant text node in document order — the
    /// pieces of the string value, for a caller that writes them somewhere
    /// (escaped, say) without building the value first. The one text walk,
    /// recursing only into tree children.
    #[inline]
    pub fn each_text(self, f: &mut impl FnMut(&str)) {
        match self.0 {
            Repr::Tree(e) => tree_text(&e.children, f),
            Repr::Row(row) => flat_text(row.cells(), f),
            Repr::Cell(row, column, _) => flat_text(std::slice::from_ref(&row.cells()[column]), f),
        }
    }

    /// The *string value*: concatenation of all descendant text.
    pub fn string_value(self) -> String {
        let mut out = String::new();
        self.each_text(&mut |text| out.push_str(text));
        out
    }

    /// True when the element has no element children.
    pub fn is_simple(self) -> bool {
        self.child_elements().next().is_none()
    }

    /// The text node that is the element's only child, shared — a flat
    /// row's column holds its text so; `None` for any other content.
    #[inline]
    pub fn text(self) -> Option<&'a Arc<str>> {
        let mut children = self.children();
        match (children.next(), children.next()) {
            (Some(Child::Text(text)), None) => Some(text),
            _ => None,
        }
    }

    /// The element as an owned node: a reference count, no copy.
    #[inline]
    pub fn to_node(self) -> Node {
        match self.0 {
            Repr::Tree(e) => Node::Element(Arc::clone(e)),
            Repr::Row(row) => Node::Row(Arc::clone(row)),
            Repr::Cell(row, column, _) => Node::Cell(FlatCell {
                row: Arc::clone(row),
                column,
            }),
        }
    }
}

impl<'a> From<&'a Arc<Element>> for ElementRef<'a> {
    fn from(e: &'a Arc<Element>) -> ElementRef<'a> {
        ElementRef(Repr::Tree(e))
    }
}

/// Column `local` of a flat row whose columns are distinct, if present: a
/// lookup in the schema's names.
#[inline]
fn column<'a>(row: &'a Arc<FlatRow>, local: &str) -> Option<ElementRef<'a>> {
    let columns = row.schema().columns();
    let at = columns.iter().position(|name| name.matches_local(local))?;
    row.cells()[at].as_ref()?;
    Some(cell(row, at))
}

/// The text under tree children, in document order.
fn tree_text(children: &[Node], f: &mut impl FnMut(&str)) {
    for child in children {
        match child {
            Node::Text(text) => f(text),
            Node::Element(e) => tree_text(&e.children, f),
            Node::Row(row) => flat_text(row.cells(), f),
            Node::Cell(cell) => flat_text(std::slice::from_ref(&cell.row.cells()[cell.column]), f),
        }
    }
}

/// The text of flat cells: each present cell's, unless empty (a column
/// element without a text node, `<COL/>`).
#[inline]
fn flat_text(cells: &[Option<Arc<str>>], f: &mut impl FnMut(&str)) {
    for text in cells.iter().flatten().filter(|text| !text.is_empty()) {
        f(text)
    }
}

/// Structural: a flat row equals the element tree it stands for.
impl PartialEq for ElementRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.name() == other.name()
            && self.attributes() == other.attributes()
            && self.children().eq(other.children())
    }
}

/// A child, borrowed: an element or a text node.
#[derive(PartialEq)]
pub(crate) enum Child<'a> {
    Element(ElementRef<'a>),
    Text(&'a Arc<str>),
}

/// An element's children in document order.
#[derive(Clone)]
pub(crate) enum Children<'a> {
    Tree(std::slice::Iter<'a, Node>),
    /// A flat row's: its present columns.
    Row(ChildElements<'a>),
    /// A column's: its text, when it is not empty.
    Text(Option<&'a Arc<str>>),
}

impl<'a> Iterator for Children<'a> {
    type Item = Child<'a>;

    fn next(&mut self) -> Option<Child<'a>> {
        match self {
            Children::Tree(nodes) => nodes.next().map(Node::as_child),
            Children::Row(columns) => columns.next().map(Child::Element),
            Children::Text(text) => text.take().map(Child::Text),
        }
    }
}

/// An element's child elements in document order.
#[derive(Clone)]
pub(crate) enum ChildElements<'a> {
    Tree(std::slice::Iter<'a, Node>),
    /// A flat row's cells from the iterator's on: the present ones are
    /// its child elements.
    Row(
        &'a Arc<FlatRow>,
        std::iter::Enumerate<std::slice::Iter<'a, Option<Arc<str>>>>,
    ),
    /// One element or none: a flat row's column found by name; a
    /// column's children, none.
    One(Option<ElementRef<'a>>),
}

impl<'a> Iterator for ChildElements<'a> {
    type Item = ElementRef<'a>;

    #[inline]
    fn next(&mut self) -> Option<ElementRef<'a>> {
        match self {
            ChildElements::Tree(nodes) => nodes.find_map(Node::as_element_ref),
            ChildElements::Row(row, cells) => {
                let (column, _) = cells.find(|(_, cell)| cell.is_some())?;
                Some(cell(row, column))
            }
            ChildElements::One(element) => element.take(),
        }
    }
}

impl Node {
    /// The element behind this node, tree or flat, if it is one.
    #[inline]
    pub fn as_element_ref(&self) -> Option<ElementRef<'_>> {
        Some(ElementRef(match self {
            Node::Element(e) => Repr::Tree(e),
            Node::Row(row) => Repr::Row(row),
            Node::Cell(cell) => return Some(cell.as_element_ref()),
            Node::Text(_) => return None,
        }))
    }

    pub(crate) fn as_child(&self) -> Child<'_> {
        match self {
            Node::Element(e) => Child::Element(ElementRef(Repr::Tree(e))),
            Node::Text(text) => Child::Text(text),
            Node::Row(row) => Child::Element(ElementRef(Repr::Row(row))),
            Node::Cell(cell) => Child::Element(cell.as_element_ref()),
        }
    }

    /// Calls `f` on every text node of the node's string value, in order.
    pub fn each_text(&self, f: &mut impl FnMut(&str)) {
        match self.as_child() {
            Child::Text(text) => f(text),
            Child::Element(e) => e.each_text(f),
        }
    }

    /// The node's string value.
    pub fn string_value(&self) -> String {
        match self.as_child() {
            Child::Text(text) => text.to_string(),
            Child::Element(e) => e.string_value(),
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

/// Structural, as the data model compares trees: a flat row equals the
/// element tree it stands for, in both directions.
impl PartialEq for Node {
    fn eq(&self, other: &Node) -> bool {
        self.as_child() == other.as_child()
    }
}

impl FlatCell {
    #[inline]
    fn as_element_ref(&self) -> ElementRef<'_> {
        cell(&self.row, self.column)
    }
}

/// Column `column` of `row`, a present cell, with its name looked up once.
#[inline]
fn cell(row: &Arc<FlatRow>, column: usize) -> ElementRef<'_> {
    ElementRef(Repr::Cell(row, column, &row.schema().columns()[column]))
}

impl From<FlatRow> for Node {
    fn from(row: FlatRow) -> Node {
        Node::Row(Arc::new(row))
    }
}

impl fmt::Debug for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::serialize::serialize_node(self))
    }
}

impl fmt::Debug for Element {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        let children = Children::Tree(self.children.iter());
        crate::serialize::write_parts(&mut out, &self.name, &self.attributes, children);
        f.write_str(&out)
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
        let v = id.to_node().typed_value(Some(XsType::Integer));
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
            .map(|e| e.name().local_part().to_string())
            .collect();
        assert_eq!(names, ["CUSTOMERID", "CUSTOMERNAME"]);
    }
}
