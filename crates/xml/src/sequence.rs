//! Items and sequences — the universal value of XQuery evaluation.
//!
//! Everything an XQuery expression produces is a flat, ordered sequence of
//! items; a single item and a singleton sequence are indistinguishable, and
//! nested sequences flatten (XQuery 1.0 §2.4.1). The empty sequence stands
//! in for SQL NULL throughout the translated dialect: a missing column value
//! simply produces no item, and `fn-bea:if-empty` substitutes defaults
//! during result serialization (paper §4).

use crate::atomic::{Atomic, XsType};
use crate::node::{Element, Node};
use std::fmt;
use std::sync::Arc;

/// A single XQuery item: a node or an atomic value.
#[derive(Clone, PartialEq)]
pub enum Item {
    /// An XML node.
    Node(Node),
    /// An atomic value.
    Atomic(Atomic),
}

impl Item {
    /// Wraps an element.
    pub fn element(e: Element) -> Item {
        Item::Node(e.into_node())
    }

    /// Atomizes the item (`fn:data` on one item). Node content is
    /// interpreted per `hint`; an empty node yields the empty string (the
    /// dialect treats absent columns as empty sequences *before* this
    /// point).
    pub fn atomize(&self, hint: Option<XsType>) -> Option<Atomic> {
        match self {
            Item::Atomic(a) => Some(a.clone()),
            Item::Node(n) => n.typed_value(hint),
        }
    }

    /// The item's string value.
    pub fn string_value(&self) -> String {
        let mut out = String::new();
        self.push_string_value(&mut out);
        out
    }

    /// Appends the item's string value to `out`.
    pub fn push_string_value(&self, out: &mut String) {
        match self {
            Item::Atomic(Atomic::String(s) | Atomic::Untyped(s) | Atomic::Date(s)) => {
                out.push_str(s)
            }
            Item::Atomic(a) => out.push_str(&a.lexical()),
            Item::Node(Node::Text(t)) => out.push_str(t),
            Item::Node(Node::Element(e)) => e.each_text(&mut |text| out.push_str(text)),
        }
    }

    /// The element behind this item, if it is an element node.
    pub fn as_element(&self) -> Option<&Arc<Element>> {
        match self {
            Item::Node(n) => n.as_element(),
            Item::Atomic(_) => None,
        }
    }

    /// The atomic behind this item, if any.
    pub fn as_atomic(&self) -> Option<&Atomic> {
        match self {
            Item::Atomic(a) => Some(a),
            Item::Node(_) => None,
        }
    }
}

impl fmt::Debug for Item {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Item::Node(n) => write!(f, "{:?}", n),
            Item::Atomic(a) => write!(f, "{}", a),
        }
    }
}

impl From<Atomic> for Item {
    fn from(a: Atomic) -> Item {
        Item::Atomic(a)
    }
}

impl From<Node> for Item {
    fn from(n: Node) -> Item {
        Item::Node(n)
    }
}

/// An ordered, flat sequence of items.
///
/// Sequences are the working currency of the evaluator; most are tiny
/// (singleton column values), some are large (a whole view). The inner
/// vector is not reference counted: large sequences get bound to variables
/// exactly once in the generated dialect, and items themselves are cheap to
/// clone (Arc-backed nodes).
#[derive(Clone, PartialEq, Default)]
pub struct Sequence(Vec<Item>);

impl Sequence {
    /// The empty sequence — XQuery's NULL analogue.
    pub fn empty() -> Sequence {
        Sequence(Vec::new())
    }

    /// A singleton sequence.
    pub fn singleton(item: impl Into<Item>) -> Sequence {
        Sequence(vec![item.into()])
    }

    /// Builds from items, flattening nothing (items are already flat).
    pub fn from_items(items: Vec<Item>) -> Sequence {
        Sequence(items)
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when empty (`fn:empty`).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Items as a slice.
    pub fn items(&self) -> &[Item] {
        &self.0
    }

    /// Consumes into the underlying vector.
    pub fn into_items(self) -> Vec<Item> {
        self.0
    }

    /// Appends another sequence (comma operator: sequences flatten).
    pub fn extend(&mut self, other: Sequence) {
        self.0.extend(other.0);
    }

    /// Appends one item.
    pub fn push(&mut self, item: impl Into<Item>) {
        self.0.push(item.into());
    }

    /// The single item of a singleton; `None` otherwise.
    pub fn as_singleton(&self) -> Option<&Item> {
        if self.0.len() == 1 {
            Some(&self.0[0])
        } else {
            None
        }
    }

    /// Atomizes every item (`fn:data` over a sequence).
    pub fn atomize(&self, hint: Option<XsType>) -> Vec<Atomic> {
        self.0.iter().filter_map(|i| i.atomize(hint)).collect()
    }

    /// The *effective boolean value* (XQuery 1.0 §2.4.3): empty → false;
    /// first item a node → true; singleton atomic → its EBV.
    pub fn effective_boolean(&self) -> bool {
        match self.0.first() {
            None => false,
            Some(Item::Node(_)) => true,
            Some(Item::Atomic(a)) => self.0.len() == 1 && a.effective_boolean(),
        }
    }

    /// Iterates over the items.
    pub fn iter(&self) -> impl Iterator<Item = &Item> {
        self.0.iter()
    }
}

impl fmt::Debug for Sequence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.0.iter()).finish()
    }
}

impl FromIterator<Item> for Sequence {
    fn from_iter<T: IntoIterator<Item = Item>>(iter: T) -> Sequence {
        Sequence(iter.into_iter().collect())
    }
}

impl IntoIterator for Sequence {
    type Item = Item;
    type IntoIter = std::vec::IntoIter<Item>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sequence_is_false() {
        assert!(!Sequence::empty().effective_boolean());
    }

    #[test]
    fn node_first_is_true() {
        let seq = Sequence::singleton(Item::element(Element::new("A")));
        assert!(seq.effective_boolean());
    }

    #[test]
    fn singleton_atomic_ebv() {
        assert!(Sequence::singleton(Atomic::Integer(1)).effective_boolean());
        assert!(!Sequence::singleton(Atomic::Integer(0)).effective_boolean());
    }

    #[test]
    fn extend_flattens() {
        let mut a = Sequence::singleton(Atomic::Integer(1));
        a.extend(Sequence::from_items(vec![
            Atomic::Integer(2).into(),
            Atomic::Integer(3).into(),
        ]));
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn atomize_skips_nothing_for_atomics() {
        let seq = Sequence::from_items(vec![
            Atomic::Integer(1).into(),
            Atomic::String("x".into()).into(),
        ]);
        assert_eq!(seq.atomize(None).len(), 2);
    }

    #[test]
    fn singleton_accessor() {
        let seq = Sequence::singleton(Atomic::Boolean(true));
        assert!(seq.as_singleton().is_some());
        let two = Sequence::from_items(vec![Atomic::Integer(1).into(), Atomic::Integer(2).into()]);
        assert!(two.as_singleton().is_none());
    }
}
