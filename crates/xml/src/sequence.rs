//! Items and sequences — the universal value of XQuery evaluation.
//!
//! Everything an XQuery expression produces is a flat, ordered sequence of
//! items; a single item and a singleton sequence are indistinguishable, and
//! nested sequences flatten (XQuery 1.0 §2.4.1). The empty sequence stands
//! in for SQL NULL throughout the translated dialect: a missing column value
//! simply produces no item, and `fn-bea:if-empty` substitutes defaults
//! during result serialization (paper §4).

use crate::atomic::{Atomic, XsType};
use crate::flat::FlatRow;
use crate::node::{Element, ElementRef, Node};
use std::fmt;

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
            Item::Node(n) => n.each_text(&mut |text| out.push_str(text)),
        }
    }

    /// The element behind this item, tree or flat, if it is an element.
    #[inline]
    pub fn as_element_ref(&self) -> Option<ElementRef<'_>> {
        match self {
            Item::Node(n) => n.as_element_ref(),
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

impl From<FlatRow> for Item {
    fn from(row: FlatRow) -> Item {
        Item::Node(row.into())
    }
}

impl From<Node> for Item {
    fn from(n: Node) -> Item {
        Item::Node(n)
    }
}

/// An ordered, flat sequence of items.
///
/// Sequences are the working currency of the evaluator; most are tiny —
/// a column value, a variable binding, a comparison's boolean — and some
/// are large (a whole view). The empty sequence and a singleton are held
/// inline, without a vector: every `for` binding, literal and comparison
/// result is one of them, and a vector each would be a heap allocation per
/// tuple. Only a sequence of two or more items owns a `Vec`. The vector
/// is not reference counted: large sequences get bound to variables
/// exactly once in the generated dialect, and items themselves are cheap
/// to clone (Arc-backed nodes).
#[derive(Clone, Default)]
pub struct Sequence(Repr);

/// A sequence's items: none and one inline, two or more in a vector —
/// never a `Many` of fewer than two, so each length has one form.
#[derive(Clone, Default)]
enum Repr {
    #[default]
    Empty,
    One(Item),
    Many(Vec<Item>),
}

impl Sequence {
    /// The empty sequence — XQuery's NULL analogue.
    pub fn empty() -> Sequence {
        Sequence(Repr::Empty)
    }

    /// A singleton sequence.
    pub fn singleton(item: impl Into<Item>) -> Sequence {
        Sequence(Repr::One(item.into()))
    }

    /// Builds from items, flattening nothing (items are already flat).
    pub fn from_items(mut items: Vec<Item>) -> Sequence {
        Sequence(match items.len() {
            0 => Repr::Empty,
            1 => Repr::One(items.pop().expect("one item")),
            _ => Repr::Many(items),
        })
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items().len()
    }

    /// True when empty (`fn:empty`).
    pub fn is_empty(&self) -> bool {
        matches!(self.0, Repr::Empty)
    }

    /// Items as a slice.
    pub fn items(&self) -> &[Item] {
        match &self.0 {
            Repr::Empty => &[],
            Repr::One(item) => std::slice::from_ref(item),
            Repr::Many(items) => items,
        }
    }

    /// Consumes into a vector of the items — for a caller that needs one;
    /// iterating the sequence itself allocates nothing for a singleton.
    pub fn into_items(self) -> Vec<Item> {
        match self.0 {
            Repr::Empty => Vec::new(),
            Repr::One(item) => vec![item],
            Repr::Many(items) => items,
        }
    }

    /// Appends another sequence (comma operator: sequences flatten).
    pub fn extend(&mut self, other: Sequence) {
        match (&mut self.0, other.0) {
            (_, Repr::Empty) => {}
            (Repr::Empty, other) => self.0 = other,
            (Repr::Many(items), Repr::One(item)) => items.push(item),
            (Repr::Many(items), Repr::Many(more)) => items.extend(more),
            (held @ Repr::One(_), other) => {
                let Repr::One(first) = std::mem::take(held) else {
                    unreachable!("matched a singleton")
                };
                let other = Sequence(other);
                let mut items = Vec::with_capacity(4.max(1 + other.len()));
                items.push(first);
                items.extend(other);
                *held = Repr::Many(items);
            }
        }
    }

    /// Appends one item.
    pub fn push(&mut self, item: impl Into<Item>) {
        self.extend(Sequence::singleton(item));
    }

    /// The single item of a singleton; `None` otherwise.
    pub fn as_singleton(&self) -> Option<&Item> {
        match &self.0 {
            Repr::One(item) => Some(item),
            _ => None,
        }
    }

    /// Atomizes every item (`fn:data` over a sequence).
    pub fn atomize(&self, hint: Option<XsType>) -> Vec<Atomic> {
        self.iter().filter_map(|i| i.atomize(hint)).collect()
    }

    /// The *effective boolean value* (XQuery 1.0 §2.4.3): empty → false;
    /// first item a node → true; singleton atomic → its EBV.
    pub fn effective_boolean(&self) -> bool {
        match self.items() {
            [] => false,
            [Item::Node(_), ..] => true,
            [Item::Atomic(a)] => a.effective_boolean(),
            [Item::Atomic(_), ..] => false,
        }
    }

    /// Iterates over the items.
    pub fn iter(&self) -> std::slice::Iter<'_, Item> {
        self.items().iter()
    }
}

impl PartialEq for Sequence {
    fn eq(&self, other: &Sequence) -> bool {
        self.items() == other.items()
    }
}

impl fmt::Debug for Sequence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl FromIterator<Item> for Sequence {
    fn from_iter<T: IntoIterator<Item = Item>>(iter: T) -> Sequence {
        let mut iter = iter.into_iter();
        let Some(first) = iter.next() else {
            return Sequence::empty();
        };
        let Some(second) = iter.next() else {
            return Sequence::singleton(first);
        };
        let mut items = Vec::with_capacity(2 + iter.size_hint().0);
        items.push(first);
        items.push(second);
        items.extend(iter);
        Sequence(Repr::Many(items))
    }
}

impl IntoIterator for Sequence {
    type Item = Item;
    /// A singleton's item is yielded from where it was held: the vector
    /// half is then empty, and an empty vector allocates nothing.
    type IntoIter = std::iter::Chain<std::option::IntoIter<Item>, std::vec::IntoIter<Item>>;

    fn into_iter(self) -> Self::IntoIter {
        let (one, many) = match self.0 {
            Repr::Empty => (None, Vec::new()),
            Repr::One(item) => (Some(item), Vec::new()),
            Repr::Many(items) => (None, items),
        };
        one.into_iter().chain(many)
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
    fn extend_joins_every_representation() {
        let int = |i: i64| Item::from(Atomic::Integer(i));
        let mut one = Sequence::singleton(int(1));
        one.extend(Sequence::singleton(int(2)));
        assert_eq!(one.items(), [int(1), int(2)]);

        let mut empty = Sequence::empty();
        empty.extend(Sequence::from_items(vec![int(1), int(2), int(3)]));
        assert_eq!(empty.items(), [int(1), int(2), int(3)]);

        let mut many = Sequence::from_items(vec![int(1), int(2)]);
        many.extend(Sequence::empty());
        assert_eq!(many.items(), [int(1), int(2)]);
        assert_eq!(many, Sequence::from_items(vec![int(1), int(2)]));
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
