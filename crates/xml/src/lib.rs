//! # aldsp-xml — XQuery data model subset
//!
//! The AquaLogic DSP JDBC driver translates SQL into XQuery expressions that
//! consume and produce *sequences* of *items* (XML nodes and atomic values),
//! per the XQuery 1.0 data model. This crate implements the subset of that
//! data model needed by the translated query dialect:
//!
//! * [`QName`] — qualified names with optional namespace prefixes.
//! * [`Atomic`] — typed atomic values (`xs:string`, `xs:integer`,
//!   `xs:decimal`, `xs:double`, `xs:boolean`, `xs:date`) with the cast and
//!   comparison rules the generated queries rely on.
//! * [`Node`] / [`Element`] — ordered XML trees (elements, text), and
//!   [`ElementRef`], the one borrowed view every reader of an element uses.
//! * [`Item`] and [`Sequence`] — the universal value type of the evaluator.
//! * Serialization ([`serialize`]) and a small well-formed-XML pull
//!   reader ([`parse`]) with its two consumers: the tree builder here and
//!   the row decoder of the driver's "materialize XML then parse" result
//!   transport mode.
//! * Escaping utilities ([`escape`]) mirroring `fn-bea:xml-escape`.
//!
//! Data-service functions in the platform return "flat" XML: a sequence of
//! row elements whose simple-typed children are the columns (paper §2.3,
//! Example 1). They are held as [`FlatRow`]s — one shared [`RowSchema`]
//! per table, one optional text per cell — built in [`flat`].

pub mod atomic;
pub mod escape;
pub mod flat;
pub mod node;
pub mod parse;
pub mod qname;
pub mod sequence;
pub mod serialize;

pub use atomic::{Atomic, XsType};
pub use flat::{FlatRow, RowSchema};
pub use node::{Element, ElementRef, Node};
pub use parse::{parse_document, parse_fragment, XmlParseError};
pub use qname::QName;
pub use sequence::{Item, Sequence};
pub use serialize::{serialize_item, serialize_node, serialize_sequence};
