//! Qualified names.
//!
//! The translated queries use namespace prefixes (`ns0:CUSTOMERS`) bound in
//! the query prolog via `import schema namespace` declarations, and
//! unprefixed names for constructed result elements (`RECORD`,
//! `CUSTOMERS.CUSTOMERID`). A [`QName`] carries the optional prefix plus the
//! local part; two names are equal when both parts are equal. (The generated
//! dialect never re-binds a prefix to two different URIs within one query, so
//! prefix-level equality is sufficient and keeps comparisons cheap.)

use std::fmt;
use std::sync::Arc;

/// A qualified XML name: optional namespace prefix plus local part.
///
/// `QName` is cheaply cloneable (the parts are reference counted) because
/// row elements in a result set repeat the same names many times.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QName {
    prefix: Option<Arc<str>>,
    local: Arc<str>,
}

impl QName {
    /// Creates a name with no prefix, e.g. `RECORD`.
    pub fn local(local: impl Into<Arc<str>>) -> Self {
        QName {
            prefix: None,
            local: local.into(),
        }
    }

    /// Creates a prefixed name, e.g. `ns0:CUSTOMERS`.
    pub fn prefixed(prefix: impl Into<Arc<str>>, local: impl Into<Arc<str>>) -> Self {
        QName {
            prefix: Some(prefix.into()),
            local: local.into(),
        }
    }

    /// Parses `prefix:local` or `local` lexical form.
    ///
    /// The local part of generated result elements may itself contain dots
    /// (`CUSTOMERS.CUSTOMERID`), so only the *first* colon separates the
    /// prefix.
    pub fn parse(lexical: &str) -> Self {
        match QName::split_lexical(lexical) {
            (Some(p), l) => QName::prefixed(p, l),
            (None, l) => QName::local(l),
        }
    }

    /// The prefix and the local part of a lexical name, as [`QName::parse`]
    /// splits it — for a reader that compares names without building one.
    pub fn split_lexical(lexical: &str) -> (Option<&str>, &str) {
        match lexical.split_once(':') {
            Some((prefix, local)) => (Some(prefix), local),
            None => (None, lexical),
        }
    }

    /// The namespace prefix, if any.
    pub fn prefix(&self) -> Option<&str> {
        self.prefix.as_deref()
    }

    /// The local part.
    pub fn local_part(&self) -> &str {
        &self.local
    }

    /// True when this name matches `other` ignoring the prefix. Used by
    /// path steps like `$c/CUSTOMERID`, which in the generated dialect match
    /// child elements by local name (row elements are in the imported
    /// schema's namespace but column references are written unprefixed).
    pub fn matches_local(&self, local: &str) -> bool {
        &*self.local == local
    }

    /// Appends the lexical form (`prefix:local` or `local`) to `out` —
    /// [`fmt::Display`] without a formatter, for the serializer.
    pub fn write_into(&self, out: &mut String) {
        if let Some(prefix) = &self.prefix {
            out.push_str(prefix);
            out.push(':');
        }
        out.push_str(&self.local);
    }
}

impl fmt::Display for QName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.prefix {
            Some(p) => write!(f, "{}:{}", p, self.local),
            None => f.write_str(&self.local),
        }
    }
}

impl fmt::Debug for QName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl From<&str> for QName {
    fn from(s: &str) -> Self {
        QName::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_prefixed() {
        let q = QName::parse("ns0:CUSTOMERS");
        assert_eq!(q.prefix(), Some("ns0"));
        assert_eq!(q.local_part(), "CUSTOMERS");
        assert_eq!(q.to_string(), "ns0:CUSTOMERS");
    }

    #[test]
    fn parse_unprefixed() {
        let q = QName::parse("RECORD");
        assert_eq!(q.prefix(), None);
        assert_eq!(q.local_part(), "RECORD");
    }

    #[test]
    fn dotted_local_names_keep_dots() {
        // Result columns are qualified with table names via dots
        // (paper Example 8: <INFO.ID>).
        let q = QName::local("CUSTOMERS.CUSTOMERID");
        assert_eq!(q.local_part(), "CUSTOMERS.CUSTOMERID");
        assert!(q.matches_local("CUSTOMERS.CUSTOMERID"));
    }

    #[test]
    fn first_colon_splits() {
        let q = QName::parse("ns0:A.B");
        assert_eq!(q.prefix(), Some("ns0"));
        assert_eq!(q.local_part(), "A.B");
    }

    #[test]
    fn equality_includes_prefix() {
        assert_ne!(QName::parse("ns0:X"), QName::parse("ns1:X"));
        assert_eq!(QName::parse("ns0:X"), QName::parse("ns0:X"));
    }

    #[test]
    fn matches_local_ignores_prefix() {
        assert!(QName::parse("ns0:CUSTOMERS").matches_local("CUSTOMERS"));
        assert!(!QName::parse("ns0:CUSTOMERS").matches_local("ORDERS"));
    }
}
