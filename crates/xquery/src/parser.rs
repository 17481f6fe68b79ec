//! Parser for the XQuery dialect.
//!
//! A hand-written character-level recursive-descent parser. XQuery cannot
//! be tokenized independently of grammar context (element constructors
//! embed literal XML text; `<` is both an operator and markup), so the
//! parser drives the scanner directly and switches modes when it enters
//! constructor content — the same approach production XQuery lexers use
//! with lexical states.

use crate::ast::*;
use aldsp_xml::escape::unescape;
use aldsp_xml::Atomic;
use std::fmt;

/// Maximum expression/constructor nesting depth. The parser is
/// recursive-descent, so without a ceiling an adversarial input like
/// `((((...1...))))` converts its own length into native stack frames
/// and overflows; 128 levels is far beyond anything the translator
/// emits while staying well inside the default stack.
pub const MAX_PARSE_DEPTH: usize = 128;

/// Classifies a parse failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum XqParseErrorKind {
    /// Malformed input.
    #[default]
    Syntax,
    /// Nesting exceeded [`MAX_PARSE_DEPTH`] — an input guard, not a
    /// grammar violation.
    DepthExceeded,
}

/// Parse error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XqParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the query text.
    pub offset: usize,
    /// Classification of the failure.
    pub kind: XqParseErrorKind,
}

impl fmt::Display for XqParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "XQuery parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for XqParseError {}

/// Parses a complete program: prolog imports then one body expression.
pub fn parse_program(input: &str) -> Result<Program, XqParseError> {
    let mut p = Parser {
        input,
        pos: 0,
        depth: 0,
    };
    let mut imports = Vec::new();
    loop {
        p.skip_ws();
        if p.peek_word("import") {
            imports.push(p.parse_import()?);
        } else {
            break;
        }
    }
    let body = p.parse_expr_single()?;
    p.skip_ws();
    if p.pos < p.input.len() {
        return Err(p.err("trailing content after query body"));
    }
    Ok(Program { imports, body })
}

struct Parser<'a> {
    input: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    // ---- scanner plumbing ----------------------------------------------

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn err(&self, message: impl Into<String>) -> XqParseError {
        XqParseError {
            message: message.into(),
            offset: self.pos,
            kind: XqParseErrorKind::Syntax,
        }
    }

    /// Enters one recursion level, rejecting inputs nested past
    /// [`MAX_PARSE_DEPTH`]. Every recursion cycle in the grammar passes
    /// through a guarded function, so the native stack stays bounded.
    fn enter(&mut self) -> Result<(), XqParseError> {
        self.depth += 1;
        if self.depth > MAX_PARSE_DEPTH {
            return Err(XqParseError {
                message: format!("expression nesting exceeds {MAX_PARSE_DEPTH} levels"),
                offset: self.pos,
                kind: XqParseErrorKind::DepthExceeded,
            });
        }
        Ok(())
    }

    /// Skips whitespace and (possibly nested) `(: ... :)` comments.
    fn skip_ws(&mut self) {
        loop {
            let trimmed = self.rest().trim_start();
            self.pos = self.input.len() - trimmed.len();
            if trimmed.starts_with("(:") {
                let mut depth = 0usize;
                let bytes = self.input.as_bytes();
                let mut i = self.pos;
                while i + 1 < bytes.len() {
                    if bytes[i] == b'(' && bytes[i + 1] == b':' {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b':' && bytes[i + 1] == b')' {
                        depth -= 1;
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        i += 1;
                    }
                }
                self.pos = i.min(self.input.len());
            } else {
                return;
            }
        }
    }

    fn peek_char(&self) -> Option<char> {
        self.rest().chars().next()
    }

    fn eat_char(&mut self, c: char) -> bool {
        if self.peek_char() == Some(c) {
            self.pos += c.len_utf8();
            true
        } else {
            false
        }
    }

    fn expect_char(&mut self, c: char) -> Result<(), XqParseError> {
        if self.eat_char(c) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{c}`")))
        }
    }

    fn eat_str(&mut self, s: &str) -> bool {
        if self.rest().starts_with(s) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    fn expect_str(&mut self, s: &str) -> Result<(), XqParseError> {
        if self.eat_str(s) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{s}`")))
        }
    }

    /// True when the next token is exactly the keyword `word` (not a
    /// longer name).
    fn peek_word(&self, word: &str) -> bool {
        let rest = self.rest();
        rest.starts_with(word) && !rest[word.len()..].chars().next().is_some_and(is_name_char)
    }

    fn eat_word(&mut self, word: &str) -> bool {
        self.skip_ws();
        if self.peek_word(word) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn expect_word(&mut self, word: &str) -> Result<(), XqParseError> {
        if self.eat_word(word) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    /// Reads a QName-ish name: NCName with optional `prefix:` part. Name
    /// characters include `.` and `-` (the generated dialect writes dotted
    /// result-element names like `CUSTOMERS.CUSTOMERID`).
    fn parse_name(&mut self) -> Result<String, XqParseError> {
        let rest = self.rest();
        let mut end = 0;
        let mut saw_colon = false;
        for (i, c) in rest.char_indices() {
            let ok = if i == 0 {
                c.is_alphabetic() || c == '_'
            } else if c == ':' && !saw_colon {
                saw_colon = true;
                true
            } else {
                is_name_char(c)
            };
            if ok {
                end = i + c.len_utf8();
            } else {
                break;
            }
        }
        if end == 0 {
            return Err(self.err("expected a name"));
        }
        // A trailing colon is not part of the name (e.g. `$x:=` never
        // happens, but be safe).
        let mut name = &rest[..end];
        if name.ends_with(':') {
            name = &name[..name.len() - 1];
        }
        self.pos += name.len();
        Ok(name.to_string())
    }

    fn parse_var_name(&mut self) -> Result<String, XqParseError> {
        self.skip_ws();
        self.expect_char('$')?;
        self.parse_name()
    }

    fn parse_string_literal(&mut self) -> Result<String, XqParseError> {
        self.skip_ws();
        let quote = match self.peek_char() {
            Some(q @ ('"' | '\'')) => q,
            _ => return Err(self.err("expected a string literal")),
        };
        self.pos += 1;
        let mut value = String::new();
        loop {
            let rest = self.rest();
            match rest.find(quote) {
                None => return Err(self.err("unterminated string literal")),
                Some(q) => {
                    value.push_str(&rest[..q]);
                    self.pos += q + 1;
                    // Doubled quote escapes.
                    if self.peek_char() == Some(quote) {
                        value.push(quote);
                        self.pos += 1;
                    } else {
                        return Ok(unescape(&value).into_owned());
                    }
                }
            }
        }
    }

    // ---- prolog ---------------------------------------------------------

    fn parse_import(&mut self) -> Result<SchemaImport, XqParseError> {
        self.expect_word("import")?;
        self.expect_word("schema")?;
        self.expect_word("namespace")?;
        self.skip_ws();
        let prefix = self.parse_name()?;
        self.skip_ws();
        self.expect_char('=')?;
        let namespace = self.parse_string_literal()?;
        self.expect_word("at")?;
        let location = self.parse_string_literal()?;
        self.skip_ws();
        self.expect_char(';')?;
        Ok(SchemaImport {
            prefix,
            namespace,
            location,
        })
    }

    // ---- expressions ------------------------------------------------------

    /// `expr := exprSingle (',' exprSingle)*` — used inside parentheses,
    /// enclosed `{}` blocks, and nowhere else.
    fn parse_expr(&mut self) -> Result<Expr, XqParseError> {
        let first = self.parse_expr_single()?;
        self.skip_ws();
        if !self.rest().starts_with(',') {
            return Ok(first);
        }
        let mut items = vec![first];
        while {
            self.skip_ws();
            self.eat_char(',')
        } {
            items.push(self.parse_expr_single()?);
        }
        Ok(Expr::Sequence(items))
    }

    fn parse_expr_single(&mut self) -> Result<Expr, XqParseError> {
        self.enter()?;
        let result = self.parse_expr_single_inner();
        self.depth -= 1;
        result
    }

    fn parse_expr_single_inner(&mut self) -> Result<Expr, XqParseError> {
        self.skip_ws();
        if self.peek_word("for") || self.peek_word("let") {
            return self.parse_flwor();
        }
        if self.peek_word("if") {
            return self.parse_if();
        }
        if self.peek_word("some") || self.peek_word("every") {
            return self.parse_quantified();
        }
        self.parse_or()
    }

    /// FLWOR clauses parse in any order and multiplicity before `return`
    /// — the generated dialect interleaves `where` after the BEA `group`
    /// clause (HAVING), and XQuery 1.1+ liberalized clause order anyway.
    fn parse_flwor(&mut self) -> Result<Expr, XqParseError> {
        let mut clauses = Vec::new();
        loop {
            self.skip_ws();
            if self.eat_word("for") {
                loop {
                    let var = self.parse_var_name()?;
                    self.expect_word("in")?;
                    let source = self.parse_expr_single()?;
                    clauses.push(Clause::For { var, source });
                    self.skip_ws();
                    if !self.eat_char(',') {
                        break;
                    }
                }
            } else if self.eat_word("let") {
                loop {
                    let var = self.parse_var_name()?;
                    self.skip_ws();
                    self.expect_str(":=")?;
                    let value = self.parse_expr_single()?;
                    clauses.push(Clause::Let { var, value });
                    self.skip_ws();
                    if !self.eat_char(',') {
                        break;
                    }
                }
            } else if self.eat_word("where") {
                clauses.push(Clause::Where(self.parse_expr_single()?));
            } else if self.eat_word("group") {
                let source_var = self.parse_var_name()?;
                self.expect_word("as")?;
                let partition_var = self.parse_var_name()?;
                self.expect_word("by")?;
                let mut keys = Vec::new();
                loop {
                    let key = self.parse_expr_single()?;
                    self.expect_word("as")?;
                    let var = self.parse_var_name()?;
                    keys.push((key, var));
                    self.skip_ws();
                    if !self.eat_char(',') {
                        break;
                    }
                }
                clauses.push(Clause::GroupBy(GroupClause {
                    source_var,
                    partition_var,
                    keys,
                }));
            } else if self.eat_word("order") {
                self.expect_word("by")?;
                let mut specs = Vec::new();
                loop {
                    let key = self.parse_expr_single()?;
                    let descending = if self.eat_word("descending") {
                        true
                    } else {
                        self.eat_word("ascending");
                        false
                    };
                    let empty_greatest = if self.eat_word("empty") {
                        if self.eat_word("greatest") {
                            true
                        } else {
                            self.expect_word("least")?;
                            false
                        }
                    } else {
                        false
                    };
                    specs.push(OrderSpec {
                        key,
                        descending,
                        empty_greatest,
                    });
                    self.skip_ws();
                    if !self.eat_char(',') {
                        break;
                    }
                }
                clauses.push(Clause::OrderBy(specs));
            } else {
                break;
            }
        }
        self.expect_word("return")?;
        let ret = self.parse_expr_single()?;
        if !clauses
            .iter()
            .any(|c| matches!(c, Clause::For { .. } | Clause::Let { .. }))
        {
            return Err(self.err("FLWOR requires at least one for/let clause"));
        }
        Ok(Expr::Flwor(Flwor {
            clauses,
            ret: Box::new(ret),
        }))
    }

    fn parse_if(&mut self) -> Result<Expr, XqParseError> {
        self.expect_word("if")?;
        self.skip_ws();
        self.expect_char('(')?;
        let cond = self.parse_expr()?;
        self.skip_ws();
        self.expect_char(')')?;
        self.expect_word("then")?;
        let then = self.parse_expr_single()?;
        self.expect_word("else")?;
        let els = self.parse_expr_single()?;
        Ok(Expr::If {
            cond: Box::new(cond),
            then: Box::new(then),
            els: Box::new(els),
        })
    }

    fn parse_quantified(&mut self) -> Result<Expr, XqParseError> {
        let every = if self.eat_word("every") {
            true
        } else {
            self.expect_word("some")?;
            false
        };
        let var = self.parse_var_name()?;
        self.expect_word("in")?;
        let source = self.parse_expr_single()?;
        self.expect_word("satisfies")?;
        let satisfies = self.parse_expr_single()?;
        Ok(Expr::Quantified {
            every,
            var,
            source: Box::new(source),
            satisfies: Box::new(satisfies),
        })
    }

    fn parse_or(&mut self) -> Result<Expr, XqParseError> {
        let mut left = self.parse_and()?;
        while self.eat_word("or") {
            let right = self.parse_and()?;
            left = Expr::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr, XqParseError> {
        let mut left = self.parse_comparison()?;
        while self.eat_word("and") {
            let right = self.parse_comparison()?;
            left = Expr::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_comparison(&mut self) -> Result<Expr, XqParseError> {
        let left = self.parse_additive()?;
        self.skip_ws();

        // General comparison symbols. Note: `<` here is unambiguous —
        // element constructors only appear in primary position.
        let general = if self.eat_str("!=") {
            Some(CompOp::Ne)
        } else if self.eat_str("<=") {
            Some(CompOp::Le)
        } else if self.eat_str(">=") {
            Some(CompOp::Ge)
        } else if self.eat_str("=") {
            Some(CompOp::Eq)
        } else if self.eat_str("<") {
            Some(CompOp::Lt)
        } else if self.eat_str(">") {
            Some(CompOp::Gt)
        } else {
            None
        };
        if let Some(op) = general {
            let right = self.parse_additive()?;
            return Ok(Expr::GeneralComp {
                op,
                left: Box::new(left),
                right: Box::new(right),
            });
        }

        let value = if self.eat_word("eq") {
            Some(CompOp::Eq)
        } else if self.eat_word("ne") {
            Some(CompOp::Ne)
        } else if self.eat_word("lt") {
            Some(CompOp::Lt)
        } else if self.eat_word("le") {
            Some(CompOp::Le)
        } else if self.eat_word("gt") {
            Some(CompOp::Gt)
        } else if self.eat_word("ge") {
            Some(CompOp::Ge)
        } else {
            None
        };
        if let Some(op) = value {
            let right = self.parse_additive()?;
            return Ok(Expr::ValueComp {
                op,
                left: Box::new(left),
                right: Box::new(right),
            });
        }
        Ok(left)
    }

    fn parse_additive(&mut self) -> Result<Expr, XqParseError> {
        let mut left = self.parse_multiplicative()?;
        loop {
            self.skip_ws();
            let op = if self.eat_char('+') {
                ArithOp::Add
            } else if self.rest().starts_with('-') && !self.rest().starts_with("->") {
                self.pos += 1;
                ArithOp::Sub
            } else {
                return Ok(left);
            };
            let right = self.parse_multiplicative()?;
            left = Expr::Arith {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
    }

    fn parse_multiplicative(&mut self) -> Result<Expr, XqParseError> {
        let mut left = self.parse_unary()?;
        loop {
            self.skip_ws();
            let op = if self.eat_char('*') {
                ArithOp::Mul
            } else if self.eat_word("idiv") {
                ArithOp::IDiv
            } else if self.eat_word("div") {
                ArithOp::Div
            } else if self.eat_word("mod") {
                ArithOp::Mod
            } else {
                return Ok(left);
            };
            let right = self.parse_unary()?;
            left = Expr::Arith {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
    }

    fn parse_unary(&mut self) -> Result<Expr, XqParseError> {
        self.skip_ws();
        if self.eat_char('-') {
            // Self-recursive (`--x`), so it needs its own depth guard.
            self.enter()?;
            let inner = self.parse_unary();
            self.depth -= 1;
            return Ok(Expr::UnaryMinus(Box::new(inner?)));
        }
        self.eat_char('+'); // unary plus is a no-op
        self.parse_path()
    }

    /// Postfix chain: primary, then any mix of `[pred]` and `/step`.
    fn parse_path(&mut self) -> Result<Expr, XqParseError> {
        let mut base = self.parse_primary()?;
        let mut steps: Vec<Step> = Vec::new();
        loop {
            // No skip_ws before `/` or `[`: the dialect writes paths
            // without embedded whitespace, and being strict here keeps
            // `a - b` unambiguous. But allow whitespace before `[` since
            // generated filters span lines.
            if self.rest().starts_with('/') {
                self.pos += 1;
                let test = if self.eat_char('*') {
                    NodeTest::Wildcard
                } else {
                    NodeTest::Name(self.parse_name()?)
                };
                steps.push(Step {
                    test,
                    predicates: Vec::new(),
                });
            } else {
                let save = self.pos;
                self.skip_ws();
                if self.rest().starts_with('[') {
                    self.pos += 1;
                    let predicate = self.parse_expr()?;
                    self.skip_ws();
                    self.expect_char(']')?;
                    match steps.last_mut() {
                        Some(step) => step.predicates.push(predicate),
                        None => {
                            base = Expr::Filter {
                                base: Box::new(base),
                                predicates: vec![predicate],
                            };
                        }
                    }
                } else {
                    self.pos = save;
                    break;
                }
            }
        }
        if steps.is_empty() {
            return Ok(base);
        }
        let start = match base {
            Expr::VarRef(v) => PathStart::Var(v),
            other => PathStart::Expr(other),
        };
        Ok(Expr::Path {
            start: Box::new(start),
            steps,
        })
    }

    fn parse_primary(&mut self) -> Result<Expr, XqParseError> {
        self.skip_ws();
        match self.peek_char() {
            None => Err(self.err("unexpected end of input")),
            Some('$') => {
                self.pos += 1;
                Ok(Expr::VarRef(self.parse_name()?))
            }
            Some('"') | Some('\'') => {
                let s = self.parse_string_literal()?;
                Ok(Expr::Literal(Atomic::String(s)))
            }
            Some('(') => {
                self.pos += 1;
                self.skip_ws();
                if self.eat_char(')') {
                    return Ok(Expr::EmptySequence);
                }
                let inner = self.parse_expr()?;
                self.skip_ws();
                self.expect_char(')')?;
                Ok(inner)
            }
            Some('<') => self.parse_element_ctor().map(Expr::Element),
            Some('.')
                if !self
                    .rest()
                    .chars()
                    .nth(1)
                    .is_some_and(|c| c.is_ascii_digit()) =>
            {
                self.pos += 1;
                Ok(Expr::ContextItem)
            }
            Some(c) if c.is_ascii_digit() || c == '.' => self.parse_number(),
            Some(c) if c.is_alphabetic() || c == '_' => {
                let name = self.parse_name()?;
                // Function call?
                if self.rest().starts_with('(') {
                    self.pos += 1;
                    let mut args = Vec::new();
                    self.skip_ws();
                    if !self.eat_char(')') {
                        loop {
                            args.push(self.parse_expr_single()?);
                            self.skip_ws();
                            if self.eat_char(',') {
                                continue;
                            }
                            self.expect_char(')')?;
                            break;
                        }
                    }
                    return Ok(Expr::FunctionCall { name, args });
                }
                // Otherwise a relative path step from the context item
                // (paper Example 10: bare `CUSTID` inside a filter).
                Ok(Expr::Path {
                    start: Box::new(PathStart::Context),
                    steps: vec![Step {
                        test: NodeTest::Name(name),
                        predicates: Vec::new(),
                    }],
                })
            }
            Some(other) => Err(self.err(format!("unexpected character `{other}`"))),
        }
    }

    fn parse_number(&mut self) -> Result<Expr, XqParseError> {
        let rest = self.rest();
        let bytes = rest.as_bytes();
        let mut end = 0;
        let mut saw_dot = false;
        let mut saw_exp = false;
        while end < bytes.len() {
            let b = bytes[end];
            if b.is_ascii_digit() {
                end += 1;
            } else if b == b'.' && !saw_dot && !saw_exp {
                saw_dot = true;
                end += 1;
            } else if (b == b'e' || b == b'E') && !saw_exp && end > 0 {
                let mut probe = end + 1;
                if probe < bytes.len() && (bytes[probe] == b'+' || bytes[probe] == b'-') {
                    probe += 1;
                }
                if probe < bytes.len() && bytes[probe].is_ascii_digit() {
                    saw_exp = true;
                    end = probe + 1;
                } else {
                    break;
                }
            } else {
                break;
            }
        }
        let text = &rest[..end];
        if text.is_empty() || text == "." {
            return Err(self.err("expected a number"));
        }
        self.pos += end;
        let atomic = if saw_exp {
            Atomic::Double(
                text.parse()
                    .map_err(|_| self.err(format!("bad double literal {text}")))?,
            )
        } else if saw_dot {
            Atomic::Decimal(
                text.parse()
                    .map_err(|_| self.err(format!("bad decimal literal {text}")))?,
            )
        } else {
            Atomic::Integer(
                text.parse()
                    .map_err(|_| self.err(format!("integer literal out of range {text}")))?,
            )
        };
        Ok(Expr::Literal(atomic))
    }

    // ---- element constructors ------------------------------------------

    fn parse_element_ctor(&mut self) -> Result<ElementCtor, XqParseError> {
        // Nested constructors recurse without passing through
        // `parse_expr_single`, so guard here too.
        self.enter()?;
        let result = self.parse_element_ctor_inner();
        self.depth -= 1;
        result
    }

    fn parse_element_ctor_inner(&mut self) -> Result<ElementCtor, XqParseError> {
        self.expect_char('<')?;
        let name = self.parse_name()?;
        let mut attributes = Vec::new();

        // Attributes.
        loop {
            self.skip_ws_no_comment();
            if self.eat_str("/>") {
                return Ok(ElementCtor {
                    name,
                    attributes,
                    content: Vec::new(),
                });
            }
            if self.eat_char('>') {
                break;
            }
            let attr_name = self.parse_name()?;
            self.skip_ws_no_comment();
            self.expect_char('=')?;
            self.skip_ws_no_comment();
            let parts = self.parse_attr_value_template()?;
            attributes.push((attr_name, parts));
        }

        // Content.
        let mut content = Vec::new();
        loop {
            if self.eat_str("</") {
                let close = self.parse_name()?;
                if close != name {
                    return Err(self.err(format!(
                        "mismatched constructor close tag: <{name}> vs </{close}>"
                    )));
                }
                self.skip_ws_no_comment();
                self.expect_char('>')?;
                return Ok(ElementCtor {
                    name,
                    attributes,
                    content,
                });
            }
            match self.peek_char() {
                None => return Err(self.err(format!("unterminated constructor <{name}>"))),
                Some('<') => {
                    let nested = self.parse_element_ctor()?;
                    content.push(Content::Element(nested));
                }
                Some('{') => {
                    self.pos += 1;
                    let inner = self.parse_expr()?;
                    self.skip_ws();
                    self.expect_char('}')?;
                    content.push(Content::Enclosed(inner));
                }
                Some(_) => {
                    // Literal text run, up to the next markup.
                    let rest = self.rest();
                    let end = rest
                        .find(['<', '{'])
                        .ok_or_else(|| self.err("unterminated constructor content"))?;
                    let text = unescape(&rest[..end]);
                    self.pos += end;
                    // Boundary whitespace in the generated dialect is
                    // formatting, not data: drop whitespace-only runs.
                    if !text.trim().is_empty() {
                        content.push(Content::Text(text.into_owned()));
                    }
                }
            }
        }
    }

    fn parse_attr_value_template(&mut self) -> Result<Vec<AttrPart>, XqParseError> {
        let quote = match self.peek_char() {
            Some(q @ ('"' | '\'')) => q,
            _ => return Err(self.err("expected quoted attribute value")),
        };
        self.pos += 1;
        let mut parts = Vec::new();
        let mut text = String::new();
        loop {
            match self.peek_char() {
                None => return Err(self.err("unterminated attribute value")),
                Some(c) if c == quote => {
                    self.pos += 1;
                    if !text.is_empty() {
                        parts.push(AttrPart::Text(unescape(&text).into_owned()));
                    }
                    return Ok(parts);
                }
                Some('{') => {
                    self.pos += 1;
                    if !text.is_empty() {
                        parts.push(AttrPart::Text(unescape(&text).into_owned()));
                        text = String::new();
                    }
                    let inner = self.parse_expr()?;
                    self.skip_ws();
                    self.expect_char('}')?;
                    parts.push(AttrPart::Enclosed(inner));
                }
                Some(c) => {
                    text.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Whitespace skipping inside markup, where `(:` is literal text.
    fn skip_ws_no_comment(&mut self) {
        let trimmed = self.rest().trim_start();
        self.pos = self.input.len() - trimmed.len();
    }
}

fn is_name_char(c: char) -> bool {
    c.is_alphanumeric() || matches!(c, '_' | '.' | '-')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> Program {
        parse_program(src).unwrap_or_else(|e| panic!("parse failed: {e}\nquery: {src}"))
    }

    #[test]
    fn example3_style_query() {
        // Paper Example 3 shape.
        let p = parse(
            r#"import schema namespace ns0 = "ld:TestDataServices/CUSTOMERS" at
               "ld:TestDataServices/schemas/CUSTOMERS.xsd";
               for $c in ns0:CUSTOMERS()
               where $c/CUSTOMERNAME eq "Sue"
               return
               <RECORD>
                 <CUSTOMERS.CUSTOMERID>{fn:data($c/CUSTOMERID)}</CUSTOMERS.CUSTOMERID>
                 <CUSTOMERS.CUSTOMERNAME>{fn:data($c/CUSTOMERNAME)}</CUSTOMERS.CUSTOMERNAME>
               </RECORD>"#,
        );
        assert_eq!(p.imports.len(), 1);
        assert_eq!(p.imports[0].prefix, "ns0");
        assert_eq!(p.imports[0].namespace, "ld:TestDataServices/CUSTOMERS");
        let Expr::Flwor(f) = p.body else { panic!() };
        assert!(matches!(&f.clauses[0], Clause::For { var, .. } if var == "c"));
        assert!(matches!(
            &f.clauses[1],
            Clause::Where(Expr::ValueComp { .. })
        ));
        let Expr::Element(e) = &*f.ret else { panic!() };
        assert_eq!(e.name, "RECORD");
        assert_eq!(e.content.len(), 2);
    }

    #[test]
    fn filter_with_relative_path_predicate() {
        // Paper Example 10: ns1:PAYMENTS()[($var1FR2/CUSTOMERID=CUSTID)]
        let p = parse("ns1:PAYMENTS()[($var1FR2/CUSTOMERID=CUSTID)]");
        let Expr::Filter { base, predicates } = p.body else {
            panic!()
        };
        assert!(matches!(*base, Expr::FunctionCall { .. }));
        let Expr::GeneralComp { right, .. } = &predicates[0] else {
            panic!()
        };
        assert!(matches!(
            &**right,
            Expr::Path { start, .. } if matches!(&**start, PathStart::Context)
        ));
    }

    #[test]
    fn if_then_else_with_empty_check() {
        let p = parse(
            "if (fn:empty($t)) then <RECORD/> else (for $v in $t return <RECORD><A>{fn:data($v/A)}</A></RECORD>)",
        );
        assert!(matches!(p.body, Expr::If { .. }));
    }

    #[test]
    fn nested_flwor_with_let() {
        let p = parse(
            "<RECORDSET>{ let $tempvar1FR2 := <RECORDSET>{ for $var2FR2 in ns0:CUSTOMERS() \
             return <RECORD><ID>{fn:data($var2FR2/CUSTOMERID)}</ID></RECORD> }</RECORDSET> \
             for $var1FR2 in $tempvar1FR2/RECORD \
             where ($var1FR2/ID > xs:integer(10)) \
             return <RECORD><INFO.ID>{fn:data($var1FR2/ID)}</INFO.ID></RECORD> }</RECORDSET>",
        );
        let Expr::Element(e) = p.body else { panic!() };
        assert_eq!(e.name, "RECORDSET");
        let Content::Enclosed(Expr::Flwor(f)) = &e.content[0] else {
            panic!()
        };
        assert!(matches!(&f.clauses[0], Clause::Let { var, .. } if var == "tempvar1FR2"));
    }

    #[test]
    fn group_by_extension() {
        // The BEA extension as the translator emits it (paper Example 12).
        let p = parse(
            "for $varNewlet1 in $inter/RECORD \
             group $varNewlet1 as $var1Partition1 by \
               $varNewlet1/CUSTOMERID as $var1GB4, $varNewlet1/CUSTOMERNAME as $var1GB5 \
             order by $var1GB4 ascending \
             return <RECORD><N>{fn:count($var1Partition1)}</N></RECORD>",
        );
        let Expr::Flwor(f) = p.body else { panic!() };
        let Clause::GroupBy(g) = &f.clauses[1] else {
            panic!()
        };
        assert_eq!(g.source_var, "varNewlet1");
        assert_eq!(g.partition_var, "var1Partition1");
        assert_eq!(g.keys.len(), 2);
        assert_eq!(g.keys[0].1, "var1GB4");
        assert!(matches!(&f.clauses[2], Clause::OrderBy(specs) if specs.len() == 1));
    }

    #[test]
    fn order_by_modifiers() {
        let p = parse("for $x in $t/R order by $x/A descending empty greatest, $x/B return $x");
        let Expr::Flwor(f) = p.body else { panic!() };
        let Clause::OrderBy(specs) = &f.clauses[1] else {
            panic!()
        };
        assert!(specs[0].descending);
        assert!(specs[0].empty_greatest);
        assert!(!specs[1].descending);
    }

    #[test]
    fn string_join_wrapper_shape() {
        // §4 transport wrapper skeleton.
        let p = parse(
            r#"fn:string-join((let $actualQuery := <RECORDSET>{ for $v in ns0:T() return
               <RECORD><C>{fn:data($v/C)}</C></RECORD> }</RECORDSET>
               for $tokenQuery in $actualQuery/RECORD
               return (">", fn-bea:if-empty(fn-bea:xml-escape(
                 fn-bea:serialize-atomic(fn:data($tokenQuery/C))), ""), "<")), "")"#,
        );
        let Expr::FunctionCall { name, args } = p.body else {
            panic!()
        };
        assert_eq!(name, "fn:string-join");
        assert_eq!(args.len(), 2);
    }

    #[test]
    fn arithmetic_and_precedence() {
        let p = parse("1 + 2 * 3 - 4 div 2");
        // ((1 + (2*3)) - (4 div 2))
        let Expr::Arith {
            op: ArithOp::Sub, ..
        } = p.body
        else {
            panic!("{:?}", p.body)
        };
    }

    #[test]
    fn comparisons_value_and_general() {
        let p = parse("$a/X = 5");
        assert!(matches!(p.body, Expr::GeneralComp { op: CompOp::Eq, .. }));
        let p = parse("$a/X le \"m\"");
        assert!(matches!(p.body, Expr::ValueComp { op: CompOp::Le, .. }));
    }

    #[test]
    fn quantified_expressions() {
        let p = parse("some $x in $t/R satisfies $x/A > 1");
        assert!(matches!(p.body, Expr::Quantified { every: false, .. }));
        let p = parse("every $x in $t/R satisfies $x/A > 1");
        assert!(matches!(p.body, Expr::Quantified { every: true, .. }));
    }

    #[test]
    fn constructor_cast_is_function_call() {
        let p = parse("xs:integer(\"42\")");
        assert!(matches!(
            p.body,
            Expr::FunctionCall { ref name, .. } if name == "xs:integer"
        ));
    }

    #[test]
    fn empty_sequence_and_sequences() {
        assert_eq!(parse("()").body, Expr::EmptySequence);
        let p = parse("(1, 2, 3)");
        assert!(matches!(p.body, Expr::Sequence(items) if items.len() == 3));
    }

    #[test]
    fn comments_are_skipped() {
        let p = parse("(: header :) 1 + (: inner (: nested :) :) 2");
        assert!(matches!(p.body, Expr::Arith { .. }));
    }

    #[test]
    fn dotted_element_names_in_paths_and_ctors() {
        let p = parse("<INFO.ID>{fn:data($v/CUSTOMERS.CUSTOMERID)}</INFO.ID>");
        let Expr::Element(e) = p.body else { panic!() };
        assert_eq!(e.name, "INFO.ID");
        let Content::Enclosed(Expr::FunctionCall { args, .. }) = &e.content[0] else {
            panic!()
        };
        let Expr::Path { steps, .. } = &args[0] else {
            panic!()
        };
        assert_eq!(steps[0].test, NodeTest::Name("CUSTOMERS.CUSTOMERID".into()));
    }

    #[test]
    fn mismatched_ctor_tags_rejected() {
        assert!(parse_program("<A><B>x</C></A>").is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse_program("1 + 2 garbage").is_err());
    }

    #[test]
    fn attribute_value_templates() {
        let p = parse(r#"<A note="v={$x}!">{1}</A>"#);
        let Expr::Element(e) = p.body else { panic!() };
        assert_eq!(e.attributes.len(), 1);
        let parts = &e.attributes[0].1;
        assert_eq!(parts.len(), 3);
        assert!(matches!(&parts[1], AttrPart::Enclosed(_)));
    }

    #[test]
    fn wildcard_step() {
        let p = parse("$v/*");
        let Expr::Path { steps, .. } = p.body else {
            panic!()
        };
        assert_eq!(steps[0].test, NodeTest::Wildcard);
    }

    #[test]
    fn hyphenated_function_names() {
        let p = parse(r#"fn-bea:if-empty((), "d")"#);
        assert!(matches!(
            p.body,
            Expr::FunctionCall { ref name, .. } if name == "fn-bea:if-empty"
        ));
    }

    #[test]
    fn deep_paren_nesting_reports_depth_exceeded() {
        let query = format!("{}1{}", "(".repeat(5_000), ")".repeat(5_000));
        let err = parse_program(&query).unwrap_err();
        assert_eq!(err.kind, XqParseErrorKind::DepthExceeded);
    }

    #[test]
    fn deep_constructor_nesting_reports_depth_exceeded() {
        let open: String = (0..5_000).map(|_| "<A>").collect();
        let close: String = (0..5_000).map(|_| "</A>").collect();
        let err = parse_program(&format!("{open}x{close}")).unwrap_err();
        assert_eq!(err.kind, XqParseErrorKind::DepthExceeded);
    }

    #[test]
    fn deep_unary_minus_reports_depth_exceeded() {
        let query = format!("{}1", "- ".repeat(5_000));
        let err = parse_program(&query).unwrap_err();
        assert_eq!(err.kind, XqParseErrorKind::DepthExceeded);
    }

    #[test]
    fn nesting_under_the_limit_still_parses() {
        let depth = MAX_PARSE_DEPTH / 2;
        let query = format!("{}1{}", "(".repeat(depth), ")".repeat(depth));
        assert!(parse_program(&query).is_ok());
    }

    #[test]
    fn context_item_dot() {
        let p = parse("$t/R[. = 5]");
        let Expr::Path { steps, .. } = p.body else {
            panic!()
        };
        let Expr::GeneralComp { left, .. } = &steps[0].predicates[0] else {
            panic!()
        };
        assert_eq!(**left, Expr::ContextItem);
    }
}
