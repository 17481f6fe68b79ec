//! The built-in function library: the `fn:` subset the generated dialect
//! uses, the `fn-bea:` extension functions (paper §4 and the SQL function
//! map of §3.5 (iii)), and `xs:*` constructor casts.
//!
//! SQL scalar functions map onto these per the translator's preconfigured
//! function map: `UPPER → fn:upper-case`, `CHAR_LENGTH →
//! fn:string-length`, `SUBSTRING → fn:substring`, `LIKE → fn-bea:sql-like`,
//! `TRIM → fn-bea:sql-trim`, `POSITION → fn-bea:sql-position`, and so on.
//! `fn-bea:sql-like/-trim/-position` are our stand-ins for the BEA runtime
//! library's SQL-compatibility functions (the real product shipped
//! `fn-bea:sql-like`); their semantics are pinned by differential tests
//! against the relational oracle.

use crate::eval::XqError;
use aldsp_xml::escape::escape_text;
use aldsp_xml::{Atomic, Item, Sequence, XsType};

/// Dispatches a built-in call. Returns `Ok(None)` when `name` is not a
/// built-in (the evaluator then consults the data-service
/// [`crate::FunctionSource`]).
pub fn call_builtin(name: &str, args: &[Sequence]) -> Result<Option<Sequence>, XqError> {
    // Constructor casts: xs:integer(...), xs:string(...), ...
    if let Some(t) = XsType::from_xs_name(name) {
        require_arity(name, args, 1)?;
        return cast_sequence(&args[0], t).map(Some);
    }
    let result = match name {
        "fn:data" => {
            require_arity(name, args, 1)?;
            data(&args[0])
        }
        "fn:string" => {
            require_arity(name, args, 1)?;
            let s = match args[0].items() {
                [] => String::new(),
                [item] => item.string_value(),
                _ => return Err(XqError::new("fn:string requires at most one item")),
            };
            Sequence::singleton(Atomic::String(s))
        }
        "fn:empty" => {
            require_arity(name, args, 1)?;
            Sequence::singleton(Atomic::Boolean(args[0].is_empty()))
        }
        "fn:exists" => {
            require_arity(name, args, 1)?;
            Sequence::singleton(Atomic::Boolean(!args[0].is_empty()))
        }
        "fn:not" => {
            require_arity(name, args, 1)?;
            Sequence::singleton(Atomic::Boolean(!args[0].effective_boolean()))
        }
        "fn:boolean" => {
            require_arity(name, args, 1)?;
            Sequence::singleton(Atomic::Boolean(args[0].effective_boolean()))
        }
        "fn:true" => {
            require_arity(name, args, 0)?;
            Sequence::singleton(Atomic::Boolean(true))
        }
        "fn:false" => {
            require_arity(name, args, 0)?;
            Sequence::singleton(Atomic::Boolean(false))
        }
        "fn:count" => {
            require_arity(name, args, 1)?;
            Sequence::singleton(Atomic::Integer(args[0].len() as i64))
        }
        "fn:sum" => {
            require_arity(name, args, 1)?;
            aggregate_numeric(name, &args[0], NumericAgg::Sum)?
        }
        "fn:avg" => {
            require_arity(name, args, 1)?;
            aggregate_numeric(name, &args[0], NumericAgg::Avg)?
        }
        "fn:min" => {
            require_arity(name, args, 1)?;
            min_max(&args[0], true)?
        }
        "fn:max" => {
            require_arity(name, args, 1)?;
            min_max(&args[0], false)?
        }
        "fn:string-join" => {
            require_arity(name, args, 2)?;
            let sep = singleton_string(&args[1]).unwrap_or_default();
            let mut joined = String::new();
            for (i, item) in args[0].iter().enumerate() {
                if i > 0 {
                    joined.push_str(&sep);
                }
                item.push_string_value(&mut joined);
            }
            Sequence::singleton(Atomic::String(joined))
        }
        "fn:concat" => {
            if args.len() < 2 {
                return Err(XqError::new("fn:concat requires at least two arguments"));
            }
            let mut out = String::new();
            for a in args {
                if let Some(s) = singleton_string(a) {
                    out.push_str(&s);
                }
            }
            Sequence::singleton(Atomic::String(out))
        }
        "fn:upper-case" => string_fn(name, args, |s| s.to_uppercase())?,
        "fn:lower-case" => string_fn(name, args, |s| s.to_lowercase())?,
        "fn:string-length" => {
            require_arity(name, args, 1)?;
            match singleton_string(&args[0]) {
                None => Sequence::singleton(Atomic::Integer(0)),
                Some(s) => Sequence::singleton(Atomic::Integer(s.chars().count() as i64)),
            }
        }
        "fn:contains" => {
            require_arity(name, args, 2)?;
            let h = singleton_string(&args[0]).unwrap_or_default();
            let n = singleton_string(&args[1]).unwrap_or_default();
            Sequence::singleton(Atomic::Boolean(h.contains(&n)))
        }
        "fn:starts-with" => {
            require_arity(name, args, 2)?;
            let h = singleton_string(&args[0]).unwrap_or_default();
            let n = singleton_string(&args[1]).unwrap_or_default();
            Sequence::singleton(Atomic::Boolean(h.starts_with(&n)))
        }
        "fn:ends-with" => {
            require_arity(name, args, 2)?;
            let h = singleton_string(&args[0]).unwrap_or_default();
            let n = singleton_string(&args[1]).unwrap_or_default();
            Sequence::singleton(Atomic::Boolean(h.ends_with(&n)))
        }
        "fn:substring" => {
            if args.len() != 2 && args.len() != 3 {
                return Err(XqError::new("fn:substring requires 2 or 3 arguments"));
            }
            match singleton_string(&args[0]) {
                None => Sequence::singleton(Atomic::String(String::new())),
                Some(s) => {
                    let start = singleton_number(&args[1])
                        .ok_or_else(|| XqError::new("fn:substring: bad start"))?;
                    let length = match args.get(2) {
                        Some(a) => Some(
                            singleton_number(a)
                                .ok_or_else(|| XqError::new("fn:substring: bad length"))?,
                        ),
                        None => None,
                    };
                    Sequence::singleton(Atomic::String(xpath_substring(&s, start, length)))
                }
            }
        }
        "fn:abs" => numeric_unary(name, args, |a| {
            Ok(match a {
                // abs(i64::MIN) has no i64 answer.
                Atomic::Integer(i) => Atomic::Integer(
                    i.checked_abs()
                        .ok_or_else(|| XqError::new("integer overflow"))?,
                ),
                Atomic::Decimal(d) => Atomic::Decimal(d.abs()),
                Atomic::Double(d) => Atomic::Double(d.abs()),
                other => other,
            })
        })?,
        "fn:floor" => numeric_unary(name, args, |a| {
            Ok(match a {
                Atomic::Decimal(d) => Atomic::Decimal(d.floor()),
                Atomic::Double(d) => Atomic::Double(d.floor()),
                other => other,
            })
        })?,
        "fn:ceiling" => numeric_unary(name, args, |a| {
            Ok(match a {
                Atomic::Decimal(d) => Atomic::Decimal(d.ceil()),
                Atomic::Double(d) => Atomic::Double(d.ceil()),
                other => other,
            })
        })?,
        "fn:round" => numeric_unary(name, args, |a| {
            Ok(match a {
                Atomic::Decimal(d) => Atomic::Decimal(d.round()),
                Atomic::Double(d) => Atomic::Double(d.round()),
                other => other,
            })
        })?,
        "fn:distinct-values" => {
            require_arity(name, args, 1)?;
            let mut seen = std::collections::HashSet::new();
            let mut out = Sequence::empty();
            for a in data(&args[0]) {
                let Item::Atomic(a) = a else { continue };
                if seen.insert(crate::exec::AtomKey::group(&a)) {
                    out.push(a);
                }
            }
            out
        }
        "fn:zero-or-one" => {
            require_arity(name, args, 1)?;
            if args[0].len() > 1 {
                return Err(XqError::new(
                    "fn:zero-or-one: sequence has more than one item",
                ));
            }
            args[0].clone()
        }
        // ---- fn-bea: extensions ---------------------------------------
        // Record-set helpers used by the translator for DISTINCT and set
        // operations. The closed-source BEA runtime shipped SQL-support
        // functions (fn-bea:sql-like is documented); these are our
        // equivalents, with bag semantics pinned by differential tests.
        "fn-bea:distinct-records" => {
            require_arity(name, args, 1)?;
            let mut seen = std::collections::HashSet::new();
            let mut out = Sequence::empty();
            for item in args[0].iter() {
                match row_key(item) {
                    Some(key) => {
                        if seen.insert(key) {
                            out.push(item.clone());
                        }
                    }
                    None => out.push(item.clone()),
                }
            }
            out
        }
        "fn-bea:intersect-all-records" => {
            require_arity(name, args, 2)?;
            let mut counts = record_counts(&args[1]);
            let mut out = Sequence::empty();
            for item in args[0].iter() {
                if let Some(key) = row_key(item) {
                    if let Some(n) = counts.get_mut(&key) {
                        if *n > 0 {
                            *n -= 1;
                            out.push(item.clone());
                        }
                    }
                }
            }
            out
        }
        "fn-bea:except-all-records" => {
            require_arity(name, args, 2)?;
            let mut counts = record_counts(&args[1]);
            let mut out = Sequence::empty();
            // An item that is no row cannot occur on the right: it stays,
            // as `distinct-records` passes it through.
            for item in args[0].iter() {
                match row_key(item).and_then(|key| counts.get_mut(&key)) {
                    Some(n) if *n > 0 => *n -= 1,
                    _ => out.push(item.clone()),
                }
            }
            out
        }
        "fn-bea:serialize-atomic" => {
            require_arity(name, args, 1)?;
            match args[0].items() {
                [] => Sequence::empty(),
                [item] => Sequence::singleton(Atomic::String(item.string_value())),
                _ => {
                    return Err(XqError::new(
                        "fn-bea:serialize-atomic requires at most one item",
                    ))
                }
            }
        }
        "fn-bea:xml-escape" => {
            require_arity(name, args, 1)?;
            match singleton_string(&args[0]) {
                None => Sequence::empty(),
                Some(s) => Sequence::singleton(Atomic::String(escape_text(&s))),
            }
        }
        "fn-bea:if-empty" => {
            require_arity(name, args, 2)?;
            if args[0].is_empty() {
                args[1].clone()
            } else {
                args[0].clone()
            }
        }
        "fn-bea:sql-like" => {
            if args.len() != 2 && args.len() != 3 {
                return Err(XqError::new("fn-bea:sql-like requires 2 or 3 arguments"));
            }
            let input = singleton_string(&args[0]);
            let pattern = singleton_string(&args[1]);
            let escape = args.get(2).and_then(singleton_string);
            match (input, pattern) {
                // Empty (SQL NULL) input or pattern → empty (UNKNOWN).
                (None, _) | (_, None) => Sequence::empty(),
                (Some(input), Some(pattern)) => {
                    let escape_char = match &escape {
                        Some(e) if e.chars().count() == 1 => e.chars().next(),
                        Some(_) => {
                            return Err(XqError::new(
                                "fn-bea:sql-like escape must be one character",
                            ))
                        }
                        None => None,
                    };
                    let matched = sql_like(&input, &pattern, escape_char)?;
                    Sequence::singleton(Atomic::Boolean(matched))
                }
            }
        }
        "fn-bea:sql-trim" => {
            // (input, side, chars) — side in {"BOTH","LEADING","TRAILING"}.
            require_arity(name, args, 3)?;
            match singleton_string(&args[0]) {
                None => Sequence::empty(),
                Some(input) => {
                    let side = singleton_string(&args[1]).unwrap_or_default();
                    let pad_str = singleton_string(&args[2]).unwrap_or_else(|| " ".into());
                    let mut chars = pad_str.chars();
                    let pad = match (chars.next(), chars.next()) {
                        (Some(c), None) => c,
                        _ => return Err(XqError::new("fn-bea:sql-trim pad must be one character")),
                    };
                    let trimmed = match side.as_str() {
                        "LEADING" => input.trim_start_matches(pad),
                        "TRAILING" => input.trim_end_matches(pad),
                        _ => input.trim_matches(pad),
                    };
                    Sequence::singleton(Atomic::String(trimmed.to_string()))
                }
            }
        }
        "fn-bea:sql-position" => {
            require_arity(name, args, 2)?;
            match (singleton_string(&args[0]), singleton_string(&args[1])) {
                (Some(needle), Some(haystack)) => {
                    let pos = if needle.is_empty() {
                        1
                    } else {
                        match haystack.find(&needle) {
                            Some(byte) => haystack[..byte].chars().count() as i64 + 1,
                            None => 0,
                        }
                    };
                    Sequence::singleton(Atomic::Integer(pos))
                }
                _ => Sequence::empty(),
            }
        }
        _ => return Ok(None),
    };
    Ok(Some(result))
}

/// Every name [`call_builtin`] dispatches by match arm (the `xs:*`
/// constructor casts are handled separately — see [`is_builtin`]). Kept in
/// sync with the dispatcher by a test below; the analyzer crate checks
/// emitted calls against this list.
pub const BUILTIN_NAMES: &[&str] = &[
    "fn:data",
    "fn:string",
    "fn:empty",
    "fn:exists",
    "fn:not",
    "fn:boolean",
    "fn:true",
    "fn:false",
    "fn:count",
    "fn:sum",
    "fn:avg",
    "fn:min",
    "fn:max",
    "fn:string-join",
    "fn:concat",
    "fn:upper-case",
    "fn:lower-case",
    "fn:string-length",
    "fn:contains",
    "fn:starts-with",
    "fn:ends-with",
    "fn:substring",
    "fn:abs",
    "fn:floor",
    "fn:ceiling",
    "fn:round",
    "fn:distinct-values",
    "fn:zero-or-one",
    "fn-bea:distinct-records",
    "fn-bea:intersect-all-records",
    "fn-bea:except-all-records",
    "fn-bea:serialize-atomic",
    "fn-bea:xml-escape",
    "fn-bea:if-empty",
    "fn-bea:sql-like",
    "fn-bea:sql-trim",
    "fn-bea:sql-position",
];

/// The declared static return type of a builtin. Most entries are a fixed
/// atomic type; the identity-shaped functions pass their argument's item
/// type through. A test below asserts every [`BUILTIN_NAMES`] entry
/// declares one, and the analyzer's XQuery-side type inference consumes
/// the table (it must never have to guess what a dispatched call yields).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuiltinReturn {
    /// Always this atomic type.
    Fixed(XsType),
    /// The first argument's item type passes through (`fn:data`,
    /// `fn:abs`, `fn:min`, `fn:zero-or-one`, the record-set helpers,
    /// `fn-bea:if-empty`, ...). `fn:sum` is here too: a sum of integers
    /// stays `xs:integer`, of decimals `xs:decimal`, of doubles
    /// `xs:double` — exactly the dispatcher's behaviour.
    OfArg,
    /// `fn:avg`: `xs:double` when the input is `xs:double`, otherwise
    /// `xs:decimal` (the dispatcher divides in binary either way; this is
    /// also SQL's AVG result-typing rule as stage two applies it).
    Average,
}

/// Looks up the declared return type of a `fn:`/`fn-bea:` builtin (not
/// the `xs:*` constructor casts, whose result type *is* their name).
/// `None` exactly when [`BUILTIN_NAMES`] does not list `name`.
pub fn builtin_return_type(name: &str) -> Option<BuiltinReturn> {
    use BuiltinReturn::*;
    Some(match name {
        "fn:string"
        | "fn:string-join"
        | "fn:concat"
        | "fn:upper-case"
        | "fn:lower-case"
        | "fn:substring"
        | "fn-bea:serialize-atomic"
        | "fn-bea:xml-escape"
        | "fn-bea:sql-trim" => Fixed(XsType::String),
        "fn:empty" | "fn:exists" | "fn:not" | "fn:boolean" | "fn:true" | "fn:false"
        | "fn:contains" | "fn:starts-with" | "fn:ends-with" | "fn-bea:sql-like" => {
            Fixed(XsType::Boolean)
        }
        "fn:count" | "fn:string-length" | "fn-bea:sql-position" => Fixed(XsType::Integer),
        "fn:data"
        | "fn:sum"
        | "fn:min"
        | "fn:max"
        | "fn:abs"
        | "fn:floor"
        | "fn:ceiling"
        | "fn:round"
        | "fn:distinct-values"
        | "fn:zero-or-one"
        | "fn-bea:distinct-records"
        | "fn-bea:intersect-all-records"
        | "fn-bea:except-all-records"
        | "fn-bea:if-empty" => OfArg,
        "fn:avg" => Average,
        _ => return None,
    })
}

/// Whether `name` resolves inside this library: a `fn:`/`fn-bea:` builtin
/// or an `xs:*` constructor cast. Everything else must resolve through the
/// data-service [`crate::FunctionSource`].
pub fn is_builtin(name: &str) -> bool {
    XsType::from_xs_name(name).is_some() || BUILTIN_NAMES.contains(&name)
}

fn require_arity(name: &str, args: &[Sequence], n: usize) -> Result<(), XqError> {
    if args.len() == n {
        Ok(())
    } else {
        Err(XqError::new(format!(
            "{name} expects {n} argument(s), got {}",
            args.len()
        )))
    }
}

/// `fn:data`: atomizes every item.
pub fn data(seq: &Sequence) -> Sequence {
    seq.iter()
        .filter_map(|item| item.atomize(None))
        .map(Item::Atomic)
        .collect()
}

/// The single string of a singleton sequence (atomizing); `None` when
/// empty.
pub fn singleton_string(seq: &Sequence) -> Option<String> {
    seq.as_singleton().map(|item| item.string_value())
}

fn singleton_number(seq: &Sequence) -> Option<f64> {
    let item = seq.as_singleton()?;
    let atomic = item.atomize(None)?;
    match atomic {
        Atomic::Untyped(s) | Atomic::String(s) => s.trim().parse().ok(),
        other => other.as_f64(),
    }
}

fn string_fn(
    name: &str,
    args: &[Sequence],
    f: impl FnOnce(&str) -> String,
) -> Result<Sequence, XqError> {
    require_arity(name, args, 1)?;
    Ok(match singleton_string(&args[0]) {
        None => Sequence::singleton(Atomic::String(String::new())),
        Some(s) => Sequence::singleton(Atomic::String(f(&s))),
    })
}

fn numeric_unary(
    name: &str,
    args: &[Sequence],
    f: impl FnOnce(Atomic) -> Result<Atomic, XqError>,
) -> Result<Sequence, XqError> {
    require_arity(name, args, 1)?;
    match args[0].items() {
        [] => Ok(Sequence::empty()),
        [item] => {
            let atomic = item
                .atomize(None)
                .ok_or_else(|| XqError::new(format!("{name}: cannot atomize operand")))?;
            let atomic = coerce_numeric(&atomic)
                .ok_or_else(|| XqError::new(format!("{name}: non-numeric operand")))?;
            Ok(Sequence::singleton(f(atomic)?))
        }
        _ => Err(XqError::new(format!("{name} requires a singleton"))),
    }
}

/// Numeric coercion: untyped → double (XQuery 1.0), numerics unchanged.
pub fn coerce_numeric(a: &Atomic) -> Option<Atomic> {
    match a {
        Atomic::Integer(_) | Atomic::Decimal(_) | Atomic::Double(_) => Some(a.clone()),
        Atomic::Untyped(s) => s.trim().parse::<f64>().ok().map(Atomic::Double),
        _ => None,
    }
}

enum NumericAgg {
    Sum,
    Avg,
}

fn aggregate_numeric(name: &str, seq: &Sequence, agg: NumericAgg) -> Result<Sequence, XqError> {
    let atomics = data(seq);
    if atomics.is_empty() {
        return Ok(match agg {
            // fn:sum of the empty sequence is 0 per spec; fn:avg is ().
            NumericAgg::Sum => Sequence::singleton(Atomic::Integer(0)),
            NumericAgg::Avg => Sequence::empty(),
        });
    }
    let mut all_int = true;
    let mut any_double = false;
    let mut int_sum: i64 = 0;
    let mut f_sum = 0.0;
    let mut count = 0usize;
    for item in atomics.iter() {
        let Item::Atomic(a) = item else { continue };
        let a = coerce_numeric(a)
            .ok_or_else(|| XqError::new(format!("{name}: non-numeric value {a}")))?;
        match a {
            Atomic::Integer(i) => {
                int_sum = int_sum
                    .checked_add(i)
                    .ok_or_else(|| XqError::new(format!("{name}: integer overflow")))?;
                f_sum += i as f64;
            }
            Atomic::Decimal(d) => {
                all_int = false;
                f_sum += d;
            }
            Atomic::Double(d) => {
                all_int = false;
                any_double = true;
                f_sum += d;
            }
            _ => unreachable!("coerce_numeric returns numerics"),
        }
        count += 1;
    }
    let result = match agg {
        NumericAgg::Sum => {
            if all_int {
                Atomic::Integer(int_sum)
            } else if any_double {
                Atomic::Double(f_sum)
            } else {
                Atomic::Decimal(f_sum)
            }
        }
        NumericAgg::Avg => {
            let avg = f_sum / count as f64;
            if any_double {
                Atomic::Double(avg)
            } else {
                Atomic::Decimal(avg)
            }
        }
    };
    Ok(Sequence::singleton(result))
}

fn min_max(seq: &Sequence, want_min: bool) -> Result<Sequence, XqError> {
    let mut best: Option<Atomic> = None;
    for item in data(seq) {
        let Item::Atomic(a) = item else { continue };
        best = Some(match best {
            None => a,
            Some(b) => {
                let ord = a
                    .compare(&b)
                    .ok_or_else(|| XqError::new("fn:min/fn:max: incomparable values"))?;
                let take_new = if want_min {
                    ord == std::cmp::Ordering::Less
                } else {
                    ord == std::cmp::Ordering::Greater
                };
                if take_new {
                    a
                } else {
                    b
                }
            }
        });
    }
    Ok(match best {
        None => Sequence::empty(),
        Some(a) => Sequence::singleton(a),
    })
}

fn cast_sequence(seq: &Sequence, target: XsType) -> Result<Sequence, XqError> {
    match seq.items() {
        // Constructor casts accept the empty sequence (`?` occurrence) —
        // this is how SQL NULL flows through generated casts.
        [] => Ok(Sequence::empty()),
        [item] => {
            let atomic = item
                .atomize(None)
                .ok_or_else(|| XqError::new("cannot atomize cast operand"))?;
            let cast = atomic
                .cast_to(target)
                .map_err(|e| XqError::new(e.message))?;
            Ok(Sequence::singleton(cast))
        }
        _ => Err(XqError::new("cast requires a singleton operand")),
    }
}

/// XPath `fn:substring` windowing (identical to SQL SUBSTRING semantics
/// for integral arguments, which is why the translator maps one to the
/// other directly).
fn xpath_substring(s: &str, start: f64, length: Option<f64>) -> String {
    let chars: Vec<char> = s.chars().collect();
    let start_r = start.round();
    let end_exclusive = match length {
        Some(l) => start_r + l.round(),
        None => f64::INFINITY,
    };
    chars
        .iter()
        .enumerate()
        .filter(|(i, _)| {
            let p = (*i + 1) as f64;
            p >= start_r && p < end_exclusive
        })
        .map(|(_, c)| *c)
        .collect()
}

/// SQL LIKE matching (mirrors the relational engine's matcher; duplicated
/// here because the two crates are independent substrates whose agreement
/// is *checked*, not assumed, by differential tests).
fn sql_like(text: &str, pattern: &str, escape: Option<char>) -> Result<bool, XqError> {
    #[derive(PartialEq)]
    enum Tok {
        AnyRun,
        AnyOne,
        Lit(char),
    }
    let mut tokens = Vec::new();
    let mut chars = pattern.chars();
    while let Some(c) = chars.next() {
        if Some(c) == escape {
            match chars.next() {
                Some(next) => tokens.push(Tok::Lit(next)),
                None => return Err(XqError::new("LIKE pattern ends with escape character")),
            }
        } else if c == '%' {
            if tokens.last() != Some(&Tok::AnyRun) {
                tokens.push(Tok::AnyRun);
            }
        } else if c == '_' {
            tokens.push(Tok::AnyOne);
        } else {
            tokens.push(Tok::Lit(c));
        }
    }
    fn matches(text: &[char], ti: usize, toks: &[Tok], pi: usize) -> bool {
        if pi == toks.len() {
            return ti == text.len();
        }
        match toks[pi] {
            Tok::Lit(c) => ti < text.len() && text[ti] == c && matches(text, ti + 1, toks, pi + 1),
            Tok::AnyOne => ti < text.len() && matches(text, ti + 1, toks, pi + 1),
            Tok::AnyRun => (ti..=text.len()).any(|next| matches(text, next, toks, pi + 1)),
        }
    }
    let chars: Vec<char> = text.chars().collect();
    Ok(matches(&chars, 0, &tokens, 0))
}

/// Appends one cell to a row's canonical duplicate-elimination key: the
/// cell's local name and its string value. A row's key is its cells', in
/// document order. Absent columns (SQL NULL) and empty-string columns
/// produce different keys because NULL columns are omitted from generated
/// row elements. The one key writer: the builtins below key built rows
/// with it, and the sort and set operators of [`crate::exec`] the rows
/// they never build, off the cell reads that would have built them.
pub(crate) fn record_key(key: &mut String, name: &str, value: &str) {
    key.push_str(name);
    key.push('\u{1}');
    key.push_str(value);
    key.push('\u{2}');
}

/// The key of a row element: [`record_key`] of each child. `None` for an
/// item that is no element.
fn row_key(item: &Item) -> Option<String> {
    let element = item.as_element_ref()?;
    let mut key = String::new();
    for child in element.child_elements() {
        record_key(&mut key, child.name().local_part(), &child.string_value());
    }
    Some(key)
}

fn record_counts(seq: &Sequence) -> std::collections::HashMap<String, usize> {
    let mut counts = std::collections::HashMap::new();
    for item in seq.iter() {
        if let Some(key) = row_key(item) {
            *counts.entry(key).or_insert(0) += 1;
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(values: &[Atomic]) -> Sequence {
        values.iter().cloned().map(Item::Atomic).collect()
    }

    fn call(name: &str, args: &[Sequence]) -> Sequence {
        call_builtin(name, args)
            .unwrap()
            .unwrap_or_else(|| panic!("{name} is not a builtin"))
    }

    #[test]
    fn empty_and_exists() {
        assert_eq!(
            call("fn:empty", &[Sequence::empty()]),
            Sequence::singleton(Atomic::Boolean(true))
        );
        assert_eq!(
            call("fn:exists", &[seq(&[Atomic::Integer(1)])]),
            Sequence::singleton(Atomic::Boolean(true))
        );
    }

    #[test]
    fn count_sum_avg() {
        let values = seq(&[Atomic::Integer(1), Atomic::Integer(2), Atomic::Integer(3)]);
        assert_eq!(
            call("fn:count", std::slice::from_ref(&values)),
            Sequence::singleton(Atomic::Integer(3))
        );
        assert_eq!(
            call("fn:sum", std::slice::from_ref(&values)),
            Sequence::singleton(Atomic::Integer(6))
        );
        assert_eq!(
            call("fn:avg", &[values]),
            Sequence::singleton(Atomic::Decimal(2.0))
        );
        // fn:sum(()) is 0, fn:avg(()) is ().
        assert_eq!(
            call("fn:sum", &[Sequence::empty()]),
            Sequence::singleton(Atomic::Integer(0))
        );
        assert_eq!(call("fn:avg", &[Sequence::empty()]), Sequence::empty());
    }

    #[test]
    fn sum_coerces_untyped_to_double() {
        let values = seq(&[Atomic::Untyped("1.5".into()), Atomic::Integer(2)]);
        assert_eq!(
            call("fn:sum", &[values]),
            Sequence::singleton(Atomic::Double(3.5))
        );
    }

    #[test]
    fn min_max_with_untyped() {
        let values = seq(&[Atomic::Untyped("9".into()), Atomic::Integer(10)]);
        assert_eq!(
            call("fn:min", std::slice::from_ref(&values)),
            Sequence::singleton(Atomic::Untyped("9".into()))
        );
        assert_eq!(
            call("fn:max", &[values]),
            Sequence::singleton(Atomic::Integer(10))
        );
    }

    #[test]
    fn string_join_and_concat() {
        let parts = seq(&[
            Atomic::String("a".into()),
            Atomic::String("b".into()),
            Atomic::String("c".into()),
        ]);
        assert_eq!(
            call(
                "fn:string-join",
                &[parts, Sequence::singleton(Atomic::String("-".into()))]
            ),
            Sequence::singleton(Atomic::String("a-b-c".into()))
        );
        // String values of any item kind go into the one buffer; an empty
        // sequence joins to the empty string.
        let mixed = Sequence::from_items(vec![
            Atomic::Integer(7).into(),
            Item::element(
                aldsp_xml::Element::new("A")
                    .with_text("x")
                    .with_child(aldsp_xml::Element::new("B").with_text("y")),
            ),
            Atomic::Decimal(1.5).into(),
        ]);
        let comma = Sequence::singleton(Atomic::String(", ".into()));
        assert_eq!(
            call("fn:string-join", &[mixed, comma.clone()]),
            Sequence::singleton(Atomic::String("7, xy, 1.5".into()))
        );
        assert_eq!(
            call("fn:string-join", &[Sequence::empty(), comma]),
            Sequence::singleton(Atomic::String(String::new()))
        );
        assert_eq!(
            call(
                "fn:concat",
                &[
                    Sequence::singleton(Atomic::String("x".into())),
                    Sequence::empty(),
                    Sequence::singleton(Atomic::Integer(7)),
                ]
            ),
            Sequence::singleton(Atomic::String("x7".into()))
        );
    }

    #[test]
    fn bea_if_empty_substitutes_default() {
        let default = Sequence::singleton(Atomic::String("".into()));
        assert_eq!(
            call("fn-bea:if-empty", &[Sequence::empty(), default.clone()]),
            default
        );
        let value = Sequence::singleton(Atomic::String("v".into()));
        assert_eq!(call("fn-bea:if-empty", &[value.clone(), default]), value);
    }

    #[test]
    fn bea_xml_escape_escapes_separators() {
        assert_eq!(
            call(
                "fn-bea:xml-escape",
                &[Sequence::singleton(Atomic::String("a>b<c".into()))]
            ),
            Sequence::singleton(Atomic::String("a&gt;b&lt;c".into()))
        );
        // Empty in, empty out — if-empty then substitutes.
        assert_eq!(
            call("fn-bea:xml-escape", &[Sequence::empty()]),
            Sequence::empty()
        );
    }

    #[test]
    fn bea_sql_like() {
        let arg = |s: &str| Sequence::singleton(Atomic::String(s.into()));
        assert_eq!(
            call("fn-bea:sql-like", &[arg("Sue"), arg("S%")]),
            Sequence::singleton(Atomic::Boolean(true))
        );
        assert_eq!(
            call("fn-bea:sql-like", &[Sequence::empty(), arg("S%")]),
            Sequence::empty()
        );
        assert_eq!(
            call("fn-bea:sql-like", &[arg("50%"), arg("50!%"), arg("!")]),
            Sequence::singleton(Atomic::Boolean(true))
        );
    }

    #[test]
    fn bea_sql_trim_and_position() {
        let arg = |s: &str| Sequence::singleton(Atomic::String(s.into()));
        assert_eq!(
            call("fn-bea:sql-trim", &[arg("00x0"), arg("LEADING"), arg("0")]),
            Sequence::singleton(Atomic::String("x0".into()))
        );
        assert_eq!(
            call("fn-bea:sql-position", &[arg("l"), arg("hello")]),
            Sequence::singleton(Atomic::Integer(3))
        );
        assert_eq!(
            call("fn-bea:sql-position", &[arg("z"), arg("hello")]),
            Sequence::singleton(Atomic::Integer(0))
        );
    }

    #[test]
    fn constructor_casts() {
        assert_eq!(
            call(
                "xs:integer",
                &[Sequence::singleton(Atomic::Untyped("42".into()))]
            ),
            Sequence::singleton(Atomic::Integer(42))
        );
        // Empty passes through (NULL propagation).
        assert_eq!(call("xs:integer", &[Sequence::empty()]), Sequence::empty());
        assert!(call_builtin(
            "xs:integer",
            &[Sequence::singleton(Atomic::String("nope".into()))]
        )
        .is_err());
    }

    #[test]
    fn substring_matches_sql_windowing() {
        assert_eq!(xpath_substring("hello", 2.0, Some(2.0)), "el");
        assert_eq!(xpath_substring("hello", 0.0, Some(3.0)), "he");
        assert_eq!(xpath_substring("hello", -2.0, Some(4.0)), "h");
        assert_eq!(xpath_substring("hello", 4.0, None), "lo");
    }

    #[test]
    fn distinct_values_collapses_numerics() {
        let values = seq(&[Atomic::Integer(1), Atomic::Decimal(1.0), Atomic::Integer(2)]);
        let result = call("fn:distinct-values", &[values]);
        assert_eq!(result.len(), 2);
    }

    #[test]
    fn unknown_function_returns_none() {
        assert!(call_builtin("ns0:CUSTOMERS", &[]).unwrap().is_none());
    }

    fn record(cols: &[(&str, Option<&str>)]) -> Item {
        use aldsp_xml::flat::build_row;
        use aldsp_xml::{QName, RowSchema};
        let schema = RowSchema::new(QName::local("RECORD"), cols.iter().map(|(n, _)| *n));
        Item::from(build_row(&schema, cols.iter().map(|(_, v)| *v)))
    }

    #[test]
    fn distinct_records_dedupes_rows() {
        let rows: Sequence = vec![
            record(&[("A", Some("1")), ("B", Some("x"))]),
            record(&[("A", Some("1")), ("B", Some("x"))]),
            record(&[("A", Some("1")), ("B", None)]),
        ]
        .into_iter()
        .collect();
        let out = call("fn-bea:distinct-records", &[rows]);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn distinct_records_absent_differs_from_empty() {
        let rows: Sequence = vec![
            record(&[("A", Some("")), ("B", Some("x"))]),
            record(&[("A", None), ("B", Some("x"))]),
        ]
        .into_iter()
        .collect();
        assert_eq!(call("fn-bea:distinct-records", &[rows]).len(), 2);
    }

    #[test]
    fn except_all_records_keeps_what_is_no_row() {
        // An atom beside the rows: no key, so nothing on the right can
        // remove it — kept in place, as `distinct-records` keeps it.
        let atom = Item::Atomic(Atomic::Integer(7));
        let left: Sequence = vec![
            record(&[("A", Some("1"))]),
            atom.clone(),
            record(&[("A", Some("2"))]),
        ]
        .into_iter()
        .collect();
        let right: Sequence = vec![record(&[("A", Some("1"))]), atom.clone()]
            .into_iter()
            .collect();
        let except = call("fn-bea:except-all-records", &[left.clone(), right]);
        assert_eq!(
            except,
            vec![atom.clone(), record(&[("A", Some("2"))])]
                .into_iter()
                .collect()
        );
        assert_eq!(call("fn-bea:distinct-records", &[left]).len(), 3);
    }

    #[test]
    fn intersect_and_except_all_multiplicities() {
        let left: Sequence = vec![
            record(&[("A", Some("1"))]),
            record(&[("A", Some("1"))]),
            record(&[("A", Some("2"))]),
        ]
        .into_iter()
        .collect();
        let right: Sequence = vec![record(&[("A", Some("1"))]), record(&[("A", Some("3"))])]
            .into_iter()
            .collect();
        let inter = call(
            "fn-bea:intersect-all-records",
            &[left.clone(), right.clone()],
        );
        assert_eq!(inter.len(), 1);
        let except = call("fn-bea:except-all-records", &[left, right]);
        assert_eq!(except.len(), 2); // one leftover "1" and the "2"
    }

    #[test]
    fn zero_or_one_guards_cardinality() {
        assert_eq!(
            call("fn:zero-or-one", &[Sequence::empty()]),
            Sequence::empty()
        );
        assert!(call_builtin(
            "fn:zero-or-one",
            &[seq(&[Atomic::Integer(1), Atomic::Integer(2)])]
        )
        .is_err());
    }

    #[test]
    fn builtin_names_matches_dispatcher() {
        // A known name never yields Ok(None) regardless of arity (wrong
        // arity is Err), so every listed name must be recognized.
        for name in BUILTIN_NAMES {
            assert!(
                !matches!(call_builtin(name, &[]), Ok(None)),
                "{name} listed in BUILTIN_NAMES but not dispatched"
            );
            assert!(is_builtin(name));
        }
        assert!(is_builtin("xs:integer"));
        assert!(!is_builtin("fn:no-such-function"));
        assert!(!is_builtin("ns0:CUSTOMERS"));
    }

    #[test]
    fn every_dispatcher_entry_declares_a_return_type() {
        for name in BUILTIN_NAMES {
            assert!(
                builtin_return_type(name).is_some(),
                "{name} carries no declared return type"
            );
        }
        // And only dispatcher entries do.
        assert_eq!(builtin_return_type("fn:no-such-function"), None);
        assert_eq!(
            builtin_return_type("fn:count"),
            Some(BuiltinReturn::Fixed(XsType::Integer))
        );
        assert_eq!(builtin_return_type("fn:sum"), Some(BuiltinReturn::OfArg));
        assert_eq!(builtin_return_type("fn:avg"), Some(BuiltinReturn::Average));
    }
}
