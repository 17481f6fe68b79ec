//! The streaming physical execution layer.
//!
//! The paper's server delegates join execution to "the underlying XQuery
//! engine"; this module is that engine's physical side. It lowers a FLWOR
//! whose `where` conjuncts equate variables bound by different `for`
//! clauses into a pipeline of streaming operators, so the cartesian
//! product the naive interpreter materializes (`eval_flwor` expands a
//! tuple vector per clause) never exists:
//!
//! * [`Op::For`] — scan: expands one `for` clause, pushing each binding
//!   down the pipeline immediately.
//! * [`Op::HashJoin`] — build/probe: the build-side source is evaluated
//!   once (lazily, on the first tuple to arrive, so an upstream filter
//!   that empties the stream skips the build entirely — exactly when the
//!   naive interpreter would also never evaluate it) into a hash table
//!   keyed by [`AtomKey`] projections of the join key; each probe tuple
//!   then binds only its matching build items.
//! * [`Op::Let`] / [`Op::Filter`] — bind and residual-predicate
//!   operators, fused into the same tuple flow.
//!
//! ## Lowering conditions
//!
//! [`plan`] lowers the longest prefix of `for`/`let`/`where` clauses
//! (group-by and order-by terminate it; they run through the interpreter
//! on the pipeline's output). A `for` clause becomes a hash join when:
//!
//! * its source is *stream-invariant*: no free variable bound by an
//!   earlier tuple-varying prefix clause (`let`s whose values are
//!   themselves stream-invariant are fine — the translator's let-bound
//!   `<RECORDSET>` views of paper Example 8 hang joins off exactly such
//!   variables), and
//! * some later `where` conjunct (conjuncts are `and`-flattened) is a
//!   general `=` whose one side references this clause's variable and
//!   nothing else tuple-varying, while the other side references at
//!   least one tuple-varying earlier binding and nothing bound at or
//!   after this clause.
//!
//! Each conjunct keys at most one join; leftovers stay residual filters
//! at their original clause position. Anything else — fewer than two
//! `for` clauses, shadowed variable names, value comparisons,
//! correlated sources — declines, and the FLWOR runs on the naive
//! interpreter unchanged.
//!
//! ## Hash as prefilter, `compare` as judge
//!
//! XQuery general-comparison equality is *not* transitive —
//! `xs:untypedAtomic("5")` equals both `5` and `"5"`, which differ from
//! each other — so no single hash key can partition atoms into equality
//! classes. Instead every atom is inserted under each [`AtomKey`]
//! *projection* it could match through (its numeric magnitude, its raw
//! text, its trimmed text when that differs, its boolean reading), the
//! probe gathers candidates through its own projections, and every
//! candidate pair is verified with the real [`Atomic::compare`]. The
//! projections are complete (two atoms that compare equal always share a
//! bucket — see the pairwise test below) but deliberately over-inclusive;
//! verification keeps the join exactly as selective as the interpreter's
//! existential `=`. An empty key sequence projects nothing and probes
//! nothing: SQL NULL never joins.
//!
//! ## Ordering, errors, budgets
//!
//! Output order is the interpreter's: probe-major, with each probe
//! tuple's matches emitted in build-source order (candidate indices are
//! sorted and deduplicated across projections). Any dynamic error inside
//! the pipeline abandons it and the caller re-runs the FLWOR naively —
//! the pipeline evaluates the same pure expressions, possibly in a
//! different order or for fewer tuples, so the naive outcome is
//! authoritative (budget violations propagate immediately instead; they
//! are not outcomes to reproduce but limits already hit). Fuel is
//! charged through the same [`aldsp_governor::QueryBudget`] hooks — one
//! unit per scan binding, per build row, and per joined binding — and
//! the row cap bounds what the pipeline actually materializes: the build
//! table and the output vector.

use crate::ast::{Clause, CompOp, Expr, Flwor};
use crate::eval::{Env, Evaluator, XqError};
use crate::functions::data;
use crate::visit::free_vars;
use aldsp_xml::{Atomic, Item, Sequence};
use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap, HashSet};

// ---------------------------------------------------------------------
// AtomKey: the hashable key vocabulary
// ---------------------------------------------------------------------

/// A hashable canonical form of one atomized key value, shared by the
/// hash-join build tables and the group-by partitioner (which formerly
/// concatenated `String` keys with control-character delimiters — an
/// allocation per tuple and a collision hazard when key values contain
/// the delimiter; a `Vec<AtomKey>` map key has neither problem).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AtomKey {
    /// The empty sequence (SQL NULL) — group-by gives NULL its own group.
    Empty,
    /// A numeric magnitude as `f64` bits, with `-0.0` normalized to
    /// `0.0` and every NaN payload collapsed to one pattern, so values
    /// that compare equal after numeric promotion share a key.
    Num(u64),
    /// String or untyped text.
    Str(String),
    /// A boolean.
    Bool(bool),
    /// A date, kept distinct from [`AtomKey::Str`]: grouping separates
    /// dates from equal-looking strings even though ordered comparison
    /// treats the pair lexically.
    Date(String),
}

impl AtomKey {
    fn num(d: f64) -> AtomKey {
        let d = if d == 0.0 { 0.0 } else { d };
        AtomKey::Num(if d.is_nan() {
            f64::NAN.to_bits()
        } else {
            d.to_bits()
        })
    }

    /// The canonical grouping key of one atomic: numeric types of equal
    /// magnitude collapse, untyped keys group as strings.
    pub fn group(a: &Atomic) -> AtomKey {
        match a {
            Atomic::Integer(i) => AtomKey::num(*i as f64),
            Atomic::Decimal(d) | Atomic::Double(d) => AtomKey::num(*d),
            Atomic::String(s) | Atomic::Untyped(s) => AtomKey::Str(s.clone()),
            Atomic::Boolean(b) => AtomKey::Bool(*b),
            Atomic::Date(d) => AtomKey::Date(d.clone()),
        }
    }

    /// Appends every bucket this atom could share with an atom it
    /// compares equal to under [`Atomic::compare`]'s general-comparison
    /// rules. Typed atoms have one projection; untyped text projects
    /// into every type it can be coerced to (numeric via `f64` parse,
    /// boolean via the `xs:boolean` lexical forms, and its trimmed text
    /// when trimming changes it — date casts trim). Dates project as
    /// their text because date-vs-string comparison is lexical.
    fn join_projections(a: &Atomic, out: &mut Vec<AtomKey>) {
        match a {
            Atomic::Integer(i) => out.push(AtomKey::num(*i as f64)),
            Atomic::Decimal(d) | Atomic::Double(d) => out.push(AtomKey::num(*d)),
            Atomic::Boolean(b) => out.push(AtomKey::Bool(*b)),
            Atomic::String(s) => out.push(AtomKey::Str(s.clone())),
            Atomic::Date(d) => out.push(AtomKey::Str(d.clone())),
            Atomic::Untyped(s) => {
                out.push(AtomKey::Str(s.clone()));
                let trimmed = s.trim();
                if let Ok(v) = trimmed.parse::<f64>() {
                    out.push(AtomKey::num(v));
                }
                match trimmed {
                    "true" | "1" => out.push(AtomKey::Bool(true)),
                    "false" | "0" => out.push(AtomKey::Bool(false)),
                    _ => {}
                }
                if trimmed != s {
                    out.push(AtomKey::Str(trimmed.to_string()));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Planning
// ---------------------------------------------------------------------

/// One streaming operator. Borrows the FLWOR it was planned from.
pub(crate) enum Op<'p> {
    /// Scan: expand a `for` clause, pushing each binding downstream.
    For {
        /// Bound variable.
        var: &'p str,
        /// Source sequence expression.
        source: &'p Expr,
    },
    /// Bind a `let` value on the current tuple.
    Let {
        /// Bound variable.
        var: &'p str,
        /// Value expression.
        value: &'p Expr,
    },
    /// A residual `where` conjunct.
    Filter(&'p Expr),
    /// Build/probe hash join replacing a `for` clause.
    HashJoin {
        /// The build-side `for` variable.
        var: &'p str,
        /// The stream-invariant build source.
        source: &'p Expr,
        /// Key over earlier bindings, evaluated per probe tuple.
        probe_key: &'p Expr,
        /// Key over `var`, evaluated per build item.
        build_key: &'p Expr,
    },
}

/// A lowered FLWOR prefix.
pub(crate) struct Plan<'p> {
    /// Operators in clause order.
    pub ops: Vec<Op<'p>>,
    /// How many leading clauses of the FLWOR the pipeline covers; the
    /// interpreter resumes with the remainder (group-by / order-by).
    pub consumed: usize,
    /// How many [`Op::HashJoin`] operators the plan contains.
    pub joins: usize,
}

/// Whether this FLWOR even looks like a join — used to count fallbacks
/// only where a join was plausible, so the fast-path fraction in
/// [`aldsp_governor::GovernorStats`] measures joins, not every FLWOR.
pub(crate) fn join_shaped(flwor: &Flwor) -> bool {
    flwor
        .clauses
        .iter()
        .filter(|c| matches!(c, Clause::For { .. }))
        .count()
        >= 2
}

/// Plans the streamable prefix of `flwor`, or `None` when no `for`
/// clause qualifies as a hash join (see the module docs for the
/// conditions).
pub(crate) fn plan(flwor: &Flwor) -> Option<Plan<'_>> {
    let prefix_len = flwor
        .clauses
        .iter()
        .take_while(|c| {
            matches!(
                c,
                Clause::For { .. } | Clause::Let { .. } | Clause::Where(_)
            )
        })
        .count();
    let prefix = &flwor.clauses[..prefix_len];
    if prefix
        .iter()
        .filter(|c| matches!(c, Clause::For { .. }))
        .count()
        < 2
    {
        return None;
    }

    // Binder names in clause order; shadowing (which the translator
    // never emits) would make the free-variable analysis lie, so decline.
    let mut binders: Vec<&str> = Vec::new();
    for clause in prefix {
        if let Clause::For { var, .. } | Clause::Let { var, .. } = clause {
            if binders.contains(&var.as_str()) {
                return None;
            }
            binders.push(var);
        }
    }
    let all_bound: HashSet<&str> = binders.iter().copied().collect();

    // `bound_before[i]`: variables bound by clauses `0..i`. `constants`:
    // let-bound names whose values cannot vary across tuples.
    let mut bound_before: Vec<HashSet<&str>> = Vec::with_capacity(prefix_len);
    let mut bound: HashSet<&str> = HashSet::new();
    let mut constants: HashSet<&str> = HashSet::new();
    for clause in prefix {
        bound_before.push(bound.clone());
        match clause {
            Clause::For { var, .. } => {
                bound.insert(var);
            }
            Clause::Let { var, value } => {
                let invariant = free_vars(value)
                    .iter()
                    .all(|v| !bound.contains(v.as_str()) || constants.contains(v.as_str()));
                if invariant {
                    constants.insert(var);
                }
                bound.insert(var);
            }
            Clause::Where(_) => {}
            Clause::GroupBy(_) | Clause::OrderBy(_) => {
                unreachable!("take_while excludes group-by/order-by from the prefix")
            }
        }
    }

    // And-flattened where conjuncts, tagged with their clause position.
    let mut conjuncts: Vec<(usize, &Expr, bool)> = Vec::new();
    for (i, clause) in prefix.iter().enumerate() {
        if let Clause::Where(pred) = clause {
            flatten_and(pred, i, &mut conjuncts);
        }
    }

    // Assign each joinable `for` clause the first usable conjunct.
    let mut joins: HashMap<usize, (usize, bool)> = HashMap::new();
    for (k, clause) in prefix.iter().enumerate() {
        let Clause::For { var, source } = clause else {
            continue;
        };
        let source_invariant = free_vars(source)
            .iter()
            .all(|v| !bound_before[k].contains(v.as_str()) || constants.contains(v.as_str()));
        if !source_invariant {
            continue;
        }
        for (ci, entry) in conjuncts.iter_mut().enumerate() {
            let (w, conjunct, used) = *entry;
            if used || w < k {
                continue;
            }
            let Expr::GeneralComp {
                op: CompOp::Eq,
                left,
                right,
            } = conjunct
            else {
                continue;
            };
            let build_ok = |frees: &BTreeSet<String>| {
                frees.contains(var.as_str())
                    && frees.iter().all(|v| {
                        v == var
                            || !all_bound.contains(v.as_str())
                            || constants.contains(v.as_str())
                    })
            };
            let probe_ok = |frees: &BTreeSet<String>| {
                frees.iter().all(|v| {
                    !all_bound.contains(v.as_str()) || bound_before[k].contains(v.as_str())
                }) && frees.iter().any(|v| {
                    bound_before[k].contains(v.as_str()) && !constants.contains(v.as_str())
                })
            };
            let lf = free_vars(left);
            let rf = free_vars(right);
            let left_is_probe = if probe_ok(&lf) && build_ok(&rf) {
                true
            } else if probe_ok(&rf) && build_ok(&lf) {
                false
            } else {
                continue;
            };
            joins.insert(k, (ci, left_is_probe));
            entry.2 = true;
            break;
        }
    }
    if joins.is_empty() {
        return None;
    }

    let mut ops: Vec<Op<'_>> = Vec::new();
    for (i, clause) in prefix.iter().enumerate() {
        match clause {
            Clause::For { var, source } => match joins.get(&i) {
                Some(&(ci, left_is_probe)) => {
                    let Expr::GeneralComp { left, right, .. } = conjuncts[ci].1 else {
                        unreachable!("join conjunct is always a general comparison");
                    };
                    let (probe_key, build_key) = if left_is_probe {
                        (&**left, &**right)
                    } else {
                        (&**right, &**left)
                    };
                    ops.push(Op::HashJoin {
                        var,
                        source,
                        probe_key,
                        build_key,
                    });
                }
                None => ops.push(Op::For { var, source }),
            },
            Clause::Let { var, value } => ops.push(Op::Let { var, value }),
            Clause::Where(_) => {
                for &(w, e, used) in &conjuncts {
                    if w == i && !used {
                        ops.push(Op::Filter(e));
                    }
                }
            }
            Clause::GroupBy(_) | Clause::OrderBy(_) => {
                unreachable!("take_while excludes group-by/order-by from the prefix")
            }
        }
    }
    Some(Plan {
        ops,
        consumed: prefix_len,
        joins: joins.len(),
    })
}

fn flatten_and<'p>(expr: &'p Expr, clause: usize, out: &mut Vec<(usize, &'p Expr, bool)>) {
    if let Expr::And(a, b) = expr {
        flatten_and(a, clause, out);
        flatten_and(b, clause, out);
    } else {
        out.push((clause, expr, false));
    }
}

// ---------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------

/// A materialized build side: items in source order, each with its
/// atomized key, plus the projection buckets over them.
struct JoinTable {
    entries: Vec<(Item, Vec<Atomic>)>,
    buckets: HashMap<AtomKey, Vec<usize>>,
}

/// Runs the pipeline over the incoming environment, returning the
/// surviving tuple environments in interpreter order. Budget errors
/// propagate; any other error means the caller must re-run the FLWOR
/// naively (see the module docs).
pub(crate) fn run(
    ev: &Evaluator<'_>,
    plan: &Plan<'_>,
    env: &Env,
    context: Option<&Item>,
) -> Result<Vec<Env>, XqError> {
    let mut tables: Vec<Option<JoinTable>> = Vec::new();
    tables.resize_with(plan.ops.len(), || None);
    let mut out = Vec::new();
    drive(ev, &plan.ops, &mut tables, 0, env, context, &mut out)?;
    Ok(out)
}

fn drive(
    ev: &Evaluator<'_>,
    ops: &[Op<'_>],
    tables: &mut [Option<JoinTable>],
    i: usize,
    env: &Env,
    context: Option<&Item>,
    out: &mut Vec<Env>,
) -> Result<(), XqError> {
    let Some(op) = ops.get(i) else {
        out.push(env.clone());
        return ev.check_rows(out.len());
    };
    match op {
        Op::For { var, source } => {
            let seq = ev.eval(source, env, context)?;
            for item in seq.into_items() {
                ev.charge(1)?;
                let next = env.bind(*var, Sequence::singleton(item));
                drive(ev, ops, tables, i + 1, &next, context, out)?;
            }
        }
        Op::Let { var, value } => {
            let value = ev.eval(value, env, context)?;
            let next = env.bind(*var, value);
            drive(ev, ops, tables, i + 1, &next, context, out)?;
        }
        Op::Filter(predicate) => {
            if ev.eval(predicate, env, context)?.effective_boolean() {
                drive(ev, ops, tables, i + 1, env, context, out)?;
            }
        }
        Op::HashJoin {
            var,
            source,
            probe_key,
            build_key,
        } => {
            if tables[i].is_none() {
                // Built on first arrival: the source and build key are
                // stream-invariant, so this tuple's environment values
                // them identically to every other tuple's.
                tables[i] = Some(build_table(ev, var, source, build_key, env, context)?);
            }
            let matched: Vec<Item> = {
                let table = tables[i].as_ref().expect("table built above");
                let probe = data(&ev.eval(probe_key, env, context)?);
                let mut candidates: Vec<usize> = Vec::new();
                let mut projections = Vec::new();
                for item in probe.iter() {
                    let Item::Atomic(a) = item else { continue };
                    projections.clear();
                    AtomKey::join_projections(a, &mut projections);
                    for key in &projections {
                        if let Some(bucket) = table.buckets.get(key) {
                            candidates.extend(bucket);
                        }
                    }
                }
                candidates.sort_unstable();
                candidates.dedup();
                candidates
                    .into_iter()
                    .filter(|&idx| {
                        let (_, build_atoms) = &table.entries[idx];
                        probe.iter().any(|p| {
                            let Item::Atomic(p) = p else { return false };
                            build_atoms
                                .iter()
                                .any(|b| p.compare(b) == Some(Ordering::Equal))
                        })
                    })
                    .map(|idx| table.entries[idx].0.clone())
                    .collect()
            };
            for item in matched {
                ev.charge(1)?;
                let next = env.bind(*var, Sequence::singleton(item));
                drive(ev, ops, tables, i + 1, &next, context, out)?;
            }
        }
    }
    Ok(())
}

fn build_table(
    ev: &Evaluator<'_>,
    var: &str,
    source: &Expr,
    build_key: &Expr,
    env: &Env,
    context: Option<&Item>,
) -> Result<JoinTable, XqError> {
    let seq = ev.eval(source, env, context)?;
    let mut table = JoinTable {
        entries: Vec::new(),
        buckets: HashMap::new(),
    };
    let mut projections = Vec::new();
    for item in seq.into_items() {
        // Charge the build scan like a `for` expansion, and keep the
        // materialized table under the row cap.
        ev.charge(1)?;
        let bound = env.bind(var, Sequence::singleton(item.clone()));
        let keyed = data(&ev.eval(build_key, &bound, context)?);
        let idx = table.entries.len();
        let mut atoms = Vec::new();
        for key_item in keyed.into_items() {
            let Item::Atomic(a) = key_item else { continue };
            projections.clear();
            AtomKey::join_projections(&a, &mut projections);
            for key in projections.drain(..) {
                let bucket = table.buckets.entry(key).or_default();
                if bucket.last() != Some(&idx) {
                    bucket.push(idx);
                }
            }
            atoms.push(a);
        }
        table.entries.push((item, atoms));
        ev.check_rows(table.entries.len())?;
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn flwor_of(query: &str) -> Flwor {
        let program = parse_program(query).unwrap_or_else(|e| panic!("{e}"));
        let Expr::Flwor(flwor) = program.body else {
            panic!("expected a FLWOR body, got {:?}", program.body);
        };
        flwor
    }

    #[test]
    fn plans_the_translator_join_shape() {
        let flwor = flwor_of(
            "for $a in ns0:CUSTOMERS() for $b in ns1:ORDERS() \
             where ($a/CUSTOMERID = $b/CUSTID) and ($b/AMOUNT > xs:integer(10)) \
             return $a",
        );
        let plan = plan(&flwor).expect("join shape should lower");
        assert_eq!(plan.consumed, 3);
        assert_eq!(plan.joins, 1);
        let kinds: Vec<&str> = plan
            .ops
            .iter()
            .map(|op| match op {
                Op::For { .. } => "for",
                Op::Let { .. } => "let",
                Op::Filter(_) => "filter",
                Op::HashJoin { .. } => "join",
            })
            .collect();
        assert_eq!(kinds, ["for", "join", "filter"]);
    }

    #[test]
    fn plans_three_way_join_as_two_hash_joins() {
        let flwor = flwor_of(
            "for $a in ns0:CUSTOMERS() for $b in ns1:ORDERS() for $c in ns2:PAYMENTS() \
             where ($a/CUSTOMERID = $b/CUSTID) and ($a/CUSTOMERID = $c/CUSTID) \
             return $a",
        );
        let plan = plan(&flwor).expect("three-way join should lower");
        assert_eq!(plan.joins, 2);
    }

    #[test]
    fn plans_join_over_invariant_let_views() {
        // Paper Example 8's let-bound view shape, joined.
        let flwor = flwor_of(
            "let $t1 := <RECORDSET>{for $x in ns0:CUSTOMERS() return $x}</RECORDSET> \
             let $t2 := <RECORDSET>{for $y in ns1:ORDERS() return $y}</RECORDSET> \
             for $a in $t1/RECORD for $b in $t2/RECORD \
             where $a/CUSTOMERID = $b/CUSTID \
             return $a",
        );
        let plan = plan(&flwor).expect("let-view join should lower");
        assert_eq!(plan.joins, 1);
        assert_eq!(plan.consumed, 5);
    }

    #[test]
    fn declines_unjoinable_shapes() {
        // Single for clause.
        assert!(plan(&flwor_of(
            "for $a in ns0:CUSTOMERS() where $a/ID = 1 return $a"
        ))
        .is_none());
        // Correlated build source.
        assert!(plan(&flwor_of(
            "for $a in ns0:CUSTOMERS() for $b in $a/ORDERS where $a/ID = $b/ID return $a"
        ))
        .is_none());
        // No equality conjunct between the two streams.
        assert!(plan(&flwor_of(
            "for $a in ns0:CUSTOMERS() for $b in ns1:ORDERS() where $a/ID < $b/ID return $a"
        ))
        .is_none());
        // Value comparison stays on the interpreter.
        assert!(plan(&flwor_of(
            "for $a in ns0:CUSTOMERS() for $b in ns1:ORDERS() where $a/ID eq $b/ID return $a"
        ))
        .is_none());
        // Both sides on the build variable: a filter, not a join.
        assert!(plan(&flwor_of(
            "for $a in ns0:CUSTOMERS() for $b in ns1:ORDERS() where $b/A = $b/B return $a"
        ))
        .is_none());
        // A probe key that references only stream-constant bindings.
        assert!(plan(&flwor_of(
            "let $k := 5 for $a in ns0:CUSTOMERS() for $b in ns1:ORDERS() \
             where $k = $b/CUSTID return $a"
        ))
        .is_none());
    }

    #[test]
    fn group_keys_collapse_numerics_but_separate_dates_from_strings() {
        assert_eq!(
            AtomKey::group(&Atomic::Integer(5)),
            AtomKey::group(&Atomic::Decimal(5.0))
        );
        assert_eq!(
            AtomKey::group(&Atomic::Double(5.0)),
            AtomKey::group(&Atomic::Integer(5))
        );
        assert_eq!(
            AtomKey::group(&Atomic::Untyped("x".into())),
            AtomKey::group(&Atomic::String("x".into()))
        );
        assert_ne!(
            AtomKey::group(&Atomic::Date("2020-01-01".into())),
            AtomKey::group(&Atomic::String("2020-01-01".into()))
        );
        // -0.0 and 0.0 compare equal, so they share a group.
        assert_eq!(
            AtomKey::group(&Atomic::Decimal(-0.0)),
            AtomKey::group(&Atomic::Decimal(0.0))
        );
    }

    #[test]
    fn join_projections_are_a_complete_prefilter() {
        // For every pair in this deliberately nasty corpus: if the atoms
        // compare equal, they must share at least one projection bucket —
        // otherwise the hash join would silently drop a matching pair.
        let corpus = vec![
            Atomic::Integer(5),
            Atomic::Integer(0),
            Atomic::Integer(-3),
            Atomic::Decimal(5.0),
            Atomic::Decimal(0.0),
            Atomic::Decimal(-0.0),
            Atomic::Double(5.0),
            Atomic::Double(f64::NAN),
            Atomic::Double(1.0),
            Atomic::String("5".into()),
            Atomic::String("abc".into()),
            Atomic::String("2020-01-01".into()),
            Atomic::String("true".into()),
            Atomic::Untyped("5".into()),
            Atomic::Untyped(" 5 ".into()),
            Atomic::Untyped("-0.0".into()),
            Atomic::Untyped("abc".into()),
            Atomic::Untyped("true".into()),
            Atomic::Untyped(" 1".into()),
            Atomic::Untyped("0".into()),
            Atomic::Untyped("2020-01-01".into()),
            Atomic::Untyped(" 2020-01-01 ".into()),
            Atomic::Boolean(true),
            Atomic::Boolean(false),
            Atomic::Date("2020-01-01".into()),
            Atomic::Date("1999-12-31".into()),
        ];
        for a in &corpus {
            for b in &corpus {
                if a.compare(b) != Some(Ordering::Equal) {
                    continue;
                }
                let (mut pa, mut pb) = (Vec::new(), Vec::new());
                AtomKey::join_projections(a, &mut pa);
                AtomKey::join_projections(b, &mut pb);
                assert!(
                    pa.iter().any(|k| pb.contains(k)),
                    "{a:?} equals {b:?} but shares no projection ({pa:?} vs {pb:?})"
                );
            }
        }
    }
}
