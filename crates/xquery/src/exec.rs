//! The streaming physical execution layer.
//!
//! The paper's server delegates join execution to "the underlying XQuery
//! engine"; this module is that engine's physical side. It lowers the
//! three quadratic shapes stage 3 emits — `for … for … where a = b`, the
//! outer join's filtered `let` (Example 10) and `x IN (SELECT ..)`'s
//! comparison against a view — into a pipeline of streaming operators,
//! so neither the cartesian product the naive interpreter materializes
//! (`eval_flwor` expands a tuple vector per clause) nor its per-tuple
//! re-scan of the other side ever happens:
//!
//! * [`Op::For`] — scan: expands one `for` clause, pushing each binding
//!   down the pipeline immediately.
//! * [`Op::HashJoin`] — build/probe: the build-side source is evaluated
//!   once per run (lazily, on the first tuple to arrive, so an upstream
//!   filter that empties the stream skips the build entirely — exactly
//!   when the naive interpreter would also never evaluate it) into a hash
//!   table keyed by the hashes of the join key's projections; each probe
//!   tuple then binds only its matching build items. Where the build side
//!   is *indexable* — every row of a data-service function, keyed by one
//!   child (`Indexed`) — the rows are keyed once **per epoch**: the table
//!   over them is asked of the function source
//!   ([`crate::FunctionSource::join_index`]), which may keep it beside the
//!   rows it indexes and hand it to every later statement that holds the
//!   same rows; the statement is charged the build's fuel and row cap all
//!   the same.
//! * [`Op::ProbeLet`] — the same table over a `let`'s filtered source:
//!   binds the variable to the probe tuple's matches (possibly none —
//!   the `if (fn:empty(..))` padding stays the interpreter's). Indexable
//!   on the same condition, and then the same index as the hash join's.
//! * [`Op::SemiJoin`] — the same table over a view's atoms: passes a
//!   tuple when its key finds any.
//! * [`Op::Let`] / [`Op::Filter`] — bind and residual-predicate
//!   operators, fused into the same tuple flow.
//! * `Project` — the `return <RECORD>…</RECORD>` of every view stage 3
//!   emits, recognized by `project` once per statement, in the plan: each
//!   tuple's cells are read straight off the bound rows' children (one
//!   cell reader, `Tuple::each_value`; one row loop, `project_rows`)
//!   into one of three `Output`s — the element tree where the result has
//!   to be a node, or a sink's payload.
//! * `View` — `let $v := <RECORDSET>{ … }</RECORDSET>`, planned by `view`
//!   once per statement, in the plan, against what the rest of the FLWOR
//!   reads off `$v`'s rows: the row constructors in tail position of the
//!   body go through `Project` into the view element, without the cells
//!   nothing downstream names. The first operator whose plan depends on
//!   its *consumer*.
//! * `Aggregate` — BEA `group … by` over stage 3's `$inter` view, and the
//!   implicit group of aggregates without GROUP BY, recognized by
//!   `aggregate` once per statement, in the plan: one pass over the view
//!   body's tuples reads each row's keys and arguments into hash groups
//!   without building the row, and each group is a tuple for the
//!   `return`, its aggregates' values bound. See "The aggregate" below.
//! * `Rows` — stage 3's ORDER BY, DISTINCT and set-operation wrappers,
//!   `let $v := <RECORDSET>{ … }</RECORDSET>`s then `for $r in SRC [order
//!   by …] return $r`, recognized by `rows` once per statement, in the
//!   plan: the views' tuples are sorted, deduplicated or counted where
//!   they are, each tagged with the row constructor that would have built
//!   its row, and no view row is ever built. See "Sort and set operators"
//!   below.
//! * `Sink` — the last operator of a statement, recognized on the program
//!   body by `text_sink` and [`PhysicalPlan`]'s `recordset`, and run by
//!   [`run_sink`]. [`TextSink`] is the §4 wrapper `fn:string-join((let $q
//!   := V for $t in $q/RECORD return (piece, …)), "")`: each row goes
//!   straight into the payload string instead of through a call chain per
//!   cell and a sequence of every separator and value — from `V`'s tuples
//!   when `V` is a `Recordset`, a FLWOR's rows or a wrapper's (*fused*: no
//!   `<RECORDSET>`, `<RECORD>` or cell element is ever built), else from
//!   the `RECORD`s of the evaluated view. The XML sink is a body that is itself a `Recordset`, serialized
//!   while it is evaluated, byte for byte what `aldsp_xml::serialize` makes
//!   of the tree.
//!
//! [`PhysicalPlan::new`] plans a statement once, in one walk over its
//! program: per FLWOR that plans to anything a node (its pipeline, the
//! views of its `let`s, the operator that runs it whole, its `return`'s
//! projection), found by the FLWOR's address, and the body's sink. The
//! evaluator runs what the plan holds and asks no recognizer; under
//! [`ExecStrategy::NestedLoop`] the plan is empty. A plan holds nothing of
//! a run, so one plan runs its statement under any bindings.
//!
//! ## Lowering conditions
//!
//! [`plan`] lowers the longest prefix of `for`/`let`/`where` clauses
//! (group-by and order-by terminate it: a grouped FLWOR of stage 3's is the
//! aggregate's whole, and its `order by` wrappers are the rows operator's;
//! any other `order by` runs through the interpreter on the pipeline's
//! output). An expression is *stream-invariant* when
//! no free variable of it is bound by an earlier tuple-varying prefix
//! clause (`let`s whose values are themselves stream-invariant are fine —
//! the translator's let-bound `<RECORDSET>` views of paper Example 8
//! hang joins off exactly such variables). A `for` clause over a
//! stream-invariant source becomes a hash join when some later `where`
//! conjunct (conjuncts are `and`-flattened) is a general `=` whose one
//! side references this clause's variable and nothing else
//! tuple-varying, while the other side references at least one
//! tuple-varying earlier binding and nothing bound at or after this
//! clause. `let $m := SRC[(A = B) and rest…]` (one predicate, on a
//! filter or on a path's last step) becomes a probe-let when `SRC` is
//! stream-invariant and one side of the `=` reads the context item and
//! nothing tuple-varying while the other reads a tuple-varying binding
//! and not the context item. A `where` conjunct `L = R` becomes a
//! semi-join when `R` is stream-invariant and is a path over a
//! constructed element or `$v`/a path from `$v` for a stream-invariant
//! `let` of this prefix — not a literal, cast, sequence or external
//! variable, so point lookups and IN-lists keep the interpreter's path.
//!
//! Each conjunct keys at most one operator; leftovers stay residual
//! filters at their original position. Anything else — shadowed variable
//! names, value comparisons, `fn:not(..)`-wrapped or correlated shapes,
//! the anti-join `where fn:empty(SRC[..])`, NOT IN's `every` — declines,
//! and the FLWOR runs on the naive interpreter unchanged.
//!
//! A FLWOR's `return` lowers to a `Project` when it is an element
//! constructor without attributes whose content is only the two cell
//! shapes of `stage3::record_element`: `<N>{VALUE}</N>` (a NOT NULL
//! column: always one element, its atoms joined with a space) and `{ for
//! $s in VALUE return <N>{$s}</N> }` (a nullable one: an element per
//! atom). `VALUE = fn:data($v/CHILD)` is read without evaluating
//! anything; any other `VALUE` is the interpreter's, and its atoms go
//! through the same writer. A text sink fuses when `V` is an
//! attribute-less constructor around exactly one FLWOR whose `return`
//! lowers, `$q/RECORD` selects the projected rows, no two cells make one
//! column's elements and every cell is some column's (`resolve`, at
//! plan time).
//!
//! ## Views and their read-sets
//!
//! Stage 3 is compositional (paper §3.5): a GROUP BY's `$inter` or an
//! outer join's `$tempvar` view exposes every column of its FROM clause,
//! and the block above names two or three. For `let $v := <V>{ BODY }</V>`
//! (no attribute, one enclosed expression) `view` makes one pass over the
//! clauses after the `let` and the `return` (`ReadSet`, a
//! [`crate::visit::Visitor`]). *Row aliases* are variables whose items are
//! rows of the view: bound by `for` / `let` over `$v/ROW` (one name step,
//! no predicate, the same `ROW` at every use) or over an alias, or the
//! partition of `group $alias as $p`. An alias may start a path whose
//! first step is a name test — that name is *read* — be the argument of
//! `fn:count` / `fn:empty` / `fn:exists`, and be the source of another
//! alias; `$v/ROW/NAME…` reads `NAME`. Anything else that reaches a row or
//! the view — `return $r`, `$r/*`, `fn:string($r)`, a predicate on the row
//! step, `fn-bea:distinct-records($v/ROW)`, a binder that takes the name
//! of `$v` or of an alias — lets the rows *escape*, and nothing is pruned.
//!
//! `BODY` is lowered in *tail position* (`tail`): a row constructor
//! `project` recognizes, `if (C) then T else T`, a FLWOR whose `return`
//! is a tail, a sequence of tails, `()`. Any other tail and the `let` is
//! the interpreter's. A cell of a row constructor is *dead*, and dropped
//! from the plan, when the rows did not escape, the constructor's name is
//! what `$v/ROW` tests, no read name matches the cell's, and its value is
//! `fn:data($x/CHILD)` over an `$x` that a clause of `BODY` binds — it
//! cannot raise. A `Value::Expr` cell is always kept: an unread cell's
//! error must not go missing (the rule `resolve` follows for the fused
//! text sink). The plan is used whenever the tails lower, dead cells or
//! not; the read-set decides only what it keeps.
//!
//! `run_view` charges what `eval` charges for the nodes it steps through
//! (the constructor, each `if`, FLWOR and sequence) and the projection's
//! `1 + kept cells` per row, so fuel falls by the dead cells (and by what
//! an arm's `construct_element` cost over a projected row) and by nothing
//! else. A budget error propagates; after any other the `let` is
//! interpreted ([`aldsp_governor::QueryBudget::view_counts`] counts views
//! built, cells pruned, and views handed back), and inside a pipeline the
//! error abandons the pipeline first.
//!
//! ## The aggregate
//!
//! `gen_select_grouped` writes `let $inter := <V>{ BODY return <ROW>…</ROW>
//! }</V>`, then `for $r in $inter/ROW group $r as $P by K₁ as $g₁, …` or
//! (no GROUP BY) `let $P := $inter/ROW`, then `where H`s and `return R`.
//! [`aggregate`] plans `$inter` as a view, takes each key as a read
//! `CAST?(fn:data($r/CELL))` of the cell of `ROW` that makes `CELL`, and
//! binds every aggregate shape of `gen_aggregate` in `H` and `R` —
//! `fn:count($P)`, `F((for $a in $P return READ))` under
//! `fn:distinct-values` or not, SUM's empty guard — to a variable of the
//! group's, which the evaluator reads where it would have evaluated the
//! aggregate; nothing is cloned.
//! [`run_aggregate`] takes `BODY`'s tuples from `flwor_tuples` (the
//! pipeline's, where it lowers) and per tuple reads the keys and arguments
//! through the cell reader of the row constructor that would have built
//! the row ([`Tuple::each_value`]); [`AtomKey::group`] finds the group,
//! which keeps a row count and each argument's atoms in row order. Per
//! group each variable is what the interpreter's builtin ([`call_builtin`])
//! returns over those atoms, so promotion, overflow and error text stay the
//! interpreter's. It declines — the interpreter runs the FLWOR — when
//! `$P`, `$r` or `$inter` is free outside the aggregates, a key or
//! argument is no read of a cell of the row variable, a read names two
//! cells, or `$inter` has a cell that is evaluated (an unread cell's error
//! must not go missing). Fuel: one unit and the reads' nodes per row, one
//! per group, and what `H` and the consumer's projection of `R` charge;
//! the row cap holds the rows.
//!
//! ## Sort and set operators
//!
//! `gen_query` wraps ORDER BY, `gen_select` DISTINCT and `gen_setop` every
//! set operation around materialized `<RECORDSET>`s: `let $v := <V>{ BODY
//! }</V>`s, then `for $r in SRC [order by K…] return $r`, where `SRC` is
//! `$v/ROW`, UNION ALL's `($a/ROW, $b/ROW)`, `fn-bea:distinct-records` of
//! either, or `fn-bea:intersect-all-records` / `fn-bea:except-all-records`
//! of `$a/ROW, $b/ROW`. [`rows`] plans the wrapper; [`run_rows`] takes each
//! operand's tuples from `flwor_tuples` — `BODY`'s pipeline, the aggregate,
//! or a nested wrapper such as DISTINCT under ORDER BY — as *handles*: the
//! tuple, and the branch whose row constructor's [`Project`] makes its row.
//! `gen_setop`'s renaming view, `for $y in $w/ROW return <ROW>{fn:data($y/C)}
//! …</ROW>`, is no branch of its own: each of `$w`'s branches, its cells
//! read through the source's ([`renamed`]). DISTINCT, INTERSECT ALL and
//! EXCEPT ALL key each row by exactly the string the builtins'
//! [`record_key`] writes, off the cell reads the projection makes: DISTINCT
//! keeps first occurrences in branch order, the other two take their
//! multiplicities from counts over the right operand. ORDER BY is a stable
//! sort on keys `CAST?(fn:data?($r/CELL))` read off every cell of the name
//! — as `$r/CELL` reads the built row — and compared by the interpreter's
//! `order_cmp`: ties keep input order, NULL sorts least unless `empty
//! greatest`, `descending` reverses each key. The surviving handles go, in
//! order, to the consumer, which projects each through its branch
//! ([`Tuples`]): the tree consumer, a view's tail plan, and both sinks, so
//! a sorted or set-operated statement fuses like any other.
//!
//! It declines — the interpreter runs the FLWOR — when a view is not read
//! exactly once (as an operand, or by the one rename over it), a key is
//! no cell read of `$r`, a `let` is no view or a body reads another view, a
//! rename reads anything but one cell per cell or leaves an evaluated
//! source cell unread, a rename is over a rename or a nested wrapper, or a
//! row constructor is not one `ROW` selects. INTERSECT and EXCEPT without
//! ALL filter with a `where` (`some … satisfies`): they are not asked.
//! **Fuel:** per view its constructor and FLWOR, as [`run_view`] charges
//! them; `SRC`'s nodes; per surviving row one unit for the `for $r` binding
//! and the keys' nodes. The row cap holds the surviving rows, as it held
//! the `for $r` tuples. A key of several values, a failing cast or any other
//! error that is not a budget's abandons the wrapper to the interpreter;
//! so does an error in projecting its rows, the whole FLWOR re-run.
//!
//! ## Hash as prefilter, `compare` as judge
//!
//! XQuery general-comparison equality is *not* transitive —
//! `xs:untypedAtomic("5")` equals both `5` and `"5"`, which differ from
//! each other — so no single hash key can partition atoms into equality
//! classes. Instead every atom is inserted into a bucket per *projection*
//! it could match through (its numeric magnitude, its raw text, its
//! trimmed text when that differs, its boolean reading), the probe gathers
//! candidates through its own projections, and every candidate pair is
//! verified with the real [`Atomic::compare`]. A bucket is keyed by the
//! projection's hash, taken over text borrowed from the atom, so neither
//! a build row nor a probe allocates a key. The projections are complete
//! (two atoms that compare equal always share a hash — see the pairwise
//! test below) but deliberately over-inclusive, and so is a hash: two
//! projections that collide share a bucket, which adds candidates and
//! nothing else. Verification keeps the join exactly as selective as the
//! interpreter's existential `=`. An empty key sequence projects nothing
//! and probes nothing: SQL NULL never joins.
//!
//! ## Ordering, errors, budgets
//!
//! Output order is the interpreter's: probe-major, with each probe
//! tuple's matches emitted (or let-bound) in build-source order
//! (candidate indices are sorted and deduplicated across projections).
//! Any dynamic error inside the pipeline abandons it and the caller
//! re-runs the FLWOR naively — the pipeline evaluates the same pure
//! expressions, possibly in a different order or for fewer tuples, so the
//! naive outcome is authoritative (budget violations propagate
//! immediately instead; they are not outcomes to reproduce but limits
//! already hit). Fuel is charged through the same
//! [`aldsp_governor::QueryBudget`] hooks — one unit per scan binding, per
//! build row, and per joined or let-bound match — and the row cap bounds
//! what the pipeline actually materializes: the build tables and the
//! output vector. A build table found on the function source charges the
//! statement what keying its rows would have (per entry one unit and the
//! key's nodes, then the row-cap check): a budget bounds a statement's
//! logical work, whoever ran before it. The
//! projection and the sinks obey the same rules: `1 + cells` units per
//! projected row (a text sink's `1 + pieces` on top, or
//! alone per `RECORD` of an evaluated view) charged before the row is
//! written, the row cap on the rows of a delimited payload (what the
//! wrapper's `for $t` would hold as tuples), and any error but a budget's
//! sends the FLWOR's `return` — for a sink, the whole body — back to the
//! interpreter. A cell value that holds a node is no error: that row alone
//! is built by the interpreter and written as a built row.

use crate::ast::{
    Clause, CompOp, Content, ElementCtor, Expr, Flwor, NodeTest, OrderSpec, PathStart, Program,
    Step,
};
use crate::eval::{each_step_child, name_matches, order_cmp, Env, Evaluator, XqError};
use crate::functions::{call_builtin, data, is_builtin, record_key};
use crate::visit::{
    each_expr, free_vars, free_vars_except, uses_context, walk_clause, walk_expr, walk_flwor,
    Visitor,
};
use aldsp_governor::{ExecStrategy, Lowering};
use aldsp_xml::serialize::{
    write_element, write_empty_tag, write_end_tag, write_start_tag, write_text,
};
use aldsp_xml::{Atomic, Element, ElementRef, Item, Node, QName, Sequence, XsType};
use std::cmp::Ordering;
use std::collections::hash_map::RandomState;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::hash::BuildHasher;
use std::sync::Arc;

// ---------------------------------------------------------------------
// Keys: a group's AtomKey, a join bucket's projection hashes
// ---------------------------------------------------------------------

/// A hashable canonical form of one atomized key value: what the group-by
/// partitioner, the aggregate operator and `fn:distinct-values` group by
/// (the partitioner formerly concatenated `String` keys with
/// control-character delimiters — an allocation per tuple and a collision
/// hazard when key values contain the delimiter; a `Vec<AtomKey>` map key
/// has neither problem).
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

/// The bits of [`AtomKey::Num`], which a join's numeric projection hashes
/// too.
fn num_bits(d: f64) -> u64 {
    let d = if d == 0.0 { 0.0 } else { d };
    if d.is_nan() {
        f64::NAN.to_bits()
    } else {
        d.to_bits()
    }
}

impl AtomKey {
    /// The canonical grouping key of one atomic: numeric types of equal
    /// magnitude collapse, untyped keys group as strings.
    pub fn group(a: &Atomic) -> AtomKey {
        match a {
            Atomic::Integer(i) => AtomKey::Num(num_bits(*i as f64)),
            Atomic::Decimal(d) | Atomic::Double(d) => AtomKey::Num(num_bits(*d)),
            Atomic::String(s) | Atomic::Untyped(s) => AtomKey::Str(s.clone()),
            Atomic::Boolean(b) => AtomKey::Bool(*b),
            Atomic::Date(d) => AtomKey::Date(d.clone()),
        }
    }
}

/// One reading of a join key atom, borrowed from it: what a join table's
/// bucket is the hash of ([`join_projections`]).
#[derive(Hash)]
enum Projection<'a> {
    /// A numeric magnitude, as [`num_bits`].
    Num(u64),
    /// Text: a string's, an untyped atom's raw or trimmed, a date's.
    Str(&'a str),
    /// A boolean reading.
    Bool(bool),
}

/// Pushes onto `out` the hash, under `hasher`, of every projection by
/// which `a` could share a bucket with an atom it compares equal to under
/// [`Atomic::compare`]'s general-comparison rules. Typed atoms have one
/// projection; untyped text projects into every type it can be coerced to
/// (numeric via `f64` parse, boolean via the `xs:boolean` lexical forms,
/// and its trimmed text when trimming changes it — date casts trim). Dates
/// project as their text because date-vs-string comparison is lexical.
fn join_projections(a: &Atomic, hasher: &RandomState, out: &mut Vec<u64>) {
    let mut push = |projection: Projection<'_>| out.push(hasher.hash_one(projection));
    match a {
        Atomic::Integer(i) => push(Projection::Num(num_bits(*i as f64))),
        Atomic::Decimal(d) | Atomic::Double(d) => push(Projection::Num(num_bits(*d))),
        Atomic::Boolean(b) => push(Projection::Bool(*b)),
        Atomic::String(s) | Atomic::Date(s) => push(Projection::Str(s)),
        Atomic::Untyped(s) => {
            push(Projection::Str(s));
            let trimmed = s.trim();
            if let Ok(v) = trimmed.parse::<f64>() {
                push(Projection::Num(num_bits(v)));
            }
            match trimmed {
                "true" | "1" => push(Projection::Bool(true)),
                "false" | "0" => push(Projection::Bool(false)),
                _ => {}
            }
            if trimmed != s {
                push(Projection::Str(trimmed));
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
        /// The value as a planned view, when it is one ([`view`]).
        view: Option<View<'p>>,
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
        /// The build side as a function source's join index, when it is
        /// one ([`Indexed`]).
        index: Option<Indexed<'p>>,
    },
    /// Probe-let replacing `let $var := SRC[(A = B) and rest…]` — the
    /// matched arm of an outer join (paper Example 10).
    ProbeLet {
        /// The `let` variable, bound to the matches in source order.
        var: &'p str,
        /// `SRC`: stream-invariant; the path itself, its last step read
        /// without the predicate, when `cut`.
        source: &'p Expr,
        cut: bool,
        /// The side of the `=` over earlier bindings.
        probe_key: &'p Expr,
        /// The side of the `=` over the context item.
        build_key: &'p Expr,
        /// The predicate's other conjuncts, checked per hashed match.
        rest: Vec<&'p Expr>,
        /// As [`Op::HashJoin`]'s.
        index: Option<Indexed<'p>>,
    },
    /// Semi-join filter replacing the `where` conjunct `L = R` with a
    /// stream-invariant view on the right — `IN (SELECT …)`.
    SemiJoin {
        /// `L`, evaluated per tuple.
        probe_key: &'p Expr,
        /// `R`, evaluated once; every atom of it is a build row.
        source: &'p Expr,
    },
}

/// A lowered FLWOR prefix.
pub(crate) struct Plan<'p> {
    /// Operators in clause order.
    pub ops: Vec<Op<'p>>,
    /// How many leading clauses of the FLWOR the pipeline covers; the
    /// interpreter resumes with the remainder (group-by / order-by).
    pub consumed: usize,
    /// How many hash operators ([`Op::HashJoin`], [`Op::ProbeLet`],
    /// [`Op::SemiJoin`]) the plan contains; never zero.
    pub joins: usize,
}

/// An *indexable* build side: every row of a zero-argument data-service
/// function, keyed by the atoms of one child. The table over it depends on
/// nothing of the statement but the rows its call returned, so the
/// evaluator asks the function source for it
/// ([`crate::FunctionSource::join_index`]), and a source that hands out the
/// same rows statement after statement builds it once per epoch of its
/// data instead of once per statement.
pub(crate) struct Indexed<'p> {
    /// The function's local name (`ORDERS` of `ns1:ORDERS`).
    pub function: &'p str,
    /// The child whose atoms key a row.
    pub child: &'p str,
    /// What [`build_table`] charges per row: one unit for the entry, and
    /// one per node of the key expression.
    row_fuel: u64,
}

/// Recognizes an indexable build side (see [`Indexed`]): `source` is a
/// call of a data-service function without arguments; `key` is
/// `ROW/NAME` or `fn:data(ROW/NAME)`, one name step without predicate,
/// where `ROW` is the build variable `var` or, for a probe-let (`None`),
/// the context item. Both modes key a row by the atoms of its `NAME`
/// children, so they share one index.
fn indexed<'p>(source: &'p Expr, key: &'p Expr, var: Option<&str>) -> Option<Indexed<'p>> {
    let Expr::FunctionCall { name, args } = source else {
        return None;
    };
    let (row, child) = one_step(call_of(key, "fn:data").unwrap_or(key))?;
    let keys_the_row = match (row, var) {
        (PathStart::Var(v), Some(var)) => v == var,
        (PathStart::Context, None) => true,
        _ => false,
    };
    // The evaluator charges one unit per expression it evaluates, and a
    // key of this shape has no node evaluated more or less than once.
    let mut row_fuel = 1;
    each_expr(key, &mut |_| row_fuel += 1);
    (keys_the_row && args.is_empty() && !is_builtin(name)).then_some(Indexed {
        function: name.split_once(':').map_or(name, |(_, local)| local),
        child,
        row_fuel,
    })
}

/// The `for`/`let`/`where` clauses a pipeline can cover: everything
/// before the first group-by or order-by.
fn prefix_of(flwor: &Flwor) -> &[Clause] {
    let len = flwor
        .clauses
        .iter()
        .take_while(|c| {
            matches!(
                c,
                Clause::For { .. } | Clause::Let { .. } | Clause::Where(_)
            )
        })
        .count();
    &flwor.clauses[..len]
}

/// Plans the streamable prefix of `flwor` (see the module docs for the
/// conditions): `None` when the prefix holds nothing a hash operator could
/// come from — a second `for`, a `let` over a filter, or a `where` conjunct
/// equating something with a view — and `Some(None)` when it does but
/// nothing qualifies, which [`aldsp_governor::GovernorStats`] counts as a
/// fallback, so the fast-path fraction is over hashable shapes rather than
/// all FLWORs. The translator's many single-`for` FLWORs (`for $v in
/// fn:data(..) return <COL>`) are answered by the first, allocation-free
/// pass.
fn plan(flwor: &Flwor) -> Option<Option<Plan<'_>>> {
    let prefix = prefix_of(flwor);
    let let_bound = |v: &str| {
        prefix
            .iter()
            .any(|c| matches!(c, Clause::Let { var, .. } if var == v))
    };
    let mut fors = 0;
    let shaped = prefix.iter().any(|clause| match clause {
        Clause::For { .. } => {
            fors += 1;
            fors == 2
        }
        Clause::Let { value, .. } => filter_predicate(value).is_some(),
        Clause::Where(pred) => any_conjunct(pred, &mut |e| match e {
            Expr::GeneralComp {
                op: CompOp::Eq,
                right,
                ..
            } => is_view(right, let_bound),
            _ => false,
        }),
        Clause::GroupBy(_) | Clause::OrderBy(_) => false,
    });
    shaped.then(|| pipeline(flwor, prefix))
}

fn pipeline<'p>(flwor: &'p Flwor, prefix: &'p [Clause]) -> Option<Plan<'p>> {
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
    let mut bound_before: Vec<HashSet<&str>> = Vec::with_capacity(prefix.len());
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
                unreachable!("prefix_of excludes group-by/order-by")
            }
        }
    }
    // Whether `$v`, read at clause `k`, can differ from tuple to tuple.
    let varying = |k: usize, v: &str| bound_before[k].contains(v) && !constants.contains(v);

    // And-flattened where conjuncts, tagged with their clause position.
    let mut conjuncts: Vec<(usize, &Expr, bool)> = Vec::new();
    for (i, clause) in prefix.iter().enumerate() {
        if let Clause::Where(pred) = clause {
            any_conjunct(pred, &mut |e| {
                conjuncts.push((i, e, false));
                false
            });
        }
    }

    // Assign each joinable `for` clause the first usable conjunct.
    let mut joins: HashMap<usize, (usize, bool)> = HashMap::new();
    for (k, clause) in prefix.iter().enumerate() {
        let Clause::For { var, source } = clause else {
            continue;
        };
        if !invariant(source, &|v| varying(k, v)) {
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
                }) && frees.iter().any(|v| varying(k, v))
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

    let mut hash_ops = joins.len();
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
                        index: indexed(source, build_key, Some(var)),
                    });
                }
                None => ops.push(Op::For { var, source }),
            },
            Clause::Let { var, value } => match probe_let(var, value, &|v| varying(i, v)) {
                Some(op) => {
                    hash_ops += 1;
                    ops.push(op);
                }
                None => ops.push(Op::Let {
                    var,
                    value,
                    view: view(flwor, i),
                }),
            },
            Clause::Where(_) => {
                // A view variable is a `let` of this prefix that holds
                // the same value on every tuple.
                let view_var = |v: &str| bound_before[i].contains(v) && constants.contains(v);
                for &(w, e, used) in &conjuncts {
                    if w != i || used {
                        continue;
                    }
                    match e {
                        Expr::GeneralComp {
                            op: CompOp::Eq,
                            left,
                            right,
                        } if is_view(right, view_var) && invariant(right, &|v| varying(i, v)) => {
                            hash_ops += 1;
                            ops.push(Op::SemiJoin {
                                probe_key: left,
                                source: right,
                            });
                        }
                        _ => ops.push(Op::Filter(e)),
                    }
                }
            }
            Clause::GroupBy(_) | Clause::OrderBy(_) => {
                unreachable!("prefix_of excludes group-by/order-by")
            }
        }
    }
    (hash_ops > 0).then_some(Plan {
        ops,
        consumed: prefix.len(),
        joins: hash_ops,
    })
}

// ---------------------------------------------------------------------
// Invariant sources
// ---------------------------------------------------------------------

/// The sources of `flwor` that have one value over an evaluation of it,
/// by address: a `for` source past the first clause, or the source of a
/// quantifier inside a `where`, ahead of the first `group by`, that is
/// worth keeping ([`is_expensive`]), does not read the context item and
/// reads no variable bound by the FLWOR or by a binder between the FLWOR
/// and the source (a nested FLWOR's clause, an enclosing quantifier). The
/// evaluator evaluates each on the first tuple that asks for it and reads
/// the value back for every later one, so a FLWOR whose stream is empty
/// never evaluates it, and one that reads an outer FLWOR's variable is
/// evaluated again in each evaluation of its own FLWOR.
fn invariant_sources(flwor: &Flwor) -> Vec<usize> {
    struct Sources<'p> {
        bound: Vec<&'p str>,
        found: Vec<usize>,
    }
    impl<'p> Sources<'p> {
        fn offer(&mut self, source: &'p Expr) {
            let bound = |v: &str| self.bound.contains(&v);
            if is_expensive(source) && !uses_context(source) && invariant(source, &bound) {
                self.found.push(address(source));
            }
        }
    }
    impl<'p> Visitor<'p> for Sources<'p> {
        fn visit_expr(&mut self, expr: &'p Expr) {
            let depth = self.bound.len();
            // Pushed before the source is walked, which cannot read it: a
            // nested source that reads an outer name it shadows declines.
            if let Expr::Quantified { var, source, .. } = expr {
                self.offer(source);
                self.bound.push(var);
            }
            walk_expr(self, expr);
            self.bound.truncate(depth);
        }
        fn visit_clause(&mut self, clause: &'p Clause) {
            walk_clause(self, clause);
            self.bound.extend(binders(clause));
        }
    }
    let (bound, found) = (Vec::new(), Vec::new());
    let mut sources = Sources { bound, found };
    for (at, clause) in flwor.clauses.iter().enumerate() {
        match clause {
            Clause::For { source, .. } if at > 0 => sources.offer(source),
            Clause::Where(predicate) => sources.visit_expr(predicate),
            Clause::GroupBy(_) => break,
            _ => {}
        }
        sources.bound.extend(binders(clause));
    }
    sources.found
}

/// The variables `clause` binds.
fn binders(clause: &Clause) -> Vec<&str> {
    match clause {
        Clause::For { var, .. } | Clause::Let { var, .. } => vec![var],
        Clause::GroupBy(group) => {
            let keys = group.keys.iter().map(|(_, var)| &**var);
            keys.chain([&*group.partition_var]).collect()
        }
        Clause::Where(_) | Clause::OrderBy(_) => Vec::new(),
    }
}

/// Whether evaluating `expr` again is worth avoiding: it holds a FLWOR, a
/// filter or a function call (a data-service scan, or a builtin over one).
/// Variables, literals and plain paths from a variable are not.
fn is_expensive(expr: &Expr) -> bool {
    let mut expensive = false;
    each_expr(expr, &mut |e| match e {
        Expr::Flwor(_) | Expr::Filter { .. } | Expr::FunctionCall { .. } => expensive = true,
        _ => {}
    });
    expensive
}

/// Calls `f` on each conjunct of an `and` tree, left to right, until one
/// answers true.
fn any_conjunct<'p>(expr: &'p Expr, f: &mut impl FnMut(&'p Expr) -> bool) -> bool {
    match expr {
        Expr::And(a, b) => any_conjunct(a, f) || any_conjunct(b, f),
        other => f(other),
    }
}

/// No free variable of `expr` differs from tuple to tuple.
fn invariant(expr: &Expr, varying: &dyn Fn(&str) -> bool) -> bool {
    free_vars(expr).iter().all(|v| !varying(v))
}

/// What a semi-join may build from: a path over a constructed view, or
/// `$v` / a path from `$v` for a view variable. Literals, casts,
/// sequences and other variables (`$sqlParam1`) are not views: a point
/// lookup or an IN-list has nothing worth hashing.
fn is_view(expr: &Expr, view_var: impl Fn(&str) -> bool) -> bool {
    match expr {
        Expr::VarRef(v) => view_var(v),
        Expr::Path { start, .. } => match &**start {
            PathStart::Var(v) => view_var(v),
            PathStart::Expr(e) => matches!(e, Expr::Element(_)),
            PathStart::Context => false,
        },
        _ => false,
    }
}

/// The predicate of `SRC[pred]`: a filter over any primary, or a path
/// whose last step carries the predicate (`$view/RECORD[pred]`; the
/// evaluator filters a step's whole result, so the two mean the same).
/// More than one predicate declines: the second would see positions in
/// the first one's output.
fn filter_predicate(value: &Expr) -> Option<&Expr> {
    let predicates = match value {
        Expr::Filter { predicates, .. } => predicates,
        Expr::Path { steps, .. } => &steps.last()?.predicates,
        _ => return None,
    };
    match predicates.as_slice() {
        [predicate] => Some(predicate),
        _ => None,
    }
}

/// Lowers `let $var := SRC[(A = B) and rest…]` when `SRC` is
/// stream-invariant and some `=` conjunct has one side over the context
/// item only and the other over tuple-varying bindings only. A predicate
/// with such a conjunct is an `and` tree or a comparison, so it is never
/// positional.
fn probe_let<'p>(var: &'p str, value: &'p Expr, varying: &dyn Fn(&str) -> bool) -> Option<Op<'p>> {
    let predicate = filter_predicate(value)?;
    let (source, cut) = match value {
        Expr::Filter { base, .. } => (&**base, false),
        _ => (value, true),
    };
    let frees = free_vars_except(source, &mut |e| std::ptr::eq(e, predicate));
    if frees.iter().any(|v| varying(v)) {
        return None;
    }
    let mut rest = Vec::new();
    any_conjunct(predicate, &mut |e| {
        rest.push(e);
        false
    });
    let probes = |e: &Expr| !uses_context(e) && free_vars(e).iter().any(|v| varying(v));
    let builds = |e: &Expr| uses_context(e) && invariant(e, varying);
    let (at, probe_key, build_key) = rest.iter().enumerate().find_map(|(at, e)| {
        let Expr::GeneralComp {
            op: CompOp::Eq,
            left,
            right,
        } = e
        else {
            return None;
        };
        if probes(left) && builds(right) {
            Some((at, &**left, &**right))
        } else if probes(right) && builds(left) {
            Some((at, &**right, &**left))
        } else {
            None
        }
    })?;
    rest.remove(at);
    // Only a filter's base can be the call itself; a cut-out path has a
    // step.
    let index = (!cut).then(|| indexed(source, build_key, None));
    Some(Op::ProbeLet {
        var,
        source,
        cut,
        probe_key,
        build_key,
        rest,
        index: index.flatten(),
    })
}

// ---------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------

/// A materialized build side: items in source order, each with its
/// atomized key, plus the buckets over them, keyed by the hash of each
/// projection of a key (`join_projections`) under the bucket map's own
/// hasher — random per table, fixed for its life, so no key set can be
/// written to collide and a kept table hashes a later probe as it hashed
/// its rows. Opaque outside this module: a [`crate::FunctionSource`] that
/// keeps join indexes holds it as it was handed it.
pub struct JoinTable {
    entries: Vec<(Item, Vec<Atomic>)>,
    buckets: HashMap<u64, Vec<usize>>,
}

/// One operator's state over a run: a hash operator's table — its own, or
/// the function source's ([`Indexed`]) — and the buffers its probes reuse.
#[derive(Default)]
struct Slot {
    table: Option<Arc<JoinTable>>,
    candidates: Vec<usize>,
    projections: Vec<u64>,
}

/// Runs the pipeline over the incoming environment, returning the
/// surviving tuple environments in interpreter order. Budget errors
/// propagate; any other error means the caller must re-run the FLWOR
/// naively (see the module docs).
pub(crate) fn run<'a>(
    ev: &Evaluator<'a>,
    plan: &Plan<'a>,
    env: &Env<'a>,
    context: Option<&Item>,
) -> Result<Vec<Env<'a>>, XqError> {
    let mut slots: Vec<Slot> = Vec::new();
    slots.resize_with(plan.ops.len(), Slot::default);
    let mut out = Vec::new();
    drive(ev, &plan.ops, &mut slots, env, context, &mut out)?;
    Ok(out)
}

/// Sends the tuple `env` through `ops`, whose states are `slots`.
fn drive<'a>(
    ev: &Evaluator<'a>,
    ops: &[Op<'a>],
    slots: &mut [Slot],
    env: &Env<'a>,
    context: Option<&Item>,
    out: &mut Vec<Env<'a>>,
) -> Result<(), XqError> {
    let (Some((op, ops)), Some((slot, slots))) = (ops.split_first(), slots.split_first_mut())
    else {
        out.push(env.clone());
        return ev.check_rows(out.len());
    };
    match op {
        Op::For { var, source } => {
            let seq = ev.source(source, env, context)?;
            for item in seq {
                ev.charge(1)?;
                let next = env.bind(var, Sequence::singleton(item));
                drive(ev, ops, slots, &next, context, out)?;
            }
        }
        Op::Let { var, value, view } => {
            // A view's error abandons the pipeline like any other; the
            // clause loop that re-runs the FLWOR interprets this `let`.
            let value = match view {
                Some(view) => run_view(ev, view, env, context)?,
                None => ev.eval(value, env, context)?,
            };
            let next = env.bind(var, value);
            drive(ev, ops, slots, &next, context, out)?;
        }
        Op::Filter(predicate) => {
            if ev.eval(predicate, env, context)?.effective_boolean() {
                drive(ev, ops, slots, env, context, out)?;
            }
        }
        Op::HashJoin {
            var,
            source,
            probe_key,
            build_key,
            index,
        } => {
            // Built on first arrival: the source and build key are
            // stream-invariant, so this tuple's environment values them
            // identically to every other tuple's.
            let rows = || ev.eval(source, env, context);
            slot.build(ev, index.as_ref(), rows, |item| {
                let bound = env.bind(var, Sequence::singleton(item.clone()));
                ev.eval(build_key, &bound, context)
            })?;
            let (table, matched) = slot.probe(&data(&ev.eval(probe_key, env, context)?));
            for &idx in matched {
                ev.charge(1)?;
                let next = env.bind(var, Sequence::singleton(table.entries[idx].0.clone()));
                drive(ev, ops, slots, &next, context, out)?;
            }
        }
        Op::ProbeLet {
            var,
            source,
            cut,
            probe_key,
            build_key,
            rest,
            index,
        } => {
            // The build key reads each item as its context, the way the
            // predicate it came from did.
            let rows = || match source {
                Expr::Path { start, steps } if *cut => {
                    ev.charge(1)?;
                    ev.path(start, steps, env, context, false)
                }
                _ => ev.eval(source, env, context),
            };
            slot.build(ev, index.as_ref(), rows, |item| {
                ev.eval(build_key, env, Some(item))
            })?;
            let (table, candidates) = slot.probe(&data(&ev.eval(probe_key, env, context)?));
            let mut matched = Sequence::empty();
            'candidates: for &idx in candidates {
                let item = &table.entries[idx].0;
                // The predicate's other conjuncts, left to right and
                // short-circuiting like the `and` they were cut from.
                for conjunct in rest {
                    if !ev.eval(conjunct, env, Some(item))?.effective_boolean() {
                        continue 'candidates;
                    }
                }
                ev.charge(1)?;
                matched.push(item.clone());
            }
            let next = env.bind(var, matched);
            drive(ev, ops, slots, &next, context, out)?;
        }
        Op::SemiJoin { probe_key, source } => {
            // Every atom of the view is a build row and its own key.
            let atoms = || Ok(data(&ev.eval(source, env, context)?));
            slot.build(ev, None, atoms, |atom| {
                Ok(Sequence::singleton(atom.clone()))
            })?;
            let (_, matched) = slot.probe(&data(&ev.eval(probe_key, env, context)?));
            if !matched.is_empty() {
                drive(ev, ops, slots, env, context, out)?;
            }
        }
    }
    Ok(())
}

impl Slot {
    /// Obtains the table over `rows` keyed by `key` on first use: a dead
    /// stream evaluates neither. An indexable build side goes through the
    /// function source, which may answer with the table an earlier
    /// statement built over the same rows; any other is this run's own.
    fn build(
        &mut self,
        ev: &Evaluator<'_>,
        index: Option<&Indexed<'_>>,
        rows: impl FnOnce() -> Result<Sequence, XqError>,
        key: impl Fn(&Item) -> Result<Sequence, XqError>,
    ) -> Result<(), XqError> {
        if self.table.is_some() {
            return Ok(());
        }
        let rows = rows()?;
        self.table = Some(match index {
            Some(index) => {
                let build = || build_table(ev, rows.clone(), &key);
                let (table, found) = ev.join_index(index, &rows, &build)?;
                if found {
                    // A statement is charged for its logical work, whoever
                    // ran before it: row for row what `build_table` would
                    // have, so the same budget fails at the same row.
                    for row in 1..=table.entries.len() {
                        ev.charge(index.row_fuel)?;
                        ev.check_rows(row)?;
                    }
                }
                table
            }
            None => Arc::new(build_table(ev, rows, key)?),
        });
        Ok(())
    }

    /// The table, and the build rows some atom of `probe` equals as indices
    /// in source order: candidates come from the projection buckets, and
    /// every one is verified with [`Atomic::compare`]. An empty key gathers
    /// nothing. The buffers are kept across the operator's probes.
    fn probe(&mut self, probe: &Sequence) -> (&JoinTable, &[usize]) {
        let Slot {
            table,
            candidates,
            projections,
        } = self;
        let table: &JoinTable = table.as_ref().expect("built before it is probed");
        candidates.clear();
        for item in probe.iter() {
            let Item::Atomic(a) = item else { continue };
            projections.clear();
            join_projections(a, table.buckets.hasher(), projections);
            for hash in projections.iter() {
                if let Some(bucket) = table.buckets.get(hash) {
                    candidates.extend(bucket);
                }
            }
        }
        candidates.sort_unstable();
        candidates.dedup();
        candidates.retain(|&idx| {
            let (_, build_atoms) = &table.entries[idx];
            probe.iter().any(|p| {
                let Item::Atomic(p) = p else { return false };
                build_atoms
                    .iter()
                    .any(|b| p.compare(b) == Some(Ordering::Equal))
            })
        });
        (table, candidates)
    }
}

/// Materializes a build side from `items`, keying each by `key`. One fuel
/// unit per row, like a `for` expansion, and the table stays under the
/// row cap.
fn build_table(
    ev: &Evaluator<'_>,
    items: Sequence,
    key: impl Fn(&Item) -> Result<Sequence, XqError>,
) -> Result<JoinTable, XqError> {
    let mut table = JoinTable {
        entries: Vec::new(),
        buckets: HashMap::new(),
    };
    let mut projections = Vec::new();
    for item in items {
        ev.charge(1)?;
        let keyed = data(&key(&item)?);
        let idx = table.entries.len();
        let mut atoms = Vec::new();
        for key_item in keyed {
            let Item::Atomic(a) = key_item else { continue };
            projections.clear();
            join_projections(&a, table.buckets.hasher(), &mut projections);
            for hash in projections.drain(..) {
                let bucket = table.buckets.entry(hash).or_default();
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

// ---------------------------------------------------------------------
// Project: `return <RECORD>…</RECORD>` as an operator
// ---------------------------------------------------------------------

/// The constructor `aldsp_core::stage3`'s `gen_record` emits as a FLWOR's
/// `return`, lowered: an element without attributes whose content is only
/// the two cell shapes of `record_element`. Recognized by [`project`], run
/// by [`project_rows`] into one of three [`Output`]s. Borrows the
/// expression it was recognized in.
#[derive(Clone)]
pub(crate) struct Project<'p> {
    /// The constructor itself: what the interpreter builds of a row the
    /// operator hands back.
    ctor: &'p ElementCtor,
    /// Its name, parsed once.
    name: QName,
    cells: Vec<Cell<'p>>,
    /// A rename's ([`renamed`]): `ctor` reads, as `$var`, the row its
    /// source constructor builds of the tuple.
    source: Option<(&'p str, &'p ElementCtor)>,
    /// Per piece of the statement's text sink, the cell that makes the
    /// column's elements ([`resolve`]; a column none does is always NULL),
    /// where the columns resolve: the sink writes the rows straight off the
    /// cells then, and builds them otherwise.
    text: Option<Vec<Option<usize>>>,
}

#[derive(Clone)]
struct Cell<'p> {
    name: QName,
    /// `{ for $s in VALUE return <N>{$s}</N> }`: an element per atom of
    /// `VALUE`, none for the empty sequence (SQL NULL). Otherwise
    /// `<N>{VALUE}</N>`: always one element, the atoms joined with a space.
    nullable: bool,
    /// A rename's read of a NOT NULL source cell: `VALUE`'s values are the
    /// one element's, joined with a space — one value, whatever it holds.
    joined: bool,
    value: Value<'p>,
}

/// A cell's `VALUE`.
#[derive(Clone, Copy)]
enum Value<'p> {
    /// `fn:data($var/CHILD)` — one name step, no predicate: read off the
    /// bound elements' children, no expression evaluated.
    Child { var: &'p str, child: &'p str },
    /// Anything else: the interpreter's, and every item must be an atom.
    Expr(&'p Expr),
}

/// One value of a cell, before it is text.
enum CellValue<'a> {
    /// A matched source cell; its value is its string value.
    Node(ElementRef<'a>),
    /// An evaluated atom; its value is its lexical form.
    Atom(&'a Atomic),
}

impl CellValue<'_> {
    /// Appends the value as escaped text.
    fn write_escaped(&self, out: &mut String) {
        match self {
            CellValue::Node(cell) => cell.each_text(&mut |text| write_text(out, text)),
            CellValue::Atom(atom) => write_text(out, &atom.lexical_str()),
        }
    }

    /// Appends the value as it is.
    fn write(&self, out: &mut String) {
        match self {
            CellValue::Node(cell) => cell.each_text(&mut |text| out.push_str(text)),
            CellValue::Atom(atom) => out.push_str(&atom.lexical_str()),
        }
    }

    /// The value as a text node's content; a source cell that is one text
    /// node shares it.
    fn text(&self) -> Arc<str> {
        match self {
            CellValue::Node(cell) => match cell.text() {
                Some(text) => Arc::clone(text),
                None => cell.string_value().into(),
            },
            CellValue::Atom(atom) => atom.lexical_str().into(),
        }
    }
}

/// Why a projected row stopped.
enum Halt {
    /// A value held a node, which a constructor copies in as a child: the
    /// row is the interpreter's to build.
    Interpret,
    /// A dynamic or budget error, for [`crate::eval::interpret_on_error`].
    Error(XqError),
}

impl From<XqError> for Halt {
    fn from(e: XqError) -> Halt {
        Halt::Error(e)
    }
}

impl Halt {
    /// The error of a read that has no row to hand back: a value that holds
    /// a node is one, as only the built row would show it.
    fn into_error(self) -> XqError {
        match self {
            Halt::Error(e) => e,
            Halt::Interpret => XqError::new("a cell's value holds a node"),
        }
    }
}

/// The sole enclosed expression of an attribute-less constructor: the
/// `VALUE` of `<N>{VALUE}</N>`.
fn sole_enclosed(ctor: &ElementCtor) -> Option<&Expr> {
    match ctor.content.as_slice() {
        [Content::Enclosed(value)] if ctor.attributes.is_empty() => Some(value),
        _ => None,
    }
}

/// The two shapes `record_element` writes, as `(name, nullable, VALUE)`.
fn cell_shape(content: &Content) -> Option<(&str, bool, &Expr)> {
    match content {
        Content::Element(cell) => Some((&cell.name, false, sole_enclosed(cell)?)),
        Content::Enclosed(Expr::Flwor(Flwor { clauses, ret })) => {
            let [Clause::For { var, source }] = clauses.as_slice() else {
                return None;
            };
            let Expr::Element(cell) = &**ret else {
                return None;
            };
            match sole_enclosed(cell)? {
                Expr::VarRef(v) if v == var => Some((&cell.name, true, source)),
                _ => None,
            }
        }
        _ => None,
    }
}

/// Lowers a FLWOR's `return` (see [`Project`]), or `None` for anything
/// else. `tests/exec.rs` holds this and `gen_record` together.
fn project(ret: &Expr) -> Option<Project<'_>> {
    let Expr::Element(ctor) = ret else {
        return None;
    };
    if !ctor.attributes.is_empty() {
        return None;
    }
    let cells = ctor
        .content
        .iter()
        .map(|content| {
            let (name, nullable, value) = cell_shape(content)?;
            Some(Cell {
                name: QName::parse(name),
                nullable,
                joined: false,
                value: match call_of(value, "fn:data").and_then(var_child) {
                    Some((var, child)) => Value::Child { var, child },
                    None => Value::Expr(value),
                },
            })
        })
        .collect::<Option<_>>()?;
    Some(Project {
        ctor,
        name: QName::parse(&ctor.name),
        cells,
        source: None,
        text: None,
    })
}

/// `gen_setop`'s renaming view, `for $var in $w/ROW return CTOR`, composed
/// over the row constructor `source` of `$w`'s rows: `CTOR`'s cells, each
/// `fn:data($var/C)` read through the one cell of `source` that makes `C`
/// — as `fn:data` reads it off the built cell, joined where the cell is NOT
/// NULL — so no source row is built. `None` when a cell reads anything
/// else or names no cell or two, or when `source` has an evaluated cell
/// that no cell reads: the interpreter builds the source row whole, and
/// that cell's error must not go missing.
fn renamed<'a>(source: Project<'a>, var: &'a str, ctor: &'a Expr) -> Option<Project<'a>> {
    let rename = project(ctor)?;
    let mut read = vec![false; source.cells.len()];
    let cells = rename.cells.into_iter().map(|cell| {
        let Value::Child { var: of, child } = cell.value else {
            return None;
        };
        let at = cell_named(&source, child)??;
        read[at] = true;
        let (value, joined) = (source.cells[at].value, !source.cells[at].nullable);
        (of == var).then_some(Cell {
            value,
            joined,
            ..cell
        })
    });
    let cells = cells.collect::<Option<Vec<_>>>()?;
    let unread = |(cell, read): (&Cell<'_>, &bool)| !read && matches!(cell.value, Value::Expr(_));
    if source.cells.iter().zip(&read).any(unread) {
        return None;
    }
    Some(Project {
        cells,
        source: Some((var, source.ctor)),
        ..rename
    })
}

/// The cell of `row` whose elements a name test `name` selects: `Some(None)`
/// for none, `None` for two or more.
fn cell_named(row: &Project<'_>, name: &str) -> Option<Option<usize>> {
    let mut cells = (0..row.cells.len()).filter(|&at| name_matches(&row.cells[at].name, name));
    match (cells.next(), cells.next()) {
        (cell, None) => Some(cell),
        _ => None,
    }
}

impl<'p> Project<'p> {
    /// The projection, its columns resolved against `text`, the statement's
    /// text sink.
    fn resolved(mut self, text: Option<&TextSink<'_>>) -> Self {
        self.text = text.and_then(|text| resolve(&text.pieces, text.record, &self));
        self
    }

    /// The row the interpreter builds of `env`: the constructor's element —
    /// a rename's, over the row its source constructor builds.
    fn build(
        &self,
        ev: &Evaluator<'p>,
        env: &Env<'p>,
        context: Option<&Item>,
    ) -> Result<Element, XqError> {
        let Some((var, source)) = self.source else {
            return ev.construct_element(self.ctor, env, context);
        };
        let row = Item::element(ev.construct_element(source, env, context)?);
        ev.construct_element(self.ctor, &env.bind(var, Sequence::singleton(row)), context)
    }
}

/// One tuple of the FLWOR being projected: what a cell's value is read
/// under.
struct Tuple<'a> {
    ev: &'a Evaluator<'a>,
    env: &'a Env<'a>,
    context: Option<&'a Item>,
}

impl<'a> Tuple<'a> {
    /// The one cell reader: calls `f` on each value of `cell`, in order —
    /// on the one value of a joined cell, its values joined with a space.
    fn each_value(
        &self,
        cell: &Cell<'a>,
        f: &mut impl FnMut(CellValue<'_>) -> Result<(), XqError>,
    ) -> Result<(), Halt> {
        if !cell.joined {
            return self.values(&cell.value, f);
        }
        let (mut joined, mut values) = (String::new(), 0);
        self.values(&cell.value, &mut |value| {
            joined.extend((values > 0).then_some(' '));
            values += 1;
            value.write(&mut joined);
            Ok(())
        })?;
        Ok(f(CellValue::Atom(&Atomic::Untyped(joined)))?)
    }

    fn values(
        &self,
        value: &Value<'a>,
        f: &mut impl FnMut(CellValue<'_>) -> Result<(), XqError>,
    ) -> Result<(), Halt> {
        match value {
            Value::Child { var, child } => {
                let rows = self.env.value_of(var)?.iter();
                Ok(each_child(rows.filter_map(Item::as_element_ref), child, f)?)
            }
            Value::Expr(expr) => {
                for item in self.ev.eval(expr, self.env, self.context)?.iter() {
                    match item {
                        Item::Atomic(atom) => f(CellValue::Atom(atom))?,
                        Item::Node(_) => return Err(Halt::Interpret),
                    }
                }
                Ok(())
            }
        }
    }
}

/// `fn:data(parents/NAME)`: calls `f` on each child element `name` tests,
/// in document order.
fn each_child<'a>(
    parents: impl Iterator<Item = ElementRef<'a>>,
    name: &str,
    f: &mut impl FnMut(CellValue<'_>) -> Result<(), XqError>,
) -> Result<(), XqError> {
    for parent in parents {
        each_step_child(parent, name, |child| f(CellValue::Node(child)))?;
    }
    Ok(())
}

/// Where projected rows go.
enum Output<'o> {
    /// Elements `==` to the interpreter's: a view, or an XML body that is
    /// no sink's.
    Tree(&'o mut Vec<Item>),
    /// The delimited-text payload, a row's pieces at a time: off the cells
    /// where the projection's columns resolve ([`Project::text`]), else
    /// built.
    Text {
        pieces: &'o [Piece<'o>],
        payload: &'o mut String,
    },
    /// The XML payload, as [`aldsp_xml::serialize`] writes the tree.
    Xml(&'o mut String),
}

impl Output<'_> {
    fn len(&self) -> usize {
        match self {
            Output::Tree(items) => items.len(),
            Output::Text { payload, .. } | Output::Xml(payload) => payload.len(),
        }
    }

    /// Forgets what a row that stopped part-way wrote.
    fn truncate(&mut self, len: usize) {
        match self {
            Output::Tree(items) => items.truncate(len),
            Output::Text { payload, .. } | Output::Xml(payload) => payload.truncate(len),
        }
    }

    /// One row off a tuple, through `project`. What no, one and several
    /// values of a cell write, per shape and per output, is DESIGN.md §17's
    /// parity table.
    fn projected(&mut self, project: &Project<'_>, tuple: &Tuple<'_>) -> Result<(), Halt> {
        match self {
            Output::Tree(items) => {
                let mut record = Element::new(project.name.clone());
                record.children.reserve(project.cells.len());
                for cell in &project.cells {
                    let element = |text: Arc<str>| {
                        let mut element = Element::new(cell.name.clone());
                        element.children.push(Node::Text(text));
                        element.into_node()
                    };
                    if cell.nullable {
                        tuple.each_value(cell, &mut |value| {
                            record.children.push(element(value.text()));
                            Ok(())
                        })?;
                    } else {
                        let mut joined: Option<Arc<str>> = None;
                        tuple.each_value(cell, &mut |value| {
                            joined = Some(match joined.take() {
                                None => value.text(),
                                Some(before) => format!("{before} {}", value.text()).into(),
                            });
                            Ok(())
                        })?;
                        record.children.push(match joined {
                            Some(text) => element(text),
                            None => Element::new(cell.name.clone()).into_node(),
                        });
                    }
                }
                items.push(Item::element(record));
            }
            Output::Text { pieces, payload } => {
                let Some(cells) = &project.text else {
                    return Err(Halt::Interpret);
                };
                for (piece, cell) in pieces.iter().zip(cells) {
                    match (piece, cell.map(|at| &project.cells[at])) {
                        (Piece::Text(text), _) => payload.push_str(text),
                        (Piece::Column { null, .. }, None) => payload.push_str(null),
                        (Piece::Column { name, null }, Some(cell)) => {
                            let mut column =
                                Column::new(payload, name, cell.nullable.then_some(*null));
                            tuple.each_value(cell, &mut |value| column.value(value))?;
                            column.end();
                        }
                    }
                }
            }
            Output::Xml(payload) => {
                let start = payload.len();
                write_start_tag(payload, &project.name);
                let opened = payload.len();
                for cell in &project.cells {
                    if cell.nullable {
                        tuple.each_value(cell, &mut |value| {
                            write_start_tag(payload, &cell.name);
                            value.write_escaped(payload);
                            write_end_tag(payload, &cell.name);
                            Ok(())
                        })?;
                    } else {
                        let mut values = 0;
                        tuple.each_value(cell, &mut |value| {
                            match values {
                                0 => write_start_tag(payload, &cell.name),
                                _ => payload.push(' '),
                            }
                            values += 1;
                            value.write_escaped(payload);
                            Ok(())
                        })?;
                        match values {
                            0 => write_empty_tag(payload, &cell.name),
                            _ => write_end_tag(payload, &cell.name),
                        }
                    }
                }
                close_element(payload, &project.name, start, opened);
            }
        }
        Ok(())
    }

    /// One row that already is an element: the interpreter's, of a tuple
    /// [`Output::projected`] handed back, or a `RECORD` of an evaluated
    /// view.
    fn built(&mut self, record: ElementRef<'_>) -> Result<(), XqError> {
        match self {
            Output::Tree(items) => items.push(Item::Node(record.to_node())),
            Output::Text { pieces, payload } => {
                for piece in *pieces {
                    match piece {
                        Piece::Text(text) => payload.push_str(text),
                        Piece::Column { name, null } => {
                            let mut column = Column::new(payload, name, Some(*null));
                            let record = std::iter::once(record);
                            each_child(record, name, &mut |value| column.value(value))?;
                            column.end();
                        }
                    }
                }
            }
            Output::Xml(payload) => write_element(payload, record),
        }
        Ok(())
    }
}

/// One column of a delimited-text row: its values, escaped. With a NULL
/// literal (`fn:data($t/NAME)` over a nullable cell's elements, or over a
/// built row's) no value writes the literal and a second one is the error
/// `fn-bea:serialize-atomic` raises in the interpreter; without (a NOT NULL
/// cell, which is one element whatever it holds) the values join with a
/// space, as they did in that element's text.
struct Column<'a> {
    payload: &'a mut String,
    name: &'a str,
    null: Option<&'a str>,
    values: usize,
}

impl<'a> Column<'a> {
    fn new(payload: &'a mut String, name: &'a str, null: Option<&'a str>) -> Column<'a> {
        Column {
            payload,
            name,
            null,
            values: 0,
        }
    }

    fn value(&mut self, value: CellValue<'_>) -> Result<(), XqError> {
        if self.values > 0 {
            if self.null.is_some() {
                let name = self.name;
                return Err(XqError::new(format!(
                    "text sink: more than one {name} in a row"
                )));
            }
            self.payload.push(' ');
        }
        self.values += 1;
        value.write_escaped(self.payload);
        Ok(())
    }

    fn end(self) {
        if let (0, Some(null)) = (self.values, self.null) {
            self.payload.push_str(null);
        }
    }
}

/// Ends the element whose start tag was written at `start..opened`: the
/// end tag, or — nothing written since, so no children — the start tag
/// taken back for `<name/>`.
fn close_element(payload: &mut String, name: &QName, start: usize, opened: usize) {
    if payload.len() == opened {
        payload.truncate(start);
        write_empty_tag(payload, name);
    } else {
        write_end_tag(payload, name);
    }
}

/// The one row loop: each of `envs` through `branch(row)`, the projection
/// of its row, into `out`. Fuel is `fuel` and the projection's `1 + cells`
/// per row, charged in one call before the row is written, so the deadline
/// and cancellation poll stays inside the loop. The row cap holds the rows
/// of a delimited payload, whose count stands in for the wrapper's `for $t
/// in $q/RECORD`; a tree's or an XML body's rows are tuples the clause loop
/// already counted, and the interpreter counts them no second time.
fn project_rows<'a>(
    ev: &Evaluator<'a>,
    envs: &[Env<'a>],
    branch: impl Fn(usize) -> Option<&'a Project<'a>>,
    context: Option<&Item>,
    fuel: u64,
    out: &mut Output<'_>,
) -> Result<(), XqError> {
    let capped = matches!(out, Output::Text { .. });
    for (row, env) in envs.iter().enumerate() {
        let project =
            branch(row).ok_or_else(|| XqError::new("a row's constructor does not lower"))?;
        ev.charge(fuel + 1 + project.cells.len() as u64)?;
        if capped {
            ev.check_rows(row + 1)?;
        }
        let mark = out.len();
        let tuple = Tuple { ev, env, context };
        let built = match out.projected(project, &tuple) {
            Ok(()) => continue,
            Err(Halt::Error(e)) => return Err(e),
            Err(Halt::Interpret) => Arc::new(project.build(ev, env, context)?),
        };
        out.truncate(mark);
        out.built((&built).into())?;
    }
    Ok(())
}

/// The tree consumer: `tuples` through their projections, as the element
/// items the interpreter's `return` would have built. Budget errors
/// propagate; after any other the caller interprets the `return` instead,
/// or — the tuples an operator's — the whole FLWOR.
pub(crate) fn project_tree<'a>(
    ev: &Evaluator<'a>,
    tuples: &Tuples<'a>,
    context: Option<&Item>,
) -> Result<Sequence, XqError> {
    let mut items = Vec::with_capacity(tuples.envs.len());
    tuples.project(ev, context, 0, &mut Output::Tree(&mut items))?;
    Ok(Sequence::from_items(items))
}

/// What [`Evaluator::flwor_tuples`] hands a FLWOR's consumer: the tuples,
/// and the projection of each one's row — where an operator ran the FLWOR
/// (the aggregate, the rows operator), per tuple its branch's, as a sort
/// over a UNION interleaves branches; else the FLWOR's own `return`'s.
pub(crate) struct Tuples<'a> {
    pub(crate) envs: Vec<Env<'a>>,
    /// Where an operator ran the FLWOR, per tuple the projection of its
    /// row — none where it is `own` (an aggregate's).
    each: Option<Vec<&'a Project<'a>>>,
    /// The FLWOR's own `return`, lowered.
    own: Option<&'a Project<'a>>,
}

impl<'a> Tuples<'a> {
    /// The clause loop's `envs`, and the `return` of `node`'s FLWOR.
    pub(crate) fn new(envs: Vec<Env<'a>>, node: Option<&'a FlworPlan<'a>>) -> Self {
        let own = node.and_then(|node| node.project.as_ref());
        Tuples {
            envs,
            each: None,
            own,
        }
    }

    /// Whether an operator ran the FLWOR: there is no `return` to evaluate
    /// over its tuples.
    pub(crate) fn lowered(&self) -> bool {
        self.each.is_some()
    }

    /// Whether a projection makes the rows.
    pub(crate) fn projected(&self) -> bool {
        self.lowered() || self.own.is_some()
    }

    /// Each tuple through its projection into `out` ([`project_rows`]).
    fn project(
        &self,
        ev: &Evaluator<'a>,
        context: Option<&Item>,
        fuel: u64,
        out: &mut Output<'_>,
    ) -> Result<(), XqError> {
        project_rows(ev, &self.envs, |row| self.branch(row), context, fuel, out)
    }

    fn branch(&self, row: usize) -> Option<&'a Project<'a>> {
        let each = self.each.as_ref().and_then(|each| each.get(row).copied());
        each.or(self.own)
    }
}

// ---------------------------------------------------------------------
// Views: `let $v := <RECORDSET>{ … }</RECORDSET>` and what reads it
// ---------------------------------------------------------------------

/// A `let`-bound view, planned: its body lowered to the row constructors in
/// tail position, each without the cells nothing after the `let` reads
/// (DESIGN.md §17, "Views and their read-sets"). Planned by [`view`] once
/// per statement, in the plan; run by [`run_view`] once per tuple.
pub(crate) struct View<'p> {
    /// The view element's name, parsed once.
    name: QName,
    body: Tail<'p>,
    /// How many cells the row constructors lost to the read-set.
    pruned: u64,
}

/// An expression in tail position of a view's body: its items are the
/// view's rows.
enum Tail<'p> {
    /// A row constructor, dead cells dropped.
    Rows(Project<'p>),
    /// `if (C) then T else T` — the arms of an outer join (paper Example
    /// 10).
    If {
        cond: &'p Expr,
        then: Box<Tail<'p>>,
        els: Box<Tail<'p>>,
    },
    /// A FLWOR whose `return` is a tail.
    Flwor {
        flwor: &'p Flwor,
        ret: Box<Tail<'p>>,
    },
    /// `(T, …)`; `()` is the empty one.
    Sequence(Vec<Tail<'p>>),
}

/// What the clauses after a view's `let`, and the `return`, read of the
/// view's rows. A row may be bound again, counted and grouped without a
/// cell of it being named; anything else that reaches one *escapes*.
struct ReadSet<'a> {
    view: &'a str,
    /// Variables in scope whose items are rows of the view.
    aliases: Vec<&'a str>,
    /// The name test of `$view/ROW`, the same at every use.
    row: Option<&'a str>,
    /// The cells read off a row: the name test that follows one.
    cells: Vec<&'a str>,
    /// A row got somewhere that may look at all of it: no cell is dead.
    escaped: bool,
}

impl<'a> ReadSet<'a> {
    fn is_alias(&self, var: &str) -> bool {
        self.aliases.contains(&var)
    }

    /// The step after `$view`: one name test without a predicate.
    fn row_step(&mut self, step: Option<&'a Step>) {
        match step {
            Some(Step {
                test: NodeTest::Name(row),
                predicates,
            }) if predicates.is_empty() && self.row.is_none_or(|seen| seen == row) => {
                self.row.get_or_insert(row);
            }
            _ => self.escaped = true,
        }
    }

    /// Whether `expr` is rows of the view and nothing else: an alias, or
    /// `$view/ROW`.
    fn rows(&mut self, expr: &'a Expr) -> bool {
        match expr {
            Expr::VarRef(var) => self.is_alias(var),
            Expr::Path { start, steps } => match (&**start, steps.as_slice()) {
                (PathStart::Var(var), [row]) if var == self.view => {
                    self.row_step(Some(row));
                    true
                }
                _ => false,
            },
            _ => false,
        }
    }

    /// A binder: an alias when it binds `rows`. One that rebinds the view
    /// or an alias is not followed.
    fn bind(&mut self, var: &'a str, rows: bool) {
        self.escaped |= var == self.view || self.is_alias(var);
        if rows {
            self.aliases.push(var);
        }
    }
}

impl<'a> Visitor<'a> for ReadSet<'a> {
    fn visit_expr(&mut self, expr: &'a Expr) {
        if self.escaped {
            return;
        }
        match expr {
            Expr::VarRef(var) => self.escaped = var == self.view || self.is_alias(var),
            Expr::FunctionCall { name, args } => {
                let counts = matches!(name.as_str(), "fn:count" | "fn:empty" | "fn:exists");
                match args.as_slice() {
                    [arg] if counts && self.rows(arg) => {}
                    _ => walk_expr(self, expr),
                }
            }
            Expr::Path { start, steps } => {
                // `$view/ROW/CELL…` and `$alias/CELL…` read `CELL`.
                if let PathStart::Var(var) = &**start {
                    let from_view = var == self.view;
                    if from_view {
                        self.row_step(steps.first());
                    }
                    if from_view || self.is_alias(var) {
                        match steps.get(usize::from(from_view)).map(|step| &step.test) {
                            Some(NodeTest::Name(cell)) if self.cells.contains(&&**cell) => {}
                            Some(NodeTest::Name(cell)) => self.cells.push(cell),
                            _ => self.escaped = true,
                        }
                    }
                }
                walk_expr(self, expr);
            }
            Expr::Flwor(flwor) => {
                let scope = self.aliases.len();
                walk_flwor(self, flwor);
                self.aliases.truncate(scope);
            }
            Expr::Quantified { var, .. } => {
                self.bind(var, false);
                walk_expr(self, expr);
            }
            _ => walk_expr(self, expr),
        }
    }

    fn visit_clause(&mut self, clause: &'a Clause) {
        match clause {
            Clause::For { var, source } | Clause::Let { var, value: source } => {
                let rows = self.rows(source);
                if !rows {
                    self.visit_expr(source);
                }
                self.bind(var, rows);
            }
            Clause::GroupBy(group) => {
                walk_clause(self, clause);
                self.escaped |= group.source_var == self.view;
                self.bind(&group.partition_var, self.is_alias(&group.source_var));
                for (_, key) in &group.keys {
                    self.bind(key, false);
                }
            }
            Clause::Where(_) | Clause::OrderBy(_) => walk_clause(self, clause),
        }
    }
}

/// Plans clause `at` of `flwor` when it is `let $v := <V>{ BODY }</V>` — an
/// attribute-less constructor around one expression — and every tail of
/// `BODY` is a row constructor [`project`] lowers; `None` is the
/// interpreter's `let`, as any other. The read-set decides only which cells
/// the plan keeps: a view whose rows escape is planned all the same, whole.
fn view(flwor: &Flwor, at: usize) -> Option<View<'_>> {
    let Clause::Let {
        var,
        value: Expr::Element(ctor),
    } = &flwor.clauses[at]
    else {
        return None;
    };
    let body = sole_enclosed(ctor)?;
    let mut reads = ReadSet {
        view: var,
        aliases: Vec::new(),
        row: None,
        cells: Vec::new(),
        escaped: false,
    };
    for clause in &flwor.clauses[at + 1..] {
        reads.visit_clause(clause);
    }
    reads.visit_expr(&flwor.ret);
    let mut pruned = 0;
    let body = tail(body, &reads, &mut Vec::new(), &mut pruned)?;
    Some(View {
        name: QName::parse(&ctor.name),
        body,
        pruned,
    })
}

/// Lowers an expression in tail position. `bound` holds the variables the
/// body's own clauses bind around it.
fn tail<'p>(
    expr: &'p Expr,
    reads: &ReadSet<'_>,
    bound: &mut Vec<&'p str>,
    pruned: &mut u64,
) -> Option<Tail<'p>> {
    Some(match expr {
        Expr::Element(_) => {
            let mut rows = project(expr)?;
            let cells = rows.cells.len();
            // Dead: a cell of a row `$view/ROW` selects that nothing reads,
            // whose value cannot raise — `fn:data($x/CHILD)` over an `$x`
            // the body binds. An unread `Value::Expr` is evaluated for its
            // error, as `resolve` has it.
            if let (false, Some(row)) = (reads.escaped, &reads.row) {
                if name_matches(&rows.name, row) {
                    rows.cells.retain(|cell| match cell.value {
                        Value::Child { var, .. } if bound.contains(&var) => reads
                            .cells
                            .iter()
                            .any(|read| name_matches(&cell.name, read)),
                        _ => true,
                    });
                }
            }
            *pruned += (cells - rows.cells.len()) as u64;
            Tail::Rows(rows)
        }
        Expr::If { cond, then, els } => Tail::If {
            cond,
            then: Box::new(tail(then, reads, bound, pruned)?),
            els: Box::new(tail(els, reads, bound, pruned)?),
        },
        Expr::Flwor(flwor) => {
            let scope = bound.len();
            for clause in &flwor.clauses {
                match clause {
                    Clause::For { var, .. } | Clause::Let { var, .. } => bound.push(var),
                    Clause::GroupBy(group) => {
                        bound.push(&group.partition_var);
                        bound.extend(group.keys.iter().map(|(_, key)| key.as_str()));
                    }
                    Clause::Where(_) | Clause::OrderBy(_) => {}
                }
            }
            let ret = tail(&flwor.ret, reads, bound, pruned);
            bound.truncate(scope);
            Tail::Flwor {
                flwor,
                ret: Box::new(ret?),
            }
        }
        Expr::Sequence(tails) => Tail::Sequence(
            tails
                .iter()
                .map(|expr| tail(expr, reads, bound, pruned))
                .collect::<Option<_>>()?,
        ),
        Expr::EmptySequence => Tail::Sequence(Vec::new()),
        _ => return None,
    })
}

/// The view's value on one tuple: the element the interpreter's `let`
/// would bind, less the dead cells. Fuel is what `eval` charges for the
/// nodes stepped through — the constructor here, one per `if`, FLWOR and
/// sequence in [`run_tail`] — and [`project_tree`]'s `1 + cells` per row
/// over the cells kept. Budget errors propagate; after any other the
/// caller interprets the `let` instead.
pub(crate) fn run_view<'a>(
    ev: &Evaluator<'a>,
    view: &View<'a>,
    env: &Env<'a>,
    context: Option<&Item>,
) -> Result<Sequence, XqError> {
    ev.charge(1)?;
    let mut rows = Vec::new();
    let mut out = Output::Tree(&mut rows);
    run_tail(ev, &view.body, std::slice::from_ref(env), context, &mut out)?;
    let mut element = Element::new(view.name.clone());
    element.children = rows
        .into_iter()
        .map(|row| match row {
            Item::Node(row) => row,
            Item::Atomic(_) => unreachable!("every tail is a row constructor"),
        })
        .collect();
    ev.record_view(Some(view.pruned));
    Ok(Sequence::singleton(Item::element(element)))
}

/// `tail` over each of `tuples`, in order: rows through the one row loop,
/// the rest as `eval` would step through it.
fn run_tail<'a>(
    ev: &Evaluator<'a>,
    tail: &Tail<'a>,
    tuples: &[Env<'a>],
    context: Option<&Item>,
    out: &mut Output<'_>,
) -> Result<(), XqError> {
    let one = std::slice::from_ref;
    match tail {
        Tail::Rows(rows) => project_rows(ev, tuples, |_| Some(rows), context, 0, out)?,
        Tail::If { cond, then, els } => {
            for env in tuples {
                ev.charge(1)?;
                let holds = ev.eval(cond, env, context)?.effective_boolean();
                run_tail(ev, if holds { then } else { els }, one(env), context, out)?;
            }
        }
        Tail::Flwor { flwor, ret } => {
            for env in tuples {
                ev.charge(1)?;
                let tuples = ev.flwor_tuples(flwor, env, context)?;
                if !tuples.lowered() {
                    run_tail(ev, ret, &tuples.envs, context, out)?;
                    continue;
                }
                // An operator's rows are its branches' — the aggregate's
                // reads group variables, not cells a read-set could have
                // pruned: planned whole.
                tuples.project(ev, context, 0, out)?;
            }
        }
        Tail::Sequence(tails) => {
            for env in tuples {
                ev.charge(1)?;
                for tail in tails {
                    run_tail(ev, tail, one(env), context, out)?;
                }
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Aggregate: `group … by` over `$inter` in one pass, no row built
// ---------------------------------------------------------------------

/// A grouped FLWOR as `aldsp_core::stage3`'s `gen_select_grouped` writes it
/// (paper Example 12), lowered: `let $inter := <V>{ BODY return <ROW>…</ROW>
/// }</V>`, then `for $r in $inter/ROW group $r as $P by K₁ as $g₁, …` — or,
/// without GROUP BY, the one group `let $P := $inter/ROW` — then `where H`s
/// and `return R`. Every key is a [`Read`] of `$r`, and every aggregate of
/// `gen_aggregate` in `H` and `R` ([`agg_shape`]) a value of the group's,
/// which the evaluator reads where the interpreter would compute it.
/// Planned by [`aggregate`] once per statement, in the plan; run by
/// [`run_aggregate`].
pub(crate) struct Aggregate<'p> {
    /// `BODY`: its tuples are the input.
    body: &'p Flwor,
    /// `$inter`'s row constructor as its view plans it — less the `pruned`
    /// cells nothing reads — read off the tuples, never built.
    row: Project<'p>,
    pruned: u64,
    /// Per key, its read and its variable; none is the implicit group.
    keys: Vec<(Read, &'p str)>,
    /// The aggregates, each with the variable a group binds its value to:
    /// `#` and the address of the expression it stands for, a name no
    /// program can write.
    aggs: Vec<(usize, String, Agg)>,
    /// The `where`s, kept when every one holds on a group.
    having: Vec<&'p Expr>,
    /// What a row is charged: one unit for the `for $r` binding it
    /// replaces, and the nodes of every key and argument.
    row_fuel: u64,
}

/// `CAST?(fn:data($r/CELL))`: the cell of `$inter`'s row constructor that
/// makes `CELL`, read off the tuple that would have built it.
struct Read {
    cell: usize,
    cast: Option<XsType>,
    /// The expression's nodes: what evaluating it charged.
    fuel: u64,
}

/// An aggregate of `gen_aggregate`'s: `func` — `fn:count`, `fn:sum`,
/// `fn:avg`, `fn:min` or `fn:max` — over `arg` (`None` is `fn:count($P)`),
/// after `fn:distinct-values` when `distinct`, and with SUM's empty guard
/// when `guarded`: no value is `()`, not `fn:sum(())`'s 0.
struct Agg {
    func: &'static str,
    arg: Option<Read>,
    distinct: bool,
    guarded: bool,
}

/// Recognizes the two grouped shapes (see [`Aggregate`]) and plans the
/// operator over `view`, the plan of `$inter`'s `let`: `None` for any other
/// FLWOR — nothing asked, nothing counted — and `Some(None)` for one it
/// declines (see the module docs).
fn aggregate<'p>(flwor: &'p Flwor, view: Option<&View<'p>>) -> Option<Option<Box<Aggregate<'p>>>> {
    let [Clause::Let { var: inter, .. }, second, rest @ ..] = flwor.clauses.as_slice() else {
        return None;
    };
    let (rows, partition, group, rest) = match (second, rest) {
        (Clause::For { var, source }, [Clause::GroupBy(group), rest @ ..])
            if group.source_var == *var =>
        {
            (source, &group.partition_var, Some(group), rest)
        }
        (Clause::Let { var, value }, rest) => (value, var, None, rest),
        _ => return None,
    };
    let wheres = rest.iter().map(|clause| match clause {
        Clause::Where(predicate) => Some(predicate),
        _ => None,
    });
    let (wheres, (over, row)) = (wheres.collect::<Option<Vec<_>>>()?, var_child(rows)?);
    (over == inter)
        .then(|| lower(flwor, [inter, row, partition], group, wheres, view).map(Box::new))
}

fn lower<'p>(
    flwor: &'p Flwor,
    [inter, row_test, partition]: [&str; 3],
    group: Option<&'p crate::ast::GroupClause>,
    having: Vec<&'p Expr>,
    view: Option<&View<'p>>,
) -> Option<Aggregate<'p>> {
    let view = view?;
    let Tail::Flwor { flwor: body, ret } = &view.body else {
        return None;
    };
    // Rows `$inter/ROW` selects, every cell read off a bound row: no cell
    // can raise, so an unread one's error cannot go missing.
    let Tail::Rows(row) = &**ret else {
        return None;
    };
    let read_off = |cell: &Cell<'_>| matches!(cell.value, Value::Child { .. });
    if !name_matches(&row.name, row_test) || !row.cells.iter().all(read_off) {
        return None;
    }
    let (source, keys) = group.map_or((partition, &[][..]), |g| (&*g.source_var, &*g.keys));
    let key = |(key, var): &'p (Expr, String)| Some((read_of(key, source, row)?, &**var));
    let keys = keys.iter().map(key).collect::<Option<Vec<_>>>()?;
    // Past the aggregates nothing may see a row, the partition or the view;
    // and the groups' rows are the `return`'s, projected.
    let mut aggs = Vec::new();
    let mut agg = |expr: &Expr| match agg_shape(expr, partition, row) {
        Some(agg) => {
            let at = address(expr);
            aggs.push((at, format!("#{at}"), agg));
            true
        }
        None => false,
    };
    let hidden = [inter, partition, source];
    let mut sees = having.iter().copied().chain([&*flwor.ret]).map(|expr| {
        let free = free_vars_except(expr, &mut agg);
        free.iter().any(|v| hidden.contains(&&**v))
    });
    if sees.any(|sees| sees) || project(&flwor.ret).is_none() {
        return None;
    }
    let args = aggs.iter().filter_map(|(_, _, agg)| agg.arg.as_ref());
    let reads = keys.iter().map(|(read, _)| read).chain(args);
    let row_fuel = 1 + reads.map(|read| read.fuel).sum::<u64>();
    Some(Aggregate {
        body,
        row: row.clone(),
        pruned: view.pruned,
        keys,
        aggs,
        having,
        row_fuel,
    })
}

/// `expr` as a [`Read`] of `$var`, whose name makes exactly one of `row`'s
/// cells.
fn read_of(expr: &Expr, var: &str, row: &Project<'_>) -> Option<Read> {
    let (of, name, cast, fuel) = cell_read(expr, false)?;
    let cell = cell_named(row, name)??;
    (of == var).then_some(Read { cell, cast, fuel })
}

/// `CAST?(fn:data($var/CELL))` as `(var, CELL, cast, the expression's
/// nodes)`; `fn:data` may be left out where the value is `atomized` anyway
/// (an `order by` key).
fn cell_read(expr: &Expr, atomized: bool) -> Option<(&str, &str, Option<XsType>, u64)> {
    let (cast, data) = match expr {
        Expr::FunctionCall { name, args } => match (XsType::from_xs_name(name), args.as_slice()) {
            (Some(cast), [arg]) => (Some(cast), arg),
            _ => (None, expr),
        },
        _ => (None, expr),
    };
    let path = match call_of(data, "fn:data") {
        Some(path) => path,
        None if atomized => data,
        None => return None,
    };
    let (var, name) = var_child(path)?;
    let mut fuel = 0;
    each_expr(expr, &mut |_| fuel += 1);
    Some((var, name, cast, fuel))
}

/// The aggregate `gen_aggregate` writes over the partition `$p`:
/// `fn:count($p)`; `F((VALUES))` for `F` one of `fn:count`, `fn:avg`,
/// `fn:min`, `fn:max`; or SUM's `(let $s := (VALUES) return if
/// (fn:empty($s)) then () else fn:sum($s))` — where `VALUES` is `for $a in
/// $p return READ`, possibly under `fn:distinct-values`.
fn agg_shape(expr: &Expr, p: &str, row: &Project<'_>) -> Option<Agg> {
    let (func, values, guarded) = match expr {
        Expr::FunctionCall { name, .. } => {
            let funcs = ["fn:count", "fn:avg", "fn:min", "fn:max"];
            let func = funcs.into_iter().find(|&func| func == name)?;
            (func, call_of(expr, func)?, false)
        }
        Expr::Flwor(Flwor { clauses, ret }) => {
            let ([Clause::Let { var, value }], Expr::If { cond, then, els }) =
                (clauses.as_slice(), &**ret)
            else {
                return None;
            };
            let held = Expr::var(var);
            let guarded = call_of(cond, "fn:empty") == Some(&held)
                && call_of(els, "fn:sum") == Some(&held)
                && **then == Expr::EmptySequence;
            (guarded.then_some("fn:sum")?, value, true)
        }
        _ => return None,
    };
    let distinct = call_of(values, "fn:distinct-values");
    let arg = match distinct.unwrap_or(values) {
        Expr::VarRef(v) if v == p && distinct.is_none() => None,
        Expr::Flwor(Flwor { clauses, ret }) => match clauses.as_slice() {
            [Clause::For { var, source }] if *source == Expr::var(p) => {
                Some(read_of(ret, var, row)?)
            }
            _ => return None,
        },
        _ => return None,
    };
    let distinct = distinct.is_some();
    let agg = Agg {
        func,
        arg,
        distinct,
        guarded,
    };
    (agg.arg.is_some() || func == "fn:count").then_some(agg)
}

/// The cell reader of the aggregate, the sort and the set operations:
/// appends what `CAST?(fn:data($r/CELL))` makes of `cells` — those of a row
/// constructor that make `CELL` — on one tuple: what `fn:data` reads off the
/// cell elements the constructor would build, an untyped atom per value of
/// a nullable cell, one of the values joined with a space for a NOT NULL
/// one — cast through [`Atomic::cast_to`], as the interpreter's casts are.
fn read_cells<'c>(
    cells: impl IntoIterator<Item = &'c Cell<'c>>,
    cast: Option<XsType>,
    tuple: &Tuple<'_>,
    out: &mut Vec<Atomic>,
) -> Result<(), XqError> {
    let start = out.len();
    for cell in cells {
        let mut joined: Option<String> = None;
        let values = tuple.each_value(cell, &mut |value| {
            match (&mut joined, cell.nullable) {
                (Some(text), false) => text.extend([" ", &*value.text()]),
                (None, false) => joined = Some(value.text().to_string()),
                (_, true) => out.push(Atomic::Untyped(value.text().to_string())),
            }
            Ok(())
        });
        values.map_err(Halt::into_error)?;
        if !cell.nullable {
            out.push(Atomic::Untyped(joined.unwrap_or_default()));
        }
    }
    if let Some(cast) = cast {
        match &mut out[start..] {
            [] => {}
            [atom] => *atom = atom.cast_to(cast).map_err(|e| XqError::new(e.message))?,
            _ => return Err(XqError::new("cast requires a singleton operand")),
        }
    }
    Ok(())
}

impl Agg {
    /// The aggregate over a group of `rows` rows that gathered `atoms`: the
    /// interpreter's builtin over them — after `fn:distinct-values`, for
    /// DISTINCT. `fn:count($P)` is the rows.
    fn value(&self, rows: u64, atoms: Vec<Atomic>) -> Result<Sequence, XqError> {
        if self.arg.is_none() {
            return Ok(Sequence::singleton(Atomic::Integer(rows as i64)));
        }
        let mut value: Sequence = atoms.into_iter().map(Item::Atomic).collect();
        let distinct = self.distinct.then_some("fn:distinct-values");
        for name in distinct.into_iter().chain([self.func]) {
            if name == self.func && self.guarded && value.is_empty() {
                break;
            }
            value = call_builtin(name, &[value])?.expect("an aggregate is a builtin");
        }
        Ok(value)
    }
}

/// One group: its keys' values, its rows, and per aggregate the atoms its
/// argument gathered, in row order.
struct Group {
    keys: Vec<Option<Atomic>>,
    rows: u64,
    gathered: Vec<Vec<Atomic>>,
}

/// Runs `agg` on the incoming tuple: one pass over `BODY`'s tuples reads
/// each row's keys and arguments (nothing is built) into hash groups, and
/// each group, in order of first appearance, becomes one tuple binding the
/// key variables and the aggregates' — kept when every `where` holds. With
/// GROUP BY, no row is no group; without, there is one group all the same.
/// **Fuel:** `$inter`'s constructor and FLWOR, as [`run_view`] charges
/// them; [`Aggregate::row_fuel`] per row; one unit per group; and what the
/// `where`s charge (the consumer's `return` charges its own). The row cap
/// holds the rows, as it held the `for $r` tuples. Budget errors propagate;
/// after any other the caller interprets the FLWOR.
fn run_aggregate<'a>(
    ev: &Evaluator<'a>,
    agg: &'a Aggregate<'a>,
    env: &Env<'a>,
    context: Option<&Item>,
) -> Result<Vec<Env<'a>>, XqError> {
    ev.charge(2)?;
    let rows = ev.flwor_tuples(agg.body, env, context)?.envs;
    let fresh = |keys| Group {
        keys,
        rows: 0,
        gathered: vec![Vec::new(); agg.aggs.len()],
    };
    let group_key = |value: &Option<Atomic>| value.as_ref().map_or(AtomKey::Empty, AtomKey::group);
    let (mut index, mut groups) = (HashMap::new(), Vec::new());
    let (mut key, mut values, mut atoms) = (Vec::new(), Vec::new(), Vec::new());
    for (at, env) in rows.iter().enumerate() {
        ev.charge(agg.row_fuel)?;
        ev.check_rows(at + 1)?;
        let tuple = Tuple { ev, env, context };
        for (read, _) in &agg.keys {
            read_cells([&agg.row.cells[read.cell]], read.cast, &tuple, &mut atoms)?;
            if atoms.len() > 1 {
                return Err(XqError::new("aggregate: a key of several values"));
            }
            values.push(atoms.pop());
        }
        key.clear();
        key.extend(values.iter().map(group_key));
        let at = match index.get(key.as_slice()) {
            Some(&at) => at,
            None => {
                index.insert(key.clone(), groups.len());
                groups.push(fresh(values.clone()));
                groups.len() - 1
            }
        };
        values.clear();
        let group = &mut groups[at];
        group.rows += 1;
        for ((_, _, a), gathered) in agg.aggs.iter().zip(&mut group.gathered) {
            if let Some(read) = &a.arg {
                read_cells([&agg.row.cells[read.cell]], read.cast, &tuple, gathered)?;
            }
        }
    }
    if agg.keys.is_empty() && groups.is_empty() {
        groups.push(fresh(Vec::new()));
    }
    let mut tuples = Vec::with_capacity(groups.len());
    'groups: for group in groups {
        ev.charge(1)?;
        let mut tuple = env.clone();
        for ((_, var), value) in agg.keys.iter().zip(group.keys) {
            tuple = tuple.bind(var, value.into_iter().map(Item::Atomic).collect());
        }
        for ((_, name, a), atoms) in agg.aggs.iter().zip(group.gathered) {
            tuple = tuple.bind(name, a.value(group.rows, atoms)?);
        }
        for having in &agg.having {
            if !ev.eval(having, &tuple, context)?.effective_boolean() {
                continue 'groups;
            }
        }
        tuples.push(tuple);
    }
    ev.record_view(Some(agg.pruned));
    Ok(tuples)
}

// ---------------------------------------------------------------------
// Rows: ORDER BY, DISTINCT and the set operations over views' tuples
// ---------------------------------------------------------------------

/// A sort or set wrapper as `gen_query`, `gen_select` and `gen_setop` write
/// it, lowered: `let $v := <V>{ BODY }</V>`s, then `for $r in SRC [order by
/// K…] return $r`. Each operand `$v/ROW` of `SRC` is a view's `BODY`, whose
/// tuples each its branch projects — or, for `gen_setop`'s renaming view
/// `<V>{ for $y in $w/ROW return CTOR }</V>`, view `w`'s `BODY`, each branch
/// [`renamed`] by `CTOR`. Planned by [`rows`] once per statement, in the
/// plan; run by [`run_rows`].
pub(crate) struct Rows<'p> {
    /// Per operand of `SRC`, in order: the `BODY` and the rename over it.
    operands: Vec<Operand<'p>>,
    /// What `SRC` makes of its operands' rows.
    set: Set,
    /// `SRC`'s nodes: what evaluating it charged.
    fuel: u64,
    /// The name test of every `$v/ROW` of the wrapper.
    row: &'p str,
    /// The `order by`: the interpreter's specs, and per spec its key's
    /// `(CELL, cast, nodes)`.
    order: &'p [OrderSpec],
    keys: Vec<(&'p str, Option<XsType>, u64)>,
}

/// An operand's `BODY`, and a rename over its rows composed over the
/// projection of `BODY`'s `return`, which makes them.
struct Operand<'p> {
    body: &'p Flwor,
    rename: Option<Project<'p>>,
}

/// `gen_setop`'s renaming view, `for $var in … return CTOR`, as `(var,
/// CTOR)`.
type Rename<'p> = (&'p str, &'p Expr);

/// What `SRC` is: `$v/ROW` or UNION ALL's `($a/ROW, $b/ROW)`, either under
/// `fn-bea:distinct-records`, or `fn-bea:intersect-all-records` /
/// `fn-bea:except-all-records` of `$a/ROW, $b/ROW`.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Set {
    Concat,
    Distinct,
    Intersect,
    Except,
}

/// Recognizes a sort or set wrapper (see [`Rows`]) over the FLWORs of
/// `planned`, its operands' among them: `None` for any other FLWOR —
/// nothing asked, nothing counted — and otherwise the lowering it counts
/// as (`Sort` with an `order by`), with `None` for one it declines.
fn rows<'p>(
    flwor: &'p Flwor,
    planned: &[FlworPlan<'p>],
    text: Option<&TextSink<'_>>,
) -> Option<(Lowering, Option<Rows<'p>>)> {
    let Expr::VarRef(returned) = &*flwor.ret else {
        return None;
    };
    let lets = flwor.clauses.iter();
    let lets = lets.take_while(|c| matches!(c, Clause::Let { .. })).count();
    let (source, order) = match &flwor.clauses[lets..] {
        [Clause::For { var, source }] if var == returned => (source, &[][..]),
        [Clause::For { var, source }, Clause::OrderBy(order)] if var == returned => {
            (source, &order[..])
        }
        _ => return None,
    };
    let kind = [Lowering::Set, Lowering::Sort][usize::from(!order.is_empty())];
    let planned = || {
        plan_rows(
            &flwor.clauses[..lets],
            source,
            order,
            returned,
            planned,
            text,
        )
    };
    (lets > 0).then(|| (kind, planned()))
}

fn plan_rows<'p>(
    lets: &'p [Clause],
    source: &'p Expr,
    order: &'p [OrderSpec],
    var: &str,
    planned: &[FlworPlan<'p>],
    text: Option<&TextSink<'_>>,
) -> Option<Rows<'p>> {
    // Per view: its name, the `BODY` whose tuples are its rows, the rename
    // over them, and how often it is read.
    let mut views: Vec<(&str, &'p Flwor, Option<Rename<'p>>, u32)> = Vec::new();
    let mut row = None;
    // `$v/ROW` for a view `$v` of `views`, read once more, the same `ROW`
    // throughout.
    let mut read = |views: &mut [(&str, _, _, u32)], expr: &'p Expr| {
        let (view, test) = var_child(expr)?;
        let at = views.iter().position(|(name, ..)| *name == view)?;
        views[at].3 += 1;
        (*row.get_or_insert(test) == test).then_some(at)
    };
    let is_view = |v: &String| {
        lets.iter()
            .any(|c| matches!(c, Clause::Let { var, .. } if var == v))
    };
    for clause in lets {
        let Clause::Let {
            var: name,
            value: Expr::Element(view),
        } = clause
        else {
            return None;
        };
        let body = sole_enclosed(view)?;
        let Expr::Flwor(flwor) = body else {
            return None;
        };
        let renames = match flwor.clauses.as_slice() {
            [Clause::For { var, source }] => read(&mut views, source).map(|at| (var, at)),
            _ => None,
        };
        views.push(match renames {
            // A rename over a rename reads a view the operator never binds.
            Some((var, at)) => match views[at] {
                (_, body, None, _) => (name, body, Some((&**var, &*flwor.ret)), 0),
                _ => return None,
            },
            // Any other body reads no view of the wrapper's: the operator
            // runs it where none is bound.
            None if free_vars(body).iter().any(is_view) => return None,
            None => (name, flwor, None, 0),
        });
    }
    let two = |set, args: &'p [Expr]| (args.len() == 2).then(|| (set, args.iter().collect()));
    let (set, operands): (_, Vec<_>) = match source {
        Expr::FunctionCall { name, args } if name == "fn-bea:intersect-all-records" => {
            two(Set::Intersect, args)?
        }
        Expr::FunctionCall { name, args } if name == "fn-bea:except-all-records" => {
            two(Set::Except, args)?
        }
        _ => match call_of(source, "fn-bea:distinct-records") {
            Some(rows) => (Set::Distinct, concatenated(rows)),
            None => (Set::Concat, concatenated(source)),
        },
    };
    let operands = operands.into_iter().map(|operand| {
        let at = read(&mut views, operand)?;
        Some((views[at].1, views[at].2))
    });
    let operands = operands.collect::<Option<Vec<_>>>()?;
    let keys = order.iter().map(|spec| match cell_read(&spec.key, true)? {
        (of, cell, cast, fuel) if of == var => Some((cell, cast, fuel)),
        _ => None,
    });
    let (keys, row) = (keys.collect::<Option<_>>()?, row?);
    // Every view is read once: as an operand, or by the one rename over it.
    if views.iter().any(|view| view.3 != 1) {
        return None;
    }
    // A nested wrapper lowers over the same `ROW`, unrenamed; a row
    // constructor — and a rename's composition over it — to a projection
    // `ROW` selects.
    let selected = |project: Option<Project<'p>>| project.filter(|p| name_matches(&p.name, row));
    let operand = |(body, rename): (&'p Flwor, Option<Rename<'p>>)| {
        let node = planned.iter().find(|node| std::ptr::eq(node.flwor, body))?;
        if let Some((_, Some(Whole::Rows(nested)))) = &node.whole {
            return (rename.is_none() && nested.row == row)
                .then_some(Operand { body, rename: None });
        }
        let own = selected(node.project.clone())?;
        let Some((var, ctor)) = rename else {
            return Some(Operand { body, rename: None });
        };
        let rename = selected(renamed(own, var, ctor))?.resolved(text);
        Some(Operand {
            body,
            rename: Some(rename),
        })
    };
    let operands = operands
        .into_iter()
        .map(operand)
        .collect::<Option<Vec<_>>>()?;
    let mut fuel = 0;
    each_expr(source, &mut |_| fuel += 1);
    Some(Rows {
        operands,
        set,
        fuel,
        row,
        order,
        keys,
    })
}

/// The operands of UNION ALL's `(A, B)`, or the one operand `A`.
fn concatenated(expr: &Expr) -> Vec<&Expr> {
    match expr {
        Expr::Sequence(operands) => operands.iter().collect(),
        operand => vec![operand],
    }
}

/// Runs a wrapper on the incoming tuple, in the interpreter's order: each
/// operand's tuples from [`Evaluator::flwor_tuples`], concatenated in order
/// — a rename's through its branches renamed — then, keyed by
/// [`record_key`] off the cell reads the projection makes, DISTINCT keeping
/// each row's first occurrence, INTERSECT ALL and EXCEPT ALL taking their
/// multiplicities from counts over the right operand, then the `order by`
/// as a stable sort on keys read by [`read_cells`] — off every cell of the
/// name, as `$r/CELL` reads the built row — and compared by the
/// interpreter's [`order_cmp`]. No view row is built; the consumer projects
/// each surviving tuple through its branch. **Fuel:** per view its
/// constructor and FLWOR, as [`run_view`] charges them (and a rename's
/// `$w/ROW`); `SRC`'s nodes; per surviving row one unit for the `for $r`
/// binding it replaces and the keys' nodes — and what the reads evaluate.
/// The row cap holds the surviving rows, as it held the `for $r` tuples.
/// Budget errors propagate; after any other the caller interprets the FLWOR.
fn run_rows<'a>(
    ev: &Evaluator<'a>,
    rows: &'a Rows<'a>,
    env: &Env<'a>,
    context: Option<&Item>,
) -> Result<Tuples<'a>, XqError> {
    let (mut all, mut right): (Vec<(Env<'a>, &Project<'a>)>, _) = (Vec::new(), 0);
    for operand in &rows.operands {
        ev.charge(2 + 3 * u64::from(operand.rename.is_some()))?;
        let tuples = ev.flwor_tuples(operand.body, env, context)?;
        let branch = |row| operand.rename.as_ref().or(tuples.branch(row));
        let branches = (0..tuples.envs.len())
            .map(branch)
            .collect::<Option<Vec<_>>>();
        let branches = branches.ok_or_else(|| XqError::new("a branch does not lower"))?;
        right = all.len();
        all.extend(tuples.envs.into_iter().zip(branches));
    }
    ev.charge(rows.fuel)?;
    let tuple = |row: usize| Tuple {
        ev,
        env: &all[row].0,
        context,
    };
    let (mut atoms, mut key, mut value) = (Vec::new(), String::new(), String::new());
    let mut key_of = |row: usize| {
        key.clear();
        row_key(all[row].1, &tuple(row), &mut key, &mut value)?;
        Ok::<_, XqError>(key.clone())
    };
    // The right operand's rows counted, the rest kept or not in order.
    let left = match rows.set {
        Set::Intersect | Set::Except => right,
        Set::Concat | Set::Distinct => all.len(),
    };
    let mut counts: HashMap<String, usize> = HashMap::new();
    for row in left..all.len() {
        *counts.entry(key_of(row)?).or_default() += 1;
    }
    let mut kept = Vec::with_capacity(left);
    for row in 0..left {
        let keep = match rows.set {
            Set::Concat => true,
            Set::Distinct => counts.insert(key_of(row)?, 1).is_none(),
            set => {
                let count = counts.get_mut(&key_of(row)?).filter(|n| **n > 0);
                count.map(|n| *n -= 1).is_some() == (set == Set::Intersect)
            }
        };
        if keep {
            kept.push(row);
            ev.charge(1)?;
            ev.check_rows(kept.len())?;
        }
    }
    if !rows.keys.is_empty() {
        let mut keyed = Vec::with_capacity(kept.len());
        for row in kept {
            let mut values = Vec::with_capacity(rows.keys.len());
            for &(name, cast, fuel) in &rows.keys {
                ev.charge(fuel)?;
                let cells = all[row].1.cells.iter();
                let cells = cells.filter(|cell| name_matches(&cell.name, name));
                read_cells(cells, cast, &tuple(row), &mut atoms)?;
                if atoms.len() > 1 {
                    return Err(XqError::new("order-by key of several values"));
                }
                values.push(atoms.pop());
            }
            keyed.push((values, row));
        }
        keyed.sort_by(|(a, _), (b, _)| order_cmp(rows.order, a, b));
        kept = keyed.into_iter().map(|(_, row)| row).collect();
    }
    let envs = kept.iter().map(|&row| all[row].0.clone()).collect();
    let each = Some(kept.iter().map(|&row| all[row].1).collect());
    Ok(Tuples {
        envs,
        each,
        own: None,
    })
}

/// Writes into `key` the key `fn-bea:distinct-records` gives the row
/// `project` makes of `tuple`: [`record_key`] of each cell's values, read
/// as the projection reads them (`value` is scratch).
fn row_key<'a>(
    project: &Project<'a>,
    tuple: &Tuple<'a>,
    key: &mut String,
    value: &mut String,
) -> Result<(), XqError> {
    for cell in &project.cells {
        let (name, mut values) = (cell.name.local_part(), 0);
        value.clear();
        let read = tuple.each_value(cell, &mut |read| {
            if cell.nullable {
                value.clear();
            }
            value.extend((values > 0 && !cell.nullable).then_some(' '));
            values += 1;
            read.write(value);
            if cell.nullable {
                record_key(key, name, value);
            }
            Ok(())
        });
        read.map_err(Halt::into_error)?;
        if !cell.nullable {
            record_key(key, name, value);
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// The sinks
// ---------------------------------------------------------------------

/// A program body lowered to the operator that writes its payload.
pub(crate) enum Sink<'p> {
    /// A delimited-text statement.
    Text(TextSink<'p>),
    /// An XML statement.
    Xml(Recordset<'p>),
}

/// The §4 wrapper, lowered: `V`'s `RECORD`s written piece by piece into
/// one string. Borrows the program body it was recognized in.
pub(crate) struct TextSink<'p> {
    /// `V`, the statement proper; evaluated as any expression is unless
    /// `fused`.
    rows: &'p Expr,
    /// The name test of `$q/RECORD`.
    record: &'p str,
    /// What one row writes, in order.
    pieces: Vec<Piece<'p>>,
    /// `V` as the rows' source when it is a [`Recordset`] whose rows
    /// `record` tests — a FLWOR whose own projection's columns resolve
    /// ([`Project::text`]), or a wrapper over rows `record` tests: each
    /// tuple is then written straight from its source cells and no element
    /// of `V` is ever built.
    fused: Option<Recordset<'p>>,
}

enum Piece<'p> {
    /// A separator: written as it is.
    Text(&'p str),
    /// `fn-bea:if-empty(fn-bea:xml-escape(fn-bea:serialize-atomic(
    /// fn:data($t/NAME))), "null")`.
    Column { name: &'p str, null: &'p str },
}

/// `<RECORDSET>{ FLWOR }</RECORDSET>`: an attribute-less constructor around
/// one FLWOR whose `return` lowers to a [`Project`], or that is a sort or
/// set wrapper the rows operator runs ([`rows`]) — what stage 3 emits for
/// every statement but INTERSECT and EXCEPT without ALL.
pub(crate) struct Recordset<'p> {
    name: QName,
    flwor: &'p Flwor,
}

/// The sole argument of a call of `name`.
fn call_of<'p>(expr: &'p Expr, name: &str) -> Option<&'p Expr> {
    match expr {
        Expr::FunctionCall { name: called, args } if called == name => match args.as_slice() {
            [arg] => Some(arg),
            _ => None,
        },
        _ => None,
    }
}

/// `START/NAME` — one name step, no predicate — as `(START, NAME)`.
fn one_step(expr: &Expr) -> Option<(&PathStart, &str)> {
    let Expr::Path { start, steps } = expr else {
        return None;
    };
    match steps.as_slice() {
        [Step {
            test: NodeTest::Name(name),
            predicates,
        }] if predicates.is_empty() => Some((start, name)),
        _ => None,
    }
}

/// `$var/NAME` — one step, no predicate — as `(var, NAME)`.
fn var_child(expr: &Expr) -> Option<(&str, &str)> {
    match one_step(expr)? {
        (PathStart::Var(var), name) => Some((var, name)),
        _ => None,
    }
}

/// Recognizes exactly what `aldsp_core::wrapper::wrap_delimited` emits
/// (the two are halves of one format; `tests/exec.rs` holds them
/// together): `fn:string-join((let $q := V for $t in $q/RECORD return
/// (piece, …)), "")`, every piece a string literal or the column chain of
/// [`Piece::Column`] over `$t`. Anything else is `None` and is
/// interpreted.
fn text_sink(body: &Expr) -> Option<TextSink<'_>> {
    let Expr::FunctionCall { name, args } = body else {
        return None;
    };
    let [Expr::Flwor(flwor), Expr::Literal(Atomic::String(separator))] = args.as_slice() else {
        return None;
    };
    if name != "fn:string-join" || !separator.is_empty() {
        return None;
    }
    let [Clause::Let {
        var: view,
        value: rows,
    }, Clause::For { var: row, source }] = flwor.clauses.as_slice()
    else {
        return None;
    };
    let record = match var_child(source)? {
        (var, record) if var == view => record,
        _ => return None,
    };
    let Expr::Sequence(pieces) = &*flwor.ret else {
        return None;
    };
    let pieces: Vec<Piece<'_>> = pieces
        .iter()
        .map(|piece| match piece {
            Expr::Literal(Atomic::String(text)) => Some(Piece::Text(text)),
            Expr::FunctionCall { name, args } if name == "fn-bea:if-empty" => {
                let [value, Expr::Literal(Atomic::String(null))] = args.as_slice() else {
                    return None;
                };
                let value = call_of(value, "fn-bea:xml-escape")?;
                let value = call_of(value, "fn-bea:serialize-atomic")?;
                match var_child(call_of(value, "fn:data")?)? {
                    (var, name) if var == row => Some(Piece::Column { name, null }),
                    _ => None,
                }
            }
            _ => None,
        })
        .collect::<Option<_>>()?;
    Some(TextSink {
        rows,
        record,
        pieces,
        fused: None,
    })
}

/// Resolves the columns against `project`'s cells, at plan time: per
/// piece, the cell whose elements the column reads. Declines — the rows are
/// then built and read — when `$q/RECORD` would not select the
/// projected rows, when two cells make one column's elements (one row
/// could then hold two values, which only a built row shows), or when a
/// cell is no column's: the interpreter evaluates it all the same, and its
/// error must not go missing.
fn resolve(
    pieces: &[Piece<'_>],
    record: &str,
    project: &Project<'_>,
) -> Option<Vec<Option<usize>>> {
    let mut read = vec![false; project.cells.len()];
    let mut cell = |piece: &Piece<'_>| match piece {
        Piece::Text(_) => Some(None),
        Piece::Column { name, .. } => {
            let at = cell_named(project, name)?;
            at.inspect(|&at| read[at] = true);
            Some(at)
        }
    };
    let cells = pieces.iter().map(&mut cell).collect::<Option<Vec<_>>>()?;
    let selected = name_matches(&project.name, record);
    (selected && read.iter().all(|&read| read)).then_some(cells)
}

/// Runs a sink: the payload, as it crosses the boundary.
///
/// A fused text sink and the XML sink take the FLWOR's tuples and write
/// each through [`project_rows`]. An unfused text sink evaluates `V` and
/// writes every `RECORD` child of its items, in document order, as a built
/// row. Either way a delimited column with no value writes its NULL
/// literal and with one that value, escaped in place; a second one in a
/// nullable column fails `fn-bea:serialize-atomic` in the interpreter, so
/// the sink gives up. Budget errors propagate; after any other the caller
/// interprets the body instead (see the module docs).
pub(crate) fn run_sink<'a>(
    ev: &Evaluator<'a>,
    sink: &Sink<'a>,
    env: &Env<'a>,
) -> Result<String, XqError> {
    let mut payload = String::new();
    match sink {
        Sink::Text(text) => {
            let fuel_per_row = 1 + text.pieces.len() as u64;
            let mut out = Output::Text {
                pieces: &text.pieces,
                payload: &mut payload,
            };
            match &text.fused {
                Some(view) => {
                    let tuples = ev.flwor_tuples(view.flwor, env, None)?;
                    tuples.project(ev, None, fuel_per_row, &mut out)?;
                }
                None => {
                    let views = ev.eval(text.rows, env, None)?;
                    let mut rows = 0;
                    for view in views.iter().filter_map(Item::as_element_ref) {
                        for record in view.child_elements() {
                            if !name_matches(record.name(), text.record) {
                                continue;
                            }
                            ev.charge(fuel_per_row)?;
                            rows += 1;
                            ev.check_rows(rows)?;
                            out.built(record)?;
                        }
                    }
                }
            }
        }
        Sink::Xml(body) => {
            let tuples = ev.flwor_tuples(body.flwor, env, None)?;
            write_start_tag(&mut payload, &body.name);
            let opened = payload.len();
            tuples.project(ev, None, 0, &mut Output::Xml(&mut payload))?;
            close_element(&mut payload, &body.name, 0, opened);
        }
    }
    Ok(payload)
}

// ---------------------------------------------------------------------
// The physical plan: one per statement
// ---------------------------------------------------------------------

/// A program's physical plan: every FLWOR's operators and the body's sink,
/// planned in one walk before the program runs (DESIGN.md §17, "One plan
/// per statement"). It holds nothing of a run — no tuple, table or count —
/// so one plan runs its statement under any bindings. Under
/// [`ExecStrategy::NestedLoop`] it is empty: every FLWOR is the
/// interpreter's.
pub struct PhysicalPlan<'p> {
    body: &'p Expr,
    /// Per FLWOR that plans to anything, found by its address: the
    /// programs stage 3 emits hold 3 to 11 FLWORs.
    nodes: Vec<FlworPlan<'p>>,
    /// Per aggregate an aggregate operator runs, by the address of its
    /// expression, the variable its value is bound to in a group.
    aggregates: Vec<(usize, String)>,
    sink: Option<Sink<'p>>,
}

/// One FLWOR's plan.
pub(crate) struct FlworPlan<'p> {
    flwor: &'p Flwor,
    /// The join pipeline over the clause prefix, where the prefix is
    /// hash-shaped ([`plan`]); `None` inside, one the planner declined.
    pub(crate) pipeline: Option<Option<Plan<'p>>>,
    /// Per `let` of a view, its clause and plan: the clause loop's.
    views: Vec<(usize, View<'p>)>,
    /// The operator that runs the FLWOR whole, as the lowering it counts
    /// as; `None` inside, one it declined.
    pub(crate) whole: Option<(Lowering, Option<Whole<'p>>)>,
    /// The `return`, lowered.
    project: Option<Project<'p>>,
    /// The sources its evaluation memoizes ([`invariant_sources`]), by
    /// address.
    pub(crate) memoized: Vec<usize>,
}

/// An operator that runs a FLWOR whole.
pub(crate) enum Whole<'p> {
    Aggregate(Box<Aggregate<'p>>),
    Rows(Rows<'p>),
}

/// The address a plan finds a FLWOR, an aggregate or a source by.
pub(crate) fn address<T>(at: &T) -> usize {
    at as *const T as usize
}

impl<'p> FlworPlan<'p> {
    /// Plans `flwor`, whose nested FLWORs `planned` holds already; `None`
    /// where nothing of it is an operator's.
    fn plan(
        flwor: &'p Flwor,
        planned: &[FlworPlan<'p>],
        text: Option<&TextSink<'_>>,
    ) -> Option<Self> {
        let at = 0..flwor.clauses.len();
        let views: Vec<_> = at.filter_map(|at| Some((at, view(flwor, at)?))).collect();
        let whole = match &*flwor.ret {
            Expr::VarRef(_) => {
                rows(flwor, planned, text).map(|(kind, rows)| (kind, rows.map(Whole::Rows)))
            }
            _ => {
                let inter = views
                    .first()
                    .filter(|(at, _)| *at == 0)
                    .map(|(_, view)| view);
                let agg = aggregate(flwor, inter);
                agg.map(|agg| (Lowering::Aggregate, agg.map(Whole::Aggregate)))
            }
        };
        let project = project(&flwor.ret).map(|project| project.resolved(text));
        let pipeline = plan(flwor);
        // A source inside a nested FLWOR that memoizes it is that FLWOR's.
        let mut memoized = invariant_sources(flwor);
        memoized.retain(|at| !planned.iter().any(|node| node.memoized.contains(at)));
        let plans = pipeline.is_some() || !views.is_empty() || whole.is_some();
        (plans || project.is_some() || !memoized.is_empty()).then_some(FlworPlan {
            flwor,
            pipeline,
            views,
            whole,
            project,
            memoized,
        })
    }

    /// The plan of clause `at`, a `let` of a view.
    pub(crate) fn view(&self, at: usize) -> Option<&View<'p>> {
        self.views
            .iter()
            .find(|(of, _)| *of == at)
            .map(|(_, view)| view)
    }

    /// Runs the operator that runs the FLWOR whole: its tuples, each tagged
    /// with its branch — an aggregate's are all the `return`'s. `None` where
    /// the plan declined it.
    pub(crate) fn run(
        &'p self,
        ev: &Evaluator<'p>,
        env: &Env<'p>,
        context: Option<&Item>,
    ) -> Option<Result<Tuples<'p>, XqError>> {
        Some(match self.whole.as_ref()?.1.as_ref()? {
            Whole::Rows(rows) => run_rows(ev, rows, env, context),
            Whole::Aggregate(agg) => run_aggregate(ev, agg, env, context).map(|envs| Tuples {
                envs,
                each: Some(Vec::new()),
                own: self.project.as_ref(),
            }),
        })
    }
}

/// What a [`PhysicalPlan`] runs for one expression of its program — the
/// body, or a FLWOR — read-only: for the tests that hold stage 3 and the
/// planner together, as a plan that stopped lowering something answers the
/// same rows, only slower.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lowered {
    /// Nothing: the interpreter's.
    Interpreted,
    /// A body as the delimited-text sink, `fused` when it is fed by the
    /// statement's tuples rather than by the `RECORD`s of the evaluated
    /// view.
    TextSink { fused: bool },
    /// A body as the XML sink.
    XmlSink,
    /// A FLWOR's operators.
    Flwor {
        /// Per `let` of a view a tail plan builds, its clause and the
        /// cells the plan prunes.
        views: Vec<(usize, u64)>,
        /// The aggregate: `None` for a FLWOR that is not one of stage 3's
        /// grouped ones, `Some(false)` for one it declines.
        aggregate: Option<bool>,
        /// The rows operator, likewise for stage 3's sort and set
        /// wrappers.
        rows: Option<bool>,
        /// Whether its `return` lowers to the projection operator.
        projection: bool,
        /// How many of its sources its evaluation memoizes.
        memoized: usize,
    },
}

impl<'p> PhysicalPlan<'p> {
    /// Plans `program` for `strategy`: the one planner walk, over every
    /// FLWOR of the body, nested ones first, then the sink. `payload` says
    /// the caller ships a payload, so an XML body may be sunk as well as a
    /// delimited one; without it an XML body's value is wanted as items.
    pub fn new(program: &'p Program, strategy: ExecStrategy, payload: bool) -> Self {
        let body = &program.body;
        let (nodes, aggregates, sink) = (Vec::new(), Vec::new(), None);
        let mut plan = PhysicalPlan {
            body,
            nodes,
            aggregates,
            sink,
        };
        if strategy == ExecStrategy::NestedLoop {
            return plan;
        }
        let text = match body {
            Expr::FunctionCall { .. } => text_sink(body),
            _ => None,
        };
        // The text sink's own FLWOR, `let $q := V for $t in $q/RECORD
        // return (…)`, is the sink's to run: where the sink gives up, the
        // interpreter evaluates it as written (its FLWORs through the plan).
        let wrapper = match (&text, body) {
            (Some(_), Expr::FunctionCall { args, .. }) => args.first(),
            _ => None,
        };
        let mut flwors = Vec::new();
        each_expr(body, &mut |expr| match expr {
            Expr::Flwor(flwor) if !wrapper.is_some_and(|w| std::ptr::eq(w, expr)) => {
                flwors.push(flwor)
            }
            _ => {}
        });
        // Pre-order, reversed: a FLWOR after every FLWOR inside it.
        for flwor in flwors.into_iter().rev() {
            let node = FlworPlan::plan(flwor, &plan.nodes, text.as_ref());
            if let Some(Some((_, Some(Whole::Aggregate(agg))))) = node.as_ref().map(|n| &n.whole) {
                let names = agg.aggs.iter().map(|(at, name, _)| (*at, name.clone()));
                plan.aggregates.extend(names);
            }
            plan.nodes.extend(node);
        }
        plan.sink = match text {
            Some(mut text) => {
                let rows = plan.recordset(text.rows);
                let fused = rows.filter(|(_, node)| match (&node.project, &node.whole) {
                    (Some(project), _) => project.text.is_some(),
                    (None, Some((_, Some(Whole::Rows(rows))))) => rows.row == text.record,
                    _ => false,
                });
                text.fused = fused.map(|(view, _)| view);
                Some(Sink::Text(text))
            }
            None if payload => plan.recordset(body).map(|(view, _)| Sink::Xml(view)),
            None => None,
        };
        plan
    }

    /// The node of `flwor`, which nothing of the plan runs without.
    pub(crate) fn node(&self, flwor: &Flwor) -> Option<&FlworPlan<'p>> {
        self.nodes
            .iter()
            .find(|node| std::ptr::eq(node.flwor, flwor))
    }

    /// The FLWOR, by address, whose evaluation memoizes `source`.
    pub(crate) fn memoized_by(&self, source: &Expr) -> Option<usize> {
        let at = address(source);
        let mut nodes = self.nodes.iter();
        let node = nodes.find(|node| node.memoized.contains(&at))?;
        Some(address(node.flwor))
    }

    /// The variable an aggregate operator binds `expr`'s value to.
    pub(crate) fn aggregate(&self, expr: &Expr) -> Option<&str> {
        let mut aggregates = self.aggregates.iter();
        aggregates
            .find(|(at, _)| *at == address(expr))
            .map(|(_, name)| &**name)
    }

    pub(crate) fn sink(&self) -> Option<&Sink<'p>> {
        self.sink.as_ref()
    }

    /// `expr` as a [`Recordset`] the plan runs, and its FLWOR's node.
    fn recordset(&self, expr: &'p Expr) -> Option<(Recordset<'p>, &FlworPlan<'p>)> {
        let Expr::Element(ctor) = expr else {
            return None;
        };
        let Expr::Flwor(flwor) = sole_enclosed(ctor)? else {
            return None;
        };
        let node = self.node(flwor)?;
        let rows = matches!(node.whole, Some((_, Some(Whole::Rows(_)))));
        let name = QName::parse(&ctor.name);
        (rows || node.project.is_some()).then_some((Recordset { name, flwor }, node))
    }

    /// What the plan runs for `expr`, the program's body or one of its
    /// FLWORs (see [`Lowered`]).
    pub fn lowered(&self, expr: &Expr) -> Lowered {
        let body = std::ptr::eq(expr, self.body);
        let node = match (&self.sink, expr) {
            (Some(Sink::Text(text)), _) if body => {
                return Lowered::TextSink {
                    fused: text.fused.is_some(),
                }
            }
            (Some(Sink::Xml(_)), _) if body => return Lowered::XmlSink,
            (_, Expr::Flwor(flwor)) => self.node(flwor),
            _ => None,
        };
        let Some(node) = node else {
            return Lowered::Interpreted;
        };
        let whole = |kinds: &[Lowering]| match &node.whole {
            Some((kind, whole)) if kinds.contains(kind) => Some(whole.is_some()),
            _ => None,
        };
        Lowered::Flwor {
            views: node
                .views
                .iter()
                .map(|(at, view)| (*at, view.pruned))
                .collect(),
            aggregate: whole(&[Lowering::Aggregate]),
            rows: whole(&[Lowering::Sort, Lowering::Set]),
            projection: node.project.is_some(),
            memoized: node.memoized.len(),
        }
    }
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

    /// `f` over the plan of `query`, whose body is a FLWOR, and that
    /// FLWOR's node.
    fn planned<R>(
        query: &str,
        f: impl FnOnce(&PhysicalPlan<'_>, Option<&FlworPlan<'_>>) -> R,
    ) -> R {
        let program = parse_program(query).unwrap_or_else(|e| panic!("{e}"));
        let Expr::Flwor(flwor) = &program.body else {
            panic!("expected a FLWOR body, got {:?}", program.body);
        };
        let plan = PhysicalPlan::new(&program, ExecStrategy::HashJoin, true);
        f(&plan, plan.node(flwor))
    }

    /// `f` over the join pipeline of `query`'s FLWOR body: `None` where the
    /// prefix is not hash-shaped, `Some(None)` where it is and the planner
    /// declined it.
    fn pipeline<R>(query: &str, f: impl FnOnce(Option<Option<&Plan<'_>>>) -> R) -> R {
        planned(query, |_, node| {
            f(node
                .and_then(|node| node.pipeline.as_ref())
                .map(Option::as_ref))
        })
    }

    fn lowers(query: &str) -> bool {
        pipeline(query, |plan| plan.flatten().is_some())
    }

    fn kinds(plan: &Plan<'_>) -> Vec<&'static str> {
        plan.ops
            .iter()
            .map(|op| match op {
                Op::For { .. } => "for",
                Op::Let { .. } => "let",
                Op::Filter(_) => "filter",
                Op::HashJoin { .. } => "join",
                Op::ProbeLet { .. } => "probe-let",
                Op::SemiJoin { .. } => "semi-join",
            })
            .collect()
    }

    #[test]
    fn plans_the_translator_join_shape() {
        let query = "for $a in ns0:CUSTOMERS() for $b in ns1:ORDERS() \
             where ($a/CUSTOMERID = $b/CUSTID) and ($b/AMOUNT > xs:integer(10)) \
             return $a";
        pipeline(query, |plan| {
            let plan = plan.flatten().expect("join shape should lower");
            assert_eq!(plan.consumed, 3);
            assert_eq!(plan.joins, 1);
            assert_eq!(kinds(plan), ["for", "join", "filter"]);
        });
    }

    #[test]
    fn plans_three_way_join_as_two_hash_joins() {
        let query = "for $a in ns0:CUSTOMERS() for $b in ns1:ORDERS() for $c in ns2:PAYMENTS() \
             where ($a/CUSTOMERID = $b/CUSTID) and ($a/CUSTOMERID = $c/CUSTID) \
             return $a";
        let joins = pipeline(query, |plan| plan.flatten().map(|plan| plan.joins));
        assert_eq!(joins, Some(2), "three-way join should lower");
    }

    #[test]
    fn plans_join_over_invariant_let_views() {
        // Paper Example 8's let-bound view shape, joined.
        let query = "let $t1 := <RECORDSET>{for $x in ns0:CUSTOMERS() return $x}</RECORDSET> \
             let $t2 := <RECORDSET>{for $y in ns1:ORDERS() return $y}</RECORDSET> \
             for $a in $t1/RECORD for $b in $t2/RECORD \
             where $a/CUSTOMERID = $b/CUSTID \
             return $a";
        let lowered = pipeline(query, |plan| plan.flatten().map(|p| (p.joins, p.consumed)));
        assert_eq!(lowered, Some((1, 5)), "let-view join should lower");
    }

    #[test]
    fn declines_unjoinable_shapes() {
        for query in [
            // Single for clause.
            "for $a in ns0:CUSTOMERS() where $a/ID = 1 return $a",
            // Correlated build source.
            "for $a in ns0:CUSTOMERS() for $b in $a/ORDERS where $a/ID = $b/ID return $a",
            // No equality conjunct between the two streams.
            "for $a in ns0:CUSTOMERS() for $b in ns1:ORDERS() where $a/ID < $b/ID return $a",
            // Value comparison stays on the interpreter.
            "for $a in ns0:CUSTOMERS() for $b in ns1:ORDERS() where $a/ID eq $b/ID return $a",
            // Both sides on the build variable: a filter, not a join.
            "for $a in ns0:CUSTOMERS() for $b in ns1:ORDERS() where $b/A = $b/B return $a",
            // A probe key that references only stream-constant bindings.
            "let $k := 5 for $a in ns0:CUSTOMERS() for $b in ns1:ORDERS() \
             where $k = $b/CUSTID return $a",
        ] {
            assert!(!lowers(query), "{query}");
        }
    }

    /// The outer-join arm as `gen_left_outer` writes it, with the ON's
    /// second conjunct as the residual.
    const OUTER_ARM: &str = "for $c in ns0:CUSTOMERS() \
         let $m := ns1:PAYMENTS()[(($c/CUSTOMERID=CUSTID) and (PAYMENT>$sqlParam1))] \
         return if (fn:empty($m)) then <L/> else (for $p in $m return <R/>)";

    #[test]
    fn plans_the_outer_join_let_filter_as_a_probe_let() {
        pipeline(OUTER_ARM, |plan| {
            let plan = plan.expect("shaped").expect("outer-join arm should lower");
            assert_eq!(kinds(plan), ["for", "probe-let"]);
            assert_eq!((plan.consumed, plan.joins), (2, 1));
            let Op::ProbeLet {
                var,
                source,
                cut: false,
                probe_key,
                build_key,
                rest,
                index,
            } = &plan.ops[1]
            else {
                unreachable!()
            };
            assert_eq!(*var, "m");
            assert!(index.is_some(), "a bare function keyed by one child");
            assert!(matches!(source, Expr::FunctionCall { name, .. } if name == "ns1:PAYMENTS"));
            assert_eq!(**probe_key, Expr::var_path("c", &["CUSTOMERID"]));
            assert!(uses_context(build_key));
            assert_eq!(rest.len(), 1, "the other ON conjunct stays a residual");
        });

        // RIGHT OUTER writes the context side first; a derived right side
        // hangs the predicate off the last step of a path over a view.
        let mirrored = "let $v := <RECORDSET>{for $x in ns1:PAYMENTS() return $x}</RECORDSET> \
             for $c in ns0:CUSTOMERS() \
             let $m := $v/RECORD[(CUSTID=$c/CUSTOMERID)] return $m";
        pipeline(mirrored, |plan| {
            let plan = plan.flatten().expect("path-form let-filter should lower");
            assert_eq!(kinds(plan), ["let", "for", "probe-let"]);
            let Op::ProbeLet {
                source, cut, rest, ..
            } = &plan.ops[2]
            else {
                unreachable!()
            };
            // The source is the path, read without its predicate.
            assert!(*cut && matches!(source, Expr::Path { steps, .. } if steps.len() == 1));
            assert!(rest.is_empty());
        });
    }

    #[test]
    fn plans_a_view_comparison_as_a_semi_join() {
        // Positive IN as stage 3 writes it ...
        let inline = "for $c in ns0:CUSTOMERS() \
             where ($c/CUSTOMERID = <RECORDSET>{ for $o in ns1:ORDERS() \
               where ($o/AMOUNT>$sqlParam1) return <RECORD><K>{fn:data($o/CUSTID)}</K></RECORD> \
             }</RECORDSET>/RECORD/K) and ($c/REGION = $sqlParam2) return $c";
        pipeline(inline, |plan| {
            let plan = plan.expect("shaped").expect("view comparison should lower");
            assert_eq!(kinds(plan), ["for", "semi-join", "filter"]);
            assert_eq!((plan.consumed, plan.joins), (2, 1));
        });

        // ... and with the view hoisted to a stream-invariant let.
        let hoisted =
            "let $v := (<RECORDSET>{for $o in ns1:ORDERS() return $o}</RECORDSET>)/RECORD \
             for $c in ns0:CUSTOMERS() where $c/CUSTOMERID = $v/CUSTID return $c";
        pipeline(hoisted, |plan| {
            let plan = plan
                .expect("shaped")
                .expect("let-view comparison should lower");
            assert_eq!(kinds(plan), ["let", "for", "semi-join"]);
        });

        // Beside an ordinary hash join, each conjunct keys one operator.
        let both = "let $v := <V>{ns1:ORDERS()}</V> \
             for $a in ns0:CUSTOMERS() for $b in ns1:PAYMENTS() \
             where ($a/CUSTOMERID = $b/CUSTID) and ($a/CUSTOMERID = $v/ORDERS/CUSTID) return $a";
        pipeline(both, |plan| {
            let plan = plan.flatten().unwrap();
            assert_eq!(kinds(plan), ["let", "for", "join", "semi-join"]);
            assert_eq!(plan.joins, 2);
        });
    }

    /// Per hash operator of `query`'s plan, its index request as
    /// `(function, child)`; `None` for one that keeps its table to
    /// itself.
    fn requests(query: &str) -> Vec<Option<(String, String)>> {
        pipeline(query, |plan| {
            let plan = plan.flatten().expect("should lower");
            let asked = plan.ops.iter().filter_map(|op| match op {
                Op::HashJoin { index, .. } | Op::ProbeLet { index, .. } => Some(
                    index
                        .as_ref()
                        .map(|i| (i.function.to_string(), i.child.to_string())),
                ),
                Op::SemiJoin { .. } => Some(None),
                _ => None,
            });
            asked.collect()
        })
    }

    fn request(function: &str, child: &str) -> Option<(String, String)> {
        Some((function.to_string(), child.to_string()))
    }

    #[test]
    fn marks_a_bare_function_keyed_by_one_child_indexable() {
        // Stage 3's own: the call written where it is scanned, the key on
        // either side of the `=`, atomized or not.
        assert_eq!(
            requests(
                "for $a in ns0:CUSTOMERS() for $b in ns1:ORDERS() \
                 where fn:data($b/CUSTID) = $a/CUSTOMERID return $a"
            ),
            [request("ORDERS", "CUSTID")]
        );
        // A three-way join's two builds.
        assert_eq!(
            requests(
                "for $a in ns0:CUSTOMERS() for $b in ns1:ORDERS() for $c in ns2:PAYMENTS() \
                 where ($a/CUSTOMERID = $b/CUSTID) and ($a/CUSTOMERID = $c/CUSTID) return $a"
            ),
            [request("ORDERS", "CUSTID"), request("PAYMENTS", "CUSTID")]
        );
        // The probe-let's cut-out base keys the context item's child — the
        // same rows by the same atoms, so the same index.
        assert_eq!(requests(OUTER_ARM), [request("PAYMENTS", "CUSTID")]);
        assert_eq!(
            requests(
                "for $c in ns0:CUSTOMERS() \
                 let $m := ns1:PAYMENTS()[(fn:data(CUSTID)=$c/CUSTOMERID)] return $m"
            ),
            [request("PAYMENTS", "CUSTID")]
        );
        // What building charges per row: the entry and the key's one node.
        pipeline(OUTER_ARM, |plan| {
            let Op::ProbeLet {
                index: Some(index), ..
            } = &plan.flatten().unwrap().ops[1]
            else {
                unreachable!()
            };
            assert_eq!(index.row_fuel, 2);
        });
    }

    #[test]
    fn keeps_every_other_build_side_to_the_statement() {
        let join = |source: &str, key: &str| {
            format!(
                "for $a in ns0:CUSTOMERS() for $b in {source} where $a/CUSTOMERID = {key} return $a"
            )
        };
        for (source, key) in [
            // A function with arguments, a builtin, a filtered or stepped
            // source: not every row of a function.
            ("ns1:ORDERS_BY_STATUS($sqlParam1)", "$b/CUSTID"),
            ("fn:reverse(ns1:ORDERS())", "$b/CUSTID"),
            ("ns1:ORDERS()[AMOUNT > 5]", "$b/CUSTID"),
            ("<V>{ns1:ORDERS()}</V>/ORDERS", "$b/CUSTID"),
            // Not one predicate-less name step off the row.
            ("ns1:ORDERS()", "$b/A/B"),
            ("ns1:ORDERS()", "$b/*"),
            ("ns1:ORDERS()", "$b/CUSTID[1]"),
            ("ns1:ORDERS()", "xs:integer($b/CUSTID)"),
            ("ns1:ORDERS()", "fn:data($b)"),
        ] {
            assert_eq!(requests(&join(source, key)), [None], "{source} by {key}");
        }
        // A key that names another variable as well as the row.
        assert_eq!(
            requests(
                "let $k := 1 for $a in ns0:CUSTOMERS() for $b in ns1:ORDERS() \
                 where $a/CUSTOMERID = ($b/CUSTID, $k) return $a"
            ),
            [None]
        );
        // A source named by a variable, whatever binds it: a `let` of the
        // call itself (stage 3 writes the call where it is scanned), a
        // `let` of more than the call, an enclosing FLWOR's variable.
        for bound in ["ns1:ORDERS()", "ns1:ORDERS()[AMOUNT > 5]"] {
            assert_eq!(
                requests(&format!(
                    "let $o := {bound} for $a in ns0:CUSTOMERS() for $b in $o \
                     where $a/CUSTOMERID = $b/CUSTID return $a"
                )),
                [None],
                "{bound}"
            );
        }
        assert_eq!(
            requests(
                "let $p := ns1:PAYMENTS() for $c in ns0:CUSTOMERS() \
                 let $m := $p[(fn:data(CUSTID)=$c/CUSTOMERID)] return $m"
            ),
            [None]
        );
        assert_eq!(
            requests(
                "for $a in ns0:CUSTOMERS() for $b in $outer where $a/CUSTOMERID = $b/CUSTID return $a"
            ),
            [None]
        );
        // A probe-let over a view's rows, and a semi-join.
        assert_eq!(
            requests(
                "let $v := <RECORDSET>{for $x in ns1:PAYMENTS() return $x}</RECORDSET> \
                 for $c in ns0:CUSTOMERS() let $m := $v/RECORD[(CUSTID=$c/CUSTOMERID)] return $m"
            ),
            [None]
        );
        assert_eq!(
            requests(
                "let $v := <V>{ns1:ORDERS()}</V> for $a in ns0:CUSTOMERS() \
                 where $a/CUSTOMERID = $v/ORDERS/CUSTID return $a"
            ),
            [None]
        );
    }

    /// Shaped, so a fallback is counted, but not lowered.
    fn assert_declined(query: &str) {
        let declined = pipeline(query, |plan| matches!(plan, Some(None)));
        assert!(declined, "should look hashable and decline: {query}");
    }

    /// Not even shaped: the early-out answers, nothing is counted.
    fn assert_not_shaped(query: &str) {
        let shaped = pipeline(query, |plan| plan.is_some());
        assert!(!shaped, "should not look hashable: {query}");
    }

    #[test]
    fn declines_unhashable_let_filters() {
        // Correlated SRC.
        assert_declined(
            "for $c in ns0:CUSTOMERS() let $m := $c/PAYMENTS[($c/CUSTOMERID=CUSTID)] return $m",
        );
        assert_declined(
            "for $c in ns0:CUSTOMERS() \
             let $m := ns1:PAYMENTS()[PAYMENT>$c/CREDIT][($c/CUSTOMERID=CUSTID)] return $m",
        );
        // No general `=`: an inequality, a value comparison, a negation.
        assert_declined(
            "for $c in ns0:CUSTOMERS() let $m := ns1:PAYMENTS()[($c/CUSTOMERID<CUSTID)] return $m",
        );
        assert_declined(
            "for $c in ns0:CUSTOMERS() let $m := ns1:PAYMENTS()[$c/CUSTOMERID eq CUSTID] return $m",
        );
        assert_declined(
            "for $c in ns0:CUSTOMERS() \
             let $m := ns1:PAYMENTS()[fn:not($c/CUSTOMERID=CUSTID)] return $m",
        );
        // Both sides on the context item, or neither.
        assert_declined(
            "for $c in ns0:CUSTOMERS() let $m := ns1:PAYMENTS()[(PAYMENTID=CUSTID)] return $m",
        );
        assert_declined(
            "for $c in ns0:CUSTOMERS() for $d in $c/KIDS \
             let $m := ns1:PAYMENTS()[($c/CUSTOMERID=$d/ID)] return $m",
        );
        // The tuple side may not read the context item as well.
        assert_declined(
            "for $c in ns0:CUSTOMERS() \
             let $m := ns1:PAYMENTS()[($c/ROW[ID=1]/CUSTOMERID=CUSTID)] return $m",
        );
        // A probe side that does not vary is a point lookup, not a join.
        assert_declined(
            "for $c in ns0:CUSTOMERS() let $m := ns1:PAYMENTS()[($sqlParam1=CUSTID)] return $m",
        );
        // Positional predicates, literal or computed.
        assert_declined("for $c in ns0:CUSTOMERS() let $m := ns1:PAYMENTS()[2] return $m");
        assert_declined(
            "for $c in ns0:CUSTOMERS() let $m := ns1:PAYMENTS()[xs:integer($c/N)] return $m",
        );
    }

    #[test]
    fn declines_comparisons_that_are_not_against_a_view() {
        // Point lookups and IN-lists keep today's path untouched.
        assert_not_shaped("for $c in ns0:CUSTOMERS() where $c/CUSTOMERID = 17 return $c");
        assert_not_shaped(
            "for $c in ns0:CUSTOMERS() where ($c/CUSTOMERID = xs:integer(17)) return $c",
        );
        assert_not_shaped("for $c in ns0:CUSTOMERS() where ($c/CUSTOMERID = $sqlParam1) return $c");
        assert_not_shaped(
            "for $c in ns0:CUSTOMERS() \
             where ($c/CUSTOMERID = ($sqlParam1, $sqlParam2, $sqlParam3)) return $c",
        );
        // A correlated subquery's own FLWOR: the right side is the outer
        // tuple's variable, not a view.
        assert_not_shaped("for $o in ns1:ORDERS() where ($o/CUSTID = $c/CUSTOMERID) return $o");
        // NOT IN and the FULL OUTER anti-join arm stay on the interpreter.
        assert_not_shaped(
            "let $v := (<V>{ns1:ORDERS()}</V>)/ORDERS for $c in ns0:CUSTOMERS() \
             where every $q in $v satisfies $c/CUSTOMERID != $q/CUSTID return $c",
        );
        assert_not_shaped(
            "for $p in ns1:PAYMENTS() \
             where fn:empty(ns0:CUSTOMERS()[(CUSTOMERID=$p/CUSTID)]) return $p",
        );
        assert_not_shaped(
            "for $c in ns0:CUSTOMERS() \
             where fn:not($c/CUSTOMERID = <V>{ns1:ORDERS()}</V>/ORDERS/CUSTID) return $c",
        );
        assert_not_shaped(
            "for $c in ns0:CUSTOMERS() \
             where ($c/CUSTOMERID < <V>{ns1:ORDERS()}</V>/ORDERS/CUSTID) return $c",
        );
        // The translator's column loops: one `for`, nothing else.
        assert_not_shaped("for $v in fn:data($r/NAME) return <NAME>{$v}</NAME>");

        // A view that depends on the tuple (a correlated IN) is shaped
        // but declined, as is a `let` that is not stream-invariant.
        assert_declined(
            "for $c in ns0:CUSTOMERS() \
             where ($c/CUSTOMERID = <RECORDSET>{ for $o in ns1:ORDERS() \
               where ($o/AMOUNT>$c/CREDIT) return <RECORD><K>{fn:data($o/CUSTID)}</K></RECORD> \
             }</RECORDSET>/RECORD/K) return $c",
        );
        assert_declined(
            "for $c in ns0:CUSTOMERS() let $kids := $c/KIDS \
             where $c/CUSTOMERID = $kids/ID return $c",
        );
    }

    #[test]
    fn projects_the_two_cell_shapes_and_nothing_else() {
        let lowers = |ret: &str| {
            let flwor = flwor_of(&format!("for $v in ns0:T() return {ret}"));
            project(&flwor.ret).is_some()
        };
        assert!(lowers(
            "<RECORD><T.A>{fn:data($v/A)}</T.A>{ for $s in fn:data($v/B) return <T.B>{$s}</T.B> }\
             <E>{xs:integer(fn:data($v/A)) + 1}</E></RECORD>"
        ));
        assert!(lowers("<R/>"), "no cell is no obstacle");
        for other in [
            "$v",
            "($v, $v)",
            "<R k=\"v\"><A>{1}</A></R>",
            "<R>text<A>{1}</A></R>",
            "<R>{$v/A}</R>",
            "<R><A>{1}{2}</A></R>",
            "<R><A/></R>",
            "<R><A k=\"v\">{1}</A></R>",
            "<R><A><B>{1}</B></A></R>",
            "<R>{ for $s in $v/A where $s > 1 return <A>{$s}</A> }</R>",
            "<R>{ for $s in $v/A return <A>{$v}</A> }</R>",
            "<R>{ for $s in $v/A return <A>{$s}</A>, 1 }</R>",
            "<R>{ let $s := $v/A return <A>{$s}</A> }</R>",
            // The column loops the operator replaces: asked, declined at
            // the first piece of content.
            "<A>{$v}</A>",
        ] {
            assert!(!lowers(other), "lowered: {other}");
        }
        // The fast cell is `fn:data` of one predicate-less name step off a
        // variable; everything else is evaluated.
        let flwor = flwor_of(
            "for $v in ns0:T() return <R><A>{fn:data($v/A)}</A><B>{fn:data($v/A[1])}</B>\
             <C>{fn:data($v/A/B)}</C><D>{fn:data($v/*)}</D><E>{fn:data(./A)}</E><F>{$v/A}</F></R>",
        );
        let fast: Vec<bool> = project(&flwor.ret)
            .unwrap()
            .cells
            .iter()
            .map(|cell| matches!(cell.value, Value::Child { .. }))
            .collect();
        assert_eq!(fast, [true, false, false, false, false, false]);
    }

    /// A grouped FLWOR as `gen_select_grouped` writes it, with `cells` for
    /// `$inter`'s row, `group` for the clauses between the view and the
    /// `where`, and `ret` for the `return`.
    fn grouped(cells: &str, group: &str, ret: &str) -> String {
        format!(
            "let $inter1 := <RECORDSET>{{ for $x in ns0:T() return <RECORD>{cells}</RECORD> }}</RECORDSET> \
             {group} return {ret}"
        )
    }

    const CELLS: &str = "<T.K>{fn:data($x/K)}</T.K>\
         { for $s in fn:data($x/V) return <T.V>{$s}</T.V> }<T.W>{fn:data($x/W)}</T.W>";
    const BY_K: &str = "for $r in $inter1/RECORD \
         group $r as $p by xs:integer(fn:data($r/T.K)) as $g where (fn:count($p) >= 2)";
    const ONE_GROUP: &str = "let $p := $inter1/RECORD";

    fn grouping(query: &str) -> &'static str {
        let aggregate = planned(query, |_, node| {
            match node.and_then(|node| node.whole.as_ref()) {
                Some((Lowering::Aggregate, agg)) => Some(agg.is_some()),
                _ => None,
            }
        });
        match aggregate {
            None => "other",
            Some(false) => "declined",
            Some(true) => "lowered",
        }
    }

    /// `f` over the aggregate `query`'s FLWOR body lowers to.
    fn with_aggregate<R>(query: &str, f: impl FnOnce(&Aggregate<'_>) -> R) -> R {
        planned(query, |_, node| {
            match node.and_then(|node| node.whole.as_ref()) {
                Some((_, Some(Whole::Aggregate(agg)))) => f(agg),
                _ => panic!("the grouped shape should lower: {query}"),
            }
        })
    }

    #[test]
    fn lowers_both_grouped_shapes_with_every_aggregate_a_variable() {
        // COUNT(*) twice (HAVING and SELECT), COUNT(V) and SUM(DISTINCT V):
        // a variable each, outermost first.
        let ret = "<RECORD><K>{$g}</K><N>{fn:count($p)}</N>\
             <C>{fn:count((for $a in $p return xs:decimal(fn:data($a/T.V))))}</C>\
             { for $v in (let $t := (fn:distinct-values((for $b in $p return \
             xs:decimal(fn:data($b/T.V))))) return if (fn:empty($t)) then () else fn:sum($t)) \
             return <S>{$v}</S> }</RECORD>";
        with_aggregate(&grouped(CELLS, BY_K, ret), |agg| {
            assert_eq!(
                (agg.keys.len(), agg.aggs.len(), agg.having.len()),
                (1, 4, 1)
            );
            let shapes: Vec<_> = agg
                .aggs
                .iter()
                .map(|(_, _, a)| (a.func, a.arg.is_some()))
                .collect();
            assert_eq!(
                shapes,
                [
                    ("fn:count", false),
                    ("fn:count", false),
                    ("fn:count", true),
                    ("fn:sum", true)
                ]
            );
            let (_, _, sum) = &agg.aggs[3];
            assert_eq!((sum.distinct, sum.guarded), (true, true));
            // The view's plan keeps the two cells read, `T.W` is dead.
            assert_eq!(agg.pruned, 1);
            // One unit for the row, three nodes for the key and each argument.
            assert_eq!(agg.row_fuel, 10);
            // Each a variable of the group's, named by its expression.
            let names: BTreeSet<_> = agg.aggs.iter().map(|(at, name, _)| (at, name)).collect();
            assert_eq!(names.len(), 4);
            assert!(names.iter().all(|(at, name)| **name == format!("#{at}")));
        });

        // No GROUP BY: the one group, MIN and AVG over untyped cells.
        let ret = "<RECORD><M>{fn:min((for $a in $p return fn:data($a/T.W)))}</M>\
             <A>{fn:avg((for $a in $p return xs:decimal(fn:data($a/T.V))))}</A></RECORD>";
        let shape = with_aggregate(&grouped(CELLS, ONE_GROUP, ret), |agg| {
            (agg.keys.len(), agg.aggs.len(), agg.row_fuel)
        });
        assert_eq!(shape, (0, 2, 6));
    }

    #[test]
    fn declines_what_it_does_not_read_and_ignores_what_is_not_grouped() {
        let n = "<RECORD><N>{fn:count($p)}</N></RECORD>";
        assert_eq!(grouping(&grouped(CELLS, BY_K, n)), "lowered");
        // The partition, a row or the view free outside the aggregates:
        // `fn:sum` without its guard, a bare partition, the group source,
        // an aggregate over no cell read.
        for ret in [
            "<RECORD><S>{fn:sum((for $a in $p return fn:data($a/T.V)))}</S></RECORD>",
            "<RECORD>{$p}</RECORD>",
            "<RECORD><K>{fn:data($r/T.K)}</K></RECORD>",
            "<RECORD><N>{fn:count($inter1/RECORD)}</N></RECORD>",
            "<RECORD><C>{fn:count((for $a in $p return $a/T.V))}</C></RECORD>",
        ] {
            assert_eq!(grouping(&grouped(CELLS, BY_K, ret)), "declined", "{ret}");
        }
        // A key that is not a cell read of the row variable.
        for key in [
            "fn:string($r)",
            "xs:integer(fn:data($r/T.K)) + 1",
            "fn:data($r/T.K/X)",
            "fn:data($inter1/RECORD/T.K)",
        ] {
            let group = format!("for $r in $inter1/RECORD group $r as $p by {key} as $g");
            assert_eq!(grouping(&grouped(CELLS, &group, n)), "declined", "{key}");
        }
        // Two cells of one name where a key reads it, and a cell whose value
        // is evaluated — an unread cell's error must not go missing.
        let twice = "<T.K>{fn:data($x/K)}</T.K><T.K>{fn:data($x/W)}</T.K>";
        assert_eq!(grouping(&grouped(twice, BY_K, n)), "declined");
        let evaluated = "<T.K>{fn:data($x/K)}</T.K><E>{xs:integer(fn:data($x/W)) + 1}</E>";
        assert_eq!(grouping(&grouped(evaluated, BY_K, n)), "declined");
        assert_eq!(grouping(&grouped(evaluated, ONE_GROUP, n)), "declined");
        // Rows `$inter/ROW` does not select.
        let other_row = BY_K.replace("$inter1/RECORD", "$inter1/ROW");
        assert_eq!(grouping(&grouped(CELLS, &other_row, n)), "declined");

        // Not the grouped shape: nothing asked.
        for group in [
            "for $r in $inter1/RECORD",
            "for $r in $inter1/RECORD order by fn:data($r/T.K)",
            "let $p := $inter1/RECORD for $q in $p",
            "let $p := $other/RECORD",
            "for $r in $inter1/RECORD group $r as $p by fn:data($r/T.K) as $g order by $g",
        ] {
            assert_eq!(grouping(&grouped(CELLS, group, n)), "other", "{group}");
        }
        assert_eq!(grouping("for $x in ns0:T() return $x"), "other");
    }

    /// `let $l := VIEW(cells) [let $r := VIEW(cells)] …` for [`rows_of`].
    fn view(var: &str, table: &str, cells: &str) -> String {
        format!(
            "let ${var} := <RECORDSET>{{ for $x in ns0:{table}() return \
             <RECORD>{cells}</RECORD> }}</RECORDSET> "
        )
    }

    const A: &str = "<A>{fn:data($x/A)}</A>{ for $s in fn:data($x/B) return <B>{$s}</B> }";

    /// What the rows operator makes of a FLWOR: `(lowering, planned)`.
    fn rows_of(query: &str) -> Option<(Lowering, bool)> {
        planned(query, |_, node| {
            match node.and_then(|node| node.whole.as_ref()) {
                Some((kind @ (Lowering::Sort | Lowering::Set), rows)) => {
                    Some((*kind, rows.is_some()))
                }
                _ => None,
            }
        })
    }

    #[test]
    fn lowers_every_wrapper_stage_3_writes() {
        let (l, r) = (view("l", "T", A), view("r", "U", A));
        let rename = "let $n := <RECORDSET>{ for $y in $r/RECORD return <RECORD>\
             <A>{fn:data($y/A)}</A>{ for $s in fn:data($y/B) return <B>{$s}</B> }\
             </RECORD> }</RECORDSET> ";
        let set = Some((Lowering::Set, true));
        for query in [
            format!("{l}for $z in $l/RECORD return $z"),
            format!("{l}for $z in fn-bea:distinct-records($l/RECORD) return $z"),
            format!("{l}{r}for $z in ($l/RECORD, $r/RECORD) return $z"),
            format!(
                "{l}{r}{rename}for $z in fn-bea:distinct-records(($l/RECORD, $n/RECORD)) return $z"
            ),
            format!("{l}{r}for $z in fn-bea:intersect-all-records($l/RECORD, $r/RECORD) return $z"),
            format!(
                "{l}{r}{rename}for $z in fn-bea:except-all-records($l/RECORD, $n/RECORD) return $z"
            ),
        ] {
            assert_eq!(rows_of(&query), set, "{query}");
        }
        // ORDER BY's keys, with a cast, `fn:data` or neither, over a view,
        // a DISTINCT wrapper and a grouped select.
        let sort = Some((Lowering::Sort, true));
        let distinct = format!(
            "let $o := <RECORDSET>{{ {l}for $z in fn-bea:distinct-records($l/RECORD) return $z \
             }}</RECORDSET> "
        );
        let grouped = "let $o := <RECORDSET>{ let $inter1 := <RECORDSET>{ for $x in ns0:T() \
             return <RECORD><T.A>{fn:data($x/A)}</T.A></RECORD> }</RECORDSET> \
             for $g in $inter1/RECORD group $g as $p by fn:data($g/T.A) as $k \
             return <RECORD><A>{$k}</A><N>{fn:count($p)}</N></RECORD> }</RECORDSET> ";
        for (views, key) in [
            (
                l.replace("$l", "$o"),
                "xs:integer($z/A) descending, fn:data($z/B)",
            ),
            (distinct, "$z/B empty greatest"),
            (grouped.to_string(), "xs:integer(fn:data($z/N)), $z/A"),
        ] {
            let query = format!("{views}for $z in $o/RECORD order by {key} return $z");
            assert_eq!(rows_of(&query), sort, "{query}");
        }
    }

    #[test]
    fn declines_what_it_cannot_read_and_asks_nothing_of_the_rest() {
        let (l, r) = (view("l", "T", A), view("r", "U", A));
        let declined = |query: String| {
            let lowered = rows_of(&query).map(|(_, planned)| planned);
            assert_eq!(lowered, Some(false), "{query}");
        };
        // A view read twice, or not at all: its rows and its error count.
        declined(format!("{l}for $z in ($l/RECORD, $l/RECORD) return $z"));
        declined(format!("{l}{r}for $z in $l/RECORD return $z"));
        // A key that is no cell read of the row variable.
        for key in [
            "xs:integer($z/A) + 1",
            "fn:string($z)",
            "$z/A/X",
            "$z/A[1]",
            "$l/RECORD/A",
        ] {
            declined(format!("{l}for $z in $l/RECORD order by {key} return $z"));
        }
        // Two cells of the name a key reads are read both, as `$z/A` reads
        // the built row: lowered.
        let twice = view("l", "T", "<A>{fn:data($x/A)}</A><A>{fn:data($x/B)}</A>");
        let query = format!("{twice}for $z in $l/RECORD order by $z/A return $z");
        assert_eq!(rows_of(&query), Some((Lowering::Sort, true)));
        // A rename that leaves an evaluated source cell unread, reads a
        // name no cell or two make, or reads anything but a cell.
        let evaluated = view(
            "r",
            "U",
            "<A>{fn:data($x/A)}</A><E>{xs:integer(fn:data($x/B))}</E>",
        );
        for (source, cells) in [
            (evaluated.as_str(), "<A>{fn:data($y/A)}</A>"),
            (r.as_str(), "<A>{fn:data($y/C)}</A>"),
            (twice.replace("$l", "$r").as_str(), "<A>{fn:data($y/A)}</A>"),
            (r.as_str(), "<A>{fn:data($y/A) + 1}</A>"),
        ] {
            declined(format!(
                "{l}{source}let $n := <RECORDSET>{{ for $y in $r/RECORD return \
                 <RECORD>{cells}</RECORD> }}</RECORDSET> \
                 for $z in ($l/RECORD, $n/RECORD) return $z"
            ));
        }
        // A `let` that is no view, a body that reads another view, an
        // operand with a predicate, rows `$v/RECORD` does not select, two
        // row tests, an intersection of three.
        for query in [
            "let $l := ns0:T() for $z in $l/RECORD return $z".to_string(),
            format!("{l}let $r := <RECORDSET>{{ for $x in $l/RECORD where $x/A > 1 return $x }}</RECORDSET> for $z in $r/RECORD return $z"),
            format!("{l}for $z in $l/RECORD[A > 1] return $z"),
            format!("{l}for $z in $l/ROW return $z"),
            format!("{l}{}for $z in ($l/RECORD, $r/ROW) return $z", r.replace("RECORD>", "ROW>")),
            format!("{l}{r}for $z in fn-bea:intersect-all-records($l/RECORD, $r/RECORD, $r/RECORD) return $z"),
        ] {
            declined(query);
        }
        // Not a wrapper: INTERSECT and EXCEPT without ALL filter with a
        // `where`; a `return` that is no row variable; no `let`.
        for query in [
            format!(
                "{l}{r}for $z in fn-bea:distinct-records($l/RECORD) \
                 where (some $y in $r/RECORD satisfies ($z/A = $y/A)) return $z"
            ),
            format!("{l}for $z in $l/RECORD return $l"),
            format!("{l}for $z in $l/RECORD return <R>{{$z}}</R>"),
            "for $z in ns0:T() return $z".to_string(),
        ] {
            assert_eq!(rows_of(&query), None, "{query}");
        }
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
        let hasher = RandomState::new();
        for a in &corpus {
            for b in &corpus {
                if a.compare(b) != Some(Ordering::Equal) {
                    continue;
                }
                let (mut pa, mut pb) = (Vec::new(), Vec::new());
                join_projections(a, &hasher, &mut pa);
                join_projections(b, &hasher, &mut pb);
                assert!(
                    pa.iter().any(|k| pb.contains(k)),
                    "{a:?} equals {b:?} but shares no projection hash ({pa:?} vs {pb:?})"
                );
            }
        }
    }

    /// Rows `<L><K>key</K><N>n</N></L>` of `L()` and `R()`, and a join index
    /// whose every bucket holds every row — as if each key's projections
    /// hashed alike — so a probe's candidates are the whole table.
    struct Colliding;

    impl crate::FunctionSource for Colliding {
        fn call(&self, _: Option<&str>, local: &str, _: &[Sequence]) -> Result<Sequence, XqError> {
            let keys: &[&str] = match local {
                "L" => &["1", "2", "x", "2"],
                "R" => &["2", " 1", "y", "2.0", "x", "1", "2"],
                _ => return Err(XqError::new(format!("unknown function {local}"))),
            };
            let row = |(n, key): (usize, &&str)| {
                let cell = |name: &str, text: String| Element::new(name).with_text(text);
                let row = Element::new(local).with_child(cell("K", key.to_string()));
                Item::element(row.with_child(cell("N", n.to_string())))
            };
            Ok(keys.iter().enumerate().map(row).collect())
        }

        fn join_index(
            &self,
            _: &str,
            _: &str,
            _: &Sequence,
            build: &dyn Fn() -> Result<Arc<JoinTable>, XqError>,
        ) -> Result<Arc<JoinTable>, XqError> {
            let mut table = build()?;
            let held = Arc::get_mut(&mut table).expect("a table just built is held once");
            let every: Vec<usize> = (0..held.entries.len()).collect();
            for bucket in held.buckets.values_mut() {
                bucket.clone_from(&every);
            }
            Ok(table)
        }
    }

    #[test]
    fn colliding_buckets_still_join_only_equal_keys_in_build_order() {
        use crate::eval::evaluate_program_exec;
        use aldsp_governor::QueryBudget;
        let program = parse_program(
            "for $l in ns0:L() for $r in ns0:R() where $l/K = $r/K \
             return <P>{fn:data($l/N)}:{fn:data($r/N)}</P>",
        )
        .unwrap_or_else(|e| panic!("{e}"));
        let run = |strategy| {
            let budget = QueryBudget::unlimited();
            let out = evaluate_program_exec(&program, &Colliding, &[], Some(&budget), strategy);
            let out = out.unwrap_or_else(|e| panic!("{e}"));
            (aldsp_xml::serialize_sequence(&out), budget.index_counts())
        };
        let (hashed, built) = run(ExecStrategy::HashJoin);
        // Untyped keys compare as text: " 1" and "2.0" match nothing; each
        // `L` row meets its equals among `R`'s in `R`'s order.
        let expected = "<P>0:5</P><P>1:0</P><P>1:6</P><P>2:4</P><P>3:0</P><P>3:6</P>";
        assert_eq!(hashed, expected);
        assert_eq!(built, (1, 0), "the join went through the colliding index");
        assert_eq!(run(ExecStrategy::NestedLoop).0, expected);
    }
}
