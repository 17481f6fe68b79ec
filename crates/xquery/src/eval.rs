//! The XQuery evaluator.
//!
//! Evaluates the dialect AST over the `aldsp-xml` data model. FLWOR
//! expressions run as tuple streams (each clause transforms a vector of
//! variable environments), which makes the BEA group-by extension a
//! straightforward stream re-partitioning.
//!
//! This module is two things. It is the **reference**: the interpreter
//! under [`ExecStrategy::NestedLoop`] evaluates every expression exactly as
//! written — no shape is recognized, nothing is reordered or skipped — and
//! its job is fidelity, not speed; it is what the `+hash` lanes of the
//! differential matrix and analyzer layer 5 compare against, and what
//! every operator falls back to (`interpret_on_error`). And it is the
//! **engine**'s front door: under [`ExecStrategy::HashJoin`] the statement
//! is planned once ([`PhysicalPlan`]) and the same walk hands what the plan
//! holds to its operators — a FLWOR's join-shaped clause prefix, a whole
//! grouped FLWOR or sort or set wrapper (`Evaluator::flwor_tuples`), its
//! `return <RECORD>…</RECORD>` (`eval_flwor`), a program body that is a
//! sink's ([`evaluate_program_exec`], [`evaluate_program_to_payload`]) —
//! and interprets the rest — a loop-invariant source the plan names
//! evaluated once per evaluation of its FLWOR (`Evaluator::source`).
//! (The paper leaves optimization to the server's compiler, §3.2; `exec`
//! is this repository's share of that compiler.)

use crate::ast::*;
use crate::exec::{self, AtomKey, JoinTable, PhysicalPlan, Tuples};
use crate::functions::{call_builtin, coerce_numeric, data};
use aldsp_governor::{BudgetError, ExecStrategy, LoweringOutcome, QueryBudget};
use aldsp_xml::{Atomic, Element, ElementRef, Item, Node, QName, Sequence};
use std::cell::{Cell, RefCell};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// What stopped evaluation: an ordinary dynamic error, or a resource
/// budget the caller imposed. Callers that govern evaluation (the
/// driver) use this to map budget violations onto their own typed
/// errors instead of pattern-matching message strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum XqErrorKind {
    /// A dynamic error from the query itself (type error, unknown
    /// function, division by zero, ...).
    #[default]
    General,
    /// A [`QueryBudget`] limit was hit (deadline, fuel, row cap, or
    /// cooperative cancellation).
    Budget(BudgetError),
}

/// Evaluation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XqError {
    /// Human-readable description.
    pub message: String,
    /// Classification of the failure.
    pub kind: XqErrorKind,
}

impl XqError {
    /// Creates an ordinary dynamic error.
    pub fn new(message: impl Into<String>) -> XqError {
        XqError {
            message: message.into(),
            kind: XqErrorKind::General,
        }
    }

    /// Creates a budget-violation error.
    pub fn budget(err: BudgetError) -> XqError {
        XqError {
            message: err.to_string(),
            kind: XqErrorKind::Budget(err),
        }
    }

    /// The budget violation behind this error, when there is one.
    pub fn budget_error(&self) -> Option<BudgetError> {
        match self.kind {
            XqErrorKind::Budget(b) => Some(b),
            XqErrorKind::General => None,
        }
    }
}

impl fmt::Display for XqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for XqError {}

/// Resolves data-service function calls (`ns0:CUSTOMERS()`); the driver
/// implements this over catalog-backed relational tables.
pub trait FunctionSource {
    /// Calls the function `local` in `namespace` (resolved from the
    /// prolog's prefix bindings; `None` when the prefix was not imported).
    fn call(
        &self,
        namespace: Option<&str>,
        local: &str,
        args: &[Sequence],
    ) -> Result<Sequence, XqError>;

    /// The join index over `rows` keyed by the atoms of each row's `child`
    /// children — what a hash operator of [`crate::exec`] asks for when
    /// its build side is every row of the function `local`, where `rows`
    /// is what the statement's own `call` of it returned. `build` makes
    /// the table from those rows; the default builds and keeps nothing, so
    /// every statement keys the rows itself. A source that hands out the
    /// same row elements call after call may keep what `build` returned
    /// beside them and answer a later request with it — but only a request
    /// whose `rows` are, element for element, the ones the kept table was
    /// built from: a table is a snapshot of one `call`, the statement's.
    /// (The driver's server meets this by construction: a statement's
    /// source answers every `call` from one snapshot, which hands out one
    /// materialization per function and keeps the table beside it.)
    /// No lock should be held while `build` runs (it keys every row); an
    /// error of `build` is the request's, and nothing is kept.
    fn join_index(
        &self,
        _local: &str,
        _child: &str,
        _rows: &Sequence,
        build: &dyn Fn() -> Result<Arc<JoinTable>, XqError>,
    ) -> Result<Arc<JoinTable>, XqError> {
        build()
    }
}

/// A source with no functions — parse-and-evaluate tests over pure
/// expressions use this.
pub struct EmptyFunctionSource;

impl FunctionSource for EmptyFunctionSource {
    fn call(
        &self,
        namespace: Option<&str>,
        local: &str,
        _args: &[Sequence],
    ) -> Result<Sequence, XqError> {
        Err(XqError::new(format!(
            "unknown function {}:{local}",
            namespace.unwrap_or("?")
        )))
    }
}

/// Persistent variable environment: a shared-tail linked list, so binding
/// inside a FLWOR tuple is O(1) and tuples share their common prefix.
///
/// A binding borrows its name: `'a` is the evaluation's, and every name
/// bound outlives it — a binder of the program's AST, an external
/// variable of the caller's `vars`, a variable the statement's
/// [`PhysicalPlan`] introduces. A bind allocates its node and nothing else.
#[derive(Clone, Default)]
pub struct Env<'a>(Option<Arc<EnvNode<'a>>>);

struct EnvNode<'a> {
    name: &'a str,
    value: Sequence,
    parent: Env<'a>,
}

impl<'a> Env<'a> {
    /// The empty environment.
    pub fn new() -> Env<'a> {
        Env(None)
    }

    /// Returns a new environment with `name` bound to `value`.
    pub fn bind(&self, name: &'a str, value: Sequence) -> Env<'a> {
        Env(Some(Arc::new(EnvNode {
            name,
            value,
            parent: self.clone(),
        })))
    }

    /// [`Env::lookup`], or the dynamic error of reading an unbound `$name`.
    pub(crate) fn value_of(&self, name: &str) -> Result<&Sequence, XqError> {
        self.lookup(name)
            .ok_or_else(|| XqError::new(format!("undefined variable ${name}")))
    }

    /// Innermost binding of `name`.
    pub fn lookup(&self, name: &str) -> Option<&Sequence> {
        let mut current = self;
        while let Some(node) = &current.0 {
            if node.name == name {
                return Some(&node.value);
            }
            current = &node.parent;
        }
        None
    }
}

/// The evaluator: function source plus the prolog's prefix bindings,
/// and an optional [`QueryBudget`] charged at expression and tuple
/// granularity.
pub struct Evaluator<'a> {
    functions: &'a dyn FunctionSource,
    prefixes: HashMap<String, String>,
    budget: Option<&'a QueryBudget>,
    /// What runs each FLWOR and the body: planned once per evaluation.
    plan: &'a PhysicalPlan<'a>,
    /// A frame per running clause loop of a FLWOR that memoizes sources.
    memo: RefCell<Vec<Frame>>,
}

/// A FLWOR's address, and the values of the sources it memoizes that its
/// clause loop has evaluated so far, by address.
type Frame = (usize, Vec<(usize, Sequence)>);

/// Evaluates a parsed program against a function source: no external
/// variables, no budget, the nested-loop interpreter.
pub fn evaluate_program(
    program: &Program,
    functions: &dyn FunctionSource,
) -> Result<Sequence, XqError> {
    evaluate_program_exec(program, functions, &[], None, ExecStrategy::NestedLoop)
}

/// Evaluates a program with pre-bound external variables (how the driver
/// supplies JDBC prepared-statement parameters, `$sqlParam1`, ...) under
/// an optional [`QueryBudget`] and a chosen [`ExecStrategy`].
///
/// With a budget, the evaluator charges one fuel unit per expression node
/// and per FLWOR tuple binding, polls the wall-clock deadline and
/// cancellation token at those charge points, and enforces the row cap
/// while `for` clauses expand — so a runaway cartesian product stops
/// mid-expansion instead of exhausting memory first.
///
/// Under [`ExecStrategy::HashJoin`] the evaluator lowers what
/// [`crate::exec`] recognizes — join-shaped FLWOR prefixes, `return
/// <RECORD>…</RECORD>`, the §4 wrapper (whose payload is then this
/// function's singleton string) — onto its operators; everything else —
/// and everything under [`ExecStrategy::NestedLoop`] — runs on the
/// interpreter. The strategy never changes observable results, only how
/// (and how fast) they are produced.
pub fn evaluate_program_exec(
    program: &Program,
    functions: &dyn FunctionSource,
    vars: &[(String, Sequence)],
    budget: Option<&QueryBudget>,
    strategy: ExecStrategy,
) -> Result<Sequence, XqError> {
    evaluate(program, functions, vars, budget, strategy, false)
}

/// [`evaluate_program_exec`] for a caller that ships the result: evaluates
/// and serializes as it crosses the boundary. The payload is the single
/// string of a delimited-text statement, moved out, or the XML
/// serialization of the result sequence — which, under
/// [`ExecStrategy::HashJoin`], a body of the shape stage 3 emits for a
/// plain `SELECT` is written as while it is evaluated, so the `<RECORDSET>`
/// tree is never built.
pub fn evaluate_program_to_payload(
    program: &Program,
    functions: &dyn FunctionSource,
    vars: &[(String, Sequence)],
    budget: Option<&QueryBudget>,
    strategy: ExecStrategy,
) -> Result<String, XqError> {
    let mut items = evaluate(program, functions, vars, budget, strategy, true)?.into_items();
    Ok(match items.as_mut_slice() {
        [Item::Atomic(Atomic::String(text))] => std::mem::take(text),
        _ => aldsp_xml::serialize_sequence(&Sequence::from_items(items)),
    })
}

/// The one entry behind both public ones: `program` planned for `strategy`
/// — the one place it is read — and run. `xml_sink` says the caller wants
/// a payload, so an XML body may be sunk as well as a delimited one.
fn evaluate(
    program: &Program,
    functions: &dyn FunctionSource,
    vars: &[(String, Sequence)],
    budget: Option<&QueryBudget>,
    strategy: ExecStrategy,
    xml_sink: bool,
) -> Result<Sequence, XqError> {
    let plan = PhysicalPlan::new(program, strategy, xml_sink);
    run(program, &plan, functions, vars, budget)
}

/// Runs `program` as `plan` says: the items the body came to, or — where
/// a sink wrote it — the payload, one string.
fn run(
    program: &Program,
    plan: &PhysicalPlan<'_>,
    functions: &dyn FunctionSource,
    vars: &[(String, Sequence)],
    budget: Option<&QueryBudget>,
) -> Result<Sequence, XqError> {
    if let Some(budget) = budget {
        budget.check().map_err(XqError::budget)?;
    }
    let evaluator = Evaluator {
        functions,
        prefixes: program
            .imports
            .iter()
            .map(|i| (i.prefix.clone(), i.namespace.clone()))
            .collect(),
        budget,
        plan,
        memo: RefCell::default(),
    };
    let mut env = Env::new();
    for (name, value) in vars {
        env = env.bind(name, value.clone());
    }
    if let Some(sink) = plan.sink() {
        let written = interpret_on_error(exec::run_sink(&evaluator, sink, &env))?;
        if let Some(budget) = budget {
            match written {
                Some(_) => budget.record_sink(),
                None => budget.record_sink_fallback(),
            }
        }
        if let Some(payload) = written {
            return Ok(Sequence::singleton(Atomic::String(payload)));
        }
        // No silent fallback: a sink gives up only on what the
        // interpreter fails on too.
        let interpreted = evaluator.eval(&program.body, &env, None);
        debug_assert!(
            interpreted.is_err(),
            "a sink failed on a body the interpreter evaluates"
        );
        return interpreted;
    }
    evaluator.eval(&program.body, &env, None)
}

/// What a pipeline operator's error means (DESIGN.md §17, "Fallback and
/// error parity"). A budget violation is a limit already hit: it
/// propagates. After any other dynamic error the answer is `None` and the
/// caller runs the interpreter instead — the pipeline may have evaluated
/// expressions the interpreter never would, or in another order, so the
/// interpreter's outcome, value or error, is the authoritative one.
fn interpret_on_error<T>(piped: Result<T, XqError>) -> Result<Option<T>, XqError> {
    match piped {
        Ok(value) => Ok(Some(value)),
        Err(e) if e.budget_error().is_some() => Err(e),
        Err(_) => Ok(None),
    }
}

impl<'a> Evaluator<'a> {
    /// Spends `n` fuel units, surfacing deadline/cancellation/fuel
    /// violations as typed budget errors.
    pub(crate) fn charge(&self, n: u64) -> Result<(), XqError> {
        match self.budget {
            Some(budget) => budget.charge(n).map_err(XqError::budget),
            None => Ok(()),
        }
    }

    /// Enforces the row cap on a materialized collection size — the
    /// naive tuple vector, a hash-join build table, or the pipeline's
    /// output.
    pub(crate) fn check_rows(&self, rows: usize) -> Result<(), XqError> {
        match self.budget {
            Some(budget) => budget.check_rows(rows as u64).map_err(XqError::budget),
            None => Ok(()),
        }
    }

    /// Counts a `let`-bound view: built by its tail plan less `pruned`
    /// cells, or — `None` — handed back to the interpreter.
    pub(crate) fn record_view(&self, pruned: Option<u64>) {
        if let Some(budget) = self.budget {
            budget.record_view(pruned);
        }
    }

    /// The table over `rows`, an indexable build side, through the function
    /// source ([`FunctionSource::join_index`]), and whether the source
    /// *found* it — `build` did not run.
    pub(crate) fn join_index(
        &self,
        index: &exec::Indexed<'_>,
        rows: &Sequence,
        build: &dyn Fn() -> Result<JoinTable, XqError>,
    ) -> Result<(Arc<JoinTable>, bool), XqError> {
        let built = Cell::new(false);
        let counted = || {
            built.set(true);
            build().map(Arc::new)
        };
        let table = self
            .functions
            .join_index(index.function, index.child, rows, &counted)?;
        if let Some(budget) = self.budget {
            budget.record_index(built.get());
        }
        Ok((table, !built.get()))
    }

    /// Evaluates `expr` in `env`, with an optional context item (set
    /// inside predicates).
    pub fn eval(
        &self,
        expr: &'a Expr,
        env: &Env<'a>,
        context: Option<&Item>,
    ) -> Result<Sequence, XqError> {
        self.charge(1)?;
        match expr {
            Expr::Literal(a) => Ok(Sequence::singleton(a.clone())),
            Expr::EmptySequence => Ok(Sequence::empty()),
            Expr::Sequence(items) => {
                let mut out = Sequence::empty();
                for e in items {
                    out.extend(self.eval(e, env, context)?);
                }
                Ok(out)
            }
            Expr::VarRef(name) => env.value_of(name).cloned(),
            Expr::ContextItem => match context {
                Some(item) => Ok(Sequence::singleton(item.clone())),
                None => Err(XqError::new("no context item")),
            },
            Expr::FunctionCall { name, args } => {
                if let Some(value) = self.aggregated(expr, env) {
                    return Ok(value);
                }
                let mut values = Vec::with_capacity(args.len());
                for a in args {
                    values.push(self.eval(a, env, context)?);
                }
                if let Some(result) = call_builtin(name, &values)? {
                    return Ok(result);
                }
                // Data-service function: resolve the prefix.
                let (prefix, local) = match name.split_once(':') {
                    Some((p, l)) => (Some(p), l),
                    None => (None, name.as_str()),
                };
                let namespace = prefix.and_then(|p| self.prefixes.get(p).map(|s| s.as_str()));
                self.functions.call(namespace, local, &values)
            }
            Expr::Path { start, steps } => self.path(start, steps, env, context, true),
            Expr::Filter { base, predicates } => {
                let mut current = self.eval(base, env, context)?;
                for predicate in predicates {
                    current = self.apply_predicate(current, predicate, env)?;
                }
                Ok(current)
            }
            Expr::Flwor(flwor) => match self.aggregated(expr, env) {
                Some(value) => Ok(value),
                None => self.eval_flwor(flwor, env, context),
            },
            Expr::If { cond, then, els } => {
                let c = self.eval(cond, env, context)?;
                if c.effective_boolean() {
                    self.eval(then, env, context)
                } else {
                    self.eval(els, env, context)
                }
            }
            Expr::Or(a, b) => {
                let left = self.eval(a, env, context)?.effective_boolean();
                if left {
                    return Ok(Sequence::singleton(Atomic::Boolean(true)));
                }
                let right = self.eval(b, env, context)?.effective_boolean();
                Ok(Sequence::singleton(Atomic::Boolean(right)))
            }
            Expr::And(a, b) => {
                let left = self.eval(a, env, context)?.effective_boolean();
                if !left {
                    return Ok(Sequence::singleton(Atomic::Boolean(false)));
                }
                let right = self.eval(b, env, context)?.effective_boolean();
                Ok(Sequence::singleton(Atomic::Boolean(right)))
            }
            Expr::GeneralComp { op, left, right } => {
                let l = data(&self.eval(left, env, context)?);
                let r = data(&self.eval(right, env, context)?);
                // Existential semantics — empty operands yield false,
                // which is how SQL NULL predicates exclude rows.
                for a in l.iter() {
                    let Item::Atomic(a) = a else { continue };
                    for b in r.iter() {
                        let Item::Atomic(b) = b else { continue };
                        if let Some(ord) = a.compare(b) {
                            if comp_matches(*op, ord) {
                                return Ok(Sequence::singleton(Atomic::Boolean(true)));
                            }
                        }
                    }
                }
                Ok(Sequence::singleton(Atomic::Boolean(false)))
            }
            Expr::ValueComp { op, left, right } => {
                let l = data(&self.eval(left, env, context)?);
                let r = data(&self.eval(right, env, context)?);
                if l.is_empty() || r.is_empty() {
                    return Ok(Sequence::empty());
                }
                let (Some(Item::Atomic(a)), Some(Item::Atomic(b))) =
                    (l.as_singleton(), r.as_singleton())
                else {
                    return Err(XqError::new("value comparison requires singletons"));
                };
                let ord = a
                    .compare(b)
                    .ok_or_else(|| XqError::new(format!("cannot compare {a} with {b}")))?;
                Ok(Sequence::singleton(Atomic::Boolean(comp_matches(*op, ord))))
            }
            Expr::Arith { op, left, right } => {
                let l = self.eval_numeric_operand(left, env, context)?;
                let r = self.eval_numeric_operand(right, env, context)?;
                match (l, r) {
                    (Some(a), Some(b)) => arith(*op, &a, &b).map(Sequence::singleton),
                    // Empty operand → empty result (NULL propagation).
                    _ => Ok(Sequence::empty()),
                }
            }
            Expr::UnaryMinus(inner) => match self.eval_numeric_operand(inner, env, context)? {
                None => Ok(Sequence::empty()),
                Some(Atomic::Integer(i)) => i
                    .checked_neg()
                    .map(|n| Sequence::singleton(Atomic::Integer(n)))
                    .ok_or_else(|| XqError::new("integer overflow")),
                Some(Atomic::Decimal(d)) => Ok(Sequence::singleton(Atomic::Decimal(-d))),
                Some(Atomic::Double(d)) => Ok(Sequence::singleton(Atomic::Double(-d))),
                Some(other) => Err(XqError::new(format!("cannot negate {other}"))),
            },
            Expr::Quantified {
                every,
                var,
                source,
                satisfies,
            } => {
                let items = self.source(source, env, context)?;
                for item in items {
                    let bound = env.bind(var, Sequence::singleton(item));
                    let holds = self.eval(satisfies, &bound, context)?.effective_boolean();
                    if *every && !holds {
                        return Ok(Sequence::singleton(Atomic::Boolean(false)));
                    }
                    if !*every && holds {
                        return Ok(Sequence::singleton(Atomic::Boolean(true)));
                    }
                }
                Ok(Sequence::singleton(Atomic::Boolean(*every)))
            }
            Expr::Element(ctor) => {
                let element = self.construct_element(ctor, env, context)?;
                Ok(Sequence::singleton(Item::element(element)))
            }
        }
    }

    /// Evaluates a `for` or quantifier source: one the plan memoizes is
    /// evaluated on the first tuple of its FLWOR's clause loop that asks
    /// for it and read back on every later one. Without a frame — an
    /// operator runs the FLWOR whole — it is evaluated as written.
    pub(crate) fn source(
        &self,
        source: &'a Expr,
        env: &Env<'a>,
        context: Option<&Item>,
    ) -> Result<Sequence, XqError> {
        let (flwor, at) = (self.plan.memoized_by(source), exec::address(source));
        let frame = self
            .memo
            .borrow()
            .iter()
            .rposition(|(of, _)| Some(*of) == flwor);
        let Some(frame) = frame else {
            return self.eval(source, env, context);
        };
        if let Some((_, value)) = self.memo.borrow()[frame].1.iter().find(|(of, _)| *of == at) {
            return Ok(value.clone());
        }
        // Frames pushed while it is evaluated are gone when it returns.
        let value = self.eval(source, env, context)?;
        self.memo.borrow_mut()[frame].1.push((at, value.clone()));
        Ok(value)
    }

    fn eval_numeric_operand(
        &self,
        expr: &'a Expr,
        env: &Env<'a>,
        context: Option<&Item>,
    ) -> Result<Option<Atomic>, XqError> {
        let seq = data(&self.eval(expr, env, context)?);
        match seq.items() {
            [] => Ok(None),
            [Item::Atomic(a)] => coerce_numeric(a)
                .map(Some)
                .ok_or_else(|| XqError::new(format!("non-numeric operand {a}"))),
            _ => Err(XqError::new("arithmetic requires singleton operands")),
        }
    }

    /// What the aggregate operator made of `expr`, an aggregate it runs, in
    /// the group whose tuple `env` is; `None` anywhere else.
    fn aggregated(&self, expr: &Expr, env: &Env) -> Option<Sequence> {
        env.lookup(self.plan.aggregate(expr)?).cloned()
    }

    /// `start/steps…`, the last step's predicates applied only when `last`
    /// (a probe-let's source is its `let` cut short of them).
    pub(crate) fn path(
        &self,
        start: &'a PathStart,
        steps: &'a [Step],
        env: &Env<'a>,
        context: Option<&Item>,
        last: bool,
    ) -> Result<Sequence, XqError> {
        let mut current = match start {
            PathStart::Var(v) => env.value_of(v)?.clone(),
            PathStart::Expr(e) => self.eval(e, env, context)?,
            PathStart::Context => match context {
                Some(item) => Sequence::singleton(item.clone()),
                None => return Err(XqError::new("relative path without context item")),
            },
        };
        for (at, step) in steps.iter().enumerate() {
            let predicates = match last || at + 1 < steps.len() {
                true => &step.predicates[..],
                false => &[],
            };
            current = self.apply_step(&current, &step.test, predicates, env)?;
        }
        Ok(current)
    }

    fn apply_step(
        &self,
        input: &Sequence,
        test: &NodeTest,
        predicates: &'a [Expr],
        env: &Env<'a>,
    ) -> Result<Sequence, XqError> {
        let mut out = Sequence::empty();
        for element in input.iter().filter_map(Item::as_element_ref) {
            let mut push = |child: ElementRef<'_>| {
                out.push(Item::Node(child.to_node()));
                Ok::<_, XqError>(())
            };
            match test {
                NodeTest::Wildcard => element.child_elements().try_for_each(&mut push)?,
                NodeTest::Name(name) => each_step_child(element, name, &mut push)?,
            }
        }
        for predicate in predicates {
            out = self.apply_predicate(out, predicate, env)?;
        }
        Ok(out)
    }

    /// Predicate semantics: a numeric singleton result selects by
    /// (1-based) position; anything else filters by effective boolean
    /// value, with the candidate as the context item.
    fn apply_predicate(
        &self,
        input: Sequence,
        predicate: &'a Expr,
        env: &Env<'a>,
    ) -> Result<Sequence, XqError> {
        // Constant positional predicate (`[2]`): index directly instead
        // of evaluating the literal once per candidate item.
        if let Expr::Literal(a) = predicate {
            if a.xs_type().is_numeric() {
                self.charge(1)?;
                let mut out = Sequence::empty();
                if let Some(pos) = a.as_f64() {
                    if pos >= 1.0 && pos.fract() == 0.0 && pos <= input.len() as f64 {
                        let item = input
                            .into_iter()
                            .nth(pos as usize - 1)
                            .expect("position checked against length");
                        out.push(item);
                    }
                }
                return Ok(out);
            }
        }
        let mut out = Sequence::empty();
        for (index, item) in input.into_iter().enumerate() {
            let result = self.eval(predicate, env, Some(&item))?;
            let keep = match result.as_singleton() {
                Some(Item::Atomic(a)) if a.xs_type().is_numeric() => {
                    a.as_f64() == Some((index + 1) as f64)
                }
                _ => result.effective_boolean(),
            };
            if keep {
                out.push(item);
            }
        }
        Ok(out)
    }

    fn eval_flwor(
        &self,
        flwor: &'a Flwor,
        env: &Env<'a>,
        context: Option<&Item>,
    ) -> Result<Sequence, XqError> {
        let mut tuples = self.flwor_tuples(flwor, env, context)?;
        if tuples.projected() {
            match interpret_on_error(exec::project_tree(self, &tuples, context))? {
                Some(rows) => return Ok(rows),
                // An operator's tuples have no `return` to interpret: the
                // clause loop runs the FLWOR.
                None if tuples.lowered() => {
                    tuples.envs = self.clause_loop(flwor, self.plan.node(flwor), env, context)?
                }
                None => {}
            }
        }
        let mut out = Sequence::empty();
        for tuple in &tuples.envs {
            out.extend(self.eval(&flwor.ret, tuple, context)?);
        }
        Ok(out)
    }

    /// The tuple stream of `flwor`, every clause applied: what its
    /// `return` is evaluated over — by [`Evaluator::eval_flwor`], or by a
    /// sink or a view's tail plan of [`crate::exec`] that writes the rows
    /// itself. Where the plan has an operator run the whole FLWOR — the
    /// aggregate, one tuple per group; the rows operator, the rows of a sort
    /// or set wrapper — each tuple is tagged with the branch that projects
    /// it; where it declines, or raises anything but a budget error, the
    /// clause loop runs the FLWOR.
    pub(crate) fn flwor_tuples(
        &self,
        flwor: &'a Flwor,
        env: &Env<'a>,
        context: Option<&Item>,
    ) -> Result<Tuples<'a>, XqError> {
        let node = self.plan.node(flwor);
        if let Some((node, (kind, _))) = node.and_then(|node| Some((node, node.whole.as_ref()?))) {
            let ran = node.run(self, env, context).map(interpret_on_error);
            let (outcome, tuples) = match ran.transpose()? {
                None => (LoweringOutcome::Declined, None),
                Some(None) => (LoweringOutcome::Abandoned, None),
                Some(tuples) => (LoweringOutcome::Lowered, tuples),
            };
            if let Some(budget) = self.budget {
                budget.record_lowering(*kind, outcome);
            }
            if let Some(tuples) = tuples {
                return Ok(tuples);
            }
        }
        let envs = self.clause_loop(flwor, node, env, context)?;
        Ok(Tuples::new(envs, node))
    }

    /// [`Evaluator::flwor_tuples`] through the clause loop: each clause
    /// over the tuple stream, a join-shaped prefix through the pipeline,
    /// each `let` of a view through its plan and each source it memoizes
    /// through a frame of the memo, where `node` has them.
    fn clause_loop(
        &self,
        flwor: &'a Flwor,
        node: Option<&exec::FlworPlan<'a>>,
        env: &Env<'a>,
        context: Option<&Item>,
    ) -> Result<Vec<Env<'a>>, XqError> {
        // An error returns past the truncate below. The frame it leaves is
        // of an evaluation that is over, and harmless: a source reads the
        // newest frame of its FLWOR, which is its own evaluation's, and
        // the enclosing loop drops it when that loop returns.
        let frames = self.memo.borrow().len();
        if node.is_some_and(|node| !node.memoized.is_empty()) {
            self.memo
                .borrow_mut()
                .push((exec::address(flwor), Vec::new()));
        }
        let mut skip = 0;
        let mut tuples: Vec<Env<'a>> = vec![env.clone()];
        if let Some(pipeline) = node.and_then(|node| node.pipeline.as_ref()) {
            let streamed = match pipeline {
                Some(plan) => interpret_on_error(exec::run(self, plan, env, context))?,
                None => None,
            };
            match (pipeline, streamed) {
                (Some(plan), Some(streamed)) => {
                    if let Some(budget) = self.budget {
                        budget.record_hash_join(plan.joins as u64);
                    }
                    tuples = streamed;
                    skip = plan.consumed;
                }
                // An abandoned pipeline, or a declined lowering — which
                // counts only where the prefix is hash-shaped, so the
                // telemetry's fast-path fraction is over those rather than
                // all FLWORs. The naive run below answers.
                (plan, _) => {
                    if let Some(budget) = self.budget {
                        match plan {
                            Some(_) => budget.record_join_abandon(),
                            None => budget.record_join_fallback(),
                        }
                    }
                }
            }
        }
        for (at, clause) in flwor.clauses.iter().enumerate().skip(skip) {
            match clause {
                Clause::For { var, source } => {
                    let mut next = Vec::new();
                    for tuple in &tuples {
                        let seq = self.source(source, tuple, context)?;
                        for item in seq {
                            // Charge inside the expansion so a cartesian
                            // product hits its fuel/row limits before the
                            // tuple vector swallows memory.
                            self.charge(1)?;
                            next.push(tuple.bind(var, Sequence::singleton(item)));
                            if let Some(budget) = self.budget {
                                budget
                                    .check_rows(next.len() as u64)
                                    .map_err(XqError::budget)?;
                            }
                        }
                    }
                    tuples = next;
                }
                Clause::Let { var, value } => {
                    let view = node.and_then(|node| node.view(at));
                    tuples = self.let_clause(var, value, view, &tuples, context)?;
                }
                Clause::Where(predicate) => {
                    let mut next = Vec::new();
                    for tuple in tuples {
                        if self.eval(predicate, &tuple, context)?.effective_boolean() {
                            next.push(tuple);
                        }
                    }
                    tuples = next;
                }
                Clause::GroupBy(group) => {
                    tuples = self.apply_group_by(group, tuples, context)?;
                }
                Clause::OrderBy(specs) => {
                    tuples = self.apply_order_by(specs, tuples, context)?;
                }
            }
        }
        self.memo.borrow_mut().truncate(frames);
        Ok(tuples)
    }

    /// `let $var := value` over `tuples`: a view with a plan is built by it
    /// on every tuple — or, after any error of the plan's but a budget's,
    /// by the interpreter.
    fn let_clause(
        &self,
        var: &'a str,
        value: &'a Expr,
        view: Option<&exec::View<'_>>,
        tuples: &[Env<'a>],
        context: Option<&Item>,
    ) -> Result<Vec<Env<'a>>, XqError> {
        let mut next = Vec::with_capacity(tuples.len());
        for tuple in tuples {
            let planned = match view {
                Some(view) => {
                    let built = interpret_on_error(exec::run_view(self, view, tuple, context))?;
                    if built.is_none() {
                        self.record_view(None);
                    }
                    built
                }
                None => None,
            };
            let v = match planned {
                Some(v) => v,
                None => self.eval(value, tuple, context)?,
            };
            next.push(tuple.bind(var, v));
        }
        Ok(next)
    }

    /// The BEA group-by extension: partitions the tuple stream by the key
    /// expressions; each output tuple binds the partition variable to the
    /// concatenated source sequences and each key variable to its value.
    fn apply_group_by(
        &self,
        group: &'a GroupClause,
        tuples: Vec<Env<'a>>,
        context: Option<&Item>,
    ) -> Result<Vec<Env<'a>>, XqError> {
        struct Partition<'a> {
            representative: Env<'a>,
            keys: Vec<Sequence>,
            partition: Sequence,
        }
        let mut partitions: Vec<Partition<'_>> = Vec::new();
        // One AtomKey per key expression — a structured map key, so key
        // values can never collide with a neighboring key's encoding the
        // way delimiter-joined strings could.
        let mut index: HashMap<Vec<AtomKey>, usize> = HashMap::new();
        for tuple in tuples {
            let mut keys = Vec::with_capacity(group.keys.len());
            let mut canonical = Vec::with_capacity(group.keys.len());
            for (key_expr, _) in &group.keys {
                let value = data(&self.eval(key_expr, &tuple, context)?);
                match value.items() {
                    [] => canonical.push(AtomKey::Empty),
                    [Item::Atomic(a)] => canonical.push(AtomKey::group(a)),
                    _ => {
                        return Err(XqError::new(
                            "group-by key must atomize to at most one item",
                        ))
                    }
                }
                keys.push(value);
            }
            let source = tuple.lookup(&group.source_var).cloned().ok_or_else(|| {
                XqError::new(format!("undefined group source ${}", group.source_var))
            })?;
            match index.get(&canonical) {
                Some(&i) => partitions[i].partition.extend(source),
                None => {
                    index.insert(canonical, partitions.len());
                    partitions.push(Partition {
                        representative: tuple,
                        keys,
                        partition: source,
                    });
                }
            }
        }
        Ok(partitions
            .into_iter()
            .map(|p| {
                let mut env = p.representative.bind(&group.partition_var, p.partition);
                for ((_, key_var), value) in group.keys.iter().zip(p.keys) {
                    env = env.bind(key_var, value);
                }
                env
            })
            .collect())
    }

    fn apply_order_by(
        &self,
        specs: &'a [OrderSpec],
        tuples: Vec<Env<'a>>,
        context: Option<&Item>,
    ) -> Result<Vec<Env<'a>>, XqError> {
        let mut keyed: Vec<(Vec<Option<Atomic>>, Env)> = Vec::with_capacity(tuples.len());
        for tuple in tuples {
            let mut keys = Vec::with_capacity(specs.len());
            for spec in specs {
                let value = data(&self.eval(&spec.key, &tuple, context)?);
                let key = match value.items() {
                    [] => None,
                    [Item::Atomic(a)] => Some(a.clone()),
                    _ => {
                        return Err(XqError::new(
                            "order-by key must atomize to at most one item",
                        ))
                    }
                };
                keys.push(key);
            }
            keyed.push((keys, tuple));
        }
        keyed.sort_by(|(ka, _), (kb, _)| order_cmp(specs, ka, kb));
        Ok(keyed.into_iter().map(|(_, t)| t).collect())
    }

    pub(crate) fn construct_element(
        &self,
        ctor: &'a ElementCtor,
        env: &Env<'a>,
        context: Option<&Item>,
    ) -> Result<Element, XqError> {
        let mut element = Element::new(QName::parse(&ctor.name));
        for (name, parts) in &ctor.attributes {
            let mut value = String::new();
            for part in parts {
                match part {
                    AttrPart::Text(t) => value.push_str(t),
                    AttrPart::Enclosed(e) => {
                        let seq = self.eval(e, env, context)?;
                        let strings: Vec<String> =
                            seq.iter().map(|item| item.string_value()).collect();
                        value.push_str(&strings.join(" "));
                    }
                }
            }
            element.attributes.push((QName::parse(name), value));
        }
        for content in &ctor.content {
            match content {
                Content::Text(t) => element.children.push(Node::Text(t.as_str().into())),
                Content::Element(nested) => {
                    let child = self.construct_element(nested, env, context)?;
                    element.children.push(child.into_node());
                }
                Content::Enclosed(e) => {
                    let seq = self.eval(e, env, context)?;
                    // XQuery constructor content: adjacent atomics join
                    // with single spaces into one text node; nodes are
                    // copied in as children.
                    let mut pending_text: Option<String> = None;
                    for item in seq {
                        match item {
                            Item::Atomic(a) => {
                                let lex = a.lexical();
                                pending_text = Some(match pending_text {
                                    None => lex,
                                    Some(mut acc) => {
                                        acc.push(' ');
                                        acc.push_str(&lex);
                                        acc
                                    }
                                });
                            }
                            Item::Node(n) => {
                                if let Some(text) = pending_text.take() {
                                    element.children.push(Node::Text(text.into()));
                                }
                                element.children.push(n);
                            }
                        }
                    }
                    if let Some(text) = pending_text {
                        element.children.push(Node::Text(text.into()));
                    }
                }
            }
        }
        Ok(element)
    }
}

/// Whether the name test `test` selects an element named `name`.
pub(crate) fn name_matches(name: &QName, test: &str) -> bool {
    // Step tests in the generated dialect are written without prefixes and
    // match by local name; a prefixed test matches the name as written.
    if !test.contains(':') {
        return name.matches_local(test);
    }
    let local = name.local_part();
    match name.prefix() {
        Some(prefix) => test
            .strip_prefix(prefix)
            .and_then(|rest| rest.strip_prefix(':'))
            .is_some_and(|rest| rest == local),
        None => test == local,
    }
}

/// Calls `f` on each child element of `parent` that the name test `test`
/// selects, in document order. An unprefixed test, which is every test the
/// generated dialect writes, goes through [`ElementRef::children_named`]:
/// a flat row's column is found by its index in the row's schema.
pub(crate) fn each_step_child<E>(
    parent: ElementRef<'_>,
    test: &str,
    f: impl FnMut(ElementRef<'_>) -> Result<(), E>,
) -> Result<(), E> {
    match test.contains(':') {
        false => parent.children_named(test).try_for_each(f),
        true => (parent.child_elements())
            .filter(|child| name_matches(child.name(), test))
            .try_for_each(f),
    }
}

fn comp_matches(op: CompOp, ord: Ordering) -> bool {
    match op {
        CompOp::Eq => ord == Ordering::Equal,
        CompOp::Ne => ord != Ordering::Equal,
        CompOp::Lt => ord == Ordering::Less,
        CompOp::Le => ord != Ordering::Greater,
        CompOp::Gt => ord == Ordering::Greater,
        CompOp::Ge => ord != Ordering::Less,
    }
}

/// Two tuples' `order by` keys, one per spec, compared in spec order: the
/// interpreter's and the rows operator's one comparison.
pub(crate) fn order_cmp(
    specs: &[OrderSpec],
    a: &[Option<Atomic>],
    b: &[Option<Atomic>],
) -> Ordering {
    for (spec, (a, b)) in specs.iter().zip(a.iter().zip(b)) {
        let ord = order_key_cmp(a, b, spec.empty_greatest);
        let ord = if spec.descending { ord.reverse() } else { ord };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// `order by` comparison: empty sorts least by default (`empty greatest`
/// flips it); untyped coercion comes from [`Atomic::compare`];
/// incomparable values tie.
fn order_key_cmp(a: &Option<Atomic>, b: &Option<Atomic>, empty_greatest: bool) -> Ordering {
    match (a, b) {
        (None, None) => Ordering::Equal,
        (None, Some(_)) => {
            if empty_greatest {
                Ordering::Greater
            } else {
                Ordering::Less
            }
        }
        (Some(_), None) => {
            if empty_greatest {
                Ordering::Less
            } else {
                Ordering::Greater
            }
        }
        (Some(a), Some(b)) => a.compare(b).unwrap_or(Ordering::Equal),
    }
}

/// Arithmetic with XQuery type promotion: integer ops stay integral except
/// `div`, which produces a decimal (SQL's truncating integer division is
/// recovered by the translator wrapping the division in an `xs:integer`
/// cast — see `aldsp-core`).
fn arith(op: ArithOp, a: &Atomic, b: &Atomic) -> Result<Atomic, XqError> {
    use Atomic::*;
    if let (Integer(x), Integer(y)) = (a, b) {
        return match op {
            ArithOp::Add => x
                .checked_add(*y)
                .map(Integer)
                .ok_or_else(|| XqError::new("integer overflow")),
            ArithOp::Sub => x
                .checked_sub(*y)
                .map(Integer)
                .ok_or_else(|| XqError::new("integer overflow")),
            ArithOp::Mul => x
                .checked_mul(*y)
                .map(Integer)
                .ok_or_else(|| XqError::new("integer overflow")),
            ArithOp::Div => {
                if *y == 0 {
                    Err(XqError::new("division by zero"))
                } else {
                    Ok(Decimal(*x as f64 / *y as f64))
                }
            }
            ArithOp::IDiv => {
                if *y == 0 {
                    Err(XqError::new("division by zero"))
                } else {
                    // `i64::MIN idiv -1` has no i64 answer.
                    x.checked_div(*y)
                        .map(Integer)
                        .ok_or_else(|| XqError::new("integer overflow"))
                }
            }
            ArithOp::Mod => {
                if *y == 0 {
                    Err(XqError::new("division by zero"))
                } else {
                    // `i64::MIN mod -1` overflows the CPU's division but
                    // has an answer, 0; wrapping gives it.
                    Ok(Integer(x.wrapping_rem(*y)))
                }
            }
        };
    }
    let x = a
        .as_f64()
        .ok_or_else(|| XqError::new(format!("non-numeric operand {a}")))?;
    let y = b
        .as_f64()
        .ok_or_else(|| XqError::new(format!("non-numeric operand {b}")))?;
    let double = matches!(a, Double(_)) || matches!(b, Double(_));
    let value = match op {
        ArithOp::Add => x + y,
        ArithOp::Sub => x - y,
        ArithOp::Mul => x * y,
        ArithOp::Div => {
            if y == 0.0 && !double {
                return Err(XqError::new("division by zero"));
            }
            x / y
        }
        ArithOp::IDiv => {
            if y == 0.0 {
                return Err(XqError::new("division by zero"));
            }
            return Ok(Integer((x / y).trunc() as i64));
        }
        ArithOp::Mod => {
            if y == 0.0 && !double {
                return Err(XqError::new("division by zero"));
            }
            x % y
        }
    };
    Ok(if double {
        Double(value)
    } else {
        Decimal(value)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use aldsp_governor::Lowering;
    use aldsp_xml::flat::build_row;
    use aldsp_xml::{serialize_sequence, RowSchema};

    /// A flat row named `name` of the present `cols` alone.
    fn flat_row(name: QName, cols: Vec<(&str, Option<Atomic>)>) -> Item {
        let schema = RowSchema::new(name, cols.iter().map(|(col, _)| *col));
        Item::from(build_row(
            &schema,
            cols.iter().map(|(_, v)| v.as_ref().map(Atomic::lexical)),
        ))
    }

    /// A function source exposing a tiny CUSTOMERS/PAYMENTS universe as
    /// flat XML, mirroring paper Example 1.
    struct TestSource;

    impl FunctionSource for TestSource {
        fn call(
            &self,
            namespace: Option<&str>,
            local: &str,
            _args: &[Sequence],
        ) -> Result<Sequence, XqError> {
            type Row = (&'static str, Vec<(&'static str, Option<Atomic>)>);
            let rows: Vec<Row> = match local {
                "CUSTOMERS" => vec![
                    (
                        "CUSTOMERS",
                        vec![
                            ("CUSTOMERID", Some(Atomic::Integer(55))),
                            ("CUSTOMERNAME", Some(Atomic::String("Joe".into()))),
                        ],
                    ),
                    (
                        "CUSTOMERS",
                        vec![
                            ("CUSTOMERID", Some(Atomic::Integer(23))),
                            ("CUSTOMERNAME", Some(Atomic::String("Sue".into()))),
                        ],
                    ),
                    (
                        "CUSTOMERS",
                        vec![
                            ("CUSTOMERID", Some(Atomic::Integer(7))),
                            ("CUSTOMERNAME", None),
                        ],
                    ),
                ],
                // A payments table with a NULL (absent) CUSTID row and a
                // customer id that matches nothing — join edge cases.
                // Kept separate from PAYMENTS so the exact-output tests
                // above stay byte-identical.
                "NULLABLEPAY" => vec![
                    (
                        "NULLABLEPAY",
                        vec![
                            ("CUSTID", Some(Atomic::Integer(55))),
                            ("PAYMENT", Some(Atomic::Decimal(10.0))),
                        ],
                    ),
                    (
                        "NULLABLEPAY",
                        vec![("CUSTID", None), ("PAYMENT", Some(Atomic::Decimal(20.0)))],
                    ),
                    (
                        "NULLABLEPAY",
                        vec![
                            ("CUSTID", Some(Atomic::Integer(55))),
                            ("PAYMENT", Some(Atomic::Decimal(30.0))),
                        ],
                    ),
                    (
                        "NULLABLEPAY",
                        vec![
                            ("CUSTID", Some(Atomic::Integer(99))),
                            ("PAYMENT", Some(Atomic::Decimal(40.0))),
                        ],
                    ),
                ],
                // What the §4 transport has to carry: the empty string
                // beside NULL, the separators and `&`, and the NULL
                // marker, its neighbour and itself.
                "ODD" => [
                    Some(""),
                    None,
                    Some("<"),
                    Some("a>b<c&d;"),
                    Some("&lt;"),
                    Some("\u{1}"),
                    Some("\u{0}"),
                    Some("é 🙂 >"),
                ]
                .into_iter()
                .enumerate()
                .map(|(id, val)| {
                    (
                        "ODD",
                        vec![
                            ("ID", Some(Atomic::Integer(id as i64))),
                            ("VAL", val.map(|v| Atomic::String(v.into()))),
                        ],
                    )
                })
                .collect(),
                // What no physical table produces: a row with a column
                // element twice (and once, and not at all).
                "TWINS" => vec![
                    (
                        "TWINS",
                        vec![
                            ("ID", Some(Atomic::Integer(1))),
                            ("X", Some(Atomic::String("a".into()))),
                            ("X", Some(Atomic::String("b<".into()))),
                        ],
                    ),
                    (
                        "TWINS",
                        vec![
                            ("ID", Some(Atomic::Integer(2))),
                            ("X", Some(Atomic::String("c".into()))),
                        ],
                    ),
                    ("TWINS", vec![("ID", Some(Atomic::Integer(3)))]),
                ],
                "PAYMENTS" => vec![
                    (
                        "PAYMENTS",
                        vec![
                            ("CUSTID", Some(Atomic::Integer(55))),
                            ("PAYMENT", Some(Atomic::Decimal(100.0))),
                        ],
                    ),
                    (
                        "PAYMENTS",
                        vec![
                            ("CUSTID", Some(Atomic::Integer(23))),
                            ("PAYMENT", Some(Atomic::Decimal(50.0))),
                        ],
                    ),
                ],
                other => {
                    return Err(XqError::new(format!(
                        "unknown function {}:{other}",
                        namespace.unwrap_or("?")
                    )))
                }
            };
            Ok(rows
                .into_iter()
                .map(|(name, cols)| flat_row(QName::prefixed("ns0", name), cols))
                .collect())
        }
    }

    fn run(query: &str) -> Sequence {
        let program = parse_program(query).unwrap_or_else(|e| panic!("{e}"));
        evaluate_program(&program, &TestSource).unwrap_or_else(|e| panic!("{e}"))
    }

    fn run_text(query: &str) -> String {
        serialize_sequence(&run(query))
    }

    const IMPORT: &str = "import schema namespace ns0 = \"ld:T/CUSTOMERS\" at \"ld:T/schemas/CUSTOMERS.xsd\";\nimport schema namespace ns1 = \"ld:T/PAYMENTS\" at \"ld:T/schemas/PAYMENTS.xsd\";\n";

    #[test]
    fn example3_filter_by_name() {
        // Paper Example 3.
        let out = run_text(&format!(
            r#"{IMPORT}
            for $c in ns0:CUSTOMERS()
            where $c/CUSTOMERNAME eq "Sue"
            return
            <RECORD>
              <CUSTOMERS.CUSTOMERID>{{fn:data($c/CUSTOMERID)}}</CUSTOMERS.CUSTOMERID>
              <CUSTOMERS.CUSTOMERNAME>{{fn:data($c/CUSTOMERNAME)}}</CUSTOMERS.CUSTOMERNAME>
            </RECORD>"#
        ));
        assert_eq!(
            out,
            "<RECORD><CUSTOMERS.CUSTOMERID>23</CUSTOMERS.CUSTOMERID>\
             <CUSTOMERS.CUSTOMERNAME>Sue</CUSTOMERS.CUSTOMERNAME></RECORD>"
        );
    }

    #[test]
    fn untyped_numeric_comparison() {
        // Paper Example 8 pattern: node content vs xs:integer cast.
        let out = run_text(&format!(
            "{IMPORT} for $c in ns0:CUSTOMERS() where ($c/CUSTOMERID > xs:integer(10)) \
             return <ID>{{fn:data($c/CUSTOMERID)}}</ID>"
        ));
        assert_eq!(out, "<ID>55</ID><ID>23</ID>");
    }

    #[test]
    fn absent_column_is_empty_sequence() {
        // Customer 7 has no CUSTOMERNAME element: the predicate is false,
        // matching SQL's NULL semantics.
        let out = run_text(&format!(
            "{IMPORT} for $c in ns0:CUSTOMERS() where $c/CUSTOMERNAME = \"Joe\" \
             return <ID>{{fn:data($c/CUSTOMERID)}}</ID>"
        ));
        assert_eq!(out, "<ID>55</ID>");
        // fn:empty detects the absent column.
        let nulls = run_text(&format!(
            "{IMPORT} for $c in ns0:CUSTOMERS() where fn:empty($c/CUSTOMERNAME) \
             return <ID>{{fn:data($c/CUSTOMERID)}}</ID>"
        ));
        assert_eq!(nulls, "<ID>7</ID>");
    }

    #[test]
    fn let_bound_recordset_view() {
        // Paper Example 8's let-view pattern.
        let out = run_text(&format!(
            "{IMPORT} <RECORDSET>{{
               let $tempvar1FR2 := <RECORDSET>{{
                 for $var2FR2 in ns0:CUSTOMERS() return
                 <RECORD><ID>{{fn:data($var2FR2/CUSTOMERID)}}</ID></RECORD>
               }}</RECORDSET>
               for $var1FR2 in $tempvar1FR2/RECORD
               where ($var1FR2/ID > xs:integer(10))
               return <RECORD><INFO.ID>{{fn:data($var1FR2/ID)}}</INFO.ID></RECORD>
             }}</RECORDSET>"
        ));
        assert_eq!(
            out,
            "<RECORDSET><RECORD><INFO.ID>55</INFO.ID></RECORD>\
             <RECORD><INFO.ID>23</INFO.ID></RECORD></RECORDSET>"
        );
    }

    #[test]
    fn left_outer_join_if_empty_pattern() {
        // Paper Example 10's shape.
        let out = run_text(&format!(
            "{IMPORT} for $c in ns0:CUSTOMERS()
             let $t := ns1:PAYMENTS()[($c/CUSTOMERID=CUSTID)]
             return
               if (fn:empty($t)) then
                 <RECORD><ID>{{fn:data($c/CUSTOMERID)}}</ID></RECORD>
               else
                 (for $p in $t return
                   <RECORD><ID>{{fn:data($c/CUSTOMERID)}}</ID>\
<PAY>{{fn:data($p/PAYMENT)}}</PAY></RECORD>)"
        ));
        assert_eq!(
            out,
            "<RECORD><ID>55</ID><PAY>100</PAY></RECORD>\
             <RECORD><ID>23</ID><PAY>50</PAY></RECORD>\
             <RECORD><ID>7</ID></RECORD>"
        );
    }

    #[test]
    fn group_by_partitions() {
        let out = run_text(&format!(
            "{IMPORT} let $inter := <RECORDSET>{{
               for $p in ns1:PAYMENTS() return
               <RECORD><CUSTID>{{fn:data($p/CUSTID)}}</CUSTID></RECORD>
             }}</RECORDSET>
             for $r in $inter/RECORD
             group $r as $part by xs:integer($r/CUSTID) as $g
             order by $g ascending
             return <G><K>{{$g}}</K><N>{{fn:count($part)}}</N></G>"
        ));
        assert_eq!(out, "<G><K>23</K><N>1</N></G><G><K>55</K><N>1</N></G>");
    }

    #[test]
    fn order_by_with_cast_sorts_numerically() {
        let out = run_text(&format!(
            "{IMPORT} for $c in ns0:CUSTOMERS()
             order by xs:integer($c/CUSTOMERID) descending
             return <ID>{{fn:data($c/CUSTOMERID)}}</ID>"
        ));
        assert_eq!(out, "<ID>55</ID><ID>23</ID><ID>7</ID>");
    }

    #[test]
    fn order_by_empty_least_default() {
        let out = run_text(&format!(
            "{IMPORT} for $c in ns0:CUSTOMERS()
             order by $c/CUSTOMERNAME
             return <ID>{{fn:data($c/CUSTOMERID)}}</ID>"
        ));
        // Customer 7 (absent name) sorts first.
        assert_eq!(out, "<ID>7</ID><ID>55</ID><ID>23</ID>");
    }

    #[test]
    fn string_join_transport_wrapper() {
        // §4 shape, with "\u{0}" as the NULL marker default.
        let out = run(&format!(
            "{IMPORT} fn:string-join((
               let $actualQuery := <RECORDSET>{{
                 for $v in ns0:CUSTOMERS() return
                 <RECORD><A>{{fn:data($v/CUSTOMERID)}}</A>\
<B>{{fn:data($v/CUSTOMERNAME)}}</B></RECORD>
               }}</RECORDSET>
               for $tokenQuery in $actualQuery/RECORD
               return (\">\",
                 fn-bea:if-empty(fn-bea:xml-escape(fn-bea:serialize-atomic(
                   fn:data($tokenQuery/A))), \"\"),
                 \">\",
                 fn-bea:if-empty(fn-bea:xml-escape(fn-bea:serialize-atomic(
                   fn:data($tokenQuery/B))), \"\"),
                 \"<\")), \"\")"
        ));
        let Some(Item::Atomic(Atomic::String(s))) = out.as_singleton() else {
            panic!("expected one string, got {out:?}");
        };
        assert_eq!(s, ">55>Joe<>23>Sue<>7><");
    }

    #[test]
    fn arithmetic_rules() {
        let run1 = |q: &str| run(q).as_singleton().unwrap().clone();
        assert_eq!(run1("1 + 2 * 3"), Item::Atomic(Atomic::Integer(7)));
        assert_eq!(run1("7 div 2"), Item::Atomic(Atomic::Decimal(3.5)));
        assert_eq!(run1("7 idiv 2"), Item::Atomic(Atomic::Integer(3)));
        assert_eq!(run1("7 mod 2"), Item::Atomic(Atomic::Integer(1)));
        assert_eq!(
            run1("xs:integer(7 div 2)"),
            Item::Atomic(Atomic::Integer(3))
        );
        assert!(run("1 + ()").is_empty());
    }

    #[test]
    fn quantified_over_rows() {
        let some = run(&format!(
            "{IMPORT} some $c in ns0:CUSTOMERS() satisfies $c/CUSTOMERID > 50"
        ));
        assert!(some.effective_boolean());
        let every = run(&format!(
            "{IMPORT} every $c in ns0:CUSTOMERS() satisfies $c/CUSTOMERID > 50"
        ));
        assert!(!every.effective_boolean());
    }

    #[test]
    fn positional_predicate() {
        let out = run_text(&format!(
            "{IMPORT} for $c in ns0:CUSTOMERS()[2] return <ID>{{fn:data($c/CUSTOMERID)}}</ID>"
        ));
        assert_eq!(out, "<ID>23</ID>");
    }

    #[test]
    fn division_by_zero_errors() {
        let program = parse_program("1 div 0").unwrap();
        assert!(evaluate_program(&program, &EmptyFunctionSource).is_err());
    }

    #[test]
    fn undefined_variable_errors() {
        let program = parse_program("$nope").unwrap();
        let err = evaluate_program(&program, &EmptyFunctionSource).unwrap_err();
        assert!(err.message.contains("nope"));
    }

    #[test]
    fn wildcard_step_returns_all_columns() {
        let out = run(&format!(
            "{IMPORT} for $c in ns0:CUSTOMERS() where $c/CUSTOMERID = 55 return $c/*"
        ));
        assert_eq!(out.len(), 2);
    }

    const CARTESIAN: &str = "for $a in ns0:CUSTOMERS(), $b in ns0:CUSTOMERS(), \
         $c in ns0:CUSTOMERS() return <R>{fn:data($a/CUSTOMERID)}</R>";

    fn run_governed(query: &str, budget: &QueryBudget) -> Result<Sequence, XqError> {
        let program = parse_program(query).unwrap_or_else(|e| panic!("{e}"));
        evaluate_program_exec(
            &program,
            &TestSource,
            &[],
            Some(budget),
            ExecStrategy::NestedLoop,
        )
    }

    #[test]
    fn fuel_exhaustion_stops_evaluation() {
        let budget = QueryBudget::unlimited().with_fuel(20);
        let err = run_governed(&format!("{IMPORT} {CARTESIAN}"), &budget).unwrap_err();
        assert_eq!(
            err.budget_error(),
            Some(BudgetError::FuelExhausted { limit: 20 })
        );
    }

    #[test]
    fn row_cap_stops_cartesian_expansion() {
        // 3 customers × 3 × 3 would expand to 27 tuples; cap at 5.
        let budget = QueryBudget::unlimited().with_row_cap(5);
        let err = run_governed(&format!("{IMPORT} {CARTESIAN}"), &budget).unwrap_err();
        let Some(BudgetError::RowCapExceeded { cap: 5, .. }) = err.budget_error() else {
            panic!("expected row-cap violation, got {err:?}");
        };
    }

    #[test]
    fn cancellation_observed_mid_evaluation() {
        let budget = QueryBudget::unlimited();
        budget.cancel();
        let err = run_governed(&format!("{IMPORT} {CARTESIAN}"), &budget).unwrap_err();
        assert_eq!(err.budget_error(), Some(BudgetError::Cancelled));
    }

    #[test]
    fn generous_budget_changes_nothing() {
        let query = format!(
            "{IMPORT} for $c in ns0:CUSTOMERS() where $c/CUSTOMERNAME eq \"Sue\" \
             return <ID>{{fn:data($c/CUSTOMERID)}}</ID>"
        );
        let budget = QueryBudget::unlimited()
            .with_fuel(1_000_000)
            .with_row_cap(1_000_000);
        let governed = run_governed(&query, &budget).unwrap();
        assert_eq!(
            serialize_sequence(&governed),
            serialize_sequence(&run(&query))
        );
    }

    fn run_exec(
        query: &str,
        budget: &QueryBudget,
        strategy: ExecStrategy,
    ) -> Result<Sequence, XqError> {
        let program = parse_program(query).unwrap_or_else(|e| panic!("{e}"));
        evaluate_program_exec(&program, &TestSource, &[], Some(budget), strategy)
    }

    /// Runs one query under both strategies and asserts byte-identical
    /// serialized output; returns (hash_joins, join_fallbacks) observed
    /// on the hash run.
    fn assert_strategies_agree(query: &str) -> (u64, u64) {
        let naive = run_exec(query, &QueryBudget::unlimited(), ExecStrategy::NestedLoop)
            .unwrap_or_else(|e| panic!("naive: {e}"));
        let budget = QueryBudget::unlimited();
        let hashed = run_exec(query, &budget, ExecStrategy::HashJoin)
            .unwrap_or_else(|e| panic!("hash: {e}"));
        assert_eq!(
            serialize_sequence(&hashed),
            serialize_sequence(&naive),
            "strategies disagree on: {query}"
        );
        budget.take_exec_counts()
    }

    const JOIN: &str = "for $c in ns0:CUSTOMERS() for $p in ns1:PAYMENTS() \
         where ($c/CUSTOMERID = $p/CUSTID) \
         return <R><ID>{fn:data($c/CUSTOMERID)}</ID>\
<PAY>{fn:data($p/PAYMENT)}</PAY></R>";

    #[test]
    fn hash_join_matches_naive_results_and_order() {
        let (joins, fallbacks) = assert_strategies_agree(&format!("{IMPORT} {JOIN}"));
        assert_eq!(joins, 1, "binary join should take the hash path");
        assert_eq!(fallbacks, 0);
        // Probe-major order, spot-checked.
        let out = run_exec(
            &format!("{IMPORT} {JOIN}"),
            &QueryBudget::unlimited(),
            ExecStrategy::HashJoin,
        )
        .unwrap();
        assert_eq!(
            serialize_sequence(&out),
            "<R><ID>55</ID><PAY>100</PAY></R><R><ID>23</ID><PAY>50</PAY></R>"
        );
    }

    #[test]
    fn hash_join_null_never_joins_and_duplicates_survive() {
        // Customer 55 matches two NULLABLEPAY rows; the NULL CUSTID row
        // and the unmatched 99 row join nothing on either side.
        let query = format!(
            "{IMPORT} for $c in ns0:CUSTOMERS() for $p in ns1:NULLABLEPAY() \
             where ($c/CUSTOMERID = $p/CUSTID) \
             return <R><ID>{{fn:data($c/CUSTOMERID)}}</ID>\
<PAY>{{fn:data($p/PAYMENT)}}</PAY></R>"
        );
        let (joins, _) = assert_strategies_agree(&query);
        assert_eq!(joins, 1);
        let out = run_exec(&query, &QueryBudget::unlimited(), ExecStrategy::HashJoin).unwrap();
        assert_eq!(
            serialize_sequence(&out),
            "<R><ID>55</ID><PAY>10</PAY></R><R><ID>55</ID><PAY>30</PAY></R>"
        );
    }

    #[test]
    fn three_way_join_with_residual_matches_naive() {
        let query = format!(
            "{IMPORT} for $c in ns0:CUSTOMERS() for $p in ns1:PAYMENTS() \
             for $n in ns1:NULLABLEPAY() \
             where ($c/CUSTOMERID = $p/CUSTID) and ($c/CUSTOMERID = $n/CUSTID) \
             and ($n/PAYMENT > xs:integer(15)) \
             return <R><ID>{{fn:data($c/CUSTOMERID)}}</ID>\
<PAY>{{fn:data($n/PAYMENT)}}</PAY></R>"
        );
        let (joins, fallbacks) = assert_strategies_agree(&query);
        assert_eq!(joins, 2, "both non-first streams should hash-join");
        assert_eq!(fallbacks, 0);
    }

    #[test]
    fn let_view_join_matches_naive() {
        // Paper Example 8's let-bound RECORDSET views, joined: the
        // stream-invariant lets must not block lowering.
        let query = format!(
            "{IMPORT} let $t1 := <RECORDSET>{{for $x in ns0:CUSTOMERS() return \
             <RECORD><ID>{{fn:data($x/CUSTOMERID)}}</ID></RECORD>}}</RECORDSET> \
             let $t2 := <RECORDSET>{{for $y in ns1:PAYMENTS() return \
             <RECORD><CID>{{fn:data($y/CUSTID)}}</CID>\
<P>{{fn:data($y/PAYMENT)}}</P></RECORD>}}</RECORDSET> \
             for $a in $t1/RECORD for $b in $t2/RECORD \
             where ($a/ID = $b/CID) \
             return <R>{{fn:data($a/ID)}},{{fn:data($b/P)}}</R>"
        );
        let (joins, _) = assert_strategies_agree(&query);
        assert_eq!(joins, 1);
    }

    #[test]
    fn unlowerable_join_shape_counts_a_fallback() {
        let query = format!(
            "{IMPORT} for $c in ns0:CUSTOMERS() for $p in ns1:PAYMENTS() \
             where ($c/CUSTOMERID > $p/CUSTID) \
             return <R>{{fn:data($c/CUSTOMERID)}}</R>"
        );
        let (joins, fallbacks) = assert_strategies_agree(&query);
        assert_eq!(joins, 0, "non-equi join must not hash");
        assert_eq!(fallbacks, 1);
    }

    #[test]
    fn pipeline_error_falls_back_to_naive_error() {
        // The residual conjunct divides by zero; the pipeline abandons
        // the run and the naive interpreter reproduces the error.
        let query = format!(
            "{IMPORT} for $c in ns0:CUSTOMERS() for $p in ns1:PAYMENTS() \
             where ($c/CUSTOMERID = $p/CUSTID) and (1 div 0 = $p/CUSTID) \
             return <R/>"
        );
        let budget = QueryBudget::unlimited();
        let hashed = run_exec(&query, &budget, ExecStrategy::HashJoin).unwrap_err();
        let naive =
            run_exec(&query, &QueryBudget::unlimited(), ExecStrategy::NestedLoop).unwrap_err();
        assert_eq!(hashed.message, naive.message);
        let (_, fallbacks) = budget.take_exec_counts();
        assert_eq!(fallbacks, 1);
    }

    #[test]
    fn dead_probe_stream_never_builds_the_table() {
        // The filter between the two scans kills every tuple before the
        // first probe, so the (lazy) build never evaluates its source —
        // which here would error. The naive interpreter also never
        // reaches it: parity.
        let query = format!(
            "{IMPORT} for $c in ns0:CUSTOMERS() where fn:false() \
             for $p in ns1:NOSUCHTABLE() \
             where ($c/CUSTOMERID = $p/CUSTID) return <R/>"
        );
        for strategy in [ExecStrategy::NestedLoop, ExecStrategy::HashJoin] {
            let out = run_exec(&query, &QueryBudget::unlimited(), strategy).unwrap();
            assert!(out.is_empty());
        }
    }

    #[test]
    fn row_cap_applies_to_hash_build_table() {
        let budget = QueryBudget::unlimited().with_row_cap(1);
        let err =
            run_exec(&format!("{IMPORT} {JOIN}"), &budget, ExecStrategy::HashJoin).unwrap_err();
        let Some(BudgetError::RowCapExceeded { cap: 1, .. }) = err.budget_error() else {
            panic!("expected row-cap violation, got {err:?}");
        };
    }

    #[test]
    fn hash_join_consumes_less_fuel_than_naive() {
        let query = format!("{IMPORT} {JOIN}");
        let naive_budget = QueryBudget::unlimited();
        run_exec(&query, &naive_budget, ExecStrategy::NestedLoop).unwrap();
        let hash_budget = QueryBudget::unlimited();
        run_exec(&query, &hash_budget, ExecStrategy::HashJoin).unwrap();
        assert!(
            hash_budget.fuel_consumed() < naive_budget.fuel_consumed(),
            "hash {} vs naive {}",
            hash_budget.fuel_consumed(),
            naive_budget.fuel_consumed()
        );
    }

    /// Example 10's shape over NULLABLEPAY: customer 55 matches two rows
    /// (source order 10, 30), 23 and 7 match nothing, the NULL CUSTID
    /// row and the 99 row match nobody.
    const OUTER: &str = "for $c in ns0:CUSTOMERS() \
         let $m := ns1:NULLABLEPAY()[($c/CUSTOMERID=CUSTID)] \
         return if (fn:empty($m)) then <R><ID>{fn:data($c/CUSTOMERID)}</ID></R> \
         else (for $p in $m return <R><ID>{fn:data($c/CUSTOMERID)}</ID>\
<PAY>{fn:data($p/PAYMENT)}</PAY></R>)";

    /// `IN (SELECT ..)`'s shape: a general `=` against a constructed view.
    const SEMI: &str = "for $c in ns0:CUSTOMERS() \
         where ($c/CUSTOMERID = <RECORDSET>{ for $p in ns1:NULLABLEPAY() return \
           <RECORD><K>{fn:data($p/CUSTID)}</K></RECORD> }</RECORDSET>/RECORD/K) \
         return <ID>{fn:data($c/CUSTOMERID)}</ID>";

    #[test]
    fn probe_let_pads_and_matches_like_the_interpreter() {
        let (joins, fallbacks) = assert_strategies_agree(&format!("{IMPORT} {OUTER}"));
        assert_eq!((joins, fallbacks), (1, 0));
        let out = run_exec(
            &format!("{IMPORT} {OUTER}"),
            &QueryBudget::unlimited(),
            ExecStrategy::HashJoin,
        )
        .unwrap();
        assert_eq!(
            serialize_sequence(&out),
            "<R><ID>55</ID><PAY>10</PAY></R><R><ID>55</ID><PAY>30</PAY></R>\
             <R><ID>23</ID></R><R><ID>7</ID></R>"
        );
        // With a residual conjunct beside the key, in either order.
        for predicate in [
            "(($c/CUSTOMERID=CUSTID) and (PAYMENT>xs:integer(15)))",
            "((PAYMENT>xs:integer(15)) and (CUSTID=$c/CUSTOMERID))",
        ] {
            let query = format!("{IMPORT} {OUTER}").replace("($c/CUSTOMERID=CUSTID)", predicate);
            assert_eq!(assert_strategies_agree(&query), (1, 0));
            let out = run_exec(&query, &QueryBudget::unlimited(), ExecStrategy::HashJoin).unwrap();
            assert!(
                serialize_sequence(&out).starts_with("<R><ID>55</ID><PAY>30</PAY></R><R><ID>23")
            );
        }
    }

    #[test]
    fn semi_join_filters_like_the_general_comparison() {
        let (joins, fallbacks) = assert_strategies_agree(&format!("{IMPORT} {SEMI}"));
        assert_eq!((joins, fallbacks), (1, 0));
        assert_eq!(run_text(&format!("{IMPORT} {SEMI}")), "<ID>55</ID>");
        // An empty left operand (customer 7 has no name) passes nothing;
        // NOT IN's `every` beside it is not a hash operator.
        let query = format!(
            "{IMPORT} let $v := (<V>{{ns0:CUSTOMERS()}}</V>)/CUSTOMERS \
             let $w := (<V>{{ns1:PAYMENTS()}}</V>)/PAYMENTS \
             for $c in ns0:CUSTOMERS() where $c/CUSTOMERNAME = $v/CUSTOMERNAME \
             where every $q in $w satisfies $c/CUSTOMERID != $q/PAYMENT \
             return <ID>{{fn:data($c/CUSTOMERID)}}</ID>"
        );
        assert_eq!(assert_strategies_agree(&query), (1, 0));
        assert_eq!(run_text(&query), "<ID>55</ID><ID>23</ID>");
    }

    #[test]
    fn declined_shapes_count_one_fallback_and_change_nothing() {
        // A correlated view, and a let-filter on an inequality.
        let correlated = format!("{IMPORT} {SEMI}").replace(
            "ns1:NULLABLEPAY() return",
            "ns1:NULLABLEPAY() where $p/PAYMENT < $c/CUSTOMERID return",
        );
        let inequality =
            format!("{IMPORT} {OUTER}").replace("CUSTOMERID=CUSTID", "CUSTOMERID<CUSTID");
        for query in [correlated, inequality] {
            assert_eq!(assert_strategies_agree(&query), (0, 1), "{query}");
            assert!(!run(&query).is_empty());
        }
    }

    #[test]
    fn new_operators_build_lazily_and_fall_back_on_errors() {
        // A dead stream never evaluates SRC or R (which would error).
        for dead in [
            "for $c in ns0:CUSTOMERS() where fn:false() \
             let $m := ns1:NOSUCHTABLE()[($c/CUSTOMERID=CUSTID)] return <R/>",
            "for $c in ns0:CUSTOMERS() where fn:false() \
             where $c/CUSTOMERID = <V>{ns1:NOSUCHTABLE()}</V>/X return <R/>",
        ] {
            let query = format!("{IMPORT} {dead}");
            assert_eq!(assert_strategies_agree(&query), (1, 0));
            assert!(run(&query).is_empty());
        }
        // A live one hits the error in the pipeline, counts a fallback,
        // and reports what the interpreter reports.
        for failing in [
            "for $c in ns0:CUSTOMERS() \
             let $m := ns1:PAYMENTS()[(($c/CUSTOMERID=CUSTID) and (1 div 0 = PAYMENT))] return <R/>",
            "for $c in ns0:CUSTOMERS() \
             where $c/CUSTOMERID = <V>{ns1:NOSUCHTABLE()}</V>/X return <R/>",
        ] {
            let query = format!("{IMPORT} {failing}");
            let budget = QueryBudget::unlimited();
            let hashed = run_exec(&query, &budget, ExecStrategy::HashJoin).unwrap_err();
            let naive =
                run_exec(&query, &QueryBudget::unlimited(), ExecStrategy::NestedLoop).unwrap_err();
            assert_eq!(hashed.message, naive.message);
            assert_eq!(budget.take_exec_counts(), (0, 1));
        }
    }

    #[test]
    fn budgets_bind_on_the_new_operators_tables() {
        for query in [format!("{IMPORT} {OUTER}"), format!("{IMPORT} {SEMI}")] {
            // Four NULLABLEPAY rows (three non-NULL keys) against a cap
            // of 2 — the three customers alone would pass it.
            let capped = QueryBudget::unlimited().with_row_cap(2);
            let err = run_exec(&query, &capped, ExecStrategy::HashJoin).unwrap_err();
            let Some(BudgetError::RowCapExceeded { cap: 2, .. }) = err.budget_error() else {
                panic!("expected row-cap violation, got {err:?}");
            };
            let starved = QueryBudget::unlimited().with_fuel(12);
            let err = run_exec(&query, &starved, ExecStrategy::HashJoin).unwrap_err();
            assert_eq!(
                err.budget_error(),
                Some(BudgetError::FuelExhausted { limit: 12 })
            );
            let (naive, hash) = (QueryBudget::unlimited(), QueryBudget::unlimited());
            run_exec(&query, &naive, ExecStrategy::NestedLoop).unwrap();
            run_exec(&query, &hash, ExecStrategy::HashJoin).unwrap();
            assert!(
                hash.fuel_consumed() < naive.fuel_consumed(),
                "hash {} vs naive {}",
                hash.fuel_consumed(),
                naive.fuel_consumed()
            );
        }
    }

    /// The §4 wrapper as `wrap_delimited` writes it, around `view` (the
    /// `let`'s value), for output columns `A` and `B`.
    fn wrapped(view: &str) -> String {
        format!(
            "{IMPORT} fn:string-join((\nlet $actualQuery := {view}\n\
             for $tokenQuery in $actualQuery/RECORD\nreturn (\">\",\n\
             fn-bea:if-empty(fn-bea:xml-escape(fn-bea:serialize-atomic(\
             fn:data($tokenQuery/A))), \"&#0;\"),\n\">\",\n\
             fn-bea:if-empty(fn-bea:xml-escape(fn-bea:serialize-atomic(\
             fn:data($tokenQuery/B))), \"&#0;\"),\n\"<\")), \"\")"
        )
    }

    /// `<RECORDSET>` of `table`'s rows, columns `a` and `b` as `A` and
    /// `B`, an absent column an absent element — stage 3's construction.
    fn view_of(table: &str, a: &str, b: &str) -> String {
        format!(
            "<RECORDSET>{{ for $v in ns0:{table}() return <RECORD>\
             {{ for $a in fn:data($v/{a}) return <A>{{$a}}</A> }}\
             {{ for $b in fn:data($v/{b}) return <B>{{$b}}</B> }}</RECORD> }}</RECORDSET>"
        )
    }

    /// Runs a wrapper on the interpreter and through the sink — which must
    /// have run, once, without falling back — and returns the one payload
    /// both produced.
    fn assert_sink_writes_the_interpreters_payload(query: &str) -> String {
        let naive_budget = QueryBudget::unlimited();
        let naive = run_exec(query, &naive_budget, ExecStrategy::NestedLoop)
            .unwrap_or_else(|e| panic!("naive: {e}"));
        assert_eq!(naive_budget.sink_counts(), (0, 0), "the interpreter sank");
        let budget = QueryBudget::unlimited();
        let sunk = run_exec(query, &budget, ExecStrategy::HashJoin)
            .unwrap_or_else(|e| panic!("sink: {e}"));
        assert_eq!(budget.sink_counts(), (1, 0), "no sink ran: {query}");
        assert_eq!(sunk, naive, "payloads differ on: {query}");
        assert!(
            budget.fuel_consumed() < naive_budget.fuel_consumed(),
            "sink {} vs naive {}",
            budget.fuel_consumed(),
            naive_budget.fuel_consumed()
        );
        let Some(Item::Atomic(Atomic::String(payload))) = sunk.as_singleton() else {
            panic!("expected one string, got {sunk:?}");
        };
        payload.clone()
    }

    #[test]
    fn sink_payload_is_the_interpreters_byte_for_byte() {
        let payload = assert_sink_writes_the_interpreters_payload(&wrapped(&view_of(
            "CUSTOMERS",
            "CUSTOMERID",
            "CUSTOMERNAME",
        )));
        assert_eq!(payload, ">55>Joe<>23>Sue<>7>\u{0}<");
        // NULL is the marker and '' is nothing; separators and `&` inside
        // values arrive as entities; the marker's neighbour passes as it is.
        let payload =
            assert_sink_writes_the_interpreters_payload(&wrapped(&view_of("ODD", "ID", "VAL")));
        assert_eq!(
            payload,
            ">0><>1>\u{0}<>2>&lt;<>3>a&gt;b&lt;c&amp;d;<>4>&amp;lt;<>5>\u{1}<>6>\u{0}<>7>é 🙂 &gt;<"
        );
        // Zero rows: the empty payload.
        let none = view_of("ODD", "ID", "VAL")
            .replace("return <RECORD>", "where fn:false() return <RECORD>");
        assert_eq!(
            assert_sink_writes_the_interpreters_payload(&wrapped(&none)),
            ""
        );
        // A value that is several text nodes and a nested element.
        let nested = "<RECORDSET><RECORD><A>x&lt;<I>y</I>{\"&\"}z</A></RECORD>\
                      <NOTARECORD><A>q</A></NOTARECORD></RECORDSET>";
        assert_eq!(
            assert_sink_writes_the_interpreters_payload(&wrapped(nested)),
            ">x&lt;y&amp;z>\u{0}<"
        );
    }

    #[test]
    fn sink_takes_whatever_the_view_evaluates_to() {
        let rows = "for $v in ns1:NULLABLEPAY() return <RECORD>\
             { for $a in fn:data($v/CUSTID) return <A>{$a}</A> }<B>{fn:data($v/PAYMENT)}</B></RECORD>";
        // DISTINCT, UNION ALL, EXCEPT ALL and a derived table, as stage 3
        // shapes them; the last one's join runs on the hash pipeline.
        for view in [
            format!(
                "<RECORDSET>{{ let $t := <RECORDSET>{{ {rows} }}</RECORDSET> \
                 for $d in fn-bea:distinct-records($t/RECORD/A) return <RECORD>{{$d}}</RECORD> }}</RECORDSET>"
            ),
            format!("<RECORDSET>{{ ({rows}, {rows}) }}</RECORDSET>"),
            format!(
                "<RECORDSET>{{ let $l := <RECORDSET>{{ {rows} }}</RECORDSET> \
                 let $r := <RECORDSET>{{ {rows} }}</RECORDSET> \
                 for $x in fn-bea:except-all-records($l/RECORD, $r/RECORD[B > 25]) return $x }}</RECORDSET>"
            ),
            format!(
                "<RECORDSET>{{ let $t := <RECORDSET>{{ {rows} }}</RECORDSET> \
                 for $c in ns0:CUSTOMERS() for $d in $t/RECORD where ($c/CUSTOMERID = $d/A) \
                 return <RECORD><A>{{fn:data($c/CUSTOMERNAME)}}</A>{{$d/B}}</RECORD> }}</RECORDSET>"
            ),
            // Not one element: every item's RECORD children count, atomic
            // items have none.
            format!("(<S>{{ {rows} }}</S>, 7, <S>{{ {rows} }}</S>)"),
        ] {
            let payload = assert_sink_writes_the_interpreters_payload(&wrapped(&view));
            assert!(payload.ends_with('<'), "{view} wrote {payload:?}");
        }
    }

    #[test]
    fn sink_gives_up_where_the_interpreter_fails() {
        // A duplicated output column: `fn-bea:serialize-atomic` refuses
        // two items, so the sink gives up and the interpreter's error is
        // the answer.
        let twice = "<RECORDSET><RECORD><A>1</A><B>2</B></RECORD>\
                     <RECORD><A>3</A><B>4</B><A>5</A></RECORD></RECORDSET>";
        // And an error inside the view itself.
        let broken = view_of("CUSTOMERS", "CUSTOMERID", "CUSTOMERNAME")
            .replace("return <RECORD>", "where 1 div 0 = 1 return <RECORD>");
        for view in [twice, broken.as_str()] {
            let query = wrapped(view);
            let budget = QueryBudget::unlimited();
            let sunk = run_exec(&query, &budget, ExecStrategy::HashJoin).unwrap_err();
            let naive =
                run_exec(&query, &QueryBudget::unlimited(), ExecStrategy::NestedLoop).unwrap_err();
            assert_eq!(sunk, naive);
            assert_eq!(budget.sink_counts(), (0, 1));
        }
    }

    #[test]
    fn what_is_not_the_wrapper_is_interpreted() {
        let view = view_of("CUSTOMERS", "CUSTOMERID", "CUSTOMERNAME");
        let wrapper = wrapped(&view);
        for other in [
            // Another separator, a predicate on the record step, a piece
            // that is not the column chain, a column of another variable.
            wrapper.replace("\"<\")), \"\")", "\"<\")), \",\")"),
            wrapper.replace("$actualQuery/RECORD", "$actualQuery/RECORD[A > 10]"),
            wrapper.replace(
                "fn-bea:serialize-atomic(fn:data($tokenQuery/B))",
                "fn-bea:serialize-atomic(fn:data($tokenQuery/B[1]))",
            ),
            wrapper.replace("\">\",\nfn-bea:if-empty", "fn:string(7),\nfn-bea:if-empty"),
            wrapper.replace(
                "fn:data($tokenQuery/A)",
                "fn:data($actualQuery/RECORD[1]/A)",
            ),
            // The same call below the top of the program.
            wrapper.replace("fn:string-join((", "fn:string(fn:string-join((") + ")",
        ] {
            let budget = QueryBudget::unlimited();
            let hashed = run_exec(&other, &budget, ExecStrategy::HashJoin)
                .unwrap_or_else(|e| panic!("{other}: {e}"));
            assert_eq!(budget.sink_counts(), (0, 0), "lowered: {other}");
            let naive = run_exec(&other, &QueryBudget::unlimited(), ExecStrategy::NestedLoop);
            assert_eq!(hashed, naive.unwrap());
        }
    }

    #[test]
    fn budgets_bind_inside_the_sinks_loop() {
        // Three literal RECORDs: nothing in the view expands a tuple
        // stream, so only the sink's own row count can meet the cap.
        let literal = "<RECORDSET><RECORD><A>1</A></RECORD><RECORD><A>2</A></RECORD>\
                       <RECORD><A>3</A></RECORD></RECORDSET>";
        let query = wrapped(literal);
        let capped = QueryBudget::unlimited().with_row_cap(2);
        let err = run_exec(&query, &capped, ExecStrategy::HashJoin).unwrap_err();
        assert_eq!(
            err.budget_error(),
            Some(BudgetError::RowCapExceeded { rows: 3, cap: 2 })
        );
        // A budget error is neither a sink run nor a fallback.
        assert_eq!(capped.sink_counts(), (0, 0));
        let exact = QueryBudget::unlimited().with_row_cap(3);
        run_exec(&query, &exact, ExecStrategy::HashJoin).unwrap();

        // The sink charges last, a row and its five pieces at a time: one
        // unit short of the whole run starves the third row.
        let meter = QueryBudget::unlimited();
        run_exec(&query, &meter, ExecStrategy::HashJoin).unwrap();
        let whole = meter.fuel_consumed();
        let view_only = QueryBudget::unlimited();
        run_exec(
            &format!("{IMPORT} {literal}"),
            &view_only,
            ExecStrategy::HashJoin,
        )
        .unwrap();
        assert_eq!(whole, view_only.fuel_consumed() + 3 * 6);
        let starved = QueryBudget::unlimited().with_fuel(whole - 1);
        let err = run_exec(&query, &starved, ExecStrategy::HashJoin).unwrap_err();
        assert_eq!(
            err.budget_error(),
            Some(BudgetError::FuelExhausted { limit: whole - 1 })
        );
        run_exec(
            &query,
            &QueryBudget::unlimited().with_fuel(whole),
            ExecStrategy::HashJoin,
        )
        .unwrap();
    }

    /// Forty one-column RECORDs, and the query cancelled by the time they
    /// are handed over.
    struct CancelsOnCall(QueryBudget);

    impl FunctionSource for CancelsOnCall {
        fn call(&self, _: Option<&str>, _: &str, _: &[Sequence]) -> Result<Sequence, XqError> {
            self.0.cancel();
            Ok((0..40)
                .map(|i| {
                    flat_row(
                        QName::local("RECORD"),
                        vec![("A", Some(Atomic::Integer(i)))],
                    )
                })
                .collect())
        }
    }

    #[test]
    fn cancellation_is_seen_inside_the_sinks_loop() {
        let rows = "<RECORDSET>{ for $r in ns0:ROWS() return \
                    <RECORD><A>{fn:data($r/A)}</A></RECORD> }</RECORDSET>";
        for (query, spent) in [
            // The view cost two units (the constructor, the call); the
            // poll that saw the token is the one on crossing 64, eleven
            // rows of six units into the loop.
            (wrapped("<RECORDSET>{ns0:ROWS()}</RECORDSET>"), 2 + 11 * 6),
            // Fused, and as an XML body: the call and forty bindings, then
            // three rows of 2 + 6 units, or twelve of 2.
            (wrapped(rows), 41 + 3 * 8),
            (rows.to_string(), 41 + 12 * 2),
        ] {
            let budget = QueryBudget::unlimited();
            let err = evaluate_program_to_payload(
                &parse_program(&query).unwrap(),
                &CancelsOnCall(budget.clone()),
                &[],
                Some(&budget),
                ExecStrategy::HashJoin,
            )
            .unwrap_err();
            assert_eq!(err.budget_error(), Some(BudgetError::Cancelled));
            assert_eq!(budget.fuel_spent(), spent, "{query}");
        }
    }

    /// What the pipeline strategy's plan runs for `query`'s body, a payload
    /// asked for.
    fn lowered(query: &str) -> exec::Lowered {
        let program = parse_program(query).unwrap_or_else(|e| panic!("{e}"));
        PhysicalPlan::new(&program, ExecStrategy::HashJoin, true).lowered(&program.body)
    }

    /// Runs a program whose body is an XML sink's on the interpreter and
    /// through [`evaluate_program_to_payload`] — where the sink must have
    /// run, once, without falling back — and as items under the pipeline
    /// strategy, where [`exec::project_tree`] builds the rows: one payload,
    /// and trees `==` to the interpreter's.
    fn assert_projection_matches_the_interpreter(query: &str) -> String {
        assert_eq!(lowered(query), exec::Lowered::XmlSink, "{query}");
        let program = parse_program(query).unwrap();
        let naive = run_exec(query, &QueryBudget::unlimited(), ExecStrategy::NestedLoop)
            .unwrap_or_else(|e| panic!("naive: {e}"));
        let tree_budget = QueryBudget::unlimited();
        let tree = run_exec(query, &tree_budget, ExecStrategy::HashJoin)
            .unwrap_or_else(|e| panic!("tree: {e}"));
        assert_eq!(tree, naive, "trees differ on: {query}");
        assert_eq!(tree_budget.sink_counts(), (0, 0), "items were asked for");
        let budget = QueryBudget::unlimited();
        let payload = evaluate_program_to_payload(
            &program,
            &TestSource,
            &[],
            Some(&budget),
            ExecStrategy::HashJoin,
        )
        .unwrap_or_else(|e| panic!("sink: {e}"));
        assert_eq!(budget.sink_counts(), (1, 0), "no sink ran: {query}");
        assert_eq!(
            payload,
            serialize_sequence(&naive),
            "payloads differ on: {query}"
        );
        payload
    }

    /// `<RECORDSET>` of `table`'s rows with `cells` as the `<RECORD>`'s
    /// content.
    fn recordset_of(table: &str, cells: &str) -> String {
        format!(
            "{IMPORT} <RECORDSET>{{ for $v in ns0:{table}() return \
             <RECORD>{cells}</RECORD> }}</RECORDSET>"
        )
    }

    const NULLABLE_NAME: &str = "{ for $s in fn:data($v/CUSTOMERNAME) return <NAME>{$s}</NAME> }";

    #[test]
    fn projected_rows_are_the_interpreters_in_tree_and_markup() {
        // Both cell shapes; an absent nullable column is no element.
        let payload = assert_projection_matches_the_interpreter(&recordset_of(
            "CUSTOMERS",
            &format!("<ID>{{fn:data($v/CUSTOMERID)}}</ID>{NULLABLE_NAME}"),
        ));
        assert_eq!(
            payload,
            "<RECORDSET><RECORD><ID>55</ID><NAME>Joe</NAME></RECORD>\
             <RECORD><ID>23</ID><NAME>Sue</NAME></RECORD>\
             <RECORD><ID>7</ID></RECORD></RECORDSET>"
        );
        // An absent NOT NULL column is a childless element; '' is an
        // element around an empty text node; markup in values is escaped.
        let payload = assert_projection_matches_the_interpreter(&recordset_of(
            "ODD",
            "<V>{fn:data($v/VAL)}</V>{ for $s in fn:data($v/VAL) return <W>{$s}</W> }",
        ));
        assert!(
            payload.starts_with(
                "<RECORDSET><RECORD><V></V><W></W></RECORD><RECORD><V/></RECORD>\
                 <RECORD><V>&lt;</V><W>&lt;</W></RECORD>"
            ),
            "{payload}"
        );
        assert!(payload.contains("<W>&amp;lt;</W>") && payload.contains("<V>é 🙂 &gt;</V>"));
        // No row, a record without cells, a record whose every cell is
        // NULL: the serializer's empty-element forms.
        for (cells, filter, expected) in [
            (
                "<A>{fn:data($v/ID)}</A>",
                "where fn:false()",
                "<RECORDSET/>",
            ),
            ("", "", "<RECORDSET><RECORD/><RECORD/><RECORD/></RECORDSET>"),
            (
                "{ for $s in fn:data($v/NOSUCH) return <A>{$s}</A> }",
                "",
                "<RECORDSET><RECORD/><RECORD/><RECORD/></RECORDSET>",
            ),
        ] {
            let query = recordset_of("TWINS", cells)
                .replace("return <RECORD>", &format!("{filter} return <RECORD>"));
            assert_eq!(assert_projection_matches_the_interpreter(&query), expected);
        }
        // Values that are no `fn:data($v/CHILD)` are the interpreter's,
        // typed atoms and sequences of them included; prefixed names.
        assert_projection_matches_the_interpreter(&recordset_of(
            "CUSTOMERS",
            "<ns0:N>{xs:integer(fn:data($v/CUSTOMERID)) + 1}</ns0:N>\
             <S>{(1, \"b&\", 2.5)}</S>{ for $s in (fn:data($v/CUSTOMERNAME), 7) return <T>{$s}</T> }\
             <E>{()}</E><D>{fn:data($v/CUSTOMERNAME/NOSUCH)}</D>",
        ));
    }

    #[test]
    fn a_cell_matched_twice_joins_or_repeats_like_the_interpreter() {
        let payload = assert_projection_matches_the_interpreter(&recordset_of(
            "TWINS",
            "<J>{fn:data($v/X)}</J>{ for $s in fn:data($v/X) return <R>{$s}</R> }",
        ));
        assert_eq!(
            payload,
            "<RECORDSET><RECORD><J>a b&lt;</J><R>a</R><R>b&lt;</R></RECORD>\
             <RECORD><J>c</J><R>c</R></RECORD><RECORD><J/></RECORD></RECORDSET>"
        );
        // Over delimited text the joined cell is one value; the repeated
        // one is two `R`s in a row, which `fn-bea:serialize-atomic`
        // refuses: the fused sink gives up and the interpreter's error is
        // the answer.
        let view = |cell: &str| {
            format!(
                "<RECORDSET>{{ for $v in ns0:TWINS() return <RECORD>\
                 <A>{{fn:data($v/ID)}}</A>{cell}</RECORD> }}</RECORDSET>"
            )
        };
        let joined = wrapped(&view("<B>{fn:data($v/X)}</B>"));
        assert_eq!(
            assert_sink_writes_the_interpreters_payload(&joined),
            ">1>a b&lt;<>2>c<>3><"
        );
        let repeated = wrapped(&view("{ for $s in fn:data($v/X) return <B>{$s}</B> }"));
        assert_eq!(lowered(&repeated), exec::Lowered::TextSink { fused: true });
        let budget = QueryBudget::unlimited();
        let sunk = run_exec(&repeated, &budget, ExecStrategy::HashJoin).unwrap_err();
        let naive = run_exec(
            &repeated,
            &QueryBudget::unlimited(),
            ExecStrategy::NestedLoop,
        )
        .unwrap_err();
        assert_eq!(sunk, naive);
        assert!(naive.message.contains("serialize-atomic"), "{naive}");
        assert_eq!(budget.sink_counts(), (0, 1));
    }

    #[test]
    fn a_node_valued_cell_is_the_interpreters_row_in_every_output() {
        // `{$v/CUSTOMERID}` copies the element in: not a projected cell's
        // value. The row goes back to the interpreter, the rest do not,
        // and no sink falls back for it.
        let cells =
            "<A>{if ($v/CUSTOMERID = 23) then $v/CUSTOMERID else fn:data($v/CUSTOMERID)}</A>";
        let payload = assert_projection_matches_the_interpreter(&recordset_of("CUSTOMERS", cells));
        assert_eq!(
            payload,
            "<RECORDSET><RECORD><A>55</A></RECORD>\
             <RECORD><A><CUSTOMERID>23</CUSTOMERID></A></RECORD>\
             <RECORD><A>7</A></RECORD></RECORDSET>"
        );
        let view = format!(
            "<RECORDSET>{{ for $v in ns0:CUSTOMERS() return <RECORD>{cells}\
             {{ for $s in fn:data($v/CUSTOMERNAME) return <B>{{$s}}</B> }}</RECORD> }}</RECORDSET>"
        );
        assert_eq!(
            assert_sink_writes_the_interpreters_payload(&wrapped(&view)),
            ">55>Joe<>23>Sue<>7>\u{0}<"
        );
    }

    #[test]
    fn the_text_sink_fuses_only_what_it_can_resolve() {
        let fused = |view: &str| lowered(&wrapped(view)) == exec::Lowered::TextSink { fused: true };
        let rows = |cells: &str| {
            format!(
                "<RECORDSET>{{ for $v in ns0:CUSTOMERS() return <RECORD>{cells}</RECORD> }}</RECORDSET>"
            )
        };
        let a = "<A>{fn:data($v/CUSTOMERID)}</A>";
        let b = "{ for $s in fn:data($v/CUSTOMERNAME) return <B>{$s}</B> }";
        assert!(fused(&rows(&format!("{a}{b}"))));
        assert!(fused(&rows(&format!("{b}{a}"))), "cells in any order");
        // A column no cell makes is always NULL.
        assert!(fused(&rows(a)));
        assert_eq!(
            assert_sink_writes_the_interpreters_payload(&wrapped(&rows(a))),
            ">55>\u{0}<>23>\u{0}<>7>\u{0}<"
        );
        for unresolved in [
            // Two cells make `A`s; a cell no column reads; rows `$q/RECORD`
            // does not select; a record with an attribute, with text, with
            // a cell that has two enclosed expressions.
            rows(&format!("{a}{a}{b}")),
            rows(&format!("{a}{b}<C>{{1 div 0}}</C>")),
            rows(&format!("{a}{b}")).replace("RECORD>", "ROW>"),
            rows(&format!("{a}{b}")).replace("<RECORD>", "<RECORD k=\"v\">"),
            rows(&format!("{a}{b}text")),
            rows(&format!("{a}{b}")).replace("}</A>", "}{1}</A>"),
            // Not one FLWOR in an attribute-less element.
            format!("({}, {})", rows(a), rows(b)),
            rows(&format!("{a}{b}")).replace("<RECORDSET>", "<RECORDSET k=\"v\">"),
        ] {
            assert!(!fused(&unresolved), "fused: {unresolved}");
            // The view is evaluated and read, or the interpreter's error
            // is the sink's.
            let naive = run_exec(
                &wrapped(&unresolved),
                &QueryBudget::unlimited(),
                ExecStrategy::NestedLoop,
            );
            let sunk = run_exec(
                &wrapped(&unresolved),
                &QueryBudget::unlimited(),
                ExecStrategy::HashJoin,
            );
            assert_eq!(sunk, naive, "{unresolved}");
        }
    }

    #[test]
    fn budgets_bind_inside_the_projected_row_loops() {
        // Three customers, two cells: each output's loop charges its rows
        // `1 + cells` (the text sink its `1 + pieces` as well) in one call
        // before the row is written.
        let cells = format!("<A>{{fn:data($v/CUSTOMERID)}}</A>{NULLABLE_NAME}");
        let xml = recordset_of("CUSTOMERS", &cells);
        let text = wrapped(&recordset_of("CUSTOMERS", &cells).replace(IMPORT, ""))
            .replace("$tokenQuery/B", "$tokenQuery/NAME");
        let payload = |query: &str, budget: &QueryBudget| {
            let program = parse_program(query).unwrap();
            evaluate_program_to_payload(
                &program,
                &TestSource,
                &[],
                Some(budget),
                ExecStrategy::HashJoin,
            )
        };
        // The FLWOR's tuples cost the same whoever reads them: the call
        // and three bindings.
        let tuples = 1 + 3;
        for (query, per_row) in [(&xml, 1 + 2), (&text, 1 + 2 + 1 + 5)] {
            let meter = QueryBudget::unlimited();
            payload(query, &meter).unwrap();
            assert_eq!(meter.fuel_consumed(), tuples + 3 * per_row, "{query}");
            // One unit short starves the last row, inside the loop.
            let whole = meter.fuel_consumed();
            let starved = QueryBudget::unlimited().with_fuel(whole - 1);
            assert_eq!(
                payload(query, &starved).unwrap_err().budget_error(),
                Some(BudgetError::FuelExhausted { limit: whole - 1 })
            );
            assert_eq!(
                starved.sink_counts(),
                (0, 0),
                "a budget error is no fallback"
            );
            payload(query, &QueryBudget::unlimited().with_fuel(whole)).unwrap();
            // The cap binds while the tuples expand, whoever reads them.
            let capped = QueryBudget::unlimited().with_row_cap(2);
            let naive = run_exec(query, &capped, ExecStrategy::NestedLoop).unwrap_err();
            let sunk = payload(query, &QueryBudget::unlimited().with_row_cap(2)).unwrap_err();
            assert_eq!(sunk, naive, "{query}");
            assert_eq!(
                sunk.budget_error(),
                Some(BudgetError::RowCapExceeded { rows: 3, cap: 2 })
            );
            let cancelled = QueryBudget::unlimited();
            cancelled.cancel();
            assert_eq!(
                payload(query, &cancelled).unwrap_err().budget_error(),
                Some(BudgetError::Cancelled)
            );
        }
        // The text sink's own count stands in for the wrapper's `for $t in
        // $q/RECORD`: a row no `for` expanded still meets the cap there.
        // An XML body has no such loop, on either strategy.
        let unexpanded =
            "<RECORDSET>{ let $x := 1 return <RECORD><A>{$x}</A></RECORD> }</RECORDSET>";
        for (query, outcome) in [
            (
                wrapped(unexpanded),
                Err(Some(BudgetError::RowCapExceeded { rows: 1, cap: 0 })),
            ),
            (unexpanded.to_string(), Ok(())),
        ] {
            let none = || QueryBudget::unlimited().with_row_cap(0);
            let sunk = payload(&query, &none());
            assert_eq!(sunk.map(drop).map_err(|e| e.budget_error()), outcome);
            let naive = run_exec(&query, &none(), ExecStrategy::NestedLoop);
            assert_eq!(naive.map(drop).map_err(|e| e.budget_error()), outcome);
        }
        // As items, the tree consumer charges the same rows.
        let meter = QueryBudget::unlimited();
        run_exec(&xml, &meter, ExecStrategy::HashJoin).unwrap();
        assert_eq!(meter.fuel_consumed(), 2 + tuples + 3 * (1 + 2));
    }

    #[test]
    fn an_error_in_a_cell_is_the_interpreters_error() {
        // As a view, the FLWOR's return goes back to the interpreter; as a
        // sink's body, the whole body does, and the fallback is counted.
        let cells = "<A>{fn:data($v/CUSTOMERID)}</A><B>{xs:integer(fn:data($v/CUSTOMERNAME))}</B>";
        let xml = recordset_of("CUSTOMERS", cells);
        let text = wrapped(&recordset_of("CUSTOMERS", cells).replace(IMPORT, ""));
        for query in [&xml, &text] {
            let naive =
                run_exec(query, &QueryBudget::unlimited(), ExecStrategy::NestedLoop).unwrap_err();
            assert!(naive.message.contains("Joe"), "{naive}");
            let program = parse_program(query).unwrap();
            let budget = QueryBudget::unlimited();
            let sunk = evaluate_program_to_payload(
                &program,
                &TestSource,
                &[],
                Some(&budget),
                ExecStrategy::HashJoin,
            )
            .unwrap_err();
            assert_eq!(sunk, naive);
            assert_eq!(budget.sink_counts(), (0, 1));
        }
        let budget = QueryBudget::unlimited();
        let tree = run_exec(&xml, &budget, ExecStrategy::HashJoin).unwrap_err();
        assert_eq!(
            tree,
            run_exec(&xml, &QueryBudget::unlimited(), ExecStrategy::NestedLoop).unwrap_err()
        );
        assert_eq!(budget.sink_counts(), (0, 0));
    }

    /// Runs `query` under both strategies, as items and as a payload: one
    /// outcome, value or error. Returns the pipeline's `(views built,
    /// cells pruned, view fallbacks)`.
    fn assert_views_agree(query: &str) -> (u64, u64, u64) {
        let program = parse_program(query).unwrap_or_else(|e| panic!("{e}: {query}"));
        let naive_budget = QueryBudget::unlimited();
        let naive = run_exec(query, &naive_budget, ExecStrategy::NestedLoop);
        assert_eq!(
            naive_budget.view_counts(),
            (0, 0, 0),
            "the interpreter planned"
        );
        let budget = QueryBudget::unlimited();
        let piped = run_exec(query, &budget, ExecStrategy::HashJoin);
        assert_eq!(piped, naive, "items differ on: {query}");
        let [naive, piped] = [ExecStrategy::NestedLoop, ExecStrategy::HashJoin]
            .map(|exec| evaluate_program_to_payload(&program, &TestSource, &[], None, exec));
        assert_eq!(piped, naive, "payloads differ on: {query}");
        budget.view_counts()
    }

    /// `let $v :=` a view of CUSTOMERS with three cells — `ID`, the
    /// nullable `NAME`, and `X` — in front of `consumer`.
    fn customers_view(consumer: &str) -> String {
        format!(
            "{IMPORT} let $v := <RECORDSET>{{ for $c in ns0:CUSTOMERS() return \
             <RECORD><ID>{{fn:data($c/CUSTOMERID)}}</ID>\
             {{ for $s in fn:data($c/CUSTOMERNAME) return <NAME>{{$s}}</NAME> }}\
             <X>{{fn:data($c/CUSTOMERID)}}</X></RECORD> }}</RECORDSET> {consumer}"
        )
    }

    #[test]
    fn a_view_builds_only_the_cells_its_consumer_names() {
        for (consumer, pruned) in [
            // A path off a row alias, off the view, off a `let`-bound alias.
            ("for $r in $v/RECORD return <O>{fn:data($r/ID)}</O>", 2),
            ("return fn:data($v/RECORD/NAME)", 2),
            (
                "let $rows := $v/RECORD return ($rows/X, fn:data($rows/ID))",
                1,
            ),
            (
                "for $r in $v/RECORD where $r/ID > 10 return fn:data($r/NAME/NOSUCH)",
                1,
            ),
            // Counted rows name no cell; a predicate past the row step reads
            // the cell it hangs off.
            (
                "return (fn:count($v/RECORD), fn:empty($v/RECORD), fn:exists($v/RECORD))",
                3,
            ),
            ("for $r in $v/RECORD return fn:data($r/ID[. > 10])", 2),
            // Through a partition, as a GROUP BY block reads its view, and
            // through an alias of an alias.
            (
                "for $r in $v/RECORD group $r as $p by fn:data($r/NAME) as $k \
                 return <G>{$k}<N>{fn:count($p)}</N>\
                 {for $a in $p return xs:decimal(fn:data($a/X))}</G>",
                1,
            ),
            ("for $r in $v/RECORD for $q in $r return fn:data($q/X)", 2),
            // Two readers: the union of what they name.
            (
                "for $r in $v/RECORD for $q in $v/RECORD where $r/ID = $q/X \
                 return <P>{fn:data($q/ID)}</P>",
                1,
            ),
            // Every cell named: a plan all the same, whole.
            ("for $r in $v/RECORD return ($r/ID, $r/NAME, $r/X)", 0),
        ] {
            assert_eq!(
                assert_views_agree(&customers_view(consumer)),
                (1, pruned, 0),
                "{consumer}"
            );
        }
    }

    #[test]
    fn escaped_rows_keep_every_cell() {
        // (`for $r in $v/RECORD [order by …] return $r` is a wrapper the
        // rows operator runs: no view is built at all.)
        for consumer in [
            "for $r in $v/RECORD where fn:true() return $r",
            "for $r in $v/RECORD return fn:data($r/*)",
            "for $r in $v/RECORD return fn:string($r)",
            "for $r in fn-bea:distinct-records($v/RECORD) return fn:data($r/ID)",
            "for $r in $v/RECORD[ID = 55] return fn:data($r/ID)",
            "for $r in $v/RECORD[1] return fn:data($r/ID)",
            "return fn:data($v/RECORD[2]/ID)",
            "for $r in $v/* return fn:data($r/ID)",
            "return (fn:count($v), fn:data($v/RECORD/ID))",
            "return ($v, fn:data($v/RECORD/ID))",
            "let $w := $v return fn:data($w/RECORD/ID)",
            "return (fn:count($v/ROW), fn:data($v/RECORD/ID))",
            "return ($v/RECORD/ID, some $q in $v/RECORD satisfies $q/NAME = \"Sue\")",
            "for $r in $v/RECORD return fn:data(($r, $r)/ID)",
            "for $r in $v/RECORD return fn:data($r[ID = 23]/NAME)",
            "for $r in $v/RECORD order by xs:integer($r/ID) return <O>{$r}</O>",
            "for $r in $v/RECORD group $r as $p by fn:data($r/ID) as $k return $p",
            // Binders that take a row's or the view's name are not followed.
            "for $r in $v/RECORD for $r in ns0:CUSTOMERS() return fn:data($r/CUSTOMERID)",
            "for $r in $v/RECORD return (for $v in ns0:CUSTOMERS() return fn:data($r/ID))",
            "for $r in $v/RECORD return (some $r in (1, 2) satisfies $r = 2)",
            "for $r in $v/RECORD group $r as $p by fn:data($r/ID) as $v return fn:count($p)",
        ] {
            assert_eq!(
                assert_views_agree(&customers_view(consumer)),
                (1, 0, 0),
                "{consumer}"
            );
        }
    }

    #[test]
    fn a_dead_cell_is_one_that_cannot_be_missed() {
        let view = |body: &str, consumer: &str| {
            format!("{IMPORT} let $v := <RECORDSET>{{ {body} }}</RECORDSET> {consumer}")
        };
        let ids = "return fn:data($v/RECORD/ID)";
        // An unread cell that is evaluated is kept, and its error is the
        // interpreter's: the plan gives up, nothing is swallowed.
        let failing = view(
            "for $c in ns0:CUSTOMERS() return <RECORD><ID>{fn:data($c/CUSTOMERID)}</ID>\
             <BAD>{xs:integer(\"x\")}</BAD><X>{fn:data($c/CUSTOMERID)}</X></RECORD>",
            ids,
        );
        assert_eq!(assert_views_agree(&failing), (0, 0, 1));
        let naive = run_exec(
            &failing,
            &QueryBudget::unlimited(),
            ExecStrategy::NestedLoop,
        );
        let naive = naive.unwrap_err();
        assert!(naive.message.contains("cannot cast"), "{naive}");
        // One that succeeds is evaluated and built all the same.
        let fine = failing.replace("\"x\"", "\"7\"");
        assert_eq!(assert_views_agree(&fine), (1, 1, 0));
        // `fn:data($x/CHILD)` cannot raise only where the body binds `$x`:
        // over an outer variable the cell is kept, over no variable at all
        // it is the interpreter's error.
        let outer = format!(
            "{IMPORT} for $o in ns0:CUSTOMERS() let $v := <RECORDSET>{{ \
             for $p in ns1:PAYMENTS() where $p/CUSTID = $o/CUSTOMERID return \
             <RECORD><ID>{{fn:data($p/CUSTID)}}</ID><O>{{fn:data($o/CUSTOMERNAME)}}</O>\
             <P>{{fn:data($p/PAYMENT)}}</P></RECORD> }}</RECORDSET> {ids}"
        );
        assert_eq!(assert_views_agree(&outer), (3, 3, 0));
        let unbound = fine.replace("fn:data($c/CUSTOMERID)}</X>", "fn:data($nope/A)}</X>");
        assert_eq!(assert_views_agree(&unbound), (0, 0, 1));
        // A row that holds a column twice: dead or read, joined or
        // repeated, as the interpreter builds it.
        let twins = |consumer: &str| {
            view(
                "for $t in ns0:TWINS() return <RECORD><ID>{fn:data($t/ID)}</ID>\
                 <J>{fn:data($t/X)}</J>{ for $s in fn:data($t/X) return <R>{$s}</R> }</RECORD>",
                consumer,
            )
        };
        assert_eq!(assert_views_agree(&twins(ids)), (1, 2, 0));
        assert_eq!(
            assert_views_agree(&twins(
                "for $r in $v/RECORD return <O>{$r/R}{fn:data($r/J)}</O>"
            )),
            (1, 1, 0)
        );
        // Rows `$v/ROW` does not select lose nothing; they are not seen
        // either way.
        let misnamed = view(
            "for $c in ns0:CUSTOMERS() return (<ROW><ID>{fn:data($c/CUSTOMERID)}</ID></ROW>, \
             <RECORD><ID>{fn:data($c/CUSTOMERID)}</ID><X>{fn:data($c/CUSTOMERID)}</X></RECORD>)",
            "return (fn:count($v/RECORD), fn:count($v/ROW/ID))",
        );
        assert_eq!(assert_views_agree(&misnamed), (1, 0, 0));
        assert_eq!(
            assert_views_agree(&misnamed.replace("fn:count($v/ROW/ID)", "fn:count($v/ROW)")),
            (1, 0, 0)
        );
        assert_eq!(
            assert_views_agree(&misnamed.replace("fn:count($v/ROW/ID)", "0")),
            (1, 2, 0),
            "a name test selects one constructor: its cells alone are dead"
        );
    }

    #[test]
    fn every_tail_of_a_views_body_is_planned() {
        // Both arms of an outer join (paper Example 10), a sequence of
        // tails and `()`: rows in the interpreter's order, dead cells gone
        // from every constructor.
        let outer_join = format!(
            "{IMPORT} let $v := <RECORDSET>{{ for $c in ns0:CUSTOMERS() \
             let $m := ns1:PAYMENTS()[($c/CUSTOMERID = CUSTID)] return \
             if (fn:empty($m)) then <RECORD><ID>{{fn:data($c/CUSTOMERID)}}</ID>\
             <NAME>{{fn:data($c/CUSTOMERNAME)}}</NAME></RECORD> \
             else (for $p in $m return <RECORD><ID>{{fn:data($c/CUSTOMERID)}}</ID>\
             <NAME>{{fn:data($c/CUSTOMERNAME)}}</NAME><PAY>{{fn:data($p/PAYMENT)}}</PAY>\
             <CUSTID>{{fn:data($p/CUSTID)}}</CUSTID></RECORD>) }}</RECORDSET> \
             for $r in $v/RECORD return <O>{{fn:data($r/ID)}}<P>{{fn:data($r/PAY)}}</P></O>"
        );
        assert_eq!(assert_views_agree(&outer_join), (1, 1 + 2, 0));
        let sequence = customers_view("for $r in $v/RECORD return fn:data($r/ID)").replace(
            "return <RECORD>",
            "return (if ($c/CUSTOMERID = 23) then () else <RECORD><ID>{0}</ID><Z>{fn:data($c/CUSTOMERID)}</Z></RECORD>, \
             (), <RECORD>",
        );
        let sequence = sequence.replace("</RECORD> }</RECORDSET>", "</RECORD>) }</RECORDSET>");
        assert_eq!(assert_views_agree(&sequence), (1, 1 + 2, 0));
        // A body whose tails are not all row constructors is the
        // interpreter's, and no plan is counted.
        for body in [
            "for $c in ns0:CUSTOMERS() return $c",
            "for $c in ns0:CUSTOMERS() return (<RECORD><ID>1</ID></RECORD>, 7)",
            "fn-bea:distinct-records(for $c in ns0:CUSTOMERS() return <RECORD><ID>1</ID></RECORD>)",
            "for $c in ns0:CUSTOMERS() return <RECORD k=\"v\"><ID>1</ID></RECORD>",
        ] {
            let query = format!(
                "{IMPORT} let $v := <RECORDSET>{{ {body} }}</RECORDSET> \
                 return fn:count($v/RECORD/ID)"
            );
            assert_eq!(assert_views_agree(&query), (0, 0, 0), "{body}");
        }
        // Nor is a constructor with an attribute, or around two expressions.
        for ctor in ["<RECORDSET k=\"v\">{", "<RECORDSET>{()}{"] {
            let query = customers_view("return fn:count($v/RECORD)").replace("<RECORDSET>{", ctor);
            assert_eq!(assert_views_agree(&query), (0, 0, 0), "{ctor}");
        }
        // A view inside a view: each is planned against its own consumer.
        let nested = format!(
            "{IMPORT} let $outer := <RECORDSET>{{ \
             let $inner := <RECORDSET>{{ for $c in ns0:CUSTOMERS() return \
             <RECORD><A>{{fn:data($c/CUSTOMERID)}}</A><B>{{fn:data($c/CUSTOMERNAME)}}</B>\
             <C>{{fn:data($c/CUSTOMERID)}}</C></RECORD> }}</RECORDSET> \
             for $i in $inner/RECORD where $i/A > 10 return \
             <RECORD><A2>{{fn:data($i/A)}}</A2><B2>{{fn:data($i/B)}}</B2></RECORD> }}</RECORDSET> \
             for $o in $outer/RECORD return <O>{{fn:data($o/A2)}}</O>"
        );
        assert_eq!(assert_views_agree(&nested), (2, 1 + 1, 0));
        // Inside a hash pipeline the `let` is an operator: the same plan.
        let piped = customers_view(
            "for $r in $v/RECORD for $p in ns1:PAYMENTS() where $r/ID = $p/CUSTID \
             return <J>{fn:data($r/NAME)}{fn:data($p/PAYMENT)}</J>",
        );
        let budget = QueryBudget::unlimited();
        run_exec(&piped, &budget, ExecStrategy::HashJoin).unwrap();
        assert_eq!(budget.take_exec_counts(), (1, 0));
        assert_eq!(assert_views_agree(&piped), (1, 1, 0));
    }

    #[test]
    fn budgets_bind_inside_the_tail_plans_row_loop() {
        // Three customers, two of three cells kept.
        let query = customers_view("return ($v/RECORD/ID, $v/RECORD/NAME)");
        let meter = QueryBudget::unlimited();
        run_exec(&query, &meter, ExecStrategy::HashJoin).unwrap();
        assert_eq!(meter.view_counts(), (1, 1, 0));
        // The outer FLWOR; the view's constructor and its FLWOR, the call
        // and three bindings; `1 + kept cells` a row; the `return`.
        let rows_at = 1 + (1 + 1) + (1 + 3);
        let whole = rows_at + 3 * (1 + 2) + 3;
        assert_eq!(meter.fuel_consumed(), whole);
        // Fuel falls by the dead cells and by nothing else.
        let unpruned = QueryBudget::unlimited();
        let all = customers_view("return ($v/RECORD/ID, $v/RECORD/NAME, $v/RECORD/X)");
        run_exec(&all, &unpruned, ExecStrategy::HashJoin).unwrap();
        assert_eq!(unpruned.fuel_consumed(), whole + 3 + 1);
        // A row is charged whole, before it is built: with the fuel of two
        // rows and all but one unit of the third, the third's charge fails.
        let limit = rows_at + 3 * (1 + 2) - 1;
        let starved = QueryBudget::unlimited().with_fuel(limit);
        assert_eq!(
            run_exec(&query, &starved, ExecStrategy::HashJoin)
                .unwrap_err()
                .budget_error(),
            Some(BudgetError::FuelExhausted { limit })
        );
        assert_eq!(starved.fuel_spent(), limit + 1);
        assert_eq!(
            starved.view_counts(),
            (0, 0, 0),
            "a budget error is no fallback"
        );
        run_exec(
            &query,
            &QueryBudget::unlimited().with_fuel(whole),
            ExecStrategy::HashJoin,
        )
        .unwrap();
        // The cap binds while the body's tuples expand, as it does for the
        // interpreter; the rows are those tuples, counted once.
        let capped = || QueryBudget::unlimited().with_row_cap(2);
        let piped = run_exec(&query, &capped(), ExecStrategy::HashJoin).unwrap_err();
        assert_eq!(
            piped,
            run_exec(&query, &capped(), ExecStrategy::NestedLoop).unwrap_err()
        );
        assert_eq!(
            piped.budget_error(),
            Some(BudgetError::RowCapExceeded { rows: 3, cap: 2 })
        );
        run_exec(
            &query,
            &QueryBudget::unlimited().with_row_cap(3),
            ExecStrategy::HashJoin,
        )
        .unwrap();
        // Cancelled while the rows are handed over: the poll on crossing 64
        // units is inside the row loop — the outer FLWOR, the constructor,
        // the body's FLWOR, the call and forty bindings, then ten rows of
        // `1 + 1` units.
        let rows = "let $v := <RECORDSET>{ for $r in ns0:ROWS() return \
                    <RECORD><A>{fn:data($r/A)}</A><B>{fn:data($r/A)}</B></RECORD> }</RECORDSET> \
                    return fn:data($v/RECORD/A)";
        let budget = QueryBudget::unlimited();
        let err = evaluate_program_exec(
            &parse_program(rows).unwrap(),
            &CancelsOnCall(budget.clone()),
            &[],
            Some(&budget),
            ExecStrategy::HashJoin,
        )
        .unwrap_err();
        assert_eq!(err.budget_error(), Some(BudgetError::Cancelled));
        assert_eq!(budget.fuel_spent(), 1 + 2 + 41 + 10 * 2);
        assert_eq!(budget.view_counts(), (0, 0, 0));
    }

    /// A statement as `gen_select_grouped` writes it over `table`: `$inter`
    /// holds `cells` per row of `body` (clauses over `$x`), then `group`,
    /// then `return ret`.
    fn grouped_statement(table: &str, body: &str, cells: &str, group: &str, ret: &str) -> String {
        format!(
            "{IMPORT} <RECORDSET>{{ let $inter1 := <RECORDSET>{{ for $x in ns0:{table}() {body} \
             return <RECORD>{cells}</RECORD> }}</RECORDSET> {group} return {ret} }}</RECORDSET>"
        )
    }

    /// Runs `query` under both strategies, as items and as a payload: one
    /// outcome, value or error. Returns the pipeline's aggregate counts.
    fn assert_aggregates_agree(query: &str) -> (u64, u64, u64) {
        let naive = QueryBudget::unlimited();
        let budget = QueryBudget::unlimited();
        let piped = run_exec(query, &budget, ExecStrategy::HashJoin);
        assert_eq!(
            piped,
            run_exec(query, &naive, ExecStrategy::NestedLoop),
            "items differ on: {query}"
        );
        assert_eq!(naive.lowering_counts(Lowering::Aggregate), (0, 0, 0));
        if piped.is_ok() {
            assert!(budget.fuel_consumed() <= naive.fuel_consumed(), "{query}");
        }
        let program = parse_program(query).unwrap();
        let [naive, piped] = [ExecStrategy::NestedLoop, ExecStrategy::HashJoin]
            .map(|exec| evaluate_program_to_payload(&program, &TestSource, &[], None, exec));
        assert_eq!(piped, naive, "payloads differ on: {query}");
        budget.lowering_counts(Lowering::Aggregate)
    }

    #[test]
    fn the_aggregate_answers_like_the_interpreter() {
        // NULLABLEPAY: CUSTID 55, NULL, 55, 99; PAYMENT 10, 20, 30, 40.
        let pay = "{ for $s in fn:data($x/CUSTID) return <P.C>{$s}</P.C> }\
                   { for $s in fn:data($x/PAYMENT) return <P.P>{$s}</P.P> }";
        let by_cust = "for $r in $inter1/RECORD \
                       group $r as $p by xs:integer(fn:data($r/P.C)) as $g";
        let values = "for $a in $p return xs:decimal(fn:data($a/P.P))";
        let every = format!(
            "<RECORD><K>{{$g}}</K><N>{{fn:count($p)}}</N>\
             {{ for $v in (let $t := ({values}) return if (fn:empty($t)) then () \
             else fn:sum($t)) return <S>{{$v}}</S> }}\
             {{ for $v in fn:avg(({values})) return <A>{{$v}}</A> }}\
             <M>{{fn:min(({values}))}}</M><X>{{fn:max(({values}))}}</X>\
             <D>{{fn:count((fn:distinct-values(({values}))))}}</D></RECORD>"
        );
        let by_both = format!("{by_cust}, xs:decimal(fn:data($r/P.P)) as $h");
        let having = format!("{by_cust} where (fn:count($p) >= 2)");
        let none = "where ($x/PAYMENT > 100)";
        let one_group = "let $p := $inter1/RECORD";
        let without_keys = every.replace("<K>{$g}</K>", "");
        let (every, without_keys) = (every.as_str(), without_keys.as_str());
        for (body, group, ret) in [
            ("", by_cust, every),
            ("", by_both.as_str(), every),
            ("", having.as_str(), every),
            (none, by_cust, every),
            ("", one_group, without_keys),
            (none, one_group, without_keys),
        ] {
            let query = grouped_statement("NULLABLEPAY", body, pay, group, ret);
            assert_eq!(assert_aggregates_agree(&query), (1, 0, 0), "{query}");
        }
        // A NULL key is a group of its own; no row is no group with GROUP
        // BY and one without.
        let query = grouped_statement("NULLABLEPAY", "", pay, by_cust, every);
        let rows = run_exec(&query, &QueryBudget::unlimited(), ExecStrategy::HashJoin).unwrap();
        assert_eq!(
            serialize_sequence(&rows),
            "<RECORDSET><RECORD><K>55</K><N>2</N><S>40</S><A>20</A><M>10</M><X>30</X><D>2</D>\
             </RECORD><RECORD><K/><N>1</N><S>20</S><A>20</A><M>20</M><X>20</X><D>1</D>\
             </RECORD><RECORD><K>99</K><N>1</N><S>40</S><A>40</A><M>40</M><X>40</X><D>1</D>\
             </RECORD></RECORDSET>"
        );
        let empty = grouped_statement("NULLABLEPAY", none, pay, one_group, without_keys);
        let rows = run_exec(&empty, &QueryBudget::unlimited(), ExecStrategy::HashJoin).unwrap();
        assert_eq!(
            serialize_sequence(&rows),
            "<RECORDSET><RECORD><N>0</N><M/><X/><D>0</D></RECORD></RECORDSET>"
        );

        // TWINS holds X twice in one row: a NOT NULL cell joins the values,
        // a nullable one repeats its element — and a key or a cast over two
        // values is the interpreter's error, the operator abandoned.
        let twins = "<T.ID>{fn:data($x/ID)}</T.ID><T.J>{fn:data($x/X)}</T.J>\
                     { for $s in fn:data($x/X) return <T.R>{$s}</T.R> }";
        let by_id = "for $r in $inter1/RECORD group $r as $p by xs:integer(fn:data($r/T.ID)) as $g";
        let ret = "<RECORD><K>{$g}</K><J>{fn:min((for $a in $p return fn:data($a/T.J)))}</J>\
                   <R>{fn:count((for $a in $p return fn:data($a/T.R)))}</R></RECORD>";
        let query = grouped_statement("TWINS", "", twins, by_id, ret);
        assert_eq!(assert_aggregates_agree(&query), (1, 0, 0));
        let rows = run_exec(&query, &QueryBudget::unlimited(), ExecStrategy::HashJoin).unwrap();
        assert_eq!(
            serialize_sequence(&rows),
            "<RECORDSET><RECORD><K>1</K><J>a b&lt;</J><R>2</R></RECORD>\
             <RECORD><K>2</K><J>c</J><R>1</R></RECORD>\
             <RECORD><K>3</K><J></J><R>0</R></RECORD></RECORDSET>"
        );
        let by_r = "for $r in $inter1/RECORD group $r as $p by fn:data($r/T.R) as $g";
        let cast = ret.replace("fn:data($a/T.J)", "xs:integer(fn:data($a/T.J))");
        for query in [
            grouped_statement("TWINS", "", twins, by_r, ret),
            grouped_statement("TWINS", "", twins, by_id, &cast),
        ] {
            assert_eq!(assert_aggregates_agree(&query), (0, 0, 1), "{query}");
        }
    }

    #[test]
    fn the_aggregate_is_charged_its_rows_and_groups() {
        // PAYMENTS: two rows, two groups; `P.P` is read by nothing.
        let query = grouped_statement(
            "PAYMENTS",
            "",
            "<P.C>{fn:data($x/CUSTID)}</P.C><P.P>{fn:data($x/PAYMENT)}</P.P>",
            "for $r in $inter1/RECORD group $r as $p by xs:integer(fn:data($r/P.C)) as $g",
            "<RECORD><K>{$g}</K><N>{fn:count($p)}</N></RECORD>",
        );
        let meter = QueryBudget::unlimited();
        run_exec(&query, &meter, ExecStrategy::HashJoin).unwrap();
        assert_eq!(meter.lowering_counts(Lowering::Aggregate), (1, 0, 0));
        assert_eq!(meter.view_counts(), (1, 1, 0), "`$inter` counts as a view");
        // The body and the outer FLWOR; `$inter`'s constructor, its FLWOR,
        // the call and two bindings; per row one unit and the key's three
        // nodes; per group one unit; per projected group `1 + 2` and the two
        // variables its cells read.
        let whole = 2 + (1 + 1 + 1 + 2) + 2 * (1 + 3) + 2 + 2 * (3 + 2);
        assert_eq!(meter.fuel_consumed(), whole);
        run_exec(
            &query,
            &QueryBudget::unlimited().with_fuel(whole),
            ExecStrategy::HashJoin,
        )
        .unwrap();
        let starved = QueryBudget::unlimited().with_fuel(whole - 1);
        assert_eq!(
            run_exec(&query, &starved, ExecStrategy::HashJoin)
                .unwrap_err()
                .budget_error(),
            Some(BudgetError::FuelExhausted { limit: whole - 1 })
        );
        // The last unit is the `return`'s: the operator ran, and a limit is
        // never an abandon.
        assert_eq!(starved.lowering_counts(Lowering::Aggregate), (1, 0, 0));
        let early = QueryBudget::unlimited().with_fuel(whole - 12);
        run_exec(&query, &early, ExecStrategy::HashJoin).unwrap_err();
        assert_eq!(early.lowering_counts(Lowering::Aggregate), (0, 0, 0));
        // The row cap holds `$inter`'s rows under either strategy.
        let capped = || QueryBudget::unlimited().with_row_cap(1);
        let piped = run_exec(&query, &capped(), ExecStrategy::HashJoin).unwrap_err();
        assert_eq!(
            piped.budget_error(),
            Some(BudgetError::RowCapExceeded { rows: 2, cap: 1 })
        );
        assert_eq!(
            piped,
            run_exec(&query, &capped(), ExecStrategy::NestedLoop).unwrap_err()
        );
    }

    /// Runs `query` under both strategies, as items and as a payload: one
    /// outcome, value or error. Returns the pipeline's sort and set
    /// lowering counts.
    fn assert_rows_agree(query: &str) -> [(u64, u64, u64); 2] {
        let (naive, budget) = (QueryBudget::unlimited(), QueryBudget::unlimited());
        let piped = run_exec(query, &budget, ExecStrategy::HashJoin);
        let interpreted = run_exec(query, &naive, ExecStrategy::NestedLoop);
        assert_eq!(piped, interpreted, "items differ on: {query}");
        if piped.is_ok() {
            assert!(budget.fuel_consumed() <= naive.fuel_consumed(), "{query}");
        }
        let kinds = [Lowering::Sort, Lowering::Set];
        assert_eq!(
            kinds.map(|kind| naive.lowering_counts(kind)),
            [(0, 0, 0); 2]
        );
        let program = parse_program(query).unwrap();
        let [naive, piped] = [ExecStrategy::NestedLoop, ExecStrategy::HashJoin]
            .map(|exec| evaluate_program_to_payload(&program, &TestSource, &[], None, exec));
        assert_eq!(piped, naive, "payloads differ on: {query}");
        kinds.map(|kind| budget.lowering_counts(kind))
    }

    /// A wrapper as stage 3 writes one: `views`, then `for $r in SRC` and
    /// `order`, returning `$r`, inside the statement's `<RECORDSET>`.
    fn wrapper(views: &[(&str, &str, &str)], src: &str, order: &str) -> String {
        let views: String = views
            .iter()
            .map(|(var, table, cells)| {
                format!(
                    "let ${var} := <RECORDSET>{{ for $x in ns0:{table}() return \
                     <RECORD>{cells}</RECORD> }}</RECORDSET> "
                )
            })
            .collect();
        format!("{IMPORT} <RECORDSET>{{ {views}for $r in {src} {order} return $r }}</RECORDSET>")
    }

    /// NULLABLEPAY's CUSTID (55, NULL, 55, 99) and PAYMENT (10, 20, 30, 40).
    const PAY: (&str, &str, &str) = (
        "p",
        "NULLABLEPAY",
        "{ for $s in fn:data($x/CUSTID) return <C>{$s}</C> }<P>{fn:data($x/PAYMENT)}</P>",
    );

    #[test]
    fn the_rows_operator_answers_like_the_interpreter() {
        let sort = [(1, 0, 0), (0, 0, 0)];
        let row = |c: &str, p: &str| match c {
            "" => format!("<RECORD><P>{p}</P></RECORD>"),
            c => format!("<RECORD><C>{c}</C><P>{p}</P></RECORD>"),
        };
        // NULL sorts least, unless `empty greatest`; ties keep input order;
        // `descending` reverses each key, the tie's order included.
        for (order, expected) in [
            (
                "order by xs:integer($r/C)",
                [("", 20), ("55", 10), ("55", 30), ("99", 40)],
            ),
            (
                "order by xs:integer($r/C) empty greatest",
                [("55", 10), ("55", 30), ("99", 40), ("", 20)],
            ),
            (
                "order by $r/C descending, xs:decimal(fn:data($r/P)) descending",
                [("99", 40), ("55", 30), ("55", 10), ("", 20)],
            ),
        ] {
            let query = wrapper(&[PAY], "$p/RECORD", order);
            assert_eq!(assert_rows_agree(&query), sort, "{order}");
            let rows: String = expected
                .iter()
                .map(|(c, p)| row(c, &p.to_string()))
                .collect();
            assert_eq!(
                run_text(&query),
                format!("<RECORDSET>{rows}</RECORDSET>"),
                "{order}"
            );
        }
        // DISTINCT keeps first occurrences; the NULL row is a row of its own.
        let custid = (
            "p",
            "NULLABLEPAY",
            "{ for $s in fn:data($x/CUSTID) return <C>{$s}</C> }",
        );
        let query = wrapper(&[custid], "fn-bea:distinct-records($p/RECORD)", "");
        assert_eq!(assert_rows_agree(&query), [(0, 0, 0), (1, 0, 0)]);
        assert_eq!(
            run_text(&query),
            "<RECORDSET><RECORD><C>55</C></RECORD><RECORD/><RECORD><C>99</C></RECORD></RECORDSET>"
        );
        // UNION over a renamed right side; INTERSECT ALL and EXCEPT ALL take
        // multiplicities from the right (PAYMENTS' 55 and 23).
        let pays = ("q", "PAYMENTS", "<K>{fn:data($x/CUSTID)}</K>");
        let renamed = "let $n := <RECORDSET>{ for $y in $q/RECORD return \
             <RECORD>{ for $s in fn:data($y/K) return <C>{$s}</C> }</RECORD> }</RECORDSET> ";
        let setop = |src: &str| {
            wrapper(&[custid, pays], src, "").replace("for $r in", &format!("{renamed}for $r in"))
        };
        for (src, expected) in [
            (
                "fn-bea:distinct-records(($p/RECORD, $n/RECORD))",
                "55,,99,23",
            ),
            ("($p/RECORD, $n/RECORD)", "55,,55,99,55,23"),
            ("fn-bea:intersect-all-records($p/RECORD, $n/RECORD)", "55"),
            ("fn-bea:except-all-records($p/RECORD, $n/RECORD)", ",55,99"),
        ] {
            let query = setop(src);
            assert_eq!(assert_rows_agree(&query), [(0, 0, 0), (1, 0, 0)], "{src}");
            let rows: Vec<String> = expected
                .split(',')
                .map(|c| match c {
                    "" => "<RECORD/>".to_string(),
                    c => format!("<RECORD><C>{c}</C></RECORD>"),
                })
                .collect();
            assert_eq!(
                run_text(&query),
                format!("<RECORDSET>{}</RECORDSET>", rows.concat())
            );
        }
        // A key of two values and a cast that fails are the interpreter's
        // errors: the operator ran and handed the FLWOR back.
        let twins = (
            "t",
            "TWINS",
            "{ for $s in fn:data($x/X) return <X>{$s}</X> }",
        );
        let names = ("c", "CUSTOMERS", "<N>{fn:data($x/CUSTOMERNAME)}</N>");
        for query in [
            wrapper(&[twins], "$t/RECORD", "order by $r/X"),
            wrapper(&[names], "$c/RECORD", "order by xs:integer($r/N)"),
        ] {
            assert!(run_exec(&query, &QueryBudget::unlimited(), ExecStrategy::NestedLoop).is_err());
            assert_eq!(assert_rows_agree(&query), [(0, 0, 1), (0, 0, 0)], "{query}");
        }
    }

    #[test]
    fn the_rows_operator_is_charged_its_rows() {
        // PAYMENTS: two rows. The statement and its FLWOR; the view's
        // constructor and FLWOR, the call and two bindings; `$t/RECORD`; per
        // row the `for $r` binding and the key's two nodes; per projected row
        // `1 + 1`.
        let query = wrapper(
            &[("t", "PAYMENTS", "<C>{fn:data($x/CUSTID)}</C>")],
            "$t/RECORD",
            "order by xs:integer($r/C) descending",
        );
        let meter = QueryBudget::unlimited();
        run_exec(&query, &meter, ExecStrategy::HashJoin).unwrap();
        assert_eq!(meter.lowering_counts(Lowering::Sort), (1, 0, 0));
        assert_eq!(meter.view_counts(), (0, 0, 0), "no view is built");
        let whole = 2 + (2 + 1 + 2) + 1 + 2 * (1 + 2) + 2 * 2;
        assert_eq!(meter.fuel_consumed(), whole);
        run_exec(
            &query,
            &QueryBudget::unlimited().with_fuel(whole),
            ExecStrategy::HashJoin,
        )
        .unwrap();
        let starved = QueryBudget::unlimited().with_fuel(whole - 1);
        assert_eq!(
            run_exec(&query, &starved, ExecStrategy::HashJoin)
                .unwrap_err()
                .budget_error(),
            Some(BudgetError::FuelExhausted { limit: whole - 1 })
        );
        // The row cap holds the rows under either strategy: the view's, and
        // then UNION ALL's `for $r` over both operands.
        for (query, cap) in [
            (query.as_str(), 1),
            (
                &*wrapper(
                    &[
                        ("t", "PAYMENTS", "<C>{fn:data($x/CUSTID)}</C>"),
                        ("u", "PAYMENTS", "<C>{fn:data($x/CUSTID)}</C>"),
                    ],
                    "($t/RECORD, $u/RECORD)",
                    "",
                ),
                3,
            ),
        ] {
            let capped = || QueryBudget::unlimited().with_row_cap(cap);
            let piped = run_exec(query, &capped(), ExecStrategy::HashJoin).unwrap_err();
            assert_eq!(
                piped.budget_error(),
                Some(BudgetError::RowCapExceeded { rows: cap + 1, cap })
            );
            assert_eq!(
                piped,
                run_exec(query, &capped(), ExecStrategy::NestedLoop).unwrap_err()
            );
        }
    }

    #[test]
    fn prefixed_name_tests_match_the_name_as_written() {
        // CUSTOMERS rows are `ns0:CUSTOMERS`; their columns carry no prefix.
        let count = |path: &str| {
            run(&format!(
                "{IMPORT} fn:count(<V>{{ns0:CUSTOMERS()}}</V>/{path})"
            ))
        };
        let n = |n: i64| Sequence::singleton(Atomic::Integer(n));
        assert_eq!(count("ns0:CUSTOMERS"), n(3));
        assert_eq!(count("CUSTOMERS"), n(3));
        assert_eq!(count("ns1:CUSTOMERS"), n(0));
        assert_eq!(count("ns0:CUSTOMER"), n(0));
        assert_eq!(count("ns0:CUSTOMERS/ns0:CUSTOMERID"), n(0));
        assert_eq!(count("ns0:CUSTOMERS/CUSTOMERID"), n(3));
    }

    #[test]
    fn constant_positional_predicate_fast_path() {
        // In-range, out-of-range (both ends), fractional, and the
        // non-literal cast form that still takes the general path.
        let by_position = |pred: &str| {
            run_text(&format!(
                "{IMPORT} for $c in ns0:CUSTOMERS(){pred} \
                 return <ID>{{fn:data($c/CUSTOMERID)}}</ID>"
            ))
        };
        assert_eq!(by_position("[1]"), "<ID>55</ID>");
        assert_eq!(by_position("[3]"), "<ID>7</ID>");
        assert_eq!(by_position("[0]"), "");
        assert_eq!(by_position("[5]"), "");
        assert_eq!(by_position("[2.5]"), "");
        assert_eq!(by_position("[xs:integer(2)]"), "<ID>23</ID>");
    }

    #[test]
    fn group_by_keys_with_delimiter_bytes_do_not_collide() {
        // The retired String-concatenation encoding ("s" + value +
        // "\u{1}" per key) mapped the two-key tuples ("a\u{1}sb", "c")
        // and ("a", "b\u{1}sc") to the same canonical string; the
        // structured key keeps them apart, so this query has 2 groups.
        let query = format!(
            "{IMPORT} let $rows := <RECORDSET>{{
               for $c in ns0:CUSTOMERS()
               where ($c/CUSTOMERID = 55) or ($c/CUSTOMERID = 23)
               return <RECORD><ID>{{fn:data($c/CUSTOMERID)}}</ID></RECORD>
             }}</RECORDSET>
             for $r in $rows/RECORD
             group $r as $part
               by (if ($r/ID = 55) then \"a\u{1}sb\" else \"a\") as $k1,
                  (if ($r/ID = 55) then \"c\" else \"b\u{1}sc\") as $k2
             return <G>{{fn:count($part)}}</G>"
        );
        assert_eq!(run_text(&query), "<G>1</G><G>1</G>");

        // The ISSUE's headline pair — key lists ["a\u{1}b"] and
        // ["a", "b"] — now differ structurally, not just by luck of
        // delimiter placement.
        assert_ne!(
            vec![AtomKey::group(&Atomic::String("a\u{1}b".into()))],
            vec![
                AtomKey::group(&Atomic::String("a".into())),
                AtomKey::group(&Atomic::String("b".into())),
            ]
        );
    }

    /// A plan holds nothing of a run: one plan evaluated under one binding
    /// of `$sqlParam1`, then another, then the first again answers each
    /// exactly as a plan built for it does — payload, fuel and every
    /// counter — over a join, a grouped join under ORDER BY, a UNION, an
    /// outer join and an IN subquery, on both transports. Keeping a
    /// statement's plan across its executions relies on this.
    #[test]
    fn a_plan_holds_nothing_of_a_run() {
        let join = "for $c in ns0:CUSTOMERS() for $p in ns1:PAYMENTS() \
             where ($c/CUSTOMERID = $p/CUSTID) and ($p/PAYMENT > $sqlParam1)";
        let shapes = [
            format!(
                "<RECORDSET>{{ {join} return <RECORD><A>{{fn:data($c/CUSTOMERNAME)}}</A>\
                 <B>{{fn:data($p/PAYMENT)}}</B></RECORD> }}</RECORDSET>"
            ),
            format!(
                "<RECORDSET>{{ let $o := <RECORDSET>{{ let $inter := <RECORDSET>{{ {join} \
                 return <RECORD><C.ID>{{fn:data($c/CUSTOMERID)}}</C.ID><P.P>{{fn:data($p/PAYMENT)}}\
                 </P.P></RECORD> }}</RECORDSET> for $r in $inter/RECORD \
                 group $r as $g by fn:data($r/C.ID) as $k \
                 return <RECORD><A>{{$k}}</A><B>{{fn:count($g)}}</B></RECORD> }}</RECORDSET> \
                 for $z in $o/RECORD order by xs:integer(fn:data($z/A)) descending return $z \
                 }}</RECORDSET>"
            ),
            "<RECORDSET>{ let $l := <RECORDSET>{ for $c in ns0:CUSTOMERS() \
             where ($c/CUSTOMERID > $sqlParam1) return <RECORD><A>{fn:data($c/CUSTOMERID)}</A>\
             <B>{fn:data($c/CUSTOMERNAME)}</B></RECORD> }</RECORDSET> \
             let $r := <RECORDSET>{ for $p in ns1:PAYMENTS() return <RECORD>\
             <X>{fn:data($p/CUSTID)}</X><Y>{fn:data($p/PAYMENT)}</Y></RECORD> }</RECORDSET> \
             let $n := <RECORDSET>{ for $y in $r/RECORD return <RECORD><A>{fn:data($y/X)}</A>\
             <B>{fn:data($y/Y)}</B></RECORD> }</RECORDSET> \
             for $z in fn-bea:distinct-records(($l/RECORD, $n/RECORD)) return $z }</RECORDSET>"
                .to_string(),
            "<RECORDSET>{ let $t := <RECORDSET>{ for $c in ns0:CUSTOMERS() \
             let $m := ns1:PAYMENTS()[(($c/CUSTOMERID = CUSTID) and (PAYMENT > $sqlParam1))] \
             return if (fn:empty($m)) then <RECORD><C.N>{fn:data($c/CUSTOMERNAME)}</C.N>\
             { for $s in () return <P.P>{$s}</P.P> }<C.ID>{fn:data($c/CUSTOMERID)}</C.ID></RECORD> \
             else (for $p in $m return <RECORD><C.N>{fn:data($c/CUSTOMERNAME)}</C.N>\
             { for $s in fn:data($p/PAYMENT) return <P.P>{$s}</P.P> }\
             <C.ID>{fn:data($c/CUSTOMERID)}</C.ID></RECORD>) }</RECORDSET> \
             for $r in $t/RECORD return <RECORD><A>{fn:data($r/C.N)}</A>\
             { for $s in fn:data($r/P.P) return <B>{$s}</B> }</RECORD> }</RECORDSET>"
                .to_string(),
            "<RECORDSET>{ for $c in ns0:CUSTOMERS() where ($c/CUSTOMERID = <RECORDSET>{ \
             for $p in ns1:PAYMENTS() where ($p/PAYMENT > $sqlParam1) \
             return <RECORD><K>{fn:data($p/CUSTID)}</K></RECORD> }</RECORDSET>/RECORD/K) \
             return <RECORD><A>{fn:data($c/CUSTOMERID)}</A><B>{fn:data($c/CUSTOMERNAME)}</B>\
             </RECORD> }</RECORDSET>"
                .to_string(),
        ];
        let observe = |program: &Program, plan: &PhysicalPlan<'_>, param: i64| {
            let budget = QueryBudget::unlimited();
            let param = Sequence::singleton(Atomic::Integer(param));
            let vars = [("sqlParam1".to_string(), param)];
            let ran = super::run(program, plan, &TestSource, &vars, Some(&budget));
            let payload = serialize_sequence(&ran.unwrap_or_else(|e| panic!("{e}")));
            let kinds = [Lowering::Aggregate, Lowering::Sort, Lowering::Set];
            let counts = (
                kinds.map(|kind| budget.lowering_counts(kind)),
                budget.view_counts(),
                budget.index_counts(),
                budget.take_exec_counts(),
                budget.sink_counts(),
            );
            (payload, budget.fuel_consumed(), counts)
        };
        let (mut operators, mut sunk, mut differed) = ([0; 5], 0, 0);
        for shape in &shapes {
            for query in [format!("{IMPORT}{shape}"), wrapped(shape)] {
                let program = parse_program(&query).unwrap_or_else(|e| panic!("{e}"));
                let kept = PhysicalPlan::new(&program, ExecStrategy::HashJoin, true);
                let runs = [0, 75, 0].map(|param| {
                    let fresh = PhysicalPlan::new(&program, ExecStrategy::HashJoin, true);
                    let ran = observe(&program, &kept, param);
                    assert_eq!(ran, observe(&program, &fresh, param), "{param}: {query}");
                    ran
                });
                differed += usize::from(runs[0].0 != runs[1].0);
                let ([aggregates, sorts, sets], views, _, (joins, _), sinks) = runs[0].2;
                let ran = [aggregates.0, sorts.0, sets.0, views.0, joins];
                operators
                    .iter_mut()
                    .zip(ran)
                    .for_each(|(seen, ran)| *seen += ran);
                sunk += usize::from(sinks == (1, 0));
            }
        }
        // Aggregates, sorts, set operations, views and hash joins ran, every
        // statement through its sink, and the bindings answered differently.
        assert!(operators.iter().all(|&ran| ran > 0), "{operators:?}");
        assert_eq!((sunk, differed), (10, 10));
    }
}
