//! # aldsp-governor — resource governance primitives
//!
//! A data-services server survives hostile and heavy workloads only if
//! every query runs under explicit resource control. This crate holds the
//! shared vocabulary the whole pipeline speaks — it sits below every
//! other crate (no dependencies), so the SQL parser, the translator, the
//! XQuery evaluator, and the driver can all consult the same budget:
//!
//! * [`QueryBudget`] — a per-query allowance: wall-clock deadline,
//!   cooperative [`CancellationToken`], evaluator fuel (step count), and
//!   a row cap bounding tuple-stream width. Cheap to clone (one `Arc`);
//!   every layer charges against the same counters.
//! * [`BudgetError`] — the typed violations a budget can surface.
//! * [`AdmissionGate`] — a bounded semaphore with queue-wait timeout:
//!   overload protection by load shedding rather than unbounded queueing.
//! * [`CircuitBreaker`] — per-backend closed → open → half-open breaker
//!   driven by consecutive permanent failures.
//! * [`Governor`] — the composition a `QueryService` front end installs:
//!   statement-size guard, breaker, admission gate, and the
//!   [`GovernorStats`] accounting that makes every rejection countable.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Budget errors
// ---------------------------------------------------------------------

/// A typed budget violation. `Copy` so it can ride inside error kinds
/// that are themselves `Copy` (e.g. `aldsp-core`'s `ErrorKind`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BudgetError {
    /// The wall-clock deadline passed.
    DeadlineExceeded {
        /// Milliseconds elapsed when the violation was detected.
        elapsed_ms: u64,
        /// The deadline, in milliseconds.
        budget_ms: u64,
    },
    /// The query was cooperatively cancelled.
    Cancelled,
    /// The evaluator spent its full step allowance.
    FuelExhausted {
        /// The fuel limit that was exhausted.
        limit: u64,
    },
    /// A tuple stream grew past the row cap (e.g. a runaway cartesian
    /// product).
    RowCapExceeded {
        /// Observed width when the cap tripped.
        rows: u64,
        /// The configured cap.
        cap: u64,
    },
    /// The statement text exceeded the input size cap.
    StatementTooLarge {
        /// Statement length in bytes.
        len: u64,
        /// The configured cap in bytes.
        cap: u64,
    },
}

impl fmt::Display for BudgetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetError::DeadlineExceeded {
                elapsed_ms,
                budget_ms,
            } => write!(
                f,
                "query budget deadline exceeded: {elapsed_ms}ms elapsed of a {budget_ms}ms budget"
            ),
            BudgetError::Cancelled => f.write_str("query cancelled"),
            BudgetError::FuelExhausted { limit } => {
                write!(f, "evaluator fuel exhausted: {limit} steps spent")
            }
            BudgetError::RowCapExceeded { rows, cap } => {
                write!(f, "row cap exceeded: {rows} rows against a cap of {cap}")
            }
            BudgetError::StatementTooLarge { len, cap } => {
                write!(f, "statement too large: {len} bytes against a cap of {cap}")
            }
        }
    }
}

impl std::error::Error for BudgetError {}

// ---------------------------------------------------------------------
// Execution strategy
// ---------------------------------------------------------------------

/// How the XQuery evaluator executes FLWOR expressions. Lives here — the
/// zero-dependency crate both `aldsp-core` and `aldsp-xquery` sit on — so
/// the driver's `TranslationOptions` and the evaluator can share the knob
/// without a dependency cycle, mirroring how `OptimizeLevel` gates the
/// translator-side rewrite engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum ExecStrategy {
    /// The naive interpreter: every `for` clause materializes the full
    /// tuple cross product, `where` filters afterwards. Always available;
    /// the reference semantics every other strategy is checked against.
    #[default]
    NestedLoop,
    /// Streaming physical operators: FLWOR prefixes whose `where`
    /// conjuncts equate variables bound by different `for` clauses run as
    /// build/probe hash joins with fused residual filters, so the cross
    /// product is never materialized. Shapes the lowering does not
    /// recognize fall back to [`ExecStrategy::NestedLoop`] unchanged.
    HashJoin,
}

// ---------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------

/// A cooperative cancellation token. Cloning shares the flag; any holder
/// can cancel, and every layer holding the owning [`QueryBudget`] observes
/// it at its next checkpoint.
#[derive(Clone, Default)]
pub struct CancellationToken(Arc<AtomicBool>);

impl CancellationToken {
    /// A fresh, uncancelled token.
    pub fn new() -> CancellationToken {
        CancellationToken::default()
    }

    /// Requests cancellation. Idempotent.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether cancellation was requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

impl fmt::Debug for CancellationToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("CancellationToken")
            .field(&self.is_cancelled())
            .finish()
    }
}

// ---------------------------------------------------------------------
// Query budget
// ---------------------------------------------------------------------

/// How often [`QueryBudget::charge`] re-checks the wall clock: reading
/// `Instant::now()` on every evaluator step would dominate evaluation, so
/// the deadline is polled once per this many fuel units (cancellation is
/// an atomic load and is checked on the same cadence).
const CHECK_INTERVAL: u64 = 64;

struct BudgetInner {
    start: Instant,
    deadline: Option<Duration>,
    fuel_limit: u64,
    fuel_spent: AtomicU64,
    row_cap: u64,
    token: CancellationToken,
    // Execution telemetry: FLWORs the hash-join lowering ran vs. the
    // join-shaped ones it declined (or abandoned). Counted here because
    // the budget is the one object that already rides through every
    // evaluation layer.
    hash_joins: AtomicU64,
    join_fallbacks: AtomicU64,
    // The fallbacks whose pipeline was planned, ran and raised.
    join_abandons: AtomicU64,
    // Join-index requests (a hash operator's build side over a
    // data-service function's rows) that built their table, and those a
    // function source answered with one it had kept.
    indexes_built: AtomicU64,
    index_hits: AtomicU64,
    // Statement bodies a sink (text or XML) wrote, and those it abandoned
    // to the interpreter. Not hash operators: they stay out of the two
    // above.
    sinks: AtomicU64,
    sink_fallbacks: AtomicU64,
    // `let`-bound views a tail plan built, the cells those plans left out
    // because nothing downstream reads them, and the views a plan
    // abandoned to the interpreter.
    views: AtomicU64,
    cells_pruned: AtomicU64,
    view_fallbacks: AtomicU64,
    // Per `Lowering`, the FLWORs its operator ran, declined, and ran but
    // abandoned to the interpreter.
    lowerings: [[AtomicU64; 3]; 3],
}

/// An operator that runs a whole FLWOR of stage 3's in place of the
/// interpreter's clause loop ([`QueryBudget::record_lowering`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lowering {
    /// A grouped FLWOR, as a hash aggregate.
    Aggregate,
    /// An ORDER BY wrapper, as a stable sort.
    Sort,
    /// A DISTINCT or set-operation wrapper, as a hash set operation.
    Set,
}

/// What became of a FLWOR a [`Lowering`]'s operator was asked to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoweringOutcome {
    /// The operator ran it.
    Lowered,
    /// The operator does not read its shape: the interpreter ran it.
    Declined,
    /// The operator ran and raised: the interpreter re-ran it.
    Abandoned,
}

/// A per-query resource allowance, shared by translation, retries, and
/// evaluation: one budget, spent from every layer.
///
/// All limits default to unlimited; builders narrow them. The budget's
/// clock starts when it is constructed, so a deadline bounds everything
/// that happens after [`QueryBudget::with_deadline`] — queue wait,
/// translation, every retry attempt, and evaluation together.
#[derive(Clone)]
pub struct QueryBudget {
    inner: Arc<BudgetInner>,
}

impl Default for QueryBudget {
    fn default() -> QueryBudget {
        QueryBudget::unlimited()
    }
}

impl QueryBudget {
    /// A budget with no limits (checks always pass).
    pub fn unlimited() -> QueryBudget {
        QueryBudget {
            inner: Arc::new(BudgetInner {
                start: Instant::now(),
                deadline: None,
                fuel_limit: u64::MAX,
                fuel_spent: AtomicU64::new(0),
                row_cap: u64::MAX,
                token: CancellationToken::new(),
                hash_joins: AtomicU64::new(0),
                join_fallbacks: AtomicU64::new(0),
                join_abandons: AtomicU64::new(0),
                indexes_built: AtomicU64::new(0),
                index_hits: AtomicU64::new(0),
                sinks: AtomicU64::new(0),
                sink_fallbacks: AtomicU64::new(0),
                views: AtomicU64::new(0),
                cells_pruned: AtomicU64::new(0),
                view_fallbacks: AtomicU64::new(0),
                lowerings: Default::default(),
            }),
        }
    }

    fn rebuild(self, f: impl FnOnce(&mut BudgetInner)) -> QueryBudget {
        // Builders run before the budget is shared; recreate the inner
        // allocation with the adjusted limit and the original clock.
        let inner = &self.inner;
        let mut next = BudgetInner {
            start: inner.start,
            deadline: inner.deadline,
            fuel_limit: inner.fuel_limit,
            fuel_spent: AtomicU64::new(inner.fuel_spent.load(Ordering::Relaxed)),
            row_cap: inner.row_cap,
            token: inner.token.clone(),
            hash_joins: AtomicU64::new(inner.hash_joins.load(Ordering::Relaxed)),
            join_fallbacks: AtomicU64::new(inner.join_fallbacks.load(Ordering::Relaxed)),
            join_abandons: AtomicU64::new(inner.join_abandons.load(Ordering::Relaxed)),
            indexes_built: AtomicU64::new(inner.indexes_built.load(Ordering::Relaxed)),
            index_hits: AtomicU64::new(inner.index_hits.load(Ordering::Relaxed)),
            sinks: AtomicU64::new(inner.sinks.load(Ordering::Relaxed)),
            sink_fallbacks: AtomicU64::new(inner.sink_fallbacks.load(Ordering::Relaxed)),
            views: AtomicU64::new(inner.views.load(Ordering::Relaxed)),
            cells_pruned: AtomicU64::new(inner.cells_pruned.load(Ordering::Relaxed)),
            view_fallbacks: AtomicU64::new(inner.view_fallbacks.load(Ordering::Relaxed)),
            lowerings: inner.lowerings.each_ref().map(|counts| {
                counts
                    .each_ref()
                    .map(|count| AtomicU64::new(count.load(Ordering::Relaxed)))
            }),
        };
        f(&mut next);
        QueryBudget {
            inner: Arc::new(next),
        }
    }

    /// Bounds wall-clock time, measured from the budget's construction.
    pub fn with_deadline(self, deadline: Duration) -> QueryBudget {
        self.rebuild(|inner| inner.deadline = Some(deadline))
    }

    /// Bounds evaluator steps.
    pub fn with_fuel(self, fuel: u64) -> QueryBudget {
        self.rebuild(|inner| inner.fuel_limit = fuel)
    }

    /// Bounds tuple-stream width during evaluation (and with it, memory).
    pub fn with_row_cap(self, cap: u64) -> QueryBudget {
        self.rebuild(|inner| inner.row_cap = cap)
    }

    /// The cancellation token; clone it to cancel from another thread.
    pub fn token(&self) -> CancellationToken {
        self.inner.token.clone()
    }

    /// Requests cooperative cancellation.
    pub fn cancel(&self) {
        self.inner.token.cancel();
    }

    /// Elapsed time since the budget was created.
    pub fn elapsed(&self) -> Duration {
        self.inner.start.elapsed()
    }

    /// Time left before the deadline; `None` when unbounded.
    pub fn remaining(&self) -> Option<Duration> {
        self.inner
            .deadline
            .map(|d| d.saturating_sub(self.inner.start.elapsed()))
    }

    /// The configured deadline, if any.
    pub fn deadline(&self) -> Option<Duration> {
        self.inner.deadline
    }

    /// Fuel spent so far.
    pub fn fuel_spent(&self) -> u64 {
        self.inner.fuel_spent.load(Ordering::Relaxed)
    }

    /// Total fuel the evaluation consumed, read *after* it finished (one
    /// unit per expression evaluation, one per FLWOR tuple). Identical to [`QueryBudget::fuel_spent`]; the name marks
    /// the post-hoc reading from the in-flight one.
    pub fn fuel_consumed(&self) -> u64 {
        self.fuel_spent()
    }

    /// The row cap (`u64::MAX` when unbounded).
    pub fn row_cap(&self) -> u64 {
        self.inner.row_cap
    }

    /// Records `n` FLWOR prefixes executed through the streaming
    /// hash-join pipeline.
    pub fn record_hash_join(&self, n: u64) {
        self.inner.hash_joins.fetch_add(n, Ordering::Relaxed);
    }

    /// Records a join-shaped FLWOR (two or more `for` clauses) that the
    /// hash-join lowering declined or abandoned back to the nested-loop
    /// interpreter.
    pub fn record_join_fallback(&self) {
        self.inner.join_fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a join-shaped FLWOR whose pipeline was planned, ran and
    /// raised, so the interpreter re-ran it: a fallback
    /// ([`QueryBudget::join_fallbacks`] counts it too) that is not a
    /// declined lowering. The interpreter raises the same error or the
    /// pipeline has diverged from it.
    pub fn record_join_abandon(&self) {
        self.record_join_fallback();
        self.inner.join_abandons.fetch_add(1, Ordering::Relaxed);
    }

    /// Pipelines that ran and raised so far: the part of
    /// [`QueryBudget::join_fallbacks`] that is not a declined lowering.
    /// Not drained by [`QueryBudget::take_exec_counts`].
    pub fn join_abandons(&self) -> u64 {
        self.inner.join_abandons.load(Ordering::Relaxed)
    }

    /// Records a join-index request: `built` when the hash operator keyed
    /// the function's rows itself, otherwise the function source handed
    /// back the table an earlier statement built.
    pub fn record_index(&self, built: bool) {
        let counter = if built {
            &self.inner.indexes_built
        } else {
            &self.inner.index_hits
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// `(join indexes built, join indexes reused)` so far. A hash operator
    /// whose build side is no bare data-service function keyed by one
    /// child asks for no index and counts in neither. Not drained by
    /// [`QueryBudget::take_exec_counts`].
    pub fn index_counts(&self) -> (u64, u64) {
        (
            self.inner.indexes_built.load(Ordering::Relaxed),
            self.inner.index_hits.load(Ordering::Relaxed),
        )
    }

    /// FLWOR prefixes executed through the hash-join pipeline so far.
    pub fn hash_joins(&self) -> u64 {
        self.inner.hash_joins.load(Ordering::Relaxed)
    }

    /// Join-shaped FLWORs that fell back to the nested-loop interpreter.
    pub fn join_fallbacks(&self) -> u64 {
        self.inner.join_fallbacks.load(Ordering::Relaxed)
    }

    /// Drains the execution counters, returning `(hash_joins,
    /// join_fallbacks)` accumulated since the last drain and resetting
    /// both to zero. A service that reuses one budget across executions
    /// gets per-execution deltas this way instead of double counting.
    pub fn take_exec_counts(&self) -> (u64, u64) {
        (
            self.inner.hash_joins.swap(0, Ordering::Relaxed),
            self.inner.join_fallbacks.swap(0, Ordering::Relaxed),
        )
    }

    /// Records a statement body a sink wrote: a §4 wrapper (the text
    /// sink) or an XML `<RECORDSET>` of one FLWOR's rows (the XML sink).
    pub fn record_sink(&self) {
        self.inner.sinks.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a statement body a sink abandoned on an error and the
    /// interpreter re-ran.
    pub fn record_sink_fallback(&self) {
        self.inner.sink_fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// `(sinks run, sink fallbacks)` so far. Not drained by
    /// [`QueryBudget::take_exec_counts`], which keeps counting hash
    /// operators only.
    pub fn sink_counts(&self) -> (u64, u64) {
        (
            self.inner.sinks.load(Ordering::Relaxed),
            self.inner.sink_fallbacks.load(Ordering::Relaxed),
        )
    }

    /// Records a `let`-bound view built by its tail plan, which left
    /// `cells_pruned` cells of its row constructors out; `None` is a view
    /// whose plan failed and the interpreter rebuilt.
    pub fn record_view(&self, cells_pruned: Option<u64>) {
        match cells_pruned {
            Some(cells) => {
                self.inner.views.fetch_add(1, Ordering::Relaxed);
                self.inner.cells_pruned.fetch_add(cells, Ordering::Relaxed);
            }
            None => {
                self.inner.view_fallbacks.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// `(views built by a tail plan, cells pruned, view fallbacks)` so
    /// far. Like [`QueryBudget::sink_counts`], not drained by
    /// [`QueryBudget::take_exec_counts`]. A view that stopped pruning
    /// returns the same rows, only slower: this is how a test sees it.
    pub fn view_counts(&self) -> (u64, u64, u64) {
        (
            self.inner.views.load(Ordering::Relaxed),
            self.inner.cells_pruned.load(Ordering::Relaxed),
            self.inner.view_fallbacks.load(Ordering::Relaxed),
        )
    }

    /// Records what became of a FLWOR `kind`'s operator was asked to run.
    pub fn record_lowering(&self, kind: Lowering, outcome: LoweringOutcome) {
        self.inner.lowerings[kind as usize][outcome as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// `(FLWORs kind's operator ran, declined, abandoned)` so far. Like
    /// [`QueryBudget::view_counts`], not drained by
    /// [`QueryBudget::take_exec_counts`]: a statement an operator declines
    /// returns the same rows, only slower.
    pub fn lowering_counts(&self, kind: Lowering) -> (u64, u64, u64) {
        let [lowered, declined, abandoned] = &self.inner.lowerings[kind as usize];
        let count = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        (count(lowered), count(declined), count(abandoned))
    }

    /// Checks cancellation and the deadline. Call at coarse boundaries
    /// (before an attempt, between pipeline stages).
    pub fn check(&self) -> Result<(), BudgetError> {
        if self.inner.token.is_cancelled() {
            return Err(BudgetError::Cancelled);
        }
        if let Some(deadline) = self.inner.deadline {
            let elapsed = self.inner.start.elapsed();
            if elapsed >= deadline {
                return Err(BudgetError::DeadlineExceeded {
                    elapsed_ms: elapsed.as_millis() as u64,
                    budget_ms: deadline.as_millis() as u64,
                });
            }
        }
        Ok(())
    }

    /// Spends `n` fuel units. Fuel exhaustion reports immediately; the
    /// clock and cancellation flag are polled every `CHECK_INTERVAL` (64)
    /// units so per-step charging stays cheap.
    pub fn charge(&self, n: u64) -> Result<(), BudgetError> {
        let spent = self.inner.fuel_spent.fetch_add(n, Ordering::Relaxed) + n;
        if spent > self.inner.fuel_limit {
            return Err(BudgetError::FuelExhausted {
                limit: self.inner.fuel_limit,
            });
        }
        if spent / CHECK_INTERVAL != spent.wrapping_sub(n) / CHECK_INTERVAL {
            self.check()?;
        }
        Ok(())
    }

    /// Checks a tuple-stream width against the row cap.
    pub fn check_rows(&self, rows: u64) -> Result<(), BudgetError> {
        if rows > self.inner.row_cap {
            return Err(BudgetError::RowCapExceeded {
                rows,
                cap: self.inner.row_cap,
            });
        }
        Ok(())
    }
}

impl fmt::Debug for QueryBudget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueryBudget")
            .field("deadline", &self.inner.deadline)
            .field("fuel_limit", &self.inner.fuel_limit)
            .field("fuel_spent", &self.fuel_spent())
            .field("row_cap", &self.inner.row_cap)
            .field("cancelled", &self.inner.token.is_cancelled())
            .finish()
    }
}

// ---------------------------------------------------------------------
// Admission gate
// ---------------------------------------------------------------------

/// A bounded admission semaphore with a queue-wait timeout: at most
/// `capacity` queries run at once, and a caller that cannot get a permit
/// within the timeout is shed instead of queueing without bound.
pub struct AdmissionGate {
    capacity: usize,
    available: Mutex<usize>,
    freed: Condvar,
}

impl AdmissionGate {
    /// A gate admitting up to `capacity` concurrent holders (min 1).
    pub fn new(capacity: usize) -> AdmissionGate {
        let capacity = capacity.max(1);
        AdmissionGate {
            capacity,
            available: Mutex::new(capacity),
            freed: Condvar::new(),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Tries to take a permit, waiting at most `timeout`. `None` means
    /// the caller should shed the query.
    pub fn acquire(&self, timeout: Duration) -> Option<AdmissionPermit<'_>> {
        let deadline = Instant::now() + timeout;
        let mut available = self.available.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if *available > 0 {
                *available -= 1;
                return Some(AdmissionPermit { gate: self });
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            let (guard, result) = self
                .freed
                .wait_timeout(available, left)
                .unwrap_or_else(|e| e.into_inner());
            available = guard;
            if result.timed_out() && *available == 0 {
                return None;
            }
        }
    }

    fn release(&self) {
        let mut available = self.available.lock().unwrap_or_else(|e| e.into_inner());
        *available += 1;
        drop(available);
        self.freed.notify_one();
    }
}

/// A held admission slot; dropping it frees the slot and wakes a waiter.
pub struct AdmissionPermit<'a> {
    gate: &'a AdmissionGate,
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        self.gate.release();
    }
}

// ---------------------------------------------------------------------
// Circuit breaker
// ---------------------------------------------------------------------

/// Breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive backend failures that trip the breaker open.
    pub failure_threshold: u32,
    /// How long the breaker stays open before allowing a half-open probe.
    pub open_duration: Duration,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 5,
            open_duration: Duration::from_millis(100),
        }
    }
}

/// Breaker states, in the classic closed → open → half-open cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BreakerState {
    /// Healthy: requests pass, consecutive failures are counted.
    #[default]
    Closed,
    /// Tripped: requests are rejected until the open window passes.
    Open,
    /// Probing: one request is allowed through to test the backend.
    HalfOpen,
}

struct BreakerInner {
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: Option<Instant>,
    probe_in_flight: bool,
}

/// A per-backend circuit breaker. Callers ask [`CircuitBreaker::admit`]
/// before contacting the backend and report the outcome afterwards; a run
/// of consecutive permanent failures opens the breaker, the open window
/// then admits a single half-open probe, and the probe's outcome closes
/// or re-opens it.
pub struct CircuitBreaker {
    config: BreakerConfig,
    inner: Mutex<BreakerInner>,
    trips: AtomicU64,
}

impl CircuitBreaker {
    /// A closed breaker with the given tuning.
    pub fn new(config: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            config,
            inner: Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                opened_at: None,
                probe_in_flight: false,
            }),
            trips: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BreakerInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The current state (open windows that have elapsed report as
    /// half-open).
    pub fn state(&self) -> BreakerState {
        let mut inner = self.lock();
        self.refresh(&mut inner);
        inner.state
    }

    /// Times the breaker has tripped open.
    pub fn trips(&self) -> u64 {
        self.trips.load(Ordering::Relaxed)
    }

    fn refresh(&self, inner: &mut BreakerInner) {
        if inner.state == BreakerState::Open {
            let elapsed = inner
                .opened_at
                .map(|t| t.elapsed())
                .unwrap_or(Duration::ZERO);
            if elapsed >= self.config.open_duration {
                inner.state = BreakerState::HalfOpen;
                inner.probe_in_flight = false;
            }
        }
    }

    /// Whether a request may proceed. In half-open state exactly one
    /// caller is admitted as the probe; the rest are rejected until the
    /// probe reports.
    pub fn admit(&self) -> bool {
        let mut inner = self.lock();
        self.refresh(&mut inner);
        match inner.state {
            BreakerState::Closed => true,
            BreakerState::Open => false,
            BreakerState::HalfOpen => {
                if inner.probe_in_flight {
                    false
                } else {
                    inner.probe_in_flight = true;
                    true
                }
            }
        }
    }

    /// Reports a successful backend interaction.
    pub fn record_success(&self) {
        let mut inner = self.lock();
        inner.consecutive_failures = 0;
        inner.probe_in_flight = false;
        inner.state = BreakerState::Closed;
        inner.opened_at = None;
    }

    /// Reports a backend failure (count only failures that indicate the
    /// *backend* is unhealthy — not statement errors or budget rejections).
    pub fn record_failure(&self) {
        let mut inner = self.lock();
        self.refresh(&mut inner);
        match inner.state {
            BreakerState::HalfOpen => {
                // The probe failed: back to a full open window.
                inner.state = BreakerState::Open;
                inner.opened_at = Some(Instant::now());
                inner.probe_in_flight = false;
                self.trips.fetch_add(1, Ordering::Relaxed);
            }
            BreakerState::Closed => {
                inner.consecutive_failures += 1;
                if inner.consecutive_failures >= self.config.failure_threshold {
                    inner.state = BreakerState::Open;
                    inner.opened_at = Some(Instant::now());
                    self.trips.fetch_add(1, Ordering::Relaxed);
                }
            }
            BreakerState::Open => {}
        }
    }
}

// ---------------------------------------------------------------------
// Governor: the composed front-end guard
// ---------------------------------------------------------------------

/// Governor tuning for a query front end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GovernorConfig {
    /// Maximum concurrently admitted queries; `0` disables admission
    /// control entirely.
    pub max_concurrency: usize,
    /// How long a caller may wait for admission before being shed.
    pub queue_timeout: Duration,
    /// Maximum statement text size in bytes; `0` disables the guard.
    pub max_statement_bytes: usize,
    /// Circuit-breaker tuning.
    pub breaker: BreakerConfig,
}

impl Default for GovernorConfig {
    fn default() -> GovernorConfig {
        GovernorConfig {
            max_concurrency: 0,
            queue_timeout: Duration::from_millis(50),
            max_statement_bytes: 1 << 20,
            breaker: BreakerConfig::default(),
        }
    }
}

/// Why the governor rejected a query before it ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionError {
    /// No admission slot freed up within the queue timeout.
    QueueTimeout {
        /// The timeout that elapsed.
        waited: Duration,
    },
    /// The backend's circuit breaker is open.
    BreakerOpen,
    /// The statement text exceeds the input size cap.
    StatementTooLarge(BudgetError),
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::QueueTimeout { waited } => write!(
                f,
                "admission queue timed out after {}ms: service at capacity",
                waited.as_millis()
            ),
            AdmissionError::BreakerOpen => {
                f.write_str("backend circuit breaker is open: shedding load")
            }
            AdmissionError::StatementTooLarge(e) => e.fmt(f),
        }
    }
}

/// A snapshot of governor counters. The accounting identity every
/// snapshot satisfies (pinned by tests):
///
/// `submitted == admitted + shed + breaker_rejections + statement_rejections`
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GovernorStats {
    /// Queries presented to the governor.
    pub submitted: u64,
    /// Queries that passed every guard and ran.
    pub admitted: u64,
    /// Rejections from the admission queue timeout.
    pub shed: u64,
    /// Rejections while the breaker was open.
    pub breaker_rejections: u64,
    /// Rejections from the statement-size guard.
    pub statement_rejections: u64,
    /// Admitted queries that ended in a budget violation
    /// (deadline / fuel / rows / cancellation).
    pub budget_rejections: u64,
    /// Times the breaker tripped open.
    pub breaker_trips: u64,
    /// FLWOR prefixes executed through the streaming hash-join pipeline
    /// (reported by admitted queries; zero unless the service runs with
    /// [`ExecStrategy::HashJoin`]).
    pub hash_joins: u64,
    /// Join-shaped FLWORs that fell back to the nested-loop interpreter.
    /// Together with `hash_joins` this makes the fast-path fraction of a
    /// workload an observable number rather than a claim.
    pub join_fallbacks: u64,
    /// Breaker state at snapshot time.
    pub breaker_state: BreakerState,
}

impl GovernorStats {
    /// All pre-execution rejections.
    pub fn rejected(&self) -> u64 {
        self.shed + self.breaker_rejections + self.statement_rejections
    }

    /// The accounting identity (see type docs).
    pub fn is_consistent(&self) -> bool {
        self.submitted == self.admitted + self.rejected()
    }
}

/// The composed guard a query front end runs every statement through:
/// size check, breaker check, admission gate — in that order, with every
/// outcome counted.
pub struct Governor {
    config: GovernorConfig,
    gate: Option<AdmissionGate>,
    breaker: CircuitBreaker,
    submitted: AtomicU64,
    admitted: AtomicU64,
    shed: AtomicU64,
    breaker_rejections: AtomicU64,
    statement_rejections: AtomicU64,
    budget_rejections: AtomicU64,
    hash_joins: AtomicU64,
    join_fallbacks: AtomicU64,
}

impl Default for Governor {
    fn default() -> Governor {
        Governor::new(GovernorConfig::default())
    }
}

impl Governor {
    /// A governor with the given tuning.
    pub fn new(config: GovernorConfig) -> Governor {
        Governor {
            gate: (config.max_concurrency > 0).then(|| AdmissionGate::new(config.max_concurrency)),
            breaker: CircuitBreaker::new(config.breaker),
            config,
            submitted: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            breaker_rejections: AtomicU64::new(0),
            statement_rejections: AtomicU64::new(0),
            budget_rejections: AtomicU64::new(0),
            hash_joins: AtomicU64::new(0),
            join_fallbacks: AtomicU64::new(0),
        }
    }

    /// The tuning in effect.
    pub fn config(&self) -> GovernorConfig {
        self.config
    }

    /// The backend breaker (outcome reporting goes through
    /// [`Governor::record_backend_success`] / `record_backend_failure`).
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }

    /// Runs the pre-execution guards for a statement of `statement_len`
    /// bytes. On success the returned permit must be held for the whole
    /// execution (dropping it frees the admission slot).
    pub fn admit(
        &self,
        statement_len: usize,
    ) -> Result<Option<AdmissionPermit<'_>>, AdmissionError> {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        let cap = self.config.max_statement_bytes;
        if cap > 0 && statement_len > cap {
            self.statement_rejections.fetch_add(1, Ordering::Relaxed);
            return Err(AdmissionError::StatementTooLarge(
                BudgetError::StatementTooLarge {
                    len: statement_len as u64,
                    cap: cap as u64,
                },
            ));
        }
        if !self.breaker.admit() {
            self.breaker_rejections.fetch_add(1, Ordering::Relaxed);
            return Err(AdmissionError::BreakerOpen);
        }
        let permit = match &self.gate {
            None => None,
            Some(gate) => match gate.acquire(self.config.queue_timeout) {
                Some(permit) => Some(permit),
                None => {
                    self.shed.fetch_add(1, Ordering::Relaxed);
                    return Err(AdmissionError::QueueTimeout {
                        waited: self.config.queue_timeout,
                    });
                }
            },
        };
        self.admitted.fetch_add(1, Ordering::Relaxed);
        Ok(permit)
    }

    /// Reports a healthy backend interaction (closes the breaker).
    pub fn record_backend_success(&self) {
        self.breaker.record_success();
    }

    /// Reports a backend failure (counts toward opening the breaker).
    pub fn record_backend_failure(&self) {
        self.breaker.record_failure();
    }

    /// Reports an admitted query that ended in a budget violation.
    pub fn record_budget_rejection(&self) {
        self.budget_rejections.fetch_add(1, Ordering::Relaxed);
    }

    /// Reports execution-strategy telemetry for one finished query,
    /// typically the deltas from [`QueryBudget::take_exec_counts`].
    pub fn record_exec(&self, hash_joins: u64, join_fallbacks: u64) {
        self.hash_joins.fetch_add(hash_joins, Ordering::Relaxed);
        self.join_fallbacks
            .fetch_add(join_fallbacks, Ordering::Relaxed);
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> GovernorStats {
        GovernorStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            admitted: self.admitted.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            breaker_rejections: self.breaker_rejections.load(Ordering::Relaxed),
            statement_rejections: self.statement_rejections.load(Ordering::Relaxed),
            budget_rejections: self.budget_rejections.load(Ordering::Relaxed),
            breaker_trips: self.breaker.trips(),
            hash_joins: self.hash_joins.load(Ordering::Relaxed),
            join_fallbacks: self.join_fallbacks.load(Ordering::Relaxed),
            breaker_state: self.breaker.state(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn unlimited_budget_always_passes() {
        let budget = QueryBudget::unlimited();
        assert!(budget.check().is_ok());
        for _ in 0..10_000 {
            assert!(budget.charge(1).is_ok());
        }
        assert!(budget.check_rows(u64::MAX - 1).is_ok());
        assert_eq!(budget.fuel_spent(), 10_000);
    }

    #[test]
    fn fuel_exhaustion_is_typed() {
        let budget = QueryBudget::unlimited().with_fuel(100);
        for _ in 0..100 {
            budget.charge(1).unwrap();
        }
        assert_eq!(
            budget.charge(1),
            Err(BudgetError::FuelExhausted { limit: 100 })
        );
    }

    #[test]
    fn cancellation_observed_through_token() {
        let budget = QueryBudget::unlimited();
        let token = budget.token();
        assert!(budget.check().is_ok());
        token.cancel();
        assert_eq!(budget.check(), Err(BudgetError::Cancelled));
        // charge() polls the flag on its check cadence.
        let budget = QueryBudget::unlimited();
        budget.cancel();
        let mut saw = false;
        for _ in 0..(CHECK_INTERVAL * 2) {
            if budget.charge(1).is_err() {
                saw = true;
                break;
            }
        }
        assert!(saw, "cancellation never observed by charge()");
    }

    #[test]
    fn deadline_trips_after_elapse() {
        let budget = QueryBudget::unlimited().with_deadline(Duration::from_millis(1));
        std::thread::sleep(Duration::from_millis(5));
        assert!(matches!(
            budget.check(),
            Err(BudgetError::DeadlineExceeded { .. })
        ));
    }

    #[test]
    fn row_cap_trips() {
        let budget = QueryBudget::unlimited().with_row_cap(10);
        assert!(budget.check_rows(10).is_ok());
        assert_eq!(
            budget.check_rows(11),
            Err(BudgetError::RowCapExceeded { rows: 11, cap: 10 })
        );
    }

    #[test]
    fn clones_share_counters() {
        let a = QueryBudget::unlimited().with_fuel(10);
        let b = a.clone();
        for _ in 0..10 {
            a.charge(1).unwrap();
        }
        assert!(b.charge(1).is_err(), "clone did not share fuel");
        b.cancel();
        assert_eq!(a.check(), Err(BudgetError::Cancelled));
    }

    #[test]
    fn exec_counters_accumulate_survive_rebuild_and_drain() {
        assert_eq!(ExecStrategy::default(), ExecStrategy::NestedLoop);
        let budget = QueryBudget::unlimited();
        budget.record_hash_join(2);
        budget.record_join_fallback();
        // Builder rebuilds must carry the counters across.
        let budget = budget.with_fuel(1_000);
        assert_eq!(budget.hash_joins(), 2);
        assert_eq!(budget.join_fallbacks(), 1);
        // Clones share the counters, like fuel.
        let clone = budget.clone();
        clone.record_hash_join(1);
        assert_eq!(budget.hash_joins(), 3);
        // The sink's pair, the views' triple, the abandoned pipelines (a
        // fallback each) and the index pair ride the same way.
        clone.record_join_abandon();
        clone.record_index(true);
        clone.record_index(false);
        clone.record_index(false);
        clone.record_sink();
        clone.record_sink_fallback();
        clone.record_view(Some(6));
        clone.record_view(Some(0));
        clone.record_view(None);
        clone.record_lowering(Lowering::Aggregate, LoweringOutcome::Lowered);
        clone.record_lowering(Lowering::Aggregate, LoweringOutcome::Lowered);
        clone.record_lowering(Lowering::Aggregate, LoweringOutcome::Abandoned);
        clone.record_lowering(Lowering::Sort, LoweringOutcome::Declined);
        clone.record_lowering(Lowering::Set, LoweringOutcome::Lowered);
        let budget = budget.with_row_cap(9);
        // Draining yields deltas and resets — the hash operators' only.
        assert_eq!(budget.join_fallbacks(), 2);
        assert_eq!(budget.take_exec_counts(), (3, 2));
        assert_eq!(budget.take_exec_counts(), (0, 0));
        assert_eq!(budget.join_abandons(), 1);
        assert_eq!(budget.index_counts(), (1, 2));
        assert_eq!(budget.sink_counts(), (1, 1));
        assert_eq!(budget.view_counts(), (2, 6, 1));
        assert_eq!(budget.lowering_counts(Lowering::Aggregate), (2, 0, 1));
        assert_eq!(budget.lowering_counts(Lowering::Sort), (0, 1, 0));
        assert_eq!(budget.lowering_counts(Lowering::Set), (1, 0, 0));
    }

    #[test]
    fn governor_accumulates_exec_telemetry() {
        let governor = Governor::default();
        governor.record_exec(5, 2);
        governor.record_exec(1, 0);
        let stats = governor.stats();
        assert_eq!(stats.hash_joins, 6);
        assert_eq!(stats.join_fallbacks, 2);
        assert!(stats.is_consistent(), "exec telemetry broke the identity");
    }

    #[test]
    fn admission_gate_bounds_concurrency() {
        let gate = AdmissionGate::new(2);
        let p1 = gate.acquire(Duration::ZERO).expect("slot 1");
        let _p2 = gate.acquire(Duration::ZERO).expect("slot 2");
        assert!(gate.acquire(Duration::from_millis(1)).is_none());
        drop(p1);
        assert!(gate.acquire(Duration::ZERO).is_some());
    }

    #[test]
    fn admission_gate_wakes_waiters() {
        let gate = Arc::new(AdmissionGate::new(1));
        let held = gate.acquire(Duration::ZERO).unwrap();
        let woken = Arc::new(AtomicUsize::new(0));
        let handle = {
            let gate = Arc::clone(&gate);
            let woken = Arc::clone(&woken);
            std::thread::spawn(move || {
                if gate.acquire(Duration::from_secs(5)).is_some() {
                    woken.fetch_add(1, Ordering::SeqCst);
                }
            })
        };
        std::thread::sleep(Duration::from_millis(10));
        drop(held);
        handle.join().unwrap();
        assert_eq!(woken.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn breaker_opens_probes_and_closes() {
        let breaker = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 3,
            open_duration: Duration::from_millis(5),
        });
        assert_eq!(breaker.state(), BreakerState::Closed);
        for _ in 0..3 {
            assert!(breaker.admit());
            breaker.record_failure();
        }
        assert_eq!(breaker.state(), BreakerState::Open);
        assert!(!breaker.admit());
        assert_eq!(breaker.trips(), 1);

        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(breaker.state(), BreakerState::HalfOpen);
        assert!(breaker.admit(), "half-open admits one probe");
        assert!(!breaker.admit(), "only one probe at a time");
        breaker.record_success();
        assert_eq!(breaker.state(), BreakerState::Closed);
        assert!(breaker.admit());
    }

    #[test]
    fn failed_probe_reopens() {
        let breaker = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 1,
            open_duration: Duration::from_millis(5),
        });
        breaker.record_failure();
        assert_eq!(breaker.state(), BreakerState::Open);
        std::thread::sleep(Duration::from_millis(10));
        assert!(breaker.admit());
        breaker.record_failure();
        assert_eq!(breaker.state(), BreakerState::Open);
        assert_eq!(breaker.trips(), 2);
    }

    #[test]
    fn success_resets_consecutive_failures() {
        let breaker = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 2,
            open_duration: Duration::from_millis(5),
        });
        breaker.record_failure();
        breaker.record_success();
        breaker.record_failure();
        assert_eq!(breaker.state(), BreakerState::Closed);
    }

    #[test]
    fn governor_counts_every_outcome() {
        let governor = Governor::new(GovernorConfig {
            max_concurrency: 1,
            queue_timeout: Duration::from_millis(1),
            max_statement_bytes: 64,
            breaker: BreakerConfig::default(),
        });
        // Oversize statement.
        assert!(matches!(
            governor.admit(65),
            Err(AdmissionError::StatementTooLarge(_))
        ));
        // Admitted, slot held; second caller sheds.
        let permit = governor.admit(10).unwrap();
        assert!(matches!(
            governor.admit(10),
            Err(AdmissionError::QueueTimeout { .. })
        ));
        drop(permit);
        let stats = governor.stats();
        assert_eq!(stats.submitted, 3);
        assert_eq!(stats.admitted, 1);
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.statement_rejections, 1);
        assert!(stats.is_consistent(), "{stats:#?}");
    }

    #[test]
    fn governor_respects_breaker() {
        let governor = Governor::new(GovernorConfig {
            max_concurrency: 0,
            queue_timeout: Duration::ZERO,
            max_statement_bytes: 0,
            breaker: BreakerConfig {
                failure_threshold: 1,
                open_duration: Duration::from_secs(60),
            },
        });
        governor.admit(10).unwrap();
        governor.record_backend_failure();
        assert!(matches!(
            governor.admit(10),
            Err(AdmissionError::BreakerOpen)
        ));
        let stats = governor.stats();
        assert_eq!(stats.breaker_rejections, 1);
        assert_eq!(stats.breaker_trips, 1);
        assert_eq!(stats.breaker_state, BreakerState::Open);
        assert!(stats.is_consistent());
    }
}
