//! Allocation ceilings on the production path: what a warm statement
//! allocates, counted by this binary's own allocator, stays under a
//! committed ceiling — so the per-tuple allocations the evaluator stopped
//! making (a vector per singleton sequence, a name per variable binding, a
//! key per join probe) cannot come back without a test saying so. The
//! same holds for what a materialized table keeps per row (a flat row,
//! not a tree of elements).
//!
//! The counting allocator is a copy of the benchmark's (`e2e/src/alloc.rs`,
//! a package of its own), which also sums the bytes it holds. Its counters
//! are per thread, and a statement runs on the thread that executes it, so
//! tests running beside these on other threads do not disturb their counts.

use aldsp::core::{OptimizeLevel, TranslationOptions, Transport};
use aldsp::driver::{DspServer, QueryService};
use aldsp::governor::ExecStrategy;
use aldsp::optimizer::Optimizer;
use aldsp::relational::SqlValue;
use aldsp::workload::{build_application, populate_database, stats_for, Scale};
use aldsp::xquery::FunctionSource;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    // Const-initialized and without a destructor, so reading it from
    // inside the allocator never allocates.
    static COUNT: Cell<u64> = const { Cell::new(0) };
    // Bytes allocated and not yet freed, by `Layout` size.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn counted(bytes: i64) {
    COUNT.with(|c| c.set(c.get() + 1));
    LIVE.with(|l| l.set(l.get() + bytes));
}

struct Counting;

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a plain thread-local cell that
// never allocates and never unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        counted(layout.size() as i64);
        // SAFETY: the caller's contract for `alloc` is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        counted(layout.size() as i64);
        // SAFETY: the caller's contract for `alloc_zeroed` is passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        counted(new_size as i64 - layout.size() as i64);
        // SAFETY: the caller's contract for `realloc` is passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.with(|l| l.set(l.get() - layout.size() as i64));
        // SAFETY: the caller's contract for `dealloc` is passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Statements timed per measurement, after two warm-up executions.
const RUNS: u64 = 20;

/// The production configuration the benchmark runs: delimited text, the
/// optimizer it builds, the hash-join engine, a plan cache.
fn service() -> QueryService {
    let scale = Scale::small();
    let application = build_application();
    let database = populate_database(&application, scale, 7);
    let server = Arc::new(DspServer::new(application, database));
    let options = TranslationOptions::with_transport(Transport::DelimitedText)
        .optimized(OptimizeLevel::Full)
        .with_exec(ExecStrategy::HashJoin);
    let optimizer = Optimizer::new(stats_for(scale)).with_validation(true);
    QueryService::new(server, options).with_optimizer(Arc::new(optimizer))
}

/// Allocations per execution of `sql` once it is warm: translated and
/// cached, its tables materialized, its join indexes kept.
fn allocations_per_statement(sql: &str, params: &[SqlValue]) -> u64 {
    let service = service();
    let run = || {
        let rows = service
            .execute(sql, params)
            .unwrap_or_else(|e| panic!("{sql}: {e}"));
        assert!(!rows.rows().is_empty(), "{sql} returned no rows");
    };
    run();
    run();
    let before = COUNT.with(Cell::get);
    for _ in 0..RUNS {
        run();
    }
    (COUNT.with(Cell::get) - before) / RUNS
}

#[test]
fn a_warm_point_lookup_stays_under_its_allocation_ceiling() {
    let sql = "SELECT ORDERID, AMOUNT, STATUS FROM ORDERS WHERE CUSTID = ?";
    let allocations = allocations_per_statement(sql, &[SqlValue::Int(3)]);
    // 772 per statement while a singleton sequence owned a vector and a
    // binding copied its name; 289 since. The ceiling is about 1.2 × 289.
    const CEILING: u64 = 350;
    assert!(
        allocations <= CEILING,
        "{allocations} allocations per statement, ceiling {CEILING}"
    );
}

#[test]
fn a_warm_join_stays_under_its_allocation_ceiling() {
    let sql = "SELECT CUSTOMERS.CUSTOMERNAME, ORDERS.AMOUNT FROM CUSTOMERS \
               INNER JOIN ORDERS ON CUSTOMERS.CUSTOMERID = ORDERS.CUSTID";
    let allocations = allocations_per_statement(sql, &[]);
    // 639 per statement while, besides, each join probe allocated a key per
    // projection; 380 since. The ceiling is about 1.2 × 380.
    const CEILING: u64 = 456;
    assert!(
        allocations <= CEILING,
        "{allocations} allocations per statement, ceiling {CEILING}"
    );
}

#[test]
fn a_materialized_table_keeps_a_flat_row_per_row() {
    let scale = Scale::of(200);
    let application = build_application();
    let database = populate_database(&application, scale, 7);
    let rows = database.table("ORDERS").unwrap().rows.len();
    let server = DspServer::new(application, database);
    // One call's allocations, and the bytes it leaves held once its
    // answer is dropped: the snapshot's materialization on the first.
    let call = || {
        let (count, live) = (COUNT.with(Cell::get), LIVE.with(Cell::get));
        let answer = server.call(None, "ORDERS", &[]).unwrap();
        assert_eq!(answer.len(), rows);
        drop(answer);
        (COUNT.with(Cell::get) - count, LIVE.with(Cell::get) - live)
    };
    let (first_count, first_live) = call();
    let (warm_count, warm_live) = call();
    let per_row = |first: f64, warm: f64| (first - warm) / rows as f64;
    let allocations = per_row(first_count as f64, warm_count as f64);
    let bytes = per_row(first_live as f64, warm_live as f64);
    // A tree of elements took 22.3 allocations and 995 bytes a row; a flat
    // row takes two and one per present cell, about 200 bytes.
    assert!(
        allocations <= 7.0,
        "{allocations:.1} allocations per row, ceiling 7"
    );
    assert!(bytes <= 320.0, "{bytes:.0} live bytes per row, ceiling 320");
}
