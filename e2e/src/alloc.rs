//! A counting wrapper around the system allocator, for the `alloc.*`
//! per-layer metrics.
//!
//! Counters are per thread: two timed clients never touch the same cache
//! line, so counting does not add the contention it is there to reveal.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialized and without a destructor, so reading them from
    // inside the allocator never allocates.
    static COUNT: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

pub struct Counting;

fn note(size: usize) {
    COUNT.with(|c| c.set(c.get() + 1));
    BYTES.with(|b| b.set(b.get() + size as u64));
}

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are plain thread-local cells
// that never allocate and never unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract for `alloc` is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract for `alloc_zeroed` is passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller's contract for `realloc` is passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract for `dealloc` is passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// `(allocations, bytes requested)` by the calling thread so far. Zero in a
/// program that did not install [`Counting`].
pub fn snapshot() -> (u64, u64) {
    (COUNT.with(Cell::get), BYTES.with(Cell::get))
}
