//! A counting allocator for the zero-allocation tests.
//!
//! `cargo test` runs a binary's tests on parallel threads, so a
//! process-wide allocation counter also counts whatever the sibling tests
//! and the harness allocate meanwhile. [`CountingAlloc`] counts per thread
//! instead: a test installs it as the binary's global allocator and reads
//! [`thread_allocs`] around its hot loop. [`crate::parallel_each`] runs its
//! first item on the calling thread, so a per-item allocation in a
//! parallel kernel still shows up in the caller's count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialised and without a destructor: touching it from inside
    // the allocator never allocates and is valid during thread teardown.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// Allocation-path calls (`alloc`, `alloc_zeroed`, `realloc`) the calling
/// thread has made so far. Always zero unless [`CountingAlloc`] is the
/// global allocator.
pub fn thread_allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The system allocator, counting allocation-path calls per thread.
/// Deallocations are free and uncounted.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain thread-local
// integer and never allocates, unwinds or re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }
}
