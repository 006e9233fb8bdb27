//! A counting wrapper around the system allocator, for the traced run only.
//!
//! The `xt-perf-trace` binary installs one as its `#[global_allocator]`; the
//! timed `xt-perf` binary does not link it at all, so the end-to-end numbers
//! are measured on the allocator every user of the libraries gets.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Counts allocation calls and requested bytes while switched on.
pub struct Counting {
    on: AtomicBool,
    allocs: AtomicU64,
    bytes: AtomicU64,
}

impl Counting {
    /// A counter that starts switched off.
    pub const fn new() -> Self {
        Counting {
            on: AtomicBool::new(false),
            allocs: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    /// Switches counting on or off. The counters are statistics: nothing is
    /// published through them, so every access is `Relaxed`.
    pub fn set_counting(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// Allocation calls and bytes requested so far, in that order.
    pub fn totals(&self) -> (u64, u64) {
        (
            self.allocs.load(Ordering::Relaxed),
            self.bytes.load(Ordering::Relaxed),
        )
    }

    fn count(&self, size: usize) {
        if self.on.load(Ordering::Relaxed) {
            self.allocs.fetch_add(1, Ordering::Relaxed);
            self.bytes.fetch_add(size as u64, Ordering::Relaxed);
        }
    }
}

impl Default for Counting {
    fn default() -> Self {
        Counting::new()
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only atomics and
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.count(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}
