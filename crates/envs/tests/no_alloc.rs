//! A warmed-up `SynthAtari::step` allocates exactly one block: the
//! observation it returns. A counting global allocator wraps `System`; the
//! latent transition runs in place, so nothing else may touch the heap.
//!
//! This file holds a single `#[test]` on purpose: the allocator counter is
//! process-global, and a second test running on another thread would bleed
//! its allocations into the measured window.

use gymlite::{AtariGame, Environment, SynthAtari};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ENABLED: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn count_allocs<T>(f: impl FnOnce() -> T) -> (u64, T) {
    ALLOCS.store(0, Ordering::SeqCst);
    ENABLED.store(true, Ordering::SeqCst);
    let out = f();
    ENABLED.store(false, Ordering::SeqCst);
    (ALLOCS.load(Ordering::SeqCst), out)
}

#[test]
fn a_warmed_up_step_allocates_only_its_observation() {
    for obs_dim in [16, 17, 512, 7056] {
        let cfg = AtariGame::BeamRider.config().with_obs_dim(obs_dim).with_step_latency_us(0);
        let mut env = SynthAtari::with_config(cfg, 12);
        env.reset();
        for _ in 0..3 {
            if env.step(0).done {
                env.reset();
            }
        }
        let (allocs, step) = count_allocs(|| env.step(1));
        assert_eq!(allocs, 1, "obs_dim {obs_dim}: step allocated {allocs} blocks");
        assert_eq!(step.observation.len(), obs_dim);
        assert!(step.observation.capacity() == obs_dim, "the observation is its only block");
    }
}
