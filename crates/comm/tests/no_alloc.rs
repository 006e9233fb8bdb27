//! What a small message costs the allocator. A counting global allocator
//! wraps `System`; after a warm-up has grown every queue to its steady size,
//! a local 1 KiB `send_to` → `recv` pair must make, per message:
//!
//! * no allocation of 1 KiB or more, turning the body's `Vec` into `Bytes`
//!   included (the store writes the body into a recycled slab, and
//!   `Bytes::from` takes the vector's allocation);
//! * at most 3 allocations between `send_to` and the return of `recv`: the
//!   local destination split, the slab's shared owner and the shared header.
//!
//! This file holds a single `#[test]` on purpose: the counters are
//! process-global, and a second test running on another thread would bleed
//! its allocations into the measured window.

use bytes::Bytes;
use netsim::Cluster;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use xingtian_comm::{Broker, CommConfig};
use xingtian_message::{MessageKind, ProcessId};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LARGE: AtomicU64 = AtomicU64::new(0);
static ENABLED: AtomicBool = AtomicBool::new(false);

/// An allocation this size or larger is over glibc's per-thread cache limit.
const LARGE_BYTES: usize = 1024;

fn count(size: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        if size >= LARGE_BYTES {
            LARGE.fetch_add(1, Ordering::Relaxed);
        }
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations and large allocations made by every thread while `f` runs.
fn count_allocs(f: impl FnOnce()) -> (u64, u64) {
    ALLOCS.store(0, Ordering::SeqCst);
    LARGE.store(0, Ordering::SeqCst);
    ENABLED.store(true, Ordering::SeqCst);
    f();
    ENABLED.store(false, Ordering::SeqCst);
    (ALLOCS.load(Ordering::SeqCst), LARGE.load(Ordering::SeqCst))
}

const BODY: usize = 1024;
const WARM: usize = 2_000;
const MEASURED: usize = 1_000;

#[test]
fn a_warm_small_message_stays_off_the_large_allocator() {
    let broker = Broker::new(0, Cluster::single(), CommConfig::uncompressed());
    let sender = broker.endpoint(ProcessId::explorer(0));
    let receiver = broker.endpoint(ProcessId::learner(0));
    let to = ProcessId::learner(0);
    let pair_with = |dst: Vec<ProcessId>, body: Bytes| {
        assert!(sender.send_to(dst, MessageKind::Dummy, body));
        receiver.recv().expect("delivered")
    };
    for i in 0..WARM {
        assert_eq!(pair_with(vec![to], Bytes::from(vec![i as u8; BODY])).body.len(), BODY);
    }

    // Everything the measured windows take is made outside them.
    let vecs: Vec<Vec<u8>> = (0..MEASURED).map(|i| vec![i as u8; BODY]).collect();
    let mut bodies: Vec<Bytes> = Vec::with_capacity(MEASURED);
    let (_, from_large) = count_allocs(|| bodies.extend(vecs.into_iter().map(Bytes::from)));
    let mut dsts: Vec<Vec<ProcessId>> = (0..MEASURED).map(|_| vec![to]).collect();
    let mut intact = 0;
    let (channel, channel_large) = count_allocs(|| {
        for (i, body) in bodies.drain(..).enumerate() {
            let dst = dsts.pop().expect("one per message");
            let got = pair_with(dst, body);
            intact += usize::from(got.body.len() == BODY && got.body[0] == i as u8);
        }
    });
    assert_eq!(intact, MEASURED, "every body arrived intact, in order");

    let per_message = channel as f64 / MEASURED as f64;
    println!(
        "per 1 KiB message: Bytes::from {} large; send_to -> recv {per_message:.2} allocations, {} large",
        from_large as f64 / MEASURED as f64,
        channel_large as f64 / MEASURED as f64,
    );
    assert_eq!(from_large, 0, "Bytes::from copied the body into a new allocation");
    assert_eq!(channel_large, 0, "the channel made an allocation of >= {LARGE_BYTES} B");
    assert!(per_message <= 3.0, "{per_message:.2} channel allocations per message");
    drop((sender, receiver));
    broker.shutdown();
}
