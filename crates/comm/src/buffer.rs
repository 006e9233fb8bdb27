//! The channel's one blocking queue.
//!
//! A [`Buffer`] is every hand-off of the channel (paper §3.2.1): the receive
//! buffer between an endpoint's receiver thread and the workhorse thread
//! (rollout worker or trainer) that consumes it, the per-process ID queues
//! the router pushes headers into, each uplink's envelope feed, the delay
//! line, the beacon's stop signal and the worker pool's job and completion
//! queues.
//!
//! The buffer owns its queue: the items in a `VecDeque` under one mutex, with
//! the staged cost and the closed flag beside them, so `push` and `pop` are
//! one lock each. A wake is a syscall only when someone sleeps: the two
//! condvars count their own waiters (the `parking_lot` contract), so a notify
//! with no pusher or popper blocked is an atomic load. `pop` blocks until an
//! item arrives (the event-driven `Queue.get` pattern of paper §4.1) or the
//! buffer is closed. Closing is its owner's explicit [`Buffer::close`], never
//! a side effect of a drop: it wakes every blocked pusher and popper itself —
//! no wait here is a timed poll — later pushes hand their item back, and pops
//! drain what is staged before they report the close.
//!
//! Only a receive buffer of [`Message`]s is bounded, in bytes, the unit of
//! the memory it protects: a window counted in messages is megabytes deep for
//! rollouts and a few KiB for small messages, where it parks its two threads
//! once per message. Every other queue is unbounded.

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::time::{Duration, Instant};
use xingtian_message::Message;

#[derive(Debug)]
struct Queue<T> {
    items: VecDeque<T>,
    /// Sum of the buffer's `cost` over `items`.
    staged: usize,
    closed: bool,
}

/// A blocking FIFO queue, safe to share across threads.
#[derive(Debug)]
pub struct Buffer<T = Message> {
    queue: Mutex<Queue<T>>,
    /// Most cost staged at once; `usize::MAX` when unbounded.
    budget: usize,
    /// What one item counts against `budget`.
    cost: fn(&T) -> usize,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> Buffer<T> {
    /// Creates an empty, open, unbounded buffer.
    pub fn new() -> Self {
        Buffer {
            queue: Mutex::new(Queue { items: VecDeque::new(), staged: 0, closed: false }),
            budget: usize::MAX,
            cost: |_| 0,
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// Stages an item. On a bounded buffer this blocks while the item does
    /// not fit; [`Buffer::close`] unblocks it.
    ///
    /// Hands the item back if the buffer has been closed.
    pub fn push(&self, item: T) -> Result<(), T> {
        let cost = (self.cost)(&item);
        let mut q = self.queue.lock();
        while !q.closed && !q.items.is_empty() && q.staged.saturating_add(cost) > self.budget {
            self.not_full.wait(&mut q);
        }
        if q.closed {
            return Err(item);
        }
        q.staged += cost;
        q.items.push_back(item);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Takes the oldest item. Sizes differ, so which blocked pusher now fits
    /// is not known here: all of them re-check.
    fn take(&self, q: &mut Queue<T>) -> Option<T> {
        let item = q.items.pop_front()?;
        q.staged -= (self.cost)(&item);
        self.not_full.notify_all();
        Some(item)
    }

    fn pop_until(&self, deadline: Option<Instant>) -> Option<T> {
        let mut q = self.queue.lock();
        loop {
            if let Some(item) = self.take(&mut q) {
                return Some(item);
            }
            if q.closed {
                return None;
            }
            match deadline.map(|d| d.saturating_duration_since(Instant::now())) {
                Some(left) if left.is_zero() => return None,
                Some(left) => drop(self.not_empty.wait_for(&mut q, left)),
                None => self.not_empty.wait(&mut q),
            }
        }
    }

    /// Blocks until an item is available or the buffer is closed.
    ///
    /// Returns `None` only after [`Buffer::close`] and once the queue has
    /// drained.
    pub fn pop(&self) -> Option<T> {
        self.pop_until(None)
    }

    /// Non-blocking pop.
    pub fn try_pop(&self) -> Option<T> {
        self.take(&mut self.queue.lock())
    }

    /// Blocks up to `timeout` for an item; `None` if none arrived in time
    /// or the buffer is closed and drained ([`Buffer::is_closed`] tells
    /// which).
    pub fn pop_timeout(&self, timeout: Duration) -> Option<T> {
        self.pop_until(Some(Instant::now() + timeout))
    }

    /// Number of staged items.
    pub fn len(&self) -> usize {
        self.queue.lock().items.len()
    }

    /// True when no items are staged.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Closes the buffer: subsequent `push` calls hand their item back,
    /// blocked ones return at once, and `pop` returns `None` once the
    /// remaining items drain. Idempotent.
    pub fn close(&self) {
        self.queue.lock().closed = true;
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }

    /// True once [`Buffer::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.queue.lock().closed
    }
}

impl Buffer<Message> {
    /// Creates a receive buffer staging at most `bytes` (body length plus
    /// `size_of::<Message>()` per message): [`Buffer::push`] blocks while the
    /// message does not fit, propagating backpressure to the producing thread
    /// (and, through the receiver thread, back to the shared-memory store and
    /// ultimately the senders). An empty buffer admits one message of any
    /// size — the store's own oversize rule — so a budget of 1 means one
    /// message at a time and no message can wedge the channel.
    pub fn with_budget(bytes: usize) -> Self {
        // A message costs its body plus the header it travels with, so empty
        // bodies are not free.
        Buffer { budget: bytes, cost: |msg| msg.body.len() + std::mem::size_of::<Message>(), ..Buffer::new() }
    }
}

impl<T> Default for Buffer<T> {
    fn default() -> Self {
        Buffer::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use std::sync::Arc;
    use xingtian_message::{Header, MessageKind, ProcessId};

    /// An 8-byte body, so every test message costs [`UNIT`].
    fn msg(tag: u8) -> Message {
        let h = Header::new(ProcessId::explorer(0), vec![ProcessId::learner(0)], MessageKind::Rollout);
        Message::new(h, Bytes::from(vec![tag; 8]))
    }

    const UNIT: usize = 8 + std::mem::size_of::<Message>();

    /// Runs `body` on its own thread and fails the test if it has not
    /// finished in a minute: a lost wake-up must read as a failure, not a hang.
    fn watchdog(body: impl FnOnce() + Send + 'static) {
        let worker = std::thread::spawn(body);
        let deadline = Instant::now() + Duration::from_secs(60);
        while !worker.is_finished() {
            assert!(Instant::now() < deadline, "no progress for 60 s: a blocked thread was never woken");
            std::thread::sleep(Duration::from_millis(1));
        }
        if let Err(panic) = worker.join() {
            std::panic::resume_unwind(panic);
        }
    }

    fn staged_bytes(b: &Buffer) -> usize {
        b.queue.lock().staged
    }

    /// Spins until `count` threads sleep in `push`.
    fn until_pushers_blocked(b: &Buffer, count: usize) {
        while b.not_full.waiters() < count {
            std::thread::yield_now();
        }
    }

    #[test]
    fn push_pop_round_trips_in_order() {
        let b = Buffer::with_budget(usize::MAX);
        assert!(b.push(msg(1)).is_ok());
        assert!(b.push(msg(2)).is_ok());
        assert_eq!(b.len(), 2);
        assert_eq!(staged_bytes(&b), 2 * UNIT);
        assert_eq!(b.pop().unwrap().body[0], 1);
        assert_eq!(b.pop().unwrap().body[0], 2);
        assert!(b.is_empty());
        assert_eq!(staged_bytes(&b), 0);
    }

    #[test]
    fn try_pop_on_empty_returns_none() {
        let b = Buffer::<u32>::new();
        assert!(b.try_pop().is_none());
    }

    #[test]
    fn pop_timeout_drains_staged_items_before_reporting_close() {
        let b = Buffer::new();
        assert!(b.pop_timeout(Duration::from_millis(10)).is_none());
        assert!(!b.is_closed(), "a timeout is not a close");
        b.push(1u32).unwrap();
        b.close();
        assert!(b.is_closed());
        assert_eq!(b.pop_timeout(Duration::from_secs(5)), Some(1), "staged drains first");
        assert!(b.pop_timeout(Duration::from_secs(5)).is_none());
    }

    #[test]
    fn pop_blocks_until_push() {
        let b = Arc::new(Buffer::<Message>::new());
        let b2 = Arc::clone(&b);
        let t = std::thread::spawn(move || b2.pop().unwrap().body[0]);
        while b.not_empty.waiters() == 0 {
            std::thread::yield_now();
        }
        b.push(msg(7)).unwrap();
        assert_eq!(t.join().unwrap(), 7);
    }

    #[test]
    fn close_drains_then_ends_and_hands_later_pushes_back() {
        let b = Buffer::new();
        b.push(1u32).unwrap();
        b.close();
        assert_eq!(b.push(2), Err(2), "push after close hands its item back");
        assert_eq!(b.pop(), Some(1));
        assert!(b.pop().is_none());
    }

    #[test]
    fn concurrent_producers_deliver_everything() {
        let b = Arc::new(Buffer::new());
        let mut handles = Vec::new();
        for t in 0..4u8 {
            let b = Arc::clone(&b);
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    assert!(b.push(msg(t)).is_ok());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut counts = [0usize; 4];
        for _ in 0..400 {
            let m = b.pop().unwrap();
            counts[m.body[0] as usize] += 1;
        }
        assert_eq!(counts, [100, 100, 100, 100]);
    }

    #[test]
    fn the_budget_is_bytes_and_an_empty_buffer_admits_any_message() {
        watchdog(|| {
            // Room for two unit messages; a third blocks until one is popped.
            let b = Arc::new(Buffer::with_budget(2 * UNIT));
            assert!(b.push(msg(0)).is_ok());
            assert!(b.push(msg(1)).is_ok());
            let pusher = {
                let b = Arc::clone(&b);
                std::thread::spawn(move || b.push(msg(2)).is_ok())
            };
            until_pushers_blocked(&b, 1);
            assert_eq!(staged_bytes(&b), 2 * UNIT, "never above the budget");
            assert_eq!(b.pop().unwrap().body[0], 0);
            assert!(pusher.join().unwrap());
            assert_eq!(b.len(), 2);
            // A body far above the whole budget waits for the buffer to
            // empty, then is admitted alone — it cannot wedge the channel.
            let big = {
                let b = Arc::clone(&b);
                let h = Header::new(ProcessId::explorer(0), vec![ProcessId::learner(0)], MessageKind::Rollout);
                std::thread::spawn(move || b.push(Message::new(h, Bytes::from(vec![9u8; 100 * UNIT]))).is_ok())
            };
            until_pushers_blocked(&b, 1);
            assert_eq!(b.pop().unwrap().body[0], 1);
            until_pushers_blocked(&b, 1); // woken, still does not fit, asleep again
            assert_eq!(b.pop().unwrap().body[0], 2);
            assert!(big.join().unwrap());
            assert_eq!(b.pop().unwrap().body.len(), 100 * UNIT);
            assert_eq!(staged_bytes(&b), 0);
        });
    }

    #[test]
    fn close_unblocks_pushers_at_once_without_leaking_bodies() {
        // Producers block on a full bounded buffer; close() must wake every
        // one of them itself (handing the message back) — there is no poll
        // to fall back on — and afterwards exactly the staged messages, no
        // more, no fewer, are poppable. The wake is timed as the best of five
        // rounds, so a busy machine cannot fail it and a 50 ms re-check loop
        // cannot pass it.
        watchdog(|| {
            let mut fastest = Duration::MAX;
            for _ in 0..5 {
                let b = Arc::new(Buffer::with_budget(2 * UNIT));
                assert!(b.push(msg(0)).is_ok());
                assert!(b.push(msg(1)).is_ok());
                let handles: Vec<_> = (0..4u8)
                    .map(|t| {
                        let b = Arc::clone(&b);
                        std::thread::spawn(move || b.push(msg(t)).map_err(|m| m.body[0]))
                    })
                    .collect();
                until_pushers_blocked(&b, 4);
                let closed_at = Instant::now();
                b.close();
                for (t, h) in handles.into_iter().enumerate() {
                    assert_eq!(h.join().unwrap(), Err(t as u8), "blocked push observes closure and hands its message back");
                }
                fastest = fastest.min(closed_at.elapsed());
                let mut drained = 0;
                while b.pop().is_some() {
                    drained += 1;
                }
                assert_eq!(drained, 2, "exactly the pre-close messages drain");
                assert_eq!(staged_bytes(&b), 0, "no stranded bodies after close");
            }
            assert!(fastest < Duration::from_millis(10), "pushers woke {fastest:?} after close");
        });
    }

    #[test]
    fn close_wakes_every_blocked_popper() {
        watchdog(|| {
            let b = Arc::new(Buffer::<u32>::new());
            let poppers: Vec<_> = (0..3)
                .map(|_| {
                    let b = Arc::clone(&b);
                    std::thread::spawn(move || b.pop().is_none())
                })
                .collect();
            while b.not_empty.waiters() < 3 {
                std::thread::yield_now();
            }
            b.close();
            assert!(poppers.into_iter().all(|t| t.join().unwrap()));
        });
    }

    /// 4 producers x 4 consumers, through a one-message budget and through
    /// an unbounded queue. Under the budget every push and almost every pop
    /// sleeps; unbounded, the consumers sleep and the producers race their
    /// wakes. A suppressed wake that was needed shows as a hang (the
    /// watchdog) or a lost item. Wake suppression bugs are reordering bugs,
    /// so ci.sh runs this in release.
    #[test]
    fn stress_one_message_budget_loses_no_wakeup() {
        const PER_PRODUCER: u32 = if cfg!(debug_assertions) { 5_000 } else { 50_000 };
        for one_at_a_time in [true, false] {
            watchdog(move || {
                let b = Arc::new(if one_at_a_time { Buffer::with_budget(1) } else { Buffer::new() });
                let consumers: Vec<_> = (0..4)
                    .map(|_| {
                        let b = Arc::clone(&b);
                        std::thread::spawn(move || {
                            std::iter::from_fn(|| b.pop()).map(|m| m.header.seq).collect::<Vec<u64>>()
                        })
                    })
                    .collect();
                let producers: Vec<_> = (0..4)
                    .map(|p| {
                        let b = Arc::clone(&b);
                        std::thread::spawn(move || {
                            for i in 0..PER_PRODUCER {
                                let mut m = msg(p as u8);
                                m.header.seq = u64::from(p * PER_PRODUCER + i);
                                assert!(b.push(m).is_ok());
                                assert!(!one_at_a_time || b.len() <= 1, "one message at a time");
                            }
                        })
                    })
                    .collect();
                for p in producers {
                    p.join().unwrap();
                }
                b.close();
                let mut got: Vec<u64> = consumers.into_iter().flat_map(|c| c.join().unwrap()).collect();
                got.sort_unstable();
                assert!(got.into_iter().eq(0..u64::from(4 * PER_PRODUCER)), "an item was lost or duplicated");
            });
        }
    }
}
