//! Intra-process send/receive buffers.
//!
//! A [`Buffer`] is the paper's send-buffer / receive-buffer structure: the
//! staging area between a workhorse thread (rollout worker or trainer) and the
//! monitoring threads of the channel. Workhorse threads only ever touch these
//! local buffers; the monitoring threads move data between buffers and the
//! shared-memory communicator.
//!
//! The buffer owns its queue: whole [`Message`]s in a `VecDeque` under one
//! mutex, with the byte count and the closed flag beside it, so `push` and
//! `pop` are one lock each. A wake is a syscall only when someone sleeps: the
//! two condvars count their own waiters (the `parking_lot` contract), so a
//! notify with no pusher or popper blocked is an atomic load. `pop` blocks
//! until a message arrives (the event-driven `Queue.get` pattern of paper
//! §4.1) or the buffer is closed; `close` wakes every blocked pusher and
//! popper itself — no wait here is a timed poll. A bound is in bytes, the
//! unit of the memory it protects: a window counted in messages is megabytes
//! deep for rollouts and a few KiB for small messages, where it parks its two
//! threads once per message.

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::time::{Duration, Instant};
use xingtian_message::Message;

/// Why [`Buffer::pop_timeout`] returned no message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PopError {
    /// The buffer stayed empty (and open) for the whole timeout.
    TimedOut,
    /// The buffer is closed and has drained: nothing will ever arrive.
    Closed,
}

#[derive(Debug, Default)]
struct Queue {
    messages: VecDeque<Message>,
    /// Sum of [`cost`] over `messages`.
    bytes: usize,
    closed: bool,
}

/// What a staged message counts against the budget: its body plus the header
/// it travels with, so empty bodies are not free.
fn cost(msg: &Message) -> usize {
    msg.body.len() + std::mem::size_of::<Message>()
}

/// A staging queue for complete messages, safe to share across threads.
#[derive(Debug)]
pub struct Buffer {
    queue: Mutex<Queue>,
    /// Most bytes staged at once; `usize::MAX` when unbounded.
    budget: usize,
    not_empty: Condvar,
    not_full: Condvar,
}

impl Buffer {
    /// Creates an empty, open, unbounded buffer.
    pub fn new() -> Self {
        Buffer::with_budget(usize::MAX)
    }

    /// Creates a buffer staging at most `bytes` (body length plus
    /// `size_of::<Message>()` per message): [`Buffer::push`] blocks while the
    /// message does not fit, propagating backpressure to the producing thread
    /// (and, through the receiver thread, back to the shared-memory store and
    /// ultimately the senders). An empty buffer admits one message of any
    /// size — the store's own oversize rule — so a budget of 1 means one
    /// message at a time and no message can wedge the channel.
    pub fn with_budget(bytes: usize) -> Self {
        Buffer { queue: Mutex::default(), budget: bytes, not_empty: Condvar::new(), not_full: Condvar::new() }
    }

    /// Stages a message. On a bounded buffer this blocks while the message
    /// does not fit; [`Buffer::close`] unblocks it.
    ///
    /// Returns `false` (dropping the message) if the buffer has been closed.
    pub fn push(&self, msg: Message) -> bool {
        let cost = cost(&msg);
        let mut q = self.queue.lock();
        while !q.closed && !q.messages.is_empty() && q.bytes.saturating_add(cost) > self.budget {
            self.not_full.wait(&mut q);
        }
        if q.closed {
            return false;
        }
        q.bytes += cost;
        q.messages.push_back(msg);
        self.not_empty.notify_one();
        true
    }

    /// Takes the oldest message. Sizes differ, so which blocked pusher now
    /// fits is not known here: all of them re-check.
    fn take(&self, q: &mut Queue) -> Option<Message> {
        let msg = q.messages.pop_front()?;
        q.bytes -= cost(&msg);
        self.not_full.notify_all();
        Some(msg)
    }

    fn pop_until(&self, deadline: Option<Instant>) -> Result<Message, PopError> {
        let mut q = self.queue.lock();
        loop {
            if let Some(msg) = self.take(&mut q) {
                return Ok(msg);
            }
            if q.closed {
                return Err(PopError::Closed);
            }
            match deadline.map(|d| d.saturating_duration_since(Instant::now())) {
                Some(left) if left.is_zero() => return Err(PopError::TimedOut),
                Some(left) => drop(self.not_empty.wait_for(&mut q, left)),
                None => self.not_empty.wait(&mut q),
            }
        }
    }

    /// Blocks until a message is available or the buffer is closed.
    ///
    /// Returns `None` only after [`Buffer::close`] and once the queue has
    /// drained.
    pub fn pop(&self) -> Option<Message> {
        self.pop_until(None).ok()
    }

    /// Non-blocking pop.
    pub fn try_pop(&self) -> Option<Message> {
        self.take(&mut self.queue.lock())
    }

    /// Blocks up to `timeout` for a message, and says which of the two
    /// reasons for coming back without one applies — read under the same lock
    /// as the queue, so a racing push cannot fall between them.
    pub fn pop_timeout(&self, timeout: Duration) -> Result<Message, PopError> {
        self.pop_until(Some(Instant::now() + timeout))
    }

    /// Number of staged messages.
    pub fn len(&self) -> usize {
        self.queue.lock().messages.len()
    }

    /// True when no messages are staged.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Closes the buffer: subsequent `push` calls drop their message, blocked
    /// ones return `false` at once, and `pop` returns `None` once the
    /// remaining messages drain. Idempotent.
    pub fn close(&self) {
        self.queue.lock().closed = true;
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }
}

impl Default for Buffer {
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
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            body();
            let _ = done_tx.send(());
        });
        match done_rx.recv_timeout(Duration::from_secs(60)) {
            Ok(()) => worker.join().unwrap(),
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(worker.join().unwrap_err())
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                panic!("no progress for 60 s: a blocked thread was never woken")
            }
        }
    }

    fn staged_bytes(b: &Buffer) -> usize {
        b.queue.lock().bytes
    }

    /// Spins until `count` threads sleep in `push`.
    fn until_pushers_blocked(b: &Buffer, count: usize) {
        while b.not_full.waiters() < count {
            std::thread::yield_now();
        }
    }

    #[test]
    fn push_pop_round_trips_in_order() {
        let b = Buffer::new();
        assert!(b.push(msg(1)));
        assert!(b.push(msg(2)));
        assert_eq!(b.len(), 2);
        assert_eq!(staged_bytes(&b), 2 * UNIT);
        assert_eq!(b.pop().unwrap().body[0], 1);
        assert_eq!(b.pop().unwrap().body[0], 2);
        assert!(b.is_empty());
        assert_eq!(staged_bytes(&b), 0);
    }

    #[test]
    fn try_pop_on_empty_returns_none() {
        let b = Buffer::new();
        assert!(b.try_pop().is_none());
    }

    #[test]
    fn pop_timeout_tells_timeout_from_closed_and_drained() {
        let b = Buffer::new();
        assert_eq!(b.pop_timeout(Duration::from_millis(10)).unwrap_err(), PopError::TimedOut);
        b.push(msg(1));
        b.close();
        assert_eq!(b.pop_timeout(Duration::from_secs(5)).unwrap().body[0], 1, "staged drains first");
        assert_eq!(b.pop_timeout(Duration::from_secs(5)).unwrap_err(), PopError::Closed);
    }

    #[test]
    fn pop_blocks_until_push() {
        let b = Arc::new(Buffer::new());
        let b2 = Arc::clone(&b);
        let t = std::thread::spawn(move || b2.pop().unwrap().body[0]);
        while b.not_empty.waiters() == 0 {
            std::thread::yield_now();
        }
        b.push(msg(7));
        assert_eq!(t.join().unwrap(), 7);
    }

    #[test]
    fn close_drains_then_ends() {
        let b = Buffer::new();
        b.push(msg(1));
        b.close();
        assert!(!b.push(msg(2)), "push after close is dropped");
        assert_eq!(b.pop().unwrap().body[0], 1);
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
                    assert!(b.push(msg(t)));
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
            assert!(b.push(msg(0)));
            assert!(b.push(msg(1)));
            let pusher = {
                let b = Arc::clone(&b);
                std::thread::spawn(move || b.push(msg(2)))
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
                std::thread::spawn(move || b.push(Message::new(h, Bytes::from(vec![9u8; 100 * UNIT]))))
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
        // one of them itself (returning false) — there is no poll to fall
        // back on — and afterwards exactly the staged messages, no more, no
        // fewer, are poppable. The wake is timed as the best of five rounds,
        // so a busy machine cannot fail it and a 50 ms re-check loop cannot
        // pass it.
        watchdog(|| {
            let mut fastest = Duration::MAX;
            for _ in 0..5 {
                let b = Arc::new(Buffer::with_budget(2 * UNIT));
                assert!(b.push(msg(0)));
                assert!(b.push(msg(1)));
                let handles: Vec<_> = (0..4u8)
                    .map(|t| {
                        let b = Arc::clone(&b);
                        std::thread::spawn(move || b.push(msg(t)))
                    })
                    .collect();
                until_pushers_blocked(&b, 4);
                let closed_at = Instant::now();
                b.close();
                for h in handles {
                    assert!(!h.join().unwrap(), "blocked push observes closure and drops its message");
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
            let b = Arc::new(Buffer::new());
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

    /// 4 producers x 4 consumers through a one-message budget: every push
    /// and almost every pop sleeps, so a suppressed wake that was needed
    /// shows as a hang (the watchdog) or a lost item. Wake suppression bugs
    /// are reordering bugs, so ci.sh runs this in release.
    #[test]
    fn stress_one_message_budget_loses_no_wakeup() {
        const PER_PRODUCER: u32 = if cfg!(debug_assertions) { 5_000 } else { 50_000 };
        watchdog(|| {
            let b = Arc::new(Buffer::with_budget(1));
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
                            assert!(b.push(m));
                            assert!(b.len() <= 1, "one message at a time");
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
