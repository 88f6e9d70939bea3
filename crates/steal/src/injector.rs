//! The pool's injector: the queue through which jobs enter from outside
//! the pool.
//!
//! Traversal work moves between workers through their own deques; this
//! queue only admits new graphs — one push per run or per service
//! instance, plus `Pool::run_until_complete`'s root. At that rate a lock
//! costs nothing measurable, so the queue is a `Mutex<VecDeque>`.
//!
//! What runs per task is the *poll* of a worker whose own deque is empty,
//! and that stays lock-free: a length word, stored under the lock after
//! every change, lets [`Injector::steal`] and
//! [`Injector::steal_batch_and_pop`] return `None` from one load when the
//! queue is empty. [`Injector::len`] and [`Injector::is_empty`] load it
//! `SeqCst`, because the pool's sweep-on-park reads them after the
//! parker's sleeper fence (`docs/ALGORITHM.md`, "Sweep-on-park").

use crate::deque::Worker;
use ft_sync::atomic::{AtomicUsize, Ordering};
use parking_lot::Mutex;
use std::collections::VecDeque;

/// Capacity reserved by `new`: a queue this short never reallocates.
const RESERVED: usize = 155;
/// Most values one `steal_batch_and_pop` moves into the caller's deque.
const MAX_SURPLUS: usize = 15;

/// An MPMC queue for external job submission: a locked FIFO with a
/// lock-free emptiness check.
pub struct Injector<T> {
    queue: Mutex<VecDeque<T>>,
    /// `queue.len()`, stored under the lock after every change and read
    /// without it.
    len: AtomicUsize,
}

impl<T> std::fmt::Debug for Injector<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Injector")
            .field("len", &self.len())
            .finish()
    }
}

impl<T> Default for Injector<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Injector<T> {
    /// Create an empty injector with room for `RESERVED` values, so zero
    /// steady-state allocations do not depend on how far consumers lagged
    /// during some earlier burst.
    pub fn new() -> Self {
        Injector {
            queue: Mutex::new(VecDeque::with_capacity(RESERVED)),
            len: AtomicUsize::new(0),
        }
    }

    /// Push a value at the back (MPMC producer side).
    pub fn push(&self, value: T) {
        let mut queue = self.queue.lock();
        queue.push_back(value);
        self.publish_len(&queue);
    }

    /// Store the length of the locked `queue`.
    fn publish_len(&self, queue: &VecDeque<T>) {
        // ord: Release — stored under the lock, so the word's modification
        // order is the lock order and its last value the queue's length;
        // pairs with `looks_empty`'s Acquire load.
        self.len.store(queue.len(), Ordering::Release);
    }

    /// The lock-free poll every idle worker runs: true when the last
    /// stored length is zero.
    // ft-lint: hot-path begin(injector-poll)
    fn looks_empty(&self) -> bool {
        // ord: Acquire — pairs with `publish_len`'s Release store. A stale
        // zero only makes a poll miss a job; the sweep-on-park re-reads
        // the length with `len` (SeqCst) before the worker sleeps.
        self.len.load(Ordering::Acquire) == 0
    }
    // ft-lint: hot-path end(injector-poll)

    /// Pop the oldest value (MPMC consumer side). Returns `None` when the
    /// queue is observed empty.
    pub fn steal(&self) -> Option<T> {
        if self.looks_empty() {
            return None;
        }
        let mut queue = self.queue.lock();
        let value = queue.pop_front()?;
        self.publish_len(&queue);
        Some(value)
    }

    /// Pop the oldest value and move up to half of what remains, at most
    /// `MAX_SURPLUS`, onto `dest` (the calling worker's own deque), where
    /// other workers can steal it.
    pub fn steal_batch_and_pop(&self, dest: &Worker<T>) -> Option<T>
    where
        T: Send,
    {
        if self.looks_empty() {
            return None;
        }
        let mut queue = self.queue.lock();
        let first = queue.pop_front()?;
        let surplus = (queue.len() / 2).min(MAX_SURPLUS);
        for value in queue.drain(..surplus) {
            dest.push(value);
        }
        self.publish_len(&queue);
        Some(first)
    }

    /// True when no queued values are visible.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of queued values, as last stored.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::SeqCst)
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::deque;
    use ft_sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn fifo_across_block_boundaries() {
        let q = Injector::new();
        // 100 items span four blocks (31 slots each).
        for i in 0..100u64 {
            q.push(i);
        }
        assert_eq!(q.len(), 100);
        for i in 0..100u64 {
            assert_eq!(q.steal(), Some(i));
        }
        assert_eq!(q.steal(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_push_steal_reuses_blocks() {
        let q = Injector::new();
        // Far more traffic than blocks: exercises recycling.
        for round in 0..50u64 {
            for i in 0..40 {
                q.push(round * 100 + i);
            }
            for i in 0..40 {
                assert_eq!(q.steal(), Some(round * 100 + i));
            }
        }
        assert!(q.is_empty());
    }

    #[test]
    fn batch_steal_moves_surplus_to_worker() {
        let q = Injector::new();
        for i in 0..20u64 {
            q.push(i);
        }
        let (w, _s) = deque::deque::<u64>();
        let first = q.steal_batch_and_pop(&w).expect("non-empty");
        assert_eq!(first, 0, "oldest item is returned");
        let mut moved = Vec::new();
        while let Some(v) = w.pop() {
            moved.push(v);
        }
        assert!(!moved.is_empty(), "surplus lands in the worker deque");
        assert!(moved.len() < 20, "batch is bounded");
        // Everything claimed exactly once between return, deque, and queue.
        let mut rest = Vec::new();
        while let Some(v) = q.steal() {
            rest.push(v);
        }
        let mut all: Vec<u64> = std::iter::once(first).chain(moved).chain(rest).collect();
        all.sort_unstable();
        assert_eq!(all, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_mpmc_no_loss_no_dup() {
        const PRODUCERS: u64 = 4;
        const PER_PRODUCER: u64 = 5_000;
        let q = Arc::new(Injector::new());
        let seen = Arc::new(
            (0..PRODUCERS * PER_PRODUCER)
                .map(|_| AtomicUsize::new(0))
                .collect::<Vec<_>>(),
        );
        let consumed = Arc::new(AtomicUsize::new(0));
        thread::scope(|s| {
            for p in 0..PRODUCERS {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    for i in 0..PER_PRODUCER {
                        q.push(p * PER_PRODUCER + i);
                    }
                });
            }
            for _ in 0..4 {
                let q = Arc::clone(&q);
                let seen = Arc::clone(&seen);
                let consumed = Arc::clone(&consumed);
                s.spawn(move || loop {
                    if let Some(v) = q.steal() {
                        let prev = seen[v as usize].fetch_add(1, Ordering::Relaxed);
                        assert_eq!(prev, 0, "value {v} consumed twice");
                        consumed.fetch_add(1, Ordering::Relaxed);
                    } else if consumed.load(Ordering::Relaxed)
                        == (PRODUCERS * PER_PRODUCER) as usize
                    {
                        break;
                    }
                });
            }
        });
        for (v, c) in seen.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "value {v} lost");
        }
    }

    #[test]
    fn concurrent_batch_steal_no_loss_no_dup() {
        const TOTAL: u64 = 20_000;
        let q = Arc::new(Injector::new());
        let counts = Arc::new((0..TOTAL).map(|_| AtomicUsize::new(0)).collect::<Vec<_>>());
        let consumed = Arc::new(AtomicUsize::new(0));
        thread::scope(|s| {
            {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    for i in 0..TOTAL {
                        q.push(i);
                    }
                });
            }
            for _ in 0..3 {
                let q = Arc::clone(&q);
                let counts = Arc::clone(&counts);
                let consumed = Arc::clone(&consumed);
                s.spawn(move || {
                    let (w, _s) = deque::deque::<u64>();
                    let mark = |v: u64| {
                        let prev = counts[v as usize].fetch_add(1, Ordering::Relaxed);
                        assert_eq!(prev, 0, "value {v} consumed twice");
                        consumed.fetch_add(1, Ordering::Relaxed);
                    };
                    loop {
                        if let Some(v) = q.steal_batch_and_pop(&w) {
                            mark(v);
                            while let Some(v) = w.pop() {
                                mark(v);
                            }
                        } else if consumed.load(Ordering::Relaxed) == TOTAL as usize {
                            break;
                        }
                    }
                });
            }
        });
        for (v, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "value {v} lost");
        }
    }

    #[test]
    fn drop_releases_unconsumed_values() {
        let probe = Arc::new(());
        {
            let q = Injector::new();
            for _ in 0..100 {
                q.push(Arc::clone(&probe));
            }
            for _ in 0..37 {
                drop(q.steal());
            }
            assert_eq!(Arc::strong_count(&probe), 1 + 63);
        }
        assert_eq!(Arc::strong_count(&probe), 1, "drop leaked queued values");
    }

    #[test]
    fn len_tracks_boundary_skips() {
        let q = Injector::new();
        for i in 0..64u64 {
            q.push(i);
            assert_eq!(q.len(), (i + 1) as usize);
        }
        for i in 0..64u64 {
            q.steal();
            assert_eq!(q.len(), (63 - i) as usize);
        }
    }
}
