//! A two-lane (priority-aware) injector.
//!
//! **The pool does not use this type.** [`Pool`](crate::pool::Pool) has
//! one pop order — a LIFO deque per worker, one [`Injector`] and
//! randomized stealing. [`PrioInjector`] is kept only because the
//! benchmark times it in isolation for its per-layer metric
//! `steal.priority.push_steal_hot_ns`; it goes when that metric does.
//!
//! It is a pair of [`Injector`]s, one per lane. A consumer that never sees
//! a [`Priority::High`] push pays one load per acquisition attempt for the
//! hot lane: the hot [`Injector`]'s own poll, which reads its length word
//! and returns without locking when the lane is empty. The loom models in
//! `crates/steal/tests/loom_priority.rs` check no loss, no duplication and
//! hot-before-normal pop order.

use crate::deque::Worker;
use crate::injector::Injector;

/// Acquisition priority of a spawned job.
///
/// [`Priority::High`] jobs are popped/stolen before [`Priority::Normal`]
/// ones wherever both are visible to a worker. The default everywhere is
/// `Normal`; a pool with no `High` spawns behaves exactly like the
/// single-lane pool (FIFO mode).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Ordinary job: popped after any visible high-priority work.
    #[default]
    Normal,
    /// Hot job (hard/critical task traversal): popped first.
    High,
}

/// A two-lane MPMC injector: hot jobs are stolen before normal ones.
pub struct PrioInjector<T> {
    hot: Injector<T>,
    normal: Injector<T>,
}

impl<T> std::fmt::Debug for PrioInjector<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrioInjector")
            .field("hot_len", &self.hot.len())
            .field("normal_len", &self.normal.len())
            .finish()
    }
}

impl<T> Default for PrioInjector<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> PrioInjector<T> {
    /// Create an empty two-lane injector.
    pub fn new() -> Self {
        PrioInjector {
            hot: Injector::new(),
            normal: Injector::new(),
        }
    }

    /// Push a value into the lane selected by `prio`.
    pub fn push(&self, value: T, prio: Priority) {
        match prio {
            Priority::High => self.hot.push(value),
            Priority::Normal => self.normal.push(value),
        }
    }

    /// Steal one element from the hot lane. The cost on an empty lane is
    /// the lane's lock-free length poll.
    pub fn steal_hot(&self) -> Option<T> {
        self.hot.steal()
    }

    /// Steal one element, hot lane first.
    pub fn steal(&self) -> Option<T> {
        self.hot.steal().or_else(|| self.normal.steal())
    }

    /// Batch-steal from the *normal* lane into `dest`, returning the
    /// oldest stolen element. Hot elements are rare by construction
    /// (critical-task traversals only), so they are stolen one at a time
    /// via [`PrioInjector::steal_hot`].
    pub fn steal_batch_and_pop_normal(&self, dest: &Worker<T>) -> Option<T>
    where
        T: Send,
    {
        self.normal.steal_batch_and_pop(dest)
    }

    /// True if both lanes are empty.
    pub fn is_empty(&self) -> bool {
        self.hot.is_empty() && self.normal.is_empty()
    }

    /// Total elements across both lanes (racy, diagnostics only).
    pub fn len(&self) -> usize {
        self.hot.len() + self.normal.len()
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn hot_before_normal_single_thread() {
        let q = PrioInjector::new();
        q.push(1u64, Priority::Normal);
        q.push(2, Priority::High);
        q.push(3, Priority::Normal);
        q.push(4, Priority::High);
        assert_eq!(q.steal(), Some(2));
        assert_eq!(q.steal(), Some(4));
        assert_eq!(q.steal(), Some(1));
        assert_eq!(q.steal(), Some(3));
        assert_eq!(q.steal(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn hot_lane_drains_exactly_when_sequential() {
        let q = PrioInjector::new();
        for i in 0..100u64 {
            q.push(i, Priority::High);
        }
        assert_eq!(q.len(), 100);
        for _ in 0..100 {
            assert!(q.steal_hot().is_some());
        }
        assert!(q.is_empty());
        assert_eq!(q.steal_hot(), None);
    }

    #[test]
    fn fifo_mode_never_touches_hot_lane() {
        let q = PrioInjector::new();
        for i in 0..64u64 {
            q.push(i, Priority::Normal);
        }
        let (w, _s) = crate::deque::deque::<u64>();
        // Batch path drains the normal lane in FIFO order.
        let first = q.steal_batch_and_pop_normal(&w);
        assert_eq!(first, Some(0));
        let mut got = vec![0u64];
        while let Some(v) = w.pop().or_else(|| q.steal_batch_and_pop_normal(&w)) {
            got.push(v);
        }
        got.sort_unstable();
        assert_eq!(got, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_mixed_push_steal_no_loss() {
        use std::sync::Arc;
        let q = Arc::new(PrioInjector::new());
        let n_per = 1000u64;
        std::thread::scope(|ts| {
            for p in 0..2u64 {
                let q = Arc::clone(&q);
                ts.spawn(move || {
                    for i in 0..n_per {
                        let prio = if i % 3 == 0 {
                            Priority::High
                        } else {
                            Priority::Normal
                        };
                        q.push(p * n_per + i, prio);
                    }
                });
            }
            let mut seen = std::collections::HashSet::new();
            while seen.len() < 2 * n_per as usize {
                if let Some(v) = q.steal() {
                    assert!(seen.insert(v), "duplicate element {v}");
                }
            }
        });
        assert!(q.is_empty());
    }
}
