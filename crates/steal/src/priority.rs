//! A two-lane (priority-aware) injector.
//!
//! **The pool does not use this type.** [`Pool`](crate::pool::Pool) has
//! one pop order — a LIFO deque per worker, one [`Injector`] and
//! randomized stealing. [`PrioInjector`] is kept only because the
//! benchmark times it in isolation for its per-layer metric
//! `steal.priority.push_steal_hot_ns`; it goes when that metric does.
//!
//! It is a pair of segmented lock-free [`Injector`]s plus a conservative
//! occupancy hint for the hot lane, so that a consumer that never sees a
//! [`Priority::High`] push pays a single atomic load per acquisition
//! attempt instead of probing the hot lane's head/tail indices. The hint's
//! protocol:
//!
//! * `push(_, High)` increments the hint **before** publishing the
//!   element. Both the increment and the thief's load are `SeqCst`, so in
//!   the SC total order any thief that starts after a completed hot push
//!   observes a non-zero hint — a zero hint can only miss pushes that are
//!   still in flight, and those wake a worker via the pool's parker
//!   anyway.
//! * a successful `steal_hot` decrements the hint afterwards. Every
//!   successful steal is preceded by its element's push, which is preceded
//!   by the matching increment, so decrements never outnumber increments
//!   and the counter cannot wrap.
//!
//! The hint may therefore transiently *over*-count (probe finds the lane
//! empty — wasted loads, not lost work); it never under-counts a published
//! element. The loom models in `crates/steal/tests/loom_priority.rs`
//! check exactly this: no loss, no duplication, hot-before-normal pop
//! order, and a hint that returns to zero once the lanes drain.

use crate::deque::Worker;
use crate::injector::Injector;
use crate::metrics::CachePadded;
use ft_sync::atomic::{AtomicU64, Ordering};

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
    /// Conservative count of elements in the hot lane (protocol above).
    hot_hint: CachePadded<AtomicU64>,
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
            hot_hint: CachePadded(AtomicU64::new(0)),
        }
    }

    /// Push a value into the lane selected by `prio`.
    pub fn push(&self, value: T, prio: Priority) {
        match prio {
            Priority::High => {
                // Count the element *before* it becomes stealable so a
                // thief that observes the published element also observes
                // a non-zero hint (SeqCst pairs with the load in
                // `steal_hot`).
                self.hot_hint.fetch_add(1, Ordering::SeqCst);
                self.hot.push(value);
            }
            Priority::Normal => self.normal.push(value),
        }
    }

    /// Steal one element from the hot lane, if the hint says it may hold
    /// any. The common FIFO-mode cost is the single hint load.
    pub fn steal_hot(&self) -> Option<T> {
        if self.hot_hint.load(Ordering::SeqCst) == 0 {
            return None;
        }
        let stolen = self.hot.steal();
        if stolen.is_some() {
            // One published element consumed: release its hint count.
            self.hot_hint.fetch_sub(1, Ordering::SeqCst);
        }
        stolen
    }

    /// Steal one element from the normal lane.
    pub fn steal_normal(&self) -> Option<T> {
        self.normal.steal()
    }

    /// Steal one element, hot lane first.
    pub fn steal(&self) -> Option<T> {
        self.steal_hot().or_else(|| self.steal_normal())
    }

    /// Batch-steal from the *normal* lane into `dest`, returning the
    /// oldest stolen element. Hot elements are rare by construction
    /// (critical-task traversals only), so they are stolen one at a time
    /// via [`PrioInjector::steal_hot`], which keeps the hint accounting
    /// exact.
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

    /// Current value of the hot-lane occupancy hint (diagnostics/tests).
    pub fn hot_hint(&self) -> u64 {
        self.hot_hint.load(Ordering::SeqCst)
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
        assert_eq!(q.hot_hint(), 0);
    }

    #[test]
    fn hint_tracks_hot_lane_exactly_when_sequential() {
        let q = PrioInjector::new();
        for i in 0..100u64 {
            q.push(i, Priority::High);
        }
        assert_eq!(q.hot_hint(), 100);
        for _ in 0..100 {
            assert!(q.steal_hot().is_some());
        }
        assert_eq!(q.hot_hint(), 0);
        assert_eq!(q.steal_hot(), None);
    }

    #[test]
    fn fifo_mode_never_touches_hot_lane() {
        let q = PrioInjector::new();
        for i in 0..64u64 {
            q.push(i, Priority::Normal);
        }
        assert_eq!(q.hot_hint(), 0);
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
        assert_eq!(q.hot_hint(), 0);
    }
}
