//! `ft-det` — deterministic single-threaded schedule exploration.
//!
//! The multithreaded [`ft_steal::pool::Pool`] executes a task-graph run
//! under whatever interleaving the OS scheduler happens to produce, so a
//! concurrency bug may show up once in ten thousand runs and never again.
//! [`DetPool`] implements the same [`Executor`]/[`SpawnHost`] surface but
//! runs every job on the calling thread, choosing the **next ready job
//! uniformly at random with a seeded xorshift PRNG**. Each seed is one
//! total order of the spawned jobs — one simulated interleaving — and the
//! same `(graph, fault plan, seed)` triple replays the identical schedule
//! every time.
//!
//! The FT scheduler runs on it unmodified:
//!
//! ```
//! use ft_det::DetPool;
//! use std::sync::atomic::{AtomicUsize, Ordering};
//! use std::sync::Arc;
//!
//! let pool = DetPool::new(42);
//! let hits = Arc::new(AtomicUsize::new(0));
//! let h = Arc::clone(&hits);
//! pool.run_until_complete(move |scope| {
//!     for _ in 0..10 {
//!         let h = Arc::clone(&h);
//!         scope.spawn(move |_| {
//!             h.fetch_add(1, Ordering::Relaxed);
//!         });
//!     }
//! });
//! assert_eq!(hits.load(Ordering::Relaxed), 10);
//! ```
//!
//! Caveat: `DetPool` explores *schedule* nondeterminism (which ready job
//! runs next), not *memory-model* nondeterminism (reorderings below
//! sequential consistency). The loom models in `ft-steal` cover the latter
//! for the deque and latch primitives.

#![warn(missing_docs)]

use ft_steal::instance::{Group, InstanceHandle, QuiesceHook};
use ft_steal::pool::{Executor, Job, Scope, SpawnHost};
use ft_steal::rng::XorShift64Star;
use std::cell::{Cell, RefCell};

/// A deterministic, single-threaded executor with a seeded random schedule.
///
/// All spawned jobs go into one ready list; the drain loop repeatedly picks
/// a uniformly random element (via `swap_remove`, so selection is O(1)) and
/// runs it to completion before picking the next. Because a job only ever
/// becomes ready by an explicit `spawn`, every dependence the scheduler
/// encodes through spawning is respected, while every allowed reordering of
/// ready jobs is reachable under some seed.
pub struct DetPool {
    seed: u64,
    queue: RefCell<Vec<Job>>,
    rng: RefCell<XorShift64Star>,
    /// The group of every job not submitted as an instance (jobs stamped
    /// with no group); its first panic is re-raised when the queue drains.
    resident: Group,
    /// Jobs executed across all runs on this pool (diagnostics).
    executed: Cell<u64>,
    /// True while the drain loop is running (jobs see `worker_index() == 0`).
    draining: Cell<bool>,
}

impl DetPool {
    /// Create a pool whose schedule is fully determined by `seed`.
    pub fn new(seed: u64) -> Self {
        DetPool {
            seed,
            queue: RefCell::new(Vec::new()),
            rng: RefCell::new(XorShift64Star::new(seed)),
            resident: Group::resident(),
            executed: Cell::new(0),
            draining: Cell::new(false),
        }
    }

    /// The seed this pool was built with (for failure reports).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Total jobs executed on this pool so far.
    pub fn jobs_executed(&self) -> u64 {
        self.executed.get()
    }

    /// Run `f` (which spawns the root work) and drain every transitively
    /// spawned job in seeded-random order. Mirrors
    /// [`ft_steal::pool::Pool::run_until_complete`]: if `f` or any job
    /// panicked, the remaining jobs still run and the first payload is
    /// re-raised here — nothing `f` spawned is left queued when this
    /// unwinds.
    pub fn run_until_complete<F>(&self, f: F)
    where
        F: FnOnce(&Scope<'_>),
    {
        let scope = Scope::for_host(self);
        let submitted = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&scope)));
        self.drain();
        if let Some(payload) = submitted.err().or(self.resident.take_panic()) {
            std::panic::resume_unwind(payload);
        }
    }

    /// The group `job` is counted in: its stamp, or — unstamped — the
    /// resident group (never stamped, so no job points into this struct).
    fn group_of(&self, job: &Job) -> *const Group {
        if job.group().is_null() {
            &self.resident
        } else {
            job.group()
        }
    }

    fn drain(&self) {
        self.draining.set(true);
        loop {
            // Pick-and-pop inside a short borrow so jobs can spawn freely.
            // The seeded RNG picks uniformly, so the whole schedule is a
            // pure function of the seed.
            let job = {
                let mut q = self.queue.borrow_mut();
                if q.is_empty() {
                    break;
                }
                let idx = self.rng.borrow_mut().next_below(q.len());
                q.swap_remove(idx)
            };
            self.executed.set(self.executed.get() + 1);
            let group = self.group_of(&job);
            // SAFETY: the job holds a unit of its group (enrolled by
            // `spawn_job` or `Group::open`) until the release below,
            // which keeps a per-instance group alive.
            let scope = unsafe { Scope::for_group(self, job.group()) };
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                job.run(&scope);
            }));
            if let Err(payload) = result {
                // SAFETY: as above — the job's unit is still held.
                unsafe { (*group).record_panic(payload) };
            }
            // SAFETY: the unit of the job that just finished.
            unsafe { Group::release(group, 1) };
        }
        self.draining.set(false);
    }
}

impl SpawnHost for DetPool {
    fn spawn_job(&self, job: Job) {
        // SAFETY: a stamped job is spawned by a running job of the same
        // group (through the scope `drain` built), whose unit keeps it alive.
        unsafe { (*self.group_of(&job)).enroll() };
        self.queue.borrow_mut().push(job);
    }

    fn num_threads(&self) -> usize {
        1
    }

    fn worker_index(&self) -> Option<usize> {
        if self.draining.get() {
            Some(0)
        } else {
            None
        }
    }
}

// SAFETY: every job holds a unit of its group's latch from `spawn_job`
// (or `Group::open`, for a root) until `drain` has run its body, so an
// instance's latch trips — hook, then `done` — only after its last job
// finished (`ft_steal::instance`). `drive` drains the ready list before it
// re-raises anything. A job is only ever run once (by `drain`) or dropped
// with the pool.
unsafe impl Executor for DetPool {
    fn num_threads(&self) -> usize {
        1
    }

    /// Enqueue an instance root **without draining**: submissions
    /// accumulate, and a later [`Executor::drive`] interleaves the jobs of
    /// every pending instance through the one seeded RNG. The same seed
    /// plus the same submission sequence therefore replays the identical
    /// cross-instance schedule — the property the concurrent-submission
    /// oracle campaigns rely on.
    fn submit_instance(&self, root: Job, on_quiesce: Option<QuiesceHook>) -> InstanceHandle {
        let (job, handle) = Group::open(root, on_quiesce);
        self.queue.borrow_mut().push(job);
        handle
    }

    fn queued_jobs(&self) -> u64 {
        self.queue.borrow().len() as u64
    }

    /// Drain every pending job (all submitted instances interleaved) in
    /// seeded-random order on the calling thread. Instance panics stay in
    /// their handles; panics of plain `spawn`ed jobs are re-raised here
    /// like in [`DetPool::run_until_complete`].
    fn drive(&self) {
        self.drain();
        if let Some(payload) = self.resident.take_panic() {
            std::panic::resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_sync::atomic::{AtomicU64, Ordering};
    use parking_lot::Mutex;
    use std::sync::Arc;

    /// Record the order in which numbered jobs run under `seed`.
    fn order_for(seed: u64, n: usize) -> Vec<usize> {
        let pool = DetPool::new(seed);
        let order = Arc::new(Mutex::new(Vec::new()));
        let o = Arc::clone(&order);
        pool.run_until_complete(move |scope: &Scope<'_>| {
            for i in 0..n {
                let o = Arc::clone(&o);
                scope.spawn(move |_| o.lock().push(i));
            }
        });
        Arc::try_unwrap(order).unwrap().into_inner()
    }

    #[test]
    fn same_seed_same_schedule() {
        assert_eq!(order_for(7, 50), order_for(7, 50));
        assert_eq!(order_for(123, 50), order_for(123, 50));
    }

    #[test]
    fn different_seeds_explore_different_schedules() {
        let distinct: std::collections::HashSet<Vec<usize>> =
            (0..16).map(|s| order_for(s, 20)).collect();
        assert!(
            distinct.len() > 8,
            "16 seeds produced only {} schedules",
            distinct.len()
        );
    }

    #[test]
    fn schedule_is_a_permutation() {
        let order = order_for(99, 100);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn recursive_spawning_quiesces() {
        let pool = DetPool::new(1);
        let count = Arc::new(AtomicU64::new(0));
        fn fanout(scope: &Scope<'_>, depth: usize, count: Arc<AtomicU64>) {
            count.fetch_add(1, Ordering::Relaxed);
            if depth > 0 {
                for _ in 0..2 {
                    let c = Arc::clone(&count);
                    scope.spawn(move |s| fanout(s, depth - 1, c));
                }
            }
        }
        let c = Arc::clone(&count);
        pool.run_until_complete(move |scope: &Scope<'_>| {
            scope.spawn(move |s| fanout(s, 10, c));
        });
        assert_eq!(count.load(Ordering::Relaxed), 2047);
        assert_eq!(pool.jobs_executed(), 2047);
    }

    #[test]
    fn worker_index_inside_jobs_only() {
        let pool = DetPool::new(5);
        pool.run_until_complete(|scope: &Scope<'_>| {
            assert_eq!(scope.worker_index(), None, "submitter is not a worker");
            assert_eq!(scope.num_threads(), 1);
            scope.spawn(|s| {
                assert_eq!(s.worker_index(), Some(0));
            });
        });
    }

    #[test]
    fn panic_propagates_after_drain() {
        let pool = DetPool::new(3);
        let ran = Arc::new(AtomicU64::new(0));
        let r = Arc::clone(&ran);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run_until_complete(move |scope: &Scope<'_>| {
                scope.spawn(|_| panic!("boom"));
                for _ in 0..10 {
                    let r = Arc::clone(&r);
                    scope.spawn(move |_| {
                        r.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }));
        assert!(result.is_err());
        // Like the multithreaded pool, remaining jobs still ran.
        assert_eq!(ran.load(Ordering::Relaxed), 10);
        // Pool is reusable afterwards.
        pool.run_until_complete(|scope: &Scope<'_>| {
            scope.spawn(|_| {});
        });
    }
}
