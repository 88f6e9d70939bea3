//! Inline-storage job representation.
//!
//! [`Job`] replaces the old `Box<dyn FnOnce(&Scope<'_>) + Send>` alias: a
//! fixed-size (64-byte) closure cell that stores small closures **inline**
//! — no heap allocation per spawn — and transparently falls back to a heap
//! box for closures larger than [`INLINE_DATA_BYTES`]. Beside the closure
//! the cell carries a pointer to the job's completion [`Group`], stamped by
//! the [`Scope`] that spawned it.
//!
//! Every closure the scheduler engine spawns on its hot path captures at
//! most an engine pointer, an arena handle and two or three scalar keys
//! (≤ 40 bytes), so the traversal's spawn traffic is allocation-free; the old
//! representation paid one `Box` per spawned job, which `alloc_count.rs`
//! measured as ~5 of the ~11 allocations per task. The 64-byte cell also
//! means deque and injector slots hold jobs by value in one cache line.
//!
//! No atomics and no sharing: a `Job` is moved between threads through the
//! deque/injector protocols, which provide the necessary synchronization.
//! The `unsafe` here is purely manual ownership of the type-erased
//! closure (inline bytes or raw box pointer), with the invariant that
//! exactly one of `run`/`drop` consumes it.

use crate::instance::Group;
use crate::pool::Scope;
use std::mem::{align_of, size_of, ManuallyDrop, MaybeUninit};

/// Number of pointer-sized words of inline closure storage.
const DATA_WORDS: usize = 5;

/// Closures up to this size (and pointer alignment) are stored inline;
/// larger ones are boxed. 40 bytes is exactly the largest engine hot-path
/// closure (engine pointer + descriptor handle + two keys + life), which
/// `alloc_count.rs` pins.
pub const INLINE_DATA_BYTES: usize = DATA_WORDS * size_of::<usize>();

/// A unit of work. Receives a [`Scope`] so it can spawn more work.
///
/// Construct with [`Job::new`]; execute exactly once with [`Job::run`].
/// Dropping an unexecuted `Job` (queue teardown) drops the closure.
pub struct Job {
    /// Type-erased closure storage: either the closure's bytes written
    /// in-place (inline mode) or a `Box` raw pointer in word 0 (boxed
    /// mode). Which mode applies is fixed by the `call`/`drop_fn` pair.
    data: [MaybeUninit<usize>; DATA_WORDS],
    /// The completion group this job is counted in; null until stamped.
    /// Only executors dereference it, under the unit the job holds.
    group: *const Group,
    /// Consumes the closure in `data` and invokes it.
    // SAFETY: caller contract — see `call_inline`/`call_boxed`: the pointer
    // must be this cell's `data`, holding a live closure, consumed once.
    call: unsafe fn(*mut MaybeUninit<usize>, &Scope<'_>),
    /// Drops the closure in `data` without invoking it.
    // SAFETY: caller contract — see `drop_inline`/`drop_boxed`: the pointer
    // must be this cell's `data`, holding a live closure, dropped once.
    drop_fn: unsafe fn(*mut MaybeUninit<usize>),
}

// SAFETY: `Job::new` requires `F: Send`, and the closure is owned by the
// cell (inline bytes or an exclusively-owned box); moving the cell moves
// the closure, so sending the cell to another thread is exactly sending
// the `Send` closure. The group pointer is only ever dereferenced to a
// `&Group`, and `Group` is `Sync` (checked right below).
unsafe impl Send for Job {}
const _: fn() = {
    fn shared_across_workers<T: Sync>() {}
    shared_across_workers::<Group>
};

impl Job {
    /// Wrap a closure. Small closures (≤ [`INLINE_DATA_BYTES`] bytes,
    /// pointer-aligned) are stored inline with zero allocation; larger
    /// ones are boxed, matching the old `Box<dyn FnOnce>` cost.
    pub fn new<F>(f: F) -> Self
    where
        F: FnOnce(&Scope<'_>) + Send + 'static,
    {
        let mut data = [MaybeUninit::<usize>::uninit(); DATA_WORDS];
        // Both arms of this branch are resolved at monomorphization time.
        if size_of::<F>() <= INLINE_DATA_BYTES && align_of::<F>() <= align_of::<usize>() {
            // SAFETY: the closure fits in `data` and `data`'s base is
            // aligned for `usize`, which the branch just checked is
            // sufficient for `F`. Ownership of `f` moves into the cell;
            // it is read back exactly once by `call_inline`/`drop_inline`.
            unsafe { std::ptr::write(data.as_mut_ptr().cast::<F>(), f) };
            Job {
                data,
                group: std::ptr::null(),
                call: call_inline::<F>,
                drop_fn: drop_inline::<F>,
            }
        } else {
            data[0] = MaybeUninit::new(Box::into_raw(Box::new(f)) as usize);
            Job {
                data,
                group: std::ptr::null(),
                call: call_boxed::<F>,
                drop_fn: drop_boxed::<F>,
            }
        }
    }

    /// The completion group this job was stamped with (null if none yet).
    pub fn group(&self) -> *const Group {
        self.group
    }

    /// Stamp the job with its completion group.
    pub(crate) fn stamped(mut self, group: *const Group) -> Self {
        self.group = group;
        self
    }

    /// Execute the job, consuming it.
    pub fn run(self, scope: &Scope<'_>) {
        let mut cell = ManuallyDrop::new(self);
        // SAFETY: `cell.call` was paired with `cell.data` by `Job::new`;
        // wrapping in `ManuallyDrop` forgoes the `Drop` impl, so the
        // closure is consumed exactly once (here).
        unsafe { (cell.call)(cell.data.as_mut_ptr(), scope) }
    }
}

impl Drop for Job {
    fn drop(&mut self) {
        // SAFETY: `drop_fn` was paired with `data` by `Job::new`, and
        // `run` suppresses this impl via `ManuallyDrop`, so the closure is
        // still live here and is consumed exactly once.
        unsafe { (self.drop_fn)(self.data.as_mut_ptr()) }
    }
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job").finish_non_exhaustive()
    }
}

/// Invoke a closure stored inline in `data`.
///
/// # Safety
/// `data` must hold a live `F` written by `Job::new`'s inline arm, and the
/// closure must not be consumed again afterwards.
unsafe fn call_inline<F: FnOnce(&Scope<'_>)>(data: *mut MaybeUninit<usize>, scope: &Scope<'_>) {
    // SAFETY: caller contract — `data` holds a live `F`; `read` takes
    // ownership so the storage is dead afterwards.
    let f = unsafe { std::ptr::read(data.cast::<F>()) };
    f(scope)
}

/// Drop a closure stored inline in `data` without running it.
///
/// # Safety
/// Same contract as [`call_inline`].
unsafe fn drop_inline<F>(data: *mut MaybeUninit<usize>) {
    // SAFETY: caller contract — `data` holds a live `F`.
    unsafe { std::ptr::drop_in_place(data.cast::<F>()) }
}

/// Invoke a closure boxed by `Job::new`'s fallback arm (raw `Box` pointer
/// in word 0).
///
/// # Safety
/// `data[0]` must hold the raw pointer produced by `Box::into_raw` for a
/// live `Box<F>`, and the closure must not be consumed again afterwards.
unsafe fn call_boxed<F: FnOnce(&Scope<'_>)>(data: *mut MaybeUninit<usize>, scope: &Scope<'_>) {
    // SAFETY: caller contract — word 0 is a `Box::into_raw` pointer to a
    // live `F`; re-boxing restores unique ownership.
    let f = unsafe { Box::from_raw((*data).assume_init() as *mut F) };
    f(scope)
}

/// Drop a boxed closure without running it.
///
/// # Safety
/// Same contract as [`call_boxed`].
unsafe fn drop_boxed<F>(data: *mut MaybeUninit<usize>) {
    // SAFETY: caller contract — word 0 is a `Box::into_raw` pointer to a
    // live `F`.
    drop(unsafe { Box::from_raw((*data).assume_init() as *mut F) });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::SpawnHost;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// A host that drops every spawned job on the floor (enough to build a
    /// `Scope` for direct `run` calls).
    struct NullHost;
    impl SpawnHost for NullHost {
        fn spawn_job(&self, _job: Job) {}
        fn num_threads(&self) -> usize {
            1
        }
        fn worker_index(&self) -> Option<usize> {
            None
        }
    }

    #[test]
    fn job_cell_is_one_cache_line() {
        assert_eq!(size_of::<Job>(), 64);
    }

    #[test]
    fn small_closure_runs_inline() {
        let hit = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hit);
        let job = Job::new(move |_s| {
            h.fetch_add(1, Ordering::Relaxed);
        });
        let host = NullHost;
        job.run(&Scope::for_host(&host));
        assert_eq!(hit.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn large_closure_falls_back_to_box() {
        let blob = [7u8; 256];
        let hit = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hit);
        let job = Job::new(move |_s| {
            h.fetch_add(usize::from(blob[200]), Ordering::Relaxed);
        });
        let host = NullHost;
        job.run(&Scope::for_host(&host));
        assert_eq!(hit.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn dropping_unexecuted_job_drops_closure() {
        struct Canary(Arc<AtomicUsize>);
        impl Drop for Canary {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        // Inline-sized capture.
        let c = Canary(Arc::clone(&drops));
        drop(Job::new(move |_s| {
            let _keep = &c;
        }));
        assert_eq!(drops.load(Ordering::Relaxed), 1);
        // Box-sized capture.
        let c = Canary(Arc::clone(&drops));
        let blob = [0u8; 128];
        drop(Job::new(move |_s| {
            let _keep = (&c, &blob);
        }));
        assert_eq!(drops.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn closure_at_inline_boundary_runs() {
        // Exactly INLINE_DATA_BYTES of capture.
        let words = [1usize, 2, 3, 4, 5];
        let job = Job::new(move |_s| {
            assert_eq!(words.iter().sum::<usize>(), 15);
        });
        let host = NullHost;
        job.run(&Scope::for_host(&host));
    }
}
