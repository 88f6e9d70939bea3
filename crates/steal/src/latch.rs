//! Completion detection for fire-and-forget task DAGs.
//!
//! NABBIT's traversal never syncs on spawned children; the run is over when
//! the *sink task* completes (and, for quiescence-style uses, when all
//! outstanding jobs have drained). Two primitives cover both:
//!
//! * [`Flag`] — a one-shot boolean latch the sink task sets; the submitting
//!   thread blocks on it.
//! * [`CountLatch`] — counts outstanding jobs; trips at zero. Every
//!   completion group ([`Group`]) counts its job tree in one.
//! * [`Credits`] — one worker's private stash of a group's latch units, so
//!   the per-job path moves units between a job and its worker instead of
//!   writing the shared count.

use crate::instance::Group;
use ft_sync::atomic::{AtomicBool, AtomicIsize, Ordering};
use parking_lot::{Condvar, Mutex};
use std::cell::Cell;

/// One-shot boolean latch.
#[derive(Default)]
pub struct Flag {
    set: AtomicBool,
    lock: Mutex<()>,
    condvar: Condvar,
}

impl std::fmt::Debug for Flag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Flag").field("set", &self.is_set()).finish()
    }
}

impl Flag {
    /// New, unset flag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the flag and wake all waiters. Idempotent.
    pub fn set(&self) {
        // ord: Release — publishes everything the setter did before `set`
        // to the waiter's Acquire load in `is_set`; the mutex round-trip
        // below additionally orders the store before `notify_all` so a
        // concurrent `wait` cannot miss the wakeup.
        self.set.store(true, Ordering::Release);
        let _g = self.lock.lock();
        self.condvar.notify_all();
    }

    /// True once `set` has been called.
    pub fn is_set(&self) -> bool {
        // ord: Acquire — pairs with the Release store in `set`.
        self.set.load(Ordering::Acquire)
    }

    /// Block until the flag is set.
    pub fn wait(&self) {
        if self.is_set() {
            return;
        }
        let mut g = self.lock.lock();
        while !self.is_set() {
            self.condvar.wait(&mut g);
        }
    }
}

/// Counts outstanding work items; trips when the count returns to zero.
///
/// The count starts at zero, and a latch at zero is quiescent: a waiter
/// enrolls a unit of its own before it waits (`Pool::run_until_complete`'s
/// sentinel; `Group::open` enrolls an instance's root before anyone can
/// see it), so nobody sees zero before the work is counted.
pub struct CountLatch {
    count: AtomicIsize,
    lock: Mutex<()>,
    condvar: Condvar,
}

impl Default for CountLatch {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for CountLatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CountLatch")
            .field("outstanding", &self.outstanding())
            .finish()
    }
}

impl CountLatch {
    /// New latch with zero outstanding items.
    pub fn new() -> Self {
        CountLatch {
            count: AtomicIsize::new(0),
            lock: Mutex::new(()),
            condvar: Condvar::new(),
        }
    }

    /// Register `n` more outstanding units with one RMW. The pool's workers
    /// take units in batches and hand them to the jobs they spawn (see
    /// [`Credits`]), so the count is `live jobs + units parked in
    /// worker-local credits`, not one RMW per job.
    pub fn add(&self, n: isize) {
        debug_assert!(n >= 1, "CountLatch::add of {n}");
        // ord: AcqRel — additions and subtractions form a single release
        // sequence so the final subtraction observes all prior updates.
        self.count.fetch_add(n, Ordering::AcqRel);
    }

    /// Return `n` units; wakes waiters when the count hits zero.
    ///
    /// Returns `true` for the subtraction that tripped the latch (the
    /// `n → 0` transition), which happens at most once per quiescence —
    /// callers use it to run once-only completion actions (e.g. an
    /// instance's quiesce hook) without a separate race-prone count probe.
    pub fn sub(&self, n: isize) -> bool {
        debug_assert!(n >= 1, "CountLatch::sub of {n}");
        // ord: AcqRel — the subtraction releases the completing jobs'
        // writes and the final one acquires every earlier one, so the
        // waiter woken at zero sees all completed work.
        let prev = self.count.fetch_sub(n, Ordering::AcqRel);
        debug_assert!(prev >= n, "CountLatch underflow");
        if prev == n {
            let _g = self.lock.lock();
            self.condvar.notify_all();
            return true;
        }
        false
    }

    /// Register one more outstanding item.
    pub fn increment(&self) {
        self.add(1);
    }

    /// Mark one item complete; `true` for the decrement that tripped the
    /// latch (see [`CountLatch::sub`]).
    pub fn decrement(&self) -> bool {
        self.sub(1)
    }

    /// Current outstanding count.
    pub fn outstanding(&self) -> isize {
        // ord: Acquire — pairs with the AcqRel subtractions so a zero read
        // implies the completed jobs' writes are visible.
        self.count.load(Ordering::Acquire)
    }

    /// True if no item is outstanding.
    pub fn is_quiescent(&self) -> bool {
        self.outstanding() == 0
    }

    /// Block until quiescent.
    pub fn wait(&self) {
        if self.is_quiescent() {
            return;
        }
        let mut g = self.lock.lock();
        while !self.is_quiescent() {
            self.condvar.wait(&mut g);
        }
    }
}

/// Units a worker takes from a latch in one RMW when it spawns with no
/// credit in hand. Large enough that a worker fanning out a task's
/// predecessors touches the latch once per several tasks; the surplus is
/// flushed as soon as the worker's deques run empty, so it never delays
/// quiescence.
const CREDIT_BATCH: isize = 64;

/// One worker's stash of latch units that belong to no live job.
///
/// Every live job holds exactly one unit of its group's latch (invariant 1
/// of `instance.rs`). A worker-side spawn hands the new job a unit out of
/// the stash ([`Credits::take`], refilling with one `add` of a fixed batch
/// when empty); a finished job's unit goes back into the stash
/// ([`Credits::put`]) instead of to the latch; and the worker returns the
/// whole stash with one `sub` whenever its own queues run empty
/// ([`Credits::flush`]). **A stash belongs to one group**: `take` and `put`
/// flush it before they touch a different group. Per group the invariant is
/// `latch count == live jobs + Σ stashed units`, so a latch can only read
/// zero with none of its jobs live and none of its units stashed, and the
/// subtraction that gets it there is unique.
///
/// `!Sync` by construction (`Cell`s): a stash belongs to one thread.
#[derive(Debug)]
pub struct Credits {
    held: Cell<isize>,
    /// The group the held units belong to; dereferenced only while
    /// `held > 0` (invariant 2).
    group: Cell<*const Group>,
}

impl Default for Credits {
    fn default() -> Self {
        Self::new()
    }
}

impl Credits {
    /// An empty stash.
    pub const fn new() -> Self {
        Credits {
            held: Cell::new(0),
            group: Cell::new(std::ptr::null()),
        }
    }

    /// Units currently held.
    pub fn held(&self) -> isize {
        self.held.get()
    }

    /// Make `group` the stash's group, flushing the units of any other
    /// group first.
    fn select(&self, group: *const Group) {
        if self.group.get() != group {
            self.flush();
            self.group.set(group);
        }
    }

    /// Take the unit a job of `group` about to be published will hold.
    /// Must precede the publish: once another thread can see the job it can
    /// finish it — and flush its unit — at any moment.
    ///
    /// # Safety
    /// `group` must stay alive while units of it are outstanding (a
    /// per-instance group does by construction; a resident group's owner
    /// must outlive its jobs and their workers' stashes).
    pub unsafe fn take(&self, group: &Group) {
        self.select(group);
        let have = self.held.get();
        if have > 0 {
            self.held.set(have - 1);
        } else {
            group.latch.add(CREDIT_BATCH);
            self.held.set(CREDIT_BATCH - 1);
        }
    }

    /// Keep the unit of a job of `group` this thread just finished
    /// (invariant 3: the group is re-selected here, whatever the body did
    /// to the stash).
    ///
    /// # Safety
    /// The caller must own one unit of `group`'s latch — that of a job
    /// whose body has returned — and hands it to the stash.
    pub unsafe fn put(&self, group: *const Group) {
        self.select(group);
        self.held.set(self.held.get() + 1);
    }

    /// Return every held unit to its group's latch. Call whenever the
    /// owning worker's own queues are empty, so a worker that steals,
    /// parks, blocks or exits holds none.
    pub fn flush(&self) {
        let held = self.held.replace(0);
        if held > 0 {
            // SAFETY: the stash owned `held` units of its group's latch
            // (handed over through `take`/`put`), so the group is alive
            // (invariant 2), and they are given up here.
            unsafe { Group::release(self.group.get(), held) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn flag_set_then_wait_returns() {
        let f = Flag::new();
        assert!(!f.is_set());
        f.set();
        assert!(f.is_set());
        f.wait(); // must not block
    }

    #[test]
    fn flag_wakes_waiter() {
        let f = Arc::new(Flag::new());
        let f2 = Arc::clone(&f);
        let h = thread::spawn(move || f2.wait());
        thread::sleep(std::time::Duration::from_millis(5));
        f.set();
        h.join().unwrap();
    }

    #[test]
    fn flag_set_is_idempotent() {
        let f = Flag::new();
        f.set();
        f.set();
        assert!(f.is_set());
    }

    #[test]
    fn count_latch_trips_at_zero() {
        let l = CountLatch::new();
        l.increment();
        l.increment();
        assert_eq!(l.outstanding(), 2);
        assert!(!l.decrement(), "non-final decrement does not trip");
        assert!(!l.is_quiescent());
        assert!(l.decrement(), "final decrement reports the trip");
        assert!(l.is_quiescent());
        l.wait(); // must not block
    }

    #[test]
    fn credits_keep_latch_raised_until_flushed() {
        let g = Group::resident();
        let c = Credits::new();
        // An external job, about to run on this worker, spawns a child: one
        // batch taken.
        g.enroll();
        // SAFETY: `g` outlives the stash's units (flushed below).
        unsafe { c.take(&g) };
        assert_eq!(g.outstanding(), 1 + CREDIT_BATCH);
        assert_eq!(c.held(), CREDIT_BATCH - 1);
        // SAFETY: the two jobs' units, handed to the stash.
        unsafe {
            c.put(&g); // the external job finished
            c.put(&g); // the child finished
        }
        assert_eq!(c.held(), CREDIT_BATCH + 1);
        assert_eq!(g.outstanding(), CREDIT_BATCH + 1, "credits unflushed");
        c.flush();
        assert_eq!(c.held(), 0);
        c.flush(); // an empty stash touches nothing
        assert_eq!(g.outstanding(), 0);
    }

    #[test]
    fn stash_flushes_before_it_serves_another_group() {
        let (a, b) = (Group::resident(), Group::resident());
        let c = Credits::new();
        // A live job of `a` on this worker spawns a child, then one into
        // `b` (a nested run).
        a.enroll();
        // SAFETY: both groups outlive the stash's units (flushed below).
        unsafe {
            c.take(&a);
            c.take(&b);
        }
        assert_eq!(a.outstanding(), 2, "a's surplus went back to a");
        assert_eq!(b.outstanding(), CREDIT_BATCH);
        // SAFETY: the unit of the job of `a` whose body just returned.
        unsafe { c.put(&a) };
        assert_eq!(b.outstanding(), 1, "b's surplus went back to b");
        assert_eq!(c.held(), 1);
        c.flush();
        assert_eq!(a.outstanding(), 1);
    }

    #[test]
    fn count_latch_concurrent() {
        let l = Arc::new(CountLatch::new());
        for _ in 0..64 {
            l.increment();
        }
        let mut handles = Vec::new();
        for _ in 0..8 {
            let l = Arc::clone(&l);
            handles.push(thread::spawn(move || {
                for _ in 0..8 {
                    l.decrement();
                }
            }));
        }
        l.wait();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(l.outstanding(), 0);
    }
}
