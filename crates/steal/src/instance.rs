//! Completion groups: the one way a job is accounted for.
//!
//! NABBIT's routines only ever spawn and never join, so *completion is
//! quiescence of a fire-and-forget job tree*. A [`Group`] is what that tree
//! is counted in: a [`CountLatch`], the first-panic slot, a once-only
//! quiesce hook and a `done` flag. Every [`Job`] carries a pointer to its
//! group; a [`Scope`] stamps its group on what it spawns, and
//! [`Group::run_job`] — the one place an executor runs a job body, for
//! `Pool` and `DetPool` alike — files a panic in *that job's* group, whose
//! unit the executor then returns to it. [`InstanceHandle::wait`]
//! re-raises an instance's first panic.
//!
//! Every executor runs **per-instance** groups ([`Group::open`]): one on
//! the heap per submitted root, whose latch owns one strong reference that
//! the thread tripping the latch gives back as its last access, so a job
//! may hold a plain pointer and a dropped [`InstanceHandle`] cannot free a
//! group whose jobs still run. The one other kind is the **resident**
//! group (`Group::resident`): a field of [`Pool`](crate::pool::Pool),
//! reused by every `Pool::run_until_complete`, whose caller waits on its
//! latch.
//!
//! # Invariants
//!
//! 1. A job holds one unit of its group's latch from before it is visible
//!    to another thread until after its body returned.
//! 2. A [`Credits`](crate::latch::Credits) stash dereferences its group
//!    pointer only while it holds units: held units keep the latch above
//!    zero, hence the group alive.
//! 3. After a job body returns, its unit goes to *that job's* group: the
//!    worker re-selects the group before `Credits::put`, because the body
//!    may have moved the stash to another group.
//! 4. A non-tripping subtraction's last access to the group is the RMW
//!    itself; the tripping thread's is the release of the latch-owned
//!    reference, performed with no `&Group` borrow live.
//! 5. The hook runs strictly before `done` is set, and a panic payload is
//!    stored before the panicking job's unit can reach the latch.

use crate::job::Job;
use crate::latch::{CountLatch, Flag};
use crate::pool::{Scope, SpawnHost};
use ft_sync::atomic::{AtomicU64, Ordering};
use parking_lot::Mutex;
use std::any::Any;
use std::sync::Arc;

/// One-shot callback fired by the latch-tripping subtraction of an instance.
pub type QuiesceHook = Box<dyn FnOnce() + Send>;

/// The completion state of one fire-and-forget job tree; see the module
/// docs.
pub struct Group {
    /// Live jobs of this group plus units parked in worker `Credits`.
    pub(crate) latch: CountLatch,
    /// Set by the latch-tripping thread *after* it ran the quiesce hook.
    /// Handle holders block on this flag, not on the latch, so a woken
    /// waiter is guaranteed the hook (slot release, counters) already ran.
    done: Flag,
    /// First panic payload raised by a job of this group.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Fired exactly once, by the subtraction that trips the latch.
    on_quiesce: Mutex<Option<QuiesceHook>>,
    /// Per-instance groups only: the latch owns one strong reference of the
    /// `Arc` this group lives in, given back by [`Group::release`]'s trip.
    latch_owned: bool,
}

impl std::fmt::Debug for Group {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Group")
            .field("latch", &self.latch)
            .field("done", &self.done)
            .finish_non_exhaustive()
    }
}

impl Group {
    fn new(on_quiesce: Option<QuiesceHook>, latch_owned: bool) -> Self {
        Group {
            latch: CountLatch::new(),
            done: Flag::new(),
            panic: Mutex::new(None),
            on_quiesce: Mutex::new(on_quiesce),
            latch_owned,
        }
    }

    /// The group of `Pool::run_until_complete`, reused across runs; the
    /// pool waits on the latch and outlives every job counted in it.
    pub(crate) fn resident() -> Self {
        Group::new(None, false)
    }

    /// Open a per-instance group around `root`: returns the root stamped
    /// with the new group, ready to be published as is, and the handle
    /// tracking the group's completion. The root's unit is already enrolled
    /// (and the latch's own reference taken), so the handle cannot observe
    /// a spurious quiescence before the enqueue. Jobs still queued when
    /// their executor is torn down are dropped unrun: the latch never
    /// trips, and hook and group leak rather than run early.
    pub fn open(root: Job, on_quiesce: Option<QuiesceHook>) -> (Job, InstanceHandle) {
        let inst = Arc::new(Group::new(on_quiesce, true));
        inst.enroll();
        let group = Arc::into_raw(Arc::clone(&inst));
        (root.stamped(group), InstanceHandle { inst })
    }

    /// Take the unit of one job about to be published (invariant 1).
    pub fn enroll(&self) {
        self.latch.increment();
    }

    /// Units outstanding: live jobs plus stashed credits (diagnostics and
    /// models; racy by nature).
    pub fn outstanding(&self) -> isize {
        self.latch.outstanding()
    }

    /// Run `job` inside its group: under a scope that stamps the group on
    /// everything the body spawns, with a panic of the body caught and
    /// filed in the group (the first payload is kept). The one place an
    /// executor runs a job body. Returns the group: the job's unit is still
    /// held, and the caller gives it back (`Group::release`, or a worker's
    /// credit stash) — after the panic is filed (invariant 5).
    ///
    /// # Safety
    /// `job` must hold a unit of its group (invariant 1), which keeps the
    /// group alive up to the caller's release.
    #[inline]
    pub unsafe fn run_job(host: &dyn SpawnHost, job: Job) -> *const Group {
        let group = job.group();
        // SAFETY: the job's unit keeps `group` alive while the scope, and
        // every enrollment made through it, can touch it.
        let scope = unsafe { Scope::for_group(host, group) };
        let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job.run(&scope)));
        if let Err(payload) = ran {
            // SAFETY: as above — the job's unit is still held.
            let mut slot = unsafe { &*group }.panic.lock();
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        group
    }

    /// Take the first recorded panic payload, if any.
    pub(crate) fn take_panic(&self) -> Option<Box<dyn Any + Send>> {
        self.panic.lock().take()
    }

    /// Return `n` units of `this`'s latch. The subtraction that trips a
    /// per-instance group completes it: hook, then `done`, then the latch's
    /// own reference, which may free the group. (A resident group's trip
    /// needs no more than the latch's own wake-up.)
    ///
    /// # Safety
    /// The caller must own `n` units of `this`'s latch (a finished job's
    /// unit, or a stash), which is what keeps `this` alive up to the
    /// subtraction; it must not use `this` afterwards on their strength.
    pub unsafe fn release(this: *const Group, n: isize) {
        {
            // SAFETY: the caller's units keep the group alive until the
            // subtraction, a non-tripping caller's last access; past it the
            // latch's reference keeps a heap group alive for the tripper.
            let group = unsafe { &*this };
            if !group.latch.sub(n) || !group.latch_owned {
                return;
            }
            let hook = group.on_quiesce.lock().take();
            if let Some(hook) = hook {
                hook();
            }
            group.done.set();
        }
        // SAFETY: `this` came from `Arc::into_raw` in `open`, and that
        // reference is still outstanding: a per-instance latch trips once
        // (nothing is added after the trip — only live jobs enroll jobs).
        // No borrow of the group is live any more (invariant 4).
        unsafe { Arc::decrement_strong_count(this) };
    }
}

/// Awaitable/pollable handle to one submitted instance (a per-instance
/// [`Group`]).
///
/// Cloneable; all clones observe the same instance. `wait` blocks the
/// calling thread, so on a single-threaded executor with no autonomous
/// workers the pending jobs must be driven first (see
/// [`Executor::drive`](crate::pool::Executor::drive)). A panic inside the
/// instance surfaces from `wait`, and from no other instance's.
#[derive(Clone)]
pub struct InstanceHandle {
    inst: Arc<Group>,
}

impl std::fmt::Debug for InstanceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InstanceHandle")
            .field("done", &self.is_done())
            .finish()
    }
}

impl InstanceHandle {
    /// True once every job of the instance has finished *and* the quiesce
    /// hook has run (pollable).
    pub fn is_done(&self) -> bool {
        self.inst.done.is_set()
    }

    /// Block until the instance quiesces and its hook has run (awaitable),
    /// then re-raise the first panic a job of the instance raised, if any.
    /// The payload is re-raised once: by the first `wait` to return, on
    /// whichever clone.
    pub fn wait(&self) {
        self.inst.done.wait();
        if let Some(payload) = self.inst.take_panic() {
            std::panic::resume_unwind(payload);
        }
    }
}

/// Bounded admission counter for in-flight instances.
///
/// `try_acquire` atomically claims one of `limit` slots or reports the
/// current occupancy; `release` returns a slot (the service layer calls it
/// from the instance's quiesce hook). All operations are SeqCst: admission
/// is cold relative to job execution, and a single total order keeps the
/// acquire/release handshake trivially correct (modeled in
/// `tests/loom_instance.rs`).
pub struct AdmissionGate {
    in_flight: AtomicU64,
    limit: u64,
}

impl std::fmt::Debug for AdmissionGate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionGate")
            .field("in_flight", &self.in_flight())
            .field("limit", &self.limit)
            .finish()
    }
}

impl AdmissionGate {
    /// Gate admitting at most `limit` concurrent holders (min 1).
    pub fn new(limit: usize) -> Self {
        AdmissionGate {
            in_flight: AtomicU64::new(0),
            limit: (limit.max(1)) as u64,
        }
    }

    /// The configured in-flight limit.
    pub fn limit(&self) -> u64 {
        self.limit
    }

    /// Current number of held slots.
    pub fn in_flight(&self) -> u64 {
        self.in_flight.load(Ordering::SeqCst)
    }

    /// Claim one slot: `Ok(held)` with the new occupancy, or `Err(held)`
    /// with the current occupancy if the gate is full.
    pub fn try_acquire(&self) -> Result<u64, u64> {
        let mut cur = self.in_flight.load(Ordering::SeqCst);
        loop {
            if cur >= self.limit {
                return Err(cur);
            }
            match self.in_flight.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return Ok(cur + 1),
                Err(seen) => cur = seen,
            }
        }
    }

    /// Return one slot.
    pub fn release(&self) {
        let prev = self.in_flight.fetch_sub(1, Ordering::SeqCst);
        debug_assert!(prev >= 1, "AdmissionGate release without acquire");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{Executor, Pool, PoolConfig};
    use ft_sync::atomic::AtomicUsize;

    #[test]
    fn instance_quiesces_and_fires_hook_once() {
        let pool = Pool::new(PoolConfig::with_threads(2));
        let fired = Arc::new(AtomicUsize::new(0));
        let counted = Arc::new(AtomicUsize::new(0));
        let f = Arc::clone(&fired);
        let c = Arc::clone(&counted);
        let handle = pool.submit_instance(
            Job::new(move |s| {
                for _ in 0..64 {
                    let c = Arc::clone(&c);
                    s.spawn(move |_| {
                        c.fetch_add(1, Ordering::Relaxed);
                    });
                }
            }),
            Some(Box::new(move || {
                f.fetch_add(1, Ordering::SeqCst);
            })),
        );
        handle.wait();
        assert!(handle.is_done());
        assert_eq!(counted.load(Ordering::Relaxed), 64);
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        // The latch gives its reference back (after `done`, as the tripping
        // thread's last access): the handle's becomes the only one.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        while Arc::strong_count(&handle.inst) > 1 {
            assert!(std::time::Instant::now() < deadline, "reference leaked");
            std::thread::yield_now();
        }
    }

    #[test]
    fn instance_panic_is_isolated() {
        let pool = Pool::new(PoolConfig::with_threads(2));
        let handle = pool.submit_instance(
            Job::new(|s| {
                s.spawn(|_| panic!("instance boom"));
                s.spawn(|_| {});
            }),
            None,
        );
        // A run that may share the workers with the instance, and one after
        // it quiesced: neither sees its panic.
        pool.run_until_complete(|scope| scope.spawn(|_| {}));
        let waited = std::panic::catch_unwind(|| handle.wait());
        pool.run_until_complete(|scope| scope.spawn(|_| {}));
        let payload = waited.expect_err("the instance's own panic");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"instance boom"));
        handle.wait(); // re-raised once
    }

    #[test]
    fn admission_gate_bounds_holders() {
        let gate = AdmissionGate::new(2);
        assert_eq!(gate.try_acquire(), Ok(1));
        assert_eq!(gate.try_acquire(), Ok(2));
        assert_eq!(gate.try_acquire(), Err(2));
        gate.release();
        assert_eq!(gate.try_acquire(), Ok(2));
        gate.release();
        gate.release();
        assert_eq!(gate.in_flight(), 0);
    }

    #[test]
    fn admission_gate_concurrent_acquires_never_exceed_limit() {
        let gate = Arc::new(AdmissionGate::new(4));
        let won = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..16 {
            let gate = Arc::clone(&gate);
            let won = Arc::clone(&won);
            handles.push(std::thread::spawn(move || {
                if gate.try_acquire().is_ok() {
                    won.fetch_add(1, Ordering::SeqCst);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(won.load(Ordering::SeqCst) <= 4);
        assert_eq!(gate.in_flight(), won.load(Ordering::SeqCst) as u64);
    }
}
