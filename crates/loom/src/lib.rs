//! Offline shim for the `loom` crate.
//!
//! Real loom exhaustively model-checks every interleaving of a bounded
//! concurrent program. It cannot be vendored here (the workspace builds
//! with no network and no crates.io mirror), so this shim keeps the same
//! *API* — `loom::model`, `loom::thread`, `loom::sync::atomic` — but
//! implements exploration as **seeded stress testing**: every atomic
//! operation may inject an OS-level `yield_now`, driven by a per-thread
//! RNG reseeded for each of the `model`'s iterations. Each iteration
//! therefore perturbs the schedule differently, and a failure reproduces
//! from `LOOM_SEED`.
//!
//! This is strictly weaker than loom's exhaustive search (it samples
//! interleavings instead of enumerating them, and a load always returns
//! the latest store — no weak-memory reorderings), but it runs the *same
//! test bodies* unchanged, so swapping in real loom later is a
//! Cargo.toml-only change. Iteration count: `LOOM_MAX_ITERS` (default 300).
//!
//! What the shim does check of the memory model is **causality**: every
//! thread carries a vector clock, and every atomic carries the clock its
//! latest release sequence published, so `Acquire`/`Release`/`AcqRel`/
//! `SeqCst` (and fences) build the happens-before relation the C++ model
//! defines — spawn and join included — while `Relaxed` builds none. A
//! [`cell::UnsafeCell`] access that is not ordered after the cell's last
//! write (or a write not ordered after its last reads) panics with a
//! causality violation, whatever the interleaving. So a model that writes
//! plain data before a release and reads it after the matching acquire
//! fails when either ordering is weakened, even though the hardware
//! never shows a stale value. (`SeqCst` fences are over-approximated as
//! synchronizing with every earlier `SeqCst` fence of the same model
//! iteration; that can hide a bug, never invent one.)

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering as StdOrdering};

static MODEL_SEED: AtomicU64 = AtomicU64::new(0);
static THREAD_SALT: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static YIELD_RNG: Cell<u64> = const { Cell::new(0) };
}

fn rng_next() -> u64 {
    YIELD_RNG.with(|c| {
        let mut x = c.get();
        if x == 0 {
            // First use on this thread within some iteration: derive from
            // the model seed and a per-thread salt.
            let salt = THREAD_SALT.fetch_add(1, StdOrdering::Relaxed);
            x = MODEL_SEED
                .load(StdOrdering::Relaxed)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ salt.wrapping_mul(0xBF58_476D_1CE4_E5B9)
                | 1;
        }
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        c.set(x);
        x
    })
}

/// Called from every shimmed atomic op: sometimes yields the OS slice so
/// different iterations see different interleavings.
fn maybe_yield() {
    let r = rng_next();
    if r.is_multiple_of(13) {
        std::thread::yield_now();
    } else if r.is_multiple_of(29) {
        std::hint::spin_loop();
    }
}

/// Run `f` under many differently-perturbed schedules.
pub fn model<F>(f: F)
where
    F: Fn() + Sync + Send + 'static,
{
    let iters: u64 = std::env::var("LOOM_MAX_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(300);
    let base: u64 = std::env::var("LOOM_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0x5EED_CAFE);
    for i in 0..iters {
        let seed = base.wrapping_add(i.wrapping_mul(0x2545_F491_4F6C_DD1D));
        MODEL_SEED.store(seed, StdOrdering::Relaxed);
        YIELD_RNG.with(|c| c.set(seed | 1));
        clock::restart();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(&f));
        if let Err(payload) = result {
            eprintln!(
                "[loom shim] model failed at iteration {i} (LOOM_SEED={base}, derived seed {seed})"
            );
            std::panic::resume_unwind(payload);
        }
    }
}

/// Vector clocks: the happens-before bookkeeping behind the causality
/// check (see the crate docs).
///
/// Thread ids are never reused. Each `model` iteration restarts its root
/// thread under a fresh id, which is also the iteration's *floor*: every
/// thread of the iteration has an id at or above it, and clocks drop the
/// entries below it, so they stay as small as one iteration's threads
/// however long the model runs. Whatever a thread below the floor did
/// finished before the iteration began and counts as ordered.
mod clock {
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    /// A vector clock: `(thread id, epoch)` pairs sorted by thread id.
    #[derive(Clone, Debug, Default)]
    pub struct Clock(pub(crate) Vec<(u64, u64)>);

    impl Clock {
        pub const fn new() -> Self {
            Clock(Vec::new())
        }

        /// Epoch of thread `id` (0 when unknown).
        pub fn get(&self, id: u64) -> u64 {
            self.0
                .binary_search_by_key(&id, |&(t, _)| t)
                .map_or(0, |i| self.0[i].1)
        }

        /// Raise thread `id`'s entry to at least `epoch`.
        pub fn set(&mut self, id: u64, epoch: u64) {
            match self.0.binary_search_by_key(&id, |&(t, _)| t) {
                Ok(i) => self.0[i].1 = self.0[i].1.max(epoch),
                Err(i) => self.0.insert(i, (id, epoch)),
            }
        }

        /// Pointwise maximum, forgetting threads below `floor`.
        pub fn join(&mut self, other: &Clock, floor: u64) {
            self.0.retain(|&(id, _)| id >= floor);
            for &(id, epoch) in other.0.iter().filter(|&&(id, _)| id >= floor) {
                self.set(id, epoch);
            }
        }
    }

    static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
    /// Per model iteration (keyed by its floor): the join of every
    /// `SeqCst` fence's clock so far.
    static SC_FENCES: Mutex<Vec<(u64, Clock)>> = Mutex::new(Vec::new());

    /// One thread's view of happens-before.
    pub struct Thread {
        pub id: u64,
        /// The floor of the model iteration this thread belongs to.
        pub floor: u64,
        /// What this thread has synchronized with (its own entry included).
        pub clock: Clock,
        /// Clocks read by `Relaxed` loads, acquired by the next acquire
        /// fence.
        pending_acquire: Clock,
        /// The clock at this thread's last release fence: what its
        /// `Relaxed` stores publish.
        fence_release: Clock,
    }

    impl Thread {
        fn new() -> Self {
            let id = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
            let mut clock = Clock::new();
            clock.set(id, 1);
            Thread {
                id,
                floor: id,
                clock,
                pending_acquire: Clock::new(),
                fence_release: Clock::new(),
            }
        }

        /// Start a new epoch after a release, so writes that follow it are
        /// not covered by what it published.
        fn tick(&mut self) {
            let next = self.clock.get(self.id) + 1;
            self.clock.set(self.id, next);
        }

        /// Whether thread `id`'s action at `epoch` happens before now.
        pub fn ordered_after(&self, (id, epoch): (u64, u64)) -> bool {
            id < self.floor || self.clock.get(id) >= epoch
        }
    }

    thread_local! {
        static THREAD: RefCell<Thread> = RefCell::new(Thread::new());
    }

    /// Run `f` on the current thread's state; skipped (returning `None`)
    /// during thread-local teardown.
    pub fn with<R>(f: impl FnOnce(&mut Thread) -> R) -> Option<R> {
        THREAD.try_with(|t| f(&mut t.borrow_mut())).ok()
    }

    /// Begin a model iteration on the current thread.
    pub fn restart() {
        with(|t| {
            let old = t.floor;
            *t = Thread::new();
            let mut sc = SC_FENCES.lock().unwrap_or_else(|e| e.into_inner());
            sc.retain(|&(floor, _)| floor != old);
        });
    }

    fn acquires(order: Ordering) -> bool {
        matches!(
            order,
            Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst
        )
    }

    fn releases(order: Ordering) -> bool {
        matches!(
            order,
            Ordering::Release | Ordering::AcqRel | Ordering::SeqCst
        )
    }

    /// A load of a location whose release sequence published `loc`.
    pub fn load(loc: &Clock, order: Ordering) {
        with(|t| {
            if acquires(order) {
                t.clock.join(loc, t.floor);
            } else {
                t.pending_acquire.join(loc, t.floor);
            }
        });
    }

    /// A plain store: it heads a new release sequence.
    pub fn store(loc: &mut Clock, order: Ordering) {
        with(|t| {
            if releases(order) {
                *loc = t.clock.clone();
                t.tick();
            } else {
                *loc = t.fence_release.clone();
            }
        });
    }

    /// A read-modify-write: it reads like a load and continues the
    /// location's release sequence.
    pub fn rmw(loc: &mut Clock, order: Ordering) {
        load(loc, order);
        with(|t| {
            if releases(order) {
                loc.join(&t.clock, t.floor);
                t.tick();
            } else {
                loc.join(&t.fence_release, t.floor);
            }
        });
    }

    /// A fence.
    pub fn fence(order: Ordering) {
        with(|t| {
            if acquires(order) {
                let pending = std::mem::take(&mut t.pending_acquire);
                t.clock.join(&pending, t.floor);
            }
            if order == Ordering::SeqCst {
                let mut fences = SC_FENCES.lock().unwrap_or_else(|e| e.into_inner());
                let i = match fences.iter().position(|&(floor, _)| floor == t.floor) {
                    Some(i) => i,
                    None => {
                        fences.push((t.floor, Clock::new()));
                        fences.len() - 1
                    }
                };
                let sc = &mut fences[i].1;
                t.clock.join(sc, t.floor);
                sc.join(&t.clock, t.floor);
            }
            if releases(order) {
                t.fence_release = t.clock.clone();
                t.tick();
            }
        });
    }

    /// Publish the current clock for a thread about to be spawned or
    /// joined (both are releases), with the iteration's floor.
    pub fn fork() -> (Clock, u64) {
        with(|t| {
            let c = t.clock.clone();
            t.tick();
            (c, t.floor)
        })
        .unwrap_or_default()
    }

    /// Acquire a clock published by [`fork`]; a spawned thread also joins
    /// its parent's iteration.
    pub fn acquire((c, floor): &(Clock, u64), adopt_floor: bool) {
        with(|t| {
            if adopt_floor {
                t.floor = *floor;
            }
            t.clock.join(c, t.floor);
        });
    }
}

/// Thread spawning that reseeds the child's yield RNG and carries
/// happens-before across spawn and join.
pub mod thread {
    use super::clock::{self, Clock};
    pub use std::thread::yield_now;

    /// Handle to a thread spawned by [`spawn`]; joining it acquires
    /// everything the thread did.
    pub struct JoinHandle<T>(std::thread::JoinHandle<(T, (Clock, u64))>);

    impl<T> JoinHandle<T> {
        /// Wait for the thread and synchronize with its end.
        pub fn join(self) -> std::thread::Result<T> {
            self.0.join().map(|(v, end)| {
                clock::acquire(&end, false);
                v
            })
        }
    }

    /// Spawn a thread whose schedule perturbation derives from the current
    /// model iteration.
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let parent = clock::fork();
        JoinHandle(std::thread::spawn(move || {
            super::YIELD_RNG.with(|c| c.set(0)); // lazily reseeded on first op
            clock::acquire(&parent, true);
            let v = f();
            (v, clock::fork())
        }))
    }
}

/// Plain (non-atomic) data whose accesses are checked for causality.
pub mod cell {
    use super::clock::{self, Clock};
    use std::sync::Mutex;

    struct State<T> {
        value: T,
        /// Thread id and epoch of the last write.
        write: (u64, u64),
        /// Epochs of the reads since that write, per reader.
        reads: Clock,
    }

    /// Loom's `UnsafeCell`: every access must be ordered after the last
    /// write (and a write after every read since), or it panics with a
    /// causality violation. The value itself sits behind a lock, so the
    /// model never races in fact — the check is on happens-before alone.
    pub struct UnsafeCell<T>(Mutex<State<T>>);

    impl<T> UnsafeCell<T> {
        /// A cell holding `value`, written by the current thread.
        pub fn new(value: T) -> Self {
            let write = clock::with(|t| (t.id, t.clock.get(t.id))).unwrap_or_default();
            UnsafeCell(Mutex::new(State {
                value,
                write,
                reads: Clock::new(),
            }))
        }

        /// Read access through a raw pointer.
        pub fn with<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
            let mut st = self.0.lock().unwrap_or_else(|e| e.into_inner());
            let write = st.write;
            let now = clock::with(|t| {
                assert!(
                    t.ordered_after(write),
                    "causality violation: read by thread {} is not ordered after \
                     the write by thread {} at epoch {}",
                    t.id,
                    write.0,
                    write.1
                );
                (t.id, t.clock.get(t.id))
            });
            if let Some((id, epoch)) = now {
                st.reads.set(id, epoch);
            }
            f(&st.value)
        }

        /// Write access through a raw pointer.
        pub fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
            let mut st = self.0.lock().unwrap_or_else(|e| e.into_inner());
            let (write, reads) = (st.write, std::mem::take(&mut st.reads));
            if let Some(now) = clock::with(|t| {
                assert!(
                    t.ordered_after(write),
                    "causality violation: write by thread {} is not ordered after \
                     the write by thread {} at epoch {}",
                    t.id,
                    write.0,
                    write.1
                );
                for &read in &reads.0 {
                    assert!(
                        t.ordered_after(read),
                        "causality violation: write by thread {} is not ordered \
                         after the read by thread {} at epoch {}",
                        t.id,
                        read.0,
                        read.1
                    );
                }
                (t.id, t.clock.get(t.id))
            }) {
                st.write = now;
            }
            f(&mut st.value)
        }
    }
}

/// Synchronization primitives with yield injection.
pub mod sync {
    pub use std::sync::{Arc, Condvar, Mutex};

    /// Atomics that may yield around every operation and track the
    /// happens-before edges their orderings create.
    pub mod atomic {
        use crate::clock::{self, Clock};
        pub use std::sync::atomic::Ordering;
        use std::sync::{Mutex, MutexGuard};

        /// A fence with schedule perturbation.
        pub fn fence(order: Ordering) {
            super::super::maybe_yield();
            std::sync::atomic::fence(order);
            clock::fence(order);
            super::super::maybe_yield();
        }

        /// The clock a location's latest release sequence published, boxed
        /// on first use so a shimmed atomic stays small (`ft-steal`'s arena
        /// fits two of them in a 64-byte chunk header). Held across the
        /// operation itself, so clocks follow the location's modification
        /// order.
        type Loc = Mutex<Option<Box<Clock>>>;

        fn lock(c: &Loc) -> MutexGuard<'_, Option<Box<Clock>>> {
            c.lock().unwrap_or_else(|e| e.into_inner())
        }

        fn load_clock(loc: &Option<Box<Clock>>, order: Ordering) {
            if let Some(c) = loc {
                clock::load(c, order);
            }
        }

        fn store_clock(loc: &mut Option<Box<Clock>>, order: Ordering) {
            clock::store(loc.get_or_insert_with(Box::default), order);
        }

        fn rmw_clock(loc: &mut Option<Box<Clock>>, order: Ordering) {
            clock::rmw(loc.get_or_insert_with(Box::default), order);
        }

        /// A successful compare-exchange is a read-modify-write; a failed
        /// one is a load with the failure ordering.
        fn cas<V>(
            c: &Loc,
            success: Ordering,
            failure: Ordering,
            op: impl FnOnce() -> Result<V, V>,
        ) -> Result<V, V> {
            super::super::maybe_yield();
            let mut loc = lock(c);
            let r = op();
            match r {
                Ok(_) => rmw_clock(&mut loc, success),
                Err(_) => load_clock(&loc, failure),
            }
            drop(loc);
            super::super::maybe_yield();
            r
        }

        macro_rules! shim_int_atomic {
            ($name:ident, $std:ty, $int:ty) => {
                /// Yield-injecting, clock-tracking wrapper over the std
                /// atomic.
                #[derive(Debug, Default)]
                pub struct $name($std, Loc);

                impl $name {
                    /// New atomic with the given value.
                    pub const fn new(v: $int) -> Self {
                        Self(<$std>::new(v), Mutex::new(None))
                    }

                    /// Load with perturbation.
                    pub fn load(&self, order: Ordering) -> $int {
                        super::super::maybe_yield();
                        let loc = lock(&self.1);
                        let v = self.0.load(order);
                        load_clock(&loc, order);
                        drop(loc);
                        super::super::maybe_yield();
                        v
                    }

                    /// Store with perturbation.
                    pub fn store(&self, v: $int, order: Ordering) {
                        super::super::maybe_yield();
                        let mut loc = lock(&self.1);
                        self.0.store(v, order);
                        store_clock(&mut loc, order);
                        drop(loc);
                        super::super::maybe_yield();
                    }

                    /// Read-modify-write with perturbation.
                    fn rmw(&self, order: Ordering, op: impl FnOnce(&$std) -> $int) -> $int {
                        super::super::maybe_yield();
                        let mut loc = lock(&self.1);
                        let r = op(&self.0);
                        rmw_clock(&mut loc, order);
                        drop(loc);
                        super::super::maybe_yield();
                        r
                    }

                    /// Swap with perturbation.
                    pub fn swap(&self, v: $int, order: Ordering) -> $int {
                        self.rmw(order, |a| a.swap(v, order))
                    }

                    /// Compare-exchange with perturbation.
                    pub fn compare_exchange(
                        &self,
                        current: $int,
                        new: $int,
                        success: Ordering,
                        failure: Ordering,
                    ) -> Result<$int, $int> {
                        cas(&self.1, success, failure, || {
                            self.0.compare_exchange(current, new, success, failure)
                        })
                    }

                    /// Weak compare-exchange with perturbation.
                    pub fn compare_exchange_weak(
                        &self,
                        current: $int,
                        new: $int,
                        success: Ordering,
                        failure: Ordering,
                    ) -> Result<$int, $int> {
                        self.compare_exchange(current, new, success, failure)
                    }

                    /// Fetch-add with perturbation.
                    pub fn fetch_add(&self, v: $int, order: Ordering) -> $int {
                        self.rmw(order, |a| a.fetch_add(v, order))
                    }

                    /// Fetch-sub with perturbation.
                    pub fn fetch_sub(&self, v: $int, order: Ordering) -> $int {
                        self.rmw(order, |a| a.fetch_sub(v, order))
                    }

                    /// Fetch-or with perturbation.
                    pub fn fetch_or(&self, v: $int, order: Ordering) -> $int {
                        self.rmw(order, |a| a.fetch_or(v, order))
                    }

                    /// Fetch-and with perturbation.
                    pub fn fetch_and(&self, v: $int, order: Ordering) -> $int {
                        self.rmw(order, |a| a.fetch_and(v, order))
                    }
                }
            };
        }

        shim_int_atomic!(AtomicIsize, std::sync::atomic::AtomicIsize, isize);
        shim_int_atomic!(AtomicU8, std::sync::atomic::AtomicU8, u8);
        shim_int_atomic!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);
        shim_int_atomic!(AtomicI64, std::sync::atomic::AtomicI64, i64);
        shim_int_atomic!(AtomicU64, std::sync::atomic::AtomicU64, u64);
        shim_int_atomic!(AtomicU32, std::sync::atomic::AtomicU32, u32);

        /// Yield-injecting, clock-tracking wrapper over
        /// `std::sync::atomic::AtomicBool`.
        #[derive(Debug, Default)]
        pub struct AtomicBool(std::sync::atomic::AtomicBool, Loc);

        impl AtomicBool {
            /// New atomic with the given value.
            pub const fn new(v: bool) -> Self {
                Self(std::sync::atomic::AtomicBool::new(v), Mutex::new(None))
            }

            /// Load with perturbation.
            pub fn load(&self, order: Ordering) -> bool {
                super::super::maybe_yield();
                let loc = lock(&self.1);
                let v = self.0.load(order);
                load_clock(&loc, order);
                drop(loc);
                super::super::maybe_yield();
                v
            }

            /// Store with perturbation.
            pub fn store(&self, v: bool, order: Ordering) {
                super::super::maybe_yield();
                let mut loc = lock(&self.1);
                self.0.store(v, order);
                store_clock(&mut loc, order);
                drop(loc);
                super::super::maybe_yield();
            }

            /// Swap with perturbation.
            pub fn swap(&self, v: bool, order: Ordering) -> bool {
                super::super::maybe_yield();
                let mut loc = lock(&self.1);
                let r = self.0.swap(v, order);
                rmw_clock(&mut loc, order);
                drop(loc);
                super::super::maybe_yield();
                r
            }
        }

        /// Yield-injecting, clock-tracking wrapper over
        /// `std::sync::atomic::AtomicPtr`.
        #[derive(Debug)]
        pub struct AtomicPtr<T>(std::sync::atomic::AtomicPtr<T>, Loc);

        impl<T> AtomicPtr<T> {
            /// New atomic holding `p`.
            pub const fn new(p: *mut T) -> Self {
                Self(std::sync::atomic::AtomicPtr::new(p), Mutex::new(None))
            }

            /// Load with perturbation.
            pub fn load(&self, order: Ordering) -> *mut T {
                super::super::maybe_yield();
                let loc = lock(&self.1);
                let v = self.0.load(order);
                load_clock(&loc, order);
                drop(loc);
                super::super::maybe_yield();
                v
            }

            /// Store with perturbation.
            pub fn store(&self, p: *mut T, order: Ordering) {
                super::super::maybe_yield();
                let mut loc = lock(&self.1);
                self.0.store(p, order);
                store_clock(&mut loc, order);
                drop(loc);
                super::super::maybe_yield();
            }

            /// Swap with perturbation.
            pub fn swap(&self, p: *mut T, order: Ordering) -> *mut T {
                super::super::maybe_yield();
                let mut loc = lock(&self.1);
                let r = self.0.swap(p, order);
                rmw_clock(&mut loc, order);
                drop(loc);
                super::super::maybe_yield();
                r
            }

            /// Compare-exchange with perturbation.
            pub fn compare_exchange(
                &self,
                current: *mut T,
                new: *mut T,
                success: Ordering,
                failure: Ordering,
            ) -> Result<*mut T, *mut T> {
                cas(&self.1, success, failure, || {
                    self.0.compare_exchange(current, new, success, failure)
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::sync::atomic::{AtomicIsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn model_runs_and_atomics_count() {
        std::env::set_var("LOOM_MAX_ITERS", "5");
        super::model(|| {
            let a = Arc::new(AtomicIsize::new(0));
            let a2 = Arc::clone(&a);
            let h = super::thread::spawn(move || {
                for _ in 0..100 {
                    a2.fetch_add(1, Ordering::SeqCst);
                }
            });
            for _ in 0..100 {
                a.fetch_add(1, Ordering::SeqCst);
            }
            h.join().unwrap();
            assert_eq!(a.load(Ordering::SeqCst), 200);
        });
    }

    /// Release/Acquire orders a plain write before the read that follows
    /// the acquire; Relaxed on either side does not.
    #[test]
    fn causality_follows_release_acquire() {
        use super::cell::UnsafeCell;
        let handoff = |store: Ordering, load: Ordering| {
            let data = Arc::new(UnsafeCell::new(0u32));
            let flag = Arc::new(AtomicIsize::new(0));
            let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
            let writer = super::thread::spawn(move || {
                d2.with_mut(|p| unsafe { *p = 7 });
                f2.store(1, store);
            });
            while flag.load(load) == 0 {
                std::thread::yield_now();
            }
            let seen = std::panic::catch_unwind(|| data.with(|p| unsafe { *p }));
            writer.join().unwrap();
            seen.is_ok()
        };
        assert!(handoff(Ordering::Release, Ordering::Acquire));
        assert!(!handoff(Ordering::Relaxed, Ordering::Acquire));
        assert!(!handoff(Ordering::Release, Ordering::Relaxed));
        // Joining a thread orders everything it did.
        let data = Arc::new(UnsafeCell::new(0u32));
        let d2 = Arc::clone(&data);
        super::thread::spawn(move || d2.with_mut(|p| unsafe { *p = 1 }))
            .join()
            .unwrap();
        assert_eq!(data.with(|p| unsafe { *p }), 1);
    }

    #[test]
    #[should_panic]
    fn model_propagates_failures() {
        std::env::set_var("LOOM_MAX_ITERS", "2");
        super::model(|| panic!("expected"));
    }
}
