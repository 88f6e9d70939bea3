//! Sleep/wake support for idle workers.
//!
//! A worker that repeatedly fails to find work must eventually block rather
//! than burn a core: the experiments in the paper pin one worker per core,
//! and a spinning sibling distorts measurements. The [`Parker`] here is a
//! classic eventcount-lite: workers announce themselves as sleepy by
//! incrementing an epoch-tagged sleeper count; producers that make new work
//! visible bump the epoch and wake sleepers through a `Condvar`.
//!
//! The protocol avoids lost wakeups with a two-sided Dekker pair over
//! `SeqCst` fences. A **sleeper** registers (`prepare_sleep`: `SeqCst` RMW
//! on `state`, then a fence) and only then sweeps every work source; a
//! **producer** makes its job visible (queue push), fences, and only then
//! loads `state` ([`Parker::notify_one`]). Whichever fence is later in the
//! single total order sees the other side's write: either the producer's
//! load observes the registered sleeper — it bumps the epoch and signals,
//! so a sleeper that has not blocked yet finds a stale epoch and one that
//! has is woken — or the sleeper's sweep observes the pushed job and
//! cancels. A producer that finds no sleeper therefore writes nothing
//! here: the per-spawn cost is one fence and one load of a line nobody is
//! modifying.

use ft_sync::atomic::{fence, AtomicU64, Ordering};
use parking_lot::{Condvar, Mutex};

/// Shared sleep/wake state for a pool of workers.
pub struct Parker {
    /// High 32 bits: epoch; low 32 bits: number of registered sleepers.
    state: AtomicU64,
    lock: Mutex<()>,
    condvar: Condvar,
}

const SLEEPERS_MASK: u64 = 0xFFFF_FFFF;
const EPOCH_UNIT: u64 = 1 << 32;

/// A ticket obtained before blocking; captures the epoch observed when the
/// worker decided it was out of work.
#[derive(Clone, Copy, Debug)]
pub struct SleepToken {
    epoch: u64,
}

impl Default for Parker {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Parker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Parker")
            .field("sleepers", &self.sleepers())
            .finish()
    }
}

impl Parker {
    /// Create a parker with no sleepers.
    pub fn new() -> Self {
        Parker {
            state: AtomicU64::new(0),
            lock: Mutex::new(()),
            condvar: Condvar::new(),
        }
    }

    /// Phase 1 of going to sleep: record intent and capture the epoch.
    ///
    /// After calling this, the worker must re-check all work sources. If it
    /// finds work it must call [`Parker::cancel_sleep`]; otherwise it calls
    /// [`Parker::sleep`] with the returned token.
    pub fn prepare_sleep(&self) -> SleepToken {
        let prev = self.state.fetch_add(1, Ordering::SeqCst);
        // ord: SeqCst fence — sleeper half of the Dekker pair: the
        // registration above is ordered before every load of the caller's
        // re-check sweep, so a producer whose `notify_one` load missed this
        // sleeper has its push observed by the sweep.
        // sc: parker/sleeper
        fence(Ordering::SeqCst);
        SleepToken { epoch: prev >> 32 }
    }

    /// Abort a prepared sleep (work was found on the re-check).
    pub fn cancel_sleep(&self) {
        self.state.fetch_sub(1, Ordering::SeqCst);
    }

    /// Phase 2: block until the epoch advances past the token's epoch.
    ///
    /// Returns immediately if a notification already happened.
    pub fn sleep(&self, token: SleepToken) {
        let mut guard = self.lock.lock();
        loop {
            let cur = self.state.load(Ordering::SeqCst) >> 32;
            if cur != token.epoch {
                break;
            }
            self.condvar.wait(&mut guard);
        }
        drop(guard);
        self.state.fetch_sub(1, Ordering::SeqCst);
    }

    /// Wake all sleeping workers (pool shutdown).
    ///
    /// Always bumps the epoch, so a `prepare_sleep`/`sleep` pair racing
    /// with it observes a stale epoch and does not block.
    pub fn notify(&self) {
        let prev = self.state.fetch_add(EPOCH_UNIT, Ordering::SeqCst);
        if prev & SLEEPERS_MASK != 0 {
            let _guard = self.lock.lock();
            self.condvar.notify_all();
        }
    }

    /// Wake at most one sleeping worker; call *after* making a unit of work
    /// visible in a queue the sleepers' re-check sweeps.
    ///
    /// With no sleeper registered this writes nothing. With one, the epoch
    /// bumps — so a sleeper between `prepare_sleep` and `sleep` does not
    /// block — and one blocked worker is signalled, avoiding the thundering
    /// herd of [`Parker::notify`] when one job arrives. The woken worker is
    /// responsible for escalating (waking another sleeper) while more work
    /// remains visible.
    pub fn notify_one(&self) {
        // ord: SeqCst fence — producer half of the Dekker pair: the
        // caller's queue push is ordered before the load below, so a
        // sleeper this load misses has its re-check sweep observe the push.
        // sc: parker/producer
        fence(Ordering::SeqCst);
        if self.state.load(Ordering::SeqCst) & SLEEPERS_MASK == 0 {
            return;
        }
        self.state.fetch_add(EPOCH_UNIT, Ordering::SeqCst);
        let _guard = self.lock.lock();
        self.condvar.notify_one();
    }

    /// Number of workers currently registered as (about to be) sleeping.
    pub fn sleepers(&self) -> usize {
        (self.state.load(Ordering::SeqCst) & SLEEPERS_MASK) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn notify_before_sleep_returns_immediately() {
        let p = Parker::new();
        let token = p.prepare_sleep();
        p.notify();
        // Must not block.
        p.sleep(token);
        assert_eq!(p.sleepers(), 0);
    }

    #[test]
    fn notify_one_without_sleepers_leaves_state_untouched() {
        let p = Parker::new();
        p.notify_one();
        assert_eq!(p.state.load(Ordering::SeqCst), 0, "no epoch bump");
        // With a sleeper registered the epoch moves and the sleep returns.
        let token = p.prepare_sleep();
        p.notify_one();
        p.sleep(token);
        assert_eq!(p.sleepers(), 0);
    }

    #[test]
    fn cancel_sleep_decrements() {
        let p = Parker::new();
        let _ = p.prepare_sleep();
        assert_eq!(p.sleepers(), 1);
        p.cancel_sleep();
        assert_eq!(p.sleepers(), 0);
    }

    #[test]
    fn sleeper_wakes_on_notify() {
        let p = Arc::new(Parker::new());
        let woke = Arc::new(AtomicBool::new(false));
        let h = {
            let p = Arc::clone(&p);
            let woke = Arc::clone(&woke);
            thread::spawn(move || {
                let token = p.prepare_sleep();
                p.sleep(token);
                woke.store(true, Ordering::SeqCst);
            })
        };
        // Wait for the sleeper to register.
        while p.sleepers() == 0 {
            thread::yield_now();
        }
        assert!(!woke.load(Ordering::SeqCst));
        p.notify();
        h.join().unwrap();
        assert!(woke.load(Ordering::SeqCst));
    }

    #[test]
    fn many_sleepers_all_wake() {
        let p = Arc::new(Parker::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let p = Arc::clone(&p);
            handles.push(thread::spawn(move || {
                let token = p.prepare_sleep();
                p.sleep(token);
            }));
        }
        while p.sleepers() < 8 {
            thread::yield_now();
        }
        // Give them a moment to actually block on the condvar.
        thread::sleep(Duration::from_millis(10));
        p.notify();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(p.sleepers(), 0);
    }
}
