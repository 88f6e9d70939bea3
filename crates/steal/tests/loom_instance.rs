//! Loom models for completion groups and the admission handshake built on
//! them:
//!
//! * the [`AdmissionGate`] never admits past its limit under racing
//!   `try_acquire` calls, and a released slot is re-acquirable;
//! * the latch-tripping decrement is reported to exactly one caller (the
//!   foundation of the once-only quiesce hook);
//! * a waiter that observes an instance as done is guaranteed the quiesce
//!   hook (slot release) has already run — the ordering the service's
//!   backpressure accounting relies on;
//! * worker-local [`Credits`] stashes serving two groups at once never
//!   return a unit to the wrong group: neither group trips with a job live
//!   or a unit stashed, and each trips exactly once.
//!
//! Build and run with:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p ft-steal --test loom_instance
//! ```
#![cfg(loom)]

use ft_steal::instance::{AdmissionGate, Group};
use ft_steal::latch::{CountLatch, Credits};
use ft_steal::pool::{Job, SpawnHost};
use loom::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Two threads race for the last slot: exactly one wins.
#[test]
fn gate_single_slot_race_admits_exactly_one() {
    loom::model(|| {
        let gate = Arc::new(AdmissionGate::new(1));
        let g1 = Arc::clone(&gate);
        let t = loom::thread::spawn(move || g1.try_acquire().is_ok());
        let mine = gate.try_acquire().is_ok();
        let theirs = t.join().unwrap();
        assert!(
            mine ^ theirs,
            "one slot, two acquirers: exactly one must win (mine={mine}, theirs={theirs})"
        );
        assert_eq!(gate.in_flight(), 1);
        gate.release();
        assert_eq!(gate.in_flight(), 0);
    });
}

/// Release racing a fresh acquire: whether the acquirer wins or loses,
/// the occupancy stays consistent with the outcome.
#[test]
fn gate_release_reopens_slot_consistently() {
    loom::model(|| {
        let gate = Arc::new(AdmissionGate::new(1));
        gate.try_acquire().expect("empty gate admits");
        let g1 = Arc::clone(&gate);
        let releaser = loom::thread::spawn(move || g1.release());
        let won = gate.try_acquire().is_ok();
        releaser.join().unwrap();
        assert_eq!(
            gate.in_flight(),
            won as u64,
            "occupancy must match the acquire outcome"
        );
    });
}

/// The 1 → 0 latch transition is reported to exactly one decrementer —
/// what makes the instance quiesce hook fire once and only once.
#[test]
fn latch_trip_reported_exactly_once() {
    loom::model(|| {
        let l = Arc::new(CountLatch::new());
        l.increment();
        l.increment();
        let l2 = Arc::clone(&l);
        let t = loom::thread::spawn(move || l2.decrement() as usize);
        let mine = l.decrement() as usize;
        let theirs = t.join().unwrap();
        assert_eq!(mine + theirs, 1, "exactly one decrement reports the trip");
        assert!(l.is_quiescent());
    });
}

/// Host for a root job that spawns nothing (the model runs the root
/// directly on a model thread).
struct NullHost;

impl SpawnHost for NullHost {
    fn spawn_job(&self, _job: Job) {
        unreachable!("model root spawns nothing");
    }
    fn num_threads(&self) -> usize {
        1
    }
    fn worker_index(&self) -> Option<usize> {
        Some(0)
    }
}

/// The full handshake on the real group machinery: a worker thread runs
/// the instance's last job the way an executor does — `Group::run_job`,
/// then the job's unit released; the trip runs the
/// hook (which releases the admission slot), then sets `done` — while the
/// submitter polls. Any interleaving where the submitter observes `is_done`
/// must already see the slot released — the service's invariant that
/// completion implies a free slot.
#[test]
fn done_observation_implies_slot_released() {
    loom::model(|| {
        let gate = Arc::new(AdmissionGate::new(1));
        gate.try_acquire().expect("admit the instance");
        let g2 = Arc::clone(&gate);
        let (job, handle) = Group::open(Job::new(|_s| {}), Some(Box::new(move || g2.release())));
        let worker = loom::thread::spawn(move || {
            // SAFETY: the root holds the unit `open` enrolled until the
            // release below.
            let group = unsafe { Group::run_job(&NullHost, job) };
            // SAFETY: the root's unit, its body having returned.
            unsafe { Group::release(group, 1) };
        });
        if handle.is_done() {
            assert_eq!(
                gate.in_flight(),
                0,
                "done observed before the quiesce hook released the slot"
            );
        }
        worker.join().unwrap();
        assert!(handle.is_done());
        assert_eq!(gate.in_flight(), 0);
        handle.wait(); // no panic to re-raise
    });
}

/// A group pointer the model's worker threads share. Dereferenced only
/// while an `InstanceHandle` of the group is held, which keeps it alive.
#[derive(Clone, Copy)]
struct GroupPtr(*const Group);
// SAFETY: only ever dereferenced to `&Group`, and `Group` is `Sync`.
unsafe impl Send for GroupPtr {}

/// The pool's quiescence accounting in miniature, on two groups at once:
/// two workers share a job queue holding the job trees of two instances; a
/// job takes its unit from the spawning worker's `Credits` *before* it is
/// queued, a finished job's unit goes back to the finishing worker's
/// stash, and a worker flushes its stash whenever it finds the queue empty
/// — and, the rule under test, before the stash serves the other group.
/// Under every interleaving of spawns, finishes, hand-offs between the
/// workers, group switches and flushes: a group's latch covers its live
/// job plus everything stashed for it (no unit ever lands in the wrong
/// group), no hook runs with a job of its group live, and each group
/// trips exactly once, after all its jobs ran.
#[test]
fn one_stash_serves_two_groups_without_mixing_units() {
    const GROUPS: usize = 2;
    /// Jobs per group: one root, a binary tree two levels deep.
    const PER_GROUP: usize = 7;
    /// Idle polls before a thread gives the groups up for stuck.
    const SPIN_LIMIT: u64 = 20_000_000;
    loom::model(|| {
        let queue = Arc::new(Mutex::new(Vec::<(usize, u32)>::new()));
        let live: Arc<[AtomicIsize; GROUPS]> = Arc::default();
        let ran: Arc<[AtomicUsize; GROUPS]> = Arc::default();
        let trips: Arc<[AtomicUsize; GROUPS]> = Arc::default();

        // Two submissions: `open` enrolls each root. The model's queue
        // carries (group, depth) pairs, so the root `Job`s are only opened
        // for their stamp.
        let (ptrs, handles): (Vec<_>, Vec<_>) = (0..GROUPS)
            .map(|g| {
                live[g].fetch_add(1, Ordering::SeqCst);
                queue.lock().unwrap().push((g, 2));
                let (live, trips) = (Arc::clone(&live), Arc::clone(&trips));
                let hook = move || {
                    assert_eq!(
                        live[g].load(Ordering::SeqCst),
                        0,
                        "group {g} tripped with a job live"
                    );
                    trips[g].fetch_add(1, Ordering::SeqCst);
                };
                let (root, handle) = Group::open(Job::new(|_s| {}), Some(Box::new(hook)));
                (GroupPtr(root.group()), handle)
            })
            .unzip();

        let workers: Vec<_> = (0..2)
            .map(|_| {
                let (queue, ptrs, handles) = (Arc::clone(&queue), ptrs.clone(), handles.clone());
                let (live, ran) = (Arc::clone(&live), Arc::clone(&ran));
                loom::thread::spawn(move || {
                    let credits = Credits::new();
                    let mut idle_spins = 0u64;
                    loop {
                        let job = queue.lock().unwrap().pop();
                        let Some((g, depth)) = job else {
                            // Own queue empty: flush before looking further.
                            credits.flush();
                            if handles.iter().all(|h| h.is_done()) {
                                break;
                            }
                            idle_spins += 1;
                            assert!(idle_spins < SPIN_LIMIT, "worker: a group never tripped");
                            loom::thread::yield_now();
                            continue;
                        };
                        // SAFETY: `handles` keeps every group alive.
                        let group = unsafe { &*ptrs[g].0 };
                        for _ in 0..if depth > 0 { 2 } else { 0 } {
                            // SAFETY: alive as above.
                            unsafe { credits.take(group) };
                            live[g].fetch_add(1, Ordering::SeqCst);
                            queue.lock().unwrap().push((g, depth - 1));
                        }
                        if depth > 0 {
                            // The stash is this group's now, and this job
                            // is live: its unit and every stashed one must
                            // be in this group's count.
                            assert!(
                                group.outstanding() > credits.held(),
                                "group {g}: latch does not cover its live job plus the stash"
                            );
                        }
                        ran[g].fetch_add(1, Ordering::SeqCst);
                        live[g].fetch_sub(1, Ordering::SeqCst);
                        // SAFETY: the unit of the job that just finished.
                        unsafe { credits.put(group) };
                        assert!(
                            group.outstanding() >= credits.held(),
                            "group {g}: latch below this worker's unflushed credits"
                        );
                    }
                    assert_eq!(credits.held(), 0, "worker exits holding credits");
                })
            })
            .collect();

        // Polled, not `wait()`ed: a broken protocol must fail the model,
        // not hang it.
        let mut spins = 0u64;
        while !handles.iter().all(|h| h.is_done()) {
            spins += 1;
            assert!(spins < SPIN_LIMIT, "submitter: a group never tripped");
            loom::thread::yield_now();
        }
        for w in workers {
            w.join().unwrap();
        }
        for g in 0..GROUPS {
            assert_eq!(live[g].load(Ordering::SeqCst), 0);
            assert_eq!(
                ran[g].load(Ordering::SeqCst),
                PER_GROUP,
                "group {g} tripped before every job ran"
            );
            assert_eq!(trips[g].load(Ordering::SeqCst), 1, "group {g} trips once");
        }
    });
}
