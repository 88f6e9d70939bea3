//! Integration tests for the pool's external-submission path and latch
//! APIs — the paths `run_until_complete` does not exercise.

use ft_steal::latch::{CountLatch, Flag};
use ft_steal::pool::{Executor, Job, Pool, PoolConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

#[test]
fn external_spawn_executes_without_run() {
    let pool = Pool::new(PoolConfig::with_threads(2));
    let done = Arc::new(Flag::new());
    let d = Arc::clone(&done);
    pool.submit_instance(Job::new(move |_| d.set()), None);
    done.wait();
    assert!(done.is_set());
}

#[test]
fn external_spawn_can_fan_out() {
    let pool = Pool::new(PoolConfig::with_threads(3));
    let latch = Arc::new(CountLatch::new());
    let counter = Arc::new(AtomicUsize::new(0));
    for _ in 0..50 {
        latch.increment();
    }
    for _ in 0..50 {
        let latch = Arc::clone(&latch);
        let counter = Arc::clone(&counter);
        let root = Job::new(move |s| {
            // Jobs spawned from workers fan out further.
            let inner_latch = Arc::clone(&latch);
            let inner_counter = Arc::clone(&counter);
            s.spawn(move |_| {
                inner_counter.fetch_add(1, Ordering::Relaxed);
                inner_latch.decrement();
            });
        });
        pool.submit_instance(root, None);
    }
    latch.wait();
    assert_eq!(counter.load(Ordering::Relaxed), 50);
}

#[test]
fn injector_path_used_for_external_submissions() {
    // Submissions from a non-worker thread must go through the injector
    // and still be executed (steal metric counts injector pops as steals).
    let pool = Pool::new(PoolConfig::with_threads(2));
    pool.reset_metrics();
    let flag = Arc::new(Flag::new());
    let f = Arc::clone(&flag);
    pool.submit_instance(Job::new(move |_| f.set()), None);
    flag.wait();
    let m = pool.metrics();
    assert!(m.executed >= 1);
    assert!(m.steals >= 1, "external job must arrive via the injector");
    assert_eq!(m.spawned, 0, "no worker-local spawns happened");
}

#[test]
fn pool_drop_with_idle_workers_terminates() {
    // Regression guard: dropping a pool whose workers are parked must not
    // hang (the shutdown path has to wake them).
    for _ in 0..5 {
        let pool = Pool::new(PoolConfig::with_threads(4));
        pool.run_until_complete(|scope| {
            scope.spawn(|_| {});
        });
        drop(pool);
    }
}

#[test]
fn many_pools_coexist() {
    // Two pools in one process: thread-local worker contexts must not
    // cross-contaminate (spawns from pool A workers stay in pool A).
    let a = Pool::new(PoolConfig::with_threads(2));
    let b = Pool::new(PoolConfig::with_threads(2));
    let count_a = Arc::new(AtomicUsize::new(0));
    let count_b = Arc::new(AtomicUsize::new(0));
    let ca = Arc::clone(&count_a);
    a.run_until_complete(|scope| {
        for _ in 0..100 {
            let ca = Arc::clone(&ca);
            scope.spawn(move |s| {
                let ca2 = Arc::clone(&ca);
                s.spawn(move |_| {
                    ca2.fetch_add(1, Ordering::Relaxed);
                });
                ca.fetch_add(1, Ordering::Relaxed);
            });
        }
    });
    let cb = Arc::clone(&count_b);
    b.run_until_complete(|scope| {
        for _ in 0..100 {
            let cb = Arc::clone(&cb);
            scope.spawn(move |_| {
                cb.fetch_add(1, Ordering::Relaxed);
            });
        }
    });
    assert_eq!(count_a.load(Ordering::Relaxed), 200);
    assert_eq!(count_b.load(Ordering::Relaxed), 100);
}

#[test]
fn num_threads_reported() {
    let pool = Pool::new(PoolConfig::with_threads(3));
    assert_eq!(pool.num_threads(), 3);
    pool.run_until_complete(|scope| {
        assert_eq!(scope.num_threads(), 3);
    });
}

/// Run `body` on its own thread and fail if it has not finished within
/// `secs` — a lost wake-up or a stuck latch shows up as a hang, which must
/// fail the test rather than wedge the suite.
fn under_watchdog(secs: u64, what: &str, body: impl FnOnce() + Send + 'static) {
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        body();
        let _ = tx.send(());
    });
    match rx.recv_timeout(std::time::Duration::from_secs(secs)) {
        Ok(()) => worker.join().unwrap(),
        // A panic in `body` drops `tx`: surface that panic, not a timeout.
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(worker.join().unwrap_err())
        }
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!("{what}: no progress for {secs} s")
        }
    }
}

#[test]
fn single_jobs_against_parking_workers_never_lose_a_wakeup() {
    // One producer, one job at a time, and every round is forced through
    // the park protocol: the next job is pushed only after the worker that
    // ran the previous one has registered to sleep again (its `sleeps`
    // counter moved), so each push races a worker somewhere between
    // `prepare_sleep`, its re-check sweep and the condvar. The producer
    // writes nothing when it sees no sleeper, so a sweep that misses the
    // job would strand it: the round would never complete.
    const ROUNDS: u64 = 100_000;
    under_watchdog(120, "park/wake rounds", || {
        let pool = Pool::new(PoolConfig::with_threads(2));
        let done = Arc::new(AtomicUsize::new(0));
        let mut parks_seen = pool.metrics().sleeps;
        for round in 1..=ROUNDS as usize {
            let d = Arc::clone(&done);
            let job = Job::new(move |_| d.store(round, Ordering::Release));
            pool.submit_instance(job, None);
            while done.load(Ordering::Acquire) != round {
                std::hint::spin_loop();
            }
            // Wait for the next park: at least the worker that ran the job
            // goes back to sleep (nothing else is queued).
            loop {
                let parks = pool.metrics().sleeps;
                if parks > parks_seen {
                    parks_seen = parks;
                    break;
                }
                std::thread::yield_now();
            }
        }
        assert_eq!(done.load(Ordering::Acquire), ROUNDS as usize);
        assert!(pool.metrics().executed >= ROUNDS);
    });
}

#[test]
fn credits_of_a_worker_that_went_idle_do_not_delay_quiescence() {
    // The root job spawns from a worker, so that worker takes a whole batch
    // of latch units and is left holding all but a few of them as credits
    // when the last job finishes. Nothing else will ever run: only the
    // flush a worker performs when its own deques are empty can bring the
    // latch to zero and let `run_until_complete` return.
    under_watchdog(60, "quiescence with unflushed credits", || {
        let pool = Pool::new(PoolConfig::with_threads(2));
        let ran = Arc::new(AtomicUsize::new(0));
        for _ in 0..2_000 {
            let r = Arc::clone(&ran);
            pool.run_until_complete(move |scope| {
                scope.spawn(move |s| {
                    let r2 = Arc::clone(&r);
                    s.spawn(move |_| {
                        r2.fetch_add(1, Ordering::Relaxed);
                    });
                    r.fetch_add(1, Ordering::Relaxed);
                });
            });
        }
        assert_eq!(ran.load(Ordering::Relaxed), 4_000);
    });
}
