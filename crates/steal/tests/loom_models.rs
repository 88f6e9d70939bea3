//! Loom model tests for the lock-free core of the runtime: the Chase–Lev
//! deque's single-element pop/steal race, the `CountLatch` quiescence
//! protocol (its worker-local `Credits` are modeled in `loom_instance.rs`,
//! on real completion groups), and the parker's producer/sleeper fence
//! pair.
//!
//! Build and run with:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p ft-steal --test loom_models
//! ```
//!
//! Under `--cfg loom` the deque and latch are compiled against
//! `loom::sync::atomic`, so every atomic operation is a model-exploration
//! point. `LOOM_MAX_ITERS` / `LOOM_SEED` control the exploration budget
//! and make failures replayable.
#![cfg(loom)]

use ft_steal::deque::{deque, Steal};
use ft_steal::latch::CountLatch;
use ft_steal::parker::Parker;
use std::collections::HashSet;
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// The classic Chase–Lev race: one element, owner popping at the bottom
/// while a thief steals at the top. Exactly one side may win; the element
/// must be neither lost nor duplicated.
#[test]
fn deque_single_element_pop_steal_race() {
    loom::model(|| {
        let (w, s) = deque::<u64>();
        w.push(42);
        let thief = loom::thread::spawn(move || loop {
            match s.steal() {
                Steal::Success(v) => break Some(v),
                Steal::Empty => break None,
                Steal::Retry => {}
            }
        });
        let popped = w.pop();
        let stolen = thief.join().unwrap();
        match (popped, stolen) {
            (Some(42), None) | (None, Some(42)) => {}
            other => panic!("element lost or duplicated: {other:?}"),
        }
    });
}

/// Bulk transfer: a thief drains from the top while the owner pops from
/// the bottom. Every pushed element is consumed by exactly one side.
#[test]
fn deque_concurrent_drain_no_loss_no_dup() {
    const N: u64 = 16;
    loom::model(|| {
        let (w, s) = deque::<u64>();
        for i in 0..N {
            w.push(i);
        }
        let thief = loom::thread::spawn(move || {
            let mut got = Vec::new();
            loop {
                match s.steal() {
                    Steal::Success(v) => got.push(v),
                    Steal::Empty => break,
                    Steal::Retry => {}
                }
            }
            got
        });
        let mut popped = Vec::new();
        while let Some(v) = w.pop() {
            popped.push(v);
        }
        let stolen = thief.join().unwrap();
        // The thief may observe Empty while the owner still holds items,
        // but nothing may vanish or double up across the two sides.
        let mut seen = HashSet::new();
        for &v in popped.iter().chain(stolen.iter()) {
            assert!(seen.insert(v), "element {v} consumed twice");
        }
        assert_eq!(
            seen.len() as u64,
            N,
            "lost elements: popped {} + stolen {}",
            popped.len(),
            stolen.len()
        );
    });
}

/// CountLatch quiescence: concurrent decrements against a waiting thread.
/// The waiter must wake exactly when the count returns to zero, and the
/// latch must report quiescence afterwards.
#[test]
fn count_latch_concurrent_decrement_quiescence() {
    loom::model(|| {
        let l = Arc::new(CountLatch::new());
        for _ in 0..4 {
            l.increment();
        }
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let l = Arc::clone(&l);
                loom::thread::spawn(move || {
                    l.decrement();
                    l.decrement();
                })
            })
            .collect();
        l.wait();
        assert!(l.is_quiescent());
        assert_eq!(l.outstanding(), 0);
        for h in workers {
            h.join().unwrap();
        }
    });
}

/// Increment racing decrement: a scope that spawns one more job while the
/// previous one is finishing must not be observed as quiescent in between
/// if the new job is registered before the old one completes.
#[test]
fn count_latch_increment_before_decrement_keeps_scope_alive() {
    loom::model(|| {
        let l = Arc::new(CountLatch::new());
        l.increment(); // job A
        l.increment(); // job B registered before A finishes
        let l2 = Arc::clone(&l);
        let a = loom::thread::spawn(move || {
            l2.decrement(); // A completes
        });
        // Even with A's decrement in flight, B is still outstanding.
        assert!(!l.is_quiescent(), "latch tripped with a job outstanding");
        l.decrement(); // B completes
        a.join().unwrap();
        l.wait();
        assert!(l.is_quiescent());
    });
}

/// The parker's Dekker pair: a producer pushes a job, fences and loads the
/// sleeper count (`notify_one`); a sleeper registers, fences and sweeps the
/// queue (`prepare_sleep` + `is_empty`). Either the sweep sees the job, or
/// the producer sees the sleeper and the sleep returns — a lost wake-up
/// would leave the sleeper blocked forever with the job queued, which the
/// watchdog turns into a failure.
#[test]
fn parker_push_vs_park_never_loses_a_wakeup() {
    loom::model(|| {
        let parker = Arc::new(Parker::new());
        let (w, s) = deque::<u64>();
        let p = Arc::clone(&parker);
        let producer = loom::thread::spawn(move || {
            w.push(7);
            p.notify_one();
            w // keep the deque alive until the sleeper has looked
        });
        let (tx, rx) = mpsc::channel();
        let p = Arc::clone(&parker);
        let sleeper = loom::thread::spawn(move || {
            let token = p.prepare_sleep();
            if s.is_empty() {
                // The sweep missed the push, so the producer must have seen
                // this sleeper: the sleep returns, and the job is visible.
                p.sleep(token);
                assert!(!s.is_empty(), "woken with nothing queued");
            } else {
                p.cancel_sleep();
            }
            assert_eq!(p.sleepers(), 0);
            tx.send(()).unwrap();
        });
        rx.recv_timeout(Duration::from_secs(20))
            .expect("sleeper blocked with a job queued: lost wake-up");
        sleeper.join().unwrap();
        drop(producer.join().unwrap());
    });
}
