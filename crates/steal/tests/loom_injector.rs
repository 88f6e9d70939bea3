//! Loom model tests for the injector: concurrent push/steal, per-producer
//! FIFO order over runs longer than one batch, and batch stealing into a
//! worker deque.
//!
//! Build and run with:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p ft-steal --test loom_injector
//! ```
//!
//! Under `--cfg loom` the injector compiles against `loom::sync::atomic`,
//! so every store and lock-free poll of its length word is a
//! model-exploration point; the queue's mutex is std's, outside the
//! shim's happens-before tracking. `LOOM_MAX_ITERS` / `LOOM_SEED` control
//! the exploration budget and make failures replayable.
#![cfg(loom)]

use ft_steal::deque::deque;
use ft_steal::injector::Injector;
use std::collections::HashSet;
use std::sync::Arc;

/// One element, two thieves: exactly one steal succeeds, the element is
/// neither lost nor duplicated, and the queue reports empty afterwards.
#[test]
fn injector_single_element_two_thieves() {
    loom::model(|| {
        let q = Arc::new(Injector::<u64>::new());
        q.push(42);
        let q2 = Arc::clone(&q);
        let thief = loom::thread::spawn(move || q2.steal());
        let here = q.steal();
        let there = thief.join().unwrap();
        match (here, there) {
            (Some(42), None) | (None, Some(42)) => {}
            other => panic!("element lost or duplicated: {other:?}"),
        }
        assert!(q.is_empty());
    });
}

/// Two producers and two consumers racing over 36 items: every pushed
/// element is stolen exactly once, and each producer's elements arrive in
/// its push order.
#[test]
fn injector_mpmc_no_loss_no_dup() {
    const PER_PRODUCER: u64 = 18;
    loom::model(|| {
        let q = Arc::new(Injector::<u64>::new());
        let producers: Vec<_> = (0..2u64)
            .map(|p| {
                let q = Arc::clone(&q);
                loom::thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        q.push(p * 100 + i);
                    }
                })
            })
            .collect();
        let q2 = Arc::clone(&q);
        let thief = loom::thread::spawn(move || {
            let mut got = Vec::new();
            while (got.len() as u64) < PER_PRODUCER {
                if let Some(v) = q2.steal() {
                    got.push(v);
                }
            }
            got
        });
        let mut mine = Vec::new();
        while (mine.len() as u64) < PER_PRODUCER {
            if let Some(v) = q.steal() {
                mine.push(v);
            }
        }
        for h in producers {
            h.join().unwrap();
        }
        let stolen = thief.join().unwrap();

        let mut seen = HashSet::new();
        for &v in mine.iter().chain(stolen.iter()) {
            assert!(seen.insert(v), "element {v} stolen twice");
        }
        assert_eq!(seen.len() as u64, 2 * PER_PRODUCER, "elements lost");
        assert!(q.is_empty());

        // MPMC FIFO per producer: each producer's items are consumed in
        // push order by every individual consumer.
        for side in [&mine, &stolen] {
            for p in 0..2u64 {
                let ordered: Vec<u64> = side.iter().copied().filter(|v| v / 100 == p).collect();
                assert!(
                    ordered.windows(2).all(|w| w[0] < w[1]),
                    "producer {p} items out of order: {ordered:?}"
                );
            }
        }
    });
}

/// Batch stealing races single stealing: `steal_batch_and_pop` moves a
/// prefix into the caller's deque and returns one item, while another
/// thread steals singles. Union of (returned, deque contents, singles)
/// must be exactly the pushed set.
#[test]
fn injector_batch_steal_races_single_steal() {
    const N: u64 = 40; // more than one batch takes
    loom::model(|| {
        let q = Arc::new(Injector::<u64>::new());
        for i in 0..N {
            q.push(i);
        }
        let q2 = Arc::clone(&q);
        let batcher = loom::thread::spawn(move || {
            let (w, _s) = deque::<u64>();
            let mut got = Vec::new();
            while !q2.is_empty() {
                if let Some(first) = q2.steal_batch_and_pop(&w) {
                    got.push(first);
                }
                while let Some(v) = w.pop() {
                    got.push(v);
                }
            }
            got
        });
        let mut singles = Vec::new();
        loop {
            match q.steal() {
                Some(v) => singles.push(v),
                None if q.is_empty() => break,
                None => {}
            }
        }
        let batched = batcher.join().unwrap();

        let mut seen = HashSet::new();
        for &v in singles.iter().chain(batched.iter()) {
            assert!(seen.insert(v), "element {v} consumed twice");
        }
        assert_eq!(
            seen.len() as u64,
            N,
            "lost elements: singles {} + batched {}",
            singles.len(),
            batched.len()
        );
        assert!(q.is_empty());
    });
}

/// One producer racing one consumer over 33 items: the consumer, polling
/// while the pushes land, gets every item exactly once in strict FIFO
/// order, and the queue reads empty with length 0 afterwards.
#[test]
fn injector_push_races_consume_in_fifo_order() {
    const N: u64 = 33;
    loom::model(|| {
        let q = Arc::new(Injector::<u64>::new());
        let q2 = Arc::clone(&q);
        let producer = loom::thread::spawn(move || {
            for i in 0..N {
                q2.push(i);
            }
        });
        let mut got = Vec::new();
        while (got.len() as u64) < N {
            if let Some(v) = q.steal() {
                got.push(v);
            }
        }
        producer.join().unwrap();
        // Single consumer: strict FIFO.
        let expect: Vec<u64> = (0..N).collect();
        assert_eq!(got, expect);
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    });
}
