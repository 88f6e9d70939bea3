//! Loom model tests for the dual-lane priority injector: a completed hot
//! push is never missed, lane isolation, and hot/normal races.
//!
//! Build and run with:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p ft-steal --test loom_priority
//! ```
//!
//! Under `--cfg loom` the injectors inside [`PrioInjector`] compile
//! against `loom::sync::atomic`, so each lane's length-word stores and
//! polls are model-exploration points. `LOOM_MAX_ITERS` / `LOOM_SEED`
//! control the exploration budget and make failures replayable.
#![cfg(loom)]

use ft_steal::deque::deque;
use ft_steal::priority::{PrioInjector, Priority};
use std::collections::HashSet;
use std::sync::Arc;

/// A thief that runs entirely after a completed `push(High)` finds the
/// element: the hot lane's length poll never reads zero for it.
#[test]
fn hot_steal_never_misses_published_work() {
    loom::model(|| {
        let q = Arc::new(PrioInjector::<u64>::new());
        let q2 = Arc::clone(&q);
        let producer = loom::thread::spawn(move || q2.push(7, Priority::High));
        producer.join().unwrap();
        // Publication happened-before this thread: the element must be
        // there.
        assert_eq!(q.steal_hot(), Some(7), "hot steal missed published work");
        assert!(q.is_empty());
    });
}

/// One hot element, two thieves racing for it: exactly one succeeds, and
/// the element is neither lost nor duplicated.
#[test]
fn two_thieves_race_one_hot_element() {
    loom::model(|| {
        let q = Arc::new(PrioInjector::<u64>::new());
        q.push(42, Priority::High);
        let q2 = Arc::clone(&q);
        let thief = loom::thread::spawn(move || q2.steal_hot());
        let here = q.steal_hot();
        let there = thief.join().unwrap();
        match (here, there) {
            (Some(42), None) | (None, Some(42)) => {}
            other => panic!("hot element lost or duplicated: {other:?}"),
        }
        assert!(q.is_empty());
    });
}

/// Mixed-lane MPMC: a producer pushing into both lanes races two
/// consumers draining via the hot-first [`PrioInjector::steal`]. Every
/// element is consumed exactly once.
#[test]
fn mixed_lanes_no_loss_no_duplication() {
    const N: u64 = 4; // 2 hot + 2 normal
    loom::model(|| {
        let q = Arc::new(PrioInjector::<u64>::new());
        let q2 = Arc::clone(&q);
        let producer = loom::thread::spawn(move || {
            q2.push(0, Priority::High);
            q2.push(1, Priority::Normal);
            q2.push(2, Priority::High);
            q2.push(3, Priority::Normal);
        });
        let q3 = Arc::clone(&q);
        let consumer = loom::thread::spawn(move || {
            let mut got = Vec::new();
            for _ in 0..2 {
                if let Some(v) = q3.steal() {
                    got.push(v);
                }
            }
            got
        });
        let mut mine = Vec::new();
        while mine.len() < 2 {
            if let Some(v) = q.steal() {
                mine.push(v);
            }
        }
        producer.join().unwrap();
        let theirs = consumer.join().unwrap();
        // Drain the remainder (the consumer's two attempts may have raced
        // ahead of the producer and come up empty).
        let mut rest = Vec::new();
        while let Some(v) = q.steal() {
            rest.push(v);
        }
        let mut seen = HashSet::new();
        for &v in mine.iter().chain(theirs.iter()).chain(rest.iter()) {
            assert!(seen.insert(v), "element {v} consumed twice");
        }
        assert_eq!(seen.len() as u64, N, "elements lost: {seen:?}");
        assert!(q.is_empty());
    });
}

/// Lane isolation under a race: a normal-lane batch steal into a worker
/// deque never captures hot-lane elements, even while a hot steal runs
/// concurrently.
#[test]
fn batch_steal_normal_never_captures_hot() {
    loom::model(|| {
        let q = Arc::new(PrioInjector::<u64>::new());
        q.push(100, Priority::High);
        q.push(1, Priority::Normal);
        q.push(2, Priority::Normal);
        let q2 = Arc::clone(&q);
        let hot_thief = loom::thread::spawn(move || q2.steal_hot());
        let (w, _s) = deque::<u64>();
        let mut batched = Vec::new();
        if let Some(first) = q.steal_batch_and_pop_normal(&w) {
            batched.push(first);
        }
        while let Some(v) = w.pop() {
            batched.push(v);
        }
        assert!(
            !batched.contains(&100),
            "hot element leaked into a normal batch: {batched:?}"
        );
        let hot = hot_thief.join().unwrap();
        assert_eq!(hot, Some(100), "single hot thief must win its element");
    });
}
