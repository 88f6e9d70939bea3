//! Property tests for the Chase–Lev deque (invariant P5 of DESIGN.md):
//! under any operation sequence, no element is lost or duplicated, and
//! owner-side semantics match a sequential deque model.
//!
//! Each property runs 256 cases; case `i` draws its input from
//! `StdRng::seed_from_u64(BASE + i)` and names that seed when it fails.

use ft_steal::deque::{deque, Steal};
use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};
use std::collections::{HashSet, VecDeque};

/// Operations the owner and a (sequentialized) thief can perform.
#[derive(Debug)]
enum Op {
    Push(u64),
    Pop,
    Steal,
}

/// A script of 0..200 ops, push/pop/steal weighted 3:2:2.
fn script(rng: &mut StdRng) -> Vec<Op> {
    let len = rng.random_range(0..200);
    (0..len)
        .map(|_| match rng.random_range(0..7) {
            0..3 => Op::Push(rng.next_u64()),
            3..5 => Op::Pop,
            _ => Op::Steal,
        })
        .collect()
}

/// Sequential model equivalence: running the ops single-threaded, the
/// deque must behave exactly like a VecDeque (push/pop at the back,
/// steal from the front).
#[test]
fn matches_sequential_model() {
    const BASE: u64 = 0xD0_0000;
    for seed in BASE..BASE + 256 {
        let ops = script(&mut StdRng::seed_from_u64(seed));
        let (w, s) = deque::<u64>();
        let mut model: VecDeque<u64> = VecDeque::new();
        for op in ops {
            match op {
                Op::Push(v) => {
                    w.push(v);
                    model.push_back(v);
                }
                Op::Pop => assert_eq!(w.pop(), model.pop_back(), "seed {seed}"),
                Op::Steal => {
                    let got = match s.steal() {
                        Steal::Success(v) => Some(v),
                        Steal::Empty => None,
                        Steal::Retry => None, // cannot happen single-threaded
                    };
                    assert_eq!(got, model.pop_front(), "seed {seed}");
                }
            }
            assert_eq!(w.len(), model.len(), "seed {seed}");
        }
    }
}

/// Exactly-once delivery under a concurrent thief: every pushed element
/// is obtained by exactly one of {owner pop, thief steal}.
#[test]
fn concurrent_no_loss_no_dup() {
    const BASE: u64 = 0xD1_0000;
    for seed in BASE..BASE + 256 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n: usize = rng.random_range(1..2000);
        let pop_every: usize = rng.random_range(1..7);
        let (w, s) = deque::<usize>();
        let seen_thief = std::thread::scope(|scope| {
            let handle = scope.spawn(move || {
                let mut seen = Vec::new();
                loop {
                    match s.steal() {
                        Steal::Success(v) => seen.push(v),
                        Steal::Empty => {
                            if s.is_empty() && seen.len() >= n {
                                break;
                            }
                            // Termination: thief gives up after the owner
                            // stops producing; detected via a sentinel.
                            if seen.last() == Some(&usize::MAX) {
                                break;
                            }
                            std::hint::spin_loop();
                        }
                        Steal::Retry => {}
                    }
                    if seen.last() == Some(&usize::MAX) {
                        break;
                    }
                }
                seen
            });
            let mut seen_owner = Vec::new();
            for i in 0..n {
                w.push(i);
                if i % pop_every == 0 {
                    if let Some(v) = w.pop() {
                        seen_owner.push(v);
                    }
                }
            }
            while let Some(v) = w.pop() {
                seen_owner.push(v);
            }
            // Sentinel so the thief can terminate even if it saw nothing.
            w.push(usize::MAX);
            let mut thief = loop {
                // The sentinel might be popped by... nobody: owner is done.
                // Thief will pick it up.
                if handle.is_finished() {
                    break handle.join().unwrap();
                }
                std::hint::spin_loop();
            };
            // Remove the sentinel wherever it landed.
            thief.retain(|&v| v != usize::MAX);
            (seen_owner, thief)
        });
        let (owner, thief) = seen_thief;
        let mut all: Vec<usize> = owner;
        all.extend(thief);
        assert_eq!(
            all.len(),
            n,
            "seed {seed}: every element delivered exactly once"
        );
        let set: HashSet<usize> = all.iter().copied().collect();
        assert_eq!(set.len(), n, "seed {seed}: no duplicates");
    }
}

#[test]
fn owner_sees_lifo_thief_sees_fifo() {
    let (w, s) = deque::<u32>();
    for i in 0..100 {
        w.push(i);
    }
    assert_eq!(s.steal(), Steal::Success(0), "thief takes the oldest");
    assert_eq!(w.pop(), Some(99), "owner takes the newest");
    assert_eq!(s.steal(), Steal::Success(1));
    assert_eq!(w.pop(), Some(98));
}
