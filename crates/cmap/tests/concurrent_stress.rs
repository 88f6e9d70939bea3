//! Concurrent stress tests for `ShardedMap::update_cas` / `replace` under
//! mixed workloads — the operations the FT scheduler's recovery table and
//! task-map incarnation swap are built on.
//!
//! The sequential semantics are covered by the model tests in
//! `map_model.rs`; these tests hammer the same operations from many
//! threads and assert the linearizability-shaped invariants that recovery
//! correctness depends on: no lost `update_cas` read-modify-writes, each
//! replaced value surfacing exactly once, a single `insert_if_absent`
//! winner.

use ft_cmap::ShardedMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

#[test]
fn update_cas_never_loses_increments_under_same_shard_churn() {
    // One shard, so the counter key shares its lock/table with all the
    // churn keys: replace/insert/get interference cannot break update_cas
    // atomicity or lose an increment.
    let m: Arc<ShardedMap<u64>> = Arc::new(ShardedMap::with_shards(1));
    m.insert_if_absent(0, || 0);
    const THREADS: u64 = 4;
    const INCS: u64 = 2000;
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let inc = Arc::clone(&m);
            // Incrementers on key 0.
            s.spawn(move || {
                for _ in 0..INCS {
                    inc.update_cas(0, |cur| (Some(cur.copied().unwrap() + 1), ()));
                }
            });
            let churn = Arc::clone(&m);
            // Churners on other keys in the same shard.
            s.spawn(move || {
                for i in 0..INCS {
                    let k = 1 + ((t * INCS + i) % 64) as i64;
                    churn.insert_if_absent(k, || 0);
                    churn.replace(k, t * INCS + i);
                    let _ = churn.get(k);
                }
            });
        }
    });
    assert_eq!(m.get(0), Some(THREADS * INCS));
    assert_eq!(m.len(), 65, "64 churn keys + the counter");
}

#[test]
fn concurrent_replace_yields_each_value_exactly_once() {
    // Replace returns the previous value atomically: across all threads,
    // every written value must surface exactly once — either as some
    // replace's previous value or as the final map value — and the initial
    // value exactly once. A torn or non-atomic swap would duplicate or
    // drop one.
    let m: Arc<ShardedMap<u64>> = Arc::new(ShardedMap::with_shards(2));
    m.insert_if_absent(7, || 0);
    const THREADS: u64 = 8;
    const REPS: u64 = 500;
    let prevs: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let m = Arc::clone(&m);
            let prevs = Arc::clone(&prevs);
            s.spawn(move || {
                let mut local = Vec::with_capacity(REPS as usize);
                for i in 0..REPS {
                    // Unique nonzero tag per write.
                    let v = 1 + t * REPS + i;
                    local.push(m.replace(7, v).expect("key pre-inserted"));
                }
                prevs.lock().unwrap().extend(local);
            });
        }
    });
    let mut seen = prevs.lock().unwrap().clone();
    seen.push(m.get(7).unwrap());
    seen.sort_unstable();
    let expected: Vec<u64> = (0..=THREADS * REPS).collect();
    assert_eq!(seen, expected, "every value observed exactly once");
}

#[test]
fn insert_if_absent_has_one_winner_per_key() {
    let m: Arc<ShardedMap<u64>> = Arc::new(ShardedMap::with_shards(4));
    for key in 0..32i64 {
        let wins = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let m = Arc::clone(&m);
                let wins = &wins;
                s.spawn(move || {
                    if m.insert_if_absent(key, || t) {
                        wins.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(wins.load(Ordering::Relaxed), 1, "key {key}");
        assert!(m.get(key).unwrap() < 8);
    }
}

#[test]
fn recovery_table_claim_protocol_under_replace_noise() {
    // The `IsRecovering` pattern: for each life, exactly one thread's
    // update_cas claims the recovery, even while other keys in the same
    // shard are being replaced concurrently.
    let m: Arc<ShardedMap<u64>> = Arc::new(ShardedMap::with_shards(1));
    for life in 1..=20u64 {
        let claims = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..6 {
                let claimer = Arc::clone(&m);
                let claims = &claims;
                s.spawn(move || {
                    let claimed = claimer.update_cas(99, |cur| match cur {
                        None => (Some(life), true),
                        Some(&stored) if stored + 1 == life => (Some(life), true),
                        Some(_) => (None, false),
                    });
                    if claimed {
                        claims.fetch_add(1, Ordering::Relaxed);
                    }
                });
                let noise = Arc::clone(&m);
                s.spawn(move || {
                    for i in 0..200 {
                        noise.insert_if_absent(i % 16, || 0);
                        noise.replace(i % 16, i as u64);
                    }
                });
            }
        });
        assert_eq!(
            claims.load(Ordering::Relaxed),
            1,
            "exactly one claimant for life {life}"
        );
    }
}
