//! Property tests for the sharded concurrent map: sequential equivalence
//! with `HashMap` under random operation sequences, plus the recovery-table
//! protocol as a state machine.
//!
//! Each property runs 256 cases; case `i` draws its input from
//! `StdRng::seed_from_u64(BASE + i)` and names that seed when it fails.

use ft_cmap::ShardedMap;
use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};
use std::collections::HashMap;

#[derive(Debug)]
enum Op {
    InsertIfAbsent(i64, u64),
    Get(i64),
    Replace(i64, u64),
    Contains(i64),
    UpdateAddOne(i64),
}

/// One op, the five kinds equally likely, over a small key space
/// (−8..8) so operations collide often.
fn op(rng: &mut StdRng) -> Op {
    let key = rng.random_range(-8i64..8);
    match rng.random_range(0..5) {
        0 => Op::InsertIfAbsent(key, rng.next_u64()),
        1 => Op::Get(key),
        2 => Op::Replace(key, rng.next_u64()),
        3 => Op::Contains(key),
        _ => Op::UpdateAddOne(key),
    }
}

#[test]
fn matches_hashmap_model() {
    const BASE: u64 = 0xC0_0000;
    for seed in BASE..BASE + 256 {
        let mut rng = StdRng::seed_from_u64(seed);
        let shards = rng.random_range(1..32);
        let len = rng.random_range(0..200);
        let ops: Vec<Op> = (0..len).map(|_| op(&mut rng)).collect();
        let m: ShardedMap<u64> = ShardedMap::with_shards(shards);
        let mut model: HashMap<i64, u64> = HashMap::new();
        for op in ops {
            match op {
                Op::InsertIfAbsent(k, v) => {
                    let inserted = m.insert_if_absent(k, || v);
                    let model_inserted =
                        if let std::collections::hash_map::Entry::Vacant(e) = model.entry(k) {
                            e.insert(v);
                            true
                        } else {
                            false
                        };
                    assert_eq!(inserted, model_inserted, "seed {seed}");
                }
                Op::Get(k) => assert_eq!(m.get(k), model.get(&k).copied(), "seed {seed}"),
                Op::Replace(k, v) => {
                    let prev = m.replace(k, v);
                    let model_prev = model.insert(k, v);
                    assert_eq!(prev, model_prev, "seed {seed}");
                }
                Op::Contains(k) => {
                    assert_eq!(m.contains(k), model.contains_key(&k), "seed {seed}")
                }
                Op::UpdateAddOne(k) => {
                    let got = m.update_cas(k, |cur| match cur {
                        Some(&v) => (Some(v + 1), Some(v + 1)),
                        None => (None, None),
                    });
                    let model_got = model.get_mut(&k).map(|v| {
                        *v += 1;
                        *v
                    });
                    assert_eq!(got, model_got, "seed {seed}");
                }
            }
            assert_eq!(m.len(), model.len(), "seed {seed}");
        }
        // Final content equivalence.
        let mut entries = m.entries();
        entries.sort();
        let mut model_entries: Vec<(i64, u64)> = model.into_iter().collect();
        model_entries.sort();
        assert_eq!(entries, model_entries, "seed {seed}");
    }
}

/// The IsRecovering protocol of Figure 3 as a property. In a real run
/// lives are observed in order (an incarnation exists only after the
/// previous one's recovery), possibly many times each (multiple
/// observers), with stale re-observations of old lives mixed in.
/// Exactly the first observation of each life claims the recovery.
#[test]
fn recovery_table_claims_once_per_life() {
    const BASE: u64 = 0xC1_0000;
    for seed in BASE..BASE + 256 {
        let mut rng = StdRng::seed_from_u64(seed);
        let max_life: u64 = rng.random_range(1..15);
        let observers: usize = rng.random_range(1..5);
        let stale_looks: usize = rng.random_range(0..4);
        let r: ShardedMap<u64> = ShardedMap::with_shards(4);
        let key = 5i64;
        let is_recovering = |life: u64| -> bool {
            r.update_cas(key, |cur| match cur {
                None => (Some(life), false),
                Some(&stored) if stored + 1 == life => (Some(life), false),
                Some(_) => (None, true),
            })
        };
        for life in 1..=max_life {
            // Multiple observers of the same incarnation's failure: only
            // the first claims (Guarantee 1).
            for obs in 0..observers {
                let claimed = !is_recovering(life);
                assert_eq!(claimed, obs == 0, "seed {seed}: life {life} observer {obs}");
            }
            // Stale observers of earlier incarnations never claim.
            for s in 0..stale_looks {
                let stale = 1 + (s as u64 % life);
                assert!(
                    is_recovering(stale),
                    "seed {seed}: stale life {stale} must not claim"
                );
            }
        }
    }
}

#[test]
fn concurrent_update_cas_is_atomic() {
    // 8 threads × 1000 increments on the same key = exactly 8000.
    let m: std::sync::Arc<ShardedMap<u64>> = std::sync::Arc::new(ShardedMap::with_shards(4));
    m.insert_if_absent(0, || 0);
    std::thread::scope(|s| {
        for _ in 0..8 {
            let m = std::sync::Arc::clone(&m);
            s.spawn(move || {
                for _ in 0..1000 {
                    m.update_cas(0, |cur| {
                        let v = cur.copied().unwrap() + 1;
                        (Some(v), ())
                    });
                }
            });
        }
    });
    assert_eq!(m.get(0), Some(8000));
}
