//! Loom models of a single `ShardedMap` shard.
//!
//! Build with `RUSTFLAGS="--cfg loom" cargo test -p ft-cmap --test loom_shard`.
//!
//! Each model pins the map to one shard so every operation contends on the
//! same lock and table. Writer races: `update_cas` increments must never
//! be lost, a `replace`/`update_cas` pair must produce one of the two
//! linearization orders and nothing else, an `insert_if_absent` race has
//! exactly one winner whose value is the one stored, and a
//! `get_or_insert_with` race hands every caller that winner's value while
//! a concurrent reader sees either nothing or the winner.
//!
//! Reader races (the lock-free read path: one `Acquire` table load and one
//! probe): readers racing `replace` churn, table growth, `update_cas`
//! chains, and `replace` interleaved with growth, where a reader may still
//! probe a retired table after a replace has landed in the new one. Every
//! table-pointer publication, slot store and value store is an exploration
//! point; `LOOM_MAX_ITERS` / `LOOM_SEED` control the exploration budget and
//! make failures replayable. The shim samples interleavings but never
//! returns a stale load, so the write-once argument for retired tables
//! (`#map-publish` in `docs/ALGORITHM.md`) is checked here only for the
//! interleavings, not for weak-memory reorderings.

#![cfg(loom)]

use ft_cmap::ShardedMap;
use loom::sync::Arc;
use loom::thread;

#[test]
fn update_cas_increments_are_never_lost() {
    loom::model(|| {
        let m: Arc<ShardedMap<u64>> = Arc::new(ShardedMap::with_shards(1));
        m.insert_if_absent(0, || 0);
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let m = Arc::clone(&m);
                thread::spawn(move || {
                    for _ in 0..2 {
                        m.update_cas(0, |cur| (Some(cur.copied().unwrap() + 1), ()));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.get(0), Some(4), "an increment was lost");
    });
}

#[test]
fn replace_and_update_cas_linearize() {
    loom::model(|| {
        let m: Arc<ShardedMap<u64>> = Arc::new(ShardedMap::with_shards(1));
        m.insert_if_absent(0, || 0);
        let m1 = Arc::clone(&m);
        let replacer = thread::spawn(move || m1.replace(0, 10).unwrap());
        let m2 = Arc::clone(&m);
        let updater = thread::spawn(move || {
            m2.update_cas(0, |cur| {
                let v = cur.copied().unwrap();
                (Some(v + 1), v)
            })
        });
        let prev = replacer.join().unwrap();
        let seen = updater.join().unwrap();
        let fin = m.get(0).unwrap();
        // Only the two linearization orders are legal:
        //   cas first:     seen = 0, prev = 1, final = 10
        //   replace first: prev = 0, seen = 10, final = 11
        assert!(
            (seen == 0 && prev == 1 && fin == 10) || (prev == 0 && seen == 10 && fin == 11),
            "non-linearizable outcome: prev={prev} seen={seen} final={fin}"
        );
    });
}

#[test]
fn insert_if_absent_race_has_one_winner() {
    loom::model(|| {
        let m: Arc<ShardedMap<u64>> = Arc::new(ShardedMap::with_shards(1));
        let m1 = Arc::clone(&m);
        let a = thread::spawn(move || m1.insert_if_absent(0, || 1));
        let m2 = Arc::clone(&m);
        let b = thread::spawn(move || m2.insert_if_absent(0, || 2));
        let (wa, wb) = (a.join().unwrap(), b.join().unwrap());
        assert!(wa ^ wb, "exactly one insert wins");
        assert_eq!(m.get(0), Some(if wa { 1 } else { 2 }));
        assert_eq!(m.len(), 1);
    });
}

#[test]
fn get_or_insert_with_race_reader_sees_nothing_or_the_winner() {
    loom::model(|| {
        let m: Arc<ShardedMap<u64>> = Arc::new(ShardedMap::with_shards(1));
        let inserters: Vec<_> = [1u64, 2]
            .into_iter()
            .map(|v| {
                let m = Arc::clone(&m);
                thread::spawn(move || m.get_or_insert_with(0, || v))
            })
            .collect();
        let m3 = Arc::clone(&m);
        let reader = thread::spawn(move || m3.get(0));
        let got: Vec<(u64, bool)> = inserters.into_iter().map(|h| h.join().unwrap()).collect();
        let seen = reader.join().unwrap();
        let winners: Vec<u64> = got.iter().filter(|g| g.1).map(|g| g.0).collect();
        assert_eq!(winners.len(), 1, "exactly one inserts: {got:?}");
        let winner = winners[0];
        assert!(
            got.iter().all(|&(v, _)| v == winner),
            "every caller gets the winner's value: {got:?}"
        );
        assert!(
            seen.is_none() || seen == Some(winner),
            "reader saw {seen:?}, winner {winner}"
        );
        assert_eq!(m.get(0), Some(winner));
    });
}

#[test]
fn recovery_table_cas_claims_once_per_life() {
    loom::model(|| {
        let m: Arc<ShardedMap<u64>> = Arc::new(ShardedMap::with_shards(1));
        let claim = |m: &ShardedMap<u64>, life: u64| {
            m.update_cas(0, |cur| match cur {
                None => (Some(life), true),
                Some(&stored) if stored + 1 == life => (Some(life), true),
                Some(_) => (None, false),
            })
        };
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let m = Arc::clone(&m);
                thread::spawn(move || claim(&m, 1))
            })
            .collect();
        let wins: usize = handles
            .into_iter()
            .map(|h| h.join().unwrap() as usize)
            .sum();
        assert_eq!(wins, 1, "exactly one thread claims life 1");
        assert_eq!(m.get(0), Some(1));
    });
}

/// Readers racing `replace` churn on one key: every observed value must be
/// one the single writer actually stored, and — because the writer stores
/// them in increasing order — the sequence of observations must be
/// monotone. A torn read, a value going backwards, or a read of a freed
/// table would all break this.
#[test]
fn reader_sees_only_stored_values_monotonically_during_replace() {
    const LAST: u64 = 6;
    loom::model(|| {
        let m = Arc::new(ShardedMap::<u64>::with_shards(1));
        m.insert_if_absent(1, || 0);
        let m2 = Arc::clone(&m);
        let writer = loom::thread::spawn(move || {
            for v in 1..=LAST {
                m2.replace(1, v);
            }
        });
        let mut last = 0u64;
        loop {
            let v = m.get(1).expect("key 1 vanished mid-churn");
            assert!(v <= LAST, "value {v} was never stored");
            assert!(v >= last, "went backwards: {v} after {last}");
            last = v;
            if v == LAST {
                break;
            }
        }
        writer.join().unwrap();
        assert_eq!(m.get(1), Some(LAST));
    });
}

/// Readers pinned on pre-inserted keys while a writer inserts enough new
/// keys to trigger a table grow (a published table swap). The reader must
/// see its keys throughout — before, during, and after the swap — and
/// never a missing or wrong value.
#[test]
fn reader_survives_table_growth() {
    loom::model(|| {
        let m = Arc::new(ShardedMap::<u64>::with_shards(1));
        // Tables start at 64 slots and grow at load factor 0.7; 40
        // pre-inserted keys put the next writer burst across the
        // threshold.
        for k in 0..40i64 {
            m.insert_if_absent(k, || k as u64 * 10);
        }
        let m2 = Arc::clone(&m);
        let writer = loom::thread::spawn(move || {
            for k in 100..120i64 {
                m2.insert_if_absent(k, || k as u64);
            }
        });
        for _ in 0..30 {
            for k in [0i64, 7, 39] {
                assert_eq!(
                    m.get(k),
                    Some(k as u64 * 10),
                    "pre-inserted key {k} lost or corrupted during growth"
                );
            }
            assert!(!m.contains(999));
        }
        writer.join().unwrap();
        for k in 100..120i64 {
            assert_eq!(m.get(k), Some(k as u64), "writer's key {k} missing");
        }
        assert_eq!(m.len(), 60);
    });
}

/// Two threads race `insert_if_absent` on the same key: exactly one wins,
/// and every subsequent read returns the winner's value.
#[test]
fn insert_if_absent_race_single_winner() {
    loom::model(|| {
        let m = Arc::new(ShardedMap::<u64>::with_shards(1));
        let m2 = Arc::clone(&m);
        let other = loom::thread::spawn(move || m2.insert_if_absent(5, || 111));
        let here = m.insert_if_absent(5, || 222);
        let there = other.join().unwrap();
        assert!(here ^ there, "exactly one insert must win");
        let v = m.get(5).unwrap();
        assert_eq!(v, if here { 222 } else { 111 });
        assert_eq!(m.len(), 1);
    });
}

/// A reader racing `update_cas` increments (the recovery-table pattern):
/// each observation is a value the CAS chain actually produced, and the
/// final value equals the number of increments.
#[test]
fn reader_races_update_cas_chain() {
    const INCS: u64 = 8;
    loom::model(|| {
        let m = Arc::new(ShardedMap::<u64>::with_shards(1));
        let m2 = Arc::clone(&m);
        let writer = loom::thread::spawn(move || {
            for _ in 0..INCS {
                m2.update_cas(3, |cur| {
                    let n = cur.copied().unwrap_or(0) + 1;
                    (Some(n), n)
                });
            }
        });
        let mut last = 0u64;
        for _ in 0..40 {
            if let Some(v) = m.get(3) {
                assert!(v >= 1 && v <= INCS, "value {v} never produced");
                assert!(v >= last, "went backwards: {v} after {last}");
                last = v;
            }
        }
        writer.join().unwrap();
        assert_eq!(m.get(3), Some(INCS));
    });
}

/// A reader racing `replace` interleaved with growth on one key: 44
/// pre-inserted keys put the shard one insert below its growth threshold,
/// and the writer inserts a fresh key before each replace, so the first
/// replace lands in the first table, the second insert swaps it out, and
/// later replaces land in the new one while the reader may still probe
/// the retired one. The reader sees only stored values, monotonically,
/// and once it sees `v` it finds the key inserted before `v` was stored.
#[test]
fn reader_races_replace_and_growth_on_one_key() {
    const LAST: u64 = 4;
    loom::model(|| {
        let m = Arc::new(ShardedMap::<u64>::with_shards(1));
        for k in 0..44i64 {
            m.insert_if_absent(k, || 0);
        }
        let m2 = Arc::clone(&m);
        let writer = thread::spawn(move || {
            for v in 1..=LAST {
                m2.insert_if_absent(100 + v as i64, || v);
                m2.replace(1, v);
            }
        });
        let mut last = 0u64;
        loop {
            let v = m.get(1).expect("key 1 vanished mid-churn");
            assert!(v <= LAST, "value {v} was never stored");
            assert!(v >= last, "went backwards: {v} after {last}");
            if v > 0 {
                assert_eq!(m.get(100 + v as i64), Some(v), "saw {v} before its insert");
            }
            last = v;
            if v == LAST {
                break;
            }
        }
        writer.join().unwrap();
        assert_eq!(m.get(1), Some(LAST));
        assert_eq!(m.len(), 44 + LAST as usize);
    });
}
