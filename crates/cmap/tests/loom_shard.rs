//! Loom models of a single `ShardedMap` shard.
//!
//! Build with `RUSTFLAGS="--cfg loom" cargo test -p ft-cmap --test loom_shard`.
//!
//! Each model pins the map to one shard so every operation contends on the
//! same lock and table, then enumerates the full (tiny) outcome space of a
//! two-thread race: `update_cas` increments must never be lost, a
//! `replace`/`update_cas` pair must produce one of the two linearization
//! orders and nothing else, an `insert_if_absent` race has exactly one
//! winner whose value is the one stored, and a `get_or_insert_with` race
//! hands every caller that winner's value while a concurrent reader sees
//! either nothing or the winner.

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
