//! Lock-striped map for write-hot tables.
//!
//! [`LockedMap`] is API-compatible with [`crate::ShardedMap`], but each
//! shard is an open hash table of in-place values guarded by a
//! `parking_lot::RwLock`: a `get` pays a read-lock acquire/release, and an
//! `update_cas` mutates its slot without allocating. That makes it the
//! table for `RunMetrics::exec_counts` — one counter bump per compute, read
//! only after quiescence — where the seqlock map's boxed, copy-on-write
//! values would cost an allocation per task. It is not `std`'s `HashMap`
//! behind key-sharded mutexes either: that variant deleted 276 lines and
//! lost 4–6 % of `grid_wavefront` `tasks_per_s` (1.61–1.69 M against
//! 1.70–1.74 M over six alternating passes of `benchmark/`, every run
//! below every parent run).

use parking_lot::RwLock;

use crate::map::MapStats;

/// Multiplicative (Fibonacci) hash constant, 2^64 / φ.
const HASH_K: u64 = 0x9E37_79B9_7F4A_7C15;

#[inline]
fn hash_key(key: i64) -> u64 {
    (key as u64).wrapping_mul(HASH_K)
}

/// One entry slot in a shard table.
#[derive(Clone)]
enum Slot<V> {
    Empty,
    Full(i64, V),
}

/// A single shard: linear-probing open hash table.
struct Shard<V> {
    slots: Vec<Slot<V>>,
    len: usize,
}

impl<V: Clone> Shard<V> {
    fn new(cap: usize) -> Self {
        Shard {
            slots: vec![Slot::Empty; cap],
            len: 0,
        }
    }

    fn probe(&self, key: i64) -> Option<usize> {
        let mask = self.slots.len() - 1;
        let mut i = (hash_key(key) as usize) & mask;
        loop {
            match &self.slots[i] {
                Slot::Empty => return None,
                Slot::Full(k, _) if *k == key => return Some(i),
                _ => i = (i + 1) & mask,
            }
        }
    }

    fn grow_if_needed(&mut self) {
        // Keep load factor below 0.7.
        if self.len * 10 < self.slots.len() * 7 {
            return;
        }
        let new_cap = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![Slot::Empty; new_cap]);
        let mask = new_cap - 1;
        for slot in old {
            if let Slot::Full(k, v) = slot {
                let mut i = (hash_key(k) as usize) & mask;
                while !matches!(self.slots[i], Slot::Empty) {
                    i = (i + 1) & mask;
                }
                self.slots[i] = Slot::Full(k, v);
            }
        }
    }

    fn insert_if_absent(&mut self, key: i64, make: impl FnOnce() -> V) -> bool {
        if self.probe(key).is_some() {
            return false;
        }
        self.grow_if_needed();
        let mask = self.slots.len() - 1;
        let mut i = (hash_key(key) as usize) & mask;
        while matches!(self.slots[i], Slot::Full(..)) {
            i = (i + 1) & mask;
        }
        self.slots[i] = Slot::Full(key, make());
        self.len += 1;
        true
    }

    fn replace(&mut self, key: i64, value: V) -> Option<V> {
        if let Some(i) = self.probe(key) {
            if let Slot::Full(_, v) = std::mem::replace(&mut self.slots[i], Slot::Full(key, value))
            {
                return Some(v);
            }
            unreachable!("probe returned a full slot");
        }
        self.grow_if_needed();
        let mask = self.slots.len() - 1;
        let mut i = (hash_key(key) as usize) & mask;
        while matches!(self.slots[i], Slot::Full(..)) {
            i = (i + 1) & mask;
        }
        self.slots[i] = Slot::Full(key, value);
        self.len += 1;
        None
    }
}

/// The lock-based sharded map kept as the ablation baseline.
pub struct LockedMap<V> {
    shards: Vec<RwLock<Shard<V>>>,
    shift: u32,
}

impl<V> std::fmt::Debug for LockedMap<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LockedMap")
            .field("shards", &self.shards.len())
            .finish()
    }
}

impl<V: Clone> Default for LockedMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Clone> LockedMap<V> {
    /// Map with a default shard count (4× available cores, power of two).
    pub fn new() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(8);
        Self::with_shards((cores * 4).next_power_of_two())
    }

    /// Map with an explicit shard count (rounded up to a power of two).
    pub fn with_shards(shards: usize) -> Self {
        let shards = shards.max(1).next_power_of_two();
        LockedMap {
            shards: (0..shards).map(|_| RwLock::new(Shard::new(64))).collect(),
            shift: 64 - shards.trailing_zeros(),
        }
    }

    #[inline]
    fn shard_for(&self, key: i64) -> &RwLock<Shard<V>> {
        // High bits pick the shard; low bits drive in-shard probing.
        let idx = if self.shards.len() == 1 {
            0
        } else {
            (hash_key(key) >> self.shift) as usize
        };
        &self.shards[idx]
    }

    /// Insert `make()` under `key` if no entry exists; true if inserted.
    pub fn insert_if_absent(&self, key: i64, make: impl FnOnce() -> V) -> bool {
        self.shard_for(key).write().insert_if_absent(key, make)
    }

    /// Clone out the current value for `key` (takes the shard read lock).
    pub fn get(&self, key: i64) -> Option<V> {
        let shard = self.shard_for(key).read();
        shard.probe(key).map(|i| match &shard.slots[i] {
            Slot::Full(_, v) => v.clone(),
            Slot::Empty => unreachable!(),
        })
    }

    /// True if the map has an entry for `key`.
    pub fn contains(&self, key: i64) -> bool {
        self.shard_for(key).read().probe(key).is_some()
    }

    /// Insert or overwrite, returning the previous value if any.
    pub fn replace(&self, key: i64, value: V) -> Option<V> {
        self.shard_for(key).write().replace(key, value)
    }

    /// Atomically read-modify-write the entry for `key` (see
    /// [`crate::ShardedMap::update_cas`]).
    pub fn update_cas<R>(&self, key: i64, f: impl FnOnce(Option<&V>) -> (Option<V>, R)) -> R {
        let mut shard = self.shard_for(key).write();
        let current = shard.probe(key);
        let (new, ret) = match current {
            Some(i) => match &shard.slots[i] {
                Slot::Full(_, v) => f(Some(v)),
                Slot::Empty => unreachable!(),
            },
            None => f(None),
        };
        if let Some(v) = new {
            shard.replace(key, v);
        }
        ret
    }

    /// Total number of entries.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len).sum()
    }

    /// True if no entries exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Occupancy statistics for diagnostics/ablation.
    pub fn stats(&self) -> MapStats {
        let lens: Vec<usize> = self.shards.iter().map(|s| s.read().len).collect();
        MapStats {
            len: lens.iter().sum(),
            shards: self.shards.len(),
            max_shard_len: lens.into_iter().max().unwrap_or(0),
        }
    }

    /// Snapshot of all `(key, value)` pairs. Not atomic across shards; used
    /// only after quiescence (metrics, verification).
    pub fn entries(&self) -> Vec<(i64, V)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = shard.read();
            for slot in &shard.slots {
                if let Slot::Full(k, v) = slot {
                    out.push((*k, v.clone()));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locked_map_basic_ops() {
        let m = LockedMap::with_shards(4);
        assert!(m.insert_if_absent(1, || "a"));
        assert!(!m.insert_if_absent(1, || "b"));
        assert_eq!(m.get(1), Some("a"));
        assert_eq!(m.replace(1, "c"), Some("a"));
        assert_eq!(m.get(1), Some("c"));
        assert!(m.contains(1));
        assert!(!m.contains(9));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn locked_map_growth() {
        let m = LockedMap::with_shards(1);
        for k in 0..5_000i64 {
            assert!(m.insert_if_absent(k, || k * 2));
        }
        for k in 0..5_000i64 {
            assert_eq!(m.get(k), Some(k * 2));
        }
        assert_eq!(m.stats().len, 5_000);
    }

    #[test]
    fn locked_map_update_cas() {
        let m: LockedMap<u64> = LockedMap::with_shards(2);
        let out = m.update_cas(3, |cur| {
            assert!(cur.is_none());
            (Some(7), "stored")
        });
        assert_eq!(out, "stored");
        assert_eq!(m.get(3), Some(7));
    }
}
