//! Sharded concurrent hash map with lock-free reads.
//!
//! Keys are `i64` task keys (the paper fixes `int64_t` keys); values are
//! [`Word`]s — `Copy` values that round-trip through one `u64` — stored
//! inline in the slot. The scheduler stores arena handles, which matches the
//! paper's "the hash map stores the pointers to the tasks and not the tasks
//! themselves": a probe returns the handle itself, with no box to follow
//! and nothing to clone. Each shard is an open hash table (linear probing,
//! rebuilt on growth) whose readers never take a lock. A shard consists of
//!
//! * an atomically published pointer to the current probe table, on one
//!   cache line that only growth writes, and
//! * a `Mutex` serializing writers, with the entry count it guards, on the
//!   next line — every insert writes this line, no reader loads it.
//!
//! A slot is two atomic words, `key` and `val`; `key == VACANT` (`i64::MIN`)
//! marks it empty, so `i64::MIN` is the one key the map cannot store: an
//! insert of it panics, and a read of it finds nothing. **Keys are
//! write-once**: the map inserts, gets and replaces, and never removes an
//! entry (Figures 2–3 never remove a task), so a published key never
//! changes. An insert stores the value word, then publishes the key
//! (`Release`); a `replace` or `update_cas` is one `Release` store of the
//! new value word in place. A read is one `Acquire` load of the table
//! pointer and one probe that `Acquire`-loads keys and, on a hit, the value
//! word: it sees each store whole or not at all, so it never retries.
//!
//! Growth builds the doubled table privately, publishes it (`Release`) and
//! retires the old one. Every writer locks and works on the current table,
//! so a retired table is frozen: a reader still probing it returns the
//! entry as it stood at some instant between its table load and the swap,
//! and a reader that happens-after a write loads that write's table (see
//! `#map-publish` in `docs/ALGORITHM.md`).
//!
//! **Memory reclamation:** values own nothing, so the only garbage is a
//! retired probe table. It goes on a per-shard list and is freed when the
//! map drops, never while a reader could still hold its pointer — O(log n)
//! tables per shard, independent of how many values are replaced.
//!
//! The shard for a key is selected by a Fibonacci-hash of the key, which
//! also serves as the in-shard probe start; shard selection uses the high
//! bits and probing the low bits so the two are decorrelated.

use ft_sync::atomic::{AtomicI64, AtomicPtr, AtomicU64, Ordering};
use ft_sync::Word;
use parking_lot::{Mutex, MutexGuard};
use std::marker::PhantomData;
use std::sync::OnceLock;

/// Multiplicative (Fibonacci) hash constant, 2^64 / φ.
const HASH_K: u64 = 0x9E37_79B9_7F4A_7C15;

/// The key word of an empty slot, and so the one key no entry may have.
const VACANT: i64 = i64::MIN;

#[inline]
fn hash_key(key: i64) -> u64 {
    (key as u64).wrapping_mul(HASH_K)
}

/// One slot of a probe table: 16 bytes, four to a cache line. Once `key`
/// is published it never changes; `val` changes only under the shard
/// lock, one atomic store at a time.
struct Slot {
    key: AtomicI64,
    val: AtomicU64,
}

/// An immutable-capacity probe table. Replaced wholesale on growth; the
/// superseded table is retired, never freed mid-run, and no writer touches
/// it again, so a reader holding its pointer probes a frozen table.
struct Table {
    mask: usize,
    slots: Box<[Slot]>,
}

impl Table {
    fn new_boxed(cap: usize) -> Box<Self> {
        debug_assert!(cap.is_power_of_two());
        let slots = (0..cap)
            .map(|_| Slot {
                key: AtomicI64::new(VACANT),
                val: AtomicU64::new(0),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Box::new(Table {
            mask: cap - 1,
            slots,
        })
    }
}

/// Writer-side shard state, serialized by the shard mutex.
struct WriterState {
    len: usize,
    /// Tables superseded by growth; freed on map drop.
    retired_tables: Vec<*mut Table>,
}

/// The writer mutex, alone on its cache line.
#[repr(align(64))]
struct WriterLine(Mutex<WriterState>);

/// A single shard: the header readers load on line 0, the writer lock on
/// line 1, so an insert's lock traffic never invalidates a reader's line.
#[repr(C, align(64))]
struct Shard {
    /// Current probe table, swapped on growth.
    table: AtomicPtr<Table>,
    writer: WriterLine,
}

// SAFETY: the raw table pointers in `table`/`WriterState` are owned by the
// shard and follow the retire-until-drop protocol documented above, so
// moving the shard between threads transfers sole ownership of every
// allocation it frees. The shard holds no values, only their words.
unsafe impl Send for Shard {}
// SAFETY: all state shared between threads is atomics or the writer mutex,
// and retired tables stay live until drop — so `&Shard` used from many
// threads never yields a dangling or aliased-mutable access.
unsafe impl Sync for Shard {}

impl Shard {
    fn new(cap: usize) -> Self {
        Shard {
            table: AtomicPtr::new(Box::into_raw(Table::new_boxed(cap))),
            writer: WriterLine(Mutex::new(WriterState {
                len: 0,
                retired_tables: Vec::new(),
            })),
        }
    }

    fn lock(&self) -> MutexGuard<'_, WriterState> {
        self.writer.0.lock()
    }

    /// The current table. The writer state is the witness that the caller
    /// holds the lock.
    fn table_locked<'a>(&'a self, _held: &'a WriterState) -> &'a Table {
        // ord: Relaxed — the lock acquisition orders this load against the
        // previous holder's swap.
        let t = self.table.load(Ordering::Relaxed);
        // SAFETY: tables are swapped (and the old one retired, not freed)
        // only under the writer lock, which the caller holds for 'a.
        unsafe { &*t }
    }

    // ft-lint: hot-path begin(map-read)

    /// Lock-free read: load the published table, probe it, and load the
    /// value word of a hit.
    fn read(&self, key: i64) -> Option<u64> {
        // ord: Acquire — pairs with the Release table publication in
        // `grow_if_needed`, so the pointed-to table is fully initialized.
        let table = self.table.load(Ordering::Acquire);
        // SAFETY: published tables are retired on growth, never freed
        // while the map lives, so the pointer is always dereferenceable;
        // a retired table is frozen, so probing it is a consistent read.
        let t = unsafe { &*table };
        // ord: Acquire — pairs with the Release store that wrote the word
        // (`store_value`, or the insert the key load already acquired):
        // a reader of the word sees what it refers to.
        Self::cell(t, key).map(|cell| cell.load(Ordering::Acquire))
    }

    /// The value cell of `key` in `t`, if present (never for `VACANT`: its
    /// probe stops at the first empty slot). Lock-free; writers call it
    /// under the lock with the current table.
    fn cell(t: &Table, key: i64) -> Option<&AtomicU64> {
        let mut i = (hash_key(key) as usize) & t.mask;
        // A table's load factor stays below 0.7 and keys are never
        // removed, so every probe chain ends in an empty slot.
        loop {
            let slot = &t.slots[i];
            // ord: Acquire — pairs with the Release key store in
            // `insert_locked`: a published key implies its value word (and,
            // for a handle, its pointee) is visible.
            match slot.key.load(Ordering::Acquire) {
                VACANT => return None,
                k if k == key => return Some(&slot.val),
                _ => i = (i + 1) & t.mask,
            }
        }
    }

    // ft-lint: hot-path end(map-read)

    /// Insert `(key, word)` for an absent key, growing first if needed.
    /// Caller holds the lock (`w` is its state) and has probed the key.
    /// A concurrent reader sees the entry absent (a miss, linearized
    /// before) or present (a hit). Panics on `VACANT`, which no slot can
    /// hold; the lock does not poison, so the shard stays usable.
    fn insert_locked(&self, w: &mut WriterState, key: i64, word: u64) {
        assert!(
            key != VACANT,
            "ShardedMap cannot store key {key} (i64::MIN)"
        );
        let t = self.grow_if_needed(w);
        let mut i = (hash_key(key) as usize) & t.mask;
        // ord: Relaxed — lock-serialized probe for the first empty slot.
        while t.slots[i].key.load(Ordering::Relaxed) != VACANT {
            i = (i + 1) & t.mask;
        }
        // ord: Relaxed — ordered by the Release key store below.
        t.slots[i].val.store(word, Ordering::Relaxed);
        // ord: Release — the value word and whatever it refers to are
        // visible to any reader that Acquire-loads this key.
        t.slots[i].key.store(key, Ordering::Release);
        w.len += 1;
    }

    /// Overwrite an occupied value cell, returning the word it held.
    /// Caller holds the lock. One atomic store: a reader sees the old word
    /// or the new one.
    fn store_value(&self, cell: &AtomicU64, word: u64) -> u64 {
        // ord: Relaxed — lock-serialized read of the current word.
        let old = cell.load(Ordering::Relaxed);
        // ord: Release — pairs with the readers' Acquire load of the value
        // word in `read`: a reader that reads this word sees what it
        // refers to.
        cell.store(word, Ordering::Release);
        old
    }

    /// Grow (double) the table if the load factor reached 0.7, publishing
    /// the new table and retiring the old one. Caller must hold the lock.
    ///
    /// Returns the current table, live while the lock is held.
    fn grow_if_needed(&self, w: &mut WriterState) -> &Table {
        // ord: Relaxed — caller holds the writer lock, which serializes
        // every table swap.
        let old_ptr = self.table.load(Ordering::Relaxed);
        // SAFETY: the current table is live until retired, and retiring
        // happens only below in this lock-serialized function.
        let old = unsafe { &*old_ptr };
        let cap = old.mask + 1;
        if w.len * 10 < cap * 7 {
            return old;
        }
        let new = Table::new_boxed(cap * 2);
        for slot in old.slots.iter() {
            // ord: Relaxed — old-table reads are lock-serialized and the
            // new table is private until published: no reader can see
            // these loads or the stores below out of order.
            let k = slot.key.load(Ordering::Relaxed);
            if k == VACANT {
                continue;
            }
            // ord: Relaxed — lock-serialized old-table read, as above.
            let v = slot.val.load(Ordering::Relaxed);
            let mut i = (hash_key(k) as usize) & new.mask;
            // ord: Relaxed — the new table is private until published.
            while new.slots[i].key.load(Ordering::Relaxed) != VACANT {
                i = (i + 1) & new.mask;
            }
            // ord: Relaxed — private table; the Release publication of
            // `table` below makes these stores visible to readers.
            new.slots[i].val.store(v, Ordering::Relaxed);
            new.slots[i].key.store(k, Ordering::Relaxed);
        }
        let new_ptr = Box::into_raw(new);
        // ord: Release — publishes the fully populated table to readers'
        // Acquire load in `read`. From here on no writer touches `old`.
        self.table.store(new_ptr, Ordering::Release);
        w.retired_tables.push(old_ptr);
        // SAFETY: just published; retired only by a later grow, which
        // needs the lock the caller holds.
        unsafe { &*new_ptr }
    }
}

impl Drop for Shard {
    fn drop(&mut self) {
        let w = self.writer.0.get_mut();
        // ord: Relaxed — `&mut self` proves exclusivity; every reader and
        // writer synchronized-with this thread before the drop.
        let t = self.table.load(Ordering::Relaxed);
        // SAFETY: exclusive access (`&mut self`); the current table and
        // every retired one were each `Box::into_raw`ed exactly once and
        // are freed exactly once here. Values own nothing.
        unsafe {
            drop(Box::from_raw(t));
            for &tp in &w.retired_tables {
                drop(Box::from_raw(tp));
            }
        }
    }
}

/// A sharded concurrent hash map from `i64` task keys to [`Word`] values,
/// with lock-free reads over write-once keys.
///
/// Every key except `i64::MIN` is storable: that one marks an empty slot,
/// so looking it up finds nothing and inserting it (`get_or_insert_with`,
/// `insert_if_absent`, `replace`, or an `update_cas` that stores) panics.
/// The scheduler never asks: `i64::MIN` is a reserved task key.
pub struct ShardedMap<V> {
    shards: Vec<Shard>,
    shift: u32,
    /// The map moves `V`s between threads by copying their words and never
    /// shares one by reference, so it is `Send` and `Sync` exactly when
    /// `V: Send` — the auto-trait rule of `Mutex<V>`, which this borrows.
    _values: PhantomData<std::sync::Mutex<V>>,
}

impl<V> std::fmt::Debug for ShardedMap<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedMap")
            .field("shards", &self.shards.len())
            .finish()
    }
}

impl<V: Word> Default for ShardedMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Word> ShardedMap<V> {
    /// Map with a default shard count (4× available cores, rounded up to a
    /// power of two) — enough striping that the scheduler's task map is not
    /// a bottleneck at full core count. The count is computed once per
    /// process: `available_parallelism` reads the cgroup limits on every
    /// call, which cost more than building the map.
    pub fn new() -> Self {
        static DEFAULT_SHARDS: OnceLock<usize> = OnceLock::new();
        let shards = *DEFAULT_SHARDS.get_or_init(|| {
            let cores = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(8);
            (cores * 4).next_power_of_two()
        });
        Self::with_shards(shards)
    }

    /// Map with an explicit shard count (rounded up to a power of two).
    pub fn with_shards(shards: usize) -> Self {
        let shards = shards.max(1).next_power_of_two();
        ShardedMap {
            shards: (0..shards).map(|_| Shard::new(64)).collect(),
            shift: 64 - shards.trailing_zeros(),
            _values: PhantomData,
        }
    }

    #[inline]
    fn shard_for(&self, key: i64) -> &Shard {
        // High bits pick the shard; low bits drive in-shard probing.
        let idx = if self.shards.len() == 1 {
            0
        } else {
            (hash_key(key) >> self.shift) as usize
        };
        &self.shards[idx]
    }

    /// A stored word back as its value.
    #[inline]
    fn value(word: u64) -> V {
        // SAFETY: every word in the map's slots was stored from `into_word`
        // on a `V` (`get_or_insert_with`, `replace`, `update_cas` are the
        // only stores of a value word).
        unsafe { V::from_word(word) }
    }

    /// `InsertTaskIfAbsent` + `GetTask` in one probe: the value under
    /// `key`, inserting `make()` first if no entry exists. Returns the
    /// value and whether this call inserted it. `make` runs under the
    /// shard lock only when an insert actually happens, so concurrent
    /// callers on one key all get the single winner's value.
    ///
    /// Read before lock: a lock-free hit returns without touching the
    /// shard mutex — the traversal calls this once per graph edge and
    /// finds the key present on all but the first. The hit linearizes at
    /// the probe; only a miss takes the writer lock, and re-probes under it.
    pub fn get_or_insert_with(&self, key: i64, make: impl FnOnce() -> V) -> (V, bool) {
        let shard = self.shard_for(key);
        if let Some(word) = shard.read(key) {
            return (Self::value(word), false);
        }
        let mut w = shard.lock();
        if let Some(cell) = Shard::cell(shard.table_locked(&w), key) {
            // ord: Relaxed — lock-serialized: every store of a value word
            // happens under the lock this caller holds.
            return (Self::value(cell.load(Ordering::Relaxed)), false);
        }
        let v = make();
        shard.insert_locked(&mut w, key, v.into_word());
        (v, true)
    }

    /// `InsertTaskIfAbsent`: [`ShardedMap::get_or_insert_with`], keeping
    /// only whether this call inserted.
    pub fn insert_if_absent(&self, key: i64, make: impl FnOnce() -> V) -> bool {
        self.get_or_insert_with(key, make).1
    }

    /// `GetTask`: the current value for `key`. Lock-free and wait-free:
    /// one table load and one probe.
    pub fn get(&self, key: i64) -> Option<V> {
        self.shard_for(key).read(key).map(Self::value)
    }

    /// True if the map has an entry for `key`. Same lock-free path as
    /// [`ShardedMap::get`].
    pub fn contains(&self, key: i64) -> bool {
        self.shard_for(key).read(key).is_some()
    }

    /// `ReplaceTask`: insert or overwrite the value under `key`, returning
    /// the previous value if any.
    pub fn replace(&self, key: i64, value: V) -> Option<V> {
        let shard = self.shard_for(key);
        let mut w = shard.lock();
        if let Some(cell) = Shard::cell(shard.table_locked(&w), key) {
            return Some(Self::value(shard.store_value(cell, value.into_word())));
        }
        shard.insert_locked(&mut w, key, value.into_word());
        None
    }

    /// Atomically read-modify-write the entry for `key`.
    ///
    /// `f` receives the current value (if any) and returns `Some(new)` to
    /// store or `None` to leave the entry untouched. Returns the value the
    /// closure decided on, i.e. `f`'s output. This is the primitive behind
    /// the recovery table's `AtomicCompAndSwap(stored, life-1, life)`.
    pub fn update_cas<R>(&self, key: i64, f: impl FnOnce(Option<&V>) -> (Option<V>, R)) -> R {
        let shard = self.shard_for(key);
        let mut w = shard.lock();
        let cell = Shard::cell(shard.table_locked(&w), key);
        // ord: Relaxed — lock-serialized, as in `get_or_insert_with`.
        let cur = cell.map(|c| Self::value(c.load(Ordering::Relaxed)));
        let (new, ret) = f(cur.as_ref());
        match (new, cell) {
            (Some(v), Some(cell)) => {
                shard.store_value(cell, v.into_word());
            }
            (Some(v), None) => shard.insert_locked(&mut w, key, v.into_word()),
            (None, _) => {}
        }
        ret
    }

    /// Total number of entries (takes each shard writer lock once).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len).sum()
    }

    /// True if no entries exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of all `(key, value)` pairs. Not atomic across shards; used
    /// only after quiescence (metrics, verification).
    pub fn entries(&self) -> Vec<(i64, V)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let w = shard.lock();
            let t = shard.table_locked(&w);
            for slot in t.slots.iter() {
                // ord: Relaxed — slot reads are lock-serialized here.
                let k = slot.key.load(Ordering::Relaxed);
                if k != VACANT {
                    // ord: Relaxed — lock-serialized slot read, as above.
                    out.push((k, Self::value(slot.val.load(Ordering::Relaxed))));
                }
            }
        }
        out
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use ft_sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Barrier};
    use std::thread;

    #[test]
    fn insert_get_replace() {
        let m = ShardedMap::with_shards(4);
        assert!(m.insert_if_absent(1, || 10u64));
        assert!(!m.insert_if_absent(1, || 11));
        assert_eq!(m.get(1), Some(10));
        assert_eq!(m.replace(1, 12), Some(10));
        assert_eq!(m.get(1), Some(12));
        assert_eq!(m.replace(2, 13), None);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn get_missing_is_none() {
        let m: ShardedMap<u64> = ShardedMap::with_shards(2);
        assert_eq!(m.get(42), None);
        assert!(!m.contains(42));
        assert!(m.is_empty());
    }

    #[test]
    fn negative_and_extreme_keys() {
        let m = ShardedMap::with_shards(8);
        for k in [i64::MIN + 1, -1, 0, 1, i64::MAX] {
            assert!(m.insert_if_absent(k, || k));
            assert_eq!(m.get(k), Some(k));
        }
        assert_eq!(m.len(), 5);
    }

    #[test]
    #[should_panic(expected = "cannot store key -9223372036854775808")]
    fn inserting_the_vacant_key_panics() {
        // `i64::MIN` marks an empty slot: a read finds nothing, an insert
        // panics instead of storing an entry no probe could find.
        let m: ShardedMap<u64> = ShardedMap::with_shards(1);
        assert_eq!(m.get(VACANT), None);
        assert!(!m.contains(VACANT));
        m.insert_if_absent(VACANT, || 1);
    }

    #[test]
    fn growth_preserves_entries() {
        let m = ShardedMap::with_shards(1);
        for k in 0..10_000i64 {
            assert!(m.insert_if_absent(k, || k * 2));
        }
        for k in 0..10_000i64 {
            assert_eq!(m.get(k), Some(k * 2), "key {k}");
        }
        assert_eq!(m.len(), 10_000);
    }

    #[test]
    fn make_not_called_when_present() {
        let m = ShardedMap::with_shards(2);
        let calls = AtomicUsize::new(0);
        m.insert_if_absent(5, || {
            calls.fetch_add(1, Ordering::Relaxed);
            1u64
        });
        m.insert_if_absent(5, || {
            calls.fetch_add(1, Ordering::Relaxed);
            2
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn get_or_insert_with_returns_the_stored_value() {
        let m: ShardedMap<bool> = ShardedMap::with_shards(2);
        assert_eq!(m.get_or_insert_with(3, || true), (true, true));
        assert_eq!(m.get_or_insert_with(3, || false), (true, false));
        assert_eq!(m.get_or_insert_with(4, || false), (false, true));
        assert_eq!(m.get(3), Some(true));
        assert_eq!(m.get(4), Some(false));
    }

    #[test]
    fn update_cas_models_recovery_table() {
        // IsRecovering semantics: insert life if absent (first observer
        // recovers); else CAS stored == life-1 -> life.
        let m: ShardedMap<u64> = ShardedMap::with_shards(4);
        let key = 9;
        let is_recovering = |life: u64| -> bool {
            m.update_cas(key, |cur| match cur {
                None => (Some(life), false),
                Some(&stored) if stored == life - 1 => (Some(life), false),
                Some(_) => (None, true),
            })
        };
        assert!(!is_recovering(1), "first observer recovers life 1");
        assert!(is_recovering(1), "second observer of life 1 does not");
        assert!(!is_recovering(2), "first observer of life 2 recovers");
        assert!(is_recovering(2));
        assert!(is_recovering(2));
    }

    #[test]
    fn entries_snapshot() {
        let m = ShardedMap::with_shards(4);
        for k in 0..50 {
            m.insert_if_absent(k, || k * 3);
        }
        let mut entries = m.entries();
        entries.sort();
        assert_eq!(entries.len(), 50);
        for (i, (k, v)) in entries.iter().enumerate() {
            assert_eq!(*k, i as i64);
            assert_eq!(*v, *k * 3);
        }
    }

    #[test]
    fn concurrent_insert_if_absent_exactly_one_winner() {
        let m: Arc<ShardedMap<usize>> = Arc::new(ShardedMap::with_shards(16));
        let winners = Arc::new(AtomicUsize::new(0));
        thread::scope(|s| {
            for tid in 0..8 {
                let m = Arc::clone(&m);
                let winners = Arc::clone(&winners);
                s.spawn(move || {
                    for k in 0..1000i64 {
                        if m.insert_if_absent(k, || tid) {
                            winners.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(winners.load(Ordering::Relaxed), 1000);
        assert_eq!(m.len(), 1000);
    }

    #[test]
    fn get_or_insert_with_on_one_key_every_caller_gets_the_winner() {
        // N threads released together onto the same key, key after key, on
        // one shard: exactly one inserts, and every caller — winner and
        // losers alike — returns the winner's value.
        const N: usize = 6;
        const KEYS: usize = 300;
        let m: ShardedMap<usize> = ShardedMap::with_shards(1);
        let barrier = Barrier::new(N);
        let got: Vec<Vec<(usize, bool)>> = thread::scope(|s| {
            let handles: Vec<_> = (0..N)
                .map(|tid| {
                    let (m, barrier) = (&m, &barrier);
                    s.spawn(move || {
                        (0..KEYS)
                            .map(|k| {
                                barrier.wait();
                                m.get_or_insert_with(k as i64, || tid)
                            })
                            .collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for k in 0..KEYS {
            let calls: Vec<(usize, bool)> = got.iter().map(|per| per[k]).collect();
            let winners: Vec<usize> = (0..N).filter(|&t| calls[t].1).collect();
            assert_eq!(winners.len(), 1, "key {k}: inserters {winners:?}");
            let winner = winners[0];
            for (tid, &(v, _)) in calls.iter().enumerate() {
                assert_eq!(v, winner, "key {k}: caller {tid} saw {v}, winner {winner}");
            }
            assert_eq!(m.get(k as i64), Some(winner));
        }
    }

    #[test]
    fn get_or_insert_with_races_replace() {
        // Per key, released together: two `get_or_insert_with` callers and
        // one `replace(k, R)`. Exactly one of the three creates the entry;
        // an inserter that loses returns the other inserter's value or R,
        // never anything else; `replace` displaces an inserter's value
        // exactly when it did not create the entry; R is what stays.
        const KEYS: i64 = 400;
        const R: u64 = 99;
        let m: ShardedMap<u64> = ShardedMap::with_shards(1);
        let barrier = Barrier::new(3);
        let created = AtomicUsize::new(0);
        thread::scope(|s| {
            for tid in 0..2u64 {
                let (m, barrier, created) = (&m, &barrier, &created);
                s.spawn(move || {
                    for k in 0..KEYS {
                        barrier.wait();
                        let (v, inserted) = m.get_or_insert_with(k, || tid);
                        if inserted {
                            assert_eq!(v, tid);
                            created.fetch_add(1, Ordering::Relaxed);
                        } else {
                            assert!(v == 1 - tid || v == R, "key {k}: saw {v}");
                        }
                    }
                });
            }
            let (m, barrier, created) = (&m, &barrier, &created);
            s.spawn(move || {
                for k in 0..KEYS {
                    barrier.wait();
                    match m.replace(k, R) {
                        None => {
                            created.fetch_add(1, Ordering::Relaxed);
                        }
                        Some(prev) => assert!(prev < 2, "key {k}: displaced {prev}"),
                    }
                }
            });
        });
        assert_eq!(created.load(Ordering::Relaxed), KEYS as usize);
        for k in 0..KEYS {
            assert_eq!(m.get(k), Some(R));
        }
    }

    #[test]
    fn insert_if_absent_races_inserter_and_replace_exactly_once() {
        // Per key, released together by a barrier: two `insert_if_absent`
        // callers and one `replace` (which inserts when the key is absent
        // and otherwise overwrites the value the lock-free pre-probe may be
        // reading). One shard, so every operation interferes with every
        // other. Exactly one of the three creates the entry, `make` runs
        // only for a winning `insert_if_absent`, and the losers' `false`
        // is never a lie: the key is present when they return.
        const KEYS: i64 = 400;
        let m: ShardedMap<u64> = ShardedMap::with_shards(1);
        let made = AtomicUsize::new(0);
        let won = AtomicUsize::new(0);
        let created = AtomicUsize::new(0);
        let barrier = Barrier::new(3);
        thread::scope(|s| {
            for tid in 0..2u64 {
                let (m, made, won, created, barrier) = (&m, &made, &won, &created, &barrier);
                s.spawn(move || {
                    for k in 0..KEYS {
                        barrier.wait();
                        let inserted = m.insert_if_absent(k, || {
                            made.fetch_add(1, Ordering::Relaxed);
                            tid
                        });
                        if inserted {
                            won.fetch_add(1, Ordering::Relaxed);
                            created.fetch_add(1, Ordering::Relaxed);
                        }
                        assert!(m.contains(k), "key {k} absent after insert_if_absent");
                    }
                });
            }
            let (m, created, barrier) = (&m, &created, &barrier);
            s.spawn(move || {
                for k in 0..KEYS {
                    barrier.wait();
                    if m.replace(k, 2).is_none() {
                        created.fetch_add(1, Ordering::Relaxed);
                    }
                    // Churn the previous key too: a value store on a
                    // neighbouring slot while the others probe for `k`.
                    if k > 0 {
                        m.replace(k - 1, 3);
                    }
                }
            });
        });
        assert_eq!(created.load(Ordering::Relaxed), KEYS as usize);
        assert_eq!(made.load(Ordering::Relaxed), won.load(Ordering::Relaxed));
        assert_eq!(m.len(), KEYS as usize);
    }

    #[test]
    fn concurrent_mixed_workload() {
        let m: Arc<ShardedMap<i64>> = Arc::new(ShardedMap::with_shards(8));
        thread::scope(|s| {
            for t in 0..4 {
                let m = Arc::clone(&m);
                s.spawn(move || {
                    for k in 0..5000i64 {
                        match (k + t) % 3 {
                            0 => {
                                m.insert_if_absent(k, || k);
                            }
                            1 => {
                                if let Some(v) = m.get(k) {
                                    assert!(v == k || v == -k);
                                }
                            }
                            _ => {
                                m.update_cas(k, |cur| match cur {
                                    Some(&v) => (Some(v), ()),
                                    None => (None, ()),
                                });
                            }
                        }
                    }
                });
            }
        });
        // All inserted values are self-consistent.
        for (k, v) in m.entries() {
            assert_eq!(k, v);
        }
    }

    #[test]
    fn readers_never_block_through_growth_churn() {
        // One shard so every write interferes with every read: growth and
        // replace storms must still leave readers returning consistent
        // values, whether they probe the current table or a retired one.
        let m: Arc<ShardedMap<u64>> = Arc::new(ShardedMap::with_shards(1));
        m.insert_if_absent(-1, || 7);
        let stop = Arc::new(ft_sync::atomic::AtomicBool::new(false));
        thread::scope(|s| {
            for _ in 0..3 {
                let m = Arc::clone(&m);
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    // Read before looking at `stop`: on a loaded box a
                    // reader may first be scheduled after the writer is done.
                    loop {
                        assert_eq!(m.get(-1), Some(7), "pinned key lost");
                        assert_eq!(m.get(i64::MIN), None, "phantom key appeared");
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                    }
                });
            }
            let m2 = Arc::clone(&m);
            s.spawn(move || {
                for k in 0..20_000i64 {
                    m2.insert_if_absent(k, || k as u64);
                    if k % 64 == 0 {
                        m2.replace(k, k as u64);
                    }
                }
                stop.store(true, Ordering::Release);
            });
        });
        assert_eq!(m.len(), 20_001);
    }

    #[test]
    fn replace_churn_readers_see_monotonic_values() {
        // A writer bumps one key 0→N; readers must only ever observe values
        // that were actually stored, never a torn one. Every `EVERY`
        // replaces the writer first inserts a fresh key, so the single
        // shard grows six times (64 → 4096 slots) mid-churn: readers keep
        // probing tables that a swap has retired while later replaces land
        // in the new one. A reader that sees `v` happens-after the insert
        // of key `v / EVERY`, so its next read must find that key too.
        let m: Arc<ShardedMap<u64>> = Arc::new(ShardedMap::with_shards(1));
        m.insert_if_absent(0, || 0);
        const N: u64 = 30_000;
        const EVERY: u64 = 20;
        thread::scope(|s| {
            for _ in 0..3 {
                let m = Arc::clone(&m);
                s.spawn(move || {
                    let mut last = 0u64;
                    loop {
                        let v = m.get(0).expect("key 0 always present");
                        assert!(v >= last, "value went backwards: {last} -> {v}");
                        assert!(v <= N);
                        let k = v / EVERY;
                        if k > 0 {
                            assert_eq!(m.get(k as i64), Some(k), "saw {v}, key {k} missing");
                        }
                        last = v;
                        if v == N {
                            break;
                        }
                    }
                });
            }
            let m2 = Arc::clone(&m);
            s.spawn(move || {
                for v in 1..=N {
                    if v % EVERY == 0 {
                        m2.insert_if_absent((v / EVERY) as i64, || v / EVERY);
                    }
                    m2.replace(0, v);
                }
            });
        });
        assert_eq!(m.len(), 1 + (N / EVERY) as usize);
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        let m: ShardedMap<u64> = ShardedMap::with_shards(5);
        assert_eq!(m.shards.len(), 8);
        let m: ShardedMap<u64> = ShardedMap::with_shards(0);
        assert_eq!(m.shards.len(), 1);
    }

    #[test]
    fn shard_header_line_holds_no_writer_field() {
        // A reader loads `table`; every insert locks the writer mutex and
        // bumps `len`. The two must sit on different cache lines, or each
        // insert would invalidate the line every reader of the shard needs.
        use std::mem::{align_of, offset_of, size_of};
        const LINE: usize = 64;
        assert_eq!(align_of::<Shard>(), LINE, "shards are line-aligned");
        assert!(
            offset_of!(Shard, table) < LINE,
            "reader field `table` is off line 0"
        );
        assert_eq!(offset_of!(Shard, writer), LINE, "writer state on line 1");
        assert_eq!(size_of::<Shard>(), 2 * LINE);
        assert_eq!(size_of::<Slot>(), 16, "four slots per line");
    }
}
