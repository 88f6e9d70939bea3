//! Sharded concurrent hash map with lock-free reads.
//!
//! Keys are `i64` task keys (the paper fixes `int64_t` keys); values are any
//! `Clone` type — the scheduler stores `Arc`s. Each shard is an open
//! hash table (linear probing, tombstone-less rebuild on growth) with a
//! **seqlock read path**: readers never take a lock. A shard consists of
//!
//! * an atomically published pointer to the current probe table,
//! * a sequence counter (even = stable, odd = writer mutating), and
//! * a `Mutex` serializing writers.
//!
//! Every table slot stores its key in an `AtomicI64` and its value behind
//! an `AtomicPtr` to a heap box (`null` = empty), so a concurrent reader
//! only ever performs atomic loads — there is no torn data to observe.
//! `get`/`contains` probe optimistically, then validate that the sequence
//! counter did not move during the probe; on writer interference they
//! retry, and after a few failed attempts fall back to the writer lock
//! (bounded, so readers cannot livelock behind a write storm). A validated
//! hit clones the value through the still-live box without ever touching a
//! lock — in the scheduler's case, one `Arc` refcount increment.
//!
//! **Memory reclamation** is deferred: a displaced value box (from
//! `replace`/`update_cas`/`clear`) and a superseded probe table (from
//! growth) are *retired* to per-shard lists and freed only when the map is
//! dropped, never while a reader could still hold the pointer. That makes
//! pointer dereference after sequence validation sound without epochs or
//! hazard pointers. The scheduler displaces a descriptor only on recovery,
//! so retained garbage is O(#faults) boxes plus O(log n) tables — see
//! "Hot-path anatomy & lock-freedom" in `docs/ALGORITHM.md`.
//!
//! The shard for a key is selected by a Fibonacci-hash of the key, which
//! also serves as the in-shard probe start; shard selection uses the high
//! bits and probing the low bits so the two are decorrelated.

use ft_sync::atomic::{fence, AtomicI64, AtomicPtr, AtomicU64, Ordering};
use parking_lot::Mutex;
use std::sync::OnceLock;

/// Multiplicative (Fibonacci) hash constant, 2^64 / φ.
const HASH_K: u64 = 0x9E37_79B9_7F4A_7C15;

/// Optimistic probe attempts before a reader falls back to the shard lock.
const OPTIMISTIC_TRIES: usize = 8;

#[inline]
fn hash_key(key: i64) -> u64 {
    (key as u64).wrapping_mul(HASH_K)
}

/// One slot of a probe table. `val == null` means empty; once non-null the
/// key is immutable and the value pointer changes only under the shard's
/// write protocol (sequence bump around the swap).
struct Slot<V> {
    key: AtomicI64,
    val: AtomicPtr<V>,
}

/// An immutable-capacity probe table. Replaced wholesale on growth; the
/// superseded table is retired, never freed mid-run, so a reader holding a
/// stale table pointer can still probe it safely (and will then fail
/// sequence validation).
struct Table<V> {
    mask: usize,
    slots: Box<[Slot<V>]>,
}

impl<V> Table<V> {
    fn new_boxed(cap: usize) -> Box<Self> {
        debug_assert!(cap.is_power_of_two());
        let slots = (0..cap)
            .map(|_| Slot {
                key: AtomicI64::new(0),
                val: AtomicPtr::new(std::ptr::null_mut()),
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
struct WriterState<V> {
    len: usize,
    /// Probe tables superseded by growth; freed on map drop. Their slots
    /// alias value boxes owned by the current table, so dropping them frees
    /// only the table structure.
    retired_tables: Vec<*mut Table<V>>,
    /// Value boxes displaced by `replace`/`update_cas`/`clear`; freed on
    /// map drop (a reader may still be cloning through the pointer).
    retired_vals: Vec<*mut V>,
}

/// A single shard.
struct Shard<V> {
    /// Seqlock counter: even = stable, odd = a writer is mutating.
    seq: AtomicU64,
    /// Current probe table, swapped on growth.
    table: AtomicPtr<Table<V>>,
    writer: Mutex<WriterState<V>>,
}

// SAFETY: owned value boxes and retired garbage are dropped from whichever
// thread drops the map (`V: Send`); the raw pointers in `WriterState`/`table`
// are owned by the shard and follow the retire-until-drop protocol
// documented above, so moving the shard between threads transfers sole
// ownership of every allocation it frees.
unsafe impl<V: Send + Sync> Send for Shard<V> {}
// SAFETY: values are shared by reference with concurrent readers
// (`V: Sync`), all shared shard state is atomics or the writer mutex, and
// retired allocations stay live until drop — so `&Shard` used from many
// threads never yields a dangling or aliased-mutable access.
unsafe impl<V: Send + Sync> Sync for Shard<V> {}

/// Outcome of one optimistic probe attempt.
enum Probe<V> {
    /// Validated: the key maps to this live value pointer (or a miss).
    Valid(Option<*const V>),
    /// A writer moved the sequence during the probe; retry.
    Interference,
}

impl<V: Clone> Shard<V> {
    fn new(cap: usize) -> Self {
        Shard {
            seq: AtomicU64::new(0),
            table: AtomicPtr::new(Box::into_raw(Table::new_boxed(cap))),
            writer: Mutex::new(WriterState {
                len: 0,
                retired_tables: Vec::new(),
                retired_vals: Vec::new(),
            }),
        }
    }

    /// Begin a write window: readers that overlap it will fail validation.
    /// Caller must hold the writer lock.
    fn write_begin(&self) {
        // ord: Relaxed load/store — only writers mutate `seq` and the
        // caller holds the writer lock; ordering comes from the fence below.
        let s = self.seq.load(Ordering::Relaxed);
        self.seq.store(s.wrapping_add(1), Ordering::Relaxed);
        // ord: Release fence — the odd sequence must be visible before any
        // mutation store; pairs with the readers' Acquire fence/loads in
        // `try_read`.
        // sc: seqlock/writer-begin
        fence(Ordering::Release);
    }

    /// End a write window. Caller must hold the writer lock.
    fn write_end(&self) {
        // ord: Relaxed — lock-serialized writer-only read; see write_begin.
        let s = self.seq.load(Ordering::Relaxed);
        // ord: Release — all mutation stores are visible before the even
        // sequence; pairs with the readers' s1 Acquire load in `try_read`.
        self.seq.store(s.wrapping_add(1), Ordering::Release);
    }

    // ft-lint: hot-path begin(map-read)

    /// One optimistic, lock-free probe: read the published table, probe,
    /// then validate that no writer interfered.
    fn try_read(&self, key: i64) -> Probe<V> {
        // ord: Acquire — pairs with the Release in `write_end`: an even s1
        // guarantees the probe sees a table state no older than that write.
        let s1 = self.seq.load(Ordering::Acquire);
        if s1 & 1 == 1 {
            return Probe::Interference;
        }
        // ord: Acquire — pairs with the Release table publication in
        // `grow_if_needed`, so the pointed-to table is fully initialized.
        let table = self.table.load(Ordering::Acquire);
        // SAFETY: published tables are retired on growth, never freed while
        // the map lives, so the pointer is always dereferenceable — a stale
        // table merely fails validation below.
        let t = unsafe { &*table };
        let mask = t.mask;
        let mut i = (hash_key(key) as usize) & mask;
        let mut found: Option<*const V> = None;
        // Bounded probe: a consistent table has load factor < 0.7, so a
        // full sweep without an empty slot can only mean interference.
        for _ in 0..=mask {
            let slot = &t.slots[i];
            // ord: Acquire — pairs with the Release in `publish_insert`/
            // `swap_value`: a non-null pointer implies the pointee and the
            // slot's key store are visible.
            let p = slot.val.load(Ordering::Acquire);
            if p.is_null() {
                break; // empty slot terminates the probe chain
            }
            // ord: Relaxed — the Acquire load of `val` above already orders
            // the key store (keys are written before the value pointer).
            if slot.key.load(Ordering::Relaxed) == key {
                found = Some(p as *const V);
                break;
            }
            i = (i + 1) & mask;
        }
        // ord: Acquire fence + Relaxed load — the probe loads must complete
        // before the validating sequence load; the fence upgrades the
        // Relaxed load so it cannot be reordered before the probe.
        // sc: seqlock/reader-validate
        fence(Ordering::Acquire);
        let s2 = self.seq.load(Ordering::Relaxed);
        if s1 == s2 {
            Probe::Valid(found)
        } else {
            Probe::Interference
        }
    }

    /// Lock-free read; falls back to the writer lock after repeated
    /// interference so readers cannot starve behind a write storm.
    fn read(&self, key: i64) -> Option<V> {
        for _ in 0..OPTIMISTIC_TRIES {
            match self.try_read(key) {
                // SAFETY: a validated pointer is live (boxes are retired,
                // not freed) and its pointee is never mutated in place.
                // ft-lint: allow(L9) the map stores values by value; a
                // validated read must copy out before the box is retired.
                Probe::Valid(found) => return found.map(|p| unsafe { (*p).clone() }),
                Probe::Interference => std::hint::spin_loop(),
            }
        }
        // ft-lint: allow(L9) anti-starvation fallback: taken only after
        // OPTIMISTIC_TRIES failed validations under a write storm.
        let _guard = self.writer.lock();
        // SAFETY: the writer lock is held, so the table pointer is stable
        // and dereferenceable (tables are only swapped under this lock).
        // ord: Relaxed — the lock acquisition orders the table load against
        // the previous holder's swap.
        let t = unsafe { &*self.table.load(Ordering::Relaxed) };
        self.probe_locked(t, key)
            // SAFETY: `probe_locked` returned an occupied slot and the lock
            // blocks any writer from displacing its value box.
            // ord: Relaxed — lock-serialized; see above.
            // ft-lint: allow(L9) value copy-out, same as the lock-free arm.
            .map(|i| unsafe { (*t.slots[i].val.load(Ordering::Relaxed)).clone() })
    }

    /// Lock-free membership probe: `Some(present)` once a probe validates,
    /// `None` if a write storm defeated every optimistic attempt (the
    /// caller then decides under the writer lock).
    fn try_contains(&self, key: i64) -> Option<bool> {
        for _ in 0..OPTIMISTIC_TRIES {
            match self.try_read(key) {
                Probe::Valid(found) => return Some(found.is_some()),
                Probe::Interference => std::hint::spin_loop(),
            }
        }
        None
    }

    // ft-lint: hot-path end(map-read)

    /// Probe under the writer lock. Returns the slot index of `key`.
    fn probe_locked(&self, t: &Table<V>, key: i64) -> Option<usize> {
        let mut i = (hash_key(key) as usize) & t.mask;
        loop {
            let slot = &t.slots[i];
            // ord: Relaxed — caller holds the writer lock, which serializes
            // every mutation of the slots.
            if slot.val.load(Ordering::Relaxed).is_null() {
                return None;
            }
            // ord: Relaxed — lock-serialized, as above.
            if slot.key.load(Ordering::Relaxed) == key {
                return Some(i);
            }
            i = (i + 1) & t.mask;
        }
    }

    /// First empty slot on `key`'s probe chain. Caller must hold the lock
    /// and have verified the key is absent.
    fn find_empty(&self, t: &Table<V>, key: i64) -> usize {
        let mut i = (hash_key(key) as usize) & t.mask;
        // ord: Relaxed — caller holds the writer lock; see `probe_locked`.
        while !t.slots[i].val.load(Ordering::Relaxed).is_null() {
            i = (i + 1) & t.mask;
        }
        i
    }

    /// Publish `(key, boxed)` into an empty slot. No sequence bump needed:
    /// concurrent readers either see the null (miss, linearized before) or
    /// the full slot (hit) — both are consistent states.
    fn publish_insert(&self, t: &Table<V>, key: i64, boxed: *mut V) {
        let i = self.find_empty(t, key);
        // ord: Relaxed — ordered by the Release store of `val` below.
        t.slots[i].key.store(key, Ordering::Relaxed);
        // ord: Release — the key store above and the boxed value are
        // visible to any reader that Acquire-loads this value pointer.
        t.slots[i].val.store(boxed, Ordering::Release);
    }

    /// Grow (double) the table if the load factor reached 0.7, publishing
    /// the new table under a write window. Caller must hold the lock.
    ///
    /// Returns the current table.
    fn grow_if_needed(&self, w: &mut WriterState<V>) -> *mut Table<V> {
        // ord: Relaxed — caller holds the writer lock, which serializes
        // every table swap.
        let old_ptr = self.table.load(Ordering::Relaxed);
        // SAFETY: the current table is live until retired, and retiring
        // happens only below in this lock-serialized function.
        let old = unsafe { &*old_ptr };
        let cap = old.mask + 1;
        if w.len * 10 < cap * 7 {
            return old_ptr;
        }
        let new = Table::<V>::new_boxed(cap * 2);
        for slot in old.slots.iter() {
            // ord: Relaxed — old-table reads are lock-serialized and the
            // new table is private until published: no reader can see
            // these loads or the stores below out of order.
            let p = slot.val.load(Ordering::Relaxed);
            if p.is_null() {
                continue;
            }
            // ord: Relaxed — lock-serialized old-table read, as above.
            let k = slot.key.load(Ordering::Relaxed);
            let mut i = (hash_key(k) as usize) & new.mask;
            // ord: Relaxed — the new table is private until published.
            while !new.slots[i].val.load(Ordering::Relaxed).is_null() {
                i = (i + 1) & new.mask;
            }
            // ord: Relaxed — private table; the Release publication of
            // `table` below makes these stores visible to readers.
            new.slots[i].key.store(k, Ordering::Relaxed);
            new.slots[i].val.store(p, Ordering::Relaxed);
        }
        let new_ptr = Box::into_raw(new);
        self.write_begin();
        // ord: Release — publishes the fully populated table to readers'
        // Acquire load in `try_read`.
        self.table.store(new_ptr, Ordering::Release);
        self.write_end();
        w.retired_tables.push(old_ptr);
        new_ptr
    }

    /// Swap the value pointer of an occupied slot under a write window,
    /// retiring the displaced box. Caller must hold the lock.
    fn swap_value(&self, t: &Table<V>, i: usize, boxed: *mut V, w: &mut WriterState<V>) -> *mut V {
        // ord: Relaxed — caller holds the writer lock; see `probe_locked`.
        let old = t.slots[i].val.load(Ordering::Relaxed);
        self.write_begin();
        // ord: Release — the new box's contents are visible to any reader
        // that Acquire-loads this pointer in `try_read`.
        t.slots[i].val.store(boxed, Ordering::Release);
        self.write_end();
        w.retired_vals.push(old);
        old
    }
}

impl<V> Drop for Shard<V> {
    fn drop(&mut self) {
        let w = self.writer.get_mut();
        // ord: Relaxed — `&mut self` proves exclusivity; every reader and
        // writer synchronized-with this thread before the drop.
        let t = self.table.load(Ordering::Relaxed);
        // SAFETY: exclusive access (`&mut self`). The current table owns the
        // live value boxes; `retired_vals` owns displaced boxes; retired
        // tables alias boxes already freed via one of the former two, so
        // only their table structure is freed — every allocation exactly
        // once.
        unsafe {
            // Live values are owned by the current table.
            for slot in (*t).slots.iter() {
                // ord: Relaxed — exclusive access, as above.
                let p = slot.val.load(Ordering::Relaxed);
                if !p.is_null() {
                    drop(Box::from_raw(p));
                }
            }
            drop(Box::from_raw(t));
            for &p in &w.retired_vals {
                drop(Box::from_raw(p));
            }
            // Retired tables alias value boxes already freed above or in
            // retired_vals: free only the table structure.
            for &tp in &w.retired_tables {
                drop(Box::from_raw(tp));
            }
        }
    }
}

/// A sharded concurrent hash map from `i64` task keys to `V`, with
/// lock-free (seqlock-validated) reads.
pub struct ShardedMap<V> {
    shards: Vec<Shard<V>>,
    shift: u32,
}

impl<V> std::fmt::Debug for ShardedMap<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedMap")
            .field("shards", &self.shards.len())
            .finish()
    }
}

/// Occupancy statistics, for the shard-count ablation bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapStats {
    /// Total entries across shards.
    pub len: usize,
    /// Number of shards.
    pub shards: usize,
    /// Maximum entries in any one shard (imbalance indicator).
    pub max_shard_len: usize,
}

impl<V: Clone> Default for ShardedMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Clone> ShardedMap<V> {
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
        }
    }

    #[inline]
    fn shard_for(&self, key: i64) -> &Shard<V> {
        // High bits pick the shard; low bits drive in-shard probing.
        let idx = if self.shards.len() == 1 {
            0
        } else {
            (hash_key(key) >> self.shift) as usize
        };
        &self.shards[idx]
    }

    /// `InsertTaskIfAbsent`: atomically insert `make()` under `key` if no
    /// entry exists. Returns `true` if this call inserted. `make` runs
    /// under the shard lock only when an insert actually happens.
    ///
    /// Read before lock: a validated lock-free hit answers `false` without
    /// touching the shard mutex — the traversal calls this once per graph
    /// edge and finds the key present on all but the first. The hit
    /// linearizes at the probe (the key was present then, which is all
    /// `false` promises); only a miss takes the writer lock, and re-probes
    /// under it.
    pub fn insert_if_absent(&self, key: i64, make: impl FnOnce() -> V) -> bool {
        let shard = self.shard_for(key);
        if shard.try_contains(key) == Some(true) {
            return false;
        }
        let mut w = shard.writer.lock();
        // SAFETY: writer lock held — the table pointer is stable and live.
        // ord: Relaxed — the lock orders the load against the last swap.
        let t = unsafe { &*shard.table.load(Ordering::Relaxed) };
        if shard.probe_locked(t, key).is_some() {
            return false;
        }
        // SAFETY: `grow_if_needed` returns the (possibly new) current
        // table, live for at least as long as the lock is held.
        let t = unsafe { &*shard.grow_if_needed(&mut w) };
        let boxed = Box::into_raw(Box::new(make()));
        shard.publish_insert(t, key, boxed);
        w.len += 1;
        true
    }

    /// `GetTask`: clone out the current value for `key`. Lock-free: probes
    /// the published table and validates the shard sequence; only falls
    /// back to the shard lock after repeated writer interference.
    pub fn get(&self, key: i64) -> Option<V> {
        self.shard_for(key).read(key)
    }

    /// True if the map has an entry for `key`. Same lock-free path as
    /// [`ShardedMap::get`] without cloning the value.
    pub fn contains(&self, key: i64) -> bool {
        let shard = self.shard_for(key);
        if let Some(present) = shard.try_contains(key) {
            return present;
        }
        let _guard = shard.writer.lock();
        // SAFETY: writer lock held — the table pointer is stable and live.
        // ord: Relaxed — the lock orders the load against the last swap.
        let t = unsafe { &*shard.table.load(Ordering::Relaxed) };
        shard.probe_locked(t, key).is_some()
    }

    /// `ReplaceTask`: insert or overwrite the value under `key`, returning
    /// the previous value if any.
    pub fn replace(&self, key: i64, value: V) -> Option<V> {
        let shard = self.shard_for(key);
        let mut w = shard.writer.lock();
        // SAFETY: writer lock held — the table pointer is stable and live.
        // ord: Relaxed — the lock orders the load against the last swap.
        let t = unsafe { &*shard.table.load(Ordering::Relaxed) };
        if let Some(i) = shard.probe_locked(t, key) {
            let boxed = Box::into_raw(Box::new(value));
            let old = shard.swap_value(t, i, boxed, &mut w);
            // SAFETY: the displaced box was retired, not freed (a reader
            // may be cloning it), so it stays dereferenceable here.
            return Some(unsafe { (*old).clone() });
        }
        // SAFETY: `grow_if_needed` returns the current table, live while
        // the lock is held.
        let t = unsafe { &*shard.grow_if_needed(&mut w) };
        shard.publish_insert(t, key, Box::into_raw(Box::new(value)));
        w.len += 1;
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
        let mut w = shard.writer.lock();
        // SAFETY: writer lock held — the table pointer is stable and live.
        // ord: Relaxed — the lock orders the load against the last swap.
        let t = unsafe { &*shard.table.load(Ordering::Relaxed) };
        let slot = shard.probe_locked(t, key);
        let (new, ret) = match slot {
            Some(i) => {
                // SAFETY: occupied slot and the lock blocks displacement of
                // its value box while `cur` is borrowed.
                // ord: Relaxed — lock-serialized, as above.
                let cur = unsafe { &*t.slots[i].val.load(Ordering::Relaxed) };
                f(Some(cur))
            }
            None => f(None),
        };
        if let Some(v) = new {
            let boxed = Box::into_raw(Box::new(v));
            match slot {
                Some(i) => {
                    shard.swap_value(t, i, boxed, &mut w);
                }
                None => {
                    // SAFETY: `grow_if_needed` returns the current table,
                    // live while the lock is held.
                    let t = unsafe { &*shard.grow_if_needed(&mut w) };
                    shard.publish_insert(t, key, boxed);
                    w.len += 1;
                }
            }
        }
        ret
    }

    /// Total number of entries (takes each shard writer lock once).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.writer.lock().len).sum()
    }

    /// True if no entries exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Occupancy statistics for diagnostics/ablation.
    pub fn stats(&self) -> MapStats {
        let lens: Vec<usize> = self.shards.iter().map(|s| s.writer.lock().len).collect();
        MapStats {
            len: lens.iter().sum(),
            shards: self.shards.len(),
            max_shard_len: lens.into_iter().max().unwrap_or(0),
        }
    }

    /// Remove all entries, retaining shard capacity. Displaced value boxes
    /// are retired, not freed (a concurrent reader may hold them).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut w = shard.writer.lock();
            // SAFETY: writer lock held — table pointer stable and live.
            // ord: Relaxed — lock-ordered, as in `insert_if_absent`.
            let t = unsafe { &*shard.table.load(Ordering::Relaxed) };
            shard.write_begin();
            for slot in t.slots.iter() {
                // ord: Relaxed — inside a write window: readers that
                // overlap these stores fail sequence validation, so only
                // the window's Release edges need ordering.
                let p = slot.val.load(Ordering::Relaxed);
                if !p.is_null() {
                    // ord: Relaxed — inside the write window, as above.
                    slot.val.store(std::ptr::null_mut(), Ordering::Relaxed);
                    w.retired_vals.push(p);
                }
            }
            shard.write_end();
            w.len = 0;
        }
    }

    /// Snapshot of all `(key, value)` pairs. Not atomic across shards; used
    /// only after quiescence (metrics, verification).
    pub fn entries(&self) -> Vec<(i64, V)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let _guard = shard.writer.lock();
            // SAFETY: writer lock held — table pointer stable and live.
            // ord: Relaxed — lock-ordered, as in `insert_if_absent`.
            let t = unsafe { &*shard.table.load(Ordering::Relaxed) };
            for slot in t.slots.iter() {
                // ord: Relaxed — slot reads are lock-serialized here.
                let p = slot.val.load(Ordering::Relaxed);
                if !p.is_null() {
                    // ord: Relaxed — lock-serialized slot read, as above.
                    let k = slot.key.load(Ordering::Relaxed);
                    // SAFETY: occupied slot; the lock blocks displacement
                    // of the box while we clone through it.
                    out.push((k, unsafe { (*p).clone() }));
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
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn insert_get_replace() {
        let m = ShardedMap::with_shards(4);
        assert!(m.insert_if_absent(1, || "a"));
        assert!(!m.insert_if_absent(1, || "b"));
        assert_eq!(m.get(1), Some("a"));
        assert_eq!(m.replace(1, "c"), Some("a"));
        assert_eq!(m.get(1), Some("c"));
        assert_eq!(m.replace(2, "d"), None);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn get_missing_is_none() {
        let m: ShardedMap<u32> = ShardedMap::with_shards(2);
        assert_eq!(m.get(42), None);
        assert!(!m.contains(42));
        assert!(m.is_empty());
    }

    #[test]
    fn negative_and_extreme_keys() {
        let m = ShardedMap::with_shards(8);
        for k in [i64::MIN, -1, 0, 1, i64::MAX] {
            assert!(m.insert_if_absent(k, || k));
            assert_eq!(m.get(k), Some(k));
        }
        assert_eq!(m.len(), 5);
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
        let stats = m.stats();
        assert_eq!(stats.len, 10_000);
        assert_eq!(stats.shards, 1);
    }

    #[test]
    fn make_not_called_when_present() {
        let m = ShardedMap::with_shards(2);
        let calls = AtomicUsize::new(0);
        m.insert_if_absent(5, || {
            calls.fetch_add(1, Ordering::Relaxed);
            1
        });
        m.insert_if_absent(5, || {
            calls.fetch_add(1, Ordering::Relaxed);
            2
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1);
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
    fn clear_empties_map() {
        let m = ShardedMap::with_shards(4);
        for k in 0..100 {
            m.insert_if_absent(k, || k);
        }
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.get(5), None);
        // Reusable after clear.
        assert!(m.insert_if_absent(5, || 50));
        assert_eq!(m.get(5), Some(50));
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
    fn insert_if_absent_races_inserter_and_replace_exactly_once() {
        // Per key, released together by a barrier: two `insert_if_absent`
        // callers and one `replace` (which inserts when the key is absent
        // and otherwise opens a writer window the lock-free pre-probe must
        // survive). One shard, so every operation interferes with every
        // other. Exactly one of the three creates the entry, `make` runs
        // only for a winning `insert_if_absent`, and the losers' `false`
        // is never a lie: the key is present when they return.
        const KEYS: i64 = 400;
        let m: ShardedMap<u64> = ShardedMap::with_shards(1);
        let made = AtomicUsize::new(0);
        let won = AtomicUsize::new(0);
        let created = AtomicUsize::new(0);
        let barrier = std::sync::Barrier::new(3);
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
                    // Churn the previous key too: a writer window on a
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
        // values (the seqlock fallback path is exercised here too).
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
        // that were actually stored, never a torn or reclaimed one.
        let m: Arc<ShardedMap<u64>> = Arc::new(ShardedMap::with_shards(1));
        m.insert_if_absent(0, || 0);
        const N: u64 = 30_000;
        thread::scope(|s| {
            for _ in 0..3 {
                let m = Arc::clone(&m);
                s.spawn(move || {
                    let mut last = 0u64;
                    loop {
                        let v = m.get(0).expect("key 0 always present");
                        assert!(v >= last, "value went backwards: {last} -> {v}");
                        assert!(v <= N);
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
                    m2.replace(0, v);
                }
            });
        });
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        let m: ShardedMap<u8> = ShardedMap::with_shards(5);
        assert_eq!(m.stats().shards, 8);
        let m: ShardedMap<u8> = ShardedMap::with_shards(0);
        assert_eq!(m.stats().shards, 1);
    }

    #[test]
    fn drop_frees_retired_garbage_exactly_once() {
        // Arc values: every clone handed out plus every retired box must be
        // accounted for — strong count returns to 1 at the end.
        let probe = Arc::new(());
        {
            let m: ShardedMap<Arc<()>> = ShardedMap::with_shards(1);
            for k in 0..500 {
                m.insert_if_absent(k, || Arc::clone(&probe));
            }
            for k in 0..500 {
                m.replace(k, Arc::clone(&probe)); // retires 500 boxes
                drop(m.get(k));
            }
            m.clear(); // retires the rest
            assert_eq!(Arc::strong_count(&probe), 1 + 1000);
        }
        assert_eq!(Arc::strong_count(&probe), 1);
    }
}
