//! Versioned data blocks with memory reuse.
//!
//! Section II: "we allow updates to data blocks, as long as the dependences
//! specified ensure that all uses of a data block causally precede a
//! subsequent definition (considered the next version) of the same block."
//! Section VI evaluates *memory reuse* implementations in which later
//! versions overwrite earlier ones, which is precisely what makes recovery
//! interesting: "a fault might result in the need to use such a data block
//! version after it has been overwritten", forcing re-execution of the
//! chain of producers.
//!
//! ## Substitution note (see DESIGN.md)
//!
//! The paper overwrites buffers in place; safe Rust models the identical
//! lifecycle with **version eviction**: publishing version `v` of a block
//! under `KeepLast(k)` evicts version `v − k`. A read of an evicted version
//! fails with [`BlockError::Overwritten`] carrying the *producer task key*
//! recorded at publish time, which the scheduler turns into the paper's
//! producer re-execution chain. Versions republished during recovery
//! (version < current latest) are marked recovery-resident and are never
//! evicted again within the run — the retention relaxation the paper itself
//! suggests ("could be ameliorated by retaining the intermediate versions
//! in memory") and which guarantees recovery chains terminate.
//!
//! ## Wait-free reads
//!
//! Reads never take a lock. A block's shared state is an **immutable
//! version table** published through an [`AtomicPtr`], mirroring the
//! copy-on-write discipline of `ft-cmap`: every writer (`publish`,
//! `publish_pinned`, `poison`) goes through one path, `Block::write`,
//! which serializes on a per-block mutex, builds a fresh table from the
//! current one, and swaps it in. Slots are never removed (eviction leaves
//! a tombstone), so a table's last slot is the highest version ever
//! published: "latest" needs no second atomic.
//!
//! ## Reclamation
//!
//! Every reader goes through `Block::with`, which brackets its load,
//! search and `Arc` clone with an increment and a decrement of the
//! block's `readers` count. A writer parks the table it replaced in a
//! graveyard and, right after its swap, frees the whole graveyard if it
//! reads `readers == 0`; otherwise the next write (or `Drop`) tries again.
//! The increment, the reader's table load, the writer's swap and its
//! count load are all `SeqCst`, so they fall in one total order: a reader
//! whose increment comes first holds the free off, and a reader whose
//! increment comes later loads the new table, which is not in the
//! graveyard. Freeing a retired table drops its `Arc` clones, so an
//! evicted payload is freed as soon as no table and no reader's clone
//! names it — eviction saves the memory the reuse policy promises.

use crate::fault::Fault;
use crate::graph::Key;
use ft_sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use parking_lot::Mutex;
use std::sync::Arc;

/// Dense identifier of a data block (application-chosen indexing).
pub type BlockId = usize;

/// Version number of a block (0 = first definition).
pub type Version = u64;

/// Producer key recorded for pinned (resilient input) versions.
pub const RESILIENT_PRODUCER: Key = i64::MIN;

/// Why a versioned read failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockError {
    /// The version exists but was poisoned by a detected soft error.
    Poisoned {
        /// Task that produced the corrupt version.
        producer: Key,
    },
    /// The version was evicted under the memory-reuse policy.
    Overwritten {
        /// Task that produced the evicted version.
        producer: Key,
    },
    /// The version was never published — a scheduling invariant violation
    /// (a task computed before its producer notified it).
    Missing,
}

impl BlockError {
    /// Convert to the scheduler-level [`Fault`], attributing the error to
    /// the producing task.
    pub fn into_fault(self) -> Fault {
        match self {
            BlockError::Poisoned { producer } => Fault::data(producer),
            BlockError::Overwritten { producer } => Fault::overwritten(producer),
            BlockError::Missing => {
                panic!("read of a never-published block version: dependence bug")
            }
        }
    }
}

/// How many versions of each block stay resident.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Retention {
    /// Single-assignment style: every version stays (LCS).
    KeepAll,
    /// Memory reuse: publishing version `v` evicts version `v − k`
    /// (`KeepLast(1)` = plain reuse; `KeepLast(2)` = the paper's
    /// two-version Floyd-Warshall configuration).
    KeepLast(u64),
}

/// One version's record in the immutable table. `data: None` is the
/// eviction tombstone: the version existed, its producer is remembered for
/// [`BlockError::Overwritten`] attribution, but its payload was reclaimed.
struct Slot<T> {
    version: Version,
    producer: Key,
    poisoned: bool,
    /// Republished by recovery below the current latest; never evict.
    recovery_resident: bool,
    data: Option<Arc<Vec<T>>>,
}

impl<T> Clone for Slot<T> {
    fn clone(&self) -> Self {
        Slot {
            version: self.version,
            producer: self.producer,
            poisoned: self.poisoned,
            recovery_resident: self.recovery_resident,
            data: self.data.clone(),
        }
    }
}

impl<T> Slot<T> {
    /// A version holding its payload (not an eviction tombstone).
    fn resident(&self) -> bool {
        self.data.is_some()
    }

    /// A pinned (resilient input) version: never evicted nor poisoned.
    fn pinned(&self) -> bool {
        self.producer == RESILIENT_PRODUCER && self.resident()
    }
}

/// An immutable snapshot of every version ever published to one block,
/// sorted by version number. Writers replace the whole table; readers
/// binary-search a consistent snapshot without waiting for writers.
struct Table<T> {
    slots: Vec<Slot<T>>,
}

impl<T> Table<T> {
    fn find(&self, version: Version) -> Option<&Slot<T>> {
        self.slots
            .binary_search_by_key(&version, |s| s.version)
            .ok()
            .map(|i| &self.slots[i])
    }

    /// The slots with `slot` put in its version's place.
    fn with(&self, slot: Slot<T>) -> Vec<Slot<T>> {
        let mut slots = self.slots.clone();
        match slots.binary_search_by_key(&slot.version, |s| s.version) {
            Ok(i) => slots[i] = slot,
            Err(i) => slots.insert(i, slot),
        }
        slots
    }
}

struct Block<T> {
    /// Current table. Replaced by a `SeqCst` swap after the new snapshot
    /// is built; readers load it inside [`Block::with`] only.
    table: AtomicPtr<Table<T>>,
    /// Readers inside [`Block::with`], counted from before their load of
    /// `table` to after their last use of it. A writer frees retired
    /// tables only when it reads 0 here after its swap.
    readers: AtomicUsize,
    /// Writer serialization. The guarded vec is the graveyard of retired
    /// tables that a reader may still be searching; it is emptied by the
    /// first write that sees no reader, or in `Drop`.
    writer: Mutex<Vec<*mut Table<T>>>,
}

// SAFETY: the only fields the auto-trait derivation cannot see are the raw
// `Table` pointers (current and retired). Tables are created by writers,
// published via the AtomicPtr, and freed exactly once — by a writer that
// saw no reader in flight, or under `&mut self` in `Drop`; between
// publication and free they are immutable, so sharing `&Block<T>` across
// threads hands out only `&Table<T>` / `Arc<Vec<T>>` views, which
// requires `T: Send + Sync` (the same bound the pre-PR9
// `Mutex<BTreeMap>` layout imposed structurally).
unsafe impl<T: Send + Sync> Send for Block<T> {}
// SAFETY: see the `Send` impl above — all shared access is to immutable
// published tables.
unsafe impl<T: Send + Sync> Sync for Block<T> {}

impl<T> Block<T> {
    fn new() -> Self {
        Block {
            table: AtomicPtr::new(Box::into_raw(Box::new(Table { slots: Vec::new() }))),
            readers: AtomicUsize::new(0),
            writer: Mutex::new(Vec::new()),
        }
    }

    // ft-lint: hot-path begin(block-window)

    /// The one way a reader reaches a table: run `f` on the current table
    /// inside the counted window. The reference cannot outlive `f`, so it
    /// cannot leave the window that keeps its table alive.
    fn with<R>(&self, f: impl FnOnce(&Table<T>) -> R) -> R {
        // ord: SeqCst — increment, then load: the reader's half of the
        // Dekker pair with `write`'s swap-then-count, all four in the one
        // SeqCst total order (the load also acquires the built table).
        self.readers.fetch_add(1, Ordering::SeqCst);
        let p = self.table.load(Ordering::SeqCst);
        // SAFETY: `p` was published from `Box::into_raw`. A writer frees
        // it only after reading `readers == 0` later in the SeqCst order
        // than its swap; our increment precedes our load, so either the
        // writer reads our increment (and frees nothing) or our load
        // follows its swap (and `p` is not retired). `Drop` needs `&mut`.
        let r = f(unsafe { &*p });
        // ord: Release — orders `f`'s reads of the table before the free
        // by a writer whose SeqCst (acquiring) count load reads this
        // decrement or a later value of `readers`.
        self.readers.fetch_sub(1, Ordering::Release);
        r
    }

    // ft-lint: hot-path end(block-window)

    /// The current table, for the writer: `_held` borrows the writer
    /// lock's graveyard, so the reference cannot outlive the lock, and
    /// only the lock holder frees tables — never the current one.
    fn snapshot<'g>(&self, _held: &'g Vec<*mut Table<T>>) -> &'g Table<T> {
        // ord: Relaxed — the table was installed by an earlier holder of
        // the writer lock, whose release/acquire orders it before this.
        let p = self.table.load(Ordering::Relaxed);
        // SAFETY: `p` came from `Box::into_raw`; the current table is
        // never in the graveyard, and only the lock holder (us, for `'g`)
        // retires or frees tables.
        unsafe { &*p }
    }

    /// The one write path. Under the writer lock, `next` sees the current
    /// table and returns the slots of its successor, which replaces it (the
    /// old table is retired), or `None` to leave the block as it is.
    /// Returns whether a table was installed.
    fn write(&self, next: impl FnOnce(&Table<T>) -> Option<Vec<Slot<T>>>) -> bool {
        let mut graveyard = self.writer.lock();
        let Some(slots) = next(self.snapshot(&graveyard)) else {
            return false;
        };
        let next = Box::into_raw(Box::new(Table { slots }));
        // ord: SeqCst — swap, then read the count: the writer's half of
        // the Dekker pair with `with`. The swap also releases the built
        // table; the count load acquires every finished reader's decrement.
        let old = self.table.swap(next, Ordering::SeqCst);
        let quiet = self.readers.load(Ordering::SeqCst) == 0;
        graveyard.push(old);
        if quiet {
            for p in graveyard.drain(..) {
                // SAFETY: every graveyard pointer came from `Box::into_raw`
                // and is retired (not current). Any reader that loaded it
                // incremented `readers` before that load, and we read 0
                // after the swap that retired the newest of them, so every
                // such reader has decremented (see `with`). The lock means
                // no other writer frees it too.
                unsafe { drop(Box::from_raw(p)) };
            }
        }
        true
    }
}

impl<T> Drop for Block<T> {
    fn drop(&mut self) {
        // ord: Relaxed — `&mut self` means no concurrent readers/writers.
        let cur = self.table.load(Ordering::Relaxed);
        // SAFETY: `cur` and every graveyard pointer came from
        // `Box::into_raw`, each is freed exactly once (a pointer is either
        // current or retired, never both, and a freed one leaves the
        // graveyard), and exclusive access means no reader is in flight.
        unsafe {
            drop(Box::from_raw(cur));
            for p in self.writer.get_mut().drain(..) {
                drop(Box::from_raw(p));
            }
        }
    }
}

/// A store of versioned data blocks shared by an application's tasks.
pub struct BlockStore<T> {
    blocks: Vec<Block<T>>,
    retention: Retention,
    evictions: AtomicU64,
}

impl<T: Send> BlockStore<T> {
    /// Create a store of `nblocks` blocks under the given retention policy.
    pub fn new(nblocks: usize, retention: Retention) -> Self {
        if let Retention::KeepLast(k) = retention {
            assert!(k >= 1, "KeepLast requires k >= 1");
        }
        BlockStore {
            blocks: (0..nblocks).map(|_| Block::new()).collect(),
            retention,
            evictions: AtomicU64::new(0),
        }
    }

    /// The configured retention policy.
    pub fn retention(&self) -> Retention {
        self.retention
    }

    /// Publish version `version` of `block`, produced by task `producer`.
    ///
    /// Publishing a **new latest** version applies the retention policy
    /// (possibly evicting the version sliding out of the window).
    /// Publishing an **older** version (recovery re-execution) reinstates it
    /// as recovery-resident. Re-publishing an existing version replaces its
    /// data and clears any poison (the recovered producer recreated it).
    pub fn publish(&self, block: BlockId, version: Version, producer: Key, data: Vec<T>) {
        self.blocks[block].write(|cur| {
            let old = cur.find(version);
            // Pinned versions are resilient inputs: no task legitimately
            // redefines them, and they must stay pinned. Ignore such writes.
            if old.is_some_and(Slot::pinned) {
                return None;
            }
            // The last slot is the highest version ever published.
            let is_new_latest = cur.slots.last().is_none_or(|s| version > s.version);
            let mut slots = cur.with(Slot {
                version,
                producer,
                poisoned: false,
                // Re-instating a version that is not resident (an evicted
                // tombstone, or never seen below latest).
                recovery_resident: !is_new_latest && !old.is_some_and(Slot::resident),
                data: Some(Arc::new(data)),
            });
            if let (true, Retention::KeepLast(k)) = (is_new_latest, self.retention) {
                // The version sliding out of the window. Pinned (resilient)
                // and recovery-resident versions are exempt.
                let out = version.checked_sub(k);
                if let Some(i) =
                    out.and_then(|v| slots.binary_search_by_key(&v, |s| s.version).ok())
                {
                    let s = &mut slots[i];
                    if s.resident() && !s.recovery_resident && !s.pinned() {
                        // Tombstone: drop the payload, keep producer
                        // attribution for Overwritten errors.
                        s.data = None;
                        // ord: Relaxed — statistics counter.
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            Some(slots)
        });
    }

    /// Publish a pinned version that is never evicted nor poisoned — used
    /// for initial inputs, which the paper assumes are "made resilient
    /// through other means".
    pub fn publish_pinned(&self, block: BlockId, version: Version, data: Vec<T>) {
        self.blocks[block].write(|cur| {
            Some(cur.with(Slot {
                version,
                producer: RESILIENT_PRODUCER,
                poisoned: false,
                recovery_resident: false,
                data: Some(Arc::new(data)),
            }))
        });
    }

    // ft-lint: hot-path begin(block-read)

    /// Read version `version` of `block`. Fails with the producing task if
    /// the version is poisoned or was evicted. **Wait-free**: never blocks
    /// on concurrent publishers.
    pub fn read(&self, block: BlockId, version: Version) -> Result<Arc<Vec<T>>, BlockError> {
        self.blocks[block].with(|t| match t.find(version) {
            Some(s) if s.poisoned => Err(BlockError::Poisoned {
                producer: s.producer,
            }),
            Some(s) => match &s.data {
                Some(d) => Ok(Arc::clone(d)),
                None => Err(BlockError::Overwritten {
                    producer: s.producer,
                }),
            },
            None => Err(BlockError::Missing),
        })
    }

    /// Read the *latest* version of `block` (diagnostics/verification).
    /// **Wait-free**: never blocks on concurrent publishers.
    ///
    /// Version and payload come from one table snapshot — the slots are
    /// version-sorted and the highest version ever published is never
    /// evicted, so the last slot *is* the latest version.
    pub fn read_latest(&self, block: BlockId) -> Result<(Version, Arc<Vec<T>>), BlockError> {
        self.blocks[block].with(|t| match t.slots.last() {
            Some(s) if s.poisoned => Err(BlockError::Poisoned {
                producer: s.producer,
            }),
            Some(s) => match &s.data {
                Some(d) => Ok((s.version, Arc::clone(d))),
                None => Err(BlockError::Missing),
            },
            None => Err(BlockError::Missing),
        })
    }

    /// Latest published version of `block`, if any. Wait-free.
    pub fn latest_version(&self, block: BlockId) -> Option<Version> {
        self.blocks[block].with(|t| t.slots.last().map(|s| s.version))
    }

    // ft-lint: hot-path end(block-read)

    /// Poison version `version` of `block` (fault injection). Pinned
    /// versions are resilient and ignore poisoning. Returns true if a
    /// resident version was poisoned.
    pub fn poison(&self, block: BlockId, version: Version) -> bool {
        self.blocks[block].write(|cur| {
            let i = cur
                .slots
                .binary_search_by_key(&version, |s| s.version)
                .ok()?;
            let s = &cur.slots[i];
            if !s.resident() || s.pinned() {
                return None;
            }
            let mut slots = cur.slots.clone();
            slots[i].poisoned = true;
            Some(slots)
        })
    }

    /// True if `block` currently holds `version` un-poisoned. Wait-free.
    pub fn is_live(&self, block: BlockId, version: Version) -> bool {
        self.blocks[block]
            .with(|t| matches!(t.find(version), Some(s) if !s.poisoned && s.resident()))
    }

    /// Total evictions performed (memory-reuse overwrites).
    pub fn evictions(&self) -> u64 {
        // ord: Relaxed — statistics read at quiescence.
        self.evictions.load(Ordering::Relaxed)
    }

    /// Number of resident versions of `block` (diagnostics). Wait-free.
    pub fn resident_versions(&self, block: BlockId) -> usize {
        self.blocks[block].with(|t| t.slots.iter().filter(|s| s.resident()).count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_sync::atomic::AtomicBool;

    #[test]
    fn publish_and_read_roundtrip() {
        let s: BlockStore<f64> = BlockStore::new(2, Retention::KeepAll);
        s.publish(0, 0, 100, vec![1.0, 2.0]);
        let d = s.read(0, 0).unwrap();
        assert_eq!(&*d, &vec![1.0, 2.0]);
        assert_eq!(s.latest_version(0), Some(0));
        assert_eq!(s.latest_version(1), None);
    }

    #[test]
    fn keep_all_retains_everything() {
        let s: BlockStore<u32> = BlockStore::new(1, Retention::KeepAll);
        for v in 0..10 {
            s.publish(0, v, v as Key, vec![v as u32]);
        }
        for v in 0..10 {
            assert_eq!(&*s.read(0, v).unwrap(), &vec![v as u32]);
        }
        assert_eq!(s.evictions(), 0);
        assert_eq!(s.resident_versions(0), 10);
    }

    #[test]
    fn keep_last_one_evicts_previous() {
        let s: BlockStore<u32> = BlockStore::new(1, Retention::KeepLast(1));
        s.publish(0, 0, 100, vec![0]);
        s.publish(0, 1, 101, vec![1]);
        assert_eq!(s.read(0, 0), Err(BlockError::Overwritten { producer: 100 }));
        assert!(s.read(0, 1).is_ok());
        assert_eq!(s.evictions(), 1);
    }

    #[test]
    fn keep_last_two_window() {
        let s: BlockStore<u32> = BlockStore::new(1, Retention::KeepLast(2));
        for v in 0..5 {
            s.publish(0, v, 100 + v as Key, vec![v as u32]);
        }
        // Versions 3 and 4 resident; 0..2 evicted.
        assert!(matches!(
            s.read(0, 2),
            Err(BlockError::Overwritten { producer: 102 })
        ));
        assert!(s.read(0, 3).is_ok());
        assert!(s.read(0, 4).is_ok());
        assert_eq!(s.evictions(), 3);
    }

    #[test]
    fn recovery_republish_is_never_evicted() {
        let s: BlockStore<u32> = BlockStore::new(1, Retention::KeepLast(1));
        s.publish(0, 0, 100, vec![0]);
        s.publish(0, 1, 101, vec![1]); // evicts v0
        s.publish(0, 0, 100, vec![0]); // recovery republish
        assert!(s.read(0, 0).is_ok());
        s.publish(0, 2, 102, vec![2]); // evicts v1, NOT the resident v0
        assert!(s.read(0, 0).is_ok(), "recovery-resident version survives");
        assert!(matches!(s.read(0, 1), Err(BlockError::Overwritten { .. })));
    }

    #[test]
    fn republish_existing_version_clears_poison() {
        let s: BlockStore<u32> = BlockStore::new(1, Retention::KeepAll);
        s.publish(0, 0, 100, vec![1]);
        assert!(s.poison(0, 0));
        assert_eq!(s.read(0, 0), Err(BlockError::Poisoned { producer: 100 }));
        s.publish(0, 0, 100, vec![2]);
        assert_eq!(&*s.read(0, 0).unwrap(), &vec![2]);
    }

    #[test]
    fn pinned_versions_resist_poison_and_eviction() {
        let s: BlockStore<u32> = BlockStore::new(1, Retention::KeepLast(1));
        s.publish_pinned(0, 0, vec![7]);
        assert!(!s.poison(0, 0), "pinned versions cannot be poisoned");
        s.publish(0, 1, 101, vec![8]);
        s.publish(0, 2, 102, vec![9]);
        assert!(s.read(0, 0).is_ok(), "pinned version survives eviction");
        assert!(matches!(s.read(0, 1), Err(BlockError::Overwritten { .. })));
    }

    #[test]
    fn missing_version_reports_missing() {
        let s: BlockStore<u32> = BlockStore::new(1, Retention::KeepAll);
        assert_eq!(s.read(0, 5), Err(BlockError::Missing));
        assert!(s.read_latest(0).is_err());
    }

    #[test]
    fn poison_missing_version_returns_false() {
        let s: BlockStore<u32> = BlockStore::new(1, Retention::KeepAll);
        assert!(!s.poison(0, 3));
    }

    #[test]
    fn into_fault_attribution() {
        let e = BlockError::Poisoned { producer: 42 };
        let f = e.into_fault();
        assert_eq!(f.source, 42);
        assert_eq!(f.kind, crate::fault::FaultKind::Data);
        let e = BlockError::Overwritten { producer: 9 };
        assert_eq!(e.into_fault().kind, crate::fault::FaultKind::Overwritten);
    }

    #[test]
    #[should_panic(expected = "dependence bug")]
    fn missing_into_fault_panics() {
        BlockError::Missing.into_fault();
    }

    #[test]
    fn is_live_reflects_state() {
        let s: BlockStore<u32> = BlockStore::new(1, Retention::KeepAll);
        assert!(!s.is_live(0, 0));
        s.publish(0, 0, 1, vec![1]);
        assert!(s.is_live(0, 0));
        s.poison(0, 0);
        assert!(!s.is_live(0, 0));
    }

    #[test]
    fn concurrent_publish_read() {
        let s = std::sync::Arc::new(BlockStore::<u64>::new(4, Retention::KeepLast(2)));
        std::thread::scope(|scope| {
            for b in 0..4usize {
                let s = std::sync::Arc::clone(&s);
                scope.spawn(move || {
                    for v in 0..100u64 {
                        s.publish(b, v, (b * 1000 + v as usize) as Key, vec![v; 8]);
                        // Latest must always be readable.
                        let (lv, data) = s.read_latest(b).unwrap();
                        assert_eq!(data[0], lv);
                    }
                });
            }
        });
        for b in 0..4 {
            assert_eq!(s.latest_version(b), Some(99));
        }
    }

    /// A payload that counts how many of its kind are alive.
    struct Live {
        version: Version,
        alive: Arc<AtomicUsize>,
    }

    impl Live {
        fn new(version: Version, alive: &Arc<AtomicUsize>) -> Vec<Live> {
            // ord: Relaxed — a test counter, read by the thread that
            // publishes or after a join.
            alive.fetch_add(1, Ordering::Relaxed);
            vec![Live {
                version,
                alive: Arc::clone(alive),
            }]
        }
    }

    impl Drop for Live {
        fn drop(&mut self) {
            // ord: Relaxed — see `Live::new`.
            self.alive.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// The reclamation gate: with no reader in flight, a block holds
    /// exactly the payloads its policy retains — the window, the pinned
    /// input and the recovery-resident republish — and every evicted one
    /// is freed during the run, not when the store drops.
    #[test]
    fn eviction_frees_payloads_with_no_reader_in_flight() {
        for retention in [
            Retention::KeepLast(1),
            Retention::KeepLast(2),
            Retention::KeepAll,
        ] {
            for (pinned, recovery) in [(false, false), (true, false), (false, true), (true, true)] {
                let case = format!("{retention:?} pinned={pinned} recovery={recovery}");
                let alive = Arc::new(AtomicUsize::new(0));
                // ord: Relaxed — single-threaded test.
                let count = || alive.load(Ordering::Relaxed);
                let s = BlockStore::new(1, retention);
                let first = Version::from(pinned);
                if pinned {
                    s.publish_pinned(0, 0, Live::new(0, &alive));
                }
                let mut recovered = 0;
                for (n, v) in (first..first + 10).enumerate() {
                    s.publish(0, v, 100 + v as Key, Live::new(v, &alive));
                    if recovery && v == first + 5 {
                        // Recovery re-executes the producer of an evicted
                        // version (under KeepAll it is still resident, and
                        // the republish replaces it).
                        s.publish(0, first + 1, 101, Live::new(first + 1, &alive));
                        recovered = usize::from(retention != Retention::KeepAll);
                    }
                    let window = match retention {
                        Retention::KeepLast(k) => (n + 1).min(k as usize),
                        Retention::KeepAll => n + 1,
                    };
                    let want = window + usize::from(pinned) + recovered;
                    assert_eq!(count(), want, "{case}: alive after publishing v{v}");
                    assert_eq!(s.resident_versions(0), want, "{case}: resident after v{v}");
                }

                // A reader's clone outlives the eviction of its version and
                // the freeing of every table that named it.
                let latest = first + 9;
                let held = s.read(0, latest).unwrap();
                let before = count();
                for v in latest + 1..latest + 4 {
                    s.publish(0, v, 100 + v as Key, Live::new(v, &alive));
                }
                assert_eq!(held[0].version, latest, "{case}: held payload intact");
                let evicted = matches!(retention, Retention::KeepLast(k) if k < 3);
                assert_eq!(
                    count(),
                    before + if evicted { 1 } else { 3 },
                    "{case}: only the held clone outlives its eviction"
                );
                drop(held);
                assert_eq!(count(), before + if evicted { 0 } else { 3 }, "{case}");
                drop(s);
                assert_eq!(count(), 0, "{case}: the store leaks no payload");
            }
        }
    }

    /// Readers race a writer that reclaims on every publish it can: every
    /// read sees its version's payload or its tombstone, and nothing
    /// leaks. (The nightly Miri step runs this for use-after-free.)
    #[test]
    fn reads_race_reclaiming_writer() {
        const LAST: Version = 100;
        let alive = Arc::new(AtomicUsize::new(0));
        let s = BlockStore::new(1, Retention::KeepLast(1));
        s.publish(0, 0, 100, Live::new(0, &alive));
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| loop {
                    // ord: Relaxed — only ends the loop; join orders the rest.
                    let finished = done.load(Ordering::Relaxed);
                    let (v, data) = s.read_latest(0).unwrap();
                    assert_eq!(data[0].version, v, "latest pairs version and payload");
                    for w in v.saturating_sub(1)..=v {
                        match s.read(0, w) {
                            Ok(d) => assert_eq!(d[0].version, w),
                            Err(e) => assert_eq!(
                                e,
                                BlockError::Overwritten {
                                    producer: 100 + w as Key
                                }
                            ),
                        }
                        s.is_live(0, w);
                    }
                    if finished {
                        break;
                    }
                });
            }
            for v in 1..=LAST {
                s.publish(0, v, 100 + v as Key, Live::new(v, &alive));
            }
            // ord: Relaxed — see the readers.
            done.store(true, Ordering::Relaxed);
        });
        // With the readers gone, the next publish frees every retired
        // table: only the window's payload is left.
        s.publish(0, LAST + 1, 0, Live::new(LAST + 1, &alive));
        // ord: Relaxed — after the scope's joins.
        assert_eq!(alive.load(Ordering::Relaxed), 1);
        drop(s);
        assert_eq!(alive.load(Ordering::Relaxed), 0);
    }
}
