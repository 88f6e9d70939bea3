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
//! ## Wait-free reads (PR 9)
//!
//! Reads never take a lock. Each block publishes an **immutable version
//! table** through an [`AtomicPtr`] plus a
//! `latest` version counter (`version + 1`, 0 = none), mirroring the
//! copy-on-write discipline of `ft-cmap` (PR 4): writers serialize on a
//! per-block mutex, build a fresh table, and publish it with a Release
//! store *before* bumping `latest` (also Release). A reader that
//! Acquire-loads `latest` and then Acquire-loads the table is therefore
//! guaranteed to find the version `latest` names — the table can only be
//! *newer* than the counter, never older. Retired tables are parked in a
//! graveyard guarded by the writer mutex and freed when the store drops,
//! so a table pointer loaded by any reader stays valid for the store's
//! lifetime (no hazard pointers or epochs needed at this version-grained
//! churn rate; tables are small — one slot per version ever published).

use crate::fault::Fault;
use crate::graph::Key;
use ft_sync::atomic::{AtomicPtr, AtomicU64, Ordering};
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

/// An immutable snapshot of every version ever published to one block,
/// sorted by version number. Writers replace the whole table; readers
/// binary-search a consistent snapshot without synchronizing with writers.
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
}

struct Block<T> {
    /// Latest published version + 1 (0 = nothing published yet).
    latest: AtomicU64,
    /// Current table. Writers store with Release after building the new
    /// snapshot; readers load with Acquire and dereference lock-free.
    table: AtomicPtr<Table<T>>,
    /// Writer serialization. The guarded vec is the graveyard of retired
    /// tables: readers may still hold references into them, so they are
    /// only freed in `Drop`, under exclusive access.
    writer: Mutex<Vec<*mut Table<T>>>,
}

// SAFETY: the only fields the auto-trait derivation cannot see are the raw
// `Table` pointers (current and retired). Tables are created by writers,
// published via the AtomicPtr, and freed exactly once under `&mut self` in
// `Drop`; between publication and drop they are immutable and live, so
// sharing `&Block<T>` across threads hands out only `&Table<T>` /
// `Arc<Vec<T>>` views, which requires `T: Send + Sync` (the same bound the
// pre-PR9 `Mutex<BTreeMap>` layout imposed structurally).
unsafe impl<T: Send + Sync> Send for Block<T> {}
// SAFETY: see the `Send` impl above — all shared access is to immutable
// published tables.
unsafe impl<T: Send + Sync> Sync for Block<T> {}

impl<T> Block<T> {
    fn new() -> Self {
        Block {
            latest: AtomicU64::new(0),
            table: AtomicPtr::new(Box::into_raw(Box::new(Table { slots: Vec::new() }))),
            writer: Mutex::new(Vec::new()),
        }
    }

    /// Reader-side snapshot of the current table.
    fn snapshot(&self) -> &Table<T> {
        // ord: Acquire pairs with the writer's Release publish so the
        // table's slots (built before the store) are visible.
        let p = self.table.load(Ordering::Acquire);
        // SAFETY: `p` was published from `Box::into_raw` and is freed only
        // in `Drop` (retired tables included), so it outlives this `&self`.
        unsafe { &*p }
    }

    /// Writer-side: replace the table, retiring the old one. Must be
    /// called with the `writer` lock held (the guard proves it).
    fn install(&self, graveyard: &mut Vec<*mut Table<T>>, next: Table<T>) {
        let next = Box::into_raw(Box::new(next));
        // ord: Release publishes the fully built table to readers; the
        // writer lock serializes with other writers, so no CAS is needed.
        let old = self.table.swap(next, Ordering::Release);
        graveyard.push(old);
    }
}

impl<T> Drop for Block<T> {
    fn drop(&mut self) {
        // ord: Relaxed — `&mut self` means no concurrent readers/writers.
        let cur = self.table.load(Ordering::Relaxed);
        // SAFETY: `cur` and every graveyard pointer came from
        // `Box::into_raw`, each is freed exactly once (a pointer is either
        // current or retired, never both), and exclusive access means no
        // reader still holds a reference.
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
    republishes: AtomicU64,
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
            republishes: AtomicU64::new(0),
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
        let blk = &self.blocks[block];
        let mut graveyard = blk.writer.lock();
        let cur = blk.snapshot();
        // Pinned versions are resilient inputs: no task legitimately
        // redefines them, and they must stay pinned. Ignore such writes.
        if matches!(cur.find(version), Some(s) if s.producer == RESILIENT_PRODUCER && s.data.is_some())
        {
            return;
        }
        // ord: Relaxed — `latest` is only written under the writer lock we
        // hold, so this read cannot race a store.
        let latest = blk.latest.load(Ordering::Relaxed);
        let is_new_latest = latest == 0 || version + 1 > latest;
        // Recovery-resident iff re-instating a version that is currently
        // *not* resident (evicted tombstone or never seen below latest).
        let recovery_resident =
            !is_new_latest && !matches!(cur.find(version), Some(s) if s.data.is_some());
        if !is_new_latest {
            // ord: Relaxed — statistics counter, read at quiescence.
            self.republishes.fetch_add(1, Ordering::Relaxed);
        }
        let mut slots = cur.slots.clone();
        let slot = Slot {
            version,
            producer,
            poisoned: false,
            recovery_resident,
            data: Some(Arc::new(data)),
        };
        match slots.binary_search_by_key(&version, |s| s.version) {
            Ok(i) => slots[i] = slot,
            Err(i) => slots.insert(i, slot),
        }
        if is_new_latest {
            if let Retention::KeepLast(k) = self.retention {
                // The version sliding out of the window. Pinned (resilient)
                // and recovery-resident versions are exempt.
                if version >= k {
                    let out = version - k;
                    if let Ok(i) = slots.binary_search_by_key(&out, |s| s.version) {
                        let s = &mut slots[i];
                        if s.data.is_some()
                            && !s.recovery_resident
                            && s.producer != RESILIENT_PRODUCER
                        {
                            // Tombstone: drop the payload, keep producer
                            // attribution for Overwritten errors.
                            s.data = None;
                            // ord: Relaxed — statistics counter.
                            self.evictions.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }
        }
        blk.install(&mut graveyard, Table { slots });
        if is_new_latest {
            // ord: Release *after* the table store — a reader that
            // Acquire-loads this counter is guaranteed to find `version`
            // in whatever table it subsequently loads.
            blk.latest.store(version + 1, Ordering::Release);
        }
    }

    /// Publish a pinned version that is never evicted nor poisoned — used
    /// for initial inputs, which the paper assumes are "made resilient
    /// through other means".
    pub fn publish_pinned(&self, block: BlockId, version: Version, data: Vec<T>) {
        let blk = &self.blocks[block];
        let mut graveyard = blk.writer.lock();
        let cur = blk.snapshot();
        let mut slots = cur.slots.clone();
        let slot = Slot {
            version,
            producer: RESILIENT_PRODUCER,
            poisoned: false,
            recovery_resident: false,
            data: Some(Arc::new(data)),
        };
        match slots.binary_search_by_key(&version, |s| s.version) {
            Ok(i) => slots[i] = slot,
            Err(i) => slots.insert(i, slot),
        }
        blk.install(&mut graveyard, Table { slots });
        // ord: Relaxed load is writer-private (see `publish`); Release
        // store pairs with reader Acquire loads.
        if version + 1 > blk.latest.load(Ordering::Relaxed) {
            blk.latest.store(version + 1, Ordering::Release);
        }
    }

    // ft-lint: hot-path begin(block-read)

    /// Read version `version` of `block`. Fails with the producing task if
    /// the version is poisoned or was evicted. **Wait-free**: never blocks
    /// on concurrent publishers.
    pub fn read(&self, block: BlockId, version: Version) -> Result<Arc<Vec<T>>, BlockError> {
        match self.blocks[block].snapshot().find(version) {
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
        }
    }

    /// Read the *latest* version of `block` (diagnostics/verification).
    /// **Wait-free**: never blocks on concurrent publishers.
    ///
    /// Version and payload come from one table snapshot — the slots are
    /// version-sorted and the highest version ever published is never
    /// evicted, so the last slot *is* the latest version. (Reading the
    /// `latest` counter and then the table would not be atomic: a
    /// concurrent publish could evict the counter's version from the
    /// newer snapshot.)
    pub fn read_latest(&self, block: BlockId) -> Result<(Version, Arc<Vec<T>>), BlockError> {
        match self.blocks[block].snapshot().slots.last() {
            Some(s) if s.poisoned => Err(BlockError::Poisoned {
                producer: s.producer,
            }),
            Some(s) => match &s.data {
                Some(d) => Ok((s.version, Arc::clone(d))),
                None => Err(BlockError::Missing),
            },
            None => Err(BlockError::Missing),
        }
    }

    /// Latest published version of `block`, if any. Wait-free.
    pub fn latest_version(&self, block: BlockId) -> Option<Version> {
        // ord: Acquire pairs with the publisher's Release store.
        match self.blocks[block].latest.load(Ordering::Acquire) {
            0 => None,
            l => Some(l - 1),
        }
    }

    // ft-lint: hot-path end(block-read)

    /// Poison version `version` of `block` (fault injection). Pinned
    /// versions are resilient and ignore poisoning. Returns true if a
    /// resident version was poisoned.
    pub fn poison(&self, block: BlockId, version: Version) -> bool {
        let blk = &self.blocks[block];
        let mut graveyard = blk.writer.lock();
        let cur = blk.snapshot();
        let resident = matches!(
            cur.find(version),
            Some(s) if s.producer != RESILIENT_PRODUCER && s.data.is_some()
        );
        if !resident {
            return false;
        }
        let mut slots = cur.slots.clone();
        if let Ok(i) = slots.binary_search_by_key(&version, |s| s.version) {
            slots[i].poisoned = true;
        }
        blk.install(&mut graveyard, Table { slots });
        true
    }

    /// True if `block` currently holds `version` un-poisoned. Wait-free.
    pub fn is_live(&self, block: BlockId, version: Version) -> bool {
        matches!(
            self.blocks[block].snapshot().find(version),
            Some(s) if !s.poisoned && s.data.is_some()
        )
    }

    /// Total evictions performed (memory-reuse overwrites).
    pub fn evictions(&self) -> u64 {
        // ord: Relaxed — statistics read at quiescence.
        self.evictions.load(Ordering::Relaxed)
    }

    /// Total recovery republishes of old versions.
    pub fn republishes(&self) -> u64 {
        // ord: Relaxed — statistics read at quiescence.
        self.republishes.load(Ordering::Relaxed)
    }

    /// Number of resident versions of `block` (diagnostics). Wait-free.
    pub fn resident_versions(&self, block: BlockId) -> usize {
        self.blocks[block]
            .snapshot()
            .slots
            .iter()
            .filter(|s| s.data.is_some())
            .count()
    }
}

impl<T: Send + Clone> BlockStore<T> {
    /// Export the latest un-poisoned version of every block — the generic
    /// checkpoint primitive behind application-level snapshot/resume
    /// (see `Fw::snapshot_tiles`). Blocks whose latest version is poisoned
    /// or missing are skipped (their producers would be re-executed on
    /// restore anyway).
    pub fn export_latest(&self) -> Vec<(BlockId, Version, Vec<T>)> {
        let mut out = Vec::new();
        for bid in 0..self.blocks.len() {
            if let Ok((latest, data)) = self.read_latest(bid) {
                out.push((bid, latest, data.as_ref().clone()));
            }
        }
        out
    }

    /// Import a checkpoint produced by [`BlockStore::export_latest`] into a
    /// fresh store: every entry becomes a pinned (resilient) version.
    pub fn import_pinned(&self, snapshot: Vec<(BlockId, Version, Vec<T>)>) {
        for (bid, version, data) in snapshot {
            self.publish_pinned(bid, version, data);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(s.republishes(), 1);
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
    fn export_import_roundtrip() {
        let a: BlockStore<u32> = BlockStore::new(3, Retention::KeepLast(2));
        a.publish(0, 0, 10, vec![1]);
        a.publish(0, 1, 11, vec![2]);
        a.publish(1, 5, 15, vec![3]);
        // Block 2 never published; block 0 latest poisoned.
        a.publish(2, 0, 20, vec![9]);
        a.poison(2, 0);
        let snap = a.export_latest();
        assert_eq!(snap.len(), 2, "poisoned/missing latests skipped");

        let b: BlockStore<u32> = BlockStore::new(3, Retention::KeepLast(2));
        b.import_pinned(snap);
        assert_eq!(&*b.read(0, 1).unwrap(), &vec![2]);
        assert_eq!(&*b.read(1, 5).unwrap(), &vec![3]);
        assert!(b.read(2, 0).is_err());
        // Imported versions are pinned: survive later eviction pressure.
        b.publish(0, 2, 30, vec![4]);
        b.publish(0, 3, 31, vec![5]);
        b.publish(0, 4, 32, vec![6]);
        assert!(b.read(0, 1).is_ok(), "pinned checkpoint survives");
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
}
