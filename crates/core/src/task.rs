//! Task descriptors — the per-task runtime state of Section III.
//!
//! "For each task, the runtime holds the following fields: (int) join […],
//! (int64_t*) notifyArray […], (int) status". The fault-tolerant version
//! adds the notification bit vector, the life number, a recovery marker and
//! the poison/overwritten flags through which detected errors surface.
//!
//! Two descriptor types exist so the baseline scheduler (Figure 2,
//! non-shaded) carries **zero** fault-tolerance state — the paper's
//! "baseline version includes no additional data structures or statements
//! introduced for fault tolerance". The shared traversal engine sees both
//! through the [`Descriptor`] trait.
//!
//! Since PR 8 the descriptors are **allocation-free for typical fan-in**:
//! the predecessor list ([`PredList`]) and notify cells ([`NotifyCells`])
//! store up to [`INLINE_KEYS`] keys inline and only spill wider lists to
//! the heap, and the bit vector keeps its first word inline. A grid/LCS/LU
//! task (≤ 2 predecessors, ≤ 2 successors) therefore costs zero heap
//! allocations beyond its arena slot.
//!
//! Since PR 9 the notify array is **lock-free**: [`NotifyCells`] is a
//! fixed-capacity cell array (capacity = the task's out-degree, known from
//! the graph) whose slots are claimed by `fetch_add` and published with a
//! `Release` store, plus a CAS-installed overflow chain for the recovery
//! path's re-registrations. Delivery is arbitrated per slot by a
//! `key → TAKEN` compare-exchange, so registrant (self-delivery) and
//! drainer (completion scan) deliver each notification exactly once
//! without a mutex. See `docs/ALGORITHM.md` "Lock-free notification
//! (PR 9)" for the protocol and its ordering table.
//!
//! # Line map
//!
//! A descriptor is written by two disjoint crowds, and each gets a cache
//! line of its own (`#[repr(C, align(64))]`, field order below; the arena
//! hands out 64-aligned slots): line 0 holds what the task's **notifiers**
//! write (`join`, and under FT `bits`, next to `key`/`life`/`status` and
//! the flags), line 1 the [`NotifyCells`] its **registrants** write, line 2
//! the immutable [`PredList`]. An edge `B → A` therefore costs one
//! contended line on each end under either policy. The table and the
//! reasoning live in `docs/ALGORITHM.md`, "Descriptor line map";
//! `descriptors_are_line_partitioned` pins the offsets.

use crate::bitvec::AtomicBitVec;
use crate::fault::Fault;
use crate::graph::Key;
use crate::scheduler::engine::Descriptor;
use ft_sync::atomic::{AtomicBool, AtomicI64, AtomicU8, Ordering};

/// Keys stored inline by [`PredList`] and [`NotifyCells`] before spilling
/// to the heap. Four covers every regular kernel (grid/LCS/LU/strassen
/// fan-in ≤ 3) and the bulk of random-DAG nodes.
pub const INLINE_KEYS: usize = 4;

/// Ordered immediate-predecessor list with inline storage for up to
/// [`INLINE_KEYS`] keys. Immutable after construction.
pub struct PredList {
    len: u32,
    inline: [Key; INLINE_KEYS],
    /// Full list when `len > INLINE_KEYS`; empty (no allocation) otherwise.
    spill: Box<[Key]>,
}

impl PredList {
    /// Copy `preds` into a new list.
    pub fn new(preds: &[Key]) -> Self {
        let mut inline = [0; INLINE_KEYS];
        let spill = if preds.len() <= INLINE_KEYS {
            inline[..preds.len()].copy_from_slice(preds);
            Box::default()
        } else {
            preds.to_vec().into_boxed_slice()
        };
        PredList {
            len: preds.len() as u32,
            inline,
            spill,
        }
    }

    /// The predecessors, in graph order.
    pub fn as_slice(&self) -> &[Key] {
        if self.len as usize <= INLINE_KEYS {
            &self.inline[..self.len as usize]
        } else {
            &self.spill
        }
    }

    /// Number of predecessors.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when there are no predecessors.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl std::ops::Deref for PredList {
    type Target = [Key];
    fn deref(&self) -> &[Key] {
        self.as_slice()
    }
}

/// Outcome of a drainer's [`NotifyCells::take_at`] on one slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Take {
    /// The drainer won the slot's CAS: deliver this successor key.
    Deliver(Key),
    /// The slot was claimed but its key is not (yet) visible. The SC-fence
    /// protocol guarantees the registrant then observes `status ≥ Computed`
    /// after its own fence and self-delivers — the drainer skips the slot.
    Delegated,
    /// The slot was already delivered (by the registrant or an earlier
    /// scan).
    Done,
}

/// Slot value of a claimed-but-unpublished cell. `i64::MIN` is never a
/// task key (the block store reserves it as `RESILIENT_PRODUCER`, and no
/// graph in the suite issues it).
const CELL_EMPTY: i64 = i64::MIN;
/// Slot value after the notification was delivered (by whichever side won
/// the `key → TAKEN` compare-exchange).
const CELL_TAKEN: i64 = i64::MIN + 1;

/// Slots per overflow segment. Overflow is reached only by recovery-time
/// re-registrations (normal operation claims at most `out_degree` slots),
/// so segments are small.
const SEG_SLOTS: usize = 8;

/// One CAS-installed segment of the overflow chain.
struct OverflowSeg {
    /// First global slot index this segment covers.
    base: usize,
    slots: [AtomicI64; SEG_SLOTS],
    next: ft_sync::atomic::AtomicPtr<OverflowSeg>,
}

// ft-lint: hot-path begin(notify-cells)
impl OverflowSeg {
    fn new(base: usize) -> Box<Self> {
        // ft-lint: allow(L9) overflow segments exist only for recovery-time
        // re-registrations; the steady-state claim/publish/take path never
        // reaches this allocation.
        Box::new(OverflowSeg {
            base,
            slots: std::array::from_fn(|_| AtomicI64::new(CELL_EMPTY)),
            next: ft_sync::atomic::AtomicPtr::new(std::ptr::null_mut()),
        })
    }
}

/// Lock-free successor notification cells ("notifyArray", PR 9).
///
/// A registrant (successor `A` registering on predecessor `B`) claims a
/// slot index with `fetch_add`, publishes its key with a `Release` store,
/// then — after an SC fence — re-reads `B.status` and self-delivers if
/// `B` already computed. The drainer (`B`'s `ComputeAndNotify`) publishes
/// `Computed`, fences, and scans every claimed slot; a `key → TAKEN` CAS
/// arbitrates so each notification is delivered exactly once. An `EMPTY`
/// slot at scan time means the registrant's fence is ordered after the
/// drainer's, so the registrant is guaranteed to see `≥ Computed` and
/// self-deliver (Dekker argument — see `docs/ALGORITHM.md`).
///
/// Capacity covers the task's out-degree: `INLINE_KEYS` cells inline plus
/// a pre-sized spill. Claims beyond that (recovery re-registration) land
/// in a CAS-installed overflow chain.
///
/// One cache line, line-aligned: `claims` and the inline cells — the words
/// registrants write — never share a line with the owning descriptor's
/// join counter.
#[repr(C, align(64))]
pub struct NotifyCells {
    /// Next free slot index. SeqCst RMW/loads: the drainer's final length
    /// re-read orders against late claimers (termination argument).
    claims: ft_sync::atomic::AtomicUsize,
    /// Cells 0..INLINE_KEYS, stored inline.
    inline: [AtomicI64; INLINE_KEYS],
    /// Cells INLINE_KEYS..capacity for out-degrees above INLINE_KEYS;
    /// empty (no allocation) otherwise.
    spill: Box<[AtomicI64]>,
    /// CAS-installed chain for claims past the fixed capacity.
    overflow: ft_sync::atomic::AtomicPtr<OverflowSeg>,
}

// SAFETY: the raw overflow pointers only ever reference heap segments
// installed by a successful CAS (never aliased mutably after publication;
// every field of a segment is atomic) and are freed exactly once, in
// `Drop`, when no other thread can hold a reference (the descriptor arena
// outlives every job of the epoch and drops after quiesce).
unsafe impl Send for NotifyCells {}
// SAFETY: see the `Send` justification above; all shared state is atomic.
unsafe impl Sync for NotifyCells {}

impl NotifyCells {
    /// Cells with fixed capacity `max(capacity, INLINE_KEYS)`, all empty.
    pub fn new(capacity: usize) -> Self {
        let spill: Box<[AtomicI64]> = (INLINE_KEYS..capacity)
            .map(|_| AtomicI64::new(CELL_EMPTY))
            .collect();
        NotifyCells {
            claims: ft_sync::atomic::AtomicUsize::new(0),
            inline: std::array::from_fn(|_| AtomicI64::new(CELL_EMPTY)),
            spill,
            overflow: ft_sync::atomic::AtomicPtr::new(std::ptr::null_mut()),
        }
    }

    /// Fixed (inline + spill) capacity before the overflow chain starts.
    fn fixed_cap(&self) -> usize {
        INLINE_KEYS + self.spill.len()
    }

    /// The cell for `slot`, walking (and with `install`, extending) the
    /// overflow chain for slots past the fixed capacity. Returns `None`
    /// only when `install` is false and the covering segment is not (yet)
    /// published — the drainer treats that as [`Take::Delegated`].
    fn cell(&self, slot: usize, install: bool) -> Option<&AtomicI64> {
        if slot < INLINE_KEYS {
            return Some(&self.inline[slot]);
        }
        if slot < self.fixed_cap() {
            return Some(&self.spill[slot - INLINE_KEYS]);
        }
        let mut base = self.fixed_cap();
        let mut link = &self.overflow;
        loop {
            // ord: Acquire pairs with the Release CAS install below so the
            // segment's fields are visible once the pointer is.
            let mut ptr = link.load(Ordering::Acquire);
            if ptr.is_null() {
                if !install {
                    return None;
                }
                let seg = Box::into_raw(OverflowSeg::new(base));
                // ord: Release publishes the segment's initialized fields;
                // Acquire on failure sees the winner's segment.
                match link.compare_exchange(
                    std::ptr::null_mut(),
                    seg,
                    Ordering::Release,
                    Ordering::Acquire,
                ) {
                    Ok(_) => ptr = seg,
                    Err(winner) => {
                        // SAFETY: the CAS failed, so `seg` was never
                        // published — this thread still uniquely owns it.
                        drop(unsafe { Box::from_raw(seg) });
                        ptr = winner;
                    }
                }
            }
            // SAFETY: non-null chain pointers always reference live
            // published segments; segments are only freed in `Drop`.
            let seg = unsafe { &*ptr };
            debug_assert_eq!(seg.base, base, "overflow chain bases are sequential");
            if slot < base + SEG_SLOTS {
                return Some(&seg.slots[slot - base]);
            }
            base += SEG_SLOTS;
            link = &seg.next;
        }
    }

    /// Registrant step 1: reserve a slot index.
    pub fn claim(&self) -> usize {
        // ord: SeqCst so the drainer's final SeqCst length re-read and this
        // RMW are totally ordered — a claim the drainer's last read missed
        // is SC-ordered after the drainer's fence, which forces the
        // registrant's post-fence status read to observe ≥ Computed.
        self.claims.fetch_add(1, Ordering::SeqCst)
    }

    /// Registrant step 2: publish `key` into the claimed `slot`.
    pub fn publish(&self, slot: usize, key: Key) {
        debug_assert!(
            key > CELL_TAKEN,
            "task keys must not collide with sentinels"
        );
        let cell = self.cell(slot, true).expect("installed above");
        // ord: Release pairs with the drainer's Acquire scan load.
        cell.store(key, Ordering::Release);
    }

    /// Registrant self-delivery arbitration: after observing
    /// `status ≥ Computed`, atomically take back the own slot. Returns
    /// `true` iff this registrant won (the drainer did not deliver it).
    pub fn try_take(&self, slot: usize, key: Key) -> bool {
        let cell = self.cell(slot, true).expect("installed by publish");
        // ord: AcqRel — the winner orders its delivery after the publish.
        cell.compare_exchange(key, CELL_TAKEN, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Drainer scan of one claimed slot.
    pub fn take_at(&self, slot: usize) -> Take {
        let Some(cell) = self.cell(slot, false) else {
            return Take::Delegated;
        };
        // ord: Acquire pairs with the registrant's Release publish.
        match cell.load(Ordering::Acquire) {
            CELL_EMPTY => Take::Delegated,
            CELL_TAKEN => Take::Done,
            key => {
                // ord: AcqRel — winning the CAS orders the delivery after
                // the registrant's publish; a loss means the registrant
                // self-delivered (the only other transition is key→TAKEN).
                if cell
                    .compare_exchange(key, CELL_TAKEN, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    Take::Deliver(key)
                } else {
                    Take::Done
                }
            }
        }
    }

    /// Number of claimed slots so far.
    pub fn len(&self) -> usize {
        // ord: SeqCst — see `claim`; the drainer's termination check relies
        // on the total order with late claim RMWs.
        self.claims.load(Ordering::SeqCst)
    }

    /// True when no successor has claimed a slot.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
// ft-lint: hot-path end(notify-cells)

impl Drop for NotifyCells {
    fn drop(&mut self) {
        // ord: Relaxed is enough — `&mut self` proves exclusive access.
        let mut ptr = self.overflow.load(Ordering::Relaxed);
        while !ptr.is_null() {
            // SAFETY: `&mut self` means no other reference exists; each
            // segment was leaked from a `Box` by exactly one winning CAS
            // and is freed exactly once here.
            let seg = unsafe { Box::from_raw(ptr) };
            // ord: Relaxed — exclusive access, see above.
            ptr = seg.next.load(Ordering::Relaxed);
        }
    }
}

/// Execution status of a task ("Visited, Computed, and Completed").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Status {
    /// Created and inserted into the hash map; compute not yet done.
    Visited = 0,
    /// The `compute` function has executed.
    Computed = 1,
    /// All enqueued successors have been notified.
    Completed = 2,
}

impl Status {
    /// Decode a raw status byte; `None` if the byte holds none of the
    /// three legal values — a smashed status, which the FT scheduler
    /// surfaces as a descriptor fault rather than a spuriously finished
    /// task.
    pub fn from_u8(v: u8) -> Option<Status> {
        match v {
            0 => Some(Status::Visited),
            1 => Some(Status::Computed),
            2 => Some(Status::Completed),
            _ => None,
        }
    }
}

/// Descriptor for the **baseline** (non-fault-tolerant) scheduler. Field
/// order is the module's line map.
#[repr(C, align(64))]
pub struct BaseDesc {
    /// Join counter, initialized to `|preds)| + 1` (the +1 is consumed by
    /// the self-notification at the end of `InitAndCompute`).
    pub join: AtomicI64,
    /// Task key.
    pub key: Key,
    /// Execution status.
    pub status: AtomicU8,
    /// Successor notification cells, sized by the task's out-degree.
    pub notify: NotifyCells,
    /// Ordered immediate predecessors (cached at creation; `Init(A)`).
    pub preds: PredList,
}

impl BaseDesc {
    /// Create a descriptor with the given ordered predecessor list and
    /// notify capacity (the task's out-degree).
    pub fn new(key: Key, preds: &[Key], out_degree: usize) -> Self {
        let join = preds.len() as i64 + 1;
        BaseDesc {
            join: AtomicI64::new(join),
            key,
            status: AtomicU8::new(Status::Visited as u8),
            notify: NotifyCells::new(out_degree),
            preds: PredList::new(preds),
        }
    }

    /// Current status. The baseline has no fault model, so a corrupt
    /// status byte (impossible without injection) is a panic, never a
    /// silent `Completed`.
    pub fn status(&self) -> Status {
        // ord: Acquire — pairs with set_status's Release so the Figure-2
        // gate observing Computed also sees the task's output blocks.
        Status::from_u8(self.status.load(Ordering::Acquire))
            .expect("corrupt status byte — the baseline scheduler has no fault model")
    }

    /// Store a new status.
    pub fn set_status(&self, s: Status) {
        // ord: Release — publishes the writes that justify the new status.
        self.status.store(s as u8, Ordering::Release);
    }
}

impl Descriptor for BaseDesc {
    fn life(&self) -> u64 {
        1
    }
    fn preds(&self) -> &[Key] {
        &self.preds
    }
    fn join(&self) -> &AtomicI64 {
        &self.join
    }
    fn notify_cells(&self) -> &NotifyCells {
        &self.notify
    }
    fn set_status(&self, s: Status) {
        BaseDesc::set_status(self, s);
    }
}

/// Descriptor for the **fault-tolerant** scheduler. Field order is the
/// module's line map: 60 B of notifier-written state, the 64 B notify
/// cells, the 56 B predecessor list — three lines exactly.
#[repr(C, align(64))]
pub struct FtDesc {
    /// Join counter: the number of non-empty words of `bits` (1 for every
    /// task with ≤ 63 predecessors). The clear that empties a word
    /// decrements it; the task is ready at zero.
    pub join: AtomicI64,
    /// Per-predecessor (plus self) notification bits; Guarantee 3.
    pub bits: AtomicBitVec,
    /// Task key.
    pub key: Key,
    /// Life number of this incarnation (1 = original; recovery replaces the
    /// map entry with a descriptor of life+1).
    pub life: u64,
    /// Execution status.
    pub status: AtomicU8,
    /// True once a detected soft error has corrupted this descriptor.
    /// "Once an error is detected, all subsequent accesses observe it."
    pub poisoned: AtomicBool,
    /// True once a data-block version produced by this task was evicted and
    /// is again needed — the task must be re-executed as if it failed.
    pub overwritten: AtomicBool,
    /// True when this incarnation was created by `RecoverTask`.
    pub is_recovery: AtomicBool,
    /// Successor notification cells, sized by the task's out-degree. A
    /// recovered incarnation gets a **fresh** descriptor (life+1) and
    /// therefore fresh cells — the life number doubles as the generation
    /// tag, so `ResetNode`/`ReinitNotifyEntry` never clear cells in place.
    pub notify: NotifyCells,
    /// Ordered immediate predecessors.
    pub preds: PredList,
}

impl FtDesc {
    /// Create incarnation `life` of task `key` with the given ordered
    /// predecessor list and notify capacity (the task's out-degree). The
    /// bit vector covers `preds` plus the self slot; the join counter, its
    /// words.
    pub fn new(key: Key, life: u64, preds: &[Key], out_degree: usize) -> Self {
        let bits = AtomicBitVec::new_all_set(preds.len() + 1);
        FtDesc {
            join: AtomicI64::new(bits.words() as i64),
            bits,
            key,
            life,
            status: AtomicU8::new(Status::Visited as u8),
            poisoned: AtomicBool::new(false),
            overwritten: AtomicBool::new(false),
            is_recovery: AtomicBool::new(false),
            notify: NotifyCells::new(out_degree),
            preds: PredList::new(preds),
        }
    }

    /// Guarded status read: a byte outside the three legal values means
    /// the descriptor was corrupted, and surfaces as a descriptor fault
    /// exactly like a poisoned flag.
    pub fn try_status(&self) -> Result<Status, Fault> {
        // ord: Acquire — pairs with set_status's Release so the Figure-2
        // gate observing Computed also sees the task's output blocks.
        Status::from_u8(self.status.load(Ordering::Acquire))
            .ok_or_else(|| Fault::descriptor(self.key, self.life))
    }

    /// Store a new status.
    pub fn set_status(&self, s: Status) {
        // ord: Release — publishes the writes that justify the new status.
        self.status.store(s as u8, Ordering::Release);
    }

    /// Guarded access: fail if this descriptor has been corrupted. Every
    /// routine that touches the descriptor inside one of the paper's try
    /// blocks calls this first.
    pub fn check(&self) -> Result<(), Fault> {
        // ord: Acquire — observing the poison flag must also see the fault
        // context written before it was raised (Release in poison_task).
        if self.poisoned.load(Ordering::Acquire) {
            Err(Fault::descriptor(self.key, self.life))
        } else {
            Ok(())
        }
    }

    /// `ConvertPredKeyToIndex`: position of `pkey` in the ordered
    /// predecessor list, or the self slot when `pkey == self.key`.
    ///
    /// Returns `None` when `pkey` is not a predecessor (can happen when the
    /// predecessor list of a *new incarnation* differs — it cannot for the
    /// deterministic graphs the contract requires, so callers treat `None`
    /// as a descriptor error).
    pub fn pred_index(&self, pkey: Key) -> Option<usize> {
        if pkey == self.key {
            return Some(self.preds.len());
        }
        self.preds.iter().position(|&p| p == pkey)
    }

    /// `ResetNode` state restoration: join back to the word count, all
    /// bits set. (The caller then re-runs `InitAndCompute`.) The join
    /// counter is restored *before* the bits: a notifier can empty a word
    /// only after seeing one of its bits set again, so its decrement always
    /// lands on the restored count.
    pub fn reset_for_reexploration(&self) {
        // ord: Release — the restored join count publishes the reset state
        // before the node is re-announced to notifiers.
        self.join.store(self.bits.words() as i64, Ordering::Release);
        self.bits.set_all();
    }
}

impl Descriptor for FtDesc {
    fn life(&self) -> u64 {
        self.life
    }
    fn preds(&self) -> &[Key] {
        &self.preds
    }
    fn join(&self) -> &AtomicI64 {
        &self.join
    }
    fn notify_cells(&self) -> &NotifyCells {
        &self.notify
    }
    fn set_status(&self, s: Status) {
        FtDesc::set_status(self, s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_desc_initial_state() {
        let d = BaseDesc::new(5, &[1, 2, 3], 2);
        assert_eq!(d.key, 5);
        assert_eq!(d.join.load(Ordering::Relaxed), 4);
        assert_eq!(d.status(), Status::Visited);
        assert!(d.notify.is_empty());
    }

    #[test]
    fn ft_desc_initial_state() {
        let d = FtDesc::new(5, 1, &[1, 2], 2);
        assert_eq!(d.life, 1);
        assert_eq!(d.join.load(Ordering::Relaxed), 1, "one non-empty word");
        assert_eq!(d.bits.len(), 3);
        assert_eq!(d.bits.count_set(), 3);
        assert!(d.check().is_ok());
        assert!(!d.is_recovery.load(Ordering::Relaxed));
    }

    /// The line map of the module docs, pinned: notifiers' words on line
    /// 0, registrants' words on line 1, nothing straddling, and the FT
    /// descriptor no larger than three lines (a fourth costs `peak_rss_mb`
    /// more than its bound on `grid_wavefront`).
    #[test]
    fn descriptors_are_line_partitioned() {
        use std::mem::{align_of, offset_of, size_of};
        const LINE: usize = 64;
        assert_eq!(align_of::<FtDesc>(), LINE);
        assert_eq!(align_of::<BaseDesc>(), LINE);
        assert!(size_of::<FtDesc>() <= 3 * LINE, "{}", size_of::<FtDesc>());
        assert!(size_of::<BaseDesc>() <= 3 * LINE);

        // Notifier-written words share line 0 (both policies).
        assert_eq!(offset_of!(FtDesc, join) / LINE, 0);
        assert_eq!(
            offset_of!(FtDesc, join) / LINE,
            offset_of!(FtDesc, bits) / LINE
        );
        let bits_end = offset_of!(FtDesc, bits) + size_of::<AtomicBitVec>();
        assert!(bits_end <= LINE, "the whole bit vector stays on line 0");
        for flag in [
            offset_of!(FtDesc, status),
            offset_of!(FtDesc, poisoned),
            offset_of!(FtDesc, overwritten),
            offset_of!(FtDesc, is_recovery),
        ] {
            assert_eq!(flag / LINE, 0);
        }
        assert_eq!(offset_of!(BaseDesc, join) / LINE, 0);
        assert_eq!(offset_of!(BaseDesc, status) / LINE, 0);

        // Registrant-written words: claims + inline cells within one line,
        // and that line is not the join counter's.
        assert_eq!(align_of::<NotifyCells>(), LINE);
        assert_eq!(size_of::<NotifyCells>(), LINE);
        let cells_end = offset_of!(NotifyCells, inline) + size_of::<[AtomicI64; INLINE_KEYS]>();
        assert!(offset_of!(NotifyCells, claims) < LINE && cells_end <= LINE);
        assert_eq!(offset_of!(FtDesc, notify), LINE);
        assert_eq!(offset_of!(BaseDesc, notify), LINE);

        // The immutable predecessor list has the last line to itself.
        assert_eq!(offset_of!(FtDesc, preds), 2 * LINE);
        assert_eq!(offset_of!(BaseDesc, preds), 2 * LINE);
    }

    #[test]
    fn arena_hands_out_line_aligned_descriptors() {
        use ft_steal::arena::Arena;
        let arena: Arena<FtDesc> = Arena::new();
        // More than one chunk's worth, so chunk boundaries are covered too.
        let per_chunk = ft_steal::arena::CHUNK_BYTES / std::mem::size_of::<FtDesc>();
        for k in 0..(2 * per_chunk + 3) as Key {
            let d = arena.alloc(FtDesc::new(k, 1, &[k + 1, k + 2], 2));
            assert_eq!(d.as_ptr() as usize % 64, 0, "descriptor {k} misaligned");
            assert_eq!(d.key, k);
        }
        assert!(arena.chunks_allocated() >= 3);
    }

    #[test]
    fn pred_list_inline_and_spilled() {
        let short = PredList::new(&[1, 2, 3, 4]);
        assert_eq!(short.as_slice(), &[1, 2, 3, 4]);
        assert_eq!(short.len(), 4);
        let long: Vec<Key> = (0..9).collect();
        let spilled = PredList::new(&long);
        assert_eq!(spilled.as_slice(), long.as_slice());
        assert!(PredList::new(&[]).is_empty());
    }

    #[test]
    fn notify_cells_claim_publish_take() {
        let n = NotifyCells::new(2);
        assert!(n.is_empty());
        // Claim/publish across inline, spill and overflow regions.
        for k in 0..10 {
            let slot = n.claim();
            assert_eq!(slot, k as usize);
            n.publish(slot, 100 + k);
        }
        assert_eq!(n.len(), 10);
        for k in 0..10 {
            assert_eq!(n.take_at(k as usize), Take::Deliver(100 + k));
            assert_eq!(n.take_at(k as usize), Take::Done, "exactly-once");
        }
    }

    #[test]
    fn notify_cells_claimed_but_unpublished_is_delegated() {
        let n = NotifyCells::new(1);
        let slot = n.claim();
        assert_eq!(n.take_at(slot), Take::Delegated);
        n.publish(slot, 7);
        assert_eq!(n.take_at(slot), Take::Deliver(7));
    }

    #[test]
    fn notify_cells_registrant_self_delivery_wins_once() {
        let n = NotifyCells::new(4);
        let slot = n.claim();
        n.publish(slot, 42);
        assert!(n.try_take(slot, 42), "registrant wins the untouched slot");
        assert!(!n.try_take(slot, 42));
        assert_eq!(n.take_at(slot), Take::Done, "drainer then finds it taken");
        // And the reverse order: drainer first, registrant loses.
        let slot2 = n.claim();
        n.publish(slot2, 43);
        assert_eq!(n.take_at(slot2), Take::Deliver(43));
        assert!(!n.try_take(slot2, 43));
    }

    #[test]
    fn notify_cells_overflow_scan_without_install_is_delegated() {
        // A drainer scanning a slot whose overflow segment is not yet
        // installed must delegate, not panic.
        let n = NotifyCells::new(0);
        for _ in 0..20 {
            n.claim();
        }
        assert_eq!(n.take_at(19), Take::Delegated);
    }

    #[test]
    fn notify_cells_concurrent_claims_are_unique_and_all_delivered() {
        use std::collections::HashSet;
        use std::sync::Arc;
        let n = Arc::new(NotifyCells::new(4));
        std::thread::scope(|s| {
            for t in 0..8i64 {
                let n = Arc::clone(&n);
                s.spawn(move || {
                    for i in 0..32 {
                        let slot = n.claim();
                        n.publish(slot, t * 1000 + i);
                    }
                });
            }
        });
        assert_eq!(n.len(), 8 * 32);
        let mut seen = HashSet::new();
        for slot in 0..n.len() {
            match n.take_at(slot) {
                Take::Deliver(k) => assert!(seen.insert(k), "duplicate key {k}"),
                other => panic!("slot {slot}: expected Deliver, got {other:?}"),
            }
        }
        assert_eq!(seen.len(), 8 * 32);
    }

    #[test]
    fn status_ordering_matches_paper() {
        // "if (B.status < Computed)" relies on Visited < Computed < Completed.
        assert!(Status::Visited < Status::Computed);
        assert!(Status::Computed < Status::Completed);
    }

    #[test]
    fn from_u8_rejects_garbage() {
        assert_eq!(Status::from_u8(0), Some(Status::Visited));
        assert_eq!(Status::from_u8(1), Some(Status::Computed));
        assert_eq!(Status::from_u8(2), Some(Status::Completed));
        for v in 3..=255u8 {
            assert_eq!(Status::from_u8(v), None, "byte {v} must not decode");
        }
    }

    #[test]
    fn ft_corrupt_status_byte_is_a_descriptor_fault() {
        let d = FtDesc::new(7, 3, &[1], 1);
        assert_eq!(d.try_status().unwrap(), Status::Visited);
        d.status.store(0xAB, Ordering::Release);
        let err = d.try_status().unwrap_err();
        assert_eq!(err.source, 7);
        assert_eq!(err.life, 3);
    }

    #[test]
    #[should_panic(expected = "corrupt status byte")]
    fn base_corrupt_status_byte_panics() {
        let d = BaseDesc::new(1, &[], 0);
        d.status.store(0xFF, Ordering::Release);
        let _ = d.status();
    }

    #[test]
    fn pred_index_including_self() {
        let d = FtDesc::new(10, 1, &[7, 8, 9], 1);
        assert_eq!(d.pred_index(7), Some(0));
        assert_eq!(d.pred_index(9), Some(2));
        assert_eq!(d.pred_index(10), Some(3), "self slot is last");
        assert_eq!(d.pred_index(99), None);
    }

    #[test]
    fn pred_index_with_spilled_preds() {
        let preds: Vec<Key> = (100..108).collect();
        let d = FtDesc::new(10, 1, &preds, 1);
        assert_eq!(d.pred_index(100), Some(0));
        assert_eq!(d.pred_index(107), Some(7));
        assert_eq!(d.pred_index(10), Some(8), "self slot is last");
        assert_eq!(d.bits.len(), 9);
    }

    #[test]
    fn check_fails_after_poison() {
        let d = FtDesc::new(3, 2, &[], 1);
        d.poisoned.store(true, Ordering::Release);
        let err = d.check().unwrap_err();
        assert_eq!(err.source, 3);
        assert_eq!(err.life, 2);
    }

    #[test]
    fn reset_restores_join_and_bits() {
        let d = FtDesc::new(1, 1, &[2, 3], 1);
        assert!(d.bits.unset(0));
        assert!(d.bits.unset(2));
        d.join.store(0, Ordering::Relaxed);
        d.reset_for_reexploration();
        assert_eq!(d.join.load(Ordering::Relaxed), 1);
        assert_eq!(d.bits.count_set(), 3);
        // A spilled vector restores one unit per word.
        let preds: Vec<Key> = (100..200).collect();
        let wide = FtDesc::new(1, 1, &preds, 1);
        assert_eq!(wide.join.load(Ordering::Relaxed), 2);
        wide.join.store(0, Ordering::Relaxed);
        wide.reset_for_reexploration();
        assert_eq!(wide.join.load(Ordering::Relaxed), 2);
        assert_eq!(wide.bits.count_set(), 101);
    }

    #[test]
    fn source_task_has_join_one() {
        // A source (no preds) still needs the self-notification to fire.
        let d = FtDesc::new(0, 1, &[], 1);
        assert_eq!(d.join.load(Ordering::Relaxed), 1);
        assert_eq!(d.pred_index(0), Some(0));
    }
}
