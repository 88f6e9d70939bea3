//! Segmented lock-free MPMC injector queue.
//!
//! External submissions enter the pool through this queue (crossbeam-
//! `Injector` style): a linked list of fixed-size **blocks**, each a lap of
//! 32 indices of which 31 hold slots and the last is a *boundary marker*.
//! Producers and consumers claim indices with a CAS on a monotonically
//! increasing 64-bit counter, so there is no ABA and every index maps to
//! exactly one slot of exactly one block. Per-slot state flags order the
//! value hand-off: a consumer that wins an index spins only for the single
//! in-flight producer of that slot, never behind a lock.
//!
//! Layout and protocol:
//!
//! * `tail.index % 32 == 31` means a producer is installing the next block;
//!   other producers spin until the index jumps to the next lap. The
//!   producer that claims offset 30 (the last slot) is the installer: it
//!   links `block.next`, publishes `tail.block`, then skips the index past
//!   the boundary. Because indices are monotonic and only the installer
//!   stores them, `tail.block` always matches `lap(tail.index)` whenever
//!   the offset is not the boundary — a block pointer loaded between an
//!   index load and a successful index CAS is therefore validated by the
//!   CAS itself.
//! * The head side mirrors this: the consumer that claims through offset 30
//!   advances `head.block` to `block.next` (spinning briefly if the
//!   installer has not linked it yet) before skipping the boundary.
//! * Each block counts consumed slots in `done`; the consumer that brings
//!   `done` to 31 owns the block exclusively (head has moved past it, every
//!   producer and consumer of its slots has finished) and **recycles** it
//!   into a small fixed cache that installers take from — steady-state
//!   push/steal traffic allocates nothing (pinned by
//!   `crates/core/tests/alloc_count.rs`).
//!
//! [`Injector::steal_batch_and_pop`] claims up to half a block with one
//! CAS and moves the surplus into the caller's Chase–Lev deque, so a
//! burst of external submissions costs one shared-counter CAS per ~16 jobs
//! instead of one mutex acquisition per job.
//!
//! Every atomic access below carries an `// ord:` tag and every `unsafe`
//! site a `// SAFETY:` comment; `ft-lint` rules L1/L2 enforce this (see
//! `docs/LINTS.md`).

use crate::deque::Worker;
use crate::metrics::CachePadded;
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;

use ft_sync::atomic::{AtomicPtr, AtomicU32, AtomicU64, AtomicUsize, Ordering};

/// Indices per lap; one lap maps onto one block.
const LAP: u64 = 32;
/// Usable slots per block; index offset `BLOCK_CAP` is the boundary marker.
const BLOCK_CAP: usize = (LAP - 1) as usize;
/// Largest number of slots one `steal_batch_and_pop` claims.
const MAX_BATCH: usize = BLOCK_CAP / 2 + 1;
/// Retired-block cache capacity: covers bursts of a few blocks in flight,
/// keeping steady-state traffic allocation-free.
const CACHE_SLOTS: usize = 4;

/// Slot state: no value yet (producer claimed the index but has not
/// finished writing).
const STATE_EMPTY: u32 = 0;
/// Slot state: value written and published.
const STATE_WRITTEN: u32 = 1;

/// One value cell. The `state` flag hands the value from its unique
/// producer to its unique consumer.
struct Slot<T> {
    value: UnsafeCell<MaybeUninit<T>>,
    state: AtomicU32,
}

/// One segment of the queue: 31 slots plus the link to the next segment.
struct Block<T> {
    next: AtomicPtr<Block<T>>,
    /// Slots consumed so far; the consumer reaching `BLOCK_CAP` recycles.
    done: AtomicUsize,
    slots: [Slot<T>; BLOCK_CAP],
}

impl<T> Block<T> {
    fn new_boxed() -> Box<Self> {
        Box::new(Block {
            next: AtomicPtr::new(std::ptr::null_mut()),
            done: AtomicUsize::new(0),
            slots: std::array::from_fn(|_| Slot {
                value: UnsafeCell::new(MaybeUninit::uninit()),
                state: AtomicU32::new(STATE_EMPTY),
            }),
        })
    }

    /// Reset a fully consumed block for reuse. Caller must own the block
    /// exclusively (done == BLOCK_CAP and head has moved past it).
    fn reset(&self) {
        // ord: Relaxed — the caller owns the block exclusively (done hit
        // BLOCK_CAP); publication to the next producer happens via the
        // cache slot's Release CAS in `recycle`.
        self.next.store(std::ptr::null_mut(), Ordering::Relaxed);
        self.done.store(0, Ordering::Relaxed);
        for slot in &self.slots {
            // ord: Relaxed — exclusively owned, as above.
            slot.state.store(STATE_EMPTY, Ordering::Relaxed);
        }
    }
}

/// One end of the queue: a monotone index plus the block that holds the
/// index's lap.
struct Position<T> {
    index: AtomicU64,
    block: AtomicPtr<Block<T>>,
}

/// A segmented lock-free MPMC queue for external job submission.
pub struct Injector<T> {
    head: CachePadded<Position<T>>,
    tail: CachePadded<Position<T>>,
    /// Block cache: fully consumed blocks are reset and parked here;
    /// installers take from it before allocating. A few slots (not one)
    /// because a producer burst can install several blocks before the
    /// consumers of the oldest block finish recycling it.
    cache: [AtomicPtr<Block<T>>; CACHE_SLOTS],
}

impl<T> std::fmt::Debug for Injector<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Injector")
            .field("len", &self.len())
            .finish()
    }
}

// SAFETY: values move producer→consumer across threads (`T: Send`); all
// shared internals are atomics, and slot cells are accessed only by the
// unique index claimant per the protocol above.
unsafe impl<T: Send> Send for Injector<T> {}
// SAFETY: same argument as `Send` — every slot cell has exactly one
// producer and one consumer (the index claimants), so `&Injector` shared
// across threads never yields aliased cell access.
unsafe impl<T: Send> Sync for Injector<T> {}

impl<T> Default for Injector<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Injector<T> {
    /// Create an empty injector. Allocates the first block and fills the
    /// block cache, so an installer reaches the allocator only when more
    /// than `CACHE_SLOTS` blocks are unretired at once — zero steady-state
    /// allocations do not depend on how far consumers lagged during some
    /// earlier burst.
    pub fn new() -> Self {
        let first = Box::into_raw(Block::new_boxed());
        Injector {
            head: CachePadded(Position {
                index: AtomicU64::new(0),
                block: AtomicPtr::new(first),
            }),
            tail: CachePadded(Position {
                index: AtomicU64::new(0),
                block: AtomicPtr::new(first),
            }),
            cache: std::array::from_fn(|_| AtomicPtr::new(Box::into_raw(Block::new_boxed()))),
        }
    }

    /// Number of real (non-boundary) indices below `index`.
    fn count(index: u64) -> u64 {
        (index / LAP) * BLOCK_CAP as u64 + (index % LAP).min(BLOCK_CAP as u64)
    }

    /// Take a cached block or allocate a fresh one.
    fn next_block(&self) -> *mut Block<T> {
        for slot in &self.cache {
            // ord: Acquire — pairs with the Release CAS in `recycle` so the
            // recycler's `reset` stores are visible before we reuse the
            // block.
            let cached = slot.swap(std::ptr::null_mut(), Ordering::Acquire);
            if !cached.is_null() {
                return cached; // already reset by the recycler
            }
        }
        Box::into_raw(Block::new_boxed())
    }

    /// Park a fully consumed block in the cache, or free it if the cache
    /// is full. Caller must own the block exclusively.
    fn recycle(&self, block: *mut Block<T>) {
        // SAFETY: the caller owns the block exclusively (it brought `done`
        // to BLOCK_CAP after the head moved past the block), so resetting
        // its slots cannot race with any producer or consumer.
        unsafe { (*block).reset() };
        for slot in &self.cache {
            // ord: Release success (publishes the reset stores to the next
            // `next_block` Acquire) / Relaxed failure (occupied slot, we
            // learn nothing).
            if slot
                .compare_exchange(
                    std::ptr::null_mut(),
                    block,
                    Ordering::Release,
                    Ordering::Relaxed,
                )
                .is_ok()
            {
                return;
            }
        }
        // SAFETY: exclusive ownership (same argument as above) and the block
        // was never parked in the cache, so this is the only free of it.
        drop(unsafe { Box::from_raw(block) });
    }

    /// Push a value (MPMC producer side). Lock-free: one CAS on the tail
    /// index in the common case; the claimant of a block's last slot also
    /// installs the next block.
    // ft-lint: hot-path begin(injector-push)
    pub fn push(&self, value: T) {
        loop {
            // ord: Acquire — pairs with the installer's Release stores of
            // `tail.index`/`tail.block` so a producer that sees a new lap
            // also sees the installed block.
            let tail = self.tail.index.load(Ordering::Acquire);
            let offset = (tail % LAP) as usize;
            if offset == BLOCK_CAP {
                // A producer is installing the next block; wait for the
                // index to jump to the next lap.
                std::hint::spin_loop();
                continue;
            }
            // ord: Acquire — the block pointer is validated by the index CAS
            // below (it changes only together with a lap crossing); Acquire
            // pairs with the installer's Release publication.
            let block = self.tail.block.load(Ordering::Acquire);
            // ord: SeqCst success / Relaxed failure — the successful claim
            // must be totally ordered against `claim`'s tail read (emptiness
            // detection); a failed CAS only triggers a retry.
            if self
                .tail
                .index
                .compare_exchange_weak(tail, tail + 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_err()
            {
                std::hint::spin_loop();
                continue;
            }
            // SAFETY: the successful CAS makes this thread the unique
            // claimant of index `tail`: `block` matches the index's lap (the
            // pointer only changes together with a lap crossing, which would
            // have changed the index and failed the CAS), and the block
            // stays alive until its `done` count — which includes our slot —
            // reaches BLOCK_CAP.
            let b = unsafe { &*block };
            if offset + 1 == BLOCK_CAP {
                // We claimed the last slot: install the next block before
                // publishing the value, so other producers unblock even if
                // we are slow writing.
                let next = self.next_block();
                // ord: Release ×3 — the fresh block's contents must be
                // visible before its pointer is reachable (via `next` for
                // consumers, `tail.block` for producers), and both stores
                // must precede the index store that unblocks spinning
                // producers (they Acquire-load the index).
                b.next.store(next, Ordering::Release);
                self.tail.block.store(next, Ordering::Release);
                self.tail.index.store(tail + 2, Ordering::Release);
            }
            // SAFETY: sole claimant of this slot (unique index): the
            // consumer will not read the cell until the state flag below
            // says WRITTEN.
            unsafe { (*b.slots[offset].value.get()).write(value) };
            // ord: Release — publishes the value write to the consumer's
            // Acquire spin on this flag in `consume`.
            b.slots[offset]
                .state
                .store(STATE_WRITTEN, Ordering::Release);
            return;
        }
    }
    // ft-lint: hot-path end(injector-push)

    /// Claim up to `max` consecutive slots at the head. Returns the block,
    /// the first offset, and how many were claimed; `None` when empty.
    // ft-lint: hot-path begin(injector-steal)
    fn claim(&self, max: usize) -> Option<(*mut Block<T>, usize, usize)> {
        loop {
            // ord: Acquire — pairs with the boundary-advancing consumer's
            // Release stores of `head.index`/`head.block`.
            let head = self.head.index.load(Ordering::Acquire);
            let offset = (head % LAP) as usize;
            if offset == BLOCK_CAP {
                // A consumer is advancing the head block.
                std::hint::spin_loop();
                continue;
            }
            let tail = self.tail.index.load(Ordering::SeqCst);
            if head >= tail {
                return None;
            }
            // Claimable span within the head's block: if the tail is in a
            // later lap, every remaining slot of this block was claimed by
            // some producer already.
            let avail = if head / LAP == tail / LAP {
                (tail - head) as usize
            } else {
                BLOCK_CAP - offset
            };
            let n = avail.min(max);
            // ord: Acquire — validated by the successful index CAS below,
            // same argument as the producer side.
            let block = self.head.block.load(Ordering::Acquire);
            // ord: SeqCst success / Relaxed failure — the claim joins the
            // same total order as the producer CAS and the emptiness check;
            // failure only retries.
            if self
                .head
                .index
                .compare_exchange_weak(head, head + n as u64, Ordering::SeqCst, Ordering::Relaxed)
                .is_err()
            {
                std::hint::spin_loop();
                continue;
            }
            if offset + n == BLOCK_CAP {
                // We consumed through the last slot: advance the head block.
                // The link is set by the producer that claimed that slot,
                // which has already passed the tail boundary — spin briefly
                // for its store.
                let next = loop {
                    // SAFETY: we claimed slots of `block`, so its `done`
                    // count cannot reach BLOCK_CAP (and recycle) before our
                    // `consume` calls finish — the block outlives this read.
                    // ord: Acquire — pairs with the installer's Release link
                    // so the new block's contents are visible.
                    let p = unsafe { (*block).next.load(Ordering::Acquire) };
                    if !p.is_null() {
                        break p;
                    }
                    std::hint::spin_loop();
                };
                // ord: Release ×2 — the new head block pointer must be
                // visible before the index store unblocks spinning
                // consumers (they Acquire-load the index).
                self.head.block.store(next, Ordering::Release);
                self.head
                    .index
                    .store(head + n as u64 + 1, Ordering::Release);
            }
            return Some((block, offset, n));
        }
    }

    /// Read the value out of a claimed slot, waiting for its in-flight
    /// producer if necessary, and recycle the block once fully consumed.
    ///
    /// # Safety
    /// `(block, offset)` must come from a successful [`Injector::claim`]
    /// and be consumed exactly once.
    unsafe fn consume(&self, block: *mut Block<T>, offset: usize) -> T {
        // SAFETY: per this fn's contract the claim CAS made us the unique
        // consumer of this slot; the block stays alive until `done` (which
        // counts our slot, below) reaches BLOCK_CAP.
        let b = unsafe { &*block };
        let slot = &b.slots[offset];
        // ord: Acquire — pairs with the producer's Release store of
        // STATE_WRITTEN so the value write is visible after the spin.
        while slot.state.load(Ordering::Acquire) != STATE_WRITTEN {
            std::hint::spin_loop();
        }
        // SAFETY: the WRITTEN flag (acquired above) publishes the value;
        // claim-uniqueness makes this the only consuming read of the cell.
        let value = unsafe { (*slot.value.get()).assume_init_read() };
        // ord: AcqRel — the increment must happen-after our value read (so
        // the recycler's reset cannot precede it) and the final increment
        // acquires every other consumer's release, making the block
        // exclusively ours before `recycle`.
        if b.done.fetch_add(1, Ordering::AcqRel) + 1 == BLOCK_CAP {
            // Every slot of this block has been produced and consumed, and
            // the head has moved past it: we own it exclusively.
            self.recycle(block);
        }
        value
    }

    /// Pop the oldest value (MPMC consumer side). Returns `None` when the
    /// queue is observed empty.
    pub fn steal(&self) -> Option<T> {
        let (block, offset, n) = self.claim(1)?;
        debug_assert_eq!(n, 1);
        // SAFETY: `(block, offset)` comes from the successful claim above
        // and is consumed exactly once.
        Some(unsafe { self.consume(block, offset) })
    }

    /// Claim a batch of values with one CAS; return the oldest and push the
    /// rest onto `dest` (the calling worker's own deque).
    pub fn steal_batch_and_pop(&self, dest: &Worker<T>) -> Option<T>
    where
        T: Send,
    {
        let (block, offset, n) = self.claim(MAX_BATCH)?;
        // SAFETY: the claim handed us offsets `offset..offset + n`; each is
        // consumed exactly once (the first here, the rest in the loop).
        let first = unsafe { self.consume(block, offset) };
        for k in 1..n {
            // SAFETY: as above — `offset + k` is within the claimed span
            // and consumed exactly once.
            dest.push(unsafe { self.consume(block, offset + k) });
        }
        Some(first)
    }
    // ft-lint: hot-path end(injector-steal)

    /// True when no unclaimed values are visible.
    pub fn is_empty(&self) -> bool {
        let head = self.head.index.load(Ordering::SeqCst);
        let tail = self.tail.index.load(Ordering::SeqCst);
        head >= tail
    }

    /// Approximate number of queued values.
    pub fn len(&self) -> usize {
        let head = self.head.index.load(Ordering::SeqCst);
        let tail = self.tail.index.load(Ordering::SeqCst);
        Self::count(tail).saturating_sub(Self::count(head)) as usize
    }
}

impl<T> Drop for Injector<T> {
    fn drop(&mut self) {
        // ord: Relaxed — `&mut self` proves exclusivity; all producers and
        // consumers synchronized-with this thread before the drop.
        let mut head = self.head.index.load(Ordering::Relaxed);
        let tail = self.tail.index.load(Ordering::Relaxed);
        let mut block = self.head.block.load(Ordering::Relaxed);
        // SAFETY: exclusive access: indices `head..tail` are exactly the
        // produced-but-unconsumed slots (their producers finished before
        // drop, so every such slot is written), the block chain and cache
        // entries are disjoint allocations, and nothing else can free them.
        unsafe {
            while head < tail {
                let offset = (head % LAP) as usize;
                if offset < BLOCK_CAP {
                    // All producers finished before drop: slot is written.
                    (*(*block).slots[offset].value.get()).assume_init_drop();
                } else {
                    // ord: Relaxed — exclusive access, as above.
                    let next = (*block).next.load(Ordering::Relaxed);
                    drop(Box::from_raw(block));
                    block = next;
                }
                head += 1;
            }
            while !block.is_null() {
                // ord: Relaxed — exclusive access, as above.
                let next = (*block).next.load(Ordering::Relaxed);
                drop(Box::from_raw(block));
                block = next;
            }
            for slot in &self.cache {
                // ord: Relaxed — exclusive access, as above.
                let cached = slot.load(Ordering::Relaxed);
                if !cached.is_null() {
                    drop(Box::from_raw(cached));
                }
            }
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::deque;
    use ft_sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn fifo_across_block_boundaries() {
        let q = Injector::new();
        // 100 items span four blocks (31 slots each).
        for i in 0..100u64 {
            q.push(i);
        }
        assert_eq!(q.len(), 100);
        for i in 0..100u64 {
            assert_eq!(q.steal(), Some(i));
        }
        assert_eq!(q.steal(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_push_steal_reuses_blocks() {
        let q = Injector::new();
        // Far more traffic than blocks: exercises recycling.
        for round in 0..50u64 {
            for i in 0..40 {
                q.push(round * 100 + i);
            }
            for i in 0..40 {
                assert_eq!(q.steal(), Some(round * 100 + i));
            }
        }
        assert!(q.is_empty());
    }

    #[test]
    fn batch_steal_moves_surplus_to_worker() {
        let q = Injector::new();
        for i in 0..20u64 {
            q.push(i);
        }
        let (w, _s) = deque::deque::<u64>();
        let first = q.steal_batch_and_pop(&w).expect("non-empty");
        assert_eq!(first, 0, "oldest item is returned");
        let mut moved = Vec::new();
        while let Some(v) = w.pop() {
            moved.push(v);
        }
        assert!(!moved.is_empty(), "surplus lands in the worker deque");
        assert!(moved.len() < 20, "batch is bounded");
        // Everything claimed exactly once between return, deque, and queue.
        let mut rest = Vec::new();
        while let Some(v) = q.steal() {
            rest.push(v);
        }
        let mut all: Vec<u64> = std::iter::once(first).chain(moved).chain(rest).collect();
        all.sort_unstable();
        assert_eq!(all, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_mpmc_no_loss_no_dup() {
        const PRODUCERS: u64 = 4;
        const PER_PRODUCER: u64 = 5_000;
        let q = Arc::new(Injector::new());
        let seen = Arc::new(
            (0..PRODUCERS * PER_PRODUCER)
                .map(|_| AtomicUsize::new(0))
                .collect::<Vec<_>>(),
        );
        let consumed = Arc::new(AtomicUsize::new(0));
        thread::scope(|s| {
            for p in 0..PRODUCERS {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    for i in 0..PER_PRODUCER {
                        q.push(p * PER_PRODUCER + i);
                    }
                });
            }
            for _ in 0..4 {
                let q = Arc::clone(&q);
                let seen = Arc::clone(&seen);
                let consumed = Arc::clone(&consumed);
                s.spawn(move || loop {
                    if let Some(v) = q.steal() {
                        let prev = seen[v as usize].fetch_add(1, Ordering::Relaxed);
                        assert_eq!(prev, 0, "value {v} consumed twice");
                        consumed.fetch_add(1, Ordering::Relaxed);
                    } else if consumed.load(Ordering::Relaxed)
                        == (PRODUCERS * PER_PRODUCER) as usize
                    {
                        break;
                    }
                });
            }
        });
        for (v, c) in seen.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "value {v} lost");
        }
    }

    #[test]
    fn concurrent_batch_steal_no_loss_no_dup() {
        const TOTAL: u64 = 20_000;
        let q = Arc::new(Injector::new());
        let counts = Arc::new((0..TOTAL).map(|_| AtomicUsize::new(0)).collect::<Vec<_>>());
        let consumed = Arc::new(AtomicUsize::new(0));
        thread::scope(|s| {
            {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    for i in 0..TOTAL {
                        q.push(i);
                    }
                });
            }
            for _ in 0..3 {
                let q = Arc::clone(&q);
                let counts = Arc::clone(&counts);
                let consumed = Arc::clone(&consumed);
                s.spawn(move || {
                    let (w, _s) = deque::deque::<u64>();
                    let mark = |v: u64| {
                        let prev = counts[v as usize].fetch_add(1, Ordering::Relaxed);
                        assert_eq!(prev, 0, "value {v} consumed twice");
                        consumed.fetch_add(1, Ordering::Relaxed);
                    };
                    loop {
                        if let Some(v) = q.steal_batch_and_pop(&w) {
                            mark(v);
                            while let Some(v) = w.pop() {
                                mark(v);
                            }
                        } else if consumed.load(Ordering::Relaxed) == TOTAL as usize {
                            break;
                        }
                    }
                });
            }
        });
        for (v, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "value {v} lost");
        }
    }

    #[test]
    fn drop_releases_unconsumed_values() {
        let probe = Arc::new(());
        {
            let q = Injector::new();
            for _ in 0..100 {
                q.push(Arc::clone(&probe));
            }
            for _ in 0..37 {
                drop(q.steal());
            }
            assert_eq!(Arc::strong_count(&probe), 1 + 63);
        }
        assert_eq!(Arc::strong_count(&probe), 1, "drop leaked queued values");
    }

    #[test]
    fn len_tracks_boundary_skips() {
        let q = Injector::new();
        for i in 0..64u64 {
            q.push(i);
            assert_eq!(q.len(), (i + 1) as usize);
        }
        for i in 0..64u64 {
            q.steal();
            assert_eq!(q.len(), (63 - i) as usize);
        }
    }
}
