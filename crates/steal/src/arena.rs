//! Epoch-tied slab allocation for task descriptors.
//!
//! [`Arena<T>`] is a typed, chunked bump allocator: values are written
//! into 64 KiB chunks claimed by an atomic offset bump, and the whole
//! arena — every chunk and every live value — is reclaimed **at once**
//! when the arena is dropped. The scheduler engine owns one arena per
//! graph instance (epoch): descriptors are allocated on the hot path with
//! one `fetch_add` instead of one `Box` each, handed around as [`ArenaRef`]
//! (a `Copy` pointer, no refcount traffic), and freed en masse when the
//! instance's epoch ends — no earlier than the once-only quiesce hook,
//! which owns a reference to the engine until the instance's last job has
//! finished (jobs themselves only borrow the engine). The one-shot
//! `Engine::run` path uses the same mechanism: the arena dies with the
//! engine when the run's caller drops it, after the run has quiesced.
//!
//! # Protocol
//!
//! The arena has exactly two shared-state words: the `current` chunk
//! pointer and each chunk's `used` bump offset.
//!
//! * **Claim**: load `current` (Acquire), `fetch_add` the element size on
//!   its `used` offset. If the claimed range fits the chunk payload, the
//!   slot is exclusively owned — RMW atomicity alone partitions offsets —
//!   and the value is written in place.
//! * **Overflow**: a claimant that overshoots the payload installs a
//!   fresh chunk by CAS on `current` (Release, pairing with the Acquire
//!   claim load so the new chunk's header is visible before any bump on
//!   it), linking the old chunk through the header's `next` pointer.
//!   CAS losers free their speculative chunk and retry on the winner's.
//! * **Reclaim**: `Drop` takes `&mut self`, so every claimant has
//!   happens-before-ordered with the dropping thread through whatever
//!   handed it the `&Arena` (the engine's `Arc`). The chunk list is
//!   walked, live elements dropped, chunks freed.
//!
//! Publication of element *contents* to other threads is deliberately not
//! the arena's job: descriptors travel through the task map's seqlock or
//! the pool's queue protocols, which carry the necessary Release/Acquire
//! edges. The loom model in `crates/steal/tests/loom_arena.rs` checks the
//! claim/install handshake (no two claimants share a slot, installed
//! headers are visible, drop observes every committed element).

use ft_sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use ft_sync::Word;
use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::marker::PhantomData;
use std::mem::{align_of, size_of};
use std::ptr::NonNull;

/// Total bytes per chunk, header included.
pub const CHUNK_BYTES: usize = 64 * 1024;
/// Chunk alignment; also the upper bound on element alignment.
const CHUNK_ALIGN: usize = 64;
/// Bytes reserved at the start of each chunk for [`ChunkHeader`] (one
/// cache line, so the bump offset never false-shares with element data).
const HEADER_BYTES: usize = 64;
/// Usable element bytes per chunk.
const PAYLOAD_BYTES: usize = CHUNK_BYTES - HEADER_BYTES;

/// Per-chunk bookkeeping, stored in the chunk's first [`HEADER_BYTES`].
struct ChunkHeader {
    /// Previously-current chunk (intrusive list used by `Drop`/`owns`).
    /// Written once before the chunk is published, never changed after.
    next: AtomicPtr<u8>,
    /// Bump offset into the payload, in bytes. Monotone; may overshoot
    /// `PAYLOAD_BYTES` (claimants that overshoot install a new chunk).
    used: AtomicUsize,
}

/// A typed epoch arena. See the module docs for the protocol.
pub struct Arena<T> {
    /// Chunk currently receiving allocations; null until first use.
    current: AtomicPtr<u8>,
    _marker: PhantomData<T>,
}

impl<T> std::fmt::Debug for Arena<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Arena")
            .field("chunks", &self.chunks_allocated())
            .finish()
    }
}

// SAFETY: the arena owns its values; moving it to another thread moves
// them, which is sound exactly when `T: Send`.
unsafe impl<T: Send> Send for Arena<T> {}
// SAFETY: `&Arena` allows concurrent `alloc` (values arrive from any
// thread: `T: Send`) and hands out `&T` across threads via `ArenaRef`
// (`T: Sync`). The claim protocol gives each `alloc` an exclusive slot.
unsafe impl<T: Send + Sync> Sync for Arena<T> {}

/// Layout of one chunk.
fn chunk_layout() -> Layout {
    // Both values are compile-time constants; this cannot fail.
    Layout::from_size_align(CHUNK_BYTES, CHUNK_ALIGN)
        .unwrap_or_else(|_| unreachable!("constant chunk layout"))
}

/// Element stride: `size_of::<T>()` is always a multiple of
/// `align_of::<T>()`, so consecutive multiples of the stride are aligned.
fn stride<T>() -> usize {
    size_of::<T>()
}

/// Max elements per chunk.
fn chunk_capacity<T>() -> usize {
    PAYLOAD_BYTES / stride::<T>()
}

impl<T> Arena<T> {
    /// Create an empty arena. No memory is allocated until the first
    /// [`Arena::alloc`].
    pub fn new() -> Self {
        assert!(
            size_of::<T>() > 0,
            "Arena does not support zero-sized types"
        );
        assert!(
            size_of::<T>() <= PAYLOAD_BYTES,
            "element larger than a chunk payload"
        );
        assert!(
            align_of::<T>() <= CHUNK_ALIGN,
            "element alignment exceeds chunk alignment"
        );
        assert!(size_of::<ChunkHeader>() <= HEADER_BYTES);
        Arena {
            current: AtomicPtr::new(std::ptr::null_mut()),
            _marker: PhantomData,
        }
    }

    // ft-lint: hot-path begin(arena-alloc)

    /// Allocate `value` in the arena. The returned handle stays valid (and
    /// the value is not dropped) until the arena itself is dropped.
    pub fn alloc(&self, value: T) -> ArenaRef<T> {
        let slot = self.claim_slot();
        // SAFETY: `claim_slot` returns a properly aligned, in-payload slot
        // this call exclusively owns (disjoint `fetch_add` ranges).
        unsafe { std::ptr::write(slot, value) };
        // SAFETY: chunk pointers are non-null; `slot` points into one.
        let ptr = unsafe { NonNull::new_unchecked(slot) };
        ArenaRef { ptr }
    }

    /// Claim an exclusive, aligned slot for one element, installing chunks
    /// as needed.
    fn claim_slot(&self) -> *mut T {
        let sz = stride::<T>();
        loop {
            // ord: Acquire — pairs with the Release CAS in `install_chunk`
            // so the chunk header written before publication is visible.
            let cur = self.current.load(Ordering::Acquire);
            if !cur.is_null() {
                // SAFETY: a published chunk has a live header at its base
                // (written before the Release CAS we acquired above) and
                // is not freed until `Drop` (&mut self).
                let header = unsafe { &*cur.cast::<ChunkHeader>() };
                // ord: Relaxed — RMW atomicity alone partitions offsets
                // between claimants; element publication to other threads
                // happens through the task-map/queue protocols, and the
                // drop-side read of `used` is ordered by `&mut self`.
                let used = header.used.fetch_add(sz, Ordering::Relaxed);
                if used + sz <= PAYLOAD_BYTES {
                    // SAFETY: offset stays inside this chunk's payload.
                    return unsafe { cur.add(HEADER_BYTES + used).cast::<T>() };
                }
                // Chunk full (offset permanently overshot — harmless, the
                // drop-side element count saturates at capacity).
            }
            self.install_chunk(cur);
        }
    }

    // ft-lint: hot-path end(arena-alloc)

    /// Try to install a fresh chunk on top of `seen` (the `current` value
    /// this claimant just observed). Loses gracefully to racing installers.
    fn install_chunk(&self, seen: *mut u8) {
        let layout = chunk_layout();
        // SAFETY: `layout` has non-zero, 64-aligned constant size.
        let fresh = unsafe { alloc(layout) };
        if fresh.is_null() {
            handle_alloc_error(layout);
        }
        // SAFETY: `fresh` is exclusively ours and large enough for the
        // header; written before publication, so the Release CAS below
        // makes it visible to every Acquire load of `current`.
        unsafe {
            std::ptr::write(
                fresh.cast::<ChunkHeader>(),
                ChunkHeader {
                    next: AtomicPtr::new(seen),
                    used: AtomicUsize::new(0),
                },
            );
        }
        // ord: Release on success — publishes the header write above to
        // claimants' Acquire loads; Relaxed on failure — the loser frees
        // its chunk and re-reads `current` with Acquire in `claim_slot`.
        if self
            .current
            .compare_exchange(seen, fresh, Ordering::Release, Ordering::Relaxed)
            .is_err()
        {
            // SAFETY: CAS failed, so `fresh` was never published; we still
            // own it exclusively. Drop the header in place (the loom shim's
            // atomics own state) and free the memory.
            unsafe {
                std::ptr::drop_in_place(fresh.cast::<ChunkHeader>());
                dealloc(fresh, layout);
            }
        }
    }

    /// Number of elements committed in a chunk given its bump offset:
    /// offsets are consecutive multiples of the stride, and a claimant
    /// writes its element iff the claimed range fits the payload, so the
    /// committed count is the total claim count saturated at capacity.
    fn committed(used: usize) -> usize {
        (used / stride::<T>()).min(chunk_capacity::<T>())
    }

    /// Whether `ptr` points into one of this arena's chunks. Used by the
    /// per-epoch isolation tests; O(chunks).
    pub fn owns(&self, ptr: *const T) -> bool {
        let p = ptr as usize;
        // ord: Acquire — see `claim_slot`; headers of published chunks are
        // visible before we walk their `next` links.
        let mut cur = self.current.load(Ordering::Acquire);
        while !cur.is_null() {
            let payload = cur as usize + HEADER_BYTES;
            if (payload..cur as usize + CHUNK_BYTES).contains(&p) {
                return true;
            }
            // SAFETY: published chunks have live headers until `Drop`.
            let header = unsafe { &*cur.cast::<ChunkHeader>() };
            // ord: Relaxed — `next` is written once before the chunk is
            // published and never changed; the Acquire above ordered it.
            cur = header.next.load(Ordering::Relaxed);
        }
        false
    }

    /// Number of chunks currently allocated. O(chunks); for tests/stats.
    pub fn chunks_allocated(&self) -> usize {
        let mut n = 0;
        // ord: Acquire — see `claim_slot`.
        let mut cur = self.current.load(Ordering::Acquire);
        while !cur.is_null() {
            n += 1;
            // SAFETY: published chunks have live headers until `Drop`.
            let header = unsafe { &*cur.cast::<ChunkHeader>() };
            // ord: Relaxed — `next` is immutable after publication (`owns`).
            cur = header.next.load(Ordering::Relaxed);
        }
        n
    }
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Drop for Arena<T> {
    fn drop(&mut self) {
        let layout = chunk_layout();
        // `&mut self`: no concurrent claimants; every committed write
        // happens-before this frame (see module docs).
        // ord: Relaxed — exclusive access.
        let mut cur = self.current.load(Ordering::Relaxed);
        while !cur.is_null() {
            // SAFETY: `cur` is a live chunk we exclusively own.
            let header = unsafe { &*cur.cast::<ChunkHeader>() };
            // ord: Relaxed — exclusive access.
            let next = header.next.load(Ordering::Relaxed);
            let n = Self::committed(header.used.load(Ordering::Relaxed));
            for i in 0..n {
                // SAFETY: the first `n` slots hold committed elements
                // (see `committed`); each is dropped exactly once here.
                unsafe {
                    std::ptr::drop_in_place(cur.add(HEADER_BYTES + i * stride::<T>()).cast::<T>())
                };
            }
            // SAFETY: header was `ptr::write`-initialized at install; the
            // chunk came from `alloc(layout)` and is freed exactly once.
            unsafe {
                std::ptr::drop_in_place(cur.cast::<ChunkHeader>());
                dealloc(cur, layout);
            }
            cur = next;
        }
    }
}

/// A `Copy` handle to an arena-allocated value.
///
/// Validity is epoch-scoped, not tracked by the type: a handle must not
/// outlive the arena that produced it. The scheduler upholds this by
/// having every job that carries handles also carry an `Arc` of the
/// engine that owns the arena.
pub struct ArenaRef<T> {
    ptr: NonNull<T>,
}

impl<T> Clone for ArenaRef<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for ArenaRef<T> {}

// SAFETY: an `ArenaRef` is a shared reference in disguise — it never
// confers ownership or uniqueness — so sending/sharing it across threads
// is sound exactly when `&T` is, i.e. `T: Sync`. `T: Send` is demanded
// too because the arena (and thus the value's eventual drop) may live on
// a different thread than the allocator.
unsafe impl<T: Send + Sync> Send for ArenaRef<T> {}
// SAFETY: as above.
unsafe impl<T: Send + Sync> Sync for ArenaRef<T> {}

impl<T> ArenaRef<T> {
    /// The raw pointer (for identity comparisons and `owns` checks).
    pub fn as_ptr(self) -> *const T {
        self.ptr.as_ptr()
    }

    /// Pointer identity: do two handles name the same allocation?
    pub fn ptr_eq(a: ArenaRef<T>, b: ArenaRef<T>) -> bool {
        a.ptr == b.ptr
    }
}

/// A handle is one pointer word, so the task map stores it inline in its
/// slot: a lookup returns the handle itself, with no box to follow.
impl<T> Word for ArenaRef<T> {
    #[inline]
    fn into_word(self) -> u64 {
        self.ptr.as_ptr() as usize as u64
    }
    // SAFETY: callers promise `w` came from `into_word` on a handle (the
    // `Word::from_word` contract); using the result is then exactly as
    // sound as using that handle.
    #[inline]
    unsafe fn from_word(w: u64) -> Self {
        // SAFETY: per `Word::from_word`'s contract the word came from
        // `into_word` on a handle, i.e. from a non-null arena pointer.
        let ptr = unsafe { NonNull::new_unchecked(w as usize as *mut T) };
        ArenaRef { ptr }
    }
}

impl<T> std::ops::Deref for ArenaRef<T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the handle's epoch contract (see type docs): the arena
        // is alive, so the slot holds a live, never-moved `T`.
        unsafe { self.ptr.as_ref() }
    }
}

impl<T> std::fmt::Debug for ArenaRef<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArenaRef").field("ptr", &self.ptr).finish()
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize as StdAtomicUsize, Ordering as StdOrdering};
    use std::sync::Arc;

    #[test]
    fn alloc_and_deref() {
        let arena = Arena::new();
        let a = arena.alloc(41u64);
        let b = arena.alloc(1u64);
        assert_eq!(*a + *b, 42);
        assert!(!ArenaRef::ptr_eq(a, b));
        assert!(ArenaRef::ptr_eq(a, a));
        assert_eq!(arena.chunks_allocated(), 1);
    }

    #[test]
    fn spills_into_new_chunks() {
        let arena = Arena::new();
        let per_chunk = chunk_capacity::<[u64; 16]>();
        let refs: Vec<_> = (0..per_chunk * 2 + 1)
            .map(|i| arena.alloc([i as u64; 16]))
            .collect();
        assert_eq!(arena.chunks_allocated(), 3);
        for (i, r) in refs.iter().enumerate() {
            assert_eq!(r[0], i as u64);
            assert!(arena.owns(r.as_ptr()));
        }
    }

    #[test]
    fn owns_rejects_foreign_pointers() {
        let a = Arena::new();
        let b = Arena::new();
        let ra = a.alloc(1u64);
        let rb = b.alloc(2u64);
        assert!(a.owns(ra.as_ptr()) && b.owns(rb.as_ptr()));
        assert!(!a.owns(rb.as_ptr()) && !b.owns(ra.as_ptr()));
        let stack = 3u64;
        assert!(!a.owns(&stack as *const u64));
    }

    #[test]
    fn drop_runs_element_drops_once() {
        struct Canary(Arc<StdAtomicUsize>);
        impl Drop for Canary {
            fn drop(&mut self) {
                self.0.fetch_add(1, StdOrdering::Relaxed);
            }
        }
        let drops = Arc::new(StdAtomicUsize::new(0));
        let n = 10_000; // forces several chunks
        {
            let arena = Arena::new();
            for _ in 0..n {
                arena.alloc(Canary(Arc::clone(&drops)));
            }
        }
        assert_eq!(drops.load(StdOrdering::Relaxed), n);
    }

    #[test]
    fn concurrent_alloc_yields_distinct_slots() {
        let arena = Arc::new(Arena::<u64>::new());
        let threads = 4;
        let per_thread = 20_000;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let arena = Arc::clone(&arena);
                std::thread::spawn(move || {
                    (0..per_thread)
                        .map(|i| {
                            let r = arena.alloc((t * per_thread + i) as u64);
                            r.as_ptr() as usize
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut all: Vec<usize> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("no panic"))
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), threads * per_thread, "slots must be distinct");
    }
}
