//! Chase–Lev work-stealing deque.
//!
//! One owner thread pushes and pops at the *bottom*; any number of thief
//! threads steal from the *top*. The implementation follows the C11
//! formulation of Lê, Pop, Cohen & Zappa Nardelli (PPoPP'13), including its
//! memory orderings, with a growable circular buffer.
//!
//! Buffer growth retires the old buffer into a list owned by the deque
//! rather than freeing it immediately: a concurrent thief may still be
//! reading an element slot of the old buffer. Retired buffers are freed when
//! the deque itself is dropped, which is safe because by then no thief holds
//! a reference (the pool joins its workers first).
//!
//! Elements are stored by value in `MaybeUninit` slots. The ABA-free
//! `top` counter is monotonically increasing, so a slot is logically owned
//! by exactly one successful `steal`/`pop`.
//!
//! Every atomic access below carries an `// ord:` tag and every `unsafe`
//! site a `// SAFETY:` comment; `ft-lint` rules L1/L2 enforce this (see
//! `docs/LINTS.md` and the ordering-discipline section of
//! `docs/ALGORITHM.md`).

use ft_sync::atomic::{fence, AtomicIsize, AtomicPtr, Ordering};
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::Arc;

/// Initial capacity (must be a power of two).
const MIN_CAP: usize = 64;

/// A circular buffer of `T` slots. Never shrinks; grows by doubling.
struct Buffer<T> {
    /// Power-of-two capacity.
    cap: usize,
    /// Mask = cap - 1 for cheap modulo.
    mask: usize,
    /// Slot storage. Readers/writers synchronize through `top`/`bottom`.
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
}

// SAFETY: a Buffer is inert slot storage; the values inside move across
// threads only via the deque protocol, so sending the storage requires
// exactly `T: Send`.
unsafe impl<T: Send> Send for Buffer<T> {}
// SAFETY: concurrent access to the cells is arbitrated externally by the
// `top`/`bottom` protocol (each logical index has a unique writer and a
// unique consumer); the buffer never hands out `&T`, so `T: Sync` is not
// required.
unsafe impl<T: Send> Sync for Buffer<T> {}

impl<T> Buffer<T> {
    fn new(cap: usize) -> Box<Self> {
        debug_assert!(cap.is_power_of_two());
        let slots = (0..cap)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Box::new(Buffer {
            cap,
            mask: cap - 1,
            slots,
        })
    }

    /// Write `v` into logical index `i`.
    ///
    /// # Safety
    /// The caller must be the unique writer of slot `i & mask` for this
    /// logical index (guaranteed by the Chase–Lev protocol: only the owner
    /// writes, and only at `bottom`).
    unsafe fn put(&self, i: isize, v: T) {
        let slot = &self.slots[(i as usize) & self.mask];
        // SAFETY: per this fn's contract the caller is the unique writer of
        // this slot for index `i`, so no other access aliases the cell now.
        unsafe { (*slot.get()).write(v) };
    }

    /// Read the value at logical index `i` without consuming it.
    ///
    /// # Safety
    /// The slot must contain an initialized value for logical index `i`, and
    /// the caller must ensure it takes ownership at most once (the CAS on
    /// `top` arbitrates ownership among thieves and the owner).
    unsafe fn take(&self, i: isize) -> T {
        let slot = &self.slots[(i as usize) & self.mask];
        // SAFETY: per this fn's contract the slot is initialized for index
        // `i` and this is the at-most-once consuming read of it.
        unsafe { (*slot.get()).assume_init_read() }
    }
}

/// Result of a steal attempt.
#[derive(Debug, PartialEq, Eq)]
pub enum Steal<T> {
    /// The deque was observed empty.
    Empty,
    /// Lost a race with the owner or another thief; worth retrying.
    Retry,
    /// Successfully stole an element.
    Success(T),
}

/// Shared state of one Chase–Lev deque.
struct Inner<T> {
    /// Next index to steal from. Monotonically increasing.
    top: AtomicIsize,
    /// Next index the owner will push to.
    bottom: AtomicIsize,
    /// Current buffer. Replaced (never mutated in place) on growth.
    buf: AtomicPtr<Buffer<T>>,
    /// Retired buffers, freed on drop. Only the owner pushes here; protected
    /// by the owner-uniqueness of `Worker`.
    retired: UnsafeCell<Vec<*mut Buffer<T>>>,
}

// SAFETY: the Arc<Inner> is dropped on an arbitrary thread; every field it
// owns (buffers, queued T values, retired pointers) is safe to move given
// `T: Send`, and the `retired` cell is only touched by the unique owner.
unsafe impl<T: Send> Send for Inner<T> {}
// SAFETY: shared access goes through the atomics plus the slot-ownership
// protocol; `retired` is written only by the unique `Worker` owner, so no
// two threads ever touch it concurrently.
unsafe impl<T: Send> Sync for Inner<T> {}

impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        // Drop any elements still in the deque.
        // ord: Relaxed — `&mut self` proves exclusivity; whoever dropped the
        // last handle synchronized with all prior accesses via the Arc
        // refcount's Release/Acquire.
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Relaxed);
        let buf = self.buf.load(Ordering::Relaxed);
        // SAFETY: exclusive access: indices `t..b` are exactly the
        // initialized, unconsumed slots, and no thief can still hold a
        // buffer pointer (the pool joins its workers before dropping), so
        // freeing the current and retired buffers cannot race.
        unsafe {
            for i in t..b {
                drop((*buf).take(i));
            }
            drop(Box::from_raw(buf));
            for &r in &*self.retired.get() {
                drop(Box::from_raw(r));
            }
        }
    }
}

/// Owner handle: push/pop at the bottom. Not `Clone`; exactly one owner.
pub struct Worker<T> {
    inner: Arc<Inner<T>>,
}

impl<T> std::fmt::Debug for Worker<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // ord: Relaxed — advisory size for diagnostics only.
        let b = self.inner.bottom.load(Ordering::Relaxed);
        let t = self.inner.top.load(Ordering::Relaxed);
        f.debug_struct("Worker")
            .field("len", &b.wrapping_sub(t).max(0))
            .finish()
    }
}

/// Thief handle: steal from the top. Cheaply cloneable.
pub struct Stealer<T> {
    inner: Arc<Inner<T>>,
}

impl<T> std::fmt::Debug for Stealer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // ord: Relaxed — advisory size for diagnostics only.
        let t = self.inner.top.load(Ordering::Relaxed);
        let b = self.inner.bottom.load(Ordering::Relaxed);
        f.debug_struct("Stealer")
            .field("len", &b.wrapping_sub(t).max(0))
            .finish()
    }
}

impl<T> Clone for Stealer<T> {
    fn clone(&self) -> Self {
        Stealer {
            inner: Arc::clone(&self.inner),
        }
    }
}

/// Create a new deque, returning the unique owner handle and a stealer.
pub fn deque<T: Send>() -> (Worker<T>, Stealer<T>) {
    let buf = Box::into_raw(Buffer::new(MIN_CAP));
    let inner = Arc::new(Inner {
        top: AtomicIsize::new(0),
        bottom: AtomicIsize::new(0),
        buf: AtomicPtr::new(buf),
        retired: UnsafeCell::new(Vec::new()),
    });
    (
        Worker {
            inner: Arc::clone(&inner),
        },
        Stealer { inner },
    )
}

// SAFETY: a Worker may be moved to the thread that will own the deque; the
// owner-only state it reaches (`retired`, bottom-side writes) is unique to
// the single Worker handle, so `T: Send` suffices.
unsafe impl<T: Send> Send for Worker<T> {}

impl<T: Send> Worker<T> {
    /// Push a value at the bottom. Owner-only.
    // ft-lint: hot-path begin(deque-owner)
    pub fn push(&self, v: T) {
        let inner = &*self.inner;
        // ord: Relaxed/Acquire/Relaxed — only the owner writes `bottom` and
        // `buf`, so it may read its own last stores relaxed; Acquire on
        // `top` pairs with thieves' Release-free CAS retirement of indices
        // so the owner sees which slots are free to reuse (LPCN'13 push).
        let b = inner.bottom.load(Ordering::Relaxed);
        let t = inner.top.load(Ordering::Acquire);
        let mut buf = inner.buf.load(Ordering::Relaxed);

        let len = b.wrapping_sub(t);
        // SAFETY: the owner is the unique writer at index `b`: thieves only
        // consume indices below `bottom`, and `grow` republishes the live
        // range before the new slot is written.
        unsafe {
            if len >= (*buf).cap as isize {
                self.grow(b, t);
                // ord: Relaxed — reading back the pointer this same thread
                // just stored in `grow`.
                buf = inner.buf.load(Ordering::Relaxed);
            }
            (*buf).put(b, v);
        }
        // ord: Release fence + Relaxed store — the slot write above must be
        // visible before the incremented `bottom` is; pairs with the
        // thief's Acquire load of `bottom` in `steal`.
        // sc: chase-lev/owner-publish
        fence(Ordering::Release);
        inner.bottom.store(b.wrapping_add(1), Ordering::Relaxed);
    }

    /// Pop a value from the bottom (LIFO). Owner-only.
    pub fn pop(&self) -> Option<T> {
        let inner = &*self.inner;
        // ord: Relaxed — owner reads/writes its own `bottom` and `buf`; the
        // SeqCst fence below is what orders the decrement against thieves.
        let b = inner.bottom.load(Ordering::Relaxed).wrapping_sub(1);
        let buf = inner.buf.load(Ordering::Relaxed);
        inner.bottom.store(b, Ordering::Relaxed);
        // ord: SeqCst fence — the bottom decrement must be globally visible
        // before reading `top` (the crux of Chase-Lev: pairs with the
        // thief's top-read/bottom-read fence); `top` itself can then be
        // read Relaxed because the fence orders it.
        // sc: chase-lev/owner-take
        fence(Ordering::SeqCst);
        let t = inner.top.load(Ordering::Relaxed);

        let len = b.wrapping_sub(t);
        if len < 0 {
            // ord: Relaxed — restoring our own speculative decrement; no
            // other thread writes `bottom`.
            inner.bottom.store(b.wrapping_add(1), Ordering::Relaxed);
            return None;
        }
        // SAFETY: `t <= b < old bottom` means index `b` was published by a
        // completed push; if thieves race us for the last element the CAS
        // below decides ownership, and the loser forgets its copy.
        let v = unsafe { (*buf).take(b) };
        if len > 0 {
            // More than one element; no thief can race for index b.
            return Some(v);
        }
        // Exactly one element: race with thieves via CAS on top.
        // ord: SeqCst success / Relaxed failure — the CAS participates in
        // the same total order as the fences; on failure we only learn we
        // lost and read nothing guarded by `top`.
        let won = inner
            .top
            .compare_exchange(t, t.wrapping_add(1), Ordering::SeqCst, Ordering::Relaxed)
            .is_ok();
        // ord: Relaxed — only the owner writes bottom; restoring it to the
        // empty position needs no ordering (thieves re-validate via top).
        inner.bottom.store(b.wrapping_add(1), Ordering::Relaxed);
        if won {
            Some(v)
        } else {
            // A thief got it; we must not drop the value we read (the thief
            // owns it) — forget our speculative copy.
            std::mem::forget(v);
            None
        }
    }

    // ft-lint: hot-path end(deque-owner)

    /// Number of elements currently visible to the owner (approximate for
    /// outside observers, exact for the owner between operations).
    pub fn len(&self) -> usize {
        // ord: Relaxed — advisory size; callers tolerate a stale snapshot.
        let b = self.inner.bottom.load(Ordering::Relaxed);
        let t = self.inner.top.load(Ordering::Relaxed);
        b.wrapping_sub(t).max(0) as usize
    }

    /// True if no elements are visible.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Create another stealer for this deque.
    pub fn stealer(&self) -> Stealer<T> {
        Stealer {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Double the buffer; called by `push` when full. Owner-only.
    ///
    /// The old buffer is retired, not freed: thieves may still be reading
    /// slots of it. `top`..`bottom` elements are copied to the new buffer.
    fn grow(&self, b: isize, t: isize) {
        let inner = &*self.inner;
        // ord: Relaxed — only the owner replaces `buf`; it reads its own
        // last published pointer.
        let old = inner.buf.load(Ordering::Relaxed);
        // SAFETY: the owner has exclusive write access to the new (still
        // private) buffer, the bit-copies only duplicate slots whose
        // ownership stays with the deque, and the old buffer is retired —
        // not freed — because a thief may still be reading it.
        unsafe {
            let new = Box::into_raw(Buffer::new((*old).cap * 2));
            for i in t..b {
                // Copy the raw bytes; ownership stays with the deque.
                let slot_old = &(*old).slots[(i as usize) & (*old).mask];
                let slot_new = &(*new).slots[(i as usize) & (*new).mask];
                std::ptr::copy_nonoverlapping(slot_old.get(), slot_new.get(), 1);
            }
            // ord: Release — the copied slot contents must be visible before
            // the new buffer pointer; pairs with the thief's Acquire load.
            inner.buf.store(new, Ordering::Release);
            (*inner.retired.get()).push(old);
        }
    }
}

impl<T: Send> Stealer<T> {
    /// Attempt to steal one element from the top (FIFO).
    // ft-lint: hot-path begin(deque-steal)
    pub fn steal(&self) -> Steal<T> {
        let inner = &*self.inner;
        // ord: Acquire on `top` (pairs with competing CAS publications),
        // then a SeqCst fence ordering the top read before the bottom read
        // (mirrors the owner's pop fence), then Acquire on `bottom` pairing
        // with the owner's Release fence in `push` so the slot write at
        // `t` is visible before we read it.
        let t = inner.top.load(Ordering::Acquire);
        // sc: chase-lev/thief-steal
        fence(Ordering::SeqCst);
        let b = inner.bottom.load(Ordering::Acquire);
        if b.wrapping_sub(t) <= 0 {
            return Steal::Empty;
        }
        // ord: Acquire — read the buffer pointer *after* observing
        // non-empty; pairs with the owner's Release store in `grow` so the
        // copied slots are visible through the new pointer.
        let buf = inner.buf.load(Ordering::Acquire);
        // SAFETY: `t < b` means index `t` holds a published value; the CAS
        // below arbitrates ownership, and on loss we forget the speculative
        // copy without dropping it.
        let v = unsafe { (*buf).take(t) };
        // ord: SeqCst success / Relaxed failure — success joins the fence
        // total order claiming index `t`; failure reads nothing guarded.
        if inner
            .top
            .compare_exchange(t, t.wrapping_add(1), Ordering::SeqCst, Ordering::Relaxed)
            .is_ok()
        {
            Steal::Success(v)
        } else {
            // Lost the race; the element belongs to someone else.
            std::mem::forget(v);
            Steal::Retry
        }
    }
    // ft-lint: hot-path end(deque-steal)

    /// Approximate number of elements.
    pub fn len(&self) -> usize {
        // ord: Relaxed — advisory size; callers tolerate a stale snapshot.
        let t = self.inner.top.load(Ordering::Relaxed);
        let b = self.inner.bottom.load(Ordering::Relaxed);
        b.wrapping_sub(t).max(0) as usize
    }

    /// True if the deque appears empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_sync::atomic::AtomicUsize;
    use std::collections::HashSet;
    use std::thread;

    #[test]
    fn push_pop_lifo() {
        let (w, _s) = deque::<u32>();
        for i in 0..10 {
            w.push(i);
        }
        for i in (0..10).rev() {
            assert_eq!(w.pop(), Some(i));
        }
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn steal_fifo() {
        let (w, s) = deque::<u32>();
        for i in 0..10 {
            w.push(i);
        }
        for i in 0..10 {
            assert_eq!(s.steal(), Steal::Success(i));
        }
        assert_eq!(s.steal(), Steal::Empty);
    }

    #[test]
    fn empty_deque_behaviour() {
        let (w, s) = deque::<u32>();
        assert!(w.is_empty());
        assert!(s.is_empty());
        assert_eq!(w.pop(), None);
        assert_eq!(s.steal(), Steal::Empty);
        w.push(7);
        assert_eq!(w.len(), 1);
        assert_eq!(w.pop(), Some(7));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn growth_preserves_elements() {
        let (w, s) = deque::<usize>();
        let n = MIN_CAP * 8;
        for i in 0..n {
            w.push(i);
        }
        assert_eq!(w.len(), n);
        // Steal half from the top, pop half from the bottom.
        for i in 0..n / 2 {
            assert_eq!(s.steal(), Steal::Success(i));
        }
        for i in (n / 2..n).rev() {
            assert_eq!(w.pop(), Some(i));
        }
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn interleaved_push_pop_steal_sequential() {
        let (w, s) = deque::<u64>();
        let mut seen = HashSet::new();
        let mut next = 0u64;
        for round in 0..1000 {
            for _ in 0..(round % 7) {
                w.push(next);
                next += 1;
            }
            if round % 3 == 0 {
                if let Some(v) = w.pop() {
                    assert!(seen.insert(v));
                }
            }
            if round % 2 == 0 {
                if let Steal::Success(v) = s.steal() {
                    assert!(seen.insert(v));
                }
            }
        }
        while let Some(v) = w.pop() {
            assert!(seen.insert(v));
        }
        assert_eq!(seen.len(), next as usize);
    }

    #[test]
    fn drops_remaining_elements() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        {
            let (w, _s) = deque::<D>();
            for _ in 0..10 {
                w.push(D);
            }
            drop(w.pop()); // one dropped here
        }
        assert_eq!(DROPS.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn concurrent_steal_no_dup_no_loss() {
        const N: usize = 100_000;
        const THIEVES: usize = 4;
        let (w, s) = deque::<usize>();
        let counts: Vec<AtomicUsize> = (0..N).map(|_| AtomicUsize::new(0)).collect();
        let counts = std::sync::Arc::new(counts);

        thread::scope(|scope| {
            for _ in 0..THIEVES {
                let s = s.clone();
                let counts = std::sync::Arc::clone(&counts);
                scope.spawn(move || loop {
                    match s.steal() {
                        Steal::Success(v) => {
                            counts[v].fetch_add(1, Ordering::Relaxed);
                        }
                        Steal::Empty => {
                            if counts[N - 1].load(Ordering::Relaxed) > 0
                                || counts.iter().all(|c| c.load(Ordering::Relaxed) > 0)
                            {
                                break;
                            }
                            std::hint::spin_loop();
                        }
                        Steal::Retry => {}
                    }
                });
            }
            // Owner interleaves pushes and pops.
            let mut popped = Vec::new();
            for i in 0..N {
                w.push(i);
                if i % 5 == 0 {
                    if let Some(v) = w.pop() {
                        popped.push(v);
                    }
                }
            }
            // Drain the rest from the owner side.
            while let Some(v) = w.pop() {
                popped.push(v);
            }
            for v in popped {
                counts[v].fetch_add(1, Ordering::Relaxed);
            }
        });

        for (i, c) in counts.iter().enumerate() {
            assert_eq!(
                c.load(Ordering::Relaxed),
                1,
                "element {i} seen wrong number of times"
            );
        }
    }

    #[test]
    fn concurrent_growth_under_steal() {
        const N: usize = 50_000;
        let (w, s) = deque::<usize>();
        let stolen = std::sync::Arc::new(AtomicUsize::new(0));
        let done = std::sync::Arc::new(ft_sync::atomic::AtomicBool::new(false));

        thread::scope(|scope| {
            for _ in 0..3 {
                let s = s.clone();
                let stolen = std::sync::Arc::clone(&stolen);
                let done = std::sync::Arc::clone(&done);
                scope.spawn(move || loop {
                    match s.steal() {
                        Steal::Success(_) => {
                            stolen.fetch_add(1, Ordering::Relaxed);
                        }
                        Steal::Empty if done.load(Ordering::Acquire) => break,
                        _ => std::hint::spin_loop(),
                    }
                });
            }
            let mut popped = 0usize;
            for i in 0..N {
                w.push(i);
                // Occasionally pop to force the single-element race path.
                if i % 97 == 0 && w.pop().is_some() {
                    popped += 1;
                }
            }
            while w.pop().is_some() {
                popped += 1;
            }
            // Let thieves drain anything left (there is nothing left, but the
            // CAS races must settle), then signal.
            done.store(true, Ordering::Release);
            // popped is accounted below.
            stolen.fetch_add(popped, Ordering::Relaxed);
        });

        assert_eq!(stolen.load(Ordering::Relaxed), N);
    }
}
