//! Atomic notification bit vector (Guarantee 3).
//!
//! "We retain a bit vector that tracks if the join counter has been
//! decremented for a particular predecessor in the ordered list of
//! predecessors. This bit vector is initialized to 1 for all bits. Each bit
//! is unset when the corresponding predecessor is observed to have been
//! computed […]. The join counter is decremented only if that bit is set."
//!
//! The vector has one bit per predecessor **plus one for the task itself**:
//! `InitAndCompute` ends with a self-notification (`NotifyOnce(A, key, key)`)
//! whose bit keeps the task from becoming ready before its traversal is
//! done, and keeps that notification exactly-once too (a reset node
//! re-traverses and re-self-notifies).
//!
//! The first word is stored **inline**: every task with ≤ 63 predecessors
//! (all the paper's kernels, and any realistic fan-in) pays zero heap
//! allocations for its bit vector; wider vectors spill the remaining words
//! into a boxed slice.
//!
//! The fault-tolerant join counter counts the vector's **non-empty words**
//! rather than its set bits: [`AtomicBitVec::clear`] reports whether it
//! emptied its word, and only that clear decrements the counter. A
//! consumed notification is then one `fetch_and`, plus one `fetch_sub` per
//! word instead of per bit.

use ft_sync::atomic::{AtomicU64, Ordering};

/// What [`AtomicBitVec::clear`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clear {
    /// The bit was already clear: a duplicate. `word_empty` says whether
    /// its word held no set bit either.
    AlreadyClear {
        /// No bit of the word was set.
        word_empty: bool,
    },
    /// Cleared the bit; other bits of its word are still set.
    Cleared,
    /// Cleared the last set bit of its word.
    Emptied,
}

/// A fixed-width vector of atomically clearable bits.
pub struct AtomicBitVec {
    /// Bits 0..=63, stored inline.
    word0: AtomicU64,
    /// Words 1.. for vectors wider than 64 bits; empty (no allocation)
    /// otherwise.
    spill: Box<[AtomicU64]>,
    len: usize,
}

/// Value of word `w` with every in-range bit set.
fn full_mask(len: usize, w: usize) -> u64 {
    let bits_in_word = if (w + 1) * 64 <= len {
        64
    } else {
        len.saturating_sub(w * 64)
    };
    if bits_in_word == 64 {
        u64::MAX
    } else {
        (1u64 << bits_in_word) - 1
    }
}

impl AtomicBitVec {
    /// Create a vector of `len` bits, all set to 1.
    pub fn new_all_set(len: usize) -> Self {
        let nwords = len.div_ceil(64).max(1);
        let spill: Box<[AtomicU64]> = (1..nwords)
            .map(|w| AtomicU64::new(full_mask(len, w)))
            .collect();
        AtomicBitVec {
            word0: AtomicU64::new(full_mask(len, 0)),
            spill,
            len,
        }
    }

    /// The word holding bit index range `[64w, 64w+63]`.
    fn word(&self, w: usize) -> &AtomicU64 {
        if w == 0 {
            &self.word0
        } else {
            &self.spill[w - 1]
        }
    }

    /// Number of words (inline + spill): the fault-tolerant join counter's
    /// initial value.
    pub fn words(&self) -> usize {
        1 + self.spill.len()
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the vector has zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `AtomicBitUnset`: clear bit `i`, reporting whether it was set and
    /// whether this clear emptied its word.
    pub fn clear(&self, i: usize) -> Clear {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let mask = 1u64 << (i % 64);
        // ord: AcqRel — the clear that empties a word must observe every
        // earlier clear of that word (Acquire), whose notifiers' writes the
        // task's compute reads, and each clear must publish its notifier's
        // writes to it (Release); the winner's reset that set the bit is
        // acquired the same way.
        let prev = self.word(i / 64).fetch_and(!mask, Ordering::AcqRel);
        if prev & mask == 0 {
            Clear::AlreadyClear {
                word_empty: prev == 0,
            }
        } else if prev == mask {
            Clear::Emptied
        } else {
            Clear::Cleared
        }
    }

    /// Clear bit `i`. Returns `true` iff the bit was set (i.e. this caller
    /// consumed the notification it stands for).
    pub fn unset(&self, i: usize) -> bool {
        !matches!(self.clear(i), Clear::AlreadyClear { .. })
    }

    /// Read bit `i` (used by `ReinitNotifyEntry`: "if S.bitVector\[ind\]==1").
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        // ord: Acquire — pairs with set_all's Release so a reader that
        // sees a restored bit also sees the reset that restored it.
        self.word(i / 64).load(Ordering::Acquire) & (1u64 << (i % 64)) != 0
    }

    /// `SetAllBits`: restore every bit to 1 (used by `ResetNode`).
    pub fn set_all(&self) {
        for w in 0..self.words() {
            // ord: Release — publishes the reset to get()'s Acquire
            // loads before the node is re-armed.
            self.word(w)
                .store(full_mask(self.len, w), Ordering::Release);
        }
    }

    /// Number of set bits (diagnostics).
    pub fn count_set(&self) -> usize {
        (0..self.words())
            // ord: Acquire — diagnostics read the freshest published words.
            .map(|w| self.word(w).load(Ordering::Acquire).count_ones() as usize)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_sync::atomic::AtomicUsize;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn starts_all_set() {
        for len in [0, 1, 5, 63, 64, 65, 128, 130] {
            let v = AtomicBitVec::new_all_set(len);
            assert_eq!(v.len(), len);
            assert_eq!(v.count_set(), len, "len={len}");
            for i in 0..len {
                assert!(v.get(i), "bit {i} of {len}");
            }
        }
    }

    #[test]
    fn narrow_vectors_do_not_spill() {
        for len in [0, 1, 63, 64] {
            assert!(AtomicBitVec::new_all_set(len).spill.is_empty(), "len={len}");
        }
        assert_eq!(AtomicBitVec::new_all_set(65).spill.len(), 1);
    }

    #[test]
    fn unset_returns_true_once() {
        let v = AtomicBitVec::new_all_set(10);
        assert!(v.unset(3));
        assert!(!v.unset(3));
        assert!(!v.get(3));
        assert!(v.get(2));
        assert_eq!(v.count_set(), 9);
    }

    #[test]
    fn set_all_restores() {
        let v = AtomicBitVec::new_all_set(100);
        for i in 0..100 {
            v.unset(i);
        }
        assert_eq!(v.count_set(), 0);
        v.set_all();
        assert_eq!(v.count_set(), 100);
        // Bits beyond len must stay clear so count_set stays exact.
        assert!(v.unset(99));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let v = AtomicBitVec::new_all_set(4);
        v.unset(4);
    }

    #[test]
    fn clear_reports_the_emptied_word() {
        let v = AtomicBitVec::new_all_set(66);
        assert_eq!(v.words(), 2);
        assert_eq!(v.clear(64), Clear::Cleared);
        assert_eq!(v.clear(64), Clear::AlreadyClear { word_empty: false });
        assert_eq!(v.clear(65), Clear::Emptied);
        assert_eq!(v.clear(65), Clear::AlreadyClear { word_empty: true });
        for i in 0..63 {
            assert_eq!(v.clear(i), Clear::Cleared, "bit {i}");
        }
        assert_eq!(v.clear(63), Clear::Emptied);
        assert_eq!(AtomicBitVec::new_all_set(1).clear(0), Clear::Emptied);
        assert_eq!(AtomicBitVec::new_all_set(64).words(), 1);
    }

    #[test]
    fn word_boundary_bits() {
        let v = AtomicBitVec::new_all_set(65);
        assert!(v.unset(63));
        assert!(v.unset(64));
        assert!(!v.unset(64));
        assert_eq!(v.count_set(), 63);
    }

    #[test]
    fn concurrent_unset_exactly_one_winner_per_bit() {
        const BITS: usize = 256;
        let v = Arc::new(AtomicBitVec::new_all_set(BITS));
        let wins = Arc::new(AtomicUsize::new(0));
        thread::scope(|s| {
            for _ in 0..8 {
                let v = Arc::clone(&v);
                let wins = Arc::clone(&wins);
                s.spawn(move || {
                    for i in 0..BITS {
                        if v.unset(i) {
                            wins.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(wins.load(Ordering::Relaxed), BITS);
        assert_eq!(v.count_set(), 0);
    }
}
