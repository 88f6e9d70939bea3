//! Loom models for the fused notification gate: the fault-tolerant join
//! counter counts non-empty bit-vector words, and only the clear that
//! empties a word ([`Clear::Emptied`]) decrements it.
//!
//! Build and run with:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p nabbit-ft --test loom_bits
//! ```
//!
//! The models replay the engine's gate (`notify_gate` in
//! `scheduler/engine.rs`) on a real [`FtDesc`], so the word clear, the
//! join decrement and `reset_for_reexploration` are the shipped code.
//! Each notifier writes a plain [`loom::cell::UnsafeCell`] before it
//! notifies — the predecessor output the task's compute reads — and the
//! thread that sees the task ready reads them all. The shim checks that
//! those reads are ordered after the writes, so weakening the clear's
//! `AcqRel` to `Relaxed` fails `two_notifiers_empty_one_word`.
#![cfg(loom)]

use loom::cell::UnsafeCell;
use nabbit_ft::bitvec::Clear;
use nabbit_ft::task::FtDesc;
use std::sync::Arc;

/// The engine's gate: clear the bit; the clear that empties its word
/// decrements the join counter; zero means ready.
fn notify(a: &FtDesc, ind: usize) -> bool {
    match a.bits.clear(ind) {
        // ord: AcqRel — the engine's join decrement (see engine.rs).
        Clear::Emptied => a.join.fetch_sub(1, ft_sync::atomic::Ordering::AcqRel) == 1,
        Clear::Cleared | Clear::AlreadyClear { .. } => false,
    }
}

/// A task whose bits are all consumed except those in `pending`.
fn task_waiting_on(preds: usize, pending: &[usize]) -> Arc<FtDesc> {
    let keys: Vec<i64> = (100..100 + preds as i64).collect();
    let a = Arc::new(FtDesc::new(1, 1, &keys, 1));
    for i in (0..=preds).filter(|i| !pending.contains(i)) {
        notify(&a, i);
    }
    a
}

/// Two notifiers race to deliver the task's last two notifications. Each
/// publishes its output first. Exactly one of them sees the task ready,
/// and that one observes both outputs.
fn race_last_two(preds: usize, bits: [usize; 2]) {
    loom::model(move || {
        let a = task_waiting_on(preds, &bits);
        let outputs = Arc::new([UnsafeCell::new(0u32), UnsafeCell::new(0)]);
        let notifiers: Vec<_> = (0..2)
            .map(|n| {
                let (a, outputs) = (Arc::clone(&a), Arc::clone(&outputs));
                loom::thread::spawn(move || {
                    outputs[n].with_mut(|p| unsafe { *p = n as u32 + 1 });
                    if !notify(&a, bits[n]) {
                        return false;
                    }
                    // The compute: read every predecessor's output.
                    let seen: Vec<u32> =
                        outputs.iter().map(|o| o.with(|p| unsafe { *p })).collect();
                    assert_eq!(seen, [1, 2], "the ready thread must see both outputs");
                    true
                })
            })
            .collect();
        let ready = notifiers
            .into_iter()
            .map(|h| h.join().unwrap())
            .filter(|&r| r)
            .count();
        assert_eq!(ready, 1, "exactly one notifier sees the task ready");
        // ord: Relaxed — both notifiers are joined.
        assert_eq!(a.join.load(ft_sync::atomic::Ordering::Relaxed), 0);
    });
}

/// One word (≤ 63 predecessors, `join` starts at 1): the last two bits
/// of the word are cleared on different threads. Only the bit vector
/// orders the first clearer's output before the ready thread's read.
#[test]
fn two_notifiers_empty_one_word() {
    race_last_two(2, [0, 1]);
}

/// Two words (65 predecessors plus self, `join` starts at 2): each
/// notifier empties a different word, so both decrement the join counter
/// and the second decrement sees the task ready.
#[test]
fn two_notifiers_empty_different_words() {
    race_last_two(65, [0, 64]);
}

/// `ResetNode` re-arms a task that already ran while a late duplicate of
/// a predecessor's notification is still in flight. Whether it lands
/// before the reset (its bit is already clear) or after (the self bit
/// keeps the word non-empty), the duplicate never readies the task and
/// never moves the join counter, and re-exploration readies it exactly
/// once.
#[test]
fn late_duplicate_racing_reset_is_absorbed() {
    loom::model(|| {
        let a = task_waiting_on(1, &[]);
        // ord: Relaxed — single-threaded prologue.
        assert_eq!(a.join.load(ft_sync::atomic::Ordering::Relaxed), 0);

        let a2 = Arc::clone(&a);
        let duplicate = loom::thread::spawn(move || notify(&a2, 0));
        a.reset_for_reexploration();
        assert!(!duplicate.join().unwrap(), "a duplicate readied the task");
        // ord: Relaxed — the duplicate is joined.
        assert_eq!(
            a.join.load(ft_sync::atomic::Ordering::Relaxed),
            1,
            "the duplicate moved the restored join counter"
        );

        // Re-exploration: the predecessor's re-registration (absorbed if
        // the duplicate consumed its bit), then the self-notification.
        let readied = [notify(&a, 0), notify(&a, 1)];
        assert_eq!(readied, [false, true]);
    });
}
