//! Loom model tests for the PR-9 lock-free notify cells
//! ([`nabbit_ft::task::NotifyCells`]): the claim/publish/scan protocol
//! that replaced the mutexed notify list.
//!
//! Build and run with:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p nabbit-ft --test loom_notify
//! ```
//!
//! The models replay the exact engine-side protocol (`register_notify`
//! with its status pre-check / the `compute_and_notify_step` drain, see
//! `scheduler/engine.rs`) against a bare status byte, so both status
//! reads and every atomic in the cell array — the `claims` counter, the
//! slot publishes, the paired SeqCst fences, and the take-CAS — are
//! model-exploration points. `LOOM_MAX_ITERS` / `LOOM_SEED` control the
//! exploration budget and make failures replayable.
#![cfg(loom)]

use ft_sync::atomic::{fence, AtomicU8, AtomicUsize, Ordering};
use nabbit_ft::task::{NotifyCells, Take};
use std::sync::Arc;

const VISITED: u8 = 0;
const COMPUTED: u8 = 1;

/// The engine's registration path (`register_notify`): read the
/// producer's status first and self-deliver without a claim if it has
/// computed; otherwise claim a slot, publish the key, fence, then
/// re-check the status and self-deliver on a won CAS. Returns 1 if this
/// side delivered.
fn register(cells: &NotifyCells, status: &AtomicU8, key: i64) -> usize {
    // ord: Acquire pairs with the drainer's Release `Computed` store.
    if status.load(Ordering::Acquire) >= COMPUTED {
        return 1;
    }
    let slot = cells.claim();
    cells.publish(slot, key);
    // ord: Dekker pairing with the drainer's fence (see engine.rs).
    fence(Ordering::SeqCst);
    if status.load(Ordering::Acquire) >= COMPUTED && cells.try_take(slot, key) {
        1
    } else {
        0
    }
}

/// The engine's drain (`compute_and_notify_step`): mark Computed, fence,
/// then cursor-scan every claimed slot, re-checking the claim counter
/// until no late registrant slipped in. Delivered keys are appended to
/// `out`.
fn drain(cells: &NotifyCells, status: &AtomicU8, out: &mut Vec<i64>) {
    status.store(COMPUTED, Ordering::Release);
    // ord: Dekker pairing with the registrant's fence (see engine.rs).
    fence(Ordering::SeqCst);
    let mut cursor = 0usize;
    loop {
        let len = cells.len();
        while cursor < len {
            if let Take::Deliver(k) = cells.take_at(cursor) {
                out.push(k);
            }
            cursor += 1;
        }
        if cells.len() == cursor {
            break;
        }
    }
}

/// One registrant races the producer's drain: whatever the interleaving —
/// early registration (drain delivers), late registration (registrant
/// self-delivers after seeing Computed), or the claimed-but-unpublished
/// window (drain delegates, registrant must pick it up) — the
/// notification is delivered exactly once.
#[test]
fn registrant_racing_drainer_delivers_exactly_once() {
    loom::model(|| {
        let cells = Arc::new(NotifyCells::new(2));
        let status = Arc::new(AtomicU8::new(VISITED));
        let (c2, s2) = (Arc::clone(&cells), Arc::clone(&status));
        let registrant = loom::thread::spawn(move || register(&c2, &s2, 7));

        let mut delivered = Vec::new();
        drain(&cells, &status, &mut delivered);
        let self_delivered = registrant.join().unwrap();

        assert!(
            delivered.iter().all(|&k| k == 7),
            "alien key: {delivered:?}"
        );
        assert_eq!(
            delivered.len() + self_delivered,
            1,
            "exactly-once delivery violated: drain={delivered:?}, self={self_delivered}"
        );
    });
}

/// The status pre-check races the drainer's `Computed` store, with the
/// drain on its own thread. A registrant whose pre-check sees `Computed`
/// claims nothing, so the drain has no cell to deliver it from; one whose
/// pre-check misses the store takes the full claim protocol. Either way
/// the key is delivered exactly once, and a registration that left no
/// cell delivered it itself.
#[test]
fn precheck_racing_computed_store_delivers_exactly_once() {
    loom::model(|| {
        let cells = Arc::new(NotifyCells::new(1));
        let status = Arc::new(AtomicU8::new(VISITED));
        let (c2, s2) = (Arc::clone(&cells), Arc::clone(&status));
        let drainer = loom::thread::spawn(move || {
            let mut delivered = Vec::new();
            drain(&c2, &s2, &mut delivered);
            delivered
        });

        let self_delivered = register(&cells, &status, 7);
        let drained = drainer.join().unwrap();

        assert_eq!(
            drained.len() + self_delivered,
            1,
            "exactly-once delivery violated: drain={drained:?}, self={self_delivered}"
        );
        if cells.is_empty() {
            assert_eq!(self_delivered, 1, "no cell claimed, yet not self-delivered");
        }
    });
}

/// Two registrants race the drain past the fixed capacity (capacity 1, so
/// the loser claims into the overflow chain — the recovery
/// re-registration path). Unique slots, both keys delivered exactly once.
#[test]
fn overflow_claims_race_drain_exactly_once_each() {
    loom::model(|| {
        let cells = Arc::new(NotifyCells::new(1));
        let status = Arc::new(AtomicU8::new(VISITED));
        let delivered_self = Arc::new(AtomicUsize::new(0));

        let regs: Vec<_> = [7i64, 9]
            .into_iter()
            .map(|key| {
                let (c, s, d) = (
                    Arc::clone(&cells),
                    Arc::clone(&status),
                    Arc::clone(&delivered_self),
                );
                loom::thread::spawn(move || {
                    if register(&c, &s, key) == 1 {
                        // ord: Relaxed — test-side tally, joined below.
                        d.fetch_add(key as usize, Ordering::Relaxed);
                    }
                })
            })
            .collect();

        let mut drained = Vec::new();
        drain(&cells, &status, &mut drained);
        for r in regs {
            r.join().unwrap();
        }

        let total: usize = drained.iter().map(|&k| k as usize).sum::<usize>()
            + delivered_self.load(Ordering::Relaxed);
        assert_eq!(
            total,
            7 + 9,
            "each key once: drained={drained:?}, self-sum={}",
            delivered_self.load(Ordering::Relaxed)
        );
    });
}

/// Generation-tagged reset: `ResetNode` re-explores a task *without*
/// clearing its notify cells — consumed (TAKEN) slots stay consumed, and
/// the re-registration claims a fresh slot. A drain racing the fresh
/// registration must never re-deliver the old epoch's key and must
/// deliver the new one exactly once.
#[test]
fn reset_epoch_reuses_cells_without_redelivery() {
    loom::model(|| {
        let cells = Arc::new(NotifyCells::new(1));
        let status = Arc::new(AtomicU8::new(VISITED));

        // Epoch 1 (sequential prologue): key 7 registers and is consumed
        // — the pre-reset history baked into the reused cell array.
        let slot = cells.claim();
        cells.publish(slot, 7);
        assert!(cells.try_take(slot, 7));

        // Epoch 2: the reset restored bits/join, cells untouched. A fresh
        // registration (key 9, claims past the consumed slot) races the
        // producer's drain.
        let (c2, s2) = (Arc::clone(&cells), Arc::clone(&status));
        let registrant = loom::thread::spawn(move || register(&c2, &s2, 9));

        let mut drained = Vec::new();
        drain(&cells, &status, &mut drained);
        let self_delivered = registrant.join().unwrap();

        assert!(
            !drained.contains(&7),
            "consumed slot re-delivered after reset: {drained:?}"
        );
        assert_eq!(
            drained.iter().filter(|&&k| k == 9).count() + self_delivered,
            1,
            "fresh registration not delivered exactly once: drain={drained:?}, \
             self={self_delivered}"
        );
    });
}
