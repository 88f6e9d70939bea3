//! Loom model tests for the wait-free block reads
//! ([`nabbit_ft::blocks::BlockStore`]): readers racing writers through
//! copy-on-write table replacement, eviction tombstoning, and the
//! reclamation of retired tables and evicted payloads.
//!
//! Build and run with:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p nabbit-ft --test loom_blocks
//! ```
//!
//! Under `--cfg loom` the store compiles against `loom::sync::atomic`, so
//! the reader count and the table pointer are model-exploration points.
//! `LOOM_MAX_ITERS` / `LOOM_SEED` control the exploration budget and make
//! failures replayable.
#![cfg(loom)]

use nabbit_ft::blocks::{BlockError, BlockStore, Retention};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A reader loops `read_latest` while a writer publishes versions 0..=3.
/// Every observation must be a version the writer actually published,
/// carrying that version's payload (version and payload come from one
/// table snapshot — a torn pair would surface as Missing or a payload
/// mismatch), and the observed latest version must be monotone.
#[test]
fn read_latest_races_publish() {
    const LAST: u64 = 3;
    loom::model(|| {
        let s = Arc::new(BlockStore::<u64>::new(1, Retention::KeepLast(2)));
        let s2 = Arc::clone(&s);
        let writer = loom::thread::spawn(move || {
            for v in 0..=LAST {
                s2.publish(0, v, 100 + v as i64, vec![v; 4]);
            }
        });
        let mut last_seen: Option<u64> = None;
        loop {
            match s.read_latest(0) {
                Err(BlockError::Missing) => {
                    assert!(
                        last_seen.is_none(),
                        "latest went missing after {last_seen:?}"
                    );
                }
                Ok((v, data)) => {
                    assert!(v <= LAST, "version {v} never published");
                    assert_eq!(data[0], v, "payload of another version under latest {v}");
                    assert!(
                        last_seen.is_none_or(|p| v >= p),
                        "latest went backwards: {v} after {last_seen:?}"
                    );
                    last_seen = Some(v);
                    if v == LAST {
                        break;
                    }
                }
                other => panic!("latest must never be poisoned/overwritten here: {other:?}"),
            }
        }
        writer.join().unwrap();
        assert_eq!(s.latest_version(0), Some(LAST));
    });
}

/// A reader pinned on one version while the writer's churn slides the
/// retention window over it: the read is either the correct payload or
/// `Overwritten` with the recorded producer — never Missing, never another
/// version's data, and never blocked behind the writer's table swaps.
#[test]
fn read_through_eviction_sees_data_or_tombstone() {
    loom::model(|| {
        let s = Arc::new(BlockStore::<u64>::new(1, Retention::KeepLast(1)));
        s.publish(0, 0, 100, vec![42]);
        let s2 = Arc::clone(&s);
        let writer = loom::thread::spawn(move || {
            for v in 1..=2u64 {
                s2.publish(0, v, 100 + v as i64, vec![v]);
            }
        });
        let mut overwritten = false;
        for _ in 0..8 {
            match s.read(0, 0) {
                Ok(data) => {
                    assert!(!overwritten, "version 0 came back after eviction");
                    assert_eq!(&*data, &vec![42]);
                }
                Err(BlockError::Overwritten { producer }) => {
                    assert_eq!(producer, 100, "tombstone lost its producer");
                    overwritten = true;
                }
                other => panic!("read(0,0) must be data or Overwritten: {other:?}"),
            }
        }
        writer.join().unwrap();
        assert_eq!(
            s.read(0, 0),
            Err(BlockError::Overwritten { producer: 100 }),
            "after the churn v0 is evicted with attribution"
        );
    });
}

/// Pinned (resilient input) versions are immune to the writer's churn:
/// every read during concurrent publishes returns the pinned payload.
#[test]
fn pinned_read_survives_concurrent_churn() {
    loom::model(|| {
        let s = Arc::new(BlockStore::<u64>::new(1, Retention::KeepLast(1)));
        s.publish_pinned(0, 0, vec![7]);
        let s2 = Arc::clone(&s);
        let writer = loom::thread::spawn(move || {
            for v in 1..=3u64 {
                s2.publish(0, v, 200 + v as i64, vec![v]);
            }
        });
        for _ in 0..8 {
            let data = s.read(0, 0).expect("pinned version must stay resident");
            assert_eq!(&*data, &vec![7]);
        }
        writer.join().unwrap();
        assert!(s.is_live(0, 0));
    });
}

/// A payload that flags its own drop, so a reader can tell a live clone
/// from one taken out of a table that was already freed.
struct Flagged {
    version: u64,
    dropped: Arc<Vec<AtomicBool>>,
}

impl Drop for Flagged {
    fn drop(&mut self) {
        self.dropped[self.version as usize].store(true, Ordering::SeqCst);
    }
}

/// A reader races a writer that frees retired tables — and with them the
/// evicted payloads — whenever it sees no reader in flight. Every payload
/// a read returns must still be alive while the reader holds it: a free
/// that ignored the reader count would hand out a clone of a dropped
/// payload (or crash on the freed table). Once the reader is gone, the
/// next publish frees everything outside the window, and the store's drop
/// frees the rest.
#[test]
fn reader_races_reclaiming_writer() {
    const LAST: u64 = 4;
    loom::model(|| {
        let dropped: Arc<Vec<AtomicBool>> =
            Arc::new((0..=LAST + 1).map(|_| AtomicBool::new(false)).collect());
        let payload = |version: u64| {
            vec![Flagged {
                version,
                dropped: Arc::clone(&dropped),
            }]
        };
        let s = Arc::new(BlockStore::<Flagged>::new(1, Retention::KeepLast(1)));
        s.publish(0, 0, 100, payload(0));
        let s2 = Arc::clone(&s);
        let writer_payloads: Vec<_> = (1..=LAST).map(payload).collect();
        let writer = loom::thread::spawn(move || {
            for (v, data) in (1..=LAST).zip(writer_payloads) {
                s2.publish(0, v, 100 + v as i64, data);
            }
        });
        let check = |v: u64, data: Arc<Vec<Flagged>>| {
            if dropped[v as usize].load(Ordering::SeqCst) {
                // The clone names freed memory; dropping it would free it
                // again.
                std::mem::forget(data);
                panic!("read of v{v} returned a payload its table's free dropped");
            }
            assert_eq!(data[0].version, v, "payload of another version");
        };
        for _ in 0..8 {
            let (v, data) = s.read_latest(0).expect("latest is always resident");
            check(v, data);
            match s.read(0, 0) {
                Ok(data) => check(0, data),
                Err(BlockError::Overwritten { producer }) => assert_eq!(producer, 100),
                Err(e) => panic!("read(0,0) must be data or Overwritten: {e:?}"),
            }
        }
        writer.join().unwrap();
        s.publish(0, LAST + 1, 100 + LAST as i64 + 1, payload(LAST + 1));
        let freed: Vec<bool> = dropped.iter().map(|d| d.load(Ordering::SeqCst)).collect();
        let mut want = vec![true; LAST as usize + 1];
        want.push(false);
        assert_eq!(
            freed, want,
            "with no reader in flight only the window stays"
        );
        drop(s);
        assert!(
            dropped.iter().all(|d| d.load(Ordering::SeqCst)),
            "the store leaks"
        );
    });
}
