//! Loom model tests for the wait-free block reads
//! ([`nabbit_ft::blocks::BlockStore`]): readers racing writers through
//! copy-on-write table replacement and eviction tombstoning.
//!
//! Build and run with:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p nabbit-ft --test loom_blocks
//! ```
//!
//! Under `--cfg loom` the store compiles against `loom::sync::atomic`, so
//! the table-pointer Release swap / Acquire load pair is a
//! model-exploration point. `LOOM_MAX_ITERS` / `LOOM_SEED`
//! control the exploration budget and make failures replayable.
#![cfg(loom)]

use nabbit_ft::blocks::{BlockError, BlockStore, Retention};
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
