//! Property tests for the versioned block store: retention semantics match
//! a sequential model, and every read is attributed to the right producer.
//!
//! Each property runs 256 cases; case `i` draws its input from
//! `StdRng::seed_from_u64(BASE + i)` and names that seed when it fails.

use nabbit_ft::blocks::{BlockError, BlockStore, Retention, Version};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// Sequential model of one block under `KeepLast(k)` with
/// recovery-resident semantics.
#[derive(Default)]
struct BlockModel {
    resident: BTreeMap<Version, (i64, bool)>, // version -> (producer, recovery_resident)
    producers: BTreeMap<Version, i64>,
    latest: Option<Version>,
    pinned: BTreeMap<Version, bool>,
}

impl BlockModel {
    fn publish(&mut self, v: Version, producer: i64, keep: u64) {
        // Pinned versions are immutable resilient inputs.
        if self.pinned.get(&v).copied().unwrap_or(false) {
            return;
        }
        let is_new_latest = self.latest.map(|l| v > l).unwrap_or(true);
        let recovery_resident = !is_new_latest && !self.resident.contains_key(&v);
        self.producers.insert(v, producer);
        self.resident.insert(v, (producer, recovery_resident));
        if is_new_latest {
            self.latest = Some(v);
            if v >= keep {
                let out = v - keep;
                let evict = match self.resident.get(&out) {
                    Some(&(_, rr)) => !rr && !self.pinned.get(&out).copied().unwrap_or(false),
                    None => false,
                };
                if evict {
                    self.resident.remove(&out);
                }
            }
        }
    }

    fn publish_pinned(&mut self, v: Version, producer: i64) {
        if self.latest.map(|l| v > l).unwrap_or(true) {
            self.latest = Some(v);
        }
        self.producers.insert(v, producer);
        self.resident.insert(v, (producer, false));
        self.pinned.insert(v, true);
    }

    fn read(&self, v: Version) -> Result<i64, BlockError> {
        match self.resident.get(&v) {
            Some(&(producer, _)) => Ok(producer),
            None => match self.producers.get(&v) {
                Some(&producer) => Err(BlockError::Overwritten { producer }),
                None => Err(BlockError::Missing),
            },
        }
    }
}

#[derive(Debug)]
enum Op {
    Publish(Version, i64),
    Read(Version),
}

/// A script of 0..120 ops, publishes and reads equally likely.
fn ops(rng: &mut StdRng) -> Vec<Op> {
    let len = rng.random_range(0..120);
    (0..len)
        .map(|_| {
            if rng.random_bool(0.5) {
                Op::Publish(rng.random_range(0..12), rng.random_range(0..100))
            } else {
                Op::Read(rng.random_range(0..14))
            }
        })
        .collect()
}

#[test]
fn retention_matches_model() {
    const BASE: u64 = 0xB0_0000;
    // A recorded regression first: a publish over pinned v0 is ignored,
    // and the publish of v3 that slides `KeepLast(3)` past v0 must not
    // evict it.
    let recorded = (
        "the recorded case".to_string(),
        3,
        vec![Op::Publish(0, 0), Op::Publish(3, 0)],
        true,
    );
    let fresh = (BASE..BASE + 256).map(|seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        let keep = rng.random_range(1..4);
        let script = ops(&mut rng);
        (format!("seed {seed}"), keep, script, rng.random_bool(0.5))
    });
    for (case, keep, script, pin_v0) in std::iter::once(recorded).chain(fresh) {
        let store: BlockStore<i64> = BlockStore::new(1, Retention::KeepLast(keep));
        let mut model = BlockModel::default();
        if pin_v0 {
            store.publish_pinned(0, 0, vec![-1]);
            model.publish_pinned(0, nabbit_ft::blocks::RESILIENT_PRODUCER);
        }
        for op in script {
            match op {
                Op::Publish(v, p) => {
                    // Pinned version 0 stays pinned; model mirrors publish.
                    store.publish(0, v, p, vec![p]);
                    model.publish(v, p, keep);
                }
                Op::Read(v) => match (store.read(0, v), model.read(v)) {
                    (Ok(data), Ok(producer)) => {
                        // Data written by the recorded producer (pinned
                        // inputs carry the sentinel data).
                        if producer != nabbit_ft::blocks::RESILIENT_PRODUCER {
                            assert_eq!(data[0], producer, "{case}");
                        }
                    }
                    (Err(a), Err(b)) => assert_eq!(a, b, "{case}"),
                    (g, w) => panic!("{case}: store {:?} vs model {w:?}", g.map(|d| d[0])),
                },
            }
            assert_eq!(store.latest_version(0), model.latest, "{case}");
            assert_eq!(store.resident_versions(0), model.resident.len(), "{case}");
        }
    }
}

#[test]
fn keep_all_never_loses() {
    const BASE: u64 = 0xB1_0000;
    for seed in BASE..BASE + 256 {
        let script = ops(&mut StdRng::seed_from_u64(seed));
        let store: BlockStore<i64> = BlockStore::new(1, Retention::KeepAll);
        let mut published = BTreeMap::new();
        for op in script {
            if let Op::Publish(v, p) = op {
                store.publish(0, v, p, vec![p]);
                published.insert(v, p);
            }
        }
        assert_eq!(store.evictions(), 0, "seed {seed}");
        for (&v, &p) in &published {
            assert_eq!(store.read(0, v).unwrap()[0], p, "seed {seed}");
        }
    }
}

#[test]
fn poison_then_republish_clears() {
    const BASE: u64 = 0xB2_0000;
    for seed in BASE..BASE + 256 {
        // 1..8 distinct versions out of 0..10.
        let mut rng = StdRng::seed_from_u64(seed);
        let want = rng.random_range(1..8);
        let mut versions = BTreeSet::new();
        while versions.len() < want {
            versions.insert(rng.random_range(0u64..10));
        }
        let store: BlockStore<i64> = BlockStore::new(1, Retention::KeepAll);
        for &v in &versions {
            store.publish(0, v, v as i64, vec![v as i64]);
        }
        for &v in &versions {
            assert!(store.poison(0, v), "seed {seed}");
            let read = store.read(0, v);
            assert!(
                matches!(read, Err(BlockError::Poisoned { producer }) if producer == v as i64),
                "seed {seed}: expected poisoned read, got {:?}",
                read.map(|d| d[0])
            );
            // The recovered producer republished: data readable again.
            store.publish(0, v, v as i64, vec![v as i64 + 1000]);
            assert_eq!(store.read(0, v).unwrap()[0], v as i64 + 1000, "seed {seed}");
        }
    }
}

/// The retention model plus poison, as the store applies it: a resident,
/// unpinned version can be poisoned; it reads `Poisoned` (evicted or not)
/// until its producer publishes it again.
#[derive(Default)]
struct PoisonModel {
    block: BlockModel,
    poisoned: BTreeSet<Version>,
}

impl PoisonModel {
    fn publish(&mut self, v: Version, producer: i64, keep: u64) {
        if !self.block.pinned.contains_key(&v) {
            self.poisoned.remove(&v);
        }
        self.block.publish(v, producer, keep);
    }

    fn poison(&mut self, v: Version) -> bool {
        let hit = self.block.resident.contains_key(&v) && !self.block.pinned.contains_key(&v);
        if hit {
            self.poisoned.insert(v);
        }
        hit
    }

    fn read(&self, v: Version) -> Result<i64, BlockError> {
        if self.poisoned.contains(&v) {
            return Err(BlockError::Poisoned {
                producer: self.block.producers[&v],
            });
        }
        self.block.read(v)
    }
}

#[test]
fn poison_matches_model_under_reuse() {
    const BASE: u64 = 0xB3_0000;
    for seed in BASE..BASE + 256 {
        let mut rng = StdRng::seed_from_u64(seed);
        let keep = rng.random_range(1..4);
        let pin_v0 = rng.random_bool(0.5);
        let store: BlockStore<i64> = BlockStore::new(1, Retention::KeepLast(keep));
        let mut model = PoisonModel::default();
        if pin_v0 {
            store.publish_pinned(0, 0, vec![-1]);
            model
                .block
                .publish_pinned(0, nabbit_ft::blocks::RESILIENT_PRODUCER);
        }
        for _ in 0..rng.random_range(0..120) {
            match rng.random_range(0..3) {
                0 => {
                    let (v, p) = (rng.random_range(0..12), rng.random_range(0..100));
                    store.publish(0, v, p, vec![p]);
                    model.publish(v, p, keep);
                }
                1 => {
                    let v = rng.random_range(0..14);
                    assert_eq!(
                        store.poison(0, v),
                        model.poison(v),
                        "seed {seed}: poison v{v}"
                    );
                }
                _ => {
                    let v = rng.random_range(0..14);
                    match (store.read(0, v), model.read(v)) {
                        (Ok(data), Ok(producer)) => {
                            if producer != nabbit_ft::blocks::RESILIENT_PRODUCER {
                                assert_eq!(data[0], producer, "seed {seed}: read v{v}");
                            }
                        }
                        (Err(a), Err(b)) => assert_eq!(a, b, "seed {seed}: read v{v}"),
                        (g, w) => panic!(
                            "seed {seed}: read v{v}: store {:?} vs model {w:?}",
                            g.map(|d| d[0])
                        ),
                    }
                }
            }
            assert_eq!(store.latest_version(0), model.block.latest, "seed {seed}");
            assert_eq!(
                store.resident_versions(0),
                model.block.resident.len(),
                "seed {seed}"
            );
        }
    }
}
