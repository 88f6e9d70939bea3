//! Fault-injection campaigns (Section VI methodology).
//!
//! "To simulate faults, we a priori identify the tasks that would fail and
//! the point in their lifetimes where they would fail. When a fault is
//! injected, a flag is set to mark the fault, which is then observed by a
//! thread accessing that task."
//!
//! A [`FaultPlan`] is that a-priori identification: a set of task keys,
//! each with a lifecycle [`Phase`] and a fire budget (1 for the paper's
//! experiments; >1 exercises Guarantee 6 — failures during recovery are
//! recursively recovered). The fault-tolerant scheduler consults the plan
//! at each lifecycle point; a firing site poisons the task descriptor and
//! the task's output block versions.

use crate::graph::Key;
use ft_sync::atomic::{AtomicU64, Ordering};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The point in a task's lifetime at which a planned fault fires
/// (Section VI, "Time": before compute, after compute, after notify).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Task has traversed its predecessors and is waiting to be scheduled;
    /// no computed work is lost.
    BeforeCompute,
    /// Task computed but has not yet notified successors; its computation
    /// is lost and must be redone.
    AfterCompute,
    /// Task finished notifying successors; the fault is observed only if a
    /// later consumer still needs this task's descriptor or data.
    AfterNotify,
}

/// One planned fault site.
#[derive(Debug, Clone, Copy)]
pub struct FaultSite {
    /// Task to fail.
    pub key: Key,
    /// Lifecycle point at which to fail it.
    pub phase: Phase,
    /// How many lifecycle passages fire (1 = fail once; k = also fail the
    /// first k−1 recovery incarnations, exercising recursive recovery).
    pub fires: u64,
}

impl FaultSite {
    /// A classic single-shot fault.
    pub fn once(key: Key, phase: Phase) -> Self {
        FaultSite {
            key,
            phase,
            fires: 1,
        }
    }
}

/// Multiplicative hasher for the plan's task keys.
///
/// A faulted run consults the plan at three lifecycle points of *every*
/// task, and all but a few percent of those lookups miss. Under the default
/// SipHash a miss cost ≈24 ns — ≈4.7 ms over a 65 536-task run, more than
/// half of what the run then reported as its recovery cost — so the price
/// of the injection harness was being charged to recovery. Plan keys come
/// from the experiment that builds the plan, never from untrusted input, so
/// collision resistance buys nothing here.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    /// Trait obligation only: `Key`s hash through `write_i64`.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_i64(self.0 as i64 ^ i64::from(b));
        }
    }

    fn write_i64(&mut self, key: i64) {
        // Fibonacci hash (2^64 / φ), high half folded into the low bits the
        // table indexes by.
        let h = (key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }
}

struct SiteState {
    phase: Phase,
    /// Original fire budget (immutable; lets the plan be re-serialized).
    budget: u64,
    /// Fires left; `budget - remaining` have fired.
    remaining: AtomicU64,
}

/// An immutable set of planned fault sites with atomic fire bookkeeping.
#[derive(Default)]
pub struct FaultPlan {
    sites: HashMap<Key, SiteState, BuildHasherDefault<KeyHasher>>,
}

impl FaultPlan {
    /// A plan with no faults (the paper's "FT support, no failures" runs).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Build a plan from explicit sites. At most one site per key (the
    /// paper injects at most one fault per task); later duplicates replace
    /// earlier ones.
    pub fn new(sites: impl IntoIterator<Item = FaultSite>) -> Self {
        let mut map = HashMap::default();
        for s in sites {
            map.insert(
                s.key,
                SiteState {
                    phase: s.phase,
                    budget: s.fires,
                    remaining: AtomicU64::new(s.fires),
                },
            );
        }
        FaultPlan { sites: map }
    }

    /// Single-site convenience.
    pub fn single(key: Key, phase: Phase) -> Self {
        Self::new([FaultSite::once(key, phase)])
    }

    /// Sample `count` distinct keys from `candidates` (uniformly, seeded)
    /// and fail each once at `phase`. This is the paper's "randomly inject
    /// failures […] to effect the loss of a constant amount of work or a
    /// certain percentage of the total work".
    pub fn sample(candidates: &[Key], count: usize, phase: Phase, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut keys: Vec<Key> = candidates.to_vec();
        keys.shuffle(&mut rng);
        keys.truncate(count.min(keys.len()));
        Self::new(keys.into_iter().map(|k| FaultSite::once(k, phase)))
    }

    /// Consult the plan at a lifecycle point. Returns `true` exactly when a
    /// planned fault fires now (the caller then poisons the task).
    pub fn fire(&self, key: Key, phase: Phase) -> bool {
        let Some(site) = self.sites.get(&key) else {
            return false;
        };
        if site.phase != phase {
            return false;
        }
        // Atomically consume one fire if any remain.
        // ord: Relaxed read seeding the CAS loop; AcqRel on success so a
        // consumed budget is ordered against the fault it triggers, Relaxed
        // on failure — the budget is the only coupling and the injection
        // path never reads other shared state through it.
        let mut cur = site.remaining.load(Ordering::Relaxed);
        loop {
            if cur == 0 {
                return false;
            }
            // ord: AcqRel success — the consumed budget orders against
            // the fault it triggers; Relaxed failure — just reseed.
            match site.remaining.compare_exchange_weak(
                cur,
                cur - 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Number of planned sites.
    pub fn planned(&self) -> usize {
        self.sites.len()
    }

    /// The planned sites with their *original* fire budgets, sorted by key
    /// (deterministic order for failure reports and replay).
    pub fn sites(&self) -> Vec<FaultSite> {
        let mut v: Vec<FaultSite> = self
            .sites
            .iter()
            .map(|(&key, s)| FaultSite {
                key,
                phase: s.phase,
                fires: s.budget,
            })
            .collect();
        v.sort_unstable_by_key(|s| s.key);
        v
    }

    /// Total faults fired so far: the budget spent. Budgets are never
    /// reset: a plan is single-use, so build a fresh one per run.
    pub fn fired(&self) -> u64 {
        self.sites
            .values()
            // ord: Relaxed — statistics read after the run quiesces.
            .map(|s| s.budget - s.remaining.load(Ordering::Relaxed))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_fires() {
        let p = FaultPlan::none();
        assert!(!p.fire(1, Phase::BeforeCompute));
        assert_eq!(p.planned(), 0);
        assert_eq!(p.fired(), 0);
    }

    #[test]
    fn single_fires_once_at_matching_phase() {
        let p = FaultPlan::single(5, Phase::AfterCompute);
        assert!(!p.fire(5, Phase::BeforeCompute), "wrong phase");
        assert!(!p.fire(4, Phase::AfterCompute), "wrong key");
        assert!(p.fire(5, Phase::AfterCompute));
        assert!(!p.fire(5, Phase::AfterCompute), "budget spent");
        assert_eq!(p.fired(), 1);
    }

    #[test]
    fn multi_fire_site() {
        let p = FaultPlan::new([FaultSite {
            key: 1,
            phase: Phase::AfterCompute,
            fires: 3,
        }]);
        assert!(p.fire(1, Phase::AfterCompute));
        assert!(p.fire(1, Phase::AfterCompute));
        assert!(p.fire(1, Phase::AfterCompute));
        assert!(!p.fire(1, Phase::AfterCompute));
        assert_eq!(p.fired(), 3);
    }

    #[test]
    fn sample_is_deterministic_and_distinct() {
        let candidates: Vec<Key> = (0..100).collect();
        let keys = |seed| -> Vec<Key> {
            let plan = FaultPlan::sample(&candidates, 10, Phase::AfterCompute, seed);
            assert_eq!(plan.planned(), 10);
            plan.sites().iter().map(|s| s.key).collect()
        };
        let mut ka = keys(42);
        assert_eq!(ka, keys(42), "same seed, same sample");
        ka.dedup();
        assert_eq!(ka.len(), 10, "distinct keys");
        assert_ne!(keys(42), keys(43), "different seed differs");
    }

    #[test]
    fn sample_count_clamped_to_candidates() {
        let p = FaultPlan::sample(&[1, 2, 3], 10, Phase::BeforeCompute, 0);
        assert_eq!(p.planned(), 3);
    }

    #[test]
    fn concurrent_fire_consumes_budget_exactly() {
        use ft_sync::atomic::AtomicUsize;
        let p = std::sync::Arc::new(FaultPlan::new([FaultSite {
            key: 7,
            phase: Phase::AfterCompute,
            fires: 100,
        }]));
        let hits = std::sync::Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let p = std::sync::Arc::clone(&p);
                let hits = std::sync::Arc::clone(&hits);
                s.spawn(move || {
                    for _ in 0..1000 {
                        if p.fire(7, Phase::AfterCompute) {
                            hits.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), 100);
        assert_eq!(p.fired(), 100);
    }

    #[test]
    fn unfired_keys_tracks_observation() {
        let p = FaultPlan::new([
            FaultSite::once(1, Phase::AfterCompute),
            FaultSite::once(2, Phase::AfterCompute),
        ]);
        assert!(p.fire(1, Phase::AfterCompute));
        assert!(!p.fire(1, Phase::AfterCompute), "site 1 is spent");
        assert_eq!(p.fired(), 1);
        assert!(p.fire(2, Phase::AfterCompute), "site 2 never fired");
        assert_eq!(p.fired(), 2);
    }
}
