//! Execution statistics for a task-graph run.
//!
//! The experiments of Section VI report recovery overheads and re-executed
//! task counts ("we verify the fault injection by ensuring that the number
//! of tasks recovered matches the loss of work […] intended"). These
//! counters make that verification possible: every successful compute,
//! re-execution, recovery initiation, reset, and injected fault is counted.
//!
//! Cold-path counters (recoveries, faults, resets) are process-wide
//! atomics: they move only when a fault does. The counters that fire on
//! *every graph edge* (notifications) or *every task* (computes — a
//! zero-work task is nothing but its scheduling) are [`ShardedCounter`]s —
//! cache-padded per-worker lanes selected by the worker index the engine
//! threads through, summed only at snapshot time — and never contend
//! cross-worker.

use ft_cmap::LockedMap;
use ft_steal::metrics::CachePadded;
use ft_sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of lanes in a [`ShardedCounter`]. Workers beyond this fold onto
/// existing lanes (still correct, marginally more contended).
const COUNTER_LANES: usize = 16;

/// A relaxed event counter split into cache-padded per-worker lanes.
///
/// `add` lands on the calling worker's lane, so two workers bumping the
/// same logical counter never bounce a cache line between them; `load`
/// sums the lanes (called once per run, after quiescence).
pub struct ShardedCounter {
    lanes: Box<[CachePadded<AtomicU64>]>,
}

impl Default for ShardedCounter {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardedCounter {
    /// A zeroed counter.
    pub fn new() -> Self {
        ShardedCounter {
            lanes: (0..COUNTER_LANES)
                .map(|_| CachePadded(AtomicU64::new(0)))
                .collect(),
        }
    }

    /// Increment the lane of `worker` (threads outside the pool share the
    /// last lane).
    #[inline]
    pub fn add(&self, worker: Option<usize>) {
        let lane = worker.map_or(COUNTER_LANES - 1, |w| w % COUNTER_LANES);
        // ord: Relaxed — per-lane statistics counter, summed at quiescence.
        self.lanes[lane].0.fetch_add(1, Ordering::Relaxed);
    }

    /// Sum of all lanes.
    pub fn load(&self) -> u64 {
        // ord: Relaxed — statistics read at quiescence.
        self.lanes.iter().map(|l| l.0.load(Ordering::Relaxed)).sum()
    }
}

/// Mutable counters owned by one scheduler run.
#[derive(Default)]
pub struct RunMetrics {
    /// Successful executions of user compute functions (Σ N(A)).
    /// Per-task hot path: sharded by worker.
    pub computes: ShardedCounter,
    /// Compute attempts that returned a fault.
    pub compute_faults: AtomicU64,
    /// Recoveries actually performed (`RecoverTask` bodies entered).
    pub recoveries: AtomicU64,
    /// `RecoverTaskOnce` calls suppressed because the incarnation was
    /// already being recovered (Guarantee 1 at work).
    pub recoveries_suppressed: AtomicU64,
    /// `ResetNode` invocations (task re-explored after an input fault).
    pub resets: AtomicU64,
    /// Notifications delivered (`NotifyOnce` bit-unset successes).
    /// Per-edge hot path: sharded by worker.
    pub notifications: ShardedCounter,
    /// Duplicate notifications absorbed by the bit vector (bit already 0).
    /// Per-edge hot path: sharded by worker.
    pub duplicate_notifications: ShardedCounter,
    /// Faults injected by the plan.
    pub injected: AtomicU64,
    /// Evicted-version reads (each starts a producer chain re-execution).
    pub overwrite_faults: AtomicU64,
    /// Per-task execution counts: N(A) of Section V. A [`LockedMap`]
    /// rather than the seqlock `ShardedMap`: this map is write-hot (one
    /// `update_cas` per compute) and only read after quiescence, so the
    /// lock-free read path buys nothing while its copy-on-write updates
    /// would cost an allocation per compute. (Not `std`'s `HashMap` under
    /// key-sharded mutexes: measured 4–6 % slower on `grid_wavefront`, see
    /// `ft_cmap::locked`.)
    pub exec_counts: LockedMap<u64>,
}

impl RunMetrics {
    /// Fresh, zeroed metrics.
    pub fn new() -> Self {
        RunMetrics {
            exec_counts: LockedMap::with_shards(64),
            ..Default::default()
        }
    }

    /// Record one successful compute of `key` from a thread outside any
    /// pool; see [`RunMetrics::record_compute_from`].
    pub fn record_compute(&self, key: i64) -> u64 {
        self.record_compute_from(None, key)
    }

    /// Record one successful compute of `key` executed by `worker`; returns
    /// the execution count N(key) *after* this execution.
    pub fn record_compute_from(&self, worker: Option<usize>, key: i64) -> u64 {
        self.computes.add(worker);
        self.exec_counts.update_cas(key, |cur| {
            let n = cur.copied().unwrap_or(0) + 1;
            (Some(n), n)
        })
    }

    /// Snapshot into a [`RunReport`] (without timing fields).
    pub fn snapshot(&self) -> RunReport {
        let exec: Vec<(i64, u64)> = self.exec_counts.entries();
        let distinct = exec.len() as u64;
        let total: u64 = exec.iter().map(|(_, n)| n).sum();
        let max_n = exec.iter().map(|&(_, n)| n).max().unwrap_or(0);
        RunReport {
            // ord: Relaxed throughout — snapshot of statistics counters
            // taken after the run quiesces; no cross-field ordering is
            // implied.
            computes: self.computes.load(),
            compute_faults: self.compute_faults.load(Ordering::Relaxed),
            recoveries: self.recoveries.load(Ordering::Relaxed),
            recoveries_suppressed: self.recoveries_suppressed.load(Ordering::Relaxed),
            resets: self.resets.load(Ordering::Relaxed),
            notifications: self.notifications.load(),
            duplicate_notifications: self.duplicate_notifications.load(),
            injected: self.injected.load(Ordering::Relaxed),
            overwrite_faults: self.overwrite_faults.load(Ordering::Relaxed),
            distinct_tasks_executed: distinct,
            re_executions: total - distinct,
            max_executions_one_task: max_n,
            sink_completed: false,
            elapsed: Duration::ZERO,
        }
    }
}

/// Immutable summary of one run, consumed by tests and the experiment
/// harness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// Successful compute executions (Σ N(A)).
    pub computes: u64,
    /// Compute attempts that observed a fault.
    pub compute_faults: u64,
    /// Recoveries performed.
    pub recoveries: u64,
    /// Recovery attempts suppressed by the recovery table.
    pub recoveries_suppressed: u64,
    /// `ResetNode` invocations.
    pub resets: u64,
    /// Join-counter decrements delivered.
    pub notifications: u64,
    /// Duplicate notifications absorbed by bit vectors.
    pub duplicate_notifications: u64,
    /// Faults injected.
    pub injected: u64,
    /// Evicted-version faults observed.
    pub overwrite_faults: u64,
    /// Number of distinct tasks that executed at least once.
    pub distinct_tasks_executed: u64,
    /// Σ max(0, N(A) − 1): the paper's "number of re-executed tasks".
    pub re_executions: u64,
    /// max_A N(A) — the `N` of Theorem 2.
    pub max_executions_one_task: u64,
    /// Whether the sink task reached Completed status.
    pub sink_completed: bool,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
}

impl RunReport {
    /// Human-oriented one-line summary.
    pub fn summary(&self) -> String {
        format!(
            "computes={} (distinct={}, re-exec={}), recoveries={} (+{} suppressed), \
             resets={}, faults: injected={} observed={} overwrites={}, sink={} in {:?}",
            self.computes,
            self.distinct_tasks_executed,
            self.re_executions,
            self.recoveries,
            self.recoveries_suppressed,
            self.resets,
            self.injected,
            self.compute_faults,
            self.overwrite_faults,
            self.sink_completed,
            self.elapsed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_compute_counts_per_task() {
        let m = RunMetrics::new();
        assert_eq!(m.record_compute(1), 1);
        assert_eq!(m.record_compute(1), 2);
        assert_eq!(m.record_compute(2), 1);
        let r = m.snapshot();
        assert_eq!(r.computes, 3);
        assert_eq!(r.distinct_tasks_executed, 2);
        assert_eq!(r.re_executions, 1);
        assert_eq!(r.max_executions_one_task, 2);
    }

    #[test]
    fn sharded_counter_sums_lanes() {
        let c = ShardedCounter::new();
        c.add(Some(0));
        c.add(Some(1));
        c.add(Some(COUNTER_LANES + 1)); // folds onto lane 1
        c.add(None); // non-pool thread lane
        assert_eq!(c.load(), 4);
    }

    #[test]
    fn sharded_counter_concurrent_adds() {
        let c = std::sync::Arc::new(ShardedCounter::new());
        std::thread::scope(|s| {
            for w in 0..8 {
                let c = std::sync::Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.add(Some(w));
                    }
                });
            }
        });
        assert_eq!(c.load(), 8000);
    }

    #[test]
    fn empty_metrics_snapshot() {
        let m = RunMetrics::new();
        let r = m.snapshot();
        assert_eq!(r.computes, 0);
        assert_eq!(r.re_executions, 0);
        assert_eq!(r.max_executions_one_task, 0);
        assert!(!r.sink_completed);
    }

    #[test]
    fn summary_contains_key_numbers() {
        let m = RunMetrics::new();
        m.record_compute(7);
        m.injected.store(3, Ordering::Relaxed);
        let mut r = m.snapshot();
        r.sink_completed = true;
        let s = r.summary();
        assert!(s.contains("computes=1"));
        assert!(s.contains("injected=3"));
        assert!(s.contains("sink=true"));
    }
}
