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
//!
//! Per-task execution counts — N(A) of Section V — are not kept here.
//! Each fault-tolerant incarnation counts its own computes
//! (`FtDesc::execs`), and [`RunMetrics::snapshot`] derives the report's
//! per-task fields from `computes` and N(A) over the recovery table's
//! keys: a task that never entered recovery ran at most once. A fault-free
//! run, and every baseline run, therefore keeps no per-task statistics at
//! all.

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
}

impl RunMetrics {
    /// Fresh, zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one successful compute from a thread outside any pool.
    /// `_key` is unused: per-task counts N(A) live in the fault-tolerant
    /// descriptor (`FtDesc::execs`), not here.
    pub fn record_compute(&self, _key: i64) {
        self.computes.add(None);
    }

    /// Snapshot into a [`RunReport`] (without timing fields).
    ///
    /// `recovered` yields N(A) for each key of the recovery table `R`.
    /// Every other task has one incarnation that ran at most once, so the
    /// per-task fields follow from `computes`: with `S` = Σ `recovered`,
    /// the tasks outside `R` that ran number `computes − S`.
    pub fn snapshot(&self, recovered: impl IntoIterator<Item = u64>) -> RunReport {
        let computes = self.computes.load();
        let (mut sum, mut ran, mut max_n) = (0u64, 0u64, 0u64);
        for n in recovered {
            sum += n;
            ran += u64::from(n > 0);
            max_n = max_n.max(n);
        }
        // Every count in `recovered` was also counted in `computes`, so
        // `sum ≤ computes` and `ran ≤ sum`.
        let once = computes - sum;
        let distinct = once + ran;
        RunReport {
            // ord: Relaxed throughout — snapshot of statistics counters
            // taken after the run quiesces; no cross-field ordering is
            // implied.
            computes,
            compute_faults: self.compute_faults.load(Ordering::Relaxed),
            recoveries: self.recoveries.load(Ordering::Relaxed),
            recoveries_suppressed: self.recoveries_suppressed.load(Ordering::Relaxed),
            resets: self.resets.load(Ordering::Relaxed),
            notifications: self.notifications.load(),
            duplicate_notifications: self.duplicate_notifications.load(),
            injected: self.injected.load(Ordering::Relaxed),
            overwrite_faults: self.overwrite_faults.load(Ordering::Relaxed),
            distinct_tasks_executed: distinct,
            re_executions: computes - distinct,
            max_executions_one_task: max_n.max(u64::from(once > 0)),
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
        m.record_compute(1);
        m.record_compute(1);
        m.record_compute(2);
        // Task 1 went through recovery and ran twice; task 2, once.
        let r = m.snapshot([2]);
        assert_eq!(r.computes, 3);
        assert_eq!(r.distinct_tasks_executed, 2);
        assert_eq!(r.re_executions, 1);
        assert_eq!(r.max_executions_one_task, 2);
        // Without recovery every compute is a task of its own.
        let clean = m.snapshot([]);
        assert_eq!(clean.distinct_tasks_executed, 3);
        assert_eq!(clean.re_executions, 0);
        assert_eq!(clean.max_executions_one_task, 1);
        // A recovered task that never computed is not a distinct one.
        let r = m.snapshot([0, 2]);
        assert_eq!(r.distinct_tasks_executed, 2);
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
        let r = m.snapshot([]);
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
        let mut r = m.snapshot([]);
        r.sink_completed = true;
        let s = r.summary();
        assert!(s.contains("computes=1"));
        assert!(s.contains("injected=3"));
        assert!(s.contains("sink=true"));
    }
}
