//! Deadline accounting for priority-scheduling experiments.
//!
//! Those experiments compare FIFO and priority pop orders by the
//! **deadline-miss rate** of a random DAG's hard tasks under fault
//! injection. The scheduler itself has no notion of deadlines; it only
//! reports, per task, *when* the first incarnation completed. This module
//! is that probe: a [`DeadlineMonitor`] handed to the engine via
//! [`SchedOpts`](crate::scheduler::SchedOpts) records a
//! [`CompletionStamp`] the moment a task's `Completed` event is emitted.
//!
//! Two clocks are recorded per completion:
//!
//! * `nanos` — wall-clock nanoseconds since the monitor was created.
//!   Meaningful on the real pool: a harness compares it with the task's
//!   deadline.
//! * `seq` — the task's position in the global completion order (0-based).
//!   Unlike wall time this is **deterministic** on the seeded `DetPool`,
//!   so the campaign tests can assert that breaking the priority function
//!   measurably regresses hard-task completion positions, replayable by
//!   seed.
//!
//! Only the *first* completion of a key is recorded (`insert_if_absent`):
//! recovery may complete later incarnations of the same key, but the
//! deadline question is "when did this task's result first become
//! available to consumers".

use crate::graph::Key;
use ft_cmap::ShardedMap;
use ft_sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// When one task first completed, on both clocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletionStamp {
    /// Nanoseconds from [`DeadlineMonitor`] creation to first completion.
    pub nanos: u64,
    /// 0-based position of this completion in the run's completion order.
    pub seq: u64,
}

/// Records first-completion times for every task of one run.
///
/// Create one per run, pass it to the scheduler through
/// [`SchedOpts`](crate::scheduler::SchedOpts), and query it after the run
/// returns (queries during the run are racy but safe).
#[derive(Debug)]
pub struct DeadlineMonitor {
    start: Instant,
    /// Next completion sequence number.
    seq: AtomicU64,
    completions: ShardedMap<CompletionStamp>,
}

impl Default for DeadlineMonitor {
    fn default() -> Self {
        Self::new()
    }
}

impl DeadlineMonitor {
    /// Start the clock now.
    pub fn new() -> Self {
        DeadlineMonitor {
            start: Instant::now(),
            seq: AtomicU64::new(0),
            completions: ShardedMap::new(),
        }
    }

    /// Record `key`'s completion. First call per key wins; later calls
    /// (recovered incarnations completing again) are no-ops but still
    /// consume a sequence number, keeping `seq` a true completion-order
    /// position.
    pub fn record(&self, key: Key) {
        let nanos = self.start.elapsed().as_nanos() as u64;
        // SeqCst: the counter is tiny traffic (once per completion) and a
        // total order keeps `seq` an honest global completion index.
        let seq = self.seq.fetch_add(1, Ordering::SeqCst);
        self.completions
            .insert_if_absent(key, || CompletionStamp { nanos, seq });
    }

    /// First-completion stamp of `key`, if it completed.
    pub fn stamp(&self, key: Key) -> Option<CompletionStamp> {
        self.completions.get(key)
    }

    /// Number of distinct tasks that completed.
    pub fn len(&self) -> usize {
        self.completions.len()
    }

    /// True if nothing completed yet.
    pub fn is_empty(&self) -> bool {
        self.completions.is_empty()
    }

    /// All `(key, stamp)` pairs, unordered.
    pub fn entries(&self) -> Vec<(Key, CompletionStamp)> {
        self.completions.entries()
    }

    /// Mean completion-order position of `keys` (ignoring keys that never
    /// completed). This is the deterministic campaign metric: under the
    /// priority pop order, hard tasks complete earlier in the order, so
    /// their mean position drops.
    pub fn mean_seq(&self, keys: &[Key]) -> f64 {
        let seqs: Vec<u64> = keys
            .iter()
            .filter_map(|&k| self.stamp(k))
            .map(|s| s.seq)
            .collect();
        if seqs.is_empty() {
            return f64::NAN;
        }
        seqs.iter().sum::<u64>() as f64 / seqs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_first_completion_only() {
        let m = DeadlineMonitor::new();
        m.record(7);
        let first = m.stamp(7).unwrap();
        assert_eq!(first.seq, 0);
        m.record(7);
        assert_eq!(m.stamp(7).unwrap(), first, "first completion wins");
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn seq_is_completion_order() {
        let m = DeadlineMonitor::new();
        for k in [3, 1, 4, 1, 5] {
            m.record(k);
        }
        assert_eq!(m.stamp(3).unwrap().seq, 0);
        assert_eq!(m.stamp(1).unwrap().seq, 1);
        assert_eq!(m.stamp(4).unwrap().seq, 2);
        assert_eq!(m.stamp(5).unwrap().seq, 4, "duplicate burned seq 3");
        assert_eq!(m.len(), 4);
    }

    #[test]
    fn mean_seq_over_subset() {
        let m = DeadlineMonitor::new();
        for k in 0..10 {
            m.record(k);
        }
        assert_eq!(m.mean_seq(&[0, 9]), 4.5);
        assert!(m.mean_seq(&[999]).is_nan(), "never-completed keys ignored");
        assert_eq!(m.mean_seq(&[2, 999]), 2.0);
    }

    #[test]
    fn nanos_monotone_in_seq() {
        let m = DeadlineMonitor::new();
        m.record(1);
        std::thread::sleep(std::time::Duration::from_millis(1));
        m.record(2);
        let (a, b) = (m.stamp(1).unwrap(), m.stamp(2).unwrap());
        assert!(a.nanos < b.nanos);
        assert!(a.seq < b.seq);
    }
}
