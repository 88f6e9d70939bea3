//! Execution tracing: an optional, low-overhead event recorder for the
//! fault-tolerant scheduler.
//!
//! A [`Trace`] collects timestamped scheduler events (task lifecycle,
//! fault observations, recovery actions). It exists for three reasons:
//! debugging concurrent recovery is hopeless without an event log; tests
//! assert causal orderings on it (a task never computes before its
//! predecessors, recoveries per incarnation are unique); and the experiment
//! harness can dump traces for post-mortem inspection of fault campaigns.
//!
//! Recording is append-only into per-worker shards — the scheduler engine
//! passes the executor's worker index to [`Trace::record_from`], so two
//! workers never contend on the same shard lock. Every engine event is
//! emitted from a job, which knows its worker index; only a thread outside
//! any executor (a test) records with `None`, into the last shard.

use crate::fault::FaultKind;
use crate::graph::Key;
use crate::inject::Phase;
use ft_sync::atomic::{AtomicU64, Ordering};
use parking_lot::Mutex;
use std::time::Instant;

pub mod oracle;

/// One scheduler event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// Task inserted into the task map (first incarnation).
    Inserted {
        /// Task key.
        key: Key,
    },
    /// A compute execution finished successfully.
    Computed {
        /// Task key.
        key: Key,
        /// Incarnation that computed.
        life: u64,
    },
    /// Task transitioned to Completed (notify array drained).
    Completed {
        /// Task key.
        key: Key,
        /// Incarnation.
        life: u64,
    },
    /// A notification was delivered: the bit for `pred` was set, so the
    /// join counter was decremented (Guarantee 3's "exactly once" side).
    Notified {
        /// Task being notified.
        key: Key,
        /// Incarnation being notified.
        life: u64,
        /// Predecessor the notification came from (`key` itself for the
        /// self-edge consumed at the end of `InitAndCompute`).
        pred: Key,
    },
    /// A duplicate notification was absorbed: the bit for `pred` was
    /// already clear, so the join counter was *not* decremented.
    DuplicateNotify {
        /// Task being notified.
        key: Key,
        /// Incarnation being notified.
        life: u64,
        /// Predecessor the duplicate came from.
        pred: Key,
    },
    /// A fault was injected by the plan.
    Injected {
        /// Task key.
        key: Key,
        /// Lifecycle point.
        phase: Phase,
    },
    /// A fault was observed by some traversal.
    FaultObserved {
        /// Task whose corruption was observed.
        source: Key,
        /// Corruption kind.
        kind: FaultKind,
    },
    /// `RecoverTask` replaced the incarnation.
    RecoveryStarted {
        /// Task key.
        key: Key,
        /// The *new* incarnation's life number.
        new_life: u64,
    },
    /// `RecoverTaskOnce` was suppressed by the recovery table.
    RecoverySuppressed {
        /// Task key.
        key: Key,
        /// The life whose failure was observed.
        life: u64,
    },
    /// `ResetNode` re-initialized a task after an input fault.
    Reset {
        /// Task key.
        key: Key,
        /// Incarnation that was reset.
        life: u64,
    },
}

/// A recorded event with a global sequence number and a timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedEvent {
    /// Global emission order (0-based). Unlike `t_ns`, sequence numbers
    /// are unique, so sorting by `seq` gives a stable total order even
    /// when two events land in the same nanosecond (which is the common
    /// case under the deterministic executor).
    pub seq: u64,
    /// Nanoseconds since the trace was created.
    pub t_ns: u64,
    /// The event.
    pub event: Event,
}

const SHARDS: usize = 16;

/// An append-only, sharded event log.
pub struct Trace {
    start: Instant,
    seq: AtomicU64,
    shards: Vec<Mutex<Vec<TimedEvent>>>,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

impl Trace {
    /// Create an empty trace.
    pub fn new() -> Self {
        Trace {
            start: Instant::now(),
            seq: AtomicU64::new(0),
            shards: (0..SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    /// Record an event from a thread outside any executor (the last
    /// shard; ordering across shards is by the global sequence number).
    pub fn record(&self, event: Event) {
        self.record_from(None, event);
    }

    /// Record an event from worker `worker`: the shard is the worker
    /// index, so pool workers never contend on a shard lock. `None`
    /// (threads outside any executor) shares the last shard, as
    /// `ShardedCounter::add(None)` shares the last lane.
    pub fn record_from(&self, worker: Option<usize>, event: Event) {
        let seq = self.seq.fetch_add(1, Ordering::SeqCst);
        let t_ns = self.start.elapsed().as_nanos() as u64;
        let shard = worker.map_or(SHARDS - 1, |w| w % SHARDS);
        self.shards[shard]
            .lock()
            .push(TimedEvent { seq, t_ns, event });
    }

    /// All events, in the total order of emission (by sequence number).
    ///
    /// Allocates exactly once: shard lengths are summed first, then each
    /// shard is copied into the pre-sized buffer under its own lock (no
    /// per-shard intermediate `Vec`s). Events recorded concurrently with
    /// the two passes may or may not appear — same snapshot semantics as
    /// before — and the buffer only grows if a shard grew in between.
    pub fn events(&self) -> Vec<TimedEvent> {
        let total: usize = self.shards.iter().map(|s| s.lock().len()).sum();
        let mut all: Vec<TimedEvent> = Vec::with_capacity(total);
        for s in &self.shards {
            all.extend_from_slice(&s.lock());
        }
        all.sort_by_key(|e| e.seq);
        all
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// True if no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events concerning one task key, in emission order.
    pub fn events_for(&self, key: Key) -> Vec<TimedEvent> {
        self.events()
            .into_iter()
            .filter(|e| match e.event {
                Event::Inserted { key: k }
                | Event::Computed { key: k, .. }
                | Event::Completed { key: k, .. }
                | Event::Notified { key: k, .. }
                | Event::DuplicateNotify { key: k, .. }
                | Event::Injected { key: k, .. }
                | Event::RecoveryStarted { key: k, .. }
                | Event::RecoverySuppressed { key: k, .. }
                | Event::Reset { key: k, .. } => k == key,
                Event::FaultObserved { source, .. } => source == key,
            })
            .collect()
    }

    /// Render a human-readable log (debugging aid).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in self.events() {
            out.push_str(&format!("#{:<6} {:>12}ns  {:?}\n", e.seq, e.t_ns, e.event));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_orders_events() {
        let t = Trace::new();
        t.record(Event::Inserted { key: 1 });
        t.record(Event::Computed { key: 1, life: 1 });
        t.record(Event::Completed { key: 1, life: 1 });
        let evs = t.events();
        assert_eq!(evs.len(), 3);
        assert!(evs.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
        assert_eq!(evs[0].event, Event::Inserted { key: 1 });
    }

    #[test]
    fn events_for_filters_by_key() {
        let t = Trace::new();
        t.record(Event::Inserted { key: 1 });
        t.record(Event::Inserted { key: 2 });
        t.record(Event::FaultObserved {
            source: 1,
            kind: FaultKind::Descriptor,
        });
        assert_eq!(t.events_for(1).len(), 2);
        assert_eq!(t.events_for(2).len(), 1);
        assert_eq!(t.events_for(3).len(), 0);
    }

    #[test]
    fn concurrent_recording() {
        let t = std::sync::Arc::new(Trace::new());
        std::thread::scope(|s| {
            for w in 0..4 {
                let t = std::sync::Arc::clone(&t);
                s.spawn(move || {
                    for i in 0..100 {
                        t.record(Event::Computed {
                            key: w * 100 + i,
                            life: 1,
                        });
                    }
                });
            }
        });
        assert_eq!(t.len(), 400);
        assert!(!t.is_empty());
    }

    #[test]
    fn events_allocates_exactly_once() {
        let t = Trace::new();
        // Spread events across every shard, unevenly.
        for w in 0..(SHARDS * 3) {
            t.record_from(Some(w % SHARDS), Event::Inserted { key: w as Key });
        }
        t.record_from(Some(0), Event::Computed { key: 0, life: 1 });
        let evs = t.events();
        assert_eq!(evs.len(), SHARDS * 3 + 1);
        assert_eq!(
            evs.capacity(),
            evs.len(),
            "events() must pre-size from the summed shard lengths, \
             not grow through per-shard collects"
        );
        assert!(evs.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn render_contains_events() {
        let t = Trace::new();
        t.record(Event::Reset { key: 7, life: 2 });
        let s = t.render();
        assert!(s.contains("Reset"));
        assert!(s.contains("key: 7"));
    }
}
