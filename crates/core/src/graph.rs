//! The user-facing task-graph specification.
//!
//! Section III of the paper: "the fault-tolerant scheduling algorithm relies
//! on the following information from the user about the task graph": a
//! unique **task key** per task, the **sink task**, ordered **predecessor
//! and successor** functions, and a **compute** function. This module is
//! that contract.

use crate::fault::Fault;

/// Unique identifier of a task. The paper fixes `int64_t`.
pub type Key = i64;

/// The two keys no task may have. The runtime keeps them for itself: a
/// notify cell holds `i64::MIN` until its successor's key is published
/// and `i64::MIN + 1` once it is delivered, a pinned block version names
/// `i64::MIN` as its producer, and the task map's empty slot is
/// `i64::MIN`. The schedulers reject a graph that issues either key when
/// they create its descriptor.
pub const RESERVED_KEYS: [Key; 2] = [i64::MIN, i64::MIN + 1];

/// Context handed to [`TaskGraph::compute`].
///
/// Carries runtime facts a compute function may want: which incarnation
/// (life number) is executing, whether this execution is a recovery
/// re-execution, and the worker running it. Applications read/write their
/// data blocks through their own [`crate::blocks::BlockStore`]; detected
/// data faults are reported back by returning `Err` (the paper's
/// "errors are reported back to the runtime through exceptions").
#[derive(Debug, Clone, Copy)]
pub struct ComputeCtx<'a> {
    /// Life number of the incarnation being executed (1 = original).
    pub life: u64,
    /// True when this execution was started by the recovery path.
    pub is_recovery: bool,
    /// Index of the executing worker, if run on a pool worker.
    pub worker: Option<usize>,
    _marker: std::marker::PhantomData<&'a ()>,
}

impl<'a> ComputeCtx<'a> {
    /// Construct a context (used by the schedulers and the sequential
    /// executor).
    pub fn new(life: u64, is_recovery: bool, worker: Option<usize>) -> Self {
        ComputeCtx {
            life,
            is_recovery,
            worker,
            _marker: std::marker::PhantomData,
        }
    }
}

/// A dynamic task graph, specified exactly as the paper's Section III
/// requires.
///
/// Implementations must be deterministic: `predecessors`/`successors` must
/// return the same ordered lists for the same key every time (the
/// notification bit vector indexes into the ordered predecessor list), and
/// `compute` must be **stateless** — the same inputs produce the same
/// outputs (Theorem 1 relies on this).
///
/// Every key the graph issues — the sink and every predecessor — must lie
/// outside [`RESERVED_KEYS`]; a scheduler run panics, naming the key, on
/// the first task keyed `i64::MIN` or `i64::MIN + 1`.
pub trait TaskGraph: Send + Sync {
    /// The unique task that transitively depends on all others.
    fn sink(&self) -> Key;

    /// Ordered list of immediate predecessors of `key`.
    fn predecessors(&self, key: Key) -> Vec<Key>;

    /// Write the ordered predecessors of `key` into `out` (cleared first).
    ///
    /// The schedulers call this on their descriptor-creation hot path with
    /// a reused scratch buffer, so a graph that overrides it to push
    /// directly into `out` pays **zero** allocations per descriptor; the
    /// default falls back to [`TaskGraph::predecessors`] and inherits its
    /// one `Vec` per call.
    fn predecessors_into(&self, key: Key, out: &mut Vec<Key>) {
        out.clear();
        out.extend(self.predecessors(key));
    }

    /// Ordered list of immediate successors of `key`. Only consulted by the
    /// recovery path (`RecoverTask` walks successors to rebuild the notify
    /// array) and by graph analysis.
    fn successors(&self, key: Key) -> Vec<Key>;

    /// Number of immediate successors of `key` — the notify-cell capacity
    /// of its descriptor (each successor registers at most once outside
    /// recovery).
    ///
    /// The schedulers call this once per descriptor creation; the default
    /// materializes [`TaskGraph::successors`] and inherits its `Vec`
    /// allocation, so hot graphs should override it with a direct count.
    fn out_degree(&self, key: Key) -> usize {
        self.successors(key).len()
    }

    /// The task body. Reads this task's input data blocks, writes its
    /// output blocks. A detected fault in an input (poisoned or evicted
    /// block version) is returned as `Err(fault)` carrying the *source*
    /// task whose data is corrupt.
    fn compute(&self, key: Key, ctx: &ComputeCtx<'_>) -> Result<(), Fault>;

    /// Poison every data-block version this task has produced. Called by
    /// the fault injector when a planned fault fires on `key` ("a fault
    /// affects both a task and the data blocks it has computed"). Default:
    /// the graph has no block store.
    fn poison_outputs(&self, key: Key) {
        let _ = key;
    }

    /// Roots (tasks with no predecessors), if cheaply enumerable. Only used
    /// by diagnostics; default derives nothing.
    fn source_hint(&self) -> Option<Vec<Key>> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Line;
    impl TaskGraph for Line {
        fn sink(&self) -> Key {
            2
        }
        fn predecessors(&self, key: Key) -> Vec<Key> {
            if key == 0 {
                vec![]
            } else {
                vec![key - 1]
            }
        }
        fn successors(&self, key: Key) -> Vec<Key> {
            if key == 2 {
                vec![]
            } else {
                vec![key + 1]
            }
        }
        fn compute(&self, _key: Key, _ctx: &ComputeCtx<'_>) -> Result<(), Fault> {
            Ok(())
        }
    }

    #[test]
    fn trait_object_safe() {
        let g: Box<dyn TaskGraph> = Box::new(Line);
        assert_eq!(g.sink(), 2);
        assert_eq!(g.predecessors(2), vec![1]);
        assert_eq!(g.successors(0), vec![1]);
        let mut scratch = vec![99, 98];
        g.predecessors_into(2, &mut scratch);
        assert_eq!(scratch, vec![1], "default predecessors_into clears out");
        assert_eq!(g.out_degree(0), 1, "default out_degree counts successors");
        assert_eq!(g.out_degree(2), 0);
        assert!(g.source_hint().is_none());
        g.poison_outputs(0); // default no-op
    }

    #[test]
    fn compute_ctx_fields() {
        let ctx = ComputeCtx::new(3, true, Some(7));
        assert_eq!(ctx.life, 3);
        assert!(ctx.is_recovery);
        assert_eq!(ctx.worker, Some(7));
    }
}
