//! Convenience builder for explicit (non-dynamic) task graphs.
//!
//! The [`TaskGraph`](crate::graph::TaskGraph) trait is designed for
//! *dynamic* graphs whose structure is a function of the key (the paper's
//! target). For small or irregular graphs known up front — tests, glue
//! pipelines, teaching examples — [`GraphBuilder`] assembles an
//! [`ExplicitGraph`] from nodes and edges, deriving ordered
//! predecessor/successor lists and validating acyclicity and the
//! unique-sink requirement at build time.
//!
//! ```
//! use nabbit_ft::builder::GraphBuilder;
//! use nabbit_ft::scheduler::FtScheduler;
//! use ft_steal::pool::{Pool, PoolConfig};
//! use std::sync::Arc;
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! let hits = Arc::new(AtomicU64::new(0));
//! let h = Arc::clone(&hits);
//! let graph = GraphBuilder::new()
//!     .task(0, {
//!         let h = Arc::clone(&h);
//!         move |_k, _ctx| { h.fetch_add(1, Ordering::Relaxed); Ok(()) }
//!     })
//!     .task(1, {
//!         let h = Arc::clone(&h);
//!         move |_k, _ctx| { h.fetch_add(10, Ordering::Relaxed); Ok(()) }
//!     })
//!     .edge(0, 1)
//!     .build()
//!     .unwrap();
//!
//! let pool = Pool::new(PoolConfig::with_threads(2));
//! let report = FtScheduler::new(Arc::new(graph)).run(&pool);
//! assert!(report.sink_completed);
//! assert_eq!(hits.load(Ordering::Relaxed), 11);
//! ```

use crate::fault::Fault;
use crate::graph::{ComputeCtx, Key, TaskGraph};
use std::collections::HashMap;

/// Boxed compute callback.
pub type ComputeFn = Box<dyn Fn(Key, &ComputeCtx<'_>) -> Result<(), Fault> + Send + Sync>;

/// Errors detected while assembling an [`ExplicitGraph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// An edge references a key with no registered task.
    UnknownKey(Key),
    /// The same task key was registered twice.
    DuplicateKey(Key),
    /// The same edge was added twice (would corrupt the ordered pred list).
    DuplicateEdge(Key, Key),
    /// The graph has no tasks.
    Empty,
    /// The graph has a cycle (detected via Kahn's algorithm).
    Cyclic,
    /// More than one task has no outgoing edges; the scheduler needs a
    /// unique sink. The offending keys are listed.
    MultipleSinks(Vec<Key>),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::UnknownKey(k) => write!(f, "edge references unknown task {k}"),
            BuildError::DuplicateKey(k) => write!(f, "task {k} registered twice"),
            BuildError::DuplicateEdge(a, b) => write!(f, "duplicate edge {a} -> {b}"),
            BuildError::Empty => write!(f, "graph has no tasks"),
            BuildError::Cyclic => write!(f, "graph has a dependence cycle"),
            BuildError::MultipleSinks(ks) => write!(f, "multiple sinks: {ks:?}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Incrementally assembles an [`ExplicitGraph`].
#[derive(Default)]
pub struct GraphBuilder {
    computes: HashMap<Key, ComputeFn>,
    preds: HashMap<Key, Vec<Key>>,
    succs: HashMap<Key, Vec<Key>>,
    order: Vec<Key>,
    dup_key: Option<Key>,
    dup_edge: Option<(Key, Key)>,
    unknown: Option<Key>,
}

impl GraphBuilder {
    /// Empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a task with its compute callback.
    pub fn task<F>(mut self, key: Key, compute: F) -> Self
    where
        F: Fn(Key, &ComputeCtx<'_>) -> Result<(), Fault> + Send + Sync + 'static,
    {
        if self.computes.insert(key, Box::new(compute)).is_some() {
            self.dup_key.get_or_insert(key);
        } else {
            self.preds.entry(key).or_default();
            self.succs.entry(key).or_default();
            self.order.push(key);
        }
        self
    }

    /// Register a no-op task (pure synchronization node).
    pub fn noop(self, key: Key) -> Self {
        self.task(key, |_, _| Ok(()))
    }

    /// Add a dependence `from → to` (`to` consumes `from`'s output).
    pub fn edge(mut self, from: Key, to: Key) -> Self {
        if !self.computes.contains_key(&from) {
            self.unknown.get_or_insert(from);
            return self;
        }
        if !self.computes.contains_key(&to) {
            self.unknown.get_or_insert(to);
            return self;
        }
        let preds = self.preds.entry(to).or_default();
        if preds.contains(&from) {
            self.dup_edge.get_or_insert((from, to));
            return self;
        }
        preds.push(from);
        self.succs.entry(from).or_default().push(to);
        self
    }

    /// Validate and build.
    pub fn build(self) -> Result<ExplicitGraph, BuildError> {
        if let Some(k) = self.dup_key {
            return Err(BuildError::DuplicateKey(k));
        }
        if let Some((a, b)) = self.dup_edge {
            return Err(BuildError::DuplicateEdge(a, b));
        }
        if let Some(k) = self.unknown {
            return Err(BuildError::UnknownKey(k));
        }
        if self.computes.is_empty() {
            return Err(BuildError::Empty);
        }
        // Unique sink.
        let mut sinks: Vec<Key> = self
            .order
            .iter()
            .copied()
            .filter(|k| self.succs[k].is_empty())
            .collect();
        sinks.sort_unstable();
        let sink = match sinks.as_slice() {
            [one] => *one,
            _ => return Err(BuildError::MultipleSinks(sinks)),
        };
        // Acyclicity via Kahn.
        let mut indeg: HashMap<Key, usize> =
            self.preds.iter().map(|(&k, p)| (k, p.len())).collect();
        let mut ready: Vec<Key> = indeg
            .iter()
            .filter(|(_, &d)| d == 0)
            .map(|(&k, _)| k)
            .collect();
        let mut seen = 0usize;
        while let Some(k) = ready.pop() {
            seen += 1;
            for &s in &self.succs[&k] {
                let d = indeg.get_mut(&s).expect("registered");
                *d -= 1;
                if *d == 0 {
                    ready.push(s);
                }
            }
        }
        if seen != self.computes.len() {
            return Err(BuildError::Cyclic);
        }
        Ok(ExplicitGraph {
            computes: self.computes,
            preds: self.preds,
            succs: self.succs,
            sink,
        })
    }
}

/// A fully materialized task graph built by [`GraphBuilder`].
pub struct ExplicitGraph {
    computes: HashMap<Key, ComputeFn>,
    preds: HashMap<Key, Vec<Key>>,
    succs: HashMap<Key, Vec<Key>>,
    sink: Key,
}

impl ExplicitGraph {
    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.computes.len()
    }

    /// True if the graph has no tasks (never: `build` rejects empty).
    pub fn is_empty(&self) -> bool {
        self.computes.is_empty()
    }

    /// All task keys, in registration order lost — sorted.
    pub fn keys(&self) -> Vec<Key> {
        let mut v: Vec<Key> = self.computes.keys().copied().collect();
        v.sort_unstable();
        v
    }
}

impl TaskGraph for ExplicitGraph {
    fn sink(&self) -> Key {
        self.sink
    }

    fn predecessors(&self, key: Key) -> Vec<Key> {
        self.preds.get(&key).cloned().unwrap_or_default()
    }

    fn predecessors_into(&self, key: Key, out: &mut Vec<Key>) {
        out.clear();
        out.extend_from_slice(self.preds.get(&key).map_or(&[], Vec::as_slice));
    }

    fn successors(&self, key: Key) -> Vec<Key> {
        self.succs.get(&key).cloned().unwrap_or_default()
    }

    fn out_degree(&self, key: Key) -> usize {
        self.succs.get(&key).map_or(0, Vec::len)
    }

    fn compute(&self, key: Key, ctx: &ComputeCtx<'_>) -> Result<(), Fault> {
        (self.computes.get(&key).expect("registered task"))(key, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::{FaultPlan, Phase};
    use crate::scheduler::FtScheduler;
    use ft_steal::pool::{Pool, PoolConfig};
    use ft_sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn diamond() -> GraphBuilder {
        GraphBuilder::new()
            .noop(0)
            .noop(1)
            .noop(2)
            .noop(3)
            .edge(0, 1)
            .edge(0, 2)
            .edge(1, 3)
            .edge(2, 3)
    }

    #[test]
    fn scratch_callbacks_match_list_callbacks() {
        let g = diamond().noop(4).edge(0, 4).edge(4, 3).build().unwrap();
        let mut scratch = vec![-1; 3]; // stale content the callback must clear
        for k in crate::seq::discover(&g) {
            g.predecessors_into(k, &mut scratch);
            assert_eq!(scratch, g.predecessors(k), "predecessors of {k}");
            assert_eq!(g.out_degree(k), g.successors(k).len(), "out-degree of {k}");
        }
        assert_eq!(g.out_degree(99), 0, "unknown keys have no successors");
    }

    #[test]
    fn builds_and_answers_structure() {
        let g = diamond().build().unwrap();
        assert_eq!(g.sink(), 3);
        assert_eq!(g.len(), 4);
        assert_eq!(g.predecessors(3), vec![1, 2]);
        assert_eq!(g.successors(0), vec![1, 2]);
        assert_eq!(g.keys(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(GraphBuilder::new().build().err(), Some(BuildError::Empty));
    }

    #[test]
    fn rejects_duplicate_key() {
        let err = GraphBuilder::new().noop(1).noop(1).build().err();
        assert_eq!(err, Some(BuildError::DuplicateKey(1)));
    }

    #[test]
    fn rejects_duplicate_edge() {
        let err = GraphBuilder::new()
            .noop(0)
            .noop(1)
            .edge(0, 1)
            .edge(0, 1)
            .build()
            .err();
        assert_eq!(err, Some(BuildError::DuplicateEdge(0, 1)));
    }

    #[test]
    fn rejects_unknown_edge_endpoint() {
        let err = GraphBuilder::new().noop(0).edge(0, 9).build().err();
        assert_eq!(err, Some(BuildError::UnknownKey(9)));
    }

    #[test]
    fn rejects_cycle() {
        let err = GraphBuilder::new()
            .noop(0)
            .noop(1)
            .noop(2)
            .edge(0, 1)
            .edge(1, 0)
            .edge(1, 2)
            .build()
            .err();
        assert_eq!(err, Some(BuildError::Cyclic));
    }

    #[test]
    fn rejects_multiple_sinks() {
        let err = GraphBuilder::new()
            .noop(0)
            .noop(1)
            .noop(2)
            .edge(0, 1)
            .edge(0, 2)
            .build()
            .err();
        assert_eq!(err, Some(BuildError::MultipleSinks(vec![1, 2])));
    }

    #[test]
    fn runs_on_ft_scheduler_with_faults() {
        let sum = Arc::new(AtomicU64::new(0));
        let mut b = GraphBuilder::new();
        for k in 0..10i64 {
            let s = Arc::clone(&sum);
            b = b.task(k, move |key, _| {
                s.fetch_add(1 << key, Ordering::Relaxed);
                Ok(())
            });
        }
        // A chain 0 -> 1 -> ... -> 9.
        for k in 0..9i64 {
            b = b.edge(k, k + 1);
        }
        let g = Arc::new(b.build().unwrap());
        let pool = Pool::new(PoolConfig::with_threads(2));
        let plan = Arc::new(FaultPlan::sample(
            &(0..10).collect::<Vec<_>>(),
            4,
            Phase::AfterCompute,
            1,
        ));
        let report = FtScheduler::with_plan(g, plan).run(&pool);
        assert!(report.sink_completed);
        // Re-executions double-count some bits; the *distinct* work is full.
        assert_eq!(report.distinct_tasks_executed, 10);
    }

    #[test]
    fn display_of_errors() {
        assert!(format!("{}", BuildError::Cyclic).contains("cycle"));
        assert!(format!("{}", BuildError::UnknownKey(5)).contains('5'));
        assert!(format!("{}", BuildError::MultipleSinks(vec![1, 2])).contains("[1, 2]"));
    }
}
