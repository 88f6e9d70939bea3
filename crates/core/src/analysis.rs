//! Graph statistics and the theoretical bounds of Section V.
//!
//! * [`GraphStats`] — the Table I columns: total tasks `T`, total
//!   dependences `E`, critical path length `S` (in tasks), plus the degree
//!   bounds `d_in`, `d_out` that appear in the completion-time bound.
//! * [`work_span`] — `T1 = Σ N(A)(W(com(A)) + |out(A)|)` and
//!   `T∞ = max over paths Σ N(X) S(com(X))` for a given cost model and
//!   execution-count function `N`.
//! * [`completion_bound`] — the Theorem 2 upper bound
//!   `O(T1/P + T∞ + lg(P/ε) + N·M·d + N·L(D))` with
//!   `L(D) = (|E|/P + M) · min{d, P}`, evaluated numerically so experiments
//!   can sanity-check measured times against the theory's shape.

use crate::graph::{Key, TaskGraph};
use crate::seq::topo_order;
use std::collections::HashMap;

/// Structural statistics of a task graph (Table I).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphStats {
    /// Total number of tasks `T`.
    pub tasks: usize,
    /// Total number of dependences `E`.
    pub edges: usize,
    /// Critical path length `S`: number of tasks on the longest
    /// root-to-sink path.
    pub critical_path: usize,
    /// Maximum in-degree over all tasks.
    pub max_in_degree: usize,
    /// Maximum out-degree over all tasks.
    pub max_out_degree: usize,
}

impl GraphStats {
    /// The degree bound `d` of Theorem 2 (max of in- and out-degree).
    pub fn max_degree(&self) -> usize {
        self.max_in_degree.max(self.max_out_degree)
    }

    /// Average available parallelism `T/S` — a rough upper bound on useful
    /// cores for unit-cost tasks.
    pub fn avg_parallelism(&self) -> f64 {
        self.tasks as f64 / self.critical_path.max(1) as f64
    }
}

/// Compute [`GraphStats`] by full traversal from the sink.
pub fn graph_stats(graph: &dyn TaskGraph) -> GraphStats {
    let order = topo_order(graph);
    let index: HashMap<Key, usize> = order.iter().enumerate().map(|(i, &k)| (k, i)).collect();
    let mut edges = 0usize;
    let mut max_in = 0usize;
    let mut max_out = 0usize;
    // depth[k] = tasks on the longest path ending at k (inclusive).
    let mut depth = vec![1usize; order.len()];
    let mut critical = 0usize;
    for (i, &k) in order.iter().enumerate() {
        let preds = graph.predecessors(k);
        edges += preds.len();
        max_in = max_in.max(preds.len());
        max_out = max_out.max(graph.successors(k).len());
        for p in preds {
            let pd = depth[index[&p]];
            if pd + 1 > depth[i] {
                depth[i] = pd + 1;
            }
        }
        critical = critical.max(depth[i]);
    }
    GraphStats {
        tasks: order.len(),
        edges,
        critical_path: critical,
        max_in_degree: max_in,
        max_out_degree: max_out,
    }
}

/// `T1` and `T∞` for a cost model `cost(key)` (the work `W(com(A))`, with
/// span assumed equal to work — our kernels are sequential within a task)
/// and an execution-count function `n_of(key) = N(A)`.
///
/// `T1 = Σ_A N(A) · (cost(A) + |out(A)|)` — each execution also pays one
/// unit per successor for the notify scan (Section V-D).
/// `T∞ = max over root→sink paths of Σ_X N(X) · cost(X)`.
pub fn work_span(
    graph: &dyn TaskGraph,
    cost: impl Fn(Key) -> f64,
    n_of: impl Fn(Key) -> f64,
) -> (f64, f64) {
    let order = topo_order(graph);
    let index: HashMap<Key, usize> = order.iter().enumerate().map(|(i, &k)| (k, i)).collect();
    let mut t1 = 0.0f64;
    let mut span_to = vec![0.0f64; order.len()];
    let mut t_inf = 0.0f64;
    for (i, &k) in order.iter().enumerate() {
        let n = n_of(k);
        let c = cost(k);
        t1 += n * (c + graph.successors(k).len() as f64);
        let mut best_pred = 0.0f64;
        for p in graph.predecessors(k) {
            best_pred = best_pred.max(span_to[index[&p]]);
        }
        span_to[i] = best_pred + n * c;
        t_inf = t_inf.max(span_to[i]);
    }
    (t1, t_inf)
}

/// Parameters for evaluating the Theorem 2 completion-time bound.
#[derive(Debug, Clone, Copy)]
pub struct BoundParams {
    /// Processor count `P`.
    pub p: usize,
    /// Failure probability `ε` of the work-stealing bound.
    pub epsilon: f64,
    /// `N = max_A N(A)` — maximum executions of any one task.
    pub n_max: f64,
}

/// Evaluate the Theorem 2 bound (up to its hidden constant):
/// `T1/P + T∞ + lg(P/ε) + N·M·d + N·L(D)` with
/// `L(D) = (|E|/P + M)·min{d, P}`, where `M` is the maximum path length in
/// tasks and `d` the maximum degree.
pub fn completion_bound(stats: &GraphStats, t1: f64, t_inf: f64, params: &BoundParams) -> f64 {
    let p = params.p.max(1) as f64;
    let d = stats.max_degree() as f64;
    let m = stats.critical_path as f64;
    let e = stats.edges as f64;
    let l = (e / p + m) * d.min(p);
    t1 / p + t_inf + (p / params.epsilon).log2() + params.n_max * m * d + params.n_max * l
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::Fault;
    use crate::graph::ComputeCtx;

    /// n×n wavefront grid (same shape as scheduler tests).
    struct Grid {
        n: i64,
    }
    impl TaskGraph for Grid {
        fn sink(&self) -> Key {
            self.n * self.n - 1
        }
        fn predecessors(&self, k: Key) -> Vec<Key> {
            let (i, j) = (k / self.n, k % self.n);
            let mut p = Vec::new();
            if i > 0 {
                p.push((i - 1) * self.n + j);
            }
            if j > 0 {
                p.push(i * self.n + (j - 1));
            }
            p
        }
        fn successors(&self, k: Key) -> Vec<Key> {
            let (i, j) = (k / self.n, k % self.n);
            let mut s = Vec::new();
            if i + 1 < self.n {
                s.push((i + 1) * self.n + j);
            }
            if j + 1 < self.n {
                s.push(i * self.n + (j + 1));
            }
            s
        }
        fn compute(&self, _: Key, _: &ComputeCtx<'_>) -> Result<(), Fault> {
            Ok(())
        }
    }

    #[test]
    fn grid_stats() {
        let g = Grid { n: 10 };
        let s = graph_stats(&g);
        assert_eq!(s.tasks, 100);
        // Each interior task has 2 preds; first row/col have fewer:
        // E = 2*n*(n-1) = 180.
        assert_eq!(s.edges, 180);
        // Longest path: (0,0) → … → (9,9) = 19 tasks.
        assert_eq!(s.critical_path, 19);
        assert_eq!(s.max_in_degree, 2);
        assert_eq!(s.max_out_degree, 2);
        assert_eq!(s.max_degree(), 2);
        assert!((s.avg_parallelism() - 100.0 / 19.0).abs() < 1e-9);
    }

    #[test]
    fn chain_stats() {
        struct Chain;
        impl TaskGraph for Chain {
            fn sink(&self) -> Key {
                9
            }
            fn predecessors(&self, k: Key) -> Vec<Key> {
                if k == 0 {
                    vec![]
                } else {
                    vec![k - 1]
                }
            }
            fn successors(&self, k: Key) -> Vec<Key> {
                if k == 9 {
                    vec![]
                } else {
                    vec![k + 1]
                }
            }
            fn compute(&self, _: Key, _: &ComputeCtx<'_>) -> Result<(), Fault> {
                Ok(())
            }
        }
        let s = graph_stats(&Chain);
        assert_eq!(s.tasks, 10);
        assert_eq!(s.edges, 9);
        assert_eq!(s.critical_path, 10);
        assert_eq!(s.avg_parallelism(), 1.0);
    }

    #[test]
    fn work_span_unit_costs() {
        let g = Grid { n: 10 };
        let (t1, tinf) = work_span(&g, |_| 1.0, |_| 1.0);
        // T1 = Σ (1 + |out|) = 100 + 180 = 280.
        assert!((t1 - 280.0).abs() < 1e-9);
        // T∞ = critical path of unit costs = 19.
        assert!((tinf - 19.0).abs() < 1e-9);
    }

    #[test]
    fn work_span_scales_with_n() {
        let g = Grid { n: 10 };
        let (t1_once, _) = work_span(&g, |_| 1.0, |_| 1.0);
        let (t1_twice, tinf_twice) = work_span(&g, |_| 1.0, |_| 2.0);
        assert!((t1_twice - 2.0 * t1_once).abs() < 1e-9);
        assert!((tinf_twice - 38.0).abs() < 1e-9);
    }

    #[test]
    fn completion_bound_monotone_in_p_for_work_term() {
        let g = Grid { n: 32 };
        let s = graph_stats(&g);
        let (t1, tinf) = work_span(&g, |_| 100.0, |_| 1.0);
        let b1 = completion_bound(
            &s,
            t1,
            tinf,
            &BoundParams {
                p: 1,
                epsilon: 0.01,
                n_max: 1.0,
            },
        );
        let b8 = completion_bound(
            &s,
            t1,
            tinf,
            &BoundParams {
                p: 8,
                epsilon: 0.01,
                n_max: 1.0,
            },
        );
        assert!(
            b8 < b1,
            "more processors lower the bound for work-dominated graphs"
        );
    }

    #[test]
    fn bound_reduces_toward_nabbit_when_no_failures() {
        // With N = 1 the bound is the plain NABBIT bound's form; with N = 3
        // the re-execution terms triple.
        let g = Grid { n: 16 };
        let s = graph_stats(&g);
        let (t1, tinf) = work_span(&g, |_| 1.0, |_| 1.0);
        let base = BoundParams {
            p: 4,
            epsilon: 0.01,
            n_max: 1.0,
        };
        let failed = BoundParams { n_max: 3.0, ..base };
        let b0 = completion_bound(&s, t1, tinf, &base);
        let b3 = completion_bound(&s, t1, tinf, &failed);
        assert!(b3 > b0);
    }
}
