//! Seeded random layered DAG workload family.
//!
//! The five regular kernels exercise only lattice-shaped dependency
//! structure. [`ValueDag::random`] generates *irregular* fan-in/fan-out: a
//! layered Erdős–Rényi DAG — the graphs where the paper's
//! selective-recovery guarantees (notify bit vector, recovery table,
//! write-once task map) are hardest to uphold. The oracle-checked random-DAG
//! campaigns and property tests in `tests/` run it.
//!
//! Everything is a pure function of [`DagGenConfig`]: the same config
//! reproduces the identical structure, so a failing
//! `(config, fault plan, schedule seed)` triple replays exactly.
//!
//! # Structure
//!
//! * `layers` layers; layer widths drawn uniformly from `1..=max_width`.
//! * Each node draws an edge from every node of the previous layer with
//!   probability `edge_prob` (classic layered Erdős–Rényi), plus a
//!   guaranteed predecessor when the draw leaves it orphaned, plus
//!   occasional long-range edges skipping ≥ 2 layers.
//! * A synthetic sink depends on every childless node, so the whole graph
//!   is backward-reachable from the sink (NABBIT discovers the graph from
//!   the sink).
//!
//! # Data
//!
//! Every task computes a deterministic value (a hash of its predecessors'
//! values, salted with the structure seed) into a concurrent map, and
//! fired faults poison the output so later consumers observe them; result
//! equivalence against a sequential run is therefore checkable for any
//! member of the family.
//!
//! [`ValueDag::random`]: crate::graphs::ValueDag::random

/// Full description of one random-DAG instance. Same config ⇒ same graph.
#[derive(Debug, Clone, PartialEq)]
pub struct DagGenConfig {
    /// Number of layers (≥ 1).
    pub layers: usize,
    /// Maximum layer width; widths are drawn from `1..=max_width`.
    pub max_width: usize,
    /// Probability of an edge between adjacent-layer node pairs.
    pub edge_prob: f64,
    /// Structure seed: drives widths and edges.
    pub seed: u64,
}

impl DagGenConfig {
    /// Config with the given shape and seed.
    pub fn new(layers: usize, max_width: usize, edge_prob: f64, seed: u64) -> Self {
        DagGenConfig {
            layers,
            max_width,
            edge_prob,
            seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphs::ValueDag;
    use ft_steal::pool::{Pool, PoolConfig};
    use nabbit_ft::graph::TaskGraph;
    use nabbit_ft::inject::{FaultPlan, Phase};
    use nabbit_ft::scheduler::{BaselineScheduler, FtScheduler};
    use nabbit_ft::seq;
    use std::sync::Arc;

    fn cfg(seed: u64) -> DagGenConfig {
        DagGenConfig::new(8, 6, 0.35, seed)
    }

    #[test]
    fn same_config_same_graph() {
        let a = ValueDag::random(&cfg(42));
        let b = ValueDag::random(&cfg(42));
        assert_eq!(a.task_count(), b.task_count());
        for k in a.all_keys() {
            assert_eq!(a.predecessors(k), b.predecessors(k));
        }
    }

    #[test]
    fn hot_path_overrides_match_defaults() {
        let shapes: [&[usize]; 3] = [&[4, 6, 3], &[1, 8, 8, 2], &[5, 1, 5, 1, 5]];
        let dags = std::iter::once(ValueDag::random(&cfg(42)))
            .chain(shapes.iter().map(|w| ValueDag::generate(w, 0xC0FFEE)));
        let mut buf = Vec::new();
        for d in dags {
            for k in d.all_keys() {
                d.predecessors_into(k, &mut buf);
                assert_eq!(buf, d.predecessors(k));
                assert_eq!(d.out_degree(k), d.successors(k).len());
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = ValueDag::random(&cfg(1));
        let b = ValueDag::random(&cfg(2));
        let differs = a.task_count() != b.task_count()
            || a.all_keys()
                .iter()
                .any(|&k| a.predecessors(k) != b.predecessors(k));
        assert!(differs, "two seeds produced the identical graph");
    }

    #[test]
    fn structure_is_a_layered_dag() {
        for seed in 0..20 {
            let d = ValueDag::random(&cfg(seed));
            let sink = d.sink();
            for k in d.all_keys() {
                for p in d.predecessors(k) {
                    assert!(p < k, "edges point forward: {p} -> {k}");
                    assert!(d.successors(p).contains(&k), "succ list of {p} missing {k}");
                }
                if k != sink && d.successors(k).is_empty() {
                    panic!("childless inner node {k} not wired to the sink");
                }
            }
            // Every non-source inner node has at least one predecessor.
            let sources: usize = d
                .all_keys()
                .iter()
                .filter(|&&k| k != sink && d.predecessors(k).is_empty())
                .count();
            assert!(sources >= 1, "at least layer 0 is source-only");
        }
    }

    #[test]
    fn every_task_backward_reachable_from_sink() {
        let d = ValueDag::random(&cfg(7));
        let mut seen = vec![false; d.task_count()];
        let mut stack = vec![d.sink()];
        seen[d.sink() as usize] = true;
        while let Some(k) = stack.pop() {
            for p in d.predecessors(k) {
                if !seen[p as usize] {
                    seen[p as usize] = true;
                    stack.push(p);
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "unreachable tasks exist");
    }

    #[test]
    fn sequential_run_produces_values() {
        let d = ValueDag::random(&cfg(3));
        seq::run(&d).unwrap();
        for k in d.all_keys() {
            assert!(d.value_of(k).is_some(), "task {k} has no value");
        }
    }

    #[test]
    fn both_engines_run_it_and_values_match_seq() {
        let reference = {
            let d = ValueDag::random(&cfg(5));
            seq::run(&d).unwrap();
            d.all_keys()
                .iter()
                .map(|&k| (k, d.value_of(k).unwrap()))
                .collect::<std::collections::HashMap<_, _>>()
        };
        let pool = Pool::new(PoolConfig::with_threads(4));

        let d = Arc::new(ValueDag::random(&cfg(5)));
        let r = BaselineScheduler::new(Arc::clone(&d) as _).run(&pool);
        assert!(r.sink_completed);
        for k in d.all_keys() {
            assert_eq!(d.value_of(k), reference.get(&k).copied(), "baseline {k}");
        }

        let d = Arc::new(ValueDag::random(&cfg(5)));
        let keys = d.all_keys();
        let plan = Arc::new(FaultPlan::sample(&keys, 5, Phase::AfterCompute, 77));
        let r = FtScheduler::with_plan(Arc::clone(&d) as _, plan).run(&pool);
        assert!(r.sink_completed);
        assert_eq!(r.injected, 5);
        for k in d.all_keys() {
            assert_eq!(d.value_of(k), reference.get(&k).copied(), "ft {k}");
        }
    }
}
