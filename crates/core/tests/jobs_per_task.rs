//! Mechanism test for the traversal's job structure: a job is one task,
//! not one edge.
//!
//! `InitAndCompute` visits a task's predecessors inline and spawns a job
//! only for each predecessor it inserts, so a fault-free run executes
//! about one job per task whatever the graph's degree. Spawning one job
//! per edge — Figure 2's `spawn TryInitCompute` translated literally onto
//! a help-first pool — costs one job per edge instead: about 16 per task
//! on the fan-out DAG below. The bound is checked on a 1-worker `Pool`
//! under both policies, on a dense layered DAG shaped like the
//! benchmark's `fanout_dag`.

use ft_steal::pool::{Pool, PoolConfig};
use nabbit_ft::fault::Fault;
use nabbit_ft::graph::{ComputeCtx, Key, TaskGraph};
use nabbit_ft::scheduler::{BaselineScheduler, FtScheduler};
use nabbit_ft::RunReport;
use std::sync::Arc;

/// Seeded layered random DAG: `layers × width` tasks, each task of layer
/// `l ≥ 1` depending on each task of layer `l − 1` with probability ½
/// (at least one), plus a sink over the last layer.
struct FanOut {
    preds: Vec<Vec<Key>>,
    succs: Vec<Vec<Key>>,
}

impl FanOut {
    fn new(layers: usize, width: usize, seed: u64) -> Self {
        let tasks = layers * width + 1;
        let mut preds = vec![Vec::new(); tasks];
        let mut rng = seed | 1;
        let mut coin = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng & 1 == 1
        };
        for l in 1..layers {
            for i in 0..width {
                let me = l * width + i;
                preds[me] = (0..width)
                    .filter(|_| coin())
                    .map(|j| ((l - 1) * width + j) as Key)
                    .collect();
                if preds[me].is_empty() {
                    preds[me].push(((l - 1) * width + i) as Key);
                }
            }
        }
        preds[tasks - 1] = (0..width)
            .map(|i| ((layers - 1) * width + i) as Key)
            .collect();
        let mut succs = vec![Vec::new(); tasks];
        for (k, ps) in preds.iter().enumerate() {
            for &p in ps {
                succs[p as usize].push(k as Key);
            }
        }
        FanOut { preds, succs }
    }

    fn tasks(&self) -> u64 {
        self.preds.len() as u64
    }

    fn edges(&self) -> u64 {
        self.preds.iter().map(|p| p.len() as u64).sum()
    }
}

impl TaskGraph for FanOut {
    fn sink(&self) -> Key {
        self.preds.len() as Key - 1
    }
    fn predecessors(&self, key: Key) -> Vec<Key> {
        self.preds[key as usize].clone()
    }
    fn predecessors_into(&self, key: Key, out: &mut Vec<Key>) {
        out.clear();
        out.extend_from_slice(&self.preds[key as usize]);
    }
    fn successors(&self, key: Key) -> Vec<Key> {
        self.succs[key as usize].clone()
    }
    fn out_degree(&self, key: Key) -> usize {
        self.succs[key as usize].len()
    }
    fn compute(&self, _key: Key, _ctx: &ComputeCtx<'_>) -> Result<(), Fault> {
        Ok(())
    }
}

fn jobs_per_task(run: impl FnOnce(&Pool) -> RunReport, tasks: u64) -> f64 {
    let pool = Pool::new(PoolConfig::with_threads(1));
    pool.reset_metrics();
    let report = run(&pool);
    assert!(report.sink_completed);
    assert_eq!(report.computes, tasks, "fault-free: every task once");
    pool.metrics().executed as f64 / tasks as f64
}

#[test]
fn one_job_per_task_not_per_edge() {
    let g = Arc::new(FanOut::new(16, 32, 61));
    let tasks = g.tasks();
    assert!(g.edges() > 10 * tasks, "the DAG must be dense");

    let base = jobs_per_task(
        |pool| BaselineScheduler::new(Arc::clone(&g) as Arc<dyn TaskGraph>).run(pool),
        tasks,
    );
    let ft = jobs_per_task(
        |pool| FtScheduler::new(Arc::clone(&g) as Arc<dyn TaskGraph>).run(pool),
        tasks,
    );
    for (policy, jobs) in [("baseline", base), ("ft", ft)] {
        assert!(
            jobs <= 2.0,
            "{policy}: {jobs:.2} jobs per task on a graph of {:.1} edges per task",
            g.edges() as f64 / tasks as f64
        );
    }
}
