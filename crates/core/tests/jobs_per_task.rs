//! Mechanism test for the traversal's job structure: a job is one task,
//! not one edge.
//!
//! `InitAndCompute` visits a task's predecessors inline and spawns a job
//! only for each predecessor it inserts, so a fault-free run executes
//! about one job per task whatever the graph's degree. Spawning one job
//! per edge — Figure 2's `spawn TryInitCompute` translated literally onto
//! a help-first pool — costs one job per edge instead: about 16 per task
//! on the fan-out DAG of `fanout/mod.rs`. The bound is checked on a
//! 1-worker `Pool` under both policies.

mod fanout;

use fanout::FanOut;
use ft_steal::pool::{Pool, PoolConfig};
use nabbit_ft::graph::TaskGraph;
use nabbit_ft::scheduler::{BaselineScheduler, FtScheduler};
use nabbit_ft::RunReport;
use std::sync::Arc;

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
