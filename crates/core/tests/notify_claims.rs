//! Mechanism test for registration order: status before claim.
//!
//! `TryInitCompute` reads the predecessor's status before it registers,
//! as Figure 2 does, and notifies the successor directly when the
//! predecessor has already computed. Only a registration that finds its
//! predecessor still `Visited` claims a notify cell. Claiming first, then
//! re-reading the status, costs one cell per edge instead: more than 10
//! per task on the fan-out DAG of `fanout/mod.rs`. The bound is checked
//! on a 1-worker `Pool` under both policies, by summing the claimed cells
//! of every descriptor after a fault-free run.

mod fanout;

use fanout::FanOut;
use ft_steal::pool::{Pool, PoolConfig};
use nabbit_ft::graph::{Key, TaskGraph};
use nabbit_ft::scheduler::{BaselineScheduler, FtScheduler};
use std::sync::Arc;

#[test]
fn claims_only_for_predecessors_not_yet_computed() {
    let g = Arc::new(FanOut::new(16, 32, 61));
    let tasks = g.tasks();
    assert!(g.edges() > 10 * tasks, "the DAG must be dense");
    let graph = || Arc::clone(&g) as Arc<dyn TaskGraph>;
    let pool = Pool::new(PoolConfig::with_threads(1));
    let keys = 0..tasks as Key;

    let base = BaselineScheduler::new(graph());
    let report = base.run(&pool);
    assert!(report.sink_completed);
    assert_eq!(report.computes, tasks, "fault-free: every task once");
    let base_claims: usize = keys
        .clone()
        .map(|k| base.desc_handle(k).expect("visited").notify.len())
        .sum();

    let ft = FtScheduler::new(graph());
    let report = ft.run(&pool);
    assert!(report.sink_completed);
    assert_eq!(report.computes, tasks, "fault-free: every task once");
    let ft_claims: usize = keys
        .map(|k| ft.desc_handle(k).expect("visited").notify.len())
        .sum();

    for (policy, claims) in [("baseline", base_claims), ("ft", ft_claims)] {
        assert!(
            claims as u64 <= tasks,
            "{policy}: {claims} cells claimed for {} edges over {tasks} tasks",
            g.edges()
        );
    }
}
