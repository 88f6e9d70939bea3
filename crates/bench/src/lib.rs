//! `ft-bench` — the experiment harness.
//!
//! The `repro` binary regenerates every table and figure of the paper's
//! evaluation (Section VI). Performance is measured in one place only,
//! the stand-alone `benchmark/` package (`BENCHMARK.json`).
//!
//! Scaled defaults: the paper's testbed was a 48-core machine running
//! ~10-minute configurations (Table I); the harness defaults reproduce the
//! same *graph shapes* at sizes that complete in seconds here, and every
//! experiment takes `--n/--b/--loss/--reps` overrides to scale up.

pub mod measure;
pub mod registry;
pub mod report;

pub use measure::{measure, Stats};
pub use registry::{make_app, AppKind, APP_KINDS};
pub use report::{ExperimentReport, Row};

use ft_apps::BenchApp;
use ft_steal::pool::Pool;
use nabbit_ft::inject::FaultPlan;
use nabbit_ft::metrics::RunReport;
use nabbit_ft::scheduler::{BaselineScheduler, FtScheduler};
use nabbit_ft::TaskGraph;
use std::sync::Arc;

/// Run the fault-tolerant scheduler over a fresh app instance.
pub fn run_ft(pool: &Pool, app: Arc<dyn BenchApp>, plan: FaultPlan) -> RunReport {
    let graph: Arc<dyn TaskGraph> = app;
    FtScheduler::with_plan(graph, Arc::new(plan)).run(pool)
}

/// Run the baseline (non-FT) scheduler over a fresh app instance.
pub fn run_baseline(pool: &Pool, app: Arc<dyn BenchApp>) -> RunReport {
    let graph: Arc<dyn TaskGraph> = app;
    BaselineScheduler::new(graph).run(pool)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_apps::AppConfig;
    use ft_steal::pool::PoolConfig;

    #[test]
    fn harness_roundtrip_all_apps() {
        let pool = Pool::new(PoolConfig::with_threads(2));
        for kind in APP_KINDS {
            let app = make_app(*kind, AppConfig::new(64, 16));
            let r = run_ft(&pool, app, FaultPlan::none());
            assert!(r.sink_completed, "{kind:?}");
            let app = make_app(*kind, AppConfig::new(64, 16));
            let r = run_baseline(&pool, app);
            assert!(r.sink_completed, "{kind:?}");
        }
    }
}
