//! End-to-end runs of the five paper benchmarks across schedulers, thread
//! counts and fault scenarios — the integration surface the experiment
//! harness (`ft-bench`) relies on.

use ft_apps::cholesky::Cholesky;
use ft_apps::fw::Fw;
use ft_apps::lcs::Lcs;
use ft_apps::lu::Lu;
use ft_apps::sw::Sw;
use ft_apps::{AppConfig, BenchApp, VersionClass};
use ft_steal::pool::{Pool, PoolConfig};
use nabbit_ft::analysis;
use nabbit_ft::inject::{FaultPlan, Phase};
use nabbit_ft::scheduler::{BaselineScheduler, FtScheduler};
use std::sync::Arc;

fn apps(n: usize, b: usize) -> Vec<Arc<dyn BenchApp>> {
    vec![
        Arc::new(Lcs::new(AppConfig::new(n, b))),
        Arc::new(Sw::new(AppConfig::new(n, b))),
        Arc::new(Fw::new(AppConfig::new(n, b))),
        Arc::new(Lu::new(AppConfig::new(n, b))),
        Arc::new(Cholesky::new(AppConfig::new(n, b))),
    ]
}

#[test]
fn all_benchmarks_baseline_all_threads() {
    for threads in [1, 4] {
        let pool = Pool::new(PoolConfig::with_threads(threads));
        for app in apps(96, 16) {
            let report = BaselineScheduler::new(app.clone()).run(&pool);
            assert!(report.sink_completed, "{} baseline t={threads}", app.name());
            app.verify()
                .unwrap_or_else(|e| panic!("{} t={threads}: {e}", app.name()));
        }
    }
}

#[test]
fn all_benchmarks_ft_fault_free_all_threads() {
    for threads in [1, 4] {
        let pool = Pool::new(PoolConfig::with_threads(threads));
        for app in apps(96, 16) {
            let report = FtScheduler::new(app.clone()).run(&pool);
            assert!(report.sink_completed, "{} ft t={threads}", app.name());
            assert_eq!(report.re_executions, 0, "{}", app.name());
            app.verify()
                .unwrap_or_else(|e| panic!("{} t={threads}: {e}", app.name()));
        }
    }
}

#[test]
fn ft_and_baseline_execute_same_task_count() {
    let pool = Pool::new(PoolConfig::with_threads(4));
    for app in apps(96, 16) {
        let b = BaselineScheduler::new(app.clone()).run(&pool);
        let f = FtScheduler::new(app.clone()).run(&pool);
        assert_eq!(
            b.computes,
            f.computes,
            "{}: FT must add no executions without faults",
            app.name()
        );
    }
}

#[test]
fn all_benchmarks_survive_percent_scale_faults() {
    // The paper's "2%" scenario at test scale: 2% of tasks fail after
    // compute, on v=rand tasks.
    let pool = Pool::new(PoolConfig::with_threads(4));
    for app in apps(96, 16) {
        let cand = app.tasks_of_class(VersionClass::Rand);
        let count = (cand.len() / 50).max(1);
        let plan = Arc::new(FaultPlan::sample(&cand, count, Phase::AfterCompute, 77));
        let report = FtScheduler::with_plan(app.clone(), plan).run(&pool);
        assert!(report.sink_completed, "{}", app.name());
        assert_eq!(report.injected as usize, count, "{}", app.name());
        app.verify()
            .unwrap_or_else(|e| panic!("{}: {e}", app.name()));
    }
}

#[test]
fn all_benchmarks_survive_vlast_and_v0_faults() {
    let pool = Pool::new(PoolConfig::with_threads(4));
    for class in [VersionClass::First, VersionClass::Last] {
        for app in apps(96, 16) {
            let cand = app.tasks_of_class(class);
            let count = 3.min(cand.len());
            let plan = Arc::new(FaultPlan::sample(&cand, count, Phase::AfterCompute, 13));
            let report = FtScheduler::with_plan(app.clone(), plan).run(&pool);
            assert!(report.sink_completed, "{} {class:?}", app.name());
            app.verify()
                .unwrap_or_else(|e| panic!("{} {class:?}: {e}", app.name()));
        }
    }
}

#[test]
fn graph_stats_consistent_across_benchmarks() {
    // T from analysis equals |all_tasks()|, and the FT scheduler executes
    // exactly that many tasks fault-free.
    let pool = Pool::new(PoolConfig::with_threads(4));
    for app in apps(96, 16) {
        let stats = analysis::graph_stats(app.as_ref());
        assert_eq!(
            stats.tasks,
            app.all_tasks().len(),
            "{}: analysis vs enumeration",
            app.name()
        );
        let report = FtScheduler::new(app.clone()).run(&pool);
        assert_eq!(
            report.computes as usize,
            stats.tasks,
            "{}: executions vs tasks",
            app.name()
        );
    }
}

#[test]
fn injection_verification_reexec_matches_intent() {
    // The paper "verify[s] the fault injection by ensuring that the number
    // of tasks recovered matches the loss of work intended". For
    // after-compute faults on single-assignment LCS, re-executions match
    // the planned count exactly.
    let pool = Pool::new(PoolConfig::with_threads(4));
    let app: Arc<dyn BenchApp> = Arc::new(Lcs::new(AppConfig::new(128, 16)));
    let cand = app.all_tasks();
    let plan = Arc::new(FaultPlan::sample(&cand, 12, Phase::AfterCompute, 21));
    let report = FtScheduler::with_plan(app.clone(), plan).run(&pool);
    assert!(report.sink_completed);
    assert_eq!(report.injected, 12);
    assert_eq!(report.re_executions, 12);
    app.verify().unwrap();
}

#[test]
fn speedup_shape_sanity() {
    // Not a benchmark — just the shape: 4 threads should not be slower
    // than 1 thread by more than noise allows on a compute-heavy app.
    let app1: Arc<dyn BenchApp> = Arc::new(Fw::new(AppConfig::new(128, 32)));
    let pool1 = Pool::new(PoolConfig::with_threads(1));
    let t1 = {
        let r = FtScheduler::new(app1.clone()).run(&pool1);
        assert!(r.sink_completed);
        r.elapsed
    };
    let app4: Arc<dyn BenchApp> = Arc::new(Fw::new(AppConfig::new(128, 32)));
    let pool4 = Pool::new(PoolConfig::with_threads(4));
    let t4 = {
        let r = FtScheduler::new(app4.clone()).run(&pool4);
        assert!(r.sink_completed);
        r.elapsed
    };
    assert!(
        t4 < t1 * 3,
        "4 threads ({t4:?}) absurdly slower than 1 ({t1:?})"
    );
}

#[test]
fn degenerate_single_tile_configs() {
    // B == N: one tile per matrix — the smallest legal configuration for
    // every benchmark must still complete and verify.
    let pool = Pool::new(PoolConfig::with_threads(2));
    for app in apps(32, 32) {
        let report = FtScheduler::new(app.clone()).run(&pool);
        assert!(report.sink_completed, "{} single-tile", app.name());
        app.verify()
            .unwrap_or_else(|e| panic!("{} single-tile: {e}", app.name()));
    }
}

#[test]
fn tiny_block_configs() {
    // B = 8: many tiny tasks; stresses scheduling overhead paths.
    let pool = Pool::new(PoolConfig::with_threads(4));
    for app in apps(64, 8) {
        let cand = app.tasks_of_class(VersionClass::Rand);
        let plan = Arc::new(FaultPlan::sample(&cand, 5, Phase::AfterCompute, 3));
        let report = FtScheduler::with_plan(app.clone(), plan).run(&pool);
        assert!(report.sink_completed, "{} tiny blocks", app.name());
        app.verify()
            .unwrap_or_else(|e| panic!("{} tiny blocks: {e}", app.name()));
    }
}
