//! Stress tests: dense fault load, recursive failures, deep recovery
//! chains, and scheduler-infrastructure churn. These exist to shake out
//! races the unit tests' small configurations cannot reach. Every run is
//! recorded and validated by the trace oracle (Concurrent mode); an
//! oracle violation dumps the trace + fault plan as JSON under
//! `target/oracle-failures/`.

use ft_apps::fw::Fw;
use ft_apps::lu::Lu;
use ft_apps::sw::Sw;
use ft_apps::{AppConfig, BenchApp, VersionClass};
use ft_integration::dag_gen::DagGenConfig;
use ft_integration::graphs::{Chain, ValueDag};
use ft_integration::{assert_oracle_clean, traced_run_on};
use ft_steal::pool::{Pool, PoolConfig};
use nabbit_ft::fault::Fault;
use nabbit_ft::graph::{ComputeCtx, Key, TaskGraph};
use nabbit_ft::inject::{FaultPlan, FaultSite, Phase};
use nabbit_ft::trace::oracle::OracleMode;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

fn watchdog<F: FnOnce() + Send + 'static>(secs: u64, f: F) {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    rx.recv_timeout(Duration::from_secs(secs))
        .expect("stress run hung");
}

/// Traced run + oracle validation, returning the report for extra asserts.
fn checked_run(
    label: &str,
    graph: Arc<dyn TaskGraph>,
    plan: Arc<FaultPlan>,
    threads: usize,
) -> nabbit_ft::metrics::RunReport {
    let pool = Pool::new(PoolConfig::with_threads(threads));
    let (_, trace, report) = traced_run_on(Arc::clone(&graph), Arc::clone(&plan), &pool);
    assert_oracle_clean(
        label,
        0,
        &plan,
        graph.as_ref(),
        &trace,
        &report,
        OracleMode::Concurrent,
        Vec::new(),
    );
    report
}

#[test]
fn every_task_fails_three_times_sw() {
    watchdog(240, || {
        let app = Arc::new(Sw::new(AppConfig::new(64, 16)));
        let sites: Vec<FaultSite> = app
            .all_tasks()
            .into_iter()
            .map(|k| FaultSite {
                key: k,
                phase: Phase::AfterCompute,
                fires: 3,
            })
            .collect();
        let plan = Arc::new(FaultPlan::new(sites));
        let report = checked_run("stress-sw-all-fail-3x", Arc::clone(&app) as _, plan, 8);
        assert!(report.sink_completed);
        app.verify().unwrap();
    });
}

#[test]
fn mixed_phase_dense_faults_lu() {
    watchdog(240, || {
        let app = Arc::new(Lu::new(AppConfig::new(96, 16)));
        let keys = app.all_tasks();
        let sink = app.sink();
        let sites: Vec<FaultSite> = keys
            .iter()
            .enumerate()
            .filter(|&(_, &k)| k != sink)
            .map(|(i, &k)| FaultSite {
                key: k,
                phase: match i % 3 {
                    0 => Phase::BeforeCompute,
                    1 => Phase::AfterCompute,
                    _ => Phase::AfterNotify,
                },
                fires: 1,
            })
            .collect();
        let plan = Arc::new(FaultPlan::new(sites));
        let report = checked_run("stress-lu-mixed-phase", Arc::clone(&app) as _, plan, 8);
        assert!(report.sink_completed);
        let o = app.verify_detailed().unwrap();
        assert!(o.checked > 0);
        assert!(o.skipped_poisoned as u64 <= report.injected);
    });
}

#[test]
fn deep_chain_recovery_fw_single_version() {
    // KeepLast(1) + failing the last round's tasks: recovery must rebuild
    // long version chains, sequentially (the paper's worst case).
    watchdog(300, || {
        let app = Arc::new(Fw::with_single_version(AppConfig::new(96, 16))); // nb=6
        let last = app.tasks_of_class(VersionClass::Last);
        let plan = Arc::new(FaultPlan::sample(&last, 3, Phase::AfterCompute, 1234));
        let report = checked_run("stress-fw-deep-chain", Arc::clone(&app) as _, plan, 4);
        assert!(report.sink_completed);
        assert!(
            report.re_executions >= 3,
            "chains imply >= planned re-executions, got {}",
            report.re_executions
        );
        app.verify().unwrap();
    });
}

#[test]
fn long_narrow_chain_graph_with_faults() {
    // A pure chain maximizes the critical path and serial recovery.
    watchdog(180, || {
        let g = Arc::new(Chain { len: 2000 });
        let keys: Vec<Key> = (0..2000).collect();
        let plan = Arc::new(FaultPlan::sample(&keys, 200, Phase::AfterCompute, 5));
        let report = checked_run("stress-chain2000", g as _, plan, 4);
        assert!(report.sink_completed);
        assert_eq!(report.injected, 200);
        assert_eq!(report.re_executions, 200);
    });
}

#[test]
fn wide_star_graph_with_faulty_center() {
    // Sink with 2000 predecessors, all notifying concurrently, center
    // failing repeatedly: contention on one notify array + bit vector.
    struct Star {
        width: i64,
    }
    impl TaskGraph for Star {
        fn sink(&self) -> Key {
            self.width
        }
        fn predecessors(&self, k: Key) -> Vec<Key> {
            if k == self.width {
                (0..self.width).collect()
            } else {
                vec![]
            }
        }
        fn successors(&self, k: Key) -> Vec<Key> {
            if k == self.width {
                vec![]
            } else {
                vec![self.width]
            }
        }
        fn compute(&self, _: Key, _: &ComputeCtx<'_>) -> Result<(), Fault> {
            Ok(())
        }
    }
    watchdog(180, || {
        let g = Arc::new(Star { width: 2000 });
        let mut sites: Vec<FaultSite> = (0..2000)
            .step_by(17)
            .map(|k| FaultSite::once(k, Phase::AfterCompute))
            .collect();
        sites.push(FaultSite {
            key: 2000,
            phase: Phase::AfterCompute,
            fires: 4,
        });
        let plan = Arc::new(FaultPlan::new(sites));
        let report = checked_run("stress-star2000", g as _, plan, 8);
        assert!(report.sink_completed);
    });
}

#[test]
fn large_random_dag_dense_faults() {
    // A big irregular member of the dag_gen family under dense multi-fire
    // faults, on a real pool. Unlike the regular kernels there is no
    // lattice structure for bugs to hide behind — fan-in/fan-out and
    // long-range edges churn at once, and any oracle violation dumps like
    // the rest.
    watchdog(240, || {
        let cfg = DagGenConfig::new(30, 12, 0.25, 0x57E5);
        let dag = Arc::new(ValueDag::random(&cfg));
        let keys = dag.all_keys();
        let mut sites: Vec<FaultSite> = keys
            .iter()
            .step_by(3)
            .map(|&k| FaultSite::once(k, Phase::AfterCompute))
            .collect();
        // Every 10th site fires three times: recursive recovery under load.
        for site in sites.iter_mut().step_by(10) {
            site.fires = 3;
        }
        let plan = Arc::new(FaultPlan::new(sites));
        let report = checked_run("stress-randdag-dense", Arc::clone(&dag) as _, plan, 8);
        assert!(report.sink_completed);
        assert!(report.injected > 0);
        // Fresh instance + seq reference: values must match despite the
        // fault storm.
        let reference = ValueDag::random(&cfg);
        nabbit_ft::seq::run(&reference).unwrap();
        for k in dag.all_keys() {
            assert_eq!(dag.value_of(k), reference.value_of(k), "task {k}");
        }
    });
}

#[test]
fn repeated_runs_do_not_leak_state() {
    // The pool is reused across many faulted runs; per-run scheduler state
    // (maps, recovery table, traces) must be independent.
    watchdog(300, || {
        let pool = Pool::new(PoolConfig::with_threads(4));
        for round in 0..10 {
            let app = Arc::new(Sw::new(AppConfig::new(64, 16)));
            let keys = app.all_tasks();
            let plan = Arc::new(FaultPlan::sample(&keys, 4, Phase::AfterCompute, round));
            let (sched, trace, report) =
                traced_run_on(Arc::clone(&app) as _, Arc::clone(&plan), &pool);
            assert!(report.sink_completed, "round {round}");
            assert_oracle_clean(
                &format!("stress-repeated-round{round}"),
                0,
                &plan,
                app.as_ref(),
                &trace,
                &report,
                OracleMode::Concurrent,
                Vec::new(),
            );
            app.verify()
                .unwrap_or_else(|e| panic!("round {round}: {e}"));
            assert_eq!(sched.recovery_table_len(), 4, "round {round}");
        }
    });
}
