//! Integration tests for the six recovery guarantees of Section IV.
//!
//! These run the full stack — work-stealing pool, concurrent task map,
//! fault-tolerant scheduler — on a wavefront grid graph and check the
//! guarantees through the run metrics. Every run is also recorded and
//! validated by the trace oracle (Concurrent mode); an oracle violation
//! dumps the trace + fault plan as JSON under `target/oracle-failures/`.

use ft_integration::graphs::Grid;
use ft_integration::{assert_oracle_clean, traced_run_on};
use ft_steal::pool::{Pool, PoolConfig};
use nabbit_ft::graph::Key;
use nabbit_ft::inject::{FaultPlan, FaultSite, Phase};
use nabbit_ft::metrics::RunReport;
use nabbit_ft::trace::oracle::OracleMode;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

/// Run with a watchdog: Lemma 3 promises the sink completes; a hang is a
/// test failure, not a timeout of the suite. Afterwards the recorded trace
/// must satisfy the guarantee oracle.
fn run_watchdog(n: i64, threads: usize, plan: FaultPlan, secs: u64) -> RunReport {
    let g = Arc::new(Grid { n });
    let plan = Arc::new(plan);
    let (tx, rx) = mpsc::channel();
    {
        let g = Arc::clone(&g);
        let plan = Arc::clone(&plan);
        std::thread::spawn(move || {
            let pool = Pool::new(PoolConfig::with_threads(threads));
            let _ = tx.send(traced_run_on(g as _, plan, &pool));
        });
    }
    let (_, trace, report) = rx
        .recv_timeout(Duration::from_secs(secs))
        .expect("run hung: Guarantee 4 / Lemma 3 violated");
    assert_oracle_clean(
        &format!("guarantees-grid{n}x{n}-t{threads}"),
        0,
        &plan,
        g.as_ref(),
        &trace,
        &report,
        OracleMode::Concurrent,
        Vec::new(),
    );
    report
}

#[test]
fn g1_each_failure_recovered_at_most_once() {
    // 64 single faults: every observed failure recovered exactly once even
    // though many threads observe each failure.
    let keys: Vec<Key> = (0..24 * 24).collect();
    let plan = FaultPlan::sample(&keys, 64, Phase::AfterCompute, 101);
    let report = run_watchdog(24, 8, plan, 120);
    assert!(report.sink_completed);
    assert_eq!(report.injected, 64);
    assert_eq!(
        report.recoveries, 64,
        "exactly one recovery per failure (observed {} suppressed)",
        report.recoveries_suppressed
    );
}

#[test]
fn g2_status_recovered_via_fresh_incarnation() {
    // A recovered task re-executes from scratch: re-executions equal the
    // number of after-compute faults.
    let plan = FaultPlan::sample(&(0..256).collect::<Vec<_>>(), 32, Phase::AfterCompute, 7);
    let report = run_watchdog(16, 4, plan, 120);
    assert!(report.sink_completed);
    assert_eq!(report.re_executions, 32);
    assert_eq!(report.distinct_tasks_executed, 256);
}

#[test]
fn g3_join_counter_decremented_exactly_once_per_predecessor() {
    // Fault-free: notifications per task = preds + 1 (self), total
    // = edges + tasks. No duplicates should occur without faults.
    let report = run_watchdog(16, 4, FaultPlan::none(), 60);
    let tasks = 256u64;
    let edges = 2 * 16 * 15u64;
    assert_eq!(report.notifications, edges + tasks);
    assert_eq!(report.duplicate_notifications, 0);
}

#[test]
fn g3_duplicates_absorbed_under_faults() {
    // With recoveries, re-traversals cause duplicate notifications; the bit
    // vector must absorb them all and the sink must still complete.
    let plan = FaultPlan::sample(&(0..576).collect::<Vec<_>>(), 128, Phase::AfterCompute, 3);
    let report = run_watchdog(24, 8, plan, 180);
    assert!(report.sink_completed);
    assert!(
        report.notifications > 0,
        "join decrements happened: {}",
        report.notifications
    );
}

#[test]
fn g4_every_waiting_task_notified_dense_faults() {
    // Every single task fails once after compute; all must be re-notified
    // through reconstructed notify arrays.
    let keys: Vec<Key> = (0..144).collect();
    let plan = FaultPlan::new(
        keys.iter()
            .map(|&k| FaultSite::once(k, Phase::AfterCompute)),
    );
    let report = run_watchdog(12, 4, plan, 180);
    assert!(report.sink_completed);
    assert_eq!(report.injected, 144);
    assert_eq!(report.re_executions, 144);
}

#[test]
fn g6_failures_during_recovery_recursively_recovered() {
    // Tasks fail on their first THREE incarnations.
    let sites = (0..100)
        .step_by(7)
        .map(|k| FaultSite {
            key: k,
            phase: Phase::AfterCompute,
            fires: 3,
        })
        .collect::<Vec<_>>();
    let n_sites = sites.len() as u64;
    let plan = FaultPlan::new(sites);
    let report = run_watchdog(10, 4, plan, 180);
    assert!(report.sink_completed);
    assert_eq!(report.injected, 3 * n_sites);
    assert_eq!(report.re_executions, 3 * n_sites);
}

#[test]
fn before_compute_faults_lose_no_work() {
    let keys: Vec<Key> = (0..256).collect();
    let plan = FaultPlan::sample(&keys, 64, Phase::BeforeCompute, 9);
    let report = run_watchdog(16, 4, plan, 120);
    assert!(report.sink_completed);
    assert_eq!(report.injected, 64);
    assert_eq!(
        report.re_executions, 0,
        "before-compute recovery must not redo computed work"
    );
}

#[test]
fn recovery_works_at_every_thread_count() {
    for threads in [1, 2, 3, 8] {
        let keys: Vec<Key> = (0..100).collect();
        let plan = FaultPlan::sample(&keys, 25, Phase::AfterCompute, threads as u64);
        let report = run_watchdog(10, threads, plan, 120);
        assert!(report.sink_completed, "threads={threads}");
        assert_eq!(report.injected, 25, "threads={threads}");
    }
}

#[test]
fn g3_ablation_bit_vector_prevents_premature_readiness() {
    // DESIGN.md ablation #3, at the descriptor level: a task A with two
    // predecessors {P, Q}; P notifies, fails, recovers, and notifies again
    // before Q ever computes. With the bit vector, the duplicate is
    // absorbed and A stays blocked on Q. Without it (raw join decrements —
    // the baseline descriptor), the join counter would hit zero and A
    // would run with Q's input missing.
    use nabbit_ft::bitvec::Clear;
    use nabbit_ft::task::{BaseDesc, FtDesc};
    use std::sync::atomic::Ordering as O;

    const P: Key = 10;
    const Q: Key = 11;

    // FT descriptor: second notification from P is absorbed. The gate is
    // the engine's: clear the bit, and only the clear that empties its
    // word decrements the join counter (which counts non-empty words).
    let a = FtDesc::new(1, 1, &[P, Q], 1);
    let notify = |pkey: Key| -> bool {
        let ind = a.pred_index(pkey).unwrap();
        match a.bits.clear(ind) {
            Clear::Emptied => a.join.fetch_sub(1, O::AcqRel) - 1 == 0,
            Clear::Cleared | Clear::AlreadyClear { .. } => false,
        }
    };
    assert!(!notify(1), "self notification");
    assert!(!notify(P), "first P notification");
    assert!(!notify(P), "replayed P notification absorbed");
    assert_eq!(a.join.load(O::Relaxed), 1, "still waiting on Q");
    assert!(notify(Q), "Q's notification makes A ready exactly once");

    // Baseline descriptor (no bit vector): the same replay would fire A
    // prematurely — which is why the baseline scheduler cannot tolerate
    // re-notification and the FT scheduler needs Guarantee 3.
    let b = BaseDesc::new(1, &[P, Q], 1);
    let raw_notify = || b.join.fetch_sub(1, O::AcqRel) - 1 == 0;
    assert!(!raw_notify()); // self
    assert!(!raw_notify()); // P
    assert!(
        raw_notify(),
        "replayed P notification fires A with Q missing"
    );
}
