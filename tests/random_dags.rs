//! Property tests: random layered DAGs × random fault plans,
//! generated *jointly* so every sampled fault site names a task that
//! actually exists in the sampled DAG (key × phase × fires).
//!
//! The DAGs come from the seeded generator in `ft_integration::dag_gen`
//! ([`ValueDag::random`]): each case draws the generator's *config*
//! (layer count, max width, edge probability, structure seed) rather than
//! an ad-hoc shape, so every sampled case is a member of the same workload
//! family the deterministic campaigns use. Each property runs 24 cases;
//! case `i` draws from `StdRng::seed_from_u64(BASE + i)`, and a failing
//! case names that seed in its label.
//!
//! For arbitrary DAG shapes and arbitrary fault injections, the
//! fault-tolerant scheduler must (P1/Theorem 1) produce exactly the values
//! a sequential execution produces, (P2/Guarantee 1) recover each failure
//! at most once, and (P4/Lemma 3) always complete. The engine executes
//! single-ready-successor chains inline (continuation passing instead of
//! a spawn), so every sampled case also exercises the inline-chain
//! delivery path — narrow configs (`max_width = 1`) are pure chains that
//! run entirely inline. Every run is recorded and replayed through the
//! guarantee oracle; *any* failed property — an oracle violation, a wrong value, a
//! missing completion — dumps the trace and fault plan as JSON under
//! `target/oracle-failures/` (completion and coverage checks are routed
//! through the same dump as the G1–G6 checks, not bare asserts).

use ft_integration::dag_gen::DagGenConfig;
use ft_integration::graphs::ValueDag;
use ft_integration::{assert_oracle_clean, sequential_values, traced_run_on};
use ft_steal::pool::{Pool, PoolConfig};
use nabbit_ft::graph::TaskGraph;
use nabbit_ft::inject::{FaultPlan, FaultSite, Phase};
use nabbit_ft::trace::oracle::{check_result_equivalence, OracleMode, Violation};
use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};
use std::sync::{Arc, OnceLock};

fn shared_pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool::new(PoolConfig::with_threads(4)))
}

/// A generator config together with a fault plan drawn over the keys of
/// the DAG that config generates.
#[derive(Debug)]
struct DagCase {
    cfg: DagGenConfig,
    sites: Vec<FaultSite>,
}

const PHASES: [Phase; 3] = [
    Phase::BeforeCompute,
    Phase::AfterCompute,
    Phase::AfterNotify,
];

/// Draw a generator config: layer count, width, edge probability and
/// structure seed are all drawn independently.
fn dag_config(rng: &mut StdRng) -> DagGenConfig {
    let layers = rng.random_range(2..7);
    let max_width = rng.random_range(1..6);
    let edge_prob = rng.random_range(0.05..0.9);
    DagGenConfig::new(layers, max_width, edge_prob, rng.next_u64())
}

/// Joint draw: a generator config, then fault sites *over the keys of the
/// DAG it generates* — each site an independently drawn
/// (key, phase, fires ∈ 1..=max_fires) triple. Duplicate keys are fine:
/// `FaultPlan::new` keeps the last site per key (the paper injects at most
/// one fault per task).
fn dag_with_faults(rng: &mut StdRng, max_fires: u64) -> DagCase {
    let cfg = dag_config(rng);
    let keys = ValueDag::random(&cfg).all_keys();
    let n = rng.random_range(0..keys.len() + 1);
    let sites = (0..n)
        .map(|_| FaultSite {
            key: keys[rng.random_range(0..keys.len())],
            phase: PHASES[rng.random_range(0..PHASES.len())],
            fires: rng.random_range(1..max_fires + 1),
        })
        .collect();
    DagCase { cfg, sites }
}

/// Run one sampled (config, fault plan) instance on the shared pool, check
/// the trace with the oracle, and return the DAG for extra per-test
/// assertions. Completion and execution-coverage
/// failures are reported as extra `Violation`s so they reach the same
/// `target/oracle-failures/` dump as G1–G6.
fn run_and_check(case: &DagCase, label: &str) -> Arc<ValueDag> {
    let reference = sequential_values(ValueDag::random(&case.cfg));
    let dag = Arc::new(ValueDag::random(&case.cfg));
    let keys = dag.all_keys();
    let plan = Arc::new(FaultPlan::new(case.sites.iter().copied()));
    let (_, trace, report) = traced_run_on(
        Arc::clone(&dag) as Arc<dyn TaskGraph>,
        Arc::clone(&plan),
        shared_pool(),
    );
    let dag2 = Arc::clone(&dag);
    let mut extra =
        check_result_equivalence(&keys, |k| dag2.value_of(k), |k| reference.get(&k).copied());
    if !report.sink_completed {
        extra.push(Violation {
            guarantee: "completion",
            message: format!("{label}: sink did not complete (P4)"),
        });
    }
    if report.distinct_tasks_executed as usize != dag.task_count() {
        extra.push(Violation {
            guarantee: "coverage",
            message: format!(
                "{label}: {} of {} tasks executed",
                report.distinct_tasks_executed,
                dag.task_count()
            ),
        });
    }
    assert_oracle_clean(
        label,
        0, // pool schedules are not seeded; the fault plan is in the dump
        &plan,
        dag.as_ref(),
        &trace,
        &report,
        OracleMode::Concurrent,
        extra,
    );
    dag
}

#[test]
fn random_dag_random_faults_same_result() {
    const BASE: u64 = 0xA0_0000;
    for seed in BASE..BASE + 24 {
        let case = dag_with_faults(&mut StdRng::seed_from_u64(seed), 1);
        run_and_check(&case, &format!("random-dag-single-fire seed {seed}"));
    }
}

#[test]
fn random_dag_multi_fire_faults_same_result() {
    // fires ∈ 1..=3 exercises Guarantee 6's recursive recovery: a
    // recovered incarnation can itself fail and must be recovered at a
    // strictly larger life.
    const BASE: u64 = 0xA1_0000;
    for seed in BASE..BASE + 24 {
        let case = dag_with_faults(&mut StdRng::seed_from_u64(seed), 3);
        run_and_check(&case, &format!("random-dag-multi-fire seed {seed}"));
    }
}

#[test]
fn random_dag_fault_free_executes_each_task_once() {
    const BASE: u64 = 0xA2_0000;
    for seed in BASE..BASE + 24 {
        let cfg = dag_config(&mut StdRng::seed_from_u64(seed));
        let case = DagCase { cfg, sites: vec![] };
        let dag = run_and_check(&case, &format!("random-dag-fault-free seed {seed}"));
        let (_, _, report) = traced_run_on(
            Arc::clone(&dag) as Arc<dyn TaskGraph>,
            Arc::new(FaultPlan::none()),
            shared_pool(),
        );
        // Second, fault-free pass over an already-complete graph object:
        // fresh scheduler, so every task recomputes exactly once (P6).
        assert!(report.sink_completed, "seed {seed}");
        assert_eq!(
            report.computes as usize,
            dag.task_count(),
            "seed {seed}: P6"
        );
        assert_eq!(report.re_executions, 0, "seed {seed}");
        assert_eq!(report.recoveries, 0, "seed {seed}");
    }
}
