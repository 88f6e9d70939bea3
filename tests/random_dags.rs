//! Property-based tests: random layered DAGs × random fault plans,
//! generated *jointly* so every sampled fault site names a task that
//! actually exists in the sampled DAG (key × phase × fires).
//!
//! The DAGs come from the seeded generator in `ft_bench::dag_gen`
//! ([`RandDag`]): the proptest strategy draws the generator's *config*
//! (layer count, max width, edge probability, structure seed) rather than
//! an ad-hoc shape, so every sampled case is a member of the same workload
//! family the deterministic campaigns use, and a failing case shrinks
//! toward a small config instead of a raw adjacency list.
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

use ft_bench::dag_gen::{DagGenConfig, RandDag};
use ft_integration::{assert_oracle_clean, traced_run_on};
use ft_steal::pool::{Pool, PoolConfig};
use nabbit_ft::graph::{Key, TaskGraph};
use nabbit_ft::inject::{FaultPlan, FaultSite, Phase};
use nabbit_ft::seq;
use nabbit_ft::trace::oracle::{check_result_equivalence, OracleMode, Violation};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

fn shared_pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool::new(PoolConfig::with_threads(4)))
}

/// Oracle: values from a sequential fault-free execution.
fn sequential_values(cfg: &DagGenConfig) -> HashMap<Key, u64> {
    let dag = RandDag::generate(cfg.clone());
    seq::run(&dag).unwrap();
    dag.all_keys()
        .into_iter()
        .map(|k| (k, dag.value_of(k).unwrap()))
        .collect()
}

/// A generator config together with a fault plan drawn over the keys of
/// the DAG that config generates.
#[derive(Debug, Clone)]
struct DagCase {
    cfg: DagGenConfig,
    sites: Vec<FaultSite>,
}

fn any_phase() -> impl Strategy<Value = Phase> {
    prop_oneof![
        Just(Phase::BeforeCompute),
        Just(Phase::AfterCompute),
        Just(Phase::AfterNotify),
    ]
}

/// Strategy over generator configs: layer count, width, edge probability
/// and structure seed are all drawn independently.
fn dag_config() -> impl Strategy<Value = DagGenConfig> {
    (2usize..7, 1usize..6, 0.05f64..0.9, any::<u64>()).prop_map(
        |(layers, max_width, edge_prob, seed)| {
            DagGenConfig::new(layers, max_width, edge_prob, seed)
        },
    )
}

/// Joint strategy: sample a generator config, then sample fault sites
/// *over the keys of the DAG it generates* — each site an independently
/// drawn (key, phase, fires ∈ 1..=max_fires) triple. Duplicate keys are
/// fine: `FaultPlan::new` keeps the last site per key (the paper injects
/// at most one fault per task).
fn dag_with_faults(max_fires: u64) -> impl Strategy<Value = DagCase> {
    dag_config().prop_flat_map(move |cfg| {
        let keys = RandDag::generate(cfg.clone()).all_keys();
        let n = keys.len();
        let site =
            (0..n, any_phase(), 1u64..max_fires + 1).prop_map(move |(i, phase, fires)| FaultSite {
                key: keys[i],
                phase,
                fires,
            });
        prop::collection::vec(site, 0..n + 1).prop_map(move |sites| DagCase {
            cfg: cfg.clone(),
            sites,
        })
    })
}

/// Run one sampled (config, fault plan) instance on the shared pool, check
/// the trace with the oracle, and return the DAG for extra per-test
/// assertions. Completion and execution-coverage
/// failures are reported as extra `Violation`s so they reach the same
/// `target/oracle-failures/` dump as G1–G6.
fn run_and_check(case: &DagCase, label: &str) -> Arc<RandDag> {
    let reference = sequential_values(&case.cfg);
    let dag = Arc::new(RandDag::generate(case.cfg.clone()));
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

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    #[test]
    fn random_dag_random_faults_same_result(case in dag_with_faults(1)) {
        run_and_check(&case, "random-dag-single-fire");
    }

    #[test]
    fn random_dag_multi_fire_faults_same_result(case in dag_with_faults(3)) {
        // fires ∈ 1..=3 exercises Guarantee 6's recursive recovery: a
        // recovered incarnation can itself fail and must be recovered at a
        // strictly larger life.
        run_and_check(&case, "random-dag-multi-fire");
    }

    #[test]
    fn random_dag_fault_free_executes_each_task_once(cfg in dag_config()) {
        let case = DagCase { cfg, sites: vec![] };
        let dag = run_and_check(&case, "random-dag-fault-free");
        let (_, _, report) = traced_run_on(
            Arc::clone(&dag) as Arc<dyn TaskGraph>,
            Arc::new(FaultPlan::none()),
            shared_pool(),
        );
        // Second, fault-free pass over an already-complete graph object:
        // fresh scheduler, so every task recomputes exactly once (P6).
        prop_assert!(report.sink_completed);
        prop_assert_eq!(report.computes as usize, dag.task_count(), "P6");
        prop_assert_eq!(report.re_executions, 0);
        prop_assert_eq!(report.recoveries, 0);
    }
}
