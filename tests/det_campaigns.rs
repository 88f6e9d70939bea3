//! Deterministic schedule-exploration campaigns.
//!
//! Every test here runs the FT scheduler on the seeded single-threaded
//! [`DetPool`], so each `(graph, fault plan, seed)` triple is one fully
//! replayable interleaving. The three `broken_*` tests run mutants
//! ([`ft_integration::mutants`]) and require the oracle to flag them.
//! Recorded traces are validated against the Section-IV guarantee oracle
//! in `Strict` mode (exact counting applies on a deterministic trace), and
//! failing runs dump a JSON report with the seed and fault plan under
//! `target/oracle-failures/`.

use ft_det::DetPool;
use ft_integration::dag_gen::DagGenConfig;
use ft_integration::graphs::{Chain, Grid, ValueDag};
use ft_integration::mutants::{DropOnePublish, DuplicatesDecrement, UngatedDrain};
use ft_integration::{
    assert_oracle_clean, det_traced_run, oracle_violations, phase_of, sequential_values,
};
use nabbit_ft::graph::{Key, TaskGraph};
use nabbit_ft::inject::{FaultPlan, FaultSite, Phase};
use nabbit_ft::scheduler::Engine;
use nabbit_ft::seq;
use nabbit_ft::trace::oracle::{check_result_equivalence, OracleMode};
use nabbit_ft::trace::{Event, Trace};
use std::collections::HashMap;
use std::sync::Arc;

/// A fault plan failing 0%, 25%, 50% or 75% of `keys` (by `round`), in
/// `round`'s phase.
fn round_plan(keys: &[Key], round: u64, plan_seed: u64) -> Arc<FaultPlan> {
    let count = (round as usize % 4) * keys.len() / 4;
    Arc::new(FaultPlan::sample(keys, count, phase_of(round), plan_seed))
}

/// Layer widths of the headline campaign's [`ValueDag`]s.
const SHAPES: &[&[usize]] = &[
    &[1],
    &[3, 3, 3],
    &[1, 4, 1, 4],
    &[5, 2, 5],
    &[2, 2, 2, 2, 2],
    &[6, 6],
    &[1, 1, 1, 1, 1, 1],
];
const ROUNDS_PER_SHAPE: u64 = 30;

fn shape_edges_seed(si: usize) -> u64 {
    0x5EED_0001 + si as u64 * 977
}

/// The headline campaign's `(graph, fault plan, schedule seed)` triple for
/// shape `si`, round `round`.
fn shape_triple(si: usize, round: u64) -> (Arc<ValueDag>, Arc<FaultPlan>, u64) {
    let dag = Arc::new(ValueDag::generate(SHAPES[si], shape_edges_seed(si)));
    let plan = round_plan(&dag.all_keys(), round, round.wrapping_mul(1013) + si as u64);
    (dag, plan, ((si as u64) << 32) | round)
}

/// The random-DAG campaign's configs, chosen to hit the structural
/// extremes: near-serial, bushy-sparse, dense, wide-shallow, and
/// tall-narrow.
fn randdag_configs() -> Vec<DagGenConfig> {
    [
        (3usize, 2usize, 0.5f64),
        (6, 4, 0.15),
        (4, 4, 0.8),
        (2, 6, 0.4),
        (10, 2, 0.3),
    ]
    .iter()
    .enumerate()
    .map(|(i, &(layers, width, p))| {
        DagGenConfig::new(layers, width, p, 0xDA6_5EED + i as u64 * 131)
    })
    .collect()
}
const ROUNDS_PER_CONFIG: u64 = 20;

/// The random-DAG campaign's triple for config `ci`, round `round`; `odd`
/// picks the second schedule seed of the round.
fn randdag_triple(
    ci: usize,
    cfg: &DagGenConfig,
    round: u64,
    odd: bool,
) -> (Arc<ValueDag>, Arc<FaultPlan>, u64) {
    let dag = Arc::new(ValueDag::random(cfg));
    let plan = round_plan(&dag.all_keys(), round, round.wrapping_mul(2027) + ci as u64);
    (dag, plan, ((ci as u64) << 32) | (round << 1) | odd as u64)
}

/// The headline campaign: ≥ 200 seeded (schedule × fault-plan) runs, each
/// oracle-checked and result-checked against the sequential reference.
#[test]
fn two_hundred_seeded_oracle_checked_runs() {
    let mut runs = 0u64;
    for (si, shape) in SHAPES.iter().enumerate() {
        let reference = sequential_values(ValueDag::generate(shape, shape_edges_seed(si)));
        for round in 0..ROUNDS_PER_SHAPE {
            let (dag, plan, schedule_seed) = shape_triple(si, round);
            let keys = dag.all_keys();
            let label = format!("campaign-shape{si}-round{round}-{:?}", phase_of(round));

            let (_, trace, report) = det_traced_run(
                Arc::clone(&dag) as Arc<dyn TaskGraph>,
                Arc::clone(&plan),
                schedule_seed,
            );
            assert!(report.sink_completed, "{label}: sink must complete");
            let dag2 = Arc::clone(&dag);
            let extra = check_result_equivalence(
                &keys,
                |k| dag2.value_of(k),
                |k| reference.get(&k).copied(),
            );
            assert_oracle_clean(
                &label,
                schedule_seed,
                &plan,
                dag.as_ref(),
                &trace,
                &report,
                OracleMode::Strict,
                extra,
            );
            runs += 1;
        }
    }
    assert!(runs >= 200, "campaign must cover >= 200 runs, got {runs}");
}

/// ≥ 200 seeded runs over *irregular* DAGs from the `dag_gen` workload
/// family — (config × fault plan × schedule seed), two schedule seeds per
/// (config, plan) pair — every one oracle-checked in Strict mode and
/// result-checked against the sequential reference.
#[test]
fn randdag_campaign_two_hundred_runs() {
    let mut runs = 0u64;
    for (ci, cfg) in randdag_configs().iter().enumerate() {
        let reference = {
            let dag = ValueDag::random(cfg);
            seq::run(&dag).unwrap();
            dag.all_keys()
                .into_iter()
                .map(|k| (k, dag.value_of(k).unwrap()))
                .collect::<HashMap<Key, u64>>()
        };
        for round in 0..ROUNDS_PER_CONFIG {
            for odd in [false, true] {
                let (dag, plan, schedule_seed) = randdag_triple(ci, cfg, round, odd);
                let keys = dag.all_keys();
                let label = format!(
                    "randdag-cfg{ci}-round{round}-{:?}-seed{}",
                    phase_of(round),
                    odd as u8
                );

                let (_, trace, report) = det_traced_run(
                    Arc::clone(&dag) as Arc<dyn TaskGraph>,
                    Arc::clone(&plan),
                    schedule_seed,
                );
                assert!(report.sink_completed, "{label}: sink must complete");
                assert_eq!(
                    report.distinct_tasks_executed,
                    dag.task_count() as u64,
                    "{label}: every task completes"
                );
                let dag2 = Arc::clone(&dag);
                let extra = check_result_equivalence(
                    &keys,
                    |k| dag2.value_of(k),
                    |k| reference.get(&k).copied(),
                );
                assert_oracle_clean(
                    &label,
                    schedule_seed,
                    &plan,
                    dag.as_ref(),
                    &trace,
                    &report,
                    OracleMode::Strict,
                    extra,
                );
                runs += 1;
            }
        }
    }
    assert!(runs >= 200, "campaign must cover >= 200 runs, got {runs}");
}

/// 64-bit FNV-1a of `bytes`, continuing from `h`.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Fold every event of `trace`, in emission order, into `h`.
fn fold_trace(h: u64, trace: &Trace) -> u64 {
    trace.events().iter().fold(h, |h, te| {
        fnv1a(fnv1a(h, format!("{:?}", te.event).as_bytes()), b"\n")
    })
}

/// `DetPool` schedules are pinned: one FNV-1a digest over the traces of
/// the headline campaign's 210 triples and the random-DAG campaign's 100
/// even-seed triples. Any change to the executor's pick sequence, the
/// engine's spawn order or the generated graphs moves it.
///
/// If a change moves `PINNED` on purpose, recompute it (the assertion
/// prints the new value) and justify the new schedules in CHANGES.md.
///
/// Last re-pinned when traversal became one job per task:
/// `InitAndCompute` visits its predecessors inline instead of spawning a
/// `TryInitCompute` job per edge, so every schedule's job sequence moved
/// (no seed, plan or graph changed).
#[test]
fn det_schedules_are_pinned() {
    const PINNED: u64 = 0xc420_8559_0ee0_a03d;
    let run = |h: u64, graph: Arc<dyn TaskGraph>, plan: Arc<FaultPlan>, seed: u64| {
        let (_, trace, report) = det_traced_run(graph, plan, seed);
        assert!(report.sink_completed, "seed {seed:#x}: sink must complete");
        fold_trace(h, &trace)
    };
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut triples = 0;
    for si in 0..SHAPES.len() {
        for round in 0..ROUNDS_PER_SHAPE {
            let (dag, plan, seed) = shape_triple(si, round);
            h = run(h, dag, plan, seed);
            triples += 1;
        }
    }
    for (ci, cfg) in randdag_configs().iter().enumerate() {
        for round in 0..ROUNDS_PER_CONFIG {
            let (dag, plan, seed) = randdag_triple(ci, cfg, round, false);
            h = run(h, dag, plan, seed);
            triples += 1;
        }
    }
    assert_eq!(triples, 310);
    assert_eq!(
        h, PINNED,
        "DetPool schedules moved: digest is now {h:#018x}"
    );
}

/// The whole point of the deterministic pool: the same (graph, fault
/// plan, seed) triple replays as the identical event sequence, and
/// different seeds genuinely explore different interleavings.
#[test]
fn same_triple_replays_identically_and_seeds_differ() {
    let shape: &[usize] = &[3, 3, 3];
    let run_events = |schedule_seed: u64| -> Vec<Event> {
        let dag = Arc::new(ValueDag::generate(shape, 42));
        let keys = dag.all_keys();
        let plan = Arc::new(FaultPlan::sample(&keys, 3, Phase::AfterCompute, 7));
        let (_, trace, report) =
            det_traced_run(Arc::clone(&dag) as Arc<dyn TaskGraph>, plan, schedule_seed);
        assert!(report.sink_completed);
        trace.events().into_iter().map(|te| te.event).collect()
    };

    assert_eq!(
        run_events(123),
        run_events(123),
        "same (graph, plan, seed) must replay the identical trace"
    );

    let mut distinct: Vec<Vec<Event>> = Vec::new();
    for seed in 0..8 {
        let evs = run_events(seed);
        if !distinct.contains(&evs) {
            distinct.push(evs);
        }
    }
    assert!(
        distinct.len() >= 2,
        "8 seeds explored only {} distinct interleavings",
        distinct.len()
    );
}

/// Mutation test (acceptance criterion): deliberately break the notify
/// bit vector — duplicate notifications decrement the join counter, the
/// classic bug Guarantee 3 exists to prevent — and verify the oracle
/// flags the resulting traces as G3 violations. The same campaign with
/// the bit vector intact must be clean, so the detection is the oracle's
/// doing, not noise.
#[test]
fn broken_notify_bitvec_is_caught_by_oracle() {
    // Before-compute faults on the multi-predecessor tasks of a 3×3 grid:
    // the failed task's old and new incarnations both register with their
    // predecessors, so many schedules deliver duplicate notifications.
    let sites = || [4, 5, 7, 8].map(|k: Key| FaultSite::once(k, Phase::BeforeCompute));
    const SEEDS: u64 = 96;

    let mut caught = 0u64;
    for seed in 0..SEEDS {
        let g = Arc::new(Grid { n: 3 });
        let plan = Arc::new(FaultPlan::new(sites()));
        let trace = Arc::new(Trace::new());
        let sched = Engine::mutant(
            Arc::clone(&g) as Arc<dyn TaskGraph>,
            Arc::clone(&plan),
            Arc::clone(&trace),
            DuplicatesDecrement,
        );
        let report = sched.run(&DetPool::new(seed));
        let violations = oracle_violations(g.as_ref(), &trace, &report, OracleMode::Strict);
        if violations.iter().any(|v| v.guarantee == "G3") {
            caught += 1;
        }
    }
    assert_eq!(
        caught, SEEDS,
        "duplicate-decrement mutant escaped the G3 check on some of {SEEDS} \
         seeds — the oracle would miss a broken implementation"
    );

    // Control: the intact scheduler is clean on every one of those seeds.
    for seed in 0..SEEDS {
        let g = Arc::new(Grid { n: 3 });
        let plan = Arc::new(FaultPlan::new(sites()));
        let (_, trace, report) = det_traced_run(
            Arc::clone(&g) as Arc<dyn TaskGraph>,
            Arc::clone(&plan),
            seed,
        );
        assert!(report.sink_completed);
        assert_oracle_clean(
            "mutation-control-grid3",
            seed,
            &plan,
            g.as_ref(),
            &trace,
            &report,
            OracleMode::Strict,
            Vec::new(),
        );
    }
}

/// Mutation test for drain-side delivery: break the bit-vector gate
/// **only for notifications a predecessor's drain delivers**
/// (`notify_entry`) and verify the oracle flags the resulting traces as
/// G3 violations. Recovery re-registers a failed task's incarnations with
/// its predecessors, so the predecessor's drain delivers duplicate
/// notifications; with the drain ungated each one decrements the join
/// counter. Registrant-side deliveries (a registrant that finds its
/// predecessor computed, and the self-notification) stay gated, so a
/// catch here proves the campaigns exercise the drain side specifically.
#[test]
fn broken_inline_chain_is_caught_by_oracle() {
    // Same fault geometry as the bit-vector mutation above: before-compute
    // faults on the multi-predecessor tasks of a 3×3 grid maximize
    // duplicate-notification schedules.
    let sites = || [4, 5, 7, 8].map(|k: Key| FaultSite::once(k, Phase::BeforeCompute));
    const SEEDS: u64 = 96;

    let mut caught = 0u64;
    for seed in 0..SEEDS {
        let g = Arc::new(Grid { n: 3 });
        let plan = Arc::new(FaultPlan::new(sites()));
        let trace = Arc::new(Trace::new());
        let sched = Engine::mutant(
            Arc::clone(&g) as Arc<dyn TaskGraph>,
            Arc::clone(&plan),
            Arc::clone(&trace),
            UngatedDrain,
        );
        let report = sched.run(&DetPool::new(seed));
        let violations = oracle_violations(g.as_ref(), &trace, &report, OracleMode::Strict);
        if violations.iter().any(|v| v.guarantee == "G3") {
            caught += 1;
        }
    }
    assert_eq!(
        caught, SEEDS,
        "ungated-drain mutant escaped the G3 check on some of {SEEDS} \
         seeds — the oracle would miss a broken drain-side delivery"
    );

    // Control: the intact scheduler (inline chains enabled, gate intact)
    // is clean on every one of those seeds.
    for seed in 0..SEEDS {
        let g = Arc::new(Grid { n: 3 });
        let plan = Arc::new(FaultPlan::new(sites()));
        let (_, trace, report) = det_traced_run(
            Arc::clone(&g) as Arc<dyn TaskGraph>,
            Arc::clone(&plan),
            seed,
        );
        assert!(report.sink_completed);
        assert_oracle_clean(
            "inline-chain-mutation-control-grid3",
            seed,
            &plan,
            g.as_ref(),
            &trace,
            &report,
            OracleMode::Strict,
            Vec::new(),
        );
    }
}

/// Mutation test for the PR-9 lock-free notify cells: drop a single
/// Release publish (the first registrant to find its predecessor not yet
/// computed claims its slot but never stores its key, and skips the
/// self-delivery fallback too). The drain scan sees an empty cell and
/// skips it, so one notification is lost and the successor's join
/// counter never reaches zero: the run quiesces with tasks stranded
/// mid-graph and the sink incomplete, which the oracle flags as a G4
/// violation. The same campaign with the publish intact
/// must be clean, so the detection is the oracle's doing, not noise.
///
/// The campaign runs **fault-free**: an injected fault on the affected
/// predecessor would replace it and rebuild its notify cells
/// (`ReinitNotifyEntry`), re-registering the stranded successor and
/// thereby *masking* the dropped publish — recovery repairing exactly
/// this damage is Guarantee 4 working as designed, not a missed bug.
#[test]
fn broken_notify_cell_is_caught_by_oracle() {
    const SEEDS: u64 = 96;

    let mut caught = 0u64;
    for seed in 0..SEEDS {
        let g = Arc::new(Grid { n: 3 });
        let plan = Arc::new(FaultPlan::none());
        let trace = Arc::new(Trace::new());
        let sched = Engine::mutant(
            Arc::clone(&g) as Arc<dyn TaskGraph>,
            Arc::clone(&plan),
            Arc::clone(&trace),
            DropOnePublish::armed(),
        );
        let report = sched.run(&DetPool::new(seed));
        // Do NOT assert sink_completed here — the whole point is that the
        // mutant run strands the graph.
        let violations = oracle_violations(g.as_ref(), &trace, &report, OracleMode::Strict);
        if violations
            .iter()
            .any(|v| v.guarantee == "G4" || v.guarantee == "G3")
        {
            caught += 1;
        }
    }
    assert_eq!(
        caught, SEEDS,
        "dropped notify-cell publish must strand the graph under every \
         schedule — the oracle would miss a lost notification"
    );

    // Control: the intact scheduler is clean on every one of those seeds.
    for seed in 0..SEEDS {
        let g = Arc::new(Grid { n: 3 });
        let plan = Arc::new(FaultPlan::none());
        let (_, trace, report) = det_traced_run(
            Arc::clone(&g) as Arc<dyn TaskGraph>,
            Arc::clone(&plan),
            seed,
        );
        assert!(report.sink_completed);
        assert_oracle_clean(
            "notify-cell-mutation-control-grid3",
            seed,
            &plan,
            g.as_ref(),
            &trace,
            &report,
            OracleMode::Strict,
            Vec::new(),
        );
    }
}

/// Guarantee 6 at the integration level: sites with `fires = 3` fail the
/// original incarnation and its first two recoveries; every incarnation's
/// failure is recovered with a strictly increasing life number.
#[test]
fn multi_fire_faults_recursively_recovered_under_many_schedules() {
    const FAILED: [Key; 3] = [5, 17, 29];
    for seed in 0..24u64 {
        let g = Arc::new(Chain { len: 40 });
        let plan = Arc::new(FaultPlan::new(FAILED.map(|k| FaultSite {
            key: k,
            phase: Phase::AfterCompute,
            fires: 3,
        })));
        let (_, trace, report) = det_traced_run(
            Arc::clone(&g) as Arc<dyn TaskGraph>,
            Arc::clone(&plan),
            seed,
        );
        assert!(report.sink_completed, "seed {seed}");
        assert_eq!(report.injected, 9, "seed {seed}");
        assert_eq!(
            report.re_executions, 9,
            "seed {seed}: three re-executions per failed task"
        );
        assert_eq!(
            report.recoveries, 9,
            "seed {seed}: one recovery per incarnation failure"
        );
        for key in FAILED {
            let lives: Vec<u64> = trace
                .events_for(key)
                .iter()
                .filter_map(|te| match te.event {
                    Event::RecoveryStarted { new_life, .. } => Some(new_life),
                    _ => None,
                })
                .collect();
            assert_eq!(
                lives,
                vec![2, 3, 4],
                "seed {seed}: task {key} must be recovered once per incarnation"
            );
        }
        assert_oracle_clean(
            "multi-fire-chain40",
            seed,
            &plan,
            g.as_ref(),
            &trace,
            &report,
            OracleMode::Strict,
            Vec::new(),
        );
    }
}

/// An after-notify fault is only observable through a *later consumer*
/// that still needs the task's data or descriptor (Section VI). Depending
/// on the schedule the consumer trips over either the poisoned descriptor
/// (at registration, recovery only) or the poisoned *data block* (at
/// compute, recovery + ResetNode); across 24 seeds the data path must
/// occur, and the final values always match the sequential reference.
#[test]
fn after_notify_fault_observed_through_later_consumer() {
    let shape: &[usize] = &[1, 2, 2];
    let reference = sequential_values(ValueDag::generate(shape, 7));
    let mut data_path_runs = 0u64;
    for seed in 0..24u64 {
        let dag = Arc::new(ValueDag::generate(shape, 7));
        let keys = dag.all_keys();
        let plan = Arc::new(FaultPlan::single(0, Phase::AfterNotify));
        let (_, trace, report) = det_traced_run(
            Arc::clone(&dag) as Arc<dyn TaskGraph>,
            Arc::clone(&plan),
            seed,
        );
        assert!(report.sink_completed, "seed {seed}");
        assert_eq!(report.injected, 1, "seed {seed}");
        assert!(
            report.recoveries >= 1,
            "seed {seed}: a later consumer of task 0 must observe the \
             after-notify fault and trigger recovery"
        );
        let observed_through_data = trace.events().iter().any(|te| {
            matches!(
                te.event,
                Event::FaultObserved {
                    source: 0,
                    kind: nabbit_ft::fault::FaultKind::Data
                }
            )
        });
        if observed_through_data {
            data_path_runs += 1;
            assert!(
                report.resets >= 1,
                "seed {seed}: a consumer that read poisoned data must \
                 re-explore via ResetNode"
            );
        }
        let dag2 = Arc::clone(&dag);
        let extra =
            check_result_equivalence(&keys, |k| dag2.value_of(k), |k| reference.get(&k).copied());
        assert_oracle_clean(
            "after-notify-consumer",
            seed,
            &plan,
            dag.as_ref(),
            &trace,
            &report,
            OracleMode::Strict,
            extra,
        );
    }
    assert!(
        data_path_runs >= 1,
        "no schedule exercised observation through the poisoned data block"
    );
}
