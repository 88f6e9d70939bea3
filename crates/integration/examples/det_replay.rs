//! Deterministic schedule exploration, replay, and the guarantee oracle.
//!
//! ```text
//! cargo run -p ft-integration --example det_replay [schedule_seed]
//! ```
//!
//! Runs the FT scheduler over a random layered DAG on the seeded
//! single-threaded `DetPool`, shows that the same `(graph, fault plan,
//! seed)` triple replays the identical trace while a different seed
//! explores a different interleaving, and demonstrates the trace oracle
//! catching a deliberately broken notify bit vector on every seed (with
//! the JSON failure report a failing campaign would dump). Each claim it
//! prints is also asserted.

use ft_det::DetPool;
use ft_integration::graphs::{Grid, ValueDag};
use ft_integration::mutants::DuplicatesDecrement;
use ft_integration::{det_traced_run, failure_dump_dir, oracle_violations};
use nabbit_ft::graph::TaskGraph;
use nabbit_ft::inject::{FaultPlan, FaultSite, Phase};
use nabbit_ft::scheduler::Engine;
use nabbit_ft::trace::oracle::{FailureReport, OracleMode};
use nabbit_ft::trace::Trace;
use std::sync::Arc;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(7);

    println!("== deterministic exploration of a random layered DAG ==\n");
    let shape = [2usize, 3, 2];
    let events_of = |schedule_seed: u64| {
        let dag = Arc::new(ValueDag::generate(&shape, 42));
        let keys = dag.all_keys();
        let plan = Arc::new(FaultPlan::sample(&keys, 2, Phase::AfterCompute, 5));
        let (_, trace, report) = det_traced_run(dag as Arc<dyn TaskGraph>, plan, schedule_seed);
        assert!(report.sink_completed);
        (trace.events(), report)
    };

    let (run_a, report) = events_of(seed);
    let (run_b, _) = events_of(seed);
    let (run_c, _) = events_of(seed + 1);
    let same = run_a
        .iter()
        .map(|e| e.event)
        .eq(run_b.iter().map(|e| e.event));
    let differs = !run_a
        .iter()
        .map(|e| e.event)
        .eq(run_c.iter().map(|e| e.event));
    println!(
        "seed {seed}: {} events, {} recoveries; replay identical: {same}; \
         seed {} schedules differently: {differs}",
        run_a.len(),
        report.recoveries,
        seed + 1
    );
    println!("first events: {:?}\n", &run_a[..4.min(run_a.len())]);
    assert!(same, "seed {seed} must replay identically");
    assert!(differs, "seed {} must schedule differently", seed + 1);

    println!("== the oracle catches a broken notify bit vector ==\n");
    let g = Arc::new(Grid { n: 3 });
    let mut caught = 0usize;
    let mut dumped = None;
    for s in 0..32u64 {
        // A fresh plan per seed: a run consumes its plan's fire budgets.
        let plan = Arc::new(FaultPlan::new(
            [4, 5, 7, 8].map(|k| FaultSite::once(k, Phase::BeforeCompute)),
        ));
        let trace = Arc::new(Trace::new());
        let sched = Engine::mutant(
            Arc::clone(&g) as Arc<dyn TaskGraph>,
            Arc::clone(&plan),
            Arc::clone(&trace),
            DuplicatesDecrement,
        );
        let report = sched.run(&DetPool::new(s));
        let violations = oracle_violations(g.as_ref(), &trace, &report, OracleMode::Strict);
        if !violations.is_empty() {
            caught += 1;
            if dumped.is_none() {
                let sites = plan.sites();
                let events = trace.events();
                let failure = FailureReport {
                    label: "det-replay-mutant-demo".to_string(),
                    seed: s,
                    sites: &sites,
                    violations: &violations,
                    events: &events,
                };
                let path = failure.write_to(&failure_dump_dir()).expect("dump");
                println!(
                    "seed {s}: {} violation(s), e.g. {}",
                    violations.len(),
                    violations[0]
                );
                dumped = Some(path);
            }
        }
    }
    println!("mutant runs flagged: {caught}/32");
    if let Some(path) = dumped {
        println!("replayable JSON report: {}", path.display());
    }
    assert_eq!(caught, 32, "the oracle must flag every mutant run");
}
