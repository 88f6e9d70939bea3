//! Causality tests over the execution trace: the recorded event stream of
//! a faulted run must obey the orderings the Section IV guarantees imply.

use ft_integration::graphs::Grid;
use ft_steal::pool::{Pool, PoolConfig};
use nabbit_ft::graph::Key;
use nabbit_ft::inject::{FaultPlan, FaultSite, Phase};
use nabbit_ft::scheduler::FtScheduler;
use nabbit_ft::trace::{Event, Trace};
use std::collections::HashMap;
use std::sync::Arc;

fn traced_run(n: i64, plan: FaultPlan) -> (Arc<Trace>, nabbit_ft::RunReport) {
    let trace = Arc::new(Trace::new());
    let pool = Pool::new(PoolConfig::with_threads(4));
    let g = Arc::new(Grid { n });
    let sched = FtScheduler::with_plan_traced(g as _, Arc::new(plan), Arc::clone(&trace));
    let report = sched.run(&pool);
    assert!(report.sink_completed);
    (trace, report)
}

#[test]
fn fault_free_trace_is_clean() {
    let (trace, report) = traced_run(8, FaultPlan::none());
    let events = trace.events();
    let computed = events
        .iter()
        .filter(|e| matches!(e.event, Event::Computed { .. }))
        .count();
    let completed = events
        .iter()
        .filter(|e| matches!(e.event, Event::Completed { .. }))
        .count();
    let inserted = events
        .iter()
        .filter(|e| matches!(e.event, Event::Inserted { .. }))
        .count();
    assert_eq!(computed as u64, report.computes);
    assert_eq!(computed, 64);
    assert_eq!(completed, 64);
    assert_eq!(inserted, 64);
    assert!(!events
        .iter()
        .any(|e| matches!(e.event, Event::RecoveryStarted { .. } | Event::Reset { .. })));
}

#[test]
fn every_inserted_before_computed_before_completed() {
    let keys: Vec<Key> = (0..64).collect();
    let (trace, _) = traced_run(8, FaultPlan::sample(&keys, 16, Phase::AfterCompute, 5));
    for key in 0..64 {
        let evs = trace.events_for(key);
        let pos = |pred: &dyn Fn(&Event) -> bool| evs.iter().position(|e| pred(&e.event));
        let ins = pos(&|e| matches!(e, Event::Inserted { .. })).expect("inserted");
        let comp = pos(&|e| matches!(e, Event::Computed { .. })).expect("computed");
        let done = pos(&|e| matches!(e, Event::Completed { .. })).expect("completed");
        assert!(ins < comp, "task {key}: inserted before computed");
        assert!(comp < done, "task {key}: computed before completed");
    }
}

#[test]
fn recovery_lives_strictly_increase() {
    let sites = (0..64)
        .step_by(5)
        .map(|k| FaultSite {
            key: k,
            phase: Phase::AfterCompute,
            fires: 3,
        })
        .collect::<Vec<_>>();
    let (trace, report) = traced_run(8, FaultPlan::new(sites));
    assert!(report.recoveries > 0);
    let mut last_life: HashMap<Key, u64> = HashMap::new();
    for e in trace.events() {
        if let Event::RecoveryStarted { key, new_life } = e.event {
            let prev = last_life.insert(key, new_life).unwrap_or(1);
            assert!(
                new_life > prev,
                "recovery lives for {key} must strictly increase: {prev} -> {new_life}"
            );
        }
    }
}

#[test]
fn injection_precedes_recovery_of_same_task() {
    let keys: Vec<Key> = (0..64).collect();
    let (trace, _) = traced_run(8, FaultPlan::sample(&keys, 20, Phase::AfterCompute, 9));
    let events = trace.events();
    for (i, e) in events.iter().enumerate() {
        if let Event::RecoveryStarted { key, .. } = e.event {
            let injected_before = events[..i]
                .iter()
                .any(|p| matches!(p.event, Event::Injected { key: k, .. } if k == key));
            assert!(
                injected_before,
                "recovery of {key} must follow its injection"
            );
        }
    }
}

#[test]
fn after_compute_fault_computes_at_least_twice() {
    let (trace, _) = traced_run(8, FaultPlan::single(27, Phase::AfterCompute));
    let computes: Vec<u64> = trace
        .events_for(27)
        .iter()
        .filter_map(|e| match e.event {
            Event::Computed { life, .. } => Some(life),
            _ => None,
        })
        .collect();
    assert!(
        computes.len() >= 2,
        "failed task computes in at least two incarnations: {computes:?}"
    );
    assert_eq!(computes[0], 1, "first compute is the original incarnation");
    assert!(
        computes.last().copied().unwrap() >= 2,
        "final successful compute is a recovery incarnation"
    );
}

#[test]
fn suppressed_recoveries_recorded_when_contended() {
    // Many faults + many threads: at least the counts must line up between
    // trace and report.
    let keys: Vec<Key> = (0..144).collect();
    let (trace, report) = traced_run(12, FaultPlan::sample(&keys, 64, Phase::AfterCompute, 3));
    let started = trace
        .events()
        .iter()
        .filter(|e| matches!(e.event, Event::RecoveryStarted { .. }))
        .count() as u64;
    let suppressed = trace
        .events()
        .iter()
        .filter(|e| matches!(e.event, Event::RecoverySuppressed { .. }))
        .count() as u64;
    assert_eq!(started, report.recoveries);
    assert_eq!(suppressed, report.recoveries_suppressed);
}
