//! Fault plans and the per-run counter oracle.
//!
//! Every graph execution the benchmark performs is one *operation*. An
//! operation fails — and is counted, never panicked on — when the sink did
//! not complete, a counter invariant is broken, or the outputs differ from
//! the sequential reference ([`crate::graphs::Instance::verify`]).

use crate::graphs::SplitMix64;
use nabbit_ft::graph::Key;
use nabbit_ft::inject::{FaultPlan, FaultSite, Phase};
use nabbit_ft::RunReport;
use std::collections::HashSet;

/// Share of the non-sink tasks a fault plan fails (the paper's Fig. 5b
/// loss level).
pub const FAULT_SHARE: f64 = 0.05;

/// The three injection points, in the order sites are dealt to them. The
/// first site is always `BeforeCompute`, which is observed by construction,
/// so every non-empty plan forces at least one recovery.
pub const PHASES: [Phase; 3] = [
    Phase::BeforeCompute,
    Phase::AfterCompute,
    Phase::AfterNotify,
];

/// Number of sites a plan over `candidates` tasks carries: ⌈5 %⌉.
pub fn planned_faults(candidates: usize) -> usize {
    ((candidates as f64 * FAULT_SHARE).ceil() as usize).min(candidates)
}

/// The sites of a seeded plan: ⌈5 %⌉ distinct candidates, each failing
/// once, dealt round-robin over the three phases.
pub fn fault_sites(candidates: &[Key], seed: u64) -> Vec<FaultSite> {
    let count = planned_faults(candidates.len());
    let mut rng = SplitMix64(seed ^ 0xFA17);
    let mut chosen = HashSet::with_capacity(count);
    let mut sites = Vec::with_capacity(count);
    while sites.len() < count {
        let idx = rng.below(candidates.len() as u64) as usize;
        if chosen.insert(idx) {
            sites.push(FaultSite::once(candidates[idx], PHASES[sites.len() % 3]));
        }
    }
    sites
}

/// A fresh single-use plan (plans carry consumed fire budgets, so every
/// run builds its own).
pub fn fault_plan(candidates: &[Key], seed: u64) -> FaultPlan {
    FaultPlan::new(fault_sites(candidates, seed))
}

/// How many of a plan's sites are `AfterNotify` — the faults that may stay
/// detected-but-unrecovered when nobody revisits the task.
pub fn after_notify_sites(planned: usize) -> u64 {
    (planned / 3) as u64
}

/// What a run was asked to do, for the counter oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// No faults planned: exactly one compute per task.
    Clean,
    /// A plan of this many sites: all fire, at least one is recovered.
    Faulted(usize),
}

/// Check a run's counters against what it was asked to do.
pub fn check_report(report: &RunReport, tasks: u64, expect: Expect) -> Result<(), String> {
    if !report.sink_completed {
        return Err("sink did not complete".to_string());
    }
    if report.distinct_tasks_executed != tasks {
        return Err(format!(
            "{} distinct tasks executed, graph has {tasks}",
            report.distinct_tasks_executed
        ));
    }
    match expect {
        Expect::Clean => {
            if report.computes != tasks {
                return Err(format!(
                    "{} computes on a clean run of {tasks} tasks",
                    report.computes
                ));
            }
            if report.injected != 0 {
                return Err(format!(
                    "{} faults injected on a clean run",
                    report.injected
                ));
            }
        }
        Expect::Faulted(planned) => {
            if report.injected != planned as u64 {
                return Err(format!(
                    "{} faults injected, {planned} planned",
                    report.injected
                ));
            }
            if planned > 0 && report.recoveries == 0 {
                return Err(format!("{planned} faults injected but nothing recovered"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn plan_size_is_five_percent_rounded_up() {
        assert_eq!(planned_faults(65_535), 3_277);
        assert_eq!(planned_faults(2_048), 103);
        assert_eq!(planned_faults(29), 2);
        assert_eq!(planned_faults(1), 1);
        assert_eq!(planned_faults(0), 0);
    }

    #[test]
    fn sites_are_distinct_seeded_and_split_evenly_over_phases() {
        let candidates: Vec<Key> = (100..2_148).collect();
        let sites = fault_sites(&candidates, 42);
        assert_eq!(sites.len(), 103);
        let keys: HashSet<Key> = sites.iter().map(|s| s.key).collect();
        assert_eq!(keys.len(), sites.len(), "one site per task");
        assert!(keys.iter().all(|k| candidates.contains(k)));
        for (i, phase) in PHASES.iter().enumerate() {
            let n = sites.iter().filter(|s| s.phase == *phase).count();
            assert!((34..=35).contains(&n), "phase {i} got {n} of 103");
        }
        assert_eq!(sites[0].phase, Phase::BeforeCompute);
        assert_eq!(after_notify_sites(sites.len()), 34);
        let again: Vec<Key> = fault_sites(&candidates, 42).iter().map(|s| s.key).collect();
        assert_eq!(again, sites.iter().map(|s| s.key).collect::<Vec<_>>());
        let other: Vec<Key> = fault_sites(&candidates, 43).iter().map(|s| s.key).collect();
        assert_ne!(again, other);
        assert_eq!(fault_plan(&candidates, 42).planned(), 103);
    }

    fn report(tasks: u64) -> RunReport {
        RunReport {
            computes: tasks,
            compute_faults: 0,
            recoveries: 0,
            recoveries_suppressed: 0,
            resets: 0,
            notifications: 0,
            duplicate_notifications: 0,
            injected: 0,
            overwrite_faults: 0,
            distinct_tasks_executed: tasks,
            re_executions: 0,
            max_executions_one_task: 1,
            sink_completed: true,
            elapsed: Duration::ZERO,
        }
    }

    #[test]
    fn counter_oracle_flags_each_broken_invariant() {
        assert!(check_report(&report(10), 10, Expect::Clean).is_ok());
        let mut r = report(10);
        r.sink_completed = false;
        assert!(check_report(&r, 10, Expect::Clean).is_err());
        let mut r = report(10);
        r.distinct_tasks_executed = 9;
        assert!(check_report(&r, 10, Expect::Clean).is_err());
        let mut r = report(10);
        r.computes = 11;
        assert!(check_report(&r, 10, Expect::Clean).is_err());
        assert!(check_report(&r, 10, Expect::Faulted(0)).is_ok());
        let mut r = report(10);
        r.injected = 2;
        assert!(check_report(&r, 10, Expect::Clean).is_err());
        assert!(
            check_report(&r, 10, Expect::Faulted(2)).is_err(),
            "no recovery"
        );
        r.recoveries = 1;
        assert!(check_report(&r, 10, Expect::Faulted(2)).is_ok());
        assert!(check_report(&r, 10, Expect::Faulted(3)).is_err());
    }
}
