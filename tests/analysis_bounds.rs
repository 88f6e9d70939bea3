//! Section V integration checks: the Theorem 2 completion-time machinery
//! evaluated against real executions of the benchmark graphs.

use ft_apps::lu::Lu;
use ft_apps::{AppConfig, BenchApp};
use ft_steal::pool::{Pool, PoolConfig};
use nabbit_ft::analysis::{completion_bound, graph_stats, work_span, BoundParams};
use nabbit_ft::graph::Key;
use nabbit_ft::inject::{FaultPlan, Phase};
use nabbit_ft::scheduler::FtScheduler;
use nabbit_ft::trace::{Event, Trace};
use nabbit_ft::{seq, TaskGraph};
use std::collections::HashMap;
use std::sync::Arc;

#[test]
fn bound_reduces_to_nabbit_without_failures() {
    // With N(A) = 1 the Theorem 2 expression must equal the plain NABBIT
    // bound's value (same terms with N = 1) — evaluate both at several P.
    let app = Lu::new(AppConfig::new(96, 16));
    let stats = graph_stats(&app);
    let (t1, tinf) = work_span(&app, |_| 1.0, |_| 1.0);
    for p in [1usize, 2, 8, 44] {
        let params = BoundParams {
            p,
            epsilon: 0.01,
            n_max: 1.0,
        };
        let b = completion_bound(&stats, t1, tinf, &params);
        // Recompute the NABBIT form manually.
        let pf = p as f64;
        let d = stats.max_degree() as f64;
        let m = stats.critical_path as f64;
        let l = (stats.edges as f64 / pf + m) * d.min(pf);
        let nabbit = t1 / pf + tinf + (pf / 0.01).log2() + m * d + l;
        assert!((b - nabbit).abs() < 1e-9, "P={p}: {b} vs {nabbit}");
    }
}

#[test]
fn bound_grows_with_failures() {
    let app = Lu::new(AppConfig::new(96, 16));
    let stats = graph_stats(&app);
    let (t1_clean, tinf_clean) = work_span(&app, |_| 1.0, |_| 1.0);
    // Double every N(A): both T1 and T∞ double, and the N-terms double.
    let (t1_faulty, tinf_faulty) = work_span(&app, |_| 1.0, |_| 2.0);
    assert!((t1_faulty - 2.0 * t1_clean).abs() < 1e-6);
    assert!((tinf_faulty - 2.0 * tinf_clean).abs() < 1e-6);
    let params = |n: f64| BoundParams {
        p: 4,
        epsilon: 0.01,
        n_max: n,
    };
    let b_clean = completion_bound(&stats, t1_clean, tinf_clean, &params(1.0));
    let b_faulty = completion_bound(&stats, t1_faulty, tinf_faulty, &params(2.0));
    assert!(b_faulty > b_clean);
    assert!(
        b_faulty < 2.5 * b_clean,
        "a-posteriori bound scales ~linearly in N: {b_faulty} vs {b_clean}"
    );
}

#[test]
fn sync_unit_evaluation_scales_to_seconds() {
    // `repro bound` evaluates Theorem 2 in units of one synchronization
    // operation (task work passed as W / SYNC) and multiplies by SYNC.
    // That must equal the seconds-valued forms: T1 = Σ N(A)(W(A) +
    // |out(A)|·SYNC), and the bound with its lg, N·M·d and N·L(D) terms
    // costed at SYNC each. N(A) comes from a 5 %-fault run, so it is not
    // uniform, and W varies per task.
    const SYNC: f64 = 100e-9;
    let app = Arc::new(Lu::new(AppConfig::new(96, 16)));
    let keys = app.all_tasks();
    let stats = graph_stats(app.as_ref());
    let plan = FaultPlan::sample(&keys, stats.tasks / 20, Phase::AfterCompute, 5);
    let sched = FtScheduler::with_plan(Arc::clone(&app) as Arc<dyn TaskGraph>, Arc::new(plan));
    let report = sched.run(&Pool::new(PoolConfig::with_threads(2)));
    assert!(report.sink_completed);
    let counts: HashMap<Key, u64> = sched.exec_counts().into_iter().collect();
    assert!(counts.values().any(|&n| n > 1), "no task re-executed");
    let n_of = |k: Key| counts.get(&k).copied().unwrap_or(1) as f64;
    let n_max = report.max_executions_one_task as f64;
    let w = |k: Key| 1e-6 * (1 + k.rem_euclid(7)) as f64;

    let (t1, t_inf) = work_span(app.as_ref(), |k| w(k) / SYNC, n_of);
    let t1_s: f64 = seq::discover(app.as_ref())
        .into_iter()
        .map(|k| n_of(k) * (w(k) + app.successors(k).len() as f64 * SYNC))
        .sum();
    let (_, t_inf_s) = work_span(app.as_ref(), w, n_of);
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * b.abs();
    assert!(close(SYNC * t1, t1_s), "T1 {t1} vs {t1_s}");
    assert!(close(SYNC * t_inf, t_inf_s), "T∞ {t_inf} vs {t_inf_s}");

    let (d, m, e) = (
        stats.max_degree() as f64,
        stats.critical_path as f64,
        stats.edges as f64,
    );
    for p in [1usize, 2, 4, 48] {
        let params = BoundParams {
            p,
            epsilon: 0.01,
            n_max,
        };
        let b = SYNC * completion_bound(&stats, t1, t_inf, &params);
        let pf = p as f64;
        let l = (e / pf + m) * d.min(pf);
        let b_s = t1_s / pf + t_inf_s + SYNC * ((pf / 0.01).log2() + n_max * m * d + n_max * l);
        assert!(close(b, b_s), "P={p}: bound {b} vs {b_s}");
    }
}

#[test]
fn measured_n_matches_reported_reexecutions() {
    // The empirical N(A) recorded by the scheduler is consistent with the
    // run report — Σ (N(A) − 1) = re_executions, max N(A) = max field —
    // and with the independent `computes` counter: Σ N(A) = computes. The
    // inputs cover a fault-free run (the recovery table is never built)
    // and a fault at each of the three phases under LU's KeepLast(2)
    // retention, where lost versions force overwrite recovery, on a real
    // work-stealing pool.
    let app = Arc::new(Lu::new(AppConfig::new(96, 16)));
    let keys = app.all_tasks();
    let pool = Pool::new(PoolConfig::with_threads(4));
    let inputs = [
        ("fault-free", None),
        ("before-compute", Some((Phase::BeforeCompute, 12, 7))),
        ("after-compute", Some((Phase::AfterCompute, 12, 31))),
        ("after-notify", Some((Phase::AfterNotify, 12, 11))),
    ];
    let mut overlaps = 0usize;
    for (label, faults) in inputs {
        let plan = match faults {
            None => FaultPlan::none(),
            Some((phase, count, seed)) => FaultPlan::sample(&keys, count, phase, seed),
        };
        let trace = Arc::new(Trace::new());
        let sched = FtScheduler::with_plan_traced(
            Arc::clone(&app) as Arc<dyn TaskGraph>,
            Arc::new(plan),
            Arc::clone(&trace),
        );
        let report = sched.run(&pool);
        assert!(report.sink_completed, "{label}");
        if faults.is_none() {
            assert_eq!(sched.recovery_table_len(), 0, "{label}: R was built");
        } else {
            assert!(report.injected > 0, "{label}: no fault fired");
        }
        let counts = sched.exec_counts();
        let total: u64 = counts.iter().map(|&(_, n)| n).sum();
        let total_reexec: u64 = counts.iter().map(|&(_, n)| n - 1).sum();
        let max_n = counts.iter().map(|&(_, n)| n).max().unwrap();
        assert_eq!(total, report.computes, "{label}: Σ N(A) vs computes");
        assert_eq!(total_reexec, report.re_executions, "{label}");
        assert_eq!(max_n, report.max_executions_one_task, "{label}");
        assert_eq!(
            counts.len() as u64,
            report.distinct_tasks_executed,
            "{label}"
        );
        overlaps += superseded_computes(&trace);
    }
    // How often a compute of an incarnation finished after that
    // incarnation's replacement had begun (the window in which a count
    // copied at replace time would have been lost). Reported, not
    // asserted: it depends on the schedule.
    eprintln!("computes finishing after their incarnation was replaced: {overlaps}");
}

/// Count `Computed { key, life }` events that follow (in trace order) the
/// `RecoveryStarted` of a later incarnation of the same key.
fn superseded_computes(trace: &Trace) -> usize {
    let mut newest: HashMap<Key, u64> = HashMap::new();
    let mut late = 0;
    for e in trace.events() {
        match e.event {
            Event::RecoveryStarted { key, new_life } => {
                let l = newest.entry(key).or_insert(0);
                *l = (*l).max(new_life);
            }
            Event::Computed { key, life } if newest.get(&key).is_some_and(|&l| l > life) => {
                late += 1;
            }
            _ => {}
        }
    }
    late
}

#[test]
fn work_span_accounts_observed_time_at_p1() {
    // At P = 1 with per-task costs from a sequential run, T1 must predict
    // the single-worker FT time within a small constant factor.
    let cfg = AppConfig::new(96, 16);
    let app = Arc::new(Lu::new(cfg));
    let t_seq = {
        let t = std::time::Instant::now();
        seq::run(app.as_ref()).unwrap();
        t.elapsed().as_secs_f64()
    };
    let stats = graph_stats(app.as_ref());
    let per_task = t_seq / stats.tasks as f64;
    // T1 in seconds: compute work at per-task cost, notify scans at a
    // ~100ns synchronization cost (work_span's raw form counts the scan in
    // unit operations, which would swamp second-valued costs).
    const SYNC: f64 = 100e-9;
    let t1: f64 = seq::discover(app.as_ref())
        .into_iter()
        .map(|k| per_task + app.successors(k).len() as f64 * SYNC)
        .sum();

    let app2 = Arc::new(Lu::new(cfg));
    let pool = Pool::new(PoolConfig::with_threads(1));
    let report = FtScheduler::new(Arc::clone(&app2) as Arc<dyn TaskGraph>).run(&pool);
    assert!(report.sink_completed);
    let measured = report.elapsed.as_secs_f64();
    // T1 slightly overestimates (counts notify scans at full task cost) and
    // the runtime adds scheduling overhead; demand agreement within 4x both
    // ways — this is a units/shape check, not a microbenchmark.
    assert!(
        measured < 4.0 * t1 && t1 < 4.0 * measured,
        "T1 {t1:.4}s vs measured {measured:.4}s"
    );
}

#[test]
fn critical_path_lower_bounds_any_execution() {
    // T∞ with unit cost = critical path in tasks; the FT scheduler cannot
    // execute fewer "levels" than that: total computes >= critical path.
    let app = Arc::new(Lu::new(AppConfig::new(64, 16)));
    let stats = graph_stats(app.as_ref());
    let pool = Pool::new(PoolConfig::with_threads(4));
    let report = FtScheduler::new(Arc::clone(&app) as Arc<dyn TaskGraph>).run(&pool);
    assert!(report.computes as usize >= stats.critical_path);
    let (_, tinf) = work_span(app.as_ref(), |_| 1.0, |_| 1.0);
    assert_eq!(tinf as usize, stats.critical_path);
}
