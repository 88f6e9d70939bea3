//! Concurrent-instance campaigns for the resident [`GraphService`].
//!
//! One long-lived executor serves a *stream* of graph submissions; these
//! tests interleave many instances — clean and fault-planned — over the
//! deterministic [`DetPool`] (per-instance G1–G6 oracle in `Strict` mode,
//! replayable cross-instance schedules) and over the real work-stealing
//! pool (oracle in `Concurrent` mode), always checking per-instance
//! result equivalence against the sequential reference and that
//! backpressure keeps the in-flight instance count bounded.

use ft_det::DetPool;
use ft_integration::graphs::ValueDag;
use ft_integration::{assert_oracle_clean, phase_of, sequential_values};
use ft_steal::pool::{Pool, PoolConfig};
use nabbit_ft::fault::Fault;
use nabbit_ft::graph::{ComputeCtx, Key, TaskGraph};
use nabbit_ft::inject::FaultPlan;
use nabbit_ft::scheduler::{FtScheduler, GraphService, InstanceTicket, ServiceConfig};
use nabbit_ft::trace::oracle::{check_result_equivalence, OracleMode};
use nabbit_ft::trace::{Event, Trace};
use std::collections::HashMap;
use std::sync::Arc;

/// Mixed workload shapes for the multi-tenant campaigns.
const SHAPES: &[&[usize]] = &[
    &[3, 3, 3],
    &[1, 4, 1, 4],
    &[5, 2, 5],
    &[2, 2, 2, 2, 2],
    &[6, 6],
];

/// One prepared tenant: its private graph, plan, trace and scheduler.
struct Tenant {
    dag: Arc<ValueDag>,
    keys: Vec<Key>,
    plan: Arc<FaultPlan>,
    trace: Arc<Trace>,
    sched: Arc<FtScheduler>,
    faulted: bool,
    shape_idx: usize,
}

/// Build tenant `i` of a campaign round: odd tenants get a sampled fault
/// plan (mixed faulty/clean population), every tenant its own engine.
fn make_tenant(i: u64, round: u64) -> Tenant {
    let shape_idx = (i as usize) % SHAPES.len();
    let edges_seed = 0x5E2_0001 + shape_idx as u64 * 977;
    let dag = Arc::new(ValueDag::generate(SHAPES[shape_idx], edges_seed));
    let keys = dag.all_keys();
    let faulted = i % 2 == 1;
    let count = if faulted {
        (1 + (i as usize + round as usize) % 3) * keys.len() / 4
    } else {
        0
    };
    let plan = Arc::new(FaultPlan::sample(
        &keys,
        count,
        phase_of(i + round),
        i.wrapping_mul(1013) + round,
    ));
    let trace = Arc::new(Trace::new());
    let sched = FtScheduler::with_plan_traced(
        Arc::clone(&dag) as Arc<dyn TaskGraph>,
        Arc::clone(&plan),
        Arc::clone(&trace),
    );
    Tenant {
        dag,
        keys,
        plan,
        trace,
        sched,
        faulted,
        shape_idx,
    }
}

/// Oracle + result-equivalence + isolation checks for one finished tenant.
fn check_tenant(
    label: &str,
    seed: u64,
    tenant: &Tenant,
    report: &nabbit_ft::metrics::RunReport,
    mode: OracleMode,
    references: &HashMap<usize, HashMap<Key, u64>>,
) {
    assert!(report.sink_completed, "{label}: sink must complete");
    if !tenant.faulted {
        // Recovery stays localized to the faulted epochs: a clean tenant
        // co-scheduled with faulty ones observes no fault activity at all
        // in its own namespace.
        assert_eq!(report.injected, 0, "{label}: clean tenant saw injections");
        assert_eq!(report.recoveries, 0, "{label}: clean tenant recovered");
        assert_eq!(report.re_executions, 0, "{label}: clean tenant re-executed");
    }
    let reference = &references[&tenant.shape_idx];
    let dag = Arc::clone(&tenant.dag);
    let extra = check_result_equivalence(
        &tenant.keys,
        |k| dag.value_of(k),
        |k| reference.get(&k).copied(),
    );
    assert_oracle_clean(
        label,
        seed,
        &tenant.plan,
        tenant.dag.as_ref(),
        &tenant.trace,
        report,
        mode,
        extra,
    );
}

fn shape_references() -> HashMap<usize, HashMap<Key, u64>> {
    (0..SHAPES.len())
        .map(|si| {
            let edges_seed = 0x5E2_0001 + si as u64 * 977;
            (
                si,
                sequential_values(ValueDag::generate(SHAPES[si], edges_seed)),
            )
        })
        .collect()
}

/// The headline acceptance campaign: ≥ 8 concurrently submitted instances
/// (mixed faulty/clean) interleaved by one deterministic pool, each epoch
/// passing the per-instance G1–G6 oracle in Strict mode with its own
/// intact `RunReport`.
#[test]
fn det_concurrent_instances_oracle_campaign() {
    const TENANTS: u64 = 10;
    const ROUNDS: u64 = 8;
    let references = shape_references();
    for round in 0..ROUNDS {
        let pool = DetPool::new(0xC0FFEE + round);
        let service = GraphService::with_config(
            &pool,
            ServiceConfig {
                max_in_flight: TENANTS as usize + 2,
            },
        );
        let tenants: Vec<Tenant> = (0..TENANTS).map(|i| make_tenant(i, round)).collect();
        let tickets: Vec<InstanceTicket<_>> = tenants
            .iter()
            .map(|t| service.submit(&t.sched).expect("admission within budget"))
            .collect();
        assert_eq!(
            service.in_flight(),
            TENANTS,
            "all tenants admitted and in flight before the drain"
        );
        // One seeded drain interleaves the jobs of every instance.
        service.drive();
        for (ticket, tenant) in tickets.into_iter().zip(&tenants) {
            assert!(ticket.is_done(), "instance finished by the drain");
            let label = format!(
                "service-det-round{round}-tenant{}-{}",
                ticket.id(),
                if tenant.faulted { "faulted" } else { "clean" }
            );
            let out = ticket.wait();
            check_tenant(
                &label,
                0xC0FFEE + round,
                tenant,
                &out.report,
                OracleMode::Strict,
                &references,
            );
        }
        let stats = service.stats();
        assert_eq!(stats.submitted, TENANTS);
        assert_eq!(stats.completed, TENANTS);
        assert_eq!(stats.in_flight, 0);
    }
}

/// Same mixed-tenant population on the real work-stealing pool: per-epoch
/// oracle in Concurrent mode, per-epoch result equivalence, reports intact.
#[test]
fn real_pool_concurrent_instances_oracle() {
    const TENANTS: u64 = 12;
    let references = shape_references();
    let pool = Pool::new(PoolConfig::with_threads(4));
    let service = GraphService::with_config(
        &pool,
        ServiceConfig {
            max_in_flight: TENANTS as usize,
        },
    );
    let tenants: Vec<Tenant> = (0..TENANTS).map(|i| make_tenant(i, 77)).collect();
    let tickets: Vec<InstanceTicket<_>> = tenants
        .iter()
        .map(|t| service.submit(&t.sched).expect("admission within budget"))
        .collect();
    for (ticket, tenant) in tickets.into_iter().zip(&tenants) {
        let label = format!(
            "service-pool-tenant{}-{}",
            ticket.id(),
            if tenant.faulted { "faulted" } else { "clean" }
        );
        let out = ticket.wait();
        check_tenant(
            &label,
            0,
            tenant,
            &out.report,
            OracleMode::Concurrent,
            &references,
        );
    }
    let stats = service.stats();
    assert_eq!(stats.submitted, TENANTS);
    assert_eq!(stats.completed, TENANTS);
    assert_eq!(stats.in_flight, 0);
}

/// Backpressure: the bounded in-flight budget rejects the N+1th
/// submission with an explicit error, and a slot freed by a quiesced
/// instance re-admits.
#[test]
fn backpressure_in_flight_budget() {
    let pool = DetPool::new(9);
    let service = GraphService::with_config(&pool, ServiceConfig { max_in_flight: 3 });
    let tenants: Vec<Tenant> = (0..4).map(|i| make_tenant(i, 0)).collect();
    let mut tickets = Vec::new();
    for t in &tenants[..3] {
        tickets.push(service.submit(&t.sched).expect("within budget"));
    }
    let bp = service
        .submit(&tenants[3].sched)
        .expect_err("budget exhausted");
    assert_eq!(bp.in_flight, 3);
    assert_eq!(service.stats().rejected, 1);

    service.drive();
    for ticket in tickets {
        assert!(ticket.wait().report.sink_completed);
    }
    assert_eq!(service.in_flight(), 0, "quiesced instances freed slots");
    let ticket = service
        .submit(&tenants[3].sched)
        .expect("slot available after quiescence");
    service.drive();
    assert!(ticket.wait().report.sink_completed);
}

/// A single-task graph whose compute blocks on a shared gate — used to
/// deterministically hold admission slots open on the real pool.
struct BlockingGraph {
    gate: Arc<ft_steal::Flag>,
}

impl TaskGraph for BlockingGraph {
    fn sink(&self) -> Key {
        0
    }
    fn predecessors(&self, _k: Key) -> Vec<Key> {
        vec![]
    }
    fn successors(&self, _k: Key) -> Vec<Key> {
        vec![]
    }
    fn compute(&self, _k: Key, _ctx: &ComputeCtx<'_>) -> Result<(), Fault> {
        self.gate.wait();
        Ok(())
    }
}

/// Acceptance: on the real pool, the in-flight budget deterministically
/// rejects the N+1th instance while N instances hold their slots, and a
/// saturating 32-graph stream never exceeds the budget with every graph
/// completing.
#[test]
fn bounded_in_flight_under_saturating_stream() {
    const GRAPHS: u64 = 32;
    const BUDGET: u64 = 4;
    let pool = Pool::new(PoolConfig::with_threads(4));
    let service = GraphService::with_config(
        &pool,
        ServiceConfig {
            max_in_flight: BUDGET as usize,
        },
    );

    // Phase 1: fill every slot with instances whose compute blocks on a
    // gate, so occupancy is pinned at the budget.
    let gate = Arc::new(ft_steal::Flag::new());
    let holders: Vec<_> = (0..BUDGET)
        .map(|_| {
            let g = Arc::new(BlockingGraph {
                gate: Arc::clone(&gate),
            }) as Arc<dyn TaskGraph>;
            let sched = FtScheduler::new(g);
            service.submit(&sched).expect("slot available")
        })
        .collect();
    let bp = service
        .submit(&FtScheduler::new(Arc::new(PanicGraph) as Arc<dyn TaskGraph>))
        .expect_err("budget pinned by blocked instances");
    assert_eq!(bp.in_flight, BUDGET);
    gate.set();
    for h in holders {
        assert!(h.wait().report.sink_completed);
    }

    // Phase 2: stream 32 real graphs through the 4-slot budget.
    let mut tickets = Vec::new();
    let mut pushed_back = 0;
    for i in 0..GRAPHS {
        let tenant = make_tenant(i, 5);
        let ticket = loop {
            match service.submit(&tenant.sched) {
                Ok(t) => break t,
                Err(bp) => {
                    assert!(bp.in_flight <= BUDGET, "budget exceeded: {}", bp.in_flight);
                    pushed_back += 1;
                    std::thread::yield_now();
                }
            }
        };
        assert!(
            service.in_flight() <= BUDGET,
            "in-flight instances exceeded the budget"
        );
        tickets.push((ticket, tenant));
    }
    for (ticket, _tenant) in tickets {
        assert!(ticket.wait().report.sink_completed);
    }
    let stats = service.stats();
    assert_eq!(stats.submitted, GRAPHS + BUDGET);
    assert_eq!(stats.completed, GRAPHS + BUDGET);
    // Phase 1's deliberate rejection plus every time the stream outran the
    // four slots (schedule-dependent, so counted rather than assumed zero).
    assert_eq!(stats.rejected, 1 + pushed_back);
}

/// Per-epoch arena isolation (PR 8): every descriptor a tenant's engine
/// hands out lives in that engine's own epoch arena and in **no**
/// co-resident tenant's arena, even when the instances ran concurrently
/// interleaved on one pool, faulted tenants grew replacement
/// incarnations, and the epochs quiesced at different times. The handles
/// stay valid after `wait()` because the ticket's `Arc<Engine>` pins the
/// epoch's slabs until the scheduler itself drops.
#[test]
fn epoch_arenas_are_isolated_across_concurrent_instances() {
    const TENANTS: u64 = 6;
    let pool = DetPool::new(0xA12E);
    let service = GraphService::with_config(
        &pool,
        ServiceConfig {
            max_in_flight: TENANTS as usize,
        },
    );
    let tenants: Vec<Tenant> = (0..TENANTS).map(|i| make_tenant(i, 13)).collect();
    let tickets: Vec<InstanceTicket<_>> = tenants
        .iter()
        .map(|t| service.submit(&t.sched).expect("admitted"))
        .collect();
    service.drive();
    for t in tickets {
        assert!(t.wait().report.sink_completed);
    }
    for (i, owner) in tenants.iter().enumerate() {
        for &k in &owner.keys {
            let d = owner
                .sched
                .desc_handle(k)
                .expect("completed epoch retains every task");
            assert!(
                owner.sched.owns_desc(d),
                "tenant {i}: descriptor for task {k} must live in its own epoch arena"
            );
            for (j, other) in tenants.iter().enumerate() {
                if i != j {
                    assert!(
                        !other.sched.owns_desc(d),
                        "tenant {i}'s descriptor for task {k} found in tenant {j}'s arena — \
                         epoch slabs leaked across instances"
                    );
                }
            }
        }
    }
}

/// Deterministic replay: the same DetPool seed and submission sequence
/// reproduce the identical cross-instance interleaving — every tenant's
/// trace is event-for-event identical across the two runs.
#[test]
fn det_replay_reproduces_cross_instance_interleaving() {
    fn run_once(seed: u64) -> Vec<Vec<(u64, Event)>> {
        let pool = DetPool::new(seed);
        let service = GraphService::new(&pool);
        let tenants: Vec<Tenant> = (0..8).map(|i| make_tenant(i, 3)).collect();
        let tickets: Vec<_> = tenants
            .iter()
            .map(|t| service.submit(&t.sched).expect("admitted"))
            .collect();
        service.drive();
        for t in tickets {
            t.wait();
        }
        tenants
            .iter()
            .map(|t| {
                // Timestamps vary run to run; the (seq, event) projection
                // is the schedule-determined part of the trace.
                t.trace
                    .events()
                    .into_iter()
                    .map(|e| (e.seq, e.event))
                    .collect()
            })
            .collect()
    }
    for seed in [1u64, 42, 0xDEAD] {
        let a = run_once(seed);
        let b = run_once(seed);
        assert_eq!(a, b, "seed {seed}: replay diverged");
    }
}

/// A graph whose compute panics. The panic must stay inside its own
/// epoch: co-resident instances and the pool itself are unaffected, and
/// only the faulty ticket's `wait` re-raises.
struct PanicGraph;

impl TaskGraph for PanicGraph {
    fn sink(&self) -> Key {
        1
    }
    fn predecessors(&self, k: Key) -> Vec<Key> {
        if k == 1 {
            vec![0]
        } else {
            vec![]
        }
    }
    fn successors(&self, k: Key) -> Vec<Key> {
        if k == 0 {
            vec![1]
        } else {
            vec![]
        }
    }
    fn compute(&self, k: Key, _ctx: &ComputeCtx<'_>) -> Result<(), Fault> {
        if k == 0 {
            panic!("tenant bug: compute(0) panicked");
        }
        Ok(())
    }
}

#[test]
fn instance_panic_stays_in_its_epoch() {
    let pool = Pool::new(PoolConfig::with_threads(2));
    let service = GraphService::new(&pool);
    let references = shape_references();

    let bad = FtScheduler::new(Arc::new(PanicGraph) as Arc<dyn TaskGraph>);
    let bad_ticket = service.submit(&bad).expect("admitted");
    let clean = make_tenant(0, 9);
    let clean_ticket = service.submit(&clean.sched).expect("admitted");

    // The clean co-resident epoch is untouched by the neighbor's panic.
    let out = clean_ticket.wait();
    check_tenant(
        "service-panic-neighbor",
        0,
        &clean,
        &out.report,
        OracleMode::Concurrent,
        &references,
    );

    let raised = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        bad_ticket.wait();
    }));
    assert!(raised.is_err(), "faulty ticket re-raises its own panic");
    // The panicked epoch still released its slot, and the pool still runs.
    assert_eq!(service.in_flight(), 0);
    assert_eq!(service.stats().completed, 2);
    let again = make_tenant(2, 9);
    let t = service.submit(&again.sched).expect("pool unaffected");
    assert!(t.wait().report.sink_completed);
}

/// `Engine::run` is one instance of its own, so two runs sharing a pool are
/// independent: the panic of one graph is re-raised in *its* caller only,
/// and the other run returns a complete, clean report. (On one pool-wide
/// latch and panic slot each caller waited for the union of both runs and
/// the payload went to whichever looked first.)
#[test]
fn concurrent_runs_on_one_pool_are_independent() {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let pool = Pool::new(PoolConfig::with_threads(2));
    let references = shape_references();
    for round in 0..20u64 {
        let clean = make_tenant(2 * round, round);
        let bad = FtScheduler::new(Arc::new(PanicGraph) as Arc<dyn TaskGraph>);
        // Both runs start together, so they overlap on the two workers.
        let start = std::sync::Barrier::new(2);
        let (bad_run, clean_run) = std::thread::scope(|s| {
            let bad_run = s.spawn(|| {
                start.wait();
                catch_unwind(AssertUnwindSafe(|| bad.run(&pool)))
            });
            start.wait();
            let clean_run = catch_unwind(AssertUnwindSafe(|| clean.sched.run(&pool)));
            (bad_run.join().expect("panic caught inside"), clean_run)
        });
        assert!(
            bad_run.is_err(),
            "round {round}: the panicking graph's caller must see its panic"
        );
        let report =
            clean_run.unwrap_or_else(|_| panic!("round {round}: neighbor's panic re-raised here"));
        check_tenant(
            &format!("concurrent-run-round{round}"),
            round,
            &clean,
            &report,
            OracleMode::Concurrent,
            &references,
        );
    }
}

/// Engine lifetime is by quiescence, not by refcount: jobs only borrow
/// their engine, so once the submitter has dropped both its ticket and its
/// own `Arc` right after `submit`, the quiesce hook's reference is the only
/// thing keeping the epoch — engine, arena, task map — alive while its jobs
/// run. The instance must still finish with correct outputs (faults and
/// recovery included), release its slot, and only then free the engine.
fn dropped_ticket_epoch_outlives_its_jobs(
    exec: &dyn ft_steal::pool::Executor,
    label: &str,
    round: u64,
) {
    let service = GraphService::new(exec);
    let references = shape_references();
    for i in 0..6u64 {
        let Tenant {
            dag,
            keys,
            plan,
            sched,
            shape_idx,
            ..
        } = make_tenant(i, round);
        let epoch = Arc::downgrade(&sched);
        drop(service.submit(&sched).expect("admitted"));
        drop(sched);
        service.drive();
        // No ticket to wait on: the hook frees the engine as its last act,
        // so the engine disappearing is the completion signal.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        while epoch.strong_count() > 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "{label}: tenant {i} never quiesced"
            );
            std::thread::yield_now();
        }
        assert_eq!(service.in_flight(), 0, "{label}: slot released");
        assert_eq!(service.stats().completed, i + 1);
        for &k in &keys {
            assert_eq!(
                dag.value_of(k),
                references[&shape_idx].get(&k).copied(),
                "{label}: tenant {i} task {k} differs from the sequential reference"
            );
        }
        assert_eq!(plan.fired() > 0, plan.planned() > 0, "{label}: plan ran");
    }
}

#[test]
fn dropped_ticket_epoch_outlives_its_jobs_on_pool() {
    let pool = Pool::new(PoolConfig::with_threads(3));
    dropped_ticket_epoch_outlives_its_jobs(&pool, "service-dropped-ticket-pool", 21);
}

#[test]
fn dropped_ticket_epoch_outlives_its_jobs_on_det_pool() {
    for seed in 0..8u64 {
        let pool = DetPool::new(0xD20B + seed);
        dropped_ticket_epoch_outlives_its_jobs(&pool, "service-dropped-ticket-det", seed);
    }
}
