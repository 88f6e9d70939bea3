//! The four workloads behind one interface.
//!
//! A [`Workload`] performs one *timed run* at a time in one of three
//! [`Mode`]s — the non-FT baseline, FT with no faults, FT under a fresh 5 %
//! fault plan — and returns its wall time, its checked operations and (when
//! asked) its trace data. For the three one-shot workloads a run is one
//! `Engine::run` on a fresh graph; for `service_stream` it is one closed-loop
//! segment of instances through the resident `GraphService`. The driver in
//! [`crate::measure`] turns runs into cycles and cycles into metrics without
//! knowing which kind it is driving.

use crate::graphs::{
    execute_in_order, HashTemplate, Instance, LuTemplate, Shape, SplitMix64, Template,
};
use crate::oracle::{after_notify_sites, check_report, fault_plan, Expect};
use crate::trace::{fold_episodes, Recorder, RunSpans, TopSpan, TracedGraph};
use ft_steal::metrics::MetricsSnapshot;
use ft_steal::pool::Pool;
use nabbit_ft::graph::TaskGraph;
use nabbit_ft::inject::FaultPlan;
use nabbit_ft::scheduler::{
    BaselineScheduler, Engine, FtPolicy, FtScheduler, GraphService, InstanceTicket, ServiceConfig,
};
use nabbit_ft::trace::Trace;
use nabbit_ft::RunReport;
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Which scheduler a timed run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `BaselineScheduler` — NABBIT without fault tolerance.
    Base,
    /// `FtScheduler` with `FaultPlan::none()`.
    Ft,
    /// `FtScheduler` under a fresh seeded plan failing ⌈5 %⌉ of the tasks.
    FtFaults,
}

impl Mode {
    /// The three modes in cycle order (also their `as usize` order).
    pub const ALL: [Mode; 3] = [Mode::Base, Mode::Ft, Mode::FtFaults];

    /// Name used in output and trace files.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Base => "base",
            Mode::Ft => "ft",
            Mode::FtFaults => "ft_faults",
        }
    }
}

/// Sums of the `RunReport` counters over a run's operations.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Successful compute executions.
    pub computes: u64,
    /// Recoveries performed.
    pub recoveries: u64,
    /// Recovery attempts suppressed by the recovery table.
    pub suppressed: u64,
    /// `ResetNode` invocations.
    pub resets: u64,
    /// Join-counter decrements delivered.
    pub notifications: u64,
    /// Duplicate notifications absorbed.
    pub dup_notifications: u64,
    /// Faults injected.
    pub injected: u64,
    /// Evicted-version reads observed.
    pub overwrite_faults: u64,
    /// Executions beyond the first, summed over tasks.
    pub re_executions: u64,
}

impl Counters {
    fn add(&mut self, r: &RunReport) {
        self.computes += r.computes;
        self.recoveries += r.recoveries;
        self.suppressed += r.recoveries_suppressed;
        self.resets += r.resets;
        self.notifications += r.notifications;
        self.dup_notifications += r.duplicate_notifications;
        self.injected += r.injected;
        self.overwrite_faults += r.overwrite_faults;
        self.re_executions += r.re_executions;
    }
}

/// Tracing request for one run.
pub struct TraceCtx {
    /// Where spans go.
    pub rec: Arc<Recorder>,
    /// Keep individual spans (for the trace file), not only sums.
    pub keep: bool,
    /// Also record scheduler events and fold them into recovery episodes
    /// (`FtFaults` runs only; costs an event log per run).
    pub events: bool,
}

/// What one timed run produced.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Wall time of the timed region, seconds.
    pub wall_s: f64,
    /// Operations attempted (graph executions).
    pub attempted: u64,
    /// Operations refused by admission control.
    pub rejected: u64,
    /// One message per failed operation.
    pub failures: Vec<String>,
    /// Counter sums over the operations that returned a report.
    pub counters: Counters,
    /// Latency of each operation, ms (the run's wall for one-shot runs).
    pub latencies_ms: Vec<f64>,
    /// Pool counter deltas over the run.
    pub pool: MetricsSnapshot,
    /// Callback span totals (traced runs only).
    pub spans: RunSpans,
    /// Recovery episode lengths, µs (traced `events` runs only).
    pub episodes_us: Vec<f64>,
}

/// One of the four workloads, set up and ready to run.
pub trait Workload {
    /// Tasks executed by one clean timed run.
    fn tasks(&self) -> u64;
    /// Dependence edges traversed by one clean timed run.
    fn edges(&self) -> u64;
    /// Graph instances per timed run.
    fn instances(&self) -> u64;
    /// Perform one timed run.
    fn run(&mut self, mode: Mode, plan_seed: u64, trace: Option<&TraceCtx>) -> RunResult;
    /// Execute one timed run's worth of work sequentially on the calling
    /// thread (`graphs::execute_in_order`) and check it like any other
    /// operation: the baseline of `speedup_vs_seq`. `wall_s` is the wall
    /// time of one such execution.
    fn run_seq(&mut self) -> RunResult;
}

fn panic_message(payload: Box<dyn Any + Send>) -> String {
    let text = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string());
    format!("panicked: {text}")
}

fn pool_delta(before: &MetricsSnapshot, after: &MetricsSnapshot) -> MetricsSnapshot {
    MetricsSnapshot {
        executed: after.executed - before.executed,
        spawned: after.spawned - before.spawned,
        steals: after.steals - before.steals,
        injector_steals: after.injector_steals - before.injector_steals,
        failed_steals: after.failed_steals - before.failed_steals,
        sleeps: after.sleeps - before.sleeps,
    }
}

/// Check one operation: counters first, then outputs against the
/// sequential reference.
fn check_operation(
    outcome: Result<RunReport, String>,
    inst: &dyn Instance,
    tasks: u64,
    planned: Option<usize>,
    counters: &mut Counters,
) -> Result<(), String> {
    let report = outcome?;
    counters.add(&report);
    let (expect, budget) = match planned {
        None => (Expect::Clean, 0),
        Some(n) => (Expect::Faulted(n), after_notify_sites(n)),
    };
    check_report(&report, tasks, expect)?;
    inst.verify(budget)
}

/// The FT engine for one operation: clean when `plan` is `None`, with the
/// scheduler's event log when `log` is given.
fn ft_engine(
    graph: Arc<dyn TaskGraph>,
    plan: Option<&Arc<FaultPlan>>,
    log: Option<&Arc<Trace>>,
) -> Arc<FtScheduler> {
    match (plan, log) {
        (None, _) => FtScheduler::new(graph),
        (Some(plan), None) => FtScheduler::with_plan(graph, Arc::clone(plan)),
        (Some(plan), Some(log)) => {
            FtScheduler::with_plan_traced(graph, Arc::clone(plan), Arc::clone(log))
        }
    }
}

/// Fold a scheduler event log into episodes; returns their lengths in µs
/// and, when spans are kept, adds them to the trace file.
fn collect_episodes(log: &Trace, log_start_ns: u64, ctx: &TraceCtx, run: u32, out: &mut Vec<f64>) {
    for ep in fold_episodes(&log.events()) {
        out.push(ep.dur_ns as f64 / 1000.0);
        if ctx.keep {
            ctx.rec.push_top(TopSpan {
                name: "recovery episode".to_string(),
                run,
                start_ns: log_start_ns + ep.start_ns,
                dur_ns: ep.dur_ns,
                key: ep.key,
            });
        }
    }
}

/// Heap-layout jitter: a few live allocations of random sizes, re-rolled
/// before every timed run.
///
/// A run's wall time depends on where malloc happens to put the engine and
/// its tables relative to cache-line boundaries (±15 % on `grid_wavefront`
/// between an engine at offset 0 and at offset 16 of a line, measured while
/// writing this), and glibc hands a freed chunk straight back to the next
/// request of the same size — so without this every run of a process sees
/// the same placement, and processes disagree by more than any bound while
/// each looks perfectly steady. Re-rolling the pads makes placement a
/// per-run variable that the median over cycles averages out
/// (Curtsinger & Berger's layout randomisation, in miniature). The same
/// holds one level up for the pool's own allocations (deque indices, latch),
/// which is why the end-to-end pass also re-rolls before every `Pool::new`
/// and spreads its cycles over all its set-ups.
pub struct Jitter {
    rng: SplitMix64,
    pads: Vec<Vec<u8>>,
}

impl Jitter {
    /// A seeded jitter source holding no pads yet.
    pub fn new(seed: u64) -> Self {
        Jitter {
            rng: SplitMix64(seed ^ 0x71_77E4),
            pads: Vec::new(),
        }
    }

    /// Replace the pads. Every 16-byte size class up to 1 KiB gets zero to
    /// three pads — glibc keeps a per-thread cache per class and would
    /// otherwise hand the engine its previous chunk back untouched — plus a
    /// few larger ones for the tables. New pads are allocated before the old
    /// ones are freed, so they cannot simply swap places.
    pub fn reroll(&mut self) {
        let mut fresh = Vec::with_capacity(128);
        for class in 1..=64usize {
            for _ in 0..self.rng.below(4) {
                fresh.push(vec![0u8; 16 * class - 8]);
            }
        }
        for _ in 0..self.rng.below(8) {
            fresh.push(vec![0u8; 1024 + 16 * self.rng.below(1024) as usize]);
        }
        self.pads = fresh;
    }
}

/// Sequentially execute a fresh instance of `template` and check its
/// outputs; returns the compute loop's wall time in seconds.
fn run_sequentially(template: &dyn Template) -> Result<f64, String> {
    let inst = template.fresh();
    let graph = inst.graph();
    let started = Instant::now();
    let outcome = execute_in_order(graph.as_ref(), template.seq_order());
    let wall_s = started.elapsed().as_secs_f64();
    outcome.map_err(|f| format!("sequential execution faulted: {f}"))?;
    inst.verify(0)?;
    Ok(wall_s)
}

/// Shortest stretch of sequential execution one `run_seq` call times: a
/// 0.4 ms reference is repeated (on fresh instances) and averaged, so one
/// call is not one noisy sample.
const MIN_SEQ_S: f64 = 0.010;

/// A one-shot workload: every timed run is one `Engine::run` to completion
/// on a fresh instance of one template.
pub struct OneShot<'p> {
    pool: &'p Pool,
    template: Box<dyn Template>,
    jitter: Jitter,
}

impl Workload for OneShot<'_> {
    fn tasks(&self) -> u64 {
        self.template.tasks()
    }
    fn edges(&self) -> u64 {
        self.template.edges()
    }
    fn instances(&self) -> u64 {
        1
    }

    fn run_seq(&mut self) -> RunResult {
        let mut result = RunResult::default();
        let mut total_s = 0.0;
        while result.attempted == 0 || (total_s < MIN_SEQ_S && result.failures.is_empty()) {
            result.attempted += 1;
            match run_sequentially(self.template.as_ref()) {
                Ok(wall_s) => total_s += wall_s,
                Err(why) => result.failures.push(format!("seq run: {why}")),
            }
        }
        result.wall_s = total_s / result.attempted as f64;
        result
    }

    fn run(&mut self, mode: Mode, plan_seed: u64, trace: Option<&TraceCtx>) -> RunResult {
        // Untimed: heap jitter, the fresh instance, its (optional) tracing
        // wrapper, the fault plan and the engine.
        self.jitter.reroll();
        let inst = self.template.fresh();
        let graph = match trace {
            Some(ctx) => TracedGraph::wrap(inst.graph(), &ctx.rec),
            None => inst.graph(),
        };
        let plan = (mode == Mode::FtFaults)
            .then(|| Arc::new(fault_plan(self.template.fault_candidates(), plan_seed)));
        let planned = plan.as_ref().map(|p| p.planned());
        let log = trace
            .filter(|ctx| ctx.events && plan.is_some())
            .map(|ctx| (Arc::new(Trace::new()), ctx.rec.now_ns()));
        let pool = self.pool;
        let run: Box<dyn FnOnce() -> RunReport + '_> = if mode == Mode::Base {
            let engine = BaselineScheduler::new(graph);
            Box::new(move || engine.run(pool))
        } else {
            let engine = ft_engine(graph, plan.as_ref(), log.as_ref().map(|(log, _)| log));
            Box::new(move || engine.run(pool))
        };
        let run_id = trace.map(|ctx| ctx.rec.begin_run(ctx.keep));
        let start_ns = trace.map_or(0, |ctx| ctx.rec.now_ns());
        let before = self.pool.metrics();

        // Timed: only the run itself (the engine drops afterwards).
        let started = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(run)).map_err(panic_message);
        let wall = started.elapsed();

        let mut result = RunResult {
            wall_s: wall.as_secs_f64(),
            attempted: 1,
            latencies_ms: vec![wall.as_secs_f64() * 1e3],
            pool: pool_delta(&before, &self.pool.metrics()),
            ..RunResult::default()
        };
        if let Some(ctx) = trace {
            let name = format!("run:{}", mode.name());
            result.spans = ctx.rec.end_run(&name, start_ns, wall.as_nanos() as u64);
            if let Some((log, log_start_ns)) = &log {
                collect_episodes(
                    log,
                    *log_start_ns,
                    ctx,
                    run_id.unwrap_or(0),
                    &mut result.episodes_us,
                );
            }
        }
        if let Err(why) = check_operation(
            outcome,
            inst.as_ref(),
            self.template.tasks(),
            planned,
            &mut result.counters,
        ) {
            result.failures.push(format!("{} run: {why}", mode.name()));
        }
        result
    }
}

/// Instances the client keeps outstanding, and the service's budget.
pub const IN_FLIGHT: usize = 8;

/// Every how many instances of an `FtFaults` segment one carries a plan.
const FAULT_EVERY: usize = 8;

/// `service_stream`: one resident pool behind one `GraphService`, driven by
/// one closed-loop client that keeps [`IN_FLIGHT`] tickets outstanding and
/// submits the next instance when the oldest `wait()` returns.
pub struct Stream<'p> {
    pool: &'p Pool,
    svc: GraphService<'p>,
    templates: Vec<Box<dyn Template>>,
    /// Template index of each instance of a segment, in submission order.
    schedule: Vec<usize>,
    jitter: Jitter,
}

/// What the client holds per outstanding instance.
struct Pending<P: FtPolicy> {
    index: usize,
    submitted: Instant,
    ticket: InstanceTicket<P>,
}

/// Raw results of one segment, before any checking.
struct Segment {
    wall_s: f64,
    reports: Vec<(usize, Result<RunReport, String>)>,
    latencies_ms: Vec<f64>,
    rejected: u64,
}

impl Stream<'_> {
    /// Run one closed-loop segment; `make(i)` builds instance `i`'s engine
    /// inside the loop, so engine construction and teardown are paid per
    /// instance, as a client of the service pays them.
    fn segment<P: FtPolicy>(&self, make: impl Fn(usize) -> Arc<Engine<P>>) -> Segment {
        let n = self.schedule.len();
        let mut seg = Segment {
            wall_s: 0.0,
            reports: Vec::with_capacity(n),
            latencies_ms: Vec::with_capacity(n),
            rejected: 0,
        };
        let mut window: VecDeque<Pending<P>> = VecDeque::with_capacity(IN_FLIGHT);
        let finish = |p: Pending<P>, seg: &mut Segment| {
            let outcome = catch_unwind(AssertUnwindSafe(|| p.ticket.wait().report));
            seg.latencies_ms
                .push(p.submitted.elapsed().as_secs_f64() * 1e3);
            seg.reports.push((p.index, outcome.map_err(panic_message)));
        };
        let started = Instant::now();
        for index in 0..n {
            if window.len() == IN_FLIGHT {
                let oldest = window.pop_front().expect("window is full");
                finish(oldest, &mut seg);
            }
            let engine = make(index);
            let submitted = Instant::now();
            match self.svc.submit(&engine) {
                Ok(ticket) => window.push_back(Pending {
                    index,
                    submitted,
                    ticket,
                }),
                Err(bp) => {
                    seg.rejected += 1;
                    seg.reports.push((index, Err(format!("rejected: {bp}"))));
                }
            }
        }
        while let Some(p) = window.pop_front() {
            finish(p, &mut seg);
        }
        seg.wall_s = started.elapsed().as_secs_f64();
        seg
    }
}

impl Workload for Stream<'_> {
    fn tasks(&self) -> u64 {
        self.schedule
            .iter()
            .map(|&k| self.templates[k].tasks())
            .sum()
    }
    fn edges(&self) -> u64 {
        self.schedule
            .iter()
            .map(|&k| self.templates[k].edges())
            .sum()
    }
    fn instances(&self) -> u64 {
        self.schedule.len() as u64
    }
    fn run_seq(&mut self) -> RunResult {
        let mut result = RunResult {
            attempted: self.schedule.len() as u64,
            ..RunResult::default()
        };
        for (index, &k) in self.schedule.iter().enumerate() {
            match run_sequentially(self.templates[k].as_ref()) {
                Ok(wall_s) => result.wall_s += wall_s,
                Err(why) => result.failures.push(format!("seq instance {index}: {why}")),
            }
        }
        result
    }

    fn run(&mut self, mode: Mode, plan_seed: u64, trace: Option<&TraceCtx>) -> RunResult {
        // Untimed: heap jitter, every instance's application state, tracing
        // wrapper and fault plan. Engines are built inside the timed loop.
        self.jitter.reroll();
        let insts: Vec<Box<dyn Instance>> = self
            .schedule
            .iter()
            .map(|&k| self.templates[k].fresh())
            .collect();
        let graphs: Vec<Arc<dyn TaskGraph>> = insts
            .iter()
            .map(|inst| match trace {
                Some(ctx) => TracedGraph::wrap(inst.graph(), &ctx.rec),
                None => inst.graph(),
            })
            .collect();
        let plans: Vec<Option<Arc<FaultPlan>>> = (0..insts.len())
            .map(|i| {
                (mode == Mode::FtFaults && i % FAULT_EVERY == FAULT_EVERY - 1).then(|| {
                    let candidates = self.templates[self.schedule[i]].fault_candidates();
                    Arc::new(fault_plan(candidates, plan_seed.wrapping_add(i as u64)))
                })
            })
            .collect();
        let with_events = trace.is_some_and(|ctx| ctx.events) && mode == Mode::FtFaults;
        let logs: Vec<Option<(Arc<Trace>, u64)>> = plans
            .iter()
            .map(|p| {
                p.as_ref().filter(|_| with_events).map(|_| {
                    (
                        Arc::new(Trace::new()),
                        trace.map_or(0, |ctx| ctx.rec.now_ns()),
                    )
                })
            })
            .collect();
        let run_id = trace.map(|ctx| ctx.rec.begin_run(ctx.keep));
        let start_ns = trace.map_or(0, |ctx| ctx.rec.now_ns());
        let before = self.pool.metrics();

        // Timed: the closed-loop segment.
        let seg = match mode {
            Mode::Base => self.segment(|i| BaselineScheduler::new(Arc::clone(&graphs[i]))),
            // `plans` is all `None` in a clean `Ft` segment.
            Mode::Ft | Mode::FtFaults => self.segment(|i| {
                ft_engine(
                    Arc::clone(&graphs[i]),
                    plans[i].as_ref(),
                    logs[i].as_ref().map(|(log, _)| log),
                )
            }),
        };

        let mut result = RunResult {
            wall_s: seg.wall_s,
            attempted: insts.len() as u64,
            rejected: seg.rejected,
            latencies_ms: seg.latencies_ms,
            pool: pool_delta(&before, &self.pool.metrics()),
            ..RunResult::default()
        };
        if let Some(ctx) = trace {
            let name = format!("segment:{}", mode.name());
            result.spans = ctx.rec.end_run(&name, start_ns, (seg.wall_s * 1e9) as u64);
            for (log, log_start_ns) in logs.iter().flatten() {
                collect_episodes(
                    log,
                    *log_start_ns,
                    ctx,
                    run_id.unwrap_or(0),
                    &mut result.episodes_us,
                );
            }
        }
        for (index, outcome) in seg.reports {
            let template = &self.templates[self.schedule[index]];
            let planned = plans[index].as_ref().map(|p| p.planned());
            if let Err(why) = check_operation(
                outcome,
                insts[index].as_ref(),
                template.tasks(),
                planned,
                &mut result.counters,
            ) {
                result
                    .failures
                    .push(format!("{} instance {index}: {why}", mode.name()));
            }
        }
        result
    }
}

/// Busy-work iterations per task of the service's grid instances (≈ 2 µs).
const SERVICE_GRID_WORK: u32 = 1_500;

/// Set a workload up on `pool`: generate its inputs from `seed`, run the
/// sequential references, compute the expected outputs. `smoke` shrinks
/// every size so the whole benchmark finishes in seconds. `layout_seed`
/// seeds the heap jitter only — shards of one pass share `seed` (the same
/// inputs) but not their sequence of heap layouts.
pub fn build<'p>(
    name: &str,
    pool: &'p Pool,
    seed: u64,
    layout_seed: u64,
    smoke: bool,
) -> Result<Box<dyn Workload + 'p>, String> {
    let one_shot = |template: Box<dyn Template>| -> Box<dyn Workload + 'p> {
        Box::new(OneShot {
            pool,
            template,
            jitter: Jitter::new(layout_seed),
        })
    };
    Ok(match name {
        "grid_wavefront" => {
            let n = if smoke { 48 } else { 256 };
            one_shot(Box::new(HashTemplate::new(Shape::Grid { n }, 0, seed)))
        }
        "fanout_dag" => {
            let (layers, width) = if smoke { (8, 16) } else { (32, 64) };
            let shape = Shape::layered(layers, width, 0.5, seed);
            one_shot(Box::new(HashTemplate::new(shape, 0, seed)))
        }
        "lu_tiles" => {
            let n = if smoke { 192 } else { 960 };
            let template = LuTemplate::new(n, 48, seed)?;
            if smoke {
                // Full size: the O(n³) cross-check runs in the unit tests
                // and the smoke run, not in every measured set-up.
                template.cross_check()?;
            }
            one_shot(Box::new(template))
        }
        "service_stream" => {
            let templates: Vec<Box<dyn Template>> = vec![
                Box::new(HashTemplate::new(
                    Shape::Grid { n: 16 },
                    SERVICE_GRID_WORK,
                    seed,
                )),
                Box::new(HashTemplate::new(
                    Shape::layered(4, 16, 0.5, seed),
                    0,
                    seed ^ 1,
                )),
                Box::new(LuTemplate::new(192, 48, seed)?),
            ];
            // A seeded shuffle of equal shares: the mix is fixed, only the
            // order depends on the seed, so runs with different seeds do
            // the same amount of work.
            let per_kind = if smoke { 22 } else { 80 };
            let mut schedule: Vec<usize> = (0..templates.len() * per_kind)
                .map(|i| i % templates.len())
                .collect();
            let mut rng = SplitMix64(seed ^ 0x5C4E_D01E);
            for i in (1..schedule.len()).rev() {
                schedule.swap(i, rng.below(i as u64 + 1) as usize);
            }
            let svc = GraphService::with_config(
                pool,
                ServiceConfig {
                    max_in_flight: IN_FLIGHT,
                    ..ServiceConfig::default()
                },
            );
            Box::new(Stream {
                pool,
                svc,
                templates,
                schedule,
                jitter: Jitter::new(layout_seed),
            })
        }
        other => return Err(format!("unknown workload '{other}'")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_steal::pool::PoolConfig;

    #[test]
    fn every_workload_runs_clean_in_every_mode_at_smoke_size() {
        let pool = Pool::new(PoolConfig::with_threads(2));
        for spec in &crate::spec::WORKLOADS {
            let mut w = build(spec.name, &pool, 3, 3, true).unwrap();
            assert!(w.tasks() > 0 && w.edges() > 0);
            let seq = w.run_seq();
            assert!(
                seq.failures.is_empty() && seq.wall_s > 0.0,
                "{:?}",
                seq.failures
            );
            assert!(seq.attempted >= w.instances());
            for mode in Mode::ALL {
                let r = w.run(mode, 11, None);
                assert_eq!(r.failures, Vec::<String>::new(), "{} {:?}", spec.name, mode);
                assert_eq!(r.attempted, w.instances());
                assert_eq!(r.latencies_ms.len() as u64, w.instances());
                assert!(r.wall_s > 0.0);
                match mode {
                    Mode::FtFaults => assert!(r.counters.injected > 0 && r.counters.recoveries > 0),
                    _ => assert_eq!(r.counters.computes, w.tasks()),
                }
            }
        }
    }

    #[test]
    fn traced_runs_see_one_compute_span_per_execution() {
        let pool = Pool::new(PoolConfig::with_threads(2));
        let mut w = build("fanout_dag", &pool, 5, 5, true).unwrap();
        let ctx = TraceCtx {
            rec: Recorder::new(1 << 12),
            keep: true,
            events: true,
        };
        let clean = w.run(Mode::Ft, 1, Some(&ctx));
        assert_eq!(clean.spans.count[0], w.tasks());
        assert!(clean.failures.is_empty());
        let faulted = w.run(Mode::FtFaults, 1, Some(&ctx));
        assert!(faulted.failures.is_empty(), "{:?}", faulted.failures);
        assert_eq!(faulted.spans.count[0], faulted.counters.computes);
        assert!(
            !faulted.episodes_us.is_empty(),
            "observed faults produce episodes"
        );
    }

    /// A template whose instances all store one deliberately wrong hash.
    struct Corrupting(HashTemplate);

    impl Template for Corrupting {
        fn tasks(&self) -> u64 {
            self.0.tasks()
        }
        fn edges(&self) -> u64 {
            self.0.edges()
        }
        fn fault_candidates(&self) -> &[nabbit_ft::graph::Key] {
            self.0.fault_candidates()
        }
        fn seq_order(&self) -> &[nabbit_ft::graph::Key] {
            self.0.seq_order()
        }
        fn fresh(&self) -> Box<dyn Instance> {
            self.0.fresh_corrupt(7)
        }
    }

    #[test]
    fn a_wrong_hash_is_a_failed_operation_never_a_panic() {
        let pool = Pool::new(PoolConfig::with_threads(2));
        let template = Corrupting(HashTemplate::new(Shape::Grid { n: 8 }, 0, 1));
        let mut w = OneShot {
            pool: &pool,
            template: Box::new(template),
            jitter: Jitter::new(1),
        };
        assert_eq!(w.run_seq().failures.len(), 1);
        for mode in Mode::ALL {
            let r = w.run(mode, 3, None);
            assert_eq!(r.attempted, 1);
            assert_eq!(r.failures.len(), 1, "{mode:?} must be reported as failed");
            assert!(r.failures[0].contains("task 7:"), "{:?}", r.failures);
        }
    }

    #[test]
    fn unknown_workload_is_an_error() {
        let pool = Pool::new(PoolConfig::with_threads(1));
        assert!(build("nope", &pool, 1, 1, true).is_err());
    }
}
