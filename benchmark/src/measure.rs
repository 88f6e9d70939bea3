//! From timed runs to metrics: the set-up protocol, the measured cycles of
//! the end-to-end pass, and the traced pass behind the per-layer metrics.
//!
//! **Cycle.** One cycle is three timed runs — `base`, `ft`, `ft_faults` —
//! on fresh inputs, in an order that rotates every cycle so slow drift
//! (thermal, a neighbour on the host) hits each mode equally. Ratios are
//! medians of *per-cycle* ratios, so the two runs compared are never more
//! than a fraction of a second apart.
//!
//! **Shards and set-up.** An end-to-end pass is [`SHARDS`] shards, each in
//! a process of its own (see [`run_shard`] for why). Every shard performs
//! the whole set-up a user pays before the first useful run — pool threads,
//! input generation, the sequential evaluation behind the oracle, one
//! warm-up cycle — and `setup_s` is the median over the shards, which keeps
//! a 0.1 s quantity from being one noisy sample. The sequential reference
//! of `speedup_vs_seq` is timed inside the measurement, every
//! [`SEQ_EVERY`]th cycle, so it sees the same machine state as the runs it
//! is compared with.
//!
//! **Passes.** The end-to-end pass runs with tracing off. The traced pass
//! is a separate invocation (`--trace 1`): layer replays, then cycles
//! through a `TracedGraph`, then a 1-worker pass whose residual
//! `(wall − Σ callback spans) / tasks` is the scheduler's own cost per
//! task. Nothing measured under tracing feeds an end-to-end metric.

use crate::env;
use crate::json::Json;
use crate::replay;
use crate::spec::{MetricSpec, END_TO_END, PER_LAYER};
use crate::stats::{highest_supported_percentile, median, percentile, quartiles};
use crate::trace::{Kind, Recorder};
use crate::workload::{build, Mode, RunResult, TraceCtx, Workload};
use ft_steal::pool::{Pool, PoolConfig};
use std::time::Instant;

/// Shards — processes, set-ups — per end-to-end pass; `setup_s` is the
/// median of their set-ups.
pub const SHARDS: u64 = 16;
/// Fewest cycles a full-size run measures, whatever the time budget.
const MIN_CYCLES: u64 = 20;
/// Most traced cycles of the 2-worker traced pass.
const TRACED_CYCLES: u64 = 20;
/// Most cycles of the 1-worker pass.
const ONE_WORKER_CYCLES: u64 = 5;
/// Callback spans written to a trace file at most.
const MAX_TRACE_SPANS: usize = 100_000;

/// What to run.
#[derive(Debug, Clone)]
pub struct Params {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Measurement budget, seconds.
    pub seconds: f64,
    /// Smoke scale: tiny inputs, a handful of cycles.
    pub smoke: bool,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The value (a median unless the metric says otherwise).
    pub value: f64,
    /// Quartiles of the samples behind the value, when it has samples.
    pub quartiles: Option<(f64, f64)>,
    /// Number of samples behind the value.
    pub samples: usize,
}

/// Result of one pass over one workload.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Measured cycles.
    pub cycles: u64,
    /// Metrics, in spec order.
    pub metrics: Vec<Measured>,
    /// Chrome trace JSON of the kept cycle (traced pass only).
    pub chrome_trace: Option<String>,
    /// Instance latency at the highest percentile the sample supports (at
    /// least ten samples beyond it): `(percentile, ms, samples)`.
    pub latency_tail: Option<(f64, f64, usize)>,
}

impl Outcome {
    fn absorb(&mut self, r: &RunResult) {
        self.attempted += r.attempted;
        self.failed += r.failures.len() as u64;
        for f in &r.failures {
            if self.failures.len() < 8 {
                self.failures.push(f.clone());
            }
        }
    }
}

/// Every how many cycles the sequential reference is timed as well.
const SEQ_EVERY: u64 = 2;

/// One cycle: the three modes in the rotation for `cycle`.
fn run_cycle(
    w: &mut dyn Workload,
    cycle: u64,
    seed: u64,
    outcome: &mut Outcome,
    mut sink: impl FnMut(Mode, RunResult),
) {
    for slot in 0..3 {
        let mode = Mode::ALL[((cycle + slot) % 3) as usize];
        // A fresh plan per cycle, a function of the seed and the cycle only.
        let plan_seed = seed.wrapping_mul(0x9E37_79B9).wrapping_add(cycle);
        let r = w.run(mode, plan_seed, None);
        outcome.absorb(&r);
        sink(mode, r);
    }
}

/// One from-scratch set-up: pool, inputs, sequential reference, one warm-up
/// cycle. `then` receives the ready workload and the set-up's wall time.
fn with_setup<R>(
    p: &Params,
    threads: usize,
    layout_seed: u64,
    outcome: &mut Outcome,
    then: impl FnOnce(&mut dyn Workload, &Pool, f64, &mut Outcome) -> R,
) -> Result<R, String> {
    let started = Instant::now();
    let pool = Pool::new(PoolConfig::with_threads(threads));
    let mut w = build(&p.workload, &pool, p.seed, layout_seed, p.smoke)?;
    run_cycle(w.as_mut(), 0, p.seed ^ 0xAA, outcome, |_, _| {});
    let setup_s = started.elapsed().as_secs_f64();
    Ok(then(w.as_mut(), &pool, setup_s, outcome))
}

/// A metric of the spec with its value. `samples` are the values `value`
/// is the median of (their quartiles are reported with it); estimators that
/// are not a median of their samples pass the sample count alone.
fn measured(spec: &MetricSpec, value: f64, samples: &[f64], n: usize) -> Measured {
    Measured {
        name: spec.name,
        unit: spec.unit,
        value,
        quartiles: (samples.len() >= 2).then(|| {
            let (q1, _, q3) = quartiles(samples);
            (q1, q3)
        }),
        samples: n,
    }
}

/// Raw samples of one shard of an end-to-end pass: one process, one set-up,
/// its share of the measured cycles.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Shard {
    /// Wall time of the set-up, seconds.
    pub setup_s: f64,
    /// Wall times of the measured cycles per mode (`base`, `ft`,
    /// `ft_faults`), seconds.
    pub wall: [Vec<f64>; 3],
    /// Latency of every `ft` instance, ms.
    pub ft_latency_ms: Vec<f64>,
    /// Wall times of the sequential reference (every [`SEQ_EVERY`]th
    /// cycle), seconds.
    pub seq_wall: Vec<f64>,
    /// Tasks per timed run.
    pub tasks: f64,
    /// Instances per timed run.
    pub instances: f64,
    /// Peak resident set of the shard's process, MiB.
    pub peak_rss_mib: f64,
    /// Operations attempted (warm-up included).
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
}

const MODE_KEYS: [&str; 3] = ["base_s", "ft_s", "ft_faults_s"];

impl Shard {
    /// Serialize for the parent process.
    pub fn to_json(&self) -> Json {
        let nums = |xs: &[f64]| Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect());
        let mut doc = Json::obj().with("setup_s", self.setup_s);
        for (key, wall) in MODE_KEYS.iter().zip(&self.wall) {
            doc.set(key, nums(wall));
        }
        doc.with("ft_latency_ms", nums(&self.ft_latency_ms))
            .with("seq_s", nums(&self.seq_wall))
            .with("tasks", self.tasks)
            .with("instances", self.instances)
            .with("peak_rss_mib", self.peak_rss_mib)
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with(
                "failures",
                Json::Arr(
                    self.failures
                        .iter()
                        .map(|f| Json::from(f.as_str()))
                        .collect(),
                ),
            )
    }

    /// Parse what [`Shard::to_json`] wrote.
    pub fn from_json(doc: &Json) -> Result<Shard, String> {
        let num = |key: &str| {
            doc.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("shard result lacks '{key}'"))
        };
        let nums = |key: &str| -> Result<Vec<f64>, String> {
            doc.get(key)
                .ok_or_else(|| format!("shard result lacks '{key}'"))?
                .items()
                .iter()
                .map(|x| {
                    x.as_f64()
                        .ok_or_else(|| format!("'{key}' holds a non-number"))
                })
                .collect()
        };
        Ok(Shard {
            setup_s: num("setup_s")?,
            wall: [
                nums(MODE_KEYS[0])?,
                nums(MODE_KEYS[1])?,
                nums(MODE_KEYS[2])?,
            ],
            ft_latency_ms: nums("ft_latency_ms")?,
            seq_wall: nums("seq_s")?,
            tasks: num("tasks")?,
            instances: num("instances")?,
            peak_rss_mib: num("peak_rss_mib")?,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            failures: doc
                .get("failures")
                .map(|f| {
                    f.items()
                        .iter()
                        .filter_map(Json::as_str)
                        .map(str::to_string)
                        .collect()
                })
                .unwrap_or_default(),
        })
    }
}

/// Measure shard `index` of `of`: one set-up from scratch (its cycle is the
/// warm-up), then cycles for this shard's share of `p.seconds`.
///
/// An end-to-end pass is [`SHARDS`] of these, **each in a process of its
/// own**. How fast a zero-work graph runs depends on state that is fixed
/// for the life of a process or a pool — where the allocator put the pool's
/// deque indices and the engine relative to cache lines, which physical
/// pages back the arena — so one process measures one draw of that state
/// very precisely: same-seed runs of `grid_wavefront` disagreed by 20 % in
/// `ft_time_ratio` while each reported quartiles a few percent apart.
/// Sampling the state [`SHARDS`] times per pass (and the heap placement of
/// every engine, see `workload::Jitter`) turns that hidden per-process bias
/// into within-pass spread that the median averages out.
pub fn run_shard(p: &Params, index: u64, of: u64) -> Result<Shard, String> {
    let mut outcome = Outcome::default();
    let layout_seed = p.seed ^ crate::graphs::mix(index + 1);
    let mut shard = with_setup(
        p,
        env::pool_threads(),
        layout_seed,
        &mut outcome,
        |w, _, setup_s, outcome| {
            let mut shard = Shard {
                setup_s,
                tasks: w.tasks() as f64,
                instances: w.instances() as f64,
                ..Shard::default()
            };
            let budget = p.seconds / of as f64;
            let min_cycles = if p.smoke { 1 } else { MIN_CYCLES.div_ceil(of) };
            let started = Instant::now();
            let mut done = 0u64;
            loop {
                let elapsed = started.elapsed().as_secs_f64();
                // Stop at the budget, but not before this shard's share of
                // `MIN_CYCLES` (statistics) unless three budgets have passed
                // (the contract's time cap). A smoke shard measures one cycle.
                let enough = (done >= min_cycles && (p.smoke || elapsed >= budget))
                    || (!p.smoke && elapsed >= 3.0 * budget);
                if enough {
                    break;
                }
                // Cycle numbers are unique across the pass: rotation and fault
                // plans differ from shard to shard.
                let cycle = index + done * of;
                run_cycle(w, cycle, p.seed, outcome, |mode, r| {
                    shard.wall[mode as usize].push(r.wall_s);
                    if mode == Mode::Ft {
                        shard.ft_latency_ms.extend_from_slice(&r.latencies_ms);
                    }
                });
                // Offset by the shard index so every shard times the reference.
                if (done + index) % SEQ_EVERY == 0 {
                    let r = w.run_seq();
                    outcome.absorb(&r);
                    shard.seq_wall.push(r.wall_s);
                }
                done += 1;
            }
            shard
        },
    )?;
    shard.peak_rss_mib = env::peak_rss_mib().unwrap_or(0.0);
    shard.attempted = outcome.attempted;
    shard.failed = outcome.failed;
    shard.failures = outcome.failures;
    Ok(shard)
}

/// Pool the shards of one end-to-end pass into its metrics.
pub fn combine(shards: &[Shard]) -> Outcome {
    let mut outcome = Outcome::default();
    let pooled = |f: &dyn Fn(&Shard) -> &[f64]| -> Vec<f64> {
        shards.iter().flat_map(|s| f(s).iter().copied()).collect()
    };
    for s in shards {
        outcome.attempted += s.attempted;
        outcome.failed += s.failed;
        let room = 8usize.saturating_sub(outcome.failures.len());
        outcome
            .failures
            .extend(s.failures.iter().take(room).cloned());
    }
    let (base, ft, faults) = (
        pooled(&|s| &s.wall[0]),
        pooled(&|s| &s.wall[1]),
        pooled(&|s| &s.wall[2]),
    );
    let (tasks, instances) = shards
        .first()
        .map_or((0.0, 0.0), |s| (s.tasks, s.instances));
    outcome.cycles = ft.len() as u64;
    let per_cycle = |f: &dyn Fn(usize) -> f64| -> Vec<f64> { (0..ft.len()).map(f).collect() };
    let ft_wall = median(&ft);
    let seq_wall = median(&pooled(&|s| &s.seq_wall));
    let setups: Vec<f64> = shards.iter().map(|s| s.setup_s).collect();
    let rss: Vec<f64> = shards.iter().map(|s| s.peak_rss_mib).collect();
    // (name, value, the samples the value is the median of, sample count)
    let lat = pooled(&|s| &s.ft_latency_ms);
    let ft_ratios = per_cycle(&|i| ft[i] / base[i]);
    let rec_ratios = per_cycle(&|i| faults[i] / ft[i]);
    let rows: [(&'static str, f64, Vec<f64>, usize); 10] = [
        ("setup_s", median(&setups), setups.clone(), setups.len()),
        (
            "tasks_per_s",
            tasks / ft_wall,
            per_cycle(&|i| tasks / ft[i]),
            ft.len(),
        ),
        (
            "base_tasks_per_s",
            tasks / median(&base),
            per_cycle(&|i| tasks / base[i]),
            base.len(),
        ),
        (
            "ft_time_ratio",
            median(&ft_ratios),
            ft_ratios.clone(),
            ft_ratios.len(),
        ),
        (
            "recovery_time_ratio",
            median(&rec_ratios),
            rec_ratios.clone(),
            rec_ratios.len(),
        ),
        (
            "speedup_vs_seq",
            seq_wall / ft_wall,
            per_cycle(&|i| seq_wall / ft[i]),
            ft.len(),
        ),
        (
            "instances_per_s",
            instances / ft_wall,
            per_cycle(&|i| instances / ft[i]),
            ft.len(),
        ),
        ("instance_ms_p50", median(&lat), lat.clone(), lat.len()),
        (
            "instance_ms_p90",
            percentile(&lat, 90.0),
            Vec::new(),
            lat.len(),
        ),
        ("peak_rss_mb", median(&rss), rss.clone(), rss.len()),
    ];
    for (spec, (name, value, samples, n)) in END_TO_END.iter().zip(rows) {
        assert_eq!(spec.name, name, "rows follow the spec's order");
        outcome.metrics.push(measured(spec, value, &samples, n));
    }
    let tail = highest_supported_percentile(lat.len());
    outcome.latency_tail = Some((tail, percentile(&lat, tail), lat.len()));
    outcome
}

/// Samples of the traced pass, one entry per traced cycle.
#[derive(Default)]
struct Traced {
    untraced_ft_wall: Vec<f64>,
    ft: Vec<RunResult>,
    faults: Vec<RunResult>,
    episodes_us: Vec<f64>,
}

/// Residual scheduler time of a traced run, ns: wall minus callback spans
/// (meaningful on one worker, where wall is also the thread's time).
fn residual_ns(r: &RunResult) -> f64 {
    r.wall_s * 1e9 - r.spans.total_ns() as f64
}

/// The traced pass (`--trace 1`).
pub fn per_layer(p: &Params) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let threads = env::pool_threads();
    let (replay_ops, traced_cycles, one_worker_cycles) = if p.smoke {
        (2_000, 2, 2)
    } else {
        (120_000, TRACED_CYCLES, ONE_WORKER_CYCLES)
    };

    // Traced cycles on the full pool: ft untraced, ft and ft_faults through
    // the TracedGraph, then ft_faults once more with the scheduler's event
    // log on (episodes only — its wall time is never used). The baseline is
    // traced in the 1-worker pass below.
    let (replays, traced, tasks, edges, instances, seq_s, chrome) =
        with_setup(p, threads, p.seed, &mut outcome, |w, pool, _, outcome| {
            let replays = replay::run_all(pool, replay_ops);
            let rec = Recorder::new((w.tasks() * 3 * 4) as usize);
            let mut traced = Traced::default();
            let started = Instant::now();
            let mut cycle = 0u64;
            while cycle < traced_cycles
                && (cycle < 2 || started.elapsed().as_secs_f64() < 0.45 * p.seconds)
            {
                let plan_seed = p.seed.wrapping_mul(0x51ED).wrapping_add(cycle);
                let ctx = TraceCtx {
                    rec: rec.clone(),
                    keep: cycle == 0,
                    events: false,
                };
                // Three runs in rotating order: ft untraced, ft traced,
                // ft_faults traced.
                for slot in 0..3 {
                    match (cycle + slot) % 3 {
                        0 => {
                            let r = w.run(Mode::Ft, plan_seed, None);
                            outcome.absorb(&r);
                            traced.untraced_ft_wall.push(r.wall_s);
                        }
                        1 => {
                            let r = w.run(Mode::Ft, plan_seed, Some(&ctx));
                            outcome.absorb(&r);
                            traced.ft.push(r);
                        }
                        _ => {
                            let r = w.run(Mode::FtFaults, plan_seed, Some(&ctx));
                            outcome.absorb(&r);
                            traced.faults.push(r);
                        }
                    }
                }
                let ctx = TraceCtx {
                    events: true,
                    ..ctx
                };
                let r = w.run(Mode::FtFaults, plan_seed, Some(&ctx));
                outcome.absorb(&r);
                traced.episodes_us.extend_from_slice(&r.episodes_us);
                cycle += 1;
            }
            outcome.cycles = cycle;
            let seq_s: Vec<f64> = (0..3)
                .map(|_| {
                    let r = w.run_seq();
                    outcome.absorb(&r);
                    r.wall_s
                })
                .collect();
            let chrome = rec.chrome_trace(&p.workload, MAX_TRACE_SPANS);
            (
                replays,
                traced,
                w.tasks() as f64,
                w.edges() as f64,
                w.instances() as f64,
                seq_s,
                chrome,
            )
        })?;
    outcome.chrome_trace = Some(chrome);

    // 1-worker pass: base and ft through the TracedGraph on a single worker.
    let (base_resid, ft_resid, cb_ns) =
        with_setup(p, 1, p.seed, &mut outcome, |w, _, _, outcome| {
            let ctx = TraceCtx {
                rec: Recorder::new(0),
                keep: false,
                events: false,
            };
            let (mut base, mut ft, mut cb) = (Vec::new(), Vec::new(), Vec::new());
            let started = Instant::now();
            let mut cycle = 0u64;
            while cycle < one_worker_cycles
                && (cycle < 2 || started.elapsed().as_secs_f64() < 0.2 * p.seconds)
            {
                let order = if cycle % 2 == 0 {
                    [Mode::Base, Mode::Ft]
                } else {
                    [Mode::Ft, Mode::Base]
                };
                for mode in order {
                    let r = w.run(mode, 0, Some(&ctx));
                    outcome.absorb(&r);
                    match mode {
                        Mode::Base => {
                            cb.push(r.spans.callback_ns() as f64);
                            base.push(residual_ns(&r));
                        }
                        _ => ft.push(residual_ns(&r)),
                    }
                }
                cycle += 1;
            }
            (base, ft, cb)
        })?;
    let ft_sched = median(&ft_resid);

    let (ft_runs, fault_runs) = (&traced.ft, &traced.faults);
    let n = ft_runs.len();
    let thr = threads as f64;
    let over = |runs: &[RunResult], f: &dyn Fn(&RunResult) -> f64| -> Vec<f64> {
        runs.iter().map(f).collect()
    };
    let ratio = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };
    // (name, value, samples the value is the median of, sample count)
    let mut values: Vec<(&'static str, f64, Vec<f64>, usize)> = replays
        .into_iter()
        .map(|(k, v)| (k, v, Vec::new(), replay::BATCHES))
        .collect();
    let mut push = |name: &'static str, samples: Vec<f64>| {
        let n = samples.len();
        values.push((name, median(&samples), samples, n));
    };

    // steal.* — pool counters over the traced ft runs.
    push(
        "steal.deque.steals_per_ktask",
        over(ft_runs, &|r| r.pool.steals as f64 / tasks * 1e3),
    );
    push(
        "steal.deque.failed_steal_frac",
        over(ft_runs, &|r| {
            ratio(
                r.pool.failed_steals as f64,
                (r.pool.failed_steals + r.pool.steals) as f64,
            )
        }),
    );
    push(
        "steal.injector.steals_per_kinstance",
        over(ft_runs, &|r| {
            r.pool.injector_steals as f64 / instances * 1e3
        }),
    );
    push(
        "steal.pool.sleeps_per_ktask",
        over(ft_runs, &|r| r.pool.sleeps as f64 / tasks * 1e3),
    );
    push(
        "steal.pool.nonwork_frac",
        over(ft_runs, &|r| {
            1.0 - (r.spans.total_ns() as f64 + ft_sched) / (thr * r.wall_s * 1e9)
        }),
    );

    // core.engine / core.ft — the 1-worker residuals.
    let scaled = |xs: &[f64], by: f64| -> Vec<f64> { xs.iter().map(|x| x / by).collect() };
    // Same-cycle differences: the two runs of a pair are adjacent in time.
    let tax: Vec<f64> = ft_resid
        .iter()
        .zip(&base_resid)
        .map(|(f, b)| f - b)
        .collect();
    push("core.engine.sched_ns_per_task", scaled(&base_resid, tasks));
    push("core.engine.sched_ns_per_edge", scaled(&base_resid, edges));
    push("core.engine.graph_cb_ns_per_task", scaled(&cb_ns, tasks));
    push(
        "core.engine.notifications_per_task",
        over(ft_runs, &|r| r.counters.notifications as f64 / tasks),
    );
    push("core.ft.tax_ns_per_task", scaled(&tax, tasks));
    push("core.ft.tax_ns_per_edge", scaled(&tax, edges));
    push(
        "core.ft.dup_notifications_per_ktask",
        over(fault_runs, &|r| {
            r.counters.dup_notifications as f64 / tasks * 1e3
        }),
    );

    // core.recovery / core.blocks — counters of the traced ft_faults runs.
    let per_fault = |f: &dyn Fn(&RunResult) -> u64| -> Vec<f64> {
        over(fault_runs, &|r| {
            ratio(f(r) as f64, r.counters.injected as f64)
        })
    };
    push(
        "core.recovery.reexec_per_fault",
        per_fault(&|r| r.counters.re_executions),
    );
    push(
        "core.recovery.recoveries_per_fault",
        per_fault(&|r| r.counters.recoveries),
    );
    push(
        "core.recovery.resets_per_fault",
        per_fault(&|r| r.counters.resets),
    );
    push(
        "core.recovery.suppressed_frac",
        over(fault_runs, &|r| {
            ratio(
                r.counters.suppressed as f64,
                (r.counters.suppressed + r.counters.recoveries) as f64,
            )
        }),
    );
    push("core.recovery.episode_us_p50", traced.episodes_us.clone());
    // Thread-time a faulted run spends beyond the clean one, minus the
    // re-executed compute, per re-execution — same-cycle pairs.
    push(
        "core.recovery.ns_per_reexec",
        (0..n.min(fault_runs.len()))
            .map(|i| {
                let (f, c) = (&fault_runs[i], &ft_runs[i]);
                let extra_wall = (f.wall_s - c.wall_s) * 1e9 * thr;
                let extra_compute = f.spans.sum_ns[Kind::Compute as usize] as f64
                    - c.spans.sum_ns[Kind::Compute as usize] as f64;
                ratio(extra_wall - extra_compute, f.counters.re_executions as f64)
            })
            .collect(),
    );
    push(
        "core.blocks.overwrite_faults_per_ktask",
        over(fault_runs, &|r| {
            r.counters.overwrite_faults as f64 / tasks * 1e3
        }),
    );

    // core.service — refusals of the traced ft runs (the latency tail is
    // added below, it is a percentile, not a median).
    push(
        "core.service.rejected_frac",
        over(ft_runs, &|r| ratio(r.rejected as f64, r.attempted as f64)),
    );

    // apps.lu — the graph's own compute, from the compute spans.
    let compute_us: Vec<f64> = ft_runs
        .iter()
        .take(3)
        .flat_map(|r| r.spans.compute_ns.iter().map(|&ns| f64::from(ns) / 1e3))
        .collect();
    push("apps.lu.compute_us_per_task_p50", compute_us);
    push(
        "apps.lu.compute_frac",
        over(ft_runs, &|r| {
            r.spans.sum_ns[Kind::Compute as usize] as f64 / (thr * r.wall_s * 1e9)
        }),
    );
    push("apps.lu.seq_s", seq_s);

    // bench — what tracing costs, and how much of the scheduler's cost per
    // task the replays explain.
    push(
        "bench.trace_overhead_ratio",
        (0..n)
            .map(|i| ft_runs[i].wall_s / traced.untraced_ft_wall[i])
            .collect(),
    );
    let latencies: Vec<f64> = ft_runs
        .iter()
        .flat_map(|r| r.latencies_ms.iter().copied())
        .collect();
    values.push((
        "core.service.instance_ms_p99",
        percentile(&latencies, 99.0),
        Vec::new(),
        latencies.len(),
    ));
    let value_of = |name: &str| values.iter().find(|v| v.0 == name).map_or(0.0, |v| v.1);
    let predicted = predicted_sched_ns_per_task(&value_of, edges / tasks);
    let coverage = ratio(predicted, value_of("core.engine.sched_ns_per_task"));
    values.push(("bench.budget_coverage", coverage, Vec::new(), 1));

    for spec in &PER_LAYER {
        let (_, value, samples, n) = values
            .iter()
            .find(|v| v.0 == spec.name)
            .ok_or_else(|| format!("per-layer metric '{}' was not measured", spec.name))?;
        outcome.metrics.push(measured(spec, *value, samples, *n));
    }
    Ok(outcome)
}

/// The budget: replayed cost per operation × operations per task of the
/// baseline traversal on one worker, for a graph with `e` edges per task.
///
/// Per task: one task-map insert, one arena allocation, one descriptor, one
/// `record_compute`, one `InitAndCompute` job. Per job: create + run, a
/// deque push + pop, a latch increment + decrement. Per edge: one
/// `TryInitCompute` job, a failed insert-if-absent probe plus two look-ups
/// (`GetTask` on the way up, again when the notification is delivered), and
/// one register/scan round of the notify cells. Per callback span: one timer read that lands outside the
/// span (three spans per task: predecessors, out-degree, compute).
pub fn predicted_sched_ns_per_task(value_of: &dyn Fn(&str) -> f64, e: f64) -> f64 {
    let job = value_of("steal.job.new_run_ns")
        + value_of("steal.deque.push_pop_ns")
        + value_of("steal.pool.latch_inc_dec_ns");
    let notify = if e <= 4.0 {
        value_of("core.task.notify_inline_ns_per_edge")
    } else {
        value_of("core.task.notify_spill_ns_per_edge")
    };
    value_of("cmap.map.insert_ns")
        + value_of("steal.arena.alloc_ns")
        + value_of("core.task.basedesc_new_ns")
        + value_of("core.inject.record_compute_ns")
        + job
        + e * (job + 3.0 * value_of("cmap.map.get_hit_ns") + notify)
        + 3.0 * value_of("bench.timer_ns")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(workload: &str) -> Params {
        Params {
            workload: workload.to_string(),
            seed: 2,
            seconds: 1.0,
            smoke: true,
        }
    }

    #[test]
    fn shards_combine_into_every_metric_once_in_spec_order() {
        let p = params("grid_wavefront");
        let shards: Vec<Shard> = (0..2).map(|i| run_shard(&p, i, 2).unwrap()).collect();
        // Per shard: 1 warm-up cycle and 1 measured one, 3 runs each; the
        // sequential reference (repeated until 10 ms) runs when
        // (cycle + shard) % 2 == 0: shard 0 only.
        assert!(shards[0].attempted > 2 * 3);
        assert_eq!(shards[0].seq_wall.len(), 1);
        assert_eq!(shards[1].attempted, 2 * 3);
        for s in &shards {
            assert_eq!(
                Shard::from_json(&Json::parse(&s.to_json().to_line()).unwrap()).unwrap(),
                *s
            );
        }
        let out = combine(&shards);
        let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
        let spec: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, spec);
        assert_eq!(out.failed, 0, "{:?}", out.failures);
        assert_eq!(out.cycles, 2);
        assert_eq!(out.attempted, shards[0].attempted + shards[1].attempted);
        for m in &out.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{} = {}",
                m.name,
                m.value
            );
        }
    }

    #[test]
    fn traced_pass_reports_every_per_layer_metric() {
        let out = per_layer(&params("fanout_dag")).unwrap();
        let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
        let spec: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, spec);
        assert_eq!(out.failed, 0, "{:?}", out.failures);
        assert!(out.metrics.iter().all(|m| m.value.is_finite()));
        let trace = out.chrome_trace.expect("traced pass writes a trace");
        let doc = crate::json::Json::parse(&trace).unwrap();
        assert!(doc.get("traceEvents").unwrap().items().len() > 100);
    }

    #[test]
    fn budget_counts_per_task_and_per_edge_terms() {
        let unit = |_: &str| 1.0;
        // e = 2: 4 + 3 + 2·(3 + 3 + 1) + 3 = 24
        assert_eq!(predicted_sched_ns_per_task(&unit, 2.0), 24.0);
    }
}
