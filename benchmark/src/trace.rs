//! Tracing from outside the program: a [`TaskGraph`] decorator that times
//! every call the scheduler makes into the graph, and a Chrome trace-event
//! writer.
//!
//! The schedulers carry no spans of their own (that is ROADMAP item 3), so
//! the benchmark observes the one boundary it owns: the graph callbacks.
//! Everything inside a `run` that is *not* a callback span is scheduler
//! time — traversal, task map, notification, stealing, parking:
//!
//! ```text
//! self time of a run = wall × threads − Σ callback spans
//! ```
//!
//! Spans are kept in memory (per-thread lanes, pre-sized) and written once
//! at exit. Only runs recorded with `keep` set retain individual spans;
//! every traced run keeps per-kind sums and the compute durations, which
//! is what the per-layer metrics are computed from.

use crate::json::Json;
use nabbit_ft::fault::Fault;
use nabbit_ft::graph::{ComputeCtx, Key, TaskGraph};
use nabbit_ft::trace::{Event, TimedEvent};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The graph callbacks a span can cover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    /// `TaskGraph::compute`
    Compute = 0,
    /// `TaskGraph::predecessors_into` / `predecessors`
    Predecessors = 1,
    /// `TaskGraph::successors`
    Successors = 2,
    /// `TaskGraph::out_degree`
    OutDegree = 3,
    /// `TaskGraph::poison_outputs`
    PoisonOutputs = 4,
}

/// Number of [`Kind`]s.
pub const KINDS: usize = 5;

const KIND_NAMES: [&str; KINDS] = [
    "compute",
    "predecessors_into",
    "successors",
    "out_degree",
    "poison_outputs",
];

/// One recorded callback span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Which callback.
    pub kind: Kind,
    /// Lane (thread) that ran it.
    pub lane: u8,
    /// Run the span belongs to — its parent span.
    pub run: u32,
    /// Task key the callback was about.
    pub key: Key,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u32,
}

/// Lanes available to threads; the benchmark runs at most four workers
/// plus the client thread.
const LANES: usize = 16;

#[derive(Default)]
struct Lane {
    sum_ns: [u64; KINDS],
    count: [u64; KINDS],
    compute_ns: Vec<u32>,
    spans: Vec<Span>,
}

/// Per-run totals folded out of the lanes when a run ends.
#[derive(Debug, Clone, Default)]
pub struct RunSpans {
    /// Σ span durations per [`Kind`], ns.
    pub sum_ns: [u64; KINDS],
    /// Span counts per [`Kind`].
    pub count: [u64; KINDS],
    /// Every compute span's duration, ns.
    pub compute_ns: Vec<u32>,
}

impl RunSpans {
    /// Σ of all callback spans, ns.
    pub fn total_ns(&self) -> u64 {
        self.sum_ns.iter().sum()
    }

    /// Σ of the non-compute callback spans, ns.
    pub fn callback_ns(&self) -> u64 {
        self.total_ns() - self.sum_ns[Kind::Compute as usize]
    }
}

/// A top-level span: one scheduler run, stream segment or recovery episode.
#[derive(Debug, Clone)]
pub struct TopSpan {
    /// Display name (`run:ft`, `episode`, …).
    pub name: String,
    /// Run id children refer to.
    pub run: u32,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
    /// Task key for episodes, `-1` for runs.
    pub key: Key,
}

/// Collects spans from every thread that touches a [`TracedGraph`].
pub struct Recorder {
    epoch: Instant,
    lanes: Vec<Mutex<Lane>>,
    /// Capacity a lane reserves the first time it keeps a span.
    per_lane: usize,
    run: AtomicU32,
    keep: AtomicBool,
    top: Mutex<Vec<TopSpan>>,
}

/// Lane allocator: threads are few and long-lived, so each gets one lane
/// for the life of the process, shared by every recorder.
static NEXT_LANE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static LANE: Cell<usize> = const { Cell::new(usize::MAX) };
}

impl Recorder {
    /// A recorder expecting about `expected_spans` kept spans in total;
    /// each lane pre-sizes its buffer for half of them on first use, so a
    /// kept run does not pay for buffer growth inside its spans.
    pub fn new(expected_spans: usize) -> Arc<Self> {
        Arc::new(Recorder {
            epoch: Instant::now(),
            lanes: (0..LANES).map(|_| Mutex::new(Lane::default())).collect(),
            per_lane: expected_spans / 2 + 1024,
            run: AtomicU32::new(0),
            keep: AtomicBool::new(false),
            top: Mutex::new(Vec::new()),
        })
    }

    /// ns since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lane_of_this_thread() -> usize {
        LANE.with(|c| {
            if c.get() == usize::MAX {
                // ord: Relaxed — a unique-id allocator, nothing is
                // published through it.
                c.set(NEXT_LANE.fetch_add(1, Ordering::Relaxed) % LANES);
            }
            c.get()
        })
    }

    /// Start run `id`; with `keep`, individual spans are retained for the
    /// trace file. Call while the pool is quiescent.
    pub fn begin_run(&self, keep: bool) -> u32 {
        // ord: Relaxed — set between runs, while no worker records; the
        // pool's own job hand-off orders it before the first callback.
        let id = self.run.fetch_add(1, Ordering::Relaxed) + 1;
        self.keep.store(keep, Ordering::Relaxed);
        id
    }

    /// End the current run: fold and clear the per-run lane totals, and
    /// record the run's own span. Call while the pool is quiescent.
    pub fn end_run(&self, name: &str, start_ns: u64, dur_ns: u64) -> RunSpans {
        let mut out = RunSpans::default();
        for lane in &self.lanes {
            let mut lane = lane
                .lock()
                .expect("span lane poisoned by a panicking callback");
            for k in 0..KINDS {
                out.sum_ns[k] += std::mem::take(&mut lane.sum_ns[k]);
                out.count[k] += std::mem::take(&mut lane.count[k]);
            }
            out.compute_ns.extend_from_slice(&lane.compute_ns);
            lane.compute_ns.clear();
        }
        if self.keep.load(Ordering::Relaxed) {
            self.push_top(TopSpan {
                name: name.to_string(),
                run: self.run.load(Ordering::Relaxed),
                start_ns,
                dur_ns,
                key: -1,
            });
        }
        out
    }

    /// Record a top-level span (runs and recovery episodes).
    pub fn push_top(&self, span: TopSpan) {
        self.top.lock().expect("top-span list poisoned").push(span);
    }

    #[inline]
    fn record(&self, kind: Kind, key: Key, start: Instant, end: Instant) {
        let dur_ns = end
            .duration_since(start)
            .as_nanos()
            .min(u128::from(u32::MAX)) as u32;
        let lane_idx = Self::lane_of_this_thread();
        let mut lane = self.lanes[lane_idx]
            .lock()
            .expect("span lane poisoned by a panicking callback");
        lane.sum_ns[kind as usize] += u64::from(dur_ns);
        lane.count[kind as usize] += 1;
        if kind == Kind::Compute {
            lane.compute_ns.push(dur_ns);
        }
        if self.keep.load(Ordering::Relaxed) {
            if lane.spans.capacity() == 0 {
                lane.spans.reserve(self.per_lane);
            }
            lane.spans.push(Span {
                kind,
                lane: lane_idx as u8,
                run: self.run.load(Ordering::Relaxed),
                key,
                start_ns: start.duration_since(self.epoch).as_nanos() as u64,
                dur_ns,
            });
        }
    }

    /// Write everything kept as Chrome trace-event JSON (open in Perfetto
    /// or `chrome://tracing`). At most `max_spans` callback spans are
    /// written, earliest first; the metadata says how many were dropped.
    pub fn chrome_trace(&self, workload: &str, max_spans: usize) -> String {
        let mut spans: Vec<Span> = Vec::new();
        for lane in &self.lanes {
            spans.extend_from_slice(&lane.lock().expect("span lane poisoned").spans);
        }
        spans.sort_by_key(|s| s.start_ns);
        let dropped = spans.len().saturating_sub(max_spans);
        spans.truncate(max_spans);
        let us = |ns: u64| ns as f64 / 1000.0;
        let mut events = Vec::with_capacity(spans.len() + 64);
        for top in self.top.lock().expect("top-span list poisoned").iter() {
            let mut args = Json::obj().with("run", u64::from(top.run));
            if top.key >= 0 {
                args.set("key", top.key as u64);
            }
            events.push(
                Json::obj()
                    .with("name", top.name.as_str())
                    .with("cat", if top.key >= 0 { "recovery" } else { "run" })
                    .with("ph", "X")
                    .with("ts", us(top.start_ns))
                    .with("dur", us(top.dur_ns))
                    .with("pid", 1u64)
                    // Runs share one lane above the workers; episodes get
                    // their own so overlapping recoveries stay readable.
                    .with("tid", if top.key >= 0 { 101u64 } else { 100u64 })
                    .with("args", args),
            );
        }
        for s in &spans {
            events.push(
                Json::obj()
                    .with("name", KIND_NAMES[s.kind as usize])
                    .with("cat", "graph")
                    .with("ph", "X")
                    .with("ts", us(s.start_ns))
                    .with("dur", us(u64::from(s.dur_ns)))
                    .with("pid", 1u64)
                    .with("tid", u64::from(s.lane))
                    .with(
                        "args",
                        Json::obj()
                            .with("key", s.key as f64)
                            .with("run", u64::from(s.run))
                            .with("parent", format!("run {}", s.run)),
                    ),
            );
        }
        Json::obj()
            .with("displayTimeUnit", "ns")
            .with(
                "otherData",
                Json::obj()
                    .with("workload", workload)
                    .with("spans_written", spans.len())
                    .with("spans_dropped", dropped),
            )
            .with("traceEvents", events)
            .to_line()
    }
}

/// A [`TaskGraph`] that forwards to `inner` and records a span per call.
pub struct TracedGraph {
    inner: Arc<dyn TaskGraph>,
    rec: Arc<Recorder>,
}

impl TracedGraph {
    /// Wrap `inner`.
    pub fn wrap(inner: Arc<dyn TaskGraph>, rec: &Arc<Recorder>) -> Arc<dyn TaskGraph> {
        Arc::new(TracedGraph {
            inner,
            rec: Arc::clone(rec),
        })
    }

    #[inline]
    fn span<R>(&self, kind: Kind, key: Key, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.rec.record(kind, key, start, Instant::now());
        out
    }
}

impl TaskGraph for TracedGraph {
    fn sink(&self) -> Key {
        self.inner.sink()
    }
    fn predecessors(&self, key: Key) -> Vec<Key> {
        self.span(Kind::Predecessors, key, || self.inner.predecessors(key))
    }
    fn predecessors_into(&self, key: Key, out: &mut Vec<Key>) {
        self.span(Kind::Predecessors, key, || {
            self.inner.predecessors_into(key, out)
        })
    }
    fn successors(&self, key: Key) -> Vec<Key> {
        self.span(Kind::Successors, key, || self.inner.successors(key))
    }
    fn out_degree(&self, key: Key) -> usize {
        self.span(Kind::OutDegree, key, || self.inner.out_degree(key))
    }
    fn compute(&self, key: Key, ctx: &ComputeCtx<'_>) -> Result<(), Fault> {
        self.span(Kind::Compute, key, || self.inner.compute(key, ctx))
    }
    fn poison_outputs(&self, key: Key) {
        self.span(Kind::PoisonOutputs, key, || self.inner.poison_outputs(key))
    }
    fn source_hint(&self) -> Option<Vec<Key>> {
        self.inner.source_hint()
    }
}

/// One recovery episode: a fault on `key` is first observed at `start_ns`
/// and the replacement incarnation completes `dur_ns` later (both relative
/// to the scheduler trace that recorded them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Episode {
    /// The recovered task.
    pub key: Key,
    /// First observation of the fault, ns.
    pub start_ns: u64,
    /// Observation → `Completed` of the replacement life, ns.
    pub dur_ns: u64,
}

/// Fold a scheduler event trace into recovery episodes: `FaultObserved` on
/// a task opens an episode, `RecoveryStarted` names the replacement life,
/// and that life's `Completed` closes it. Faults that are never recovered
/// (unobserved after-notify faults) and recoveries superseded by a second
/// fault before completing produce no episode of their own — the later
/// completion closes the earliest open observation.
pub fn fold_episodes(events: &[TimedEvent]) -> Vec<Episode> {
    let mut open: HashMap<Key, (u64, Option<u64>)> = HashMap::new();
    let mut out = Vec::new();
    for e in events {
        match e.event {
            Event::FaultObserved { source, .. } => {
                open.entry(source).or_insert((e.t_ns, None));
            }
            Event::RecoveryStarted { key, new_life } => {
                // A recovery can start without a traced observation (the
                // recovery path reports through the same event only on
                // some routes); open the episode here then.
                open.entry(key).or_insert((e.t_ns, None)).1 = Some(new_life);
            }
            Event::Completed { key, life } => {
                if let Some(&(start_ns, Some(new_life))) = open.get(&key) {
                    if life == new_life {
                        open.remove(&key);
                        out.push(Episode {
                            key,
                            start_ns,
                            dur_ns: e.t_ns.saturating_sub(start_ns),
                        });
                    }
                }
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nabbit_ft::fault::FaultKind;

    fn at(t_ns: u64, event: Event) -> TimedEvent {
        TimedEvent {
            seq: t_ns,
            t_ns,
            event,
        }
    }

    #[test]
    fn episodes_pair_observation_with_replacement_completion() {
        let kind = FaultKind::Descriptor;
        let events = [
            at(10, Event::Completed { key: 1, life: 1 }),
            at(20, Event::FaultObserved { source: 1, kind }),
            at(25, Event::FaultObserved { source: 1, kind }),
            at(
                30,
                Event::RecoveryStarted {
                    key: 1,
                    new_life: 2,
                },
            ),
            at(40, Event::FaultObserved { source: 2, kind }),
            at(50, Event::Completed { key: 1, life: 1 }), // stale life: ignored
            at(70, Event::Completed { key: 1, life: 2 }),
            at(
                80,
                Event::RecoveryStarted {
                    key: 3,
                    new_life: 2,
                },
            ),
            at(95, Event::Completed { key: 3, life: 2 }),
        ];
        assert_eq!(
            fold_episodes(&events),
            vec![
                Episode {
                    key: 1,
                    start_ns: 20,
                    dur_ns: 50
                },
                Episode {
                    key: 3,
                    start_ns: 80,
                    dur_ns: 15
                },
            ]
        );
    }

    struct Two;
    impl TaskGraph for Two {
        fn sink(&self) -> Key {
            1
        }
        fn predecessors(&self, key: Key) -> Vec<Key> {
            if key == 1 {
                vec![0]
            } else {
                vec![]
            }
        }
        fn successors(&self, key: Key) -> Vec<Key> {
            if key == 0 {
                vec![1]
            } else {
                vec![]
            }
        }
        fn compute(&self, _key: Key, _ctx: &ComputeCtx<'_>) -> Result<(), Fault> {
            Ok(())
        }
    }

    #[test]
    fn traced_graph_counts_every_callback_and_writes_valid_json() {
        let rec = Recorder::new(16);
        let g = TracedGraph::wrap(Arc::new(Two), &rec);
        rec.begin_run(true);
        let start = rec.now_ns();
        let ctx = ComputeCtx::new(1, false, None);
        let mut scratch = Vec::new();
        g.predecessors_into(1, &mut scratch);
        assert_eq!(scratch, vec![0]);
        assert_eq!(g.out_degree(0), 1);
        g.compute(0, &ctx).unwrap();
        g.compute(1, &ctx).unwrap();
        let spans = rec.end_run("run:test", start, rec.now_ns() - start);
        assert_eq!(spans.count[Kind::Compute as usize], 2);
        assert_eq!(spans.count[Kind::Predecessors as usize], 1);
        assert_eq!(spans.count[Kind::OutDegree as usize], 1);
        assert_eq!(spans.compute_ns.len(), 2);
        assert_eq!(spans.count.iter().sum::<u64>(), 4);
        assert_eq!(spans.total_ns(), spans.callback_ns() + spans.sum_ns[0]);
        // The next run starts from zero.
        rec.begin_run(false);
        g.compute(0, &ctx).unwrap();
        let next = rec.end_run("run:untraced", 0, 0);
        assert_eq!(next.count.iter().sum::<u64>(), 1);

        let doc = Json::parse(&rec.chrome_trace("unit", 3)).unwrap();
        let events = doc.get("traceEvents").unwrap().items();
        // One run span + three of the four kept callback spans.
        assert_eq!(events.len(), 4);
        assert_eq!(
            doc.get("otherData")
                .unwrap()
                .get("spans_dropped")
                .unwrap()
                .as_f64(),
            Some(1.0)
        );
        assert!(events
            .iter()
            .all(|e| e.get("ph").unwrap().as_str() == Some("X")));
    }
}
