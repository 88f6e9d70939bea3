//! Shared fixtures and the oracle-checked campaign driver for the
//! repo-root integration tests.
//!
//! The tests in `tests/` (hosted by this crate via `[[test]]` path
//! entries) share three things:
//!
//! * [`graphs`] — reusable task graphs: the wavefront [`graphs::Grid`],
//!   a serial [`graphs::Chain`], and [`graphs::ValueDag`], a random
//!   layered DAG whose tasks produce deterministic values and whose
//!   outputs can be poisoned (so after-notify faults are observable by
//!   later consumers).
//! * [`det_traced_run`] — the deterministic-exploration driver: run the
//!   FT scheduler on an [`ft_det::DetPool`] with a seeded schedule and a
//!   fault plan, recording an execution trace.
//! * [`assert_oracle_clean`] — validate the recorded trace against the
//!   Section-IV guarantee oracle, and on violation dump a replayable JSON
//!   failure report (graph label + schedule seed + fault plan + full
//!   trace) under `target/oracle-failures/`.
//!
//! A failure therefore reproduces from `(graph, fault plan, seed)` alone;
//! the JSON report names all three.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use nabbit_ft::graph::TaskGraph;
use nabbit_ft::inject::FaultPlan;
use nabbit_ft::metrics::RunReport;
use nabbit_ft::scheduler::FtScheduler;
use nabbit_ft::trace::oracle::{check_trace, FailureReport, OracleMode, Violation};
use nabbit_ft::trace::Trace;

pub mod graphs {
    //! Task graphs shared by the integration tests.

    use ft_cmap::ShardedMap;
    use nabbit_ft::fault::Fault;
    use nabbit_ft::graph::{ComputeCtx, Key, TaskGraph};
    use std::collections::HashMap;

    /// n×n wavefront grid: (i,j) depends on (i-1,j) and (i,j-1). No data
    /// blocks; compute always succeeds.
    pub struct Grid {
        /// Side length.
        pub n: i64,
    }

    impl TaskGraph for Grid {
        fn sink(&self) -> Key {
            self.n * self.n - 1
        }
        fn predecessors(&self, k: Key) -> Vec<Key> {
            let (i, j) = (k / self.n, k % self.n);
            let mut p = Vec::new();
            if i > 0 {
                p.push((i - 1) * self.n + j);
            }
            if j > 0 {
                p.push(i * self.n + (j - 1));
            }
            p
        }
        fn successors(&self, k: Key) -> Vec<Key> {
            let (i, j) = (k / self.n, k % self.n);
            let mut s = Vec::new();
            if i + 1 < self.n {
                s.push((i + 1) * self.n + j);
            }
            if j + 1 < self.n {
                s.push(i * self.n + (j + 1));
            }
            s
        }
        fn compute(&self, _k: Key, _ctx: &ComputeCtx<'_>) -> Result<(), Fault> {
            Ok(())
        }
    }

    /// A pure serial chain 0 → 1 → … → len-1 (maximal critical path).
    pub struct Chain {
        /// Number of tasks.
        pub len: i64,
    }

    impl TaskGraph for Chain {
        fn sink(&self) -> Key {
            self.len - 1
        }
        fn predecessors(&self, k: Key) -> Vec<Key> {
            if k == 0 {
                vec![]
            } else {
                vec![k - 1]
            }
        }
        fn successors(&self, k: Key) -> Vec<Key> {
            if k == self.len - 1 {
                vec![]
            } else {
                vec![k + 1]
            }
        }
        fn compute(&self, _: Key, _: &ComputeCtx<'_>) -> Result<(), Fault> {
            Ok(())
        }
    }

    /// A randomly generated layered DAG whose tasks compute deterministic
    /// values (a hash of predecessor values) into a concurrent map.
    ///
    /// Unlike the grid, this graph has *observable data*: a fired fault
    /// poisons the task's output value ([`TaskGraph::poison_outputs`]),
    /// and any later consumer reading it reports a data fault back to the
    /// scheduler — which is how an after-notify fault becomes observable
    /// through the paper's "later consumer" path. A recovered incarnation
    /// rewrites the value, clearing the poison.
    pub struct ValueDag {
        preds: HashMap<Key, Vec<Key>>,
        succs: HashMap<Key, Vec<Key>>,
        sink: Key,
        values: ShardedMap<u64>,
        /// Poison marks on output values (true = corrupt).
        poisoned: ShardedMap<bool>,
    }

    impl ValueDag {
        /// Build from a shape description: `widths[l]` nodes in layer `l`;
        /// `edges_seed` drives predecessor selection. Keys are
        /// `layer * 1000 + index`; the sink (999_999) depends on every
        /// node without successors.
        pub fn generate(widths: &[usize], edges_seed: u64) -> ValueDag {
            let mut preds: HashMap<Key, Vec<Key>> = HashMap::new();
            let mut succs: HashMap<Key, Vec<Key>> = HashMap::new();
            let mut state = edges_seed | 1;
            let mut next = move || {
                // xorshift64
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let key_of = |layer: usize, idx: usize| (layer * 1000 + idx) as Key;
            for (l, &w) in widths.iter().enumerate() {
                for idx in 0..w {
                    let k = key_of(l, idx);
                    let mut p = Vec::new();
                    if l > 0 {
                        let prev_w = widths[l - 1];
                        let nparents = 1 + (next() as usize) % 3.min(prev_w);
                        for t in 0..nparents {
                            let cand = key_of(l - 1, (next() as usize + t) % prev_w);
                            if !p.contains(&cand) {
                                p.push(cand);
                            }
                        }
                    }
                    for &q in &p {
                        succs.entry(q).or_default().push(k);
                    }
                    preds.insert(k, p);
                    succs.entry(k).or_default();
                }
            }
            let sink: Key = 999_999;
            let mut sink_preds: Vec<Key> = preds
                .keys()
                .copied()
                .filter(|k| succs.get(k).map(|s| s.is_empty()).unwrap_or(true))
                .collect();
            sink_preds.sort_unstable();
            for &q in &sink_preds {
                succs.get_mut(&q).unwrap().push(sink);
            }
            preds.insert(sink, sink_preds);
            succs.insert(sink, vec![]);
            ValueDag {
                preds,
                succs,
                sink,
                values: ShardedMap::with_shards(16),
                poisoned: ShardedMap::with_shards(16),
            }
        }

        /// Number of tasks, sink included.
        pub fn task_count(&self) -> usize {
            self.preds.len()
        }

        /// All task keys, sorted.
        pub fn all_keys(&self) -> Vec<Key> {
            let mut v: Vec<Key> = self.preds.keys().copied().collect();
            v.sort_unstable();
            v
        }

        /// The computed value of `k`, if it has been computed.
        pub fn value_of(&self, k: Key) -> Option<u64> {
            self.values.get(k)
        }
    }

    impl TaskGraph for ValueDag {
        fn sink(&self) -> Key {
            self.sink
        }
        fn predecessors(&self, key: Key) -> Vec<Key> {
            self.preds.get(&key).cloned().unwrap_or_default()
        }
        fn successors(&self, key: Key) -> Vec<Key> {
            self.succs.get(&key).cloned().unwrap_or_default()
        }
        fn compute(&self, key: Key, _ctx: &ComputeCtx<'_>) -> Result<(), Fault> {
            let mut h = (key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            for p in self.predecessors(key) {
                // A poisoned input is a detected data fault in `p`.
                if self.poisoned.get(p).unwrap_or(false) {
                    return Err(Fault::data(p));
                }
                let pv = self
                    .values
                    .get(p)
                    .expect("predecessor value present (dependences guarantee it)");
                h = h.rotate_left(13) ^ pv.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
            }
            self.values.replace(key, h);
            // A fresh (re-)execution produces clean data.
            self.poisoned.replace(key, false);
            Ok(())
        }
        fn poison_outputs(&self, key: Key) {
            self.poisoned.replace(key, true);
        }
    }
}

/// Directory failing campaigns dump their JSON reports into.
pub fn failure_dump_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/oracle-failures")
}

/// Run the FT scheduler over `graph` on a deterministic pool seeded with
/// `schedule_seed`, recording a trace. Returns the scheduler (for value /
/// exec-count inspection), the trace, and the run report.
pub fn det_traced_run(
    graph: Arc<dyn TaskGraph>,
    plan: Arc<FaultPlan>,
    schedule_seed: u64,
) -> (Arc<FtScheduler>, Arc<Trace>, RunReport) {
    let trace = Arc::new(Trace::new());
    let sched = FtScheduler::with_plan_traced(graph, plan, Arc::clone(&trace));
    let pool = ft_det::DetPool::new(schedule_seed);
    let report = sched.run(&pool);
    (sched, trace, report)
}

/// Like [`det_traced_run`] but on an arbitrary executor (typically a real
/// work-stealing pool). Traces recorded this way must be validated in
/// [`OracleMode::Concurrent`]: emission order between threads is not
/// authoritative.
pub fn traced_run_on(
    graph: Arc<dyn TaskGraph>,
    plan: Arc<FaultPlan>,
    exec: &dyn ft_steal::pool::Executor,
) -> (Arc<FtScheduler>, Arc<Trace>, RunReport) {
    let trace = Arc::new(Trace::new());
    let sched = FtScheduler::with_plan_traced(graph, plan, Arc::clone(&trace));
    let report = sched.run(exec);
    (sched, trace, report)
}

/// Validate a recorded trace against the guarantee oracle plus any extra
/// violations the caller collected (e.g. result-equivalence); on failure,
/// write a replayable JSON report and panic with its path and the seed.
#[allow(clippy::too_many_arguments)]
pub fn assert_oracle_clean(
    label: &str,
    schedule_seed: u64,
    plan: &FaultPlan,
    graph: &dyn TaskGraph,
    trace: &Trace,
    report: &RunReport,
    mode: OracleMode,
    extra: Vec<Violation>,
) {
    let events = trace.events();
    let mut violations = check_trace(graph, &events, report, mode);
    violations.extend(extra);
    if violations.is_empty() {
        return;
    }
    let sites = plan.sites();
    let failure = FailureReport {
        label: label.to_string(),
        seed: schedule_seed,
        sites: &sites,
        violations: &violations,
        events: &events,
    };
    let dir = failure_dump_dir();
    match failure.write_to(&dir) {
        Ok(path) => panic!(
            "oracle violations in '{label}' (schedule seed {schedule_seed}, \
             {} fault sites); report dumped to {}:\n{}",
            sites.len(),
            path.display(),
            render_violations(&violations),
        ),
        Err(e) => panic!(
            "oracle violations in '{label}' (schedule seed {schedule_seed}) \
             — report dump to {} failed ({e}):\n{}\n{}",
            dir.display(),
            render_violations(&violations),
            failure.to_json(),
        ),
    }
}

/// Run the trace oracle and *return* the violations instead of panicking
/// (used by the mutation test, which expects them).
pub fn oracle_violations(
    graph: &dyn TaskGraph,
    trace: &Trace,
    report: &RunReport,
    mode: OracleMode,
) -> Vec<Violation> {
    check_trace(graph, &trace.events(), report, mode)
}

fn render_violations(violations: &[Violation]) -> String {
    violations
        .iter()
        .map(|v| format!("  - {v}"))
        .collect::<Vec<_>>()
        .join("\n")
}
