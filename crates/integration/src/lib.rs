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
//!   later consumers). [`dag_gen`] describes its seeded Erdős–Rényi
//!   family ([`dag_gen::DagGenConfig`]).
//! * [`det_traced_run`] — the deterministic-exploration driver: run the
//!   FT scheduler on an [`ft_det::DetPool`] with a seeded schedule and a
//!   fault plan, recording an execution trace.
//! * [`assert_oracle_clean`] — validate the recorded trace against the
//!   Section-IV guarantee oracle, and on violation dump a replayable JSON
//!   failure report (graph label + schedule seed + fault plan + full
//!   trace) under `target/oracle-failures/`.
//!
//! * [`mutants`] — the deliberately broken FT policies the mutation
//!   campaigns run to prove the oracle flags a broken scheduler.
//! * [`sequential_values`] and [`phase_of`] — a [`graphs::ValueDag`]'s
//!   sequential reference values, and the fault phase of a campaign round.
//!
//! A failure therefore reproduces from `(graph, fault plan, seed)` alone;
//! the JSON report names all three.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use nabbit_ft::graph::{Key, TaskGraph};
use nabbit_ft::inject::{FaultPlan, Phase};
use nabbit_ft::metrics::RunReport;
use nabbit_ft::scheduler::FtScheduler;
use nabbit_ft::trace::oracle::{check_trace, FailureReport, OracleMode, Violation};
use nabbit_ft::trace::Trace;

pub mod dag_gen;

pub mod graphs {
    //! Task graphs shared by the integration tests.

    use crate::dag_gen::DagGenConfig;
    use ft_cmap::ShardedMap;
    use ft_steal::rng::XorShift64Star;
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
    /// Two generators build it: [`ValueDag::generate`] (explicit layer
    /// widths, 1–3 parents per node) and [`ValueDag::random`] (the seeded
    /// Erdős–Rényi family of [`crate::dag_gen`]).
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
        /// XORed into every task's initial hash: the structure seed for
        /// [`ValueDag::random`], 0 for [`ValueDag::generate`].
        salt: u64,
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
            ValueDag::from_parts(preds, succs, sink, 0)
        }

        /// Generate the member of the random layered family that `cfg`
        /// describes (structure in [`crate::dag_gen`]). Keys are
        /// contiguous: inner nodes `0..n`, sink `n`. Node ids increase
        /// with layer, so key order is a valid topological order.
        pub fn random(cfg: &DagGenConfig) -> ValueDag {
            let layers = cfg.layers.max(1);
            let max_width = cfg.max_width.max(1);
            let mut rng = XorShift64Star::new(cfg.seed ^ 0xDA61_DA61_DA61_DA61);
            let edge_threshold = (cfg.edge_prob.clamp(0.0, 1.0) * u64::MAX as f64) as u64;
            // Long-range edges are rare on purpose: enough to break the
            // strict layer lattice, not enough to densify every node.
            let long_threshold = edge_threshold / 4;

            // Layer widths, then contiguous node ids layer by layer.
            let mut layer_nodes: Vec<Vec<Key>> = Vec::with_capacity(layers);
            let mut next_id: Key = 0;
            for _ in 0..layers {
                let w = 1 + rng.next_below(max_width);
                layer_nodes.push((next_id..next_id + w as Key).collect());
                next_id += w as Key;
            }
            let n_inner = next_id as usize;
            let sink = n_inner as Key;

            let mut preds: Vec<Vec<Key>> = vec![Vec::new(); n_inner + 1];
            for l in 1..layers {
                // Split the borrow: earlier layers are read-only here.
                let (earlier, current) = layer_nodes.split_at(l);
                let prev = &earlier[l - 1];
                for &k in &current[0] {
                    let p = &mut preds[k as usize];
                    for &q in prev {
                        if rng.next_u64() < edge_threshold {
                            p.push(q);
                        }
                    }
                    if p.is_empty() {
                        // Erdős–Rényi left the node orphaned: connect it
                        // so every non-source task has a dependence.
                        p.push(prev[rng.next_below(prev.len())]);
                    }
                    if l >= 2 && rng.next_u64() < long_threshold {
                        let ll = rng.next_below(l - 1);
                        let q = earlier[ll][rng.next_below(earlier[ll].len())];
                        if !p.contains(&q) {
                            p.push(q);
                        }
                    }
                }
            }

            let mut succs: Vec<Vec<Key>> = vec![Vec::new(); n_inner + 1];
            for (k, ps) in preds.iter().enumerate().take(n_inner) {
                for &q in ps {
                    succs[q as usize].push(k as Key);
                }
            }
            // The sink collects every childless node, making the whole
            // graph backward-reachable from it.
            let sink_preds: Vec<Key> = (0..n_inner as Key)
                .filter(|&k| succs[k as usize].is_empty())
                .collect();
            for &q in &sink_preds {
                succs[q as usize].push(sink);
            }
            preds[n_inner] = sink_preds;

            let by_key = |v: Vec<Vec<Key>>| (0..).zip(v).collect::<HashMap<Key, Vec<Key>>>();
            ValueDag::from_parts(by_key(preds), by_key(succs), sink, cfg.seed)
        }

        fn from_parts(
            preds: HashMap<Key, Vec<Key>>,
            succs: HashMap<Key, Vec<Key>>,
            sink: Key,
            salt: u64,
        ) -> ValueDag {
            ValueDag {
                preds,
                succs,
                sink,
                salt,
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

        fn preds_of(&self, key: Key) -> &[Key] {
            self.preds.get(&key).map_or(&[][..], Vec::as_slice)
        }
    }

    impl TaskGraph for ValueDag {
        fn sink(&self) -> Key {
            self.sink
        }
        fn predecessors(&self, key: Key) -> Vec<Key> {
            self.preds_of(key).to_vec()
        }
        fn successors(&self, key: Key) -> Vec<Key> {
            self.succs.get(&key).cloned().unwrap_or_default()
        }
        fn predecessors_into(&self, key: Key, out: &mut Vec<Key>) {
            out.clear();
            out.extend_from_slice(self.preds_of(key));
        }
        fn out_degree(&self, key: Key) -> usize {
            self.succs.get(&key).map_or(0, Vec::len)
        }
        fn compute(&self, key: Key, _ctx: &ComputeCtx<'_>) -> Result<(), Fault> {
            let mut h = (key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ self.salt;
            for &p in self.preds_of(key) {
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

pub mod mutants {
    //! Mutations of the FT policy ([`Mutation`]), one bug each. Build a
    //! mutant scheduler with `Engine::mutant(graph, plan, trace, M)`.

    use nabbit_ft::scheduler::Mutation;
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Duplicate notifications decrement the join counter: the bit
    /// vector no longer enforces Guarantee 3.
    pub struct DuplicatesDecrement;

    impl Mutation for DuplicatesDecrement {
        const DUPLICATES_DECREMENT: bool = true;
    }

    /// Deliveries from a predecessor's drain bypass the bit vector;
    /// registrant-side deliveries stay gated.
    pub struct UngatedDrain;

    impl Mutation for UngatedDrain {
        const UNGATED_DRAIN: bool = true;
    }

    /// Exactly one registration (the first to claim a notify cell, that
    /// is, the first to find its predecessor not yet computed) never
    /// publishes it, so one notification is lost.
    pub struct DropOnePublish(AtomicBool);

    impl DropOnePublish {
        /// Armed: the next registration loses its publish.
        pub fn armed() -> Self {
            DropOnePublish(AtomicBool::new(true))
        }
    }

    impl Mutation for DropOnePublish {
        fn drop_publish(&self) -> bool {
            // Relaxed: the swap only elects one registration; nothing is
            // published through the flag.
            self.0.swap(false, Ordering::Relaxed)
        }
    }
}

/// The value of every task of `dag` after a sequential fault-free run
/// (the Theorem 1 reference).
pub fn sequential_values(dag: graphs::ValueDag) -> HashMap<Key, u64> {
    nabbit_ft::seq::run(&dag).unwrap();
    dag.all_keys()
        .into_iter()
        .map(|k| (k, dag.value_of(k).unwrap()))
        .collect()
}

/// The fault phase of campaign round `round`: before compute, after
/// compute and after notify in turn.
pub fn phase_of(round: u64) -> Phase {
    match round % 3 {
        0 => Phase::BeforeCompute,
        1 => Phase::AfterCompute,
        _ => Phase::AfterNotify,
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
