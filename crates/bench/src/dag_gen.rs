//! Seeded random layered DAG workload family (ROADMAP item 5).
//!
//! The five regular kernels exercise only lattice-shaped dependency
//! structure. [`RandDag`] generates *irregular* fan-in/fan-out: a layered
//! Erdős–Rényi DAG with per-node WCET ranges, Hard/Soft task typing, and
//! critical-path marking — the graphs where the paper's selective-recovery
//! guarantees (notify bit vector, recovery table, seqlock map) are hardest
//! to uphold, and the substrate for the PR-6 priority-scheduling
//! experiments.
//!
//! Everything is a pure function of [`DagGenConfig`]: the same config
//! reproduces the identical structure, WCETs, and Hard/Soft marking, so a
//! failing `(config, fault plan, schedule seed)` triple replays exactly.
//!
//! # Structure
//!
//! * `layers` layers; layer widths drawn uniformly from `1..=max_width`.
//! * Each node draws an edge from every node of the previous layer with
//!   probability `edge_prob` (classic layered Erdős–Rényi), plus a
//!   guaranteed predecessor when the draw leaves it orphaned, plus
//!   occasional long-range edges skipping ≥ 2 layers.
//! * A synthetic sink depends on every childless node, so the whole graph
//!   is backward-reachable from the sink (NABBIT discovers the graph from
//!   the sink).
//!
//! # Hard/Soft typing and criticality
//!
//! Each node gets a WCET drawn from `wcet_min..=wcet_max`. Running the
//! longest-path decomposition of `nabbit_ft::analysis::path_analysis`
//! under that cost model, the top `critical_ratio` share of nodes by
//! heaviest-path-through weight are marked **Hard** (they carry
//! deadlines); everything else is Soft. The **critical set** — what the
//! priority pop order boosts — is the Hard set closed under ancestors: a
//! hard task cannot start before its soft predecessors finish, so those
//! predecessors must jump the queue too.
//!
//! # Data
//!
//! Like the integration suite's `ValueDag`, every task computes a
//! deterministic value (a hash of its predecessors' values) into a
//! concurrent map, and fired faults poison the output so later consumers
//! observe them; result equivalence against a sequential run is therefore
//! checkable for any member of the family. `work_unit > 0` additionally
//! spins `wcet × work_unit` iterations per compute so wall-clock runtimes
//! scale with WCET (what a wall-clock deadline measurement needs).

use ft_cmap::ShardedMap;
use ft_steal::rng::XorShift64Star;
use ft_steal::Priority;
use nabbit_ft::analysis::path_analysis;
use nabbit_ft::fault::Fault;
use nabbit_ft::graph::{ComputeCtx, Key, TaskGraph};
use nabbit_ft::scheduler::PriorityFn;
use std::sync::Arc;

/// Full description of one random-DAG instance. Same config ⇒ same graph.
#[derive(Debug, Clone, PartialEq)]
pub struct DagGenConfig {
    /// Number of layers (≥ 1).
    pub layers: usize,
    /// Maximum layer width; widths are drawn from `1..=max_width`.
    pub max_width: usize,
    /// Probability of an edge between adjacent-layer node pairs.
    pub edge_prob: f64,
    /// Inclusive WCET range `[wcet_min, wcet_max]` in abstract work units.
    pub wcet_min: u64,
    /// See `wcet_min`.
    pub wcet_max: u64,
    /// Share of nodes (by heaviest-path-through rank) marked Hard.
    pub critical_ratio: f64,
    /// Structure seed: drives widths, edges, and WCET draws.
    pub seed: u64,
    /// Spin iterations per WCET unit in `compute` (0 = hash only).
    pub work_unit: u64,
}

impl Default for DagGenConfig {
    fn default() -> Self {
        DagGenConfig {
            layers: 8,
            max_width: 6,
            edge_prob: 0.35,
            wcet_min: 1,
            wcet_max: 16,
            critical_ratio: 0.5,
            seed: 0x5EED_DA61,
            work_unit: 0,
        }
    }
}

impl DagGenConfig {
    /// Config with the given shape and seed, defaults elsewhere.
    pub fn new(layers: usize, max_width: usize, edge_prob: f64, seed: u64) -> Self {
        DagGenConfig {
            layers,
            max_width,
            edge_prob,
            seed,
            ..Default::default()
        }
    }
}

/// One generated random layered DAG (see module docs).
///
/// Keys are contiguous: inner nodes `0..n`, sink `n`. Node ids increase
/// with layer, so key order is a valid topological order by construction.
pub struct RandDag {
    cfg: DagGenConfig,
    /// Indexed by key; last entry is the sink.
    preds: Vec<Vec<Key>>,
    succs: Vec<Vec<Key>>,
    /// Per-node WCET (sink gets `wcet_min`).
    wcet: Vec<u64>,
    /// Deadline-carrying tasks (top `critical_ratio` by path-through).
    hard: Vec<bool>,
    /// Hard ∪ ancestors(Hard): the priority-boosted set.
    critical: Vec<bool>,
    values: ShardedMap<u64>,
    poisoned: ShardedMap<bool>,
}

impl std::fmt::Debug for RandDag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RandDag")
            .field("cfg", &self.cfg)
            .field("tasks", &self.preds.len())
            .field("hard", &self.hard_tasks().len())
            .finish()
    }
}

impl RandDag {
    /// Generate the instance `cfg` describes.
    pub fn generate(cfg: DagGenConfig) -> RandDag {
        let layers = cfg.layers.max(1);
        let max_width = cfg.max_width.max(1);
        let mut rng = XorShift64Star::new(cfg.seed ^ 0xDA61_DA61_DA61_DA61);
        let edge_threshold = (cfg.edge_prob.clamp(0.0, 1.0) * u64::MAX as f64) as u64;
        // Long-range edges are rare on purpose: enough to break the strict
        // layer lattice, not enough to densify every node.
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
                    // Erdős–Rényi left the node orphaned: connect it so
                    // every non-source task has a dependence to exercise.
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
        // The sink collects every childless node, making the whole graph
        // backward-reachable from it.
        let sink_preds: Vec<Key> = (0..n_inner as Key)
            .filter(|&k| succs[k as usize].is_empty())
            .collect();
        for &q in &sink_preds {
            succs[q as usize].push(sink);
        }
        preds[n_inner] = sink_preds;

        let wcet_min = cfg.wcet_min.max(1);
        let wcet_max = cfg.wcet_max.max(wcet_min);
        let mut wcet: Vec<u64> = (0..n_inner)
            .map(|_| wcet_min + rng.next_below((wcet_max - wcet_min + 1) as usize) as u64)
            .collect();
        wcet.push(wcet_min); // sink

        let mut dag = RandDag {
            cfg,
            preds,
            succs,
            wcet,
            hard: vec![false; n_inner + 1],
            critical: vec![false; n_inner + 1],
            values: ShardedMap::with_shards(16),
            poisoned: ShardedMap::with_shards(16),
        };

        // Critical-path decomposition under the WCET cost model, via the
        // shared analysis machinery. `pa.order` covers every task (all are
        // backward-reachable from the sink).
        let w = dag.wcet.clone();
        let pa = path_analysis(&dag, |k| w[k as usize] as f64);
        let mut ranked: Vec<(f64, Key)> = Vec::with_capacity(n_inner);
        for (i, &k) in pa.order.iter().enumerate() {
            if k != sink {
                ranked.push((pa.path_through(i), k));
            }
        }
        // Heaviest path-through first; key tie-break keeps it a pure
        // function of the config.
        ranked.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let n_hard = ((dag.cfg.critical_ratio.clamp(0.0, 1.0) * n_inner as f64).ceil() as usize)
            .min(n_inner);
        for &(_, k) in &ranked[..n_hard] {
            dag.hard[k as usize] = true;
        }
        // Critical = Hard closed under ancestors: a hard task's start is
        // gated by *all* its predecessors, so they must be boosted too.
        let mut stack: Vec<Key> = dag.hard_tasks();
        for &k in &stack {
            dag.critical[k as usize] = true;
        }
        while let Some(k) = stack.pop() {
            for &p in &dag.preds[k as usize] {
                if !dag.critical[p as usize] {
                    dag.critical[p as usize] = true;
                    stack.push(p);
                }
            }
        }
        dag
    }

    /// The config this instance was generated from.
    pub fn config(&self) -> &DagGenConfig {
        &self.cfg
    }

    /// Number of tasks, sink included.
    pub fn task_count(&self) -> usize {
        self.preds.len()
    }

    /// All task keys in ascending (= topological) order, sink last.
    pub fn all_keys(&self) -> Vec<Key> {
        (0..self.preds.len() as Key).collect()
    }

    /// Keys of the Hard (deadline-carrying) tasks, ascending.
    pub fn hard_tasks(&self) -> Vec<Key> {
        (0..self.preds.len() as Key)
            .filter(|&k| self.hard[k as usize])
            .collect()
    }

    /// Keys of the priority-boosted set (Hard ∪ ancestors), ascending.
    pub fn critical_tasks(&self) -> Vec<Key> {
        (0..self.preds.len() as Key)
            .filter(|&k| self.critical[k as usize])
            .collect()
    }

    /// Is `k` a Hard task?
    pub fn is_hard(&self, k: Key) -> bool {
        self.hard.get(k as usize).copied().unwrap_or(false)
    }

    /// WCET of `k` in abstract work units.
    pub fn wcet_of(&self, k: Key) -> u64 {
        self.wcet[k as usize]
    }

    /// The priority function for this DAG: critical tasks spawn High.
    /// Hand it to the scheduler via `SchedOpts { priority: Some(..), .. }`.
    pub fn priority_fn(&self) -> PriorityFn {
        let critical = self.critical.clone();
        Arc::new(move |k: Key| {
            if critical.get(k as usize).copied().unwrap_or(false) {
                Priority::High
            } else {
                Priority::Normal
            }
        })
    }

    /// The computed value of `k`, if it has been computed.
    pub fn value_of(&self, k: Key) -> Option<u64> {
        self.values.get(k)
    }
}

impl TaskGraph for RandDag {
    fn sink(&self) -> Key {
        (self.preds.len() - 1) as Key
    }

    fn predecessors(&self, key: Key) -> Vec<Key> {
        self.preds.get(key as usize).cloned().unwrap_or_default()
    }

    fn successors(&self, key: Key) -> Vec<Key> {
        self.succs.get(key as usize).cloned().unwrap_or_default()
    }

    fn predecessors_into(&self, key: Key, out: &mut Vec<Key>) {
        out.clear();
        if let Some(p) = self.preds.get(key as usize) {
            out.extend_from_slice(p);
        }
    }

    fn out_degree(&self, key: Key) -> usize {
        self.succs.get(key as usize).map_or(0, Vec::len)
    }

    fn compute(&self, key: Key, _ctx: &ComputeCtx<'_>) -> Result<(), Fault> {
        let mut h = (key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ self.cfg.seed;
        for &p in &self.preds[key as usize] {
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
        let spin = self.wcet[key as usize] * self.cfg.work_unit;
        if spin > 0 {
            let mut acc = h;
            for i in 0..spin {
                acc = acc.wrapping_add(i).rotate_left(7) ^ 0x9E37_79B9;
            }
            std::hint::black_box(acc);
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

#[cfg(test)]
mod tests {
    use super::*;
    use ft_steal::pool::{Pool, PoolConfig};
    use nabbit_ft::inject::{FaultPlan, Phase};
    use nabbit_ft::scheduler::{BaselineScheduler, FtScheduler, SchedOpts};
    use nabbit_ft::seq;

    fn cfg(seed: u64) -> DagGenConfig {
        DagGenConfig::new(8, 6, 0.35, seed)
    }

    #[test]
    fn same_config_same_graph() {
        let a = RandDag::generate(cfg(42));
        let b = RandDag::generate(cfg(42));
        assert_eq!(a.task_count(), b.task_count());
        for k in a.all_keys() {
            assert_eq!(a.predecessors(k), b.predecessors(k));
            assert_eq!(a.wcet_of(k), b.wcet_of(k));
            assert_eq!(a.is_hard(k), b.is_hard(k));
        }
        assert_eq!(a.hard_tasks(), b.hard_tasks());
        assert_eq!(a.critical_tasks(), b.critical_tasks());
    }

    #[test]
    fn hot_path_overrides_match_defaults() {
        let d = RandDag::generate(cfg(42));
        let mut buf = Vec::new();
        for k in d.all_keys() {
            d.predecessors_into(k, &mut buf);
            assert_eq!(buf, d.predecessors(k));
            assert_eq!(d.out_degree(k), d.successors(k).len());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = RandDag::generate(cfg(1));
        let b = RandDag::generate(cfg(2));
        let differs = a.task_count() != b.task_count()
            || a.all_keys()
                .iter()
                .any(|&k| a.predecessors(k) != b.predecessors(k));
        assert!(differs, "two seeds produced the identical graph");
    }

    #[test]
    fn structure_is_a_layered_dag() {
        for seed in 0..20 {
            let d = RandDag::generate(cfg(seed));
            let sink = d.sink();
            for k in d.all_keys() {
                for p in d.predecessors(k) {
                    assert!(p < k, "edges point forward: {p} -> {k}");
                    assert!(d.successors(p).contains(&k), "succ list of {p} missing {k}");
                }
                if k != sink && d.successors(k).is_empty() {
                    panic!("childless inner node {k} not wired to the sink");
                }
            }
            // Every non-source inner node has at least one predecessor.
            let sources: usize = d
                .all_keys()
                .iter()
                .filter(|&&k| k != sink && d.predecessors(k).is_empty())
                .count();
            assert!(sources >= 1, "at least layer 0 is source-only");
        }
    }

    #[test]
    fn every_task_backward_reachable_from_sink() {
        let d = RandDag::generate(cfg(7));
        let mut seen = vec![false; d.task_count()];
        let mut stack = vec![d.sink()];
        seen[d.sink() as usize] = true;
        while let Some(k) = stack.pop() {
            for p in d.predecessors(k) {
                if !seen[p as usize] {
                    seen[p as usize] = true;
                    stack.push(p);
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "unreachable tasks exist");
    }

    #[test]
    fn hard_count_follows_ratio_and_critical_is_ancestor_closed() {
        for ratio in [0.0, 0.3, 0.5, 0.7, 1.0] {
            let mut c = cfg(9);
            c.critical_ratio = ratio;
            let d = RandDag::generate(c);
            let n_inner = d.task_count() - 1;
            let expect = ((ratio * n_inner as f64).ceil() as usize).min(n_inner);
            assert_eq!(d.hard_tasks().len(), expect, "ratio {ratio}");
            // Critical ⊇ Hard and closed under predecessors.
            for &k in &d.hard_tasks() {
                assert!(d.critical_tasks().contains(&k));
            }
            for &k in &d.critical_tasks() {
                for p in d.predecessors(k) {
                    assert!(
                        d.critical_tasks().contains(&p),
                        "ratio {ratio}: critical {k} has non-critical pred {p}"
                    );
                }
            }
        }
    }

    #[test]
    fn hard_tasks_rank_by_path_through() {
        // With ratio 0.5 the hard set's *minimum* path-through weight must
        // be >= the soft set's maximum (modulo exact ties, excluded by the
        // deterministic tie-break on key).
        let d = RandDag::generate(cfg(11));
        let w: Vec<u64> = d.all_keys().iter().map(|&k| d.wcet_of(k)).collect();
        let pa = path_analysis(&d, |k| w[k as usize] as f64);
        let through: std::collections::HashMap<Key, f64> = pa
            .order
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, pa.path_through(i)))
            .collect();
        let sink = d.sink();
        let hard_min = d
            .hard_tasks()
            .iter()
            .map(|k| through[k])
            .fold(f64::INFINITY, f64::min);
        let soft_max = d
            .all_keys()
            .iter()
            .filter(|&&k| k != sink && !d.is_hard(k))
            .map(|k| through[k])
            .fold(0.0f64, f64::max);
        assert!(
            hard_min >= soft_max,
            "hard min {hard_min} < soft max {soft_max}"
        );
    }

    #[test]
    fn sequential_run_produces_values() {
        let d = RandDag::generate(cfg(3));
        seq::run(&d).unwrap();
        for k in d.all_keys() {
            assert!(d.value_of(k).is_some(), "task {k} has no value");
        }
    }

    #[test]
    fn both_engines_run_it_and_values_match_seq() {
        let reference = {
            let d = RandDag::generate(cfg(5));
            seq::run(&d).unwrap();
            d.all_keys()
                .iter()
                .map(|&k| (k, d.value_of(k).unwrap()))
                .collect::<std::collections::HashMap<_, _>>()
        };
        let pool = Pool::new(PoolConfig::with_threads(4));

        let d = Arc::new(RandDag::generate(cfg(5)));
        let r = BaselineScheduler::new(Arc::clone(&d) as _).run(&pool);
        assert!(r.sink_completed);
        for k in d.all_keys() {
            assert_eq!(d.value_of(k), reference.get(&k).copied(), "baseline {k}");
        }

        let d = Arc::new(RandDag::generate(cfg(5)));
        let keys = d.all_keys();
        let plan = Arc::new(FaultPlan::sample(&keys, 5, Phase::AfterCompute, 77));
        let r = FtScheduler::with_plan(Arc::clone(&d) as _, plan).run(&pool);
        assert!(r.sink_completed);
        assert_eq!(r.injected, 5);
        for k in d.all_keys() {
            assert_eq!(d.value_of(k), reference.get(&k).copied(), "ft {k}");
        }
    }

    #[test]
    fn priority_mode_runs_clean_with_faults() {
        let pool = Pool::new(PoolConfig::with_threads(4));
        let d = Arc::new(RandDag::generate(cfg(13)));
        let keys = d.all_keys();
        let plan = Arc::new(FaultPlan::sample(&keys, 8, Phase::AfterCompute, 5));
        let opts = SchedOpts {
            priority: Some(d.priority_fn()),
            deadline: Some(Arc::new(nabbit_ft::deadline::DeadlineMonitor::new())),
        };
        let dl = opts.deadline.clone().unwrap();
        let r = FtScheduler::with_opts(Arc::clone(&d) as _, plan, None, opts).run(&pool);
        assert!(r.sink_completed);
        assert_eq!(dl.len(), d.task_count(), "every task completed once");
    }

    #[test]
    fn priority_fn_boosts_exactly_the_critical_set() {
        let d = RandDag::generate(cfg(17));
        let f = d.priority_fn();
        for k in d.all_keys() {
            let expect = if d.critical_tasks().contains(&k) {
                Priority::High
            } else {
                Priority::Normal
            };
            assert_eq!(f(k), expect, "task {k}");
        }
    }

    #[test]
    fn work_unit_spins_do_not_change_values() {
        let quick = RandDag::generate(cfg(19));
        seq::run(&quick).unwrap();
        let mut slow_cfg = cfg(19);
        slow_cfg.work_unit = 50;
        let slow = RandDag::generate(slow_cfg);
        seq::run(&slow).unwrap();
        for k in quick.all_keys() {
            assert_eq!(quick.value_of(k), slow.value_of(k));
        }
    }
}
