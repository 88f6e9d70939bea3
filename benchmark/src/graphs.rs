//! The benchmark's inputs: seeded graph generators, their sequential
//! references, and the output oracles.
//!
//! Two families. *Hash graphs* (the wavefront grid and the layered random
//! DAG) store `hash(key, predecessor values)` per task, so a task that ran
//! before a predecessor, ran with a stale input, or was skipped produces a
//! value the sequential evaluation does not — result equivalence is a real
//! oracle even though the tasks do no useful work. *LU* is the blocked
//! factorization of `ft-apps`, verified tile by tile against a sequential
//! execution of the same graph.
//!
//! A [`Template`] is built once per set-up (shape, sequential evaluation,
//! expected outputs, fault candidates); every timed run gets a fresh
//! [`Instance`] from it, so runs never share mutable state.

use ft_apps::common::{max_abs_diff, AppConfig, BenchApp};
use ft_apps::lu::Lu;
use nabbit_ft::fault::Fault;
use nabbit_ft::graph::{ComputeCtx, Key, TaskGraph};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// SplitMix64: the benchmark's only random source (seeded, portable, and
/// independent of the repo's `rand` shim so generated inputs cannot change
/// under a later PR).
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform value in `0..n` (`n > 0`; the modulo bias is irrelevant at
    /// the sizes used here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The SplitMix64 finalizer: a cheap 64-bit mixing function.
#[inline]
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A dependent multiply chain of `iters` steps (~1 ns each): stand-in for
/// a task body of known, input-independent cost.
#[inline]
fn busy_work(iters: u32) {
    let mut acc = 1u64;
    for i in 1..=u64::from(iters) {
        acc = acc.wrapping_mul(i | 1) ^ (acc >> 7);
    }
    black_box(acc);
}

/// Adjacency of a generated DAG in compressed-row form, both directions.
#[derive(Debug)]
pub struct Csr {
    pred_off: Vec<u32>,
    preds: Vec<Key>,
    succ_off: Vec<u32>,
    succs: Vec<Key>,
}

impl Csr {
    fn preds_of(&self, k: Key) -> &[Key] {
        let k = k as usize;
        &self.preds[self.pred_off[k] as usize..self.pred_off[k + 1] as usize]
    }

    fn succs_of(&self, k: Key) -> &[Key] {
        let k = k as usize;
        &self.succs[self.succ_off[k] as usize..self.succ_off[k + 1] as usize]
    }

    /// Order-sensitive hash of every edge (generator determinism tests).
    pub fn edge_hash(&self) -> u64 {
        let mut h = 0u64;
        for k in 0..self.pred_off.len() - 1 {
            for &p in self.preds_of(k as Key) {
                h = mix(h ^ mix(((p as u64) << 32) | k as u64));
            }
        }
        h
    }
}

/// Shape of a hash graph. Keys are `0..tasks` and ascending key order is a
/// topological order in both shapes.
#[derive(Debug)]
pub enum Shape {
    /// `n × n` wavefront: task `(i, j)` depends on `(i−1, j)` and
    /// `(i, j−1)`; edges are computed arithmetically, nothing is stored.
    Grid {
        /// Side length.
        n: i64,
    },
    /// Generated layered DAG with a synthetic sink.
    Layered(Csr),
}

impl Shape {
    /// Seeded layered random DAG: `layers × width` tasks, each task of
    /// layer `l ≥ 1` depends on each task of layer `l − 1` with
    /// probability `edge_p`, plus one synthetic sink depending on the whole
    /// last layer. Orphan fix-ups keep every task reachable from the sink
    /// (a task with no drawn predecessor or successor gets the same-index
    /// neighbour), so the task count is exactly `layers · width + 1`.
    pub fn layered(layers: usize, width: usize, edge_p: f64, seed: u64) -> Shape {
        assert!(layers >= 1 && width >= 1, "empty DAG");
        let mut rng = SplitMix64(seed ^ 0xDA6_5EED);
        let threshold = (edge_p.clamp(0.0, 1.0) * u64::MAX as f64) as u64;
        let tasks = layers * width + 1;
        let id = |l: usize, i: usize| (l * width + i) as Key;
        let mut pred_lists: Vec<Vec<Key>> = vec![Vec::new(); tasks];
        for l in 1..layers {
            let mut has_succ = vec![false; width];
            for i in 0..width {
                for (j, hs) in has_succ.iter_mut().enumerate() {
                    if rng.next_u64() <= threshold {
                        pred_lists[id(l, i) as usize].push(id(l - 1, j));
                        *hs = true;
                    }
                }
                if pred_lists[id(l, i) as usize].is_empty() {
                    pred_lists[id(l, i) as usize].push(id(l - 1, i));
                    has_succ[i] = true;
                }
            }
            for (j, hs) in has_succ.iter().enumerate() {
                if !hs {
                    let list = &mut pred_lists[id(l, j) as usize];
                    list.push(id(l - 1, j));
                    list.sort_unstable();
                }
            }
        }
        pred_lists[tasks - 1] = (0..width).map(|i| id(layers - 1, i)).collect();

        let mut succ_lists: Vec<Vec<Key>> = vec![Vec::new(); tasks];
        for (k, list) in pred_lists.iter().enumerate() {
            for &p in list {
                succ_lists[p as usize].push(k as Key);
            }
        }
        let flatten = |lists: &[Vec<Key>]| {
            let mut off = Vec::with_capacity(lists.len() + 1);
            let mut flat = Vec::new();
            off.push(0u32);
            for list in lists {
                flat.extend_from_slice(list);
                off.push(flat.len() as u32);
            }
            (off, flat)
        };
        let (pred_off, preds) = flatten(&pred_lists);
        let (succ_off, succs) = flatten(&succ_lists);
        Shape::Layered(Csr {
            pred_off,
            preds,
            succ_off,
            succs,
        })
    }

    /// Number of tasks.
    pub fn tasks(&self) -> u64 {
        match self {
            Shape::Grid { n } => (n * n) as u64,
            Shape::Layered(c) => (c.pred_off.len() - 1) as u64,
        }
    }

    /// Number of dependence edges.
    pub fn edges(&self) -> u64 {
        match self {
            Shape::Grid { n } => (2 * n * (n - 1)) as u64,
            Shape::Layered(c) => c.preds.len() as u64,
        }
    }

    #[inline]
    fn for_each_pred(&self, k: Key, mut f: impl FnMut(Key)) {
        match self {
            Shape::Grid { n } => {
                let (i, j) = (k / n, k % n);
                if i > 0 {
                    f(k - n);
                }
                if j > 0 {
                    f(k - 1);
                }
            }
            Shape::Layered(c) => c.preds_of(k).iter().copied().for_each(f),
        }
    }

    #[inline]
    fn for_each_succ(&self, k: Key, mut f: impl FnMut(Key)) {
        match self {
            Shape::Grid { n } => {
                let (i, j) = (k / n, k % n);
                if i + 1 < *n {
                    f(k + n);
                }
                if j + 1 < *n {
                    f(k + 1);
                }
            }
            Shape::Layered(c) => c.succs_of(k).iter().copied().for_each(f),
        }
    }
}

/// One executable hash graph: a shared shape plus this instance's values.
pub struct HashGraph {
    shape: Arc<Shape>,
    salt: u64,
    work: u32,
    /// Task whose stored value is deliberately wrong (the oracle self-test);
    /// `-1` in every measured run.
    corrupt: Key,
    values: Box<[AtomicU64]>,
}

impl HashGraph {
    fn new(shape: Arc<Shape>, salt: u64, work: u32, corrupt: Key) -> Self {
        let values = (0..shape.tasks()).map(|_| AtomicU64::new(0)).collect();
        HashGraph {
            shape,
            salt,
            work,
            corrupt,
            values,
        }
    }

    #[inline]
    fn value_of(&self, key: Key) -> u64 {
        let mut h = mix(self.salt ^ key as u64);
        // ord: Acquire pairs with the Release store below; the scheduler's
        // join counter already orders producer before consumer, this keeps
        // the oracle honest even if a scheduler bug breaks that order.
        self.shape.for_each_pred(key, |p| {
            h = mix(h ^ self.values[p as usize].load(Ordering::Acquire));
        });
        h
    }

    fn snapshot(&self) -> Vec<u64> {
        self.values
            .iter()
            .map(|v| v.load(Ordering::Acquire))
            .collect()
    }
}

impl TaskGraph for HashGraph {
    fn sink(&self) -> Key {
        self.values.len() as Key - 1
    }

    fn predecessors(&self, key: Key) -> Vec<Key> {
        let mut out = Vec::new();
        self.predecessors_into(key, &mut out);
        out
    }

    fn predecessors_into(&self, key: Key, out: &mut Vec<Key>) {
        out.clear();
        self.shape.for_each_pred(key, |p| out.push(p));
    }

    fn successors(&self, key: Key) -> Vec<Key> {
        let mut out = Vec::new();
        self.shape.for_each_succ(key, |s| out.push(s));
        out
    }

    fn out_degree(&self, key: Key) -> usize {
        match &*self.shape {
            Shape::Grid { n } => usize::from(key / n + 1 < *n) + usize::from(key % n + 1 < *n),
            Shape::Layered(c) => c.succs_of(key).len(),
        }
    }

    fn compute(&self, key: Key, _ctx: &ComputeCtx<'_>) -> Result<(), Fault> {
        busy_work(self.work);
        let mut v = self.value_of(key);
        if key == self.corrupt {
            v ^= 1;
        }
        // ord: Release — see `value_of`.
        self.values[key as usize].store(v, Ordering::Release);
        Ok(())
    }
}

/// The sequential reference executor: run `graph`'s tasks on the calling
/// thread in `order` (the compute loop of `nabbit_ft::seq::run`, with the
/// order supplied instead of rediscovered).
pub fn execute_in_order(graph: &dyn TaskGraph, order: &[Key]) -> Result<(), Fault> {
    let ctx = ComputeCtx::new(1, false, None);
    order.iter().try_for_each(|&k| graph.compute(k, &ctx))
}

/// A graph kind the benchmark can instantiate repeatedly.
pub trait Template: Send + Sync {
    /// Tasks per instance.
    fn tasks(&self) -> u64;
    /// Dependence edges per instance.
    fn edges(&self) -> u64;
    /// Tasks a fault plan may pick: every task but the sink.
    fn fault_candidates(&self) -> &[Key];
    /// A topological order of every task: what the sequential reference
    /// executes (computed once, at set-up, so timing the reference does not
    /// pay for graph discovery).
    fn seq_order(&self) -> &[Key];
    /// A fresh instance with untouched state.
    fn fresh(&self) -> Box<dyn Instance>;
}

/// One executable instance of a [`Template`].
pub trait Instance: Send {
    /// The graph to hand to a scheduler.
    fn graph(&self) -> Arc<dyn TaskGraph>;
    /// Compare the instance's outputs with the template's sequential
    /// reference. `unrecovered_budget` is how many outputs may legitimately
    /// still carry a detected-but-unrecovered error (after-notify faults on
    /// tasks nobody revisited); hash graphs keep values outside the fault
    /// model and ignore it.
    fn verify(&self, unrecovered_budget: u64) -> Result<(), String>;
}

/// Template of a hash graph.
pub struct HashTemplate {
    shape: Arc<Shape>,
    salt: u64,
    work: u32,
    expected: Arc<Vec<u64>>,
    /// Every key, ascending — a topological order of both shapes. The fault
    /// candidates are all of it but the last (the sink).
    order: Vec<Key>,
}

impl HashTemplate {
    /// Build the template: evaluate the graph sequentially to obtain the
    /// expected values.
    pub fn new(shape: Shape, work: u32, seed: u64) -> Self {
        let shape = Arc::new(shape);
        let salt = mix(seed ^ 0x5A17);
        let reference = HashGraph::new(Arc::clone(&shape), salt, work, -1);
        let order: Vec<Key> = (0..shape.tasks() as Key).collect();
        // Hash graphs never report faults.
        let _ = execute_in_order(&reference, &order);
        let expected = Arc::new(reference.snapshot());
        HashTemplate {
            shape,
            salt,
            work,
            expected,
            order,
        }
    }

    /// An instance whose task `key` stores a wrong value — the oracle
    /// self-test: `verify` on it must fail.
    pub fn fresh_corrupt(&self, key: Key) -> Box<dyn Instance> {
        Box::new(HashInstance {
            graph: Arc::new(HashGraph::new(
                Arc::clone(&self.shape),
                self.salt,
                self.work,
                key,
            )),
            expected: Arc::clone(&self.expected),
        })
    }
}

impl Template for HashTemplate {
    fn tasks(&self) -> u64 {
        self.shape.tasks()
    }
    fn edges(&self) -> u64 {
        self.shape.edges()
    }
    fn fault_candidates(&self) -> &[Key] {
        &self.order[..self.order.len() - 1]
    }
    fn seq_order(&self) -> &[Key] {
        &self.order
    }
    fn fresh(&self) -> Box<dyn Instance> {
        self.fresh_corrupt(-1)
    }
}

struct HashInstance {
    graph: Arc<HashGraph>,
    expected: Arc<Vec<u64>>,
}

impl Instance for HashInstance {
    fn graph(&self) -> Arc<dyn TaskGraph> {
        Arc::clone(&self.graph) as Arc<dyn TaskGraph>
    }

    fn verify(&self, _unrecovered_budget: u64) -> Result<(), String> {
        // ord: Acquire — see `HashGraph::value_of`.
        let got = |k: usize| self.graph.values[k].load(Ordering::Acquire);
        match (0..self.expected.len()).find(|&k| got(k) != self.expected[k]) {
            None => Ok(()),
            Some(k) => Err(format!(
                "task {k}: value {:#x}, sequential reference {:#x}",
                got(k),
                self.expected[k]
            )),
        }
    }
}

/// Template of the blocked LU factorization (`ft_apps::lu::Lu`,
/// `Retention::KeepLast(2)`).
pub struct LuTemplate {
    cfg: AppConfig,
    tasks: u64,
    edges: u64,
    /// Factored tiles of the sequential execution, row-major over tiles.
    expected: Arc<Vec<Arc<Vec<f64>>>>,
    candidates: Vec<Key>,
    order: Vec<Key>,
}

impl LuTemplate {
    /// Build the template: run the graph through the sequential executor
    /// and keep its factored tiles as the reference.
    pub fn new(n: usize, b: usize, seed: u64) -> Result<Self, String> {
        let cfg = AppConfig::new(n, b).with_seed(seed);
        let reference = Lu::new(cfg);
        let order = nabbit_ft::seq::topo_order(&reference);
        execute_in_order(&reference, &order)
            .map_err(|f| format!("sequential LU reference faulted: {f}"))?;
        let nb = cfg.nb();
        let mut expected = Vec::with_capacity(nb * nb);
        for i in 0..nb {
            for j in 0..nb {
                expected.push(
                    reference
                        .factored_tile(i, j)
                        .ok_or_else(|| format!("sequential LU left tile ({i},{j}) unfactored"))?,
                );
            }
        }
        let all = reference.all_tasks();
        let sink = reference.sink();
        let edges = all
            .iter()
            .map(|&k| reference.predecessors(k).len() as u64)
            .sum();
        Ok(LuTemplate {
            cfg,
            tasks: all.len() as u64,
            edges,
            expected: Arc::new(expected),
            candidates: all.into_iter().filter(|&k| k != sink).collect(),
            order,
        })
    }

    /// Cross-check the blocked reference against `ft-apps`' independent
    /// unblocked factorization (run once per process, it costs O(n³)).
    pub fn cross_check(&self) -> Result<(), String> {
        let lu = Lu::new(self.cfg);
        nabbit_ft::seq::run(&lu).map_err(|f| format!("sequential LU faulted: {f}"))?;
        lu.verify()
    }
}

impl Template for LuTemplate {
    fn tasks(&self) -> u64 {
        self.tasks
    }
    fn edges(&self) -> u64 {
        self.edges
    }
    fn fault_candidates(&self) -> &[Key] {
        &self.candidates
    }
    fn seq_order(&self) -> &[Key] {
        &self.order
    }
    fn fresh(&self) -> Box<dyn Instance> {
        Box::new(LuInstance {
            lu: Arc::new(Lu::new(self.cfg)),
            nb: self.cfg.nb(),
            tol: 1e-9 * self.cfg.n as f64,
            expected: Arc::clone(&self.expected),
        })
    }
}

struct LuInstance {
    lu: Arc<Lu>,
    nb: usize,
    tol: f64,
    expected: Arc<Vec<Arc<Vec<f64>>>>,
}

impl Instance for LuInstance {
    fn graph(&self) -> Arc<dyn TaskGraph> {
        Arc::clone(&self.lu) as Arc<dyn TaskGraph>
    }

    fn verify(&self, unrecovered_budget: u64) -> Result<(), String> {
        let mut unreadable = 0u64;
        for i in 0..self.nb {
            for j in 0..self.nb {
                match self.lu.factored_tile(i, j) {
                    Some(tile) => {
                        let diff = max_abs_diff(&tile, &self.expected[i * self.nb + j]);
                        if diff.is_nan() || diff > self.tol {
                            return Err(format!("LU tile ({i},{j}) differs by {diff}"));
                        }
                    }
                    None => unreadable += 1,
                }
            }
        }
        if unreadable > unrecovered_budget {
            return Err(format!(
                "{unreadable} final LU tiles unreadable, at most {unrecovered_budget} explained by unobserved after-notify faults"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_dag_different_seed_different_dag() {
        let edge_hash = |shape: &Shape| match shape {
            Shape::Layered(csr) => csr.edge_hash(),
            Shape::Grid { .. } => unreachable!("layered() builds layered shapes"),
        };
        let a = Shape::layered(8, 16, 0.5, 7);
        let b = Shape::layered(8, 16, 0.5, 7);
        let c = Shape::layered(8, 16, 0.5, 8);
        assert_eq!(edge_hash(&a), edge_hash(&b));
        assert_eq!(a.edges(), b.edges());
        assert_ne!(edge_hash(&a), edge_hash(&c));
    }

    #[test]
    fn layered_dag_is_consistent_and_fully_reachable() {
        let shape = Arc::new(Shape::layered(6, 8, 0.3, 3));
        let g = HashGraph::new(Arc::clone(&shape), 1, 0, -1);
        assert_eq!(shape.tasks(), 6 * 8 + 1);
        let mut edges = 0;
        for k in 0..shape.tasks() as Key {
            let preds = g.predecessors(k);
            assert!(preds.windows(2).all(|w| w[0] < w[1]), "sorted, distinct");
            assert!(preds.iter().all(|&p| p < k), "key order is topological");
            for &p in &preds {
                assert!(g.successors(p).contains(&k));
            }
            assert_eq!(g.out_degree(k), g.successors(k).len());
            if k != g.sink() {
                assert!(g.out_degree(k) >= 1, "task {k} cannot reach the sink");
            }
            edges += preds.len() as u64;
        }
        assert_eq!(edges, shape.edges());
        assert_eq!(nabbit_ft::seq::discover(&g).len() as u64, shape.tasks());
    }

    #[test]
    fn grid_edges_match_the_closed_form() {
        let g = HashGraph::new(Arc::new(Shape::Grid { n: 5 }), 1, 0, -1);
        let mut edges = 0;
        for k in 0..25 {
            edges += g.predecessors(k).len() as u64;
            assert_eq!(g.out_degree(k), g.successors(k).len());
        }
        assert_eq!(edges, Shape::Grid { n: 5 }.edges());
        assert_eq!(g.predecessors(6), vec![1, 5]);
        assert_eq!(g.successors(6), vec![11, 7]);
    }

    #[test]
    fn fan_in_density_is_near_the_edge_probability() {
        let shape = Shape::layered(32, 64, 0.5, 1);
        let expected = 31.0 * 64.0 * 32.0 + 64.0;
        let got = shape.edges() as f64;
        assert!((got - expected).abs() / expected < 0.03, "edges {got}");
    }

    #[test]
    fn oracle_accepts_the_reference_and_flags_a_wrong_hash() {
        let t = HashTemplate::new(Shape::Grid { n: 6 }, 0, 9);
        let good = t.fresh();
        nabbit_ft::seq::run(good.graph().as_ref()).unwrap();
        assert!(good.verify(0).is_ok());
        let untouched = t.fresh();
        assert!(untouched.verify(0).is_err(), "skipped tasks must be caught");
        let bad = t.fresh_corrupt(17);
        nabbit_ft::seq::run(bad.graph().as_ref()).unwrap();
        let err = bad.verify(0).unwrap_err();
        assert!(err.starts_with("task 17:"), "{err}");
    }

    #[test]
    fn lu_reference_matches_the_unblocked_factorization() {
        let t = LuTemplate::new(96, 24, 5).unwrap();
        assert_eq!(t.tasks(), 30);
        t.cross_check().unwrap();
        let inst = t.fresh();
        assert!(
            inst.verify(0).is_err(),
            "an unexecuted instance has no factored tiles"
        );
        nabbit_ft::seq::run(inst.graph().as_ref()).unwrap();
        inst.verify(0).unwrap();
    }
}
