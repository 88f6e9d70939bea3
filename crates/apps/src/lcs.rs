//! LCS — blocked longest common subsequence (single-assignment).
//!
//! The DP table is tiled into `nb × nb` blocks; task `(i,j)` computes tile
//! `(i,j)` from its top, left, and diagonal neighbours (the recursive
//! definition of the DP). Following the paper, LCS is the one benchmark
//! where memory reuse "is not applicable because each task's output is part
//! of the computation's final output" — every tile is its own block with a
//! single version ([`Retention::KeepAll`]).
//!
//! Each published block stores only what successors need — the tile's right
//! column and bottom row (`2B` i32 values) — rather than the full `B×B`
//! tile, the standard memory optimization for wavefront DP.

use crate::common::{keys, AppConfig, BenchApp, Successors, VerifyOutcome, VersionClass};
use nabbit_ft::blocks::{BlockError, BlockStore, Retention};
use nabbit_ft::fault::Fault;
use nabbit_ft::graph::{ComputeCtx, Key, TaskGraph};

/// Blocked LCS benchmark instance. Build one per run.
pub struct Lcs {
    cfg: AppConfig,
    /// First input sequence (resilient application state).
    x: Vec<u8>,
    /// Second input sequence.
    y: Vec<u8>,
    /// One block per tile; layout `[right_col(B) | bottom_row(B)]`.
    store: BlockStore<i32>,
    /// Successor lists derived from `predecessors_into`.
    succ: Successors,
}

impl Lcs {
    /// Create an instance with random sequences over a 4-letter alphabet.
    pub fn new(cfg: AppConfig) -> Self {
        let x = crate::common::random_sequence(cfg.n, 4, cfg.seed);
        let y = crate::common::random_sequence(cfg.n, 4, cfg.seed.wrapping_add(1));
        let nb = cfg.nb();
        let mut lcs = Lcs {
            cfg,
            x,
            y,
            store: BlockStore::new(nb * nb, Retention::KeepAll),
            succ: Successors::default(),
        };
        lcs.succ = Successors::invert(&lcs.all_tasks(), |k, out| lcs.predecessors_into(k, out));
        lcs
    }

    fn nb(&self) -> usize {
        self.cfg.nb()
    }

    fn block_id(&self, i: usize, j: usize) -> usize {
        i * self.nb() + j
    }

    fn task_key(i: usize, j: usize) -> Key {
        keys::encode(0, 0, i, j)
    }

    /// LCS length computed by the task graph (sink tile's bottom-right
    /// corner). `None` before a completed run.
    pub fn result(&self) -> Option<i32> {
        let nb = self.nb();
        let b = self.cfg.b;
        self.store
            .read(self.block_id(nb - 1, nb - 1), 0)
            .ok()
            .map(|blk| blk[2 * b - 1])
    }

    /// Independent reference: classic O(N) space rolling-row LCS.
    pub fn reference(&self) -> i32 {
        let n = self.cfg.n;
        let mut prev = vec![0i32; n + 1];
        let mut cur = vec![0i32; n + 1];
        for u in 1..=n {
            for v in 1..=n {
                cur[v] = if self.x[u - 1] == self.y[v - 1] {
                    prev[v - 1] + 1
                } else {
                    prev[v].max(cur[v - 1])
                };
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        prev[n]
    }
}

impl TaskGraph for Lcs {
    fn sink(&self) -> Key {
        let nb = self.nb();
        Self::task_key(nb - 1, nb - 1)
    }

    fn predecessors(&self, key: Key) -> Vec<Key> {
        let mut p = Vec::new();
        self.predecessors_into(key, &mut p);
        p
    }

    fn predecessors_into(&self, key: Key, out: &mut Vec<Key>) {
        out.clear();
        let (_, _, i, j) = keys::decode(key);
        if i > 0 {
            out.push(Self::task_key(i - 1, j));
        }
        if j > 0 {
            out.push(Self::task_key(i, j - 1));
        }
        if i > 0 && j > 0 {
            out.push(Self::task_key(i - 1, j - 1));
        }
    }

    fn successors(&self, key: Key) -> Vec<Key> {
        self.succ.of(key).to_vec()
    }

    fn out_degree(&self, key: Key) -> usize {
        self.succ.of(key).len()
    }

    fn compute(&self, key: Key, _ctx: &ComputeCtx<'_>) -> Result<(), Fault> {
        let (_, _, i, j) = keys::decode(key);
        let b = self.cfg.b;

        // Guarded reads of the three neighbour blocks.
        let read = |bi: usize, bj: usize| {
            self.store
                .read(self.block_id(bi, bj), 0)
                .map_err(|e| e.into_fault())
        };
        let top = if i > 0 { Some(read(i - 1, j)?) } else { None };
        let left = if j > 0 { Some(read(i, j - 1)?) } else { None };
        let corner = if i > 0 && j > 0 {
            read(i - 1, j - 1)?[2 * b - 1]
        } else {
            0
        };

        // Boundary vectors for this tile.
        let top_row = |v: usize| top.as_ref().map(|t| t[b + v]).unwrap_or(0);
        let left_col = |u: usize| left.as_ref().map(|l| l[u]).unwrap_or(0);

        let mut prev: Vec<i32> = (0..b).map(top_row).collect();
        let mut cur = vec![0i32; b];
        let mut right_col = Vec::with_capacity(b);
        for u in 0..b {
            let xc = self.x[i * b + u];
            for v in 0..b {
                let up = prev[v];
                let lf = if v == 0 { left_col(u) } else { cur[v - 1] };
                let dg = if v > 0 {
                    prev[v - 1]
                } else if u == 0 {
                    corner
                } else {
                    left_col(u - 1)
                };
                cur[v] = if xc == self.y[j * b + v] {
                    dg + 1
                } else {
                    up.max(lf)
                };
            }
            right_col.push(cur[b - 1]);
            std::mem::swap(&mut prev, &mut cur);
        }
        // `prev` now holds the bottom row.
        let mut out = right_col;
        out.extend_from_slice(&prev);
        self.store.publish(self.block_id(i, j), 0, key, out);
        Ok(())
    }

    fn poison_outputs(&self, key: Key) {
        let (_, _, i, j) = keys::decode(key);
        self.store.poison(self.block_id(i, j), 0);
    }
}

impl BenchApp for Lcs {
    fn name(&self) -> &'static str {
        "LCS"
    }

    fn config(&self) -> AppConfig {
        self.cfg
    }

    fn all_tasks(&self) -> Vec<Key> {
        let nb = self.nb();
        (0..nb)
            .flat_map(|i| (0..nb).map(move |j| Self::task_key(i, j)))
            .collect()
    }

    fn tasks_of_class(&self, _class: VersionClass) -> Vec<Key> {
        // Single-assignment: every task produces the first and last (only)
        // version of its block; the classes coincide (the paper observes
        // near-identical behaviour across classes for LCS).
        self.all_tasks()
    }

    fn verify_detailed(&self) -> Result<VerifyOutcome, String> {
        let nb = self.nb();
        let b = self.cfg.b;
        match self.store.read(self.block_id(nb - 1, nb - 1), 0) {
            Ok(blk) => {
                let got = blk[2 * b - 1];
                let want = self.reference();
                if got == want {
                    Ok(VerifyOutcome {
                        checked: 1,
                        skipped_poisoned: 0,
                    })
                } else {
                    Err(format!("LCS length {got} != reference {want}"))
                }
            }
            Err(BlockError::Poisoned { .. }) => Ok(VerifyOutcome {
                checked: 0,
                skipped_poisoned: 1,
            }),
            Err(e) => Err(format!("sink block unreadable: {e:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_steal::pool::{Pool, PoolConfig};
    use nabbit_ft::inject::{FaultPlan, Phase};
    use nabbit_ft::scheduler::{BaselineScheduler, FtScheduler};
    use nabbit_ft::seq;
    use std::sync::Arc;

    #[test]
    fn sequential_execution_matches_reference() {
        let app = Arc::new(Lcs::new(AppConfig::new(128, 16)));
        seq::run(app.as_ref()).unwrap();
        app.verify().unwrap();
    }

    #[test]
    fn graph_shape() {
        let app = Lcs::new(AppConfig::new(64, 16));
        // 4x4 tiles.
        assert_eq!(app.all_tasks().len(), 16);
        let s = nabbit_ft::analysis::graph_stats(&app);
        assert_eq!(s.tasks, 16);
        // E = 3(nb-1)^2 + 2(nb-1) = 27 + 6 = 33.
        assert_eq!(s.edges, 33);
        // S = 2*nb - 1 = 7.
        assert_eq!(s.critical_path, 7);
        assert_eq!(s.max_in_degree, 3);
        assert_eq!(s.max_out_degree, 3);
    }

    #[test]
    fn paper_table1_formulas_at_paper_scale() {
        // Table I: N=512K, B=2K -> nb=256: T=65536, E=195585, S≈510.
        let nb = 256i64;
        let t = nb * nb;
        let e = 3 * (nb - 1) * (nb - 1) + 2 * (nb - 1);
        assert_eq!(t, 65536);
        assert_eq!(e, 195585);
        // Our path counts tasks (2nb-1 = 511); the paper's 510 counts hops.
        assert_eq!(2 * nb - 1, 511);
    }

    #[test]
    fn parallel_baseline_matches_reference() {
        let app = Arc::new(Lcs::new(AppConfig::new(128, 16)));
        let pool = Pool::new(PoolConfig::with_threads(4));
        let report = BaselineScheduler::new(Arc::clone(&app) as _).run(&pool);
        assert!(report.sink_completed);
        app.verify().unwrap();
    }

    #[test]
    fn ft_without_faults_matches_reference() {
        let app = Arc::new(Lcs::new(AppConfig::new(128, 16)));
        let pool = Pool::new(PoolConfig::with_threads(4));
        let report = FtScheduler::new(Arc::clone(&app) as _).run(&pool);
        assert!(report.sink_completed);
        assert_eq!(report.re_executions, 0);
        app.verify().unwrap();
    }

    #[test]
    fn ft_with_after_compute_faults_matches_reference() {
        let app = Arc::new(Lcs::new(AppConfig::new(128, 16)));
        let keys = app.all_tasks();
        let pool = Pool::new(PoolConfig::with_threads(4));
        let plan = Arc::new(FaultPlan::sample(&keys, 16, Phase::AfterCompute, 11));
        let report = FtScheduler::with_plan(Arc::clone(&app) as _, plan).run(&pool);
        assert!(report.sink_completed);
        assert_eq!(report.injected, 16);
        app.verify().unwrap();
    }

    #[test]
    fn ft_with_before_compute_faults_matches_reference() {
        let app = Arc::new(Lcs::new(AppConfig::new(128, 16)));
        let keys = app.all_tasks();
        let pool = Pool::new(PoolConfig::with_threads(4));
        let plan = Arc::new(FaultPlan::sample(&keys, 16, Phase::BeforeCompute, 13));
        let report = FtScheduler::with_plan(Arc::clone(&app) as _, plan).run(&pool);
        assert!(report.sink_completed);
        app.verify().unwrap();
    }

    #[test]
    fn ft_with_after_notify_faults_matches_reference() {
        let app = Arc::new(Lcs::new(AppConfig::new(128, 16)));
        // Exclude the sink: an after-notify fault on it is never observed
        // (nothing reads the sink's output inside the run).
        let sink = app.sink();
        let keys: Vec<_> = app.all_tasks().into_iter().filter(|&k| k != sink).collect();
        let pool = Pool::new(PoolConfig::with_threads(4));
        let plan = Arc::new(FaultPlan::sample(&keys, 16, Phase::AfterNotify, 17));
        let report = FtScheduler::with_plan(Arc::clone(&app) as _, plan).run(&pool);
        assert!(report.sink_completed);
        app.verify().unwrap();
    }

    #[test]
    fn tile_boundaries_handle_uneven_content() {
        // Identical sequences: LCS = N; exercises the all-match DP path
        // across tile boundaries.
        let mut app = Lcs::new(AppConfig::new(64, 8));
        app.y = app.x.clone();
        let app = Arc::new(app);
        seq::run(app.as_ref()).unwrap();
        assert_eq!(app.result(), Some(64));
    }

    #[test]
    fn single_tile_problem() {
        let app = Arc::new(Lcs::new(AppConfig::new(32, 32)));
        let pool = Pool::new(PoolConfig::with_threads(2));
        let report = FtScheduler::new(Arc::clone(&app) as _).run(&pool);
        assert!(report.sink_completed);
        assert_eq!(report.computes, 1);
        app.verify().unwrap();
    }
}
