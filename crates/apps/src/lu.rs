//! LU decomposition (no pivoting) — blocked right-looking factorization.
//!
//! Tasks per round `k`: `GETRF(k)` factors the diagonal tile; `TRSM_L(k,i)`
//! computes the L-panel tile `(i,k)`; `TRSM_U(k,j)` the U-panel tile
//! `(k,j)`; `GEMM(k,i,j)` applies the rank-`B` update to the trailing tile
//! `(i,j)`. Task counts reproduce Table I exactly:
//! `T = Σ_{m=1}^{nb} m² = nb(nb+1)(2nb+1)/6` → 173,880 at `nb = 80`, and
//! `E = 508,760` with no anti-dependence edges needed — every version of a
//! block has its single reader as a direct graph descendant, so
//! `KeepLast(2)` reuse is naturally safe.
//!
//! Recovery chains: re-executing `GEMM(k,i,j)` needs block `(i,j)` at
//! version `k` — long since evicted for large `k` — so a `v=last` failure
//! re-executes the whole update chain of that block (the paper's Table II
//! shows LU `v=last` averaging ~3,600 re-executions for 512 intended).

use crate::common::{
    keys, verify_tiles, AppConfig, BenchApp, Region, Successors, VerifyOutcome, VersionClass,
};
use crate::tile;
use nabbit_ft::blocks::{BlockStore, Retention};
use nabbit_ft::fault::Fault;
use nabbit_ft::graph::{ComputeCtx, Key, TaskGraph};
use std::sync::Arc;

const GETRF: u8 = 1;
const TRSML: u8 = 2; // computes L tile (i,k), i > k
const TRSMU: u8 = 3; // computes U tile (k,j), j > k
const GEMM: u8 = 4; // updates trailing tile (i,j), i,j > k

/// Blocked LU benchmark instance.
pub struct Lu {
    cfg: AppConfig,
    store: BlockStore<f64>,
    /// Successor lists derived from `predecessors_into`.
    succ: Successors,
}

impl Lu {
    /// Create an instance over a random diagonally-dominant matrix
    /// (memory reuse: two retained versions, the paper's configuration).
    pub fn new(cfg: AppConfig) -> Self {
        Self::with_retention(cfg, Retention::KeepLast(2))
    }

    /// Single-assignment variant: every block version stays resident, so
    /// recovery never needs to rebuild evicted inputs ("we expect the
    /// overheads [...] for the single-assignment implementations to be
    /// lower").
    pub fn single_assignment(cfg: AppConfig) -> Self {
        Self::with_retention(cfg, Retention::KeepAll)
    }

    /// Explicit retention policy.
    pub fn with_retention(cfg: AppConfig, retention: Retention) -> Self {
        let input = Self::input(&cfg);
        let nb = cfg.nb();
        let store = BlockStore::new(nb * nb, retention);
        for ti in 0..nb {
            for tj in 0..nb {
                let tile = crate::common::extract_tile(&input, cfg.n, cfg.b, ti, tj);
                store.publish_pinned(ti * nb + tj, 0, tile);
            }
        }
        let mut lu = Lu {
            cfg,
            store,
            succ: Successors::default(),
        };
        lu.succ = Successors::invert(&lu.all_tasks(), |k, out| lu.predecessors_into(k, out));
        lu
    }

    /// The input matrix: random and diagonally dominant, drawn from
    /// `cfg.seed`. Not kept: the pinned v0 tiles hold it for the run, and
    /// `reference` draws it again.
    fn input(cfg: &AppConfig) -> Vec<f64> {
        let n = cfg.n;
        let mut a = crate::common::random_matrix(n, 0.1, 1.0, cfg.seed);
        for d in 0..n {
            a[d * n + d] += n as f64;
        }
        a
    }

    fn nb(&self) -> usize {
        self.cfg.nb()
    }

    fn bid(&self, i: usize, j: usize) -> usize {
        i * self.nb() + j
    }

    /// Final version of block `(i,j)`: `min(i,j) + 1`.
    fn final_version(i: usize, j: usize) -> u64 {
        (i.min(j) + 1) as u64
    }

    /// Read the factored tile `(i,j)` after a completed run.
    pub fn factored_tile(&self, i: usize, j: usize) -> Option<Arc<Vec<f64>>> {
        self.store
            .read(self.bid(i, j), Self::final_version(i, j))
            .ok()
    }

    /// Independent reference: unblocked in-place LU without pivoting.
    pub fn reference(&self) -> Vec<f64> {
        let n = self.cfg.n;
        let mut a = Self::input(&self.cfg);
        for t in 0..n {
            let piv = a[t * n + t];
            for u in t + 1..n {
                a[u * n + t] /= piv;
                let l = a[u * n + t];
                for v in t + 1..n {
                    a[u * n + v] -= l * a[t * n + v];
                }
            }
        }
        a
    }
}

/// In-place unpivoted LU of a `b×b` tile.
fn kernel_getrf(a: &mut [f64], b: usize) {
    tile::dispatch(tile::Getrf { a, b });
}

/// L-panel solve `X · U = A` against the diagonal tile's U, matching the
/// unblocked elimination order exactly.
fn kernel_trsm_l(a: &mut [f64], diag: &[f64], b: usize) {
    tile::dispatch(tile::SolveUpper { a, u: diag, b });
}

/// U-panel solve: apply the diagonal tile's unit-L elimination to a
/// right-of-diagonal tile.
fn kernel_trsm_u(a: &mut [f64], diag: &[f64], b: usize) {
    tile::dispatch(tile::SolveUnitLower { a, l: diag, b });
}

/// Trailing update `C − L · U` into a fresh tile, accumulating per
/// elimination step `t` in order (bit-compatible with the unblocked
/// elimination).
fn kernel_gemm(c: &[f64], l: &[f64], u: &[f64], b: usize) -> Vec<f64> {
    let mut out = vec![0.0; b * b];
    tile::dispatch(tile::Gemm {
        out: &mut out,
        c,
        a: l,
        bt: u,
        b,
        lower: false,
    });
    out
}

impl TaskGraph for Lu {
    fn sink(&self) -> Key {
        keys::encode(GETRF, self.nb() - 1, 0, 0)
    }

    fn predecessors(&self, key: Key) -> Vec<Key> {
        let mut p = Vec::new();
        self.predecessors_into(key, &mut p);
        p
    }

    fn predecessors_into(&self, key: Key, out: &mut Vec<Key>) {
        out.clear();
        let (tag, k, i, j) = keys::decode(key);
        match tag {
            GETRF => {
                if k > 0 {
                    out.push(keys::encode(GEMM, k - 1, k, k));
                }
            }
            TRSML => {
                out.push(keys::encode(GETRF, k, 0, 0));
                if k > 0 {
                    out.push(keys::encode(GEMM, k - 1, i, k));
                }
            }
            TRSMU => {
                out.push(keys::encode(GETRF, k, 0, 0));
                if k > 0 {
                    out.push(keys::encode(GEMM, k - 1, k, j));
                }
            }
            GEMM => {
                out.push(keys::encode(TRSML, k, i, 0));
                out.push(keys::encode(TRSMU, k, 0, j));
                if k > 0 {
                    out.push(keys::encode(GEMM, k - 1, i, j));
                }
            }
            _ => unreachable!("bad LU task tag"),
        }
    }

    fn successors(&self, key: Key) -> Vec<Key> {
        self.succ.of(key).to_vec()
    }

    fn out_degree(&self, key: Key) -> usize {
        self.succ.of(key).len()
    }

    fn compute(&self, key: Key, _ctx: &ComputeCtx<'_>) -> Result<(), Fault> {
        let (tag, k, i, j) = keys::decode(key);
        let b = self.cfg.b;
        let v = k as u64;
        let read = |bi: usize, bj: usize, ver: u64| {
            self.store
                .read(self.bid(bi, bj), ver)
                .map_err(|e| e.into_fault())
        };
        match tag {
            GETRF => {
                let mut a = read(k, k, v)?.as_ref().clone();
                kernel_getrf(&mut a, b);
                self.store.publish(self.bid(k, k), v + 1, key, a);
            }
            TRSML => {
                let mut a = read(i, k, v)?.as_ref().clone();
                let d = read(k, k, v + 1)?;
                kernel_trsm_l(&mut a, &d, b);
                self.store.publish(self.bid(i, k), v + 1, key, a);
            }
            TRSMU => {
                let mut a = read(k, j, v)?.as_ref().clone();
                let d = read(k, k, v + 1)?;
                kernel_trsm_u(&mut a, &d, b);
                self.store.publish(self.bid(k, j), v + 1, key, a);
            }
            GEMM => {
                let c = read(i, j, v)?;
                let l = read(i, k, v + 1)?;
                let u = read(k, j, v + 1)?;
                let c = kernel_gemm(&c, &l, &u, b);
                self.store.publish(self.bid(i, j), v + 1, key, c);
            }
            _ => unreachable!("bad LU task tag"),
        }
        Ok(())
    }

    fn poison_outputs(&self, key: Key) {
        let (tag, k, i, j) = keys::decode(key);
        let (bi, bj) = match tag {
            GETRF => (k, k),
            TRSML => (i, k),
            TRSMU => (k, j),
            GEMM => (i, j),
            _ => return,
        };
        self.store.poison(self.bid(bi, bj), (k + 1) as u64);
    }
}

impl BenchApp for Lu {
    fn name(&self) -> &'static str {
        "LU"
    }

    fn config(&self) -> AppConfig {
        self.cfg
    }

    fn all_tasks(&self) -> Vec<Key> {
        let nb = self.nb();
        let mut v = Vec::new();
        for k in 0..nb {
            v.push(keys::encode(GETRF, k, 0, 0));
            for i in k + 1..nb {
                v.push(keys::encode(TRSML, k, i, 0));
            }
            for j in k + 1..nb {
                v.push(keys::encode(TRSMU, k, 0, j));
            }
            for i in k + 1..nb {
                for j in k + 1..nb {
                    v.push(keys::encode(GEMM, k, i, j));
                }
            }
        }
        v
    }

    fn tasks_of_class(&self, class: VersionClass) -> Vec<Key> {
        match class {
            // v=0: producers of the first computed version of any block —
            // the round-0 tasks.
            VersionClass::First => self
                .all_tasks()
                .into_iter()
                .filter(|&t| keys::decode(t).1 == 0)
                .collect(),
            // v=last: producers of the final version of any block — all
            // GETRF and TRSM tasks.
            VersionClass::Last => self
                .all_tasks()
                .into_iter()
                .filter(|&t| keys::decode(t).0 != GEMM)
                .collect(),
            VersionClass::Rand => self.all_tasks(),
        }
    }

    fn verify_detailed(&self) -> Result<VerifyOutcome, String> {
        // Tolerance scaled to the matrix magnitude (diagonally dominant,
        // entries up to n + 1).
        let tol = 1e-9 * self.cfg.n as f64;
        verify_tiles(
            "LU",
            self.cfg,
            &self.reference(),
            Region::Full,
            tol,
            |ti, tj| {
                self.store
                    .read(self.bid(ti, tj), Self::final_version(ti, tj))
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_steal::pool::{Pool, PoolConfig};
    use nabbit_ft::inject::{FaultPlan, Phase};
    use nabbit_ft::scheduler::{BaselineScheduler, FtScheduler};
    use nabbit_ft::seq;

    #[test]
    fn task_count_formula_matches_paper() {
        // T = nb(nb+1)(2nb+1)/6; Table I: nb=80 → 173,880.
        let t = |nb: usize| nb * (nb + 1) * (2 * nb + 1) / 6;
        assert_eq!(t(80), 173_880);
        let app = Lu::new(AppConfig::new(64, 16)); // nb = 4
        assert_eq!(app.all_tasks().len(), t(4));
    }

    #[test]
    fn edge_count_formula_matches_paper() {
        // Computed from our predecessor lists at nb=4, then the closed form
        // checked against the paper's 508,760 at nb=80.
        let app = Lu::new(AppConfig::new(64, 16));
        let s = nabbit_ft::analysis::graph_stats(&app);
        let e_formula = |nb: i64| -> i64 {
            // Σ_{m=0}^{nb-1} (3m² + 4m + 1) − (1 + 2(nb−1) + (nb−1)²)
            let mut total = 0;
            for m in 0..nb {
                total += 3 * m * m + 4 * m + 1;
            }
            total - (1 + 2 * (nb - 1) + (nb - 1) * (nb - 1))
        };
        assert_eq!(s.edges as i64, e_formula(4));
        assert_eq!(e_formula(80), 508_760);
    }

    #[test]
    fn critical_path_matches_paper() {
        // S = 3·nb − 2 (getrf → trsm → gemm per round); Table I: 238 at 80.
        let app = Lu::new(AppConfig::new(64, 16));
        let s = nabbit_ft::analysis::graph_stats(&app);
        assert_eq!(s.critical_path, 3 * 4 - 2);
        assert_eq!(3 * 80 - 2, 238);
    }

    #[test]
    fn pred_succ_symmetry() {
        let app = Lu::new(AppConfig::new(80, 16)); // nb = 5
        for &k in &app.all_tasks() {
            for p in app.predecessors(k) {
                assert!(app.successors(p).contains(&k), "pred/succ: {p} -> {k}");
            }
            for su in app.successors(k) {
                assert!(app.predecessors(su).contains(&k), "succ/pred: {k} -> {su}");
            }
            assert_eq!(
                app.out_degree(k),
                app.successors(k).len(),
                "out_degree: {k}"
            );
        }
    }

    #[test]
    fn sequential_matches_reference() {
        let app = Arc::new(Lu::new(AppConfig::new(64, 16)));
        seq::run(app.as_ref()).unwrap();
        app.verify().unwrap();
    }

    #[test]
    fn parallel_baseline_matches_reference() {
        let app = Arc::new(Lu::new(AppConfig::new(64, 16)));
        let pool = Pool::new(PoolConfig::with_threads(4));
        let report = BaselineScheduler::new(Arc::clone(&app) as _).run(&pool);
        assert!(report.sink_completed);
        app.verify().unwrap();
    }

    #[test]
    fn ft_without_faults_matches_reference() {
        let app = Arc::new(Lu::new(AppConfig::new(64, 16)));
        let pool = Pool::new(PoolConfig::with_threads(4));
        let report = FtScheduler::new(Arc::clone(&app) as _).run(&pool);
        assert!(report.sink_completed);
        assert_eq!(report.re_executions, 0);
        app.verify().unwrap();
    }

    #[test]
    fn ft_with_gemm_faults_matches_reference() {
        let app = Arc::new(Lu::new(AppConfig::new(64, 16)));
        let keys = app.all_tasks();
        let pool = Pool::new(PoolConfig::with_threads(4));
        let plan = Arc::new(FaultPlan::sample(&keys, 10, Phase::AfterCompute, 53));
        let report = FtScheduler::with_plan(Arc::clone(&app) as _, plan).run(&pool);
        assert!(report.sink_completed);
        assert_eq!(report.injected, 10);
        app.verify().unwrap();
    }

    #[test]
    fn ft_vlast_fault_triggers_chain() {
        // Failing the producer of a block's final version forces the chain
        // of earlier versions (evicted under KeepLast(2)) to be recomputed.
        let app = Arc::new(Lu::new(AppConfig::new(96, 16))); // nb = 6
        let nb = 6;
        // TRSM_L(nb-2, nb-1): block (5,4) final version = 5; versions 1..4
        // evicted by then.
        let victim = keys::encode(TRSML, nb - 2, nb - 1, 0);
        let pool = Pool::new(PoolConfig::with_threads(4));
        let plan = Arc::new(FaultPlan::single(victim, Phase::AfterCompute));
        let report = FtScheduler::with_plan(Arc::clone(&app) as _, plan).run(&pool);
        assert!(report.sink_completed);
        assert!(
            report.re_executions >= 1,
            "victim must re-execute: {}",
            report.re_executions
        );
        app.verify().unwrap();
    }

    #[test]
    fn ft_after_notify_on_vlast_verifies() {
        let app = Arc::new(Lu::new(AppConfig::new(64, 16)));
        let last = app.tasks_of_class(VersionClass::Last);
        let pool = Pool::new(PoolConfig::with_threads(4));
        let plan = Arc::new(FaultPlan::sample(&last, 4, Phase::AfterNotify, 59));
        let report = FtScheduler::with_plan(Arc::clone(&app) as _, plan).run(&pool);
        assert!(report.sink_completed);
        let o = app.verify_detailed().unwrap();
        assert!(o.skipped_poisoned as u64 <= report.injected);
        assert!(o.checked > 0);
    }

    #[test]
    fn class_partitions() {
        let app = Lu::new(AppConfig::new(64, 16)); // nb = 4
        let first = app.tasks_of_class(VersionClass::First);
        let last = app.tasks_of_class(VersionClass::Last);
        // Round 0: 1 getrf + 3 trsml + 3 trsmu + 9 gemm = 16.
        assert_eq!(first.len(), 16);
        // All getrf (4) + trsml (3+2+1) + trsmu (6) = 16.
        assert_eq!(last.len(), 16);
        assert_eq!(app.tasks_of_class(VersionClass::Rand).len(), 30);
    }
}

#[cfg(test)]
mod kernel_tests {
    use super::*;
    use crate::tile::testing::{assert_same_bits, random_tile, Arm, SIZES};

    /// The triple-loop kernels the tile kernels replaced (and GETRF as it
    /// was before it went through `dispatch`), kept verbatim as the bitwise
    /// oracle.
    mod oracle {
        /// In-place unpivoted LU of a `b×b` tile.
        pub(super) fn kernel_getrf(a: &mut [f64], b: usize) {
            for t in 0..b {
                let piv = a[t * b + t];
                for u in t + 1..b {
                    a[u * b + t] /= piv;
                    let l = a[u * b + t];
                    for v in t + 1..b {
                        a[u * b + v] -= l * a[t * b + v];
                    }
                }
            }
        }

        /// L-panel solve: replay the elimination of the diagonal tile's U on a
        /// sub-diagonal tile — column `t` divides by `U[t][t]` then updates the
        /// trailing columns, matching the unblocked elimination order exactly.
        pub(super) fn kernel_trsm_l(a: &mut [f64], diag: &[f64], b: usize) {
            for t in 0..b {
                let piv = diag[t * b + t];
                for u in 0..b {
                    a[u * b + t] /= piv;
                    let l = a[u * b + t];
                    for v in t + 1..b {
                        a[u * b + v] -= l * diag[t * b + v];
                    }
                }
            }
        }

        /// U-panel solve: apply the diagonal tile's unit-L elimination to a
        /// right-of-diagonal tile.
        pub(super) fn kernel_trsm_u(a: &mut [f64], diag: &[f64], b: usize) {
            for t in 0..b {
                for u in t + 1..b {
                    let l = diag[u * b + t];
                    for v in 0..b {
                        a[u * b + v] -= l * a[t * b + v];
                    }
                }
            }
        }

        /// Trailing update `C -= L · U`, accumulating per elimination step `t` in
        /// order (bit-compatible with the unblocked elimination).
        pub(super) fn kernel_gemm(c: &mut [f64], l: &[f64], u: &[f64], b: usize) {
            for t in 0..b {
                for row in 0..b {
                    let lv = l[row * b + t];
                    for col in 0..b {
                        c[row * b + col] -= lv * u[t * b + col];
                    }
                }
            }
        }
    }

    /// Every tile kernel gives the oracle's bits, through every arm this CPU
    /// can run and through `dispatch` (the app's wrappers).
    #[test]
    fn tile_kernels_equal_triple_loops_bitwise() {
        let arms = Arm::available();
        for (i, &b) in SIZES.iter().enumerate() {
            let seed = 0x1E_0000 + 3 * i as u64;
            let (c, l, u) = (
                random_tile(b, seed),
                random_tile(b, seed + 1),
                random_tile(b, seed + 2),
            );
            let mut gemm = c.clone();
            oracle::kernel_gemm(&mut gemm, &l, &u, b);
            let mut trsm_l = c.clone();
            oracle::kernel_trsm_l(&mut trsm_l, &u, b);
            let mut trsm_u = c.clone();
            oracle::kernel_trsm_u(&mut trsm_u, &l, b);
            let mut getrf = c.clone();
            oracle::kernel_getrf(&mut getrf, b);

            for &arm in &arms {
                let mut got = vec![0.0; b * b];
                arm.run(tile::Gemm {
                    out: &mut got,
                    c: &c,
                    a: &l,
                    bt: &u,
                    b,
                    lower: false,
                });
                assert_same_bits(&got, &gemm, &format!("GEMM {arm:?}, b={b}"));

                let mut got = c.clone();
                arm.run(tile::SolveUpper {
                    a: &mut got,
                    u: &u,
                    b,
                });
                assert_same_bits(&got, &trsm_l, &format!("TRSM_L {arm:?}, b={b}"));

                let mut got = c.clone();
                arm.run(tile::SolveUnitLower {
                    a: &mut got,
                    l: &l,
                    b,
                });
                assert_same_bits(&got, &trsm_u, &format!("TRSM_U {arm:?}, b={b}"));

                let mut got = c.clone();
                arm.run(tile::Getrf { a: &mut got, b });
                assert_same_bits(&got, &getrf, &format!("GETRF {arm:?}, b={b}"));
            }

            let got = kernel_gemm(&c, &l, &u, b);
            assert_same_bits(&got, &gemm, &format!("GEMM dispatched, b={b}"));
            let mut got = c.clone();
            kernel_trsm_l(&mut got, &u, b);
            assert_same_bits(&got, &trsm_l, &format!("TRSM_L dispatched, b={b}"));
            let mut got = c.clone();
            kernel_trsm_u(&mut got, &l, b);
            assert_same_bits(&got, &trsm_u, &format!("TRSM_U dispatched, b={b}"));
            let mut got = c.clone();
            kernel_getrf(&mut got, b);
            assert_same_bits(&got, &getrf, &format!("GETRF dispatched, b={b}"));
        }
    }

    /// 2×2 LU by hand: A = [[4,2],[6,5]] → L = [[1,0],[1.5,1]],
    /// U = [[4,2],[0,2]] packed as [[4,2],[1.5,2]].
    #[test]
    fn getrf_2x2_hand_computed() {
        let mut a = vec![4.0, 2.0, 6.0, 5.0];
        kernel_getrf(&mut a, 2);
        assert_eq!(a, vec![4.0, 2.0, 1.5, 2.0]);
    }

    /// L-panel: X·U = A with U from the tile above.
    #[test]
    fn trsm_l_inverts_u() {
        // diag tile factored: U = [[2,1],[0,3]] (L part irrelevant here).
        let diag = vec![2.0, 1.0, 0.5, 3.0];
        // A = X·U with X = [[1,2],[3,4]] → A = [[2, 7],[6, 15]].
        let mut a = vec![2.0, 7.0, 6.0, 15.0];
        kernel_trsm_l(&mut a, &diag, 2);
        assert!((a[0] - 1.0).abs() < 1e-12);
        assert!((a[1] - 2.0).abs() < 1e-12);
        assert!((a[2] - 3.0).abs() < 1e-12);
        assert!((a[3] - 4.0).abs() < 1e-12);
    }

    /// U-panel: L·X = A with unit-L from the tile to the left.
    #[test]
    fn trsm_u_inverts_unit_l() {
        // L = [[1,0],[0.5,1]] packed below the diagonal of the diag tile.
        let diag = vec![9.0, 9.0, 0.5, 9.0];
        // A = L·X with X = [[2,4],[6,8]] → A = [[2,4],[7,10]].
        let mut a = vec![2.0, 4.0, 7.0, 10.0];
        kernel_trsm_u(&mut a, &diag, 2);
        assert!((a[0] - 2.0).abs() < 1e-12);
        assert!((a[1] - 4.0).abs() < 1e-12);
        assert!((a[2] - 6.0).abs() < 1e-12);
        assert!((a[3] - 8.0).abs() < 1e-12);
    }

    #[test]
    fn gemm_subtracts_product() {
        // C -= L·U with L = I → C -= U.
        let l = vec![1.0, 0.0, 0.0, 1.0];
        let u = vec![1.0, 2.0, 3.0, 4.0];
        let c = vec![10.0, 10.0, 10.0, 10.0];
        let c = kernel_gemm(&c, &l, &u, 2);
        assert_eq!(c, vec![9.0, 8.0, 7.0, 6.0]);
    }

    /// The tile kernels composed over a 4×4-of-16×16 blocked matrix must
    /// equal the unblocked factorization bit for bit (same elimination
    /// order, same accumulation order per element).
    #[test]
    fn blocked_kernels_equal_unblocked_bitwise() {
        let app = Lu::new(AppConfig::new(64, 16));
        nabbit_ft::seq::run(&app).unwrap();
        let reference = app.reference();
        let nb = app.nb();
        for ti in 0..nb {
            for tj in 0..nb {
                let got = app.factored_tile(ti, tj).unwrap();
                let want = crate::common::extract_tile(&reference, 64, 16, ti, tj);
                assert_eq!(got.len(), want.len());
                for (e, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "tile ({ti},{tj}) element {e}: {g} vs {w}"
                    );
                }
            }
        }
    }
}
