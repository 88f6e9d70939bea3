//! Cholesky factorization — blocked right-looking, lower triangular.
//!
//! Tasks per round `k`: `POTRF(k)` factors the diagonal tile; `TRSM(k,i)`
//! (`i > k`) computes the panel tile `(i,k)`; `UPDATE(k,i,j)`
//! (`k < j ≤ i`) applies `C −= L_{ik}·L_{jk}ᵀ` (SYRK when `i == j`, GEMM
//! otherwise). Task count reproduces Table I:
//! `T = Σ_k [1 + m + m(m+1)/2]` (with `m = nb−k−1`) → 88,560 at `nb = 80`;
//! critical path `S = 3·nb − 2 = 238`.
//!
//! Versioning mirrors LU: block `(i,j)` (lower triangle) gains one version
//! per update round, finishing at version `j + 1`; `KeepLast(2)` reuse is
//! naturally safe, and `v=last` failures cascade down the update chain.

use crate::common::{
    keys, verify_tiles, AppConfig, BenchApp, Region, Successors, VerifyOutcome, VersionClass,
};
use crate::tile;
use nabbit_ft::blocks::{BlockStore, Retention};
use nabbit_ft::fault::Fault;
use nabbit_ft::graph::{ComputeCtx, Key, TaskGraph};
use std::sync::Arc;

const POTRF: u8 = 1;
const TRSM: u8 = 2; // tile (i,k), i > k
const UPDATE: u8 = 3; // tile (i,j), k < j <= i

/// Blocked Cholesky benchmark instance.
pub struct Cholesky {
    cfg: AppConfig,
    store: BlockStore<f64>,
    /// Successor lists derived from `predecessors_into`.
    succ: Successors,
}

impl Cholesky {
    /// Create an instance over a random symmetric positive-definite matrix
    /// (symmetric + diagonally dominant), with the paper's two-version
    /// memory reuse.
    pub fn new(cfg: AppConfig) -> Self {
        Self::with_retention(cfg, Retention::KeepLast(2))
    }

    /// Single-assignment variant (every version retained).
    pub fn single_assignment(cfg: AppConfig) -> Self {
        Self::with_retention(cfg, Retention::KeepAll)
    }

    /// Explicit retention policy.
    pub fn with_retention(cfg: AppConfig, retention: Retention) -> Self {
        let input = Self::input(&cfg);
        let nb = cfg.nb();
        let store = BlockStore::new(nb * nb, retention);
        for ti in 0..nb {
            for tj in 0..=ti {
                let tile = crate::common::extract_tile(&input, cfg.n, cfg.b, ti, tj);
                store.publish_pinned(ti * nb + tj, 0, tile);
            }
        }
        let mut ch = Cholesky {
            cfg,
            store,
            succ: Successors::default(),
        };
        ch.succ = Successors::invert(&ch.all_tasks(), |k, out| ch.predecessors_into(k, out));
        ch
    }

    /// The input matrix: random, symmetric and diagonally dominant (so
    /// positive definite), drawn from `cfg.seed`. Not kept: the pinned v0
    /// tiles hold it for the run, and `reference` draws it again.
    fn input(cfg: &AppConfig) -> Vec<f64> {
        let n = cfg.n;
        let raw = crate::common::random_matrix(n, 0.1, 1.0, cfg.seed);
        let mut a = vec![0.0; n * n];
        for r in 0..n {
            for c in 0..n {
                a[r * n + c] = 0.5 * (raw[r * n + c] + raw[c * n + r]);
            }
            a[r * n + r] += n as f64;
        }
        a
    }

    fn nb(&self) -> usize {
        self.cfg.nb()
    }

    fn bid(&self, i: usize, j: usize) -> usize {
        i * self.nb() + j
    }

    /// Final version of lower-triangle block `(i,j)`: `j + 1`.
    fn final_version(j: usize) -> u64 {
        (j + 1) as u64
    }

    /// Read the factored tile `(i,j)` (`i ≥ j`) after a completed run.
    pub fn factored_tile(&self, i: usize, j: usize) -> Option<Arc<Vec<f64>>> {
        self.store.read(self.bid(i, j), Self::final_version(j)).ok()
    }

    /// Independent reference: unblocked lower Cholesky on the same input.
    pub fn reference(&self) -> Vec<f64> {
        let n = self.cfg.n;
        let mut a = Self::input(&self.cfg);
        for t in 0..n {
            a[t * n + t] = a[t * n + t].sqrt();
            let d = a[t * n + t];
            for u in t + 1..n {
                a[u * n + t] /= d;
            }
            for u in t + 1..n {
                let l = a[u * n + t];
                for v in t + 1..=u {
                    a[u * n + v] -= l * a[v * n + t];
                }
            }
        }
        a
    }
}

/// In-place lower Cholesky of a `b×b` tile (upper part left untouched).
fn kernel_potrf(a: &mut [f64], b: usize) {
    tile::dispatch(tile::Potrf { a, b });
}

/// Panel solve `X = A · L⁻ᵀ` against the factored diagonal tile, in
/// elimination order per element.
fn kernel_trsm(a: &mut [f64], diag: &[f64], b: usize) {
    let u = tile::transpose(diag, b);
    tile::dispatch(tile::SolveUpper { a, u: &u, b });
}

/// Trailing update `C − L_i · L_jᵀ` into a fresh tile, per elimination step
/// `t` in order. For the diagonal (SYRK) tile only the lower part is live;
/// the upper part is copied from `c`.
fn kernel_update(c: &[f64], li: &[f64], lj: &[f64], b: usize, syrk: bool) -> Vec<f64> {
    let ljt = tile::transpose(lj, b);
    let mut out = vec![0.0; b * b];
    tile::dispatch(tile::Gemm {
        out: &mut out,
        c,
        a: li,
        bt: &ljt,
        b,
        lower: syrk,
    });
    out
}

impl TaskGraph for Cholesky {
    fn sink(&self) -> Key {
        keys::encode(POTRF, self.nb() - 1, 0, 0)
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
            POTRF => {
                if k > 0 {
                    out.push(keys::encode(UPDATE, k - 1, k, k));
                }
            }
            TRSM => {
                out.push(keys::encode(POTRF, k, 0, 0));
                if k > 0 {
                    out.push(keys::encode(UPDATE, k - 1, i, k));
                }
            }
            UPDATE => {
                out.push(keys::encode(TRSM, k, i, 0));
                if j != i {
                    out.push(keys::encode(TRSM, k, j, 0));
                }
                if k > 0 {
                    out.push(keys::encode(UPDATE, k - 1, i, j));
                }
            }
            _ => unreachable!("bad Cholesky task tag"),
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
            POTRF => {
                let mut a = read(k, k, v)?.as_ref().clone();
                kernel_potrf(&mut a, b);
                self.store.publish(self.bid(k, k), v + 1, key, a);
            }
            TRSM => {
                let mut a = read(i, k, v)?.as_ref().clone();
                let d = read(k, k, v + 1)?;
                kernel_trsm(&mut a, &d, b);
                self.store.publish(self.bid(i, k), v + 1, key, a);
            }
            UPDATE => {
                let c = read(i, j, v)?;
                let li = read(i, k, v + 1)?;
                let c = if i == j {
                    kernel_update(&c, &li, &li, b, true)
                } else {
                    let lj = read(j, k, v + 1)?;
                    kernel_update(&c, &li, &lj, b, false)
                };
                self.store.publish(self.bid(i, j), v + 1, key, c);
            }
            _ => unreachable!("bad Cholesky task tag"),
        }
        Ok(())
    }

    fn poison_outputs(&self, key: Key) {
        let (tag, k, i, j) = keys::decode(key);
        let (bi, bj) = match tag {
            POTRF => (k, k),
            TRSM => (i, k),
            UPDATE => (i, j),
            _ => return,
        };
        self.store.poison(self.bid(bi, bj), (k + 1) as u64);
    }
}

impl BenchApp for Cholesky {
    fn name(&self) -> &'static str {
        "Cholesky"
    }

    fn config(&self) -> AppConfig {
        self.cfg
    }

    fn all_tasks(&self) -> Vec<Key> {
        let nb = self.nb();
        let mut v = Vec::new();
        for k in 0..nb {
            v.push(keys::encode(POTRF, k, 0, 0));
            for i in k + 1..nb {
                v.push(keys::encode(TRSM, k, i, 0));
            }
            for i in k + 1..nb {
                for j in k + 1..=i {
                    v.push(keys::encode(UPDATE, k, i, j));
                }
            }
        }
        v
    }

    fn tasks_of_class(&self, class: VersionClass) -> Vec<Key> {
        match class {
            VersionClass::First => self
                .all_tasks()
                .into_iter()
                .filter(|&t| keys::decode(t).1 == 0)
                .collect(),
            VersionClass::Last => self
                .all_tasks()
                .into_iter()
                .filter(|&t| keys::decode(t).0 != UPDATE)
                .collect(),
            VersionClass::Rand => self.all_tasks(),
        }
    }

    fn verify_detailed(&self) -> Result<VerifyOutcome, String> {
        let tol = 1e-9 * self.cfg.n as f64;
        verify_tiles(
            "Cholesky",
            self.cfg,
            &self.reference(),
            Region::Lower,
            tol,
            |ti, tj| self.store.read(self.bid(ti, tj), Self::final_version(tj)),
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
        // T = Σ_{m=0}^{nb-1} [1 + m + m(m+1)/2]; Table I: 88,560 at nb=80.
        let t = |nb: usize| -> usize {
            (0..nb)
                .map(|k| {
                    let m = nb - k - 1;
                    1 + m + m * (m + 1) / 2
                })
                .sum()
        };
        assert_eq!(t(80), 88_560);
        let app = Cholesky::new(AppConfig::new(64, 16));
        assert_eq!(app.all_tasks().len(), t(4));
    }

    #[test]
    fn critical_path_matches_paper() {
        let app = Cholesky::new(AppConfig::new(64, 16));
        let s = nabbit_ft::analysis::graph_stats(&app);
        assert_eq!(s.critical_path, 3 * 4 - 2);
        assert_eq!(3 * 80 - 2, 238); // Table I: S = 238
    }

    #[test]
    fn pred_succ_symmetry() {
        let app = Cholesky::new(AppConfig::new(80, 16)); // nb = 5
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
        let app = Arc::new(Cholesky::new(AppConfig::new(64, 16)));
        seq::run(app.as_ref()).unwrap();
        app.verify().unwrap();
    }

    #[test]
    fn parallel_baseline_matches_reference() {
        let app = Arc::new(Cholesky::new(AppConfig::new(64, 16)));
        let pool = Pool::new(PoolConfig::with_threads(4));
        let report = BaselineScheduler::new(Arc::clone(&app) as _).run(&pool);
        assert!(report.sink_completed);
        app.verify().unwrap();
    }

    #[test]
    fn ft_without_faults_matches_reference() {
        let app = Arc::new(Cholesky::new(AppConfig::new(64, 16)));
        let pool = Pool::new(PoolConfig::with_threads(4));
        let report = FtScheduler::new(Arc::clone(&app) as _).run(&pool);
        assert!(report.sink_completed);
        assert_eq!(report.re_executions, 0);
        app.verify().unwrap();
    }

    #[test]
    fn ft_with_random_faults_matches_reference() {
        let app = Arc::new(Cholesky::new(AppConfig::new(64, 16)));
        let keys = app.all_tasks();
        let pool = Pool::new(PoolConfig::with_threads(4));
        let plan = Arc::new(FaultPlan::sample(&keys, 8, Phase::AfterCompute, 61));
        let report = FtScheduler::with_plan(Arc::clone(&app) as _, plan).run(&pool);
        assert!(report.sink_completed);
        assert_eq!(report.injected, 8);
        app.verify().unwrap();
    }

    #[test]
    fn ft_potrf_fault_recovers() {
        // Failing the very last POTRF (the sink) exercises recovery of a
        // task with a long evicted input chain.
        let app = Arc::new(Cholesky::new(AppConfig::new(96, 16))); // nb = 6
        let pool = Pool::new(PoolConfig::with_threads(4));
        let plan = Arc::new(FaultPlan::single(app.sink(), Phase::AfterCompute));
        let report = FtScheduler::with_plan(Arc::clone(&app) as _, plan).run(&pool);
        assert!(report.sink_completed);
        assert!(report.re_executions >= 1);
        app.verify().unwrap();
    }

    #[test]
    fn ft_all_phases_verify() {
        for (phase, seed) in [
            (Phase::BeforeCompute, 67),
            (Phase::AfterCompute, 71),
            (Phase::AfterNotify, 73),
        ] {
            let app = Arc::new(Cholesky::new(AppConfig::new(64, 16)));
            let keys = app.all_tasks();
            let pool = Pool::new(PoolConfig::with_threads(4));
            let plan = Arc::new(FaultPlan::sample(&keys, 6, phase, seed));
            let report = FtScheduler::with_plan(Arc::clone(&app) as _, plan).run(&pool);
            assert!(report.sink_completed, "phase {phase:?}");
            let o = app
                .verify_detailed()
                .unwrap_or_else(|e| panic!("phase {phase:?}: {e}"));
            assert!(o.skipped_poisoned as u64 <= report.injected);
        }
    }

    #[test]
    fn class_partitions() {
        let app = Cholesky::new(AppConfig::new(64, 16)); // nb = 4
                                                         // Round 0: potrf + 3 trsm + 6 updates = 10.
        assert_eq!(app.tasks_of_class(VersionClass::First).len(), 10);
        // 4 potrf + 6 trsm = 10 v=last producers.
        assert_eq!(app.tasks_of_class(VersionClass::Last).len(), 10);
        assert_eq!(app.tasks_of_class(VersionClass::Rand).len(), 20);
    }
}

#[cfg(test)]
mod kernel_tests {
    use super::*;
    use crate::tile::testing::{assert_same_bits, random_tile, Arm, SIZES};

    /// The triple-loop kernels the tile kernels replaced (and POTRF as it
    /// was before it went through `dispatch`), kept verbatim as the bitwise
    /// oracle.
    mod oracle {
        /// In-place lower Cholesky of a `b×b` tile (upper part left untouched).
        pub(super) fn kernel_potrf(a: &mut [f64], b: usize) {
            for t in 0..b {
                a[t * b + t] = a[t * b + t].sqrt();
                let d = a[t * b + t];
                for u in t + 1..b {
                    a[u * b + t] /= d;
                }
                for u in t + 1..b {
                    let l = a[u * b + t];
                    for v in t + 1..=u {
                        a[u * b + v] -= l * a[v * b + t];
                    }
                }
            }
        }

        /// Panel solve `X = A · L⁻ᵀ` against the factored diagonal tile, column by
        /// column in elimination order.
        pub(super) fn kernel_trsm(a: &mut [f64], diag: &[f64], b: usize) {
            for t in 0..b {
                let d = diag[t * b + t];
                for u in 0..b {
                    a[u * b + t] /= d;
                }
                for v in t + 1..b {
                    let l = diag[v * b + t];
                    for u in 0..b {
                        a[u * b + v] -= l * a[u * b + t];
                    }
                }
            }
        }

        /// Trailing update `C −= L_i · L_jᵀ`, per elimination step `t` in order.
        pub(super) fn kernel_update(c: &mut [f64], li: &[f64], lj: &[f64], b: usize, syrk: bool) {
            for t in 0..b {
                for row in 0..b {
                    let lv = li[row * b + t];
                    // For the diagonal (SYRK) tile only the lower part is live.
                    let cols = if syrk { row + 1 } else { b };
                    for col in 0..cols {
                        c[row * b + col] -= lv * lj[col * b + t];
                    }
                }
            }
        }
    }

    /// Every tile kernel gives the oracle's bits, through every arm this CPU
    /// can run and through `dispatch` (the app's wrappers); SYRK leaves the
    /// upper triangle of `c` as it was.
    #[test]
    fn tile_kernels_equal_triple_loops_bitwise() {
        let arms = Arm::available();
        for (i, &b) in SIZES.iter().enumerate() {
            let seed = 0xC4_0000 + 3 * i as u64;
            let (c, li, lj) = (
                random_tile(b, seed),
                random_tile(b, seed + 1),
                random_tile(b, seed + 2),
            );

            for (syrk, lj) in [(false, &lj), (true, &li)] {
                let mut want = c.clone();
                oracle::kernel_update(&mut want, &li, lj, b, syrk);
                let ljt = tile::transpose(lj, b);
                for &arm in &arms {
                    let mut got = vec![0.0; b * b];
                    arm.run(tile::Gemm {
                        out: &mut got,
                        c: &c,
                        a: &li,
                        bt: &ljt,
                        b,
                        lower: syrk,
                    });
                    assert_same_bits(&got, &want, &format!("update {arm:?}, b={b} syrk={syrk}"));
                }
                let got = kernel_update(&c, &li, lj, b, syrk);
                assert_same_bits(
                    &got,
                    &want,
                    &format!("update dispatched, b={b} syrk={syrk}"),
                );
            }

            let mut trsm = c.clone();
            oracle::kernel_trsm(&mut trsm, &lj, b);
            let mut potrf = c.clone();
            oracle::kernel_potrf(&mut potrf, b);
            let ljt = tile::transpose(&lj, b);
            for &arm in &arms {
                let mut got = c.clone();
                arm.run(tile::SolveUpper {
                    a: &mut got,
                    u: &ljt,
                    b,
                });
                assert_same_bits(&got, &trsm, &format!("TRSM {arm:?}, b={b}"));

                let mut got = c.clone();
                arm.run(tile::Potrf { a: &mut got, b });
                assert_same_bits(&got, &potrf, &format!("POTRF {arm:?}, b={b}"));
            }
            let mut got = c.clone();
            kernel_trsm(&mut got, &lj, b);
            assert_same_bits(&got, &trsm, &format!("TRSM dispatched, b={b}"));
            let mut got = c.clone();
            kernel_potrf(&mut got, b);
            assert_same_bits(&got, &potrf, &format!("POTRF dispatched, b={b}"));
        }
    }

    /// 2×2 Cholesky by hand: A = [[4,2],[2,5]] → L = [[2,0],[1,2]].
    #[test]
    fn potrf_2x2_hand_computed() {
        let mut a = vec![4.0, 2.0, 2.0, 5.0];
        kernel_potrf(&mut a, 2);
        assert!((a[0] - 2.0).abs() < 1e-12);
        assert!((a[2] - 1.0).abs() < 1e-12);
        assert!((a[3] - 2.0).abs() < 1e-12);
    }

    /// Panel solve: X·Lᵀ = A.
    #[test]
    fn trsm_inverts_l_transpose() {
        // L = [[2,0],[1,3]] (lower), X = [[1,2],[3,4]]:
        // A = X·Lᵀ = [[2, 7],[6, 15]].
        let diag = vec![2.0, 0.0, 1.0, 3.0];
        let mut a = vec![2.0, 7.0, 6.0, 15.0];
        kernel_trsm(&mut a, &diag, 2);
        assert!((a[0] - 1.0).abs() < 1e-12);
        assert!((a[1] - 2.0).abs() < 1e-12);
        assert!((a[2] - 3.0).abs() < 1e-12);
        assert!((a[3] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn update_gemm_and_syrk() {
        // GEMM: C -= Li·Ljᵀ with Li = I → C -= Ljᵀ.
        let li = vec![1.0, 0.0, 0.0, 1.0];
        let lj = vec![1.0, 2.0, 3.0, 4.0]; // Ljᵀ = [[1,3],[2,4]]
        let c = vec![10.0, 10.0, 10.0, 10.0];
        let c = kernel_update(&c, &li, &lj, 2, false);
        assert_eq!(c, vec![9.0, 7.0, 8.0, 6.0]);

        // SYRK touches only the lower triangle.
        let c = vec![10.0, 99.0, 10.0, 10.0];
        let l = vec![1.0, 0.0, 2.0, 1.0];
        let c = kernel_update(&c, &l, &l, 2, true);
        // C -= L·Lᵀ (lower): c00 -= 1, c10 -= 2, c11 -= 5.
        assert_eq!(c, vec![9.0, 99.0, 8.0, 5.0]);
    }

    #[test]
    fn factor_reconstructs_spd_matrix() {
        // L·Lᵀ must reproduce the input (residual check on a small run).
        let app = Cholesky::new(AppConfig::new(32, 8));
        nabbit_ft::seq::run(&app).unwrap();
        let n = 32;
        let reference = app.reference();
        // Rebuild A from the unblocked reference L and compare to input.
        let input = Cholesky::input(&app.cfg);
        let mut rebuilt = vec![0.0f64; n * n];
        for i in 0..n {
            for j in 0..=i {
                let mut s = 0.0;
                for t in 0..=j {
                    s += reference[i * n + t] * reference[j * n + t];
                }
                rebuilt[i * n + j] = s;
            }
        }
        for i in 0..n {
            for j in 0..=i {
                let want = input[i * n + j];
                let got = rebuilt[i * n + j];
                assert!(
                    (got - want).abs() < 1e-8 * n as f64,
                    "A[{i}][{j}]: {got} vs {want}"
                );
            }
        }
    }
}
