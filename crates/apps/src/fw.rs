//! Floyd-Warshall — blocked all-pairs shortest paths with two-version
//! data blocks.
//!
//! The classic Gauss-Seidel blocked FW: round `k` first updates the
//! diagonal tile `(k,k)`, then row-`k` and column-`k` tiles against the
//! fresh diagonal, then every remaining tile against the fresh row/column
//! tiles. Task `(k,i,j)` produces **version `k+1`** of block `(i,j)`
//! (version 0 is the pinned, resilient input).
//!
//! Following Section VI, "we adapted the implementation to retain two
//! versions per data block, doubling the memory requirement, to minimize
//! the impact of cascading recomputation" — retention is `KeepLast(2)`
//! by default; [`Fw::with_single_version`] builds the one-version ablation
//! (longer recovery chains, the configuration the paper moved away from).
//!
//! ## Anti-dependence edges
//!
//! Publishing version `k+1` of block `(i,j)` evicts version `k+1−keep`.
//! The evicted version's remaining readers are the round-`k−keep` tasks
//! that read row/column `k−keep` blocks, so tasks in tile row/column
//! `k−keep` carry an extra predecessor row/column (≈`2·nb²` edges per
//! round). These are the edges that reconcile our edge count with the
//! paper's Table I figure for FW (E = 308,880 at nb = 40: ~187k data-flow
//! edges + ~122k anti edges).

use crate::common::{
    keys, verify_tiles, AppConfig, BenchApp, Region, Successors, VerifyOutcome, VersionClass,
};
use nabbit_ft::blocks::{BlockStore, Retention};
use nabbit_ft::fault::Fault;
use nabbit_ft::graph::{ComputeCtx, Key, TaskGraph};

/// Blocked Floyd-Warshall benchmark instance.
pub struct Fw {
    cfg: AppConfig,
    /// Retained versions per block (2 = paper configuration, 1 = ablation).
    keep: usize,
    store: BlockStore<f64>,
    /// Successor lists derived from `predecessors_into`.
    succ: Successors,
}

impl Fw {
    /// Paper configuration: two versions per block.
    pub fn new(cfg: AppConfig) -> Self {
        Self::with_keep(cfg, 2)
    }

    /// Ablation configuration: a single version per block (plain reuse,
    /// maximal cascading recomputation on recovery).
    pub fn with_single_version(cfg: AppConfig) -> Self {
        Self::with_keep(cfg, 1)
    }

    /// Single-assignment configuration: every version retained (the other
    /// strategy Section VI evaluates — no anti-dependence edges, no
    /// eviction, recovery never cascades; memory grows with the round
    /// count).
    pub fn single_assignment(cfg: AppConfig) -> Self {
        Self::with_keep(cfg, 0)
    }

    fn with_keep(cfg: AppConfig, keep: usize) -> Self {
        assert!(keep <= 2, "keep must be 0 (keep-all), 1 or 2");
        let nb = cfg.nb();
        let retention = if keep == 0 {
            Retention::KeepAll
        } else {
            Retention::KeepLast(keep as u64)
        };
        let store = BlockStore::new(nb * nb, retention);
        let dist = crate::common::random_matrix(cfg.n, 1.0, 10.0, cfg.seed);
        let mut dist = dist;
        for d in 0..cfg.n {
            dist[d * cfg.n + d] = 0.0;
        }
        for ti in 0..nb {
            for tj in 0..nb {
                let tile = crate::common::extract_tile(&dist, cfg.n, cfg.b, ti, tj);
                store.publish_pinned(ti * nb + tj, 0, tile);
            }
        }
        let mut fw = Fw {
            cfg,
            keep,
            store,
            succ: Successors::default(),
        };
        fw.succ = Successors::invert(&fw.all_tasks(), |k, out| fw.predecessors_into(k, out));
        fw
    }

    fn nb(&self) -> usize {
        self.cfg.nb()
    }

    fn bid(&self, i: usize, j: usize) -> usize {
        i * self.nb() + j
    }

    fn key(k: usize, i: usize, j: usize) -> Key {
        keys::encode(0, k, i, j)
    }

    /// Independent reference: unblocked Floyd-Warshall on the same input.
    pub fn reference(&self) -> Vec<f64> {
        let n = self.cfg.n;
        let mut d = crate::common::random_matrix(n, 1.0, 10.0, self.cfg.seed);
        for x in 0..n {
            d[x * n + x] = 0.0;
        }
        for k in 0..n {
            for i in 0..n {
                let dik = d[i * n + k];
                for j in 0..n {
                    let via = dik + d[k * n + j];
                    if via < d[i * n + j] {
                        d[i * n + j] = via;
                    }
                }
            }
        }
        d
    }
}

impl TaskGraph for Fw {
    fn sink(&self) -> Key {
        // No last-round task depends on all the others, so a synthetic
        // task (tag 1) depends on every round-(nb-1) task.
        keys::encode(1, 0, 0, 0)
    }

    fn predecessors(&self, key: Key) -> Vec<Key> {
        let mut p = Vec::new();
        self.predecessors_into(key, &mut p);
        p
    }

    fn predecessors_into(&self, key: Key, out: &mut Vec<Key>) {
        out.clear();
        let (tag, k, i, j) = keys::decode(key);
        let nb = self.nb();
        if tag == 1 {
            // Synthetic sink: depends on every last-round task.
            let k = nb - 1;
            out.extend((0..nb).flat_map(|i| (0..nb).map(move |j| Self::key(k, i, j))));
            return;
        }
        // Data-flow predecessors (round 0 reads the pinned input).
        if i == k && j == k {
            if k > 0 {
                out.push(Self::key(k - 1, k, k));
            }
        } else if i == k {
            out.push(Self::key(k, k, k));
            if k > 0 {
                out.push(Self::key(k - 1, k, j));
            }
        } else if j == k {
            out.push(Self::key(k, k, k));
            if k > 0 {
                out.push(Self::key(k - 1, i, k));
            }
        } else {
            out.push(Self::key(k, i, k));
            out.push(Self::key(k, k, j));
            if k > 0 {
                out.push(Self::key(k - 1, i, j));
            }
        }
        // Anti-dependence predecessors: we evict version (k+1) − keep of
        // block (i,j); its round-(k−keep) readers must have finished.
        // (Single-assignment — keep == 0 — never evicts, so no anti edges.)
        if self.keep > 0 && k >= self.keep {
            let kr = k - self.keep; // reader round
            if i == kr {
                for r in 0..nb {
                    let q = Self::key(kr, r, j);
                    if !out.contains(&q) {
                        out.push(q);
                    }
                }
            }
            if j == kr {
                for c in 0..nb {
                    let q = Self::key(kr, i, c);
                    if !out.contains(&q) {
                        out.push(q);
                    }
                }
            }
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
        if tag == 1 {
            return Ok(()); // synthetic sink does no work
        }
        let b = self.cfg.b;
        let v = k as u64; // input version
        let read = |bi: usize, bj: usize, ver: u64| {
            self.store
                .read(self.bid(bi, bj), ver)
                .map_err(|e| e.into_fault())
        };

        let out: Vec<f64> = if i == k && j == k {
            // Diagonal: in-tile FW.
            let mut d = read(k, k, v)?.as_ref().clone();
            for t in 0..b {
                for u in 0..b {
                    let dut = d[u * b + t];
                    for w in 0..b {
                        let via = dut + d[t * b + w];
                        if via < d[u * b + w] {
                            d[u * b + w] = via;
                        }
                    }
                }
            }
            d
        } else if i == k {
            // Row tile: B = min(B, D · B) with fresh diagonal D.
            let mut m = read(k, j, v)?.as_ref().clone();
            let d = read(k, k, v + 1)?;
            for t in 0..b {
                for u in 0..b {
                    let dut = d[u * b + t];
                    for w in 0..b {
                        let via = dut + m[t * b + w];
                        if via < m[u * b + w] {
                            m[u * b + w] = via;
                        }
                    }
                }
            }
            m
        } else if j == k {
            // Column tile: A = min(A, A · D).
            let mut m = read(i, k, v)?.as_ref().clone();
            let d = read(k, k, v + 1)?;
            for t in 0..b {
                for u in 0..b {
                    let aut = m[u * b + t];
                    for w in 0..b {
                        let via = aut + d[t * b + w];
                        if via < m[u * b + w] {
                            m[u * b + w] = via;
                        }
                    }
                }
            }
            m
        } else {
            // Rest tile: C = min(C, A_row · B_col) with fresh row/col tiles.
            let mut c = read(i, j, v)?.as_ref().clone();
            let a = read(i, k, v + 1)?;
            let rb = read(k, j, v + 1)?;
            for t in 0..b {
                for u in 0..b {
                    let aut = a[u * b + t];
                    for w in 0..b {
                        let via = aut + rb[t * b + w];
                        if via < c[u * b + w] {
                            c[u * b + w] = via;
                        }
                    }
                }
            }
            c
        };
        self.store.publish(self.bid(i, j), v + 1, key, out);
        Ok(())
    }

    fn poison_outputs(&self, key: Key) {
        let (tag, k, i, j) = keys::decode(key);
        if tag == 0 {
            self.store.poison(self.bid(i, j), (k + 1) as u64);
        }
    }
}

impl BenchApp for Fw {
    fn name(&self) -> &'static str {
        "FW"
    }

    fn config(&self) -> AppConfig {
        self.cfg
    }

    fn all_tasks(&self) -> Vec<Key> {
        let nb = self.nb();
        let mut v: Vec<Key> = (0..nb)
            .flat_map(|k| (0..nb).flat_map(move |i| (0..nb).map(move |j| Self::key(k, i, j))))
            .collect();
        v.push(self.sink());
        v
    }

    fn tasks_of_class(&self, class: VersionClass) -> Vec<Key> {
        let nb = self.nb();
        let round = |k: usize| -> Vec<Key> {
            (0..nb)
                .flat_map(|i| (0..nb).map(move |j| Self::key(k, i, j)))
                .collect()
        };
        match class {
            VersionClass::First => round(0),
            VersionClass::Last => round(nb - 1),
            VersionClass::Rand => (0..nb).flat_map(round).collect(),
        }
    }

    fn verify_detailed(&self) -> Result<VerifyOutcome, String> {
        let nb = self.nb() as u64;
        verify_tiles(
            "FW",
            self.cfg,
            &self.reference(),
            Region::Full,
            1e-9,
            |ti, tj| self.store.read(self.bid(ti, tj), nb),
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
    use std::sync::Arc;

    #[test]
    fn pred_succ_symmetry() {
        let app = Fw::new(AppConfig::new(96, 16)); // nb = 6, keep = 2
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
    fn pred_succ_symmetry_single_version() {
        let app = Fw::with_single_version(AppConfig::new(80, 16)); // nb = 5
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
        let app = Arc::new(Fw::new(AppConfig::new(64, 16)));
        seq::run(app.as_ref()).unwrap();
        app.verify().unwrap();
    }

    #[test]
    fn graph_shape_matches_paper_formulas() {
        // nb = 4: T = nb^3 + 1 (synthetic sink).
        let app = Fw::new(AppConfig::new(64, 16));
        let s = nabbit_ft::analysis::graph_stats(&app);
        assert_eq!(s.tasks, 64 + 1);
        // Critical path ≈ 3 per round (diag → row/col → rest) + sink.
        assert!(s.critical_path >= 3 * 4, "S = {}", s.critical_path);
    }

    #[test]
    fn no_duplicate_predecessors() {
        let app = Fw::new(AppConfig::new(96, 16));
        for &k in &app.all_tasks() {
            let p = app.predecessors(k);
            let mut q = p.clone();
            q.sort_unstable();
            q.dedup();
            assert_eq!(p.len(), q.len(), "duplicate preds for {k}: {p:?}");
        }
    }

    #[test]
    fn paper_table1_task_count_at_paper_scale() {
        // Table I: N=5K, B=128 → nb=40 (their rounding), T = 64000 = nb³.
        assert_eq!(40usize * 40 * 40, 64000);
    }

    #[test]
    fn parallel_baseline_matches_reference() {
        let app = Arc::new(Fw::new(AppConfig::new(64, 16)));
        let pool = Pool::new(PoolConfig::with_threads(4));
        let report = BaselineScheduler::new(Arc::clone(&app) as _).run(&pool);
        assert!(report.sink_completed);
        app.verify().unwrap();
    }

    #[test]
    fn ft_without_faults_matches_reference() {
        let app = Arc::new(Fw::new(AppConfig::new(64, 16)));
        let pool = Pool::new(PoolConfig::with_threads(4));
        let report = FtScheduler::new(Arc::clone(&app) as _).run(&pool);
        assert!(report.sink_completed);
        assert_eq!(report.re_executions, 0);
        app.verify().unwrap();
    }

    #[test]
    fn ft_with_last_round_faults_chains_and_verifies() {
        let app = Arc::new(Fw::new(AppConfig::new(64, 16)));
        let last = app.tasks_of_class(VersionClass::Last);
        let pool = Pool::new(PoolConfig::with_threads(4));
        let plan = Arc::new(FaultPlan::sample(&last, 2, Phase::AfterCompute, 31));
        let report = FtScheduler::with_plan(Arc::clone(&app) as _, plan).run(&pool);
        assert!(report.sink_completed, "sink must complete despite chains");
        assert!(report.re_executions >= 2);
        app.verify().unwrap();
    }

    #[test]
    fn ft_single_version_ablation_verifies_under_faults() {
        let app = Arc::new(Fw::with_single_version(AppConfig::new(64, 16)));
        let keys = app.all_tasks();
        let pool = Pool::new(PoolConfig::with_threads(4));
        let plan = Arc::new(FaultPlan::sample(&keys, 4, Phase::AfterCompute, 37));
        let report = FtScheduler::with_plan(Arc::clone(&app) as _, plan).run(&pool);
        assert!(report.sink_completed);
        app.verify().unwrap();
    }

    #[test]
    fn ft_random_faults_all_phases_verify() {
        for (phase, seed) in [
            (Phase::BeforeCompute, 41),
            (Phase::AfterCompute, 43),
            (Phase::AfterNotify, 47),
        ] {
            let app = Arc::new(Fw::new(AppConfig::new(64, 16)));
            let keys = app.tasks_of_class(VersionClass::Rand);
            let pool = Pool::new(PoolConfig::with_threads(4));
            let plan = Arc::new(FaultPlan::sample(&keys, 6, phase, seed));
            let report = FtScheduler::with_plan(Arc::clone(&app) as _, plan).run(&pool);
            assert!(report.sink_completed, "phase {phase:?}");
            // After-notify faults may legitimately leave never-revisited
            // blocks poisoned; everything checked must match.
            let o = app
                .verify_detailed()
                .unwrap_or_else(|e| panic!("phase {phase:?}: {e}"));
            assert!(
                o.skipped_poisoned as u64 <= report.injected,
                "phase {phase:?}: skipped {} > injected {}",
                o.skipped_poisoned,
                report.injected
            );
        }
    }

    #[test]
    fn evictions_happen_under_reuse() {
        let app = Arc::new(Fw::new(AppConfig::new(96, 16))); // nb=6 > keep
        seq::run(app.as_ref()).unwrap();
        assert!(app.store.evictions() > 0, "two-version reuse must evict");
        app.verify().unwrap();
    }
}
