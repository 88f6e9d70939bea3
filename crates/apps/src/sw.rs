//! Smith-Waterman — blocked local sequence alignment with memory reuse.
//!
//! Same wavefront tiling as LCS, but with the paper's **memory reuse**
//! strategy: one data block per tile *column*, one version per tile *row*
//! (a tile row overwrites the row before last). Retention is
//! `KeepLast(2)`, and the task graph carries the anti-dependence edge
//! `(i-2, j+1) → (i, j)` so every reader of version `i−2` of column block
//! `j` finishes before task `(i,j)` overwrites it — the Section II
//! requirement that "all uses of a data block causally precede a subsequent
//! definition".
//!
//! A recovered task `(i,j)` needs version `i−1` of its column block; if
//! that has been overwritten, the producer chain `(i−1,j), (i−2,j), …` is
//! re-executed — the paper's sequential recovery chains (Section VI-C).
//!
//! Published block layout: `[right_col(B) | bottom_row(B) | corner | max]`
//! where `corner` is the bottom-right of the tile *above* (passed through
//! for the right-neighbour's diagonal read) and `max` is the running
//! local-alignment maximum over all tiles that causally precede this one.

use crate::common::{keys, AppConfig, BenchApp, Successors, VerifyOutcome, VersionClass};
use nabbit_ft::blocks::{BlockError, BlockStore, Retention};
use nabbit_ft::fault::Fault;
use nabbit_ft::graph::{ComputeCtx, Key, TaskGraph};

const MATCH: i32 = 2;
const MISMATCH: i32 = -1;
const GAP: i32 = -1;

/// Blocked Smith-Waterman benchmark instance.
pub struct Sw {
    cfg: AppConfig,
    x: Vec<u8>,
    y: Vec<u8>,
    /// True for the memory-reuse strategy (the paper's choice for SW);
    /// false for single-assignment (every version retained, no anti edges).
    reuse: bool,
    /// One block per tile column; version = tile row.
    store: BlockStore<i32>,
    /// Successor lists derived from `predecessors_into`.
    succ: Successors,
}

impl Sw {
    /// Create an instance with random 4-letter sequences (memory reuse, as
    /// the paper selected for SW).
    pub fn new(cfg: AppConfig) -> Self {
        Self::with_reuse(cfg, true)
    }

    /// Single-assignment variant: every tile-row version stays resident.
    pub fn single_assignment(cfg: AppConfig) -> Self {
        Self::with_reuse(cfg, false)
    }

    fn with_reuse(cfg: AppConfig, reuse: bool) -> Self {
        let x = crate::common::random_sequence(cfg.n, 4, cfg.seed);
        let y = crate::common::random_sequence(cfg.n, 4, cfg.seed.wrapping_add(1));
        let nb = cfg.nb();
        let retention = if reuse {
            Retention::KeepLast(2)
        } else {
            Retention::KeepAll
        };
        let mut sw = Sw {
            cfg,
            x,
            y,
            reuse,
            store: BlockStore::new(nb, retention),
            succ: Successors::default(),
        };
        sw.succ = Successors::invert(&sw.all_tasks(), |k, out| sw.predecessors_into(k, out));
        sw
    }

    fn nb(&self) -> usize {
        self.cfg.nb()
    }

    fn task_key(i: usize, j: usize) -> Key {
        keys::encode(0, 0, i, j)
    }

    /// Best local alignment score found by the task-graph run.
    pub fn result(&self) -> Option<i32> {
        let nb = self.nb();
        let b = self.cfg.b;
        self.store
            .read(nb - 1, (nb - 1) as u64)
            .ok()
            .map(|blk| blk[2 * b + 1])
    }

    /// Independent reference: rolling-row Smith-Waterman.
    pub fn reference(&self) -> i32 {
        let n = self.cfg.n;
        let mut prev = vec![0i32; n + 1];
        let mut cur = vec![0i32; n + 1];
        let mut best = 0;
        for u in 1..=n {
            for v in 1..=n {
                let s = if self.x[u - 1] == self.y[v - 1] {
                    MATCH
                } else {
                    MISMATCH
                };
                cur[v] = 0
                    .max(prev[v - 1] + s)
                    .max(prev[v] + GAP)
                    .max(cur[v - 1] + GAP);
                best = best.max(cur[v]);
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        best
    }
}

impl TaskGraph for Sw {
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
        let nb = self.nb();
        if i > 0 {
            out.push(Self::task_key(i - 1, j));
        }
        if j > 0 {
            out.push(Self::task_key(i, j - 1));
        }
        // Anti-dependence: we overwrite version i-2 of column block j,
        // whose other reader is task (i-2, j+1). Single-assignment never
        // overwrites, so the edge is unnecessary there.
        if self.reuse && i >= 2 && j + 1 < nb {
            out.push(Self::task_key(i - 2, j + 1));
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

        let top = if i > 0 {
            Some(
                self.store
                    .read(j, (i - 1) as u64)
                    .map_err(|e| e.into_fault())?,
            )
        } else {
            None
        };
        let left = if j > 0 {
            Some(
                self.store
                    .read(j - 1, i as u64)
                    .map_err(|e| e.into_fault())?,
            )
        } else {
            None
        };

        // Boundary values. The diagonal corner of this tile is carried in
        // the left block (bottom-right of tile (i-1, j-1)).
        let top_row = |v: usize| top.as_ref().map(|t| t[b + v]).unwrap_or(0);
        let left_col = |u: usize| left.as_ref().map(|l| l[u]).unwrap_or(0);
        let corner = left.as_ref().map(|l| l[2 * b]).unwrap_or(0);
        let mut running_max = top
            .as_ref()
            .map(|t| t[2 * b + 1])
            .unwrap_or(0)
            .max(left.as_ref().map(|l| l[2 * b + 1]).unwrap_or(0));
        // Corner we pass through to our right neighbour: bottom-right of
        // the tile above us.
        let corner_out = top.as_ref().map(|t| t[2 * b - 1]).unwrap_or(0);

        let mut prev: Vec<i32> = (0..b).map(top_row).collect();
        let mut cur = vec![0i32; b];
        let mut right_col = Vec::with_capacity(b);
        for u in 0..b {
            let xc = self.x[i * b + u];
            for v in 0..b {
                let s = if xc == self.y[j * b + v] {
                    MATCH
                } else {
                    MISMATCH
                };
                let dg = if v > 0 {
                    prev[v - 1]
                } else if u == 0 {
                    corner
                } else {
                    left_col(u - 1)
                };
                let up = prev[v];
                let lf = if v == 0 { left_col(u) } else { cur[v - 1] };
                let h = 0.max(dg + s).max(up + GAP).max(lf + GAP);
                cur[v] = h;
                running_max = running_max.max(h);
            }
            right_col.push(cur[b - 1]);
            std::mem::swap(&mut prev, &mut cur);
        }

        let mut out = right_col;
        out.extend_from_slice(&prev);
        out.push(corner_out);
        out.push(running_max);
        self.store.publish(j, i as u64, key, out);
        Ok(())
    }

    fn poison_outputs(&self, key: Key) {
        let (_, _, i, j) = keys::decode(key);
        self.store.poison(j, i as u64);
    }
}

impl BenchApp for Sw {
    fn name(&self) -> &'static str {
        "SW"
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

    fn tasks_of_class(&self, class: VersionClass) -> Vec<Key> {
        let nb = self.nb();
        match class {
            VersionClass::First => (0..nb).map(|j| Self::task_key(0, j)).collect(),
            VersionClass::Last => (0..nb).map(|j| Self::task_key(nb - 1, j)).collect(),
            VersionClass::Rand => self.all_tasks(),
        }
    }

    fn verify_detailed(&self) -> Result<VerifyOutcome, String> {
        let nb = self.nb();
        let b = self.cfg.b;
        match self.store.read(nb - 1, (nb - 1) as u64) {
            Ok(blk) => {
                let got = blk[2 * b + 1];
                let want = self.reference();
                if got == want {
                    Ok(VerifyOutcome {
                        checked: 1,
                        skipped_poisoned: 0,
                    })
                } else {
                    Err(format!("SW best score {got} != reference {want}"))
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
    fn sequential_matches_reference() {
        let app = Arc::new(Sw::new(AppConfig::new(128, 16)));
        seq::run(app.as_ref()).unwrap();
        app.verify().unwrap();
    }

    #[test]
    fn graph_shape_includes_anti_deps() {
        let app = Sw::new(AppConfig::new(64, 16)); // 4x4 tiles
        let s = nabbit_ft::analysis::graph_stats(&app);
        assert_eq!(s.tasks, 16);
        // Data edges: 2*nb*(nb-1) = 24; anti edges: (nb-2)*(nb-1) = 6.
        assert_eq!(s.edges, 30);
        assert_eq!(s.max_in_degree, 3);
    }

    #[test]
    fn anti_dep_edges_are_symmetric() {
        let app = Sw::new(AppConfig::new(128, 16));
        for &k in &app.all_tasks() {
            for p in app.predecessors(k) {
                assert!(
                    app.successors(p).contains(&k),
                    "pred/succ mismatch: {p} -> {k}"
                );
            }
            for s in app.successors(k) {
                assert!(
                    app.predecessors(s).contains(&k),
                    "succ/pred mismatch: {k} -> {s}"
                );
            }
        }
    }

    #[test]
    fn parallel_baseline_matches_reference() {
        let app = Arc::new(Sw::new(AppConfig::new(128, 16)));
        let pool = Pool::new(PoolConfig::with_threads(4));
        let report = BaselineScheduler::new(Arc::clone(&app) as _).run(&pool);
        assert!(report.sink_completed);
        app.verify().unwrap();
        // Memory reuse actually evicted old versions.
        assert!(app.store.evictions() > 0);
    }

    #[test]
    fn ft_without_faults_matches_reference() {
        let app = Arc::new(Sw::new(AppConfig::new(128, 16)));
        let pool = Pool::new(PoolConfig::with_threads(4));
        let report = FtScheduler::new(Arc::clone(&app) as _).run(&pool);
        assert!(report.sink_completed);
        assert_eq!(
            report.re_executions, 0,
            "fault-free reuse needs no recovery"
        );
        app.verify().unwrap();
    }

    #[test]
    fn ft_with_faults_on_last_version_tasks_chains() {
        // v=last failures force re-execution chains down the column.
        let app = Arc::new(Sw::new(AppConfig::new(128, 16)));
        let last = app.tasks_of_class(VersionClass::Last);
        let pool = Pool::new(PoolConfig::with_threads(4));
        let plan = Arc::new(FaultPlan::sample(&last, 2, Phase::AfterCompute, 5));
        let report = FtScheduler::with_plan(Arc::clone(&app) as _, plan).run(&pool);
        assert!(report.sink_completed);
        assert_eq!(report.injected, 2);
        // Each failure re-executes the failed task plus (typically) the
        // producers of the overwritten earlier versions.
        assert!(report.re_executions >= 2);
        app.verify().unwrap();
    }

    #[test]
    fn ft_with_random_faults_matches_reference() {
        let app = Arc::new(Sw::new(AppConfig::new(128, 16)));
        let keys = app.all_tasks();
        let pool = Pool::new(PoolConfig::with_threads(4));
        let plan = Arc::new(FaultPlan::sample(&keys, 12, Phase::AfterCompute, 23));
        let report = FtScheduler::with_plan(Arc::clone(&app) as _, plan).run(&pool);
        assert!(report.sink_completed);
        app.verify().unwrap();
    }

    #[test]
    fn ft_after_notify_faults_match_reference() {
        let app = Arc::new(Sw::new(AppConfig::new(128, 16)));
        let sink = app.sink();
        let keys: Vec<_> = app
            .tasks_of_class(VersionClass::Rand)
            .into_iter()
            .filter(|&k| k != sink)
            .collect();
        let pool = Pool::new(PoolConfig::with_threads(4));
        let plan = Arc::new(FaultPlan::sample(&keys, 8, Phase::AfterNotify, 29));
        let report = FtScheduler::with_plan(Arc::clone(&app) as _, plan).run(&pool);
        assert!(report.sink_completed);
        app.verify().unwrap();
    }

    #[test]
    fn identical_sequences_score() {
        let mut app = Sw::new(AppConfig::new(64, 8));
        app.y = app.x.clone();
        let app = Arc::new(app);
        seq::run(app.as_ref()).unwrap();
        // Perfect alignment of the whole string: N * MATCH.
        assert_eq!(app.result(), Some(64 * MATCH));
    }

    #[test]
    fn class_lists_are_disjoint_first_last() {
        let app = Sw::new(AppConfig::new(128, 16));
        let first = app.tasks_of_class(VersionClass::First);
        let last = app.tasks_of_class(VersionClass::Last);
        assert_eq!(first.len(), 8);
        assert_eq!(last.len(), 8);
        assert!(first.iter().all(|k| !last.contains(k)));
    }
}
