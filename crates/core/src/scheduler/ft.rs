//! The fault-tolerant scheduler — Figure 2 with the shaded additions.
//!
//! [`FtScheduler`] is [`Engine<FtRecovery>`]: the shared traversal of
//! [`super::engine`] instantiated with the policy that restores every
//! shaded line of Figure 2, exactly as the paper introduces them:
//!
//! * every descriptor/data access inside a traversal phase is guarded
//!   (Cilk++ try/catch becomes `Result` + `match`);
//! * task keys and **life numbers** are threaded through the call stack
//!   rather than read from (possibly corrupt) descriptors;
//! * `NotifyOnce` consults the per-predecessor **bit vector** before
//!   decrementing the join counter (Guarantee 3);
//! * catch blocks invoke the recovery routines of Figure 3 (implemented in
//!   [`super::recovery`]).
//!
//! Fault injection happens at the three lifecycle points of Section VI
//! (before compute / after compute / after notify) by consulting the run's
//! [`FaultPlan`].

use super::engine::{Engine, FtPolicy};
use crate::bitvec::Clear;
use crate::fault::{Fault, FaultKind};
use crate::graph::{Key, TaskGraph};
use crate::inject::{FaultPlan, Phase};
use crate::task::{FtDesc, Status};
use crate::trace::{Event, Trace};
use ft_cmap::ShardedMap;
use ft_steal::arena::ArenaRef;
use ft_steal::pool::Scope;
use ft_sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

/// The selective localized-recovery policy: guarded accesses, bit-vector
/// notification gating, fault-injection probes, Figure-3 recovery.
pub struct FtRecovery {
    /// The recovery table `R`: key → most recent life whose recovery has
    /// been initiated. Built by the first `IsRecovering`, so a fault-free
    /// run never pays for it.
    pub(super) rtable: OnceLock<ShardedMap<u64>>,
    pub(super) plan: Arc<FaultPlan>,
    pub(super) trace: Option<Arc<Trace>>,
    /// Mutation-testing switch: when set, `notify_once` consumes a
    /// duplicate notification as if its bit had been set — reintroducing
    /// exactly the duplicate-decrement bug Guarantee 3's bit vector exists
    /// to prevent. Tests flip it to prove the trace oracle
    /// catches a broken implementation. Never set in production paths.
    pub(super) sabotage_notify: AtomicBool,
    /// Mutation-testing switch for the PR-8 inline-chain path: when set,
    /// the engine's in-place successor notification skips
    /// `consume_notification` entirely — the bug a chain implementation
    /// that forgot the Guarantee-3 gate would have. Tests flip it to prove
    /// the oracle flags a broken inline-notify path.
    pub(super) sabotage_chain: AtomicBool,
    /// One-shot mutation-testing switch for the PR-9 notify cells: when
    /// set, the next registration claims its slot but drops the `Release`
    /// publish and the self-delivery fallback — a lost notification. Tests
    /// flip it to prove the oracle flags a quiesced-but-incomplete run.
    pub(super) sabotage_cell: AtomicBool,
}

impl FtRecovery {
    fn new(plan: Arc<FaultPlan>, trace: Option<Arc<Trace>>) -> Self {
        FtRecovery {
            rtable: OnceLock::new(),
            plan,
            trace,
            sabotage_notify: AtomicBool::new(false),
            sabotage_chain: AtomicBool::new(false),
            sabotage_cell: AtomicBool::new(false),
        }
    }
}

impl FtPolicy for FtRecovery {
    type Desc = FtDesc;
    type Err = Fault;

    fn make_desc(&self, graph: &dyn TaskGraph, key: Key, scratch: &mut Vec<Key>) -> FtDesc {
        graph.predecessors_into(key, scratch);
        FtDesc::new(key, 1, scratch, graph.out_degree(key))
    }

    #[inline]
    fn emit(&self, worker: Option<usize>, event: Event) {
        if let Some(t) = &self.trace {
            t.record_from(worker, event);
        }
    }

    #[inline]
    fn check(d: &FtDesc) -> Result<(), Fault> {
        d.check()
    }

    #[inline]
    fn read_status(d: &FtDesc) -> Result<Status, Fault> {
        d.try_status()
    }

    fn check_dependable(b: &FtDesc) -> Result<(), Fault> {
        b.check()?;
        // ord: Acquire — observing the overwrite flag must also see the
        // recovery writes that set it, so the fault report is coherent.
        if b.overwritten.load(Ordering::Acquire) {
            // "if (B.overwritten) throw"
            return Err(Fault {
                source: b.key,
                kind: FaultKind::Overwritten,
                life: b.life,
            });
        }
        Ok(())
    }

    /// Clear the bit for `pkey`; a bit that was already clear is a
    /// duplicate and is absorbed.
    fn consume_notification(
        engine: &Engine<Self>,
        a: &FtDesc,
        key: Key,
        pkey: Key,
        ind: Option<usize>,
        life: u64,
        worker: Option<usize>,
    ) -> Result<Clear, Fault> {
        let ind = match ind {
            Some(ind) => {
                debug_assert_eq!(a.pred_index(pkey), Some(ind), "{pkey} → {key}");
                ind
            }
            None => a
                .pred_index(pkey)
                .ok_or_else(|| Fault::descriptor(key, life))?,
        };
        let cleared = a.bits.clear(ind);
        let Clear::AlreadyClear { word_empty } = cleared else {
            return Ok(cleared);
        };
        // ord: Relaxed — sabotage flags are test-campaign switches set
        // before the run starts; no data is published through them.
        if engine.policy.sabotage_notify.load(Ordering::Relaxed) {
            // Mutation testing: consume the duplicate as if its bit had
            // been set.
            return Ok(if word_empty {
                Clear::Emptied
            } else {
                Clear::Cleared
            });
        }
        // Duplicate notification absorbed (Guarantee 3).
        engine.metrics.duplicate_notifications.add(worker);
        engine.policy.emit(
            worker,
            Event::DuplicateNotify {
                key,
                life,
                pred: pkey,
            },
        );
        Ok(cleared)
    }

    #[inline]
    fn join_underflow_ok(&self) -> bool {
        // ord: Relaxed — mutation-testing switches set before the run.
        self.sabotage_notify.load(Ordering::Relaxed) || self.sabotage_chain.load(Ordering::Relaxed)
    }

    #[inline]
    fn sabotage_chain(&self) -> bool {
        // ord: Relaxed — mutation-testing switch set before the run.
        self.sabotage_chain.load(Ordering::Relaxed)
    }

    #[inline]
    fn sabotage_cell(&self) -> bool {
        // One-shot: exactly one registration loses its publish.
        // ord: Relaxed — single mutation-testing flag; the swap only
        // guarantees at-most-one winner, no data is released through it.
        self.sabotage_cell.load(Ordering::Relaxed)
            && self.sabotage_cell.swap(false, Ordering::Relaxed)
    }

    #[inline]
    fn is_recovery_exec(d: &FtDesc) -> bool {
        // ord: Relaxed — set before the recovery descriptor is published
        // to the scheduler; readers piggyback on that Release edge.
        d.is_recovery.load(Ordering::Relaxed)
    }

    fn probe(engine: &Engine<Self>, a: &FtDesc, key: Key, phase: Phase, worker: Option<usize>) {
        if engine.policy.plan.fire(key, phase) {
            engine.poison_task(a, phase, worker);
        }
    }

    fn compute_error(engine: &Engine<Self>, f: Fault) -> Fault {
        // ord: Relaxed — statistics counters read at quiescence.
        engine
            .metrics
            .compute_faults
            .fetch_add(1, Ordering::Relaxed);
        if f.kind == FaultKind::Overwritten {
            // ord: Relaxed — statistics counter read at quiescence.
            engine
                .metrics
                .overwrite_faults
                .fetch_add(1, Ordering::Relaxed);
        }
        f
    }

    /// catch { RecoverTaskOnce(key, life) }
    fn on_guard_fault(
        engine: &Engine<Self>,
        s: &Scope<'_>,
        w: Option<usize>,
        f: Fault,
        key: Key,
        life: u64,
    ) {
        engine.policy.emit(
            w,
            Event::FaultObserved {
                source: f.source,
                kind: f.kind,
            },
        );
        engine.recover_task_once(s, w, key, life);
    }

    fn on_compute_fault(
        engine: &Engine<Self>,
        s: &Scope<'_>,
        w: Option<usize>,
        a: ArenaRef<FtDesc>,
        key: Key,
        life: u64,
        f: Fault,
    ) {
        engine.policy.emit(
            w,
            Event::FaultObserved {
                source: f.source,
                kind: f.kind,
            },
        );
        if f.source == key {
            // "if (error in A) RecoverTaskOnce(key, life)"
            engine.recover_task_once(s, w, key, life);
        } else {
            // Error in an input. Mark the source so other traversals
            // observe the detected error ("once an error is detected, all
            // subsequent accesses to that object will observe the error"),
            // initiate its recovery, then process A anew.
            let src_life = match engine.get_task(f.source) {
                Some((src, sl)) => {
                    match f.kind {
                        // ord: Release — publishes the fault verdict so a
                        // dependent's Acquire check sees why it failed.
                        FaultKind::Overwritten => src.overwritten.store(true, Ordering::Release),
                        _ => src.poisoned.store(true, Ordering::Release),
                    }
                    sl
                }
                None => f.life.max(1),
            };
            engine.recover_task_once(s, w, f.source, src_life);
            engine.reset_node(s, w, a, key, life);
        }
    }
}

/// The fault-tolerant NABBIT scheduler.
pub type FtScheduler = Engine<FtRecovery>;

impl Engine<FtRecovery> {
    /// Scheduler with no planned faults.
    pub fn new(graph: Arc<dyn TaskGraph>) -> Arc<Self> {
        Self::with_plan(graph, Arc::new(FaultPlan::none()))
    }

    /// Scheduler with a fault-injection plan. One scheduler = one run.
    pub fn with_plan(graph: Arc<dyn TaskGraph>, plan: Arc<FaultPlan>) -> Arc<Self> {
        Engine::with_policy(graph, FtRecovery::new(plan, None))
    }

    /// Scheduler with a fault plan and an execution trace recorder.
    pub fn with_plan_traced(
        graph: Arc<dyn TaskGraph>,
        plan: Arc<FaultPlan>,
        trace: Arc<Trace>,
    ) -> Arc<Self> {
        Engine::with_policy(graph, FtRecovery::new(plan, Some(trace)))
    }

    /// Disable the Guarantee-3 bit-vector check (mutation testing only).
    ///
    /// With this set, duplicate notifications are consumed as if their bit
    /// had been set instead of being absorbed, so a task can become ready
    /// before all its predecessors computed. The trace oracle must flag such a run as a
    /// G3 violation; see `tests/det_campaigns.rs`.
    #[doc(hidden)]
    pub fn sabotage_notify_bitvec(&self) {
        // ord: Relaxed — mutation-testing switch armed before the run.
        self.policy.sabotage_notify.store(true, Ordering::Relaxed);
    }

    /// Break the inline-chain notification gate (mutation testing only).
    ///
    /// With this set, the engine's in-place delivery of notify-array
    /// entries (the PR-8 inline-chain site) bypasses the bit-vector check,
    /// so re-delivered notifications under faults double-decrement the
    /// join counter. The trace oracle must flag such a run as a G3
    /// violation; see `tests/det_campaigns.rs`.
    #[doc(hidden)]
    pub fn sabotage_inline_chain(&self) {
        // ord: Relaxed — mutation-testing switch armed before the run.
        self.policy.sabotage_chain.store(true, Ordering::Relaxed);
    }

    /// Drop one notify-cell publish (mutation testing only).
    ///
    /// With this set, exactly one registration claims its slot in the
    /// predecessor's notify cells but never publishes its key — and skips
    /// the self-delivery fallback — so one notification is lost and the
    /// successor's join counter never reaches zero. The run quiesces with
    /// an incomplete sink; the trace oracle must flag it as a G4
    /// violation; see `tests/det_campaigns.rs`.
    #[doc(hidden)]
    pub fn sabotage_notify_cell(&self) {
        // ord: Relaxed — mutation-testing switch armed before the run.
        self.policy.sabotage_cell.store(true, Ordering::Relaxed);
    }

    /// Number of entries in the recovery table (≥1 failure observed); 0
    /// until the first failure builds the table.
    pub fn recovery_table_len(&self) -> usize {
        self.policy.rtable.get().map_or(0, ShardedMap::len)
    }

    /// Per-task execution counts N(A) after a run (Section V's `N`
    /// function) — used by the Theorem 2 bound evaluation.
    pub fn exec_counts(&self) -> Vec<(Key, u64)> {
        self.metrics.exec_counts.entries()
    }

    /// Poison a task: descriptor flag plus every output block version ("a
    /// fault affects both a task and the data blocks it has computed").
    pub(super) fn poison_task(&self, desc: &FtDesc, phase: Phase, worker: Option<usize>) {
        // ord: Release — the poison flag must publish after the injected
        // fault's effects so dependents observe a consistent error state.
        desc.poisoned.store(true, Ordering::Release);
        self.graph.poison_outputs(desc.key);
        // ord: Relaxed — statistics counter read at quiescence.
        self.metrics.injected.fetch_add(1, Ordering::Relaxed);
        self.policy.emit(
            worker,
            Event::Injected {
                key: desc.key,
                phase,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ComputeCtx;
    use ft_steal::pool::{Pool, PoolConfig};
    use parking_lot::Mutex;
    use std::collections::HashSet;

    /// Same wavefront grid as the baseline tests.
    struct Grid {
        n: i64,
        computed: Mutex<Vec<Key>>,
    }

    impl Grid {
        fn new(n: i64) -> Self {
            Grid {
                n,
                computed: Mutex::new(Vec::new()),
            }
        }
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
            let mut su = Vec::new();
            if i + 1 < self.n {
                su.push((i + 1) * self.n + j);
            }
            if j + 1 < self.n {
                su.push(i * self.n + (j + 1));
            }
            su
        }
        fn compute(&self, k: Key, _ctx: &ComputeCtx<'_>) -> Result<(), Fault> {
            self.computed.lock().push(k);
            Ok(())
        }
    }

    #[test]
    fn fault_free_run_matches_baseline_behaviour() {
        let g = Arc::new(Grid::new(16));
        let pool = Pool::new(PoolConfig::with_threads(4));
        let report = FtScheduler::new(Arc::clone(&g) as _).run(&pool);
        assert!(report.sink_completed);
        assert_eq!(report.computes, 256);
        assert_eq!(report.re_executions, 0);
        assert_eq!(report.recoveries, 0);
        assert_eq!(report.injected, 0);
        let order = g.computed.lock();
        let unique: HashSet<_> = order.iter().collect();
        assert_eq!(unique.len(), 256);
    }

    #[test]
    fn fault_free_respects_dependence_order() {
        let g = Arc::new(Grid::new(8));
        let pool = Pool::new(PoolConfig::with_threads(4));
        let report = FtScheduler::new(Arc::clone(&g) as _).run(&pool);
        assert!(report.sink_completed);
        let order = g.computed.lock();
        let pos: std::collections::HashMap<Key, usize> =
            order.iter().enumerate().map(|(i, &k)| (k, i)).collect();
        for &k in order.iter() {
            for p in g.predecessors(k) {
                assert!(pos[&p] < pos[&k], "pred {p} must precede {k}");
            }
        }
    }

    #[test]
    fn before_compute_fault_recovers_without_reexecution() {
        let g = Arc::new(Grid::new(8));
        let pool = Pool::new(PoolConfig::with_threads(4));
        let plan = Arc::new(FaultPlan::single(27, Phase::BeforeCompute));
        let sched = FtScheduler::with_plan(Arc::clone(&g) as _, plan);
        let report = sched.run(&pool);
        assert!(report.sink_completed);
        assert_eq!(report.injected, 1);
        assert_eq!(report.recoveries, 1);
        // Before-compute: no computed work lost, so every task computes
        // exactly once ("does not result in task re-execution overhead").
        assert_eq!(report.re_executions, 0);
        assert_eq!(report.computes, 64);
    }

    #[test]
    fn after_compute_fault_reexecutes_exactly_one_task() {
        let g = Arc::new(Grid::new(8));
        let pool = Pool::new(PoolConfig::with_threads(4));
        let plan = Arc::new(FaultPlan::single(27, Phase::AfterCompute));
        let sched = FtScheduler::with_plan(Arc::clone(&g) as _, plan);
        let report = sched.run(&pool);
        assert!(report.sink_completed);
        assert_eq!(report.injected, 1);
        assert_eq!(report.recoveries, 1);
        assert_eq!(report.re_executions, 1, "the failed task recomputes");
        assert_eq!(report.computes, 65);
        assert_eq!(report.distinct_tasks_executed, 64);
    }

    #[test]
    fn recovery_table_is_built_by_the_first_failure() {
        let g = Arc::new(Grid::new(8));
        let pool = Pool::new(PoolConfig::with_threads(2));
        let clean = FtScheduler::new(Arc::clone(&g) as _);
        assert!(clean.run(&pool).sink_completed);
        assert!(clean.policy.rtable.get().is_none(), "fault-free: no table");
        assert_eq!(clean.recovery_table_len(), 0);
        let plan = Arc::new(FaultPlan::single(27, Phase::AfterCompute));
        let faulty = FtScheduler::with_plan(g as _, plan);
        assert!(faulty.run(&pool).sink_completed);
        assert_eq!(faulty.recovery_table_len(), 1);
    }

    #[test]
    fn sink_fault_is_recovered() {
        let g = Arc::new(Grid::new(8));
        let pool = Pool::new(PoolConfig::with_threads(4));
        let sink = g.sink();
        let plan = Arc::new(FaultPlan::single(sink, Phase::AfterCompute));
        let sched = FtScheduler::with_plan(Arc::clone(&g) as _, plan);
        let report = sched.run(&pool);
        assert!(report.sink_completed, "sink recovered and completed");
        assert_eq!(report.re_executions, 1);
    }

    #[test]
    fn source_fault_is_recovered() {
        let g = Arc::new(Grid::new(8));
        let pool = Pool::new(PoolConfig::with_threads(4));
        let plan = Arc::new(FaultPlan::single(0, Phase::AfterCompute));
        let sched = FtScheduler::with_plan(Arc::clone(&g) as _, plan);
        let report = sched.run(&pool);
        assert!(report.sink_completed);
        assert_eq!(report.recoveries, 1);
    }

    #[test]
    fn many_faults_all_recovered() {
        let g = Arc::new(Grid::new(16));
        let pool = Pool::new(PoolConfig::with_threads(8));
        let keys: Vec<Key> = (0..256).collect();
        let plan = Arc::new(FaultPlan::sample(&keys, 64, Phase::AfterCompute, 7));
        let sched = FtScheduler::with_plan(Arc::clone(&g) as _, plan);
        let report = sched.run(&pool);
        assert!(report.sink_completed);
        assert_eq!(report.injected, 64);
        assert_eq!(report.distinct_tasks_executed, 256);
        // Every injected fault implies at least the failed task recomputing
        // (observed counts can exceed 64 if a recovery raced a traversal).
        assert!(
            report.re_executions >= 64,
            "re-exec {}",
            report.re_executions
        );
    }

    #[test]
    fn repeated_faults_on_same_task_recursively_recovered() {
        // Guarantee 6: failures during recovery are recovered. Fire 5 times
        // on the same task across incarnations.
        let g = Arc::new(Grid::new(8));
        let pool = Pool::new(PoolConfig::with_threads(4));
        let plan = Arc::new(FaultPlan::new([crate::inject::FaultSite {
            key: 27,
            phase: Phase::AfterCompute,
            fires: 5,
        }]));
        let sched = FtScheduler::with_plan(Arc::clone(&g) as _, plan);
        let report = sched.run(&pool);
        assert!(report.sink_completed);
        assert_eq!(report.injected, 5);
        assert!(report.recoveries >= 5);
        assert_eq!(report.re_executions, 5);
    }

    #[test]
    fn all_tasks_fail_once_still_completes() {
        let g = Arc::new(Grid::new(8));
        let pool = Pool::new(PoolConfig::with_threads(4));
        let plan = Arc::new(FaultPlan::new(
            (0..64).map(|k| crate::inject::FaultSite::once(k, Phase::AfterCompute)),
        ));
        let sched = FtScheduler::with_plan(Arc::clone(&g) as _, plan);
        let report = sched.run(&pool);
        assert!(report.sink_completed);
        assert_eq!(report.injected, 64);
        assert_eq!(report.distinct_tasks_executed, 64);
        assert!(report.re_executions >= 64);
    }

    #[test]
    fn single_thread_recovery_works() {
        let g = Arc::new(Grid::new(8));
        let pool = Pool::new(PoolConfig::with_threads(1));
        let keys: Vec<Key> = (0..64).collect();
        let plan = Arc::new(FaultPlan::sample(&keys, 16, Phase::AfterCompute, 3));
        let sched = FtScheduler::with_plan(Arc::clone(&g) as _, plan);
        let report = sched.run(&pool);
        assert!(report.sink_completed);
        assert_eq!(report.injected, 16);
    }

    #[test]
    fn after_notify_faults_may_go_unobserved() {
        // "a failed task whose successors already have been computed is not
        // recovered, because no other task attempts to access such a task".
        let g = Arc::new(Grid::new(8));
        let pool = Pool::new(PoolConfig::with_threads(2));
        let plan = Arc::new(FaultPlan::single(0, Phase::AfterNotify));
        let sched = FtScheduler::with_plan(Arc::clone(&g) as _, plan);
        let report = sched.run(&pool);
        assert!(report.sink_completed);
        assert_eq!(report.injected, 1);
        // The grid graph has no data blocks, so nothing revisits task 0
        // unless a traversal races; recovery count is 0 or small.
        assert!(report.re_executions <= 1);
    }

    #[test]
    fn before_compute_faults_everywhere() {
        let g = Arc::new(Grid::new(8));
        let pool = Pool::new(PoolConfig::with_threads(4));
        let plan =
            Arc::new(FaultPlan::new((0..64).map(|k| {
                crate::inject::FaultSite::once(k, Phase::BeforeCompute)
            })));
        let sched = FtScheduler::with_plan(Arc::clone(&g) as _, plan);
        let report = sched.run(&pool);
        assert!(report.sink_completed);
        assert_eq!(report.injected, 64);
        assert_eq!(report.distinct_tasks_executed, 64);
        assert_eq!(report.re_executions, 0, "no computed work was lost");
    }

    #[test]
    fn corrupt_status_byte_is_detected_and_recovered() {
        // Satellite: a smashed status byte must surface as a descriptor
        // fault, not a spuriously finished task. Poison the sink's status
        // byte after the run and check the engine's view of completion.
        let g = Arc::new(Grid::new(4));
        let pool = Pool::new(PoolConfig::with_threads(2));
        let sched = FtScheduler::new(Arc::clone(&g) as _);
        let report = sched.run(&pool);
        assert!(report.sink_completed);
        let (sd, _) = sched.get_task(g.sink()).unwrap();
        sd.status.store(0xEE, ft_sync::atomic::Ordering::Release);
        assert!(sd.try_status().is_err(), "smashed byte is a detected fault");
        // Re-reading completion must *not* decode the corrupt byte as
        // Completed (the old `from_u8` mapped any garbage to Completed).
        let report2 = sched.run(&pool);
        assert!(!report2.sink_completed);
    }
}
