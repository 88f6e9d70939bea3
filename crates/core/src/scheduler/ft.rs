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
use ft_sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};

/// A mutation of the FT policy, chosen at compile time by type: each hook
/// is one deliberate bug the trace oracle must flag (mutants are built by
/// [`Engine::mutant`]). [`Faithful`] takes every default, so the shipped
/// [`FtScheduler`] compiles with none of them.
pub trait Mutation: Send + Sync + 'static {
    /// A duplicate notification decrements the join counter as if its
    /// bit had been set — the bug Guarantee 3's bit vector prevents.
    const DUPLICATES_DECREMENT: bool = false;
    /// A notification delivered by the predecessor's drain skips the bit
    /// vector and decrements the join counter unconditionally, while the
    /// registrant-side deliveries stay gated.
    const UNGATED_DRAIN: bool = false;
    /// Whether this registration claims its notify cell but drops both
    /// the `Release` publish and the self-delivery fallback — a lost
    /// notification.
    #[inline]
    fn drop_publish(&self) -> bool {
        false
    }
}

/// The shipped FT policy's mutation: none.
pub struct Faithful;

impl Mutation for Faithful {}

/// The selective localized-recovery policy: guarded accesses, bit-vector
/// notification gating, fault-injection probes, Figure-3 recovery.
pub struct FtRecovery<M: Mutation = Faithful> {
    /// The recovery table `R`: key → most recent life whose recovery has
    /// been initiated. Built by the first `IsRecovering`, so a fault-free
    /// run never pays for it, and striped like the task map: a faulted
    /// run builds it once, so a wider table costs every such run.
    pub(super) rtable: OnceLock<ShardedMap<u64>>,
    pub(super) plan: Arc<FaultPlan>,
    pub(super) trace: Option<Arc<Trace>>,
    mutation: M,
}

impl<M: Mutation> FtRecovery<M> {
    fn new(plan: Arc<FaultPlan>, trace: Option<Arc<Trace>>, mutation: M) -> Self {
        FtRecovery {
            rtable: OnceLock::new(),
            plan,
            trace,
            mutation,
        }
    }
}

impl<M: Mutation> FtPolicy for FtRecovery<M> {
    type Desc = FtDesc;
    type Err = Fault;
    // A lost notification (`drop_publish`) strands its successor; it can
    // neither underflow a join counter nor compute an incarnation twice.
    const MUTANT: bool = M::DUPLICATES_DECREMENT || M::UNGATED_DRAIN;

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
            // The drainer is the only caller that does not know the bit
            // index, so `None` singles out its deliveries. Once the
            // drainer learns the index, this mutant needs another way to
            // tell them apart.
            None if M::UNGATED_DRAIN => return Ok(Clear::Emptied),
            None => a
                .pred_index(pkey)
                .ok_or_else(|| Fault::descriptor(key, life))?,
        };
        let cleared = a.bits.clear(ind);
        let Clear::AlreadyClear { word_empty } = cleared else {
            return Ok(cleared);
        };
        if M::DUPLICATES_DECREMENT {
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
    fn drop_publish(&self) -> bool {
        self.mutation.drop_publish()
    }

    #[inline]
    fn count_exec(d: &FtDesc) {
        // ord: Relaxed — statistics counter bumped by the compute's owner
        // and summed at quiescence.
        let prev = d.execs.fetch_add(1, Ordering::Relaxed);
        debug_assert!(
            Self::MUTANT || prev == 0,
            "task {} life {} computed twice",
            d.key,
            d.life
        );
    }

    fn recovered_exec_counts(engine: &Engine<Self>) -> Vec<u64> {
        let Some(rtable) = engine.policy.rtable.get() else {
            return Vec::new();
        };
        rtable
            .entries()
            .into_iter()
            .map(|(key, _)| engine.map.get(key).map_or(0, |d| d.executions()))
            .collect()
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
                // Unreachable: a block's producer is in the task map before
                // it publishes, and pinned inputs never fault. Were it
                // reached, the recovery would run at life 1 and its
                // `ComputeCtx::is_recovery` would read false.
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
        Engine::with_policy(graph, FtRecovery::new(plan, None, Faithful))
    }

    /// Scheduler with a fault plan and an execution trace recorder.
    pub fn with_plan_traced(
        graph: Arc<dyn TaskGraph>,
        plan: Arc<FaultPlan>,
        trace: Arc<Trace>,
    ) -> Arc<Self> {
        Engine::with_policy(graph, FtRecovery::new(plan, Some(trace), Faithful))
    }
}

impl<M: Mutation> Engine<FtRecovery<M>> {
    /// A traced scheduler running the mutant `mutation` (mutation
    /// testing of the trace oracle only; see `tests/det_campaigns.rs`).
    #[doc(hidden)]
    pub fn mutant(
        graph: Arc<dyn TaskGraph>,
        plan: Arc<FaultPlan>,
        trace: Arc<Trace>,
        mutation: M,
    ) -> Arc<Self> {
        Engine::with_policy(graph, FtRecovery::new(plan, Some(trace), mutation))
    }

    /// Number of entries in the recovery table (≥1 failure observed); 0
    /// until the first failure builds the table.
    pub fn recovery_table_len(&self) -> usize {
        self.policy.rtable.get().map_or(0, ShardedMap::len)
    }

    /// Per-task execution counts N(A) after a run (Section V's `N`
    /// function) for every task that executed at least once — used by the
    /// Theorem 2 bound evaluation. Walks the whole task map.
    pub fn exec_counts(&self) -> Vec<(Key, u64)> {
        self.map
            .entries()
            .into_iter()
            .map(|(key, d)| (key, d.executions()))
            .filter(|&(_, n)| n > 0)
            .collect()
    }

    /// Poison a task: descriptor flag plus every output block version ("a
    /// fault affects both a task and the data blocks it has computed").
    pub(super) fn poison_task(&self, desc: &FtDesc, phase: Phase, worker: Option<usize>) {
        self.graph.poison_outputs(desc.key);
        // ord: Release — stored after the outputs are poisoned, so a worker
        // whose `check` (Acquire) sees the flag also sees the poisoned
        // blocks, and a recovery it starts cannot publish an output that
        // this call then poisons.
        desc.poisoned.store(true, Ordering::Release);
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
        /// `(key, life)` of every compute whose context says recovery.
        recovery_computes: Mutex<Vec<(Key, u64)>>,
    }

    impl Grid {
        fn new(n: i64) -> Self {
            Grid {
                n,
                computed: Mutex::new(Vec::new()),
                recovery_computes: Mutex::new(Vec::new()),
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
        fn compute(&self, k: Key, ctx: &ComputeCtx<'_>) -> Result<(), Fault> {
            self.computed.lock().push(k);
            if ctx.is_recovery {
                self.recovery_computes.lock().push((k, ctx.life));
            }
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
    fn only_recovered_incarnations_compute_as_recovery() {
        let pool = Pool::new(PoolConfig::with_threads(2));
        let clean = Arc::new(Grid::new(8));
        FtScheduler::new(Arc::clone(&clean) as _).run(&pool);
        assert!(clean.recovery_computes.lock().is_empty());
        for phase in [Phase::BeforeCompute, Phase::AfterCompute] {
            let g = Arc::new(Grid::new(8));
            let plan = Arc::new(FaultPlan::single(27, phase));
            let report = FtScheduler::with_plan(Arc::clone(&g) as _, plan).run(&pool);
            assert_eq!(report.recoveries, 1);
            assert_eq!(*g.recovery_computes.lock(), [(27, 2)], "{phase:?}");
        }
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

    /// A grid whose `poison_outputs` records whether the faulting task's
    /// descriptor already reads as poisoned while its outputs are poisoned.
    struct PoisonProbe {
        grid: Grid,
        engine: OnceLock<std::sync::Weak<FtScheduler>>,
        flag_seen: Mutex<Vec<bool>>,
    }

    impl TaskGraph for PoisonProbe {
        fn sink(&self) -> Key {
            self.grid.sink()
        }
        fn predecessors(&self, k: Key) -> Vec<Key> {
            self.grid.predecessors(k)
        }
        fn successors(&self, k: Key) -> Vec<Key> {
            self.grid.successors(k)
        }
        fn compute(&self, k: Key, ctx: &ComputeCtx<'_>) -> Result<(), Fault> {
            self.grid.compute(k, ctx)
        }
        fn poison_outputs(&self, key: Key) {
            let engine = self.engine.get().and_then(|w| w.upgrade());
            let desc = engine
                .and_then(|e| e.desc_handle(key))
                .expect("running task");
            let seen = desc.poisoned.load(Ordering::Acquire);
            self.flag_seen.lock().push(seen);
        }
    }

    #[test]
    fn outputs_are_poisoned_before_the_flag_is_raised() {
        // A worker that sees the flag may recover the task and publish its
        // new output; poisoning the outputs after the flag could poison
        // that output. So the flag must still read false here.
        let g = Arc::new(PoisonProbe {
            grid: Grid::new(8),
            engine: OnceLock::new(),
            flag_seen: Mutex::new(Vec::new()),
        });
        let plan = Arc::new(FaultPlan::single(27, Phase::AfterCompute));
        let sched = FtScheduler::with_plan(Arc::clone(&g) as _, plan);
        g.engine.set(Arc::downgrade(&sched)).expect("set once");
        let pool = Pool::new(PoolConfig::with_threads(2));
        assert!(sched.run(&pool).sink_completed);
        assert_eq!(*g.flag_seen.lock(), [false]);
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
