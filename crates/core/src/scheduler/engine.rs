//! The policy-generic Figure-2 traversal engine.
//!
//! The paper presents fault tolerance as a *shading* of the NABBIT
//! traversal: Figure 2 shows one algorithm, with the FT additions
//! highlighted. This module encodes that literally. [`Engine`] owns the
//! single copy of `InitAndCompute` / `TryInitCompute` / `NotifyOnce` /
//! `ComputeAndNotify` / `NotifySuccessor`, and an [`FtPolicy`] supplies
//! everything the shading adds:
//!
//! * the descriptor type (via [`Descriptor`], unifying
//!   [`BaseDesc`](crate::task::BaseDesc) and
//!   [`FtDesc`](crate::task::FtDesc));
//! * the guarded-access wrappers (the paper's Cilk++ `try`/`catch`);
//! * bit-vector-gated notification (Guarantee 3);
//! * the Section-VI fault-injection probe points;
//! * the Figure-3 recovery hooks invoked from the catch blocks.
//!
//! The baseline instantiation [`Engine<NoFt>`](super::BaselineScheduler)
//! uses [`Infallible`](std::convert::Infallible) as its error type and a
//! zero-sized policy, so after monomorphization every guard is `Ok(())`,
//! every catch arm is uninhabited, and the descriptor carries no FT
//! fields — the compiled baseline is the unshaded Figure 2, matching "the
//! baseline version includes no additional data structures or statements
//! introduced for fault tolerance". The FT instantiation
//! [`Engine<FtRecovery>`](super::FtScheduler) restores every shaded line.
//!
//! Task keys and life numbers are threaded through the call stack as
//! explicit parameters rather than read back from (possibly corrupt)
//! descriptors. A work-stealing job is one task, not one edge: a task's
//! `InitAndCompute` visits its predecessors inline, and every predecessor
//! that visit creates gets an `InitAndCompute` job of its own, so "the
//! creation and computation of the predecessors of a given task are
//! concurrent and can be executed by different threads". Each job asks
//! the executor for its worker index once, when it starts, and threads it
//! through every step and into the policy, so trace shards and sharded
//! metrics lanes are selected by worker identity instead of contending
//! cross-worker.
//!
//! # Allocation discipline (PR 8)
//!
//! The traversal hot path is allocation-free. Descriptors live in an
//! [`Arena`] owned by the engine — one epoch, one slab set — and travel as
//! `Copy` [`ArenaRef`] handles instead of `Arc`s; every job the engine
//! spawns captures ≤ 48 bytes, so the [`ft_steal::Job`] cell stores it
//! inline; predecessor lists are built through a per-thread scratch buffer
//! ([`TaskGraph::predecessors_into`]); and single-ready-successor chains
//! execute **inline** via continuation passing ([`MAX_INLINE_CHAIN`])
//! instead of a queue round-trip per task.
//!
//! # Engine lifetime: by quiescence, not by refcount
//!
//! Jobs do not own a share of the engine. Each carries a plain pointer to
//! it (8 bytes, `Copy`, built in `Engine::job`), and what keeps the epoch
//! — engine, arena, task map — alive is a strong reference held *outside*
//! the jobs until the epoch's completion group reports quiescence. Every
//! run is one instance ([`Executor::submit_instance`] of
//! `Engine::root_job`): [`Engine::run`] borrows the caller's `&Arc<Self>`
//! until it has waited for the instance's handle, and
//! [`GraphService::submit`](super::service::GraphService::submit), which
//! returns at once, moves an `Arc` into the instance's quiesce hook — run
//! by the thread that trips the group's latch, after the last job's body
//! has returned — so a dropped ticket cannot free a running epoch. Arena
//! handles are valid for exactly as long: until quiesce. The per-job path
//! therefore never touches the engine's reference count, a cache line every
//! worker used to write twice per job (see `docs/ALGORITHM.md`,
//! "Completion groups").

use crate::bitvec::Clear;
use crate::fault::Fault;
use crate::graph::{ComputeCtx, Key, TaskGraph};
use crate::inject::Phase;
use crate::metrics::{RunMetrics, RunReport};
use crate::task::{NotifyCells, Status, Take};
use crate::trace::Event;
use ft_cmap::ShardedMap;
use ft_steal::arena::{Arena, ArenaRef};
use ft_steal::pool::{Executor, Scope};
use ft_steal::Job;
use ft_sync::atomic::{fence, AtomicI64, Ordering};
use std::cell::RefCell;
use std::ptr::NonNull;
use std::sync::Arc;
use std::time::Instant;

/// Maximum tasks executed back-to-back by one job through the inline
/// single-successor chain before the continuation is re-enqueued.
///
/// Chaining never *hides* parallel work — every ready successor beyond the
/// chain candidate is spawned normally — but an unbounded chain would keep
/// one worker from touching its own deque indefinitely; re-enqueueing
/// every `MAX_INLINE_CHAIN` tasks gives the scheduler (and a `DetPool`
/// campaign's seeded schedule) a periodic interleaving point.
pub const MAX_INLINE_CHAIN: usize = 64;

thread_local! {
    /// Scratch buffer for predecessor lists: reused across every
    /// descriptor the thread creates, so `make_desc` allocates nothing
    /// once warm (graphs that override `predecessors_into` fill it
    /// in place).
    static PRED_SCRATCH: RefCell<Vec<Key>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` with the thread's predecessor scratch buffer (shared with the
/// recovery path's `ReplaceTask`).
pub(super) fn with_pred_scratch<R>(f: impl FnOnce(&mut Vec<Key>) -> R) -> R {
    PRED_SCRATCH.with(|cell| f(&mut cell.borrow_mut()))
}

/// The per-task state the shared traversal needs from a descriptor,
/// whichever flavor the policy picks.
///
/// Accessors return the Section-III fields common to both descriptor
/// types; anything FT-specific (bit vector, poison flags, life bumping) is
/// reached only through the policy, so the baseline descriptor never has
/// to carry it.
pub trait Descriptor: Send + Sync + 'static {
    /// Life number of this incarnation (always 1 for the baseline).
    fn life(&self) -> u64;
    /// Ordered immediate predecessor keys, cached at creation (`Init(A)`).
    fn preds(&self) -> &[Key];
    /// Join counter: outstanding units of notification (see
    /// [`FtPolicy::consume_notification`]); the task is ready at zero.
    fn join(&self) -> &AtomicI64;
    /// Lock-free successor notification cells (PR 9): slots claimed by
    /// registrants, scanned by this task's completion drain.
    fn notify_cells(&self) -> &NotifyCells;
    /// Store a new status.
    fn set_status(&self, s: Status);
}

/// The shaded behavior of Figure 2 — everything that differs between the
/// baseline and fault-tolerant schedulers.
///
/// Hooks come in two kinds. Guards (`check*`, `read_status`,
/// `consume_notification`) return `Result<_, Self::Err>`; the engine's
/// `?`s are the paper's `try` blocks and the `Err` arms its `catch`
/// blocks. Handlers (`on_guard_fault`, `on_compute_fault`) are the catch
/// bodies and dispatch into Figure-3 recovery. With
/// [`Err = Infallible`](std::convert::Infallible) both kinds compile to
/// nothing.
pub trait FtPolicy: Send + Sync + Sized + 'static {
    /// Descriptor type stored in the task map.
    type Desc: Descriptor;
    /// Guard error type: [`Fault`] for FT, uninhabited for the baseline.
    type Err;

    /// Build the first (life-1) incarnation of `key`'s descriptor.
    /// `scratch` is a reusable buffer for the predecessor list (filled via
    /// [`TaskGraph::predecessors_into`]).
    fn make_desc(&self, graph: &dyn TaskGraph, key: Key, scratch: &mut Vec<Key>) -> Self::Desc;

    /// Record a trace event (no-op unless the policy carries a trace).
    fn emit(&self, worker: Option<usize>, event: Event);

    /// Guarded descriptor access: fail if the descriptor is corrupt.
    fn check(d: &Self::Desc) -> Result<(), Self::Err>;

    /// Read the status field, surfacing a smashed status byte as an error.
    fn read_status(d: &Self::Desc) -> Result<Status, Self::Err>;

    /// `TryInitCompute`'s prologue guard on the predecessor `B`: corrupt
    /// descriptor or `if (B.overwritten) throw`.
    fn check_dependable(b: &Self::Desc) -> Result<(), Self::Err>;

    /// `NotifyOnce`'s gate: consume the notification from `pkey`, whose
    /// bit index is `ind` when the caller already knows it (`None` makes
    /// the policy look it up — `ConvertPredKeyToIndex`).
    ///
    /// The join counter counts *units*, and only the notification that
    /// empties a unit decrements it ([`Clear::Emptied`]). The FT policy's
    /// units are non-empty bit-vector words: it clears `pkey`'s bit,
    /// reports a duplicate as [`Clear::AlreadyClear`] (Guarantee 3) and a
    /// bit whose word still has others set as [`Clear::Cleared`]. Every
    /// baseline notification is a unit of its own.
    fn consume_notification(
        engine: &Engine<Self>,
        a: &Self::Desc,
        key: Key,
        pkey: Key,
        ind: Option<usize>,
        life: u64,
        worker: Option<usize>,
    ) -> Result<Clear, Self::Err>;

    /// Whether a negative join counter is tolerated (only under the
    /// FT policy's mutation-testing sabotage switches).
    fn join_underflow_ok(&self) -> bool;

    /// Mutation-test switch: when true, the inline-chain notify path
    /// skips [`FtPolicy::consume_notification`] and decrements the join
    /// counter on every notification — a deliberately broken inline shortcut
    /// (exactly the bug a careless chain implementation would have) that
    /// the G1–G6 trace oracle must flag. Default: off, i.e. correct.
    fn sabotage_chain(&self) -> bool {
        false
    }

    /// Mutation-test switch: when true (one-shot), the next notify-cell
    /// registration claims a slot but drops both the `Release` publish and
    /// the self-delivery fallback — a lost notification (exactly the bug a
    /// missing publish fence would cause) that the G3/G4 trace oracle must
    /// flag as a quiesced-but-incomplete run. Default: off, i.e. correct.
    fn sabotage_cell(&self) -> bool {
        false
    }

    /// Whether this incarnation was created by `RecoverTask` (threaded
    /// into [`ComputeCtx`] so apps can distinguish recovery executions).
    fn is_recovery_exec(d: &Self::Desc) -> bool;

    /// Count one successful compute of `d` toward N(A). Called by the
    /// thread that owns the compute. No-op for the baseline.
    #[inline]
    fn count_exec(_d: &Self::Desc) {}

    /// N(A) for every task that entered recovery (the keys of the
    /// recovery table `R`), read after quiescence. Every other task ran at
    /// most once; see [`RunMetrics::snapshot`]. Empty for the baseline and
    /// for any fault-free run.
    fn recovered_exec_counts(_engine: &Engine<Self>) -> Vec<u64> {
        Vec::new()
    }

    /// Section-VI fault-injection probe (before compute / after compute /
    /// after notify). No-op for the baseline.
    fn probe(engine: &Engine<Self>, a: &Self::Desc, key: Key, phase: Phase, worker: Option<usize>);

    /// The user compute returned a fault. The FT policy counts and
    /// propagates it into the catch block; the baseline panics ("the
    /// baseline scheduler has no recovery path").
    fn compute_error(engine: &Engine<Self>, f: Fault) -> Self::Err;

    /// Catch block of `TryInitCompute` / `NotifyOnce`:
    /// `RecoverTaskOnce(key, life)` on the task whose guard failed.
    fn on_guard_fault(
        engine: &Engine<Self>,
        s: &Scope<'_>,
        w: Option<usize>,
        f: Self::Err,
        key: Key,
        life: u64,
    );

    /// Catch block of `ComputeAndNotify`: recover `A` itself, or — for a
    /// fault in an input — recover the input's producer and reset `A`.
    fn on_compute_fault(
        engine: &Engine<Self>,
        s: &Scope<'_>,
        w: Option<usize>,
        a: ArenaRef<Self::Desc>,
        key: Key,
        life: u64,
        f: Self::Err,
    );
}

/// The single Figure-2 traversal, generic over the fault-tolerance policy.
///
/// Use the two instantiations: [`BaselineScheduler`](super::BaselineScheduler)
/// (`Engine<NoFt>`) and [`FtScheduler`](super::FtScheduler)
/// (`Engine<FtRecovery>`). One engine instance = one run (one epoch: the
/// engine owns the arena every descriptor of the run lives in).
pub struct Engine<P: FtPolicy> {
    pub(super) graph: Arc<dyn TaskGraph>,
    /// The task map: key → current incarnation (arena handle).
    pub(super) map: ShardedMap<ArenaRef<P::Desc>>,
    /// Epoch slab: every descriptor incarnation of this run, reclaimed en
    /// masse when the engine (epoch) drops. Declared after `map` so the
    /// handles stored there are dropped first (they are `Copy`, nothing
    /// dangles either way).
    pub(super) arena: Arena<P::Desc>,
    pub(super) metrics: RunMetrics,
    pub(super) policy: P,
}

impl<P: FtPolicy> Engine<P> {
    /// Build an engine around `policy`.
    pub(super) fn with_policy(graph: Arc<dyn TaskGraph>, policy: P) -> Arc<Self> {
        Arc::new(Engine {
            graph,
            map: ShardedMap::new(),
            arena: Arena::new(),
            metrics: RunMetrics::new(),
            policy,
        })
    }

    /// Execute the task graph to completion on `exec`; returns run
    /// statistics.
    ///
    /// Any [`Executor`] works: the multithreaded [`ft_steal::pool::Pool`]
    /// or the deterministic single-threaded `ft-det` pool for replayable
    /// schedule exploration. The run is one instance of its own — submit,
    /// drive, wait — so concurrent runs on one executor are independent,
    /// and a panic inside this graph is re-raised here and nowhere else.
    pub fn run(self: &Arc<Self>, exec: &dyn Executor) -> RunReport {
        let start = Instant::now();
        // The caller's `&Arc<Self>` is the epoch's strong reference: it is
        // borrowed until the instance has quiesced (see the module docs).
        let instance = exec.submit_instance(self.root_job(), None);
        exec.drive();
        instance.wait();
        if let Some(payload) = instance.take_panic() {
            std::panic::resume_unwind(payload);
        }
        self.finish_report(start)
    }

    /// The root job of this epoch: execution begins by inserting the
    /// **sink** task and invoking `InitAndCompute` on it; the traversal
    /// expands the graph bottom-up toward the sources. It runs inside the instance it is submitted as, so the
    /// whole traversal tree lands on that instance's completion group.
    pub(super) fn root_job(&self) -> Job {
        self.job(|this, s, w| {
            let sink = this.graph.sink();
            let (sd, life, _) = this.get_or_insert_task(sink, w);
            this.spawn_job(s, move |this, s, w| {
                this.init_and_compute(s, w, sd, sink, life)
            });
        })
    }

    /// Wrap one traversal step as a job of this epoch. The job borrows the
    /// engine through a plain pointer and receives it back, together with
    /// its scope and its worker index (resolved once, here), when it runs.
    ///
    /// Every job of an engine is built here, and a job reaches an executor
    /// only as the [`Engine::root_job`] of an instance or through
    /// [`Engine::spawn_job`] called from a running job of the same engine.
    pub(super) fn job(
        &self,
        f: impl FnOnce(&Self, &Scope<'_>, Option<usize>) + Send + 'static,
    ) -> Job {
        struct Borrowed<P: FtPolicy>(NonNull<Engine<P>>);
        // SAFETY: the pointer is only ever dereferenced to `&Engine<P>`,
        // and `Engine<P>` is `Sync` (checked right below), so the
        // reference may be used from whichever worker runs the job.
        unsafe impl<P: FtPolicy> Send for Borrowed<P> {}
        fn shared_across_workers<T: Sync>() {}
        shared_across_workers::<Engine<P>>();
        let this = Borrowed(NonNull::from(self));
        Job::new(move |s: &Scope<'_>| {
            // Bind the wrapper whole: a field-precise capture would move
            // the bare `NonNull` and lose the `Send` impl above.
            let this = this;
            // SAFETY: the engine is alive whenever one of its jobs runs.
            // A job runs only inside an instance rooted at `root_job` (see
            // above), and by the `Executor` contract that instance's handle
            // reports `done`, and its hook is invoked or dropped, only
            // after its last job has finished: `Engine::run` borrows the
            // caller's `Arc` until it has waited on the handle (nothing
            // between the submit and the wait can unwind early — `drive`
            // drains before it re-raises), and the service's hook owns an
            // `Arc`. Jobs that never run are dropped without dereferencing.
            let this = unsafe { this.0.as_ref() };
            f(this, s, s.worker_index())
        })
    }

    /// Spawn a traversal step of this epoch.
    #[inline]
    pub(super) fn spawn_job(
        &self,
        s: &Scope<'_>,
        f: impl FnOnce(&Self, &Scope<'_>, Option<usize>) + Send + 'static,
    ) {
        s.spawn_job(self.job(f));
    }

    /// Snapshot the run statistics into a [`RunReport`]: metrics counters,
    /// the sink's completion status, and the elapsed time since `start`.
    /// Shared by [`Engine::run`] and the graph service's per-instance
    /// tickets (`super::service`), which finish reports asynchronously.
    pub(super) fn finish_report(&self, start: Instant) -> RunReport {
        let mut report = self.metrics.snapshot(P::recovered_exec_counts(self));
        report.sink_completed = self
            .map
            .get(self.graph.sink())
            .map(|d| matches!(P::read_status(&d), Ok(Status::Completed)))
            .unwrap_or(false);
        report.elapsed = start.elapsed();
        report
    }

    /// Number of distinct task keys ever inserted (diagnostics).
    pub fn tasks_created(&self) -> usize {
        self.map.len()
    }

    /// Borrow the task graph this engine runs.
    pub fn graph_ref(&self) -> &dyn TaskGraph {
        self.graph.as_ref()
    }

    /// Whether `d` was allocated by this engine's epoch arena (per-epoch
    /// isolation diagnostics; see the service-layer tests).
    pub fn owns_desc(&self, d: ArenaRef<P::Desc>) -> bool {
        self.arena.owns(d.as_ptr())
    }

    /// Current incarnation handle for `key`, if the task was ever
    /// inserted (per-epoch isolation diagnostics; pair with
    /// [`Engine::owns_desc`]).
    pub fn desc_handle(&self, key: Key) -> Option<ArenaRef<P::Desc>> {
        self.map.get(key)
    }

    /// `InsertTaskIfAbsent` + `GetTask` in one map probe: the current
    /// incarnation of `key` (created if absent), its life number, and
    /// whether this call inserted it.
    pub(super) fn get_or_insert_task(
        &self,
        key: Key,
        worker: Option<usize>,
    ) -> (ArenaRef<P::Desc>, u64, bool) {
        let (d, inserted) = self.map.get_or_insert_with(key, || {
            with_pred_scratch(|scratch| {
                self.arena
                    .alloc(self.policy.make_desc(self.graph.as_ref(), key, scratch))
            })
        });
        if inserted {
            self.policy.emit(worker, Event::Inserted { key });
        }
        (d, d.life(), inserted)
    }

    /// `GetTask`: current incarnation and its life number.
    pub(super) fn get_task(&self, key: Key) -> Option<(ArenaRef<P::Desc>, u64)> {
        self.map.get(key).map(|d| {
            let life = d.life();
            (d, life)
        })
    }

    /// `InitAndCompute(A, key, life)`: visit every immediate predecessor
    /// in this job (`TryInitCompute` is the loop body), then self-notify
    /// (consuming the self bit, which keeps A from becoming ready while
    /// the loop still runs).
    pub(super) fn init_and_compute(
        &self,
        s: &Scope<'_>,
        w: Option<usize>,
        a: ArenaRef<P::Desc>,
        key: Key,
        life: u64,
    ) {
        // Iterate the cached predecessor slice by reference: the hot path
        // allocates nothing per traversal. The loop position is the
        // predecessor's bit index.
        let preds = a.preds();
        for (ind, &pkey) in preds.iter().enumerate() {
            self.try_init_compute(s, w, a, key, life, pkey, ind);
        }
        // Section VI "before compute" injection point: the task "has
        // traversed its predecessors and is waiting for one or more
        // notifications to be scheduled for execution".
        P::probe(self, &a, key, Phase::BeforeCompute, w);
        self.notify_once(s, w, a, key, key, Some(preds.len()), life);
    }

    /// `TryInitCompute(A, key, life, pkey)`: create/visit predecessor
    /// `pkey` (A's `ind`-th); register A for notification or observe
    /// completion. Only a predecessor this call inserts gets a job of its
    /// own — its `InitAndCompute` — so discovery stays parallel and
    /// stealable while an edge costs no job.
    #[allow(clippy::too_many_arguments)]
    fn try_init_compute(
        &self,
        s: &Scope<'_>,
        w: Option<usize>,
        a: ArenaRef<P::Desc>,
        key: Key,
        life: u64,
        pkey: Key,
        ind: usize,
    ) {
        let (b, blife, inserted) = self.get_or_insert_task(pkey, w);
        if inserted {
            self.spawn_job(s, move |this, s, w| {
                this.init_and_compute(s, w, b, pkey, blife)
            });
        }

        // try { check B; register; self-deliver if B already computed }
        let attempt: Result<bool, P::Err> = (|| {
            P::check_dependable(&b)?;
            self.register_notify(&b, key)
        })();

        match attempt {
            Ok(true) => self.notify_once(s, w, a, key, pkey, Some(ind), life),
            Ok(false) => {}
            // catch { RecoverTaskOnce(pkey, blife) }. A's published cell
            // (if the claim got that far) is inert on the corrupt
            // incarnation; B's recovery re-enqueues A via
            // ReinitNotifyEntry (A's bit for B is still set), and any
            // stale delivery from the old incarnation is absorbed by A's
            // notification bits.
            Err(f) => P::on_guard_fault(self, s, w, f, pkey, blife),
        }
    }

    /// Lock-free registration of successor `key` in `b`'s notify cells
    /// (PR 9). Claims a slot, publishes the key, then — after an SC fence —
    /// re-reads `b`'s status: if `b` has already computed, the drainer's
    /// scan may have missed the publish, so the registrant takes its own
    /// slot back via CAS and delivers the notification itself. Returns
    /// `Ok(true)` iff the caller must self-deliver (it won the slot).
    ///
    /// Exactly-once: the slot's `key → TAKEN` CAS has one winner, whichever
    /// side it is. No-loss (Dekker over SC fences): if the drainer's scan
    /// load missed the publish, the drainer's fence precedes the
    /// registrant's in the SC order, so this status read observes
    /// `≥ Computed` and the registrant self-delivers; conversely a
    /// registrant that reads `< Computed` has its fence first, so the
    /// drainer's scan observes the published key.
    // ft-lint: hot-path begin(notify)
    pub(super) fn register_notify(&self, b: &P::Desc, key: Key) -> Result<bool, P::Err> {
        let cells = b.notify_cells();
        let slot = cells.claim();
        if self.policy.sabotage_cell() {
            // Mutation testing: the claim happened but the publish (and
            // the self-delivery fallback) is dropped — a lost notification
            // the G3/G4 trace oracle must flag.
            return Ok(false);
        }
        cells.publish(slot, key);
        // ord: SeqCst fence — Dekker pairing with the drainer's fence after
        // its `Computed` store (see `compute_and_notify_step`).
        // sc: notify-cells/registrant
        fence(Ordering::SeqCst);
        if P::read_status(b)? >= Status::Computed {
            return Ok(cells.try_take(slot, key));
        }
        Ok(false)
    }

    /// The gate of `NotifyOnce(A, key, pkey, life)`: consume the
    /// notification (`ind` is `pkey`'s bit index, if known) and, when it
    /// empties a unit, decrement the join counter. Returns `true` iff the
    /// counter hit zero — the caller owns A's compute. Guard faults are
    /// handled here (`RecoverTaskOnce`), reported as not-ready.
    #[allow(clippy::too_many_arguments)]
    fn notify_gate(
        &self,
        s: &Scope<'_>,
        worker: Option<usize>,
        a: ArenaRef<P::Desc>,
        key: Key,
        pkey: Key,
        ind: Option<usize>,
        life: u64,
    ) -> bool {
        let attempt: Result<bool, P::Err> = (|| {
            P::check(&a)?;
            let cleared = P::consume_notification(self, &a, key, pkey, ind, life, worker)?;
            if let Clear::AlreadyClear { .. } = cleared {
                return Ok(false);
            }
            self.metrics.notifications.add(worker);
            self.policy.emit(
                worker,
                Event::Notified {
                    key,
                    life,
                    pred: pkey,
                },
            );
            if cleared == Clear::Cleared {
                // Other notifications of the same unit are outstanding.
                return Ok(false);
            }
            // ord: AcqRel — the decrement that releases this task's
            // contribution must publish its compute (Release) and the
            // winner that observes zero must see every predecessor's
            // writes (Acquire).
            let val = a.join().fetch_sub(1, Ordering::AcqRel) - 1;
            debug_assert!(
                val >= 0 || self.policy.join_underflow_ok(),
                "join counter underflow on task {key} life {life}"
            );
            Ok(val == 0)
        })();

        match attempt {
            Ok(ready) => ready,
            Err(f) => {
                P::on_guard_fault(self, s, worker, f, key, life);
                false
            }
        }
    }

    /// `NotifyOnce(A, key, pkey, life)`: consume the notification through
    /// the policy's gate; execute A once its join counter hits zero.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn notify_once(
        &self,
        s: &Scope<'_>,
        w: Option<usize>,
        a: ArenaRef<P::Desc>,
        key: Key,
        pkey: Key,
        ind: Option<usize>,
        life: u64,
    ) {
        if self.notify_gate(s, w, a, key, pkey, ind, life) {
            self.compute_and_notify(s, w, a, key, life);
        }
    }

    /// `ComputeAndNotify(A, key, life)`, chained: run the user compute,
    /// transition to Computed, drain the notify array, transition to
    /// Completed — then, if draining left exactly one ready successor in
    /// this job's hands, continue with it **inline** instead of paying a
    /// queue round-trip (continuation passing, bounded by
    /// [`MAX_INLINE_CHAIN`]).
    pub(super) fn compute_and_notify(
        &self,
        s: &Scope<'_>,
        w: Option<usize>,
        a: ArenaRef<P::Desc>,
        key: Key,
        life: u64,
    ) {
        let mut cur = Some((a, key, life));
        let mut depth = 0usize;
        while let Some((a, key, life)) = cur.take() {
            cur = self.compute_and_notify_step(s, w, a, key, life, depth);
            depth += 1;
        }
    }

    /// One link of the chain: compute + notify one task, returning the
    /// chain continuation (a successor made ready by this task's
    /// notifications) if there is one.
    fn compute_and_notify_step(
        &self,
        s: &Scope<'_>,
        worker: Option<usize>,
        a: ArenaRef<P::Desc>,
        key: Key,
        life: u64,
        depth: usize,
    ) -> Option<(ArenaRef<P::Desc>, Key, u64)> {
        let mut chain: Option<(ArenaRef<P::Desc>, Key, u64)> = None;
        let attempt: Result<(), P::Err> = (|| {
            P::check(&a)?;
            let ctx = ComputeCtx::new(life, P::is_recovery_exec(&a), worker);
            if let Err(f) = self.graph.compute(key, &ctx) {
                return Err(P::compute_error(self, f));
            }
            // The compute ran to completion: count the work (even if the
            // injection right below discards it — that is exactly the
            // "work lost" the experiments measure).
            self.metrics.computes.add(worker);
            P::count_exec(&a);
            self.policy.emit(worker, Event::Computed { key, life });
            // Section VI "after compute" injection point: computed, about
            // to notify successors. The guard right below observes it.
            P::probe(self, &a, key, Phase::AfterCompute, worker);
            P::check(&a)?;
            a.set_status(Status::Computed);
            // ord: SeqCst fence — Dekker pairing with the registrant's
            // fence after its cell publish (see `register_notify`): every
            // registration this scan misses is guaranteed to observe
            // `≥ Computed` and self-deliver.
            // sc: notify-cells/drainer
            fence(Ordering::SeqCst);

            let cells = a.notify_cells();
            let mut cursor = 0usize;
            loop {
                P::check(&a)?;
                // Scan every claimed slot once, lock-free. A `Deliver` win
                // is this drainer's to hand off; `Delegated`/`Done` slots
                // are (or will be) delivered by their registrant.
                let len = cells.len();
                while cursor < len {
                    if let Take::Deliver(skey) = cells.take_at(cursor) {
                        self.notify_entry(s, worker, key, skey, depth, &mut chain);
                    }
                    cursor += 1;
                }
                // Claims that race past this re-read are SC-ordered after
                // this drain and self-deliver (registrant protocol).
                if cells.len() == cursor {
                    a.set_status(Status::Completed);
                    self.policy.emit(worker, Event::Completed { key, life });
                    break;
                }
            }
            // Section VI "after notify" injection point: only observed if a
            // later consumer still touches this task or its data.
            P::probe(self, &a, key, Phase::AfterNotify, worker);
            Ok(())
        })();

        if let Err(f) = attempt {
            // The faulted step must not swallow a successor it already made
            // ready (its notification is consumed — nobody will re-deliver
            // it): hand the continuation back to the queues, then let
            // recovery own this task's traversal.
            if let Some((ca, ckey, clife)) = chain.take() {
                self.spawn_job(s, move |this, s, w| {
                    this.compute_and_notify(s, w, ca, ckey, clife)
                });
            }
            P::on_compute_fault(self, s, worker, a, key, life, f);
            return None;
        }
        chain
    }

    /// Deliver one notify-array entry inline — the inline-chain site: the
    /// gate of `NotifySuccessor`+`NotifyOnce` runs in this job, and a
    /// successor whose join counter hits zero either becomes the chain
    /// continuation or is spawned as a fresh `ComputeAndNotify` job.
    fn notify_entry(
        &self,
        s: &Scope<'_>,
        worker: Option<usize>,
        key: Key,
        skey: Key,
        depth: usize,
        chain: &mut Option<(ArenaRef<P::Desc>, Key, u64)>,
    ) {
        let Some((sd, slife)) = self.get_task(skey) else {
            debug_assert!(false, "successor {skey} vanished from the task map");
            return;
        };
        let ready = if self.policy.sabotage_chain() {
            // Deliberately broken gate (mutation testing): skips the
            // policy's exactly-once check and decrements unconditionally.
            // Under faults, re-delivered notifications then double-
            // decrement — the G3 violation the trace oracle must flag.
            self.metrics.notifications.add(worker);
            self.policy.emit(
                worker,
                Event::Notified {
                    key: skey,
                    life: slife,
                    pred: key,
                },
            );
            // ord: AcqRel — same join-counter contract as the gate: the
            // observer of zero acquires every predecessor's compute.
            sd.join().fetch_sub(1, Ordering::AcqRel) - 1 == 0
        } else {
            // The drainer knows only its own key: the policy looks up
            // the bit index.
            self.notify_gate(s, worker, sd, skey, key, None, slife)
        };
        if !ready {
            return;
        }
        // Chain policy: first ready successor continues inline, bounded by
        // MAX_INLINE_CHAIN. Everything else goes through the queues and
        // stays stealable.
        if depth < MAX_INLINE_CHAIN && chain.is_none() {
            *chain = Some((sd, skey, slife));
        } else {
            self.spawn_job(s, move |this, s, w| {
                this.compute_and_notify(s, w, sd, skey, slife)
            });
        }
    }
    // ft-lint: hot-path end(notify)
}
