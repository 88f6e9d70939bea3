//! Persistent work-stealing worker pool.
//!
//! `P` worker threads each own a Chase–Lev deque. A job spawned from a
//! worker goes to that worker's own deque (LIFO pop preserves the Cilk-like
//! depth-first execution order that makes NABBIT's traversal cache-friendly);
//! a job submitted from outside goes to a shared injector queue. Idle
//! workers repeatedly try their own deque, the injector, and random victims,
//! then park on the pool's [`Parker`].
//!
//! The pool exposes **fire-and-forget** spawning plus quiescence detection:
//! NABBIT's routines only ever spawn and never join, and a task-graph run
//! is over when every spawned traversal job has drained (by which time the
//! sink task has completed). Every job is counted in the completion
//! [`Group`] it carries: one per submitted root
//! ([`Executor::submit_instance`], the way every engine runs), or the
//! pool's resident one, which only [`Pool::run_until_complete`] uses.
//!
//! Panics inside jobs are caught by the worker loop, the only place a job
//! body runs; the first payload is kept in the job's own group and
//! re-raised by whoever waits on it — otherwise a panicking job would leak
//! its quiescence unit and deadlock its waiter.
//!
//! # No shared writes per job
//!
//! The per-job path writes no cache line shared between workers. A group's
//! latch is counted through worker-local [`Credits`] (a spawn or a finished
//! job moves a unit between the job and its worker's stash; the latch
//! itself is touched once per batch and once per flush — when the worker's
//! own deque runs empty, or before it serves a different group), and there
//! is no queued-jobs counter: a worker about to park sweeps the injector
//! and every deque instead (see [`Parker`] for the producer/sleeper fence
//! pair that makes the sweep sufficient).

use crate::deque::{self, Steal, Stealer, Worker};
use crate::injector::Injector;
use crate::instance::{Group, InstanceHandle, QuiesceHook};
use crate::latch::Credits;
use crate::metrics::{CachePadded, MetricsSnapshot, WorkerMetrics};
use crate::parker::Parker;
use crate::rng::XorShift64Star;
use ft_sync::atomic::{AtomicBool, Ordering};
use std::cell::Cell;
use std::sync::Arc;
use std::thread::JoinHandle;

pub use crate::job::Job;

/// A place jobs can be spawned into. [`Scope`] is generic over this so the
/// same scheduler code runs on the multithreaded [`Pool`] and on
/// alternative executors (e.g. a deterministic single-threaded pool for
/// schedule exploration).
pub trait SpawnHost {
    /// Enqueue a fire-and-forget job.
    fn spawn_job(&self, job: Job);

    /// Number of workers executing jobs.
    fn num_threads(&self) -> usize;

    /// Index of the calling worker, if the current thread is one.
    fn worker_index(&self) -> Option<usize>;
}

/// An executor instances can be submitted to: a root job and everything it
/// transitively spawns are counted in one per-instance [`Group`], so
/// concurrent instances complete independently over the shared workers and
/// a panic inside one is captured in its handle, nowhere else.
///
/// `&Pool` coerces to `&dyn Executor`, so scheduler entry points take
/// `&dyn Executor` without changing existing call sites.
///
/// # Safety
/// Callers lend borrowed state to the jobs they spawn and reclaim it when
/// the instance reports quiescence (the scheduler engine's jobs hold a plain
/// pointer to their engine, not a reference count). An implementation must
/// therefore guarantee that an instance's quiesce hook is invoked (or
/// dropped unrun), and its handle reports `done`, only after the last job
/// of that instance has finished running; that [`Executor::drive`] does
/// not unwind while a submitted job can still run; and that every job that
/// never runs is dropped without being executed.
pub unsafe trait Executor {
    /// Number of workers executing jobs.
    fn num_threads(&self) -> usize;

    /// Submit `root` as an independent **instance** (epoch) without
    /// blocking; await or poll the returned [`InstanceHandle`] (after
    /// [`Executor::drive`], where the executor may be single-threaded).
    /// `on_quiesce` runs once, on the thread that finishes the instance's
    /// last job, before the handle reports `done`.
    fn submit_instance(&self, root: Job, on_quiesce: Option<QuiesceHook>) -> InstanceHandle;

    /// Run pending instance work to quiescence on executors that have no
    /// autonomous worker threads (the deterministic single-threaded pool);
    /// a no-op on threaded pools, whose workers drain instances on their
    /// own. Call before blocking on an [`InstanceHandle`] when the
    /// executor might be single-threaded.
    fn drive(&self) {}
}

/// Configuration for a [`Pool`].
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Number of worker threads.
    pub threads: usize,
}

/// Seed of the per-worker victim-selection RNGs (worker `i` mixes in `i`).
const SEED: u64 = 0x5EED_CAFE;

/// How many full steal sweeps an idle worker performs before parking:
/// enough to ride out short gaps on real multicore, small enough that
/// oversubscribed workers (threads > cores) don't burn the cores the
/// runnable workers need.
const STEAL_ROUNDS: u32 = 8;

impl PoolConfig {
    /// Config with `threads` workers and default tuning.
    pub fn with_threads(threads: usize) -> Self {
        PoolConfig {
            threads: threads.max(1),
        }
    }
}

impl Default for PoolConfig {
    fn default() -> Self {
        Self::with_threads(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }
}

/// Shared state between the pool handle and its workers.
struct PoolState {
    stealers: Vec<Stealer<Job>>,
    injector: Injector<Job>,
    parker: Parker,
    /// The group of every `run_until_complete` (plus its sentinel while
    /// one is in progress). Lives as long as the workers, which hold the
    /// `Arc` this state sits in.
    resident: Group,
    metrics: Vec<CachePadded<WorkerMetrics>>,
    shutdown: AtomicBool,
    threads: usize,
}

/// Handle for spawning work into an executor from inside a job or from the
/// submitting thread.
pub struct Scope<'a> {
    host: &'a dyn SpawnHost,
    /// Stamped on every job spawned through this scope (null: counted in
    /// no group, which only a host that counts nothing accepts).
    group: *const Group,
}

impl std::fmt::Debug for Scope<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scope")
            .field("num_threads", &self.num_threads())
            .field("worker_index", &self.worker_index())
            .finish()
    }
}

impl<'a> Scope<'a> {
    /// Build a scope over any spawn host, spawning into no group — for
    /// hosts that count nothing (`DetPool` refuses such jobs). Jobs only
    /// ever receive a ready-made `&Scope`.
    pub fn for_host(host: &'a dyn SpawnHost) -> Self {
        Scope {
            host,
            group: std::ptr::null(),
        }
    }

    /// Build the scope a job of `group` runs under (executors do, once per
    /// job): everything spawned through it is stamped with `group`.
    ///
    /// # Safety
    /// Unless null, `group` must be alive whenever `host` dereferences the
    /// stamp of a job spawned through this scope: when it enrolls the job
    /// and after it ran it. True when the scope is handed to a running job
    /// of `group` — its unit keeps the latch up, and each job enrolled
    /// under it holds the next — or when `host` itself owns `group`.
    pub unsafe fn for_group(host: &'a dyn SpawnHost, group: *const Group) -> Self {
        Scope { host, group }
    }

    /// Spawn a fire-and-forget job.
    ///
    /// From a worker thread of this pool the job lands on the worker's own
    /// deque; otherwise it goes through the shared injector.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&Scope<'_>) + Send + 'static,
    {
        self.host.spawn_job(Job::new(f).stamped(self.group));
    }

    /// Spawn an already-built [`Job`].
    ///
    /// Equivalent to [`Scope::spawn`] for a `Job` that already exists (the
    /// scheduler engine builds its jobs in one place and spawns them here).
    /// The job joins this scope's group like any other spawn.
    pub fn spawn_job(&self, job: Job) {
        self.host.spawn_job(job.stamped(self.group));
    }

    /// Number of worker threads in the executor this scope belongs to.
    pub fn num_threads(&self) -> usize {
        self.host.num_threads()
    }

    /// Index of the current worker thread, if the calling thread is one.
    pub fn worker_index(&self) -> Option<usize> {
        self.host.worker_index()
    }
}

thread_local! {
    /// Set while a worker thread of some pool is running: points at that
    /// worker's local context.
    static LOCAL: Cell<*const LocalCtx> = const { Cell::new(std::ptr::null()) };
}

/// Per-worker context, reachable through the thread-local above.
struct LocalCtx {
    deque: Worker<Job>,
    index: usize,
    /// Identity of the owning pool, to guard against cross-pool spawns.
    pool_id: *const PoolState,
    /// Latch units this worker holds that belong to no live job — all of
    /// one group at a time.
    credits: Credits,
}

impl PoolState {
    /// Run `f` with the calling thread's worker context, if the thread is
    /// a worker of *this* pool.
    fn with_local<R>(&self, f: impl FnOnce(Option<&LocalCtx>) -> R) -> R {
        LOCAL.with(|l| {
            let p = l.get();
            // SAFETY: a non-null LOCAL points at the `LocalCtx` on the
            // current worker's stack frame in `worker_main`, which outlives
            // every job the worker runs (hence this call) and is reset to
            // null before the frame unwinds.
            let ctx = (!p.is_null()).then(|| unsafe { &*p });
            f(ctx.filter(|ctx| std::ptr::eq(ctx.pool_id, self)))
        })
    }

    /// Racy total of the queue lengths: a sweep of the injector and every
    /// worker's deque, O(workers). Paid only by a worker that is about to
    /// park, or that acquired a job while others are parked — never on the
    /// all-busy path.
    fn queued_jobs(&self) -> u64 {
        let local: usize = self.stealers.iter().map(Stealer::len).sum();
        (self.injector.len() + local) as u64
    }

    /// True if any queue in the system visibly holds work.
    fn has_visible_work(&self) -> bool {
        self.queued_jobs() > 0
    }
}

impl SpawnHost for PoolState {
    fn spawn_job(&self, job: Job) {
        debug_assert!(!job.group().is_null(), "job spawned into no group");
        // SAFETY: a job reaches this host only through a scope built in
        // this file, all of them `for_group`: over the resident group (a
        // field of `self`), or over the group of the running job that is
        // spawning — whose unit keeps that group alive across this call.
        let group = unsafe { &*job.group() };
        let external = self.with_local(|ctx| match ctx {
            Some(ctx) => {
                // SAFETY: a per-instance group outlives its units; the
                // resident one lives in the state every worker holds.
                unsafe { ctx.credits.take(group) };
                WorkerMetrics::bump(&self.metrics[ctx.index].spawned);
                ctx.deque.push(job);
                None
            }
            None => Some(job),
        });
        if let Some(job) = external {
            // Submitting thread is not a worker of this pool: the job's
            // unit comes straight from the latch and it travels through the
            // shared injector.
            group.enroll();
            self.injector.push(job);
        }
        // One job became visible: wake one worker, not the whole pool (a
        // fence and a load when nobody sleeps). The woken worker escalates
        // (see `worker_main`) while work remains.
        self.parker.notify_one();
    }

    fn num_threads(&self) -> usize {
        self.threads
    }

    fn worker_index(&self) -> Option<usize> {
        self.with_local(|ctx| ctx.map(|ctx| ctx.index))
    }
}

/// A persistent work-stealing pool.
pub struct Pool {
    state: Arc<PoolState>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.state.threads)
            .finish()
    }
}

impl Pool {
    /// Create a pool with the given configuration; workers start immediately
    /// and park until work arrives.
    pub fn new(config: PoolConfig) -> Self {
        let threads = config.threads.max(1);
        let mut workers = Vec::with_capacity(threads);
        let mut stealers = Vec::with_capacity(threads);
        for _ in 0..threads {
            let (w, s) = deque::deque::<Job>();
            workers.push(w);
            stealers.push(s);
        }
        let metrics = (0..threads)
            .map(|_| CachePadded(WorkerMetrics::default()))
            .collect();
        let state = Arc::new(PoolState {
            stealers,
            injector: Injector::new(),
            parker: Parker::new(),
            resident: Group::resident(),
            metrics,
            shutdown: AtomicBool::new(false),
            threads,
        });
        let mut handles = Vec::with_capacity(threads);
        for (index, w) in workers.into_iter().enumerate() {
            let state = Arc::clone(&state);
            let seed = SEED.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index as u64 + 1));
            handles.push(
                std::thread::Builder::new()
                    .name(format!("ft-steal-worker-{index}"))
                    .spawn(move || worker_main(state, w, index, seed))
                    .expect("failed to spawn worker thread"),
            );
        }
        Pool { state, handles }
    }

    /// Number of worker threads.
    pub fn num_threads(&self) -> usize {
        self.state.threads
    }

    /// Run `f` (which spawns the root work) and block until the pool's
    /// resident group quiesces — every transitively spawned job has
    /// finished. Concurrent callers share that one group (each waits for
    /// the union); independent runs are [`Executor::submit_instance`]'s.
    ///
    /// If `f` or any job panicked, the first panic payload is re-raised
    /// here — after quiescence either way, so nothing spawned by a
    /// panicking `f` is still running when this unwinds.
    ///
    /// The panic slot is the resident group's, shared like its count: a
    /// caller whose own `f` and jobs are clean can re-raise a panic from a
    /// job another concurrent caller spawned. Callers that must not see
    /// each other's panics submit their work with
    /// [`Executor::submit_instance`], which gives each submission its own
    /// completion group.
    pub fn run_until_complete<F>(&self, f: F)
    where
        F: FnOnce(&Scope<'_>),
    {
        let state = &*self.state;
        let group = &state.resident;
        // SAFETY: the resident group is a field of the host itself.
        let scope = unsafe { Scope::for_group(state, group) };
        // Sentinel unit: holds the count above zero while `f` is still
        // submitting, so the wait below cannot see a zero that precedes
        // the run's jobs.
        group.enroll();
        let submitted = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&scope)));
        // A caller that is itself a worker of this pool spawned on credit;
        // it is about to block, so it must not sit on units.
        state.with_local(|ctx| {
            if let Some(ctx) = ctx {
                ctx.credits.flush();
            }
        });
        // SAFETY: the sentinel unit enrolled above; `group` is resident.
        unsafe { Group::release(group, 1) };
        group.latch.wait();
        if let Some(payload) = submitted.err().or(group.take_panic()) {
            std::panic::resume_unwind(payload);
        }
    }

    /// Aggregate the per-worker metrics.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.state
            .metrics
            .iter()
            .map(|m| m.snapshot())
            .fold(MetricsSnapshot::default(), |a, b| a.merge(&b))
    }

    /// Zero all metrics (between experiment repetitions).
    pub fn reset_metrics(&self) {
        for m in &self.state.metrics {
            m.reset();
        }
    }
}

// SAFETY: every job holds a unit of its group's latch from before it
// becomes visible until after its body returned (`instance.rs`, invariant 1
// — `Group::open` enrolls the root, `spawn_job` every other job), so an
// instance's latch cannot trip — hook, then `done` — while one of its jobs
// can still run. `drive` is the no-op default; queued jobs are only ever
// run once or dropped.
unsafe impl Executor for Pool {
    fn num_threads(&self) -> usize {
        self.state.threads
    }

    fn submit_instance(&self, root: Job, on_quiesce: Option<QuiesceHook>) -> InstanceHandle {
        let (job, handle) = Group::open(root, on_quiesce);
        // Always through the injector, never on the caller's credit: a
        // worker that submits and then blocks on the handle must not sit
        // on units of the group it waits for.
        self.state.injector.push(job);
        self.state.parker.notify_one();
        handle
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // ord: Release — pairs with the workers' Acquire loads of
        // `shutdown` so everything before the drop is visible to them.
        self.state.shutdown.store(true, Ordering::Release);
        // Wake everyone until they have all exited.
        for h in self.handles.drain(..) {
            while !h.is_finished() {
                self.state.parker.notify();
                std::thread::yield_now();
            }
            let _ = h.join();
        }
    }
}

fn worker_main(state: Arc<PoolState>, deque: Worker<Job>, index: usize, seed: u64) {
    let ctx = LocalCtx {
        deque,
        index,
        pool_id: Arc::as_ptr(&state),
        credits: Credits::new(),
    };
    LOCAL.with(|l| l.set(&ctx as *const LocalCtx));
    let mut rng = XorShift64Star::new(seed);
    let metrics = &state.metrics[index];

    loop {
        if let Some(job) = find_job(&state, &ctx, index, &mut rng) {
            // Wake escalation: this worker got a job; if more are visible
            // and someone is parked, pass the wakeup along. Combined with
            // `notify_one` in `spawn_job`, a burst of B jobs wakes at most
            // B workers, one at a time, instead of the whole pool per job.
            // With nobody parked this is one load of an unmodified line.
            if state.parker.sleepers() > 0 && state.has_visible_work() {
                state.parker.notify_one();
            }
            WorkerMetrics::bump(&metrics.executed);
            let group = job.group();
            // SAFETY: the job holds a unit of `group` until the `put`
            // below, so the group is alive for the scope's whole life.
            let scope = unsafe { Scope::for_group(&*state, group) };
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                job.run(&scope);
            }));
            // Store the payload *before* the job's unit can reach the
            // latch: the group's waiter reads the panic slot as soon as the
            // count hits zero.
            if let Err(payload) = result {
                // SAFETY: as above — the job's unit is still held.
                unsafe { (*group).record_panic(payload) };
            }
            // SAFETY: the finished job's unit, handed to the stash (which
            // the body may have moved: a nested `run_until_complete`).
            unsafe { ctx.credits.put(group) };
            continue;
        }
        // ord: Acquire — pairs with the Release store in `Pool::drop`.
        if state.shutdown.load(Ordering::Acquire) {
            break;
        }
        // Nothing found after a full sweep: two-phase park. Registering
        // fences (sleeper half of the parker's Dekker pair), so the sweep
        // below sees every job whose producer did not see this sleeper.
        let token = state.parker.prepare_sleep();
        // ord: Acquire — pairs with the Release store in `Pool::drop`.
        if state.has_visible_work() || state.shutdown.load(Ordering::Acquire) {
            state.parker.cancel_sleep();
            continue;
        }
        WorkerMetrics::bump(&metrics.sleeps);
        state.parker.sleep(token);
    }
    debug_assert_eq!(ctx.credits.held(), 0, "worker exits holding credits");
    LOCAL.with(|l| l.set(std::ptr::null()));
}

/// One attempt to obtain a job: own deque, injector batch, then
/// `STEAL_ROUNDS` sweeps over random victims. Leaving the worker's own
/// deque — the point where it stops being self-sufficient — is where its
/// quiescence credits are flushed.
fn find_job(
    state: &PoolState,
    ctx: &LocalCtx,
    index: usize,
    rng: &mut XorShift64Star,
) -> Option<Job> {
    if let Some(job) = ctx.deque.pop() {
        return Some(job);
    }
    ctx.credits.flush();
    if let Some(job) = pop_injector(state, ctx, index) {
        return Some(job);
    }
    let n = state.threads;
    for _ in 0..STEAL_ROUNDS {
        // Random starting victim, then sweep all others once.
        let start = rng.next_below(n.max(1));
        for off in 0..n {
            let victim = (start + off) % n;
            if victim == index {
                continue;
            }
            loop {
                match state.stealers[victim].steal() {
                    Steal::Success(job) => {
                        WorkerMetrics::bump(&state.metrics[index].steals);
                        return Some(job);
                    }
                    Steal::Retry => continue,
                    Steal::Empty => break,
                }
            }
        }
        if let Some(job) = pop_injector(state, ctx, index) {
            return Some(job);
        }
        // ord: Acquire — pairs with the Release store in `Pool::drop`.
        if state.shutdown.load(Ordering::Acquire) {
            return None;
        }
        std::hint::spin_loop();
    }
    WorkerMetrics::bump(&state.metrics[index].failed_steals);
    None
}

/// Take from the injector (one lock-free load when it is empty): a
/// batch-steal into this worker's own deque, returning the oldest stolen
/// job. Surplus jobs stay stealable by other workers.
fn pop_injector(state: &PoolState, ctx: &LocalCtx, index: usize) -> Option<Job> {
    let job = state.injector.steal_batch_and_pop(&ctx.deque)?;
    WorkerMetrics::bump(&state.metrics[index].steals);
    WorkerMetrics::bump(&state.metrics[index].injector_steals);
    Some(job)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_sync::atomic::AtomicUsize;
    use parking_lot::Mutex;

    #[test]
    fn runs_simple_jobs() {
        let pool = Pool::new(PoolConfig::with_threads(4));
        let counter = Arc::new(AtomicUsize::new(0));
        pool.run_until_complete(|scope| {
            for _ in 0..1000 {
                let c = Arc::clone(&counter);
                scope.spawn(move |_| {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn recursive_spawning_quiesces() {
        let pool = Pool::new(PoolConfig::with_threads(4));
        let counter = Arc::new(AtomicUsize::new(0));
        fn fanout(scope: &Scope<'_>, depth: usize, counter: Arc<AtomicUsize>) {
            counter.fetch_add(1, Ordering::Relaxed);
            if depth > 0 {
                for _ in 0..2 {
                    let c = Arc::clone(&counter);
                    scope.spawn(move |s| fanout(s, depth - 1, c));
                }
            }
        }
        let c = Arc::clone(&counter);
        pool.run_until_complete(|scope| {
            scope.spawn(move |s| fanout(s, 10, c));
        });
        // 2^11 - 1 nodes in a binary tree of depth 10.
        assert_eq!(counter.load(Ordering::Relaxed), 2047);
    }

    #[test]
    fn single_thread_pool_works() {
        let pool = Pool::new(PoolConfig::with_threads(1));
        let counter = Arc::new(AtomicUsize::new(0));
        pool.run_until_complete(|scope| {
            for _ in 0..100 {
                let c = Arc::clone(&counter);
                scope.spawn(move |s| {
                    let c2 = Arc::clone(&c);
                    s.spawn(move |_| {
                        c2.fetch_add(1, Ordering::Relaxed);
                    });
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 200);
    }

    #[test]
    fn multiple_runs_reuse_pool() {
        let pool = Pool::new(PoolConfig::with_threads(2));
        for round in 1..=5 {
            let counter = Arc::new(AtomicUsize::new(0));
            let c = Arc::clone(&counter);
            pool.run_until_complete(|scope| {
                for _ in 0..round * 10 {
                    let c = Arc::clone(&c);
                    scope.spawn(move |_| {
                        c.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
            assert_eq!(counter.load(Ordering::Relaxed), round * 10);
        }
    }

    #[test]
    fn empty_run_returns() {
        let pool = Pool::new(PoolConfig::with_threads(2));
        pool.run_until_complete(|_| {});
    }

    #[test]
    fn job_panic_propagates() {
        let pool = Pool::new(PoolConfig::with_threads(2));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run_until_complete(|scope| {
                scope.spawn(|_| panic!("boom"));
                for _ in 0..10 {
                    scope.spawn(|_| {});
                }
            });
        }));
        assert!(result.is_err());
        // Pool still usable afterwards.
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&counter);
        pool.run_until_complete(|scope| {
            scope.spawn(move |_| {
                c.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(counter.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn worker_index_available_inside_jobs() {
        let pool = Pool::new(PoolConfig::with_threads(3));
        let seen = Arc::new(Mutex::new(Vec::new()));
        let s2 = Arc::clone(&seen);
        pool.run_until_complete(|scope| {
            assert_eq!(scope.worker_index(), None, "submitter is not a worker");
            for _ in 0..64 {
                let seen = Arc::clone(&s2);
                scope.spawn(move |s| {
                    let idx = s.worker_index().expect("job runs on a worker");
                    assert!(idx < s.num_threads());
                    seen.lock().push(idx);
                });
            }
        });
        assert_eq!(seen.lock().len(), 64);
    }

    #[test]
    fn metrics_account_all_jobs() {
        let pool = Pool::new(PoolConfig::with_threads(4));
        pool.reset_metrics();
        pool.run_until_complete(|scope| {
            for _ in 0..500 {
                scope.spawn(|s| {
                    s.spawn(|_| {});
                });
            }
        });
        let m = pool.metrics();
        assert_eq!(m.executed, 1000);
        // The 500 inner jobs were spawned from workers.
        assert_eq!(m.spawned, 500);
    }

    #[test]
    fn workload_with_compute_finishes() {
        // A somewhat realistic irregular workload: jobs of varying size.
        let pool = Pool::new(PoolConfig::default());
        let total = Arc::new(AtomicUsize::new(0));
        let t = Arc::clone(&total);
        pool.run_until_complete(|scope| {
            for i in 0..200usize {
                let t = Arc::clone(&t);
                scope.spawn(move |_| {
                    let mut acc = 0usize;
                    for k in 0..(i % 17 + 1) * 1000 {
                        acc = acc.wrapping_add(k).rotate_left(3);
                    }
                    std::hint::black_box(acc);
                    t.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 200);
    }
}
