//! The resident graph service: one long-lived executor serving a stream of
//! concurrent graph instances.
//!
//! [`Engine::run`] is batch-shaped: one engine, one blocking call.
//! [`GraphService`] turns the same engines into a *service*: each
//! [`GraphService::submit`] opens an **epoch** — a graph instance with its
//! own task-map namespace, completion group, trace shard and [`RunReport`]
//! — without waiting for it, and independent instances execute concurrently
//! over the shared workers. Namespace isolation falls out of the existing
//! one-engine-one-run design: every submission is its own [`Engine`], so
//! its task map, metrics, recovery table and optional trace are private to
//! the epoch, and the paper's localized recovery never crosses an epoch
//! boundary (a fault in one submitted graph re-executes tasks of that
//! graph only; co-resident instances observe nothing).
//!
//! Admission control is explicit: a bounded in-flight-instance budget
//! (an [`AdmissionGate`]) turns `submit` into `Err(`[`Backpressure`]`)`
//! instead of unbounded queue growth. The slot is returned by the
//! instance's quiesce hook — run by the thread that trips the instance's
//! latch, after its last job — so occupancy tracks actual execution, not
//! ticket lifetimes.
//!
//! The service works over any [`Executor`]: the multithreaded pool (whose
//! workers drain instances autonomously) and the deterministic
//! single-threaded pool (call [`GraphService::drive`] to run all pending
//! instances in one seeded interleaving before waiting on tickets).

use super::engine::{Engine, FtPolicy};
use crate::metrics::RunReport;
use ft_steal::instance::{AdmissionGate, InstanceHandle, QuiesceHook};
use ft_steal::pool::Executor;
use ft_sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Admission-control settings for a [`GraphService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Maximum instances admitted but not yet quiesced. Submissions beyond
    /// this budget get [`Backpressure`].
    pub max_in_flight: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig { max_in_flight: 16 }
    }
}

/// A submission was refused because the in-flight-instance budget is
/// exhausted; retry after draining some in-flight work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backpressure {
    /// Instances in flight at rejection time.
    pub in_flight: u64,
}

impl std::fmt::Display for Backpressure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "backpressure: in-flight instance budget exhausted ({} in flight)",
            self.in_flight
        )
    }
}

impl std::error::Error for Backpressure {}

/// Counters shared with instance quiesce hooks (hence `'static` + `Arc`).
struct ServiceShared {
    gate: AdmissionGate,
    completed: AtomicU64,
    rejected: AtomicU64,
}

/// Aggregate service counters (a snapshot; counters advance concurrently).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceStats {
    /// Instances admitted so far.
    pub submitted: u64,
    /// Instances that have quiesced.
    pub completed: u64,
    /// Submissions refused with [`Backpressure`].
    pub rejected: u64,
    /// Instances currently in flight.
    pub in_flight: u64,
    /// The configured in-flight budget.
    pub max_in_flight: u64,
}

/// A resident front end over one long-lived executor; see the module docs.
pub struct GraphService<'e> {
    exec: &'e dyn Executor,
    next_id: AtomicU64,
    shared: Arc<ServiceShared>,
}

impl std::fmt::Debug for GraphService<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphService")
            .field("stats", &self.stats())
            .finish()
    }
}

impl<'e> GraphService<'e> {
    /// Service over `exec` with default admission settings.
    pub fn new(exec: &'e dyn Executor) -> Self {
        Self::with_config(exec, ServiceConfig::default())
    }

    /// Service over `exec` with explicit admission settings.
    pub fn with_config(exec: &'e dyn Executor, cfg: ServiceConfig) -> Self {
        GraphService {
            exec,
            next_id: AtomicU64::new(0),
            shared: Arc::new(ServiceShared {
                gate: AdmissionGate::new(cfg.max_in_flight),
                completed: AtomicU64::new(0),
                rejected: AtomicU64::new(0),
            }),
        }
    }

    /// Submit `engine` as a new instance (epoch).
    ///
    /// On admission the engine's traversal starts from its sink exactly as
    /// in [`Engine::run`], but asynchronously: the returned
    /// [`InstanceTicket`] is the awaitable/pollable submission handle.
    /// Every policy works — a clean or fault-planned `FtScheduler`, or the
    /// baseline scheduler — because the engine *is* the namespace.
    pub fn submit<P: FtPolicy>(
        &self,
        engine: &Arc<Engine<P>>,
    ) -> Result<InstanceTicket<P>, Backpressure> {
        if let Err(held) = self.shared.gate.try_acquire() {
            // ord: the counters in this file are Relaxed — statistics only;
            // admission correctness lives in the gate's SeqCst protocol.
            self.shared.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(Backpressure { in_flight: held });
        }
        // ord: Relaxed — next_id only needs uniqueness, which the RMW
        // provides at any ordering; it doubles as the admitted count.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();

        let shared = Arc::clone(&self.shared);
        // The epoch's strong reference: jobs only borrow the engine, so
        // the hook — run by the thread that trips the instance's latch,
        // after the last job's body returned — owns an `Arc` until then. A
        // ticket dropped early therefore cannot free a running epoch.
        let epoch = Arc::clone(engine);
        let hook: QuiesceHook = Box::new(move || {
            // ord: Relaxed — statistics counter read at quiescence.
            shared.completed.fetch_add(1, Ordering::Relaxed);
            shared.gate.release();
            drop(epoch);
        });
        let handle = self.exec.submit_instance(engine.root_job(), Some(hook));
        Ok(InstanceTicket {
            id,
            engine: Arc::clone(engine),
            handle,
            start,
        })
    }

    /// Run pending instance work on executors without autonomous workers
    /// (forwards to [`Executor::drive`]; no-op on the threaded pool).
    pub fn drive(&self) {
        self.exec.drive();
    }

    /// Instances currently in flight.
    pub fn in_flight(&self) -> u64 {
        self.shared.gate.in_flight()
    }

    /// Snapshot of the aggregate service counters.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            // ord: Relaxed — monitoring snapshot; counters are commutative
            // fetch_adds and the snapshot makes no cross-field promises.
            submitted: self.next_id.load(Ordering::Relaxed),
            completed: self.shared.completed.load(Ordering::Relaxed),
            rejected: self.shared.rejected.load(Ordering::Relaxed),
            in_flight: self.shared.gate.in_flight(),
            max_in_flight: self.shared.gate.limit(),
        }
    }
}

/// Awaitable/pollable handle to one admitted instance.
///
/// Dropping the ticket does not cancel the instance; the epoch runs to
/// quiescence and releases its admission slot regardless.
pub struct InstanceTicket<P: FtPolicy> {
    id: u64,
    engine: Arc<Engine<P>>,
    handle: InstanceHandle,
    start: Instant,
}

impl<P: FtPolicy> std::fmt::Debug for InstanceTicket<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InstanceTicket")
            .field("id", &self.id)
            .field("done", &self.is_done())
            .finish()
    }
}

impl<P: FtPolicy> InstanceTicket<P> {
    /// Service-assigned instance id (monotonic per service).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// True once every job of the instance has finished (pollable).
    pub fn is_done(&self) -> bool {
        self.handle.is_done()
    }

    /// The engine running this instance (its metrics/trace/task map are
    /// the per-tenant namespace).
    pub fn engine(&self) -> &Arc<Engine<P>> {
        &self.engine
    }

    /// Block until the instance quiesces, then produce its report.
    ///
    /// Re-raises the first panic that occurred inside the instance (and
    /// only this instance). On a single-threaded executor, call
    /// [`GraphService::drive`] first or this blocks forever.
    pub fn wait(self) -> InstanceReport {
        self.handle.wait();
        if let Some(payload) = self.handle.take_panic() {
            std::panic::resume_unwind(payload);
        }
        InstanceReport {
            id: self.id,
            report: self.engine.finish_report(self.start),
        }
    }
}

/// Per-instance outcome: the epoch's own [`RunReport`] (fault, recovery
/// and re-execution counters included).
#[derive(Debug, Clone)]
pub struct InstanceReport {
    /// Service-assigned instance id.
    pub id: u64,
    /// The instance's run report — same shape as [`Engine::run`] returns,
    /// with `elapsed` measured from submission to report creation.
    pub report: RunReport,
}
