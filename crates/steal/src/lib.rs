//! `ft-steal` — a Cilk-style work-stealing runtime built from scratch.
//!
//! This crate is the execution substrate for the NABBIT-style task-graph
//! schedulers in `nabbit-ft`. The paper ("Fault-Tolerant Dynamic Task Graph
//! Scheduling", SC 2014) runs on Cilk++; we reproduce the relevant runtime
//! behaviour with:
//!
//! * [`deque::Worker`]/[`deque::Stealer`] — a Chase–Lev work-stealing deque implemented directly
//!   with atomics, following the orderings of Lê, Pop, Cohen & Zappa Nardelli,
//!   *Correct and Efficient Work-Stealing for Weak Memory Models* (PPoPP'13).
//! * [`injector::Injector`] — a segmented lock-free MPMC queue (linked
//!   31-slot blocks, batch-steal into the caller's deque) for submissions
//!   arriving from outside the pool.
//! * [`pool::Pool`] — a persistent pool of worker threads, each owning a
//!   deque; idle workers steal from random victims and park — after a
//!   sweep of every queue — when the system has no work.
//! * [`instance::Group`] — the completion group every job is counted in
//!   (one per submitted instance, one resident per executor), over
//!   [`latch::CountLatch`] / [`latch::Flag`] and worker-local
//!   [`latch::Credits`]: completion detection for fire-and-forget task
//!   DAGs.
//! * [`metrics::WorkerMetrics`] — per-worker counters (spawns, steals,
//!   executed jobs) aggregated without cross-thread contention.
//!
//! The pool deliberately exposes a *fire-and-forget* `spawn` rather than
//! fork-join `join`: NABBIT's traversal routines (`InitAndCompute`,
//! `ComputeAndNotify`, ...) only ever spawn children and never sync on them;
//! graph completion is detected when the sink task completes. This matches
//! how the paper's scheduler uses Cilk spawns.
//!
//! # Example
//!
//! ```
//! use ft_steal::pool::{Pool, PoolConfig};
//! use std::sync::atomic::{AtomicUsize, Ordering};
//! use std::sync::Arc;
//!
//! let pool = Pool::new(PoolConfig::with_threads(4));
//! let counter = Arc::new(AtomicUsize::new(0));
//! pool.run_until_complete(|scope| {
//!     for _ in 0..100 {
//!         let counter = Arc::clone(&counter);
//!         scope.spawn(move |_| {
//!             counter.fetch_add(1, Ordering::Relaxed);
//!         });
//!     }
//! });
//! assert_eq!(counter.load(Ordering::Relaxed), 100);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod arena;
pub mod deque;
pub mod injector;
pub mod instance;
pub mod job;
pub mod latch;
pub mod metrics;
pub mod parker;
pub mod pool;
pub mod priority;
pub mod rng;

pub use arena::{Arena, ArenaRef};
pub use instance::{AdmissionGate, InstanceHandle, InstanceStats, QuiesceHook};
pub use latch::{CountLatch, Flag};
pub use pool::{Executor, Job, Pool, PoolConfig, Scope, SpawnHost};
