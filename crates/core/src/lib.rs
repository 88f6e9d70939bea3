//! `nabbit-ft` — fault-tolerant dynamic task graph scheduling.
//!
//! A from-scratch Rust reproduction of *"Fault-Tolerant Dynamic Task Graph
//! Scheduling"* (Kurt, Krishnamoorthy, Agrawal & Agrawal, SC 2014,
//! DOI 10.1109/SC.2014.64). The paper augments the NABBIT work-stealing
//! task-graph scheduler (Agrawal, Leiserson & Sukha, IPDPS 2010) with
//! **selective, localized recovery from detected soft errors**: corruption
//! of task descriptors or of the data blocks tasks produce.
//!
//! # Architecture
//!
//! * [`graph::TaskGraph`] — what the user supplies: a sink key, ordered
//!   predecessor/successor functions, and a `compute` function (Section III
//!   of the paper).
//! * [`scheduler::engine`] — the single copy of the Figure-2 traversal,
//!   generic over a [`scheduler::FtPolicy`]: join counters, notify arrays,
//!   work stealing.
//! * [`scheduler::baseline`] — the plain NABBIT scheduler
//!   ([`scheduler::BaselineScheduler`] = `Engine<NoFt>`): the non-shaded
//!   pseudocode of Figure 2, with every fault guard compiled away
//!   (`Err = Infallible`, zero-sized policy).
//! * [`scheduler::ft`] + [`scheduler::recovery`] — the paper's contribution
//!   ([`scheduler::FtScheduler`] = `Engine<FtRecovery>`; shaded portions of
//!   Figure 2, all of Figure 3): life numbers, the recovery table `R`,
//!   per-predecessor notification bit vectors, notify array reconstruction,
//!   and cascading recovery of overwritten data-block versions.
//! * [`blocks::BlockStore`] — versioned data blocks with a memory-reuse
//!   retention policy; reading an evicted version reports the producer so
//!   the scheduler can re-execute the producing chain (Section IV,
//!   "reuse of data buffers could result in additional re-execution").
//! * [`fault`] / [`inject`] — the detected-soft-error model and the fault
//!   injection campaigns of Section VI (phase × task-type × amount).
//! * [`analysis`] — the graph statistics of Table I and the work/span
//!   bounds of Section V.
//! * [`seq`] — a sequential reference executor (measures `T1`, verifies
//!   results).
//!
//! Execution runs on the [`ft_steal`] work-stealing pool; task descriptors
//! live in an [`ft_cmap`] sharded concurrent hash map, exactly mirroring the
//! paper's runtime structure.
//!
//! # Quickstart
//!
//! ```
//! use nabbit_ft::graph::{Key, TaskGraph, ComputeCtx};
//! use nabbit_ft::fault::Fault;
//! use nabbit_ft::scheduler::FtScheduler;
//! use ft_steal::pool::{Pool, PoolConfig};
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! // A diamond: 0 -> {1, 2} -> 3 (sink is 3).
//! struct Diamond {
//!     sum: AtomicU64,
//! }
//! impl TaskGraph for Diamond {
//!     fn sink(&self) -> Key { 3 }
//!     fn predecessors(&self, k: Key) -> Vec<Key> {
//!         match k { 0 => vec![], 1 | 2 => vec![0], 3 => vec![1, 2], _ => unreachable!() }
//!     }
//!     fn successors(&self, k: Key) -> Vec<Key> {
//!         match k { 0 => vec![1, 2], 1 | 2 => vec![3], 3 => vec![], _ => unreachable!() }
//!     }
//!     fn compute(&self, k: Key, _ctx: &ComputeCtx<'_>) -> Result<(), Fault> {
//!         self.sum.fetch_add(1 << k, Ordering::Relaxed);
//!         Ok(())
//!     }
//! }
//!
//! let pool = Pool::new(PoolConfig::with_threads(2));
//! let graph = std::sync::Arc::new(Diamond { sum: AtomicU64::new(0) });
//! let sched = FtScheduler::new(std::sync::Arc::clone(&graph) as _);
//! let report = sched.run(&pool);
//! assert!(report.sink_completed);
//! assert_eq!(graph.sum.load(Ordering::Relaxed), 0b1111);
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod bitvec;
pub mod blocks;
pub mod fault;
pub mod graph;
pub mod inject;
pub mod metrics;
pub mod scheduler;
pub mod seq;
pub mod task;
pub mod trace;

pub use fault::{Fault, FaultKind};
pub use graph::{ComputeCtx, Key, TaskGraph};
pub use metrics::RunReport;
