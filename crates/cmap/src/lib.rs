//! `ft-cmap` — a sharded concurrent hash map built for the NABBIT
//! fault-tolerant task-graph scheduler.
//!
//! The SC14 paper's runtime keeps two concurrent maps:
//!
//! * the **task map**: key (`i64`) → pointer to the current incarnation of a
//!   task descriptor, accessed with `InsertTaskIfAbsent` / `GetTask` /
//!   `ReplaceTask` (Figures 2–3);
//! * the **recovery table `R`**: key → most recent *life number* for which a
//!   recovery has been initiated, accessed with `InsertRecord` / `GetRecord`
//!   plus an atomic compare-and-swap on the stored life (Figure 3,
//!   `IsRecovering`).
//!
//! [`ShardedMap`] provides exactly those operations over `S` shards (power
//! of two), each an open-addressing table with **write-once keys**: neither
//! map ever removes an entry, so a published slot key never changes and a
//! table retired by growth is frozen. `get`/`contains` are therefore
//! lock-free, wait-free reads — one `Acquire` load of the published table
//! pointer and one probe, with no retry — while writers serialize on a
//! per-shard mutex. Values are [`Word`](ft_sync::Word)s stored inline in
//! the slot; the scheduler stores `ArenaRef` descriptor handles, matching
//! the paper's "the hash map stores the pointers to the tasks and not the
//! tasks themselves" — so a read is one probe that returns the handle
//! itself: no box to follow, no clone, no lock traffic.
//! [`ShardedMap::get_or_insert_with`] is `InsertTaskIfAbsent` and
//! `GetTask` in that one probe.
//!
//! A dedicated [`ShardedMap::update_cas`] implements the recovery table's
//! compare-and-swap on the stored value without the caller holding any lock
//! across the comparison.
//!
//! These two maps are all the runtime keeps. Per-task execution counts
//! (N(A) of Section V) live in the fault-tolerant task descriptors, not in
//! a third, write-hot map.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod map;

pub use map::ShardedMap;
