//! The repo's benchmark.
//!
//! Four workloads, ten end-to-end metrics measured with tracing off, and a
//! traced pass that attributes the scheduler's cost per task to layers —
//! see `README.md` in this directory for the tables and the protocol, and
//! the root `BENCHMARK.json` for the contract the driver reads.
//!
//! The benchmark touches the system only through the public APIs of
//! `ft-steal`, `ft-cmap`, `nabbit-ft` and `ft-apps`.

#![warn(missing_docs)]
// `is_multiple_of` is newer than the workspace's `rust-version` (1.85).
#![allow(clippy::manual_is_multiple_of)]

pub mod cli;
pub mod compare;
pub mod env;
pub mod graphs;
pub mod json;
pub mod measure;
pub mod oracle;
pub mod replay;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workload;
