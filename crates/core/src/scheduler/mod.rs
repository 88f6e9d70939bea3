//! The Figure-2 task-graph traversal and its two instantiations.
//!
//! * [`engine`] — the single, policy-generic copy of the Figure-2
//!   traversal ([`Engine`]) and the [`FtPolicy`]/[`Descriptor`] traits
//!   that supply the paper's shaded behavior.
//! * [`baseline`] — plain NABBIT: `Engine<NoFt>`, the paper's `baseline`
//!   configuration with "no additional data structures or statements
//!   introduced for fault tolerance" (the policy erases them at compile
//!   time).
//! * [`ft`] — the fault-tolerant scheduler: `Engine<FtRecovery>`, the
//!   shaded additions of Figure 2; its recovery routines (Figure 3) live
//!   in [`recovery`].
//! * [`service`] — the resident [`GraphService`]: a stream of engines
//!   submitted as concurrent instances (epochs) over one long-lived
//!   executor, with admission control and per-instance reports.
//!
//! Both instantiations drive the same [`ft_steal::Pool`] and accept the
//! same [`crate::graph::TaskGraph`], so the Figure 4 overhead comparison
//! is apples-to-apples.

pub mod baseline;
pub mod engine;
pub mod ft;
pub mod recovery;
pub mod service;

pub use baseline::{BaselineScheduler, NoFt};
pub use engine::{Descriptor, Engine, FtPolicy};
pub use ft::{Faithful, FtRecovery, FtScheduler, Mutation};
pub use service::{
    Backpressure, GraphService, InstanceReport, InstanceTicket, ServiceConfig, ServiceStats,
};
