#![deny(missing_docs)]
#![forbid(unsafe_code)]
//! Simulated cluster interconnect with virtual-time cost accounting.
//!
//! This crate stands in for the paper's physical networks (switched Fast
//! Ethernet for the Beowulf/software-DSM configuration, Dolphin SCI for
//! the hybrid configuration, and the memory bus for SMP-as-cluster). All
//! protocol traffic between simulated nodes really happens — messages are
//! delivered across threads and handled in each node's name by a small
//! worker pool — while *time* is charged according to a
//! [`sim::LinkCost`] model.
//!
//! Key pieces:
//!
//! * [`Network`] — constructs the fabric: one bounded run queue and a
//!   handler [`router::Router`] per node, a worker pool that drives
//!   them (sized by [`EngineMode`]), and a [`sim::Bus`] per node
//!   modelling protocol-handler occupancy (so a hot page home exhibits
//!   queueing, as on the real cluster).
//! * [`NodePort`] — the per-node endpoint used by application threads:
//!   synchronous [`NodePort::request`] (round-trip timed), asynchronous
//!   [`NodePort::post`], and broadcast.
//! * [`Mailbox`] — node-local wait queues that let an application thread
//!   block until a protocol handler deposits a wake-up (used by barriers,
//!   queued locks, thread forwarding, and user-level messaging).
//! * The *unified messaging layer* flag — HAMSTER coalesces the separate
//!   native messaging stacks into one (paper §3.3); when active, a fixed
//!   per-message software saving is applied. This is the mechanism behind
//!   the small speedups of Figure 2.

//! * [`fault`] — deterministic, seeded fault injection (drop, duplicate,
//!   delay, reorder, crash, partition) plus the [`fault::Resilience`]
//!   timeout/retry policy; failures surface as typed [`RequestError`]s.
//! * [`membership`] — deterministic join/leave/recover schedules
//!   ([`MembershipPlan`]) whose view epochs fence in-flight messages
//!   across view changes ([`RequestError::StaleView`]).

pub mod engine;
pub mod error;
pub mod fault;
pub mod mailbox;
pub mod membership;
pub mod message;
pub mod network;
mod reliable;
pub mod router;
pub mod topology;

pub use engine::EngineMode;
pub use error::{DispatchError, RequestError};
pub use fault::{FaultPlan, LinkFaults, Resilience, RetryPolicy};
pub use membership::{MembershipEvent, MembershipPlan, MembershipSpec, ViewChange};
pub use mailbox::Mailbox;
pub use message::{downcast, try_downcast, HandlerCtx, NodeId, Outcome, Page, Payload};
pub use network::{Network, NetworkBuilder, NodePort};
pub use router::Router;
pub use topology::{BarrierTopology, NoticeWire, SyncTopology};
