#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! Cluster bring-up: configuration, node registry, and the SPMD run
//! harness.
//!
//! The paper's three base architectures differ radically in task model
//! and system initialization (§3.3): hardware-shared-memory machines rely
//! on the OS, JiaJia had internal remote-start mechanisms, and the SCI-VM
//! used external script-based job start. HAMSTER unifies these behind a
//! single startup path driven by one configuration; this crate implements
//! that unified path for the simulated cluster:
//!
//! * [`FabricConfig`] — how many nodes, which link, which cost model, and
//!   whether HAMSTER's unified messaging layer is active.
//! * [`ConfigMap`] — the textual `key = value` node-configuration-file
//!   format (the only thing that changes between the paper's §5.4
//!   experiments).
//! * [`Registry`] — node identification and parameter queries, backing
//!   the Cluster Control module's services.
//! * [`Cluster`] / [`Cluster::run`] — builds the fabric, spawns one
//!   application thread per node with a [`NodeCtx`], joins them, and
//!   reports virtual execution times.
//! * [`syncproto`] — the lock and barrier protocols every platform's
//!   synchronisation runs, as fabric-free state machines, and their one
//!   fabric driver.
//! * [`engine`] — the one node engine every platform binds to the
//!   driver: allocation, the synchronisation verbs and per-node
//!   counters over a compile-time [`DataPath`] (SMP, hybrid DSM or
//!   software DSM).

pub mod config;
pub mod engine;
pub mod node;
pub mod registry;
pub mod runner;
pub mod syncproto;

pub use config::{ConfigMap, FabricConfig, FabricConfigBuilder, LinkKind};
pub use engine::{DataPath, Node, Shared};
pub use interconnect::{
    BarrierTopology, EngineMode, MembershipPlan, MembershipSpec, NoticeWire, SyncTopology,
    ViewChange,
};
pub use node::NodeCtx;
pub use registry::{NodeInfo, Registry};
pub use runner::{Cluster, RunReport};
