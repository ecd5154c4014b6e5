#![deny(missing_docs)]
#![forbid(unsafe_code)]
//! # HAMSTER — the Hybrid-dsm based Adaptive and Modular Shared memory
//! archiTEctuRe
//!
//! The core middleware of the paper: a single set of orthogonal
//! management modules that (a) runs unmodified on top of three very
//! different platforms — SMPs with hardware coherence, NUMA-like
//! clusters with an SCI-style SAN (hybrid DSM), and Beowulf clusters
//! running a page-based software DSM — and (b) is thin enough to
//! retarget to arbitrary shared-memory programming models (see the
//! `models` crate).
//!
//! ## The HAMSTER interface (paper §4.2)
//!
//! Five orthogonal modules, each with its own monitoring counters:
//!
//! * [`mem_mgmt`] — allocation with distribution and coherence
//!   annotations, capability probing, and the global access functions.
//! * [`cons_mgmt`] — consistency control (flush, sync barriers) plus the
//!   separate consistency API of §4.5 ([`consistency`]).
//! * [`sync_mgmt`] — locks, barriers, events, and global counters.
//! * [`task_mgmt`] — SPMD identity plus the remote-execution primitive
//!   that thread models build their forwarding on.
//! * [`cluster_ctl`] — node identification/parameters and the low-level
//!   user messaging layer.
//!
//! ## The platform beneath
//!
//! Each node holds its platform's node engine as one
//! [`memwire::Engine`] (re-exported here with [`Access`]): the cluster's
//! one node engine, `cluster::Node`, over the software DSM's data path
//! (`swdsm::DsmNode`), the hybrid DSM's (`hybriddsm::HybridNode`) or the
//! SMP's (`hybriddsm::SmpNode`), or [`mixed::MixedNode`], chosen by
//! [`PlatformKind`] at bring-up. Every memory and synchronization service
//! ends in one call on it, and the capability probe ([`PlatformCaps`])
//! comes from the [`PlatformKind`] alone. [`mem_mgmt::MemMgmt`] speaks
//! [`Access`] itself, so the typed accessors a program calls through
//! `ham.mem()` are the trait's, charged as one service call each.
//!
//! ## Entry points
//!
//! Configure with [`ClusterConfig`] (or parse the paper's
//! key-equals-value configuration file with
//! [`ClusterConfig::from_config_map`]), then either call [`run_spmd`]
//! or build a [`Runtime`] for more control. Each node thread receives a
//! [`Hamster`] handle exposing the five modules.

pub mod cluster_ctl;
pub mod config;
pub mod cons_mgmt;
pub mod consistency;
pub mod hamster;
pub mod mem_mgmt;
pub mod mixed;
pub mod monitor;
pub mod runtime;
pub mod sync_mgmt;
pub mod task_mgmt;
pub mod telemetry;
pub mod timing;
pub mod trace;

pub use cluster::RunReport;
pub use config::{ClusterConfig, Placement, PlatformCaps, PlatformKind};
pub use hamster::Hamster;
pub use mem_mgmt::{AllocSpec, CoherenceReq, MemError, Region};
pub use runtime::{run_spmd, Runtime};
pub use task_mgmt::{TaskHandle, TaskMgmt};
pub use telemetry::{ServiceOp, Telemetry};
pub use timing::{PhaseAccumulator, PhaseTimer, Timer};
pub use trace::{
    chrome_trace_json, gantt_summary, validate_chrome_trace, TraceEvent, TraceSession,
};

// Re-exported so programming models and applications need only this
// crate for common vocabulary.
pub use memwire::{Access, Distribution, Engine, EngineHint, GlobalAddr};
