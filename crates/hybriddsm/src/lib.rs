#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! The hardware data paths: the SCI-VM-style hybrid DSM and the SMP,
//! two store-backed [`cluster::DataPath`]s of the cluster's one node
//! engine ([`cluster::Node`]).
//!
//! Paper §3.2 treats both as tightly coupled platforms: the hardware
//! moves the data, HAMSTER only manages memory and synchronisation. The
//! engine holds that management once, for these two and the software
//! DSM alike — region directory, lockstep collective allocation,
//! single-node allocation, the synchronisation verbs, per-node counters
//! — and here the bytes live in one physically shared
//! [`memwire::RegionStore`]. What this crate adds is how the hardware
//! moves them: the access charges and the consistency hooks.
//!
//! [`Numa`] is the hybrid configuration (§3.2): *shared memory
//! clusters*, SANs with remote memory read/write capability (Dolphin
//! SCI). Communication maps directly onto hardware transactions — no
//! software protocol on the data path — while memory *management* stays
//! in software, distributed across nodes (this is the SCI-VM the paper's
//! framework grew from, with its extra kernel component subsumed here by
//! the shared store). Consequences faithfully modelled:
//!
//! * Remote accesses are word-granularity hardware transactions priced
//!   by the cluster cost model's `sci_access`: reads block for a few µs,
//!   writes are posted through a write buffer and cost little to issue.
//! * There is no page caching and hence no invalidation protocol: every
//!   access sees current memory (NCC-NUMA). Consistency control reduces
//!   to flushing the write buffer at release points.
//! * Write-only initialization — pathological for page-based software
//!   DSM — is cheap (the paper's LU observation in Figure 3).
//!
//! [`Uma`] is the SMP: every access is local and bulk traffic contends
//! on the one shared memory bus; hardware coherence needs no
//! consistency action at all.
//!
//! Locks and barriers are the cluster's one synchronisation driver,
//! `cluster::syncproto::driver`, bound to the ordering-only `()`
//! platform: they carry nothing and follow the fabric's `SyncTopology`
//! as the software DSM's do.

pub mod numa;
pub mod uma;

pub use interconnect::Page;
pub use numa::{HybridConfig, HybridDsm, HybridNode, Numa, HYBRID_REGION_BASE};
pub use uma::{SmpNode, SmpShared, Uma};
