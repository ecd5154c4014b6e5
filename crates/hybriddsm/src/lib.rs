#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! An SCI-VM-style hybrid DSM.
//!
//! The paper's hybrid configuration (§3.2) runs on *shared memory
//! clusters*: SANs with remote memory read/write capability (Dolphin
//! SCI). Communication maps directly onto hardware transactions — no
//! software protocol on the data path — while memory *management* stays
//! in software, distributed across nodes (this is the SCI-VM the paper's
//! framework grew from, with its extra kernel component subsumed here by
//! the shared [`memwire::RegionStore`]).
//!
//! Consequences faithfully modelled:
//!
//! * Remote accesses are word-granularity hardware transactions: reads
//!   block for a few µs, writes are posted through a write buffer and
//!   cost little to issue.
//! * There is no page caching and hence no invalidation protocol: every
//!   access sees current memory (NCC-NUMA). Consistency control reduces
//!   to flushing the write buffer at release points.
//! * Write-only initialization — pathological for page-based software
//!   DSM — is cheap (the paper's LU observation in Figure 3).
//!
//! Locks and barriers are the cluster's one synchronisation driver,
//! `cluster::syncproto::driver`, bound to the ordering-only `()`
//! platform: they ride SCI messaging, carry nothing, and follow the
//! fabric's `SyncTopology` as the software DSM's do.

pub mod node;

pub use interconnect::Page;
pub use node::{HybridConfig, HybridDsm, HybridNode};
