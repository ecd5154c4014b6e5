#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # hamster — A Framework for Portable Shared Memory Programming
//!
//! Umbrella crate for the Rust reproduction of the HAMSTER framework
//! (Schulz & McKee, IPPS 2003). It re-exports the workspace crates under
//! stable module names:
//!
//! * [`core`] — the HAMSTER interface: the five orthogonal management
//!   modules (memory, consistency, synchronization, task, cluster control),
//!   per-module performance monitoring, and the consistency API.
//! * [`models`] — thin programming-model adapters (SPMD, ANL macros,
//!   TreadMarks, HLRC, JiaJia, POSIX/Win32-style threads, Cray shmem).
//! * [`swdsm`] — the JiaJia-style home-based scope-consistency software
//!   DSM (also usable natively, which is the paper's Figure 2 baseline).
//! * [`hybriddsm`] — the SCI-VM-style hybrid DSM.
//! * [`cluster`], [`interconnect`], [`memwire`], [`sim`] — the simulated
//!   cluster substrate (see `DESIGN.md` for the substitution rationale).
//! * [`apps`] — the paper's benchmark suite (Table 1).
//! * [`analyzer`] — causal trace analysis: critical-path extraction,
//!   contention and sharing attribution over `sim::trace` event streams
//!   (see `OBSERVABILITY.md`).
//!
//! ## Quickstart
//!
//! ```
//! use hamster::core::{ClusterConfig, PlatformKind};
//!
//! // Run a 2-node SPMD program on the software-DSM platform.
//! let cfg = ClusterConfig::new(2, PlatformKind::SwDsm);
//! let report = hamster::core::run_spmd(&cfg, |ham| {
//!     let region = ham.mem().alloc_default(4096).unwrap();
//!     ham.sync().barrier(0);
//!     if ham.task().rank() == 0 {
//!         ham.mem().write_u64(region.addr(), 42);
//!     }
//!     ham.cons().barrier_sync(0);
//!     assert_eq!(ham.mem().read_u64(region.addr()), 42);
//! });
//! assert_eq!(report.nodes, 2);
//! ```

pub use analyzer;
pub use apps;
pub use cluster;
pub use hamster_core as core;
pub use hybriddsm;
pub use interconnect;
pub use memwire;
pub use models;
pub use sim;
pub use swdsm;
