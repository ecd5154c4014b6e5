#![deny(missing_docs)]
#![forbid(unsafe_code)]
//! Virtual-time substrate for the HAMSTER reproduction.
//!
//! The paper evaluates HAMSTER on a four-node dual-Xeon cluster with both
//! SCI and Fast Ethernet interconnects. We reproduce the *protocols* for
//! real (every page fetch, diff, write notice, and lock message actually
//! happens between node threads) but model *time* virtually: each simulated
//! CPU owns a monotonically increasing nanosecond clock, computation and
//! communication advance it by cost-model amounts, and contended resources
//! (page homes, lock managers, memory buses) are queueing servers.
//!
//! This crate is the foundation everything else builds on:
//!
//! * [`VirtualClock`] — a per-CPU nanosecond clock.
//! * [`Server`] — a FIFO queueing server used to model contended resources.
//! * [`CostModel`] / [`LinkCost`] — interconnect and machine constants.
//! * [`stats`] — named atomic counters and latency histograms backing
//!   HAMSTER's per-module performance monitoring (paper §4.3).
//! * [`trace`] — the process-global structured event sink every layer
//!   above emits into while a trace session is open.
//! * [`json`] — the shared offline JSON reader used by trace/report
//!   validators up the stack.
//! * [`page`] — [`Page`], the shared copy-on-write page value the page
//!   protocol fetches, twins, diffs and writes back (re-exported by
//!   `memwire` and `interconnect`).

pub mod clock;
pub mod cost;
pub mod json;
pub mod page;
pub mod sched;
pub mod server;
pub mod stats;
pub mod trace;

pub use clock::VirtualClock;
pub use cost::{CostModel, LinkCost, MachineCost, SciAccessCost};
pub use page::Page;
pub use server::{Bus, Server};
pub use stats::{Counter, MetricId, MetricKind, MetricsRow, MetricsSeries, Quantiles, Sketch, StatSet};
pub use trace::{TraceEvent, TraceSession};
