#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! Shared-memory bookkeeping common to all DSM backends.
//!
//! HAMSTER's memory-management module and both DSM substrates (the
//! JiaJia-style software DSM and the SCI-VM-style hybrid DSM) share the
//! same low-level vocabulary, which this crate provides:
//!
//! * [`access`] — the one access vocabulary every engine speaks:
//!   [`Access`] (byte reads and writes; typed accessors and `f64` rows
//!   provided once) and [`Engine`] (allocation and the synchronization
//!   verbs), plus the single-node region-id rule
//!   ([`LOCAL_REGION_BASE`]).
//! * [`addr`] — global addresses, regions, pages ([`GlobalAddr`],
//!   [`PageId`], [`PAGE_SIZE`]).
//! * [`page`] — the per-node cached-page table over [`Page`] values (the
//!   shared copy-on-write page of `sim::page`, re-exported here).
//! * [`diff`] — twin/diff machinery for write detection: the changed
//!   64-byte blocks against a pristine twin, with per-block byte masks,
//!   read from the page the diff was taken from, and priced on the wire
//!   as TreadMarks/JiaJia's run-length encoding.
//! * [`notice`] — write notices exchanged at synchronization points.
//! * [`arena`] — distribution annotations and layout hints for an
//!   allocation (paper §4.2, Memory Management module).
//! * [`store`] — a process-shared, atomically accessed region store used
//!   by the platforms where memory is physically shared (SMP hardware
//!   coherence; SCI remote memory); it speaks [`Access`] itself.
//! * [`marshal`] — `f64` rows to and from the little-endian bytes every
//!   platform's bulk access moves.

pub mod access;
pub mod addr;
pub mod arena;
pub mod dir;
pub mod diff;
pub mod marshal;
pub mod notice;
pub mod page;
pub mod store;

pub use access::{
    local_region, local_region_owner, Access, Engine, EngineHint, LOCAL_REGION_BASE,
};
pub use addr::{page_span, pages_for, GlobalAddr, PageId, RegionId, PAGE_SIZE};
pub use arena::{AlignHint, Distribution};
pub use dir::{RegionDir, RegionMeta};
pub use diff::Diff;
pub use marshal::{read_f64s, write_f64s};
pub use notice::{Interval, WriteNotice};
pub use page::{CachedPage, PageState, PageTable};
pub use store::{RegionRef, RegionStore};
pub use sim::Page;
