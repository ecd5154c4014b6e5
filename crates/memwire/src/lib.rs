#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! Shared-memory bookkeeping common to all DSM backends.
//!
//! HAMSTER's memory-management module and both DSM substrates (the
//! JiaJia-style software DSM and the SCI-VM-style hybrid DSM) share the
//! same low-level vocabulary, which this crate provides:
//!
//! * [`addr`] — global addresses, regions, pages ([`GlobalAddr`],
//!   [`PageId`], [`PAGE_SIZE`]).
//! * [`page`] — page buffers and the per-node cached-page table.
//! * [`diff`] — twin/diff machinery for write detection: the changed
//!   64-byte blocks against a pristine twin, with per-block byte masks,
//!   priced on the wire as TreadMarks/JiaJia's run-length encoding.
//! * [`notice`] — write notices exchanged at synchronization points.
//! * [`arena`] — bump allocation inside a region, with distribution
//!   annotations (paper §4.2, Memory Management module).
//! * [`store`] — a process-shared, atomically accessed region store used
//!   by the platforms where memory is physically shared (SMP hardware
//!   coherence; SCI remote memory).
//! * [`marshal`] — `f64` rows to and from the little-endian bytes every
//!   platform's bulk access moves.

pub mod addr;
pub mod arena;
pub mod dir;
pub mod diff;
pub mod marshal;
pub mod notice;
pub mod page;
pub mod store;

pub use addr::{page_span, pages_for, GlobalAddr, PageId, RegionId, PAGE_SIZE};
pub use arena::{AlignHint, Arena, Distribution};
pub use dir::{RegionDir, RegionMeta};
pub use diff::Diff;
pub use marshal::{read_f64s, write_f64s};
pub use notice::{Interval, WriteNotice};
pub use page::{CachedPage, PageState, PageTable};
pub use store::{RegionRef, RegionStore};
