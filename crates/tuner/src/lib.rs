#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! The auto-tuner: closing the observe → decide → re-configure loop.
//!
//! The paper's portability argument (§5.4) is that moving a shared
//! memory program between platforms — or between configurations of one
//! platform — changes *only the HAMSTER configuration*, never the
//! program. The analyzer observes a run; this crate turns its
//! [`analyzer::Report`] into a new configuration: a typed
//! [`TuningPlan`] of placement, layout, and topology actions.
//! The bench harness carries each action as configuration of the next
//! run — placements as `ClusterConfig::placement`, topology switches as
//! the `SyncTopology`, padding as an allocation hint — re-runs the
//! identical binary under the plan and verifies the virtual-time
//! makespan actually dropped.
//!
//! The action catalogue maps each analyzer signal to the cheapest lever
//! that addresses it:
//!
//! | signal                                | action                     |
//! |---------------------------------------|----------------------------|
//! | false sharing flagged on a page       | [`Action::PadRegion`]      |
//! | hot page with a dominant writer       | [`Action::RehomePage`]     |
//! | contended lock, dominant acquirer     | [`Action::PlaceLock`]      |
//! | barrier wait dominant at scale        | [`Action::SwitchBarrier`]  |
//!
//! Everything is deterministic: the same report yields the same plan,
//! byte for byte, and applying a plan never perturbs workload results —
//! placement and layout change *where* pages live and *how far apart*
//! values sit, not what the program computes.

pub mod advise;

pub use advise::{
    advise, HOT_PAGE_MIN_FAULTS, LANE_DOMINANCE_PCT, MAX_REHOMES, TREE_FANOUT, TREE_MIN_NODES,
};

use memwire::PageId;
use std::fmt;

/// One tuning action; each is configuration for the next bring-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Re-home `page` onto `to` (its dominant writer): diffs for the
    /// page become local writes instead of wire traffic.
    RehomePage {
        /// The page to move.
        page: PageId,
        /// The new home node.
        to: usize,
    },
    /// Re-layout the region with per-element runs padded to `pad_to`
    /// bytes, so writers flagged as false-sharing a page stop sharing
    /// it. Applied by the harness via `memwire::AlignHint::PadTo`.
    PadRegion {
        /// The region whose layout to pad.
        region: u32,
        /// Power-of-two stride in bytes (usually the page size).
        pad_to: u32,
    },
    /// Pin the manager of `lock` on `to` (its dominant acquirer): the
    /// common acquire becomes a self-send.
    PlaceLock {
        /// The lock to pin.
        lock: u32,
        /// The new manager node.
        to: usize,
    },
    /// Switch the barrier to a fan-out tree — the move when barrier
    /// wait dominates the lane breakdown at scale.
    SwitchBarrier {
        /// Tree fan-out.
        fanout: u32,
    },
}

impl Action {
    /// Whether this action is a placement (a page home or a lock
    /// manager) rather than a layout or topology change.
    pub fn is_placement(&self) -> bool {
        matches!(self, Action::RehomePage { .. } | Action::PlaceLock { .. })
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Action::RehomePage { page, to } => {
                write!(f, "rehome page {}:{} -> node {to}", page.region, page.index)
            }
            Action::PadRegion { region, pad_to } => {
                write!(f, "pad region {region} to {pad_to}-byte strides")
            }
            Action::PlaceLock { lock, to } => write!(f, "place lock {lock} -> node {to}"),
            Action::SwitchBarrier { fanout } => write!(f, "switch barrier to tree:{fanout}"),
        }
    }
}

/// A deterministic, ordered list of tuning actions for one workload.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TuningPlan {
    /// Actions in application order: pads, rehomes, lock placements,
    /// then topology switches.
    pub actions: Vec<Action>,
}

impl TuningPlan {
    /// Whether the advisor found nothing to do.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }
}
