#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! The auto-tuner: closing the observe → decide → re-configure loop.
//!
//! The paper's portability argument (§5.4) is that moving a shared
//! memory program between platforms — or between configurations of one
//! platform — changes *only the HAMSTER configuration*, never the
//! program. The analyzer (`hamster-analysis-v1` reports) observes a
//! run; this crate turns that observation into a new configuration: a
//! typed [`TuningPlan`] of placement, layout, and topology actions.
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
//! | contended lock, no dominant acquirer  | [`Action::SwitchLocks`]    |
//! | barrier wait dominant at scale        | [`Action::SwitchBarrier`]  |
//!
//! Everything is deterministic: the same report yields the same plan,
//! byte for byte, and applying a plan never perturbs workload results —
//! placement and layout change *where* pages live and *how far apart*
//! values sit, not what the program computes.

pub mod advise;
pub mod parse;

pub use advise::{
    advise, HOT_PAGE_MIN_FAULTS, LANE_DOMINANCE_PCT, MAX_REHOMES, TREE_FANOUT, TREE_MIN_NODES,
};
pub use parse::{parse_report, LockRow, PageRow, ReportSummary};

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
    /// Switch lock handoff to the distributed token queue — the move
    /// when a lock is contended from everywhere at once.
    SwitchLocks,
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
            Action::SwitchLocks => write!(f, "switch locks to token queue"),
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

    /// Deterministic JSON rendering for benchmark artifacts: an array
    /// of single-key objects in plan order, integers only.
    pub fn to_json(&self) -> String {
        let mut s = String::from("[");
        for (i, a) in self.actions.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            match *a {
                Action::RehomePage { page, to } => s.push_str(&format!(
                    "{{\"rehome\": {{\"region\": {}, \"page\": {}, \"to\": {to}}}}}",
                    page.region, page.index
                )),
                Action::PadRegion { region, pad_to } => s.push_str(&format!(
                    "{{\"pad\": {{\"region\": {region}, \"pad_to\": {pad_to}}}}}"
                )),
                Action::PlaceLock { lock, to } => s.push_str(&format!(
                    "{{\"place_lock\": {{\"lock\": {lock}, \"to\": {to}}}}}"
                )),
                Action::SwitchLocks => s.push_str("{\"switch_locks\": \"token_queue\"}"),
                Action::SwitchBarrier { fanout } => {
                    s.push_str(&format!("{{\"switch_barrier\": {{\"fanout\": {fanout}}}}}"))
                }
            }
        }
        s.push(']');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> TuningPlan {
        TuningPlan {
            actions: vec![
                Action::PadRegion { region: 0, pad_to: 4096 },
                Action::RehomePage { page: PageId { region: 1, index: 2 }, to: 1 },
                Action::PlaceLock { lock: 7, to: 0 },
                Action::SwitchBarrier { fanout: 4 },
            ],
        }
    }

    #[test]
    fn plan_json_is_deterministic_and_integer_only() {
        let j = plan().to_json();
        assert_eq!(j, plan().to_json());
        assert_eq!(
            j,
            "[{\"pad\": {\"region\": 0, \"pad_to\": 4096}}, \
             {\"rehome\": {\"region\": 1, \"page\": 2, \"to\": 1}}, \
             {\"place_lock\": {\"lock\": 7, \"to\": 0}}, \
             {\"switch_barrier\": {\"fanout\": 4}}]"
        );
        sim::json::parse(&j).unwrap();
    }
}
