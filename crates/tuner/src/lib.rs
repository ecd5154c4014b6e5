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
//! The bench harness then re-runs the identical binary under the plan
//! and verifies the virtual-time makespan actually dropped.
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
use swdsm::SwDsm;

/// One tuning action. Placement actions apply to a live [`SwDsm`]
/// before a run; layout and topology actions are *configuration* for
/// the next bring-up and come back from [`apply`] as deferred.
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
    /// Whether this action applies to a live DSM (placement) rather
    /// than to the next run's configuration (layout / topology).
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

/// What happened when a plan was applied to a live DSM.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ApplyOutcome {
    /// Placement actions the DSM accepted.
    pub applied: usize,
    /// Placement actions the DSM rejected (digest topology active, or
    /// a target node outside the cluster).
    pub rejected: usize,
    /// Layout / topology actions that are configuration for the next
    /// bring-up, not live-DSM calls; returned in plan order.
    pub deferred: Vec<Action>,
}

/// Apply `plan` to a freshly installed DSM, before `Cluster::run`.
/// Placement actions go straight to [`SwDsm::place_home`] /
/// [`SwDsm::place_lock`]; layout and topology actions come back as
/// [`ApplyOutcome::deferred`] for the caller to fold into the next
/// run's `FabricConfig` / allocation hints.
pub fn apply(plan: &TuningPlan, dsm: &SwDsm) -> ApplyOutcome {
    let mut out = ApplyOutcome::default();
    for a in &plan.actions {
        let result = match *a {
            Action::RehomePage { page, to } => dsm.place_home(page, to),
            Action::PlaceLock { lock, to } => dsm.place_lock(lock, to),
            _ => {
                out.deferred.push(*a);
                continue;
            }
        };
        match result {
            Ok(()) => out.applied += 1,
            Err(_) => out.rejected += 1,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{Cluster, FabricConfig, LinkKind, SyncTopology};
    use swdsm::DsmConfig;

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

    #[test]
    fn apply_splits_placement_from_configuration() {
        let cluster = Cluster::new(
            FabricConfig::builder().nodes(2).link(LinkKind::Ethernet).build(),
        );
        let dsm = SwDsm::install(&cluster, DsmConfig::default());
        let out = apply(&plan(), &dsm);
        assert_eq!(out.applied, 2);
        assert_eq!(out.rejected, 0);
        assert_eq!(
            out.deferred,
            vec![
                Action::PadRegion { region: 0, pad_to: 4096 },
                Action::SwitchBarrier { fanout: 4 }
            ]
        );
        assert_eq!(dsm.home_of(PageId { region: 1, index: 2 }), 1);
        assert_eq!(dsm.lock_mgr_of(7), 0);
    }

    #[test]
    fn apply_rehomes_under_digest_topology() {
        let cluster = Cluster::new(
            FabricConfig::builder()
                .nodes(2)
                .link(LinkKind::Ethernet)
                .sync(SyncTopology::scalable())
                .build(),
        );
        let dsm = SwDsm::install(&cluster, DsmConfig::default());
        let out = apply(&plan(), &dsm);
        // Re-homing composes with digests now that migrations carry the
        // page's version counter to the new home: both placement
        // actions land.
        assert_eq!((out.applied, out.rejected), (2, 0));
        assert_eq!(dsm.stats(1).get("plan_rejected"), 0);
        assert_eq!(dsm.home_of(PageId { region: 1, index: 2 }), 1);
    }
}
