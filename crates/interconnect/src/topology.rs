//! Synchronization topology selection.
//!
//! The fabric itself is topology-agnostic — any node can message any
//! other — but the *synchronization protocols* layered on top (barriers,
//! locks, write-notice distribution in the DSM layers) choose between
//! centralized and scalable structures. [`SyncTopology`] is the typed
//! knob on [`crate::network::NetworkBuilder`]-level configs (exposed via
//! `FabricConfig::builder().sync(..)` in the cluster crate) that makes
//! that choice once, for every protocol in the stack.
//!
//! Two presets cover almost every use:
//!
//! * [`SyncTopology::centralized`] (the default) — one manager node per
//!   barrier id, full write-notice directories on release broadcasts.
//!   Matches the paper's 4-node evaluation scale; message volume per
//!   barrier is O(n) messages but O(n²) carried notice records.
//! * [`SyncTopology::scalable`] — k-ary tree barrier (fan-out 8) and
//!   compact write-notice digests. Per-barrier traffic is 2(n−1)
//!   messages and the carried volume is the per-subtree complement
//!   only: O(n log n) records in the worst all-writers case, with
//!   digests compressing the common sparse case further.
//!
//! Locks are not a topology choice: under every preset a manager node
//! per lock (`lock % nodes`, unless placed) grants in the requested
//! mode, with causal floors and idempotent answers to retries. The two
//! axes can be mixed freely, on plain and on resilient fabrics: both
//! barrier structures have a retry protocol, and each carries either
//! notice encoding.

use std::str::FromStr;

/// How barrier arrivals and releases are structured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierTopology {
    /// All arrivals funnel into a single manager node (`id % nodes`),
    /// which broadcasts the release with every node's write notices.
    /// O(n) messages, O(n²) carried notice records per barrier.
    Central,
    /// k-ary aggregation tree rooted at `id % nodes`. Arrivals aggregate
    /// up the tree; release waves flow down carrying only the interval
    /// deltas the receiving subtree has not seen (the complement of its
    /// own aggregate). 2(n−1) messages per barrier, resilient-capable.
    Tree {
        /// Maximum children per tree node. 2 gives a binary tree
        /// (deepest, smallest per-node fan-in); larger values flatten
        /// the tree at the cost of more serialized child handling per
        /// parent. The [`SyncTopology::scalable`] preset uses 8.
        fanout: usize,
    },
}

/// How write notices are encoded on barrier release waves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoticeWire {
    /// Full per-writer page lists, exactly as accumulated. Lossless and
    /// simple; wire size grows linearly with pages written.
    Explicit,
    /// Compact digests: run-length interval summaries while the page
    /// set stays clustered, switching to a fixed-size Bloom filter past
    /// `max_runs` runs. Bloom positives are validated against home page
    /// versions in a fallback round before invalidating, so false
    /// positives cost a check, never correctness.
    Digest {
        /// Run count above which the run-length encoding is abandoned
        /// for the Bloom filter. The [`SyncTopology::scalable`] preset
        /// uses 64.
        max_runs: usize,
    },
}

/// Typed selection of synchronization structures for every protocol in
/// the stack (DSM barriers, write-notice wire encoding, and the
/// hybrid-DSM barrier mirror).
///
/// Construct via [`SyncTopology::centralized`] /
/// [`SyncTopology::scalable`], tweak fields directly for mixed setups,
/// or parse from a config string (see the [`FromStr`] impl).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncTopology {
    /// Barrier structure.
    pub barrier: BarrierTopology,
    /// Write-notice wire encoding on barrier releases.
    pub notices: NoticeWire,
}

impl SyncTopology {
    /// The paper-scale default: central barrier manager, explicit write
    /// notices.
    pub fn centralized() -> Self {
        Self {
            barrier: BarrierTopology::Central,
            notices: NoticeWire::Explicit,
        }
    }

    /// The 1024-node configuration: fan-out-8 tree barrier,
    /// digest-encoded write notices.
    pub fn scalable() -> Self {
        Self {
            barrier: BarrierTopology::Tree { fanout: 8 },
            notices: NoticeWire::Digest { max_runs: 64 },
        }
    }
}

impl Default for SyncTopology {
    fn default() -> Self {
        Self::centralized()
    }
}

/// Error from parsing a [`SyncTopology`] config string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSyncTopologyError(String);

impl std::fmt::Display for ParseSyncTopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        const EXPECTED: &str = "centralized | scalable | tree | tree:<fanout>";
        if self.0 == "dissemination" {
            return write!(
                f,
                "sync topology \"dissemination\": the dissemination barrier was removed; \
                 use {EXPECTED}"
            );
        }
        write!(f, "unknown sync topology {:?} (expected {EXPECTED})", self.0)
    }
}

impl std::error::Error for ParseSyncTopologyError {}

impl FromStr for SyncTopology {
    type Err = ParseSyncTopologyError;

    /// Accepted forms:
    ///
    /// * `centralized` — [`SyncTopology::centralized`]
    /// * `scalable` — [`SyncTopology::scalable`]
    /// * `tree` / `tree:<fanout>` — scalable preset with the given tree
    ///   fan-out (default 8)
    ///
    /// `dissemination` named a third barrier that no longer exists; it
    /// is an error that says so.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        match s {
            "centralized" => return Ok(Self::centralized()),
            "scalable" => return Ok(Self::scalable()),
            "tree" => return Ok(Self::scalable()),
            _ => {}
        }
        if let Some(rest) = s.strip_prefix("tree:") {
            let fanout: usize =
                rest.parse().map_err(|_| ParseSyncTopologyError(s.to_string()))?;
            if fanout < 2 {
                return Err(ParseSyncTopologyError(s.to_string()));
            }
            return Ok(Self {
                barrier: BarrierTopology::Tree { fanout },
                ..Self::scalable()
            });
        }
        Err(ParseSyncTopologyError(s.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_centralized() {
        assert_eq!(SyncTopology::default(), SyncTopology::centralized());
        assert_eq!(SyncTopology::centralized().barrier, BarrierTopology::Central);
        assert_eq!(SyncTopology::centralized().notices, NoticeWire::Explicit);
    }

    #[test]
    fn scalable_preset() {
        let t = SyncTopology::scalable();
        assert_eq!(t.barrier, BarrierTopology::Tree { fanout: 8 });
        assert_eq!(t.notices, NoticeWire::Digest { max_runs: 64 });
    }

    #[test]
    fn parses_presets_and_tree_fanout() {
        assert_eq!("centralized".parse::<SyncTopology>().unwrap(), SyncTopology::centralized());
        assert_eq!("scalable".parse::<SyncTopology>().unwrap(), SyncTopology::scalable());
        assert_eq!("tree".parse::<SyncTopology>().unwrap(), SyncTopology::scalable());
        let t: SyncTopology = "tree:4".parse().unwrap();
        assert_eq!(t.barrier, BarrierTopology::Tree { fanout: 4 });
    }

    #[test]
    fn removed_dissemination_value_is_a_named_error() {
        let err = "dissemination".parse::<SyncTopology>().unwrap_err().to_string();
        assert!(err.contains("the dissemination barrier was removed"), "{err}");
        assert!(err.contains("centralized | scalable | tree | tree:<fanout>"), "{err}");
        assert!(!"mesh".parse::<SyncTopology>().unwrap_err().to_string().contains("removed"));
    }

    #[test]
    fn rejects_garbage_and_degenerate_fanout() {
        assert!("mesh".parse::<SyncTopology>().is_err());
        assert!("tree:1".parse::<SyncTopology>().is_err());
        assert!("tree:x".parse::<SyncTopology>().is_err());
        let err = "mesh".parse::<SyncTopology>().unwrap_err();
        assert!(err.to_string().contains("mesh"), "{err}");
    }
}
