#![deny(missing_docs)]
#![forbid(unsafe_code)]
//! Causal trace analysis: critical path, contention, and sharing
//! attribution over [`sim::trace`] event streams.
//!
//! A trace session (see [`sim::TraceSession`]) captures *what happened*;
//! this crate answers *why it was slow*. [`analyze`] consumes the
//! session's events and produces a structured [`Report`]:
//!
//! * **Lane attribution** — every virtual nanosecond of every node is
//!   assigned to exactly one lane (compute, net, page-fault, lock-wait,
//!   barrier-wait), so per-node lane totals sum to that node's makespan
//!   by construction (see [`sweep`]).
//! * **Critical path** — a backward walk from the last event through the
//!   cross-node happens-before edges the emitters recorded via
//!   correlation ids (barrier epochs, lock grant chains), yielding the
//!   longest weighted path and its top contributors (see [`path`]).
//! * **Contention & sharing** — per-lock wait/hold/handoff statistics,
//!   per-page fault counts, and a false-sharing detector that flags
//!   pages written by several nodes at cache-line-disjoint offsets
//!   within a time window (see [`contend`]).
//! * **Latency distributions** — request round-trip and lock-acquire
//!   histograms ([`sim::Sketch`]) reduced to [`sim::Quantiles`].
//!
//! The report renders as text ([`Report::render_text`]) or JSON
//! ([`Report::to_json`]); [`validate`] checks a rendered JSON document
//! against the report schema using the offline [`sim::json`] reader.
//!
//! ```
//! use sim::trace::{self, TraceSession};
//!
//! let session = TraceSession::begin();
//! trace::span(0, 80, 0, "swdsm", "lock_acquire", 7);
//! trace::span(0, 30, 1, "net", "request", 2);
//! let report = analyzer::analyze(&session.finish());
//! assert_eq!(report.makespan_ns, 80);
//! assert_eq!(report.nodes[0].lanes[analyzer::Lane::LockWait as usize], 80);
//! analyzer::validate(&report.to_json()).unwrap();
//! ```

pub mod contend;
pub mod path;
pub mod render;
pub mod sweep;

use sim::Quantiles;
use sim::TraceEvent;

pub use render::validate;

/// The attribution lanes, in ascending wait priority: when several wait
/// spans overlap (a page fetch inside a lock acquire inside a barrier),
/// the highest-priority lane claims the time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Lane {
    /// Residual time not covered by any wait span.
    Compute = 0,
    /// Network request round trips (`net/request`, `net/request_batch`).
    Net = 1,
    /// DSM page traffic (`swdsm/page_fault`, `swdsm/diff_flush`).
    PageFault = 2,
    /// Lock acquisition (`*/lock_acquire`).
    LockWait = 3,
    /// Barrier participation (`*/barrier`).
    BarrierWait = 4,
}

/// Number of lanes (length of per-node lane arrays).
pub const LANES: usize = 5;

impl Lane {
    /// Stable lane name used in reports ("compute", "net", …).
    pub fn name(self) -> &'static str {
        match self {
            Lane::Compute => "compute",
            Lane::Net => "net",
            Lane::PageFault => "page_fault",
            Lane::LockWait => "lock_wait",
            Lane::BarrierWait => "barrier_wait",
        }
    }

    /// All lanes, lowest priority first.
    pub fn all() -> [Lane; LANES] {
        [Lane::Compute, Lane::Net, Lane::PageFault, Lane::LockWait, Lane::BarrierWait]
    }
}

/// One node's share of the makespan, split by lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeBreakdown {
    /// Node rank.
    pub node: usize,
    /// This node's makespan: the end of its last traced event.
    pub makespan_ns: u64,
    /// Virtual ns per lane, indexed by `Lane as usize`. Sums to
    /// `makespan_ns` exactly.
    pub lanes: [u64; LANES],
}

/// One critical-path contributor: total path time attributed to a
/// `(lane, node, op)` aggregate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Contributor {
    /// Attribution lane.
    pub lane: Lane,
    /// Node the time was spent on.
    pub node: usize,
    /// Operation name ("compute" for residual time).
    pub op: &'static str,
    /// Total virtual ns on the path.
    pub ns: u64,
}

/// The extracted critical path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalPath {
    /// Path length in virtual ns. Equals the global makespan: the walk
    /// starts at the last event and attributes every backward step.
    pub total_ns: u64,
    /// Number of walk steps (segments visited, including jumps).
    pub steps: usize,
    /// Aggregated contributors, largest first (deterministic tiebreak
    /// by lane, node, op).
    pub contributors: Vec<Contributor>,
}

/// Per-lock contention statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockStats {
    /// Emitting module ("swdsm", "hybriddsm").
    pub module: &'static str,
    /// Lock id.
    pub lock: u64,
    /// Number of `lock_acquire` spans.
    pub acquires: u64,
    /// Total acquire latency (virtual ns).
    pub wait_ns: u64,
    /// Acquire-latency distribution.
    pub wait: Quantiles,
    /// Completed hold intervals (acquire end → release).
    pub holds: u64,
    /// Total hold time (virtual ns).
    pub hold_ns: u64,
    /// Manager-side grants observed.
    pub grants: u64,
    /// Grants whose grantee differs from the previous grantee (the
    /// lock moved between nodes).
    pub handoffs: u64,
    /// The node with the most acquires (ties go to the lowest rank).
    /// Meaningful only when `acquires > 0`.
    pub top_acquirer: u64,
    /// The dominant acquirer's share of `acquires`.
    pub top_acquirer_acquires: u64,
}

/// Per-page fault and sharing statistics (software DSM only).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageStats {
    /// Packed page id (region and index; see `memwire`).
    pub page: u64,
    /// Remote fetches of this page.
    pub faults: u64,
    /// Total fetch latency (virtual ns).
    pub fault_ns: u64,
    /// Distinct nodes that wrote the page during the trace.
    pub writers: u64,
    /// Total traced writes (`write_fault` + `write_local` events).
    pub writes: u64,
    /// The node with the most traced writes — the page's dominant
    /// writer, the tuner's re-homing target (ties go to the lowest
    /// rank). Meaningful only when `writes > 0`.
    pub top_writer: u64,
    /// The dominant writer's share of `writes`.
    pub top_writer_writes: u64,
}

/// One flagged false-sharing site: a page written by two or more nodes
/// at cache-line-disjoint offsets within the detection window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FalseSharing {
    /// Packed page id.
    pub page: u64,
    /// The writing nodes (sorted, deduplicated).
    pub nodes: Vec<usize>,
    /// Example byte offsets within the page, one per node in `nodes`.
    pub offsets: Vec<u64>,
}

/// Per-phase lane breakdown: intersection of the application's `phase`
/// spans with the lane sweep, aggregated across nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// Phase name (the `PhaseTimer` label).
    pub name: &'static str,
    /// Total phase time across nodes (virtual ns).
    pub total_ns: u64,
    /// Virtual ns per lane inside the phase, indexed by `Lane as usize`.
    pub lanes: [u64; LANES],
}

/// The complete analysis of one trace session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// Global makespan: the end of the last traced event.
    pub makespan_ns: u64,
    /// Number of events analyzed.
    pub events: usize,
    /// Per-node lane breakdowns, ordered by rank.
    pub nodes: Vec<NodeBreakdown>,
    /// The critical path.
    pub critical_path: CriticalPath,
    /// Per-lock statistics, ordered by (module, lock).
    pub locks: Vec<LockStats>,
    /// Per-page statistics, ordered by packed page id (pages with at
    /// least one fault or write).
    pub pages: Vec<PageStats>,
    /// Flagged false-sharing pages, ordered by packed page id.
    pub false_sharing: Vec<FalseSharing>,
    /// Total write notices dropped into caches (invalidation traffic).
    pub invalidations: u64,
    /// Request round-trip latency distribution (`net/request` spans).
    pub net_rtt: Quantiles,
    /// Lock-acquire latency distribution (all `lock_acquire` spans).
    pub lock_wait: Quantiles,
    /// Per-phase lane breakdowns, ordered by first appearance.
    pub phases: Vec<PhaseBreakdown>,
}

/// Detection window for the false-sharing heuristic (virtual ns): two
/// nodes writing disjoint cache lines of one page within this window
/// are treated as concurrent.
pub const FALSE_SHARING_WINDOW_NS: u64 = 50_000_000;

/// Cache-line granularity of the false-sharing detector (bytes):
/// offsets closer than this are treated as the same datum (true
/// sharing), not false sharing.
pub const CACHE_LINE_BYTES: u64 = 64;

/// Analyze a trace session's events into a [`Report`].
///
/// Input order does not matter (events are re-sorted canonically), and
/// no volatile identifiers leak into the report, so the same virtual
/// schedule always produces an identical report.
pub fn analyze(events: &[TraceEvent]) -> Report {
    let mut events: Vec<TraceEvent> = events.to_vec();
    events.sort_by(|a, b| {
        (a.t_ns, a.node, a.dur_ns, a.module, a.op, a.arg, a.corr).cmp(&(
            b.t_ns, b.node, b.dur_ns, b.module, b.op, b.arg, b.corr,
        ))
    });

    let segments = sweep::node_segments(&events);
    let nodes: Vec<NodeBreakdown> = segments
        .iter()
        .enumerate()
        .map(|(node, segs)| {
            let makespan_ns = segs.last().map_or(0, |s| s.end);
            let mut lanes = [0u64; LANES];
            for s in segs {
                lanes[s.lane as usize] += s.end - s.start;
            }
            NodeBreakdown { node, makespan_ns, lanes }
        })
        .collect();
    let makespan_ns = nodes.iter().map(|n| n.makespan_ns).max().unwrap_or(0);

    let critical_path = path::critical_path(&events, &segments);
    let (locks, pages, false_sharing, invalidations) = contend::contention(&events);

    let net_rtt = quantiles_of(&events, |e| e.module == "net" && e.op == "request");
    let lock_wait = quantiles_of(&events, |e| e.op == "lock_acquire");
    let phases = sweep::phase_breakdown(&events, &segments);

    Report {
        makespan_ns,
        events: events.len(),
        nodes,
        critical_path,
        locks,
        pages,
        false_sharing,
        invalidations,
        net_rtt,
        lock_wait,
        phases,
    }
}

fn quantiles_of(events: &[TraceEvent], pick: impl Fn(&TraceEvent) -> bool) -> Quantiles {
    let h = sim::Sketch::new();
    for e in events.iter().filter(|e| e.dur_ns > 0 && pick(e)) {
        h.record(e.dur_ns);
    }
    h.quantiles()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(
        t: u64,
        dur: u64,
        node: usize,
        module: &'static str,
        op: &'static str,
        arg: u64,
        corr: u64,
    ) -> TraceEvent {
        TraceEvent { t_ns: t, dur_ns: dur, node, module, op, arg, corr }
    }

    /// Hand-built two-node lock handoff: node 1 computes 100 ns, takes
    /// the lock instantly, holds 200 ns, releases at 300; node 0 asks at
    /// 50 and waits until the release reaches it at 320.
    fn handoff_trace() -> Vec<TraceEvent> {
        vec![
            // Node 1: immediate grant at its manager, hold, release.
            ev(100, 10, 1, "swdsm", "lock_acquire", 7, 8),
            ev(100, 0, 0, "swdsm", "lock_grant", 7, (2 << 32) | 8),
            ev(300, 0, 1, "swdsm", "lock_release", 7, (2 << 32) | 8),
            // Node 0: queued at 50, granted after node 1's release.
            ev(50, 270, 0, "swdsm", "lock_acquire", 7, 8),
            ev(300, 0, 0, "swdsm", "lock_grant", 7, (1 << 32) | 8),
            // Trailing compute so the release is interior to the run.
            ev(320, 0, 0, "mem", "write", 1, 0),
            ev(320, 0, 1, "mem", "write", 1, 0),
        ]
    }

    #[test]
    fn lane_sums_equal_node_makespans() {
        let r = analyze(&handoff_trace());
        for n in &r.nodes {
            assert_eq!(n.lanes.iter().sum::<u64>(), n.makespan_ns, "node {}", n.node);
        }
        assert_eq!(r.makespan_ns, 320);
        // Node 0 spent [50, 320] waiting for the lock.
        assert_eq!(r.nodes[0].lanes[Lane::LockWait as usize], 270);
    }

    #[test]
    fn critical_path_follows_lock_handoff() {
        let r = analyze(&handoff_trace());
        assert_eq!(r.critical_path.total_ns, r.makespan_ns);
        // The path must route through node 1 (whose hold gated node 0),
        // not sit entirely in node 0's wait.
        assert!(r.critical_path.contributors.iter().any(|c| c.node == 1));
        let wait0: u64 = r
            .critical_path
            .contributors
            .iter()
            .filter(|c| c.lane == Lane::LockWait && c.node == 0)
            .map(|c| c.ns)
            .sum();
        // Only the release→grant leg [300, 320] of node 0's wait is on
        // the path; the rest of it overlaps node 1's hold, which the
        // walk follows instead.
        assert_eq!(wait0, 20);
    }

    #[test]
    fn lock_stats_count_handoffs() {
        let r = analyze(&handoff_trace());
        assert_eq!(r.locks.len(), 1);
        let l = &r.locks[0];
        assert_eq!((l.module, l.lock), ("swdsm", 7));
        assert_eq!(l.acquires, 2);
        assert_eq!(l.wait_ns, 280);
        assert_eq!(l.grants, 2);
        assert_eq!(l.handoffs, 1);
        // Node 1 held [110, 300].
        assert_eq!(l.holds, 1);
        assert_eq!(l.hold_ns, 190);
    }

    #[test]
    fn empty_trace_yields_empty_report() {
        let r = analyze(&[]);
        assert_eq!(r.makespan_ns, 0);
        assert!(r.nodes.is_empty());
        assert_eq!(r.critical_path.total_ns, 0);
        validate(&r.to_json()).unwrap();
    }

    #[test]
    fn barrier_wait_attributed_and_path_jumps_to_straggler() {
        // Node 0 arrives at 100 and waits; node 1 straggles in at 500.
        let evs = vec![
            ev(100, 410, 0, "swdsm", "barrier", 2, 1),
            ev(500, 10, 1, "swdsm", "barrier", 2, 1),
            ev(500, 0, 0, "swdsm", "barrier_release", 2, 1),
        ];
        let r = analyze(&evs);
        assert_eq!(r.nodes[0].lanes[Lane::BarrierWait as usize], 410);
        assert_eq!(r.critical_path.total_ns, r.makespan_ns);
        // The path crosses to node 1, whose pre-barrier compute gated
        // the release.
        let compute_on_1: u64 = r
            .critical_path
            .contributors
            .iter()
            .filter(|c| c.node == 1 && c.lane == Lane::Compute)
            .map(|c| c.ns)
            .sum();
        assert_eq!(compute_on_1, 500);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        fn arb_event() -> impl Strategy<Value = TraceEvent> {
            (
                0u64..10_000,
                0u64..2_000,
                0usize..3,
                prop_oneof![
                    Just(("swdsm", "lock_acquire")),
                    Just(("swdsm", "barrier")),
                    Just(("swdsm", "page_fault")),
                    Just(("swdsm", "lock_release")),
                    Just(("swdsm", "lock_grant")),
                    Just(("net", "request")),
                    Just(("net", "handler")),
                    Just(("phase", "compute")),
                ],
                0u64..16,
                0u64..16,
            )
                .prop_map(|(t, dur, node, (module, op), arg, corr)| TraceEvent {
                    t_ns: t,
                    dur_ns: dur,
                    node,
                    module,
                    op,
                    arg,
                    corr,
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The critical path can never exceed the total virtual
            /// makespan, and lane totals tile each node's timeline.
            #[test]
            fn path_bounded_and_lanes_tile(evs in proptest::collection::vec(arb_event(), 0..40)) {
                let r = analyze(&evs);
                prop_assert!(r.critical_path.total_ns <= r.makespan_ns);
                for n in &r.nodes {
                    prop_assert_eq!(n.lanes.iter().sum::<u64>(), n.makespan_ns);
                    prop_assert!(n.makespan_ns <= r.makespan_ns);
                }
            }

            /// Reports are schema-valid and render deterministically.
            #[test]
            fn json_roundtrip(evs in proptest::collection::vec(arb_event(), 0..40)) {
                let r = analyze(&evs);
                let j = r.to_json();
                prop_assert_eq!(&j, &analyze(&evs).to_json());
                prop_assert!(validate(&j).is_ok(), "invalid: {}", j);
            }
        }
    }
}
