//! Workspace-level integration: the trace-analysis engine against real
//! traced runs (see `OBSERVABILITY.md`, "Trace analysis").
//!
//! These tests cross-check the analyzer against independent ground
//! truth produced by the same run: the application's own `PhaseTimer`
//! accounting, and workloads constructed to contain (or be free of)
//! false sharing. Every assertion is on timing-robust content — each
//! test compares quantities *within one run*, so the bus-saturation
//! ordering caveat documented in `OBSERVABILITY.md` does not apply.

use hamster::analyzer::{self, Lane};
use hamster::apps::world::run_hamster;
use hamster::core::{ClusterConfig, PlatformKind};
use hamster::sim::trace::TraceSession;

/// Run a traced 2-node kernel on the software DSM and return the
/// analyzer report plus each rank's benchmark result.
fn traced_swdsm<T: Send>(
    kernel: impl Fn(&hamster::apps::world::HamsterWorld) -> T + Send + Sync,
) -> (analyzer::Report, Vec<T>) {
    let session = TraceSession::begin();
    let cfg = ClusterConfig::new(2, PlatformKind::SwDsm);
    let (_, results) = run_hamster(&cfg, kernel);
    (analyzer::analyze(&session.finish()), results)
}

/// |a - b| as a fraction of max(a, b).
fn rel_err(a: u64, b: u64) -> f64 {
    let hi = a.max(b) as f64;
    if hi == 0.0 {
        0.0
    } else {
        (a.abs_diff(b)) as f64 / hi
    }
}

#[test]
fn barrier_wait_attribution_matches_phase_timer() {
    // Optimized SOR brackets every `w.barrier(2)` with
    // `PhaseTimer::enter_at("barrier", ..)` / `close_at(..)`, so the
    // application's own phase accounting is independent ground truth
    // for what the analyzer attributes to the barrier-wait lane inside
    // that phase: the two must agree to within 1%.
    let (report, results) =
        traced_swdsm(|w| hamster::apps::sor::sor(w, 64, 6, true));

    let timer_total: u64 = results
        .iter()
        .map(|r| *r.phases.get("barrier").expect("SOR times a barrier phase"))
        .sum();
    assert!(timer_total > 0, "PhaseTimer saw no barrier time");

    let phase = report
        .phases
        .iter()
        .find(|p| p.name == "barrier")
        .expect("analyzer reconstructed the barrier phase from the trace");

    // The phase's total must match the PhaseTimer's sum (both measure
    // the same enter→close windows, summed across ranks) ...
    assert!(
        rel_err(phase.total_ns, timer_total) < 0.01,
        "phase total {} vs PhaseTimer {} (>1% apart)",
        phase.total_ns,
        timer_total
    );
    // ... and virtually all of it must land in the barrier-wait lane:
    // the phase opens immediately before the barrier call at the same
    // virtual instant, so the barrier span tiles the whole window.
    let barrier_lane = phase.lanes[Lane::BarrierWait as usize];
    assert!(
        rel_err(barrier_lane, timer_total) < 0.01,
        "barrier-wait lane {} vs PhaseTimer {} (>1% apart)",
        barrier_lane,
        timer_total
    );
}

#[test]
fn lane_totals_tile_each_nodes_makespan() {
    // The sweep's core invariant, checked on a real mixed workload:
    // every virtual nanosecond of every node is attributed to exactly
    // one lane, so the per-node lane sums reproduce the makespans.
    let (report, _) = traced_swdsm(|w| hamster::apps::lu::lu(w, 48));
    assert!(report.makespan_ns > 0);
    for node in &report.nodes {
        let sum: u64 = node.lanes.iter().sum();
        assert_eq!(
            sum, node.makespan_ns,
            "node {} lanes sum {} != makespan {}",
            node.node, sum, node.makespan_ns
        );
    }
    analyzer::validate(&report.to_value()).expect("schema-valid report");
}

#[test]
fn false_sharing_flagged_on_unoptimized_sor() {
    // 120 doubles per row = 960 bytes, so the cyclic layout puts both
    // ranks' writes into the same pages at cache-line-disjoint offsets
    // — the textbook false-sharing pattern the detector must flag.
    let (report, _) =
        traced_swdsm(|w| hamster::apps::sor::sor(w, 120, 3, false));
    assert!(
        !report.false_sharing.is_empty(),
        "unoptimized SOR must trip the false-sharing detector"
    );
    for fs in &report.false_sharing {
        assert!(fs.nodes.len() >= 2, "flagged page needs two writers");
        assert_eq!(fs.nodes.len(), fs.offsets.len());
        // The witness offsets must really be cache-line-disjoint.
        for (i, &a) in fs.offsets.iter().enumerate() {
            for &b in &fs.offsets[i + 1..] {
                assert!(
                    a.abs_diff(b) >= analyzer::CACHE_LINE_BYTES,
                    "offsets {a} and {b} share a cache line"
                );
            }
        }
    }
}

#[test]
fn pi_has_no_false_sharing_false_positives() {
    // PI's only shared write target is one 8-byte accumulator that both
    // ranks update under a lock: true sharing of a single datum. The
    // detector must not confuse it with false sharing.
    let (report, results) = traced_swdsm(|w| hamster::apps::pi::pi(w, 4000));
    assert!(results[0].checksum != 0);
    assert!(
        report.false_sharing.is_empty(),
        "PI flagged for false sharing: {:?}",
        report.false_sharing
    );
    // The lock itself must still be visible to the contention engine.
    assert!(
        report.locks.iter().any(|l| l.acquires >= 2),
        "PI's accumulation lock missing from lock stats"
    );
}
