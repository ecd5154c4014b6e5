//! Workspace-level fabric determinism: which host thread runs a
//! protocol handler — and how many such threads there are — must be
//! *invisible in virtual time* (see `DESIGN.md` §2.5).
//!
//! A proptest drives random SOR / LU / lock-ring schedules through the
//! fabric at 4 and 64 nodes three times — one delivery worker, the
//! auto-sized pool, and the auto-sized pool again — and asserts, per
//! schedule, across worker counts and run to run:
//!
//! * bit-identical workload checksums,
//! * identical virtual history (`sim_time_ns` + every net counter),
//! * identical analyzer output for the traced run — same per-node
//!   makespans and same per-node lane totals, lane by lane.
//!
//! One worker serialises every handler in the process onto a single
//! thread; the auto-sized pool steals, and requesters drive idle
//! destinations themselves. Those are the most different *real-time*
//! schedules the fabric has; everything observable in virtual time —
//! including the causal trace the analyzer consumes — must not move by
//! a single nanosecond between them.

use analyzer::LANES;
use apps::world::{NativeWorld, World};
use cluster::{Cluster, EngineMode, FabricConfig, LinkKind, RunReport};
use memwire::Distribution;
use proptest::prelude::*;
use sim::trace::TraceSession;

/// One randomly drawn schedule: which kernel runs, and how big.
#[derive(Clone, Copy, Debug)]
enum Schedule {
    Sor { n: usize, iters: usize },
    Lu { n: usize },
    LockRing { rounds: u32, skew: u32 },
}

fn schedules() -> impl Strategy<Value = Schedule> {
    prop_oneof![
        ((40usize..=72), (2usize..=3)).prop_map(|(n, iters)| Schedule::Sor { n, iters }),
        (24usize..=48).prop_map(|n| Schedule::Lu { n }),
        ((2u32..=4), (100u32..=9_000)).prop_map(|(rounds, skew)| Schedule::LockRing { rounds, skew }),
    ]
}

/// Lock ring: `nprocs` global locks circulate around the nodes — in
/// round `r`, rank `i` holds lock `(i + r) % nprocs` for a skewed slice
/// of compute, so every lock visits every node and every grant carries
/// a causal floor from the previous round's holder. Two deliberate
/// design points keep the schedule inside the repo's *deterministic*
/// regime (OBSERVABILITY.md):
///
/// * a barrier separates rounds, so no two nodes ever contend for the
///   same lock at once — contended grants go in real message-arrival
///   order and are legitimately schedule-dependent;
/// * the critical sections do not write shared memory, so releases
///   publish empty intervals and grants carry no write notices — the
///   notice payload reflects racy page-table state and wobbles the
///   grant's wire size run to run. Shared counters are instead written
///   between barriers, each rank to its own slot.
fn lock_ring(w: &NativeWorld, rounds: u32, skew: u32) -> u64 {
    let nprocs = w.nprocs();
    let counters = w.alloc_dist(nprocs * 8, Distribution::Block);
    w.barrier(900);
    for round in 0..rounds {
        w.compute(1_000 + w.rank() as u64 * skew as u64 + round as u64 * 131);
        let id = 700 + ((w.rank() + round as usize) % nprocs) as u32;
        w.lock(id);
        w.compute(500 + id as u64);
        w.unlock(id);
        let slot = counters.add((w.rank() * 8) as u32);
        let v = w.read_u64(slot);
        w.write_u64(slot, v.wrapping_mul(31).wrapping_add(round as u64 + 1));
        w.barrier(902 + round);
    }
    w.barrier(901);
    let mut acc = 0u64;
    for i in 0..nprocs {
        acc = acc
            .wrapping_mul(0x0000_0100_0000_01b3)
            .wrapping_add(w.read_u64(counters.add((i * 8) as u32)));
    }
    acc
}

/// Everything virtual-time-observable about one traced run.
#[derive(Debug, PartialEq)]
struct Observed {
    checksum: u64,
    sim_time_ns: u64,
    net_stats: std::collections::BTreeMap<&'static str, u64>,
    /// Analyzer view of the trace: (node, makespan, lane totals).
    node_lanes: Vec<(usize, u64, [u64; LANES])>,
}

/// Run `schedule` on the software DSM over `workers` delivery workers
/// (0 = auto-sized) with tracing on, and capture the full virtual-time
/// observation.
fn observe(workers: usize, nodes: usize, schedule: Schedule) -> Observed {
    let session = TraceSession::begin();
    // The deterministic regime, wide enough for the 64-node legs.
    let fabric = FabricConfig::builder()
        .nodes(nodes)
        .link(LinkKind::Ethernet)
        .cost(sim::CostModel::wide_below_saturation())
        .engine(EngineMode { workers })
        .build();
    let cluster = Cluster::new(fabric);
    let dsm = swdsm::SwDsm::install(&cluster, swdsm::DsmConfig::default());
    let (report, checksums): (RunReport, Vec<u64>) = cluster.run(|ctx| {
        let w = NativeWorld::new(dsm.node(ctx));
        match schedule {
            Schedule::Sor { n, iters } => apps::sor::sor(&w, n, iters, true).checksum,
            Schedule::Lu { n } => apps::lu::lu(&w, n).checksum,
            Schedule::LockRing { rounds, skew } => lock_ring(&w, rounds, skew),
        }
    });
    // Tear the fabric down inside the session. Its workers may still be
    // delivering the run's last one-way posts; a handler span emitted
    // after `finish` would land in whichever test's session begins next
    // (the tests of this binary run in parallel) and stretch a node's
    // makespan there to this run's.
    drop((dsm, cluster));
    let trace = session.finish();
    assert!(
        checksums.iter().all(|&c| c == checksums[0]),
        "ranks disagree on checksum with {workers} workers: {checksums:?}"
    );
    let analysis = analyzer::analyze(&trace);
    Observed {
        checksum: checksums[0],
        sim_time_ns: report.sim_time_ns,
        net_stats: report.net_stats,
        node_lanes: analysis
            .nodes
            .iter()
            .map(|n| (n.node, n.makespan_ns, n.lanes))
            .collect(),
    }
}

/// Assert that one worker, the auto-sized pool, and a repeat of the
/// auto-sized pool produced literally the same virtual history.
fn assert_invariant(schedule: Schedule, nodes: usize) {
    let reference = observe(1, nodes, schedule);
    for (leg, workers) in [("auto-sized pool", 0), ("repeat run", 0)] {
        let got = observe(workers, nodes, schedule);
        prop_assert_eq!(
            reference.checksum,
            got.checksum,
            "checksum diverged: {} vs one worker at {} nodes for {:?}",
            leg,
            nodes,
            schedule
        );
        prop_assert_eq!(
            reference.sim_time_ns,
            got.sim_time_ns,
            "virtual makespan diverged: {} vs one worker at {} nodes for {:?}",
            leg,
            nodes,
            schedule
        );
        prop_assert_eq!(
            &reference.net_stats,
            &got.net_stats,
            "net counters diverged: {} vs one worker at {} nodes for {:?}",
            leg,
            nodes,
            schedule
        );
        prop_assert_eq!(
            &reference.node_lanes,
            &got.node_lanes,
            "analyzer lane totals diverged: {} vs one worker at {} nodes for {:?}",
            leg,
            nodes,
            schedule
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Random schedules at 4 and 64 nodes are bit-identical in every
    /// virtual-time observable across worker counts and run to run.
    #[test]
    fn random_schedules_are_worker_count_and_run_invariant(schedule in schedules()) {
        assert_invariant(schedule, 4);
        assert_invariant(schedule, 64);
    }
}

/// Pinned non-random coverage: each kernel shape once, so a proptest
/// draw never silently skips a kernel family, and failures name the
/// exact offender without shrinking.
#[test]
fn each_kernel_family_is_worker_count_and_run_invariant() {
    for schedule in [
        Schedule::Sor { n: 48, iters: 2 },
        Schedule::Lu { n: 32 },
        Schedule::LockRing { rounds: 3, skew: 977 },
    ] {
        assert_invariant(schedule, 4);
    }
}
