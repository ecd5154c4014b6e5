//! Workspace-level chaos tests: the fault-injection + retry layer and
//! the elastic-membership layer, end to end through the software DSM.
//!
//! * Property: under *any* seeded drop/dup/delay/reorder plan (rates up
//!   to the chaos bench's and beyond), a 2-node SOR run converges to
//!   the exact fault-free checksum, and the same seed reproduces the
//!   identical fault schedule, counters, and virtual times.
//! * Property: under *any* seeded leave/recover churn schedule — at 4
//!   and at 64 nodes, on the auto-sized worker pool and on one worker —
//!   every node computes
//!   the exact stable-membership result and the same seed reproduces
//!   the identical counters and virtual times.
//! * Integration: a node crashes while it manages a barrier mid-run;
//!   survivors see `NodeDown`, back off, and the retried arrival
//!   completes the barrier after the heal — with memory semantics
//!   intact.
//! * Integration: a node crashes mid-run, rejoins through
//!   `DsmNode::rejoin`, and catches up over the incremental delta path
//!   (small divergence must not trigger a snapshot sync).
//! * Integration: a contended lock survives drop/dup/delay chaos under
//!   either `LockTopology` — on a resilient fabric the central manager
//!   serves both, and its idempotent answers keep mutual exclusion and
//!   exactly-once semantics. (Content only: contended lock grant order
//!   is real-arrival order, so virtual times are not compared across
//!   runs — see OBSERVABILITY.md, "Contended locks".)

use cluster::{
    Cluster, EngineMode, FabricConfig, LinkKind, MembershipPlan, RunReport, ViewChange,
};
use interconnect::fault::{CrashWindow, FaultPlan, LinkFaults};
use interconnect::{MembershipEvent, Resilience};
use memwire::Distribution;
use proptest::prelude::*;

fn fabric(nodes: usize, faults: Option<FaultPlan>) -> FabricConfig {
    let mut b = FabricConfig::builder().nodes(nodes).link(LinkKind::Ethernet);
    if let Some(plan) = faults {
        b = b.chaos(plan).resilience(Resilience::default());
    }
    b.build()
}

/// Run SOR on the software DSM and return the run report plus the
/// checksum every node agreed on.
fn sor_run(nodes: usize, faults: Option<FaultPlan>) -> (RunReport, u64) {
    let cluster = Cluster::new(fabric(nodes, faults));
    let dsm = swdsm::SwDsm::install(&cluster, swdsm::DsmConfig::default());
    let (report, rs) = cluster.run(|ctx| {
        let w = apps::world::NativeWorld::new(dsm.node(ctx));
        apps::sor::sor(&w, 48, 4, true).checksum
    });
    assert!(rs.iter().all(|&c| c == rs[0]), "nodes disagree on checksum: {rs:?}");
    (report, rs[0])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn seeded_fault_plans_converge_and_reproduce(
        seed in any::<u64>(),
        drop_ppm in 0u32..40_000,
        dup_ppm in 0u32..30_000,
        delay_ppm in 0u32..60_000,
        reorder_ppm in 0u32..30_000,
    ) {
        let plan = || {
            let mut p = FaultPlan::seeded(seed);
            p.default_link = LinkFaults {
                drop_ppm,
                dup_ppm,
                delay_ppm,
                delay_ns: 150_000,
                reorder_ppm,
                reorder_window_ns: 80_000,
            };
            p
        };
        let (_, clean) = sor_run(2, None);
        let (r1, c1) = sor_run(2, Some(plan()));
        let (r2, c2) = sor_run(2, Some(plan()));
        // Exactly-once delivery semantics: faults never change results.
        prop_assert_eq!(c1, clean, "chaos checksum diverged from fault-free");
        prop_assert_eq!(c2, clean);
        // Determinism: same seed, same schedule, same virtual history.
        prop_assert_eq!(r1.net_stats, r2.net_stats, "fault schedule not reproducible");
        prop_assert_eq!(r1.sim_time_ns, r2.sim_time_ns, "virtual time not reproducible");
    }
}

/// Slot-sum workload for the churn property: each node writes its own
/// slot, synchronizes through the churn window, and sums every slot.
/// O(nodes) work, so it stays cheap at 64 nodes in debug builds.
fn slot_run(
    nodes: usize,
    engine: EngineMode,
    membership: Option<MembershipPlan>,
) -> (RunReport, Vec<u64>) {
    // The determinism this property asserts only holds below link- and
    // handler-window saturation: a saturated window's slowdown depends
    // on real registration order (see OBSERVABILITY.md). At 64 nodes
    // that takes all three below-saturation conventions at once —
    // Ethernet pinned like the chaos bench, the fanout-4 tree
    // barrier (63 same-instant arrivals saturate a centralized
    // manager's handler window), and rank-rotated reads in the workload
    // (63 simultaneous fetches of one home's page saturate its egress
    // window).
    let sync = cluster::SyncTopology {
        barrier: cluster::BarrierTopology::Tree { fanout: 4 },
        ..cluster::SyncTopology::centralized()
    };
    let mut b = FabricConfig::builder()
        .nodes(nodes)
        .link(LinkKind::Ethernet)
        .cost(sim::CostModel::pinned_ethernet())
        .sync(sync)
        .engine(engine);
    if let Some(plan) = membership {
        b = b.membership(plan);
    }
    let cluster = Cluster::new(b.build());
    let dsm = swdsm::SwDsm::install(&cluster, swdsm::DsmConfig::default());
    cluster.run(|ctx| {
        let node = dsm.node(ctx);
        let me = node.rank();
        let a = node.alloc(nodes * 4096, Distribution::Block);
        node.barrier(1);
        node.write_u64(a.add((me * 4096) as u32), me as u64 + 1);
        // March into the churn window before synchronizing, so absence
        // windows overlap the barrier protocol.
        node.ctx().compute(2_000_000);
        node.barrier(2);
        // Rank-rotated read order spreads the fetch load over homes.
        let sum: u64 = (0..nodes)
            .map(|n| node.read_u64(a.add((((me + n) % nodes) * 4096) as u32)))
            .sum();
        node.barrier(3);
        sum
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    #[test]
    fn membership_churn_preserves_results_and_determinism(
        seed in any::<u64>(),
        cycles in 1usize..4,
    ) {
        for &nodes in &[4usize, 64] {
            let expect = nodes as u64 * (nodes as u64 + 1) / 2;
            // One worker: the real-time schedule furthest from the
            // auto-sized, stealing pool.
            for engine in [EngineMode::default(), EngineMode { workers: 1 }] {
                let plan = || MembershipPlan::churn(seed, nodes, 3_000_000, 12_000_000, cycles);
                let (r1, s1) = slot_run(nodes, engine, Some(plan()));
                let (r2, s2) = slot_run(nodes, engine, Some(plan()));
                // Churn never changes what the program computes.
                prop_assert!(
                    s1.iter().all(|&s| s == expect),
                    "churn changed results at {} nodes under {:?}: {:?}",
                    nodes, engine, &s1[..s1.len().min(8)]
                );
                // Same schedule, same counters, same virtual history.
                prop_assert_eq!(&s1, &s2);
                prop_assert_eq!(
                    r1.net_stats, r2.net_stats,
                    "churn schedule not reproducible at {} nodes under {:?}", nodes, engine
                );
                prop_assert_eq!(
                    r1.sim_time_ns, r2.sim_time_ns,
                    "virtual time not reproducible at {} nodes under {:?}", nodes, engine
                );
            }
        }
    }
}

/// The crash/heal scenario from the issue: a node that manages a
/// barrier crashes before the others arrive; survivors' arrivals fail
/// with `NodeDown`, back off, and succeed after the heal.
#[test]
fn crashed_barrier_manager_heals_and_barrier_completes() {
    const NODES: usize = 3;
    // Node 2 manages barrier 2 (id % nodes). Startup ends at 2 ms; the
    // crash covers [3 ms, 9 ms); the retry schedule (≈35 ms of total
    // backoff) comfortably outlasts it.
    let run = |faults: Option<FaultPlan>| {
        let cluster = Cluster::new(fabric(NODES, faults));
        let dsm = swdsm::SwDsm::install(&cluster, swdsm::DsmConfig::default());
        cluster.run(|ctx| {
            let node = dsm.node(ctx);
            let me = node.rank();
            let a = node.alloc(NODES * 4096, Distribution::Block);
            node.barrier(1);
            node.write_u64(a.add((me * 4096) as u32), (me as u64 + 1) * 100);
            // March every node into the crash window before arriving.
            node.ctx().compute(2_000_000);
            node.barrier(2);
            let sum: u64 = (0..NODES)
                .map(|n| node.read_u64(a.add((n * 4096) as u32)))
                .sum();
            node.barrier(3);
            sum
        })
    };

    let (_, clean) = run(None);
    let mut plan = FaultPlan::seeded(7);
    plan.crashes.push(CrashWindow { node: 2, from_ns: 3_000_000, until_ns: 9_000_000 });
    let (report, rs) = run(Some(plan));

    assert_eq!(rs, clean, "crash/heal changed the computed results");
    assert_eq!(rs, vec![600; NODES]);
    let stat = |k: &str| report.net_stats.get(k).copied().unwrap_or(0);
    assert!(stat("nodedown") > 0, "survivors never observed NodeDown: {:?}", report.net_stats);
    assert!(stat("retries") > 0, "barrier completed without retries: {:?}", report.net_stats);
}

/// A node crashes mid-run, its peers write a *small* amount of state
/// while it is away, and it rejoins through `DsmNode::rejoin`: the
/// adaptive transfer must take the incremental delta path (replayed
/// write notices), not a bulk snapshot, and the rejoined node must read
/// back every missed write.
#[test]
fn crashed_node_rejoins_via_delta_sync_and_completes() {
    const NODES: usize = 3;
    const PAGES: usize = 6; // divergence well below the delta cutoff
    const VICTIM: usize = NODES - 1;
    let plan = MembershipPlan::scripted(
        9,
        vec![
            MembershipEvent {
                node: VICTIM,
                at_ns: 8_000_000,
                change: ViewChange::Leave { graceful: false },
            },
            MembershipEvent { node: VICTIM, at_ns: 14_000_000, change: ViewChange::Recover },
        ],
    );
    let cluster = Cluster::new(
        FabricConfig::builder().nodes(NODES).link(LinkKind::Ethernet).membership(plan).build(),
    );
    let dsm = swdsm::SwDsm::install(
        &cluster,
        swdsm::DsmConfig { delta_max_records: 64, ..Default::default() },
    );
    let (report, rs) = cluster.run(|ctx| {
        let node = dsm.node(ctx);
        let me = node.rank();
        let a = node.alloc(PAGES * 4096, Distribution::Block);
        node.barrier(1);
        for p in 0..PAGES {
            node.read_u64(a.add((p * 4096) as u32)); // warm every cache
        }
        node.barrier(2);
        if me == VICTIM {
            // Absent during [8 ms, 14 ms); rejoin just after recovery.
            let now = node.ctx().clock().now();
            node.ctx().compute(14_500_000u64.saturating_sub(now));
            node.rejoin(3);
        } else {
            // Peers write the victim's missed state inside its absence
            // window, then arrive at the rejoin barrier.
            let now = node.ctx().clock().now();
            node.ctx().compute(8_500_000u64.saturating_sub(now));
            for p in 0..PAGES {
                if p % (NODES - 1) == me {
                    node.write_u64(a.add((p * 4096) as u32), p as u64 + 7);
                }
            }
            node.barrier(3);
        }
        let sum: u64 = (0..PAGES).map(|p| node.read_u64(a.add((p * 4096) as u32))).sum();
        node.barrier(4);
        sum
    });
    let expect: u64 = (0..PAGES).map(|p| p as u64 + 7).sum();
    assert_eq!(rs, vec![expect; NODES], "rejoined node diverged from its peers");
    let vstats = dsm.stats(VICTIM);
    assert_eq!(vstats.get("view_changes"), 1);
    assert!(vstats.get("delta_records") > 0, "rejoin did not take the delta path");
    assert_eq!(vstats.get("snapshot_bytes"), 0, "small divergence must not snapshot-sync");
    let nodedown = report.net_stats.get("nodedown").copied().unwrap_or(0);
    assert!(nodedown > 0, "peer flushes never hit the absence window: {:?}", report.net_stats);
}

/// `TokenQueue` under the chaos bench's fault mix: the MCS token cannot
/// be re-issued, so on the faulty legs the central manager serves the
/// lock (no token is ever forwarded) and must keep a lock-protected
/// counter exact through drops, duplicates, and delays.
#[test]
fn token_queue_locks_survive_chaos() {
    contended_lock_survives_chaos(cluster::LockTopology::TokenQueue);
}

/// The same contention on the centralized lock manager. Both managers
/// hand a released lock over by *posting* the grant; a waiter whose
/// `Queued` reply was lost is meanwhile retrying its request, and a
/// manager that re-granted that retry by reply would leave the posted
/// grant in the mailbox to pass for a grant on the node's next turn —
/// one increment lost, or the last holder never releasing.
#[test]
fn manager_locks_survive_chaos() {
    contended_lock_survives_chaos(cluster::LockTopology::Manager);
}

fn contended_lock_survives_chaos(locks: cluster::LockTopology) {
    const NODES: usize = 4;
    const ROUNDS: u64 = 8;
    let run = |faults: Option<FaultPlan>| {
        let mut sync = cluster::SyncTopology::centralized();
        sync.locks = locks;
        let mut b = FabricConfig::builder().nodes(NODES).link(LinkKind::Ethernet).sync(sync);
        if let Some(plan) = faults {
            b = b.chaos(plan).resilience(Resilience::default());
        }
        let cluster = Cluster::new(b.build());
        let dsm = swdsm::SwDsm::install(&cluster, swdsm::DsmConfig::default());
        let (report, counts) = cluster.run(|ctx| {
            let node = dsm.node(ctx);
            let a = node.alloc(4096, Distribution::Block);
            node.barrier(1);
            for _ in 0..ROUNDS {
                node.acquire(5);
                let v = node.read_u64(a);
                node.write_u64(a, v + 1);
                node.release(5);
            }
            node.barrier(2);
            node.read_u64(a)
        });
        let forwards: u64 = (0..NODES).map(|n| dsm.stats(n).get("token_forwards")).sum();
        (report, counts, forwards)
    };

    let (_, clean, _) = run(None);
    assert_eq!(clean, vec![ROUNDS * NODES as u64; NODES]);
    let plan = || {
        let mut p = FaultPlan::seeded(11);
        p.default_link = LinkFaults {
            drop_ppm: 30_000,
            dup_ppm: 20_000,
            delay_ppm: 50_000,
            delay_ns: 200_000,
            reorder_ppm: 20_000,
            reorder_window_ns: 100_000,
        };
        p
    };
    let (r1, c1, f1) = run(Some(plan()));
    let (r2, c2, f2) = run(Some(plan()));
    assert_eq!(c1, clean, "chaos broke {locks:?} mutual exclusion");
    assert_eq!(c2, clean, "chaos broke {locks:?} mutual exclusion on the rerun");
    assert_eq!((f1, f2), (0, 0), "a resilient fabric's locks are the manager's to serve");
    // No cross-run timing assertions here: this workload *contends* on
    // the lock, and contended grant order follows real message-arrival
    // order (see OBSERVABILITY.md, "Contended locks") — so virtual
    // times can legitimately differ between runs. The content above is
    // the timing-independent part the convention says to assert.
    for r in [&r1, &r2] {
        let retries = r.net_stats.get("retries").copied().unwrap_or(0);
        assert!(retries > 0, "fault mix never exercised the resilient path: {:?}", r.net_stats);
    }
}
