//! End-to-end tests for the hybrid DSM.

use cluster::{Cluster, FabricConfig, LinkKind};
use hybriddsm::{HybridConfig, HybridDsm};
use memwire::{Access, Distribution, Engine};

fn cluster(nodes: usize) -> (Cluster, std::sync::Arc<HybridDsm>) {
    let c = Cluster::new(FabricConfig::builder().nodes(nodes).link(LinkKind::Sci).build());
    let dsm = HybridDsm::install(&c, HybridConfig::default());
    (c, dsm)
}

fn cluster_uncached(nodes: usize) -> (Cluster, std::sync::Arc<HybridDsm>) {
    let c = Cluster::new(FabricConfig::builder().nodes(nodes).link(LinkKind::Sci).build());
    let cfg = HybridConfig { cache_remote_reads: false, ..HybridConfig::default() };
    let dsm = HybridDsm::install(&c, cfg);
    (c, dsm)
}

#[test]
fn remote_writes_visible_after_barrier() {
    let (c, dsm) = cluster(4);
    let (_, results) = c.run(|ctx| {
        let node = dsm.node(ctx);
        let a = node.alloc(4096, Distribution::Block);
        if node.rank() == 2 {
            node.write_u64(a, 99);
        }
        node.barrier(1);
        node.read_u64(a)
    });
    assert_eq!(results, vec![99; 4]);
}

#[test]
fn no_invalidation_needed_between_updates() {
    // Unlike the software DSM, there is no cached copy: a second read
    // sees the new value after synchronization with no refetch protocol.
    let (c, dsm) = cluster(2);
    let (_, results) = c.run(|ctx| {
        let node = dsm.node(ctx);
        let a = node.alloc(4096, Distribution::OnNode(0));
        node.barrier(1);
        if node.rank() == 0 {
            node.write_u64(a, 1);
            node.barrier(2);
            node.barrier(3);
            0
        } else {
            node.barrier(2);
            let first = node.read_u64(a);
            node.barrier(3);
            first
        }
    });
    assert_eq!(results[1], 1);
}

#[test]
fn lock_protected_counter_is_exact() {
    let (c, dsm) = cluster(4);
    let (_, results) = c.run(|ctx| {
        let node = dsm.node(ctx);
        let a = node.alloc(4096, Distribution::Block);
        node.barrier(1);
        for _ in 0..25 {
            node.acquire(3);
            let v = node.read_u64(a);
            node.write_u64(a, v + 1);
            node.release(3);
        }
        node.barrier(2);
        node.read_u64(a)
    });
    assert_eq!(results, vec![100; 4]);
}

#[test]
fn lock_protocol_follows_the_sync_setting() {
    // The same contended counter under the central manager and under
    // the token queue. The manager answers one request per acquire; the
    // token queue travels by posts only, so the fabric sees no request
    // at all (the barriers are posts too on a fabric that loses nothing).
    let token_queue = cluster::SyncTopology {
        locks: cluster::LockTopology::TokenQueue,
        ..cluster::SyncTopology::centralized()
    };
    for (sync, requests) in [(cluster::SyncTopology::centralized(), 4 * 25), (token_queue, 0)] {
        let c = Cluster::new(FabricConfig::builder().nodes(4).link(LinkKind::Sci).sync(sync).build());
        let dsm = HybridDsm::install(&c, HybridConfig::default());
        let (report, results) = c.run(|ctx| {
            let node = dsm.node(ctx);
            let a = node.alloc(4096, Distribution::Block);
            node.barrier(1);
            for _ in 0..25 {
                node.acquire(3);
                let v = node.read_u64(a);
                node.write_u64(a, v + 1);
                node.release(3);
            }
            node.barrier(2);
            node.read_u64(a)
        });
        assert_eq!(results, vec![100; 4], "{sync:?}");
        assert_eq!(report.net_stats["requests"], requests, "{sync:?}");
    }
}

#[test]
fn remote_element_access_costs_san_latency() {
    let (c, dsm) = cluster_uncached(2);
    let (_, times) = c.run(|ctx| {
        let node = dsm.node(ctx);
        let a = node.alloc(4096, Distribution::OnNode(0));
        node.barrier(1);
        let t0 = node.ctx().clock().now();
        if node.rank() == 1 {
            for i in 0..100 {
                let _ = node.read_u64(a.add(i * 8));
            }
        }
        node.ctx().clock().now() - t0
    });
    // 100 remote reads at 3.5 µs each.
    assert!(times[1] >= 100 * 3_000, "remote reads too cheap: {}", times[1]);
    assert!(times[1] < 100 * 3_500 + 500_000, "remote reads too dear: {}", times[1]);
}

#[test]
fn posted_writes_cheaper_than_reads() {
    let (c, dsm) = cluster_uncached(2);
    let (_, times) = c.run(|ctx| {
        let node = dsm.node(ctx);
        let a = node.alloc(4096, Distribution::OnNode(0));
        node.barrier(1);
        let mut write_ns = 0;
        let mut read_ns = 0;
        if node.rank() == 1 {
            let t0 = node.ctx().clock().now();
            for i in 0..100 {
                node.write_u64(a.add(i * 8), i as u64);
            }
            write_ns = node.ctx().clock().now() - t0;
            let t1 = node.ctx().clock().now();
            for i in 0..100 {
                let _ = node.read_u64(a.add(i * 8));
            }
            read_ns = node.ctx().clock().now() - t1;
        }
        node.barrier(2);
        (write_ns, read_ns)
    });
    let (w, r) = times[1];
    assert!(w * 3 < r, "posted writes ({w}) should be far cheaper than reads ({r})");
}

#[test]
fn write_only_init_is_cheap_compared_to_swdsm() {
    // The paper's LU observation: write-only initialization of remote
    // memory is cheap on the hybrid DSM. 64 KiB of remote bulk writes
    // must cost well under 10 ms (on the software DSM the same pattern
    // costs tens of page fetches at ~0.5 ms each plus diffs).
    let (c, dsm) = cluster(2);
    let (_, times) = c.run(|ctx| {
        let node = dsm.node(ctx);
        let a = node.alloc(64 * 1024, Distribution::OnNode(0));
        node.barrier(1);
        let t0 = node.ctx().clock().now();
        if node.rank() == 1 {
            let chunk = vec![7u8; 4096];
            for i in 0..16 {
                node.write_bytes(a.add(i * 4096), &chunk);
            }
        }
        node.barrier(2);
        node.ctx().clock().now() - t0
    });
    assert!(times[1] < 10_000_000, "init too slow: {} ns", times[1]);
}

#[test]
fn stats_track_access_mix() {
    let (c, dsm) = cluster_uncached(2);
    let (_, _) = c.run(|ctx| {
        let node = dsm.node(ctx);
        let a = node.alloc(8192, Distribution::OnNode(0));
        node.barrier(1);
        if node.rank() == 1 {
            node.write_u64(a, 1);
            let _ = node.read_u64(a);
            let mut buf = vec![0u8; 4096];
            node.read_bytes(a, &mut buf);
        } else {
            let _ = node.read_u64(a);
        }
        node.barrier(2);
    });
    let s1 = dsm.stats(1).snapshot();
    assert_eq!(s1["remote_writes"], 1);
    assert_eq!(s1["remote_reads"], 2);
    assert_eq!(s1["bulk_bytes"], 4096);
    assert!(s1["flushes"] >= 1);
    let s0 = dsm.stats(0).snapshot();
    assert_eq!(s0["local_reads"], 1);
}

#[test]
fn concurrent_writers_to_disjoint_words() {
    let (c, dsm) = cluster(4);
    let (_, results) = c.run(|ctx| {
        let node = dsm.node(ctx);
        let a = node.alloc(4096, Distribution::OnNode(0));
        node.barrier(1);
        node.write_u64(a.add(node.rank() as u32 * 8), node.rank() as u64 + 10);
        node.barrier(2);
        (0..4).map(|i| node.read_u64(a.add(i * 8))).collect::<Vec<_>>()
    });
    for r in results {
        assert_eq!(r, vec![10, 11, 12, 13]);
    }
}

#[test]
fn remote_read_cache_makes_rereads_cheap() {
    let (c, dsm) = cluster(2);
    let (_, times) = c.run(|ctx| {
        let node = dsm.node(ctx);
        let a = node.alloc(4096, memwire::Distribution::OnNode(0));
        node.barrier(1);
        let mut cold = 0;
        let mut warm = 0;
        if node.rank() == 1 {
            let mut buf = vec![0u8; 4096];
            let t0 = node.ctx().clock().now();
            node.read_bytes(a, &mut buf);
            cold = node.ctx().clock().now() - t0;
            let t1 = node.ctx().clock().now();
            node.read_bytes(a, &mut buf);
            warm = node.ctx().clock().now() - t1;
        }
        node.barrier(2);
        (cold, warm)
    });
    let (cold, warm) = times[1];
    assert!(warm * 5 < cold, "cached re-read not cheaper: cold={cold} warm={warm}");
}

#[test]
fn cache_invalidated_by_synchronization() {
    let (c, dsm) = cluster(2);
    let (_, results) = c.run(|ctx| {
        let node = dsm.node(ctx);
        let a = node.alloc(4096, memwire::Distribution::OnNode(0));
        node.barrier(1);
        if node.rank() == 1 {
            let first = node.read_u64(a); // caches the line
            node.barrier(2);
            node.barrier(3);
            // The barrier dropped the cache; this read must see node
            // 0's new value (it always would in the store, but the
            // cost model must also refetch).
            let before = dsm.stats(1).get("remote_reads");
            let second = node.read_u64(a);
            let after = dsm.stats(1).get("remote_reads");
            (first, second, after - before)
        } else {
            node.barrier(2);
            node.write_u64(a, 9);
            node.barrier(3);
            (0, 0, 0)
        }
    });
    assert_eq!(results[1].0, 0);
    assert_eq!(results[1].1, 9);
    assert_eq!(results[1].2, 1, "read after barrier must miss the cache");
}

#[test]
fn shared_locks_allow_concurrent_readers() {
    let (c, dsm) = cluster(4);
    let (_, entries) = c.run(|ctx| {
        let node = dsm.node(ctx);
        node.barrier(1);
        node.acquire_shared(6);
        let t = node.ctx().clock().now();
        node.ctx().compute(1_000_000);
        node.release(6);
        node.barrier(2);
        t
    });
    let spread = entries.iter().max().unwrap() - entries.iter().min().unwrap();
    assert!(spread < 500_000, "readers should enter together, spread {spread}");
}

#[test]
fn writer_waits_for_reader_batch() {
    let (c, dsm) = cluster(3);
    let (_, results) = c.run(|ctx| {
        let node = dsm.node(ctx);
        let a = node.alloc(64, memwire::Distribution::OnNode(0));
        node.barrier(1);
        if node.rank() == 0 {
            // The writer increments under an exclusive hold.
            node.acquire(6);
            let v = node.read_u64(a);
            node.ctx().compute(100_000);
            node.write_u64(a, v + 1);
            node.release(6);
        } else {
            // Readers hold shared and only read.
            node.acquire_shared(6);
            let _ = node.read_u64(a);
            node.ctx().compute(100_000);
            node.release(6);
        }
        node.barrier(2);
        node.read_u64(a)
    });
    assert_eq!(results, vec![1, 1, 1]);
}

#[test]
fn tree_barrier_heals_lost_release_waves() {
    // Mirror of the swdsm heal test for the hybrid tree barrier: with
    // the root's downlinks and one uplink lossy, lost aggregates and
    // waves must heal through client retries of the TREE_AGG exchange.
    // Barrier ids here start at 1, so the tree roots at node 1 (1 % 4)
    // and its lossy edges are (1, 2), (1, 3) down and (2, 1) up.
    use interconnect::fault::{FaultPlan, LinkFaults, RetryPolicy};
    let lossy = LinkFaults { drop_ppm: 300_000, ..LinkFaults::default() };
    let mut plan = FaultPlan::seeded(11);
    plan.per_link = vec![((1, 2), lossy), ((1, 3), lossy), ((2, 1), lossy)];
    let sync = cluster::SyncTopology {
        barrier: cluster::BarrierTopology::Tree { fanout: 2 },
        locks: cluster::LockTopology::Manager,
        notices: cluster::NoticeWire::Explicit,
    };
    let c = Cluster::new(
        FabricConfig::builder()
            .nodes(4)
            .link(LinkKind::Ethernet)
            .sync(sync)
            .chaos(plan)
            .resilience(interconnect::Resilience {
                retry: RetryPolicy { max_attempts: 24, ..RetryPolicy::default() },
                ..interconnect::Resilience::default()
            })
            .build(),
    );
    let dsm = HybridDsm::install(&c, HybridConfig::default());
    let (report, vals) = c.run(|ctx| {
        let node = dsm.node(ctx);
        let a = node.alloc(4 * 8, Distribution::OnNode(0));
        node.barrier(1);
        for round in 0..6u64 {
            node.write_u64(a.add(node.rank() as u32 * 8), round * 100 + node.rank() as u64);
            node.barrier(1);
        }
        (0..4u32).map(|r| node.read_u64(a.add(r * 8))).collect::<Vec<_>>()
    });
    for (rank, vs) in vals.iter().enumerate() {
        assert_eq!(vs, &[500, 501, 502, 503], "rank {rank} read a stale grid");
    }
    let stat = |k: &str| report.net_stats.get(k).copied().unwrap_or(0);
    assert!(stat("faults_dropped") > 0, "the plan never dropped anything");
    assert!(stat("retries") > 0, "lost tree traffic was never retried");
}
