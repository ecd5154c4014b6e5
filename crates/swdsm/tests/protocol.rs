//! End-to-end protocol tests for the software DSM: real node threads,
//! real messages, virtual time.

use cluster::{Cluster, FabricConfig, LinkKind};
use memwire::Distribution;
use swdsm::{DsmConfig, SwDsm};

fn cluster(nodes: usize) -> (Cluster, std::sync::Arc<SwDsm>) {
    let c = Cluster::new(FabricConfig::builder().nodes(nodes).link(LinkKind::Ethernet).build());
    let dsm = SwDsm::install(&c, DsmConfig::default());
    (c, dsm)
}

fn cluster_with(nodes: usize, cfg: DsmConfig) -> (Cluster, std::sync::Arc<SwDsm>) {
    let c = Cluster::new(FabricConfig::builder().nodes(nodes).link(LinkKind::Ethernet).build());
    let dsm = SwDsm::install(&c, cfg);
    (c, dsm)
}

fn cluster_sync(nodes: usize, sync: cluster::SyncTopology) -> (Cluster, std::sync::Arc<SwDsm>) {
    let c = Cluster::new(
        FabricConfig::builder().nodes(nodes).link(LinkKind::Ethernet).sync(sync).build(),
    );
    let dsm = SwDsm::install(&c, DsmConfig::default());
    (c, dsm)
}

#[test]
fn barrier_makes_writes_visible() {
    let (c, dsm) = cluster(4);
    let (_, results) = c.run(|ctx| {
        let node = dsm.node(ctx);
        let a = node.alloc(4096, Distribution::Block);
        if node.rank() == 0 {
            node.write_u64(a, 0xCAFE);
        }
        node.barrier(1);
        node.read_u64(a)
    });
    assert_eq!(results, vec![0xCAFE; 4]);
}

#[test]
fn written_value_stays_zero_before_any_writer() {
    let (c, dsm) = cluster(2);
    let (_, results) = c.run(|ctx| {
        let node = dsm.node(ctx);
        let a = node.alloc(8192, Distribution::Cyclic);
        node.barrier(1);
        node.read_u64(a.add(4096))
    });
    assert_eq!(results, vec![0, 0]);
}

#[test]
fn lock_protected_counter_is_exact() {
    const PER_NODE: u64 = 10;
    let (c, dsm) = cluster(4);
    let (_, results) = c.run(|ctx| {
        let node = dsm.node(ctx);
        let a = node.alloc(4096, Distribution::Block);
        node.barrier(1);
        for _ in 0..PER_NODE {
            node.acquire(9);
            let v = node.read_u64(a);
            node.write_u64(a, v + 1);
            node.release(9);
        }
        node.barrier(2);
        node.read_u64(a)
    });
    assert_eq!(results, vec![4 * PER_NODE; 4]);
}

#[test]
fn lock_grant_carries_notices_without_barrier() {
    // Producer/consumer through a lock only: scope consistency must make
    // the producer's write visible to the consumer at acquire time.
    let (c, dsm) = cluster(2);
    let (_, results) = c.run(|ctx| {
        let node = dsm.node(ctx);
        let a = node.alloc(4096, Distribution::OnNode(0));
        node.barrier(1);
        if node.rank() == 1 {
            node.acquire(3);
            node.write_u64(a.add(8), 77);
            node.release(3);
            node.barrier(2);
            0
        } else {
            node.barrier(2);
            node.acquire(3);
            let v = node.read_u64(a.add(8));
            node.release(3);
            v
        }
    });
    assert_eq!(results[0], 77);
}

#[test]
fn multiple_writers_on_one_page_merge() {
    // Classic false-sharing scenario: all four nodes write disjoint
    // quarters of the same page between two barriers.
    let (c, dsm) = cluster(4);
    let (_, results) = c.run(|ctx| {
        let node = dsm.node(ctx);
        let a = node.alloc(4096, Distribution::OnNode(0));
        node.barrier(1);
        let mine = a.add(node.rank() as u32 * 1024);
        node.write_bytes(mine, &[node.rank() as u8 + 1; 1024]);
        node.barrier(2);
        let mut all = vec![0u8; 4096];
        node.read_bytes(a, &mut all);
        all
    });
    for r in &results {
        for q in 0..4 {
            assert!(
                r[q * 1024..(q + 1) * 1024].iter().all(|&b| b == q as u8 + 1),
                "quarter {q} lost"
            );
        }
    }
}

#[test]
fn stale_copies_are_invalidated_and_refetched() {
    let (c, dsm) = cluster(2);
    let (_, results) = c.run(|ctx| {
        let node = dsm.node(ctx);
        let a = node.alloc(4096, Distribution::OnNode(0));
        node.barrier(1);
        if node.rank() == 1 {
            let first = node.read_u64(a); // caches the page
            node.barrier(2);
            node.barrier(3);
            let second = node.read_u64(a); // must be refetched
            (first, second)
        } else {
            node.barrier(2);
            node.write_u64(a, 5);
            node.barrier(3);
            (0, 0)
        }
    });
    assert_eq!(results[1], (0, 5));
    assert!(dsm.stats(1).get("invalidations") >= 1);
    assert!(dsm.stats(1).get("getpages") >= 2);
}

#[test]
fn treadmarks_style_local_alloc_and_adopt() {
    let (c, dsm) = cluster(3);
    let (_, results) = c.run(|ctx| {
        let node = dsm.node(ctx);
        // Rank 0 allocates locally, writes, then everyone learns the
        // address out of band (the model layer's distribute routine).
        let a = if node.rank() == 0 {
            let a = node.alloc_local(4096);
            node.write_u64(a, 123);
            a
        } else {
            memwire::GlobalAddr::new(1 << 24, 0)
        };
        node.adopt(a, 4096, 0);
        node.barrier(1);
        node.read_u64(a)
    });
    assert_eq!(results, vec![123; 3]);
}

#[test]
fn whole_page_writeback_mode_is_correct_but_heavier() {
    let run = |cfg: DsmConfig| {
        let (c, dsm) = cluster_with(2, cfg);
        let (_, results) = c.run(|ctx| {
            let node = dsm.node(ctx);
            let a = node.alloc(4096, Distribution::OnNode(1));
            node.barrier(1);
            if node.rank() == 0 {
                node.write_u64(a, 42);
            }
            node.barrier(2);
            node.read_u64(a)
        });
        let bytes = dsm.stats(0).get("diff_bytes");
        (results, bytes)
    };
    let (vals_diff, bytes_diff) = run(DsmConfig::default());
    let (vals_page, bytes_page) =
        run(DsmConfig { whole_page_writeback: true, ..DsmConfig::default() });
    assert_eq!(vals_diff, vec![42, 42]);
    assert_eq!(vals_page, vec![42, 42]);
    assert!(
        bytes_page > 10 * bytes_diff.max(1),
        "whole-page write-back should ship far more bytes ({bytes_page} vs {bytes_diff})"
    );
}

#[test]
fn conservative_lock_mode_still_correct() {
    let cfg = DsmConfig { notices_on_locks: false, ..DsmConfig::default() };
    let (c, dsm) = cluster_with(3, cfg);
    let (_, results) = c.run(|ctx| {
        let node = dsm.node(ctx);
        let a = node.alloc(4096, Distribution::Block);
        node.barrier(1);
        for _ in 0..5 {
            node.acquire(1);
            let v = node.read_u64(a);
            node.write_u64(a, v + 1);
            node.release(1);
        }
        node.barrier(2);
        node.read_u64(a)
    });
    assert_eq!(results, vec![15; 3]);
}

#[test]
fn remote_fetch_costs_ethernet_scale_time() {
    let (c, dsm) = cluster(2);
    let (report, _) = c.run(|ctx| {
        let node = dsm.node(ctx);
        let a = node.alloc(4096, Distribution::OnNode(0));
        node.barrier(1);
        if node.rank() == 1 {
            node.read_u64(a); // one remote page fetch
        }
        node.barrier(2);
    });
    // A page fetch over Fast Ethernet is several hundred µs; with two
    // barriers the run must exceed 1 ms of virtual time.
    assert!(report.sim_time_ns > 1_000_000, "got {}", report.sim_time_ns);
}

#[test]
fn block_vs_cyclic_homes_differ() {
    let (c, dsm) = cluster(4);
    let (_, _) = c.run(|ctx| {
        let node = dsm.node(ctx);
        let a_block = node.alloc(16 * 4096, Distribution::Block);
        let a_cyc = node.alloc(16 * 4096, Distribution::Cyclic);
        node.barrier(1);
        if node.rank() == 0 {
            let db = node.dsm();
            assert_eq!(db.home_of(a_block.page()), 0);
            assert_eq!(db.home_of(a_block.add(15 * 4096).page()), 3);
            assert_eq!(db.home_of(a_cyc.add(4096).page()), 1);
            assert_eq!(db.home_of(a_cyc.add(5 * 4096).page()), 1);
        }
    });
}

#[test]
fn stats_reflect_protocol_activity() {
    let (c, dsm) = cluster(2);
    let (_, _) = c.run(|ctx| {
        let node = dsm.node(ctx);
        let a = node.alloc(4096, Distribution::OnNode(0));
        node.barrier(1);
        if node.rank() == 1 {
            node.write_u64(a, 1); // fetch + twin
        }
        node.barrier(2);
    });
    let s1 = dsm.stats(1).snapshot();
    assert_eq!(s1["getpages"], 1);
    assert_eq!(s1["twins"], 1);
    assert!(s1["diffs"] >= 1);
    assert!(s1["barriers"] >= 2);
    assert!(s1["traps"] >= 1);
}

#[test]
fn access_straddling_a_home_and_a_cached_page_counts_once_per_access() {
    // Cyclic homes: page 0 on node 0, page 1 on node 1. Node 0 caches
    // page 1, then writes and reads 16 bytes across the boundary: each
    // access is one read or write, and only the cached half traps and
    // twins (once), whichever half the access starts in.
    const COUNTED: [&str; 5] = ["reads", "writes", "traps", "twins", "getpages"];
    let (c, dsm) = cluster(2);
    let (_, results) = c.run(|ctx| {
        let node = dsm.node(ctx);
        let a = node.alloc(2 * 4096, Distribution::Cyclic);
        node.barrier(1);
        let mut counts = Vec::new();
        let mut back = [0u8; 16];
        if node.rank() == 0 {
            let snap = || {
                let s = dsm.stats(0).snapshot();
                COUNTED.map(|name| s[name])
            };
            node.read_u64(a.add(4096));
            counts.push(snap());
            node.write_bytes(a.add(4088), &[7; 16]);
            counts.push(snap());
            node.read_bytes(a.add(4088), &mut back);
            counts.push(snap());
        }
        node.barrier(2);
        let mut seen = [0u8; 16];
        node.read_bytes(a.add(4088), &mut seen);
        (counts, back, seen)
    });
    // reads, writes, traps, twins, getpages after each access.
    assert_eq!(results[0].0, vec![[1, 0, 1, 0, 1], [1, 1, 2, 1, 1], [2, 1, 2, 1, 1]]);
    assert_eq!(results[0].1, [7; 16]);
    assert!(results.iter().all(|r| r.2 == [7; 16]), "the write reaches both homes");
}

#[test]
fn queued_locks_serialize_in_virtual_time() {
    let (c, dsm) = cluster(4);
    let (_, times) = c.run(|ctx| {
        let node = dsm.node(ctx);
        node.barrier(1);
        node.acquire(5);
        let t_in = node.ctx().clock().now();
        node.ctx().compute(1_000_000); // 1 ms critical section
        node.release(5);
        node.barrier(2);
        t_in
    });
    let mut sorted = times.clone();
    sorted.sort();
    // Entry times must be spread by at least the critical-section length.
    for w in sorted.windows(2) {
        assert!(w[1] >= w[0] + 1_000_000, "critical sections overlap: {times:?}");
    }
}

#[test]
fn bulk_write_spanning_pages() {
    let (c, dsm) = cluster(2);
    let (_, results) = c.run(|ctx| {
        let node = dsm.node(ctx);
        let a = node.alloc(3 * 4096, Distribution::OnNode(0));
        node.barrier(1);
        if node.rank() == 1 {
            // Write 10 KiB straddling three pages, remote home.
            let data: Vec<u8> = (0..10_240).map(|i| (i % 251) as u8).collect();
            node.write_bytes(a.add(100), &data);
        }
        node.barrier(2);
        let mut out = vec![0u8; 10_240];
        node.read_bytes(a.add(100), &mut out);
        out.iter().enumerate().all(|(i, &b)| b == (i % 251) as u8)
    });
    assert_eq!(results, vec![true, true]);
}

#[test]
fn bounded_cache_evicts_and_stays_correct() {
    // A 4-page cache forced to walk a 16-page remote region: every page
    // still reads back correctly, and evictions actually happen.
    let cfg = DsmConfig { cache_pages: 4, ..DsmConfig::default() };
    let (c, dsm) = cluster_with(2, cfg);
    let (_, results) = c.run(|ctx| {
        let node = dsm.node(ctx);
        let a = node.alloc(16 * 4096, Distribution::OnNode(0));
        node.barrier(1);
        if node.rank() == 1 {
            // Write a marker into every page (dirty evictions), then
            // read them all back (clean evictions + refetches).
            for p in 0..16u32 {
                node.write_u64(a.add(p * 4096), p as u64 + 100);
            }
            let mut sum = 0;
            for p in 0..16u32 {
                sum += node.read_u64(a.add(p * 4096));
            }
            node.barrier(2);
            sum
        } else {
            node.barrier(2);
            (0..16u32).map(|p| node.read_u64(a.add(p * 4096))).sum()
        }
    });
    let expect: u64 = (0..16).map(|p| p + 100).sum();
    assert_eq!(results, vec![expect, expect]);
    assert!(dsm.stats(1).get("evictions") >= 12, "cache bound not enforced");
}

#[test]
fn dirty_eviction_preserves_writes() {
    // Evicting a dirty page must push its diff home first.
    let cfg = DsmConfig { cache_pages: 2, ..DsmConfig::default() };
    let (c, dsm) = cluster_with(2, cfg);
    let (_, results) = c.run(|ctx| {
        let node = dsm.node(ctx);
        let a = node.alloc(8 * 4096, Distribution::OnNode(0));
        node.barrier(1);
        if node.rank() == 1 {
            for p in 0..8u32 {
                node.write_u64(a.add(p * 4096), p as u64 + 1);
            }
        }
        // No explicit flush beyond the barrier: evicted dirty pages must
        // already have shipped their diffs; the barrier ships the rest.
        node.barrier(2);
        (0..8u32).map(|p| node.read_u64(a.add(p * 4096))).sum::<u64>()
    });
    assert_eq!(results, vec![36, 36]);
}

#[test]
fn home_migration_moves_pages_to_their_writer() {
    let cfg = DsmConfig { home_migration: true, migration_threshold: 2, ..Default::default() };
    let (c, dsm) = cluster_with(2, cfg);
    let (_, results) = c.run(|ctx| {
        let node = dsm.node(ctx);
        // Page homed on node 0, but node 1 writes it every epoch.
        let a = node.alloc(4096, Distribution::OnNode(0));
        node.barrier(1);
        for round in 0..5u64 {
            if node.rank() == 1 {
                node.write_u64(a, round + 1);
            }
            node.barrier(2);
        }
        node.read_u64(a)
    });
    assert_eq!(results, vec![5, 5]);
    // After two same-writer diffs, the page's home moved to node 1.
    assert_eq!(dsm.home_of(memwire::GlobalAddr::new(1, 0).page().base().page()), 1);
    assert!(dsm.stats(1).get("migrations") >= 1);
}

#[test]
fn migration_reduces_diff_traffic_for_misplaced_pages() {
    let run = |migrate: bool| {
        let cfg = DsmConfig { home_migration: migrate, ..Default::default() };
        let (c, dsm) = cluster_with(2, cfg);
        let (report, _) = c.run(|ctx| {
            let node = dsm.node(ctx);
            let a = node.alloc(8 * 4096, Distribution::OnNode(0));
            node.barrier(1);
            for round in 0..12u64 {
                if node.rank() == 1 {
                    // Node 1 rewrites all 8 remotely homed pages.
                    for p in 0..8u32 {
                        node.write_bytes(
                            a.add(p * 4096),
                            &[round as u8 + 1; 2048],
                        );
                    }
                }
                node.barrier(2);
            }
        });
        (report.sim_time_ns, dsm.stats(1).get("diff_bytes"))
    };
    let (t_static, bytes_static) = run(false);
    let (t_migrate, bytes_migrate) = run(true);
    assert!(
        bytes_migrate * 2 < bytes_static,
        "migration should slash diff traffic: {bytes_migrate} vs {bytes_static}"
    );
    assert!(t_migrate < t_static, "migration should pay off in time");
}

#[test]
fn migration_keeps_results_correct_under_alternating_writers() {
    // Writers alternate, so migration may bounce a page around; the data
    // must stay exact regardless.
    let cfg = DsmConfig { home_migration: true, migration_threshold: 2, ..Default::default() };
    let (c, dsm) = cluster_with(3, cfg);
    let (_, results) = c.run(|ctx| {
        let node = dsm.node(ctx);
        let a = node.alloc(4096, Distribution::OnNode(0));
        node.barrier(1);
        for round in 0..9u64 {
            if node.rank() == (round % 3) as usize {
                let v = node.read_u64(a);
                node.write_u64(a, v + round);
            }
            node.barrier(2);
        }
        node.read_u64(a)
    });
    let expect: u64 = (0..9).sum();
    assert_eq!(results, vec![expect; 3]);
}

#[test]
fn staggered_lock_requests_serialize_completely() {
    // With requests staggered in virtual time and a long hold, every
    // critical section must be disjoint. (Grant *order* is not a
    // simulator invariant: the manager decides eagerly, so a release
    // that reaches it before a virtually-earlier request was even sent
    // grants whoever is present — inherent to virtual-time simulation
    // without conservative lookahead.)
    let (c, dsm) = cluster(4);
    let (_, entries) = c.run(|ctx| {
        let node = dsm.node(ctx);
        node.barrier(1);
        node.ctx().compute(node.rank() as u64 * 5_000_000);
        node.acquire(7);
        let t = node.ctx().clock().now();
        node.ctx().compute(20_000_000); // hold long enough to queue everyone
        node.release(7);
        node.barrier(2);
        t
    });
    // Which waiter wins a race between a release and a not-yet-sent
    // (but virtually earlier) request depends on eager manager
    // decisions — only full serialization is an invariant.
    let mut sorted = entries.clone();
    sorted.sort();
    for w in sorted.windows(2) {
        assert!(w[1] >= w[0] + 20_000_000, "critical sections overlap: {entries:?}");
    }
}

#[test]
fn barriers_distribute_across_manager_nodes() {
    // Different barrier ids are managed by different nodes (id % n);
    // exercise several concurrently and check they stay independent.
    let (c, dsm) = cluster(3);
    let (_, results) = c.run(|ctx| {
        let node = dsm.node(ctx);
        let a = node.alloc(3 * 4096, Distribution::Cyclic);
        node.barrier(1);
        for round in 0..3u64 {
            node.write_u64(a.add(node.rank() as u32 * 4096), round + 1);
            // Rotate through barrier ids 10, 11, 12 (managers 1, 2, 0).
            node.barrier(10 + round as u32);
        }
        (0..3).map(|n| node.read_u64(a.add(n * 4096))).sum::<u64>()
    });
    assert_eq!(results, vec![9, 9, 9]);
}

#[test]
fn eviction_and_migration_compose() {
    // A tiny cache plus home migration: pages bounce and evict without
    // losing data.
    let cfg = DsmConfig {
        cache_pages: 2,
        home_migration: true,
        migration_threshold: 2,
        ..Default::default()
    };
    let (c, dsm) = cluster_with(2, cfg);
    let (_, results) = c.run(|ctx| {
        let node = dsm.node(ctx);
        let a = node.alloc(6 * 4096, Distribution::OnNode(0));
        node.barrier(1);
        for round in 0..6u64 {
            if node.rank() == 1 {
                for p in 0..6u32 {
                    let addr = a.add(p * 4096);
                    let v = node.read_u64(addr);
                    node.write_u64(addr, v + round + p as u64);
                }
            }
            node.barrier(2);
        }
        (0..6u32).map(|p| node.read_u64(a.add(p * 4096))).sum::<u64>()
    });
    // Each page accumulates sum(round) + 6*p = 15 + 6p.
    let expect: u64 = (0..6).map(|p| 15 + 6 * p).sum();
    assert_eq!(results, vec![expect, expect]);
}

#[test]
fn adopt_is_idempotent_across_nodes() {
    let (c, dsm) = cluster(3);
    let (_, results) = c.run(|ctx| {
        let node = dsm.node(ctx);
        let a = if node.rank() == 1 {
            let a = node.alloc_local(4096);
            node.write_u64(a, 9);
            a
        } else {
            memwire::GlobalAddr::new((1 << 24) * 2, 0)
        };
        // Everyone adopts, including the allocator itself, twice.
        node.adopt(a, 4096, 1);
        node.adopt(a, 4096, 1);
        node.barrier(1);
        node.read_u64(a)
    });
    assert_eq!(results, vec![9, 9, 9]);
}

#[test]
fn exit_flushes_final_interval() {
    let (c, dsm) = cluster(2);
    let (_, _) = c.run(|ctx| {
        let node = dsm.node(ctx);
        let a = node.alloc(4096, Distribution::OnNode(0));
        node.barrier(1);
        if node.rank() == 1 {
            node.write_u64(a, 31);
        }
        node.exit();
        // After exit, the home (node 0) must hold the write.
        if node.rank() == 0 {
            assert_eq!(node.read_u64(a), 31);
        }
    });
}

#[test]
fn tree_barrier_is_correct_across_shapes() {
    // Every fanout/size combination must behave exactly like the
    // central barrier: all writes visible after the wave.
    for (nodes, spec) in
        [(2usize, "tree:2"), (5, "tree:2"), (7, "tree:3"), (9, "tree"), (16, "tree:4")]
    {
        let (c, dsm) = cluster_sync(nodes, spec.parse().unwrap());
        let (_, results) = c.run(|ctx| {
            let node = dsm.node(ctx);
            let a = node.alloc(nodes * 4096, Distribution::Cyclic);
            node.barrier(1);
            for round in 0..3u64 {
                node.write_u64(a.add(node.rank() as u32 * 4096), round + 1);
                node.barrier(2);
                let sum: u64 =
                    (0..nodes).map(|n| node.read_u64(a.add(n as u32 * 4096))).sum();
                assert_eq!(sum, (round + 1) * nodes as u64, "{spec} x{nodes} round {round}");
                node.barrier(3);
            }
            node.read_u64(a)
        });
        assert_eq!(results, vec![3; nodes], "{spec} x{nodes}");
    }
}

#[test]
fn tree_barrier_message_volume_is_linear() {
    // One tree barrier costs exactly 2(n-1) cross-node messages:
    // n-1 aggregations up plus n-1 release waves down.
    for nodes in [4usize, 8, 13] {
        let (c, dsm) = cluster_sync(nodes, "tree:2".parse().unwrap());
        let (_, _) = c.run(|ctx| {
            let node = dsm.node(ctx);
            node.barrier(1);
        });
        let msgs: u64 = (0..nodes).map(|n| dsm.stats(n).get("sync_msgs")).sum();
        assert_eq!(msgs, 2 * (nodes as u64 - 1), "{nodes} nodes");
        let waves: u64 = (0..nodes).map(|n| dsm.stats(n).get("tree_waves")).sum();
        assert_eq!(waves, nodes as u64 - 1);
    }
}

#[test]
fn token_queue_lock_counter_is_exact() {
    const PER_NODE: u64 = 8;
    let sync = cluster::SyncTopology {
        locks: cluster::LockTopology::TokenQueue,
        ..cluster::SyncTopology::centralized()
    };
    for nodes in [2usize, 3, 5] {
        let (c, dsm) = cluster_sync(nodes, sync);
        let (_, results) = c.run(|ctx| {
            let node = dsm.node(ctx);
            let a = node.alloc(4096, Distribution::Block);
            node.barrier(1);
            for _ in 0..PER_NODE {
                node.acquire(9);
                let v = node.read_u64(a);
                node.write_u64(a, v + 1);
                node.release(9);
            }
            node.barrier(2);
            node.read_u64(a)
        });
        assert_eq!(results, vec![nodes as u64 * PER_NODE; nodes], "{nodes} nodes");
    }
}

#[test]
fn token_queue_passes_directly_between_contenders() {
    // Under contention the token must travel releaser -> successor
    // without a manager round trip: token_forwards > 0.
    let sync = cluster::SyncTopology {
        locks: cluster::LockTopology::TokenQueue,
        ..cluster::SyncTopology::centralized()
    };
    let (c, dsm) = cluster_sync(4, sync);
    let (_, entries) = c.run(|ctx| {
        let node = dsm.node(ctx);
        node.barrier(1);
        node.acquire(5);
        let t = node.ctx().clock().now();
        node.ctx().compute(1_000_000);
        // `compute` costs no host time, so without this wait the first
        // holder may well release before anyone else has asked. Hold
        // the token until the manager has chained the other three
        // behind it: from then on the chain is complete, and its
        // successor notices were posted by manager handlers that run
        // before any handler a release can trigger there.
        while (0..4).map(|n| dsm.stats(n).get("lock_queued")).sum::<u64>() < 3 {
            std::thread::yield_now();
        }
        node.release(5);
        node.barrier(2);
        t
    });
    let mut sorted = entries.clone();
    sorted.sort();
    for w in sorted.windows(2) {
        assert!(w[1] >= w[0] + 1_000_000, "critical sections overlap: {entries:?}");
    }
    let forwards: u64 = (0..4).map(|n| dsm.stats(n).get("token_forwards")).sum();
    assert!(forwards >= 1, "contended release must forward the token, got {forwards}");
}

/// Spin until `done` holds; false if it still does not after a few
/// seconds, so a regression fails its assertion instead of hanging.
fn eventually(done: impl Fn() -> bool) -> bool {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while !done() {
        if std::time::Instant::now() > deadline {
            return false;
        }
        std::thread::yield_now();
    }
    true
}

#[test]
fn queued_acquire_on_a_plain_fabric_is_one_round_of_the_one_path() {
    // Node 0 takes the lock before the barrier and keeps it until the
    // manager has queued node 1, so node 1 is answered `Queued` and then
    // granted by post: round 1 of the acquire loop, and no second round.
    let (c, dsm) = cluster(2);
    let (report, queued) = c.run(|ctx| {
        let node = dsm.node(ctx);
        if node.rank() == 0 {
            node.acquire(5);
        }
        node.barrier(1);
        let queued = if node.rank() == 0 {
            let queued = eventually(|| dsm.stats(1).get("lock_queued") == 1);
            node.release(5);
            queued
        } else {
            node.acquire(5);
            node.release(5);
            true
        };
        node.barrier(2);
        queued
    });
    assert_eq!(queued, vec![true, true], "node 1 never queued behind node 0");
    assert_eq!(dsm.stats(0).get("lock_queued"), 0);
    assert_eq!(dsm.stats(1).get("lock_queued"), 1);
    for n in 0..2 {
        assert_eq!(dsm.stats(n).get("retries"), 0, "node {n} went round again");
    }
    assert_eq!(report.net_stats["retries"], 0);
    assert_eq!(report.net_stats["timeouts"], 0);
}

#[test]
fn resilient_fabric_serves_token_queue_locks_from_the_manager() {
    // A retry policy and `TokenQueue`: the central manager serves the
    // lock, in the mode the caller asked for — two readers are inside
    // together, and no token is ever created.
    let sync = cluster::SyncTopology {
        locks: cluster::LockTopology::TokenQueue,
        ..cluster::SyncTopology::centralized()
    };
    let c = Cluster::new(
        FabricConfig::builder()
            .nodes(2)
            .link(LinkKind::Ethernet)
            .sync(sync)
            .resilience(interconnect::Resilience::default())
            .build(),
    );
    let dsm = SwDsm::install(&c, DsmConfig::default());
    let inside = std::sync::atomic::AtomicUsize::new(0);
    let (_, overlapped) = c.run(|ctx| {
        use std::sync::atomic::Ordering::SeqCst;
        let node = dsm.node(ctx);
        node.barrier(1);
        node.acquire_shared(5);
        inside.fetch_add(1, SeqCst);
        let overlapped = eventually(|| inside.load(SeqCst) == 2);
        node.release(5);
        node.barrier(2);
        overlapped
    });
    assert_eq!(overlapped, vec![true, true], "shared holders serialised");
    let forwards: u64 = (0..2).map(|n| dsm.stats(n).get("token_forwards")).sum();
    assert_eq!(forwards, 0, "the manager, not a token, serves a resilient fabric's locks");
}

#[test]
fn digest_notices_invalidate_stale_copies() {
    let sync = cluster::SyncTopology {
        notices: cluster::NoticeWire::Digest { max_runs: 64 },
        ..cluster::SyncTopology::centralized()
    };
    let (c, dsm) = cluster_sync(2, sync);
    let (_, results) = c.run(|ctx| {
        let node = dsm.node(ctx);
        let a = node.alloc(4096, Distribution::OnNode(0));
        node.barrier(1);
        if node.rank() == 1 {
            let first = node.read_u64(a);
            node.barrier(2);
            node.barrier(3);
            let second = node.read_u64(a);
            (first, second)
        } else {
            node.barrier(2);
            node.write_u64(a, 5);
            node.barrier(3);
            (0, 0)
        }
    });
    assert_eq!(results[1], (0, 5));
    assert!(dsm.stats(1).get("digest_hits") >= 1);
}

#[test]
fn scalable_preset_matches_centralized_results() {
    // The full scalable stack (tree barrier + token locks + digests)
    // must compute bit-identical results to the centralized protocols.
    let run = |sync: cluster::SyncTopology| {
        let (c, dsm) = cluster_sync(5, sync);
        let (_, results) = c.run(|ctx| {
            let node = dsm.node(ctx);
            let a = node.alloc(5 * 4096, Distribution::Cyclic);
            let counter = node.alloc(4096, Distribution::OnNode(0));
            node.barrier(1);
            for round in 0..4u64 {
                node.write_u64(a.add(node.rank() as u32 * 4096), round * 10 + node.rank() as u64);
                node.acquire(3);
                let v = node.read_u64(counter);
                node.write_u64(counter, v + 1);
                node.release(3);
                node.barrier(2);
            }
            let grid: u64 = (0..5).map(|n| node.read_u64(a.add(n * 4096))).sum();
            (grid, node.read_u64(counter))
        });
        results
    };
    let central = run(cluster::SyncTopology::centralized());
    let scalable = run(cluster::SyncTopology::scalable());
    assert_eq!(central, scalable);
    assert_eq!(central[0].1, 20);
}

#[test]
fn tree_barrier_heals_lost_release_waves() {
    // A release wave lost mid-tree-barrier must heal: the child's
    // resilient TREE_AGG request times out, the retry re-drives the
    // tree state machine, and the parent replays its cached wave.
    // Barrier 8 on 4 nodes roots the tree at node 0 (8 % 4); with
    // fanout 2 its children are nodes 1 and 2, so dropping traffic on
    // the root's downlinks loses waves specifically (the uplink
    // 1 -> 0 loses aggregates too, for good measure). 30% loss on the
    // doubly-lossy 1 <-> 0 edge means ~half the exchanges need at
    // least one retry; the widened retry budget keeps exhaustion (a
    // deliberate fatal) out of reach.
    use interconnect::fault::{FaultPlan, LinkFaults};
    let lossy = LinkFaults { drop_ppm: 300_000, ..LinkFaults::default() };
    let mut plan = FaultPlan::seeded(7);
    plan.per_link = vec![((0, 1), lossy), ((0, 2), lossy), ((1, 0), lossy)];
    let sync = cluster::SyncTopology {
        barrier: cluster::BarrierTopology::Tree { fanout: 2 },
        locks: cluster::LockTopology::Manager,
        notices: cluster::NoticeWire::Digest { max_runs: 64 },
    };
    let c = Cluster::new(
        FabricConfig::builder()
            .nodes(4)
            .link(LinkKind::Ethernet)
            .sync(sync)
            .chaos(plan)
            .resilience(interconnect::Resilience {
                retry: interconnect::fault::RetryPolicy {
                    max_attempts: 24,
                    ..interconnect::fault::RetryPolicy::default()
                },
                ..interconnect::Resilience::default()
            })
            .build(),
    );
    let dsm = SwDsm::install(&c, DsmConfig::default());
    let (report, vals) = c.run(|ctx| {
        let node = dsm.node(ctx);
        let a = node.alloc(4 * 8, Distribution::OnNode(0));
        node.barrier(8);
        for round in 0..6u64 {
            node.write_u64(a.add(node.rank() as u32 * 8), round * 100 + node.rank() as u64);
            node.barrier(8);
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
