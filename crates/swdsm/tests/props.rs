//! Property-based protocol tests: random workloads against a
//! sequential reference memory.

use cluster::{Cluster, FabricConfig, LinkKind};
use memwire::{Access, Distribution};
use proptest::prelude::*;
use swdsm::{DsmConfig, SwDsm};

/// A random single-writer plan: each node owns a byte range of one
/// shared region and performs writes there across several barrier
/// epochs; afterwards every node must read back the exact reference
/// image.
#[derive(Debug, Clone)]
struct Plan {
    /// (epoch, node, offset-within-slice, value)
    writes: Vec<(u8, u8, u16, u8)>,
    epochs: u8,
    dist: Distribution,
}

const NODES: usize = 3;
const SLICE: usize = 3 * 4096; // bytes per node, page-misaligned on purpose

fn plan_strategy() -> impl Strategy<Value = Plan> {
    (
        proptest::collection::vec(
            (0u8..4, 0u8..NODES as u8, any::<u16>(), any::<u8>()),
            1..120,
        ),
        prop_oneof![
            Just(Distribution::Block),
            Just(Distribution::Cyclic),
            Just(Distribution::OnNode(1)),
        ],
    )
        .prop_map(|(writes, dist)| Plan { writes, epochs: 4, dist })
}

fn reference_image(plan: &Plan) -> Vec<u8> {
    let mut mem = vec![0u8; NODES * SLICE];
    let mut writes = plan.writes.clone();
    // Writes apply in epoch order; within an epoch, writers touch
    // disjoint slices so any order works.
    writes.sort_by_key(|w| w.0);
    for (_, node, off, val) in writes {
        let o = node as usize * SLICE + off as usize % SLICE;
        mem[o] = val;
    }
    mem
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_single_writer_programs_converge(plan in plan_strategy()) {
        let cluster = Cluster::new(FabricConfig::builder().nodes(NODES).link(LinkKind::Ethernet).build());
        let dsm = SwDsm::install(&cluster, DsmConfig::default());
        let expected = reference_image(&plan);
        let plan = std::sync::Arc::new(plan);
        let (_, results) = cluster.run(|ctx| {
            let node = dsm.node(ctx);
            let me = node.rank() as u8;
            let a = node.alloc(NODES * SLICE, plan.dist);
            node.barrier(1);
            for epoch in 0..plan.epochs {
                for &(e, writer, off, val) in &plan.writes {
                    if e == epoch && writer == me {
                        let o = writer as usize * SLICE + off as usize % SLICE;
                        node.write_bytes(a.add(o as u32), &[val]);
                    }
                }
                node.barrier(2);
            }
            let mut image = vec![0u8; NODES * SLICE];
            node.read_bytes(a, &mut image);
            node.barrier(3);
            image
        });
        for (rank, image) in results.iter().enumerate() {
            prop_assert_eq!(image.as_slice(), expected.as_slice(), "node {} diverged", rank);
        }
    }

    #[test]
    fn lock_counter_exact_under_random_schedules(
        increments in proptest::collection::vec(1u64..5, NODES..=NODES),
        think_ns in proptest::collection::vec(0u64..50_000, NODES..=NODES),
    ) {
        let cluster = Cluster::new(FabricConfig::builder().nodes(NODES).link(LinkKind::Ethernet).build());
        let dsm = SwDsm::install(&cluster, DsmConfig::default());
        let incs = increments.clone();
        let thinks = think_ns.clone();
        let (_, finals) = cluster.run(|ctx| {
            let node = dsm.node(ctx);
            let a = node.alloc(4096, Distribution::Block);
            node.barrier(1);
            for _ in 0..incs[node.rank()] {
                node.acquire(1);
                let v = node.read_u64(a);
                node.ctx().compute(thinks[node.rank()]);
                node.write_u64(a, v + 1);
                node.release(1);
            }
            node.barrier(2);
            node.read_u64(a)
        });
        let expect: u64 = increments.iter().sum();
        prop_assert!(finals.iter().all(|&v| v == expect), "lost updates: {finals:?}");
    }

    #[test]
    fn whole_page_mode_matches_diff_mode(plan in plan_strategy()) {
        let run = |cfg: DsmConfig| {
            let cluster = Cluster::new(FabricConfig::builder().nodes(NODES).link(LinkKind::Ethernet).build());
            let dsm = SwDsm::install(&cluster, cfg);
            let plan = plan.clone();
            let (_, results) = cluster.run(move |ctx| {
                let node = dsm.node(ctx);
                let me = node.rank() as u8;
                let a = node.alloc(NODES * SLICE, plan.dist);
                node.barrier(1);
                for epoch in 0..plan.epochs {
                    for &(e, writer, off, val) in &plan.writes {
                        if e == epoch && writer == me {
                            let o = writer as usize * SLICE + off as usize % SLICE;
                            node.write_bytes(a.add(o as u32), &[val]);
                        }
                    }
                    node.barrier(2);
                }
                let mut image = vec![0u8; NODES * SLICE];
                node.read_bytes(a, &mut image);
                node.barrier(3);
                image
            });
            results
        };
        let with_diffs = run(DsmConfig::default());
        let with_pages = run(DsmConfig { whole_page_writeback: true, ..Default::default() });
        prop_assert_eq!(with_diffs, with_pages);
    }
}

/// Run `plan` on a `nodes`-node cluster under `sync`, returning every
/// rank's final image and the ending value of a lock-guarded counter.
/// Ranks beyond the plan's writer set still participate in every
/// barrier and the lock ring, so tree interior nodes and lock managers
/// get exercised even when they own no data.
fn run_plan_sync(
    nodes: usize,
    sync: cluster::SyncTopology,
    plan: std::sync::Arc<Plan>,
) -> (Vec<Vec<u8>>, u64) {
    let cluster = Cluster::new(
        FabricConfig::builder().nodes(nodes).link(LinkKind::Ethernet).sync(sync).build(),
    );
    let dsm = SwDsm::install(&cluster, DsmConfig::default());
    let (_, results) = cluster.run(|ctx| {
        let node = dsm.node(ctx);
        let me = node.rank() as u8;
        let a = node.alloc(NODES * SLICE + 4096, plan.dist);
        let counter = a.add((NODES * SLICE) as u32);
        node.barrier(1);
        for epoch in 0..plan.epochs {
            for &(e, writer, off, val) in &plan.writes {
                if e == epoch && writer == me {
                    let o = writer as usize * SLICE + off as usize % SLICE;
                    node.write_bytes(a.add(o as u32), &[val]);
                }
            }
            node.barrier(2);
        }
        for _ in 0..node.rank() % 3 + 1 {
            node.acquire(9);
            let v = node.read_u64(counter);
            node.write_u64(counter, v + 1);
            node.release(9);
        }
        node.barrier(3);
        let mut image = vec![0u8; NODES * SLICE];
        node.read_bytes(a, &mut image);
        let count = node.read_u64(counter);
        node.barrier(4);
        (image, count)
    });
    let count = results[0].1;
    assert!(results.iter().all(|(_, c)| *c == count), "counter diverged across ranks");
    (results.into_iter().map(|(image, _)| image).collect(), count)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The sync topology must be invisible to the program: the same
    /// random schedule run under the centralized protocols and under
    /// the scalable preset (tree barrier + digest waves) must produce
    /// bit-identical images on every rank and the same lock-counter
    /// total.
    #[test]
    fn topologies_agree_on_random_schedules(plan in plan_strategy()) {
        let plan = std::sync::Arc::new(plan);
        let central = run_plan_sync(4, cluster::SyncTopology::centralized(), plan.clone());
        let tree = run_plan_sync(4, "tree:2".parse().unwrap(), plan);
        prop_assert_eq!(central.1, tree.1, "lock counters diverged");
        for (rank, (c, t)) in central.0.iter().zip(&tree.0).enumerate() {
            prop_assert_eq!(c.as_slice(), t.as_slice(), "rank {} diverged across topologies", rank);
        }
    }
}

/// Topology equivalence at cluster scale: 256 nodes, every rank writing
/// a deterministic pseudo-random pattern into its own slice across
/// three epochs. Too big for per-byte proptest shrinking, so this is a
/// plain test on one mixed schedule, comparing per-rank image
/// checksums between the centralized and scalable presets.
#[test]
fn topologies_agree_at_256_nodes() {
    const N: usize = 256;
    const SLICE2: usize = 128;
    fn mix(mut x: u64) -> u64 {
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^= x >> 33;
        x
    }
    let run = |sync: cluster::SyncTopology| -> Vec<u64> {
        let cluster = Cluster::new(
            FabricConfig::builder().nodes(N).link(LinkKind::Ethernet).sync(sync).build(),
        );
        let dsm = SwDsm::install(&cluster, DsmConfig::default());
        let (_, sums) = cluster.run(|ctx| {
            let node = dsm.node(ctx);
            let me = node.rank();
            let a = node.alloc(N * SLICE2, Distribution::Block);
            node.barrier(1);
            for epoch in 0..3u64 {
                let bytes: Vec<u8> = (0..SLICE2)
                    .map(|i| mix(epoch << 32 ^ (me * SLICE2 + i) as u64) as u8)
                    .collect();
                node.write_bytes(a.add((me * SLICE2) as u32), &bytes);
                node.barrier(2);
            }
            let mut image = vec![0u8; N * SLICE2];
            node.read_bytes(a, &mut image);
            node.barrier(3);
            // FNV-1a over the full image: cheap, order-sensitive.
            image.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
            })
        });
        sums
    };
    let central = run(cluster::SyncTopology::centralized());
    let scalable = run(cluster::SyncTopology::scalable());
    assert!(central.iter().all(|&s| s == central[0]), "ranks diverged under centralized");
    assert_eq!(central, scalable, "checksums diverged across topologies");
}
