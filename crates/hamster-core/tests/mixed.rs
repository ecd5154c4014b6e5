//! Tests for the mixed platform (paper §6: combining several DSM
//! mechanisms within one application).

use hamster_core::{
    AllocSpec, ClusterConfig, Distribution, EngineHint, PlatformKind, Runtime,
};

fn mixed(nodes: usize) -> Runtime {
    Runtime::new(ClusterConfig::new(nodes, PlatformKind::Mixed))
}

fn spec(engine: EngineHint, dist: Distribution) -> AllocSpec {
    AllocSpec { dist, engine, ..Default::default() }
}

#[test]
fn both_engines_serve_their_regions() {
    let rt = mixed(3);
    let (_, results) = rt.run(|ham| {
        let page = ham
            .mem()
            .alloc(4096, spec(EngineHint::PageBased, Distribution::OnNode(0)))
            .unwrap();
        let word = ham
            .mem()
            .alloc(4096, spec(EngineHint::WordBased, Distribution::OnNode(0)))
            .unwrap();
        ham.sync().barrier(1);
        if ham.task().rank() == 1 {
            ham.mem().write_u64(page.addr(), 11);
            ham.mem().write_u64(word.addr(), 22);
        }
        ham.cons().barrier_sync(2);
        (ham.mem().read_u64(page.addr()), ham.mem().read_u64(word.addr()))
    });
    assert_eq!(results, vec![(11, 22); 3]);

    // The page-based write produced DSM protocol work; the word-based
    // write produced SAN traffic — each engine saw exactly its share.
    let page_stats = rt.platform_stats(1);
    assert!(page_stats["getpages"] >= 1, "page engine idle: {page_stats:?}");
    let word_stats = rt.word_engine_stats(1).unwrap();
    assert!(word_stats["remote_writes"] >= 1, "word engine idle: {word_stats:?}");
}

#[test]
fn one_lock_orders_both_engines() {
    // A critical section protecting one counter in each engine: both
    // must be exact, i.e. the sync edge covers both engines' data.
    let rt = mixed(4);
    let (_, results) = rt.run(|ham| {
        let page = ham
            .mem()
            .alloc(64, spec(EngineHint::PageBased, Distribution::Block))
            .unwrap();
        let word = ham
            .mem()
            .alloc(64, spec(EngineHint::WordBased, Distribution::Block))
            .unwrap();
        ham.sync().barrier(1);
        for _ in 0..6 {
            ham.sync().lock(2);
            let a = ham.mem().read_u64(page.addr());
            let b = ham.mem().read_u64(word.addr());
            ham.mem().write_u64(page.addr(), a + 1);
            ham.mem().write_u64(word.addr(), b + 1);
            ham.sync().unlock(2);
        }
        ham.cons().barrier_sync(3);
        (ham.mem().read_u64(page.addr()), ham.mem().read_u64(word.addr()))
    });
    assert_eq!(results, vec![(24, 24); 4]);
}

#[test]
fn mixed_beats_pure_sw_for_fine_grained_sharing() {
    // A hot, finely shared structure (one word per node, read by all
    // every round) placed word-based avoids the page-based engine's
    // fetch/invalidate churn. Compare against the same program with the
    // structure page-based — on the same (mixed) platform and wire.
    let run = |engine: EngineHint| {
        let rt = mixed(4);
        let (report, _) = rt.run(|ham| {
            let hot = ham
                .mem()
                .alloc(4 * 4096, spec(engine, Distribution::Cyclic))
                .unwrap();
            ham.sync().barrier(1);
            let me = ham.task().rank();
            for round in 0..10u64 {
                ham.mem().write_u64(hot.at(me * 4096), round);
                ham.cons().barrier_sync(2);
                let mut sum = 0;
                for peer in 0..4 {
                    sum += ham.mem().read_u64(hot.at(peer * 4096));
                }
                assert_eq!(sum, 4 * round);
                ham.cons().barrier_sync(3);
            }
        });
        report.sim_time_ns
    };
    let word = run(EngineHint::WordBased);
    let page = run(EngineHint::PageBased);
    assert!(
        word * 2 < page,
        "word-based hot data should clearly win: word={word} page={page}"
    );
}

#[test]
fn mixed_parses_from_config_file() {
    let cfg = ClusterConfig::parse("nodes = 2\nplatform = mixed").unwrap();
    assert_eq!(cfg.platform, PlatformKind::Mixed);
    let report = hamster_core::run_spmd(&cfg, |ham| {
        let r = ham.mem().alloc_default(64).unwrap();
        ham.sync().barrier(1);
        ham.sync().fetch_add_u64(r.addr(), 1);
        ham.cons().barrier_sync(2);
        assert_eq!(ham.mem().read_u64(r.addr()), 2);
    });
    assert_eq!(report.nodes, 2);
}

#[test]
fn caps_reflect_the_union_of_engines() {
    let rt = mixed(2);
    let (_, caps) = rt.run(|ham| ham.caps());
    assert!(caps[0].page_granularity, "page engine present");
    assert!(caps[0].word_remote_access, "word engine present");
    assert!(!caps[0].hardware_coherent);
}

#[test]
fn both_dsms_drive_the_one_sync_driver_on_one_cluster_without_crossing() {
    // The software and the hybrid DSM each install the synchronisation
    // driver on the same cluster; their kind blocks keep the two apart
    // (the router refuses a kind registered twice). Lock 7 and barrier 1
    // on one engine are not lock 7 and barrier 1 on the other: a node
    // holds both locks at once, and the barriers interleave id for id.
    // Were the managers shared, the nested acquire would queue behind
    // its own node and the same-id barriers would count each other's
    // arrivals.
    use cluster::{Cluster, FabricConfig, LinkKind};
    use hybriddsm::{HybridConfig, HybridDsm};
    use swdsm::{DsmConfig, SwDsm};

    let c = Cluster::new(FabricConfig::builder().nodes(4).link(LinkKind::Sci).build());
    let sw = SwDsm::install(&c, DsmConfig::default());
    let hy = HybridDsm::install(&c, HybridConfig::default());
    let (_, results) = c.run(|ctx| {
        let (s, h) = (sw.node(ctx.clone()), hy.node(ctx));
        let page = s.alloc(64, Distribution::OnNode(0));
        let word = h.alloc(64, Distribution::OnNode(1));
        for _ in 0..5 {
            s.acquire(7);
            h.acquire(7);
            s.write_u64(page, s.read_u64(page) + 1);
            h.write_u64(word, h.read_u64(word) + 1);
            h.release(7);
            s.release(7);
            s.barrier(1);
            h.barrier(1);
        }
        h.barrier(2);
        s.barrier(2);
        (s.read_u64(page), h.read_u64(word))
    });
    assert_eq!(results, vec![(20, 20); 4]);
    for node in 0..4 {
        assert_eq!(sw.stats(node).get("lock_acquires"), 5, "node {node}");
        assert_eq!(hy.stats(node).get("lock_acquires"), 5, "node {node}");
    }
}
