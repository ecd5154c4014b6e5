//! One program through `&dyn Engine` on every engine: the software DSM,
//! the hybrid DSM, the SMP and the mixed platform (both engine hints)
//! must agree on what the provided typed accessors read and write, and
//! each typed access must be exactly one byte access of the engine.

use cluster::{Cluster, FabricConfig, LinkKind};
use hamster_core::mixed::MixedNode;
use hamster_core::{Distribution, Engine, EngineHint};
use hybriddsm::{HybridConfig, HybridDsm, SmpShared};
use memwire::PAGE_SIZE;
use sim::StatSet;
use swdsm::{DsmConfig, SwDsm};

const NODES: usize = 2;
/// Elements of the row: 4 800 bytes, past every engine's word path.
const ROW: usize = 600;

/// What one rank read back.
#[derive(Debug, PartialEq)]
struct Seen {
    straddle: u64,
    value: f64,
    row: Vec<f64>,
    counter: u64,
}

/// Rank 0 writes a `u64` across the first page boundary (two homes on
/// the software DSM under a cyclic distribution), rank 1 an `f64` and a
/// row; after a barrier both read everything back, then both increment
/// a counter under a lock. `reads` is this rank's engine read counter.
fn program(e: &dyn Engine, rank: usize, hint: EngineHint, reads: &dyn Fn() -> u64) -> Seen {
    let base = e.alloc_with(3 * PAGE_SIZE, Distribution::Cyclic, hint);
    let (straddle, value) = (base.add(PAGE_SIZE as u32 - 4), base.add(8));
    let (row, counter) = (base.add(PAGE_SIZE as u32 + 64), base.add(2 * PAGE_SIZE as u32 + 1024));
    if rank == 0 {
        e.write_u64(straddle, 0x0102_0304_0506_0708);
    } else {
        e.write_f64(value, -2.75);
        e.write_f64s(row, &(0..ROW).map(|i| i as f64 * 0.5).collect::<Vec<_>>());
    }
    e.barrier(1);
    let before = reads();
    let straddle = e.read_u64(straddle);
    assert_eq!(reads() - before, 1, "one read_u64 is one byte read");
    let mut back = vec![0.0; ROW];
    let before = reads();
    e.read_f64s(row, &mut back);
    assert_eq!(reads() - before, 1, "one read_f64s is one byte read");
    e.acquire(1);
    let v = e.read_u64(counter);
    e.write_u64(counter, v + 1);
    e.release(1);
    e.barrier(2);
    Seen { straddle, value: e.read_f64(value), row: back, counter: e.read_u64(counter) }
}

fn cluster(link: LinkKind) -> Cluster {
    Cluster::new(FabricConfig::builder().nodes(NODES).link(link).build())
}

fn hybrid_reads(stats: &StatSet) -> u64 {
    stats.get("local_reads") + stats.get("remote_reads")
}

#[test]
fn one_program_through_dyn_engine_on_every_engine() {
    let mut runs = Vec::new();

    let c = cluster(LinkKind::Ethernet);
    let sw = SwDsm::install(&c, DsmConfig::default());
    let (_, seen) = c.run(|ctx| {
        let r = ctx.rank();
        program(&sw.node(ctx), r, EngineHint::PageBased, &|| sw.stats(r).get("reads"))
    });
    runs.push(("swdsm", seen));

    let c = cluster(LinkKind::Sci);
    let hy = HybridDsm::install(&c, HybridConfig::default());
    let (_, seen) = c.run(|ctx| {
        let r = ctx.rank();
        program(&hy.node(ctx), r, EngineHint::PageBased, &|| hybrid_reads(hy.stats(r)))
    });
    runs.push(("hybrid", seen));

    let c = cluster(LinkKind::Loopback);
    let smp = SmpShared::install(&c, ());
    let (_, seen) = c.run(|ctx| {
        let r = ctx.rank();
        program(&smp.node(ctx), r, EngineHint::PageBased, &|| smp.stats(r).get("reads"))
    });
    runs.push(("smp", seen));

    for (name, hint) in
        [("mixed/page", EngineHint::PageBased), ("mixed/word", EngineHint::WordBased)]
    {
        let c = cluster(LinkKind::Sci);
        let (sw, hy) = (
            SwDsm::install(&c, DsmConfig::default()),
            HybridDsm::install(&c, HybridConfig::default()),
        );
        let (_, seen) = c.run(|ctx| {
            let r = ctx.rank();
            let reads = || match hint {
                EngineHint::PageBased => sw.stats(r).get("reads"),
                EngineHint::WordBased => hybrid_reads(hy.stats(r)),
            };
            program(&MixedNode::new(sw.node(ctx.clone()), hy.node(ctx)), r, hint, &reads)
        });
        runs.push((name, seen));
    }

    let want = Seen {
        straddle: 0x0102_0304_0506_0708,
        value: -2.75,
        row: (0..ROW).map(|i| i as f64 * 0.5).collect(),
        counter: NODES as u64,
    };
    for (name, seen) in &runs {
        assert_eq!(seen.len(), NODES, "{name}");
        for (rank, got) in seen.iter().enumerate() {
            assert_eq!(got, &want, "{name}, rank {rank}");
        }
    }
}
