//! Layer probes: the host cost of one call into one public function of
//! each crate, as the median over [`BATCHES`] timed batches.
//!
//! They run once per traced run, on every workload, so a per-layer
//! number can always be read beside the workload it is meant to explain.
//! None of them feeds an end-to-end metric.

use crate::workloads::kernels::{Kernels, NODES};
use crate::workloads::relay::Relay;
use crate::workloads::{pinned_cost, SplitMix};
use cluster::{Cluster, FabricConfig, LinkKind};
use hamster_core::{ClusterConfig, PlatformKind, Runtime, ServiceOp, Telemetry};
use memwire::{CachedPage, Diff, Distribution, PageState, PAGE_SIZE};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Timed batches per probe; the probe reports their median.
const BATCHES: usize = 31;

type Values = BTreeMap<&'static str, f64>;

/// Keep `v` from being optimised away.
fn sink<T>(v: T) {
    black_box(v);
}

/// Median over batches of the time `batch` takes, in ns per operation.
fn per_op_ns(ops: usize, mut batch: impl FnMut()) -> f64 {
    batch();
    let times: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let started = Instant::now();
            batch();
            started.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    crate::stats::median(&times)
}

fn sim_probes(v: &mut Values) {
    const OPS: usize = 20_000;
    let clock = sim::VirtualClock::new();
    v.insert(
        "sim.clock_advance_ns",
        per_op_ns(OPS, || (0..OPS).for_each(|_| sink(clock.advance(3)))),
    );

    let server = sim::Server::new();
    let mut t = 0u64;
    v.insert(
        "sim.server_serve_ns",
        per_op_ns(OPS, || {
            for _ in 0..OPS {
                t += 7;
                black_box(server.serve(t, 5));
            }
        }),
    );

    // 64-byte transfers a microsecond apart: the hot-window path a node
    // thread takes on every private-memory charge.
    let bus = sim::Bus::with_bandwidth(800_000_000);
    let mut t = 0u64;
    let mut stream = |bus: &sim::Bus| {
        for _ in 0..OPS {
            t += 1_000;
            black_box(bus.transfer(t, 64));
        }
    };
    v.insert("sim.bus_transfer_ns", per_op_ns(OPS, || stream(&bus)));
    // The same stream while a second thread streams through the same bus,
    // as two CPUs of one SMP node do.
    let shared = sim::Bus::with_bandwidth(800_000_000);
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut t = 500u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                t += 1_000;
                black_box(shared.transfer(t, 64));
            }
        });
        v.insert("sim.bus_transfer_contended_ns", per_op_ns(OPS, || stream(&shared)));
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
    });

    // A by-name add, as the fabric's slow-path counters do it, against
    // the fabric's own name list.
    let stats = sim::StatSet::new(interconnect::network::NET_STAT_NAMES);
    v.insert(
        "sim.statset_add_ns",
        per_op_ns(OPS, || (0..OPS).for_each(|_| stats.add(black_box("retries"), 1))),
    );

    let sketch = sim::stats::Sketch::new();
    let mut rng = SplitMix(1);
    let samples: Vec<u64> = (0..OPS).map(|_| rng.range(1_000, 5_000_000)).collect();
    v.insert(
        "sim.sketch_record_ns",
        per_op_ns(OPS, || samples.iter().for_each(|&s| sketch.record(s))),
    );

    let emit = || (0..2_000u64).for_each(|i| sim::trace::span(i, 10, 0, "ledger", "probe", i));
    v.insert("sim.trace_emit_off_ns", per_op_ns(2_000, emit));
    let session = sim::TraceSession::begin();
    v.insert("sim.trace_emit_on_ns", per_op_ns(2_000, emit));
    drop(session.finish());
}

fn memwire_probes(v: &mut Values) {
    const OPS: usize = 2_000;
    let src = vec![0x5au8; PAGE_SIZE];
    let mut dst = vec![0u8; PAGE_SIZE];
    v.insert(
        "memwire.memcpy_4k_ns",
        per_op_ns(OPS, || {
            (0..OPS).for_each(|_| black_box(&mut dst).copy_from_slice(black_box(&src)))
        }),
    );

    let mut page = CachedPage::read_only(src.clone());
    v.insert(
        "memwire.twin_4k_ns",
        per_op_ns(OPS, || {
            for _ in 0..OPS {
                page.make_writable();
                black_box(&page.twin);
                page.state = PageState::ReadOnly;
                page.twin = None;
            }
        }),
    );

    // Sparse: one 64-byte KV slot changed. Dense: every byte changed, as
    // in a fully rewritten SOR row.
    let twin = vec![0u8; PAGE_SIZE];
    let mut sparse_page = twin.clone();
    sparse_page[1024..1088].fill(0xff);
    let dense_page = vec![0xffu8; PAGE_SIZE];
    for (page, create, apply, wire) in [
        (
            &sparse_page,
            "memwire.diff_create_sparse_ns",
            "memwire.diff_apply_sparse_ns",
            "memwire.diff_wire_bytes_sparse",
        ),
        (
            &dense_page,
            "memwire.diff_create_dense_ns",
            "memwire.diff_apply_dense_ns",
            "memwire.diff_wire_bytes_dense",
        ),
    ] {
        v.insert(
            create,
            per_op_ns(OPS, || (0..OPS).for_each(|_| sink(Diff::between(&twin, black_box(page))))),
        );
        let diff = Diff::between(&twin, page);
        let mut home = twin.clone();
        v.insert(
            apply,
            per_op_ns(OPS, || (0..OPS).for_each(|_| black_box(&diff).apply(black_box(&mut home)))),
        );
        v.insert(wire, diff.wire_bytes() as f64);
    }
}

fn fabric(nodes: usize, link: LinkKind) -> FabricConfig {
    FabricConfig::builder().nodes(nodes).link(link).cost(pinned_cost()).build()
}

fn interconnect_probes(v: &mut Values, seed: u64) {
    const SINK: u32 = 0x71;
    const FLUSH: u32 = 0x72;
    const OPS: usize = 512;
    let net = interconnect::Network::builder(64, sim::LinkCost::smp_loopback()).build();
    net.register_all(SINK, |_| {
        |_: &interconnect::HandlerCtx<'_>, _, _: interconnect::Payload| {
            interconnect::Outcome::done()
        }
    });
    net.register_all(FLUSH, |_| {
        |_: &interconnect::HandlerCtx<'_>, _, _: interconnect::Payload| {
            interconnect::Outcome::reply((), 0)
        }
    });
    let port = net.port(0, sim::VirtualClock::new());
    // The sender's side of a one-way post; the flush that drains the
    // receiver's queue is outside the timed part.
    let mut times = Vec::new();
    for _ in 0..BATCHES {
        let started = Instant::now();
        for i in 0..OPS {
            port.post(1, SINK, i as u64, 8);
        }
        times.push(started.elapsed().as_nanos() as f64 / OPS as f64);
        interconnect::downcast::<()>(port.request(1, FLUSH, (), 0));
    }
    v.insert("interconnect.post_ns", crate::stats::median(&times));
    drop(port);
    drop(net);

    v.insert(
        "interconnect.build_teardown_ms_64",
        per_op_ns(1, || {
            drop(interconnect::Network::builder(64, sim::LinkCost::smp_loopback()).build())
        }) / 1e6,
    );
    let (p50, p99) = Relay::rtt_probe(seed);
    v.insert("interconnect.rtt_ns_p50", p50);
    v.insert("interconnect.rtt_ns_p99", p99);
}

fn cluster_probes(v: &mut Values) {
    for (nodes, metric) in [(4, "cluster.bringup_ms_4"), (64, "cluster.bringup_ms_64")] {
        let bringup = || {
            let c = Cluster::new(fabric(nodes, LinkKind::Ethernet));
            c.run(|_| ());
        };
        v.insert(metric, per_op_ns(1, bringup) / 1e6);
    }
}

/// Pages of the region the cold-fetch probe reads once each.
const COLD_PAGES: usize = BATCHES * 32;
/// Barriers per timed batch.
const BARRIERS: usize = 40;
/// Lock acquisitions per timed batch.
const LOCKS: usize = 40;

fn swdsm_probes(v: &mut Values) {
    const OPS: usize = 10_000;
    // Two nodes: the local access path, cold page fetches from the other
    // node, and a lock both nodes keep taking from each other.
    let c = Cluster::new(fabric(2, LinkKind::Ethernet));
    let dsm = swdsm::SwDsm::install(&c, swdsm::DsmConfig::default());
    let (_, outs) = c.run(|ctx| {
        let node = dsm.node(ctx);
        let mine = node.alloc(PAGE_SIZE, Distribution::OnNode(0));
        let theirs = node.alloc(COLD_PAGES * PAGE_SIZE, Distribution::OnNode(1));
        let mut out = Values::new();
        if node.rank() == 0 {
            node.write_u64(mine, 1);
            out.insert(
                "swdsm.local_read_u64_ns",
                per_op_ns(OPS, || (0..OPS).for_each(|_| sink(node.read_u64(mine)))),
            );
            out.insert(
                "swdsm.local_write_u64_ns",
                per_op_ns(OPS, || (0..OPS).for_each(|i| node.write_u64(mine, i as u64))),
            );
            let mut buf = vec![0u8; PAGE_SIZE];
            out.insert(
                "swdsm.bulk_read_4k_ns",
                per_op_ns(200, || {
                    (0..200).for_each(|_| node.read_bytes(mine, black_box(&mut buf)))
                }),
            );
            let mut next = 0;
            let per_page = per_op_ns(COLD_PAGES / (BATCHES + 1), || {
                for _ in 0..COLD_PAGES / (BATCHES + 1) {
                    black_box(node.read_u64(theirs.add((next * PAGE_SIZE) as u32)));
                    next += 1;
                }
            });
            out.insert("swdsm.remote_fetch_host_us", per_page / 1e3);
        }
        node.barrier(1);
        let handoff = per_op_ns(LOCKS, || {
            for _ in 0..LOCKS {
                node.acquire(7);
                node.release(7);
            }
        });
        if node.rank() == 0 {
            out.insert("swdsm.lock_handoff_host_us", handoff / 1e3);
        }
        node.barrier(2);
        out
    });
    v.extend(outs.into_iter().flatten());

    let c = Cluster::new(fabric(NODES, LinkKind::Ethernet));
    let dsm = swdsm::SwDsm::install(&c, swdsm::DsmConfig::default());
    let (_, outs) = c.run(|ctx| {
        let node = dsm.node(ctx);
        per_op_ns(BARRIERS, || (0..BARRIERS).for_each(|_| node.barrier(3))) / 1e3
    });
    v.insert("swdsm.barrier_host_us", outs[0]);
}

fn hybrid_probes(v: &mut Values) {
    const OPS: usize = 10_000;
    let c = Cluster::new(fabric(NODES, LinkKind::Sci));
    let dsm = hybriddsm::HybridDsm::install(&c, hybriddsm::HybridConfig::default());
    let (_, outs) = c.run(|ctx| {
        let node = dsm.node(ctx);
        let mine = node.alloc(PAGE_SIZE, Distribution::OnNode(0));
        let theirs = node.alloc(PAGE_SIZE, Distribution::OnNode(1));
        let mut out = Values::new();
        if node.rank() == 0 {
            out.insert(
                "hybriddsm.local_read_u64_ns",
                per_op_ns(OPS, || (0..OPS).for_each(|_| sink(node.read_u64(mine)))),
            );
            out.insert(
                "hybriddsm.remote_read_u64_ns",
                per_op_ns(OPS, || (0..OPS).for_each(|_| sink(node.read_u64(theirs)))),
            );
        }
        let barrier = per_op_ns(BARRIERS, || (0..BARRIERS).for_each(|_| node.barrier(3))) / 1e3;
        if node.rank() == 0 {
            out.insert("hybriddsm.barrier_host_us", barrier);
        }
        out
    });
    v.extend(outs.into_iter().flatten());
}

fn hamster_probes(v: &mut Values) {
    const OPS: usize = 10_000;
    let mut cfg = ClusterConfig::new(2, PlatformKind::Smp);
    cfg.cost = pinned_cost();
    let rt = Runtime::new(cfg);
    let (_, outs) = rt.run(|ham| {
        let jia = models::jiajia::jia_init(ham.clone());
        let shmem = models::shmem::shmem_init(ham.clone());
        let a = jia.jia_alloc(PAGE_SIZE);
        let sym = shmem.malloc(PAGE_SIZE);
        let mut out = Values::new();
        if ham.task().rank() == 0 {
            let direct = per_op_ns(OPS, || (0..OPS).for_each(|_| sink(ham.mem().read_u64(a))));
            let adapted = per_op_ns(OPS, || (0..OPS).for_each(|_| sink(jia.load_u64(a))));
            out.insert("hamster-core.smp_read_u64_ns", direct);
            out.insert("models.jia_read_overhead_ns", adapted - direct);
            let page = vec![0x3cu8; PAGE_SIZE];
            out.insert(
                "models.shmem_put_4k_ns",
                per_op_ns(200, || {
                    (0..200).for_each(|_| shmem.putmem(sym, 0, black_box(&page), shmem.my_pe()))
                }),
            );
        }
        jia.jia_barrier();
        out
    });
    v.extend(outs.into_iter().flatten());

    let tel = Telemetry::new(3, 1_000_000);
    let mut t = 0u64;
    v.insert(
        "hamster-core.telemetry_record_ns",
        per_op_ns(OPS, || {
            for i in 0..OPS {
                t += 20_000;
                tel.record(0, i % 3, ServiceOp::Get, t, t + 9_000, i as u64);
            }
        }),
    );
}

/// Run every probe.
pub fn all(seed: u64) -> Values {
    let mut v = Values::new();
    sim_probes(&mut v);
    memwire_probes(&mut v);
    interconnect_probes(&mut v, seed);
    cluster_probes(&mut v);
    swdsm_probes(&mut v);
    hybrid_probes(&mut v);
    hamster_probes(&mut v);
    v
}

/// Median host wall of the `kernels-swdsm` kernels run natively on the
/// software DSM, without HAMSTER: the control leg of Fig. 2 in host time.
pub fn native_kernels_wall_s(seed: u64) -> f64 {
    let kernels = Kernels::swdsm(seed);
    kernels.native_wall_s();
    crate::stats::median(&[
        kernels.native_wall_s(),
        kernels.native_wall_s(),
        kernels.native_wall_s(),
    ])
}
