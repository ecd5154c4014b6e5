//! Fabric determinism soak: one workload through the delivery scheduler
//! under every real-time schedule it has, with every virtual-time
//! observable compared bit for bit.
//!
//! Four runs, all on the same workload and the same virtual cost model:
//! one delivery worker, two, the auto-sized pool, and the auto-sized
//! pool again. Which host thread runs a handler — and how many there
//! are — is invisible in virtual time, so all four must agree
//! *bit-identically* on checksums, virtual end times, and fabric
//! counters; only wall-clock throughput may differ.
//!
//! Workload phases (64 nodes by default):
//!
//! * **Notification relay** — a handful of zero-byte tokens hot-potato
//!   around the ring. Pure scheduling: each hop lands on an *idle*
//!   node (token count ≪ node count, the common case for protocol
//!   control traffic), so a chain of hops stays on the worker that
//!   started it.
//! * **Bulk page relay** — tokens carrying a fetch-reply-shaped page
//!   set (`Vec<(id, Page)>`, `PAGES_PER_TOKEN` × 4 KiB — the shape
//!   of `swdsm`'s multi-page `FetchReply`/region writeback). Each hop
//!   stamps one page (copy-on-write, in place for a uniquely held
//!   page) and moves the `Arc`s on untouched.
//! * **Post flood** — every node fires a burst of one-way posts at its
//!   ring successor (bounded ingress queues, so backpressure), closed
//!   by one synchronous flush request per
//!   sender. A sender's flush may overtake its own posts *within* the
//!   batch they share (it is smaller, so it arrives earlier in virtual
//!   time), so one more flush per node follows: it lands in a later
//!   batch, and every flood message is provably processed before the
//!   counters are read.
//!
//! The document holds virtual-time results only and is byte-identical
//! across runs (CI diffs two runs). Events/sec per leg go to the
//! printed table alone: machine-dependent by nature and not part of the
//! artifact — the host-time evidence is the ledger's `fabric-relay`
//! workload.

use crate::report::{Report, Table};
use crate::{Args, Built};
use interconnect::mailbox::tag;
use interconnect::{
    downcast, EngineMode, HandlerCtx, Network, NodeId, Outcome, Page, Payload,
};
use sim::json::Value;
use sim::{LinkCost, VirtualClock};
use std::collections::BTreeMap;
use std::time::Instant;

/// Zero-byte notification-relay hop: payload `(origin, hops_left, acc)`.
const RELAY: u32 = 0x61;
/// Finished token reporting back to its origin's mailbox.
const DONE: u32 = 0x62;
/// One-way flood message (no reply).
const SINK: u32 = 0x63;
/// Synchronous flush closing a sender's flood burst.
const FLUSH: u32 = 0x64;
/// Bulk page-relay hop: payload [`Bulk`].
const BULK: u32 = 0x65;

/// 4 KiB pages per bulk token: the shape of a multi-page fetch reply /
/// region writeback (`swdsm::proto::FetchReply.pages`).
const PAGES_PER_TOKEN: usize = 32;

/// A bulk token: relay bookkeeping plus a fetch-reply-shaped page set.
struct Bulk {
    origin: u32,
    hops_left: u32,
    acc: u64,
    pages: Vec<(u64, Page)>,
}

/// One run's outcome: everything virtual is deterministic; `wall_ns` is
/// the only machine-dependent field.
struct RunOut {
    /// Max origin-port clock when the last token reported (ns).
    sim_time_ns: u64,
    /// FNV fold over all finished tokens (notification and bulk).
    checksum: u64,
    /// Fabric counters (includes `delivered`, the engine event count).
    stats: BTreeMap<&'static str, u64>,
    /// Wall-clock for build + all phases + teardown.
    wall_ns: u64,
}

fn fold(acc: u64, x: u64) -> u64 {
    acc.wrapping_mul(0x100_0000_01b3).wrapping_add(x.wrapping_add(1))
}

/// Relay tokens in flight per phase: few enough that almost every hop
/// lands on an idle node (see the module docs), at least two so tokens
/// interleave.
fn token_count(nodes: usize) -> usize {
    (nodes / 16).clamp(2, 8).min(nodes)
}

/// Engine-microbench cost model: zero software overheads and a small
/// fixed wire latency. Virtual time still advances per hop (so ordering
/// and determinism are exercised for real), but the wall clock measures
/// delivery-scheduler machinery alone.
fn micro_cost() -> LinkCost {
    LinkCost {
        send_overhead_ns: 0,
        recv_overhead_ns: 0,
        latency_ns: 1_000,
        bytes_per_sec: 1_000_000_000,
        handler_ns: 0,
    }
}

/// Wire size of a bulk token: id + page bytes per page, plus the relay
/// header.
fn bulk_wire_bytes(pages: usize) -> u64 {
    (pages as u64) * (4096 + 8) + 16
}

fn run(mode: EngineMode, nodes: usize, notif_hops: u32, bulk_hops: u32, flood: u32) -> RunOut {
    let started = Instant::now();
    let net = Network::builder(nodes, micro_cost()).engine(mode).build();

    net.register_all(RELAY, |node| {
        move |ctx: &HandlerCtx<'_>, _src, p: Payload| {
            let (origin, hops_left, acc) = downcast::<(u32, u32, u64)>(p);
            let acc = fold(acc, node as u64);
            if hops_left == 0 {
                ctx.post(origin as NodeId, DONE, acc, 0);
            } else {
                ctx.post((node + 1) % nodes, RELAY, (origin, hops_left - 1, acc), 0);
            }
            Outcome::done()
        }
    });
    net.register_all(BULK, |node| {
        move |ctx: &HandlerCtx<'_>, _src, p: Payload| {
            let mut t = downcast::<Bulk>(p);
            t.acc = fold(t.acc, node as u64);
            // Stamp one page per hop. `make_mut` is in place (the
            // token is uniquely held); the closing fold proves every
            // hop's mutation survived the relay.
            let slot = (t.hops_left as usize) % t.pages.len();
            t.pages[slot].1.make_mut()[..8].copy_from_slice(&t.acc.to_le_bytes());
            let wire = bulk_wire_bytes(t.pages.len());
            if t.hops_left == 0 {
                // Close the token: fold the final stamp of every page
                // so the checksum witnesses the full mutation history.
                let mut acc = t.acc;
                for (id, page) in &t.pages {
                    let mut stamp = [0u8; 8];
                    stamp.copy_from_slice(&page[..8]);
                    acc = fold(acc, *id ^ u64::from_le_bytes(stamp));
                }
                ctx.post(t.origin as NodeId, DONE, acc, 0);
            } else {
                t.hops_left -= 1;
                ctx.post((node + 1) % nodes, BULK, t, wire);
            }
            Outcome::done()
        }
    });
    net.register_all(DONE, |node| {
        let mb = net.mailbox(node);
        move |ctx: &HandlerCtx<'_>, _src, p: Payload| {
            mb.deposit(tag(DONE, 0), p, ctx.now);
            Outcome::done()
        }
    });
    net.register_all(SINK, |_node| |_c: &HandlerCtx<'_>, _s, _p: Payload| Outcome::done());
    net.register_all(FLUSH, |_node| |_c: &HandlerCtx<'_>, _s, _p: Payload| Outcome::reply((), 0));

    let ports: Vec<_> = (0..nodes).map(|n| net.port(n, VirtualClock::new())).collect();

    let tokens = token_count(nodes);
    let origins: Vec<usize> = (0..tokens).map(|t| t * nodes / tokens).collect();
    let mut checksum = 0u64;
    let mut sim_time_ns = 0u64;

    // Phase 1 — notification relay: launch zero-byte tokens from
    // origins spread evenly around the ring, then collect them.
    for &o in &origins {
        ports[o].post((o + 1) % nodes, RELAY, (o as u32, notif_hops, o as u64), 0);
    }
    for &o in &origins {
        let acc = downcast::<u64>(ports[o].wait_mailbox(tag(DONE, 0)));
        checksum = checksum.wrapping_add(acc);
        sim_time_ns = sim_time_ns.max(ports[o].clock().now());
    }

    // Phase 2 — bulk page relay: fetch-reply-shaped tokens.
    for &o in &origins {
        let pages = (0..PAGES_PER_TOKEN as u64)
            .map(|i| {
                let mut p = vec![0u8; 4096];
                p[..8].copy_from_slice(&(o as u64 ^ i).to_le_bytes());
                (i, Page::from(p))
            })
            .collect();
        let t = Bulk { origin: o as u32, hops_left: bulk_hops, acc: o as u64, pages };
        ports[o].post((o + 1) % nodes, BULK, t, bulk_wire_bytes(PAGES_PER_TOKEN));
    }
    for &o in &origins {
        let acc = downcast::<u64>(ports[o].wait_mailbox(tag(DONE, 0)));
        checksum = checksum.wrapping_add(acc);
        sim_time_ns = sim_time_ns.max(ports[o].clock().now());
    }

    // Phase 3 — flood: a burst of one-way posts per node, then a flush
    // request behind them.
    for (o, port) in ports.iter().enumerate() {
        let dst = (o + 1) % nodes;
        for i in 0..flood {
            port.post(dst, SINK, i as u64, 8);
        }
        downcast::<()>(port.request(dst, FLUSH, (), 0));
    }
    // Every node answers one more flush, so everything queued before it
    // has been counted when the counters are read.
    for node in 0..nodes {
        downcast::<()>(ports[0].request(node, FLUSH, (), 0));
    }

    let stats = net.stats().snapshot();
    drop(ports);
    drop(net);
    RunOut { sim_time_ns, checksum, stats, wall_ns: started.elapsed().as_nanos() as u64 }
}

fn events_per_sec(r: &RunOut) -> u64 {
    let delivered = r.stats["delivered"];
    (delivered as f64 / (r.wall_ns as f64 / 1e9)) as u64
}

/// The four legs, their equality, and the virtual-time document.
pub fn engine(args: &Args) -> Built {
    assert!(args.nodes >= 2, "engine needs at least 2 nodes");
    let nodes = args.nodes;
    let (notif_hops, bulk_hops, flood): (u32, u32, u32) =
        if args.quick { (500, 1_000, 64) } else { (2_500, 30_000, 256) };

    eprintln!(
        "engine: {nodes} nodes, {} tokens, {notif_hops} notif + {bulk_hops} bulk hops, \
         {flood} flood posts/node",
        token_count(nodes)
    );
    // One worker serialises every handler in the process; the
    // auto-sized pool steals. `auto` runs twice: run-to-run invariance.
    let legs = [("workers=1", 1), ("workers=2", 2), ("auto", 0), ("auto again", 0)];
    let runs: Vec<RunOut> = legs
        .iter()
        .map(|&(name, workers)| {
            eprintln!("{name}...");
            run(EngineMode { workers }, nodes, notif_hops, bulk_hops, flood)
        })
        .collect();
    let auto = &runs[2];
    let delivered = auto.stats["delivered"];
    let mut rates = Vec::new();
    for (&(name, _), r) in legs.iter().zip(&runs) {
        assert_eq!(auto.checksum, r.checksum, "checksum drift vs {name} run");
        assert_eq!(auto.sim_time_ns, r.sim_time_ns, "virtual time drift vs {name} run");
        assert_eq!(auto.stats, r.stats, "fabric counter drift vs {name} run");
        rates.push(Value::obj([("leg", Value::str(name)), ("host_events_per_sec", Value::int(events_per_sec(r)))]));
    }
    let table = Table::new(
        format!("Fabric determinism soak: {delivered} events per leg, all legs agree"),
        &[],
        &rates,
    );

    // Virtual-time report: byte-identical across runs by construction.
    let counters = auto.stats.iter().map(|(k, v)| (*k, Value::int(*v))).collect::<Vec<_>>();
    let doc = Value::obj([
        ("figure", Value::str("engine")),
        ("title", Value::str("Fabric determinism soak: worker-count and run-to-run invariance")),
        ("nodes", Value::int(nodes)),
        ("tokens", Value::int(token_count(nodes))),
        ("notif_hops_per_token", Value::int(notif_hops)),
        ("bulk_hops_per_token", Value::int(bulk_hops)),
        ("pages_per_token", Value::int(PAGES_PER_TOKEN)),
        ("flood_per_node", Value::int(flood)),
        ("quick", Value::Bool(args.quick)),
        ("delivered", Value::int(delivered)),
        ("sim_time_ns", Value::int(auto.sim_time_ns)),
        ("checksum", Value::str(format!("{:016x}", auto.checksum))),
        ("workers_agree", Value::Bool(true)),
        ("deterministic", Value::Bool(true)),
        ("net", Value::obj(counters)),
    ]);
    Ok(Report::new(doc, vec![table]))
}
