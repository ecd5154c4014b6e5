//! `fabric-relay`: the interconnect and its scheduler alone.
//!
//! 64 nodes, the default engine, and a link with no software overhead,
//! so host time goes to delivery machinery and nowhere else: no DSM, no
//! applications, no compute threads. Four legs on one fabric:
//!
//! * `relay`: a few zero-byte tokens hot-potato around the ring; almost
//!   every hop lands on an idle node, the common case for protocol
//!   control traffic.
//! * `bulk`: tokens carrying a fetch-reply-shaped set of 4 KiB pages,
//!   one page stamped per hop (copy-on-write on a uniquely held page).
//! * `flood`: every node fires a burst of one-way posts at a peer, closed
//!   by one synchronous flush so every post is provably processed.
//! * `rpc`: one client, sequential round trips to seed-chosen peers, each
//!   timed in host time.
//!
//! The seed picks the token origins, the flood stride, the rpc peers and
//! a per-hop departure jitter; checksums are compared with a sequential
//! fold computed without the fabric, and the fabric's `delivered`
//! counter with the count the parameters imply.

use super::{RepOut, SplitMix, Workload};
use crate::json::Json;
use crate::span::Lane;
use crate::stats::percentile_sorted;
use interconnect::mailbox::tag;
use interconnect::{downcast, HandlerCtx, Network, NodeId, Outcome, Page, Payload};
use sim::{LinkCost, VirtualClock};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

const RELAY: u32 = 0x61;
const DONE: u32 = 0x62;
const SINK: u32 = 0x63;
const FLUSH: u32 = 0x64;
const BULK: u32 = 0x65;
const ECHO: u32 = 0x66;

const PAGE_BYTES: usize = 4096;

/// Sizes of one repetition.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub nodes: usize,
    pub tokens: usize,
    pub relay_hops: u32,
    pub bulk_hops: u32,
    pub pages_per_token: usize,
    pub flood_per_node: u32,
    pub rpcs: usize,
}

impl Sizes {
    /// The workload's sizes.
    pub const WORKLOAD: Sizes = Sizes {
        nodes: 64,
        tokens: 4,
        relay_hops: 10_000,
        bulk_hops: 15_000,
        pages_per_token: 32,
        flood_per_node: 256,
        rpcs: 6_000,
    };

    /// Deliveries the fabric must count for one repetition: each token
    /// is delivered once per hop, once more at its last node, and once
    /// as its completion notice; each flood post and each request once
    /// (replies travel on the requester's reply channel, not as
    /// envelopes); and one closing flush per node.
    pub fn deliveries(&self) -> [u64; 5] {
        let tokens = self.tokens as u64;
        let nodes = self.nodes as u64;
        [
            tokens * (u64::from(self.relay_hops) + 2),
            tokens * (u64::from(self.bulk_hops) + 2),
            nodes * (u64::from(self.flood_per_node) + 1),
            self.rpcs as u64,
            nodes,
        ]
    }
}

/// No software overhead and a small fixed wire latency: virtual time
/// still advances per hop, so ordering is exercised for real, while the
/// host clock measures delivery machinery only.
fn link() -> LinkCost {
    LinkCost {
        send_overhead_ns: 0,
        recv_overhead_ns: 0,
        latency_ns: 1_000,
        bytes_per_sec: 1_000_000_000,
        handler_ns: 0,
    }
}

fn fold(acc: u64, x: u64) -> u64 {
    acc.wrapping_mul(0x100_0000_01b3).wrapping_add(x.wrapping_add(1))
}

/// Departure jitter of the hop that produced `acc` (ns).
fn jitter_ns(acc: u64) -> u64 {
    interconnect::fault::mix(acc) % 512
}

/// A bulk token: relay bookkeeping plus its pages.
struct Bulk {
    origin: u32,
    hops_left: u32,
    acc: u64,
    pages: Vec<(u64, Page)>,
}

fn bulk_wire_bytes(pages: usize) -> u64 {
    (pages as u64) * (PAGE_BYTES as u64 + 8) + 16
}

fn first_stamp(origin: u64, page: u64) -> u64 {
    origin ^ page
}

/// What the relay of one zero-byte token must fold to.
fn relay_reference(s: &Sizes, origin: usize, salt: u64) -> u64 {
    let mut acc = salt;
    let mut node = (origin + 1) % s.nodes;
    for _ in 0..=s.relay_hops {
        acc = fold(acc, node as u64);
        node = (node + 1) % s.nodes;
    }
    acc
}

/// What the relay of one bulk token must fold to, its pages' final
/// stamps included.
fn bulk_reference(s: &Sizes, origin: usize, salt: u64) -> u64 {
    let mut acc = salt;
    let mut stamps: Vec<u64> =
        (0..s.pages_per_token as u64).map(|i| first_stamp(origin as u64, i)).collect();
    let mut node = (origin + 1) % s.nodes;
    for hops_left in (0..=s.bulk_hops).rev() {
        acc = fold(acc, node as u64);
        stamps[hops_left as usize % s.pages_per_token] = acc;
        node = (node + 1) % s.nodes;
    }
    stamps.iter().enumerate().fold(acc, |a, (id, stamp)| fold(a, id as u64 ^ stamp))
}

/// The rpc leg's reply to `x` from `node`.
fn echo(x: u64, node: NodeId) -> u64 {
    fold(x, node as u64)
}

/// The workload, set up: seeded choices and reference folds.
pub struct Relay {
    sizes: Sizes,
    /// Distinct token origins.
    origins: Vec<usize>,
    /// Initial fold value of every token.
    salt: u64,
    /// Flood destination offset (1..nodes).
    stride: usize,
    /// The rpc leg's peers, in call order.
    peers: Vec<NodeId>,
    relay_want: Vec<u64>,
    bulk_want: Vec<u64>,
}

impl Relay {
    pub fn new(seed: u64) -> Self {
        Self::with_sizes(seed, Sizes::WORKLOAD)
    }

    pub fn with_sizes(seed: u64, sizes: Sizes) -> Self {
        let mut rng = SplitMix(seed ^ 0x7265_6c61_7921);
        let mut origins = Vec::new();
        while origins.len() < sizes.tokens {
            let o = rng.range(0, sizes.nodes as u64) as usize;
            if !origins.contains(&o) {
                origins.push(o);
            }
        }
        let salt = rng.next();
        let stride = rng.range(1, sizes.nodes as u64) as usize;
        let peers = (0..sizes.rpcs).map(|_| rng.range(1, sizes.nodes as u64) as usize).collect();
        let relay_want = origins.iter().map(|&o| relay_reference(&sizes, o, salt)).collect();
        let bulk_want = origins.iter().map(|&o| bulk_reference(&sizes, o, salt)).collect();
        Self { sizes, origins, salt, stride, peers, relay_want, bulk_want }
    }

    /// The seeded inputs, for the reproducibility test.
    #[cfg(test)]
    fn inputs(&self) -> (Vec<usize>, u64, usize, Vec<NodeId>) {
        (self.origins.clone(), self.salt, self.stride, self.peers.clone())
    }

    fn register(&self, net: &Network, sunk: &Arc<Vec<AtomicU64>>) {
        let nodes = self.sizes.nodes;
        net.register_all(RELAY, |node| {
            move |ctx: &HandlerCtx<'_>, _src, p: Payload| {
                let (origin, hops_left, acc) = downcast::<(u32, u32, u64)>(p);
                let acc = fold(acc, node as u64);
                let depart = ctx.now + jitter_ns(acc);
                if hops_left == 0 {
                    ctx.post_at(origin as NodeId, DONE, acc, 0, depart);
                } else {
                    ctx.post_at((node + 1) % nodes, RELAY, (origin, hops_left - 1, acc), 0, depart);
                }
                Outcome::done()
            }
        });
        net.register_all(BULK, |node| {
            move |ctx: &HandlerCtx<'_>, _src, p: Payload| {
                let mut t = downcast::<Bulk>(p);
                t.acc = fold(t.acc, node as u64);
                let slot = t.hops_left as usize % t.pages.len();
                t.pages[slot].1.make_mut()[..8].copy_from_slice(&t.acc.to_le_bytes());
                let depart = ctx.now + jitter_ns(t.acc);
                if t.hops_left == 0 {
                    let mut acc = t.acc;
                    for (id, page) in &t.pages {
                        let stamp = u64::from_le_bytes(page[..8].try_into().expect("8-byte stamp"));
                        acc = fold(acc, *id ^ stamp);
                    }
                    ctx.post_at(t.origin as NodeId, DONE, acc, 0, depart);
                } else {
                    t.hops_left -= 1;
                    let wire = bulk_wire_bytes(t.pages.len());
                    ctx.post_at((node + 1) % nodes, BULK, t, wire, depart);
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
        net.register_all(SINK, |node| {
            let sunk = sunk.clone();
            move |_c: &HandlerCtx<'_>, _s, _p: Payload| {
                sunk[node].fetch_add(1, Relaxed);
                Outcome::done()
            }
        });
        net.register_all(FLUSH, |_node| {
            |_c: &HandlerCtx<'_>, _s, _p: Payload| Outcome::reply((), 0)
        });
        net.register_all(ECHO, |node| {
            move |_c: &HandlerCtx<'_>, _s, p: Payload| {
                Outcome::reply(echo(downcast::<u64>(p), node), 8)
            }
        });
    }

    /// Run the rpc leg from `port`; returns each round trip's host time
    /// in ns and how many replies were wrong.
    fn rpc_leg(&self, port: &interconnect::NodePort) -> (Vec<u64>, u64) {
        let mut rtts = Vec::with_capacity(self.peers.len());
        let mut wrong = 0;
        for (i, &peer) in self.peers.iter().enumerate() {
            let x = self.salt ^ i as u64;
            let started = Instant::now();
            let got = downcast::<u64>(port.request(peer, ECHO, x, 8));
            rtts.push(started.elapsed().as_nanos() as u64);
            wrong += u64::from(got != echo(x, peer));
        }
        (rtts, wrong)
    }

    /// Host round-trip quantiles of a short rpc leg on a fabric of its
    /// own, for the workloads that do not run this one.
    pub fn rtt_probe(seed: u64) -> (f64, f64) {
        let relay = Relay::with_sizes(seed, Sizes { rpcs: 2_000, ..Sizes::WORKLOAD });
        let net = Network::builder(relay.sizes.nodes, link()).build();
        relay.register(&net, &Arc::new(Vec::new()));
        let port = net.port(0, VirtualClock::new());
        let (mut rtts, _) = relay.rpc_leg(&port);
        rtts.sort_unstable();
        (percentile_sorted(&rtts, 0.5) as f64, percentile_sorted(&rtts, 0.99) as f64)
    }
}

/// Run `f` as the span `leg:<name>`; returns its result and the host
/// seconds it took.
fn leg<T>(lane: &mut Lane<'_>, parent: u64, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = lane.scope(parent, &format!("leg:{name}"), |_, _| f());
    (out, started.elapsed().as_secs_f64())
}

impl Workload for Relay {
    fn sizes(&self) -> Json {
        let s = &self.sizes;
        Json::obj([
            ("nodes", Json::from(s.nodes as u64)),
            ("tokens", Json::from(s.tokens as u64)),
            ("relay_hops", Json::from(u64::from(s.relay_hops))),
            ("bulk_hops", Json::from(u64::from(s.bulk_hops))),
            ("pages_per_token", Json::from(s.pages_per_token as u64)),
            ("flood_per_node", Json::from(u64::from(s.flood_per_node))),
            ("rpcs", Json::from(s.rpcs as u64)),
            ("deliveries", Json::from(s.deliveries().iter().sum::<u64>())),
        ])
    }

    fn rep(&self, lane: &mut Lane<'_>, parent: u64) -> RepOut {
        let s = &self.sizes;
        let mut out = RepOut::default();
        let sunk: Arc<Vec<AtomicU64>> = Arc::new((0..s.nodes).map(|_| AtomicU64::new(0)).collect());
        let (net, ports) = lane.scope(parent, "net.build", |_, _| {
            let net = Network::builder(s.nodes, link()).build();
            self.register(&net, &sunk);
            let ports: Vec<_> = (0..s.nodes).map(|n| net.port(n, VirtualClock::new())).collect();
            (net, ports)
        });
        if lane.recording().is_some() {
            crate::host::sample_threads();
        }
        let [relay_n, bulk_n, flood_n, rpc_n, drain_n] = s.deliveries();
        let collect = || -> Vec<u64> {
            self.origins
                .iter()
                .map(|&o| downcast::<u64>(ports[o].wait_mailbox(tag(DONE, 0))))
                .collect()
        };

        let (got_relay, secs) = leg(lane, parent, "relay", || {
            for &o in &self.origins {
                ports[o].post((o + 1) % s.nodes, RELAY, (o as u32, s.relay_hops, self.salt), 0);
            }
            collect()
        });
        out.values.insert("interconnect.relay_events_per_s", relay_n as f64 / secs);

        let (got_bulk, secs) = leg(lane, parent, "bulk", || {
            for &o in &self.origins {
                let pages = (0..s.pages_per_token as u64)
                    .map(|i| {
                        let mut p = vec![0u8; PAGE_BYTES];
                        p[..8].copy_from_slice(&first_stamp(o as u64, i).to_le_bytes());
                        (i, Page::from(p))
                    })
                    .collect();
                let t = Bulk { origin: o as u32, hops_left: s.bulk_hops, acc: self.salt, pages };
                ports[o].post((o + 1) % s.nodes, BULK, t, bulk_wire_bytes(s.pages_per_token));
            }
            collect()
        });
        out.values.insert("interconnect.bulk_events_per_s", bulk_n as f64 / secs);

        let ((), secs) = leg(lane, parent, "flood", || {
            for (o, port) in ports.iter().enumerate() {
                let dst = (o + self.stride) % s.nodes;
                for i in 0..s.flood_per_node {
                    port.post(dst, SINK, u64::from(i), 8);
                }
                downcast::<()>(port.request(dst, FLUSH, (), 0));
            }
        });
        out.values.insert("interconnect.flood_events_per_s", flood_n as f64 / secs);

        let ((mut rtts, wrong_replies), _) = leg(lane, parent, "rpc", || self.rpc_leg(&ports[0]));

        // Every node answers one more flush, so everything queued before
        // it has been counted when the counters are read.
        for node in 0..s.nodes {
            downcast::<()>(ports[0].request(node, FLUSH, (), 0));
        }
        let stats = net.stats().snapshot();
        let backpressure_waits = net.backpressure_waits();
        out.sim_ns = ports.iter().map(|p| p.clock().now()).max().unwrap_or(0);
        lane.scope(parent, "net.teardown", |_, _| {
            drop(ports);
            drop(net);
        });

        for (what, got, want) in
            [("relay", &got_relay, &self.relay_want), ("bulk", &got_bulk, &self.bulk_want)]
        {
            for ((&o, &g), &w) in self.origins.iter().zip(got).zip(want) {
                out.verify(&format!("{what} token from node {o}"), g, w);
            }
        }
        let sunk_total: u64 = sunk.iter().map(|c| c.load(Relaxed)).sum();
        let flood_total = s.nodes as u64 * u64::from(s.flood_per_node);
        out.check(flood_total, flood_total.abs_diff(sunk_total), || {
            format!("flood: {sunk_total} of {flood_total} posts processed")
        });
        out.check(rpc_n, wrong_replies, || format!("rpc: {wrong_replies} wrong replies"));
        let expected = relay_n + bulk_n + flood_n + rpc_n + drain_n;
        out.verify("fabric delivered counter", stats["delivered"], expected);

        out.count_layer("interconnect", &stats);
        out.values.insert("interconnect.backpressure_waits", backpressure_waits as f64);
        rtts.sort_unstable();
        out.values.insert("interconnect.rtt_ns_p50", percentile_sorted(&rtts, 0.5) as f64);
        out.values.insert("interconnect.rtt_ns_p99", percentile_sorted(&rtts, 0.99) as f64);
        out.work = expected;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: Sizes = Sizes {
        nodes: 8,
        tokens: 2,
        relay_hops: 40,
        bulk_hops: 70,
        pages_per_token: 4,
        flood_per_node: 16,
        rpcs: 50,
    };

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(Relay::with_sizes(7, SMALL).inputs(), Relay::with_sizes(7, SMALL).inputs());
        assert_ne!(Relay::with_sizes(7, SMALL).inputs(), Relay::with_sizes(8, SMALL).inputs());
    }

    #[test]
    fn fabric_agrees_with_the_sequential_fold() {
        let relay = Relay::with_sizes(3, SMALL);
        let out = relay.rep(&mut Lane::off(), 0);
        assert_eq!(out.failures, Vec::<String>::new());
        assert_eq!(out.attempted, 2 * 2 + 8 * 16 + 50 + 1);
        assert_eq!(out.work, SMALL.deliveries().iter().sum::<u64>());
        assert!(out.sim_ns > 0);
    }
}
