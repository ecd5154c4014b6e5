#![cfg(test)]

use super::*;
use sim::VirtualClock;
use crate::message::downcast;

pub(super) fn tiny_link() -> LinkCost {
    LinkCost {
        send_overhead_ns: 100,
        recv_overhead_ns: 100,
        latency_ns: 1_000,
        bytes_per_sec: 1_000_000_000,
        handler_ns: 50,
    }
}

#[test]
fn request_reply_roundtrip_and_timing() {
    let net = Network::builder(2, tiny_link()).build();
    net.router(1).register(0x10, |_ctx, src, p| {
        let x = downcast::<u64>(p);
        Outcome::reply(x + src as u64 + 100, 8)
    });
    let clock = VirtualClock::new();
    let port = net.port(0, clock.clone());
    let rep = port.request(1, 0x10, 5u64, 8);
    assert_eq!(downcast::<u64>(rep), 105);
    // send 100 + wire 1000+8 + service (100+50) + wire back 1000+8 + recv 100
    assert_eq!(clock.now(), 100 + 1008 + 150 + 1008 + 100);
}

#[test]
fn handler_saturation_is_visible_in_reply_times() {
    // Handler occupancy is windowed demand: concurrent heavy
    // requests (2 ms of service each, far above the 1 ms/1 ms
    // window capacity) must slow each other down, while a single
    // request pays only its own service.
    let net = Network::builder(2, tiny_link()).build();
    net.router(1).register(0x11, |_ctx, _src, p| {
        let x = downcast::<u32>(p);
        Outcome::reply_costing(x, 4, 2_000_000)
    });
    let solo = {
        let c = VirtualClock::new();
        let p = net.port(0, c.clone());
        assert_eq!(downcast::<u32>(p.request(1, 0x11, 1u32, 4)), 1);
        c.now()
    };
    // Two more requests from fresh clocks at time 0: their service
    // demand lands in the same windows the first request used, plus
    // each other's — the slower of the two must exceed solo by a
    // contention factor.
    let c1 = VirtualClock::new();
    let p1 = net.port(0, c1.clone());
    let c2 = VirtualClock::new();
    let p2 = net.port(0, c2.clone());
    let h1 = std::thread::spawn(move || {
        downcast::<u32>(p1.request(1, 0x11, 2u32, 4))
    });
    let h2 = std::thread::spawn(move || {
        downcast::<u32>(p2.request(1, 0x11, 3u32, 4))
    });
    assert_eq!(h1.join().unwrap(), 2);
    assert_eq!(h2.join().unwrap(), 3);
    let slow = c1.now().max(c2.now());
    assert!(
        slow > solo + 1_000_000,
        "saturated handler should slow concurrent requests: solo={solo} slow={slow}"
    );
}

#[test]
fn post_wakes_mailbox_via_handler() {
    let net = Network::builder(2, tiny_link()).build();
    let mb = net.mailbox(1);
    net.router(1).register(0x12, move |ctx, _src, p| {
        mb.deposit(crate::mailbox::tag(0x12, 0), p, ctx.now);
        Outcome::done()
    });
    let c0 = VirtualClock::new();
    let p0 = net.port(0, c0);
    p0.post(1, 0x12, 77u8, 1);
    let c1 = VirtualClock::new();
    let p1 = net.port(1, c1.clone());
    let payload = p1.wait_mailbox(crate::mailbox::tag(0x12, 0));
    assert_eq!(downcast::<u8>(payload), 77);
    assert!(c1.now() > 1_000, "waiter clock advanced to arrival");
}

#[test]
fn handler_can_post_onward() {
    // Relay: node0 -> node1 handler -> posts to node2 mailbox.
    let net = Network::builder(3, tiny_link()).build();
    net.router(1).register(0x13, |ctx, src, p| {
        ctx.post(2, 0x14, (src, downcast::<u16>(p)), 4);
        Outcome::done()
    });
    let mb2 = net.mailbox(2);
    net.router(2).register(0x14, move |ctx, _src, p| {
        mb2.deposit(1, p, ctx.now);
        Outcome::done()
    });
    let p0 = net.port(0, VirtualClock::new());
    p0.post(1, 0x13, 9u16, 4);
    let p2 = net.port(2, VirtualClock::new());
    let (origin, val) = downcast::<(NodeId, u16)>(p2.wait_mailbox(1));
    assert_eq!((origin, val), (0, 9));
}

#[test]
fn unified_layer_reduces_round_trip() {
    let run = |saving: u64| {
        let net = Network::builder(2, tiny_link()).unified(saving).build();
        net.router(1).register(1, |_c, _s, _p| Outcome::reply((), 0));
        let c = VirtualClock::new();
        let p = net.port(0, c.clone());
        let _ = p.request(1, 1, (), 0);
        c.now()
    };
    assert!(run(50) < run(0));
}

#[test]
fn local_message_skips_wire() {
    let net = Network::builder(1, tiny_link()).build();
    net.router(0).register(2, |_c, _s, _p| Outcome::reply((), 0));
    let c = VirtualClock::new();
    let p = net.port(0, c.clone());
    let _ = p.request(0, 2, (), 0);
    // 100 + 500 + 150 + 500 + 100 — far less than one wire latency pair.
    assert!(c.now() < 2 * 1_000);
}

#[test]
fn stats_count_traffic() {
    let net = Network::builder(2, tiny_link()).build();
    net.router(1).register(3, |_c, _s, _p| Outcome::reply((), 0));
    net.router(1).register(5, |_c, _s, _p| Outcome::done());
    let p = net.port(0, VirtualClock::new());
    let _ = p.request(1, 3, (), 64);
    p.post(1, 5, (), 32);
    assert_eq!(net.stats().get("requests"), 1);
    assert_eq!(net.stats().get("posts"), 1);
    assert!(net.stats().get("bytes") >= 96);
}

#[test]
fn broadcast_reaches_all_others() {
    let net = Network::builder(4, tiny_link()).build();
    let counters: Vec<_> = (0..4).map(|_| Arc::new(sim::Counter::new())).collect();
    for (n, counter) in counters.iter().enumerate() {
        let c = counter.clone();
        net.router(n).register(4, move |_c, _s, _p| {
            c.incr();
            Outcome::done()
        });
    }
    let p = net.port(1, VirtualClock::new());
    p.broadcast(4, (), 8);
    // Drop the network to join the workers, guaranteeing delivery.
    drop(net);
    let got: Vec<u64> = counters.iter().map(|c| c.get()).collect();
    assert_eq!(got, vec![1, 0, 1, 1]);
}

#[test]
fn unknown_kind_is_nacked_not_fatal() {
    let net = Network::builder(2, tiny_link()).build();
    net.router(1).register(0x30, |_c, _s, _p| Outcome::reply((), 0));
    let p = net.port(0, VirtualClock::new());
    let err = p.try_request(1, 0x31, (), 8).unwrap_err();
    assert!(matches!(err, RequestError::HandlerFailed { kind: 0x31, .. }), "{err}");
    assert_eq!(net.stats().get("handler_failures"), 1);
    // The daemon survived and still serves registered kinds.
    assert!(p.try_request(1, 0x30, (), 8).is_ok());
}

#[test]
fn deferred_reply_rendezvous_answers_all_requesters() {
    // A 2-party rendezvous at node 2: the first arrival's reply is
    // parked (Outcome::defer); the last arrival discharges it and
    // gets the same collective answer in its own reply.
    let net = Network::builder(3, tiny_link())
        .resilience(Some(Resilience::default()))
        .build();
    let seen = std::sync::Arc::new(Mutex::new(Vec::<(NodeId, u64)>::new()));
    {
        let seen = seen.clone();
        net.router(2).register(0x40, move |ctx, src, p| {
            let x = downcast::<u64>(p);
            let mut g = seen.lock();
            g.push((src, x));
            if g.len() < 2 {
                return Outcome::defer(7);
            }
            let sum: u64 = g.iter().map(|&(_, v)| v).sum();
            for &(who, _) in g.iter() {
                if who != src {
                    ctx.complete_deferred(7, who, sum, 8, ctx.now);
                }
            }
            Outcome::reply(sum, 8)
        });
    }
    let handles: Vec<_> = (0..2)
        .map(|n| {
            let port = net.port(n, VirtualClock::new());
            std::thread::spawn(move || {
                downcast::<u64>(port.request(2, 0x40, (n as u64 + 1) * 10, 8))
            })
        })
        .collect();
    for h in handles {
        assert_eq!(h.join().unwrap(), 30);
    }
}

#[test]
fn parked_deferred_reply_fails_at_teardown() {
    // A deferred request never discharged must not hang teardown:
    // Network::drop fails it with FabricStopped.
    let net = Network::builder(2, tiny_link())
        .resilience(Some(Resilience::default()))
        .build();
    net.router(1).register(0x41, |_c, _s, _p| Outcome::defer(1));
    let port = net.port(0, VirtualClock::new());
    let h = std::thread::spawn(move || port.try_request(1, 0x41, (), 8));
    std::thread::sleep(std::time::Duration::from_millis(50));
    drop(net);
    assert_eq!(h.join().unwrap().unwrap_err(), RequestError::FabricStopped);
}

#[test]
fn request_after_teardown_gets_fabric_stopped() {
    let net = Network::builder(2, tiny_link()).build();
    net.router(1).register(0x32, |_c, _s, _p| Outcome::reply((), 0));
    let p = net.port(0, VirtualClock::new());
    assert!(p.try_request(1, 0x32, (), 8).is_ok());
    drop(net);
    assert_eq!(p.try_request(1, 0x32, (), 8).unwrap_err(), RequestError::FabricStopped);
}

fn all_drop_plan() -> FaultPlan {
    FaultPlan {
        seed: 1,
        default_link: crate::fault::LinkFaults {
            drop_ppm: crate::fault::PPM as u32,
            ..Default::default()
        },
        ..Default::default()
    }
}

#[test]
fn dropped_request_times_out_in_virtual_time() {
    let net = Network::builder(2, tiny_link()).faults(Some(all_drop_plan())).build();
    net.router(1).register(0x40, |_c, _s, _p| Outcome::reply((), 0));
    let c = VirtualClock::new();
    let p = net.port(0, c.clone());
    let err = p.try_request(1, 0x40, (), 8).unwrap_err();
    let deadline = 100 + Resilience::default().timeout_ns;
    assert_eq!(err, RequestError::Timeout { deadline_ns: deadline });
    assert_eq!(c.now(), deadline, "clock advanced to the virtual deadline");
    assert_eq!(net.stats().get("faults_dropped"), 1);
    assert_eq!(net.stats().get("timeouts"), 1);
}

#[test]
fn crashed_node_reports_node_down_then_heals() {
    let plan = FaultPlan {
        crashes: vec![crate::fault::CrashWindow {
            node: 1,
            from_ns: 0,
            until_ns: 1_000_000,
        }],
        ..FaultPlan::seeded(3)
    };
    let net = Network::builder(2, tiny_link()).faults(Some(plan)).build();
    net.router(1).register(0x41, |_c, _s, _p| Outcome::reply((), 0));
    let c = VirtualClock::new();
    let p = net.port(0, c.clone());
    match p.try_request(1, 0x41, (), 8) {
        Err(RequestError::NodeDown { node: 1, .. }) => {}
        other => panic!("expected NodeDown, got {other:?}"),
    }
    assert_eq!(net.stats().get("nodedown"), 1);
    // request_retrying backs off past the heal time and succeeds.
    c.advance_to(900_000);
    assert!(p.request_retrying(1, 0x41, (), 8).is_ok());
    assert!(net.stats().get("retries") >= 1);
}

#[test]
fn duplicates_are_deduplicated_at_the_daemon() {
    let plan = FaultPlan {
        seed: 5,
        default_link: crate::fault::LinkFaults {
            dup_ppm: crate::fault::PPM as u32,
            ..Default::default()
        },
        ..Default::default()
    };
    let net = Network::builder(2, tiny_link()).faults(Some(plan)).build();
    let hits = Arc::new(sim::Counter::new());
    let h = hits.clone();
    net.router(1).register(0x42, move |_c, _s, p| {
        h.incr();
        Outcome::reply(downcast::<u32>(p) * 2, 8)
    });
    let p = net.port(0, VirtualClock::new());
    for i in 0..8u32 {
        assert_eq!(downcast::<u32>(p.request_retrying(1, 0x42, i, 8).unwrap()), i * 2);
    }
    drop(net);
    assert_eq!(hits.get(), 8, "handler ran once per request despite duplication");
}

#[test]
fn dup_dedup_counters_match() {
    let plan = FaultPlan {
        seed: 6,
        default_link: crate::fault::LinkFaults {
            dup_ppm: crate::fault::PPM as u32,
            ..Default::default()
        },
        ..Default::default()
    };
    let net = Network::builder(2, tiny_link()).faults(Some(plan)).build();
    net.router(1).register(0x43, |_c, _s, _p| Outcome::reply((), 0));
    let p = net.port(0, VirtualClock::new());
    for _ in 0..5 {
        let _ = p.request_retrying(1, 0x43, (), 8).unwrap();
    }
    let dups = net.stats().get("faults_dup");
    drop(net);
    assert!(dups >= 5, "forward and reply streams both duplicate");
}

#[test]
fn faulty_fabric_same_seed_same_schedule() {
    let run = |seed: u64| {
        let plan = FaultPlan {
            seed,
            default_link: crate::fault::LinkFaults {
                drop_ppm: 200_000,
                dup_ppm: 100_000,
                delay_ppm: 200_000,
                delay_ns: 50_000,
                ..Default::default()
            },
            ..Default::default()
        };
        let net = Network::builder(2, tiny_link()).faults(Some(plan)).build();
        net.router(1).register(0x44, |_c, _s, p| Outcome::reply(downcast::<u32>(p), 8));
        let c = VirtualClock::new();
        let p = net.port(0, c.clone());
        for i in 0..32u32 {
            let _ = p.request_retrying(1, 0x44, i, 8).unwrap();
        }
        let stats: Vec<u64> = NET_STAT_NAMES.iter().map(|n| net.stats().get(n)).collect();
        (c.now(), stats)
    };
    assert_eq!(run(11), run(11), "same seed reproduces time and counters");
    assert_ne!(run(11), run(12), "different seed diverges");
}

#[test]
fn lost_tagged_post_leaves_tombstone() {
    let net = Network::builder(2, tiny_link()).faults(Some(all_drop_plan())).build();
    let mb = net.mailbox(1);
    net.router(1).register(0x45, move |ctx, _src, p| {
        mb.deposit(crate::mailbox::tag(0x45, 0), p, ctx.now);
        Outcome::done()
    });
    let p0 = net.port(0, VirtualClock::new());
    p0.post_tagged(1, 0x45, 7u8, 1, crate::mailbox::tag(0x45, 0));
    let p1 = net.port(1, VirtualClock::new());
    let err = p1.wait_mailbox_checked(crate::mailbox::tag(0x45, 0)).unwrap_err();
    assert!(matches!(err, RequestError::Timeout { .. }));
    assert_eq!(net.stats().get("tombstones"), 1);
}
