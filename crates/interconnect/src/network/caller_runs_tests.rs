//! Where delivery runs: on the requester's own thread when it would
//! otherwise sleep for an idle node, on a pool worker in every other
//! case.
#![cfg(test)]

use super::tests::tiny_link;
use super::*;
use crate::engine::ENGINE_BATCH;
use sim::VirtualClock;
use crate::message::downcast;
use std::sync::mpsc;
use std::thread::ThreadId;

const WHO: u32 = 0x70;

fn sharded(nodes: usize, workers: usize) -> Network {
    Network::builder(nodes, tiny_link()).engine(EngineMode { workers }).build()
}

/// Register a handler on `node` that replies with the id of the
/// thread it ran on.
fn reply_thread_id(net: &Network, node: NodeId) {
    net.router(node).register(WHO, |_c, _s, _p| Outcome::reply(std::thread::current().id(), 8));
}

#[test]
fn request_to_idle_node_runs_on_the_requesters_thread() {
    let net = sharded(2, 2);
    reply_thread_id(&net, 1);
    let port = net.port(0, VirtualClock::new());
    for _ in 0..3 {
        let ran_on = downcast::<ThreadId>(port.request(1, WHO, (), 8));
        assert_eq!(ran_on, std::thread::current().id());
    }
}

#[test]
fn self_request_completes_inline() {
    let net = sharded(1, 1);
    reply_thread_id(&net, 0);
    let port = net.port(0, VirtualClock::new());
    let ran_on = downcast::<ThreadId>(port.request(0, WHO, (), 8));
    assert_eq!(ran_on, std::thread::current().id());
}

#[test]
fn post_from_an_application_thread_is_left_to_a_worker() {
    let net = sharded(2, 2);
    let (tx, rx) = mpsc::channel::<ThreadId>();
    let tx = Mutex::new(tx);
    net.router(1).register(0x71, move |_c, _s, _p| {
        tx.lock().send(std::thread::current().id()).unwrap();
        Outcome::done()
    });
    let port = net.port(0, VirtualClock::new());
    port.post(1, 0x71, (), 8);
    assert_ne!(rx.recv().unwrap(), std::thread::current().id());
}

#[test]
fn request_to_a_scheduled_node_is_served_by_a_worker() {
    // Node 1 is held scheduled by a worker stuck in GATE. A full
    // batch of posts and then the request queue up behind it. The
    // request lost the claim when it was pushed; whoever wins the
    // node after GATE returns (the worker re-claiming, or the
    // requester slipping in at the retire) drains the full batch of
    // posts first, and a full batch always goes back to the rings —
    // so the request's handler runs on a worker either way.
    const GATE: u32 = 0x72;
    const SINK: u32 = 0x73;
    let net = sharded(2, 2);
    reply_thread_id(&net, 1);
    let (entered_tx, entered_rx) = mpsc::channel::<()>();
    let (open_tx, open_rx) = mpsc::channel::<()>();
    let gate = Mutex::new((entered_tx, open_rx));
    net.router(1).register(GATE, move |_c, _s, _p| {
        let g = gate.lock();
        g.0.send(()).unwrap();
        g.1.recv().unwrap();
        Outcome::done()
    });
    net.router(1).register(SINK, |_c, _s, _p| Outcome::done());
    let port = net.port(0, VirtualClock::new());
    port.post(1, GATE, (), 0);
    entered_rx.recv().unwrap();
    for _ in 0..ENGINE_BATCH {
        port.post(1, SINK, (), 0);
    }
    let ran_on = std::thread::scope(|s| {
        let queues = &net.shared.queues;
        s.spawn(move || {
            while queues[1].q.len() <= ENGINE_BATCH {
                std::thread::yield_now();
            }
            open_tx.send(()).unwrap();
        });
        downcast::<ThreadId>(port.request(1, WHO, (), 8))
    });
    assert_ne!(ran_on, std::thread::current().id());
}

/// Register `kind` on `node`: report the thread it ran on, then
/// post `next` to every node of `to`.
fn report_and_post(
    net: &Network,
    node: NodeId,
    kind: u32,
    ran_on: &mpsc::Sender<(NodeId, ThreadId)>,
    next: u32,
    to: std::ops::Range<NodeId>,
) {
    let ran_on = Mutex::new(ran_on.clone());
    net.router(node).register(kind, move |ctx, _s, _p| {
        ran_on.lock().send((ctx.node, std::thread::current().id())).unwrap();
        for dst in to.clone() {
            ctx.post(dst, next, (), 0);
        }
        Outcome::done()
    });
}

#[test]
fn post_from_a_second_level_inline_drive_is_left_to_a_worker() {
    // 0 -> 1 (the blocking send's destination) -> 2 (claimed by that
    // batch: driven by the sender too) -> 3 (claimed one level
    // further down: a ring's).
    let net = sharded(4, 2);
    let (tx, rx) = mpsc::channel();
    for node in 1..4 {
        report_and_post(&net, node, 0x76, &tx, 0x76, node + 1..(node + 2).min(4));
    }
    net.port(0, VirtualClock::new()).post_parking(1, 0x76, (), 0);
    let me = std::thread::current().id();
    assert_eq!(rx.recv().unwrap(), (1, me));
    assert_eq!(rx.recv().unwrap(), (2, me));
    let (node, thread) = rx.recv().unwrap();
    assert_eq!(node, 3);
    assert_ne!(thread, me);
}

#[test]
fn fan_out_beyond_one_batch_of_nodes_is_left_to_a_worker() {
    // Node 1 posts to ENGINE_BATCH + 1 idle nodes: the sender drives
    // the first ENGINE_BATCH of them, the rings get the last.
    let last = 2 + ENGINE_BATCH;
    let net = sharded(last + 1, 2);
    let (tx, rx) = mpsc::channel();
    report_and_post(&net, 1, 0x77, &tx, 0x78, 2..last + 1);
    for node in 2..last + 1 {
        report_and_post(&net, node, 0x78, &tx, 0, 0..0);
    }
    net.port(0, VirtualClock::new()).post_parking(1, 0x77, (), 0);
    let me = std::thread::current().id();
    let ran: Vec<_> = (0..ENGINE_BATCH + 2).map(|_| rx.recv().unwrap()).collect();
    let (mine, workers): (Vec<_>, Vec<_>) = ran.into_iter().partition(|r| r.1 == me);
    assert_eq!(mine.iter().map(|r| r.0).collect::<Vec<_>>(), (1..last).collect::<Vec<_>>());
    assert_eq!(workers.iter().map(|r| r.0).collect::<Vec<_>>(), vec![last]);
}

#[test]
fn inline_handler_panic_fails_the_request_not_the_requester() {
    let net = sharded(2, 1);
    let (tx, rx) = mpsc::channel::<ThreadId>();
    let tx = Mutex::new(tx);
    net.router(1).register(0x74, move |_c, _s, p| {
        tx.lock().send(std::thread::current().id()).unwrap();
        assert!(downcast::<u32>(p) != 13, "unlucky payload");
        Outcome::reply((), 0)
    });
    let port = net.port(0, VirtualClock::new());
    let err = port.try_request(1, 0x74, 13u32, 8).unwrap_err();
    assert!(matches!(err, RequestError::HandlerFailed { kind: 0x74, .. }), "{err}");
    assert_eq!(rx.recv().unwrap(), std::thread::current().id(), "the panic was ours to contain");
    // Still here, and the node — retired by our drive — still serves.
    assert!(port.try_request(1, 0x74, 21u32, 8).is_ok());
    assert_eq!(net.stats().get("handler_failures"), 1);
}

#[test]
fn batch_to_idle_homes_is_worker_count_invariant() {
    let run = |workers: usize| {
        let net = sharded(5, workers);
        for home in 1..5 {
            net.router(home).register(0x75, move |_c, src, p| {
                Outcome::reply_costing(downcast::<u64>(p) * 10 + (home + src) as u64, 64, 300)
            });
        }
        let clock = VirtualClock::new();
        let port = net.port(0, clock.clone());
        let replies: Vec<u64> = port
            .request_batch((1..5).map(|home| (home, 0x75, home as u64, 128)).collect())
            .unwrap()
            .into_iter()
            .map(downcast::<u64>)
            .collect();
        (replies, clock.now(), net.stats().snapshot())
    };
    let reference = run(1);
    assert_eq!(reference.0, vec![11, 22, 33, 44]);
    for workers in [1, 2, 0] {
        assert_eq!(run(workers), reference, "sharded:{workers}");
    }
}
