//! `send_reliable`, `rendezvous`, `answer_later` and `answer_all` on
//! both kinds of fabric, against a barrier-shaped exchange. The
//! pinned nanoseconds were recorded from the hand-written arms
//! (`post` + `wait_mailbox` / `request_retrying` + `defer` +
//! `complete_deferred`) the two DSM drivers carried before these
//! functions existed.
#![cfg(test)]

use super::tests::tiny_link;
use super::*;
use crossbeam::channel::unbounded;
use sim::VirtualClock;
use crate::fault::PartitionWindow;
use crate::message::downcast;
use crossbeam::channel::Receiver;
use std::thread::ThreadId;

const ARRIVE: u32 = 0x60;
const ANSWER: u32 = 0x61;
const TAG: u64 = 0x61_0000_0009;

#[derive(Default)]
struct Barrier {
    arrived: Vec<(NodeId, u64)>,
    latest_ns: u64,
    released: Option<(u64, u64)>,
}

/// What [`install_barrier`] hands back to a test.
struct Installed {
    /// The order `answer_all` built the answers in.
    order: Arc<Mutex<Vec<NodeId>>>,
    /// Signalled once per handled arrival.
    seen: Receiver<()>,
    /// `(kind, node, thread)` of every `ARRIVE` and `ANSWER` handler
    /// run, in host order.
    ran_on: Arc<Mutex<Vec<(u32, NodeId, ThreadId)>>>,
}

/// A barrier of `parties` managed by node 0. Arrivals carry a
/// number; `who`'s answer is their sum plus `who`, `16 + 8 * who`
/// bytes on the wire, not before the latest arrival's service end.
fn install_barrier(net: &Network, parties: usize) -> Installed {
    let order = Arc::new(Mutex::new(Vec::new()));
    let ran_on = Arc::new(Mutex::new(Vec::new()));
    let (seen_tx, seen) = unbounded();
    let (state, built, seen_tx) = (Mutex::new(Barrier::default()), order.clone(), Mutex::new(seen_tx));
    let ran = ran_on.clone();
    net.router(0).register(ARRIVE, move |ctx, src, p| {
        ran.lock().push((ARRIVE, ctx.node, std::thread::current().id()));
        let x = downcast::<u64>(p);
        let mut st = state.lock();
        let out = if let Some((sum, at_ns)) = st.released {
            // A retried arrival: its answer was lost.
            Outcome::reply_not_before(sum + src as u64, 16 + 8 * src as u64, at_ns)
        } else {
            st.arrived.push((src, x));
            st.latest_ns = st.latest_ns.max(ctx.now);
            if st.arrived.len() < parties {
                ctx.answer_later(TAG)
            } else {
                let sum: u64 = st.arrived.iter().map(|&(_, v)| v).sum();
                let at_ns = st.latest_ns;
                st.released = Some((sum, at_ns));
                let waiters = st.arrived.iter().map(|&(who, _)| who).collect();
                ctx.answer_all(ANSWER, TAG, at_ns, src, waiters, |who| {
                    built.lock().push(who);
                    (sum + who as u64, 16 + 8 * who as u64)
                })
            }
        };
        let _ = seen_tx.lock().send(());
        out
    });
    net.register_all(ANSWER, |node| {
        let (mb, ran) = (net.mailbox(node), ran_on.clone());
        move |ctx: &HandlerCtx<'_>, _src, p| {
            ran.lock().push((ANSWER, ctx.node, std::thread::current().id()));
            mb.deposit(TAG, p, ctx.now);
            Outcome::done()
        }
    });
    Installed { order, seen, ran_on }
}

/// `node` joins the barrier at virtual time `start_ns`; returns its
/// answer and the clock it left with.
fn arrive(net: &Network, node: NodeId, start_ns: u64) -> JoinHandle<(u64, u64)> {
    let clock = VirtualClock::starting_at(start_ns);
    let port = net.port(node, clock.clone());
    std::thread::spawn(move || {
        let answer = port.rendezvous(0, ARRIVE, 10 * (node as u64 + 1), 24, TAG).unwrap();
        (downcast::<u64>(answer), clock.now())
    })
}

/// Every party reaches the manager in turn, highest rank first in
/// host order. Returns what each left with, by rank, and the order
/// the answers were built in.
fn barrier_exchange(net: &Network) -> (Vec<(u64, u64)>, Vec<NodeId>) {
    let barrier = install_barrier(net, net.nodes());
    let handles: Vec<_> = (0..net.nodes())
        .rev()
        .map(|node| {
            let h = arrive(net, node, node as u64 * 10_000);
            barrier.seen.recv().unwrap();
            h
        })
        .collect();
    let left: Vec<_> = handles.into_iter().rev().map(|h| h.join().unwrap()).collect();
    let order = barrier.order.lock().clone();
    (left, order)
}

#[test]
fn lossless_rendezvous_is_post_and_mailbox_wait_to_the_nanosecond() {
    let net = Network::builder(3, tiny_link()).build();
    let (left, order) = barrier_exchange(&net);
    assert_eq!(left, vec![(60, 22_024), (61, 22_548), (62, 22_556)]);
    assert_eq!(order, vec![0, 1, 2], "answers leave in rank order");
}

#[test]
fn resilient_rendezvous_is_one_request_and_a_parked_reply_to_the_nanosecond() {
    let net = Network::builder(3, tiny_link()).resilience(Some(Resilience::default())).build();
    let (left, order) = barrier_exchange(&net);
    assert_eq!(left, vec![(60, 21_874), (61, 22_398), (62, 22_406)]);
    assert_eq!(order, vec![2, 1, 0], "parked waiters in arrival order, then the one served");
}

#[test]
fn lossless_arrival_at_an_idle_manager_runs_on_the_arrivers_thread() {
    let net = Network::builder(2, tiny_link()).engine(EngineMode { workers: 2 }).build();
    let barrier = install_barrier(&net, 1);
    let arriver = arrive(&net, 1, 0);
    let id = arriver.thread().id();
    assert_eq!(arriver.join().unwrap().0, 20 + 1);
    // The arrival, and — it completed the barrier — its own answer.
    assert_eq!(*barrier.ran_on.lock(), vec![(ARRIVE, 0, id), (ANSWER, 1, id)]);
}

#[test]
fn completing_arriver_runs_every_release_and_finds_its_own_deposited() {
    let net = Network::builder(4, tiny_link()).engine(EngineMode { workers: 2 }).build();
    let barrier = install_barrier(&net, 4);
    let parked: Vec<_> = [3, 2, 1]
        .into_iter()
        .map(|node| {
            let h = arrive(&net, node, 0);
            barrier.seen.recv().unwrap();
            h
        })
        .collect();
    // The third arriver's thread signals from inside the handler and
    // may still hold node 0, in which case it, not this thread,
    // would drive the last arrival: wait until the manager is idle.
    while net.shared.queues[0].scheduled.load(Ordering::Acquire) {
        std::thread::yield_now();
    }
    // The last arrival, by hand: the send `rendezvous` makes, then a
    // look at the mailbox instead of a wait on it.
    let port = net.port(0, VirtualClock::new());
    port.post_parking(0, ARRIVE, 10u64, 24);
    let own = port.mailbox().try_take(TAG).expect("own release deposited before the send returned");
    assert_eq!(downcast::<u64>(own.payload), 100);
    let answered_on: Vec<_> = barrier.ran_on.lock().iter().filter(|r| r.0 == ANSWER).map(|r| r.2).collect();
    assert_eq!(answered_on, vec![std::thread::current().id(); 4]);
    for (h, node) in parked.into_iter().zip([3, 2, 1]) {
        assert_eq!(h.join().unwrap().0, 100 + node);
    }
}

#[test]
fn barrier_exchange_is_worker_count_invariant() {
    let run = |workers: usize| {
        let net = Network::builder(4, tiny_link()).engine(EngineMode { workers }).build();
        let (left, order) = barrier_exchange(&net);
        (left, order, net.stats().snapshot())
    };
    let reference = run(1);
    assert_eq!(reference.0.iter().map(|l| l.0).collect::<Vec<_>>(), vec![100, 101, 102, 103]);
    for workers in [1, 2, 0] {
        assert_eq!(run(workers), reference, "sharded:{workers}");
    }
}

#[test]
fn lost_answer_heals_through_the_retry() {
    // Node 1 is cut off while the barrier releases: its parked
    // reply is destroyed, its request times out and the retry finds
    // the barrier released.
    let plan = FaultPlan {
        partitions: vec![PartitionWindow { group: vec![1], from_ns: 30_000, until_ns: 60_000 }],
        ..FaultPlan::seeded(4)
    };
    let net = Network::builder(3, tiny_link()).faults(Some(plan)).build();
    let barrier = install_barrier(&net, 2);
    let first = arrive(&net, 1, 0);
    barrier.seen.recv().unwrap();
    let last = arrive(&net, 2, 40_000);
    assert_eq!(last.join().unwrap().0, 50 + 2);
    let (answer, clock) = first.join().unwrap();
    assert_eq!(answer, 50 + 1);
    assert!(clock > 100 + Resilience::default().timeout_ns, "healed at the deadline: {clock}");
    assert_eq!(net.stats().get("timeouts"), 1);
    assert_eq!(net.stats().get("retries"), 1);
}

#[test]
fn send_reliable_is_a_post_or_an_acknowledged_request() {
    for resilience in [None, Some(Resilience::default())] {
        let net = Network::builder(2, tiny_link()).resilience(resilience).build();
        let got = Arc::new(sim::Counter::new());
        let g = got.clone();
        net.router(1).register(0x62, move |_c, _s, p| {
            g.add(downcast::<u64>(p));
            Outcome::done()
        });
        let clock = VirtualClock::new();
        net.port(0, clock.clone()).send_reliable(1, 0x62, 7u64, 8).unwrap();
        let (posts, requests) = (net.stats().get("posts"), net.stats().get("requests"));
        drop(net);
        assert_eq!(got.get(), 7);
        match resilience {
            // The send overhead only.
            None => assert_eq!((clock.now(), posts, requests), (100, 1, 0)),
            // The round trip of `request_reply_roundtrip_and_timing`.
            Some(_) => assert_eq!((clock.now(), posts, requests), (100 + 1008 + 150 + 1008 + 100, 0, 1)),
        }
    }
}

#[test]
fn answer_parked_by_answer_later_fails_at_teardown() {
    let net = Network::builder(2, tiny_link()).resilience(Some(Resilience::default())).build();
    net.router(1).register(ARRIVE, |ctx, _s, _p| ctx.answer_later(TAG));
    let port = net.port(0, VirtualClock::new());
    let h = std::thread::spawn(move || port.rendezvous(1, ARRIVE, (), 8, TAG));
    while net.shared.deferred.lock().is_empty() {
        std::thread::yield_now();
    }
    drop(net);
    assert_eq!(h.join().unwrap().unwrap_err(), RequestError::FabricStopped);
}
