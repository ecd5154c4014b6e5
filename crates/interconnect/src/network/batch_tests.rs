#![cfg(test)]

use super::*;
use sim::VirtualClock;
use crate::message::downcast;

#[test]
fn request_batch_overlaps_round_trips() {
    // A batch to three distinct handlers must complete in roughly
    // one round trip plus send spacing, not three round trips.
    let link = LinkCost {
        send_overhead_ns: 1_000,
        recv_overhead_ns: 1_000,
        latency_ns: 100_000,
        bytes_per_sec: 1_000_000_000,
        handler_ns: 1_000,
    };
    let net = Network::builder(4, link).build();
    for n in 1..4 {
        net.router(n).register(0x21, |_c, _s, p| Outcome::reply(downcast::<u64>(p), 8));
    }
    let serial = {
        let c = VirtualClock::new();
        let p = net.port(0, c.clone());
        for dst in 1..4 {
            let _ = p.request(dst, 0x21, dst as u64, 8);
        }
        c.now()
    };
    let batched = {
        let c = VirtualClock::new();
        let p = net.port(0, c.clone());
        let replies =
            p.request_batch((1..4).map(|dst| (dst, 0x21, dst as u64, 8)).collect()).unwrap();
        assert_eq!(replies.len(), 3);
        c.now()
    };
    assert!(
        batched * 2 < serial,
        "batch should pipeline: serial={serial} batched={batched}"
    );
}

/// A payload that counts how often the fabric clones it.
struct Counted(u64, Arc<AtomicUsize>);

impl Clone for Counted {
    fn clone(&self) -> Self {
        self.1.fetch_add(1, Ordering::Relaxed);
        Counted(self.0, self.1.clone())
    }
}

/// Three homes that answer a [`Counted`] with its value plus one.
fn counted_homes(net: &Network) {
    for n in 1..4 {
        net.router(n)
            .register(0x22, |_c, _s, p| Outcome::reply(downcast::<Counted>(p).0 + 1, 8));
    }
}

fn counted_batch(clones: &Arc<AtomicUsize>) -> Vec<(NodeId, u32, Counted, u64)> {
    (1..4).map(|d| (d, 0x22, Counted(d as u64, clones.clone()), 8)).collect()
}

#[test]
fn resilient_batch_retries_lost_entries() {
    let plan = FaultPlan {
        seed: 9,
        default_link: crate::fault::LinkFaults { drop_ppm: 300_000, ..Default::default() },
        ..Default::default()
    };
    let net = Network::builder(4, tiny()).faults(Some(plan)).build();
    counted_homes(&net);
    let clones = Arc::new(AtomicUsize::new(0));
    let p = net.port(0, VirtualClock::new());
    let replies = p.request_batch(counted_batch(&clones)).unwrap();
    let vals: Vec<u64> = replies.into_iter().map(downcast::<u64>).collect();
    assert_eq!(vals, vec![2, 3, 4], "replies stay in request order");
    let retries = net.stats().get("retries");
    assert!(retries > 0, "the plan dropped nothing: pick another seed");
    // One kept copy per entry, one more per resend.
    assert_eq!(clones.load(Ordering::Relaxed) as u64, 3 + retries);
}

#[test]
fn fabric_without_a_retry_policy_moves_its_payloads() {
    let net = Network::builder(4, tiny()).build();
    counted_homes(&net);
    let clones = Arc::new(AtomicUsize::new(0));
    let p = net.port(0, VirtualClock::new());
    let one = p.request_retrying(1, 0x22, Counted(7, clones.clone()), 8).unwrap();
    assert_eq!(downcast::<u64>(one), 8);
    let replies = p.request_batch(counted_batch(&clones)).unwrap();
    let vals: Vec<u64> = replies.into_iter().map(downcast::<u64>).collect();
    assert_eq!(vals, vec![2, 3, 4]);
    assert_eq!(clones.load(Ordering::Relaxed), 0, "one attempt, payload moved");
    // One attempt also means a failure is final: no retry, no panic.
    let err = p.request_retrying(1, 0x23, Counted(7, clones.clone()), 8).unwrap_err();
    assert!(matches!(err, RequestError::HandlerFailed { kind: 0x23, .. }), "{err}");
    let err = p.request_batch(vec![(1, 0x23, Counted(7, clones.clone()), 8)]).unwrap_err();
    assert!(matches!(err, RequestError::HandlerFailed { kind: 0x23, .. }), "{err}");
    assert_eq!(net.stats().get("retries"), 0);
    assert_eq!(clones.load(Ordering::Relaxed), 0);
}

fn tiny() -> LinkCost {
    LinkCost {
        send_overhead_ns: 100,
        recv_overhead_ns: 100,
        latency_ns: 1_000,
        bytes_per_sec: 1_000_000_000,
        handler_ns: 50,
    }
}

#[test]
fn view_fence_refuses_cross_epoch_send_then_retry_passes() {
    use crate::membership::{MembershipEvent, MembershipPlan, ViewChange};
    // One view change at t=1000ns: a request departing at ~100ns
    // would arrive at ~1108ns, crossing the epoch boundary — the
    // fence must refuse it with StaleView. The retry departs after
    // the boundary and goes through.
    let run = || {
        let plan = MembershipPlan::scripted(
            7,
            vec![MembershipEvent {
                node: 1,
                at_ns: 1_000,
                change: ViewChange::Leave { graceful: true },
            }],
        );
        let net = Network::builder(2, tiny()).membership(Some(plan)).build();
        net.router(1).register(0x50, |_c, _s, _p| Outcome::reply((), 0));
        let c = VirtualClock::new();
        let p = net.port(0, c.clone());
        let err = p.try_request(1, 0x50, (), 8).unwrap_err();
        assert!(
            matches!(err, RequestError::StaleView { epoch: 1, .. }),
            "expected StaleView fence, got {err}"
        );
        assert!(err.is_transient());
        // The waiter clock advanced past the boundary: the retry
        // departs inside epoch 1 and passes the fence.
        assert!(c.now() >= 1_000, "fence wakes the waiter at the boundary");
        p.try_request(1, 0x50, (), 8).expect("same-epoch send passes the fence");
        (c.now(), net.stats().get("view_fenced"), net.stats().get("delivered"))
    };
    let a = run();
    assert_eq!(a.1, 1, "exactly the cross-epoch send is fenced");
    assert_eq!(a, run(), "fencing is deterministic in virtual time");
}
