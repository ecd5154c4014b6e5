#![cfg(test)]

use super::*;
use sim::VirtualClock;
use crate::message::downcast;

#[test]
fn handler_panic_is_contained_and_reported() {
    // A panicking handler must not wedge the daemon: the panicking
    // request fails loudly at the requester (typed HandlerFailed),
    // while subsequent messages keep flowing.
    let link = LinkCost {
        send_overhead_ns: 10,
        recv_overhead_ns: 10,
        latency_ns: 100,
        bytes_per_sec: 1_000_000_000,
        handler_ns: 10,
    };
    let net = Network::builder(2, link).build();
    net.router(1).register(0x66, |_c, _s, p| {
        let v = downcast::<u32>(p);
        assert!(v != 13, "unlucky payload");
        Outcome::reply(v * 2, 8)
    });
    let port = net.port(0, VirtualClock::new());
    let err = port.try_request(1, 0x66, 13u32, 8).unwrap_err();
    match &err {
        RequestError::HandlerFailed { kind: 0x66, reason } => {
            assert!(reason.contains("unlucky"), "{reason}")
        }
        other => panic!("expected HandlerFailed, got {other:?}"),
    }
    assert!(!err.is_transient(), "handler bugs are not retryable");
    // The daemon is still alive and serving.
    let ok = downcast::<u32>(port.request(1, 0x66, 21u32, 8));
    assert_eq!(ok, 42);
}
