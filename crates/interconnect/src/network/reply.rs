//! Replies: the answer to a served request, sent through the same gate
//! as the request, and the replies handlers park ([`crate::Outcome::defer`])
//! until a later invocation or an application thread discharges them.

use super::{NetShared, ReplyMsg};
use crate::error::RequestError;
use crate::message::{NodeId, Payload};
use crate::mailbox::notify_unlocked;
use crate::reliable::{Dir, Fate, Leg};
use crossbeam::channel::Sender;
use std::sync::atomic::Ordering;

/// A reply obligation: everything a reply needs, captured when the
/// request was served.
pub(super) struct ReplyTo {
    pub(super) tx: Sender<ReplyMsg>,
    pub(super) kind: u32,
    /// Service completion of the request; the reply departs no earlier.
    pub(super) ready_ns: u64,
    pub(super) deadline_ns: u64,
    /// Delivery id of the request, so a discharge can emit the same
    /// `net/not_before` stall span a direct reply would.
    pub(super) req_id: u64,
}

impl NetShared {
    /// Send `node`'s reply to requester `who` through the gate. It
    /// probes the requester one link latency after departure; what it
    /// loses reaches the requester as an error at its deadline.
    pub(super) fn send_reply(&self, node: NodeId, who: NodeId, to: ReplyTo, payload: Payload, bytes: u64) {
        let (kind, depart_ns, deadline_ns) = (to.kind, to.ready_ns, to.deadline_ns);
        let arrive_ns = depart_ns + self.cost.latency_ns;
        let leg = Leg { dir: Dir::Reply, src: node, dst: who, kind, depart_ns, arrive_ns, deadline_ns };
        let msg = match self.gate(&leg) {
            Fate::Lost { err, ready_ns, .. } => ReplyMsg::Err { err, ready_ns },
            Fate::Arrive { extra_delay_ns, .. } => {
                ReplyMsg::Ok { payload, wire_bytes: bytes, ready_ns: to.ready_ns + extra_delay_ns }
            }
        };
        // Requester may have vanished on teardown; ignore.
        let _ = to.tx.send(msg);
    }

    /// Park the reply a handler on `node` deferred under `key` for
    /// requester `who`. A re-request from the same node (its first
    /// attempt's reply was lost) simply replaces the abandoned channel.
    pub(super) fn park(&self, node: NodeId, key: u64, who: NodeId, to: ReplyTo) {
        let mut map = self.deferred.lock();
        map.insert((node, key, who), to);
        let waiting = self.deferred_waiters.load(Ordering::Relaxed) > 0;
        notify_unlocked(map, &self.deferred_cv, waiting);
    }

    /// Discharge the reply parked under `(node, key, who)`: it departs
    /// at the later of the deferred request's service end and
    /// `not_before_ns`, through the same gate as any reply.
    ///
    /// A handler (`wait` false) finds the park or panics: the one
    /// protocol caller is `HandlerCtx::answer_all`, and a manager lists a
    /// waiter only once that waiter's arrival was served on this node —
    /// on a fabric with a policy, a request whose handler returned
    /// `answer_later`'s `Outcome::defer`, parked by `process_envelope`
    /// before this node serves anything else. A retried arrival replaces
    /// the park; only a discharge removes it. An application thread
    /// (`wait`) races the engine: the handler that wakes it runs *before*
    /// the engine registers the park, so it waits the few instructions
    /// until the park lands, or until the fabric shuts down.
    pub(crate) fn complete_deferred(
        &self,
        (node, key, who): (NodeId, u64, NodeId),
        (payload, wire_bytes): (Payload, u64),
        not_before_ns: u64,
        wait: bool,
    ) {
        let mut parked = {
            let mut map = self.deferred.lock();
            loop {
                if let Some(parked) = map.remove(&(node, key, who)) {
                    break parked;
                }
                assert!(wait, "node {node}: no deferred reply parked under key {key:#x} for node {who}");
                if self.stopped.load(Ordering::Acquire) {
                    return;
                }
                self.deferred_waiters.fetch_add(1, Ordering::Relaxed);
                self.deferred_cv.wait(&mut map);
                self.deferred_waiters.fetch_sub(1, Ordering::Relaxed);
            }
        };
        let ready_ns = parked.ready_ns.max(not_before_ns);
        if ready_ns > parked.ready_ns && sim::trace::enabled() {
            // Mirror the direct-reply `net/not_before` stall span: the
            // discharge floor held this reply past its service end.
            // Emitting it here too keeps the trace stream independent
            // of *which* same-instant arrival happened to be served
            // last (and so replied directly instead of deferring).
            let (from, stall) = (parked.ready_ns, ready_ns - parked.ready_ns);
            sim::trace::span_corr(from, stall, node, "net", "not_before", ready_ns, parked.req_id);
        }
        parked.ready_ns = ready_ns;
        self.send_reply(node, who, parked, payload, wire_bytes);
    }

    /// Fail every reply still parked (a rendezvous that never completed,
    /// e.g. a barrier cut short by an aborted run) with `FabricStopped`
    /// instead of stranding its requester: the last step of teardown.
    pub(super) fn fail_parked(&self) {
        for (_, parked) in self.deferred.lock().drain() {
            let err = RequestError::FabricStopped;
            let _ = parked.tx.send(ReplyMsg::Err { err, ready_ns: parked.ready_ns });
        }
    }
}
