//! Sending: who hands a message to the delivery engine, and the one gate
//! every message leg — request, post and reply — passes on its way.

use super::{Envelope, NetShared, ReplyMsg, STAT_BYTES, STAT_POSTS};
use crate::error::RequestError;
use crate::fault::Resilience;
use crate::message::{NodeId, Payload};
use crate::reliable::{self, Dir, Fate, Leg};
use crossbeam::channel::Sender;
use std::sync::atomic::Ordering;

/// Who is handing an envelope to the delivery engine. It decides two
/// things: whether a full node queue blocks the sender, and whether the
/// sender may drive the destination itself.
///
/// **The lock rule.** An application thread in a blocking send
/// ([`SendCtx::AppBlocking`]) runs handlers of the destination *and* of
/// the nodes that batch's handlers claimed — its own node included — so
/// it must hold no lock any handler takes. Every blocking send of the
/// two DSM drivers drops its guards first.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(super) enum SendCtx {
    /// A protocol handler, mid-`drive_node`. Never blocks — the worker
    /// draining the destination queue may be the caller itself, so the
    /// enqueue overflows the bound instead — and never drives another
    /// node from inside the handler: the thread's drain buffer is in
    /// use. An idle destination it claims goes to the rings, or, when
    /// the driver is an application thread in a blocking send, onto that
    /// thread's `InlineFanout`.
    Handler,
    /// An application thread that does not wait for an answer (`post`).
    /// Absorbs backpressure, but the destination is always left to the
    /// workers: a post may be issued under locks of the sender that the
    /// destination's handlers take too.
    AppPost,
    /// An application thread whose next act is to sleep on what the
    /// destination's handlers produce (`request*`, `rendezvous`,
    /// `send_reliable`, `post_parking`). Absorbs backpressure, and
    /// drives an idle destination on its own thread
    /// (`NetShared::drive_inline`) under the lock rule above.
    AppBlocking,
}

/// Delivery cost when a node messages itself (protocol layers normally
/// shortcut this, but correctness must not depend on it).
const LOCAL_DELIVERY_NS: u64 = 500;

impl NetShared {
    pub(super) fn wire_arrival(&self, src: NodeId, dst: NodeId, depart: u64, bytes: u64) -> u64 {
        if src == dst {
            depart + LOCAL_DELIVERY_NS
        } else {
            // The sender's NIC has finite bandwidth shared by all of
            // the node's concurrent outbound transfers.
            self.egress[src].transfer(depart, bytes) + self.cost.latency_ns
        }
    }

    /// Decide `leg`'s fate ([`reliable::leg`]) and record it: the one
    /// site a loss, a delay or a duplicate is counted and traced.
    #[inline]
    pub(super) fn gate(&self, leg: &Leg) -> Fate {
        if self.faults.is_none() && self.membership.is_none() {
            // Neither plan: every leg arrives on time, once. The hot path
            // of a lossless fabric skips the policy call.
            return Fate::Arrive { extra_delay_ns: 0, dup: false };
        }
        let fate = reliable::leg(self.faults.as_ref(), self.membership.as_ref(), leg, |kind| {
            self.position(leg.src, leg.dst, kind)
        });
        let fault = |op, arg| sim::trace::instant(leg.depart_ns, leg.src, "fault", op, arg);
        match fate {
            Fate::Lost { why, .. } => {
                let (stat, op) = why.names();
                self.stats.add(stat, 1);
                fault(op, leg.kind as u64);
            }
            Fate::Arrive { extra_delay_ns, dup } => {
                if extra_delay_ns > 0 {
                    self.stats.add("faults_delayed", 1);
                    fault("delay", extra_delay_ns);
                }
                if dup {
                    self.stats.add("faults_dup", 1);
                    fault("dup", leg.kind as u64);
                }
            }
        }
        fate
    }

    /// Hand a request or a post to `dst` through the gate. A lost
    /// message produces a *loss notification* — an `Err` reply for a
    /// request, a mailbox tombstone under `wake_tag` for a tagged post —
    /// so waiting threads time out in virtual time instead of blocking
    /// forever. Sends to a stopped fabric are ignored: a handler may
    /// legitimately fire a post while the run is tearing down (the
    /// teardown drain answers any reply channel).
    ///
    /// Returns the delivery id of the enqueued message (it doubles as
    /// the sender↔handler correlation id in traces), or 0 if the
    /// message never reached an inbox.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn send_user(
        &self,
        src: NodeId,
        dst: NodeId,
        kind: u32,
        payload: Payload,
        wire_bytes: u64,
        depart: u64,
        reply: Option<Sender<ReplyMsg>>,
        wake_tag: Option<u64>,
        ctx: SendCtx,
    ) -> u64 {
        if self.stopped.load(Ordering::Acquire) {
            if let Some(tx) = reply {
                let _ = tx.send(ReplyMsg::Err { err: RequestError::FabricStopped, ready_ns: depart });
            }
            return 0;
        }
        let arrive_ns = self.wire_arrival(src, dst, depart, wire_bytes);
        let timeout_ns = self.resilience.map_or(Resilience::default().timeout_ns, |r| r.timeout_ns);
        let deadline_ns = depart + timeout_ns;
        let leg = Leg { dir: Dir::Forward, src, dst, kind, depart_ns: depart, arrive_ns, deadline_ns };
        match self.gate(&leg) {
            Fate::Lost { err, ready_ns, .. } => {
                if let Some(reply) = reply {
                    self.deliver(dst, Envelope::Fail { reply, err, ready_ns }, ctx);
                } else if let Some(tag) = wake_tag {
                    self.stats.add("tombstones", 1);
                    self.mailboxes[dst].deposit_lost(tag, deadline_ns);
                }
                0
            }
            Fate::Arrive { extra_delay_ns, dup } => {
                let arrive_ns = arrive_ns + extra_delay_ns;
                let req_id = self.delivery_id(src);
                let env = Envelope::User { src, kind, payload, arrive_ns, reply, req_id, deadline_ns };
                self.deliver(dst, env, ctx);
                if dup {
                    self.deliver(dst, Envelope::Dup { src, kind, req_id, arrive_ns }, ctx);
                }
                req_id
            }
        }
    }

    /// The next delivery id of `src`: the node in the high bits, its own
    /// count of delivered messages (from 1) in the low 40, so ids do not
    /// depend on how other nodes' senders race. A node's application
    /// thread and its handlers still share the count.
    fn delivery_id(&self, src: NodeId) -> u64 {
        ((src as u64) << 40) | (self.sent[src].fetch_add(1, Ordering::Relaxed) + 1)
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn post_from_handler(
        &self,
        src: NodeId,
        dst: NodeId,
        kind: u32,
        payload: Payload,
        wire_bytes: u64,
        depart: u64,
        wake_tag: Option<u64>,
    ) {
        self.stats.at(STAT_POSTS).incr();
        self.stats.at(STAT_BYTES).add(wire_bytes);
        let ctx = SendCtx::Handler;
        let _ = self.send_user(src, dst, kind, payload, wire_bytes, depart, None, wake_tag, ctx);
    }
}
