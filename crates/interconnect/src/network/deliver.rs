//! Delivery: the per-node run queues, the claim that serialises a node,
//! batched drains in virtual-arrival order, caller-runs and its inline
//! fan-out, and the execution of one envelope.

use super::reply::ReplyTo;
use super::send::SendCtx;
use super::{Envelope, NetShared, ReplyMsg, STAT_DELIVERED};
use crate::engine::ENGINE_BATCH;
use crate::error::RequestError;
use crate::message::{HandlerCtx, NodeId};
use std::sync::atomic::Ordering;

impl NetShared {
    /// Hand `env` to `dst`'s delivery engine; `ctx` says who is sending
    /// (see [`SendCtx`]). Envelopes rejected by a closed queue
    /// (teardown) are answered here.
    pub(super) fn deliver(&self, dst: NodeId, env: Envelope, ctx: SendCtx) {
        let nq = &self.queues[dst];
        let res = if ctx == SendCtx::Handler {
            nq.q.push(env)
        } else {
            match nq.q.push_wait(env) {
                Ok(waited) => {
                    if waited {
                        self.bp_waits.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(())
                }
                Err(env) => Err(env),
            }
        };
        match res {
            Ok(()) if !nq.claim_schedule() => {}
            // Caller-runs: the sender is about to sleep on what `dst`
            // produces and `dst` was idle, so the claim just won makes
            // this thread the node's one driver — run the batch here
            // instead of waking a worker that would only wake us back.
            Ok(()) if ctx == SendCtx::AppBlocking && !driving() => self.drive_inline(dst),
            Ok(()) if ctx == SendCtx::Handler && InlineFanout::take_claim(dst) => {}
            Ok(()) => self.shards.schedule(dst),
            Err(env) => answer_stranded(env),
        }
    }

    /// Drive `dst`, just claimed by an application thread in a blocking
    /// send, on that thread: one batch, then one batch of each node the
    /// batch's handlers claimed (a barrier's release fan-out, a grant)
    /// and of `dst` itself when a handler's send to it raced the retire
    /// — so the thread that completes a rendezvous deposits every
    /// release, its own included, before it looks at its mailbox. One
    /// level deep and at most [`ENGINE_BATCH`] nodes wide: an
    /// application thread is not a worker, and a chain it followed to
    /// the end (a 10 000-hop relay) would keep it from its own work for
    /// as long as the chain runs. Whatever the second drives claim or
    /// leave queued goes to the rings.
    fn drive_inline(&self, dst: NodeId) {
        let fanout = InlineFanout::open();
        let after = drive_node(self, dst);
        let mut claimed = fanout.close();
        match after {
            After::Retired => {}
            After::Reclaimed if claimed.len() < ENGINE_BATCH => claimed.push(dst),
            After::Reclaimed | After::Full => self.shards.schedule(dst),
        }
        for node in claimed {
            if drive_node(self, node) != After::Retired {
                self.shards.schedule(node);
            }
        }
    }
}

/// Answer an envelope that can no longer be delivered (closed queue or
/// teardown drain): in-flight requests get a typed `FabricStopped`
/// error instead of a wedged waiter; one-way traffic is dropped.
pub(super) fn answer_stranded(env: Envelope) {
    match env {
        Envelope::User { reply: Some(tx), arrive_ns, .. } => {
            let _ = tx.send(ReplyMsg::Err { err: RequestError::FabricStopped, ready_ns: arrive_ns });
        }
        Envelope::Fail { reply, err, ready_ns } => {
            let _ = reply.send(ReplyMsg::Err { err, ready_ns });
        }
        _ => {}
    }
}

/// Execute one delivered envelope on `node`: charge virtual service
/// time, dispatch through the node's router, and route the reply.
fn process_envelope(shared: &NetShared, node: NodeId, env: Envelope) {
    shared.stats.at(STAT_DELIVERED).incr();
    match env {
        Envelope::Dup { src: _, kind, req_id, arrive_ns } => {
            // The transport pays receive overhead for the copy,
            // then recognizes the request id and discards it: this
            // is the de-duplication boundary duplicated deliveries
            // die at.
            shared.servers[node].transfer(arrive_ns, shared.recv_eff_ns);
            debug_assert!(
                shared.dedup[node].lock().contains(req_id),
                "duplicate delivered before its original"
            );
            shared.stats.add("dedup_hits", 1);
            sim::trace::instant(arrive_ns, node, "fault", "dedup", kind as u64);
        }
        Envelope::Fail { reply, err, ready_ns } => {
            // Forward the precomputed failure to the requester; no
            // service charge — the loss consumed no receive cycles.
            let _ = reply.send(ReplyMsg::Err { err, ready_ns });
        }
        Envelope::User { src, kind, payload, arrive_ns, reply, req_id, deadline_ns } => {
            if shared.faults.is_some() {
                shared.dedup[node].lock().insert(req_id);
            }
            let service = shared.recv_eff_ns + shared.cost.handler_ns;
            let end0 = shared.servers[node].transfer(arrive_ns, service);
            let ctx = HandlerCtx { net: shared, node, now: end0 };
            let dispatched = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                shared.routers[node].dispatch(&ctx, src, kind, payload)
            })) {
                // Unroutable kind or typed dispatch failure: NACK the
                // requester (or log, for one-way traffic) instead of dying.
                Ok(res) => res.map_err(|e| {
                    eprintln!("node {node}: {e} (from node {src})");
                    e.to_string()
                }),
                // A protocol-handler panic is a bug in the layer above;
                // surface it loudly and fail the requester with a typed
                // (non-retryable) error instead of silently wedging the
                // whole fabric.
                Err(e) => {
                    let msg = e
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| e.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "<non-string panic>".into());
                    eprintln!(
                        "node {node}: handler for kind {kind:#x} (from node {src}) panicked: {msg}"
                    );
                    Err(msg)
                }
            };
            let out = match dispatched {
                Ok(out) => out,
                Err(reason) => {
                    shared.stats.add("handler_failures", 1);
                    if let Some(tx) = reply {
                        let err = RequestError::HandlerFailed { kind, reason };
                        let _ = tx.send(ReplyMsg::Err { err, ready_ns: end0 });
                    }
                    return;
                }
            };
            let served = if out.extra_ns > 0 {
                shared.servers[node].transfer(end0, out.extra_ns)
            } else {
                end0
            };
            let end = served.max(out.not_before_ns);
            if sim::trace::enabled() {
                // corr = the delivery id stamped by `send_user`, the
                // same id the requester's `net/request` span carries:
                // the analyzer joins the two to rebuild send→serve
                // edges of the happens-before graph.
                sim::trace::span_corr(
                    arrive_ns,
                    served - arrive_ns,
                    node,
                    "net",
                    "handler",
                    kind as u64,
                    req_id,
                );
                if end > served {
                    // The protocol handler imposed a release floor
                    // (e.g. a lock grant not valid before the
                    // holder's release time): the reply stalls here.
                    sim::trace::span_corr(served, end - served, node, "net", "not_before", end, req_id);
                }
            }
            // Only requests are answered or parked: `answer_later` defers
            // only on a fabric with a policy, where `rendezvous` sends the
            // arrival as a request (a tree aggregate is a request on every
            // fabric); `answer_later` and `answer_all` return
            // `Outcome::done` for a post; and the replays (a barrier's
            // cached release, a tree's resent wave) answer a retried
            // input — only a fabric with a policy retries, and there the
            // input is a request (injected duplicates die at the dedup
            // window, before any handler).
            let Some(tx) = reply else {
                assert!(out.defer_key.is_none(), "one-way message kind {kind:#x} deferred a reply");
                assert!(out.reply.is_none(), "one-way message kind {kind:#x} produced a reply");
                return;
            };
            let to = ReplyTo { tx, kind, ready_ns: end, deadline_ns, req_id };
            match (out.defer_key, out.reply) {
                (Some(key), _) => shared.park(node, key, src, to),
                (None, Some((payload, bytes))) => shared.send_reply(node, src, to, payload, bytes),
                (None, None) => {
                    // In resilient mode, protocol messages that are
                    // one-way on a reliable fabric travel as requests so
                    // delivery is confirmable: the transport acks them
                    // without handler help.
                    assert!(
                        shared.resilience.is_some(),
                        "synchronous request handled by non-replying handler"
                    );
                    shared.send_reply(node, src, to, Box::new(()), 8);
                }
            }
        }
    }
}

/// Batched virtual-time delivery order: virtual arrival first, ties
/// broken by (src, kind) rather than enqueue order — two same-instant
/// arrivals from different senders race in real time, and the
/// service-bus accounting they trigger is order-sensitive under window
/// saturation (64-node barrier and page storms), so an enqueue-order
/// tiebreak would leak real time into virtual time.
fn delivery_order(env: &Envelope) -> (u64, usize, u32) {
    match env {
        Envelope::User { arrive_ns, src, kind, .. }
        | Envelope::Dup { arrive_ns, src, kind, .. } => (*arrive_ns, *src, *kind),
        Envelope::Fail { ready_ns, .. } => (*ready_ns, usize::MAX, u32::MAX),
    }
}

thread_local! {
    /// One drain buffer per driving thread — pool workers, and
    /// application threads running a blocking send's destination inline
    /// — reused across node visits: a fresh ENGINE_BATCH-capacity Vec
    /// per visit is an allocator round trip on every single event at
    /// queue depth 1. Mutably borrowed for the whole of [`drive_node`],
    /// which is what [`driving`] reads.
    static BATCH: std::cell::RefCell<Vec<Envelope>> =
        std::cell::RefCell::new(Vec::with_capacity(ENGINE_BATCH));

    /// The nodes claimed by the handlers of an application thread's
    /// first inline drive; `None` on every other thread and at every
    /// other time (see [`InlineFanout`]).
    static FANOUT: std::cell::RefCell<Option<Vec<NodeId>>> =
        const { std::cell::RefCell::new(None) };
}

/// True while this thread is inside [`drive_node`], i.e. in handler
/// context. Such a thread must hand nodes to the rings, never drive
/// them: the drain buffer is not re-entrant.
fn driving() -> bool {
    BATCH.with(|batch| batch.try_borrow_mut().is_err())
}

/// The scope in which handler-context claims collect on this thread
/// instead of going to the rings: the first drive of
/// `NetShared::drive_inline`. The list exists exactly as long as this
/// value — a drive that unwinds takes it down too — so a later drive on
/// the thread, second-level or a worker's, can never find a stale one.
struct InlineFanout;

impl InlineFanout {
    fn open() -> Self {
        FANOUT.set(Some(Vec::new()));
        InlineFanout
    }

    /// Keep `node`, claimed by a handler on this thread, for the thread
    /// to drive itself. False — the claim goes to the rings — outside
    /// the scope and once the list holds [`ENGINE_BATCH`] nodes.
    fn take_claim(node: NodeId) -> bool {
        FANOUT.with_borrow_mut(|list| match list {
            Some(list) if list.len() < ENGINE_BATCH => {
                list.push(node);
                true
            }
            _ => false,
        })
    }

    /// End the scope and return what was claimed inside it.
    fn close(self) -> Vec<NodeId> {
        FANOUT.take().unwrap_or_default()
    }
}

impl Drop for InlineFanout {
    fn drop(&mut self) {
        FANOUT.set(None);
    }
}

/// How [`drive_node`] left its node.
#[derive(PartialEq, Eq)]
pub(super) enum After {
    /// Queue empty, claim given up.
    Retired,
    /// A push raced the retire and the driver won the claim back: the
    /// node has (little) work and must be driven or scheduled again.
    Reclaimed,
    /// The batch was full, so the queue likely has more: still claimed.
    Full,
}

/// Drain and process one batch from `node`'s run queue.
/// The caller holds the node's `scheduled` claim, which is the whole of
/// per-node serialization: whoever won `claim_schedule` — or was handed
/// the node through a ready ring — is its only driver until `retire`.
/// Unless it returns [`After::Retired`] the node is still claimed and
/// must go (back) onto a ready ring or be driven again.
pub(super) fn drive_node(shared: &NetShared, node: NodeId) -> After {
    let nq = &shared.queues[node];
    let retire = || if nq.retire() { After::Reclaimed } else { After::Retired };
    BATCH.with(|batch| {
        // Cannot fire: the callers are a worker's loop and `drive_inline`,
        // which only an application thread reaches, after `driving()`
        // said no drive is open on it; a handler's sends never drive.
        let mut batch = batch
            .try_borrow_mut()
            .expect("drive_node re-entered: sends from handler context must go to the rings");
        batch.clear();
        nq.q.drain_into(ENGINE_BATCH, &mut batch);
        if batch.is_empty() {
            return retire();
        }
        // Batched virtual-time delivery (see [`delivery_order`]). The
        // sort is stable, so a delivery and its fault-injected
        // duplicate (same src, kind, instant) keep enqueue order and
        // the dedup window sees the original first.
        if batch.len() > 1 {
            batch.sort_by_key(delivery_order);
        }
        let full = batch.len() == ENGINE_BATCH;
        for env in batch.drain(..) {
            process_envelope(shared, node, env);
        }
        // A full batch means the queue likely has more: stay scheduled.
        // A partial batch emptied the queue — retire *now* instead of
        // paying a guaranteed-empty ring revisit per batch (at queue
        // depth 1 that revisit would double the scheduler overhead).
        if full {
            After::Full
        } else {
            retire()
        }
    })
}
