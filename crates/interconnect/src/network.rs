//! The fabric: per-node ingress queues, the delivery engine, and timed
//! request/post primitives.
//!
//! Delivery is a sharded event-driven scheduler: per-node bounded run
//! queues over a small worker pool (sized by [`EngineMode`]) with
//! batched virtual-time delivery, where a requester about to block
//! drives an idle destination itself (`SendCtx`). Virtual timings do
//! not depend on the pool size; only wall-clock throughput does.
//!
//! With a [`FaultPlan`] installed the fabric fails on purpose: messages
//! are dropped, duplicated, delayed or displaced, and whole nodes crash
//! and heal at scheduled virtual times. Failures surface to requesters
//! as typed [`RequestError`]s at virtual-time deadlines (never as
//! wall-clock waits), and the resilient request variants retry through
//! transient faults with exponential backoff.

use crate::engine::{EngineMode, NodeQueue, ENGINE_BATCH};
use crate::error::RequestError;
use crate::fault::{FaultDecision, FaultPlan, Resilience, mix, REPLY_STREAM, RETRY_STREAM};
use crate::mailbox::{notify_unlocked, Mailbox};
use crate::membership::MembershipPlan;
use crate::message::{HandlerCtx, NodeId, Outcome, Payload};

use crate::router::Router;
use crossbeam::channel::{unbounded, Sender};
use parking_lot::{Condvar, Mutex};
use sim::{Bus, LinkCost, Sketch, StatSet, VirtualClock};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Delivery cost when a node messages itself (protocol layers normally
/// shortcut this, but correctness must not depend on it).
const LOCAL_DELIVERY_NS: u64 = 500;

/// Request ids a daemon remembers for duplicate suppression.
const DEDUP_WINDOW: usize = 1 << 16;

enum ReplyMsg {
    Ok { payload: Payload, wire_bytes: u64, ready_ns: u64 },
    Err { err: RequestError, ready_ns: u64 },
}

enum Envelope {
    User {
        src: NodeId,
        kind: u32,
        payload: Payload,
        arrive_ns: u64,
        reply: Option<Sender<ReplyMsg>>,
        /// Delivery id (unique per enqueued message; doubles as the
        /// trace correlation id between sender and handler spans).
        /// Duplicated deliveries repeat the id so the receiving daemon
        /// can recognize and discard the copy.
        req_id: u64,
        /// Virtual time at which the requester gives up (0 = none).
        deadline_ns: u64,
    },
    /// A fault-injected duplicate of the `req_id` delivery. Payloads
    /// are not `Clone`, so the copy is delivered as a marker; the
    /// daemon charges receive overhead, matches the id against its
    /// dedup window, and drops it — exactly what an idempotent
    /// transport layer does.
    Dup { src: NodeId, kind: u32, req_id: u64, arrive_ns: u64 },
    /// A fault-destroyed request. The typed error is routed through the
    /// destination daemon rather than handed to the requester
    /// synchronously: the virtual timing is identical (`ready_ns` is
    /// fixed at send time), but the requester only unblocks — and can
    /// only resend — after the daemon has worked through everything
    /// enqueued ahead of the loss. That keeps real-time processing
    /// order close to virtual order, which the service-queue model
    /// depends on for run-to-run reproducibility.
    Fail { reply: Sender<ReplyMsg>, err: RequestError, ready_ns: u64 },
}

/// Seeded fault machinery: the plan plus per-stream sequence counters
/// (so decisions depend only on a message's position in its
/// `(src, dst, kind)` stream, not on thread interleaving) and per-node
/// windows of recently seen request ids.
struct FaultState {
    plan: FaultPlan,
    seqs: Vec<Mutex<HashMap<(NodeId, u32), u64>>>,
    dedup: Vec<Mutex<DedupWindow>>,
}

#[derive(Default)]
struct DedupWindow {
    seen: HashSet<u64>,
    order: VecDeque<u64>,
}

impl DedupWindow {
    fn insert(&mut self, id: u64) {
        if self.seen.insert(id) {
            self.order.push_back(id);
            if self.order.len() > DEDUP_WINDOW {
                if let Some(old) = self.order.pop_front() {
                    self.seen.remove(&old);
                }
            }
        }
    }

    fn contains(&self, id: u64) -> bool {
        self.seen.contains(&id)
    }
}

impl FaultState {
    /// Draw the next decision on the `(src, dst, kind)` stream.
    fn next_decision(&self, src: NodeId, dst: NodeId, kind: u32) -> FaultDecision {
        let seq = {
            let mut g = self.seqs[src].lock();
            let c = g.entry((dst, kind)).or_insert(0);
            *c += 1;
            *c
        };
        self.plan.decide(src, dst, kind, seq)
    }

    /// Deterministic jitter salt for the next retry on the
    /// `(src, dst, kind)` stream (see [`RETRY_STREAM`]).
    fn next_retry_salt(&self, src: NodeId, dst: NodeId, kind: u32) -> u64 {
        let kind = kind | RETRY_STREAM;
        let seq = {
            let mut g = self.seqs[src].lock();
            let c = g.entry((dst, kind)).or_insert(0);
            *c += 1;
            *c
        };
        let stream = ((src as u64) << 42) ^ ((dst as u64) << 21) ^ kind as u64;
        mix(self.plan.seed ^ mix(stream) ^ seq)
    }
}

/// Who is handing an envelope to the delivery engine. It decides two
/// things: whether a full node queue blocks the sender, and whether the
/// sender may drive the destination itself.
#[derive(Clone, Copy, PartialEq, Eq)]
enum SendCtx {
    /// A protocol handler, mid-`drive_node`. Never blocks — the worker
    /// draining the destination queue may be the caller itself, so the
    /// enqueue overflows the bound instead — and never drives another
    /// node from inside the handler: the thread's drain buffer is in
    /// use. An idle destination it claims goes to the rings, or, when
    /// the driver is an application thread in a blocking send, onto that
    /// thread's [`InlineFanout`].
    Handler,
    /// An application thread that does not wait for an answer (`post`).
    /// Absorbs backpressure, but the destination is always left to the
    /// workers: a post may be issued under locks of the sender that the
    /// destination's handlers take too.
    AppPost,
    /// An application thread whose next act is to sleep on what the
    /// destination's handlers produce (`request*`, `rendezvous`,
    /// `send_reliable`, `post_parking`). Absorbs backpressure, and
    /// drives an idle destination on its own thread (see
    /// [`NetShared::drive_inline`]).
    ///
    /// **The lock rule.** Such a thread runs handlers of the destination
    /// *and* of the nodes that batch's handlers claimed — its own node
    /// included — so it must hold no lock any handler takes. Every
    /// blocking send of the two DSM drivers drops its guards first.
    AppBlocking,
}

/// Shared state of the fabric (one per experiment run).
pub struct NetShared {
    /// One bounded run queue per node slot, holding the envelopes
    /// between `send_user` and `process_envelope`. Drained in batches
    /// by whichever thread holds the node's `scheduled` claim — a pool
    /// worker, or a requester running the node inline.
    queues: Vec<NodeQueue<Envelope>>,
    /// Ready rings of the worker pool that drives claimed nodes.
    shards: Arc<sim::sched::Shards>,
    /// Protocol-handler occupancy per node (the communication daemon),
    /// modelled as windowed service demand: one virtual "byte" per
    /// nanosecond of handler time. Like the NIC and memory buses, the
    /// windowed form is independent of the real-time order in which
    /// messages reach the daemon (a FIFO horizon here let a virtually
    /// *later* message delay a virtually earlier one by its full
    /// service time).
    servers: Vec<Bus>,
    /// Egress bandwidth per node: one NIC per node, so concurrent
    /// outbound transfers share (and contend for) link bandwidth. A
    /// windowed model keeps the accounting independent of the real-time
    /// order in which node threads reserve virtual bandwidth.
    egress: Vec<Bus>,
    routers: Vec<Arc<Router>>,
    mailboxes: Vec<Arc<Mailbox>>,
    cost: LinkCost,
    send_eff_ns: u64,
    recv_eff_ns: u64,
    stats: StatSet,
    /// Latency sketch over completed synchronous request round trips
    /// (send overhead → reply received), in virtual ns.
    rtt_hist: Sketch,
    faults: Option<FaultState>,
    resilience: Option<Resilience>,
    /// Membership schedule, when the cluster is elastic. Every send is
    /// epoch-fenced against it: a message departing in one view epoch
    /// and arriving in another is refused with the transient
    /// [`RequestError::StaleView`] instead of crossing the view change.
    /// Pure virtual-time data, so fencing is deterministic. Replies are
    /// not fenced — a request served inside an epoch completes — and
    /// the absence windows the plan implies are enforced by the fault
    /// layer's crash windows (merged in by the cluster layer).
    membership: Option<MembershipPlan>,
    /// Number of activated node slots: the initial set plus every
    /// [`Network::join_node`] so far. The slots above it are reserved:
    /// served by the workers like any other, but no port can be opened
    /// on them yet.
    active: AtomicUsize,
    /// Teardown flag: once set, requests fail with `FabricStopped` and
    /// posts are dropped instead of racing the workers' exit.
    stopped: AtomicBool,
    /// Times an application thread blocked on a full node queue
    /// (backpressure). Real-time dependent, so kept out
    /// of the deterministic [`NET_STAT_NAMES`] counters.
    bp_waits: AtomicU64,
    next_req_id: AtomicU64,
    /// Reply obligations parked by handlers ([`Outcome::defer`]), keyed
    /// by `(handling node, protocol key, requester)`. A re-request from
    /// the same requester replaces its entry (the abandoned channel is
    /// harmless); teardown fails whatever is left with `FabricStopped`.
    deferred: Mutex<HashMap<(NodeId, u64, NodeId), DeferredReply>>,
    /// Signalled whenever a reply obligation is parked in `deferred`:
    /// an application thread racing ahead of the engine's park
    /// registration waits here ([`NetShared::complete_deferred_wait`]).
    deferred_cv: Condvar,
    /// Threads inside that wait. Written only under the `deferred`
    /// lock, so a park registered with none counted needs no notify.
    deferred_waiters: AtomicUsize,
}

/// A parked reply obligation: everything `send_reply` needs, captured
/// when the request was served.
struct DeferredReply {
    tx: Sender<ReplyMsg>,
    kind: u32,
    /// Service completion of the deferred request; the eventual reply
    /// departs no earlier than this.
    ready_ns: u64,
    deadline_ns: u64,
    /// Delivery id of the parked request, so the discharge can emit the
    /// same `net/not_before` stall span a direct reply would.
    req_id: u64,
}

impl NetShared {
    /// Number of activated nodes in the fabric (reserved slots are
    /// excluded until [`Network::join_node`] brings them up).
    pub fn nodes(&self) -> usize {
        self.active.load(Ordering::Acquire)
    }

    /// Hand `env` to `dst`'s delivery engine; `ctx` says who is sending
    /// (see [`SendCtx`]). Envelopes rejected by a closed queue
    /// (teardown) are answered here.
    fn deliver(&self, dst: NodeId, env: Envelope, ctx: SendCtx) {
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

    fn wire_arrival(&self, src: NodeId, dst: NodeId, depart: u64, bytes: u64) -> u64 {
        if src == dst {
            depart + LOCAL_DELIVERY_NS
        } else {
            // The sender's NIC has finite bandwidth shared by all of
            // the node's concurrent outbound transfers.
            self.egress[src].transfer(depart, bytes) + self.cost.latency_ns
        }
    }

    fn timeout_ns(&self) -> u64 {
        self.resilience.map_or_else(|| Resilience::default().timeout_ns, |r| r.timeout_ns)
    }

    pub(crate) fn resilience(&self) -> Option<Resilience> {
        self.resilience
    }

    /// Discharge the reply parked under `(node, key, who)`: the reply
    /// departs at the later of the deferred request's service end and
    /// `not_before_ns`, through the same fault gauntlet as any reply.
    pub(crate) fn complete_deferred(
        &self,
        node: NodeId,
        key: u64,
        who: NodeId,
        payload: Payload,
        wire_bytes: u64,
        not_before_ns: u64,
    ) {
        // The one protocol caller is `HandlerCtx::answer_all`, and it
        // cannot get here without a park: a manager lists a waiter only
        // once that waiter's arrival was served on this node, and on a
        // fabric with a policy that arrival is a request whose handler
        // returned `answer_later`'s `Outcome::defer`, parked by
        // `process_envelope` before this node serves anything else. A
        // retried arrival replaces the park; only a discharge removes it.
        let parked = self
            .deferred
            .lock()
            .remove(&(node, key, who))
            .unwrap_or_else(|| {
                panic!("node {node}: no deferred reply parked under key {key:#x} for node {who}")
            });
        self.discharge(node, who, parked, payload, wire_bytes, not_before_ns);
    }

    /// Like [`NetShared::complete_deferred`], but blocks until the park
    /// exists instead of panicking. Application threads race the engine
    /// here: a handler may wake the app thread (mailbox deposit, state
    /// machine update) *before* returning the [`Outcome::defer`] that
    /// registers the park, so the discharge can legitimately arrive a
    /// few instructions early. Stops waiting if the fabric shuts down.
    pub(crate) fn complete_deferred_wait(
        &self,
        node: NodeId,
        key: u64,
        who: NodeId,
        payload: Payload,
        wire_bytes: u64,
        not_before_ns: u64,
    ) {
        let parked = {
            let mut map = self.deferred.lock();
            loop {
                if let Some(p) = map.remove(&(node, key, who)) {
                    break p;
                }
                if self.stopped.load(Ordering::Acquire) {
                    return;
                }
                self.deferred_waiters.fetch_add(1, Ordering::Relaxed);
                self.deferred_cv.wait(&mut map);
                self.deferred_waiters.fetch_sub(1, Ordering::Relaxed);
            }
        };
        self.discharge(node, who, parked, payload, wire_bytes, not_before_ns);
    }

    /// Send the reply a handler parked, whichever context discharges it.
    fn discharge(
        &self,
        node: NodeId,
        who: NodeId,
        parked: DeferredReply,
        payload: Payload,
        wire_bytes: u64,
        not_before_ns: u64,
    ) {
        let ready_ns = parked.ready_ns.max(not_before_ns);
        if ready_ns > parked.ready_ns && sim::trace::enabled() {
            // Mirror the direct-reply `net/not_before` stall span: the
            // discharge floor held this reply past its service end.
            // Emitting it here too keeps the trace stream independent
            // of *which* same-instant arrival happened to be served
            // last (and so replied directly instead of deferring).
            sim::trace::span_corr(
                parked.ready_ns,
                ready_ns - parked.ready_ns,
                node,
                "net",
                "not_before",
                ready_ns,
                parked.req_id,
            );
        }
        send_reply(
            self,
            node,
            who,
            parked.kind,
            parked.tx,
            payload,
            wire_bytes,
            ready_ns,
            parked.deadline_ns,
        );
    }

    /// The one gate every message passes on its way to an inbox. With
    /// no fault plan this is a plain send; with one, the message may be
    /// destroyed (crash window, partition, drop draw), delayed, or
    /// duplicated. Destroyed messages produce a *loss notification* at
    /// the requester's timeout deadline — an `Err` reply for requests,
    /// a mailbox tombstone for tagged posts — so waiting threads time
    /// out in virtual time instead of blocking forever.
    ///
    /// Returns the delivery id assigned to the enqueued message (every
    /// delivery gets one: it doubles as the sender↔handler correlation
    /// id in traces), or 0 if the message never reached an inbox.
    #[allow(clippy::too_many_arguments)]
    fn send_user(
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
                let _ = tx.send(ReplyMsg::Err {
                    err: RequestError::FabricStopped,
                    ready_ns: depart,
                });
            }
            return 0;
        }
        let arrive_ns = self.wire_arrival(src, dst, depart, wire_bytes);
        if let Some(mp) = &self.membership {
            let arrive_epoch = mp.epoch_at(arrive_ns);
            if mp.epoch_at(depart) != arrive_epoch {
                // View-change fence: the message spans a membership
                // epoch boundary. Refuse it deterministically — the
                // requester's retry departs inside the new epoch.
                self.stats.add("view_fenced", 1);
                sim::trace::instant(depart, src, "fault", "view_fence", kind as u64);
                let deadline_ns = depart + self.timeout_ns();
                let err = RequestError::StaleView { epoch: arrive_epoch, at_ns: arrive_ns };
                self.fail_delivery(dst, reply, wake_tag, err, deadline_ns, ctx);
                return 0;
            }
        }
        let Some(fs) = &self.faults else {
            // Sends to stopped fabrics are ignored: a handler may
            // legitimately fire a post while the run is tearing down
            // (the teardown drain answers any reply channel).
            let req_id = self.next_req_id.fetch_add(1, Ordering::Relaxed) + 1;
            self.deliver(
                dst,
                Envelope::User { src, kind, payload, arrive_ns, reply, req_id, deadline_ns: 0 },
                ctx,
            );
            return req_id;
        };
        let deadline_ns = depart + self.timeout_ns();
        let dst_down = fs.plan.down_at(dst, arrive_ns);
        if dst_down || fs.plan.down_at(src, depart) || fs.plan.cut_at(src, dst, depart) {
            self.stats.add("crash_drops", 1);
            sim::trace::instant(depart, src, "fault", "crash_drop", kind as u64);
            let err = if dst_down {
                // The sender's transport notices the dead peer one
                // wire trip out; a partitioned or self-crashed path
                // just goes silent until the timeout.
                RequestError::NodeDown { node: dst, at_ns: arrive_ns }
            } else {
                RequestError::Timeout { deadline_ns }
            };
            self.fail_delivery(dst, reply, wake_tag, err, deadline_ns, ctx);
            return 0;
        }
        let d = fs.next_decision(src, dst, kind);
        if d.drop {
            self.stats.add("faults_dropped", 1);
            sim::trace::instant(depart, src, "fault", "drop", kind as u64);
            let err = RequestError::Timeout { deadline_ns };
            self.fail_delivery(dst, reply, wake_tag, err, deadline_ns, ctx);
            return 0;
        }
        let arrive_ns = arrive_ns + d.extra_delay_ns;
        if d.extra_delay_ns > 0 {
            self.stats.add("faults_delayed", 1);
            sim::trace::instant(depart, src, "fault", "delay", d.extra_delay_ns);
        }
        let req_id = self.next_req_id.fetch_add(1, Ordering::Relaxed) + 1;
        self.deliver(
            dst,
            Envelope::User { src, kind, payload, arrive_ns, reply, req_id, deadline_ns },
            ctx,
        );
        if d.dup {
            self.stats.add("faults_dup", 1);
            sim::trace::instant(depart, src, "fault", "dup", kind as u64);
            self.deliver(dst, Envelope::Dup { src, kind, req_id, arrive_ns }, ctx);
        }
        req_id
    }

    #[allow(clippy::too_many_arguments)]
    fn fail_delivery(
        &self,
        dst: NodeId,
        reply: Option<Sender<ReplyMsg>>,
        wake_tag: Option<u64>,
        err: RequestError,
        deadline_ns: u64,
        ctx: SendCtx,
    ) {
        let ready_ns = match &err {
            RequestError::NodeDown { at_ns, .. } | RequestError::StaleView { at_ns, .. } => *at_ns,
            _ => deadline_ns,
        };
        if let Some(tx) = reply {
            self.deliver(dst, Envelope::Fail { reply: tx, err, ready_ns }, ctx);
        } else if let Some(tag) = wake_tag {
            self.stats.add("tombstones", 1);
            self.mailboxes[dst].deposit_lost(tag, deadline_ns);
        }
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

/// Answer an envelope that can no longer be delivered (closed queue or
/// teardown drain): in-flight requests get a typed `FabricStopped`
/// error instead of a wedged waiter; one-way traffic is dropped.
fn answer_stranded(env: Envelope) {
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

/// Indices of the counters bumped on the delivery fast path: those are
/// an indexed atomic add, not a name scan (resolved in
/// [`NET_STAT_NAMES`] at compile time).
const STAT_REQUESTS: usize = sim::stats::stat_index(NET_STAT_NAMES, "requests");
const STAT_POSTS: usize = sim::stats::stat_index(NET_STAT_NAMES, "posts");
const STAT_BYTES: usize = sim::stats::stat_index(NET_STAT_NAMES, "bytes");
const STAT_DELIVERED: usize = sim::stats::stat_index(NET_STAT_NAMES, "delivered");

/// Names of the fabric-wide counters (see [`Network::stats`]). The
/// fault/retry counters stay at zero unless a fault plan is installed.
pub const NET_STAT_NAMES: &[&str] = &[
    "requests",
    "posts",
    "bytes",
    "delivered",
    "retries",
    "timeouts",
    "nodedown",
    "faults_dropped",
    "faults_dup",
    "faults_delayed",
    "crash_drops",
    "dedup_hits",
    "tombstones",
    "handler_failures",
    "view_fenced",
];

/// Builder for a [`Network`].
pub struct NetworkBuilder {
    nodes: usize,
    reserve: usize,
    cost: LinkCost,
    unified_saving_ns: u64,
    faults: Option<FaultPlan>,
    resilience: Option<Resilience>,
    membership: Option<MembershipPlan>,
    engine: EngineMode,
}

impl NetworkBuilder {
    /// A fabric of `nodes` endpoints over the given link.
    pub fn new(nodes: usize, cost: LinkCost) -> Self {
        assert!(nodes > 0, "need at least one node");
        Self {
            nodes,
            reserve: 0,
            cost,
            unified_saving_ns: 0,
            faults: None,
            resilience: None,
            membership: None,
            engine: EngineMode::default(),
        }
    }

    /// Pre-allocate `extra` reserved node slots beyond the initial set.
    /// Reserved slots have routers, mailboxes, run queues and cost-model
    /// state from the start, so [`Network::join_node`] only has to count
    /// them in and elastic growth never reallocates shared state.
    pub fn reserve_nodes(mut self, extra: usize) -> Self {
        self.reserve = extra;
        self
    }

    /// Install a membership schedule. Every send is epoch-fenced against
    /// the plan's view changes (see [`MembershipPlan::epoch_at`]); the
    /// caller is responsible for merging the plan's absence windows into
    /// the fault plan (the cluster layer does this).
    pub fn membership(mut self, plan: Option<MembershipPlan>) -> Self {
        self.membership = plan;
        self
    }

    /// Size the delivery worker pool (default: auto-sized from the
    /// host). Virtual-time results do not depend on it; only wall-clock
    /// throughput does.
    pub fn engine(mut self, mode: EngineMode) -> Self {
        self.engine = mode;
        self
    }

    /// Activate HAMSTER's unified messaging layer: each message saves
    /// `saving_ns` of software overhead on both the send and receive path
    /// (paper §3.3). Capped so overheads never go below 10% of native.
    pub fn unified(mut self, saving_ns: u64) -> Self {
        self.unified_saving_ns = saving_ns;
        self
    }

    /// Install a fault plan (None leaves the fabric perfectly reliable).
    /// Installing a plan without a resilience policy activates
    /// [`Resilience::default`] so lost messages still time out.
    pub fn faults(mut self, plan: Option<FaultPlan>) -> Self {
        self.faults = plan;
        self
    }

    /// Install a timeout/retry policy (None keeps the legacy
    /// infallible behaviour when no fault plan is present).
    pub fn resilience(mut self, r: Option<Resilience>) -> Self {
        self.resilience = r;
        self
    }

    /// Start the fabric: spawns the delivery worker pool.
    pub fn build(self) -> Network {
        let floor_send = self.cost.send_overhead_ns / 10;
        let floor_recv = self.cost.recv_overhead_ns / 10;
        let send_eff_ns = self.cost.send_overhead_ns.saturating_sub(self.unified_saving_ns).max(floor_send);
        let recv_eff_ns = self.cost.recv_overhead_ns.saturating_sub(self.unified_saving_ns).max(floor_recv);

        // Reserved slots share the fabric's state vectors — run queues
        // included — from the start.
        let slots = self.nodes + self.reserve;
        let shards = sim::sched::Shards::new(self.engine.resolved_workers(slots));
        let resilience = self.resilience.or(self.faults.as_ref().map(|_| Resilience::default()));
        let faults = self.faults.map(|plan| FaultState {
            plan,
            seqs: (0..slots).map(|_| Mutex::new(HashMap::new())).collect(),
            dedup: (0..slots).map(|_| Mutex::new(DedupWindow::default())).collect(),
        });
        let shared = Arc::new(NetShared {
            queues: (0..slots).map(|_| NodeQueue::new()).collect(),
            shards,
            servers: (0..slots)
                .map(|_| Bus::with_bandwidth(1_000_000_000))
                .collect(),
            egress: (0..slots)
                .map(|_| Bus::with_bandwidth(self.cost.bytes_per_sec))
                .collect(),
            routers: (0..slots).map(|_| Arc::new(Router::new())).collect(),
            mailboxes: (0..slots).map(|_| Arc::new(Mailbox::new())).collect(),
            cost: self.cost,
            send_eff_ns,
            recv_eff_ns,
            stats: StatSet::new(NET_STAT_NAMES),
            rtt_hist: Sketch::new(),
            faults,
            resilience,
            membership: self.membership,
            active: AtomicUsize::new(self.nodes),
            stopped: AtomicBool::new(false),
            bp_waits: AtomicU64::new(0),
            next_req_id: AtomicU64::new(0),
            deferred: Mutex::new(HashMap::new()),
            deferred_cv: Condvar::new(),
            deferred_waiters: AtomicUsize::new(0),
        });

        let worker_shared = shared.clone();
        let workers = sim::sched::spawn_workers(&shared.shards, "net-worker", move |node| {
            drive_node(&worker_shared, node) != After::Retired
        });
        Network { shared, workers }
    }
}

/// Send the (possibly fault-afflicted) reply of a served request.
#[allow(clippy::too_many_arguments)]
fn send_reply(
    shared: &NetShared,
    node: NodeId,
    src: NodeId,
    kind: u32,
    tx: Sender<ReplyMsg>,
    payload: Payload,
    wire_bytes: u64,
    mut ready_ns: u64,
    deadline_ns: u64,
) {
    if let Some(fs) = &shared.faults {
        let back_ns = ready_ns + shared.cost.latency_ns;
        if fs.plan.down_at(node, ready_ns)
            || fs.plan.down_at(src, back_ns)
            || fs.plan.cut_at(node, src, ready_ns)
        {
            shared.stats.add("crash_drops", 1);
            sim::trace::instant(ready_ns, node, "fault", "crash_drop", kind as u64);
            let err = RequestError::Timeout { deadline_ns };
            let _ = tx.send(ReplyMsg::Err { err, ready_ns: deadline_ns });
            return;
        }
        // Replies draw from their own decision stream (kind tagged with
        // the reply marker) so symmetric protocols don't share draws.
        let d = fs.next_decision(node, src, kind | REPLY_STREAM);
        if d.drop {
            shared.stats.add("faults_dropped", 1);
            sim::trace::instant(ready_ns, node, "fault", "drop", kind as u64);
            let err = RequestError::Timeout { deadline_ns };
            let _ = tx.send(ReplyMsg::Err { err, ready_ns: deadline_ns });
            return;
        }
        if d.extra_delay_ns > 0 {
            shared.stats.add("faults_delayed", 1);
            sim::trace::instant(ready_ns, node, "fault", "delay", d.extra_delay_ns);
            ready_ns += d.extra_delay_ns;
        }
        // A duplicated reply would be absorbed by the reply slot (the
        // requester takes the first), so `d.dup` needs no action.
    }
    // Requester may have vanished on teardown; ignore.
    let _ = tx.send(ReplyMsg::Ok { payload, wire_bytes, ready_ns });
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
            let known = shared
                .faults
                .as_ref()
                .is_some_and(|f| f.dedup[node].lock().contains(req_id));
            debug_assert!(known, "duplicate delivered before its original");
            shared.stats.add("dedup_hits", 1);
            sim::trace::instant(arrive_ns, node, "fault", "dedup", kind as u64);
        }
        Envelope::Fail { reply, err, ready_ns } => {
            // Forward the precomputed failure to the requester; no
            // service charge — the loss consumed no receive cycles.
            let _ = reply.send(ReplyMsg::Err { err, ready_ns });
        }
        Envelope::User { src, kind, payload, arrive_ns, reply, req_id, deadline_ns } => {
            if req_id != 0 {
                if let Some(fs) = &shared.faults {
                    fs.dedup[node].lock().insert(req_id);
                }
            }
            let service = shared.recv_eff_ns + shared.cost.handler_ns;
            let end0 = shared.servers[node].transfer(arrive_ns, service);
            let ctx = HandlerCtx { net: shared, node, now: end0 };
            let out = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                shared.routers[node].dispatch(&ctx, src, kind, payload)
            })) {
                Ok(Ok(out)) => out,
                Ok(Err(e)) => {
                    // Unroutable kind or typed dispatch failure: NACK
                    // the requester (or log, for one-way traffic)
                    // instead of dying.
                    shared.stats.add("handler_failures", 1);
                    eprintln!("node {node}: {e} (from node {src})");
                    if let Some(tx) = reply {
                        let err = RequestError::HandlerFailed { kind, reason: e.to_string() };
                        let _ = tx.send(ReplyMsg::Err { err, ready_ns: end0 });
                    }
                    return;
                }
                Err(e) => {
                    // A protocol-handler panic is a bug in the layer
                    // above; surface it loudly and fail the requester
                    // with a typed (non-retryable) error instead of
                    // silently wedging the whole fabric.
                    let msg = e
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| e.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "<non-string panic>".into());
                    shared.stats.add("handler_failures", 1);
                    eprintln!(
                        "node {node}: handler for kind {kind:#x} (from node {src}) \
                         panicked: {msg}"
                    );
                    if let Some(tx) = reply {
                        let err = RequestError::HandlerFailed { kind, reason: msg };
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
            if let Some(key) = out.defer_key {
                // The handler took ownership of the reply: park the
                // channel; a later invocation discharges it via
                // `complete_deferred`. A re-request from the same
                // node (its first attempt's reply was lost) simply
                // replaces the abandoned channel. Only requests defer:
                // `answer_later` defers only on a fabric with a policy,
                // where `rendezvous` sends the arrival as a request, and
                // a tree aggregate is a request on every fabric.
                let tx = reply.unwrap_or_else(|| {
                    panic!("one-way message kind {kind:#x} deferred a reply")
                });
                let mut map = shared.deferred.lock();
                map.insert((node, key, src), DeferredReply { tx, kind, ready_ns: end, deadline_ns, req_id });
                let waiting = shared.deferred_waiters.load(Ordering::Relaxed) > 0;
                notify_unlocked(map, &shared.deferred_cv, waiting);
                return;
            }
            match (reply, out.reply) {
                (Some(tx), Some((payload, wire_bytes))) => {
                    send_reply(shared, node, src, kind, tx, payload, wire_bytes, end, deadline_ns);
                }
                (Some(tx), None) => {
                    // In resilient mode, protocol messages that are
                    // one-way on a reliable fabric travel as
                    // requests so delivery is confirmable: the
                    // transport acks them without handler help.
                    assert!(
                        shared.resilience.is_some(),
                        "synchronous request handled by non-replying handler"
                    );
                    send_reply(shared, node, src, kind, tx, Box::new(()), 8, end, deadline_ns);
                }
                // Only requests are answered: `answer_later` and
                // `answer_all` return `Outcome::done` for a post, and the
                // replays (a barrier's cached release, a tree's resent
                // wave) answer a retried input — only a fabric with a
                // policy retries, and there the input is a request
                // (injected duplicates die at the dedup window, before
                // any handler).
                (None, Some(_)) => {
                    panic!("one-way message kind {kind:#x} produced a reply")
                }
                (None, None) => {}
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
/// [`NetShared::drive_inline`]. The list exists exactly as long as this
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
enum After {
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
fn drive_node(shared: &NetShared, node: NodeId) -> After {
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

/// A running fabric. Dropping it stops the delivery workers.
pub struct Network {
    shared: Arc<NetShared>,
    workers: Vec<JoinHandle<()>>,
}

impl Network {
    /// Start building a fabric.
    pub fn builder(nodes: usize, cost: LinkCost) -> NetworkBuilder {
        NetworkBuilder::new(nodes, cost)
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.shared.nodes()
    }

    /// Activate the next reserved node slot (see
    /// [`NetworkBuilder::reserve_nodes`]) and return its id. The workers
    /// already serve the slot's run queue, so this only counts it in.
    /// Panics when no reserved slots remain or the fabric is stopping.
    pub fn join_node(&self) -> NodeId {
        assert!(
            !self.shared.stopped.load(Ordering::Acquire),
            "join_node on a stopping fabric"
        );
        let capacity = self.shared.queues.len();
        // One atomic step, so concurrent joins hand out distinct slots.
        // The panic is the caller's bug, not a fabric state: it chose how
        // many slots to reserve, and a join past them has no node to run.
        self.shared
            .active
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| (n < capacity).then_some(n + 1))
            .expect("no reserved node slots left")
    }

    /// The handler router of `node` (register protocol handlers here).
    pub fn router(&self, node: NodeId) -> Arc<Router> {
        self.shared.routers[node].clone()
    }

    /// The mailbox of `node`.
    pub fn mailbox(&self, node: NodeId) -> Arc<Mailbox> {
        self.shared.mailboxes[node].clone()
    }

    /// Create the application-side endpoint for `node`, bound to that
    /// node CPU's virtual clock.
    pub fn port(&self, node: NodeId, clock: Arc<VirtualClock>) -> NodePort {
        assert!(node < self.nodes());
        NodePort { node, clock, shared: self.shared.clone() }
    }

    /// Fabric-wide statistics (see [`NET_STAT_NAMES`]).
    pub fn stats(&self) -> &StatSet {
        &self.shared.stats
    }

    /// The fabric's request round-trip latency histogram. The returned
    /// handle shares storage with the live fabric ([`Sketch`] clones
    /// are views), so a monitor can keep it and query quantiles later.
    pub fn rtt_histogram(&self) -> Sketch {
        self.shared.rtt_hist.clone()
    }

    /// Register `handler` for `kind` on every node (common for symmetric
    /// protocols).
    pub fn register_all<F>(&self, kind: u32, make: impl Fn(NodeId) -> F)
    where
        F: Fn(&HandlerCtx<'_>, NodeId, Payload) -> Outcome + Send + Sync + 'static,
    {
        for (node, router) in self.shared.routers.iter().enumerate() {
            router.register(kind, make(node));
        }
    }

    /// Register a fallible handler for `kind` on every node (see
    /// [`Router::register_try`]): dispatch failures NACK the requester
    /// with a typed error instead of panicking the delivery engine.
    pub fn register_all_try<F>(&self, kind: u32, make: impl Fn(NodeId) -> F)
    where
        F: Fn(&HandlerCtx<'_>, NodeId, Payload) -> Result<Outcome, crate::error::DispatchError>
            + Send
            + Sync
            + 'static,
    {
        for (node, router) in self.shared.routers.iter().enumerate() {
            router.register_try(kind, make(node));
        }
    }

    /// How many times an application thread blocked on a full node
    /// queue (backpressure). Real-time dependent — excluded from the
    /// deterministic [`NET_STAT_NAMES`] counters on purpose.
    pub fn backpressure_waits(&self) -> u64 {
        self.shared.bp_waits.load(Ordering::Relaxed)
    }
}

impl Drop for Network {
    fn drop(&mut self) {
        // New sends observe the flag and fail fast with FabricStopped.
        self.shared.stopped.store(true, Ordering::Release);
        // Wake any app thread blocked waiting for a park that will
        // never be registered now — through the lock, so one that read
        // the flag clear is waiting by the time it is notified.
        drop(self.shared.deferred.lock());
        self.shared.deferred_cv.notify_all();
        // Workers drain their ready rings fully before exiting, so every
        // scheduled batch still gets processed.
        self.shared.shards.stop();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // Everything enqueued after the stop (sends that raced the
        // flag) is drained atomically; in-flight requests among it get
        // a typed FabricStopped error instead of a wedged waiter.
        for nq in &self.shared.queues {
            for env in nq.q.close() {
                answer_stranded(env);
            }
        }
        // Reply obligations still parked by handlers (a rendezvous that
        // never completed, e.g. a barrier cut short by an aborted run)
        // fail the same way instead of stranding their requesters.
        for (_, parked) in self.shared.deferred.lock().drain() {
            let _ = parked.tx.send(ReplyMsg::Err {
                err: RequestError::FabricStopped,
                ready_ns: parked.ready_ns,
            });
        }
    }
}

/// Per-node endpoint used by application (and HAMSTER-service) threads.
#[derive(Clone)]
pub struct NodePort {
    node: NodeId,
    clock: Arc<VirtualClock>,
    shared: Arc<NetShared>,
}

impl NodePort {
    /// This endpoint's node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Number of nodes in the fabric.
    pub fn nodes(&self) -> usize {
        self.shared.nodes()
    }

    /// The virtual clock this port charges time to.
    pub fn clock(&self) -> &Arc<VirtualClock> {
        &self.clock
    }

    /// The same endpoint bound to a different clock (used when a second
    /// CPU of the node issues traffic).
    pub fn with_clock(&self, clock: Arc<VirtualClock>) -> NodePort {
        NodePort { node: self.node, clock, shared: self.shared.clone() }
    }

    /// This node's mailbox.
    pub fn mailbox(&self) -> &Mailbox {
        &self.shared.mailboxes[self.node]
    }

    /// The fabric's timeout/retry policy, if one is installed. A
    /// protocol exchange never needs to ask — [`NodePort::send_reliable`]
    /// and [`NodePort::rendezvous`] carry it either way; what does ask is
    /// configuration that depends on the fabric kind (the software
    /// DSM's choice of lock protocol at install time).
    pub fn resilience(&self) -> Option<Resilience> {
        self.shared.resilience
    }

    /// Answer a request one of this node's handlers parked with
    /// [`crate::Outcome::defer`] under `key` by requester `who`, from
    /// application context. The reply departs no earlier than
    /// `not_before_ns` (and never before the deferred request's own
    /// service completion). Blocks until the park exists: the handler
    /// that wakes this thread runs *before* the engine registers its
    /// [`crate::Outcome::defer`], so an early discharge waits the few
    /// instructions until the park lands rather than misfiring.
    ///
    /// This is the application-thread twin of
    /// [`crate::HandlerCtx::complete_deferred`]: protocols whose
    /// release point is driven by a blocking exchange on the
    /// application thread (e.g. a tree barrier pulling its wave from
    /// the parent) discharge their children's parked replies here.
    pub fn complete_deferred<T: std::any::Any + Send>(
        &self,
        key: u64,
        who: NodeId,
        value: T,
        wire_bytes: u64,
        not_before_ns: u64,
    ) {
        self.shared.complete_deferred_wait(self.node, key, who, Box::new(value), wire_bytes, not_before_ns);
    }

    /// Block on the mailbox and advance the clock to the wake-up's
    /// arrival time. Returns the payload. Panics if the wake-up was
    /// destroyed by fault injection — waiters on a faulty fabric must
    /// use [`NodePort::wait_mailbox_checked`].
    pub fn wait_mailbox(&self, tag: u64) -> Payload {
        // Only `fail_delivery` deposits a loss tombstone, and only under
        // a fault or membership plan: a waiter that can run under one
        // uses the checked form.
        self.wait_mailbox_checked(tag).unwrap_or_else(|e| {
            panic!("node {}: wake-up under tag {tag:#x} lost ({e}) with no resilient waiter", self.node)
        })
    }

    /// Block on the mailbox until a deposit under `tag` arrives, or
    /// until the fault injector's loss tombstone reports that the
    /// wake-up was destroyed (surfacing as a `Timeout` at the sender's
    /// deadline, in virtual time).
    pub fn wait_mailbox_checked(&self, tag: u64) -> Result<Payload, RequestError> {
        let d = self.shared.mailboxes[self.node].wait(tag);
        if d.lost {
            self.clock.advance_to(d.arrive_ns);
            self.shared.stats.add("timeouts", 1);
            return Err(RequestError::Timeout { deadline_ns: d.arrive_ns });
        }
        self.clock.advance_to(d.arrive_ns);
        self.clock.advance(self.shared.recv_eff_ns);
        Ok(d.payload)
    }

    /// Synchronous request: sends `value` to `dst` under `kind`, blocks
    /// for the reply, charges the full round trip (send overhead, wire,
    /// handler queueing and service, reply wire, receive overhead) to
    /// this node's clock, and returns the reply payload.
    ///
    /// Infallible form: panics on fabric failure. Use
    /// [`NodePort::try_request`] or [`NodePort::request_retrying`] on a
    /// faulty fabric.
    pub fn request<T: std::any::Any + Send>(
        &self,
        dst: NodeId,
        kind: u32,
        value: T,
        wire_bytes: u64,
    ) -> Payload {
        // Without a fault or membership plan every error left is fatal
        // (`FabricStopped`, `HandlerFailed`): there is nothing to act on.
        self.try_request(dst, kind, value, wire_bytes)
            .unwrap_or_else(|e| panic!("request kind {kind:#x} to node {dst} failed: {e}"))
    }

    /// [`NodePort::request`] with failures surfaced as typed errors
    /// instead of panics. Lost messages and dead peers resolve at
    /// virtual-time deadlines; the clock is always advanced to the
    /// moment the failure was known.
    pub fn try_request<T: std::any::Any + Send>(
        &self,
        dst: NodeId,
        kind: u32,
        value: T,
        wire_bytes: u64,
    ) -> Result<Payload, RequestError> {
        self.shared.stats.at(STAT_REQUESTS).incr();
        self.shared.stats.at(STAT_BYTES).add(wire_bytes);
        let t0 = self.clock.now();
        let depart = self.clock.advance(self.shared.send_eff_ns);
        let (tx, rx) = unbounded();
        let req_id = self.shared.send_user(
            self.node,
            dst,
            kind,
            Box::new(value),
            wire_bytes,
            depart,
            Some(tx),
            None,
            SendCtx::AppBlocking,
        );
        let res = match rx.recv() {
            Ok(ReplyMsg::Ok { payload, wire_bytes, ready_ns }) => {
                let back = self.shared.wire_arrival(dst, self.node, ready_ns, wire_bytes);
                self.clock.advance_to(back);
                self.clock.advance(self.shared.recv_eff_ns);
                Ok(payload)
            }
            Ok(ReplyMsg::Err { err, ready_ns }) => {
                self.clock.advance_to(ready_ns);
                self.count_error(&err);
                Err(err)
            }
            // Reply channel dropped without an answer: the fabric is gone.
            Err(_) => Err(RequestError::FabricStopped),
        };
        if res.is_ok() {
            self.shared.rtt_hist.record(self.clock.now() - t0);
        }
        if sim::trace::enabled() {
            sim::trace::span_corr(
                t0,
                self.clock.now() - t0,
                self.node,
                "net",
                "request",
                kind as u64,
                req_id,
            );
        }
        res
    }

    /// [`NodePort::try_request`] plus the fabric's retry policy:
    /// transient failures (timeouts, dead peers) back off exponentially
    /// — with deterministic jitter — and retry with a fresh delivery
    /// id, up to the policy's attempt budget. Fatal errors and
    /// exhausted budgets surface as `Err`. A fabric built without a
    /// policy makes exactly one attempt, which moves `value`: callers
    /// need not know which kind of fabric they are on.
    pub fn request_retrying<T: std::any::Any + Send + Clone>(
        &self,
        dst: NodeId,
        kind: u32,
        value: T,
        wire_bytes: u64,
    ) -> Result<Payload, RequestError> {
        let Some(res) = self.shared.resilience else {
            return self.try_request(dst, kind, value, wire_bytes);
        };
        match self.try_request(dst, kind, value.clone(), wire_bytes) {
            Ok(p) => Ok(p),
            Err(e) => self.retry_loop(res, dst, kind, &value, wire_bytes, e),
        }
    }

    /// Drive the backoff/retry schedule after a first failure.
    fn retry_loop<T: std::any::Any + Send + Clone>(
        &self,
        res: Resilience,
        dst: NodeId,
        kind: u32,
        value: &T,
        wire_bytes: u64,
        mut last: RequestError,
    ) -> Result<Payload, RequestError> {
        let seed = self.shared.faults.as_ref().map_or(0, |f| f.plan.seed);
        let mut failures = 1u32;
        loop {
            if !last.is_transient() || failures >= res.retry.max_attempts {
                return Err(last);
            }
            self.shared.stats.add("retries", 1);
            // Jitter from deterministic inputs only: the plan seed and
            // the stream's retry count. The clock is deliberately NOT an
            // input — its low microseconds can wobble with thread
            // scheduling, and hashing them would amplify a sub-µs
            // timing difference into a full backoff-sized divergence.
            let salt = match &self.shared.faults {
                Some(f) => f.next_retry_salt(self.node, dst, kind),
                None => {
                    let stream = ((self.node as u64) << 42)
                        ^ ((dst as u64) << 21)
                        ^ ((kind as u64) << 1);
                    mix(seed ^ stream ^ failures as u64)
                }
            };
            let pause = res.retry.backoff_ns(failures, salt);
            sim::trace::instant(self.clock.now(), self.node, "fault", "retry", kind as u64);
            self.clock.advance(pause);
            match self.try_request(dst, kind, value.clone(), wire_bytes) {
                Ok(p) => return Ok(p),
                Err(e) => {
                    last = e;
                    failures += 1;
                }
            }
        }
    }

    fn count_error(&self, err: &RequestError) {
        match err {
            RequestError::Timeout { .. } => self.shared.stats.add("timeouts", 1),
            RequestError::NodeDown { .. } => self.shared.stats.add("nodedown", 1),
            _ => {}
        }
    }

    /// Pipelined batch of synchronous requests: all messages are sent
    /// back-to-back (each paying send overhead on this CPU), then the
    /// clock advances to the completion of the *latest* reply — the
    /// behaviour of a DSM that pushes diffs to several homes in parallel
    /// and waits for all acknowledgements.
    ///
    /// Entries that fail transiently are retried individually (with
    /// backoff, see [`NodePort::request_retrying`]) after the batch
    /// settles, so one lost diff doesn't abort a whole flush. Returns
    /// replies in request order, or the first unrecoverable error. Only
    /// a fabric with a retry policy keeps a copy of each payload to
    /// retry with; without one every payload is moved, never cloned.
    pub fn request_batch<T: std::any::Any + Send + Clone>(
        &self,
        msgs: Vec<(NodeId, u32, T, u64)>,
    ) -> Result<Vec<Payload>, RequestError> {
        let t0 = self.clock.now();
        let n_msgs = msgs.len() as u64;
        let resilience = self.shared.resilience;
        let mut kept: Vec<T> = Vec::with_capacity(resilience.map_or(0, |_| msgs.len()));
        let mut pending = Vec::with_capacity(msgs.len());
        for (dst, kind, value, wire_bytes) in msgs {
            self.shared.stats.at(STAT_REQUESTS).incr();
            self.shared.stats.at(STAT_BYTES).add(wire_bytes);
            let depart = self.clock.advance(self.shared.send_eff_ns);
            let (tx, rx) = unbounded();
            if resilience.is_some() {
                kept.push(value.clone());
            }
            self.shared.send_user(
                self.node,
                dst,
                kind,
                Box::new(value),
                wire_bytes,
                depart,
                Some(tx),
                None,
                SendCtx::AppBlocking,
            );
            pending.push((dst, kind, wire_bytes, rx));
        }
        let mut latest = self.clock.now();
        let first: Vec<Result<Payload, RequestError>> = pending
            .iter()
            .map(|(dst, _, _, rx)| match rx.recv() {
                Ok(ReplyMsg::Ok { payload, wire_bytes, ready_ns }) => {
                    let back = self.shared.wire_arrival(*dst, self.node, ready_ns, wire_bytes);
                    latest = latest.max(back + self.shared.recv_eff_ns);
                    Ok(payload)
                }
                Ok(ReplyMsg::Err { err, ready_ns }) => {
                    latest = latest.max(ready_ns);
                    self.count_error(&err);
                    Err(err)
                }
                Err(_) => Err(RequestError::FabricStopped),
            })
            .collect();
        self.clock.advance_to(latest);
        // Failed entries are retried in request order; the first that
        // stays failed ends the batch.
        let out = first
            .into_iter()
            .zip(&pending)
            .enumerate()
            .map(|(i, (reply, &(dst, kind, wire_bytes, _)))| match reply {
                Ok(payload) => Ok(payload),
                Err(err) => match resilience {
                    Some(res) => self.retry_loop(res, dst, kind, &kept[i], wire_bytes, err),
                    None => Err(err),
                },
            })
            .collect::<Result<Vec<_>, _>>()?;
        if sim::trace::enabled() && n_msgs > 0 {
            sim::trace::span(t0, self.clock.now() - t0, self.node, "net", "request_batch", n_msgs);
        }
        Ok(out)
    }

    /// Fire-and-forget message to `dst`. Charges only the send overhead
    /// to this node's clock.
    pub fn post<T: std::any::Any + Send>(&self, dst: NodeId, kind: u32, value: T, wire_bytes: u64) {
        self.post_inner(dst, kind, value, wire_bytes, None, SendCtx::AppPost);
    }

    /// Like [`NodePort::post`], for messages whose receiving handler
    /// deposits into a mailbox under `wake_tag`: if fault injection
    /// destroys the message, a loss tombstone lands under that tag so
    /// the waiter times out instead of blocking forever.
    pub fn post_tagged<T: std::any::Any + Send>(
        &self,
        dst: NodeId,
        kind: u32,
        value: T,
        wire_bytes: u64,
        wake_tag: u64,
    ) {
        self.post_inner(dst, kind, value, wire_bytes, Some(wake_tag), SendCtx::AppPost);
    }

    /// A [`NodePort::post`] whose sender's next act is to park on what
    /// the handler — or the handlers it posts to — deposits: a barrier
    /// arrival, a lock hand-off. The same message at the same cost in
    /// virtual time, but an idle `dst` is driven on this thread, as a
    /// request's is, so the deposit is usually there before the sender
    /// looks. The caller holds no lock a handler takes.
    pub fn post_parking<T: std::any::Any + Send>(&self, dst: NodeId, kind: u32, value: T, wire_bytes: u64) {
        self.post_inner(dst, kind, value, wire_bytes, None, SendCtx::AppBlocking);
    }

    fn post_inner<T: std::any::Any + Send>(
        &self,
        dst: NodeId,
        kind: u32,
        value: T,
        wire_bytes: u64,
        wake_tag: Option<u64>,
        ctx: SendCtx,
    ) {
        self.shared.stats.at(STAT_POSTS).incr();
        self.shared.stats.at(STAT_BYTES).add(wire_bytes);
        let depart = self.clock.advance(self.shared.send_eff_ns);
        let req_id = self.shared.send_user(
            self.node,
            dst,
            kind,
            Box::new(value),
            wire_bytes,
            depart,
            None,
            wake_tag,
            ctx,
        );
        sim::trace::instant_corr(depart, self.node, "net", "post", kind as u64, req_id);
    }

    /// Post `value` to every node except this one. The payload must be
    /// `Clone` because each destination gets its own copy.
    pub fn broadcast<T: std::any::Any + Send + Clone>(&self, kind: u32, value: T, wire_bytes: u64) {
        for dst in 0..self.nodes() {
            if dst != self.node {
                self.post(dst, kind, value.clone(), wire_bytes);
            }
        }
    }

    /// A one-way message the protocol cannot afford to lose (a lock
    /// release): a [`NodePort::post_parking`] where the fabric loses
    /// nothing — the releaser hands the lock on itself rather than wake
    /// a worker to do it — an acknowledged
    /// [`NodePort::request_retrying`] where it has a policy — the
    /// transport acks it without handler help, so the handler returns
    /// [`Outcome::done`] on both.
    pub fn send_reliable<T: std::any::Any + Send + Clone>(
        &self,
        dst: NodeId,
        kind: u32,
        value: T,
        wire_bytes: u64,
    ) -> Result<(), RequestError> {
        if self.shared.resilience.is_none() {
            self.post_parking(dst, kind, value, wire_bytes);
            return Ok(());
        }
        self.request_retrying(dst, kind, value, wire_bytes).map(drop)
    }

    /// Join the rendezvous `dst` runs under `kind` and return its
    /// answer. Where the fabric loses nothing this is a
    /// [`NodePort::post_parking`] and a wait for the answer posted back
    /// under `tag`; where it has a policy, one retried request whose reply —
    /// parked by [`HandlerCtx::answer_later`] until
    /// [`HandlerCtx::answer_all`] — is the answer, so every loss heals
    /// at this requester's deadline. See the rendezvous section of
    /// [`crate::message`].
    pub fn rendezvous<T: std::any::Any + Send + Clone>(
        &self,
        dst: NodeId,
        kind: u32,
        value: T,
        wire_bytes: u64,
        tag: u64,
    ) -> Result<Payload, RequestError> {
        if self.shared.resilience.is_none() {
            self.post_parking(dst, kind, value, wire_bytes);
            return self.wait_mailbox_checked(tag);
        }
        self.request_retrying(dst, kind, value, wire_bytes)
    }

    /// The link cost model of this fabric.
    pub fn link_cost(&self) -> LinkCost {
        self.shared.cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
}

#[cfg(test)]
mod panic_tests {
    use super::*;
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
}

#[cfg(test)]
mod batch_tests {
    use super::*;
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

    #[test]
    fn late_joiner_serves_requests_and_drains_at_teardown() {
        for workers in [1, 2] {
            let net = Network::builder(2, tiny())
                .reserve_nodes(1)
                .resilience(Some(Resilience::default()))
                .engine(EngineMode { workers })
                .build();
            assert_eq!(net.nodes(), 2);
            let node = net.join_node();
            assert_eq!((node, net.nodes()), (2, 3));
            // The joined node serves requests like any initial node.
            net.router(node).register(0x51, |_c, _s, p| {
                Outcome::reply(downcast::<u64>(p) + 1, 8)
            });
            let p = net.port(0, VirtualClock::new());
            assert_eq!(downcast::<u64>(p.request(node, 0x51, 41u64, 8)), 42);
            // A reply parked on the late joiner must be answered at
            // teardown — the drop-drain walks joined slots too.
            net.router(node).register(0x52, |_c, _s, _p| Outcome::defer(2));
            let h = std::thread::spawn(move || p.try_request(node, 0x52, (), 8));
            std::thread::sleep(std::time::Duration::from_millis(50));
            drop(net);
            assert_eq!(h.join().unwrap().unwrap_err(), RequestError::FabricStopped);
        }
    }

    #[test]
    #[should_panic(expected = "no reserved node slots left")]
    fn join_without_reserved_slot_panics() {
        let net = Network::builder(2, tiny()).build();
        let _ = net.join_node();
    }
}

/// Where delivery runs: on the requester's own thread when it would
/// otherwise sleep for an idle node, on a pool worker in every other
/// case.
#[cfg(test)]
mod caller_runs_tests {
    use super::tests::tiny_link;
    use super::*;
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
}

#[cfg(test)]
mod rendezvous_tests {
    //! `send_reliable`, `rendezvous`, `answer_later` and `answer_all` on
    //! both kinds of fabric, against a barrier-shaped exchange. The
    //! pinned nanoseconds were recorded from the hand-written arms
    //! (`post` + `wait_mailbox` / `request_retrying` + `defer` +
    //! `complete_deferred`) the two DSM drivers carried before these
    //! functions existed.
    use super::tests::tiny_link;
    use super::*;
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
}
