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
//! transient faults with exponential backoff. What befalls a message and
//! when a request is retried is decided by the pure policy in
//! `crate::reliable`; this module is the mechanism that carries it
//! out: `send` (the gate every message leg passes), `deliver` (queues,
//! claims, drains), `reply` (replies and the deferred ones parked by
//! handlers) and `port` (the application's verbs).

mod deliver;
mod port;
mod reply;
mod send;

#[cfg(test)]
mod batch_tests;
#[cfg(test)]
mod caller_runs_tests;
#[cfg(test)]
mod panic_tests;
#[cfg(test)]
mod rendezvous_tests;
#[cfg(test)]
mod tests;

pub use port::NodePort;

use crate::engine::{EngineMode, NodeQueue};
use crate::error::RequestError;
use crate::fault::{FaultPlan, Resilience};
use crate::mailbox::Mailbox;
use crate::membership::MembershipPlan;
use crate::message::{HandlerCtx, NodeId, Outcome, Payload};
use crate::reliable::DedupWindow;
use crate::router::Router;
use crossbeam::channel::Sender;
use deliver::{answer_stranded, drive_node, After};
use parking_lot::{Condvar, Mutex};
use reply::ReplyTo;
use sim::{Bus, LinkCost, Sketch, StatSet};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

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
        /// Delivery id: the source node and its own count of messages
        /// that reached an inbox, packed (see `NetShared::delivery_id`);
        /// it doubles as the trace correlation id between sender and
        /// handler spans. Duplicated deliveries repeat the id so the
        /// receiving daemon can recognize and discard the copy.
        req_id: u64,
        /// Virtual time at which the requester gives up.
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

/// Shared state of the fabric (one per experiment run).
pub(crate) struct NetShared {
    /// One bounded run queue per node, holding the envelopes between
    /// `send_user` and `process_envelope`. Drained in batches by
    /// whichever thread holds the node's `scheduled` claim — a pool
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
    faults: Option<FaultPlan>,
    /// Per source node, the last position drawn on each of its
    /// `(dst, kind)` streams, so a fault draw depends only on a
    /// message's place in its stream, not on thread interleaving.
    streams: Vec<Mutex<HashMap<(NodeId, u32), u64>>>,
    /// Per destination node, the delivery ids it saw last (kept only
    /// under a fault plan, the one source of duplicates).
    dedup: Vec<Mutex<DedupWindow>>,
    pub(crate) resilience: Option<Resilience>,
    /// Membership schedule, when the cluster is elastic. Every send is
    /// epoch-fenced against it: a message departing in one view epoch
    /// and arriving in another is refused with the transient
    /// [`RequestError::StaleView`] instead of crossing the view change.
    /// Pure virtual-time data, so fencing is deterministic. Replies are
    /// not fenced — a request served inside an epoch completes — and
    /// the absence windows the plan implies are enforced by the fault
    /// layer's crash windows (merged in by the cluster layer).
    membership: Option<MembershipPlan>,
    /// Teardown flag: once set, requests fail with `FabricStopped` and
    /// posts are dropped instead of racing the workers' exit.
    stopped: AtomicBool,
    /// Times an application thread blocked on a full node queue
    /// (backpressure). Real-time dependent, so kept out
    /// of the deterministic [`NET_STAT_NAMES`] counters.
    bp_waits: AtomicU64,
    /// Per source node, how many of its messages reached an inbox.
    sent: Vec<AtomicU64>,
    /// Reply obligations parked by handlers ([`Outcome::defer`]), keyed
    /// by `(handling node, protocol key, requester)`. A re-request from
    /// the same requester replaces its entry (the abandoned channel is
    /// harmless); teardown fails whatever is left with `FabricStopped`.
    deferred: Mutex<HashMap<(NodeId, u64, NodeId), ReplyTo>>,
    /// Signalled whenever a reply obligation is parked in `deferred`:
    /// an application thread racing ahead of the engine's park
    /// registration waits here (`NetShared::complete_deferred`).
    deferred_cv: Condvar,
    /// Threads inside that wait. Written only under the `deferred`
    /// lock, so a park registered with none counted needs no notify.
    deferred_waiters: AtomicUsize,
}

impl NetShared {
    /// Number of nodes in the fabric.
    pub(crate) fn nodes(&self) -> usize {
        self.queues.len()
    }

    /// The next position of the `(src, dst, kind)` stream: fault draws
    /// and retry jitter alike consume one.
    fn position(&self, src: NodeId, dst: NodeId, kind: u32) -> u64 {
        let mut streams = self.streams[src].lock();
        let last = streams.entry((dst, kind)).or_insert(0);
        *last += 1;
        *last
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
            cost,
            unified_saving_ns: 0,
            faults: None,
            resilience: None,
            membership: None,
            engine: EngineMode::default(),
        }
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

        let nodes = self.nodes;
        let per_node = |bytes_per_sec| (0..nodes).map(|_| Bus::with_bandwidth(bytes_per_sec)).collect();
        let shared = Arc::new(NetShared {
            queues: (0..nodes).map(|_| NodeQueue::new()).collect(),
            shards: sim::sched::Shards::new(self.engine.resolved_workers(nodes)),
            servers: per_node(1_000_000_000),
            egress: per_node(self.cost.bytes_per_sec),
            routers: (0..nodes).map(|_| Arc::new(Router::new())).collect(),
            mailboxes: (0..nodes).map(|_| Arc::new(Mailbox::new())).collect(),
            cost: self.cost,
            send_eff_ns,
            recv_eff_ns,
            stats: StatSet::new(NET_STAT_NAMES),
            rtt_hist: Sketch::new(),
            resilience: self.resilience.or(self.faults.as_ref().map(|_| Resilience::default())),
            faults: self.faults,
            streams: (0..nodes).map(|_| Mutex::default()).collect(),
            dedup: (0..nodes).map(|_| Mutex::default()).collect(),
            membership: self.membership,
            stopped: AtomicBool::new(false),
            bp_waits: AtomicU64::new(0),
            sent: (0..nodes).map(|_| AtomicU64::new(0)).collect(),
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
    pub fn port(&self, node: NodeId, clock: Arc<sim::VirtualClock>) -> NodePort {
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
        self.shared.fail_parked();
    }
}
