//! The one fabric driver of the synchronisation machines.
//!
//! Every platform's locks and barriers run through [`Driver`]: it owns
//! the lock managers and where they are placed, the central barrier
//! manager, the tree barrier, the per-node barrier epochs, the
//! lock-acquire histogram and the protocol counters ([`STAT_NAMES`]),
//! registers the six handlers that drive them, carries out the
//! requester's half on the application thread, and clears the lock
//! notices a barrier made redundant. What differs between platforms is
//! the [`Platform`] parameter, resolved at compile time: the message
//! kinds, the wire size of each message shape, the trace module name,
//! and the one side effect only the software DSM has (home migration at
//! the quiescent point). Each of those has a default, so the
//! ordering-only `()` platform of the hybrid DSM and SMP is a few lines.
//! No line here asks which platform it serves.
//!
//! The central manager serves every lock on every fabric and topology.
//! Nothing asks which fabric it is on: a lock release and a
//! central-barrier arrival are one rendezvous on every fabric and leave
//! the transport to `interconnect` (`send_reliable`, `rendezvous`,
//! `answer_later`, `answer_all`). The tree barrier is one choreography,
//! the pull model: each node's application thread sends its completed
//! subtree's aggregate up as a request whose deferred reply is its
//! release wave, so every edge heals where the fabric retries.

use super::barrier::{BarrierMgr, BarrierStep, TreeBarrier, TreeStep};
use super::lock::{Acquire, LockMgr, Mode};
use super::{acquire_resilient, grant_corr, Answer, Notices, Parked, Piggyback};
use crate::{BarrierTopology, Cluster, NoticeWire};
use interconnect::{
    downcast, mailbox, HandlerCtx, Mailbox, NodeId, NodePort, Outcome, Payload, RequestError,
};
use parking_lot::Mutex;
use sim::stats::stat_index;
use sim::StatSet;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What one writer publishes on platform `P`.
pub type Pub<P> = <<P as Platform>::Wave as Piggyback>::Pub;

/// The driver's per-node counters. Each platform builds its node
/// `StatSet` over its own names followed by these, so the platform's
/// compile-time indices stay valid, and hands [`Driver::new`] clones.
pub const STAT_NAMES: &[&str] = &[
    "lock_acquires",
    "lock_queued",
    "barriers",
    "retries",
    "sync_msgs",
    "sync_records",
    "tree_waves",
    "tuner_actions",
];

/// Offsets into [`STAT_NAMES`] (checked at compile time).
const LOCK_ACQUIRES: usize = stat_index(STAT_NAMES, "lock_acquires");
const LOCK_QUEUED: usize = stat_index(STAT_NAMES, "lock_queued");
const BARRIERS: usize = stat_index(STAT_NAMES, "barriers");
const RETRIES: usize = stat_index(STAT_NAMES, "retries");
const SYNC_MSGS: usize = stat_index(STAT_NAMES, "sync_msgs");
const SYNC_RECORDS: usize = stat_index(STAT_NAMES, "sync_records");
const TREE_WAVES: usize = stat_index(STAT_NAMES, "tree_waves");
const TUNER_ACTIONS: usize = stat_index(STAT_NAMES, "tuner_actions");

/// A platform's synchronisation message kinds, one per message shape.
/// Two platforms on one cluster need disjoint blocks (the router refuses
/// a kind registered twice), and a block never moves: the fault plan
/// hashes the kind into every decision it draws.
#[derive(Debug, Clone, Copy)]
pub struct Kinds {
    /// Acquire request to the lock's manager (request → grant or queued).
    pub lock_req: u32,
    /// Release to the lock's manager (reliable one-way).
    pub lock_rel: u32,
    /// Grant posted to a queued requester; also its mailbox tag.
    pub lock_grant: u32,
    /// Central-barrier arrival (rendezvous at the manager).
    pub bar_arrive: u32,
    /// Central-barrier release; also the mailbox tag every barrier
    /// release lands under.
    pub bar_release: u32,
    /// Tree barrier: a subtree's aggregate, a request from child to
    /// parent; also the mailbox tag of a completed subtree.
    pub tree_agg: u32,
    /// Tree barrier: the key under which a parent parks an aggregate's
    /// reply, which is the child's release wave.
    pub tree_wave: u32,
}

impl Kinds {
    /// Every kind of the block, in field order.
    pub fn all(&self) -> [u32; 7] {
        [
            self.lock_req,
            self.lock_rel,
            self.lock_grant,
            self.bar_arrive,
            self.bar_release,
            self.tree_agg,
            self.tree_wave,
        ]
    }
}

/// What differs between the platforms that drive the synchronisation
/// machines: kinds, trace module, wire sizes, record counts and the
/// quiescent-point hook. Implemented by `()` (hybrid DSM and SMP: memory
/// is physically shared, synchronisation only orders) and by the
/// software DSM, whose hook reaches its own state through `&self`.
pub trait Platform: Send + Sync + 'static {
    /// What rides the synchronisation messages (see [`Piggyback`]).
    type Wave: Piggyback<Pub: Send + Sync + 'static> + Send + Sync + 'static;
    /// The platform's message kinds.
    const KINDS: Kinds;
    /// Module name of the trace events.
    const MODULE: &'static str;

    // ---- wire sizes; the defaults are a payload that carries nothing ----

    /// Bytes a publication adds to a lock release (16-byte header) or a
    /// barrier arrival (24).
    fn pub_bytes(_publication: &Pub<Self>) -> u64 {
        0
    }

    /// Bytes a wave adds to a central release (16-byte header) or a
    /// tree wave (24).
    fn wave_bytes(_wave: &Self::Wave) -> u64 {
        0
    }

    /// Wire size of a lock grant, by reply or by post.
    fn grant_bytes(_notices: &Notices<Self::Wave>) -> u64 {
        8
    }

    /// Wire size of a tree aggregate.
    fn agg_bytes(_agg: &Notices<Self::Wave>) -> u64 {
        32
    }

    /// Notice records a publication carries (counted under
    /// `sync_records`).
    fn pub_records(_publication: &Pub<Self>) -> u64 {
        0
    }

    /// Notice records a wave carries (counted under `sync_records`).
    fn wave_records(_wave: &Self::Wave) -> u64 {
        0
    }

    // ---- side effect; the default does nothing ----

    /// Every node is blocked in a barrier that is about to release: the
    /// quiescent point. Returns how many directory entries (16 bytes
    /// each) ride every release message.
    fn apply_migrations(&self) -> u64 {
        0
    }
}

/// The hybrid DSM's and SMP's platform: nothing rides.
impl Platform for () {
    type Wave = ();
    const KINDS: Kinds = Kinds {
        lock_req: 0x200,
        lock_rel: 0x201,
        lock_grant: 0x202,
        bar_arrive: 0x203,
        bar_release: 0x204,
        tree_agg: 0x206,
        tree_wave: 0x207,
    };
    const MODULE: &'static str = "hybriddsm";
}

/// Acquire `lock` in `mode`; see [`LockMgr::acquire_mode`] for
/// `lost_grant`.
#[derive(Clone, Copy)]
struct LockReq {
    lock: u32,
    mode: Mode,
    lost_grant: bool,
}

/// A lock grant posted to a queued requester, as it lands in the
/// requester's mailbox under `tag(lock_grant, lock)`.
struct LockGrant<W: Piggyback> {
    lock: u32,
    /// The notices accumulated under the lock, per writer.
    notices: Notices<W>,
}

/// `releaser` releases `lock`, publishing its critical section; `seq`
/// numbers the releaser's releases (see [`Releases`]).
#[derive(Clone)]
struct LockRel<P> {
    lock: u32,
    releaser: NodeId,
    seq: u64,
    publication: P,
}

/// One node's lock releases: the next sequence number, the last one
/// sent without a fabric error, and the highest one a manager has
/// taken. Host-time bookkeeping only: a tree barrier waits for `taken ≥
/// sent` before the node arrives.
#[derive(Default)]
struct Releases {
    next: AtomicU64,
    sent: AtomicU64,
    taken: AtomicU64,
}

/// `who` reached barrier `id` in `epoch` at its central manager.
#[derive(Clone)]
struct Arrival<P> {
    id: u32,
    epoch: u64,
    who: NodeId,
    publication: P,
}

/// Barrier `id` released `epoch`; what the receiver must apply.
struct Release<W> {
    id: u32,
    epoch: u64,
    notices: W,
}

/// A child's subtree aggregate, a request to its parent.
#[derive(Clone)]
struct TreeAgg<P> {
    id: u32,
    epoch: u64,
    child: NodeId,
    latest_ns: u64,
    agg: Vec<(NodeId, P)>,
}

/// A release wave, parent to child, as the reply to the child's
/// aggregate: the complement of the receiving subtree's own.
struct TreeWave<W> {
    epoch: u64,
    release_ns: u64,
    wave: W,
}

/// A handler body: the driver, the platform, and the message.
type Handle<P> = fn(&Driver<P>, &P, &HandlerCtx<'_>, NodeId, Payload) -> Outcome;

/// The cluster-shared state of one platform's synchronisation, and the
/// code that drives it. Built by [`Driver::new`], wired to the fabric by
/// [`Driver::register`].
pub struct Driver<P: Platform> {
    nodes: usize,
    barrier: BarrierTopology,
    /// `Some(max_runs)` when release waves travel as digests.
    digest_runs: Option<usize>,
    mailboxes: Vec<Arc<Mailbox>>,
    locks: Vec<Mutex<LockMgr<P::Wave>>>,
    barriers: Vec<Mutex<BarrierMgr<Pub<P>>>>,
    trees: Vec<Mutex<TreeBarrier<P::Wave>>>,
    /// Per node: barrier id → last committed epoch.
    epochs: Vec<Mutex<HashMap<u32, u64>>>,
    /// Per node: barrier id → highest released epoch whose lock-notice
    /// clear already ran, so a replayed release does not wipe notices
    /// that accumulated after the original.
    cleared: Vec<Mutex<HashMap<u32, u64>>>,
    /// Per node: its lock releases, sent and taken.
    releases: Vec<Releases>,
    /// Locks whose manager is placed away from `lock % nodes`.
    placed: HashMap<u32, NodeId>,
    /// Per node: the platform's counters; [`STAT_NAMES`] start at `base`.
    stats: Vec<StatSet>,
    base: usize,
}

impl<P: Platform> Driver<P> {
    /// Synchronisation state for `cluster`, shaped by its
    /// [`crate::SyncTopology`] — the barrier topology and whether waves
    /// travel as digests — and its placed lock
    /// managers, each counted under `tuner_actions` at its node. `stats`
    /// holds each node's counters, [`STAT_NAMES`] among them in order.
    pub fn new(cluster: &Cluster, stats: Vec<StatSet>) -> Arc<Self> {
        let nodes = cluster.config().nodes;
        let sync = cluster.config().sync;
        assert_eq!(stats.len(), nodes, "one counter set per node");
        let base = stats[0].index_of(STAT_NAMES[0]).expect("the driver's counters are registered");
        for (i, name) in STAT_NAMES.iter().enumerate() {
            assert_eq!(stats[0].index_of(name), Some(base + i), "driver counter {name:?} out of order");
        }
        let mut placed = HashMap::new();
        for &(lock, node) in &cluster.config().lock_managers {
            assert!(node < nodes, "lock {lock}: manager node {node} out of range for {nodes} nodes");
            placed.insert(lock, node);
            stats[node].at(base + TUNER_ACTIONS).incr();
        }
        let fanout = match sync.barrier {
            BarrierTopology::Tree { fanout } => fanout,
            BarrierTopology::Central => 2,
        };
        let digest_runs = match sync.notices {
            NoticeWire::Explicit => None,
            NoticeWire::Digest { max_runs } => Some(max_runs),
        };
        Arc::new(Driver {
            nodes,
            barrier: sync.barrier,
            digest_runs,
            mailboxes: (0..nodes).map(|n| cluster.network().mailbox(n)).collect(),
            locks: (0..nodes).map(|_| Mutex::new(LockMgr::new())).collect(),
            barriers: (0..nodes).map(|_| Mutex::new(BarrierMgr::new())).collect(),
            trees: (0..nodes)
                .map(|me| Mutex::new(TreeBarrier::new(me, nodes, fanout, digest_runs)))
                .collect(),
            epochs: (0..nodes).map(|_| Mutex::new(HashMap::new())).collect(),
            cleared: (0..nodes).map(|_| Mutex::new(HashMap::new())).collect(),
            releases: (0..nodes).map(|_| Releases::default()).collect(),
            placed,
            stats,
            base,
        })
    }

    /// The manager of `lock`: where it is placed, else `lock % nodes`.
    fn lock_mgr(&self, lock: u32) -> NodeId {
        self.placed.get(&lock).copied().unwrap_or(lock as usize % self.nodes)
    }

    /// Add `n` to `node`'s counter at offset `idx` of [`STAT_NAMES`].
    fn count(&self, node: NodeId, idx: usize, n: u64) {
        self.stats[node].at(self.base + idx).add(n);
    }

    /// Count one synchronisation message carrying `records` notice
    /// records from `node` to `dst`; a self-send is free and not counted.
    pub fn count_sync(&self, node: NodeId, dst: NodeId, records: u64) {
        if node != dst {
            self.count(node, SYNC_MSGS, 1);
            self.count(node, SYNC_RECORDS, records);
        }
    }

    /// Register the platform's lock, barrier and tree handlers on every
    /// node of `cluster`. Call once, before [`Cluster::run`].
    pub fn register(self: &Arc<Self>, cluster: &Cluster, platform: Arc<P>) {
        let k = P::KINDS;
        let handlers: [(u32, Handle<P>); 6] = [
            (k.lock_req, Self::on_lock_req),
            (k.lock_rel, Self::on_lock_rel),
            (k.lock_grant, Self::on_lock_grant),
            (k.bar_arrive, Self::on_bar_arrive),
            (k.bar_release, Self::on_bar_release),
            (k.tree_agg, Self::on_tree_agg),
        ];
        for (kind, handle) in handlers {
            cluster.network().register_all(kind, |_node| {
                let (sync, p) = (self.clone(), platform.clone());
                move |ctx: &HandlerCtx<'_>, src, msg| handle(&sync, &p, ctx, src, msg)
            });
        }
    }

    // ---- the application's half ----------------------------------------

    /// Acquire `lock` in `mode` and return the notices the grant
    /// carries: one `lock_req` round at the manager (retried by the
    /// fabric where it has a policy to) answered granted, or queued —
    /// then park on the grant tag, where a grant destroyed in flight
    /// leaves a loss tombstone and the next round says so (see
    /// [`acquire_resilient`]; a fabric that loses nothing never gets
    /// past round 1). Close the acquisition with [`Driver::acquired`].
    pub fn try_acquire(&self, port: &NodePort, lock: u32, mode: Mode) -> Result<Notices<P::Wave>, RequestError> {
        let me = port.node();
        self.count(me, LOCK_ACQUIRES, 1);
        let tag = mailbox::tag(P::KINDS.lock_grant, lock);
        let mgr = self.lock_mgr(lock);
        acquire_resilient(
            format_args!("{} node {me}: lock {lock}", P::MODULE),
            |round, lost_grant| {
                if round > 1 {
                    self.count(me, RETRIES, 1);
                }
                let req = LockReq { lock, mode, lost_grant };
                let reply = port.request_retrying(mgr, P::KINDS.lock_req, req, 16)?;
                let answer = downcast::<Answer<Notices<P::Wave>>>(reply);
                if round == 1 && matches!(answer, Answer::Queued) {
                    self.count(me, LOCK_QUEUED, 1);
                }
                Ok(answer)
            },
            || match port.wait_mailbox_checked(tag) {
                Ok(grant) => {
                    let grant = downcast::<LockGrant<P::Wave>>(grant);
                    assert_eq!(grant.lock, lock);
                    Ok(Parked::Grant(grant.notices))
                }
                Err(e) if e.is_transient() => Ok(Parked::Lost),
                Err(e) => Err(e),
            },
        )
    }

    /// Close an acquisition of `lock` begun at `t0`, once the grant is
    /// applied: its span (`corr = lock + 1`) into the trace.
    pub fn acquired(&self, port: &NodePort, t0: u64, lock: u32) {
        let dur = port.clock().now().saturating_sub(t0);
        let corr = lock as u64 + 1;
        sim::trace::span_corr(t0, dur, port.node(), P::MODULE, "lock_acquire", lock as u64, corr);
    }

    /// Release `lock`, publishing `publication`, and trace the release
    /// instant; it carries [`grant_corr`] of `(releaser, lock)` — the
    /// encoding the grant instants use — so release → next grant chains
    /// join up. A lost release would strand the manager's waiters, so it
    /// goes by [`NodePort::send_reliable`].
    pub fn try_release(&self, port: &NodePort, lock: u32, publication: Pub<P>) -> Result<(), RequestError> {
        let (me, k) = (port.node(), P::KINDS);
        let bytes = 16 + P::pub_bytes(&publication);
        let mgr = self.lock_mgr(lock);
        let seq = self.releases[me].next.fetch_add(1, Ordering::Relaxed) + 1;
        let rel = LockRel { lock, releaser: me, seq, publication };
        port.send_reliable(mgr, k.lock_rel, rel, bytes)?;
        self.releases[me].sent.fetch_max(seq, Ordering::Relaxed);
        let now = port.clock().now();
        sim::trace::instant_corr(now, me, P::MODULE, "lock_release", lock as u64, grant_corr(me, lock));
        Ok(())
    }

    /// Wait at barrier `id`, publishing `publication`, and hand the
    /// released wave to `apply`. The epoch commits only once the
    /// release is applied, so a retried barrier re-arrives under the
    /// same epoch — deduplicated or replayed by the central manager or
    /// the tree parent, whichever the topology routes it to. The span
    /// (`corr` = the epoch) starts at `t0`.
    pub fn try_barrier(
        &self,
        p: &P,
        port: &NodePort,
        t0: u64,
        id: u32,
        publication: Pub<P>,
        apply: impl FnOnce(P::Wave),
    ) -> Result<(), RequestError> {
        let me = port.node();
        self.count(me, BARRIERS, 1);
        let epoch = self.epochs[me].lock().get(&id).copied().unwrap_or(0) + 1;
        let wave = match self.barrier {
            BarrierTopology::Central => self.central_barrier(port, id, epoch, publication)?,
            BarrierTopology::Tree { .. } => self.tree_barrier(p, port, id, epoch, publication)?,
        };
        apply(wave);
        self.epochs[me].lock().insert(id, epoch);
        let dur = port.clock().now().saturating_sub(t0);
        sim::trace::span_corr(t0, dur, me, P::MODULE, "barrier", id as u64, epoch);
        Ok(())
    }

    /// One rendezvous at the manager (see [`interconnect::message`]).
    /// Retried arrivals are deduplicated while the epoch is pending and
    /// answered from the release cache after.
    fn central_barrier(&self, port: &NodePort, id: u32, epoch: u64, publication: Pub<P>) -> Result<P::Wave, RequestError> {
        let me = port.node();
        let mgr = id as usize % self.nodes;
        let bytes = 24 + P::pub_bytes(&publication);
        self.count_sync(me, mgr, P::pub_records(&publication));
        let arr = Arrival { id, epoch, who: me, publication };
        let tag = mailbox::tag(P::KINDS.bar_release, id);
        let rel = port.rendezvous(mgr, P::KINDS.bar_arrive, arr, bytes, tag)?;
        let rel = downcast::<Release<P::Wave>>(rel);
        assert_eq!(rel.epoch, epoch, "barrier {id}: epoch mismatch");
        Ok(rel.notices)
    }

    /// The tree barrier, driven from the application threads (the pull
    /// model): once the local subtree is complete, this thread sends
    /// the aggregate to the parent as a `tree_agg` request and receives
    /// its release wave as the (deferred) reply, then answers every
    /// parked child with its complement wave. Completion is always a
    /// local action at a node whose own wave is already in hand, so by
    /// induction from the root every parked reply is eventually
    /// discharged. Where the fabric retries, a lost request or reply
    /// times out at the sender and the retry finds the released epoch
    /// replayed from the parent's cache — a parked reply has no
    /// deadline of its own, so a one-way wave could not heal.
    fn tree_barrier(
        &self,
        p: &P,
        port: &NodePort,
        id: u32,
        epoch: u64,
        publication: Pub<P>,
    ) -> Result<P::Wave, RequestError> {
        let (me, k) = (port.node(), P::KINDS);
        // Wait — in host time only: the clock is not advanced — until
        // the managers have taken every lock release this node sent. The
        // root clears every node's lock notices at its quiescent point,
        // and a release still queued then would publish behind the clear
        // in some runs and not in others. The takes have almost always
        // landed by now; where the fabric acknowledges releases, always.
        let releases = &self.releases[me];
        let sent = releases.sent.load(Ordering::Relaxed);
        while releases.taken.load(Ordering::Acquire) < sent {
            std::thread::yield_now();
        }
        let now = port.clock().now();
        let step = self.trees[me].lock().self_arrive(id, epoch, publication, now);
        // The completing step always travels through the local mailbox,
        // even when this thread's own arrival completed the subtree: if
        // the two completion orders (own-last vs aggregate-last, a
        // real-time race) took different paths here, only one of them
        // would pay the mailbox wake-up and virtual time would stop
        // being reproducible.
        let skey = mailbox::tag(k.tree_agg, id);
        match step {
            // Children outstanding: the `tree_agg` handler deposits the
            // completion step when the last one lands.
            TreeStep::Waiting => {}
            step @ (TreeStep::Up { .. } | TreeStep::Deliver { .. }) => {
                let when = step.join_ns();
                port.mailbox().deposit(skey, Box::new(step), when);
            }
            // The epoch commits only with the release in hand, so this
            // thread never re-arrives at a released epoch (`Redeliver`),
            // and only a child's aggregate yields `ResendWave`.
            other => unreachable!("own tree arrival produced {other:?}"),
        }
        let deliver = match downcast::<TreeStep<P::Wave>>(port.wait_mailbox(skey)) {
            TreeStep::Up { parent, latest_ns, agg } => {
                let records = agg.iter().map(|(_, publication)| P::pub_records(publication)).sum();
                self.count_sync(me, parent, records);
                let bytes = P::agg_bytes(&agg);
                let msg = TreeAgg { id, epoch, child: me, latest_ns, agg };
                let wave = downcast::<TreeWave<P::Wave>>(port.request_retrying(parent, k.tree_agg, msg, bytes)?);
                assert_eq!(wave.epoch, epoch, "tree barrier {id}: epoch mismatch");
                self.trees[me].lock().wave(id, epoch, wave.release_ns, wave.wave)
            }
            step @ TreeStep::Deliver { .. } => step,
            // Only completing steps are deposited under `skey`.
            other => unreachable!("own tree arrival produced {other:?}"),
        };
        // The first wave of an unreleased epoch always delivers.
        let TreeStep::Deliver { release_ns, own, child_waves } = deliver else {
            unreachable!("tree barrier {id}: epoch {epoch} wave did not deliver")
        };
        // The release instant is the deterministic join of arrival
        // stamps; pin the clock there so the root (whose release is
        // computed locally, not received off the wire) leaves the
        // barrier at the same virtual time on every run.
        port.clock().advance_to(release_ns);
        let mut extra = 0;
        if me == id as usize % self.nodes {
            extra = self.quiescent(p, me, id, epoch, release_ns);
            // Every node is blocked in this barrier and has had each of
            // its lock releases taken (see the wait above), and no wave
            // has left yet: the one point where clearing every node's
            // lock notices is ordered against all lock traffic.
            for node in 0..self.nodes {
                self.clear_notices(node, id, epoch);
            }
        }
        let wkey = mailbox::tag(k.tree_wave, id);
        for (child, wave) in child_waves {
            let (msg, bytes) = self.wave_to(me, child, epoch, release_ns, wave);
            port.complete_deferred(wkey, child, msg, bytes + extra, release_ns);
        }
        Ok(own)
    }

    // ---- the handlers ------------------------------------------------------

    /// Acquire at the manager.
    fn on_lock_req(&self, _p: &P, ctx: &HandlerCtx<'_>, src: NodeId, msg: Payload) -> Outcome {
        let req = downcast::<LockReq>(msg);
        let step = self.locks[ctx.node].lock().acquire_mode(req.lock, src, req.mode, ctx.now, req.lost_grant);
        match step {
            Acquire::Granted(notices, not_before) => {
                // The grant carries its validity floor: the requester
                // may not proceed before `not_before` (the current
                // holder's release time).
                self.trace_grant(ctx.now.max(not_before), ctx.node, req.lock, src);
                let bytes = P::grant_bytes(&notices);
                Outcome::reply_not_before(Answer::Granted(notices), bytes, not_before)
            }
            Acquire::Queued => Outcome::reply(Answer::<Notices<P::Wave>>::Queued, 8),
        }
    }

    /// Release at the manager: may hand over to queued waiters.
    fn on_lock_rel(&self, _p: &P, ctx: &HandlerCtx<'_>, _src: NodeId, msg: Payload) -> Outcome {
        let rel = downcast::<LockRel<Pub<P>>>(msg);
        let (lock, k) = (rel.lock, P::KINDS);
        let grants = self.locks[ctx.node].lock().release(lock, rel.releaser, rel.publication, ctx.now);
        // Pairs with the Acquire load of `tree_barrier`'s wait.
        self.releases[rel.releaser].taken.fetch_max(rel.seq, Ordering::Release);
        for (next, notices) in grants {
            self.trace_grant(ctx.now, ctx.node, lock, next);
            let bytes = P::grant_bytes(&notices);
            // Tagged so a lost grant leaves a loss tombstone under the
            // waiter's mailbox tag instead of hanging it forever.
            let grant = LockGrant::<P::Wave> { lock, notices };
            ctx.post_tagged(next, k.lock_grant, grant, bytes, mailbox::tag(k.lock_grant, lock));
        }
        Outcome::done()
    }

    /// A posted grant reaches its queued requester.
    fn on_lock_grant(&self, _p: &P, ctx: &HandlerCtx<'_>, _src: NodeId, msg: Payload) -> Outcome {
        let grant = downcast::<LockGrant<P::Wave>>(msg);
        let tag = mailbox::tag(P::KINDS.lock_grant, grant.lock);
        self.mailboxes[ctx.node].deposit(tag, Box::new(grant), ctx.now);
        Outcome::done()
    }

    /// Central-barrier arrival at the manager.
    fn on_bar_arrive(&self, p: &P, ctx: &HandlerCtx<'_>, _src: NodeId, msg: Payload) -> Outcome {
        let arr = downcast::<Arrival<Pub<P>>>(msg);
        let (id, k) = (arr.id, P::KINDS);
        let step =
            self.barriers[ctx.node].lock().arrive(id, arr.epoch, arr.who, arr.publication, ctx.now, self.nodes);
        let tag = mailbox::tag(k.bar_release, id);
        match step {
            BarrierStep::Release { epoch, release_ns, intervals } => {
                let extra = self.quiescent(p, ctx.node, id, epoch, release_ns);
                // No participant resumes before release_ns.
                let waiters = intervals.iter().map(|&(who, _)| who).collect();
                ctx.answer_all(k.bar_release, tag, release_ns, arr.who, waiters, |who| {
                    let (rel, bytes) = self.release_to(ctx.node, who, id, epoch, &intervals);
                    (rel, bytes + extra)
                })
            }
            // A retried arrival for an epoch that already released: the
            // arriver's release reply was lost. Answer with the cached
            // release.
            BarrierStep::Replay { epoch, release_ns, intervals } => {
                let (rel, bytes) = self.release_to(ctx.node, arr.who, id, epoch, &intervals);
                Outcome::reply_not_before(rel, bytes, release_ns)
            }
            // Pending (first copy or a retried duplicate).
            BarrierStep::Waiting => ctx.answer_later(tag),
        }
    }

    /// A central-barrier release reaches a participant.
    fn on_bar_release(&self, _p: &P, ctx: &HandlerCtx<'_>, _src: NodeId, msg: Payload) -> Outcome {
        let rel = downcast::<Release<P::Wave>>(msg);
        self.clear_notices(ctx.node, rel.id, rel.epoch);
        let tag = mailbox::tag(P::KINDS.bar_release, rel.id);
        self.mailboxes[ctx.node].deposit(tag, Box::new(rel), ctx.now);
        Outcome::done()
    }

    /// A child's subtree aggregate.
    fn on_tree_agg(&self, _p: &P, ctx: &HandlerCtx<'_>, _src: NodeId, msg: Payload) -> Outcome {
        let msg = downcast::<TreeAgg<Pub<P>>>(msg);
        let (id, epoch, child, k) = (msg.id, msg.epoch, msg.child, P::KINDS);
        let step = self.trees[ctx.node].lock().child_arrive(id, epoch, child, msg.latest_ns, msg.agg);
        // The reply to this request is the child's release wave, parked
        // until this node's release point (driven by the application
        // thread in `tree_barrier`).
        let wkey = mailbox::tag(k.tree_wave, id);
        match step {
            TreeStep::Waiting => Outcome::defer(wkey),
            step @ (TreeStep::Up { .. } | TreeStep::Deliver { .. }) => {
                // This aggregate completed the local subtree: hand the
                // step to the blocked application thread over the local
                // mailbox (no wire, cannot be lost). The deposit is
                // stamped with the join instant (max arrival stamp), not
                // ctx.now — which aggregate the engine processes last is
                // a real-time race, and its service end must not leak
                // into virtual time.
                let when = step.join_ns();
                self.mailboxes[ctx.node].deposit(mailbox::tag(k.tree_agg, id), Box::new(step), when);
                Outcome::defer(wkey)
            }
            // Retried aggregate for a released epoch: the original wave
            // reply was lost.
            TreeStep::ResendWave { child: c, release_ns, wave } => {
                debug_assert_eq!(c, child);
                let (rep, bytes) = self.wave_to(ctx.node, child, epoch, release_ns, wave);
                Outcome::reply_not_before(rep, bytes, release_ns)
            }
            TreeStep::Redeliver { .. } => unreachable!("child aggregates never redeliver locally"),
        }
    }

    // ---- shared by both halves ---------------------------------------------

    /// Barrier `id` released `epoch` at `node`: the first time, drop
    /// the node's lock-notice history, since a barrier makes every
    /// prior write visible everywhere. Runs at each participant's
    /// central release, and for every node at once at the tree root's
    /// quiescent point.
    fn clear_notices(&self, node: NodeId, id: u32, epoch: u64) {
        let fresh = {
            let mut cleared = self.cleared[node].lock();
            let seen = cleared.entry(id).or_insert(0);
            let fresh = epoch > *seen;
            *seen = (*seen).max(epoch);
            fresh
        };
        if fresh {
            self.locks[node].lock().clear_notices();
        }
    }

    /// Barrier `id` releases `epoch` at `node`, its central manager or
    /// tree root, with every node blocked in it: the quiescent point,
    /// traced as the release instant (`corr` = the epoch ties it to the
    /// client-side barrier spans). Returns the bytes of migration
    /// directory that ride each release message.
    fn quiescent(&self, p: &P, node: NodeId, id: u32, epoch: u64, release_ns: u64) -> u64 {
        let extra = p.apply_migrations() * 16;
        sim::trace::instant_corr(release_ns, node, P::MODULE, "barrier_release", id as u64, epoch);
        extra
    }

    /// The central release `node` sends `receiver`, counted as one sync
    /// message, and its wire size. It carries every arrival's
    /// publication (receivers skip their own entry) — or, where waves
    /// travel as digests, which drop writer identity, the digest of
    /// everyone *else's*.
    fn release_to(
        &self,
        node: NodeId,
        receiver: NodeId,
        id: u32,
        epoch: u64,
        intervals: &[(NodeId, Pub<P>)],
    ) -> (Release<P::Wave>, u64) {
        let notices = match self.digest_runs {
            None => P::Wave::encode(intervals.to_vec(), None),
            Some(runs) => {
                let others = intervals.iter().filter(|(w, _)| *w != receiver).cloned().collect();
                P::Wave::encode(others, Some(runs))
            }
        };
        self.count_sync(node, receiver, P::wave_records(&notices));
        let bytes = 16 + P::wave_bytes(&notices);
        (Release { id, epoch, notices }, bytes)
    }

    /// The release wave `node` sends `child`, counted, and its wire
    /// size.
    fn wave_to(&self, node: NodeId, child: NodeId, epoch: u64, release_ns: u64, wave: P::Wave) -> (TreeWave<P::Wave>, u64) {
        self.count(node, TREE_WAVES, 1);
        self.count_sync(node, child, P::wave_records(&wave));
        let bytes = 24 + P::wave_bytes(&wave);
        (TreeWave { epoch, release_ns, wave }, bytes)
    }

    /// A lock-grant instant; `corr` packs `(grantee, lock)` like every
    /// other platform's (see [`grant_corr`]).
    fn trace_grant(&self, at_ns: u64, node: NodeId, lock: u32, grantee: NodeId) {
        sim::trace::instant_corr(at_ns, node, P::MODULE, "lock_grant", lock as u64, grant_corr(grantee, lock));
    }
}

#[cfg(test)]
mod tests {
    use super::super::testpayload::{iv, Wave};
    use super::*;
    use crate::{FabricConfig, LinkKind, NodeCtx, RunReport, SyncTopology};
    use interconnect::Resilience;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};

    /// The test platforms' kind block (they never share a cluster).
    const TEST_KINDS: Kinds = Kinds {
        lock_req: 0xF00,
        lock_rel: 0xF01,
        lock_grant: 0xF02,
        bar_arrive: 0xF03,
        bar_release: 0xF04,
        tree_agg: 0xF06,
        tree_wave: 0xF07,
    };

    /// A notice-carrying platform: the machine tests' payload.
    impl Platform for Wave {
        type Wave = Wave;
        const KINDS: Kinds = TEST_KINDS;
        const MODULE: &'static str = "syncproto";
    }

    /// Run `case` on both payloads, on a fabric that loses nothing and
    /// on one with a retry policy.
    macro_rules! legs {
        ($case:ident) => {
            for resilient in [false, true] {
                $case::<()>(resilient);
                $case::<Wave>(resilient);
            }
        };
    }

    fn spec(sync: &str) -> SyncTopology {
        sync.parse().unwrap()
    }

    fn cluster(nodes: usize, sync: SyncTopology, resilient: bool) -> Cluster {
        let mut cfg = FabricConfig::builder().nodes(nodes).link(LinkKind::Sci).sync(sync);
        if resilient {
            cfg = cfg.resilience(Resilience::default());
        }
        Cluster::new(cfg.build())
    }

    /// The driver of `p`'s platform on `cluster`, over counter sets of
    /// its own names only.
    fn driver<P: Platform>(cluster: &Cluster) -> Arc<Driver<P>> {
        Driver::new(cluster, (0..cluster.config().nodes).map(|_| StatSet::new(STAT_NAMES)).collect())
    }

    /// `name` summed over every node.
    fn total<P: Platform>(sync: &Driver<P>, name: &str) -> u64 {
        sync.stats.iter().map(|s| s.get(name)).sum()
    }

    /// One node's use of the driver, as the platforms wrap it.
    struct Node<'a, P: Platform> {
        sync: &'a Driver<P>,
        p: &'a P,
        ctx: NodeCtx,
    }

    impl<P: Platform> Node<'_, P> {
        fn acquire(&self, lock: u32) {
            let (port, t0) = (self.ctx.port(), self.ctx.clock().now());
            self.sync.try_acquire(port, lock, Mode::Excl).unwrap();
            self.sync.acquired(port, t0, lock);
        }

        fn release(&self, lock: u32) {
            self.sync.try_release(self.ctx.port(), lock, Default::default()).unwrap();
        }

        fn barrier(&self, id: u32) {
            let t0 = self.ctx.clock().now();
            self.sync.try_barrier(self.p, self.ctx.port(), t0, id, Default::default(), drop).unwrap();
        }
    }

    /// Install `p`'s driver on `cluster`, run `body` on every node, and
    /// return the driver with the run.
    fn run<P: Platform, T: Send>(
        cluster: &Cluster,
        p: &Arc<P>,
        body: impl Fn(&Node<'_, P>) -> T + Send + Sync,
    ) -> (RunReport, Vec<T>, Arc<Driver<P>>) {
        let sync = driver(cluster);
        sync.register(cluster, p.clone());
        let (report, out) = cluster.run(|ctx| body(&Node { sync: &sync, p, ctx }));
        (report, out, sync)
    }

    fn barrier_joins_clocks_on<P: Platform + Default>(resilient: bool) {
        let (report, ..) = run(&cluster(3, spec("centralized"), resilient), &Arc::<P>::default(), |node| {
            node.ctx.compute(node.ctx.rank() as u64 * 1_000_000);
            node.barrier(1);
            // After a barrier, no node's clock may be behind the slowest
            // pre-barrier worker.
            assert!(node.ctx.clock().now() >= 2_000_000);
        });
        assert!(report.sim_time_ns >= 2_000_000);
    }

    #[test]
    fn barrier_joins_clocks() {
        legs!(barrier_joins_clocks_on);
    }

    fn locks_are_mutually_exclusive_on<P: Platform + Default>(resilient: bool) {
        let (inside, max_seen) = (AtomicU64::new(0), AtomicU64::new(0));
        run(&cluster(4, spec("centralized"), resilient), &Arc::<P>::default(), |node| {
            for _ in 0..20 {
                node.acquire(7);
                max_seen.fetch_max(inside.fetch_add(1, SeqCst) + 1, SeqCst);
                inside.fetch_sub(1, SeqCst);
                node.release(7);
            }
        });
        assert_eq!(max_seen.load(SeqCst), 1);
    }

    #[test]
    fn locks_are_mutually_exclusive() {
        legs!(locks_are_mutually_exclusive_on);
    }

    fn repeated_barriers_advance_epochs_on<P: Platform + Default>(resilient: bool) {
        run(&cluster(2, spec("centralized"), resilient), &Arc::<P>::default(), |node| {
            for _ in 0..10 {
                node.barrier(3);
            }
        });
    }

    #[test]
    fn repeated_barriers_advance_epochs() {
        legs!(repeated_barriers_advance_epochs_on);
    }

    fn tree_barrier_joins_clocks_across_shapes_on<P: Platform + Default>(resilient: bool) {
        for (nodes, name) in [(2usize, "tree:2"), (5, "tree:2"), (9, "tree:3"), (8, "scalable")] {
            let slowest = (nodes as u64 - 1) * 1_000_000;
            let (report, ..) = run(&cluster(nodes, spec(name), resilient), &Arc::<P>::default(), |node| {
                node.ctx.compute(node.ctx.rank() as u64 * 1_000_000);
                for _ in 0..3 {
                    node.barrier(1);
                }
                assert!(node.ctx.clock().now() >= slowest, "{name} x{nodes}");
            });
            assert!(report.sim_time_ns >= slowest, "{name} x{nodes}");
        }
    }

    #[test]
    fn tree_barrier_joins_clocks_across_shapes() {
        legs!(tree_barrier_joins_clocks_across_shapes_on);
    }

    fn tree_barriers_coexist_with_locks_on<P: Platform + Default>(resilient: bool) {
        let (_, entries, _) = run(&cluster(4, spec("tree:2"), resilient), &Arc::<P>::default(), |node| {
            node.barrier(1);
            node.acquire(7);
            let t = node.ctx.clock().now();
            node.ctx.compute(500_000);
            node.release(7);
            node.barrier(2);
            t
        });
        let mut sorted = entries.clone();
        sorted.sort();
        for w in sorted.windows(2) {
            assert!(w[1] >= w[0] + 500_000, "critical sections overlap: {entries:?}");
        }
    }

    #[test]
    fn tree_barriers_coexist_with_locks() {
        legs!(tree_barriers_coexist_with_locks_on);
    }

    fn sci_barrier_is_fast_on<P: Platform + Default>(resilient: bool) {
        let (report, ..) = run(&cluster(4, spec("centralized"), resilient), &Arc::<P>::default(), |node| node.barrier(1));
        // One SCI barrier should cost tens of µs, far below an Ethernet
        // round trip (startup dominates at 2 ms).
        assert!(report.sim_time_ns < 4_000_000, "got {}", report.sim_time_ns);
    }

    #[test]
    fn sci_barrier_is_fast() {
        legs!(sci_barrier_is_fast_on);
    }

    #[test]
    fn tree_barrier_pulls_on_a_lossless_fabric() {
        // One 9-node `tree:3` barrier on a fabric that loses nothing:
        // each of the eight non-root nodes sends its aggregate up as a
        // request and gets its wave back as the reply — 2(n − 1)
        // cross-node messages, no post, no other delivery.
        let (report, _, sync) = run(&cluster(9, spec("tree:3"), false), &Arc::new(()), |node| node.barrier(1));
        assert_eq!(total(&sync, "sync_msgs"), 2 * 8, "cross-node messages");
        assert_eq!(total(&sync, "tree_waves"), 8, "one wave down every edge");
        assert_eq!(total(&sync, "barriers"), 9);
        let net = |counter: &str| report.net_stats[counter];
        assert_eq!(net("requests"), 8, "every aggregate is a request");
        assert_eq!(net("delivered"), 8, "and only aggregates reach a handler");
        assert_eq!(net("posts"), 0, "the tree makes no post");
    }

    fn locks_never_overlap_in_virtual_time_on<P: Platform + Default>(resilient: bool) {
        // Node 0 holds lock 7 for 1 ms; node 1 asks for it only once node
        // 0 has released it in host time, with its own clock still
        // behind node 0's release. The grant's causal floor must still
        // hold node 1 back to the release, on every topology.
        for name in ["centralized", "scalable", "tree:2"] {
            let released = AtomicBool::new(false);
            let (_, spans, _) = run(&cluster(2, spec(name), resilient), &Arc::<P>::default(), |node| {
                node.barrier(1);
                let span = if node.ctx.rank() == 0 {
                    node.acquire(7);
                    let entry = node.ctx.clock().now();
                    node.ctx.compute(1_000_000);
                    let exit = node.ctx.clock().now();
                    node.release(7);
                    released.store(true, SeqCst);
                    (entry, exit)
                } else {
                    while !released.load(SeqCst) {
                        std::thread::yield_now();
                    }
                    node.acquire(7);
                    let entry = node.ctx.clock().now();
                    node.release(7);
                    (entry, entry)
                };
                node.barrier(2);
                span
            });
            let ((_, exit0), (entry1, _)) = (spans[0], spans[1]);
            let leg = format!("{name}, resilient: {resilient}");
            assert!(entry1 >= exit0, "{leg}: node 1 entered at {entry1} ns, inside node 0's hold {spans:?}");
        }
    }

    #[test]
    fn locks_never_overlap_in_virtual_time() {
        legs!(locks_never_overlap_in_virtual_time_on);
    }

    #[test]
    fn placed_locks_are_managed_where_configured() {
        // Lock 7 is placed on node 0 (`7 % 3` would be node 1); lock 8
        // is not, and keeps `8 % 3`. The placement is counted once at
        // its node.
        let fabric = FabricConfig::builder().nodes(3).link(LinkKind::Sci).lock_managers(vec![(7, 0)]);
        let sync = driver::<()>(&Cluster::new(fabric.build()));
        assert_eq!((sync.lock_mgr(7), sync.lock_mgr(8)), (0, 2));
        let actions: Vec<u64> = sync.stats.iter().map(|s| s.get("tuner_actions")).collect();
        assert_eq!(actions, [1, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "lock 7: manager node 3 out of range for 3 nodes")]
    fn a_lock_placed_off_the_cluster_is_refused() {
        let fabric = FabricConfig::builder().nodes(3).link(LinkKind::Sci).lock_managers(vec![(7, 3)]);
        driver::<()>(&Cluster::new(fabric.build()));
    }

    #[test]
    fn grants_after_a_barrier_carry_no_earlier_notices() {
        // Every node publishes a page under lock 7, then meets the others
        // at a barrier, which makes those writes visible everywhere: a
        // grant of lock 7 after it carries none of them. `centralized`
        // clears at each central release, `tree:2` at the root's
        // quiescent point.
        for name in ["centralized", "tree:2"] {
            let (_, after, _) = run(&cluster(3, spec(name), false), &Arc::new(Wave::default()), |node| {
                let (port, me) = (node.ctx.port(), node.ctx.rank() as u32);
                let before = node.sync.try_acquire(port, 7, Mode::Excl).unwrap();
                node.sync.try_release(port, 7, iv(&[me])).unwrap();
                node.barrier(1);
                let after = node.sync.try_acquire(port, 7, Mode::Excl).unwrap();
                node.release(7);
                node.barrier(2);
                (before, after)
            });
            assert!(after.iter().any(|(before, _)| !before.is_empty()), "{name}: nothing was published");
            assert!(after.iter().all(|(_, after)| after.is_empty()), "{name}: {after:?}");
        }
    }
}
