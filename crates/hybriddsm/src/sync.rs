//! Manager-based locks and barriers over the message fabric, without
//! consistency side effects.
//!
//! Both hardware-backed platforms (hybrid DSM, SMP) need distributed
//! locks and barriers but no write-notice machinery — memory is
//! physically shared, so synchronization is *only* about ordering. This
//! module provides that: locks are owned by manager nodes (`lock %
//! nodes`); barriers are rooted at `id % nodes` and run either through
//! that central manager or as an aggregation/release-wave tree,
//! following the fabric's [`cluster::SyncTopology`] (the ordering-only
//! mirror of the software DSM's tree barrier — no notices ride the
//! waves here). All traffic rides the cluster's configured link.

use cluster::{BarrierTopology, Cluster, NodeCtx};
use interconnect::{downcast, mailbox, Outcome};
use parking_lot::Mutex;
use sim::Histogram;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Correlation id for a lock grant: packs `(grantee, lock)` the same way
/// the software DSM does, so the analyzer's handoff-chain logic works
/// unchanged across both protocols.
fn grant_corr(grantee: usize, lock: u32) -> u64 {
    ((grantee as u64 + 1) << 32) | (lock as u64 + 1)
}

/// Message kinds (0x2xx block). `kind_base` offsets allow two cores on
/// one fabric.
const LOCK_REQ: u32 = 0x200;
const LOCK_REL: u32 = 0x201;
const LOCK_GRANT: u32 = 0x202;
const BAR_ARRIVE: u32 = 0x203;
const BAR_RELEASE: u32 = 0x204;
/// A node's own tree-barrier arrival, bounced off its own handler so
/// arrivals, child aggregates, and waves serialize without extra locks.
const TREE_UP: u32 = 0x205;
/// A fully-aggregated subtree reporting to its parent.
const TREE_AGG: u32 = 0x206;
/// The release wave travelling from a parent to a child subtree.
const TREE_WAVE: u32 = 0x207;

#[derive(Default)]
struct LockSlot {
    holders: Vec<usize>,
    excl: bool,
    /// Waiters with their exclusivity flag and virtual arrival time.
    queue: VecDeque<(usize, bool, u64)>,
    /// Virtual time the last exclusive hold ended (floor for shared
    /// grants) and the lock last became fully free (floor for
    /// exclusive grants).
    free_excl_ns: u64,
    free_any_ns: u64,
    /// Holders whose grant was posted to them at a handover rather than
    /// carried by a reply. That grant is one item in the holder's
    /// mailbox pipeline (the grant, or its loss tombstone) and the
    /// holder must be the one to consume it: re-granting by reply to a
    /// retry whose `Queued` reply was lost would leave the posted grant
    /// behind, to be mistaken for a grant the next time the node
    /// queues. Such a retry is answered `Queued` until it reports the
    /// tombstone.
    posted: Vec<usize>,
}

#[derive(Default)]
struct BarrierSlot {
    epoch: u64,
    /// Ranks arrived this epoch (set semantics: a retried arrival whose
    /// ack was lost must not count twice).
    arrived: Vec<usize>,
    latest_ns: u64,
}

#[derive(Default)]
struct MgrState {
    locks: HashMap<u32, LockSlot>,
    barriers: HashMap<u32, BarrierSlot>,
    /// Last released (epoch, release_ns) per barrier id, kept so a
    /// re-arrival after a lost release broadcast gets a targeted replay.
    released: HashMap<u32, (u64, u64)>,
}

enum LockReply {
    Granted,
    Queued,
}

#[derive(Clone, Copy)]
struct BarArrive {
    id: u32,
    epoch: u64,
}

/// Retry rounds before a resilient sync op gives up (same guard as the
/// software DSM's protocol loops).
const MAX_SYNC_ROUNDS: u32 = 64;

#[derive(Clone, Copy)]
struct BarRelease {
    id: u32,
    epoch: u64,
}

#[derive(Clone, Copy)]
struct TreeAggMsg {
    id: u32,
    epoch: u64,
    child: usize,
    latest_ns: u64,
}

#[derive(Clone, Copy)]
struct TreeWaveMsg {
    id: u32,
    epoch: u64,
    release_ns: u64,
}

/// This node's place in the barrier tree for one id: the root is
/// `id % nodes`, heap positions are ranks rotated so the root sits at
/// position 0, and position `p`'s children occupy `fanout*p + 1 ..=
/// fanout*p + fanout`.
struct TreeShape {
    parent: Option<usize>,
    children: Vec<usize>,
}

impl TreeShape {
    fn new(id: u32, me: usize, nodes: usize, fanout: usize) -> Self {
        let root = id as usize % nodes;
        let node_of = |pos: usize| (root + pos) % nodes;
        let pos = (me + nodes - root) % nodes;
        let parent = (pos > 0).then(|| node_of((pos - 1) / fanout));
        let children =
            (fanout * pos + 1..=fanout * pos + fanout).filter(|&c| c < nodes).map(node_of).collect();
        Self { parent, children }
    }
}

/// What the tree state machine wants done after an event.
enum TreeStep {
    /// Not complete yet (or a duplicate wave): nothing to send.
    Waiting,
    /// This subtree is fully aggregated: report to the parent.
    Up { parent: usize, latest_ns: u64 },
    /// The barrier released at this node: wave to the children and wake
    /// the local application.
    Deliver { release_ns: u64 },
    /// A retried self-arrival for an epoch already released here.
    Redeliver { release_ns: u64 },
    /// A retried child aggregate for a released epoch: its wave was
    /// lost, resend it.
    ResendWave { child: usize, release_ns: u64 },
}

#[derive(Default)]
struct TreeSlot {
    epoch: u64,
    self_arrived: bool,
    /// Direct children whose whole subtree has aggregated (set
    /// semantics against retried aggregates).
    children_arrived: Vec<usize>,
    latest_ns: u64,
}

impl TreeSlot {
    fn is_fresh(&self) -> bool {
        !self.self_arrived && self.children_arrived.is_empty()
    }
}

/// Per-node tree-barrier participant state (one slot per barrier id,
/// plus a one-epoch-back release cache for replaying lost edges).
#[derive(Default)]
struct TreeNodeState {
    slots: HashMap<u32, TreeSlot>,
    released: HashMap<u32, (u64, u64)>,
}

impl TreeNodeState {
    fn slot(&mut self, id: u32, epoch: u64) -> &mut TreeSlot {
        let slot = self.slots.entry(id).or_default();
        if slot.is_fresh() {
            slot.epoch = epoch;
        }
        assert_eq!(slot.epoch, epoch, "tree barrier {id}: epoch skew");
        slot
    }

    /// Completion check: released epochs consume the slot and enter the
    /// replay cache; a complete non-root resends its aggregate
    /// idempotently on every (re)arrival.
    fn check(&mut self, shape: &TreeShape, id: u32) -> TreeStep {
        let slot = self.slots.get(&id).unwrap();
        if !slot.self_arrived || slot.children_arrived.len() != shape.children.len() {
            return TreeStep::Waiting;
        }
        match shape.parent {
            Some(parent) => TreeStep::Up { parent, latest_ns: slot.latest_ns },
            None => {
                let slot = self.slots.remove(&id).unwrap();
                self.released.insert(id, (slot.epoch, slot.latest_ns));
                TreeStep::Deliver { release_ns: slot.latest_ns }
            }
        }
    }

    fn self_arrive(&mut self, shape: &TreeShape, id: u32, epoch: u64, now: u64) -> TreeStep {
        if let Some(&(rel_epoch, release_ns)) = self.released.get(&id) {
            if rel_epoch == epoch {
                return TreeStep::Redeliver { release_ns };
            }
        }
        let slot = self.slot(id, epoch);
        slot.self_arrived = true;
        slot.latest_ns = slot.latest_ns.max(now);
        self.check(shape, id)
    }

    fn child_arrive(
        &mut self,
        shape: &TreeShape,
        id: u32,
        epoch: u64,
        child: usize,
        latest_ns: u64,
    ) -> TreeStep {
        if let Some(&(rel_epoch, release_ns)) = self.released.get(&id) {
            if rel_epoch == epoch {
                return TreeStep::ResendWave { child, release_ns };
            }
        }
        let slot = self.slot(id, epoch);
        if slot.children_arrived.contains(&child) {
            // Retried aggregate while the wave is still pending: the
            // upward edge is client-retried by this node's own
            // application thread, so nothing needs resending — the
            // retry's reply obligation replaces the child's stale park.
            return TreeStep::Waiting;
        }
        slot.children_arrived.push(child);
        slot.latest_ns = slot.latest_ns.max(latest_ns);
        self.check(shape, id)
    }

    fn wave(&mut self, id: u32, epoch: u64, release_ns: u64) -> TreeStep {
        if self.released.get(&id) == Some(&(epoch, release_ns)) {
            return TreeStep::Waiting; // duplicate wave
        }
        self.slots.remove(&id);
        self.released.insert(id, (epoch, release_ns));
        TreeStep::Deliver { release_ns }
    }
}

/// Cluster-shared synchronization state.
pub struct SyncCore {
    nodes: usize,
    base: u32,
    /// Barrier topology from the fabric config (locks stay
    /// manager-owned here: the token queue is a consistency-protocol
    /// optimization and hardware-coherent platforms don't carry one).
    barrier_topo: BarrierTopology,
    fanout: usize,
    mgrs: Vec<Arc<Mutex<MgrState>>>,
    trees: Vec<Arc<Mutex<TreeNodeState>>>,
    /// Lock-acquire latency (virtual ns from request to grant-in-hand),
    /// pooled across nodes; feeds the monitoring quantiles.
    lock_hist: Histogram,
}

impl SyncCore {
    /// Install the sync protocol on `cluster` using kinds offset by
    /// `kind_base` (pass 0 unless two cores share a fabric).
    pub fn install(cluster: &Cluster, kind_base: u32) -> Arc<SyncCore> {
        let nodes = cluster.config().nodes;
        let barrier_topo = cluster.config().sync.barrier;
        let fanout = match barrier_topo {
            BarrierTopology::Tree { fanout } => fanout,
            _ => 2,
        };
        let core = Arc::new(SyncCore {
            nodes,
            base: kind_base,
            barrier_topo,
            fanout,
            mgrs: (0..nodes).map(|_| Arc::new(Mutex::new(MgrState::default()))).collect(),
            trees: (0..nodes).map(|_| Arc::new(Mutex::new(TreeNodeState::default()))).collect(),
            lock_hist: Histogram::new(),
        });
        let net = cluster.network();

        let c = core.clone();
        net.register_all(kind_base + LOCK_REQ, move |node| {
            let mgr = c.mgrs[node].clone();
            move |ctx: &interconnect::HandlerCtx<'_>, src, p| {
                let (lock, excl, lost_grant) = downcast::<(u32, bool, bool)>(p);
                let mut g = mgr.lock();
                let slot = g.locks.entry(lock).or_default();
                if !lost_grant && slot.posted.contains(&src) {
                    return Outcome::reply(LockReply::Queued, 8);
                }
                if slot.holders.contains(&src) {
                    // Retried request from the current holder (the grant
                    // reply was lost): re-grant with the original floor.
                    let floor = if slot.excl { slot.free_any_ns } else { slot.free_excl_ns };
                    return Outcome::reply_not_before(LockReply::Granted, 8, floor);
                }
                if slot.queue.iter().any(|(n, _, _)| *n == src) {
                    // Already queued (the Queued reply was lost).
                    return Outcome::reply(LockReply::Queued, 8);
                }
                let grantable = if excl {
                    slot.holders.is_empty()
                } else {
                    slot.holders.is_empty() || (!slot.excl && slot.queue.is_empty())
                };
                if grantable {
                    let floor = if excl { slot.free_any_ns } else { slot.free_excl_ns };
                    slot.holders.push(src);
                    slot.excl = excl;
                    sim::trace::instant_corr(
                        ctx.now.max(floor),
                        node,
                        "hybriddsm",
                        "lock_grant",
                        lock as u64,
                        grant_corr(src, lock),
                    );
                    Outcome::reply_not_before(LockReply::Granted, 8, floor)
                } else {
                    slot.queue.push_back((src, excl, ctx.now));
                    Outcome::reply(LockReply::Queued, 8)
                }
            }
        });

        let c = core.clone();
        let base = kind_base;
        net.register_all(kind_base + LOCK_REL, move |node| {
            let mgr = c.mgrs[node].clone();
            move |ctx: &interconnect::HandlerCtx<'_>, src, p| {
                let lock = downcast::<u32>(p);
                let mut g = mgr.lock();
                // A retried release whose first copy already ran finds
                // nothing to do: idempotent no-op, never a panic.
                let Some(slot) = g.locks.get_mut(&lock) else {
                    return Outcome::done();
                };
                let Some(pos) = slot.holders.iter().position(|&h| h == src) else {
                    return Outcome::done();
                };
                let was_excl = slot.excl;
                slot.holders.swap_remove(pos);
                slot.posted.retain(|&h| h != src);
                if slot.holders.is_empty() {
                    slot.free_any_ns = slot.free_any_ns.max(ctx.now);
                    if was_excl {
                        slot.free_excl_ns = slot.free_excl_ns.max(ctx.now);
                    }
                }
                if slot.holders.is_empty() {
                    // Grant the earliest virtual arrival (schedule-
                    // independent handover).
                    if let Some(first) = slot
                        .queue
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, (_, _, t))| *t)
                        .map(|(i, _)| i)
                    {
                        let (next, excl, _) = slot.queue.remove(first).unwrap();
                        slot.holders.push(next);
                        slot.excl = excl;
                        sim::trace::instant_corr(
                            ctx.now,
                            node,
                            "hybriddsm",
                            "lock_grant",
                            lock as u64,
                            grant_corr(next, lock),
                        );
                        let tag = mailbox::tag(base + LOCK_GRANT, lock);
                        ctx.post_tagged(next, base + LOCK_GRANT, lock, 8, tag);
                        if !excl {
                            let cutoff = slot
                                .queue
                                .iter()
                                .filter(|(_, e, _)| *e)
                                .map(|(_, _, t)| *t)
                                .min()
                                .unwrap_or(u64::MAX);
                            let mut i = 0;
                            while i < slot.queue.len() {
                                let (_, e, t) = slot.queue[i];
                                if !e && t <= cutoff {
                                    let (r, _, _) = slot.queue.remove(i).unwrap();
                                    slot.holders.push(r);
                                    sim::trace::instant_corr(
                                        ctx.now,
                                        node,
                                        "hybriddsm",
                                        "lock_grant",
                                        lock as u64,
                                        grant_corr(r, lock),
                                    );
                                    let tag = mailbox::tag(base + LOCK_GRANT, lock);
                                    ctx.post_tagged(r, base + LOCK_GRANT, lock, 8, tag);
                                } else {
                                    i += 1;
                                }
                            }
                        }
                    }
                    // Whoever holds the lock now got it by the posts above.
                    slot.posted = slot.holders.clone();
                }
                Outcome::done()
            }
        });

        net.register_all(kind_base + LOCK_GRANT, |node| {
            let mb = cluster.network().mailbox(node);
            let base = kind_base;
            move |ctx: &interconnect::HandlerCtx<'_>, _src, p| {
                let lock = downcast::<u32>(p);
                mb.deposit(mailbox::tag(base + LOCK_GRANT, lock), Box::new(()), ctx.now);
                Outcome::done()
            }
        });

        let c = core.clone();
        net.register_all(kind_base + BAR_ARRIVE, move |node| {
            let mgr = c.mgrs[node].clone();
            let nodes = c.nodes;
            let base = kind_base;
            move |ctx: &interconnect::HandlerCtx<'_>, src, p| {
                let arr = downcast::<BarArrive>(p);
                let mut g = mgr.lock();
                let tag = mailbox::tag(base + BAR_RELEASE, arr.id);
                if let Some(&(rel_epoch, release_ns)) = g.released.get(&arr.id) {
                    if arr.epoch == rel_epoch {
                        // Re-arrival for an already-released epoch: the
                        // arriver's release reply was lost. Answer with
                        // the cached epoch.
                        return Outcome::reply_not_before(rel_epoch, 16, release_ns);
                    }
                    assert!(arr.epoch > rel_epoch, "barrier {}: stale epoch {}", arr.id, arr.epoch);
                }
                let slot = g.barriers.entry(arr.id).or_default();
                if slot.arrived.is_empty() {
                    slot.epoch = arr.epoch;
                }
                assert_eq!(slot.epoch, arr.epoch, "barrier {}: epoch skew", arr.id);
                let counted = slot.arrived.contains(&src);
                if !counted {
                    slot.arrived.push(src);
                    slot.latest_ns = slot.latest_ns.max(ctx.now);
                }
                if slot.arrived.len() == nodes {
                    let release_ns = slot.latest_ns;
                    let arrived = std::mem::take(&mut slot.arrived);
                    slot.latest_ns = 0;
                    g.released.insert(arr.id, (arr.epoch, release_ns));
                    drop(g);
                    // corr = epoch ties the release to the matching
                    // client-side barrier spans.
                    sim::trace::instant_corr(
                        release_ns,
                        node,
                        "hybriddsm",
                        "barrier_release",
                        arr.id as u64,
                        arr.epoch,
                    );
                    if ctx.resilient() {
                        // Request/reply rendezvous: discharge every
                        // parked arrival with the release; the final
                        // arriver takes it as its own reply (see the
                        // swdsm barrier for the full rationale).
                        for who in arrived {
                            if who != src {
                                ctx.complete_deferred(tag, who, arr.epoch, 16, release_ns);
                            }
                        }
                        return Outcome::reply_not_before(arr.epoch, 16, release_ns);
                    }
                    let rel = BarRelease { id: arr.id, epoch: arr.epoch };
                    for dst in 0..nodes {
                        ctx.post_tagged_at(dst, base + BAR_RELEASE, rel, 16, tag, release_ns);
                    }
                    return Outcome::done();
                }
                if ctx.resilient() {
                    // Pending (first copy or a retried duplicate): park
                    // the reply until the last participant arrives.
                    return Outcome::defer(tag);
                }
                Outcome::done()
            }
        });

        net.register_all(kind_base + BAR_RELEASE, |node| {
            let mb = cluster.network().mailbox(node);
            let base = kind_base;
            move |ctx: &interconnect::HandlerCtx<'_>, _src, p| {
                let rel = downcast::<BarRelease>(p);
                mb.deposit(mailbox::tag(base + BAR_RELEASE, rel.id), Box::new(rel.epoch), ctx.now);
                Outcome::done()
            }
        });

        // Tree barrier (ordering-only mirror of the software DSM's). On
        // a plain fabric a node's own arrival bounces off its own
        // handler so arrivals, child aggregates, and waves all mutate
        // the per-node state from one serialized context. On resilient
        // fabrics only TREE_AGG crosses the wire, as a retried *request*
        // from the child's application thread whose (deferred) reply is
        // that child's release wave — fire-and-forget tree edges cannot
        // heal, because a parked reply has no client-side deadline (see
        // the swdsm tree barrier for the full rationale).
        let c = core.clone();
        net.register_all(kind_base + TREE_UP, move |node| {
            let c = c.clone();
            let mb = cluster.network().mailbox(node);
            move |ctx: &interconnect::HandlerCtx<'_>, _src, p| {
                debug_assert!(!ctx.resilient(), "resilient tree arrivals stay on the app thread");
                let arr = downcast::<BarArrive>(p);
                let shape = TreeShape::new(arr.id, node, c.nodes, c.fanout);
                let step = c.trees[node].lock().self_arrive(&shape, arr.id, arr.epoch, ctx.now);
                let tag = mailbox::tag(c.base + BAR_RELEASE, arr.id);
                match step {
                    TreeStep::Waiting => {}
                    TreeStep::Up { parent, latest_ns } => {
                        let msg =
                            TreeAggMsg { id: arr.id, epoch: arr.epoch, child: node, latest_ns };
                        ctx.post(parent, c.base + TREE_AGG, msg, 32);
                    }
                    TreeStep::Deliver { release_ns } => {
                        // Only the root completes from its own arrival
                        // without an incoming wave; the deposit is
                        // stamped with the release instant, not
                        // ctx.now, which is a real-time race.
                        c.tree_release(ctx, &shape, arr.id, arr.epoch, release_ns, Some(node));
                        mb.deposit(tag, Box::new(arr.epoch), release_ns);
                    }
                    TreeStep::Redeliver { release_ns } => {
                        let _ = release_ns;
                        mb.deposit(tag, Box::new(arr.epoch), ctx.now);
                    }
                    TreeStep::ResendWave { .. } => {
                        unreachable!("self-arrival never resends a child wave")
                    }
                }
                Outcome::done()
            }
        });

        let c = core.clone();
        net.register_all(kind_base + TREE_AGG, move |node| {
            let c = c.clone();
            let mb = cluster.network().mailbox(node);
            move |ctx: &interconnect::HandlerCtx<'_>, _src, p| {
                let msg = downcast::<TreeAggMsg>(p);
                let (id, epoch, child) = (msg.id, msg.epoch, msg.child);
                let shape = TreeShape::new(id, node, c.nodes, c.fanout);
                let step =
                    c.trees[node].lock().child_arrive(&shape, id, epoch, child, msg.latest_ns);
                if ctx.resilient() {
                    // Pull model: the reply to this request is the
                    // child's release wave, parked until this node's
                    // release point (driven by the application thread
                    // in tree_barrier).
                    let wkey = mailbox::tag(c.base + TREE_WAVE, id);
                    return match step {
                        TreeStep::Waiting => Outcome::defer(wkey),
                        step @ (TreeStep::Up { .. } | TreeStep::Deliver { .. }) => {
                            // This aggregate completed the local
                            // subtree: hand the step to the blocked
                            // application thread over the local
                            // mailbox (no wire, cannot be lost). The
                            // deposit is stamped with the join instant
                            // (max arrival stamp), not ctx.now — which
                            // aggregate the engine processes last is a
                            // real-time race, and its service end must
                            // not leak into virtual time.
                            let when = match &step {
                                TreeStep::Up { latest_ns, .. } => *latest_ns,
                                TreeStep::Deliver { release_ns } => *release_ns,
                                _ => unreachable!(),
                            };
                            let skey = mailbox::tag(c.base + TREE_AGG, id);
                            mb.deposit(skey, Box::new(step), when);
                            Outcome::defer(wkey)
                        }
                        TreeStep::ResendWave { child: cc, release_ns } => {
                            // Retried aggregate for a released epoch:
                            // the original wave reply was lost.
                            debug_assert_eq!(cc, child);
                            let wave = TreeWaveMsg { id, epoch, release_ns };
                            Outcome::reply_not_before(wave, 24, release_ns)
                        }
                        TreeStep::Redeliver { .. } => {
                            unreachable!("child aggregates never redeliver locally")
                        }
                    };
                }
                match step {
                    TreeStep::Waiting => {}
                    TreeStep::Up { parent, latest_ns } => {
                        let up = TreeAggMsg { id, epoch, child: node, latest_ns };
                        ctx.post(parent, c.base + TREE_AGG, up, 32);
                    }
                    TreeStep::Deliver { release_ns } => {
                        // Root completion off the final child aggregate:
                        // wave down, then wake the root's own thread at
                        // the release instant — not ctx.now, which is a
                        // real-time race.
                        c.tree_release(ctx, &shape, id, epoch, release_ns, Some(node));
                        let tag = mailbox::tag(c.base + BAR_RELEASE, id);
                        mb.deposit(tag, Box::new(epoch), release_ns);
                    }
                    TreeStep::ResendWave { child, release_ns } => {
                        let wave = TreeWaveMsg { id, epoch, release_ns };
                        ctx.post_at(child, c.base + TREE_WAVE, wave, 24, release_ns);
                    }
                    TreeStep::Redeliver { .. } => {
                        unreachable!("child aggregates never redeliver locally")
                    }
                }
                Outcome::done()
            }
        });

        let c = core.clone();
        net.register_all(kind_base + TREE_WAVE, move |node| {
            let c = c.clone();
            let mb = cluster.network().mailbox(node);
            move |ctx: &interconnect::HandlerCtx<'_>, _src, p| {
                debug_assert!(!ctx.resilient(), "resilient waves ride TREE_AGG replies");
                let msg = downcast::<TreeWaveMsg>(p);
                let step = c.trees[node].lock().wave(msg.id, msg.epoch, msg.release_ns);
                match step {
                    TreeStep::Waiting => {} // duplicate wave, already released
                    TreeStep::Deliver { release_ns } => {
                        let shape = TreeShape::new(msg.id, node, c.nodes, c.fanout);
                        c.tree_release(ctx, &shape, msg.id, msg.epoch, release_ns, None);
                        let tag = mailbox::tag(c.base + BAR_RELEASE, msg.id);
                        mb.deposit(tag, Box::new(msg.epoch), ctx.now);
                    }
                    _ => unreachable!("a wave either delivers or is a duplicate"),
                }
                Outcome::done()
            }
        });

        core
    }

    /// The release reached a node's position in the barrier tree:
    /// forward the wave to every child subtree (departing at the joined
    /// release time). `trace_root` is the node id when the caller is
    /// the tree root — only the root traces the release instant.
    fn tree_release(
        &self,
        ctx: &interconnect::HandlerCtx<'_>,
        shape: &TreeShape,
        id: u32,
        epoch: u64,
        release_ns: u64,
        trace_root: Option<usize>,
    ) {
        if let Some(node) = trace_root {
            sim::trace::instant_corr(
                release_ns,
                node,
                "hybriddsm",
                "barrier_release",
                id as u64,
                epoch,
            );
        }
        for &child in &shape.children {
            let wave = TreeWaveMsg { id, epoch, release_ns };
            ctx.post_at(child, self.base + TREE_WAVE, wave, 24, release_ns);
        }
    }

    /// Bind a per-node handle.
    pub fn node(self: &Arc<Self>, ctx: &NodeCtx) -> SyncNode {
        SyncNode { core: self.clone(), ctx: ctx.clone(), epochs: Mutex::new(HashMap::new()) }
    }

    /// Lock-acquire latency histogram (shared storage: the returned
    /// clone observes later acquisitions too).
    pub fn lock_histogram(&self) -> Histogram {
        self.lock_hist.clone()
    }
}

/// Per-node synchronization handle.
pub struct SyncNode {
    core: Arc<SyncCore>,
    ctx: NodeCtx,
    epochs: Mutex<HashMap<u32, u64>>,
}

impl SyncNode {
    /// Acquire global lock `lock` exclusively (blocking).
    pub fn acquire(&self, lock: u32) {
        self.acquire_mode(lock, true);
    }

    /// Acquire global lock `lock` in shared (reader) mode.
    pub fn acquire_shared(&self, lock: u32) {
        self.acquire_mode(lock, false);
    }

    /// Whether the fabric was built with a timeout/retry policy (fault
    /// injection active).
    fn resilient(&self) -> bool {
        self.ctx.port().resilience().is_some()
    }

    fn acquire_mode(&self, lock: u32, excl: bool) {
        let t0 = self.ctx.clock().now();
        self.acquire_inner(lock, excl);
        let now = self.ctx.clock().now();
        self.core.lock_hist.record(now.saturating_sub(t0));
        sim::trace::span_corr(
            t0,
            now.saturating_sub(t0),
            self.ctx.rank(),
            "hybriddsm",
            "lock_acquire",
            lock as u64,
            lock as u64 + 1,
        );
    }

    fn acquire_inner(&self, lock: u32, excl: bool) {
        let mgr = lock as usize % self.core.nodes;
        if !self.resilient() {
            let rep = self
                .ctx
                .port()
                .request(mgr, self.core.base + LOCK_REQ, (lock, excl, false), 16);
            if let LockReply::Queued = downcast::<LockReply>(rep) {
                let _ = self
                    .ctx
                    .port()
                    .wait_mailbox(mailbox::tag(self.core.base + LOCK_GRANT, lock));
            }
            return;
        }
        // Resilient protocol: retried requests hit an idempotent manager
        // (a lost grant reply re-grants; a lost Queued reply keeps the
        // original queue entry); a grant destroyed in flight leaves a
        // loss tombstone, answered by re-requesting.
        let mut rounds = 0u32;
        // Set once this acquire has consumed a grant's loss tombstone:
        // only then may the manager re-grant a handover by reply.
        let mut lost_grant = false;
        'req: loop {
            rounds += 1;
            assert!(
                rounds <= MAX_SYNC_ROUNDS,
                "sync node {}: lock {lock} acquire still failing after {MAX_SYNC_ROUNDS} rounds",
                self.ctx.rank()
            );
            let rep = self
                .ctx
                .port()
                .request_retrying(mgr, self.core.base + LOCK_REQ, (lock, excl, lost_grant), 16)
                .unwrap_or_else(|e| {
                    panic!(
                        "sync node {}: unrecoverable fault acquiring lock {lock}: {e}",
                        self.ctx.rank()
                    )
                });
            match downcast::<LockReply>(rep) {
                LockReply::Granted => return,
                LockReply::Queued => {
                    let tag = mailbox::tag(self.core.base + LOCK_GRANT, lock);
                    match self.ctx.port().wait_mailbox_checked(tag) {
                        Ok(_) => return,
                        Err(e) if e.is_transient() => {
                            lost_grant = true;
                            continue 'req;
                        }
                        Err(e) => panic!(
                            "sync node {}: unrecoverable fault waiting for lock {lock}: {e}",
                            self.ctx.rank()
                        ),
                    }
                }
            }
        }
    }

    /// Release global lock `lock`. On a resilient fabric the release is
    /// acknowledged and retried so a lost release cannot strand waiters.
    pub fn release(&self, lock: u32) {
        let mgr = lock as usize % self.core.nodes;
        if self.resilient() {
            if let Err(e) =
                self.ctx.port().request_retrying(mgr, self.core.base + LOCK_REL, lock, 16)
            {
                panic!(
                    "sync node {}: unrecoverable fault releasing lock {lock}: {e}",
                    self.ctx.rank()
                );
            }
        } else {
            self.ctx.port().post(mgr, self.core.base + LOCK_REL, lock, 16);
        }
        // Same (releaser, lock) encoding as the manager's grant instants,
        // so release → next grant chains join up in the analyzer.
        sim::trace::instant_corr(
            self.ctx.clock().now(),
            self.ctx.rank(),
            "hybriddsm",
            "lock_release",
            lock as u64,
            grant_corr(self.ctx.rank(), lock),
        );
    }

    /// Wait at global barrier `id`. The epoch commits only once the
    /// release is in hand, so a retried barrier re-arrives under the
    /// same epoch (deduplicated or replayed by the manager).
    ///
    /// The fabric's [`cluster::SyncTopology`] picks the protocol: a
    /// tree topology runs the aggregation/release-wave tree rooted at
    /// `id % nodes`; anything else (including dissemination, which only
    /// pays off when notices ride the rounds) uses the central manager.
    pub fn barrier(&self, id: u32) {
        let t0 = self.ctx.clock().now();
        let epoch = self.epochs.lock().get(&id).copied().unwrap_or(0) + 1;
        if let BarrierTopology::Tree { .. } = self.core.barrier_topo {
            self.tree_barrier(id, epoch);
        } else {
            self.central_barrier(id, epoch);
        }
        self.epochs.lock().insert(id, epoch);
        let now = self.ctx.clock().now();
        sim::trace::span_corr(
            t0,
            now.saturating_sub(t0),
            self.ctx.rank(),
            "hybriddsm",
            "barrier",
            id as u64,
            epoch,
        );
    }

    fn central_barrier(&self, id: u32, epoch: u64) {
        let mgr = id as usize % self.core.nodes;
        let tag = mailbox::tag(self.core.base + BAR_RELEASE, id);
        if !self.resilient() {
            self.ctx
                .port()
                .post(mgr, self.core.base + BAR_ARRIVE, BarArrive { id, epoch }, 24);
            let got = downcast::<u64>(self.ctx.port().wait_mailbox(tag));
            assert_eq!(got, epoch, "barrier {id}: epoch mismatch");
        } else {
            // Single request/reply rendezvous: the reply — parked at
            // the manager until everyone arrives — is the release
            // epoch itself. Retries are deduplicated while the epoch
            // is pending and answered from the release cache after.
            match self.ctx.port().request_retrying(
                mgr,
                self.core.base + BAR_ARRIVE,
                BarArrive { id, epoch },
                24,
            ) {
                Ok(ack) => {
                    let got = downcast::<u64>(ack);
                    assert_eq!(got, epoch, "barrier {id}: epoch mismatch");
                }
                Err(e) => panic!(
                    "sync node {}: unrecoverable fault at barrier {id}: {e}",
                    self.ctx.rank()
                ),
            }
        }
    }

    /// Tree-barrier arrival. On a plain fabric this is a `TREE_UP`
    /// message to this node's own handler, which serializes it against
    /// aggregates and waves, and the release epoch comes back through
    /// the mailbox. On a resilient fabric the state machine is driven
    /// from this application thread instead (pull model, mirroring the
    /// swdsm tree barrier): the subtree aggregate travels as a retried
    /// `TREE_AGG` request whose deferred reply is this node's release
    /// wave, and the children's parked replies are discharged here once
    /// the wave is in hand — every loss-exposed edge is a client-retried
    /// request, so any lost message heals.
    fn tree_barrier(&self, id: u32, epoch: u64) {
        let me = self.ctx.rank();
        if !self.resilient() {
            let arr = BarArrive { id, epoch };
            let tag = mailbox::tag(self.core.base + BAR_RELEASE, id);
            self.ctx.port().post(me, self.core.base + TREE_UP, arr, 24);
            let got = downcast::<u64>(self.ctx.port().wait_mailbox(tag));
            assert_eq!(got, epoch, "tree barrier {id}: epoch mismatch");
            return;
        }
        let shape = TreeShape::new(id, me, self.core.nodes, self.core.fanout);
        let now = self.ctx.clock().now();
        let step = self.core.trees[me].lock().self_arrive(&shape, id, epoch, now);
        // The completing step always travels through the local mailbox,
        // even when this thread's own arrival completed the subtree: if
        // the two completion orders (own-last vs aggregate-last, a
        // real-time race) took different paths here, only one of them
        // would pay the mailbox wake-up and virtual time would stop
        // being reproducible.
        let skey = mailbox::tag(self.core.base + TREE_AGG, id);
        match step {
            TreeStep::Waiting => {}
            step @ (TreeStep::Up { .. } | TreeStep::Deliver { .. }) => {
                let when = match &step {
                    TreeStep::Up { latest_ns, .. } => *latest_ns,
                    TreeStep::Deliver { release_ns } => *release_ns,
                    _ => unreachable!(),
                };
                self.ctx.port().mailbox().deposit(skey, Box::new(step), when);
            }
            _ => unreachable!("tree barrier {id}: own arrival produced an impossible step"),
        }
        let step = downcast::<TreeStep>(self.ctx.port().wait_mailbox(skey));
        let release_ns = match step {
            TreeStep::Up { parent, latest_ns } => {
                let msg = TreeAggMsg { id, epoch, child: me, latest_ns };
                let rep = self
                    .ctx
                    .port()
                    .request_retrying(parent, self.core.base + TREE_AGG, msg, 32)
                    .unwrap_or_else(|e| {
                        panic!("sync node {me}: unrecoverable fault at tree barrier {id}: {e}")
                    });
                let wave = downcast::<TreeWaveMsg>(rep);
                assert_eq!(wave.epoch, epoch, "tree barrier {id}: epoch mismatch");
                match self.core.trees[me].lock().wave(id, epoch, wave.release_ns) {
                    TreeStep::Deliver { release_ns } => release_ns,
                    _ => unreachable!("tree barrier {id}: wave did not deliver"),
                }
            }
            TreeStep::Deliver { release_ns } => release_ns,
            _ => unreachable!("tree barrier {id}: own arrival neither delivered nor went up"),
        };
        // Pin the clock to the deterministic join of arrival stamps so
        // the root (whose release is computed locally, not received off
        // the wire) leaves the barrier at the same virtual time on
        // every run.
        self.ctx.clock().advance_to(release_ns);
        if shape.parent.is_none() {
            sim::trace::instant_corr(
                release_ns,
                me,
                "hybriddsm",
                "barrier_release",
                id as u64,
                epoch,
            );
        }
        let wkey = mailbox::tag(self.core.base + TREE_WAVE, id);
        for &child in &shape.children {
            let wave = TreeWaveMsg { id, epoch, release_ns };
            self.ctx.port().complete_deferred(wkey, child, wave, 24, release_ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{FabricConfig, LinkKind};

    #[test]
    fn barrier_joins_clocks() {
        let cluster = Cluster::new(FabricConfig::builder().nodes(3).link(LinkKind::Sci).build());
        let core = SyncCore::install(&cluster, 0);
        let (report, _) = cluster.run(|ctx| {
            let sync = core.node(&ctx);
            ctx.compute(ctx.rank() as u64 * 1_000_000);
            sync.barrier(1);
            // After a barrier, no node's clock may be behind the slowest
            // pre-barrier worker.
            assert!(ctx.clock().now() >= 2_000_000);
        });
        assert!(report.sim_time_ns >= 2_000_000);
    }

    #[test]
    fn locks_are_mutually_exclusive() {
        let cluster = Cluster::new(FabricConfig::builder().nodes(4).link(LinkKind::Sci).build());
        let core = SyncCore::install(&cluster, 0);
        let counter = std::sync::atomic::AtomicU64::new(0);
        let max_seen = std::sync::atomic::AtomicU64::new(0);
        let (_, _) = cluster.run(|ctx| {
            let sync = core.node(&ctx);
            for _ in 0..20 {
                sync.acquire(7);
                let inside =
                    counter.fetch_add(1, std::sync::atomic::Ordering::SeqCst) + 1;
                max_seen.fetch_max(inside, std::sync::atomic::Ordering::SeqCst);
                counter.fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
                sync.release(7);
            }
        });
        assert_eq!(max_seen.load(std::sync::atomic::Ordering::SeqCst), 1);
    }

    #[test]
    fn repeated_barriers_advance_epochs() {
        let cluster = Cluster::new(FabricConfig::builder().nodes(2).link(LinkKind::Sci).build());
        let core = SyncCore::install(&cluster, 0);
        let (_, _) = cluster.run(|ctx| {
            let sync = core.node(&ctx);
            for _ in 0..10 {
                sync.barrier(3);
            }
        });
    }

    #[test]
    fn distinct_kind_bases_coexist() {
        let cluster = Cluster::new(FabricConfig::builder().nodes(2).link(LinkKind::Sci).build());
        let a = SyncCore::install(&cluster, 0);
        let b = SyncCore::install(&cluster, 0x80);
        let (_, _) = cluster.run(|ctx| {
            let sa = a.node(&ctx);
            let sb = b.node(&ctx);
            sa.barrier(1);
            sb.barrier(1);
            sa.acquire(2);
            sa.release(2);
        });
    }

    #[test]
    fn tree_barrier_joins_clocks_across_shapes() {
        for (nodes, spec) in [(2usize, "tree:2"), (5, "tree:2"), (9, "tree:3"), (8, "scalable")] {
            let sync: cluster::SyncTopology = spec.parse().unwrap();
            let cluster = Cluster::new(
                FabricConfig::builder().nodes(nodes).link(LinkKind::Sci).sync(sync).build(),
            );
            let core = SyncCore::install(&cluster, 0);
            let slowest = (nodes as u64 - 1) * 1_000_000;
            let (report, _) = cluster.run(|ctx| {
                let sync = core.node(&ctx);
                ctx.compute(ctx.rank() as u64 * 1_000_000);
                for _ in 0..3 {
                    sync.barrier(1);
                }
                assert!(ctx.clock().now() >= slowest, "{spec} x{nodes}");
            });
            assert!(report.sim_time_ns >= slowest, "{spec} x{nodes}");
        }
    }

    #[test]
    fn tree_and_central_barriers_coexist_with_locks() {
        let sync: cluster::SyncTopology = "tree:2".parse().unwrap();
        let cluster =
            Cluster::new(FabricConfig::builder().nodes(4).link(LinkKind::Sci).sync(sync).build());
        let core = SyncCore::install(&cluster, 0);
        let (_, entries) = cluster.run(|ctx| {
            let sync = core.node(&ctx);
            sync.barrier(1);
            sync.acquire(7);
            let t = ctx.clock().now();
            ctx.compute(500_000);
            sync.release(7);
            sync.barrier(2);
            t
        });
        let mut sorted = entries.clone();
        sorted.sort();
        for w in sorted.windows(2) {
            assert!(w[1] >= w[0] + 500_000, "critical sections overlap: {entries:?}");
        }
    }

    #[test]
    fn sci_barrier_is_fast() {
        let cluster = Cluster::new(FabricConfig::builder().nodes(4).link(LinkKind::Sci).build());
        let core = SyncCore::install(&cluster, 0);
        let (report, _) = cluster.run(|ctx| {
            let sync = core.node(&ctx);
            sync.barrier(1);
        });
        // One SCI barrier should cost tens of µs, far below an Ethernet
        // round trip (startup dominates at 2 ms).
        assert!(report.sim_time_ns < 4_000_000, "got {}", report.sim_time_ns);
    }
}
