//! Manager-based locks and barriers over the message fabric, without
//! consistency side effects.
//!
//! Both hardware-backed platforms (hybrid DSM, SMP) need distributed
//! locks and barriers but no write-notice machinery — memory is
//! physically shared, so synchronization is *only* about ordering. This
//! module is the fabric driver for that: it runs the one set of lock
//! and barrier machines in [`cluster::syncproto`] — the same ones the
//! software DSM drives — with the `()` payload, so grants and waves
//! carry nothing. Locks are owned by manager nodes (`lock % nodes`);
//! barriers are rooted at `id % nodes` and run either through that
//! central manager or as an aggregation/release-wave tree, following
//! the fabric's [`cluster::SyncTopology`]. What is this module's own is
//! the wire: message kinds, sizes and trace events. All traffic rides
//! the cluster's configured link.

use cluster::syncproto::barrier::{BarrierMgr, BarrierStep, TreeBarrier, TreeStep};
use cluster::syncproto::lock::{Acquire, LockMgr, Mode};
use cluster::syncproto::{acquire_resilient, grant_corr, Answer, Parked};
use cluster::{BarrierTopology, Cluster, NodeCtx};
use interconnect::{downcast, mailbox, Outcome};
use parking_lot::Mutex;
use sim::Sketch;
use std::collections::HashMap;
use std::sync::Arc;

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

#[derive(Clone, Copy)]
struct BarArrive {
    id: u32,
    epoch: u64,
}

#[derive(Clone, Copy)]
struct BarRelease {
    id: u32,
    epoch: u64,
}

#[derive(Clone)]
struct TreeAggMsg {
    id: u32,
    epoch: u64,
    child: usize,
    latest_ns: u64,
    /// The subtree's members. Carries no bytes: on the wire an
    /// aggregate is its 32-byte header.
    agg: Vec<(usize, ())>,
}

#[derive(Clone, Copy)]
struct TreeWaveMsg {
    id: u32,
    epoch: u64,
    release_ns: u64,
}

/// Cluster-shared synchronization state.
pub struct SyncCore {
    nodes: usize,
    base: u32,
    /// Barrier topology from the fabric config (locks stay
    /// manager-owned here: the token queue is a consistency-protocol
    /// optimization and hardware-coherent platforms don't carry one).
    barrier_topo: BarrierTopology,
    locks: Vec<Mutex<LockMgr<()>>>,
    barriers: Vec<Mutex<BarrierMgr<()>>>,
    trees: Vec<Mutex<TreeBarrier<()>>>,
    /// Lock-acquire latency (virtual ns from request to grant-in-hand),
    /// pooled across nodes; feeds the monitoring quantiles.
    lock_hist: Sketch,
}

impl SyncCore {
    /// Install the sync protocol on `cluster` using kinds offset by
    /// `kind_base` (pass 0 unless two cores share a fabric).
    pub fn install(cluster: &Cluster, kind_base: u32) -> Arc<SyncCore> {
        let nodes = cluster.config().nodes;
        let barrier_topo = cluster.config().sync.barrier;
        let fanout = match barrier_topo {
            BarrierTopology::Tree { fanout } => fanout,
            BarrierTopology::Central => 2,
        };
        let core = Arc::new(SyncCore {
            nodes,
            base: kind_base,
            barrier_topo,
            locks: (0..nodes).map(|_| Mutex::new(LockMgr::new())).collect(),
            barriers: (0..nodes).map(|_| Mutex::new(BarrierMgr::new())).collect(),
            trees: (0..nodes)
                .map(|me| Mutex::new(TreeBarrier::new(me, nodes, fanout, None)))
                .collect(),
            lock_hist: Sketch::new(),
        });
        let net = cluster.network();

        let c = core.clone();
        net.register_all(kind_base + LOCK_REQ, move |node| {
            let c = c.clone();
            move |ctx: &interconnect::HandlerCtx<'_>, src, p| {
                let (lock, mode, lost_grant) = downcast::<(u32, Mode, bool)>(p);
                match c.locks[node].lock().acquire_mode(lock, src, mode, ctx.now, lost_grant) {
                    Acquire::Granted(_, floor) => {
                        c.trace_grant(ctx.now.max(floor), node, lock, src);
                        Outcome::reply_not_before(Answer::Granted(()), 8, floor)
                    }
                    Acquire::Queued => Outcome::reply(Answer::<()>::Queued, 8),
                }
            }
        });

        let c = core.clone();
        net.register_all(kind_base + LOCK_REL, move |node| {
            let c = c.clone();
            move |ctx: &interconnect::HandlerCtx<'_>, src, p| {
                let lock = downcast::<u32>(p);
                for (next, _) in c.locks[node].lock().release(lock, src, (), ctx.now) {
                    c.trace_grant(ctx.now, node, lock, next);
                    let tag = mailbox::tag(c.base + LOCK_GRANT, lock);
                    ctx.post_tagged(next, c.base + LOCK_GRANT, lock, 8, tag);
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
            let c = c.clone();
            move |ctx: &interconnect::HandlerCtx<'_>, src, p| {
                let arr = downcast::<BarArrive>(p);
                let step =
                    c.barriers[node].lock().arrive(arr.id, arr.epoch, src, (), ctx.now, c.nodes);
                let tag = mailbox::tag(c.base + BAR_RELEASE, arr.id);
                match step {
                    BarrierStep::Release { epoch, release_ns, intervals } => {
                        c.trace_release(release_ns, node, arr.id, epoch);
                        if ctx.resilient() {
                            // Request/reply rendezvous: discharge every
                            // parked arrival with the release; the final
                            // arriver takes it as its own reply (see the
                            // swdsm barrier for the full rationale).
                            for (who, ()) in intervals {
                                if who != src {
                                    ctx.complete_deferred(tag, who, epoch, 16, release_ns);
                                }
                            }
                            return Outcome::reply_not_before(epoch, 16, release_ns);
                        }
                        let rel = BarRelease { id: arr.id, epoch };
                        for dst in 0..c.nodes {
                            ctx.post_tagged_at(dst, c.base + BAR_RELEASE, rel, 16, tag, release_ns);
                        }
                        Outcome::done()
                    }
                    // Re-arrival for an already-released epoch: the
                    // arriver's release reply was lost.
                    BarrierStep::Replay { epoch, release_ns, .. } => {
                        Outcome::reply_not_before(epoch, 16, release_ns)
                    }
                    // Pending (first copy or a retried duplicate): park
                    // the reply until the last participant arrives.
                    BarrierStep::Waiting if ctx.resilient() => Outcome::defer(tag),
                    BarrierStep::Waiting => Outcome::done(),
                }
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

        // Tree barrier. On a plain fabric a node's own arrival bounces
        // off its own handler so arrivals, child aggregates, and waves
        // all mutate the per-node state from one serialized context. On
        // resilient fabrics only TREE_AGG crosses the wire, as a retried
        // *request* from the child's application thread whose (deferred)
        // reply is that child's release wave — fire-and-forget tree
        // edges cannot heal, because a parked reply has no client-side
        // deadline (see the swdsm tree barrier for the full rationale).
        let c = core.clone();
        net.register_all(kind_base + TREE_UP, move |node| {
            let c = c.clone();
            let mb = cluster.network().mailbox(node);
            move |ctx: &interconnect::HandlerCtx<'_>, _src, p| {
                debug_assert!(!ctx.resilient(), "resilient tree arrivals stay on the app thread");
                let arr = downcast::<BarArrive>(p);
                let step = c.trees[node].lock().self_arrive(arr.id, arr.epoch, (), ctx.now);
                let tag = mailbox::tag(c.base + BAR_RELEASE, arr.id);
                match step {
                    TreeStep::Waiting => {}
                    TreeStep::Up { parent, latest_ns, agg } => {
                        let up = TreeAggMsg { id: arr.id, epoch: arr.epoch, child: node, latest_ns, agg };
                        ctx.post(parent, c.base + TREE_AGG, up, 32);
                    }
                    TreeStep::Deliver { release_ns, child_waves, .. } => {
                        // Only the root completes from its own arrival
                        // without an incoming wave; the deposit is
                        // stamped with the release instant, not
                        // ctx.now, which is a real-time race.
                        c.trace_release(release_ns, node, arr.id, arr.epoch);
                        c.post_waves(ctx, arr.id, arr.epoch, release_ns, &child_waves);
                        mb.deposit(tag, Box::new(arr.epoch), release_ns);
                    }
                    TreeStep::Redeliver { .. } => mb.deposit(tag, Box::new(arr.epoch), ctx.now),
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
                let step =
                    c.trees[node].lock().child_arrive(id, epoch, child, msg.latest_ns, msg.agg);
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
                            let when = step.join_ns();
                            let skey = mailbox::tag(c.base + TREE_AGG, id);
                            mb.deposit(skey, Box::new(step), when);
                            Outcome::defer(wkey)
                        }
                        TreeStep::ResendWave { child: cc, release_ns, .. } => {
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
                    TreeStep::Up { parent, latest_ns, agg } => {
                        let up = TreeAggMsg { id, epoch, child: node, latest_ns, agg };
                        ctx.post(parent, c.base + TREE_AGG, up, 32);
                    }
                    TreeStep::Deliver { release_ns, child_waves, .. } => {
                        // Root completion off the final child aggregate:
                        // wave down, then wake the root's own thread at
                        // the release instant — not ctx.now, which is a
                        // real-time race.
                        c.trace_release(release_ns, node, id, epoch);
                        c.post_waves(ctx, id, epoch, release_ns, &child_waves);
                        let tag = mailbox::tag(c.base + BAR_RELEASE, id);
                        mb.deposit(tag, Box::new(epoch), release_ns);
                    }
                    TreeStep::ResendWave { child, release_ns, .. } => {
                        c.post_waves(ctx, id, epoch, release_ns, &[(child, ())]);
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
                match c.trees[node].lock().wave(msg.id, msg.epoch, msg.release_ns, ()) {
                    TreeStep::Waiting => {} // duplicate wave, already released
                    TreeStep::Deliver { release_ns, child_waves, .. } => {
                        c.post_waves(ctx, msg.id, msg.epoch, release_ns, &child_waves);
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

    /// The grant instant; corr packs `(grantee, lock)` like every other
    /// platform's (see [`grant_corr`]).
    fn trace_grant(&self, at_ns: u64, node: usize, lock: u32, grantee: usize) {
        let corr = grant_corr(grantee, lock);
        sim::trace::instant_corr(at_ns, node, "hybriddsm", "lock_grant", lock as u64, corr);
    }

    /// The release instant, traced by the manager or tree root only;
    /// corr = epoch ties it to the matching client-side barrier spans.
    fn trace_release(&self, release_ns: u64, node: usize, id: u32, epoch: u64) {
        sim::trace::instant_corr(release_ns, node, "hybriddsm", "barrier_release", id as u64, epoch);
    }

    /// The release reached a node's position in the barrier tree:
    /// forward the wave to every child subtree (departing at the joined
    /// release time).
    fn post_waves(
        &self,
        ctx: &interconnect::HandlerCtx<'_>,
        id: u32,
        epoch: u64,
        release_ns: u64,
        child_waves: &[(usize, ())],
    ) {
        for &(child, ()) in child_waves {
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
    pub fn lock_histogram(&self) -> Sketch {
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
        self.acquire_mode(lock, Mode::Excl);
    }

    /// Acquire global lock `lock` in shared (reader) mode.
    pub fn acquire_shared(&self, lock: u32) {
        self.acquire_mode(lock, Mode::Shared);
    }

    /// Whether the fabric was built with a timeout/retry policy (fault
    /// injection active): a lock release and a barrier arrival or wave,
    /// one-way posts on a plain fabric, then travel as acknowledged
    /// requests. Requests themselves take one path either way.
    fn resilient(&self) -> bool {
        self.ctx.port().resilience().is_some()
    }

    fn acquire_mode(&self, lock: u32, mode: Mode) {
        let t0 = self.ctx.clock().now();
        self.acquire_inner(lock, mode);
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

    fn acquire_inner(&self, lock: u32, mode: Mode) {
        let me = self.ctx.rank();
        let mgr = lock as usize % self.core.nodes;
        let kind = self.core.base + LOCK_REQ;
        let tag = mailbox::tag(self.core.base + LOCK_GRANT, lock);
        // One path on every fabric: where the fabric retries, the
        // retried requests hit an idempotent manager (a lost grant reply
        // re-grants; a lost Queued reply keeps the original queue
        // entry), and a grant destroyed in flight leaves a loss
        // tombstone, answered by re-requesting. Where it loses nothing,
        // round 1 — granted, or queued and then granted by post — is
        // all there is.
        acquire_resilient(
            format_args!("sync node {me}: lock {lock}"),
            |_round, lost_grant| {
                let rep = self.ctx.port().request_retrying(mgr, kind, (lock, mode, lost_grant), 16)?;
                Ok(downcast::<Answer<()>>(rep))
            },
            || match self.ctx.port().wait_mailbox_checked(tag) {
                Ok(_) => Ok(Parked::Grant(())),
                Err(e) if e.is_transient() => Ok(Parked::Lost),
                Err(e) => Err(e),
            },
        )
        .unwrap_or_else(|e| panic!("sync node {me}: unrecoverable fault acquiring lock {lock}: {e}"))
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
    /// The fabric's [`cluster::SyncTopology`] picks the protocol: the
    /// aggregation/release-wave tree rooted at `id % nodes`, or its
    /// central manager.
    pub fn barrier(&self, id: u32) {
        let t0 = self.ctx.clock().now();
        let epoch = self.epochs.lock().get(&id).copied().unwrap_or(0) + 1;
        match self.core.barrier_topo {
            BarrierTopology::Tree { .. } => self.tree_barrier(id, epoch),
            BarrierTopology::Central => self.central_barrier(id, epoch),
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
        let now = self.ctx.clock().now();
        let step = self.core.trees[me].lock().self_arrive(id, epoch, (), now);
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
                let when = step.join_ns();
                self.ctx.port().mailbox().deposit(skey, Box::new(step), when);
            }
            _ => unreachable!("tree barrier {id}: own arrival produced an impossible step"),
        }
        let step = downcast::<TreeStep<()>>(self.ctx.port().wait_mailbox(skey));
        let deliver = match step {
            TreeStep::Up { parent, latest_ns, agg } => {
                let msg = TreeAggMsg { id, epoch, child: me, latest_ns, agg };
                let rep = self
                    .ctx
                    .port()
                    .request_retrying(parent, self.core.base + TREE_AGG, msg, 32)
                    .unwrap_or_else(|e| {
                        panic!("sync node {me}: unrecoverable fault at tree barrier {id}: {e}")
                    });
                let wave = downcast::<TreeWaveMsg>(rep);
                assert_eq!(wave.epoch, epoch, "tree barrier {id}: epoch mismatch");
                self.core.trees[me].lock().wave(id, epoch, wave.release_ns, ())
            }
            step @ TreeStep::Deliver { .. } => step,
            _ => unreachable!("tree barrier {id}: own arrival neither delivered nor went up"),
        };
        let TreeStep::Deliver { release_ns, child_waves, .. } = deliver else {
            unreachable!("tree barrier {id}: wave did not deliver")
        };
        // Pin the clock to the deterministic join of arrival stamps so
        // the root (whose release is computed locally, not received off
        // the wire) leaves the barrier at the same virtual time on
        // every run.
        self.ctx.clock().advance_to(release_ns);
        if me == id as usize % self.core.nodes {
            self.core.trace_release(release_ns, me, id, epoch);
        }
        let wkey = mailbox::tag(self.core.base + TREE_WAVE, id);
        for (child, ()) in child_waves {
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
