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
//!
//! The driver asks which kind of fabric it is on (`resilient`) only
//! inside the tree barrier: a lock release and the central barrier are
//! one rendezvous either way and leave that to `interconnect`
//! (`send_reliable`, `rendezvous`, `answer_later`, `answer_all`), while
//! the tree barrier's two arms are different choreographies. Merging
//! them is a model change, not a refactor — the module docs of
//! `swdsm::node` quote the prototype (`scale --quick` `scalable` rows
//! −7.8 % … +5.4 % `sim_ms`, `sync_records` 255 → 257 and 4 095 →
//! 4 097); do not re-open it without new evidence.

use cluster::syncproto::barrier::{BarrierMgr, BarrierStep, TreeBarrier, TreeStep};
use cluster::syncproto::lock::{Acquire, LockMgr, Mode};
use cluster::syncproto::{acquire_resilient, grant_corr, Answer, Parked};
use cluster::{BarrierTopology, Cluster, NodeCtx};
use interconnect::{downcast, mailbox, Outcome};
use parking_lot::Mutex;
use sim::Sketch;
use std::collections::HashMap;
use std::sync::Arc;

/// Message kinds (0x2xx block).
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

/// A barrier and one of its epochs: what an arrival announces and what
/// the release answers.
#[derive(Clone, Copy)]
struct BarEpoch {
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
    /// Install the sync protocol on `cluster`.
    pub fn install(cluster: &Cluster) -> Arc<SyncCore> {
        let nodes = cluster.config().nodes;
        let barrier_topo = cluster.config().sync.barrier;
        let fanout = match barrier_topo {
            BarrierTopology::Tree { fanout } => fanout,
            BarrierTopology::Central => 2,
        };
        let core = Arc::new(SyncCore {
            nodes,
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
        net.register_all(LOCK_REQ, move |node| {
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
        net.register_all(LOCK_REL, move |node| {
            let c = c.clone();
            move |ctx: &interconnect::HandlerCtx<'_>, src, p| {
                let lock = downcast::<u32>(p);
                for (next, _) in c.locks[node].lock().release(lock, src, (), ctx.now) {
                    c.trace_grant(ctx.now, node, lock, next);
                    let tag = mailbox::tag(LOCK_GRANT, lock);
                    ctx.post_tagged(next, LOCK_GRANT, lock, 8, tag);
                }
                Outcome::done()
            }
        });

        net.register_all(LOCK_GRANT, |node| {
            let mb = cluster.network().mailbox(node);
            move |ctx: &interconnect::HandlerCtx<'_>, _src, p| {
                let lock = downcast::<u32>(p);
                mb.deposit(mailbox::tag(LOCK_GRANT, lock), Box::new(()), ctx.now);
                Outcome::done()
            }
        });

        let c = core.clone();
        net.register_all(BAR_ARRIVE, move |node| {
            let c = c.clone();
            move |ctx: &interconnect::HandlerCtx<'_>, src, p| {
                let arr = downcast::<BarEpoch>(p);
                let step =
                    c.barriers[node].lock().arrive(arr.id, arr.epoch, src, (), ctx.now, c.nodes);
                let tag = mailbox::tag(BAR_RELEASE, arr.id);
                match step {
                    BarrierStep::Release { epoch, release_ns, intervals } => {
                        c.trace_release(release_ns, node, arr.id, epoch);
                        let waiters = intervals.into_iter().map(|(who, ())| who).collect();
                        ctx.answer_all(BAR_RELEASE, tag, release_ns, src, waiters, |_| {
                            (BarEpoch { id: arr.id, epoch }, 16)
                        })
                    }
                    // Re-arrival for an already-released epoch: the
                    // arriver's release reply was lost.
                    BarrierStep::Replay { epoch, release_ns, .. } => {
                        Outcome::reply_not_before(BarEpoch { id: arr.id, epoch }, 16, release_ns)
                    }
                    // Pending (first copy or a retried duplicate).
                    BarrierStep::Waiting => ctx.answer_later(tag),
                }
            }
        });

        net.register_all(BAR_RELEASE, |node| {
            let mb = cluster.network().mailbox(node);
            move |ctx: &interconnect::HandlerCtx<'_>, _src, p| {
                let rel = downcast::<BarEpoch>(p);
                mb.deposit(mailbox::tag(BAR_RELEASE, rel.id), Box::new(rel), ctx.now);
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
        net.register_all(TREE_UP, move |node| {
            let c = c.clone();
            let mb = cluster.network().mailbox(node);
            move |ctx: &interconnect::HandlerCtx<'_>, _src, p| {
                debug_assert!(!ctx.resilient(), "resilient tree arrivals stay on the app thread");
                let arr = downcast::<BarEpoch>(p);
                let step = c.trees[node].lock().self_arrive(arr.id, arr.epoch, (), ctx.now);
                c.tree_step(ctx, &mb, node, arr.id, arr.epoch, step);
                Outcome::done()
            }
        });

        let c = core.clone();
        net.register_all(TREE_AGG, move |node| {
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
                    let wkey = mailbox::tag(TREE_WAVE, id);
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
                            let skey = mailbox::tag(TREE_AGG, id);
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
                c.tree_step(ctx, &mb, node, id, epoch, step);
                Outcome::done()
            }
        });

        let c = core.clone();
        net.register_all(TREE_WAVE, move |node| {
            let c = c.clone();
            let mb = cluster.network().mailbox(node);
            move |ctx: &interconnect::HandlerCtx<'_>, _src, p| {
                debug_assert!(!ctx.resilient(), "resilient waves ride TREE_AGG replies");
                let msg = downcast::<TreeWaveMsg>(p);
                let step = c.trees[node].lock().wave(msg.id, msg.epoch, msg.release_ns, ());
                // `Waiting` here is a duplicate wave, already released.
                c.tree_step(ctx, &mb, node, msg.id, msg.epoch, step);
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

    /// Carry out `step` of `node`'s tree machine from a handler of the
    /// one-way choreography (`TREE_UP`, `TREE_AGG`, `TREE_WAVE` all end
    /// here). The local application is woken through `mb`.
    fn tree_step(
        &self,
        ctx: &interconnect::HandlerCtx<'_>,
        mb: &interconnect::Mailbox,
        node: usize,
        id: u32,
        epoch: u64,
        step: TreeStep<()>,
    ) {
        let tag = mailbox::tag(BAR_RELEASE, id);
        match step {
            TreeStep::Waiting => {}
            TreeStep::Up { parent, latest_ns, agg } => {
                let up = TreeAggMsg { id, epoch, child: node, latest_ns, agg };
                ctx.post(parent, TREE_AGG, up, 32);
            }
            TreeStep::Deliver { release_ns, child_waves, .. } => {
                // The root completes off its own arrival or its last
                // child's aggregate — which one is a real-time race, so
                // its wake-up is stamped with the release instant, not
                // ctx.now; every other node completes off its parent's
                // wave.
                let root = node == id as usize % self.nodes;
                if root {
                    self.trace_release(release_ns, node, id, epoch);
                }
                self.post_waves(ctx, id, epoch, release_ns, &child_waves);
                let at_ns = if root { release_ns } else { ctx.now };
                mb.deposit(tag, Box::new(BarEpoch { id, epoch }), at_ns);
            }
            // The local wake-up of a released epoch was lost.
            TreeStep::Redeliver { .. } => mb.deposit(tag, Box::new(BarEpoch { id, epoch }), ctx.now),
            // The child's wave of a released epoch was lost.
            TreeStep::ResendWave { child, release_ns, .. } => {
                self.post_waves(ctx, id, epoch, release_ns, &[(child, ())]);
            }
        }
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
            ctx.post_at(child, TREE_WAVE, wave, 24, release_ns);
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
    /// injection active). Only the tree barrier asks: its two
    /// choreographies differ (see [`SyncNode::tree_barrier`]); every
    /// other exchange takes one path and leaves the choice to the fabric.
    fn resilient(&self) -> bool {
        self.ctx.port().resilience().is_some()
    }

    /// Emit the span `[t0, now]` of a blocking operation; returns its
    /// length. Lock spans carry `corr = lock + 1`, barrier spans the
    /// epoch.
    fn trace_span(&self, t0: u64, op: &'static str, arg: u64, corr: u64) -> u64 {
        let dur = self.ctx.clock().now().saturating_sub(t0);
        sim::trace::span_corr(t0, dur, self.ctx.rank(), "hybriddsm", op, arg, corr);
        dur
    }

    fn acquire_mode(&self, lock: u32, mode: Mode) {
        let t0 = self.ctx.clock().now();
        let me = self.ctx.rank();
        let mgr = lock as usize % self.core.nodes;
        let tag = mailbox::tag(LOCK_GRANT, lock);
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
                let rep = self.ctx.port().request_retrying(mgr, LOCK_REQ, (lock, mode, lost_grant), 16)?;
                Ok(downcast::<Answer<()>>(rep))
            },
            || match self.ctx.port().wait_mailbox_checked(tag) {
                Ok(_) => Ok(Parked::Grant(())),
                Err(e) if e.is_transient() => Ok(Parked::Lost),
                Err(e) => Err(e),
            },
        )
        .unwrap_or_else(|e| panic!("sync node {me}: unrecoverable fault acquiring lock {lock}: {e}"));
        self.core.lock_hist.record(self.trace_span(t0, "lock_acquire", lock as u64, lock as u64 + 1));
    }

    /// Release global lock `lock`. A lost release would strand the
    /// waiters, so it goes by [`interconnect::NodePort::send_reliable`].
    pub fn release(&self, lock: u32) {
        let mgr = lock as usize % self.core.nodes;
        if let Err(e) = self.ctx.port().send_reliable(mgr, LOCK_REL, lock, 16) {
            panic!("sync node {}: unrecoverable fault releasing lock {lock}: {e}", self.ctx.rank());
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
        self.trace_span(t0, "barrier", id as u64, epoch);
    }

    /// One rendezvous at the manager (see [`interconnect::message`]).
    /// Retried arrivals are deduplicated while the epoch is pending and
    /// answered from the release cache after.
    fn central_barrier(&self, id: u32, epoch: u64) {
        let mgr = id as usize % self.core.nodes;
        let tag = mailbox::tag(BAR_RELEASE, id);
        let arr = BarEpoch { id, epoch };
        let rel = self.ctx.port().rendezvous(mgr, BAR_ARRIVE, arr, 24, tag).unwrap_or_else(|e| {
            panic!("sync node {}: unrecoverable fault at barrier {id}: {e}", self.ctx.rank())
        });
        assert_eq!(downcast::<BarEpoch>(rel).epoch, epoch, "barrier {id}: epoch mismatch");
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
            let arr = BarEpoch { id, epoch };
            let tag = mailbox::tag(BAR_RELEASE, id);
            self.ctx.port().post_parking(me, TREE_UP, arr, 24);
            let got = downcast::<BarEpoch>(self.ctx.port().wait_mailbox(tag)).epoch;
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
        let skey = mailbox::tag(TREE_AGG, id);
        match step {
            TreeStep::Waiting => {}
            step @ (TreeStep::Up { .. } | TreeStep::Deliver { .. }) => {
                let when = step.join_ns();
                self.ctx.port().mailbox().deposit(skey, Box::new(step), when);
            }
            // The epoch commits only with the release in hand, so this
            // thread never re-arrives at a released epoch (`Redeliver`),
            // and only a child's aggregate yields `ResendWave`.
            _ => unreachable!("tree barrier {id}: own arrival produced an impossible step"),
        }
        let step = downcast::<TreeStep<()>>(self.ctx.port().wait_mailbox(skey));
        let deliver = match step {
            TreeStep::Up { parent, latest_ns, agg } => {
                let msg = TreeAggMsg { id, epoch, child: me, latest_ns, agg };
                let rep = self
                    .ctx
                    .port()
                    .request_retrying(parent, TREE_AGG, msg, 32)
                    .unwrap_or_else(|e| {
                        panic!("sync node {me}: unrecoverable fault at tree barrier {id}: {e}")
                    });
                let wave = downcast::<TreeWaveMsg>(rep);
                assert_eq!(wave.epoch, epoch, "tree barrier {id}: epoch mismatch");
                self.core.trees[me].lock().wave(id, epoch, wave.release_ns, ())
            }
            step @ TreeStep::Deliver { .. } => step,
            // Only completing steps are deposited under `skey`.
            _ => unreachable!("tree barrier {id}: own arrival neither delivered nor went up"),
        };
        // The first wave of an unreleased epoch always delivers.
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
        let wkey = mailbox::tag(TREE_WAVE, id);
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
        let core = SyncCore::install(&cluster);
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
        let core = SyncCore::install(&cluster);
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
        let core = SyncCore::install(&cluster);
        let (_, _) = cluster.run(|ctx| {
            let sync = core.node(&ctx);
            for _ in 0..10 {
                sync.barrier(3);
            }
        });
    }

    #[test]
    fn tree_barrier_joins_clocks_across_shapes() {
        for (nodes, spec) in [(2usize, "tree:2"), (5, "tree:2"), (9, "tree:3"), (8, "scalable")] {
            let sync: cluster::SyncTopology = spec.parse().unwrap();
            let cluster = Cluster::new(
                FabricConfig::builder().nodes(nodes).link(LinkKind::Sci).sync(sync).build(),
            );
            let core = SyncCore::install(&cluster);
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
        let core = SyncCore::install(&cluster);
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
        let core = SyncCore::install(&cluster);
        let (report, _) = cluster.run(|ctx| {
            let sync = core.node(&ctx);
            sync.barrier(1);
        });
        // One SCI barrier should cost tens of µs, far below an Ethernet
        // round trip (startup dominates at 2 ms).
        assert!(report.sim_time_ns < 4_000_000, "got {}", report.sim_time_ns);
    }
}
