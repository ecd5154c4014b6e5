//! Barrier management with publication exchange: the centralized
//! manager and the scalable tree barrier.
//!
//! [`BarrierMgr`] is the centralized scheme: barrier `id` is managed by
//! node `id % nodes`, every arrival flows to it, and the release
//! broadcast carries everyone's publications — `O(n)` messages but
//! `O(n²)` notice records per barrier where notices ride it, which is
//! what caps the software DSM around 64 nodes.
//!
//! [`TreeBarrier`] is the scalable scheme (`BarrierTopology::Tree`):
//! node `id % nodes` is the *root* of a fanout-`k` tree over all nodes.
//! Arrivals aggregate up the tree (each parent combines its own interval
//! with its children's subtree aggregates); the release flows back down
//! as per-child *waves*, each carrying exactly the complement of the
//! receiving subtree's own aggregate — no notice is ever sent back into
//! the subtree that produced it. `2(n−1)` cross-node messages and
//! `O(n·depth)` notice records per barrier.
//!
//! Both machines are pure state — all messaging is driven by the
//! platform's handlers — so they unit-test without a fabric. With the
//! `()` [`Piggyback`] they are the ordering-only barriers of the
//! hardware-coherent platforms: the same arrivals, aggregates and waves,
//! carrying nothing.

use super::{Notices, Piggyback};
use std::collections::HashMap;

/// A cached release: `(epoch, release_ns, intervals sorted by rank)`.
type ReleasedEpoch<P> = (u64, u64, Vec<(usize, P)>);

/// Pending state of one barrier at its manager.
#[derive(Clone, Debug, Default)]
struct BarrierState<P> {
    epoch: u64,
    arrived: Vec<(usize, P)>,
    /// Latest virtual arrival time seen this epoch.
    latest_ns: u64,
}

/// All barriers managed by one node; `P` is what an arrival publishes.
#[derive(Clone, Debug, Default)]
pub struct BarrierMgr<P> {
    barriers: HashMap<u32, BarrierState<P>>,
    /// Last released epoch per barrier, with its release time and
    /// intervals, kept so a retried arrival (the arriver never saw the
    /// release) can be answered with a targeted replay instead of
    /// corrupting the next epoch's state.
    released: HashMap<u32, ReleasedEpoch<P>>,
}

/// What the manager does after an arrival.
#[derive(Debug, PartialEq)]
pub enum BarrierStep<P> {
    /// Still waiting for more arrivals.
    Waiting,
    /// Everyone arrived: release at `release_ns` with these intervals.
    Release {
        /// The epoch being released.
        epoch: u64,
        /// Virtual time of the release (latest arrival).
        release_ns: u64,
        /// Every participant's interval, sorted by rank.
        intervals: Vec<(usize, P)>,
    },
    /// The arrival is a retry for an epoch that already released (the
    /// release broadcast to that node was lost): answer the arriver
    /// directly with the cached release.
    Replay {
        /// The already-released epoch.
        epoch: u64,
        /// Virtual time of the original release.
        release_ns: u64,
        /// The released intervals, sorted by rank.
        intervals: Vec<(usize, P)>,
    },
}

impl<P: Clone + Default> BarrierMgr<P> {
    /// An empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Node `who` arrived at barrier `id` in `epoch` at virtual time
    /// `arrive_ns`, publishing `interval`. `expected` is the number of
    /// participants (the whole cluster).
    pub fn arrive(
        &mut self,
        id: u32,
        epoch: u64,
        who: usize,
        interval: P,
        arrive_ns: u64,
        expected: usize,
    ) -> BarrierStep<P> {
        if let Some((rel_epoch, release_ns, intervals)) = self.released.get(&id) {
            if epoch == *rel_epoch {
                // Retried arrival for an epoch this manager already
                // released: the arriver never saw the release.
                return BarrierStep::Replay {
                    epoch,
                    release_ns: *release_ns,
                    intervals: intervals.clone(),
                };
            }
            assert!(
                epoch > *rel_epoch,
                "barrier {id}: node {who} arrived for stale epoch {epoch} (last released {rel_epoch})"
            );
        }
        let st = self.barriers.entry(id).or_default();
        if st.arrived.is_empty() {
            st.epoch = epoch;
        }
        assert_eq!(
            st.epoch, epoch,
            "barrier {id}: node {who} arrived for epoch {epoch}, manager in {}",
            st.epoch
        );
        if st.arrived.iter().any(|(n, _)| *n == who) {
            // Duplicate (retried) arrival within the pending epoch; the
            // interval is identical, so it contributes nothing new.
            return BarrierStep::Waiting;
        }
        st.arrived.push((who, interval));
        st.latest_ns = st.latest_ns.max(arrive_ns);
        if st.arrived.len() == expected {
            let mut intervals = std::mem::take(&mut st.arrived);
            intervals.sort_by_key(|(n, _)| *n);
            let release_ns = st.latest_ns;
            st.latest_ns = 0;
            self.released.insert(id, (epoch, release_ns, intervals.clone()));
            BarrierStep::Release { epoch, release_ns, intervals }
        } else {
            BarrierStep::Waiting
        }
    }
}

/// The fixed shape of one barrier's release tree.
///
/// The root is `id % nodes` (the same node that would manage the
/// barrier centrally); every other node's position is its rank rotated
/// so the root sits at position 0, giving a complete `fanout`-ary tree
/// laid out heap-style over positions `0..nodes`.
#[derive(Debug, Clone, Copy)]
pub struct TreeTopo {
    root: usize,
    nodes: usize,
    fanout: usize,
}

impl TreeTopo {
    /// The tree for barrier `id` over `nodes` nodes with the given
    /// fanout.
    pub fn new(id: u32, nodes: usize, fanout: usize) -> Self {
        assert!(fanout >= 2, "tree fanout must be at least 2");
        Self { root: id as usize % nodes, nodes, fanout }
    }

    fn pos(&self, v: usize) -> usize {
        (v + self.nodes - self.root) % self.nodes
    }

    fn node_at(&self, pos: usize) -> usize {
        (pos + self.root) % self.nodes
    }

    /// The root node of this barrier's tree.
    pub fn root(&self) -> usize {
        self.root
    }

    /// The parent of `v`, or `None` at the root.
    pub fn parent(&self, v: usize) -> Option<usize> {
        let p = self.pos(v);
        if p == 0 {
            None
        } else {
            Some(self.node_at((p - 1) / self.fanout))
        }
    }

    /// The children of `v`, in position order.
    pub fn children(&self, v: usize) -> Vec<usize> {
        let p = self.pos(v);
        (self.fanout * p + 1..=self.fanout * p + self.fanout)
            .take_while(|&c| c < self.nodes)
            .map(|c| self.node_at(c))
            .collect()
    }
}

/// What a tree-barrier transition asks the caller (a protocol handler)
/// to do next.
#[derive(Debug, PartialEq)]
pub enum TreeStep<W: Piggyback> {
    /// Nothing to send yet.
    Waiting,
    /// The local subtree is complete: post its aggregate to `parent`.
    /// Also returned for duplicate (retried) arrivals while the wave is
    /// still outstanding — re-sending the aggregate is how a lost
    /// upward edge heals.
    Up {
        /// The parent to post to.
        parent: usize,
        /// Latest virtual arrival time within the subtree.
        latest_ns: u64,
        /// Every subtree member's interval, sorted by rank.
        agg: Notices<W>,
    },
    /// The release reached this node (root completion, or a wave from
    /// the parent): apply `own` locally and post each child its wave.
    Deliver {
        /// Virtual release time established at the root.
        release_ns: u64,
        /// The notices this node must apply (everything outside its
        /// own interval).
        own: W,
        /// Per-child complement waves, in child order.
        child_waves: Vec<(usize, W)>,
    },
    /// A retried self-arrival for an epoch already released here:
    /// re-deliver the local notices (the local wake-up was lost).
    Redeliver {
        /// Virtual release time of the original release.
        release_ns: u64,
        /// The notices for this node, as originally computed.
        own: W,
    },
    /// A retried child aggregate for an epoch already released here:
    /// re-post that child's wave (the original wave down was lost).
    ResendWave {
        /// The child to re-post to.
        child: usize,
        /// Virtual release time of the original release.
        release_ns: u64,
        /// The child's wave, as originally computed.
        wave: W,
    },
}

impl<W: Piggyback> TreeStep<W> {
    /// The virtual instant a *completing* step ([`TreeStep::Up`] or
    /// [`TreeStep::Deliver`]) is stamped with: the join of the arrival
    /// stamps it aggregates. Which input completes a subtree is a
    /// real-time race; a driver that hands the step on must stamp it
    /// with this, never with the time it happened to run at.
    pub fn join_ns(&self) -> u64 {
        match self {
            TreeStep::Up { latest_ns, .. } => *latest_ns,
            TreeStep::Deliver { release_ns, .. } => *release_ns,
            other => unreachable!("{other:?} completes nothing"),
        }
    }
}

/// Everything a node computed when a release reached it, cached for
/// replay until the *next* epoch has also released here.
#[derive(Debug, Clone)]
struct WaveOut<W> {
    release_ns: u64,
    own: W,
    child_waves: Vec<(usize, W)>,
}

/// One barrier's pending epoch at one tree node.
#[derive(Clone, Debug)]
struct TreeSlot<W: Piggyback> {
    epoch: u64,
    own: Option<W::Pub>,
    latest_ns: u64,
    children: Vec<(usize, Notices<W>)>,
    up_sent: bool,
    out: Option<WaveOut<W>>,
}

impl<W: Piggyback> TreeSlot<W> {
    fn new(epoch: u64) -> Self {
        Self { epoch, own: None, latest_ns: 0, children: Vec::new(), up_sent: false, out: None }
    }
}

/// Per-node state of every tree barrier this node participates in.
///
/// Handler-driven: the platform feeds arrivals and waves in and acts on
/// the returned [`TreeStep`]s. Duplicate inputs (resilient-mode
/// retries, duplicated messages) are answered with targeted re-sends,
/// so a lost edge anywhere heals as retries propagate up to the nearest
/// released ancestor and its waves flow back down the failed path.
#[derive(Clone, Debug)]
pub struct TreeBarrier<W: Piggyback> {
    me: usize,
    nodes: usize,
    fanout: usize,
    /// `Some(max_runs)` when waves travel as digests
    /// (`NoticeWire::Digest`); upward aggregates stay explicit either
    /// way (parents need exact complements).
    digest_runs: Option<usize>,
    slots: HashMap<u32, TreeSlot<W>>,
    /// One-epoch-back replay cache per barrier id; anything older than
    /// that re-arriving is a protocol bug.
    prev: HashMap<u32, (u64, WaveOut<W>)>,
}

/// Where an input for `(id, epoch)` lands.
enum Loc {
    /// The pending epoch (possibly just created or advanced to).
    Cur,
    /// The immediately preceding, already-released epoch.
    Replay,
}

impl<W: Piggyback> TreeBarrier<W> {
    /// State for node `me` of a `nodes`-node cluster with the given
    /// tree fanout; `digest_runs` enables digest waves.
    pub fn new(me: usize, nodes: usize, fanout: usize, digest_runs: Option<usize>) -> Self {
        assert!(fanout >= 2, "tree fanout must be at least 2");
        Self { me, nodes, fanout, digest_runs, slots: HashMap::new(), prev: HashMap::new() }
    }

    /// The tree shape for barrier `id`.
    pub fn topo(&self, id: u32) -> TreeTopo {
        TreeTopo::new(id, self.nodes, self.fanout)
    }

    /// Resolve `(id, epoch)` to the pending slot (creating or advancing
    /// it) or the replay cache.
    fn locate(&mut self, id: u32, epoch: u64, who: &str) -> Loc {
        if let Some((prev_epoch, _)) = self.prev.get(&id) {
            if epoch == *prev_epoch {
                return Loc::Replay;
            }
            assert!(
                epoch > *prev_epoch,
                "tree barrier {id} at node {}: {who} for stale epoch {epoch} (released {prev_epoch})",
                self.me
            );
        }
        if self.slots.get(&id).is_some_and(|s| s.epoch + 1 == epoch) {
            let s = self.slots.remove(&id).unwrap();
            let out = s
                .out
                .unwrap_or_else(|| panic!("tree barrier {id}: epoch {} advanced before release", s.epoch));
            self.prev.insert(id, (s.epoch, out));
        }
        let me = self.me;
        let slot = self.slots.entry(id).or_insert_with(|| TreeSlot::new(epoch));
        assert_eq!(
            slot.epoch, epoch,
            "tree barrier {id} at node {me}: {who} for epoch {epoch}, node in {}",
            slot.epoch
        );
        Loc::Cur
    }

    /// This node's own application arrived at barrier `id`.
    pub fn self_arrive(
        &mut self,
        id: u32,
        epoch: u64,
        interval: W::Pub,
        arrive_ns: u64,
    ) -> TreeStep<W> {
        if let Loc::Replay = self.locate(id, epoch, "self-arrival") {
            let (_, out) = &self.prev[&id];
            return TreeStep::Redeliver { release_ns: out.release_ns, own: out.own.clone() };
        }
        let slot = self.slots.get_mut(&id).unwrap();
        if slot.own.is_some() {
            // Retried arrival: the interval is identical; answer with
            // whatever re-send heals the stalled edge.
            if let Some(out) = &slot.out {
                return TreeStep::Redeliver { release_ns: out.release_ns, own: out.own.clone() };
            }
            if slot.up_sent {
                return self.make_up(id);
            }
            return TreeStep::Waiting;
        }
        slot.own = Some(interval);
        slot.latest_ns = slot.latest_ns.max(arrive_ns);
        self.try_complete(id)
    }

    /// A child posted its subtree aggregate for barrier `id`.
    pub fn child_arrive(
        &mut self,
        id: u32,
        epoch: u64,
        child: usize,
        latest_ns: u64,
        agg: Notices<W>,
    ) -> TreeStep<W> {
        if let Loc::Replay = self.locate(id, epoch, "child aggregate") {
            let (_, out) = &self.prev[&id];
            return Self::resend_wave(out, child);
        }
        let slot = self.slots.get_mut(&id).unwrap();
        if slot.children.iter().any(|(c, _)| *c == child) {
            // Retried aggregate. If the wave already came through,
            // replay the child's share; otherwise there is nothing to
            // resend — the upward edge is client-retried by this
            // node's own application thread, and the retry's reply
            // obligation simply replaces the child's stale park.
            if let Some(out) = &slot.out {
                return Self::resend_wave(out, child);
            }
            return TreeStep::Waiting;
        }
        slot.children.push((child, agg));
        slot.latest_ns = slot.latest_ns.max(latest_ns);
        self.try_complete(id)
    }

    /// The parent's release wave for barrier `id` arrived.
    pub fn wave(&mut self, id: u32, epoch: u64, release_ns: u64, wave: W) -> TreeStep<W> {
        if let Loc::Replay = self.locate(id, epoch, "wave") {
            // A duplicated wave for an epoch that fully released here.
            return TreeStep::Waiting;
        }
        let slot = self.slots.get(&id).unwrap();
        if slot.out.is_some() {
            return TreeStep::Waiting;
        }
        assert!(
            slot.own.is_some() && slot.up_sent,
            "tree barrier {id} at node {}: wave before subtree completion",
            self.me
        );
        let out = self.build_out(id, release_ns, wave);
        self.slots.get_mut(&id).unwrap().out = Some(out.clone());
        TreeStep::Deliver { release_ns: out.release_ns, own: out.own, child_waves: out.child_waves }
    }

    /// Completion check: once the own arrival and every child aggregate
    /// are in, send up (non-root) or release (root).
    fn try_complete(&mut self, id: u32) -> TreeStep<W> {
        let topo = self.topo(id);
        let expected = topo.children(self.me).len();
        let slot = self.slots.get_mut(&id).unwrap();
        if slot.own.is_none() || slot.children.len() < expected {
            return TreeStep::Waiting;
        }
        slot.children.sort_by_key(|(c, _)| *c);
        if self.me != topo.root() {
            self.slots.get_mut(&id).unwrap().up_sent = true;
            return self.make_up(id);
        }
        // Root completion: release at the latest arrival, processing an
        // empty incoming wave.
        let release_ns = slot.latest_ns;
        let empty = W::encode(Vec::new(), self.digest_runs);
        let out = self.build_out(id, release_ns, empty);
        self.slots.get_mut(&id).unwrap().out = Some(out.clone());
        TreeStep::Deliver { release_ns: out.release_ns, own: out.own, child_waves: out.child_waves }
    }

    /// The upward aggregate for the completed local subtree.
    fn make_up(&self, id: u32) -> TreeStep<W> {
        let topo = self.topo(id);
        let slot = &self.slots[&id];
        let mut agg: Notices<W> = vec![(self.me, slot.own.clone().unwrap())];
        for (_, ca) in &slot.children {
            agg.extend(ca.iter().cloned());
        }
        agg.sort_by_key(|(n, _)| *n);
        TreeStep::Up { parent: topo.parent(self.me).unwrap(), latest_ns: slot.latest_ns, agg }
    }

    /// Combine the incoming wave with local knowledge: the local
    /// notices are the wave plus every child aggregate; each child's
    /// wave is the incoming wave plus the own interval plus every
    /// *other* child's aggregate (exactly the complement of that
    /// child's subtree).
    fn build_out(&self, id: u32, release_ns: u64, incoming: W) -> WaveOut<W> {
        let slot = &self.slots[&id];
        let own_iv = slot.own.clone().unwrap();
        let mut own = incoming.clone();
        let mut from_children: Notices<W> =
            slot.children.iter().flat_map(|(_, a)| a.iter().cloned()).collect();
        from_children.sort_by_key(|(n, _)| *n);
        from_children.retain(|(_, iv)| !W::is_empty(iv));
        own.extend(W::encode(from_children, self.digest_runs));
        let mut child_waves = Vec::new();
        for (c, _) in &slot.children {
            let mut wave = incoming.clone();
            let mut extra: Notices<W> = vec![(self.me, own_iv.clone())];
            for (oc, oa) in &slot.children {
                if oc != c {
                    extra.extend(oa.iter().cloned());
                }
            }
            extra.sort_by_key(|(n, _)| *n);
            extra.retain(|(_, iv)| !W::is_empty(iv));
            wave.extend(W::encode(extra, self.digest_runs));
            child_waves.push((*c, wave));
        }
        WaveOut { release_ns, own, child_waves }
    }

    /// Re-send a released child wave (from the slot or replay cache).
    fn resend_wave(out: &WaveOut<W>, child: usize) -> TreeStep<W> {
        let wave = out
            .child_waves
            .iter()
            .find(|(c, _)| *c == child)
            .unwrap_or_else(|| panic!("node {child} is not a child in this tree"))
            .1
            .clone();
        TreeStep::ResendWave { child, release_ns: out.release_ns, wave }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testpayload::{iv, Wave};
    use super::*;

    #[test]
    fn waits_until_all_arrive() {
        let mut m = BarrierMgr::new();
        assert_eq!(m.arrive(0, 1, 0, iv(&[1]), 100, 3), BarrierStep::Waiting);
        assert_eq!(m.arrive(0, 1, 1, iv(&[]), 300, 3), BarrierStep::Waiting);
        match m.arrive(0, 1, 2, iv(&[2]), 200, 3) {
            BarrierStep::Release { epoch, release_ns, intervals } => {
                assert_eq!(epoch, 1);
                assert_eq!(release_ns, 300); // max of arrivals
                assert_eq!(intervals.len(), 3);
                assert_eq!(intervals[0].0, 0);
                assert_eq!(intervals[0].1, iv(&[1]));
            }
            other => panic!("should release, got {other:?}"),
        }
    }

    #[test]
    fn next_epoch_starts_clean() {
        let mut m = BarrierMgr::new();
        m.arrive(0, 1, 0, iv(&[]), 10, 2);
        m.arrive(0, 1, 1, iv(&[]), 20, 2);
        // Epoch 2 reuses the state slot.
        assert_eq!(m.arrive(0, 2, 1, iv(&[]), 30, 2), BarrierStep::Waiting);
        match m.arrive(0, 2, 0, iv(&[]), 25, 2) {
            BarrierStep::Release { epoch, release_ns, .. } => {
                assert_eq!(epoch, 2);
                assert_eq!(release_ns, 30);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn independent_barrier_ids() {
        let mut m = BarrierMgr::new();
        assert_eq!(m.arrive(1, 1, 0, iv(&[]), 10, 2), BarrierStep::Waiting);
        assert_eq!(m.arrive(2, 1, 0, iv(&[]), 10, 2), BarrierStep::Waiting);
    }

    #[test]
    fn duplicate_arrival_is_idempotent() {
        let mut m = BarrierMgr::new();
        assert_eq!(m.arrive(0, 1, 0, iv(&[]), 10, 2), BarrierStep::Waiting);
        // A retried arrival (its ack was lost) must not count twice.
        assert_eq!(m.arrive(0, 1, 0, iv(&[]), 11, 2), BarrierStep::Waiting);
        match m.arrive(0, 1, 1, iv(&[]), 12, 2) {
            BarrierStep::Release { epoch, intervals, .. } => {
                assert_eq!(epoch, 1);
                assert_eq!(intervals.len(), 2);
            }
            other => panic!("expected release, got {other:?}"),
        }
    }

    #[test]
    fn rearrival_after_release_replays() {
        let mut m = BarrierMgr::new();
        m.arrive(0, 1, 0, iv(&[7]), 10, 2);
        m.arrive(0, 1, 1, iv(&[]), 30, 2);
        // Node 1's release broadcast was lost; it re-arrives for the
        // same epoch and must get the original release replayed.
        match m.arrive(0, 1, 1, iv(&[]), 500, 2) {
            BarrierStep::Replay { epoch, release_ns, intervals } => {
                assert_eq!(epoch, 1);
                assert_eq!(release_ns, 30);
                assert_eq!(intervals[0], (0, iv(&[7])));
            }
            other => panic!("expected replay, got {other:?}"),
        }
        // The next epoch starts clean despite the replay.
        assert_eq!(m.arrive(0, 2, 0, iv(&[]), 600, 2), BarrierStep::Waiting);
    }

    #[test]
    #[should_panic(expected = "epoch")]
    fn epoch_mismatch_panics() {
        let mut m = BarrierMgr::new();
        m.arrive(0, 1, 0, iv(&[]), 10, 3);
        m.arrive(0, 2, 1, iv(&[]), 11, 3);
    }

    fn ex(entries: &[(usize, &[u32])]) -> Wave {
        Wave(entries.iter().map(|(n, ps)| (*n, iv(ps))).collect())
    }

    #[test]
    fn tree_topo_shape() {
        let t = TreeTopo::new(0, 7, 2);
        assert_eq!(t.root(), 0);
        assert_eq!(t.children(0), vec![1, 2]);
        assert_eq!(t.children(1), vec![3, 4]);
        assert_eq!(t.children(2), vec![5, 6]);
        assert_eq!(t.children(3), Vec::<usize>::new());
        assert_eq!(t.parent(0), None);
        assert_eq!(t.parent(4), Some(1));
        assert_eq!(t.parent(6), Some(2));
        // Rotated root: barrier 3 on 4 nodes roots at node 3.
        let t = TreeTopo::new(3, 4, 2);
        assert_eq!(t.root(), 3);
        assert_eq!(t.children(3), vec![0, 1]);
        assert_eq!(t.children(0), vec![2]);
        assert_eq!(t.parent(2), Some(0));
        assert_eq!(t.parent(1), Some(3));
    }

    #[test]
    fn tree_leaf_sends_up() {
        let mut b = TreeBarrier::<Wave>::new(3, 7, 2, None);
        match b.self_arrive(0, 1, iv(&[3]), 50) {
            TreeStep::Up { parent, latest_ns, agg } => {
                assert_eq!(parent, 1);
                assert_eq!(latest_ns, 50);
                assert_eq!(agg, vec![(3, iv(&[3]))]);
            }
            other => panic!("expected up, got {other:?}"),
        }
    }

    #[test]
    fn tree_internal_aggregates_and_splits_waves() {
        let mut b = TreeBarrier::<Wave>::new(1, 7, 2, None);
        assert_eq!(b.self_arrive(0, 1, iv(&[1]), 10), TreeStep::Waiting);
        assert_eq!(b.child_arrive(0, 1, 4, 40, vec![(4, iv(&[4]))]), TreeStep::Waiting);
        match b.child_arrive(0, 1, 3, 30, vec![(3, iv(&[3]))]) {
            TreeStep::Up { parent, latest_ns, agg } => {
                assert_eq!(parent, 0);
                assert_eq!(latest_ns, 40);
                assert_eq!(agg, vec![(1, iv(&[1])), (3, iv(&[3])), (4, iv(&[4]))]);
            }
            other => panic!("expected up, got {other:?}"),
        }
        // The wave from the root is the complement of this subtree; the
        // local notices add the children, each child wave adds what that
        // child's subtree is missing — never its own writes.
        match b.wave(0, 1, 100, ex(&[(0, &[0]), (2, &[2])])) {
            TreeStep::Deliver { release_ns, own, child_waves } => {
                assert_eq!(release_ns, 100);
                assert_eq!(own, ex(&[(0, &[0]), (2, &[2]), (3, &[3]), (4, &[4])]));
                assert_eq!(
                    child_waves,
                    vec![
                        (3, ex(&[(0, &[0]), (2, &[2]), (1, &[1]), (4, &[4])])),
                        (4, ex(&[(0, &[0]), (2, &[2]), (1, &[1]), (3, &[3])])),
                    ]
                );
            }
            other => panic!("expected delivery, got {other:?}"),
        }
    }

    #[test]
    fn tree_root_releases_with_complements() {
        let mut b = TreeBarrier::<Wave>::new(0, 3, 2, None);
        assert_eq!(b.self_arrive(0, 1, iv(&[0]), 5), TreeStep::Waiting);
        assert_eq!(b.child_arrive(0, 1, 2, 20, vec![(2, iv(&[2]))]), TreeStep::Waiting);
        match b.child_arrive(0, 1, 1, 10, vec![(1, iv(&[1]))]) {
            TreeStep::Deliver { release_ns, own, child_waves } => {
                assert_eq!(release_ns, 20);
                assert_eq!(own, ex(&[(1, &[1]), (2, &[2])]));
                assert_eq!(
                    child_waves,
                    vec![(1, ex(&[(0, &[0]), (2, &[2])])), (2, ex(&[(0, &[0]), (1, &[1])]))]
                );
            }
            other => panic!("expected delivery, got {other:?}"),
        }
    }

    #[test]
    fn tree_retries_heal_lost_edges() {
        // 2-node tree: node 0 is the root, node 1 the only leaf.
        let mut root = TreeBarrier::<Wave>::new(0, 2, 2, None);
        let mut leaf = TreeBarrier::<Wave>::new(1, 2, 2, None);
        assert!(matches!(leaf.self_arrive(0, 1, iv(&[1]), 10), TreeStep::Up { .. }));
        // Duplicate self-arrival while the wave is outstanding re-sends
        // the aggregate (heals a lost upward edge).
        assert!(matches!(leaf.self_arrive(0, 1, iv(&[1]), 11), TreeStep::Up { parent: 0, .. }));
        assert_eq!(root.self_arrive(0, 1, iv(&[0]), 5), TreeStep::Waiting);
        assert!(matches!(
            root.child_arrive(0, 1, 1, 10, vec![(1, iv(&[1]))]),
            TreeStep::Deliver { .. }
        ));
        // The wave to the leaf was lost: a retried aggregate replays it.
        match root.child_arrive(0, 1, 1, 10, vec![(1, iv(&[1]))]) {
            TreeStep::ResendWave { child: 1, release_ns: 10, wave } => {
                assert_eq!(wave, ex(&[(0, &[0])]));
            }
            other => panic!("expected wave replay, got {other:?}"),
        }
        // The leaf releases; a retried self-arrival re-delivers locally.
        assert!(matches!(leaf.wave(0, 1, 10, ex(&[(0, &[0])])), TreeStep::Deliver { .. }));
        match leaf.self_arrive(0, 1, iv(&[1]), 12) {
            TreeStep::Redeliver { release_ns: 10, own } => assert_eq!(own, ex(&[(0, &[0])])),
            other => panic!("expected redelivery, got {other:?}"),
        }
        // The root advances to epoch 2; a straggling epoch-1 aggregate
        // replays from the one-epoch-back cache.
        assert_eq!(root.self_arrive(0, 2, iv(&[]), 30), TreeStep::Waiting);
        assert!(matches!(
            root.child_arrive(0, 1, 1, 10, vec![(1, iv(&[1]))]),
            TreeStep::ResendWave { child: 1, .. }
        ));
    }

    #[test]
    #[should_panic(expected = "stale epoch")]
    fn tree_stale_epoch_panics() {
        let mut b = TreeBarrier::<Wave>::new(0, 2, 2, None);
        b.self_arrive(0, 1, iv(&[]), 1);
        b.child_arrive(0, 1, 1, 2, vec![(1, iv(&[]))]);
        b.self_arrive(0, 2, iv(&[]), 3);
        b.child_arrive(0, 2, 1, 4, vec![(1, iv(&[]))]);
        b.self_arrive(0, 3, iv(&[]), 5);
        // Epoch 1 is now two releases back: beyond the replay cache.
        b.child_arrive(0, 1, 1, 6, vec![(1, iv(&[]))]);
    }
}
