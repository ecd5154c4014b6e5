//! The synchronisation machines of `cluster::syncproto`, enumerated
//! exhaustively without a `Network`.
//!
//! Every machine is a deterministic function of `(state, input)`, so
//! covering every reachable `(state, input)` pair covers every causal
//! delivery order. Each explorer below walks that graph depth-first
//! (memoised on the rendered state): any in-flight input may be
//! delivered next, and on each path one input — any one, at any point —
//! is delivered twice, the way a client retry duplicates it. Both
//! payload instantiations run in lock-step on the same inputs: the
//! software DSM's (`NoticeSet`, publishing `Interval`s) and the
//! hardware-coherent platforms' `()`, which must take the same step
//! sequence — a payload never steers control flow.

use hamster::cluster::syncproto::barrier::{
    BarrierMgr, BarrierStep, TreeBarrier, TreeStep, TreeTopo,
};
use hamster::cluster::syncproto::lock::{Acquire, LockMgr, Mode};
use hamster::cluster::syncproto::Piggyback;
use hamster::memwire::{Interval, PageId};
use hamster::swdsm::proto::NoticeSet;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::rc::Rc;

const EPOCHS: u64 = 2;

/// Virtual arrival stamp of `node` at `epoch`: distinct per node, not
/// monotone in rank, so "latest arrival" is not "last rank".
fn stamp(node: usize, epoch: u64) -> u64 {
    epoch * 1000 + ((node * 7 + 3) % 11) as u64
}

/// What `node` publishes at `epoch`; rank 1 publishes nothing in the
/// second epoch (empty publications never ride a wave).
fn publication(node: usize, epoch: u64) -> Interval {
    if epoch == 2 && node == 1 {
        return Interval::default();
    }
    Interval::from_pages(&[PageId { region: epoch as u32, index: node as u32 }])
}

fn unit(entries: &[(usize, Interval)]) -> Vec<(usize, ())> {
    entries.iter().map(|(n, _)| (*n, ())).collect()
}

fn ranks<T>(entries: &[(usize, T)]) -> Vec<usize> {
    entries.iter().map(|(n, _)| *n).collect()
}

/// Walk every state reachable from `start`; `successors` delivers each
/// deliverable input (with and without leaving a duplicate behind) and
/// asserts the step properties, `at_rest` checks a state with nothing
/// left in flight. Returns (states, states at rest).
fn explore<S: Clone>(
    start: S,
    key: impl Fn(&S) -> String,
    successors: impl Fn(&S) -> Vec<S>,
    at_rest: impl Fn(&S),
) -> (usize, usize) {
    let mut seen = HashSet::new();
    let mut stack = vec![start];
    let mut rests = 0;
    while let Some(state) = stack.pop() {
        if !seen.insert(key(&state)) {
            continue;
        }
        let next = successors(&state);
        if next.is_empty() {
            at_rest(&state);
            rests += 1;
        }
        stack.extend(next);
    }
    (seen.len(), rests)
}

/// The successors of a state with `inflight` inputs in flight: each
/// distinct one delivered (`repeat(i)` says input `i` equals an earlier
/// one), and — while the path's one duplicate is unspent — delivered
/// leaving a copy of itself behind.
fn deliveries<S>(
    inflight: usize,
    repeat: impl Fn(usize) -> bool,
    dup_left: bool,
    deliver: impl Fn(usize, bool) -> S,
) -> Vec<S> {
    let mut next = Vec::new();
    for i in (0..inflight).filter(|&i| !repeat(i)) {
        next.push(deliver(i, false));
        if dup_left {
            next.push(deliver(i, true));
        }
    }
    next
}

// ---- tree barrier ----------------------------------------------------

#[derive(Clone, Debug)]
enum TreeInput {
    Arrive { node: usize, epoch: u64 },
    Agg { to: usize, child: usize, epoch: u64, latest_ns: u64, agg: Vec<(usize, Interval)> },
    Wave { to: usize, epoch: u64, release_ns: u64, wave: NoticeSet },
}

/// One node: the two machines in lock-step, and the first one's
/// rendered state (the `()` machine's is a function of it, step for
/// step).
#[derive(Clone)]
struct TreeNode {
    notice: TreeBarrier<NoticeSet>,
    unit: TreeBarrier<()>,
    key: String,
}

/// An aggregate on its way up: `(parent, latest_ns, members)`.
type SentUp = (usize, u64, Vec<(usize, Interval)>);

/// What the nodes have sent and released so far, as first computed.
#[derive(Clone, Default)]
struct TreeSeen {
    /// First delivery per (node, epoch): (release_ns, own notices).
    delivered: BTreeMap<(usize, u64), (u64, NoticeSet)>,
    /// First wave sent per (parent, child, epoch).
    waves: BTreeMap<(usize, usize, u64), (u64, NoticeSet)>,
    /// First aggregate sent per (node, epoch).
    ups: BTreeMap<(usize, u64), SentUp>,
}

/// A state of the whole tree. The parts are shared between the states
/// of the search, which copies only what a step touches.
#[derive(Clone)]
struct TreeWorld {
    nodes: Vec<Rc<TreeNode>>,
    /// Inputs in flight, each with its rendering (the memo key sorts
    /// them: the set matters, not the order they were sent in).
    inflight: Vec<Rc<(String, TreeInput)>>,
    dup_left: bool,
    seen: Rc<TreeSeen>,
}

/// The control-flow skeleton of a step: everything but the payload.
fn tree_shape<W: Piggyback>(step: &TreeStep<W>) -> String {
    match step {
        TreeStep::Waiting => "waiting".to_string(),
        TreeStep::Up { parent, latest_ns, agg } => {
            format!("up {parent} @{latest_ns} {:?}", ranks(agg))
        }
        TreeStep::Deliver { release_ns, child_waves, .. } => {
            format!("deliver @{release_ns} {:?}", ranks(child_waves))
        }
        TreeStep::Redeliver { release_ns, .. } => format!("redeliver @{release_ns}"),
        TreeStep::ResendWave { child, release_ns, .. } => format!("resend {child} @{release_ns}"),
    }
}

/// The ranks whose non-empty publications a notice set carries.
fn writers(set: &NoticeSet, epoch: u64) -> Vec<usize> {
    let NoticeSet::Explicit(entries) = set else { panic!("explicit waves expected") };
    for (writer, interval) in entries {
        assert_eq!(*interval, publication(*writer, epoch), "writer {writer}'s notices changed");
    }
    let mut w = ranks(entries);
    w.sort_unstable();
    w
}

fn subtree(topo: &TreeTopo, v: usize) -> BTreeSet<usize> {
    let mut all = BTreeSet::from([v]);
    for c in topo.children(v) {
        all.extend(subtree(topo, c));
    }
    all
}

/// Every rank outside `excluded` that published something at `epoch`.
fn complement(nodes: usize, excluded: &BTreeSet<usize>, epoch: u64) -> Vec<usize> {
    (0..nodes).filter(|u| !excluded.contains(u) && !publication(*u, epoch).is_empty()).collect()
}

fn send(inflight: &mut Vec<Rc<(String, TreeInput)>>, input: TreeInput) {
    inflight.push(Rc::new((format!("{input:?}"), input)));
}

impl TreeWorld {
    /// Deliver `inflight[i]`; with `dup`, a copy of it stays in flight.
    fn deliver(&self, i: usize, dup: bool, id: u32) -> TreeWorld {
        let mut w = self.clone();
        let nodes = w.nodes.len();
        let sent = w.inflight.remove(i);
        if dup {
            w.inflight.push(sent.clone());
            w.dup_left = false;
        }
        let input = &sent.1;
        let (at, epoch) = match input {
            TreeInput::Arrive { node, epoch } => (*node, *epoch),
            TreeInput::Agg { to, epoch, .. } | TreeInput::Wave { to, epoch, .. } => (*to, *epoch),
        };
        let node = Rc::make_mut(&mut w.nodes[at]);
        let (step, ustep) = match input {
            TreeInput::Arrive { .. } => (
                node.notice.self_arrive(id, epoch, publication(at, epoch), stamp(at, epoch)),
                node.unit.self_arrive(id, epoch, (), stamp(at, epoch)),
            ),
            TreeInput::Agg { child, latest_ns, agg, .. } => (
                node.notice.child_arrive(id, epoch, *child, *latest_ns, agg.clone()),
                node.unit.child_arrive(id, epoch, *child, *latest_ns, unit(agg)),
            ),
            TreeInput::Wave { release_ns, wave, .. } => (
                node.notice.wave(id, epoch, *release_ns, wave.clone()),
                node.unit.wave(id, epoch, *release_ns, ()),
            ),
        };
        node.key = format!("{:?}", node.notice);
        assert_eq!(tree_shape(&step), tree_shape(&ustep), "payload steered node {at} on {input:?}");
        let tree: TreeTopo = node.notice.topo(id);
        match step {
            TreeStep::Waiting => {}
            TreeStep::Up { parent, latest_ns, agg } => {
                let up = (parent, latest_ns, agg.clone());
                match w.seen.ups.get(&(at, epoch)) {
                    Some(first) => assert_eq!(*first, up, "node {at} re-sent another aggregate"),
                    None => drop(Rc::make_mut(&mut w.seen).ups.insert((at, epoch), up)),
                }
                send(&mut w.inflight, TreeInput::Agg { to: parent, child: at, epoch, latest_ns, agg });
            }
            TreeStep::Deliver { release_ns, own, child_waves } => {
                if at == tree.root() {
                    let latest = (0..nodes).map(|u| stamp(u, epoch)).max().unwrap();
                    assert_eq!(release_ns, latest, "release is not the latest arrival");
                } else {
                    let TreeInput::Wave { release_ns: carried, .. } = input else {
                        panic!("node {at} released off {input:?}")
                    };
                    assert_eq!(release_ns, *carried);
                }
                assert_eq!(
                    writers(&own, epoch),
                    complement(nodes, &BTreeSet::from([at]), epoch),
                    "node {at} must be told of every other writer once, never of itself"
                );
                let seen = Rc::make_mut(&mut w.seen);
                let again = seen.delivered.insert((at, epoch), (release_ns, own));
                assert!(again.is_none(), "node {at} released epoch {epoch} twice");
                for (child, wave) in child_waves {
                    assert_eq!(
                        writers(&wave, epoch),
                        complement(nodes, &subtree(&tree, child), epoch),
                        "wave into {child}'s subtree must be exactly its complement"
                    );
                    seen.waves.insert((at, child, epoch), (release_ns, wave.clone()));
                    send(&mut w.inflight, TreeInput::Wave { to: child, epoch, release_ns, wave });
                }
                if epoch < EPOCHS {
                    send(&mut w.inflight, TreeInput::Arrive { node: at, epoch: epoch + 1 });
                }
            }
            TreeStep::Redeliver { release_ns, own } => {
                assert_eq!(w.seen.delivered[&(at, epoch)], (release_ns, own), "redelivery differs");
            }
            TreeStep::ResendWave { child, release_ns, wave } => {
                let first = &w.seen.waves[&(at, child, epoch)];
                assert_eq!(*first, (release_ns, wave.clone()), "resent wave differs");
                send(&mut w.inflight, TreeInput::Wave { to: child, epoch, release_ns, wave });
            }
        }
        w
    }
}

fn explore_tree(nodes: usize, fanout: usize, id: u32) -> (usize, usize) {
    let mut start = TreeWorld {
        nodes: (0..nodes)
            .map(|me| {
                let notice = TreeBarrier::new(me, nodes, fanout, None);
                let unit = TreeBarrier::new(me, nodes, fanout, None);
                Rc::new(TreeNode { key: format!("{notice:?}"), notice, unit })
            })
            .collect(),
        inflight: Vec::new(),
        dup_left: true,
        seen: Rc::default(),
    };
    for node in 0..nodes {
        send(&mut start.inflight, TreeInput::Arrive { node, epoch: 1 });
    }
    explore(
        start,
        |w| {
            let mut parts: Vec<&str> = w.inflight.iter().map(|m| m.0.as_str()).collect();
            parts.sort_unstable();
            parts.extend(w.nodes.iter().map(|n| n.key.as_str()));
            format!("{}{}", parts.concat(), w.dup_left)
        },
        |w| {
            let repeat = |i: usize| w.inflight[..i].iter().any(|m| m.0 == w.inflight[i].0);
            deliveries(w.inflight.len(), repeat, w.dup_left, |i, dup| w.deliver(i, dup, id))
        },
        |w| {
            for node in 0..nodes {
                for epoch in 1..=EPOCHS {
                    let done = w.seen.delivered.contains_key(&(node, epoch));
                    assert!(done, "node {node} never left epoch {epoch}");
                }
            }
        },
    )
}

/// Barrier 0 roots the tree at rank 0; barrier 3 at a rotated root
/// whose children wrap around the rank space.
fn tree_cases(nodes: std::ops::RangeInclusive<usize>, fanouts: &[usize], ids: &[u32]) {
    for nodes in nodes {
        for &fanout in fanouts {
            for &id in ids {
                let (states, rests) = explore_tree(nodes, fanout, id);
                assert!(rests > 0 && states > 2 * nodes, "{nodes} nodes, fanout {fanout}: no search");
            }
        }
    }
}

#[test]
fn tree_barrier_every_causal_order_with_one_duplicate() {
    tree_cases(2..=4, &[2, 3], &[0, 3]);
}

// Five nodes are most of the cost; they run as tests of their own (so
// in parallel) and at the rotated root only.
#[test]
fn tree_barrier_every_causal_order_with_one_duplicate_five_nodes_binary() {
    tree_cases(5..=5, &[2], &[3]);
}

#[test]
fn tree_barrier_every_causal_order_with_one_duplicate_five_nodes_ternary() {
    tree_cases(5..=5, &[3], &[3]);
}

// ---- central barrier -------------------------------------------------

#[derive(Clone, Debug)]
struct CentralWorld {
    notice: BarrierMgr<Interval>,
    unit: BarrierMgr<()>,
    /// Arrivals in flight, `(node, epoch)`.
    inflight: Vec<(usize, u64)>,
    dup_left: bool,
    /// The release of each epoch, as first computed.
    released: BTreeMap<u64, (u64, Vec<(usize, Interval)>)>,
}

fn central_shape<P>(step: &BarrierStep<P>) -> String {
    match step {
        BarrierStep::Waiting => "waiting".to_string(),
        BarrierStep::Release { epoch, release_ns, intervals } => {
            format!("release {epoch} @{release_ns} {:?}", ranks(intervals))
        }
        BarrierStep::Replay { epoch, release_ns, intervals } => {
            format!("replay {epoch} @{release_ns} {:?}", ranks(intervals))
        }
    }
}

impl CentralWorld {
    fn deliver(&self, i: usize, dup: bool, nodes: usize) -> CentralWorld {
        let mut w = self.clone();
        let (node, epoch) = w.inflight.remove(i);
        if dup {
            w.inflight.push((node, epoch));
            w.dup_left = false;
        }
        let at = stamp(node, epoch);
        let step = w.notice.arrive(7, epoch, node, publication(node, epoch), at, nodes);
        let ustep = w.unit.arrive(7, epoch, node, (), at, nodes);
        assert_eq!(central_shape(&step), central_shape(&ustep), "payload steered the manager");
        match step {
            BarrierStep::Waiting => {}
            BarrierStep::Release { epoch: e, release_ns, intervals } => {
                assert_eq!(e, epoch);
                assert_eq!(release_ns, (0..nodes).map(|u| stamp(u, epoch)).max().unwrap());
                let expected: Vec<_> = (0..nodes).map(|u| (u, publication(u, epoch))).collect();
                assert_eq!(intervals, expected, "every participant once, sorted by rank");
                let again = w.released.insert(epoch, (release_ns, intervals));
                assert!(again.is_none(), "epoch {epoch} released twice");
                // A retry is at most one release old (the arriver is
                // still inside the barrier it retries).
                w.inflight.retain(|&(_, e)| e >= epoch);
                if epoch < EPOCHS {
                    w.inflight.extend((0..nodes).map(|u| (u, epoch + 1)));
                }
            }
            BarrierStep::Replay { epoch: e, release_ns, intervals } => {
                assert_eq!(e, epoch);
                assert_eq!(w.released[&epoch], (release_ns, intervals), "replay differs");
            }
        }
        w
    }
}

#[test]
fn central_barrier_every_arrival_order_with_one_duplicate() {
    for nodes in 2..=5 {
        let start = CentralWorld {
            notice: BarrierMgr::new(),
            unit: BarrierMgr::new(),
            inflight: (0..nodes).map(|u| (u, 1)).collect(),
            dup_left: true,
            released: BTreeMap::new(),
        };
        let (_, rests) = explore(
            start,
            |w| {
                let mut inflight = w.inflight.clone();
                inflight.sort_unstable();
                format!("{:?}{inflight:?}{}", w.notice, w.dup_left)
            },
            |w| {
                let repeat = |i: usize| w.inflight[..i].contains(&w.inflight[i]);
                deliveries(w.inflight.len(), repeat, w.dup_left, |i, dup| w.deliver(i, dup, nodes))
            },
            |w| assert_eq!(w.released.len() as u64, EPOCHS, "an epoch never released"),
        );
        assert!(rests > 0);
    }
}

// ---- locks -----------------------------------------------------------

const LOCK: u32 = 5;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Phase {
    /// Has not asked yet.
    Idle,
    /// Asked, answered `Queued`.
    Waiting,
    /// Inside the critical section; `by_post` if a handover granted it.
    Holding { by_post: bool },
    /// Released.
    Done,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum LockInput {
    Request(usize),
    /// A retried request: its answer was lost (`lost_grant` false), or
    /// the posted grant was and the requester consumed the tombstone.
    Retry(usize, bool),
    Release(usize),
}

/// What a critical section of requester `i` publishes.
fn section(i: usize) -> Interval {
    Interval::from_pages(&[PageId { region: 9, index: i as u32 }])
}

#[derive(Clone, Debug)]
struct LockWorld {
    notice: LockMgr<NoticeSet>,
    unit: LockMgr<()>,
    modes: [Mode; 3],
    stamps: [u64; 3],
    phase: [Phase; 3],
    retry_left: bool,
    /// Virtual time of the next release (after every arrival stamp).
    now: u64,
    /// Who has released so far, in order: the notices a grant carries.
    published: Vec<usize>,
}

impl LockWorld {
    fn new(modes: [Mode; 3], stamps: [u64; 3]) -> Self {
        LockWorld {
            notice: LockMgr::new(),
            unit: LockMgr::new(),
            modes,
            stamps,
            phase: [Phase::Idle; 3],
            retry_left: true,
            now: 100,
            published: Vec::new(),
        }
    }

    fn inputs(&self) -> Vec<LockInput> {
        let mut inputs = Vec::new();
        for (i, phase) in self.phase.iter().enumerate() {
            match phase {
                Phase::Idle => inputs.push(LockInput::Request(i)),
                Phase::Waiting if self.retry_left => inputs.push(LockInput::Retry(i, false)),
                Phase::Waiting | Phase::Done => {}
                Phase::Holding { by_post } => {
                    inputs.push(LockInput::Release(i));
                    if self.retry_left {
                        inputs.push(LockInput::Retry(i, false));
                        if *by_post {
                            inputs.push(LockInput::Retry(i, true));
                        }
                    }
                }
            }
        }
        inputs
    }

    fn holders(&self) -> Vec<usize> {
        (0..3).filter(|&i| matches!(self.phase[i], Phase::Holding { .. })).collect()
    }

    fn check_exclusion(&self) {
        let holders = self.holders();
        if holders.iter().any(|&i| self.modes[i] == Mode::Excl) {
            assert_eq!(holders.len(), 1, "a reader or second writer overlaps a writer: {holders:?}");
        }
    }

    /// The hand-over a release must perform: the earliest virtual
    /// arrival among the waiters (ties by rank) first, plus — if that
    /// is a reader — every reader that arrived no later than the
    /// earliest waiting writer, in rank order.
    fn expected_handover(&self) -> Vec<usize> {
        let waiting: Vec<usize> = (0..3).filter(|&i| self.phase[i] == Phase::Waiting).collect();
        let Some(&first) = waiting.iter().min_by_key(|&&i| (self.stamps[i], i)) else {
            return Vec::new();
        };
        if self.modes[first] == Mode::Excl {
            return vec![first];
        }
        let cutoff = waiting
            .iter()
            .filter(|&&i| self.modes[i] == Mode::Excl)
            .map(|&i| self.stamps[i])
            .min()
            .unwrap_or(u64::MAX);
        let mut batch: Vec<usize> = waiting
            .into_iter()
            .filter(|&i| self.modes[i] == Mode::Shared && self.stamps[i] <= cutoff)
            .collect();
        batch.sort_by_key(|&i| i != first); // the earliest arrival leads
        batch
    }

    /// Whether a first request of `i` must be granted by reply: the
    /// lock is free, or `i` is a reader joining readers with no writer
    /// waiting (writer preference).
    fn grantable(&self, i: usize) -> bool {
        let holders = self.holders();
        holders.is_empty()
            || (self.modes[i] == Mode::Shared
                && holders.iter().all(|&h| self.modes[h] == Mode::Shared)
                && !self.phase.contains(&Phase::Waiting))
    }

    fn check_notices(&self, notices: &[(usize, Interval)]) {
        let expected: Vec<_> = self.published.iter().map(|&i| (i, section(i))).collect();
        assert_eq!(notices, expected, "a grant carries every earlier release once");
    }

    /// Central manager: deliver `input`.
    fn central(&self, input: LockInput) -> LockWorld {
        let mut w = self.clone();
        match input {
            LockInput::Request(i) | LockInput::Retry(i, _) => {
                let lost = matches!(input, LockInput::Retry(_, true));
                w.retry_left &= matches!(input, LockInput::Request(_));
                let (mode, at) = (w.modes[i], w.stamps[i]);
                let got = w.notice.acquire_mode(LOCK, i, mode, at, lost);
                let ugot = w.unit.acquire_mode(LOCK, i, mode, at, lost);
                match (&got, &ugot) {
                    (Acquire::Granted(_, f), Acquire::Granted(u, uf)) => {
                        assert!(u.is_empty());
                        assert_eq!(f, uf, "payload moved the causal floor");
                    }
                    (Acquire::Queued, Acquire::Queued) => {}
                    _ => panic!("payload steered the manager on {input:?}: {got:?} vs {ugot:?}"),
                }
                match (w.phase[i], got) {
                    (Phase::Idle, Acquire::Granted(notices, _)) => {
                        assert!(w.grantable(i), "{input:?} granted over {:?}", w.holders());
                        w.check_notices(&notices);
                        w.phase[i] = Phase::Holding { by_post: false };
                    }
                    (Phase::Idle, Acquire::Queued) => {
                        assert!(!w.grantable(i), "{input:?} queued on a grantable lock");
                        w.phase[i] = Phase::Waiting;
                    }
                    // A lost `Queued` reply: the original entry stands.
                    (Phase::Waiting, Acquire::Queued) => {}
                    // A lost grant reply is granted again, to the same
                    // single hold.
                    (Phase::Holding { by_post: false }, Acquire::Granted(..)) => {}
                    // A posted grant is the holder's to consume: only
                    // its tombstone earns a grant by reply.
                    (Phase::Holding { by_post: true }, Acquire::Queued) => assert!(!lost),
                    (Phase::Holding { by_post: true }, Acquire::Granted(..)) => assert!(lost),
                    (phase, got) => panic!("{input:?} in {phase:?} answered {got:?}"),
                }
            }
            LockInput::Release(i) => {
                w.phase[i] = Phase::Done;
                let expected = w.expected_handover();
                let handover = if w.holders().is_empty() { expected } else { Vec::new() };
                w.published.push(i);
                let grants = w.notice.release(LOCK, i, section(i), w.now);
                let ugrants = w.unit.release(LOCK, i, (), w.now);
                w.now += 10;
                assert_eq!(ranks(&grants), ranks(&ugrants), "payload steered the hand-over");
                let mut batch = ranks(&grants);
                if let Some((_first, rest)) = batch.split_first_mut() {
                    rest.sort_unstable();
                }
                assert_eq!(batch, handover, "hand-over follows virtual arrival");
                for (next, notices) in grants {
                    w.check_notices(&notices);
                    w.phase[next] = Phase::Holding { by_post: true };
                }
            }
        }
        let mut held = w.notice.state(LOCK).map(|st| st.holders.clone()).unwrap_or_default();
        held.sort_unstable();
        assert_eq!(held, w.holders(), "the manager and the requesters disagree on who holds");
        w.check_exclusion();
        w
    }
}

fn explore_locks(start: LockWorld, step: impl Fn(&LockWorld, LockInput) -> LockWorld) {
    let (_, rests) = explore(
        start,
        |w| format!("{:?}{:?}{}{:?}", w.notice, w.phase, w.retry_left, w.published),
        |w| w.inputs().into_iter().map(|input| step(w, input)).collect(),
        |w| assert_eq!(w.phase, [Phase::Done; 3], "a requester never got the lock"),
    );
    assert!(rests > 0);
}

#[test]
fn central_lock_every_order_of_three_requesters_with_one_retry() {
    // Arrival stamps run against rank order, so hand-over by virtual
    // arrival differs from hand-over by queue position.
    for bits in 0..8u32 {
        let mode = |i: u32| if bits >> i & 1 == 1 { Mode::Excl } else { Mode::Shared };
        explore_locks(LockWorld::new([mode(0), mode(1), mode(2)], [30, 10, 20]), LockWorld::central);
    }
}

/// The PR 14 race, as a litmus. Node 1 queues, but its `Queued` reply
/// is lost; node 0 releases and the manager hands over to node 1 by
/// *posting* the grant. Node 1, still retrying its request, must be
/// answered `Queued`: granting by reply would leave the posted grant in
/// its mailbox, to pass for a grant the next time it queues. Only once
/// it reports the grant's tombstone is the grant replayed by reply —
/// and the lock is still held exactly once.
#[test]
fn lost_grant_litmus() {
    fn central<W: Piggyback>() {
        let mut m = LockMgr::<W>::new();
        assert!(matches!(m.acquire_mode(LOCK, 0, Mode::Excl, 10, false), Acquire::Granted(..)));
        assert_eq!(m.acquire_mode(LOCK, 1, Mode::Excl, 20, false), Acquire::Queued);
        assert_eq!(ranks(&m.release(LOCK, 0, W::Pub::default(), 30)), vec![1]);
        assert_eq!(m.acquire_mode(LOCK, 1, Mode::Excl, 40, false), Acquire::Queued);
        assert!(matches!(m.acquire_mode(LOCK, 1, Mode::Excl, 50, true), Acquire::Granted(_, 30)));
        assert_eq!(m.state(LOCK).unwrap().holders, vec![1], "re-granted once, held once");
        assert!(m.release(LOCK, 1, W::Pub::default(), 60).is_empty());
        assert!(m.state(LOCK).unwrap().holders.is_empty());
    }
    central::<NoticeSet>();
    central::<()>();
}
