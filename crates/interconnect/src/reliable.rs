//! The fabric's reliability policy, written once and pure: what befalls
//! a message leg under the fault and membership plans, whether and when
//! a failed request is tried again, and the window of delivery ids that
//! absorbs injected duplicates.
//!
//! Nothing here locks, waits or reads the time: plain data in, a
//! decision out. The network (the mechanism: queues, claims,
//! caller-runs, wake-ups) hands in virtual times and, only when a draw
//! is due, the next position of the message's stream; it maps the
//! answers onto envelopes, reply channels and mailbox tombstones, and
//! counts and traces them in one place.

use crate::error::RequestError;
use crate::fault::{mix, stream_key, FaultPlan, RetryPolicy, REPLY_STREAM, RETRY_STREAM};
use crate::membership::MembershipPlan;
use crate::message::NodeId;
use std::collections::{HashSet, VecDeque};

/// Delivery ids a destination remembers for duplicate suppression.
const DEDUP_WINDOW: usize = 1 << 16;

/// Which way a leg travels.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Dir {
    /// A request or a post, from its sender to its destination.
    Forward,
    /// The answer to a served request, from the replier back to the
    /// requester. Never fenced (a request served inside an epoch
    /// completes), a dead requester is a `Timeout` at the deadline, the
    /// draws come from the kind's reply stream, and a duplicate needs no
    /// action: the requester takes the first copy.
    Reply,
}

/// One message leg, as the policy sees it.
pub(crate) struct Leg {
    pub dir: Dir,
    pub src: NodeId,
    pub dst: NodeId,
    pub kind: u32,
    /// Virtual time the message leaves `src`.
    pub depart_ns: u64,
    /// Virtual time `dst` is probed: the wire arrival of a forward leg,
    /// one link latency past the departure for a reply.
    pub arrive_ns: u64,
    /// Virtual time the requester gives up.
    pub deadline_ns: u64,
}

/// Why a leg never reached its destination.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Why {
    /// It spans a membership view change.
    Fence,
    /// An end is crashed or a partition cuts the path.
    Crash,
    /// The loss draw of its stream position.
    Drop,
}

impl Why {
    /// The counter a loss bumps and the `fault` trace instant it emits.
    pub(crate) fn names(self) -> (&'static str, &'static str) {
        match self {
            Why::Fence => ("view_fenced", "view_fence"),
            Why::Crash => ("crash_drops", "crash_drop"),
            Why::Drop => ("faults_dropped", "drop"),
        }
    }
}

/// What befalls a leg.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Fate {
    /// Delivered `extra_delay_ns` late, and a second time if `dup`.
    Arrive { extra_delay_ns: u64, dup: bool },
    /// Lost: the requester learns `err` at virtual time `ready_ns`.
    Lost { why: Why, err: RequestError, ready_ns: u64 },
}

/// Decide `leg`'s fate. The view fence comes first, then the crash and
/// partition test, and only a leg that passed both draws from its
/// `(src, dst, kind)` stream: `position` is called at most once, with
/// the stream's kind, and must return that stream's next position.
#[inline]
pub(crate) fn leg(
    faults: Option<&FaultPlan>,
    view: Option<&MembershipPlan>,
    leg: &Leg,
    position: impl FnOnce(u32) -> u64,
) -> Fate {
    let &Leg { dir, src, dst, kind, depart_ns, arrive_ns, deadline_ns } = leg;
    let forward = dir == Dir::Forward;
    if let Some(view) = view.filter(|_| forward) {
        let epoch = view.epoch_at(arrive_ns);
        if view.epoch_at(depart_ns) != epoch {
            let err = RequestError::StaleView { epoch, at_ns: arrive_ns };
            return Fate::Lost { why: Why::Fence, err, ready_ns: arrive_ns };
        }
    }
    let Some(plan) = faults else {
        return Fate::Arrive { extra_delay_ns: 0, dup: false };
    };
    let timeout = RequestError::Timeout { deadline_ns };
    let dst_down = plan.down_at(dst, arrive_ns);
    if dst_down || plan.down_at(src, depart_ns) || plan.cut_at(src, dst, depart_ns) {
        // The sender's transport notices a dead destination one wire
        // trip out; a partitioned or self-crashed path just goes silent.
        let (err, ready_ns) = if dst_down && forward {
            (RequestError::NodeDown { node: dst, at_ns: arrive_ns }, arrive_ns)
        } else {
            (timeout, deadline_ns)
        };
        return Fate::Lost { why: Why::Crash, err, ready_ns };
    }
    let kind = if forward { kind } else { kind | REPLY_STREAM };
    let d = plan.decide(src, dst, kind, position(kind));
    if d.drop {
        return Fate::Lost { why: Why::Drop, err: timeout, ready_ns: deadline_ns };
    }
    Fate::Arrive { extra_delay_ns: d.extra_delay_ns, dup: d.dup && forward }
}

/// After the `failures`-th failed attempt of a request on the
/// `(src, dst, kind)` stream, ending in `last`: `None` to give up (a
/// fatal error, or the attempt budget spent), else the backoff before
/// the next attempt. The jitter comes from deterministic inputs only —
/// with a fault plan, its seed and the next position of the stream's
/// retry sequence (`position`, called at most once); without one, the
/// failure count. Never the current virtual time, whose low digits
/// wobble with host scheduling.
pub(crate) fn retry(
    policy: &RetryPolicy,
    faults: Option<&FaultPlan>,
    (src, dst, kind): (NodeId, NodeId, u32),
    failures: u32,
    last: &RequestError,
    position: impl FnOnce(u32) -> u64,
) -> Option<u64> {
    if !last.is_transient() || failures >= policy.max_attempts {
        return None;
    }
    let salt = match faults {
        Some(plan) => {
            let kind = kind | RETRY_STREAM;
            mix(plan.seed ^ mix(stream_key(src, dst, kind as u64)) ^ position(kind))
        }
        None => mix(stream_key(src, dst, (kind as u64) << 1) ^ failures as u64),
    };
    Some(policy.backoff_ns(failures, salt))
}

/// The delivery ids one destination saw last, oldest forgotten first:
/// an injected duplicate is recognised here and dropped before any
/// handler runs. A retried request is a new delivery with a fresh id,
/// so it is not absorbed: idempotence against retries is the
/// protocols' business.
#[derive(Default)]
pub(crate) struct DedupWindow {
    seen: HashSet<u64>,
    order: VecDeque<u64>,
}

impl DedupWindow {
    pub(crate) fn insert(&mut self, id: u64) {
        if self.seen.insert(id) {
            self.order.push_back(id);
            if self.order.len() > DEDUP_WINDOW {
                if let Some(old) = self.order.pop_front() {
                    self.seen.remove(&old);
                }
            }
        }
    }

    pub(crate) fn contains(&self, id: u64) -> bool {
        self.seen.contains(&id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{CrashWindow, LinkFaults, PartitionWindow, PPM};
    use crate::membership::{MembershipEvent, ViewChange};
    use std::cell::Cell;

    const KIND: u32 = 0x10;

    /// A leg from node 0 to node 1 departing at 1 000 ns, probing node 1
    /// at 2 000 ns, given up at 9 000 ns.
    fn leg_of(dir: Dir) -> Leg {
        Leg { dir, src: 0, dst: 1, kind: KIND, depart_ns: 1_000, arrive_ns: 2_000, deadline_ns: 9_000 }
    }

    /// Decide `leg` and report which stream kinds it drew a position of.
    fn decide(faults: Option<&FaultPlan>, view: Option<&MembershipPlan>, leg: &Leg) -> (Fate, Vec<u32>) {
        let drawn = Cell::new(Vec::new());
        let fate = self::leg(faults, view, leg, |kind| {
            let mut seen = drawn.take();
            seen.push(kind);
            drawn.set(seen);
            7
        });
        (fate, drawn.take())
    }

    fn link(faults: LinkFaults) -> FaultPlan {
        FaultPlan { default_link: faults, ..FaultPlan::seeded(3) }
    }

    fn down(node: usize) -> FaultPlan {
        FaultPlan { crashes: vec![CrashWindow { node, from_ns: 0, until_ns: 5_000 }], ..FaultPlan::seeded(3) }
    }

    const QUIET: Fate = Fate::Arrive { extra_delay_ns: 0, dup: false };
    const TIMEOUT: RequestError = RequestError::Timeout { deadline_ns: 9_000 };

    #[test]
    fn no_plan_delivers_and_draws_nothing() {
        assert_eq!(decide(None, None, &leg_of(Dir::Forward)), (QUIET, vec![]));
        assert_eq!(decide(None, None, &leg_of(Dir::Reply)), (QUIET, vec![]));
    }

    #[test]
    fn a_leg_across_a_view_change_is_fenced_at_its_arrival_epoch() {
        let change = |at_ns| MembershipEvent { node: 2, at_ns, change: ViewChange::Leave { graceful: true } };
        let view = MembershipPlan::scripted(1, vec![change(500), change(1_500)]);
        let (fate, drawn) = decide(Some(&link(LinkFaults::default())), Some(&view), &leg_of(Dir::Forward));
        let err = RequestError::StaleView { epoch: 2, at_ns: 2_000 };
        assert_eq!(fate, Fate::Lost { why: Why::Fence, err, ready_ns: 2_000 });
        assert!(drawn.is_empty(), "a fenced message consumes no stream position");
        // Replies are never fenced: a request served inside an epoch completes.
        assert_eq!(decide(None, Some(&view), &leg_of(Dir::Reply)), (QUIET, vec![]));
        // Departure and arrival in one epoch pass.
        let same = MembershipPlan::scripted(1, vec![change(2_500)]);
        assert_eq!(decide(None, Some(&same), &leg_of(Dir::Forward)), (QUIET, vec![]));
    }

    #[test]
    fn a_dead_destination_is_node_down_at_the_arrival() {
        let (fate, drawn) = decide(Some(&down(1)), None, &leg_of(Dir::Forward));
        let err = RequestError::NodeDown { node: 1, at_ns: 2_000 };
        assert_eq!(fate, Fate::Lost { why: Why::Crash, err, ready_ns: 2_000 });
        assert!(drawn.is_empty(), "a crashed message consumes no stream position");
    }

    #[test]
    fn a_partition_or_a_crashed_sender_is_a_timeout_at_the_deadline() {
        let cut = FaultPlan {
            partitions: vec![PartitionWindow { group: vec![0], from_ns: 0, until_ns: 1_500 }],
            ..FaultPlan::seeded(3)
        };
        for plan in [cut, down(0)] {
            let (fate, drawn) = decide(Some(&plan), None, &leg_of(Dir::Forward));
            assert_eq!(fate, Fate::Lost { why: Why::Crash, err: TIMEOUT, ready_ns: 9_000 });
            assert!(drawn.is_empty());
        }
    }

    #[test]
    fn a_drop_draw_is_a_timeout_at_the_deadline() {
        let plan = link(LinkFaults { drop_ppm: PPM as u32, ..Default::default() });
        let (fate, drawn) = decide(Some(&plan), None, &leg_of(Dir::Forward));
        assert_eq!(fate, Fate::Lost { why: Why::Drop, err: TIMEOUT, ready_ns: 9_000 });
        assert_eq!(drawn, vec![KIND], "the draw took the stream's next position");
    }

    #[test]
    fn delay_and_reorder_add_up_and_dup_is_forward_only() {
        let plan = link(LinkFaults {
            dup_ppm: PPM as u32,
            delay_ppm: PPM as u32,
            delay_ns: 1_000,
            reorder_ppm: PPM as u32,
            reorder_window_ns: 500,
            ..Default::default()
        });
        let (fate, drawn) = decide(Some(&plan), None, &leg_of(Dir::Forward));
        let d = plan.decide(0, 1, KIND, 7);
        assert!(d.dup && d.extra_delay_ns >= 2 && d.extra_delay_ns <= 1_500, "{d:?}");
        assert_eq!(fate, Fate::Arrive { extra_delay_ns: d.extra_delay_ns, dup: true });
        assert_eq!(drawn, vec![KIND]);
        // A reply draws from the kind's reply stream and is never duplicated.
        let (fate, drawn) = decide(Some(&plan), None, &leg_of(Dir::Reply));
        let d = plan.decide(0, 1, KIND | REPLY_STREAM, 7);
        assert_eq!(fate, Fate::Arrive { extra_delay_ns: d.extra_delay_ns, dup: false });
        assert_eq!(drawn, vec![KIND | REPLY_STREAM]);
    }

    #[test]
    fn a_reply_to_a_dead_requester_is_a_timeout_at_the_deadline() {
        // The replier is node 0, the requester node 1, probed at 2 000 ns.
        let (fate, drawn) = decide(Some(&down(1)), None, &leg_of(Dir::Reply));
        assert_eq!(fate, Fate::Lost { why: Why::Crash, err: TIMEOUT, ready_ns: 9_000 });
        assert!(drawn.is_empty());
        let (fate, _) = decide(Some(&down(0)), None, &leg_of(Dir::Reply));
        assert_eq!(fate, Fate::Lost { why: Why::Crash, err: TIMEOUT, ready_ns: 9_000 });
        // Probed after the requester healed, the reply arrives.
        let healed = Leg { arrive_ns: 5_000, ..leg_of(Dir::Reply) };
        assert_eq!(decide(Some(&down(1)), None, &healed), (QUIET, vec![KIND | REPLY_STREAM]));
    }

    #[test]
    fn retry_stops_at_a_fatal_error_or_the_attempt_budget() {
        let policy = RetryPolicy { max_attempts: 3, base_backoff_ns: 100, max_backoff_ns: 1_000 };
        let plan = FaultPlan::seeded(5);
        let stream = (0, 1, KIND);
        let drawn = Cell::new(0u32);
        let position = |kind| {
            assert_eq!(kind, KIND | RETRY_STREAM);
            drawn.set(drawn.get() + 1);
            u64::from(drawn.get())
        };
        let fatal = RequestError::HandlerFailed { kind: KIND, reason: "bug".into() };
        assert_eq!(retry(&policy, Some(&plan), stream, 1, &fatal, position), None);
        assert_eq!(retry(&policy, Some(&plan), stream, 3, &TIMEOUT, position), None, "budget spent");
        assert_eq!(drawn.get(), 0, "a stop draws no jitter");
        let first = retry(&policy, Some(&plan), stream, 1, &TIMEOUT, position).unwrap();
        let second = retry(&policy, Some(&plan), stream, 2, &TIMEOUT, position).unwrap();
        assert!((100..=150).contains(&first) && (200..=250).contains(&second), "{first} {second}");
        assert_eq!(drawn.get(), 2, "one retry-stream position per retry");
        // Without a plan the jitter comes from the failure count alone.
        let unplanned = |failures| retry(&policy, None, stream, failures, &TIMEOUT, |_| unreachable!());
        let salt = mix(stream_key(0, 1, u64::from(KIND) << 1) ^ 2);
        assert_eq!(unplanned(2), Some(policy.backoff_ns(2, salt)));
    }

    #[test]
    fn the_dedup_window_forgets_its_oldest_ids() {
        let mut window = DedupWindow::default();
        for id in 1..=DEDUP_WINDOW as u64 + 1 {
            window.insert(id);
        }
        window.insert(2);
        assert!(!window.contains(1) && window.contains(2) && window.contains(DEDUP_WINDOW as u64 + 1));
    }
}
