//! Distributed lock management: the centralized manager and the
//! MCS-style token queue.
//!
//! Locks are distributed across manager nodes (`lock % nodes`). In the
//! centralized scheme ([`LockMgr::acquire_mode`]/[`LockMgr::release`])
//! the manager serializes ownership and, where notices ride the locks,
//! stores the write notices published by each release so it can hand
//! them to the next acquirer (the "lock grant carries notices" edge of
//! Scope Consistency). Every handover costs a round through the
//! manager, and the manager's notice store grows with every release —
//! both scale with contention, not with the queue.
//!
//! The token queue (`LockTopology::TokenQueue`, the `tok_*` methods)
//! keeps the manager only as a *queue tail registrar*, MCS-style: the
//! first acquirer gets a freshly created token; each later acquirer is
//! linked behind the current tail by a single successor notification to
//! that tail ([`TokMgrStep::SetSucc`]); releases then pass the token —
//! notices riding on it — *directly* to the known successor, one
//! message, no manager round. A holder that releases with no successor
//! known returns the token to the manager, which parks it for the next
//! acquirer. Per-tenure sequence numbers pair each successor
//! notification with the tenure it targets, so notifications that cross
//! releases (or arrive after the holder re-acquired) resolve via a
//! claim ([`LockMgr::tok_set_succ`]) instead of corrupting a newer tenure.
//! The token is in exactly one message at a time and nothing can
//! re-issue it, so the queue is for fabrics that lose nothing: on a
//! resilient fabric the driver serves every lock from the centralized
//! manager, whose answers to a retried request are idempotent. Nor does
//! the queue know virtual time: a token the manager passes on from its
//! parking spot leaves at the acquire request's time, which can precede
//! the return that parked it, so two critical sections can overlap in
//! virtual time (never in host time — there is one token). The central
//! manager's grants carry a causal floor instead.
//!
//! Notice history (manager store, parked tokens, held tokens) is
//! cleared when a barrier makes everything globally visible.
//!
//! Everything here is generic over the [`Piggyback`] a platform rides on
//! its synchronisation messages: with `()` the notice lists stay empty
//! and the machines are the ordering-only lock protocol of the
//! hardware-coherent platforms.

use super::{publish, Notices, Piggyback};
use std::collections::{HashMap, VecDeque};

/// Lock acquisition mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Many concurrent holders (readers).
    Shared,
    /// One holder (writers; also plain mutexes).
    Excl,
}

/// State of one lock at its manager.
#[derive(Clone, Debug, Default)]
pub struct LockState<P> {
    /// Current holders (one if exclusive, any number if shared).
    pub holders: Vec<usize>,
    /// Whether the current holders hold exclusively.
    pub excl: bool,
    /// Waiters with their requested mode and virtual arrival time.
    /// Grants go to the earliest *virtual* arrival, which keeps lock
    /// handover independent of the real-time order in which the
    /// manager's daemon happened to process requests.
    pub queue: VecDeque<(usize, Mode, u64)>,
    /// Notices accumulated from releases under this lock, per writer.
    pub notices: Vec<(usize, P)>,
    /// Virtual time the last *exclusive* hold ended (causal floor for
    /// shared grants: readers may overlap each other but never a
    /// writer).
    pub free_excl_ns: u64,
    /// Virtual time the lock last became free of any holder (causal
    /// floor for exclusive grants).
    pub free_any_ns: u64,
    /// Holders whose grant was *posted* to them at a handover rather
    /// than carried by a reply (see [`LockMgr::acquire_mode`]).
    pub posted: Vec<usize>,
}

/// Manager-side state of one lock's token queue.
#[derive(Clone, Debug, Default)]
struct TokenLock<P> {
    /// The last acquirer the manager linked into the queue, with the
    /// tenure sequence number it acquired under.
    tail: Option<(usize, u64)>,
    /// The token's notices while it rests at the manager (returned by a
    /// holder with no successor, or crossing a successor notification
    /// and reserved for the coming claim).
    parked: Option<Vec<(usize, P)>>,
    /// A claimed successor whose token return is still in flight to the
    /// manager; the return is forwarded to it on arrival.
    pending: Option<usize>,
    /// The token exists (created on first acquire).
    created: bool,
}

/// Holder-side phase of one lock's token tenure.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
enum TokenHold {
    /// No tenure in progress.
    #[default]
    Idle,
    /// Acquire sent; waiting for the token to arrive.
    Expecting,
    /// Holding the token (inside the critical section).
    Holding,
    /// Tenure ended with the token returned to the manager; a late
    /// successor notification for it turns into a claim.
    AwaitSucc,
}

/// Holder-side state of one lock's token queue at this node.
#[derive(Clone, Debug, Default)]
struct TokenSlot<P> {
    /// This node's tenure counter for the lock (bumped per acquire).
    seq: u64,
    state: TokenHold,
    /// The successor named for the current tenure, if any.
    succ: Option<usize>,
    /// The token's accumulated notices while held here.
    token: Vec<(usize, P)>,
}

/// What the manager sends after a token-queue event.
#[derive(Debug, PartialEq, Eq)]
pub enum TokMgrStep<P> {
    /// Pass the token (with its notices) to `to`.
    Pass {
        /// The next holder.
        to: usize,
        /// The token's accumulated notices.
        notices: Vec<(usize, P)>,
    },
    /// Tell `prev` — for its tenure `for_seq` — that `succ` follows it.
    SetSucc {
        /// The previous queue tail.
        prev: usize,
        /// The tenure of `prev` the notification targets.
        for_seq: u64,
        /// The newly enqueued successor.
        succ: usize,
    },
}

/// What a holder does with the token at a release.
#[derive(Debug, PartialEq, Eq)]
pub enum TokHolderStep<P> {
    /// Pass the token directly to the known successor.
    Forward {
        /// The successor.
        to: usize,
        /// The token's accumulated notices.
        notices: Vec<(usize, P)>,
    },
    /// No successor known: return the token to the manager.
    Return {
        /// The ending tenure's sequence number.
        seq: u64,
        /// The token's accumulated notices.
        notices: Vec<(usize, P)>,
    },
}

/// All locks managed by one node: centralized state, plus the
/// token-queue manager state (for locks managed here) and holder state
/// (for locks this node acquires).
#[derive(Clone, Debug)]
pub struct LockMgr<W: Piggyback> {
    locks: HashMap<u32, LockState<W::Pub>>,
    tokens: HashMap<u32, TokenLock<W::Pub>>,
    slots: HashMap<u32, TokenSlot<W::Pub>>,
}

/// Outcome of an acquire attempt at the manager.
#[derive(Debug, PartialEq, Eq)]
pub enum Acquire<P> {
    /// Granted immediately; attached notices must be applied by the
    /// acquirer before entering the critical section, and the grant is
    /// not effective before the given virtual instant.
    Granted(Vec<(usize, P)>, u64),
    /// Enqueued; a grant will be posted on release.
    Queued,
}

impl<W: Piggyback> Default for LockMgr<W> {
    fn default() -> Self {
        Self {
            locks: HashMap::new(),
            tokens: HashMap::new(),
            slots: HashMap::new(),
        }
    }
}

impl<W: Piggyback> LockMgr<W> {
    /// An empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Node `who` asks for `lock` in `mode`, arriving at virtual time
    /// `arrive_ns`. Shared requests join the current holders only while
    /// no writer is queued (writer-preference keeps writers from
    /// starving under a reader stream).
    ///
    /// `lost_grant` is the requester's report that it consumed the loss
    /// tombstone of a grant posted to it. While `who` holds the lock by
    /// a handover, that grant exists as exactly one item in the holder's
    /// mailbox pipeline — the posted grant, or its tombstone — and that
    /// item is the holder's to consume. A retried request (one whose
    /// `Queued` reply was lost) must therefore not be re-granted by
    /// reply: the holder would proceed on the reply, leave the posted
    /// grant behind, and take it for a grant the next time it queues.
    /// Such a retry is answered `Queued` until it reports the tombstone.
    pub fn acquire_mode(
        &mut self,
        lock: u32,
        who: usize,
        mode: Mode,
        arrive_ns: u64,
        lost_grant: bool,
    ) -> Acquire<W::Pub> {
        let st = self.locks.entry(lock).or_default();
        if !lost_grant && st.posted.contains(&who) {
            return Acquire::Queued;
        }
        if st.holders.contains(&who) {
            // Retried request from the current holder (the grant reply
            // was lost): re-issue the grant with the same causal floor.
            let floor = if st.excl { st.free_any_ns } else { st.free_excl_ns };
            return Acquire::Granted(st.notices.clone(), floor);
        }
        if st.queue.iter().any(|(n, _, _)| *n == who) {
            // Retried request from a node already queued (the Queued
            // reply was lost): keep the original queue entry.
            return Acquire::Queued;
        }
        let grantable = match mode {
            Mode::Excl => st.holders.is_empty(),
            Mode::Shared => {
                st.holders.is_empty() || (!st.excl && st.queue.is_empty())
            }
        };
        if grantable {
            let floor = match mode {
                Mode::Excl => st.free_any_ns,
                Mode::Shared => st.free_excl_ns,
            };
            st.holders.push(who);
            st.excl = mode == Mode::Excl;
            Acquire::Granted(st.notices.clone(), floor)
        } else {
            st.queue.push_back((who, mode, arrive_ns));
            Acquire::Queued
        }
    }

    /// Node `who` releases `lock`, publishing `interval`. Returns the
    /// holders to grant next (one writer, or a batch of readers), each
    /// with the notices they must apply.
    pub fn release(
        &mut self,
        lock: u32,
        who: usize,
        interval: W::Pub,
        now_ns: u64,
    ) -> Vec<(usize, Notices<W>)> {
        // A release whose first copy was already processed (the ack was
        // lost, the releaser retried) finds nothing to do: the lock may
        // even have been handed to the next waiter meanwhile. Idempotent
        // no-op, never a panic.
        let Some(st) = self.locks.get_mut(&lock) else {
            return Vec::new();
        };
        let Some(pos) = st.holders.iter().position(|&h| h == who) else {
            return Vec::new();
        };
        let was_excl = st.excl;
        st.holders.swap_remove(pos);
        st.posted.retain(|&h| h != who);
        if st.holders.is_empty() {
            st.free_any_ns = st.free_any_ns.max(now_ns);
            if was_excl {
                st.free_excl_ns = st.free_excl_ns.max(now_ns);
            }
        }
        publish::<W>(&mut st.notices, who, interval);
        if !st.holders.is_empty() {
            return Vec::new(); // other readers still inside
        }
        let mut grants = Vec::new();
        // Grant the earliest virtual arrival.
        let Some(first) = st
            .queue
            .iter()
            .enumerate()
            .min_by_key(|(_, (_, _, t))| *t)
            .map(|(i, _)| i)
        else {
            return grants;
        };
        let (next, mode, _) = st.queue.remove(first).unwrap();
        st.holders.push(next);
        st.excl = mode == Mode::Excl;
        grants.push((next, st.notices.clone()));
        if mode == Mode::Shared {
            // Release every queued reader that arrived before the
            // earliest queued writer (writer preference beyond that).
            let writer_cutoff = st
                .queue
                .iter()
                .filter(|(_, m, _)| *m == Mode::Excl)
                .map(|(_, _, t)| *t)
                .min()
                .unwrap_or(u64::MAX);
            let mut i = 0;
            while i < st.queue.len() {
                let (_, m, t) = st.queue[i];
                if m == Mode::Shared && t <= writer_cutoff {
                    let (r, _, _) = st.queue.remove(i).unwrap();
                    st.holders.push(r);
                    grants.push((r, st.notices.clone()));
                } else {
                    i += 1;
                }
            }
        }
        st.posted.extend(grants.iter().map(|(n, _)| *n));
        grants
    }

    /// A barrier made all writes globally visible: drop notice history —
    /// the centralized store, parked tokens, and tokens held here. (A
    /// token returned to a manager concurrently with the barrier may
    /// re-park pre-barrier notices after the clear; applying them again
    /// merely re-invalidates up-to-date pages, which is conservative
    /// and deterministic.)
    pub fn clear_notices(&mut self) {
        for st in self.locks.values_mut() {
            st.notices.clear();
        }
        for tok in self.tokens.values_mut() {
            if let Some(parked) = &mut tok.parked {
                parked.clear();
            }
        }
        for slot in self.slots.values_mut() {
            slot.token.clear();
        }
    }

    // ---- token queue (`LockTopology::TokenQueue`) ----
    //
    // Manager side (`tok_acquire` / `tok_return` / `tok_claim`) runs at
    // `lock % nodes`; holder side (`tok_begin_acquire` /
    // `tok_pass_received` / `tok_release` / `tok_set_succ`) runs at
    // every node. See the module docs for the protocol.

    /// Manager: node `who` (tenure `seq`) asks for `lock`'s token.
    pub fn tok_acquire(&mut self, lock: u32, who: usize, seq: u64) -> TokMgrStep<W::Pub> {
        let tok = self.tokens.entry(lock).or_default();
        if !tok.created {
            tok.created = true;
            tok.tail = Some((who, seq));
            return TokMgrStep::Pass { to: who, notices: Vec::new() };
        }
        if tok.tail.is_none() {
            // The token rests here with nobody queued behind its last
            // holder: hand it over directly.
            let notices = tok.parked.take().expect("tokenless tail-less lock");
            tok.tail = Some((who, seq));
            return TokMgrStep::Pass { to: who, notices };
        }
        let (prev, for_seq) = tok.tail.replace((who, seq)).unwrap();
        TokMgrStep::SetSucc { prev, for_seq, succ: who }
    }

    /// Manager: holder `from` (tenure `seq`) returned the token with no
    /// successor known. Passes it to a pending claimant — the returned
    /// `(next holder, token notices)` — or parks it.
    pub fn tok_return(
        &mut self,
        lock: u32,
        from: usize,
        seq: u64,
        notices: Notices<W>,
    ) -> Option<(usize, Notices<W>)> {
        let tok = self.tokens.get_mut(&lock).expect("return for unknown token");
        if let Some(succ) = tok.pending.take() {
            return Some((succ, notices));
        }
        assert!(tok.parked.is_none(), "token returned while already parked");
        if tok.tail == Some((from, seq)) {
            // The returner is still the queue tail: nobody is waiting.
            tok.tail = None;
        }
        // Otherwise a successor notification crossed this return; keep
        // the token parked until the returner's claim routes it.
        tok.parked = Some(notices);
        None
    }

    /// Manager: a holder whose tenure already ended routes the token to
    /// the successor it was just told about: the pass `(succ, token
    /// notices)` if the token rests here, nothing while its return is
    /// still in flight.
    pub fn tok_claim(&mut self, lock: u32, succ: usize) -> Option<(usize, Notices<W>)> {
        let tok = self.tokens.get_mut(&lock).expect("claim for unknown token");
        if let Some(notices) = tok.parked.take() {
            return Some((succ, notices));
        }
        // The return is still in flight; forward on arrival.
        assert!(tok.pending.is_none(), "two claims pending for one token");
        tok.pending = Some(succ);
        None
    }

    /// Holder: start acquiring `lock`'s token. Returns the new tenure
    /// sequence number to send with the manager enqueue.
    pub fn tok_begin_acquire(&mut self, lock: u32) -> u64 {
        let slot = self.slots.entry(lock).or_default();
        assert!(
            matches!(slot.state, TokenHold::Idle | TokenHold::AwaitSucc),
            "token acquire while {:?}",
            slot.state
        );
        slot.seq += 1;
        slot.state = TokenHold::Expecting;
        slot.succ = None;
        slot.seq
    }

    /// Holder: the token arrived. Returns the notices to hand to the
    /// waiting application (the token keeps carrying them onward).
    pub fn tok_pass_received(&mut self, lock: u32, notices: Notices<W>) -> Notices<W> {
        let slot = self.slots.get_mut(&lock).expect("token pass without acquire");
        assert_eq!(slot.state, TokenHold::Expecting, "unexpected token pass");
        slot.state = TokenHold::Holding;
        slot.token = notices.clone();
        notices
    }

    /// Holder: node `who` releases `lock`, merging `interval` into the
    /// token, and forwards it to the known successor or returns it to
    /// the manager.
    pub fn tok_release(
        &mut self,
        lock: u32,
        who: usize,
        interval: W::Pub,
    ) -> TokHolderStep<W::Pub> {
        let slot = self.slots.get_mut(&lock).expect("token release without hold");
        assert_eq!(slot.state, TokenHold::Holding, "token release while not holding");
        publish::<W>(&mut slot.token, who, interval);
        let notices = std::mem::take(&mut slot.token);
        if let Some(to) = slot.succ.take() {
            slot.state = TokenHold::Idle;
            TokHolderStep::Forward { to, notices }
        } else {
            slot.state = TokenHold::AwaitSucc;
            TokHolderStep::Return { seq: slot.seq, notices }
        }
    }

    /// Holder: the manager named `succ` the successor of this node's
    /// tenure `for_seq`. Stores it for the live tenure, or — when that
    /// tenure already ended — returns the successor to claim the token
    /// for: the manager must route the (parked or in-flight returned)
    /// token onward to it.
    pub fn tok_set_succ(&mut self, lock: u32, succ: usize, for_seq: u64) -> Option<usize> {
        let slot = self.slots.get_mut(&lock).expect("successor for unknown slot");
        if for_seq < slot.seq {
            // A notification for an earlier tenure, arriving after this
            // node moved on (possibly mid-reacquire): the old token went
            // back to the manager, so route it from there. The current
            // tenure is untouched.
            return Some(succ);
        }
        assert_eq!(for_seq, slot.seq, "successor notification for a future tenure");
        match slot.state {
            TokenHold::Holding | TokenHold::Expecting => {
                assert!(slot.succ.is_none(), "second successor for one tenure");
                slot.succ = Some(succ);
                None
            }
            TokenHold::AwaitSucc => {
                slot.state = TokenHold::Idle;
                Some(succ)
            }
            TokenHold::Idle => panic!("successor notification for a forwarded tenure"),
        }
    }

    /// Introspection for tests: the state of `lock`.
    ///
    /// Note: grants at release time follow *virtual* arrival order, not
    /// queue insertion order (see [`LockState::queue`]).
    pub fn state(&self, lock: u32) -> Option<&LockState<W::Pub>> {
        self.locks.get(&lock)
    }
}

#[cfg(test)]
mod rw_tests {
    use super::super::testpayload::{iv, Pages, Wave};
    use super::*;

    #[test]
    fn readers_share_writers_exclude() {
        let mut m = LockMgr::<Wave>::new();
        assert!(matches!(m.acquire_mode(1, 0, Mode::Shared, 10, false), Acquire::Granted(..)));
        assert!(matches!(m.acquire_mode(1, 1, Mode::Shared, 20, false), Acquire::Granted(..)));
        assert_eq!(m.acquire_mode(1, 2, Mode::Excl, 30, false), Acquire::Queued);
        // A reader arriving after a queued writer must wait (writer
        // preference).
        assert_eq!(m.acquire_mode(1, 3, Mode::Shared, 40, false), Acquire::Queued);
        assert!(m.release(1, 0, Pages::default(), 50).is_empty());
        let grants = m.release(1, 1, Pages::default(), 60);
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].0, 2); // the writer goes first
        let grants = m.release(1, 2, Pages::default(), 70);
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].0, 3);
    }

    #[test]
    fn reader_batch_released_together() {
        let mut m = LockMgr::<Wave>::new();
        m.acquire_mode(1, 0, Mode::Excl, 5, false);
        assert_eq!(m.acquire_mode(1, 1, Mode::Shared, 10, false), Acquire::Queued);
        assert_eq!(m.acquire_mode(1, 2, Mode::Shared, 15, false), Acquire::Queued);
        let grants = m.release(1, 0, Pages::default(), 20);
        let granted: Vec<usize> = grants.iter().map(|(n, _)| *n).collect();
        assert_eq!(granted, vec![1, 2]);
    }

    #[test]
    fn writer_notices_reach_readers() {
        let mut m = LockMgr::<Wave>::new();
        m.acquire_mode(1, 0, Mode::Excl, 1, false);
        let iv = iv(&[4]);
        assert!(m.release(1, 0, iv.clone(), 2).is_empty());
        match m.acquire_mode(1, 1, Mode::Shared, 3, false) {
            Acquire::Granted(n, floor) => {
                assert_eq!(n, vec![(0, iv)]);
                // The previous hold was exclusive, so even a shared
                // grant is floored by its release.
                assert_eq!(floor, 2);
            }
            Acquire::Queued => panic!("lock should be free"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testpayload::{iv, Pages, Wave};
    use super::*;

    /// Node `who` asks for `lock` exclusively.
    fn acquire(m: &mut LockMgr<Wave>, lock: u32, who: usize) -> Acquire<Pages> {
        m.acquire_mode(lock, who, Mode::Excl, 0, false)
    }

    #[test]
    fn free_lock_granted_immediately() {
        let mut m = LockMgr::<Wave>::new();
        assert_eq!(acquire(&mut m, 1, 0), Acquire::Granted(vec![], 0));
    }

    #[test]
    fn held_lock_queues() {
        let mut m = LockMgr::<Wave>::new();
        acquire(&mut m, 1, 0);
        assert_eq!(acquire(&mut m, 1, 1), Acquire::Queued);
        assert_eq!(acquire(&mut m, 1, 2), Acquire::Queued);
        // Release hands over in FIFO order with notices attached.
        let grants = m.release(1, 0, iv(&[4]), 100);
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].0, 1);
        assert_eq!(grants[0].1, vec![(0, iv(&[4]))]);
        let grants = m.release(1, 1, Pages::default(), 200);
        assert_eq!(grants[0].0, 2);
        assert!(m.release(1, 2, Pages::default(), 300).is_empty());
        assert!(m.state(1).unwrap().holders.is_empty());
        // A later immediate exclusive grant carries the causal floor.
        assert_eq!(acquire(&mut m, 1, 3), Acquire::Granted(vec![(0, iv(&[4]))], 300));
    }

    #[test]
    fn notices_accumulate_across_critical_sections() {
        let mut m = LockMgr::<Wave>::new();
        acquire(&mut m, 7, 0);
        m.release(7, 0, iv(&[1]), 1);
        acquire(&mut m, 7, 1);
        m.release(7, 1, iv(&[2]), 2);
        match acquire(&mut m, 7, 2) {
            Acquire::Granted(n, _) => {
                assert_eq!(n.len(), 2);
                assert_eq!(n[0], (0, iv(&[1])));
                assert_eq!(n[1], (1, iv(&[2])));
            }
            Acquire::Queued => panic!("lock should be free"),
        }
    }

    #[test]
    fn same_writer_notices_merge() {
        let mut m = LockMgr::<Wave>::new();
        acquire(&mut m, 7, 0);
        m.release(7, 0, iv(&[1]), 1);
        acquire(&mut m, 7, 0);
        m.release(7, 0, iv(&[3]), 2);
        match acquire(&mut m, 7, 1) {
            Acquire::Granted(n, _) => assert_eq!(n, vec![(0, iv(&[1, 3]))]),
            Acquire::Queued => panic!(),
        }
    }

    #[test]
    fn barrier_clears_notices() {
        let mut m = LockMgr::<Wave>::new();
        acquire(&mut m, 7, 0);
        m.release(7, 0, iv(&[1]), 9);
        m.clear_notices();
        assert_eq!(acquire(&mut m, 7, 1), Acquire::Granted(vec![], 9));
    }

    #[test]
    fn foreign_release_is_a_noop() {
        let mut m = LockMgr::<Wave>::new();
        acquire(&mut m, 1, 0);
        // A retried release whose first copy was already applied (or a
        // release racing a handover) must not disturb the current holder.
        assert!(m.release(1, 3, Pages::default(), 0).is_empty());
        assert_eq!(m.state(1).unwrap().holders, vec![0]);
        assert!(m.release(9, 0, Pages::default(), 0).is_empty());
    }

    #[test]
    fn duplicate_acquire_regrants_without_double_hold() {
        let mut m = LockMgr::<Wave>::new();
        acquire(&mut m, 7, 0);
        m.release(7, 0, iv(&[2]), 50);
        assert_eq!(acquire(&mut m, 1, 0), Acquire::Granted(vec![], 0));
        // The grant reply was lost; the retried request re-grants with
        // the same notices and floor, without a second holder entry.
        assert_eq!(acquire(&mut m, 1, 0), Acquire::Granted(vec![], 0));
        assert_eq!(m.state(1).unwrap().holders, vec![0]);
        // A queued requester retrying stays queued exactly once.
        assert_eq!(acquire(&mut m, 1, 1), Acquire::Queued);
        assert_eq!(acquire(&mut m, 1, 1), Acquire::Queued);
        assert_eq!(m.state(1).unwrap().queue.len(), 1);
    }

    #[test]
    fn only_handover_grants_answer_retries_queued() {
        // Node 0 is granted by reply: its retry is re-granted by reply.
        // Readers 1 and 2 are handed over together, by post.
        let mut mgr = LockMgr::<Wave>::new();
        mgr.acquire_mode(6, 0, Mode::Excl, 0, false);
        mgr.acquire_mode(6, 1, Mode::Shared, 10, false);
        mgr.acquire_mode(6, 2, Mode::Shared, 20, false);
        assert!(matches!(mgr.acquire_mode(6, 0, Mode::Excl, 25, false), Acquire::Granted(..)));
        assert_eq!(mgr.release(6, 0, Pages::default(), 30).len(), 2);
        // A posted grant is the holder's to consume: its retry stays
        // queued until it reports the tombstone.
        for reader in [1, 2] {
            assert_eq!(mgr.acquire_mode(6, reader, Mode::Shared, 35, false), Acquire::Queued);
            assert!(matches!(
                mgr.acquire_mode(6, reader, Mode::Shared, 36, true),
                Acquire::Granted(..)
            ));
        }
        mgr.release(6, 1, Pages::default(), 40);
        // Node 1's hold ended (a new request joins reader 2 afresh);
        // node 2 still holds by post.
        assert!(matches!(mgr.acquire_mode(6, 1, Mode::Shared, 45, false), Acquire::Granted(..)));
        assert_eq!(mgr.acquire_mode(6, 2, Mode::Shared, 50, false), Acquire::Queued);
    }
}

#[cfg(test)]
mod token_tests {
    use super::super::testpayload::{iv, Wave};
    use super::*;

    #[test]
    fn first_acquire_creates_and_passes() {
        let mut mgr = LockMgr::<Wave>::new();
        let mut a = LockMgr::<Wave>::new();
        let seq = a.tok_begin_acquire(5);
        assert_eq!(seq, 1);
        assert_eq!(mgr.tok_acquire(5, 0, seq), TokMgrStep::Pass { to: 0, notices: vec![] });
        assert_eq!(a.tok_pass_received(5, vec![]), vec![]);
    }

    #[test]
    fn chain_forwards_directly_with_merged_notices() {
        let mut mgr = LockMgr::<Wave>::new();
        let mut a = LockMgr::<Wave>::new();
        let mut b = LockMgr::<Wave>::new();
        let sa = a.tok_begin_acquire(5);
        mgr.tok_acquire(5, 0, sa);
        a.tok_pass_received(5, vec![]);
        // B queues behind A: one successor notification, no token move.
        let sb = b.tok_begin_acquire(5);
        assert_eq!(
            mgr.tok_acquire(5, 1, sb),
            TokMgrStep::SetSucc { prev: 0, for_seq: sa, succ: 1 }
        );
        assert_eq!(a.tok_set_succ(5, 1, sa), None);
        // A releases: the token (now carrying A's notices) goes straight
        // to B — no manager round.
        match a.tok_release(5, 0, iv(&[3])) {
            TokHolderStep::Forward { to, notices } => {
                assert_eq!(to, 1);
                assert_eq!(notices, vec![(0, iv(&[3]))]);
                assert_eq!(b.tok_pass_received(5, notices), vec![(0, iv(&[3]))]);
            }
            other => panic!("expected forward, got {other:?}"),
        }
        // B releases with no successor: back to the manager, notices
        // merged per writer.
        match b.tok_release(5, 1, iv(&[8])) {
            TokHolderStep::Return { seq, notices } => {
                assert_eq!(seq, sb);
                assert_eq!(notices, vec![(0, iv(&[3])), (1, iv(&[8]))]);
                assert_eq!(mgr.tok_return(5, 1, seq, notices), None);
            }
            other => panic!("expected return, got {other:?}"),
        }
        // The parked token serves the next acquirer immediately.
        let sa2 = a.tok_begin_acquire(5);
        match mgr.tok_acquire(5, 0, sa2) {
            TokMgrStep::Pass { to: 0, notices } => {
                assert_eq!(notices, vec![(0, iv(&[3])), (1, iv(&[8]))]);
            }
            other => panic!("expected pass, got {other:?}"),
        }
    }

    #[test]
    fn crossed_return_resolves_via_claim() {
        let mut mgr = LockMgr::<Wave>::new();
        let mut a = LockMgr::<Wave>::new();
        let sa = a.tok_begin_acquire(5);
        mgr.tok_acquire(5, 0, sa);
        a.tok_pass_received(5, vec![]);
        // A releases (return in flight) while B's enqueue reaches the
        // manager first: the successor notification targets A's ended
        // tenure.
        let step = a.tok_release(5, 0, iv(&[1]));
        let TokHolderStep::Return { seq, notices } = step else { panic!() };
        assert_eq!(mgr.tok_acquire(5, 1, 1), TokMgrStep::SetSucc { prev: 0, for_seq: sa, succ: 1 });
        // Return arrives: the tail moved on, so the token parks reserved.
        assert_eq!(mgr.tok_return(5, 0, seq, notices), None);
        // A's late notification turns into a claim that routes it to B.
        assert_eq!(a.tok_set_succ(5, 1, sa), Some(1));
        assert_eq!(mgr.tok_claim(5, 1), Some((1, vec![(0, iv(&[1]))])));
    }

    #[test]
    fn claim_before_return_pends_until_arrival() {
        let mut mgr = LockMgr::<Wave>::new();
        let mut a = LockMgr::<Wave>::new();
        let sa = a.tok_begin_acquire(5);
        mgr.tok_acquire(5, 0, sa);
        a.tok_pass_received(5, vec![]);
        let TokHolderStep::Return { seq, notices } = a.tok_release(5, 0, iv(&[1])) else {
            panic!()
        };
        mgr.tok_acquire(5, 1, 1);
        // The claim beats the (slower) token return to the manager.
        assert_eq!(a.tok_set_succ(5, 1, sa), Some(1));
        assert_eq!(mgr.tok_claim(5, 1), None);
        assert_eq!(mgr.tok_return(5, 0, seq, notices), Some((1, vec![(0, iv(&[1]))])));
    }

    #[test]
    fn stale_notification_after_reacquire_claims_without_corruption() {
        let mut mgr = LockMgr::<Wave>::new();
        let mut a = LockMgr::<Wave>::new();
        let sa = a.tok_begin_acquire(5);
        mgr.tok_acquire(5, 0, sa);
        a.tok_pass_received(5, vec![]);
        let TokHolderStep::Return { seq, notices } = a.tok_release(5, 0, iv(&[1])) else {
            panic!()
        };
        mgr.tok_return(5, 0, seq, notices);
        // A re-acquires; only then does a notification for the *old*
        // tenure arrive. It must claim, not become the new successor.
        let sa2 = a.tok_begin_acquire(5);
        assert!(sa2 > sa);
        assert_eq!(a.tok_set_succ(5, 1, sa), Some(1));
        // The new tenure proceeds untouched.
        a.tok_pass_received(5, vec![]);
        assert!(matches!(a.tok_release(5, 0, iv(&[])), TokHolderStep::Return { .. }));
    }

    #[test]
    fn barrier_clears_token_notices() {
        let mut mgr = LockMgr::<Wave>::new();
        let mut a = LockMgr::<Wave>::new();
        let sa = a.tok_begin_acquire(5);
        mgr.tok_acquire(5, 0, sa);
        a.tok_pass_received(5, vec![]);
        let TokHolderStep::Return { seq, notices } = a.tok_release(5, 0, iv(&[1])) else {
            panic!()
        };
        mgr.tok_return(5, 0, seq, notices);
        mgr.clear_notices();
        let sa2 = a.tok_begin_acquire(5);
        assert_eq!(mgr.tok_acquire(5, 0, sa2), TokMgrStep::Pass { to: 0, notices: vec![] });
    }
}
