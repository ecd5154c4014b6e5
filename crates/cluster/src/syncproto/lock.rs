//! Distributed lock management: the central lock manager.
//!
//! Locks are distributed across manager nodes (`lock % nodes`, unless
//! placed elsewhere). The manager ([`LockMgr::acquire_mode`]/
//! [`LockMgr::release`]) serializes ownership in the requested mode,
//! floors every grant at the virtual time the lock became free, so
//! critical sections never overlap in virtual time, and answers a
//! retried request idempotently. Where notices ride the locks, it
//! stores the write notices published by each release so it can hand
//! them to the next acquirer (the "lock grant carries notices" edge of
//! Scope Consistency). Every handover costs a round through the
//! manager, and the manager's notice store grows with every release.
//!
//! The notice store is cleared when a barrier makes everything globally
//! visible.
//!
//! Everything here is generic over the [`Piggyback`] a platform rides on
//! its synchronisation messages: with `()` the notice lists stay empty
//! and the machine is the ordering-only lock protocol of the
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

/// All locks managed by one node.
#[derive(Clone, Debug)]
pub struct LockMgr<W: Piggyback> {
    locks: HashMap<u32, LockState<W::Pub>>,
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
        Self { locks: HashMap::new() }
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

    /// A barrier made all writes globally visible: drop the notice
    /// history of every lock managed here.
    pub fn clear_notices(&mut self) {
        for st in self.locks.values_mut() {
            st.notices.clear();
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
