//! The synchronisation protocols, as pure state machines.
//!
//! HAMSTER's claim is one synchronisation module under every platform.
//! This module is that one copy: the reader/writer lock manager and the
//! token queue ([`lock`]), the central barrier manager, the tree shape
//! and the tree barrier ([`barrier`]). The software DSM, the
//! hybrid DSM and the SMP platform all drive these machines; what
//! differs between them is only what rides the messages — write notices
//! on the software DSM, nothing on hardware-coherent memory — and that
//! is the [`Piggyback`] parameter.
//!
//! The machines ([`lock`], [`barrier`]) know nothing about a fabric, a
//! clock, a mailbox or a mutex: inputs are `(virtual time, source,
//! message)`, outputs are steps that name what to send. They
//! unit-test, and are enumerated exhaustively in `tests/syncproto.rs`,
//! without a `Network`. The one fabric driver of them all is
//! [`driver`]: it registers the handlers, drives the requester's half,
//! and takes what differs between platforms — message kinds, wire
//! sizes, trace module, the software DSM's counters and side effects —
//! as a compile-time [`driver::Platform`]. How a lock release, a
//! barrier arrival or a tree aggregate survives a lossy fabric is
//! decided by the fabric's rendezvous vocabulary
//! (`interconnect::message`), so the driver never asks which fabric it
//! is on.

pub mod barrier;
pub mod driver;
pub mod lock;

use std::fmt::Debug;

/// What rides a platform's synchronisation messages, named by its wave
/// type: `()` where memory is physically shared (ordering only), the
/// software DSM's notice set where a release must also say which pages
/// were written. The machines move payloads around and never look
/// inside, so a payload cannot steer control flow.
pub trait Piggyback: Clone + Debug + PartialEq {
    /// One writer's publication: what a lock release or a barrier
    /// arrival announces. The default announces nothing.
    type Pub: Clone + Debug + PartialEq + Default;

    /// True if the publication announces nothing.
    fn is_empty(publication: &Self::Pub) -> bool;

    /// Fold a later publication of the same writer into an earlier one.
    fn merge(into: &mut Self::Pub, later: &Self::Pub);

    /// Encode per-writer publications as a release wave. `digest_runs`
    /// is the run cutoff when waves travel as digests, `None` when they
    /// stay explicit.
    fn encode(entries: Vec<(usize, Self::Pub)>, digest_runs: Option<usize>) -> Self;

    /// Append `other`'s entries to this wave.
    fn extend(&mut self, other: Self);
}

/// The ordering-only payload of the hardware-coherent platforms.
impl Piggyback for () {
    type Pub = ();

    fn is_empty(_: &()) -> bool {
        true
    }

    fn merge(_: &mut (), _: &()) {}

    fn encode(_: Vec<(usize, ())>, _: Option<usize>) {}

    fn extend(&mut self, _: ()) {}
}

/// Per-writer publications, in the order they were first published.
pub type Notices<W> = Vec<(usize, <W as Piggyback>::Pub)>;

/// Fold `who`'s publication into `notices`, one entry per writer.
fn publish<W: Piggyback>(notices: &mut Notices<W>, who: usize, publication: W::Pub) {
    if W::is_empty(&publication) {
        return;
    }
    match notices.iter_mut().find(|(n, _)| *n == who) {
        Some((_, mine)) => W::merge(mine, &publication),
        None => notices.push((who, publication)),
    }
}

/// Trace correlation id of a lock grant or release: packs
/// `(node + 1) << 32 | (lock + 1)`, the same on every platform, so the
/// analyzer chains release → next grant into per-lock handoff sequences
/// whichever protocol produced them.
pub fn grant_corr(node: usize, lock: u32) -> u64 {
    ((node as u64 + 1) << 32) | (lock as u64 + 1)
}

/// Upper bound on protocol-level retry rounds (grant re-requests,
/// redirect hops) before a node gives up on an operation.
pub const MAX_SYNC_ROUNDS: u32 = 64;

/// A manager's answer to one acquire request, as the requester sees it.
pub enum Answer<G> {
    /// The grant came back in the reply.
    Granted(G),
    /// Enqueued: the grant will be posted at a handover.
    Queued,
}

/// What a queued requester found under its grant tag.
pub enum Parked<G> {
    /// The posted grant.
    Grant(G),
    /// The grant's loss tombstone: it was destroyed in flight.
    Lost,
}

/// The manager-mediated acquire loop, requester side, on every fabric:
/// request (the fabric retries lost requests and replies against the
/// idempotent manager); if queued, park for the posted grant; if that
/// grant was destroyed in flight, re-request — now reporting the
/// consumed tombstone, which is what allows the manager to re-grant a
/// handover by reply (see [`lock::LockMgr::acquire_mode`]). On a fabric
/// that loses nothing, round 1 is the whole of it. `request` gets the
/// round number (from 1) and that flag; fatal fabric errors pass
/// through as `Err`. `what` names the node and lock should the rounds
/// run out.
pub fn acquire_resilient<G, E>(
    what: impl std::fmt::Display,
    mut request: impl FnMut(u32, bool) -> Result<Answer<G>, E>,
    mut park: impl FnMut() -> Result<Parked<G>, E>,
) -> Result<G, E> {
    let mut lost_grant = false;
    for round in 1..=MAX_SYNC_ROUNDS {
        match request(round, lost_grant)? {
            Answer::Granted(grant) => return Ok(grant),
            Answer::Queued => match park()? {
                Parked::Grant(grant) => return Ok(grant),
                Parked::Lost => lost_grant = true,
            },
        }
    }
    panic!("{what}: acquire still failing after {MAX_SYNC_ROUNDS} rounds")
}

/// A notice-carrying payload for the machine tests: a publication is a
/// page set, a wave the explicit per-writer list. (The software DSM's
/// real payload lives in `swdsm::proto`, above this crate.)
#[cfg(test)]
mod testpayload {
    use super::Piggyback;

    #[derive(Clone, Debug, Default, PartialEq)]
    pub struct Pages(Vec<u32>);

    #[derive(Clone, Debug, Default, PartialEq)]
    pub struct Wave(pub Vec<(usize, Pages)>);

    pub fn iv(pages: &[u32]) -> Pages {
        Pages(pages.to_vec())
    }

    impl Piggyback for Wave {
        type Pub = Pages;

        fn is_empty(publication: &Pages) -> bool {
            publication.0.is_empty()
        }

        fn merge(into: &mut Pages, later: &Pages) {
            into.0.extend_from_slice(&later.0);
            into.0.sort_unstable();
            into.0.dedup();
        }

        fn encode(entries: Vec<(usize, Pages)>, _digest_runs: Option<usize>) -> Self {
            Wave(entries)
        }

        fn extend(&mut self, other: Self) {
            self.0.extend(other.0);
        }
    }

    #[test]
    fn resilient_acquire_reports_the_tombstone_it_consumed() {
        // Queued, then the posted grant is lost twice: every re-request
        // after the first tombstone carries `lost_grant`.
        let mut seen = Vec::new();
        let mut parks = 0;
        let got: Result<u32, ()> = super::acquire_resilient(
            "node 0: lock 1",
            |round, lost| {
                seen.push((round, lost));
                Ok(if round < 3 { super::Answer::Queued } else { super::Answer::Granted(7) })
            },
            || {
                parks += 1;
                Ok(super::Parked::Lost)
            },
        );
        assert_eq!(got, Ok(7));
        assert_eq!(seen, vec![(1, false), (2, true), (3, true)]);
        assert_eq!(parks, 2);
    }
}
