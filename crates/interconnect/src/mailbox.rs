//! Node-local wait queues connecting protocol handlers to blocked
//! application threads.
//!
//! Several shared-memory operations complete asynchronously from the
//! requester's point of view: a barrier release, a queued lock grant, a
//! forwarded thread's exit notification, a user-level receive. The
//! handler that learns of the event runs on the node's communication
//! daemon; the application thread meanwhile blocks on the node's
//! [`Mailbox`] under a tag. Deposits carry the virtual time at which the
//! wake-up message arrived, so the woken thread can advance its clock.

use crate::message::Payload;
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::{HashMap, VecDeque};

/// A deposited wake-up: payload plus virtual arrival time.
pub struct Deposit {
    /// The handler's payload for the waiter.
    pub payload: Payload,
    /// Virtual time the wake-up message arrived.
    pub arrive_ns: u64,
    /// Tombstone for a wake-up the fault injector destroyed: `payload`
    /// is `()` and `arrive_ns` is the timeout deadline. Resilient
    /// waiters turn this into a `Timeout` error and re-drive the
    /// protocol; plain [`Mailbox::wait`]ers must not see one.
    pub lost: bool,
}

#[derive(Default)]
struct Inner {
    queues: HashMap<u64, VecDeque<Deposit>>,
    /// Threads parked in [`Mailbox::wait`]; a deposit notifies only
    /// when there is one.
    waiters: usize,
}

/// One mailbox per simulated node.
#[derive(Default)]
pub struct Mailbox {
    inner: Mutex<Inner>,
    cond: Condvar,
}

impl Mailbox {
    /// An empty mailbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// Deposit a wake-up under `tag`. Called from protocol handlers.
    ///
    /// A real wake-up supersedes any loss tombstone still pending under
    /// the same tag: the tombstone said "the wake-up was destroyed", and
    /// a later copy (a fault-injected duplicate, a retried send) proving
    /// otherwise must win. Without the purge, batched delivery could
    /// hand the waiter the stale tombstone — a spurious timeout — while
    /// the real wake-up sat right behind it.
    pub fn deposit(&self, tag: u64, payload: Payload, arrive_ns: u64) {
        let mut g = self.inner.lock();
        let q = g.queues.entry(tag).or_default();
        q.retain(|d| !d.lost);
        q.push_back(Deposit { payload, arrive_ns, lost: false });
        let parked = g.waiters > 0;
        notify_unlocked(g, &self.cond, parked);
    }

    /// Deposit a loss tombstone under `tag`: the wake-up that should
    /// have landed here was destroyed by fault injection, and the
    /// waiter should learn about it at `deadline_ns` (its timeout).
    pub fn deposit_lost(&self, tag: u64, deadline_ns: u64) {
        let mut g = self.inner.lock();
        g.queues
            .entry(tag)
            .or_default()
            .push_back(Deposit { payload: Box::new(()), arrive_ns: deadline_ns, lost: true });
        let parked = g.waiters > 0;
        notify_unlocked(g, &self.cond, parked);
    }

    /// Block until a deposit under `tag` is available, then take it.
    pub fn wait(&self, tag: u64) -> Deposit {
        let mut g = self.inner.lock();
        loop {
            if let Some(q) = g.queues.get_mut(&tag) {
                if let Some(d) = take_preferring_real(q) {
                    return d;
                }
            }
            g.waiters += 1;
            self.cond.wait(&mut g);
            g.waiters -= 1;
        }
    }

    /// Take a deposit under `tag` if one is already present.
    pub fn try_take(&self, tag: u64) -> Option<Deposit> {
        let mut g = self.inner.lock();
        g.queues.get_mut(&tag).and_then(take_preferring_real)
    }

    /// Number of pending deposits under `tag`.
    pub fn pending(&self, tag: u64) -> usize {
        self.inner.lock().queues.get(&tag).map_or(0, |q| q.len())
    }
}

/// The fabric's two wake-up rules, for every condvar it sleeps on.
/// *After the unlock:* `guard` — the lock the sleeper re-takes — is
/// dropped before the notify, so the woken thread does not sleep again
/// on a mutex its waker still holds. *Only for a waiter:* sleepers count
/// themselves in under that lock, which they then wait on, and the
/// waker passes what it read there as `waiting`; at zero the notify (a
/// futex syscall whether or not anyone listens) is skipped, and the
/// next sleeper's own look under the lock finds what was left for it.
pub(crate) fn notify_unlocked<T>(guard: MutexGuard<'_, T>, cond: &Condvar, waiting: bool) {
    drop(guard);
    if waiting {
        cond.notify_all();
    }
}

/// Take the first *real* deposit if one exists; fall back to a
/// tombstone only when nothing else is queued. Batched delivery can
/// land a late real wake-up behind an already-queued tombstone for the
/// same tag in one batch — the waiter must never time out on the
/// tombstone while the real deposit is present.
fn take_preferring_real(q: &mut VecDeque<Deposit>) -> Option<Deposit> {
    if let Some(ix) = q.iter().position(|d| !d.lost) {
        q.remove(ix)
    } else {
        q.pop_front()
    }
}

/// Build a mailbox tag from a message kind and an instance id (e.g. a
/// particular barrier or lock).
pub fn tag(kind: u32, id: u32) -> u64 {
    ((kind as u64) << 32) | id as u64
}

/// A bounded multi-producer work queue with explicit backpressure: the
/// per-node envelope queue of the delivery scheduler.
///
/// Two enqueue flavours reflect who is calling:
///
/// * [`BoundedQueue::push_wait`] — application threads. Blocks (in real
///   time) while the queue is full; this is the backpressure that keeps
///   a flooding sender from ballooning memory.
/// * [`BoundedQueue::push`] — handler context. Never blocks, even over
///   capacity: a worker that blocked pushing to a queue it is itself
///   responsible for draining would deadlock the shard, so handler
///   enqueues always overflow the bound instead.
///
/// Closing the queue (teardown) wakes blocked producers and makes every
/// subsequent push return the rejected value to the caller, which
/// answers any reply obligation itself.
pub struct BoundedQueue<T> {
    inner: Mutex<BoundedInner<T>>,
    space: Condvar,
    capacity: usize,
}

struct BoundedInner<T> {
    q: VecDeque<T>,
    closed: bool,
    /// Producers blocked in [`BoundedQueue::push_wait`]; a drain
    /// notifies only when there is one.
    blocked: usize,
}

impl<T> BoundedQueue<T> {
    /// An open queue admitting `capacity` items before producers block.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "bounded queue needs capacity");
        Self {
            inner: Mutex::new(BoundedInner { q: VecDeque::new(), closed: false, blocked: 0 }),
            space: Condvar::new(),
            capacity,
        }
    }

    /// Non-blocking enqueue that may overflow the bound (handler
    /// context — see the type docs). `Err(v)` when closed.
    pub fn push(&self, v: T) -> Result<(), T> {
        let mut g = self.inner.lock();
        if g.closed {
            return Err(v);
        }
        g.q.push_back(v);
        Ok(())
    }

    /// Blocking enqueue honoring the bound. Returns whether the caller
    /// had to wait for space (the backpressure signal), or `Err(v)`
    /// when the queue is (or becomes, while waiting) closed.
    pub fn push_wait(&self, v: T) -> Result<bool, T> {
        let mut g = self.inner.lock();
        let mut waited = false;
        while g.q.len() >= self.capacity && !g.closed {
            waited = true;
            g.blocked += 1;
            self.space.wait(&mut g);
            g.blocked -= 1;
        }
        if g.closed {
            return Err(v);
        }
        g.q.push_back(v);
        Ok(waited)
    }

    /// Move up to `max` items (FIFO) into `out`, waking producers that
    /// were blocked on the freed space.
    pub fn drain_into(&self, max: usize, out: &mut Vec<T>) {
        let mut g = self.inner.lock();
        let n = g.q.len().min(max);
        out.extend(g.q.drain(..n));
        let blocked = n > 0 && g.blocked > 0;
        notify_unlocked(g, &self.space, blocked);
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.inner.lock().q.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Close the queue and return everything still queued. Blocked
    /// producers wake up with `Err`.
    pub fn close(&self) -> Vec<T> {
        let mut g = self.inner.lock();
        g.closed = true;
        let left = g.q.drain(..).collect();
        let blocked = g.blocked > 0;
        notify_unlocked(g, &self.space, blocked);
        left
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn deposit_then_wait() {
        let m = Mailbox::new();
        m.deposit(tag(1, 0), Box::new(5u32), 100);
        let d = m.wait(tag(1, 0));
        assert_eq!(d.arrive_ns, 100);
        assert_eq!(crate::downcast::<u32>(d.payload), 5);
    }

    #[test]
    fn wait_blocks_until_deposit() {
        let m = Arc::new(Mailbox::new());
        let m2 = m.clone();
        let h = std::thread::spawn(move || m2.wait(tag(2, 7)).arrive_ns);
        std::thread::sleep(std::time::Duration::from_millis(20));
        m.deposit(tag(2, 7), Box::new(()), 42);
        assert_eq!(h.join().unwrap(), 42);
    }

    #[test]
    fn tags_are_independent() {
        let m = Mailbox::new();
        m.deposit(tag(1, 0), Box::new(()), 1);
        assert!(m.try_take(tag(1, 1)).is_none());
        assert!(m.try_take(tag(2, 0)).is_none());
        assert!(m.try_take(tag(1, 0)).is_some());
    }

    #[test]
    fn fifo_order_within_tag() {
        let m = Mailbox::new();
        m.deposit(tag(3, 0), Box::new(1u8), 10);
        m.deposit(tag(3, 0), Box::new(2u8), 20);
        assert_eq!(crate::downcast::<u8>(m.wait(tag(3, 0)).payload), 1);
        assert_eq!(crate::downcast::<u8>(m.wait(tag(3, 0)).payload), 2);
    }

    #[test]
    fn pending_counts() {
        let m = Mailbox::new();
        assert_eq!(m.pending(tag(9, 9)), 0);
        m.deposit(tag(9, 9), Box::new(()), 0);
        m.deposit(tag(9, 9), Box::new(()), 0);
        assert_eq!(m.pending(tag(9, 9)), 2);
    }

    #[test]
    fn lost_deposits_are_marked() {
        let m = Mailbox::new();
        m.deposit_lost(tag(4, 0), 9_000);
        let d = m.wait(tag(4, 0));
        assert!(d.lost);
        assert_eq!(d.arrive_ns, 9_000);
        m.deposit(tag(4, 0), Box::new(1u8), 10);
        assert!(!m.wait(tag(4, 0)).lost);
    }

    #[test]
    fn tag_packing_distinct() {
        assert_ne!(tag(1, 2), tag(2, 1));
        assert_eq!(tag(0xABCD, 0x1234) >> 32, 0xABCD);
    }

    #[test]
    fn late_deposit_supersedes_tombstone() {
        // Regression: batched delivery can enqueue a loss tombstone and
        // then a late real copy of the same wake-up before the waiter
        // runs. The waiter must get the real deposit, and the stale
        // tombstone must be gone — not surface as a spurious timeout on
        // the *next* wait under the tag.
        let m = Mailbox::new();
        m.deposit_lost(tag(5, 1), 9_000);
        m.deposit(tag(5, 1), Box::new(3u8), 700);
        assert_eq!(m.pending(tag(5, 1)), 1, "real deposit purges the tombstone");
        let d = m.wait(tag(5, 1));
        assert!(!d.lost);
        assert_eq!(d.arrive_ns, 700);
        assert!(m.try_take(tag(5, 1)).is_none());
    }

    #[test]
    fn take_prefers_real_over_queued_tombstone() {
        // Even if a tombstone lands *between* two real deposits (so the
        // purge in `deposit` cannot see it coming), takers skip over it.
        let m = Mailbox::new();
        let q_tag = tag(6, 0);
        {
            // Build the pathological order directly: real, lost, real
            // cannot occur via deposit() (it purges), but try_take must
            // still prefer real entries if a tombstone is mid-queue.
            m.deposit(q_tag, Box::new(1u8), 10);
            m.deposit_lost(q_tag, 5_000);
        }
        assert!(!m.try_take(q_tag).unwrap().lost, "real deposit wins over tombstone");
        assert!(m.try_take(q_tag).unwrap().lost, "tombstone only when nothing real is left");
    }

    /// Rounds of each no-lost-wake-up loop below: a lost notify hangs
    /// the test, it does not fail an assertion.
    const STRESS_ROUNDS: u64 = 20_000;

    #[test]
    fn no_waiter_misses_a_deposit_or_a_tombstone() {
        // Ping-pong, so each side is parked — or about to be — when the
        // other deposits: even rounds wake with a deposit, odd ones
        // with a tombstone.
        let boxes = Arc::new((Mailbox::new(), Mailbox::new()));
        let b2 = boxes.clone();
        let echo = std::thread::spawn(move || {
            for round in 0..STRESS_ROUNDS {
                let d = b2.0.wait(tag(7, 0));
                assert_eq!((d.arrive_ns, d.lost), (round, round % 2 == 1));
                b2.1.deposit(tag(7, 1), Box::new(()), round);
            }
        });
        for round in 0..STRESS_ROUNDS {
            if round % 2 == 0 {
                boxes.0.deposit(tag(7, 0), Box::new(()), round);
            } else {
                boxes.0.deposit_lost(tag(7, 0), round);
            }
            assert_eq!(boxes.1.wait(tag(7, 1)).arrive_ns, round);
        }
        echo.join().unwrap();
    }

    #[test]
    fn no_blocked_producer_misses_a_drain() {
        // Capacity 1 and a consumer that drains one item at a time: the
        // producer blocks on nearly every push.
        let q = Arc::new(BoundedQueue::new(1));
        let q2 = q.clone();
        let producer = std::thread::spawn(move || {
            for i in 0..STRESS_ROUNDS {
                q2.push_wait(i).unwrap();
            }
        });
        let mut got = Vec::new();
        while (got.len() as u64) < STRESS_ROUNDS {
            q.drain_into(1, &mut got);
        }
        producer.join().unwrap();
        assert!(got.iter().copied().eq(0..STRESS_ROUNDS));
    }

    #[test]
    fn no_blocked_producer_misses_the_close() {
        for round in 0..STRESS_ROUNDS / 10 {
            let q = Arc::new(BoundedQueue::new(1));
            q.push(round).unwrap();
            let q2 = q.clone();
            let producer = std::thread::spawn(move || q2.push_wait(round + 1));
            // Close with the producer blocked, about to block, or not
            // yet started: it gets its value back every time.
            assert_eq!(q.close(), vec![round]);
            assert_eq!(producer.join().unwrap(), Err(round + 1));
        }
    }

    #[test]
    fn bounded_queue_fifo_and_drain() {
        let q = BoundedQueue::new(4);
        for i in 0..3 {
            q.push(i).unwrap();
        }
        assert_eq!(q.len(), 3);
        let mut out = Vec::new();
        q.drain_into(2, &mut out);
        assert_eq!(out, vec![0, 1]);
        q.drain_into(8, &mut out);
        assert_eq!(out, vec![0, 1, 2]);
        assert!(q.is_empty());
    }

    #[test]
    fn bounded_queue_backpressure_blocks_until_drained() {
        let q = Arc::new(BoundedQueue::new(2));
        q.push_wait(0).unwrap();
        q.push_wait(1).unwrap();
        let q2 = q.clone();
        let h = std::thread::spawn(move || q2.push_wait(2).unwrap());
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(q.len(), 2, "third producer is blocked");
        let mut out = Vec::new();
        q.drain_into(1, &mut out);
        assert!(h.join().unwrap(), "blocked producer reports having waited");
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn bounded_queue_push_overflows_instead_of_blocking() {
        // Handler-context pushes must never block, even over capacity.
        let q = BoundedQueue::new(1);
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn bounded_queue_close_rejects_and_returns_leftovers() {
        let q = Arc::new(BoundedQueue::new(1));
        q.push(7).unwrap();
        let q2 = q.clone();
        let h = std::thread::spawn(move || q2.push_wait(8));
        std::thread::sleep(std::time::Duration::from_millis(20));
        let left = q.close();
        assert_eq!(left, vec![7]);
        assert_eq!(h.join().unwrap(), Err(8), "blocked producer wakes with its value");
        assert_eq!(q.push(9), Err(9));
    }
}
