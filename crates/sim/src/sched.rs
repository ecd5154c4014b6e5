//! Work-stealing run-queue scheduler: a small worker pool driving many
//! logical actors (simulated nodes).
//!
//! One OS thread per simulated node's communication daemon would mean,
//! at 64+ nodes on a small host, dozens of mostly-sleeping threads and a
//! condvar wake plus a context switch on every message delivery.
//! Instead, actors (nodes) are multiplexed over a few worker threads,
//! each owning one ready *ring*. An actor is *scheduled* onto a ring when it has work; a
//! worker drives it via a callback and re-queues it while the callback
//! reports more work pending.
//!
//! Scheduling is **local-first**: a worker that schedules an actor from
//! inside `drive` (a handler on node A sending to node B) pushes it onto
//! its *own* ring and pops it itself as soon as the current `drive`
//! returns. A message chain therefore runs to completion on one hot
//! thread, with no condvar notify and no hand-off to a parked peer.
//! Parallelism comes from surplus: a push that leaves more than one
//! entry on a ring wakes one parked peer, and a worker that runs out of
//! local work steals from its peers' rings before it parks. Threads
//! outside the pool have no ring of their own; their pushes are spread
//! over the rings by actor id.
//!
//! Two properties the fabric depends on:
//!
//! * **Per-actor serialization is the caller's.** Rings carry no
//!   ownership: any worker may pop any entry, so an actor is driven by
//!   one thread at a time *only because it sits on at most one ring at
//!   a time*. The caller guarantees that with a per-actor `scheduled`
//!   flag claimed before [`Shards::schedule`] and cleared from inside
//!   `drive` (the fabric's `NodeQueue::claim_schedule` / `retire`).
//! * **No lost wake-up.** A ring's `parked` flag is written only under
//!   that ring's lock, a parked owner is notified under the same lock,
//!   and a worker re-checks its peers after raising the flag and before
//!   waiting (see [`Shards::schedule`] and the park sequence in the
//!   worker loop). Every entry is therefore seen either by the ring's
//!   awake owner or by a peer that was woken for it.
//!
//! The scheduler knows nothing about messages or virtual time; the
//! interconnect layers its bounded per-node queues and batched delivery
//! on top.

use parking_lot::{Condvar, Mutex};
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

thread_local! {
    /// `(address of the pool, ring index)` while this thread is one of
    /// a pool's workers. The address tells pools apart: a handler of
    /// one fabric may schedule onto another's.
    static WORKER: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

struct Ring {
    ready: Mutex<VecDeque<usize>>,
    cv: Condvar,
    /// True while the owning worker is parked on `cv` (or committed to
    /// parking: it holds `ready` from the store until the wait). Written
    /// only under the `ready` lock.
    parked: AtomicBool,
}

/// The ring set of a worker pool: the handle used to schedule actors.
///
/// Cheap to clone via `Arc`; [`spawn_workers`] attaches the worker
/// threads that drain it. Dropping the `Arc` does not stop workers —
/// call [`Shards::stop`] and join the handles.
pub struct Shards {
    rings: Vec<Ring>,
    stop: AtomicBool,
}

impl Shards {
    /// A ring set of `n` rings (one worker each). `n` is clamped to at
    /// least 1.
    pub fn new(n: usize) -> Arc<Self> {
        let n = n.max(1);
        Arc::new(Self {
            rings: (0..n)
                .map(|_| Ring {
                    ready: Mutex::new(VecDeque::new()),
                    cv: Condvar::new(),
                    parked: AtomicBool::new(false),
                })
                .collect(),
            stop: AtomicBool::new(false),
        })
    }

    /// Number of rings (== workers).
    pub fn len(&self) -> usize {
        self.rings.len()
    }

    /// Always false: a ring set has at least one ring.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The calling thread's ring, when it is one of this pool's workers.
    fn own_ring(&self) -> Option<usize> {
        let me = self as *const Self as usize;
        WORKER.get().and_then(|(pool, ix)| (pool == me).then_some(ix))
    }

    /// Make `actor` ready. The caller must ensure an actor is scheduled
    /// at most once at a time: that, and nothing in this module, is
    /// what keeps two workers from driving it concurrently.
    ///
    /// A worker pushes onto its own ring and, being awake, needs no
    /// notify; any other thread pushes onto ring `actor % len` and
    /// wakes its owner if parked. Either way, a push that leaves the
    /// ring with more than its awake owner's next entry wakes one
    /// parked peer to steal the surplus.
    pub fn schedule(&self, actor: usize) {
        let own = self.own_ring();
        let ix = own.unwrap_or(actor % self.rings.len());
        let ring = &self.rings[ix];
        let depth = {
            let mut g = ring.ready.lock();
            g.push_back(actor);
            g.len()
        };
        // `parked` is only set under the `ready` lock, so after our
        // push/unlock either the owner saw the entry (and won't park)
        // or we see `parked == true` here.
        if own.is_none() && self.wake(ring) {
            return;
        }
        if depth > 1 {
            // A peer that is about to park re-checks this ring (under
            // its own lock, after raising `parked`), so it either finds
            // the entry or is found parked by this scan.
            for peer in self.peers(ix) {
                if self.wake(peer) {
                    break;
                }
            }
        }
    }

    /// Notify `ring`'s owner if it is parked. A worker holds the ring
    /// lock from raising `parked` until it waits, so passing through
    /// the lock first means the notify cannot fall in between; issuing
    /// it after the unlock spares the woken owner a second sleep on a
    /// mutex its waker still holds.
    fn wake(&self, ring: &Ring) -> bool {
        if !ring.parked.load(Ordering::Relaxed) {
            return false;
        }
        drop(ring.ready.lock());
        ring.cv.notify_one();
        true
    }

    /// Ask all workers to exit once the ready rings are drained: each
    /// worker leaves only when its own ring is empty, and after it has
    /// left only outside threads could still push onto that ring.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        for ring in &self.rings {
            let _g = ring.ready.lock();
            ring.cv.notify_one();
        }
    }

    /// The rings other than `ix`, nearest successor first.
    fn peers(&self, ix: usize) -> impl Iterator<Item = &Ring> {
        let n = self.rings.len();
        (1..n).map(move |d| &self.rings[(ix + d) % n])
    }

    /// Take the oldest entry of the first non-empty peer ring.
    fn steal(&self, ix: usize) -> Option<usize> {
        self.peers(ix).find_map(|peer| peer.ready.lock().pop_front())
    }

    /// Next actor for worker `ix`: own ring, then a steal, then park.
    /// `None` once [`Shards::stop`] was called and the own ring is empty.
    fn next(&self, ix: usize) -> Option<usize> {
        let ring = &self.rings[ix];
        loop {
            if let Some(actor) = ring.ready.lock().pop_front() {
                return Some(actor);
            }
            if let Some(actor) = self.steal(ix) {
                return Some(actor);
            }
            let mut g = ring.ready.lock();
            if let Some(actor) = g.pop_front() {
                return Some(actor);
            }
            if self.stop.load(Ordering::SeqCst) {
                return None;
            }
            ring.parked.store(true, Ordering::Relaxed);
            // Last look at the peers with the flag already up, so a
            // surplus push cannot slip between the steal above and the
            // wait below: the pusher's ring lock orders its push either
            // before this look or after the store it then reads.
            // `try_lock` because two workers parking at once must not
            // wait on each other; a busy ring counts as non-empty.
            let peers_idle =
                self.peers(ix).all(|peer| peer.ready.try_lock().is_some_and(|q| q.is_empty()));
            if peers_idle {
                ring.cv.wait(&mut g);
            }
            ring.parked.store(false, Ordering::Relaxed);
        }
    }

    fn worker_loop(&self, ix: usize, drive: &(dyn Fn(usize) -> bool + Sync)) {
        WORKER.set(Some((self as *const Self as usize, ix)));
        while let Some(actor) = self.next(ix) {
            if drive(actor) {
                self.schedule(actor);
            }
        }
    }
}

/// Spawn one worker thread per ring. Each worker pops actors — from its
/// own ring first, then from its peers' — and calls `drive(actor)`; a
/// `true` return re-queues the actor (it still has work). Workers exit
/// when [`Shards::stop`] has been called and their ring is empty — all
/// scheduled work is drained before shutdown.
pub fn spawn_workers<F>(shards: &Arc<Shards>, name: &str, drive: F) -> Vec<JoinHandle<()>>
where
    F: Fn(usize) -> bool + Send + Sync + 'static,
{
    let drive = Arc::new(drive);
    (0..shards.len())
        .map(|ix| {
            let shards = shards.clone();
            let drive = drive.clone();
            std::thread::Builder::new()
                .name(format!("{name}-{ix}"))
                .spawn(move || shards.worker_loop(ix, &*drive))
                .expect("spawn scheduler worker")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;
    use std::thread::ThreadId;

    fn join_all(workers: Vec<JoinHandle<()>>) {
        for w in workers {
            w.join().unwrap();
        }
    }

    #[test]
    fn drives_scheduled_actors() {
        let counts: Arc<Vec<AtomicUsize>> =
            Arc::new((0..8).map(|_| AtomicUsize::new(0)).collect());
        let shards = Shards::new(2);
        let c = counts.clone();
        let workers = spawn_workers(&shards, "t", move |actor| {
            c[actor].fetch_add(1, Ordering::SeqCst);
            false
        });
        for a in 0..8 {
            shards.schedule(a);
        }
        shards.stop();
        join_all(workers);
        for c in counts.iter() {
            assert_eq!(c.load(Ordering::SeqCst), 1);
        }
    }

    #[test]
    fn requeues_while_drive_reports_work() {
        let remaining = Arc::new(AtomicUsize::new(5));
        let shards = Shards::new(1);
        let r = remaining.clone();
        let workers = spawn_workers(&shards, "t", move |_| {
            r.fetch_sub(1, Ordering::SeqCst) > 1
        });
        shards.schedule(0);
        while remaining.load(Ordering::SeqCst) > 0 {
            std::thread::yield_now();
        }
        shards.stop();
        join_all(workers);
        assert_eq!(remaining.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn stop_drains_every_ring() {
        // Outside pushes land on ring `actor % 3`, so all three rings
        // hold work when `stop` arrives; none of it may be abandoned.
        let done = Arc::new(AtomicUsize::new(0));
        let shards = Shards::new(3);
        let d = done.clone();
        let workers = spawn_workers(&shards, "t", move |_| {
            d.fetch_add(1, Ordering::SeqCst);
            false
        });
        for a in 0..300 {
            shards.schedule(a);
        }
        shards.stop();
        join_all(workers);
        assert_eq!(done.load(Ordering::SeqCst), 300, "stop must drain, not abandon");
    }

    #[test]
    fn chain_scheduled_from_drive_stays_on_one_thread() {
        // Actor k schedules k + 1 from inside `drive`: the push goes to
        // the driving worker's own ring and leaves no surplus, so the
        // parked peers are never woken and the whole chain runs on the
        // worker that took the first actor.
        const CHAIN: usize = 1_000;
        let shards = Shards::new(4);
        let (tx, rx) = mpsc::channel::<ThreadId>();
        let tx = Mutex::new(tx);
        let pool = shards.clone();
        let workers = spawn_workers(&shards, "t", move |actor| {
            tx.lock().send(std::thread::current().id()).unwrap();
            if actor + 1 < CHAIN {
                pool.schedule(actor + 1);
            }
            false
        });
        // Let every worker reach its park, so none is mid-steal when
        // the chain starts.
        while !shards.rings.iter().all(|r| r.parked.load(Ordering::Relaxed)) {
            std::thread::yield_now();
        }
        shards.schedule(0);
        let threads: Vec<ThreadId> = rx.iter().take(CHAIN).collect();
        shards.stop();
        join_all(workers);
        assert!(threads.iter().all(|t| *t == threads[0]), "chain hopped between workers");
    }

    #[test]
    fn peer_drains_the_ring_of_a_stuck_worker() {
        // Worker 0 is held inside a long `drive`; what piles up on its
        // ring meanwhile is surplus and must be stolen by worker 1.
        const PILE: usize = 8;
        const PATIENCE: std::time::Duration = std::time::Duration::from_secs(30);
        let shards = Shards::new(2);
        let (entered_tx, entered_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (done_tx, done_rx) = mpsc::channel::<(usize, ThreadId)>();
        let stuck = Mutex::new((entered_tx, release_rx));
        let done = Mutex::new(done_tx);
        let workers = spawn_workers(&shards, "t", move |actor| {
            if actor == 0 {
                let g = stuck.lock();
                g.0.send(()).unwrap();
                g.1.recv().unwrap();
            }
            done.lock().send((actor, std::thread::current().id())).unwrap();
            false
        });
        shards.schedule(0);
        entered_rx.recv().unwrap();
        // Whichever worker took actor 0 is stuck now. Pile work onto
        // both rings: its own cannot be drained by it.
        for a in 1..=PILE {
            shards.schedule(a);
        }
        // The scheduler promises the *surplus*: an entry that lands
        // alone on the busy owner's ring is that owner's next entry and
        // wakes nobody, so the last push there may wait for the stuck
        // worker — if the helper had already parked. One straggler at
        // most: any later push, onto either ring, gets it stolen too.
        let early: Vec<(usize, ThreadId)> = (1..PILE)
            .map(|_| done_rx.recv_timeout(PATIENCE).expect("a peer drains the surplus"))
            .collect();
        release_tx.send(()).unwrap();
        let late: Vec<(usize, ThreadId)> =
            (0..2).map(|_| done_rx.recv_timeout(PATIENCE).expect("nothing is lost")).collect();
        shards.stop();
        join_all(workers);
        let &(_, stuck_thread) = late.iter().find(|(a, _)| *a == 0).expect("the stuck actor finishes");
        assert!(
            early.iter().all(|(_, t)| *t != stuck_thread),
            "a peer, not the stuck worker, drove what piled up before the release"
        );
        let mut actors: Vec<usize> = early.iter().chain(&late).map(|(a, _)| *a).collect();
        actors.sort_unstable();
        assert_eq!(actors, (0..=PILE).collect::<Vec<_>>(), "every actor driven exactly once");
    }

    #[test]
    fn actors_are_never_driven_concurrently_and_none_is_lost() {
        // The fabric's contract, reproduced: a per-actor `scheduled`
        // flag keeps an actor on at most one ring; `pending` is its
        // queue depth. Producers race each other and the workers; every
        // unit of work must be driven exactly once and no two threads
        // may ever be inside the same actor's `drive`.
        const ACTORS: usize = 16;
        const PRODUCERS: usize = 6;
        const PER_PRODUCER: usize = 4_000;
        struct Actor {
            scheduled: AtomicBool,
            in_drive: AtomicBool,
            pending: AtomicUsize,
            driven: AtomicUsize,
        }
        for workers_n in [1, 2, 4] {
            let actors: Arc<Vec<Actor>> = Arc::new(
                (0..ACTORS)
                    .map(|_| Actor {
                        scheduled: AtomicBool::new(false),
                        in_drive: AtomicBool::new(false),
                        pending: AtomicUsize::new(0),
                        driven: AtomicUsize::new(0),
                    })
                    .collect(),
            );
            let overlaps = Arc::new(AtomicUsize::new(0));
            let fanned_out = Arc::new(AtomicUsize::new(0));
            let shards = Shards::new(workers_n);
            let (a, o, f, pool) =
                (actors.clone(), overlaps.clone(), fanned_out.clone(), shards.clone());
            let workers = spawn_workers(&shards, "t", move |ix| {
                let me = &a[ix];
                if me.in_drive.swap(true, Ordering::SeqCst) {
                    o.fetch_add(1, Ordering::SeqCst);
                }
                let took = me.pending.swap(0, Ordering::SeqCst);
                me.driven.fetch_add(took, Ordering::SeqCst);
                // Every eighth unit fans out to the next actor from
                // handler context (the own-ring path).
                let next = &a[(ix + 1) % ACTORS];
                for _ in 0..took / 8 {
                    f.fetch_add(1, Ordering::SeqCst);
                    next.pending.fetch_add(1, Ordering::SeqCst);
                    if !next.scheduled.swap(true, Ordering::SeqCst) {
                        pool.schedule((ix + 1) % ACTORS);
                    }
                }
                me.in_drive.store(false, Ordering::SeqCst);
                // Retire, then re-claim if a push raced the clear.
                me.scheduled.store(false, Ordering::SeqCst);
                me.pending.load(Ordering::SeqCst) > 0
                    && !me.scheduled.swap(true, Ordering::SeqCst)
            });
            std::thread::scope(|s| {
                for p in 0..PRODUCERS {
                    let (actors, shards) = (&actors, &shards);
                    s.spawn(move || {
                        for i in 0..PER_PRODUCER {
                            let ix = (i * 7 + p) % ACTORS;
                            actors[ix].pending.fetch_add(1, Ordering::SeqCst);
                            if !actors[ix].scheduled.swap(true, Ordering::SeqCst) {
                                shards.schedule(ix);
                            }
                        }
                    });
                }
            });
            // Fan-out work is finite (an eighth per generation), so the
            // pool goes quiet; wait for that before stopping.
            while actors.iter().any(|a| a.scheduled.load(Ordering::SeqCst)) {
                std::thread::yield_now();
            }
            shards.stop();
            join_all(workers);
            assert_eq!(overlaps.load(Ordering::SeqCst), 0, "{workers_n} workers: concurrent drive");
            let left: usize = actors.iter().map(|a| a.pending.load(Ordering::SeqCst)).sum();
            assert_eq!(left, 0, "{workers_n} workers: work left behind");
            let driven: usize = actors.iter().map(|a| a.driven.load(Ordering::SeqCst)).sum();
            let produced = PRODUCERS * PER_PRODUCER + fanned_out.load(Ordering::SeqCst);
            assert_eq!(driven, produced, "{workers_n} workers: lost or repeated work");
        }
    }
}
