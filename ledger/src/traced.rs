//! `Traced<W>`: a [`World`] that times every call the application makes
//! into the system under test.
//!
//! Every barrier, lock and unlock becomes a span of its own, because
//! waiting must be visible. Memory accesses and virtual-time charges are
//! far too many for that (the KV service makes millions), so they are
//! folded per class into count, total and maximum. What a rank's span
//! holds beyond these classes is the application's own host time.

use crate::span::{ClassTotal, Lane};
use apps::World;
use memwire::{Distribution, GlobalAddr};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Instant;

/// The call classes folded into totals, in [`Traced::folded`] order.
const FOLDED_CLASSES: [&str; 5] =
    ["mem.read", "mem.write", "mem.alloc", "clock.compute", "bus.private_traffic"];

const READ: usize = 0;
const WRITE: usize = 1;
const ALLOC: usize = 2;
const COMPUTE: usize = 3;
const BUS: usize = 4;

#[derive(Default)]
struct Folded {
    count: AtomicU64,
    total_ns: AtomicU64,
    max_ns: AtomicU64,
}

/// A timing wrapper around one rank's [`World`].
pub struct Traced<'a, W> {
    inner: &'a W,
    /// The rank span every recorded call is a child of.
    parent: u64,
    // `World` demands `Sync`; one rank thread uses this, so the lock is
    // never contended.
    lane: Mutex<Lane<'a>>,
    folded: [Folded; 5],
}

impl<'a, W: World> Traced<'a, W> {
    pub fn new(inner: &'a W, lane: Lane<'a>, parent: u64) -> Self {
        Self { inner, parent, lane: Mutex::new(lane), folded: Default::default() }
    }

    /// Give the lane back, with the folded classes that saw any call.
    pub fn finish(self) -> (Lane<'a>, Vec<ClassTotal>) {
        let classes = FOLDED_CLASSES
            .iter()
            .zip(&self.folded)
            .filter(|(_, f)| f.count.load(Relaxed) > 0)
            .map(|(class, f)| ClassTotal {
                class,
                count: f.count.load(Relaxed),
                total_ns: f.total_ns.load(Relaxed),
                max_ns: f.max_ns.load(Relaxed),
            })
            .collect();
        (self.lane.into_inner().expect("lane lock poisoned"), classes)
    }

    #[inline]
    fn fold<T>(&self, class: usize, f: impl FnOnce(&W) -> T) -> T {
        let started = Instant::now();
        let out = f(self.inner);
        let ns = started.elapsed().as_nanos() as u64;
        let slot = &self.folded[class];
        slot.count.fetch_add(1, Relaxed);
        slot.total_ns.fetch_add(ns, Relaxed);
        slot.max_ns.fetch_max(ns, Relaxed);
        out
    }

    fn span(&self, class: &'static str, f: impl FnOnce(&W)) {
        let open = self.lane.lock().expect("lane lock poisoned").open(self.parent, class);
        f(self.inner);
        self.lane.lock().expect("lane lock poisoned").close(open);
    }
}

impl<W: World> World for Traced<'_, W> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }
    fn nprocs(&self) -> usize {
        self.inner.nprocs()
    }
    fn alloc_dist(&self, bytes: usize, dist: Distribution) -> GlobalAddr {
        self.fold(ALLOC, |w| w.alloc_dist(bytes, dist))
    }
    fn read_f64(&self, a: GlobalAddr) -> f64 {
        self.fold(READ, |w| w.read_f64(a))
    }
    fn write_f64(&self, a: GlobalAddr, v: f64) {
        self.fold(WRITE, |w| w.write_f64(a, v))
    }
    fn read_u64(&self, a: GlobalAddr) -> u64 {
        self.fold(READ, |w| w.read_u64(a))
    }
    fn write_u64(&self, a: GlobalAddr, v: u64) {
        self.fold(WRITE, |w| w.write_u64(a, v))
    }
    fn read_bytes(&self, a: GlobalAddr, out: &mut [u8]) {
        self.fold(READ, |w| w.read_bytes(a, out))
    }
    fn write_bytes(&self, a: GlobalAddr, data: &[u8]) {
        self.fold(WRITE, |w| w.write_bytes(a, data))
    }
    fn lock(&self, id: u32) {
        self.span("sync.lock", |w| w.lock(id))
    }
    fn unlock(&self, id: u32) {
        self.span("sync.unlock", |w| w.unlock(id))
    }
    fn barrier(&self, id: u32) {
        self.span("sync.barrier", |w| w.barrier(id))
    }
    fn compute(&self, ns: u64) {
        self.fold(COMPUTE, |w| w.compute(ns))
    }
    fn private_traffic(&self, bytes: u64) {
        self.fold(BUS, |w| w.private_traffic(bytes))
    }
    fn now_ns(&self) -> u64 {
        self.inner.now_ns()
    }
}
