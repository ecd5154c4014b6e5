//! The node engine of every platform: software memory and
//! synchronisation management over one data path.
//!
//! HAMSTER's claim is one core of orthogonal management modules over
//! SMPs, hybrid DSM clusters and page-based software DSM (paper §1,
//! §4). The management is written once here, in [`Shared`] and
//! [`Node`]: the region directory, lockstep collective allocation,
//! single-node allocation, the four synchronisation verbs over the
//! cluster's one [`Driver`], the per-node counters and the one fatal
//! report. What differs between platforms is a [`DataPath`], a type
//! parameter rather than a `dyn`, so each platform's hit path stays
//! monomorphic: `hybriddsm::Uma` (SMP) and `hybriddsm::Numa` (the hybrid
//! DSM) move bytes through one physically shared [`RegionStore`],
//! `swdsm::Paged` (the software DSM) through its page table and home
//! stores.

use crate::syncproto::driver::{self, Driver, Platform, Pub};
use crate::syncproto::lock::Mode;
use crate::syncproto::Notices;
use crate::{Cluster, NodeCtx};
use interconnect::RequestError;
use memwire::{
    local_region, Access, Distribution, Engine, GlobalAddr, RegionDir, RegionId, RegionMeta,
    RegionStore, LOCAL_REGION_BASE, PAGE_SIZE,
};
use sim::{MachineCost, StatSet};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Barrier id reserved for collective allocation and orderly exit.
const ALLOC_BARRIER: u32 = 0x8000_0000;

/// What a barrier release wave carries on data path `P`.
pub type Wave<P> = <<P as DataPath>::Platform as Platform>::Wave;

/// How a platform moves a node's data: the access charges, the byte
/// movement and the consistency hooks that set one platform apart.
pub trait DataPath: Sized + Send + Sync + 'static {
    /// The synchronisation driver's platform: what rides the sync
    /// messages. `()` where memory is physically shared.
    type Platform: Platform;
    /// Install-time tunables.
    type Config;
    /// Per-node state of the data path.
    type State: Default + Send + Sync;
    /// The data path's own per-node counters; the synchronisation
    /// driver's ([`driver::STAT_NAMES`]) follow them in each node's set.
    const STAT_NAMES: &'static [&'static str];
    /// Index in [`DataPath::STAT_NAMES`] of the counter a read the
    /// engine charges as local bumps.
    const READS: usize = 0;
    /// [`DataPath::READS`] for writes.
    const WRITES: usize = 1;
    /// Collective regions are numbered from `REGION_BASE + 1`.
    const REGION_BASE: RegionId;

    /// The cluster-shared part of the data path over `cluster`, given
    /// the region directory and each node's counters it may keep.
    /// Registers the path's own message handlers, if it has any.
    fn new(cluster: &Cluster, cfg: Self::Config, dir: &Arc<RegionDir>, stats: &[StatSet]) -> Arc<Self>;

    /// The value the synchronisation driver's handlers hold.
    fn platform(path: &Arc<Self>) -> Arc<Self::Platform>;

    /// Charge a read of `len` bytes at `addr` that the data path serves
    /// remotely and return true; return false for a local one, which
    /// the engine then charges (after whatever the path charged here,
    /// such as the software DSM's access check). Every access is local
    /// by default.
    #[inline]
    fn charge_read(_node: &Node<Self>, _addr: GlobalAddr, _len: usize) -> bool {
        false
    }
    /// [`DataPath::charge_read`] for a write.
    #[inline]
    fn charge_write(_node: &Node<Self>, _addr: GlobalAddr, _len: usize) -> bool {
        false
    }
    /// Move the bytes of a charged read; by default out of the shared
    /// store.
    #[inline]
    fn read(node: &Node<Self>, addr: GlobalAddr, out: &mut [u8]) {
        node.shared.store.read_bytes(addr, out);
    }
    /// Move the bytes of a charged write; by default into the shared
    /// store.
    #[inline]
    fn write(node: &Node<Self>, addr: GlobalAddr, data: &[u8]) {
        node.shared.store.write_bytes(addr, data);
    }
    /// Back a new region of `bytes` at its home: called by the home of a
    /// collective region's first page and by the allocator of a
    /// single-node region. By default it is created in the shared store.
    fn back(node: &Node<Self>, region: RegionId, bytes: usize) {
        node.shared.store.create(region, bytes.div_ceil(PAGE_SIZE) * PAGE_SIZE);
    }
    /// Charge `bytes` of streaming traffic to node-private memory.
    fn private_traffic(node: &Node<Self>, bytes: u64);
    /// Make posted writes visible without synchronisation (a write
    /// buffer drain; [`Engine::flush`]). Runs first at every release
    /// and barrier.
    fn flush(_node: &Node<Self>) {}
    /// What a release (`barrier` false) or a barrier arrival publishes,
    /// taken after [`DataPath::flush`]; a barrier's span starts just
    /// before it. Nothing by default.
    fn publish(_node: &Node<Self>, _barrier: bool) -> Pub<Self::Platform> {
        Default::default()
    }
    /// Forget remote data cached this synchronisation interval.
    fn drop_cache(_node: &Node<Self>) {}
    /// Apply the notices a lock grant carried; by default drop the
    /// cache.
    fn on_grant(node: &Node<Self>, _notices: Notices<Wave<Self>>) {
        Self::drop_cache(node);
    }
    /// Apply a barrier's release wave; by default drop the cache.
    fn on_wave(node: &Node<Self>, _wave: Wave<Self>) {
        Self::drop_cache(node);
    }
}

/// Cluster-shared state of a platform.
pub struct Shared<P: DataPath> {
    path: Arc<P>,
    platform: Arc<P::Platform>,
    machine: MachineCost,
    dir: Arc<RegionDir>,
    store: Arc<RegionStore>,
    sync: Arc<Driver<P::Platform>>,
    stats: Vec<StatSet>,
}

impl<P: DataPath> Shared<P> {
    /// Create the platform over `cluster` (registers its handlers). Call
    /// once, before [`Cluster::run`].
    pub fn install(cluster: &Cluster, cfg: P::Config) -> Arc<Self> {
        let names = [P::STAT_NAMES, driver::STAT_NAMES].concat();
        let stats: Vec<StatSet> = (0..cluster.config().nodes).map(|_| StatSet::new(&names)).collect();
        let dir = Arc::new(RegionDir::new());
        let sync = Driver::new(cluster, stats.clone());
        let path = P::new(cluster, cfg, &dir, &stats);
        let platform = P::platform(&path);
        sync.register(cluster, platform.clone());
        Arc::new(Shared {
            path,
            platform,
            machine: cluster.config().cost.machine,
            dir,
            store: RegionStore::new(),
            sync,
            stats,
        })
    }

    /// Per-node statistics: [`DataPath::STAT_NAMES`], then the
    /// synchronisation driver's.
    pub fn stats(&self, node: usize) -> &StatSet {
        &self.stats[node]
    }

    /// The cluster-shared part of the data path.
    #[inline]
    pub fn path(&self) -> &P {
        &self.path
    }

    /// The synchronisation driver.
    pub fn driver(&self) -> &Driver<P::Platform> {
        &self.sync
    }

    /// Bind a per-node engine. One per node thread.
    pub fn node(self: &Arc<Self>, ctx: NodeCtx) -> Node<P> {
        Node {
            shared: self.clone(),
            ctx,
            state: P::State::default(),
            next_region: AtomicU32::new(P::REGION_BASE + 1),
            next_local: AtomicU32::new(0),
        }
    }
}

/// One node's engine: a [`memwire::Engine`] on every platform, so the
/// HAMSTER core holds any of them behind the same trait and the paper's
/// §5.4 experiments swap one for another through configuration only.
pub struct Node<P: DataPath> {
    shared: Arc<Shared<P>>,
    ctx: NodeCtx,
    state: P::State,
    /// Next collective region id; every node allocates in lockstep.
    next_region: AtomicU32,
    /// Next single-node region number of this rank.
    next_local: AtomicU32,
}

impl<P: DataPath> Node<P> {
    /// This node's rank.
    #[inline]
    pub fn rank(&self) -> usize {
        self.ctx.rank()
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.ctx.nodes()
    }

    /// The underlying node context (clock, compute charging).
    #[inline]
    pub fn ctx(&self) -> &NodeCtx {
        &self.ctx
    }

    /// The cluster-wide platform.
    #[inline]
    pub fn shared(&self) -> &Arc<Shared<P>> {
        &self.shared
    }

    /// The cluster-shared part of the data path.
    #[inline]
    pub fn path(&self) -> &P {
        &self.shared.path
    }

    /// This node's state of the data path.
    #[inline]
    pub fn state(&self) -> &P::State {
        &self.state
    }

    /// The node's machine cost model.
    #[inline]
    pub fn machine(&self) -> &MachineCost {
        &self.shared.machine
    }

    // ---- inherent forwards of the `Engine` methods the frozen ledger
    // benchmark calls without importing the traits ----------------------

    #[doc(hidden)] // ledger-pinned, goes with ROADMAP 11(b)
    pub fn alloc(&self, bytes: usize, dist: Distribution) -> GlobalAddr { Engine::alloc(self, bytes, dist) }
    #[doc(hidden)] // ledger-pinned, goes with ROADMAP 11(b)
    pub fn read_bytes(&self, addr: GlobalAddr, out: &mut [u8]) { Access::read_bytes(self, addr, out) }
    #[doc(hidden)] // ledger-pinned, goes with ROADMAP 11(b)
    pub fn read_u64(&self, addr: GlobalAddr) -> u64 { Access::read_u64(self, addr) }
    #[doc(hidden)] // ledger-pinned, goes with ROADMAP 11(b)
    pub fn write_u64(&self, addr: GlobalAddr, v: u64) { Access::write_u64(self, addr, v) }
    #[doc(hidden)] // ledger-pinned, goes with ROADMAP 11(b)
    pub fn acquire(&self, lock: u32) { Engine::acquire(self, lock) }
    #[doc(hidden)] // ledger-pinned, goes with ROADMAP 11(b)
    pub fn release(&self, lock: u32) { Engine::release(self, lock) }
    #[doc(hidden)] // ledger-pinned, goes with ROADMAP 11(b)
    pub fn barrier(&self, id: u32) { Engine::barrier(self, id) }

    /// Consistency action without synchronisation: flush and drop the
    /// remote cache. The mixed platform calls this when another
    /// engine's synchronisation provides the ordering.
    pub fn sync_point(&self) {
        P::flush(self);
        P::drop_cache(self);
    }

    /// Orderly exit: one final barrier, so all writes are home.
    pub fn exit(&self) {
        self.barrier(ALLOC_BARRIER);
    }

    /// Bump this node's counter at `idx` of [`DataPath::STAT_NAMES`].
    #[inline]
    pub fn count(&self, idx: usize, n: u64) {
        self.shared.stats[self.ctx.rank()].at(idx).add(n);
    }

    /// Emit a span `[t0, now]` of operation `op` into the global trace
    /// session, under the platform's module name.
    #[inline]
    pub fn trace_span(&self, t0: u64, op: &'static str, arg: u64) {
        if sim::trace::enabled() {
            let dur = self.ctx.clock().now().saturating_sub(t0);
            sim::trace::span(t0, dur, self.rank(), <P::Platform as Platform>::MODULE, op, arg);
        }
    }

    /// Whether this node is the home of the page containing `addr` by
    /// the region's distribution.
    #[inline]
    pub fn is_home(&self, addr: GlobalAddr) -> bool {
        let page = addr.page();
        self.shared.dir.meta(page.region).home_of(page.index, self.ctx.nodes()) == self.ctx.rank()
    }

    /// A local access, counted at `counter`: a word costs a cached
    /// access, anything larger streams as private traffic (the same rule
    /// on every platform).
    #[inline]
    fn local(&self, counter: usize, len: usize) {
        self.count(counter, 1);
        if len <= 64 {
            self.ctx.compute(self.shared.machine.local_access_ns);
        } else {
            P::private_traffic(self, len as u64);
        }
    }

    /// The one report of an unrecoverable synchronisation fault: a
    /// fatal fabric error, or transient faults outlasting every retry.
    #[cold]
    fn fatal(&self, op: &str, id: u32, e: RequestError) -> ! {
        let module = <P::Platform as Platform>::MODULE;
        panic!("{module} node {}: unrecoverable fault: {op} of {id} failed: {e}", self.rank())
    }

    fn acquire_mode(&self, lock: u32, mode: Mode) {
        let port = self.ctx.port();
        let t0 = port.clock().now();
        let notices =
            self.shared.sync.try_acquire(port, lock, mode).unwrap_or_else(|e| self.fatal("lock_acquire", lock, e));
        P::on_grant(self, notices);
        self.shared.sync.acquired(port, t0, lock);
    }
}

/// The data path charges a remote access, the engine a local one; the
/// data path moves the bytes.
impl<P: DataPath> Access for Node<P> {
    #[inline]
    fn read_bytes(&self, addr: GlobalAddr, out: &mut [u8]) {
        if !P::charge_read(self, addr, out.len()) {
            self.local(P::READS, out.len());
        }
        P::read(self, addr, out);
    }

    #[inline]
    fn write_bytes(&self, addr: GlobalAddr, data: &[u8]) {
        if !P::charge_write(self, addr, data.len()) {
            self.local(P::WRITES, data.len());
        }
        P::write(self, addr, data);
    }
}

impl<P: DataPath> Engine for Node<P> {
    /// Collective allocation (JiaJia/HLRC semantics): registers the
    /// region, backs it on the home of its first page, and joins the
    /// implicit barrier, which orders both before any access.
    fn alloc(&self, bytes: usize, dist: Distribution) -> GlobalAddr {
        let region = self.next_region.fetch_add(1, Ordering::Relaxed);
        assert!(region < LOCAL_REGION_BASE, "collective region ids exhausted");
        let addr = GlobalAddr::new(region, 0);
        self.shared.dir.register(region, RegionMeta::new(bytes, dist));
        if self.is_home(addr) {
            P::back(self, region, bytes);
        }
        self.barrier(ALLOC_BARRIER);
        addr
    }

    /// Single-node allocation: the caller registers the region, homed on
    /// itself, and backs it, with no barrier; the message that
    /// distributes the address orders both before any other node's
    /// access.
    fn alloc_local(&self, bytes: usize) -> GlobalAddr {
        let region = local_region(self.rank(), self.next_local.fetch_add(1, Ordering::Relaxed));
        self.adopt(GlobalAddr::new(region, 0), bytes, self.rank());
        P::back(self, region, bytes);
        GlobalAddr::new(region, 0)
    }

    /// Registers the same metadata locally; idempotent.
    fn adopt(&self, addr: GlobalAddr, bytes: usize, home: usize) {
        self.shared.dir.register(addr.region(), RegionMeta::new(bytes, Distribution::OnNode(home)));
    }

    fn acquire(&self, lock: u32) {
        self.acquire_mode(lock, Mode::Excl);
    }

    fn acquire_shared(&self, lock: u32) {
        self.acquire_mode(lock, Mode::Shared);
    }

    /// Flushes and publishes first, so the next holder observes this
    /// node's writes.
    fn release(&self, lock: u32) {
        P::flush(self);
        let publication = P::publish(self, false);
        self.shared
            .sync
            .try_release(self.ctx.port(), lock, publication)
            .unwrap_or_else(|e| self.fatal("lock_release", lock, e));
    }

    /// Flushes and publishes, waits for every node, and applies what the
    /// others published.
    fn barrier(&self, id: u32) {
        P::flush(self);
        let t0 = self.ctx.clock().now();
        let publication = P::publish(self, true);
        let sync = &self.shared.sync;
        sync.try_barrier(&self.shared.platform, self.ctx.port(), t0, id, publication, |wave| P::on_wave(self, wave))
            .unwrap_or_else(|e| self.fatal("barrier", id, e));
    }

    fn flush(&self) {
        P::flush(self);
    }

    fn private_traffic(&self, bytes: u64) {
        P::private_traffic(self, bytes);
    }
}
