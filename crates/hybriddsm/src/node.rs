//! The store-backed engine of the hardware data paths: software memory
//! and synchronisation management over one physically shared
//! [`RegionStore`], generic over how the hardware moves the data.
//!
//! Paper §3.2 treats SMPs and SCI-VM clusters alike as tightly coupled
//! platforms: the hardware moves the data, HAMSTER only manages memory
//! and synchronisation. That management — the region directory, the
//! lockstep collective allocation, single-node allocation, the four
//! synchronisation verbs over the cluster's one driver and the
//! per-node counters — is written once here, in [`Shared`] and
//! [`Node`]. What differs is a [`DataPath`], a type parameter rather
//! than a `dyn`, so each platform's hit path stays monomorphic:
//! [`Uma`](crate::Uma) (SMP) and [`Numa`](crate::Numa) (the hybrid DSM).

use cluster::syncproto::driver::{self, Driver};
use cluster::syncproto::lock::Mode;
use cluster::{Cluster, NodeCtx};
use memwire::{
    local_region, Access, Distribution, Engine, GlobalAddr, RegionDir, RegionId, RegionMeta,
    RegionStore, PAGE_SIZE,
};
use sim::{MachineCost, StatSet};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Barrier id reserved for collective allocation.
const ALLOC_BARRIER: u32 = 0x8000_0000;

/// Index of the local read counter in every [`DataPath::STAT_NAMES`].
const LOCAL_READS: usize = 0;
/// Index of the local write counter in every [`DataPath::STAT_NAMES`].
const LOCAL_WRITES: usize = 1;

/// How the hardware moves a node's data: the access charges and
/// consistency hooks that set one platform apart from the other.
pub trait DataPath: Sized + Send + Sync + 'static {
    /// The data path's own per-node counters. The first two count local
    /// reads and writes; the synchronisation driver's
    /// ([`driver::STAT_NAMES`]) follow them in each node's set.
    const STAT_NAMES: &'static [&'static str];
    /// Collective regions are numbered from `REGION_BASE + 1`.
    const REGION_BASE: RegionId;
    /// Per-node state of the data path.
    type State: Default + Send + Sync;

    /// Charge a read of `len` bytes at `addr` that the hardware serves
    /// remotely and return true; return false for a local one, which the
    /// engine charges. Every access is local by default.
    fn remote_read(_node: &Node<Self>, _addr: GlobalAddr, _len: usize) -> bool {
        false
    }
    /// [`DataPath::remote_read`] for a write.
    fn remote_write(_node: &Node<Self>, _addr: GlobalAddr, _len: usize) -> bool {
        false
    }
    /// Charge `bytes` of streaming traffic to node-private memory.
    fn private_traffic(node: &Node<Self>, bytes: u64);
    /// Make the node's writes visible to the others (release points).
    fn flush(_node: &Node<Self>) {}
    /// Forget remote data cached this synchronisation interval
    /// (acquire points).
    fn drop_cache(_node: &Node<Self>) {}
}

/// Cluster-shared state of a store-backed platform.
pub struct Shared<P: DataPath> {
    pub(crate) path: P,
    pub(crate) machine: MachineCost,
    dir: RegionDir,
    store: Arc<RegionStore>,
    sync: Arc<Driver<()>>,
    stats: Vec<StatSet>,
}

impl<P: DataPath> Shared<P> {
    /// Create the platform over `cluster` with data path `path`
    /// (registers its sync handlers). Call once, before [`Cluster::run`].
    pub(crate) fn with_path(cluster: &Cluster, path: P) -> Arc<Self> {
        let names = [P::STAT_NAMES, driver::STAT_NAMES].concat();
        let stats: Vec<StatSet> = (0..cluster.config().nodes).map(|_| StatSet::new(&names)).collect();
        let sync = Driver::new(cluster, stats.clone());
        sync.register(cluster, Arc::new(()));
        Arc::new(Shared {
            path,
            machine: cluster.config().cost.machine,
            dir: RegionDir::new(),
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

    /// Bind a per-node engine.
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

/// One node's engine on a store-backed platform.
///
/// A [`memwire::Engine`] like `swdsm::DsmNode`: the HAMSTER core holds
/// either behind the same trait, and the paper's §5.4 experiments swap
/// one for the other through configuration only.
pub struct Node<P: DataPath> {
    pub(crate) shared: Arc<Shared<P>>,
    ctx: NodeCtx,
    pub(crate) state: P::State,
    /// Next collective region id; every node allocates in lockstep.
    next_region: AtomicU32,
    /// Next single-node region number of this rank.
    next_local: AtomicU32,
}

impl<P: DataPath> Node<P> {
    /// This node's rank.
    pub fn rank(&self) -> usize {
        self.ctx.rank()
    }

    /// The underlying node context.
    pub fn ctx(&self) -> &NodeCtx {
        &self.ctx
    }

    // ---- inherent forwards of the `Engine` methods the frozen ledger
    // benchmark calls without importing the traits ----------------------

    #[doc(hidden)] // ledger-pinned, goes with ROADMAP 11(b)
    pub fn alloc(&self, bytes: usize, dist: Distribution) -> GlobalAddr { Engine::alloc(self, bytes, dist) }
    #[doc(hidden)] // ledger-pinned, goes with ROADMAP 11(b)
    pub fn read_u64(&self, addr: GlobalAddr) -> u64 { Access::read_u64(self, addr) }
    #[doc(hidden)] // ledger-pinned, goes with ROADMAP 11(b)
    pub fn barrier(&self, id: u32) { Engine::barrier(self, id) }

    /// Consistency action without synchronisation: flush and drop the
    /// remote cache. The mixed platform calls this when another
    /// engine's synchronisation provides the ordering.
    pub fn sync_point(&self) {
        P::flush(self);
        P::drop_cache(self);
    }

    /// Bump this node's counter at `idx` of [`DataPath::STAT_NAMES`].
    #[inline]
    pub(crate) fn count(&self, idx: usize, n: u64) {
        self.shared.stats[self.ctx.rank()].at(idx).add(n);
    }

    /// Whether this node is the home of the page containing `addr`.
    pub(crate) fn is_home(&self, addr: GlobalAddr) -> bool {
        let page = addr.page();
        self.shared.dir.meta(page.region).home_of(page.index, self.ctx.nodes()) == self.ctx.rank()
    }

    /// A local access, counted at `counter`: a word costs a cached
    /// access, anything larger streams as private traffic (the same rule
    /// on every platform).
    fn local(&self, counter: usize, len: usize) {
        self.count(counter, 1);
        if len <= 64 {
            self.ctx.compute(self.shared.machine.local_access_ns);
        } else {
            P::private_traffic(self, len as u64);
        }
    }
}

/// The data path charges a remote access, the engine a local one; the
/// bytes always move through the shared store.
impl<P: DataPath> Access for Node<P> {
    fn read_bytes(&self, addr: GlobalAddr, out: &mut [u8]) {
        if !P::remote_read(self, addr, out.len()) {
            self.local(LOCAL_READS, out.len());
        }
        self.shared.store.read_bytes(addr, out);
    }

    fn write_bytes(&self, addr: GlobalAddr, data: &[u8]) {
        if !P::remote_write(self, addr, data.len()) {
            self.local(LOCAL_WRITES, data.len());
        }
        self.shared.store.write_bytes(addr, data);
    }
}

impl<P: DataPath> Engine for Node<P> {
    /// Collective allocation (same lockstep contract as the software
    /// DSM): registers the region, materialises the backing on the home
    /// of its first page, and joins the implicit barrier, which orders
    /// that creation before any access.
    fn alloc(&self, bytes: usize, dist: Distribution) -> GlobalAddr {
        let addr = GlobalAddr::new(self.next_region.fetch_add(1, Ordering::Relaxed), 0);
        self.shared.dir.register(addr.region(), RegionMeta::new(bytes, dist));
        if self.is_home(addr) {
            self.shared.store.create(addr.region(), bytes.div_ceil(PAGE_SIZE) * PAGE_SIZE);
        }
        self.barrier(ALLOC_BARRIER);
        addr
    }

    /// Single-node allocation: the caller registers the region, homed on
    /// itself, and creates its backing, with no barrier; the message
    /// that distributes the address orders both before any other node's
    /// access.
    fn alloc_local(&self, bytes: usize) -> GlobalAddr {
        let region = local_region(self.rank(), self.next_local.fetch_add(1, Ordering::Relaxed));
        self.adopt(GlobalAddr::new(region, 0), bytes, self.rank());
        self.shared.store.create(region, bytes.div_ceil(PAGE_SIZE) * PAGE_SIZE);
        GlobalAddr::new(region, 0)
    }

    fn adopt(&self, addr: GlobalAddr, bytes: usize, home: usize) {
        self.shared.dir.register(addr.region(), RegionMeta::new(bytes, Distribution::OnNode(home)));
    }

    fn acquire(&self, lock: u32) {
        self.shared.sync.acquire(self.ctx.port(), lock, Mode::Excl);
        P::drop_cache(self);
    }

    fn acquire_shared(&self, lock: u32) {
        self.shared.sync.acquire(self.ctx.port(), lock, Mode::Shared);
        P::drop_cache(self);
    }

    /// Flushes first, so the next holder observes this node's writes.
    fn release(&self, lock: u32) {
        P::flush(self);
        self.shared.sync.release(self.ctx.port(), lock);
    }

    /// Flushes first.
    fn barrier(&self, id: u32) {
        P::flush(self);
        self.shared.sync.barrier(self.ctx.port(), id);
        P::drop_cache(self);
    }

    fn flush(&self) {
        P::flush(self);
    }

    fn private_traffic(&self, bytes: u64) {
        P::private_traffic(self, bytes);
    }
}
