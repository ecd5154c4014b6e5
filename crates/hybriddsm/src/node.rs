//! The hybrid-DSM engine: software memory management over hardware
//! remote access.

use cluster::syncproto::driver::Driver;
use cluster::syncproto::lock::Mode;
use cluster::{Cluster, NodeCtx};
use memwire::{
    local_region, Access, Distribution, Engine, GlobalAddr, RegionDir, RegionMeta, RegionStore,
    PAGE_SIZE,
};
use parking_lot::Mutex;
use sim::{MachineCost, SciAccessCost, StatSet};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Barrier id reserved for collective allocation.
const ALLOC_BARRIER: u32 = 0x8000_0000;

/// Base of the hybrid DSM's collective region-id space. Disjoint from
/// the software DSM's collective ids (small integers) and from every
/// engine's single-node ids (≥ [`memwire::LOCAL_REGION_BASE`]), so both
/// engines can coexist in one address space (the mixed platform of the
/// paper's §6).
pub const HYBRID_REGION_BASE: u32 = 0x0040_0000;

/// Tunables of the hybrid DSM (the SAN's access characteristics).
#[derive(Debug, Clone, Copy)]
pub struct HybridConfig {
    /// Remote-access cost model; defaults to Dolphin SCI.
    pub access: SciAccessCost,
    /// Model the processor cache over remote mappings. The SCI-VM maps
    /// remote memory cacheably and flushes caches at consistency
    /// points, so re-reads of unchanged remote data within one
    /// synchronization interval hit the local cache. Disable for the
    /// strictly uncached NCC-NUMA behaviour.
    pub cache_remote_reads: bool,
    /// Capacity of the modelled cache in 64-byte lines (512 KiB L2).
    pub cache_lines: usize,
}

impl Default for HybridConfig {
    fn default() -> Self {
        Self {
            access: SciAccessCost::dolphin(),
            cache_remote_reads: true,
            cache_lines: 8192,
        }
    }
}

/// Per-node statistics of the hybrid DSM.
pub const STAT_NAMES: &[&str] = &[
    "local_reads",
    "local_writes",
    "remote_reads",
    "remote_writes",
    "bulk_bytes",
    "flushes",
    "lock_acquires",
    "barriers",
    "view_changes",
];

/// Indices of the counters the access path bumps (checked at compile
/// time).
const LOCAL_READS: usize = sim::stats::stat_index(STAT_NAMES, "local_reads");
const LOCAL_WRITES: usize = sim::stats::stat_index(STAT_NAMES, "local_writes");
const REMOTE_READS: usize = sim::stats::stat_index(STAT_NAMES, "remote_reads");
const REMOTE_WRITES: usize = sim::stats::stat_index(STAT_NAMES, "remote_writes");
const BULK_BYTES: usize = sim::stats::stat_index(STAT_NAMES, "bulk_bytes");

/// Cluster-shared state of the hybrid DSM.
pub struct HybridDsm {
    cfg: HybridConfig,
    nodes: usize,
    machine: MachineCost,
    dir: RegionDir,
    store: Arc<RegionStore>,
    sync: Arc<Driver<()>>,
    stats: Vec<StatSet>,
}

impl HybridDsm {
    /// Create the hybrid DSM over `cluster` (registers its sync
    /// handlers). Call once, before [`Cluster::run`].
    pub fn install(cluster: &Cluster, cfg: HybridConfig) -> Arc<HybridDsm> {
        let nodes = cluster.config().nodes;
        let sync = Driver::new(cluster);
        sync.register(cluster, Arc::new(()));
        Arc::new(HybridDsm {
            cfg,
            nodes,
            machine: cluster.config().cost.machine,
            dir: RegionDir::new(),
            store: RegionStore::new(),
            sync,
            stats: (0..nodes).map(|_| StatSet::new(STAT_NAMES)).collect(),
        })
    }

    /// Per-node statistics.
    pub fn stats(&self, node: usize) -> &StatSet {
        &self.stats[node]
    }

    /// Home node of the page containing `addr`.
    pub fn home_of(&self, addr: GlobalAddr) -> usize {
        let page = addr.page();
        self.dir.meta(page.region).home_of(page.index, self.nodes)
    }

    /// The physically shared store (used by tests and the SMP platform).
    pub fn store(&self) -> &Arc<RegionStore> {
        &self.store
    }

    /// Bind a per-node engine.
    pub fn node(self: &Arc<Self>, ctx: NodeCtx) -> HybridNode {
        HybridNode {
            dsm: self.clone(),
            rank: ctx.rank(),
            ctx,
            pending_writes: AtomicU64::new(0),
            next_region: Mutex::new(HYBRID_REGION_BASE + 1),
            next_local: AtomicU32::new(0),
            cache: Mutex::new(LineCache::default()),
        }
    }
}

/// The per-node hybrid-DSM engine.
///
/// A [`memwire::Engine`] like `swdsm::DsmNode`: the HAMSTER core holds
/// either behind the same trait, and the paper's §5.4 experiments swap
/// one for the other through configuration only.
pub struct HybridNode {
    dsm: Arc<HybridDsm>,
    rank: usize,
    ctx: NodeCtx,
    /// Writes posted to the SAN write buffer since the last flush.
    pending_writes: AtomicU64,
    next_region: Mutex<u32>,
    /// Next single-node region number of this rank.
    next_local: AtomicU32,
    /// Remote lines present in the (modelled) processor cache this
    /// synchronization interval.
    cache: Mutex<LineCache>,
}

/// Lines of the modelled cache per mask word: one 4 KiB block.
const BLOCK_LINES: u64 = u64::BITS as u64;

/// The set of 64-byte lines present in the modelled processor cache:
/// one presence mask per 4 KiB block and a running count, so a bulk
/// read costs a map operation per block it spans, not per line.
#[derive(Default)]
struct LineCache {
    blocks: HashMap<u64, u64>,
    len: usize,
}

impl LineCache {
    /// Bring lines `[first, first + lines)` in and return how many were
    /// missing. A cache that could not hold them all on top of what it
    /// has starts over first (epoch eviction: crude LRU).
    fn touch(&mut self, first: u64, lines: u64, capacity: usize) -> u64 {
        if self.len + lines as usize > capacity {
            self.clear();
        }
        let (mut line, end, mut missed) = (first, first + lines, 0);
        while line < end {
            let bit = line % BLOCK_LINES;
            let n = (BLOCK_LINES - bit).min(end - line);
            let wanted = (u64::MAX >> (BLOCK_LINES - n)) << bit;
            let present = self.blocks.entry(line / BLOCK_LINES).or_insert(0);
            missed += (wanted & !*present).count_ones() as u64;
            *present |= wanted;
            line += n;
        }
        self.len += missed as usize;
        missed
    }

    fn clear(&mut self) {
        self.blocks.clear();
        self.len = 0;
    }
}

impl HybridNode {
    /// This node's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.dsm.nodes
    }

    /// The underlying node context.
    pub fn ctx(&self) -> &NodeCtx {
        &self.ctx
    }

    /// The cluster-wide DSM instance.
    pub fn dsm(&self) -> &Arc<HybridDsm> {
        &self.dsm
    }

    fn stat(&self, name: &str, n: u64) {
        self.dsm.stats[self.rank].add(name, n);
    }

    /// Bump the access-path counter at `idx` (one of the constants
    /// above [`HybridNode`]).
    #[inline]
    fn count(&self, idx: usize, n: u64) {
        self.dsm.stats[self.rank].at(idx).add(n);
    }

    /// Emit an SCI transaction span `[t0, now]` into the global trace.
    #[inline]
    fn trace_span(&self, t0: u64, op: &'static str, arg: u64) {
        if sim::trace::enabled() {
            let now = self.ctx.clock().now();
            sim::trace::span(t0, now.saturating_sub(t0), self.rank, "hybriddsm", op, arg);
        }
    }

    // ---- inherent forwards of the `Engine` methods the frozen ledger
    // benchmark calls without importing the traits ----------------------

    #[doc(hidden)] // ledger-pinned, goes with ROADMAP 11(b)
    pub fn alloc(&self, bytes: usize, dist: Distribution) -> GlobalAddr { Engine::alloc(self, bytes, dist) }
    #[doc(hidden)] // ledger-pinned, goes with ROADMAP 11(b)
    pub fn read_u64(&self, addr: GlobalAddr) -> u64 { Access::read_u64(self, addr) }
    #[doc(hidden)] // ledger-pinned, goes with ROADMAP 11(b)
    pub fn barrier(&self, id: u32) { Engine::barrier(self, id) }

    // ---- access ------------------------------------------------------

    fn is_local(&self, addr: GlobalAddr) -> bool {
        self.dsm.home_of(addr) == self.rank
    }

    /// Local access: cached word, or bulk streaming through the node's
    /// memory bus (consistent accounting across all platforms).
    fn charge_local(&self, len: usize) {
        if len <= 64 {
            self.ctx.compute(self.dsm.machine.local_access_ns);
        } else {
            self.ctx.bus_transfer(len as u64);
        }
    }

    fn charge_read(&self, addr: GlobalAddr, len: usize) {
        let a = &self.dsm.cfg.access;
        let lines = len.div_ceil(64).max(1) as u64;
        if self.is_local(addr) {
            self.count(LOCAL_READS, 1);
            self.charge_local(len);
            return;
        }
        // Count cache misses among the 64-byte lines spanned.
        let missed_lines = if self.dsm.cfg.cache_remote_reads {
            self.cache.lock().touch(addr.0 / 64, lines, self.dsm.cfg.cache_lines)
        } else {
            lines
        };
        if missed_lines == 0 {
            self.count(LOCAL_READS, 1);
            self.charge_local(len);
        } else if len <= 64 {
            self.count(REMOTE_READS, 1);
            let t0 = self.ctx.clock().now();
            self.ctx.compute(a.remote_read_ns);
            self.trace_span(t0, "sci_read", len as u64);
        } else {
            self.count(REMOTE_READS, 1);
            let missed_bytes = (missed_lines * 64).min(len as u64) as usize;
            self.count(BULK_BYTES, missed_bytes as u64);
            let t0 = self.ctx.clock().now();
            self.ctx.compute(
                a.bulk_setup_ns
                    + transfer_ns(missed_bytes, a.bulk_bytes_per_sec)
                    + self.dsm.machine.local_access_ns * (lines - missed_lines),
            );
            self.trace_span(t0, "sci_bulk_read", missed_bytes as u64);
        }
    }

    fn charge_write(&self, addr: GlobalAddr, len: usize) {
        let a = &self.dsm.cfg.access;
        if self.is_local(addr) {
            self.count(LOCAL_WRITES, 1);
            self.charge_local(len);
        } else if len <= 64 {
            self.count(REMOTE_WRITES, 1);
            self.pending_writes.fetch_add(1, Ordering::Relaxed);
            let t0 = self.ctx.clock().now();
            self.ctx.compute(a.remote_write_ns);
            self.trace_span(t0, "sci_write", len as u64);
        } else {
            self.count(REMOTE_WRITES, 1);
            self.count(BULK_BYTES, len as u64);
            let t0 = self.ctx.clock().now();
            self.ctx.compute(a.bulk_setup_ns + transfer_ns(len, a.bulk_bytes_per_sec));
            self.trace_span(t0, "sci_bulk_write", len as u64);
        }
    }

    // ---- consistency / synchronization -------------------------------

    /// Invalidate the modelled remote-read cache (entering a new
    /// synchronization interval may expose peers' writes).
    fn drop_cache(&self) {
        if self.dsm.cfg.cache_remote_reads {
            self.cache.lock().clear();
        }
    }

    /// Consistency action without synchronization: drain the write
    /// buffer and drop the remote-read cache. The mixed platform calls
    /// this when another engine's synchronization provides the ordering.
    pub fn sync_point(&self) {
        self.flush();
        self.drop_cache();
    }

    /// Re-enter the computation after a membership view change (the
    /// elastic-membership mirror of `swdsm::DsmNode::rejoin`). The
    /// hybrid DSM is write-through with no page cache, so catching up
    /// needs no state transfer: drop the stale remote-read cache, drain
    /// the write buffer, and re-synchronize at `id`. Returns the virtual
    /// time the rejoin took.
    pub fn rejoin(&self, id: u32) -> u64 {
        let t0 = self.ctx.clock().now();
        self.stat("view_changes", 1);
        self.sync_point();
        self.barrier(id);
        self.ctx.clock().now().saturating_sub(t0)
    }

    /// Orderly exit.
    pub fn exit(&self) {
        self.barrier(ALLOC_BARRIER);
    }
}

/// Word-granularity reads from a remote home block for one SAN
/// transaction each, remote word writes are posted (cheap to issue), and
/// larger accesses use the SAN's DMA path.
impl Access for HybridNode {
    fn read_bytes(&self, addr: GlobalAddr, out: &mut [u8]) {
        self.charge_read(addr, out.len());
        self.dsm.store.read_bytes(addr, out);
    }

    fn write_bytes(&self, addr: GlobalAddr, data: &[u8]) {
        self.charge_write(addr, data.len());
        self.dsm.store.write_bytes(addr, data);
    }
}

impl Engine for HybridNode {
    /// Collective allocation (same lockstep contract as the software
    /// DSM): registers the region, materializes the physically shared
    /// backing, and joins the implicit barrier.
    fn alloc(&self, bytes: usize, dist: Distribution) -> GlobalAddr {
        let region = {
            let mut g = self.next_region.lock();
            let id = *g;
            *g += 1;
            id
        };
        self.dsm.dir.register(region, RegionMeta::new(bytes, dist));
        // Exactly one participant creates the backing store; the barrier
        // below orders creation before any access.
        if self.dsm.dir.meta(region).home_of(0, self.dsm.nodes) == self.rank {
            self.dsm.store.create(region, bytes.div_ceil(PAGE_SIZE) * PAGE_SIZE);
        }
        self.barrier(ALLOC_BARRIER);
        GlobalAddr::new(region, 0)
    }

    /// Single-node allocation: the caller registers the region, homed on
    /// itself, and creates its backing; the message that distributes the
    /// address orders both before any other node's access.
    fn alloc_local(&self, bytes: usize) -> GlobalAddr {
        let region = local_region(self.rank, self.next_local.fetch_add(1, Ordering::Relaxed));
        self.adopt(GlobalAddr::new(region, 0), bytes, self.rank);
        self.dsm.store.create(region, bytes.div_ceil(PAGE_SIZE) * PAGE_SIZE);
        GlobalAddr::new(region, 0)
    }

    fn adopt(&self, addr: GlobalAddr, bytes: usize, home: usize) {
        self.dsm.dir.register(addr.region(), RegionMeta::new(bytes, Distribution::OnNode(home)));
    }

    fn acquire(&self, lock: u32) {
        self.stat("lock_acquires", 1);
        self.dsm.sync.acquire(self.ctx.port(), lock, Mode::Excl);
        self.drop_cache();
    }

    fn acquire_shared(&self, lock: u32) {
        self.stat("lock_acquires", 1);
        self.dsm.sync.acquire(self.ctx.port(), lock, Mode::Shared);
        self.drop_cache();
    }

    /// Flushes posted writes first, so the next holder observes them.
    fn release(&self, lock: u32) {
        self.flush();
        self.dsm.sync.release(self.ctx.port(), lock);
    }

    /// Flushes posted writes first.
    fn barrier(&self, id: u32) {
        self.stat("barriers", 1);
        self.flush();
        self.dsm.sync.barrier(self.ctx.port(), id);
        self.drop_cache();
    }

    /// Drain the SAN write buffer (store barrier). Charged per pending
    /// posted write, capped at the buffer's depth.
    fn flush(&self) {
        let pending = self.pending_writes.swap(0, Ordering::Relaxed);
        if pending > 0 {
            self.stat("flushes", 1);
            let a = &self.dsm.cfg.access;
            let t0 = self.ctx.clock().now();
            self.ctx.compute((pending * a.flush_per_write_ns).min(a.flush_max_ns));
            self.trace_span(t0, "flush", pending);
        }
    }

    fn private_traffic(&self, bytes: u64) {
        self.ctx.bus_transfer(bytes);
    }
}

fn transfer_ns(bytes: usize, per_sec: u64) -> u64 {
    (bytes as u128 * 1_000_000_000u128 / per_sec as u128) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::collections::HashSet;

    /// The line-at-a-time set the masks replaced, kept as the oracle.
    fn touch_model(cache: &mut HashSet<u64>, first: u64, lines: u64, capacity: usize) -> u64 {
        if cache.len() + lines as usize > capacity {
            cache.clear();
        }
        (0..lines).filter(|i| cache.insert(first + i)).count() as u64
    }

    #[test]
    fn line_masks_match_the_line_set_model() {
        let mut rng = StdRng::seed_from_u64(18);
        for capacity in [8192usize, 300, 64, 1] {
            let (mut cache, mut model) = (LineCache::default(), HashSet::new());
            let mut evictions = 0;
            for _ in 0..4_000 {
                // Word reads, rows that cross block boundaries, and the
                // odd read larger than the whole cache; a small window of
                // addresses so re-reads hit.
                let first = rng.gen_range(0..1_000u64);
                let lines = match rng.gen_range(0..4u32) {
                    0 => 1,
                    1 => rng.gen_range(1..8u64),
                    2 => rng.gen_range(60..200u64),
                    _ => rng.gen_range(1..400u64),
                };
                let before = model.len();
                let want = touch_model(&mut model, first, lines, capacity);
                evictions += usize::from(model.len() < before + want as usize);
                assert_eq!(cache.touch(first, lines, capacity), want, "{first}+{lines}");
                assert_eq!(cache.len, model.len());
            }
            assert!(evictions > 0 || capacity == 8192, "capacity {capacity} never evicted");
        }
    }

    #[test]
    fn masks_cover_exactly_the_lines_touched() {
        let mut cache = LineCache::default();
        assert_eq!(cache.touch(63, 2, 100), 2, "last line of one block, first of the next");
        assert_eq!(cache.blocks, HashMap::from([(0, 1 << 63), (1, 1)]));
        assert_eq!(cache.touch(0, 128, 200), 126, "two whole blocks, two lines already present");
        assert_eq!(cache.blocks, HashMap::from([(0, u64::MAX), (1, u64::MAX)]));
        assert_eq!(cache.len, 128);
        assert_eq!(cache.touch(127, 2, 129), 2, "130 lines do not fit 129: start over");
        assert_eq!(cache.len, 2);
    }
}
