//! The hybrid DSM's data path: hardware remote access over an SCI-style
//! SAN (NCC-NUMA).

use crate::node::{DataPath, Node, Shared};
use cluster::Cluster;
use memwire::{GlobalAddr, RegionId};
use parking_lot::Mutex;
use sim::SciAccessCost;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Base of the hybrid DSM's collective region-id space. Disjoint from
/// the software DSM's and the SMP's collective ids (small integers) and
/// from every engine's single-node ids (≥ [`memwire::LOCAL_REGION_BASE`]),
/// so both DSMs can coexist in one address space (the mixed platform of
/// the paper's §6).
pub const HYBRID_REGION_BASE: RegionId = 0x0040_0000;

/// Capacity of the modelled processor cache in 64-byte lines (512 KiB
/// L2).
const CACHE_LINES: usize = 8192;

/// Tunables of the hybrid DSM. The SAN's access costs are the cluster
/// cost model's `sci_access`.
#[derive(Debug, Clone, Copy)]
pub struct HybridConfig {
    /// Model the processor cache over remote mappings. The SCI-VM maps
    /// remote memory cacheably and flushes caches at consistency
    /// points, so re-reads of unchanged remote data within one
    /// synchronization interval hit the local cache. Disable for the
    /// strictly uncached NCC-NUMA behaviour.
    pub cache_remote_reads: bool,
}

impl Default for HybridConfig {
    fn default() -> Self {
        Self { cache_remote_reads: true }
    }
}

/// The hybrid DSM: a remote word read blocks for one SAN transaction, a
/// remote word write is posted through the write buffer (cheap to
/// issue, drained at release points), larger accesses use the SAN's
/// DMA path, and local bulk traffic streams through the node's own
/// memory bus.
pub struct Numa {
    cost: SciAccessCost,
    cache_remote_reads: bool,
}

/// Cluster-shared state of the hybrid DSM.
pub type HybridDsm = Shared<Numa>;
/// The per-node hybrid-DSM engine.
pub type HybridNode = Node<Numa>;

impl HybridDsm {
    /// Create the hybrid DSM over `cluster` (registers its sync
    /// handlers). Call once, before [`Cluster::run`].
    pub fn install(cluster: &Cluster, cfg: HybridConfig) -> Arc<HybridDsm> {
        let cost = cluster.config().cost.sci_access;
        Self::with_path(cluster, Numa { cost, cache_remote_reads: cfg.cache_remote_reads })
    }
}

const REMOTE_READS: usize = sim::stats::stat_index(Numa::STAT_NAMES, "remote_reads");
const REMOTE_WRITES: usize = sim::stats::stat_index(Numa::STAT_NAMES, "remote_writes");
const BULK_BYTES: usize = sim::stats::stat_index(Numa::STAT_NAMES, "bulk_bytes");
const FLUSHES: usize = sim::stats::stat_index(Numa::STAT_NAMES, "flushes");

/// Per-node state of the hybrid DSM's data path.
#[derive(Default)]
pub struct NumaState {
    /// Writes posted to the SAN write buffer since the last flush.
    pending_writes: AtomicU64,
    /// Remote lines present in the (modelled) processor cache this
    /// synchronization interval.
    cache: Mutex<LineCache>,
}

impl DataPath for Numa {
    const STAT_NAMES: &'static [&'static str] =
        &["local_reads", "local_writes", "remote_reads", "remote_writes", "bulk_bytes", "flushes"];
    const REGION_BASE: RegionId = HYBRID_REGION_BASE;
    type State = NumaState;

    /// Remote lines all present in the modelled cache read as local.
    #[inline]
    fn remote_read(node: &Node<Self>, addr: GlobalAddr, len: usize) -> bool {
        if node.is_home(addr) {
            return false;
        }
        let (a, lines) = (&node.shared.path.cost, len.div_ceil(64).max(1) as u64);
        // Count cache misses among the 64-byte lines spanned.
        let missed_lines = if node.shared.path.cache_remote_reads {
            node.state.cache.lock().touch(addr.0 / 64, lines, CACHE_LINES)
        } else {
            lines
        };
        if missed_lines == 0 {
            return false;
        }
        let t0 = node.ctx().clock().now();
        node.count(REMOTE_READS, 1);
        if len <= 64 {
            node.ctx().compute(a.remote_read_ns);
            trace_span(node, t0, "sci_read", len as u64);
        } else {
            let missed_bytes = (missed_lines * 64).min(len as u64) as usize;
            node.count(BULK_BYTES, missed_bytes as u64);
            node.ctx().compute(
                a.bulk_setup_ns
                    + transfer_ns(missed_bytes, a.bulk_bytes_per_sec)
                    + node.shared.machine.local_access_ns * (lines - missed_lines),
            );
            trace_span(node, t0, "sci_bulk_read", missed_bytes as u64);
        }
        true
    }

    #[inline]
    fn remote_write(node: &Node<Self>, addr: GlobalAddr, len: usize) -> bool {
        if node.is_home(addr) {
            return false;
        }
        let (a, t0) = (&node.shared.path.cost, node.ctx().clock().now());
        node.count(REMOTE_WRITES, 1);
        if len <= 64 {
            node.state.pending_writes.fetch_add(1, Ordering::Relaxed);
            node.ctx().compute(a.remote_write_ns);
            trace_span(node, t0, "sci_write", len as u64);
        } else {
            node.count(BULK_BYTES, len as u64);
            node.ctx().compute(a.bulk_setup_ns + transfer_ns(len, a.bulk_bytes_per_sec));
            trace_span(node, t0, "sci_bulk_write", len as u64);
        }
        true
    }

    fn private_traffic(node: &Node<Self>, bytes: u64) {
        node.ctx().bus_transfer(bytes);
    }

    /// Drain the SAN write buffer (store barrier). Charged per pending
    /// posted write, capped at the buffer's depth.
    fn flush(node: &Node<Self>) {
        let pending = node.state.pending_writes.swap(0, Ordering::Relaxed);
        if pending > 0 {
            node.count(FLUSHES, 1);
            let (a, t0) = (&node.shared.path.cost, node.ctx().clock().now());
            node.ctx().compute((pending * a.flush_per_write_ns).min(a.flush_max_ns));
            trace_span(node, t0, "flush", pending);
        }
    }

    /// Entering a new synchronization interval may expose peers' writes.
    fn drop_cache(node: &Node<Self>) {
        if node.shared.path.cache_remote_reads {
            node.state.cache.lock().clear();
        }
    }
}

/// Emit an SCI transaction span `[t0, now]` into the global trace.
fn trace_span(node: &HybridNode, t0: u64, op: &'static str, arg: u64) {
    if sim::trace::enabled() {
        let now = node.ctx().clock().now();
        sim::trace::span(t0, now.saturating_sub(t0), node.rank(), "hybriddsm", op, arg);
    }
}

fn transfer_ns(bytes: usize, per_sec: u64) -> u64 {
    (bytes as u128 * 1_000_000_000u128 / per_sec as u128) as u64
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
        for capacity in [CACHE_LINES, 300, 64, 1] {
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
            assert!(evictions > 0 || capacity == CACHE_LINES, "capacity {capacity} never evicted");
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
