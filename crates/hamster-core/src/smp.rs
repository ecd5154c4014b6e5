//! The hardware-shared-memory platform (SMP).
//!
//! Paper §3.2, "tightly coupled implementations": the OS provides memory
//! allocation and synchronization, the hardware provides coherence, so
//! no explicit consistency control is required. In the simulation the
//! CPUs of the multiprocessor appear as "nodes" of a loopback fabric
//! (the paper's process-parallel mapping of SMPs, §3.3); all of them
//! address one [`RegionStore`] and share one memory [`Bus`] — the shared
//! bus is what makes the memory-bound MatMult of Figure 4 slower here
//! than on two cluster nodes.

use cluster::syncproto::driver::{self, Driver};
use cluster::syncproto::lock::Mode;
use cluster::{Cluster, NodeCtx};
use memwire::{
    local_region, Access, Distribution, Engine, GlobalAddr, RegionDir, RegionMeta, RegionStore,
    PAGE_SIZE,
};
use parking_lot::Mutex;
use sim::{Bus, MachineCost, StatSet};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Barrier id reserved for collective allocation.
const ALLOC_BARRIER: u32 = 0x8000_0000;

/// The SMP platform's own per-CPU statistics; each CPU's set continues
/// with the synchronisation driver's ([`driver::STAT_NAMES`]).
pub const STAT_NAMES: &[&str] = &["reads", "writes", "bulk_bytes"];

/// Indices of the counters the access path bumps (checked at compile
/// time).
const READS: usize = sim::stats::stat_index(STAT_NAMES, "reads");
const WRITES: usize = sim::stats::stat_index(STAT_NAMES, "writes");
const BULK_BYTES: usize = sim::stats::stat_index(STAT_NAMES, "bulk_bytes");

/// Shared state of the SMP platform.
pub struct SmpShared {
    machine: MachineCost,
    dir: RegionDir,
    store: Arc<RegionStore>,
    sync: Arc<Driver<()>>,
    /// The single memory bus all CPUs contend on.
    bus: Bus,
    stats: Vec<StatSet>,
}

impl SmpShared {
    /// Create the platform over `cluster` (whose "nodes" are the CPUs;
    /// use a loopback fabric).
    pub fn install(cluster: &Cluster) -> Arc<SmpShared> {
        let machine = cluster.config().cost.machine;
        let names = [STAT_NAMES, driver::STAT_NAMES].concat();
        let stats: Vec<StatSet> = (0..cluster.config().nodes).map(|_| StatSet::new(&names)).collect();
        let sync = Driver::new(cluster, stats.clone());
        sync.register(cluster, Arc::new(()));
        Arc::new(SmpShared {
            machine,
            dir: RegionDir::new(),
            store: RegionStore::new(),
            sync,
            bus: Bus::with_bandwidth(machine.mem_bus_bytes_per_sec),
            stats,
        })
    }

    /// Per-CPU statistics: [`STAT_NAMES`], then the synchronisation
    /// driver's.
    pub fn stats(&self, cpu: usize) -> &StatSet {
        &self.stats[cpu]
    }

    /// Bind a per-CPU engine.
    pub fn node(self: &Arc<Self>, ctx: NodeCtx) -> SmpNode {
        SmpNode {
            shared: self.clone(),
            rank: ctx.rank(),
            ctx,
            next_region: Mutex::new(1),
            next_local: AtomicU32::new(0),
        }
    }
}

/// One CPU's view of the SMP platform.
pub struct SmpNode {
    shared: Arc<SmpShared>,
    rank: usize,
    ctx: NodeCtx,
    next_region: Mutex<u32>,
    /// Next single-node region number of this CPU.
    next_local: AtomicU32,
}

impl SmpNode {
    /// This CPU's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Bump the access-path counter at `idx` (one of the constants
    /// above [`SmpNode`]).
    #[inline]
    fn count(&self, idx: usize, n: u64) {
        self.shared.stats[self.rank].at(idx).add(n);
    }

    fn charge_traffic(&self, len: usize) {
        if len <= 64 {
            self.ctx.compute(self.shared.machine.local_access_ns);
        } else {
            self.private_traffic(len as u64);
        }
    }
}

/// Small accesses cost a cached access; bulk ones stream through the
/// shared bus.
impl Access for SmpNode {
    fn read_bytes(&self, addr: GlobalAddr, out: &mut [u8]) {
        self.count(READS, 1);
        self.charge_traffic(out.len());
        self.shared.store.read_bytes(addr, out);
    }

    fn write_bytes(&self, addr: GlobalAddr, data: &[u8]) {
        self.count(WRITES, 1);
        self.charge_traffic(data.len());
        self.shared.store.write_bytes(addr, data);
    }
}

/// Hardware coherence: no consistency action anywhere, so `flush` keeps
/// the trait's nothing.
impl Engine for SmpNode {
    /// Collective allocation (lockstep contract as on the DSMs). The
    /// distribution annotation is accepted but irrelevant: all memory is
    /// uniformly close (UMA).
    fn alloc(&self, bytes: usize, dist: Distribution) -> GlobalAddr {
        let region = {
            let mut g = self.next_region.lock();
            let id = *g;
            *g += 1;
            id
        };
        self.shared.dir.register(region, RegionMeta::new(bytes, dist));
        if self.rank == 0 {
            self.shared.store.create(region, bytes.div_ceil(PAGE_SIZE) * PAGE_SIZE);
        }
        self.barrier(ALLOC_BARRIER);
        GlobalAddr::new(region, 0)
    }

    /// Single-node allocation: the caller registers the region and
    /// creates its backing, with no barrier; the message that
    /// distributes the address orders both before any other CPU's
    /// access.
    fn alloc_local(&self, bytes: usize) -> GlobalAddr {
        let region = local_region(self.rank, self.next_local.fetch_add(1, Ordering::Relaxed));
        self.adopt(GlobalAddr::new(region, 0), bytes, self.rank);
        self.shared.store.create(region, bytes.div_ceil(PAGE_SIZE) * PAGE_SIZE);
        GlobalAddr::new(region, 0)
    }

    fn adopt(&self, addr: GlobalAddr, bytes: usize, home: usize) {
        self.shared.dir.register(addr.region(), RegionMeta::new(bytes, Distribution::OnNode(home)));
    }

    fn acquire(&self, lock: u32) {
        self.shared.sync.acquire(self.ctx.port(), lock, Mode::Excl);
    }

    fn acquire_shared(&self, lock: u32) {
        self.shared.sync.acquire(self.ctx.port(), lock, Mode::Shared);
    }

    fn release(&self, lock: u32) {
        self.shared.sync.release(self.ctx.port(), lock);
    }

    fn barrier(&self, id: u32) {
        self.shared.sync.barrier(self.ctx.port(), id);
    }

    /// Streams through the shared bus, so memory-bound kernels contend
    /// realistically.
    fn private_traffic(&self, bytes: u64) {
        self.count(BULK_BYTES, bytes);
        let done = self.shared.bus.transfer(self.ctx.clock().now(), bytes);
        self.ctx.clock().advance_to(done);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{FabricConfig, LinkKind};

    fn smp(cpus: usize) -> (Cluster, Arc<SmpShared>) {
        let c = Cluster::new(FabricConfig::builder().nodes(cpus).link(LinkKind::Loopback).build());
        let s = SmpShared::install(&c);
        (c, s)
    }

    #[test]
    fn coherent_without_explicit_sync_messages() {
        let (c, s) = smp(2);
        let (_, results) = c.run(|ctx| {
            let cpu = s.node(ctx);
            let a = cpu.alloc(4096, Distribution::Block);
            if cpu.rank() == 0 {
                cpu.write_u64(a, 7);
            }
            cpu.barrier(1);
            cpu.read_u64(a)
        });
        assert_eq!(results, vec![7, 7]);
    }

    #[test]
    fn lock_counter_exact() {
        let (c, s) = smp(4);
        let (_, results) = c.run(|ctx| {
            let cpu = s.node(ctx);
            let a = cpu.alloc(64, Distribution::Block);
            cpu.barrier(1);
            for _ in 0..50 {
                cpu.acquire(1);
                let v = cpu.read_u64(a);
                cpu.write_u64(a, v + 1);
                cpu.release(1);
            }
            cpu.barrier(2);
            cpu.read_u64(a)
        });
        assert_eq!(results, vec![200; 4]);
    }

    #[test]
    fn shared_bus_contention_is_modelled() {
        // Two CPUs each streaming 80 MB: one shared 800 MB/s bus means
        // ≥ 200 ms of virtual time; two independent buses would need 100.
        let (c, s) = smp(2);
        let (report, _) = c.run(|ctx| {
            let cpu = s.node(ctx);
            cpu.barrier(1);
            cpu.private_traffic(80_000_000);
            cpu.barrier(2);
        });
        assert!(report.sim_time_ns >= 190_000_000, "got {}", report.sim_time_ns);
    }

    #[test]
    fn smp_sync_is_cheap() {
        let (c, s) = smp(2);
        let (report, _) = c.run(|ctx| {
            let cpu = s.node(ctx);
            for i in 0..10 {
                cpu.barrier(10 + i);
            }
        });
        // 10 loopback barriers stay well under a millisecond beyond
        // startup (2 ms).
        assert!(report.sim_time_ns < 3_500_000, "got {}", report.sim_time_ns);
    }
}
