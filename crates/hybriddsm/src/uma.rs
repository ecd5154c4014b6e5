//! The hardware-shared-memory platform's data path (SMP).
//!
//! Paper §3.2, "tightly coupled implementations": the OS provides memory
//! allocation and synchronization, the hardware provides coherence, so
//! no explicit consistency control is required. In the simulation the
//! CPUs of the multiprocessor appear as "nodes" of a loopback fabric
//! (the paper's process-parallel mapping of SMPs, §3.3); all of them
//! address one store and share one memory [`Bus`] — the shared bus is
//! what makes the memory-bound MatMult of Figure 4 slower here than on
//! two cluster nodes.

use crate::node::{DataPath, Node, Shared};
use cluster::Cluster;
use memwire::RegionId;
use sim::Bus;
use std::sync::Arc;

/// Uniform memory access: every access is local, bulk traffic streams
/// through the one memory bus all CPUs contend on, and hardware
/// coherence leaves the consistency hooks with nothing to do.
pub struct Uma {
    bus: Bus,
}

/// Shared state of the SMP platform.
pub type SmpShared = Shared<Uma>;
/// One CPU's view of the SMP platform.
pub type SmpNode = Node<Uma>;

impl SmpShared {
    /// Create the platform over `cluster` (whose "nodes" are the CPUs;
    /// use a loopback fabric).
    pub fn install(cluster: &Cluster) -> Arc<SmpShared> {
        let bus = Bus::with_bandwidth(cluster.config().cost.machine.mem_bus_bytes_per_sec);
        Self::with_path(cluster, Uma { bus })
    }
}

const BULK_BYTES: usize = sim::stats::stat_index(Uma::STAT_NAMES, "bulk_bytes");

impl DataPath for Uma {
    const STAT_NAMES: &'static [&'static str] = &["reads", "writes", "bulk_bytes"];
    const REGION_BASE: RegionId = 0;
    type State = ();

    fn private_traffic(node: &Node<Self>, bytes: u64) {
        node.count(BULK_BYTES, bytes);
        let clock = node.ctx().clock();
        clock.advance_to(node.shared.path.bus.transfer(clock.now(), bytes));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{FabricConfig, LinkKind};
    use memwire::{Access, Distribution, Engine};

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
