//! The SPMD run harness: builds the fabric, spawns node threads, joins
//! them, reports virtual execution times.

use crate::config::FabricConfig;
use crate::node::NodeCtx;
use crate::registry::Registry;
use interconnect::Network;
use sim::{Bus, VirtualClock};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Fixed virtual cost of the unified startup procedure (configuration
/// distribution and process launch, paper §3.3). Charged once per node
/// before user code runs. Dwarfed by any real workload; present so that
/// "time to first instruction" is not zero.
const STARTUP_NS: u64 = 2_000_000;

/// A cluster ready to run SPMD programs.
pub struct Cluster {
    config: FabricConfig,
    network: Network,
    clocks: Vec<Arc<VirtualClock>>,
    buses: Vec<Arc<Bus>>,
    registry: Arc<Registry>,
}

/// Outcome of one SPMD run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Number of nodes that participated.
    pub nodes: usize,
    /// Virtual execution time: the maximum node-CPU clock at exit (ns).
    pub sim_time_ns: u64,
    /// Each node CPU's final clock (ns).
    pub per_node_ns: Vec<u64>,
    /// Fabric statistics at the end of the run.
    pub net_stats: BTreeMap<&'static str, u64>,
}

impl Cluster {
    /// Bring up a cluster per `config`: network fabric, per-node clocks,
    /// registry, and memory buses.
    pub fn new(config: FabricConfig) -> Self {
        // Elastic membership rides on the fault layer: a departed node
        // is "crashed" until it recovers, so the plan's absence windows
        // are merged into the crash schedule (creating a fault plan —
        // and thereby a default resilience policy — when chaos is not
        // otherwise configured). The plan itself goes to the fabric for
        // view-epoch fencing.
        let mut faults = config.faults.clone();
        if let Some(mp) = &config.membership {
            let plan = faults.get_or_insert_with(|| interconnect::FaultPlan {
                seed: mp.seed,
                ..interconnect::FaultPlan::default()
            });
            plan.crashes.extend(mp.outages());
        }
        let network = Network::builder(config.nodes, config.link_cost())
            .unified(config.unified_saving_ns())
            .faults(faults)
            .resilience(config.resilience)
            .membership(config.membership.clone())
            .engine(config.engine)
            .build();
        let clocks = (0..config.nodes).map(|_| VirtualClock::starting_at(STARTUP_NS)).collect();
        let buses = (0..config.nodes)
            .map(|n| Arc::new(Bus::with_bandwidth(config.cost.machine.mem_bus_bytes_per_sec).for_node(n)))
            .collect();
        let registry = Arc::new(Registry::from_config(&config));
        Self { config, network, clocks, buses, registry }
    }

    /// The fabric, for protocol-handler registration before [`run`].
    ///
    /// [`run`]: Cluster::run
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// The configuration this cluster was built from.
    pub fn config(&self) -> &FabricConfig {
        &self.config
    }

    /// Clock of node `rank`'s first CPU.
    pub fn clock(&self, rank: usize) -> Arc<VirtualClock> {
        self.clocks[rank].clone()
    }

    /// Build the [`NodeCtx`] for `rank` (first CPU).
    pub fn node_ctx(&self, rank: usize) -> NodeCtx {
        let clock = self.clocks[rank].clone();
        NodeCtx::new(
            rank,
            clock.clone(),
            self.network.port(rank, clock),
            self.network.mailbox(rank),
            self.registry.clone(),
            self.buses[rank].clone(),
        )
    }

    /// Run `f` once per node, each invocation on its own OS thread with
    /// that node's context. Returns the per-node results and the run
    /// report. Panics in any node are propagated.
    pub fn run<T, F>(&self, f: F) -> (RunReport, Vec<T>)
    where
        T: Send,
        F: Fn(NodeCtx) -> T + Send + Sync,
    {
        let nodes = self.config.nodes;
        let results: Vec<T> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..nodes)
                .map(|rank| {
                    let ctx = self.node_ctx(rank);
                    let f = &f;
                    s.spawn(move || f(ctx))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        });
        let per_node_ns: Vec<u64> = self.clocks.iter().map(|c| c.now()).collect();
        let report = RunReport {
            nodes,
            sim_time_ns: per_node_ns.iter().copied().max().unwrap_or(0),
            per_node_ns,
            net_stats: self.network.stats().snapshot(),
        };
        (report, results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LinkKind;
    use interconnect::{downcast, Outcome};

    fn small(link: LinkKind) -> FabricConfig {
        FabricConfig::builder().nodes(3).link(link).build()
    }

    #[test]
    fn run_executes_on_every_node() {
        let cluster = Cluster::new(small(LinkKind::Ethernet));
        let (report, ranks) = cluster.run(|ctx| ctx.rank());
        assert_eq!(ranks, vec![0, 1, 2]);
        assert_eq!(report.nodes, 3);
    }

    #[test]
    fn startup_time_is_charged() {
        let cluster = Cluster::new(small(LinkKind::Sci));
        let (report, _) = cluster.run(|_| ());
        assert!(report.per_node_ns.iter().all(|&t| t >= STARTUP_NS));
    }

    #[test]
    fn compute_advances_only_own_clock() {
        let cluster = Cluster::new(small(LinkKind::Ethernet));
        let (report, _) = cluster.run(|ctx| {
            if ctx.rank() == 1 {
                ctx.compute(1_000_000_000);
            }
        });
        assert!(report.per_node_ns[1] >= 1_000_000_000);
        assert!(report.per_node_ns[0] < 1_000_000_000);
        assert_eq!(report.sim_time_ns, *report.per_node_ns.iter().max().unwrap());
    }

    #[test]
    fn nodes_can_exchange_requests_during_run() {
        let cluster = Cluster::new(small(LinkKind::Sci));
        cluster
            .network()
            .register_all(0x42, |node| move |_c: &interconnect::HandlerCtx<'_>, _s, p| {
                Outcome::reply(downcast::<u64>(p) * 10 + node as u64, 8)
            });
        let (_, results) = cluster.run(|ctx| {
            let dst = (ctx.rank() + 1) % ctx.nodes();
            downcast::<u64>(ctx.port().request(dst, 0x42, ctx.rank() as u64, 8))
        });
        assert_eq!(results, vec![1, 12, 20]);
    }

    #[test]
    fn bus_contention_serializes_transfers() {
        let cfg = small(LinkKind::Loopback);
        let cluster = Cluster::new(cfg);
        // Two sibling CPUs on node 0 pushing 80 MB each through an
        // 800 MB/s bus must take ~200 ms virtual, not ~100 ms.
        let ctx = cluster.node_ctx(0);
        let a = ctx.sibling_cpu(0);
        let b = ctx.sibling_cpu(0);
        std::thread::scope(|s| {
            for c in [&a, &b] {
                s.spawn(move || c.bus_transfer(80_000_000));
            }
        });
        let slowest = a.clock().now().max(b.clock().now());
        assert!(slowest >= 190_000_000, "bus contention missing: {slowest}");
    }

    #[test]
    fn sibling_cpu_has_independent_clock() {
        let cluster = Cluster::new(small(LinkKind::Ethernet));
        let ctx = cluster.node_ctx(0);
        let sib = ctx.sibling_cpu(0);
        sib.compute(500);
        assert_eq!(sib.clock().now(), 500);
        assert_ne!(ctx.clock().now(), 500);
        assert_eq!(sib.rank(), 0);
    }
}
