//! Fabric configuration and the textual configuration-file format.

use interconnect::fault::{FaultPlan, Resilience};
use interconnect::{EngineMode, MembershipPlan, SyncTopology};
use sim::{CostModel, LinkCost};
use std::collections::BTreeMap;
use std::str::FromStr;

/// Which physical link connects the nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkKind {
    /// Switched Fast Ethernet (the Beowulf / software-DSM configuration).
    Ethernet,
    /// Dolphin SCI system-area network (the hybrid configuration).
    Sci,
    /// CPUs of one SMP treated as nodes (process-parallel models on
    /// multiprocessors, paper §3.3).
    Loopback,
}

impl FromStr for LinkKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "ethernet" | "eth" => Ok(Self::Ethernet),
            "sci" | "san" => Ok(Self::Sci),
            "loopback" | "smp" => Ok(Self::Loopback),
            other => Err(format!("unknown link kind {other:?}")),
        }
    }
}

/// Configuration of the simulated fabric.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Number of cluster nodes.
    pub nodes: usize,
    /// CPUs per node (the testbed nodes are dual-processor).
    pub cpus_per_node: usize,
    /// The interconnect carrying protocol traffic.
    pub link: LinkKind,
    /// Machine and network constants.
    pub cost: CostModel,
    /// Whether HAMSTER's unified messaging layer is active (§3.3). False
    /// for "native" (non-HAMSTER) protocol stacks.
    pub unified_messaging: bool,
    /// Seeded fault-injection plan for chaos runs. `None` keeps the
    /// fabric perfectly reliable (and timing bit-identical to before
    /// fault injection existed).
    pub faults: Option<FaultPlan>,
    /// Timeout/retry policy for the resilient request path. Defaults to
    /// [`Resilience::default`] whenever a fault plan is installed.
    pub resilience: Option<Resilience>,
    /// Elastic-membership schedule (join/leave/recover churn). The
    /// cluster layer epoch-fences in-flight traffic against it and
    /// merges its absence windows into the fault plan's crash windows
    /// (installing a default plan and resilience policy when none is
    /// configured), so a departed node is unreachable until it
    /// recovers. `None` keeps membership static.
    pub membership: Option<MembershipPlan>,
    /// Size of the fabric's delivery worker pool (default: auto-sized
    /// from the host). Virtual-time results do not depend on it; only
    /// wall-clock throughput does.
    pub engine: EngineMode,
    /// Synchronization topology for the protocol layers built on this
    /// fabric (barrier structure, lock handoff, write-notice wire
    /// encoding). Defaults to [`SyncTopology::centralized`]; large
    /// node counts want [`SyncTopology::scalable`].
    pub sync: SyncTopology,
}

impl FabricConfig {
    /// A fabric of `nodes` nodes over `link`, with paper-testbed costs.
    pub fn new(nodes: usize, link: LinkKind) -> Self {
        assert!(nodes > 0, "cluster needs at least one node");
        Self {
            nodes,
            cpus_per_node: 2,
            link,
            cost: CostModel::paper_testbed(),
            unified_messaging: false,
            faults: None,
            resilience: None,
            membership: None,
            engine: EngineMode::default(),
            sync: SyncTopology::default(),
        }
    }

    /// Start a typed builder covering every fabric knob — node count,
    /// link, cost model, fault plan, resilience policy, delivery
    /// worker pool, and synchronization topology.
    ///
    /// ```
    /// use cluster::{FabricConfig, LinkKind};
    /// use interconnect::{EngineMode, FaultPlan};
    ///
    /// let cfg = FabricConfig::builder()
    ///     .nodes(64)
    ///     .link(LinkKind::Ethernet)
    ///     .chaos(FaultPlan { seed: 42, ..FaultPlan::default() })
    ///     .engine(EngineMode { workers: 2 })
    ///     .build();
    /// assert_eq!(cfg.nodes, 64);
    /// assert!(cfg.faults.is_some());
    /// ```
    pub fn builder() -> FabricConfigBuilder {
        FabricConfigBuilder { cfg: FabricConfig::new(1, LinkKind::Ethernet) }
    }

    /// The [`LinkCost`] for this fabric's link.
    pub fn link_cost(&self) -> LinkCost {
        match self.link {
            LinkKind::Ethernet => self.cost.ethernet,
            LinkKind::Sci => self.cost.sci_link,
            LinkKind::Loopback => self.cost.loopback,
        }
    }

    /// Unified-messaging saving to apply per message (0 when inactive).
    pub fn unified_saving_ns(&self) -> u64 {
        if self.unified_messaging {
            self.cost.unified_msg_saving_ns
        } else {
            0
        }
    }
}

/// Typed builder for a [`FabricConfig`] (see [`FabricConfig::builder`]).
///
/// This is the only way to configure chaos, resilience, and sync
/// topology (the string-keyed `chaos_*` [`ConfigMap`] shim was
/// removed); malformed configurations fail at compile time instead of
/// at parse time.
#[derive(Debug, Clone)]
pub struct FabricConfigBuilder {
    cfg: FabricConfig,
}

impl FabricConfigBuilder {
    /// Number of cluster nodes (default 1).
    pub fn nodes(mut self, nodes: usize) -> Self {
        self.cfg.nodes = nodes;
        self
    }

    /// The interconnect carrying protocol traffic (default Ethernet).
    pub fn link(mut self, link: LinkKind) -> Self {
        self.cfg.link = link;
        self
    }

    /// CPUs per node (default 2, the dual-processor testbed nodes).
    pub fn cpus_per_node(mut self, cpus: usize) -> Self {
        self.cfg.cpus_per_node = cpus;
        self
    }

    /// Replace the whole cost model (default: the paper testbed).
    pub fn cost(mut self, cost: CostModel) -> Self {
        self.cfg.cost = cost;
        self
    }

    /// Activate HAMSTER's unified messaging layer (§3.3).
    pub fn unified_messaging(mut self, on: bool) -> Self {
        self.cfg.unified_messaging = on;
        self
    }

    /// Install a seeded fault-injection plan — the typed replacement for
    /// the `chaos_*` keys. Installing a plan without an explicit
    /// [`FabricConfigBuilder::resilience`] leaves the policy to default
    /// at fabric build time, exactly as the shim did.
    pub fn chaos(mut self, plan: FaultPlan) -> Self {
        self.cfg.faults = Some(plan);
        self
    }

    /// Install a timeout/retry policy for the resilient request path.
    pub fn resilience(mut self, r: Resilience) -> Self {
        self.cfg.resilience = Some(r);
        self
    }

    /// Install an elastic-membership schedule (see
    /// [`FabricConfig::membership`]).
    pub fn membership(mut self, plan: MembershipPlan) -> Self {
        self.cfg.membership = Some(plan);
        self
    }

    /// Size the delivery worker pool (default: auto-sized).
    pub fn engine(mut self, engine: EngineMode) -> Self {
        self.cfg.engine = engine;
        self
    }

    /// Select the synchronization topology for the protocol layers
    /// (default: [`SyncTopology::centralized`]).
    pub fn sync(mut self, sync: SyncTopology) -> Self {
        self.cfg.sync = sync;
        self
    }

    /// Finish: validates node count.
    pub fn build(self) -> FabricConfig {
        assert!(self.cfg.nodes > 0, "cluster needs at least one node");
        self.cfg
    }
}

/// A parsed `key = value` configuration file.
///
/// Format: one `key = value` pair per line; `#` starts a comment; blank
/// lines ignored. This mirrors the unified node-configuration files of
/// paper §3.3 ("unification of the different node configuration files").
///
/// ```
/// let cfg = cluster::ConfigMap::parse("nodes = 4  # the testbed\nlink = sci").unwrap();
/// assert_eq!(cfg.get_as::<usize>("nodes").unwrap(), Some(4));
/// assert_eq!(cfg.get("link"), Some("sci"));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConfigMap {
    entries: BTreeMap<String, String>,
}

impl ConfigMap {
    /// Parse configuration text. Errors name the offending line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut entries = BTreeMap::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (k, v) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected key = value", lineno + 1))?;
            let key = k.trim().to_string();
            if key.is_empty() {
                return Err(format!("line {}: empty key", lineno + 1));
            }
            entries.insert(key, v.trim().to_string());
        }
        Ok(Self { entries })
    }

    /// Raw string value.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.entries.get(key).map(|s| s.as_str())
    }

    /// Typed value; `Err` on parse failure, `Ok(None)` when absent.
    pub fn get_as<T: FromStr>(&self, key: &str) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.entries.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse::<T>()
                .map(Some)
                .map_err(|e| format!("config key {key:?}: {e}")),
        }
    }

    /// Set a value (used by tests and programmatic configs).
    pub fn set(&mut self, key: &str, value: impl ToString) {
        self.entries.insert(key.to_string(), value.to_string());
    }

    /// Iterate over the configured keys (sorted).
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(|s| s.as_str())
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are present.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_basic_file() {
        let cfg = ConfigMap::parse("nodes = 4\nlink = ethernet\n# comment\n\nplatform=swdsm")
            .unwrap();
        assert_eq!(cfg.get("nodes"), Some("4"));
        assert_eq!(cfg.get("link"), Some("ethernet"));
        assert_eq!(cfg.get("platform"), Some("swdsm"));
        assert_eq!(cfg.len(), 3);
    }

    #[test]
    fn typed_getters() {
        let cfg = ConfigMap::parse("nodes = 4\nbad = xyz").unwrap();
        assert_eq!(cfg.get_as::<usize>("nodes").unwrap(), Some(4));
        assert_eq!(cfg.get_as::<usize>("missing").unwrap(), None);
        assert!(cfg.get_as::<usize>("bad").is_err());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(ConfigMap::parse("no equals sign").is_err());
        assert!(ConfigMap::parse("= value").is_err());
    }

    #[test]
    fn inline_comments_stripped() {
        let cfg = ConfigMap::parse("nodes = 2 # dual").unwrap();
        assert_eq!(cfg.get("nodes"), Some("2"));
    }

    #[test]
    fn link_kind_parsing() {
        assert_eq!("ethernet".parse::<LinkKind>().unwrap(), LinkKind::Ethernet);
        assert_eq!("SCI".parse::<LinkKind>().unwrap(), LinkKind::Sci);
        assert_eq!("smp".parse::<LinkKind>().unwrap(), LinkKind::Loopback);
        assert!("token-ring".parse::<LinkKind>().is_err());
    }

    #[test]
    fn fabric_link_cost_selection() {
        let f = FabricConfig::new(4, LinkKind::Ethernet);
        assert_eq!(f.link_cost(), f.cost.ethernet);
        let f = FabricConfig::new(4, LinkKind::Sci);
        assert_eq!(f.link_cost(), f.cost.sci_link);
    }

    #[test]
    fn unified_saving_gated_by_flag() {
        let mut f = FabricConfig::new(2, LinkKind::Ethernet);
        assert_eq!(f.unified_saving_ns(), 0);
        f.unified_messaging = true;
        assert_eq!(f.unified_saving_ns(), f.cost.unified_msg_saving_ns);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        let _ = FabricConfig::new(0, LinkKind::Ethernet);
    }

    #[test]
    fn builder_mirrors_new_defaults() {
        let built = FabricConfig::builder().nodes(4).link(LinkKind::Sci).build();
        let direct = FabricConfig::new(4, LinkKind::Sci);
        assert_eq!(built.nodes, direct.nodes);
        assert_eq!(built.cpus_per_node, direct.cpus_per_node);
        assert_eq!(built.link, direct.link);
        assert_eq!(built.unified_messaging, direct.unified_messaging);
        assert_eq!(built.engine, direct.engine);
        assert!(built.faults.is_none() && built.resilience.is_none());
    }

    #[test]
    fn builder_sets_typed_chaos_and_engine() {
        use interconnect::fault::LinkFaults;
        let plan = FaultPlan {
            seed: 7,
            default_link: LinkFaults { drop_ppm: 1_000, ..LinkFaults::default() },
            ..FaultPlan::default()
        };
        let cfg = FabricConfig::builder()
            .nodes(8)
            .link(LinkKind::Ethernet)
            .cpus_per_node(1)
            .unified_messaging(true)
            .chaos(plan)
            .resilience(Resilience { timeout_ns: 2_000_000, ..Resilience::default() })
            .engine(EngineMode { workers: 3 })
            .build();
        assert_eq!(cfg.nodes, 8);
        assert_eq!(cfg.cpus_per_node, 1);
        assert!(cfg.unified_messaging);
        assert_eq!(cfg.faults.as_ref().unwrap().seed, 7);
        assert_eq!(cfg.faults.as_ref().unwrap().default_link.drop_ppm, 1_000);
        assert_eq!(cfg.resilience.unwrap().timeout_ns, 2_000_000);
        assert_eq!(cfg.engine, EngineMode { workers: 3 });
        assert_eq!(cfg.engine.resolved_workers(cfg.nodes), 3);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn builder_rejects_zero_nodes() {
        let _ = FabricConfig::builder().nodes(0).build();
    }

    #[test]
    fn builder_sets_sync_topology() {
        use interconnect::{BarrierTopology, LockTopology};
        let cfg = FabricConfig::builder().nodes(4).build();
        assert_eq!(cfg.sync, SyncTopology::centralized(), "default is centralized");
        let cfg = FabricConfig::builder().nodes(256).sync(SyncTopology::scalable()).build();
        assert_eq!(cfg.sync.barrier, BarrierTopology::Tree { fanout: 8 });
        assert_eq!(cfg.sync.locks, LockTopology::TokenQueue);
    }
}
