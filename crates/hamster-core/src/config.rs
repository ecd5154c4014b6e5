//! HAMSTER configuration: the one file that changes between platforms.
//!
//! Paper §5.4: "only the configuration of HAMSTER (in the form of a
//! configuration file) is changed between experiments; the actual codes
//! are not modified, and in fact we use the identical binaries."

use cluster::{
    ConfigMap, EngineMode, FabricConfig, LinkKind, MembershipPlan, MembershipSpec, SyncTopology,
};
use hybriddsm::HybridConfig;
use interconnect::fault::{FaultPlan, Resilience};
use memwire::PageId;
use sim::CostModel;
use std::str::FromStr;
use swdsm::DsmConfig;

/// Which platform carries the global memory abstraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlatformKind {
    /// Hardware shared memory: the CPUs of one multiprocessor.
    Smp,
    /// Hybrid DSM: software memory management over SAN remote access.
    HybridDsm,
    /// Software DSM over commodity Ethernet (Beowulf).
    SwDsm,
    /// Both DSM engines on one SAN-connected cluster, chosen per
    /// allocation (the paper's §6 future-work configuration).
    Mixed,
}

/// What the underlying platform can and cannot do — the memory module's
/// capability-probe service reports from here (paper §4.2: "a capability
/// test routine lets the user probe the underlying shared memory
/// system").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlatformCaps {
    /// Hardware keeps caches coherent (no software consistency needed).
    pub hardware_coherent: bool,
    /// Sharing granularity is a page (software DSM) rather than a word.
    pub page_granularity: bool,
    /// Remote memory is directly addressable by the hardware.
    pub word_remote_access: bool,
    /// Distribution annotations influence access cost (NUMA).
    pub placement_matters: bool,
}

impl PlatformKind {
    /// Capability probe of this platform.
    pub fn caps(self) -> PlatformCaps {
        let (hardware_coherent, page_granularity, word_remote_access, placement_matters) =
            match self {
                PlatformKind::Smp => (true, false, true, false),
                PlatformKind::HybridDsm => (false, false, true, true),
                PlatformKind::SwDsm => (false, true, false, true),
                PlatformKind::Mixed => (false, true, true, true),
            };
        PlatformCaps { hardware_coherent, page_granularity, word_remote_access, placement_matters }
    }

    /// Whether a software DSM runs here, the only engine page homes are
    /// placed on.
    pub fn has_software_dsm(self) -> bool {
        matches!(self, PlatformKind::SwDsm | PlatformKind::Mixed)
    }
}

impl FromStr for PlatformKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "smp" | "hw" | "hardware" => Ok(Self::Smp),
            "hybrid" | "hybriddsm" | "sci" | "sci-vm" => Ok(Self::HybridDsm),
            "swdsm" | "sw" | "software" | "jiajia" | "ethernet" => Ok(Self::SwDsm),
            "mixed" | "combined" => Ok(Self::Mixed),
            other => Err(format!("unknown platform {other:?}")),
        }
    }
}

/// Explicit placement overrides applied at bring-up — page homes on the
/// software DSM, lock managers on every platform — the tuner's output,
/// carried as configuration in the spirit of paper §5.4: between runs
/// "only the configuration of HAMSTER ... is changed"; the application
/// binary is not.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Placement {
    /// Page homes: `(page, home node)`. Regions are named by their
    /// deterministic collective-allocation ids, so a placement computed
    /// from one run's trace addresses the same pages in the next run.
    pub homes: Vec<(PageId, usize)>,
    /// Lock managers: `(lock id, manager node)`.
    pub locks: Vec<(u32, usize)>,
}

impl Placement {
    /// Whether there is nothing to apply.
    pub fn is_empty(&self) -> bool {
        self.homes.is_empty() && self.locks.is_empty()
    }

    /// Parse a `place_home` value: comma-separated
    /// `region:page:node` triples, e.g. `0:0:1, 0:3:2`.
    pub fn parse_homes(text: &str) -> Result<Vec<(PageId, usize)>, String> {
        split_list(text)
            .map(|item| {
                let [region, index, node] = split_fields(item, 3, "region:page:node")?;
                Ok((PageId { region, index }, node as usize))
            })
            .collect()
    }

    /// Parse a `place_lock` value: comma-separated `lock:node` pairs,
    /// e.g. `1:3, 7:0`.
    pub fn parse_locks(text: &str) -> Result<Vec<(u32, usize)>, String> {
        split_list(text)
            .map(|item| {
                let [lock, node] = split_fields(item, 2, "lock:node")?;
                Ok((lock, node as usize))
            })
            .collect()
    }
}

fn split_list(text: &str) -> impl Iterator<Item = &str> {
    text.split(',').map(str::trim).filter(|s| !s.is_empty())
}

fn split_fields<const N: usize>(item: &str, n: usize, shape: &str) -> Result<[u32; N], String> {
    let parts: Vec<_> = item.split(':').map(str::trim).collect();
    if parts.len() != n {
        return Err(format!("placement entry {item:?}: expected {shape}"));
    }
    let mut out = [0u32; N];
    for (slot, part) in out.iter_mut().zip(&parts) {
        *slot = part
            .parse::<u32>()
            .map_err(|e| format!("placement entry {item:?}: {e}"))?;
    }
    Ok(out)
}

/// Full configuration of a HAMSTER run.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of nodes (for [`PlatformKind::Smp`]: number of CPUs).
    pub nodes: usize,
    /// The platform carrying the global memory abstraction.
    pub platform: PlatformKind,
    /// Machine/network constants.
    pub cost: CostModel,
    /// Software-DSM protocol tunables (used when `platform` is `SwDsm`).
    pub dsm: DsmConfig,
    /// Hybrid-DSM tunables (used when `platform` is `HybridDsm`).
    pub hybrid: HybridConfig,
    /// HAMSTER's unified messaging layer (§3.3). On by default; the
    /// native-baseline experiments turn it off.
    pub unified_messaging: bool,
    /// Size of the fabric's delivery worker pool: `sharded` (auto, the
    /// default) or `sharded:N`.
    pub engine: EngineMode,
    /// Synchronization topology: which barrier and write-notice
    /// protocols the platforms run (default: centralized managers).
    /// Locks come from their managers under every topology.
    pub sync: SyncTopology,
    /// Explicit page-home and lock-manager placements (tuner output),
    /// applied at bring-up.
    pub placement: Placement,
    /// Elastic-membership schedule: nodes leave and recover while the
    /// workload runs. `None` (the default) keeps membership static.
    pub membership: Option<MembershipPlan>,
    /// Seeded fault-injection plan applied to the fabric (drops,
    /// duplicates, delays, reorders, crash windows). `None` (the
    /// default) runs fault-free. Installing a plan also installs
    /// [`Resilience::default`] timeouts/retries so requests survive the
    /// injected faults — the SLO-under-faults lens of the serve bench.
    pub faults: Option<FaultPlan>,
}

impl ClusterConfig {
    /// A HAMSTER cluster of `nodes` on `platform`, paper-testbed costs.
    pub fn new(nodes: usize, platform: PlatformKind) -> Self {
        Self {
            nodes,
            platform,
            cost: CostModel::paper_testbed(),
            dsm: DsmConfig::default(),
            hybrid: HybridConfig::default(),
            unified_messaging: true,
            engine: EngineMode::default(),
            sync: SyncTopology::default(),
            placement: Placement::default(),
            membership: None,
            faults: None,
        }
    }

    /// Build from a parsed configuration file. Recognized keys:
    /// `nodes` (usize, required), `platform` (smp|hybrid|swdsm|mixed,
    /// required), `unified_messaging` (bool), `engine`
    /// (`sharded` | `sharded:N`), `sync`
    /// (`centralized` | `scalable` | `tree` | `tree:K`: the barrier
    /// shape and notice encoding, the same on every platform; locks
    /// are served by their managers under every value),
    /// `place_home` (`region:page:node` list),
    /// `place_lock` (`lock:node` list), `membership`
    /// (`seed:cycles:from_ns:until_ns` churn spec), and
    /// `delta_max_records` (adaptive state-transfer cutoff for the
    /// software DSM; `0` disables snapshot sync; refused on a platform
    /// without one).
    pub fn from_config_map(map: &ConfigMap) -> Result<Self, String> {
        let nodes = map
            .get_as::<usize>("nodes")?
            .ok_or_else(|| "config key \"nodes\" missing".to_string())?;
        if nodes == 0 {
            return Err("config key \"nodes\" must be positive".into());
        }
        let platform = map
            .get_as::<PlatformKind>("platform")?
            .ok_or_else(|| "config key \"platform\" missing".to_string())?;
        let mut cfg = Self::new(nodes, platform);
        if let Some(v) = map.get_as::<bool>("unified_messaging")? {
            cfg.unified_messaging = v;
        }
        if let Some(v) = map.get_as::<EngineMode>("engine")? {
            cfg.engine = v;
        }
        if let Some(v) = map.get_as::<SyncTopology>("sync")? {
            cfg.sync = v;
        }
        if let Some(v) = map.get("place_home") {
            cfg.placement.homes = Placement::parse_homes(v)?;
        }
        if let Some(v) = map.get("place_lock") {
            cfg.placement.locks = Placement::parse_locks(v)?;
        }
        if let Some(spec) = map.get_as::<MembershipSpec>("membership")? {
            cfg.membership = Some(spec.plan(nodes));
        }
        if let Some(v) = map.get_as::<u64>("delta_max_records")? {
            cfg.dsm.delta_max_records = v;
        }
        cfg.check()?;
        Ok(cfg)
    }

    /// Refuse a configuration bring-up cannot apply, naming its key: a
    /// placement on a node past the cluster, or a page home or a
    /// state-transfer cutoff on a platform without a software DSM. Lock
    /// managers are placed on every platform.
    pub(crate) fn check(&self) -> Result<(), String> {
        let homes = self.placement.homes.iter().map(|&(_, node)| ("place_home", node));
        let locks = self.placement.locks.iter().map(|&(_, node)| ("place_lock", node));
        if let Some((key, node)) = homes.chain(locks).find(|&(_, node)| node >= self.nodes) {
            return Err(format!("config key \"{key}\": node {node} out of range for {} nodes", self.nodes));
        }
        if !self.placement.homes.is_empty() && !self.platform.has_software_dsm() {
            return Err(format!(
                "config key \"place_home\": page homes are placed only on software-DSM platforms, not {:?}",
                self.platform
            ));
        }
        if self.dsm.delta_max_records > 0 && !self.platform.has_software_dsm() {
            return Err(format!(
                "config key \"delta_max_records\": the state-transfer cutoff applies only on software-DSM platforms, not {:?}",
                self.platform
            ));
        }
        Ok(())
    }

    /// Parse a configuration file's text directly.
    pub fn parse(text: &str) -> Result<Self, String> {
        Self::from_config_map(&ConfigMap::parse(text)?)
    }

    /// The link each platform's protocol traffic rides on.
    pub fn link(&self) -> LinkKind {
        match self.platform {
            PlatformKind::Smp => LinkKind::Loopback,
            PlatformKind::HybridDsm => LinkKind::Sci,
            PlatformKind::SwDsm => LinkKind::Ethernet,
            // The mixed configuration assumes the SAN is present (the
            // testbed had both networks; the better wire carries both
            // protocols).
            PlatformKind::Mixed => LinkKind::Sci,
        }
    }

    /// The fabric configuration for this run.
    pub fn fabric(&self) -> FabricConfig {
        let mut b = FabricConfig::builder()
            .nodes(self.nodes)
            .link(self.link())
            .cost(self.cost)
            .unified_messaging(self.unified_messaging)
            .engine(self.engine)
            .sync(self.sync)
            .lock_managers(self.placement.locks.clone());
        if let Some(plan) = &self.membership {
            b = b.membership(plan.clone());
        }
        if let Some(plan) = &self.faults {
            b = b.chaos(plan.clone()).resilience(Resilience::default());
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn platform_parse() {
        assert_eq!("smp".parse::<PlatformKind>().unwrap(), PlatformKind::Smp);
        assert_eq!("SCI-VM".parse::<PlatformKind>().unwrap(), PlatformKind::HybridDsm);
        assert_eq!("jiajia".parse::<PlatformKind>().unwrap(), PlatformKind::SwDsm);
        assert!("cray".parse::<PlatformKind>().is_err());
    }

    #[test]
    fn link_follows_platform() {
        assert_eq!(ClusterConfig::new(2, PlatformKind::Smp).link(), LinkKind::Loopback);
        assert_eq!(ClusterConfig::new(2, PlatformKind::HybridDsm).link(), LinkKind::Sci);
        assert_eq!(ClusterConfig::new(2, PlatformKind::SwDsm).link(), LinkKind::Ethernet);
    }

    #[test]
    fn config_file_roundtrip() {
        let cfg = ClusterConfig::parse("nodes = 4\nplatform = hybrid\nunified_messaging = false")
            .unwrap();
        assert_eq!(cfg.nodes, 4);
        assert_eq!(cfg.platform, PlatformKind::HybridDsm);
        assert!(!cfg.unified_messaging);
    }

    #[test]
    fn config_file_errors() {
        assert!(ClusterConfig::parse("platform = smp").is_err());
        assert!(ClusterConfig::parse("nodes = 4").is_err());
        assert!(ClusterConfig::parse("nodes = 0\nplatform = smp").is_err());
        assert!(ClusterConfig::parse("nodes = x\nplatform = smp").is_err());
    }

    #[test]
    fn unified_messaging_defaults_on() {
        assert!(ClusterConfig::new(2, PlatformKind::SwDsm).unified_messaging);
        assert!(ClusterConfig::parse("nodes=2\nplatform=swdsm").unwrap().unified_messaging);
    }

    #[test]
    fn engine_key_sizes_the_worker_pool() {
        let cfg = ClusterConfig::parse("nodes=2\nplatform=swdsm").unwrap();
        assert_eq!(cfg.engine, EngineMode::default());
        let cfg = ClusterConfig::parse("nodes=2\nplatform=swdsm\nengine=sharded").unwrap();
        assert_eq!(cfg.engine, EngineMode::default());
        let cfg = ClusterConfig::parse("nodes=2\nplatform=swdsm\nengine=sharded:3").unwrap();
        assert_eq!(cfg.engine, EngineMode { workers: 3 });
        assert_eq!(cfg.fabric().engine, EngineMode { workers: 3 });
        assert!(ClusterConfig::parse("nodes=2\nplatform=swdsm\nengine=warp").is_err());
    }

    #[test]
    fn removed_engine_value_is_an_error_naming_the_key() {
        let mut map = ConfigMap::parse("nodes=2\nplatform=swdsm").unwrap();
        for dead in ["threads", "thread-per-node", "legacy"] {
            map.set("engine", dead);
            let err = ClusterConfig::from_config_map(&map).unwrap_err();
            assert!(err.starts_with("config key \"engine\": "), "{err}");
            assert!(err.contains("removed") && err.contains("sharded"), "{err}");
        }
    }

    #[test]
    fn placement_keys_parse_lists() {
        let cfg = ClusterConfig::parse(
            "nodes=4\nplatform=swdsm\nplace_home = 0:0:1, 0:3:2\nplace_lock = 1:3",
        )
        .unwrap();
        assert_eq!(
            cfg.placement.homes,
            vec![(PageId { region: 0, index: 0 }, 1), (PageId { region: 0, index: 3 }, 2)]
        );
        assert_eq!(cfg.placement.locks, vec![(1, 3)]);
        assert!(ClusterConfig::new(4, PlatformKind::SwDsm).placement.is_empty());
        assert!(ClusterConfig::parse("nodes=4\nplatform=swdsm\nplace_home=0:1").is_err());
        assert!(ClusterConfig::parse("nodes=4\nplatform=swdsm\nplace_lock=1:x").is_err());
        // Parsable but impossible: a node past the cluster, or a page
        // home or a state-transfer cutoff on a platform without a
        // software DSM, is refused by the parser and by bring-up of the
        // same configuration built in code, with the same error.
        for (platform, key, value, what) in [
            ("swdsm", "place_lock", "1:9", "node 9 out of range"),
            ("swdsm", "place_home", "1:0:7", "node 7 out of range"),
            ("hybrid", "place_home", "0:0:1", "software-DSM"),
            ("smp", "delta_max_records", "64", "software-DSM"),
        ] {
            let err = ClusterConfig::parse(&format!("nodes=4\nplatform={platform}\n{key}={value}")).unwrap_err();
            assert!(err.starts_with(&format!("config key \"{key}\": ")), "{err}");
            assert!(err.contains(what), "{err}");
            let mut cfg = ClusterConfig::new(4, platform.parse().unwrap());
            match key {
                "place_lock" => cfg.placement.locks = Placement::parse_locks(value).unwrap(),
                "place_home" => cfg.placement.homes = Placement::parse_homes(value).unwrap(),
                _ => cfg.dsm.delta_max_records = value.parse().unwrap(),
            }
            assert_eq!(crate::Runtime::try_new(cfg).err(), Some(err));
        }
        // A lock manager is placed on every platform.
        for platform in ["smp", "hybrid", "mixed"] {
            let cfg = ClusterConfig::parse(&format!("nodes=4\nplatform={platform}\nplace_lock=1:3")).unwrap();
            assert_eq!(cfg.placement.locks, vec![(1, 3)]);
            assert_eq!(cfg.fabric().lock_managers, vec![(1, 3)]);
        }
    }

    #[test]
    fn membership_key_builds_a_churn_plan() {
        let cfg = ClusterConfig::parse("nodes=4\nplatform=swdsm\nmembership=7:2:1000000:9000000")
            .unwrap();
        let plan = cfg.membership.as_ref().expect("membership plan");
        assert_eq!(plan.seed, 7);
        assert!(!plan.events.is_empty());
        assert!(cfg.fabric().membership.is_some());
        assert!(ClusterConfig::new(4, PlatformKind::SwDsm).membership.is_none());
        assert!(ClusterConfig::parse("nodes=4\nplatform=swdsm\nmembership=7:2").is_err());
    }

    #[test]
    fn delta_max_records_key_sets_dsm_cutoff() {
        let cfg =
            ClusterConfig::parse("nodes=2\nplatform=swdsm\ndelta_max_records=64").unwrap();
        assert_eq!(cfg.dsm.delta_max_records, 64);
        assert_eq!(ClusterConfig::new(2, PlatformKind::SwDsm).dsm.delta_max_records, 0);
        assert!(ClusterConfig::parse("nodes=2\nplatform=swdsm\ndelta_max_records=x").is_err());
    }

    #[test]
    fn fault_plan_reaches_the_fabric_with_default_resilience() {
        let mut cfg = ClusterConfig::new(2, PlatformKind::SwDsm);
        assert!(cfg.fabric().faults.is_none());
        assert!(cfg.fabric().resilience.is_none());
        cfg.faults = Some(FaultPlan { seed: 42, ..FaultPlan::default() });
        let fabric = cfg.fabric();
        assert_eq!(fabric.faults.as_ref().expect("fault plan").seed, 42);
        assert!(fabric.resilience.is_some());
    }

    #[test]
    fn sync_key_selects_topology() {
        let cfg = ClusterConfig::parse("nodes=2\nplatform=swdsm").unwrap();
        assert_eq!(cfg.sync, SyncTopology::centralized());
        let cfg = ClusterConfig::parse("nodes=2\nplatform=swdsm\nsync=scalable").unwrap();
        assert_eq!(cfg.sync, SyncTopology::scalable());
        assert_eq!(cfg.fabric().sync, SyncTopology::scalable());
        let cfg = ClusterConfig::parse("nodes=2\nplatform=hybrid\nsync=tree:4").unwrap();
        assert_eq!(cfg.sync.barrier, cluster::BarrierTopology::Tree { fanout: 4 });
        assert!(ClusterConfig::parse("nodes=2\nplatform=swdsm\nsync=mesh").is_err());
    }

    #[test]
    fn removed_sync_value_is_an_error_naming_the_key() {
        let mut map = ConfigMap::parse("nodes=2\nplatform=swdsm").unwrap();
        map.set("sync", "dissemination");
        let err = ClusterConfig::from_config_map(&map).unwrap_err();
        assert!(err.starts_with("config key \"sync\": "), "{err}");
        assert!(err.contains("the dissemination barrier was removed"), "{err}");
        assert!(err.contains("centralized | scalable | tree | tree:<fanout>"), "{err}");
    }
}
