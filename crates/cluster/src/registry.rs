//! Node identification and parameter queries (Cluster Control services).

use crate::config::FabricConfig;

/// CPUs on every node: the testbed's nodes are dual-processor.
const CPUS_PER_NODE: usize = 2;

/// Static description of one node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeInfo {
    /// Rank of the node (0-based).
    pub rank: usize,
    /// Host name, `nodeNN` by convention.
    pub name: String,
    /// CPUs on the node (two, as on the testbed).
    pub cpus: usize,
    /// Main memory in bytes (the testbed's 512 MB).
    pub memory_bytes: u64,
}

/// The cluster-wide node table.
#[derive(Debug, Clone)]
pub struct Registry {
    nodes: Vec<NodeInfo>,
}

impl Registry {
    /// Build the registry from a fabric configuration.
    pub fn from_config(cfg: &FabricConfig) -> Self {
        let nodes = (0..cfg.nodes)
            .map(|rank| NodeInfo {
                rank,
                name: format!("node{rank:02}"),
                cpus: CPUS_PER_NODE,
                memory_bytes: 512 << 20,
            })
            .collect();
        Self { nodes }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the registry is empty (never the case after bring-up).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Info for `rank`.
    pub fn node(&self, rank: usize) -> &NodeInfo {
        &self.nodes[rank]
    }

    /// Look a node up by name.
    pub fn by_name(&self, name: &str) -> Option<&NodeInfo> {
        self.nodes.iter().find(|n| n.name == name)
    }

    /// All nodes.
    pub fn iter(&self) -> impl Iterator<Item = &NodeInfo> {
        self.nodes.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LinkKind;

    #[test]
    fn registry_matches_config() {
        let cfg = FabricConfig::builder().nodes(4).link(LinkKind::Ethernet).build();
        let r = Registry::from_config(&cfg);
        assert_eq!(r.len(), 4);
        assert_eq!(r.node(2).name, "node02");
        assert_eq!(r.node(2).cpus, 2);
    }

    #[test]
    fn lookup_by_name() {
        let cfg = FabricConfig::builder().nodes(2).link(LinkKind::Sci).build();
        let r = Registry::from_config(&cfg);
        assert_eq!(r.by_name("node01").unwrap().rank, 1);
        assert!(r.by_name("node99").is_none());
    }
}
