//! Per-module performance monitoring (paper §4.3).
//!
//! Every management module keeps its own statistics, independent of what
//! the underlying architecture provides, and exposes query/reset
//! services. Tools, run-time systems, or the application itself can read
//! them — architecture- and programming-model-independently.
//!
//! ```
//! use hamster_core::{ClusterConfig, PlatformKind, Runtime};
//!
//! let rt = Runtime::new(ClusterConfig::new(2, PlatformKind::Smp));
//! let (_, counts) = rt.run(|ham| {
//!     let r = ham.mem().alloc_default(64).unwrap();
//!     ham.sync().barrier(1);
//!     ham.mem().write_u64(r.addr(), 7);
//!     ham.sync().barrier(2);
//!     // The query service: one module at a time, per node.
//!     ham.monitor().query("mem")["writes"]
//! });
//! assert!(counts.iter().all(|&w| w >= 1));
//! ```
//!
//! (The full counter vocabulary of every layer is catalogued in the
//! repository's `OBSERVABILITY.md`.)

use sim::{Sketch, StatSet};
use std::collections::BTreeMap;

/// The fabric view attached to a node's monitor: the interconnect's
/// message counters plus its request round-trip latency histogram. Both
/// share storage with the live fabric, so queries see current values.
#[derive(Clone)]
pub struct NetView {
    /// Fabric-wide message/byte counters (see `OBSERVABILITY.md`).
    pub stats: StatSet,
    /// Request round-trip latency in virtual ns.
    pub rtt: Sketch,
}

/// Counter names of each module's set, as declared (hot-path counters
/// resolve their index in these at compile time, with
/// [`sim::stats::stat_index`]).
pub(crate) const MEM_STAT_NAMES: &[&str] =
    &["allocs", "alloc_bytes", "reads", "writes", "bulk_bytes", "probes"];
const CONS_STAT_NAMES: &[&str] = &["acquires", "releases", "flushes", "sync_barriers"];
const SYNC_STAT_NAMES: &[&str] =
    &["locks", "unlocks", "barriers", "events_set", "events_waited", "atomics"];
const TASK_STAT_NAMES: &[&str] = &["remote_spawns", "joins", "forwards"];
const CLUSTER_STAT_NAMES: &[&str] = &["msgs_sent", "msgs_recv", "bytes_sent", "queries"];

/// The five modules' counter sets for one node.
#[derive(Clone)]
pub struct ModuleStats {
    /// Memory-management counters.
    pub mem: StatSet,
    /// Consistency-management counters.
    pub cons: StatSet,
    /// Synchronization counters.
    pub sync: StatSet,
    /// Task-management counters.
    pub task: StatSet,
    /// Cluster-control counters.
    pub cluster: StatSet,
    /// The interconnect view, when the runtime attached one (queried as
    /// module `"net"`; reports latency quantiles alongside counters).
    pub net: Option<NetView>,
}

impl ModuleStats {
    /// Fresh counters for one node.
    pub fn new() -> Self {
        Self {
            mem: StatSet::new(MEM_STAT_NAMES),
            cons: StatSet::new(CONS_STAT_NAMES),
            sync: StatSet::new(SYNC_STAT_NAMES),
            task: StatSet::new(TASK_STAT_NAMES),
            cluster: StatSet::new(CLUSTER_STAT_NAMES),
            net: None,
        }
    }

    /// Attach the interconnect view so `query("net")` works (builder
    /// style; the runtime calls this during node bring-up).
    pub fn with_net(mut self, stats: StatSet, rtt: Sketch) -> Self {
        self.net = Some(NetView { stats, rtt });
        self
    }

    /// The named module's counters. `"net"` resolves to the fabric's
    /// counter set when the runtime attached one.
    pub fn module(&self, name: &str) -> &StatSet {
        match name {
            "mem" => &self.mem,
            "cons" => &self.cons,
            "sync" => &self.sync,
            "task" => &self.task,
            "cluster" => &self.cluster,
            "net" => {
                &self.net.as_ref().expect("no fabric view attached to this monitor").stats
            }
            other => panic!("unknown HAMSTER module {other:?}"),
        }
    }

    /// Query service: snapshot one module's counters. For `"net"` the
    /// snapshot additionally carries the request round-trip latency
    /// quantiles (`rtt_p50` … `rtt_max`, `rtt_mean`, `rtt_count`), all
    /// in virtual nanoseconds.
    pub fn query(&self, module: &str) -> BTreeMap<&'static str, u64> {
        let mut snap = self.module(module).snapshot();
        if module == "net" {
            if let Some(net) = &self.net {
                let q = net.rtt.quantiles();
                snap.insert("rtt_count", q.count);
                snap.insert("rtt_p50", q.p50);
                snap.insert("rtt_p90", q.p90);
                snap.insert("rtt_p99", q.p99);
                snap.insert("rtt_p999", q.p999);
                snap.insert("rtt_max", q.max);
                snap.insert("rtt_mean", q.mean);
            }
        }
        snap
    }

    /// Reset service: zero one module's counters (and, for `"net"`, the
    /// latency histogram).
    pub fn reset(&self, module: &str) {
        self.module(module).reset_all();
        if module == "net" {
            if let Some(net) = &self.net {
                net.rtt.reset();
            }
        }
    }

    /// Zero everything (between benchmark phases).
    pub fn reset_all(&self) {
        for m in ["mem", "cons", "sync", "task", "cluster"] {
            self.reset(m);
        }
        if self.net.is_some() {
            self.reset("net");
        }
    }
}

impl Default for ModuleStats {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_and_reset_per_module() {
        let s = ModuleStats::new();
        s.mem.add("allocs", 2);
        s.sync.add("locks", 5);
        assert_eq!(s.query("mem")["allocs"], 2);
        assert_eq!(s.query("sync")["locks"], 5);
        s.reset("mem");
        assert_eq!(s.query("mem")["allocs"], 0);
        assert_eq!(s.query("sync")["locks"], 5);
        s.reset_all();
        assert_eq!(s.query("sync")["locks"], 0);
    }

    #[test]
    #[should_panic(expected = "unknown HAMSTER module")]
    fn unknown_module_panics() {
        ModuleStats::new().query("gpu");
    }

    #[test]
    #[should_panic(expected = "no fabric view attached")]
    fn net_without_fabric_view_panics() {
        ModuleStats::new().query("net");
    }

    #[test]
    fn net_query_reports_latency_quantiles() {
        let stats = StatSet::new(&["msgs"]);
        let rtt = Sketch::new();
        let s = ModuleStats::new().with_net(stats.clone(), rtt.clone());
        stats.add("msgs", 3);
        for v in [100, 200, 400] {
            rtt.record(v);
        }
        let snap = s.query("net");
        assert_eq!(snap["msgs"], 3);
        assert_eq!(snap["rtt_count"], 3);
        assert_eq!(snap["rtt_max"], 400);
        // Within a sub-bucket (1/32) above the true median.
        assert!(snap["rtt_p50"] >= 200 && snap["rtt_p50"] <= 206, "{}", snap["rtt_p50"]);
        s.reset("net");
        let snap = s.query("net");
        assert_eq!(snap["msgs"], 0);
        assert_eq!(snap["rtt_count"], 0);
    }
}
