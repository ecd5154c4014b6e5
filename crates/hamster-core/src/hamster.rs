//! The per-node HAMSTER handle.

use crate::cluster_ctl::ClusterCtl;
use crate::cons_mgmt::ConsMgmt;
use crate::mem_mgmt::MemMgmt;
use crate::monitor::ModuleStats;
use crate::platform::Platform;
use crate::runtime::RuntimeInner;
use crate::sync_mgmt::SyncMgmt;
use crate::task_mgmt::TaskMgmt;
use sim::MachineCost;
use std::sync::{Arc, Weak};

/// Internal node state shared by the five module facades.
pub(crate) struct NodeCore {
    pub platform: Platform,
    pub machine: MachineCost,
    pub stats: ModuleStats,
    pub runtime: Weak<RuntimeInner>,
}

impl NodeCore {
    /// Charge the cost of dispatching one HAMSTER service plus updating
    /// its monitoring counter. This is the framework's per-call overhead
    /// — the thing Figure 2 measures against native execution.
    #[inline]
    pub fn charge_service(&self) {
        self.platform
            .ctx()
            .compute(self.machine.service_call_ns + self.machine.monitor_ns);
    }

    pub fn runtime(&self) -> Arc<RuntimeInner> {
        self.runtime.upgrade().expect("HAMSTER runtime torn down")
    }

    /// Record a trace event into the process-global [`sim::trace`]
    /// session, when an external tool opened one; a no-op costing one
    /// atomic load otherwise.
    #[inline]
    pub fn trace(&self, module: &'static str, op: &'static str, arg: u64) {
        self.trace_corr(module, op, arg, 0);
    }

    /// Like [`NodeCore::trace`], carrying a correlation id so the
    /// analyzer can tie the service-level instant to the protocol
    /// events it caused (see `sim::trace::TraceEvent::corr`). The
    /// managers pass `principal + 1` (lock id, barrier id, region id)
    /// so every event of one synchronization object shares an id.
    #[inline]
    pub fn trace_corr(&self, module: &'static str, op: &'static str, arg: u64, corr: u64) {
        if sim::trace::enabled() {
            let now = self.platform.ctx().clock().now();
            sim::trace::instant_corr(now, self.platform.rank(), module, op, arg, corr);
        }
    }
}

/// A node's handle to the HAMSTER interface: the five orthogonal
/// management modules of paper §4.2, plus monitoring and timing.
///
/// `Hamster` is cheaply cloneable and `Send`, so thread programming
/// models may move it between the threads of one node CPU context.
#[derive(Clone)]
pub struct Hamster {
    pub(crate) core: Arc<NodeCore>,
}

impl Hamster {
    /// Memory management: allocation, distribution annotations,
    /// capability probing, global access functions.
    pub fn mem(&self) -> MemMgmt<'_> {
        MemMgmt { core: &self.core }
    }

    /// Consistency management: scopes, flushes, synchronizing barriers.
    pub fn cons(&self) -> ConsMgmt<'_> {
        ConsMgmt { core: &self.core }
    }

    /// Synchronization management: locks, barriers, events, atomics.
    pub fn sync(&self) -> SyncMgmt<'_> {
        SyncMgmt { core: &self.core }
    }

    /// Task management: SPMD identity and remote execution.
    pub fn task(&self) -> TaskMgmt<'_> {
        TaskMgmt { core: &self.core }
    }

    /// Cluster control: node queries and user-level messaging.
    pub fn cluster(&self) -> ClusterCtl<'_> {
        ClusterCtl { core: &self.core }
    }

    /// The monitoring interface: per-module query/reset (paper §4.3).
    pub fn monitor(&self) -> &ModuleStats {
        &self.core.stats
    }

    /// Platform capability probe.
    pub fn caps(&self) -> crate::platform::PlatformCaps {
        self.core.platform.caps()
    }

    /// Virtual wall-clock time in seconds (paper §4.4's
    /// platform-independent timing support).
    pub fn wtime(&self) -> f64 {
        self.core.platform.ctx().clock().now() as f64 / 1e9
    }

    /// Virtual time in nanoseconds.
    pub fn wtime_ns(&self) -> u64 {
        self.core.platform.ctx().clock().now()
    }

    /// Charge `ns` of application computation to this CPU.
    #[inline]
    pub fn compute(&self, ns: u64) {
        self.core.platform.ctx().compute(ns);
    }

    /// Stream private (non-shared) memory traffic through this node's
    /// memory system.
    pub fn private_traffic(&self, bytes: u64) {
        self.core.platform.private_traffic(bytes);
    }

    /// Direct access to the platform binding (used by the model layer
    /// for operations that are deliberately platform-specific).
    pub fn platform(&self) -> &Platform {
        &self.core.platform
    }
}
