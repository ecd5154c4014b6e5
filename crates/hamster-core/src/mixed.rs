//! The mixed platform: several DSM mechanisms inside one application.
//!
//! Paper §6: "HAMSTER makes it possible to combine several different
//! DSM mechanisms within the execution of a single application,
//! resulting in custom-tailored, shared memory solutions for individual
//! applications." This module is that future-work item, realized: both
//! the page-based software DSM and the word-granular hybrid DSM are
//! installed on one (SAN-connected) cluster, and each *allocation*
//! chooses its engine — bulk arrays with good locality go to the
//! page-based engine (whole-page amortization, diff write-back), while
//! irregularly or finely accessed data goes to the word-based engine
//! (no page fetches, no false sharing).
//!
//! Synchronization is mastered by the software DSM's scope-consistent
//! locks and barriers; the hybrid engine piggybacks a
//! [`HybridNode::sync_point`] (write-buffer drain + remote-cache drop)
//! on every edge, so both engines' data obey the same happens-before
//! order.

use hybriddsm::node::HYBRID_REGION_BASE;
use hybriddsm::HybridNode;
use memwire::{Distribution, GlobalAddr, RegionId};
use swdsm::DsmNode;

/// Which engine serves an allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineHint {
    /// Page-based software DSM (default: bulk data with locality).
    #[default]
    PageBased,
    /// Word-granular hybrid DSM (fine-grained or irregular data).
    WordBased,
}

/// A node's binding to the mixed platform.
pub struct MixedNode {
    sw: DsmNode,
    hy: HybridNode,
}

impl MixedNode {
    /// Bind both engines (already installed on the same cluster).
    pub fn new(sw: DsmNode, hy: HybridNode) -> Self {
        assert_eq!(sw.rank(), hy.rank());
        Self { sw, hy }
    }

    fn is_word_based(region: RegionId) -> bool {
        (HYBRID_REGION_BASE..1 << 24).contains(&region)
    }

    /// This node's rank.
    pub fn rank(&self) -> usize {
        self.sw.rank()
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.sw.nodes()
    }

    /// The node execution context.
    pub fn ctx(&self) -> &cluster::NodeCtx {
        self.sw.ctx()
    }

    /// Collective allocation on the engine chosen by `hint`.
    pub fn alloc_with(&self, bytes: usize, dist: Distribution, hint: EngineHint) -> GlobalAddr {
        match hint {
            EngineHint::PageBased => self.sw.alloc(bytes, dist),
            EngineHint::WordBased => self.hy.alloc(bytes, dist),
        }
    }

    /// Collective allocation, page-based by default.
    pub fn alloc(&self, bytes: usize, dist: Distribution) -> GlobalAddr {
        self.alloc_with(bytes, dist, EngineHint::PageBased)
    }

    /// Single-node allocation (always page-based — TreadMarks semantics
    /// belong to the software DSM).
    pub fn alloc_local(&self, bytes: usize) -> GlobalAddr {
        self.sw.alloc_local(bytes)
    }

    /// Adopt a remotely allocated region.
    pub fn adopt(&self, addr: GlobalAddr, bytes: usize, home: usize) {
        assert!(!Self::is_word_based(addr.region()), "adopt is a page-engine operation");
        self.sw.adopt(addr, bytes, home);
    }

    /// Read bytes, routed by the address's engine.
    pub fn read_bytes(&self, addr: GlobalAddr, out: &mut [u8]) {
        if Self::is_word_based(addr.region()) {
            self.hy.read_bytes(addr, out)
        } else {
            self.sw.read_bytes(addr, out)
        }
    }

    /// Write bytes, routed by the address's engine.
    pub fn write_bytes(&self, addr: GlobalAddr, data: &[u8]) {
        if Self::is_word_based(addr.region()) {
            self.hy.write_bytes(addr, data)
        } else {
            self.sw.write_bytes(addr, data)
        }
    }

    /// Read a u64.
    pub fn read_u64(&self, addr: GlobalAddr) -> u64 {
        let mut b = [0u8; 8];
        self.read_bytes(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Write a u64.
    pub fn write_u64(&self, addr: GlobalAddr, v: u64) {
        self.write_bytes(addr, &v.to_le_bytes());
    }

    /// Read an f64.
    pub fn read_f64(&self, addr: GlobalAddr) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Write an f64.
    pub fn write_f64(&self, addr: GlobalAddr, v: f64) {
        self.write_u64(addr, v.to_bits());
    }

    /// Acquire a lock: one synchronization authority (the software
    /// DSM); the hybrid engine drops its remote-read cache so the scope
    /// edge covers both engines' data.
    pub fn acquire(&self, lock: u32) {
        self.sw.acquire(lock);
        self.hy.sync_point();
    }

    /// Shared (reader) acquire through the synchronization authority.
    pub fn acquire_shared(&self, lock: u32) {
        self.sw.acquire_shared(lock);
        self.hy.sync_point();
    }

    /// Release a lock, publishing both engines' modifications.
    pub fn release(&self, lock: u32) {
        self.hy.sync_point();
        self.sw.release(lock);
    }

    /// Barrier across both engines.
    pub fn barrier(&self, id: u32) {
        self.hy.sync_point();
        self.sw.barrier(id);
        self.hy.sync_point();
    }

    /// Hybrid-side store visibility.
    pub fn flush(&self) {
        self.hy.flush();
    }
}
