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

use hybriddsm::{HybridNode, HYBRID_REGION_BASE};
use memwire::{Access, Distribution, Engine, EngineHint, GlobalAddr, RegionId, LOCAL_REGION_BASE};
use swdsm::DsmNode;

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
        (HYBRID_REGION_BASE..LOCAL_REGION_BASE).contains(&region)
    }

    /// The engine serving `region`.
    fn engine(&self, region: RegionId) -> &dyn Access {
        if Self::is_word_based(region) {
            &self.hy
        } else {
            &self.sw
        }
    }
}

/// Routed by the address's engine.
impl Access for MixedNode {
    fn read_bytes(&self, addr: GlobalAddr, out: &mut [u8]) {
        self.engine(addr.region()).read_bytes(addr, out)
    }

    fn write_bytes(&self, addr: GlobalAddr, data: &[u8]) {
        self.engine(addr.region()).write_bytes(addr, data)
    }
}

/// One synchronization authority (the software DSM); the hybrid engine
/// drains its write buffer and drops its remote-read cache on every
/// edge, so the scope edge covers both engines' data.
impl Engine for MixedNode {
    /// Page-based by default.
    fn alloc(&self, bytes: usize, dist: Distribution) -> GlobalAddr {
        self.sw.alloc(bytes, dist)
    }

    fn alloc_with(&self, bytes: usize, dist: Distribution, hint: EngineHint) -> GlobalAddr {
        match hint {
            EngineHint::PageBased => self.sw.alloc(bytes, dist),
            EngineHint::WordBased => self.hy.alloc(bytes, dist),
        }
    }

    /// Always page-based: TreadMarks semantics belong to the software
    /// DSM.
    fn alloc_local(&self, bytes: usize) -> GlobalAddr {
        self.sw.alloc_local(bytes)
    }

    fn adopt(&self, addr: GlobalAddr, bytes: usize, home: usize) {
        assert!(!Self::is_word_based(addr.region()), "adopt is a page-engine operation");
        self.sw.adopt(addr, bytes, home);
    }

    fn acquire(&self, lock: u32) {
        self.sw.acquire(lock);
        self.hy.sync_point();
    }

    fn acquire_shared(&self, lock: u32) {
        self.sw.acquire_shared(lock);
        self.hy.sync_point();
    }

    /// Publishes both engines' modifications.
    fn release(&self, lock: u32) {
        self.hy.sync_point();
        self.sw.release(lock);
    }

    fn barrier(&self, id: u32) {
        self.hy.sync_point();
        self.sw.barrier(id);
        self.hy.sync_point();
    }

    /// Hybrid-side store visibility.
    fn flush(&self) {
        self.hy.flush();
    }

    fn private_traffic(&self, bytes: u64) {
        self.sw.private_traffic(bytes);
    }
}
