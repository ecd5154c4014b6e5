//! The JiaJia API (subset), as a HAMSTER programming model.
//!
//! The smallest adapter of Table 2 (the paper reports 43 lines for 7
//! calls): JiaJia's user-visible surface is tiny — init/exit, a global
//! synchronous allocator, locks, and barriers. Because this
//! reproduction's DSM is access-function based (see DESIGN.md), the
//! adapter additionally exposes typed load/store calls where original
//! JiaJia programs simply dereferenced pointers.

use crate::adapter::AdapterStats;
use hamster_core::{Access, Distribution, GlobalAddr, Hamster};

/// A node's binding to the JiaJia programming model.
pub struct Jia {
    ham: Hamster,
    stats: AdapterStats,
}

/// `jia_init`: attach the model to a HAMSTER node.
pub fn jia_init(ham: Hamster) -> Jia {
    Jia { ham, stats: AdapterStats::new() }
}

impl Jia {
    /// `jiapid`: this process's id.
    pub fn jiapid(&self) -> usize {
        self.stats.count();
        self.ham.task().rank()
    }

    /// `jiahosts`: number of hosts.
    pub fn jiahosts(&self) -> usize {
        self.stats.count();
        self.ham.task().nodes()
    }

    /// `jia_alloc`: global synchronous allocation (all hosts, implicit
    /// barrier), block-distributed.
    pub fn jia_alloc(&self, bytes: usize) -> GlobalAddr {
        self.stats.count();
        self.ham.mem().alloc_default(bytes).expect("jia_alloc").addr()
    }

    /// `jia_alloc3`: allocation with an explicit distribution.
    pub fn jia_alloc3(&self, bytes: usize, dist: Distribution) -> GlobalAddr {
        self.stats.count();
        let spec = hamster_core::AllocSpec { dist, ..Default::default() };
        self.ham.mem().alloc(bytes, spec).expect("jia_alloc3").addr()
    }

    /// `jia_lock`.
    pub fn jia_lock(&self, lock: u32) {
        self.stats.count();
        self.ham.cons().acquire_scope(lock);
    }

    /// `jia_unlock`.
    pub fn jia_unlock(&self, lock: u32) {
        self.stats.count();
        self.ham.cons().release_scope(lock);
    }

    /// `jia_barrier`.
    pub fn jia_barrier(&self) {
        self.stats.count();
        self.ham.cons().barrier_sync(0);
    }

    /// `jia_clock`: seconds since startup.
    pub fn jia_clock(&self) -> f64 {
        self.stats.count();
        self.ham.wtime()
    }

    /// `jia_exit`.
    pub fn jia_exit(&self) {
        self.stats.count();
        self.ham.cons().barrier_sync(0);
    }

    /// Typed load (pointer dereference in original JiaJia).
    pub fn load_f64(&self, a: GlobalAddr) -> f64 {
        self.stats.count();
        self.ham.mem().read_f64(a)
    }

    /// Typed store (pointer dereference in original JiaJia).
    pub fn store_f64(&self, a: GlobalAddr, v: f64) {
        self.stats.count();
        self.ham.mem().write_f64(a, v);
    }

    /// Typed load of a u64.
    pub fn load_u64(&self, a: GlobalAddr) -> u64 {
        self.stats.count();
        self.ham.mem().read_u64(a)
    }

    /// Typed store of a u64.
    pub fn store_u64(&self, a: GlobalAddr, v: u64) {
        self.stats.count();
        self.ham.mem().write_u64(a, v);
    }

    /// Bulk load (memcpy from shared memory).
    pub fn load_bytes(&self, a: GlobalAddr, out: &mut [u8]) {
        self.stats.count();
        self.ham.mem().read_bytes(a, out);
    }

    /// Bulk store (memcpy into shared memory).
    pub fn store_bytes(&self, a: GlobalAddr, data: &[u8]) {
        self.stats.count();
        self.ham.mem().write_bytes(a, data);
    }

    /// The underlying HAMSTER handle (for monitoring access — JiaJia's
    /// `jia_stat` equivalent).
    pub fn ham(&self) -> &Hamster {
        &self.ham
    }

    /// Adapter-level call counters (the dynamic side of Table 2).
    pub fn adapter_stats(&self) -> &AdapterStats {
        &self.stats
    }
}
