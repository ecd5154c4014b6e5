//! The Consistency Management module (paper §4.2).
//!
//! Relaxed coherence needs control mechanisms; this module provides
//! them, designed to compose with the Synchronization module's
//! constructs to recreate any relaxed consistency model (see
//! [`crate::consistency`] for the packaged models of §4.5).

use crate::hamster::NodeCore;

/// Facade over the consistency services.
pub struct ConsMgmt<'a> {
    pub(crate) core: &'a NodeCore,
}

impl ConsMgmt<'_> {
    /// Enter a consistency scope: pulls in modifications published under
    /// `scope` (on the software DSM this applies the scope's write
    /// notices; on hardware-coherent platforms it is ordering-only).
    pub fn acquire_scope(&self, scope: u32) {
        self.core.charge_service();
        self.core.stats.cons.add("acquires", 1);
        self.core.trace_corr("cons", "acquire", scope as u64, scope as u64 + 1);
        self.core.engine.acquire(scope);
    }

    /// Leave a consistency scope: publishes this interval's
    /// modifications (diff write-back on the software DSM, write-buffer
    /// drain on the hybrid platform).
    pub fn release_scope(&self, scope: u32) {
        self.core.charge_service();
        self.core.stats.cons.add("releases", 1);
        self.core.trace_corr("cons", "release", scope as u64, scope as u64 + 1);
        self.core.engine.release(scope);
    }

    /// Enforce store visibility without synchronization, where the
    /// platform distinguishes the two (hybrid write buffer).
    pub fn flush(&self) {
        self.core.charge_service();
        self.core.stats.cons.add("flushes", 1);
        self.core.engine.flush();
    }

    /// Globally synchronizing barrier: all modifications ordered before
    /// it are visible to all nodes after it.
    pub fn barrier_sync(&self, id: u32) {
        self.core.charge_service();
        self.core.stats.cons.add("sync_barriers", 1);
        self.core.trace_corr("cons", "barrier_sync", id as u64, id as u64 + 1);
        self.core.engine.barrier(id);
    }
}
