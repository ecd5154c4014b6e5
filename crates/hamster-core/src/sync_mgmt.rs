//! The Synchronization Management module (paper §4.2).
//!
//! Locks and barriers optimized for the base architecture (delegated to
//! the platform engines), plus the building blocks programming models
//! need: events (one-shot wakeups, the substrate for condition
//! variables and thread joins) and global atomic read-modify-write.
//!
//! Which wire protocols sit under the lock and barrier calls — central
//! lock and barrier managers, aggregation trees — is the business
//! of the one synchronisation driver every platform engine runs
//! (`cluster::syncproto::driver`), steered by the fabric's
//! [`cluster::SyncTopology`] (the `sync` configuration key) alike on
//! every platform; this facade and the engines are topology-agnostic.

use crate::hamster::NodeCore;
use crate::runtime::kinds;
use interconnect::mailbox;
use memwire::GlobalAddr;

/// Lock ids at or above this are reserved for internal use (atomics).
const ATOMIC_LOCK_BASE: u32 = 0x4000_0000;

/// Facade over the synchronization services.
pub struct SyncMgmt<'a> {
    pub(crate) core: &'a NodeCore,
}

impl SyncMgmt<'_> {
    /// Acquire global lock `lock` (blocking, FIFO-fair per manager).
    pub fn lock(&self, lock: u32) {
        assert!(lock < ATOMIC_LOCK_BASE, "lock id {lock:#x} is reserved");
        self.core.charge_service();
        self.core.stats.sync.add("locks", 1);
        self.core.trace_corr("sync", "lock", lock as u64, lock as u64 + 1);
        self.core.engine.acquire(lock);
    }

    /// Acquire global lock `lock` in shared (reader) mode. Readers of
    /// one lock overlap; a writer ([`SyncMgmt::lock`]) excludes them.
    /// Release with [`SyncMgmt::unlock`] like any holder.
    pub fn read_lock(&self, lock: u32) {
        assert!(lock < ATOMIC_LOCK_BASE, "lock id {lock:#x} is reserved");
        self.core.charge_service();
        self.core.stats.sync.add("locks", 1);
        self.core.trace_corr("sync", "read_lock", lock as u64, lock as u64 + 1);
        self.core.engine.acquire_shared(lock);
    }

    /// Release global lock `lock`.
    pub fn unlock(&self, lock: u32) {
        self.core.charge_service();
        self.core.stats.sync.add("unlocks", 1);
        self.core.trace_corr("sync", "unlock", lock as u64, lock as u64 + 1);
        self.core.engine.release(lock);
    }

    /// Wait at global barrier `id` (all nodes participate).
    pub fn barrier(&self, id: u32) {
        self.core.charge_service();
        self.core.stats.sync.add("barriers", 1);
        self.core.trace_corr("sync", "barrier", id as u64, id as u64 + 1);
        self.core.engine.barrier(id);
    }

    /// Signal event `event` on node `dst`. One waiter is woken per
    /// signal (signals queue FIFO). The runtime's handler deposits the
    /// signal under the event's mailbox tag.
    pub fn set_event(&self, dst: usize, event: u32) {
        self.core.charge_service();
        self.core.stats.sync.add("events_set", 1);
        // Tagged: a signal destroyed by fault injection leaves a loss
        // tombstone under the event tag instead of stranding the waiter.
        self.core.ctx.port().post_tagged(
            dst,
            kinds::EVENT_SET,
            event,
            16,
            mailbox::tag(kinds::EVENT_SET, event),
        );
    }

    /// Block until event `event` is signalled on this node.
    pub fn wait_event(&self, event: u32) {
        self.core.charge_service();
        self.core.stats.sync.add("events_waited", 1);
        let _ = self.core.ctx.port().wait_mailbox(mailbox::tag(kinds::EVENT_SET, event));
    }

    /// Atomically add `delta` to the u64 at `addr`, returning the old
    /// value. Implemented as a tiny internal critical section keyed by
    /// the address (the generic mechanism models build `fetch&add`,
    /// semaphores, and reductions from).
    pub fn fetch_add_u64(&self, addr: GlobalAddr, delta: u64) -> u64 {
        self.core.charge_service();
        self.core.stats.sync.add("atomics", 1);
        let lock = ATOMIC_LOCK_BASE + (addr.0 % 1024) as u32;
        self.core.engine.acquire(lock);
        let old = self.core.engine.read_u64(addr);
        self.core.engine.write_u64(addr, old.wrapping_add(delta));
        self.core.engine.release(lock);
        old
    }
}
