//! Shared-memory wait queues: the support structure beneath condition
//! variables (POSIX model) and waitable objects (Win32 model).
//!
//! A wait queue lives in global memory and records `(node, event)`
//! pairs. Callers serialize access with the guard lock that the owning
//! construct already holds (the condition's mutex, the object's
//! internal lock), then wake waiters through the Synchronization
//! module's events. This is exactly the paper's observation that thread
//! APIs need a forwarding/wakeup facility *built from* HAMSTER
//! messaging primitives rather than provided by them.

use hamster_core::{Access, GlobalAddr, Hamster};

/// Maximum simultaneous waiters per queue.
pub const CAPACITY: usize = 128;

/// Bytes of shared memory a queue occupies.
pub const QUEUE_BYTES: usize = 8 + CAPACITY * 16;

/// A wait queue in global memory (base address of its storage).
#[derive(Debug, Clone, Copy)]
pub struct WaitQueue {
    base: GlobalAddr,
}

impl WaitQueue {
    /// Bind a queue to storage at `base` (at least [`QUEUE_BYTES`]).
    /// Storage must be zero-initialized (fresh allocations are).
    pub fn at(base: GlobalAddr) -> Self {
        Self { base }
    }

    fn len(&self, ham: &Hamster) -> usize {
        ham.mem().read_u64(self.base) as usize
    }

    fn set_len(&self, ham: &Hamster, n: usize) {
        ham.mem().write_u64(self.base, n as u64);
    }

    fn slot(&self, i: usize) -> GlobalAddr {
        self.base.add(8 + (i * 16) as u32)
    }

    /// Number of registered waiters. Caller must hold the guard lock.
    pub fn waiters(&self, ham: &Hamster) -> usize {
        self.len(ham)
    }

    /// Register `(node, event)`. Caller must hold the guard lock.
    pub fn push(&self, ham: &Hamster, node: usize, event: u32) {
        let n = self.len(ham);
        assert!(n < CAPACITY, "wait queue overflow");
        ham.mem().write_u64(self.slot(n), node as u64);
        ham.mem().write_u64(self.slot(n).add(8), event as u64);
        self.set_len(ham, n + 1);
    }

    /// Remove and return the oldest waiter. Caller must hold the guard
    /// lock.
    pub fn pop(&self, ham: &Hamster) -> Option<(usize, u32)> {
        let n = self.len(ham);
        if n == 0 {
            return None;
        }
        let node = ham.mem().read_u64(self.slot(0)) as usize;
        let event = ham.mem().read_u64(self.slot(0).add(8)) as u32;
        // Shift the queue down (FIFO wakeup order, as in fair mutexes).
        for i in 1..n {
            let a = ham.mem().read_u64(self.slot(i));
            let b = ham.mem().read_u64(self.slot(i).add(8));
            ham.mem().write_u64(self.slot(i - 1), a);
            ham.mem().write_u64(self.slot(i - 1).add(8), b);
        }
        self.set_len(ham, n - 1);
        Some((node, event))
    }

    /// Wake the oldest waiter, if any. Caller must hold the guard lock.
    pub fn wake_one(&self, ham: &Hamster) -> bool {
        match self.pop(ham) {
            Some((node, event)) => {
                ham.sync().set_event(node, event);
                true
            }
            None => false,
        }
    }

    /// Wake every waiter. Caller must hold the guard lock.
    pub fn wake_all(&self, ham: &Hamster) -> usize {
        let mut woken = 0;
        while self.wake_one(ham) {
            woken += 1;
        }
        woken
    }
}
