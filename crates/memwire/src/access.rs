//! One access vocabulary for every engine.
//!
//! HAMSTER runs one set of management modules over very different
//! platforms (paper §1, §4.2); what those modules need from a platform
//! is this module's two traits. [`Access`] is the global-memory surface:
//! an implementor supplies byte reads and writes, and the typed
//! accessors and `f64` rows are provided here, once, each ending in
//! exactly one `read_bytes`/`write_bytes` call. [`Engine`] adds
//! allocation and the consistency-carrying synchronization verbs, so
//! the core can hold any platform's node engine as a `dyn Engine` and a
//! program moves between platforms by configuration alone (§5.4).
//!
//! Region ids follow one rule on every engine: collective allocations
//! count up from small integers, single-node (TreadMarks-style)
//! allocations live at and above [`LOCAL_REGION_BASE`] and encode the
//! allocating rank ([`local_region`], [`local_region_owner`]).

use crate::addr::{GlobalAddr, RegionId};
use crate::arena::Distribution;
use crate::marshal;

/// First region id of the single-node (non-collective) allocation
/// space; collective region ids are below this. A single-node region is
/// homed on the rank that allocated it.
pub const LOCAL_REGION_BASE: RegionId = 1 << 24;

/// Id of `rank`'s single-node region number `n`.
pub fn local_region(rank: usize, n: u32) -> RegionId {
    LOCAL_REGION_BASE * (rank as u32 + 1) + n
}

/// The rank that allocated `region`, if it is a single-node region.
#[inline]
pub fn local_region_owner(region: RegionId) -> Option<usize> {
    (region >= LOCAL_REGION_BASE).then(|| ((region >> 24) - 1) as usize)
}

/// Which engine serves an allocation. Only the mixed platform (paper
/// §6) has two engines to choose from; every other engine serves both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineHint {
    /// Page-based software DSM (default: bulk data with locality).
    #[default]
    PageBased,
    /// Word-granular hybrid DSM (fine-grained or irregular data).
    WordBased,
}

/// Reads and writes of global memory. Implementors supply the byte
/// accessors; the typed ones are provided and each makes exactly one
/// byte-accessor call, so their cost and counters are the byte path's.
pub trait Access {
    /// Read `out.len()` bytes at `addr`.
    fn read_bytes(&self, addr: GlobalAddr, out: &mut [u8]);

    /// Write `data` at `addr`.
    fn write_bytes(&self, addr: GlobalAddr, data: &[u8]);

    /// Read a little-endian `u64`.
    #[inline]
    fn read_u64(&self, addr: GlobalAddr) -> u64 {
        let mut b = [0u8; 8];
        self.read_bytes(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Write a little-endian `u64`.
    #[inline]
    fn write_u64(&self, addr: GlobalAddr, v: u64) {
        self.write_bytes(addr, &v.to_le_bytes());
    }

    /// Read an `f64`.
    #[inline]
    fn read_f64(&self, addr: GlobalAddr) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Write an `f64`.
    #[inline]
    fn write_f64(&self, addr: GlobalAddr, v: f64) {
        self.write_u64(addr, v.to_bits());
    }

    /// Read a row of `out.len()` `f64`s at `addr` (one bulk read).
    fn read_f64s(&self, addr: GlobalAddr, out: &mut [f64]) {
        marshal::read_f64s(out, |buf| self.read_bytes(addr, buf));
    }

    /// Write the row `src` at `addr` (one bulk write).
    fn write_f64s(&self, addr: GlobalAddr, src: &[f64]) {
        marshal::write_f64s(src, |buf| self.write_bytes(addr, buf));
    }
}

/// One node's binding to a platform: global memory plus allocation and
/// the synchronization verbs, each carrying the platform's consistency
/// action (diff write-back, write-buffer drain, or nothing on coherent
/// hardware).
pub trait Engine: Access + Send + Sync {
    /// Collective allocation: every node calls in the same order with
    /// the same arguments and gets the same address.
    fn alloc(&self, bytes: usize, dist: Distribution) -> GlobalAddr;

    /// Collective allocation on the engine `hint` names, where there is
    /// a choice.
    fn alloc_with(&self, bytes: usize, dist: Distribution, hint: EngineHint) -> GlobalAddr {
        let _ = hint;
        self.alloc(bytes, dist)
    }

    /// Single-node allocation (TreadMarks `Tmk_malloc`): only the caller
    /// allocates, with no barrier; the region is homed on the caller and
    /// its address must reach the other nodes explicitly.
    fn alloc_local(&self, bytes: usize) -> GlobalAddr;

    /// Adopt a region that node `home` allocated with
    /// [`Engine::alloc_local`] (the receiver side of the distribution).
    fn adopt(&self, addr: GlobalAddr, bytes: usize, home: usize);

    /// Acquire global lock `lock` exclusively.
    fn acquire(&self, lock: u32);

    /// Acquire global lock `lock` in shared (reader) mode: readers
    /// proceed together; writers exclude everyone.
    fn acquire_shared(&self, lock: u32);

    /// Release global lock `lock`.
    fn release(&self, lock: u32);

    /// Global barrier `id`.
    fn barrier(&self, id: u32);

    /// Enforce store visibility without synchronization, where the
    /// platform tells the two apart (the hybrid DSM's write buffer). On
    /// coherent hardware there is nothing to do; on the software DSM
    /// only synchronization makes writes visible, so nothing to do here
    /// either.
    fn flush(&self) {}

    /// Stream `bytes` of private (application scratch) memory traffic
    /// through this node's memory system.
    fn private_traffic(&self, bytes: u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    /// Bytes in a vector, with a count of byte-accessor calls.
    #[derive(Default)]
    struct Bytes {
        mem: RefCell<Vec<u8>>,
        calls: RefCell<usize>,
    }

    impl Access for Bytes {
        fn read_bytes(&self, addr: GlobalAddr, out: &mut [u8]) {
            *self.calls.borrow_mut() += 1;
            let at = addr.offset() as usize;
            out.copy_from_slice(&self.mem.borrow()[at..at + out.len()]);
        }

        fn write_bytes(&self, addr: GlobalAddr, data: &[u8]) {
            *self.calls.borrow_mut() += 1;
            let at = addr.offset() as usize;
            let mut mem = self.mem.borrow_mut();
            if mem.len() < at + data.len() {
                mem.resize(at + data.len(), 0);
            }
            mem[at..at + data.len()].copy_from_slice(data);
        }
    }

    #[test]
    fn typed_accessors_are_one_little_endian_byte_call_each() {
        let m = Bytes::default();
        let a = GlobalAddr::new(1, 3);
        m.write_u64(a, 0x0102_0304_0506_0708);
        assert_eq!(m.mem.borrow()[3..11], 0x0102_0304_0506_0708u64.to_le_bytes());
        assert_eq!(m.read_u64(a), 0x0102_0304_0506_0708);
        m.write_f64(a, -2.5);
        assert_eq!(m.read_f64(a), -2.5);
        m.write_f64s(a, &[1.0, 2.0, 3.0]);
        let mut row = [0.0; 3];
        m.read_f64s(a, &mut row);
        assert_eq!(row, [1.0, 2.0, 3.0]);
        assert_eq!(*m.calls.borrow(), 6);
    }

    #[test]
    fn local_region_ids_encode_the_allocating_rank() {
        assert_eq!(local_region(0, 0), LOCAL_REGION_BASE);
        assert_eq!(local_region(2, 5), 3 * LOCAL_REGION_BASE + 5);
        assert_eq!(local_region_owner(local_region(2, 5)), Some(2));
        assert_eq!(local_region_owner(local_region(0, 7)), Some(0));
        assert_eq!(local_region_owner(LOCAL_REGION_BASE - 1), None);
    }
}
