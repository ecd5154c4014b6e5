//! A Cray-shmem-style one-sided put/get API, as a HAMSTER programming
//! model.
//!
//! The far end of the paper's model spectrum (§5.2): not a
//! load/store-transparent model at all, but one-sided remote puts and
//! gets over a *symmetric heap* — every PE holds an instance of each
//! symmetric allocation, and `put`/`get` address the instance of an
//! explicit target PE. Maps nearly 1:1 onto HAMSTER's memory services;
//! `fence`/`quiet` map onto consistency flushes.

use hamster_core::{Access, AllocSpec, Distribution, GlobalAddr, Hamster};
use memwire::PAGE_SIZE;

/// A symmetric allocation: one page-aligned instance per PE.
#[derive(Debug, Clone, Copy)]
pub struct Symmetric {
    base: GlobalAddr,
    stride: usize,
    bytes: usize,
}

impl Symmetric {
    /// Address of byte `offset` within PE `pe`'s instance.
    pub fn on_pe(&self, pe: usize, offset: usize) -> GlobalAddr {
        assert!(offset < self.bytes, "offset {offset} outside symmetric object");
        self.base.add((pe * self.stride + offset) as u32)
    }

    /// Usable bytes per instance.
    pub fn len(&self) -> usize {
        self.bytes
    }

    /// True for an empty object (never constructed).
    pub fn is_empty(&self) -> bool {
        self.bytes == 0
    }
}

/// A PE's binding to the shmem model.
pub struct Shmem {
    ham: Hamster,
}

/// `shmem_init` / `start_pes`.
pub fn shmem_init(ham: Hamster) -> Shmem {
    Shmem { ham }
}

impl Shmem {
    /// `shmem_my_pe`.
    pub fn my_pe(&self) -> usize {
        self.ham.task().rank()
    }

    /// `shmem_n_pes`.
    pub fn n_pes(&self) -> usize {
        self.ham.task().nodes()
    }

    /// `shmem_malloc`: collective symmetric allocation. Each PE's
    /// instance is page-aligned and homed on that PE.
    pub fn malloc(&self, bytes: usize) -> Symmetric {
        let stride = bytes.div_ceil(PAGE_SIZE) * PAGE_SIZE;
        let total = stride * self.n_pes();
        let spec = AllocSpec { dist: Distribution::Block, ..Default::default() };
        let region = self.ham.mem().alloc(total, spec).expect("shmem_malloc");
        Symmetric { base: region.addr(), stride, bytes }
    }

    /// `shmem_double_p`: put one f64 into `pe`'s instance.
    pub fn double_p(&self, sym: Symmetric, offset: usize, v: f64, pe: usize) {
        self.ham.mem().write_f64(sym.on_pe(pe, offset), v);
    }

    /// `shmem_double_g`: get one f64 from `pe`'s instance.
    pub fn double_g(&self, sym: Symmetric, offset: usize, pe: usize) -> f64 {
        self.ham.mem().read_f64(sym.on_pe(pe, offset))
    }

    /// `shmem_long_p`.
    pub fn long_p(&self, sym: Symmetric, offset: usize, v: u64, pe: usize) {
        self.ham.mem().write_u64(sym.on_pe(pe, offset), v);
    }

    /// `shmem_long_g`.
    pub fn long_g(&self, sym: Symmetric, offset: usize, pe: usize) -> u64 {
        self.ham.mem().read_u64(sym.on_pe(pe, offset))
    }

    /// `shmem_putmem`: bulk put.
    pub fn putmem(&self, sym: Symmetric, offset: usize, data: &[u8], pe: usize) {
        assert!(offset + data.len() <= sym.bytes);
        self.ham.mem().write_bytes(sym.on_pe(pe, offset), data);
    }

    /// `shmem_getmem`: bulk get.
    pub fn getmem(&self, sym: Symmetric, offset: usize, out: &mut [u8], pe: usize) {
        assert!(offset + out.len() <= sym.bytes);
        self.ham.mem().read_bytes(sym.on_pe(pe, offset), out);
    }

    /// `shmem_fence`: order puts to each PE.
    pub fn fence(&self) {
        self.ham.cons().flush();
    }

    /// `shmem_quiet`: complete all outstanding puts.
    pub fn quiet(&self) {
        self.ham.cons().flush();
    }

    /// `shmem_barrier_all` (includes a quiet, per the standard).
    pub fn barrier_all(&self) {
        self.ham.cons().barrier_sync(0x5111);
    }

    /// `shmem_double_sum_to_all`: all-reduce of one f64 per PE.
    pub fn double_sum_to_all(&self, scratch: Symmetric, v: f64) -> f64 {
        // Every PE puts its contribution into PE 0's instance slots.
        self.double_p(scratch, 8 + self.my_pe() * 8, v, 0);
        self.barrier_all();
        if self.my_pe() == 0 {
            let mut sum = 0.0;
            for pe in 0..self.n_pes() {
                sum += self.double_g(scratch, 8 + pe * 8, 0);
            }
            for pe in 0..self.n_pes() {
                self.double_p(scratch, 0, sum, pe);
            }
        }
        self.barrier_all();
        let sum = self.double_g(scratch, 0, self.my_pe());
        // Trailing barrier so a later collective cannot overwrite the
        // result slot before every PE has read it.
        self.barrier_all();
        sum
    }

    /// `shmem_broadcast64` of one u64 from `root`.
    pub fn broadcast64(&self, scratch: Symmetric, root: usize, v: u64) -> u64 {
        if self.my_pe() == root {
            for pe in 0..self.n_pes() {
                self.long_p(scratch, 0, v, pe);
            }
        }
        self.barrier_all();
        let got = self.long_g(scratch, 0, self.my_pe());
        self.barrier_all();
        got
    }

    /// `shmem_finalize`.
    pub fn finalize(&self) {
        self.barrier_all();
    }

    /// The underlying HAMSTER handle.
    pub fn ham(&self) -> &Hamster {
        &self.ham
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_addressing_is_per_pe() {
        let sym = Symmetric { base: GlobalAddr::new(5, 0), stride: 8192, bytes: 6000 };
        assert_eq!(sym.on_pe(0, 0), GlobalAddr::new(5, 0));
        assert_eq!(sym.on_pe(2, 16), GlobalAddr::new(5, 2 * 8192 + 16));
        assert_eq!(sym.len(), 6000);
        assert!(!sym.is_empty());
    }

    #[test]
    #[should_panic(expected = "outside symmetric object")]
    fn out_of_bounds_offset_panics() {
        let sym = Symmetric { base: GlobalAddr::new(5, 0), stride: 8192, bytes: 6000 };
        let _ = sym.on_pe(1, 6000);
    }
}
