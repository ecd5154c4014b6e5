//! The native SPMD programming model.
//!
//! The first model implemented on HAMSTER (paper §5.2) and the basis
//! for the DSM-API adapters: a user-friendly abstraction over the raw
//! services, with typed shared arrays, reductions, and broadcasts. Its
//! calls have *broader* functionality than the services beneath them,
//! which is why the paper reports it among the larger adapters.

use hamster_core::{AllocSpec, Distribution, GlobalAddr, Hamster, Region};

/// A shared one-dimensional f64 array.
#[derive(Debug, Clone, Copy)]
pub struct SharedArray {
    region: Region,
    len: usize,
}

impl SharedArray {
    /// Element count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Address of element `i`.
    pub fn at(&self, i: usize) -> GlobalAddr {
        assert!(i < self.len, "index {i} out of bounds ({})", self.len);
        self.region.addr().add((i * 8) as u32)
    }

    /// The backing region.
    pub fn region(&self) -> Region {
        self.region
    }
}

/// A node's binding to the SPMD model.
pub struct Spmd {
    ham: Hamster,
    /// Scratch barrier id space for collectives.
    collective_barrier: u32,
}

/// Enter the SPMD model.
pub fn spmd_begin(ham: Hamster) -> Spmd {
    Spmd { ham, collective_barrier: 0x7000_0000 }
}

impl Spmd {
    /// This process's rank.
    pub fn my_rank(&self) -> usize {
        self.ham.task().rank()
    }

    /// World size.
    pub fn num_procs(&self) -> usize {
        self.ham.task().nodes()
    }

    /// Allocate a shared f64 array, block-distributed.
    pub fn shared_array(&self, len: usize) -> SharedArray {
        self.shared_array_dist(len, Distribution::Block)
    }

    /// Allocate a shared f64 array with an explicit distribution.
    pub fn shared_array_dist(&self, len: usize, dist: Distribution) -> SharedArray {
        let spec = AllocSpec { dist, ..Default::default() };
        let region = self.ham.mem().alloc(len * 8, spec).expect("shared_array");
        SharedArray { region, len }
    }

    /// Allocate raw shared bytes.
    pub fn shared_bytes(&self, bytes: usize, dist: Distribution) -> Region {
        let spec = AllocSpec { dist, ..Default::default() };
        self.ham.mem().alloc(bytes, spec).expect("shared_bytes")
    }

    /// Read one element.
    pub fn get(&self, a: &SharedArray, i: usize) -> f64 {
        self.ham.mem().read_f64(a.at(i))
    }

    /// Write one element.
    pub fn put(&self, a: &SharedArray, i: usize, v: f64) {
        self.ham.mem().write_f64(a.at(i), v);
    }

    /// Read a contiguous range of elements into `out`.
    pub fn get_range(&self, a: &SharedArray, start: usize, out: &mut [f64]) {
        assert!(start + out.len() <= a.len());
        memwire::read_f64s(out, |buf| self.ham.mem().read_bytes(a.at(start), buf));
    }

    /// Write a contiguous range of elements from `src`.
    pub fn put_range(&self, a: &SharedArray, start: usize, src: &[f64]) {
        assert!(start + src.len() <= a.len());
        memwire::write_f64s(src, |buf| self.ham.mem().write_bytes(a.at(start), buf));
    }

    /// Acquire a global lock.
    pub fn lock(&self, id: u32) {
        self.ham.sync().lock(id);
    }

    /// Release a global lock.
    pub fn unlock(&self, id: u32) {
        self.ham.sync().unlock(id);
    }

    /// Global barrier.
    pub fn barrier(&self, id: u32) {
        self.ham.sync().barrier(id);
    }

    /// The `[lo, hi)` slice of `n` items this rank owns under block
    /// partitioning.
    pub fn my_block(&self, n: usize) -> (usize, usize) {
        let per = n.div_ceil(self.num_procs());
        let lo = (self.my_rank() * per).min(n);
        ((lo), (lo + per).min(n))
    }

    /// Global sum reduction: every rank contributes `v`; all ranks
    /// receive the total.
    pub fn reduce_sum(&self, scratch: &SharedArray, v: f64) -> f64 {
        assert!(scratch.len() > self.num_procs(), "scratch too small");
        self.put(scratch, 1 + self.my_rank(), v);
        self.barrier(self.collective_barrier);
        if self.my_rank() == 0 {
            let mut total = 0.0;
            for r in 0..self.num_procs() {
                total += self.get(scratch, 1 + r);
            }
            self.put(scratch, 0, total);
        }
        self.barrier(self.collective_barrier);
        let total = self.get(scratch, 0);
        // Trailing barrier: nobody may start the next collective (and
        // overwrite slot 0) before everyone has read the result.
        self.barrier(self.collective_barrier);
        total
    }

    /// Broadcast `v` from `root` to all ranks (through shared memory).
    pub fn broadcast(&self, scratch: &SharedArray, root: usize, v: f64) -> f64 {
        if self.my_rank() == root {
            self.put(scratch, 0, v);
        }
        self.barrier(self.collective_barrier);
        let got = self.get(scratch, 0);
        self.barrier(self.collective_barrier);
        got
    }

    /// Seconds of virtual wall-clock time.
    pub fn wtime(&self) -> f64 {
        self.ham.wtime()
    }

    /// Charge application compute time.
    pub fn compute(&self, ns: u64) {
        self.ham.compute(ns);
    }

    /// Leave the model (final barrier).
    pub fn spmd_end(&self) {
        self.ham.sync().barrier(self.collective_barrier);
    }

    /// The underlying HAMSTER handle.
    pub fn ham(&self) -> &Hamster {
        &self.ham
    }
}

#[cfg(test)]
mod tests {
    // Pure-logic tests; cluster behaviour is covered in tests/models.rs.

    #[test]
    fn my_block_partitions_cover_exactly() {
        // Simulate my_block's arithmetic for several world sizes.
        for n in [1usize, 7, 64, 100] {
            for procs in [1usize, 2, 3, 4, 7] {
                let per = n.div_ceil(procs);
                let mut covered = 0;
                let mut last_hi = 0;
                for rank in 0..procs {
                    let lo = (rank * per).min(n);
                    let hi = ((rank + 1) * per).min(n);
                    assert!(lo <= hi);
                    assert_eq!(lo, last_hi, "gap at rank {rank} (n={n}, p={procs})");
                    covered += hi - lo;
                    last_hi = hi;
                }
                assert_eq!(covered, n);
                assert_eq!(last_hi, n);
            }
        }
    }
}
