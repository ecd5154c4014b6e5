//! An OpenMP-flavoured model, as a HAMSTER programming model.
//!
//! The paper's motivation names OpenMP as shared memory's "most notable
//! effort" at standardization — but one targeting SMPs only. This
//! adapter shows the directive vocabulary (parallel regions, static and
//! dynamic worksharing, `critical`, `single`, `master`, reductions,
//! `atomic`) mapping onto HAMSTER services just like the other nine
//! models, and therefore running on clusters too.
//!
//! HAMSTER's execution model is already SPMD, so a "parallel region" is
//! the natural state; the adapter supplies the worksharing and
//! synchronization directives around it.

use hamster_core::{Access, Distribution, GlobalAddr, Hamster};

const OMP_BARRIER: u32 = 0x6000_0000;
const OMP_CRITICAL_BASE: u32 = 0x0500_0000;

/// A thread's binding to the OpenMP-style model.
pub struct Omp {
    ham: Hamster,
    /// Shared scratch: `[dynamic index][reduction slots…]`.
    scratch: GlobalAddr,
}

/// `omp_init`: attach the model (collective — allocates the shared
/// worksharing state).
pub fn omp_init(ham: Hamster) -> Omp {
    let nodes = ham.task().nodes();
    let scratch = ham
        .mem()
        .alloc(
            (2 + nodes) * 8,
            hamster_core::AllocSpec { dist: Distribution::OnNode(0), ..Default::default() },
        )
        .expect("omp_init")
        .addr();
    Omp { ham, scratch }
}

impl Omp {
    /// `omp_get_thread_num`.
    pub fn thread_num(&self) -> usize {
        self.ham.task().rank()
    }

    /// `omp_get_num_threads`.
    pub fn num_threads(&self) -> usize {
        self.ham.task().nodes()
    }

    /// `#pragma omp parallel`: run `f` in a barrier-delimited region
    /// (all threads execute it; HAMSTER is SPMD so they are already
    /// running — the region adds the entry/exit synchronization).
    pub fn parallel<T>(&self, f: impl FnOnce(&Omp) -> T) -> T {
        self.ham.sync().barrier(OMP_BARRIER);
        let out = f(self);
        self.ham.cons().barrier_sync(OMP_BARRIER);
        out
    }

    /// `#pragma omp for schedule(static)`: each thread gets one
    /// contiguous chunk of `[lo, hi)`. Implicit barrier at the end.
    pub fn for_static(&self, lo: usize, hi: usize, mut f: impl FnMut(usize)) {
        let n = hi.saturating_sub(lo);
        let per = n.div_ceil(self.num_threads());
        let my_lo = lo + (self.thread_num() * per).min(n);
        let my_hi = lo + ((self.thread_num() + 1) * per).min(n);
        for i in my_lo..my_hi {
            f(i);
        }
        self.ham.cons().barrier_sync(OMP_BARRIER);
    }

    /// `#pragma omp for schedule(dynamic, chunk)`: threads grab chunks
    /// from a shared index. Implicit barrier at the end. The caller must
    /// enter with the loop's shared index reset — use inside
    /// [`Omp::parallel`], one worksharing loop at a time.
    pub fn for_dynamic(&self, lo: usize, hi: usize, chunk: usize, mut f: impl FnMut(usize)) {
        assert!(chunk > 0);
        // Reset the shared index once (single + barrier semantics).
        self.single(|| {
            self.ham.mem().write_u64(self.scratch, lo as u64);
        });
        loop {
            let start = self.ham.sync().fetch_add_u64(self.scratch, chunk as u64) as usize;
            if start >= hi {
                break;
            }
            for i in start..(start + chunk).min(hi) {
                f(i);
            }
        }
        self.ham.cons().barrier_sync(OMP_BARRIER);
    }

    /// `#pragma omp critical(name)`.
    pub fn critical<T>(&self, name: u32, f: impl FnOnce() -> T) -> T {
        self.ham.cons().acquire_scope(OMP_CRITICAL_BASE + name);
        let out = f();
        self.ham.cons().release_scope(OMP_CRITICAL_BASE + name);
        out
    }

    /// `#pragma omp single`: exactly one thread runs `f`; implicit
    /// barrier after (so its effects are visible to all).
    pub fn single(&self, f: impl FnOnce()) {
        if self.thread_num() == 0 {
            f();
        }
        self.ham.cons().barrier_sync(OMP_BARRIER);
    }

    /// `#pragma omp master`: the master thread runs `f`, no barrier.
    pub fn master(&self, f: impl FnOnce()) {
        if self.thread_num() == 0 {
            f();
        }
    }

    /// `#pragma omp barrier`.
    pub fn barrier(&self) {
        self.ham.cons().barrier_sync(OMP_BARRIER);
    }

    /// `reduction(+: x)`: every thread contributes `v`; all receive the
    /// sum.
    pub fn reduction_sum(&self, v: f64) -> f64 {
        let slot = self.scratch.add((2 + self.thread_num()) as u32 * 8);
        self.ham.mem().write_f64(slot, v);
        self.ham.cons().barrier_sync(OMP_BARRIER);
        let mut sum = 0.0;
        for t in 0..self.num_threads() {
            sum += self.ham.mem().read_f64(self.scratch.add((2 + t) as u32 * 8));
        }
        self.ham.cons().barrier_sync(OMP_BARRIER);
        sum
    }

    /// `#pragma omp atomic`: fetch-and-add on shared memory.
    pub fn atomic_add(&self, addr: GlobalAddr, v: u64) -> u64 {
        self.ham.sync().fetch_add_u64(addr, v)
    }

    /// `omp_get_wtime`.
    pub fn wtime(&self) -> f64 {
        self.ham.wtime()
    }

    /// The underlying HAMSTER handle.
    pub fn ham(&self) -> &Hamster {
        &self.ham
    }
}
