//! The HLRC (Home-based Lazy Release Consistency) API, as a HAMSTER
//! programming model.
//!
//! Like JiaJia, HLRC uses global synchronous allocation, so every call
//! maps directly onto a HAMSTER service (the paper reports 5.5 lines
//! per call — the thinnest per-call adapter of Table 2).

use hamster_core::{Access, Distribution, GlobalAddr, Hamster};

/// A process's binding to the HLRC model.
pub struct Hlrc {
    ham: Hamster,
}

/// `hlrc_init`: attach the model.
pub fn hlrc_init(ham: Hamster) -> Hlrc {
    Hlrc { ham }
}

impl Hlrc {
    /// `hlrc_my_pid`.
    pub fn my_pid(&self) -> usize {
        self.ham.task().rank()
    }

    /// `hlrc_num_procs`.
    pub fn num_procs(&self) -> usize {
        self.ham.task().nodes()
    }

    /// `hlrc_malloc`: global synchronous allocation, round-robin homes.
    pub fn malloc(&self, bytes: usize) -> GlobalAddr {
        let spec =
            hamster_core::AllocSpec { dist: Distribution::Cyclic, ..Default::default() };
        self.ham.mem().alloc(bytes, spec).expect("hlrc_malloc").addr()
    }

    /// `hlrc_malloc_home`: allocation homed on one process.
    pub fn malloc_home(&self, bytes: usize, home: usize) -> GlobalAddr {
        let spec =
            hamster_core::AllocSpec { dist: Distribution::OnNode(home), ..Default::default() };
        self.ham.mem().alloc(bytes, spec).expect("hlrc_malloc_home").addr()
    }

    /// `hlrc_acquire`.
    pub fn acquire(&self, lock: u32) {
        self.ham.cons().acquire_scope(lock);
    }

    /// `hlrc_release`.
    pub fn release(&self, lock: u32) {
        self.ham.cons().release_scope(lock);
    }

    /// `hlrc_barrier`.
    pub fn barrier(&self, id: u32) {
        self.ham.cons().barrier_sync(id);
    }

    /// `hlrc_flush`.
    pub fn flush(&self) {
        self.ham.cons().flush();
    }

    /// `hlrc_read_double`.
    pub fn read_double(&self, a: GlobalAddr) -> f64 {
        self.ham.mem().read_f64(a)
    }

    /// `hlrc_write_double`.
    pub fn write_double(&self, a: GlobalAddr, v: f64) {
        self.ham.mem().write_f64(a, v);
    }

    /// `hlrc_read_long`.
    pub fn read_long(&self, a: GlobalAddr) -> u64 {
        self.ham.mem().read_u64(a)
    }

    /// `hlrc_write_long`.
    pub fn write_long(&self, a: GlobalAddr, v: u64) {
        self.ham.mem().write_u64(a, v);
    }

    /// `hlrc_memget`.
    pub fn memget(&self, a: GlobalAddr, out: &mut [u8]) {
        self.ham.mem().read_bytes(a, out);
    }

    /// `hlrc_memput`.
    pub fn memput(&self, a: GlobalAddr, data: &[u8]) {
        self.ham.mem().write_bytes(a, data);
    }

    /// `hlrc_stat_query`: one module's counters.
    pub fn stat_query(&self, module: &str) -> std::collections::BTreeMap<&'static str, u64> {
        self.ham.monitor().query(module)
    }

    /// `hlrc_stat_reset`.
    pub fn stat_reset(&self, module: &str) {
        self.ham.monitor().reset(module);
    }

    /// `hlrc_time`: seconds.
    pub fn time(&self) -> f64 {
        self.ham.wtime()
    }

    /// `hlrc_exit`.
    pub fn exit(&self) {
        self.ham.cons().barrier_sync(0);
    }
}
