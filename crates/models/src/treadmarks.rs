//! The TreadMarks API, as a HAMSTER programming model.
//!
//! The paper singles TreadMarks out (§5.2): unlike the other DSM APIs it
//! uses *single-node* allocation, so almost all routines map directly
//! onto HAMSTER services and only the allocation-distribution routine
//! must be implemented by hand — here via the Cluster Control module's
//! messaging layer.

use hamster_core::{Access, GlobalAddr, Hamster, Region};

/// User-message channel reserved for `Tmk_distribute`.
const DISTRIBUTE_CHANNEL: u32 = 0x7D15;

/// A process's binding to the TreadMarks model.
pub struct Tmk {
    ham: Hamster,
}

/// `Tmk_startup`: attach the model.
pub fn tmk_startup(ham: Hamster) -> Tmk {
    Tmk { ham }
}

impl Tmk {
    /// `Tmk_proc_id`.
    pub fn tmk_proc_id(&self) -> usize {
        self.ham.task().rank()
    }

    /// `Tmk_nprocs`.
    pub fn tmk_nprocs(&self) -> usize {
        self.ham.task().nodes()
    }

    /// `Tmk_malloc`: single-node allocation — only the caller allocates;
    /// the pointer must be passed to the other processes with
    /// [`Tmk::tmk_distribute`].
    pub fn tmk_malloc(&self, bytes: usize) -> GlobalAddr {
        self.ham.mem().alloc_local(bytes).expect("Tmk_malloc").addr()
    }

    /// `Tmk_distribute`: hand-implemented address distribution (the one
    /// routine without a direct HAMSTER counterpart). The allocator
    /// broadcasts `(addr, size)`; every other process must call
    /// [`Tmk::tmk_receive_distribution`].
    pub fn tmk_distribute(&self, addr: GlobalAddr, bytes: usize) {
        let mut payload = Vec::with_capacity(20);
        payload.extend_from_slice(&addr.0.to_le_bytes());
        payload.extend_from_slice(&(bytes as u64).to_le_bytes());
        payload.extend_from_slice(&(self.tmk_proc_id() as u32).to_le_bytes());
        self.ham.cluster().broadcast(DISTRIBUTE_CHANNEL, &payload);
    }

    /// Receiver side of [`Tmk::tmk_distribute`]: blocks for the next
    /// distributed allocation and registers it locally.
    pub fn tmk_receive_distribution(&self) -> GlobalAddr {
        let msg = self.ham.cluster().recv(DISTRIBUTE_CHANNEL);
        let addr = GlobalAddr(u64::from_le_bytes(msg.bytes[0..8].try_into().unwrap()));
        let bytes = u64::from_le_bytes(msg.bytes[8..16].try_into().unwrap()) as usize;
        let home = u32::from_le_bytes(msg.bytes[16..20].try_into().unwrap()) as usize;
        self.ham.mem().adopt(region_of(addr, bytes), home);
        addr
    }

    /// `Tmk_barrier`.
    pub fn tmk_barrier(&self, id: u32) {
        self.ham.cons().barrier_sync(id);
    }

    /// `Tmk_lock_acquire`.
    pub fn tmk_lock_acquire(&self, lock: u32) {
        self.ham.cons().acquire_scope(lock);
    }

    /// `Tmk_lock_release`.
    pub fn tmk_lock_release(&self, lock: u32) {
        self.ham.cons().release_scope(lock);
    }

    /// `Tmk_exit`.
    pub fn tmk_exit(&self) {
        self.ham.cons().barrier_sync(0);
    }

    /// Typed load (pointer dereference in original TreadMarks).
    pub fn load_f64(&self, a: GlobalAddr) -> f64 {
        self.ham.mem().read_f64(a)
    }

    /// Typed store.
    pub fn store_f64(&self, a: GlobalAddr, v: f64) {
        self.ham.mem().write_f64(a, v);
    }

    /// Typed load of a u64.
    pub fn load_u64(&self, a: GlobalAddr) -> u64 {
        self.ham.mem().read_u64(a)
    }

    /// Typed store of a u64.
    pub fn store_u64(&self, a: GlobalAddr, v: u64) {
        self.ham.mem().write_u64(a, v);
    }

    /// The underlying HAMSTER handle.
    pub fn ham(&self) -> &Hamster {
        &self.ham
    }
}

fn region_of(addr: GlobalAddr, bytes: usize) -> Region {
    // Regions are identified by base address; reconstruct the handle.
    Region::new(addr, bytes)
}
