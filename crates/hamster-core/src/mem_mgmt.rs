//! The Memory Management module (paper §4.2).

use crate::config::PlatformCaps;
use crate::hamster::NodeCore;
use crate::monitor::MEM_STAT_NAMES;
use memwire::{Access, Distribution, EngineHint, GlobalAddr};
use sim::stats::stat_index;

/// Indices of the counters every access bumps (checked at compile time).
const READS: usize = stat_index(MEM_STAT_NAMES, "reads");
const WRITES: usize = stat_index(MEM_STAT_NAMES, "writes");
const BULK_BYTES: usize = stat_index(MEM_STAT_NAMES, "bulk_bytes");

/// Coherence requirement attached to an allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CoherenceReq {
    /// Whatever the platform offers (always satisfiable).
    #[default]
    Default,
    /// Hardware-coherent memory required (only SMPs provide it).
    HardwareCoherent,
    /// Relaxed coherence is acceptable.
    RelaxedOk,
}

/// Allocation annotations: distribution, coherence constraint, and —
/// on the mixed platform — which DSM engine serves the region.
#[derive(Debug, Clone, Copy)]
pub struct AllocSpec {
    /// Home-placement annotation for the region's pages.
    pub dist: Distribution,
    /// Coherence requirement (checked against the platform's probe).
    pub coherence: CoherenceReq,
    /// DSM engine selection (meaningful on the mixed platform only).
    pub engine: EngineHint,
}

impl Default for AllocSpec {
    fn default() -> Self {
        Self {
            dist: Distribution::Block,
            coherence: CoherenceReq::Default,
            engine: EngineHint::PageBased,
        }
    }
}

/// Why an allocation was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// The platform cannot provide the requested coherence; probe with
    /// [`MemMgmt::probe`] to discover what it supports.
    UnsupportedCoherence,
    /// Zero-byte allocations are rejected.
    EmptyAllocation,
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemError::UnsupportedCoherence => {
                write!(f, "requested coherence unsupported by this platform")
            }
            MemError::EmptyAllocation => write!(f, "zero-byte allocation"),
        }
    }
}

impl std::error::Error for MemError {}

/// A global allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    addr: GlobalAddr,
    size: usize,
}

impl Region {
    /// Reassemble a region handle from its base address and size (used
    /// when an address is received over the wire, e.g. TreadMarks'
    /// distribute routine).
    pub fn new(addr: GlobalAddr, size: usize) -> Self {
        Self { addr, size }
    }

    /// Base address.
    pub fn addr(&self) -> GlobalAddr {
        self.addr
    }

    /// Size in bytes.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Address `offset` bytes into the region (bounds-checked).
    pub fn at(&self, offset: usize) -> GlobalAddr {
        assert!(offset < self.size, "offset {offset} outside region of {} bytes", self.size);
        self.addr.add(offset as u32)
    }
}

/// Facade over the memory services.
pub struct MemMgmt<'a> {
    pub(crate) core: &'a NodeCore,
}

impl MemMgmt<'_> {
    /// Collective allocation with annotations. All nodes must call in
    /// lockstep (the DSM APIs' synchronous-allocation semantics).
    pub fn alloc(&self, bytes: usize, spec: AllocSpec) -> Result<Region, MemError> {
        self.core.charge_service();
        self.core.stats.mem.add("allocs", 1);
        if bytes == 0 {
            return Err(MemError::EmptyAllocation);
        }
        if spec.coherence == CoherenceReq::HardwareCoherent && !self.core.caps.hardware_coherent {
            return Err(MemError::UnsupportedCoherence);
        }
        self.core.stats.mem.add("alloc_bytes", bytes as u64);
        let addr = self.core.engine.alloc_with(bytes, spec.dist, spec.engine);
        // Correlate the allocation instant with the region it produced
        // so per-page diagnoses can name their region's birth.
        self.core.trace_corr("mem", "alloc", bytes as u64, addr.0 + 1);
        Ok(Region::new(addr, bytes))
    }

    /// Collective allocation with default annotations.
    pub fn alloc_default(&self, bytes: usize) -> Result<Region, MemError> {
        self.alloc(bytes, AllocSpec::default())
    }

    /// Single-node allocation (TreadMarks semantics): only the caller
    /// allocates; the address must be distributed explicitly.
    pub fn alloc_local(&self, bytes: usize) -> Result<Region, MemError> {
        self.core.charge_service();
        self.core.stats.mem.add("allocs", 1);
        if bytes == 0 {
            return Err(MemError::EmptyAllocation);
        }
        self.core.stats.mem.add("alloc_bytes", bytes as u64);
        Ok(Region::new(self.core.engine.alloc_local(bytes), bytes))
    }

    /// Adopt a region allocated on node `home` (receiver side of an
    /// address distribution).
    pub fn adopt(&self, region: Region, home: usize) {
        self.core.charge_service();
        self.core.engine.adopt(region.addr(), region.size(), home);
    }

    /// Capability probe (paper §4.2: discover supported coherence
    /// schemes before annotating allocations).
    pub fn probe(&self) -> PlatformCaps {
        self.core.charge_service();
        self.core.stats.mem.add("probes", 1);
        self.core.caps
    }

    #[doc(hidden)] // ledger-pinned, goes with ROADMAP 11(b)
    #[inline]
    pub fn read_u64(&self, addr: GlobalAddr) -> u64 { Access::read_u64(self, addr) }
}

/// The global access functions: each access charges the service call
/// and bumps this module's counters, then goes to the platform engine.
/// The typed accessors come with the trait, one byte access each.
impl Access for MemMgmt<'_> {
    #[inline]
    fn read_bytes(&self, addr: GlobalAddr, out: &mut [u8]) {
        self.core.charge_service();
        self.core.stats.mem.at(READS).incr();
        if out.len() > 64 {
            self.core.stats.mem.at(BULK_BYTES).add(out.len() as u64);
        }
        self.core.engine.read_bytes(addr, out);
    }

    #[inline]
    fn write_bytes(&self, addr: GlobalAddr, data: &[u8]) {
        self.core.charge_service();
        self.core.stats.mem.at(WRITES).incr();
        if data.len() > 64 {
            self.core.stats.mem.at(BULK_BYTES).add(data.len() as u64);
        }
        self.core.engine.write_bytes(addr, data);
    }
}
