//! The consistency API (paper §4.5): packaged, optimized
//! implementations of the widely used relaxed consistency models.
//!
//! A weaker software model may always be mapped onto a stronger hardware
//! model — consistency models define a lower bound on coherence — so
//! each model below maps its operations onto whatever the platform
//! provides: on hardware-coherent SMPs the data movement is free and
//! only ordering remains; on the hybrid DSM releases drain the write
//! buffer; on the software DSM acquire/release drive the scope-
//! consistency protocol.
//!
//! Models beyond these can be composed from the HAMSTER services alone
//! (possibly at degraded performance, as the paper notes).

use crate::hamster::Hamster;
use memwire::Access;

/// A relaxed consistency model's enforcement hooks.
///
/// ```
/// use hamster_core::consistency::by_name;
/// let model = by_name("scope").unwrap();
/// assert_eq!(model.name(), "ScC");
/// ```
pub trait ConsistencyModel: Send + Sync {
    /// Human-readable name.
    fn name(&self) -> &'static str;

    /// Entering a critical region / scope.
    fn acquire(&self, ham: &Hamster, scope: u32);

    /// Leaving a critical region / scope.
    fn release(&self, ham: &Hamster, scope: u32);

    /// Global synchronization point.
    fn sync(&self, ham: &Hamster, id: u32);
}

/// Sequential consistency: every synchronization operation is a global
/// ordering point. Correct everywhere, expensive on loosely coupled
/// platforms (acquire and release both synchronize globally).
pub struct SequentialConsistency;

impl ConsistencyModel for SequentialConsistency {
    fn name(&self) -> &'static str {
        "SC"
    }

    fn acquire(&self, ham: &Hamster, scope: u32) {
        ham.sync().lock(scope);
        // SC demands the acquirer see *all* prior writes, not only those
        // under this scope: piggyback a flush and a global sync point.
        ham.cons().flush();
    }

    fn release(&self, ham: &Hamster, scope: u32) {
        ham.cons().flush();
        ham.sync().unlock(scope);
    }

    fn sync(&self, ham: &Hamster, id: u32) {
        ham.cons().barrier_sync(id);
    }
}

/// Release consistency (Gharachorloo et al. / Keleher's lazy variant at
/// the protocol level): writes become visible at release edges.
pub struct ReleaseConsistency;

impl ConsistencyModel for ReleaseConsistency {
    fn name(&self) -> &'static str {
        "RC"
    }

    fn acquire(&self, ham: &Hamster, scope: u32) {
        ham.cons().acquire_scope(scope);
    }

    fn release(&self, ham: &Hamster, scope: u32) {
        ham.cons().release_scope(scope);
    }

    fn sync(&self, ham: &Hamster, id: u32) {
        ham.cons().barrier_sync(id);
    }
}

/// Scope consistency (Iftode, Singh & Li): like release consistency but
/// visibility is limited to data modified under the same scope — the
/// model JiaJia implements, and the cheapest of the three on the
/// software DSM (notices travel only along matching scope edges).
pub struct ScopeConsistency;

impl ConsistencyModel for ScopeConsistency {
    fn name(&self) -> &'static str {
        "ScC"
    }

    fn acquire(&self, ham: &Hamster, scope: u32) {
        ham.cons().acquire_scope(scope);
    }

    fn release(&self, ham: &Hamster, scope: u32) {
        ham.cons().release_scope(scope);
    }

    fn sync(&self, ham: &Hamster, id: u32) {
        ham.cons().barrier_sync(id);
    }
}

/// Entry consistency (Bershad & Zekauskas' Midway): shared data is
/// explicitly *bound* to synchronization objects, and an acquire makes
/// only the bound data consistent.
///
/// The paper lists EC among the models HAMSTER can host "based on the
/// HAMSTER services alone" (§4.5). On the scope-consistent software DSM
/// the per-scope notice propagation already limits visibility to data
/// written under the scope, so the binding table's job here is the
/// *discipline*: in debug builds, guarded accesses assert that the
/// touched region is bound to the held scope.
pub struct EntryConsistency {
    bindings: parking_lot::RwLock<std::collections::HashMap<u32, Vec<(crate::GlobalAddr, usize)>>>,
}

impl EntryConsistency {
    /// An empty binding table.
    pub fn new() -> Self {
        Self { bindings: parking_lot::RwLock::new(std::collections::HashMap::new()) }
    }

    /// Bind `len` bytes at `base` to `scope`. All accesses to the range
    /// must happen while holding the scope.
    pub fn bind(&self, scope: u32, base: crate::GlobalAddr, len: usize) {
        self.bindings.write().entry(scope).or_default().push((base, len));
    }

    /// Whether `addr` lies within data bound to `scope`.
    pub fn is_bound(&self, scope: u32, addr: crate::GlobalAddr) -> bool {
        self.bindings.read().get(&scope).is_some_and(|ranges| {
            ranges.iter().any(|(base, len)| {
                addr.region() == base.region()
                    && addr.offset() >= base.offset()
                    && (addr.offset() as usize) < base.offset() as usize + len
            })
        })
    }

    /// Guarded write: asserts the binding discipline in debug builds.
    pub fn write_u64(&self, ham: &Hamster, scope: u32, addr: crate::GlobalAddr, v: u64) {
        debug_assert!(
            self.is_bound(scope, addr),
            "entry-consistency violation: {addr:?} not bound to scope {scope}"
        );
        ham.mem().write_u64(addr, v);
    }

    /// Guarded read.
    pub fn read_u64(&self, ham: &Hamster, scope: u32, addr: crate::GlobalAddr) -> u64 {
        debug_assert!(
            self.is_bound(scope, addr),
            "entry-consistency violation: {addr:?} not bound to scope {scope}"
        );
        ham.mem().read_u64(addr)
    }
}

impl Default for EntryConsistency {
    fn default() -> Self {
        Self::new()
    }
}

impl ConsistencyModel for EntryConsistency {
    fn name(&self) -> &'static str {
        "EC"
    }

    fn acquire(&self, ham: &Hamster, scope: u32) {
        ham.cons().acquire_scope(scope);
    }

    fn release(&self, ham: &Hamster, scope: u32) {
        ham.cons().release_scope(scope);
    }

    fn sync(&self, ham: &Hamster, id: u32) {
        ham.cons().barrier_sync(id);
    }
}

/// One step of a composed consistency action (the paper's §6 "fully
/// generic and user-centric consistency API", prototyped).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Acquire the operation's scope.
    AcquireScope,
    /// Release the operation's scope.
    ReleaseScope,
    /// Drain store buffers.
    Flush,
    /// Join a global synchronization point (uses the operation's id).
    GlobalSync,
}

/// A consistency model composed from primitive steps — the mechanism
/// for experimenting with "new, potentially application-specific
/// consistency models" (§6) without touching the framework.
pub struct Composite {
    name: &'static str,
    on_acquire: Vec<Step>,
    on_release: Vec<Step>,
    on_sync: Vec<Step>,
}

impl Composite {
    /// Compose a model from step lists.
    pub fn new(
        name: &'static str,
        on_acquire: Vec<Step>,
        on_release: Vec<Step>,
        on_sync: Vec<Step>,
    ) -> Self {
        Self { name, on_acquire, on_release, on_sync }
    }

    fn run(&self, ham: &Hamster, steps: &[Step], scope: u32) {
        for step in steps {
            match step {
                Step::AcquireScope => ham.cons().acquire_scope(scope),
                Step::ReleaseScope => ham.cons().release_scope(scope),
                Step::Flush => ham.cons().flush(),
                Step::GlobalSync => ham.cons().barrier_sync(scope),
            }
        }
    }
}

impl ConsistencyModel for Composite {
    fn name(&self) -> &'static str {
        self.name
    }

    fn acquire(&self, ham: &Hamster, scope: u32) {
        self.run(ham, &self.on_acquire, scope);
    }

    fn release(&self, ham: &Hamster, scope: u32) {
        self.run(ham, &self.on_release, scope);
    }

    fn sync(&self, ham: &Hamster, id: u32) {
        self.run(ham, &self.on_sync, id);
    }
}

/// The packaged models, for dynamic selection by name.
pub fn by_name(name: &str) -> Option<Box<dyn ConsistencyModel>> {
    match name {
        "SC" | "sc" | "sequential" => Some(Box::new(SequentialConsistency)),
        "RC" | "rc" | "release" => Some(Box::new(ReleaseConsistency)),
        "ScC" | "scc" | "scope" => Some(Box::new(ScopeConsistency)),
        "EC" | "ec" | "entry" => Some(Box::new(EntryConsistency::new())),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_by_name() {
        assert_eq!(by_name("SC").unwrap().name(), "SC");
        assert_eq!(by_name("release").unwrap().name(), "RC");
        assert_eq!(by_name("scope").unwrap().name(), "ScC");
        assert_eq!(by_name("entry").unwrap().name(), "EC");
        assert!(by_name("weak-ordering").is_none());
    }

    #[test]
    fn entry_consistency_bindings() {
        let ec = EntryConsistency::new();
        let base = crate::GlobalAddr::new(1, 64);
        ec.bind(5, base, 32);
        assert!(ec.is_bound(5, base));
        assert!(ec.is_bound(5, base.add(31)));
        assert!(!ec.is_bound(5, base.add(32)));
        assert!(!ec.is_bound(6, base));
        assert!(!ec.is_bound(5, crate::GlobalAddr::new(2, 64)));
    }
}
