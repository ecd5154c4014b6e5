//! The region directory: cluster-wide agreement on what was allocated.
//!
//! Global allocation in the JiaJia/HLRC/SPMD family is *synchronous*: all
//! nodes call the allocation routine collectively and in the same order
//! (paper §5.2: "these DSM APIs use synchronous allocation routines
//! involving all nodes"). Region ids are therefore assigned
//! deterministically per node, and the directory — replicated metadata
//! on a real cluster — is shared state here, written idempotently by
//! every participant and verified for agreement.
//!
//! Every access asks the directory for its page's home, so a lookup
//! writes nothing: a region's metadata never changes after
//! registration, so a collective id finds it in a slot table of
//! [`OnceLock`]s indexed by id — no lock, no hash, no reader count on a
//! line every node writes. Only ids that land on a slot another id
//! already holds (single-node ids, which encode the allocating rank
//! above the collective range) fall back to a locked map.

use crate::addr::{pages_for, RegionId};
use crate::arena::Distribution;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::OnceLock;

/// Slots of a region table; id `i` can only ever occupy slot
/// `i % SLOTS`.
pub(crate) const SLOTS: usize = 256;

/// Region ids → values that never change once inserted: id `i` lives in
/// slot `i % SLOTS` if it reached that slot first, else in the sparse
/// map. A slot is set once, so [`IdTable::slot`] reads it without a
/// lock; an id found in neither place was never inserted. Shared by
/// [`RegionDir`] and [`crate::RegionStore`].
pub(crate) struct IdTable<T> {
    slots: Box<[OnceLock<(RegionId, T)>]>,
    sparse: RwLock<HashMap<RegionId, T>>,
}

impl<T> Default for IdTable<T> {
    fn default() -> Self {
        Self { slots: (0..SLOTS).map(|_| OnceLock::new()).collect(), sparse: RwLock::default() }
    }
}

impl<T: Clone> IdTable<T> {
    /// Insert `value` under `id` unless `id` already holds a value,
    /// which is then returned (a clone) and left as it was.
    pub(crate) fn insert(&self, id: RegionId, value: T) -> Option<T> {
        let mut value = Some(value);
        let slot = &self.slots[id as usize % SLOTS];
        let (held, v) = slot.get_or_init(|| (id, value.take().expect("the initialiser runs once")));
        match value {
            None => None,
            Some(_) if *held == id => Some(v.clone()),
            // The slot belongs to another id for good: `id` is sparse.
            Some(value) => match self.sparse.write().entry(id) {
                std::collections::hash_map::Entry::Occupied(e) => Some(e.get().clone()),
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(value);
                    None
                }
            },
        }
    }

    /// `id`'s value if it holds its slot: one acquire load and a compare.
    #[inline]
    pub(crate) fn slot(&self, id: RegionId) -> Option<&T> {
        match self.slots[id as usize % SLOTS].get() {
            Some((held, v)) if *held == id => Some(v),
            _ => None,
        }
    }

    /// `id`'s value from the sparse map.
    pub(crate) fn sparse(&self, id: RegionId) -> Option<T> {
        self.sparse.read().get(&id).cloned()
    }

    /// Whether `id` holds a value.
    pub(crate) fn contains(&self, id: RegionId) -> bool {
        self.slot(id).is_some() || self.sparse.read().contains_key(&id)
    }
}

/// Metadata of one allocated region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionMeta {
    /// Requested size in bytes.
    pub size: usize,
    /// Number of pages backing the region.
    pub pages: u32,
    /// Home-placement policy of the region's pages.
    pub dist: Distribution,
}

impl RegionMeta {
    /// Metadata for `size` bytes distributed per `dist`.
    pub fn new(size: usize, dist: Distribution) -> Self {
        assert!(size > 0, "empty region");
        Self { size, pages: pages_for(size), dist }
    }

    /// Home node of `page_index` on a cluster of `nodes`.
    pub fn home_of(&self, page_index: u32, nodes: usize) -> usize {
        self.dist.home_of(page_index, self.pages, nodes)
    }
}

/// The cluster-wide region table.
#[derive(Default)]
pub struct RegionDir {
    regions: IdTable<RegionMeta>,
}

impl RegionDir {
    /// An empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `meta` for `id`. Collective allocation means every node
    /// registers the same metadata; the first write wins and later ones
    /// must agree (divergence is a lockstep violation and panics).
    pub fn register(&self, id: RegionId, meta: RegionMeta) {
        if let Some(prev) = self.regions.insert(id, meta) {
            assert_eq!(prev, meta, "collective allocation disagreement on region {id}");
        }
    }

    /// Metadata of `id`. Panics on unknown regions (use-before-alloc bug).
    #[inline]
    pub fn meta(&self, id: RegionId) -> RegionMeta {
        match self.regions.slot(id) {
            Some(meta) => *meta,
            None => self.regions.sparse(id).unwrap_or_else(|| panic!("region {id} not allocated")),
        }
    }

    /// Whether `id` exists.
    pub fn exists(&self, id: RegionId) -> bool {
        self.regions.contains(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let d = RegionDir::new();
        let m = RegionMeta::new(10_000, Distribution::Block);
        d.register(1, m);
        assert_eq!(d.meta(1), m);
        assert_eq!(d.meta(1).pages, 3);
        assert!(d.exists(1));
        assert!(!d.exists(2));
    }

    #[test]
    fn idempotent_reregistration() {
        let d = RegionDir::new();
        let m = RegionMeta::new(4096, Distribution::Cyclic);
        d.register(5, m);
        d.register(5, m); // every node registers; same data is fine
    }

    #[test]
    #[should_panic(expected = "disagreement")]
    fn conflicting_registration_panics() {
        let d = RegionDir::new();
        d.register(5, RegionMeta::new(4096, Distribution::Cyclic));
        d.register(5, RegionMeta::new(8192, Distribution::Cyclic));
    }

    #[test]
    #[should_panic(expected = "not allocated")]
    fn unknown_region_panics() {
        RegionDir::new().meta(9);
    }

    #[test]
    fn concurrent_registrations_of_the_same_regions_agree() {
        // Four nodes register the same collective regions in lockstep
        // order, racing each other, plus one single-node region each
        // whose id shares a slot with a collective one.
        let d = RegionDir::new();
        let meta =
            |id: RegionId| RegionMeta::new(4096 * (id as usize % 7 + 1), Distribution::Cyclic);
        let local = |rank: u32| (1 << 24) * (rank + 1) + 3;
        std::thread::scope(|s| {
            for rank in 0..4u32 {
                let d = &d;
                s.spawn(move || {
                    d.register(local(rank), meta(local(rank)));
                    for id in 0..(2 * SLOTS as RegionId) {
                        d.register(id, meta(id));
                    }
                });
            }
        });
        for id in (0..2 * SLOTS as RegionId).chain((0..4).map(local)) {
            assert_eq!(d.meta(id), meta(id), "region {id}");
            assert!(d.exists(id));
        }
        assert!(!d.exists(2 * SLOTS as RegionId));
    }

    #[test]
    fn ids_past_the_slots_and_sharing_a_slot_resolve() {
        let d = RegionDir::new();
        let (a, b) =
            (RegionMeta::new(1, Distribution::Block), RegionMeta::new(2, Distribution::OnNode(1)));
        let (past, local) = (SLOTS as RegionId + 5, (1 << 24) + 5);
        d.register(past, a);
        d.register(local, b);
        d.register(local, b);
        assert_eq!((d.meta(past), d.meta(local)), (a, b));
        assert!(!d.exists(5));
    }

    #[test]
    #[should_panic(expected = "disagreement")]
    fn conflicting_registration_of_a_sparse_id_panics() {
        let d = RegionDir::new();
        d.register(1, RegionMeta::new(4096, Distribution::Block));
        d.register(SLOTS as RegionId + 1, RegionMeta::new(4096, Distribution::Cyclic));
        d.register(SLOTS as RegionId + 1, RegionMeta::new(8192, Distribution::Cyclic));
    }

    #[test]
    #[should_panic(expected = "not allocated")]
    fn unknown_id_on_a_taken_slot_panics() {
        let d = RegionDir::new();
        d.register(9, RegionMeta::new(4096, Distribution::Block));
        d.meta(SLOTS as RegionId + 9);
    }

    #[test]
    fn home_mapping_through_meta() {
        let m = RegionMeta::new(8 * 4096, Distribution::Block);
        assert_eq!(m.home_of(0, 4), 0);
        assert_eq!(m.home_of(7, 4), 3);
    }
}
