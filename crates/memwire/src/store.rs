//! Process-shared region storage for hardware-backed platforms.
//!
//! On the SMP platform (hardware cache coherence) and on the hybrid-DSM
//! platform (SCI remote memory), every node can physically load and store
//! any global location; only the *cost* differs. [`RegionStore`] provides
//! that physical substrate inside the simulation process: regions that
//! all node threads may access concurrently.
//!
//! The rule: a region is an array of relaxed `AtomicU64` words and every
//! access is a word-sized atomic. A fully covered word is one plain
//! load or store — a bulk copy moves eight bytes per instruction, an
//! aligned `u64`/`f64` access is a single `mov`. A partially covered
//! word (the ragged head or tail of an unaligned range) is read out of
//! a word load and written by one `fetch_update` that replaces only the
//! covered bytes, so concurrent writers to *disjoint bytes of one word*
//! both survive. This mirrors real hardware: properly synchronised
//! (data-race-free) simulated programs — which charge lock/barrier/flush
//! costs through the DSM layers — observe coherent values; racy ones may
//! tear between words, exactly as on the machine, but never into
//! undefined behaviour: every access is a safe atomic operation.

use crate::access::Access;
use crate::addr::{GlobalAddr, RegionId};
use crate::dir::IdTable;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

const WORD: usize = 8;

/// One physically shared region.
pub struct Region {
    /// Byte `o` of the region is byte `o % 8` of `words[o / 8]` in
    /// little-endian order, on every host.
    words: Box<[AtomicU64]>,
    len: usize,
}

impl Region {
    fn new(size: usize) -> Self {
        let words = (0..size.div_ceil(WORD)).map(|_| AtomicU64::new(0)).collect();
        Self { words, len: size }
    }

    /// Region size in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for an empty region (never constructed in practice).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Panics unless `[offset, offset + len)` lies inside the region.
    #[inline]
    fn check(&self, offset: usize, len: usize) {
        assert!(
            offset.checked_add(len).is_some_and(|end| end <= self.len),
            "range {offset}+{len} out of bounds of a {}-byte region",
            self.len
        );
    }

    #[inline]
    fn load(&self, word: usize) -> [u8; WORD] {
        self.words[word].load(Relaxed).to_le_bytes()
    }

    /// Read `out.len()` bytes at `offset`.
    #[inline]
    pub fn read_bytes(&self, offset: usize, out: &mut [u8]) {
        self.check(offset, out.len());
        let (mut w, skew) = (offset / WORD, offset % WORD);
        let (head, rest) = out.split_at_mut(head_len(skew, out.len()));
        if !head.is_empty() {
            head.copy_from_slice(&self.load(w)[skew..][..head.len()]);
            w += 1;
        }
        let (body, tail) = rest.as_chunks_mut::<WORD>();
        for (chunk, word) in body.iter_mut().zip(&self.words[w..]) {
            *chunk = word.load(Relaxed).to_le_bytes();
        }
        if !tail.is_empty() {
            tail.copy_from_slice(&self.load(w + body.len())[..tail.len()]);
        }
    }

    /// Write `data` at `offset`.
    #[inline]
    pub fn write_bytes(&self, offset: usize, data: &[u8]) {
        self.check(offset, data.len());
        let (mut w, skew) = (offset / WORD, offset % WORD);
        let (head, rest) = data.split_at(head_len(skew, data.len()));
        if !head.is_empty() {
            write_partial(&self.words[w], skew, head);
            w += 1;
        }
        let (body, tail) = rest.as_chunks::<WORD>();
        for (chunk, word) in body.iter().zip(&self.words[w..]) {
            word.store(u64::from_le_bytes(*chunk), Relaxed);
        }
        if !tail.is_empty() {
            write_partial(&self.words[w + body.len()], 0, tail);
        }
    }
}

/// Bytes of a `len`-byte range starting `skew` bytes into a word that
/// fall in that first, partially covered word (none when aligned).
#[inline]
fn head_len(skew: usize, len: usize) -> usize {
    ((WORD - skew) % WORD).min(len)
}

/// Replace bytes `[at, at + src.len())` of `word` (fewer than eight) in
/// one atomic update, leaving the others as concurrent writers made
/// them.
#[inline]
fn write_partial(word: &AtomicU64, at: usize, src: &[u8]) {
    let (mut bits, mut mask) = ([0u8; WORD], [0u8; WORD]);
    bits[at..at + src.len()].copy_from_slice(src);
    mask[at..at + src.len()].fill(0xff);
    let (bits, mask) = (u64::from_le_bytes(bits), u64::from_le_bytes(mask));
    // The closure never declines, so the update cannot fail.
    let _ = word.fetch_update(Relaxed, Relaxed, |old| Some(old & !mask | bits));
}

/// All physically shared regions of one experiment run.
///
/// Every access looks its region up, so the lookup writes nothing: a
/// region never moves or resizes once created, and collective ids find
/// theirs in the same lock-free slot table as [`crate::RegionDir`]
/// (no lock, no hash, no reference-count bump); only sparse ids take
/// the locked map and a counted handle.
#[derive(Default)]
pub struct RegionStore {
    regions: IdTable<Arc<Region>>,
}

/// A looked-up region: borrowed straight from its slot, or a counted
/// handle on a sparse one. Dereferences to the [`Region`].
pub enum RegionRef<'a> {
    /// The region's slot entry.
    Slot(&'a Region),
    /// A region from the sparse map.
    Sparse(Arc<Region>),
}

impl std::ops::Deref for RegionRef<'_> {
    type Target = Region;

    #[inline]
    fn deref(&self) -> &Region {
        match self {
            RegionRef::Slot(r) => r,
            RegionRef::Sparse(r) => r,
        }
    }
}

impl RegionStore {
    /// An empty store.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Create a region of `size` zeroed bytes. Panics if the id exists
    /// (allocation is globally coordinated, so a duplicate is a bug).
    pub fn create(&self, id: RegionId, size: usize) -> Arc<Region> {
        let region = Arc::new(Region::new(size));
        let prev = self.regions.insert(id, region.clone());
        assert!(prev.is_none(), "region {id} created twice");
        region
    }

    /// Look up a region.
    #[inline]
    pub fn get(&self, id: RegionId) -> RegionRef<'_> {
        match self.regions.slot(id) {
            Some(region) => RegionRef::Slot(region),
            None => RegionRef::Sparse(
                self.regions.sparse(id).unwrap_or_else(|| panic!("region {id} does not exist")),
            ),
        }
    }

    /// Whether a region exists.
    pub fn exists(&self, id: RegionId) -> bool {
        self.regions.contains(id)
    }
}

/// Byte access through a [`GlobalAddr`]: the region it names, at its
/// offset. The typed accessors come with the trait.
impl Access for RegionStore {
    #[inline]
    fn read_bytes(&self, addr: GlobalAddr, out: &mut [u8]) {
        self.get(addr.region()).read_bytes(addr.offset() as usize, out);
    }

    #[inline]
    fn write_bytes(&self, addr: GlobalAddr, data: &[u8]) {
        self.get(addr.region()).write_bytes(addr.offset() as usize, data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_read_write() {
        let s = RegionStore::new();
        s.create(1, 64);
        s.write_u64(GlobalAddr::new(1, 8), 0xDEAD_BEEF);
        assert_eq!(s.read_u64(GlobalAddr::new(1, 8)), 0xDEAD_BEEF);
        assert_eq!(s.read_u64(GlobalAddr::new(1, 0)), 0);
    }

    #[test]
    fn f64_roundtrip() {
        let s = RegionStore::new();
        s.create(2, 64);
        let a = GlobalAddr::new(2, 16);
        s.write_f64(a, 3.25);
        assert_eq!(s.read_f64(a), 3.25);
    }

    #[test]
    fn bulk_bytes_roundtrip() {
        let s = RegionStore::new();
        let r = s.create(3, 4096);
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        r.write_bytes(100, &data);
        let mut out = vec![0u8; 1000];
        r.read_bytes(100, &mut out);
        assert_eq!(out, data);
    }

    #[test]
    #[should_panic(expected = "created twice")]
    fn duplicate_region_panics() {
        let s = RegionStore::new();
        s.create(4, 8);
        s.create(4, 8);
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn missing_region_panics() {
        RegionStore::new().get(99);
    }

    #[test]
    fn sparse_regions_resolve_and_stay_unique() {
        let sparse = crate::dir::SLOTS as RegionId + 4;
        let s = RegionStore::new();
        s.create(4, 8).write_bytes(0, &4u64.to_le_bytes());
        s.create(sparse, 16).write_bytes(8, &5u64.to_le_bytes());
        assert!(matches!(s.get(4), RegionRef::Slot(_)));
        assert!(matches!(s.get(sparse), RegionRef::Sparse(_)));
        let (a, b) = (GlobalAddr::new(4, 0), GlobalAddr::new(sparse, 8));
        assert_eq!((s.read_u64(a), s.read_u64(b)), (4, 5));
        assert!(s.exists(sparse) && !s.exists(sparse + 1));
        let again = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.create(sparse, 16)));
        assert!(again.is_err(), "a sparse id created twice must panic");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn read_past_the_end_panics() {
        // 13 bytes occupy two words; the last three bytes of the second
        // are not part of the region.
        let r = RegionStore::new().create(6, 13);
        r.read_bytes(8, &mut [0u8; 6]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn write_past_the_end_panics() {
        let r = RegionStore::new().create(7, 13);
        r.write_bytes(13, &[1]);
    }

    #[test]
    fn matches_a_byte_vector_model() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(18);
        // Sizes that end mid-word included.
        for (id, size) in [64usize, 61, 13, 8, 7, 1].into_iter().enumerate() {
            let store = RegionStore::new();
            let r = store.create(id as RegionId, size);
            assert_eq!((r.len(), r.is_empty()), (size, false));
            let mut model = vec![0u8; size];
            let check = |model: &[u8]| {
                let mut all = vec![0u8; size];
                r.read_bytes(0, &mut all);
                assert_eq!(all, model);
            };
            // Every head alignment 0..8 × every length 0..24 (so every
            // tail alignment too), then random ranges.
            let grid = (0..8usize).flat_map(|skew| (0..24usize).map(move |len| (skew, len)));
            let random: Vec<_> = (0..500)
                .map(|_| {
                    let at = rng.gen_range(0..size);
                    (at, rng.gen_range(0..size - at + 1))
                })
                .collect();
            for (at, len) in grid.chain(random).chain([(size, 0)]).filter(|(at, len)| at + len <= size) {
                let data: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
                r.write_bytes(at, &data);
                model[at..at + len].copy_from_slice(&data);
                check(&model);
                let mut out = vec![0u8; len];
                r.read_bytes(at, &mut out);
                assert_eq!(out, data, "read back {at}+{len} of {size}");
            }
            if size >= 9 {
                let a = GlobalAddr::new(id as RegionId, 1);
                store.write_u64(a, 0x0102_0304_0506_0708);
                model[1..9].copy_from_slice(&0x0102_0304_0506_0708u64.to_le_bytes());
                check(&model);
                assert_eq!(store.read_u64(a), 0x0102_0304_0506_0708);
            }
        }
    }

    #[test]
    fn concurrent_disjoint_writes_preserved() {
        let s = RegionStore::new();
        let r = s.create(5, 1024);
        std::thread::scope(|sc| {
            for t in 0..4usize {
                let r = &r;
                sc.spawn(move || {
                    r.write_bytes(t * 256, &vec![t as u8 + 1; 256]);
                });
            }
        });
        let mut out = vec![0u8; 1024];
        r.read_bytes(0, &mut out);
        for t in 0..4 {
            assert!(out[t * 256..(t + 1) * 256].iter().all(|&b| b == t as u8 + 1));
        }
    }

    #[test]
    fn concurrent_writes_to_disjoint_bytes_of_one_word_preserved() {
        // Four writers own 1, 2, 3 and 5 bytes of every 11-byte stripe,
        // so each word is shared by several of them and every range
        // straddles a word boundary somewhere. Nobody else writes a
        // writer's bytes, so it must always read its own last value
        // back: a partial-word write that is not one atomic update
        // reverts a neighbour's bytes to what it loaded.
        const STRIPE: usize = 11;
        const STRIPES: usize = 8;
        const LANES: [(usize, usize); 4] = [(0, 1), (1, 2), (3, 3), (6, 5)];
        let r = RegionStore::new().create(8, STRIPE * STRIPES);
        let start = std::sync::Barrier::new(LANES.len());
        std::thread::scope(|sc| {
            for (at, len) in LANES {
                let (r, start) = (&r, &start);
                sc.spawn(move || {
                    start.wait();
                    for round in 0..20_000u32 {
                        let mine = vec![round as u8; len];
                        for stripe in 0..STRIPES {
                            r.write_bytes(stripe * STRIPE + at, &mine);
                        }
                        let mut back = vec![0u8; len];
                        for stripe in 0..STRIPES {
                            r.read_bytes(stripe * STRIPE + at, &mut back);
                            assert_eq!(back, mine, "lane {at}+{len} lost a write in stripe {stripe}");
                        }
                    }
                });
            }
        });
    }
}
