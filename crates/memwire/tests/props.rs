//! Property-based tests for the memory substrate's invariants.

use memwire::{Arena, Diff, Distribution, GlobalAddr, Interval, PageId, PAGE_SIZE};
use proptest::prelude::*;

fn page_strategy() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), PAGE_SIZE..=PAGE_SIZE)
}

/// A sparse set of edits applied to a page.
fn edits_strategy() -> impl Strategy<Value = Vec<(usize, u8)>> {
    proptest::collection::vec((0..PAGE_SIZE, any::<u8>()), 0..200)
}

/// A page of `f64` cells and the same page after a random subset of
/// its cells moved by a small relative amount (`±2^-s`, `s` in 8..52):
/// the shape of a SOR row between iterations, where a cell's low bytes
/// change and its sign and exponent bytes do not, so runs are 1–7 bytes
/// long and several share a block. One cell in four is 2.0: moved down
/// it drops to exponent `0x3ff` and every byte changes, so runs also
/// cross cell and block boundaries and reach the page's last byte. A
/// quarter of the pages keep every cell.
fn f64_page_pair() -> impl Strategy<Value = (Vec<u8>, Vec<u8>)> {
    let cell = (0u8..4, any::<u64>(), -3i32..3, 0u16..1000, any::<bool>(), 8i32..52);
    (0usize..4, proptest::collection::vec(cell, PAGE_SIZE / 8)).prop_map(|(density, cells)| {
        let moved_per_mille = [0, 5, 100, 900][density];
        let (mut twin, mut current) = (Vec::new(), Vec::new());
        for (kind, bits, exp, roll, down, shift) in cells {
            let fraction = (bits >> 12) as f64 / 2f64.powi(52);
            let before = if kind == 0 { 2.0 } else { (1.0 + fraction) * 2f64.powi(exp) };
            let rel = if roll < moved_per_mille { 2f64.powi(-shift) } else { 0.0 };
            let after = before * if down { 1.0 - rel } else { 1.0 + rel };
            twin.extend(before.to_le_bytes());
            current.extend(after.to_le_bytes());
        }
        (twin, current)
    })
}

proptest! {
    #[test]
    fn diff_wire_size_is_exact_on_f64_pages(pages in f64_page_pair()) {
        let (twin, current) = pages;
        let diff = Diff::between(&twin, &current);
        // Byte-wise: a run starts at a changed byte whose predecessor is
        // unchanged; each costs 4 bytes of header on the wire.
        let changed: Vec<bool> = twin.iter().zip(&current).map(|(a, b)| a != b).collect();
        let bytes = changed.iter().filter(|&&c| c).count();
        let runs = (0..PAGE_SIZE).filter(|&i| changed[i] && (i == 0 || !changed[i - 1])).count();
        prop_assert_eq!(diff.changed_bytes(), bytes);
        prop_assert_eq!(diff.wire_bytes(), 8 + 4 * runs as u64 + bytes as u64);
        prop_assert_eq!(diff.is_empty(), bytes == 0);
        let mut rebuilt = twin.clone();
        diff.apply(&mut rebuilt);
        prop_assert_eq!(rebuilt, current);
    }

    #[test]
    fn diff_reconstructs_any_modification(twin in page_strategy(), edits in edits_strategy()) {
        let mut current = twin.clone();
        for (off, val) in &edits {
            current[*off] = *val;
        }
        let diff = Diff::between(&twin, &current);
        let mut rebuilt = twin.clone();
        diff.apply(&mut rebuilt);
        prop_assert_eq!(rebuilt, current);
    }

    #[test]
    fn diff_is_empty_iff_no_change(twin in page_strategy(), edits in edits_strategy()) {
        let mut current = twin.clone();
        for (off, val) in &edits {
            current[*off] = *val;
        }
        let diff = Diff::between(&twin, &current);
        prop_assert_eq!(diff.is_empty(), twin == current);
        prop_assert_eq!(diff.changed_bytes(),
            twin.iter().zip(&current).filter(|(a, b)| a != b).count());
    }

    #[test]
    fn disjoint_writers_merge_without_loss(
        twin in page_strategy(),
        edits_a in edits_strategy(),
        edits_b in edits_strategy(),
    ) {
        // Writer B's edits are shifted into the other half of the page
        // so the two edit sets are guaranteed disjoint.
        let mut a = twin.clone();
        for (off, val) in &edits_a {
            a[*off % (PAGE_SIZE / 2)] = *val;
        }
        let mut b = twin.clone();
        for (off, val) in &edits_b {
            b[PAGE_SIZE / 2 + (*off % (PAGE_SIZE / 2))] = *val;
        }
        let da = Diff::between(&twin, &a);
        let db = Diff::between(&twin, &b);
        let mut home = twin.clone();
        da.apply(&mut home);
        db.apply(&mut home);
        // Every byte matches writer A in the low half, writer B in the
        // high half (multiple-writer protocol invariant).
        prop_assert_eq!(&home[..PAGE_SIZE / 2], &a[..PAGE_SIZE / 2]);
        prop_assert_eq!(&home[PAGE_SIZE / 2..], &b[PAGE_SIZE / 2..]);
    }

    #[test]
    fn diff_wire_size_bounded_by_page(twin in page_strategy(), cur in page_strategy()) {
        let diff = Diff::between(&twin, &cur);
        // Each run costs 4 bytes of header; runs are separated by at
        // least one unchanged byte, so there are at most PAGE_SIZE/2
        // runs (+8 bytes of message header).
        let bound = 8 + diff.changed_bytes() as u64 + 4 * (PAGE_SIZE as u64 / 2).max(1);
        prop_assert!(diff.wire_bytes() <= bound);
        prop_assert!(diff.wire_bytes() >= diff.changed_bytes() as u64);
    }

    #[test]
    fn addr_roundtrip(region in 0u32..1_000_000, offset in 0u32..u32::MAX) {
        let a = GlobalAddr::new(region, offset);
        prop_assert_eq!(a.region(), region);
        prop_assert_eq!(a.offset(), offset);
        let page = a.page();
        prop_assert_eq!(page.region, region);
        prop_assert_eq!(page.index as usize, offset as usize / PAGE_SIZE);
        prop_assert_eq!(PageId::unpack(page.pack()), page);
        prop_assert_eq!(
            page.base().offset() as usize + a.page_offset(),
            offset as usize
        );
    }

    #[test]
    fn every_page_gets_a_home_in_range(
        pages in 1u32..10_000,
        nodes in 1usize..64,
        chunk in 1u32..16,
        pin in 0usize..64,
    ) {
        for dist in [
            Distribution::Block,
            Distribution::Cyclic,
            Distribution::BlockCyclic(chunk),
            Distribution::OnNode(pin % nodes),
        ] {
            for probe in [0, pages / 2, pages - 1] {
                let home = dist.home_of(probe, pages, nodes);
                prop_assert!(home < nodes, "{dist:?} sent page {probe} to {home}");
            }
        }
    }

    #[test]
    fn block_distribution_is_monotone(pages in 1u32..5_000, nodes in 1usize..16) {
        let mut last = 0;
        for i in 0..pages {
            let h = Distribution::Block.home_of(i, pages, nodes);
            prop_assert!(h >= last, "block homes must be nondecreasing");
            last = h;
        }
    }

    #[test]
    fn arena_allocations_never_overlap(
        sizes in proptest::collection::vec((1usize..5000, 0u32..4), 1..50)
    ) {
        let mut arena = Arena::new(1, 1 << 20);
        let mut taken: Vec<(u32, u32)> = Vec::new();
        for (bytes, align_pow) in sizes {
            let align = 1usize << align_pow;
            if let Some(addr) = arena.alloc(bytes, align) {
                let start = addr.offset();
                let end = start + bytes as u32;
                prop_assert_eq!(start as usize % align, 0, "misaligned");
                for &(s, e) in &taken {
                    prop_assert!(end <= s || start >= e, "overlap [{start},{end}) vs [{s},{e})");
                }
                taken.push((start, end));
            }
        }
    }

    #[test]
    fn interval_merge_is_set_union(
        a in proptest::collection::vec(0u32..100, 0..30),
        b in proptest::collection::vec(0u32..100, 0..30),
    ) {
        let pid = |i: u32| PageId { region: 0, index: i };
        let mut iv = Interval::from_pages(&a.iter().map(|&i| pid(i)).collect::<Vec<_>>());
        let ivb = Interval::from_pages(&b.iter().map(|&i| pid(i)).collect::<Vec<_>>());
        iv.merge(&ivb);
        let expect: std::collections::BTreeSet<u32> =
            a.iter().chain(b.iter()).copied().collect();
        let got: Vec<u32> = iv.pages().map(|p| p.index).collect();
        prop_assert_eq!(got, expect.into_iter().collect::<Vec<_>>());
    }
}
