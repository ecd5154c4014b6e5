//! The home store: master copies of the pages homed on one node.

use memwire::{Diff, Page, PageId, PAGE_SIZE};
use std::collections::HashMap;
use std::sync::OnceLock;

/// Master copies of all pages homed on one node.
///
/// Pages materialize lazily as zero-filled on first touch (allocation is
/// a distributed agreement on region metadata; homes need no setup
/// traffic). The store is accessed both by the owning node's application
/// thread (local reads/writes) and by its communication daemon (remote
/// fetches and diff application), hence lives behind a mutex in
/// [`crate::SwDsm`].
///
/// Master copies are [`Page`]s — shared, immutable byte blocks.
/// Serving a remote fetch ([`HomeStore::snapshot`]) is a reference-count
/// bump, not a page copy, and the requester caches that very
/// allocation; a mutation here copies-on-write only while some other
/// node still holds it, so a cached copy never sees a later write.
/// Each page also carries a *modification counter* ([`HomeStore::version`]),
/// bumped on every mutating operation. Fetch replies cache the counter
/// alongside the copy; the digest-validation round compares cached
/// counters against current ones to distinguish genuinely stale copies
/// from Bloom false positives.
#[derive(Debug, Default)]
pub struct HomeStore {
    /// Each materialized page with its modification counter.
    pages: HashMap<PageId, (Page, u64)>,
}

impl HomeStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The master copy of `page` and its counter, created zero-filled
    /// (counter 0) on first touch: a handle to the one shared zero page,
    /// copied only when written.
    fn entry(&mut self, page: PageId) -> &mut (Page, u64) {
        static ZERO: OnceLock<Page> = OnceLock::new();
        let zero = || (ZERO.get_or_init(|| Page::zeroed(PAGE_SIZE)).clone(), 0);
        self.pages.entry(page).or_insert_with(zero)
    }

    /// Snapshot of the master page (for remote fetch replies). A shared
    /// handle to the current bytes — zero-copy.
    pub fn snapshot(&mut self, page: PageId) -> Page {
        self.entry(page).0.clone()
    }

    /// Apply a diff to the master copy, bumping its modification
    /// counter. A master copy the writer fetched and nobody changed
    /// since becomes the writer's page; any other is written in place,
    /// or first copied while a snapshot of it is still held elsewhere (a
    /// fetch in flight, or a cached copy).
    pub fn apply_diff(&mut self, page: PageId, diff: &Diff) {
        let (bytes, version) = self.entry(page);
        *version += 1;
        diff.apply_to(bytes);
    }

    /// Replace the master copy wholesale (whole-page write-back mode).
    pub fn replace(&mut self, page: PageId, bytes: Page) {
        assert_eq!(bytes.len(), PAGE_SIZE);
        let entry = self.entry(page);
        *entry = (bytes, entry.1 + 1);
    }

    /// The page's modification counter (0 if never written).
    pub fn version(&self, page: PageId) -> u64 {
        self.pages.get(&page).map_or(0, |&(_, v)| v)
    }

    /// Export the master copy together with its modification counter,
    /// for home migration. Unlike [`HomeStore::replace`], exporting does
    /// not bump the counter: the page is moving, not changing.
    pub fn export(&mut self, page: PageId) -> (Page, u64) {
        self.entry(page).clone()
    }

    /// Adopt a migrated master copy at its new home. The incoming
    /// modification counter is merged by maximum with any counter the
    /// page already has here (a page can migrate away and back), so
    /// cached copies elsewhere never observe the counter move backwards
    /// across a migration — the invariant the digest validation round
    /// depends on.
    pub fn adopt(&mut self, page: PageId, bytes: Page, version: u64) {
        assert_eq!(bytes.len(), PAGE_SIZE);
        let entry = self.entry(page);
        *entry = (bytes, entry.1.max(version));
    }

    /// Read `out.len()` bytes at `offset` within `page`.
    pub fn read(&mut self, page: PageId, offset: usize, out: &mut [u8]) {
        out.copy_from_slice(&self.entry(page).0[offset..offset + out.len()]);
    }

    /// Write `data` at `offset` within `page`.
    pub fn write(&mut self, page: PageId, offset: usize, data: &[u8]) {
        let (bytes, version) = self.entry(page);
        *version += 1;
        bytes.write(offset, data);
    }

    /// Number of materialized pages.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// True before any page is touched.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(i: u32) -> PageId {
        PageId { region: 1, index: i }
    }

    #[test]
    fn lazy_zero_fill() {
        let mut h = HomeStore::new();
        assert!(h.is_empty());
        let mut out = [9u8; 4];
        h.read(pid(0), 100, &mut out);
        assert_eq!(out, [0; 4]);
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn write_then_read() {
        let mut h = HomeStore::new();
        h.write(pid(2), 8, &[1, 2, 3]);
        let mut out = [0u8; 3];
        h.read(pid(2), 8, &mut out);
        assert_eq!(out, [1, 2, 3]);
    }

    #[test]
    fn apply_diff_merges_into_master() {
        let mut h = HomeStore::new();
        h.write(pid(3), 0, &[7; 16]);
        let twin = vec![0u8; PAGE_SIZE];
        let mut cur = twin.clone();
        cur[100..104].fill(5);
        let d = Diff::between(&twin, &cur);
        h.apply_diff(pid(3), &d);
        let mut out = [0u8; 4];
        h.read(pid(3), 100, &mut out);
        assert_eq!(out, [5; 4]);
        // Earlier writes outside the diff survive.
        let mut keep = [0u8; 1];
        h.read(pid(3), 0, &mut keep);
        assert_eq!(keep, [7]);
    }

    #[test]
    fn snapshot_is_independent_copy() {
        let mut h = HomeStore::new();
        h.write(pid(4), 0, &[1]);
        let snap = h.snapshot(pid(4));
        h.write(pid(4), 0, &[2]);
        assert_eq!(snap[0], 1, "copy-on-write must preserve the snapshot");
        let mut now = [0u8; 1];
        h.read(pid(4), 0, &mut now);
        assert_eq!(now, [2]);
    }

    #[test]
    fn a_cached_copy_is_isolated_from_later_diffs() {
        let mut h = HomeStore::new();
        h.write(pid(8), 0, &[1]);
        let reader = memwire::CachedPage::read_only(h.snapshot(pid(8)));
        // One writer diffs against a copy of its own, then one against
        // the page it fetched, which the home takes whole.
        let mut cur = vec![0u8; PAGE_SIZE];
        cur[1] = 2;
        h.apply_diff(pid(8), &Diff::between(&[0; PAGE_SIZE], &cur));
        let twin = h.snapshot(pid(8));
        let mut written = twin.clone();
        written.write(2, &[3]);
        h.apply_diff(pid(8), &Diff::of(&twin, &written));
        assert!(h.snapshot(pid(8)).ptr_eq(&written), "the unchanged master copy is replaced");
        assert_eq!(reader.data[..3], [1, 0, 0], "the reader keeps the bytes it fetched");
        let mut now = [0u8; 3];
        h.read(pid(8), 0, &mut now);
        assert_eq!(now, [1, 2, 3]);
        assert_eq!(h.version(pid(8)), 3);
    }

    #[test]
    fn versions_bump_on_writes_not_reads() {
        let mut h = HomeStore::new();
        assert_eq!(h.version(pid(6)), 0);
        let mut out = [0u8; 1];
        h.read(pid(6), 0, &mut out);
        let _ = h.snapshot(pid(6));
        assert_eq!(h.version(pid(6)), 0, "reads and snapshots must not bump");
        h.write(pid(6), 0, &[1]);
        assert_eq!(h.version(pid(6)), 1);
        let twin = vec![0u8; PAGE_SIZE];
        let mut cur = twin.clone();
        cur[0] = 2;
        h.apply_diff(pid(6), &Diff::between(&twin, &cur));
        assert_eq!(h.version(pid(6)), 2);
        h.replace(pid(6), Page::zeroed(PAGE_SIZE));
        assert_eq!(h.version(pid(6)), 3);
    }

    #[test]
    fn export_adopt_round_trip_keeps_version_monotonic() {
        let mut old_home = HomeStore::new();
        old_home.write(pid(7), 0, &[9]);
        old_home.write(pid(7), 1, &[8]);
        assert_eq!(old_home.version(pid(7)), 2);
        let (bytes, v) = old_home.export(pid(7));
        assert_eq!(v, 2, "export must not bump the counter");
        // The new home saw an older incarnation of the page (version 5
        // from a previous residence): adopt keeps the larger counter.
        let mut new_home = HomeStore::new();
        new_home.pages.insert(pid(7), (Page::zeroed(PAGE_SIZE), 5));
        new_home.adopt(pid(7), bytes, v);
        assert_eq!(new_home.version(pid(7)), 5);
        let mut out = [0u8; 2];
        new_home.read(pid(7), 0, &mut out);
        assert_eq!(out, [9, 8]);
        // A fresh home adopts the incoming counter as-is.
        let (bytes, v) = new_home.export(pid(7));
        let mut fresh = HomeStore::new();
        fresh.adopt(pid(7), bytes, v);
        assert_eq!(fresh.version(pid(7)), 5);
    }

    #[test]
    fn untouched_pages_share_one_zero_page_until_written() {
        let mut h = HomeStore::new();
        let (a, b) = (h.snapshot(pid(9)), h.snapshot(pid(10)));
        assert!(std::ptr::eq(a.as_ptr(), b.as_ptr()), "one zero page, not one per page");
        h.write(pid(9), 0, &[1]);
        let (a, b) = (h.snapshot(pid(9)), h.snapshot(pid(10)));
        assert_eq!((a[0], b[0]), (1, 0));
        assert!(b.iter().all(|&x| x == 0));
    }

    #[test]
    fn snapshot_without_writes_shares_storage() {
        let mut h = HomeStore::new();
        h.write(pid(5), 0, &[3]);
        let a = h.snapshot(pid(5));
        let b = h.snapshot(pid(5));
        assert_eq!(a, b);
        assert!(
            std::ptr::eq(a.as_slice().as_ptr(), b.as_slice().as_ptr()),
            "snapshots of an unmodified page must share bytes"
        );
    }
}
