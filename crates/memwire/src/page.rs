//! Per-node cached-page table for the software DSM.
//!
//! A cached copy is the [`Page`] value its fetch brought: installing it
//! is a reference-count bump on the home's allocation, not a copy.
//! [`CachedPage::make_writable`] keeps that same value as the twin
//! (another bump), and the first write of the interval, through
//! [`Page::write`] (copy-on-write), is the one copy a write fault
//! makes. At release [`PageTable::downgrade`] hands out the twin and a
//! shared handle to the current page, from which a [`crate::Diff`] is
//! taken without copying either; the writer's next write copies again
//! and leaves that diff intact.

use crate::addr::{PageId, PAGE_SIZE};
use sim::Page;
use std::collections::HashMap;

/// Local access rights for a cached page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageState {
    /// Cached copy valid for reading only.
    ReadOnly,
    /// Cached copy writable; a twin exists for diffing.
    Writable,
}

/// One cached (non-home) page.
#[derive(Debug, Clone)]
pub struct CachedPage {
    /// Current access rights.
    pub state: PageState,
    /// The cached copy's contents; written through [`Page::write`].
    pub data: Page,
    /// Pristine snapshot taken on the first write of the interval: the
    /// page as it was, shared with `data` until `data` is written.
    pub twin: Option<Page>,
}

impl CachedPage {
    /// A freshly fetched read-only copy. Installing a [`Page`] keeps its
    /// allocation; a `Vec` is converted once.
    pub fn read_only(data: impl Into<Page>) -> Self {
        let data = data.into();
        assert_eq!(data.len(), PAGE_SIZE);
        Self { state: PageState::ReadOnly, data, twin: None }
    }

    /// Upgrade to writable, keeping the current page as the twin (a
    /// reference-count bump; the first write copies).
    pub fn make_writable(&mut self) {
        if self.state == PageState::ReadOnly {
            self.twin = Some(self.data.clone());
            self.state = PageState::Writable;
        }
    }
}

/// The page table of one node: every remotely homed page currently
/// cached, with its access state.
#[derive(Debug, Default)]
pub struct PageTable {
    pages: HashMap<PageId, CachedPage>,
    /// Installation order, for FIFO victim selection under a bounded
    /// cache (stale entries are skipped lazily).
    order: std::collections::VecDeque<PageId>,
}

impl PageTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Look up a cached page.
    pub fn get(&self, id: PageId) -> Option<&CachedPage> {
        self.pages.get(&id)
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, id: PageId) -> Option<&mut CachedPage> {
        self.pages.get_mut(&id)
    }

    /// Install a fetched copy (replacing any stale one).
    pub fn install(&mut self, id: PageId, page: CachedPage) {
        if self.pages.insert(id, page).is_none() {
            self.order.push_back(id);
        }
    }

    /// Pick an eviction victim in FIFO order, preferring clean
    /// (read-only) pages; a dirty page is returned only when every
    /// cached page is dirty. `None` when the table is empty.
    pub fn victim(&mut self) -> Option<(PageId, PageState)> {
        // Drop stale order entries (pages already invalidated).
        self.order.retain(|id| self.pages.contains_key(id));
        let clean = self
            .order
            .iter()
            .position(|id| self.pages[id].state == PageState::ReadOnly);
        let idx = clean.unwrap_or(0);
        let id = *self.order.get(idx)?;
        Some((id, self.pages[&id].state))
    }

    /// Drop a cached copy (invalidation). Returns true if it was present.
    pub fn invalidate(&mut self, id: PageId) -> bool {
        self.pages.remove(&id).is_some()
    }

    /// Ids of every cached page, sorted (deterministic iteration for
    /// digest-candidate scans).
    pub fn cached_pages(&self) -> Vec<PageId> {
        let mut v: Vec<PageId> = self.pages.keys().copied().collect();
        v.sort();
        v
    }

    /// Ids of all pages currently writable (i.e. dirty this interval).
    pub fn writable_pages(&self) -> Vec<PageId> {
        let mut v: Vec<PageId> = self
            .pages
            .iter()
            .filter(|(_, p)| p.state == PageState::Writable)
            .map(|(id, _)| *id)
            .collect();
        v.sort();
        v
    }

    /// Downgrade a page to read-only, returning `(twin, current)` for
    /// diffing — `current` is the cached copy itself; cloning it is a
    /// reference-count bump. Panics if the page is not writable
    /// (protocol bug).
    pub fn downgrade(&mut self, id: PageId) -> (Page, &Page) {
        let p = self.pages.get_mut(&id).expect("downgrade of uncached page");
        assert_eq!(p.state, PageState::Writable, "downgrade of read-only page");
        let twin = p.twin.take().expect("writable page without twin");
        p.state = PageState::ReadOnly;
        (twin, &p.data)
    }

    /// Number of cached pages.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Remove everything (e.g. at exit).
    pub fn clear(&mut self) {
        self.pages.clear();
        self.order.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Diff;

    fn pid(i: u32) -> PageId {
        PageId { region: 0, index: i }
    }

    #[test]
    fn install_get_invalidate() {
        let mut t = PageTable::new();
        t.install(pid(1), CachedPage::read_only(vec![0; PAGE_SIZE]));
        assert!(t.get(pid(1)).is_some());
        assert!(t.invalidate(pid(1)));
        assert!(!t.invalidate(pid(1)));
        assert!(t.is_empty());
    }

    #[test]
    fn make_writable_snapshots_twin() {
        let mut p = CachedPage::read_only(vec![5; PAGE_SIZE]);
        p.make_writable();
        assert_eq!(p.state, PageState::Writable);
        assert_eq!(p.twin.as_deref(), Some(vec![5u8; PAGE_SIZE].as_slice()));
        // Idempotent: a second call must not re-snapshot modified data.
        p.data.make_mut()[0] = 9;
        p.make_writable();
        assert_eq!(p.twin.as_ref().unwrap()[0], 5);
    }

    #[test]
    fn twin_shares_the_page_until_the_first_write() {
        let fetched = Page::from(vec![5; PAGE_SIZE]);
        let mut p = CachedPage::read_only(fetched.clone());
        assert!(p.data.ptr_eq(&fetched), "install keeps the allocation");
        p.make_writable();
        assert!(p.twin.as_ref().unwrap().ptr_eq(&fetched), "twin is a bump");
        p.data.write(0, &[9]);
        let copied = p.data.as_ptr();
        assert!(!p.data.ptr_eq(&fetched), "the first write copies");
        p.data.write(1, &[9]);
        assert!(std::ptr::eq(p.data.as_ptr(), copied), "the second does not");
        assert_eq!((fetched[0], p.twin.as_ref().unwrap()[0]), (5, 5));
    }

    #[test]
    fn a_diff_outlives_the_next_write_of_its_page() {
        // Released at the end of one interval, the diff views the cached
        // page; the next interval's write must copy and leave it intact.
        let mut t = PageTable::new();
        t.install(pid(5), CachedPage::read_only(vec![0; PAGE_SIZE]));
        let p = t.get_mut(pid(5)).unwrap();
        p.make_writable();
        p.data.make_mut()[100..108].fill(1);
        let (twin, cur) = t.downgrade(pid(5));
        let diff = Diff::of(&twin, cur);
        let p = t.get_mut(pid(5)).unwrap();
        p.make_writable();
        p.data.make_mut()[100..108].fill(2);
        p.data.make_mut()[200] = 2;
        let mut home = vec![0; PAGE_SIZE];
        diff.apply(&mut home);
        assert!(home[100..108].iter().all(|&b| b == 1));
        assert_eq!(home.iter().filter(|&&b| b != 0).count(), 8);
    }

    #[test]
    fn writable_pages_lists_dirty_only() {
        let mut t = PageTable::new();
        t.install(pid(1), CachedPage::read_only(vec![0; PAGE_SIZE]));
        t.install(pid(2), CachedPage::read_only(vec![0; PAGE_SIZE]));
        t.get_mut(pid(2)).unwrap().make_writable();
        assert_eq!(t.writable_pages(), vec![pid(2)]);
    }

    #[test]
    fn downgrade_returns_twin_and_current() {
        let mut t = PageTable::new();
        t.install(pid(3), CachedPage::read_only(vec![1; PAGE_SIZE]));
        let p = t.get_mut(pid(3)).unwrap();
        p.make_writable();
        p.data.make_mut()[10] = 2;
        let (twin, cur) = t.downgrade(pid(3));
        assert_eq!(twin[10], 1);
        assert_eq!(cur[10], 2);
        assert_eq!(t.get(pid(3)).unwrap().state, PageState::ReadOnly);
        assert!(t.writable_pages().is_empty());
    }

    #[test]
    fn victim_prefers_clean_fifo() {
        let mut t = PageTable::new();
        t.install(pid(1), CachedPage::read_only(vec![0; PAGE_SIZE]));
        t.install(pid(2), CachedPage::read_only(vec![0; PAGE_SIZE]));
        t.get_mut(pid(1)).unwrap().make_writable();
        // Page 2 is the oldest *clean* page.
        assert_eq!(t.victim(), Some((pid(2), PageState::ReadOnly)));
        t.invalidate(pid(2));
        // Only the dirty page remains.
        assert_eq!(t.victim(), Some((pid(1), PageState::Writable)));
        t.invalidate(pid(1));
        assert_eq!(t.victim(), None);
    }

    #[test]
    fn victim_skips_stale_order_entries() {
        let mut t = PageTable::new();
        t.install(pid(1), CachedPage::read_only(vec![0; PAGE_SIZE]));
        t.install(pid(2), CachedPage::read_only(vec![0; PAGE_SIZE]));
        t.invalidate(pid(1));
        assert_eq!(t.victim(), Some((pid(2), PageState::ReadOnly)));
    }

    #[test]
    #[should_panic(expected = "read-only")]
    fn downgrade_readonly_panics() {
        let mut t = PageTable::new();
        t.install(pid(4), CachedPage::read_only(vec![0; PAGE_SIZE]));
        let _ = t.downgrade(pid(4));
    }
}
