#![cfg(test)]
//! How often the fault paths copy a page: a read fault installs the
//! home's allocation, a write fault copies once, a release diffs the
//! cached page without copying it — a home that has not changed the
//! page since takes it whole — and a whole-page write-back ships it.

use super::*;
use cluster::{FabricConfig, LinkKind};
use memwire::Distribution;
use std::ptr;

/// Runs `remote` on the one node of two that is not the home of a
/// freshly allocated page, after the home wrote 7 to its first word and
/// a barrier published it; returns what `remote` returned.
fn on_the_remote(cfg: DsmConfig, remote: impl Fn(&DsmNode, GlobalAddr) -> bool + Sync) -> bool {
    let cluster = Cluster::new(FabricConfig::builder().nodes(2).link(LinkKind::Ethernet).build());
    let dsm = SwDsm::install(&cluster, cfg);
    let (_, results) = cluster.run(|ctx| {
        let node = dsm.node(ctx);
        let a = node.alloc(PAGE_SIZE, Distribution::Block);
        let home = node.rank() == node.path().home_of(a.page());
        if home {
            node.write_u64(a, 7);
        }
        node.barrier(1);
        let ok = home || remote(&node, a);
        node.barrier(2);
        ok
    });
    results == [true, true]
}

/// The allocations of `node`'s cached copy of `page` and of its twin.
fn cached(node: &DsmNode, page: PageId) -> (*const u8, Option<*const u8>) {
    let table = node.state().table.lock();
    let p = table.get(page).expect("page not cached");
    (p.data.as_ptr(), p.twin.as_ref().map(|t| t.as_ptr()))
}

/// The allocation of the master copy of `page` at its home, and its
/// modification counter.
fn at_home(node: &DsmNode, page: PageId) -> (*const u8, u64) {
    let mut home = node.path().homes[node.path().home_of(page)].lock();
    (home.snapshot(page).as_ptr(), home.version(page))
}

#[test]
fn a_read_fault_installs_the_homes_allocation() {
    assert!(on_the_remote(DsmConfig::default(), |node, a| {
        let seen = node.read_u64(a);
        let (data, twin) = cached(node, a.page());
        seen == 7 && ptr::eq(data, at_home(node, a.page()).0) && twin.is_none()
    }));
}

#[test]
fn a_write_fault_copies_once_and_a_release_not_at_all() {
    assert!(on_the_remote(DsmConfig::default(), |node, a| {
        let _ = node.read_u64(a);
        let (fetched, _) = cached(node, a.page());
        node.write_u64(a, 1);
        let (first, twin) = cached(node, a.page());
        node.write_u64(a.add(8), 2);
        let (second, _) = cached(node, a.page());
        // The release diffs the cached page in place and ships a view;
        // the home, unchanged since the fetch, takes the page.
        let _ = flush_interval(node);
        let (released, twin_after) = cached(node, a.page());
        !ptr::eq(first, fetched)
            && twin == Some(fetched)
            && ptr::eq(second, first)
            && ptr::eq(released, first)
            && twin_after.is_none()
            && at_home(node, a.page()) == (released, 2)
    }));
}

#[test]
fn a_whole_page_writeback_ships_the_cached_allocation() {
    let cfg = DsmConfig { whole_page_writeback: true, ..DsmConfig::default() };
    assert!(on_the_remote(cfg, |node, a| {
        node.write_u64(a.add(8), 3);
        let (written, _) = cached(node, a.page());
        let _ = flush_interval(node);
        ptr::eq(written, at_home(node, a.page()).0) && node.read_u64(a.add(8)) == 3
    }));
}
