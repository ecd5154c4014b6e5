//! Explicit placement (`place_home`, and lock managers placed through
//! `FabricConfig::lock_managers`): the tuner's levers.
//!
//! Placement is *run configuration* — it is applied before `Cluster::run`
//! and must compose with the synchronization topology. Re-homing
//! composes with write-notice digests because a migrating master copy
//! carries its modification counter along (version-carrying migration
//! records), so digest validation never sees a counter reset.

use cluster::{Cluster, FabricConfig, LinkKind, SyncTopology};
use memwire::{Distribution, GlobalAddr, PageId};
use sim::trace::{TraceEvent, TraceSession};
use std::collections::BTreeSet;
use swdsm::{DsmConfig, PlaceError, SwDsm};

fn fabric(nodes: usize, sync: SyncTopology) -> Cluster {
    placed(nodes, sync, Vec::new())
}

/// A fabric whose listed locks have their manager placed.
fn placed(nodes: usize, sync: SyncTopology, locks: Vec<(u32, usize)>) -> Cluster {
    let cfg = FabricConfig::builder().nodes(nodes).link(LinkKind::Ethernet).sync(sync);
    Cluster::new(cfg.lock_managers(locks).build())
}

/// The grants of `lock` a run traced, in virtual-time order.
fn grants(events: &[TraceEvent], lock: u64) -> Vec<&TraceEvent> {
    events.iter().filter(|e| e.op == "lock_grant" && e.arg == lock).collect()
}

#[test]
fn place_home_applies_under_digest_topology() {
    let cluster = fabric(2, SyncTopology::scalable());
    let dsm = SwDsm::install(&cluster, DsmConfig::default());
    let page = PageId { region: 0, index: 0 };
    swdsm::place_home(&dsm, page, 1).unwrap();
    assert_eq!(swdsm::home_of(&dsm, page), 1);
    assert_eq!(dsm.stats(1).get("pages_rehomed"), 1);
    assert_eq!(dsm.stats(1).get("tuner_actions"), 1);

    // The placed home must stay correct under the digest notice wire:
    // writes by node 0 to a page now homed on node 1 still invalidate
    // node 0's peers through digest validation.
    let d = dsm.clone();
    let (_, results) = cluster.run(move |ctx| {
        let node = d.node(ctx);
        let a = node.alloc(2 * 4096, Distribution::Block);
        if node.rank() == 0 {
            node.write_u64(a, 11);
            node.write_u64(a.add(4096), 22);
        }
        node.barrier(1);
        node.read_u64(a) + node.read_u64(a.add(4096))
    });
    assert_eq!(results, vec![33, 33]);
}

#[test]
fn place_home_rejects_unknown_node() {
    let cluster = fabric(2, SyncTopology::centralized());
    let dsm = SwDsm::install(&cluster, DsmConfig::default());
    let err = swdsm::place_home(&dsm, PageId { region: 0, index: 0 }, 5).unwrap_err();
    assert!(matches!(err, PlaceError::NoSuchNode { to: 5, nodes: 2 }));
    assert!(err.to_string().contains("out of range"));
}

#[test]
fn place_home_moves_master_copy_before_a_run() {
    let cluster = fabric(2, SyncTopology::centralized());
    let dsm = SwDsm::install(&cluster, DsmConfig::default());
    // The first collective alloc below is region 0; page 0 of a Block
    // region over two nodes would be homed on node 0 by distribution.
    let page = PageId { region: 0, index: 0 };
    swdsm::place_home(&dsm, page, 1).unwrap();
    assert_eq!(swdsm::home_of(&dsm, page), 1);
    assert_eq!(dsm.stats(1).get("pages_rehomed"), 1);
    assert_eq!(dsm.stats(1).get("tuner_actions"), 1);

    let d = dsm.clone();
    let (_, results) = cluster.run(move |ctx| {
        let node = d.node(ctx);
        let a = node.alloc(2 * 4096, Distribution::Block);
        if node.rank() == 0 {
            node.write_u64(a, 11);
            node.write_u64(a.add(4096), 22);
        }
        node.barrier(1);
        node.read_u64(a) + node.read_u64(a.add(4096))
    });
    assert_eq!(results, vec![33, 33]);
}

#[test]
fn place_home_to_current_home_is_a_noop_move() {
    let cluster = fabric(2, SyncTopology::centralized());
    let dsm = SwDsm::install(&cluster, DsmConfig::default());
    let page = PageId { region: 0, index: 0 };
    swdsm::place_home(&dsm, page, 0).unwrap();
    assert_eq!(swdsm::home_of(&dsm, page), 0);
    // Counted as an applied action even when the home already matches.
    assert_eq!(dsm.stats(0).get("pages_rehomed"), 1);
}

#[test]
fn place_lock_redirects_the_manager() {
    // Lock 7's manager would be `7 % 2` = node 1; placed on node 0, it
    // grants every acquire there, while unplaced lock 9 keeps node 1.
    let cluster = placed(2, SyncTopology::centralized(), vec![(7, 0)]);
    let dsm = SwDsm::install(&cluster, DsmConfig::default());
    let actions: Vec<u64> = (0..2).map(|n| dsm.stats(n).get("tuner_actions")).collect();
    assert_eq!(actions, [1, 0], "the placement is counted at its node");

    let session = TraceSession::begin();
    let d = dsm.clone();
    let (_, results) = cluster.run(move |ctx| {
        let node = d.node(ctx);
        let a = node.alloc(4096, Distribution::Block);
        node.barrier(1);
        for _ in 0..4 {
            node.acquire(7);
            let v = node.read_u64(a);
            node.write_u64(a, v + 1);
            node.release(7);
            node.acquire(9);
            node.release(9);
        }
        node.barrier(2);
        node.read_u64(a)
    });
    let events = session.finish();
    assert_eq!(results, vec![8, 8]);
    let managers = |lock| grants(&events, lock).iter().map(|e| e.node).collect::<BTreeSet<_>>();
    assert_eq!(managers(7), BTreeSet::from([0]));
    assert_eq!(managers(9), BTreeSet::from([1]), "unplaced locks keep the modulo mapping");
}

#[test]
fn placed_lock_works_under_token_queue() {
    let mut sync = SyncTopology::centralized();
    sync.locks = cluster::LockTopology::TokenQueue;
    let cluster = placed(4, sync, vec![(1, 3)]);
    let dsm = SwDsm::install(&cluster, DsmConfig::default());
    assert_eq!(dsm.stats(3).get("tuner_actions"), 1);

    let session = TraceSession::begin();
    let d = dsm.clone();
    let (_, results) = cluster.run(move |ctx| {
        let node = d.node(ctx);
        let a = node.alloc(4096, Distribution::Block);
        node.barrier(1);
        for _ in 0..2 {
            node.acquire(1);
            let v = node.read_u64(a);
            node.write_u64(a, v + 1);
            node.release(1);
        }
        node.barrier(2);
        node.read_u64(a)
    });
    let events = session.finish();
    assert_eq!(results, vec![8, 8, 8, 8]);
    // The token starts parked at the lock's manager, so the first grant
    // is the placed manager's pass.
    assert_eq!(grants(&events, 1).first().map(|e| e.node), Some(3));
}

#[test]
fn home_override_survives_alongside_distribution() {
    // GlobalAddr sanity for the packed form the tuner plan carries.
    let a = GlobalAddr::new(3, 2 * 4096);
    assert_eq!(PageId::unpack(a.page().pack()), a.page());
}
