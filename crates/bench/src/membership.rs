//! Membership artifact: elastic join/leave/recover under load, with
//! adaptive state transfer.
//!
//! Two sweeps, both virtual-time deterministic:
//!
//! * **State size** — a victim node leaves mid-run, peers keep writing,
//!   and the victim rejoins through [`swdsm::DsmNode::rejoin`]. The
//!   divergence it must absorb grows row by row; the adaptive policy
//!   (`delta_max_records`) replays write-notice deltas while the
//!   divergence is small and switches to a bulk snapshot sync once it
//!   crosses the cutoff. Each row reports rejoin-to-caught-up time, the
//!   transfer path taken, and the bytes/records moved — and asserts the
//!   rejoined node reads back every peer write correctly.
//! * **Churn rate** — SOR runs to completion under seeded leave/recover
//!   churn at 1, 2, and 4 cycles; every row's checksum must match the
//!   churn-free run bit for bit.
//!
//! The driver builds the whole report twice in-process and the two
//! renderings must be byte-identical: membership schedules are as
//! reproducible as fault schedules.

use crate::report::{Json, Report, Table};
use crate::suite::{pinned_swdsm, SEED};
use crate::{Args, Built};
use apps::world::NativeWorld;
use apps::BenchResult;
use cluster::{MembershipPlan, SyncTopology, ViewChange};
use interconnect::MembershipEvent;
use memwire::{Distribution, PAGE_SIZE};
use swdsm::DsmConfig;

/// Adaptive state-transfer cutoff: replay deltas up to this many
/// write-notice records, snapshot-sync beyond it.
const DELTA_CUTOFF: u64 = 64;

/// The victim leaves at 80 ms (well past the largest row's warm-up) and
/// recovers 8 ms later; peers write its missed state inside the window.
const LEAVE_NS: u64 = 80_000_000;
const RECOVER_NS: u64 = 88_000_000;

/// One leave/recover cycle for the state-transfer sweep: the victim is
/// absent during `[LEAVE_NS, RECOVER_NS)` while the peers diverge.
fn leave_recover(victim: usize) -> MembershipPlan {
    MembershipPlan::scripted(
        SEED,
        vec![
            MembershipEvent {
                node: victim,
                at_ns: LEAVE_NS,
                change: ViewChange::Leave { graceful: false },
            },
            MembershipEvent { node: victim, at_ns: RECOVER_NS, change: ViewChange::Recover },
        ],
    )
}

/// One row of the state-transfer sweep: warm every cache, take the
/// victim away, let the peers write `div_pages` pages, rejoin, and
/// verify the victim caught up by the path the adaptive policy owes.
fn transfer_row(nodes: usize, div_pages: usize) -> Json {
    eprintln!("state transfer: {div_pages} diverged pages...");
    let victim = nodes - 1;
    let dsm_cfg = DsmConfig { delta_max_records: DELTA_CUTOFF, ..DsmConfig::default() };
    let plan = Some(leave_recover(victim));
    let (report, results, dsm) = pinned_swdsm(nodes, SyncTopology::centralized(), None, plan, dsm_cfg, |node| {
        let a = node.alloc(div_pages * PAGE_SIZE, Distribution::Block);
        node.barrier(1);
        // Warm-up: every node caches every page, so the victim has a
        // full (soon stale) cache to catch up.
        for p in 0..div_pages {
            node.read_u64(a.add((p * PAGE_SIZE) as u32));
        }
        node.barrier(2);
        let me = node.rank();
        let outcome = if me == victim {
            // Model the absence: the victim computes past its recovery
            // instant, then rejoins and synchronizes.
            let now = node.ctx().clock().now();
            node.ctx().compute((RECOVER_NS + 500_000).saturating_sub(now));
            let rejoin_ns = node.rejoin(3);
            let (transfer_ns, snapshot) = node.last_transfer();
            (rejoin_ns, transfer_ns, snapshot)
        } else {
            // Peers wait until the victim is gone, then write its
            // missed state: page p belongs to peer (p mod peers), so
            // every page is written exactly once.
            let now = node.ctx().clock().now();
            node.ctx().compute((LEAVE_NS + 500_000).saturating_sub(now));
            for p in 0..div_pages {
                if p % (nodes - 1) == me {
                    node.write_u64(a.add((p * PAGE_SIZE) as u32), 0xBEEF + p as u64);
                }
            }
            node.barrier(3);
            (0, 0, false)
        };
        // Everyone — the rejoined victim included — must read back all
        // peer writes.
        let mut sum = 0u64;
        for p in 0..div_pages {
            sum += node.read_u64(a.add((p * PAGE_SIZE) as u32));
        }
        let expect: u64 = (0..div_pages).map(|p| 0xBEEF + p as u64).sum();
        assert_eq!(sum, expect, "node {me} diverged after rejoin at {div_pages} pages");
        node.barrier(4);
        outcome
    });
    let (rejoin_ns, transfer_ns, snapshot) = results[victim];
    let vstats = dsm.stats(victim);
    assert_eq!(vstats.get("view_changes"), 1, "victim counted its rejoin");
    let net = |k: &str| report.net_stats.get(k).copied().unwrap_or(0);
    assert!(net("nodedown") > 0, "peer flushes never hit the absence window");
    // The adaptive policy must pick delta below the cutoff and
    // snapshot above it (each page diverges by one record here).
    assert_eq!(snapshot, div_pages as u64 > DELTA_CUTOFF, "adaptive policy mispicked at {div_pages} pages");
    let moved = vstats.get(if snapshot { "snapshot_bytes" } else { "delta_records" });
    assert!(moved > 0, "the transfer path moved nothing at {div_pages} pages");
    Json::obj([
        ("diverged_pages", Json::int(div_pages)),
        ("rejoin_ns", Json::int(rejoin_ns)),
        ("transfer_ns", Json::int(transfer_ns)),
        ("path", Json::str(if snapshot { "snapshot" } else { "delta" })),
        ("snapshot_bytes", Json::int(vstats.get("snapshot_bytes"))),
        ("delta_records", Json::int(vstats.get("delta_records"))),
        ("nodedown", Json::int(net("nodedown"))),
        ("view_fenced", Json::int(net("view_fenced"))),
        ("caught_up", Json::Bool(true)),
    ])
}

/// SOR under seeded churn: `cycles` leave/recover pairs over the run.
fn churn_run(nodes: usize, cycles: usize, sor_n: usize, sor_iters: usize) -> (BenchResult, u64, u64, u64) {
    let membership =
        (cycles > 0).then(|| MembershipPlan::churn(SEED, nodes, 6_000_000, 30_000_000, cycles));
    let sor = |node| apps::sor::sor(&NativeWorld::new(node), sor_n, sor_iters, true);
    let (report, rs, _) =
        pinned_swdsm(nodes, SyncTopology::centralized(), None, membership, DsmConfig::default(), sor);
    let net = |k: &str| report.net_stats.get(k).copied().unwrap_or(0);
    (BenchResult::merge(&rs), report.sim_time_ns, net("nodedown"), net("view_fenced"))
}

fn churn_row(nodes: usize, cycles: usize, sor: (usize, usize), base: &BenchResult, base_ns: u64) -> Json {
    eprintln!("churn: {cycles} cycle(s)...");
    let (result, ns, nodedown, view_fenced) = churn_run(nodes, cycles, sor.0, sor.1);
    assert_eq!(
        result.checksum, base.checksum,
        "churn at {cycles} cycles changed the SOR checksum"
    );
    Json::obj([
        ("cycles", Json::int(cycles)),
        ("makespan_ns", Json::int(ns)),
        ("slowdown_pct", Json::num((ns as f64 - base_ns as f64) / base_ns as f64 * 100.0)),
        ("nodedown", Json::int(nodedown)),
        ("view_fenced", Json::int(view_fenced)),
        ("checksum_matches_stable", Json::Bool(true)),
    ])
}

/// Rejoin time against state size, and SOR under 1, 2 and 4 churn cycles.
pub fn membership(args: &Args) -> Built {
    let nodes = args.nodes;
    assert!(nodes >= 2, "membership needs a victim and at least one survivor");
    let transfers: Vec<Json> = [8usize, 32, 128, 512].iter().map(|&d| transfer_row(nodes, d)).collect();

    let sor = if args.quick { (96, 8) } else { (256, 30) };
    eprintln!("churn: stable baseline...");
    let (base, base_ns, _, _) = churn_run(nodes, 0, sor.0, sor.1);
    let churns: Vec<Json> =
        [1usize, 2, 4].iter().map(|&c| churn_row(nodes, c, sor, &base, base_ns)).collect();

    let tables = vec![
        Table::new(
            format!(
                "State transfer: seed {SEED}, {nodes} nodes, victim absent 8 ms, delta cutoff {DELTA_CUTOFF} records"
            ),
            &["diverged_pages", "rejoin_ns", "transfer_ns", "path", "snapshot_bytes", "delta_records"],
            &transfers,
        ),
        Table::new(
            format!("Churn: SOR {}x{}, seeded leave/recover cycles over [6 ms, 30 ms)", sor.0, sor.1),
            &["cycles", "makespan_ns", "slowdown_pct", "nodedown", "view_fenced"],
            &churns,
        ),
    ];
    let doc = Json::obj([
        ("figure", Json::str("membership")),
        ("title", Json::str("Elastic membership: rejoin time vs state size and churn rate")),
        ("seed", Json::int(SEED)),
        ("nodes", Json::int(nodes)),
        ("quick", Json::Bool(args.quick)),
        ("delta_cutoff_records", Json::int(DELTA_CUTOFF)),
        ("absence_window_ns", Json::Arr(vec![Json::int(LEAVE_NS), Json::int(RECOVER_NS)])),
        ("state_transfer", Json::Arr(transfers)),
        ("stable_sor_ns", Json::int(base_ns)),
        ("churn", Json::Arr(churns)),
    ]);
    Ok(Report::new(doc, tables))
}
