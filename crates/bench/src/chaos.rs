//! Chaos artifact: SOR and LU on the software DSM under seeded fault
//! injection (drop + duplicate + delay + a crash/heal window), proving
//! the robustness layer end to end:
//!
//! * both workloads run to completion through retries,
//! * their checksums are bit-identical to the fault-free run,
//! * the same seed reproduces the identical fault schedule, retry
//!   counts, and virtual times (asserted by running the chaos
//!   configuration twice),
//! * both under the centralized sync protocols and under the full
//!   scalable preset — tree barrier, digest waves, and `TokenQueue`
//!   locks (served by the central manager on the faulty legs; SOR and
//!   LU take no locks, so the preset's locks are configured, not run),
//! * and additionally under elastic-membership churn: a node leaves and
//!   recovers twice mid-run on top of the link faults, and the
//!   checksums still match the fault-free run bit for bit.
//!
//! The document records runs-to-completion, fault/retry counters, and
//! the virtual latency the faults added.

use crate::report::{Report, Table};
use crate::suite::{chaos_plan, pinned_swdsm, Sizes, SEED};
use crate::{Args, Built};
use apps::world::NativeWorld;
use apps::BenchResult;
use cluster::{RunReport, SyncTopology};
use interconnect::fault::FaultPlan;
use interconnect::MembershipPlan;
use sim::json::Value;

/// The scalable topology chaos also runs under: fanout-4 tree barrier,
/// digest waves, and `TokenQueue` locks. A resilient fabric serves those
/// from the central manager, whose answers to retries are idempotent;
/// the workloads here take no locks, so what this preset exercises
/// under faults is the tree barrier and the digest waves.
fn tree_sync() -> SyncTopology {
    SyncTopology {
        barrier: cluster::BarrierTopology::Tree { fanout: 4 },
        locks: cluster::LockTopology::TokenQueue,
        notices: cluster::NoticeWire::Digest { max_runs: 64 },
    }
}

struct ChaosRun {
    result: BenchResult,
    report: RunReport,
    /// The software DSM's `retries` counter summed over nodes.
    protocol_retries: u64,
}

fn run(
    nodes: usize,
    sync: SyncTopology,
    faults: Option<FaultPlan>,
    membership: Option<MembershipPlan>,
    bench: impl Fn(&NativeWorld) -> BenchResult + Send + Sync,
) -> ChaosRun {
    let (report, rs, dsm) = pinned_swdsm(nodes, sync, faults, membership, Default::default(), |node| {
        bench(&NativeWorld::new(node))
    });
    let protocol_retries = (0..nodes).map(|n| dsm.stats(n).get("retries")).sum();
    ChaosRun { result: BenchResult::merge(&rs), report, protocol_retries }
}

fn workload_row(
    name: &str,
    nodes: usize,
    sync: SyncTopology,
    churn: bool,
    base: &ChaosRun,
    bench: impl Fn(&NativeWorld) -> BenchResult + Send + Sync,
) -> Value {
    // Two leave/recover cycles after the chaos crash window heals: the
    // victim (never node 0) departs and rejoins while link faults are
    // still firing, exercising view-epoch fencing on top of retries.
    let membership = || churn.then(|| MembershipPlan::churn(SEED, nodes, 14_000_000, 26_000_000, 2));
    eprintln!("{name}: chaos run (seed {SEED})...");
    let chaos = run(nodes, sync, Some(chaos_plan(nodes)), membership(), &bench);
    eprintln!("{name}: chaos run again (determinism check)...");
    let again = run(nodes, sync, Some(chaos_plan(nodes)), membership(), &bench);

    // Bit-identical numerical results despite drops, dups, delays, and
    // the crash window: the retry/replay machinery is exactly-once.
    assert_eq!(
        chaos.result.checksum,
        base.result.checksum,
        "{name}: chaos checksum diverged from fault-free"
    );
    // Same seed ⇒ same fault schedule ⇒ identical counters and clocks.
    assert_eq!(
        chaos.report.net_stats, again.report.net_stats,
        "{name}: fault schedule not reproducible"
    );
    assert_eq!(
        chaos.report.sim_time_ns, again.report.sim_time_ns,
        "{name}: virtual time not reproducible"
    );
    assert_eq!(chaos.result.checksum, again.result.checksum);
    // The schedule must actually have exercised the machinery.
    let stat = |k: &str| chaos.report.net_stats.get(k).copied().unwrap_or(0);
    assert!(stat("faults_dropped") > 0, "{name}: no drops injected");
    assert!(stat("faults_dup") > 0, "{name}: no duplicates injected");
    assert!(stat("retries") > 0, "{name}: no retries exercised");
    if churn {
        assert!(stat("nodedown") > 0, "{name}: churn absence windows never observed");
    }

    let base_ns = base.report.sim_time_ns;
    let chaos_ns = chaos.report.sim_time_ns;
    let counters = chaos
        .report
        .net_stats
        .iter()
        .map(|(k, v)| (*k, Value::int(*v)))
        .collect::<Vec<_>>();
    Value::obj([
        ("workload", Value::str(name)),
        ("completed", Value::Bool(true)),
        ("checksum_matches_fault_free", Value::Bool(true)),
        ("deterministic", Value::Bool(true)),
        ("baseline_ns", Value::int(base_ns)),
        ("chaos_ns", Value::int(chaos_ns)),
        ("added_latency_pct", Value::num((chaos_ns as f64 - base_ns as f64) / base_ns as f64 * 100.0)),
        ("protocol_retries", Value::int(chaos.protocol_retries)),
        ("net", Value::obj(counters)),
    ])
}

/// SOR and LU under the seeded fault mix, on both topologies and under churn.
pub fn chaos(args: &Args) -> Built {
    let nodes = args.nodes;
    assert!(nodes >= 2, "chaos needs at least 2 nodes (one crashes)");
    // Chaos sizes: enough traffic for the percentage faults to bite
    // while staying CI-friendly (messages are cheap in virtual time).
    let sizes = Sizes::choose(args.quick);
    let sor_n = sizes.sor_n.min(256);
    let sor_iters = if args.quick { 30 } else { 50 };
    let lu_n = sizes.lu_n.min(256);

    // One fault-free centralized baseline per workload; every chaos
    // configuration — either topology — must reproduce its checksum
    // exactly, so topology equivalence is asserted here too.
    let sor = |w: &NativeWorld| apps::sor::sor(w, sor_n, sor_iters, true);
    let lu = |w: &NativeWorld| apps::lu::lu(w, lu_n);
    let central = SyncTopology::centralized();
    eprintln!("SOR: fault-free baseline...");
    let sor_base = run(nodes, central, None, None, sor);
    eprintln!("LU: fault-free baseline...");
    let lu_base = run(nodes, central, None, None, lu);
    let rows = vec![
        workload_row("SOR/central", nodes, central, false, &sor_base, sor),
        workload_row("SOR/tree", nodes, tree_sync(), false, &sor_base, sor),
        workload_row("SOR/churn", nodes, tree_sync(), true, &sor_base, sor),
        workload_row("LU/central", nodes, central, false, &lu_base, lu),
        workload_row("LU/tree", nodes, tree_sync(), false, &lu_base, lu),
        workload_row("LU/churn", nodes, tree_sync(), true, &lu_base, lu),
    ];

    let table = Table::new(
        format!("Chaos run: seed {SEED}, {nodes} nodes, 3% drop + 2% dup + 5% delay + crash/heal window"),
        &["workload", "baseline_ns", "chaos_ns", "added_latency_pct", "net.retries", "net.faults_dropped", "net.faults_dup", "net.nodedown"],
        &rows,
    );
    let doc = Value::obj([
        ("figure", Value::str("chaos")),
        ("title", Value::str("SOR/LU under deterministic fault injection")),
        ("seed", Value::int(SEED)),
        ("nodes", Value::int(nodes)),
        ("quick", Value::Bool(args.quick)),
        ("drop_ppm", Value::int(30_000)),
        ("dup_ppm", Value::int(20_000)),
        ("delay_ppm", Value::int(50_000)),
        ("crash_window_ns", Value::Arr(vec![Value::int(6_000_000), Value::int(12_000_000)])),
        ("churn_window_ns", Value::Arr(vec![Value::int(14_000_000), Value::int(26_000_000)])),
        ("churn_cycles", Value::int(2)),
        ("rows", Value::Arr(rows)),
    ]);
    Ok(Report::new(doc, vec![table])
        .note("all workloads completed with bit-identical checksums; schedules reproduced exactly"))
}
