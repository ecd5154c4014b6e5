//! Chaos benchmark: SOR and LU on the software DSM under seeded fault
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
//! Emits `BENCH_chaos.json` with runs-to-completion, fault/retry
//! counters, and the virtual latency the faults added.

use apps::world::NativeWorld;
use apps::BenchResult;
use bench::report::{write_report, Json};
use bench::suite::Sizes;
use bench::Args;
use cluster::{Cluster, FabricConfig, LinkKind, RunReport};
use interconnect::fault::{CrashWindow, FaultPlan, LinkFaults};
use interconnect::{MembershipPlan, Resilience};
use std::collections::BTreeMap;

/// The fixed chaos seed: every run of this binary injects the identical
/// fault schedule.
const SEED: u64 = 42;

/// The injected fault mix (acceptance floor: ≥1% drop, plus dup and a
/// crash/heal window).
fn chaos_plan(nodes: usize) -> FaultPlan {
    let mut plan = FaultPlan::seeded(SEED);
    plan.default_link = LinkFaults {
        drop_ppm: 30_000,  // 3% of messages destroyed
        dup_ppm: 20_000,   // 2% duplicated
        delay_ppm: 50_000, // 5% delayed by up to 200 µs
        delay_ns: 200_000,
        reorder_ppm: 20_000, // 2% jittered within a 100 µs window
        reorder_window_ns: 100_000,
    };
    // The last node crashes 6 ms into the run (startup ends at 2 ms, so
    // this lands mid-workload) and heals 6 ms later; survivors see
    // NodeDown and retry until the retried request lands post-heal.
    plan.crashes.push(CrashWindow {
        node: nodes - 1,
        from_ns: 6_000_000,
        until_ns: 12_000_000,
    });
    plan
}

/// Two leave/recover cycles after the chaos crash window heals: the
/// victim (never node 0) departs and rejoins while link faults are
/// still firing, exercising view-epoch fencing on top of retries.
fn churn_plan(nodes: usize) -> MembershipPlan {
    MembershipPlan::churn(SEED, nodes, 14_000_000, 26_000_000, 2)
}

fn fabric(
    nodes: usize,
    sync: cluster::SyncTopology,
    faults: Option<FaultPlan>,
    membership: Option<MembershipPlan>,
) -> FabricConfig {
    // Pin Ethernet below bus-window saturation: the determinism this
    // binary asserts is only guaranteed while link windows stay
    // unsaturated (a saturated window's slowdown depends on real
    // registration order — see OBSERVABILITY.md and the rationale on
    // `bench::suite::PINNED_ETHERNET_BPS`).
    let cost = bench::suite::pinned_cost();
    let mut b = FabricConfig::builder()
        .nodes(nodes)
        .link(LinkKind::Ethernet)
        .cost(cost)
        .sync(sync);
    if let Some(plan) = faults {
        b = b.chaos(plan).resilience(Resilience::default());
    }
    if let Some(plan) = membership {
        b = b.membership(plan);
    }
    b.build()
}

/// The scalable topology chaos also runs under: fanout-4 tree barrier,
/// digest waves, and `TokenQueue` locks. A resilient fabric serves those
/// from the central manager, whose answers to retries are idempotent;
/// the workloads here take no locks, so what this preset exercises
/// under faults is the tree barrier and the digest waves.
fn tree_sync() -> cluster::SyncTopology {
    cluster::SyncTopology {
        barrier: cluster::BarrierTopology::Tree { fanout: 4 },
        locks: cluster::LockTopology::TokenQueue,
        notices: cluster::NoticeWire::Digest { max_runs: 64 },
    }
}

struct ChaosRun {
    result: BenchResult,
    report: RunReport,
    /// Software-DSM protocol counters summed over nodes.
    dsm: BTreeMap<&'static str, u64>,
}

fn run(
    nodes: usize,
    sync: cluster::SyncTopology,
    faults: Option<FaultPlan>,
    membership: Option<MembershipPlan>,
    bench: impl Fn(&NativeWorld) -> BenchResult + Send + Sync,
) -> ChaosRun {
    let cluster = Cluster::new(fabric(nodes, sync, faults, membership));
    let dsm = swdsm::SwDsm::install(&cluster, swdsm::DsmConfig::default());
    let (report, rs) = cluster.run(|ctx| bench(&NativeWorld::new(dsm.node(ctx))));
    let mut sums: BTreeMap<&'static str, u64> = BTreeMap::new();
    for node in 0..nodes {
        for (k, v) in dsm.stats(node).snapshot() {
            *sums.entry(k).or_insert(0) += v;
        }
    }
    ChaosRun { result: BenchResult::merge(&rs), report, dsm: sums }
}

fn workload_row(
    name: &str,
    nodes: usize,
    sync: cluster::SyncTopology,
    churn: bool,
    base: &ChaosRun,
    bench: impl Fn(&NativeWorld) -> BenchResult + Send + Sync,
) -> Json {
    let membership = || churn.then(|| churn_plan(nodes));
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
        .map(|(k, v)| (*k, Json::int(*v)))
        .collect::<Vec<_>>();
    println!(
        "{name:<12} baseline {:>10.3} ms  chaos {:>10.3} ms  (+{:.2}%)  retries {}  drops {}  dups {}  nodedown {}",
        base_ns as f64 / 1e6,
        chaos_ns as f64 / 1e6,
        (chaos_ns as f64 - base_ns as f64) / base_ns as f64 * 100.0,
        stat("retries"),
        stat("faults_dropped"),
        stat("faults_dup"),
        stat("nodedown"),
    );
    Json::obj([
        ("workload", Json::str(name)),
        ("completed", Json::Bool(true)),
        ("checksum_matches_fault_free", Json::Bool(true)),
        ("deterministic", Json::Bool(true)),
        ("baseline_ns", Json::int(base_ns)),
        ("chaos_ns", Json::int(chaos_ns)),
        (
            "added_latency_pct",
            Json::num((chaos_ns as f64 - base_ns as f64) / base_ns as f64 * 100.0),
        ),
        ("protocol_retries", Json::int(chaos.dsm.get("retries").copied().unwrap_or(0))),
        ("net", Json::obj(counters)),
    ])
}

fn main() {
    let args = Args::parse(2);
    assert!(args.nodes >= 2, "chaos needs at least 2 nodes (one crashes)");
    // Chaos sizes: enough traffic for the percentage faults to bite
    // while staying CI-friendly (messages are cheap in virtual time).
    let sizes = Sizes::choose(args.quick);
    let sor_n = sizes.sor_n.min(256);
    let sor_iters = if args.quick { 30 } else { 50 };
    let lu_n = sizes.lu_n.min(256);

    println!(
        "Chaos run: seed {SEED}, {} nodes, 3% drop + 2% dup + 5% delay + crash/heal window",
        args.nodes
    );
    println!("{:-<100}", "");
    // One fault-free centralized baseline per workload; every chaos
    // configuration — either topology — must reproduce its checksum
    // exactly, so topology equivalence is asserted here too.
    let sor = |w: &NativeWorld| apps::sor::sor(w, sor_n, sor_iters, true);
    let lu = |w: &NativeWorld| apps::lu::lu(w, lu_n);
    eprintln!("SOR: fault-free baseline...");
    let sor_base = run(args.nodes, cluster::SyncTopology::centralized(), None, None, sor);
    eprintln!("LU: fault-free baseline...");
    let lu_base = run(args.nodes, cluster::SyncTopology::centralized(), None, None, lu);
    let central = cluster::SyncTopology::centralized;
    let rows = vec![
        workload_row("SOR/central", args.nodes, central(), false, &sor_base, sor),
        workload_row("SOR/tree", args.nodes, tree_sync(), false, &sor_base, sor),
        workload_row("SOR/churn", args.nodes, tree_sync(), true, &sor_base, sor),
        workload_row("LU/central", args.nodes, central(), false, &lu_base, lu),
        workload_row("LU/tree", args.nodes, tree_sync(), false, &lu_base, lu),
        workload_row("LU/churn", args.nodes, tree_sync(), true, &lu_base, lu),
    ];
    println!("{:-<100}", "");
    println!("all workloads completed with bit-identical checksums; schedules reproduced exactly");

    write_report(
        "chaos",
        &Json::obj([
            ("figure", Json::str("chaos")),
            ("title", Json::str("SOR/LU under deterministic fault injection")),
            ("seed", Json::int(SEED)),
            ("nodes", Json::int(args.nodes)),
            ("quick", Json::Bool(args.quick)),
            ("drop_ppm", Json::int(30_000)),
            ("dup_ppm", Json::int(20_000)),
            ("delay_ppm", Json::int(50_000)),
            ("crash_window_ns", Json::Arr(vec![Json::int(6_000_000), Json::int(12_000_000)])),
            ("churn_window_ns", Json::Arr(vec![Json::int(14_000_000), Json::int(26_000_000)])),
            ("churn_cycles", Json::int(2)),
            ("rows", Json::Arr(rows)),
        ]),
    );
}
