//! What the artifacts share: the figure suite, the pinned SW-DSM
//! cluster, the chaos fault mix and the lock ring.

use apps::world::{run_hamster, run_native_cost, HamsterWorld, NativeWorld, World};
use apps::BenchResult;
use cluster::{Cluster, FabricConfig, LinkKind, RunReport, SyncTopology};
use hamster_core::{ClusterConfig, PlatformKind};
use interconnect::fault::{CrashWindow, FaultPlan, LinkFaults};
use interconnect::{MembershipPlan, Resilience};
use memwire::Distribution;
use std::sync::Arc;
use swdsm::{DsmConfig, DsmNode, SwDsm};

/// Ethernet rate every determinism-gated artifact pins (bytes/s):
/// `analysis`, `chaos`, `tune`, `membership`, `scale`, `serve`, fig2
/// and fig3 all run on [`CostModel::pinned_ethernet`], where why, and
/// why 250 MB/s, is told once.
pub use sim::cost::PINNED_ETHERNET_BPS;
use sim::CostModel;

/// The seed of every seeded schedule (workload, faults, churn): each
/// run of an artifact sees the identical one.
pub const SEED: u64 = 42;

/// The name a platform goes by in artifacts and tables.
pub fn platform_name(p: PlatformKind) -> &'static str {
    match p {
        PlatformKind::Smp => "smp",
        PlatformKind::HybridDsm => "hybrid",
        PlatformKind::SwDsm => "swdsm",
        PlatformKind::Mixed => "mixed",
    }
}

/// The three platforms every cross-platform artifact sweeps.
pub const PLATFORMS: [PlatformKind; 3] =
    [PlatformKind::Smp, PlatformKind::HybridDsm, PlatformKind::SwDsm];

/// Working-set sizes for one harness run.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub matmult_n: usize,
    pub pi_samples: usize,
    pub sor_n: usize,
    pub sor_iters: usize,
    pub lu_n: usize,
    pub water_a: usize,
    pub water_b: usize,
    pub water_steps: usize,
}

impl Sizes {
    /// The paper's Table 1 working sets, or reduced ones for quick runs
    /// and CI.
    pub fn choose(quick: bool) -> Sizes {
        if quick {
            Sizes {
                matmult_n: 128,
                pi_samples: 200_000,
                sor_n: 128,
                sor_iters: 10,
                lu_n: 128,
                water_a: 64,
                water_b: 125,
                water_steps: 2,
            }
        } else {
            Sizes {
                matmult_n: 1024,
                pi_samples: 10_000_000,
                sor_n: 1024,
                sor_iters: 50,
                lu_n: 1024,
                water_a: 288,
                water_b: 343,
                water_steps: 3,
            }
        }
    }
}

/// The rows of the paper's figures, in their x-axis order.
pub const ROWS: [&str; 10] = [
    "MatMult",
    "PI",
    "SOR opt",
    "SOR",
    "LU all",
    "LU",
    "LU core",
    "LU bar",
    "WATER 288",
    "WATER 343",
];

fn run_all<W: World + 'static>(
    sizes: Sizes,
    repeat: usize,
    run: impl Fn(&(dyn Fn(&W) -> BenchResult + Sync)) -> BenchResult,
) -> Vec<f64> {
    // Take the fastest of `repeat` runs: the queueing models are mildly
    // sensitive to host thread scheduling, and the minimum approximates
    // the undisturbed schedule.
    let best = |bench: &(dyn Fn(&W) -> BenchResult + Sync)| -> BenchResult {
        (0..repeat.max(1))
            .map(|_| run(bench))
            .min_by_key(|r| r.total_ns)
            .expect("at least one run")
    };
    let mm = best(&|w: &W| apps::matmult::matmult(w, sizes.matmult_n));
    let pi = best(&|w: &W| apps::pi::pi(w, sizes.pi_samples));
    let sor_opt = best(&|w: &W| apps::sor::sor(w, sizes.sor_n, sizes.sor_iters, true));
    let sor = best(&|w: &W| apps::sor::sor(w, sizes.sor_n, sizes.sor_iters, false));
    let lu = best(&|w: &W| apps::lu::lu(w, sizes.lu_n));
    let wa = best(&|w: &W| apps::water::water(w, sizes.water_a, sizes.water_steps));
    let wb = best(&|w: &W| apps::water::water(w, sizes.water_b, sizes.water_steps));
    let s = 1e-9;
    vec![
        mm.total_ns as f64 * s,
        pi.total_ns as f64 * s,
        sor_opt.total_ns as f64 * s,
        sor.total_ns as f64 * s,
        lu.total_ns as f64 * s,
        lu.phases["no_init"] as f64 * s,
        lu.phases["core"] as f64 * s,
        lu.phases["bar"] as f64 * s,
        wa.total_ns as f64 * s,
        wb.total_ns as f64 * s,
    ]
}

/// The system a [`suite`] runs on.
#[derive(Debug, Clone, Copy)]
pub enum System {
    /// The software DSM called directly, no HAMSTER anywhere in the path.
    Native,
    /// HAMSTER configured for this platform.
    Hamster(PlatformKind),
}

/// Virtual seconds per [`ROWS`] entry of the whole suite on `system`
/// under `cost`, keeping the fastest of `repeat` runs per benchmark. On
/// the pinned Ethernet the times are reproducible enough for the
/// `--check` gate; only the Ethernet link differs from the default
/// model, so hybrid and SMP time the same under either.
pub fn suite(system: System, nodes: usize, sizes: Sizes, cost: CostModel, repeat: usize) -> Vec<f64> {
    match system {
        System::Native => run_all::<NativeWorld>(sizes, repeat, |bench| {
            let sync = SyncTopology::centralized();
            let (_, rs) = run_native_cost(nodes, DsmConfig::default(), sync, cost, |w| bench(w));
            BenchResult::merge(&rs)
        }),
        System::Hamster(platform) => run_all::<HamsterWorld>(sizes, repeat, |bench| {
            let mut cfg = ClusterConfig::new(nodes, platform);
            cfg.cost = cost;
            let (_, rs) = run_hamster(&cfg, |w| bench(w));
            BenchResult::merge(&rs)
        }),
    }
}

/// Run `f` on every node of a native SW-DSM cluster on the pinned
/// Ethernet (the byte identity `chaos`, `membership` and `scale` assert
/// holds only while link windows stay unsaturated).
/// A fault plan brings the default [`Resilience`] policy with it.
pub fn pinned_swdsm<T: Send>(
    nodes: usize,
    sync: SyncTopology,
    faults: Option<FaultPlan>,
    membership: Option<MembershipPlan>,
    dsm_cfg: DsmConfig,
    f: impl Fn(DsmNode) -> T + Send + Sync,
) -> (RunReport, Vec<T>, Arc<SwDsm>) {
    let mut b =
        FabricConfig::builder().nodes(nodes).link(LinkKind::Ethernet).cost(CostModel::pinned_ethernet()).sync(sync);
    if let Some(plan) = faults {
        b = b.chaos(plan).resilience(Resilience::default());
    }
    if let Some(plan) = membership {
        b = b.membership(plan);
    }
    let cluster = Cluster::new(b.build());
    let dsm = SwDsm::install(&cluster, dsm_cfg);
    let (report, results) = cluster.run(|ctx| f(dsm.node(ctx)));
    (report, results, dsm)
}

/// The injected fault mix of `chaos` and `serve`: 3% of messages
/// dropped, 2% duplicated, 5% delayed by up to 200 µs, 2% jittered
/// within a 100 µs window, on every link — and the last node crashes
/// 6 ms into the run (start-up ends at 2 ms, so mid-workload) and heals
/// 6 ms later; survivors see `NodeDown` and retry until the retried
/// request lands post-heal.
pub fn chaos_plan(nodes: usize) -> FaultPlan {
    let mut plan = FaultPlan::seeded(SEED);
    plan.default_link = LinkFaults {
        drop_ppm: 30_000,
        dup_ppm: 20_000,
        delay_ppm: 50_000,
        delay_ns: 200_000,
        reorder_ppm: 20_000,
        reorder_window_ns: 100_000,
    };
    plan.crashes.push(CrashWindow { node: nodes - 1, from_ns: 6_000_000, until_ns: 12_000_000 });
    plan
}

/// A lock-contention microworkload with a *deterministic* schedule:
/// for `rounds` rounds, each of the first `turn_cap` ranks increments a
/// shared counter under lock 1, in rank order, with a barrier after
/// every turn. The barrier round-trip guarantees the previous holder's
/// release is processed before the next request is even sent, so
/// grants, handoffs and wait times are identical on every run — unlike
/// a free-for-all lock, whose grant order follows real message arrival.
/// Everyone takes part in every barrier; the cap only bounds the serial
/// handoffs, which keeps the ring tractable at 1024 nodes.
pub fn lock_ring<W: World>(w: &W, rounds: usize, turn_cap: usize) -> BenchResult {
    let cell = w.alloc_dist(64, Distribution::OnNode(0));
    w.barrier(1);
    let t0 = w.now_ns();
    let mut bar = 10u32;
    for _round in 0..rounds {
        for turn in 0..w.nprocs().min(turn_cap) {
            if w.rank() == turn {
                w.lock(1);
                let cur = w.read_f64(cell);
                w.write_f64(cell, cur + 1.0);
                w.unlock(1);
            }
            w.barrier(bar);
            bar += 1;
        }
    }
    let total_ns = w.now_ns() - t0;
    let value = w.read_f64(cell);
    w.barrier(bar);
    BenchResult { total_ns, phases: Default::default(), checksum: apps::report::checksum_f64(0, value) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_choose_flag() {
        assert_eq!(Sizes::choose(false).matmult_n, 1024);
        assert!(Sizes::choose(true).lu_n < Sizes::choose(false).lu_n);
    }
}
