//! Workspace-level SLO-telemetry tests: the multi-tenant KV service
//! workload (`apps::kv`) and its `Telemetry` pipeline (latency sketches
//! + virtual-time metrics timeseries), end to end through HAMSTER.
//!
//! * Property: for *any* workload seed and shape, the same seed yields
//!   byte-identical checksums, per-(tenant, op) quantiles, and metrics
//!   timeseries — at 4 and at 64 nodes, on one delivery worker and on
//!   the auto-sized pool, with the cost model in the deterministic
//!   (below bus-window saturation) regime.
//! * Integration: under the chaos bench's fault plan, every platform
//!   still produces the fault-free checksum, and for every tenant the
//!   faulted p99 is no better than the fault-free p99 — faults surface
//!   as user-visible latency, never as wrong answers.

use apps::kv::{serve, KvConfig};
use apps::world::run_hamster;
use apps::BenchResult;
use cluster::EngineMode;
use hamster_core::{ClusterConfig, PlatformKind, ServiceOp, Telemetry};
use interconnect::fault::{CrashWindow, FaultPlan, LinkFaults};
use proptest::prelude::*;
use sim::stats::{MetricsRow, Quantiles};
use sim::CostModel;

/// Metrics window: 1 ms of virtual time, matching the `serve` bench.
const WINDOW_NS: u64 = 1_000_000;

/// Everything the SLO artifact is built from, for one run.
#[derive(Debug, PartialEq)]
struct Observed {
    checksum: u64,
    total_ns: u64,
    /// Per tenant: get, put, and merged quantiles.
    quantiles: Vec<Quantiles>,
    rows: Vec<MetricsRow>,
}

fn observe(
    nodes: usize,
    platform: PlatformKind,
    engine: EngineMode,
    cost: CostModel,
    kv: &KvConfig,
    faults: Option<FaultPlan>,
) -> Observed {
    let mut cfg = ClusterConfig::new(nodes, platform);
    cfg.cost = cost;
    cfg.engine = engine;
    cfg.faults = faults;
    let tel = Telemetry::new(kv.tenants, WINDOW_NS);
    let (t2, k2) = (tel.clone(), kv.clone());
    let (_, rs) = run_hamster(&cfg, move |w| serve(w, &k2, &t2));
    let r = BenchResult::merge(&rs);
    let mut quantiles = Vec::new();
    for t in 0..kv.tenants {
        quantiles.push(tel.quantiles(t, ServiceOp::Get));
        quantiles.push(tel.quantiles(t, ServiceOp::Put));
        quantiles.push(tel.tenant_quantiles(t));
    }
    Observed { checksum: r.checksum, total_ns: r.total_ns, quantiles, rows: tel.series_rows() }
}

/// A drawn workload shape. `keys_per_part` stays at the smallest legal
/// value (one page per partition) so the 64-node legs stay CI-sized.
fn kv_config(seed: u64, rounds: usize, batch: usize) -> KvConfig {
    let mut kv = KvConfig::quick();
    kv.seed = seed;
    kv.rounds = rounds;
    kv.batch = batch;
    kv.keys_per_part = 64;
    kv.clients = 128;
    kv
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// The tentpole determinism property (ISSUE 10): same seed ⇒
    /// byte-identical checksums, quantiles, and timeseries, at 4 and
    /// 64 nodes, whatever the delivery worker count.
    #[test]
    fn telemetry_is_deterministic_across_worker_counts_and_scale(
        seed in 0u64..=u32::MAX as u64,
        rounds in 2usize..=3,
        batch in 30usize..=60,
    ) {
        let kv = kv_config(seed, rounds, batch);
        // Both legs in the deterministic regime: the pin holds 4 nodes
        // below saturation, 64 need the wide model.
        let legs = [
            (4usize, CostModel::pinned_ethernet()),
            (64, CostModel::wide_below_saturation()),
        ];
        for (nodes, cost) in legs {
            // One worker is the real-time schedule furthest from the
            // auto-sized, stealing pool.
            let single = EngineMode { workers: 1 };
            let one = observe(nodes, PlatformKind::SwDsm, single, cost, &kv, None);
            let auto = observe(nodes, PlatformKind::SwDsm, EngineMode::default(), cost, &kv, None);
            let again = observe(nodes, PlatformKind::SwDsm, single, cost, &kv, None);
            prop_assert_eq!(&one, &auto, "worker counts diverged at {} nodes", nodes);
            prop_assert_eq!(&one, &again, "same seed did not reproduce at {} nodes", nodes);
            prop_assert!(one.quantiles.iter().any(|q| q.count > 0));
            prop_assert!(!one.rows.is_empty());
        }
    }
}

/// The chaos bench's fault plan (drop + dup + delay + reorder + a
/// crash/heal window on the last node).
fn chaos_plan(nodes: usize) -> FaultPlan {
    let mut plan = FaultPlan::seeded(42);
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

/// Faults cost latency, not answers: checksums match the fault-free
/// run bit for bit, and no tenant's p99 improves under chaos.
#[test]
fn chaos_degrades_p99_but_not_answers() {
    let nodes = 4;
    let kv = KvConfig::quick();
    for platform in [PlatformKind::Smp, PlatformKind::HybridDsm, PlatformKind::SwDsm] {
        let base = observe(
            nodes,
            platform,
            EngineMode::default(),
            CostModel::pinned_ethernet(),
            &kv,
            None,
        );
        let chaos = observe(
            nodes,
            platform,
            EngineMode::default(),
            CostModel::pinned_ethernet(),
            &kv,
            Some(chaos_plan(nodes)),
        );
        assert_eq!(
            base.checksum, chaos.checksum,
            "{platform:?}: faults changed the workload result"
        );
        assert!(chaos.total_ns > base.total_ns, "{platform:?}: faults cost no time");
        for t in 0..kv.tenants {
            let bq = &base.quantiles[t * 3 + 2];
            let cq = &chaos.quantiles[t * 3 + 2];
            assert!(
                cq.p99 >= bq.p99,
                "{platform:?} tenant {t}: chaos p99 {} beat fault-free p99 {}",
                cq.p99,
                bq.p99
            );
        }
    }
}
