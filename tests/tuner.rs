//! Tuning is *performance-only*: whatever plan the tuner emits, the
//! program's results must not move (ISSUE 8, satellite 3).
//!
//! A proptest draws random [`tuner::TuningPlan`]s — page re-homes
//! (valid, redundant, and never-allocated targets alike), lock
//! placements, layout padding, and sync-topology switches — applies
//! them the same way the `tune` bench does (placement and topology as
//! `ClusterConfig`, padding as the kernel's `AlignHint`), and asserts
//! at 4 and 64 nodes, on one delivery worker and on the auto-sized pool:
//!
//! * the tuned run's workload checksum is bit-identical to the
//!   untuned baseline's,
//! * the tuned configuration is itself deterministic: two runs agree
//!   on virtual makespan and every net counter,
//! * both worker counts agree on the checksum under the same plan.

use apps::world::{run_hamster, HamsterWorld, World};
use cluster::{BarrierTopology, EngineMode, SyncTopology};
use hamster_core::{ClusterConfig, Placement, PlatformKind};
use memwire::{AlignHint, Distribution, PageId};
use proptest::prelude::*;
use tuner::{Action, TuningPlan};

/// Lock the mixed kernel contends on (inside the generated lock-id
/// range, so some plans re-place exactly this lock).
const KERNEL_LOCK: u32 = 5;
const ROUNDS: usize = 3;
const SLOT: usize = 64;

/// Mixed shared-memory kernel: per-rank counter slots (hint-aware
/// layout), a shared accumulator cell, and contended locks. Two rules
/// keep it inside the repo's deterministic regime (the same ones
/// tests/engine.rs documents for its lock ring): lock turns are
/// barrier-serialized so grant order never depends on message races,
/// and critical sections do not write shared memory — the accumulator
/// is updated between the unlock and the turn's barrier, so releases
/// publish empty intervals and grants carry no racy notice payloads.
fn kernel(w: &HamsterWorld, hint: AlignHint) -> u64 {
    let stride = hint.padded_stride(SLOT);
    let slots = w.alloc_dist(w.nprocs() * stride, Distribution::Cyclic);
    let acc = w.alloc_dist(SLOT, Distribution::OnNode(0));
    w.barrier(900);
    let mut bar = 910u32;
    for round in 0..ROUNDS {
        let mine = slots.add((w.rank() * stride) as u32);
        let v = w.read_f64(mine);
        w.write_f64(mine, v + (round + 1) as f64);
        w.barrier(bar);
        bar += 1;
        for turn in 0..w.nprocs() {
            if w.rank() == turn {
                w.lock(KERNEL_LOCK);
                w.compute(500 + round as u64 * 37);
                w.unlock(KERNEL_LOCK);
                let cur = w.read_f64(acc);
                w.write_f64(acc, cur + 1.0 + round as f64);
            }
            w.barrier(bar);
            bar += 1;
        }
    }
    let mut sum = 0u64;
    for r in 0..w.nprocs() {
        let v = w.read_f64(slots.add((r * stride) as u32));
        sum = sum.rotate_left(7) ^ v.to_bits();
    }
    sum = sum.rotate_left(7) ^ w.read_f64(acc).to_bits();
    w.barrier(bar);
    sum
}

fn actions() -> impl Strategy<Value = Action> {
    prop_oneof![
        // Regions 0..=2 cover whatever the runtime actually allocates;
        // region 9 never exists, so its re-homes must be inert.
        ((0u32..=2), (0u32..8), (0usize..4)).prop_map(|(region, index, to)| {
            Action::RehomePage { page: PageId { region, index }, to }
        }),
        ((9u32..=9), (0u32..8), (0usize..4)).prop_map(|(region, index, to)| {
            Action::RehomePage { page: PageId { region, index }, to }
        }),
        ((0u32..8), (0usize..4)).prop_map(|(lock, to)| Action::PlaceLock { lock, to }),
        prop_oneof![Just(128u32), Just(512), Just(4096)]
            .prop_map(|pad_to| Action::PadRegion { region: 0, pad_to }),
        (2u32..=8).prop_map(|fanout| Action::SwitchBarrier { fanout }),
    ]
}

fn plans() -> impl Strategy<Value = TuningPlan> {
    proptest::collection::vec(actions(), 0..8).prop_map(|actions| TuningPlan { actions })
}

/// Split a plan into its configuration carriers, exactly as the `tune`
/// bench does.
fn carriers(plan: &TuningPlan) -> (AlignHint, Placement, SyncTopology) {
    let mut hint = AlignHint::None;
    let mut placement = Placement::default();
    let mut sync = SyncTopology::centralized();
    for a in &plan.actions {
        match *a {
            Action::PadRegion { pad_to, .. } => hint = AlignHint::PadTo(pad_to),
            Action::RehomePage { page, to } => placement.homes.push((page, to)),
            Action::PlaceLock { lock, to } => placement.locks.push((lock, to)),
            Action::SwitchBarrier { fanout } => {
                sync.barrier = BarrierTopology::Tree { fanout: fanout as usize }
            }
        }
    }
    (hint, placement, sync)
}

struct Observed {
    checksum: u64,
    sim_time_ns: u64,
    net_stats: std::collections::BTreeMap<&'static str, u64>,
}

fn observe(
    nodes: usize,
    engine: EngineMode,
    hint: AlignHint,
    placement: &Placement,
    sync: SyncTopology,
) -> Observed {
    let mut cfg = ClusterConfig::new(nodes, PlatformKind::SwDsm);
    // The deterministic regime, wide enough for the 64-node legs.
    cfg.cost = sim::CostModel::wide_below_saturation();
    cfg.engine = engine;
    cfg.sync = sync;
    cfg.placement = placement.clone();
    let (report, checksums) = run_hamster(&cfg, move |w| kernel(w, hint));
    assert!(
        checksums.iter().all(|&c| c == checksums[0]),
        "ranks disagree on checksum: {checksums:?}"
    );
    Observed {
        checksum: checksums[0],
        sim_time_ns: report.sim_time_ns,
        net_stats: report.net_stats,
    }
}

fn assert_plan_preserves(plan: &TuningPlan, nodes: usize) {
    let (hint, placement, sync) = carriers(plan);
    // One worker: the real-time schedule furthest from the auto-sized,
    // stealing pool.
    for engine in [EngineMode { workers: 1 }, EngineMode::default()] {
        let baseline =
            observe(nodes, engine, AlignHint::None, &Placement::default(), SyncTopology::centralized());
        let tuned = observe(nodes, engine, hint, &placement, sync);
        prop_assert_eq!(
            baseline.checksum,
            tuned.checksum,
            "plan changed the workload result at {} nodes under {:?}: {:?}",
            nodes,
            engine,
            plan
        );
        let again = observe(nodes, engine, hint, &placement, sync);
        prop_assert_eq!(
            tuned.sim_time_ns,
            again.sim_time_ns,
            "tuned virtual makespan wobbled at {} nodes under {:?}: {:?}",
            nodes,
            engine,
            plan
        );
        prop_assert_eq!(
            &tuned.net_stats,
            &again.net_stats,
            "tuned net counters wobbled at {} nodes under {:?}: {:?}",
            nodes,
            engine,
            plan
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn random_plans_preserve_results_and_determinism(plan in plans()) {
        assert_plan_preserves(&plan, 4);
        assert_plan_preserves(&plan, 64);
    }
}

/// Pinned coverage: one plan touching every action kind at once, so a
/// proptest draw never silently skips a carrier.
#[test]
fn full_catalogue_plan_preserves_results() {
    let plan = TuningPlan {
        actions: vec![
            Action::PadRegion { region: 0, pad_to: 4096 },
            Action::RehomePage { page: PageId { region: 0, index: 0 }, to: 1 },
            Action::RehomePage { page: PageId { region: 9, index: 3 }, to: 2 },
            Action::PlaceLock { lock: KERNEL_LOCK, to: 3 },
            Action::SwitchBarrier { fanout: 4 },
        ],
    };
    assert_plan_preserves(&plan, 4);
}
