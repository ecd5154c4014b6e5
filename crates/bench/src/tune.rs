//! The closed tuning loop: run → analyze → re-configure → verify.
//!
//! For each workload the artifact runs a traced baseline on the software
//! DSM, feeds the analyzer's [`analyzer::Report`] to the tuner's advisor,
//! applies the resulting [`tuner::TuningPlan`] **as configuration** —
//! placement through `ClusterConfig::placement`, layout through
//! `memwire::AlignHint`, topology through `ClusterConfig::sync` — and
//! re-runs the *identical* kernel. That is the paper's §5.4 portability
//! claim exercised as an optimization loop: the program never changes,
//! only the configuration does.
//!
//! The artifact is its own acceptance check:
//!
//! * every workload's tuned run must reproduce the baseline checksum
//!   bit for bit (tuning moves pages and locks, never results);
//! * at least one workload must improve its virtual-time makespan by
//!   ≥ 15%;
//! * the whole pipeline — baseline, advice, tuned re-runs — is built
//!   twice by the driver and the rendered `BENCH_tune.json` must come
//!   out byte-identical.
//!
//! Per-action-category attribution comes from solo re-runs: each
//! category present in the plan (layout / placement / topology) is
//! applied alone and its makespan recorded, so the artifact shows where
//! the win came from. Before/after analyzer reports go to
//! `TUNE_<workload>_{before,after}.json` for CI artifact upload.

use apps::world::{run_hamster, HamsterWorld, World};
use crate::report::{Report, Table};
use crate::{Args, Built};
use cluster::{BarrierTopology, SyncTopology};
use hamster_core::{ClusterConfig, Placement, PlatformKind};
use memwire::{AlignHint, Distribution};
use sim::json::Value;
use tuner::{advise, Action};

/// Page-misaligned SOR (960-byte rows): the false-sharing victim the
/// layout action repairs. Same size as `analysis` uses.
const SOR_UNOPT_N: usize = 120;
const SOR_ITERS: usize = 10;
const LU_N: usize = 128;

/// The hot-lock workload's shape: every rank takes one serialized turn
/// per round, then the hot rank takes `HOT_EXTRA` more — so the hot
/// rank holds a strict majority of acquisitions and the advisor pins
/// the manager onto it.
const HOT_ROUNDS: usize = 6;
const HOT_EXTRA: usize = 3;
const HOT_RANK: usize = 1;
const HOT_LOCK: u32 = 2;

/// The per-rank counters workload: each rank bumps its own slot every
/// round. Packed, every slot shares one page — the canonical
/// false-sharing victim the layout action exists for. Slots sit one
/// cache line apart so the analyzer's proximity filter flags the page.
const CTR_ROUNDS: usize = 40;
const CTR_SLOT: usize = 64;

/// Per-rank counters with a barrier per round. Under the packed layout
/// every rank invalidates everyone else's copy each round; padded to a
/// page per slot (and `Distribution::Block` then homing each page on
/// its writer), all the traffic disappears.
fn counters<W: World>(w: &W, hint: AlignHint) -> apps::BenchResult {
    let stride = hint.padded_stride(CTR_SLOT);
    let region = w.alloc_dist(w.nprocs() * stride, Distribution::Block);
    let mine = region.add((w.rank() * stride) as u32);
    w.barrier(1);
    let t0 = w.now_ns();
    let mut bar = 10u32;
    for _ in 0..CTR_ROUNDS {
        let cur = w.read_f64(mine);
        w.write_f64(mine, cur + 1.0);
        w.barrier(bar);
        bar += 1;
    }
    let total_ns = w.now_ns() - t0;
    // Checksum over every slot: layout changes must not leak into the
    // values anyone reads.
    let mut sum = 0.0;
    for r in 0..w.nprocs() {
        sum += w.read_f64(region.add((r * stride) as u32));
    }
    w.barrier(bar);
    apps::BenchResult {
        total_ns,
        phases: Default::default(),
        checksum: apps::report::checksum_f64(0, sum),
    }
}

/// Deterministic hot-lock microworkload: acquisitions are serialized
/// behind barriers (same trick as [`crate::suite::lock_ring`]), so
/// grant order — and the whole trace — is identical on every run.
fn lock_hot<W: World>(w: &W) -> apps::BenchResult {
    let cell = w.alloc_dist(64, Distribution::OnNode(0));
    w.barrier(1);
    let t0 = w.now_ns();
    let hot = HOT_RANK % w.nprocs();
    let mut bar = 10u32;
    let turn = |me: bool, bar: &mut u32| {
        if me {
            w.lock(HOT_LOCK);
            let cur = w.read_f64(cell);
            w.write_f64(cell, cur + 1.0);
            w.unlock(HOT_LOCK);
        }
        w.barrier(*bar);
        *bar += 1;
    };
    for _round in 0..HOT_ROUNDS {
        for t in 0..w.nprocs() {
            turn(w.rank() == t, &mut bar);
        }
        for _ in 0..HOT_EXTRA {
            turn(w.rank() == hot, &mut bar);
        }
    }
    let total_ns = w.now_ns() - t0;
    let value = w.read_f64(cell);
    w.barrier(bar);
    apps::BenchResult {
        total_ns,
        phases: Default::default(),
        checksum: apps::report::checksum_f64(0, value),
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Kernel {
    SorUnopt,
    Lu,
    Counters,
    LockHot,
}

impl Kernel {
    fn name(self) -> &'static str {
        match self {
            Kernel::SorUnopt => "sor_unopt",
            Kernel::Lu => "lu",
            Kernel::Counters => "counters",
            Kernel::LockHot => "lock_hot",
        }
    }

    fn run(self, w: &HamsterWorld, hint: AlignHint) -> apps::BenchResult {
        match self {
            Kernel::SorUnopt => apps::sor::sor_hinted(w, SOR_UNOPT_N, SOR_ITERS, false, hint),
            Kernel::Lu => apps::lu::lu(w, LU_N),
            Kernel::Counters => counters(w, hint),
            Kernel::LockHot => lock_hot(w),
        }
    }
}

struct RunOut {
    report: analyzer::Report,
    checksum: u64,
}

/// One traced run under the given configuration knobs. The ethernet
/// pin keeps every diff burst below bus-window saturation so the
/// virtual schedule — and with it this artifact — is byte-reproducible
/// (same rationale as `analysis`; see OBSERVABILITY.md).
fn traced(nodes: usize, kernel: Kernel, hint: AlignHint, placement: &Placement, sync: SyncTopology) -> RunOut {
    let session = sim::TraceSession::begin();
    let mut cfg = ClusterConfig::new(nodes, PlatformKind::SwDsm);
    cfg.cost = sim::CostModel::pinned_ethernet();
    cfg.placement = placement.clone();
    cfg.sync = sync;
    let (_, results) = run_hamster(&cfg, move |w| kernel.run(w, hint));
    let events = session.finish();
    let checksum = results[0].checksum;
    assert!(
        results.iter().all(|r| r.checksum == checksum),
        "{}: nodes disagree on the checksum",
        kernel.name()
    );
    RunOut { report: analyzer::analyze(&events), checksum }
}

fn action_json(a: &Action) -> Value {
    match *a {
        Action::RehomePage { page, to } => Value::obj([
            ("action", Value::str("rehome")),
            ("region", Value::int(page.region)),
            ("page", Value::int(page.index)),
            ("to", Value::int(to)),
        ]),
        Action::PadRegion { region, pad_to } => Value::obj([
            ("action", Value::str("pad")),
            ("region", Value::int(region)),
            ("pad_to", Value::int(pad_to)),
        ]),
        Action::PlaceLock { lock, to } => Value::obj([
            ("action", Value::str("place_lock")),
            ("lock", Value::int(lock)),
            ("to", Value::int(to)),
        ]),
        Action::SwitchBarrier { fanout } => Value::obj([
            ("action", Value::str("switch_barrier")),
            ("fanout", Value::int(fanout)),
        ]),
    }
}

struct Outcome {
    row: Value,
    before: String,
    after: String,
    improvement_permille: i64,
}

fn tune_workload(nodes: usize, kernel: Kernel, failures: &mut Vec<String>) -> Outcome {
    let name = kernel.name();
    let base_sync = SyncTopology::centralized();
    let base = traced(nodes, kernel, AlignHint::None, &Placement::default(), base_sync);
    let before = base.report.to_value();
    if let Err(e) = analyzer::validate(&before) {
        failures.push(format!("{name}: baseline schema: {e}"));
    }
    let plan = advise(&base.report);

    // Split the plan into its configuration carriers.
    let mut hint = AlignHint::None;
    let mut placement = Placement::default();
    let mut sync = base_sync;
    let mut topology_changed = false;
    for a in &plan.actions {
        match *a {
            Action::PadRegion { pad_to, .. } => hint = AlignHint::PadTo(pad_to),
            Action::RehomePage { page, to } => placement.homes.push((page, to)),
            Action::PlaceLock { lock, to } => placement.locks.push((lock, to)),
            Action::SwitchBarrier { fanout } => {
                sync.barrier = BarrierTopology::Tree { fanout: fanout as usize };
                topology_changed = true;
            }
        }
    }

    // Solo runs per category present, for impact attribution.
    let mut attribution = Vec::new();
    let mut checksum_ok = true;
    let mut solo = |label: &str, h: AlignHint, p: &Placement, s: SyncTopology| {
        let r = traced(nodes, kernel, h, p, s);
        if r.checksum != base.checksum {
            checksum_ok = false;
        }
        let saved = base.report.makespan_ns as i64 - r.report.makespan_ns as i64;
        attribution.push(Value::obj([
            ("category", Value::str(label)),
            ("makespan_ns", Value::int(r.report.makespan_ns)),
            ("saved_ns", Value::int(saved)),
        ]));
    };
    if hint != AlignHint::None {
        solo("layout", hint, &Placement::default(), base_sync);
    }
    if !placement.is_empty() {
        solo("placement", AlignHint::None, &placement, base_sync);
    }
    if topology_changed {
        solo("topology", AlignHint::None, &Placement::default(), sync);
    }

    // The full tuned run; an empty plan keeps the baseline as-is.
    let tuned = if plan.is_empty() {
        None
    } else {
        Some(traced(nodes, kernel, hint, &placement, sync))
    };
    let (after, tuned_makespan, tuned_checksum) = match &tuned {
        Some(t) => (t.report.to_value(), t.report.makespan_ns, t.checksum),
        None => (before.clone(), base.report.makespan_ns, base.checksum),
    };
    if tuned_checksum != base.checksum {
        checksum_ok = false;
    }
    if !checksum_ok {
        failures.push(format!("{name}: tuned run changed the workload checksum"));
    }

    let improvement_permille = (base.report.makespan_ns as i64 - tuned_makespan as i64) * 1000
        / base.report.makespan_ns.max(1) as i64;
    let improved = tuned_makespan < base.report.makespan_ns;

    let row = Value::obj([
        ("name", Value::str(name)),
        ("baseline_makespan_ns", Value::int(base.report.makespan_ns)),
        ("checksum", Value::str(format!("{:016x}", base.checksum))),
        ("plan", Value::Arr(plan.actions.iter().map(action_json).collect())),
        (
            "applied",
            Value::int(plan.actions.iter().filter(|a| a.is_placement()).count()),
        ),
        (
            "deferred",
            Value::int(plan.actions.iter().filter(|a| !a.is_placement()).count()),
        ),
        ("rejected", Value::int(0u64)),
        ("attribution", Value::Arr(attribution)),
        ("tuned_makespan_ns", Value::int(tuned_makespan)),
        ("improvement_permille", Value::int(improvement_permille)),
        ("improved", Value::Bool(improved)),
    ]);
    Outcome { row, before: before.pretty(), after: after.pretty(), improvement_permille }
}

/// The tuning loop over the four workloads, and its gates.
pub fn tune(args: &Args) -> Built {
    let kernels = [Kernel::SorUnopt, Kernel::Lu, Kernel::Counters, Kernel::LockHot];
    let mut failures = Vec::new();
    let mut rows = Vec::new();
    let mut files = Vec::new();
    let mut best = i64::MIN;
    for k in kernels {
        let out = tune_workload(args.nodes, k, &mut failures);
        best = best.max(out.improvement_permille);
        rows.push(out.row);
        files.push((format!("TUNE_{}_before.json", k.name()), out.before));
        files.push((format!("TUNE_{}_after.json", k.name()), out.after));
    }
    if best < 150 {
        failures.push(format!(
            "no workload improved by >= 15% (best {:+.1}%)",
            best as f64 / 10.0
        ));
    }
    if !failures.is_empty() {
        return Err(failures);
    }
    let table = Table::new(
        format!("Closed tuning loop on the software DSM ({} nodes)", args.nodes),
        &["name", "baseline_makespan_ns", "tuned_makespan_ns", "applied", "deferred", "improvement_permille"],
        &rows,
    );
    let doc = Value::obj([
        ("schema", Value::str("hamster-tune-v1")),
        ("nodes", Value::int(args.nodes)),
        ("workloads", Value::Arr(rows)),
        ("best_improvement_permille", Value::int(best)),
    ]);
    let mut report = Report::new(doc, vec![table]);
    report.files = files;
    Ok(report.note(format!("tuning loop verified on {} workloads", kernels.len())))
}
