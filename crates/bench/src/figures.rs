//! The table-shaped artifacts: the paper's Tables 1–2 and Figures 2–4,
//! the primitive-cost table, and the studies beyond the paper
//! (`ablation`, `sweep`, `extra`). Each computes its rows once, as the
//! document's JSON objects; the CSV and the pretty table are [`Table`]
//! views of those.

use crate::loc::{count_model, crate_lines, ModelCount};
use crate::report::{Report, Table};
use crate::suite::{platform_name, suite, Sizes, System, PINNED_ETHERNET_BPS, PLATFORMS, ROWS};
use crate::{Args, Built};
use apps::world::{run_hamster, run_native_sync, HamsterWorld, NativeWorld, World};
use apps::BenchResult;
use cluster::{BarrierTopology, SyncTopology};
use hamster_core::{Access, AllocSpec, ClusterConfig, Distribution, PlatformKind, Runtime};
use sim::json::Value;
use swdsm::DsmConfig;

const BENCHES: [(&str, &str); 5] = [
    ("Matrix Multiplication", "1024x1024 matrix"),
    ("Computation of pi", "10M intervals"),
    ("Successive Over Relaxation (SOR)", "1024x1024 matrix"),
    ("LU Decomposition", "1024x1024 matrix"),
    ("WATER (Molecular Simulation)", "288 / 343 molecules"),
];

/// Table 1: benchmarks and their working sets.
pub fn table1(_: &Args) -> Built {
    let row = |(name, ws): &(&str, &str)| Value::obj([("benchmark", Value::str(*name)), ("working_set", Value::str(*ws))]);
    let rows: Vec<Value> = BENCHES.iter().map(row).collect();
    let table = Table::new("Table 1. Benchmarks and Their Working Sets", &[], &rows);
    let doc = Value::obj([
        ("table", Value::str("table1")),
        ("title", Value::str("Benchmarks and their working sets")),
        ("rows", Value::Arr(rows)),
    ]);
    Ok(Report::new(doc, vec![table]).note("(paper sizes; pass --quick to the figures for reduced sets)"))
}

/// The nine model adapters of the paper's Table 2, then the shared
/// wait-queue support module and the OpenMP-style extension, counted
/// with the paper's comment-stripping methodology ([`crate::loc`]).
pub fn model_counts() -> Vec<ModelCount> {
    vec![
        count_model("SPMD model", include_str!("../../models/src/spmd.rs")),
        count_model("SMP/SPMD model", include_str!("../../models/src/smp_spmd.rs")),
        count_model("ANL macros", include_str!("../../models/src/anl.rs")),
        count_model("TreadMarks API", include_str!("../../models/src/treadmarks.rs")),
        count_model("HLRC API", include_str!("../../models/src/hlrc.rs")),
        count_model("JiaJia API (subset)", include_str!("../../models/src/jiajia.rs")),
        count_model("POSIX threads", include_str!("../../models/src/pthreads.rs")),
        count_model("WIN32 threads", include_str!("../../models/src/win32.rs")),
        count_model("Cray put/get (shmem) API", include_str!("../../models/src/shmem.rs")),
        count_model("(support: wait queues)", include_str!("../../models/src/waitq.rs")),
        count_model("(extension: OpenMP-style)", include_str!("../../models/src/omp.rs")),
    ]
}

/// Table 2: implementation complexity of the programming models over
/// this repository's actual adapter sources — followed by the per-crate
/// line ledger, the same count over every crate of the workspace (test
/// modules apart), so the size of the codebase is on record per PR.
pub fn table2(_: &Args) -> Built {
    let counts = model_counts();
    let model_row = |m: &ModelCount| {
        Value::obj([
            ("model", Value::str(m.name)),
            ("lines", Value::int(m.lines)),
            ("api_calls", Value::int(m.api_calls)),
            ("lines_per_call", Value::num(m.lines_per_call())),
        ])
    };
    let mut shown: Vec<Value> = counts.iter().map(model_row).collect();
    let rows = shown[..9].to_vec();
    let lines: usize = counts[..9].iter().map(|m| m.lines).sum();
    let calls: usize = counts[..9].iter().map(|m| m.api_calls).sum();
    let average = [
        ("lines", Value::int(lines / 9)),
        ("api_calls", Value::int(calls / 9)),
        ("lines_per_call", Value::num(lines as f64 / calls as f64)),
    ];
    // Shown under the nine models, kept apart from them in the document.
    shown.insert(9, Value::obj([("model", Value::str("average"))].into_iter().chain(average.clone())));

    // The checkout this binary was built from; no rows if it has moved.
    let crates = crate_lines(std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")));
    let crate_row = |name: &str, code: usize, tests: usize| {
        Value::obj([("crate", Value::str(name)), ("code", Value::int(code)), ("tests", Value::int(tests))])
    };
    let mut ledger: Vec<Value> = crates.iter().map(|c| crate_row(&c.name, c.code, c.tests)).collect();
    let crate_rows = ledger.clone();
    let total = |f: fn(&crate::loc::CrateLines) -> usize| crates.iter().map(f).sum();
    ledger.push(crate_row("total", total(|c| c.code), total(|c| c.tests)));

    let tables = vec![
        Table::new("Table 2. Implementation Complexity of Programming Models Using HAMSTER", &[], &shown),
        Table::new("Line ledger (same counting; `#[cfg(test)]` modules apart)", &[], &ledger),
    ];
    let doc = Value::obj([
        ("table", Value::str("table2")),
        ("title", Value::str("Implementation complexity of programming models using HAMSTER")),
        ("rows", Value::Arr(rows)),
        ("average", Value::obj(average)),
        ("support", shown[10].clone()),
        ("extension", shown[11].clone()),
        ("crate_lines", Value::Arr(crate_rows)),
    ]);
    Ok(Report::new(doc, tables).note(
        "Paper reports 7.3–25.1 lines/call (average < 25); the thread models are\n\
         the thickest adapters there as here, due to command forwarding (the\n\
         wait-queue support module is shared by the two of them).",
    ))
}

/// Primitive-operation costs in virtual µs, measured on node 1.
fn measure(platform: PlatformKind, nodes: usize) -> Vec<(&'static str, f64)> {
    let rt = Runtime::new(ClusterConfig::new(nodes, platform));
    let (_, rows) = rt.run(|ham| {
        let mut rows = Vec::new();
        let mut time = |name: &'static str, reps: u64, f: &mut dyn FnMut()| {
            let t0 = ham.wtime_ns();
            for _ in 0..reps {
                f();
            }
            rows.push((name, (ham.wtime_ns() - t0) as f64 / reps as f64 / 1e3));
        };

        let spec = AllocSpec { dist: Distribution::OnNode(0), ..Default::default() };
        let r = ham.mem().alloc(16 * 4096, spec).unwrap();
        ham.sync().barrier(1);

        if ham.task().rank() == 1 {
            // Cold read miss: touch a fresh page each repetition.
            let mut page = 0u32;
            time("remote read miss (8 B)", 8, &mut || {
                let _ = ham.mem().read_u64(r.addr().add(page * 4096));
                page += 1;
            });
            // Warm read: same location again.
            time("warm re-read (8 B)", 16, &mut || {
                let _ = ham.mem().read_u64(r.addr());
            });
            // Remote write (miss + twin on the software DSM, posted
            // write on the hybrid, plain store on the SMP).
            let mut wpage = 8u32;
            time("remote write miss (8 B)", 8, &mut || {
                ham.mem().write_u64(r.addr().add(wpage * 4096), 1);
                wpage += 1;
            });
        }
        ham.sync().barrier(2);

        // Uncontended lock round trip (manager on node 0).
        time("lock+unlock (uncontended)", 8, &mut || {
            if ham.task().rank() == 1 {
                ham.sync().lock(4 + ham.task().rank() as u32 * 16);
                ham.sync().unlock(4 + ham.task().rank() as u32 * 16);
            }
        });
        ham.sync().barrier(3);

        // Full barrier.
        time("barrier (all nodes)", 8, &mut || {
            ham.sync().barrier(5);
        });

        // Bulk transfer: one remote page.
        if ham.task().rank() == 1 {
            let mut buf = vec![0u8; 4096];
            let mut bpage = 0u32;
            time("bulk read 4 KiB (warm)", 8, &mut || {
                ham.mem().read_bytes(r.addr().add(bpage * 4096), &mut buf);
                bpage = (bpage + 1) % 16;
            });
        }
        ham.sync().barrier(6);
        rows
    });
    rows.into_iter().nth(1).unwrap()
}

/// Primitive-operation costs per platform — the classic "basic
/// operation latencies" table every DSM paper of the era includes
/// (TreadMarks Table 2, JiaJia §4, …).
pub fn primitives(args: &Args) -> Built {
    assert!(args.nodes >= 2, "primitives measures on node 1: it needs at least 2 nodes");
    let all: Vec<Vec<(&str, f64)>> = PLATFORMS.iter().map(|&p| measure(p, args.nodes)).collect();
    let row = |(i, (name, smp_us)): (usize, &(&str, f64))| {
        Value::obj([
            ("operation", Value::str(*name)),
            ("smp_us", Value::num(*smp_us)),
            ("hybrid_us", Value::num(all[1][i].1)),
            ("swdsm_us", Value::num(all[2][i].1)),
        ])
    };
    let rows: Vec<Value> = all[0].iter().enumerate().map(row).collect();
    let title = format!("Primitive operation costs (virtual µs, measured on node 1 of {})", args.nodes);
    let table = Table::new(title, &[], &rows);
    let doc = Value::obj([
        ("table", Value::str("primitives")),
        ("title", Value::str("Primitive operation costs per platform (virtual us)")),
        ("nodes", Value::int(args.nodes)),
        ("rows", Value::Arr(rows)),
    ]);
    Ok(Report::new(doc, vec![table]).note(
        "(read miss: SMP = cached load; hybrid = SAN transaction; software\n \
         DSM = page fault + whole-page fetch over Ethernet)",
    ))
}

/// A derived column: a function of one row's seconds in `systems` order.
type Derive = fn(&[f64]) -> f64;

/// One of the paper's comparison figures: the benchmark suite on each
/// of `systems` — the same binaries, only the configuration changes —
/// and the columns derived from their times.
struct Figure {
    name: &'static str,
    title: &'static str,
    /// Row key of each system's virtual seconds.
    systems: &'static [(&'static str, System)],
    derived: &'static [(&'static str, Derive)],
    /// Run on the pinned Ethernet so the report can be committed to
    /// `bench-baselines/` and gated. Gating is banded, not exact: PI
    /// and WATER contend on locks, and contended grant order follows
    /// real message arrival (OBSERVABILITY.md, "Contended locks"), so
    /// those rows' virtual times legitimately jitter a few percent. A
    /// column riding the SCI link is unaffected by the pin.
    pinned: bool,
    /// Best-of-N smoothing at full size, recorded in the document.
    repeat: Option<usize>,
    notes: &'static str,
}

const HAM_SW: System = System::Hamster(PlatformKind::SwDsm);
const HAM_HYBRID: System = System::Hamster(PlatformKind::HybridDsm);

/// Native = the benchmarks calling the `swdsm` engine directly.
/// HAMSTER = identical benchmark code through the JiaJia adapter on
/// HAMSTER's software-DSM platform (service dispatch + monitoring on
/// every call, unified messaging layer on every message).
/// Positive = slowdown under HAMSTER; negative = speedup.
const FIG2: Figure = Figure {
    name: "fig2",
    title: "Overhead of execution with HAMSTER vs native SW-DSM",
    systems: &[("native_s", System::Native), ("hamster_s", HAM_SW)],
    derived: &[("overhead_pct", |s| (s[1] - s[0]) / s[0] * 100.0)],
    pinned: true,
    repeat: Some(3),
    notes: "Paper: overheads within -4.5%..+6.5% (single digits, some speedups).",
};

/// Positive = hybrid faster.
const FIG3: Figure = Figure {
    name: "fig3",
    title: "Hybrid-DSM performance with SW-DSM as baseline",
    systems: &[("swdsm_s", HAM_SW), ("hybrid_s", HAM_HYBRID)],
    derived: &[("advantage_pct", |s| (s[0] - s[1]) / s[0] * 100.0)],
    pinned: true,
    repeat: None,
    notes: "Paper: hybrid ahead overall (up to ~55%), biggest for unoptimized SOR\n\
            and LU (write-only init); SOR-opt shows only a small difference.",
};

/// The SMP configuration runs the two "nodes" as the two CPUs of one
/// multiprocessor (shared memory bus); the cluster configurations run
/// two single-CPU nodes. Percentages are execution time normalized to
/// the hardware DSM; above 100 = slower than the SMP.
const FIG4: Figure = Figure {
    name: "fig4",
    title: "Hardware- vs Hybrid- vs Software-DSM, normalized to hardware",
    systems: &[("hw_s", System::Hamster(PlatformKind::Smp)), ("hybrid_s", HAM_HYBRID), ("sw_s", HAM_SW)],
    derived: &[("hybrid_pct", |s| s[1] / s[0] * 100.0), ("sw_pct", |s| s[2] / s[0] * 100.0)],
    pinned: false,
    repeat: None,
    notes: "Paper: the SMP wins in most cases; the memory-bound MatMult is the\n\
            exception — two cluster nodes bring two memory buses.",
};

/// The figure's rows from each system's virtual seconds per benchmark.
fn figure_rows(fig: &Figure, times: &[Vec<f64>]) -> Vec<Value> {
    let row = |(i, name): (usize, &&str)| {
        let secs: Vec<f64> = times.iter().map(|t| t[i]).collect();
        let measured = fig.systems.iter().zip(&secs).map(|((key, _), s)| (*key, Value::num(*s)));
        let derived = fig.derived.iter().map(|(key, f)| (*key, Value::num(f(&secs))));
        Value::obj([("benchmark", Value::str(*name))].into_iter().chain(measured).chain(derived))
    };
    ROWS.iter().enumerate().map(row).collect()
}

fn figure(fig: &Figure, args: &Args) -> Built {
    let sizes = Sizes::choose(args.quick);
    let repeat = if args.quick { 1 } else { fig.repeat.unwrap_or(1) };
    let cost = if fig.pinned { sim::CostModel::pinned_ethernet() } else { sim::CostModel::default() };
    let run = |(key, system): &(&str, System)| {
        eprintln!("running the {key} suite ({} nodes, best of {repeat})...", args.nodes);
        suite(*system, args.nodes, sizes, cost, repeat)
    };
    let rows = figure_rows(fig, &fig.systems.iter().map(run).collect::<Vec<_>>());
    let table = Table::new(format!("{}: {} ({} nodes)", fig.name, fig.title, args.nodes), &[], &rows);
    let mut doc = study_doc(fig.name, fig.title, args);
    if fig.repeat.is_some() {
        doc.push(("repeat", Value::int(repeat)));
    }
    if fig.pinned {
        doc.push(("ethernet_bytes_per_sec", Value::int(PINNED_ETHERNET_BPS)));
        doc.push(("tolerance_pct", Value::num(10.0)));
    }
    doc.push(("rows", Value::Arr(rows)));
    Ok(Report::new(Value::obj(doc), vec![table]).note(fig.notes))
}

/// Figure 2: HAMSTER vs native execution on the software DSM.
pub fn fig2(args: &Args) -> Built {
    figure(&FIG2, args)
}

/// Figure 3: hybrid DSM with the software DSM as baseline.
pub fn fig3(args: &Args) -> Built {
    figure(&FIG3, args)
}

/// Figure 4: hardware vs hybrid vs software DSM on two nodes.
pub fn fig4(args: &Args) -> Built {
    figure(&FIG4, args)
}

/// Virtual seconds of `kernel` on HAMSTER under `cfg`.
fn hamster_secs(cfg: &ClusterConfig, kernel: impl Fn(&HamsterWorld) -> BenchResult + Send + Sync) -> f64 {
    BenchResult::merge(&run_hamster(cfg, kernel).1).secs()
}

/// Virtual seconds of `kernel` on the native software DSM.
fn native<K: Fn(&NativeWorld) -> BenchResult + Send + Sync>(nodes: usize, dsm: DsmConfig, sync: SyncTopology, kernel: K) -> f64 {
    BenchResult::merge(&run_native_sync(nodes, dsm, sync, kernel).1).secs()
}

/// The document head the figures and the studies beyond them share.
fn study_doc(name: &str, title: &str, args: &Args) -> Vec<(&'static str, Value)> {
    vec![
        ("figure", Value::str(name)),
        ("title", Value::str(title)),
        ("nodes", Value::int(args.nodes)),
        ("quick", Value::Bool(args.quick)),
    ]
}

/// Extra benchmark beyond Table 1: the NAS-style integer sort across
/// all platforms (the paper's §5.4 ongoing work, "experiments with more
/// and larger codes").
pub fn extra(args: &Args) -> Built {
    let keys = if args.quick { 1 << 14 } else { 1 << 20 };
    let secs = PLATFORMS.map(|p| hamster_secs(&ClusterConfig::new(args.nodes, p), |w| apps::is::is(w, keys)));
    let row = |(p, t): (&PlatformKind, &f64)| {
        Value::obj([
            ("platform", Value::str(platform_name(*p))),
            ("is_s", Value::num(*t)),
            ("pct_of_smp", Value::num(t / secs[0] * 100.0)),
        ])
    };
    let rows: Vec<Value> = PLATFORMS.iter().zip(&secs).map(row).collect();
    let table = Table::new(format!("IS (integer sort), {keys} keys, {} nodes", args.nodes), &[], &rows);
    let mut doc = study_doc("extra", "NAS-style integer sort across platforms", args);
    doc.extend([("keys", Value::int(keys)), ("rows", Value::Arr(rows))]);
    Ok(Report::new(Value::obj(doc), vec![table]).note(
        "IS is all-to-all-heavy: the scatter phase ships every key across\n\
         the machine once — bandwidth-bound on every platform.",
    ))
}

/// Parameter sweeps beyond the paper's fixed testbed — the "different
/// and larger system setups" its §5.4 leaves as ongoing work.
///
/// 1. **Node scaling**: SOR (optimized) and LU on 1–8 nodes per
///    platform: where does each platform stop scaling?
/// 2. **Interconnect sensitivity**: sweep the software DSM's network
///    latency and bandwidth from Fast-Ethernet toward SAN-class values
///    and watch the software/hybrid gap close — quantifying how much of
///    Figure 3 is protocol and how much is wire.
pub fn sweep(args: &Args) -> Built {
    let sizes = Sizes::choose(args.quick);
    let lu = |cfg: &ClusterConfig| hamster_secs(cfg, |w| apps::lu::lu(w, sizes.lu_n));
    let sor = |cfg: &ClusterConfig| hamster_secs(cfg, |w| apps::sor::sor(w, sizes.sor_n, sizes.sor_iters, true));

    let scaling_row = |nodes: usize| {
        let cfgs = PLATFORMS.map(|p| ClusterConfig::new(nodes, p));
        let keys = ["sor_smp_s", "sor_hybrid_s", "sor_swdsm_s", "lu_smp_s", "lu_hybrid_s", "lu_swdsm_s"];
        let secs = cfgs.iter().map(&sor).chain(cfgs.iter().map(&lu)).map(Value::num);
        Value::obj([("nodes", Value::int(nodes))].into_iter().chain(keys.into_iter().zip(secs)))
    };
    let scaling: Vec<Value> = [1usize, 2, 4, 8].into_iter().map(scaling_row).collect();

    let hybrid_ref = lu(&ClusterConfig::new(args.nodes, PlatformKind::HybridDsm));
    let wire_row = |(name, latency_us, mbps): (&str, u64, u64)| {
        let mut cfg = ClusterConfig::new(args.nodes, PlatformKind::SwDsm);
        cfg.cost.ethernet.latency_ns = latency_us * 1_000;
        cfg.cost.ethernet.bytes_per_sec = mbps * 1_000_000;
        let t = lu(&cfg);
        Value::obj([
            ("network", Value::str(name)),
            ("latency_us", Value::int(latency_us)),
            ("mbytes_per_sec", Value::int(mbps)),
            ("swdsm_lu_s", Value::num(t)),
            ("vs_hybrid_pct", Value::num((t - hybrid_ref) / hybrid_ref * 100.0)),
        ])
    };
    let wire: Vec<Value> = [
        ("Fast Ethernet", 60u64, 12u64),
        ("Fast Ethernet, tuned", 30, 12),
        ("Gigabit-class", 30, 90),
        ("early SAN", 10, 90),
        ("SCI-class wire", 5, 80),
    ]
    .into_iter()
    .map(wire_row)
    .collect();

    let lu_n = sizes.lu_n;
    let tables = vec![
        Table::new(format!("Sweep 1: node scaling (SOR opt {}², LU {lu_n}²)", sizes.sor_n), &[], &scaling),
        Table::new(
            format!("Sweep 2: software-DSM interconnect sensitivity (LU {lu_n}², hybrid DSM: {hybrid_ref:.4} s)"),
            &[],
            &wire,
        ),
    ];
    let mut doc = study_doc("sweep", "Node scaling and interconnect sensitivity", args);
    doc.extend([
        ("node_scaling", Value::Arr(scaling)),
        ("hybrid_lu_s", Value::num(hybrid_ref)),
        ("interconnect", Value::Arr(wire)),
    ]);
    Ok(Report::new(Value::obj(doc), tables).note(
        "(the software DSM's barrier/diff costs cap its scaling first; page-protocol\n \
         overheads remain even on SAN-class wire — the residual gap is what the\n \
         hybrid's hardware data path removes)",
    ))
}

/// Ablation studies for the design choices called out in DESIGN.md:
///
/// 1. Diff-based vs whole-page write-back (software DSM).
/// 2. Write notices on lock grants (scope consistency) vs conservative
///    invalidate-everything acquires.
/// 3. HAMSTER's unified messaging layer on vs off.
/// 4. Home placement: block vs cyclic pages for the SOR grid.
/// 5. Adaptive home migration for misplaced pages (JiaJia's
///    optimization, off by default in the calibrated runs).
/// 6. Barrier algorithm: centralized manager vs tree.
pub fn ablation(args: &Args) -> Built {
    let sizes = Sizes::choose(args.quick);
    let nodes = args.nodes;
    let central = SyncTopology::centralized();
    let sor = |dsm: DsmConfig, opt: bool| native(nodes, dsm, central, |w| apps::sor::sor(w, sizes.sor_n, sizes.sor_iters, opt));
    let lu = |dsm: DsmConfig| native(nodes, dsm, central, |w| apps::lu::lu(w, sizes.lu_n));
    let water = |dsm: DsmConfig| native(nodes, dsm, central, |w| apps::water::water(w, sizes.water_a, sizes.water_steps));

    let mut rows = Vec::new();
    let mut row = |study: &str, workload: &str, base: (&str, f64), variant: (&str, f64)| {
        rows.push(Value::obj([
            ("study", Value::str(study)),
            ("workload", Value::str(workload)),
            ("baseline", Value::str(base.0)),
            ("baseline_s", Value::num(base.1)),
            ("variant", Value::str(variant.0)),
            ("variant_s", Value::num(variant.1)),
            ("change_pct", Value::num((variant.1 - base.1) / base.1 * 100.0)),
        ]));
    };

    let base = DsmConfig::default();
    let pages = DsmConfig { whole_page_writeback: true, ..base };
    let t_cyclic = sor(base, false);
    row("release write-back", "SOR (unopt)", ("diffs", t_cyclic), ("whole pages", sor(pages, false)));
    row("release write-back", "LU", ("diffs", lu(base)), ("whole pages", lu(pages)));

    let conservative = DsmConfig { notices_on_locks: false, ..base };
    let water_name = format!("WATER {}", sizes.water_a);
    row("acquire consistency", &water_name, ("scope notices", water(base)), ("invalidate-all", water(conservative)));

    let mut separate = ClusterConfig::new(nodes, PlatformKind::SwDsm);
    separate.unified_messaging = false;
    let mut unified = separate.clone();
    unified.unified_messaging = true;
    let ham_lu = |cfg: &ClusterConfig| hamster_secs(cfg, |w| apps::lu::lu(w, sizes.lu_n));
    row("HAMSTER messaging", "LU", ("separate stacks", ham_lu(&separate)), ("unified layer", ham_lu(&unified)));

    row("home placement", "SOR", ("partition-aligned", sor(base, true)), ("round-robin", t_cyclic));

    let migrating = DsmConfig { home_migration: true, ..base };
    row("home migration", "SOR (unopt)", ("static homes", t_cyclic), ("migrating", sor(migrating, false)));

    // Barrier algorithm at scale: a barrier-dominated kernel on 8 nodes.
    let barriers = |sync: SyncTopology| {
        native(8, base, sync, |w| {
            let a = w.alloc_dist(8 * 4096, memwire::Distribution::Cyclic);
            w.barrier(1);
            let t0 = w.now_ns();
            for round in 0..40u64 {
                w.write_u64(a.add(w.rank() as u32 * 4096), round);
                w.barrier(2);
            }
            BenchResult { total_ns: w.now_ns() - t0, phases: Default::default(), checksum: 0 }
        })
    };
    let tree = SyncTopology { barrier: BarrierTopology::Tree { fanout: 4 }, ..central };
    row("barrier algorithm", "40 barriers, 8 nodes", ("central", barriers(central)), ("tree:4", barriers(tree)));

    let table = Table::new(format!("Ablation studies (software-DSM platform, {nodes} nodes)"), &[], &rows);
    let mut doc = study_doc("ablation", "Protocol design-choice ablations on the software DSM", args);
    doc.push(("rows", Value::Arr(rows)));
    Ok(Report::new(Value::obj(doc), vec![table]))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One set of rows renders as JSON, CSV and pretty text whose
    /// numbers agree: the golden for Figure 2's header and first row.
    #[test]
    fn one_table_renders_json_csv_and_pretty() {
        let secs = |first: f64| std::iter::once(first).chain([1.0; 9]).collect::<Vec<f64>>();
        let rows = figure_rows(&FIG2, &[secs(2.0), secs(2.025)]);
        assert_eq!(
            rows[0].pretty(),
            "{\n  \"benchmark\": \"MatMult\",\n  \"native_s\": 2,\n  \"hamster_s\": 2.025,\n  \"overhead_pct\": 1.2499999999999956\n}\n"
        );
        let table = Table::new("fig2", &[], &rows);
        let csv = table.csv();
        assert!(csv.starts_with("benchmark,native_s,hamster_s,overhead_pct\nMatMult,2,2.025,1.2499999999999956\n"), "{csv}");
        let pretty = table.pretty();
        let lines: Vec<&str> = pretty.lines().collect();
        assert_eq!(lines[0], "fig2");
        assert_eq!(lines[2], "benchmark  native_s  hamster_s  overhead_pct");
        assert_eq!(lines[3], "-".repeat(lines[2].len()));
        assert_eq!(lines[4], "MatMult      2.0000     2.0250        1.2500");
        assert_eq!(lines[5], "PI           1.0000     1.0000        0.0000");
        assert_eq!(lines.len(), 4 + ROWS.len() + 1);
    }
}
