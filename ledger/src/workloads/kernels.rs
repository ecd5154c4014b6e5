//! `kernels-swdsm` and `kernels-hwpath`: the paper's kernels, one binary
//! moved across platforms by configuration alone (Figs. 2–4).
//!
//! Both run the same five kernels through the JiaJia adapter on HAMSTER.
//! On the software DSM every shared access can fault, twin, diff and
//! send notices; on SMP and the hybrid DSM the same application code
//! runs with no page protocol at all, which is what makes the second
//! workload the bypass for any `swdsm` or `memwire` change.

use super::{pinned_cost, RepOut, SplitMix, Workload};
use crate::json::Json;
use crate::span::Lane;
use crate::traced::Traced;
use apps::{BenchResult, HamsterWorld, NativeWorld, World};
use hamster_core::{ClusterConfig, Hamster, PlatformKind, Runtime};
use memwire::Distribution;
use std::collections::BTreeMap;
use std::time::Instant;

/// Nodes of every kernel run, as on the paper's testbed.
pub const NODES: usize = 4;

/// Turns of the lock ring; one barrier per turn.
const RING_TURNS: usize = 256;

/// One kernel at one size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kernel {
    Sor {
        n: usize,
        iters: usize,
        optimized: bool,
    },
    Lu {
        n: usize,
    },
    MatMult {
        n: usize,
    },
    /// The rank-ordered lock ring, written here against [`World`].
    Ring {
        turns: usize,
    },
}

impl Kernel {
    /// The span and report name.
    pub fn name(&self) -> &'static str {
        match self {
            Kernel::Sor { optimized: false, .. } => "sor",
            Kernel::Sor { optimized: true, .. } => "sor_opt",
            Kernel::Lu { .. } => "lu",
            Kernel::MatMult { .. } => "matmult",
            Kernel::Ring { .. } => "ring",
        }
    }

    /// The key of this kernel's checksum in `golden.json`. Both SOR
    /// variants compute the same grid, so they share one.
    pub fn golden_key(&self) -> String {
        match self {
            Kernel::Sor { n, iters, .. } => format!("sor/{n}x{iters}"),
            Kernel::Lu { n } => format!("lu/{n}"),
            Kernel::MatMult { n } => format!("matmult/{n}"),
            Kernel::Ring { turns } => format!("ring/{turns}"),
        }
    }

    fn run<W: World>(&self, w: &W, holds: &[u64]) -> BenchResult {
        match *self {
            Kernel::Sor { n, iters, optimized } => apps::sor::sor(w, n, iters, optimized),
            Kernel::Lu { n } => apps::lu::lu(w, n),
            Kernel::MatMult { n } => apps::matmult::matmult(w, n),
            Kernel::Ring { turns } => lock_ring(w, turns, holds),
        }
    }
}

/// Each rank in turn increments a shared counter under lock 1, holding
/// it for that turn's seed-drawn time, with a barrier after every turn.
/// The barrier makes sure the previous holder's release is processed
/// before the next request is sent, so the grant order repeats exactly
/// (a free-for-all lock is granted in real arrival order).
fn lock_ring<W: World>(w: &W, turns: usize, holds: &[u64]) -> BenchResult {
    let cell = w.alloc_dist(64, Distribution::OnNode(0));
    w.barrier(1);
    let t0 = w.now_ns();
    for (turn, &hold_ns) in holds.iter().enumerate().take(turns) {
        if w.rank() == turn % w.nprocs() {
            w.lock(1);
            let cur = w.read_u64(cell);
            w.compute(hold_ns);
            w.write_u64(cell, cur + 1);
            w.unlock(1);
        }
        w.barrier(2);
    }
    let total_ns = w.now_ns() - t0;
    let checksum = w.read_u64(cell);
    w.barrier(3);
    BenchResult { total_ns, phases: Default::default(), checksum }
}

/// The checksums every platform must reproduce, one per kernel and size
/// (the paper's portability claim). Regenerated only by `--bless`.
pub struct Golden(BTreeMap<String, u64>);

impl Golden {
    pub fn load() -> Self {
        Self::parse(include_str!("../../golden.json")).expect("golden.json is malformed")
    }

    fn parse(text: &str) -> Result<Self, String> {
        let doc = sim::json::parse(text)?;
        let map = doc.as_object().ok_or("golden.json is not an object")?;
        map.iter()
            .map(|(k, v)| {
                let hex = v.as_str().ok_or(format!("{k}: not a string"))?;
                let sum = u64::from_str_radix(hex.trim_start_matches("0x"), 16)
                    .map_err(|e| format!("{k}: {e}"))?;
                Ok((k.clone(), sum))
            })
            .collect::<Result<_, String>>()
            .map(Golden)
    }

    fn get(&self, kernel: &Kernel) -> Option<u64> {
        self.0.get(&kernel.golden_key()).copied()
    }
}

/// One platform's pass over the kernels.
struct Leg {
    name: &'static str,
    platform: PlatformKind,
    /// The per-layer metric that holds this leg's wall time, if any.
    wall_metric: Option<&'static str>,
}

/// A kernel workload: legs × kernels, set up.
pub struct Kernels {
    legs: Vec<Leg>,
    kernels: Vec<Kernel>,
    golden: Golden,
    /// Seed-drawn lock hold times of the ring, one per turn (ns).
    holds: Vec<u64>,
}

/// The ring's hold times: the one input of the kernel workloads that
/// the benchmark owns (the paper kernels are seedless by construction).
pub fn ring_holds(seed: u64) -> Vec<u64> {
    let mut rng = SplitMix(seed ^ 0x6c6f_636b_7269_6e67);
    (0..RING_TURNS).map(|_| rng.range(1_000, 5_000)).collect()
}

impl Kernels {
    /// Fig. 2/3's configuration: everything on the software DSM.
    pub fn swdsm(seed: u64) -> Self {
        Self {
            legs: vec![Leg { name: "swdsm", platform: PlatformKind::SwDsm, wall_metric: None }],
            kernels: vec![
                Kernel::Sor { n: 1024, iters: 6, optimized: false },
                Kernel::Sor { n: 1024, iters: 6, optimized: true },
                Kernel::Lu { n: 512 },
                Kernel::MatMult { n: 384 },
                Kernel::Ring { turns: RING_TURNS },
            ],
            golden: Golden::load(),
            holds: ring_holds(seed),
        }
    }

    /// The same application code with no page protocol underneath: SMP,
    /// then the hybrid DSM.
    pub fn hwpath(seed: u64) -> Self {
        Self {
            legs: vec![
                Leg {
                    name: "smp",
                    platform: PlatformKind::Smp,
                    wall_metric: Some("hamster-core.smp_wall_s"),
                },
                Leg {
                    name: "hybrid",
                    platform: PlatformKind::HybridDsm,
                    wall_metric: Some("hybriddsm.wall_s"),
                },
            ],
            kernels: vec![
                Kernel::Sor { n: 1024, iters: 32, optimized: false },
                Kernel::Sor { n: 1024, iters: 32, optimized: true },
                Kernel::Lu { n: 256 },
                Kernel::MatMult { n: 512 },
                Kernel::Ring { turns: RING_TURNS },
            ],
            golden: Golden::load(),
            holds: ring_holds(seed),
        }
    }

    /// Every distinct kernel size any workload runs, for `--bless`.
    pub fn all_kernels() -> Vec<Kernel> {
        let mut all = Self::swdsm(0).kernels;
        for k in Self::hwpath(0).kernels {
            if !all.iter().any(|a| a.golden_key() == k.golden_key()) {
                all.push(k);
            }
        }
        all
    }

    /// Host wall of the kernels run natively on the software DSM, with
    /// no HAMSTER in the path: the control leg of Fig. 2 in host time.
    pub fn native_wall_s(&self) -> f64 {
        let started = Instant::now();
        for kernel in &self.kernels {
            let fabric = cluster::FabricConfig::builder()
                .nodes(NODES)
                .link(cluster::LinkKind::Ethernet)
                .cost(pinned_cost())
                .build();
            let c = cluster::Cluster::new(fabric);
            let dsm = swdsm::SwDsm::install(&c, swdsm::DsmConfig::default());
            let (_, results) =
                c.run(|ctx| kernel.run(&NativeWorld::new(dsm.node(ctx)), &self.holds));
            BenchResult::merge(&results);
        }
        started.elapsed().as_secs_f64()
    }
}

/// The HAMSTER configuration of one leg.
fn config(platform: PlatformKind) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(NODES, platform);
    cfg.cost = pinned_cost();
    cfg
}

/// The module counters a rank reads off its HAMSTER monitor, as
/// per-layer metric names.
pub const MODULE_METRICS: [&str; 5] = [
    "hamster-core.mem_reads",
    "hamster-core.mem_writes",
    "hamster-core.bulk_bytes",
    "hamster-core.sync_barriers",
    "hamster-core.sync_locks",
];

/// This node's HAMSTER module counters, in [`MODULE_METRICS`] order. The
/// JiaJia adapter synchronizes through the consistency module.
pub fn module_counters(ham: &Hamster) -> [u64; 5] {
    let m = ham.monitor();
    [
        m.mem.get("reads"),
        m.mem.get("writes"),
        m.mem.get("bulk_bytes"),
        m.cons.get("sync_barriers") + m.sync.get("barriers"),
        m.cons.get("acquires") + m.sync.get("locks"),
    ]
}

/// What runs on every rank. A trait, not a closure, because the body is
/// generic over the [`World`] it is given: the adapter itself, or the
/// adapter behind [`Traced`].
pub trait RankBody: Sync {
    type Out: Send;
    fn run<W: World>(&self, w: &W, ham: &Hamster) -> Self::Out;
}

/// What one run on HAMSTER returns besides the ranks' results.
pub struct RunOut<T> {
    pub report: cluster::RunReport,
    pub ranks: Vec<T>,
    /// The platform's own counters, summed over nodes.
    pub platform: BTreeMap<&'static str, u64>,
}

/// Run `body` once per node on HAMSTER configured by `cfg`, as three
/// spans under `parent` (bring-up, run, teardown: users pay all three
/// per run) with each rank under its own `rank[r]` span.
pub fn run_on_hamster<B: RankBody>(
    cfg: &ClusterConfig,
    lane: &mut Lane<'_>,
    parent: u64,
    body: &B,
) -> RunOut<B::Out> {
    let rt = lane.scope(parent, "cluster.bringup", |_, _| Runtime::new(cfg.clone()));
    let recording = lane.recording();
    let (report, ranks) = lane.scope(parent, "cluster.run", |_, run_id| {
        rt.run(|ham| {
            let world = HamsterWorld::new(ham.clone());
            let Some((rec, rep)) = recording else {
                return body.run(&world, ham);
            };
            if world.rank() == 0 {
                crate::host::sample_threads();
            }
            let rank_lane = rec.lane(1 + world.rank() as u32, rep);
            let open = rank_lane.open(run_id, &format!("rank[{}]", world.rank()));
            let traced = Traced::new(&world, rank_lane, open.id);
            let out = body.run(&traced, ham);
            let (mut rank_lane, classes) = traced.finish();
            rank_lane.close_with(open, classes);
            out
        })
    });
    let mut platform = BTreeMap::new();
    for node in 0..cfg.nodes {
        for (name, v) in rt.platform_stats(node) {
            *platform.entry(name).or_insert(0) += v;
        }
    }
    lane.scope(parent, "cluster.teardown", |_, _| drop(rt));
    RunOut { report, ranks, platform }
}

/// Add a run's fabric and platform counters to a repetition's.
pub fn count_run<T>(out: &mut RepOut, platform: PlatformKind, run: &RunOut<T>) {
    out.count_layer("interconnect", &run.report.net_stats);
    match platform {
        PlatformKind::SwDsm => out.count_layer("swdsm", &run.platform),
        PlatformKind::HybridDsm => out.count_layer("hybriddsm", &run.platform),
        _ => {}
    }
}

struct KernelBody<'a> {
    kernel: &'a Kernel,
    holds: &'a [u64],
}

impl RankBody for KernelBody<'_> {
    type Out = (BenchResult, [u64; 5]);
    fn run<W: World>(&self, w: &W, ham: &Hamster) -> Self::Out {
        let result = self.kernel.run(w, self.holds);
        (result, module_counters(ham))
    }
}

impl Workload for Kernels {
    fn sizes(&self) -> Json {
        Json::obj([
            ("nodes", Json::from(NODES as u64)),
            ("ethernet_bytes_per_sec", Json::from(super::PINNED_ETHERNET_BPS)),
            ("legs", Json::Arr(self.legs.iter().map(|l| Json::from(l.name)).collect())),
            (
                "kernels",
                Json::Arr(self.kernels.iter().map(|k| Json::from(k.golden_key())).collect()),
            ),
        ])
    }

    fn rep(&self, lane: &mut Lane<'_>, parent: u64) -> RepOut {
        let mut out = RepOut::default();
        for leg in &self.legs {
            let started = Instant::now();
            let leg_span = lane.open(parent, &format!("leg:{}", leg.name));
            for kernel in &self.kernels {
                let kernel_span = lane.open(leg_span.id, &format!("kernel:{}", kernel.name()));
                self.run_kernel(leg, kernel, lane, kernel_span.id, &mut out);
                lane.close(kernel_span);
            }
            lane.close(leg_span);
            if let Some(metric) = leg.wall_metric {
                out.values.insert(metric, started.elapsed().as_secs_f64());
            }
        }
        out.work = MODULE_METRICS
            .iter()
            .filter(|m| **m != "hamster-core.bulk_bytes")
            .map(|m| out.counters.get(m).copied().unwrap_or(0))
            .sum();
        out
    }
}

impl Kernels {
    fn run_kernel(
        &self,
        leg: &Leg,
        kernel: &Kernel,
        lane: &mut Lane<'_>,
        parent: u64,
        out: &mut RepOut,
    ) {
        let body = KernelBody { kernel, holds: &self.holds };
        let run = run_on_hamster(&config(leg.platform), lane, parent, &body);
        count_run(out, leg.platform, &run);
        let results: Vec<BenchResult> = run.ranks.iter().map(|(r, _)| r.clone()).collect();
        // Ranks that disagree on the result are a wrong output, not a
        // reason to stop measuring.
        let agreed = results.iter().all(|r| r.checksum == results[0].checksum);
        let what = format!("{} on {}", kernel.golden_key(), leg.name);
        match self.golden.get(kernel) {
            Some(want) if agreed => out.verify(&what, results[0].checksum, want),
            Some(_) => out.check(1, 1, || format!("{what}: ranks disagree on the result")),
            None => out.check(1, 1, || format!("{what}: no golden checksum (run --bless)")),
        }
        out.sim_ns += results.iter().map(|r| r.total_ns).max().unwrap_or(0);
        for (_, modules) in &run.ranks {
            for (metric, v) in MODULE_METRICS.iter().zip(modules) {
                out.count(metric, *v);
            }
        }
    }

    /// Run `kernel` once on SMP and return its checksum, for `--bless`.
    pub fn bless(kernel: &Kernel) -> u64 {
        let holds = ring_holds(0);
        let body = KernelBody { kernel, holds: &holds };
        let run = run_on_hamster(&config(PlatformKind::Smp), &mut Lane::off(), 0, &body);
        let results: Vec<BenchResult> = run.ranks.into_iter().map(|(r, _)| r).collect();
        BenchResult::merge(&results).checksum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{self_times, Recorder};

    #[test]
    fn ring_holds_follow_the_seed() {
        assert_eq!(ring_holds(42), ring_holds(42));
        assert_ne!(ring_holds(42), ring_holds(43));
        assert_eq!(ring_holds(42).len(), RING_TURNS);
        assert!(ring_holds(42).iter().all(|h| (1_000..5_000).contains(h)));
    }

    #[test]
    fn golden_file_covers_every_kernel() {
        let golden = Golden::load();
        for k in Kernels::all_kernels() {
            assert!(golden.get(&k).is_some(), "{} missing: run --bless", k.golden_key());
        }
        assert!(Golden::parse("{\"lu/8\": 12}").is_err());
        assert!(Golden::parse("{\"lu/8\": \"0xzz\"}").is_err());
    }

    #[test]
    fn counters_land_under_their_catalogue_names() {
        let mut out = RepOut::default();
        let stats = BTreeMap::from([("getpages", 3), ("barriers", 2), ("reads", 9)]);
        out.count_layer("swdsm", &stats);
        out.count_layer("swdsm", &stats);
        // `reads` is a counter of the DSM but not a metric of the ledger.
        assert_eq!(out.counters, BTreeMap::from([("swdsm.getpages", 6), ("swdsm.barriers", 4)]));
        for m in MODULE_METRICS {
            assert!(crate::metrics::PER_LAYER.iter().any(|p| p.name == m), "{m}");
        }
    }

    /// A traced run's accounting: the call classes plus the
    /// application's own time cover each rank span exactly, and the
    /// platforms agree on the result.
    #[test]
    fn traced_ring_accounts_for_every_rank_nanosecond() {
        let kernel = Kernel::Ring { turns: 8 };
        let holds = ring_holds(1);
        let body = KernelBody { kernel: &kernel, holds: &holds };
        let rec = Recorder::new();
        let mut sums = Vec::new();
        for platform in [PlatformKind::Smp, PlatformKind::HybridDsm, PlatformKind::SwDsm] {
            let mut lane = rec.lane(0, 0);
            let run = run_on_hamster(&config(platform), &mut lane, 0, &body);
            let results: Vec<BenchResult> = run.ranks.iter().map(|(r, _)| r.clone()).collect();
            sums.push(BenchResult::merge(&results).checksum);
        }
        assert_eq!(sums, [8, 8, 8]);

        let spans = rec.take();
        let selfs = self_times(&spans);
        let ranks: Vec<usize> =
            (0..spans.len()).filter(|&i| spans[i].name.starts_with("rank[")).collect();
        assert_eq!(ranks.len(), 3 * NODES);
        for i in ranks {
            let rank = &spans[i];
            let children: Vec<_> = spans.iter().filter(|s| s.parent == rank.id).collect();
            // One barrier before, one per turn, one after; two turns
            // taken under the lock.
            assert_eq!(children.iter().filter(|s| s.name == "sync.barrier").count(), 10);
            assert_eq!(children.iter().filter(|s| s.name == "sync.lock").count(), 2);
            assert_eq!(children.iter().filter(|s| s.name == "sync.unlock").count(), 2);
            let reads = rank.classes.iter().find(|c| c.class == "mem.read").expect("reads folded");
            assert_eq!(reads.count, 3);
            assert!(reads.max_ns <= reads.total_ns);
            let in_children: u64 = children.iter().map(|s| s.dur_ns()).sum();
            let folded: u64 = rank.classes.iter().map(|c| c.total_ns).sum();
            assert_eq!(rank.dur_ns(), selfs[i] + in_children + folded);
        }
    }
}
