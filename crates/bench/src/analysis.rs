//! Causal trace analysis of the paper's kernels.
//!
//! Runs traced SOR and LU on the software-DSM and hybrid-DSM platforms
//! (2 nodes by default) plus a rank-ordered lock ring on each, feeds
//! each virtual-time trace to [`analyzer::analyze`], prints each run's
//! lane breakdown and top critical-path contributors, and writes every
//! report into one `BENCH_analysis.json` artifact.
//!
//! The artifact is its own acceptance check: every embedded report is
//! validated against the `hamster-analysis-v1` schema (which includes
//! the lanes-sum-to-makespan tiling invariant), and the unoptimized SOR
//! run must exhibit false sharing (its cyclic row distribution
//! interleaves writers within pages). Any violation fails the build, so
//! CI needs no external schema tooling.
//!
//! Workloads with *contended* locks (e.g. PI's accumulation lock, where
//! both ranks request at nearly the same virtual instant) are excluded:
//! the lock manager serves requests in real arrival order, so the grant
//! order — and with it every downstream wait — can legitimately differ
//! between runs. The lock ring serializes acquisitions behind barriers
//! instead, which pins the handoff sequence; PI's sharing-detector
//! expectations live in `tests/analysis.rs`, which only asserts
//! timing-independent fields.

use crate::report::Report;
use crate::suite::lock_ring;
use crate::{Args, Built};
use apps::world::{run_hamster, HamsterWorld};
use hamster_core::{ClusterConfig, PlatformKind};
use sim::json::Value;

/// Deliberately page-misaligned problem size: 120 rows of 120 f64s is
/// 960 bytes/row, so block boundaries fall mid-page and two ranks write
/// distinct cache lines of the same page (the classic false-sharing
/// layout). The optimized runs keep n = 128 (page-aligned rows).
const SOR_UNOPT_N: usize = 120;
const SOR_N: usize = 128;
const SOR_ITERS: usize = 10;
const LU_N: usize = 128;
const RING_ROUNDS: usize = 4;

struct Run {
    name: &'static str,
    /// `swdsm` / `hybriddsm`.
    platform: String,
    report: analyzer::Report,
}

fn traced(
    name: &'static str,
    nodes: usize,
    platform: PlatformKind,
    kernel: impl Fn(&HamsterWorld) -> apps::BenchResult + Send + Sync,
) -> Run {
    let session = sim::TraceSession::begin();
    let mut cfg = ClusterConfig::new(nodes, platform);
    // Gigabit-class Ethernet instead of the paper's 100 Mbit: the
    // windowed bus model is a pure function of each transfer's
    // (time, bytes) while windows stay below capacity, but under
    // saturation a transfer's slowdown depends on which thread
    // registered demand first — real-time order, not virtual order.
    // SOR's 56 KB diff bursts saturate fast-Ethernet windows (12.5 KB
    // per 1 ms window), so this artifact would not be byte-reproducible
    // there; at the shared pinned rate every burst fits and the
    // schedule — hence the emitted JSON — is identical on every run.
    // See OBSERVABILITY.md and `crate::suite::PINNED_ETHERNET_BPS`.
    cfg.cost = sim::CostModel::pinned_ethernet();
    let _ = run_hamster(&cfg, kernel);
    let events = session.finish();
    let platform = format!("{platform:?}").to_lowercase();
    Run { name, platform, report: analyzer::analyze(&events) }
}

/// Traced SOR, LU and lock ring on the software and hybrid DSMs.
pub fn analysis(args: &Args) -> Built {
    let nodes = args.nodes;
    let ring = |w: &HamsterWorld| lock_ring(w, RING_ROUNDS, usize::MAX);
    let runs = [
        traced("sor_unopt", nodes, PlatformKind::SwDsm, |w| {
            apps::sor::sor(w, SOR_UNOPT_N, SOR_ITERS, false)
        }),
        traced("sor_opt", nodes, PlatformKind::SwDsm, |w| {
            apps::sor::sor(w, SOR_N, SOR_ITERS, true)
        }),
        traced("lu", nodes, PlatformKind::SwDsm, |w| apps::lu::lu(w, LU_N)),
        traced("lock_ring", nodes, PlatformKind::SwDsm, ring),
        traced("sor_opt", nodes, PlatformKind::HybridDsm, |w| {
            apps::sor::sor(w, SOR_N, SOR_ITERS, true)
        }),
        traced("lu", nodes, PlatformKind::HybridDsm, |w| apps::lu::lu(w, LU_N)),
        traced("lock_ring", nodes, PlatformKind::HybridDsm, ring),
    ];

    let mut failures = Vec::new();
    let mut notes = Vec::new();
    for run in &runs {
        notes.push(format!("=== {}/{} ({} nodes) ===", run.platform, run.name, nodes));
        notes.push(run.report.render_text().trim_end().to_string());
        if let Err(e) = analyzer::validate(&run.report.to_value()) {
            failures.push(format!("{}/{}: schema: {e}", run.platform, run.name));
        }
    }

    // Built-in expectations on the sharing detector and lock engine.
    let sor_unopt = &runs[0].report;
    if sor_unopt.false_sharing.is_empty() {
        failures
            .push("swdsm/sor_unopt: expected false sharing, none detected".into());
    }
    for ring in [&runs[3], &runs[6]] {
        let want = (RING_ROUNDS * nodes) as u64;
        let got: u64 = ring.report.locks.iter().map(|l| l.acquires).sum();
        if got != want {
            failures.push(format!(
                "{}/lock_ring: {got} lock acquires traced, expected {want}",
                ring.platform
            ));
        }
    }
    if !failures.is_empty() {
        return Err(failures);
    }

    // One embedded hamster-analysis-v1 report per run. All-integer
    // reports + canonical trace order make the file byte-identical
    // across runs of the same build.
    let run_doc = |run: &Run| {
        Value::obj([
            ("name", Value::str(run.name)),
            ("platform", Value::str(&run.platform)),
            ("report", run.report.to_value()),
        ])
    };
    let doc = Value::obj([
        ("schema", Value::str("hamster-analysis-suite-v1")),
        ("nodes", Value::int(nodes)),
        ("runs", Value::Arr(runs.iter().map(run_doc).collect())),
    ]);
    notes.push(format!("all {} reports valid", runs.len()));
    Ok(Report::new(doc, Vec::new()).note(notes.join("\n")))
}
