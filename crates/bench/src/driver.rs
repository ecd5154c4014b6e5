//! The one driver: a table of artifact definitions, and everything the
//! artifacts would otherwise each repeat — parsing the command line,
//! the second in-process build where byte identity is asserted, writing
//! `BENCH_<name>.json`, rendering tables, `--check`/`--update` against
//! `bench-baselines/`, and the exit code (0 = held, 1 = a gate failed,
//! 2 = the command line was wrong).
//!
//! A deliberate perf change lands as `bench <artifact> --update` plus
//! the new baseline committed next to the change that caused it — the
//! trajectory stays reviewable in git history.

use crate::report::Report;
use crate::{analysis, chaos, engine, figures, membership, scale, serve, trend, tune, Args, Built};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One row of the artifact table.
pub struct Artifact {
    /// Positional name; the document is `BENCH_<name>.json`.
    pub name: &'static str,
    /// Node count when `--nodes` is absent.
    pub nodes: usize,
    /// Which of `--quick`, `--nodes`, `--trace` it accepts (`--csv`,
    /// `--check` and `--update` are the driver's: every artifact does).
    pub flags: &'static str,
    /// The flags CI and `all` run it with — the size its committed
    /// baseline, if any, was generated at.
    pub ci: &'static str,
    /// Built twice in-process; the two documents must be byte-identical.
    pub twice: bool,
    /// Byte-identical from one process to the next (CI runs it twice and
    /// `cmp`s). Not so where locks are contended: grant order follows
    /// real message arrival (OBSERVABILITY.md, "Contended locks").
    pub exact: bool,
    /// The artifact itself.
    pub build: fn(&Args) -> Built,
    /// One line for `--help`.
    pub about: &'static str,
}

impl Artifact {
    /// `BENCH_<name>.json`: the document's file name, here and in `bench-baselines/`.
    pub fn file(&self) -> String {
        format!("BENCH_{}.json", self.name)
    }
}

const QN: &str = "--quick --nodes";

/// Every artifact, in the order `all` runs them.
#[rustfmt::skip]
pub const ARTIFACTS: &[Artifact] = &[
    Artifact { name: "table1", nodes: 0, flags: "", ci: "", twice: false, exact: true, build: figures::table1, about: "benchmarks and their working sets (paper Table 1)" },
    Artifact { name: "table2", nodes: 0, flags: "", ci: "", twice: false, exact: true, build: figures::table2, about: "lines and API calls per programming model (paper Table 2); the per-crate line ledger" },
    Artifact { name: "primitives", nodes: 4, flags: "--nodes", ci: "", twice: false, exact: true, build: figures::primitives, about: "page miss, lock, barrier and bulk-read latency per platform" },
    Artifact { name: "fig2", nodes: 4, flags: QN, ci: "", twice: false, exact: false, build: figures::fig2, about: "HAMSTER vs native execution on the software DSM (paper Figure 2)" },
    Artifact { name: "fig3", nodes: 4, flags: QN, ci: "", twice: false, exact: false, build: figures::fig3, about: "hybrid DSM with the software DSM as baseline (paper Figure 3)" },
    Artifact { name: "fig4", nodes: 2, flags: QN, ci: "--quick", twice: false, exact: false, build: figures::fig4, about: "hardware vs hybrid vs software DSM on two nodes (paper Figure 4)" },
    Artifact { name: "ablation", nodes: 4, flags: QN, ci: "--quick", twice: false, exact: false, build: figures::ablation, about: "protocol design-choice studies on the software DSM" },
    Artifact { name: "sweep", nodes: 4, flags: QN, ci: "--quick", twice: false, exact: false, build: figures::sweep, about: "node scaling 1-8 and interconnect latency/bandwidth sensitivity" },
    Artifact { name: "extra", nodes: 4, flags: QN, ci: "--quick", twice: false, exact: false, build: figures::extra, about: "NAS-style integer sort across the platforms" },
    Artifact { name: "chaos", nodes: 2, flags: QN, ci: "--quick", twice: false, exact: true, build: chaos::chaos, about: "SOR and LU under seeded drop/dup/delay/crash faults and churn (ROBUSTNESS.md)" },
    Artifact { name: "membership", nodes: 4, flags: QN, ci: "--quick", twice: true, exact: true, build: membership::membership, about: "rejoin time against state size; SOR under leave/recover churn" },
    Artifact { name: "scale", nodes: 0, flags: "--quick", ci: "--quick", twice: false, exact: true, build: scale::scale, about: "centralized vs scalable synchronization from 16 to 1024 nodes" },
    Artifact { name: "serve", nodes: 4, flags: "--quick --nodes --trace", ci: "--quick --trace", twice: true, exact: true, build: serve::serve, about: "multi-tenant KV service latency, fault-free and under chaos (OBSERVABILITY.md §8)" },
    Artifact { name: "tune", nodes: 2, flags: "--nodes", ci: "", twice: true, exact: true, build: tune::tune, about: "the closed loop: trace, analyze, advise, re-configure, verify" },
    Artifact { name: "analysis", nodes: 2, flags: "--nodes", ci: "", twice: false, exact: true, build: analysis::analysis, about: "critical path, contention and false sharing of traced kernels (OBSERVABILITY.md §6)" },
    Artifact { name: "engine", nodes: 64, flags: QN, ci: "", twice: false, exact: true, build: engine::engine, about: "fabric determinism soak: 1, 2 and auto delivery workers must agree bit for bit" },
];

/// Flags every artifact accepts, because the driver implements them.
const DRIVER_FLAGS: [&str; 3] = ["--csv", "--check", "--update"];

/// The `--help` text: the usage line and the table.
pub fn help() -> String {
    let row = |a: &Artifact| {
        format!("  {:<11} {}\n{:14}takes [{}], {} nodes; CI runs it with [{}]\n", a.name, a.about, "", a.flags, a.nodes, a.ci)
    };
    format!(
        "usage: cargo run -p hamster-bench --release -- <artifact>|all \
         [--quick] [--nodes N] [--csv] [--trace] [--check|--update]\n\n\
         Writes BENCH_<artifact>.json into the current directory; --check compares it with\n\
         bench-baselines/, --update replaces the baseline. `all` runs every artifact with\n\
         the flags CI uses.\n\n{}",
        ARTIFACTS.iter().map(row).collect::<String>()
    )
}

/// The runs a command line asks for — one artifact, or all of them —
/// or `None` for `--help`. `Err` is the one-line message of exit code 2.
pub fn parse(argv: &[String]) -> Result<Option<Vec<(&'static Artifact, Args)>>, String> {
    let mut given: Vec<&str> = Vec::new();
    let mut nodes = None;
    let mut target = None;
    let mut it = argv.iter().map(String::as_str);
    while let Some(arg) = it.next() {
        match arg {
            "--help" | "-h" => return Ok(None),
            "--nodes" => {
                let n = it.next().and_then(|v| v.parse::<usize>().ok());
                nodes = Some(n.filter(|n| *n > 0).ok_or("--nodes needs a positive number")?);
                given.push(arg);
            }
            "--quick" | "--trace" | "--csv" | "--check" | "--update" => given.push(arg),
            _ if arg.starts_with('-') => return Err(format!("unknown flag {arg:?} (try --help)")),
            _ if target.is_none() => target = Some(arg),
            _ => return Err(format!("one artifact at a time: {:?} and {arg:?}", target.unwrap_or_default())),
        }
    }
    let target = target.ok_or("no artifact named (try --help)")?;
    let all = target == "all";
    let chosen: Vec<&Artifact> = ARTIFACTS.iter().filter(|a| all || a.name == target).collect();
    if chosen.is_empty() {
        let names: Vec<&str> = ARTIFACTS.iter().map(|a| a.name).collect();
        return Err(format!("unknown artifact {target:?}; valid: {}, all", names.join(", ")));
    }
    let mut runs = Vec::new();
    for a in chosen {
        let takes = |flag: &str| DRIVER_FLAGS.contains(&flag) || a.flags.contains(flag);
        if let Some(flag) = given.iter().find(|f| !all && !takes(f)) {
            return Err(format!("{} does not take {flag} (it takes: {})", a.name, a.flags));
        }
        let on = |flag: &str| takes(flag) && (given.contains(&flag) || (all && a.ci.contains(flag)));
        // `all` gates (and refreshes) the artifacts that have a committed baseline.
        let gated = !all || baseline_dir().join(a.file()).exists();
        let args = Args {
            quick: on("--quick"),
            nodes: nodes.filter(|_| on("--nodes")).unwrap_or(a.nodes),
            csv: on("--csv"),
            trace: on("--trace"),
            check: gated && on("--check"),
            update: gated && on("--update"),
        };
        runs.push((a, args));
    }
    Ok(Some(runs))
}

/// Build `art`, twice where its entry says so: the two documents must
/// then be byte-identical. A panicking gate counts as a failed one.
pub fn build(art: &Artifact, args: &Args) -> Built {
    let once = || {
        std::panic::catch_unwind(|| (art.build)(args))
            .unwrap_or_else(|_| Err(vec![format!("{} panicked (message above)", art.name)]))
    };
    let report = once()?;
    if art.twice {
        eprintln!("{}: building again (byte-identity check)...", art.name);
        if once()?.doc.pretty() != report.doc.pretty() {
            return Err(vec![format!("{} differs between two in-process builds", art.file())]);
        }
    }
    Ok(report)
}

/// Where the committed baselines live: in the checkout this binary was
/// built from.
fn baseline_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench-baselines")
}

/// Committed `BENCH_*.json` baselines that name no table entry: nothing
/// regenerates them, so nothing would notice them drift.
pub fn orphan_baselines() -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(baseline_dir())
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .filter(|n| !ARTIFACTS.iter().any(|a| *n == a.file()))
        .collect();
    names.sort();
    names
}

/// `--check`: the differences of the document `text` from its committed
/// baseline, each prefixed with the file name.
fn check(file: &str, text: &str) -> Vec<String> {
    let baseline = std::fs::read_to_string(baseline_dir().join(file))
        .map_err(|e| format!("no committed baseline: {e}"))
        .and_then(|b| sim::json::parse(&b));
    let diffs = match (baseline, sim::json::parse(text)) {
        (Ok(b), Ok(c)) => trend::compare(&b, &c),
        (Err(e), _) | (_, Err(e)) => vec![e],
    };
    if diffs.is_empty() {
        println!("ok   {file} holds against its committed baseline");
    } else {
        eprintln!("{file} drifted; if intended, rerun with --update and commit the new baseline");
    }
    diffs.iter().map(|d| format!("{file} vs baseline: {d}")).collect()
}

/// Build one artifact, write its files, show its tables and apply the
/// baseline gate; returns the failures.
fn run(art: &Artifact, args: &Args) -> Vec<String> {
    let Report { doc, tables, notes, mut files } = match build(art, args) {
        Ok(report) => report,
        Err(failures) => return failures,
    };
    let file = art.file();
    let text = doc.pretty();
    files.insert(0, (file.clone(), text.clone()));
    if args.update {
        files.push((baseline_dir().join(&file).display().to_string(), text.clone()));
    }
    let mut failures = Vec::new();
    for (path, contents) in &files {
        match std::fs::write(path, contents) {
            Ok(()) => eprintln!("wrote {path}"),
            // An artifact that cannot be saved must not look successful.
            Err(e) => failures.push(format!("writing {path}: {e}")),
        }
    }
    for table in &tables {
        println!("{}", if args.csv { table.csv() } else { table.pretty() });
    }
    if !args.csv && !notes.is_empty() {
        println!("{notes}");
    }
    if args.check {
        failures.extend(check(&file, &text));
    }
    failures
}

/// The binary: parse, run, report.
pub fn run_cli() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let runs = match parse(&argv) {
        Ok(Some(runs)) => runs,
        Ok(None) => {
            print!("{}", help());
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let mut failures: Vec<String> = runs.iter().flat_map(|(art, args)| run(art, args)).collect();
    // `all --check` regenerates everything in the table: a committed
    // baseline outside it would go unchecked forever.
    if runs.len() > 1 && runs.iter().any(|(_, args)| args.check) {
        failures.extend(orphan_baselines().iter().map(|n| format!("bench-baselines/{n} names no artifact")));
    }
    failures.iter().for_each(|f| eprintln!("FAIL: {f}"));
    ExitCode::from(u8::from(!failures.is_empty()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Json;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    /// The one run a single-artifact command line asks for.
    fn one(line: &str) -> (&'static str, Args) {
        let runs = parse(&argv(line)).unwrap().unwrap();
        assert_eq!(runs.len(), 1);
        (runs[0].0.name, runs[0].1)
    }

    #[test]
    fn the_table_is_well_formed() {
        for (i, a) in ARTIFACTS.iter().enumerate() {
            assert!(ARTIFACTS[..i].iter().all(|b| b.name != a.name), "{} is listed twice", a.name);
            assert!(a.name != "all" && !a.name.starts_with('-'), "{} cannot be named on the command line", a.name);
            assert!(!a.twice || a.exact, "{}: an in-process identity check implies a cross-process one", a.name);
            assert_eq!(a.nodes > 0, a.flags.contains("--nodes"), "{}: a node default without --nodes, or the reverse", a.name);
            for flag in a.flags.split_whitespace().chain(a.ci.split_whitespace()) {
                assert!(["--quick", "--nodes", "--trace"].contains(&flag), "{}: {flag}", a.name);
                assert!(a.flags.contains(flag), "{}: CI passes {flag}, which it does not take", a.name);
            }
        }
    }

    #[test]
    fn every_committed_baseline_names_a_table_entry() {
        assert_eq!(orphan_baselines(), Vec::<String>::new());
        assert!(baseline_dir().join("BENCH_fig2.json").exists(), "looked in {:?}", baseline_dir());
    }

    #[test]
    fn the_parser_accepts_what_an_entry_takes() {
        let plain = Args { quick: false, nodes: 4, csv: false, trace: false, check: false, update: false };
        assert_eq!(one("fig2"), ("fig2", plain));
        assert_eq!(one("fig2 --quick --nodes 2 --csv"), ("fig2", Args { quick: true, nodes: 2, csv: true, ..plain }));
        assert_eq!(one("--nodes 8 primitives"), ("primitives", Args { nodes: 8, ..plain }));
        assert_eq!(one("serve --trace --check"), ("serve", Args { trace: true, check: true, ..plain }));
        assert_eq!(one("table1 --update"), ("table1", Args { nodes: 0, update: true, ..plain }));
        assert_eq!(one("engine").1.nodes, 64);
        assert!(parse(&argv("scale --help")).unwrap().is_none());
        assert!(parse(&argv("-h")).unwrap().is_none());
    }

    #[test]
    fn all_runs_every_entry_with_its_ci_flags() {
        let runs = parse(&argv("all --check")).unwrap().unwrap();
        assert_eq!(runs.len(), ARTIFACTS.len());
        for (a, args) in &runs {
            let baselined = baseline_dir().join(a.file()).exists();
            assert_eq!(args.check, baselined, "{}: `all` gates what has a committed baseline", a.name);
            assert!(!args.update && !args.csv);
            assert_eq!(args.quick, a.ci.contains("--quick"), "{}", a.name);
            assert_eq!(args.trace, a.ci.contains("--trace"), "{}", a.name);
            assert_eq!(args.nodes, a.nodes, "{}", a.name);
        }
        // A flag given to `all` reaches the entries that take it.
        let runs = parse(&argv("all --quick --nodes 2")).unwrap().unwrap();
        for (a, args) in &runs {
            assert_eq!(args.quick, a.flags.contains("--quick"), "{}", a.name);
            assert_eq!(args.nodes, if a.flags.contains("--nodes") { 2 } else { a.nodes }, "{}", a.name);
        }
    }

    #[test]
    fn the_parser_rejects_in_one_line() {
        for (line, needle) in [
            ("", "no artifact named"),
            ("--quick", "no artifact named"),
            ("fig2 --nodes", "--nodes needs a positive number"),
            ("fig2 --nodes four", "--nodes needs a positive number"),
            ("fig2 --nodes 0", "--nodes needs a positive number"),
            ("fig2 --fast", "unknown flag \"--fast\""),
            ("fig9", "unknown artifact \"fig9\"; valid: table1, table2, primitives, fig2"),
            ("fig2 fig3", "one artifact at a time"),
            ("primitives --quick", "primitives does not take --quick (it takes: --nodes)"),
            ("table1 --nodes 8", "table1 does not take --nodes"),
            ("scale --nodes 8", "scale does not take --nodes (it takes: --quick)"),
            ("tune --quick", "tune does not take --quick"),
            ("fig2 --trace", "fig2 does not take --trace"),
            ("fig2 --only fig2", "unknown flag \"--only\""),
        ] {
            let message = parse(&argv(line)).err().unwrap_or_else(|| panic!("{line:?} was accepted"));
            assert!(message.contains(needle) && !message.contains('\n'), "{line:?}: {message}");
        }
    }

    #[test]
    fn help_lists_every_artifact() {
        let help = help();
        for a in ARTIFACTS {
            assert!(help.contains(&format!("\n  {:<11} {}", a.name, a.about)), "{}", a.name);
        }
    }

    fn toy(twice: bool, build: fn(&Args) -> Built) -> Artifact {
        Artifact { name: "toy", nodes: 0, flags: "", ci: "", twice, exact: twice, build, about: "" }
    }

    fn counting(_: &Args) -> Built {
        static BUILDS: AtomicU64 = AtomicU64::new(0);
        let doc = Json::obj([("build", Json::int(BUILDS.fetch_add(1, Ordering::Relaxed)))]);
        Ok(Report::new(doc, Vec::new()))
    }

    #[test]
    fn the_identity_check_fails_a_nondeterministic_artifact() {
        let args = one("table1").1;
        let failures = build(&toy(true, counting), &args).unwrap_err();
        assert_eq!(failures, ["BENCH_toy.json differs between two in-process builds"]);
        assert!(build(&toy(false, counting), &args).is_ok(), "built once, nothing to compare");
        let steady: fn(&Args) -> Built = |_| Ok(Report::new(Json::obj([("build", Json::int(7))]), Vec::new()));
        assert_eq!(build(&toy(true, steady), &args).unwrap().doc.pretty(), "{\n  \"build\": 7\n}\n");
    }

    #[test]
    fn a_failed_or_panicking_gate_is_a_failure_not_a_report() {
        let args = one("table1").1;
        let gated: fn(&Args) -> Built = |_| Err(vec!["gate A".into(), "gate B".into()]);
        assert_eq!(build(&toy(true, gated), &args).unwrap_err(), ["gate A", "gate B"]);
        let panicking: fn(&Args) -> Built = |_| panic!("checksum drift (this panic is the test's)");
        assert_eq!(build(&toy(false, panicking), &args).unwrap_err(), ["toy panicked (message above)"]);
    }
}
