//! `ledger`: the two-clock benchmark. See README.md beside Cargo.toml.

mod host;
mod json;
mod metrics;
mod probes;
mod run;
mod span;
mod stats;
mod traced;
mod workloads;

use std::process::ExitCode;

const USAGE: &str = "usage:
  ledger --workload <name> [--seed <u64>] [--seconds <n>] [--trace 0|1 | --traced]
  ledger --list          every workload and metric, with unit, clock and bound
  ledger selfcheck [--seconds <n>]
                         every workload as two sets, plus seed 43; writes LEDGER_repeat.json
  ledger --bless         regenerate golden.json from an SMP run";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    command: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: None, seed: 42, seconds: 20, trace: false, command: None };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => {
                args.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be 1 to 60".into());
                }
            }
            "--traced" => args.trace = true,
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                }
            }
            "--list" | "--bless" | "selfcheck" if args.command.is_none() => {
                args.command = Some(arg)
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn bless() -> ExitCode {
    use workloads::kernels::Kernels;
    let pairs = Kernels::all_kernels()
        .iter()
        .map(|k| (k.golden_key(), json::Json::from(format!("{:#018x}", Kernels::bless(k)))))
        .collect::<std::collections::BTreeMap<_, _>>();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/golden.json");
    match std::fs::write(path, json::Json::obj(pairs).pretty()) {
        Ok(()) => {
            eprintln!("wrote {path}; rebuild to use it");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("writing {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// By how much of `a` the value `b` is worse, for a metric whose better
/// direction is `better`; negative when `b` is the better one.
fn worsening(better: metrics::Better, a: f64, b: f64) -> f64 {
    match better {
        metrics::Better::Lower => stats::rel_diff(a, b),
        metrics::Better::Higher => -stats::rel_diff(a, b),
    }
}

/// What a child run printed on its last line.
struct ChildRun {
    ok: bool,
    line: sim::json::Value,
}

impl ChildRun {
    fn metric(&self, name: &str) -> f64 {
        let value = self.line.get("metrics").and_then(|m| m.get(name)).and_then(|m| m.get("value"));
        value.and_then(|v| v.as_num()).unwrap_or(f64::NAN)
    }

    /// The child's result as it printed it, units dropped.
    fn to_json(&self) -> json::Json {
        use json::Json;
        let count =
            |key| Json::Num(self.line.get(key).and_then(|v| v.as_num()).unwrap_or(f64::NAN));
        let metrics = self.line.get("metrics").and_then(|m| m.as_object());
        Json::obj([
            ("correct", Json::from(self.ok)),
            ("attempted", count("attempted")),
            ("failed", count("failed")),
            (
                "metrics",
                Json::obj(
                    metrics
                        .into_iter()
                        .flatten()
                        .map(|(name, _)| (name.as_str(), Json::Num(self.metric(name)))),
                ),
            ),
        ])
    }
}

/// Run one workload in a process of its own (one process, one workload,
/// as every measurement here is made) and parse its last line.
fn run_child(name: &str, seed: u64, seconds: u64, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", name, "--seed", &seed.to_string(), "--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the {name} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().ok_or(format!("the {name} run printed no result"))?;
    let line = sim::json::parse(last).map_err(|e| format!("the {name} run's result: {e}"))?;
    let correct = matches!(line.get("correct"), Some(sim::json::Value::Bool(true)));
    let failed = line.get("failed").and_then(|f| f.as_num());
    Ok(ChildRun { ok: out.status.success() && correct && failed == Some(0.0), line })
}

/// Run every workload as two independent sets and compare them metric
/// by metric against the bounds; then once more with seed 43, to show
/// nothing is tuned to seed 42; then traced, for the per-layer numbers.
/// Writes `LEDGER_repeat.json`, the format of the committed ledger
/// entries.
fn selfcheck(seconds: u64) -> ExitCode {
    use json::Json;
    let mut ok = true;
    let mut run_set = |label: &str, seed: u64, trace: bool| -> Vec<Option<ChildRun>> {
        metrics::workload_names()
            .map(|name| {
                eprintln!("selfcheck: {label}, {name}, seed {seed}");
                let run = run_child(name, seed, seconds, trace)
                    .map_err(|e| eprintln!("selfcheck: {e}"))
                    .ok();
                ok &= run.as_ref().is_some_and(|r| r.ok);
                run
            })
            .collect()
    };
    let set_a = run_set("set A", 42, false);
    let set_b = run_set("set B", 42, false);
    let other_seed = run_set("other seed", 43, false);
    let layers = run_set("traced", 42, true);

    let mut all_sizes = Vec::new();
    let mut workloads_json = Vec::new();
    println!(
        "{:<16} {:<12} {:>16} {:>16} {:>9} {:>6}",
        "workload", "metric", "set A", "set B", "worse by", "bound"
    );
    for (i, name) in metrics::workload_names().enumerate() {
        let runs = [&set_a[i], &set_b[i], &other_seed[i], &layers[i]];
        let [Some(a), Some(b), Some(c), Some(l)] = runs else {
            continue;
        };
        let mut diffs = Vec::new();
        for m in &metrics::END_TO_END {
            let worse = worsening(m.better, a.metric(m.name), b.metric(m.name));
            let within = worse.abs() <= m.bound;
            ok &= within;
            println!(
                "{:<16} {:<12} {:>16.6} {:>16.6} {:>8.2}% {:>5.0}%{}",
                name,
                m.name,
                a.metric(m.name),
                b.metric(m.name),
                worse * 100.0,
                m.bound * 100.0,
                if within { "" } else { "  OUT OF BOUND" }
            );
            diffs.push((m.name, Json::Num(worse)));
        }
        workloads_json.push((
            name.to_string(),
            Json::obj([
                ("set_a", a.to_json()),
                ("set_b", b.to_json()),
                ("b_worse_than_a_by", Json::obj(diffs)),
                ("seed_43", c.to_json()),
                ("per_layer", l.to_json()),
            ]),
        ));
        let sizes = workloads::build(name, 42).expect("a workload of the fixed list").sizes();
        all_sizes.push((name.to_string(), sizes));
    }
    let doc = Json::obj([
        ("host", host::fingerprint(42, Json::Obj(all_sizes))),
        ("seconds", Json::from(seconds)),
        ("agree", Json::from(ok)),
        ("workloads", Json::Obj(workloads_json)),
    ]);
    if let Err(e) = std::fs::write("LEDGER_repeat.json", doc.pretty()) {
        eprintln!("writing LEDGER_repeat.json: {e}");
        ok = false;
    }
    if ok {
        println!("selfcheck: the two sets agree within every bound and nothing failed");
        ExitCode::SUCCESS
    } else {
        println!("selfcheck: FAILED");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("ledger measures optimized builds only: run it with --release");
        return ExitCode::from(2);
    }
    match args.command.as_deref() {
        Some("--list") => {
            print!("{}", metrics::list());
            return ExitCode::SUCCESS;
        }
        Some("--bless") => return bless(),
        Some("selfcheck") => return selfcheck(args.seconds),
        _ => {}
    }
    let Some(name) = args.workload else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let measured = if args.trace {
        run::traced(&name, args.seed, args.seconds)
    } else {
        run::untraced(&name, args.seed, args.seconds)
    };
    let Some(measured) = measured else {
        let names: Vec<_> = metrics::workload_names().collect();
        eprintln!("unknown workload {name:?}; the workloads are {names:?}");
        return ExitCode::from(2);
    };
    eprint!("{}", measured.table());
    println!("{}", measured.contract_line());
    if measured.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
