//! The measuring loops: the untraced run that yields the end-to-end
//! metrics, and the traced run that yields the per-layer ones.

use crate::host;
use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::probes;
use crate::span::{self, Lane, Recorder, Span};
use crate::stats::{iqr_share, median, percentile_sorted, top_percentile};
use crate::workloads::{self, RepOut, Workload};
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Fewest timed repetitions a run reports a median of.
const MIN_REPS: usize = 5;
/// Repetitions recorded span by span in a traced run.
const TRACED_REPS: u32 = 3;

/// What one invocation measured.
pub struct Measured {
    pub workload: String,
    pub seed: u64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Metric values in catalogue order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Wall time of each timed (untraced) repetition, in order.
    pub walls: Vec<f64>,
    pub sizes: Json,
}

impl Measured {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty() && self.attempted > 0
    }

    /// The one line the benchmark contract asks for.
    pub fn contract_line(&self) -> String {
        let metrics = self.metrics.iter().map(|(name, unit, value)| {
            (*name, Json::obj([("value", Json::Num(*value)), ("unit", Json::from(*unit))]))
        });
        Json::obj([
            ("correct", Json::from(self.correct())),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
        .line()
    }

    /// The table a person reads, with the host fingerprint on top.
    pub fn table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        writeln!(out, "host {}", host::fingerprint(self.seed, self.sizes.clone()).line())
            .expect("write to string");
        writeln!(
            out,
            "{}: {} repetitions (wall IQR {:.1}% of median), {} outputs checked, {} wrong",
            self.workload,
            self.walls.len(),
            iqr_share(&self.walls) * 100.0,
            self.attempted,
            self.failed
        )
        .expect("write to string");
        let mut ms: Vec<u64> = self.walls.iter().map(|w| (w * 1e3) as u64).collect();
        writeln!(out, "  repetition wall times (ms): {ms:?}").expect("write to string");
        // The highest percentile that still has ten samples beyond it.
        if let Some(p) = top_percentile(ms.len()) {
            ms.sort_unstable();
            writeln!(
                out,
                "  p{} of {} repetitions: {} ms",
                p * 100.0,
                ms.len(),
                percentile_sorted(&ms, p)
            )
            .expect("write to string");
        }
        for f in &self.failures {
            writeln!(out, "  FAILED {f}").expect("write to string");
        }
        for (name, unit, value) in &self.metrics {
            writeln!(out, "  {name:<40} {value:>18.6} {unit}").expect("write to string");
        }
        out
    }
}

/// One timed repetition.
struct Timed {
    wall_s: f64,
    out: RepOut,
}

fn timed_rep(w: &dyn Workload, lane: &mut Lane<'_>, parent: u64) -> Timed {
    let started = Instant::now();
    let out = w.rep(lane, parent);
    Timed { wall_s: started.elapsed().as_secs_f64(), out }
}

/// Set the workload up `setups` times (inputs, references, one warm-up
/// repetition each) and keep the last; returns the set-up times too.
fn set_up(name: &str, seed: u64, setups: usize) -> Option<(Box<dyn Workload>, Vec<f64>)> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..setups {
        let started = Instant::now();
        let w = workloads::build(name, seed)?;
        let warm = w.rep(&mut Lane::off(), 0);
        times.push(started.elapsed().as_secs_f64());
        if !warm.failures.is_empty() {
            eprintln!("warm-up repetition failed: {:?}", warm.failures);
        }
        last = Some(w);
    }
    last.map(|w| (w, times))
}

/// Repeat untraced repetitions for `budget`, at least [`MIN_REPS`].
fn repeat_untraced(w: &dyn Workload, budget: Duration) -> (Vec<Timed>, f64) {
    let started = Instant::now();
    let cpu0 = host::cpu_seconds();
    let mut reps = Vec::new();
    while reps.len() < MIN_REPS || started.elapsed() < budget {
        reps.push(timed_rep(w, &mut Lane::off(), 0));
    }
    let cpu_per_rep = (host::cpu_seconds() - cpu0) / reps.len() as f64;
    (reps, cpu_per_rep)
}

/// Outputs checked, outputs wrong and what was wrong, over repetitions.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Checks {
    fn add(&mut self, which: &str, out: &RepOut) {
        self.attempted += out.attempted;
        self.failed += out.failed;
        self.failures.extend(out.failures.iter().map(|f| format!("{which}: {f}")));
    }

    fn of(reps: &[Timed]) -> Self {
        let mut checks = Checks::default();
        for (i, r) in reps.iter().enumerate() {
            checks.add(&format!("rep {i}"), &r.out);
        }
        checks
    }
}

/// The untraced run: set-up, then repetitions for `seconds`; every
/// end-to-end metric comes from here and from nowhere else.
pub fn untraced(name: &str, seed: u64, seconds: u64) -> Option<Measured> {
    let (w, setups) = set_up(name, seed, SETUPS)?;
    let (reps, cpu_s) = repeat_untraced(w.as_ref(), Duration::from_secs(seconds));
    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let wall_s = median(&walls);
    let sims: Vec<f64> = reps.iter().map(|r| r.out.sim_ns as f64 / 1e9).collect();
    let work = median(&reps.iter().map(|r| r.out.work as f64).collect::<Vec<_>>());
    let value = |name: &str| match name {
        "setup_s" => median(&setups),
        "wall_s" => wall_s,
        "cpu_s" => cpu_s,
        "sim_s" => median(&sims),
        "work_per_s" => work / wall_s,
        other => unreachable!("end-to-end metric {other} has no measurement"),
    };
    let checks = Checks::of(&reps);
    Some(Measured {
        workload: name.to_string(),
        seed,
        attempted: checks.attempted,
        failed: checks.failed,
        failures: checks.failures,
        metrics: END_TO_END.iter().map(|m| (m.name, m.unit, value(m.name))).collect(),
        walls,
        sizes: w.sizes(),
    })
}

/// Where the ranks' host time went, over every `rank[r]` span of the
/// traced repetitions: each call class's share, the application's own
/// share (what no class covers), and the share of the repetitions spent
/// outside any rank (bring-up, teardown, joins).
fn shares(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut class_ns: BTreeMap<&str, u64> = BTreeMap::new();
    let mut rank_ns = 0u64;
    let mut rank_self_ns = 0u64;
    let rank_ids: BTreeSet<u64> =
        spans.iter().filter(|s| s.name.starts_with("rank[")).map(|s| s.id).collect();
    for (s, self_ns) in spans.iter().zip(span::self_times(spans)) {
        if rank_ids.contains(&s.id) {
            rank_ns += s.dur_ns();
            rank_self_ns += self_ns;
            for c in &s.classes {
                *class_ns.entry(c.class).or_insert(0) += c.total_ns;
            }
        } else if rank_ids.contains(&s.parent) {
            *class_ns.entry(s.name.as_str()).or_insert(0) += s.dur_ns();
        }
    }
    let of_ranks = |ns: u64| {
        if rank_ns == 0 {
            0.0
        } else {
            ns as f64 / rank_ns as f64
        }
    };
    let class = |name: &str| of_ranks(class_ns.get(name).copied().unwrap_or(0));

    let mut rep_ns = 0u64;
    let mut outside_ns = 0u64;
    for rep in spans.iter().filter(|s| s.name.starts_with("rep[")) {
        let ranks: Vec<(u64, u64)> = spans
            .iter()
            .filter(|s| s.rep == rep.rep && rank_ids.contains(&s.id))
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        rep_ns += rep.dur_ns();
        outside_ns += rep.dur_ns() - span::covered_ns(rep.start_ns, rep.end_ns, &ranks);
    }
    BTreeMap::from([
        ("apps.self_share", of_ranks(rank_self_ns)),
        ("apps.mem_read_share", class("mem.read")),
        ("apps.mem_write_share", class("mem.write") + class("mem.alloc")),
        ("apps.barrier_share", class("sync.barrier")),
        ("apps.lock_share", class("sync.lock") + class("sync.unlock")),
        ("apps.compute_charge_share", class("clock.compute")),
        ("apps.bus_charge_share", class("bus.private_traffic")),
        (
            "proc.outside_rank_share",
            if rep_ns == 0 { 0.0 } else { outside_ns as f64 / rep_ns as f64 },
        ),
    ])
}

/// Shares of the virtual critical path by lane group, and how fast the
/// analyzer got there.
fn analyze(events: &[sim::TraceEvent]) -> BTreeMap<&'static str, f64> {
    let started = Instant::now();
    let report = analyzer::analyze(events);
    let secs = started.elapsed().as_secs_f64();
    let total = report.critical_path.total_ns.max(1) as f64;
    let lane_share = |lanes: &[analyzer::Lane]| {
        report
            .critical_path
            .contributors
            .iter()
            .filter(|c| lanes.contains(&c.lane))
            .map(|c| c.ns as f64)
            .fold(0.0, |a, ns| a + ns)
            / total
    };
    BTreeMap::from([
        ("analyzer.events_per_s", if events.is_empty() { 0.0 } else { events.len() as f64 / secs }),
        ("analyzer.cp_barrier_wait_share", lane_share(&[analyzer::Lane::BarrierWait])),
        (
            "analyzer.cp_network_share",
            lane_share(&[analyzer::Lane::Net, analyzer::Lane::PageFault]),
        ),
        ("analyzer.cp_compute_share", lane_share(&[analyzer::Lane::Compute])),
    ])
}

/// Share of KV requests in `events` that took longer than `limit_ns` of
/// virtual time.
fn slo_miss_share(events: &[sim::TraceEvent], limit_ns: u64) -> f64 {
    let (mut all, mut late) = (0u64, 0u64);
    for e in events.iter().filter(|e| e.module == "kv") {
        all += 1;
        late += u64::from(e.dur_ns > limit_ns);
    }
    if all == 0 {
        0.0
    } else {
        late as f64 / all as f64
    }
}

/// Virtual latency beyond which a KV request misses its objective.
const SLO_LIMIT_NS: u64 = 20_000_000;

/// The traced run: the layer probes, untraced repetitions for half of
/// `seconds` (the baseline the overheads are taken against), then
/// [`TRACED_REPS`] repetitions recorded span by span and one with the
/// simulator's own trace session on. Writes `LEDGER_trace_<name>.json`.
pub fn traced(name: &str, seed: u64, seconds: u64) -> Option<Measured> {
    let (w, _) = set_up(name, seed, 1)?;
    let mut values: BTreeMap<&'static str, f64> = probes::all(seed);

    let (reps, _) = repeat_untraced(w.as_ref(), Duration::from_secs(seconds) / 2);
    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let wall_s = median(&walls);
    let last = &reps.last().expect("at least one repetition").out;
    let mut checks = Checks::of(&reps);

    // Leg values: medians over the untraced repetitions.
    let leg_names: BTreeSet<&'static str> =
        reps.iter().flat_map(|r| r.out.values.keys().copied()).collect();
    for leg in leg_names {
        let per_rep: Vec<f64> =
            reps.iter().filter_map(|r| r.out.values.get(leg).copied()).collect();
        values.insert(leg, median(&per_rep));
    }
    // Counters: the last repetition's, with how many distinct vectors
    // the repetitions produced (a host-only change must keep that at 1).
    for (counter, v) in &last.counters {
        values.insert(counter, *v as f64);
    }
    let sims: BTreeSet<u64> = reps.iter().map(|r| r.out.sim_ns).collect();
    let counter_vectors: BTreeSet<Vec<u64>> =
        reps.iter().map(|r| r.out.counters.values().copied().collect()).collect();
    values.insert("proc.drift_sim_distinct", sims.len() as f64);
    values.insert("proc.drift_counter_distinct", counter_vectors.len() as f64);
    values.insert("proc.reps_untraced", reps.len() as f64);
    values.insert(
        "proc.sim_s",
        median(&reps.iter().map(|r| r.out.sim_ns as f64 / 1e9).collect::<Vec<_>>()),
    );
    values.insert("proc.wall_s", wall_s);
    if let Some(delivered) =
        last.counters.get("interconnect.delivered").filter(|_| name == "fabric-relay")
    {
        values.insert("interconnect.host_ns_per_event", wall_s * 1e9 / *delivered as f64);
    }
    if name == "kernels-swdsm" {
        let native_s = probes::native_kernels_wall_s(seed);
        values.insert("hamster-core.adapter_overhead_pct", (wall_s / native_s - 1.0) * 100.0);
    }

    // Span-traced repetitions.
    let rec = Recorder::new();
    let mut traced_walls = Vec::new();
    {
        let mut run_lane = rec.lane(0, 0);
        let run = run_lane.open(0, "run");
        for rep in 0..TRACED_REPS {
            let mut lane = rec.lane(0, rep);
            let open = lane.open(run.id, &format!("rep[{rep}]"));
            let t = timed_rep(w.as_ref(), &mut lane, open.id);
            lane.close(open);
            traced_walls.push(t.wall_s);
            checks.add(&format!("traced rep {rep}"), &t.out);
        }
        run_lane.close(run);
    }
    let spans = rec.take();
    values.extend(shares(&spans));
    values.insert("proc.trace_overhead_pct", (median(&traced_walls) / wall_s - 1.0) * 100.0);

    // One repetition under the simulator's own trace session.
    let session = sim::TraceSession::begin();
    let sink = timed_rep(w.as_ref(), &mut Lane::off(), 0);
    let events = session.finish();
    checks.add("sim-traced rep", &sink.out);
    values.insert("sim.trace_sink_overhead_pct", (sink.wall_s / wall_s - 1.0) * 100.0);
    values.extend(analyze(&events));
    values.insert("apps.kv.slo_miss_share", slo_miss_share(&events, SLO_LIMIT_NS));
    drop(events);

    values.insert("proc.threads_peak", host::threads_peak() as f64);
    values.insert("proc.peak_rss_mb", host::peak_rss_mb());

    let sizes = w.sizes();
    let trace = span::chrome_trace(&spans, host::fingerprint(seed, sizes.clone()));
    let path = format!("LEDGER_trace_{name}.json");
    if let Err(e) = std::fs::write(&path, trace.line()) {
        checks.failures.push(format!("writing {path}: {e}"));
    }

    Some(Measured {
        workload: name.to_string(),
        seed,
        attempted: checks.attempted,
        failed: checks.failed,
        failures: checks.failures,
        metrics: PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, values.get(m.name).copied().unwrap_or(0.0)))
            .collect(),
        walls,
        sizes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::ClassTotal;

    fn span(id: u64, parent: u64, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, name: name.into(), start_ns, end_ns, rep: 0, lane: 0, classes: vec![] }
    }

    #[test]
    fn shares_cover_the_ranks_and_the_rest_of_the_repetition() {
        let mut rank0 = span(3, 2, "rank[0]", 10, 90);
        rank0.classes = vec![
            ClassTotal { class: "mem.read", count: 4, total_ns: 20, max_ns: 9 },
            ClassTotal { class: "clock.compute", count: 1, total_ns: 4, max_ns: 4 },
        ];
        let spans = vec![
            span(1, 0, "rep[0]", 0, 100),
            span(2, 1, "cluster.run", 5, 95),
            rank0,
            span(4, 3, "sync.barrier", 20, 50),
            span(5, 3, "sync.lock", 50, 56),
            span(6, 2, "rank[1]", 20, 80),
        ];
        let s = shares(&spans);
        // 140 ns of rank time: 20 reading, 30 in a barrier, 6 locking,
        // 4 charging compute, the remaining 80 the application's own.
        assert!((s["apps.mem_read_share"] - 20.0 / 140.0).abs() < 1e-12);
        assert!((s["apps.barrier_share"] - 30.0 / 140.0).abs() < 1e-12);
        assert!((s["apps.lock_share"] - 6.0 / 140.0).abs() < 1e-12);
        assert!((s["apps.self_share"] - 80.0 / 140.0).abs() < 1e-12);
        let total: f64 = s.iter().filter(|(k, _)| k.starts_with("apps.")).map(|(_, v)| v).sum();
        assert!((total - 1.0).abs() < 1e-12);
        // The ranks cover [10, 90) of the repetition's [0, 100).
        assert!((s["proc.outside_rank_share"] - 0.2).abs() < 1e-12);
    }

    #[test]
    fn contract_line_has_exactly_the_contract_keys() {
        let m = Measured {
            workload: "w".into(),
            seed: 1,
            attempted: 7,
            failed: 0,
            failures: vec![],
            metrics: vec![("wall_s", "s", 0.25)],
            walls: vec![0.25; 5],
            sizes: Json::from(true),
        };
        assert_eq!(
            m.contract_line(),
            r#"{"correct":true,"attempted":7,"failed":0,"metrics":{"wall_s":{"value":0.25,"unit":"s"}}}"#
        );
        assert!(!Measured { failed: 1, ..m }.correct());
    }

    #[test]
    fn kv_requests_past_the_limit_miss() {
        let ev = |module, dur_ns| sim::TraceEvent {
            t_ns: 0,
            dur_ns,
            node: 0,
            module,
            op: "get",
            arg: 0,
            corr: 0,
        };
        let events = [ev("kv", 10), ev("kv", 30), ev("net", 99), ev("kv", 21), ev("kv", 20)];
        assert_eq!(slo_miss_share(&events, 20), 0.5);
        assert_eq!(slo_miss_share(&[], 20), 0.0);
    }
}
