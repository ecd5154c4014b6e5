//! `serve`: the multi-tenant KV service workload under the SLO lens.
//!
//! Runs `apps::kv` across all three platforms (SMP / hybrid DSM /
//! SW-DSM), fault-free and under [`chaos_plan`], into a document of
//! schema `hamster-serve-v1`: per-(platform,
//! tenant, op) latency quantiles from the [`sim::stats::Sketch`]
//! telemetry, per-window metrics timeseries (throughput, inflight,
//! retries, view fences), and the SLO-under-faults table. Every number
//! in the artifact is virtual time, so the perf-trend gate holds it
//! exactly.
//!
//! Asserted here:
//!
//! * the three platforms agree on the workload checksum (portability);
//! * two in-process builds produce a byte-identical document (the
//!   driver's check: the telemetry path — sketches, timeseries, fault
//!   binning — is commutative and the simulation below saturation is
//!   schedule-deterministic; CI additionally re-runs the whole binary
//!   and `cmp`s);
//! * for every platform × tenant, the chaos p99 strictly exceeds the
//!   fault-free p99 (faults are visible as user latency, never as
//!   wrong answers — the checksums still match the fault-free run).
//!
//! Flags: `--quick` (CI size), `--nodes N`, `--trace` (also write a
//! Chrome `trace_event` JSON of the chaotic SW-DSM run).

use crate::report::{Report, Table};
use crate::suite::{chaos_plan, platform_name, PLATFORMS, SEED};
use crate::{Args, Built};
use apps::kv::{KvConfig, LoadGen};
use apps::world::run_hamster;
use apps::BenchResult;
use hamster_core::{
    chrome_trace_json, validate_chrome_trace, ClusterConfig, PlatformKind, ServiceOp, Telemetry,
};
use interconnect::fault::FaultPlan;
use sim::json::Value;
use sim::stats::Quantiles;
use sim::TraceSession;

/// Virtual-time metrics window (1 ms).
const WINDOW_NS: u64 = 1_000_000;

struct ServeRun {
    result: BenchResult,
    tel: Telemetry,
    events: Vec<sim::TraceEvent>,
}

fn run_one(nodes: usize, platform: PlatformKind, kv: &KvConfig, faults: Option<FaultPlan>) -> ServeRun {
    let session = TraceSession::begin();
    let mut cfg = ClusterConfig::new(nodes, platform);
    // Below-saturation link windows keep the schedule byte-reproducible
    // (see `crate::suite::PINNED_ETHERNET_BPS`).
    cfg.cost = sim::CostModel::pinned_ethernet();
    cfg.faults = faults;
    let tel = Telemetry::new(kv.tenants, WINDOW_NS);
    let (t2, k2) = (tel.clone(), kv.clone());
    let (_, results) = run_hamster(&cfg, move |w| apps::kv::serve(w, &k2, &t2));
    let events = session.finish();
    // Bin the robustness layer's fault instants into the timeseries.
    for e in &events {
        if e.module == "fault" {
            match e.op {
                "retry" => tel.add_retry(e.t_ns),
                "view_fence" => tel.add_view_fence(e.t_ns),
                _ => {}
            }
        }
    }
    ServeRun { result: BenchResult::merge(&results), tel, events }
}

fn quantiles_json(tenant: usize, op: &str, q: &Quantiles) -> Value {
    Value::obj([
        ("tenant", Value::int(tenant as i64)),
        ("op", Value::str(op)),
        ("count", Value::int(q.count as i64)),
        ("p50", Value::int(q.p50 as i64)),
        ("p90", Value::int(q.p90 as i64)),
        ("p99", Value::int(q.p99 as i64)),
        ("p999", Value::int(q.p999 as i64)),
        ("max", Value::int(q.max as i64)),
        ("mean", Value::int(q.mean as i64)),
    ])
}

fn telemetry_json(tel: &Telemetry) -> (Value, Value) {
    let mut quants = Vec::new();
    for t in 0..tel.tenants() {
        for op in [ServiceOp::Get, ServiceOp::Put] {
            quants.push(quantiles_json(t, op.name(), &tel.quantiles(t, op)));
        }
        quants.push(quantiles_json(t, "all", &tel.tenant_quantiles(t)));
    }
    let rows = tel
        .series_rows()
        .into_iter()
        .map(|r| {
            Value::obj([
                ("name", Value::str(r.name)),
                ("values", Value::Arr(r.values.into_iter().map(Value::int).collect())),
            ])
        })
        .collect();
    let series = Value::obj([
        ("window_ns", Value::int(WINDOW_NS as i64)),
        ("rows", Value::Arr(rows)),
    ]);
    (Value::Arr(quants), series)
}

/// One full sweep: every platform fault-free and under chaos, plus a
/// closed-loop SW-DSM leg. Returns the document, the SLO table and
/// (for `--trace`) the chaotic SW-DSM run's events.
fn sweep(nodes: usize, kv: &KvConfig) -> (Value, Table, Vec<sim::TraceEvent>) {
    let mut platform_docs = Vec::new();
    let mut slo_rows = Vec::new();
    let mut checksums = Vec::new();
    let mut trace_events = Vec::new();
    for p in PLATFORMS {
        let name = platform_name(p);
        eprintln!("serve: {name} base + chaos ({} nodes)...", nodes);
        let base = run_one(nodes, p, kv, None);
        let chaos = run_one(nodes, p, kv, Some(chaos_plan(nodes)));
        assert_eq!(
            base.result.checksum, chaos.result.checksum,
            "{name}: faults changed the answers, not just the latency"
        );
        checksums.push(base.result.checksum);
        let (quants, series) = telemetry_json(&base.tel);
        let (chaos_quants, chaos_series) = telemetry_json(&chaos.tel);
        for t in 0..kv.tenants {
            let bq = base.tel.tenant_quantiles(t);
            let cq = chaos.tel.tenant_quantiles(t);
            assert!(
                cq.p99 > bq.p99,
                "{name} tenant {t}: chaos p99 {} does not exceed fault-free p99 {}",
                cq.p99,
                bq.p99
            );
            slo_rows.push(Value::obj([
                ("platform", Value::str(name)),
                ("tenant", Value::int(t as i64)),
                ("base_p99_ns", Value::int(bq.p99 as i64)),
                ("chaos_p99_ns", Value::int(cq.p99 as i64)),
                ("base_p999_ns", Value::int(bq.p999 as i64)),
                ("chaos_p999_ns", Value::int(cq.p999 as i64)),
                (
                    "added_p99_pct",
                    Value::num(((cq.p99 as f64 / bq.p99 as f64) - 1.0) * 100.0),
                ),
            ]));
        }
        platform_docs.push(Value::obj([
            ("platform", Value::str(name)),
            ("makespan_ns", Value::int(base.result.total_ns as i64)),
            ("chaos_makespan_ns", Value::int(chaos.result.total_ns as i64)),
            ("checksum", Value::str(format!("{:#018x}", base.result.checksum))),
            ("quantiles", quants),
            ("timeseries", series),
            ("chaos_quantiles", chaos_quants),
            ("chaos_timeseries", chaos_series),
        ]));
        if p == PlatformKind::SwDsm {
            trace_events = chaos.events;
        }
    }
    assert!(
        checksums.iter().all(|c| *c == checksums[0]),
        "platforms disagree on the workload result: {checksums:#x?}"
    );

    // Closed-loop generator leg (SW-DSM): load adapts to service speed.
    eprintln!("serve: swdsm closed-loop...");
    let mut closed_cfg = kv.clone();
    closed_cfg.load = LoadGen::ClosedLoop;
    let closed = run_one(nodes, PlatformKind::SwDsm, &closed_cfg, None);
    let (closed_quants, closed_series) = telemetry_json(&closed.tel);
    let closed_doc = Value::obj([
        ("platform", Value::str("swdsm")),
        ("makespan_ns", Value::int(closed.result.total_ns as i64)),
        ("checksum", Value::str(format!("{:#018x}", closed.result.checksum))),
        ("quantiles", closed_quants),
        ("timeseries", closed_series),
    ]);

    let slo_table = Table::new(
        format!("serve: SLO under faults ({nodes} nodes, {} tenants)", kv.tenants),
        &["platform", "tenant", "base_p99_ns", "chaos_p99_ns", "added_p99_pct"],
        &slo_rows,
    );
    let doc = Value::obj([
        ("schema", Value::str("hamster-serve-v1")),
        ("nodes", Value::int(nodes as i64)),
        ("seed", Value::int(SEED as i64)),
        ("tenants", Value::int(kv.tenants as i64)),
        ("keys_per_part", Value::int(kv.keys_per_part as i64)),
        ("rounds", Value::int(kv.rounds as i64)),
        ("batch", Value::int(kv.batch as i64)),
        ("clients", Value::int(kv.clients as i64)),
        ("window_ns", Value::int(WINDOW_NS as i64)),
        ("platforms", Value::Arr(platform_docs)),
        ("slo_under_faults", Value::Arr(slo_rows)),
        ("closed_loop", closed_doc),
    ]);
    (doc, slo_table, trace_events)
}

/// The SLO sweep; under `--trace` also `serve_trace.json`, a Chrome
/// `trace_event` export of the chaotic SW-DSM run.
pub fn serve(args: &Args) -> Built {
    assert!(args.nodes.is_power_of_two(), "--nodes must be a power of two");
    let kv = if args.quick { KvConfig::quick() } else { KvConfig::paper() };
    let (doc, slo, events) = sweep(args.nodes, &kv);
    let mut report = Report::new(doc, vec![slo]);
    if args.trace {
        let json = chrome_trace_json(&events);
        let n = validate_chrome_trace(&json).expect("trace validates");
        eprintln!("serve_trace.json: {n} events, chaotic sw-dsm run");
        report.files.push(("serve_trace.json".into(), json));
    }
    Ok(report)
}
