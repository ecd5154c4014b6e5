//! The metric catalogue: every name the benchmark prints, with unit,
//! clock and direction. `--list` prints it, `BENCHMARK.json` repeats it
//! (a test keeps the two equal), and the README explains it.

/// Which clock a metric reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// The simulator itself: wall or CPU time of this process.
    Host,
    /// The modelled cluster: simulated nanoseconds.
    Virtual,
    /// A count or a size; no clock.
    None,
}

impl Clock {
    pub fn name(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Virtual => "virtual",
            Clock::None => "-",
        }
    }
}

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub better: Better,
    /// The share of the parent's median by which the metric may get
    /// worse before a change counts as a regression.
    pub bound: f64,
    pub what: &'static str,
}

/// A metric of one layer (crate). No bound: it explains, it does not gate.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub better: Better,
}

/// The workload names, fixed: later issues cite them.
pub fn workload_names() -> impl Iterator<Item = &'static str> {
    WORKLOADS.iter().map(|w| w.0)
}

/// Why each workload exists, one line each.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "kernels-swdsm",
        "paper kernels on the software DSM: page fetch, twin, diff, notices, managers and fabric all work",
    ),
    (
        "kernels-hwpath",
        "same kernels on SMP and hybrid DSM: no page protocol, so swdsm/memwire changes must not move it",
    ),
    (
        "fabric-relay",
        "64-node token relay, bulk pages, post flood and rpc: interconnect and scheduler alone, no DSM or apps",
    ),
    (
        "serve-kv",
        "open-loop KV service on the software DSM: 64-byte gets, sparse diffs, telemetry, retries under chaos",
    ),
];

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        clock: Clock::Host,
        better: Better::Lower,
        bound: 0.25,
        what: "median of five set-ups: generate inputs, compute references, one warm-up repetition",
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        clock: Clock::Host,
        better: Better::Lower,
        bound: 0.15,
        what: "median wall time of one repetition, cluster bring-up and teardown included",
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        clock: Clock::Host,
        better: Better::Lower,
        bound: 0.15,
        what: "user+sys CPU per repetition (/proc/self/stat over the timed repetitions)",
    },
    EndToEnd {
        name: "sim_s",
        unit: "s",
        clock: Clock::Virtual,
        better: Better::Lower,
        bound: 0.01,
        what: "median over repetitions of the summed virtual makespans of the kernels or legs",
    },
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        clock: Clock::Host,
        better: Better::Higher,
        bound: 0.15,
        what: "work units per host second: HAMSTER calls (kernels), fabric deliveries (relay), requests (kv)",
    },
];

const fn host(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, clock: Clock::Host, better: Better::Lower }
}
const fn rate(name: &'static str) -> PerLayer {
    PerLayer { name, unit: "1/s", clock: Clock::Host, better: Better::Higher }
}
const fn count(name: &'static str) -> PerLayer {
    PerLayer { name, unit: "count", clock: Clock::None, better: Better::Lower }
}
const fn sized(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, clock: Clock::None, better: Better::Lower }
}
const fn virt(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, clock: Clock::Virtual, better: Better::Lower }
}

pub const PER_LAYER: [PerLayer; 101] = [
    // sim: what one charge, counter bump or trace record costs the host.
    host("sim.clock_advance_ns", "ns"),
    host("sim.server_serve_ns", "ns"),
    host("sim.bus_transfer_ns", "ns"),
    host("sim.bus_transfer_contended_ns", "ns"),
    host("sim.statset_add_ns", "ns"),
    host("sim.sketch_record_ns", "ns"),
    host("sim.trace_emit_on_ns", "ns"),
    host("sim.trace_emit_off_ns", "ns"),
    host("sim.trace_sink_overhead_pct", "%"),
    // memwire: twin and diff against the raw memcpy yardstick.
    host("memwire.memcpy_4k_ns", "ns"),
    host("memwire.twin_4k_ns", "ns"),
    host("memwire.diff_create_sparse_ns", "ns"),
    host("memwire.diff_create_dense_ns", "ns"),
    host("memwire.diff_apply_sparse_ns", "ns"),
    host("memwire.diff_apply_dense_ns", "ns"),
    sized("memwire.diff_wire_bytes_sparse", "bytes"),
    sized("memwire.diff_wire_bytes_dense", "bytes"),
    // interconnect: the fabric alone, then its counters per workload.
    host("interconnect.rtt_ns_p50", "ns"),
    host("interconnect.rtt_ns_p99", "ns"),
    host("interconnect.post_ns", "ns"),
    rate("interconnect.relay_events_per_s"),
    rate("interconnect.bulk_events_per_s"),
    rate("interconnect.flood_events_per_s"),
    host("interconnect.build_teardown_ms_64", "ms"),
    count("interconnect.delivered"),
    count("interconnect.requests"),
    count("interconnect.posts"),
    sized("interconnect.bytes", "bytes"),
    count("interconnect.retries"),
    count("interconnect.timeouts"),
    count("interconnect.dedup_hits"),
    count("interconnect.faults_dropped"),
    count("interconnect.backpressure_waits"),
    host("interconnect.host_ns_per_event", "ns"),
    // cluster: paid once per kernel run.
    host("cluster.bringup_ms_4", "ms"),
    host("cluster.bringup_ms_64", "ms"),
    // swdsm: the access path, the protocol's host cost, its counters.
    host("swdsm.local_read_u64_ns", "ns"),
    host("swdsm.local_write_u64_ns", "ns"),
    host("swdsm.bulk_read_4k_ns", "ns"),
    host("swdsm.remote_fetch_host_us", "us"),
    host("swdsm.barrier_host_us", "us"),
    host("swdsm.lock_handoff_host_us", "us"),
    count("swdsm.getpages"),
    count("swdsm.diffs"),
    sized("swdsm.diff_bytes", "bytes"),
    count("swdsm.twins"),
    count("swdsm.traps"),
    count("swdsm.invalidations"),
    count("swdsm.barriers"),
    count("swdsm.lock_acquires"),
    count("swdsm.sync_msgs"),
    count("swdsm.evictions"),
    // hybriddsm
    host("hybriddsm.local_read_u64_ns", "ns"),
    host("hybriddsm.remote_read_u64_ns", "ns"),
    host("hybriddsm.barrier_host_us", "us"),
    count("hybriddsm.remote_reads"),
    count("hybriddsm.remote_writes"),
    count("hybriddsm.flushes"),
    count("hybriddsm.barriers"),
    host("hybriddsm.wall_s", "s"),
    // hamster-core
    host("hamster-core.smp_read_u64_ns", "ns"),
    host("hamster-core.smp_wall_s", "s"),
    host("hamster-core.telemetry_record_ns", "ns"),
    host("hamster-core.adapter_overhead_pct", "%"),
    count("hamster-core.mem_reads"),
    count("hamster-core.mem_writes"),
    sized("hamster-core.bulk_bytes", "bytes"),
    count("hamster-core.sync_barriers"),
    count("hamster-core.sync_locks"),
    // models
    host("models.jia_read_overhead_ns", "ns"),
    host("models.shmem_put_4k_ns", "ns"),
    // apps: where a rank's host time goes, from the trace.
    host("apps.self_share", "ratio"),
    host("apps.mem_read_share", "ratio"),
    host("apps.mem_write_share", "ratio"),
    host("apps.barrier_share", "ratio"),
    host("apps.lock_share", "ratio"),
    host("apps.compute_charge_share", "ratio"),
    host("apps.bus_charge_share", "ratio"),
    rate("apps.kv.hot_req_per_s"),
    rate("apps.kv.wide_req_per_s"),
    rate("apps.kv.chaos_req_per_s"),
    virt("apps.kv.wide_p50_us", "us"),
    virt("apps.kv.wide_p99_us", "us"),
    virt("apps.kv.hot_p99_us", "us"),
    virt("apps.kv.chaos_p99_us", "us"),
    virt("apps.kv.slo_miss_share", "ratio"),
    count("apps.kv.hot_getpages_per_req"),
    count("apps.kv.wide_getpages_per_req"),
    // analyzer
    rate("analyzer.events_per_s"),
    virt("analyzer.cp_barrier_wait_share", "ratio"),
    virt("analyzer.cp_network_share", "ratio"),
    virt("analyzer.cp_compute_share", "ratio"),
    // proc: the process, not a crate.
    sized("proc.peak_rss_mb", "MB"),
    count("proc.threads_peak"),
    host("proc.trace_overhead_pct", "%"),
    host("proc.outside_rank_share", "ratio"),
    count("proc.drift_sim_distinct"),
    count("proc.drift_counter_distinct"),
    count("proc.reps_untraced"),
    virt("proc.sim_s", "s"),
    host("proc.wall_s", "s"),
];

/// The catalogue as `--list` prints it.
pub fn list() -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    writeln!(out, "workloads").expect("write to string");
    for (name, why) in WORKLOADS {
        writeln!(out, "  {name:<16} {why}").expect("write to string");
    }
    writeln!(out, "end-to-end metrics (every workload)").expect("write to string");
    for m in &END_TO_END {
        writeln!(
            out,
            "  {:<12} {:<5} {:<8} {:<7} bound {:>4.0}%  {}",
            m.name,
            m.unit,
            m.clock.name(),
            m.better.name(),
            m.bound * 100.0,
            m.what
        )
        .expect("write to string");
    }
    writeln!(out, "per-layer metrics (traced run, no bound)").expect("write to string");
    for m in &PER_LAYER {
        writeln!(out, "  {:<40} {:<6} {:<8} {}", m.name, m.unit, m.clock.name(), m.better.name())
            .expect("write to string");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::json::Value;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        sim::json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn field<'a>(v: &'a Value, key: &str) -> &'a str {
        v.get(key).and_then(|s| s.as_str()).unwrap_or_else(|| panic!("missing {key}"))
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(WORKLOADS.iter().map(|w| w.0));
        for n in &names {
            assert!(
                n.len() <= 64 && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn list_equals_benchmark_json() {
        let doc = benchmark_json();
        let workloads = doc.get("workloads").and_then(|w| w.as_array()).expect("workloads");
        let got: Vec<(&str, &str)> =
            workloads.iter().map(|w| (field(w, "name"), field(w, "why"))).collect();
        assert_eq!(got, WORKLOADS.to_vec());

        let e2e = doc.get("end_to_end").and_then(|w| w.as_array()).expect("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit, "{}", m.name);
            assert_eq!(field(j, "better"), m.better.name(), "{}", m.name);
            assert_eq!(j.get("bound").and_then(|b| b.as_num()), Some(m.bound), "{}", m.name);
        }

        let layers = doc.get("per_layer").and_then(|w| w.as_array()).expect("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit, "{}", m.name);
            assert_eq!(field(j, "better"), m.better.name(), "{}", m.name);
        }
        let listed = list();
        for m in &PER_LAYER {
            assert!(listed.contains(m.name));
        }
    }
}
