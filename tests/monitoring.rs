//! Workspace-level integration: the monitoring story of paper §4.3.
//!
//! Performance statistics must be (a) per-module, (b) queryable and
//! resettable independently, (c) maintained regardless of platform, and
//! (d) reflect the protocol work actually performed underneath.

use hamster::core::{Access, ClusterConfig, PlatformKind, Runtime};
use hamster::cluster::DataPath;

#[test]
fn module_counters_track_a_mixed_workload() {
    let rt = Runtime::new(ClusterConfig::new(2, PlatformKind::SwDsm));
    let (_, snaps) = rt.run(|ham| {
        let r = ham.mem().alloc_default(8192).unwrap();
        ham.sync().barrier(1);
        for i in 0..4u32 {
            ham.sync().lock(5);
            let v = ham.mem().read_u64(r.addr().add(i * 8));
            ham.mem().write_u64(r.addr().add(i * 8), v + 1);
            ham.sync().unlock(5);
        }
        ham.cons().barrier_sync(2);
        if ham.task().rank() == 0 {
            ham.cluster().send(1, 1, vec![0xAB]);
        } else {
            let _ = ham.cluster().recv(1);
        }
        (
            ham.monitor().query("mem"),
            ham.monitor().query("sync"),
            ham.monitor().query("cons"),
            ham.monitor().query("cluster"),
        )
    });
    let (mem, sync, cons, cluster) = &snaps[0];
    assert_eq!(mem["allocs"], 1);
    assert_eq!(mem["reads"], 4);
    assert_eq!(mem["writes"], 4);
    assert_eq!(sync["locks"], 4);
    assert_eq!(sync["unlocks"], 4);
    assert_eq!(cons["sync_barriers"], 1);
    assert_eq!(cluster["msgs_sent"], 1);
    let (_, _, _, cluster1) = &snaps[1];
    assert_eq!(cluster1["msgs_recv"], 1);
}

#[test]
fn platform_statistics_expose_protocol_work() {
    // The DSM-level counters underneath the module counters: remote
    // fetches and diffs on the software DSM, remote accesses on the
    // hybrid DSM — "the amount of information provided may depend on
    // the base architecture capabilities" (paper §4.3, footnote).
    let rt = Runtime::new(ClusterConfig::new(2, PlatformKind::SwDsm));
    let (_, _) = rt.run(|ham| {
        let r = ham.mem().alloc(
            4096,
            hamster::core::AllocSpec {
                dist: hamster::core::Distribution::OnNode(0),
                ..Default::default()
            },
        )
        .unwrap();
        ham.sync().barrier(1);
        if ham.task().rank() == 1 {
            ham.mem().write_u64(r.addr(), 5);
        }
        ham.cons().barrier_sync(2);
    });
    let stats1 = rt.platform_stats(1);
    assert_eq!(stats1["getpages"], 1, "remote write-allocate fetch missing");
    assert!(stats1["diffs"] >= 1, "release must ship a diff");
    assert!(stats1["twins"] >= 1);

    let rt = Runtime::new(ClusterConfig::new(2, PlatformKind::HybridDsm));
    let (_, _) = rt.run(|ham| {
        let r = ham.mem().alloc(
            4096,
            hamster::core::AllocSpec {
                dist: hamster::core::Distribution::OnNode(0),
                ..Default::default()
            },
        )
        .unwrap();
        ham.sync().barrier(1);
        if ham.task().rank() == 1 {
            ham.mem().write_u64(r.addr(), 5);
        }
        ham.cons().barrier_sync(2);
    });
    let stats1 = rt.platform_stats(1);
    assert_eq!(stats1["remote_writes"], 1);
    assert!(stats1["flushes"] >= 1);
}

#[test]
fn external_monitor_can_watch_without_cooperation() {
    // "An independent monitoring system may attach externally" (§4.3):
    // read another node's module counters from outside the run loop.
    let rt = Runtime::new(ClusterConfig::new(2, PlatformKind::Smp));
    let (_, monitors) = rt.run(|ham| {
        let r = ham.mem().alloc_default(64).unwrap();
        ham.sync().barrier(1);
        ham.mem().write_u64(r.addr(), 1);
        ham.sync().barrier(2);
        // Hand the monitor handle out of the run (it is cheap+shared).
        ham.monitor().clone()
    });
    // After the run, the "external tool" inspects node 1's counters.
    assert!(monitors[1].query("mem")["writes"] >= 1);
    assert!(monitors[1].query("sync")["barriers"] >= 2);
}

#[test]
fn traced_sor_run_covers_all_modules_and_exports_chrome_json() {
    // The full observability story in one run: a 2-node SOR benchmark
    // through the JiaJia adapter on the software DSM, with the global
    // trace session open. Afterwards (a) every one of the five
    // management modules has counted work, and (b) the collected
    // timeline exports to schema-valid Chrome trace JSON.
    use hamster::apps::world::run_hamster;
    use hamster::core::{chrome_trace_json, validate_chrome_trace};

    let session = hamster::sim::trace::TraceSession::begin();
    let cfg = ClusterConfig::new(2, PlatformKind::SwDsm);
    let (report, snaps) = run_hamster(&cfg, |w| {
        let r = hamster::apps::sor::sor(w, 32, 4, false);
        assert_ne!(r.checksum, 0);
        let ham = w.ham();
        // SOR exercises mem and cons; touch the remaining modules so
        // all five stat sets see protocol work in the same run.
        ham.sync().barrier(9);
        let _ = ham.cluster().nodes();
        if ham.task().rank() == 0 {
            let t = ham.task().remote_exec(1, |_| {});
            ham.task().join(t);
        }
        ham.sync().barrier(10);
        (
            ham.monitor().query("mem"),
            ham.monitor().query("cons"),
            ham.monitor().query("sync"),
            ham.monitor().query("task"),
            ham.monitor().query("cluster"),
            w.jia().adapter_stats().api_calls(),
        )
    });
    let events = session.finish();
    assert_eq!(report.nodes, 2);

    let (mem, cons, sync, task, cluster, api_calls) = &snaps[0];
    assert!(mem["allocs"] >= 2, "SOR allocates two grids");
    assert!(mem["reads"] > 0 && mem["writes"] > 0);
    assert!(cons["sync_barriers"] > 0, "jia_barrier maps to barrier_sync");
    assert!(sync["barriers"] >= 2);
    assert_eq!(task["remote_spawns"], 1);
    assert_eq!(task["joins"], 1);
    assert!(cluster["queries"] >= 1);
    assert!(*api_calls > 0, "adapter call counter saw the benchmark");
    // Node 1 worked too.
    let (mem1, ..) = &snaps[1];
    assert!(mem1["reads"] > 0);

    // The trace saw the protocol layers underneath: DSM engine, the
    // messaging fabric, and the benchmark's phase timeline.
    assert!(!events.is_empty());
    for layer in ["swdsm", "net", "phase"] {
        assert!(
            events.iter().any(|e| e.module == layer),
            "no {layer} events on the timeline"
        );
    }
    assert!(events.iter().any(|e| e.node == 1), "node 1 emitted nothing");

    let json = chrome_trace_json(&events);
    let n = validate_chrome_trace(&json).expect("schema-valid Chrome trace");
    assert_eq!(n, events.len());
}

#[test]
fn reset_between_phases_isolates_measurements() {
    let rt = Runtime::new(ClusterConfig::new(2, PlatformKind::HybridDsm));
    let (_, counts) = rt.run(|ham| {
        let r = ham.mem().alloc_default(4096).unwrap();
        ham.sync().barrier(1);
        // Phase 1: 10 writes.
        for i in 0..10u32 {
            ham.mem().write_u64(r.addr().add(i * 8), 1);
        }
        let phase1 = ham.monitor().query("mem")["writes"];
        ham.monitor().reset("mem");
        // Phase 2: 3 writes.
        for i in 0..3u32 {
            ham.mem().write_u64(r.addr().add(i * 8), 2);
        }
        let phase2 = ham.monitor().query("mem")["writes"];
        ham.sync().barrier(2);
        (phase1, phase2)
    });
    assert_eq!(counts[0], (10, 3));
}

/// The counter names OBSERVABILITY.md §4 documents under `heading`:
/// the first cell of every table row, and every backticked lower-case
/// identifier of the prose outside parentheses (parentheses hold the
/// explanations, which name functions, types and files).
fn documented_counters(heading: &str) -> std::collections::BTreeSet<String> {
    let doc = include_str!("../OBSERVABILITY.md");
    let (_, rest) = doc.split_once(heading).unwrap_or_else(|| panic!("{heading:?} is gone"));
    let section = rest.split("\n##").next().unwrap();
    let mut text = String::new();
    for line in section.lines() {
        match line.strip_prefix('|') {
            Some(row) => text.push_str(row.split('|').next().unwrap()),
            None => text.push_str(line),
        }
        text.push('\n');
    }
    let mut depth = 0usize;
    text.retain(|c| {
        depth += usize::from(c == '(');
        let keep = depth == 0;
        depth -= usize::from(c == ')' && depth > 0);
        keep
    });
    let is_counter = |s: &&str| {
        s.starts_with(|c: char| c.is_ascii_lowercase())
            && s.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
    };
    text.split('`').skip(1).step_by(2).filter(is_counter).map(str::to_string).collect()
}

#[test]
fn counter_reference_matches_the_registered_stat_names() {
    for (heading, names) in [
        ("### Synchronisation driver", hamster::cluster::syncproto::driver::STAT_NAMES),
        ("### Software DSM", hamster::swdsm::Paged::STAT_NAMES),
        ("### Hybrid DSM", hamster::hybriddsm::Numa::STAT_NAMES),
        ("### SMP", hamster::hybriddsm::Uma::STAT_NAMES),
        ("### Interconnect", hamster::interconnect::network::NET_STAT_NAMES),
    ] {
        let code: std::collections::BTreeSet<String> =
            names.iter().map(|s| s.to_string()).collect();
        let doc = documented_counters(heading);
        assert_eq!(doc, code, "OBSERVABILITY.md §4 {heading:?} vs the StatSet the code registers");
    }
}
