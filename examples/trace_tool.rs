//! An external monitoring tool attaching to a HAMSTER run (paper §4.3:
//! counters and traces are architecture- and model-independent, so the
//! same tool works on any platform).
//!
//! ```sh
//! cargo run --release --example trace_tool
//! ```
//!
//! Opens a trace session around a small lock/barrier workload, then —
//! from *outside* the application — takes the session's virtual-time
//! timeline (HAMSTER services and every layer below them) and prints a
//! per-module summary alongside the monitoring counters.

use hamster::core::{ClusterConfig, PlatformKind, Runtime, TraceSession};
use std::collections::BTreeMap;

fn main() {
    let session = TraceSession::begin();
    let rt = Runtime::new(ClusterConfig::new(3, PlatformKind::SwDsm));
    let (report, handles) = rt.run(|ham| {
        let r = ham.mem().alloc_default(4096).unwrap();
        ham.sync().barrier(1);
        for _ in 0..3 {
            ham.sync().lock(7);
            let v = ham.mem().read_u64(r.addr());
            ham.mem().write_u64(r.addr(), v + 1);
            ham.sync().unlock(7);
        }
        ham.cons().barrier_sync(2);
        assert_eq!(ham.mem().read_u64(r.addr()), 9);
        // Hand the whole node handle out: the "external tool" below
        // reads counters without the application's help.
        ham.clone()
    });

    // --- the external tool ---
    let timeline = session.finish();
    println!("timeline ({} events):", timeline.len());
    for ev in timeline.iter().take(24) {
        println!(
            "  {:>12.3} µs  node{}  {:>4}.{:<12} arg={}",
            ev.t_ns as f64 / 1e3,
            ev.node,
            ev.module,
            ev.op,
            ev.arg
        );
    }
    if timeline.len() > 24 {
        println!("  … {} more", timeline.len() - 24);
    }

    let mut per_op: BTreeMap<(&str, &str), usize> = BTreeMap::new();
    for ev in &timeline {
        *per_op.entry((ev.module, ev.op)).or_insert(0) += 1;
    }
    println!("\nevent counts:");
    for ((module, op), n) in &per_op {
        println!("  {module}.{op:<14} {n}");
    }

    println!("\nmodule counters (node 0):");
    for module in ["mem", "sync", "cons"] {
        println!("  {module}: {:?}", handles[0].monitor().query(module));
    }
    println!("\nvirtual time: {:.3} ms", report.sim_time_ns as f64 / 1e6);

    // Sanity: lock/unlock alternate correctly in virtual time per node.
    let locks: Vec<_> =
        timeline.iter().filter(|e| e.module == "sync" && e.op != "barrier").collect();
    assert_eq!(locks.len(), 3 * 3 * 2, "expected 3 nodes × 3 lock/unlock pairs");
}
