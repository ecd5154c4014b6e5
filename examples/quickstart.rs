//! Quickstart: the same shared-memory program on all three platforms.
//!
//! ```sh
//! cargo run --example quickstart
//! ```
//!
//! Demonstrates the paper's core claim (§5.4): the program below is
//! written once against the HAMSTER interface and runs unmodified on
//! hardware shared memory (SMP), the hybrid DSM (SCI-style cluster),
//! and the software DSM (Ethernet Beowulf) — only the configuration
//! changes.

use hamster::core::{Access, ClusterConfig, Hamster, PlatformKind, Runtime};

/// A small parallel histogram: every node bins its slice of synthetic
/// data into a shared table under a lock, then everyone verifies the
/// total after a barrier.
fn histogram(ham: &Hamster) -> u64 {
    const BINS: usize = 16;
    const PER_NODE: usize = 10_000;

    let table = ham.mem().alloc_default(BINS * 8).expect("alloc histogram");
    ham.sync().barrier(1);

    // Bin my share of the data (deterministic pseudo-data).
    let mut local = [0u64; BINS];
    let me = ham.task().rank() as u64;
    for i in 0..PER_NODE as u64 {
        let sample = (me * 1_000_003 + i).wrapping_mul(2654435761) >> 7;
        local[(sample % BINS as u64) as usize] += 1;
    }
    ham.compute(PER_NODE as u64 * 10);

    // Merge into the shared table under a lock (a consistency scope on
    // the software DSM, a plain lock on coherent hardware).
    ham.cons().acquire_scope(1);
    for (b, &count) in local.iter().enumerate() {
        let addr = table.at(b * 8);
        let cur = ham.mem().read_u64(addr);
        ham.mem().write_u64(addr, cur + count);
    }
    ham.cons().release_scope(1);
    ham.cons().barrier_sync(2);

    (0..BINS).map(|b| ham.mem().read_u64(table.at(b * 8))).sum()
}

fn main() {
    for platform in [PlatformKind::Smp, PlatformKind::HybridDsm, PlatformKind::SwDsm] {
        let cfg = ClusterConfig::new(4, platform);
        let rt = Runtime::new(cfg);
        let (report, totals) = rt.run(histogram);
        assert!(totals.iter().all(|&t| t == 40_000), "histogram lost samples");
        println!(
            "{platform:?}: total = {} samples, virtual time = {:.3} ms, \
             messages = {}",
            totals[0],
            report.sim_time_ns as f64 / 1e6,
            report.net_stats["requests"] + report.net_stats["posts"],
        );
    }
    println!("\nSame binary, three platforms — only the configuration changed.");
}
