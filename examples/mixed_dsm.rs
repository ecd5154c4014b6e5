//! The paper's §6 vision, running: several DSM mechanisms combined
//! within a single application.
//!
//! ```sh
//! cargo run --release --example mixed_dsm
//! ```
//!
//! An irregular-update workload over a large array: bulk data has good
//! locality (page-based engine amortizes whole pages), but a small,
//! hot, finely shared index is poison for a page protocol (every update
//! invalidates whole pages cluster-wide). The mixed platform lets the
//! application place each allocation on the engine that suits it —
//! "custom-tailored, shared memory solutions for individual
//! applications".

use hamster::core::{
    Access, AllocSpec, ClusterConfig, Distribution, EngineHint, Hamster, PlatformKind, Runtime,
};

const ROUNDS: u64 = 20;
const TABLE_WORDS: usize = 4096;

fn workload(ham: &Hamster, index_engine: EngineHint) -> u64 {
    let nodes = ham.task().nodes();
    // Bulk table: block-distributed, page-based (good locality).
    let table = ham
        .mem()
        .alloc(
            TABLE_WORDS * 8,
            AllocSpec { dist: Distribution::Block, ..Default::default() },
        )
        .unwrap();
    // Hot index: one counter per node, finely shared every round.
    let index = ham
        .mem()
        .alloc(
            nodes * 4096,
            AllocSpec {
                dist: Distribution::Cyclic,
                engine: index_engine,
                ..Default::default()
            },
        )
        .unwrap();
    ham.sync().barrier(1);

    let me = ham.task().rank();
    let (lo, hi) = {
        let per = TABLE_WORDS.div_ceil(nodes);
        (me * per, ((me + 1) * per).min(TABLE_WORDS))
    };
    for round in 0..ROUNDS {
        // Bulk phase: update my table block (page engine, home-local).
        for w in lo..hi {
            let a = table.at(w * 8);
            let v = ham.mem().read_u64(a);
            ham.mem().write_u64(a, v + round);
        }
        // Fine-grained phase: publish my progress, read everyone's.
        ham.mem().write_u64(index.at(me * 4096), round + 1);
        ham.cons().barrier_sync(2);
        let mut progress = 0;
        for peer in 0..nodes {
            progress += ham.mem().read_u64(index.at(peer * 4096));
        }
        assert_eq!(progress, (round + 1) * nodes as u64);
        ham.cons().barrier_sync(3);
    }
    ham.wtime_ns()
}

fn main() {
    let mut times = Vec::new();
    for (label, engine) in [
        ("hot index page-based (pure software-DSM style)", EngineHint::PageBased),
        ("hot index word-based (mixed, §6)", EngineHint::WordBased),
    ] {
        let rt = Runtime::new(ClusterConfig::new(4, PlatformKind::Mixed));
        let (report, _) = rt.run(|ham| workload(ham, engine));
        println!("{label:<48} {:>9.3} ms virtual", report.sim_time_ns as f64 / 1e6);
        times.push(report.sim_time_ns as f64);
    }
    println!(
        "\nplacing only the hot structure on the word-based engine wins {:.1}x —\n\
         the bulk data stays page-based and keeps its locality amortization.",
        times[0] / times[1]
    );
}
