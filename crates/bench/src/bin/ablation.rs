//! Ablation studies for the design choices called out in DESIGN.md:
//!
//! 1. Diff-based vs whole-page write-back (software DSM).
//! 2. Write notices on lock grants (scope consistency) vs conservative
//!    invalidate-everything acquires.
//! 3. HAMSTER's unified messaging layer on vs off.
//! 4. Home placement: block vs cyclic pages for the SOR grid.
//! 5. Adaptive home migration for misplaced pages (JiaJia's
//!    optimization, off by default in the calibrated runs).
//! 6. Barrier algorithm: centralized manager vs tree.

use apps::world::{run_hamster, run_native};
use apps::BenchResult;
use bench::suite::Sizes;
use bench::Args;
use hamster_core::{ClusterConfig, PlatformKind};
use swdsm::DsmConfig;

fn native_sor(nodes: usize, cfg: DsmConfig, n: usize, iters: usize, opt: bool) -> f64 {
    let (_, rs) = run_native(nodes, cfg, |w| apps::sor::sor(w, n, iters, opt));
    BenchResult::merge(&rs).total_ns as f64 / 1e9
}

fn native_lu(nodes: usize, cfg: DsmConfig, n: usize) -> f64 {
    let (_, rs) = run_native(nodes, cfg, |w| apps::lu::lu(w, n));
    BenchResult::merge(&rs).total_ns as f64 / 1e9
}

fn native_water(nodes: usize, cfg: DsmConfig, nmol: usize, steps: usize) -> f64 {
    let (_, rs) = run_native(nodes, cfg, |w| apps::water::water(w, nmol, steps));
    BenchResult::merge(&rs).total_ns as f64 / 1e9
}

fn main() {
    let args = Args::parse(4);
    let sizes = Sizes::choose(args.quick);
    let nodes = args.nodes;

    println!("Ablation studies (software-DSM platform, {} nodes)", nodes);
    println!("{:=<74}", "");

    // 1. Diffs vs whole pages.
    let base = DsmConfig::default();
    let pages = DsmConfig { whole_page_writeback: true, ..base };
    println!("\n[1] Release write-back: run-length diffs vs whole pages");
    for (name, t_diff, t_page) in [
        (
            "SOR (unopt)",
            native_sor(nodes, base, sizes.sor_n, sizes.sor_iters, false),
            native_sor(nodes, pages, sizes.sor_n, sizes.sor_iters, false),
        ),
        ("LU", native_lu(nodes, base, sizes.lu_n), native_lu(nodes, pages, sizes.lu_n)),
    ] {
        println!(
            "  {name:<12} diffs {t_diff:>9.4}s   whole-page {t_page:>9.4}s   ({:+.1}% from diffs)",
            (t_page - t_diff) / t_diff * 100.0
        );
    }

    // 2. Lock notices vs conservative invalidation.
    let conservative = DsmConfig { notices_on_locks: false, ..base };
    println!("\n[2] Acquire consistency: scope notices vs invalidate-all");
    let t_scope = native_water(nodes, base, sizes.water_a, sizes.water_steps);
    let t_cons = native_water(nodes, conservative, sizes.water_a, sizes.water_steps);
    println!(
        "  WATER {a:<6} notices {t_scope:>9.4}s   invalidate-all {t_cons:>9.4}s   ({p:+.1}%)",
        a = sizes.water_a,
        p = (t_cons - t_scope) / t_scope * 100.0
    );

    // 3. Unified messaging layer.
    println!("\n[3] HAMSTER unified messaging layer: on vs off");
    let mut cfg_on = ClusterConfig::new(nodes, PlatformKind::SwDsm);
    cfg_on.unified_messaging = true;
    let mut cfg_off = cfg_on.clone();
    cfg_off.unified_messaging = false;
    let t_on = {
        let (_, rs) = run_hamster(&cfg_on, |w| apps::lu::lu(w, sizes.lu_n));
        BenchResult::merge(&rs).total_ns as f64 / 1e9
    };
    let t_off = {
        let (_, rs) = run_hamster(&cfg_off, |w| apps::lu::lu(w, sizes.lu_n));
        BenchResult::merge(&rs).total_ns as f64 / 1e9
    };
    println!(
        "  LU           unified {t_on:>9.4}s   separate stacks {t_off:>9.4}s   ({:+.1}%)",
        (t_on - t_off) / t_off * 100.0
    );

    // 4. Home placement for the SOR grid.
    println!("\n[4] Home placement (SOR): partition-aligned (opt) vs round-robin (unopt)");
    let t_aligned = native_sor(nodes, base, sizes.sor_n, sizes.sor_iters, true);
    let t_cyclic = native_sor(nodes, base, sizes.sor_n, sizes.sor_iters, false);
    println!(
        "  SOR          aligned {t_aligned:>9.4}s   round-robin {t_cyclic:>9.4}s   ({:.1}x)",
        t_cyclic / t_aligned
    );

    // 5. Home migration rescues misplaced pages.
    println!("\n[5] Adaptive home migration (SOR with round-robin homes)");
    let migrating = DsmConfig { home_migration: true, ..base };
    let t_mig = native_sor(nodes, migrating, sizes.sor_n, sizes.sor_iters, false);
    println!(
        "  SOR (unopt)  static homes {t_cyclic:>9.4}s   migrating {t_mig:>9.4}s   ({:+.1}%)",
        (t_mig - t_cyclic) / t_cyclic * 100.0
    );

    // 6. Barrier algorithm at scale: a barrier-heavy kernel on 8 nodes.
    println!("\n[6] Barrier algorithm (8 nodes, barrier-dominated kernel)");
    let barrier_kernel = |sync: cluster::SyncTopology| {
        let (_, rs) = apps::world::run_native_sync(8, base, sync, |w| {
            use apps::world::World;
            let a = w.alloc_dist(8 * 4096, memwire::Distribution::Cyclic);
            w.barrier(1);
            let t0 = w.now_ns();
            for round in 0..40u64 {
                w.write_u64(a.add(w.rank() as u32 * 4096), round);
                w.barrier(2);
            }
            w.now_ns() - t0
        });
        rs.into_iter().max().unwrap() as f64 / 1e9
    };
    let t_central = barrier_kernel(cluster::SyncTopology::centralized());
    let t_tree = barrier_kernel(cluster::SyncTopology {
        barrier: cluster::BarrierTopology::Tree { fanout: 4 },
        ..cluster::SyncTopology::centralized()
    });
    println!(
        "  40 barriers  central {t_central:>9.4}s   tree:4 {t_tree:>9.4}s ({:+.1}%)",
        (t_tree - t_central) / t_central * 100.0
    );
}
