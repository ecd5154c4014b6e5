//! Shared benchmark-suite driver for the figure binaries.

use apps::world::{run_hamster, run_native, run_native_cost, World};
use apps::BenchResult;
use hamster_core::{ClusterConfig, PlatformKind};

/// Ethernet rate every determinism-gated bench pins (bytes/s):
/// `analyze`, `chaos`, `tune`, `membership`, `scale`, `serve`, fig2 and
/// fig3 all run [`pinned_cost`]. Why, and why 250 MB/s, is told once,
/// at [`sim::CostModel::pinned_ethernet`].
pub use sim::cost::PINNED_ETHERNET_BPS;

/// [`sim::CostModel::pinned_ethernet`], under the name the bins use.
pub fn pinned_cost() -> sim::CostModel {
    sim::CostModel::pinned_ethernet()
}

/// Working-set sizes for one harness run.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub matmult_n: usize,
    pub pi_samples: usize,
    pub sor_n: usize,
    pub sor_iters: usize,
    pub lu_n: usize,
    pub water_a: usize,
    pub water_b: usize,
    pub water_steps: usize,
}

impl Sizes {
    /// The paper's Table 1 working sets.
    pub fn paper() -> Sizes {
        Sizes {
            matmult_n: 1024,
            pi_samples: 10_000_000,
            sor_n: 1024,
            sor_iters: 50,
            lu_n: 1024,
            water_a: 288,
            water_b: 343,
            water_steps: 3,
        }
    }

    /// Reduced sizes for quick runs and CI.
    pub fn quick() -> Sizes {
        Sizes {
            matmult_n: 128,
            pi_samples: 200_000,
            sor_n: 128,
            sor_iters: 10,
            lu_n: 128,
            water_a: 64,
            water_b: 125,
            water_steps: 2,
        }
    }

    /// Choose by flag.
    pub fn choose(quick: bool) -> Sizes {
        if quick {
            Sizes::quick()
        } else {
            Sizes::paper()
        }
    }
}

/// The rows of the paper's figures, in their x-axis order.
pub const ROWS: [&str; 10] = [
    "MatMult",
    "PI",
    "SOR opt",
    "SOR",
    "LU all",
    "LU",
    "LU core",
    "LU bar",
    "WATER 288",
    "WATER 343",
];

/// One system's measurements: virtual seconds per figure row.
#[derive(Debug, Clone)]
pub struct SuiteTimes {
    pub secs: Vec<f64>,
}

impl SuiteTimes {
    /// Time of the named row.
    pub fn of(&self, row: &str) -> f64 {
        self.secs[ROWS.iter().position(|r| *r == row).expect("unknown row")]
    }
}

fn run_all<W: World + 'static>(
    sizes: Sizes,
    repeat: usize,
    run: impl Fn(&(dyn Fn(&W) -> BenchResult + Sync)) -> BenchResult,
) -> SuiteTimes {
    // Take the fastest of `repeat` runs: the queueing models are mildly
    // sensitive to host thread scheduling, and the minimum approximates
    // the undisturbed schedule.
    let best = |bench: &(dyn Fn(&W) -> BenchResult + Sync)| -> BenchResult {
        (0..repeat.max(1))
            .map(|_| run(bench))
            .min_by_key(|r| r.total_ns)
            .expect("at least one run")
    };
    let mm = best(&|w: &W| apps::matmult::matmult(w, sizes.matmult_n));
    let pi = best(&|w: &W| apps::pi::pi(w, sizes.pi_samples));
    let sor_opt = best(&|w: &W| apps::sor::sor(w, sizes.sor_n, sizes.sor_iters, true));
    let sor = best(&|w: &W| apps::sor::sor(w, sizes.sor_n, sizes.sor_iters, false));
    let lu = best(&|w: &W| apps::lu::lu(w, sizes.lu_n));
    let wa = best(&|w: &W| apps::water::water(w, sizes.water_a, sizes.water_steps));
    let wb = best(&|w: &W| apps::water::water(w, sizes.water_b, sizes.water_steps));
    let s = 1e-9;
    SuiteTimes {
        secs: vec![
            mm.total_ns as f64 * s,
            pi.total_ns as f64 * s,
            sor_opt.total_ns as f64 * s,
            sor.total_ns as f64 * s,
            lu.total_ns as f64 * s,
            lu.phases["no_init"] as f64 * s,
            lu.phases["core"] as f64 * s,
            lu.phases["bar"] as f64 * s,
            wa.total_ns as f64 * s,
            wb.total_ns as f64 * s,
        ],
    }
}

/// Run the whole suite natively on the software DSM (no HAMSTER).
pub fn suite_native(nodes: usize, sizes: Sizes) -> SuiteTimes {
    suite_native_repeat(nodes, sizes, 1)
}

/// [`suite_native`] with repeat-and-take-minimum smoothing.
pub fn suite_native_repeat(nodes: usize, sizes: Sizes, repeat: usize) -> SuiteTimes {
    run_all::<apps::world::NativeWorld>(sizes, repeat, |bench| {
        let (_, rs) = run_native(nodes, Default::default(), |w| bench(w));
        BenchResult::merge(&rs)
    })
}

/// [`suite_native_repeat`] on the pinned-Ethernet cost model
/// ([`pinned_cost`]): exactly reproducible virtual times, fit for the
/// perf-trend gate.
pub fn suite_native_pinned(nodes: usize, sizes: Sizes, repeat: usize) -> SuiteTimes {
    run_all::<apps::world::NativeWorld>(sizes, repeat, |bench| {
        let (_, rs) = run_native_cost(
            nodes,
            Default::default(),
            cluster::SyncTopology::centralized(),
            pinned_cost(),
            |w| bench(w),
        );
        BenchResult::merge(&rs)
    })
}

/// Run the whole suite on HAMSTER over the given platform.
pub fn suite_hamster(nodes: usize, platform: PlatformKind, sizes: Sizes) -> SuiteTimes {
    suite_hamster_repeat(nodes, platform, sizes, 1)
}

/// [`suite_hamster`] with repeat-and-take-minimum smoothing.
pub fn suite_hamster_repeat(
    nodes: usize,
    platform: PlatformKind,
    sizes: Sizes,
    repeat: usize,
) -> SuiteTimes {
    run_all::<apps::world::HamsterWorld>(sizes, repeat, |bench| {
        let cfg = ClusterConfig::new(nodes, platform);
        let (_, rs) = run_hamster(&cfg, |w| bench(w));
        BenchResult::merge(&rs)
    })
}

/// [`suite_hamster_repeat`] on the pinned-Ethernet cost model
/// ([`pinned_cost`]). Only the Ethernet link changes, so non-Ethernet
/// platforms (hybrid, SMP) time identically to the unpinned suite.
pub fn suite_hamster_pinned(
    nodes: usize,
    platform: PlatformKind,
    sizes: Sizes,
    repeat: usize,
) -> SuiteTimes {
    run_all::<apps::world::HamsterWorld>(sizes, repeat, |bench| {
        let mut cfg = ClusterConfig::new(nodes, platform);
        cfg.cost = pinned_cost();
        let (_, rs) = run_hamster(&cfg, |w| bench(w));
        BenchResult::merge(&rs)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_choose_flag() {
        assert_eq!(Sizes::choose(false).matmult_n, Sizes::paper().matmult_n);
        assert_eq!(Sizes::choose(true).matmult_n, Sizes::quick().matmult_n);
        assert!(Sizes::quick().lu_n < Sizes::paper().lu_n);
    }

    #[test]
    fn suite_rows_lookup() {
        let t = SuiteTimes { secs: (0..ROWS.len()).map(|i| i as f64).collect() };
        assert_eq!(t.of("MatMult"), 0.0);
        assert_eq!(t.of("LU bar"), 7.0);
        assert_eq!(t.of("WATER 343"), 9.0);
    }

    #[test]
    #[should_panic(expected = "unknown row")]
    fn unknown_row_panics() {
        let t = SuiteTimes { secs: vec![0.0; ROWS.len()] };
        let _ = t.of("FFT");
    }
}
