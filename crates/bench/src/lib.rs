#![forbid(unsafe_code)]
//! Experiment harness for the paper's tables and figures.
//!
//! Each binary regenerates one artifact:
//!
//! * `table1` — the benchmark/working-set table.
//! * `table2` — implementation complexity of the programming models
//!   (lines of code / API calls, via the paper's comment-stripping
//!   line-count methodology applied to the `models` crate).
//! * `fig2`   — overhead of the JiaJia API on HAMSTER vs native
//!   execution on the software DSM (4 nodes).
//! * `fig3`   — hybrid-DSM vs software-DSM performance (4 nodes).
//! * `fig4`   — hardware- vs hybrid- vs software-DSM (2 nodes).
//! * `ablation` — protocol design-choice studies (diff vs whole-page
//!   write-back, lock notices vs conservative invalidation, unified
//!   messaging, home placement).
//!
//! All numbers are *virtual* times from the simulated cluster (see
//! DESIGN.md); shapes, not absolute values, are the reproduction
//! target. Run with `--quick` for reduced working sets.
//!
//! Besides its pretty table each binary writes a machine-readable
//! `BENCH_<name>.json` artifact into the current directory (see
//! [`report`] and OBSERVABILITY.md).

pub mod loc;
pub mod report;
pub mod suite;
pub mod trend;

/// Parse the common CLI flags: `--quick` (reduced sizes) and
/// `--nodes N`.
pub struct Args {
    /// Reduced working sets.
    pub quick: bool,
    /// Cluster size.
    pub nodes: usize,
    /// Emit machine-readable CSV instead of the pretty table.
    pub csv: bool,
}

impl Args {
    /// Parse from `std::env::args`, with `default_nodes` as the node
    /// count when `--nodes` is absent.
    pub fn parse(default_nodes: usize) -> Args {
        let mut quick = false;
        let mut nodes = default_nodes;
        let mut csv = false;
        let mut it = std::env::args().skip(1);
        while let Some(a) = it.next() {
            match a.as_str() {
                "--quick" => quick = true,
                "--csv" => csv = true,
                "--nodes" => {
                    nodes = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--nodes needs a number");
                }
                "--help" | "-h" => {
                    eprintln!("flags: --quick (small working sets), --nodes N, --csv");
                    std::process::exit(0);
                }
                other => {
                    eprintln!("unknown flag {other:?} (try --help)");
                    std::process::exit(2);
                }
            }
        }
        Args { quick, nodes, csv }
    }
}

/// Render a signed percentage as an ASCII bar (for figure binaries).
pub fn bar(pct: f64, scale: f64) -> String {
    let chars = (pct.abs() / scale).round() as usize;
    let body: String = std::iter::repeat_n('#', chars.min(60)).collect();
    if pct < 0.0 {
        format!("{body:>30}|")
    } else {
        format!("{:>30}|{body}", "")
    }
}
