#![forbid(unsafe_code)]
//! Experiment harness for the paper's tables and figures: one binary,
//! `cargo run -p hamster-bench --release -- <artifact>|all [flags]`,
//! over the table of artifact definitions in [`driver::ARTIFACTS`]
//! (`--help` lists them).
//!
//! An artifact is a function from [`Args`] to a [`report::Report`] — a
//! JSON document, the tables that show it, notes and extra files — or
//! to the list of gates it failed. Everything else is the driver's:
//! the argument parser, the second in-process build where byte identity
//! is asserted, writing `BENCH_<name>.json` into the current directory,
//! rendering the pretty table or `--csv`, the exit code, and
//! `--check`/`--update` against `bench-baselines/` ([`trend`]).
//!
//! All numbers are *virtual* times from the simulated cluster (see
//! DESIGN.md); shapes, not absolute values, are the reproduction
//! target. Run with `--quick` for reduced working sets.

pub mod analysis;
pub mod chaos;
pub mod driver;
pub mod engine;
pub mod figures;
pub mod loc;
pub mod membership;
pub mod report;
pub mod scale;
pub mod serve;
pub mod suite;
pub mod trend;
pub mod tune;

/// What the command line asked of one artifact. A flag its table entry
/// does not accept is rejected by the parser, so a build function reads
/// only the fields its entry lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Args {
    /// Reduced working sets.
    pub quick: bool,
    /// Cluster size (the entry's default when `--nodes` is absent).
    pub nodes: usize,
    /// Print CSV instead of the pretty tables.
    pub csv: bool,
    /// Also write a Chrome trace of the run.
    pub trace: bool,
    /// Compare the artifact with its committed baseline.
    pub check: bool,
    /// Copy the artifact over its committed baseline.
    pub update: bool,
}

/// What a build function returns: the report, or the gates that failed.
pub type Built = Result<report::Report, Vec<String>>;
