//! Platform-independent timing support (paper §4.4).
//!
//! "Additional services independent of the parallel programming
//! environment (e.g., platform-independent support for application
//! timing measurements) augment the usability of the framework."

use crate::hamster::Hamster;
use std::collections::BTreeMap;

/// A virtual-time stopwatch over a node's clock.
#[derive(Debug, Clone, Copy)]
pub struct Timer {
    start_ns: u64,
}

impl Timer {
    /// Start timing now.
    pub fn start(ham: &Hamster) -> Self {
        Self { start_ns: ham.wtime_ns() }
    }

    /// Elapsed virtual nanoseconds.
    pub fn elapsed_ns(&self, ham: &Hamster) -> u64 {
        ham.wtime_ns().saturating_sub(self.start_ns)
    }
}

/// Accumulates the durations of repeated phases (e.g. "time spent in
/// barriers" for the paper's LU breakdown).
#[derive(Debug, Default, Clone, Copy)]
pub struct PhaseAccumulator {
    total_ns: u64,
    open_since: Option<u64>,
}

impl PhaseAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enter the phase.
    pub fn enter(&mut self, ham: &Hamster) {
        assert!(self.open_since.is_none(), "phase already entered");
        self.open_since = Some(ham.wtime_ns());
    }

    /// Leave the phase, accumulating its duration.
    pub fn leave(&mut self, ham: &Hamster) {
        let since = self.open_since.take().expect("phase not entered");
        self.total_ns += ham.wtime_ns().saturating_sub(since);
    }

    /// Total accumulated nanoseconds.
    pub fn total_ns(&self) -> u64 {
        assert!(self.open_since.is_none(), "phase still open");
        self.total_ns
    }
}

/// Per-phase profiling service: splits a node's run into named phases
/// (the paper's Figure 2 init/compute/barrier breakdown) and reports
/// the virtual time spent in each.
///
/// Exactly one phase is open at a time; [`PhaseTimer::enter_at`] closes
/// the previous phase and opens the next, so instrumenting a benchmark
/// is one call per transition. Re-entering a phase name accumulates.
/// Every closed phase is also emitted as a `phase` span into the global
/// trace session (see [`crate::trace`]), so phase boundaries line up
/// with protocol events on the exported timeline.
///
/// ```
/// use hamster_core::PhaseTimer;
///
/// let mut pt = PhaseTimer::new(0);
/// pt.enter_at(0, "init");
/// pt.enter_at(1_000, "compute"); // closes "init" at 1 µs
/// pt.enter_at(4_000, "barrier");
/// pt.close_at(4_500);
/// let phases = pt.into_totals();
/// assert_eq!(phases["init"], 1_000);
/// assert_eq!(phases["compute"], 3_000);
/// assert_eq!(phases["barrier"], 500);
/// ```
#[derive(Debug, Default, Clone)]
pub struct PhaseTimer {
    node: usize,
    open: Option<(&'static str, u64)>,
    totals: BTreeMap<&'static str, u64>,
}

impl PhaseTimer {
    /// A timer for the given node (rank), with no phase open.
    pub fn new(node: usize) -> Self {
        Self { node, open: None, totals: BTreeMap::new() }
    }

    /// Open `phase` at virtual time `now_ns`, closing any open phase.
    pub fn enter_at(&mut self, now_ns: u64, phase: &'static str) {
        self.close_at(now_ns);
        self.open = Some((phase, now_ns));
    }

    /// Close the open phase (if any) at virtual time `now_ns`.
    pub fn close_at(&mut self, now_ns: u64) {
        if let Some((name, since)) = self.open.take() {
            let dur = now_ns.saturating_sub(since);
            *self.totals.entry(name).or_insert(0) += dur;
            sim::trace::span(since, dur, self.node, "phase", name, dur);
        }
    }

    /// Open `phase` now on `ham`'s clock, closing any open phase.
    pub fn enter(&mut self, ham: &Hamster, phase: &'static str) {
        self.enter_at(ham.wtime_ns(), phase);
    }

    /// Close the open phase (if any) now on `ham`'s clock.
    pub fn close(&mut self, ham: &Hamster) {
        self.close_at(ham.wtime_ns());
    }

    /// Accumulated time per phase so far (open phase not included).
    pub fn totals(&self) -> &BTreeMap<&'static str, u64> {
        &self.totals
    }

    /// Finish and return the per-phase totals.
    pub fn into_totals(mut self) -> BTreeMap<&'static str, u64> {
        assert!(self.open.is_none(), "a phase is still open");
        self.totals.retain(|_, v| *v > 0);
        std::mem::take(&mut self.totals)
    }
}
