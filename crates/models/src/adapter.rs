//! Adapter-level monitoring: runtime call counters for the Table 2
//! experiment.
//!
//! Table 2 counts each programming-model adapter's *implemented* API
//! calls statically; this module adds the dynamic side — how many times
//! a running application actually crossed the adapter, per node. The
//! counter sits in the adapter itself (above the HAMSTER interface), so
//! the figure is comparable across platforms: the same program on SMP,
//! hybrid DSM, and software DSM must report the same `api_calls`.

use sim::stats::stat_index;
use sim::StatSet;

/// The adapter's counter names.
const NAMES: &[&str] = &["api_calls"];
/// Index of `api_calls`, bumped on every call (checked at compile time).
const API_CALLS: usize = stat_index(NAMES, "api_calls");

/// Per-binding call counters for one programming-model adapter.
///
/// ```
/// let s = models::adapter::AdapterStats::new();
/// s.count();
/// s.count();
/// assert_eq!(s.api_calls(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct AdapterStats {
    set: StatSet,
}

impl Default for AdapterStats {
    fn default() -> Self {
        Self::new()
    }
}

impl AdapterStats {
    /// Fresh counters (all zero).
    pub fn new() -> Self {
        Self { set: StatSet::new(NAMES) }
    }

    /// Record one crossing of the adapter's API surface.
    #[inline]
    pub fn count(&self) {
        self.set.at(API_CALLS).incr();
    }

    /// Number of API calls recorded so far.
    pub fn api_calls(&self) -> u64 {
        self.set.at(API_CALLS).get()
    }

    /// The underlying counter set (for uniform monitoring queries).
    pub fn set(&self) -> &StatSet {
        &self.set
    }
}
