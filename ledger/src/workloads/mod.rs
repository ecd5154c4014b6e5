//! The four workloads and what one repetition of any of them reports.

pub mod kernels;
pub mod kv;
pub mod relay;

use crate::json::Json;
use crate::span::Lane;
use std::collections::BTreeMap;

/// Ethernet rate (bytes/s) of every software-DSM run here. The windowed
/// bus model repeats exactly only while link windows stay unsaturated,
/// and the paper's 12.5 MB/s saturates under LU's release burst; the
/// repository's gated benches pin the same rate for the same reason.
pub const PINNED_ETHERNET_BPS: u64 = 250_000_000;

/// The paper-testbed cost model with Ethernet at [`PINNED_ETHERNET_BPS`].
pub fn pinned_cost() -> sim::CostModel {
    let mut cost = sim::CostModel::default();
    cost.ethernet.bytes_per_sec = PINNED_ETHERNET_BPS;
    cost
}

/// What one repetition did, in both clocks' terms.
#[derive(Debug, Default, Clone)]
pub struct RepOut {
    /// Virtual makespan: the sum of the kernels' or legs' makespans.
    pub sim_ns: u64,
    /// Units of work done (see `work_per_s` in the metric catalogue).
    pub work: u64,
    /// Outputs checked: kernel results, tokens, posts, round trips, requests.
    pub attempted: u64,
    /// How many of them were wrong or missing.
    pub failed: u64,
    /// What was wrong.
    pub failures: Vec<String>,
    /// Public counter snapshots summed over nodes, by per-layer metric
    /// name. A host-only change must leave every one of them as it was.
    pub counters: BTreeMap<&'static str, u64>,
    /// Host-time and latency values of single legs, by per-layer metric
    /// name.
    pub values: BTreeMap<&'static str, f64>,
}

impl RepOut {
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    /// Add every counter of `stats` that the catalogue lists as
    /// `<layer>.<counter>`; a layer's other counters are not reported.
    pub fn count_layer(&mut self, layer: &str, stats: &BTreeMap<&'static str, u64>) {
        for m in &crate::metrics::PER_LAYER {
            let counter = m.name.strip_prefix(layer).and_then(|rest| rest.strip_prefix('.'));
            if let Some(v) = counter.and_then(|c| stats.get(c)) {
                self.count(m.name, *v);
            }
        }
    }

    /// Check one output against its reference.
    pub fn verify(&mut self, what: &str, got: u64, want: u64) {
        self.check(1, u64::from(got != want), || {
            format!("{what}: got {got:#018x}, want {want:#018x}")
        });
    }

    /// Record `attempted` checked outputs of which `failed` were wrong.
    pub fn check(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        if failed > 0 {
            self.failed += failed;
            self.failures.push(what());
        }
    }
}

/// A workload with its inputs generated and its references computed.
pub trait Workload {
    /// The sizes one repetition runs at, for the fingerprint.
    fn sizes(&self) -> Json;
    /// Run one repetition. Spans go to `lane` under `parent`; a lane
    /// that is off makes this the untraced repetition.
    fn rep(&self, lane: &mut Lane<'_>, parent: u64) -> RepOut;
}

/// Set a workload up: generate its inputs from `seed`, compute or load
/// its reference outputs.
pub fn build(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "kernels-swdsm" => Box::new(kernels::Kernels::swdsm(seed)),
        "kernels-hwpath" => Box::new(kernels::Kernels::hwpath(seed)),
        "fabric-relay" => Box::new(relay::Relay::new(seed)),
        "serve-kv" => Box::new(kv::ServeKv::new(seed)),
        _ => return None,
    })
}

/// splitmix64: the one generator every seeded input here is drawn from.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A draw from `lo..hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }
}
