//! Deterministic, seeded fault injection for the simulated fabric.
//!
//! A [`FaultPlan`] describes *what can go wrong* on the wire: per-link
//! message drop / duplication / delay / reordering probabilities, plus
//! scheduled node crashes and network partitions (both heal at a given
//! virtual time). Every decision is a pure hash of the plan seed and
//! the message's stream position — no wall clock, no shared RNG state —
//! so the same seed reproduces the identical fault schedule on every
//! run, regardless of thread interleaving.
//!
//! A [`Resilience`] policy describes *how the requester copes*:
//! a virtual-time timeout after which a lost message surfaces as
//! [`crate::RequestError::Timeout`], and a [`RetryPolicy`] with
//! exponential backoff plus deterministic jitter.

/// Probabilities are expressed in parts-per-million of messages.
pub const PPM: u64 = 1_000_000;

/// Stream marker mixed into the message kind for reply-direction fault
/// streams, so a request and its reply draw from independent sequences
/// even on symmetric protocols. Protocol kinds never use the top bit.
pub(crate) const REPLY_STREAM: u32 = 0x8000_0000;

/// Stream marker for retry-backoff jitter draws. Each retry consumes
/// the next position in its `(src, dst, kind | RETRY_STREAM)` sequence,
/// so the jitter depends only on how many retries that stream has seen
/// — never on a virtual clock reading, whose last few microseconds can
/// wobble with thread scheduling and would otherwise reseed the jitter.
pub(crate) const RETRY_STREAM: u32 = 0x4000_0000;

/// splitmix64 finalizer: a statistically strong 64-bit mixer, used as
/// the stateless RNG behind every fault decision.
#[inline]
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The hash key of the `(src, dst, kind)` stream, before the seed.
pub(crate) fn stream_key(src: usize, dst: usize, kind: u64) -> u64 {
    ((src as u64) << 42) ^ ((dst as u64) << 21) ^ kind
}

/// Per-link fault probabilities and magnitudes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkFaults {
    /// Probability (ppm) that a message is silently dropped.
    pub drop_ppm: u32,
    /// Probability (ppm) that a message is delivered twice.
    pub dup_ppm: u32,
    /// Probability (ppm) that a message suffers extra latency.
    pub delay_ppm: u32,
    /// Maximum extra latency for a delayed message (uniform in
    /// `1..=delay_ns`).
    pub delay_ns: u64,
    /// Probability (ppm) that a message is reordered past its peers.
    /// In a virtual-time fabric arrival order *is* delivery order, so
    /// reordering is modelled as an extra arrival-time displacement of
    /// up to [`LinkFaults::reorder_window_ns`].
    pub reorder_ppm: u32,
    /// Displacement window for reordered messages.
    pub reorder_window_ns: u64,
}

impl LinkFaults {
    /// True when no probabilistic fault can ever fire on this link.
    pub fn is_quiet(&self) -> bool {
        self.drop_ppm == 0 && self.dup_ppm == 0 && self.delay_ppm == 0 && self.reorder_ppm == 0
    }
}

/// A node is unreachable in `[from_ns, until_ns)` of virtual time; it
/// heals at `until_ns`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashWindow {
    /// The crashed node.
    pub node: usize,
    /// Crash start (inclusive), virtual ns.
    pub from_ns: u64,
    /// Heal time (exclusive end of the outage), virtual ns.
    pub until_ns: u64,
}

/// The fabric is split into two groups in `[from_ns, until_ns)`;
/// messages crossing the cut are lost. Heals at `until_ns`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionWindow {
    /// Nodes on one side of the cut (everything else is the other side).
    pub group: Vec<usize>,
    /// Partition start (inclusive), virtual ns.
    pub from_ns: u64,
    /// Heal time (exclusive), virtual ns.
    pub until_ns: u64,
}

impl PartitionWindow {
    fn separates(&self, a: usize, b: usize) -> bool {
        self.group.contains(&a) != self.group.contains(&b)
    }
}

/// The outcome of the fault draw for one message.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultDecision {
    /// The message is lost.
    pub drop: bool,
    /// The message is delivered a second time (same request id).
    pub dup: bool,
    /// Extra arrival delay (delay and reorder displacements combined).
    pub extra_delay_ns: u64,
}

/// A complete, reproducible description of everything that will go
/// wrong on this fabric. Configured from `cluster::config` chaos keys
/// or built directly in tests.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Seed for every probabilistic decision.
    pub seed: u64,
    /// Faults applied to links with no per-link override.
    pub default_link: LinkFaults,
    /// Per-(src, dst) overrides. Directional: `(0, 1)` governs only
    /// messages from node 0 to node 1.
    pub per_link: Vec<((usize, usize), LinkFaults)>,
    /// Scheduled node outages.
    pub crashes: Vec<CrashWindow>,
    /// Scheduled network partitions.
    pub partitions: Vec<PartitionWindow>,
}

impl FaultPlan {
    /// An empty plan (no faults) with the given seed.
    pub fn seeded(seed: u64) -> Self {
        Self { seed, ..Self::default() }
    }

    /// The fault profile of the `src -> dst` link.
    pub fn link(&self, src: usize, dst: usize) -> LinkFaults {
        self.per_link
            .iter()
            .find(|(l, _)| *l == (src, dst))
            .map(|(_, f)| *f)
            .unwrap_or(self.default_link)
    }

    /// Is `node` crashed at virtual time `t_ns`?
    pub fn down_at(&self, node: usize, t_ns: u64) -> bool {
        self.crashes
            .iter()
            .any(|c| c.node == node && c.from_ns <= t_ns && t_ns < c.until_ns)
    }

    /// Is the `src -> dst` path cut by a partition at virtual time `t_ns`?
    pub fn cut_at(&self, src: usize, dst: usize, t_ns: u64) -> bool {
        self.partitions
            .iter()
            .any(|p| p.from_ns <= t_ns && t_ns < p.until_ns && p.separates(src, dst))
    }

    /// Draw the fault decision for the `seq`-th message of the
    /// `(src, dst, kind)` stream. Pure: same plan + same stream
    /// position always gives the same answer.
    pub fn decide(&self, src: usize, dst: usize, kind: u32, seq: u64) -> FaultDecision {
        let lf = self.link(src, dst);
        if lf.is_quiet() {
            return FaultDecision::default();
        }
        let key = mix(self.seed ^ mix(stream_key(src, dst, kind as u64)) ^ seq);
        let mut d = FaultDecision {
            drop: mix(key ^ 0xD0) % PPM < lf.drop_ppm as u64,
            dup: mix(key ^ 0xD1) % PPM < lf.dup_ppm as u64,
            extra_delay_ns: 0,
        };
        if lf.delay_ns > 0 && mix(key ^ 0xD2) % PPM < lf.delay_ppm as u64 {
            d.extra_delay_ns += 1 + mix(key ^ 0xD3) % lf.delay_ns;
        }
        if lf.reorder_window_ns > 0 && mix(key ^ 0xD4) % PPM < lf.reorder_ppm as u64 {
            d.extra_delay_ns += 1 + mix(key ^ 0xD5) % lf.reorder_window_ns;
        }
        d
    }
}

/// Exponential backoff with deterministic jitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (first try included). `1` disables retries.
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles per attempt.
    pub base_backoff_ns: u64,
    /// Cap on the exponential term.
    pub max_backoff_ns: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self { max_attempts: 12, base_backoff_ns: 250_000, max_backoff_ns: 4_000_000 }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `attempt` (1-based: the pause after
    /// the first failure is `attempt == 1`). `salt` folds in the fault
    /// seed and the stream's retry count (never a clock reading), so
    /// jitter is deterministic per run yet decorrelates concurrent
    /// retriers.
    pub fn backoff_ns(&self, attempt: u32, salt: u64) -> u64 {
        let doublings = attempt.saturating_sub(1).min(63);
        let exp = self
            .base_backoff_ns
            .saturating_mul(1u64 << doublings)
            .min(self.max_backoff_ns)
            .max(1);
        let jitter = mix(salt ^ attempt as u64) % (self.base_backoff_ns / 2 + 1);
        exp + jitter
    }
}

/// How a port copes with a faulty fabric: give up on a message after
/// `timeout_ns` of virtual time, then retry per the policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resilience {
    /// Virtual-time timeout on requests and tagged waits.
    pub timeout_ns: u64,
    /// Retry schedule for transient failures.
    pub retry: RetryPolicy,
}

impl Default for Resilience {
    fn default() -> Self {
        Self { timeout_ns: 2_000_000, retry: RetryPolicy::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_reproducible_and_seed_sensitive() {
        let a = FaultPlan {
            seed: 7,
            default_link: LinkFaults { drop_ppm: 500_000, ..Default::default() },
            ..Default::default()
        };
        let b = FaultPlan { seed: 8, ..a.clone() };
        let da: Vec<_> = (0..64).map(|s| a.decide(0, 1, 0x10, s)).collect();
        let da2: Vec<_> = (0..64).map(|s| a.decide(0, 1, 0x10, s)).collect();
        let db: Vec<_> = (0..64).map(|s| b.decide(0, 1, 0x10, s)).collect();
        assert_eq!(da, da2, "same seed must reproduce the schedule");
        assert_ne!(da, db, "different seeds must diverge");
        let drops = da.iter().filter(|d| d.drop).count();
        assert!(drops > 10 && drops < 54, "50% drop rate should be roughly half: {drops}");
    }

    #[test]
    fn per_link_overrides_default() {
        let plan = FaultPlan {
            default_link: LinkFaults { drop_ppm: PPM as u32, ..Default::default() },
            per_link: vec![((1, 2), LinkFaults::default())],
            ..Default::default()
        };
        assert!(plan.decide(0, 1, 1, 1).drop, "default link drops everything");
        assert!(!plan.decide(1, 2, 1, 1).drop, "override link is quiet");
    }

    #[test]
    fn crash_and_partition_windows() {
        let plan = FaultPlan {
            crashes: vec![CrashWindow { node: 1, from_ns: 100, until_ns: 200 }],
            partitions: vec![PartitionWindow { group: vec![0], from_ns: 50, until_ns: 60 }],
            ..Default::default()
        };
        assert!(!plan.down_at(1, 99));
        assert!(plan.down_at(1, 100));
        assert!(plan.down_at(1, 199));
        assert!(!plan.down_at(1, 200), "node heals at until_ns");
        assert!(!plan.down_at(0, 150));
        assert!(plan.cut_at(0, 1, 55));
        assert!(plan.cut_at(1, 0, 55));
        assert!(!plan.cut_at(1, 2, 55), "same side of the cut");
        assert!(!plan.cut_at(0, 1, 60), "partition heals");
    }

    #[test]
    fn delays_stay_within_configured_windows() {
        let plan = FaultPlan {
            default_link: LinkFaults {
                delay_ppm: PPM as u32,
                delay_ns: 1_000,
                reorder_ppm: PPM as u32,
                reorder_window_ns: 500,
                ..Default::default()
            },
            ..Default::default()
        };
        for s in 0..256 {
            let d = plan.decide(0, 1, 2, s);
            assert!(d.extra_delay_ns >= 2 && d.extra_delay_ns <= 1_500);
        }
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = RetryPolicy { max_attempts: 10, base_backoff_ns: 100, max_backoff_ns: 1_000 };
        let b1 = p.backoff_ns(1, 0);
        let b3 = p.backoff_ns(3, 0);
        let b9 = p.backoff_ns(9, 0);
        assert!((100..=150).contains(&b1));
        assert!((400..=450).contains(&b3));
        assert!((1_000..=1_050).contains(&b9), "capped at max: {b9}");
    }
}
