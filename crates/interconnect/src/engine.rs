//! Delivery-engine selection: thread-per-node daemons vs the sharded
//! event-driven scheduler.
//!
//! Both engines execute the *same* envelope-processing code
//! (`network::process_envelope`) against the same virtual-time cost
//! model, so a workload's virtual timings, checksums and traces are
//! identical across engines; only the real-time execution shape — and
//! therefore wall-clock throughput — differs. See DESIGN.md §engine.

use crate::mailbox::BoundedQueue;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};

/// How many envelopes a shard worker drains from one node queue per
/// round. Within a batch, envelopes are processed in virtual arrival
/// order (batched virtual-time delivery).
pub(crate) const ENGINE_BATCH: usize = 128;

/// Per-node run-queue depth above which application-thread senders
/// block (backpressure). Handler-context sends overflow the bound
/// instead — see [`BoundedQueue`].
pub(crate) const NODE_QUEUE_CAPACITY: usize = 1024;

/// Which delivery engine a fabric runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineMode {
    /// Legacy shape: one communication-daemon OS thread per node, each
    /// blocking on its own inbox channel. Every delivery to an idle
    /// node pays a thread wake-up; at 64+ nodes the host drowns in
    /// mostly-sleeping threads.
    ThreadPerNode,
    /// Sharded event-driven scheduler: per-node bounded run queues
    /// multiplexed over a small work-stealing worker pool, batched
    /// virtual-time delivery, and delivery that runs to completion on
    /// the thread that caused it (handler sends stay on the sending
    /// worker's ring; a blocking requester drives an idle destination
    /// itself).
    Sharded {
        /// Worker-thread count; `0` sizes automatically from the host's
        /// available parallelism (clamped to `[1, 8]` and to the node
        /// count).
        workers: usize,
    },
}

impl Default for EngineMode {
    fn default() -> Self {
        EngineMode::Sharded { workers: 0 }
    }
}

impl EngineMode {
    /// Worker threads to spawn for `nodes` nodes; `0` means
    /// thread-per-node daemons.
    pub fn resolved_workers(&self, nodes: usize) -> usize {
        match *self {
            EngineMode::ThreadPerNode => 0,
            EngineMode::Sharded { workers: 0 } => std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .clamp(1, 8)
                .min(nodes),
            EngineMode::Sharded { workers } => workers.min(nodes).max(1),
        }
    }
}

impl FromStr for EngineMode {
    type Err = String;

    /// `threads` / `thread-per-node` for the legacy engine, `sharded`
    /// (auto-sized) or `sharded:N` (N workers) for the event-driven one.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim().to_ascii_lowercase();
        match s.as_str() {
            "threads" | "thread-per-node" | "legacy" => Ok(EngineMode::ThreadPerNode),
            "sharded" => Ok(EngineMode::Sharded { workers: 0 }),
            other => match other.strip_prefix("sharded:") {
                Some(n) => n
                    .parse::<usize>()
                    .map(|workers| EngineMode::Sharded { workers })
                    .map_err(|e| format!("engine worker count {n:?}: {e}")),
                None => Err(format!("unknown engine mode {s:?} (threads | sharded[:N])")),
            },
        }
    }
}

impl std::fmt::Display for EngineMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineMode::ThreadPerNode => write!(f, "threads"),
            EngineMode::Sharded { workers: 0 } => write!(f, "sharded"),
            EngineMode::Sharded { workers } => write!(f, "sharded:{workers}"),
        }
    }
}

/// One node's ingress under the sharded engine: the bounded envelope
/// queue plus the `scheduled` flag. The flag is the whole of per-node
/// serialization: ready rings own nothing and any thread may drive any
/// node, so handlers of one node never run concurrently *because* the
/// node is claimed at most once — it sits on at most one ready ring,
/// and whoever took it from there (or won the claim and drives it
/// inline) is its only driver until [`NodeQueue::retire`].
pub(crate) struct NodeQueue<T> {
    pub(crate) q: BoundedQueue<T>,
    scheduled: AtomicBool,
}

impl<T> NodeQueue<T> {
    pub(crate) fn new() -> Self {
        Self { q: BoundedQueue::new(NODE_QUEUE_CAPACITY), scheduled: AtomicBool::new(false) }
    }

    /// After an enqueue: true when the caller now owns the node (it
    /// was idle) and must either put it on a ready ring or drive it.
    pub(crate) fn claim_schedule(&self) -> bool {
        !self.scheduled.swap(true, Ordering::AcqRel)
    }

    /// Driver-side, once the queue looks empty: clear the scheduled
    /// flag, then re-check for a push that raced the clear. Returns
    /// true when the driver re-claimed the node and must reschedule it.
    pub(crate) fn retire(&self) -> bool {
        self.scheduled.store(false, Ordering::Release);
        !self.q.is_empty() && self.claim_schedule()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parsing() {
        assert_eq!("threads".parse::<EngineMode>().unwrap(), EngineMode::ThreadPerNode);
        assert_eq!("legacy".parse::<EngineMode>().unwrap(), EngineMode::ThreadPerNode);
        assert_eq!("sharded".parse::<EngineMode>().unwrap(), EngineMode::Sharded { workers: 0 });
        assert_eq!(
            "Sharded:4".parse::<EngineMode>().unwrap(),
            EngineMode::Sharded { workers: 4 }
        );
        assert!("ring".parse::<EngineMode>().is_err());
        assert!("sharded:lots".parse::<EngineMode>().is_err());
    }

    #[test]
    fn mode_display_roundtrips() {
        for mode in [
            EngineMode::ThreadPerNode,
            EngineMode::Sharded { workers: 0 },
            EngineMode::Sharded { workers: 3 },
        ] {
            assert_eq!(mode.to_string().parse::<EngineMode>().unwrap(), mode);
        }
    }

    #[test]
    fn worker_resolution() {
        assert_eq!(EngineMode::ThreadPerNode.resolved_workers(64), 0);
        let auto = EngineMode::Sharded { workers: 0 }.resolved_workers(64);
        assert!((1..=8).contains(&auto));
        assert_eq!(EngineMode::Sharded { workers: 0 }.resolved_workers(1), 1);
        assert_eq!(EngineMode::Sharded { workers: 16 }.resolved_workers(4), 4);
    }

    #[test]
    fn node_queue_schedule_protocol() {
        let nq: NodeQueue<u32> = NodeQueue::new();
        assert!(nq.claim_schedule(), "first enqueue claims the slot");
        assert!(!nq.claim_schedule(), "second enqueue sees it scheduled");
        assert!(!nq.retire(), "empty queue retires for good");
        nq.q.push(1).unwrap();
        assert!(nq.claim_schedule());
        assert!(nq.retire(), "non-empty queue re-claims on retire");
    }
}
