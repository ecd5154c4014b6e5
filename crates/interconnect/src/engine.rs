//! Worker-pool sizing and the per-node run queue of the delivery
//! scheduler.
//!
//! The fabric has one delivery engine: per-node bounded run queues
//! multiplexed over a small work-stealing worker pool
//! (`sim::sched::Shards`), batched virtual-time delivery, and delivery
//! that runs to completion on the thread that caused it. Which host
//! thread runs a handler is invisible in virtual time, so a workload's
//! virtual timings, checksums and traces do not depend on the pool
//! size; only wall-clock throughput does. See DESIGN.md §2.5.

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

/// Size of the fabric's delivery worker pool. Written `sharded` (auto)
/// or `sharded:N` in configuration files.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineMode {
    /// Worker-thread count; `0` (the default) sizes the pool from the
    /// host's available parallelism, clamped to `[1, 8]`. Either way
    /// the pool never exceeds the node count.
    pub workers: usize,
}

impl EngineMode {
    /// Worker threads to spawn for `nodes` nodes; at least one.
    pub fn resolved_workers(&self, nodes: usize) -> usize {
        let wanted = match self.workers {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()).min(8),
            n => n,
        };
        wanted.min(nodes).max(1)
    }
}

impl FromStr for EngineMode {
    type Err = String;

    /// `sharded` (auto-sized) or `sharded:N` (N workers).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim().to_ascii_lowercase();
        match s.as_str() {
            "sharded" => Ok(EngineMode { workers: 0 }),
            "threads" | "thread-per-node" | "legacy" => Err(format!(
                "engine mode {s:?}: the thread-per-node engine was removed; \
                 use `sharded` or `sharded:N`"
            )),
            other => match other.strip_prefix("sharded:") {
                Some(n) => n
                    .parse::<usize>()
                    .map(|workers| EngineMode { workers })
                    .map_err(|e| format!("engine worker count {n:?}: {e}")),
                None => Err(format!("unknown engine mode {s:?} (sharded[:N])")),
            },
        }
    }
}

impl std::fmt::Display for EngineMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.workers {
            0 => write!(f, "sharded"),
            workers => write!(f, "sharded:{workers}"),
        }
    }
}

/// One node's ingress: the bounded envelope queue plus the `scheduled`
/// flag. The flag is the whole of per-node
/// serialization: ready rings own nothing and any thread may drive any
/// node, so handlers of one node never run concurrently *because* the
/// node is claimed at most once — it sits on at most one ready ring,
/// and whoever took it from there (or won the claim and drives it
/// inline) is its only driver until [`NodeQueue::retire`].
pub(crate) struct NodeQueue<T> {
    pub(crate) q: BoundedQueue<T>,
    pub(crate) scheduled: AtomicBool,
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
        assert_eq!("sharded".parse::<EngineMode>().unwrap(), EngineMode::default());
        assert_eq!("Sharded:4".parse::<EngineMode>().unwrap(), EngineMode { workers: 4 });
        assert!("ring".parse::<EngineMode>().is_err());
        assert!("sharded:lots".parse::<EngineMode>().is_err());
    }

    #[test]
    fn removed_engine_names_are_rejected_by_name() {
        for dead in ["threads", "thread-per-node", "legacy", " Threads "] {
            let err = dead.parse::<EngineMode>().unwrap_err();
            assert!(err.contains("removed") && err.contains("sharded:N"), "{dead:?}: {err}");
        }
    }

    #[test]
    fn mode_display_roundtrips() {
        for mode in [EngineMode { workers: 0 }, EngineMode { workers: 3 }] {
            assert_eq!(mode.to_string().parse::<EngineMode>().unwrap(), mode);
        }
    }

    #[test]
    fn worker_resolution() {
        for nodes in [1, 2, 64, 1024] {
            let auto = EngineMode::default().resolved_workers(nodes);
            assert!((1..=8.min(nodes)).contains(&auto), "{nodes} nodes: {auto}");
        }
        assert_eq!(EngineMode { workers: 16 }.resolved_workers(4), 4);
        assert_eq!(EngineMode { workers: 2 }.resolved_workers(64), 2);
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
