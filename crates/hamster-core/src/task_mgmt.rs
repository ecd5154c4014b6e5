//! The Task Management module (paper §4.2).
//!
//! Deliberately *not* a thread API: HAMSTER provides the mechanisms for
//! integrating native thread services into a programming model — chiefly
//! identity and the remote-execution primitive that the POSIX/Win32
//! model adapters build their command forwarding on — while leaving
//! thread semantics to the model (paper: "this design maintains
//! HAMSTER's generality").

use crate::hamster::{Hamster, NodeCore};
use crate::runtime::kinds;
use interconnect::{downcast, mailbox};

/// Handle to a remotely executing task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskHandle {
    pub(crate) id: u32,
    pub(crate) node: usize,
}

impl TaskHandle {
    /// The node the task runs on.
    pub fn node(&self) -> usize {
        self.node
    }
}

/// Facade over the task services.
pub struct TaskMgmt<'a> {
    pub(crate) core: &'a NodeCore,
}

impl TaskMgmt<'_> {
    /// This node's rank in the SPMD world.
    pub fn rank(&self) -> usize {
        self.core.ctx.rank()
    }

    /// Number of nodes in the SPMD world.
    pub fn nodes(&self) -> usize {
        self.core.ctx.nodes()
    }

    /// Execute `f` on node `dst` in a fresh execution context (a new
    /// CPU thread there, clock-started at the forwarding message's
    /// arrival time). This is the forwarding mechanism the thread models
    /// are built on; the spawned context gets its own [`Hamster`].
    pub fn remote_exec(
        &self,
        dst: usize,
        f: impl FnOnce(Hamster) + Send + 'static,
    ) -> TaskHandle {
        self.core.charge_service();
        self.core.stats.task.add("remote_spawns", 1);
        if dst != self.rank() {
            self.core.stats.task.add("forwards", 1);
        }
        self.core.trace("task", "remote_exec", dst as u64);
        let rt = self.core.runtime();
        let id = rt.next_task_id();
        let origin = self.rank();
        let msg = kinds::SpawnMsg { id, origin, f: parking_lot::Mutex::new(Some(Box::new(f))) };
        self.core.ctx.port().request(dst, kinds::REMOTE_SPAWN, msg, 64);
        TaskHandle { id, node: dst }
    }

    /// Block until `task` (previously spawned from this node) finishes.
    pub fn join(&self, task: TaskHandle) {
        self.core.charge_service();
        self.core.stats.task.add("joins", 1);
        self.core.trace("task", "join", task.id as u64);
        let p = self.core.ctx.port().wait_mailbox(mailbox::tag(kinds::TASK_DONE, task.id));
        let done = downcast::<u32>(p);
        assert_eq!(done, task.id);
    }
}
