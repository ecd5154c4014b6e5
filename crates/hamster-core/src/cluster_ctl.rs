//! The Cluster Control module (paper §4.2).
//!
//! Node identification, parameter queries, and the simple messaging
//! layer. Unlike the other modules it also serves the framework itself
//! (initialization uses it), and its messaging layer is exposed to the
//! user — one half of the paper's §3.3 integration story, where the
//! previously separate native messaging stacks are coalesced into this
//! one layer.

use crate::hamster::NodeCore;
use crate::runtime::kinds;
use cluster::NodeInfo;
use interconnect::{downcast, mailbox, RequestError};

/// A received user message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UserMsg {
    /// Sending node.
    pub src: usize,
    /// Payload bytes.
    pub bytes: Vec<u8>,
}

/// Facade over the cluster-control services.
pub struct ClusterCtl<'a> {
    pub(crate) core: &'a NodeCore,
}

impl ClusterCtl<'_> {
    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.core.charge_service();
        self.core.stats.cluster.add("queries", 1);
        self.core.ctx.nodes()
    }

    /// Static description of node `rank`.
    pub fn node_info(&self, rank: usize) -> NodeInfo {
        self.core.charge_service();
        self.core.stats.cluster.add("queries", 1);
        self.core.ctx.registry().node(rank).clone()
    }

    /// Send `bytes` to node `dst` on user channel `channel`.
    pub fn send(&self, dst: usize, channel: u32, bytes: Vec<u8>) {
        self.core.charge_service();
        self.core.stats.cluster.add("msgs_sent", 1);
        self.core.stats.cluster.add("bytes_sent", bytes.len() as u64);
        let wire = bytes.len() as u64 + 16;
        let src = self.core.ctx.rank();
        // Tagged with the receiver's wait tag: if fault injection
        // destroys the message, a loss tombstone lands there so a
        // resilient receiver times out instead of blocking forever.
        self.core.ctx.port().post_tagged(
            dst,
            kinds::USER_MSG,
            (channel, UserMsg { src, bytes }),
            wire,
            mailbox::tag(kinds::USER_MSG, channel),
        );
    }

    /// Block until a message arrives on `channel`.
    ///
    /// Panics if the message was destroyed by fault injection; use
    /// [`ClusterCtl::recv_checked`] on a faulty fabric.
    pub fn recv(&self, channel: u32) -> UserMsg {
        self.recv_checked(channel).unwrap_or_else(|e| {
            panic!(
                "hamster node {}: user message on channel {channel} lost: {e}",
                self.core.ctx.rank()
            )
        })
    }

    /// Block until a message arrives on `channel`, surfacing a message
    /// destroyed by fault injection as a typed error at the sender's
    /// virtual-time deadline (the sender decides whether to resend).
    pub fn recv_checked(&self, channel: u32) -> Result<UserMsg, RequestError> {
        self.core.charge_service();
        self.core.stats.cluster.add("msgs_recv", 1);
        let p =
            self.core.ctx.port().wait_mailbox_checked(mailbox::tag(kinds::USER_MSG, channel))?;
        Ok(downcast::<UserMsg>(p))
    }

    /// Broadcast `bytes` to every other node on `channel`.
    pub fn broadcast(&self, channel: u32, bytes: &[u8]) {
        for dst in 0..self.core.ctx.nodes() {
            if dst != self.core.ctx.rank() {
                self.send(dst, channel, bytes.to_vec());
            }
        }
    }
}
