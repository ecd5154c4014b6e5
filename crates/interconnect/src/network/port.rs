//! The application's verbs: requests (single, retried, batched), posts,
//! rendezvous and mailbox waits, each charged to the caller's clock.

use super::send::SendCtx;
use super::{NetShared, ReplyMsg, STAT_BYTES, STAT_POSTS, STAT_REQUESTS};
use crate::error::RequestError;
use crate::fault::Resilience;
use crate::mailbox::Mailbox;
use crate::message::{NodeId, Payload};
use crate::reliable;
use crossbeam::channel::{unbounded, Receiver};
use sim::{LinkCost, VirtualClock};
use std::sync::Arc;

/// Per-node endpoint used by application (and HAMSTER-service) threads.
#[derive(Clone)]
pub struct NodePort {
    pub(super) node: NodeId,
    pub(super) clock: Arc<VirtualClock>,
    pub(super) shared: Arc<NetShared>,
}

impl NodePort {
    /// This endpoint's node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Number of nodes in the fabric.
    pub fn nodes(&self) -> usize {
        self.shared.nodes()
    }

    /// The virtual clock this port charges time to.
    pub fn clock(&self) -> &Arc<VirtualClock> {
        &self.clock
    }

    /// The same endpoint bound to a different clock (used when a second
    /// CPU of the node issues traffic).
    pub fn with_clock(&self, clock: Arc<VirtualClock>) -> NodePort {
        NodePort { node: self.node, clock, shared: self.shared.clone() }
    }

    /// This node's mailbox.
    pub fn mailbox(&self) -> &Mailbox {
        &self.shared.mailboxes[self.node]
    }

    /// Answer a request one of this node's handlers parked with
    /// [`crate::Outcome::defer`] under `key` by requester `who`, from
    /// application context. The reply departs no earlier than
    /// `not_before_ns` (and never before the deferred request's own
    /// service completion). Blocks until the park exists: the handler
    /// that wakes this thread runs *before* the engine registers its
    /// [`crate::Outcome::defer`], so an early discharge waits the few
    /// instructions until the park lands rather than misfiring.
    ///
    /// This is the application-thread twin of
    /// [`crate::HandlerCtx::complete_deferred`]: protocols whose
    /// release point is driven by a blocking exchange on the
    /// application thread (e.g. a tree barrier pulling its wave from
    /// the parent) discharge their children's parked replies here.
    pub fn complete_deferred<T: std::any::Any + Send>(
        &self,
        key: u64,
        who: NodeId,
        value: T,
        wire_bytes: u64,
        not_before_ns: u64,
    ) {
        let reply = (Box::new(value) as Payload, wire_bytes);
        self.shared.complete_deferred((self.node, key, who), reply, not_before_ns, true);
    }

    /// Block on the mailbox and advance the clock to the wake-up's
    /// arrival time. Returns the payload. Panics if the wake-up was
    /// destroyed by fault injection — waiters on a faulty fabric must
    /// use [`NodePort::wait_mailbox_checked`].
    pub fn wait_mailbox(&self, tag: u64) -> Payload {
        // Only `send_user` deposits a loss tombstone, and only under
        // a fault or membership plan: a waiter that can run under one
        // uses the checked form.
        self.wait_mailbox_checked(tag).unwrap_or_else(|e| {
            panic!("node {}: wake-up under tag {tag:#x} lost ({e}) with no resilient waiter", self.node)
        })
    }

    /// Block on the mailbox until a deposit under `tag` arrives, or
    /// until the fault injector's loss tombstone reports that the
    /// wake-up was destroyed (surfacing as a `Timeout` at the sender's
    /// deadline, in virtual time).
    pub fn wait_mailbox_checked(&self, tag: u64) -> Result<Payload, RequestError> {
        let d = self.shared.mailboxes[self.node].wait(tag);
        if d.lost {
            self.clock.advance_to(d.arrive_ns);
            self.shared.stats.add("timeouts", 1);
            return Err(RequestError::Timeout { deadline_ns: d.arrive_ns });
        }
        self.clock.advance_to(d.arrive_ns);
        self.clock.advance(self.shared.recv_eff_ns);
        Ok(d.payload)
    }

    /// Synchronous request: sends `value` to `dst` under `kind`, blocks
    /// for the reply, charges the full round trip (send overhead, wire,
    /// handler queueing and service, reply wire, receive overhead) to
    /// this node's clock, and returns the reply payload.
    ///
    /// Infallible form: panics on fabric failure. Use
    /// [`NodePort::try_request`] or [`NodePort::request_retrying`] on a
    /// faulty fabric.
    pub fn request<T: std::any::Any + Send>(
        &self,
        dst: NodeId,
        kind: u32,
        value: T,
        wire_bytes: u64,
    ) -> Payload {
        // Without a fault or membership plan every error left is fatal
        // (`FabricStopped`, `HandlerFailed`): there is nothing to act on.
        self.try_request(dst, kind, value, wire_bytes)
            .unwrap_or_else(|e| panic!("request kind {kind:#x} to node {dst} failed: {e}"))
    }

    /// [`NodePort::request`] with failures surfaced as typed errors
    /// instead of panics. Lost messages and dead peers resolve at
    /// virtual-time deadlines; the clock is always advanced to the
    /// moment the failure was known.
    pub fn try_request<T: std::any::Any + Send>(
        &self,
        dst: NodeId,
        kind: u32,
        value: T,
        wire_bytes: u64,
    ) -> Result<Payload, RequestError> {
        let t0 = self.clock.now();
        let (req_id, rx) = self.send_request(dst, kind, value, wire_bytes);
        let (res, at) = self.settle(dst, &rx);
        self.clock.advance_to(at);
        if res.is_ok() {
            self.clock.advance(self.shared.recv_eff_ns);
            self.shared.rtt_hist.record(self.clock.now() - t0);
        }
        if sim::trace::enabled() {
            let dur = self.clock.now() - t0;
            sim::trace::span_corr(t0, dur, self.node, "net", "request", kind as u64, req_id);
        }
        res
    }

    /// Send a request: its counters, its send overhead on this CPU, and
    /// the channel its reply will come on. Returns the delivery id.
    fn send_request<T: std::any::Any + Send>(
        &self,
        dst: NodeId,
        kind: u32,
        value: T,
        wire_bytes: u64,
    ) -> (u64, Receiver<ReplyMsg>) {
        self.shared.stats.at(STAT_REQUESTS).incr();
        self.shared.stats.at(STAT_BYTES).add(wire_bytes);
        let depart = self.clock.advance(self.shared.send_eff_ns);
        let (tx, rx) = unbounded();
        let (node, payload, ctx) = (self.node, Box::new(value), SendCtx::AppBlocking);
        (self.shared.send_user(node, dst, kind, payload, wire_bytes, depart, Some(tx), None, ctx), rx)
    }

    /// [`NodePort::try_request`] plus the fabric's retry policy:
    /// transient failures (timeouts, dead peers) back off exponentially
    /// — with deterministic jitter — and retry with a fresh delivery
    /// id, up to the policy's attempt budget. Fatal errors and
    /// exhausted budgets surface as `Err`. A fabric built without a
    /// policy makes exactly one attempt, which moves `value`: callers
    /// need not know which kind of fabric they are on.
    pub fn request_retrying<T: std::any::Any + Send + Clone>(
        &self,
        dst: NodeId,
        kind: u32,
        value: T,
        wire_bytes: u64,
    ) -> Result<Payload, RequestError> {
        let Some(res) = self.shared.resilience else {
            return self.try_request(dst, kind, value, wire_bytes);
        };
        match self.try_request(dst, kind, value.clone(), wire_bytes) {
            Ok(p) => Ok(p),
            Err(e) => self.retry_loop(res, dst, kind, &value, wire_bytes, e),
        }
    }

    /// Drive the backoff/retry schedule after a first failure
    /// ([`reliable::retry`] decides whether and how long to wait).
    fn retry_loop<T: std::any::Any + Send + Clone>(
        &self,
        res: Resilience,
        dst: NodeId,
        kind: u32,
        value: &T,
        wire_bytes: u64,
        mut last: RequestError,
    ) -> Result<Payload, RequestError> {
        let (node, faults) = (self.node, self.shared.faults.as_ref());
        let mut failures = 1;
        let position = |kind| self.shared.position(node, dst, kind);
        while let Some(pause) = reliable::retry(&res.retry, faults, (node, dst, kind), failures, &last, position) {
            self.shared.stats.add("retries", 1);
            sim::trace::instant(self.clock.now(), node, "fault", "retry", kind as u64);
            self.clock.advance(pause);
            match self.try_request(dst, kind, value.clone(), wire_bytes) {
                Ok(p) => return Ok(p),
                Err(e) => last = e,
            }
            failures += 1;
        }
        Err(last)
    }

    /// Take the reply to a request sent to `dst`: the payload and the
    /// virtual time it is back here (the wire arrival, before receive
    /// overhead), or the error and the time it was known (0 when the
    /// fabric dropped the channel unanswered). A reply's wire arrival
    /// charges the replier's egress bus, so replies are settled in
    /// request order.
    fn settle(&self, dst: NodeId, rx: &Receiver<ReplyMsg>) -> (Result<Payload, RequestError>, u64) {
        match rx.recv() {
            Ok(ReplyMsg::Ok { payload, wire_bytes, ready_ns }) => {
                (Ok(payload), self.shared.wire_arrival(dst, self.node, ready_ns, wire_bytes))
            }
            Ok(ReplyMsg::Err { err, ready_ns }) => {
                match err {
                    RequestError::Timeout { .. } => self.shared.stats.add("timeouts", 1),
                    RequestError::NodeDown { .. } => self.shared.stats.add("nodedown", 1),
                    _ => {}
                }
                (Err(err), ready_ns)
            }
            Err(_) => (Err(RequestError::FabricStopped), 0),
        }
    }

    /// Pipelined batch of synchronous requests: all messages are sent
    /// back-to-back (each paying send overhead on this CPU), then the
    /// clock advances to the completion of the *latest* reply — the
    /// behaviour of a DSM that pushes diffs to several homes in parallel
    /// and waits for all acknowledgements.
    ///
    /// Entries that fail transiently are retried individually (with
    /// backoff, see [`NodePort::request_retrying`]) after the batch
    /// settles, so one lost diff doesn't abort a whole flush. Returns
    /// replies in request order, or the first unrecoverable error. Only
    /// a fabric with a retry policy keeps a copy of each payload to
    /// retry with; without one every payload is moved, never cloned.
    pub fn request_batch<T: std::any::Any + Send + Clone>(
        &self,
        msgs: Vec<(NodeId, u32, T, u64)>,
    ) -> Result<Vec<Payload>, RequestError> {
        let t0 = self.clock.now();
        let n_msgs = msgs.len() as u64;
        let resilience = self.shared.resilience;
        let mut kept: Vec<T> = Vec::with_capacity(resilience.map_or(0, |_| msgs.len()));
        let mut pending = Vec::with_capacity(msgs.len());
        for (dst, kind, value, wire_bytes) in msgs {
            if resilience.is_some() {
                kept.push(value.clone());
            }
            let (_, rx) = self.send_request(dst, kind, value, wire_bytes);
            pending.push((dst, kind, wire_bytes, rx));
        }
        let mut latest = self.clock.now();
        let first: Vec<Result<Payload, RequestError>> = pending
            .iter()
            .map(|(dst, _, _, rx)| {
                let (res, at) = self.settle(*dst, rx);
                latest = latest.max(if res.is_ok() { at + self.shared.recv_eff_ns } else { at });
                res
            })
            .collect();
        self.clock.advance_to(latest);
        // Failed entries are retried in request order; the first that
        // stays failed ends the batch.
        let out = first
            .into_iter()
            .zip(&pending)
            .enumerate()
            .map(|(i, (reply, &(dst, kind, wire_bytes, _)))| match reply {
                Ok(payload) => Ok(payload),
                Err(err) => match resilience {
                    Some(res) => self.retry_loop(res, dst, kind, &kept[i], wire_bytes, err),
                    None => Err(err),
                },
            })
            .collect::<Result<Vec<_>, _>>()?;
        if sim::trace::enabled() && n_msgs > 0 {
            sim::trace::span(t0, self.clock.now() - t0, self.node, "net", "request_batch", n_msgs);
        }
        Ok(out)
    }

    /// Fire-and-forget message to `dst`. Charges only the send overhead
    /// to this node's clock.
    pub fn post<T: std::any::Any + Send>(&self, dst: NodeId, kind: u32, value: T, wire_bytes: u64) {
        self.post_inner(dst, kind, value, wire_bytes, None, SendCtx::AppPost);
    }

    /// Like [`NodePort::post`], for messages whose receiving handler
    /// deposits into a mailbox under `wake_tag`: if fault injection
    /// destroys the message, a loss tombstone lands under that tag so
    /// the waiter times out instead of blocking forever.
    pub fn post_tagged<T: std::any::Any + Send>(
        &self,
        dst: NodeId,
        kind: u32,
        value: T,
        wire_bytes: u64,
        wake_tag: u64,
    ) {
        self.post_inner(dst, kind, value, wire_bytes, Some(wake_tag), SendCtx::AppPost);
    }

    /// A [`NodePort::post`] whose sender's next act is to park on what
    /// the handler — or the handlers it posts to — deposits: a barrier
    /// arrival, a lock hand-off. The same message at the same cost in
    /// virtual time, but an idle `dst` is driven on this thread, as a
    /// request's is, so the deposit is usually there before the sender
    /// looks. The caller holds no lock a handler takes.
    pub fn post_parking<T: std::any::Any + Send>(&self, dst: NodeId, kind: u32, value: T, wire_bytes: u64) {
        self.post_inner(dst, kind, value, wire_bytes, None, SendCtx::AppBlocking);
    }

    fn post_inner<T: std::any::Any + Send>(
        &self,
        dst: NodeId,
        kind: u32,
        value: T,
        wire_bytes: u64,
        wake_tag: Option<u64>,
        ctx: SendCtx,
    ) {
        self.shared.stats.at(STAT_POSTS).incr();
        self.shared.stats.at(STAT_BYTES).add(wire_bytes);
        let depart = self.clock.advance(self.shared.send_eff_ns);
        let (node, payload) = (self.node, Box::new(value));
        let req_id = self.shared.send_user(node, dst, kind, payload, wire_bytes, depart, None, wake_tag, ctx);
        sim::trace::instant_corr(depart, self.node, "net", "post", kind as u64, req_id);
    }

    /// Post `value` to every node except this one. The payload must be
    /// `Clone` because each destination gets its own copy.
    pub fn broadcast<T: std::any::Any + Send + Clone>(&self, kind: u32, value: T, wire_bytes: u64) {
        for dst in 0..self.nodes() {
            if dst != self.node {
                self.post(dst, kind, value.clone(), wire_bytes);
            }
        }
    }

    /// A one-way message the protocol cannot afford to lose (a lock
    /// release): a [`NodePort::post_parking`] where the fabric loses
    /// nothing — the releaser hands the lock on itself rather than wake
    /// a worker to do it — an acknowledged
    /// [`NodePort::request_retrying`] where it has a policy — the
    /// transport acks it without handler help, so the handler returns
    /// [`crate::Outcome::done`] on both.
    pub fn send_reliable<T: std::any::Any + Send + Clone>(
        &self,
        dst: NodeId,
        kind: u32,
        value: T,
        wire_bytes: u64,
    ) -> Result<(), RequestError> {
        if self.shared.resilience.is_none() {
            self.post_parking(dst, kind, value, wire_bytes);
            return Ok(());
        }
        self.request_retrying(dst, kind, value, wire_bytes).map(drop)
    }

    /// Join the rendezvous `dst` runs under `kind` and return its
    /// answer. Where the fabric loses nothing this is a
    /// [`NodePort::post_parking`] and a wait for the answer posted back
    /// under `tag`; where it has a policy, one retried request whose reply —
    /// parked by [`crate::HandlerCtx::answer_later`] until
    /// [`crate::HandlerCtx::answer_all`] — is the answer, so every loss heals
    /// at this requester's deadline. See the rendezvous section of
    /// [`crate::message`].
    pub fn rendezvous<T: std::any::Any + Send + Clone>(
        &self,
        dst: NodeId,
        kind: u32,
        value: T,
        wire_bytes: u64,
        tag: u64,
    ) -> Result<Payload, RequestError> {
        if self.shared.resilience.is_none() {
            self.post_parking(dst, kind, value, wire_bytes);
            return self.wait_mailbox_checked(tag);
        }
        self.request_retrying(dst, kind, value, wire_bytes)
    }

    /// The link cost model of this fabric.
    pub fn link_cost(&self) -> LinkCost {
        self.shared.cost
    }
}
