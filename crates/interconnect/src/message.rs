//! Message and handler types shared across the fabric.
//!
//! # Rendezvous
//!
//! Two exchanges look the same to a protocol on every fabric and are
//! carried differently by a fabric that loses nothing and one with a
//! timeout/retry policy; the choice is made here, not by the protocol:
//!
//! | the protocol says | nothing is lost | the fabric has a policy |
//! |---|---|---|
//! | [`crate::NodePort::send_reliable`] | one-way [`crate::NodePort::post_parking`] | acknowledged, retried request |
//! | [`crate::NodePort::rendezvous`] | [`crate::NodePort::post_parking`], then wait for the answer under a mailbox tag | one retried request; its reply is the answer |
//! | [`HandlerCtx::answer_later`] | [`Outcome::done`] | [`Outcome::defer`]: park the reply |
//! | [`HandlerCtx::answer_all`] | tagged post of the answer to every waiter | discharge every parked reply, reply to the arrival being served |
//!
//! A retried arrival after the answer went out (its reply was lost) is
//! the protocol's to recognise and answer again with an ordinary reply.
//!
//! On either fabric the sender runs an idle destination's handler on its
//! own thread, and then the handlers of the nodes that one posted to:
//! the arrival that completes a barrier deposits every release itself
//! and wakes each parked waiter once. Hence the rule for every caller:
//! no lock a handler takes is held across these sends.

use crate::error::DispatchError;
use std::any::Any;
use std::sync::Arc;

/// Identifier of a simulated node (0-based rank).
pub type NodeId = usize;

/// An in-process message payload. The fabric never serializes payloads —
/// all nodes live in one address space — but every send declares its
/// *wire size* so the cost model can charge serialization/bandwidth as
/// the real network would.
pub type Payload = Box<dyn Any + Send>;

/// Downcast a payload to a concrete protocol message type.
///
/// Panics on a type mismatch: handler kinds and payload types are paired
/// statically by each protocol, so a mismatch is a protocol bug, not a
/// runtime condition. Fallible handlers (see [`crate::Router::register_try`])
/// use [`try_downcast`] and surface the mismatch as a typed NACK instead.
pub fn downcast<T: 'static>(p: Payload) -> T {
    *p.downcast::<T>()
        .unwrap_or_else(|_| panic!("payload type mismatch for {}", std::any::type_name::<T>()))
}

/// Downcast a payload to a concrete protocol message type, reporting a
/// mismatch as a typed [`DispatchError`] on the `Result` path (the
/// delivery engine NACKs the requester) instead of panicking.
pub fn try_downcast<T: 'static>(p: Payload) -> Result<T, DispatchError> {
    p.downcast::<T>()
        .map(|b| *b)
        .map_err(|_| DispatchError::PayloadType { expected: std::any::type_name::<T>() })
}

/// An immutable, cheaply clonable page of bytes: the zero-copy payload
/// unit for whole-page traffic (DSM page fetches, whole-page
/// write-back).
///
/// Cloning a `Page` bumps a reference count; the bytes are shared. A
/// home store that hands out snapshots therefore pays nothing per
/// fetch, and a retried `PutPages` clones Arcs, not kilobytes. Mutation
/// goes through [`Page::make_mut`], which copies only when the bytes
/// are shared (copy-on-write) — exactly the ownership shape of a real
/// zero-copy transport, where a page in flight must not be scribbled on.
///
/// Downstream code should name this type (re-exported from `swdsm` and
/// `hybriddsm`), never the `Arc<[u8]>` representation.
#[derive(Clone, PartialEq, Eq)]
pub struct Page(Arc<[u8]>);

impl Page {
    /// A zero-filled page of `len` bytes, built in its one allocation
    /// (a `Vec` turned into an `Arc<[u8]>` would be copied into a second).
    pub fn zeroed(len: usize) -> Self {
        Self(std::iter::repeat_n(0, len).collect())
    }

    /// Number of bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True for a zero-length page.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The bytes, read-only.
    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }

    /// An owned copy of the bytes (for sinks that need a `Vec`, e.g.
    /// installing into a locally mutable page cache).
    pub fn to_vec(&self) -> Vec<u8> {
        self.0.to_vec()
    }

    /// Mutable access, copy-on-write: in-place when this is the only
    /// reference, otherwise the bytes are copied first so shared
    /// snapshots (pages in flight) are never mutated.
    pub fn make_mut(&mut self) -> &mut [u8] {
        if Arc::get_mut(&mut self.0).is_none() {
            self.0 = Arc::from(&self.0[..]);
        }
        Arc::get_mut(&mut self.0).expect("freshly copied page is uniquely owned")
    }
}

impl From<Vec<u8>> for Page {
    fn from(v: Vec<u8>) -> Self {
        Self(v.into())
    }
}

impl From<&[u8]> for Page {
    fn from(v: &[u8]) -> Self {
        Self(Arc::from(v))
    }
}

impl std::ops::Deref for Page {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for Page {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Don't dump kilobytes of page contents into assertion output.
        write!(f, "Page({} bytes)", self.0.len())
    }
}

/// What a handler produced.
pub struct Outcome {
    /// Reply payload and its wire size in bytes (for synchronous requests).
    pub reply: Option<(Payload, u64)>,
    /// Additional service time beyond the link's fixed handler cost, e.g.
    /// applying a large diff or copying a page out of the home store (ns).
    pub extra_ns: u64,
    /// Causal floor on the reply time: the reply is not ready before
    /// this virtual instant, without consuming handler capacity. Used
    /// to keep eagerly-made decisions virtually ordered (e.g. a lock
    /// grant must not precede the previous holder's release).
    pub not_before_ns: u64,
    /// When set, the handler takes ownership of the reply obligation:
    /// the transport parks the reply channel under `(this node, key,
    /// requester)` instead of answering, and a later handler invocation
    /// discharges it via [`HandlerCtx::complete_deferred`]. This is how
    /// rendezvous protocols (barriers) answer every participant with
    /// the collective result while staying pure request/reply — no
    /// side-channel broadcast for a retried request to race.
    pub defer_key: Option<u64>,
}

impl Outcome {
    /// A reply with the given wire size and no extra service time.
    pub fn reply<T: Any + Send>(value: T, wire_bytes: u64) -> Self {
        Self {
            reply: Some((Box::new(value), wire_bytes)),
            extra_ns: 0,
            not_before_ns: 0,
            defer_key: None,
        }
    }

    /// A reply plus extra handler service time.
    pub fn reply_costing<T: Any + Send>(value: T, wire_bytes: u64, extra_ns: u64) -> Self {
        Self {
            reply: Some((Box::new(value), wire_bytes)),
            extra_ns,
            not_before_ns: 0,
            defer_key: None,
        }
    }

    /// A reply that is not ready before the given virtual instant (a
    /// causal ordering floor, not handler work).
    pub fn reply_not_before<T: Any + Send>(
        value: T,
        wire_bytes: u64,
        not_before_ns: u64,
    ) -> Self {
        Self {
            reply: Some((Box::new(value), wire_bytes)),
            extra_ns: 0,
            not_before_ns,
            defer_key: None,
        }
    }

    /// No reply (one-way message), no extra cost.
    pub fn done() -> Self {
        Self { reply: None, extra_ns: 0, not_before_ns: 0, defer_key: None }
    }

    /// Park the requester's reply channel under `key` (scoped to the
    /// handling node) instead of answering now. The request must be
    /// answered later — from a subsequent handler invocation on the
    /// same node — with [`HandlerCtx::complete_deferred`], or it is
    /// failed with `FabricStopped` at teardown. Only meaningful for
    /// synchronous requests; deferring a one-way message is a protocol
    /// bug and panics in the transport.
    pub fn defer(key: u64) -> Self {
        Self { reply: None, extra_ns: 0, not_before_ns: 0, defer_key: Some(key) }
    }
}

/// Context handed to a protocol handler while it runs on a node's
/// communication daemon.
///
/// `now` is the virtual time at which the handler's fixed service window
/// ends; posts made from within the handler depart at `now` (plus the
/// handler's own `extra_ns`, which the handler should add via
/// [`HandlerCtx::post_at`] if it matters).
pub struct HandlerCtx<'a> {
    pub(crate) net: &'a crate::network::NetShared,
    /// The node this handler runs on.
    pub node: NodeId,
    /// Virtual time at which the fixed service window ends.
    pub now: u64,
}

impl HandlerCtx<'_> {
    /// Fire-and-forget message to `dst`, departing at `self.now`.
    pub fn post<T: Any + Send>(&self, dst: NodeId, kind: u32, value: T, wire_bytes: u64) {
        self.post_at(dst, kind, value, wire_bytes, self.now);
    }

    /// Fire-and-forget message departing at an explicit time (used when a
    /// handler performed additional work before sending).
    pub fn post_at<T: Any + Send>(
        &self,
        dst: NodeId,
        kind: u32,
        value: T,
        wire_bytes: u64,
        depart: u64,
    ) {
        self.net
            .post_from_handler(self.node, dst, kind, Box::new(value), wire_bytes, depart, None);
    }

    /// Like [`HandlerCtx::post`], for messages whose receiving handler
    /// deposits into the mailbox under `wake_tag`. If fault injection
    /// destroys the message, a loss tombstone lands under that tag so a
    /// resilient waiter times out instead of blocking forever.
    pub fn post_tagged<T: Any + Send>(
        &self,
        dst: NodeId,
        kind: u32,
        value: T,
        wire_bytes: u64,
        wake_tag: u64,
    ) {
        self.post_tagged_at(dst, kind, value, wire_bytes, wake_tag, self.now);
    }

    /// [`HandlerCtx::post_tagged`] with an explicit departure time.
    pub fn post_tagged_at<T: Any + Send>(
        &self,
        dst: NodeId,
        kind: u32,
        value: T,
        wire_bytes: u64,
        wake_tag: u64,
        depart: u64,
    ) {
        self.net.post_from_handler(
            self.node,
            dst,
            kind,
            Box::new(value),
            wire_bytes,
            depart,
            Some(wake_tag),
        );
    }

    /// Number of nodes in the fabric.
    pub fn nodes(&self) -> usize {
        self.net.nodes()
    }

    /// Whether the fabric runs with a timeout/retry policy installed:
    /// the one question [`HandlerCtx::answer_later`] and
    /// [`HandlerCtx::answer_all`] answer for the protocols above, which
    /// never ask it themselves.
    pub(crate) fn resilient(&self) -> bool {
        self.net.resilience().is_some()
    }

    /// Handler half of [`crate::NodePort::rendezvous`] for an arrival
    /// whose answer comes later: nothing to say yet where the answer
    /// will be posted, the reply parked under `tag` where it will be
    /// the answer.
    pub fn answer_later(&self, tag: u64) -> Outcome {
        if self.resilient() {
            Outcome::defer(tag)
        } else {
            Outcome::done()
        }
    }

    /// Handler half of [`crate::NodePort::rendezvous`] for the arrival
    /// that completes it: answer every one of `waiters` — `served`, the
    /// arrival being handled, among them — no earlier than `at_ns`.
    /// `answer` builds each recipient's `(payload, wire_bytes)` and runs
    /// once per waiter, in the order the answers leave: where the fabric
    /// loses nothing, a post of `kind` tagged `tag` to each waiter in
    /// rank order; where it has a policy, the parked reply of each
    /// waiter but `served` in the order given, then `served`'s own
    /// reply, which is the returned outcome.
    pub fn answer_all<T: Any + Send>(
        &self,
        kind: u32,
        tag: u64,
        at_ns: u64,
        served: NodeId,
        mut waiters: Vec<NodeId>,
        mut answer: impl FnMut(NodeId) -> (T, u64),
    ) -> Outcome {
        if self.resilient() {
            for who in waiters.into_iter().filter(|w| *w != served) {
                let (value, wire_bytes) = answer(who);
                self.complete_deferred(tag, who, value, wire_bytes, at_ns);
            }
            let (value, wire_bytes) = answer(served);
            return Outcome::reply_not_before(value, wire_bytes, at_ns);
        }
        waiters.sort_unstable();
        for dst in waiters {
            let (value, wire_bytes) = answer(dst);
            self.post_tagged_at(dst, kind, value, wire_bytes, tag, at_ns);
        }
        Outcome::done()
    }

    /// Answer a request whose reply was parked with [`Outcome::defer`]
    /// under `key` by requester `who`. The reply departs no earlier
    /// than `not_before_ns` (and never before the deferred request's
    /// own service completion). Panics if no such deferred request is
    /// parked — matching a discharge to a missing park is a protocol
    /// bug, not a runtime condition.
    pub fn complete_deferred<T: Any + Send>(
        &self,
        key: u64,
        who: NodeId,
        value: T,
        wire_bytes: u64,
        not_before_ns: u64,
    ) {
        self.net.complete_deferred(self.node, key, who, Box::new(value), wire_bytes, not_before_ns);
    }
}

/// A protocol handler: `(ctx, requester, payload) -> outcome`, with
/// dispatch-level failures (wrong payload type) on the `Err` path. The
/// delivery engine NACKs the requester on `Err` instead of panicking.
/// Infallible handlers register through [`crate::Router::register`],
/// which wraps them in `Ok`.
pub type Handler =
    Box<dyn Fn(&HandlerCtx<'_>, NodeId, Payload) -> Result<Outcome, DispatchError> + Send + Sync>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn downcast_roundtrip() {
        let p: Payload = Box::new(42u32);
        assert_eq!(downcast::<u32>(p), 42);
    }

    #[test]
    #[should_panic(expected = "payload type mismatch")]
    fn downcast_wrong_type_panics() {
        let p: Payload = Box::new(42u32);
        let _: u64 = downcast::<u64>(p);
    }

    #[test]
    fn try_downcast_reports_typed_mismatch() {
        let p: Payload = Box::new(42u32);
        assert_eq!(try_downcast::<u32>(p).unwrap(), 42);
        let p: Payload = Box::new(42u32);
        let err = try_downcast::<u64>(p).unwrap_err();
        assert!(matches!(err, DispatchError::PayloadType { .. }));
        assert!(err.to_string().contains("u64"), "{err}");
    }

    #[test]
    fn page_clone_shares_bytes() {
        let a = Page::from(vec![1u8, 2, 3]);
        let b = a.clone();
        assert_eq!(a.as_slice(), b.as_slice());
        assert!(std::ptr::eq(a.as_slice().as_ptr(), b.as_slice().as_ptr()), "clone is zero-copy");
    }

    #[test]
    fn page_make_mut_copies_only_when_shared() {
        let mut a = Page::from(vec![0u8; 4]);
        let before = a.as_slice().as_ptr();
        a.make_mut()[0] = 7;
        assert!(std::ptr::eq(before, a.as_slice().as_ptr()), "unique page mutates in place");
        let b = a.clone();
        a.make_mut()[1] = 9;
        assert_eq!(b.as_slice(), &[7, 0, 0, 0], "shared snapshot untouched");
        assert_eq!(a.as_slice(), &[7, 9, 0, 0]);
    }

    #[test]
    fn page_zeroed_and_debug() {
        let p = Page::zeroed(16);
        assert_eq!(p.len(), 16);
        assert!(!p.is_empty());
        assert!(p.iter().all(|&b| b == 0));
        assert_eq!(format!("{p:?}"), "Page(16 bytes)");
    }

    #[test]
    fn outcome_constructors() {
        let o = Outcome::reply(7u8, 16);
        assert!(o.reply.is_some());
        assert_eq!(o.extra_ns, 0);
        let o = Outcome::done();
        assert!(o.reply.is_none());
        assert_eq!(o.extra_ns, 0);
    }
}
