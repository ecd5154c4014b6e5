//! Message-kind constants of the software-DSM protocol.
//!
//! Kind spaces are statically partitioned across the workspace:
//! `0x1xx` software DSM, `0x2xx` hybrid DSM, `0x3xx` HAMSTER modules,
//! `0x4xx` programming models.

/// Fetch a page from its home (request → page data).
pub const GET_PAGE: u32 = 0x100;
/// Apply a batch of diffs at the home (request → ack).
pub const APPLY_DIFFS: u32 = 0x101;
/// Acquire a lock (request → grant or queued).
pub const LOCK_REQ: u32 = 0x102;
/// Release a lock (one-way to the manager).
pub const LOCK_REL: u32 = 0x103;
/// Lock grant delivered to a queued requester (one-way).
pub const LOCK_GRANT: u32 = 0x104;
/// Barrier arrival (one-way to the manager).
pub const BARRIER_ARRIVE: u32 = 0x105;
/// Barrier release (one-way to every participant).
pub const BARRIER_RELEASE: u32 = 0x106;
/// Whole-page write-back (ablation mode; request → ack).
pub const PUT_PAGE: u32 = 0x107;
/// Tree barrier: a child sends its subtree's aggregated intervals to
/// its parent (request → the child's release wave).
pub const TREE_AGG: u32 = 0x162;
/// Tree barrier: the key under which the parent parks an aggregate's
/// reply — the release wave, the complement of the receiving subtree's
/// intervals — until its own release point.
pub const TREE_WAVE: u32 = 0x163;
/// Lock-token queue: the application starts an acquire by messaging its
/// *own* handler (serializes the holder slot against in-flight
/// successor notifications).
pub const TOK_ACQ_LOCAL: u32 = 0x164;
/// Lock-token queue: enqueue at the lock's manager (one-way).
pub const TOK_ACQ: u32 = 0x165;
/// Lock-token queue: the token (with its notices) passes to the next
/// holder — from the previous holder directly, or from the manager.
pub const TOK_PASS: u32 = 0x166;
/// Lock-token queue: the manager names the new queue tail's predecessor
/// its successor (one-way to the predecessor).
pub const TOK_SET_SUCC: u32 = 0x167;
/// Lock-token queue: the application releases by messaging its own
/// handler, which forwards or returns the token.
pub const TOK_REL: u32 = 0x168;
/// Lock-token queue: a holder with no known successor returns the token
/// to the manager (one-way).
pub const TOK_RETURN: u32 = 0x169;
/// Lock-token queue: a node that received a successor notification for
/// a tenure it already ended tells the manager to forward the (parked
/// or in-flight) token to that successor.
pub const TOK_CLAIM: u32 = 0x16A;
/// Digest fallback round: check cached page versions against the home
/// (request → version vector).
pub const VALIDATE: u32 = 0x16B;
