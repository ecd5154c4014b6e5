//! Message-kind constants of the software-DSM page protocol.
//!
//! Kind spaces are statically partitioned across the workspace:
//! `0x1xx` software DSM, `0x2xx` hybrid DSM, `0x3xx` HAMSTER modules,
//! `0x4xx` programming models. The software DSM's synchronisation kinds
//! are the rest of its block, `<SwDsm as Platform>::KINDS` (DESIGN.md
//! §2.6 tabulates every platform's). A kind never moves: the fault plan
//! hashes it into every decision it draws.

/// Fetch a page from its home (request → page data).
pub const GET_PAGE: u32 = 0x100;
/// Apply a batch of diffs at the home (request → ack).
pub const APPLY_DIFFS: u32 = 0x101;
/// Whole-page write-back (ablation mode; request → ack).
pub const PUT_PAGE: u32 = 0x107;
/// Digest fallback round: check cached page versions against the home
/// (request → version vector).
pub const VALIDATE: u32 = 0x16B;

/// Every page-protocol kind above.
pub const ALL: [u32; 4] = [GET_PAGE, APPLY_DIFFS, PUT_PAGE, VALIDATE];
