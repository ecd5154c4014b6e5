//! The per-node DSM engine: access functions, interval flushing,
//! synchronization, and the cluster-shared protocol state.
//!
//! Locks and barriers — central manager or token queue, central or
//! tree barrier — are the cluster's one synchronisation driver
//! (`cluster::syncproto::driver`) with `SwDsm` as its [`Platform`]:
//! write notices ride the messages, the driver counts them on this
//! DSM's per-node counters, and the one hook migrates homes at the
//! quiescent point. What stays here is the release and acquire work
//! around each synchronisation (flush, apply). Nothing here asks which
//! fabric it is on, or which lock protocol serves it.

use crate::home::HomeStore;
use crate::kinds;
use crate::proto::*;
use cluster::syncproto::driver::{self, Driver, Kinds, Platform};
use cluster::syncproto::lock::Mode;
use cluster::syncproto::MAX_SYNC_ROUNDS;
use cluster::{Cluster, NodeCtx, SyncTopology};
use interconnect::{downcast, try_downcast, Outcome, Page, RequestError};
use memwire::{
    local_region, local_region_owner, Access, CachedPage, Diff, Distribution, Engine, GlobalAddr,
    Interval, PageId, PageTable, RegionDir, RegionMeta, LOCAL_REGION_BASE, PAGE_SIZE,
};
use parking_lot::Mutex;
use sim::{MachineCost, Sketch, StatSet};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Per-writer write notices, as lock grants carry them.
type Notices = cluster::syncproto::Notices<NoticeSet>;

/// Barrier ids with the top bit set are reserved for internal use
/// (collective allocation).
const ALLOC_BARRIER: u32 = 0x8000_0000;

/// Cost of one page-fault trap (SIGSEGV + kernel + handler entry).
const FAULT_TRAP_NS: u64 = 20_000;
/// Cost of snapshotting a twin (one page copy).
const TWIN_NS: u64 = 3_000;
/// Cost of scanning a page against its twin to encode a diff.
const DIFF_SCAN_NS: u64 = 4_000;
/// Fixed cost of applying one diff at the home...
const DIFF_APPLY_BASE_NS: u64 = 1_000;
/// ...plus this much per changed byte.
const DIFF_APPLY_PER_BYTE_NS: u64 = 1;
/// Cost for the home to copy a page into a fetch reply.
const PAGE_COPY_NS: u64 = 2_000;

/// A synchronization operation failed unrecoverably on a faulty fabric:
/// either a fatal [`RequestError`] or transient faults outlasting every
/// retry. Returned by the `try_*` synchronization entry points; the
/// infallible wrappers turn it into a structured panic (the node's
/// orderly shutdown report).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DsmError {
    /// The failing operation ("lock_acquire", "lock_release", "barrier").
    pub op: &'static str,
    /// The lock or barrier id involved.
    pub id: u32,
    /// The underlying fabric error.
    pub err: RequestError,
}

impl std::fmt::Display for DsmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} of {} failed: {}", self.op, self.id, self.err)
    }
}

impl std::error::Error for DsmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.err)
    }
}

/// An explicit page placement ([`SwDsm::place_home`]) was refused; the
/// home stays where it was, and nothing is counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlaceError {
    /// The requested target rank does not exist on this cluster.
    NoSuchNode {
        /// The requested (out-of-range) rank.
        to: usize,
        /// Number of nodes in the cluster.
        nodes: usize,
    },
}

impl std::fmt::Display for PlaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlaceError::NoSuchNode { to, nodes } => {
                write!(f, "placement target {to} out of range (cluster has {nodes} nodes)")
            }
        }
    }
}

impl std::error::Error for PlaceError {}

/// Protocol tunables of the software DSM.
#[derive(Debug, Clone, Copy)]
pub struct DsmConfig {
    /// Ship whole pages home at release points instead of diffs
    /// (ablation baseline; much more wire traffic).
    pub whole_page_writeback: bool,
    /// Scope consistency on lock edges: grants carry write notices and
    /// acquirers invalidate exactly those pages. When false, acquirers
    /// conservatively invalidate their whole cache (the pre-scope
    /// "barrier-wide invalidation" baseline).
    pub notices_on_locks: bool,
    /// Maximum cached (remotely homed) pages per node; 0 = unbounded.
    /// Real JiaJia bounds its page cache by available memory; evictions
    /// write dirty pages home and drop clean ones FIFO.
    pub cache_pages: usize,
    /// Adaptive home migration (JiaJia's optimization): a page diffed by
    /// the same single remote writer `migration_threshold` times in a row
    /// migrates its home to that writer at the next barrier, turning its
    /// future diffs into local writes.
    pub home_migration: bool,
    /// Consecutive same-writer diffs before a page migrates.
    pub migration_threshold: u32,
    /// Adaptive state transfer cutoff: a barrier release carrying more
    /// than this many notice records is applied as a bulk *snapshot
    /// sync* (drop every cached copy and eagerly refetch, counted under
    /// `snapshot_bytes`) instead of incremental delta replay (counted
    /// under `delta_records`). The choice is a pure function of the
    /// release contents, hence deterministic. 0 disables the snapshot
    /// path — every release replays incrementally (the default).
    pub delta_max_records: u64,
}

impl Default for DsmConfig {
    fn default() -> Self {
        Self {
            whole_page_writeback: false,
            notices_on_locks: true,
            cache_pages: 0,
            home_migration: false,
            migration_threshold: 2,
            delta_max_records: 0,
        }
    }
}

/// Cluster-shared state of the software DSM: home stores, the
/// synchronisation driver (lock and barrier state for whichever
/// [`SyncTopology`] the fabric selected), the region directory, and
/// per-node statistics.
pub struct SwDsm {
    cfg: DsmConfig,
    /// Synchronization topology, taken from the fabric config at
    /// install time (see `FabricConfig::builder().sync(..)`).
    sync: SyncTopology,
    nodes: usize,
    machine: MachineCost,
    dir: RegionDir,
    homes: Vec<Mutex<HomeStore>>,
    driver: Arc<Driver<SwDsm>>,
    stats: Vec<StatSet>,
    /// Pages whose home moved away from their distribution-derived node
    /// (the migration directory; real JiaJia piggybacks it on barriers).
    /// Fed by adaptive migration and by explicit [`SwDsm::place_home`]
    /// placements.
    home_override: parking_lot::RwLock<HashMap<PageId, usize>>,
    /// Fast-path flag: true once `home_override` has any entry, so the
    /// hot `home_of` lookup skips the read lock on untuned runs.
    home_overridden: AtomicBool,
    /// Per-home tracking of consecutive same-writer diffs, and the
    /// migration candidates gathered for the next barrier.
    migration: Vec<Mutex<MigrationTrack>>,
    /// Bumped once per home-migration round (adaptive or explicit).
    /// Rides `PageReply::Moved` redirects so traces can correlate a
    /// stale-directory fetch with the re-homing that outdated it.
    migration_epoch: AtomicU64,
}

#[derive(Default)]
struct MigrationTrack {
    last_writer: HashMap<PageId, (usize, u32)>,
    candidates: Vec<(PageId, usize)>,
}

/// The DSM's own per-node statistics (JiaJia-style counters); each
/// node's set continues with the synchronisation driver's
/// ([`driver::STAT_NAMES`]).
pub const STAT_NAMES: &[&str] = &[
    "getpages",
    "diffs",
    "diff_bytes",
    "invalidations",
    "twins",
    "traps",
    "evictions",
    "migrations",
    "reads",
    "writes",
    "digest_hits",
    "digest_misses",
    "pages_rehomed",
    "view_changes",
    "pages_migrated",
    "snapshot_bytes",
    "delta_records",
];

/// Indices of the counters every access bumps (checked at compile time).
const READS: usize = sim::stats::stat_index(STAT_NAMES, "reads");
const WRITES: usize = sim::stats::stat_index(STAT_NAMES, "writes");

impl SwDsm {
    /// Create the DSM over `cluster` and register its protocol handlers
    /// on every node. Call once, before [`Cluster::run`].
    pub fn install(cluster: &Cluster, cfg: DsmConfig) -> Arc<SwDsm> {
        let nodes = cluster.config().nodes;
        let names = [STAT_NAMES, driver::STAT_NAMES].concat();
        let stats: Vec<StatSet> = (0..nodes).map(|_| StatSet::new(&names)).collect();
        // Home migration composes with digests: migrations carry the
        // page's modification counter to the new home (export/adopt
        // merges by maximum), so digest validation never sees a counter
        // move backwards across a re-homing.
        let dsm = Arc::new(SwDsm {
            cfg,
            sync: cluster.config().sync,
            nodes,
            machine: cluster.config().cost.machine,
            dir: RegionDir::new(),
            homes: (0..nodes).map(|_| Mutex::new(HomeStore::new())).collect(),
            driver: Driver::new(cluster, stats.clone()),
            stats,
            home_override: parking_lot::RwLock::new(HashMap::new()),
            home_overridden: AtomicBool::new(false),
            migration: (0..nodes).map(|_| Mutex::new(MigrationTrack::default())).collect(),
            migration_epoch: AtomicU64::new(0),
        });
        dsm.driver.register(cluster, dsm.clone());
        dsm.register_handlers(cluster);
        dsm
    }

    /// Per-node statistics: [`STAT_NAMES`], then the synchronisation
    /// driver's.
    pub fn stats(&self, node: usize) -> &StatSet {
        &self.stats[node]
    }

    /// The protocol configuration.
    pub fn config(&self) -> &DsmConfig {
        &self.cfg
    }

    /// The synchronization topology the DSM was installed with.
    pub fn sync(&self) -> SyncTopology {
        self.sync
    }

    /// Lock-acquire latency histogram (shared storage: the returned
    /// clone observes later acquisitions too).
    pub fn lock_histogram(&self) -> Sketch {
        self.driver.lock_histogram()
    }

    /// Home node of `page` (override directory first — adaptive
    /// migrations and explicit placements — then the allocation's
    /// distribution).
    pub fn home_of(&self, page: PageId) -> usize {
        if self.home_overridden.load(Ordering::Acquire) {
            if let Some(&home) = self.home_override.read().get(&page) {
                return home;
            }
        }
        // Single-node allocations are homed on the allocating rank.
        local_region_owner(page.region)
            .unwrap_or_else(|| self.dir.meta(page.region).home_of(page.index, self.nodes))
    }

    /// Explicitly place the home of `page` on node `to` (the tuner's
    /// re-homing action, applied from `place_home` configuration). Call *before* [`Cluster::run`]: placement is
    /// part of run configuration, like the sync topology — moving a
    /// home mid-run outside the barrier quiescent point would race the
    /// page's own diff traffic.
    ///
    /// The master copy (if any) moves to `to` as a version-carrying
    /// migration record — the page's modification counter travels with
    /// the bytes and merges by maximum at the new home, so write-notice
    /// digests stay valid across the move. `pages_rehomed` +
    /// `tuner_actions` are counted at `to`.
    pub fn place_home(&self, page: PageId, to: usize) -> Result<(), PlaceError> {
        if to >= self.nodes {
            return Err(PlaceError::NoSuchNode { to, nodes: self.nodes });
        }
        // Placement usually precedes the run that allocates the region
        // (ids are deterministic under collective allocation), so there
        // is nothing to move yet — the new home zero-fills lazily. Only
        // an already-allocated region can hold a master copy to carry.
        if page.region < LOCAL_REGION_BASE && self.dir.exists(page.region) {
            let old = self.home_of(page);
            if old != to {
                let (bytes, version) = self.homes[old].lock().export(page);
                self.homes[to].lock().adopt(page, bytes, version);
                self.stats[to].add("pages_migrated", 1);
                self.migration_epoch.fetch_add(1, Ordering::AcqRel);
            }
        }
        self.home_override.write().insert(page, to);
        self.home_overridden.store(true, Ordering::Release);
        self.stats[to].add("pages_rehomed", 1);
        self.stats[to].add("tuner_actions", 1);
        Ok(())
    }

    /// Record a remote diff for migration tracking (at the home `node`).
    fn track_diff_writer(&self, node: usize, page: PageId, writer: usize) {
        if !self.cfg.home_migration || writer == node {
            return;
        }
        let mut t = self.migration[node].lock();
        let entry = t.last_writer.entry(page).or_insert((writer, 0));
        if entry.0 == writer {
            entry.1 += 1;
        } else {
            *entry = (writer, 1);
        }
        if entry.1 >= self.cfg.migration_threshold
            && !t.candidates.iter().any(|(p, _)| *p == page)
        {
            t.candidates.push((page, writer));
        }
    }

    fn register_handlers(self: &Arc<Self>, cluster: &Cluster) {
        let net = cluster.network();

        // Page-path handlers register through the fallible API: a
        // malformed payload NACKs the requester with a typed
        // DispatchError instead of panicking the delivery engine.

        // Page fetch: reply with a snapshot of the master copy — a
        // shared Page handle, so no byte copy happens here.
        let dsm = self.clone();
        net.register_all_try(kinds::GET_PAGE, move |node| {
            let dsm = dsm.clone();
            move |_ctx: &interconnect::HandlerCtx<'_>, _src, p| {
                let req = try_downcast::<GetPage>(p)?;
                let home = dsm.home_of(req.page);
                if home != node {
                    // The fetch crossed a re-homing round (the request
                    // departed under the old directory, or a delayed
                    // duplicate outlived the migration): redirect to
                    // the current home instead of serving a non-master
                    // copy.
                    let epoch = dsm.migration_epoch.load(Ordering::Acquire);
                    return Ok(Outcome::reply(PageReply::Moved { to: home, epoch }, 24));
                }
                let (bytes, version) = {
                    let mut home = dsm.homes[node].lock();
                    (home.snapshot(req.page), home.version(req.page))
                };
                Ok(Outcome::reply_costing(
                    PageReply::Data(PageData { bytes, version }),
                    PAGE_SIZE as u64 + 24,
                    PAGE_COPY_NS,
                ))
            }
        });

        // Diff application at the home.
        let dsm = self.clone();
        net.register_all_try(kinds::APPLY_DIFFS, move |node| {
            let dsm = dsm.clone();
            move |_ctx: &interconnect::HandlerCtx<'_>, src, p| {
                let msg = try_downcast::<ApplyDiffs>(p)?;
                let mut extra = 0;
                {
                    let mut home = dsm.homes[node].lock();
                    for (page, diff) in &msg.diffs {
                        debug_assert_eq!(dsm.home_of(*page), node, "diff sent to non-home");
                        extra += DIFF_APPLY_BASE_NS
                            + DIFF_APPLY_PER_BYTE_NS * diff.changed_bytes() as u64;
                        home.apply_diff(*page, diff);
                    }
                }
                for (page, _) in &msg.diffs {
                    dsm.track_diff_writer(node, *page, src);
                }
                Ok(Outcome::reply_costing((), 8, extra))
            }
        });

        // Whole-page write-back (ablation mode). Installing the shipped
        // Page is a reference-count move, not a copy.
        let dsm = self.clone();
        net.register_all_try(kinds::PUT_PAGE, move |node| {
            let dsm = dsm.clone();
            move |_ctx: &interconnect::HandlerCtx<'_>, _src, p| {
                let msg = try_downcast::<PutPages>(p)?;
                let extra = msg.pages.len() as u64 * PAGE_COPY_NS;
                let mut home = dsm.homes[node].lock();
                for (page, bytes) in msg.pages {
                    home.replace(page, bytes);
                }
                Ok(Outcome::reply_costing((), 8, extra))
            }
        });

        // Digest fallback: report home page versions so Bloom positives
        // can be told apart from genuinely stale copies.
        let dsm = self.clone();
        net.register_all_try(kinds::VALIDATE, move |node| {
            let dsm = dsm.clone();
            move |_ctx: &interconnect::HandlerCtx<'_>, _src, p| {
                let req = try_downcast::<ValidateReq>(p)?;
                let home = dsm.homes[node].lock();
                let versions = req.pages.iter().map(|&pg| home.version(pg)).collect::<Vec<_>>();
                let bytes = 8 + 8 * versions.len() as u64;
                Ok(Outcome::reply(ValidateRep { versions }, bytes))
            }
        });

    }

    /// Bind a per-node engine. One per node thread.
    pub fn node(self: &Arc<Self>, ctx: NodeCtx) -> DsmNode {
        DsmNode {
            dsm: self.clone(),
            rank: ctx.rank(),
            ctx,
            table: Mutex::new(PageTable::new()),
            cache_versions: Mutex::new(HashMap::new()),
            local_mods: Mutex::new(BTreeSet::new()),
            epoch_mods: Mutex::new(Interval::default()),
            next_region: Mutex::new(NextRegions { collective: 1, local: 0 }),
            last_transfer_ns: AtomicU64::new(0),
            last_transfer_snapshot: AtomicBool::new(false),
        }
    }
}

/// The software DSM's synchronisation: write notices ride every message
/// (a release publishes an [`Interval`], a barrier wave carries a
/// [`NoticeSet`]), and the hook migrates homes at the quiescent point.
impl Platform for SwDsm {
    type Wave = NoticeSet;
    /// The synchronisation half of the `0x1xx` block (the page protocol
    /// has the rest, [`kinds`]).
    const KINDS: Kinds = Kinds {
        lock_req: 0x102,
        lock_rel: 0x103,
        lock_grant: 0x104,
        bar_arrive: 0x105,
        bar_release: 0x106,
        tree_agg: 0x162,
        tree_wave: 0x163,
        tok_acq_local: 0x164,
        tok_acq: 0x165,
        tok_pass: 0x166,
        tok_set_succ: 0x167,
        tok_rel: 0x168,
        tok_return: 0x169,
        tok_claim: 0x16A,
    };
    const MODULE: &'static str = "swdsm";

    fn pub_bytes(interval: &Interval) -> u64 {
        interval.wire_bytes()
    }

    fn wave_bytes(wave: &NoticeSet) -> u64 {
        wave.wire_bytes()
    }

    fn grant_bytes(notices: &Notices) -> u64 {
        notices_wire_bytes(notices)
    }

    fn agg_bytes(agg: &Notices) -> u64 {
        notices_wire_bytes(agg) + 28
    }

    fn pub_records(interval: &Interval) -> u64 {
        interval.notices.len() as u64
    }

    fn wave_records(wave: &NoticeSet) -> u64 {
        wave.records()
    }

    /// Apply pending home migrations. No page content moves: the new
    /// home is the page's last writer, whose copy is already current —
    /// only the directory entries ride the release. Returns how many
    /// pages moved.
    fn apply_migrations(&self) -> u64 {
        if !self.cfg.home_migration {
            return 0;
        }
        let mut moved = 0;
        for node in 0..self.nodes {
            let candidates = {
                let mut t = self.migration[node].lock();
                let candidates = std::mem::take(&mut t.candidates);
                // Migrated pages start tracking afresh at the new home.
                for (page, _) in &candidates {
                    t.last_writer.remove(page);
                }
                candidates
            };
            for (page, new_home) in candidates {
                let old_home = self.home_of(page);
                if old_home == new_home {
                    continue;
                }
                // Version-carrying migration record: the modification
                // counter rides along and merges by maximum, keeping
                // digest validation sound across the move.
                let (bytes, version) = self.homes[old_home].lock().export(page);
                self.homes[new_home].lock().adopt(page, bytes, version);
                self.home_override.write().insert(page, new_home);
                self.home_overridden.store(true, Ordering::Release);
                self.stats[new_home].add("migrations", 1);
                self.stats[new_home].add("pages_migrated", 1);
                moved += 1;
            }
        }
        if moved > 0 {
            self.migration_epoch.fetch_add(1, Ordering::AcqRel);
        }
        moved
    }
}

#[derive(Debug)]
struct NextRegions {
    /// Next collective region id (identical on all nodes by lockstep).
    collective: u32,
    /// Next single-node region counter (combined with the rank).
    local: u32,
}

/// The per-node software-DSM engine.
///
/// All shared accesses go through its [`Access`] implementation (the
/// Shasta-style software-check scheme standing in for mmap/SIGSEGV; see
/// DESIGN.md). The engine is `Send` so thread programming models can
/// hand it between threads, but it represents *one* node CPU's view.
pub struct DsmNode {
    dsm: Arc<SwDsm>,
    rank: usize,
    ctx: NodeCtx,
    table: Mutex<PageTable>,
    /// Home modification counter of each cached page at fetch time; the
    /// digest-validation round compares these against the homes'
    /// current counters.
    cache_versions: Mutex<HashMap<PageId, u64>>,
    /// Home-local pages written in the current interval.
    local_mods: Mutex<BTreeSet<PageId>>,
    /// Union of this node's intervals since the last barrier. A barrier
    /// must re-announce writes already published through lock releases,
    /// otherwise peers keep cached copies that predate those critical
    /// sections.
    epoch_mods: Mutex<Interval>,
    next_region: Mutex<NextRegions>,
    /// Virtual duration of the last release application (delta replay
    /// or snapshot sync) — the membership bench's per-node probe.
    last_transfer_ns: AtomicU64,
    /// Whether the last release application took the bulk-snapshot
    /// path.
    last_transfer_snapshot: AtomicBool,
}

impl DsmNode {
    /// This node's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.dsm.nodes
    }

    /// The underlying node context (clock, compute charging).
    pub fn ctx(&self) -> &NodeCtx {
        &self.ctx
    }

    /// The cluster-wide DSM instance.
    pub fn dsm(&self) -> &Arc<SwDsm> {
        &self.dsm
    }

    /// How the last release application went: `(virtual ns it took,
    /// whether it was a bulk snapshot sync)`. Probed by the membership
    /// bench right after [`DsmNode::rejoin`].
    pub fn last_transfer(&self) -> (u64, bool) {
        (
            self.last_transfer_ns.load(Ordering::Relaxed),
            self.last_transfer_snapshot.load(Ordering::Relaxed),
        )
    }

    /// Resynchronize after an absence (crash recovery or a membership
    /// rejoin): counts the view change, then runs barrier `id`. Because
    /// barriers block on every node, the release this node receives
    /// carries exactly the writes it missed — the adaptive policy
    /// ([`DsmConfig::delta_max_records`]) replays them incrementally or
    /// falls back to a bulk snapshot sync. Returns the virtual time the
    /// resynchronization took (rejoin-to-caught-up).
    pub fn rejoin(&self, id: u32) -> u64 {
        let t0 = self.ctx.clock().now();
        self.stat("view_changes", 1);
        self.barrier(id);
        self.ctx.clock().now().saturating_sub(t0)
    }

    fn stat(&self, name: &str, n: u64) {
        self.dsm.stats[self.rank].add(name, n);
    }

    /// Emit a protocol span `[t0, now]` into the global trace session.
    #[inline]
    fn trace_span(&self, t0: u64, op: &'static str, arg: u64) {
        if sim::trace::enabled() {
            let now = self.ctx.clock().now();
            sim::trace::span(t0, now.saturating_sub(t0), self.rank, "swdsm", op, arg);
        }
    }

    fn machine(&self) -> &MachineCost {
        &self.dsm.machine
    }

    // ---- inherent forwards of the `Engine` methods the frozen ledger
    // benchmark calls without importing the traits ----------------------

    #[doc(hidden)] // ledger-pinned, goes with ROADMAP 11(b)
    pub fn alloc(&self, bytes: usize, dist: Distribution) -> GlobalAddr { Engine::alloc(self, bytes, dist) }
    #[doc(hidden)] // ledger-pinned, goes with ROADMAP 11(b)
    pub fn read_bytes(&self, addr: GlobalAddr, out: &mut [u8]) { Access::read_bytes(self, addr, out) }
    #[doc(hidden)] // ledger-pinned, goes with ROADMAP 11(b)
    pub fn read_u64(&self, addr: GlobalAddr) -> u64 { Access::read_u64(self, addr) }
    #[doc(hidden)] // ledger-pinned, goes with ROADMAP 11(b)
    pub fn write_u64(&self, addr: GlobalAddr, v: u64) { Access::write_u64(self, addr, v) }
    #[doc(hidden)] // ledger-pinned, goes with ROADMAP 11(b)
    pub fn acquire(&self, lock: u32) { Engine::acquire(self, lock) }
    #[doc(hidden)] // ledger-pinned, goes with ROADMAP 11(b)
    pub fn release(&self, lock: u32) { Engine::release(self, lock) }
    #[doc(hidden)] // ledger-pinned, goes with ROADMAP 11(b)
    pub fn barrier(&self, id: u32) { Engine::barrier(self, id) }

    fn charge_local_access(&self, bytes: usize) {
        if bytes <= 64 {
            // Word access: a cached load/store.
            self.ctx.compute(self.machine().local_access_ns);
        } else {
            // Bulk access streams through the node's memory bus (the
            // same accounting every platform uses, so memory-bound
            // kernels compare fairly across SMP and the DSMs).
            self.ctx.bus_transfer(bytes as u64);
        }
    }

    fn is_home(&self, page: PageId) -> bool {
        self.dsm.home_of(page) == self.rank
    }

    fn copy_from_page(&self, page: PageId, home: bool, off: usize, out: &mut [u8]) {
        if home {
            self.dsm.homes[self.rank].lock().read(page, off, out);
        } else {
            let table = self.table.lock();
            let p = table.get(page).expect("readable page vanished");
            out.copy_from_slice(&p.data[off..off + out.len()]);
        }
    }

    fn copy_to_page(&self, page: PageId, home: bool, off: usize, data: &[u8]) {
        if home {
            self.dsm.homes[self.rank].lock().write(page, off, data);
        } else {
            let mut table = self.table.lock();
            let p = table.get_mut(page).expect("writable page vanished");
            p.data[off..off + data.len()].copy_from_slice(data);
        }
    }

    /// Make `page` locally readable, fetching from its home on a miss.
    /// `home` is [`DsmNode::is_home`] of `page`, decided once per access.
    fn ensure_readable(&self, page: PageId, home: bool) {
        if home {
            return;
        }
        if self.table.lock().get(page).is_some() {
            return;
        }
        self.fetch_page(page);
    }

    /// Make `page` locally writable (twinning on the first write).
    /// `off` is the in-page byte offset of the triggering write; the
    /// first write per interval is traced with `corr = off + 1` so the
    /// sharing analyzer can tell true sharing (same offset from several
    /// nodes) from false sharing (distinct offsets on one page). `home`
    /// as for [`DsmNode::ensure_readable`].
    fn ensure_writable(&self, page: PageId, home: bool, off: usize) {
        if home {
            if self.local_mods.lock().insert(page) {
                sim::trace::instant_corr(
                    self.ctx.clock().now(),
                    self.rank,
                    "swdsm",
                    "write_local",
                    page.pack(),
                    off as u64 + 1,
                );
            }
            return;
        }
        // A write fault on a read-only copy traps; on a missing page
        // the fetch already did.
        let state = self.table.lock().get(page).map(|p| p.state);
        let trap_ns = match state {
            Some(memwire::PageState::Writable) => return,
            Some(_) => {
                self.stat("traps", 1);
                FAULT_TRAP_NS
            }
            None => {
                self.fetch_page(page);
                0
            }
        };
        self.stat("twins", 1);
        sim::trace::instant_corr(
            self.ctx.clock().now(),
            self.rank,
            "swdsm",
            "write_fault",
            page.pack(),
            off as u64 + 1,
        );
        self.ctx.compute(trap_ns + TWIN_NS);
        self.table.lock().get_mut(page).expect("faulting page vanished").make_writable();
    }

    fn fetch_page(&self, page: PageId) {
        let t0 = self.ctx.clock().now();
        self.stat("traps", 1);
        self.stat("getpages", 1);
        self.ctx.compute(FAULT_TRAP_NS);
        self.make_room();
        let mut home = self.dsm.home_of(page);
        let mut hops = 0u32;
        let data = loop {
            let reply = self
                .ctx
                .port()
                .request_retrying(home, kinds::GET_PAGE, GetPage { page }, 24)
                .unwrap_or_else(|e| {
                    panic!(
                        "swdsm node {}: unrecoverable fault fetching page {page:?}: {e}",
                        self.rank
                    )
                });
            match downcast::<PageReply>(reply) {
                PageReply::Data(data) => break data,
                PageReply::Moved { to, .. } => {
                    // Stale directory across a re-homing round: follow
                    // the redirect (bounded — each hop lands on the
                    // strictly fresher directory entry).
                    hops += 1;
                    assert!(
                        hops <= MAX_SYNC_ROUNDS,
                        "swdsm node {}: page {page:?} fetch still redirected after \
                         {MAX_SYNC_ROUNDS} hops",
                        self.rank
                    );
                    self.stat("retries", 1);
                    home = to;
                }
            }
        };
        // The one copy of the fetch path: the cached copy must be
        // privately mutable (twinning), so it leaves the shared Page.
        self.table.lock().install(page, CachedPage::read_only(data.bytes.to_vec()));
        self.cache_versions.lock().insert(page, data.version);
        self.trace_span(t0, "page_fault", page.pack());
    }

    /// Ship a batch of home-bound messages (the fabric retries
    /// transient faults where it has a policy to). Fatal faults end the
    /// node with a structured report — a half-flushed interval is
    /// unrecoverable.
    fn send_batch<T: std::any::Any + Send + Clone>(&self, msgs: Vec<(usize, u32, T, u64)>) {
        if msgs.is_empty() {
            return;
        }
        if let Err(e) = self.ctx.port().request_batch(msgs) {
            panic!("swdsm node {}: unrecoverable fault flushing interval: {e}", self.rank);
        }
    }

    /// Enforce the page-cache bound before installing a new page: drop
    /// a clean victim, or diff a dirty one home first (JiaJia's
    /// memory-pressure write-back).
    fn make_room(&self) {
        let cap = self.dsm.cfg.cache_pages;
        if cap == 0 {
            return;
        }
        loop {
            let victim = {
                let mut table = self.table.lock();
                if table.len() < cap {
                    return;
                }
                table.victim()
            };
            let Some((page, state)) = victim else { return };
            if state == memwire::PageState::Writable {
                self.flush_dirty_subset(&[page]);
            }
            if self.table.lock().invalidate(page) {
                self.stat("evictions", 1);
            }
        }
    }

    // ---- interval flushing (release) -------------------------------------

    /// Push this interval's modifications home and return the interval's
    /// write notices. Called at every release point (unlock, barrier).
    fn flush_interval(&self) -> Interval {
        let t0 = self.ctx.clock().now();
        let dirty = {
            let table = self.table.lock();
            table.writable_pages()
        };
        let local: Vec<PageId> = std::mem::take(&mut *self.local_mods.lock()).into_iter().collect();

        let mut all_pages = dirty.clone();
        all_pages.extend_from_slice(&local);
        let interval = Interval::from_pages(&all_pages);
        if dirty.is_empty() {
            return interval;
        }

        // The per-home batches are ordered maps: each message in the
        // batch pays send overhead sequentially on this node's clock,
        // so the departure order must not depend on hash iteration.
        if self.dsm.cfg.whole_page_writeback {
            let mut by_home: BTreeMap<usize, Vec<(PageId, Page)>> = BTreeMap::new();
            {
                let mut table = self.table.lock();
                for page in &dirty {
                    let (_twin, cur) = table.downgrade(*page);
                    self.ctx.compute(PAGE_COPY_NS);
                    by_home
                        .entry(self.dsm.home_of(*page))
                        .or_default()
                        .push((*page, Page::from(cur)));
                }
            }
            self.stat("diffs", dirty.len() as u64);
            let msgs: Vec<_> = by_home
                .into_iter()
                .map(|(home, pages)| {
                    let msg = PutPages { pages };
                    let bytes = msg.wire_bytes();
                    self.stat("diff_bytes", bytes);
                    (home, kinds::PUT_PAGE, msg, bytes)
                })
                .collect();
            self.send_batch(msgs);
        } else {
            self.flush_dirty_subset(&dirty);
        }
        self.trace_span(t0, "diff_flush", dirty.len() as u64);
        interval
    }

    /// Invalidate cached copies of pages that `notices` says other nodes
    /// wrote. A page that is locally dirty (written outside the incoming
    /// synchronization's scope, e.g. under false sharing) has its diff
    /// flushed home first so no writes are lost.
    fn apply_notices(&self, notices: &[(usize, Interval)]) {
        let mut stale: Vec<PageId> = Vec::new();
        {
            let table = self.table.lock();
            for (writer, interval) in notices {
                if *writer == self.rank {
                    continue;
                }
                for page in interval.pages() {
                    // Home copies already hold the writers' diffs.
                    if !self.is_home(page) && table.get(page).is_some() {
                        stale.push(page);
                    }
                }
            }
        }
        self.invalidate_stale(stale);
    }

    /// Drop the cached copies of `stale`, in page order; a copy that is
    /// locally dirty has its diff flushed home first.
    fn invalidate_stale(&self, mut stale: Vec<PageId>) {
        if stale.is_empty() {
            return;
        }
        stale.sort();
        stale.dedup();
        self.flush_dirty_subset(&stale);
        let mut table = self.table.lock();
        let mut dropped = 0u64;
        for page in stale {
            if table.invalidate(page) {
                self.stat("invalidations", 1);
                dropped += 1;
            }
        }
        if dropped > 0 {
            sim::trace::instant(self.ctx.clock().now(), self.rank, "swdsm", "write_notice", dropped);
        }
    }

    /// Apply a released notice set in whichever encoding it arrived.
    ///
    /// This is the adaptive state-transfer choke point: when the
    /// release carries more records than `DsmConfig::delta_max_records`
    /// (and the cutoff is enabled), the node is far enough behind that
    /// incremental replay would invalidate nearly everything anyway —
    /// it switches to a bulk snapshot sync instead. The branch is a
    /// pure function of the release contents, so every node (and every
    /// rerun) decides identically.
    fn apply_release(&self, notices: NoticeSet) {
        let t0 = self.ctx.clock().now();
        let cutoff = self.dsm.cfg.delta_max_records;
        let records = notices.records();
        if cutoff > 0 && records > cutoff {
            self.snapshot_sync();
            self.last_transfer_snapshot.store(true, Ordering::Relaxed);
        } else {
            match notices {
                NoticeSet::Explicit(v) => self.apply_notices(&v),
                NoticeSet::Digest(ds) => self.apply_digests(&ds),
            }
            if cutoff > 0 {
                self.stat("delta_records", records);
            }
            self.last_transfer_snapshot.store(false, Ordering::Relaxed);
        }
        self.last_transfer_ns
            .store(self.ctx.clock().now().saturating_sub(t0), Ordering::Relaxed);
    }

    /// Bulk snapshot sync: drop every cached copy and eagerly refetch
    /// the same set from the homes, so the cache is warm and current in
    /// one sweep of whole-page transfers (counted under
    /// `snapshot_bytes`). Dirty copies flush home first — their diffs
    /// land before the refetch reads the master back.
    fn snapshot_sync(&self) {
        let t0 = self.ctx.clock().now();
        let mut pages = self.table.lock().cached_pages();
        // A page whose home migrated *to* this node needs no copy.
        pages.retain(|p| !self.is_home(*p));
        self.flush_dirty_subset(&pages);
        {
            let mut table = self.table.lock();
            let n = table.len() as u64;
            table.clear();
            self.stat("invalidations", n);
        }
        self.cache_versions.lock().clear();
        for &page in &pages {
            self.fetch_page(page);
            self.stat("snapshot_bytes", PAGE_SIZE as u64);
        }
        self.trace_span(t0, "snapshot_sync", pages.len() as u64);
    }

    /// Apply digest-encoded notices: run-length digests invalidate their
    /// exact page sets directly; Bloom digests gather every cached page
    /// the filter may contain and validate them against the homes'
    /// modification counters (`kinds::VALIDATE`) — copies whose home
    /// moved on are stale and invalidated (`digest_hits`), false
    /// positives are kept (`digest_misses`). Digests never carry this
    /// node's own writes (self-exclusion is structural in both the tree
    /// waves and the central complements), so every confirmed hit is
    /// another node's write.
    fn apply_digests(&self, digests: &[NoticeDigest]) {
        let mut exact: Vec<PageId> = Vec::new();
        let mut candidates: Vec<PageId> = Vec::new();
        {
            let table = self.table.lock();
            for d in digests {
                match d.pages() {
                    Some(pages) => {
                        for page in pages {
                            if table.get(page).is_some() {
                                exact.push(page);
                            }
                        }
                    }
                    None => {
                        for page in table.cached_pages() {
                            if d.may_contain(page) {
                                candidates.push(page);
                            }
                        }
                    }
                }
            }
        }
        exact.sort();
        exact.dedup();
        candidates.sort();
        candidates.dedup();
        candidates.retain(|p| !exact.contains(p));

        // Validate Bloom candidates home-by-home. The cached version was
        // recorded at fetch time; any later mutation at the home (another
        // writer's diff, or even this node's own flushed diff) bumps the
        // counter, so version equality proves the cached bytes are still
        // the master bytes.
        let mut stale: Vec<PageId> = Vec::new();
        let mut clean = 0u64;
        if !candidates.is_empty() {
            let cached: HashMap<PageId, u64> = {
                let v = self.cache_versions.lock();
                candidates.iter().map(|p| (*p, v.get(p).copied().unwrap_or(0))).collect()
            };
            let mut by_home: BTreeMap<usize, Vec<PageId>> = BTreeMap::new();
            for &page in &candidates {
                by_home.entry(self.dsm.home_of(page)).or_default().push(page);
            }
            for (home, pages) in by_home {
                let req = ValidateReq { pages: pages.clone() };
                let bytes = 8 + 8 * pages.len() as u64;
                self.dsm.driver.count_sync(self.rank, home, pages.len() as u64);
                let reply = self
                    .ctx
                    .port()
                    .request_retrying(home, kinds::VALIDATE, req, bytes)
                    .unwrap_or_else(|e| {
                        panic!(
                            "swdsm node {}: unrecoverable fault validating digests: {e}",
                            self.rank
                        )
                    });
                let rep = downcast::<ValidateRep>(reply);
                for (page, version) in pages.into_iter().zip(rep.versions) {
                    if version > cached[&page] {
                        stale.push(page);
                    } else {
                        clean += 1;
                    }
                }
            }
        }
        self.stat("digest_hits", (exact.len() + stale.len()) as u64);
        self.stat("digest_misses", clean);

        let mut doomed = exact;
        doomed.extend(stale);
        self.invalidate_stale(doomed);
    }

    /// Diff-and-ship any dirty pages among `pages`: the whole dirty set
    /// at a release point, a victim under cache pressure, or — rare under
    /// proper synchronization discipline — pages about to be invalidated.
    fn flush_dirty_subset(&self, pages: &[PageId]) {
        let mut by_home: BTreeMap<usize, Vec<(PageId, Diff)>> = BTreeMap::new();
        {
            let mut table = self.table.lock();
            for &page in pages {
                let dirty = matches!(
                    table.get(page),
                    Some(p) if p.state == memwire::PageState::Writable
                );
                if dirty {
                    let (twin, cur) = table.downgrade(page);
                    self.ctx.compute(DIFF_SCAN_NS);
                    let diff = Diff::between(&twin, cur);
                    if !diff.is_empty() {
                        by_home.entry(self.dsm.home_of(page)).or_default().push((page, diff));
                    }
                }
            }
        }
        let msgs: Vec<_> = by_home
            .into_iter()
            .map(|(home, diffs)| {
                self.stat("diffs", diffs.len() as u64);
                let msg = ApplyDiffs { diffs };
                let bytes = msg.wire_bytes();
                self.stat("diff_bytes", bytes);
                (home, kinds::APPLY_DIFFS, msg, bytes)
            })
            .collect();
        self.send_batch(msgs);
    }

    /// Drop every cached copy (conservative acquire in the
    /// no-lock-notices ablation mode). Dirty pages are flushed home
    /// first.
    fn invalidate_all_cached(&self) {
        let _ = self.flush_interval();
        let mut table = self.table.lock();
        let n = table.len() as u64;
        table.clear();
        self.stat("invalidations", n);
    }

    // ---- synchronization -------------------------------------------------

    /// [`DsmNode::acquire`] with unrecoverable fabric faults surfaced as
    /// a [`DsmError`] instead of a panic.
    pub fn try_acquire(&self, lock: u32) -> Result<(), DsmError> {
        self.try_acquire_mode(lock, Mode::Excl)
    }

    /// [`DsmNode::acquire_shared`] with unrecoverable fabric faults
    /// surfaced as a [`DsmError`] instead of a panic.
    pub fn try_acquire_shared(&self, lock: u32) -> Result<(), DsmError> {
        self.try_acquire_mode(lock, Mode::Shared)
    }

    /// Structured shutdown on an unrecoverable fault: every `DsmError`
    /// escape hatch funnels through here so the panic payload always
    /// names the node, the operation, and the fabric error.
    fn fatal(&self, e: &DsmError) -> ! {
        panic!("swdsm node {}: unrecoverable fault: {e}", self.rank)
    }

    fn try_acquire_mode(&self, lock: u32, mode: Mode) -> Result<(), DsmError> {
        let port = self.ctx.port();
        let t0 = port.clock().now();
        let notices = self
            .dsm
            .driver
            .try_acquire(port, lock, mode)
            .map_err(|err| DsmError { op: "lock_acquire", id: lock, err })?;
        if self.dsm.cfg.notices_on_locks {
            self.apply_notices(&notices);
        } else {
            self.invalidate_all_cached();
        }
        self.dsm.driver.acquired(port, t0, lock);
        Ok(())
    }

    /// [`DsmNode::release`] with unrecoverable fabric faults surfaced as
    /// a [`DsmError`] instead of a panic.
    pub fn try_release(&self, lock: u32) -> Result<(), DsmError> {
        let interval = self.flush_interval();
        self.epoch_mods.lock().merge(&interval);
        self.dsm
            .driver
            .try_release(self.ctx.port(), lock, interval)
            .map_err(|err| DsmError { op: "lock_release", id: lock, err })
    }

    /// [`DsmNode::barrier`] with unrecoverable fabric faults surfaced as
    /// a [`DsmError`] instead of a panic. The fabric's [`SyncTopology`]
    /// picks the central manager or the tree (see `Driver::try_barrier`).
    pub fn try_barrier(&self, id: u32) -> Result<(), DsmError> {
        let t0 = self.ctx.clock().now();
        let mut interval = std::mem::take(&mut *self.epoch_mods.lock());
        interval.merge(&self.flush_interval());
        self.dsm
            .driver
            .try_barrier(&self.dsm, self.ctx.port(), t0, id, interval, |notices| self.apply_release(notices))
            .map_err(|err| DsmError { op: "barrier", id, err })
    }

    /// Orderly exit: one final barrier so all writes are home.
    pub fn exit(&self) {
        self.barrier(ALLOC_BARRIER);
    }
}

/// Each page chunk of an access is made readable or writable, then
/// copied.
impl Access for DsmNode {
    fn read_bytes(&self, addr: GlobalAddr, out: &mut [u8]) {
        self.dsm.stats[self.rank].at(READS).incr();
        self.ctx.compute(self.machine().dsm_check_ns);
        self.charge_local_access(out.len());
        let mut done = 0;
        while done < out.len() {
            let a = addr.add(done as u32);
            let page = a.page();
            let off = a.page_offset();
            let chunk = (PAGE_SIZE - off).min(out.len() - done);
            let home = self.is_home(page);
            self.ensure_readable(page, home);
            self.copy_from_page(page, home, off, &mut out[done..done + chunk]);
            done += chunk;
        }
    }

    fn write_bytes(&self, addr: GlobalAddr, data: &[u8]) {
        self.dsm.stats[self.rank].at(WRITES).incr();
        self.ctx.compute(self.machine().dsm_check_ns);
        self.charge_local_access(data.len());
        let mut done = 0;
        while done < data.len() {
            let a = addr.add(done as u32);
            let page = a.page();
            let off = a.page_offset();
            let chunk = (PAGE_SIZE - off).min(data.len() - done);
            let home = self.is_home(page);
            self.ensure_writable(page, home, off);
            self.copy_to_page(page, home, off, &data[done..done + chunk]);
            done += chunk;
        }
    }
}

impl Engine for DsmNode {
    /// Collective allocation (JiaJia/HLRC semantics, implicit barrier
    /// included).
    fn alloc(&self, bytes: usize, dist: Distribution) -> GlobalAddr {
        let region = {
            let mut g = self.next_region.lock();
            let id = g.collective;
            assert!(id < LOCAL_REGION_BASE, "collective region ids exhausted");
            g.collective += 1;
            id
        };
        self.dsm.dir.register(region, RegionMeta::new(bytes, dist));
        self.barrier(ALLOC_BARRIER);
        GlobalAddr::new(region, 0)
    }

    /// Single-node allocation: all pages are homed here.
    fn alloc_local(&self, bytes: usize) -> GlobalAddr {
        let region = {
            let mut g = self.next_region.lock();
            let id = local_region(self.rank, g.local);
            g.local += 1;
            id
        };
        self.dsm
            .dir
            .register(region, RegionMeta::new(bytes, Distribution::OnNode(self.rank)));
        GlobalAddr::new(region, 0)
    }

    /// Registers the same metadata locally; idempotent.
    fn adopt(&self, addr: GlobalAddr, bytes: usize, home: usize) {
        self.dsm
            .dir
            .register(addr.region(), RegionMeta::new(bytes, Distribution::OnNode(home)));
    }

    fn acquire(&self, lock: u32) {
        self.try_acquire(lock).unwrap_or_else(|e| self.fatal(&e));
    }

    fn acquire_shared(&self, lock: u32) {
        self.try_acquire_shared(lock).unwrap_or_else(|e| self.fatal(&e));
    }

    /// Publishes this interval's writes.
    fn release(&self, lock: u32) {
        self.try_release(lock).unwrap_or_else(|e| self.fatal(&e));
    }

    /// Flushes the interval, exchanges write notices, and invalidates
    /// what others wrote.
    fn barrier(&self, id: u32) {
        self.try_barrier(id).unwrap_or_else(|e| self.fatal(&e));
    }

    fn private_traffic(&self, bytes: u64) {
        self.ctx.bus_transfer(bytes);
    }
}

