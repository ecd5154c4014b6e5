//! The software DSM's data path, [`Paged`]: the page protocol under the
//! cluster's one node engine (`cluster::engine`), which allocates,
//! counts and runs the synchronisation verbs over the one driver with
//! `Paged` as its [`Platform`] — write notices ride the messages, and
//! the one hook migrates homes at the quiescent point. What stays here
//! is the access path over the page table and the home stores, interval
//! flushing at release points and applying notices at acquire points.
//! Nothing here asks which fabric it is on, or which lock protocol
//! serves it.

use crate::home::HomeStore;
use crate::kinds;
use crate::proto::*;
use cluster::syncproto::driver::{Kinds, Platform};
use cluster::syncproto::MAX_SYNC_ROUNDS;
use cluster::{Cluster, DataPath, Node, Shared};
use interconnect::{downcast, try_downcast, Outcome};
use memwire::{
    local_region_owner, CachedPage, Diff, GlobalAddr, Interval, Page, PageId, PageTable, RegionDir,
    RegionId, LOCAL_REGION_BASE, PAGE_SIZE,
};
use parking_lot::{Mutex, RwLock};
use sim::StatSet;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

mod tests;

/// Per-writer write notices, as lock grants carry them.
type Notices = cluster::syncproto::Notices<NoticeSet>;

/// Cost of one page-fault trap (SIGSEGV + kernel + handler entry).
const FAULT_TRAP_NS: u64 = 20_000;
/// Cost of snapshotting a twin (one page copy in JiaJia; here the twin
/// shares the page and the first write copies it).
const TWIN_NS: u64 = 3_000;
/// Cost of scanning a page against its twin to encode a diff.
const DIFF_SCAN_NS: u64 = 4_000;
/// Fixed cost of applying one diff at the home...
const DIFF_APPLY_BASE_NS: u64 = 1_000;
/// ...plus this much per changed byte.
const DIFF_APPLY_PER_BYTE_NS: u64 = 1;
/// Cost for the home to copy a page into a fetch reply.
const PAGE_COPY_NS: u64 = 2_000;
/// Consecutive same-writer diffs before a page migrates
/// ([`DsmConfig::home_migration`]).
const MIGRATION_THRESHOLD: u32 = 2;

/// An explicit page placement ([`place_home`]) was refused; the home
/// stays where it was, and nothing is counted.
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
    /// the same single remote writer twice in a row migrates its home to
    /// that writer at the next barrier, turning its future diffs into
    /// local writes.
    pub home_migration: bool,
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
            delta_max_records: 0,
        }
    }
}

/// The software DSM's data path: its cluster-shared page-protocol
/// state — home stores, the migration directory — beside the engine's
/// region directory and synchronisation driver.
pub struct Paged {
    cfg: DsmConfig,
    nodes: usize,
    dir: Arc<RegionDir>,
    homes: Vec<Mutex<HomeStore>>,
    stats: Vec<StatSet>,
    /// Pages whose home moved away from their distribution-derived node
    /// (the migration directory; real JiaJia piggybacks it on barriers).
    /// Fed by adaptive migration and by explicit [`place_home`]
    /// placements.
    home_override: RwLock<HashMap<PageId, usize>>,
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

/// Cluster-shared state of the software DSM.
pub type SwDsm = Shared<Paged>;
/// The per-node software-DSM engine.
///
/// All shared accesses go through its `memwire::Access` implementation
/// (the Shasta-style software-check scheme standing in for
/// mmap/SIGSEGV; see DESIGN.md). The engine is `Send` so thread
/// programming models can hand it between threads, but it represents
/// *one* node CPU's view.
pub type DsmNode = Node<Paged>;

#[derive(Default)]
struct MigrationTrack {
    last_writer: HashMap<PageId, (usize, u32)>,
    candidates: Vec<(PageId, usize)>,
}

/// Per-node state of the software DSM.
#[derive(Default)]
pub struct State {
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
    /// Virtual duration of the last release application (delta replay
    /// or snapshot sync) — the membership bench's per-node probe.
    last_transfer_ns: AtomicU64,
    /// Whether the last release application took the bulk-snapshot
    /// path.
    last_transfer_snapshot: AtomicBool,
}

impl Paged {
    /// Home node of `page` (override directory first — adaptive
    /// migrations and explicit placements — then the allocation's
    /// distribution).
    #[inline]
    fn home_of(&self, page: PageId) -> usize {
        if self.home_overridden.load(Ordering::Acquire) {
            if let Some(&home) = self.home_override.read().get(&page) {
                return home;
            }
        }
        // Single-node allocations are homed on the allocating rank.
        local_region_owner(page.region)
            .unwrap_or_else(|| self.dir.meta(page.region).home_of(page.index, self.nodes))
    }

    /// Move the master copy of `page` from `from` to `to` as a
    /// version-carrying migration record: the modification counter
    /// rides along and merges by maximum at the new home, so digest
    /// validation never sees a counter move backwards across a
    /// re-homing. Counted under `pages_migrated` at `to`.
    fn move_home(&self, page: PageId, from: usize, to: usize) {
        let (bytes, version) = self.homes[from].lock().export(page);
        self.homes[to].lock().adopt(page, bytes, version);
        self.stats[to].add("pages_migrated", 1);
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
        if entry.1 >= MIGRATION_THRESHOLD && !t.candidates.iter().any(|(p, _)| *p == page) {
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
}

/// Home node of `page` on `dsm`: its migration or placement, else its
/// allocation's distribution.
pub fn home_of(dsm: &SwDsm, page: PageId) -> usize {
    dsm.path().home_of(page)
}

/// Explicitly place the home of `page` on node `to` (the tuner's
/// re-homing action, applied from `place_home` configuration). Call
/// *before* [`Cluster::run`]: placement is part of run configuration,
/// like the sync topology — moving a home mid-run outside the barrier
/// quiescent point would race the page's own diff traffic.
///
/// The master copy (if any) moves to `to` as a version-carrying
/// migration record — the page's modification counter travels with the
/// bytes and merges by maximum at the new home, so write-notice digests
/// stay valid across the move. `pages_rehomed` + `tuner_actions` are
/// counted at `to`.
pub fn place_home(dsm: &SwDsm, page: PageId, to: usize) -> Result<(), PlaceError> {
    let p = dsm.path();
    if to >= p.nodes {
        return Err(PlaceError::NoSuchNode { to, nodes: p.nodes });
    }
    // Placement usually precedes the run that allocates the region
    // (ids are deterministic under collective allocation), so there is
    // nothing to move yet — the new home zero-fills lazily. Only an
    // already-allocated region can hold a master copy to carry.
    if page.region < LOCAL_REGION_BASE && p.dir.exists(page.region) {
        let old = p.home_of(page);
        if old != to {
            p.move_home(page, old, to);
            p.migration_epoch.fetch_add(1, Ordering::AcqRel);
        }
    }
    p.home_override.write().insert(page, to);
    p.home_overridden.store(true, Ordering::Release);
    p.stats[to].add("pages_rehomed", 1);
    p.stats[to].add("tuner_actions", 1);
    Ok(())
}

/// Resynchronize `node` after an absence (crash recovery or a
/// membership rejoin): counts the view change, then runs barrier `id`.
/// Because barriers block on every node, the release this node receives
/// carries exactly the writes it missed — the adaptive policy
/// ([`DsmConfig::delta_max_records`]) replays them incrementally or
/// falls back to a bulk snapshot sync. Returns the virtual time the
/// resynchronization took (rejoin-to-caught-up).
pub fn rejoin(node: &DsmNode, id: u32) -> u64 {
    let t0 = node.ctx().clock().now();
    stat(node, "view_changes", 1);
    node.barrier(id);
    node.ctx().clock().now().saturating_sub(t0)
}

/// How `node`'s last release application went: `(virtual ns it took,
/// whether it was a bulk snapshot sync)`. Probed by the membership bench
/// right after [`rejoin`].
pub fn last_transfer(node: &DsmNode) -> (u64, bool) {
    let s = node.state();
    (s.last_transfer_ns.load(Ordering::Relaxed), s.last_transfer_snapshot.load(Ordering::Relaxed))
}

/// The software DSM's synchronisation: write notices ride every message
/// (a release publishes an [`Interval`], a barrier wave carries a
/// [`NoticeSet`]), and the hook migrates homes at the quiescent point.
impl Platform for Paged {
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
                self.move_home(page, old_home, new_home);
                self.home_override.write().insert(page, new_home);
                self.home_overridden.store(true, Ordering::Release);
                self.stats[new_home].add("migrations", 1);
                moved += 1;
            }
        }
        if moved > 0 {
            self.migration_epoch.fetch_add(1, Ordering::AcqRel);
        }
        moved
    }
}

/// Every access pays the software check and the engine's local charge,
/// then each page chunk is made readable or writable and copied.
impl DataPath for Paged {
    type Platform = Paged;
    type Config = DsmConfig;
    type State = State;
    /// The DSM's own per-node statistics (JiaJia-style counters).
    const STAT_NAMES: &'static [&'static str] = &[
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
    /// Every access counts (checked at compile time).
    const READS: usize = sim::stats::stat_index(Self::STAT_NAMES, "reads");
    const WRITES: usize = sim::stats::stat_index(Self::STAT_NAMES, "writes");
    const REGION_BASE: RegionId = 0;

    /// Registers the page-protocol handlers on every node.
    fn new(cluster: &Cluster, cfg: DsmConfig, dir: &Arc<RegionDir>, stats: &[StatSet]) -> Arc<Self> {
        let nodes = cluster.config().nodes;
        let dsm = Arc::new(Paged {
            cfg,
            nodes,
            dir: dir.clone(),
            homes: (0..nodes).map(|_| Mutex::new(HomeStore::new())).collect(),
            stats: stats.to_vec(),
            home_override: RwLock::new(HashMap::new()),
            home_overridden: AtomicBool::new(false),
            migration: (0..nodes).map(|_| Mutex::new(MigrationTrack::default())).collect(),
            migration_epoch: AtomicU64::new(0),
        });
        dsm.register_handlers(cluster);
        dsm
    }

    fn platform(path: &Arc<Self>) -> Arc<Self> {
        path.clone()
    }

    /// The in-line software check; the engine then charges the access
    /// as local.
    #[inline]
    fn charge_read(node: &DsmNode, _addr: GlobalAddr, _len: usize) -> bool {
        node.ctx().compute(node.machine().dsm_check_ns);
        false
    }

    #[inline]
    fn charge_write(node: &DsmNode, _addr: GlobalAddr, _len: usize) -> bool {
        node.ctx().compute(node.machine().dsm_check_ns);
        false
    }

    #[inline]
    fn read(node: &DsmNode, addr: GlobalAddr, out: &mut [u8]) {
        let mut done = 0;
        while done < out.len() {
            let a = addr.add(done as u32);
            let (page, off) = (a.page(), a.page_offset());
            let chunk = (PAGE_SIZE - off).min(out.len() - done);
            let home = is_home(node, page);
            ensure_readable(node, page, home);
            copy_from_page(node, page, home, off, &mut out[done..done + chunk]);
            done += chunk;
        }
    }

    #[inline]
    fn write(node: &DsmNode, addr: GlobalAddr, data: &[u8]) {
        let mut done = 0;
        while done < data.len() {
            let a = addr.add(done as u32);
            let (page, off) = (a.page(), a.page_offset());
            let chunk = (PAGE_SIZE - off).min(data.len() - done);
            let home = is_home(node, page);
            ensure_writable(node, page, home, off);
            copy_to_page(node, page, home, off, &data[done..done + chunk]);
            done += chunk;
        }
    }

    /// Homes zero-fill their pages lazily on first touch.
    fn back(_node: &DsmNode, _region: RegionId, _bytes: usize) {}

    #[inline]
    fn private_traffic(node: &DsmNode, bytes: u64) {
        node.ctx().bus_transfer(bytes);
    }

    /// This interval's write notices, once its modifications are home.
    /// A barrier re-announces everything published since the last one.
    fn publish(node: &DsmNode, barrier: bool) -> Interval {
        let epoch_mods = &node.state().epoch_mods;
        if barrier {
            let mut interval = std::mem::take(&mut *epoch_mods.lock());
            interval.merge(&flush_interval(node));
            interval
        } else {
            let interval = flush_interval(node);
            epoch_mods.lock().merge(&interval);
            interval
        }
    }

    fn on_grant(node: &DsmNode, notices: Notices) {
        if node.path().cfg.notices_on_locks {
            apply_notices(node, &notices);
        } else {
            invalidate_all_cached(node);
        }
    }

    fn on_wave(node: &DsmNode, wave: NoticeSet) {
        apply_release(node, wave);
    }
}

fn stat(node: &DsmNode, name: &str, n: u64) {
    node.shared().stats(node.rank()).add(name, n);
}

#[inline]
fn is_home(node: &DsmNode, page: PageId) -> bool {
    node.path().home_of(page) == node.rank()
}

#[inline]
fn copy_from_page(node: &DsmNode, page: PageId, home: bool, off: usize, out: &mut [u8]) {
    if home {
        node.path().homes[node.rank()].lock().read(page, off, out);
    } else {
        let table = node.state().table.lock();
        let p = table.get(page).expect("readable page vanished");
        out.copy_from_slice(&p.data[off..off + out.len()]);
    }
}

#[inline]
fn copy_to_page(node: &DsmNode, page: PageId, home: bool, off: usize, data: &[u8]) {
    if home {
        node.path().homes[node.rank()].lock().write(page, off, data);
    } else {
        let mut table = node.state().table.lock();
        let p = table.get_mut(page).expect("writable page vanished");
        // Copy-on-write: the interval's first write copies the page away
        // from its twin, the home's snapshot and any in-flight diff.
        p.data.write(off, data);
    }
}

/// Make `page` locally readable, fetching from its home on a miss.
/// `home` is [`is_home`] of `page`, decided once per access.
#[inline]
fn ensure_readable(node: &DsmNode, page: PageId, home: bool) {
    if !home && node.state().table.lock().get(page).is_none() {
        fetch_page(node, page);
    }
}

/// Make `page` locally writable (twinning on the first write). `off` is
/// the in-page byte offset of the triggering write; the first write per
/// interval is traced with `corr = off + 1` so the sharing analyzer can
/// tell true sharing (same offset from several nodes) from false
/// sharing (distinct offsets on one page). `home` as for
/// [`ensure_readable`].
#[inline]
fn ensure_writable(node: &DsmNode, page: PageId, home: bool, off: usize) {
    let now = || node.ctx().clock().now();
    if home {
        if node.state().local_mods.lock().insert(page) {
            sim::trace::instant_corr(now(), node.rank(), "swdsm", "write_local", page.pack(), off as u64 + 1);
        }
        return;
    }
    // A write fault on a read-only copy traps; on a missing page the
    // fetch already did.
    let state = node.state().table.lock().get(page).map(|p| p.state);
    let trap_ns = match state {
        Some(memwire::PageState::Writable) => return,
        Some(_) => {
            stat(node, "traps", 1);
            FAULT_TRAP_NS
        }
        None => {
            fetch_page(node, page);
            0
        }
    };
    stat(node, "twins", 1);
    sim::trace::instant_corr(now(), node.rank(), "swdsm", "write_fault", page.pack(), off as u64 + 1);
    node.ctx().compute(trap_ns + TWIN_NS);
    node.state().table.lock().get_mut(page).expect("faulting page vanished").make_writable();
}

fn fetch_page(node: &DsmNode, page: PageId) {
    let (rank, t0) = (node.rank(), node.ctx().clock().now());
    stat(node, "traps", 1);
    stat(node, "getpages", 1);
    node.ctx().compute(FAULT_TRAP_NS);
    make_room(node);
    let mut home = node.path().home_of(page);
    let mut hops = 0u32;
    let data = loop {
        let reply = node
            .ctx()
            .port()
            .request_retrying(home, kinds::GET_PAGE, GetPage { page }, 24)
            .unwrap_or_else(|e| panic!("swdsm node {rank}: unrecoverable fault fetching page {page:?}: {e}"));
        match downcast::<PageReply>(reply) {
            PageReply::Data(data) => break data,
            PageReply::Moved { to, .. } => {
                // Stale directory across a re-homing round: follow the
                // redirect (bounded — each hop lands on the strictly
                // fresher directory entry).
                hops += 1;
                assert!(
                    hops <= MAX_SYNC_ROUNDS,
                    "swdsm node {rank}: page {page:?} fetch still redirected after {MAX_SYNC_ROUNDS} hops"
                );
                stat(node, "retries", 1);
                home = to;
            }
        }
    };
    // The cached copy is the home's own allocation: no copy until the
    // first write (see `copy_to_page`).
    node.state().table.lock().install(page, CachedPage::read_only(data.bytes));
    node.state().cache_versions.lock().insert(page, data.version);
    node.trace_span(t0, "page_fault", page.pack());
}

/// Ship a batch of home-bound messages (the fabric retries transient
/// faults where it has a policy to). Fatal faults end the node with a
/// structured report — a half-flushed interval is unrecoverable.
fn send_batch<T: std::any::Any + Send + Clone>(node: &DsmNode, msgs: Vec<(usize, u32, T, u64)>) {
    if msgs.is_empty() {
        return;
    }
    if let Err(e) = node.ctx().port().request_batch(msgs) {
        panic!("swdsm node {}: unrecoverable fault flushing interval: {e}", node.rank());
    }
}

/// Enforce the page-cache bound before installing a new page: drop a
/// clean victim, or diff a dirty one home first (JiaJia's
/// memory-pressure write-back).
fn make_room(node: &DsmNode) {
    let cap = node.path().cfg.cache_pages;
    if cap == 0 {
        return;
    }
    loop {
        let victim = {
            let mut table = node.state().table.lock();
            if table.len() < cap {
                return;
            }
            table.victim()
        };
        let Some((page, state)) = victim else { return };
        if state == memwire::PageState::Writable {
            flush_dirty_subset(node, &[page]);
        }
        if node.state().table.lock().invalidate(page) {
            stat(node, "evictions", 1);
        }
    }
}

// ---- interval flushing (release) -----------------------------------------

/// Push this interval's modifications home and return the interval's
/// write notices. Called at every release point (unlock, barrier).
fn flush_interval(node: &DsmNode) -> Interval {
    let t0 = node.ctx().clock().now();
    let dirty = node.state().table.lock().writable_pages();
    let local: Vec<PageId> = std::mem::take(&mut *node.state().local_mods.lock()).into_iter().collect();

    let mut all_pages = dirty.clone();
    all_pages.extend_from_slice(&local);
    let interval = Interval::from_pages(&all_pages);
    if dirty.is_empty() {
        return interval;
    }

    // The per-home batches are ordered maps: each message in the batch
    // pays send overhead sequentially on this node's clock, so the
    // departure order must not depend on hash iteration.
    if node.path().cfg.whole_page_writeback {
        let mut by_home: BTreeMap<usize, Vec<(PageId, Page)>> = BTreeMap::new();
        {
            let mut table = node.state().table.lock();
            for page in &dirty {
                let (_twin, cur) = table.downgrade(*page);
                node.ctx().compute(PAGE_COPY_NS);
                by_home.entry(node.path().home_of(*page)).or_default().push((*page, cur.clone()));
            }
        }
        stat(node, "diffs", dirty.len() as u64);
        let msgs: Vec<_> = by_home
            .into_iter()
            .map(|(home, pages)| {
                let msg = PutPages { pages };
                let bytes = msg.wire_bytes();
                stat(node, "diff_bytes", bytes);
                (home, kinds::PUT_PAGE, msg, bytes)
            })
            .collect();
        send_batch(node, msgs);
    } else {
        flush_dirty_subset(node, &dirty);
    }
    node.trace_span(t0, "diff_flush", dirty.len() as u64);
    interval
}

/// Invalidate cached copies of pages that `notices` says other nodes
/// wrote. A page that is locally dirty (written outside the incoming
/// synchronization's scope, e.g. under false sharing) has its diff
/// flushed home first so no writes are lost.
fn apply_notices(node: &DsmNode, notices: &[(usize, Interval)]) {
    let mut stale: Vec<PageId> = Vec::new();
    {
        let table = node.state().table.lock();
        for (writer, interval) in notices {
            if *writer == node.rank() {
                continue;
            }
            for page in interval.pages() {
                // Home copies already hold the writers' diffs.
                if !is_home(node, page) && table.get(page).is_some() {
                    stale.push(page);
                }
            }
        }
    }
    invalidate_stale(node, stale);
}

/// Drop the cached copies of `stale`, in page order; a copy that is
/// locally dirty has its diff flushed home first.
fn invalidate_stale(node: &DsmNode, mut stale: Vec<PageId>) {
    if stale.is_empty() {
        return;
    }
    stale.sort();
    stale.dedup();
    flush_dirty_subset(node, &stale);
    let mut table = node.state().table.lock();
    let mut dropped = 0u64;
    for page in stale {
        if table.invalidate(page) {
            stat(node, "invalidations", 1);
            dropped += 1;
        }
    }
    if dropped > 0 {
        sim::trace::instant(node.ctx().clock().now(), node.rank(), "swdsm", "write_notice", dropped);
    }
}

/// Apply a released notice set in whichever encoding it arrived.
///
/// This is the adaptive state-transfer choke point: when the release
/// carries more records than `DsmConfig::delta_max_records` (and the
/// cutoff is enabled), the node is far enough behind that incremental
/// replay would invalidate nearly everything anyway — it switches to a
/// bulk snapshot sync instead. The branch is a pure function of the
/// release contents, so every node (and every rerun) decides
/// identically.
fn apply_release(node: &DsmNode, notices: NoticeSet) {
    let (s, t0) = (node.state(), node.ctx().clock().now());
    let cutoff = node.path().cfg.delta_max_records;
    let records = notices.records();
    if cutoff > 0 && records > cutoff {
        snapshot_sync(node);
        s.last_transfer_snapshot.store(true, Ordering::Relaxed);
    } else {
        match notices {
            NoticeSet::Explicit(v) => apply_notices(node, &v),
            NoticeSet::Digest(ds) => apply_digests(node, &ds),
        }
        if cutoff > 0 {
            stat(node, "delta_records", records);
        }
        s.last_transfer_snapshot.store(false, Ordering::Relaxed);
    }
    s.last_transfer_ns.store(node.ctx().clock().now().saturating_sub(t0), Ordering::Relaxed);
}

/// Bulk snapshot sync: drop every cached copy and eagerly refetch the
/// same set from the homes, so the cache is warm and current in one
/// sweep of whole-page transfers (counted under `snapshot_bytes`).
/// Dirty copies flush home first — their diffs land before the refetch
/// reads the master back.
fn snapshot_sync(node: &DsmNode) {
    let t0 = node.ctx().clock().now();
    let mut pages = node.state().table.lock().cached_pages();
    // A page whose home migrated *to* this node needs no copy.
    pages.retain(|p| !is_home(node, *p));
    flush_dirty_subset(node, &pages);
    {
        let mut table = node.state().table.lock();
        let n = table.len() as u64;
        table.clear();
        stat(node, "invalidations", n);
    }
    node.state().cache_versions.lock().clear();
    for &page in &pages {
        fetch_page(node, page);
        stat(node, "snapshot_bytes", PAGE_SIZE as u64);
    }
    node.trace_span(t0, "snapshot_sync", pages.len() as u64);
}

/// Apply digest-encoded notices: run-length digests invalidate their
/// exact page sets directly; Bloom digests gather every cached page the
/// filter may contain and validate them against the homes' modification
/// counters (`kinds::VALIDATE`) — copies whose home moved on are stale
/// and invalidated (`digest_hits`), false positives are kept
/// (`digest_misses`). Digests never carry this node's own writes
/// (self-exclusion is structural in both the tree waves and the central
/// complements), so every confirmed hit is another node's write.
fn apply_digests(node: &DsmNode, digests: &[NoticeDigest]) {
    let mut exact: Vec<PageId> = Vec::new();
    let mut candidates: Vec<PageId> = Vec::new();
    {
        let table = node.state().table.lock();
        for d in digests {
            match d.pages() {
                Some(pages) => exact.extend(pages.into_iter().filter(|&page| table.get(page).is_some())),
                None => candidates.extend(table.cached_pages().into_iter().filter(|&page| d.may_contain(page))),
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
    // counter, so version equality proves the cached bytes are still the
    // master bytes.
    let mut stale: Vec<PageId> = Vec::new();
    let mut clean = 0u64;
    if !candidates.is_empty() {
        let cached: HashMap<PageId, u64> = {
            let v = node.state().cache_versions.lock();
            candidates.iter().map(|p| (*p, v.get(p).copied().unwrap_or(0))).collect()
        };
        let mut by_home: BTreeMap<usize, Vec<PageId>> = BTreeMap::new();
        for &page in &candidates {
            by_home.entry(node.path().home_of(page)).or_default().push(page);
        }
        for (home, pages) in by_home {
            let req = ValidateReq { pages: pages.clone() };
            let bytes = 8 + 8 * pages.len() as u64;
            node.shared().driver().count_sync(node.rank(), home, pages.len() as u64);
            let reply = node
                .ctx()
                .port()
                .request_retrying(home, kinds::VALIDATE, req, bytes)
                .unwrap_or_else(|e| panic!("swdsm node {}: unrecoverable fault validating digests: {e}", node.rank()));
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
    stat(node, "digest_hits", (exact.len() + stale.len()) as u64);
    stat(node, "digest_misses", clean);

    let mut doomed = exact;
    doomed.extend(stale);
    invalidate_stale(node, doomed);
}

/// Diff-and-ship any dirty pages among `pages`: the whole dirty set at a
/// release point, a victim under cache pressure, or — rare under proper
/// synchronization discipline — pages about to be invalidated.
fn flush_dirty_subset(node: &DsmNode, pages: &[PageId]) {
    let mut by_home: BTreeMap<usize, Vec<(PageId, Diff)>> = BTreeMap::new();
    {
        let mut table = node.state().table.lock();
        for &page in pages {
            let dirty = matches!(table.get(page), Some(p) if p.state == memwire::PageState::Writable);
            if dirty {
                let (twin, cur) = table.downgrade(page);
                node.ctx().compute(DIFF_SCAN_NS);
                let diff = Diff::of(&twin, cur);
                if !diff.is_empty() {
                    by_home.entry(node.path().home_of(page)).or_default().push((page, diff));
                }
            }
        }
    }
    let msgs: Vec<_> = by_home
        .into_iter()
        .map(|(home, diffs)| {
            stat(node, "diffs", diffs.len() as u64);
            let msg = ApplyDiffs { diffs };
            let bytes = msg.wire_bytes();
            stat(node, "diff_bytes", bytes);
            (home, kinds::APPLY_DIFFS, msg, bytes)
        })
        .collect();
    send_batch(node, msgs);
}

/// Drop every cached copy (conservative acquire in the no-lock-notices
/// ablation mode). Dirty pages are flushed home first.
fn invalidate_all_cached(node: &DsmNode) {
    let _ = flush_interval(node);
    let mut table = node.state().table.lock();
    let n = table.len() as u64;
    table.clear();
    stat(node, "invalidations", n);
}
