//! The advisor: analyzer signals in, a deterministic [`TuningPlan`] out.

use crate::parse::ReportSummary;
use crate::{Action, TuningPlan};
use memwire::{PageId, LOCAL_REGION_BASE, PAGE_SIZE};
use std::collections::{BTreeMap, BTreeSet};

/// Fault count below which a page is not worth re-homing on fault
/// pressure alone.
pub const HOT_PAGE_MIN_FAULTS: u64 = 8;
/// Write count above which diff pressure alone justifies re-homing: a
/// page written this often from a remote home ships a diff burst at
/// every release even when nobody ever faults on it. (Write counts are
/// epoch-granular — one per page per write interval — so the bar is
/// lower than a store count would suggest.)
pub const HOT_PAGE_MIN_WRITES: u64 = 16;
/// A page with exactly one writing node is always best homed at that
/// writer — there is no competing access pattern to weigh — so a much
/// smaller write floor (enough to rule out init-only pages) qualifies
/// it.
pub const SOLE_WRITER_MIN_WRITES: u64 = 4;
/// Cap on re-home actions per plan (ranked by fault stall time, then
/// write pressure).
pub const MAX_REHOMES: usize = 64;
/// Padding a whole region pays off only when sharing is pervasive: at
/// least one in this many *touched* pages of the region must be
/// flagged. A single shared boundary page (e.g. a block split landing
/// mid-page) is better served by re-homing than by re-laying-out every
/// row.
pub const PAD_DENSITY_DENOM: u64 = 8;
/// A lane is "dominant" when it holds at least this share (percent) of
/// the summed lane time across nodes.
pub const LANE_DOMINANCE_PCT: u64 = 25;
/// Minimum cluster size before a tree barrier beats the central one.
pub const TREE_MIN_NODES: usize = 16;
/// Fan-out of the tree barrier the advisor proposes.
pub const TREE_FANOUT: u32 = 4;

/// Whether `top` is a strict majority of `total`.
fn majority(top: u64, total: u64) -> bool {
    total > 0 && top * 2 > total
}

/// Lane indices into [`ReportSummary::lanes`].
const LOCK_WAIT: usize = 3;
const BARRIER_WAIT: usize = 4;

/// Derive a tuning plan from a report summary. Deterministic: actions
/// come out in a fixed order (pads by region, re-homes by fault time,
/// lock placements by lock id, then topology switches), so the same
/// report always yields the same plan.
pub fn advise(s: &ReportSummary) -> TuningPlan {
    let mut actions = Vec::new();

    // False sharing: pad the region so each writer's run lands on its
    // own page — but only when sharing is pervasive across the region.
    // Padding multiplies the page count, so repairing one shared
    // boundary page by re-laying-out a hundred clean ones trades a
    // little invalidation traffic for a lot of extra fault traffic;
    // those sparse cases fall through to re-homing instead. Page ids
    // shift under a new layout, so padded regions are excluded from
    // re-homing in the same plan.
    let mut touched: BTreeMap<u32, u64> = BTreeMap::new();
    for p in &s.pages {
        *touched.entry(PageId::unpack(p.page).region).or_insert(0) += 1;
    }
    let mut flagged: BTreeMap<u32, u64> = BTreeMap::new();
    for &p in &s.false_sharing {
        let region = PageId::unpack(p).region;
        if region < LOCAL_REGION_BASE {
            *flagged.entry(region).or_insert(0) += 1;
        }
    }
    let padded: BTreeSet<u32> = flagged
        .iter()
        .filter(|&(region, &n)| {
            // A flagged page always counts as touched even if its row
            // fell off the report's page table.
            n * PAD_DENSITY_DENOM >= touched.get(region).copied().unwrap_or(0).max(n)
        })
        .map(|(&region, _)| region)
        .collect();
    for &region in &padded {
        actions.push(Action::PadRegion { region, pad_to: PAGE_SIZE as u32 });
    }

    // Hot pages with a dominant writer: move the home to the writer so
    // its diffs become local. Both fault stalls (readers waiting on a
    // remote home) and raw write pressure (diff bursts at every
    // release) qualify a page; ranking puts stall time first because it
    // is time a node measurably lost.
    let mut hot: Vec<_> = s
        .pages
        .iter()
        .filter(|p| {
            let page = PageId::unpack(p.page);
            page.region < LOCAL_REGION_BASE
                && !padded.contains(&page.region)
                && (p.faults >= HOT_PAGE_MIN_FAULTS
                    || p.writes >= HOT_PAGE_MIN_WRITES
                    || (p.writers == 1 && p.writes >= SOLE_WRITER_MIN_WRITES))
                && majority(p.top_writer_writes, p.writes)
        })
        .collect();
    hot.sort_by(|a, b| {
        b.fault_ns
            .cmp(&a.fault_ns)
            .then(b.writes.cmp(&a.writes))
            .then(a.page.cmp(&b.page))
    });
    for p in hot.into_iter().take(MAX_REHOMES) {
        actions.push(Action::RehomePage { page: PageId::unpack(p.page), to: p.top_writer });
    }

    // Contended DSM locks: a dominant acquirer gets the manager moved
    // to it; contention from everywhere is a topology problem instead.
    let mut scattered = false;
    for l in s.locks.iter().filter(|l| l.module == "swdsm" && l.wait_ns > 0) {
        if majority(l.top_acquirer_acquires, l.acquires) {
            actions.push(Action::PlaceLock { lock: l.lock, to: l.top_acquirer });
        } else {
            scattered = true;
        }
    }

    let total: u64 = s.lanes.iter().sum();
    let dominant = |lane: usize| total > 0 && s.lanes[lane] * 100 >= total * LANE_DOMINANCE_PCT;
    if scattered && dominant(LOCK_WAIT) {
        actions.push(Action::SwitchLocks);
    }
    if s.nodes >= TREE_MIN_NODES && dominant(BARRIER_WAIT) {
        actions.push(Action::SwitchBarrier { fanout: TREE_FANOUT });
    }

    TuningPlan { actions }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::{LockRow, PageRow};

    fn page(region: u32, index: u32, faults: u64, fault_ns: u64, writes: u64, top: usize, top_w: u64) -> PageRow {
        PageRow {
            page: PageId { region, index }.pack(),
            faults,
            fault_ns,
            writers: 2,
            writes,
            top_writer: top,
            top_writer_writes: top_w,
        }
    }

    #[test]
    fn false_sharing_pads_and_suppresses_rehoming() {
        let s = ReportSummary {
            makespan_ns: 1000,
            nodes: 4,
            false_sharing: vec![PageId { region: 2, index: 1 }.pack()],
            pages: vec![page(2, 1, 50, 900, 40, 1, 39)],
            ..Default::default()
        };
        let plan = advise(&s);
        assert_eq!(
            plan.actions,
            vec![Action::PadRegion { region: 2, pad_to: PAGE_SIZE as u32 }]
        );
    }

    #[test]
    fn hot_pages_rank_by_stall_time_and_cap() {
        let n = MAX_REHOMES as u32 + 6;
        let mut pages: Vec<_> =
            (0..n).map(|i| page(0, i, 10, 100 + i as u64, 10, 1, 9)).collect();
        // A cold page and a page with no dominant writer never move.
        pages.push(page(0, 900, 1, 1_000_000, 10, 1, 9));
        pages.push(page(0, 901, 50, 1_000_000, 10, 1, 5));
        let s = ReportSummary { makespan_ns: 1, nodes: 4, pages, ..Default::default() };
        let plan = advise(&s);
        assert_eq!(plan.actions.len(), MAX_REHOMES);
        // Highest stall time first: the last in-cap index.
        assert_eq!(
            plan.actions[0],
            Action::RehomePage { page: PageId { region: 0, index: n - 1 }, to: 1 }
        );
    }

    #[test]
    fn write_pressure_alone_qualifies_a_page() {
        // No faults at all: nobody reads the page, but its writer diffs
        // to a remote home at every release.
        let s = ReportSummary {
            makespan_ns: 1,
            nodes: 2,
            pages: vec![page(0, 3, 0, 0, HOT_PAGE_MIN_WRITES, 1, HOT_PAGE_MIN_WRITES)],
            ..Default::default()
        };
        assert_eq!(
            advise(&s).actions,
            vec![Action::RehomePage { page: PageId { region: 0, index: 3 }, to: 1 }]
        );
    }

    #[test]
    fn sole_writer_pages_qualify_at_a_low_floor() {
        let mut solo = page(0, 7, 0, 0, SOLE_WRITER_MIN_WRITES, 1, SOLE_WRITER_MIN_WRITES);
        solo.writers = 1;
        // Same write count but two writers: stays put.
        let contested = page(0, 8, 0, 0, SOLE_WRITER_MIN_WRITES, 1, SOLE_WRITER_MIN_WRITES - 1);
        let s = ReportSummary {
            makespan_ns: 1,
            nodes: 2,
            pages: vec![solo, contested],
            ..Default::default()
        };
        assert_eq!(
            advise(&s).actions,
            vec![Action::RehomePage { page: PageId { region: 0, index: 7 }, to: 1 }]
        );
    }

    #[test]
    fn sparse_false_sharing_rehomes_instead_of_padding() {
        // One shared boundary page in a nine-page region: padding would
        // re-layout the whole region for a single page's benefit, so
        // the advisor re-homes the hot pages instead.
        let pages: Vec<_> = (0..9).map(|i| page(0, i, 10, 100, 30, 1, 29)).collect();
        let s = ReportSummary {
            makespan_ns: 1000,
            nodes: 2,
            false_sharing: vec![PageId { region: 0, index: 4 }.pack()],
            pages,
            ..Default::default()
        };
        let plan = advise(&s);
        assert!(
            !plan.actions.iter().any(|a| matches!(a, Action::PadRegion { .. })),
            "sparse sharing must not pad: {plan:?}"
        );
        assert_eq!(plan.actions.len(), 9, "all hot pages re-homed: {plan:?}");
    }

    #[test]
    fn local_regions_are_never_rehomed() {
        let s = ReportSummary {
            makespan_ns: 1,
            nodes: 2,
            pages: vec![page(LOCAL_REGION_BASE, 0, 50, 900, 40, 1, 39)],
            ..Default::default()
        };
        assert!(advise(&s).is_empty());
    }

    #[test]
    fn dominant_acquirer_pins_the_lock() {
        let lock = |l: u32, top: usize, top_a: u64| LockRow {
            module: "swdsm".into(),
            lock: l,
            acquires: 10,
            wait_ns: 500,
            top_acquirer: top,
            top_acquirer_acquires: top_a,
        };
        let s = ReportSummary {
            makespan_ns: 1000,
            nodes: 4,
            lanes: [0, 0, 0, 900, 0],
            locks: vec![lock(1, 3, 8), lock(2, 0, 4)],
            ..Default::default()
        };
        let plan = advise(&s);
        // Lock 1 has a dominant acquirer -> placed. Lock 2 is scattered
        // and lock wait dominates -> topology switch.
        assert_eq!(
            plan.actions,
            vec![Action::PlaceLock { lock: 1, to: 3 }, Action::SwitchLocks]
        );
    }

    #[test]
    fn barrier_switch_needs_scale_and_dominance() {
        let mut s = ReportSummary {
            makespan_ns: 1000,
            nodes: 64,
            lanes: [100, 0, 0, 0, 900],
            ..Default::default()
        };
        assert_eq!(advise(&s).actions, vec![Action::SwitchBarrier { fanout: TREE_FANOUT }]);
        s.nodes = 4;
        assert!(advise(&s).is_empty(), "small clusters keep the central barrier");
        s.nodes = 64;
        s.lanes = [900, 0, 0, 0, 100];
        assert!(advise(&s).is_empty(), "compute-bound runs are left alone");
    }

    #[test]
    fn empty_report_yields_empty_plan() {
        assert!(advise(&ReportSummary::default()).is_empty());
    }
}
