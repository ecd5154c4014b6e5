//! The advisor: analyzer signals in, a deterministic [`TuningPlan`] out.

use crate::{Action, TuningPlan};
use analyzer::{Lane, Report, LANES};
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

/// Derive a tuning plan from an analyzer report. Deterministic: actions
/// come out in a fixed order (pads by region, re-homes by fault time,
/// lock placements by lock id, then topology switches), so the same
/// report always yields the same plan.
pub fn advise(s: &Report) -> TuningPlan {
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
    for f in &s.false_sharing {
        let region = PageId::unpack(f.page).region;
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
        actions.push(Action::RehomePage { page: PageId::unpack(p.page), to: p.top_writer as usize });
    }

    // Contended DSM locks: a dominant acquirer gets the manager moved
    // to it; contention from everywhere is a topology problem instead.
    let mut scattered = false;
    for l in s.locks.iter().filter(|l| l.module == "swdsm" && l.wait_ns > 0) {
        if majority(l.top_acquirer_acquires, l.acquires) {
            actions.push(Action::PlaceLock { lock: l.lock as u32, to: l.top_acquirer as usize });
        } else {
            scattered = true;
        }
    }

    // Lane totals summed across nodes.
    let mut lanes = [0u64; LANES];
    for n in &s.nodes {
        lanes.iter_mut().zip(n.lanes).for_each(|(sum, ns)| *sum += ns);
    }
    let total: u64 = lanes.iter().sum();
    let dominant = |lane: Lane| total > 0 && lanes[lane as usize] * 100 >= total * LANE_DOMINANCE_PCT;
    if scattered && dominant(Lane::LockWait) {
        actions.push(Action::SwitchLocks);
    }
    if s.nodes.len() >= TREE_MIN_NODES && dominant(Lane::BarrierWait) {
        actions.push(Action::SwitchBarrier { fanout: TREE_FANOUT });
    }

    TuningPlan { actions }
}

#[cfg(test)]
mod tests {
    use super::*;
    use analyzer::{FalseSharing, LockStats, NodeBreakdown, PageStats};

    fn page(region: u32, index: u32, faults: u64, fault_ns: u64, writes: u64, top: u64, top_w: u64) -> PageStats {
        PageStats {
            page: PageId { region, index }.pack(),
            faults,
            fault_ns,
            writers: 2,
            writes,
            top_writer: top,
            top_writer_writes: top_w,
        }
    }

    /// A report over `nodes` nodes whose lane totals are `lanes` (all
    /// of it on node 0).
    fn report(nodes: usize, lanes: [u64; LANES]) -> Report {
        let node = |node| NodeBreakdown { node, makespan_ns: 0, lanes: [0; LANES] };
        let mut r = Report { nodes: (0..nodes).map(node).collect(), ..Default::default() };
        r.nodes[0].lanes = lanes;
        r
    }

    fn shared(page: PageId) -> FalseSharing {
        FalseSharing { page: page.pack(), nodes: vec![0, 1], offsets: vec![0, 512] }
    }

    #[test]
    fn false_sharing_pads_and_suppresses_rehoming() {
        let s = Report {
            false_sharing: vec![shared(PageId { region: 2, index: 1 })],
            pages: vec![page(2, 1, 50, 900, 40, 1, 39)],
            ..report(4, [0; LANES])
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
        let s = Report { pages, ..report(4, [0; LANES]) };
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
        let s = Report {
            pages: vec![page(0, 3, 0, 0, HOT_PAGE_MIN_WRITES, 1, HOT_PAGE_MIN_WRITES)],
            ..report(2, [0; LANES])
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
        let s = Report { pages: vec![solo, contested], ..report(2, [0; LANES]) };
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
        let s = Report {
            false_sharing: vec![shared(PageId { region: 0, index: 4 })],
            pages,
            ..report(2, [0; LANES])
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
        let s = Report {
            pages: vec![page(LOCAL_REGION_BASE, 0, 50, 900, 40, 1, 39)],
            ..report(2, [0; LANES])
        };
        assert!(advise(&s).is_empty());
    }

    #[test]
    fn dominant_acquirer_pins_the_lock() {
        let lock = |lock: u64, top: u64, top_a: u64| LockStats {
            module: "swdsm",
            lock,
            acquires: 10,
            wait_ns: 500,
            top_acquirer: top,
            top_acquirer_acquires: top_a,
            ..Default::default()
        };
        let s = Report { locks: vec![lock(1, 3, 8), lock(2, 0, 4)], ..report(4, [0, 0, 0, 900, 0]) };
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
        let s = report(64, [100, 0, 0, 0, 900]);
        assert_eq!(advise(&s).actions, vec![Action::SwitchBarrier { fanout: TREE_FANOUT }]);
        let s = report(4, [100, 0, 0, 0, 900]);
        assert!(advise(&s).is_empty(), "small clusters keep the central barrier");
        let s = report(64, [900, 0, 0, 0, 100]);
        assert!(advise(&s).is_empty(), "compute-bound runs are left alone");
    }

    #[test]
    fn empty_report_yields_empty_plan() {
        assert!(advise(&Report::default()).is_empty());
    }
}
