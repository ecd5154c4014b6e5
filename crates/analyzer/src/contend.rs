//! Contention and sharing attribution: per-lock wait/hold/handoff
//! statistics, per-page fault counts, and the false-sharing detector.

use crate::{FalseSharing, LockStats, PageStats, CACHE_LINE_BYTES, FALSE_SHARING_WINDOW_NS};
use sim::{Sketch, TraceEvent};
use std::collections::BTreeMap;

/// Compute `(locks, pages, false_sharing, invalidations)` from
/// canonically sorted events.
#[allow(clippy::type_complexity)]
pub fn contention(
    events: &[TraceEvent],
) -> (Vec<LockStats>, Vec<PageStats>, Vec<FalseSharing>, u64) {
    (locks(events), pages(events), false_sharing(events), invalidations(events))
}

fn locks(events: &[TraceEvent]) -> Vec<LockStats> {
    struct Acc {
        acquires: u64,
        wait_ns: u64,
        hist: Sketch,
        /// Per node: acquire counts (for the dominant-acquirer field).
        per_node: BTreeMap<usize, u64>,
        /// Per node: acquire-span end times (time-ascending).
        ends: BTreeMap<usize, Vec<u64>>,
        /// Per node: release instants (time-ascending).
        rels: BTreeMap<usize, Vec<u64>>,
        /// Grant instants: (t, grantee) in trace order.
        grants: Vec<(u64, u64)>,
    }
    let mut acc: BTreeMap<(&'static str, u64), Acc> = BTreeMap::new();
    fn entry<'a>(
        acc: &'a mut BTreeMap<(&'static str, u64), Acc>,
        m: &'static str,
        l: u64,
    ) -> &'a mut Acc {
        acc.entry((m, l)).or_insert_with(|| Acc {
            acquires: 0,
            wait_ns: 0,
            hist: Sketch::new(),
            per_node: BTreeMap::new(),
            ends: BTreeMap::new(),
            rels: BTreeMap::new(),
            grants: Vec::new(),
        })
    }
    for e in events {
        match e.op {
            "lock_acquire" if e.dur_ns > 0 => {
                let a = entry(&mut acc, e.module, e.arg);
                a.acquires += 1;
                a.wait_ns += e.dur_ns;
                a.hist.record(e.dur_ns);
                *a.per_node.entry(e.node).or_default() += 1;
                a.ends.entry(e.node).or_default().push(e.t_ns + e.dur_ns);
            }
            "lock_release" => {
                entry(&mut acc, e.module, e.arg).rels.entry(e.node).or_default().push(e.t_ns);
            }
            "lock_grant" => {
                // corr is `cluster::syncproto::grant_corr(grantee, lock)`:
                // (grantee + 1) << 32 | (lock + 1), on every platform.
                let a = entry(&mut acc, e.module, e.arg);
                if e.corr != 0 {
                    a.grants.push((e.t_ns, e.corr >> 32));
                }
            }
            _ => {}
        }
    }
    acc.into_iter()
        .map(|((module, lock), a)| {
            // Holds: each acquire end pairs with the node's next
            // release at or after it (both lists are time-ascending).
            let (mut holds, mut hold_ns) = (0u64, 0u64);
            for (node, ends) in &a.ends {
                let rels = a.rels.get(node).map(Vec::as_slice).unwrap_or(&[]);
                let mut ri = 0;
                for &end in ends {
                    while ri < rels.len() && rels[ri] < end {
                        ri += 1;
                    }
                    if ri < rels.len() {
                        holds += 1;
                        hold_ns += rels[ri] - end;
                        ri += 1;
                    }
                }
            }
            let handoffs = a
                .grants
                .windows(2)
                .filter(|w| w[0].1 != w[1].1)
                .count() as u64;
            let (top_acquirer, top_acquirer_acquires) = dominant(&a.per_node);
            LockStats {
                module,
                lock,
                acquires: a.acquires,
                wait_ns: a.wait_ns,
                wait: a.hist.quantiles(),
                holds,
                hold_ns,
                grants: a.grants.len() as u64,
                handoffs,
                top_acquirer,
                top_acquirer_acquires,
            }
        })
        .collect()
}

/// The dominant entry of a per-node counter map: `(node, count)` of the
/// largest count, ties to the lowest rank (ascending iteration plus a
/// strict comparison). `(0, 0)` for an empty map.
fn dominant(per_node: &BTreeMap<usize, u64>) -> (u64, u64) {
    let mut top = (0u64, 0u64);
    for (&node, &count) in per_node {
        if count > top.1 {
            top = (node as u64, count);
        }
    }
    top
}

fn pages(events: &[TraceEvent]) -> Vec<PageStats> {
    #[derive(Default)]
    struct Acc {
        faults: u64,
        fault_ns: u64,
        writes: BTreeMap<usize, u64>,
    }
    let mut acc: BTreeMap<u64, Acc> = BTreeMap::new();
    for e in events.iter().filter(|e| e.module == "swdsm") {
        match e.op {
            "page_fault" if e.dur_ns > 0 => {
                let a = acc.entry(e.arg).or_default();
                a.faults += 1;
                a.fault_ns += e.dur_ns;
            }
            "write_fault" | "write_local" => {
                *acc.entry(e.arg).or_default().writes.entry(e.node).or_default() += 1;
            }
            _ => {}
        }
    }
    acc.into_iter()
        .map(|(page, a)| {
            let (top_writer, top_writer_writes) = dominant(&a.writes);
            PageStats {
                page,
                faults: a.faults,
                fault_ns: a.fault_ns,
                writers: a.writes.len() as u64,
                writes: a.writes.values().sum(),
                top_writer,
                top_writer_writes,
            }
        })
        .collect()
}

fn false_sharing(events: &[TraceEvent]) -> Vec<FalseSharing> {
    // Per page: (t, node, offset) write records, trace order (already
    // time-ascending after the canonical sort).
    let mut writes: BTreeMap<u64, Vec<(u64, usize, u64)>> = BTreeMap::new();
    for e in events.iter().filter(|e| {
        e.module == "swdsm"
            && (e.op == "write_fault" || e.op == "write_local")
            && e.corr != 0
    }) {
        writes.entry(e.arg).or_default().push((e.t_ns, e.node, e.corr - 1));
    }
    let mut out = Vec::new();
    for (page, ws) in writes {
        // Sliding window: flag the first pair of distinct nodes writing
        // cache-line-disjoint offsets within the detection window.
        let mut hit: Option<(usize, u64, usize, u64)> = None;
        'scan: for (i, &(t1, n1, o1)) in ws.iter().enumerate() {
            for &(t2, n2, o2) in &ws[i + 1..] {
                if t2 - t1 > FALSE_SHARING_WINDOW_NS {
                    break;
                }
                if n1 != n2 && o1.abs_diff(o2) >= CACHE_LINE_BYTES {
                    hit = Some((n1, o1, n2, o2));
                    break 'scan;
                }
            }
        }
        if let Some((n1, o1, n2, o2)) = hit {
            let mut pairs = [(n1, o1), (n2, o2)];
            pairs.sort();
            out.push(FalseSharing {
                page,
                nodes: pairs.iter().map(|&(n, _)| n).collect(),
                offsets: pairs.iter().map(|&(_, o)| o).collect(),
            });
        }
    }
    out
}

fn invalidations(events: &[TraceEvent]) -> u64 {
    events
        .iter()
        .filter(|e| e.module == "swdsm" && e.op == "write_notice")
        .map(|e| e.arg)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(
        t: u64,
        dur: u64,
        node: usize,
        module: &'static str,
        op: &'static str,
        arg: u64,
        corr: u64,
    ) -> TraceEvent {
        TraceEvent { t_ns: t, dur_ns: dur, node, module, op, arg, corr }
    }

    #[test]
    fn false_sharing_needs_distinct_nodes_and_lines() {
        let page = 42;
        // Same offset from two nodes: true sharing, not flagged.
        let truly = vec![
            ev(0, 0, 0, "swdsm", "write_fault", page, 1),
            ev(10, 0, 1, "swdsm", "write_fault", page, 1),
        ];
        assert!(false_sharing(&truly).is_empty());
        // Distinct cache lines from one node: private layout, not flagged.
        let private = vec![
            ev(0, 0, 0, "swdsm", "write_fault", page, 1),
            ev(10, 0, 0, "swdsm", "write_fault", page, 1 + 512),
        ];
        assert!(false_sharing(&private).is_empty());
        // Distinct cache lines from two nodes: flagged.
        let shared = vec![
            ev(0, 0, 0, "swdsm", "write_local", page, 1),
            ev(10, 0, 1, "swdsm", "write_fault", page, 1 + 512),
        ];
        let hits = false_sharing(&shared);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].page, page);
        assert_eq!(hits[0].nodes, vec![0, 1]);
        assert_eq!(hits[0].offsets, vec![0, 512]);
    }

    #[test]
    fn false_sharing_window_bounds_detection() {
        let page = 7;
        let far = vec![
            ev(0, 0, 0, "swdsm", "write_fault", page, 1),
            ev(FALSE_SHARING_WINDOW_NS + 1, 0, 1, "swdsm", "write_fault", page, 1 + 512),
        ];
        assert!(false_sharing(&far).is_empty());
    }

    #[test]
    fn page_stats_aggregate_faults_and_writers() {
        let evs = vec![
            ev(0, 100, 0, "swdsm", "page_fault", 5, 0),
            ev(50, 80, 1, "swdsm", "page_fault", 5, 0),
            ev(60, 0, 0, "swdsm", "write_fault", 5, 9),
            ev(70, 0, 1, "swdsm", "write_local", 5, 17),
        ];
        let p = pages(&evs);
        assert_eq!(p.len(), 1);
        assert_eq!((p[0].page, p[0].faults, p[0].fault_ns, p[0].writers), (5, 2, 180, 2));
        assert_eq!((p[0].writes, p[0].top_writer, p[0].top_writer_writes), (2, 0, 1));
    }

    #[test]
    fn dominant_writer_counts_writes_and_breaks_ties_low() {
        let evs = vec![
            ev(0, 0, 2, "swdsm", "write_fault", 5, 1),
            ev(10, 0, 2, "swdsm", "write_local", 5, 1),
            ev(20, 0, 0, "swdsm", "write_fault", 5, 1),
            ev(30, 0, 1, "swdsm", "write_fault", 5, 1),
            ev(40, 0, 1, "swdsm", "write_fault", 5, 1),
        ];
        let p = pages(&evs);
        // Nodes 1 and 2 tie at two writes each: the lowest rank wins.
        assert_eq!((p[0].writes, p[0].top_writer, p[0].top_writer_writes), (5, 1, 2));
    }

    #[test]
    fn dominant_acquirer_tracked_per_lock() {
        let evs = vec![
            ev(0, 10, 1, "swdsm", "lock_acquire", 3, 4),
            ev(20, 10, 1, "swdsm", "lock_acquire", 3, 4),
            ev(40, 10, 0, "swdsm", "lock_acquire", 3, 4),
        ];
        let l = locks(&evs);
        assert_eq!((l[0].acquires, l[0].top_acquirer, l[0].top_acquirer_acquires), (3, 1, 2));
    }

    #[test]
    fn grants_to_same_node_are_not_handoffs() {
        let evs = vec![
            ev(0, 0, 0, "swdsm", "lock_grant", 3, (1 << 32) | 4),
            ev(10, 0, 0, "swdsm", "lock_grant", 3, (1 << 32) | 4),
            ev(20, 0, 0, "swdsm", "lock_grant", 3, (2 << 32) | 4),
        ];
        let l = locks(&evs);
        assert_eq!(l[0].grants, 3);
        assert_eq!(l[0].handoffs, 1);
    }
}
