//! Synchronization scalability sweep: centralized vs scalable
//! protocols from 16 to 1024 nodes.
//!
//! For each sweep point and each topology (`centralized`: central
//! barrier manager, lock managers, explicit per-writer notices;
//! `scalable`: fanout-8 aggregation tree, lock-token queue, interval
//! digests) the artifact runs three kernels — SOR, LU, and a rank-ordered
//! lock ring — and records virtual time, checksums, and the six
//! synchronization counters (`sync_msgs`, `sync_records`,
//! `digest_hits`, `digest_misses`, `token_forwards`, `tree_waves`).
//!
//! The artifact is its own acceptance check:
//!
//! * checksums must be bit-identical between the two topologies at
//!   every sweep point (the protocols may only change *when* data
//!   moves, never *what* it says);
//! * the tree barrier's per-episode message count must stay ≤ 12·n
//!   (it is 2(n−1): one aggregate and one wave per non-root node),
//!   while the centralized explicit-notice protocol ships ≥ n²/4
//!   notice records per barrier once every node writes each epoch;
//! * message growth between consecutive sweep points must stay linear
//!   (ratio ≤ 1.25 × the node-count ratio — a superlinear regression
//!   fails the run);
//! * at 256 nodes a traced SOR run is fed to [`analyzer::analyze`] and
//!   the scalable topology must keep barrier wait off the critical
//!   path: its barrier-wait share must be below 25% of the path and
//!   below the centralized share.
//!
//! The document holds counters and checksums only (the checksums as
//! hex strings: a bare JSON number keeps 53 of their 64 bits), byte
//! identical across runs of the same build. Virtual times are printed
//! in the table but kept out of the artifact: once hundreds of arrivals
//! saturate a bus window the slowdown factor depends on the real-time
//! order demand was registered in, so `sim_time_ns` can wobble by a
//! fraction of a percent while every counter stays exact (the Ethernet
//! bus is pinned at 250 MB/s for the same reason as `analysis`, see
//! OBSERVABILITY.md). `--quick` caps the sweep at 256 nodes for CI.

use crate::report::{Report, Table};
use crate::suite::{lock_ring, pinned_swdsm};
use crate::{Args, Built};
use apps::world::NativeWorld;
use apps::BenchResult;
use cluster::SyncTopology;
use sim::json::Value;

/// Lock-ring turns are capped so the ring stays tractable at 1024
/// nodes: the first `RING_TURNS` ranks take one turn each (everyone
/// still participates in every barrier, which is the scaling surface
/// under test — the cap only bounds the serial lock handoffs).
const RING_TURNS: usize = 16;

/// Critical-path budget for barrier wait under the scalable topology
/// at the traced sweep point.
const BARRIER_SHARE_LIMIT: f64 = 0.25;

/// Weak-scaling SOR grid: four rows per node, so per-node work stays
/// constant as the cluster grows and every node writes every epoch
/// (the all-writers pattern that makes centralized notices quadratic).
fn sor_size(nodes: usize) -> usize {
    4 * nodes.max(16)
}

/// The six synchronization counters a cell records, summed over nodes.
const COUNTERS: [&str; 6] =
    ["sync_msgs", "sync_records", "digest_hits", "digest_misses", "token_forwards", "tree_waves"];

/// Aggregated counters for one (workload, topology, nodes) cell.
struct Cell {
    nodes: usize,
    workload: &'static str,
    topology: &'static str,
    sim_time_ns: u64,
    checksum: u64,
    /// Barrier episodes (every node participates in each).
    barriers: u64,
    /// In [`COUNTERS`] order.
    counters: [u64; 6],
}

impl Cell {
    /// `name` of [`COUNTERS`] per barrier episode: cross-node messages
    /// for `sync_msgs`, notice records for `sync_records`.
    fn per_barrier(&self, name: &str) -> f64 {
        let i = COUNTERS.iter().position(|c| *c == name).expect("a recorded counter");
        self.counters[i] as f64 / self.barriers.max(1) as f64
    }
}

fn measure(
    nodes: usize,
    workload: &'static str,
    topology: &'static str,
    sync: SyncTopology,
    f: impl Fn(&NativeWorld) -> BenchResult + Send + Sync,
) -> Cell {
    let (report, results, dsm) =
        pinned_swdsm(nodes, sync, None, None, Default::default(), |node| f(&NativeWorld::new(node)));
    // Rank-order-sensitive fold: a plain XOR of identical per-rank
    // checksums would cancel to zero on every even-sized cluster.
    let checksum = results.iter().fold(0u64, |acc, r| acc.rotate_left(1) ^ r.checksum);
    let sum = |name: &str| (0..nodes).map(|n| dsm.stats(n).get(name)).sum::<u64>();
    Cell {
        nodes,
        workload,
        topology,
        sim_time_ns: report.sim_time_ns,
        checksum,
        barriers: sum("barriers") / nodes as u64,
        counters: COUNTERS.map(sum),
    }
}

/// Barrier-wait share of the critical path in a traced SOR run.
fn barrier_path_share(nodes: usize, sync: SyncTopology) -> f64 {
    let session = sim::TraceSession::begin();
    let n = sor_size(nodes);
    let sor = |node| apps::sor::sor(&NativeWorld::new(node), n, 2, false);
    let _ = pinned_swdsm(nodes, sync, None, None, Default::default(), sor);
    let report = analyzer::analyze(&session.finish());
    let barrier_ns: u64 = report
        .critical_path
        .contributors
        .iter()
        .filter(|c| c.lane == analyzer::Lane::BarrierWait)
        .map(|c| c.ns)
        .sum();
    barrier_ns as f64 / report.critical_path.total_ns.max(1) as f64
}

/// The sweep, its four gates, and the counters-only document.
pub fn scale(args: &Args) -> Built {
    let sweep: &[usize] = if args.quick { &[16, 64, 256] } else { &[16, 64, 256, 1024] };
    let topologies =
        [("centralized", SyncTopology::centralized()), ("scalable", SyncTopology::scalable())];

    let mut cells: Vec<Cell> = Vec::new();
    let mut failures: Vec<String> = Vec::new();

    for &nodes in sweep {
        for (name, sync) in topologies {
            let sor_n = sor_size(nodes);
            cells.push(measure(nodes, "sor", name, sync, move |w| {
                apps::sor::sor(w, sor_n, 2, false)
            }));
            cells.push(measure(nodes, "lu", name, sync, |w| apps::lu::lu(w, 96)));
            cells.push(measure(nodes, "lock_ring", name, sync, |w| lock_ring(w, 1, RING_TURNS)));
        }
    }

    let find = |nodes: usize, workload: &str, topology: &str| {
        cells
            .iter()
            .find(|c| c.nodes == nodes && c.workload == workload && c.topology == topology)
            .unwrap()
    };

    // 1. Checksums must match between topologies everywhere.
    for &nodes in sweep {
        for workload in ["sor", "lu", "lock_ring"] {
            let a = find(nodes, workload, "centralized");
            let b = find(nodes, workload, "scalable");
            if a.checksum != b.checksum {
                failures.push(format!(
                    "{workload}@{nodes}: checksum diverged (centralized {:#x} vs scalable {:#x})",
                    a.checksum, b.checksum
                ));
            }
        }
    }

    // 2. Tree-barrier message volume: ≤ 12·n per episode at every
    //    point; the centralized explicit notices go quadratic.
    let &last = sweep.last().unwrap();
    for &nodes in sweep {
        let tree = find(nodes, "sor", "scalable");
        if tree.per_barrier("sync_msgs") > 12.0 * nodes as f64 {
            failures.push(format!(
                "sor@{nodes}: scalable barrier costs {:.1} msgs/episode (> 12n = {})",
                tree.per_barrier("sync_msgs"),
                12 * nodes
            ));
        }
    }
    let central = find(last, "sor", "centralized");
    let central_records = central.per_barrier("sync_records");
    if central_records < (last * last) as f64 / 4.0 {
        failures.push(format!(
            "sor@{last}: centralized notice volume {central_records:.0} records/barrier, \
             expected ≥ n²/4 = {} (the quadratic baseline the digests replace)",
            last * last / 4
        ));
    }

    // 3. Superlinear-growth gate on the scalable barrier.
    for pair in sweep.windows(2) {
        let (a, b) = (find(pair[0], "sor", "scalable"), find(pair[1], "sor", "scalable"));
        let growth = b.per_barrier("sync_msgs") / a.per_barrier("sync_msgs").max(1.0);
        let limit = 1.25 * pair[1] as f64 / pair[0] as f64;
        if growth > limit {
            failures.push(format!(
                "sor: scalable msgs/barrier grew {growth:.2}x from {} to {} nodes (limit {limit:.2}x)",
                pair[0], pair[1]
            ));
        }
    }

    // 4. Critical-path attribution at 256 nodes: the tree must push
    //    barrier wait off the path.
    let traced_nodes = 256;
    let central_share = barrier_path_share(traced_nodes, SyncTopology::centralized());
    let scalable_share = barrier_path_share(traced_nodes, SyncTopology::scalable());
    let shares = format!(
        "critical-path barrier-wait share @ {traced_nodes} nodes: centralized {:.1}%, scalable {:.1}%",
        central_share * 100.0,
        scalable_share * 100.0
    );
    if scalable_share >= BARRIER_SHARE_LIMIT {
        failures.push(format!(
            "scalable barrier wait is {:.1}% of the {traced_nodes}-node critical path \
             (budget {:.0}%)",
            scalable_share * 100.0,
            BARRIER_SHARE_LIMIT * 100.0
        ));
    }
    if scalable_share > central_share {
        failures.push(format!(
            "scalable barrier-wait share ({:.1}%) exceeds centralized ({:.1}%) at {traced_nodes} nodes",
            scalable_share * 100.0,
            central_share * 100.0
        ));
    }

    if !failures.is_empty() {
        return Err(failures);
    }

    // Counters and checksums only — no virtual times, which are
    // registration-order dependent at saturated sweep points (see the
    // module doc): two runs of one build are byte-identical.
    let cell_doc = |c: &Cell| {
        [
            ("nodes", Value::int(c.nodes)),
            ("workload", Value::str(c.workload)),
            ("topology", Value::str(c.topology)),
            ("checksum", Value::str(format!("{:#018x}", c.checksum))),
            ("barriers", Value::int(c.barriers)),
        ]
        .into_iter()
        .chain(COUNTERS.into_iter().zip(c.counters.map(Value::int)))
    };
    // Shown, not recorded: the derived rate and the virtual time.
    let shown = |c: &Cell| {
        let extra = [
            ("msgs_per_barrier", Value::num(c.per_barrier("sync_msgs"))),
            ("sim_ms", Value::num(c.sim_time_ns as f64 / 1e6)),
        ];
        Value::obj(cell_doc(c).chain(extra))
    };
    let table = Table::new(
        "Synchronization scalability: centralized vs scalable protocols",
        &["nodes", "workload", "topology", "barriers", "sync_msgs", "sync_records", "msgs_per_barrier", "sim_ms"],
        &cells.iter().map(shown).collect::<Vec<_>>(),
    );
    let doc = Value::obj([
        ("schema", Value::str("hamster-scale-v1")),
        ("sweep", Value::Arr(sweep.iter().map(|&n| Value::int(n)).collect())),
        ("cells", Value::Arr(cells.iter().map(|c| Value::obj(cell_doc(c))).collect())),
    ]);
    Ok(Report::new(doc, vec![table]).note(shares + "\nall scale gates passed"))
}
