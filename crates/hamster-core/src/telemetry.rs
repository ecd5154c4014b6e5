//! Request-level SLO telemetry for service workloads.
//!
//! The paper's §4.3 monitoring story stops at aggregate module
//! counters and offline traces. Service workloads (the `serve` bench's
//! multi-tenant KV store) need the production lens instead: per-tenant
//! request-latency quantiles (p50/p90/p99/p999) and a virtual-time
//! metrics timeseries — throughput, inflight requests, retries, and
//! view fences per window. [`Telemetry`] packages both on top of
//! [`sim::stats::Sketch`] and [`sim::stats::MetricsSeries`], plus a
//! `kv` trace lane so individual requests show up in Chrome traces
//! next to the protocol spans that explain their latency.
//!
//! Everything recorded here is integer virtual time folded through
//! commutative operations (bucket counts, window sums), so two runs
//! that perform the same requests produce byte-identical quantiles and
//! timeseries regardless of thread interleaving — the property the
//! serve artifact's run-twice `cmp` gate checks.
//!
//! A record writes nothing another node writes: each node folds into
//! its own shard (its `(tenant, op)` sketches and its own series, one
//! lock per record), created on its first record, and the readers merge
//! the shards. The same commutativity makes the merge exact — bucket-
//! and window-wise sums do not care which shard a sample landed in.

use sim::stats::{MetricId, MetricKind, MetricsRow, MetricsSeries, Quantiles, Sketch};
use std::sync::{Arc, OnceLock};

/// Shard slots: node `n` records into slot `n % SHARDS`.
const SHARDS: usize = 64;

/// A service request's operation kind, the `op` half of the
/// `(tenant, op)` latency key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceOp {
    /// A read (KV `get`).
    Get,
    /// A write (KV `put`).
    Put,
}

impl ServiceOp {
    /// The trace-lane / report name of the operation.
    pub fn name(self) -> &'static str {
        match self {
            ServiceOp::Get => "get",
            ServiceOp::Put => "put",
        }
    }

    fn index(self) -> usize {
        match self {
            ServiceOp::Get => 0,
            ServiceOp::Put => 1,
        }
    }
}

/// The series' metrics, registered in this order by every shard.
struct Metrics {
    /// Per-tenant completed-ops rate metric.
    ops: Vec<MetricId>,
    /// Requests in flight across all tenants (level gauge).
    inflight: MetricId,
    /// Fabric retries binned per window (from the `fault`/`retry`
    /// trace instants).
    retries: MetricId,
    /// View fences binned per window (from `fault`/`view_fence`).
    view_fences: MetricId,
}

impl Metrics {
    /// A fresh series with every metric registered, and their ids.
    fn register(tenants: usize, window_ns: u64) -> (MetricsSeries, Metrics) {
        let series = MetricsSeries::new(window_ns);
        let ops = (0..tenants)
            .map(|t| series.register(&format!("tenant{t}_ops"), MetricKind::Rate))
            .collect();
        let inflight = series.register("inflight", MetricKind::Level);
        let retries = series.register("retries", MetricKind::Rate);
        let view_fences = series.register("view_fences", MetricKind::Rate);
        (series, Metrics { ops, inflight, retries, view_fences })
    }
}

/// One node's fold of its requests.
struct Shard {
    /// `sketches[tenant][op]` — one sketch per `(tenant, op)` pair.
    sketches: Vec<[Sketch; 2]>,
    series: MetricsSeries,
}

struct Inner {
    tenants: usize,
    window_ns: u64,
    metrics: Metrics,
    /// Slot `n % SHARDS` is node `n`'s shard, created on its first record.
    shards: Box<[OnceLock<Shard>]>,
}

/// Shared SLO-telemetry handle: per-`(tenant, op)` latency sketches, a
/// windowed metrics timeseries, and `kv` trace-lane emission. Clones
/// share storage (like the [`sim::stats`] primitives it wraps), so the
/// workload records into the same state the bench harness reads.
#[derive(Clone)]
pub struct Telemetry {
    inner: Arc<Inner>,
}

impl Telemetry {
    /// Telemetry for `tenants` tenants with `window_ns`-wide
    /// virtual-time windows.
    pub fn new(tenants: usize, window_ns: u64) -> Self {
        assert!(tenants > 0, "at least one tenant");
        let (_, metrics) = Metrics::register(tenants, window_ns);
        Self {
            inner: Arc::new(Inner {
                tenants,
                window_ns,
                metrics,
                shards: (0..SHARDS).map(|_| OnceLock::new()).collect(),
            }),
        }
    }

    /// Number of tenants.
    pub fn tenants(&self) -> usize {
        self.inner.tenants
    }

    /// The timeseries window width in virtual nanoseconds.
    pub fn window_ns(&self) -> u64 {
        self.inner.window_ns
    }

    /// `node`'s shard, created on first use.
    fn shard(&self, node: usize) -> &Shard {
        let Inner { tenants, window_ns, .. } = *self.inner;
        self.inner.shards[node % SHARDS].get_or_init(|| Shard {
            sketches: (0..tenants).map(|_| [Sketch::new(), Sketch::new()]).collect(),
            series: Metrics::register(tenants, window_ns).0,
        })
    }

    /// The shards created so far, in slot order.
    fn shards(&self) -> impl Iterator<Item = &Shard> {
        self.inner.shards.iter().filter_map(OnceLock::get)
    }

    /// Every shard's sketches of `tenant` for `ops`, merged.
    fn merged(&self, tenant: usize, ops: &[ServiceOp]) -> Sketch {
        assert!(tenant < self.inner.tenants, "tenant {tenant} out of range");
        let all = Sketch::new();
        for shard in self.shards() {
            for op in ops {
                all.merge(&shard.sketches[tenant][op.index()]);
            }
        }
        all
    }

    /// Record one completed request: latency into the `(tenant, op)`
    /// sketch, throughput/inflight into the timeseries, and a `kv`
    /// trace span (visible when a [`sim::trace`] session is open).
    /// `corr` correlates the span with related protocol events; the
    /// span's `arg` is the tenant.
    pub fn record(
        &self,
        node: usize,
        tenant: usize,
        op: ServiceOp,
        start_ns: u64,
        end_ns: u64,
        corr: u64,
    ) {
        let dur = end_ns.saturating_sub(start_ns);
        let shard = self.shard(node);
        shard.sketches[tenant][op.index()].record(dur);
        let m = &self.inner.metrics;
        shard.series.add_all(&[
            (m.ops[tenant], end_ns, 1),
            (m.inflight, start_ns, 1),
            (m.inflight, end_ns, -1),
        ]);
        sim::trace::span_corr(start_ns, dur, node, "kv", op.name(), tenant as u64, corr);
    }

    /// Bin one fabric retry (a `fault`/`retry` trace instant) into the
    /// timeseries at `t_ns`. Fabric instants name no requesting node,
    /// so they bin into shard 0; the merge sums them all the same.
    pub fn add_retry(&self, t_ns: u64) {
        self.shard(0).series.add(self.inner.metrics.retries, t_ns, 1);
    }

    /// Bin one view fence (a `fault`/`view_fence` trace instant) into
    /// the timeseries at `t_ns` (shard 0, as [`Telemetry::add_retry`]).
    pub fn add_view_fence(&self, t_ns: u64) {
        self.shard(0).series.add(self.inner.metrics.view_fences, t_ns, 1);
    }

    /// Latency quantiles for one `(tenant, op)` pair.
    pub fn quantiles(&self, tenant: usize, op: ServiceOp) -> Quantiles {
        self.merged(tenant, &[op]).quantiles()
    }

    /// Latency quantiles for a tenant across both operations (the
    /// sketches merge bucket-wise, so this equals recording every
    /// sample into one sketch).
    pub fn tenant_quantiles(&self, tenant: usize) -> Quantiles {
        self.merged(tenant, &[ServiceOp::Get, ServiceOp::Put]).quantiles()
    }

    /// The resolved metrics timeseries: per-tenant ops, inflight,
    /// retries, and view fences per window, in registration order.
    pub fn series_rows(&self) -> Vec<MetricsRow> {
        let (all, _) = Metrics::register(self.inner.tenants, self.inner.window_ns);
        for shard in self.shards() {
            all.merge(&shard.series);
        }
        all.rows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_fold_into_sketches_and_series() {
        let t = Telemetry::new(2, 1_000);
        t.record(0, 0, ServiceOp::Get, 0, 500, 1);
        t.record(1, 0, ServiceOp::Get, 100, 700, 2);
        t.record(0, 1, ServiceOp::Put, 1_200, 3_400, 3);
        assert_eq!(t.quantiles(0, ServiceOp::Get).count, 2);
        assert_eq!(t.quantiles(0, ServiceOp::Put).count, 0);
        assert_eq!(t.tenant_quantiles(1).count, 1);
        assert_eq!(t.tenant_quantiles(1).max, 2_200);
        let rows = t.series_rows();
        assert_eq!(rows[0].name, "tenant0_ops");
        assert_eq!(rows[0].values, vec![2, 0, 0, 0]);
        assert_eq!(rows[1].values, vec![0, 0, 0, 1]);
        // Inflight level: both tenant-0 gets complete inside window 0;
        // the put spans windows 1..3.
        assert_eq!(rows[2].name, "inflight");
        assert_eq!(rows[2].values, vec![0, 1, 1, 0]);
    }

    #[test]
    fn fault_instants_bin_per_window() {
        let t = Telemetry::new(1, 100);
        t.add_retry(50);
        t.add_retry(250);
        t.add_view_fence(250);
        let rows = t.series_rows();
        let retries = rows.iter().find(|r| r.name == "retries").unwrap();
        assert_eq!(retries.values, vec![1, 0, 1]);
        let fences = rows.iter().find(|r| r.name == "view_fences").unwrap();
        assert_eq!(fences.values, vec![0, 0, 1]);
    }

    #[test]
    fn clones_share_state() {
        let t = Telemetry::new(1, 100);
        let u = t.clone();
        u.record(0, 0, ServiceOp::Get, 0, 10, 0);
        assert_eq!(t.quantiles(0, ServiceOp::Get).count, 1);
    }

    #[test]
    fn sharded_records_read_as_one_unsharded_fold() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        const TENANTS: usize = 3;
        const WINDOW: u64 = 1_000;
        let mut rng = StdRng::seed_from_u64(28);
        // Nodes past the slot count share a shard; short latencies keep
        // some rows shorter than others, so the padding is exercised.
        let mut records: Vec<_> = (0..4_000)
            .map(|i| {
                let start = rng.gen_range(0..50_000u64);
                let op = if rng.gen_range(0..2) == 0 { ServiceOp::Get } else { ServiceOp::Put };
                let tenant = if i % 7 == 0 { 2 } else { rng.gen_range(0..2) };
                let node = rng.gen_range(0..2 * SHARDS);
                (node, tenant, op, start, start + rng.gen_range(0..20_000u64))
            })
            .collect();
        for i in (1..records.len()).rev() {
            records.swap(i, rng.gen_range(0..i + 1));
        }
        let retries: Vec<u64> = (0..50).map(|_| rng.gen_range(0..80_000)).collect();

        // The unsharded fold: one sketch per (tenant, op), one series,
        // three adds per record.
        let (series, m) = Metrics::register(TENANTS, WINDOW);
        let sketches: Vec<[Sketch; 2]> =
            (0..TENANTS).map(|_| [Sketch::new(), Sketch::new()]).collect();
        for &(_, tenant, op, start, end) in &records {
            sketches[tenant][op.index()].record(end - start);
            series.add(m.ops[tenant], end, 1);
            series.add(m.inflight, start, 1);
            series.add(m.inflight, end, -1);
        }
        for &t in &retries {
            series.add(m.retries, t, 1);
        }

        let tel = Telemetry::new(TENANTS, WINDOW);
        std::thread::scope(|s| {
            for part in records.chunks(records.len() / 4) {
                let tel = &tel;
                s.spawn(move || {
                    for (i, &(node, tenant, op, start, end)) in part.iter().enumerate() {
                        tel.record(node, tenant, op, start, end, i as u64);
                    }
                });
            }
        });
        retries.iter().for_each(|&t| tel.add_retry(t));

        for (tenant, pair) in sketches.iter().enumerate() {
            for op in [ServiceOp::Get, ServiceOp::Put] {
                assert_eq!(tel.quantiles(tenant, op), pair[op.index()].quantiles());
            }
            let all = Sketch::new();
            pair.iter().for_each(|s| all.merge(s));
            assert_eq!(tel.tenant_quantiles(tenant), all.quantiles());
        }
        let rows = tel.series_rows();
        assert_eq!(rows, series.rows());
        assert!(rows.iter().all(|r| r.values.len() == series.windows()));
    }
}
