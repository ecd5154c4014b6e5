//! Named atomic counters: the substrate of HAMSTER's performance
//! monitoring (paper §4.3).
//!
//! Each HAMSTER management module owns a [`StatSet`]; the module exposes
//! query/reset services on top of it. Counters are independent of the base
//! architecture: the modules increment them in software regardless of what
//! the platform provides.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One monotonically increasing statistic.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Reset to zero, returning the previous value.
    pub fn reset(&self) -> u64 {
        self.value.swap(0, Ordering::Relaxed)
    }
}

/// Position of `name` in `names`, for resolving a hot-path counter to
/// its [`StatSet::at`] index once, at compile time:
///
/// ```
/// const NAMES: &[&str] = &["reads", "writes"];
/// const WRITES: usize = sim::stats::stat_index(NAMES, "writes");
/// assert_eq!(WRITES, 1);
/// ```
///
/// Evaluated in a `const`, a name missing from the list fails to
/// compile instead of panicking in [`StatSet::add`] at run time.
pub const fn stat_index(names: &[&str], name: &str) -> usize {
    let mut i = 0;
    while i < names.len() {
        let (a, b) = (names[i].as_bytes(), name.as_bytes());
        let mut same = a.len() == b.len();
        let mut j = 0;
        while same && j < a.len() {
            same = a[j] == b[j];
            j += 1;
        }
        if same {
            return i;
        }
        i += 1;
    }
    panic!("counter name not in the declared list")
}

/// A named set of counters belonging to one module.
///
/// The set is fixed at construction: modules declare their statistics up
/// front so that lookups on the hot path are an index, not a hash
/// (resolved at compile time with [`stat_index`]).
#[derive(Debug, Clone)]
pub struct StatSet {
    names: Arc<Vec<&'static str>>,
    counters: Arc<Vec<Counter>>,
}

impl StatSet {
    /// Build a set with the given counter names. Names must be unique.
    pub fn new(names: &[&'static str]) -> Self {
        let mut seen = std::collections::BTreeSet::new();
        for n in names {
            assert!(seen.insert(*n), "duplicate counter name {n:?}");
        }
        Self {
            names: Arc::new(names.to_vec()),
            counters: Arc::new(names.iter().map(|_| Counter::new()).collect()),
        }
    }

    /// Number of counters in the set.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if the set has no counters.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Index of a named counter, if present.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| *n == name)
    }

    /// Counter at a known index (hot path).
    #[inline]
    pub fn at(&self, idx: usize) -> &Counter {
        &self.counters[idx]
    }

    /// Add `n` to the named counter. Panics on unknown names: statistics
    /// are declared at module construction, so an unknown name is a bug.
    pub fn add(&self, name: &str, n: u64) {
        let idx = self
            .index_of(name)
            .unwrap_or_else(|| panic!("unknown counter {name:?}"));
        self.counters[idx].add(n);
    }

    /// Read the named counter.
    pub fn get(&self, name: &str) -> u64 {
        let idx = self
            .index_of(name)
            .unwrap_or_else(|| panic!("unknown counter {name:?}"));
        self.counters[idx].get()
    }

    /// Snapshot all counters as a name → value map (the module's
    /// query-statistics service).
    pub fn snapshot(&self) -> BTreeMap<&'static str, u64> {
        self.names
            .iter()
            .zip(self.counters.iter())
            .map(|(n, c)| (*n, c.get()))
            .collect()
    }

    /// Reset every counter to zero (the module's reset service).
    pub fn reset_all(&self) {
        for c in self.counters.iter() {
            c.reset();
        }
    }
}

/// Summary quantiles reported by [`Sketch::quantiles`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Quantiles {
    /// Number of recorded samples.
    pub count: u64,
    /// Median (upper bucket bound).
    pub p50: u64,
    /// 90th percentile (upper bucket bound).
    pub p90: u64,
    /// 99th percentile (upper bucket bound).
    pub p99: u64,
    /// 99.9th percentile (upper bucket bound).
    pub p999: u64,
    /// Exact maximum sample.
    pub max: u64,
    /// Mean sample (sum / count, integer division).
    pub mean: u64,
}

/// Precision bits of a [`Sketch`]: each power-of-two octave is split
/// into `2^SKETCH_PRECISION` sub-buckets, bounding the relative error
/// of a reported quantile by `2^-SKETCH_PRECISION` (~3%).
const SKETCH_PRECISION: u32 = 5;

/// Sub-buckets per octave (`2^SKETCH_PRECISION`).
const SKETCH_SUB: u64 = 1 << SKETCH_PRECISION;

/// Total bucket count: values below `SKETCH_SUB` get exact unit
/// buckets; each of the remaining 59 octaves gets `SKETCH_SUB`
/// sub-buckets (the top index for `u64::MAX` is `59 * 32 + 31`).
const SKETCH_BUCKETS: usize = 60 * SKETCH_SUB as usize;

/// A deterministic streaming quantile sketch: a log-linear (HDR-style)
/// fixed-bucket histogram, lock-free, for virtual-nanosecond latencies
/// on protocol hot paths and for request-latency SLO telemetry.
///
/// Every power-of-two octave is split into 32 sub-buckets, so a
/// reported p50/p90/p99/p999 is the exact upper bound of a bucket within
/// ~3% of the true sample; the exact maximum is tracked separately. All
/// state is integer bucket counts; recording is commutative
/// (bucket-wise addition), so the same multiset of samples yields
/// byte-identical quantiles regardless of arrival order or thread
/// interleaving — the property the serve bench's byte-reproducible
/// artifacts rely on.
///
/// Clones share the underlying storage, like [`StatSet`], so a module
/// can hand a cheap handle to its monitor while continuing to record.
///
/// ```
/// use sim::stats::Sketch;
/// let s = Sketch::new();
/// for v in 1..=1000u64 {
///     s.record(v);
/// }
/// let q = s.quantiles();
/// assert_eq!(q.count, 1000);
/// assert_eq!(q.max, 1000);
/// // Log-linear buckets: within ~3% above the true quantile.
/// assert!(q.p50 >= 500 && q.p50 <= 516, "p50 = {}", q.p50);
/// assert!(q.p99 >= 990 && q.p99 <= 1000, "p99 = {}", q.p99);
/// ```
#[derive(Debug, Clone)]
pub struct Sketch {
    buckets: Arc<Vec<Counter>>,
    /// Exact running maximum.
    max: Arc<AtomicU64>,
    /// Sum of all samples, for mean computation.
    sum: Arc<AtomicU64>,
}

impl Default for Sketch {
    fn default() -> Self {
        Self::new()
    }
}

impl Sketch {
    /// An empty sketch.
    pub fn new() -> Self {
        Self {
            buckets: Arc::new((0..SKETCH_BUCKETS).map(|_| Counter::new()).collect()),
            max: Arc::new(AtomicU64::new(0)),
            sum: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Bucket index for a sample: exact below `SKETCH_SUB`, then
    /// `(msb - 4) * 32 + 5-bit-mantissa` (log-linear).
    #[inline]
    fn bucket(v: u64) -> usize {
        if v < SKETCH_SUB {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros(); // >= SKETCH_PRECISION here
        let shift = msb - SKETCH_PRECISION;
        let mantissa = (v >> shift) & (SKETCH_SUB - 1);
        ((msb - SKETCH_PRECISION + 1) as u64 * SKETCH_SUB + mantissa) as usize
    }

    /// Upper bound of bucket `i` (the largest value it can hold).
    fn bucket_bound(i: usize) -> u64 {
        let i = i as u64;
        if i < SKETCH_SUB {
            return i;
        }
        let msb = (i / SKETCH_SUB) as u32 + SKETCH_PRECISION - 1;
        let mantissa = i % SKETCH_SUB;
        let shift = msb - SKETCH_PRECISION;
        let bound = (1u128 << msb) + ((mantissa as u128 + 1) << shift) - 1;
        bound.min(u64::MAX as u128) as u64
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket(v)].add(1);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|c| c.get()).sum()
    }

    /// Fold another sketch's buckets into this one (bucket-wise
    /// addition — commutative, so merge order never shows in the
    /// resulting quantiles).
    pub fn merge(&self, other: &Sketch) {
        for (b, o) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = o.get();
            if n > 0 {
                b.add(n);
            }
        }
        self.sum.fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max.fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Compute summary quantiles over everything recorded so far.
    /// Reported values are exact bucket upper bounds clamped to the
    /// exact maximum, so they are byte-stable across reorderings.
    pub fn quantiles(&self) -> Quantiles {
        let counts: Vec<u64> = self.buckets.iter().map(|c| c.get()).collect();
        let count: u64 = counts.iter().sum();
        if count == 0 {
            return Quantiles::default();
        }
        let rank = |num: u64, den: u64| count.saturating_mul(num).div_ceil(den).max(1);
        let at = |target_rank: u64| {
            let mut seen = 0u64;
            for (i, c) in counts.iter().enumerate() {
                seen += c;
                if seen >= target_rank {
                    return Self::bucket_bound(i);
                }
            }
            Self::bucket_bound(SKETCH_BUCKETS - 1)
        };
        let max = self.max.load(Ordering::Relaxed);
        Quantiles {
            count,
            p50: at(rank(50, 100)).min(max),
            p90: at(rank(90, 100)).min(max),
            p99: at(rank(99, 100)).min(max),
            p999: at(rank(999, 1000)).min(max),
            max,
            mean: self.sum.load(Ordering::Relaxed) / count,
        }
    }

    /// Reset all buckets, the sum, and the maximum to zero.
    pub fn reset(&self) {
        for c in self.buckets.iter() {
            c.reset();
        }
        self.max.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
    }
}

/// How a [`MetricsSeries`] metric is folded into windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Per-window sum of deltas (throughput, retries, fences): the
    /// reported value for window `w` is the sum of all deltas whose
    /// timestamp falls in `w`.
    Rate,
    /// Running level sampled at window close (inflight requests):
    /// deltas are `+1`/`-1` events and the reported value for window
    /// `w` is the prefix sum of every delta up to the end of `w`.
    Level,
}

/// Handle to one registered [`MetricsSeries`] metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricId(usize);

/// One metric's resolved timeseries, as returned by
/// [`MetricsSeries::rows`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsRow {
    /// Registered metric name.
    pub name: String,
    /// How the per-window values were folded.
    pub kind: MetricKind,
    /// One value per window, resolved per [`MetricKind`] and padded
    /// with trailing windows so every row has the same length.
    pub values: Vec<i64>,
}

#[derive(Debug)]
struct MetricData {
    name: String,
    kind: MetricKind,
    /// Per-window delta sums (raw; resolved per kind at read time).
    deltas: Vec<i64>,
}

/// A virtual-time metrics timeseries: registered counters/gauges
/// snapshotted into fixed-width virtual-time windows.
///
/// Events are attributed to window `t_ns / window_ns`; within a window
/// only the delta *sum* is kept, and addition commutes, so the series
/// is byte-reproducible for any thread interleaving that delivers the
/// same (timestamp, delta) multiset — the same determinism argument as
/// [`Sketch`]. All values are integers; no wall-clock sampling is
/// involved anywhere.
///
/// Clones share the underlying storage.
///
/// ```
/// use sim::stats::{MetricKind, MetricsSeries};
/// let m = MetricsSeries::new(1_000_000); // 1 ms windows
/// let ops = m.register("ops", MetricKind::Rate);
/// let inflight = m.register("inflight", MetricKind::Level);
/// m.add(ops, 100, 1);
/// m.add(inflight, 100, 1);
/// m.add(ops, 1_500_000, 1);
/// m.add(inflight, 1_500_000, -1);
/// let rows = m.rows();
/// assert_eq!(rows[0].values, vec![1, 1]); // one op per window
/// assert_eq!(rows[1].values, vec![1, 0]); // level at window close
/// ```
#[derive(Debug, Clone)]
pub struct MetricsSeries {
    window_ns: u64,
    metrics: Arc<std::sync::Mutex<Vec<MetricData>>>,
}

impl MetricsSeries {
    /// A series with the given virtual-time window width (must be
    /// non-zero).
    pub fn new(window_ns: u64) -> Self {
        assert!(window_ns > 0, "window width must be non-zero");
        Self { window_ns, metrics: Arc::new(std::sync::Mutex::new(Vec::new())) }
    }

    /// The window width in virtual nanoseconds.
    pub fn window_ns(&self) -> u64 {
        self.window_ns
    }

    /// Register a metric. Names should be unique; registration order
    /// fixes the order of [`MetricsSeries::rows`].
    pub fn register(&self, name: &str, kind: MetricKind) -> MetricId {
        let mut m = self.metrics.lock().unwrap();
        assert!(m.iter().all(|d| d.name != name), "duplicate metric name {name:?}");
        m.push(MetricData { name: name.to_string(), kind, deltas: Vec::new() });
        MetricId(m.len() - 1)
    }

    /// Record a delta for `id` at virtual time `t_ns`.
    pub fn add(&self, id: MetricId, t_ns: u64, delta: i64) {
        self.add_all(&[(id, t_ns, delta)]);
    }

    /// Record several `(metric, t_ns, delta)` events under one lock
    /// acquisition — the same as one [`MetricsSeries::add`] each.
    pub fn add_all(&self, events: &[(MetricId, u64, i64)]) {
        let mut m = self.metrics.lock().unwrap();
        for &(id, t_ns, delta) in events {
            let w = (t_ns / self.window_ns) as usize;
            let d = &mut m[id.0].deltas;
            if d.len() <= w {
                d.resize(w + 1, 0);
            }
            d[w] += delta;
        }
    }

    /// Fold another series' deltas into this one, window by window.
    /// Both must have registered the same metrics in the same order and
    /// share a window width. Addition commutes, so merged rows equal
    /// those of one series that saw every event.
    pub fn merge(&self, other: &MetricsSeries) {
        assert_eq!(self.window_ns, other.window_ns, "merging series of different windows");
        assert!(!Arc::ptr_eq(&self.metrics, &other.metrics), "merging a series into itself");
        let theirs = other.metrics.lock().unwrap();
        let mut mine = self.metrics.lock().unwrap();
        assert!(
            mine.len() == theirs.len()
                && mine.iter().zip(theirs.iter()).all(|(a, b)| a.name == b.name),
            "merging series with different metrics"
        );
        for (d, o) in mine.iter_mut().zip(theirs.iter()) {
            if d.deltas.len() < o.deltas.len() {
                d.deltas.resize(o.deltas.len(), 0);
            }
            for (a, b) in d.deltas.iter_mut().zip(&o.deltas) {
                *a += b;
            }
        }
    }

    /// Number of windows the series spans (the latest window any
    /// metric touched, plus one; zero when nothing was recorded).
    pub fn windows(&self) -> usize {
        self.metrics.lock().unwrap().iter().map(|d| d.deltas.len()).max().unwrap_or(0)
    }

    /// Resolve every metric into a same-length per-window series, in
    /// registration order (deterministic).
    pub fn rows(&self) -> Vec<MetricsRow> {
        let m = self.metrics.lock().unwrap();
        let windows = m.iter().map(|d| d.deltas.len()).max().unwrap_or(0);
        m.iter()
            .map(|d| {
                let mut level = 0i64;
                let values = (0..windows)
                    .map(|w| {
                        let delta = d.deltas.get(w).copied().unwrap_or(0);
                        level += delta;
                        match d.kind {
                            MetricKind::Rate => delta,
                            MetricKind::Level => level,
                        }
                    })
                    .collect();
                MetricsRow { name: d.name.clone(), kind: d.kind, values }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_add_get_reset() {
        let c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(c.reset(), 5);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn statset_named_access() {
        let s = StatSet::new(&["page_faults", "diffs_sent"]);
        s.add("page_faults", 3);
        s.add("diffs_sent", 1);
        assert_eq!(s.get("page_faults"), 3);
        assert_eq!(s.get("diffs_sent"), 1);
    }

    #[test]
    fn snapshot_and_reset() {
        let s = StatSet::new(&["a", "b"]);
        s.add("a", 2);
        let snap = s.snapshot();
        assert_eq!(snap["a"], 2);
        assert_eq!(snap["b"], 0);
        s.reset_all();
        assert_eq!(s.get("a"), 0);
    }

    #[test]
    #[should_panic(expected = "unknown counter")]
    fn unknown_name_panics() {
        let s = StatSet::new(&["a"]);
        s.add("nope", 1);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_names_rejected() {
        let _ = StatSet::new(&["a", "a"]);
    }

    #[test]
    fn clone_shares_counters() {
        let s = StatSet::new(&["a"]);
        let t = s.clone();
        s.add("a", 1);
        assert_eq!(t.get("a"), 1);
    }

    #[test]
    fn sketch_buckets_are_monotonic_and_bounds_contain_samples() {
        // Every representative value lands in a bucket whose bound is
        // >= the value, and bucket indices never decrease with v.
        let mut vals: Vec<u64> = (0..64u32)
            .flat_map(|s| [0u64, 1, 3].map(|off| (1u64 << s).saturating_add(off)))
            .collect();
        vals.sort_unstable();
        let mut prev = 0usize;
        for v in vals {
            let b = Sketch::bucket(v);
            assert!(b >= prev, "bucket({v}) = {b} < {prev}");
            let bound = Sketch::bucket_bound(b);
            assert!(bound >= v, "bound(bucket({v})) = {bound} too small");
            // Log-linear precision: the bound overshoots the sample by
            // at most one sub-bucket, i.e. a factor of 1 + 2/32.
            assert!(bound as u128 * 32 <= v as u128 * 34 + 32, "bound({v}) = {bound}");
            prev = b;
        }
        assert_eq!(Sketch::bucket(u64::MAX), SKETCH_BUCKETS - 1);
        assert_eq!(Sketch::bucket_bound(SKETCH_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn sketch_quantiles_are_ordered_and_within_a_sub_bucket_of_the_truth() {
        let s = Sketch::new();
        assert_eq!(s.quantiles(), Quantiles::default());
        s.record(1000);
        // One sample: every quantile is that sample (its bucket's bound
        // clamps to the exact maximum).
        let q = s.quantiles();
        assert_eq!((q.count, q.p50, q.p999, q.max, q.mean), (1, 1000, 1000, 1000, 1000));
        s.reset();
        for v in 1..=10_000u64 {
            s.record(v);
        }
        let q = s.quantiles();
        assert!(q.p50 <= q.p90 && q.p90 <= q.p99 && q.p99 <= q.p999 && q.p999 <= q.max);
        for (got, truth) in [(q.p50, 5_000), (q.p90, 9_000), (q.p99, 9_900), (q.p999, 9_990)] {
            assert!(got >= truth && got * 32 <= truth * 33, "{got} vs true {truth}");
        }
    }

    #[test]
    fn sketch_small_values_are_exact() {
        let s = Sketch::new();
        for v in 0..SKETCH_SUB {
            s.record(v);
        }
        // Rank-16 sample of 0..=31 is the value 15, reported exactly.
        assert_eq!(s.quantiles().p50, SKETCH_SUB / 2 - 1);
        assert_eq!(s.quantiles().max, SKETCH_SUB - 1);
    }

    #[test]
    fn sketch_quantiles_are_order_independent() {
        let a = Sketch::new();
        let b = Sketch::new();
        let vals: Vec<u64> = (0..5000u64).map(|i| (i * 2654435761) % 1_000_000).collect();
        for v in &vals {
            a.record(*v);
        }
        for v in vals.iter().rev() {
            b.record(*v);
        }
        assert_eq!(a.quantiles(), b.quantiles());
    }

    #[test]
    fn sketch_merge_equals_recording_everything_in_one() {
        let all = Sketch::new();
        let left = Sketch::new();
        let right = Sketch::new();
        for v in 1..=1000u64 {
            all.record(v * 7);
            if v % 2 == 0 { left.record(v * 7) } else { right.record(v * 7) }
        }
        let merged = Sketch::new();
        merged.merge(&left);
        merged.merge(&right);
        assert_eq!(merged.quantiles(), all.quantiles());
    }

    #[test]
    fn sketch_reset_and_shared_clone() {
        let s = Sketch::new();
        let t = s.clone();
        s.record(123);
        assert_eq!(t.count(), 1);
        t.reset();
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantiles(), Quantiles::default());
    }

    #[test]
    fn metrics_series_rate_and_level_resolution() {
        let m = MetricsSeries::new(1000);
        let ops = m.register("ops", MetricKind::Rate);
        let inflight = m.register("inflight", MetricKind::Level);
        m.add(ops, 0, 1);
        m.add(ops, 999, 1);
        m.add(ops, 2500, 1);
        m.add(inflight, 0, 1);
        m.add(inflight, 500, 1);
        m.add(inflight, 2500, -1);
        let rows = m.rows();
        assert_eq!(m.windows(), 3);
        assert_eq!(rows[0].name, "ops");
        assert_eq!(rows[0].values, vec![2, 0, 1]);
        assert_eq!(rows[1].values, vec![2, 2, 1]);
    }

    #[test]
    fn metrics_series_is_order_independent_and_shared() {
        let m = MetricsSeries::new(100);
        let id = m.register("r", MetricKind::Rate);
        let n = m.clone();
        n.add(id, 950, 3);
        m.add(id, 10, 1);
        m.add(id, 950, 2);
        assert_eq!(m.rows()[0].values, vec![1, 0, 0, 0, 0, 0, 0, 0, 0, 5]);
    }

    #[test]
    fn metrics_series_batched_adds_and_merge_equal_single_adds() {
        let series = || {
            let m = MetricsSeries::new(100);
            (m.register("ops", MetricKind::Rate), m.register("inflight", MetricKind::Level), m)
        };
        let (ops, inflight, one) = series();
        let (_, _, left) = series();
        let (_, _, right) = series();
        let events = [(ops, 950, 1), (inflight, 10, 1), (inflight, 950, -1), (ops, 20, 2)];
        for &(id, t, d) in &events {
            one.add(id, t, d);
        }
        left.add_all(&events[..1]);
        right.add_all(&events[1..]);
        let merged = series().2;
        merged.merge(&left);
        merged.merge(&right);
        assert_eq!(merged.rows(), one.rows());
        assert_eq!(merged.windows(), 10);
    }

    #[test]
    fn stat_index_finds_declared_names() {
        const NAMES: &[&str] = &["a", "ab", "b"];
        const AB: usize = stat_index(NAMES, "ab");
        assert_eq!((stat_index(NAMES, "a"), AB, stat_index(NAMES, "b")), (0, 1, 2));
    }

    #[test]
    #[should_panic(expected = "not in the declared list")]
    fn stat_index_of_an_undeclared_name_panics() {
        stat_index(&["a"], "nope");
    }

    #[test]
    #[should_panic(expected = "duplicate metric name")]
    fn metrics_series_duplicate_names_rejected() {
        let m = MetricsSeries::new(10);
        m.register("x", MetricKind::Rate);
        m.register("x", MetricKind::Level);
    }

    #[test]
    fn concurrent_increments_are_counted() {
        let s = StatSet::new(&["hits"]);
        std::thread::scope(|sc| {
            for _ in 0..4 {
                let s = s.clone();
                sc.spawn(move || {
                    for _ in 0..1000 {
                        s.add("hits", 1);
                    }
                });
            }
        });
        assert_eq!(s.get("hits"), 4000);
    }
}
