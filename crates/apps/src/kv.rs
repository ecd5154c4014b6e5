//! A sharded multi-tenant KV/session store on the HAMSTER memory,
//! synchronization, and consistency services — the repo's first
//! *service* workload (ROADMAP item 1).
//!
//! Where the paper's SPLASH-style kernels measure makespan, a KV store
//! is read as *request latency*: every `get`/`put` is timed per
//! `(tenant, op)` into SLO telemetry sketches
//! ([`hamster_core::Telemetry`]), with seeded zipfian keys, per-tenant
//! read/write mixes, and open-loop or closed-loop generators
//! multiplexing thousands of simulated clients per node.
//!
//! ## Determinism design
//!
//! The store must stay byte-reproducible on the software DSM, whose
//! deterministic regime requires that a page receiving diffs in a
//! barrier interval is never read in that same interval, and that each
//! page has a single writer per interval. Three choices guarantee both:
//!
//! * **Double-buffered epochs.** The store keeps two page-aligned
//!   copies. Service runs in barrier-separated *rounds*; in round `r`,
//!   all `put`s land in the staging copy (`r % 2`) while all `get`s
//!   read the committed copy (`(r+1) % 2`). Reads and writes are
//!   page-disjoint in every interval.
//! * **Write-log replay.** At the start of round `r` each node replays
//!   its round-`r-1` writes into the staging copy, so the buffer a
//!   round commits always holds *every* write up to that round — a
//!   `get` in round `r` observes state through round `r-1` on every
//!   platform (SMP, hybrid, SW-DSM alike).
//! * **Sharded writers.** Key partition `p` is written only by node
//!   `(p+1) % nodes` (deliberately *not* the partition's page home, so
//!   writes exercise the remote protocol). `get`s hit any partition.
//!
//! Cross-node and cross-platform correctness is checked by checksum:
//! each node folds its observed `get` values into a digest, publishes
//! it in shared memory, and every node folds all digests plus a final
//! store sample — [`BenchResult::merge`] asserts the nodes agree, and
//! the serve bench asserts the platforms agree.
//!
//! ## Key generator
//!
//! Keys are drawn by inverting a zipfian CDF: one uniform `u` per draw,
//! mapped to the first rank whose CDF is at least `u`. A guide table
//! (Chen & Asau) makes the inversion O(1): `n` buckets, bucket `b`
//! holding the first rank whose CDF is at least `b/n`, so a draw starts
//! at bucket `⌊u·n⌋` and scans forward a rank or two. With `n` a power
//! of two, `u·n` and `b/n` are exact, and the lookup returns exactly the
//! rank a binary search over the CDF would.
//!
//! Tables are built once per process per `(n, θ)` and shared by every
//! node's generator, run after run. The memo cannot carry state from
//! one run into the next: an entry is a pure function of its key and
//! never changes once built, so a draw is the same whether the table was
//! built by this run, by an earlier one or by another node.

use crate::report::BenchResult;
use crate::world::World;
use hamster_core::{PhaseTimer, ServiceOp, Telemetry};
use memwire::{Distribution, GlobalAddr, PAGE_SIZE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::{Arc, Mutex};

/// Bytes per KV slot (one cache line: an 8-byte value plus session
/// payload padding).
pub const SLOT_BYTES: usize = 64;

/// Per-tenant traffic profile: `(share, read_pct, zipf_theta)`. Tenant
/// `t` uses entry `t % 3` — a latency-sensitive read-heavy tenant, a
/// mixed session tenant, and a write-heavy ingest tenant.
const TENANT_MIX: [(u64, u32, f64); 3] = [(50, 95, 0.99), (30, 70, 0.80), (20, 50, 0.60)];

/// How requests are paced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadGen {
    /// Open loop: a seeded arrival schedule fixed in advance; a busy
    /// node queues requests, so latency includes the backlog (the SLO
    /// view of overload and fault stalls).
    OpenLoop,
    /// Closed loop: each simulated client issues, waits for completion,
    /// thinks, and issues again; load adapts to service speed.
    ClosedLoop,
}

/// KV service workload configuration.
#[derive(Debug, Clone)]
pub struct KvConfig {
    /// Keys per partition (one partition per node). Must be a power of
    /// two and a multiple of 64 so partitions are page-aligned under
    /// [`Distribution::Block`].
    pub keys_per_part: usize,
    /// Barrier-separated service rounds (commit epochs).
    pub rounds: usize,
    /// Requests served per node per round.
    pub batch: usize,
    /// Simulated clients multiplexed on each node.
    pub clients: usize,
    /// Number of tenants (profiles cycle through a fixed mix table).
    pub tenants: usize,
    /// Seed for every generator stream.
    pub seed: u64,
    /// Request pacing discipline.
    pub load: LoadGen,
    /// Open loop: mean virtual interarrival per node, ns.
    pub arrival_ns: u64,
    /// Closed loop: mean client think time, ns.
    pub think_ns: u64,
    /// CPU cost charged per request (parse/hash/serialize), ns.
    pub service_ns: u64,
}

impl KvConfig {
    /// The paper-scale configuration (per-node partitions of 1024 keys,
    /// 12 rounds of 500 requests per node).
    pub fn paper() -> Self {
        Self {
            keys_per_part: 1024,
            rounds: 12,
            batch: 500,
            clients: 2000,
            tenants: 3,
            seed: 42,
            load: LoadGen::OpenLoop,
            arrival_ns: 5_000,
            think_ns: 200_000,
            service_ns: 2_000,
        }
    }

    /// CI-sized: same shape, smaller counts.
    pub fn quick() -> Self {
        Self { keys_per_part: 256, rounds: 6, batch: 200, clients: 500, ..Self::paper() }
    }

    /// Total keys across all partitions on an `n`-node cluster.
    pub fn total_keys(&self, nodes: usize) -> usize {
        self.keys_per_part * nodes
    }

    /// The tenant profile table entry for tenant `t`.
    pub fn tenant_profile(t: usize) -> (u64, u32, f64) {
        TENANT_MIX[t % TENANT_MIX.len()]
    }
}

/// Seeded zipfian sampler over `n` ranks (`n` a power of two): an
/// inverse CDF read through a guide table, then a multiplicative
/// permutation so hot ranks spread across partitions. Immutable once
/// built; [`Zipf::shared`] hands out one table per `(n, θ)` per process.
struct Zipf {
    cdf: Vec<f64>,
    /// `guide[b]`: the first rank whose CDF is at least `b/n` (capped
    /// at `mask`), so a draw `u` never needs a rank below
    /// `guide[⌊u·n⌋]`.
    guide: Vec<u32>,
    mask: usize,
}

impl Zipf {
    fn new(n: usize, theta: f64) -> Self {
        assert!(n.is_power_of_two() && u32::try_from(n - 1).is_ok());
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        // One sweep: the bucket edges `b/n` rise, so the rank only
        // moves forward.
        let mask = n - 1;
        let mut rank = 0;
        let guide = (0..n)
            .map(|b| {
                let edge = b as f64 / n as f64;
                while rank < mask && cdf[rank] < edge {
                    rank += 1;
                }
                rank as u32
            })
            .collect();
        Self { cdf, guide, mask }
    }

    /// The process-wide table for `(n, θ)`, built on first use.
    fn shared(n: usize, theta: f64) -> Arc<Zipf> {
        static TABLES: Mutex<BTreeMap<(usize, u64), Arc<Zipf>>> = Mutex::new(BTreeMap::new());
        let mut tables = TABLES.lock().unwrap();
        Arc::clone(
            tables.entry((n, theta.to_bits())).or_insert_with(|| Arc::new(Zipf::new(n, theta))),
        )
    }

    /// The first rank whose CDF is at least `u` (capped at `mask`) —
    /// `cdf.partition_point(|c| *c < u).min(mask)` — for `u` in `[0, 1)`.
    fn rank_of(&self, u: f64) -> usize {
        let mut rank = self.guide[(u * self.guide.len() as f64) as usize] as usize;
        while rank < self.mask && self.cdf[rank] < u {
            rank += 1;
        }
        rank
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let rank = self.rank_of(rng.gen());
        // Odd multiplier over a power-of-two domain is a bijection.
        rank.wrapping_mul(0x9E37_79B1) & self.mask
    }
}

/// splitmix64 finalizer: the value function for initial and written
/// records (platform-independent, so checksums can compare platforms).
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Serialize a slot record: value word followed by a deterministic
/// session payload.
fn record_bytes(key: usize, value: u64) -> [u8; SLOT_BYTES] {
    let mut b = [0u8; SLOT_BYTES];
    b[..8].copy_from_slice(&value.to_le_bytes());
    b[8..16].copy_from_slice(&(key as u64).to_le_bytes());
    b
}

/// One generated request.
struct Op {
    tenant: usize,
    is_get: bool,
    key: usize,
}

/// Per-node request-content generator (tenant mix, op mix, zipf keys).
struct OpGen {
    rng: StdRng,
    /// Global-key zipf per tenant (gets roam the whole store).
    get_keys: Vec<Arc<Zipf>>,
    /// Partition-local zipf per tenant (puts stay in the write shard).
    put_keys: Vec<Arc<Zipf>>,
    /// Cumulative tenant share for weighted selection.
    shares: Vec<u64>,
    write_part: usize,
    keys_per_part: usize,
}

impl OpGen {
    fn new(cfg: &KvConfig, nodes: usize, me: usize) -> Self {
        let total = cfg.total_keys(nodes);
        let mut shares = Vec::new();
        let mut acc = 0;
        let mut get_keys = Vec::new();
        let mut put_keys = Vec::new();
        for t in 0..cfg.tenants {
            let (share, _, theta) = KvConfig::tenant_profile(t);
            acc += share;
            shares.push(acc);
            get_keys.push(Zipf::shared(total, theta));
            put_keys.push(Zipf::shared(cfg.keys_per_part, theta));
        }
        Self {
            rng: StdRng::seed_from_u64(
                cfg.seed ^ (me as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ),
            get_keys,
            put_keys,
            shares,
            write_part: (me + nodes - 1) % nodes,
            keys_per_part: cfg.keys_per_part,
        }
    }

    fn next(&mut self) -> Op {
        let pick = self.rng.gen_range(0..*self.shares.last().unwrap());
        let tenant = self.shares.partition_point(|s| *s <= pick);
        let (_, read_pct, _) = KvConfig::tenant_profile(tenant);
        let is_get = self.rng.gen_range(0u32..100) < read_pct;
        let key = if is_get {
            self.get_keys[tenant].sample(&mut self.rng)
        } else {
            self.write_part * self.keys_per_part + self.put_keys[tenant].sample(&mut self.rng)
        };
        Op { tenant, is_get, key }
    }
}

/// Run the KV service workload, recording per-request latency and
/// per-window metrics into `tel`. Returns the merged-side result whose
/// checksum all nodes (and all platforms) must agree on.
pub fn serve<W: World>(w: &W, cfg: &KvConfig, tel: &Telemetry) -> BenchResult {
    let nodes = w.nprocs();
    let me = w.rank();
    assert!(cfg.keys_per_part.is_power_of_two() && cfg.keys_per_part.is_multiple_of(64));
    assert!(cfg.total_keys(nodes).is_power_of_two(), "nodes must be a power of two");
    assert_eq!(cfg.tenants, tel.tenants());
    let total = cfg.total_keys(nodes);
    let part_bytes = cfg.keys_per_part * SLOT_BYTES;
    assert_eq!(part_bytes % PAGE_SIZE, 0);

    // Two page-aligned store copies (double-buffered epochs) plus one
    // digest page per node for the cross-node checksum agreement.
    let bufs =
        [w.alloc_dist(total * SLOT_BYTES, Distribution::Block),
         w.alloc_dist(total * SLOT_BYTES, Distribution::Block)];
    let digests = w.alloc_dist(nodes * PAGE_SIZE, Distribution::Block);
    let slot = |buf: GlobalAddr, key: usize| buf.add((key * SLOT_BYTES) as u32);

    let mut pt = PhaseTimer::new(me);
    pt.enter_at(w.now_ns(), "init");

    // Each node seeds the partition it writes, in both copies.
    let mut gen = OpGen::new(cfg, nodes, me);
    for k in gen.write_part * cfg.keys_per_part..(gen.write_part + 1) * cfg.keys_per_part {
        let rec = record_bytes(k, mix64(k as u64 ^ 0xD6E8_FEB8_6659_FD93));
        w.write_bytes(slot(bufs[0], k), &rec);
        w.write_bytes(slot(bufs[1], k), &rec);
    }
    w.barrier(40);
    let t0 = w.now_ns();
    pt.close_at(t0);

    // Open-loop arrival schedule / closed-loop client state.
    let mut arrival = t0;
    let mut clients: BinaryHeap<std::cmp::Reverse<(u64, usize)>> = (0..cfg.clients)
        .map(|c| std::cmp::Reverse((t0 + c as u64, c)))
        .collect();

    let mut obs = 0u64; // fold of observed get values
    let mut prev_writes: BTreeMap<usize, u64> = BTreeMap::new();
    let mut seq = 0u64;
    for r in 0..cfg.rounds {
        let staging = bufs[r % 2];
        let committed = bufs[(r + 1) % 2];

        // Replay last round's writes so `staging` holds every write up
        // to this round when it commits at the barrier below.
        pt.enter_at(w.now_ns(), "replay");
        for (&key, &value) in &prev_writes {
            w.write_bytes(slot(staging, key), &record_bytes(key, value));
        }
        let mut new_writes = std::mem::take(&mut prev_writes);

        pt.enter_at(w.now_ns(), "serve");
        for _ in 0..cfg.batch {
            // When does this request arrive at the node?
            let (issue_ns, client) = match cfg.load {
                LoadGen::OpenLoop => {
                    let jitter = gen.rng.gen_range(0..cfg.arrival_ns);
                    arrival += cfg.arrival_ns / 2 + jitter;
                    (arrival, seq as usize % cfg.clients)
                }
                LoadGen::ClosedLoop => {
                    let std::cmp::Reverse((ready, c)) = clients.pop().unwrap();
                    (ready, c)
                }
            };
            if issue_ns > w.now_ns() {
                w.compute(issue_ns - w.now_ns());
            }
            let op = gen.next();
            w.compute(cfg.service_ns);
            w.private_traffic(SLOT_BYTES as u64);
            if op.is_get {
                let mut rec = [0u8; SLOT_BYTES];
                w.read_bytes(slot(committed, op.key), &mut rec);
                let value = u64::from_le_bytes(rec[..8].try_into().unwrap());
                obs = obs.wrapping_mul(0x100_0000_01b3).wrapping_add(op.key as u64 ^ value);
            } else {
                let value = mix64((op.key as u64) ^ (seq << 20) ^ ((me as u64) << 8));
                w.write_bytes(slot(staging, op.key), &record_bytes(op.key, value));
                new_writes.insert(op.key, value);
            }
            let end_ns = w.now_ns();
            let kind = if op.is_get { ServiceOp::Get } else { ServiceOp::Put };
            tel.record(me, op.tenant, kind, issue_ns, end_ns, ((me as u64) << 40) | seq);
            if cfg.load == LoadGen::ClosedLoop {
                let think = cfg.think_ns / 2 + gen.rng.gen_range(0..cfg.think_ns);
                clients.push(std::cmp::Reverse((end_ns + think, client)));
            }
            seq += 1;
        }
        prev_writes = new_writes;

        // Commit the epoch: diffs flush, write notices invalidate, and
        // the staging copy becomes next round's committed copy.
        pt.enter_at(w.now_ns(), "barrier");
        w.barrier(41);
        pt.close_at(w.now_ns());
    }
    let total_ns = w.now_ns() - t0;

    // Cross-node agreement: publish my observation digest, then fold
    // everyone's digests plus a sample of the final store state.
    pt.enter_at(w.now_ns(), "verify");
    w.write_u64(digests.add((me * PAGE_SIZE) as u32), obs);
    w.barrier(42);
    let mut checksum = 0u64;
    for n in 0..nodes {
        let d = w.read_u64(digests.add((n * PAGE_SIZE) as u32));
        checksum = checksum.wrapping_mul(0x100_0000_01b3).wrapping_add(d);
    }
    // The staging copy of the last round holds every write.
    let final_buf = bufs[(cfg.rounds + 1) % 2];
    let stride = (total / 256).max(1);
    let mut rec = [0u8; SLOT_BYTES];
    for k in (0..total).step_by(stride) {
        w.read_bytes(slot(final_buf, k), &mut rec);
        let value = u64::from_le_bytes(rec[..8].try_into().unwrap());
        checksum = checksum.wrapping_mul(0x100_0000_01b3).wrapping_add(value);
    }
    w.barrier(43);
    pt.close_at(w.now_ns());

    BenchResult { total_ns, phases: pt.into_totals(), checksum }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_skewed_and_deterministic() {
        let z = Zipf::new(1024, 0.99);
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(1);
        let mut counts = vec![0u32; 1024];
        for _ in 0..10_000 {
            let k = z.sample(&mut a);
            assert_eq!(k, z.sample(&mut b));
            counts[k] += 1;
        }
        // The hottest key draws far more than the uniform share.
        assert!(*counts.iter().max().unwrap() > 500);
    }

    /// The guide-table lookup returns the binary search's rank for every
    /// input that can reach it: seeded draws, each bucket edge `b/n`,
    /// each CDF value, and both ends of `[0, 1)`.
    #[test]
    fn every_draw_is_the_binary_search_draw() {
        let mut rng = StdRng::seed_from_u64(7);
        for &(_, _, theta) in &TENANT_MIX {
            for n in [64, 1024, 4096, 16384, 65536] {
                let z = Zipf::shared(n, theta);
                let search = |u: f64| z.cdf.partition_point(|c| *c < u).min(z.mask);
                let draws = (0..100_000).map(|_| rng.gen::<f64>());
                let edges = (0..n).map(|b| b as f64 / n as f64);
                let ends = [0.0, 1.0 - f64::EPSILON / 2.0];
                for u in draws.chain(edges).chain(z.cdf.iter().copied()).chain(ends) {
                    if u < 1.0 {
                        assert_eq!(z.rank_of(u), search(u), "n = {n}, θ = {theta}, u = {u}");
                    }
                }
            }
        }
    }

    #[test]
    fn tables_are_built_once_and_shared() {
        // A key no other test uses, so the first fetch builds it.
        let cold = Zipf::shared(128, 0.5);
        let warm = Zipf::shared(128, 0.5);
        assert!(Arc::ptr_eq(&cold, &warm));
        assert!(!Arc::ptr_eq(&cold, &Zipf::shared(128, 0.6)));

        // Generators see the same stream whichever built the tables, and
        // the same as one holding tables built privately.
        let cfg = KvConfig { keys_per_part: 512, ..KvConfig::quick() };
        let stream = |mut g: OpGen| {
            (0..5_000).map(|_| g.next()).map(|o| (o.tenant, o.is_get, o.key)).collect::<Vec<_>>()
        };
        let (a, b) = (OpGen::new(&cfg, 2, 0), OpGen::new(&cfg, 2, 1));
        let (b2, a2) = (OpGen::new(&cfg, 2, 1), OpGen::new(&cfg, 2, 0));
        let mut private = OpGen::new(&cfg, 2, 0);
        for t in 0..cfg.tenants {
            let (_, _, theta) = KvConfig::tenant_profile(t);
            private.get_keys[t] = Arc::new(Zipf::new(cfg.total_keys(2), theta));
            private.put_keys[t] = Arc::new(Zipf::new(cfg.keys_per_part, theta));
        }
        let a = stream(a);
        assert_eq!(a, stream(a2));
        assert_eq!(a, stream(private));
        assert_eq!(stream(b), stream(b2));
    }

    #[test]
    fn opgen_respects_write_shard_and_mix() {
        let cfg = KvConfig::quick();
        let mut g = OpGen::new(&cfg, 4, 2);
        let mut reads = 0;
        for _ in 0..2_000 {
            let op = g.next();
            assert!(op.tenant < cfg.tenants);
            if op.is_get {
                reads += 1;
                assert!(op.key < cfg.total_keys(4));
            } else {
                // Node 2 writes partition 1.
                assert_eq!(op.key / cfg.keys_per_part, 1);
            }
        }
        // Blended read share across the tenant mix is ~78%.
        assert!((1_300..1_900).contains(&reads), "reads = {reads}");
    }

    #[test]
    fn record_roundtrip() {
        let rec = record_bytes(7, 0xDEAD_BEEF);
        assert_eq!(u64::from_le_bytes(rec[..8].try_into().unwrap()), 0xDEAD_BEEF);
    }
}
