//! FIFO queueing servers for contended resources.

use std::sync::atomic::{AtomicU64, Ordering};

/// A single FIFO server with deterministic service accounting.
///
/// Models any resource that serves one request at a time: a page-home
/// node's protocol handler, a lock manager, a node's memory bus, or an
/// Ethernet NIC. A request arriving at virtual time `t` with service
/// demand `d` begins service at `max(t, next_free)` and occupies the
/// server until `start + d`.
///
/// The implementation is a lock-free CAS loop over the server's
/// `next_free` horizon, so node threads can charge time concurrently
/// without a mutex.
///
/// ```
/// let daemon = sim::Server::new();
/// assert_eq!(daemon.serve(100, 50), (100, 150)); // idle: starts on arrival
/// assert_eq!(daemon.serve(120, 10), (150, 160)); // busy: queues behind
/// ```
#[derive(Debug, Default)]
pub struct Server {
    next_free: AtomicU64,
}

impl Server {
    /// A new, idle server.
    pub fn new() -> Self {
        Self { next_free: AtomicU64::new(0) }
    }

    /// Reserve the server for `service` ns starting no earlier than
    /// `arrive`. Returns `(start, end)` of the granted service interval.
    pub fn serve(&self, arrive: u64, service: u64) -> (u64, u64) {
        let mut cur = self.next_free.load(Ordering::Acquire);
        loop {
            let start = cur.max(arrive);
            let end = start + service;
            match self.next_free.compare_exchange_weak(
                cur,
                end,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return (start, end),
                Err(seen) => cur = seen,
            }
        }
    }
}

/// A bandwidth-shared resource, e.g. an SMP memory bus shared by the CPUs
/// of one node.
///
/// Unlike [`Server`], `Bus` must tolerate *out-of-virtual-order*
/// reservations: node threads advance their virtual clocks instantly in
/// real time, so CPU A may reserve bus time at virtual `T+30ms` before
/// CPU B reserves at `T`. A FIFO horizon would charge B a spurious wait.
/// Instead the bus tracks per-window demand: a transfer's slowdown is
/// the (demand / capacity) ratio over the windows it spans, which is
/// independent of the real-time order of reservations. Two CPUs
/// streaming simultaneously each see ~2× duration — the effect that
/// makes the memory-bound MatMult of the paper's Figure 4 faster on two
/// cluster nodes (two buses) than on one dual-CPU SMP (one bus).
///
/// Demand is a dense array indexed by window number from virtual time
/// 0, grown to the last window a transfer spans: 8 B per millisecond of
/// virtual time the bus spans (about 16 KB per bus for a 2 s run). One
/// mutex guards it, so a transfer spanning several windows adds to and
/// reads them as one snapshot.
#[derive(Debug)]
pub struct Bus {
    ns_per_byte_x1024: u64,
    /// Bytes one window can carry at full bandwidth (precomputed: the
    /// saturation test runs on every transfer).
    capacity: u64,
    /// Node this bus belongs to, for trace attribution.
    node: usize,
    /// Bytes registered so far in each window, indexed by window number.
    demand: parking_lot::Mutex<Vec<u64>>,
}

/// Demand-accounting window width: one `u64` of demand per window, so a
/// bus costs 8 B per millisecond of virtual time it spans. A
/// compile-time constant so the per-transfer window-index divisions
/// lower to multiplications.
const WINDOW_NS: u64 = 1_000_000;

impl Bus {
    /// A bus with the given bandwidth in bytes per second, attributed
    /// to node 0 in traces (see [`Bus::for_node`]).
    pub fn with_bandwidth(bytes_per_sec: u64) -> Self {
        assert!(bytes_per_sec > 0, "bus bandwidth must be positive");
        // ns per byte = 1e9 / B, stored in 1/1024ths for precision.
        let ns_per_byte_x1024 = (1_000_000_000u128 * 1024 / bytes_per_sec as u128) as u64;
        let capacity = (WINDOW_NS as u128 * 1024 / ns_per_byte_x1024 as u128) as u64;
        Self { ns_per_byte_x1024, capacity, node: 0, demand: Default::default() }
    }

    /// Attribute this bus's trace events (window stalls) to `node`.
    pub fn for_node(mut self, node: usize) -> Self {
        self.node = node;
        self
    }

    /// Transfer `bytes` starting at `arrive`; returns the completion
    /// time under the current contention.
    pub fn transfer(&self, arrive: u64, bytes: u64) -> u64 {
        if bytes == 0 {
            return arrive;
        }
        let base = self.duration(bytes);
        let first = (arrive / WINDOW_NS) as usize;
        let last = ((arrive + base.max(1) - 1) / WINDOW_NS) as usize;
        let span = (last - first + 1) as u64;
        let per_window = bytes.div_ceil(span);
        let mut demand = self.demand.lock();
        if demand.len() <= last {
            demand.resize(last + 1, 0);
        }
        let total_demand: u128 = demand[first..=last]
            .iter_mut()
            .map(|d| {
                *d += per_window;
                *d as u128
            })
            .sum();
        drop(demand);
        // Slowdown factor = average demand over capacity across the
        // spanned windows (≥ 1), in 1/64ths. Averaging keeps the factor
        // insensitive to window-boundary alignment. A bus below
        // saturation (the common case) has factor exactly 1 and skips
        // the wide division entirely.
        let cap_span = span as u128 * self.capacity as u128;
        if total_demand <= cap_span {
            return arrive + base;
        }
        let factor_x64 = ((total_demand * 64) / cap_span).max(64) as u64;
        let done = arrive + (base as u128 * factor_x64 as u128 / 64) as u64;
        // Observability: a contended window stretched this transfer
        // beyond its bandwidth-limited duration — a bus-window stall.
        if factor_x64 > 64 && crate::trace::enabled() {
            crate::trace::span(arrive, done - arrive, self.node, "bus", "stall", done - arrive - base);
        }
        done
    }

    /// Pure transfer duration for `bytes`, without contention.
    pub fn duration(&self, bytes: u64) -> u64 {
        (bytes as u128 * self.ns_per_byte_x1024 as u128 / 1024) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn idle_server_starts_at_arrival() {
        let s = Server::new();
        assert_eq!(s.serve(100, 10), (100, 110));
    }

    #[test]
    fn busy_server_queues() {
        let s = Server::new();
        s.serve(100, 50); // busy until 150
        assert_eq!(s.serve(120, 10), (150, 160));
        let s = Server::new();
        s.serve(0, 10);
        assert_eq!(s.serve(0, 10), (10, 20));
    }

    #[test]
    fn early_arrival_after_idle_gap() {
        let s = Server::new();
        s.serve(0, 10); // busy until 10
        assert_eq!(s.serve(100, 5), (100, 105));
    }

    #[test]
    fn concurrent_serves_never_overlap() {
        let s = Server::new();
        let mut intervals: Vec<(u64, u64)> = std::thread::scope(|sc| {
            let handles: Vec<_> = (0..8)
                .map(|i| {
                    let s = &s;
                    sc.spawn(move || s.serve(i * 3, 7))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        intervals.sort();
        for w in intervals.windows(2) {
            assert!(w[0].1 <= w[1].0, "intervals overlap: {w:?}");
        }
    }

    #[test]
    fn bus_bandwidth_math() {
        // 1 GB/s => 1 ns per byte.
        let b = Bus::with_bandwidth(1_000_000_000);
        assert_eq!(b.duration(4096), 4096);
        // Uncontended transfers run at full bandwidth.
        assert_eq!(b.transfer(0, 1000), 1000);
        // Small transfers well below window capacity do not contend.
        assert_eq!(b.transfer(0, 1000), 1000);
    }

    #[test]
    fn bus_contention_slows_concurrent_streams() {
        // 1 GB/s bus, two 10 MB streams in the same windows: the second
        // registrant sees 2× demand and doubles in duration.
        let b = Bus::with_bandwidth(1_000_000_000);
        let t1 = b.transfer(0, 10_000_000);
        let t2 = b.transfer(0, 10_000_000);
        assert_eq!(t1, 10_000_000);
        assert_eq!(t2, 20_000_000);
    }

    #[test]
    fn bus_contention_is_order_independent_for_disjoint_windows() {
        // A reservation far in the virtual future must not delay an
        // earlier transfer registered later in real time.
        let b = Bus::with_bandwidth(1_000_000_000);
        let far = b.transfer(500_000_000, 1_000_000);
        assert_eq!(far, 501_000_000);
        let near = b.transfer(0, 1_000_000);
        assert_eq!(near, 1_000_000, "early transfer penalized by future reservation");
    }

    /// The hot-window map the dense array replaced, kept as the oracle:
    /// the most recently touched window's demand lives outside the map
    /// (invariant: never also in it), flushed in when the hot window
    /// moves and pulled back out when a transfer returns to an older one.
    #[derive(Default)]
    struct Windows {
        hot_w: u64,
        hot_demand: u64,
        map: std::collections::HashMap<u64, u64>,
    }

    impl Windows {
        /// Make `w` the hot window, preserving any demand it accumulated.
        fn rehot(&mut self, w: u64) {
            if self.hot_demand > 0 {
                let old = self.hot_w;
                let d = self.hot_demand;
                *self.map.entry(old).or_insert(0) += d;
            }
            self.hot_w = w;
            self.hot_demand = self.map.remove(&w).unwrap_or(0);
        }

        /// `Bus::transfer` as it priced over this map.
        fn transfer(&mut self, bus: &Bus, arrive: u64, bytes: u64) -> u64 {
            if bytes == 0 {
                return arrive;
            }
            let base = bus.duration(bytes);
            let first = arrive / WINDOW_NS;
            let end_incl = arrive + base.max(1) - 1;
            let g = self;
            let (span, total_demand) = if end_incl < (first + 1) * WINDOW_NS {
                if first != g.hot_w {
                    g.rehot(first);
                }
                g.hot_demand += bytes;
                (1u64, g.hot_demand as u128)
            } else {
                let last = end_incl / WINDOW_NS;
                let span = last - first + 1;
                let per_window = bytes.div_ceil(span);
                g.rehot(last);
                let mut td = 0u128;
                for w in first..last {
                    let e = g.map.entry(w).or_insert(0);
                    *e += per_window;
                    td += *e as u128;
                }
                g.hot_demand += per_window;
                (span, td + g.hot_demand as u128)
            };
            let cap_span = span as u128 * bus.capacity as u128;
            if total_demand <= cap_span {
                return arrive + base;
            }
            let factor_x64 = ((total_demand * 64) / cap_span).max(64) as u64;
            arrive + (base as u128 * factor_x64 as u128 / 64) as u64
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn dense_demand_prices_as_the_hot_window_map(
            bw in prop_oneof![1_000_000u64..4_000_000, 100_000_000u64..2_000_000_000],
            stream in proptest::collection::vec(
                (prop_oneof![0u64..10_000_000_000, 0u64..4 * WINDOW_NS], 0u8..3, any::<u64>()),
                1..120,
            ),
            burst in (0u64..10_000_000_000, 2usize..6, 0usize..120),
        ) {
            // One thread, arrivals out of virtual order over 10^4
            // windows or crowded into four; transfers of a few bytes, up
            // to two windows' capacity, or up to 50 windows (50 MB); and
            // a burst of twice-capacity transfers at one instant, so
            // every stream saturates some window.
            let bus = Bus::with_bandwidth(bw);
            let mut model = Windows::default();
            let sized = |&(arrive, class, raw): &(u64, u8, u64)| {
                let cap = [4_096, 2 * bus.capacity, (50 * bus.capacity).min(50_000_000)];
                (arrive, raw % cap[class as usize])
            };
            let (at, copies, pos) = burst;
            let pos = pos.min(stream.len());
            let burst = std::iter::repeat_n((at, 2 * bus.capacity), copies);
            let all = stream[..pos].iter().map(sized).chain(burst).chain(stream[pos..].iter().map(sized));
            let mut saturated = 0;
            for (arrive, bytes) in all {
                let want = model.transfer(&bus, arrive, bytes);
                saturated += usize::from(want > arrive + bus.duration(bytes));
                prop_assert_eq!(bus.transfer(arrive, bytes), want, "{arrive} + {bytes} B at {bw} B/s");
            }
            prop_assert!(saturated > 0);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bandwidth_rejected() {
        let _ = Bus::with_bandwidth(0);
    }
}
