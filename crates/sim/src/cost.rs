//! Cost models: the machine constants of the paper's testbed.
//!
//! The paper's experimental setup (§5.1): a four-node Linux cluster of
//! dual 450 MHz Intel Xeon SMPs with 512 MB memory, connected by both
//! Dolphin SCI and switched Fast Ethernet. The constants below are drawn
//! from that era's published measurements (TreadMarks/JiaJia on 100 Mbit
//! Ethernet; SCI-VM remote-access latencies) and are deliberately exposed
//! as plain data so experiments can override them.

/// Cost of moving messages across one interconnect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkCost {
    /// Software cost on the sender before the message hits the wire (ns).
    pub send_overhead_ns: u64,
    /// Software cost on the receiver to deliver the message (ns).
    pub recv_overhead_ns: u64,
    /// One-way wire latency (ns).
    pub latency_ns: u64,
    /// Sustained bandwidth in bytes per second.
    pub bytes_per_sec: u64,
    /// Fixed protocol-handler service time charged at the receiver per
    /// request (ns). Models the time the communication daemon is occupied.
    pub handler_ns: u64,
}

impl LinkCost {
    /// Switched Fast Ethernet with a TCP/UDP software stack, as used by the
    /// paper's software-DSM configuration. Small-message round trip comes
    /// out near 220 µs; a 4 KiB page transfer near 550 µs — in line with
    /// late-90s software DSM measurements.
    pub fn fast_ethernet() -> Self {
        Self {
            send_overhead_ns: 25_000,
            recv_overhead_ns: 25_000,
            latency_ns: 60_000,
            bytes_per_sec: 12_500_000, // 100 Mbit/s
            handler_ns: 10_000,
        }
    }

    /// Dolphin SCI used as a message transport (for protocol control
    /// traffic in the hybrid-DSM configuration).
    pub fn sci_messaging() -> Self {
        Self {
            send_overhead_ns: 2_000,
            recv_overhead_ns: 2_000,
            latency_ns: 5_000,
            bytes_per_sec: 80_000_000,
            handler_ns: 2_000,
        }
    }

    /// Intra-node transport between CPUs of one SMP (shared memory, no
    /// wire). Used when a "cluster" node is mapped onto CPUs of the same
    /// multiprocessor (paper §3.3, process-parallel models on SMPs).
    pub fn smp_loopback() -> Self {
        Self {
            send_overhead_ns: 400,
            recv_overhead_ns: 400,
            latency_ns: 200,
            bytes_per_sec: 800_000_000,
            handler_ns: 300,
        }
    }

    /// Pure transfer time for `bytes` over this link (no queueing).
    pub fn transfer_ns(&self, bytes: u64) -> u64 {
        (bytes as u128 * 1_000_000_000u128 / self.bytes_per_sec as u128) as u64
    }

    /// One-way delivery time for a message of `bytes`, excluding handler
    /// service at the receiver: send overhead + latency + serialization.
    pub fn one_way_ns(&self, bytes: u64) -> u64 {
        self.send_overhead_ns + self.latency_ns + self.transfer_ns(bytes)
    }
}

/// Per-node machine constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineCost {
    /// Cost of one floating-point operation (ns). 450 MHz Xeon ≈ 2.2 ns
    /// per cycle, roughly one FLOP per cycle on these codes.
    pub flop_ns: u64,
    /// Average cost of one cached local memory access (ns).
    pub local_access_ns: u64,
    /// Memory-bus bandwidth of one node in bytes/s (shared by its CPUs).
    pub mem_bus_bytes_per_sec: u64,
    /// In-line software check on every shared access in the software-DSM
    /// access-function scheme (ns). A handful of instructions (Shasta-style).
    pub dsm_check_ns: u64,
    /// Dispatch cost of one HAMSTER service call (ns): the thin layer the
    /// framework inserts between a programming-model call and the platform.
    pub service_call_ns: u64,
    /// Cost of updating one monitoring counter (ns), paper §4.3.
    pub monitor_ns: u64,
}

impl MachineCost {
    /// The paper's dual 450 MHz Xeon node.
    pub fn xeon_450() -> Self {
        Self {
            flop_ns: 2,
            local_access_ns: 10,
            mem_bus_bytes_per_sec: 800_000_000,
            dsm_check_ns: 15,
            service_call_ns: 25,
            monitor_ns: 2,
        }
    }
}

/// SCI remote-memory access costs (the hybrid-DSM data path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SciAccessCost {
    /// A remote read transaction (blocking, ns).
    pub remote_read_ns: u64,
    /// A remote write (posted through the write buffer, ns).
    pub remote_write_ns: u64,
    /// Flushing the write buffer at a consistency point (ns, per pending
    /// write up to `flush_max_ns`).
    pub flush_per_write_ns: u64,
    /// Upper bound on one flush (the buffer is small).
    pub flush_max_ns: u64,
    /// Sustained remote-DMA bandwidth (bytes/s) for bulk transfers.
    pub bulk_bytes_per_sec: u64,
    /// Setup cost of a bulk remote transfer (ns).
    pub bulk_setup_ns: u64,
}

impl SciAccessCost {
    /// Dolphin SCI, per the SCI-VM measurements.
    pub fn dolphin() -> Self {
        Self {
            remote_read_ns: 3_500,
            remote_write_ns: 350,
            flush_per_write_ns: 250,
            flush_max_ns: 8_000,
            bulk_bytes_per_sec: 80_000_000,
            bulk_setup_ns: 4_000,
        }
    }
}

/// The full cost model for one experiment configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Per-node machine constants.
    pub machine: MachineCost,
    /// Link used by the software-DSM protocol (Beowulf configuration).
    pub ethernet: LinkCost,
    /// Link used for control messages in the hybrid configuration.
    pub sci_link: LinkCost,
    /// Word-granularity remote access (hybrid data path).
    pub sci_access: SciAccessCost,
    /// Intra-node link for SMP-as-cluster configurations.
    pub loopback: LinkCost,
    /// Per-message software saving when HAMSTER's unified messaging layer
    /// replaces the duplicated native stacks (paper §3.3: "coalescing the
    /// two separate interconnection structures into one"). Subtracted from
    /// send and receive overheads when the unified layer is active.
    pub unified_msg_saving_ns: u64,
}

/// Ethernet rate of [`CostModel::pinned_ethernet`] (bytes/s).
pub const PINNED_ETHERNET_BPS: u64 = 250_000_000;

impl CostModel {
    /// The paper's testbed.
    pub fn paper_testbed() -> Self {
        Self {
            machine: MachineCost::xeon_450(),
            ethernet: LinkCost::fast_ethernet(),
            sci_link: LinkCost::sci_messaging(),
            sci_access: SciAccessCost::dolphin(),
            loopback: LinkCost::smp_loopback(),
            unified_msg_saving_ns: 4_000,
        }
    }

    // The two models of the *deterministic regime*. The windowed bus
    // model is only exactly reproducible while link and handler windows
    // stay unsaturated: below saturation every transfer is a pure
    // function of `(time, bytes)` and every run agrees to the
    // nanosecond; above it, a transfer's slowdown depends on the
    // real-time order in which demand was registered (OBSERVABILITY.md,
    // "Bus saturation"). Every run whose virtual times are compared —
    // the perf-trend baselines, the determinism proptests — therefore
    // takes one of these. They are a workaround, not a fix: ROADMAP
    // item 1 (order-independent window accounting above saturation) is
    // the work that would let those runs use the paper-testbed rate.

    /// The paper testbed with Ethernet pinned at
    /// [`PINNED_ETHERNET_BPS`]: enough for the paper kernels up to a
    /// few dozen nodes (fast Ethernet at 12.5 MB/s saturates under the
    /// centralized LU release burst already at 4).
    pub fn pinned_ethernet() -> Self {
        let mut cost = Self::paper_testbed();
        cost.ethernet.bytes_per_sec = PINNED_ETHERNET_BPS;
        cost
    }

    /// The model for wide (64-node) fan-ins, which the pin cannot hold
    /// below saturation — LU broadcasts a 4 KiB pivot page to 63 peers
    /// every step. Three knobs move together:
    ///
    /// * 1 GB/s links (at 250 MB/s a 63-wide page fan-in still
    ///   saturates: 63 × 4 KiB > 250 KB per 1 ms window);
    /// * small per-message service overheads, so 64 barrier arrivals per
    ///   step don't saturate the manager's fixed 1 GB/s service bus;
    /// * 400 µs latency, stretching virtual time so consecutive fan-in
    ///   steps land in different bus windows instead of stacking their
    ///   reply bytes into one (latency is additive and bus-independent,
    ///   so it is pure schedule spacing).
    pub fn wide_below_saturation() -> Self {
        let mut cost = Self::paper_testbed();
        cost.ethernet.bytes_per_sec = 1_000_000_000;
        cost.ethernet.latency_ns = 400_000;
        cost.ethernet.recv_overhead_ns = 500;
        cost.ethernet.send_overhead_ns = 500;
        cost.ethernet.handler_ns = 200;
        cost
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::paper_testbed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ethernet_page_transfer_is_era_plausible() {
        let e = LinkCost::fast_ethernet();
        let t = e.transfer_ns(4096);
        // 4 KiB at 12.5 MB/s ≈ 328 µs.
        assert!((300_000..360_000).contains(&t), "got {t}");
    }

    #[test]
    fn ethernet_small_message_one_way() {
        let e = LinkCost::fast_ethernet();
        let t = e.one_way_ns(64);
        assert!((85_000..95_000).contains(&t), "got {t}");
    }

    #[test]
    fn sci_is_orders_of_magnitude_faster_than_ethernet() {
        let c = CostModel::paper_testbed();
        assert!(c.sci_access.remote_read_ns * 10 < c.ethernet.one_way_ns(64));
    }

    #[test]
    fn default_is_paper_testbed() {
        assert_eq!(CostModel::default(), CostModel::paper_testbed());
    }

    #[test]
    fn transfer_scales_linearly() {
        let e = LinkCost::fast_ethernet();
        assert_eq!(e.transfer_ns(8192), 2 * e.transfer_ns(4096));
        assert_eq!(e.transfer_ns(0), 0);
    }
}
