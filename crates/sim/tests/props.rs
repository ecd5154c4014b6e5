//! Property-based tests for the virtual-time substrate.

use proptest::prelude::*;
use sim::{Bus, LinkCost, Server, VirtualClock};

proptest! {
    #[test]
    fn clock_is_monotone_under_any_op_sequence(
        ops in proptest::collection::vec((any::<bool>(), 0u64..1_000_000), 1..200)
    ) {
        let c = VirtualClock::new();
        let mut last = 0;
        for (advance, amount) in ops {
            let now = if advance { c.advance(amount) } else { c.advance_to(amount) };
            prop_assert!(now >= last, "clock went backwards: {now} < {last}");
            last = now;
        }
    }

    #[test]
    fn server_intervals_never_overlap(
        reqs in proptest::collection::vec((0u64..1_000_000, 1u64..10_000), 1..100)
    ) {
        let s = Server::new();
        let mut intervals: Vec<(u64, u64)> =
            reqs.iter().map(|&(arrive, service)| s.serve(arrive, service)).collect();
        intervals.sort();
        for w in intervals.windows(2) {
            prop_assert!(w[0].1 <= w[1].0, "service intervals overlap: {w:?}");
        }
    }

    #[test]
    fn server_never_starts_before_arrival(
        reqs in proptest::collection::vec((0u64..1_000_000, 1u64..10_000), 1..100)
    ) {
        let s = Server::new();
        for (arrive, service) in reqs {
            let (start, end) = s.serve(arrive, service);
            prop_assert!(start >= arrive);
            prop_assert_eq!(end - start, service);
        }
    }

    #[test]
    fn bus_never_beats_line_rate(
        transfers in proptest::collection::vec((0u64..100_000_000, 1u64..5_000_000), 1..50),
        bw in 1_000_000u64..2_000_000_000,
    ) {
        let b = Bus::with_bandwidth(bw);
        for (arrive, bytes) in transfers {
            let done = b.transfer(arrive, bytes);
            let base = b.duration(bytes);
            prop_assert!(done >= arrive + base,
                "transfer finished faster than the line rate allows");
        }
    }

    #[test]
    fn bus_contention_bounded_by_demand(
        n in 1usize..8,
        bytes in 100_000u64..1_000_000,
    ) {
        // n identical overlapping streams: the slowest completion must
        // lie between 1× and (n+1)× the uncontended duration.
        let b = Bus::with_bandwidth(100_000_000);
        let base = b.duration(bytes);
        let mut worst = 0;
        for _ in 0..n {
            worst = worst.max(b.transfer(0, bytes));
        }
        prop_assert!(worst >= base);
        prop_assert!(worst <= base * (n as u64 + 1),
            "slowdown {worst} exceeds aggregate demand bound");
    }

    #[test]
    fn link_cost_is_additive_in_bytes(
        a in 0u64..1_000_000, c in 0u64..1_000_000,
    ) {
        let link = LinkCost::fast_ethernet();
        let sum = link.transfer_ns(a) + link.transfer_ns(c);
        let joint = link.transfer_ns(a + c);
        // Integer division may lose at most 1 ns per term.
        prop_assert!(joint >= sum.saturating_sub(2) && joint <= sum + 2);
    }

    #[test]
    fn concurrent_clock_advances_sum_exactly(
        amounts in proptest::collection::vec(1u64..1000, 2..16)
    ) {
        let c = VirtualClock::new();
        std::thread::scope(|s| {
            for &a in &amounts {
                let c = &c;
                s.spawn(move || c.advance(a));
            }
        });
        prop_assert_eq!(c.now(), amounts.iter().sum::<u64>());
    }
}

proptest! {
    #[test]
    fn bus_completion_is_monotone_in_bytes(
        arrive in 0u64..10_000_000,
        a in 1u64..1_000_000,
        b in 1u64..1_000_000,
    ) {
        // Within one bus, transferring more bytes from the same instant
        // never completes earlier (fresh bus per comparison).
        let (small, large) = (a.min(b), a.max(b));
        let b1 = Bus::with_bandwidth(100_000_000);
        let t_small = b1.transfer(arrive, small);
        let b2 = Bus::with_bandwidth(100_000_000);
        let t_large = b2.transfer(arrive, large);
        prop_assert!(t_large >= t_small);
    }

    #[test]
    fn clock_advance_returns_new_time(amounts in proptest::collection::vec(1u64..1_000, 1..50)) {
        let c = VirtualClock::new();
        let mut expect = 0;
        for a in amounts {
            expect += a;
            prop_assert_eq!(c.advance(a), expect);
        }
    }
}

/// Each transfer's completion on a fresh 1 GB/s bus (1 MB per 1 ms
/// window), for every order of `set`; indexed like `set`.
fn completions_in_every_order(set: &[(u64, u64)]) -> Vec<Vec<u64>> {
    fn orders(n: usize) -> Vec<Vec<usize>> {
        if n == 0 {
            return vec![vec![]];
        }
        let mut out = Vec::new();
        for order in orders(n - 1) {
            for at in 0..n {
                let mut o = order.clone();
                o.insert(at, n - 1);
                out.push(o);
            }
        }
        out
    }
    orders(set.len())
        .into_iter()
        .map(|order| {
            let bus = Bus::with_bandwidth(1_000_000_000);
            let mut done = vec![0; set.len()];
            for i in order {
                done[i] = bus.transfer(set[i].0, set[i].1);
            }
            done
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn bus_below_saturation_is_order_independent(
        set in proptest::collection::vec((0u64..3_000_000, 1u64..=166_666), 1..=6)
    ) {
        // At most six transfers of at most a sixth of a window's capacity
        // each: whatever windows they span, no window ends above capacity,
        // so every order gives every transfer the same completion.
        let all = completions_in_every_order(&set);
        prop_assert!(all.iter().all(|done| *done == all[0]), "{set:?}");
    }
}

#[test]
fn bus_at_capacity_is_order_independent() {
    // Three quarter-window transfers and the first half of one spanning
    // windows 0 and 1 fill window 0 exactly.
    let set = [(0, 250_000), (100_000, 250_000), (300_000, 250_000), (900_000, 500_000)];
    let all = completions_in_every_order(&set);
    assert!(all.iter().all(|done| *done == all[0]));
    assert_eq!(all[0], [250_000, 350_000, 550_000, 1_400_000]);
}

#[test]
fn bus_above_capacity_prices_by_registration_order() {
    // 1.1 MB in one 1 MB window: whichever transfer registers second sees
    // the saturated window and is stretched by 70/64.
    let by_order = completions_in_every_order(&[(0, 600_000), (100_000, 500_000)]);
    assert_eq!(by_order, [[656_250, 600_000], [600_000, 646_875]]);
}
