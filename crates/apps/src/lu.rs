//! LU: dense LU decomposition without pivoting (Table 1: 1024×1024),
//! with the paper's phase breakdown.
//!
//! Figure 2/3/4 split LU four ways: `LU all` (with initialization),
//! `LU` (without), `LU core` (the computational kernel, no
//! synchronization), and `LU bar` (time spent in barriers). The
//! initialization is the classic serial master-writes-everything
//! pattern — write-only access to remote pages, which is "very
//! expensive in Software-DSM systems" (paper §5.4) and cheap on the
//! hybrid DSM's posted remote writes.
//!
//! Trailing rows are kept in private node memory between
//! synchronizations (the cache-blocked kernel of the SPLASH-style
//! codes); shared memory carries the initialization, the per-step
//! pivot-row exchange, and the final result — the traffic that actually
//! distinguishes the platforms.

use crate::matmult::FLOP_NS;
use crate::report::{checksum_f64, BenchResult};
use crate::world::World;
use hamster_core::PhaseTimer;
use memwire::{Distribution, GlobalAddr, PAGE_SIZE};

/// Effective memory traffic per updated element (bytes): the blocked
/// kernel touches DRAM for roughly 1/16th of its in-place accesses.
const BLOCKED_TRAFFIC_DENOM: u64 = 16;

/// Rows are dealt round-robin in page-aligned chunks; owner of row `i`.
fn owner(i: usize, n: usize, p: usize) -> usize {
    (i / chunk_rows(n)) % p
}

fn chunk_rows(n: usize) -> usize {
    // One page-aligned chunk of rows: at least one page's worth.
    (PAGE_SIZE / (n * 8)).max(1)
}

fn chunk_pages(n: usize) -> u32 {
    ((n * 8 * chunk_rows(n)).div_ceil(PAGE_SIZE)) as u32
}

fn init_elem(n: usize, i: usize, j: usize) -> f64 {
    // Diagonally dominant, LU-stable without pivoting.
    if i == j {
        n as f64
    } else {
        1.0 / (1.0 + (i as f64 - j as f64).abs())
    }
}

/// Run LU on an `n`×`n` matrix. Phases: `init`, `core`, `bar`,
/// `no_init`.
pub fn lu<W: World>(w: &W, n: usize) -> BenchResult {
    let a = w.alloc_dist(n * n * 8, Distribution::BlockCyclic(chunk_pages(n)));
    let row = |i: usize| -> GlobalAddr { a.add((i * n * 8) as u32) };
    let p = w.nprocs();
    let rank = w.rank();

    let mut result = BenchResult::default();
    // Phase profiling (paper Fig. 2's breakdown) through the
    // platform-independent PhaseTimer service: each transition also
    // lands on the global trace timeline as a `phase` span.
    let mut pt = PhaseTimer::new(rank);
    let t_start = w.now_ns();
    pt.enter_at(t_start, "init");

    // Serial initialization on the master (write-only remote traffic).
    if rank == 0 {
        let mut buf = vec![0.0f64; n];
        for i in 0..n {
            for (j, v) in buf.iter_mut().enumerate() {
                *v = init_elem(n, i, j);
            }
            w.write_f64s(row(i), &buf);
        }
    }
    w.barrier(1);
    let t_init_done = w.now_ns();
    pt.close_at(t_init_done);

    // Pull my rows into private memory (home-local after init's diffs).
    let my_rows: Vec<usize> = (0..n).filter(|&i| owner(i, n, p) == rank).collect();
    let mut private: std::collections::HashMap<usize, Vec<f64>> = my_rows
        .iter()
        .map(|&i| {
            let mut buf = vec![0.0f64; n];
            w.read_f64s(row(i), &mut buf);
            (i, buf)
        })
        .collect();

    let mut pivot = vec![0.0f64; n];

    for k in 0..n - 1 {
        // The owner scales row k right of the diagonal and publishes it.
        if owner(k, n, p) == rank {
            pt.enter_at(w.now_ns(), "core");
            let r = private.get_mut(&k).expect("owner missing row");
            let akk = r[k];
            for v in r[k + 1..].iter_mut() {
                *v /= akk;
            }
            w.write_f64s(row(k), r);
            w.compute((n - k) as u64 * FLOP_NS);
            pt.close_at(w.now_ns());
        }
        pt.enter_at(w.now_ns(), "bar");
        w.barrier(2);
        pt.close_at(w.now_ns());

        // Everyone updates its private trailing rows with row k.
        pt.enter_at(w.now_ns(), "core");
        if owner(k, n, p) == rank {
            pivot.copy_from_slice(&private[&k]);
        } else {
            w.read_f64s(row(k), &mut pivot);
        }
        let mut updated = 0u64;
        for &i in my_rows.iter().filter(|&&i| i > k) {
            let mine = private.get_mut(&i).expect("missing private row");
            let lik = mine[k];
            for (m, &pv) in mine[k + 1..].iter_mut().zip(&pivot[k + 1..]) {
                *m -= lik * pv;
            }
            updated += 1;
        }
        w.compute(updated * 2 * (n - k) as u64 * FLOP_NS);
        w.private_traffic(updated * (n - k) as u64 * 16 / BLOCKED_TRAFFIC_DENOM);
        pt.close_at(w.now_ns());

        pt.enter_at(w.now_ns(), "bar");
        w.barrier(3);
        pt.close_at(w.now_ns());
    }

    // Publish the factorization for verification.
    for &i in &my_rows {
        w.write_f64s(row(i), &private[&i]);
    }
    w.barrier(4);

    for (name, ns) in pt.into_totals() {
        result.phase(name, ns);
    }
    result.total_ns = w.now_ns() - t_start;
    result.phase("no_init", result.total_ns - (t_init_done - t_start));

    // Verification: all nodes checksum the same sample rows.
    let mut checksum = 0u64;
    let mut sample = vec![0.0f64; n];
    for i in [0, n / 2, n - 1] {
        w.read_f64s(row(i), &mut sample);
        for &v in &sample {
            checksum = checksum_f64(checksum, v);
        }
    }
    w.barrier(5);
    result.checksum = checksum;
    result
}

/// Sequential reference LU (in place, no pivoting) for tests.
#[allow(clippy::needless_range_loop)] // mirrors the textbook index form
pub fn reference(n: usize) -> Vec<Vec<f64>> {
    let mut a: Vec<Vec<f64>> =
        (0..n).map(|i| (0..n).map(|j| init_elem(n, i, j)).collect()).collect();
    for k in 0..n - 1 {
        let akk = a[k][k];
        for j in k + 1..n {
            a[k][j] /= akk;
        }
        for i in k + 1..n {
            let lik = a[i][k];
            for j in k + 1..n {
                a[i][j] -= lik * a[k][j];
            }
        }
    }
    a
}
