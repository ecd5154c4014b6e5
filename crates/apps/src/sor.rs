//! SOR: Jacobi-style successive over-relaxation on an n×n grid
//! (Table 1: 1024×1024).
//!
//! Two variants, as in the paper's Figures 2–4:
//!
//! * **optimized** (`SOR opt`): the locality-tuned version from the
//!   JiaJia suite — partitions aligned with page homes, interior rows
//!   kept in private memory, only the partition-edge rows exchanged
//!   through shared memory each iteration.
//! * **unoptimized** (`SOR`): the naive port — the whole grid lives in
//!   shared memory with default (round-robin) page placement, and every
//!   row is read from and written to shared memory each iteration.
//!   This is the variant that punishes the software DSM and shows the
//!   hybrid DSM's advantage (Figure 3).

use crate::report::{checksum_f64, BenchResult};
use crate::world::World;
use hamster_core::PhaseTimer;
use memwire::{AlignHint, Distribution, GlobalAddr};

/// Cost of updating one grid cell (ns): four dependent FP adds plus a
/// multiply and five cached loads on the 450 MHz Xeon — an unblocked
/// stencil runs far below one flop per cycle.
const CELL_NS: u64 = 50;

fn init_row(n: usize, i: usize) -> Vec<f64> {
    // Hot top edge over a non-trivial interior field (so every sweep
    // changes every interior cell — an all-zero start would let the
    // software DSM's diffs degenerate to nothing while the diffusion
    // front crawls in).
    if i == 0 {
        vec![1.0; n]
    } else {
        (0..n).map(|j| ((i * 31 + j * 17) % 97) as f64 / 97.0).collect()
    }
}

fn relax(top: &[f64], mid: &[f64], bot: &[f64], out: &mut [f64]) {
    let n = mid.len();
    out[0] = mid[0];
    out[n - 1] = mid[n - 1];
    for j in 1..n - 1 {
        out[j] = 0.25 * (top[j] + bot[j] + mid[j - 1] + mid[j + 1]);
    }
}

/// Run SOR on an `n`×`n` grid for `iters` Jacobi sweeps.
pub fn sor<W: World>(w: &W, n: usize, iters: usize, optimized: bool) -> BenchResult {
    sor_hinted(w, n, iters, optimized, AlignHint::None)
}

/// [`sor`] with an explicit layout hint for the shared grid: the row
/// stride is padded per `hint`, so a tuner can give each row its own
/// page (breaking the false sharing the packed cyclic layout exhibits)
/// without touching the kernel. The computed values — and hence the
/// checksum — are identical under every hint.
pub fn sor_hinted<W: World>(
    w: &W,
    n: usize,
    iters: usize,
    optimized: bool,
    hint: AlignHint,
) -> BenchResult {
    let dist = if optimized { Distribution::Block } else { Distribution::Cyclic };
    let stride = hint.padded_stride(n * 8);
    let bytes = n * stride;
    let cur = w.alloc_dist(bytes, dist);
    let nxt = w.alloc_dist(bytes, dist);
    let row = |base: GlobalAddr, i: usize| base.add((i * stride) as u32);

    // Phase profiling through the PhaseTimer service (also lands as
    // `phase` spans on the global trace timeline).
    let mut pt = PhaseTimer::new(w.rank());
    pt.enter_at(w.now_ns(), "init");

    // Every node initializes its partition in both buffers.
    let (lo, hi) = w.my_block(n);
    let rows: Vec<Vec<f64>> = (lo..hi).map(|i| init_row(n, i)).collect();
    for (i, r) in (lo..).zip(&rows) {
        w.write_f64s(row(cur, i), r);
        w.write_f64s(row(nxt, i), r);
    }
    w.barrier(1);
    let t0 = w.now_ns();
    pt.close_at(t0);

    // Interior rows this node updates (global rows 0 and n-1 are fixed).
    let ulo = lo.max(1);
    let uhi = hi.min(n - 1);

    if optimized {
        // Private double buffers for my rows plus ghost rows; `next`
        // starts as a copy because the fixed rows 0 and n-1 are never
        // relaxed into it.
        let width = hi - lo;
        let mut mine = rows;
        let mut next = mine.clone();
        let mut ghost_top = vec![0.0f64; n];
        let mut ghost_bot = vec![0.0f64; n];
        for (src, dst) in [(cur, nxt), (nxt, cur)].iter().cycle().take(iters) {
            // Fetch neighbours' edge rows from shared memory.
            pt.enter_at(w.now_ns(), "exchange");
            if lo > 0 {
                w.read_f64s(row(*src, lo - 1), &mut ghost_top);
            }
            if hi < n {
                w.read_f64s(row(*src, hi), &mut ghost_bot);
            }
            pt.enter_at(w.now_ns(), "compute");
            for i in ulo..uhi {
                let li = i - lo;
                let top = if li == 0 { &ghost_top } else { &mine[li - 1] };
                let bot = if li + 1 == width { &ghost_bot } else { &mine[li + 1] };
                relax(top, &mine[li], bot, &mut next[li]);
            }
            w.compute((uhi.saturating_sub(ulo) * n) as u64 * CELL_NS);
            std::mem::swap(&mut mine, &mut next);
            // Publish my edge rows for the neighbours' next sweep.
            pt.enter_at(w.now_ns(), "exchange");
            if ulo < uhi {
                w.write_f64s(row(*dst, ulo), &mine[ulo - lo]);
                if uhi - 1 != ulo {
                    w.write_f64s(row(*dst, uhi - 1), &mine[uhi - 1 - lo]);
                }
            }
            pt.enter_at(w.now_ns(), "barrier");
            w.barrier(2);
            pt.close_at(w.now_ns());
        }
        // Write my final rows back for verification.
        for i in lo..hi {
            w.write_f64s(row(cur, i), &mine[i - lo]);
        }
        w.barrier(3);
    } else {
        // Everything through shared memory, every sweep.
        let mut top = vec![0.0f64; n];
        let mut mid = vec![0.0f64; n];
        let mut bot = vec![0.0f64; n];
        let mut out = vec![0.0f64; n];
        let mut src = cur;
        let mut dst = nxt;
        for _ in 0..iters {
            pt.enter_at(w.now_ns(), "compute");
            if ulo < uhi {
                // Prime the three-row window; afterwards each step reads
                // only the new bottom row (rows i-1 and i are still in
                // cache — even naive code gets this from the hardware).
                w.read_f64s(row(src, ulo - 1), &mut top);
                w.read_f64s(row(src, ulo), &mut mid);
            }
            for i in ulo..uhi {
                w.read_f64s(row(src, i + 1), &mut bot);
                relax(&top, &mid, &bot, &mut out);
                w.write_f64s(row(dst, i), &out);
                std::mem::swap(&mut top, &mut mid);
                std::mem::swap(&mut mid, &mut bot);
            }
            w.compute((uhi.saturating_sub(ulo) * n) as u64 * CELL_NS);
            pt.enter_at(w.now_ns(), "barrier");
            w.barrier(2);
            pt.close_at(w.now_ns());
            std::mem::swap(&mut src, &mut dst);
        }
        if src != cur {
            // Make `cur` hold the final state for verification.
            for i in lo..hi {
                w.read_f64s(row(src, i), &mut mid);
                w.write_f64s(row(cur, i), &mid);
            }
        }
        w.barrier(3);
    }

    let total_ns = w.now_ns() - t0;
    let mut checksum = 0u64;
    let mut sample = vec![0.0f64; n];
    for i in [1, n / 2, n - 2] {
        w.read_f64s(row(cur, i), &mut sample);
        for &v in &sample {
            checksum = checksum_f64(checksum, v);
        }
    }
    w.barrier(4);
    BenchResult { total_ns, phases: pt.into_totals(), checksum }
}

/// Sequential reference sweep for tests.
pub fn reference(n: usize, iters: usize) -> Vec<Vec<f64>> {
    let mut cur: Vec<Vec<f64>> = (0..n).map(|i| init_row(n, i)).collect();
    let mut nxt = cur.clone();
    for _ in 0..iters {
        for i in 1..n - 1 {
            let (top, rest) = cur.split_at(i);
            let (mid, bot) = rest.split_at(1);
            relax(&top[i - 1], &mid[0], &bot[0], &mut nxt[i]);
        }
        std::mem::swap(&mut cur, &mut nxt);
    }
    cur
}
