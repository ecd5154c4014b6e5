//! A distributed task farm written against the POSIX-thread model:
//! thread creation is *forwarded* to the node each worker should run on
//! (the mechanism the paper's §5.2 calls out as the thread adapters'
//! main complexity), and a shared work queue hands out chunks under a
//! mutex.
//!
//! ```sh
//! cargo run --example thread_farm
//! ```

use hamster::core::{Access, ClusterConfig, GlobalAddr, Hamster, PlatformKind, Runtime};
use hamster::models::pthreads::Pthreads;

const TASKS: u64 = 64;

/// One worker: pull task indices from the shared queue until empty,
/// "process" them (a deterministic pseudo-hash), and accumulate into
/// the shared result cell.
fn worker(ham: Hamster, queue: GlobalAddr, result: GlobalAddr) {
    let pt = Pthreads::init(ham.clone());
    let m = pt.mutex_init(1);
    loop {
        // Take the next task index.
        pt.mutex_lock(m);
        let next = ham.mem().read_u64(queue);
        if next >= TASKS {
            pt.mutex_unlock(m);
            return;
        }
        ham.mem().write_u64(queue, next + 1);
        pt.mutex_unlock(m);

        // "Work": fold the task id a few thousand times.
        let mut acc = next;
        for _ in 0..2_000 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        }
        ham.compute(2_000 * 4);

        pt.mutex_lock(m);
        let cur = ham.mem().read_u64(result);
        ham.mem().write_u64(result, cur ^ acc);
        pt.mutex_unlock(m);
    }
}

fn main() {
    let cfg = ClusterConfig::new(4, PlatformKind::SwDsm);
    let rt = Runtime::new(cfg);
    let (report, results) = rt.run(|ham| {
        let pt = Pthreads::init(ham.clone());
        let region = ham.mem().alloc_default(64).unwrap();
        let queue = region.addr();
        let result = region.at(8);
        pt.barrier_wait(1);

        if pt.self_id() == 0 {
            // The master spawns one worker on every other node (the
            // create call forwards to the target node) plus one local.
            let mut threads = Vec::new();
            for node in 0..ham.task().nodes() {
                let (q, r) = (queue, result);
                threads.push(pt.create_on(node, move |remote| worker(remote, q, r)));
            }
            for t in threads {
                pt.join(t);
            }
        }
        pt.barrier_wait(2);
        ham.mem().read_u64(result)
    });

    // Sequential reference.
    let mut expect = 0u64;
    for t in 0..TASKS {
        let mut acc = t;
        for _ in 0..2_000 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        }
        expect ^= acc;
    }
    assert!(results.iter().all(|&r| r == expect), "farm lost or duplicated tasks");
    println!("{} tasks farmed to 4 nodes, checksum {expect:#018x} ✓", TASKS);
    println!("virtual time: {:.3} ms", report.sim_time_ns as f64 / 1e6);
}
