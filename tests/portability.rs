//! Workspace-level integration: the portability matrix.
//!
//! Every programming model × every platform, one small program each —
//! the full cross product behind the paper's §5.4 claim that models and
//! platforms compose freely through the single HAMSTER core.

use hamster::core::{Access, ClusterConfig, PlatformKind, Runtime};

const PLATFORMS: [PlatformKind; 3] =
    [PlatformKind::Smp, PlatformKind::HybridDsm, PlatformKind::SwDsm];

fn on_each_platform(nodes: usize, f: impl Fn(&hamster::core::Hamster) -> u64 + Send + Sync) {
    let mut results = Vec::new();
    for platform in PLATFORMS {
        let rt = Runtime::new(ClusterConfig::new(nodes, platform));
        let (_, rs) = rt.run(|ham| f(ham));
        assert!(rs.iter().all(|&v| v == rs[0]), "{platform:?}: nodes disagree: {rs:?}");
        results.push(rs[0]);
    }
    assert!(
        results.iter().all(|&v| v == results[0]),
        "platforms disagree: {results:?}"
    );
}

#[test]
fn spmd_model_everywhere() {
    on_each_platform(3, |ham| {
        let spmd = hamster::models::spmd::spmd_begin(ham.clone());
        let arr = spmd.shared_array(12);
        spmd.barrier(1);
        let (lo, hi) = spmd.my_block(12);
        for i in lo..hi {
            spmd.put(&arr, i, (i * i) as f64);
        }
        spmd.barrier(2);
        let mut out = vec![0.0; 12];
        spmd.get_range(&arr, 0, &mut out);
        spmd.spmd_end();
        out.iter().sum::<f64>() as u64
    });
}

#[test]
fn jiajia_model_everywhere() {
    on_each_platform(2, |ham| {
        let jia = hamster::models::jiajia::jia_init(ham.clone());
        let a = jia.jia_alloc(4096);
        jia.jia_barrier();
        jia.jia_lock(1);
        let v = jia.load_u64(a);
        jia.store_u64(a, v + 7);
        jia.jia_unlock(1);
        jia.jia_barrier();
        let out = jia.load_u64(a);
        jia.jia_exit();
        out
    });
}

#[test]
fn hlrc_model_everywhere() {
    on_each_platform(2, |ham| {
        let h = hamster::models::hlrc::hlrc_init(ham.clone());
        let a = h.malloc(4096);
        h.barrier(1);
        if h.my_pid() == 0 {
            h.acquire(2);
            h.write_long(a, 99);
            h.release(2);
        }
        h.barrier(2);
        let v = h.read_long(a);
        h.exit();
        v
    });
}

#[test]
fn shmem_model_everywhere() {
    on_each_platform(4, |ham| {
        let sh = hamster::models::shmem::shmem_init(ham.clone());
        let sym = sh.malloc(128);
        sh.barrier_all();
        sh.long_p(sym, 0, 1 + sh.my_pe() as u64, (sh.my_pe() + 1) % sh.n_pes());
        sh.quiet();
        sh.barrier_all();
        let got = sh.long_g(sym, 0, sh.my_pe());
        sh.finalize();
        // Sum across nodes differs per node; reduce through the model.
        let scratch = sh.malloc(512);
        sh.barrier_all();
        sh.double_sum_to_all(scratch, got as f64) as u64
    });
}

#[test]
fn anl_model_everywhere() {
    on_each_platform(2, |ham| {
        let env = hamster::models::anl::Anl::init(ham.clone());
        let a = env.g_malloc(64);
        let l = env.lock_init();
        let b = env.barrier_init();
        env.barrier(b);
        env.lock(l);
        let v = env.ham().mem().read_u64(a);
        env.ham().mem().write_u64(a, v + 3);
        env.unlock(l);
        env.barrier(b);
        let out = env.ham().mem().read_u64(a);
        env.main_end();
        out
    });
}

#[test]
fn treadmarks_model_everywhere() {
    // Single-node allocation (`Tmk_malloc`) by rank 0 and by a non-zero
    // rank: only the allocator allocates, with no barrier, and the
    // others adopt the distributed address — on every platform,
    // including the two whose collective allocation ends in a barrier.
    let everywhere = [PLATFORMS.as_slice(), &[PlatformKind::Mixed]].concat();
    for platform in everywhere {
        for allocator in [0, 2] {
            let rt = Runtime::new(ClusterConfig::new(4, platform));
            let (_, rs) = rt.run(|ham| {
                let tmk = hamster::models::treadmarks::tmk_startup(ham.clone());
                let a = if tmk.tmk_proc_id() == allocator {
                    let a = tmk.tmk_malloc(4096);
                    tmk.store_u64(a, 1234);
                    tmk.tmk_distribute(a, 4096);
                    a
                } else {
                    tmk.tmk_receive_distribution()
                };
                tmk.tmk_barrier(1);
                let v = tmk.load_u64(a);
                tmk.tmk_exit();
                v
            });
            assert_eq!(rs, vec![1234; 4], "{platform:?}, allocating rank {allocator}");
        }
    }
}

#[test]
fn native_and_hamster_agree_on_results() {
    // The Figure 2 setup must be result-identical, not just
    // overhead-comparable.
    use hamster::apps::world::{run_hamster, run_native};
    let (_, native) = run_native(4, Default::default(), apps_sum);
    let cfg = ClusterConfig::new(4, PlatformKind::SwDsm);
    let (_, ham) = run_hamster(&cfg, apps_sum);
    assert_eq!(native, ham);

    fn apps_sum<W: hamster::apps::World>(w: &W) -> u64 {
        let r = hamster::apps::lu::lu(w, 32);
        r.checksum
    }
}

#[test]
fn virtual_time_ordering_across_platforms() {
    // For a communication-heavy pattern, Ethernet must cost more
    // virtual time than SCI, which must cost more than the SMP.
    let mut times = Vec::new();
    for platform in PLATFORMS {
        let rt = Runtime::new(ClusterConfig::new(4, platform));
        let (report, _) = rt.run(|ham| {
            let r = ham.mem().alloc_default(16 * 4096).unwrap();
            ham.sync().barrier(1);
            for round in 0..8u32 {
                let slot = ((ham.task().rank() as u32 + round) % 16) * 4096;
                ham.mem().write_u64(r.addr().add(slot), round as u64);
                ham.sync().barrier(10 + round);
                let _ = ham.mem().read_u64(r.addr().add(((slot as usize + 4096) % (16 * 4096)) as u32));
            }
        });
        times.push(report.sim_time_ns);
    }
    let (smp, sci, eth) = (times[0], times[1], times[2]);
    assert!(smp < sci, "SMP ({smp}) should beat SCI ({sci})");
    assert!(sci < eth, "SCI ({sci}) should beat Ethernet ({eth})");
}

/// The randomized soak's generator, sequential reference and runner:
/// seeded programs of single-writer byte stores in barrier-separated
/// epochs plus a lock-protected counter contended by everyone.
mod random_programs {
    use hamster::apps::world::{run_hamster, World};
    use hamster::core::{ClusterConfig, Distribution, PlatformKind};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    pub const NODES: usize = 4;
    const SLICE: usize = 2 * 4096 + 512; // deliberately page-misaligned

    #[derive(Clone)]
    pub struct Program {
        writes: Vec<(u8, u8, u32, u8)>, // (epoch, writer, offset, value)
        epochs: u8,
        dist: Distribution,
        counter_rounds: u64,
    }

    pub fn generate(seed: u64) -> Program {
        let mut rng = StdRng::seed_from_u64(seed);
        let epochs = rng.gen_range(2..6);
        let n_writes = rng.gen_range(50..400);
        let writes = (0..n_writes)
            .map(|_| {
                (
                    rng.gen_range(0..epochs),
                    rng.gen_range(0..NODES as u8),
                    rng.gen_range(0..SLICE as u32),
                    rng.gen(),
                )
            })
            .collect();
        let dist = match rng.gen_range(0..4) {
            0 => Distribution::Block,
            1 => Distribution::Cyclic,
            2 => Distribution::BlockCyclic(1 + rng.gen_range(0..3)),
            _ => Distribution::OnNode(rng.gen_range(0..NODES)),
        };
        Program { writes, epochs, dist, counter_rounds: rng.gen_range(1..8) }
    }

    pub fn reference(p: &Program) -> (Vec<u8>, u64) {
        let mut mem = vec![0u8; NODES * SLICE];
        let mut ws = p.writes.clone();
        ws.sort_by_key(|w| w.0);
        for (_, writer, off, val) in ws {
            mem[writer as usize * SLICE + off as usize] = val;
        }
        (mem, p.counter_rounds * NODES as u64)
    }

    pub fn run_on(platform: PlatformKind, p: &Program) -> (Vec<u8>, u64) {
        let cfg = ClusterConfig::new(NODES, platform);
        let p = p.clone();
        let (_, results) = run_hamster(&cfg, move |w| {
            let me = w.rank() as u8;
            let data = w.alloc_dist(NODES * SLICE, p.dist);
            let counter = w.alloc_dist(64, Distribution::Block);
            w.barrier(1);
            for epoch in 0..p.epochs {
                for &(e, writer, off, val) in &p.writes {
                    if e == epoch && writer == me {
                        w.write_bytes(data.add(writer as u32 * SLICE as u32 + off), &[val]);
                    }
                }
                w.barrier(2);
            }
            for _ in 0..p.counter_rounds {
                w.lock(3);
                let v = w.read_u64(counter);
                w.write_u64(counter, v + 1);
                w.unlock(3);
            }
            w.barrier(4);
            let mut image = vec![0u8; NODES * SLICE];
            w.read_bytes(data, &mut image);
            let count = w.read_u64(counter);
            w.barrier(5);
            (image, count)
        });
        for r in &results[1..] {
            assert_eq!(r, &results[0], "nodes disagree on {platform:?}");
        }
        results.into_iter().next().unwrap()
    }
}

/// `place_lock` means the same on every platform: lock 7's manager is
/// node 1 instead of `7 % 4` = 3, so every grant of it is traced there,
/// and the placement is counted there.
#[test]
fn a_placed_lock_is_granted_by_its_manager_on_every_platform() {
    for name in ["smp", "hybrid", "swdsm", "mixed"] {
        let cfg = ClusterConfig::parse(&format!("nodes=4\nplatform={name}\nplace_lock=7:1")).unwrap();
        let session = hamster::sim::trace::TraceSession::begin();
        let rt = Runtime::new(cfg);
        rt.run(|ham| {
            ham.sync().barrier(1);
            for _ in 0..3 {
                ham.sync().lock(7);
                ham.sync().unlock(7);
            }
            ham.sync().barrier(2);
        });
        let events = session.finish();
        let grants: Vec<usize> =
            events.iter().filter(|e| e.op == "lock_grant" && e.arg == 7).map(|e| e.node).collect();
        assert_eq!(grants, [1; 12], "{name}: one grant per acquire, all at the placed manager");
        assert_eq!(rt.platform_stats(1)["tuner_actions"], 1, "{name}");
    }
}

/// The synchronisation driver counts what it does on every platform:
/// under `scalable` (tree barrier), SMP and the hybrid DSM report lock
/// acquires and tree waves as the software DSM does.
#[test]
fn the_driver_counts_tree_waves_everywhere() {
    for name in ["smp", "hybrid"] {
        let cfg = ClusterConfig::parse(&format!("nodes=4\nplatform={name}\nsync=scalable")).unwrap();
        let rt = Runtime::new(cfg);
        assert!(rt.platform_stats(0).contains_key("tree_waves"), "{name} has no \"tree_waves\" counter");
        let total = |counter: &str| (0..4).map(|node| rt.platform_stats(node)[counter]).sum::<u64>();
        rt.run(|ham| {
            ham.sync().barrier(1);
            for _ in 0..5 {
                ham.sync().lock(7);
                ham.sync().unlock(7);
            }
            ham.sync().barrier(2);
        });
        assert!(total("tree_waves") > 0, "{name}: no tree wave was counted");
        assert_eq!(total("lock_acquires"), 20, "{name}");
    }
}

/// Correctness only — image and counter equal the sequential reference
/// on every platform, nodes agree — no timing.
#[test]
fn random_programs_match_the_sequential_reference_on_every_platform() {
    use random_programs::{generate, reference, run_on};
    for seed in 0..5 {
        let program = generate(seed);
        let (expect_mem, expect_count) = reference(&program);
        for platform in PLATFORMS {
            let (mem, count) = run_on(platform, &program);
            assert_eq!(count, expect_count, "seed {seed} on {platform:?}: counter");
            assert!(mem == expect_mem, "seed {seed} on {platform:?}: image differs from the reference");
        }
    }
}
