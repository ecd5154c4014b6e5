//! Framework-level tests: the same program running unmodified on all
//! three platforms, module services, monitoring, forwarding.

use hamster_core::{
    run_spmd, AllocSpec, ClusterConfig, CoherenceReq, Distribution, MemError, PlatformKind,
    Runtime,
};

const PLATFORMS: [PlatformKind; 3] =
    [PlatformKind::Smp, PlatformKind::HybridDsm, PlatformKind::SwDsm];

#[test]
fn identical_program_runs_on_all_three_platforms() {
    // Paper §5.4: only the configuration changes; the code does not.
    for platform in PLATFORMS {
        let cfg = ClusterConfig::new(4, platform);
        let rt = Runtime::new(cfg);
        let (_, results) = rt.run(|ham| {
            let r = ham.mem().alloc_default(4096).unwrap();
            ham.sync().barrier(1);
            if ham.task().rank() == 0 {
                ham.mem().write_u64(r.addr(), 31337);
            }
            ham.cons().barrier_sync(2);
            ham.mem().read_u64(r.addr())
        });
        assert_eq!(results, vec![31337; 4], "platform {platform:?}");
    }
}

#[test]
fn config_file_selects_platform() {
    for (text, expect) in [
        ("nodes=2\nplatform=smp", PlatformKind::Smp),
        ("nodes=2\nplatform=hybrid", PlatformKind::HybridDsm),
        ("nodes=2\nplatform=swdsm", PlatformKind::SwDsm),
    ] {
        let cfg = ClusterConfig::parse(text).unwrap();
        assert_eq!(cfg.platform, expect);
        let report = run_spmd(&cfg, |ham| {
            ham.sync().barrier(7);
        });
        assert_eq!(report.nodes, 2);
    }
}

#[test]
fn config_placement_reaches_the_dsm() {
    // The tuner's output is plain configuration (§5.4): a placement
    // line re-homes region 0's first page and pins lock 1's manager,
    // and the identical program runs correctly with it applied.
    let cfg = ClusterConfig::parse(
        "nodes=4\nplatform=swdsm\nplace_home = 0:0:3\nplace_lock = 1:2",
    )
    .unwrap();
    let rt = Runtime::new(cfg);
    let (_, results) = rt.run(|ham| {
        let r = ham.mem().alloc_default(4096).unwrap();
        ham.sync().barrier(1);
        ham.sync().lock(1);
        let v = ham.mem().read_u64(r.addr());
        ham.mem().write_u64(r.addr(), v + 1);
        ham.sync().unlock(1);
        ham.cons().barrier_sync(2);
        ham.mem().read_u64(r.addr())
    });
    assert_eq!(results, vec![4; 4]);
    let stats = rt.platform_stats(3);
    assert_eq!(stats["pages_rehomed"], 1);
    assert_eq!(rt.platform_stats(2)["tuner_actions"], 1);
}

#[test]
fn capability_probe_differs_by_platform() {
    let probe = |p: PlatformKind| {
        let rt = Runtime::new(ClusterConfig::new(2, p));
        let (_, caps) = rt.run(|ham| ham.mem().probe());
        caps[0]
    };
    let smp = probe(PlatformKind::Smp);
    let hybrid = probe(PlatformKind::HybridDsm);
    let sw = probe(PlatformKind::SwDsm);
    assert!(smp.hardware_coherent && !hybrid.hardware_coherent && !sw.hardware_coherent);
    assert!(sw.page_granularity && !hybrid.page_granularity);
    assert!(hybrid.word_remote_access && !sw.word_remote_access);
}

#[test]
fn coherence_constraint_enforced_via_probe() {
    // HardwareCoherent allocation succeeds on SMP, fails on software DSM.
    let rt = Runtime::new(ClusterConfig::new(2, PlatformKind::Smp));
    let (_, res) = rt.run(|ham| {
        let spec = AllocSpec { dist: Distribution::Block, coherence: CoherenceReq::HardwareCoherent, ..Default::default() };
        ham.mem().alloc(4096, spec).map(|r| r.size())
    });
    assert_eq!(res, vec![Ok(4096), Ok(4096)]);

    let rt = Runtime::new(ClusterConfig::new(2, PlatformKind::SwDsm));
    let (_, res) = rt.run(|ham| {
        let spec = AllocSpec { dist: Distribution::Block, coherence: CoherenceReq::HardwareCoherent, ..Default::default() };
        let e = ham.mem().alloc(4096, spec).err();
        ham.sync().barrier(1); // keep lockstep even though alloc failed
        e
    });
    assert_eq!(res, vec![Some(MemError::UnsupportedCoherence); 2]);
}

#[test]
fn monitoring_counts_module_services() {
    let rt = Runtime::new(ClusterConfig::new(2, PlatformKind::HybridDsm));
    let (_, snaps) = rt.run(|ham| {
        let r = ham.mem().alloc_default(4096).unwrap();
        ham.mem().write_u64(r.addr(), 1);
        let _ = ham.mem().read_u64(r.addr());
        ham.sync().lock(3);
        ham.sync().unlock(3);
        ham.sync().barrier(1);
        (ham.monitor().query("mem"), ham.monitor().query("sync"))
    });
    let (mem, sync) = &snaps[0];
    assert_eq!(mem["allocs"], 1);
    assert_eq!(mem["writes"], 1);
    assert_eq!(mem["reads"], 1);
    assert_eq!(sync["locks"], 1);
    assert_eq!(sync["unlocks"], 1);
    assert!(sync["barriers"] >= 1);
}

#[test]
fn monitor_reset_is_per_module() {
    let rt = Runtime::new(ClusterConfig::new(1, PlatformKind::Smp));
    let (_, _) = rt.run(|ham| {
        let _ = ham.mem().alloc_default(64).unwrap();
        ham.sync().barrier(1);
        ham.monitor().reset("mem");
        assert_eq!(ham.monitor().query("mem")["allocs"], 0);
        assert!(ham.monitor().query("sync")["barriers"] >= 1);
    });
}

#[test]
fn remote_exec_forwards_and_joins() {
    for platform in PLATFORMS {
        let rt = Runtime::new(ClusterConfig::new(3, platform));
        let (_, results) = rt.run(|ham| {
            let r = ham.mem().alloc_default(4096).unwrap();
            ham.sync().barrier(1);
            if ham.task().rank() == 0 {
                // Execute on node 2: write rank^2 into the region under a
                // scope; read it back here under the same scope.
                let addr = r.addr();
                let t = ham.task().remote_exec(2, move |remote| {
                    let me = remote.task().rank() as u64;
                    remote.cons().acquire_scope(11);
                    remote.mem().write_u64(addr, me * me);
                    remote.cons().release_scope(11);
                });
                ham.task().join(t);
                ham.cons().acquire_scope(11);
                let v = ham.mem().read_u64(r.addr());
                ham.cons().release_scope(11);
                ham.sync().barrier(2);
                v
            } else {
                ham.sync().barrier(2);
                0
            }
        });
        assert_eq!(results[0], 4, "platform {platform:?}");
    }
}

#[test]
fn remote_exec_clock_flows_back_through_join() {
    let rt = Runtime::new(ClusterConfig::new(2, PlatformKind::Smp));
    let (_, results) = rt.run(|ham| {
        if ham.task().rank() == 0 {
            let t = ham.task().remote_exec(1, |remote| {
                remote.compute(5_000_000); // 5 ms of remote work
            });
            ham.task().join(t);
            ham.wtime_ns()
        } else {
            0
        }
    });
    assert!(results[0] >= 5_000_000, "join did not wait for remote work: {}", results[0]);
}

#[test]
fn user_messaging_delivers_in_order() {
    let rt = Runtime::new(ClusterConfig::new(2, PlatformKind::SwDsm));
    let (_, results) = rt.run(|ham| {
        if ham.task().rank() == 0 {
            ham.cluster().send(1, 10, vec![6]);
            ham.cluster().send(1, 9, vec![1, 2, 3]);
            ham.cluster().send(1, 9, vec![4, 5]);
            Vec::new()
        } else {
            assert!(ham.cluster().try_recv(8).is_none(), "nothing was sent on channel 8");
            let a = ham.cluster().recv(9);
            let b = ham.cluster().recv(9);
            assert_eq!(a.src, 0);
            // Sent before `a` on the same link, so it is already here.
            let c = ham.cluster().try_recv(10).expect("channel 10 message arrived before `a`");
            vec![a.bytes, b.bytes, c.bytes]
        }
    });
    assert_eq!(results[1], vec![vec![1, 2, 3], vec![4, 5], vec![6]]);
}

#[test]
fn events_wake_waiters() {
    let rt = Runtime::new(ClusterConfig::new(2, PlatformKind::HybridDsm));
    let (_, _) = rt.run(|ham| {
        if ham.task().rank() == 0 {
            ham.compute(100_000);
            ham.sync().set_event(1, 42);
        } else {
            assert!(!ham.sync().try_event(43));
            ham.sync().wait_event(42);
            assert!(ham.wtime_ns() > 100_000);
        }
    });
}

#[test]
fn fetch_add_is_atomic_across_nodes() {
    for platform in PLATFORMS {
        let rt = Runtime::new(ClusterConfig::new(4, platform));
        let (_, results) = rt.run(|ham| {
            let r = ham.mem().alloc_default(64).unwrap();
            ham.sync().barrier(1);
            for _ in 0..10 {
                ham.sync().fetch_add_u64(r.addr(), 1);
                ham.sync().fetch_add_f64(r.addr().add(8), 0.5);
            }
            ham.sync().barrier(2);
            (ham.mem().read_u64(r.addr()), ham.mem().read_f64(r.addr().add(8)))
        });
        assert_eq!(results, vec![(40, 20.0); 4], "platform {platform:?}");
    }
}

#[test]
fn node_info_queries() {
    let rt = Runtime::new(ClusterConfig::new(3, PlatformKind::SwDsm));
    let (_, results) = rt.run(|ham| {
        let info = ham.cluster().node_info(2);
        (ham.cluster().nodes(), info.name.clone(), info.cpus)
    });
    assert_eq!(results[0], (3, "node02".to_string(), 2));
}

#[test]
fn consistency_models_enforce_visibility() {
    use hamster_core::consistency::{by_name, ConsistencyModel};
    for model in ["SC", "RC", "ScC"] {
        let rt = Runtime::new(ClusterConfig::new(2, PlatformKind::SwDsm));
        let (_, results) = rt.run(|ham| {
            let m: Box<dyn ConsistencyModel> = by_name(model).unwrap();
            let r = ham.mem().alloc_default(4096).unwrap();
            m.sync(ham, 1);
            if ham.task().rank() == 0 {
                m.acquire(ham, 5);
                ham.mem().write_u64(r.addr(), 7);
                m.release(ham, 5);
                m.sync(ham, 2);
                7
            } else {
                m.sync(ham, 2);
                m.acquire(ham, 5);
                let v = ham.mem().read_u64(r.addr());
                m.release(ham, 5);
                v
            }
        });
        assert_eq!(results, vec![7, 7], "model {model}");
    }
}

#[test]
fn timing_services_measure_phases() {
    use hamster_core::timing::{PhaseAccumulator, Timer};
    let rt = Runtime::new(ClusterConfig::new(1, PlatformKind::Smp));
    let (_, _) = rt.run(|ham| {
        let t = Timer::start(ham);
        let mut phase = PhaseAccumulator::new();
        phase.enter(ham);
        ham.compute(1_000_000);
        phase.leave(ham);
        ham.compute(500_000);
        phase.enter(ham);
        ham.compute(2_000_000);
        phase.leave(ham);
        assert_eq!(phase.total_ns(), 3_000_000);
        assert!(t.elapsed_ns(ham) >= 3_500_000);
        assert!(t.elapsed_secs(ham) >= 0.0035);
    });
}

#[test]
fn unified_messaging_speeds_up_swdsm_runs() {
    let run = |unified: bool| {
        let mut cfg = ClusterConfig::new(4, PlatformKind::SwDsm);
        cfg.unified_messaging = unified;
        let rt = Runtime::new(cfg);
        let (report, _) = rt.run(|ham| {
            let r = ham.mem().alloc_default(8 * 4096).unwrap();
            ham.sync().barrier(1);
            for i in 0..8u32 {
                if i as usize % ham.task().nodes() == ham.task().rank() {
                    ham.mem().write_u64(r.addr().add(i * 4096), i as u64);
                }
                ham.sync().barrier(10 + i);
            }
            ham.sync().barrier(2);
        });
        report.sim_time_ns
    };
    assert!(run(true) < run(false), "unified messaging should reduce virtual time");
}

#[test]
fn entry_consistency_limits_visibility_to_bound_data() {
    use hamster_core::consistency::{ConsistencyModel, EntryConsistency};
    let rt = Runtime::new(ClusterConfig::new(2, PlatformKind::SwDsm));
    let (_, results) = rt.run(|ham| {
        let ec = EntryConsistency::new();
        let r = ham.mem().alloc_default(4096).unwrap();
        ec.bind(7, r.addr(), 64);
        ham.sync().barrier(1);
        if ham.task().rank() == 0 {
            ec.acquire(ham, 7);
            ec.write_u64(ham, 7, r.addr(), 555);
            ec.release(ham, 7);
            ham.sync().barrier(2);
            555
        } else {
            ham.sync().barrier(2);
            ec.acquire(ham, 7);
            let v = ec.read_u64(ham, 7, r.addr());
            ec.release(ham, 7);
            v
        }
    });
    assert_eq!(results, vec![555, 555]);
}

// The check is a `debug_assert!` on the access path: there is nothing to
// catch where debug assertions are compiled out (`cargo test --release`).
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "entry-consistency violation")]
fn entry_consistency_catches_unbound_access() {
    use hamster_core::consistency::EntryConsistency;
    let rt = Runtime::new(ClusterConfig::new(1, PlatformKind::Smp));
    let (_, _) = rt.run(|ham| {
        let ec = EntryConsistency::new();
        let r = ham.mem().alloc_default(4096).unwrap();
        ec.bind(7, r.addr(), 8);
        // Address 16 is outside the bound range: debug builds must trap.
        ec.write_u64(ham, 7, r.addr().add(16), 1);
    });
}

#[test]
fn composite_models_enforce_what_their_steps_say() {
    use hamster_core::consistency::{Composite, ConsistencyModel, Step};
    // A hand-rolled release-consistency equivalent assembled from steps.
    let rc = Composite::new(
        "custom-rc",
        vec![Step::AcquireScope],
        vec![Step::Flush, Step::ReleaseScope],
        vec![Step::Flush, Step::GlobalSync],
    );
    let rt = Runtime::new(ClusterConfig::new(2, PlatformKind::HybridDsm));
    let (_, results) = rt.run(|ham| {
        let r = ham.mem().alloc_default(64).unwrap();
        rc.sync(ham, 1);
        for _ in 0..5 {
            rc.acquire(ham, 3);
            let v = ham.mem().read_u64(r.addr());
            ham.mem().write_u64(r.addr(), v + 1);
            rc.release(ham, 3);
        }
        rc.sync(ham, 2);
        ham.mem().read_u64(r.addr())
    });
    assert_eq!(results, vec![10, 10]);
}

#[test]
fn readers_overlap_writers_exclude_in_virtual_time() {
    // Four readers holding a read lock for 1 ms each should overlap
    // (max entry spread ≪ 4 ms); four writers must serialize (≥ 1 ms
    // apart).
    for platform in PLATFORMS {
        let measure = |shared: bool| {
            let rt = Runtime::new(ClusterConfig::new(4, platform));
            let (_, entries) = rt.run(|ham| {
                ham.sync().barrier(1);
                if shared {
                    ham.sync().read_lock(9);
                } else {
                    ham.sync().lock(9);
                }
                let t = ham.wtime_ns();
                ham.compute(1_000_000);
                ham.sync().unlock(9);
                ham.sync().barrier(2);
                t
            });
            let (min, max) =
                (entries.iter().min().unwrap(), entries.iter().max().unwrap());
            max - min
        };
        let reader_spread = measure(true);
        let writer_spread = measure(false);
        assert!(
            reader_spread < 1_000_000,
            "{platform:?}: readers should overlap, spread {reader_spread}"
        );
        assert!(
            writer_spread >= 3_000_000,
            "{platform:?}: writers should serialize, spread {writer_spread}"
        );
    }
}

#[test]
fn rwlock_readers_see_writer_updates() {
    let rt = Runtime::new(ClusterConfig::new(3, PlatformKind::SwDsm));
    let (_, results) = rt.run(|ham| {
        let r = ham.mem().alloc_default(64).unwrap();
        ham.sync().barrier(1);
        if ham.task().rank() == 0 {
            ham.sync().lock(4); // writer
            ham.mem().write_u64(r.addr(), 77);
            ham.sync().unlock(4);
            ham.sync().barrier(2);
            77
        } else {
            ham.sync().barrier(2);
            ham.sync().read_lock(4);
            let v = ham.mem().read_u64(r.addr());
            ham.sync().unlock(4);
            v
        }
    });
    assert_eq!(results, vec![77; 3]);
}
