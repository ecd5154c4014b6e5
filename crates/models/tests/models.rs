//! End-to-end tests: each programming model running a small program on
//! HAMSTER, across platforms where meaningful.

use hamster_core::{ClusterConfig, PlatformKind, Runtime};

const PLATFORMS: [PlatformKind; 3] =
    [PlatformKind::Smp, PlatformKind::HybridDsm, PlatformKind::SwDsm];

#[test]
fn jiajia_counter_and_barrier() {
    for platform in PLATFORMS {
        let rt = Runtime::new(ClusterConfig::new(3, platform));
        let (_, results) = rt.run(|ham| {
            let jia = models::jiajia::jia_init(ham.clone());
            let a = jia.jia_alloc(4096);
            jia.jia_barrier();
            for _ in 0..4 {
                jia.jia_lock(1);
                let v = jia.load_u64(a);
                jia.store_u64(a, v + 1);
                jia.jia_unlock(1);
            }
            jia.jia_barrier();
            let v = jia.load_u64(a);
            assert!(jia.jia_clock() > 0.0);
            jia.jia_exit();
            v
        });
        assert_eq!(results, vec![12; 3], "platform {platform:?}");
    }
}

#[test]
fn treadmarks_single_node_alloc_and_distribute() {
    let rt = Runtime::new(ClusterConfig::new(3, PlatformKind::SwDsm));
    let (_, results) = rt.run(|ham| {
        let tmk = models::treadmarks::tmk_startup(ham.clone());
        assert_eq!(tmk.tmk_nprocs(), 3);
        let a = if tmk.tmk_proc_id() == 0 {
            let a = tmk.tmk_malloc(4096);
            tmk.store_f64(a, 2.5);
            tmk.tmk_distribute(a, 4096);
            a
        } else {
            tmk.tmk_receive_distribution()
        };
        tmk.tmk_barrier(1);
        let v = tmk.load_f64(a);
        tmk.tmk_exit();
        v
    });
    assert_eq!(results, vec![2.5; 3]);
}

#[test]
fn treadmarks_locks_protect_updates() {
    let rt = Runtime::new(ClusterConfig::new(2, PlatformKind::SwDsm));
    let (_, results) = rt.run(|ham| {
        let tmk = models::treadmarks::tmk_startup(ham.clone());
        let a = if tmk.tmk_proc_id() == 0 {
            let a = tmk.tmk_malloc(64);
            tmk.tmk_distribute(a, 64);
            a
        } else {
            tmk.tmk_receive_distribution()
        };
        tmk.tmk_barrier(1);
        for _ in 0..6 {
            tmk.tmk_lock_acquire(2);
            let v = tmk.load_u64(a);
            tmk.store_u64(a, v + 1);
            tmk.tmk_lock_release(2);
        }
        tmk.tmk_barrier(2);
        let v = tmk.load_u64(a);
        tmk.tmk_exit();
        v
    });
    assert_eq!(results, vec![12; 2]);
}

#[test]
fn hlrc_full_surface() {
    let rt = Runtime::new(ClusterConfig::new(2, PlatformKind::SwDsm));
    let (_, results) = rt.run(|ham| {
        let h = models::hlrc::hlrc_init(ham.clone());
        let a = h.malloc_home(4096, 1);
        h.barrier(1);
        if h.my_pid() == 0 {
            h.acquire(1);
            h.write_double(a, 1.5);
            h.write_long(a.add(8), 7);
            h.memput(a.add(16), &[1, 2, 3]);
            h.release(1);
        }
        h.barrier(2);
        let mut buf = [0u8; 3];
        h.memget(a.add(16), &mut buf);
        let stats = h.stat_query("mem");
        assert!(stats["reads"] + stats["writes"] > 0);
        h.stat_reset("mem");
        let stats = h.stat_query("mem");
        assert_eq!(stats["reads"] + stats["writes"], 0);
        assert!(h.time() > 0.0);
        let out = (h.read_double(a), h.read_long(a.add(8)), buf);
        h.exit();
        out
    });
    for r in results {
        assert_eq!(r, (1.5, 7, [1, 2, 3]));
    }
}

#[test]
fn spmd_reductions_and_ranges() {
    for platform in PLATFORMS {
        let rt = Runtime::new(ClusterConfig::new(4, platform));
        let (_, results) = rt.run(|ham| {
            let spmd = models::spmd::spmd_begin(ham.clone());
            let data = spmd.shared_array(64);
            let scratch = spmd.shared_array(16);
            spmd.barrier(1);
            let (lo, hi) = spmd.my_block(64);
            let mine: Vec<f64> = (lo..hi).map(|i| i as f64).collect();
            spmd.put_range(&data, lo, &mine);
            spmd.barrier(2);
            let mut all = vec![0.0; 64];
            spmd.get_range(&data, 0, &mut all);
            let local_sum: f64 = all.iter().sum();
            let reduced = spmd.reduce_sum(&scratch, spmd.my_rank() as f64);
            let bcast = spmd.broadcast(&scratch, 2, 99.0);
            spmd.spmd_end();
            (local_sum, reduced, bcast)
        });
        for r in &results {
            assert_eq!(r.0, (0..64).sum::<usize>() as f64, "platform {platform:?}");
            assert_eq!(r.1, 6.0);
            assert_eq!(r.2, 99.0);
        }
    }
}

#[test]
fn anl_macros_compile_and_run() {
    let rt = Runtime::new(ClusterConfig::new(2, PlatformKind::HybridDsm));
    let (_, results) = rt.run(|ham| {
        let env = models::MAIN_INITENV!(ham.clone());
        let a = models::G_MALLOC!(env, 4096);
        let l = env.lock_init();
        let b = env.barrier_init();
        models::BARRIER!(env, b);
        models::LOCK!(env, l);
        let v = env.ham().mem().read_u64(a);
        env.ham().mem().write_u64(a, v + 1);
        models::UNLOCK!(env, l);
        // ALOCK/AULOCK: element 3 of the lock array based at `l`.
        env.alock(l, 3);
        let v = env.ham().mem().read_u64(a);
        env.ham().mem().write_u64(a, v + 1);
        env.aulock(l, 3);
        models::BARRIER!(env, b);
        let t = models::CLOCK!(env);
        assert!(t > 0);
        let v = env.ham().mem().read_u64(a);
        models::MAIN_END!(env);
        v
    });
    assert_eq!(results, vec![4, 4]);
}

#[test]
fn pthreads_create_join_and_mutex() {
    for platform in [PlatformKind::Smp, PlatformKind::SwDsm] {
        let rt = Runtime::new(ClusterConfig::new(3, platform));
        let (_, results) = rt.run(|ham| {
            let pt = models::pthreads::Pthreads::init(ham.clone());
            let region = ham.mem().alloc_default(64).unwrap();
            let m = pt.mutex_init(1);
            pt.barrier_wait(1);
            if pt.self_id() == 0 {
                // Two remote threads increment the shared counter.
                let addr = region.addr();
                let mk = |_| {
                    move |remote: hamster_core::Hamster| {
                        let pt2 = models::pthreads::Pthreads::init(remote);
                        let m2 = pt2.mutex_init(1);
                        for _ in 0..5 {
                            pt2.mutex_lock(m2);
                            let v = pt2.ham().mem().read_u64(addr);
                            pt2.ham().mem().write_u64(addr, v + 1);
                            pt2.mutex_unlock(m2);
                        }
                    }
                };
                let t1 = pt.create_on(1, mk(1));
                let t2 = pt.create_on(2, mk(2));
                pt.join(t1);
                pt.join(t2);
            }
            pt.barrier_wait(2);
            pt.mutex_lock(m);
            let v = ham.mem().read_u64(region.addr());
            pt.mutex_unlock(m);
            v
        });
        assert_eq!(results, vec![10; 3], "platform {platform:?}");
    }
}

#[test]
fn pthreads_condvar_producer_consumer() {
    for broadcast in [false, true] {
        let rt = Runtime::new(ClusterConfig::new(2, PlatformKind::Smp));
        let (_, results) = rt.run(|ham| {
            let pt = models::pthreads::Pthreads::init(ham.clone());
            let flag = ham.mem().alloc_default(64).unwrap();
            let m = pt.mutex_init(3);
            let c = pt.cond_init();
            pt.barrier_wait(1);
            if pt.self_id() == 1 {
                // Consumer: wait until the flag is set.
                pt.mutex_lock(m);
                while pt.ham().mem().read_u64(flag.addr()) == 0 {
                    pt.cond_wait(c, m);
                }
                let v = pt.ham().mem().read_u64(flag.addr());
                pt.mutex_unlock(m);
                v
            } else {
                // Producer: set after some virtual work.
                ham.compute(2_000_000);
                pt.mutex_lock(m);
                pt.ham().mem().write_u64(flag.addr(), 5);
                if broadcast {
                    pt.cond_broadcast(c);
                } else {
                    pt.cond_signal(c);
                }
                pt.mutex_unlock(m);
                0
            }
        });
        assert_eq!(results[1], 5, "broadcast: {broadcast}");
    }
}

#[test]
fn win32_threads_events_and_semaphores() {
    let rt = Runtime::new(ClusterConfig::new(2, PlatformKind::Smp));
    let (_, results) = rt.run(|ham| {
        let w = models::win32::Win32::init(ham.clone());
        let counter = ham.mem().alloc_default(64).unwrap();
        let ev = w.create_event(false, 1);
        let latch = w.create_event(true, 2);
        let sem = w.create_semaphore(0, 1);
        ham.sync().barrier(1);
        if w.current_node() == 0 {
            let addr = counter.addr();
            let t = w.create_thread_on(1, move |remote| {
                let w2 = models::win32::Win32::init(remote);
                w2.interlocked_increment(addr);
                w2.interlocked_increment(addr);
            });
            w.wait_for_single_object(t); // join
            // Round-robin placement: the next node, which is node 1 again
            // (so only once the first thread is done — one node's threads
            // share its lock client).
            let t2 = w.create_thread(move |remote| {
                models::win32::Win32::init(remote).interlocked_increment(addr);
            });
            w.wait_for_single_object(t2);
            w.set_event(ev);
            w.release_semaphore(sem, 2);
            w.close_handle(t);
            // A manual-reset event stays signalled until it is reset.
            w.set_event(latch);
            w.wait_for_single_object(latch);
            w.reset_event(latch);
            ham.sync().barrier(2);
            ham.compute(1_000_000);
            w.set_event(latch);
            ham.mem().read_u64(counter.addr())
        } else {
            // bWaitAll: the event, then semaphore P twice.
            w.wait_for_multiple_objects(&[ev, sem, sem]);
            ham.sync().barrier(2);
            let t0 = ham.wtime_ns();
            w.wait_for_single_object(latch); // reset above: blocks until the second SetEvent
            assert!(ham.wtime_ns() - t0 >= 900_000, "ResetEvent left the latch signalled");
            ham.mem().read_u64(counter.addr())
        }
    });
    assert_eq!(results, vec![3, 3]);
}

#[test]
fn win32_mutex_protects() {
    let rt = Runtime::new(ClusterConfig::new(3, PlatformKind::HybridDsm));
    let (_, results) = rt.run(|ham| {
        let w = models::win32::Win32::init(ham.clone());
        let region = ham.mem().alloc_default(64).unwrap();
        let m = w.create_mutex(7);
        ham.sync().barrier(1);
        for _ in 0..5 {
            w.wait_for_single_object(m);
            let v = ham.mem().read_u64(region.addr());
            ham.mem().write_u64(region.addr(), v + 1);
            w.release_mutex(m);
        }
        ham.sync().barrier(2);
        ham.mem().read_u64(region.addr())
    });
    assert_eq!(results, vec![15; 3]);
}

#[test]
fn shmem_put_get_symmetric() {
    for platform in PLATFORMS {
        let rt = Runtime::new(ClusterConfig::new(4, platform));
        let (_, results) = rt.run(|ham| {
            let sh = models::shmem::shmem_init(ham.clone());
            let sym = sh.malloc(256);
            sh.barrier_all();
            // Each PE puts its id into its right neighbour's slot 0.
            let right = (sh.my_pe() + 1) % sh.n_pes();
            sh.long_p(sym, 0, sh.my_pe() as u64, right);
            sh.quiet();
            sh.barrier_all();
            let got = sh.long_g(sym, 0, sh.my_pe());
            sh.finalize();
            (got, sh.my_pe())
        });
        for (got, me) in results {
            let left = (me + 4 - 1) % 4;
            assert_eq!(got, left as u64, "platform {platform:?}");
        }
    }
}

#[test]
fn shmem_reduction_and_broadcast() {
    let rt = Runtime::new(ClusterConfig::new(4, PlatformKind::HybridDsm));
    let (_, results) = rt.run(|ham| {
        let sh = models::shmem::shmem_init(ham.clone());
        let scratch = sh.malloc(512);
        sh.barrier_all();
        let sum = sh.double_sum_to_all(scratch, (sh.my_pe() + 1) as f64);
        let b = sh.broadcast64(scratch, 3, 4242);
        sh.finalize();
        (sum, b)
    });
    for (sum, b) in results {
        assert_eq!(sum, 10.0);
        assert_eq!(b, 4242);
    }
}

#[test]
fn shmem_bulk_transfers() {
    let rt = Runtime::new(ClusterConfig::new(2, PlatformKind::SwDsm));
    let (_, results) = rt.run(|ham| {
        let sh = models::shmem::shmem_init(ham.clone());
        let sym = sh.malloc(8192);
        sh.barrier_all();
        if sh.my_pe() == 0 {
            let data: Vec<u8> = (0..4096).map(|i| (i % 200) as u8).collect();
            sh.putmem(sym, 0, &data, 1);
            sh.quiet();
        }
        sh.barrier_all();
        let ok = if sh.my_pe() == 1 {
            let mut out = vec![0u8; 4096];
            sh.getmem(sym, 0, &mut out, 1);
            out.iter().enumerate().all(|(i, &b)| b == (i % 200) as u8)
        } else {
            true
        };
        sh.finalize();
        ok
    });
    assert_eq!(results, vec![true, true]);
}

#[test]
fn smp_spmd_workers_split_work() {
    let rt = Runtime::new(ClusterConfig::new(2, PlatformKind::Smp));
    let (_, results) = rt.run(|ham| {
        let model = models::smp_spmd::smp_spmd_begin(ham.clone());
        let arr = model.shared_array(32);
        model.barrier(1);
        let (lo, hi) = model.spmd().my_block(32);
        let region = arr.region();
        model.parallel_halves(lo, hi, move |h, a, b| {
            for i in a..b {
                h.mem().write_f64(region.addr().add((i * 8) as u32), i as f64);
            }
        });
        model.barrier(2);
        let mut out = vec![0.0; 32];
        model.spmd().get_range(&arr, 0, &mut out);
        model.end();
        out.iter().enumerate().all(|(i, &v)| v == i as f64)
    });
    assert_eq!(results, vec![true, true]);
}

#[test]
fn omp_worksharing_and_reductions() {
    for platform in PLATFORMS {
        let rt = Runtime::new(ClusterConfig::new(3, platform));
        let (_, results) = rt.run(|ham| {
            let omp = models::omp::omp_init(ham.clone());
            let data = ham.mem().alloc_default(64 * 8).unwrap();
            omp.parallel(|omp| {
                // Static loop: each thread writes its chunk.
                omp.for_static(0, 64, |i| {
                    ham.mem().write_u64(data.at(i * 8), (i * 3) as u64);
                });
                // Reduction over each thread's partial sum.
                let mut partial = 0.0;
                omp.for_static(0, 64, |i| {
                    partial += ham.mem().read_u64(data.at(i * 8)) as f64;
                });
                let total = omp.reduction_sum(partial);
                assert_eq!(total, (0..64).map(|i| i * 3).sum::<usize>() as f64);
            });
            // Dynamic loop with critical-section accumulation.
            let acc = ham.mem().alloc_default(64).unwrap();
            omp.parallel(|omp| {
                omp.for_dynamic(0, 40, 4, |_| {
                    omp.critical(1, || {
                        let v = ham.mem().read_u64(acc.addr());
                        ham.mem().write_u64(acc.addr(), v + 1);
                    });
                });
            });
            ham.mem().read_u64(acc.addr())
        });
        assert_eq!(results, vec![40; 3], "platform {platform:?}");
    }
}

#[test]
fn omp_single_and_atomic() {
    let rt = Runtime::new(ClusterConfig::new(4, PlatformKind::SwDsm));
    let (_, results) = rt.run(|ham| {
        let omp = models::omp::omp_init(ham.clone());
        let cell = ham.mem().alloc_default(64).unwrap();
        omp.parallel(|omp| {
            omp.single(|| {
                ham.mem().write_u64(cell.addr(), 100);
            });
            // Everyone sees the single's effect, then adds atomically.
            omp.atomic_add(cell.addr(), 1);
            // Thread 0 alone, with no implied barrier.
            omp.master(|| {
                omp.atomic_add(cell.addr(), 10);
            });
            omp.barrier();
        });
        ham.mem().read_u64(cell.addr())
    });
    assert_eq!(results, vec![114; 4]);
}

#[test]
fn pthreads_rwlock_semantics() {
    let rt = Runtime::new(ClusterConfig::new(3, PlatformKind::HybridDsm));
    let (_, results) = rt.run(|ham| {
        let pt = models::pthreads::Pthreads::init(ham.clone());
        let cell = ham.mem().alloc_default(64).unwrap();
        let rw = pt.rwlock_init(1);
        pt.barrier_wait(1);
        if pt.self_id() == 0 {
            pt.rwlock_wrlock(rw);
            ham.mem().write_u64(cell.addr(), 42);
            pt.rwlock_unlock(rw);
            pt.barrier_wait(2);
            42
        } else {
            pt.barrier_wait(2);
            pt.rwlock_rdlock(rw);
            let v = ham.mem().read_u64(cell.addr());
            pt.rwlock_unlock(rw);
            v
        }
    });
    assert_eq!(results, vec![42; 3]);
}
