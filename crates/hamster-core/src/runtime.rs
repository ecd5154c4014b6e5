//! HAMSTER bring-up: backend installation, framework message handlers,
//! and the SPMD entry point.

use crate::config::{ClusterConfig, PlatformKind};
use crate::hamster::{Hamster, NodeCore};
use crate::mixed::MixedNode;
use crate::monitor::ModuleStats;
use cluster::{Cluster, NodeCtx, RunReport};
use hybriddsm::{HybridDsm, SmpShared};
use interconnect::{downcast, mailbox, Outcome};
use memwire::Engine;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Weak};
use swdsm::SwDsm;

/// Framework message kinds (0x3xx block) and payloads.
pub(crate) mod kinds {
    use crate::hamster::Hamster;
    use parking_lot::Mutex;

    /// Remote task spawn (request → ack-of-receipt).
    pub const REMOTE_SPAWN: u32 = 0x300;
    /// Remote task completion (one-way to the origin).
    pub const TASK_DONE: u32 = 0x301;
    /// User-level message (one-way; Cluster Control module).
    pub const USER_MSG: u32 = 0x310;
    /// Event signal (one-way; Synchronization module).
    pub const EVENT_SET: u32 = 0x320;

    /// Payload of [`REMOTE_SPAWN`].
    #[allow(clippy::type_complexity)]
    pub struct SpawnMsg {
        pub id: u32,
        pub origin: usize,
        /// The closure, extracted exactly once by the target.
        pub f: Mutex<Option<Box<dyn FnOnce(Hamster) + Send>>>,
    }
}

enum Backend {
    Smp(Arc<SmpShared>),
    Hybrid(Arc<HybridDsm>),
    Sw(Arc<SwDsm>),
    Mixed(Arc<SwDsm>, Arc<HybridDsm>),
}

/// Cluster-shared HAMSTER state.
pub struct RuntimeInner {
    pub(crate) config: ClusterConfig,
    pub(crate) cluster: Cluster,
    backend: Backend,
    next_task: AtomicU32,
    spawned: Mutex<Vec<std::thread::JoinHandle<()>>>,
    weak_self: Weak<RuntimeInner>,
}

impl RuntimeInner {
    pub(crate) fn next_task_id(&self) -> u32 {
        self.next_task.fetch_add(1, Ordering::Relaxed)
    }

    /// Build a [`Hamster`] bound to `ctx`.
    pub(crate) fn hamster(&self, ctx: NodeCtx) -> Hamster {
        let engine: Box<dyn Engine> = match &self.backend {
            Backend::Smp(s) => Box::new(s.node(ctx.clone())),
            Backend::Hybrid(h) => Box::new(h.node(ctx.clone())),
            Backend::Sw(s) => Box::new(s.node(ctx.clone())),
            Backend::Mixed(s, h) => {
                Box::new(MixedNode::new(s.node(ctx.clone()), h.node(ctx.clone())))
            }
        };
        let net = self.cluster.network();
        Hamster {
            core: Arc::new(NodeCore {
                engine,
                ctx,
                caps: self.config.platform.caps(),
                machine: self.config.cost.machine,
                stats: ModuleStats::new()
                    .with_net(net.stats().clone(), net.rtt_histogram()),
                runtime: self.weak_self.clone(),
            }),
        }
    }
}

/// A configured HAMSTER cluster, ready to run SPMD programs.
///
/// ```
/// use hamster_core::{ClusterConfig, PlatformKind, Runtime};
///
/// let rt = Runtime::new(ClusterConfig::new(2, PlatformKind::HybridDsm));
/// let (report, ranks) = rt.run(|ham| {
///     ham.sync().barrier(1);
///     ham.task().rank()
/// });
/// assert_eq!(ranks, vec![0, 1]);
/// assert!(report.sim_time_ns > 0);
/// ```
pub struct Runtime {
    inner: Arc<RuntimeInner>,
}

impl Runtime {
    /// Bring up HAMSTER per `config`: fabric, platform backend, and the
    /// framework's own message handlers. Panics with the error text of
    /// [`Runtime::try_new`].
    pub fn new(config: ClusterConfig) -> Self {
        Self::try_new(config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Runtime::new`], refusing a configuration bring-up cannot apply
    /// with an `Err` naming its key (the same check
    /// [`ClusterConfig::from_config_map`] makes).
    pub fn try_new(config: ClusterConfig) -> Result<Self, String> {
        config.check()?;
        let cluster = Cluster::new(config.fabric());
        let backend = match config.platform {
            PlatformKind::Smp => Backend::Smp(SmpShared::install(&cluster, ())),
            PlatformKind::HybridDsm => {
                Backend::Hybrid(HybridDsm::install(&cluster, config.hybrid))
            }
            PlatformKind::SwDsm => Backend::Sw(SwDsm::install(&cluster, config.dsm)),
            PlatformKind::Mixed => Backend::Mixed(
                SwDsm::install(&cluster, config.dsm),
                HybridDsm::install(&cluster, config.hybrid),
            ),
        };
        // Page homes (the tuner's output) are run configuration, applied
        // at bring-up before any node starts; lock managers reach every
        // platform's driver through the fabric configuration.
        if let Backend::Sw(dsm) | Backend::Mixed(dsm, _) = &backend {
            for &(page, node) in &config.placement.homes {
                swdsm::place_home(dsm, page, node).map_err(|e| format!("config key \"place_home\": {e}"))?;
            }
        }
        let inner = Arc::new_cyclic(|weak| RuntimeInner {
            config,
            cluster,
            backend,
            next_task: AtomicU32::new(1),
            spawned: Mutex::new(Vec::new()),
            weak_self: weak.clone(),
        });
        register_framework_handlers(&inner);
        Ok(Self { inner })
    }

    /// The configuration this runtime was built from.
    pub fn config(&self) -> &ClusterConfig {
        &self.inner.config
    }

    /// Run `f` once per node; each invocation gets that node's
    /// [`Hamster`]. Returns per-node results and the run report.
    pub fn run<T, F>(&self, f: F) -> (RunReport, Vec<T>)
    where
        T: Send,
        F: Fn(&Hamster) -> T + Send + Sync,
    {
        let inner = &self.inner;
        let (report, results) = inner.cluster.run(|ctx| {
            let ham = inner.hamster(ctx);
            f(&ham)
        });
        // Remotely spawned task threads must be quiesced before the
        // report is read (their clocks are siblings, already merged into
        // node clocks via join events).
        for h in self.inner.spawned.lock().drain(..) {
            let _ = h.join();
        }
        (report, results)
    }

    /// The platform backend's native statistics for `node` (the
    /// DSM-level counters beneath the module counters).
    pub fn platform_stats(&self, node: usize) -> std::collections::BTreeMap<&'static str, u64> {
        match &self.inner.backend {
            Backend::Smp(s) => s.stats(node).snapshot(),
            Backend::Hybrid(h) => h.stats(node).snapshot(),
            Backend::Sw(s) => s.stats(node).snapshot(),
            Backend::Mixed(s, _) => s.stats(node).snapshot(),
        }
    }

    /// The word-based engine's statistics in a mixed configuration.
    pub fn word_engine_stats(
        &self,
        node: usize,
    ) -> Option<std::collections::BTreeMap<&'static str, u64>> {
        match &self.inner.backend {
            Backend::Mixed(_, h) | Backend::Hybrid(h) => Some(h.stats(node).snapshot()),
            _ => None,
        }
    }
}

fn register_framework_handlers(inner: &Arc<RuntimeInner>) {
    let net = inner.cluster.network();

    // Remote spawn: start a sibling-CPU thread running the closure.
    let weak = inner.weak_self.clone();
    net.register_all(kinds::REMOTE_SPAWN, |_node| {
        let weak = weak.clone();
        move |ctx: &interconnect::HandlerCtx<'_>, _src, p| {
            let msg = downcast::<kinds::SpawnMsg>(p);
            let rt = weak.upgrade().expect("runtime gone during spawn");
            let f = msg.f.lock().take().expect("spawn closure already taken");
            let node_ctx = rt.cluster.node_ctx(ctx.node).sibling_cpu(ctx.now);
            let ham = rt.hamster(node_ctx.clone());
            let origin = msg.origin;
            let id = msg.id;
            let handle = std::thread::Builder::new()
                .name(format!("hamster-task-{id}"))
                .spawn(move || {
                    f(ham);
                    // Tagged so a lost completion notice tombstones the
                    // origin's join tag instead of hanging the join.
                    node_ctx.port().post_tagged(
                        origin,
                        kinds::TASK_DONE,
                        id,
                        16,
                        mailbox::tag(kinds::TASK_DONE, id),
                    );
                })
                .expect("spawn task thread");
            rt.spawned.lock().push(handle);
            Outcome::reply((), 8)
        }
    });

    // Task completion → origin's mailbox.
    net.register_all(kinds::TASK_DONE, |node| {
        let mb = net.mailbox(node);
        move |ctx: &interconnect::HandlerCtx<'_>, _src, p| {
            let id = downcast::<u32>(p);
            mb.deposit(mailbox::tag(kinds::TASK_DONE, id), Box::new(id), ctx.now);
            Outcome::done()
        }
    });

    // User messages → channel-tagged mailbox.
    net.register_all(kinds::USER_MSG, |node| {
        let mb = net.mailbox(node);
        move |ctx: &interconnect::HandlerCtx<'_>, _src, p| {
            let (channel, msg) = downcast::<(u32, crate::cluster_ctl::UserMsg)>(p);
            mb.deposit(mailbox::tag(kinds::USER_MSG, channel), Box::new(msg), ctx.now);
            Outcome::done()
        }
    });

    // Events → event-tagged mailbox.
    net.register_all(kinds::EVENT_SET, |node| {
        let mb = net.mailbox(node);
        move |ctx: &interconnect::HandlerCtx<'_>, _src, p| {
            let event = downcast::<u32>(p);
            mb.deposit(mailbox::tag(kinds::EVENT_SET, event), Box::new(()), ctx.now);
            Outcome::done()
        }
    });
}

/// Convenience entry point: bring up HAMSTER, run `f` on every node,
/// tear down, and return the run report.
pub fn run_spmd<F>(config: &ClusterConfig, f: F) -> RunReport
where
    F: Fn(&Hamster) + Send + Sync,
{
    let rt = Runtime::new(config.clone());
    let (report, _) = rt.run(|ham| f(ham));
    report
}

#[cfg(test)]
mod tests {
    use cluster::syncproto::driver::Platform;
    use swdsm::Paged;

    #[test]
    fn every_kind_block_of_the_workspace_is_disjoint() {
        // The router refuses a kind registered twice, but only at run
        // time and only between blocks installed on one cluster; this
        // checks every block against every other.
        let runtime = [super::kinds::REMOTE_SPAWN, super::kinds::TASK_DONE, super::kinds::USER_MSG, super::kinds::EVENT_SET];
        let blocks: [(&str, &[u32]); 4] = [
            ("SwDsm sync", &<Paged as Platform>::KINDS.all()),
            ("hybrid/SMP sync", &<() as Platform>::KINDS.all()),
            ("swdsm pages", &swdsm::kinds::ALL),
            ("hamster-core runtime", &runtime),
        ];
        let mut owner = std::collections::HashMap::new();
        for (block, kinds) in blocks {
            for &kind in kinds {
                if let Some(other) = owner.insert(kind, block) {
                    panic!("kind {kind:#x} is in both {other} and {block}");
                }
            }
        }
    }
}
