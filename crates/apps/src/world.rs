//! The workload-facing abstraction over "a node of some shared memory
//! system", with native-DSM and HAMSTER bindings.

use hamster_core::Hamster;
use memwire::{Access, Distribution, GlobalAddr};
use models::jiajia::Jia;
use swdsm::DsmNode;

/// What a benchmark needs from the system under test. Implementations
/// must charge virtual time consistently: DSM traffic through their
/// engines, raw computation via [`World::compute`], and private-memory
/// streaming via [`World::private_traffic`].
pub trait World: Sync {
    /// This process's rank.
    fn rank(&self) -> usize;
    /// World size.
    fn nprocs(&self) -> usize;
    /// Collective allocation with a distribution annotation.
    fn alloc_dist(&self, bytes: usize, dist: Distribution) -> GlobalAddr;
    /// Read one f64.
    fn read_f64(&self, a: GlobalAddr) -> f64;
    /// Write one f64.
    fn write_f64(&self, a: GlobalAddr, v: f64);
    /// Read one u64.
    fn read_u64(&self, a: GlobalAddr) -> u64;
    /// Write one u64.
    fn write_u64(&self, a: GlobalAddr, v: u64);
    /// Bulk read of raw bytes.
    fn read_bytes(&self, a: GlobalAddr, out: &mut [u8]);
    /// Bulk write of raw bytes.
    fn write_bytes(&self, a: GlobalAddr, data: &[u8]);
    /// Acquire a global lock.
    fn lock(&self, id: u32);
    /// Release a global lock.
    fn unlock(&self, id: u32);
    /// Global barrier.
    fn barrier(&self, id: u32);
    /// Charge computation time.
    fn compute(&self, ns: u64);
    /// Charge private-memory streaming through this node's bus.
    fn private_traffic(&self, bytes: u64);
    /// Current virtual time.
    fn now_ns(&self) -> u64;

    /// Bulk read of f64s (little-endian, via `read_bytes`).
    fn read_f64s(&self, a: GlobalAddr, out: &mut [f64]) {
        memwire::read_f64s(out, |buf| self.read_bytes(a, buf));
    }

    /// Bulk write of f64s.
    fn write_f64s(&self, a: GlobalAddr, src: &[f64]) {
        memwire::write_f64s(src, |buf| self.write_bytes(a, buf));
    }

    /// The `[lo, hi)` block of `n` items this rank owns.
    fn my_block(&self, n: usize) -> (usize, usize) {
        let per = n.div_ceil(self.nprocs());
        let lo = (self.rank() * per).min(n);
        (lo, (lo + per).min(n))
    }
}

/// Run `f` once per node against the **native** software DSM (no
/// HAMSTER anywhere in the path): the Figure 2 baseline.
pub fn run_native<T: Send>(
    nodes: usize,
    dsm_cfg: swdsm::DsmConfig,
    f: impl Fn(&NativeWorld) -> T + Send + Sync,
) -> (cluster::RunReport, Vec<T>) {
    run_native_sync(nodes, dsm_cfg, cluster::SyncTopology::centralized(), f)
}

/// [`run_native`] with an explicit synchronization topology (tree vs
/// central barriers, digest notices — see `cluster::SyncTopology`).
pub fn run_native_sync<T: Send>(
    nodes: usize,
    dsm_cfg: swdsm::DsmConfig,
    sync: cluster::SyncTopology,
    f: impl Fn(&NativeWorld) -> T + Send + Sync,
) -> (cluster::RunReport, Vec<T>) {
    run_native_cost(nodes, dsm_cfg, sync, sim::CostModel::default(), f)
}

/// [`run_native_sync`] with an explicit cost model (the figure harness
/// pins the Ethernet link rate below bus-window saturation so virtual
/// times are exactly reproducible).
pub fn run_native_cost<T: Send>(
    nodes: usize,
    dsm_cfg: swdsm::DsmConfig,
    sync: cluster::SyncTopology,
    cost: sim::CostModel,
    f: impl Fn(&NativeWorld) -> T + Send + Sync,
) -> (cluster::RunReport, Vec<T>) {
    let fabric = cluster::FabricConfig::builder()
        .nodes(nodes)
        .link(cluster::LinkKind::Ethernet)
        .cost(cost)
        .sync(sync)
        .build();
    let c = cluster::Cluster::new(fabric);
    let dsm = swdsm::SwDsm::install(&c, dsm_cfg);
    c.run(|ctx| f(&NativeWorld::new(dsm.node(ctx))))
}

/// Run `f` once per node on HAMSTER with the given configuration (the
/// platform — SMP, hybrid, software DSM — comes from the config alone).
pub fn run_hamster<T: Send>(
    cfg: &hamster_core::ClusterConfig,
    f: impl Fn(&HamsterWorld) -> T + Send + Sync,
) -> (cluster::RunReport, Vec<T>) {
    let rt = hamster_core::Runtime::new(cfg.clone());
    rt.run(|ham| f(&HamsterWorld::new(ham.clone())))
}

/// Direct binding to the software DSM — the native JiaJia baseline.
pub struct NativeWorld {
    node: DsmNode,
}

impl NativeWorld {
    /// Wrap a bound DSM engine.
    pub fn new(node: DsmNode) -> Self {
        Self { node }
    }
}

impl World for NativeWorld {
    fn rank(&self) -> usize {
        self.node.rank()
    }
    fn nprocs(&self) -> usize {
        self.node.nodes()
    }
    fn alloc_dist(&self, bytes: usize, dist: Distribution) -> GlobalAddr {
        self.node.alloc(bytes, dist)
    }
    fn read_f64(&self, a: GlobalAddr) -> f64 {
        self.node.read_f64(a)
    }
    fn write_f64(&self, a: GlobalAddr, v: f64) {
        self.node.write_f64(a, v)
    }
    fn read_u64(&self, a: GlobalAddr) -> u64 {
        self.node.read_u64(a)
    }
    fn write_u64(&self, a: GlobalAddr, v: u64) {
        self.node.write_u64(a, v)
    }
    fn read_bytes(&self, a: GlobalAddr, out: &mut [u8]) {
        self.node.read_bytes(a, out)
    }
    fn write_bytes(&self, a: GlobalAddr, data: &[u8]) {
        self.node.write_bytes(a, data)
    }
    fn lock(&self, id: u32) {
        self.node.acquire(id)
    }
    fn unlock(&self, id: u32) {
        self.node.release(id)
    }
    fn barrier(&self, _id: u32) {
        // JiaJia exposes a single global barrier; mirror that in the
        // native binding so Figure 2 compares like for like.
        self.node.barrier(0)
    }
    fn compute(&self, ns: u64) {
        self.node.ctx().compute(ns)
    }
    fn private_traffic(&self, bytes: u64) {
        self.node.ctx().bus_transfer(bytes)
    }
    fn now_ns(&self) -> u64 {
        self.node.ctx().clock().now()
    }
}

/// Binding through the JiaJia API adapter on HAMSTER. Which platform
/// actually runs underneath is decided purely by the HAMSTER
/// configuration — the benchmark binaries are identical (paper §5.4).
pub struct HamsterWorld {
    jia: Jia,
}

impl HamsterWorld {
    /// Wrap a HAMSTER node handle.
    pub fn new(ham: Hamster) -> Self {
        Self { jia: models::jiajia::jia_init(ham) }
    }

    /// The HAMSTER handle underneath the JiaJia adapter — for
    /// monitoring and tracing around a benchmark run.
    pub fn ham(&self) -> &Hamster {
        self.jia.ham()
    }

    /// The JiaJia adapter binding itself (e.g. for its call counters).
    pub fn jia(&self) -> &Jia {
        &self.jia
    }
}

impl World for HamsterWorld {
    fn rank(&self) -> usize {
        self.jia.jiapid()
    }
    fn nprocs(&self) -> usize {
        self.jia.jiahosts()
    }
    fn alloc_dist(&self, bytes: usize, dist: Distribution) -> GlobalAddr {
        self.jia.jia_alloc3(bytes, dist)
    }
    fn read_f64(&self, a: GlobalAddr) -> f64 {
        self.jia.load_f64(a)
    }
    fn write_f64(&self, a: GlobalAddr, v: f64) {
        self.jia.store_f64(a, v)
    }
    fn read_u64(&self, a: GlobalAddr) -> u64 {
        self.jia.load_u64(a)
    }
    fn write_u64(&self, a: GlobalAddr, v: u64) {
        self.jia.store_u64(a, v)
    }
    fn read_bytes(&self, a: GlobalAddr, out: &mut [u8]) {
        self.jia.load_bytes(a, out)
    }
    fn write_bytes(&self, a: GlobalAddr, data: &[u8]) {
        self.jia.store_bytes(a, data)
    }
    fn lock(&self, id: u32) {
        self.jia.jia_lock(id)
    }
    fn unlock(&self, id: u32) {
        self.jia.jia_unlock(id)
    }
    fn barrier(&self, _id: u32) {
        self.jia.jia_barrier()
    }
    fn compute(&self, ns: u64) {
        self.jia.ham().compute(ns)
    }
    fn private_traffic(&self, bytes: u64) {
        self.jia.ham().private_traffic(bytes)
    }
    fn now_ns(&self) -> u64 {
        self.jia.ham().wtime_ns()
    }
}
