#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! A home-based, scope-consistent software DSM in the style of JiaJia.
//!
//! The paper integrates JiaJia (Hu, Shi & Tang, HPCN'99) as its
//! software-DSM substrate for Beowulf clusters (§3.2) because it was the
//! only freely available implementation of Scope Consistency. This crate
//! is a from-scratch reimplementation of that protocol family over the
//! simulated fabric:
//!
//! * **Home-based**: every page has a home node holding the master copy;
//!   remote readers fetch whole pages from the home; writers ship
//!   run-length diffs back to the home at release points.
//! * **Multiple-writer**: concurrent writers to one page each diff
//!   against a pristine twin; disjoint diffs merge at the home.
//! * **Scope consistency**: write notices travel along synchronization
//!   edges — a lock grant carries the notices accumulated under that
//!   lock, a barrier broadcasts the union of everyone's interval — and
//!   receivers invalidate the noticed pages.
//!
//! What this crate implements is the page protocol and the notices:
//! [`Paged`], one data path of the cluster's node engine
//! (`cluster::engine`), which allocates, counts and synchronises for
//! the SMP and the hybrid DSM alike. Its locks and barriers — lock
//! managers, central or tree barrier as the fabric's `SyncTopology`
//! says — are the cluster's one synchronisation driver
//! (`cluster::syncproto::driver`), which [`Paged`] serves as a platform:
//! it names its message kinds and wire sizes and migrates homes at the
//! quiescent point. [`SwDsm`] and [`DsmNode`] are the engine over this
//! path; what only the page protocol has — [`place_home`], [`home_of`],
//! [`rejoin`], [`last_transfer`] — are free functions over them.
//!
//! The crate is usable *natively* (apps call [`DsmNode`] directly), which
//! is exactly the "standard distribution of JiaJia without modifications"
//! baseline of the paper's Figure 2. HAMSTER holds the same [`DsmNode`]
//! as its `memwire::Engine`, adding its service dispatch and the unified
//! messaging layer; the overhead comparison between the two paths is the
//! Figure 2 experiment.
//!
//! Protocol tunables live in [`DsmConfig`]; the defaults match the
//! behaviour described above, and the ablation benches flip
//! [`DsmConfig::whole_page_writeback`] and
//! [`DsmConfig::notices_on_locks`].
//!
//! ```
//! use cluster::{Cluster, FabricConfig, LinkKind};
//! use memwire::{Access, Distribution, Engine};
//! use swdsm::{DsmConfig, SwDsm};
//!
//! let cluster = Cluster::new(FabricConfig::builder().nodes(2).link(LinkKind::Ethernet).build());
//! let dsm = SwDsm::install(&cluster, DsmConfig::default());
//! let (_, results) = cluster.run(|ctx| {
//!     let node = dsm.node(ctx);
//!     let a = node.alloc(4096, Distribution::Block);
//!     if node.rank() == 0 {
//!         node.write_u64(a, 7);
//!     }
//!     node.barrier(1);
//!     node.read_u64(a)
//! });
//! assert_eq!(results, vec![7, 7]);
//! ```

pub mod home;
pub mod kinds;
pub mod paged;
pub mod proto;

pub use memwire::{RegionDir, RegionMeta, LOCAL_REGION_BASE};
pub use home::HomeStore;
pub use paged::{
    home_of, last_transfer, place_home, rejoin, DsmConfig, DsmNode, Paged, PlaceError, SwDsm,
};
