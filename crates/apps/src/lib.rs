#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! The paper's benchmark suite (Table 1) and its workload abstraction.
//!
//! | benchmark | working set (paper)    | module      |
//! |-----------|------------------------|-------------|
//! | MatMult   | 1024×1024 matrices     | [`matmult`] |
//! | PI        | numerical integration  | [`pi`]      |
//! | SOR (+opt)| 1024×1024 grid         | [`sor`]     |
//! | LU        | 1024×1024 matrix       | [`lu`]      |
//! | WATER     | 288 / 343 molecules    | [`water`]   |
//! | IS        | (extra, NAS-style)     | [`is`]      |
//!
//! All benchmarks are written against the [`World`] trait, which has two
//! bindings:
//!
//! * [`world::NativeWorld`] — direct calls into the software DSM,
//!   bypassing HAMSTER entirely. This is the paper's "standard
//!   distribution of JiaJia without modifications" baseline (Figure 2).
//! * [`world::HamsterWorld`] — through the JiaJia programming-model
//!   adapter on top of HAMSTER (the measured configuration of Figure 2,
//!   and — by switching the platform in the configuration — of Figures
//!   3 and 4 as well: identical benchmark code on all platforms).

pub mod is;
pub mod kv;
pub mod lu;
pub mod matmult;
pub mod pi;
pub mod report;
pub mod sor;
pub mod water;
pub mod world;

pub use report::BenchResult;
pub use world::{HamsterWorld, NativeWorld, World};
