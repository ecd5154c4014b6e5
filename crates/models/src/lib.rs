#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! Programming-model adapters on top of the HAMSTER interface.
//!
//! The paper's central retargetability claim (§4.4, Table 2): a shared
//! memory API is implemented by analyzing its calls and mapping each
//! onto a HAMSTER service — most map directly; the rest decompose into a
//! few services. Every module in this crate is one such *thin* adapter:
//!
//! | module         | models (paper Table 2)                  |
//! |----------------|-----------------------------------------|
//! | [`spmd`]       | the native SPMD model                   |
//! | [`smp_spmd`]   | the SMP/SPMD variant (intra-node tasks) |
//! | [`anl`]        | ANL/PARMACS macros (SPLASH style)       |
//! | [`treadmarks`] | the TreadMarks API                      |
//! | [`hlrc`]       | the HLRC API                            |
//! | [`jiajia`]     | the JiaJia API (subset)                 |
//! | [`pthreads`]   | POSIX-thread-style distributed threads  |
//! | [`win32`]      | Win32-thread-style distributed threads  |
//! | [`shmem`]      | Cray shmem one-sided put/get            |
//! | [`omp`]        | OpenMP-flavoured directives (extension) |
//!
//! The Table 2 experiment (`bench` crate) counts each adapter's lines of
//! code and exported API calls with the paper's comment-stripping
//! methodology.

pub mod adapter;
pub mod anl;
pub mod hlrc;
pub mod jiajia;
pub mod omp;
pub mod pthreads;
pub mod shmem;
pub mod smp_spmd;
pub mod spmd;
pub mod treadmarks;
pub mod waitq;
pub mod win32;
