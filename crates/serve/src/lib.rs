//! **Serving-grade query layer** over the workspace's answer engines.
//!
//! The paper's pitch is that the compressed cube makes subspace-skyline
//! queries cheap; this crate is where that pitch meets query traffic. It
//! puts the three ways the workspace answers the paper's query families
//! behind one [`SkylineSource`] trait:
//!
//! - the **indexed Stellar cube** ([`IndexedCubeSource`], backed by
//!   [`skycube_stellar::CubeIndex`]) — the serving path;
//! - the **scan-path Stellar cube** ([`ScanCubeSource`]) — the reference
//!   implementation the index is property-tested against;
//! - **direct computation** from the dataset ([`DirectSource`]) — the
//!   last rung of the fallback ladder and the k ≥ 2 skyband's engine.
//!
//! On top of the trait sit an LRU subspace→skyline cache
//! ([`CachedSource`]) and a batched executor ([`run_batch`]) that fans a
//! parsed workload ([`parse_workload`]) out over `crates/parallel` and
//! reports per-source [`QueryStats`].
//!
//! ```
//! use skycube_serve::{parse_workload, run_batch, Answer, IndexedCubeSource};
//! use skycube_stellar::compute_cube;
//! use skycube_types::running_example;
//! use skycube_parallel::Parallelism;
//!
//! let ds = running_example();
//! let cube = compute_cube(&ds);
//! let source = IndexedCubeSource::new(&cube);
//! let queries = parse_workload("skyline BD\ncount 4\n").unwrap();
//! let outcome = run_batch(&source, &queries, Parallelism::sequential());
//! assert_eq!(outcome.answers[0], Ok(Answer::Skyline(vec![2, 4])));
//! assert_eq!(outcome.answers[1], Ok(Answer::Count(10)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod cache;
pub mod daemon;
mod error;
mod fallback;
#[cfg(feature = "faults")]
pub mod faults;
mod pool;
mod source;
pub mod wal;
mod workload;

pub use batch::{
    format_answer, run_batch, run_batch_with, Answer, BatchOptions, BatchOutcome, QueryStats,
};
pub use cache::{CacheStats, CachedSource, GateOutcome, GenerationGate, SubspaceCache};
pub use daemon::{Daemon, DaemonConfig, DaemonMetrics};
pub use error::ServeError;
pub use fallback::FallbackSource;
pub use pool::{PoolConfig, PoolStream};
pub use source::{
    DirectSource, IndexStats, IndexedCubeSource, RouteStats, ScanCubeSource, SkylineSource,
};
pub use wal::{recover, CheckpointData, Recovery, TornTail, Wal, WalOpen, WalRecord};
pub use workload::{parse_query_line, parse_space, parse_workload, Query};
