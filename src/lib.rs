//! # skycube
//!
//! A Rust implementation of *Computing Compressed Multidimensional Skyline
//! Cubes Efficiently* (Pei, Fu, Lin, Wang — ICDE 2007): the **Stellar**
//! algorithm for computing all skyline groups and their decisive subspaces
//! from the full-space skyline alone, the **Skyey** all-subspace baseline,
//! the single-space skyline substrate, the paper's workload generators, and
//! a benchmark harness reproducing every figure of the evaluation.
//!
//! This crate is a facade that re-exports the workspace's public API:
//!
//! - [`types`] — values, dimension masks, datasets, skyline groups;
//! - [`algorithms`] — single-space skylines: LESS, the k-skyband and the
//!   naive oracle;
//! - [`stellar`] — the compressed-skyline-cube computation and query API;
//! - [`skyey`] — the baseline and oracle;
//! - [`datagen`] — synthetic workloads (Börzsönyi distributions, NBA-like);
//! - [`serve`] — the serving-grade query layer: one [`serve::SkylineSource`]
//!   trait over every engine, an LRU subspace cache, a batch executor.
//!
//! ## Quickstart
//!
//! ```
//! use skycube::prelude::*;
//!
//! // The paper's running example (Figure 2): five objects in space ABCD.
//! let ds = running_example();
//! let cube = compute_cube(&ds);
//!
//! // Which objects are in the skyline of subspace BD?
//! let bd = DimMask::parse("BD").unwrap();
//! assert_eq!(cube.subspace_skyline(bd), vec![2, 4]); // P3 and P5
//!
//! // Why is P5 a skyline object there? Its group and decisive subspaces:
//! let sigs: Vec<String> = cube.groups_of(4).map(|g| g.signature(&ds)).collect();
//! assert!(sigs.contains(&"(P3P5, (*,4,9,3), BD)".to_string()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use skycube_datagen as datagen;
pub use skycube_parallel as parallel;
pub use skycube_serve as serve;
pub use skycube_skyey as skyey;
pub use skycube_skyline as algorithms;
pub use skycube_stellar as stellar;
pub use skycube_types as types;

/// One-stop imports for applications.
pub mod prelude {
    pub use skycube_datagen::{generate, nba_table, nba_table_sized, Distribution};
    pub use skycube_parallel::Parallelism;
    pub use skycube_serve::{
        format_answer, parse_workload, recover, run_batch, run_batch_with, Answer, BatchOptions,
        CachedSource, Daemon, DaemonConfig, DaemonMetrics, DirectSource, FallbackSource,
        IndexedCubeSource, PoolConfig, Query, Recovery, ScanCubeSource, ServeError, SkylineSource,
        TornTail, Wal, WalOpen, WalRecord,
    };
    pub use skycube_skyey::{skyey_groups, SkyCube};
    pub use skycube_skyline::{skyline, Algorithm};
    pub use skycube_stellar::{
        compute_cube, CompressedSkylineCube, GroupLattice, Stellar, StellarEngine,
    };
    pub use skycube_types::{
        running_example, ColumnView, Dataset, DimMask, ObjId, Order, SkylineGroup, Value,
    };
}
