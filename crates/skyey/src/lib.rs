//! **Skyey** — the baseline the paper compares Stellar against: compute the
//! skyline of *every* non-empty subspace (sharing sorted lists down a
//! depth-first subspace enumeration), then merge the subspace skylines into
//! skyline groups with decisive subspaces.
//!
//! Because it works subspace-by-subspace straight from Definitions 1–2, this
//! crate doubles as the correctness oracle for the Stellar implementation:
//! both must produce structurally identical group sets.
//!
//! ```
//! use skycube_skyey::{skyey_groups, SkyCube};
//! use skycube_types::running_example;
//!
//! let ds = running_example();
//! assert_eq!(skyey_groups(&ds).len(), 8);          // Figure 3(b)
//! assert_eq!(SkyCube::compute(&ds).num_subspaces(), 15);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dfs;
mod groups;
mod skycube;
mod tds;

pub use dfs::{for_each_subspace_skyline, subspace_skylines_par};
pub use groups::{skyey_group_count, skyey_groups, skyey_groups_par};
pub use skycube::{
    skycube_sizes_by_dimensionality, skycube_sizes_by_dimensionality_par, skycube_total_size,
    skycube_total_size_par, SkyCube,
};
pub use skycube_parallel::Parallelism;
pub use tds::{tds_for_each_subspace_skyline, tds_total_size};
