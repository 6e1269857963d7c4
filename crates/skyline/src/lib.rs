//! Single-space skyline algorithms — the substrate both Stellar (full-space
//! skyline / seed computation) and the Skyey baseline (per-subspace skylines)
//! are built on.
//!
//! Four interchangeable algorithms are provided, all returning the identical
//! set (ascending object ids): a naive O(n²) oracle, block nested loops
//! ([BNL][skyline_bnl]), sort-first skyline ([SFS][skyline_sfs]) with either
//! a sum or a lexicographic topological key, and divide & conquer
//! ([D&C][skyline_dnc]). They correspond to the paper's related work [1, 2]
//! and serve as the baselines of the skyline substrate.
//!
//! ```
//! use skycube_skyline::{skyline, Algorithm};
//! use skycube_types::{running_example, DimMask};
//!
//! let ds = running_example();
//! // Full-space skyline of the paper's running example: P2, P4, P5.
//! assert_eq!(skyline(&ds, ds.full_space()), vec![1, 3, 4]);
//! assert_eq!(Algorithm::Bnl.run(&ds, DimMask::parse("BD").unwrap()),
//!            Algorithm::Naive.run(&ds, DimMask::parse("BD").unwrap()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bbs;
mod bitmap;
mod bnl;
mod dnc;
mod kdominant;
mod less;
mod naive;
mod parallel;
mod rtree;
mod salsa;
mod sfs;
mod skyband;

pub use bbs::{skyline_bbs, skyline_bbs_indexed};
pub use bitmap::{skyline_bitmap, BitSet, BitmapIndex};
pub use bnl::skyline_bnl;
pub use dnc::skyline_dnc;
pub use kdominant::{k_dominant_skyline, k_dominates};
pub use less::skyline_less;
pub use naive::skyline_naive;
pub use parallel::skyline_parallel;
pub use rtree::{Mbr, Node, RTree, NODE_CAPACITY};
pub use salsa::{skyline_salsa, skyline_salsa_counting};
pub use sfs::{filter_presorted, skyline_sfs, skyline_sfs_with, SortKey};
pub use skyband::{constrained_skyline, k_skyband, Ranges};

pub use skycube_parallel::Parallelism;
use skycube_types::{Dataset, DimMask, ObjId};

/// Algorithm selector for dynamic choice (benchmarks, builder configs).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Algorithm {
    /// O(n²) pairwise oracle.
    Naive,
    /// Block nested loops.
    Bnl,
    /// Sort-first skyline with sum key (the default — robust all-rounder).
    #[default]
    Sfs,
    /// Sort-first skyline with lexicographic key.
    SfsLex,
    /// Divide and conquer.
    Dnc,
    /// Linear elimination sort for skyline (Godfrey et al., VLDB'05).
    Less,
    /// Branch-and-bound skyline over a bulk-loaded R-tree (Papadias et al.,
    /// SIGMOD'03). Builds the index per call; see [`skyline_bbs_indexed`]
    /// to amortize the build over many subspace queries.
    Bbs,
    /// Sort-and-limit skyline (SaLSa) with an early stop condition.
    Salsa,
    /// Bitmap skyline via rank bitslices (Tan et al., VLDB'01). Builds the
    /// bitmap per call; see [`BitmapIndex`] to amortize. Memory-hungry on
    /// high-cardinality domains.
    Bitmap,
    /// Partitioned parallel SFS over [`Parallelism::available`] threads
    /// (chunked local skylines, pairwise cross-filter merge). Same output
    /// as every other variant; see [`skyline_parallel`] to pick the
    /// thread count explicitly.
    Parallel,
}

impl Algorithm {
    /// Run this algorithm on `ds` restricted to `space`.
    pub fn run(self, ds: &Dataset, space: DimMask) -> Vec<ObjId> {
        match self {
            Algorithm::Naive => skyline_naive(ds, space),
            Algorithm::Bnl => skyline_bnl(ds, space),
            Algorithm::Sfs => skyline_sfs_with(ds, space, SortKey::Sum),
            Algorithm::SfsLex => skyline_sfs_with(ds, space, SortKey::Lex),
            Algorithm::Dnc => skyline_dnc(ds, space),
            Algorithm::Less => skyline_less(ds, space),
            Algorithm::Bbs => skyline_bbs(ds, space),
            Algorithm::Salsa => skyline_salsa(ds, space),
            Algorithm::Bitmap => skyline_bitmap(ds, space),
            Algorithm::Parallel => skyline_parallel(ds, space, Parallelism::available()),
        }
    }

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Naive => "naive",
            Algorithm::Bnl => "bnl",
            Algorithm::Sfs => "sfs-sum",
            Algorithm::SfsLex => "sfs-lex",
            Algorithm::Dnc => "dnc",
            Algorithm::Less => "less",
            Algorithm::Bbs => "bbs",
            Algorithm::Salsa => "salsa",
            Algorithm::Bitmap => "bitmap",
            Algorithm::Parallel => "parallel",
        }
    }

    /// All selectable algorithms (for exhaustive tests/benches).
    pub const ALL: [Algorithm; 10] = [
        Algorithm::Naive,
        Algorithm::Bnl,
        Algorithm::Sfs,
        Algorithm::SfsLex,
        Algorithm::Dnc,
        Algorithm::Less,
        Algorithm::Bbs,
        Algorithm::Salsa,
        Algorithm::Bitmap,
        Algorithm::Parallel,
    ];
}

/// Compute the skyline of `space` with the default algorithm (SFS).
pub fn skyline(ds: &Dataset, space: DimMask) -> Vec<ObjId> {
    Algorithm::default().run(ds, space)
}

#[cfg(test)]
mod tests {
    use super::*;
    use skycube_types::running_example;

    #[test]
    fn all_algorithms_agree_on_running_example() {
        let ds = running_example();
        for space in ds.full_space().subsets() {
            let expect = skyline_naive(&ds, space);
            for alg in Algorithm::ALL {
                assert_eq!(alg.run(&ds, space), expect, "{} on {space}", alg.name());
            }
        }
    }

    #[test]
    fn names_are_distinct() {
        let mut names: Vec<&str> = Algorithm::ALL.iter().map(|a| a.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), Algorithm::ALL.len());
    }
}
