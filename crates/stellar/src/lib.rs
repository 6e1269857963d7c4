//! **Stellar** — the paper's algorithm for computing compressed
//! multidimensional skyline cubes (skyline groups + decisive subspaces)
//! *without searching any subspace other than the full space*.
//!
//! Pipeline (Figure 7 of the paper):
//! 1. compute the full-space skyline — the *seed* objects — populating the
//!    dominance/coincidence matrices as a byproduct ([`SeedView`]);
//! 2. enumerate the maximal c-groups of the seeds by a set-enumeration
//!    closure search ([`maximal_cgroups`], Figure 6);
//! 3. derive each group's decisive subspaces as the minimal transversals of
//!    its dominance clauses ([`ClauseSet`], Corollary 1), dropping groups
//!    with an empty clause (Theorem 3);
//! 4. extend the resulting *seed lattice* — a quotient of the full lattice
//!    (Theorem 2) — with the non-seed objects ([`extend_to_full`],
//!    Theorem 5).
//!
//! ```
//! use skycube_stellar::compute_cube;
//! use skycube_types::{running_example, DimMask};
//!
//! let ds = running_example();
//! let cube = compute_cube(&ds);
//! assert_eq!(cube.num_groups(), 8); // Figure 3(b)
//! assert_eq!(cube.subspace_skyline(DimMask::parse("B").unwrap()),
//!            vec![2, 3, 4]); // P3, P4, P5
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod audit;
mod cgroups;
mod cube;
mod explain;
mod extend;
mod index;
mod lattice;
mod maintenance;
mod matrices;
mod persist;
mod seeds;
mod transversal;

pub use analysis::{lattice_to_dot, subspace_group_partition, subspace_report, CompressionStats};
pub use audit::{audit_cube, AuditConfig, AuditError};
pub use cgroups::maximal_cgroups_par;
pub use cgroups::{maximal_cgroups, MaxCGroup};
pub use cube::CompressedSkylineCube;
pub use explain::{explain, explain_text, Explanation};
pub use extend::{extend_to_full, extend_to_full_par, non_seed_relevant, ExtensionContext};
pub use index::{
    CubeIndex, IndexProbe, IndexScratch, MemoOutcome, MemoStats, MergeRoute, QueryBudget,
    QueryError,
};
pub use lattice::{diff_groups, quotient_map, GroupDelta, GroupLattice};
pub use maintenance::{MaintenanceDelta, MaintenanceStats, StellarEngine, TouchedGroup};
pub use matrices::SeedView;
pub use persist::{
    load_cube, read_cube, read_cube_binary, read_cube_text, save_cube, save_cube_binary,
    write_cube, write_cube_binary,
};
pub use seeds::{seed_skyline_groups, seed_skyline_groups_par, SeedGroup};
pub use skycube_parallel::Parallelism;
pub use transversal::{minimize_antichain, ClauseSet};

use skycube_skyline::skyline;
use skycube_types::{Dataset, SkylineGroup};

/// Stellar runner; its one setting is the worker-thread count.
///
/// ```
/// use skycube_stellar::Stellar;
/// use skycube_types::running_example;
///
/// let cube = Stellar::new().with_threads(2).compute(&running_example());
/// assert_eq!(cube.seeds(), &[1, 3, 4]);
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct Stellar {
    parallelism: Parallelism,
}

impl Stellar {
    /// Runner with one worker per logical core (a single-core machine, or
    /// [`Stellar::with_threads`]`(1)`, selects the exact sequential path).
    pub fn new() -> Self {
        Stellar::default()
    }

    /// Set the worker-thread count for the seed-lattice and extension
    /// stages (the full-space skyline runs LESS on one thread); `1` selects
    /// the exact sequential path.
    ///
    /// # Panics
    /// Panics if `threads` is zero.
    pub fn with_threads(self, threads: usize) -> Self {
        self.with_parallelism(Parallelism::new(threads))
    }

    /// Set the [`Parallelism`] configuration for the seed-lattice and
    /// extension stages.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// The configured parallelism.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// Compute the compressed skyline cube of `ds`.
    pub fn compute(&self, ds: &Dataset) -> CompressedSkylineCube {
        if ds.is_empty() {
            return CompressedSkylineCube::new(ds.dims(), 0, Vec::new(), Vec::new());
        }
        // The paper's preamble: objects identical on every dimension are
        // bound together and always appear together in groups.
        let (bound, binding) = ds.bind_duplicates();
        let par = self.parallelism;
        let view = SeedView::new(&bound, skyline(&bound, bound.full_space()));
        let seed_groups = seed_skyline_groups_par(&view, par);
        let groups_bound = extend_to_full_par(&view, &seed_groups, par);

        // Re-expand bound duplicates into the original id space.
        let groups: Vec<SkylineGroup> = groups_bound
            .into_iter()
            .map(|g| SkylineGroup::new(binding.expand(&g.members), g.subspace, g.decisive))
            .collect();
        let seeds = binding.expand(view.seeds());
        CompressedSkylineCube::new(ds.dims(), ds.len(), seeds, groups)
    }
}

/// Compute the compressed skyline cube with the default configuration.
pub fn compute_cube(ds: &Dataset) -> CompressedSkylineCube {
    Stellar::new().compute(ds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use skycube_types::{running_example, DimMask};

    #[test]
    fn running_example_end_to_end() {
        let ds = running_example();
        let cube = compute_cube(&ds);
        assert_eq!(cube.seeds(), &[1, 3, 4]);
        assert_eq!(cube.num_groups(), 8);
        cube.validate_against(&ds).unwrap();

        // Signatures of Figure 3(b), as rendered by the library.
        let mut sigs: Vec<String> = cube.groups().iter().map(|g| g.signature(&ds)).collect();
        sigs.sort();
        assert_eq!(
            sigs,
            vec![
                "(P2, (2,6,8,3), AC, CD)",
                "(P2P3P5, (*,*,*,3), D)",
                "(P2P4, (*,*,8,*), C)",
                "(P2P5, (2,*,*,3), A)",
                "(P3P4P5, (*,4,*,*), B)",
                "(P3P5, (*,4,9,3), BD)",
                "(P4, (6,4,8,5), BC)",
                "(P5, (2,4,9,3), AB)",
            ]
        );
    }

    #[test]
    fn subspace_skylines_derivable_from_cube() {
        let ds = running_example();
        let cube = compute_cube(&ds);
        for space in ds.full_space().subsets() {
            assert_eq!(
                cube.subspace_skyline(space),
                skycube_skyline::skyline_naive(&ds, space),
                "subspace {space}"
            );
        }
    }

    #[test]
    fn parallel_cube_is_identical_to_sequential() {
        let ds = running_example();
        let seq = Stellar::new().with_threads(1).compute(&ds);
        for threads in [2, 4] {
            let par = Stellar::new().with_threads(threads).compute(&ds);
            assert_eq!(par.seeds(), seq.seeds(), "threads {threads}");
            assert_eq!(par.groups(), seq.groups(), "threads {threads}");
        }
    }

    #[test]
    fn duplicate_objects_are_bound_and_reexpanded() {
        // Duplicate P5 (id 4) as a sixth object; it must appear everywhere
        // P5 appears.
        let mut rows: Vec<Vec<i64>> = (0..5u32)
            .map(|o| running_example().row(o).to_vec())
            .collect();
        rows.push(rows[4].clone());
        let ds = Dataset::from_rows(4, rows).unwrap();
        let cube = compute_cube(&ds);
        cube.validate_against(&ds).unwrap();
        assert_eq!(cube.seeds(), &[1, 3, 4, 5]);
        for g in cube.groups() {
            assert_eq!(
                g.members.contains(&4),
                g.members.contains(&5),
                "bound pair split in {g:?}"
            );
        }
        // Group count unchanged vs. Figure 3(b).
        assert_eq!(cube.num_groups(), 8);
    }

    #[test]
    fn empty_and_tiny_datasets() {
        let empty = Dataset::from_rows(3, vec![]).unwrap();
        let cube = compute_cube(&empty);
        assert_eq!(cube.num_groups(), 0);
        assert!(cube.seeds().is_empty());

        let one = Dataset::from_rows(2, vec![vec![7, 9]]).unwrap();
        let cube = compute_cube(&one);
        assert_eq!(cube.seeds(), &[0]);
        assert_eq!(cube.num_groups(), 1);
        let g = &cube.groups()[0];
        assert_eq!(g.subspace, DimMask::full(2));
        assert_eq!(g.decisive, vec![DimMask::single(0), DimMask::single(1)]);
    }

    #[test]
    fn one_dimensional_space() {
        let ds = Dataset::from_rows(1, vec![vec![5], vec![3], vec![3], vec![9]]).unwrap();
        let cube = compute_cube(&ds);
        // Objects 1 and 2 share the minimum: one group {1,2} in A.
        assert_eq!(cube.num_groups(), 1);
        assert_eq!(cube.groups()[0].members, vec![1, 2]);
        assert_eq!(cube.subspace_skyline(DimMask::single(0)), vec![1, 2]);
    }

    use skycube_types::Dataset;
}
