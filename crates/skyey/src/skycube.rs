//! The materialized SkyCube (Yuan et al., VLDB'05): the skyline of every
//! non-empty subspace. Skyey computes it as a byproduct; the paper's
//! Figures 9 and 10 plot its total size against the number of skyline
//! groups.

use crate::dfs::{
    for_each_subspace_skyline, for_each_subspace_skyline_from, subspace_skylines_par,
};
use skycube_parallel::{par_map_indexed, Parallelism};
use skycube_types::{ColumnView, Dataset, DimMask, ObjId};
use std::collections::HashMap;

/// All `2^n − 1` subspace skylines, materialized.
#[derive(Clone, Debug)]
pub struct SkyCube {
    dims: usize,
    skylines: HashMap<DimMask, Vec<ObjId>>,
}

impl SkyCube {
    /// Compute the full skycube of `ds` with the shared-sort DFS.
    pub fn compute(ds: &Dataset) -> Self {
        let mut skylines = HashMap::with_capacity((1usize << ds.dims()).saturating_sub(1));
        for_each_subspace_skyline(ds, |space, sky| {
            let mut s = sky.to_vec();
            s.sort_unstable();
            skylines.insert(space, s);
        });
        SkyCube {
            dims: ds.dims(),
            skylines,
        }
    }

    /// [`SkyCube::compute`] with the top-level DFS branches fanned out
    /// across threads. Stores the identical skylines (each sorted
    /// ascending); with one thread this is the sequential computation.
    pub fn compute_par(ds: &Dataset, par: Parallelism) -> Self {
        if par.is_sequential() {
            return SkyCube::compute(ds);
        }
        let mut skylines = HashMap::with_capacity((1usize << ds.dims()).saturating_sub(1));
        for (space, mut sky) in subspace_skylines_par(ds, par) {
            sky.sort_unstable();
            skylines.insert(space, sky);
        }
        SkyCube {
            dims: ds.dims(),
            skylines,
        }
    }

    /// Dimensionality of the full space.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The skyline of `space`, or `None` when `space` is not one of the
    /// materialized non-empty subspaces of the full space (e.g. the empty
    /// mask, or a mask mentioning dimensions the dataset does not have).
    pub fn skyline(&self, space: DimMask) -> Option<&[ObjId]> {
        self.skylines.get(&space).map(Vec::as_slice)
    }

    /// Number of materialized subspaces.
    pub fn num_subspaces(&self) -> usize {
        self.skylines.len()
    }

    /// Total number of subspace skyline objects, `Σ_B |skyline(B)|` —
    /// counting an object once per subspace it appears in, as the paper
    /// does ("if a player appears in the skylines of multiple subspaces, it
    /// is counted multiple times").
    pub fn total_size(&self) -> u64 {
        self.skylines.values().map(|s| s.len() as u64).sum()
    }

    /// Iterate over `(subspace, skyline)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (DimMask, &[ObjId])> {
        self.skylines.iter().map(|(&m, s)| (m, s.as_slice()))
    }
}

/// Compute only the SkyCube total size (`Σ_B |skyline(B)|`) without
/// materializing the cube — what the counting experiments need.
pub fn skycube_total_size(ds: &Dataset) -> u64 {
    let mut total = 0u64;
    for_each_subspace_skyline(ds, |_, sky| {
        total += sky.len() as u64;
    });
    total
}

/// [`skycube_total_size`] with the top-level DFS branches fanned out
/// across threads; per-branch totals are summed (addition commutes, so the
/// count is exactly the sequential one).
pub fn skycube_total_size_par(ds: &Dataset, par: Parallelism) -> u64 {
    if par.is_sequential() {
        return skycube_total_size(ds);
    }
    let n = ds.dims();
    if ds.is_empty() || n == 0 {
        return 0;
    }
    let view = ColumnView::with_rank_orders(ds);
    par_map_indexed(par, n, |d| {
        let mut total = 0u64;
        for_each_subspace_skyline_from(ds, &view, d, &mut |_, sky| {
            total += sky.len() as u64;
        });
        total
    })
    .into_iter()
    .sum()
}

/// SkyCube total size split by subspace dimensionality; entry `k − 1` sums
/// the skylines of all `k`-dimensional subspaces.
pub fn skycube_sizes_by_dimensionality(ds: &Dataset) -> Vec<u64> {
    let mut out = vec![0u64; ds.dims()];
    for_each_subspace_skyline(ds, |space, sky| {
        out[space.len() - 1] += sky.len() as u64;
    });
    out
}

/// [`skycube_sizes_by_dimensionality`] with the top-level DFS branches
/// fanned out across threads; per-branch histograms are summed elementwise.
pub fn skycube_sizes_by_dimensionality_par(ds: &Dataset, par: Parallelism) -> Vec<u64> {
    if par.is_sequential() {
        return skycube_sizes_by_dimensionality(ds);
    }
    let n = ds.dims();
    let mut out = vec![0u64; n];
    if ds.is_empty() || n == 0 {
        return out;
    }
    let view = ColumnView::with_rank_orders(ds);
    for branch in par_map_indexed(par, n, |d| {
        let mut hist = vec![0u64; n];
        for_each_subspace_skyline_from(ds, &view, d, &mut |space, sky| {
            hist[space.len() - 1] += sky.len() as u64;
        });
        hist
    }) {
        for (o, b) in out.iter_mut().zip(branch) {
            *o += b;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use skycube_skyline::skyline_naive;
    use skycube_types::running_example;

    #[test]
    fn materialized_cube_matches_direct_computation() {
        let ds = running_example();
        let cube = SkyCube::compute(&ds);
        assert_eq!(cube.dims(), 4);
        assert_eq!(cube.num_subspaces(), 15);
        for space in ds.full_space().subsets() {
            assert_eq!(
                cube.skyline(space).expect("materialized subspace"),
                skyline_naive(&ds, space)
            );
        }
    }

    #[test]
    fn parallel_cube_stores_identical_skylines() {
        let ds = running_example();
        let seq = SkyCube::compute(&ds);
        for threads in [1, 2, 4] {
            let par = SkyCube::compute_par(&ds, Parallelism::new(threads));
            assert_eq!(par.dims(), seq.dims());
            assert_eq!(par.num_subspaces(), seq.num_subspaces());
            for space in ds.full_space().subsets() {
                assert_eq!(par.skyline(space), seq.skyline(space), "threads {threads}");
            }
        }
    }

    #[test]
    fn parallel_counts_match_sequential() {
        let ds = running_example();
        for threads in [1, 2, 4] {
            let par = Parallelism::new(threads);
            assert_eq!(skycube_total_size_par(&ds, par), skycube_total_size(&ds));
            assert_eq!(
                skycube_sizes_by_dimensionality_par(&ds, par),
                skycube_sizes_by_dimensionality(&ds)
            );
        }
    }

    #[test]
    fn figure_1_style_counts() {
        let ds = running_example();
        let cube = SkyCube::compute(&ds);
        let direct: u64 = ds
            .full_space()
            .subsets()
            .map(|s| skyline_naive(&ds, s).len() as u64)
            .sum();
        assert_eq!(cube.total_size(), direct);
        assert_eq!(skycube_total_size(&ds), direct);
    }

    #[test]
    fn by_dimensionality_sums_to_total() {
        let ds = running_example();
        let by_k = skycube_sizes_by_dimensionality(&ds);
        assert_eq!(by_k.len(), 4);
        assert_eq!(by_k.iter().sum::<u64>(), skycube_total_size(&ds));
        let one_d: u64 = (0..4)
            .map(|d| skyline_naive(&ds, DimMask::single(d)).len() as u64)
            .sum();
        assert_eq!(by_k[0], one_d);
    }

    #[test]
    fn iter_covers_all_subspaces() {
        let ds = running_example();
        let cube = SkyCube::compute(&ds);
        assert_eq!(cube.iter().count(), 15);
    }

    #[test]
    fn missing_subspace_returns_none() {
        let ds = running_example();
        let cube = SkyCube::compute(&ds);
        assert_eq!(cube.skyline(DimMask::EMPTY), None);
        // A mask naming a dimension beyond the dataset's four.
        assert_eq!(cube.skyline(DimMask::single(7)), None);
    }
}
