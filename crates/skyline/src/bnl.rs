//! Block-nested-loops skyline (Börzsönyi et al., ICDE 2001).
//!
//! The in-memory variant: a growing *window* of mutually incomparable
//! objects. Each incoming object is compared against the window; it is
//! discarded if dominated, inserted otherwise, evicting any window members it
//! dominates. With the whole window in memory (the paper's datasets fit
//! easily) no temp-file passes are needed and the window at end-of-scan *is*
//! the skyline.

use skycube_types::{ColumnarWindow, Dataset, DimMask, ObjId};

/// Compute the skyline of `space` with block nested loops.
///
/// The window is kept column-wise: each incoming object is classified
/// against every member with one flags sweep, then admitted or discarded
/// ([`ColumnarWindow::admit`]).
///
/// Returns ids in ascending order.
///
/// # Panics
/// Panics if `space` is empty.
pub fn skyline_bnl(ds: &Dataset, space: DimMask) -> Vec<ObjId> {
    assert!(
        !space.is_empty(),
        "skyline of the empty subspace is undefined"
    );
    let mut out = bnl_window(ds, space, ds.ids());
    out.sort_unstable();
    out
}

/// The BNL window after scanning `ids` in order: the skyline of `ids` in
/// `space`, in window order. Shared with the divide-and-conquer leaves.
pub(crate) fn bnl_window(
    ds: &Dataset,
    space: DimMask,
    ids: impl IntoIterator<Item = ObjId>,
) -> Vec<ObjId> {
    let mut window = ColumnarWindow::new(ds.dims());
    for u in ids {
        window.admit(u, ds.row(u), space);
    }
    window.into_ids()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::skyline_naive;
    use skycube_types::running_example;

    #[test]
    fn matches_oracle_on_running_example_all_subspaces() {
        let ds = running_example();
        for space in ds.full_space().subsets() {
            assert_eq!(
                skyline_bnl(&ds, space),
                skyline_naive(&ds, space),
                "subspace {space}"
            );
        }
    }

    #[test]
    fn window_eviction_keeps_equal_projections() {
        use skycube_types::Dataset;
        // Two identical points plus one dominated point.
        let ds = Dataset::from_rows(2, vec![vec![5, 5], vec![1, 1], vec![1, 1]]).unwrap();
        assert_eq!(skyline_bnl(&ds, DimMask::full(2)), vec![1, 2]);
    }

    #[test]
    fn later_point_can_evict_multiple() {
        use skycube_types::Dataset;
        let ds =
            Dataset::from_rows(2, vec![vec![3, 1], vec![1, 3], vec![2, 2], vec![0, 0]]).unwrap();
        assert_eq!(skyline_bnl(&ds, DimMask::full(2)), vec![3]);
    }

    use skycube_types::DimMask;
}
