//! Divide-and-conquer skyline (after Börzsönyi et al., ICDE 2001).
//!
//! This is the practical in-memory variant: split the input in halves,
//! compute each half's skyline recursively, then merge by cross-filtering —
//! a survivor of one half is kept only if no survivor of the other half
//! dominates it. The classic multidimensional median-split merge is only an
//! asymptotic improvement for tiny dimensionality; the cross-filter merge is
//! what performs best at the paper's scales and keeps the code auditable.

use crate::bnl::bnl_window;
use skycube_types::{ColumnarWindow, Dataset, DimMask, ObjId};

/// Below this size the recursion bottoms out into a BNL pass.
const LEAF_SIZE: usize = 64;

/// Compute the skyline of `space` by divide and conquer.
///
/// # Panics
/// Panics if `space` is empty.
pub fn skyline_dnc(ds: &Dataset, space: DimMask) -> Vec<ObjId> {
    assert!(
        !space.is_empty(),
        "skyline of the empty subspace is undefined"
    );
    let ids: Vec<ObjId> = ds.ids().collect();
    let mut out = dnc(ds, space, &ids);
    out.sort_unstable();
    out
}

fn dnc(ds: &Dataset, space: DimMask, ids: &[ObjId]) -> Vec<ObjId> {
    if ids.len() <= LEAF_SIZE {
        return bnl_window(ds, space, ids.iter().copied());
    }
    let mid = ids.len() / 2;
    let left = dnc(ds, space, &ids[..mid]);
    let right = dnc(ds, space, &ids[mid..]);
    merge(ds, space, &left, &right)
}

/// Keep the members of each side not dominated by any member of the other.
/// Members of the same side are already mutually non-dominating. Each side
/// is loaded into a [`ColumnarWindow`] once, so every "does the other side
/// dominate me?" probe is a blocked column sweep; survivors keep their
/// input order.
///
/// Shared with the partitioned parallel skyline, whose per-chunk local
/// skylines satisfy the same precondition.
pub(crate) fn merge(ds: &Dataset, space: DimMask, left: &[ObjId], right: &[ObjId]) -> Vec<ObjId> {
    let mut lw = ColumnarWindow::with_capacity(ds.dims(), left.len());
    for &v in left {
        lw.push(v, ds.row(v));
    }
    let mut rw = ColumnarWindow::with_capacity(ds.dims(), right.len());
    for &v in right {
        rw.push(v, ds.row(v));
    }
    let mut out: Vec<ObjId> = Vec::with_capacity(left.len() + right.len());
    out.extend(
        left.iter()
            .copied()
            .filter(|&u| !rw.any_dominates(ds.row(u), space)),
    );
    out.extend(
        right
            .iter()
            .copied()
            .filter(|&u| !lw.any_dominates(ds.row(u), space)),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::skyline_naive;
    use skycube_types::{running_example, Dataset};

    #[test]
    fn matches_oracle_on_running_example() {
        let ds = running_example();
        for space in ds.full_space().subsets() {
            assert_eq!(skyline_dnc(&ds, space), skyline_naive(&ds, space));
        }
    }

    #[test]
    fn recursion_exercised_beyond_leaf_size() {
        // A diagonal staircase: everyone is in the skyline.
        let n = 300;
        let rows: Vec<Vec<i64>> = (0..n).map(|i| vec![i, n - 1 - i]).collect();
        let ds = Dataset::from_rows(2, rows).unwrap();
        let sky = skyline_dnc(&ds, DimMask::full(2));
        assert_eq!(sky.len(), n as usize);
    }

    #[test]
    fn cross_half_domination_filtered() {
        // One global dominator placed at the end so it lives in the right half.
        let mut rows: Vec<Vec<i64>> = (1..200).map(|i| vec![i, i]).collect();
        rows.push(vec![0, 0]);
        let ds = Dataset::from_rows(2, rows).unwrap();
        assert_eq!(skyline_dnc(&ds, DimMask::full(2)), vec![199]);
    }

    use skycube_types::DimMask;
}
