//! Sort-first skyline (Chomicki et al., ICDE 2003).
//!
//! Objects are presorted by a *topological* key for dominance in the target
//! subspace — if `u` dominates `v` then `u` sorts strictly before `v`. After
//! that, every scanned object only needs to be compared against already
//! confirmed skyline members, and nothing is ever evicted from the window.
//!
//! Two topological keys are provided:
//! - [`SortKey::Sum`]: ascending sum of coordinates over the subspace
//!   (dominance implies a strictly smaller sum) — the classic SFS choice;
//! - [`SortKey::Lex`]: lexicographic order over the subspace's dimensions —
//!   the order Skyey shares down its subspace-enumeration tree.

use skycube_types::{ColumnarWindow, Dataset, DimMask, ObjId};

/// Presort key used by [`skyline_sfs_with`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SortKey {
    /// Ascending sum of coordinates over the subspace.
    #[default]
    Sum,
    /// Lexicographic over the subspace's dimensions (ascending dim order).
    Lex,
}

/// Compute the skyline of `space` with sort-first-skyline and the given key.
///
/// # Panics
/// Panics if `space` is empty.
pub fn skyline_sfs_with(ds: &Dataset, space: DimMask, key: SortKey) -> Vec<ObjId> {
    assert!(
        !space.is_empty(),
        "skyline of the empty subspace is undefined"
    );
    let mut order: Vec<ObjId> = ds.ids().collect();
    match key {
        SortKey::Sum => {
            let sums: Vec<i128> = order.iter().map(|&o| ds.sum_over(o, space)).collect();
            order.sort_unstable_by_key(|&o| sums[o as usize]);
        }
        SortKey::Lex => {
            order.sort_unstable_by(|&a, &b| ds.cmp_lex(a, b, space));
        }
    }
    let mut skyline = filter_presorted(ds, space, &order);
    skyline.sort_unstable();
    skyline
}

/// Compute the skyline of `space` with the default (sum) key.
pub fn skyline_sfs(ds: &Dataset, space: DimMask) -> Vec<ObjId> {
    skyline_sfs_with(ds, space, SortKey::Sum)
}

/// SFS filtering pass over an order that is already topological for
/// dominance in `space`: no object may be dominated by a later one.
///
/// The confirmed window is kept column-wise, so every "does anyone
/// dominate me?" probe is a contiguous blocked sweep; nothing is ever
/// evicted under the topological-order contract. Shared with the Skyey
/// baseline, which maintains such orders incrementally down its subspace
/// tree. Returns skyline ids in scan order.
pub fn filter_presorted(ds: &Dataset, space: DimMask, order: &[ObjId]) -> Vec<ObjId> {
    let mut window = ColumnarWindow::new(ds.dims());
    for &u in order {
        let row = ds.row(u);
        if !window.any_dominates(row, space) {
            window.push(u, row);
        }
    }
    window.into_ids()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::skyline_naive;
    use skycube_types::{running_example, Dataset, ObjId};

    #[test]
    fn both_keys_match_oracle_on_running_example() {
        let ds = running_example();
        for space in ds.full_space().subsets() {
            let expect = skyline_naive(&ds, space);
            assert_eq!(skyline_sfs_with(&ds, space, SortKey::Sum), expect);
            assert_eq!(skyline_sfs_with(&ds, space, SortKey::Lex), expect);
        }
    }

    #[test]
    fn filter_presorted_keeps_lex_scan_order() {
        let ds = running_example();
        for space in ds.full_space().subsets() {
            let mut order: Vec<ObjId> = ds.ids().collect();
            order.sort_unstable_by(|&a, &b| ds.cmp_lex(a, b, space));
            let expect = skyline_naive(&ds, space);
            let kept: Vec<ObjId> = order
                .iter()
                .copied()
                .filter(|o| expect.contains(o))
                .collect();
            assert_eq!(filter_presorted(&ds, space, &order), kept, "space {space}");
        }
    }

    #[test]
    fn ties_in_sum_are_handled() {
        // (1,3) and (3,1) tie on sum and are incomparable; (2,2) ties too.
        let ds = Dataset::from_rows(2, vec![vec![1, 3], vec![3, 1], vec![2, 2]]).unwrap();
        let sky = skyline_sfs(&ds, DimMask::full(2));
        assert_eq!(sky, vec![0, 1, 2]);
    }

    #[test]
    fn equal_projections_kept() {
        let ds = Dataset::from_rows(2, vec![vec![1, 1], vec![1, 1], vec![0, 5]]).unwrap();
        assert_eq!(skyline_sfs(&ds, DimMask::full(2)), vec![0, 1, 2]);
    }

    #[test]
    fn filter_presorted_respects_scan_order() {
        let ds = Dataset::from_rows(1, vec![vec![2], vec![1], vec![3]]).unwrap();
        let space = DimMask::single(0);
        // Topological order for 1-d: ascending value → ids 1,0,2.
        let sky = filter_presorted(&ds, space, &[1, 0, 2]);
        assert_eq!(sky, vec![1]);
    }

    use skycube_types::DimMask;
}
