//! The filter pass of sort-first skyline (Chomicki et al., ICDE 2003).
//!
//! Once objects are in an order that is *topological* for dominance in the
//! target subspace — if `u` dominates `v` then `u` comes strictly before
//! `v` — every scanned object only needs to be compared against already
//! confirmed skyline members, and nothing is ever evicted from the window.
//! LESS sorts its survivors by sum into such an order; Skyey maintains
//! lexicographic ones down its subspace tree.

use skycube_types::{ColumnarWindow, Dataset, DimMask, ObjId};

/// SFS filtering pass over an order that is already topological for
/// dominance in `space`: no object may be dominated by a later one.
///
/// The confirmed window is kept column-wise, so every "does anyone
/// dominate me?" probe is a contiguous blocked sweep; nothing is ever
/// evicted under the topological-order contract. Returns skyline ids in
/// scan order.
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
    use skycube_types::running_example;

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
    fn filter_presorted_respects_scan_order() {
        let ds = Dataset::from_rows(1, vec![vec![2], vec![1], vec![3]]).unwrap();
        let space = DimMask::single(0);
        // Topological order for 1-d: ascending value → ids 1,0,2.
        let sky = filter_presorted(&ds, space, &[1, 0, 2]);
        assert_eq!(sky, vec![1]);
    }
}
