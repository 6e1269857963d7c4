//! LESS — *linear elimination sort for skyline* (Godfrey, Shipley, Gryz,
//! VLDB'05), the integrated method cited by the paper as [5].
//!
//! LESS improves on SFS by dropping points *during* the sort:
//! an *elimination-filter* (EF) window of a few of the best points seen so
//! far is carried through the initial pass, discarding the bulk of dominated
//! points before they are ever sorted; the surviving points are then sorted
//! by a monotone key and finished with the usual skyline-filter pass.

use crate::sfs::filter_presorted;
use skycube_types::{ColumnarWindow, Dataset, DimMask, ObjId};

/// Capacity of the elimination-filter window. Godfrey et al. observe a small
/// window (about one memory page) captures nearly all of the benefit.
const EF_CAPACITY: usize = 16;

/// Compute the skyline of `space` with LESS.
///
/// Pass 0 carries a column-wise EF window of the smallest-sum points seen
/// so far and discards every point one of them dominates; pass 1 sorts the
/// survivors by sum (topological for dominance) and finishes with
/// [`filter_presorted`]. The EF only ever discards dominated points and the
/// final pass removes every dominated survivor, so the output is the
/// skyline whatever the EF holds on sum ties.
///
/// Returns ids in ascending order.
///
/// # Panics
/// Panics if `space` is empty.
pub fn skyline_less(ds: &Dataset, space: DimMask) -> Vec<ObjId> {
    assert!(
        !space.is_empty(),
        "skyline of the empty subspace is undefined"
    );
    let mut ef = ColumnarWindow::with_capacity(ds.dims(), EF_CAPACITY);
    let mut ef_keys: Vec<i128> = Vec::with_capacity(EF_CAPACITY);
    let mut survivors: Vec<(i128, ObjId)> = Vec::with_capacity(ds.len());
    for u in ds.ids() {
        let key = ds.sum_over(u, space);
        let row = ds.row(u);
        if ef.any_dominates(row, space) {
            continue;
        }
        survivors.push((key, u));
        // Maintain the window: admit if it beats the current worst.
        if ef_keys.len() < EF_CAPACITY {
            ef.push(u, row);
            ef_keys.push(key);
        } else {
            let (worst, &worst_key) = ef_keys
                .iter()
                .enumerate()
                .max_by_key(|&(_, &k)| k)
                .expect("window non-empty");
            if key < worst_key {
                ef.swap_remove(worst);
                ef_keys.swap_remove(worst);
                ef.push(u, row);
                ef_keys.push(key);
            }
        }
    }
    survivors.sort_unstable_by_key(|&(k, _)| k);
    let order: Vec<ObjId> = survivors.into_iter().map(|(_, o)| o).collect();
    let mut skyline = filter_presorted(ds, space, &order);
    skyline.sort_unstable();
    skyline
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
            assert_eq!(skyline_less(&ds, space), skyline_naive(&ds, space));
        }
    }

    #[test]
    fn elimination_filter_never_drops_skyline_points() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(41);
        for trial in 0..25 {
            let dims = rng.gen_range(1..=5);
            let n = rng.gen_range(1..=200);
            let rows: Vec<Vec<i64>> = (0..n)
                .map(|_| (0..dims).map(|_| rng.gen_range(0..8)).collect())
                .collect();
            let ds = Dataset::from_rows(dims, rows).unwrap();
            let space = ds.full_space();
            assert_eq!(
                skyline_less(&ds, space),
                skyline_naive(&ds, space),
                "trial {trial}"
            );
        }
    }

    #[test]
    fn window_overflow_path_exercised() {
        // More than EF_CAPACITY mutually incomparable points with distinct
        // sums force both insertion branches.
        let n = 64i64;
        let rows: Vec<Vec<i64>> = (0..n).map(|i| vec![i, 2 * (n - i)]).collect();
        let ds = Dataset::from_rows(2, rows).unwrap();
        let sky = skyline_less(&ds, ds.full_space());
        assert_eq!(sky.len(), n as usize);
    }

    #[test]
    fn ties_in_sum_are_handled() {
        // (1,3) and (3,1) tie on sum and are incomparable; (2,2) ties too.
        let ds = Dataset::from_rows(2, vec![vec![1, 3], vec![3, 1], vec![2, 2]]).unwrap();
        assert_eq!(skyline_less(&ds, ds.full_space()), vec![0, 1, 2]);
    }

    #[test]
    fn equal_projections_survive_less() {
        let ds = Dataset::from_rows(2, vec![vec![1, 1]; 40]).unwrap();
        assert_eq!(
            skyline_less(&ds, ds.full_space()),
            (0..40u32).collect::<Vec<_>>()
        );
    }
}
