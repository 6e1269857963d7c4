//! k-skybands (Papadias et al., SIGMOD'03), which the daemon's `skyband`
//! verb answers. The **k-skyband** contains every object dominated by
//! *fewer than* `k` others; `k = 1` is the ordinary skyline. It is the
//! candidate set for any top-k query with a monotone preference function.

use skycube_types::{Dataset, DimMask, ObjId};

/// The k-skyband of `space`: objects dominated by fewer than `k` other
/// objects. Ids ascending.
///
/// Objects with equal projections do not dominate each other, so value
/// sharing does not consume dominance budget — consistent with the skyline
/// semantics used everywhere else in this workspace.
///
/// # Panics
/// Panics if `space` is empty or `k` is zero.
pub fn k_skyband(ds: &Dataset, space: DimMask, k: usize) -> Vec<ObjId> {
    assert!(
        !space.is_empty(),
        "skyband of the empty subspace is undefined"
    );
    assert!(k >= 1, "the 0-skyband is empty by definition; use k ≥ 1");
    // Presort by subspace sum: dominators of `o` always precede `o`, so a
    // single forward pass with counters suffices (an SFS-style skyband).
    let mut order: Vec<ObjId> = ds.ids().collect();
    let sums: Vec<i128> = ds.ids().map(|o| ds.sum_over(o, space)).collect();
    order.sort_unstable_by_key(|&o| sums[o as usize]);

    let mut band: Vec<ObjId> = Vec::new();
    for (pos, &u) in order.iter().enumerate() {
        // Dominators of u all precede it in sum order (a dominator has a
        // strictly smaller subspace sum), so counting up to k among the
        // prefix decides membership.
        let mut dominated_by = 0usize;
        for &w in order[..pos].iter() {
            if ds.dominates(w, u, space) {
                dominated_by += 1;
                if dominated_by >= k {
                    break;
                }
            }
        }
        if dominated_by < k {
            band.push(u);
        }
    }
    band.sort_unstable();
    band
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::skyline_naive;
    use skycube_types::{running_example, Dataset};

    /// Brute-force skyband oracle.
    fn skyband_naive(ds: &Dataset, space: DimMask, k: usize) -> Vec<ObjId> {
        ds.ids()
            .filter(|&u| ds.ids().filter(|&w| ds.dominates(w, u, space)).count() < k)
            .collect()
    }

    #[test]
    fn skyband_1_is_the_skyline() {
        let ds = running_example();
        for space in ds.full_space().subsets() {
            assert_eq!(k_skyband(&ds, space, 1), skyline_naive(&ds, space));
        }
    }

    #[test]
    fn skyband_matches_oracle_for_all_k() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(103);
        for trial in 0..25 {
            let dims = rng.gen_range(1..=4);
            let n = rng.gen_range(1..=80);
            let rows: Vec<Vec<i64>> = (0..n)
                .map(|_| (0..dims).map(|_| rng.gen_range(0..6)).collect())
                .collect();
            let ds = Dataset::from_rows(dims, rows).unwrap();
            let space = ds.full_space();
            for k in 1..=4 {
                assert_eq!(
                    k_skyband(&ds, space, k),
                    skyband_naive(&ds, space, k),
                    "trial {trial} k={k}"
                );
            }
        }
    }

    #[test]
    fn skyband_grows_with_k() {
        let ds = running_example();
        let space = ds.full_space();
        let mut prev = Vec::new();
        for k in 1..=5 {
            let band = k_skyband(&ds, space, k);
            assert!(prev.iter().all(|o| band.contains(o)), "k={k} lost members");
            prev = band;
        }
        // Everything is dominated by fewer than 5 others in a 5-object set.
        assert_eq!(prev.len(), 5);
    }

    #[test]
    fn ties_do_not_consume_budget() {
        let ds = Dataset::from_rows(1, vec![vec![1], vec![1], vec![2]]).unwrap();
        let space = DimMask::single(0);
        // Object 2 is dominated by two *distinct-valued* objects? No — both
        // dominators share value 1 but are separate objects: count = 2.
        assert_eq!(k_skyband(&ds, space, 1), vec![0, 1]);
        assert_eq!(k_skyband(&ds, space, 2), vec![0, 1]);
        assert_eq!(k_skyband(&ds, space, 3), vec![0, 1, 2]);
    }

    #[test]
    #[should_panic]
    fn zero_k_panics() {
        let ds = running_example();
        k_skyband(&ds, ds.full_space(), 0);
    }
}
