//! **SUBSKY-style subspace skyline retrieval** — the third approach to
//! multidimensional skyline analysis the paper situates itself against
//! (Tao, Xiao, Pei — ICDE'06, reference \[13\]): instead of materializing all
//! subspace skylines (Skyey/Yuan et al.) or the compressed cube (Stellar),
//! build **one** one-dimensional sorted index and extract the skyline of
//! *any* subspace on the fly with early termination.
//!
//! The single-anchor transform: every object is keyed by its minimum
//! coordinate over the **full** space (equivalently `f(p) = 1 − min_d p_d`
//! against the max corner in the original's normalized formulation) and
//! stored ascending — a B+-tree in the original, a sorted array here, which
//! preserves the scan-and-terminate behaviour that matters. For a query on
//! subspace `B` the scan keeps a dominance window and the bound
//! `u = min over found skyline s of max_{d∈B} s.d`; every unseen object has
//! all coordinates `≥` the current key, so once the key exceeds `u` some
//! found point strictly dominates everything that remains and the scan
//! stops.
//!
//! ```
//! use skycube_subsky::SubskyIndex;
//! use skycube_types::{running_example, DimMask};
//!
//! let ds = running_example();
//! let index = SubskyIndex::build(&ds);
//! let bd = DimMask::parse("BD").unwrap();
//! assert_eq!(index.skyline(bd), vec![2, 4]); // P3 and P5
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod anchored;

pub use anchored::AnchoredSubskyIndex;

use skycube_types::{ColumnarWindow, Dataset, DimMask, ObjId, Value};

/// The one-dimensional index: objects ascending by full-space minimum
/// coordinate. Build once, query any subspace.
pub struct SubskyIndex<'a> {
    ds: &'a Dataset,
    /// Object ids ascending by `key`.
    order: Vec<ObjId>,
    /// `key[i]` = minimum coordinate of `order[i]` over the full space.
    keys: Vec<Value>,
}

impl<'a> SubskyIndex<'a> {
    /// Build the index: one sort, O(n log n).
    pub fn build(ds: &'a Dataset) -> Self {
        let min_coord =
            |o: ObjId| -> Value { ds.row(o).iter().copied().min().unwrap_or(Value::MAX) };
        let mut order: Vec<ObjId> = ds.ids().collect();
        order.sort_unstable_by_key(|&o| min_coord(o));
        let keys = order.iter().map(|&o| min_coord(o)).collect();
        SubskyIndex { ds, order, keys }
    }

    /// The dataset the index serves.
    pub fn dataset(&self) -> &'a Dataset {
        self.ds
    }

    /// The skyline of `space`, ids ascending.
    ///
    /// # Panics
    /// Panics if `space` is empty or not within the full space.
    pub fn skyline(&self, space: DimMask) -> Vec<ObjId> {
        self.skyline_counting(space).0
    }

    /// Like [`SubskyIndex::skyline`], also returning the number of index
    /// entries inspected before early termination (= `len` when the scan
    /// could not stop early).
    pub fn skyline_counting(&self, space: DimMask) -> (Vec<ObjId>, usize) {
        assert!(
            !space.is_empty() && space.is_subset_of(self.ds.full_space()),
            "invalid subspace {space}"
        );
        let ds = self.ds;
        // The scan order is not topological for subspace dominance, so this
        // is a BNL-style window with eviction, kept column-wise.
        let mut window = ColumnarWindow::new(ds.dims());
        // min over found skyline members of their max coordinate in `space`.
        let mut bound: Option<Value> = None;
        let mut scanned = 0usize;
        for (i, &u) in self.order.iter().enumerate() {
            if let Some(b) = bound {
                // Every coordinate of every remaining object is ≥ keys[i];
                // if keys[i] > b, the bound's witness strictly dominates all
                // of them in `space`.
                if self.keys[i] > b {
                    break;
                }
            }
            scanned += 1;
            let row = ds.row(u);
            if window.admit(u, row, space) {
                let max_c = space.iter().map(|d| row[d]).max().expect("non-empty space");
                bound = Some(match bound {
                    None => max_c,
                    Some(b) => b.min(max_c),
                });
            }
        }
        let mut out = window.into_ids();
        out.sort_unstable();
        (out, scanned)
    }

    /// Number of indexed objects.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skycube_skyline::skyline_naive;
    use skycube_types::running_example;

    #[test]
    fn matches_oracle_on_running_example() {
        let ds = running_example();
        let index = SubskyIndex::build(&ds);
        for space in ds.full_space().subsets() {
            assert_eq!(
                index.skyline(space),
                skyline_naive(&ds, space),
                "subspace {space}"
            );
        }
    }

    #[test]
    fn matches_oracle_on_random_data() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(101);
        for trial in 0..30 {
            let dims = rng.gen_range(1..=5);
            let n = rng.gen_range(1..=150);
            let domain = [3i64, 30, 500][trial % 3];
            let rows: Vec<Vec<i64>> = (0..n)
                .map(|_| (0..dims).map(|_| rng.gen_range(-domain..domain)).collect())
                .collect();
            let ds = Dataset::from_rows(dims, rows).unwrap();
            let index = SubskyIndex::build(&ds);
            for space in ds.full_space().subsets() {
                assert_eq!(
                    index.skyline(space),
                    skyline_naive(&ds, space),
                    "trial {trial} subspace {space}"
                );
            }
        }
    }

    #[test]
    fn matches_oracle_on_generated_distributions() {
        use skycube_datagen::{generate, Distribution};
        for dist in Distribution::ALL {
            let ds = generate(dist, 2_000, 4, 43);
            let index = SubskyIndex::build(&ds);
            for space in ds.full_space().subsets() {
                assert_eq!(
                    index.skyline(space),
                    skyline_naive(&ds, space),
                    "{} subspace {space}",
                    dist.name()
                );
            }
        }
    }

    #[test]
    fn early_termination_on_correlated_data() {
        use skycube_datagen::{generate, Distribution};
        let ds = generate(Distribution::Correlated, 20_000, 4, 47);
        let index = SubskyIndex::build(&ds);
        let (sky, scanned) = index.skyline_counting(ds.full_space());
        assert_eq!(sky, skyline_naive(&ds, ds.full_space()));
        assert!(
            scanned < ds.len() / 2,
            "correlated data should terminate early: scanned {scanned}/{}",
            ds.len()
        );
    }

    #[test]
    fn termination_bound_respects_ties() {
        // Key ties at the bound must still be scanned.
        let ds = Dataset::from_rows(2, vec![vec![0, 2], vec![2, 2], vec![2, 0]]).unwrap();
        let index = SubskyIndex::build(&ds);
        for space in ds.full_space().subsets() {
            assert_eq!(index.skyline(space), skyline_naive(&ds, space));
        }
    }

    #[test]
    fn empty_and_len() {
        let ds = Dataset::from_rows(3, vec![]).unwrap();
        let index = SubskyIndex::build(&ds);
        assert!(index.is_empty());
        assert_eq!(index.len(), 0);
        assert!(index.skyline(DimMask::full(3)).is_empty());
        assert_eq!(index.dataset().dims(), 3);
    }

    use skycube_types::Dataset;
}
