//! The dominance and coincidence matrices of Section 5.1, restricted to the
//! seed objects (the full-space skyline).
//!
//! Both matrices are `|F(S)|²` bitmasks; materializing them is wasteful for
//! large skylines, and every consumer in Stellar works one *row* at a time
//! (the c-group search walks the anchor's coincidence row, the decisive
//! computation buckets one member's dominance row). [`SeedView`] therefore
//! computes rows on demand into caller-provided buffers.
//!
//! Both rows come from one structure, built on the first row request: the
//! per-dimension *dense ranks* of the seeds. A dominance row compares `i32`
//! ranks instead of `i64` values (the same masks, since ranks order exactly
//! like values, and 32-bit compares vectorize on the default target). The
//! coincidence row is sparse: almost no pair of seeds agrees on any
//! dimension, so it is listed as the seeds sharing a value class (an *agree
//! set*, after Nedjar et al.) with the row's seed, each with its mask.
//! Property 1 of the paper (`co = D − dom(u,v) − dom(v,u)`) ties the two.

use skycube_types::{Dataset, DimMask, ObjId};
use std::sync::OnceLock;

/// Seed objects plus row-wise access to their pairwise masks.
///
/// Seed indexes (`usize` positions into [`SeedView::seeds`]) are the working
/// currency of the seed-lattice algorithms; they translate back to dataset
/// [`ObjId`]s via [`SeedView::id`].
///
/// Dominance rows are sweeps over per-dimension rank columns; the per-pair
/// [`Dataset::dom_mask`] and [`Dataset::co_mask`] are the reference the
/// tests hold them to. Nothing is copied at construction.
pub struct SeedView<'a> {
    ds: &'a Dataset,
    seeds: Vec<ObjId>,
    ranks: OnceLock<SeedRanks>,
}

/// Per-dimension dense ranks of the seeds and their value classes.
struct SeedRanks {
    /// `rank[d][i]`: dense rank of seed `i`'s value in dimension `d` among
    /// the seeds — equal values share a rank, and ranks order like values.
    rank: Vec<Vec<i32>>,
    /// `order[d]`: seed indexes ascending by `(rank in d, index)`, so each
    /// value class is a run of ascending seed indexes.
    order: Vec<Vec<u32>>,
    /// `start[d][r]..start[d][r + 1]`: the run of rank `r` in `order[d]`.
    start: Vec<Vec<u32>>,
}

impl SeedRanks {
    fn build(ds: &Dataset, seeds: &[ObjId]) -> Self {
        let dims = ds.dims();
        let (mut rank, mut order, mut start) = (
            Vec::with_capacity(dims),
            Vec::with_capacity(dims),
            Vec::with_capacity(dims),
        );
        for d in 0..dims {
            let values: Vec<_> = seeds.iter().map(|&o| ds.value(o, d)).collect();
            let mut ord: Vec<u32> = (0..seeds.len() as u32).collect();
            // Stable, so equal values keep ascending seed order.
            ord.sort_by_key(|&i| values[i as usize]);
            let mut rk = vec![0i32; seeds.len()];
            let mut st: Vec<u32> = Vec::new();
            for (pos, &i) in ord.iter().enumerate() {
                if pos == 0 || values[i as usize] != values[ord[pos - 1] as usize] {
                    st.push(pos as u32);
                }
                rk[i as usize] = st.len() as i32 - 1;
            }
            st.push(ord.len() as u32);
            rank.push(rk);
            order.push(ord);
            start.push(st);
        }
        SeedRanks { rank, order, start }
    }
}

impl<'a> SeedView<'a> {
    /// Wrap a dataset and its full-space skyline.
    ///
    /// The seed list is canonicalized — sorted ascending with duplicates
    /// removed — so an unsorted caller can no longer produce a silently
    /// wrong lattice (the set-enumeration search requires ascending seeds).
    pub fn new(ds: &'a Dataset, mut seeds: Vec<ObjId>) -> Self {
        if !seeds.windows(2).all(|w| w[0] < w[1]) {
            seeds.sort_unstable();
            seeds.dedup();
        }
        SeedView {
            ds,
            seeds,
            ranks: OnceLock::new(),
        }
    }

    /// Number of seed objects `|F(S)|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.seeds.len()
    }

    /// Whether there are no seeds (empty dataset).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.seeds.is_empty()
    }

    /// The underlying dataset.
    #[inline]
    pub fn dataset(&self) -> &'a Dataset {
        self.ds
    }

    /// All seed object ids, ascending.
    #[inline]
    pub fn seeds(&self) -> &[ObjId] {
        &self.seeds
    }

    /// Dataset id of seed index `i`.
    #[inline]
    pub fn id(&self, i: usize) -> ObjId {
        self.seeds[i]
    }

    fn ranks(&self) -> &SeedRanks {
        self.ranks
            .get_or_init(|| SeedRanks::build(self.ds, &self.seeds))
    }

    /// The sparse coincidence row of seed `i`: every other seed `j` with
    /// `co(seed_i, seed_j) ≠ ∅`, ascending by `j`, paired with that mask.
    /// Seeds absent from the list share no value with seed `i`.
    pub fn partners(&self, i: usize, out: &mut Vec<(usize, DimMask)>) {
        let r = self.ranks();
        out.clear();
        for d in 0..r.rank.len() {
            let k = r.rank[d][i] as usize;
            let class = &r.order[d][r.start[d][k] as usize..r.start[d][k + 1] as usize];
            let bit = DimMask::single(d);
            out.extend(
                class
                    .iter()
                    .filter(|&&j| j as usize != i)
                    .map(|&j| (j as usize, bit)),
            );
        }
        // Merge the per-dimension classes (each already ascending) into one
        // entry per partner.
        out.sort_unstable_by_key(|&(j, _)| j);
        out.dedup_by(|next, kept| {
            let same = next.0 == kept.0;
            if same {
                kept.1 = kept.1 | next.1;
            }
            same
        });
    }

    /// Fill `row` with the dominance masks `dom(seed_i, seed_j)` for all `j`:
    /// the dimensions on which seed `i` has a strictly smaller value.
    pub fn dom_row(&self, i: usize, row: &mut Vec<DimMask>) {
        row.clear();
        row.resize(self.len(), DimMask::EMPTY);
        for (d, col) in self.ranks().rank.iter().enumerate() {
            let probe = col[i];
            let bit = 1u32 << d;
            for (m, &v) in row.iter_mut().zip(col) {
                m.0 |= bit * u32::from(probe < v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skycube_types::running_example;

    fn mask(s: &str) -> DimMask {
        DimMask::parse(s).unwrap()
    }

    fn example_view(ds: &Dataset) -> SeedView<'_> {
        // Seeds of the running example: P2, P4, P5 (ids 1, 3, 4).
        SeedView::new(ds, vec![1, 3, 4])
    }

    /// The dense coincidence row of seed `i`, rebuilt from its partners.
    fn dense_co(view: &SeedView<'_>, i: usize) -> Vec<DimMask> {
        let mut row = vec![DimMask::EMPTY; view.len()];
        row[i] = view.dataset().full_space();
        let mut partners = Vec::new();
        view.partners(i, &mut partners);
        for (j, co) in partners {
            row[j] = co;
        }
        row
    }

    #[test]
    fn rows_match_figure_4() {
        let ds = running_example();
        let view = example_view(&ds);
        let mut dom = Vec::new();
        let mut partners = Vec::new();

        // Row P2 of Figure 4(a): ∅, AD, C.
        view.dom_row(0, &mut dom);
        assert_eq!(dom, vec![DimMask::EMPTY, mask("AD"), mask("C")]);
        // Row P2 of Figure 4(b): ABCD, C, AD — sparse: P4 on C, P5 on AD.
        view.partners(0, &mut partners);
        assert_eq!(partners, vec![(1, mask("C")), (2, mask("AD"))]);

        // Row P5: dom = B, AD, ∅; co = AD, B, ABCD.
        view.dom_row(2, &mut dom);
        assert_eq!(dom, vec![mask("B"), mask("AD"), DimMask::EMPTY]);
        view.partners(2, &mut partners);
        assert_eq!(partners, vec![(0, mask("AD")), (1, mask("B"))]);
    }

    #[test]
    fn property1_holds_rowwise() {
        let ds = running_example();
        let view = example_view(&ds);
        let full = ds.full_space();
        let (mut dom_i, mut dom_j) = (Vec::new(), Vec::new());
        for i in 0..view.len() {
            view.dom_row(i, &mut dom_i);
            let co = dense_co(&view, i);
            for j in 0..view.len() {
                view.dom_row(j, &mut dom_j);
                assert_eq!(co[j], full - dom_i[j] - dom_j[i]);
            }
        }
    }

    /// The scalar-agreement property of the rank rows: on random datasets
    /// (tie-heavy, negative and extreme values, up to 32 dimensions) every
    /// dominance and coincidence mask equals the per-pair scalar mask.
    #[test]
    fn rank_rows_match_scalar_masks() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(41);
        for trial in 0..60 {
            let dims = [1, 2, 3, 5, 8, 17, 32][trial % 7];
            let n = rng.gen_range(0..40);
            let domain = [3i64, 50, i64::MAX][trial % 3];
            let rows: Vec<Vec<i64>> = (0..n)
                .map(|_| {
                    (0..dims)
                        .map(|_| match domain {
                            i64::MAX => [i64::MIN, -1, 0, 1, i64::MAX][rng.gen_range(0..5)],
                            m => rng.gen_range(-m..m),
                        })
                        .collect()
                })
                .collect();
            let ds = Dataset::from_rows(dims, rows).unwrap();
            let seeds: Vec<ObjId> = ds.ids().filter(|_| rng.gen_bool(0.7)).collect();
            let view = SeedView::new(&ds, seeds);
            let mut dom = Vec::new();
            let mut partners = Vec::new();
            for i in 0..view.len() {
                view.dom_row(i, &mut dom);
                view.partners(i, &mut partners);
                assert!(partners.windows(2).all(|w| w[0].0 < w[1].0));
                let co = dense_co(&view, i);
                for j in 0..view.len() {
                    let (u, v) = (view.id(i), view.id(j));
                    assert_eq!(dom[j], ds.dom_mask(u, v), "trial {trial} dom {u} {v}");
                    if i != j {
                        assert_eq!(co[j], ds.co_mask(u, v), "trial {trial} co {u} {v}");
                    }
                }
                assert!(partners.iter().all(|&(j, co)| j != i && !co.is_empty()));
            }
        }
    }

    #[test]
    fn unsorted_seeds_are_canonicalized() {
        let ds = running_example();
        let view = SeedView::new(&ds, vec![4, 1, 3, 1]);
        assert_eq!(view.seeds(), &[1, 3, 4]);
        // Rows must be computed against the canonical order.
        let mut dom = Vec::new();
        view.dom_row(0, &mut dom);
        assert_eq!(dom[1], mask("AD"));
    }

    #[test]
    fn id_translation() {
        let ds = running_example();
        let view = example_view(&ds);
        assert_eq!(view.len(), 3);
        assert_eq!(view.id(0), 1);
        assert_eq!(view.id(2), 4);
        assert_eq!(view.seeds(), &[1, 3, 4]);
    }

    #[test]
    fn construction_builds_no_ranks() {
        let ds = running_example();
        let view = example_view(&ds);
        assert!(view.ranks.get().is_none());
        view.dom_row(0, &mut Vec::new());
        assert!(view.ranks.get().is_some());
    }
}
