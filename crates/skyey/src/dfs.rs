//! The heart of the Skyey baseline: a depth-first search of the subspace
//! set-enumeration tree that computes the skyline of *every* non-empty
//! subspace, sharing sorted lists between a subspace and its extensions.
//!
//! The order maintained along a DFS path `(d₁ < d₂ < … < d_k)` is the
//! lexicographic order over those dimensions. A child node appends one more
//! dimension, so its order is the parent's order with ties (equal
//! projections over the path) re-sorted by the new dimension — a stable
//! refinement, which is how "the sorted lists of objects are shared as much
//! as possible by the skyline computation in multiple subspaces". Since
//! lexicographic order over a subspace's dimensions is topological for
//! dominance in that subspace, a single sort-first-skyline pass per node
//! suffices.

use skycube_parallel::{par_map_indexed, Parallelism};
use skycube_skyline::filter_presorted;
use skycube_types::{ColumnView, Dataset, DimMask, ObjId};

/// Visit every non-empty subspace of `ds` with its skyline (skyline ids are
/// in lexicographic scan order, not ascending id order).
///
/// Subspaces are visited in set-enumeration (DFS) order; the closure also
/// receives the depth-shared sorted order's skyline output only — callers
/// needing ascending ids should sort.
///
/// A single [`ColumnView::with_rank_orders`] per computation provides each
/// top-level branch's starting order (the dimension's argsort, no
/// per-branch sort) and dense ranks for the tie refinements, and every
/// per-node SFS pass sweeps a column-wise window.
pub fn for_each_subspace_skyline<F: FnMut(DimMask, &[ObjId])>(ds: &Dataset, mut f: F) {
    let n = ds.dims();
    if ds.is_empty() || n == 0 {
        return;
    }
    let view = ColumnView::with_rank_orders(ds);
    for d in 0..n {
        for_each_subspace_skyline_from(ds, &view, d, &mut f);
    }
}

/// One top-level branch of the set-enumeration DFS: visit every subspace
/// whose smallest dimension is `d`, in DFS order, with its skyline. Each
/// branch carries its own sorted order and tie-refinement state, which is
/// what lets branches run on separate threads (the shared `view` is
/// read-only).
pub(crate) fn for_each_subspace_skyline_from<F: FnMut(DimMask, &[ObjId])>(
    ds: &Dataset,
    view: &ColumnView,
    d: usize,
    f: &mut F,
) {
    // Order for the single-dimension subspace {d}: ascending (value, id).
    let order = view.order(d).to_vec();
    let mut skyline_buf: Vec<ObjId> = Vec::new();
    recurse(ds, view, DimMask::single(d), d, &order, &mut skyline_buf, f);
}

/// Every non-empty subspace paired with its skyline (in lexicographic scan
/// order per subspace), computed by fanning the top-level DFS branches out
/// across threads.
///
/// The pair sequence is the exact DFS visitation order of
/// [`for_each_subspace_skyline`]: branch `d`'s subtree is self-contained
/// (own sorted order, own tie-refinement state) and subtree outputs are
/// concatenated in branch order. The shared rank view is built once and
/// read by every branch thread. With one thread the branches run inline,
/// sequentially.
pub fn subspace_skylines_par(ds: &Dataset, par: Parallelism) -> Vec<(DimMask, Vec<ObjId>)> {
    let n = ds.dims();
    if ds.is_empty() || n == 0 {
        return Vec::new();
    }
    let view = ColumnView::with_rank_orders(ds);
    par_map_indexed(par, n, |d| {
        let mut out: Vec<(DimMask, Vec<ObjId>)> = Vec::new();
        for_each_subspace_skyline_from(ds, &view, d, &mut |space, sky| {
            out.push((space, sky.to_vec()));
        });
        out
    })
    .into_iter()
    .flatten()
    .collect()
}

fn recurse<F: FnMut(DimMask, &[ObjId])>(
    ds: &Dataset,
    view: &ColumnView,
    space: DimMask,
    last_dim: usize,
    order: &[ObjId],
    skyline_buf: &mut Vec<ObjId>,
    f: &mut F,
) {
    // Skyline of this subspace from the presorted order.
    *skyline_buf = filter_presorted(ds, space, order);
    f(space, skyline_buf);

    // Extend by every later dimension, refining tie blocks only.
    for d in last_dim + 1..ds.dims() {
        let child_space = space.with(d);
        let mut child = order.to_vec();
        refine_ties(ds, view, space, d, &mut child);
        recurse(ds, view, child_space, d, &child, skyline_buf, f);
    }
}

/// Stable tie refinement: within each run of equal projections over `space`,
/// sort by dimension `d`. Afterwards `order` is lexicographic for
/// `space ∪ {d}`. The sort key is the dimension's dense rank — a `u32`
/// lookup that compares exactly like the `i64` value.
fn refine_ties(ds: &Dataset, view: &ColumnView, space: DimMask, d: usize, order: &mut [ObjId]) {
    let rank = view.rank(d);
    let mut start = 0;
    while start < order.len() {
        let mut end = start + 1;
        while end < order.len()
            && ds.cmp_lex(order[start], order[end], space) == std::cmp::Ordering::Equal
        {
            end += 1;
        }
        if end - start > 1 {
            order[start..end].sort_unstable_by_key(|&o| rank[o as usize]);
        }
        start = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skycube_skyline::skyline_naive;
    use skycube_types::{running_example, Dataset};
    use std::collections::HashMap;

    fn all_skylines(ds: &Dataset) -> HashMap<DimMask, Vec<ObjId>> {
        let mut map = HashMap::new();
        for_each_subspace_skyline(ds, |space, sky| {
            let mut s = sky.to_vec();
            s.sort_unstable();
            assert!(map.insert(space, s).is_none(), "subspace {space} revisited");
        });
        map
    }

    #[test]
    fn visits_every_subspace_exactly_once() {
        let ds = running_example();
        let map = all_skylines(&ds);
        assert_eq!(map.len(), 15); // 2^4 − 1
    }

    #[test]
    fn skylines_match_oracle_on_running_example() {
        let ds = running_example();
        for (space, sky) in all_skylines(&ds) {
            assert_eq!(sky, skyline_naive(&ds, space), "subspace {space}");
        }
    }

    #[test]
    fn skylines_match_oracle_on_random_tied_data() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        for trial in 0..20 {
            let dims = rng.gen_range(1..=5);
            let n = rng.gen_range(1..=60);
            let rows: Vec<Vec<i64>> = (0..n)
                .map(|_| (0..dims).map(|_| rng.gen_range(0..4)).collect())
                .collect();
            let ds = Dataset::from_rows(dims, rows).unwrap();
            for (space, sky) in all_skylines(&ds) {
                assert_eq!(
                    sky,
                    skyline_naive(&ds, space),
                    "trial {trial} subspace {space}"
                );
            }
        }
    }

    #[test]
    fn parallel_visitation_matches_sequential_order() {
        let ds = running_example();
        let mut seq: Vec<(DimMask, Vec<ObjId>)> = Vec::new();
        for_each_subspace_skyline(&ds, |space, sky| seq.push((space, sky.to_vec())));
        for threads in [1, 2, 4] {
            let par = subspace_skylines_par(&ds, skycube_parallel::Parallelism::new(threads));
            assert_eq!(par, seq, "threads {threads}");
        }
    }

    #[test]
    fn empty_dataset_visits_nothing() {
        let ds = Dataset::from_rows(3, vec![]).unwrap();
        let mut count = 0;
        for_each_subspace_skyline(&ds, |_, _| count += 1);
        assert_eq!(count, 0);
    }

    #[test]
    fn refine_ties_produces_lexicographic_order() {
        let ds = running_example();
        // Order by B: ties (P3,P4,P5 all 4) then refine by D.
        let mut order: Vec<ObjId> = ds.ids().collect();
        let b = DimMask::single(1);
        order.sort_unstable_by_key(|&o| ds.value(o, 1));
        refine_ties(&ds, &ColumnView::with_rank_orders(&ds), b, 3, &mut order);
        for w in order.windows(2) {
            assert_ne!(
                ds.cmp_lex(w[0], w[1], b.with(3)),
                std::cmp::Ordering::Greater
            );
        }
    }
}
