//! Partitioned parallel skyline.
//!
//! The classic partitioning scheme from the D&C family (Börzsönyi et al.)
//! and the parallel-skyline literature: split the rows into `k`
//! contiguous chunks, compute a local skyline per chunk with SFS, then
//! merge pairs of local skylines by cross-filtering until one remains.
//! Chunk boundaries and the merge tree depend only on `(n, threads)`,
//! and the final result is sorted ascending — so for a fixed input the
//! output is the skyline *set* in canonical order, identical to every
//! sequential algorithm in this crate regardless of scheduling.

use crate::dnc::merge;
use crate::sfs::{filter_presorted, skyline_sfs};
use skycube_parallel::{chunk_ranges, par_map_indexed, par_map_slice, Parallelism};
use skycube_types::{Dataset, DimMask, ObjId};

/// Compute the skyline of `space` by partitioned parallel SFS.
///
/// With `par.threads() == 1` (or an input too small to split) this is a
/// plain sequential SFS pass. Otherwise rows are split into one chunk
/// per thread, local skylines are computed concurrently, and local
/// results are cross-filter merged pairwise (also concurrently) into the
/// global skyline. Output is ascending ids — identical to
/// [`crate::skyline`] on the same input.
///
/// Chunk boundaries are contiguous id ranges, so each worker's
/// presort-and-filter pass and each cross-filter merge sweep contiguous
/// per-dimension window columns.
///
/// # Panics
/// Panics if `space` is empty.
pub fn skyline_parallel(ds: &Dataset, space: DimMask, par: Parallelism) -> Vec<ObjId> {
    assert!(
        !space.is_empty(),
        "skyline of the empty subspace is undefined"
    );
    let n = ds.len();
    let chunks = chunk_ranges(n, par.threads());
    if chunks.len() <= 1 {
        return skyline_sfs(ds, space);
    }

    // Local skylines per contiguous id chunk, in parallel. Each chunk
    // runs the same presort-then-filter pipeline SFS uses globally.
    let mut locals: Vec<Vec<ObjId>> = par_map_slice(par, &chunks, |range| {
        let mut order: Vec<ObjId> = (range.start as ObjId..range.end as ObjId).collect();
        let sums: Vec<i128> = order.iter().map(|&o| ds.sum_over(o, space)).collect();
        order.sort_unstable_by_key(|&o| sums[(o as usize) - range.start]);
        filter_presorted(ds, space, &order)
    });

    // Pairwise parallel merge: level by level, adjacent survivors are
    // cross-filtered. The tree shape depends only on the chunk count, so
    // the surviving set (a unique set, returned sorted) is deterministic.
    while locals.len() > 1 {
        let pairs = locals.len() / 2;
        let mut next: Vec<Vec<ObjId>> = par_map_indexed(par, pairs, |i| {
            merge(ds, space, &locals[2 * i], &locals[2 * i + 1])
        });
        if locals.len() % 2 == 1 {
            next.push(locals.pop().expect("odd tail present"));
        }
        locals = next;
    }

    let mut out = locals.pop().unwrap_or_default();
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skyline;
    use skycube_types::running_example;

    #[test]
    fn matches_sequential_on_running_example() {
        let ds = running_example();
        for space in ds.full_space().subsets() {
            for threads in [1, 2, 4] {
                assert_eq!(
                    skyline_parallel(&ds, space, Parallelism::new(threads)),
                    skyline(&ds, space),
                    "threads={threads} space={space}"
                );
            }
        }
    }

    #[test]
    fn matches_sequential_on_staircase_and_dominated_mix() {
        // 500 rows: a staircase (all skyline) plus clones shifted up (none).
        let n: i64 = 250;
        let mut rows: Vec<Vec<i64>> = (0..n).map(|i| vec![i, n - 1 - i, i % 7]).collect();
        rows.extend((0..n).map(|i| vec![i + 1, n - i, i % 7 + 1]));
        let ds = Dataset::from_rows(3, rows).unwrap();
        let space = ds.full_space();
        let expect = skyline(&ds, space);
        for threads in [1, 2, 3, 4, 7] {
            assert_eq!(
                skyline_parallel(&ds, space, Parallelism::new(threads)),
                expect
            );
        }
    }

    #[test]
    fn tiny_inputs_fall_back_to_sequential() {
        let ds = Dataset::from_rows(2, vec![vec![1, 2]]).unwrap();
        let space = ds.full_space();
        assert_eq!(skyline_parallel(&ds, space, Parallelism::new(8)), vec![0]);
    }

    use skycube_types::Dataset;
}
