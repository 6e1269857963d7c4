//! Skyline-group assembly from subspace skylines — the second half of the
//! Skyey baseline, and at the same time a definition-level oracle for
//! Stellar: it derives the compressed skyline cube directly from
//! Definitions 1–2, one subspace at a time.
//!
//! For every subspace `A`, the skyline objects are bucketed by their
//! projection; a bucket is exactly the set of objects sharing a skyline
//! value, i.e. a coincident group that is skyline *and exclusive* in `A`.
//! Collecting, per member set `G`, all subspaces where `G` appears this way
//! yields the group's structure: the largest collected subspace is the
//! maximal subspace `B` (see the proof sketch in the module tests), and the
//! minimal collected subspaces are precisely the decisive subspaces.

use crate::dfs::{for_each_subspace_skyline, for_each_subspace_skyline_from};
use skycube_parallel::{par_map_indexed, Parallelism};
use skycube_types::{ColumnView, Dataset, DimMask, ObjId, SkylineGroup, Value};
use std::collections::HashMap;

/// member set (sorted ids) → subspaces where the set is an exclusive
/// skyline bucket, in DFS visitation order.
type Occurrences = HashMap<Vec<ObjId>, Vec<DimMask>>;

/// Compute all skyline groups with their decisive subspaces by searching
/// every subspace (the Skyey algorithm). Output is unnormalized order;
/// groups themselves are normalized.
pub fn skyey_groups(ds: &Dataset) -> Vec<SkylineGroup> {
    let mut occurrences: Occurrences = HashMap::new();
    let mut buckets: HashMap<Vec<Value>, Vec<ObjId>> = HashMap::new();
    for_each_subspace_skyline(ds, |space, sky| {
        record_occurrences(ds, space, sky, &mut buckets, &mut occurrences);
    });
    assemble(occurrences)
}

/// Parallel [`skyey_groups`]: each top-level DFS branch builds its own
/// occurrence map on its own thread; the maps are merged in branch order
/// (restoring the sequential DFS visitation order of each member set's
/// occurrence list) and assembled into groups exactly as the sequential
/// path does. The resulting group *set* is identical; like the sequential
/// function, the output order is unspecified (hash-map iteration) —
/// compare with `normalize_groups`. With one thread this *is* the
/// sequential path.
pub fn skyey_groups_par(ds: &Dataset, par: Parallelism) -> Vec<SkylineGroup> {
    if par.is_sequential() {
        return skyey_groups(ds);
    }
    let n = ds.dims();
    if ds.is_empty() || n == 0 {
        return Vec::new();
    }
    let view = ColumnView::with_rank_orders(ds);
    let per_branch: Vec<Occurrences> = par_map_indexed(par, n, |d| {
        let mut occurrences: Occurrences = HashMap::new();
        let mut buckets: HashMap<Vec<Value>, Vec<ObjId>> = HashMap::new();
        for_each_subspace_skyline_from(ds, &view, d, &mut |space, sky| {
            record_occurrences(ds, space, sky, &mut buckets, &mut occurrences);
        });
        occurrences
    });
    let mut occurrences: Occurrences = HashMap::new();
    for branch in per_branch {
        for (members, spaces) in branch {
            occurrences.entry(members).or_default().extend(spaces);
        }
    }
    assemble(occurrences)
}

/// Bucket one subspace's skyline by projection and append the subspace to
/// each bucket's occurrence list.
fn record_occurrences(
    ds: &Dataset,
    space: DimMask,
    sky: &[ObjId],
    buckets: &mut HashMap<Vec<Value>, Vec<ObjId>>,
    occurrences: &mut Occurrences,
) {
    buckets.clear();
    for &o in sky {
        buckets.entry(ds.projection(o, space)).or_default().push(o);
    }
    for members in buckets.values() {
        let mut members = members.clone();
        members.sort_unstable();
        occurrences.entry(members).or_default().push(space);
    }
}

/// Turn the occurrence lists into skyline groups (maximal subspace =
/// unique maximum occurrence, decisive subspaces = minimal occurrences).
fn assemble(occurrences: Occurrences) -> Vec<SkylineGroup> {
    occurrences
        .into_iter()
        .map(|(members, mut spaces)| {
            // Maximal subspace: the unique maximum of the occurrence set.
            spaces.sort_unstable_by_key(|s| (s.len(), s.0));
            let subspace = *spaces.last().expect("non-empty occurrence list");
            debug_assert!(
                spaces.iter().all(|s| s.is_subset_of(subspace)),
                "occurrences of {members:?} not downward closed under {subspace}"
            );
            // Decisive subspaces: the minimal occurrences.
            let mut decisive: Vec<DimMask> = Vec::new();
            for &s in &spaces {
                if !decisive.iter().any(|&d| d.is_subset_of(s)) {
                    decisive.push(s);
                }
            }
            SkylineGroup::new(members, subspace, decisive)
        })
        .collect()
}

/// The number of skyline groups (the paper's compression metric) without
/// keeping the groups around.
pub fn skyey_group_count(ds: &Dataset) -> usize {
    skyey_groups(ds).len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use skycube_types::{normalize_groups, running_example};

    fn mask(s: &str) -> DimMask {
        DimMask::parse(s).unwrap()
    }

    #[test]
    fn figure_3b_from_subspace_search() {
        let ds = running_example();
        let groups = normalize_groups(skyey_groups(&ds));
        let expect = normalize_groups(vec![
            SkylineGroup::new(vec![4], mask("ABCD"), vec![mask("AB")]),
            SkylineGroup::new(vec![1], mask("ABCD"), vec![mask("AC"), mask("CD")]),
            SkylineGroup::new(vec![3], mask("ABCD"), vec![mask("BC")]),
            SkylineGroup::new(vec![2, 4], mask("BCD"), vec![mask("BD")]),
            SkylineGroup::new(vec![1, 4], mask("AD"), vec![mask("A")]),
            SkylineGroup::new(vec![2, 3, 4], mask("B"), vec![mask("B")]),
            SkylineGroup::new(vec![1, 2, 4], mask("D"), vec![mask("D")]),
            SkylineGroup::new(vec![1, 3], mask("C"), vec![mask("C")]),
        ]);
        assert_eq!(groups, expect);
    }

    #[test]
    fn example_1_two_dimensional() {
        // Figure 1: a=(2,6), b=(2,5), c=(4,4), d=(3,3)?? — the figure's
        // exact coordinates are approximate in the text; we use values
        // consistent with its skyline table: X-skyline {a,b}, Y-skyline
        // {e}, XY-skyline {b,d,e}.
        let ds = Dataset::from_rows(
            2,
            vec![
                vec![2, 6], // a
                vec![2, 5], // b
                vec![4, 4], // c
                vec![3, 3], // d
                vec![7, 1], // e
            ],
        )
        .unwrap();
        use skycube_skyline::skyline_naive;
        assert_eq!(skyline_naive(&ds, mask("A")), vec![0, 1]);
        assert_eq!(skyline_naive(&ds, mask("B")), vec![4]);
        assert_eq!(skyline_naive(&ds, mask("AB")), vec![1, 3, 4]);

        let groups = normalize_groups(skyey_groups(&ds));
        let expect = normalize_groups(vec![
            // (e, XY) decisive Y.
            SkylineGroup::new(vec![4], mask("AB"), vec![mask("B")]),
            // (d, XY) decisive XY.
            SkylineGroup::new(vec![3], mask("AB"), vec![mask("AB")]),
            // (ab, X) decisive X.
            SkylineGroup::new(vec![0, 1], mask("A"), vec![mask("A")]),
            // (b, XY) decisive XY.
            SkylineGroup::new(vec![1], mask("AB"), vec![mask("AB")]),
        ]);
        assert_eq!(groups, expect);
    }

    #[test]
    fn group_count_matches_groups_len() {
        let ds = running_example();
        assert_eq!(skyey_group_count(&ds), skyey_groups(&ds).len());
    }

    #[test]
    fn parallel_groups_match_sequential() {
        let ds = running_example();
        let seq = normalize_groups(skyey_groups(&ds));
        for threads in [1, 2, 4] {
            let par = normalize_groups(skyey_groups_par(
                &ds,
                skycube_parallel::Parallelism::new(threads),
            ));
            assert_eq!(par, seq, "threads {threads}");
        }
    }

    use skycube_types::Dataset;
}
