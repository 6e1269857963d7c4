//! Maximal c-group enumeration over the seed objects — the paper's Figure 6.
//!
//! A depth-first set-enumeration search (Rymon's tree) over seed subsets,
//! with two classic closed-set techniques: *closure* (absorb every seed that
//! coincides with the anchor on the whole current subspace) and the
//! *canonical-prefix prune* (if the closure would absorb a seed that the
//! current branch skipped or that precedes the anchor, the group is generated
//! elsewhere — abandon the branch). Each maximal c-group is produced exactly
//! once, from the branch anchored at its smallest member.
//!
//! Every member of a group anchored at `a` shares a value with `a`, so the
//! search of anchor `a` walks only `a`'s *partners* — the seeds in its agree
//! sets, from [`SeedView::partners`] — and its cost follows the agreeing
//! pairs, not all pairs of seeds.

use crate::matrices::SeedView;
use skycube_parallel::{par_map_indexed, Parallelism};
use skycube_types::DimMask;

/// A maximal coincident group of seeds: `members` (seed indexes, ascending)
/// share exactly the projection over `subspace`, and no further seed shares
/// it (Definition 1).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MaxCGroup {
    /// Seed indexes of the members, ascending.
    pub members: Vec<usize>,
    /// The maximal subspace `B` of the group.
    pub subspace: DimMask,
}

/// Enumerate all maximal c-groups of the seeds, including every singleton
/// `({o}, D)` (the paper assumes no two objects agree on all dimensions —
/// callers bind duplicates first, see `Dataset::bind_duplicates`).
pub fn maximal_cgroups(view: &SeedView<'_>) -> Vec<MaxCGroup> {
    let mut out = Vec::new();
    // Scratch reused across top-level anchors.
    let mut search = Search::default();
    for anchor in 0..view.len() {
        search.run(view, anchor, &mut out);
    }
    debug_assert!(no_duplicates(&out), "duplicate maximal c-groups emitted");
    out
}

/// Parallel [`maximal_cgroups`]: the per-anchor searches are independent
/// (each anchor's branch enumerates exactly the maximal c-groups whose
/// smallest member is that anchor), so they fan out across threads and the
/// per-anchor outputs are concatenated in anchor order — the identical
/// `Vec`, element for element, as the sequential enumeration. With one
/// thread this *is* the sequential enumeration.
pub fn maximal_cgroups_par(view: &SeedView<'_>, par: Parallelism) -> Vec<MaxCGroup> {
    if par.is_sequential() {
        return maximal_cgroups(view);
    }
    let per_anchor: Vec<Vec<MaxCGroup>> = par_map_indexed(par, view.len(), |anchor| {
        let mut out = Vec::new();
        Search::default().run(view, anchor, &mut out);
        out
    });
    let out: Vec<MaxCGroup> = per_anchor.into_iter().flatten().collect();
    debug_assert!(no_duplicates(&out), "duplicate maximal c-groups emitted");
    out
}

/// The set-enumeration search of one anchor, over its partner list.
#[derive(Default)]
struct Search {
    anchor: usize,
    /// The anchor's partners `(j, co(anchor, j))`, ascending by `j`.
    partners: Vec<(usize, DimMask)>,
    /// `in_group[p]`: partner `p` is in the group under construction.
    in_group: Vec<bool>,
    /// Partner positions of the group under construction, besides the
    /// anchor, in the order they were absorbed (sorted before emission).
    members: Vec<usize>,
}

impl Search {
    /// Append every maximal c-group anchored at `anchor` (smallest member =
    /// `anchor`) to `out`.
    fn run(&mut self, view: &SeedView<'_>, anchor: usize, out: &mut Vec<MaxCGroup>) {
        self.anchor = anchor;
        view.partners(anchor, &mut self.partners);
        self.in_group.clear();
        self.in_group.resize(self.partners.len(), false);
        self.members.clear();
        // Only partners after the anchor can join its groups.
        let first = self.partners.partition_point(|&(j, _)| j < anchor);
        let tail: Vec<usize> = (first..self.partners.len()).collect();
        self.recurse(&tail, view.dataset().full_space(), out);
    }

    /// One node of the set-enumeration tree: the group coincides with the
    /// anchor on `space`; `tail` holds the partner positions still
    /// extendable (all greater than the last branch point), ascending.
    fn recurse(&mut self, tail: &[usize], space: DimMask, out: &mut Vec<MaxCGroup>) {
        // Closure: absorb every partner outside the group coinciding on all
        // of `space` with the anchor. Any such partner that is not available
        // in `tail` means this exact group is enumerated on another branch.
        let mut absorbed = 0usize;
        for p in 0..self.partners.len() {
            if self.partners[p].1.is_superset_of(space) && !self.in_group[p] {
                if tail.binary_search(&p).is_err() {
                    self.pop(absorbed);
                    return; // canonical-prefix prune
                }
                self.push(p);
                absorbed += 1;
            }
        }

        let mut group: Vec<usize> = self.members.clone();
        group.sort_unstable();
        let members = std::iter::once(self.anchor)
            .chain(group.iter().map(|&p| self.partners[p].0))
            .collect();
        out.push(MaxCGroup {
            members,
            subspace: space,
        });

        // Branch on each remaining tail element that still shares something.
        for (pos, &p) in tail.iter().enumerate() {
            if self.in_group[p] {
                continue; // absorbed by the closure above
            }
            let sub = self.partners[p].1 & space;
            if sub.is_empty() {
                continue;
            }
            // Keep every later element that still overlaps the child
            // subspace: the subspace may shrink further at deeper branches
            // (Example 8 extends o1o2o4@ACD by o5 to reach CD). The paper's
            // Figure 6 prints a `co ⊇ B'` filter here, which would lose such
            // groups and contradicts its own walkthrough; partial overlap is
            // the correct retention test.
            let new_tail: Vec<usize> = tail[pos + 1..]
                .iter()
                .copied()
                .filter(|&q| self.partners[q].1.intersects(sub))
                .collect();
            self.push(p);
            self.recurse(&new_tail, sub, out);
            self.pop(1);
        }

        self.pop(absorbed);
    }

    fn push(&mut self, p: usize) {
        self.in_group[p] = true;
        self.members.push(p);
    }

    /// Undo the last `k` pushes.
    fn pop(&mut self, k: usize) {
        for p in self.members.drain(self.members.len() - k..) {
            self.in_group[p] = false;
        }
    }
}

fn no_duplicates(groups: &[MaxCGroup]) -> bool {
    use std::collections::HashSet;
    let mut seen = HashSet::with_capacity(groups.len());
    groups
        .iter()
        .all(|g| seen.insert((g.subspace, g.members.clone())))
}

/// Brute-force maximal c-group enumeration for testing: for every subspace,
/// bucket the seeds by projection and keep buckets whose shared subspace is
/// exactly that subspace.
#[cfg(test)]
pub fn maximal_cgroups_bruteforce(view: &SeedView<'_>) -> Vec<MaxCGroup> {
    use std::collections::HashMap;
    let ds = view.dataset();
    let full = ds.full_space();
    let mut out: Vec<MaxCGroup> = Vec::new();
    for space in full.subsets() {
        let mut buckets: HashMap<Vec<i64>, Vec<usize>> = HashMap::new();
        for (i, &id) in view.seeds().iter().enumerate() {
            buckets.entry(ds.projection(id, space)).or_default().push(i);
        }
        for members in buckets.into_values() {
            // The shared subspace of the bucket must be exactly `space`.
            let mut shared = full;
            for w in members.windows(2) {
                shared = shared & ds.co_mask(view.id(w[0]), view.id(w[1]));
            }
            if members.len() == 1 {
                shared = full;
            }
            if shared == space {
                out.push(MaxCGroup {
                    members,
                    subspace: space,
                });
            }
        }
    }
    out.sort_by(|a, b| (a.subspace, &a.members).cmp(&(b.subspace, &b.members)));
    out
}

/// Reference for [`maximal_cgroups`], which must match it `Vec` for `Vec`:
/// the dense search, where every node scans the anchor's whole coincidence
/// row (one scalar `co_mask` per seed) and `tail` starts as every later
/// seed.
#[cfg(test)]
pub fn maximal_cgroups_dense(view: &SeedView<'_>) -> Vec<MaxCGroup> {
    let ds = view.dataset();
    let mut out = Vec::new();
    for anchor in 0..view.len() {
        let u = view.id(anchor);
        let co_row: Vec<DimMask> = view.seeds().iter().map(|&v| ds.co_mask(u, v)).collect();
        let tail: Vec<usize> = (anchor + 1..view.len()).collect();
        let mut search = DenseSearch {
            co_row: &co_row,
            out: &mut out,
            members: vec![anchor],
        };
        search.recurse(&tail, ds.full_space());
    }
    out
}

#[cfg(test)]
struct DenseSearch<'s> {
    co_row: &'s [DimMask],
    out: &'s mut Vec<MaxCGroup>,
    members: Vec<usize>,
}

#[cfg(test)]
impl DenseSearch<'_> {
    fn recurse(&mut self, tail: &[usize], space: DimMask) {
        let mut absorbed = 0usize;
        for j in 0..self.co_row.len() {
            if self.co_row[j].is_superset_of(space) && !self.members.contains(&j) {
                if !tail.contains(&j) {
                    self.members.truncate(self.members.len() - absorbed);
                    return;
                }
                self.members.push(j);
                absorbed += 1;
            }
        }
        let mut group: Vec<usize> = self.members.clone();
        group.sort_unstable();
        self.out.push(MaxCGroup {
            members: group,
            subspace: space,
        });
        for (pos, &j) in tail.iter().enumerate() {
            if self.members.contains(&j) {
                continue;
            }
            let sub = self.co_row[j] & space;
            if sub.is_empty() {
                continue;
            }
            let new_tail: Vec<usize> = tail[pos + 1..]
                .iter()
                .copied()
                .filter(|&k| self.co_row[k].intersects(sub))
                .collect();
            self.members.push(j);
            self.recurse(&new_tail, sub);
            self.members.pop();
        }
        self.members.truncate(self.members.len() - absorbed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skycube_types::{running_example, Dataset};

    fn sorted(mut v: Vec<MaxCGroup>) -> Vec<MaxCGroup> {
        v.sort_by(|a, b| (a.subspace, &a.members).cmp(&(b.subspace, &b.members)));
        v
    }

    #[test]
    fn running_example_seed_cgroups() {
        let ds = running_example();
        let view = SeedView::new(&ds, vec![1, 3, 4]); // P2, P4, P5
        let groups = sorted(maximal_cgroups(&view));
        // Expected (Example 4): singletons in ABCD, P2P5 in AD, P2P4 in C,
        // P4P5 in B.
        let expect = vec![
            ("B", vec![1, 2]),  // P4 P5
            ("C", vec![0, 1]),  // P2 P4
            ("AD", vec![0, 2]), // P2 P5
            ("ABCD", vec![0]),
            ("ABCD", vec![1]),
            ("ABCD", vec![2]),
        ];
        let expect: Vec<MaxCGroup> = expect
            .into_iter()
            .map(|(s, members)| MaxCGroup {
                members,
                subspace: DimMask::parse(s).unwrap(),
            })
            .collect();
        assert_eq!(groups, sorted(expect));
    }

    #[test]
    fn example_8_trace() {
        // The coincidence structure of Example 8: five objects o1..o5 in a
        // 4-d space with co(o1,o2)=ACD, co(o1,o3)=B, co(o1,o4)=ABCD,
        // co(o1,o5)=CD, co(o2,o5)=BCD. We realize it with concrete tuples:
        //   o1 = (1,2,3,4), o4 = o1 (bound pair is disallowed, so o4 shares
        //   all four dims implicitly — instead we model co(o1,o4)=ABCD as
        //   "distinct objects" being impossible; use a 5-dim space where o4
        //   differs on the extra dim only.
        let ds = Dataset::from_rows(
            5,
            vec![
                vec![1, 2, 3, 4, 0], // o1
                vec![1, 9, 3, 4, 1], // o2: shares ACD with o1
                vec![7, 2, 8, 9, 2], // o3: shares B with o1
                vec![1, 2, 3, 4, 3], // o4: shares ABCD with o1
                vec![6, 9, 3, 4, 4], // o5: shares CD with o1, BCD with o2
            ],
        )
        .unwrap();
        let view = SeedView::new(&ds, vec![0, 1, 2, 3, 4]);
        let got = sorted(maximal_cgroups(&view));
        let expect = sorted(maximal_cgroups_bruteforce(&view));
        assert_eq!(got, expect);
        // The walkthrough's key groups must be present: o1o2o4 in ACD,
        // o1o2o4o5 in CD, o1o3o4 in B, o1o4 in ABCD; and o1o5 (CD) and
        // o2o4 (CD) must NOT appear as they are non-maximal.
        let has = |s: &str, m: &[usize]| {
            got.iter()
                .any(|g| g.subspace == DimMask::parse(s).unwrap() && g.members == m)
        };
        assert!(has("ACD", &[0, 1, 3]));
        assert!(has("CD", &[0, 1, 3, 4]));
        assert!(has("B", &[0, 2, 3]));
        assert!(has("ABCD", &[0, 3]));
        assert!(!has("CD", &[0, 4]));
        assert!(!has("CD", &[1, 3]));
    }

    #[test]
    fn matches_bruteforce_on_randomized_small_inputs() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        for trial in 0..40 {
            let dims = rng.gen_range(1..=5);
            let n = rng.gen_range(1..=12);
            // Small value domain to force heavy coincidence; dedup rows to
            // honor the no-full-duplicates precondition.
            let mut rows: Vec<Vec<i64>> = Vec::new();
            while rows.len() < n {
                let row: Vec<i64> = (0..dims).map(|_| rng.gen_range(0..3)).collect();
                if !rows.contains(&row) {
                    rows.push(row);
                }
                if rows.len() >= 3usize.pow(dims as u32) {
                    break;
                }
            }
            let ds = Dataset::from_rows(dims, rows).unwrap();
            let view = SeedView::new(&ds, ds.ids().collect());
            assert_eq!(
                sorted(maximal_cgroups(&view)),
                maximal_cgroups_bruteforce(&view),
                "trial {trial}"
            );
        }
    }

    #[test]
    fn parallel_enumeration_is_vec_identical() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(123);
        for trial in 0..10 {
            let dims = rng.gen_range(2..=5);
            let mut rows: Vec<Vec<i64>> = Vec::new();
            while rows.len() < 14 {
                let row: Vec<i64> = (0..dims).map(|_| rng.gen_range(0..3)).collect();
                if !rows.contains(&row) {
                    rows.push(row);
                }
                if rows.len() >= 3usize.pow(dims as u32) {
                    break;
                }
            }
            let ds = Dataset::from_rows(dims, rows).unwrap();
            let view = SeedView::new(&ds, ds.ids().collect());
            let seq = maximal_cgroups(&view);
            for threads in [1, 2, 4] {
                let par = maximal_cgroups_par(&view, skycube_parallel::Parallelism::new(threads));
                assert_eq!(par, seq, "trial {trial} threads {threads}");
            }
        }
    }

    #[test]
    fn empty_and_singleton_views() {
        let ds = running_example();
        let view = SeedView::new(&ds, vec![]);
        assert!(maximal_cgroups(&view).is_empty());
        let view = SeedView::new(&ds, vec![2]);
        let groups = maximal_cgroups(&view);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].members, vec![0]);
        assert_eq!(groups[0].subspace, ds.full_space());
    }

    use skycube_types::DimMask;
}
