//! Seed skyline groups and their decisive subspaces — steps 1–4 of the
//! Stellar pipeline (Figure 7): enumerate maximal c-groups of the seeds
//! (Figure 6), then determine each group's decisive subspaces from the
//! dominance matrix alone (Theorem 3 + Corollary 1). A c-group whose clause
//! set contains an empty clause is dominated-or-tied somewhere in every
//! candidate subspace and is dropped — it is not a skyline group.
//!
//! A group's clauses are `B ∩ dom(rep, w)` over the outside seeds `w`, and
//! most seeds give one of a handful of masks (the paper's Example 6). The
//! anchor's dominance row is therefore bucketed by mask once, with counts;
//! each group subtracts its own members and builds its clause set from the
//! distinct masks left — at most `min(|seeds|, 2^d)` of them.

use crate::cgroups::{maximal_cgroups, maximal_cgroups_par, MaxCGroup};
use crate::matrices::SeedView;
use crate::transversal::ClauseSet;
use skycube_parallel::{par_map_indexed, Parallelism};
use skycube_types::DimMask;

/// A seed skyline group: members are indexes into the seed array, `subspace`
/// is the maximal subspace `B`, `decisive` the minimal decisive subspaces
/// (non-empty, an antichain, each ⊆ `B`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SeedGroup {
    /// Seed indexes, ascending.
    pub members: Vec<usize>,
    /// Maximal subspace `B`.
    pub subspace: DimMask,
    /// Decisive subspaces, sorted.
    pub decisive: Vec<DimMask>,
}

/// Compute all seed skyline groups of the view.
pub fn seed_skyline_groups(view: &SeedView<'_>) -> Vec<SeedGroup> {
    let cgroups = maximal_cgroups(view);
    let mut out = Vec::with_capacity(cgroups.len());
    // Groups arrive grouped by their anchor (smallest member), whose
    // dominance row drives the clause generation; bucket it once per anchor.
    let mut row = DomBuckets::new(view);
    for cg in cgroups {
        row.load(view, cg.members[0]);
        if let Some(decisive) = row.decisive_subspaces(&cg) {
            out.push(SeedGroup {
                members: cg.members,
                subspace: cg.subspace,
                decisive,
            });
        }
    }
    out
}

/// Parallel [`seed_skyline_groups`]: the c-groups are enumerated in
/// parallel ([`maximal_cgroups_par`]), then partitioned into runs sharing
/// an anchor (the enumeration emits them grouped by smallest member) and
/// each run's clause generation fans out across threads with its own
/// bucketed dominance row. Per-run outputs are concatenated in anchor
/// order, so the result is the identical `Vec` as the sequential pipeline.
/// With one thread this *is* the sequential pipeline.
pub fn seed_skyline_groups_par(view: &SeedView<'_>, par: Parallelism) -> Vec<SeedGroup> {
    if par.is_sequential() {
        return seed_skyline_groups(view);
    }
    let cgroups = maximal_cgroups_par(view, par);
    // Run boundaries: maximal runs of equal anchor (= members[0]).
    let mut runs: Vec<std::ops::Range<usize>> = Vec::new();
    let mut start = 0;
    for i in 1..=cgroups.len() {
        if i == cgroups.len() || cgroups[i].members[0] != cgroups[start].members[0] {
            runs.push(start..i);
            start = i;
        }
    }
    par_map_indexed(par, runs.len(), |r| {
        let run = &cgroups[runs[r].clone()];
        let mut out = Vec::with_capacity(run.len());
        let mut row = DomBuckets::new(view);
        row.load(view, run[0].members[0]);
        for cg in run {
            if let Some(decisive) = row.decisive_subspaces(cg) {
                out.push(SeedGroup {
                    members: cg.members.clone(),
                    subspace: cg.subspace,
                    decisive,
                });
            }
        }
        out
    })
    .into_iter()
    .flatten()
    .collect()
}

/// One anchor's dominance row, bucketed by mask: the distinct masks and
/// their multiplicities in an open-addressing table. When the `2^d` possible
/// masks fit in about twice the slots a hashed table would take, a mask is
/// its own slot and no two masks collide; otherwise a multiplicative hash
/// spreads up to `|seeds|` keys at load factor ≤ ½. Either way any
/// `d ≤ MAX_DIMS` fits.
struct DomBuckets {
    /// The loaded anchor (`usize::MAX` before the first load).
    anchor: usize,
    row: Vec<DimMask>,
    keys: Vec<DimMask>,
    /// Multiplicity per slot; 0 marks a free slot.
    counts: Vec<u32>,
    /// Occupied slots, in first-seen order.
    used: Vec<u32>,
    /// Slot of mask `m`: `(m · mul) >> shift`, probing linearly from there.
    mul: u32,
    shift: u32,
}

impl DomBuckets {
    fn new(view: &SeedView<'_>) -> Self {
        let dims = view.dataset().dims() as u32;
        let hashed = (2 * view.len()).next_power_of_two().max(2);
        let (size, mul, shift) = match 1usize.checked_shl(dims) {
            Some(all) if all <= 2 * hashed => (all, 1, 0),
            _ => (hashed, 0x9E37_79B9, 32 - hashed.trailing_zeros()),
        };
        DomBuckets {
            anchor: usize::MAX,
            row: Vec::new(),
            keys: vec![DimMask::EMPTY; size],
            counts: vec![0; size],
            used: Vec::new(),
            mul,
            shift,
        }
    }

    /// The slot holding mask `m`, or the free slot where it belongs.
    #[inline]
    fn slot(&self, m: DimMask) -> usize {
        let wrap = self.counts.len() - 1;
        let mut s = (m.0.wrapping_mul(self.mul) >> self.shift) as usize;
        while self.counts[s] != 0 && self.keys[s] != m {
            s = (s + 1) & wrap;
        }
        s
    }

    /// Bucket the dominance row of `anchor`, unless it is already loaded.
    fn load(&mut self, view: &SeedView<'_>, anchor: usize) {
        if anchor == self.anchor {
            return;
        }
        self.anchor = anchor;
        for &s in &self.used {
            self.counts[s as usize] = 0;
        }
        self.used.clear();
        view.dom_row(anchor, &mut self.row);
        for &m in &self.row {
            let s = self.slot(m);
            if self.counts[s] == 0 {
                self.keys[s] = m;
                self.used.push(s as u32);
            }
            self.counts[s] += 1;
        }
    }

    /// Corollary 1 for one maximal c-group anchored at the loaded anchor:
    /// one clause `B ∩ m` per distinct mask `m` of an outside seed; `None`
    /// when some clause is empty (Theorem 3: the group is dominated or
    /// non-exclusive everywhere and is not a skyline group).
    fn decisive_subspaces(&mut self, cg: &MaxCGroup) -> Option<Vec<DimMask>> {
        debug_assert_eq!(cg.members[0], self.anchor);
        // Find every member's slot before subtracting any: a slot emptied
        // by the subtraction would end the probe of a key stored past it.
        let slots: Vec<usize> = cg.members.iter().map(|&w| self.slot(self.row[w])).collect();
        for &s in &slots {
            self.counts[s] -= 1;
        }
        let mut clauses = ClauseSet::new();
        let ok = self.used.iter().all(|&s| {
            self.counts[s as usize] == 0 || clauses.add(self.keys[s as usize] & cg.subspace)
        });
        for &s in &slots {
            self.counts[s] += 1;
        }
        ok.then(|| decisives_of(clauses, cg.subspace))
    }
}

/// The minimal decisive subspaces of a group with maximal subspace
/// `subspace` whose (non-empty) clauses are `clauses`.
fn decisives_of(clauses: ClauseSet, subspace: DimMask) -> Vec<DimMask> {
    let ts = clauses.minimal_transversals();
    debug_assert!(!ts.is_empty());
    // With no outside seeds at all (a lone seed), the empty transversal
    // means "any single dimension qualifies": the minimal decisive
    // subspaces are the single dimensions of B. The paper defines decisive
    // subspaces as non-empty, and indeed a sole object is the skyline of
    // every subspace.
    if ts.len() == 1 && ts[0].is_empty() {
        return subspace.iter().map(DimMask::single).collect();
    }
    ts
}

/// Reference for [`seed_skyline_groups`], which must match it `Vec` for
/// `Vec`: the c-groups come from the dense search, and every group adds one
/// clause per outside seed, from scalar dominance masks.
#[cfg(test)]
pub fn seed_skyline_groups_dense(view: &SeedView<'_>) -> Vec<SeedGroup> {
    let ds = view.dataset();
    let mut out = Vec::new();
    for cg in crate::cgroups::maximal_cgroups_dense(view) {
        let rep = view.id(cg.members[0]);
        let mut clauses = ClauseSet::new();
        let ok = (0..view.len())
            .filter(|w| !cg.members.contains(w))
            .all(|w| clauses.add(ds.dom_mask(rep, view.id(w)) & cg.subspace));
        if ok {
            out.push(SeedGroup {
                decisive: decisives_of(clauses, cg.subspace),
                members: cg.members,
                subspace: cg.subspace,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use skycube_types::{running_example, Dataset};

    fn mask(s: &str) -> DimMask {
        DimMask::parse(s).unwrap()
    }

    fn find<'a>(groups: &'a [SeedGroup], members: &[usize]) -> &'a SeedGroup {
        groups
            .iter()
            .find(|g| g.members == members)
            .unwrap_or_else(|| panic!("group {members:?} missing from {groups:?}"))
    }

    /// The seed lattice of Figure 3(a), keyed by seed indexes 0=P2, 1=P4,
    /// 2=P5.
    #[test]
    fn figure_3a_seed_lattice() {
        let ds = running_example();
        let view = SeedView::new(&ds, vec![1, 3, 4]);
        let groups = seed_skyline_groups(&view);
        assert_eq!(groups.len(), 6);

        // (P2, (2,6,8,3), AC, CD)
        let p2 = find(&groups, &[0]);
        assert_eq!(p2.subspace, mask("ABCD"));
        assert_eq!(p2.decisive, vec![mask("AC"), mask("CD")]);

        // (P4, (6,4,8,5), BC)
        let p4 = find(&groups, &[1]);
        assert_eq!(p4.decisive, vec![mask("BC")]);

        // (P5, (2,4,9,3), AB, BD)
        let p5 = find(&groups, &[2]);
        assert_eq!(p5.decisive, vec![mask("AB"), mask("BD")]);

        // (P2P4, (*,*,8,*), C)
        let p2p4 = find(&groups, &[0, 1]);
        assert_eq!(p2p4.subspace, mask("C"));
        assert_eq!(p2p4.decisive, vec![mask("C")]);

        // (P2P5, (2,*,*,3), A, D)
        let p2p5 = find(&groups, &[0, 2]);
        assert_eq!(p2p5.subspace, mask("AD"));
        assert_eq!(p2p5.decisive, vec![mask("A"), mask("D")]);

        // (P4P5, (*,4,*,*), B)
        let p4p5 = find(&groups, &[1, 2]);
        assert_eq!(p4p5.subspace, mask("B"));
        assert_eq!(p4p5.decisive, vec![mask("B")]);
    }

    #[test]
    fn parallel_seed_groups_are_vec_identical() {
        let ds = running_example();
        let view = SeedView::new(&ds, vec![1, 3, 4]);
        let seq = seed_skyline_groups(&view);
        for threads in [1, 2, 4] {
            assert_eq!(
                seed_skyline_groups_par(&view, Parallelism::new(threads)),
                seq,
                "threads {threads}"
            );
        }
    }

    #[test]
    fn dominated_pair_group_is_dropped() {
        // Seeds u=(0,5,1), v=(5,0,1), w=(1,1,0): the pair group {u,v} shares
        // C with value 1, but w's C value 0 dominates it in C — clause
        // C ∩ dom(u,w) = C ∩ ∅ … w has smaller C, so dom(u,w) over C is
        // empty → the c-group (uv, C) must be dropped.
        let ds = Dataset::from_rows(3, vec![vec![0, 5, 1], vec![5, 0, 1], vec![1, 1, 0]]).unwrap();
        let view = SeedView::new(&ds, vec![0, 1, 2]);
        let groups = seed_skyline_groups(&view);
        assert!(groups.iter().all(|g| g.members != vec![0, 1]));
        // The three singletons survive.
        assert_eq!(groups.len(), 3);
    }

    #[test]
    fn lone_seed_has_single_dimension_decisives() {
        let ds = Dataset::from_rows(3, vec![vec![1, 2, 3], vec![2, 3, 4]]).unwrap();
        // Only object 0 is in the skyline.
        let view = SeedView::new(&ds, vec![0]);
        let groups = seed_skyline_groups(&view);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].subspace, mask("ABC"));
        assert_eq!(groups[0].decisive, vec![mask("A"), mask("B"), mask("C")]);
    }

    /// Seed views for the reference checks over bound datasets: the three
    /// distributions at d = 1..=12 and, at small n, d = 17 and d = 32; each
    /// also quantized to the tie-heavy domain 0..3, whose views also take
    /// the first 40 bound objects as seeds. Plus empty and one-seed views.
    fn reference_datasets() -> Vec<(String, Dataset, Vec<Vec<u32>>)> {
        use skycube_datagen::{generate, Distribution};
        let dists = [
            Distribution::Independent,
            Distribution::Correlated,
            Distribution::AntiCorrelated,
        ];
        let mut cases = Vec::new();
        for (d, n) in (1..=12).map(|d| (d, 120)).chain([(17, 24), (32, 12)]) {
            for dist in dists {
                let raw = generate(dist, n, d, 7 + d as u64);
                let ties: Vec<Vec<i64>> = raw
                    .ids()
                    .map(|o| {
                        raw.row(o)
                            .iter()
                            .map(|&v| (v * 3 / 10_000).clamp(0, 2))
                            .collect()
                    })
                    .collect();
                let ties = Dataset::from_rows(d, ties).unwrap();
                for (tag, ds) in [("", raw), (" ties", ties)] {
                    let (bound, _) = ds.bind_duplicates();
                    let mut seed_sets = vec![skycube_skyline::skyline(&bound, bound.full_space())];
                    if !tag.is_empty() {
                        seed_sets.push(bound.ids().take(40).collect());
                    }
                    cases.push((format!("{dist:?} d={d}{tag}"), bound, seed_sets));
                }
            }
        }
        let ds = running_example();
        cases.push(("empty and one seed".into(), ds, vec![vec![], vec![2]]));
        cases
    }

    #[test]
    fn partner_search_matches_the_dense_reference() {
        use crate::cgroups::maximal_cgroups_dense;
        for (name, ds, seed_sets) in reference_datasets() {
            for seeds in seed_sets {
                let view = SeedView::new(&ds, seeds);
                let want = maximal_cgroups_dense(&view);
                assert_eq!(maximal_cgroups(&view), want, "{name}, {} seeds", view.len());
                for threads in [1, 2, 4] {
                    let got = maximal_cgroups_par(&view, Parallelism::new(threads));
                    assert_eq!(got, want, "{name}, {} seeds, threads {threads}", view.len());
                }
            }
        }
    }

    #[test]
    fn bucketed_min_dnf_matches_the_per_seed_reference() {
        for (name, ds, seed_sets) in reference_datasets() {
            for seeds in seed_sets {
                let view = SeedView::new(&ds, seeds);
                let want = seed_skyline_groups_dense(&view);
                assert_eq!(
                    seed_skyline_groups(&view),
                    want,
                    "{name}, {} seeds",
                    view.len()
                );
                for threads in [1, 2, 4] {
                    let got = seed_skyline_groups_par(&view, Parallelism::new(threads));
                    assert_eq!(got, want, "{name}, {} seeds, threads {threads}", view.len());
                }
            }
        }
    }

    #[test]
    fn decisives_are_minimal_and_within_subspace() {
        let ds = running_example();
        let view = SeedView::new(&ds, vec![1, 3, 4]);
        for g in seed_skyline_groups(&view) {
            for (i, &c) in g.decisive.iter().enumerate() {
                assert!(!c.is_empty());
                assert!(c.is_subset_of(g.subspace));
                for (j, &c2) in g.decisive.iter().enumerate() {
                    if i != j {
                        assert!(!c.is_subset_of(c2), "antichain violated in {g:?}");
                    }
                }
            }
        }
    }
}
