//! Accommodating non-seed objects into the seed lattice — step 5 of the
//! Stellar pipeline (Theorem 5). The seed lattice is a quotient of the full
//! skyline-group lattice (Theorem 2); this module performs the refinement:
//! each seed group either survives unchanged, absorbs non-seeds that share
//! its whole maximal subspace, or *splits off* child groups at the
//! intersection-closed sharing masks of the relevant non-seeds — and each
//! decisive subspace is re-minimized against the coinciding outsiders.
//!
//! A non-seed `p` is *relevant* to a seed group iff its sharing mask
//! `m_p = {d ∈ B′ : p.d = G′.d}` contains one of the group's decisive
//! subspaces; all other non-seeds can neither join a derived group (any
//! derived subspace contains a decisive subspace) nor invalidate a decisive
//! subspace (an offender coincides on it). Relevant objects are found by
//! intersecting per-dimension `value → non-seed ids` posting lists over the
//! dimensions of each decisive subspace, instead of scanning every non-seed
//! per group (an engineering addition). The probe values are always a
//! seed's, so only the values some seed holds get a list, found through a
//! hashed map of the seed values.

use crate::matrices::SeedView;
use crate::seeds::SeedGroup;
use crate::transversal::{minimize_antichain, ClauseSet};
use skycube_parallel::{par_map_indexed, Parallelism};
use skycube_types::{Dataset, DimMask, FastHash, ObjId, SkylineGroup, Value};
use std::collections::HashMap;

/// Extend the seed lattice to the skyline groups over the whole dataset.
/// The returned groups use dataset object ids, in seed-group order.
pub fn extend_to_full(view: &SeedView<'_>, seed_groups: &[SeedGroup]) -> Vec<SkylineGroup> {
    let ctx = ExtensionContext::new(view);
    let mut out: Vec<SkylineGroup> = Vec::new();
    let mut scratch = Scratch::default();
    for sg in seed_groups {
        ctx.extend_into(view, sg, &mut scratch, &mut out);
    }
    out
}

/// Parallel [`extend_to_full`]: the per-seed-group accommodation steps are
/// independent (each reads the shared view and posting index and writes
/// only its own derived groups), so they fan out across threads and the
/// per-group outputs are concatenated in seed-group order, yielding the
/// identical `Vec` as the sequential loop. With one thread this *is* the
/// sequential loop.
pub fn extend_to_full_par(
    view: &SeedView<'_>,
    seed_groups: &[SeedGroup],
    par: Parallelism,
) -> Vec<SkylineGroup> {
    if par.is_sequential() {
        return extend_to_full(view, seed_groups);
    }
    let ctx = ExtensionContext::new(view);
    par_map_indexed(par, seed_groups.len(), |i| {
        let mut out = Vec::new();
        ctx.extend_group(view, &seed_groups[i], &mut out);
        out
    })
    .into_iter()
    .flatten()
    .collect()
}

/// The ids of `ds` that are not in `seeds`, both ascending.
pub(crate) fn non_seed_ids<'a>(
    ds: &'a Dataset,
    seeds: &'a [ObjId],
) -> impl Iterator<Item = ObjId> + 'a {
    let mut seeds = seeds.iter().copied().peekable();
    ds.ids().filter(move |&o| seeds.next_if_eq(&o).is_none())
}

/// Incremental accommodation state for delta maintenance: per-dimension
/// posting lists over the non-seeds, kept up to date under single-object
/// mutations so a mutation re-extends only the touched seed groups instead
/// of rebuilding the lists over all non-seeds.
///
/// The lists are keyed by the values the seeds hold: `slots[d]` maps each
/// distinct seed value of dimension `d` to its list, and `lists[d][k]` holds
/// the non-seed ids whose value there is the one mapped to `k`, ascending.
/// The extension probes only a seed's values, so a value no seed holds
/// needs no list. Ids are *bound* dataset ids, and the owner keeps the seed
/// set fixed for the context's life: it calls
/// [`ExtensionContext::insert_non_seed`] when a fresh bound non-seed
/// appears and [`ExtensionContext::retire_non_seed`] when one disappears.
/// No other id changes, so each call edits at most one list per dimension.
pub struct ExtensionContext {
    slots: Vec<HashMap<Value, u32, FastHash>>,
    lists: Vec<Vec<Vec<ObjId>>>,
}

impl ExtensionContext {
    /// Build the non-seeds' posting lists from the current seed view: one
    /// hashed lookup of the seed values per non-seed value. The ids are
    /// visited in ascending order, so every list comes out ascending.
    pub fn new(view: &SeedView<'_>) -> Self {
        let ds = view.dataset();
        let slots: Vec<HashMap<Value, u32, FastHash>> = (0..ds.dims())
            .map(|d| {
                let mut slot = HashMap::with_capacity_and_hasher(view.len(), FastHash::new());
                for &s in view.seeds() {
                    let next = slot.len() as u32;
                    slot.entry(ds.value(s, d)).or_insert(next);
                }
                slot
            })
            .collect();
        let mut lists: Vec<Vec<Vec<ObjId>>> = slots
            .iter()
            .map(|slot| vec![Vec::new(); slot.len()])
            .collect();
        for p in non_seed_ids(ds, view.seeds()) {
            for (d, v) in ds.row(p).iter().enumerate() {
                if let Some(&k) = slots[d].get(v) {
                    lists[d][k as usize].push(p);
                }
            }
        }
        ExtensionContext { slots, lists }
    }

    /// Register a fresh bound non-seed `p` with values `row`.
    pub fn insert_non_seed(&mut self, row: &[Value], p: ObjId) {
        for (d, &v) in row.iter().enumerate() {
            if let Some(list) = self.list_mut(d, v) {
                if let Err(at) = list.binary_search(&p) {
                    list.insert(at, p);
                }
            }
        }
    }

    /// Unregister bound non-seed `p`, whose values are `row`. Every other
    /// id keeps its value.
    pub fn retire_non_seed(&mut self, row: &[Value], p: ObjId) {
        for (d, &v) in row.iter().enumerate() {
            if let Some(list) = self.list_mut(d, v) {
                if let Ok(at) = list.binary_search(&p) {
                    list.remove(at);
                }
            }
        }
    }

    /// The list of dimension `d` for value `v`, if some seed holds `v`.
    fn list_mut(&mut self, d: usize, v: Value) -> Option<&mut Vec<ObjId>> {
        let k = *self.slots[d].get(&v)?;
        Some(&mut self.lists[d][k as usize])
    }

    /// Non-seeds matching `rep_row`, a seed's row, on every dimension of
    /// `dims` (ascending ids), via sorted-list intersection starting from
    /// the shortest posting list.
    fn matching(&self, rep_row: &[Value], dims: DimMask, out: &mut Vec<ObjId>) {
        out.clear();
        let mut lists: Vec<&[ObjId]> = Vec::with_capacity(dims.len());
        for d in dims.iter() {
            match self.slots[d].get(&rep_row[d]) {
                Some(&k) if !self.lists[d][k as usize].is_empty() => {
                    lists.push(&self.lists[d][k as usize])
                }
                _ => return, // no non-seed matches this dimension
            }
        }
        lists.sort_unstable_by_key(|l| l.len());
        let Some((first, rest)) = lists.split_first() else {
            return;
        };
        'cand: for &p in *first {
            for list in rest {
                if list.binary_search(&p).is_err() {
                    continue 'cand;
                }
            }
            out.push(p);
        }
    }

    /// Re-run the accommodation of one seed group against the current
    /// context, appending the derived groups to `out` in the same order as
    /// [`extend_to_full`] produces them for that group.
    pub fn extend_group(&self, view: &SeedView<'_>, sg: &SeedGroup, out: &mut Vec<SkylineGroup>) {
        self.extend_into(view, sg, &mut Scratch::default(), out);
    }

    /// [`ExtensionContext::extend_group`] with caller-owned scratch
    /// buffers, reused across the groups of one extension.
    fn extend_into(
        &self,
        view: &SeedView<'_>,
        sg: &SeedGroup,
        s: &mut Scratch,
        out: &mut Vec<SkylineGroup>,
    ) {
        let ds = view.dataset();
        let rep = view.id(sg.members[0]);
        let rep_row = ds.row(rep);
        let seed_ids: Vec<ObjId> = sg.members.iter().map(|&i| view.id(i)).collect();

        // 1. Relevant non-seeds: sharing mask within B′ contains some
        //    decisive subspace.
        s.relevant.clear();
        let mut seen: Vec<ObjId> = Vec::new();
        for &c in &sg.decisive {
            self.matching(rep_row, c, &mut s.candidates);
            for &p in &s.candidates {
                if let Err(at) = seen.binary_search(&p) {
                    seen.insert(at, p);
                }
            }
        }
        for &p in &seen {
            let m = ds.co_mask(rep, p) & sg.subspace;
            debug_assert!(sg.decisive.iter().any(|&c| c.is_subset_of(m)));
            s.relevant.push((m, p));
        }

        // 2. Fast path: untouched seed group.
        if s.relevant.is_empty() {
            out.push(SkylineGroup::new(
                seed_ids,
                sg.subspace,
                sg.decisive.clone(),
            ));
            return;
        }

        // 3. Intersection-closed family of candidate subspaces within B′, pruned
        //    to masks still containing a decisive subspace (an intersection of a
        //    non-qualifying mask can never re-qualify).
        s.closed.clear();
        s.closed.push(sg.subspace);
        let mut distinct_masks: Vec<DimMask> = s.relevant.iter().map(|&(m, _)| m).collect();
        distinct_masks.sort_unstable();
        distinct_masks.dedup();
        for &m in &distinct_masks {
            let before = s.closed.len();
            for i in 0..before {
                let inter = s.closed[i] & m;
                if !inter.is_empty()
                    && sg.decisive.iter().any(|&c| c.is_subset_of(inter))
                    && !s.closed.contains(&inter)
                {
                    s.closed.push(inter);
                }
            }
        }

        // 4. One derived group per closed mask that is the exact closure of its
        //    member set.
        for k in 0..s.closed.len() {
            let space = s.closed[k];
            s.members_buf.clear();
            let mut closure = sg.subspace;
            for &(m, p) in &s.relevant {
                if m.is_superset_of(space) {
                    s.members_buf.push(p);
                    closure = closure & m;
                }
            }
            if closure != space {
                continue; // not the canonical subspace for this member set
            }

            // Decisive subspaces of the derived group (Theorem 5, both bullets).
            s.cands.clear();
            for &c in &sg.decisive {
                if !c.is_subset_of(space) {
                    continue;
                }
                let mut clauses = ClauseSet::new();
                let mut offended = false;
                let mut impossible = false;
                for &(m, o) in &s.relevant {
                    if m.is_superset_of(c) && !m.is_superset_of(space) {
                        offended = true;
                        // Dims of the derived subspace where the group's value
                        // strictly beats the offender (Theorem 4's requirement).
                        let clause = ds.dom_mask(rep, o) & space;
                        if !clauses.add(clause) {
                            // Unreachable by the quotient-lattice argument (see
                            // module docs); kept as a safe fallback.
                            debug_assert!(false, "offender dominates derived group");
                            impossible = true;
                            break;
                        }
                    }
                }
                if impossible {
                    continue;
                }
                if !offended {
                    s.cands.push(c);
                } else {
                    for t in clauses.minimal_transversals() {
                        s.cands.push(c.union(t));
                    }
                }
            }
            minimize_antichain(&mut s.cands);
            debug_assert!(
                !s.cands.is_empty(),
                "derived group lost all decisive subspaces"
            );
            if s.cands.is_empty() {
                continue;
            }

            let mut members = seed_ids.clone();
            members.extend_from_slice(&s.members_buf);
            out.push(SkylineGroup::new(members, space, s.cands.clone()));
        }
    }
}

/// Whether non-seed `p` is relevant to seed group `sg`: its sharing mask
/// within the group's maximal subspace contains some decisive subspace. By
/// the derivation in the module docs this is exactly "p is a member of some
/// group derived from `sg`", which is what the delta path uses to find the
/// seed groups touched by a single-object mutation.
pub fn non_seed_relevant(view: &SeedView<'_>, sg: &SeedGroup, p: ObjId) -> bool {
    let ds = view.dataset();
    let rep = view.id(sg.members[0]);
    let m = ds.co_mask(rep, p) & sg.subspace;
    sg.decisive.iter().any(|&c| c.is_subset_of(m))
}

/// Reusable buffers for the per-group work.
#[derive(Default)]
struct Scratch {
    candidates: Vec<ObjId>,
    relevant: Vec<(DimMask, ObjId)>,
    closed: Vec<DimMask>,
    members_buf: Vec<ObjId>,
    cands: Vec<DimMask>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeds::seed_skyline_groups;
    use skycube_types::{normalize_groups, running_example, Dataset};

    fn mask(s: &str) -> DimMask {
        DimMask::parse(s).unwrap()
    }

    fn full_lattice(ds: &Dataset) -> Vec<SkylineGroup> {
        let seeds = skycube_skyline::skyline(ds, ds.full_space());
        let view = SeedView::new(ds, seeds);
        let sgs = seed_skyline_groups(&view);
        normalize_groups(extend_to_full(&view, &sgs))
    }

    /// Figure 3(b): the skyline groups and decisive subspaces on all of S.
    #[test]
    fn figure_3b_full_lattice() {
        let ds = running_example();
        let groups = full_lattice(&ds);
        let expect = normalize_groups(vec![
            // (P5, (2,4,9,3), AB) — BD expanded away by P3, ABD ⊃ AB dropped.
            SkylineGroup::new(vec![4], mask("ABCD"), vec![mask("AB")]),
            // (P2, (2,6,8,3), AC, CD) — untouched.
            SkylineGroup::new(vec![1], mask("ABCD"), vec![mask("AC"), mask("CD")]),
            // (P4, (6,4,8,5), BC) — untouched.
            SkylineGroup::new(vec![3], mask("ABCD"), vec![mask("BC")]),
            // (P3P5, (*,4,9,3), BD) — new split group; shares BCD.
            SkylineGroup::new(vec![2, 4], mask("BCD"), vec![mask("BD")]),
            // (P2P5, (2,*,*,3), A) — D no longer decisive (P3 shares D).
            SkylineGroup::new(vec![1, 4], mask("AD"), vec![mask("A")]),
            // (P3P4P5, (*,4,*,*), B) — P3 absorbed at the full subspace.
            SkylineGroup::new(vec![2, 3, 4], mask("B"), vec![mask("B")]),
            // (P2P3P5, (*,*,*,3), D) — new split group below P2P5.
            SkylineGroup::new(vec![1, 2, 4], mask("D"), vec![mask("D")]),
            // (P2P4, (*,*,8,*), C) — untouched.
            SkylineGroup::new(vec![1, 3], mask("C"), vec![mask("C")]),
        ]);
        assert_eq!(groups, expect);
    }

    /// The posting-list intersection finds exactly the relevant non-seeds:
    /// a non-seed joins some group derived from a seed group iff the
    /// per-pair test [`non_seed_relevant`] holds.
    #[test]
    fn posting_lists_find_exactly_the_relevant_non_seeds() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(31);
        for trial in 0..25 {
            let dims = rng.gen_range(2..=5);
            let n = rng.gen_range(2..=40);
            let mut rows: Vec<Vec<i64>> = Vec::new();
            while rows.len() < n {
                let row: Vec<i64> = (0..dims).map(|_| rng.gen_range(0..4)).collect();
                if !rows.contains(&row) {
                    rows.push(row);
                }
                if rows.len() >= 4usize.pow(dims as u32) {
                    break;
                }
            }
            let ds = Dataset::from_rows(dims, rows).unwrap();
            let seeds = skycube_skyline::skyline(&ds, ds.full_space());
            let view = SeedView::new(&ds, seeds);
            let ctx = ExtensionContext::new(&view);
            for sg in seed_skyline_groups(&view) {
                let mut derived = Vec::new();
                ctx.extend_group(&view, &sg, &mut derived);
                let mut joined: Vec<ObjId> = derived
                    .iter()
                    .flat_map(|g| g.members.iter().copied())
                    .filter(|o| view.seeds().binary_search(o).is_err())
                    .collect();
                joined.sort_unstable();
                joined.dedup();
                let relevant: Vec<ObjId> = ds
                    .ids()
                    .filter(|o| view.seeds().binary_search(o).is_err())
                    .filter(|&p| non_seed_relevant(&view, &sg, p))
                    .collect();
                assert_eq!(joined, relevant, "trial {trial} group {sg:?}");
            }
        }
    }

    #[test]
    fn parallel_extension_is_vec_identical() {
        let ds = running_example();
        let seeds = skycube_skyline::skyline(&ds, ds.full_space());
        let view = SeedView::new(&ds, seeds);
        let sgs = seed_skyline_groups(&view);
        let seq = extend_to_full(&view, &sgs);
        for threads in [1, 2, 4] {
            assert_eq!(
                extend_to_full_par(&view, &sgs, Parallelism::new(threads)),
                seq,
                "threads {threads}"
            );
        }
    }

    #[test]
    fn all_seeds_survive_in_full_space_groups() {
        let ds = running_example();
        let groups = full_lattice(&ds);
        for seed in [1u32, 3, 4] {
            assert!(groups
                .iter()
                .any(|g| g.subspace == ds.full_space() && g.members.contains(&seed)));
        }
    }

    #[test]
    fn theorem1_every_group_contains_a_seed() {
        let ds = running_example();
        let groups = full_lattice(&ds);
        let seeds = [1u32, 3, 4];
        for g in &groups {
            assert!(
                g.members.iter().any(|m| seeds.contains(m)),
                "group without seed: {g:?}"
            );
        }
    }
}
