//! The compressed skyline cube: the complete set of skyline groups with
//! their decisive subspaces, plus the three query families the paper builds
//! on it (Section 1): subspace-skyline extraction, object→subspace
//! membership, and multidimensional (per-dimensionality) skyline analysis.

use crate::index::CubeIndex;
use skycube_types::{Dataset, DimMask, ObjId, SkylineGroup};
use std::sync::OnceLock;

/// The scan-path tables: the group list plus the per-object reverse map.
/// Built cubes own them from construction; loaded cubes derive them lazily
/// from the serving index (see [`GroupStorage::Loaded`]).
#[derive(Clone, Debug)]
struct GroupTables {
    groups: Vec<SkylineGroup>,
    /// `member_groups[o]` = indexes of the groups containing object `o`
    /// (empty for objects in no subspace skyline).
    member_groups: Vec<Vec<u32>>,
}

impl GroupTables {
    fn from_groups(num_objects: usize, groups: Vec<SkylineGroup>) -> Self {
        // Room for an eighth more objects: the maintenance engine builds a
        // new cube at every seed-changing write, and without slack the
        // first insert after it would copy the whole table to grow it.
        let mut member_groups: Vec<Vec<u32>> = Vec::with_capacity(num_objects + num_objects / 8);
        member_groups.resize_with(num_objects, Vec::new);
        for (gi, g) in groups.iter().enumerate() {
            for &m in &g.members {
                member_groups[m as usize].push(gi as u32);
            }
        }
        GroupTables {
            groups,
            member_groups,
        }
    }

    /// Re-derive the tables from a serving index. Exact reconstruction: the
    /// index's CSR member runs preserve each group's (sorted) member order,
    /// the decisive spans return each group's (sorted) antichain verbatim,
    /// and the object CSR is the reverse map — so a loaded cube's scan path
    /// is indistinguishable from a built one's.
    fn from_index(ix: &CubeIndex) -> Self {
        let groups = (0..ix.num_groups() as u32)
            .map(|g| SkylineGroup {
                subspace: ix.subspace_of(g),
                members: ix.member_run(g).to_vec(),
                decisive: ix.decisive_of(g).to_vec(),
            })
            .collect();
        let member_groups = (0..ix.num_objects() as ObjId)
            .map(|o| ix.groups_of_obj(o).to_vec())
            .collect();
        GroupTables {
            groups,
            member_groups,
        }
    }
}

/// Where a cube's group tables live: owned from construction, or derived
/// on demand from a binary-loaded serving index — the load path then does
/// zero group materialization until (unless) a scan-path query or a
/// mutation actually needs the `Vec` form.
#[derive(Clone, Debug)]
enum GroupStorage {
    Built(GroupTables),
    Loaded(OnceLock<Box<GroupTables>>),
}

/// The materialized compressed skyline cube over one dataset.
///
/// Holds every skyline group `(G, B)` with its decisive subspaces. All
/// `2^n − 1` subspace skylines are derivable from it: object `o` is in the
/// skyline of subspace `A` iff some group containing `o` has a decisive
/// subspace `C` with `C ⊆ A ⊆ B`.
#[derive(Clone, Debug)]
pub struct CompressedSkylineCube {
    dims: usize,
    num_objects: usize,
    seeds: Vec<ObjId>,
    storage: GroupStorage,
    /// The serving index, built on first use (see [`CubeIndex`]); cube
    /// construction itself stays index-free so the build benchmarks measure
    /// the paper's algorithm alone. Binary-loaded cubes arrive with this
    /// pre-populated (zero-copy sections) — no build on the load path.
    index: OnceLock<CubeIndex>,
}

impl CompressedSkylineCube {
    /// Assemble a cube from computed groups. `seeds` are the full-space
    /// skyline objects, ascending.
    pub fn new(
        dims: usize,
        num_objects: usize,
        seeds: Vec<ObjId>,
        groups: Vec<SkylineGroup>,
    ) -> Self {
        CompressedSkylineCube {
            dims,
            num_objects,
            seeds,
            storage: GroupStorage::Built(GroupTables::from_groups(num_objects, groups)),
            index: OnceLock::new(),
        }
    }

    /// Assemble a cube around an already-validated (binary-loaded) serving
    /// index: the index *is* the storage, the group tables stay virtual
    /// until a scan-path consumer asks for them.
    pub(crate) fn from_loaded_index(seeds: Vec<ObjId>, index: CubeIndex) -> Self {
        let cube = CompressedSkylineCube {
            dims: index.dims(),
            num_objects: index.num_objects(),
            seeds,
            storage: GroupStorage::Loaded(OnceLock::new()),
            index: OnceLock::new(),
        };
        let _ = cube.index.set(index);
        cube
    }

    /// The scan-path tables, materializing them from the index for a
    /// loaded cube.
    fn tables(&self) -> &GroupTables {
        match &self.storage {
            GroupStorage::Built(t) => t,
            GroupStorage::Loaded(cell) => cell.get_or_init(|| {
                let ix = self.index.get().expect("a loaded cube carries its index");
                Box::new(GroupTables::from_index(ix))
            }),
        }
    }

    /// Convert loaded storage to built (materializing if necessary) so a
    /// mutation path can take `&mut` access to the tables. Must run
    /// *before* any `index.take()` — the tables are derived from the index.
    fn promote_storage(&mut self) {
        if let GroupStorage::Loaded(cell) = &mut self.storage {
            let tables = match cell.take() {
                Some(t) => t,
                None => {
                    let ix = self.index.get().expect("a loaded cube carries its index");
                    Box::new(GroupTables::from_index(ix))
                }
            };
            self.storage = GroupStorage::Built(*tables);
        }
    }

    /// The serving index over this cube (CSR member runs, posting lists,
    /// precomputed membership counts — see [`CubeIndex`]). Built once on
    /// first call and cached; every later call is free.
    pub fn index(&self) -> &CubeIndex {
        self.index.get_or_init(|| CubeIndex::build(self))
    }

    /// Whether the lazy serving index has been built.
    pub fn has_index(&self) -> bool {
        self.index.get().is_some()
    }

    /// Whether this cube came from a binary artifact and still serves the
    /// scan path virtually (group tables not yet materialized).
    pub fn is_loaded(&self) -> bool {
        matches!(self.storage, GroupStorage::Loaded(_))
    }

    /// Drop the lazy serving index (and with it its lattice memo), forcing
    /// a rebuild on next use. Full-recompute maintenance paths call this so
    /// stale postings are never served; the delta path splices instead.
    pub fn invalidate_index(&mut self) {
        // Loaded group tables are views over the index — pin them down
        // before the index goes away.
        self.promote_storage();
        self.index.take();
    }

    /// Swap in a new generation of groups/seeds *without* dropping the lazy
    /// index — the delta-maintenance path, which follows up with
    /// [`Self::splice_index`] so a built index is patched, never cold.
    /// `deleted` is the object a delete removed (ids above it shift down by
    /// one); an insert grows the cube to `num_objects`.
    pub(crate) fn replace_groups(
        &mut self,
        num_objects: usize,
        seeds: Vec<ObjId>,
        groups: Vec<SkylineGroup>,
        deleted: Option<ObjId>,
    ) {
        self.promote_storage();
        let GroupStorage::Built(tables) = &mut self.storage else {
            unreachable!("storage just promoted")
        };
        // Only the old groups' members have a non-empty bucket: clear those
        // (keeping their allocations), then remove or add the one slot the
        // mutation changed, and refill.
        for g in &tables.groups {
            for &m in &g.members {
                tables.member_groups[m as usize].clear();
            }
        }
        if let Some(d) = deleted {
            tables.member_groups.remove(d as usize);
        }
        tables.member_groups.resize_with(num_objects, Vec::new);
        for (gi, g) in groups.iter().enumerate() {
            for &m in &g.members {
                tables.member_groups[m as usize].push(gi as u32);
            }
        }
        self.num_objects = num_objects;
        self.seeds = seeds;
        tables.groups = groups;
    }

    /// Grow the cube by one object that is a member of no group (an insert
    /// strictly dominated everywhere, tying no skyline projection): every
    /// group, seed, and subspace skyline is unchanged. Patches a built
    /// serving index in place; returns `false` when no index was built.
    pub(crate) fn append_object(&mut self) -> bool {
        self.num_objects += 1;
        match &mut self.storage {
            GroupStorage::Built(t) => t.member_groups.push(Vec::new()),
            // A loaded cube keeps its virtual tables: drop any stale
            // materialization and let the next scan re-derive from the
            // (patched) index — the sparse object tables need no slot for a
            // memberless object, so the index stays fully zero-copy.
            GroupStorage::Loaded(cell) => {
                cell.take();
            }
        }
        match self.index.get_mut() {
            Some(ix) => {
                ix.append_object();
                true
            }
            None => false,
        }
    }

    /// Patch a built serving index in place against the current groups (see
    /// [`CubeIndex::splice`]). Returns `false` when no index was built —
    /// nothing to patch, the next [`Self::index`] call builds fresh.
    pub(crate) fn splice_index(
        &mut self,
        delta: &crate::lattice::GroupDelta,
        purge: &[(DimMask, Vec<DimMask>)],
    ) -> bool {
        self.promote_storage();
        let Self {
            dims,
            num_objects,
            storage,
            index,
            ..
        } = self;
        let GroupStorage::Built(tables) = storage else {
            unreachable!("storage just promoted")
        };
        match index.get_mut() {
            Some(ix) => {
                ix.splice(*dims, *num_objects, &tables.groups, delta, purge);
                true
            }
            None => false,
        }
    }

    /// Dimensionality of the full space.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The full space mask `D`.
    pub fn full_space(&self) -> DimMask {
        DimMask::full(self.dims)
    }

    /// Number of objects in the underlying dataset.
    pub fn num_objects(&self) -> usize {
        self.num_objects
    }

    /// The full-space skyline (seed objects), ascending ids.
    pub fn seeds(&self) -> &[ObjId] {
        &self.seeds
    }

    /// All skyline groups. On a loaded cube, the first call materializes
    /// the `Vec` tables from the index sections.
    pub fn groups(&self) -> &[SkylineGroup] {
        &self.tables().groups
    }

    /// Number of skyline groups — the paper's compression metric
    /// (Figures 9 and 10). Answered from the index on a loaded cube, so
    /// stats paths never force group materialization.
    pub fn num_groups(&self) -> usize {
        match &self.storage {
            GroupStorage::Built(t) => t.groups.len(),
            GroupStorage::Loaded(cell) => match cell.get() {
                Some(t) => t.groups.len(),
                None => self
                    .index
                    .get()
                    .expect("a loaded cube carries its index")
                    .num_groups(),
            },
        }
    }

    // ------------------------------------------------------------------
    // Query type 1: subspace skylines
    // ------------------------------------------------------------------

    /// The skyline groups active in subspace `space` (some decisive
    /// subspace of the group is ⊆ `space` ⊆ its maximal subspace).
    pub fn groups_in(&self, space: DimMask) -> impl Iterator<Item = &SkylineGroup> {
        self.tables()
            .groups
            .iter()
            .filter(move |g| g.covers_subspace(space))
    }

    /// The complete skyline of `space`, derived from the cube (ascending
    /// ids).
    ///
    /// # Panics
    /// Panics if `space` is empty or not a subspace of the full space —
    /// see [`CompressedSkylineCube::try_subspace_skyline`] for the
    /// error-returning variant.
    pub fn subspace_skyline(&self, space: DimMask) -> Vec<ObjId> {
        self.try_subspace_skyline(space)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// The complete skyline of `space`, or a diagnostic when `space` is
    /// empty or mentions dimensions beyond the cube's full space.
    pub fn try_subspace_skyline(&self, space: DimMask) -> Result<Vec<ObjId>, String> {
        if space.is_empty() {
            return Err("invalid subspace: the empty subspace has no skyline".to_owned());
        }
        if !space.is_subset_of(self.full_space()) {
            return Err(format!(
                "invalid subspace {space}: not a subspace of the {}-dimensional full space {}",
                self.dims,
                self.full_space()
            ));
        }
        let mut out: Vec<ObjId> = self
            .groups_in(space)
            .flat_map(|g| g.members.iter().copied())
            .collect();
        out.sort_unstable();
        out.dedup();
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Query type 2: object → subspaces
    // ------------------------------------------------------------------

    /// The groups containing object `o`.
    pub fn groups_of(&self, o: ObjId) -> impl Iterator<Item = &SkylineGroup> {
        let tables = self.tables();
        tables.member_groups[o as usize]
            .iter()
            .map(move |&gi| &tables.groups[gi as usize])
    }

    /// Whether object `o` is a skyline object of `space`.
    pub fn is_skyline_in(&self, o: ObjId, space: DimMask) -> bool {
        self.groups_of(o).any(|g| g.covers_subspace(space))
    }

    /// The subspace-membership summary of object `o`: for each group it
    /// belongs to, the interval(s) `[C_i, B]` of subspaces where it is a
    /// skyline member. Returns borrowed `(decisive, maximal)` pairs — no
    /// per-call clone of the decisive antichains.
    pub fn membership_intervals(&self, o: ObjId) -> Vec<(&[DimMask], DimMask)> {
        self.groups_of(o)
            .map(|g| (g.decisive.as_slice(), g.subspace))
            .collect()
    }

    /// The number of subspaces in which `o` is a skyline object.
    pub fn membership_count(&self, o: ObjId) -> u64 {
        // The per-group intervals of one object can overlap across groups
        // only if the object sits in two groups covering a common subspace,
        // which cannot happen: within one subspace an object belongs to
        // exactly one (maximal) coincident group. So the per-group counts
        // add up.
        self.groups_of(o).map(covered_subspace_count).sum()
    }

    // ------------------------------------------------------------------
    // Query type 3: multidimensional analysis
    // ------------------------------------------------------------------

    /// The size of the *SkyCube* (Yuan et al.): `Σ_B |skyline(B)|` over all
    /// non-empty subspaces — the paper's "number of subspace skyline
    /// objects" series in Figures 9 and 10 — derived from the compressed
    /// representation without touching the data.
    pub fn skycube_size(&self) -> u64 {
        self.tables()
            .groups
            .iter()
            .map(|g| covered_subspace_count(g) * g.members.len() as u64)
            .sum()
    }

    /// `Σ |skyline(B)|` broken down by subspace dimensionality `|B| = k`;
    /// entry `k − 1` of the result covers the `k`-dimensional subspaces.
    pub fn skycube_sizes_by_dimensionality(&self) -> Vec<u64> {
        let mut out = vec![0u64; self.dims];
        for g in &self.tables().groups {
            for (k, count) in covered_counts_by_size(g).into_iter().enumerate() {
                out[k] += count * g.members.len() as u64;
            }
        }
        out
    }

    /// The `k` objects that appear in the most subspace skylines, with their
    /// frequencies, descending (ties broken by ascending id) — *skyline
    /// frequency* analysis in the sense of Chan et al. (EDBT'06, the paper's
    /// reference \[4\]), answered directly from the compressed cube.
    pub fn top_k_frequent(&self, k: usize) -> Vec<(ObjId, u64)> {
        let mut freq: Vec<(ObjId, u64)> = (0..self.num_objects as ObjId)
            .filter_map(|o| {
                let n = self.membership_count(o);
                (n > 0).then_some((o, n))
            })
            .collect();
        freq.sort_unstable_by_key(|&(o, n)| (std::cmp::Reverse(n), o));
        freq.truncate(k);
        freq
    }

    /// Consistency check used by tests and `debug_assert`s: every group
    /// invariant that can be verified against the dataset.
    pub fn validate_against(&self, ds: &Dataset) -> Result<(), String> {
        for g in &self.tables().groups {
            if g.members.is_empty() {
                return Err(format!("empty group {g:?}"));
            }
            if g.decisive.is_empty() {
                return Err(format!("group without decisive subspace {g:?}"));
            }
            let rep = g.members[0];
            for &m in &g.members {
                if !ds.coincides(rep, m, g.subspace) {
                    return Err(format!("members do not coincide in {g:?}"));
                }
            }
            for &c in &g.decisive {
                if c.is_empty() || !c.is_subset_of(g.subspace) {
                    return Err(format!("bad decisive {c} in {g:?}"));
                }
            }
        }
        Ok(())
    }
}

/// Number of subspaces `A` with `C_i ⊆ A ⊆ B` for at least one decisive
/// `C_i`.
///
/// Two strategies: inclusion–exclusion over the decisive antichain (O(2^k)
/// for `k` decisives — exact and fast for the typical handful) and, when the
/// antichain is wide (real data at high dimensionality can produce dozens of
/// decisives per group), direct enumeration of the `2^|B|` subspaces of the
/// maximal subspace, which is bounded by the dimensionality instead.
pub(crate) fn covered_subspace_count(g: &SkylineGroup) -> u64 {
    if g.decisive.len() <= g.subspace.len().min(20) {
        covered_by_inclusion_exclusion(g)
    } else {
        g.subspace
            .subsets()
            .filter(|&a| g.decisive.iter().any(|c| c.is_subset_of(a)))
            .count() as u64
    }
}

fn covered_by_inclusion_exclusion(g: &SkylineGroup) -> u64 {
    let k = g.decisive.len();
    let b = g.subspace;
    let mut total: i64 = 0;
    for t in 1u32..(1u32 << k) {
        let mut union = DimMask::EMPTY;
        for (i, &c) in g.decisive.iter().enumerate() {
            if t & (1 << i) != 0 {
                union = union | c;
            }
        }
        let free = (b - union).len() as u32;
        let term = 1i64 << free;
        if t.count_ones() % 2 == 1 {
            total += term;
        } else {
            total -= term;
        }
    }
    total as u64
}

/// Like [`covered_subspace_count`] but split by subspace size: entry `k − 1`
/// counts the covered subspaces of dimensionality `k`. Same dual strategy.
fn covered_counts_by_size(g: &SkylineGroup) -> Vec<u64> {
    let dims = g.subspace.len();
    let k = g.decisive.len();
    if k > dims.min(20) {
        let mut out = vec![0u64; dims];
        for a in g.subspace.subsets() {
            if g.decisive.iter().any(|c| c.is_subset_of(a)) {
                out[a.len() - 1] += 1;
            }
        }
        return out;
    }
    let mut out = vec![0i64; dims];
    for t in 1u32..(1u32 << k) {
        let mut union = DimMask::EMPTY;
        for (i, &c) in g.decisive.iter().enumerate() {
            if t & (1 << i) != 0 {
                union = union | c;
            }
        }
        let fixed = union.len();
        let free = dims - fixed;
        let sign = if t.count_ones() % 2 == 1 { 1 } else { -1 };
        // Choose j of the free dims: subspace size fixed + j.
        let mut binom: i64 = 1; // C(free, 0)
        for j in 0..=free {
            out[fixed + j - 1] += sign * binom;
            if j < free {
                binom = binom * (free - j) as i64 / (j + 1) as i64;
            }
        }
    }
    out.into_iter().map(|x| x as u64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mask(s: &str) -> DimMask {
        DimMask::parse(s).unwrap()
    }

    /// A hand-built cube matching Figure 3(b) of the paper.
    fn figure_3b_cube() -> CompressedSkylineCube {
        let groups = vec![
            SkylineGroup::new(vec![4], mask("ABCD"), vec![mask("AB")]),
            SkylineGroup::new(vec![1], mask("ABCD"), vec![mask("AC"), mask("CD")]),
            SkylineGroup::new(vec![3], mask("ABCD"), vec![mask("BC")]),
            SkylineGroup::new(vec![2, 4], mask("BCD"), vec![mask("BD")]),
            SkylineGroup::new(vec![1, 4], mask("AD"), vec![mask("A")]),
            SkylineGroup::new(vec![2, 3, 4], mask("B"), vec![mask("B")]),
            SkylineGroup::new(vec![1, 2, 4], mask("D"), vec![mask("D")]),
            SkylineGroup::new(vec![1, 3], mask("C"), vec![mask("C")]),
        ];
        CompressedSkylineCube::new(4, 5, vec![1, 3, 4], groups)
    }

    #[test]
    fn subspace_skyline_queries() {
        let cube = figure_3b_cube();
        // Full space: the seeds.
        assert_eq!(cube.subspace_skyline(mask("ABCD")), vec![1, 3, 4]);
        // Subspace B: P3, P4, P5.
        assert_eq!(cube.subspace_skyline(mask("B")), vec![2, 3, 4]);
        // Subspace D: P2, P3, P5.
        assert_eq!(cube.subspace_skyline(mask("D")), vec![1, 2, 4]);
        // Subspace AD: P2 and P5 via (P2P5, A) plus nothing else… P3? P3 is
        // in groups BD-interval and D-interval; D ⊆ AD ⊆ … maximal D ⊉ AD,
        // BCD ⊉ AD. So {P2, P5}.
        assert_eq!(cube.subspace_skyline(mask("AD")), vec![1, 4]);
    }

    #[test]
    fn invalid_subspace_queries_return_errors() {
        let cube = figure_3b_cube();
        let err = cube.try_subspace_skyline(DimMask::EMPTY).unwrap_err();
        assert!(err.contains("empty subspace"), "{err}");
        // A mask naming dimension E of a 4-d cube.
        let err = cube.try_subspace_skyline(DimMask::single(4)).unwrap_err();
        assert!(err.contains("not a subspace"), "{err}");
        assert_eq!(
            cube.try_subspace_skyline(mask("B")).unwrap(),
            cube.subspace_skyline(mask("B"))
        );
    }

    #[test]
    fn object_membership_queries() {
        let cube = figure_3b_cube();
        // P3 (id 2) is skyline in D, BD, BCD, B, … but not in A or ABCD.
        assert!(cube.is_skyline_in(2, mask("B")));
        assert!(cube.is_skyline_in(2, mask("BD")));
        assert!(cube.is_skyline_in(2, mask("BCD")));
        assert!(cube.is_skyline_in(2, mask("D")));
        assert!(!cube.is_skyline_in(2, mask("ABCD")));
        assert!(!cube.is_skyline_in(2, mask("A")));
        // P1 (id 0) is nowhere.
        for s in DimMask::full(4).subsets() {
            assert!(!cube.is_skyline_in(0, s));
        }
        assert_eq!(cube.membership_count(0), 0);
    }

    #[test]
    fn membership_counts_match_direct_enumeration() {
        let cube = figure_3b_cube();
        for o in 0..5u32 {
            let direct = DimMask::full(4)
                .subsets()
                .filter(|&s| cube.is_skyline_in(o, s))
                .count() as u64;
            assert_eq!(cube.membership_count(o), direct, "object {o}");
        }
    }

    #[test]
    fn skycube_size_matches_direct_enumeration() {
        let cube = figure_3b_cube();
        let direct: u64 = DimMask::full(4)
            .subsets()
            .map(|s| cube.subspace_skyline(s).len() as u64)
            .sum();
        assert_eq!(cube.skycube_size(), direct);
    }

    #[test]
    fn by_dimensionality_sums_to_total() {
        let cube = figure_3b_cube();
        let by_k = cube.skycube_sizes_by_dimensionality();
        assert_eq!(by_k.len(), 4);
        assert_eq!(by_k.iter().sum::<u64>(), cube.skycube_size());
        // 1-d subspaces directly: skylines of A, B, C, D.
        let one_d: u64 = (0..4)
            .map(|d| cube.subspace_skyline(DimMask::single(d)).len() as u64)
            .sum();
        assert_eq!(by_k[0], one_d);
    }

    #[test]
    fn wide_antichain_falls_back_to_enumeration() {
        // A group whose decisive antichain is wider than its subspace
        // dimensionality: all C(6,3) = 20 three-dim subsets of a 6-d space.
        let b = DimMask::full(6);
        let decisive: Vec<DimMask> = b.subsets().filter(|s| s.len() == 3).collect();
        assert_eq!(decisive.len(), 20);
        let g = SkylineGroup::new(vec![0], b, decisive.clone());
        // Covered = all subspaces of size ≥ 3: C(6,3)+C(6,4)+C(6,5)+C(6,6).
        assert_eq!(covered_subspace_count(&g), 20 + 15 + 6 + 1);
        let by_size = covered_counts_by_size(&g);
        assert_eq!(by_size, vec![0, 0, 20, 15, 6, 1]);
        // Both strategies agree on a narrower instance.
        let g2 = SkylineGroup::new(vec![0], b, decisive.into_iter().take(4).collect());
        let direct = b
            .subsets()
            .filter(|&a| g2.decisive.iter().any(|c| c.is_subset_of(a)))
            .count() as u64;
        assert_eq!(covered_by_inclusion_exclusion(&g2), direct);
    }

    #[test]
    fn interval_counting_with_overlapping_decisives() {
        // B = ABCD, decisives AB and BD overlap on B: |{A : AB⊆A⊆ABCD}| = 4,
        // |BD ⊆ A| = 4, |ABD ⊆ A| = 2 → 4 + 4 − 2 = 6.
        let g = SkylineGroup::new(vec![0], mask("ABCD"), vec![mask("AB"), mask("BD")]);
        assert_eq!(covered_subspace_count(&g), 6);
    }

    #[test]
    fn top_k_frequent_ranks_by_membership() {
        let cube = figure_3b_cube();
        let top = cube.top_k_frequent(10);
        // All five objects except P1 appear somewhere; P5 is the most
        // frequent member of the running example.
        assert_eq!(top.len(), 4);
        assert!(top.iter().all(|&(o, _)| o != 0));
        for w in top.windows(2) {
            assert!(w[0].1 >= w[1].1, "not sorted: {top:?}");
        }
        // P2 and P5 tie at 10 subspace memberships; ascending id breaks it.
        assert_eq!(top[0], (1, 10));
        assert_eq!(top[1], (4, 10));
        assert_eq!(top[0].1, cube.membership_count(1));
        // Truncation.
        assert_eq!(cube.top_k_frequent(2).len(), 2);
        assert!(cube.top_k_frequent(0).is_empty());
    }

    #[test]
    fn top_k_frequent_is_deterministic_under_ties() {
        // Two singleton groups with identical coverage (subspaces A and AB
        // each): equal counts, so ascending id must decide the order — and
        // the serving index must agree with the scan path.
        let groups = vec![
            SkylineGroup::new(vec![3], mask("AB"), vec![mask("A")]),
            SkylineGroup::new(vec![1], mask("AB"), vec![mask("A")]),
        ];
        let cube = CompressedSkylineCube::new(2, 5, vec![1, 3], groups);
        assert_eq!(cube.top_k_frequent(5), vec![(1, 2), (3, 2)]);
        assert_eq!(cube.index().top_k_frequent(5), vec![(1, 2), (3, 2)]);
        assert_eq!(cube.top_k_frequent(1), vec![(1, 2)]);
        assert_eq!(cube.index().top_k_frequent(1), vec![(1, 2)]);
    }

    #[test]
    fn membership_intervals_borrow_group_antichains() {
        let cube = figure_3b_cube();
        let intervals = cube.membership_intervals(4);
        assert!(!intervals.is_empty());
        for (decisive, maximal) in intervals {
            assert!(!decisive.is_empty());
            assert!(decisive.iter().all(|c| c.is_subset_of(maximal)));
        }
    }

    #[test]
    fn lazy_index_agrees_with_scan_queries() {
        let cube = figure_3b_cube();
        let index = cube.index();
        for space in DimMask::full(4).subsets() {
            assert_eq!(index.subspace_skyline(space), cube.subspace_skyline(space));
        }
        // The cloned cube re-derives an identical index.
        let clone = cube.clone();
        assert_eq!(
            clone.index().top_k_frequent(10),
            cube.index().top_k_frequent(10)
        );
    }

    #[test]
    fn groups_in_filters_correctly() {
        let cube = figure_3b_cube();
        let in_c: Vec<_> = cube.groups_in(mask("C")).collect();
        assert_eq!(in_c.len(), 1);
        assert_eq!(in_c[0].members, vec![1, 3]);
    }

    #[test]
    #[should_panic]
    fn invalid_subspace_panics() {
        figure_3b_cube().subspace_skyline(DimMask::EMPTY);
    }

    #[test]
    fn accessors() {
        let cube = figure_3b_cube();
        assert_eq!(cube.dims(), 4);
        assert_eq!(cube.num_objects(), 5);
        assert_eq!(cube.num_groups(), 8);
        assert_eq!(cube.seeds(), &[1, 3, 4]);
        assert_eq!(cube.full_space(), mask("ABCD"));
    }

    #[test]
    fn validate_against_accepts_figure_3b() {
        use skycube_types::running_example;
        let cube = figure_3b_cube();
        assert!(cube.validate_against(&running_example()).is_ok());
    }

    #[test]
    fn validate_rejects_bad_cubes() {
        use skycube_types::running_example;
        let ds = running_example();
        // Group whose members do not coincide on its subspace.
        let bad = CompressedSkylineCube::new(
            4,
            5,
            vec![1],
            vec![SkylineGroup::new(vec![0, 1], mask("A"), vec![mask("A")])],
        );
        assert!(bad.validate_against(&ds).is_err());
        // Decisive outside the subspace.
        let bad = CompressedSkylineCube::new(
            4,
            5,
            vec![1],
            vec![SkylineGroup::new(vec![1], mask("A"), vec![mask("B")])],
        );
        assert!(bad.validate_against(&ds).is_err());
    }
}
