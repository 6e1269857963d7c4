//! Incremental cube maintenance — the extension direction pioneered by Xia &
//! Zhang's compressed-skycube refresh (SIGMOD'06, cited as [14] by the
//! paper).
//!
//! [`StellarEngine`] owns a dataset and its cube and supports object
//! insertion and deletion. The quotient-lattice structure gives a cheap fast
//! path: when the mutated object is a *non-seed* (strictly dominated on
//! insert, not a full-space skyline member on delete), the seed set — and
//! therefore the entire seed lattice of steps 1–4 — is unchanged, and only
//! the accommodation of the touched seed groups (step 5) needs to be redone.
//!
//! # Seed-changing writes
//!
//! The seed lattice is built from the seeds alone, so a write that changes
//! the seed set only needs to know which seeds entered or left. The engine
//! re-derives the new seed set from the old one, in the manner of DRed
//! (Gupta, Mumick & Subrahmanian, SIGMOD'93: delete what the removed fact
//! supported, then re-derive what still holds), and runs no full-space
//! skyline after its first build:
//! - an insert that no seed strictly dominates keeps the old seeds it does
//!   not dominate and adds itself. Every non-seed stays dominated: its
//!   dominating seed either survives or is dominated by the new row, which
//!   then dominates the non-seed too;
//! - deleting a seed whose row another object also holds changes nothing:
//!   that object dominates all the deleted one did;
//! - any other seed delete adds the skyline of the *candidates*, the rows
//!   the deleted seed dominated that no remaining seed dominates. Every
//!   other non-seed keeps a dominating seed, and every remaining dominator
//!   of a candidate is itself a candidate, so the candidates' own skyline
//!   is exactly the promoted set.
//!
//! Such a write still rebinds the rows and rebuilds the seed lattice and
//! the extension over the new seeds, and drops the serving index. An
//! adopted cube ([`StellarEngine::with_cube`]) supplies its stored seeds,
//! so a recovered engine runs no full-space skyline either.
//!
//! # Delta maintenance
//!
//! The fast path treats a mutation as a signed delta over the group lattice
//! (a Z-set with ±1 weights, in the DBSP sense): the per-seed-group
//! extension outputs are cached per chunk, only the chunks whose relevant
//! non-seed set changed are re-extended, and the old and new generations are
//! diffed with [`crate::lattice::diff_groups`]. The resulting
//! [`MaintenanceDelta`] drives *splicing*: a built [`crate::CubeIndex`] is
//! patched in place (carried groups keep their covered-subspace counts, the
//! lattice memo survives selectively) instead of being dropped, and serving
//! caches can purge only the subspaces covered by a touched group — see
//! [`MaintenanceDelta::covers`].
//!
//! Correctness of the selective purge: if the skyline of a subspace `A`
//! changes beyond the pure positional-id remap, some object joined or left
//! a group covering `A`, so that group's member list changed and the diff
//! classifies it as removed+added — a *touched* group covering `A`. A
//! surviving cache entry therefore needs only [`MaintenanceDelta::remap_ids`].

use crate::extend::ExtensionContext;
use crate::lattice::diff_groups;
use crate::matrices::SeedView;
use crate::seeds::{seed_skyline_groups, SeedGroup};
use crate::{CompressedSkylineCube, Stellar};
use skycube_skyline::{filter_presorted, skyline};
use skycube_types::{Binding, Dataset, DimMask, ObjId, Result, SkylineGroup, Value};

/// Mutation counters, split by path × operation. `spliced` counts the
/// mutations that patched a *built* serving index in place (a fast-path
/// mutation with no index built patches nothing — the next build is fresh).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MaintenanceStats {
    /// Inserts that took the incremental (delta) path.
    pub fast_inserts: usize,
    /// Seed-changing inserts: the seed lattice was rebuilt.
    pub full_inserts: usize,
    /// Deletes that took the incremental (delta) path.
    pub fast_deletes: usize,
    /// Seed deletes: the seed lattice was rebuilt.
    pub full_deletes: usize,
    /// Mutations that spliced a built serving index in place.
    pub spliced: usize,
}

impl MaintenanceStats {
    /// Total fast-path mutations.
    pub fn fast(&self) -> usize {
        self.fast_inserts + self.fast_deletes
    }

    /// Total seed-lattice rebuilds.
    pub fn full(&self) -> usize {
        self.full_inserts + self.full_deletes
    }

    /// Total successful mutations.
    pub fn total(&self) -> usize {
        self.fast() + self.full()
    }
}

/// One touched group of a maintenance delta: the `(maximal subspace,
/// decisive antichain)` of a group that was removed from or added to the
/// lattice by the mutation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TouchedGroup {
    /// The group's maximal subspace `B`.
    pub subspace: DimMask,
    /// The group's decisive antichain.
    pub decisive: Vec<DimMask>,
}

impl TouchedGroup {
    /// Whether this group covered (or covers) subspace `space`: some
    /// decisive `C ⊆ space ⊆ B`. Exactly the condition under which the
    /// group contributed members to `space`'s skyline.
    pub fn covers(&self, space: DimMask) -> bool {
        space.is_subset_of(self.subspace) && self.decisive.iter().any(|c| c.is_subset_of(space))
    }
}

/// What one successful mutation did to the cube, for generation-aware
/// serving layers: which groups were touched, which object ids moved, and
/// whether the serving index was spliced in place.
#[derive(Clone, Debug)]
pub struct MaintenanceDelta {
    generation: u64,
    full: bool,
    touched: Vec<TouchedGroup>,
    inserted: Option<ObjId>,
    deleted: Option<ObjId>,
    spliced: bool,
}

impl MaintenanceDelta {
    /// The delta of a seed-lattice rebuild: every derived answer is stale.
    pub fn full_rebuild(generation: u64) -> Self {
        MaintenanceDelta {
            generation,
            full: true,
            touched: Vec::new(),
            inserted: None,
            deleted: None,
            spliced: false,
        }
    }

    /// The engine generation this delta produced.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Whether this was a seed-lattice rebuild (no selective information).
    pub fn is_full(&self) -> bool {
        self.full
    }

    /// Whether the mutation spliced a built serving index in place.
    pub fn spliced(&self) -> bool {
        self.spliced
    }

    /// The groups removed or added by the mutation (empty for full rebuilds,
    /// which invalidate everything regardless).
    pub fn touched(&self) -> &[TouchedGroup] {
        &self.touched
    }

    /// Id of the inserted object, if the mutation was an insert.
    pub fn inserted(&self) -> Option<ObjId> {
        self.inserted
    }

    /// Pre-mutation id of the deleted object, if the mutation was a delete.
    pub fn deleted(&self) -> Option<ObjId> {
        self.deleted
    }

    /// Whether a cached answer for `space` must be dropped: a full rebuild,
    /// or some touched group covered/covers `space`. Answers for every other
    /// subspace are unchanged up to [`Self::remap_ids`].
    pub fn covers(&self, space: DimMask) -> bool {
        self.full || self.touched.iter().any(|t| t.covers(space))
    }

    /// Remap a surviving cached id list into this generation's id space
    /// (drop the deleted object, shift ids above it down by one). A no-op
    /// for inserts — the new object only appears in purged subspaces.
    pub fn remap_ids(&self, ids: &mut Vec<ObjId>) {
        if let Some(d) = self.deleted {
            ids.retain(|&o| o != d);
            for o in ids.iter_mut() {
                if *o > d {
                    *o -= 1;
                }
            }
        }
    }
}

/// An updatable compressed skyline cube.
pub struct StellarEngine {
    rows: Dataset,
    cube: CompressedSkylineCube,
    /// Cached seed lattice over the *bound* dataset, reused by the fast
    /// path. Rebuilt when the seed set changes.
    cached: Option<CachedSeedLattice>,
    /// Mutation counters, split by path × operation.
    stats: MaintenanceStats,
    /// Bumped on every successful mutation; serving layers key caches on it
    /// to detect staleness across inserts/deletes.
    generation: u64,
    /// The delta of the latest successful mutation.
    last_delta: Option<MaintenanceDelta>,
}

/// The seed lattice over the bound dataset. The fast paths keep the seed
/// set fixed, and a bound id keeps its value until the next rebuild: a
/// fast insert appends a bound row, and a fast delete that empties one
/// *retires* it. A retired row leaves the posting lists and the binding's
/// row table but stays in `bound`, with an empty object list, as dead
/// storage.
struct CachedSeedLattice {
    bound: Dataset,
    /// Which objects each bound row holds, and the live bound rows by
    /// value: the duplicate check of a fast insert and the bound-row
    /// lookup of a fast delete.
    binding: Binding,
    seeds_bound: Vec<ObjId>,
    seed_groups: Vec<SeedGroup>,
    /// Per-seed-group extension outputs (bound-space ids), in seed-group
    /// order; the cube's group list is their concatenation, expanded.
    ext: Vec<Vec<SkylineGroup>>,
    /// Incrementally maintained non-seed posting lists.
    ctx: ExtensionContext,
}

impl CachedSeedLattice {
    /// The extension chunks in original ids: the cube's group list.
    fn groups(&self) -> Vec<SkylineGroup> {
        self.ext
            .iter()
            .flatten()
            .map(|g| {
                SkylineGroup::new(
                    self.binding.expand(&g.members),
                    g.subspace,
                    g.decisive.clone(),
                )
            })
            .collect()
    }
}

impl StellarEngine {
    /// Build the engine (and the initial cube) from a dataset.
    pub fn new(ds: &Dataset) -> Self {
        Self::with_runner(ds, Stellar::new())
    }

    /// Build with a configured runner. This is the one place the engine
    /// computes a full-space skyline (LESS); every later seed set is
    /// re-derived from the one before. The engine's builds run on one
    /// thread, so the runner's thread count does not reach them yet.
    pub fn with_runner(ds: &Dataset, _runner: Stellar) -> Self {
        let mut engine = StellarEngine {
            rows: ds.clone(),
            cube: CompressedSkylineCube::new(ds.dims(), 0, Vec::new(), Vec::new()),
            cached: None,
            stats: MaintenanceStats::default(),
            generation: 0,
            last_delta: None,
        };
        engine.rebuild(skyline(ds, ds.full_space()));
        engine
    }

    /// Adopt an already-materialized `cube` for `ds` instead of computing
    /// one — the reopen path for cubes loaded from disk. The cube keeps
    /// whatever it has (for a binary-loaded cube, its zero-copy serving
    /// index), so no pipeline runs here; the seed-lattice cache needed by
    /// the fast maintenance paths is built lazily, from the cube's stored
    /// seeds, on the first mutation that can use it, and splices the
    /// loaded index in place rather than dropping it.
    ///
    /// Fails with a structured error when the cube does not describe `ds`
    /// (dimensionality or object-count mismatch). As in
    /// [`Self::with_runner`], the runner's thread count is not used yet.
    pub fn with_cube(ds: &Dataset, cube: CompressedSkylineCube, _runner: Stellar) -> Result<Self> {
        if cube.dims() != ds.dims() || cube.num_objects() != ds.len() {
            return Err(skycube_types::Error::Corrupt {
                line: 0,
                what: format!(
                    "cube does not match dataset: cube is {} objects × {} dims, \
                     data is {} objects × {} dims",
                    cube.num_objects(),
                    cube.dims(),
                    ds.len(),
                    ds.dims()
                ),
            });
        }
        Ok(StellarEngine {
            rows: ds.clone(),
            cube,
            cached: None,
            stats: MaintenanceStats::default(),
            generation: 0,
            last_delta: None,
        })
    }

    /// The current cube.
    pub fn cube(&self) -> &CompressedSkylineCube {
        &self.cube
    }

    /// An owned copy of the current dataset; [`Self::rows`] lends it.
    pub fn dataset(&self) -> Dataset {
        self.rows.clone()
    }

    /// The current dataset, borrowed.
    pub fn rows(&self) -> &Dataset {
        &self.rows
    }

    /// The values of object `id`, without cloning the dataset — the cheap
    /// accessor merge layers use to assemble cross-engine candidate sets.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn row(&self, id: ObjId) -> &[Value] {
        self.rows.row(id)
    }

    /// Dimensionality of the engine's space.
    pub fn dims(&self) -> usize {
        self.rows.dims()
    }

    /// Number of objects currently indexed.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the engine holds no objects.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Mutation counters, split by path × operation.
    pub fn maintenance_stats(&self) -> MaintenanceStats {
        self.stats
    }

    /// The cube generation: bumped by every successful [`Self::insert`] and
    /// [`Self::delete`]. Serving-layer state derived from an earlier
    /// generation is stale; [`Self::last_delta`] says *how* stale.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The delta of the latest successful mutation, or `None` before any
    /// mutation. Serving caches apply it with
    /// [`MaintenanceDelta::covers`]/[`MaintenanceDelta::remap_ids`] instead
    /// of clearing everything.
    pub fn last_delta(&self) -> Option<&MaintenanceDelta> {
        self.last_delta.as_ref()
    }

    /// Insert one object and refresh the cube. Returns the new object's id.
    ///
    /// A strictly dominated insert patches the cube and splices any built
    /// [`crate::CubeIndex`] in place. Any other insert changes the seed
    /// set: the new seeds are the old seeds the row does not dominate plus
    /// the row itself, and the seed lattice is rebuilt over them (dropping
    /// the index). Callers holding answer caches should consume
    /// [`Self::last_delta`].
    pub fn insert(&mut self, row: Vec<Value>) -> Result<ObjId> {
        if row.len() != self.dims() {
            return Err(skycube_types::Error::RowLengthMismatch {
                row: self.rows.len(),
                expected: self.dims(),
                actual: row.len(),
            });
        }
        if self.strictly_dominated(&row) {
            // An adopted (loaded) cube starts without the seed-lattice
            // cache; build it from the pre-insert rows so the fast path —
            // and the in-place splice of the loaded index — applies.
            self.ensure_cache();
            let id = self.rows.push_row(&row)?;
            self.generation += 1;
            self.patch_insert(id);
            self.stats.fast_inserts += 1;
            return Ok(id);
        }
        let mut seeds: Vec<ObjId> = self
            .cube
            .seeds()
            .iter()
            .copied()
            .filter(|&s| !strictly_dominates(&row, self.rows.row(s)))
            .collect();
        let id = self.rows.push_row(&row)?;
        seeds.push(id);
        self.generation += 1;
        self.rebuild(seeds);
        self.stats.full_inserts += 1;
        self.last_delta = Some(MaintenanceDelta::full_rebuild(self.generation));
        Ok(id)
    }

    /// Delete the object with id `id`; ids above it shift down by one (the
    /// positional-id model of [`Dataset`]). Returns the removed row.
    ///
    /// Removing a *non-seed* cannot change any dominance relation among the
    /// remaining objects, so the seed lattice of steps 1–4 survives: the
    /// object leaves its bound row's object list, a bound row left empty
    /// is retired (every other bound id keeps its value), and only the seed
    /// groups that contained that row are re-extended. Removing a seed may
    /// promote objects it dominated: the new seeds are the remaining seeds
    /// plus the skyline of the objects it dominated that no remaining seed
    /// dominates, and the seed lattice is rebuilt over them.
    pub fn delete(&mut self, id: ObjId) -> Result<Vec<Value>> {
        if id as usize >= self.rows.len() {
            return Err(skycube_types::Error::NoSuchObject {
                id,
                len: self.rows.len(),
            });
        }
        if self.cube.seeds().binary_search(&id).is_err() {
            // Warm the seed-lattice cache BEFORE removing the row: the
            // cache describes the pre-delete dataset (the fast path itself
            // unbinds the removed row from it).
            self.ensure_cache();
            let row = self.rows.remove_row(id)?;
            self.generation += 1;
            self.patch_delete(id, &row);
            self.stats.fast_deletes += 1;
            return Ok(row);
        }
        let row = self.rows.remove_row(id)?;
        self.generation += 1;
        let seeds = self.seeds_after_delete(id, &row);
        self.rebuild(seeds);
        self.stats.full_deletes += 1;
        self.last_delta = Some(MaintenanceDelta::full_rebuild(self.generation));
        Ok(row)
    }

    /// Whether some existing object strictly dominates `row` in full space
    /// (then the seed set cannot change: the new object is a non-seed and
    /// evicts nobody). Checking the seeds alone suffices: if any object `p`
    /// strictly dominates `row`, a seed `s ⪯ p` (every object is a seed or
    /// dominated-or-tied by one) also strictly dominates `row` — so this is
    /// O(|seeds|·d), not O(n·d).
    fn strictly_dominated(&self, row: &[Value]) -> bool {
        self.cube
            .seeds()
            .iter()
            .any(|&s| strictly_dominates(self.rows.row(s), row))
    }

    /// The seed set after deleting seed `deleted`, whose values were
    /// `removed`, in post-delete ids (see the module docs): the remaining
    /// seeds, plus — unless another object holds the same row — the
    /// skyline of the candidates, found with the final pass of LESS over a
    /// sum-sorted order.
    fn seeds_after_delete(&self, deleted: ObjId, removed: &[Value]) -> Vec<ObjId> {
        let ds = &self.rows;
        let mut seeds: Vec<ObjId> = self
            .cube
            .seeds()
            .iter()
            .filter(|&&s| s != deleted)
            .map(|&s| if s > deleted { s - 1 } else { s })
            .collect();
        if seeds.iter().any(|&s| ds.row(s) == removed) {
            return seeds;
        }
        let full = ds.full_space();
        // The remaining seeds, smallest sums first: they dominate the most
        // rows. The seed that dominated the last rejected row is tried
        // first, since one seed near the deleted one often dominates most
        // of what it did. A remaining seed is never dominated by the
        // deleted one, so the scan needs no seed test of its own.
        let mut by_sum: Vec<(i128, ObjId)> =
            seeds.iter().map(|&s| (ds.sum_over(s, full), s)).collect();
        by_sum.sort_unstable();
        let mut last: Option<ObjId> = None;
        let mut candidates: Vec<(i128, ObjId)> = Vec::new();
        for p in ds.ids() {
            let row = ds.row(p);
            if !strictly_dominates(removed, row)
                || last.is_some_and(|l| strictly_dominates(ds.row(l), row))
            {
                continue;
            }
            match by_sum
                .iter()
                .find(|&&(_, s)| strictly_dominates(ds.row(s), row))
            {
                Some(&(_, s)) => last = Some(s),
                None => candidates.push((ds.sum_over(p, full), p)),
            }
        }
        candidates.sort_unstable();
        let order: Vec<ObjId> = candidates.into_iter().map(|(_, p)| p).collect();
        seeds.extend(filter_presorted(ds, full, &order));
        seeds.sort_unstable();
        seeds
    }

    /// Fast path for a dominated insert: bind the row (a duplicate of a
    /// bound non-seed, or a fresh bound non-seed), re-extend only the seed
    /// groups it is relevant to, then diff-and-splice.
    fn patch_insert(&mut self, id: ObjId) {
        let CachedSeedLattice {
            bound,
            binding,
            seeds_bound,
            seed_groups,
            ext,
            ctx,
        } = self.cached.as_mut().expect("fast path requires cache");
        let new_row = self.rows.row(id);
        // A strictly dominated row ties no seed row, so a duplicate can
        // only be a bound non-seed.
        let (b, fresh) = binding.bind_object(bound, new_row, id);
        // `true` once some group's expansion actually changes; a dominated
        // insert that ties no skyline projection changes nothing and takes
        // the O(1)-ish append tail instead of the diff-and-splice tail.
        let changed = if fresh {
            ctx.insert_non_seed(new_row, b);
            // Relevance probe straight on the bound dataset (same test as
            // [`non_seed_relevant`]); the columnar seed view is only built
            // when some chunk genuinely needs re-extension.
            let relevant: Vec<usize> = seed_groups
                .iter()
                .enumerate()
                .filter(|(_, sg)| {
                    let rep = seeds_bound[sg.members[0]];
                    let m = bound.co_mask(rep, b) & sg.subspace;
                    sg.decisive.iter().any(|&c| c.is_subset_of(m))
                })
                .map(|(si, _)| si)
                .collect();
            if !relevant.is_empty() {
                let view = SeedView::new(bound, seeds_bound.clone());
                for &si in &relevant {
                    ext[si].clear();
                    ctx.extend_group(&view, &seed_groups[si], &mut ext[si]);
                }
            }
            !relevant.is_empty()
        } else {
            // Duplicate of an existing bound non-seed: the bound lattice is
            // untouched, only the expansion of the groups holding it grows
            // (if no group holds it, nothing changes).
            ext.iter()
                .flatten()
                .any(|g| g.members.binary_search(&b).is_ok())
        };
        if changed {
            self.finish_patch(Some(id), None);
        } else {
            self.finish_append(id);
        }
    }

    /// Tail for an insert that joined no group: every subspace skyline is
    /// provably unchanged (the object ties no group's projection), so the
    /// cube and a built index just grow by one object — no expansion, no
    /// diff, no splice, and the delta purges nothing downstream.
    fn finish_append(&mut self, id: ObjId) {
        let spliced = self.cube.append_object();
        if spliced {
            self.stats.spliced += 1;
        }
        self.last_delta = Some(MaintenanceDelta {
            generation: self.generation,
            full: false,
            touched: Vec::new(),
            inserted: Some(id),
            deleted: None,
            spliced,
        });
    }

    /// Fast path for a non-seed delete: the binding unbinds the object
    /// from its bound row (found by value) and shifts the original ids
    /// above it down in one pass, and a bound row left without objects is
    /// retired. Only the seed groups whose derived groups contained that
    /// row are re-extended.
    fn patch_delete(&mut self, id: ObjId, removed_row: &[Value]) {
        let CachedSeedLattice {
            bound,
            binding,
            seeds_bound,
            seed_groups,
            ext,
            ctx,
        } = self.cached.as_mut().expect("fast path requires cache");
        let (b, retired) = binding.unbind_object(bound, removed_row, id);
        if retired {
            // Re-extend the chunks that contained the retired row.
            // Relevance ⟺ derived-group membership, so "some group of the
            // chunk contains `b`" is exactly the touched-chunk condition.
            ctx.retire_non_seed(removed_row, b);
            let touched: Vec<usize> = (0..ext.len())
                .filter(|&si| ext[si].iter().any(|g| g.members.binary_search(&b).is_ok()))
                .collect();
            if !touched.is_empty() {
                let view = SeedView::new(bound, seeds_bound.clone());
                for si in touched {
                    ext[si].clear();
                    ctx.extend_group(&view, &seed_groups[si], &mut ext[si]);
                }
            }
        }
        self.finish_patch(None, Some(id));
    }

    /// Shared tail of both fast paths: expand the cached extension chunks to
    /// original ids, diff against the previous generation (remapped into the
    /// new id space), swap the groups in without dropping the lazy index,
    /// and splice the index if one is built.
    fn finish_patch(&mut self, inserted: Option<ObjId>, deleted: Option<ObjId>) {
        let cached = self.cached.as_ref().expect("fast path requires cache");
        let new_groups = cached.groups();
        let new_seeds = cached.binding.expand(&cached.seeds_bound);
        // Previous generation, remapped into the post-mutation id space so
        // the diff compares like with like (sorted member lists stay sorted
        // under the uniform shift). Inserts leave every old id in place, so
        // only a delete pays for the remapped clone.
        let remapped: Option<Vec<SkylineGroup>> = deleted.map(|d| {
            self.cube
                .groups()
                .iter()
                .map(|g| {
                    let members: Vec<ObjId> = g
                        .members
                        .iter()
                        .copied()
                        .filter_map(|m| match m {
                            m if m == d => None,
                            m if m > d => Some(m - 1),
                            m => Some(m),
                        })
                        .collect();
                    SkylineGroup::new(members, g.subspace, g.decisive.clone())
                })
                .collect()
        });
        let old_remapped: &[SkylineGroup] = match &remapped {
            Some(r) => r,
            None => self.cube.groups(),
        };
        let delta = diff_groups(old_remapped, &new_groups);
        let mut touched: Vec<TouchedGroup> = Vec::with_capacity(delta.touched());
        for &oi in &delta.removed {
            let g = &old_remapped[oi as usize];
            touched.push(TouchedGroup {
                subspace: g.subspace,
                decisive: g.decisive.clone(),
            });
        }
        for &ni in &delta.added {
            let g = &new_groups[ni as usize];
            touched.push(TouchedGroup {
                subspace: g.subspace,
                decisive: g.decisive.clone(),
            });
        }
        let purge: Vec<(DimMask, Vec<DimMask>)> = touched
            .iter()
            .map(|t| (t.subspace, t.decisive.clone()))
            .collect();
        self.cube
            .replace_groups(self.rows.len(), new_seeds, new_groups, deleted);
        let spliced = self.cube.splice_index(&delta, &purge);
        if spliced {
            self.stats.spliced += 1;
        }
        self.last_delta = Some(MaintenanceDelta {
            generation: self.generation,
            full: false,
            touched,
            inserted,
            deleted,
            spliced,
        });
    }

    /// Rebuild the seed lattice, the per-chunk extension cache and the cube
    /// over the current rows, whose full-space skyline is `seeds`
    /// (ascending). The new cube has no index yet.
    fn rebuild(&mut self, seeds: Vec<ObjId>) {
        // The old lattice describes other rows: drop it first, so that it
        // and the new one are never resident together.
        self.cached = None;
        if self.rows.is_empty() {
            self.cube = CompressedSkylineCube::new(self.dims(), 0, Vec::new(), Vec::new());
            return;
        }
        let cached = self.build_cache(&seeds);
        debug_assert_eq!(cached.binding.expand(&cached.seeds_bound), seeds);
        self.cube =
            CompressedSkylineCube::new(self.dims(), self.rows.len(), seeds, cached.groups());
        self.cached = Some(cached);
    }

    /// Build the seed-lattice cache from the current rows and the cube's
    /// seeds if it is absent — the lazy half of adopting a loaded cube
    /// ([`Self::with_cube`]): the cube itself (and its index) is taken on
    /// trust from the load-time validation, only the fast-path working
    /// state is rebuilt, and only when a mutation first needs it.
    fn ensure_cache(&mut self) {
        if self.cached.is_none() && !self.rows.is_empty() {
            self.cached = Some(self.build_cache(self.cube.seeds()));
        }
    }

    /// Bind the current rows and run pipeline steps 2–5 over them, whose
    /// full-space skyline is `seeds` (ascending original ids), producing
    /// the cached seed lattice with per-chunk extension outputs. Touches
    /// neither the cube nor the counters.
    fn build_cache(&self, seeds: &[ObjId]) -> CachedSeedLattice {
        let (bound, binding) = self.rows.bind_duplicates();
        // Every copy of a seed's row is a seed, so the seeds' bound rows
        // hold exactly the seeds.
        let mut seeds_bound: Vec<ObjId> = seeds
            .iter()
            .map(|&s| {
                binding
                    .find(&bound, self.rows.row(s))
                    .expect("every row is bound")
            })
            .collect();
        seeds_bound.sort_unstable();
        seeds_bound.dedup();
        let view = SeedView::new(&bound, seeds_bound.clone());
        let seed_groups = seed_skyline_groups(&view);
        let ctx = ExtensionContext::new(&view);
        let mut ext: Vec<Vec<SkylineGroup>> = Vec::with_capacity(seed_groups.len());
        for sg in &seed_groups {
            let mut chunk = Vec::new();
            ctx.extend_group(&view, sg, &mut chunk);
            ext.push(chunk);
        }
        drop(view);
        CachedSeedLattice {
            bound,
            binding,
            seeds_bound,
            seed_groups,
            ext,
            ctx,
        }
    }
}

/// Whether row `a` strictly dominates row `b` in full space: no larger
/// anywhere, smaller somewhere.
fn strictly_dominates(a: &[Value], b: &[Value]) -> bool {
    let mut strict = false;
    for (x, y) in a.iter().zip(b) {
        if x > y {
            return false;
        }
        strict |= x < y;
    }
    strict
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute_cube;
    use skycube_types::{normalize_groups, running_example};

    fn assert_cubes_equal(engine: &StellarEngine) {
        let scratch = compute_cube(&engine.dataset());
        assert_eq!(
            normalize_groups(engine.cube().groups().to_vec()),
            normalize_groups(scratch.groups().to_vec()),
            "incremental cube diverged from recomputation"
        );
        assert_eq!(engine.cube().seeds(), scratch.seeds());
    }

    #[test]
    fn dominated_insert_takes_fast_path() {
        let ds = running_example();
        let mut engine = StellarEngine::new(&ds);
        // (9,9,11,9) is dominated by everything: pure non-seed.
        engine.insert(vec![9, 9, 11, 9]).unwrap();
        let stats = engine.maintenance_stats();
        assert_eq!((stats.fast_inserts, stats.full()), (1, 0));
        assert_cubes_equal(&engine);
    }

    #[test]
    fn dominated_insert_sharing_decisive_values_splits_groups() {
        let ds = running_example();
        let mut engine = StellarEngine::new(&ds);
        // Dominated by P5=(2,4,9,3) but shares D=3 and B=4: reshapes groups.
        engine.insert(vec![7, 4, 12, 3]).unwrap();
        let stats = engine.maintenance_stats();
        assert_eq!((stats.fast_inserts, stats.full()), (1, 0));
        assert_cubes_equal(&engine);
        assert!(engine
            .cube()
            .is_skyline_in(5, skycube_types::DimMask::parse("B").unwrap()));
    }

    #[test]
    fn new_seed_forces_recompute() {
        let ds = running_example();
        let mut engine = StellarEngine::new(&ds);
        engine.insert(vec![1, 1, 1, 1]).unwrap();
        let stats = engine.maintenance_stats();
        assert_eq!((stats.fast(), stats.full_inserts), (0, 1));
        assert_cubes_equal(&engine);
        assert_eq!(engine.cube().seeds(), &[5]);
        assert!(engine.last_delta().unwrap().is_full());
    }

    #[test]
    fn duplicate_insert_joins_bound_pair() {
        let ds = running_example();
        let mut engine = StellarEngine::new(&ds);
        // An exact duplicate of P1 (a non-seed, dominated by P2, in no
        // group): no group changes.
        engine.insert(vec![5, 6, 10, 7]).unwrap();
        assert_cubes_equal(&engine);
        engine.insert(vec![5, 6, 10, 7]).unwrap();
        assert_cubes_equal(&engine);
        assert!(engine.last_delta().unwrap().touched().is_empty());
        // A duplicate of P3, a non-seed member of three groups: they grow.
        engine.insert(vec![5, 4, 9, 3]).unwrap();
        assert_cubes_equal(&engine);
        assert!(!engine.last_delta().unwrap().touched().is_empty());
        assert_eq!(engine.maintenance_stats().fast_inserts, 3);
    }

    #[test]
    fn tie_with_seed_is_not_fast_pathed() {
        // An exact duplicate of seed P5 is NOT strictly dominated, so it
        // must go through the safe full path (it becomes a bound seed).
        let ds = running_example();
        let mut engine = StellarEngine::new(&ds);
        engine.insert(vec![2, 4, 9, 3]).unwrap();
        let stats = engine.maintenance_stats();
        assert_eq!((stats.fast(), stats.full_inserts), (0, 1));
        assert_cubes_equal(&engine);
        assert!(engine.cube().seeds().contains(&5));
    }

    #[test]
    fn randomized_insert_stream_stays_consistent() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(77);
        let ds = running_example();
        let mut engine = StellarEngine::new(&ds);
        for _ in 0..30 {
            let row: Vec<i64> = (0..4).map(|_| rng.gen_range(0..10)).collect();
            engine.insert(row).unwrap();
            assert_cubes_equal(&engine);
        }
        let stats = engine.maintenance_stats();
        assert_eq!(stats.total(), 30);
        assert_eq!(stats.fast_deletes + stats.full_deletes, 0);
        assert!(stats.fast_inserts > 0, "expected some fast-path inserts");
    }

    #[test]
    fn seed_only_dominance_check_matches_full_scan() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(4242);
        for trial in 0..30 {
            let dims = rng.gen_range(2..=4);
            let n = rng.gen_range(1..=30);
            let rows: Vec<Vec<i64>> = (0..n)
                .map(|_| (0..dims).map(|_| rng.gen_range(0..6)).collect())
                .collect();
            let ds = Dataset::from_rows(dims, rows.clone()).unwrap();
            let engine = StellarEngine::new(&ds);
            for _ in 0..10 {
                let probe: Vec<i64> = (0..dims).map(|_| rng.gen_range(0..6)).collect();
                let by_any = rows.iter().any(|existing| {
                    let mut strict = false;
                    for (a, b) in existing.iter().zip(&probe) {
                        if a > b {
                            return false;
                        }
                        if a < b {
                            strict = true;
                        }
                    }
                    strict
                });
                assert_eq!(
                    engine.strictly_dominated(&probe),
                    by_any,
                    "trial {trial}: probe {probe:?} disagreed"
                );
            }
        }
    }

    #[test]
    fn delete_non_seed_takes_fast_path() {
        let ds = running_example();
        let mut engine = StellarEngine::new(&ds);
        // P1 (id 0) is a non-seed; P3 (id 2) reshapes groups when removed.
        let removed = engine.delete(0).unwrap();
        assert_eq!(removed, vec![5, 6, 10, 7]);
        assert_eq!(engine.len(), 4);
        assert_cubes_equal(&engine);
        // P3 was id 2, still id... after removing id 0, P3 is id 1.
        let removed = engine.delete(1).unwrap();
        assert_eq!(removed, vec![5, 4, 9, 3]);
        assert_cubes_equal(&engine);
        let stats = engine.maintenance_stats();
        assert_eq!(
            (stats.fast_deletes, stats.full()),
            (2, 0),
            "both deletes should be incremental"
        );
        assert_eq!(stats.fast_inserts, 0, "deletes must not count as inserts");
    }

    #[test]
    fn delete_seed_forces_recompute() {
        let ds = running_example();
        let mut engine = StellarEngine::new(&ds);
        // P2 (id 1) is a seed.
        engine.delete(1).unwrap();
        let stats = engine.maintenance_stats();
        assert_eq!((stats.fast(), stats.full_deletes), (0, 1));
        assert_cubes_equal(&engine);
    }

    #[test]
    fn delete_out_of_range_errors() {
        let mut engine = StellarEngine::new(&running_example());
        match engine.delete(99) {
            Err(skycube_types::Error::NoSuchObject { id, len }) => {
                assert_eq!((id, len), (99, 5));
            }
            other => panic!("expected NoSuchObject, got {other:?}"),
        }
        assert_eq!(engine.len(), 5);
    }

    #[test]
    fn randomized_mixed_insert_delete_stream() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for (seed, steps) in [(1234, 40), (77, 60)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut engine = StellarEngine::new(&running_example());
            for _ in 0..steps {
                if engine.len() > 2 && rng.gen_bool(0.4) {
                    let id = rng.gen_range(0..engine.len() as u32);
                    engine.delete(id).unwrap();
                } else {
                    let row: Vec<i64> = (0..4).map(|_| rng.gen_range(0..8)).collect();
                    engine.insert(row).unwrap();
                }
                assert_cubes_equal(&engine);
            }
            let stats = engine.maintenance_stats();
            assert!(
                stats.fast() > 0 && stats.full() > 0,
                "seed {seed}: {stats:?}"
            );
        }
    }

    /// 400 rows over 4 values per dimension: many duplicates, and almost
    /// every non-seed ties some seed value.
    fn tied_dataset(seed: u64) -> Dataset {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = (0..400)
            .map(|_| (0..4).map(|_| rng.gen_range(0..4)).collect())
            .collect();
        Dataset::from_rows(4, rows).unwrap()
    }

    fn retired_rows(engine: &StellarEngine) -> usize {
        let cached = engine.cached.as_ref().expect("cache built");
        cached
            .binding
            .iter()
            .filter(|objects| objects.is_empty())
            .count()
    }

    #[test]
    fn non_seed_delete_stream_retires_bound_rows_then_a_recompute_compacts() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(8);
        let mut engine = StellarEngine::new(&tied_dataset(8));
        engine.cube().index();
        for step in 0..150 {
            let non_seeds: Vec<ObjId> = (0..engine.len() as ObjId)
                .filter(|o| engine.cube().seeds().binary_search(o).is_err())
                .collect();
            engine
                .delete(non_seeds[rng.gen_range(0..non_seeds.len())])
                .unwrap();
            assert_cubes_equal(&engine);
            let stats = engine.maintenance_stats();
            assert_eq!(
                (stats.fast_deletes, stats.full()),
                (step + 1, 0),
                "step {step}: a non-seed delete recomputed"
            );
        }
        assert!(retired_rows(&engine) > 0, "no bound row was retired");
        assert!(engine.cube().has_index(), "a fast delete dropped the index");
        // A row below every seed in A is a new seed: the rebuild binds the
        // live rows only.
        engine.insert(vec![-1, 3, 3, 3]).unwrap();
        assert_eq!(engine.maintenance_stats().full_inserts, 1);
        assert_cubes_equal(&engine);
        assert_eq!(retired_rows(&engine), 0, "the rebuild kept dead rows");
    }

    #[test]
    fn reinserting_a_deleted_rows_copy_binds_a_fresh_row() {
        let mut engine = StellarEngine::new(&tied_dataset(9));
        // A non-seed with no duplicate that some group holds, so that a
        // wrong binding would change the cube.
        let id = (0..engine.len() as ObjId)
            .find(|&o| {
                let row = engine.row(o);
                engine.cube().seeds().binary_search(&o).is_err()
                    && engine.cube().groups_of(o).next().is_some()
                    && (0..engine.len() as ObjId)
                        .filter(|&p| engine.row(p) == row)
                        .count()
                        == 1
            })
            .expect("the tied data holds such a non-seed");
        let row = engine.delete(id).unwrap();
        let cached = engine.cached.as_ref().unwrap();
        assert_eq!(cached.binding.find(&cached.bound, &row), None);
        assert_eq!(retired_rows(&engine), 1);
        let next_bound = cached.bound.len() as ObjId;
        let copy = engine.insert(row.clone()).unwrap();
        let stats = engine.maintenance_stats();
        assert_eq!((stats.fast(), stats.full()), (2, 0));
        assert_cubes_equal(&engine);
        assert!(engine.cube().groups_of(copy).next().is_some());
        let cached = engine.cached.as_ref().unwrap();
        let fresh = cached
            .binding
            .find(&cached.bound, &row)
            .expect("the copy is a live bound row");
        assert_eq!(fresh, next_bound, "the copy bound to an existing row");
        assert_eq!(&cached.binding[fresh as usize], &[copy]);
        assert_eq!(retired_rows(&engine), 1);
    }

    #[test]
    fn delete_down_to_empty_and_rebuild() {
        let ds = Dataset::from_rows(2, vec![vec![1, 2], vec![2, 1]]).unwrap();
        let mut engine = StellarEngine::new(&ds);
        engine.delete(0).unwrap();
        engine.delete(0).unwrap();
        assert!(engine.is_empty());
        assert_eq!(engine.cube().num_groups(), 0);
        engine.insert(vec![3, 3]).unwrap();
        assert_eq!(engine.cube().num_groups(), 1);
        assert_cubes_equal(&engine);
    }

    #[test]
    fn insert_validates_row_length() {
        let mut engine = StellarEngine::new(&running_example());
        assert!(engine.insert(vec![1, 2]).is_err());
        assert_eq!(engine.len(), 5);
        assert!(!engine.is_empty());
    }

    #[test]
    fn fast_path_splices_the_index_full_path_drops_it() {
        let mut engine = StellarEngine::new(&running_example());
        assert_eq!(engine.generation(), 0);
        let space = skycube_types::DimMask::parse("B").unwrap();
        let before = engine.cube().index().subspace_skyline(space);
        assert_eq!(before, vec![2, 3, 4]);
        assert!(engine.cube().has_index());
        // Fast-path insert: the index survives and serves the fresh answer.
        engine.insert(vec![7, 4, 12, 3]).unwrap();
        assert_eq!(engine.generation(), 1);
        assert!(engine.cube().has_index(), "fast path dropped the index");
        assert_eq!(
            engine.cube().index().subspace_skyline(space),
            vec![2, 3, 4, 5]
        );
        let delta = engine.last_delta().unwrap();
        assert!(delta.spliced() && !delta.is_full());
        assert!(delta.covers(space), "B gained a member: must be covered");
        // Fast-path delete: still spliced, still fresh.
        engine.delete(5).unwrap();
        assert!(engine.cube().has_index(), "fast delete dropped the index");
        assert_eq!(engine.cube().index().subspace_skyline(space), vec![2, 3, 4]);
        // (0,0,0,0) dominates everything: the seed-changing rebuild drops
        // the index.
        engine.insert(vec![0, 0, 0, 0]).unwrap();
        assert!(!engine.cube().has_index(), "stale index survived a rebuild");
        assert_eq!(engine.cube().index().subspace_skyline(space), vec![5]);
        assert_eq!(engine.maintenance_stats().spliced, 2);
        // Failed mutations bump nothing.
        let generation = engine.generation();
        assert!(engine.insert(vec![1]).is_err());
        assert!(engine.delete(99).is_err());
        assert_eq!(engine.generation(), generation);
    }

    #[test]
    fn row_accessor_matches_dataset() {
        let ds = running_example();
        let engine = StellarEngine::new(&ds);
        assert_eq!(engine.dims(), ds.dims());
        for o in ds.ids() {
            assert_eq!(engine.row(o), ds.row(o));
        }
    }

    #[test]
    fn delta_covers_every_changed_subspace() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(9001);
        let mut engine = StellarEngine::new(&running_example());
        let full = skycube_types::DimMask::full(4);
        for step in 0..40 {
            let old: Vec<Vec<skycube_types::ObjId>> = full
                .subsets()
                .map(|s| engine.cube().subspace_skyline(s))
                .collect();
            if engine.len() > 2 && rng.gen_bool(0.4) {
                let id = rng.gen_range(0..engine.len() as u32);
                engine.delete(id).unwrap();
            } else {
                let row: Vec<i64> = (0..4).map(|_| rng.gen_range(0..8)).collect();
                engine.insert(row).unwrap();
            }
            let delta = engine.last_delta().unwrap().clone();
            if delta.is_full() {
                continue;
            }
            for (i, space) in full.subsets().enumerate() {
                let mut expected = old[i].clone();
                delta.remap_ids(&mut expected);
                let fresh = engine.cube().subspace_skyline(space);
                if fresh != expected {
                    assert!(
                        delta.covers(space),
                        "step {step}: {space} changed ({expected:?} -> {fresh:?}) but \
                         the delta does not cover it"
                    );
                }
            }
        }
    }

    #[test]
    fn spliced_index_preserves_memo_for_untouched_subspaces() {
        let mut engine = StellarEngine::new(&running_example());
        let full = skycube_types::DimMask::full(4);
        // Warm the memo across all subspaces.
        for space in full.subsets() {
            engine.cube().index().subspace_skyline(space);
        }
        let warm = engine.cube().index().memo_stats();
        assert!(warm.entries > 0);
        // A dominated insert relevant only to some groups: the memo must
        // survive selectively (not be emptied) and answers must stay right.
        engine.insert(vec![7, 4, 12, 3]).unwrap();
        assert!(engine.cube().has_index());
        let after = engine.cube().index().memo_stats();
        assert!(
            after.entries > 0,
            "selective invalidation emptied the whole memo: {after:?}"
        );
        let fresh = compute_cube(&engine.dataset());
        for space in full.subsets() {
            assert_eq!(
                engine.cube().index().subspace_skyline(space),
                fresh.subspace_skyline(space),
                "spliced index wrong in {space}"
            );
        }
    }

    #[test]
    fn adopted_loaded_cube_splices_instead_of_rebuilding() {
        let ds = running_example();
        let cube = compute_cube(&ds);
        let mut bytes = Vec::new();
        crate::persist::write_cube_binary(&cube, &mut bytes).unwrap();
        let loaded = crate::persist::read_cube_binary(&bytes).unwrap();
        assert!(loaded.is_loaded() && loaded.index().is_loaded());
        let mut engine = StellarEngine::with_cube(&ds, loaded, Stellar::new()).unwrap();
        assert!(
            engine.cube().has_index(),
            "adoption dropped the loaded index"
        );
        // First mutation: dominated insert — lazily builds the seed-lattice
        // cache, takes the fast path, and splices the *loaded* index.
        engine.insert(vec![9, 9, 11, 9]).unwrap();
        let stats = engine.maintenance_stats();
        assert_eq!((stats.fast_inserts, stats.full()), (1, 0));
        assert!(engine.cube().has_index(), "fast path dropped the index");
        assert_cubes_equal(&engine);
        // Non-seed delete stays on the fast path too.
        engine.delete(0).unwrap();
        let stats = engine.maintenance_stats();
        assert_eq!((stats.fast_deletes, stats.full()), (1, 0));
        assert_cubes_equal(&engine);
    }

    #[test]
    fn adopted_cube_first_mutation_delete_warms_cache_before_removal() {
        let ds = running_example();
        let loaded = {
            let mut bytes = Vec::new();
            crate::persist::write_cube_binary(&compute_cube(&ds), &mut bytes).unwrap();
            crate::persist::read_cube_binary(&bytes).unwrap()
        };
        let mut engine = StellarEngine::with_cube(&ds, loaded, Stellar::new()).unwrap();
        // P1 (id 0) is a non-seed: the very first mutation is a delete, so
        // the cache must be built from the pre-delete rows (including the
        // row being removed) for the unbinding in the fast path to work.
        engine.delete(0).unwrap();
        let stats = engine.maintenance_stats();
        assert_eq!((stats.fast_deletes, stats.full()), (1, 0));
        assert_cubes_equal(&engine);
    }

    #[test]
    fn with_cube_rejects_mismatched_dataset() {
        let ds = running_example();
        let cube = compute_cube(&ds);
        let other = Dataset::from_rows(4, vec![vec![1, 2, 3, 4]]).unwrap();
        match StellarEngine::with_cube(&other, cube, Stellar::new()).map(|_| ()) {
            Err(skycube_types::Error::Corrupt { what, .. }) => {
                assert!(what.contains("does not match"), "message: {what}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn invalidate_index_resets_the_once_lock() {
        let ds = running_example();
        let mut cube = compute_cube(&ds);
        assert!(!cube.has_index());
        cube.index();
        assert!(cube.has_index());
        cube.invalidate_index();
        assert!(!cube.has_index());
        // The rebuilt index still answers correctly.
        for space in ds.full_space().subsets() {
            assert_eq!(
                cube.index().subspace_skyline(space),
                cube.subspace_skyline(space)
            );
        }
    }
}
