//! The sharding layer: partition the dataset into K contiguous shards,
//! build one [`StellarEngine`] per shard, and answer queries by merging the
//! per-shard subspace skylines.
//!
//! Correctness of merge-at-query rests on the skyline union invariant
//! `skyline(A ∪ B) = skyline(skyline(A) ∪ skyline(B))`: an object dominated
//! within its shard is dominated globally, so the union of per-shard
//! subspace skylines is a superset of the global skyline in every subspace,
//! and one skyline pass over that (small) candidate union recovers the
//! exact answer. The same invariant applied per subspace makes the
//! per-shard [`SubspaceCache`]s safe: each caches *shard-local* skylines,
//! which shard-local maintenance keeps valid without touching the other
//! K−1 shards.
//!
//! Id mapping is positional and contiguous: shard `k` owns the global ids
//! `[offsets[k], offsets[k+1])`, global id = `offsets[shard] + local id`.
//! Inserts route to the last shard (the only routing that preserves
//! contiguity under the append-at-end id model of
//! [`StellarEngine::insert`]), and the resulting [`MaintenanceDelta`] is
//! stamped with the shard id so serving layers can tell which cache to
//! reconcile.

use crate::cache::{CacheStats, GenerationGate, SubspaceCache};
use crate::error::ServeError;
use crate::fallback::FallbackSource;
use crate::source::{
    check_object, check_space, lock_recover, rank_frequencies, IndexStats, IndexedCubeSource,
    ScanCubeSource, SkylineSource,
};
use skycube_parallel::{par_map_indexed, Parallelism};
use skycube_skyline::skyline;
use skycube_stellar::{MaintenanceDelta, MaintenanceStats, Stellar, StellarEngine};
use skycube_types::{Dataset, DimMask, ObjId, Value};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Deterministic contiguous-range partitioning of `n` objects into K
/// shards, with the stable global↔(shard, local) id mapping every sharded
/// component shares.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardPlan {
    /// `offsets[k]..offsets[k + 1]` is shard `k`'s global id range.
    offsets: Vec<usize>,
}

impl ShardPlan {
    /// Split `num_objects` ids into `shards` near-equal contiguous ranges
    /// (the first `num_objects % shards` shards hold one extra object;
    /// shards may be empty when there are fewer objects than shards).
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn contiguous(num_objects: usize, shards: usize) -> Self {
        assert!(shards >= 1, "a shard plan needs at least one shard");
        let base = num_objects / shards;
        let extra = num_objects % shards;
        let mut offsets = Vec::with_capacity(shards + 1);
        let mut at = 0usize;
        offsets.push(0);
        for k in 0..shards {
            at += base + usize::from(k < extra);
            offsets.push(at);
        }
        ShardPlan { offsets }
    }

    /// A plan with explicitly sized shards (`sizes[k]` objects in shard
    /// `k`), for builds that stream rows per shard.
    ///
    /// # Panics
    /// Panics if `sizes` is empty.
    pub fn from_sizes(sizes: &[usize]) -> Self {
        assert!(!sizes.is_empty(), "a shard plan needs at least one shard");
        let mut offsets = Vec::with_capacity(sizes.len() + 1);
        let mut at = 0usize;
        offsets.push(0);
        for &s in sizes {
            at += s;
            offsets.push(at);
        }
        ShardPlan { offsets }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of objects across all shards.
    pub fn num_objects(&self) -> usize {
        *self.offsets.last().expect("offsets never empty")
    }

    /// Shard `k`'s global id range.
    pub fn shard_range(&self, k: usize) -> Range<usize> {
        self.offsets[k]..self.offsets[k + 1]
    }

    /// The shard owning global id `global`.
    ///
    /// # Panics
    /// Panics if `global` is out of range.
    pub fn shard_of(&self, global: ObjId) -> usize {
        let g = global as usize;
        assert!(g < self.num_objects(), "global id {global} out of range");
        // The last offset ≤ g starts the owning shard (empty shards have
        // zero-width ranges and can never own an id).
        self.offsets.partition_point(|&off| off <= g) - 1
    }

    /// Map a global id to its `(shard, local id)` pair.
    pub fn to_local(&self, global: ObjId) -> (usize, ObjId) {
        let k = self.shard_of(global);
        (k, global - self.offsets[k] as ObjId)
    }

    /// Map a `(shard, local id)` pair back to the global id.
    pub fn to_global(&self, shard: usize, local: ObjId) -> ObjId {
        (self.offsets[shard] + local as usize) as ObjId
    }

    /// Record one append to the last shard (the insert routing rule).
    fn note_append(&mut self) {
        *self.offsets.last_mut().expect("offsets never empty") += 1;
    }
}

/// One shard's engine plus its serving-side cache state.
struct Shard {
    engine: StellarEngine,
    cache: SubspaceCache,
    gate: GenerationGate,
}

/// K per-shard [`StellarEngine`]s behind one [`ShardPlan`], with a
/// per-shard [`SubspaceCache`] + [`GenerationGate`] pair. Build fans the
/// per-shard pipeline over the `crates/parallel` dispenser; queries go
/// through [`ShardedCube::source`]. Inserts route to exactly one shard and
/// reuse the engine's delta patching there — the other K−1 shards'
/// indexes, memos, caches, and generations are untouched.
pub struct ShardedCube {
    plan: ShardPlan,
    dims: usize,
    shards: Vec<Shard>,
    last_delta: Option<MaintenanceDelta>,
}

impl ShardedCube {
    /// Partition `ds` into `shards` contiguous ranges and build one engine
    /// per shard, fanned over `par`.
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn build(ds: &Dataset, shards: usize, par: Parallelism) -> Self {
        Self::build_with(ds, shards, par, Stellar::new())
    }

    /// [`Self::build`] with a configured per-shard runner.
    pub fn build_with(ds: &Dataset, shards: usize, par: Parallelism, runner: Stellar) -> Self {
        let plan = ShardPlan::contiguous(ds.len(), shards);
        let dims = ds.dims();
        let engines = par_map_indexed(par, shards, |k| {
            let rows: Vec<Vec<Value>> = plan
                .shard_range(k)
                .map(|o| ds.row(o as ObjId).to_vec())
                .collect();
            let sub = Dataset::from_rows(dims, rows).expect("shard rows stay well formed");
            StellarEngine::with_runner(&sub, runner)
        });
        Self::assemble(plan, dims, engines)
    }

    /// Build with per-shard datasets produced on the worker that builds the
    /// shard (`make(k)` must return `sizes[k]` rows of `dims` dimensions) —
    /// the streaming entry point that lets a 10M-object build generate each
    /// shard's rows from a chunked generator instead of materializing the
    /// global dataset.
    ///
    /// # Panics
    /// Panics if `sizes` is empty or `make(k)` disagrees with `sizes[k]` or
    /// `dims`.
    pub fn build_streamed<F>(
        dims: usize,
        sizes: &[usize],
        par: Parallelism,
        runner: Stellar,
        make: F,
    ) -> Self
    where
        F: Fn(usize) -> Dataset + Sync,
    {
        let plan = ShardPlan::from_sizes(sizes);
        let engines = par_map_indexed(par, sizes.len(), |k| {
            let sub = make(k);
            assert_eq!(sub.len(), sizes[k], "shard {k} row count mismatch");
            assert_eq!(sub.dims(), dims, "shard {k} dimensionality mismatch");
            StellarEngine::with_runner(&sub, runner)
        });
        Self::assemble(plan, dims, engines)
    }

    /// Reopen a sharded deployment from already-materialized per-shard
    /// cubes (e.g. loaded from `OUT.shard0..K-1` files) over the full
    /// dataset, without recomputing any shard: the shard sizes come from
    /// the cubes themselves ([`ShardPlan::from_sizes`]), each shard's
    /// engine adopts its cube via [`StellarEngine::with_cube`], and cubes
    /// loaded from the binary format keep serving through their zero-copy
    /// index. Fails with a structured error when the cubes do not tile `ds`
    /// (size or dimensionality mismatch).
    ///
    /// # Panics
    /// Panics if `cubes` is empty.
    pub fn from_cubes(
        ds: &Dataset,
        cubes: Vec<skycube_stellar::CompressedSkylineCube>,
        runner: Stellar,
    ) -> skycube_types::Result<Self> {
        assert!(!cubes.is_empty(), "a sharded cube needs at least one shard");
        let sizes: Vec<usize> = cubes.iter().map(|c| c.num_objects()).collect();
        let plan = ShardPlan::from_sizes(&sizes);
        if plan.num_objects() != ds.len() {
            return Err(skycube_types::Error::Corrupt {
                line: 0,
                what: format!(
                    "shard cubes cover {} objects, data has {}",
                    plan.num_objects(),
                    ds.len()
                ),
            });
        }
        let dims = ds.dims();
        let mut engines = Vec::with_capacity(cubes.len());
        for (k, cube) in cubes.into_iter().enumerate() {
            let rows: Vec<Vec<Value>> = plan
                .shard_range(k)
                .map(|o| ds.row(o as ObjId).to_vec())
                .collect();
            let sub = Dataset::from_rows(dims, rows)?;
            engines.push(StellarEngine::with_cube(&sub, cube, runner)?);
        }
        Ok(Self::assemble(plan, dims, engines))
    }

    fn assemble(plan: ShardPlan, dims: usize, engines: Vec<StellarEngine>) -> Self {
        let capacity = (1usize << dims.min(10)) - 1;
        let shards = engines
            .into_iter()
            .map(|engine| {
                let gate = GenerationGate::new(engine.generation());
                Shard {
                    engine,
                    cache: SubspaceCache::new(capacity),
                    gate,
                }
            })
            .collect();
        ShardedCube {
            plan,
            dims,
            shards,
            last_delta: None,
        }
    }

    /// The id-mapping plan.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total objects across all shards.
    pub fn num_objects(&self) -> usize {
        self.plan.num_objects()
    }

    /// Dimensionality of the full space.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Shard `k`'s engine (bench and test access).
    pub fn engine(&self, k: usize) -> &StellarEngine {
        &self.shards[k].engine
    }

    /// Shard `k`'s current generation — untouched shards keep theirs across
    /// mutations routed elsewhere.
    pub fn shard_generation(&self, k: usize) -> u64 {
        self.shards[k].engine.generation()
    }

    /// Shard `k`'s cache counters.
    pub fn shard_cache_stats(&self, k: usize) -> CacheStats {
        self.shards[k].cache.stats()
    }

    /// Maintenance counters aggregated across shards.
    pub fn maintenance_stats(&self) -> MaintenanceStats {
        let mut total = MaintenanceStats::default();
        for s in &self.shards {
            let m = s.engine.maintenance_stats();
            total.fast_inserts += m.fast_inserts;
            total.full_inserts += m.full_inserts;
            total.fast_deletes += m.fast_deletes;
            total.full_deletes += m.full_deletes;
            total.spliced += m.spliced;
        }
        total
    }

    /// The latest mutation's delta, stamped with the shard it landed on.
    pub fn last_delta(&self) -> Option<&MaintenanceDelta> {
        self.last_delta.as_ref()
    }

    /// Insert one object and refresh exactly one shard. Returns the new
    /// object's *global* id.
    ///
    /// The insert routes to the last shard — the only target that keeps the
    /// contiguous id mapping stable, since [`StellarEngine::insert`]
    /// appends at the end of the shard's local id space and the global id
    /// comes out as the previous total object count. The routed shard's
    /// cache is reconciled through its [`GenerationGate`] (patched when the
    /// engine's delta is selective); every other shard keeps its engine,
    /// index, memo, cache, and generation untouched.
    pub fn insert(&mut self, row: Vec<Value>) -> skycube_types::Result<ObjId> {
        let k = self.shards.len() - 1;
        let shard = &mut self.shards[k];
        let local = shard.engine.insert(row)?;
        self.plan.note_append();
        let delta = shard.engine.last_delta().cloned().map(|d| d.with_shard(k));
        shard
            .gate
            .sync(shard.engine.generation(), delta.as_ref(), &shard.cache);
        self.last_delta = delta;
        Ok(self.plan.to_global(k, local))
    }

    /// A merge-at-query source over this cube's shards, serving each shard
    /// through its [`skycube_stellar::CubeIndex`] with a per-shard
    /// indexed → scan degradation ladder (one sick shard demotes, the
    /// batch survives).
    pub fn source(&self) -> ShardedSource<'_> {
        ShardedSource::over(self, true)
    }

    /// A merge-at-query source whose per-shard answers come from the scan
    /// path (no index build) — the sharded reference implementation.
    pub fn scan_source(&self) -> ShardedSource<'_> {
        ShardedSource::over(self, false)
    }
}

/// Per-shard serving state of one [`ShardedSource`].
struct ShardServe<'a> {
    /// The indexed path; `None` in scan mode.
    indexed: Option<IndexedCubeSource<'a>>,
    scan: ScanCubeSource<'a>,
    demotions: AtomicU64,
}

/// Reusable per-query merge buffer (pooled, [`IndexedCubeSource`]-style).
#[derive(Default)]
struct MergeScratch {
    globals: Vec<ObjId>,
}

/// A [`SkylineSource`] that answers `skyline A` by merging the K per-shard
/// subspace skylines of a [`ShardedCube`]: collect each shard's (cached)
/// local skyline, lift local ids to global ids, and run one skyline pass
/// over the candidate union with the default algorithm (LESS). `member`
/// takes a shard-local fast path before the global check;
/// `count`/`top` aggregate across shards. Exact by the union invariant
/// (see the module docs).
pub struct ShardedSource<'a> {
    cube: &'a ShardedCube,
    serves: Vec<ShardServe<'a>>,
    indexed: bool,
    scratch_pool: Mutex<Vec<MergeScratch>>,
}

impl<'a> ShardedSource<'a> {
    fn over(cube: &'a ShardedCube, indexed: bool) -> Self {
        let serves = cube
            .shards
            .iter()
            .map(|s| ShardServe {
                indexed: indexed.then(|| IndexedCubeSource::new(s.engine.cube())),
                scan: ScanCubeSource::new(s.engine.cube()),
                demotions: AtomicU64::new(0),
            })
            .collect();
        ShardedSource {
            cube,
            serves,
            indexed,
            scratch_pool: Mutex::new(Vec::new()),
        }
    }

    /// Shard `k`'s skyline of `space` in *local* ids, through the shard's
    /// cache and (in indexed mode) its indexed → scan fallback ladder.
    fn shard_skyline(
        &self,
        k: usize,
        space: DimMask,
        deadline: Option<Instant>,
    ) -> Result<Vec<ObjId>, ServeError> {
        let shard = &self.cube.shards[k];
        if let Some(sky) = shard.cache.get(space) {
            return Ok(sky);
        }
        let serve = &self.serves[k];
        let sky = match &serve.indexed {
            Some(ix) => {
                let ladder = FallbackSource::new(ix).then(&serve.scan);
                let out = ladder.subspace_skyline_within(space, deadline)?;
                let demoted = ladder.demotions();
                if demoted > 0 {
                    serve.demotions.fetch_add(demoted, Ordering::Relaxed);
                }
                out
            }
            None => serve.scan.subspace_skyline_within(space, deadline)?,
        };
        shard.cache.put(space, sky.clone());
        Ok(sky)
    }

    /// The merged (global) skyline of `space`: per-shard skylines lifted to
    /// global ids, then one skyline pass over the candidate union.
    fn merged(&self, space: DimMask, deadline: Option<Instant>) -> Result<Vec<ObjId>, ServeError> {
        check_space(space, self.cube.dims)?;
        let mut scratch = lock_recover(&self.scratch_pool).pop().unwrap_or_default();
        scratch.globals.clear();
        let dims = self.cube.dims;
        let mut values: Vec<Value> = Vec::new();
        for k in 0..self.cube.shards.len() {
            let local = self.shard_skyline(k, space, deadline)?;
            let engine = &self.cube.shards[k].engine;
            scratch.globals.reserve(local.len());
            values.reserve(local.len() * dims);
            for &l in &local {
                scratch.globals.push(self.cube.plan.to_global(k, l));
                values.extend_from_slice(engine.row(l));
            }
        }
        // Candidates are already in ascending global order (shards ascend,
        // ranges are contiguous, per-shard skylines ascend), so mapping the
        // winners' candidate indices back preserves the canonical order.
        let out = if scratch.globals.is_empty() {
            Vec::new()
        } else {
            let cand = Dataset::from_flat(dims, values)
                .map_err(|e| ServeError::Internal(format!("candidate union: {e}")))?;
            skyline(&cand, space)
                .into_iter()
                .map(|i| scratch.globals[i as usize])
                .collect()
        };
        lock_recover(&self.scratch_pool).push(scratch);
        match deadline {
            Some(d) if Instant::now() >= d => Err(ServeError::DeadlineExceeded { budget_ms: 0 }),
            _ => Ok(out),
        }
    }
}

impl SkylineSource for ShardedSource<'_> {
    fn label(&self) -> &'static str {
        if self.indexed {
            "sharded"
        } else {
            "sharded-scan"
        }
    }

    fn dims(&self) -> usize {
        self.cube.dims
    }

    fn num_objects(&self) -> usize {
        self.cube.plan.num_objects()
    }

    fn subspace_skyline(&self, space: DimMask) -> Result<Vec<ObjId>, ServeError> {
        self.merged(space, None)
    }

    fn subspace_skyline_within(
        &self,
        space: DimMask,
        deadline: Option<Instant>,
    ) -> Result<Vec<ObjId>, ServeError> {
        self.merged(space, deadline)
    }

    fn is_skyline_in(&self, o: ObjId, space: DimMask) -> Result<bool, ServeError> {
        check_space(space, self.cube.dims)?;
        check_object(o, self.num_objects())?;
        // Fast negative: an object dominated within its own shard is
        // dominated globally and never reaches the merge.
        let (k, local) = self.cube.plan.to_local(o);
        if self
            .shard_skyline(k, space, None)?
            .binary_search(&local)
            .is_err()
        {
            return Ok(false);
        }
        Ok(self.merged(space, None)?.binary_search(&o).is_ok())
    }

    fn membership_count(&self, o: ObjId) -> Result<u64, ServeError> {
        check_object(o, self.num_objects())?;
        let full = DimMask::full(self.cube.dims);
        let mut count = 0u64;
        for space in full.subsets() {
            if self.is_skyline_in(o, space)? {
                count += 1;
            }
        }
        Ok(count)
    }

    fn top_k_frequent(&self, k: usize) -> Vec<(ObjId, u64)> {
        let mut freq = vec![0u64; self.num_objects()];
        for space in DimMask::full(self.cube.dims).subsets() {
            let sky = self
                .merged(space, None)
                .expect("merging a valid subspace cannot fail");
            for o in sky {
                freq[o as usize] += 1;
            }
        }
        rank_frequencies(&freq, k)
    }

    fn groups_touched(&self) -> u64 {
        self.serves
            .iter()
            .map(|s| {
                s.scan.groups_touched()
                    + s.indexed.as_ref().map_or(0, SkylineSource::groups_touched)
            })
            .sum()
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        let mut total = CacheStats::default();
        for shard in &self.cube.shards {
            let s = shard.cache.stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.entries += s.entries;
            total.capacity += s.capacity;
            total.rejected += s.rejected;
            total.poison_recoveries += s.poison_recoveries;
        }
        Some(total)
    }

    fn index_stats(&self) -> Option<IndexStats> {
        if !self.indexed {
            return None;
        }
        let mut total = IndexStats::default();
        for serve in &self.serves {
            if let Some(stats) = serve.indexed.as_ref().and_then(SkylineSource::index_stats) {
                total.accumulate(&stats);
            }
        }
        Some(total)
    }

    fn demotions(&self) -> u64 {
        self.serves
            .iter()
            .map(|s| s.demotions.load(Ordering::Relaxed))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::DirectSource;
    use skycube_types::running_example;

    fn mask(s: &str) -> DimMask {
        DimMask::parse(s).unwrap()
    }

    #[test]
    fn plan_mapping_round_trips() {
        let plan = ShardPlan::contiguous(10, 3);
        assert_eq!(plan.num_shards(), 3);
        assert_eq!(plan.num_objects(), 10);
        assert_eq!(plan.shard_range(0), 0..4);
        assert_eq!(plan.shard_range(1), 4..7);
        assert_eq!(plan.shard_range(2), 7..10);
        for g in 0..10u32 {
            let (k, l) = plan.to_local(g);
            assert!(plan.shard_range(k).contains(&(g as usize)));
            assert_eq!(plan.to_global(k, l), g);
            assert_eq!(plan.shard_of(g), k);
        }
    }

    #[test]
    fn plan_tolerates_more_shards_than_objects() {
        let plan = ShardPlan::contiguous(2, 5);
        assert_eq!(plan.num_shards(), 5);
        let owners: Vec<usize> = (0..2u32).map(|g| plan.shard_of(g)).collect();
        assert_eq!(owners, vec![0, 1]);
        assert_eq!(plan.shard_range(4), 2..2);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn plan_rejects_zero_shards() {
        let _ = ShardPlan::contiguous(10, 0);
    }

    #[test]
    fn sharded_answers_match_direct_for_every_shard_count() {
        let ds = running_example();
        let direct = DirectSource::new(&ds);
        for shards in [1, 2, 3, 5] {
            let cube = ShardedCube::build(&ds, shards, Parallelism::sequential());
            for source in [cube.source(), cube.scan_source()] {
                for space in ds.full_space().subsets() {
                    assert_eq!(
                        source.subspace_skyline(space).unwrap(),
                        direct.subspace_skyline(space).unwrap(),
                        "{} K={shards} subspace {space}",
                        source.label()
                    );
                    for o in 0..ds.len() as ObjId {
                        assert_eq!(
                            source.is_skyline_in(o, space).unwrap(),
                            direct.is_skyline_in(o, space).unwrap(),
                            "{} K={shards} object {o} subspace {space}",
                            source.label()
                        );
                    }
                }
                for o in 0..ds.len() as ObjId {
                    assert_eq!(
                        source.membership_count(o).unwrap(),
                        direct.membership_count(o).unwrap(),
                        "K={shards} object {o}"
                    );
                }
                assert_eq!(source.top_k_frequent(10), direct.top_k_frequent(10));
            }
        }
    }

    #[test]
    fn sharded_diagnostics_match_the_unsharded_sources() {
        let ds = running_example();
        let cube = ShardedCube::build(&ds, 2, Parallelism::sequential());
        let source = cube.source();
        assert!(matches!(
            source.subspace_skyline(DimMask::EMPTY),
            Err(ServeError::BadSubspace(_))
        ));
        assert!(matches!(
            source.subspace_skyline(DimMask::single(9)),
            Err(ServeError::BadSubspace(_))
        ));
        assert!(matches!(
            source.membership_count(999),
            Err(ServeError::BadObject(_))
        ));
        assert!(matches!(
            source.is_skyline_in(999, mask("A")),
            Err(ServeError::BadObject(_))
        ));
    }

    #[test]
    fn insert_routes_to_one_shard_only() {
        let ds = running_example();
        let mut cube = ShardedCube::build(&ds, 2, Parallelism::sequential());
        // Warm both shard caches.
        let warm = cube.source();
        for space in ds.full_space().subsets() {
            warm.subspace_skyline(space).unwrap();
        }
        drop(warm);
        let gen_before: Vec<u64> = (0..2).map(|k| cube.shard_generation(k)).collect();
        let entries_before = cube.shard_cache_stats(0).entries;
        assert!(entries_before > 0, "shard 0 cache should be warm");
        // A dominated insert routes to the last shard and patches it there.
        let id = cube.insert(vec![9, 9, 11, 9]).unwrap();
        assert_eq!(id as usize, ds.len(), "global id continues the sequence");
        let delta = cube.last_delta().unwrap();
        assert_eq!(delta.shard(), Some(1));
        assert_eq!(cube.shard_generation(0), gen_before[0], "shard 0 mutated");
        assert_eq!(cube.shard_generation(1), gen_before[1] + 1);
        assert_eq!(
            cube.shard_cache_stats(0).entries,
            entries_before,
            "untouched shard lost cache entries"
        );
        // Post-insert answers still match direct computation.
        let mut rows: Vec<Vec<Value>> = ds.ids().map(|o| ds.row(o).to_vec()).collect();
        rows.push(vec![9, 9, 11, 9]);
        let fresh = Dataset::from_rows(ds.dims(), rows).unwrap();
        let direct = DirectSource::new(&fresh);
        let source = cube.source();
        for space in fresh.full_space().subsets() {
            assert_eq!(
                source.subspace_skyline(space).unwrap(),
                direct.subspace_skyline(space).unwrap(),
                "post-insert subspace {space}"
            );
        }
    }

    #[test]
    fn sharded_source_aggregates_stats() {
        let ds = running_example();
        let cube = ShardedCube::build(&ds, 3, Parallelism::sequential());
        let source = cube.source();
        for space in ds.full_space().subsets() {
            source.subspace_skyline(space).unwrap();
            source.subspace_skyline(space).unwrap();
        }
        let cache = source.cache_stats().unwrap();
        assert!(cache.hits > 0, "repeat queries must hit the shard caches");
        assert!(cache.entries > 0);
        let index = source.index_stats().unwrap();
        assert!(index.total_queries() > 0);
        assert!(source.groups_touched() > 0);
        assert_eq!(source.demotions(), 0);
        // Scan mode has no index to report.
        assert_eq!(cube.scan_source().index_stats(), None);
        assert_eq!(source.label(), "sharded");
        assert_eq!(cube.scan_source().label(), "sharded-scan");
    }

    #[test]
    fn streamed_build_matches_direct_build() {
        let ds = running_example();
        let plan = ShardPlan::contiguous(ds.len(), 2);
        let sizes: Vec<usize> = (0..2).map(|k| plan.shard_range(k).len()).collect();
        let streamed = ShardedCube::build_streamed(
            ds.dims(),
            &sizes,
            Parallelism::sequential(),
            Stellar::new(),
            |k| {
                let rows: Vec<Vec<Value>> = plan
                    .shard_range(k)
                    .map(|o| ds.row(o as ObjId).to_vec())
                    .collect();
                Dataset::from_rows(ds.dims(), rows).unwrap()
            },
        );
        let built = ShardedCube::build(&ds, 2, Parallelism::sequential());
        let (a, b) = (streamed.source(), built.source());
        for space in ds.full_space().subsets() {
            assert_eq!(
                a.subspace_skyline(space).unwrap(),
                b.subspace_skyline(space).unwrap()
            );
        }
    }

    #[test]
    fn reopened_shard_cubes_serve_and_maintain_like_built_ones() {
        let ds = running_example();
        let built = ShardedCube::build(&ds, 2, Parallelism::sequential());
        // Round-trip each shard cube through the binary format, then reopen.
        let cubes: Vec<_> = (0..2)
            .map(|k| {
                let mut bytes = Vec::new();
                skycube_stellar::write_cube_binary(built.engine(k).cube(), &mut bytes).unwrap();
                skycube_stellar::read_cube_binary(&bytes).unwrap()
            })
            .collect();
        assert!(cubes.iter().all(|c| c.is_loaded()));
        let mut reopened = ShardedCube::from_cubes(&ds, cubes, Stellar::new()).unwrap();
        assert_eq!(reopened.num_shards(), 2);
        assert_eq!(reopened.num_objects(), ds.len());
        let direct = DirectSource::new(&ds);
        {
            let source = reopened.source();
            for space in ds.full_space().subsets() {
                assert_eq!(
                    source.subspace_skyline(space).unwrap(),
                    direct.subspace_skyline(space).unwrap(),
                    "reopened subspace {space}"
                );
            }
            assert_eq!(source.top_k_frequent(10), direct.top_k_frequent(10));
        }
        // Maintenance on the reopened deployment still routes and patches.
        let id = reopened.insert(vec![9, 9, 11, 9]).unwrap();
        assert_eq!(id as usize, ds.len());
        assert_eq!(reopened.last_delta().unwrap().shard(), Some(1));
        let mut rows: Vec<Vec<Value>> = ds.ids().map(|o| ds.row(o).to_vec()).collect();
        rows.push(vec![9, 9, 11, 9]);
        let fresh = Dataset::from_rows(ds.dims(), rows).unwrap();
        let direct = DirectSource::new(&fresh);
        let source = reopened.source();
        for space in fresh.full_space().subsets() {
            assert_eq!(
                source.subspace_skyline(space).unwrap(),
                direct.subspace_skyline(space).unwrap(),
                "post-insert subspace {space}"
            );
        }
        // A mis-tiled reopen is rejected, not mis-served.
        let short = Dataset::from_rows(4, vec![vec![1, 2, 3, 4]]).unwrap();
        let cube = skycube_stellar::compute_cube(&ds);
        assert!(ShardedCube::from_cubes(&short, vec![cube], Stellar::new()).is_err());
    }

    #[test]
    fn empty_dataset_shards_cleanly() {
        let ds = Dataset::from_rows(3, vec![]).unwrap();
        let cube = ShardedCube::build(&ds, 4, Parallelism::sequential());
        let source = cube.source();
        assert_eq!(source.num_objects(), 0);
        assert_eq!(
            source.subspace_skyline(mask("AB")).unwrap(),
            Vec::<ObjId>::new()
        );
        assert_eq!(source.top_k_frequent(5), Vec::new());
    }
}
