//! The unified [`SkylineSource`] trait and its three implementations.

use crate::cache::CacheStats;
use crate::error::ServeError;
use skycube_skyline::{k_skyband, skyline};
use skycube_stellar::{
    CompressedSkylineCube, CubeIndex, IndexScratch, MemoOutcome, MergeRoute, QueryBudget,
};
use skycube_types::{Dataset, DimMask, ObjId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Lock `m`, recovering from mutex poisoning instead of panicking. Used
/// only for state that stays valid across a holder's panic (scratch pools
/// whose contents are reinitialized per query, monotone counters) — state
/// that can be left half-updated must also be cleared on recovery (see
/// [`crate::SubspaceCache`]).
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Per-merge-route counters for one [`IndexedCubeSource`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RouteStats {
    /// Skyline queries answered through this route.
    pub queries: u64,
    /// Cumulative wall-clock nanoseconds spent in queries on this route
    /// (prefilter + merge, excluding scratch-pool handoff).
    pub nanos: u64,
}

/// Index-side profiling counters surfaced through
/// [`SkylineSource::index_stats`]: per-route query counts and timings,
/// log₂ histograms of the merge workload, and lattice-memo participation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IndexStats {
    /// One cell per [`skycube_stellar::MergeRoute`], indexed by
    /// [`skycube_stellar::MergeRoute::index`].
    pub routes: [RouteStats; MergeRoute::ALL.len()],
    /// `runs_hist[b]` = skyline queries whose merged run count fell in
    /// log₂ bucket `b` (`0` for zero runs, else `⌊log₂ n⌋ + 1`, capped).
    pub runs_hist: [u64; 16],
    /// Same bucketing over elements merged (pre-dedup).
    pub elems_hist: [u64; 16],
    /// Skyline queries answered from an exact memo entry.
    pub memo_exact: u64,
    /// Skyline queries seeded from a memoized ancestor subspace.
    pub memo_ancestor: u64,
    /// Skyline queries that consulted the memo and missed.
    pub memo_miss: u64,
}

impl IndexStats {
    /// Total skyline queries across every route.
    pub fn total_queries(&self) -> u64 {
        self.routes.iter().map(|r| r.queries).sum()
    }

    /// Field-wise `self += other`, for folding per-batch deltas into
    /// running totals.
    pub fn accumulate(&mut self, other: &IndexStats) {
        for i in 0..self.routes.len() {
            self.routes[i].queries += other.routes[i].queries;
            self.routes[i].nanos += other.routes[i].nanos;
        }
        for i in 0..self.runs_hist.len() {
            self.runs_hist[i] += other.runs_hist[i];
            self.elems_hist[i] += other.elems_hist[i];
        }
        self.memo_exact += other.memo_exact;
        self.memo_ancestor += other.memo_ancestor;
        self.memo_miss += other.memo_miss;
    }

    /// Field-wise `after − before`, for per-batch deltas.
    pub fn delta(before: &IndexStats, after: &IndexStats) -> IndexStats {
        let mut out = IndexStats::default();
        for i in 0..out.routes.len() {
            out.routes[i].queries = after.routes[i].queries - before.routes[i].queries;
            out.routes[i].nanos = after.routes[i].nanos - before.routes[i].nanos;
        }
        for i in 0..out.runs_hist.len() {
            out.runs_hist[i] = after.runs_hist[i] - before.runs_hist[i];
            out.elems_hist[i] = after.elems_hist[i] - before.elems_hist[i];
        }
        out.memo_exact = after.memo_exact - before.memo_exact;
        out.memo_ancestor = after.memo_ancestor - before.memo_ancestor;
        out.memo_miss = after.memo_miss - before.memo_miss;
        out
    }
}

/// Log₂ histogram bucket: 0 for 0, else `⌊log₂ n⌋ + 1`, capped at 15.
fn hist_bucket(n: usize) -> usize {
    if n == 0 {
        0
    } else {
        ((usize::BITS - n.leading_zeros()) as usize).min(15)
    }
}

/// One answer engine for the paper's query families, behind a uniform,
/// thread-shareable interface. All implementations must return *identical*
/// answers (pinned by the cross-source property tests): skylines ascending
/// by id, frequencies ordered count-descending with ties by ascending id.
pub trait SkylineSource: Sync {
    /// Short name for reports and CLI output.
    fn label(&self) -> &'static str;

    /// Dimensionality of the full space.
    fn dims(&self) -> usize;

    /// Number of objects in the underlying dataset.
    fn num_objects(&self) -> usize;

    /// The skyline of `space`, ascending ids, or a classified
    /// [`ServeError`] for an invalid subspace.
    fn subspace_skyline(&self, space: DimMask) -> Result<Vec<ObjId>, ServeError>;

    /// The skyline of `space` under an optional absolute deadline.
    ///
    /// The default implementation computes the full answer and enforces the
    /// deadline post-hoc; sources with cooperative checkpoints (the indexed
    /// path, via [`skycube_stellar::QueryBudget`]) override it to abandon
    /// work at route boundaries instead.
    fn subspace_skyline_within(
        &self,
        space: DimMask,
        deadline: Option<Instant>,
    ) -> Result<Vec<ObjId>, ServeError> {
        let out = self.subspace_skyline(space)?;
        match deadline {
            Some(d) if Instant::now() >= d => Err(ServeError::DeadlineExceeded { budget_ms: 0 }),
            _ => Ok(out),
        }
    }

    /// The k-skyband of `space` (objects dominated by fewer than `k`
    /// others), ascending ids. `k = 1` is exactly the skyline, so every
    /// source serves it; deeper bands need the dataset rows, which
    /// cube-backed sources do not hold — their default answers
    /// [`ServeError::Unsupported`], a *demotable* error, so a fallback
    /// ladder can demote the query to a dataset-backed rung.
    fn skyband(&self, k: usize, space: DimMask) -> Result<Vec<ObjId>, ServeError> {
        check_skyband_k(k, space)?;
        if k == 1 {
            return self.subspace_skyline(space);
        }
        check_space(space, self.dims())?;
        Err(ServeError::Unsupported(format!(
            "{}: the {k}-skyband needs the dataset rows; this source holds only the \
             skyline (k = 1) layer",
            self.label()
        )))
    }

    /// Whether object `o` is a skyline object of `space`.
    fn is_skyline_in(&self, o: ObjId, space: DimMask) -> Result<bool, ServeError>;

    /// The number of subspaces in which `o` is a skyline object.
    fn membership_count(&self, o: ObjId) -> Result<u64, ServeError>;

    /// The `k` most frequent subspace-skyline objects with their counts,
    /// count descending, ties by ascending id.
    fn top_k_frequent(&self, k: usize) -> Vec<(ObjId, u64)>;

    /// Cumulative number of groups (or group-like candidates) examined by
    /// this source since construction; `0` for engines without groups.
    fn groups_touched(&self) -> u64 {
        0
    }

    /// Cache counters, for sources wrapped in a [`crate::CachedSource`].
    fn cache_stats(&self) -> Option<CacheStats> {
        None
    }

    /// Cumulative index-side profiling counters (merge routes, workload
    /// histograms, memo hits); `None` for sources without a [`CubeIndex`].
    fn index_stats(&self) -> Option<IndexStats> {
        None
    }

    /// Cumulative queries this source demoted to a cheaper rung; `0` for
    /// everything but [`crate::FallbackSource`].
    fn demotions(&self) -> u64 {
        0
    }
}

/// Shared validation: `space` must be non-empty and within the full space.
pub(crate) fn check_space(space: DimMask, dims: usize) -> Result<(), ServeError> {
    if space.is_empty() {
        return Err(ServeError::BadSubspace(
            "invalid subspace: the empty subspace has no skyline".to_owned(),
        ));
    }
    if !space.is_subset_of(DimMask::full(dims)) {
        return Err(ServeError::BadSubspace(format!(
            "invalid subspace {space}: not a subspace of the {dims}-dimensional full space {}",
            DimMask::full(dims)
        )));
    }
    Ok(())
}

/// Shared validation for skyband queries: `k = 0` is a caller fault —
/// the 0-skyband is empty by definition, and demoting it would only make
/// every rung reject it identically.
pub(crate) fn check_skyband_k(k: usize, space: DimMask) -> Result<(), ServeError> {
    if k == 0 {
        return Err(ServeError::BadSubspace(format!(
            "the 0-skyband of {space} is empty by definition (no object is dominated by \
             fewer than zero others); use k ≥ 1, where k = 1 is the skyline"
        )));
    }
    Ok(())
}

/// Shared validation: `o` must be a known object id.
pub(crate) fn check_object(o: ObjId, num_objects: usize) -> Result<(), ServeError> {
    if (o as usize) < num_objects {
        Ok(())
    } else {
        Err(ServeError::BadObject(format!(
            "object {o} out of range (dataset has {num_objects} objects)"
        )))
    }
}

// ---------------------------------------------------------------------
// Stellar, indexed
// ---------------------------------------------------------------------

/// The serving path: a compressed skyline cube answered through its
/// [`CubeIndex`]. The index is forced at construction so the first query
/// pays no build cost, and a scratch pool keeps the hot loop allocation-free
/// across threads.
pub struct IndexedCubeSource<'a> {
    index: &'a CubeIndex,
    touched: AtomicU64,
    scratch_pool: Mutex<Vec<IndexScratch>>,
    stats: Mutex<IndexStats>,
}

impl<'a> IndexedCubeSource<'a> {
    /// Build the source (and the cube's index, if not built yet).
    pub fn new(cube: &'a CompressedSkylineCube) -> Self {
        IndexedCubeSource {
            index: cube.index(),
            touched: AtomicU64::new(0),
            scratch_pool: Mutex::new(Vec::new()),
            stats: Mutex::new(IndexStats::default()),
        }
    }

    /// The underlying index.
    pub fn index(&self) -> &CubeIndex {
        self.index
    }

    /// Seed the scratch pool with warm buffers (e.g. ones carried across
    /// per-request source rebuilds by a resident daemon).
    pub fn adopt_scratches(&self, scratches: Vec<IndexScratch>) {
        lock_recover(&self.scratch_pool).extend(scratches);
    }

    /// Drain the scratch pool, handing its warm buffers to the caller.
    pub fn take_scratches(&self) -> Vec<IndexScratch> {
        std::mem::take(&mut *lock_recover(&self.scratch_pool))
    }

    fn record(&self, probe: &skycube_stellar::IndexProbe, nanos: u64) {
        let mut stats = lock_recover(&self.stats);
        let r = probe.route.index();
        stats.routes[r].queries += 1;
        stats.routes[r].nanos += nanos;
        stats.runs_hist[hist_bucket(probe.runs_merged)] += 1;
        stats.elems_hist[hist_bucket(probe.elements_merged)] += 1;
        match probe.memo {
            MemoOutcome::Exact => stats.memo_exact += 1,
            MemoOutcome::Ancestor => stats.memo_ancestor += 1,
            MemoOutcome::Miss => stats.memo_miss += 1,
        }
    }

    /// Answer `space` with a pooled scratch, installing `deadline` as the
    /// scratch's [`QueryBudget`] so the index can abandon work at its
    /// cooperative checkpoints.
    fn answer(&self, space: DimMask, deadline: Option<Instant>) -> Result<Vec<ObjId>, ServeError> {
        let mut scratch = lock_recover(&self.scratch_pool).pop().unwrap_or_default();
        scratch.set_budget(match deadline {
            Some(d) => QueryBudget::with_deadline(d),
            None => QueryBudget::unlimited(),
        });
        let mut out = Vec::new();
        let start = Instant::now();
        let result = self
            .index
            .try_subspace_skyline_into(space, &mut scratch, &mut out);
        let nanos = start.elapsed().as_nanos() as u64;
        scratch.set_budget(QueryBudget::unlimited());
        lock_recover(&self.scratch_pool).push(scratch);
        let probe = result?;
        self.touched
            .fetch_add(probe.candidates as u64, Ordering::Relaxed);
        self.record(&probe, nanos);
        Ok(out)
    }
}

impl SkylineSource for IndexedCubeSource<'_> {
    fn label(&self) -> &'static str {
        "stellar"
    }

    fn dims(&self) -> usize {
        self.index.dims()
    }

    fn num_objects(&self) -> usize {
        self.index.num_objects()
    }

    fn subspace_skyline(&self, space: DimMask) -> Result<Vec<ObjId>, ServeError> {
        self.answer(space, None)
    }

    fn subspace_skyline_within(
        &self,
        space: DimMask,
        deadline: Option<Instant>,
    ) -> Result<Vec<ObjId>, ServeError> {
        self.answer(space, deadline)
    }

    fn is_skyline_in(&self, o: ObjId, space: DimMask) -> Result<bool, ServeError> {
        Ok(self.index.try_is_skyline_in(o, space)?)
    }

    fn membership_count(&self, o: ObjId) -> Result<u64, ServeError> {
        Ok(self.index.try_membership_count(o)?)
    }

    fn top_k_frequent(&self, k: usize) -> Vec<(ObjId, u64)> {
        self.index.top_k_frequent(k)
    }

    fn groups_touched(&self) -> u64 {
        self.touched.load(Ordering::Relaxed)
    }

    fn index_stats(&self) -> Option<IndexStats> {
        Some(*lock_recover(&self.stats))
    }
}

// ---------------------------------------------------------------------
// Stellar, scan path (reference)
// ---------------------------------------------------------------------

/// The legacy scan path over the same cube: every skyline query walks the
/// full group list and collect-sort-dedups. Kept as the baseline the index
/// is benchmarked and property-tested against.
pub struct ScanCubeSource<'a> {
    cube: &'a CompressedSkylineCube,
    touched: AtomicU64,
}

impl<'a> ScanCubeSource<'a> {
    /// Wrap a cube without building its index.
    pub fn new(cube: &'a CompressedSkylineCube) -> Self {
        ScanCubeSource {
            cube,
            touched: AtomicU64::new(0),
        }
    }
}

impl SkylineSource for ScanCubeSource<'_> {
    fn label(&self) -> &'static str {
        "stellar-scan"
    }

    fn dims(&self) -> usize {
        self.cube.dims()
    }

    fn num_objects(&self) -> usize {
        self.cube.num_objects()
    }

    fn subspace_skyline(&self, space: DimMask) -> Result<Vec<ObjId>, ServeError> {
        check_space(space, self.dims())?;
        // check_space already covers the cube's own rejections; anything
        // left is a cube/serving disagreement, i.e. a bug.
        let out = self
            .cube
            .try_subspace_skyline(space)
            .map_err(ServeError::Internal)?;
        self.touched
            .fetch_add(self.cube.num_groups() as u64, Ordering::Relaxed);
        Ok(out)
    }

    fn is_skyline_in(&self, o: ObjId, space: DimMask) -> Result<bool, ServeError> {
        check_space(space, self.dims())?;
        check_object(o, self.num_objects())?;
        Ok(self.cube.is_skyline_in(o, space))
    }

    fn membership_count(&self, o: ObjId) -> Result<u64, ServeError> {
        check_object(o, self.num_objects())?;
        Ok(self.cube.membership_count(o))
    }

    fn top_k_frequent(&self, k: usize) -> Vec<(ObjId, u64)> {
        self.cube.top_k_frequent(k)
    }

    fn groups_touched(&self) -> u64 {
        self.touched.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------
// Direct computation
// ---------------------------------------------------------------------

/// The no-precomputation fallback: every query runs the default skyline
/// algorithm (LESS) straight on the dataset.
pub struct DirectSource<'a> {
    ds: &'a Dataset,
}

impl<'a> DirectSource<'a> {
    /// Answer directly from `ds`.
    pub fn new(ds: &'a Dataset) -> Self {
        DirectSource { ds }
    }
}

impl SkylineSource for DirectSource<'_> {
    fn label(&self) -> &'static str {
        "direct"
    }

    fn dims(&self) -> usize {
        self.ds.dims()
    }

    fn num_objects(&self) -> usize {
        self.ds.len()
    }

    fn subspace_skyline(&self, space: DimMask) -> Result<Vec<ObjId>, ServeError> {
        check_space(space, self.dims())?;
        Ok(skyline(self.ds, space))
    }

    fn skyband(&self, k: usize, space: DimMask) -> Result<Vec<ObjId>, ServeError> {
        check_skyband_k(k, space)?;
        check_space(space, self.dims())?;
        Ok(k_skyband(self.ds, space, k))
    }

    fn is_skyline_in(&self, o: ObjId, space: DimMask) -> Result<bool, ServeError> {
        check_space(space, self.dims())?;
        check_object(o, self.num_objects())?;
        Ok(self.ds.ids().all(|v| !self.ds.dominates(v, o, space)))
    }

    fn membership_count(&self, o: ObjId) -> Result<u64, ServeError> {
        check_object(o, self.num_objects())?;
        let full = DimMask::full(self.dims());
        let mut count = 0u64;
        for s in full.subsets() {
            if self.ds.ids().all(|v| !self.ds.dominates(v, o, s)) {
                count += 1;
            }
        }
        Ok(count)
    }

    fn top_k_frequent(&self, k: usize) -> Vec<(ObjId, u64)> {
        let mut freq = vec![0u64; self.num_objects()];
        for s in DimMask::full(self.dims()).subsets() {
            for o in skyline(self.ds, s) {
                freq[o as usize] += 1;
            }
        }
        rank_frequencies(&freq, k)
    }
}

/// Turn a per-object frequency table into the canonical top-k ranking:
/// count descending, ties by ascending id, zero-count objects dropped.
pub(crate) fn rank_frequencies(freq: &[u64], k: usize) -> Vec<(ObjId, u64)> {
    let mut ranked: Vec<(ObjId, u64)> = freq
        .iter()
        .enumerate()
        .filter(|&(_, &f)| f > 0)
        .map(|(o, &f)| (o as ObjId, f))
        .collect();
    ranked.sort_unstable_by_key(|&(o, f)| (std::cmp::Reverse(f), o));
    ranked.truncate(k);
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;
    use skycube_stellar::compute_cube;
    use skycube_types::running_example;

    fn mask(s: &str) -> DimMask {
        DimMask::parse(s).unwrap()
    }

    #[test]
    fn all_sources_agree_on_running_example() {
        let ds = running_example();
        let cube = compute_cube(&ds);
        let indexed = IndexedCubeSource::new(&cube);
        let scan = ScanCubeSource::new(&cube);
        let direct = DirectSource::new(&ds);
        let sources: [&dyn SkylineSource; 3] = [&indexed, &scan, &direct];
        for space in ds.full_space().subsets() {
            let expect = scan.subspace_skyline(space).unwrap();
            for s in sources {
                assert_eq!(
                    s.subspace_skyline(space).unwrap(),
                    expect,
                    "{} subspace {space}",
                    s.label()
                );
            }
            for o in 0..ds.len() as ObjId {
                let expect = scan.is_skyline_in(o, space).unwrap();
                for s in sources {
                    assert_eq!(
                        s.is_skyline_in(o, space).unwrap(),
                        expect,
                        "{} object {o} subspace {space}",
                        s.label()
                    );
                }
            }
        }
        for o in 0..ds.len() as ObjId {
            let expect = scan.membership_count(o).unwrap();
            for s in sources {
                assert_eq!(s.membership_count(o).unwrap(), expect, "{}", s.label());
            }
        }
        let expect = scan.top_k_frequent(10);
        for s in sources {
            assert_eq!(s.top_k_frequent(10), expect, "{}", s.label());
        }
    }

    #[test]
    fn top_k_ties_break_by_ascending_id_in_every_source() {
        // P2 (id 1) and P5 (id 4) tie at 10 memberships in the running
        // example; every source must put id 1 first.
        let ds = running_example();
        let cube = compute_cube(&ds);
        let indexed = IndexedCubeSource::new(&cube);
        let scan = ScanCubeSource::new(&cube);
        let direct = DirectSource::new(&ds);
        let sources: [&dyn SkylineSource; 3] = [&indexed, &scan, &direct];
        for s in sources {
            let top = s.top_k_frequent(2);
            assert_eq!(top, vec![(1, 10), (4, 10)], "{}", s.label());
        }
    }

    #[test]
    fn invalid_inputs_are_diagnosed_uniformly() {
        let ds = running_example();
        let cube = compute_cube(&ds);
        let indexed = IndexedCubeSource::new(&cube);
        let scan = ScanCubeSource::new(&cube);
        let direct = DirectSource::new(&ds);
        let sources: [&dyn SkylineSource; 3] = [&indexed, &scan, &direct];
        for s in sources {
            assert!(s.subspace_skyline(DimMask::EMPTY).is_err(), "{}", s.label());
            assert!(
                s.subspace_skyline(DimMask::single(9)).is_err(),
                "{}",
                s.label()
            );
            assert!(s.membership_count(999).is_err(), "{}", s.label());
            assert!(s.is_skyline_in(999, mask("A")).is_err(), "{}", s.label());
        }
    }

    #[test]
    fn indexed_source_counts_touched_groups() {
        let ds = running_example();
        let cube = compute_cube(&ds);
        let indexed = IndexedCubeSource::new(&cube);
        assert_eq!(indexed.groups_touched(), 0);
        indexed.subspace_skyline(mask("BD")).unwrap();
        let after_one = indexed.groups_touched();
        assert!(after_one > 0);
        let scan = ScanCubeSource::new(&cube);
        scan.subspace_skyline(mask("BD")).unwrap();
        assert_eq!(scan.groups_touched(), cube.num_groups() as u64);
        // The index touches no more candidates than the scan touches groups.
        assert!(after_one <= scan.groups_touched());
    }

    #[test]
    fn indexed_source_profiles_routes_and_memo() {
        let ds = running_example();
        let cube = compute_cube(&ds);
        let indexed = IndexedCubeSource::new(&cube);
        assert_eq!(indexed.index_stats(), Some(IndexStats::default()));
        // Two sweeps: the second one is all exact memo hits.
        for _ in 0..2 {
            for space in ds.full_space().subsets() {
                indexed.subspace_skyline(space).unwrap();
            }
        }
        let stats = indexed.index_stats().unwrap();
        let sweeps = 2 * (1u64 << ds.dims()) - 2;
        assert_eq!(stats.total_queries(), sweeps);
        assert_eq!(stats.runs_hist.iter().sum::<u64>(), sweeps);
        assert_eq!(stats.elems_hist.iter().sum::<u64>(), sweeps);
        assert_eq!(
            stats.memo_exact + stats.memo_ancestor + stats.memo_miss,
            sweeps
        );
        // Every subspace that took the decisive prefilter in sweep 1 is an
        // exact hit in sweep 2 (the full space loops over every group
        // here and is never stored).
        assert!(stats.memo_exact + 1 >= sweeps / 2, "{stats:?}");
        // Non-indexed sources expose nothing.
        assert_eq!(ScanCubeSource::new(&cube).index_stats(), None);
        assert_eq!(DirectSource::new(&ds).index_stats(), None);
    }

    #[test]
    fn index_stats_delta_subtracts_fieldwise() {
        let ds = running_example();
        let cube = compute_cube(&ds);
        let indexed = IndexedCubeSource::new(&cube);
        indexed.subspace_skyline(mask("BD")).unwrap();
        let before = indexed.index_stats().unwrap();
        indexed.subspace_skyline(mask("B")).unwrap();
        let after = indexed.index_stats().unwrap();
        let delta = IndexStats::delta(&before, &after);
        assert_eq!(delta.total_queries(), 1);
        assert_eq!(delta.runs_hist.iter().sum::<u64>(), 1);
    }

    #[test]
    fn hist_bucket_is_log2_with_zero_bucket() {
        assert_eq!(hist_bucket(0), 0);
        assert_eq!(hist_bucket(1), 1);
        assert_eq!(hist_bucket(2), 2);
        assert_eq!(hist_bucket(3), 2);
        assert_eq!(hist_bucket(4), 3);
        assert_eq!(hist_bucket(usize::MAX), 15);
    }
}
