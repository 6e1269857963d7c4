//! The serving index over a computed cube: CSR-flattened group storage with
//! decisive posting lists and precomputed membership counts, so the paper's
//! three query families run without rescanning the group list (the scan
//! path in [`CompressedSkylineCube`] stays as the reference implementation).
//!
//! Layout:
//!
//! - **CSR members** — one contiguous `members` array plus per-group offsets;
//!   each run is sorted ascending, so a subspace skyline is a k-way merge of
//!   the matching runs instead of a collect-sort-dedup.
//! - **Interned decisive antichains** — groups sharing the same decisive set
//!   (extremely common: most groups have a single one-dimensional decisive)
//!   point into one shared pool.
//! - **Decisive posting lists** — for each distinct decisive subspace `C`,
//!   the groups with `C` in their antichain. A group covers `A` exactly when
//!   one of its decisives `C` satisfies `C ⊆ A ⊆ B`, so a query on `A`
//!   unions the lists of the `C ⊆ A` and tests `A ⊆ B` on what it finds.
//!   When `A` has more subsets than the index has groups, one loop over the
//!   groups is cheaper and runs instead.
//! - **Precomputed analytics** — per-group covered-subspace counts, sparse
//!   membership counts keyed by the *active* objects (those in at least one
//!   group), and the full frequency ranking (count descending, id
//!   ascending), making `membership_count` O(log active) and
//!   `top_k_frequent` O(k). The object tables are sparse on purpose: the
//!   compressed cube references only the union of the subspace skylines, so
//!   the index — in memory and in the binary artifact alike — stays
//!   proportional to the cube rather than to the dataset.
//!
//! # Merge routes
//!
//! Once the covering runs are known, the merge stage takes one of two
//! routes by run count `k`:
//!
//! | route   | condition | merge                                       |
//! |---------|-----------|---------------------------------------------|
//! | `Short` | `k ≤ 2`   | empty answer, run copy, or two-way merge    |
//! | `Flat`  | `k ≥ 3`   | concat, `sort_unstable`, `dedup`            |
//!
//! The route taken and the merge workload are reported in [`IndexProbe`].
//!
//! # Lattice memo
//!
//! The full covering set of a subspace is *not* monotone along the lattice
//! (`A ⊆ P` does not imply every group covering `A` covers `P`), but the
//! decisively-qualified set `D(A) = {g : ∃C ∈ decisive(g), C ⊆ A}` is:
//! `A ⊆ P ⟹ D(A) ⊆ D(P)`. The per-index [`LatticeMemo`] therefore stores
//! `D(·)` as sorted group-id lists. An exact hit replaces the prefilter with
//! one `A ⊆ B` bit test per id; an ancestor hit filters the smallest
//! memoized superset's list instead of touching the posting lists at all.
//! The memo is bounded (entries and total ids) with LRU eviction, and
//! [`CubeIndex::invalidate_memo`] empties it for maintenance paths.

use crate::cube::{covered_subspace_count, CompressedSkylineCube};
use skycube_types::{DimMask, Error, ObjId, Section, SectionStore, SectionWriter, Span, MAX_DIMS};
use std::cmp::Reverse;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// Structured error for the index's checked query entry points. Replaces
/// the stringly-typed diagnostics so serving layers can classify failures
/// (and the deadline machinery has a dedicated variant).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// The empty subspace has no skyline.
    EmptySubspace,
    /// The queried subspace is not contained in the full space.
    SubspaceOutOfRange {
        /// The offending subspace.
        space: DimMask,
        /// Dimensionality of the full space.
        dims: usize,
    },
    /// The object id is beyond the dataset.
    ObjectOutOfRange {
        /// The offending object id.
        object: ObjId,
        /// Number of objects in the dataset.
        num_objects: usize,
    },
    /// The query's [`QueryBudget`] deadline passed at a cooperative
    /// checkpoint (prefilter or merge boundary).
    DeadlineExceeded,
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            QueryError::EmptySubspace => {
                write!(f, "invalid subspace: the empty subspace has no skyline")
            }
            QueryError::SubspaceOutOfRange { space, dims } => write!(
                f,
                "invalid subspace {space}: not a subspace of the {dims}-dimensional full space {}",
                DimMask::full(dims)
            ),
            QueryError::ObjectOutOfRange {
                object,
                num_objects,
            } => write!(
                f,
                "object {object} out of range (dataset has {num_objects} objects)"
            ),
            QueryError::DeadlineExceeded => {
                write!(f, "query deadline exceeded at an index merge checkpoint")
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// A per-query time budget, carried in [`IndexScratch`] so the merge stage
/// can check it cooperatively at route boundaries (after the prefilter,
/// before and after the merge) without any plumbing through the hot loop's
/// signatures. The default budget is unlimited and checks are a single
/// branch on `None`.
#[derive(Clone, Copy, Debug, Default)]
pub struct QueryBudget {
    deadline: Option<Instant>,
}

impl QueryBudget {
    /// No deadline: checks never fail.
    pub fn unlimited() -> Self {
        QueryBudget::default()
    }

    /// Fail cooperative checks once `deadline` has passed.
    pub fn with_deadline(deadline: Instant) -> Self {
        QueryBudget {
            deadline: Some(deadline),
        }
    }

    /// The configured deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Cooperative checkpoint: `Err(DeadlineExceeded)` once the deadline
    /// has passed, `Ok` otherwise (always `Ok` without a deadline).
    #[inline]
    pub fn check(&self) -> Result<(), QueryError> {
        match self.deadline {
            Some(d) if Instant::now() >= d => Err(QueryError::DeadlineExceeded),
            _ => Ok(()),
        }
    }
}

/// Maximum number of memoized subspaces per index.
const MEMO_MAX_ENTRIES: usize = 512;
/// Maximum total group ids held across all memo entries.
const MEMO_MAX_IDS: usize = 1 << 20;
/// Largest single list worth memoizing.
const MEMO_ENTRY_MAX_IDS: usize = 1 << 16;
/// Which merge implementation answered a query; see the module docs for the
/// routing condition.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum MergeRoute {
    /// 0–2 runs: empty answer, run copy, or two-way linear merge.
    #[default]
    Short,
    /// 3 or more runs: concat, `sort_unstable`, `dedup`.
    Flat,
}

impl MergeRoute {
    /// All routes, in `index()` order.
    pub const ALL: [MergeRoute; 2] = [MergeRoute::Short, MergeRoute::Flat];

    /// Stable display name (used by `--stats` and the daemon metrics).
    pub fn name(self) -> &'static str {
        match self {
            MergeRoute::Short => "short",
            MergeRoute::Flat => "flat",
        }
    }

    /// Dense index into per-route counter arrays.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// How the lattice memo participated in a query.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum MemoOutcome {
    /// No usable entry; the prefilter ran: the decisive route, or the loop
    /// over all groups.
    #[default]
    Miss,
    /// The queried subspace itself was memoized.
    Exact,
    /// A strict superset was memoized; its list was filtered down.
    Ancestor,
}

impl MemoOutcome {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            MemoOutcome::Miss => "miss",
            MemoOutcome::Exact => "exact",
            MemoOutcome::Ancestor => "ancestor",
        }
    }
}

/// Per-query work counters reported by the index, for `QueryStats` in the
/// serving layer and for the prefilter tests below.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IndexProbe {
    /// Candidate groups examined by the prefilter.
    pub candidates: usize,
    /// Groups that actually cover the queried subspace.
    pub matched: usize,
    /// Merge implementation that produced the answer.
    pub route: MergeRoute,
    /// How the lattice memo participated.
    pub memo: MemoOutcome,
    /// Number of member runs merged (equals `matched`).
    pub runs_merged: usize,
    /// Total elements across the merged runs (before dedup).
    pub elements_merged: usize,
}

/// Lattice-memo counters, cheap to copy into serving-layer stats.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Queries answered from an exact memo entry.
    pub exact_hits: u64,
    /// Queries seeded from a memoized strict superset.
    pub ancestor_hits: u64,
    /// Queries that consulted the memo and found nothing usable.
    pub misses: u64,
    /// Lists inserted.
    pub stores: u64,
    /// Entries removed to stay within budget.
    pub evictions: u64,
    /// Times the memo was explicitly emptied.
    pub invalidations: u64,
    /// Live entries.
    pub entries: usize,
    /// Total group ids across live entries.
    pub ids: usize,
}

#[derive(Debug, Default)]
struct MemoInner {
    map: HashMap<DimMask, MemoEntry>,
    tick: u64,
    total_ids: usize,
}

#[derive(Debug)]
struct MemoEntry {
    stamp: u64,
    ids: Vec<u32>,
}

/// Bounded per-index memo of decisively-qualified sets `D(A)`, keyed by
/// subspace. Interior-mutable so the shared `&CubeIndex` serving path can
/// populate it; cloning an index starts with a cold memo.
#[derive(Debug, Default)]
struct LatticeMemo {
    inner: Mutex<MemoInner>,
    exact_hits: AtomicU64,
    ancestor_hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

impl Clone for LatticeMemo {
    fn clone(&self) -> Self {
        LatticeMemo::default()
    }
}

impl LatticeMemo {
    /// Lock the memo, recovering from poisoning: a panicking writer may
    /// have left a half-updated map, so the poisoned state is dropped (an
    /// empty memo is always correct — it only costs recomputation) and the
    /// recovery is counted as an invalidation.
    fn lock_inner(&self) -> MutexGuard<'_, MemoInner> {
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                let mut guard = poisoned.into_inner();
                guard.map.clear();
                guard.total_ids = 0;
                self.invalidations.fetch_add(1, Ordering::Relaxed);
                guard
            }
        }
    }

    /// Copy the best available list for `space` into `dst`: the exact entry
    /// if present, else the smallest memoized strict superset whose list is
    /// narrower than half the group universe (filtering a wider one would
    /// save little over the prefilter).
    fn lookup(&self, space: DimMask, n_groups: usize, dst: &mut Vec<u32>) -> MemoOutcome {
        dst.clear();
        let mut inner = self.lock_inner();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(entry) = inner.map.get_mut(&space) {
            entry.stamp = tick;
            dst.extend_from_slice(&entry.ids);
            drop(inner);
            self.exact_hits.fetch_add(1, Ordering::Relaxed);
            return MemoOutcome::Exact;
        }
        // Ties on list length break on the mask, so the choice (and with
        // it the LRU stamps and every counter) never depends on the map's
        // iteration order.
        let best = inner
            .map
            .iter()
            .filter(|(&p, e)| space.is_subset_of(p) && e.ids.len() * 2 <= n_groups.max(1))
            .min_by_key(|(&p, e)| (e.ids.len(), p))
            .map(|(&p, _)| p);
        if let Some(p) = best {
            let entry = inner.map.get_mut(&p).expect("key just found");
            entry.stamp = tick;
            dst.extend_from_slice(&entry.ids);
            drop(inner);
            self.ancestor_hits.fetch_add(1, Ordering::Relaxed);
            return MemoOutcome::Ancestor;
        }
        drop(inner);
        self.misses.fetch_add(1, Ordering::Relaxed);
        MemoOutcome::Miss
    }

    /// Insert `D(space) = ids` (sorted ascending), evicting least-recently
    /// touched entries until the entry/id budgets hold.
    fn store(&self, space: DimMask, ids: &[u32]) {
        if ids.len() > MEMO_ENTRY_MAX_IDS {
            return;
        }
        let mut evicted = 0u64;
        {
            let mut inner = self.lock_inner();
            if let Some(old) = inner.map.remove(&space) {
                inner.total_ids -= old.ids.len();
            }
            while !inner.map.is_empty()
                && (inner.map.len() >= MEMO_MAX_ENTRIES
                    || inner.total_ids + ids.len() > MEMO_MAX_IDS)
            {
                let victim = inner
                    .map
                    .iter()
                    .min_by_key(|(_, e)| e.stamp)
                    .map(|(&p, _)| p)
                    .expect("non-empty map");
                let gone = inner.map.remove(&victim).expect("victim present");
                inner.total_ids -= gone.ids.len();
                evicted += 1;
            }
            inner.tick += 1;
            let stamp = inner.tick;
            inner.total_ids += ids.len();
            inner.map.insert(
                space,
                MemoEntry {
                    stamp,
                    ids: ids.to_vec(),
                },
            );
        }
        self.stores.fetch_add(1, Ordering::Relaxed);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    fn invalidate(&self) {
        let mut inner = self.lock_inner();
        inner.map.clear();
        inner.total_ids = 0;
        drop(inner);
        self.invalidations.fetch_add(1, Ordering::Relaxed);
    }

    /// Selective invalidation for the splice path: entries whose subspace
    /// satisfies `stale` are dropped (their `D(·)` list may have gained or
    /// lost a group); survivors are remapped through `old_to_new` in place.
    /// A surviving entry can only reference carried groups — a removed or
    /// added group `g` sits in `D(A)` exactly when some decisive of `g` is
    /// ⊆ `A`, which is the staleness predicate — but an entry that still
    /// fails to remap is dropped defensively rather than served wrong.
    /// Dropped entries are counted as evictions.
    fn retain_remap(&self, stale: impl Fn(DimMask) -> bool, old_to_new: &[Option<u32>]) {
        let mut purged = 0u64;
        {
            let mut inner = self.lock_inner();
            let mut doomed: Vec<DimMask> =
                inner.map.keys().copied().filter(|&a| stale(a)).collect();
            for (&key, entry) in inner.map.iter_mut() {
                if doomed.contains(&key) {
                    continue;
                }
                let mut ok = true;
                for id in entry.ids.iter_mut() {
                    match old_to_new.get(*id as usize).copied().flatten() {
                        Some(ni) => *id = ni,
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                if ok {
                    // The carried-group mapping is monotone in practice, but
                    // the memo contract is a sorted list — enforce it.
                    entry.ids.sort_unstable();
                } else {
                    doomed.push(key);
                }
            }
            for key in doomed {
                if let Some(e) = inner.map.remove(&key) {
                    inner.total_ids -= e.ids.len();
                    purged += 1;
                }
            }
        }
        if purged > 0 {
            self.evictions.fetch_add(purged, Ordering::Relaxed);
        }
    }

    fn stats(&self) -> MemoStats {
        let (entries, ids) = {
            let inner = self.lock_inner();
            (inner.map.len(), inner.total_ids)
        };
        MemoStats {
            exact_hits: self.exact_hits.load(Ordering::Relaxed),
            ancestor_hits: self.ancestor_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            entries,
            ids,
        }
    }
}

/// Reusable per-thread scratch for [`CubeIndex::try_subspace_skyline_into`],
/// so a query loop allocates nothing after warm-up.
#[derive(Clone, Debug, Default)]
pub struct IndexScratch {
    /// Covering group ids for the current query.
    groups: Vec<u32>,
    /// Decisively-qualified ids (the memo payload `D(A)`).
    qualified: Vec<u32>,
    /// Ids copied out of a memo entry.
    memo_ids: Vec<u32>,
    /// Stamp array for O(1) dedup across decisive posting lists.
    seen: Vec<u32>,
    epoch: u32,
    /// Per-query time budget checked at the merge-stage checkpoints.
    budget: QueryBudget,
}

impl IndexScratch {
    /// Set the time budget for subsequent queries answered through this
    /// scratch. The default is [`QueryBudget::unlimited`].
    pub fn set_budget(&mut self, budget: QueryBudget) {
        self.budget = budget;
    }

    /// The currently configured budget.
    pub fn budget(&self) -> QueryBudget {
        self.budget
    }
}

/// The immutable serving index built from a [`CompressedSkylineCube`].
///
/// Answers are pinned identical to the cube's scan path by unit and property
/// tests; the index only changes *how* the groups are found and merged.
///
/// Every array lives in a [`Section`]: a freshly built index owns plain
/// `Vec`s, a binary-loaded index borrows validated byte ranges from the
/// artifact's shared buffer (zero copies, zero rebuilds — see
/// `persist::binary`). The two are indistinguishable to the query paths;
/// maintenance mutations promote the touched sections to owned
/// (copy-on-write via [`Section::to_mut`]).
#[derive(Clone, Debug)]
pub struct CubeIndex {
    dims: usize,
    num_objects: usize,
    /// All group member runs, concatenated; run `g` is
    /// `members[member_offsets[g]..member_offsets[g + 1]]`, sorted ascending.
    members: Section<ObjId>,
    member_offsets: Section<u64>,
    /// Interned decisive pool; group `g`'s antichain is
    /// `decisive_pool[s..s + l]` with `Span { start: s, len: l } =
    /// decisive_spans[g]`.
    decisive_pool: Section<DimMask>,
    decisive_spans: Section<Span>,
    /// Per-group maximal subspace `B`.
    subspaces: Section<DimMask>,
    /// Per-group size of the smallest decisive subspace — a query on a
    /// smaller subspace can never be covered.
    min_decisive_len: Section<u8>,
    /// Decisive posting lists, CSR keyed by the sorted `decisive_keys`: for
    /// each distinct decisive subspace `C`, the ascending ids of the groups
    /// with `C` in their antichain. A query on `A` unions the lists of all
    /// `C ⊆ A` — the dimension-bucketed lattice lookup — so no antichain is
    /// walked at query time.
    decisive_keys: Section<DimMask>,
    decisive_list_offsets: Section<u64>,
    decisive_lists: Section<u32>,
    /// Sparse CSR of object → group ids (mirrors the cube's
    /// `member_groups`), keyed by the **active** objects — those that appear
    /// in at least one group. The compressed cube references only the union
    /// of the subspace skylines, so these tables are proportional to the
    /// cube, not to the dataset: lookups binary-search `active_objs` and
    /// objects not found belong to no group.
    obj_groups: Section<u32>,
    active_objs: Section<ObjId>,
    active_offsets: Section<u64>,
    /// Membership count (number of subspaces where the object is a skyline
    /// member) per active object, parallel to `active_objs`.
    active_freq: Section<u64>,
    /// The full `top_k_frequent` ranking as parallel arrays: objects with
    /// `count > 0`, ordered count descending then id ascending.
    freq_rank_obj: Section<ObjId>,
    freq_rank_count: Section<u64>,
    /// Per-group covered-subspace counts, kept so the splice path can carry
    /// them across generations instead of recounting them.
    covered: Section<u64>,
    /// Bounded memo of decisively-qualified sets along the lattice.
    /// Transient: never persisted, cold after a load or clone.
    memo: LatticeMemo,
}

impl CubeIndex {
    /// Build the index from a computed cube. Cost is one pass over the
    /// groups plus the per-group covered-subspace counts the scan path would
    /// otherwise pay on every `membership_count` query.
    pub fn build(cube: &CompressedSkylineCube) -> CubeIndex {
        let mut scratch = Vec::new();
        let covered: Vec<u64> = cube
            .groups()
            .iter()
            .map(|g| covered_subspace_count(g, &mut scratch))
            .collect();
        CubeIndex::assemble(
            cube.dims(),
            cube.num_objects(),
            cube.groups(),
            covered,
            LatticeMemo::default(),
        )
    }

    /// Patch the index in place after a maintenance delta: carried groups
    /// keep their covered-subspace counts (no recount), the CSR runs and
    /// decisive posting lists are re-laid-out in one linear pass
    /// over the new groups, and the lattice memo survives selectively —
    /// only entries whose subspace contains a decisive of a touched group
    /// are purged, the rest are remapped old→new group ids.
    ///
    /// `purge` carries `(maximal subspace, decisive antichain)` of every
    /// touched (removed or added) group; `groups` is the new generation in
    /// the object-id space the delta was computed in.
    pub(crate) fn splice(
        &mut self,
        dims: usize,
        num_objects: usize,
        groups: &[skycube_types::SkylineGroup],
        delta: &crate::lattice::GroupDelta,
        purge: &[(DimMask, Vec<DimMask>)],
    ) {
        debug_assert_eq!(delta.old_to_new.len(), self.subspaces.len());
        let mut covered = vec![0u64; groups.len()];
        let mut carried = vec![false; groups.len()];
        for (oi, &m) in delta.old_to_new.iter().enumerate() {
            if let Some(ni) = m {
                covered[ni as usize] = self.covered[oi];
                carried[ni as usize] = true;
            }
        }
        let mut scratch = Vec::new();
        for (ni, g) in groups.iter().enumerate() {
            if !carried[ni] {
                covered[ni] = covered_subspace_count(g, &mut scratch);
            }
        }
        let memo = std::mem::take(&mut self.memo);
        memo.retain_remap(
            |a| {
                purge
                    .iter()
                    .any(|(_, cs)| cs.iter().any(|c| c.is_subset_of(a)))
            },
            &delta.old_to_new,
        );
        *self = CubeIndex::assemble(dims, num_objects, groups, covered, memo);
    }

    /// Grow the index by one object that belongs to no group — the tail of
    /// an insert whose row joins no subspace skyline. The object tables are
    /// sparse (keyed by the objects that appear in some group), so a
    /// memberless object needs no slot anywhere: only the object count
    /// moves, and a loaded index stays fully zero-copy.
    pub(crate) fn append_object(&mut self) {
        self.num_objects += 1;
    }

    /// One linear pass over `groups` laying out every array of the index;
    /// `covered` and `memo` are supplied by the caller so the splice path
    /// can carry them across generations.
    fn assemble(
        dims: usize,
        n: usize,
        groups: &[skycube_types::SkylineGroup],
        covered: Vec<u64>,
        memo: LatticeMemo,
    ) -> CubeIndex {
        let mut members = Vec::with_capacity(groups.iter().map(|g| g.members.len()).sum());
        let mut member_offsets = Vec::with_capacity(groups.len() + 1);
        let mut decisive_pool: Vec<DimMask> = Vec::new();
        let mut decisive_spans = Vec::with_capacity(groups.len());
        let mut interned: HashMap<&[DimMask], Span> = HashMap::new();
        let mut subspaces = Vec::with_capacity(groups.len());
        let mut min_decisive_len = Vec::with_capacity(groups.len());
        let mut decisive_postings: HashMap<DimMask, Vec<u32>> = HashMap::new();

        member_offsets.push(0u64);
        for (gi, g) in groups.iter().enumerate() {
            members.extend_from_slice(&g.members);
            member_offsets.push(members.len() as u64);
            let span = *interned.entry(g.decisive.as_slice()).or_insert_with(|| {
                let start = decisive_pool.len() as u32;
                decisive_pool.extend_from_slice(&g.decisive);
                Span {
                    start,
                    len: g.decisive.len() as u32,
                }
            });
            decisive_spans.push(span);
            subspaces.push(g.subspace);
            min_decisive_len.push(g.decisive.iter().map(|c| c.len()).min().unwrap_or(0) as u8);
            for &c in &g.decisive {
                decisive_postings.entry(c).or_default().push(gi as u32);
            }
        }

        // The decisive posting map becomes sorted keys plus a CSR; lookups
        // binary-search the key column.
        let mut decisive_keys: Vec<DimMask> = decisive_postings.keys().copied().collect();
        decisive_keys.sort_unstable();
        let mut decisive_list_offsets = Vec::with_capacity(decisive_keys.len() + 1);
        let mut decisive_lists = Vec::new();
        decisive_list_offsets.push(0u64);
        for c in &decisive_keys {
            decisive_lists.extend_from_slice(&decisive_postings[c]);
            decisive_list_offsets.push(decisive_lists.len() as u64);
        }

        // The object tables are sparse: keyed by the objects that appear in
        // at least one group (the union of the subspace skylines), so their
        // size tracks the compressed cube rather than the dataset.
        let mut active_objs: Vec<ObjId> = members.clone();
        active_objs.sort_unstable();
        active_objs.dedup();
        let slot = |o: ObjId| {
            active_objs
                .binary_search(&o)
                .expect("every member is active")
        };
        let mut counts = vec![0usize; active_objs.len()];
        let mut active_freq = vec![0u64; active_objs.len()];
        for (gi, g) in groups.iter().enumerate() {
            for &m in &g.members {
                let i = slot(m);
                counts[i] += 1;
                active_freq[i] += covered[gi];
            }
        }
        let mut active_offsets = Vec::with_capacity(active_objs.len() + 1);
        active_offsets.push(0usize);
        for &c in &counts {
            active_offsets.push(active_offsets.last().unwrap() + c);
        }
        let mut obj_groups = vec![0u32; *active_offsets.last().unwrap()];
        let mut cursor = active_offsets.clone();
        for (gi, g) in groups.iter().enumerate() {
            for &m in &g.members {
                let i = slot(m);
                obj_groups[cursor[i]] = gi as u32;
                cursor[i] += 1;
            }
        }
        let active_offsets: Vec<u64> = active_offsets.iter().map(|&o| o as u64).collect();

        let mut freq_ranked: Vec<(ObjId, u64)> = active_objs
            .iter()
            .zip(&active_freq)
            .filter(|&(_, &f)| f > 0)
            .map(|(&o, &f)| (o, f))
            .collect();
        freq_ranked.sort_unstable_by_key(|&(o, f)| (Reverse(f), o));
        let freq_rank_obj: Vec<ObjId> = freq_ranked.iter().map(|&(o, _)| o).collect();
        let freq_rank_count: Vec<u64> = freq_ranked.iter().map(|&(_, f)| f).collect();

        CubeIndex {
            dims,
            num_objects: n,
            members: members.into(),
            member_offsets: member_offsets.into(),
            decisive_pool: decisive_pool.into(),
            decisive_spans: decisive_spans.into(),
            subspaces: subspaces.into(),
            min_decisive_len: min_decisive_len.into(),
            decisive_keys: decisive_keys.into(),
            decisive_list_offsets: decisive_list_offsets.into(),
            decisive_lists: decisive_lists.into(),
            obj_groups: obj_groups.into(),
            active_objs: active_objs.into(),
            active_offsets: active_offsets.into(),
            active_freq: active_freq.into(),
            freq_rank_obj: freq_rank_obj.into(),
            freq_rank_count: freq_rank_count.into(),
            covered: covered.into(),
            memo,
        }
    }

    /// Dimensionality of the full space.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of objects in the underlying dataset.
    pub fn num_objects(&self) -> usize {
        self.num_objects
    }

    /// Number of indexed groups.
    pub fn num_groups(&self) -> usize {
        self.subspaces.len()
    }

    /// Number of distinct interned decisive antichains.
    pub fn num_interned_antichains(&self) -> usize {
        let mut spans: Vec<Span> = self.decisive_spans.to_vec();
        spans.sort_unstable();
        spans.dedup();
        spans.len()
    }

    /// Whether any storage section is still a zero-copy view into a loaded
    /// artifact (as opposed to owned, possibly COW-promoted, memory).
    pub fn is_loaded(&self) -> bool {
        self.members.is_loaded()
            || self.member_offsets.is_loaded()
            || self.active_offsets.is_loaded()
            || self.active_freq.is_loaded()
    }

    /// Lattice-memo counters (hit rates, occupancy, invalidations).
    pub fn memo_stats(&self) -> MemoStats {
        self.memo.stats()
    }

    /// Empty the lattice memo. Maintenance paths that mutate the underlying
    /// cube must call this (or drop the index) before serving again.
    pub fn invalidate_memo(&self) {
        self.memo.invalidate();
    }

    pub(crate) fn member_run(&self, g: u32) -> &[ObjId] {
        let s = self.member_offsets[g as usize] as usize;
        let e = self.member_offsets[g as usize + 1] as usize;
        &self.members[s..e]
    }

    pub(crate) fn decisive_of(&self, g: u32) -> &[DimMask] {
        let Span { start, len } = self.decisive_spans[g as usize];
        &self.decisive_pool[start as usize..(start + len) as usize]
    }

    /// The maximal subspace `B` of group `g`.
    pub(crate) fn subspace_of(&self, g: u32) -> DimMask {
        self.subspaces[g as usize]
    }

    /// The ascending group ids object `o` belongs to. Objects absent from
    /// the sparse active table belong to no group.
    pub(crate) fn groups_of_obj(&self, o: ObjId) -> &[u32] {
        match self.active_objs.binary_search(&o) {
            Ok(i) => {
                let s = self.active_offsets[i] as usize;
                let e = self.active_offsets[i + 1] as usize;
                &self.obj_groups[s..e]
            }
            Err(_) => &[],
        }
    }

    /// The decisive posting list of subspace `c`, if any group has `c` in
    /// its antichain — a binary search over the sorted key column.
    fn decisive_list(&self, c: DimMask) -> Option<&[u32]> {
        let i = self.decisive_keys.binary_search(&c).ok()?;
        let s = self.decisive_list_offsets[i] as usize;
        let e = self.decisive_list_offsets[i + 1] as usize;
        Some(&self.decisive_lists[s..e])
    }

    /// Whether some decisive subspace of `g` fits inside `space` (the
    /// monotone half of the covering test; `k = space.len()`).
    #[inline]
    fn decisively_qualified(&self, g: u32, space: DimMask, k: usize) -> bool {
        self.min_decisive_len[g as usize] as usize <= k
            && self.decisive_of(g).iter().any(|c| c.is_subset_of(space))
    }

    /// Whether group `g` covers `space`: `space ⊆ B` and some decisive
    /// `C ⊆ space`. The `min_decisive_len` gate skips the antichain walk for
    /// subspaces that are too small to contain any decisive.
    #[inline]
    fn covers(&self, g: u32, space: DimMask, k: usize) -> bool {
        space.is_subset_of(self.subspaces[g as usize]) && self.decisively_qualified(g, space, k)
    }

    /// Collect the ids of the groups covering `space` into `scratch.groups`,
    /// consulting the lattice memo first. `space` must be valid.
    ///
    /// On a miss, the **decisive route** runs when `A` has no more subsets
    /// than the index has groups (`2^|A| − 1 ≤ #groups`, the common case):
    /// union the decisive posting lists of every `C ⊆ A`; each listed group
    /// is decisively qualified, so only the `A ⊆ B` bit test remains. A stamp
    /// array dedups groups reachable through several decisives. Otherwise
    /// one loop tests every group with [`Self::covers`], which visits fewer
    /// groups than the decisive route would enumerate subsets.
    ///
    /// The decisive route and both memo paths also recover `D(A)` (into
    /// `scratch.qualified`), which is stored back into the memo; the loop
    /// stores nothing.
    fn collect_covering(&self, space: DimMask, scratch: &mut IndexScratch, probe: &mut IndexProbe) {
        scratch.groups.clear();
        scratch.qualified.clear();
        let k = space.len();
        let n_groups = self.subspaces.len();
        probe.memo = self.memo.lookup(space, n_groups, &mut scratch.memo_ids);
        match probe.memo {
            MemoOutcome::Exact => {
                for &g in &scratch.memo_ids {
                    probe.candidates += 1;
                    if space.is_subset_of(self.subspaces[g as usize]) {
                        scratch.groups.push(g);
                    }
                }
                probe.matched = scratch.groups.len();
                return;
            }
            MemoOutcome::Ancestor => {
                for &g in &scratch.memo_ids {
                    probe.candidates += 1;
                    if self.decisively_qualified(g, space, k) {
                        scratch.qualified.push(g);
                        if space.is_subset_of(self.subspaces[g as usize]) {
                            scratch.groups.push(g);
                        }
                    }
                }
                self.memo.store(space, &scratch.qualified);
                probe.matched = scratch.groups.len();
                return;
            }
            MemoOutcome::Miss => {}
        }
        let subset_route_cheap = k < 63 && ((1u64 << k) - 1) <= n_groups.max(1) as u64;
        if subset_route_cheap {
            if scratch.seen.len() != n_groups {
                scratch.seen = vec![0; n_groups];
                scratch.epoch = 0;
            }
            scratch.epoch = scratch.epoch.wrapping_add(1);
            if scratch.epoch == 0 {
                scratch.seen.fill(0);
                scratch.epoch = 1;
            }
            let epoch = scratch.epoch;
            for c in space.subsets() {
                if let Some(list) = self.decisive_list(c) {
                    for &g in list {
                        probe.candidates += 1;
                        if scratch.seen[g as usize] != epoch {
                            scratch.seen[g as usize] = epoch;
                            scratch.qualified.push(g);
                            if space.is_subset_of(self.subspaces[g as usize]) {
                                scratch.groups.push(g);
                            }
                        }
                    }
                }
            }
            // Posting traversal interleaves the lists; the memo contract is a
            // sorted `D(A)`.
            scratch.qualified.sort_unstable();
            self.memo.store(space, &scratch.qualified);
        } else {
            probe.candidates += n_groups;
            for g in 0..n_groups as u32 {
                if self.covers(g, space, k) {
                    scratch.groups.push(g);
                }
            }
        }
        probe.matched = scratch.groups.len();
    }

    /// The skyline of `space`, ascending ids — identical to
    /// [`CompressedSkylineCube::subspace_skyline`].
    ///
    /// # Panics
    /// Panics when `space` is empty or outside the full space.
    pub fn subspace_skyline(&self, space: DimMask) -> Vec<ObjId> {
        self.try_subspace_skyline(space)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// The skyline of `space`, or a structured [`QueryError`] for an
    /// invalid subspace.
    pub fn try_subspace_skyline(&self, space: DimMask) -> Result<Vec<ObjId>, QueryError> {
        let mut scratch = IndexScratch::default();
        let mut out = Vec::new();
        self.try_subspace_skyline_into(space, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// The allocation-free query loop: answer into `out` reusing `scratch`,
    /// returning the prefilter and merge work counters. Consults the
    /// lattice memo, then merges the covering runs: up to two runs take the
    /// `Short` route, more take the `Flat` one.
    pub fn try_subspace_skyline_into(
        &self,
        space: DimMask,
        scratch: &mut IndexScratch,
        out: &mut Vec<ObjId>,
    ) -> Result<IndexProbe, QueryError> {
        out.clear();
        if space.is_empty() {
            return Err(QueryError::EmptySubspace);
        }
        if !space.is_subset_of(DimMask::full(self.dims)) {
            return Err(QueryError::SubspaceOutOfRange {
                space,
                dims: self.dims,
            });
        }
        // Deadline checkpoint 1: before the prefilter. Catches budgets that
        // were already blown on arrival (queue time, an injected stall).
        scratch.budget.check()?;
        let mut probe = IndexProbe::default();
        self.collect_covering(space, scratch, &mut probe);
        // Deadline checkpoint 2: the prefilter/merge boundary.
        scratch.budget.check()?;

        let runs = scratch.groups.iter().map(|&g| self.member_run(g));
        probe.runs_merged = scratch.groups.len();
        probe.elements_merged = runs.clone().map(<[ObjId]>::len).sum();
        probe.route = match scratch.groups.as_slice() {
            [] => MergeRoute::Short,
            [g] => {
                out.extend_from_slice(self.member_run(*g));
                MergeRoute::Short
            }
            [a, b] => {
                merge_two(self.member_run(*a), self.member_run(*b), out);
                MergeRoute::Short
            }
            _ => {
                merge_flat(runs, out);
                MergeRoute::Flat
            }
        };
        // Deadline checkpoint 3: the merge finished. A query that ran past
        // its budget reports the overrun even though the answer exists;
        // degradation layers may re-answer without a deadline.
        scratch.budget.check()?;
        Ok(probe)
    }

    /// Whether object `o` is a skyline object of `space` — identical to
    /// [`CompressedSkylineCube::is_skyline_in`], but over the CSR
    /// object→group postings.
    ///
    /// # Panics
    /// Panics when `o` is out of range; see [`Self::try_is_skyline_in`].
    pub fn is_skyline_in(&self, o: ObjId, space: DimMask) -> bool {
        let k = space.len();
        self.groups_of_obj(o)
            .iter()
            .any(|&g| self.covers(g, space, k))
    }

    /// Checked [`Self::is_skyline_in`]: validates the object id and the
    /// subspace instead of panicking.
    pub fn try_is_skyline_in(&self, o: ObjId, space: DimMask) -> Result<bool, QueryError> {
        if space.is_empty() {
            return Err(QueryError::EmptySubspace);
        }
        if !space.is_subset_of(DimMask::full(self.dims)) {
            return Err(QueryError::SubspaceOutOfRange {
                space,
                dims: self.dims,
            });
        }
        self.check_object(o)?;
        Ok(self.is_skyline_in(o, space))
    }

    /// The number of subspaces in which `o` is a skyline object —
    /// O(log active) from the precomputed sparse per-object counts; objects
    /// in no group count zero.
    ///
    /// # Panics
    /// Panics when `o` is out of range; see [`Self::try_membership_count`].
    pub fn membership_count(&self, o: ObjId) -> u64 {
        assert!(
            (o as usize) < self.num_objects,
            "object {o} beyond the {}-object dataset",
            self.num_objects
        );
        self.active_freq_of(o)
    }

    /// Checked [`Self::membership_count`]: validates the object id instead
    /// of panicking.
    pub fn try_membership_count(&self, o: ObjId) -> Result<u64, QueryError> {
        self.check_object(o)?;
        Ok(self.active_freq_of(o))
    }

    fn active_freq_of(&self, o: ObjId) -> u64 {
        match self.active_objs.binary_search(&o) {
            Ok(i) => self.active_freq[i],
            Err(_) => 0,
        }
    }

    fn check_object(&self, o: ObjId) -> Result<(), QueryError> {
        if (o as usize) < self.num_objects {
            Ok(())
        } else {
            Err(QueryError::ObjectOutOfRange {
                object: o,
                num_objects: self.num_objects,
            })
        }
    }

    /// The membership intervals of `o` as borrowed `(decisive, maximal)`
    /// pairs into the interned pool.
    pub fn membership_intervals(&self, o: ObjId) -> Vec<(&[DimMask], DimMask)> {
        self.groups_of_obj(o)
            .iter()
            .map(|&g| (self.decisive_of(g), self.subspaces[g as usize]))
            .collect()
    }

    /// The `k` most frequent subspace-skyline objects, count descending and
    /// ties by ascending id — O(k) from the precomputed ranking.
    pub fn top_k_frequent(&self, k: usize) -> Vec<(ObjId, u64)> {
        let k = k.min(self.freq_rank_obj.len());
        self.freq_rank_obj[..k]
            .iter()
            .zip(&self.freq_rank_count[..k])
            .map(|(&o, &f)| (o, f))
            .collect()
    }
}

/// Stable section identifiers of the binary artifact format. Ids are never
/// reused; layout changes bump the format version instead.
pub(crate) mod section_id {
    /// Concatenated member runs (`u32`).
    pub const MEMBERS: u32 = 1;
    /// Member-run CSR offsets (`u64`).
    pub const MEMBER_OFFSETS: u32 = 2;
    /// Interned decisive antichain pool (`DimMask`).
    pub const DECISIVE_POOL: u32 = 3;
    /// Per-group spans into the pool (`Span`).
    pub const DECISIVE_SPANS: u32 = 4;
    /// Per-group maximal subspaces (`DimMask`).
    pub const SUBSPACES: u32 = 5;
    /// Per-group smallest decisive size (`u8`).
    pub const MIN_DECISIVE_LEN: u32 = 6;
    // Ids 7 and 8 held the per-dimension posting lists and 12–14 the
    // popcount buckets, retired in format version 2. A version-1 file still
    // carries them; they are checksummed with every section and never read.
    // The ids stay reserved.
    /// Sorted distinct decisive subspaces (`DimMask`).
    pub const DECISIVE_KEYS: u32 = 9;
    /// Decisive posting CSR offsets (`u64`).
    pub const DECISIVE_LIST_OFFSETS: u32 = 10;
    /// Decisive posting lists (`u32`).
    pub const DECISIVE_LISTS: u32 = 11;
    /// Object → group sparse CSR values (`u32`).
    pub const OBJ_GROUPS: u32 = 15;
    /// Sparse object → group CSR offsets, per active object (`u64`).
    pub const ACTIVE_OFFSETS: u32 = 16;
    /// Membership counts per active object (`u64`).
    pub const ACTIVE_FREQ: u32 = 17;
    /// Frequency ranking, object column (`u32`).
    pub const FREQ_RANK_OBJ: u32 = 18;
    /// Frequency ranking, count column (`u64`).
    pub const FREQ_RANK_COUNT: u32 = 19;
    /// Per-group covered-subspace counts (`u64`).
    pub const COVERED: u32 = 20;
    /// Cube seed objects (`u32`) — written by the cube layer, not the index.
    pub const SEEDS: u32 = 21;
    /// Sorted ascending active objects — those in at least one group
    /// (`u32`), the keys of the sparse object tables.
    pub const ACTIVE_OBJS: u32 = 22;

    /// Human-readable name for corruption diagnostics.
    pub fn name(id: u32) -> &'static str {
        match id {
            MEMBERS => "members",
            MEMBER_OFFSETS => "member_offsets",
            DECISIVE_POOL => "decisive_pool",
            DECISIVE_SPANS => "decisive_spans",
            SUBSPACES => "subspaces",
            MIN_DECISIVE_LEN => "min_decisive_len",
            DECISIVE_KEYS => "decisive_keys",
            DECISIVE_LIST_OFFSETS => "decisive_list_offsets",
            DECISIVE_LISTS => "decisive_lists",
            OBJ_GROUPS => "obj_groups",
            ACTIVE_OFFSETS => "active_offsets",
            ACTIVE_FREQ => "active_freq",
            FREQ_RANK_OBJ => "freq_rank_obj",
            FREQ_RANK_COUNT => "freq_rank_count",
            COVERED => "covered",
            SEEDS => "seeds",
            ACTIVE_OBJS => "active_objs",
            _ => "unknown",
        }
    }
}

/// Structured corruption error for the binary load path (no line numbers in
/// a binary artifact; `line` 0 means "not line-oriented").
pub(crate) fn corrupt(what: impl Into<String>) -> Error {
    Error::Corrupt {
        line: 0,
        what: what.into(),
    }
}

/// Extract one typed section, naming the section in the failure.
fn load_section<T: skycube_types::Pod>(store: &SectionStore, id: u32) -> Result<Section<T>, Error> {
    store
        .section::<T>(id)
        .map_err(|(id, e)| corrupt(format!("section {}: {e}", section_id::name(id))))
}

/// `offsets` must be a CSR offset column: `buckets + 1` entries, starting at
/// 0, monotone non-decreasing, ending at `total`.
fn check_offsets(offsets: &[u64], buckets: usize, total: usize, what: &str) -> Result<(), Error> {
    if offsets.len() != buckets + 1 {
        return Err(corrupt(format!(
            "section {what}: expected {} offsets, found {}",
            buckets + 1,
            offsets.len()
        )));
    }
    if offsets[0] != 0 {
        return Err(corrupt(format!("section {what}: first offset is not 0")));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(corrupt(format!("section {what}: offsets are not monotone")));
    }
    if offsets[buckets] != total as u64 {
        return Err(corrupt(format!(
            "section {what}: final offset {} does not match the {total}-element value column",
            offsets[buckets]
        )));
    }
    Ok(())
}

impl CubeIndex {
    /// Serialize every persistent section into `w` (the memo is transient
    /// and rebuilt cold by the loader).
    pub(crate) fn write_sections(&self, w: &mut SectionWriter) {
        use section_id as id;
        w.push(id::MEMBERS, &self.members);
        w.push(id::MEMBER_OFFSETS, &self.member_offsets);
        w.push(id::DECISIVE_POOL, &self.decisive_pool);
        w.push(id::DECISIVE_SPANS, &self.decisive_spans);
        w.push(id::SUBSPACES, &self.subspaces);
        w.push(id::MIN_DECISIVE_LEN, &self.min_decisive_len);
        w.push(id::DECISIVE_KEYS, &self.decisive_keys);
        w.push(id::DECISIVE_LIST_OFFSETS, &self.decisive_list_offsets);
        w.push(id::DECISIVE_LISTS, &self.decisive_lists);
        w.push(id::OBJ_GROUPS, &self.obj_groups);
        w.push(id::ACTIVE_OBJS, &self.active_objs);
        w.push(id::ACTIVE_OFFSETS, &self.active_offsets);
        w.push(id::ACTIVE_FREQ, &self.active_freq);
        w.push(id::FREQ_RANK_OBJ, &self.freq_rank_obj);
        w.push(id::FREQ_RANK_COUNT, &self.freq_rank_count);
        w.push(id::COVERED, &self.covered);
    }

    /// Assemble a zero-copy index from a validated [`SectionStore`] — the
    /// binary load path. No structure is rebuilt: every array is a borrowed
    /// view, and [`Self::validate_loaded`] re-establishes every invariant
    /// the query paths rely on (the same ones `read_cube` checks for the
    /// text format, plus the index-level cross-structure ones).
    pub(crate) fn from_store(
        store: &SectionStore,
        dims: usize,
        num_objects: usize,
        num_groups: usize,
    ) -> Result<CubeIndex, Error> {
        use section_id as id;
        let ix = CubeIndex {
            dims,
            num_objects,
            members: load_section(store, id::MEMBERS)?,
            member_offsets: load_section(store, id::MEMBER_OFFSETS)?,
            decisive_pool: load_section(store, id::DECISIVE_POOL)?,
            decisive_spans: load_section(store, id::DECISIVE_SPANS)?,
            subspaces: load_section(store, id::SUBSPACES)?,
            min_decisive_len: load_section(store, id::MIN_DECISIVE_LEN)?,
            decisive_keys: load_section(store, id::DECISIVE_KEYS)?,
            decisive_list_offsets: load_section(store, id::DECISIVE_LIST_OFFSETS)?,
            decisive_lists: load_section(store, id::DECISIVE_LISTS)?,
            obj_groups: load_section(store, id::OBJ_GROUPS)?,
            active_objs: load_section(store, id::ACTIVE_OBJS)?,
            active_offsets: load_section(store, id::ACTIVE_OFFSETS)?,
            active_freq: load_section(store, id::ACTIVE_FREQ)?,
            freq_rank_obj: load_section(store, id::FREQ_RANK_OBJ)?,
            freq_rank_count: load_section(store, id::FREQ_RANK_COUNT)?,
            covered: load_section(store, id::COVERED)?,
            memo: LatticeMemo::default(),
        };
        ix.validate_loaded(num_groups)?;
        Ok(ix)
    }

    /// Structural validation of a loaded index: per-group invariants
    /// (normalized member runs, decisive ⊆ subspace ⊆ full space), CSR
    /// shape checks, and cursor-walk cross-checks that tie every derived
    /// structure (decisive lists, object CSR, frequency counts and ranking)
    /// back to the group tables in one linear pass.
    fn validate_loaded(&self, num_groups: usize) -> Result<(), Error> {
        let dims = self.dims;
        let n = self.num_objects;
        if dims == 0 || dims > MAX_DIMS {
            return Err(corrupt(format!("dims {dims} out of range 1..={MAX_DIMS}")));
        }
        let full = DimMask::full(dims);
        if self.subspaces.len() != num_groups
            || self.decisive_spans.len() != num_groups
            || self.min_decisive_len.len() != num_groups
            || self.covered.len() != num_groups
        {
            return Err(corrupt(
                "group-indexed sections disagree on the group count",
            ));
        }
        check_offsets(
            &self.member_offsets,
            num_groups,
            self.members.len(),
            "member_offsets",
        )?;
        check_offsets(
            &self.decisive_list_offsets,
            self.decisive_keys.len(),
            self.decisive_lists.len(),
            "decisive_list_offsets",
        )?;
        check_offsets(
            &self.active_offsets,
            self.active_objs.len(),
            self.obj_groups.len(),
            "active_offsets",
        )?;
        if self.active_objs.windows(2).any(|w| w[0] >= w[1]) {
            return Err(corrupt("section active_objs: not strictly ascending"));
        }
        if self.active_objs.last().is_some_and(|&o| o as usize >= n) {
            return Err(corrupt(format!(
                "section active_objs: object beyond the {n}-object dataset"
            )));
        }
        if self.active_offsets.windows(2).any(|w| w[0] == w[1]) {
            return Err(corrupt(
                "section active_offsets: active object belongs to no group",
            ));
        }
        if self.active_freq.len() != self.active_objs.len() {
            return Err(corrupt("section active_freq: wrong length"));
        }
        if self.decisive_keys.windows(2).any(|w| w[0] >= w[1]) {
            return Err(corrupt("section decisive_keys: not strictly ascending"));
        }
        if self.decisive_list_offsets.windows(2).any(|w| w[0] == w[1]) {
            return Err(corrupt("section decisive_lists: empty posting list"));
        }
        // Cursor walks: re-derive the exact sequence every posting-style
        // structure must contain by walking the groups once, comparing
        // in-place — O(total index size), no allocation beyond the cursors.
        // Hoist each section to a plain slice once: the walks below index
        // them hundreds of thousands of times, and every `Section` deref
        // re-matches the Owned/Loaded variant.
        let subspaces = &*self.subspaces;
        let member_offsets = &*self.member_offsets;
        let members = &*self.members;
        let decisive_spans = &*self.decisive_spans;
        let decisive_pool = &*self.decisive_pool;
        let min_decisive_len = &*self.min_decisive_len;
        let covered = &*self.covered;
        let decisive_keys = &*self.decisive_keys;
        let decisive_list_offsets = &*self.decisive_list_offsets;
        let decisive_lists = &*self.decisive_lists;
        let active_objs = &*self.active_objs;
        let active_offsets = &*self.active_offsets;
        let active_freq = &*self.active_freq;
        let obj_groups = &*self.obj_groups;
        let mut dcur: Vec<usize> = (0..decisive_keys.len())
            .map(|i| decisive_list_offsets[i] as usize)
            .collect();
        for gi in 0..num_groups {
            let b = subspaces[gi];
            if b.is_empty() || !b.is_subset_of(full) {
                return Err(corrupt(format!(
                    "group {gi}: maximal subspace outside the {dims}-dimensional full space"
                )));
            }
            // The member run's ordering and bounds need no scan here: the
            // object-major merge walk below consumes every run strictly in
            // visiting order of the ascending active objects (all < n), so
            // a run that is not ascending, repeats, or strays outside the
            // active table cannot survive it. Only emptiness is invisible
            // to that walk.
            if member_offsets[gi] == member_offsets[gi + 1] {
                return Err(corrupt(format!("group {gi}: empty member run")));
            }
            let Span { start, len } = decisive_spans[gi];
            let (s, e) = (start as usize, start as usize + len as usize);
            if len == 0 || e > decisive_pool.len() {
                return Err(corrupt(format!(
                    "group {gi}: decisive span outside the interned pool"
                )));
            }
            let decisive = &decisive_pool[s..e];
            if decisive.windows(2).any(|w| w[0] >= w[1]) {
                return Err(corrupt(format!(
                    "group {gi}: decisive antichain not strictly ascending"
                )));
            }
            let mut min_len = usize::MAX;
            for &c in decisive {
                if c.is_empty() || !c.is_subset_of(b) {
                    return Err(corrupt(format!(
                        "group {gi}: decisive subspace not within the maximal subspace"
                    )));
                }
                min_len = min_len.min(c.len());
                let ki = self
                    .decisive_keys
                    .binary_search(&c)
                    .map_err(|_| corrupt(format!("group {gi}: decisive {c} missing from keys")))?;
                if dcur[ki] >= decisive_list_offsets[ki + 1] as usize
                    || decisive_lists[dcur[ki]] != gi as u32
                {
                    return Err(corrupt(format!(
                        "section decisive_lists: list for {c} does not enumerate its groups"
                    )));
                }
                dcur[ki] += 1;
            }
            if min_decisive_len[gi] as usize != min_len {
                return Err(corrupt(format!(
                    "group {gi}: min_decisive_len disagrees with the antichain"
                )));
            }
            let cov = covered[gi];
            if cov == 0 || cov > 1u64 << b.len() {
                return Err(corrupt(format!(
                    "group {gi}: covered-subspace count {cov} outside 1..=2^|B|"
                )));
            }
        }
        for ki in 0..decisive_keys.len() {
            if dcur[ki] != decisive_list_offsets[ki + 1] as usize {
                return Err(corrupt("section decisive_lists: extra entries"));
            }
        }
        // Cross-check the sparse object CSR against the member runs in one
        // merge walk, no per-reference searches: obj_groups lists ascending
        // group ids per object, and visiting the active objects in
        // ascending id order visits each group's members in exactly
        // member-run order — one cursor per group ties every obj_groups
        // entry to its member occurrence, and the run-exhaustion check at
        // the end ties every member back to an obj_groups entry.
        let mut mcur: Vec<usize> = (0..num_groups)
            .map(|g| member_offsets[g] as usize)
            .collect();
        for i in 0..active_objs.len() {
            let o = active_objs[i];
            let s = active_offsets[i] as usize;
            let e = active_offsets[i + 1] as usize;
            let list = &obj_groups[s..e];
            if list.windows(2).any(|w| w[0] >= w[1]) {
                return Err(corrupt(format!(
                    "section obj_groups: groups of object {o} not strictly ascending"
                )));
            }
            let mut freq = 0u64;
            for &g in list {
                let gi = g as usize;
                if gi >= num_groups {
                    return Err(corrupt(format!(
                        "section obj_groups: object {o} references group {g} out of range"
                    )));
                }
                if mcur[gi] >= member_offsets[gi + 1] as usize || members[mcur[gi]] != o {
                    return Err(corrupt(format!(
                        "section obj_groups: object {o} is not the next member of group {g}"
                    )));
                }
                mcur[gi] += 1;
                freq = freq
                    .checked_add(covered[gi])
                    .ok_or_else(|| corrupt("section active_freq: count overflow"))?;
            }
            if freq != active_freq[i] {
                return Err(corrupt(format!(
                    "section active_freq: object {o} disagrees with the covered counts"
                )));
            }
        }
        for gi in 0..num_groups {
            if mcur[gi] != member_offsets[gi + 1] as usize {
                return Err(corrupt(format!(
                    "section obj_groups: group {gi} has members missing from the object table"
                )));
            }
        }

        // The frequency ranking: strictly ordered by (count desc, id asc),
        // consistent with active_freq, and covering exactly the objects
        // with a positive count. Pairwise consistency is established by a
        // multiset fingerprint rather than a per-entry lookup: both sides
        // have the same length, the ranking's strict order makes its
        // entries distinct, so equal sums of a mixed (object, count) hash
        // mean the ranking is a permutation of the positive active rows.
        // Random access over the rank would cost a binary search per entry;
        // the fingerprint is two sequential passes.
        if self.freq_rank_obj.len() != self.freq_rank_count.len() {
            return Err(corrupt("section freq_rank: column lengths disagree"));
        }
        let mut positives = 0usize;
        let mut want_print = 0u64;
        for (&o, &f) in active_objs.iter().zip(active_freq.iter()) {
            if f > 0 {
                positives += 1;
                want_print = want_print.wrapping_add(pair_fingerprint(o, f));
            }
        }
        if self.freq_rank_obj.len() != positives {
            return Err(corrupt(format!(
                "section freq_rank: {} entries but {positives} objects have positive counts",
                self.freq_rank_obj.len()
            )));
        }
        let mut got_print = 0u64;
        for i in 0..self.freq_rank_obj.len() {
            let o = self.freq_rank_obj[i];
            let f = self.freq_rank_count[i];
            if (o as usize) >= n || f == 0 {
                return Err(corrupt(format!(
                    "section freq_rank: entry {i} disagrees with active_freq"
                )));
            }
            got_print = got_print.wrapping_add(pair_fingerprint(o, f));
            if i > 0 {
                let (po, pf) = (self.freq_rank_obj[i - 1], self.freq_rank_count[i - 1]);
                if !(pf > f || (pf == f && po < o)) {
                    return Err(corrupt(format!(
                        "section freq_rank: entry {i} breaks the (count desc, id asc) order"
                    )));
                }
            }
        }
        if got_print != want_print {
            return Err(corrupt(
                "section freq_rank: entries disagree with active_freq",
            ));
        }
        Ok(())
    }
}

/// Mix an (object, count) pair into a 64-bit value whose wrapping sum acts
/// as an order-independent multiset fingerprint (splitmix64 finalizer).
/// Used by load validation to cross-check the frequency ranking against the
/// active table in two sequential passes instead of a lookup per entry.
fn pair_fingerprint(o: ObjId, f: u64) -> u64 {
    let mut z = (o as u64)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(f);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Merge two sorted runs into `out`, deduplicating.
fn merge_two(a: &[ObjId], b: &[ObjId], out: &mut Vec<ObjId>) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let v = match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                i += 1;
                a[i - 1]
            }
            std::cmp::Ordering::Greater => {
                j += 1;
                b[j - 1]
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
                a[i - 1]
            }
        };
        if out.last() != Some(&v) {
            out.push(v);
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

/// Flat route: concatenate every run, sort, dedup. The pattern-defeating
/// sort on concatenated sorted runs beats any cursor-based k-way merge on
/// the run shapes the cube produces.
fn merge_flat<'r>(runs: impl IntoIterator<Item = &'r [ObjId]>, out: &mut Vec<ObjId>) {
    for run in runs {
        out.extend_from_slice(run);
    }
    out.sort_unstable();
    out.dedup();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute_cube;
    use skycube_datagen::{generate, Distribution};
    use skycube_types::running_example;

    #[test]
    fn index_matches_scan_path_on_running_example() {
        let ds = running_example();
        let cube = compute_cube(&ds);
        let index = cube.index();
        assert_eq!(index.dims(), cube.dims());
        assert_eq!(index.num_groups(), cube.num_groups());
        for space in ds.full_space().subsets() {
            assert_eq!(
                index.subspace_skyline(space),
                cube.subspace_skyline(space),
                "subspace {space}"
            );
            for o in 0..ds.len() as ObjId {
                assert_eq!(
                    index.is_skyline_in(o, space),
                    cube.is_skyline_in(o, space),
                    "object {o} subspace {space}"
                );
            }
        }
        for o in 0..ds.len() as ObjId {
            assert_eq!(index.membership_count(o), cube.membership_count(o));
        }
        assert_eq!(index.top_k_frequent(10), cube.top_k_frequent(10));
    }

    #[test]
    fn index_matches_scan_path_on_generated_data() {
        for dist in Distribution::ALL {
            let ds = generate(dist, 600, 4, 77);
            let cube = compute_cube(&ds);
            let index = cube.index();
            for space in ds.full_space().subsets() {
                assert_eq!(
                    index.subspace_skyline(space),
                    cube.subspace_skyline(space),
                    "{} subspace {space}",
                    dist.name()
                );
            }
            for o in 0..ds.len() as ObjId {
                assert_eq!(index.membership_count(o), cube.membership_count(o));
            }
            assert_eq!(index.top_k_frequent(25), cube.top_k_frequent(25));
        }
    }

    #[test]
    fn prefilter_examines_fewer_groups_than_a_scan() {
        let ds = generate(Distribution::Independent, 2_000, 5, 13);
        let cube = compute_cube(&ds);
        let index = cube.index();
        let mut scratch = IndexScratch::default();
        let mut out = Vec::new();
        let mut total_candidates = 0usize;
        let mut queries = 0usize;
        for space in ds.full_space().subsets() {
            let probe = index
                .try_subspace_skyline_into(space, &mut scratch, &mut out)
                .unwrap();
            assert!(probe.matched <= probe.candidates);
            total_candidates += probe.candidates;
            queries += 1;
        }
        // The whole point of the index: strictly fewer candidate
        // examinations than `queries × num_groups` (the scan path's cost).
        assert!(
            total_candidates < queries * index.num_groups(),
            "prefilter did not narrow: {total_candidates} vs {}",
            queries * index.num_groups()
        );
    }

    #[test]
    fn interning_shares_common_antichains() {
        let ds = generate(Distribution::Independent, 2_000, 4, 29);
        let cube = compute_cube(&ds);
        let index = cube.index();
        assert!(index.num_interned_antichains() <= index.num_groups());
    }

    #[test]
    fn scratch_reuse_is_observationally_pure() {
        let ds = generate(Distribution::AntiCorrelated, 400, 4, 31);
        let cube = compute_cube(&ds);
        let index = cube.index();
        let mut scratch = IndexScratch::default();
        let mut out = Vec::new();
        for _ in 0..3 {
            for space in ds.full_space().subsets() {
                index
                    .try_subspace_skyline_into(space, &mut scratch, &mut out)
                    .unwrap();
                assert_eq!(out, cube.subspace_skyline(space), "subspace {space}");
            }
        }
    }

    #[test]
    fn invalid_subspaces_are_diagnosed() {
        let cube = compute_cube(&running_example());
        let index = cube.index();
        assert_eq!(
            index.try_subspace_skyline(DimMask::EMPTY).unwrap_err(),
            QueryError::EmptySubspace
        );
        assert_eq!(
            index.try_subspace_skyline(DimMask::single(9)).unwrap_err(),
            QueryError::SubspaceOutOfRange {
                space: DimMask::single(9),
                dims: 4
            }
        );
        assert!(index
            .try_subspace_skyline(DimMask::single(9))
            .unwrap_err()
            .to_string()
            .contains("not a subspace"));
        assert_eq!(
            index.try_is_skyline_in(99, DimMask::single(0)).unwrap_err(),
            QueryError::ObjectOutOfRange {
                object: 99,
                num_objects: 5
            }
        );
        assert!(index.try_membership_count(99).is_err());
        assert_eq!(index.try_membership_count(0), Ok(index.membership_count(0)));
    }

    #[test]
    fn expired_budget_is_reported_at_a_checkpoint() {
        let cube = compute_cube(&running_example());
        let index = cube.index();
        let mut scratch = IndexScratch::default();
        let mut out = Vec::new();
        let space = DimMask::parse("BD").unwrap();
        // An already-passed deadline fails at checkpoint 1.
        scratch.set_budget(QueryBudget::with_deadline(
            Instant::now() - std::time::Duration::from_millis(1),
        ));
        assert_eq!(
            index.try_subspace_skyline_into(space, &mut scratch, &mut out),
            Err(QueryError::DeadlineExceeded)
        );
        // A generous deadline answers normally; resetting the budget keeps
        // the scratch reusable.
        scratch.set_budget(QueryBudget::with_deadline(
            Instant::now() + std::time::Duration::from_secs(60),
        ));
        assert!(index
            .try_subspace_skyline_into(space, &mut scratch, &mut out)
            .is_ok());
        assert_eq!(out, cube.subspace_skyline(space));
        scratch.set_budget(QueryBudget::unlimited());
        assert!(scratch.budget().deadline().is_none());
    }

    #[test]
    fn membership_intervals_borrow_interned_pool() {
        let ds = running_example();
        let cube = compute_cube(&ds);
        let index = cube.index();
        for o in 0..ds.len() as ObjId {
            let from_cube = cube.membership_intervals(o);
            let from_index = index.membership_intervals(o);
            let mut a: Vec<(Vec<DimMask>, DimMask)> =
                from_cube.iter().map(|&(d, m)| (d.to_vec(), m)).collect();
            let mut b: Vec<(Vec<DimMask>, DimMask)> =
                from_index.iter().map(|&(d, m)| (d.to_vec(), m)).collect();
            a.sort();
            b.sort();
            assert_eq!(a, b, "object {o}");
        }
    }

    #[test]
    fn merge_two_dedups_and_orders() {
        let mut out = Vec::new();
        merge_two(&[1, 3, 5], &[2, 3, 6], &mut out);
        assert_eq!(out, vec![1, 2, 3, 5, 6]);
        out.clear();
        merge_two(&[], &[4, 7], &mut out);
        assert_eq!(out, vec![4, 7]);
    }

    /// Reference merge: the ordered set union of the runs.
    fn reference(runs: &[Vec<ObjId>]) -> Vec<ObjId> {
        let all: std::collections::BTreeSet<ObjId> = runs.iter().flatten().copied().collect();
        all.into_iter().collect()
    }

    /// Both merges against the reference: `merge_flat` over all runs at
    /// once, and `merge_two` folded over the runs one at a time.
    fn run_all_merges(runs: &[Vec<ObjId>], label: &str) {
        let expected = reference(runs);
        let mut out = Vec::new();
        merge_flat(runs.iter().map(Vec::as_slice), &mut out);
        assert_eq!(out, expected, "flat: {label}");

        let mut acc: Vec<ObjId> = Vec::new();
        for run in runs {
            out.clear();
            merge_two(&acc, run, &mut out);
            std::mem::swap(&mut acc, &mut out);
        }
        assert_eq!(acc, expected, "merge_two: {label}");
    }

    #[test]
    fn general_merges_agree_on_adversarial_run_shapes() {
        // Empty runs interleaved with non-empty ones.
        run_all_merges(
            &[vec![], vec![3, 9], vec![], vec![1, 9, 12], vec![]],
            "empty runs",
        );
        // All runs empty.
        run_all_merges(&[vec![], vec![], vec![]], "all empty");
        // One giant run plus many singletons.
        let giant: Vec<ObjId> = (0..500).map(|i| i * 3).collect();
        let mut runs = vec![giant];
        for i in 0..20 {
            runs.push(vec![i * 71 + 2]);
        }
        run_all_merges(&runs, "giant + singletons");
        // Fully duplicated runs.
        let dup: Vec<ObjId> = vec![5, 6, 7, 100, 200];
        run_all_merges(&[dup.clone(), dup.clone(), dup.clone(), dup], "duplicates");
        // Disjoint equal-length runs.
        run_all_merges(
            &[
                (0..40).map(|i| i * 4).collect(),
                (0..40).map(|i| i * 4 + 1).collect(),
                (0..40).map(|i| i * 4 + 2).collect(),
                (0..40).map(|i| i * 4 + 3).collect(),
            ],
            "interleaved",
        );
        // Single run.
        run_all_merges(&[vec![2, 4, 8]], "single run");
    }

    #[test]
    fn probe_reports_route_and_merge_workload() {
        let ds = generate(Distribution::Independent, 800, 5, 59);
        let cube = compute_cube(&ds);
        let index = cube.index();
        let mut scratch = IndexScratch::default();
        let mut out = Vec::new();
        for space in ds.full_space().subsets() {
            let probe = index
                .try_subspace_skyline_into(space, &mut scratch, &mut out)
                .unwrap();
            assert_eq!(probe.runs_merged, probe.matched);
            assert!(probe.elements_merged >= out.len());
            let want = if probe.runs_merged <= 2 {
                MergeRoute::Short
            } else {
                MergeRoute::Flat
            };
            assert_eq!(probe.route, want, "subspace {space}");
        }
    }

    #[test]
    fn memo_exact_and_ancestor_hits_preserve_answers() {
        let ds = generate(Distribution::Independent, 1_000, 5, 67);
        let cube = compute_cube(&ds);
        let index = CubeIndex::build(&cube);
        let mut scratch = IndexScratch::default();
        let mut out = Vec::new();
        let spaces: Vec<DimMask> = ds.full_space().subsets().collect();
        // Two passes: the first populates the memo (misses + ancestor
        // seeds), the second must be all exact hits — with answers pinned to
        // the scan path both times.
        for pass in 0..2 {
            for &space in &spaces {
                let probe = index
                    .try_subspace_skyline_into(space, &mut scratch, &mut out)
                    .unwrap();
                assert_eq!(out, cube.subspace_skyline(space), "pass {pass} {space}");
                if pass == 1 {
                    assert_eq!(probe.memo, MemoOutcome::Exact, "pass 1 {space}");
                }
            }
        }
        let stats = index.memo_stats();
        assert!(stats.stores > 0, "memo never stored: {stats:?}");
        assert_eq!(stats.exact_hits, spaces.len() as u64, "{stats:?}");
        assert!(stats.entries > 0 && stats.ids > 0);
    }

    #[test]
    fn memo_ancestor_seeding_fires_and_is_correct() {
        let ds = generate(Distribution::Correlated, 1_200, 6, 83);
        let cube = compute_cube(&ds);
        let index = CubeIndex::build(&cube);
        let mut scratch = IndexScratch::default();
        let mut out = Vec::new();
        // Query big subspaces first so their D(·) lists are memoized, then
        // children: subsets() yields ascending masks, so reverse for
        // parents-first order.
        let mut spaces: Vec<DimMask> = ds.full_space().subsets().collect();
        spaces.reverse();
        let mut ancestor_hits = 0;
        for &space in &spaces {
            let probe = index
                .try_subspace_skyline_into(space, &mut scratch, &mut out)
                .unwrap();
            assert_eq!(out, cube.subspace_skyline(space), "subspace {space}");
            if probe.memo == MemoOutcome::Ancestor {
                ancestor_hits += 1;
            }
        }
        assert_eq!(index.memo_stats().ancestor_hits, ancestor_hits);
    }

    #[test]
    fn memo_invalidation_empties_the_memo() {
        let ds = generate(Distribution::Independent, 400, 4, 91);
        let cube = compute_cube(&ds);
        let index = CubeIndex::build(&cube);
        let mut scratch = IndexScratch::default();
        let mut out = Vec::new();
        for space in ds.full_space().subsets() {
            index
                .try_subspace_skyline_into(space, &mut scratch, &mut out)
                .unwrap();
        }
        assert!(index.memo_stats().entries > 0);
        index.invalidate_memo();
        let stats = index.memo_stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.ids, 0);
        assert_eq!(stats.invalidations, 1);
        // And the index still answers correctly from cold.
        for space in ds.full_space().subsets() {
            index
                .try_subspace_skyline_into(space, &mut scratch, &mut out)
                .unwrap();
            assert_eq!(out, cube.subspace_skyline(space), "post-invalidate {space}");
        }
    }

    #[test]
    fn cloned_index_starts_with_a_cold_memo() {
        let ds = generate(Distribution::Independent, 300, 4, 97);
        let cube = compute_cube(&ds);
        let index = CubeIndex::build(&cube);
        let mut scratch = IndexScratch::default();
        let mut out = Vec::new();
        for space in ds.full_space().subsets() {
            index
                .try_subspace_skyline_into(space, &mut scratch, &mut out)
                .unwrap();
        }
        let cloned = index.clone();
        let stats = cloned.memo_stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.exact_hits, 0);
        for space in ds.full_space().subsets() {
            cloned
                .try_subspace_skyline_into(space, &mut scratch, &mut out)
                .unwrap();
            assert_eq!(out, cube.subspace_skyline(space), "cloned {space}");
        }
    }

    #[test]
    fn memo_counters_do_not_depend_on_hash_order() {
        // Two indexes over one cube hash their memo maps with different
        // seeds. Fed the same subspace sequence past the entry budget
        // (1,023 subspaces against 512 entries), they must still pick the
        // same ancestors, stamp and evict the same entries, and count the
        // same outcomes.
        let ds = generate(Distribution::Independent, 300, 10, 7);
        let cube = compute_cube(&ds);
        let a = CubeIndex::build(&cube);
        let b = CubeIndex::build(&cube);
        let spaces: Vec<DimMask> = ds.full_space().subsets().collect();
        let mut scratch = IndexScratch::default();
        let mut out = Vec::new();
        // A fixed pseudo-random walk mixes parents and children.
        let mut x = 1u64;
        for _ in 0..3 * spaces.len() {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let space = spaces[(x >> 33) as usize % spaces.len()];
            for index in [&a, &b] {
                index
                    .try_subspace_skyline_into(space, &mut scratch, &mut out)
                    .unwrap();
            }
        }
        let stats = a.memo_stats();
        assert!(stats.evictions > 0, "budget never reached: {stats:?}");
        assert!(stats.ancestor_hits > 0, "no ancestor seeding: {stats:?}");
        assert_eq!(stats, b.memo_stats());
    }
}
