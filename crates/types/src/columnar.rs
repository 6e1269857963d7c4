//! Columnar execution substrate: per-dimension contiguous columns plus
//! batched dominance/coincidence kernels.
//!
//! The scalar primitives in [`Dataset`] compare one *pair* of objects at a
//! time, walking a row-major table. The kernels here instead sweep one
//! *column* across many candidates at a time: a [`ColumnView`] stores each
//! dimension as a contiguous `Vec<Value>`, so computing a whole comparison
//! row (`co(u, ·)` or full [`DomRelation`]s) is a sequence of cache-linear,
//! branch-light `i64` compare loops. [`ColumnarWindow`] is the incremental
//! counterpart for BNL/SFS-style elimination windows, where the candidate
//! set itself grows and shrinks as the scan proceeds.
//!
//! Engines select between the scalar reference path and these kernels with
//! the [`DominanceKernel`] knob; both paths are required to produce
//! identical output (property-tested in `tests/properties.rs`).

use crate::dataset::{Dataset, DomRelation, ObjId};
use crate::dims::DimMask;
use crate::value::Value;
use std::ops::Range;

/// Flag bit set when the probe is strictly better than the candidate on at
/// least one swept dimension.
pub const FLAG_PROBE_BETTER: u8 = 1;

/// Flag bit set when the candidate is strictly better than the probe on at
/// least one swept dimension.
pub const FLAG_CANDIDATE_BETTER: u8 = 2;

/// Which comparison kernel an engine uses for its hot dominance loops.
///
/// `Scalar` is the reference implementation (per-pair calls into
/// [`Dataset::compare`] and friends); `Columnar` routes the same loops
/// through batched column sweeps. Both produce identical results; the knob
/// exists so the scalar path stays available as an oracle and a fallback.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum DominanceKernel {
    /// Per-pair scalar comparisons over the row-major table (reference).
    Scalar,
    /// Batched per-dimension column sweeps (default).
    #[default]
    Columnar,
}

impl DominanceKernel {
    /// Both kernels, scalar first.
    pub const ALL: [DominanceKernel; 2] = [DominanceKernel::Scalar, DominanceKernel::Columnar];

    /// Stable lowercase name (matches the CLI's `--kernel` values).
    pub fn name(self) -> &'static str {
        match self {
            DominanceKernel::Scalar => "scalar",
            DominanceKernel::Columnar => "columnar",
        }
    }

    /// Parse a kernel name as accepted by the CLI (`scalar` / `columnar`,
    /// case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "scalar" => Some(DominanceKernel::Scalar),
            "columnar" => Some(DominanceKernel::Columnar),
            _ => None,
        }
    }

    /// Whether this is the columnar kernel.
    #[inline]
    pub fn is_columnar(self) -> bool {
        matches!(self, DominanceKernel::Columnar)
    }
}

impl std::fmt::Display for DominanceKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Map a probe-vs-candidate flag byte to the probe's [`DomRelation`].
///
/// The byte is an OR of [`FLAG_PROBE_BETTER`] and [`FLAG_CANDIDATE_BETTER`]
/// accumulated over the swept dimensions, exactly mirroring the two booleans
/// in [`Dataset::compare`].
#[inline]
pub fn relation_from_flags(flags: u8) -> DomRelation {
    match flags {
        0 => DomRelation::Equal,
        FLAG_PROBE_BETTER => DomRelation::Dominates,
        FLAG_CANDIDATE_BETTER => DomRelation::DominatedBy,
        _ => DomRelation::Incomparable,
    }
}

/// A columnar (structure-of-arrays) view of a dataset, or of a subset of its
/// rows, built once and swept many times.
///
/// Position `p` of the view holds the object `ids()[p]`; every kernel below
/// reports its results *per view position*, which callers translate back to
/// object ids with [`ColumnView::id`]. Restricting a view to a candidate
/// list (e.g. the full-space skyline seeds) with [`ColumnView::for_ids`]
/// makes row sweeps over those candidates contiguous even when the ids are
/// scattered in the dataset.
///
/// The `_range` kernel variants sweep only a contiguous range of view
/// positions, which is how `crates/parallel` chunking hands each worker its
/// own cache-local slice of a shared view.
pub struct ColumnView {
    dims: usize,
    ids: Vec<ObjId>,
    cols: Vec<Vec<Value>>,
    ranks: Vec<Vec<u32>>,
    orders: Vec<Vec<ObjId>>,
}

impl ColumnView {
    /// Build a columnar view of the whole dataset (position `p` ⇔ object
    /// `p`).
    pub fn new(ds: &Dataset) -> Self {
        let ids: Vec<ObjId> = ds.ids().collect();
        ColumnView::for_ids(ds, &ids)
    }

    /// Build a columnar view restricted to `ids` (in the given order).
    pub fn for_ids(ds: &Dataset, ids: &[ObjId]) -> Self {
        let dims = ds.dims();
        let mut cols = vec![Vec::with_capacity(ids.len()); dims];
        for &o in ids {
            let row = ds.row(o);
            for (d, col) in cols.iter_mut().enumerate() {
                col.push(row[d]);
            }
        }
        ColumnView {
            dims,
            ids: ids.to_vec(),
            cols,
            ranks: Vec::new(),
            orders: Vec::new(),
        }
    }

    /// Build a full-dataset view plus per-dimension argsort orders and dense
    /// ranks, from a single argsort per dimension.
    ///
    /// `order(d)` lists all object ids ascending by `(value in d, id)` — a
    /// deterministic total order whose value component is topological for
    /// single-dimension dominance. `rank(d)[o]` is the *dense competition
    /// rank* of object `o` in dimension `d`: objects with equal values share
    /// a rank, and `rank(d)[u] < rank(d)[v] ⇔ value(u,d) < value(v,d)`, so
    /// rank-keyed sorts order exactly like value-keyed sorts while comparing
    /// `u32`s instead of gathering `i64`s from the table.
    pub fn with_rank_orders(ds: &Dataset) -> Self {
        let mut view = ColumnView::new(ds);
        let n = view.len();
        view.orders = Vec::with_capacity(view.dims);
        view.ranks = Vec::with_capacity(view.dims);
        for d in 0..view.dims {
            let col = &view.cols[d];
            let mut order: Vec<ObjId> = (0..n as ObjId).collect();
            order.sort_unstable_by_key(|&o| (col[o as usize], o));
            let mut rank = vec![0u32; n];
            let mut r = 0u32;
            for (i, &o) in order.iter().enumerate() {
                if i > 0 && col[o as usize] != col[order[i - 1] as usize] {
                    r += 1;
                }
                rank[o as usize] = r;
            }
            view.orders.push(order);
            view.ranks.push(rank);
        }
        view
    }

    /// Number of view positions (rows).
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the view has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Dimensionality of the underlying dataset.
    #[inline]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The object ids backing each view position.
    #[inline]
    pub fn ids(&self) -> &[ObjId] {
        &self.ids
    }

    /// The object id at view position `p`.
    #[inline]
    pub fn id(&self, p: usize) -> ObjId {
        self.ids[p]
    }

    /// The contiguous column of dimension `d`.
    #[inline]
    pub fn column(&self, d: usize) -> &[Value] {
        &self.cols[d]
    }

    /// Object ids ascending by `(value in d, id)`. Only present on views
    /// built with [`ColumnView::with_rank_orders`].
    ///
    /// # Panics
    /// Panics if the view was built without rank orders.
    #[inline]
    pub fn order(&self, d: usize) -> &[ObjId] {
        &self.orders[d]
    }

    /// Dense per-object ranks in dimension `d` (see
    /// [`ColumnView::with_rank_orders`]). Indexed by object id; only present
    /// on views built with `with_rank_orders`.
    ///
    /// # Panics
    /// Panics if the view was built without rank orders.
    #[inline]
    pub fn rank(&self, d: usize) -> &[u32] {
        &self.ranks[d]
    }

    /// Batched `co(probe, ·)` row restricted to `space`: for every view
    /// position `p`, `out[p] = { d ∈ space : probe[d] == value(p, d) }`.
    pub fn equality_row(&self, probe: &[Value], space: DimMask, out: &mut Vec<DimMask>) {
        out.clear();
        out.resize(self.len(), DimMask::EMPTY);
        self.equality_range(probe, space, 0..self.len(), out);
    }

    /// [`ColumnView::equality_row`] over view positions `range` only.
    pub fn equality_range(
        &self,
        probe: &[Value],
        space: DimMask,
        range: Range<usize>,
        out: &mut [DimMask],
    ) {
        for d in space.iter() {
            let p = probe[d];
            let bit = 1u32 << d;
            for (m, &v) in out[range.clone()]
                .iter_mut()
                .zip(&self.cols[d][range.clone()])
            {
                m.0 |= bit * u32::from(p == v);
            }
        }
    }

    /// Batched comparison flags: for every view position `p`, `out[p]` is
    /// the OR of [`FLAG_PROBE_BETTER`] / [`FLAG_CANDIDATE_BETTER`] over the
    /// dimensions of `space` (feed through [`relation_from_flags`]).
    pub fn compare_flags(&self, probe: &[Value], space: DimMask, out: &mut Vec<u8>) {
        out.clear();
        out.resize(self.len(), 0);
        self.compare_flags_range(probe, space, 0..self.len(), out);
    }

    /// [`ColumnView::compare_flags`] over view positions `range` only.
    pub fn compare_flags_range(
        &self,
        probe: &[Value],
        space: DimMask,
        range: Range<usize>,
        out: &mut [u8],
    ) {
        for d in space.iter() {
            let p = probe[d];
            for (f, &v) in out[range.clone()]
                .iter_mut()
                .zip(&self.cols[d][range.clone()])
            {
                *f |= u8::from(p < v) | (u8::from(v < p) << 1);
            }
        }
    }

    /// Batched [`Dataset::compare`]: the probe's relation to every view
    /// position, written into `out`.
    pub fn compare_many(&self, probe: &[Value], space: DimMask, out: &mut Vec<DomRelation>) {
        let mut flags = Vec::new();
        self.compare_flags(probe, space, &mut flags);
        out.clear();
        out.extend(flags.iter().map(|&f| relation_from_flags(f)));
    }
}

/// An incremental columnar elimination window for BNL/SFS-style scans.
///
/// Window members are stored column-wise so that the per-probe "does anyone
/// in the window dominate me?" test is a contiguous sweep instead of a
/// gather over scattered dataset rows. Supports the two mutations those
/// scans need: append ([`ColumnarWindow::push`]) and unordered eviction
/// ([`ColumnarWindow::swap_remove`]).
pub struct ColumnarWindow {
    ids: Vec<ObjId>,
    cols: Vec<Vec<Value>>,
    flags: Vec<u8>,
}

/// Block size of the early-exit sweep in [`ColumnarWindow::any_dominates`]:
/// large enough for the inner compare loops to vectorize, small enough that
/// a hit near the front of the window exits quickly.
const SWEEP_BLOCK: usize = 64;

impl ColumnarWindow {
    /// An empty window over `dims` dimensions.
    pub fn new(dims: usize) -> Self {
        ColumnarWindow {
            ids: Vec::new(),
            cols: vec![Vec::new(); dims],
            flags: Vec::new(),
        }
    }

    /// An empty window with room for `cap` members per column.
    pub fn with_capacity(dims: usize, cap: usize) -> Self {
        ColumnarWindow {
            ids: Vec::with_capacity(cap),
            cols: vec![Vec::with_capacity(cap); dims],
            flags: Vec::with_capacity(cap),
        }
    }

    /// Number of window members.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the window is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The member ids in window order.
    #[inline]
    pub fn ids(&self) -> &[ObjId] {
        &self.ids
    }

    /// Drop all members, keeping the allocations.
    pub fn clear(&mut self) {
        self.ids.clear();
        for col in &mut self.cols {
            col.clear();
        }
    }

    /// Append `id` with the given full row.
    pub fn push(&mut self, id: ObjId, row: &[Value]) {
        self.ids.push(id);
        for (col, &v) in self.cols.iter_mut().zip(row) {
            col.push(v);
        }
    }

    /// Remove the member at window position `i`, moving the last member into
    /// its place (same semantics as `Vec::swap_remove`).
    pub fn swap_remove(&mut self, i: usize) -> ObjId {
        for col in &mut self.cols {
            col.swap_remove(i);
        }
        self.ids.swap_remove(i)
    }

    /// Consume the window, returning the member ids in window order.
    pub fn into_ids(self) -> Vec<ObjId> {
        self.ids
    }

    /// Whether any window member strictly dominates the probe in `space`.
    ///
    /// Sweeps the window in blocks of [`SWEEP_BLOCK`] with an early exit
    /// after each block, so a dominator near the front of the window (the
    /// common case under a sum- or lex-sorted scan) is found without
    /// touching the rest.
    pub fn any_dominates(&mut self, probe: &[Value], space: DimMask) -> bool {
        let n = self.ids.len();
        let mut start = 0;
        while start < n {
            let end = (start + SWEEP_BLOCK).min(n);
            self.flags.clear();
            self.flags.resize(end - start, 0);
            for d in space.iter() {
                let p = probe[d];
                for (f, &v) in self.flags.iter_mut().zip(&self.cols[d][start..end]) {
                    *f |= u8::from(p < v) | (u8::from(v < p) << 1);
                }
            }
            if self.flags.contains(&FLAG_CANDIDATE_BETTER) {
                return true;
            }
            start = end;
        }
        false
    }

    /// One BNL step: admit the probe unless a member dominates it, evicting
    /// every member it dominates. Returns whether the probe entered the
    /// window. Eviction uses `swap_remove`, matching the scalar BNL loop.
    pub fn admit(&mut self, id: ObjId, probe: &[Value], space: DimMask) -> bool {
        let n = self.ids.len();
        let mut flags = std::mem::take(&mut self.flags);
        flags.clear();
        flags.resize(n, 0);
        for d in space.iter() {
            let p = probe[d];
            for (f, &v) in flags.iter_mut().zip(&self.cols[d][..n]) {
                *f |= u8::from(p < v) | (u8::from(v < p) << 1);
            }
        }
        if flags.contains(&FLAG_CANDIDATE_BETTER) {
            self.flags = flags;
            return false;
        }
        // Evict dominated members from the back so that swap_remove never
        // moves a not-yet-visited flagged member below the cursor.
        for i in (0..n).rev() {
            if flags[i] == FLAG_PROBE_BETTER {
                self.swap_remove(i);
            }
        }
        self.push(id, probe);
        self.flags = flags;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::running_example;

    #[test]
    fn kernel_knob_roundtrip() {
        assert_eq!(DominanceKernel::default(), DominanceKernel::Columnar);
        for k in DominanceKernel::ALL {
            assert_eq!(DominanceKernel::parse(k.name()), Some(k));
            assert_eq!(k.to_string(), k.name());
        }
        assert_eq!(
            DominanceKernel::parse("SCALAR"),
            Some(DominanceKernel::Scalar)
        );
        assert!(DominanceKernel::parse("rowwise").is_none());
        assert!(DominanceKernel::Columnar.is_columnar());
        assert!(!DominanceKernel::Scalar.is_columnar());
    }

    #[test]
    fn equality_rows_match_scalar_comask() {
        let ds = running_example();
        let view = ColumnView::new(&ds);
        let mut row = Vec::new();
        for u in ds.ids() {
            for space in [ds.full_space(), DimMask::parse("BD").unwrap()] {
                view.equality_row(ds.row(u), space, &mut row);
                for v in ds.ids() {
                    assert_eq!(row[v as usize], ds.co_mask(u, v) & space, "u={u} v={v}");
                }
            }
        }
    }

    #[test]
    fn compare_many_matches_scalar_compare() {
        let ds = running_example();
        let view = ColumnView::new(&ds);
        let mut rels = Vec::new();
        for u in ds.ids() {
            for space in [ds.full_space(), DimMask::parse("AC").unwrap()] {
                view.compare_many(ds.row(u), space, &mut rels);
                for v in ds.ids() {
                    assert_eq!(rels[v as usize], ds.compare(u, v, space), "u={u} v={v}");
                }
            }
        }
    }

    #[test]
    fn range_kernels_fill_only_their_chunk() {
        let ds = running_example();
        let view = ColumnView::new(&ds);
        let mut whole = Vec::new();
        view.equality_row(ds.row(1), ds.full_space(), &mut whole);
        let mut chunked = vec![DimMask::EMPTY; view.len()];
        view.equality_range(ds.row(1), ds.full_space(), 0..2, &mut chunked);
        view.equality_range(ds.row(1), ds.full_space(), 2..view.len(), &mut chunked);
        assert_eq!(chunked, whole);
        assert_ne!(chunked, vec![DimMask::EMPTY; view.len()]);
    }

    #[test]
    fn rank_orders_are_dense_and_value_consistent() {
        let ds = running_example();
        let view = ColumnView::with_rank_orders(&ds);
        for d in 0..ds.dims() {
            let order = view.order(d);
            assert_eq!(order.len(), ds.len());
            for w in order.windows(2) {
                let (a, b) = (w[0], w[1]);
                assert!((ds.value(a, d), a) < (ds.value(b, d), b));
            }
            let rank = view.rank(d);
            for u in ds.ids() {
                for v in ds.ids() {
                    let by_value = ds.value(u, d).cmp(&ds.value(v, d));
                    let by_rank = rank[u as usize].cmp(&rank[v as usize]);
                    assert_eq!(by_value, by_rank, "d={d} u={u} v={v}");
                }
            }
        }
    }

    #[test]
    fn window_admit_matches_bnl_semantics() {
        // Scan P1..P5 in id order: P1 enters, P2 evicts nothing but also
        // survives, P3/P4 survive, P5 dominates P3 in ABCD? (2,4,9,3) vs
        // (5,4,9,3): yes, on A — and also dominates P1.
        let ds = running_example();
        let mut win = ColumnarWindow::new(ds.dims());
        let full = ds.full_space();
        for o in ds.ids() {
            win.admit(o, ds.row(o), full);
        }
        let mut ids = win.into_ids();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 3, 4]); // the paper's seeds P2, P4, P5
    }

    #[test]
    fn window_any_dominates_blocked_sweep() {
        let ds = running_example();
        let full = ds.full_space();
        let mut win = ColumnarWindow::with_capacity(ds.dims(), 4);
        win.push(4, ds.row(4)); // P5
        assert!(win.any_dominates(ds.row(0), full)); // P5 dominates P1
        assert!(!win.any_dominates(ds.row(1), full)); // P2 incomparable to P5
        assert!(!win.any_dominates(ds.row(4), full)); // equal is not dominated
                                                      // Exercise the multi-block path.
        let mut big = ColumnarWindow::new(1);
        for i in 0..200 {
            big.push(i, &[1000 + i as Value]);
        }
        assert!(big.any_dominates(&[1199], DimMask::full(1)));
        assert!(!big.any_dominates(&[1000], DimMask::full(1)));
    }

    #[test]
    fn window_clear_and_swap_remove() {
        let ds = running_example();
        let mut win = ColumnarWindow::new(ds.dims());
        win.push(0, ds.row(0));
        win.push(1, ds.row(1));
        win.push(2, ds.row(2));
        assert_eq!(win.swap_remove(0), 0);
        assert_eq!(win.ids(), &[2, 1]);
        win.clear();
        assert!(win.is_empty());
        assert_eq!(win.len(), 0);
    }

    #[test]
    fn relation_flags_cover_all_cases() {
        assert_eq!(relation_from_flags(0), DomRelation::Equal);
        assert_eq!(
            relation_from_flags(FLAG_PROBE_BETTER),
            DomRelation::Dominates
        );
        assert_eq!(
            relation_from_flags(FLAG_CANDIDATE_BETTER),
            DomRelation::DominatedBy
        );
        assert_eq!(relation_from_flags(3), DomRelation::Incomparable);
    }
}
