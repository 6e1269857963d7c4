//! Columnar execution substrate: per-dimension rank orders and the
//! column-wise elimination window every skyline scan sweeps.
//!
//! The primitives in [`Dataset`] compare one *pair* of objects at a time,
//! walking a row-major table; they are the definition-level reference the
//! tests compare against. [`ColumnarWindow`] instead keeps the members of a
//! BNL/SFS-style elimination window column-wise, so the per-probe "does
//! anyone in the window dominate me?" test is a sequence of cache-linear,
//! branch-light `i64` compare loops. [`ColumnView`] holds one argsort and
//! one dense rank array per dimension, which Skyey's shared-sort
//! subspace enumeration starts and refines its orders from.

use crate::dataset::{Dataset, ObjId};
use crate::dims::DimMask;
use crate::value::Value;

/// Flag bit set when the probe is strictly better than the window member on
/// at least one swept dimension.
const FLAG_PROBE_BETTER: u8 = 1;

/// Flag bit set when the window member is strictly better than the probe on
/// at least one swept dimension.
const FLAG_CANDIDATE_BETTER: u8 = 2;

/// Per-dimension argsort orders and dense ranks of a whole dataset, built
/// once and read by every branch of a subspace enumeration.
pub struct ColumnView {
    ranks: Vec<Vec<u32>>,
    orders: Vec<Vec<ObjId>>,
}

impl ColumnView {
    /// Build per-dimension argsort orders and dense ranks, from a single
    /// argsort per dimension.
    ///
    /// `order(d)` lists all object ids ascending by `(value in d, id)` — a
    /// deterministic total order whose value component is topological for
    /// single-dimension dominance. `rank(d)[o]` is the *dense competition
    /// rank* of object `o` in dimension `d`: objects with equal values share
    /// a rank, and `rank(d)[u] < rank(d)[v] ⇔ value(u,d) < value(v,d)`, so
    /// rank-keyed sorts order exactly like value-keyed sorts while comparing
    /// `u32`s instead of gathering `i64`s from the table.
    pub fn with_rank_orders(ds: &Dataset) -> Self {
        let n = ds.len();
        let mut view = ColumnView {
            ranks: Vec::with_capacity(ds.dims()),
            orders: Vec::with_capacity(ds.dims()),
        };
        for d in 0..ds.dims() {
            let col: Vec<Value> = ds.ids().map(|o| ds.value(o, d)).collect();
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

    /// Object ids ascending by `(value in d, id)`.
    #[inline]
    pub fn order(&self, d: usize) -> &[ObjId] {
        &self.orders[d]
    }

    /// Dense per-object ranks in dimension `d` (see
    /// [`ColumnView::with_rank_orders`]), indexed by object id.
    #[inline]
    pub fn rank(&self, d: usize) -> &[u32] {
        &self.ranks[d]
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
    /// window. Window members are mutually non-dominating, so "a member
    /// dominates the probe" and "the probe evicts a member" exclude each
    /// other, and check-then-evict keeps exactly the BNL window set.
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
}
