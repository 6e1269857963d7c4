//! In-memory datasets: row-major tables of fixed-point values plus the
//! per-pair dominance/coincidence primitives every algorithm in the
//! workspace is built on.

use crate::binding::{with_room, Binding};
use crate::dims::{DimMask, MAX_DIMS};
use crate::error::{Error, Result};
use crate::row_table::RowTable;
use crate::value::{Order, Value};
use std::cmp::Ordering;
use std::fmt;

/// Identifier of an object (row) within a [`Dataset`].
///
/// `u32` keeps hot structures compact; 4 G objects is far beyond the paper's
/// scale (≤ 500 k tuples).
pub type ObjId = u32;

/// Outcome of comparing two objects inside one subspace.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DomRelation {
    /// Left strictly dominates right (≤ on all dims of the space, < on one).
    Dominates,
    /// Right strictly dominates left.
    DominatedBy,
    /// Identical projections in the space.
    Equal,
    /// Neither dominates: each is strictly better somewhere.
    Incomparable,
}

/// A row-major table of objects. The unit of data for every algorithm here.
///
/// Values are engine-native (smaller is better); orientation of max-oriented
/// raw attributes happens in [`Dataset::from_rows_oriented`].
///
/// ```
/// use skycube_types::{Dataset, DimMask, DomRelation};
/// let ds = Dataset::from_rows(2, vec![vec![1, 5], vec![2, 5]]).unwrap();
/// assert_eq!(ds.compare(0, 1, DimMask::full(2)), DomRelation::Dominates);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Dataset {
    dims: usize,
    values: Vec<Value>,
    names: Vec<String>,
}

impl Dataset {
    /// Create a dataset from rows. Every row must have exactly `dims` values.
    pub fn from_rows(dims: usize, rows: Vec<Vec<Value>>) -> Result<Self> {
        if dims == 0 || dims > MAX_DIMS {
            return Err(Error::BadDimensionality {
                dims,
                context: "Dataset::from_rows",
            });
        }
        let mut values = Vec::with_capacity(rows.len() * dims);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != dims {
                return Err(Error::RowLengthMismatch {
                    row: i,
                    expected: dims,
                    actual: row.len(),
                });
            }
            values.extend_from_slice(row);
        }
        Ok(Dataset {
            dims,
            values,
            names: default_names(dims),
        })
    }

    /// Create a dataset from raw rows with per-dimension optimization
    /// directions; `Desc` dimensions are negated so the engine can minimize
    /// uniformly.
    pub fn from_rows_oriented(
        dims: usize,
        rows: Vec<Vec<Value>>,
        orders: &[Order],
    ) -> Result<Self> {
        if orders.len() != dims {
            return Err(Error::BadDimensionality {
                dims: orders.len(),
                context: "orders length must equal dims",
            });
        }
        let mut ds = Dataset::from_rows(dims, rows)?;
        for (i, v) in ds.values.iter_mut().enumerate() {
            *v = orders[i % dims].orient(*v);
        }
        Ok(ds)
    }

    /// Create a dataset directly from a flat row-major buffer.
    pub fn from_flat(dims: usize, values: Vec<Value>) -> Result<Self> {
        if dims == 0 || dims > MAX_DIMS {
            return Err(Error::BadDimensionality {
                dims,
                context: "Dataset::from_flat",
            });
        }
        if !values.len().is_multiple_of(dims) {
            return Err(Error::RowLengthMismatch {
                row: values.len() / dims,
                expected: dims,
                actual: values.len() % dims,
            });
        }
        Ok(Dataset {
            dims,
            values,
            names: default_names(dims),
        })
    }

    /// Append one row; the new object's id is the previous [`Self::len`].
    /// The single-object mutation primitive of the maintenance engine's
    /// delta path — no reconstruction of the whole value buffer.
    pub fn push_row(&mut self, row: &[Value]) -> Result<ObjId> {
        if row.len() != self.dims {
            return Err(Error::RowLengthMismatch {
                row: self.len(),
                expected: self.dims,
                actual: row.len(),
            });
        }
        self.values.extend_from_slice(row);
        Ok((self.len() - 1) as ObjId)
    }

    /// Remove the row with id `id`; every id above it shifts down by one
    /// (the positional-id model). Returns the removed values.
    pub fn remove_row(&mut self, id: ObjId) -> Result<Vec<Value>> {
        if id as usize >= self.len() {
            return Err(Error::NoSuchObject {
                id,
                len: self.len(),
            });
        }
        let start = id as usize * self.dims;
        Ok(self.values.drain(start..start + self.dims).collect())
    }

    /// Attach human-readable dimension names (e.g. NBA stat columns).
    pub fn with_names<S: Into<String>>(mut self, names: Vec<S>) -> Result<Self> {
        if names.len() != self.dims {
            return Err(Error::BadDimensionality {
                dims: names.len(),
                context: "names length must equal dims",
            });
        }
        self.names = names.into_iter().map(Into::into).collect();
        Ok(self)
    }

    /// Number of objects.
    #[inline]
    pub fn len(&self) -> usize {
        // dims is validated non-zero at construction.
        self.values.len().checked_div(self.dims).unwrap_or(0)
    }

    /// Whether the dataset has no objects.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Dimensionality of the full space.
    #[inline]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Mask of the full space `D`.
    #[inline]
    pub fn full_space(&self) -> DimMask {
        DimMask::full(self.dims)
    }

    /// Dimension names.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// The values of object `o` across all dimensions.
    #[inline]
    pub fn row(&self, o: ObjId) -> &[Value] {
        let o = o as usize;
        &self.values[o * self.dims..(o + 1) * self.dims]
    }

    /// The value of object `o` in dimension `d`.
    #[inline]
    pub fn value(&self, o: ObjId, d: usize) -> Value {
        self.values[o as usize * self.dims + d]
    }

    /// Iterate over all object ids.
    pub fn ids(&self) -> impl Iterator<Item = ObjId> + '_ {
        0..self.len() as ObjId
    }

    /// The projection of object `o` in subspace `space`, in ascending
    /// dimension order (the paper's `u_B`).
    pub fn projection(&self, o: ObjId, space: DimMask) -> Vec<Value> {
        let row = self.row(o);
        space.iter().map(|d| row[d]).collect()
    }

    /// Restrict the dataset to its first `d` dimensions (the evaluation's
    /// "using the first d dimensions" protocol).
    pub fn prefix_dims(&self, d: usize) -> Result<Dataset> {
        if d == 0 || d > self.dims {
            return Err(Error::BadDimensionality {
                dims: d,
                context: "prefix_dims",
            });
        }
        if d == self.dims {
            return Ok(self.clone());
        }
        let mut values = Vec::with_capacity(self.len() * d);
        for o in 0..self.len() {
            values.extend_from_slice(&self.values[o * self.dims..o * self.dims + d]);
        }
        Ok(Dataset {
            dims: d,
            values,
            names: self.names[..d].to_vec(),
        })
    }

    /// Restrict the dataset to the first `n` objects.
    pub fn prefix_rows(&self, n: usize) -> Dataset {
        let n = n.min(self.len());
        Dataset {
            dims: self.dims,
            values: self.values[..n * self.dims].to_vec(),
            names: self.names.clone(),
        }
    }

    // ------------------------------------------------------------------
    // Pairwise primitives (Definition 4 / Property 1 of the paper)
    // ------------------------------------------------------------------

    /// The dominance mask `dom(u, v)`: dimensions where `u` is strictly
    /// smaller than `v` (full space).
    #[inline]
    pub fn dom_mask(&self, u: ObjId, v: ObjId) -> DimMask {
        let (ru, rv) = (self.row(u), self.row(v));
        let mut m = 0u32;
        for d in 0..self.dims {
            m |= u32::from(ru[d] < rv[d]) << d;
        }
        DimMask(m)
    }

    /// The coincidence mask `co(u, v)`: dimensions where `u` and `v` share
    /// the same value (full space). By Property 1 this equals
    /// `D − dom(u,v) − dom(v,u)`.
    #[inline]
    pub fn co_mask(&self, u: ObjId, v: ObjId) -> DimMask {
        let (ru, rv) = (self.row(u), self.row(v));
        let mut m = 0u32;
        for d in 0..self.dims {
            m |= u32::from(ru[d] == rv[d]) << d;
        }
        DimMask(m)
    }

    /// Compare `u` and `v` inside `space`.
    pub fn compare(&self, u: ObjId, v: ObjId, space: DimMask) -> DomRelation {
        let (ru, rv) = (self.row(u), self.row(v));
        if space == DimMask::full(self.dims) {
            // Full-space fast path: compare the contiguous row slices
            // directly instead of decoding the mask one bit at a time.
            let mut u_better = false;
            let mut v_better = false;
            for (a, b) in ru.iter().zip(rv) {
                u_better |= a < b;
                v_better |= b < a;
            }
            return match (u_better, v_better) {
                (true, false) => DomRelation::Dominates,
                (false, true) => DomRelation::DominatedBy,
                (false, false) => DomRelation::Equal,
                (true, true) => DomRelation::Incomparable,
            };
        }
        let mut u_better = false;
        let mut v_better = false;
        for d in space.iter() {
            match ru[d].cmp(&rv[d]) {
                Ordering::Less => u_better = true,
                Ordering::Greater => v_better = true,
                Ordering::Equal => {}
            }
            if u_better && v_better {
                return DomRelation::Incomparable;
            }
        }
        match (u_better, v_better) {
            (true, false) => DomRelation::Dominates,
            (false, true) => DomRelation::DominatedBy,
            (false, false) => DomRelation::Equal,
            (true, true) => DomRelation::Incomparable,
        }
    }

    /// Whether `u` strictly dominates `v` in `space`.
    #[inline]
    pub fn dominates(&self, u: ObjId, v: ObjId, space: DimMask) -> bool {
        self.compare(u, v, space) == DomRelation::Dominates
    }

    /// Whether `u` and `v` have identical projections in `space`.
    #[inline]
    pub fn coincides(&self, u: ObjId, v: ObjId, space: DimMask) -> bool {
        let (ru, rv) = (self.row(u), self.row(v));
        space.iter().all(|d| ru[d] == rv[d])
    }

    /// Lexicographic comparison of the projections of `u` and `v` over the
    /// dimensions of `space` in ascending dimension order. Dominance in
    /// `space` implies `Less` under this order, which is what makes
    /// sort-first-skyline filters correct.
    pub fn cmp_lex(&self, u: ObjId, v: ObjId, space: DimMask) -> Ordering {
        let (ru, rv) = (self.row(u), self.row(v));
        for d in space.iter() {
            match ru[d].cmp(&rv[d]) {
                Ordering::Equal => continue,
                other => return other,
            }
        }
        Ordering::Equal
    }

    /// Sum of an object's values over `space`, used as a monotone sort key
    /// (dominance in `space` implies a strictly smaller sum).
    #[inline]
    pub fn sum_over(&self, o: ObjId, space: DimMask) -> i128 {
        let row = self.row(o);
        space.iter().map(|d| row[d] as i128).sum()
    }

    // ------------------------------------------------------------------
    // Duplicate binding (Section 5 preamble of the paper)
    // ------------------------------------------------------------------

    /// Bind objects with identical full tuples together: returns a dataset of
    /// distinct tuples, in order of first occurrence, plus the [`Binding`]
    /// that lists, for each distinct tuple, the original ids it represents
    /// (ascending). The paper assumes no two objects agree on every
    /// dimension; callers establish that assumption with this function and
    /// re-expand groups afterwards ([`Binding::expand`]).
    ///
    /// One probe of a keyed row table per row finds its first occurrence; the
    /// outputs are reserved up front and the id lists share one buffer, so
    /// nothing is allocated per row. The reservations leave room for an
    /// eighth more rows, which the maintenance engine's inserts bind into.
    pub fn bind_duplicates(&self) -> (Dataset, Binding) {
        let n = self.len();
        let mut bound = Dataset {
            dims: self.dims,
            values: Vec::with_capacity(with_room(n) * self.dims),
            names: self.names.clone(),
        };
        let mut table = RowTable::with_capacity(n);
        let mut row_of: Vec<ObjId> = Vec::with_capacity(with_room(n));
        for o in 0..n as ObjId {
            row_of.push(table.get_or_push(&mut bound, self.row(o)).0);
        }
        let rows = bound.len();
        (bound, Binding::from_assignment(row_of, rows, table))
    }
}

impl fmt::Debug for Dataset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Dataset({} objects × {} dims)", self.len(), self.dims)?;
        for o in 0..self.len().min(10) as ObjId {
            writeln!(f, "  P{}: {:?}", o + 1, self.row(o))?;
        }
        if self.len() > 10 {
            writeln!(f, "  …")?;
        }
        Ok(())
    }
}

fn default_names(dims: usize) -> Vec<String> {
    (0..dims)
        .map(|d| {
            if d < 26 {
                ((b'A' + d as u8) as char).to_string()
            } else {
                format!("D{d}")
            }
        })
        .collect()
}

/// The running example of the paper (Figure 2): five objects `P1..P5` in the
/// 4-d space `ABCD`. Used throughout the workspace's golden tests.
pub fn running_example() -> Dataset {
    Dataset::from_rows(
        4,
        vec![
            vec![5, 6, 10, 7], // P1
            vec![2, 6, 8, 3],  // P2
            vec![5, 4, 9, 3],  // P3
            vec![6, 4, 8, 5],  // P4
            vec![2, 4, 9, 3],  // P5
        ],
    )
    .expect("static example is well formed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_checks_row_lengths() {
        let err = Dataset::from_rows(2, vec![vec![1, 2], vec![3]]).unwrap_err();
        assert!(matches!(err, Error::RowLengthMismatch { row: 1, .. }));
    }

    #[test]
    fn construction_checks_dims() {
        assert!(Dataset::from_rows(0, vec![]).is_err());
        assert!(Dataset::from_rows(33, vec![]).is_err());
        assert!(Dataset::from_flat(3, vec![1, 2]).is_err());
    }

    #[test]
    fn basic_accessors() {
        let ds = running_example();
        assert_eq!(ds.len(), 5);
        assert_eq!(ds.dims(), 4);
        assert_eq!(ds.row(1), &[2, 6, 8, 3]);
        assert_eq!(ds.value(3, 2), 8);
        assert_eq!(ds.full_space(), DimMask::full(4));
        assert_eq!(ds.names(), &["A", "B", "C", "D"]);
    }

    #[test]
    fn oriented_construction_negates_desc_dims() {
        let ds = Dataset::from_rows_oriented(
            2,
            vec![vec![10, 3], vec![5, 7]],
            &[Order::Desc, Order::Asc],
        )
        .unwrap();
        assert_eq!(ds.row(0), &[-10, 3]);
        assert_eq!(ds.row(1), &[-5, 7]);
        // Larger raw first dim (10) now wins on that Desc dim; 3 < 7 wins dim 1.
        assert_eq!(ds.dom_mask(0, 1), DimMask::from_dims([0, 1]));
        assert_eq!(ds.dom_mask(1, 0), DimMask::EMPTY);
    }

    #[test]
    fn dominance_masks_match_paper_figure4() {
        // Figure 4(a): dom(P2,P4) = AD, dom(P2,P5) = C, dom(P4,P2) = B, ...
        let ds = running_example();
        let (p2, p4, p5) = (1, 3, 4);
        assert_eq!(ds.dom_mask(p2, p4), DimMask::parse("AD").unwrap());
        assert_eq!(ds.dom_mask(p2, p5), DimMask::parse("C").unwrap());
        assert_eq!(ds.dom_mask(p4, p2), DimMask::parse("B").unwrap());
        assert_eq!(ds.dom_mask(p4, p5), DimMask::parse("C").unwrap());
        assert_eq!(ds.dom_mask(p5, p2), DimMask::parse("B").unwrap());
        assert_eq!(ds.dom_mask(p5, p4), DimMask::parse("AD").unwrap());
        assert_eq!(ds.dom_mask(p2, p2), DimMask::EMPTY);
    }

    #[test]
    fn coincidence_masks_match_paper_figure4() {
        // Figure 4(b): co(P2,P4) = C, co(P2,P5) = AD, co(P4,P5) = B.
        let ds = running_example();
        let (p2, p4, p5) = (1, 3, 4);
        assert_eq!(ds.co_mask(p2, p4), DimMask::parse("C").unwrap());
        assert_eq!(ds.co_mask(p2, p5), DimMask::parse("AD").unwrap());
        assert_eq!(ds.co_mask(p4, p5), DimMask::parse("B").unwrap());
        assert_eq!(ds.co_mask(p2, p2), ds.full_space());
    }

    #[test]
    fn property1_relates_matrices() {
        let ds = running_example();
        for u in ds.ids() {
            for v in ds.ids() {
                let derived = ds
                    .full_space()
                    .difference(ds.dom_mask(u, v))
                    .difference(ds.dom_mask(v, u));
                assert_eq!(ds.co_mask(u, v), derived);
            }
        }
    }

    #[test]
    fn compare_covers_all_relations() {
        let ds =
            Dataset::from_rows(2, vec![vec![1, 1], vec![2, 2], vec![1, 1], vec![0, 3]]).unwrap();
        let full = DimMask::full(2);
        assert_eq!(ds.compare(0, 1, full), DomRelation::Dominates);
        assert_eq!(ds.compare(1, 0, full), DomRelation::DominatedBy);
        assert_eq!(ds.compare(0, 2, full), DomRelation::Equal);
        assert_eq!(ds.compare(1, 3, full), DomRelation::Incomparable);
    }

    #[test]
    fn compare_respects_subspace() {
        let ds = running_example();
        // In subspace X=A: P2 (2) vs P1 (5).
        assert_eq!(ds.compare(1, 0, DimMask::single(0)), DomRelation::Dominates);
        // In B, P2 and P1 are equal (6 = 6).
        assert_eq!(ds.compare(1, 0, DimMask::single(1)), DomRelation::Equal);
    }

    #[test]
    fn lex_order_topological_for_dominance() {
        let ds = running_example();
        let space = DimMask::parse("BD").unwrap();
        for u in ds.ids() {
            for v in ds.ids() {
                if ds.dominates(u, v, space) {
                    assert_eq!(ds.cmp_lex(u, v, space), Ordering::Less);
                }
            }
        }
    }

    #[test]
    fn projection_ascending_dims() {
        let ds = running_example();
        assert_eq!(ds.projection(1, DimMask::parse("AC").unwrap()), vec![2, 8]);
        assert_eq!(
            ds.projection(4, DimMask::parse("ABCD").unwrap()),
            vec![2, 4, 9, 3]
        );
    }

    #[test]
    fn prefix_dims_slices_rows() {
        let ds = running_example();
        let two = ds.prefix_dims(2).unwrap();
        assert_eq!(two.dims(), 2);
        assert_eq!(two.row(3), &[6, 4]);
        assert!(ds.prefix_dims(0).is_err());
        assert!(ds.prefix_dims(5).is_err());
        assert_eq!(ds.prefix_dims(4).unwrap(), ds);
    }

    #[test]
    fn prefix_rows_slices_objects() {
        let ds = running_example();
        let three = ds.prefix_rows(3);
        assert_eq!(three.len(), 3);
        assert_eq!(three.row(2), ds.row(2));
        assert_eq!(ds.prefix_rows(99).len(), 5);
    }

    #[test]
    fn sum_over_is_monotone_under_dominance() {
        let ds = running_example();
        let space = DimMask::parse("ACD").unwrap();
        for u in ds.ids() {
            for v in ds.ids() {
                if ds.dominates(u, v, space) {
                    assert!(ds.sum_over(u, space) < ds.sum_over(v, space));
                }
            }
        }
    }

    #[test]
    fn bind_duplicates_collapses_identical_tuples() {
        let ds =
            Dataset::from_rows(2, vec![vec![1, 2], vec![3, 4], vec![1, 2], vec![1, 2]]).unwrap();
        let (bound, reps) = ds.bind_duplicates();
        assert_eq!(bound.len(), 2);
        assert_eq!(bound.row(0), &[1, 2]);
        assert_eq!(reps.iter().collect::<Vec<_>>(), [&[0, 2, 3][..], &[1]]);
        assert_eq!(reps.find(&bound, &[3, 4]), Some(1));
        assert_eq!(reps.expand(&[1, 0]), vec![0, 1, 2, 3]);
    }

    #[test]
    fn bind_duplicates_noop_when_distinct() {
        let ds = running_example();
        let (bound, reps) = ds.bind_duplicates();
        assert_eq!(bound, ds);
        assert_eq!(reps.len(), 5);
        assert!(reps.iter().all(|r| r.len() == 1));
        assert_eq!(&reps[3], &[3]);
    }
}
