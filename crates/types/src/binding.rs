//! The output of duplicate binding (the preamble of Section 5 of the
//! paper): which objects each distinct row of a dataset holds.

use crate::dataset::{Dataset, ObjId};
use crate::row_table::RowTable;
use crate::value::Value;
use std::ops::Index;

/// Which objects each distinct ("bound") row of a dataset holds, as
/// [`Dataset::bind_duplicates`] returns it: `binding[b]` lists the objects
/// of bound row `b`, ascending. The lists are slices of one flat buffer, so
/// a bind allocates nothing per row. The binding keeps the row table the
/// bind found its rows with, so the maintenance engine can bind and unbind
/// single objects in place: a bound row whose last object leaves is
/// *retired* (an empty list, and no longer found by value) rather than
/// renumbered.
#[derive(Clone, Debug)]
pub struct Binding {
    /// `ids[starts[b]..starts[b + 1]]`: the objects of bound row `b`.
    starts: Vec<u32>,
    ids: Vec<ObjId>,
    /// The live bound rows, by value.
    table: RowTable,
}

/// The capacity a bind reserves for `n` rows or objects: an eighth more,
/// so that the maintenance engine's first inserts after a rebuild append
/// in place instead of copying whole buffers. Capacity that is never
/// written is never made resident.
pub(crate) fn with_room(n: usize) -> usize {
    n + n / 8
}

impl Binding {
    /// The binding of objects `0..row_of.len()` where object `o` lies on
    /// bound row `row_of[o]`, given the `rows` bound rows and their table.
    pub(crate) fn from_assignment(row_of: Vec<ObjId>, rows: usize, table: RowTable) -> Self {
        let n = row_of.len();
        let mut starts = Vec::with_capacity(with_room(rows) + 1);
        if rows == n {
            // No duplicates: in first-occurrence order, row b holds object b.
            debug_assert!(row_of.iter().enumerate().all(|(o, &b)| b as usize == o));
            starts.extend(0..=n as u32);
            return Binding {
                starts,
                ids: row_of,
                table,
            };
        }
        // A counting sort by bound row. `starts[b]` first counts row b's
        // objects, then holds the end of its run; the descending fill
        // walks it back to the run's start, leaving each run ascending.
        starts.resize(rows + 1, 0);
        for &b in &row_of {
            starts[b as usize] += 1;
        }
        let mut end = 0;
        for s in &mut starts[..rows] {
            end += *s;
            *s = end;
        }
        starts[rows] = n as u32;
        let mut ids = Vec::with_capacity(with_room(n));
        ids.resize(n, 0);
        for (o, &b) in row_of.iter().enumerate().rev() {
            starts[b as usize] -= 1;
            ids[starts[b as usize] as usize] = o as ObjId;
        }
        Binding { starts, ids, table }
    }

    /// Number of bound rows, retired ones included.
    pub fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// Whether there is no bound row.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The object lists of the bound rows, in bound-row order.
    pub fn iter(&self) -> impl Iterator<Item = &[ObjId]> + '_ {
        self.starts
            .windows(2)
            .map(|w| &self.ids[w[0] as usize..w[1] as usize])
    }

    /// The live bound row of `bound` (the dataset this binding was made
    /// with) that holds exactly `row`.
    pub fn find(&self, bound: &Dataset, row: &[Value]) -> Option<ObjId> {
        self.table.get(bound, row)
    }

    /// The objects of the bound rows `rows`, ascending.
    pub fn expand(&self, rows: &[ObjId]) -> Vec<ObjId> {
        let mut objects: Vec<ObjId> = rows
            .iter()
            .flat_map(|&b| self[b as usize].iter().copied())
            .collect();
        objects.sort_unstable();
        objects
    }

    /// Bind object `id` with values `row`: to the live bound row that
    /// holds `row`, or to a new bound row appended to `bound`. `id` must be
    /// the next object id, the number of objects bound so far. Returns the
    /// bound row and whether it is new.
    pub fn bind_object(&mut self, bound: &mut Dataset, row: &[Value], id: ObjId) -> (ObjId, bool) {
        debug_assert_eq!(id as usize, self.ids.len(), "objects bind in id order");
        let (b, new) = self.table.get_or_push(bound, row);
        if new {
            self.ids.push(id);
            self.starts.push(self.ids.len() as u32);
        } else {
            let end = self.starts[b as usize + 1];
            self.ids.insert(end as usize, id);
            for s in &mut self.starts[b as usize + 1..] {
                *s += 1;
            }
        }
        (b, new)
    }

    /// Unbind object `id`, whose values are `row`, from its bound row, and
    /// shift every object id above it down by one (the positional-id model
    /// of [`Dataset::remove_row`]). A bound row left with no object is
    /// retired; every other bound row keeps its id. Returns the bound row
    /// and whether it was retired. `bound` must still hold the row.
    ///
    /// # Panics
    /// Panics if no live bound row holds `row`, or if it does not list `id`.
    pub fn unbind_object(&mut self, bound: &Dataset, row: &[Value], id: ObjId) -> (ObjId, bool) {
        let b = self
            .table
            .get(bound, row)
            .expect("the object's row is a live bound row");
        let (start, end) = (
            self.starts[b as usize] as usize,
            self.starts[b as usize + 1] as usize,
        );
        let at = start
            + self.ids[start..end]
                .binary_search(&id)
                .expect("the bound row lists its objects");
        self.ids.remove(at);
        for o in &mut self.ids {
            *o -= ObjId::from(*o > id);
        }
        for s in &mut self.starts[b as usize + 1..] {
            *s -= 1;
        }
        let retired = end - start == 1;
        if retired {
            self.table.remove(bound, b);
        }
        (b, retired)
    }
}

impl Index<usize> for Binding {
    type Output = [ObjId];

    /// The objects of bound row `b`, ascending.
    fn index(&self, b: usize) -> &[ObjId] {
        &self.ids[self.starts[b] as usize..self.starts[b + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Binding and unbinding single objects keeps the binding equal to a
    /// fresh bind of the live rows, up to the retired rows: every bound row
    /// found by value lists exactly the objects holding its values,
    /// ascending, and every other bound row lists none.
    #[test]
    fn object_edits_match_a_rebind_of_the_live_rows() {
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut below = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let mut rows: Vec<Vec<Value>> = (0..30)
            .map(|_| (0..2).map(|_| below(4) as Value).collect())
            .collect();
        let ds = Dataset::from_rows(2, rows.clone()).unwrap();
        let (mut bound, mut binding) = ds.bind_duplicates();
        for step in 0..400 {
            if rows.len() > 1 && below(2) == 0 {
                let id = below(rows.len() as u64) as ObjId;
                let row = rows.remove(id as usize);
                let (b, retired) = binding.unbind_object(&bound, &row, id);
                assert_eq!(retired, !rows.contains(&row), "step {step}");
                assert_eq!(bound.row(b), &row[..]);
            } else {
                let row: Vec<Value> = (0..2).map(|_| below(4) as Value).collect();
                let known = binding.find(&bound, &row);
                let (b, new) = binding.bind_object(&mut bound, &row, rows.len() as ObjId);
                assert_eq!(new, known.is_none(), "step {step}");
                assert_eq!(known.unwrap_or(b), b);
                rows.push(row);
            }
            // A retired row lists nothing; a later copy of its values
            // binds a fresh row.
            for (b, objects) in binding.iter().enumerate() {
                let row = bound.row(b as ObjId);
                if binding.find(&bound, row) != Some(b as ObjId) {
                    assert!(objects.is_empty(), "step {step}, retired row {b}");
                    continue;
                }
                let holders: Vec<ObjId> = (0..rows.len() as ObjId)
                    .filter(|&o| rows[o as usize] == row)
                    .collect();
                assert!(!holders.is_empty(), "step {step}, live row {b}");
                assert_eq!(objects, &holders[..], "step {step}, bound row {b}");
            }
            let listed: usize = binding.iter().map(<[ObjId]>::len).sum();
            assert_eq!(listed, rows.len(), "step {step}");
        }
    }
}
