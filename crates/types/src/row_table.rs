//! A whole-row lookup: which row of a [`Dataset`], if any, holds exactly
//! these values. The duplicate bind finds each row's first occurrence with
//! it, and its [`crate::Binding`] keeps the table, where the maintenance
//! engine finds the bound row of an inserted or deleted object.

use crate::dataset::{Dataset, ObjId};
use crate::hash::FastHash;
use crate::value::Value;

const VACANT: ObjId = ObjId::MAX;

/// Ids of rows of one [`Dataset`], found by value: an open-addressing hash
/// table probed linearly from a hash of the row. The table stores ids only;
/// every probe compares the query with the row the id names, so rows whose
/// hashes collide each keep their own slot and a hit is always verified.
/// Every call takes the dataset the ids index, which must still hold each
/// stored id's row (a removed id's row may not be overwritten first).
///
/// Rows come from clients, so the hash is keyed ([`FastHash`], with keys
/// drawn per process): without the keys no chosen set of rows can pile onto
/// one probe run.
#[derive(Clone, Debug)]
pub(crate) struct RowTable {
    slots: Vec<ObjId>,
    len: usize,
    hasher: FastHash,
}

impl RowTable {
    /// An empty table that holds `n` ids before it first grows.
    pub(crate) fn with_capacity(n: usize) -> Self {
        RowTable {
            slots: vec![VACANT; (2 * n).next_power_of_two().max(8)],
            len: 0,
            hasher: FastHash::new(),
        }
    }

    /// The stored id whose row in `ds` equals `row`.
    pub(crate) fn get(&self, ds: &Dataset, row: &[Value]) -> Option<ObjId> {
        let mask = self.slots.len() - 1;
        let mut i = self.home(row);
        loop {
            match self.slots[i] {
                VACANT => return None,
                id if ds.row(id) == row => return Some(id),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// The stored id whose row in `ds` equals `row`, as `(id, false)`; or,
    /// when no stored id holds it, `row` appended to `ds` and its new id
    /// stored, as `(id, true)`. One hash and one probe run either way.
    pub(crate) fn get_or_push(&mut self, ds: &mut Dataset, row: &[Value]) -> (ObjId, bool) {
        self.reserve_one(ds);
        let mask = self.slots.len() - 1;
        let mut i = self.home(row);
        loop {
            match self.slots[i] {
                VACANT => break,
                id if ds.row(id) == row => return (id, false),
                _ => i = (i + 1) & mask,
            }
        }
        let id = ds
            .push_row(row)
            .expect("a row of the table's dataset width");
        self.slots[i] = id;
        self.len += 1;
        (id, true)
    }

    /// Forget stored `id`. Linear probing needs no tombstone: the entries
    /// after the hole that probed past it move back into it.
    pub(crate) fn remove(&mut self, ds: &Dataset, id: ObjId) {
        let mask = self.slots.len() - 1;
        let mut hole = self.home(ds.row(id));
        while self.slots[hole] != id {
            // A vacant slot ends the probe run: without this the loop
            // would circle the table forever.
            assert_ne!(self.slots[hole], VACANT, "id {id} is not stored");
            hole = (hole + 1) & mask;
        }
        let mut j = (hole + 1) & mask;
        while self.slots[j] != VACANT {
            let o = self.slots[j];
            // `o` may fill the hole iff the hole lies on its probe path,
            // cyclically between its home slot and `j`.
            let home = self.home(ds.row(o));
            if j.wrapping_sub(home) & mask >= j.wrapping_sub(hole) & mask {
                self.slots[hole] = o;
                hole = j;
            }
            j = (j + 1) & mask;
        }
        self.slots[hole] = VACANT;
        self.len -= 1;
    }

    /// Double the slots, re-placing every stored id, if one more id would
    /// fill more than half of them.
    fn reserve_one(&mut self, ds: &Dataset) {
        if 2 * (self.len + 1) <= self.slots.len() {
            return;
        }
        let grown = vec![VACANT; 2 * self.slots.len()];
        let old = std::mem::replace(&mut self.slots, grown);
        let mask = self.slots.len() - 1;
        for o in old.into_iter().filter(|&o| o != VACANT) {
            let mut i = self.home(ds.row(o));
            while self.slots[i] != VACANT {
                i = (i + 1) & mask;
            }
            self.slots[i] = o;
        }
    }

    /// The slot a row's probe starts at: the top bits of its hash.
    fn home(&self, row: &[Value]) -> usize {
        let h = self.hasher.row(row);
        (h >> (64 - self.slots.len().trailing_zeros())) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic stream of small numbers (xorshift), so the test
    /// needs no rng crate.
    struct Stream(u64);

    impl Stream {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }
    }

    /// Random binds, lookups and removals on a narrow domain, where many
    /// rows share home slots and removed rows come back as fresh ids,
    /// against a linear scan of the live ids.
    #[test]
    fn matches_a_scan_of_the_live_ids() {
        let mut rng = Stream(0x9e37_79b9_7f4a_7c15);
        let mut ds = Dataset::from_flat(3, Vec::new()).unwrap();
        let mut table = RowTable::with_capacity(4);
        let mut live: Vec<ObjId> = Vec::new();
        let scan = |ds: &Dataset, live: &[ObjId], row: &[Value]| {
            live.iter().copied().find(|&o| ds.row(o) == row)
        };
        for step in 0..3_000 {
            let row: Vec<Value> = (0..3).map(|_| rng.below(5) as Value).collect();
            let expect = scan(&ds, &live, &row);
            assert_eq!(table.get(&ds, &row), expect, "step {step}");
            match expect {
                Some(o) if rng.below(2) == 0 => {
                    table.remove(&ds, o);
                    live.retain(|&l| l != o);
                }
                Some(o) => assert_eq!(table.get_or_push(&mut ds, &row), (o, false)),
                None => {
                    let (o, new) = table.get_or_push(&mut ds, &row);
                    assert_eq!((o as usize, new), (ds.len() - 1, true), "step {step}");
                    live.push(o);
                }
            }
        }
        assert_eq!(table.len, live.len());
        for &o in &live {
            assert_eq!(table.get(&ds, ds.row(o)), Some(o));
        }
        assert_eq!(table.get(&ds, &[9, 9, 9]), None);
    }

    /// `get_or_push` appends each new row once and finds it afterwards,
    /// through several doublings of a table sized for one row.
    #[test]
    fn get_or_push_appends_each_distinct_row_once() {
        let mut ds = Dataset::from_flat(2, Vec::new()).unwrap();
        let mut table = RowTable::with_capacity(1);
        for round in 0..2 {
            for v in 0..100 {
                let (id, new) = table.get_or_push(&mut ds, &[v % 10, v / 10]);
                assert_eq!(id, v as ObjId);
                assert_eq!(new, round == 0, "row {v} in round {round}");
            }
        }
        assert_eq!((ds.len(), table.len), (100, 100));
    }
}
