//! A whole-row lookup for the maintenance engine: which bound row, if any,
//! holds exactly these values. A fast insert asks it whether the new row
//! duplicates a bound non-seed, and a fast delete asks it for the bound row
//! of the object it removes.

use skycube_types::{Dataset, ObjId, Value};
use std::hash::{BuildHasher, RandomState};

const VACANT: ObjId = ObjId::MAX;

/// Ids of rows of one [`Dataset`], found by value: an open-addressing hash
/// table probed linearly from a hash of the row. The table stores ids only;
/// every probe compares the query with the row the id names, so rows whose
/// hashes collide each keep their own slot and a hit is always verified.
/// Every call takes the dataset the ids index, which must still hold each
/// stored id's row (a removed id's row may not be overwritten first).
///
/// Rows come from clients, so the hash is the standard library's randomly
/// keyed one: no chosen set of rows can pile onto one probe run.
pub(crate) struct RowTable {
    slots: Vec<ObjId>,
    len: usize,
    hasher: RandomState,
}

impl RowTable {
    /// An empty table that holds `n` ids before it first grows.
    pub(crate) fn with_capacity(n: usize) -> Self {
        RowTable {
            slots: vec![VACANT; (2 * n).next_power_of_two().max(8)],
            len: 0,
            hasher: RandomState::new(),
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

    /// Store `id`, whose row in `ds` no stored id holds.
    pub(crate) fn insert(&mut self, ds: &Dataset, id: ObjId) {
        debug_assert!(self.get(ds, ds.row(id)).is_none(), "row stored twice");
        if 2 * (self.len + 1) > self.slots.len() {
            let stored: Vec<ObjId> = self
                .slots
                .iter()
                .copied()
                .filter(|&o| o != VACANT)
                .collect();
            self.slots = vec![VACANT; 2 * self.slots.len()];
            for o in stored {
                self.place(ds, o);
            }
        }
        self.place(ds, id);
        self.len += 1;
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

    fn place(&mut self, ds: &Dataset, id: ObjId) {
        let mask = self.slots.len() - 1;
        let mut i = self.home(ds.row(id));
        while self.slots[i] != VACANT {
            i = (i + 1) & mask;
        }
        self.slots[i] = id;
    }

    /// The slot a row's probe starts at: the top bits of its hash.
    fn home(&self, row: &[Value]) -> usize {
        let h = self.hasher.hash_one(row);
        (h >> (64 - self.slots.len().trailing_zeros())) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Random inserts, lookups and removals on a narrow domain, where many
    /// rows share home slots, against a linear scan of the live ids.
    #[test]
    fn matches_a_scan_of_the_live_ids() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut rows: Vec<Vec<Value>> = Vec::new();
        while rows.len() < 300 {
            let row: Vec<Value> = (0..3).map(|_| rng.gen_range(0..8)).collect();
            if !rows.contains(&row) {
                rows.push(row);
            }
        }
        let ds = Dataset::from_rows(3, rows).unwrap();
        let mut live: Vec<ObjId> = (0..40).collect();
        let mut table = RowTable::with_capacity(live.len());
        for &o in &live {
            table.insert(&ds, o);
        }
        for step in 0..2_000 {
            let o = rng.gen_range(0..ds.len() as ObjId);
            match live.iter().position(|&l| l == o) {
                Some(at) if rng.gen_bool(0.5) => {
                    table.remove(&ds, o);
                    live.swap_remove(at);
                }
                Some(_) => {}
                None => {
                    table.insert(&ds, o);
                    live.push(o);
                }
            }
            let probe = rng.gen_range(0..ds.len() as ObjId);
            let expect = live.contains(&probe).then_some(probe);
            assert_eq!(table.get(&ds, ds.row(probe)), expect, "step {step}");
        }
        assert_eq!(table.len, live.len());
        for &o in &live {
            assert_eq!(table.get(&ds, ds.row(o)), Some(o));
        }
        assert_eq!(table.get(&ds, &[9, 9, 9]), None);
    }
}
