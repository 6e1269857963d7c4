//! The workspace's one keyed hash for rows and values: the duplicate bind
//! and its row table, which the maintenance engine keeps, and the
//! seed-value lookup of the non-seed extension all hash with it.
//!
//! Each step is a *folded multiply*: the 128-bit product of the running
//! state (XORed with the next word) and a key, its two halves XORed
//! together. Both keys are drawn once per process from the standard
//! library's randomly keyed SipHash, so rows that clients send cannot be
//! chosen to collide without knowing them; every table that uses this hash
//! still verifies each hit against the stored row.

use crate::value::Value;
use std::hash::{BuildHasher, Hasher, RandomState};
use std::sync::OnceLock;

/// The 128-bit product of `x` and `y` with its halves XORed, so that the
/// low bits of the inputs reach the high bits of the output and back.
#[inline]
fn folded_multiply(x: u64, y: u64) -> u64 {
    let full = u128::from(x) * u128::from(y);
    (full as u64) ^ ((full >> 64) as u64)
}

/// A keyed hash of rows and values, and the [`BuildHasher`] of
/// [`FastHasher`]s for standard collections. All instances in one process
/// share the same keys.
///
/// ```
/// use skycube_types::FastHash;
/// let h = FastHash::new();
/// assert_eq!(h.row(&[1, 2, 3]), h.row(&[1, 2, 3]));
/// assert_ne!(h.row(&[1, 2, 3]), h.row(&[3, 2, 1]));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct FastHash {
    seed: u64,
    key: u64,
}

impl FastHash {
    /// The process's hash: its keys are drawn on first use.
    pub fn new() -> Self {
        static KEYS: OnceLock<FastHash> = OnceLock::new();
        *KEYS.get_or_init(|| {
            let sip = RandomState::new();
            FastHash {
                seed: sip.hash_one(0u64),
                key: sip.hash_one(1u64),
            }
        })
    }

    /// The hash of one row: one folded multiply per value.
    #[inline]
    pub fn row(&self, row: &[Value]) -> u64 {
        row.iter()
            .fold(self.seed, |h, &v| folded_multiply(h ^ v as u64, self.key))
    }
}

impl Default for FastHash {
    fn default() -> Self {
        FastHash::new()
    }
}

impl BuildHasher for FastHash {
    type Hasher = FastHasher;

    fn build_hasher(&self) -> FastHasher {
        FastHasher {
            state: self.seed,
            key: self.key,
        }
    }
}

/// The streaming form of [`FastHash`]: each word written folds into the
/// state as one value of [`FastHash::row`] does.
#[derive(Clone, Debug)]
pub struct FastHasher {
    state: u64,
    key: u64,
}

impl Hasher for FastHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.write_u64(u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.state = folded_multiply(self.state ^ x, self.key);
    }

    #[inline]
    fn write_i64(&mut self, x: i64) {
        self.write_u64(x as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn streaming_values_equals_the_row_hash() {
        let h = FastHash::new();
        let row: [Value; 4] = [-3, 0, 7, Value::MAX];
        let mut s = h.build_hasher();
        for &v in &row {
            s.write_i64(v);
        }
        assert_eq!(s.finish(), h.row(&row));
        assert_eq!(h.hash_one(7 as Value), h.row(&[7]));
    }

    /// Small consecutive values spread over the top bits (where the row
    /// table takes its slot) and the low bits (where the standard
    /// library's table does).
    #[test]
    fn small_values_spread_over_both_ends_of_the_hash() {
        let h = FastHash::new();
        let top: HashSet<u64> = (0..1024).map(|v| h.row(&[v, v / 7]) >> 54).collect();
        let low: HashSet<u64> = (0..1024).map(|v| h.row(&[v, v / 7]) & 1023).collect();
        // 1,024 balls in 1,024 bins leave about 647 bins occupied.
        assert!(top.len() > 560, "top bits: {} bins", top.len());
        assert!(low.len() > 560, "low bits: {} bins", low.len());
    }
}
