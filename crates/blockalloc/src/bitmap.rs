//! The Free Bitmap: one bit per KV slot of a DATA block (paper §3.3.3).
//!
//! Bit semantics follow the paper: 0 = live (or never written), 1 =
//! obsolete. Clients accumulate obsolete bits locally and flush them to the
//! MN server by RPC in bulk; the server folds them into the block's record
//! and uses the count to pick reclamation candidates.

/// A fixed-width bitmap backed by bytes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Bitmap {
    bits: usize,
    bytes: Vec<u8>,
}

impl Bitmap {
    /// Creates an all-zero bitmap of `bits` bits.
    pub fn new(bits: usize) -> Self {
        Bitmap {
            bits,
            bytes: vec![0u8; bits.div_ceil(8)],
        }
    }

    /// Restores a bitmap from its byte serialization.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is shorter than `bits` requires.
    pub fn from_bytes(bits: usize, bytes: &[u8]) -> Self {
        assert!(bytes.len() >= bits.div_ceil(8));
        Bitmap {
            bits,
            bytes: bytes[..bits.div_ceil(8)].to_vec(),
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.bits
    }

    /// Whether the bitmap has zero bits.
    pub fn is_empty(&self) -> bool {
        self.bits == 0
    }

    /// The backing bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Gets bit `i`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.bits, "bit {i} out of {}", self.bits);
        self.bytes[i / 8] & (1 << (i % 8)) != 0
    }

    /// Sets bit `i` to `v`.
    pub fn set(&mut self, i: usize, v: bool) {
        assert!(i < self.bits, "bit {i} out of {}", self.bits);
        if v {
            self.bytes[i / 8] |= 1 << (i % 8);
        } else {
            self.bytes[i / 8] &= !(1 << (i % 8));
        }
    }

    /// Number of set (obsolete) bits.
    pub fn count_ones(&self) -> usize {
        self.bytes.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Clears every bit (block reuse resets the bitmap, §3.3.3).
    pub fn clear(&mut self) {
        self.bytes.fill(0);
    }

    /// Iterator over indices of set bits.
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.bits).filter(move |&i| self.get(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::collections::BTreeSet;

    #[test]
    fn set_get_count() {
        let mut b = Bitmap::new(20);
        assert_eq!(b.count_ones(), 0);
        b.set(0, true);
        b.set(7, true);
        b.set(8, true);
        b.set(19, true);
        assert_eq!(b.count_ones(), 4);
        assert!(b.get(19));
        assert!(!b.get(18));
        b.set(19, false);
        assert_eq!(b.count_ones(), 3);
        assert_eq!(b.ones().collect::<Vec<_>>(), vec![0, 7, 8]);
    }

    #[test]
    fn bytes_roundtrip() {
        let mut a = Bitmap::new(13);
        a.set(12, true);
        a.set(3, true);
        let b = Bitmap::from_bytes(13, a.as_bytes());
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic]
    fn out_of_range_panics() {
        Bitmap::new(8).get(8);
    }

    #[test]
    fn proptest_count_matches_sets() {
        for seed in 0..64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(0..50);
            let idx: BTreeSet<usize> = (0..n).map(|_| rng.gen_range(0..200)).collect();
            let mut b = Bitmap::new(200);
            for &i in &idx {
                b.set(i, true);
            }
            assert_eq!(b.count_ones(), idx.len(), "seed {seed}");
            let ones: Vec<usize> = b.ones().collect();
            assert_eq!(ones, idx.into_iter().collect::<Vec<_>>(), "seed {seed}");
        }
    }
}
