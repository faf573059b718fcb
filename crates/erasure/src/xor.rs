//! Wide XOR kernels.
//!
//! XOR is the inner loop of X-Code encode/decode, of differential
//! checkpointing (delta = new ⊕ old), and of delta-based space reclamation
//! (delta = old KV ⊕ new KV). The kernel processes 8 bytes per step on the
//! aligned middle of the buffers; on typical hardware the compiler further
//! auto-vectorizes the `u64` loop.

/// XORs `src` into `dst` element-wise: `dst[i] ^= src[i]`.
///
/// # Panics
///
/// Panics if the slices differ in length — mismatched cells indicate a
/// stripe-geometry bug, not a recoverable condition.
pub fn xor_into(dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "xor_into length mismatch");
    // Split both buffers into 8-byte lanes plus byte edges. `align_to` on
    // `u64` would need equal alignment of both buffers; chunking is just as
    // fast once the compiler unrolls it and has no alignment precondition.
    let mut d = dst.chunks_exact_mut(8);
    let mut s = src.chunks_exact(8);
    for (dc, sc) in (&mut d).zip(&mut s) {
        let a = u64::from_ne_bytes(dc.try_into().unwrap());
        let b = u64::from_ne_bytes(sc.try_into().unwrap());
        dc.copy_from_slice(&(a ^ b).to_ne_bytes());
    }
    for (db, sb) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *db ^= *sb;
    }
}

/// Returns the XOR of all `parts`, which must be non-empty and equal-length.
///
/// # Panics
///
/// Panics if `parts` is empty or lengths differ.
pub fn xor_of(parts: &[&[u8]]) -> Vec<u8> {
    let first = parts.first().expect("xor_of needs at least one part");
    let mut acc = first.to_vec();
    for p in &parts[1..] {
        xor_into(&mut acc, p);
    }
    acc
}

/// Returns `true` if every byte of `buf` is zero (fast path for skipping
/// all-zero checkpoint deltas).
pub fn is_zero(buf: &[u8]) -> bool {
    let mut it = buf.chunks_exact(8);
    for c in &mut it {
        if u64::from_ne_bytes(c.try_into().unwrap()) != 0 {
            return false;
        }
    }
    it.remainder().iter().all(|&b| b == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn xor_into_basic() {
        let mut a = vec![0b1010u8; 20];
        let b = vec![0b0110u8; 20];
        xor_into(&mut a, &b);
        assert!(a.iter().all(|&x| x == 0b1100));
    }

    #[test]
    fn xor_of_three() {
        let a = [1u8, 2, 3];
        let b = [4u8, 5, 6];
        let c = [7u8, 8, 9];
        let x = xor_of(&[&a, &b, &c]);
        assert_eq!(x, vec![1 ^ 4 ^ 7, 2 ^ 5 ^ 8, 3 ^ 6 ^ 9]);
    }

    #[test]
    fn is_zero_detects() {
        assert!(is_zero(&[0u8; 17]));
        let mut v = vec![0u8; 17];
        v[16] = 1;
        assert!(!is_zero(&v));
        assert!(is_zero(&[]));
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        xor_into(&mut [0u8; 3], &[0u8; 4]);
    }

    /// x ⊕ x = 0.
    #[test]
    fn self_inverse() {
        for seed in 0..64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut v = vec![0; rng.gen_range(0..257)];
            rng.fill_bytes(&mut v);
            let mut a = v.clone();
            xor_into(&mut a, &v);
            assert!(is_zero(&a), "seed {seed}");
        }
    }

    /// (a ⊕ b) ⊕ b = a, across the unaligned-tail boundary.
    #[test]
    fn roundtrip() {
        for seed in 0..64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut a = vec![0; rng.gen_range(1..300)];
            rng.fill_bytes(&mut a);
            let mut b = vec![0; a.len()];
            rng.fill_bytes(&mut b);
            let mut x = a.clone();
            xor_into(&mut x, &b);
            xor_into(&mut x, &b);
            assert_eq!(x, a, "seed {seed}");
        }
    }
}
