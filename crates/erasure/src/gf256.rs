//! GF(2^8) arithmetic with the AES-adjacent polynomial 0x11D.
//!
//! Multiplication and inversion use exp/log tables generated at first use
//! (generator α = 2, which is primitive for 0x11D). Bulk slice operations
//! (`mul_slice_into`) build a per-coefficient 256-entry product table once
//! per call and stream through the buffers — the same structure ISA-L uses,
//! minus SIMD shuffles. This genuinely costs more per byte than pure XOR,
//! which is exactly the asymmetry the paper's Table 2 measures between RS
//! and X-Code.

use std::sync::OnceLock;

/// The field's reduction polynomial: x^8 + x^4 + x^3 + x^2 + 1.
pub const POLY: u16 = 0x11D;

struct Tables {
    exp: [u8; 512],
    log: [u8; 256],
}

fn tables() -> &'static Tables {
    static T: OnceLock<Tables> = OnceLock::new();
    T.get_or_init(|| {
        let mut exp = [0u8; 512];
        let mut log = [0u8; 256];
        let mut x: u16 = 1;
        for (i, e) in exp.iter_mut().enumerate().take(255) {
            *e = x as u8;
            log[x as usize] = i as u8;
            x <<= 1;
            if x & 0x100 != 0 {
                x ^= POLY;
            }
        }
        // Duplicate the table so exp[(a + b) as usize] needs no modulo.
        for i in 255..512 {
            exp[i] = exp[i - 255];
        }
        Tables { exp, log }
    })
}

/// Adds two field elements (XOR).
#[inline]
pub fn add(a: u8, b: u8) -> u8 {
    a ^ b
}

/// Multiplies two field elements.
#[inline]
pub fn mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        return 0;
    }
    let t = tables();
    t.exp[t.log[a as usize] as usize + t.log[b as usize] as usize]
}

/// Multiplicative inverse.
///
/// # Panics
///
/// Panics on zero, which has no inverse; callers guard against singular
/// matrices before inverting.
#[inline]
pub fn inv(a: u8) -> u8 {
    assert_ne!(a, 0, "zero has no inverse in GF(2^8)");
    let t = tables();
    t.exp[255 - t.log[a as usize] as usize]
}

/// Divides `a` by `b`.
///
/// # Panics
///
/// Panics if `b == 0`.
#[inline]
pub fn div(a: u8, b: u8) -> u8 {
    mul(a, inv(b))
}

/// Exponentiation `base^e` by repeated squaring (table-free; used in tests).
pub fn pow(mut base: u8, mut e: u32) -> u8 {
    let mut acc = 1u8;
    while e > 0 {
        if e & 1 == 1 {
            acc = mul(acc, base);
        }
        base = mul(base, base);
        e >>= 1;
    }
    acc
}

/// Computes `dst[i] ^= c · src[i]` for the whole slice.
///
/// This is the RS encode/decode inner loop and the RS form of the linear
/// delta update (parity ^= coefficient · delta).
///
/// # Panics
///
/// Panics if lengths differ.
pub fn mul_slice_xor(c: u8, src: &[u8], dst: &mut [u8]) {
    assert_eq!(src.len(), dst.len(), "mul_slice_xor length mismatch");
    if c == 0 {
        return;
    }
    if c == 1 {
        crate::xor::xor_into(dst, src);
        return;
    }
    // Per-coefficient product table: one lookup per byte.
    let mut table = [0u8; 256];
    for (b, t) in table.iter_mut().enumerate() {
        *t = mul(c, b as u8);
    }
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= table[*s as usize];
    }
}

/// Computes `dst[i] = c · src[i]` for the whole slice.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn mul_slice(c: u8, src: &[u8], dst: &mut [u8]) {
    assert_eq!(src.len(), dst.len(), "mul_slice length mismatch");
    let mut table = [0u8; 256];
    for (b, t) in table.iter_mut().enumerate() {
        *t = mul(c, b as u8);
    }
    for (d, s) in dst.iter_mut().zip(src) {
        *d = table[*s as usize];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn mul_identities() {
        for a in 0..=255u8 {
            assert_eq!(mul(a, 1), a);
            assert_eq!(mul(a, 0), 0);
            assert_eq!(mul(0, a), 0);
        }
    }

    #[test]
    fn known_products() {
        // 2 · 0x80 = 0x100 mod 0x11D = 0x1D.
        assert_eq!(mul(2, 0x80), 0x1D);
        assert_eq!(mul(3, 3), 5); // (x+1)² = x²+1.
    }

    #[test]
    fn inverse_works() {
        for a in 1..=255u8 {
            assert_eq!(mul(a, inv(a)), 1, "a={a}");
        }
    }

    #[test]
    fn generator_order_is_255() {
        // α=2 must generate the full multiplicative group.
        let mut seen = [false; 256];
        let mut x = 1u8;
        for _ in 0..255 {
            assert!(!seen[x as usize]);
            seen[x as usize] = true;
            x = mul(x, 2);
        }
        assert_eq!(x, 1);
    }

    #[test]
    fn mul_slice_xor_matches_scalar() {
        let src: Vec<u8> = (0..=255).collect();
        let mut dst = vec![0xA5u8; 256];
        let expect: Vec<u8> = dst.iter().zip(&src).map(|(d, s)| d ^ mul(7, *s)).collect();
        mul_slice_xor(7, &src, &mut dst);
        assert_eq!(dst, expect);
    }

    /// Distributivity: a·(b ⊕ c) = a·b ⊕ a·c.
    #[test]
    fn distributive() {
        for seed in 0..64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (a, b, c) = (rng.gen(), rng.gen(), rng.gen());
            assert_eq!(mul(a, add(b, c)), add(mul(a, b), mul(a, c)), "seed {seed}");
        }
    }

    /// Associativity and commutativity of multiplication.
    #[test]
    fn mul_assoc_comm() {
        for seed in 0..64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (a, b, c) = (rng.gen(), rng.gen(), rng.gen());
            assert_eq!(mul(a, mul(b, c)), mul(mul(a, b), c), "seed {seed}");
            assert_eq!(mul(a, b), mul(b, a), "seed {seed}");
        }
    }

    /// pow agrees with repeated multiplication.
    #[test]
    fn pow_matches() {
        for seed in 0..64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (a, e) = (rng.gen(), rng.gen_range(0..600));
            let mut acc = 1u8;
            for _ in 0..e {
                acc = mul(acc, a);
            }
            assert_eq!(pow(a, e), acc, "seed {seed}");
        }
    }

    /// Division undoes multiplication.
    #[test]
    fn div_undoes_mul() {
        for seed in 0..64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (a, b) = (rng.gen(), rng.gen_range(1..256) as u8);
            assert_eq!(div(mul(a, b), b), a, "seed {seed}");
        }
    }
}
