//! Systematic Reed-Solomon over GF(2^8).
//!
//! Geometry: `k` data shards, `m` parity shards, `k + m ≤ 256`. Parity
//! coefficients come from a Cauchy matrix, which is MDS by construction, so
//! any `k` surviving shards reconstruct everything. Decode inverts the
//! corresponding `k × k` submatrix of the generator.
//!
//! Used by Aceso only as the baseline code of Table 2; the production path
//! is [`crate::xcode`]. Like X-Code, RS is linear: a data delta `Δ` on shard
//! `j` moves parity `i` by `c[i][j] · Δ`, exposed as
//! [`ReedSolomon::xor_delta_into_parity`].

use crate::gf256;
use crate::CodeError;

/// A systematic RS(k, m) code instance.
#[derive(Clone, Debug)]
pub struct ReedSolomon {
    k: usize,
    m: usize,
    /// `m × k` parity coefficient rows.
    coef: Vec<Vec<u8>>,
}

/// Inverts a square matrix over GF(2^8) by Gauss-Jordan elimination.
fn invert(mut a: Vec<Vec<u8>>) -> Result<Vec<Vec<u8>>, CodeError> {
    let n = a.len();
    let mut inv: Vec<Vec<u8>> = (0..n)
        .map(|i| (0..n).map(|j| u8::from(i == j)).collect())
        .collect();
    for col in 0..n {
        // Find a pivot.
        let pivot = (col..n)
            .find(|&r| a[r][col] != 0)
            .ok_or(CodeError::Unsolvable)?;
        a.swap(col, pivot);
        inv.swap(col, pivot);
        let p = gf256::inv(a[col][col]);
        for j in 0..n {
            a[col][j] = gf256::mul(a[col][j], p);
            inv[col][j] = gf256::mul(inv[col][j], p);
        }
        for r in 0..n {
            if r != col && a[r][col] != 0 {
                let f = a[r][col];
                for j in 0..n {
                    a[r][j] ^= gf256::mul(f, a[col][j]);
                    inv[r][j] ^= gf256::mul(f, inv[col][j]);
                }
            }
        }
    }
    Ok(inv)
}

impl ReedSolomon {
    /// Creates an RS(k, m) instance.
    pub fn new(k: usize, m: usize) -> Result<Self, CodeError> {
        if k == 0 || m == 0 || k + m > 256 {
            return Err(CodeError::BadGeometry(format!(
                "rs({k},{m}) needs 0 < k, 0 < m, k+m ≤ 256"
            )));
        }
        // Cauchy matrix: rows indexed by x_i = i, columns by y_j = m + j.
        // x_i ≠ y_j always, so every entry is invertible and the matrix is
        // MDS (every square submatrix is nonsingular).
        let coef = (0..m)
            .map(|i| {
                (0..k)
                    .map(|j| gf256::inv((i as u8) ^ ((m + j) as u8)))
                    .collect()
            })
            .collect();
        Ok(ReedSolomon { k, m, coef })
    }

    /// Encodes `k` equal-length data shards into `m` parity shards.
    pub fn encode(&self, data: &[&[u8]]) -> Result<Vec<Vec<u8>>, CodeError> {
        if data.len() != self.k {
            return Err(CodeError::BadGeometry(format!(
                "expected {} data shards, got {}",
                self.k,
                data.len()
            )));
        }
        let len = data[0].len();
        if data.iter().any(|d| d.len() != len) {
            return Err(CodeError::LengthMismatch);
        }
        let mut parity = vec![vec![0u8; len]; self.m];
        for (i, p) in parity.iter_mut().enumerate() {
            for (j, d) in data.iter().enumerate() {
                gf256::mul_slice_xor(self.coef[i][j], d, p);
            }
        }
        Ok(parity)
    }

    /// Applies a data delta to one parity shard in place:
    /// `parity_i ^= c[i][j] · delta` (the linearity property, §3.3.3).
    pub fn xor_delta_into_parity(&self, i: usize, j: usize, delta: &[u8], parity: &mut [u8]) {
        gf256::mul_slice_xor(self.coef[i][j], delta, parity);
    }

    /// Reconstructs all missing shards in place.
    ///
    /// `shards` holds `k + m` optional buffers: indices `0..k` are data,
    /// `k..k+m` parity. At least `k` must be present and all present shards
    /// must share one length.
    pub fn reconstruct(&self, shards: &mut [Option<Vec<u8>>]) -> Result<(), CodeError> {
        if shards.len() != self.k + self.m {
            return Err(CodeError::BadGeometry(format!(
                "expected {} shards, got {}",
                self.k + self.m,
                shards.len()
            )));
        }
        let present: Vec<usize> = (0..shards.len()).filter(|&i| shards[i].is_some()).collect();
        if present.len() < self.k {
            return Err(CodeError::TooManyErasures {
                lost: shards.len() - present.len(),
                tolerated: self.m,
            });
        }
        let len = shards[present[0]].as_ref().unwrap().len();
        if present
            .iter()
            .any(|&i| shards[i].as_ref().unwrap().len() != len)
        {
            return Err(CodeError::LengthMismatch);
        }
        if present.len() == shards.len() {
            return Ok(());
        }

        // Generator row for shard index s: identity for data, coef for parity.
        let gen_row = |s: usize| -> Vec<u8> {
            if s < self.k {
                (0..self.k).map(|j| u8::from(j == s)).collect()
            } else {
                self.coef[s - self.k].clone()
            }
        };

        // Take the first k surviving shards, invert their generator rows to
        // express the data in terms of them.
        let basis: Vec<usize> = present.iter().copied().take(self.k).collect();
        let sub: Vec<Vec<u8>> = basis.iter().map(|&s| gen_row(s)).collect();
        let inv = invert(sub)?;

        // Recover missing data shards.
        let mut data: Vec<Option<Vec<u8>>> = vec![None; self.k];
        for j in 0..self.k {
            if shards[j].is_some() {
                data[j] = shards[j].clone();
            }
        }
        for j in 0..self.k {
            if data[j].is_none() {
                let mut out = vec![0u8; len];
                for (bi, &s) in basis.iter().enumerate() {
                    gf256::mul_slice_xor(inv[j][bi], shards[s].as_ref().unwrap(), &mut out);
                }
                data[j] = Some(out);
            }
        }
        for j in 0..self.k {
            if shards[j].is_none() {
                shards[j] = data[j].clone();
            }
        }
        // Recompute missing parity from (now complete) data.
        let data_refs: Vec<&[u8]> = (0..self.k).map(|j| data[j].as_deref().unwrap()).collect();
        for i in 0..self.m {
            if shards[self.k + i].is_none() {
                let mut p = vec![0u8; len];
                for (j, d) in data_refs.iter().enumerate() {
                    gf256::mul_slice_xor(self.coef[i][j], d, &mut p);
                }
                shards[self.k + i] = Some(p);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn shards_of(rs: &ReedSolomon, data: &[Vec<u8>]) -> Vec<Option<Vec<u8>>> {
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = rs.encode(&refs).unwrap();
        data.iter().cloned().chain(parity).map(Some).collect()
    }

    #[test]
    fn encode_decode_two_losses() {
        let rs = ReedSolomon::new(3, 2).unwrap();
        let data: Vec<Vec<u8>> = (0..3).map(|i| vec![i as u8 + 1; 64]).collect();
        let full = shards_of(&rs, &data);
        for a in 0..5 {
            for b in 0..5 {
                if a == b {
                    continue;
                }
                let mut s = full.clone();
                s[a] = None;
                s[b] = None;
                rs.reconstruct(&mut s).unwrap();
                assert_eq!(s, full, "erasing {a},{b}");
            }
        }
    }

    #[test]
    fn three_losses_rejected() {
        let rs = ReedSolomon::new(3, 2).unwrap();
        let data: Vec<Vec<u8>> = (0..3).map(|i| vec![i as u8; 16]).collect();
        let mut s = shards_of(&rs, &data);
        s[0] = None;
        s[1] = None;
        s[2] = None;
        assert!(matches!(
            rs.reconstruct(&mut s),
            Err(CodeError::TooManyErasures {
                lost: 3,
                tolerated: 2
            })
        ));
    }

    #[test]
    fn delta_update_matches_reencode() {
        let rs = ReedSolomon::new(4, 2).unwrap();
        let mut data: Vec<Vec<u8>> = (0..4).map(|i| vec![(i * 17) as u8; 32]).collect();
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let mut parity = rs.encode(&refs).unwrap();

        // Overwrite shard 2 and apply the delta to both parities.
        let newv = vec![0x5Au8; 32];
        let delta: Vec<u8> = data[2].iter().zip(&newv).map(|(a, b)| a ^ b).collect();
        for (i, p) in parity.iter_mut().enumerate() {
            rs.xor_delta_into_parity(i, 2, &delta, p);
        }
        data[2] = newv;
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        assert_eq!(parity, rs.encode(&refs).unwrap());
    }

    #[test]
    fn bad_geometry_rejected() {
        assert!(ReedSolomon::new(0, 2).is_err());
        assert!(ReedSolomon::new(2, 0).is_err());
        assert!(ReedSolomon::new(200, 60).is_err());
        assert!(ReedSolomon::new(200, 56).is_ok());
    }

    #[test]
    fn mismatched_lengths_rejected() {
        let rs = ReedSolomon::new(2, 1).unwrap();
        assert!(matches!(
            rs.encode(&[&[1u8, 2][..], &[3u8][..]]),
            Err(CodeError::LengthMismatch)
        ));
    }

    /// Any ≤ m erasure pattern reconstructs exactly, for several geometries.
    #[test]
    fn reconstructs_any_pattern() {
        for seed in 0..64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (k, m, len) = (
                rng.gen_range(2..6),
                rng.gen_range(1..4),
                rng.gen_range(1..80),
            );
            let rs = ReedSolomon::new(k, m).unwrap();
            let data: Vec<Vec<u8>> = (0..k)
                .map(|_| {
                    let mut v = vec![0; len];
                    rng.fill_bytes(&mut v);
                    v
                })
                .collect();
            let full = shards_of(&rs, &data);
            // Erase m distinct shards drawn at random.
            let mut s = full.clone();
            while s.iter().filter(|x| x.is_none()).count() < m {
                s[rng.gen_range(0..k + m)] = None;
            }
            assert_eq!(rs.reconstruct(&mut s), Ok(()), "seed {seed}");
            assert_eq!(s, full, "seed {seed}");
        }
    }
}
