//! LZ77 block compression for differential checkpoints.
//!
//! Aceso compresses the XOR delta between consecutive index checkpoints
//! before shipping it to the neighbouring memory node (§3.2.1, Figure 3).
//! The deltas are dominated by long zero runs (only slots touched since the
//! last round are non-zero), so any LZ77 coder with unbounded match lengths
//! collapses them dramatically — the paper reports a 2 GB index compressing
//! to a 27 MB delta.
//!
//! The format follows the spirit of the LZ4 block format: a token byte
//! packs a 4-bit literal length and a 4-bit match length (both with 255-byte
//! continuation extensions), followed by the literal bytes and a 2-byte
//! little-endian match offset. Matching is greedy over a 4-byte hash table.
//! Written from scratch; no attempt is made at bit-for-bit LZ4
//! compatibility, only at the same asymptotics and speed class.

#![forbid(unsafe_code)]

/// Minimum match length; shorter matches are emitted as literals.
const MIN_MATCH: usize = 4;
/// Match-offset window (64 KB, like LZ4's 16-bit offsets).
const WINDOW: usize = 65_535;
/// Log2 of the hash-table size.
const HASH_BITS: u32 = 16;

/// Errors from [`decompress`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CodecError {
    /// The compressed stream is truncated or malformed.
    Corrupt,
    /// The stream decodes to more than the declared output size.
    TooLong,
}

impl core::fmt::Display for CodecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CodecError::Corrupt => write!(f, "corrupt compressed stream"),
            CodecError::TooLong => write!(f, "stream exceeds declared output size"),
        }
    }
}

impl std::error::Error for CodecError {}

#[inline]
fn hash4(b: &[u8]) -> usize {
    let v = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

fn put_len(out: &mut Vec<u8>, mut len: usize) {
    while len >= 255 {
        out.push(255);
        len -= 255;
    }
    out.push(len as u8);
}

/// Compresses `input` into a fresh buffer.
///
/// The output always decompresses to exactly `input` via [`decompress`]
/// with `expected_len = input.len()`. Incompressible data expands by at
/// most ~0.5% plus a few bytes.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    let mut table = vec![usize::MAX; 1 << HASH_BITS];
    let mut pos = 0usize;
    let mut lit_start = 0usize;

    let emit = |out: &mut Vec<u8>, lits: &[u8], match_len: usize, offset: usize| {
        let lit_tok = lits.len().min(15);
        let mat_tok = if match_len == 0 {
            0
        } else {
            (match_len - MIN_MATCH).min(15)
        };
        out.push(((lit_tok as u8) << 4) | mat_tok as u8);
        if lit_tok == 15 {
            put_len(out, lits.len() - 15);
        }
        out.extend_from_slice(lits);
        if match_len > 0 {
            out.extend_from_slice(&(offset as u16).to_le_bytes());
            if mat_tok == 15 {
                put_len(out, match_len - MIN_MATCH - 15);
            }
        }
    };

    while pos + MIN_MATCH <= input.len() {
        let h = hash4(&input[pos..]);
        let cand = table[h];
        table[h] = pos;
        if cand != usize::MAX
            && pos - cand <= WINDOW
            && input[cand..cand + MIN_MATCH] == input[pos..pos + MIN_MATCH]
        {
            // Extend the match as far as possible (this is what eats the
            // long zero runs of checkpoint deltas).
            let mut len = MIN_MATCH;
            while pos + len < input.len() && input[cand + len] == input[pos + len] {
                len += 1;
            }
            emit(&mut out, &input[lit_start..pos], len, pos - cand);
            // Seed the table sparsely inside the match to keep speed linear.
            let step = (len / 16).max(1);
            let mut p = pos + 1;
            while p + MIN_MATCH <= input.len() && p < pos + len {
                table[hash4(&input[p..])] = p;
                p += step;
            }
            pos += len;
            lit_start = pos;
        } else {
            pos += 1;
        }
    }
    // Trailing literals (token with match length 0).
    emit(&mut out, &input[lit_start..], 0, 0);
    out
}

/// Decompresses a [`compress`]-produced stream into exactly `expected_len`
/// bytes.
pub fn decompress(input: &[u8], expected_len: usize) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::with_capacity(expected_len);
    let mut pos = 0usize;

    let read_len = |input: &[u8], pos: &mut usize| -> Result<usize, CodecError> {
        let mut len = 0usize;
        loop {
            let b = *input.get(*pos).ok_or(CodecError::Corrupt)?;
            *pos += 1;
            len += b as usize;
            if b != 255 {
                return Ok(len);
            }
        }
    };

    while pos < input.len() {
        let token = input[pos];
        pos += 1;
        let mut lit_len = (token >> 4) as usize;
        if lit_len == 15 {
            lit_len += read_len(input, &mut pos)?;
        }
        let lits = input.get(pos..pos + lit_len).ok_or(CodecError::Corrupt)?;
        out.extend_from_slice(lits);
        pos += lit_len;
        if out.len() > expected_len {
            return Err(CodecError::TooLong);
        }
        if pos == input.len() {
            break; // Final literals-only token.
        }
        let off_bytes = input.get(pos..pos + 2).ok_or(CodecError::Corrupt)?;
        let offset = u16::from_le_bytes([off_bytes[0], off_bytes[1]]) as usize;
        pos += 2;
        let mut match_len = (token & 0x0F) as usize + MIN_MATCH;
        if match_len == 15 + MIN_MATCH {
            match_len += read_len(input, &mut pos)?;
        }
        if offset == 0 || offset > out.len() {
            return Err(CodecError::Corrupt);
        }
        if out.len() + match_len > expected_len {
            return Err(CodecError::TooLong);
        }
        // Byte-by-byte copy: offsets smaller than the match length replicate
        // the window (run-length behaviour), exactly like LZ4.
        let start = out.len() - offset;
        for i in 0..match_len {
            let b = out[start + i];
            out.push(b);
        }
    }
    if out.len() != expected_len {
        return Err(CodecError::Corrupt);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn roundtrip(data: &[u8]) {
        let c = compress(data);
        let d = decompress(&c, data.len()).unwrap();
        assert_eq!(d, data);
    }

    #[test]
    fn empty() {
        roundtrip(&[]);
    }

    #[test]
    fn short_literals() {
        roundtrip(b"abc");
        roundtrip(b"abcdefghij");
    }

    #[test]
    fn zero_runs_collapse() {
        // A sparse checkpoint delta: 1 MB of zeros with 100 dirty slots.
        let mut v = vec![0u8; 1 << 20];
        for i in 0..100 {
            let off = i * 10_007 % v.len();
            v[off] = (i * 31 + 1) as u8;
        }
        let c = compress(&v);
        assert!(
            c.len() < v.len() / 100,
            "sparse delta should compress >100×, got {} → {}",
            v.len(),
            c.len()
        );
        assert_eq!(decompress(&c, v.len()).unwrap(), v);
    }

    #[test]
    fn repetitive_text() {
        let v: Vec<u8> = b"the quick brown fox jumps over the lazy dog. "
            .iter()
            .cycle()
            .take(10_000)
            .copied()
            .collect();
        let c = compress(&v);
        assert!(c.len() < v.len() / 5);
        assert_eq!(decompress(&c, v.len()).unwrap(), v);
    }

    #[test]
    fn incompressible_bounded_expansion() {
        // Pseudo-random bytes: expansion stays tiny.
        let mut x = 0x12345678u64;
        let v: Vec<u8> = (0..100_000)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 33) as u8
            })
            .collect();
        let c = compress(&v);
        assert!(c.len() < v.len() + v.len() / 100 + 16);
        assert_eq!(decompress(&c, v.len()).unwrap(), v);
    }

    #[test]
    fn long_match_extensions() {
        // Length fields crossing the 15 and 255 continuation boundaries.
        for len in [14, 15, 16, 18, 19, 20, 269, 270, 271, 525, 60_000] {
            roundtrip(&vec![7u8; len]);
        }
    }

    #[test]
    fn corrupt_streams_rejected() {
        let good = compress(b"hello world hello world hello world");
        // Truncations must error, never panic.
        for cut in 0..good.len() {
            let _ = decompress(&good[..cut], 35);
        }
        assert!(decompress(&[0x10], 1).is_err()); // Literal missing.
        assert!(decompress(&[0x01, 0x00, 0x00], 100).is_err()); // Zero offset.
    }

    #[test]
    fn wrong_expected_len_rejected() {
        let c = compress(b"some data here");
        assert!(decompress(&c, 13).is_err());
        assert!(decompress(&c, 15).is_err());
        assert!(decompress(&c, 14).is_ok());
    }

    #[test]
    fn proptest_roundtrip() {
        for seed in 0..64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut v = vec![0; rng.gen_range(0..5000)];
            rng.fill_bytes(&mut v);
            assert_eq!(decompress(&compress(&v), v.len()), Ok(v), "seed {seed}");
        }
    }

    /// Structured data (few distinct bytes) round-trips and compresses.
    #[test]
    fn proptest_structured() {
        for seed in 0..64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let v: Vec<u8> = (0..rng.gen_range(64..4096))
                .map(|_| rng.gen_range(0..4))
                .collect();
            assert_eq!(decompress(&compress(&v), v.len()), Ok(v), "seed {seed}");
        }
    }

    /// Decompressing arbitrary garbage never panics.
    #[test]
    fn proptest_garbage_safe() {
        for seed in 0..64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut v = vec![0; rng.gen_range(0..512)];
            rng.fill_bytes(&mut v);
            let len = rng.gen_range(0..2048);
            let ran = std::panic::catch_unwind(|| decompress(&v, len));
            assert!(ran.is_ok(), "seed {seed}");
        }
    }
}
