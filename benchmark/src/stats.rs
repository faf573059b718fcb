//! Small order statistics shared by the driver and `compare`.

/// Percentile by the cost model's deterministic pick rule (as `bench
/// quick`): the sample at index `⌊(len−1)·q⌋` of the ascending-sorted
/// slice; 0 for an empty slice.
pub fn pick(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * q) as usize]
}

/// Ascending copy of `xs`.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median: the mean of the two middle samples for an even count.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Interquartile range as a share of the median: how much the samples
/// behind one reported median scatter. Quartiles interpolate linearly at
/// `(n−1)·q` (Python's `statistics.quantiles(.., method="inclusive")`),
/// which for five samples is the distance from the second to the fourth,
/// so one disturbed sample does not decide it.
pub fn iqr_share(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let med = median(&v);
    if v.len() < 2 || med == 0.0 {
        return 0.0;
    }
    let quartile = |q: f64| {
        let pos = (v.len() - 1) as f64 * q;
        let lo = pos.floor() as usize;
        let hi = (lo + 1).min(v.len() - 1);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    (quartile(0.75) - quartile(0.25)) / med.abs()
}

/// Relative change of the second half's median against the first half's.
pub fn drift_share(xs: &[f64]) -> f64 {
    let (a, b) = xs.split_at(xs.len() / 2);
    let base = median(a);
    if base == 0.0 {
        return 0.0;
    }
    (median(b) - base) / base
}

/// One value per position of equally shaped blocks: `out[j]` is `across`
/// of `blocks[..][j]`. Cycle `j` of every fault block does the same work on
/// a store with the same history, seconds after cycle `j` of the block
/// before, so a median (or the least) across blocks drops a block that ran
/// while the CPU was slow, which no statistic of one block's cycles can.
pub fn by_position(blocks: &[Vec<f64>], across: fn(&[f64]) -> f64) -> Vec<f64> {
    let len = blocks.iter().map(Vec::len).min().unwrap_or(0);
    (0..len)
        .map(|j| across(&blocks.iter().map(|b| b[j]).collect::<Vec<_>>()))
        .collect()
}

pub fn least(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Every sample of `blocks` as a ratio to its position's median: what is
/// left to scatter once the differences between positions are taken out.
pub fn ratios_to_position(blocks: &[Vec<f64>]) -> Vec<f64> {
    let medians = by_position(blocks, median);
    blocks
        .iter()
        .flat_map(|b| b.iter().zip(&medians).map(|(x, m)| x / m))
        .filter(|r| r.is_finite())
        .collect()
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// A fast 64-bit hash of a byte string (8 bytes per multiply). The
/// oracle hashes every value the store returns, so byte-at-a-time FNV
/// would cost more than the op it checks.
pub fn hash64(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut h = K ^ bytes.len() as u64;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        h = (h ^ w).wrapping_mul(K);
        h ^= h >> 29;
    }
    let mut tail = [0u8; 8];
    let rem = chunks.remainder();
    tail[..rem.len()].copy_from_slice(rem);
    h = (h ^ u64::from_le_bytes(tail)).wrapping_mul(K);
    h ^ (h >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pick_uses_floor_of_len_minus_one_times_q() {
        let v: Vec<f64> = (0..200).map(f64::from).collect();
        assert_eq!(pick(&v, 0.50), 99.0); // ⌊199·0.5⌋ = 99
        assert_eq!(pick(&v, 0.99), 197.0); // ⌊199·0.99⌋ = 197
        assert_eq!(pick(&v, 1.0), 199.0);
        assert_eq!(pick(&v[..1], 0.99), 0.0);
        assert_eq!(pick(&[], 0.5), 0.0);
    }

    #[test]
    fn median_and_inclusive_quartiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4, method="inclusive")
        // == [3.25, 5.5, 7.75]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&xs) - (7.75 - 3.25) / 5.5).abs() < 1e-12);
        // Five samples, one disturbed: second to fourth sample.
        assert!((iqr_share(&[100.0, 104.0, 98.0, 500.0, 102.0]) - 4.0 / 102.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[7.0]), 0.0);
    }

    #[test]
    fn position_medians_drop_a_slow_block() {
        // Three blocks of three cycles that cost 10, 20, 40; the second
        // block ran a third slower, and one cycle of the third hiccuped.
        let blocks = vec![
            vec![10.0, 20.0, 40.0],
            vec![13.0, 26.0, 52.0],
            vec![10.0, 90.0, 40.0],
        ];
        assert_eq!(by_position(&blocks, median), vec![10.0, 26.0, 40.0]);
        assert_eq!(by_position(&blocks, least), vec![10.0, 20.0, 40.0]);
        let ratios = ratios_to_position(&blocks);
        assert_eq!(ratios.len(), 9);
        assert_eq!(median(&ratios), 1.0);
        assert!(by_position(&[], median).is_empty());
    }

    #[test]
    fn drift_compares_halves() {
        let xs = [10.0, 10.0, 10.0, 9.0, 9.0, 9.0];
        assert!((drift_share(&xs) + 0.1).abs() < 1e-12);
    }

    #[test]
    fn hash_depends_on_every_byte_and_length() {
        let a = vec![7u8; 991];
        let mut b = a.clone();
        b[990] ^= 1;
        assert_ne!(hash64(&a), hash64(&b));
        assert_ne!(hash64(&a[..990]), hash64(&a));
        assert_eq!(hash64(&a), hash64(&a.clone()));
    }
}
