//! Structural invariants of the X-Code construction across prime sizes —
//! the properties the Aceso layout (delta placement, chain decoding)
//! silently relies on.

use aceso_erasure::XCode;
use proptest::prelude::*;
use std::collections::HashMap;

const PRIMES: [usize; 5] = [3, 5, 7, 11, 13];

/// Every data cell appears in exactly one diagonal and one anti-diagonal
/// equation, and those equations' parity columns are what
/// `parity_cells_for` reports.
#[test]
fn every_data_cell_covered_exactly_twice() {
    for n in PRIMES {
        let code = XCode::new(n).unwrap();
        let mut diag_count: HashMap<(usize, usize), usize> = HashMap::new();
        let mut anti_count: HashMap<(usize, usize), usize> = HashMap::new();
        for eq in code.equations() {
            let m = if eq.parity_row == code.diag_row() {
                &mut diag_count
            } else {
                &mut anti_count
            };
            for &cell in &eq.data {
                *m.entry(cell).or_insert(0) += 1;
            }
        }
        for r in 0..n - 2 {
            for c in 0..n {
                assert_eq!(diag_count.get(&(r, c)), Some(&1), "n={n} ({r},{c}) diag");
                assert_eq!(anti_count.get(&(r, c)), Some(&1), "n={n} ({r},{c}) anti");
            }
        }
    }
}

/// The two parity columns of a data cell are always distinct from the
/// cell's own column *and from each other* — the property that lets Aceso
/// keep two independent delta copies per block.
#[test]
fn parity_columns_distinct_for_n_ge_5() {
    for n in [5usize, 7, 11, 13] {
        let code = XCode::new(n).unwrap();
        for r in 0..n - 2 {
            for c in 0..n {
                let ((_, dc), (_, ac)) = code.parity_cells_for(r, c);
                assert_ne!(dc, c);
                assert_ne!(ac, c);
                assert_ne!(dc, ac, "n={n} r={r} c={c}: delta copies must not collocate");
            }
        }
    }
}

/// Each parity equation touches `n − 1` distinct columns (misses exactly
/// one besides carrying its parity cell).
#[test]
fn equations_span_n_minus_one_columns() {
    for n in PRIMES {
        let code = XCode::new(n).unwrap();
        for eq in code.equations() {
            let mut cols: Vec<usize> = eq.data.iter().map(|&(_, c)| c).collect();
            cols.push(eq.parity_col);
            cols.sort_unstable();
            cols.dedup();
            assert_eq!(cols.len(), n - 1, "n={n} parity@{}", eq.parity_col);
        }
    }
}

proptest! {
    /// Two-column erasures decode for every prime size up to 13.
    #[test]
    fn two_column_recovery_all_primes(
        pi in 0usize..PRIMES.len(),
        seed in any::<u64>(),
        c1 in 0usize..13,
        c2 in 0usize..13,
    ) {
        let n = PRIMES[pi];
        let (c1, c2) = (c1 % n, c2 % n);
        let code = XCode::new(n).unwrap();
        let data: Vec<Vec<Vec<u8>>> = (0..n - 2)
            .map(|k| {
                (0..n)
                    .map(|j| {
                        (0..24)
                            .map(|b| (seed.wrapping_mul((k * 131 + j * 17 + b + 1) as u64) >> 23) as u8)
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let (diag, anti) = code.encode(&data).unwrap();
        let mut stripe: Vec<Vec<Option<Vec<u8>>>> = data
            .iter()
            .map(|row| row.iter().cloned().map(Some).collect())
            .collect();
        stripe.push(diag.into_iter().map(Some).collect());
        stripe.push(anti.into_iter().map(Some).collect());
        let full = stripe.clone();
        for row in stripe.iter_mut() {
            row[c1] = None;
            row[c2] = None;
        }
        code.reconstruct(&mut stripe).unwrap();
        prop_assert_eq!(stripe, full);
    }

    /// The single-cell fast path agrees with full-stripe reconstruction.
    #[test]
    fn fast_path_matches_full_decode(
        seed in any::<u64>(),
        r in 0usize..5,
        c in 0usize..7,
    ) {
        let n = 7;
        let code = XCode::new(n).unwrap();
        let data: Vec<Vec<Vec<u8>>> = (0..n - 2)
            .map(|k| {
                (0..n)
                    .map(|j| (0..32).map(|b| (seed.wrapping_mul((k * 97 + j * 13 + b + 1) as u64) >> 19) as u8).collect())
                    .collect()
            })
            .collect();
        let (diag, anti) = code.encode(&data).unwrap();
        let got = code
            .reconstruct_cell(r, c, |rr, cc| {
                if (rr, cc) == (r, c) {
                    None
                } else if rr < n - 2 {
                    Some(data[rr][cc].clone())
                } else if rr == n - 2 {
                    Some(diag[cc].clone())
                } else {
                    Some(anti[cc].clone())
                }
            })
            .unwrap();
        prop_assert_eq!(got, data[r][c].clone());
    }
}
