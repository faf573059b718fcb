//! Structural invariants of the X-Code construction across prime sizes —
//! the properties the Aceso layout (delta placement, chain decoding)
//! silently relies on.

use aceso_erasure::{xor_into, CodeError, XCode};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::{BTreeSet, HashMap};

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

type Stripe = Vec<Vec<Option<Vec<u8>>>>;

/// Cell size of the planner's stripes.
const CELL: usize = 8;

/// A fully encoded `n × n` stripe of random `len`-byte cells.
fn encoded_stripe(code: &XCode, rng: &mut StdRng, len: usize) -> Stripe {
    let n = code.n();
    let mut cell = || {
        let mut v = vec![0; len];
        rng.fill_bytes(&mut v);
        v
    };
    let data: Vec<Vec<Vec<u8>>> = (0..n - 2)
        .map(|_| (0..n).map(|_| cell()).collect())
        .collect();
    let (diag, anti) = code.encode(&data).unwrap();
    let mut stripe: Stripe = data
        .into_iter()
        .map(|row| row.into_iter().map(Some).collect())
        .collect();
    stripe.push(diag.into_iter().map(Some).collect());
    stripe.push(anti.into_iter().map(Some).collect());
    stripe
}

/// Executes a plan over `stripe`: every step XORs only cells in hand.
fn execute(code: &XCode, steps: &[aceso_erasure::xcode::Step], stripe: &mut Stripe, seed: u64) {
    for &step in steps {
        let mut acc = vec![0u8; CELL];
        for (r, c) in code.sources(step) {
            let cell = stripe[r][c].as_ref();
            xor_into(
                &mut acc,
                cell.unwrap_or_else(|| panic!("seed {seed}: {step:?} reads lost ({r},{c})")),
            );
        }
        assert!(
            stripe[step.target.0][step.target.1].is_none(),
            "seed {seed}: {step:?} re-yields a cell"
        );
        stripe[step.target.0][step.target.1] = Some(acc);
    }
}

/// With one column lost, that column's data cells cost their diagonal
/// chains and nothing else: `n − 2` steps naming `(n − 2)²` distinct cells,
/// none in the lost column. A parity cell ruled out on a *surviving*
/// column (Aceso: hosted inside a degraded window) is never read — the
/// cell it covered takes its anti-diagonal chain instead.
#[test]
fn one_column_plan_reads_one_chain_per_cell() {
    for n in [3usize, 5, 7, 11] {
        let code = XCode::new(n).unwrap();
        for lost in 0..n {
            let wanted = || (0..n - 2).map(|r| (r, lost));
            let plan = code.plan(|_, c| c == lost, wanted()).unwrap();
            assert_eq!(plan.len(), n - 2);
            assert!(plan.iter().all(|s| s.parity.0 == code.diag_row()));
            let cells: BTreeSet<_> = plan.iter().flat_map(|&s| code.sources(s)).collect();
            assert_eq!(cells.len(), (n - 2) * (n - 2), "n={n} lost={lost}");
            assert!(cells.iter().all(|&(_, c)| c != lost));

            let shy = (lost + 1) % n;
            let ruled_out = |r: usize, c: usize| c == lost || (c == shy && r >= n - 2);
            let plan = code.plan(ruled_out, wanted()).unwrap();
            assert_eq!(plan.len(), n - 2);
            assert!(plan.iter().all(|s| s.parity.1 != shy && s.parity.1 != lost));
        }
    }
}

/// More than two lost columns: a wanted data cell of one of them is refused
/// by the plan — before anything could have been fetched.
#[test]
fn three_lost_columns_are_unsolvable_at_plan_time() {
    for n in [5usize, 7, 11] {
        let code = XCode::new(n).unwrap();
        let plan = code.plan(|_, c| c < 3, [(0, 1)]);
        assert_eq!(plan, Err(CodeError::Unsolvable), "n={n}");
        // A wanted cell that is in hand needs no step, whatever else is lost.
        assert_eq!(code.plan(|_, c| c < 3, [(0, 3)]), Ok(Vec::new()));
    }
}

/// Every erasure of at most two columns × a random wanted subset: the plan
/// reads only surviving cells (or its own earlier targets), yields only lost
/// cells, each once, and every wanted cell comes out with the bytes it was
/// encoded with.
#[test]
fn planned_decode_yields_the_wanted_cells() {
    for seed in 0..64 {
        let mut rng = StdRng::seed_from_u64(seed);
        for n in [3usize, 5, 7, 11] {
            let code = XCode::new(n).unwrap();
            let full = encoded_stripe(&code, &mut rng, CELL);
            let wanted: Vec<(usize, usize)> = (0..n * n)
                .filter(|_| rng.gen())
                .map(|i| (i / n, i % n))
                .collect();
            for c1 in 0..n {
                for c2 in c1..n {
                    let mut stripe = full.clone();
                    for row in stripe.iter_mut() {
                        row[c1] = None;
                        row[c2] = None;
                    }
                    let lost = |_: usize, c: usize| c == c1 || c == c2;
                    let at = format!("seed {seed} n={n} lost {c1},{c2}");
                    let plan = code.plan(lost, wanted.iter().copied());
                    let plan = plan.unwrap_or_else(|e| panic!("{at}: {e:?}"));
                    execute(&code, &plan, &mut stripe, seed);
                    for &(r, c) in &wanted {
                        assert_eq!(&stripe[r][c], &full[r][c], "{at} cell ({r},{c})");
                    }
                    // `reconstruct` is the same plan asked for everything.
                    let mut all = full.clone();
                    for row in all.iter_mut() {
                        row[c1] = None;
                        row[c2] = None;
                    }
                    assert_eq!(code.reconstruct(&mut all), Ok(()), "{at}");
                    assert_eq!(&all, &full, "{at}");
                }
            }
        }
    }
}

/// Two-column erasures decode for every prime size up to 13.
#[test]
fn two_column_recovery_all_primes() {
    for seed in 0..64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = PRIMES[rng.gen_range(0..PRIMES.len())];
        let (c1, c2) = (rng.gen_range(0..n), rng.gen_range(0..n));
        let code = XCode::new(n).unwrap();
        let full = encoded_stripe(&code, &mut rng, 24);
        let mut stripe = full.clone();
        for row in stripe.iter_mut() {
            row[c1] = None;
            row[c2] = None;
        }
        assert_eq!(code.reconstruct(&mut stripe), Ok(()), "seed {seed}");
        assert_eq!(stripe, full, "seed {seed}");
    }
}
