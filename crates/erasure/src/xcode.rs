//! X-Code (Xu & Bruck, 1999): an XOR-only MDS array code tolerating two
//! column erasures.
//!
//! Geometry: an `n × n` array of equal-size cells, `n` prime. Rows
//! `0..n-2` hold data; row `n-2` holds *diagonal* parity and row `n-1`
//! *anti-diagonal* parity:
//!
//! ```text
//! C[n-2][i] = ⊕_{k=0}^{n-3} C[k][(i + k + 2) mod n]   (diagonal)
//! C[n-1][i] = ⊕_{k=0}^{n-3} C[k][(i − k − 2) mod n]   (anti-diagonal)
//! ```
//!
//! Each data cell `(k, j)` therefore contributes to exactly two parity
//! cells, in columns `(j − k − 2) mod n` and `(j + k + 2) mod n` — both
//! different from `j`, so losing a column never loses a cell together with
//! both of its parities. In Aceso, columns are memory nodes and cells are
//! 2 MB memory blocks (§3.3.1): every MN stores both DATA and PARITY
//! blocks, and X-Code's two-erasure tolerance matches 3-way replication.
//!
//! Decoding is *planned peeling*: [`XCode::plan`] walks the geometry alone
//! — which cells are unavailable, which are wanted — and returns the ordered
//! [`Step`]s, each "XOR the other cells of this chain to get that one". For
//! any pattern of at most two lost columns the plan completes (it walks the
//! classical zig-zag chains), and nothing has to be fetched that no step
//! names: one lost column costs one chain per wanted cell, each the cheaper
//! of its two given the cells already fetched. Aceso's recovery
//! executes plans over remote blocks, [`XCode::reconstruct`] over a stripe in
//! memory; the degraded SEARCH folds a single chain's byte range itself.

use crate::xor::xor_into;
use crate::CodeError;

/// An X-Code instance over a prime `n ≥ 3`.
#[derive(Clone, Debug)]
pub struct XCode {
    n: usize,
    /// The `2n` parity equations, built once: column `i`'s diagonal at
    /// `2i`, its anti-diagonal at `2i + 1`.
    equations: Vec<Equation>,
}

/// A stripe's two parity rows `(diagonal, anti-diagonal)`, each `n` cells.
pub type ParityRows = (Vec<Vec<u8>>, Vec<Vec<u8>>);

fn is_prime(n: usize) -> bool {
    if n < 2 {
        return false;
    }
    let mut d = 2;
    while d * d <= n {
        if n.is_multiple_of(d) {
            return false;
        }
        d += 1;
    }
    true
}

/// One parity equation: the parity cell plus the data cells it covers.
#[derive(Clone, Debug)]
pub struct Equation {
    /// Row of the parity cell (`n-2` diagonal, `n-1` anti-diagonal).
    pub parity_row: usize,
    /// Column of the parity cell.
    pub parity_col: usize,
    /// Data cells `(row, col)` covered by the equation.
    pub data: Vec<(usize, usize)>,
}

/// One step of a planned decode: the XOR of every *other* cell of the chain
/// whose parity cell is `parity` (that cell included, unless it is the
/// target) is `target`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Step {
    /// The chain's parity cell `(row, col)`, as [`XCode::chain`] takes it.
    pub parity: (usize, usize),
    /// The cell the step yields: a data cell of the chain, or `parity`
    /// itself (a re-encode).
    pub target: (usize, usize),
}

impl XCode {
    /// Creates an X-Code instance; `n` must be prime and at least 3.
    pub fn new(n: usize) -> Result<Self, CodeError> {
        if !is_prime(n) || n < 3 {
            return Err(CodeError::BadGeometry(format!(
                "x-code needs prime n ≥ 3, got {n}"
            )));
        }
        let mut equations = Vec::with_capacity(2 * n);
        for i in 0..n {
            equations.push(Equation {
                parity_row: n - 2,
                parity_col: i,
                data: (0..n - 2).map(|k| (k, (i + k + 2) % n)).collect(),
            });
            equations.push(Equation {
                parity_row: n - 1,
                parity_col: i,
                data: (0..n - 2)
                    .map(|k| (k, (i + n - ((k + 2) % n)) % n))
                    .collect(),
            });
        }
        Ok(XCode { n, equations })
    }

    /// Array dimension (columns = memory nodes).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of data rows per column.
    pub fn data_rows(&self) -> usize {
        self.n - 2
    }

    /// Row index of the diagonal parity.
    pub fn diag_row(&self) -> usize {
        self.n - 2
    }

    /// Row index of the anti-diagonal parity.
    pub fn anti_row(&self) -> usize {
        self.n - 1
    }

    /// The two parity cells that protect data cell `(row, col)`:
    /// `((diag_row, diag_col), (anti_row, anti_col))`.
    ///
    /// Both parity columns differ from `col`, which is what lets Aceso place
    /// a data block's two DELTA blocks on two *other* memory nodes.
    pub fn parity_cells_for(&self, row: usize, col: usize) -> ((usize, usize), (usize, usize)) {
        debug_assert!(row < self.data_rows() && col < self.n);
        let n = self.n;
        let diag_col = (col + n - ((row + 2) % n)) % n;
        let anti_col = (col + row + 2) % n;
        ((self.diag_row(), diag_col), (self.anti_row(), anti_col))
    }

    /// All `2n` parity equations of the array.
    pub fn equations(&self) -> &[Equation] {
        &self.equations
    }

    /// The equation (chain) whose parity cell is `(parity_row, parity_col)`,
    /// as [`XCode::parity_cells_for`] names it.
    pub fn chain(&self, parity_row: usize, parity_col: usize) -> &Equation {
        debug_assert!(parity_row >= self.diag_row() && parity_row < self.n && parity_col < self.n);
        &self.equations[2 * parity_col + (parity_row - self.diag_row())]
    }

    /// Encodes a full stripe: computes both parity rows from the data rows.
    ///
    /// `data[k][j]` is the cell at data row `k`, column `j`; all cells must
    /// share one length. Returns `(diagonal_row, anti_diagonal_row)`, each a
    /// vector of `n` cells.
    pub fn encode(&self, data: &[Vec<Vec<u8>>]) -> Result<ParityRows, CodeError> {
        let n = self.n;
        if data.len() != n - 2 || data.iter().any(|r| r.len() != n) {
            return Err(CodeError::BadGeometry(format!(
                "expected {} rows of {} cells",
                n - 2,
                n
            )));
        }
        let len = data[0][0].len();
        if data.iter().flatten().any(|c| c.len() != len) {
            return Err(CodeError::LengthMismatch);
        }
        let mut diag = vec![vec![0u8; len]; n];
        let mut anti = vec![vec![0u8; len]; n];
        for (k, row) in data.iter().enumerate() {
            for (j, cell) in row.iter().enumerate() {
                let ((_, dc), (_, ac)) = self.parity_cells_for(k, j);
                xor_into(&mut diag[dc], cell);
                xor_into(&mut anti[ac], cell);
            }
        }
        Ok((diag, anti))
    }

    /// Plans a decode from geometry alone: the ordered [`Step`]s that yield
    /// every `wanted` cell `unavailable(row, col)` rules out, each step using
    /// only available cells and targets of earlier steps. Wanted cells that
    /// are available need no step. Chains are tried diagonals first; steps no
    /// wanted cell depends on are dropped. With one column lost each wanted
    /// data cell costs one chain — its diagonal, or its anti-diagonal where
    /// that one shares more cells with the chains before it — so a whole
    /// column reads `(n − 2)²` cells less what the chains share (8 of 9 at
    /// `n = 5`, 20 of 25 at 7, 62 of 81 at 11), and a lone cell its diagonal.
    /// [`CodeError::Unsolvable`] if a wanted cell cannot be peeled — always
    /// the case for a data cell once more than two whole columns are lost.
    pub fn plan(
        &self,
        unavailable: impl Fn(usize, usize) -> bool,
        wanted: impl IntoIterator<Item = (usize, usize)>,
    ) -> Result<Vec<Step>, CodeError> {
        let n = self.n;
        let mut lost: Vec<bool> = (0..n * n).map(|i| unavailable(i / n, i % n)).collect();
        // Peel: a chain with its parity cell in hand and exactly one lost
        // data cell yields that cell.
        let mut peel: Vec<Step> = Vec::new();
        let by_kind = |kind| self.equations.iter().skip(kind).step_by(2);
        while let Some(step) = by_kind(0).chain(by_kind(1)).find_map(|eq| {
            let mut missing = eq.data.iter().filter(|&&(r, c)| lost[r * n + c]);
            match (
                lost[eq.parity_row * n + eq.parity_col],
                missing.next(),
                missing.next(),
            ) {
                (false, Some(&target), None) => Some(Step {
                    parity: (eq.parity_row, eq.parity_col),
                    target,
                }),
                _ => None,
            }
        }) {
            lost[step.target.0 * n + step.target.1] = false;
            peel.push(step);
        }
        // Keep what the wanted cells depend on, walking the peel backwards;
        // a wanted parity cell is re-encoded from its chain's data, last.
        let mut need = vec![false; n * n];
        let mut steps: Vec<Step> = Vec::new();
        for (r, c) in wanted {
            if !unavailable(r, c) || std::mem::replace(&mut need[r * n + c], true) {
                continue;
            }
            if r >= n - 2 {
                let reencode = Step {
                    parity: (r, c),
                    target: (r, c),
                };
                self.sources(reencode)
                    .for_each(|(r, c)| need[r * n + c] = true);
                steps.push(reencode);
            }
        }
        for step in peel.into_iter().rev() {
            if need[step.target.0 * n + step.target.1] {
                self.sources(step).for_each(|(r, c)| need[r * n + c] = true);
                steps.push(step);
            }
        }
        if (0..(n - 2) * n).any(|i| need[i] && lost[i]) {
            return Err(CodeError::Unsolvable);
        }
        steps.reverse();
        // Steps that read no other step's target (one column lost) may each
        // take the other chain through their target when it names fewer
        // cells not fetched yet: greedily, in target order (the same for
        // every lost column), ties keeping the peel's diagonal — the "hybrid
        // recovery" of Xiang et al. (SIGMETRICS 2010), applied to X-Code.
        let in_hand = |s: Step| self.sources(s).all(|(r, c)| !unavailable(r, c));
        if steps.iter().all(|&s| in_hand(s)) {
            let mut fetched = vec![false; n * n];
            steps.sort_by_key(|s| s.target);
            for step in &mut steps {
                let unfetched = |s: Step| self.sources(s).filter(|&(r, c)| !fetched[r * n + c]);
                if step.target.0 < n - 2 {
                    let (diag, anti) = self.parity_cells_for(step.target.0, step.target.1);
                    let parity = if step.parity == diag { anti } else { diag };
                    let other = Step { parity, ..*step };
                    if in_hand(other) && unfetched(other).count() < unfetched(*step).count() {
                        *step = other;
                    }
                }
                self.sources(*step)
                    .for_each(|(r, c)| fetched[r * n + c] = true);
            }
        }
        Ok(steps)
    }

    /// The cells a step XORs: its chain's parity and data cells, minus the
    /// target.
    pub fn sources(&self, step: Step) -> impl Iterator<Item = (usize, usize)> + '_ {
        let eq = self.chain(step.parity.0, step.parity.1);
        let cells = std::iter::once(step.parity).chain(eq.data.iter().copied());
        cells.filter(move |&cell| cell != step.target)
    }

    /// Reconstructs every erased (`None`) cell of a stripe in place: plans
    /// for all of them, then executes the steps.
    ///
    /// `stripe[row][col]`; rows `0..n-2` data, row `n-2` diagonal parity,
    /// row `n-1` anti-diagonal parity. Succeeds for any pattern of erasures
    /// confined to at most two columns (X-Code's guarantee) and for any
    /// other pattern that happens to be peelable.
    pub fn reconstruct(&self, stripe: &mut [Vec<Option<Vec<u8>>>]) -> Result<(), CodeError> {
        let n = self.n;
        if stripe.len() != n || stripe.iter().any(|r| r.len() != n) {
            return Err(CodeError::BadGeometry(format!("stripe must be {n}×{n}")));
        }
        let len = match stripe.iter().flatten().flatten().next() {
            Some(c) => c.len(),
            None => return Err(CodeError::Unsolvable),
        };
        if stripe.iter().flatten().flatten().any(|c| c.len() != len) {
            return Err(CodeError::LengthMismatch);
        }
        let erased = |r: usize, c: usize| stripe[r][c].is_none();
        let all = (0..n * n).map(|i| (i / n, i % n));
        for step in self.plan(erased, all)? {
            let mut acc: Option<Vec<u8>> = None;
            for (r, c) in self.sources(step) {
                // The plan names only cells in hand or already yielded.
                let cell = stripe[r][c].as_ref().ok_or(CodeError::Unsolvable)?;
                match &mut acc {
                    None => acc = Some(cell.clone()),
                    Some(acc) => xor_into(acc, cell),
                }
            }
            stripe[step.target.0][step.target.1] = acc;
        }
        Ok(())
    }

    /// Folds a delta into a parity cell in place: `parity ⊕= delta`.
    ///
    /// By XOR linearity this is all it takes to keep a parity cell
    /// current while writers keep publishing deltas against the stripe
    /// (see the `delta_linearity` test).
    pub fn fold_delta(parity: &mut [u8], delta: &[u8]) -> Result<(), CodeError> {
        if parity.len() != delta.len() {
            return Err(CodeError::LengthMismatch);
        }
        xor_into(parity, delta);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn stripe_for(n: usize, len: usize, seed: u64) -> Vec<Vec<Option<Vec<u8>>>> {
        let code = XCode::new(n).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cell = || {
            let mut v = vec![0; len];
            rng.fill_bytes(&mut v);
            v
        };
        let data: Vec<Vec<Vec<u8>>> = (0..n - 2)
            .map(|_| (0..n).map(|_| cell()).collect())
            .collect();
        let (diag, anti) = code.encode(&data).unwrap();
        let mut stripe: Vec<Vec<Option<Vec<u8>>>> = data
            .into_iter()
            .map(|row| row.into_iter().map(Some).collect())
            .collect();
        stripe.push(diag.into_iter().map(Some).collect());
        stripe.push(anti.into_iter().map(Some).collect());
        stripe
    }

    #[test]
    fn rejects_non_prime() {
        assert!(XCode::new(4).is_err());
        assert!(XCode::new(1).is_err());
        assert!(XCode::new(2).is_err());
        assert!(XCode::new(5).is_ok());
        assert!(XCode::new(7).is_ok());
    }

    #[test]
    fn parity_columns_avoid_own_column() {
        for n in [3usize, 5, 7, 11] {
            let code = XCode::new(n).unwrap();
            for k in 0..n - 2 {
                for j in 0..n {
                    let ((dr, dc), (ar, ac)) = code.parity_cells_for(k, j);
                    assert_eq!(dr, n - 2);
                    assert_eq!(ar, n - 1);
                    assert_ne!(dc, j, "n={n} k={k} j={j}");
                    assert_ne!(ac, j, "n={n} k={k} j={j}");
                }
            }
        }
    }

    #[test]
    fn equations_match_parity_map() {
        // Every data cell appears in exactly one diagonal and one
        // anti-diagonal equation, the ones parity_cells_for names.
        for n in [5usize, 7] {
            let code = XCode::new(n).unwrap();
            for eq in code.equations() {
                for &(r, c) in &eq.data {
                    let ((_, dc), (_, ac)) = code.parity_cells_for(r, c);
                    if eq.parity_row == code.diag_row() {
                        assert_eq!(eq.parity_col, dc);
                    } else {
                        assert_eq!(eq.parity_col, ac);
                    }
                }
                assert_eq!(eq.data.len(), n - 2);
                assert!(std::ptr::eq(code.chain(eq.parity_row, eq.parity_col), eq));
            }
        }
    }

    #[test]
    fn recovers_single_column() {
        for n in [3usize, 5, 7] {
            let full = stripe_for(n, 48, 7);
            for col in 0..n {
                let mut s = full.clone();
                for row in s.iter_mut() {
                    row[col] = None;
                }
                XCode::new(n).unwrap().reconstruct(&mut s).unwrap();
                assert_eq!(s, full, "n={n} col={col}");
            }
        }
    }

    #[test]
    fn recovers_two_columns() {
        for n in [5usize, 7] {
            let full = stripe_for(n, 32, 99);
            for c1 in 0..n {
                for c2 in c1 + 1..n {
                    let mut s = full.clone();
                    for row in s.iter_mut() {
                        row[c1] = None;
                        row[c2] = None;
                    }
                    XCode::new(n).unwrap().reconstruct(&mut s).unwrap();
                    assert_eq!(s, full, "n={n} cols={c1},{c2}");
                }
            }
        }
    }

    #[test]
    fn three_columns_unsolvable() {
        let full = stripe_for(5, 16, 3);
        let mut s = full.clone();
        for row in s.iter_mut() {
            row[0] = None;
            row[1] = None;
            row[2] = None;
        }
        assert!(XCode::new(5).unwrap().reconstruct(&mut s).is_err());
    }

    #[test]
    fn fold_delta_tracks_live_writes() {
        // Take a parity cell of the encoded stripe, then fold in the delta
        // of an overwrite: the result must equal that cell of the stripe
        // encoded from the new data.
        let n = 5;
        let code = XCode::new(n).unwrap();
        let full = stripe_for(n, 32, 13);
        let (k, j) = (1usize, 4usize);
        let ((prow, pcol), _) = code.parity_cells_for(k, j);
        let mut parity = full[prow][pcol].clone().unwrap();

        let newv = vec![0x5Au8; 32];
        let delta: Vec<u8> = full[k][j]
            .as_ref()
            .unwrap()
            .iter()
            .zip(&newv)
            .map(|(a, b)| a ^ b)
            .collect();
        XCode::fold_delta(&mut parity, &delta).unwrap();
        assert!(XCode::fold_delta(&mut parity, &[0u8; 8]).is_err());

        let mut data: Vec<Vec<Vec<u8>>> = (0..n - 2)
            .map(|r| (0..n).map(|c| full[r][c].clone().unwrap()).collect())
            .collect();
        data[k][j] = newv;
        let (diag, anti) = code.encode(&data).unwrap();
        let expect = if prow == code.diag_row() {
            &diag
        } else {
            &anti
        };
        assert_eq!(parity, expect[pcol]);
    }

    #[test]
    fn delta_linearity() {
        // parity(new) = parity(old) ⊕ contributions of Δ — the property
        // behind Aceso's delta-based reclamation.
        let n = 5;
        let code = XCode::new(n).unwrap();
        let full = stripe_for(n, 32, 11);
        let data_old: Vec<Vec<Vec<u8>>> = (0..n - 2)
            .map(|k| (0..n).map(|j| full[k][j].clone().unwrap()).collect())
            .collect();
        let (mut diag, mut anti) = code.encode(&data_old).unwrap();

        let mut data_new = data_old.clone();
        let newv = vec![0xC3u8; 32];
        let delta: Vec<u8> = data_old[1][3]
            .iter()
            .zip(&newv)
            .map(|(a, b)| a ^ b)
            .collect();
        data_new[1][3] = newv;

        let ((_, dc), (_, ac)) = code.parity_cells_for(1, 3);
        xor_into(&mut diag[dc], &delta);
        xor_into(&mut anti[ac], &delta);
        let (d2, a2) = code.encode(&data_new).unwrap();
        assert_eq!(diag, d2);
        assert_eq!(anti, a2);
    }

    /// Any two-column erasure over random data reconstructs exactly.
    #[test]
    fn proptest_two_column_recovery() {
        for seed in 0..64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let full = stripe_for(5, rng.gen_range(1..100), rng.gen());
            let (c1, c2) = (rng.gen_range(0..5), rng.gen_range(0..5));
            let mut s = full.clone();
            for row in s.iter_mut() {
                row[c1] = None;
                row[c2] = None;
            }
            assert_eq!(
                XCode::new(5).unwrap().reconstruct(&mut s),
                Ok(()),
                "seed {seed}"
            );
            assert_eq!(s, full, "seed {seed}");
        }
    }

    /// Random scattered erasures of ≤ 2 cells always recover (they span at
    /// most two columns).
    #[test]
    fn proptest_scattered_cells() {
        for seed in 0..64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let full = stripe_for(5, 24, rng.gen());
            let mut s = full.clone();
            s[rng.gen_range(0..5)][rng.gen_range(0..5)] = None;
            s[rng.gen_range(0..5)][rng.gen_range(0..5)] = None;
            assert_eq!(
                XCode::new(5).unwrap().reconstruct(&mut s),
                Ok(()),
                "seed {seed}"
            );
            assert_eq!(s, full, "seed {seed}");
        }
    }
}
