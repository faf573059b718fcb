//! Parity scrubbing: verify the erasure-coding invariants of every stripe.
//!
//! Production stores scrub their redundancy in the background to catch
//! silent corruption before a failure forces a decode. This scrubber
//! checks, for every stripe array of the coding group:
//!
//! 1. **Parity equations** — each PARITY cell equals the XOR of the
//!    *encoded view* of the data cells its equation covers, where the
//!    encoded view of a cell with a pending delta is `content ⊕ delta`
//!    and of an unencoded cell is zero (§3.3.2's bookkeeping).
//! 2. **Delta-copy agreement** — the two delta copies of every unfilled
//!    DATA cell hold identical bytes (clients write both in one doorbell
//!    batch; divergence means a torn write CN recovery has not yet
//!    repaired).
//!
//! The same checker doubles as a test oracle: integration tests scrub
//! after every workload and recovery to prove decodability without
//! actually failing a node. [`parity_scrub`], [`replica_agreement`] and
//! [`IvWatch`] are the store-level invariants the model checker
//! (`aceso-model`) and [`crate::AcesoEngine`]'s `check` judge, one
//! violation string each.

use crate::config::unpack_col;
use crate::store::AcesoStore;
use crate::stripe::{read_records, StripeBook};
use crate::Result;
use aceso_blockalloc::{Role, RECORD_TABLES};
use aceso_erasure::xor_into;
use aceso_rdma::GlobalAddr;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Outcome of one scrub pass.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Stripe arrays examined.
    pub arrays_checked: usize,
    /// Parity cells whose equation held.
    pub parity_ok: usize,
    /// Parity cells whose equation failed — decode would corrupt data.
    pub parity_mismatch: usize,
    /// Data cells whose two delta copies disagree.
    pub delta_copy_mismatch: usize,
    /// Human-readable location of each mismatch (chaos counterexamples).
    pub mismatches: Vec<String>,
}

impl ScrubReport {
    /// Whether every invariant held.
    pub fn is_clean(&self) -> bool {
        self.parity_mismatch == 0 && self.delta_copy_mismatch == 0
    }
}

/// Scrubs every allocated stripe of the coding group.
///
/// Quiesce writers first (or accept false positives from in-flight
/// writes): the scrubber reads cells one block at a time, so a concurrent
/// overwrite can straddle the reads.
pub fn scrub(store: &Arc<AcesoStore>) -> Result<ScrubReport> {
    let map = store.map;
    let n = store.cfg.num_mns;
    let bs = map.blocks.block_size as usize;
    let dir = store.directory();
    let dm = store.cluster.background_client();
    let mut report = ScrubReport::default();

    // The arrays in use, from every column — and only then their parity
    // records, also from every column: an array's parity can sit on a
    // column lower than all of its data blocks.
    let mut arrays: BTreeSet<u64> = BTreeSet::new();
    for c in 0..n {
        let recs = read_records(store, &dm, c, 0, map.blocks.record_ids())?;
        let data = recs.into_iter().filter(|rec| rec.role == Role::Data);
        arrays.extend(data.map(|rec| rec.stripe_array));
    }
    let book = StripeBook::fetch(store, &dm, arrays.iter().copied(), None)?;

    let read_block = |col: usize, off: u64| -> Result<Vec<u8>> {
        Ok(dm.read_vec(GlobalAddr::new(dir.node_of(col), off), bs)?)
    };

    for &array in &arrays {
        report.arrays_checked += 1;
        // Delta-copy agreement per data cell.
        for r in 0..n - 2 {
            for c in 0..n {
                let mut copies = book.delta_copies(array, r, c);
                if let (Some((c1, o1)), Some((c2, o2))) = (copies.next(), copies.next()) {
                    let b1 = read_block(c1, o1)?;
                    let b2 = read_block(c2, o2)?;
                    if b1 != b2 {
                        report.delta_copy_mismatch += 1;
                        let diff = b1.iter().zip(&b2).filter(|(a, b)| a != b).count();
                        report.mismatches.push(format!(
                            "delta copies of cell (array {array}, r {r}, c {c}) \
                             disagree: col {c1}@{o1:#x} vs col {c2}@{o2:#x}, \
                             {diff} bytes differ"
                        ));
                    }
                }
            }
        }
        // Parity equations, each against its own PARITY record.
        for eq in book.xcode.equations() {
            let Some(prec) = book.parity(array, eq.parity_row, eq.parity_col) else {
                continue; // Parity never allocated: nothing encoded yet.
            };
            let pid = map.blocks.cell_block_id(array, eq.parity_row);
            let actual = read_block(eq.parity_col, map.blocks.block_offset(pid))?;
            let mut expect = vec![0u8; bs];
            for &(r, c) in &eq.data {
                if prec.xor_map & (1 << r) == 0 {
                    continue; // Unencoded: contributes zero.
                }
                let did = map.blocks.cell_block_id(array, r);
                let mut cell = read_block(c, map.blocks.block_offset(did))?;
                if prec.delta_addr[r] != 0 {
                    let (dc, doff) = unpack_col(prec.delta_addr[r]);
                    let delta = read_block(dc, doff)?;
                    xor_into(&mut cell, &delta);
                }
                xor_into(&mut expect, &cell);
            }
            if expect == actual {
                report.parity_ok += 1;
            } else {
                report.parity_mismatch += 1;
                let diff = expect.iter().zip(&actual).filter(|(a, b)| a != b).count();
                report.mismatches.push(format!(
                    "parity equation (array {array}, prow {}, pcol {}) fails: \
                     {diff} bytes differ",
                    eq.parity_row, eq.parity_col
                ));
            }
        }
    }
    let obs = store.obs();
    if obs.is_enabled() {
        obs.add("scrub.runs", 1);
        obs.add("scrub.arrays", report.arrays_checked as u64);
        obs.add("scrub.parity_ok", report.parity_ok as u64);
        obs.add(
            "scrub.mismatches",
            (report.parity_mismatch + report.delta_copy_mismatch) as u64,
        );
    }
    Ok(report)
}

/// **parity-scrub** — after full recovery [`scrub()`] finds every parity
/// equation and delta pair clean. Flush the clients' buffered bitmaps
/// first, fenced from the scrub's reads by a trace barrier, so the scrub
/// sees the truth.
pub fn parity_scrub(store: &Arc<AcesoStore>, violations: &mut Vec<String>) {
    match scrub(store) {
        Ok(r) if r.is_clean() => {}
        Ok(r) => violations.push(format!("scrub dirty: {r:?}")),
        Err(e) => violations.push(format!("scrub: {e}")),
    }
}

/// **meta-replica-agreement** — every live column's record table equals both
/// of its Meta Area copies on live holders (§3.1), field for field: an MN
/// recovery of the column would read its records back from either. One
/// violation per column, holder and block that differ. Not part of
/// [`scrub()`], which the benchmark times.
pub fn replica_agreement(store: &Arc<AcesoStore>, violations: &mut Vec<String>) {
    let n = store.cfg.num_mns;
    let dm = store.cluster.background_client();
    let read = |col, copy| read_records(store, &dm, col, copy, store.map.blocks.record_ids());
    let mut judge = || -> aceso_rdma::Result<()> {
        for col in (0..n).filter(|&c| store.col_alive(c)) {
            let own = read(col, 0)?;
            for copy in 1..RECORD_TABLES {
                let holder = (col + copy) % n;
                if !store.col_alive(holder) {
                    continue;
                }
                for (id, (want, got)) in own.iter().zip(read(col, copy)?).enumerate() {
                    if got != *want {
                        violations.push(format!(
                            "col {col}'s record of block {id} differs on holder {holder}: \
                             {:?} held, {:?} own",
                            got.role, want.role
                        ));
                    }
                }
            }
        }
        Ok(())
    };
    if let Err(e) = judge() {
        violations.push(format!("meta replica agreement: {e}"));
    }
}

/// **iv-monotonicity** — no column's Index Version moves backwards across
/// a kill and its recovery. Captured once every column has a restorable
/// checkpoint, checked after recovery completes; columns are stable across
/// elastic migrations (the directory re-homes them), so the comparison is
/// per column.
#[derive(Clone, Debug, Default)]
pub struct IvWatch(pub Vec<u64>);

impl IvWatch {
    fn read(store: &AcesoStore) -> Vec<u64> {
        (0..store.cfg.num_mns)
            .map(|col| {
                let s = store.server(col);
                s.index.local_index_version(&s.node.region)
            })
            .collect()
    }

    /// Records every column's current Index Version.
    pub fn capture(store: &AcesoStore) -> Self {
        IvWatch(Self::read(store))
    }

    /// Pushes one violation per column whose Index Version is now below
    /// the captured one.
    pub fn check(&self, store: &AcesoStore, violations: &mut Vec<String>) {
        for (col, (pre, post)) in self.0.iter().zip(Self::read(store)).enumerate() {
            if post < *pre {
                violations.push(format!(
                    "index version regressed on col {col}: {pre} -> {post}"
                ));
            }
        }
    }
}
