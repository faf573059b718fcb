//! The stripe book: what the PARITY records say about a stripe's cells.
//!
//! Everything that walks redundancy — [`crate::scrub()`], recovery's planned
//! decode, the parity rebuild and CN recovery — needs the same facts about
//! a data cell `(array, r, c)`, and all of them live in the records of the
//! two PARITY cells covering it (§3.3.2's bookkeeping). The book fetches
//! those records once, for *every* column of the arrays asked for, and
//! answers three questions:
//!
//! 1. [`parity`](StripeBook::parity) — one chain's record: which of its
//!    cells are folded in (encoded view `content ⊕ pending delta`; an
//!    unfolded cell contributes zero) and which have a delta registered.
//!    A block close is two `EncodeDelta` RPCs, so a cell's two records may
//!    disagree; whoever folds a chain asks *that chain's* record.
//! 2. [`delta_copies`](StripeBook::delta_copies) — where are the cell's
//!    registered delta copies?
//! 3. [`trusted`](StripeBook::trusted) — may bytes hosted on that column —
//!    delta copies, PARITY cells — be believed right now?
//!
//! Every record is read where it lives, in its column's Meta Area, with
//! one-sided READs ([`read_records`]) — one per record for the book, one
//! per column for scrub's and CN recovery's column-wide lists, and for MN
//! recovery one per dead column off one of the two copies its right
//! neighbours hold — as a degraded SEARCH reads a parity record's head
//! (`client/search.rs`). The owning server keeps no other copy: its
//! handlers change records in that table ([`MnServer::records`]).

use crate::config::unpack_col;
use crate::server::MnServer;
use crate::store::AcesoStore;
use aceso_blockalloc::{BlockId, BlockLayout, BlockRecord, Role};
use aceso_erasure::XCode;
use aceso_rdma::{DmClient, GlobalAddr, RdmaError};
use std::collections::HashMap;
use std::ops::Range;

/// Where copy `copy` of column `col`'s record of block `id` lives (see
/// [`read_records`]).
pub(crate) fn record_addr(store: &AcesoStore, col: usize, copy: usize, id: BlockId) -> GlobalAddr {
    let holder = store.directory().node_of((col + copy) % store.cfg.num_mns);
    GlobalAddr::new(holder, store.map.blocks.record_offset_in(copy, id))
}

/// The records of blocks `ids` of column `col`, read with one READ out of
/// copy `copy` of them: copy 0 is `col`'s own record table, copy `d` ∈
/// {1, 2} table `d` of column `col + d`, which `col`'s server keeps in step
/// one-sided. Records of consecutive blocks lie back to back, so one
/// block's record is `record_bytes()` and a whole table one read of
/// `ids = record_ids()`; a range past the table is a caller's bug.
pub fn read_records(
    store: &AcesoStore,
    dm: &DmClient,
    col: usize,
    copy: usize,
    ids: Range<BlockId>,
) -> aceso_rdma::Result<Vec<BlockRecord>> {
    let (blocks, len) = (store.map.blocks, store.map.blocks.record_bytes() as usize);
    debug_assert!(ids.start < ids.end && ids.end <= blocks.record_ids().end);
    let at = record_addr(store, col, copy, ids.start);
    let bytes = dm.read_vec(at, ids.len() * len)?;
    Ok(decode_records(&bytes, blocks).collect())
}

/// The records of a table's bytes, in block order.
pub(crate) fn decode_records(
    bytes: &[u8],
    blocks: BlockLayout,
) -> impl Iterator<Item = BlockRecord> + '_ {
    let records = bytes.chunks_exact(blocks.record_bytes() as usize);
    records.map(move |record| BlockRecord::decode(record, blocks.block_size))
}

/// The PARITY records of a set of stripe arrays, across all columns.
pub(crate) struct StripeBook {
    /// The coding group's geometry.
    pub xcode: XCode,
    /// `(array, parity row, parity col)` → record, allocated cells only.
    parity: HashMap<(u64, usize, usize), BlockRecord>,
    untrusted: Vec<usize>,
}

impl StripeBook {
    /// Reads both PARITY records of every column for each of `arrays`, one
    /// READ each, all in one batch. `local` is a replacement server
    /// mid-recovery: its records are read in place (the Index tier runs
    /// before it is published) and bytes hosted on its column are not
    /// trusted. A column the fabric reports unreachable contributes no
    /// record — its cells read as unencoded, delta-less, like unallocated
    /// parity; any other failure is the caller's.
    pub fn fetch(
        store: &AcesoStore,
        dm: &DmClient,
        arrays: impl IntoIterator<Item = u64>,
        local: Option<&MnServer>,
    ) -> crate::Result<Self> {
        let n = store.cfg.num_mns;
        let blocks = store.map.blocks;
        let mut parity = HashMap::new();
        let rows = arrays.into_iter().flat_map(|a| [(a, n - 2), (a, n - 1)]);
        let cells = rows.flat_map(|(a, prow)| (0..n).map(move |c| (a, prow, c)));
        dm.batch(|dm| {
            for (array, prow, c) in cells {
                let pid = blocks.cell_block_id(array, prow);
                let rec = match local {
                    Some(s) if s.column == c => s.records.lock().get(pid),
                    _ => match read_records(store, dm, c, 0, pid..pid + 1) {
                        Err(RdmaError::NodeUnreachable(_)) => continue,
                        read => read?.remove(0),
                    },
                };
                if rec.role == Role::Parity {
                    parity.insert((array, prow, c), rec);
                }
            }
            Ok::<_, RdmaError>(())
        })?;
        // A column in a degraded window serves zeros where its delta copies
        // were (the parity rebuild re-materializes them). A migrating column
        // is not one: the dual-write mirror keeps the source byte-fresh.
        let mut untrusted = store.degraded_columns();
        untrusted.extend(local.map(|s| s.column));
        Ok(StripeBook {
            // `AcesoConfig::memory_map` validated the geometry at launch.
            xcode: XCode::new(n).expect("prime n, checked at launch"),
            parity,
            untrusted,
        })
    }

    /// The record of PARITY cell `(prow, pcol)`, if it is allocated.
    pub fn parity(&self, array: u64, prow: usize, pcol: usize) -> Option<&BlockRecord> {
        self.parity.get(&(array, prow, pcol))
    }

    /// `(host column, region offset)` of each registered delta copy of data
    /// cell `(r, c)`: the diagonal parity's first, then the anti-diagonal's.
    pub fn delta_copies(
        &self,
        array: u64,
        r: usize,
        c: usize,
    ) -> impl Iterator<Item = (usize, u64)> + '_ {
        let (diag, anti) = self.xcode.parity_cells_for(r, c);
        [diag, anti].into_iter().filter_map(move |(prow, pcol)| {
            let packed = self.parity(array, prow, pcol)?.delta_addr[r];
            (packed != 0).then(|| unpack_col(packed))
        })
    }

    /// Whether delta and PARITY bytes hosted on `col` may be believed (DATA
    /// cells are read regardless — ROADMAP item 1's "restored" fact is what
    /// will rule those out, through the decode plan's `unavailable` input).
    pub fn trusted(&self, col: usize) -> bool {
        !self.untrusted.contains(&col)
    }
}
