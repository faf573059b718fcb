//! Client ↔ MN-server RPC protocol.
//!
//! RPC is deliberately coarse-grained and off the critical path (§3.1):
//! block management, free-bitmap flushes, checkpoint control, and the
//! recovery-time scans and fetches. Every KV request itself runs purely
//! over one-sided verbs, and so does every write and read of a block's
//! record: the records live in each MN's Meta Area, and in the two copies
//! its server WRITEs into its right neighbours' Meta Areas, where the
//! stripe book, scrub, CN recovery and MN recovery read them as a degraded
//! SEARCH reads a parity record's head ([`crate::read_records`]), so no
//! request here carries one.

use crate::ckpt::CkptReport;
use crate::kv::DecodedKv;
use aceso_blockalloc::BlockId;
use aceso_index::route_hash;

/// Requests a client (or the recovery orchestrator) sends to an MN server.
#[derive(Clone, Debug)]
pub enum ServerReq {
    /// Allocate a DATA block of the given size class on this MN.
    AllocData {
        /// Requesting client.
        cli_id: u32,
        /// KV slot size in 64 B units.
        slot_len64: u8,
    },
    /// Allocate a DELTA block on this MN (it holds a PARITY cell covering
    /// the given data cell) and register it in the parity record.
    AllocDelta {
        /// Requesting client.
        cli_id: u32,
        /// Size class (mirrors the data block).
        slot_len64: u8,
        /// Stripe array of the covered data cell.
        array: u64,
        /// Row of the covered data cell.
        row: usize,
        /// Which of this MN's parity rows covers it (`n−2` or `n−1`).
        parity_row: usize,
    },
    /// The client filled this DATA block: stamp the current Index Version.
    DataFilled {
        /// The filled block.
        block: BlockId,
    },
    /// Encode the registered DELTA block for `(array, row)` into this MN's
    /// PARITY cell at `parity_row`, then free the delta.
    EncodeDelta {
        /// Stripe array.
        array: u64,
        /// Covered data-cell row.
        row: usize,
        /// This MN's parity row.
        parity_row: usize,
    },
    /// Bulk obsolete-bit flush: `(block, obsolete KVs)`, each KV named by
    /// the 64 B unit of the block it starts at. The server turns a unit
    /// into a bitmap bit with the block record's own `slot_len64`.
    BitmapFlush {
        /// Per-block first units of obsolete KVs.
        updates: Vec<(BlockId, Vec<u32>)>,
    },
    /// Fetch the server's local backup copy of a reused block (§3.3.3),
    /// used by CN crash recovery.
    GetOldCopy {
        /// Which block.
        block: BlockId,
    },
    /// Recovery's Index tier: scan this MN's new DATA blocks (Index Version
    /// 0 or ≥ `since_iv`) for the KVs routed to `of_column`, line by line.
    ScanNew {
        /// The column being recovered.
        of_column: usize,
        /// The Index Version of its checkpoint.
        since_iv: u64,
    },
    /// Recovery: XOR the listed blocks into `buf` and answer with it — a
    /// decode step or a parity chain folded by a survivor holding part of
    /// it, so the replacement receives one block, not the chain. Each source is read
    /// where clients read it: this MN's own cells from its memory, the
    /// others' one-sided.
    Fold {
        /// `pack_col(column, region offset)` of each block.
        sources: Vec<u64>,
        /// The caller's recycled block buffer, handed back as the answer
        /// (endpoints are caller-runs: it moves, nothing is copied).
        buf: Vec<u8>,
    },
    /// Run one checkpoint round now (store-driven tick; also used by the
    /// background loop's leader).
    CkptRound,
    /// Checkpoint delta arriving from the left-neighbour column.
    CkptDelta {
        /// Sender's column.
        from_column: usize,
        /// LZ-compressed XOR delta.
        compressed: Vec<u8>,
        /// Uncompressed delta length.
        raw_len: usize,
        /// The Index Version this checkpoint represents.
        index_version: u64,
    },
    /// Recovery: fetch the checkpoint this server holds for `of_column`.
    GetCheckpoint {
        /// The failed column.
        of_column: usize,
    },
    /// Post-recovery: `replaced`, one of the two columns holding a copy of
    /// this server's records, is a fresh node. Re-write the whole record
    /// table into it and, if it is the right neighbour, make the next
    /// checkpoint round a full one.
    ResetReplication {
        /// The replaced column.
        replaced: usize,
    },
    /// Elastic migration: copy the given block-area byte ranges onto the
    /// migration target (installed out-of-band via
    /// [`MnServer::set_migration`](crate::server::MnServer::set_migration)).
    /// Running inside the RPC loop serializes the copy against every other
    /// server-side mutation of those ranges.
    MigrateBatch {
        /// `(region offset, length)` ranges to copy.
        ranges: Vec<(u64, usize)>,
    },
    /// Elastic migration: move this column's PARITY cells onto the target —
    /// quiescent stripes are *re-encoded* from the live data cells, busy
    /// ones byte-copied — then flip parity primaries to the target.
    MigrateParity,
    /// Elastic migration: copy the Index and Meta areas onto the target and
    /// stop serving; the migrator republishes the column on the target.
    MigrateFinish,
}

/// Responses.
#[derive(Clone, Debug)]
pub enum ServerResp {
    /// Generic success.
    Ok,
    /// Request failed (reason for logs/tests).
    Err(String),
    /// DATA block allocated.
    DataAllocated {
        /// The block.
        block: BlockId,
        /// Stripe array of the cell.
        array: u64,
        /// Row of the cell.
        row: usize,
        /// Reused (reclaimed) block? If so the old Free Bitmap follows.
        reused: bool,
        /// Old obsolete bits for a reused block.
        old_bitmap: Option<Vec<u8>>,
    },
    /// DELTA block allocated.
    DeltaAllocated {
        /// The block.
        block: BlockId,
    },
    /// Backup copy of a reused block (None if already discarded).
    OldCopy {
        /// Raw block bytes.
        bytes: Option<Vec<u8>>,
    },
    /// What [`ServerReq::ScanNew`] found, one new DATA block at a time in
    /// block order, and the 64 B lines of them the handler read.
    Scanned {
        /// `(block id, its scan)`.
        blocks: Vec<(BlockId, ScannedBlock)>,
        /// Lines read.
        lines: u64,
    },
    /// What [`ServerReq::Fold`] made of its sources: their XOR, or the
    /// fabric error of a source it could not read.
    Folded {
        /// The caller's buffer holding the XOR.
        block: Result<Vec<u8>, aceso_rdma::RdmaError>,
    },
    /// Checkpoint round finished.
    CkptDone {
        /// Per-step measurements.
        report: CkptReport,
    },
    /// Checkpoint delta applied (receiver-side timings, µs).
    CkptApplied {
        /// LZ decompression time.
        decompress_us: f64,
        /// XOR-apply time.
        xor_us: f64,
    },
    /// The checkpoint held for a column.
    Checkpoint {
        /// Raw (uncompressed) index bytes.
        data: Vec<u8>,
        /// Its Index Version.
        index_version: u64,
    },
}

impl ServerResp {
    /// Unwraps `Ok`, surfacing protocol violations as store errors.
    pub fn expect_ok(self) -> crate::Result<()> {
        match self {
            ServerResp::Ok => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Unwraps `Scanned`, surfacing any other answer as a store error.
    pub fn expect_scanned(self) -> crate::Result<(Vec<(BlockId, ScannedBlock)>, u64)> {
        match self {
            ServerResp::Scanned { blocks, lines } => Ok((blocks, lines)),
            other => Err(unexpected(other)),
        }
    }

    /// Unwraps `OldCopy`: the backup of a reused block, `None` for a fresh
    /// one.
    pub fn expect_old_copy(self) -> crate::Result<Option<Vec<u8>>> {
        match self {
            ServerResp::OldCopy { bytes } => Ok(bytes),
            other => Err(unexpected(other)),
        }
    }

    /// Unwraps `Folded`: the XOR, or the source's fabric error.
    pub fn expect_folded(self) -> crate::Result<Vec<u8>> {
        match self {
            ServerResp::Folded { block } => Ok(block?),
            other => Err(unexpected(other)),
        }
    }
}

fn unexpected(resp: ServerResp) -> crate::StoreError {
    debug_assert!(false, "unexpected rpc response: {resp:?}");
    crate::StoreError::Rdma(aceso_rdma::RdmaError::RpcClosed)
}

/// Wire bytes of a [`ServerReq::ScanNew`]: the column and the Index Version.
pub const SCAN_NEW_REQ_BYTES: usize = 16;

/// Whether a DATA block whose record carries `index_version` is *new* to a
/// checkpoint of Index Version `since_iv` — still open (0), or filled since:
/// the blocks recovery's Index tier scans.
pub fn is_new(index_version: u64, since_iv: u64) -> bool {
    index_version == 0 || index_version >= since_iv
}

/// One DATA block's slots as a KV scan judged them for one column: what
/// [`ServerReq::ScanNew`] answers per block, and what recovery's Index tier
/// makes of a block it decoded itself.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScannedBlock {
    /// Slot size in 64 B units.
    pub slot_len64: u8,
    /// KV pairs that decoded, invalidated ones included.
    pub decoded: usize,
    /// One bit per slot: a live KV routed to another column.
    pub foreign: Vec<u8>,
    /// `(slot, slot version, key)` of each live KV routed to the column.
    pub routed: Vec<(usize, u64, Vec<u8>)>,
}

impl ScannedBlock {
    /// Nothing found yet in `block_bytes` of slots of `slot_len64` units.
    pub fn new(slot_len64: u8, block_bytes: usize) -> Self {
        let slots = block_bytes.checked_div(slot_len64 as usize * 64);
        ScannedBlock {
            slot_len64,
            foreign: vec![0; slots.unwrap_or(0).div_ceil(8)],
            ..ScannedBlock::default()
        }
    }

    /// Takes the KV that decoded in `slot`: unless it is invalidated, it is
    /// routed to `of_column` of an `n`-column group (`route_hash % n`), or
    /// foreign.
    pub fn push(&mut self, slot: usize, kv: DecodedKv, n: usize, of_column: usize) {
        self.decoded += 1;
        let ours = route_hash(kv.key) % n as u64 == of_column as u64;
        if !kv.is_invalidated() && ours {
            self.routed.push((slot, kv.slot_version, kv.key.to_vec()));
        } else if !kv.is_invalidated() {
            self.foreign[slot / 8] |= 1 << (slot % 8);
        }
    }

    /// Encoded size with its block id: id (4), class (1), decoded and
    /// routed counts (2 + 2), the bitmap, and per routed KV its slot (2),
    /// slot version (8), key length (2) and key.
    pub fn wire_len(&self) -> usize {
        let kvs: usize = self.routed.iter().map(|(_, _, key)| 12 + key.len()).sum();
        9 + self.foreign.len() + kvs
    }
}
