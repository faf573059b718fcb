//! Geometry of one MN's Meta Area and Block Area.

use crate::record::record_bytes;

/// Record tables in one Meta Area: table 0 holds the MN's own records,
/// table `d` ∈ {1, 2} a copy of the records of the column `d` to its left —
/// the Meta Area's two replicas (§3.1), written one-sided by their owner.
pub const RECORD_TABLES: usize = 3;

/// Index of a block within one MN's Block Area.
pub type BlockId = u32;

/// What a given block id is, geometrically.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CellKind {
    /// Data cell: (stripe array, row).
    Data {
        /// Stripe array index.
        array: u64,
        /// Row within the column, `0..n−2`.
        row: usize,
    },
    /// Parity cell: (stripe array, parity row `n−2` or `n−1`).
    Parity {
        /// Stripe array index.
        array: u64,
        /// Parity row (`n−2` diagonal, `n−1` anti-diagonal).
        row: usize,
    },
    /// Block from the DELTA pool.
    Delta {
        /// Pool index.
        pool_index: u64,
    },
}

/// Geometry of one MN's Meta + Block areas. All MNs of a coding group share
/// one `BlockLayout` (their regions are laid out identically).
#[derive(Clone, Copy, Debug)]
pub struct BlockLayout {
    /// Coding group size = X-Code `n` (prime).
    pub n: usize,
    /// Block size in bytes.
    pub block_size: u64,
    /// Number of stripe arrays.
    pub num_arrays: u64,
    /// DELTA pool blocks per MN.
    pub num_delta: u64,
    /// Byte offset of the Meta Area within the region.
    pub meta_base: u64,
    /// Byte offset of the Block Area within the region.
    pub block_base: u64,
}

impl BlockLayout {
    /// Blocks per MN: `n` cells per array plus the delta pool.
    pub fn blocks_per_node(&self) -> u64 {
        u64::from(self.record_ids().end) + self.num_delta
    }

    /// The blocks with a record: the stripe cells, `n` per array, ids first
    /// in the Block Area. A DELTA-pool block has none — the Delta Addr word
    /// of the PARITY record it is folded into registers it.
    pub fn record_ids(&self) -> std::ops::Range<BlockId> {
        0..(self.num_arrays * self.n as u64) as BlockId
    }

    /// DATA cells per MN.
    pub fn data_blocks_per_node(&self) -> u64 {
        self.num_arrays * (self.n as u64 - 2)
    }

    /// One record's size in bytes ([`record_bytes`] of the block size):
    /// the stride of every record table.
    pub fn record_bytes(&self) -> u64 {
        record_bytes(self.block_size)
    }

    /// One record table's size in bytes: a record per stripe cell.
    pub fn table_size(&self) -> u64 {
        self.record_ids().len() as u64 * self.record_bytes()
    }

    /// Meta Area size in bytes: [`RECORD_TABLES`] tables back to back.
    pub fn meta_size(&self) -> u64 {
        RECORD_TABLES as u64 * self.table_size()
    }

    /// Block Area size in bytes.
    pub fn block_area_size(&self) -> u64 {
        self.blocks_per_node() * self.block_size
    }

    /// Block id of stripe cell `(array, row)`; rows `0..n` (data + parity).
    pub fn cell_block_id(&self, array: u64, row: usize) -> BlockId {
        debug_assert!(array < self.num_arrays && row < self.n);
        (array * self.n as u64 + row as u64) as BlockId
    }

    /// Block id of DELTA pool entry `i`.
    pub fn delta_block_id(&self, i: u64) -> BlockId {
        debug_assert!(i < self.num_delta);
        self.record_ids().end + i as BlockId
    }

    /// Classifies a block id.
    pub fn kind_of(&self, id: BlockId) -> CellKind {
        let cells = self.record_ids().end;
        if id >= cells {
            let pool_index = u64::from(id - cells);
            return CellKind::Delta { pool_index };
        }
        let (array, row) = (u64::from(id) / self.n as u64, id as usize % self.n);
        if row < self.n - 2 {
            CellKind::Data { array, row }
        } else {
            CellKind::Parity { array, row }
        }
    }

    /// Byte offset (in the region) of block `id`.
    pub fn block_offset(&self, id: BlockId) -> u64 {
        debug_assert!((id as u64) < self.blocks_per_node());
        self.block_base + id as u64 * self.block_size
    }

    /// Byte offset (in the region) of block `id`'s metadata record.
    pub fn record_offset(&self, id: BlockId) -> u64 {
        self.record_offset_in(0, id)
    }

    /// Byte offset (in the region) of block `id`'s record in record table
    /// `table` (see [`RECORD_TABLES`]); `id` is one of [`Self::record_ids`].
    pub fn record_offset_in(&self, table: usize, id: BlockId) -> u64 {
        debug_assert!(table < RECORD_TABLES && self.record_ids().contains(&id));
        self.meta_base + table as u64 * self.table_size() + id as u64 * self.record_bytes()
    }

    /// Which block (and byte within it) a Block Area offset falls into.
    pub fn locate(&self, offset: u64) -> Option<(BlockId, u64)> {
        if offset < self.block_base || offset >= self.block_base + self.block_area_size() {
            return None;
        }
        let rel = offset - self.block_base;
        Some(((rel / self.block_size) as BlockId, rel % self.block_size))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> BlockLayout {
        BlockLayout {
            n: 5,
            block_size: 1 << 16,
            num_arrays: 4,
            num_delta: 8,
            meta_base: 1 << 20,
            block_base: 2 << 20,
        }
    }

    #[test]
    fn counts() {
        let l = layout();
        assert_eq!(l.blocks_per_node(), 4 * 5 + 8);
        assert_eq!(l.data_blocks_per_node(), 12);
        assert_eq!(l.block_area_size(), 28 << 16);
        assert_eq!(l.record_bytes(), 256 + 1024 / 8);
        assert_eq!(l.record_ids(), 0..4 * 5);
        assert_eq!(l.table_size(), 20 * l.record_bytes());
        assert_eq!(l.meta_size(), 3 * l.table_size());
    }

    #[test]
    fn ids_roundtrip_kinds() {
        let l = layout();
        for a in 0..4u64 {
            for r in 0..5usize {
                let id = l.cell_block_id(a, r);
                match l.kind_of(id) {
                    CellKind::Data { array, row } => {
                        assert!(r < 3);
                        assert_eq!((array, row), (a, r));
                    }
                    CellKind::Parity { array, row } => {
                        assert!(r >= 3);
                        assert_eq!((array, row), (a, r));
                    }
                    CellKind::Delta { .. } => panic!("stripe cell classified as delta"),
                }
            }
        }
        for i in 0..8u64 {
            assert_eq!(
                l.kind_of(l.delta_block_id(i)),
                CellKind::Delta { pool_index: i }
            );
        }
    }

    #[test]
    fn offsets_disjoint_and_locatable() {
        let l = layout();
        let mut prev_end = l.block_base;
        for id in 0..l.blocks_per_node() as BlockId {
            let off = l.block_offset(id);
            assert_eq!(off, prev_end);
            prev_end = off + l.block_size;
            assert_eq!(l.locate(off), Some((id, 0)));
            assert_eq!(l.locate(off + 17), Some((id, 17)));
        }
        assert_eq!(l.locate(l.block_base - 1), None);
        assert_eq!(l.locate(prev_end), None);
    }

    #[test]
    fn record_tables_tile_the_meta_area() {
        let l = layout();
        let last = l.record_ids().end - 1;
        let mut prev_end = l.meta_base;
        for table in 0..RECORD_TABLES {
            assert_eq!(l.record_offset_in(table, 0), prev_end);
            prev_end = l.record_offset_in(table, last) + l.record_bytes();
        }
        assert_eq!(prev_end, l.meta_base + l.meta_size());
        assert_eq!(l.record_offset(last), l.record_offset_in(0, last));
    }
}
