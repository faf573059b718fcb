//! Store configuration and the per-MN memory map (paper Figure 2).
//!
//! Every MN's region is carved identically:
//!
//! ```text
//! 0              ┌──────────────┐
//!                │ Index Area   │  RACE-style buckets + Index Version
//! meta_base      ├──────────────┤
//!                │ Meta Area    │  table 0: a BlockRecord per stripe cell
//!                │              │  table 1: copy of column col−1's table 0
//!                │              │  table 2: copy of column col−2's table 0
//! block_base     ├──────────────┤
//!                │ Block Area   │  stripe cells (DATA+PARITY) + DELTA pool
//! ckpt.base      ├──────────────┤
//!                │ Checkpoint   │  column col−1's index checkpoint + the
//!                │ Area         │  Index Version it represents
//! baseline.base  ├──────────────┤
//!                │ Baseline     │  the index snapshot this column's last
//!                │ Area         │  round shipped to column col+1
//!                └──────────────┘
//! ```
//!
//! A server WRITEs every record it changes into its own table and into the
//! copies its two right neighbours hold (§3.1); MN recovery reads a dead
//! column's table off one of them. A server's checkpoint round XORs its
//! Index Area against its Baseline Area and ships the delta to its right
//! neighbour, whose server XORs it into its Checkpoint Area (§3.2.1,
//! Figure 3); MN recovery reads a dead column's checkpoint there one-sided.
//! A server's state is its region: its free DELTA blocks are the pool
//! blocks no Delta Addr word of its own table names.

use aceso_blockalloc::BlockLayout;
use aceso_index::IndexLayout;
use aceso_rdma::CostModel;

/// Top-level configuration of an Aceso deployment (one coding group).
#[derive(Clone, Debug)]
pub struct AcesoConfig {
    /// Coding group size = number of MNs = X-Code `n`. Must be prime ≥ 3.
    pub num_mns: usize,
    /// Memory block size in bytes (paper default 2 MB; swept in Figure 20).
    pub block_size: u64,
    /// Stripe arrays per coding group (each contributes `n−2` DATA blocks
    /// and 2 PARITY blocks per MN).
    pub num_arrays: u64,
    /// DELTA pool blocks per MN.
    pub num_delta: u64,
    /// Index bucket groups per MN (24 usable slots each).
    pub index_groups: u64,
    /// How many obsolete marks a client buffers before a bitmap flush RPC.
    pub bitmap_flush_every: usize,
    /// Checkpoint interval in milliseconds when background checkpointing is
    /// enabled; benches usually drive rounds manually for determinism.
    pub ckpt_interval_ms: u64,
    /// Spawn the background checkpoint loop on launch.
    pub auto_checkpoint: bool,
    /// Placement groups per column for elastic migration: the migrator
    /// moves `block_id % elastic_groups` cohorts one at a time, bounding
    /// how much data each rebalance batch copies while client traffic
    /// continues against the rest.
    pub elastic_groups: usize,
    /// NIC cost model for performance reports.
    pub cost: CostModel,
}

impl AcesoConfig {
    /// A laptop-scale configuration for tests and examples: 5 MNs, 64 KB
    /// blocks, a few MB per MN.
    pub fn small() -> Self {
        AcesoConfig {
            num_mns: 5,
            block_size: 64 << 10,
            num_arrays: 8,
            num_delta: 24,
            index_groups: 512,
            bitmap_flush_every: 64,
            ckpt_interval_ms: 500,
            auto_checkpoint: false,
            elastic_groups: 4,
            cost: CostModel::default(),
        }
    }

    /// A benchmark-scale configuration (more arrays, 2 MB paper blocks are
    /// still too large for quick CI — benches override as needed).
    pub fn bench() -> Self {
        AcesoConfig {
            num_arrays: 32,
            num_delta: 64,
            index_groups: 8192,
            ..AcesoConfig::small()
        }
    }

    /// Validates invariants and derives the memory map.
    ///
    /// # Panics
    ///
    /// Panics on invalid geometry (non-prime group size, unaligned block
    /// size) — configurations are static programmer input.
    pub fn memory_map(&self) -> MemoryMap {
        assert!(
            self.block_size.is_multiple_of(64),
            "block size must be 64 B aligned"
        );
        assert!(
            aceso_erasure::XCode::new(self.num_mns).is_ok(),
            "num_mns must be a prime ≥ 3 (X-Code geometry)"
        );
        let index = IndexLayout::new(0, self.index_groups);
        let meta_base = index.size_bytes().next_multiple_of(64);
        let block_layout_probe = BlockLayout {
            n: self.num_mns,
            block_size: self.block_size,
            num_arrays: self.num_arrays,
            num_delta: self.num_delta,
            meta_base,
            block_base: 0, // Fixed up below.
        };
        let block_base =
            (meta_base + block_layout_probe.meta_size()).next_multiple_of(self.block_size.max(64));
        let blocks = BlockLayout {
            block_base,
            ..block_layout_probe
        };
        // Both shaped like the Index Area they copy, version word included.
        let ckpt = IndexLayout::new(block_base + blocks.block_area_size(), self.index_groups);
        let baseline = IndexLayout::new(ckpt.base + ckpt.size_bytes(), self.index_groups);
        MemoryMap {
            index,
            blocks,
            ckpt,
            baseline,
            region_len: (baseline.base + baseline.size_bytes()) as usize,
        }
    }
}

/// The derived per-MN memory map.
#[derive(Clone, Copy, Debug)]
pub struct MemoryMap {
    /// Index Area geometry (base 0).
    pub index: IndexLayout,
    /// Meta + Block area geometry.
    pub blocks: BlockLayout,
    /// Checkpoint Area geometry: the left neighbour's index checkpoint, laid
    /// out as its Index Area is, after the Block Area.
    pub ckpt: IndexLayout,
    /// Baseline Area geometry: the snapshot this column's last checkpoint
    /// round shipped, which its right neighbour's Checkpoint Area holds
    /// once that round landed, laid out as the Index Area is, after the
    /// Checkpoint Area. Its Index Version word is unused.
    pub baseline: IndexLayout,
    /// Total region bytes per MN.
    pub region_len: usize,
}

/// Packs a `(column, offset)` pair into the 48-bit slot-address format.
///
/// Aceso stores *columns* (coding-group positions), not physical node ids,
/// in index slots and metadata records: when a crashed MN is replaced, the
/// replacement assumes the failed column, so every stored address stays
/// valid across recovery. Translation to the current physical node happens
/// at verb-issue time via the store's group map.
pub fn pack_col(col: usize, offset: u64) -> u64 {
    aceso_rdma::GlobalAddr::new(aceso_rdma::NodeId(col as u16), offset).pack48()
}

/// Unpacks a 48-bit slot address into `(column, offset)`.
pub fn unpack_col(packed: u64) -> (usize, u64) {
    let a = aceso_rdma::GlobalAddr::unpack48(packed);
    (a.node.0 as usize, a.offset)
}

/// Per-client feature switches, used by the factor analysis (Figure 13).
#[derive(Clone, Copy, Debug)]
pub struct ClientTuning {
    /// Cache the slot *address* in addition to its value, enabling the
    /// validate-by-reread fast path (§3.5.1, the `+CACHE` step).
    pub cache_slot_addr: bool,
    /// Bound on the per-client index cache (entries). Eviction is CLOCK /
    /// second-chance over a ring of positions in fill order, with a
    /// lookup-only key → position map (see [`crate::cache::IndexCache`]);
    /// 0 disables caching altogether.
    pub cache_capacity: usize,
    /// Commit retry budget before reporting `RetriesExhausted`.
    pub max_retries: usize,
    /// How long (ms) index reads wait for a crashed column's replacement
    /// before surfacing the error. Chaos harnesses shrink this so blocked
    /// clients fail fast instead of stalling a whole matrix cell.
    pub index_wait_ms: u64,
}

impl Default for ClientTuning {
    fn default() -> Self {
        ClientTuning {
            cache_slot_addr: true,
            cache_capacity: 4096,
            max_retries: 10_000,
            index_wait_ms: 10_000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_map_is_consistent() {
        let map = AcesoConfig::small().memory_map();
        // Areas are ordered and non-overlapping.
        assert!(map.index.size_bytes() <= map.blocks.meta_base);
        assert!(map.blocks.meta_base + map.blocks.meta_size() <= map.blocks.block_base);
        assert_eq!(
            map.ckpt.base,
            map.blocks.block_base + map.blocks.block_area_size()
        );
        assert_eq!(map.ckpt.size_bytes(), map.index.size_bytes());
        assert_eq!(map.baseline.base, map.ckpt.base + map.ckpt.size_bytes());
        let end = map.baseline.base + map.baseline.size_bytes();
        assert_eq!(map.region_len as u64, end);
        // Block base is block-aligned so cell offsets stay 64 B aligned.
        assert_eq!(map.blocks.block_base % 64, 0);
    }

    #[test]
    #[should_panic]
    fn non_prime_group_rejected() {
        AcesoConfig {
            num_mns: 4,
            ..AcesoConfig::small()
        }
        .memory_map();
    }

    #[test]
    fn region_fits_everything() {
        let cfg = AcesoConfig::small();
        let map = cfg.memory_map();
        let blocks = map.blocks.blocks_per_node();
        assert_eq!(blocks, cfg.num_arrays * 5 + cfg.num_delta);
        let last_block_end = map.blocks.block_offset((blocks - 1) as u32) + cfg.block_size;
        assert_eq!(last_block_end, map.ckpt.base);
        assert!(map.baseline.index_version_offset() + 8 <= map.region_len as u64);
    }
}
