//! The MN server's DELTA pool.
//!
//! Clients manage their own coarse-grained memory blocks, allocated from
//! MN servers by RPC when space runs out (§3.2.3). A DATA cell is granted
//! off its column's record table, which alone says which cells are FREE
//! and which filled ones are reclamation candidates (§3.3.3). DELTA blocks
//! come from a separate pool with no records, kept here, and are
//! physically freed as soon as they are encoded into their PARITY block.

use crate::layout::{BlockId, BlockLayout, CellKind};
use crate::record::{BlockRecord, Role};
use aceso_rdma::GlobalAddr;
use std::collections::VecDeque;

/// The free list of one MN's DELTA pool.
pub struct Allocator {
    layout: BlockLayout,
    free_delta: VecDeque<BlockId>,
}

impl Allocator {
    /// Builds the initial free list from the layout: the whole DELTA pool.
    pub fn new(layout: BlockLayout) -> Self {
        Self::free_where(layout, |_| true)
    }

    /// Rebuilds the free list from a restored record table, in block order
    /// (MN recovery): a DELTA-pool block, which has no record, is free iff
    /// no PARITY record's Delta Addr names it.
    pub fn rebuild(layout: BlockLayout, records: impl IntoIterator<Item = BlockRecord>) -> Self {
        let mut used = vec![false; layout.blocks_per_node() as usize];
        for rec in records.into_iter().filter(|rec| rec.role == Role::Parity) {
            let named = rec.delta_addr.iter().filter(|&&a| a != 0);
            for (delta, _) in named.filter_map(|&a| layout.locate(GlobalAddr::unpack48(a).offset)) {
                used[delta as usize] = true;
            }
        }
        Self::free_where(layout, |id| !used[id as usize])
    }

    /// A free list holding, in id order, every DELTA-pool block `free`
    /// takes as free.
    fn free_where(layout: BlockLayout, free: impl Fn(BlockId) -> bool) -> Self {
        let pool = (0..layout.num_delta).map(|i| layout.delta_block_id(i));
        Allocator {
            layout,
            free_delta: pool.filter(|&id| free(id)).collect(),
        }
    }

    /// Allocates a DELTA block.
    pub fn alloc_delta(&mut self) -> Option<BlockId> {
        self.free_delta.pop_front()
    }

    /// Returns a DELTA block to the pool (after encoding into parity).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a delta-pool block — freeing a stripe cell into
    /// the delta pool would corrupt the geometry.
    pub fn free_delta(&mut self, id: BlockId) {
        assert!(
            matches!(self.layout.kind_of(id), CellKind::Delta { .. }),
            "block {id} is not a delta block"
        );
        debug_assert!(!self.free_delta.contains(&id), "double free of delta {id}");
        self.free_delta.push_back(id);
    }

    /// DELTA blocks remaining, in the order they are granted.
    pub fn free_deltas(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.free_delta.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> BlockLayout {
        BlockLayout {
            n: 5,
            block_size: 1 << 16,
            num_arrays: 2,
            num_delta: 3,
            meta_base: 0,
            block_base: 1 << 20,
        }
    }

    #[test]
    fn initial_list_is_the_pool() {
        let a = Allocator::new(layout());
        assert_eq!(a.free_deltas().collect::<Vec<_>>(), [10, 11, 12]);
    }

    #[test]
    fn delta_pool_cycles() {
        let mut a = Allocator::new(layout());
        let d1 = a.alloc_delta().unwrap();
        let d2 = a.alloc_delta().unwrap();
        assert_ne!(d1, d2);
        a.free_delta(d1);
        let d3 = a.alloc_delta().unwrap();
        let d4 = a.alloc_delta().unwrap();
        assert_eq!(d4, d1); // Recycled.
        let _ = d3;
        assert!(a.alloc_delta().is_none());
    }

    #[test]
    fn rebuild_frees_what_no_record_holds() {
        let l = layout();
        let mut recs = vec![BlockRecord::free(); l.record_ids().len()];
        recs[1].role = Role::Data;
        // Array 0's first PARITY cell names pool blocks 10 and 12.
        recs[3].role = Role::Parity;
        let named = |id| GlobalAddr::new(aceso_rdma::NodeId(4), l.block_offset(id)).pack48();
        (recs[3].delta_addr[0], recs[3].delta_addr[2]) = (named(10), named(12));
        let a = Allocator::rebuild(l, recs);
        assert_eq!(a.free_deltas().collect::<Vec<_>>(), [11]);
    }

    #[test]
    #[should_panic]
    fn freeing_data_as_delta_panics() {
        let mut a = Allocator::new(layout());
        a.free_delta(0);
    }
}
