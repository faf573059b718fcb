//! A DELTA-pool free list, kept for the repo benchmark's
//! `blockalloc.alloc_free_ns` probe alone.
//!
//! The MN server keeps no free list: it grants the lowest DELTA-pool block
//! that no Delta Addr word of its record table names, and `EncodeDelta`
//! clearing the word frees it (§3.3.3).

use crate::layout::{BlockId, BlockLayout, CellKind};
use std::collections::VecDeque;

/// The free list of one MN's DELTA pool; serves the benchmark's probe
/// alone.
pub struct Allocator {
    layout: BlockLayout,
    free_delta: VecDeque<BlockId>,
}

impl Allocator {
    /// A free list holding the whole DELTA pool, in id order.
    pub fn new(layout: BlockLayout) -> Self {
        Allocator {
            layout,
            free_delta: (0..layout.num_delta)
                .map(|i| layout.delta_block_id(i))
                .collect(),
        }
    }

    /// Allocates a DELTA block.
    pub fn alloc_delta(&mut self) -> Option<BlockId> {
        self.free_delta.pop_front()
    }

    /// Returns a DELTA block to the pool.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a delta-pool block.
    pub fn free_delta(&mut self, id: BlockId) {
        assert!(
            matches!(self.layout.kind_of(id), CellKind::Delta { .. }),
            "block {id} is not a delta block"
        );
        self.free_delta.push_back(id);
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
    #[should_panic]
    fn freeing_data_as_delta_panics() {
        let mut a = Allocator::new(layout());
        a.free_delta(0);
    }
}
