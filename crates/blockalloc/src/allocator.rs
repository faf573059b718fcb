//! The MN server's block allocator.
//!
//! Clients manage their own coarse-grained memory blocks, allocated from
//! MN servers by RPC when space runs out (§3.2.3). The server hands out
//! its column's DATA cells first; once fresh cells are exhausted it starts
//! reusing reclamation candidates (§3.3.3) — DATA blocks whose obsolete-KV
//! ratio crossed the threshold. DELTA blocks come from a separate pool and
//! are physically freed as soon as they are encoded into their PARITY
//! block.

use crate::layout::{BlockId, BlockLayout, CellKind};
use crate::record::{BlockRecord, Role};
use aceso_rdma::GlobalAddr;
use std::collections::VecDeque;

/// Outcome of a DATA block allocation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DataAlloc {
    /// The allocated block.
    pub id: BlockId,
    /// `true` if this is a reclaimed (reused) block whose obsolete slots
    /// must be overwritten via the delta protocol.
    pub reused: bool,
}

/// Free lists for one MN's Block Area.
pub struct Allocator {
    layout: BlockLayout,
    free_data: VecDeque<BlockId>,
    free_delta: VecDeque<BlockId>,
    reuse: VecDeque<BlockId>,
}

impl Allocator {
    /// Builds the initial free lists from the layout: every DATA cell of
    /// every stripe array, and the whole DELTA pool.
    pub fn new(layout: BlockLayout) -> Self {
        Self::free_where(layout, |_| true)
    }

    /// The layout this allocator serves.
    pub fn layout(&self) -> &BlockLayout {
        &self.layout
    }

    /// Rebuilds free lists from a restored record table, in block order
    /// (MN recovery): a DATA cell is free iff its record is FREE, and a
    /// DELTA-pool block, which has no record, iff no PARITY record's Delta
    /// Addr names it.
    pub fn rebuild(layout: BlockLayout, records: impl IntoIterator<Item = BlockRecord>) -> Self {
        let mut used = vec![false; layout.blocks_per_node() as usize];
        for (id, rec) in records.into_iter().enumerate() {
            used[id] |= rec.role != Role::Free;
            let parity = rec.role == Role::Parity;
            let named = rec.delta_addr.iter().filter(|&&a| parity && a != 0);
            for (delta, _) in named.filter_map(|&a| layout.locate(GlobalAddr::unpack48(a).offset)) {
                used[delta as usize] = true;
            }
        }
        Self::free_where(layout, |id| !used[id as usize])
    }

    /// Free lists holding, in id order, every DATA cell and DELTA-pool block
    /// `free` takes as free.
    fn free_where(layout: BlockLayout, free: impl Fn(BlockId) -> bool) -> Self {
        let (mut free_data, mut free_delta) = (VecDeque::new(), VecDeque::new());
        for id in (0..layout.blocks_per_node() as BlockId).filter(|&id| free(id)) {
            match layout.kind_of(id) {
                CellKind::Data { .. } => free_data.push_back(id),
                CellKind::Delta { .. } => free_delta.push_back(id),
                CellKind::Parity { .. } => {}
            }
        }
        Allocator {
            layout,
            free_data,
            free_delta,
            reuse: VecDeque::new(),
        }
    }

    /// Allocates a DATA block: fresh cells first, then reuse candidates.
    pub fn alloc_data(&mut self) -> Option<DataAlloc> {
        if let Some(id) = self.free_data.pop_front() {
            return Some(DataAlloc { id, reused: false });
        }
        self.reuse
            .pop_front()
            .map(|id| DataAlloc { id, reused: true })
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

    /// Registers a DATA block as a reclamation candidate (obsolete ratio
    /// crossed the threshold). Idempotent.
    pub fn push_reuse_candidate(&mut self, id: BlockId) {
        assert!(
            matches!(self.layout.kind_of(id), CellKind::Data { .. }),
            "block {id} is not a data block"
        );
        if !self.reuse.contains(&id) {
            self.reuse.push_back(id);
        }
    }

    /// Fresh DATA blocks remaining.
    pub fn free_data_count(&self) -> usize {
        self.free_data.len()
    }

    /// DELTA blocks remaining, in the order they are granted.
    pub fn free_deltas(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.free_delta.iter().copied()
    }

    /// Reuse candidates queued.
    pub fn reuse_count(&self) -> usize {
        self.reuse.len()
    }

    /// Fraction of this node's DATA cells still on the fresh free list —
    /// the "free space below threshold" input of the reclamation trigger.
    pub fn free_data_ratio(&self) -> f64 {
        let total = self.layout.data_blocks_per_node().max(1) as f64;
        self.free_data.len() as f64 / total
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
    fn initial_lists() {
        let a = Allocator::new(layout());
        assert_eq!(a.free_data_count(), 6); // 2 arrays × 3 data rows.
        assert_eq!(a.free_deltas().count(), 3);
        assert_eq!(a.reuse_count(), 0);
        assert!((a.free_data_ratio() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn alloc_exhaust_then_reuse() {
        let mut a = Allocator::new(layout());
        let mut fresh = Vec::new();
        while let Some(d) = a.alloc_data() {
            if d.reused {
                panic!("no reuse candidates yet");
            }
            fresh.push(d.id);
        }
        assert_eq!(fresh.len(), 6);
        // Register a candidate and allocate again.
        a.push_reuse_candidate(fresh[2]);
        a.push_reuse_candidate(fresh[2]); // Idempotent.
        assert_eq!(a.reuse_count(), 1);
        let d = a.alloc_data().unwrap();
        assert!(d.reused);
        assert_eq!(d.id, fresh[2]);
        assert!(a.alloc_data().is_none());
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
        let mut a = Allocator::rebuild(l, recs);
        let data: Vec<_> = std::iter::from_fn(|| a.alloc_data())
            .map(|d| d.id)
            .collect();
        assert_eq!(data, [0, 2, 5, 6, 7]);
        assert_eq!(a.free_deltas().collect::<Vec<_>>(), [11]);
    }

    #[test]
    #[should_panic]
    fn freeing_data_as_delta_panics() {
        let mut a = Allocator::new(layout());
        let d = a.alloc_data().unwrap();
        a.free_delta(d.id);
    }

    #[test]
    fn allocations_are_data_cells() {
        let l = layout();
        let mut a = Allocator::new(l);
        while let Some(d) = a.alloc_data() {
            assert!(matches!(l.kind_of(d.id), CellKind::Data { .. }));
        }
    }
}
