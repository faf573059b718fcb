//! ALLOC: where a KV pair goes — open blocks, slot reservation, retirement.
//!
//! A client appends KV pairs to one open DATA block per size class, each
//! paired with the two DELTA blocks on the parity-holding MNs (§3.3.2).
//! Blocks are opened and closed by MN RPC; slots inside an open block are
//! handed out locally. Overwritten and lost-race slots are reported back
//! through buffered obsolete-bit flushes, which is what delta-based
//! reclamation feeds on (§3.3.3).
//!
//! A reused block is refilled only in the slots its old Free Bitmap marks
//! obsolete, and each delta is new ⊕ old, so its open READs exactly those
//! slots' old images: one READ per maximal run of obsolete slots, all in
//! one doorbell. The live slots between the runs never cross the wire.

use super::AcesoClient;
use crate::config::{pack_col, unpack_col};
use crate::proto::{ServerReq, ServerResp};
use crate::{Result, StoreError};
use aceso_blockalloc::BlockId;
use aceso_index::SlotAtomic;
use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, Default)]
struct DeltaRef {
    col: usize,
    block_off: u64,
    parity_row: usize,
}

pub(super) struct OpenBlock {
    col: usize,
    block: BlockId,
    array: u64,
    row: usize,
    block_off: u64,
    slot_bytes: usize,
    fill_order: Vec<u32>,
    next: usize,
    deltas: [DeltaRef; 2],
    /// A reused block's old images of the slots it refills, packed in
    /// `fill_order` order: slot `fill_order[i]`'s at `i * slot_bytes`.
    old_images: Option<Vec<u8>>,
}

/// One reserved KV slot: where its bytes and its two delta copies go, and
/// what the slot held before (a reused block's old image, §3.3.3).
pub(super) struct SlotPlace {
    pub(super) col: usize,
    pub(super) kv_off: u64,
    pub(super) slot_bytes: usize,
    pub(super) packed: u64,
    pub(super) deltas: [(usize, u64); 2],
    pub(super) old_slot: Option<Vec<u8>>,
    block: BlockId,
}

impl AcesoClient {
    pub(super) fn alloc_slot(&mut self, class: u8) -> Result<SlotPlace> {
        loop {
            if let Some(ob) = self.blocks.get(&class) {
                if ob.next < ob.fill_order.len() {
                    break;
                }
                // Closing folds and frees the block's DELTA blocks: the
                // delta fix-ups of an earlier lost race must land first,
                // or parity keeps the image they were meant to cancel.
                self.flush_invals()?;
                let ob = self.blocks.remove(&class).unwrap();
                self.close_block(ob)?;
            } else {
                let ob = self.open_block(class)?;
                self.blocks.insert(class, ob);
            }
        }
        let ob = self.blocks.get_mut(&class).unwrap();
        let (i, sb) = (ob.next, ob.slot_bytes);
        ob.next += 1;
        let within = (ob.fill_order[i] as usize * sb) as u64;
        let kv_off = ob.block_off + within;
        Ok(SlotPlace {
            col: ob.col,
            kv_off,
            slot_bytes: sb,
            packed: pack_col(ob.col, kv_off),
            deltas: ob.deltas.map(|d| (d.col, d.block_off + within)),
            old_slot: (ob.old_images.as_ref()).map(|old| old[i * sb..(i + 1) * sb].to_vec()),
            block: ob.block,
        })
    }

    fn open_block(&mut self, class: u8) -> Result<OpenBlock> {
        let n = self.n();
        let mut granted = None;
        for t in 0..n {
            let col = (self.alloc_rr + t) % n;
            let req = ServerReq::AllocData {
                cli_id: self.cli_id,
                slot_len64: class,
            };
            match self.rpc(col, req, 64)? {
                ServerResp::DataAllocated {
                    block,
                    array,
                    row,
                    old_bitmap,
                } => {
                    self.alloc_rr = (col + 1) % n;
                    granted = Some((col, block, array, row, old_bitmap));
                    break;
                }
                ServerResp::Err(_) => continue,
                _ => break,
            }
        }
        let Some((col, block, array, row, old_bitmap)) = granted else {
            return Err(StoreError::OutOfBlocks);
        };
        let bs = self.map.blocks.block_size;
        let slot_bytes = class as usize * 64;
        let nslots = (bs / slot_bytes as u64) as usize;
        let (diag, anti) = self.xcode.parity_cells_for(row, col);
        let mut deltas = [DeltaRef::default(); 2];
        for (i, (prow, pcol)) in [diag, anti].into_iter().enumerate() {
            let resp = self.rpc(
                pcol,
                ServerReq::AllocDelta {
                    array,
                    row,
                    parity_row: prow,
                },
                64,
            )?;
            let ServerResp::DeltaAllocated { block: dblock } = resp else {
                return Err(StoreError::OutOfBlocks);
            };
            deltas[i] = DeltaRef {
                col: pcol,
                block_off: self.map.blocks.block_offset(dblock),
                parity_row: prow,
            };
        }
        let block_off = self.map.blocks.block_offset(block);
        let (fill_order, old_images) = if let Some(bitmap) = old_bitmap {
            let bitmap = aceso_blockalloc::Bitmap::from_bytes(nslots, &bitmap);
            let fill_order: Vec<u32> = bitmap.ones().map(|s| s as u32).collect();
            // Only the obsolete slots are refilled, and a delta is new ⊕
            // old, so read their old images and nothing else (§3.3.3): one
            // READ per run of obsolete slots, one doorbell, each run landing
            // right after the one before it — `fill_order` order.
            let mut old = vec![0u8; fill_order.len() * slot_bytes];
            self.dm.batch(|dm| -> Result<()> {
                let mut at = 0;
                for (first, len) in runs(&fill_order) {
                    let off = block_off + (first as usize * slot_bytes) as u64;
                    let dst = &mut old[at..at + len * slot_bytes];
                    dm.read(self.addr(col, off), dst)?;
                    at += dst.len();
                }
                Ok(())
            })?;
            (fill_order, Some(old))
        } else {
            ((0..nslots as u32).collect(), None)
        };
        Ok(OpenBlock {
            col,
            block,
            array,
            row,
            block_off,
            slot_bytes,
            fill_order,
            next: 0,
            deltas,
            old_images,
        })
    }

    fn close_block(&mut self, ob: OpenBlock) -> Result<()> {
        self.rpc(ob.col, ServerReq::DataFilled { block: ob.block }, 16)?
            .expect_ok()?;
        for d in ob.deltas {
            self.rpc(
                d.col,
                ServerReq::EncodeDelta {
                    array: ob.array,
                    row: ob.row,
                    parity_row: d.parity_row,
                },
                24,
            )?
            .expect_ok()?;
        }
        Ok(())
    }

    /// Closes all open blocks (phase end in benches; also used before
    /// planned shutdown so no block stays unfilled forever).
    pub fn close_open_blocks(&mut self) -> Result<()> {
        let classes: Vec<u8> = self.blocks.keys().copied().collect();
        for c in classes {
            // Mark the never-written tail slots obsolete so reclamation can
            // reuse them later.
            let ob = self.blocks.remove(&c).unwrap();
            for &slot in &ob.fill_order[ob.next..] {
                self.note_obsolete(ob.col, ob.block, (slot as usize * ob.slot_bytes) as u64);
            }
            self.close_block(ob)?;
        }
        self.flush_bitmaps()
    }

    /// Returns a just-allocated slot holding its allocation-time bytes to
    /// its open block: the write batch never posted a write (its slot
    /// revalidation read failed first) or was unwound after a fence bounce.
    pub(super) fn unalloc_slot(&mut self, place: &SlotPlace) {
        let class = (place.slot_bytes / 64) as u8;
        if let Some(ob) = self.blocks.get_mut(&class) {
            if ob.block == place.block && ob.next > 0 {
                let prev = ob.fill_order[ob.next - 1] as u64;
                if ob.block_off + prev * ob.slot_bytes as u64 == place.kv_off {
                    ob.next -= 1;
                }
            }
        }
    }

    /// Buffers one obsolete KV for the next bitmap flush, named by the 64 B
    /// unit it starts at: the block's slot size — which turns a unit into a
    /// bitmap bit — is the server's record's to know, not an advisory
    /// `len64`'s to guess.
    fn note_obsolete(&mut self, col: usize, block: BlockId, within: u64) {
        self.pending_bits
            .entry((col, block))
            .or_default()
            .push((within / 64) as u32);
        self.pending_count += 1;
    }

    /// Marks a reserved slot obsolete: consumed by a lost race, worthless,
    /// reclaimable immediately.
    pub(super) fn mark_place_obsolete(&mut self, place: &SlotPlace) {
        let (_, within) = self
            .map
            .blocks
            .locate(place.kv_off)
            .expect("kv in block area");
        self.note_obsolete(place.col, place.block, within);
    }

    /// Marks the KV a committed write replaced obsolete, for delta-based
    /// reclamation.
    pub(super) fn mark_obsolete(&mut self, replaced: SlotAtomic) {
        if replaced.is_empty() {
            return; // An INSERT into an empty slot replaced nothing.
        }
        let (col, off) = unpack_col(replaced.addr48);
        if let Some((block, within)) = self.map.blocks.locate(off) {
            self.note_obsolete(col, block, within);
        }
    }

    pub(super) fn maybe_flush(&mut self) -> Result<()> {
        if self.pending_count >= self.bitmap_flush_every {
            self.flush_bitmaps()?;
        }
        Ok(())
    }

    /// Flushes buffered obsolete-KV bits to the MN servers.
    pub fn flush_bitmaps(&mut self) -> Result<()> {
        let pending = std::mem::take(&mut self.pending_bits);
        self.pending_count = 0;
        let mut by_col: BTreeMap<usize, Vec<(BlockId, Vec<u32>)>> = BTreeMap::new();
        for ((col, block), slots) in pending {
            by_col.entry(col).or_default().push((block, slots));
        }
        for (col, updates) in by_col {
            let bytes = 16 * updates.len() + 64;
            self.rpc(col, ServerReq::BitmapFlush { updates }, bytes)?
                .expect_ok()?;
        }
        Ok(())
    }
}

/// The maximal runs of consecutive slots in `slots` (ascending), as
/// `(first slot, run length)`.
fn runs(slots: &[u32]) -> Vec<(u32, usize)> {
    let mut out: Vec<(u32, usize)> = Vec::new();
    for &s in slots {
        match out.last_mut() {
            Some((first, len)) if *first + *len as u32 == s => *len += 1,
            _ => out.push((s, 1)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::runs;

    #[test]
    fn runs_are_maximal_and_in_order() {
        assert_eq!(runs(&[]), []);
        assert_eq!(runs(&[0, 1, 2, 3]), [(0, 4)]);
        assert_eq!(
            runs(&[1, 3, 4, 5, 9, 10, 255]),
            [(1, 1), (3, 3), (9, 2), (255, 1)]
        );
    }
}
