//! The replicated index layout both replication engines share: FUSEE's
//! original RACE hashing with 8-byte slots.
//!
//! Slot value: `fp:8 | len:8 | addr:48` where `addr` is the KV offset in
//! 64 B units and `len` the KV size class in 64 B units. The bucket-group
//! geometry matches the Aceso index (3 buckets of 8 slots, two combined
//! buckets), but a combined-bucket read moves only 128 B instead of 256 B —
//! the `+SLOT` step of the paper's factor analysis (Figure 13) measures
//! exactly this difference.

use aceso_index::hash::hash_pair;
use aceso_rdma::{DmClient, GlobalAddr, NodeId, Result};

/// Bytes per 8-slot bucket.
const BUCKET_BYTES: u64 = 8 * 8;
/// Bytes per 3-bucket group.
const GROUP_BYTES: u64 = 3 * BUCKET_BYTES;
/// Slots per combined bucket.
const COMBINED_SLOTS: u64 = 16;

/// An 8-byte FUSEE index slot value.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Slot8(u64);

impl Slot8 {
    /// The empty slot.
    pub const EMPTY: Slot8 = Slot8(0);

    /// Builds a slot from fingerprint, KV byte offset and 64 B length class.
    pub fn new(fp: u8, offset: u64, len_class: u64) -> Self {
        debug_assert_eq!(offset % 64, 0);
        Slot8(((fp as u64) << 56) | ((len_class & 0xFF) << 48) | (offset / 64))
    }

    /// Raw u64 for CAS.
    pub fn raw(&self) -> u64 {
        self.0
    }

    /// Rebuilds from a raw word.
    pub fn from_raw(raw: u64) -> Self {
        Slot8(raw)
    }

    /// Whether the slot is empty.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// The stored fingerprint.
    pub fn fp(&self) -> u8 {
        (self.0 >> 56) as u8
    }

    /// KV size class in 64 B units.
    pub fn len_class(&self) -> u64 {
        (self.0 >> 48) & 0xFF
    }

    /// KV byte offset.
    pub fn offset(&self) -> u64 {
        (self.0 & ((1 << 48) - 1)) * 64
    }

    /// Bytes to read for the record this slot points at: its size class,
    /// with class 0 read as one 64 B unit.
    pub fn record_len(&self) -> usize {
        (self.len_class().max(1) * 64) as usize
    }
}

/// Byte position of one slot in an index replica.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SlotPos {
    /// Byte offset of the slot within the index area.
    pub offset: u64,
}

/// A matching slot found by a scan.
#[derive(Clone, Copy, Debug)]
pub struct Found {
    /// Where the slot lives.
    pub pos: SlotPos,
    /// Its value at scan time.
    pub slot: Slot8,
}

/// Scan result over a key's two combined buckets.
#[derive(Clone, Debug, Default)]
pub struct Scan {
    /// Fingerprint matches in scan order.
    pub matches: Vec<Found>,
    /// Empty slots in scan order.
    pub empties: Vec<SlotPos>,
}

/// Per-MN layout of the baseline.
///
/// The logical index is hash-partitioned across the MNs; partition `p`'s
/// primary copy lives in *area* `p` on node `p` and its backups in area `p`
/// on the following `r − 1` nodes, so every MN reserves one area per
/// partition and replica slot positions never collide across partitions.
#[derive(Clone, Copy, Debug)]
pub struct FuseeLayout {
    /// Index partitions (= number of MNs).
    pub partitions: u64,
    /// Bucket groups per index partition area.
    pub index_groups: u64,
    /// KV block size.
    pub block_size: u64,
    /// KV blocks per MN.
    pub blocks_per_mn: u64,
    /// Charge 16 B per slot on bucket reads (factor-analysis `+SLOT`).
    pub wide_slots: bool,
}

impl FuseeLayout {
    /// Creates a layout.
    pub fn new(partitions: u64, index_groups: u64, block_size: u64, blocks_per_mn: u64) -> Self {
        FuseeLayout {
            partitions,
            index_groups,
            block_size,
            blocks_per_mn,
            wide_slots: false,
        }
    }

    /// Bytes of one partition's index area.
    pub fn area_size(&self) -> u64 {
        self.index_groups * GROUP_BYTES
    }

    /// Byte offset of partition `p`'s area on any node hosting it.
    pub fn area_base(&self, partition: usize) -> u64 {
        partition as u64 * self.area_size()
    }

    /// Total index bytes per MN (all partition areas).
    pub fn index_size(&self) -> u64 {
        self.partitions * self.area_size()
    }

    /// Byte offset where KV blocks start.
    pub fn block_base(&self) -> u64 {
        self.index_size().next_multiple_of(64)
    }

    /// Total region bytes per MN.
    pub fn region_len(&self) -> usize {
        (self.block_base() + self.blocks_per_mn * self.block_size) as usize
    }

    /// Byte offset of KV block `b`.
    pub fn block_offset(&self, b: u64) -> u64 {
        debug_assert!(b < self.blocks_per_mn);
        self.block_base() + b * self.block_size
    }

    /// Global address of a slot on `node`.
    pub fn slot_addr(&self, node: NodeId, pos: SlotPos) -> GlobalAddr {
        GlobalAddr::new(node, pos.offset)
    }

    /// Reads the key's two combined buckets in partition area `partition`
    /// on `node` (one doorbell batch of two 128 B reads) and classifies the
    /// slots.
    pub fn scan(
        &self,
        dm: &DmClient,
        node: NodeId,
        partition: usize,
        key: &[u8],
        fp: u8,
    ) -> Result<Scan> {
        let base = self.area_base(partition);
        let (h1, h2) = hash_pair(key);
        let coords = [
            (h1 % self.index_groups, 0u64),
            (h2 % self.index_groups, 1u64),
        ];
        let mut bufs: [Vec<u8>; 2] = [Vec::new(), Vec::new()];
        let read_bytes = if self.wide_slots {
            4 * BUCKET_BYTES as usize // 16 B per slot: 256 B per combined bucket.
        } else {
            2 * BUCKET_BYTES as usize
        };
        dm.batch(|dm| -> Result<()> {
            for (i, &(g, c)) in coords.iter().enumerate() {
                let off = base + g * GROUP_BYTES + c * BUCKET_BYTES;
                // Wide mode still decodes the first 128 B; the extra bytes
                // only exist to charge the NIC what 16 B slots would cost.
                let want = read_bytes.min((self.index_size() - off) as usize);
                let mut buf = dm.read_vec(GlobalAddr::new(node, off), want)?;
                buf.resize(2 * BUCKET_BYTES as usize, 0);
                bufs[i] = buf;
            }
            Ok(())
        })?;
        let mut scan = Scan::default();
        let mut seen = Vec::with_capacity(4);
        for (i, &(g, c)) in coords.iter().enumerate() {
            for s in 0..COMBINED_SLOTS {
                let off = base + g * GROUP_BYTES + c * BUCKET_BYTES + s * 8;
                if seen.contains(&off) {
                    continue;
                }
                seen.push(off);
                let raw = u64::from_le_bytes(
                    bufs[i][(s * 8) as usize..(s * 8 + 8) as usize]
                        .try_into()
                        .unwrap(),
                );
                let slot = Slot8::from_raw(raw);
                let pos = SlotPos { offset: off };
                if slot.is_empty() {
                    scan.empties.push(pos);
                } else if slot.fp() == fp {
                    scan.matches.push(Found { pos, slot });
                }
            }
        }
        Ok(scan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_roundtrip() {
        let s = Slot8::new(0xAB, 64 * 1234, 17);
        assert_eq!(s.fp(), 0xAB);
        assert_eq!(s.offset(), 64 * 1234);
        assert_eq!(s.len_class(), 17);
        assert!(!s.is_empty());
        assert_eq!(Slot8::from_raw(s.raw()), s);
    }

    #[test]
    fn empty_slot() {
        assert!(Slot8::EMPTY.is_empty());
        assert_eq!(Slot8::EMPTY.raw(), 0);
    }

    #[test]
    fn layout_sizes() {
        let l = FuseeLayout::new(5, 100, 1 << 16, 8);
        assert_eq!(l.index_size(), 5 * 100 * 192);
        assert_eq!(l.area_base(2), 2 * 100 * 192);
        assert!(l.block_base() >= l.index_size());
        assert_eq!(l.block_base() % 64, 0);
        assert_eq!(l.region_len() as u64, l.block_base() + 8 * (1 << 16));
    }

    #[test]
    fn combined_reads_are_128_bytes() {
        // Half of Aceso's 256 B — the +SLOT cost difference of Figure 13.
        assert_eq!(2 * BUCKET_BYTES, 128);
    }
}
