//! On-memory-node layout of one index partition.
//!
//! ```text
//! base ┌───────────────────────────────────────────────┐
//!      │ group 0: bucket₀ | overflow | bucket₁  (384 B)│
//!      │ group 1: …                                    │
//!      │ …                                             │
//!      ├───────────────────────────────────────────────┤
//!      │ Index Version (8 B)                           │
//!      └───────────────────────────────────────────────┘
//! ```
//!
//! A *combined bucket* is a main bucket plus the shared overflow bucket:
//! combined 0 spans bytes `[0, 256)` of the group, combined 1 spans
//! `[128, 384)`. Each is contiguous, so reading one costs one `RDMA_READ`.

use crate::hash::{fingerprint, hash_pair, route_hash};
use crate::slot::SLOT_BYTES;
use std::collections::{BTreeMap, BTreeSet};

/// Slots per bucket.
pub const BUCKET_SLOTS: u64 = 8;
/// Bytes per bucket.
pub const BUCKET_BYTES: u64 = BUCKET_SLOTS * SLOT_BYTES;
/// Buckets per group (main₀, overflow, main₁).
pub const GROUP_BUCKETS: u64 = 3;
/// Bytes per group.
pub const GROUP_BYTES: u64 = GROUP_BUCKETS * BUCKET_BYTES;
/// Slots per combined bucket (main + overflow).
pub const COMBINED_SLOTS: u64 = 2 * BUCKET_SLOTS;
/// Bytes per combined bucket.
pub const COMBINED_BYTES: u64 = 2 * BUCKET_BYTES;

/// Geometry of one MN's index area.
#[derive(Clone, Copy, Debug)]
pub struct IndexLayout {
    /// Byte offset of the index area inside the node's region.
    pub base: u64,
    /// Number of bucket groups.
    pub num_groups: u64,
}

impl IndexLayout {
    /// Creates a layout with `num_groups` groups at `base`.
    pub fn new(base: u64, num_groups: u64) -> Self {
        assert!(num_groups > 0, "index needs at least one group");
        IndexLayout { base, num_groups }
    }

    /// Sizes a layout to hold roughly `keys` keys at `load_factor`.
    pub fn with_capacity(base: u64, keys: u64, load_factor: f64) -> Self {
        let slots = (keys as f64 / load_factor).ceil() as u64;
        // 24 usable slots per group (3 buckets × 8).
        let groups = slots.div_ceil(GROUP_BUCKETS * BUCKET_SLOTS).max(1);
        IndexLayout::new(base, groups)
    }

    /// Total bytes of the index area including the trailing Index Version.
    pub fn size_bytes(&self) -> u64 {
        self.num_groups * GROUP_BYTES + 8
    }

    /// Total slots in the table.
    pub fn total_slots(&self) -> u64 {
        self.num_groups * GROUP_BUCKETS * BUCKET_SLOTS
    }

    /// Byte offset (in the region) of the trailing Index Version word.
    pub fn index_version_offset(&self) -> u64 {
        self.base + self.num_groups * GROUP_BYTES
    }

    /// Byte offset of group `g`.
    pub fn group_offset(&self, g: u64) -> u64 {
        debug_assert!(g < self.num_groups);
        self.base + g * GROUP_BYTES
    }

    /// Byte offset of combined bucket `c` (0 or 1) of group `g`.
    pub fn combined_offset(&self, g: u64, c: u64) -> u64 {
        debug_assert!(c < 2);
        self.group_offset(g) + c * BUCKET_BYTES
    }

    /// Byte offset of slot `s` (0..16) within combined bucket `c` of group
    /// `g`.
    pub fn slot_offset(&self, g: u64, c: u64, s: u64) -> u64 {
        debug_assert!(s < COMBINED_SLOTS);
        self.combined_offset(g, c) + s * SLOT_BYTES
    }

    /// The two (group, combined) coordinates for `key`.
    pub fn buckets_for(&self, key: &[u8]) -> [(u64, u64); 2] {
        let (h1, h2) = hash_pair(key);
        [(h1 % self.num_groups, 0), (h2 % self.num_groups, 1)]
    }

    /// The first two of `keys` that are *twins* on an index of
    /// `partitions` partitions with this layout: one fingerprint, one
    /// partition, one first bucket group, so each is a fingerprint
    /// candidate in the other's bucket scan and only a KV read tells them
    /// apart. Keys that collide with one of `taken` are passed over, which
    /// leaves the pair's bucket to the pair. Scaffolding for the tests and
    /// fault cells that need a true collision rather than a synthetic one.
    pub fn first_twins(
        &self,
        partitions: u64,
        taken: impl IntoIterator<Item = Vec<u8>>,
        keys: impl IntoIterator<Item = Vec<u8>>,
    ) -> Option<(Vec<u8>, Vec<u8>)> {
        let coord = |k: &[u8]| {
            let group = self.buckets_for(k)[0].0;
            (fingerprint(k), route_hash(k) % partitions, group)
        };
        let taken: BTreeSet<_> = taken.into_iter().map(|k| coord(&k)).collect();
        let mut seen = BTreeMap::new();
        keys.into_iter()
            .filter(|k| !taken.contains(&coord(k)))
            .find_map(|k| seen.insert(coord(&k), k.clone()).map(|first| (first, k)))
    }

    /// Whether `offset` (region byte offset) lies inside a slot's Atomic
    /// word, and if so which slot; used by recovery assertions and tests.
    pub fn locate_slot(&self, offset: u64) -> Option<(u64, u64)> {
        if offset < self.base || offset >= self.base + self.num_groups * GROUP_BYTES {
            return None;
        }
        let rel = offset - self.base;
        let g = rel / GROUP_BYTES;
        let in_group = rel % GROUP_BYTES;
        Some((g, in_group / SLOT_BYTES))
    }

    /// Classifies the 8-byte word containing `offset` for the sanitizer's
    /// happens-before model (see `aceso-san`): slot Atomic words are the
    /// commit/release points of Algorithm 1, slot Meta words carry the
    /// epoch lock acquired with `cas_meta`, and the Index Version word is
    /// FAA'd by checkpointing.
    pub fn classify_word(&self, offset: u64) -> IndexWord {
        if offset / 8 == self.index_version_offset() / 8 {
            return IndexWord::IndexVersion;
        }
        let Some((group, slot)) = self.locate_slot(offset) else {
            return IndexWord::OutsideIndex;
        };
        let in_slot = (offset - self.base) % SLOT_BYTES;
        if in_slot < 8 {
            IndexWord::Atomic { group, slot }
        } else {
            IndexWord::Meta { group, slot }
        }
    }
}

/// Happens-before role of an 8-byte word in the index area (detector
/// metadata; see [`IndexLayout::classify_word`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IndexWord {
    /// A slot's Atomic word: CAS here is the commit point (release edge).
    Atomic {
        /// Bucket group of the slot.
        group: u64,
        /// Slot index within the group (0..24).
        slot: u64,
    },
    /// A slot's Meta word: holds the epoch lock taken with `cas_meta`.
    Meta {
        /// Bucket group of the slot.
        group: u64,
        /// Slot index within the group (0..24).
        slot: u64,
    },
    /// The trailing Index Version word (checkpoint FAA ordering).
    IndexVersion,
    /// Not inside this partition's index area.
    OutsideIndex,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_add_up() {
        let l = IndexLayout::new(4096, 10);
        assert_eq!(l.size_bytes(), 10 * 384 + 8);
        assert_eq!(l.index_version_offset(), 4096 + 3840);
        assert_eq!(l.total_slots(), 240);
    }

    #[test]
    fn combined_buckets_overlap_on_overflow() {
        let l = IndexLayout::new(0, 4);
        let g = 2;
        // Combined 0 covers buckets 0-1, combined 1 covers buckets 1-2.
        assert_eq!(l.combined_offset(g, 0), g * 384);
        assert_eq!(l.combined_offset(g, 1), g * 384 + 128);
        // Slot 8 of combined 0 and slot 0 of combined 1 are the same slot
        // (the shared overflow bucket).
        assert_eq!(l.slot_offset(g, 0, 8), l.slot_offset(g, 1, 0));
    }

    #[test]
    fn capacity_sizing() {
        let l = IndexLayout::with_capacity(0, 1_000_000, 0.75);
        assert!(l.total_slots() as f64 >= 1_000_000.0 / 0.75);
        // But not more than ~one group over.
        assert!(l.total_slots() as f64 <= 1_000_000.0 / 0.75 + 24.0 + 1.0);
    }

    #[test]
    fn buckets_for_within_range() {
        let l = IndexLayout::new(0, 7);
        for i in 0..1000u32 {
            for (g, c) in l.buckets_for(&i.to_le_bytes()) {
                assert!(g < 7);
                assert!(c < 2);
            }
        }
    }

    #[test]
    fn first_twins_collide_and_avoid_taken_coordinates() {
        let l = IndexLayout::new(0, 32);
        let keys =
            |prefix: &'static str| (0u32..).map(move |i| format!("{prefix}{i}").into_bytes());
        let coord = |k: &[u8]| (fingerprint(k), route_hash(k) % 3, l.buckets_for(k)[0].0);
        let (a, b) = l.first_twins(3, None, keys("t")).unwrap();
        assert_ne!(a, b);
        assert_eq!(coord(&a), coord(&b));
        // With the pair's own coordinate taken, the next pair is another one.
        let (c, d) = l.first_twins(3, Some(a.clone()), keys("t")).unwrap();
        assert_eq!(coord(&c), coord(&d));
        assert_ne!(coord(&c), coord(&a));
        assert_eq!(l.first_twins(3, None, keys("t").take(2)), None);
    }

    #[test]
    fn locate_slot_roundtrip() {
        let l = IndexLayout::new(128, 5);
        for g in 0..5 {
            for c in 0..2 {
                for s in 0..16 {
                    let off = l.slot_offset(g, c, s);
                    let (lg, ls) = l.locate_slot(off).unwrap();
                    assert_eq!(lg, g);
                    // Combined slot index → group slot index.
                    assert_eq!(ls, c * 8 + s);
                }
            }
        }
        assert!(l.locate_slot(0).is_none());
        assert!(l.locate_slot(l.index_version_offset()).is_none());
    }

    #[test]
    fn classify_word_roles() {
        let l = IndexLayout::new(128, 5);
        let slot = l.slot_offset(3, 1, 4);
        assert_eq!(
            l.classify_word(slot),
            IndexWord::Atomic { group: 3, slot: 12 }
        );
        assert_eq!(
            l.classify_word(slot + 8),
            IndexWord::Meta { group: 3, slot: 12 }
        );
        assert_eq!(
            l.classify_word(l.index_version_offset()),
            IndexWord::IndexVersion
        );
        assert_eq!(l.classify_word(0), IndexWord::OutsideIndex);
        assert_eq!(
            l.classify_word(l.index_version_offset() + 8),
            IndexWord::OutsideIndex
        );
    }
}
