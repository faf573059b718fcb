//! Client- and server-side operations on one MN's index partition.
//!
//! Clients touch the index exclusively through one-sided verbs: a SEARCH
//! reads the key's two combined buckets with one doorbell batch; commits CAS
//! the slot's Atomic word; epoch rollovers CAS the Meta word (Algorithm 1
//! lives in `aceso-core`, built on these primitives). The MN server
//! additionally gets zero-cost local accessors used by checkpointing and
//! recovery.

use crate::layout::{
    IndexLayout, BUCKET_SLOTS, COMBINED_BYTES, COMBINED_SLOTS, GROUP_BUCKETS, GROUP_BYTES,
};
use crate::slot::{SlotAtomic, SlotMeta, SLOT_BYTES};
use aceso_rdma::{DmClient, GlobalAddr, NodeId, Region, Result};

/// A decoded slot plus the global address of its Atomic word.
#[derive(Clone, Copy, Debug)]
pub struct SlotRef {
    /// Global address of the slot's Atomic word.
    pub addr: GlobalAddr,
    /// Decoded Atomic half.
    pub atomic: SlotAtomic,
    /// Decoded Meta half.
    pub meta: SlotMeta,
}

/// Result of scanning a key's two combined buckets.
#[derive(Clone, Debug, Default)]
pub struct BucketScan {
    /// Slots whose fingerprint matches the key, in deterministic scan order
    /// (callers must still verify the full key against the KV pair).
    pub matches: Vec<SlotRef>,
    /// Empty slots, in scan order (insert targets).
    pub empties: Vec<GlobalAddr>,
}

/// One MN's index partition.
#[derive(Clone, Copy, Debug)]
pub struct RemoteIndex {
    /// The node holding this partition.
    pub node: NodeId,
    /// Its geometry.
    pub layout: IndexLayout,
}

impl RemoteIndex {
    /// Creates a handle for the partition on `node` with `layout`.
    pub fn new(node: NodeId, layout: IndexLayout) -> Self {
        RemoteIndex { node, layout }
    }

    /// Reads the key's two combined buckets (one doorbell batch of two
    /// `RDMA_READ`s) and classifies their slots.
    pub fn scan(&self, dm: &DmClient, key: &[u8], fp: u8) -> Result<BucketScan> {
        let coords = self.layout.buckets_for(key);
        let mut bufs = [[0u8; COMBINED_BYTES as usize]; 2];
        dm.batch(|dm| -> Result<()> {
            for (buf, &(g, c)) in bufs.iter_mut().zip(&coords) {
                let off = self.layout.combined_offset(g, c);
                dm.read(GlobalAddr::new(self.node, off), buf)?;
            }
            Ok(())
        })?;

        // The buckets share slots only when both hashes pick one group, and
        // then exactly its overflow bucket: slots 8..16 of combined 0 are
        // slots 0..8 of combined 1.
        let shared = if coords[0].0 == coords[1].0 {
            BUCKET_SLOTS
        } else {
            0
        };
        let mut scan = BucketScan {
            matches: Vec::new(),
            empties: Vec::with_capacity(2 * COMBINED_SLOTS as usize),
        };
        for (buf, (&(g, c), first)) in bufs.iter().zip(coords.iter().zip([0, shared])) {
            for s in first..COMBINED_SLOTS {
                let b = &buf[(s * SLOT_BYTES) as usize..][..SLOT_BYTES as usize];
                // Most slots are empty or another key's: tell from the raw
                // Atomic word (0 = empty, top byte = fingerprint).
                let word = u64::from_le_bytes(b[..8].try_into().unwrap());
                let addr = GlobalAddr::new(self.node, self.layout.slot_offset(g, c, s));
                if word == 0 {
                    scan.empties.push(addr);
                } else if (word >> 56) as u8 == fp {
                    scan.matches.push(SlotRef {
                        addr,
                        atomic: SlotAtomic::decode(word),
                        meta: SlotMeta::decode(u64::from_le_bytes(b[8..].try_into().unwrap())),
                    });
                }
            }
        }
        Ok(scan)
    }

    /// Re-reads one slot (16 B `RDMA_READ`).
    pub fn read_slot(&self, dm: &DmClient, addr: GlobalAddr) -> Result<SlotRef> {
        let b = dm.read_vec(addr, SLOT_BYTES as usize)?;
        Ok(SlotRef {
            addr,
            atomic: SlotAtomic::decode(u64::from_le_bytes(b[..8].try_into().unwrap())),
            meta: SlotMeta::decode(u64::from_le_bytes(b[8..].try_into().unwrap())),
        })
    }

    /// CAS on a slot's Atomic word. Returns the observed previous value;
    /// the commit succeeded iff it equals `old`.
    pub fn cas_atomic(
        &self,
        dm: &DmClient,
        addr: GlobalAddr,
        old: SlotAtomic,
        new: SlotAtomic,
    ) -> Result<SlotAtomic> {
        Ok(SlotAtomic::decode(dm.cas(
            addr,
            old.encode(),
            new.encode(),
        )?))
    }

    /// CAS on a slot's Meta word (epoch lock protocol). `addr` is the
    /// *Atomic* word's address; the Meta word sits 8 bytes past it.
    pub fn cas_meta(
        &self,
        dm: &DmClient,
        addr: GlobalAddr,
        old: SlotMeta,
        new: SlotMeta,
    ) -> Result<SlotMeta> {
        Ok(SlotMeta::decode(dm.cas(
            addr.add(8),
            old.encode(),
            new.encode(),
        )?))
    }

    /// Overwrites a slot's Meta word with a plain 8 B write (used for the
    /// `len` refresh when a client detects a stale length, §3.2.2).
    pub fn write_meta(&self, dm: &DmClient, addr: GlobalAddr, meta: SlotMeta) -> Result<()> {
        dm.write(addr.add(8), &meta.encode().to_le_bytes())
    }

    /// Reads the partition's Index Version word.
    pub fn index_version(&self, dm: &DmClient) -> Result<u64> {
        dm.read_u64(GlobalAddr::new(
            self.node,
            self.layout.index_version_offset(),
        ))
    }

    // ---- Server-side (local, zero network cost) accessors. ----

    /// Local read of the Index Version by the MN's own server.
    pub fn local_index_version(&self, region: &Region) -> u64 {
        region
            .load64(self.layout.index_version_offset())
            .expect("index version in range")
    }

    /// Local bump of the Index Version after a checkpoint round (§3.2.3).
    pub fn local_set_index_version(&self, region: &Region, v: u64) {
        region
            .store64(self.layout.index_version_offset(), v)
            .expect("index version in range");
    }

    /// Snapshot of the raw bucket bytes (excluding the Index Version word).
    ///
    /// Concurrent `RDMA_CAS` commits stay word-atomic against this copy, so
    /// the snapshot never contains a torn Atomic or Meta word — the property
    /// §3.2.1 derives from PCIe read-modify-write semantics.
    pub fn snapshot(&self, region: &Region) -> Vec<u8> {
        region
            .read_vec(
                self.layout.base,
                (self.layout.num_groups * GROUP_BYTES) as usize,
            )
            .expect("index area in range")
    }

    /// Writes raw bucket bytes back (recovery restoring a checkpoint).
    pub fn restore(&self, region: &Region, bytes: &[u8]) {
        assert_eq!(bytes.len() as u64, self.layout.num_groups * GROUP_BYTES);
        region
            .write(self.layout.base, bytes)
            .expect("index area in range");
    }

    /// Iterates every slot in a raw snapshot, yielding
    /// `(group, slot_in_group, SlotAtomic, SlotMeta)`.
    pub fn slots_in_snapshot<'a>(
        &self,
        snap: &'a [u8],
    ) -> impl Iterator<Item = (u64, u64, SlotAtomic, SlotMeta)> + 'a {
        let groups = self.layout.num_groups;
        (0..groups).flat_map(move |g| {
            (0..GROUP_BUCKETS * BUCKET_SLOTS).map(move |s| {
                let off = (g * GROUP_BYTES + s * SLOT_BYTES) as usize;
                let a =
                    SlotAtomic::decode(u64::from_le_bytes(snap[off..off + 8].try_into().unwrap()));
                let m = SlotMeta::decode(u64::from_le_bytes(
                    snap[off + 8..off + 16].try_into().unwrap(),
                ));
                (g, s, a, m)
            })
        })
    }

    /// Address of the slot at `(group, slot_in_group)` (inverse of the
    /// coordinates produced by [`RemoteIndex::slots_in_snapshot`]).
    pub fn slot_addr(&self, group: u64, slot_in_group: u64) -> GlobalAddr {
        GlobalAddr::new(
            self.node,
            self.layout.base + group * GROUP_BYTES + slot_in_group * SLOT_BYTES,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::fingerprint;
    use aceso_rdma::{Cluster, ClusterConfig, CostModel};
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::sync::Arc;

    fn setup() -> (Arc<Cluster>, RemoteIndex) {
        let cluster = Cluster::new(ClusterConfig {
            num_mns: 1,
            region_len: 1 << 20,
            cost: CostModel::default(),
        });
        let idx = RemoteIndex::new(NodeId(0), IndexLayout::new(0, 64));
        (cluster, idx)
    }

    /// The scan loop this module used before it read into stack buffers and
    /// tested raw words — two `read_vec`s, a `seen` list deduplicating slot
    /// offsets, every slot decoded — kept as the reference the scan is
    /// checked against.
    fn ref_scan(idx: &RemoteIndex, dm: &DmClient, key: &[u8], fp: u8) -> BucketScan {
        let coords = idx.layout.buckets_for(key);
        let bufs = coords.map(|(g, c)| {
            let off = idx.layout.combined_offset(g, c);
            dm.read_vec(GlobalAddr::new(idx.node, off), COMBINED_BYTES as usize)
                .unwrap()
        });
        let mut scan = BucketScan::default();
        let mut seen = Vec::new();
        for (i, &(g, c)) in coords.iter().enumerate() {
            for s in 0..COMBINED_SLOTS {
                let off = idx.layout.slot_offset(g, c, s);
                if seen.contains(&off) {
                    continue;
                }
                seen.push(off);
                let b = &bufs[i][(s * SLOT_BYTES) as usize..((s + 1) * SLOT_BYTES) as usize];
                let atomic = SlotAtomic::decode(u64::from_le_bytes(b[..8].try_into().unwrap()));
                let meta = SlotMeta::decode(u64::from_le_bytes(b[8..].try_into().unwrap()));
                let addr = GlobalAddr::new(idx.node, off);
                if atomic.is_empty() {
                    scan.empties.push(addr);
                } else if atomic.fp == fp {
                    scan.matches.push(SlotRef { addr, atomic, meta });
                }
            }
        }
        scan
    }

    fn same_scan(a: &BucketScan, b: &BucketScan) -> bool {
        let words = |m: &SlotRef| (m.addr, m.atomic, m.meta);
        a.empties == b.empties && a.matches.iter().map(words).eq(b.matches.iter().map(words))
    }

    /// Same slots, same order as the reference loop, over an index filled
    /// at random with a handful of fingerprints — on a layout with many
    /// groups, and on one with two, where every other key's hashes share a
    /// group and the buckets overlap on its overflow bucket.
    #[test]
    fn scan_matches_reference_loop() {
        for seed in 0..64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let groups = if rng.gen_bool(0.5) { 2 } else { 64 };
            let (c, _) = setup();
            let idx = RemoteIndex::new(NodeId(0), IndexLayout::new(0, groups));
            let region = &c.node(NodeId(0)).unwrap().region;
            for _ in 0..rng.gen_range(0..200) {
                let (g, s) = (rng.gen_range(0..64) % groups, rng.gen_range(0..24));
                let off = idx.slot_addr(g, s).offset;
                let (fp, addr48) = (rng.gen_range(1..5), rng.gen_range(1..1000));
                region
                    .store64(off, SlotAtomic { fp, addr48, ver: 1 }.encode())
                    .unwrap();
                region.store64(off + 8, rng.gen()).unwrap();
            }
            let dm = c.client();
            let key = rng.gen::<u32>().to_le_bytes();
            let fp = rng.gen_range(0..5);
            let got = idx.scan(&dm, &key, fp).unwrap();
            assert!(
                same_scan(&got, &ref_scan(&idx, &dm, &key, fp)),
                "seed {seed}"
            );
        }
    }

    /// The shared-group case really occurs in the property above: with two
    /// groups, about half of all keys hash both buckets into one.
    #[test]
    fn two_group_layout_shares_groups() {
        let l = IndexLayout::new(0, 2);
        let shared = (0..100u32)
            .filter(|k| {
                let [a, b] = l.buckets_for(&k.to_le_bytes());
                a.0 == b.0
            })
            .count();
        assert!((20..80).contains(&shared), "{shared}");
    }

    #[test]
    fn scan_empty_index() {
        let (c, idx) = setup();
        let dm = c.client();
        let scan = idx.scan(&dm, b"nothing", fingerprint(b"nothing")).unwrap();
        assert!(scan.matches.is_empty());
        // Two combined buckets of 16 slots, minus shared-overflow dedup.
        assert!(scan.empties.len() >= 24 && scan.empties.len() <= 32);
    }

    #[test]
    fn cas_then_scan_finds_match() {
        let (c, idx) = setup();
        let dm = c.client();
        let key = b"hello";
        let fp = fingerprint(key);
        let scan = idx.scan(&dm, key, fp).unwrap();
        let target = scan.empties[0];
        let new = SlotAtomic {
            fp,
            addr48: GlobalAddr::new(NodeId(0), 1 << 19).pack48(),
            ver: 1,
        };
        let prev = idx
            .cas_atomic(&dm, target, SlotAtomic::default(), new)
            .unwrap();
        assert!(prev.is_empty());

        let scan2 = idx.scan(&dm, key, fp).unwrap();
        assert_eq!(scan2.matches.len(), 1);
        assert_eq!(scan2.matches[0].atomic, new);
        assert_eq!(scan2.matches[0].addr, target);
    }

    #[test]
    fn failed_cas_reports_observed() {
        let (c, idx) = setup();
        let dm = c.client();
        let addr = idx.slot_addr(0, 0);
        let a1 = SlotAtomic {
            fp: 3,
            addr48: 64,
            ver: 1,
        };
        idx.cas_atomic(&dm, addr, SlotAtomic::default(), a1)
            .unwrap();
        // Stale expectation fails and reports a1.
        let a2 = SlotAtomic {
            fp: 3,
            addr48: 128,
            ver: 2,
        };
        let seen = idx
            .cas_atomic(&dm, addr, SlotAtomic::default(), a2)
            .unwrap();
        assert_eq!(seen, a1);
        assert_eq!(idx.read_slot(&dm, addr).unwrap().atomic, a1);
    }

    #[test]
    fn meta_lock_roundtrip() {
        let (c, idx) = setup();
        let dm = c.client();
        let addr = idx.slot_addr(2, 5);
        let m0 = SlotMeta::default();
        let locked = SlotMeta { len64: 0, epoch: 1 };
        let seen = idx.cas_meta(&dm, addr, m0, locked).unwrap();
        assert_eq!(seen, m0);
        assert!(idx.read_slot(&dm, addr).unwrap().meta.is_locked());
        let unlocked = SlotMeta { len64: 0, epoch: 2 };
        idx.cas_meta(&dm, addr, locked, unlocked).unwrap();
        assert!(!idx.read_slot(&dm, addr).unwrap().meta.is_locked());
    }

    #[test]
    fn snapshot_sees_committed_slots() {
        let (c, idx) = setup();
        let dm = c.client();
        let addr = idx.slot_addr(1, 3);
        let a = SlotAtomic {
            fp: 9,
            addr48: 64,
            ver: 7,
        };
        idx.cas_atomic(&dm, addr, SlotAtomic::default(), a).unwrap();
        let region = &c.node(NodeId(0)).unwrap().region;
        let snap = idx.snapshot(region);
        let found: Vec<_> = idx
            .slots_in_snapshot(&snap)
            .filter(|(_, _, at, _)| !at.is_empty())
            .collect();
        assert_eq!(found.len(), 1);
        let (g, s, at, _) = found[0];
        assert_eq!((g, s), (1, 3));
        assert_eq!(at, a);
        assert_eq!(idx.slot_addr(g, s), addr);
    }

    #[test]
    fn index_version_local_and_remote_agree() {
        let (c, idx) = setup();
        let dm = c.client();
        let region = &c.node(NodeId(0)).unwrap().region;
        assert_eq!(idx.index_version(&dm).unwrap(), 0);
        idx.local_set_index_version(region, 42);
        assert_eq!(idx.index_version(&dm).unwrap(), 42);
        assert_eq!(idx.local_index_version(region), 42);
    }

    #[test]
    fn restore_roundtrips_snapshot() {
        let (c, idx) = setup();
        let dm = c.client();
        idx.cas_atomic(
            &dm,
            idx.slot_addr(5, 11),
            SlotAtomic::default(),
            SlotAtomic {
                fp: 1,
                addr48: 64,
                ver: 3,
            },
        )
        .unwrap();
        let region = &c.node(NodeId(0)).unwrap().region;
        let snap = idx.snapshot(region);
        region.zero(0, snap.len()).unwrap();
        assert!(idx.snapshot(region).iter().all(|&b| b == 0));
        idx.restore(region, &snap);
        assert_eq!(idx.snapshot(region), snap);
    }
}
