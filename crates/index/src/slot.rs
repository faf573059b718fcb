//! The 16-byte index slot: Atomic and Meta halves (paper Figure 3).

/// Size of one index slot in bytes (8 B Atomic + 8 B Meta).
pub const SLOT_BYTES: u64 = 16;

/// The Atomic half of a slot: the only word write requests CAS.
///
/// Bit layout (most significant first):
/// `fp:8 | addr:48 | ver:8`. An all-zero word means "empty slot"
/// (fingerprints are never zero and packed addresses never encode offset 0).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SlotAtomic {
    /// 8-bit key fingerprint (never 0 for an occupied slot).
    pub fp: u8,
    /// 48-bit packed KV address ([`aceso_rdma::GlobalAddr::pack48`]).
    pub addr48: u64,
    /// 8-bit version, incremented by every committed CAS; rolls over into
    /// the Meta epoch.
    pub ver: u8,
}

impl SlotAtomic {
    /// Encodes into the on-index u64.
    #[inline]
    pub fn encode(&self) -> u64 {
        debug_assert!(self.addr48 < (1 << 48));
        ((self.fp as u64) << 56) | (self.addr48 << 8) | self.ver as u64
    }

    /// Decodes from the on-index u64.
    #[inline]
    pub fn decode(word: u64) -> Self {
        SlotAtomic {
            fp: (word >> 56) as u8,
            addr48: (word >> 8) & ((1 << 48) - 1),
            ver: word as u8,
        }
    }

    /// Whether this Atomic word marks an empty slot.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.encode() == 0
    }
}

/// The Meta half of a slot: infrequently changing information.
///
/// Bit layout: `len:8 | epoch:56`. `len` is the KV pair size in 64 B units
/// (so a slot describes KVs up to 16 KB; larger values are out of the
/// paper's scope). The epoch's least-significant bit is the lock flag: odd
/// means a client is mid-rollover (§3.2.2, Algorithm 1).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SlotMeta {
    /// KV pair length in 64-byte units.
    pub len64: u8,
    /// 56-bit epoch; low bit = lock.
    pub epoch: u64,
}

impl SlotMeta {
    /// Encodes into the on-index u64.
    #[inline]
    pub fn encode(&self) -> u64 {
        debug_assert!(self.epoch < (1 << 56));
        ((self.len64 as u64) << 56) | self.epoch
    }

    /// Decodes from the on-index u64.
    #[inline]
    pub fn decode(word: u64) -> Self {
        SlotMeta {
            len64: (word >> 56) as u8,
            epoch: word & ((1 << 56) - 1),
        }
    }

    /// Whether the Meta half is currently locked (epoch odd).
    #[inline]
    pub fn is_locked(&self) -> bool {
        self.epoch & 1 == 1
    }
}

/// Composes the logical 64-bit Slot Version from epoch and version.
///
/// The epoch counts completed 256-update rounds (its lock bit is excluded:
/// only even epochs are ever observed in committed KV pairs), so
/// `slot_version = (epoch >> 1) << 8 | ver` is strictly increasing across
/// commits to one slot.
#[inline]
pub fn slot_version(epoch: u64, ver: u8) -> u64 {
    ((epoch >> 1) << 8) | ver as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn atomic_roundtrip() {
        let a = SlotAtomic {
            fp: 0xAB,
            addr48: 0x1234_5678_9ABC,
            ver: 0xEF,
        };
        assert_eq!(SlotAtomic::decode(a.encode()), a);
    }

    #[test]
    fn meta_roundtrip() {
        let m = SlotMeta {
            len64: 16,
            epoch: 0x00_ABCD_EF01_2345,
        };
        assert_eq!(SlotMeta::decode(m.encode()), m);
    }

    #[test]
    fn empty_detection() {
        assert!(SlotAtomic::decode(0).is_empty());
        assert!(!SlotAtomic {
            fp: 1,
            addr48: 64,
            ver: 0
        }
        .is_empty());
    }

    #[test]
    fn lock_bit() {
        assert!(!SlotMeta { len64: 0, epoch: 4 }.is_locked());
        assert!(SlotMeta { len64: 0, epoch: 5 }.is_locked());
    }

    #[test]
    fn slot_version_ordering_across_rollover() {
        // ver 255 at epoch 0, then rollover to ver 0 at epoch 2 (even,
        // unlocked): the slot version must strictly increase.
        let before = slot_version(0, 255);
        let after = slot_version(2, 0);
        assert!(after > before);
        assert_eq!(after - before, 1);
    }

    #[test]
    fn proptest_atomic_roundtrip() {
        for seed in 0..64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (fp, addr48, ver) = (rng.gen(), rng.gen_range(0..1 << 48), rng.gen());
            let a = SlotAtomic { fp, addr48, ver };
            assert_eq!(SlotAtomic::decode(a.encode()), a, "seed {seed}");
        }
    }

    #[test]
    fn proptest_meta_roundtrip() {
        for seed in 0..64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = SlotMeta {
                len64: rng.gen(),
                epoch: rng.gen_range(0..1 << 56),
            };
            assert_eq!(SlotMeta::decode(m.encode()), m, "seed {seed}");
        }
    }

    /// Slot versions are monotone in (epoch/2, ver) lexicographic order.
    #[test]
    fn proptest_version_monotone() {
        for seed in 0..64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let e1 = rng.gen_range(0..1 << 40) & !1; // Even (unlocked) epochs only.
            let (v1, v2): (u8, u8) = (rng.gen(), rng.gen());
            let e2 = e1 + 2;
            assert!(slot_version(e2, v2) > slot_version(e1, v1), "seed {seed}");
            assert!(slot_version(e2, 0) > slot_version(e1, 255), "seed {seed}");
            if v2 > v1 {
                assert!(slot_version(e1, v2) > slot_version(e1, v1), "seed {seed}");
            }
        }
    }
}
