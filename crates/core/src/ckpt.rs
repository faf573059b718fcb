//! Differential checkpointing of the index (paper §3.2.1, Figure 3).
//!
//! Each round, an MN server's sender ([`send`]):
//!
//! 1. snapshots its Index Area (server CPU read; concurrent `RDMA_CAS`
//!    commits stay word-atomic, so no slot is ever torn),
//! 2. XORs the snapshot with its baseline, the snapshot the last round
//!    shipped, to obtain the delta ([`delta`] is this step and the next),
//! 3. LZ-compresses the delta (dominated by zero runs) and keeps the
//!    snapshot as the next round's baseline,
//! 4. ships it to the neighbouring column, whose server
//! 5. decompresses it and XOR-applies it to the copy in its Checkpoint Area
//!    ([`apply_delta`]), stamping the copy's Index Version word beside it.
//!
//! The baseline lives in the sender's region, in its Baseline Area
//! ([`crate::config::MemoryMap::baseline`]): once a round has landed it
//! holds what the right neighbour's Checkpoint Area holds. It is zeroed
//! when that neighbour is replaced, so the next round ships the whole
//! index, and MN recovery writes the restored checkpoint into it.
//!
//! After the round the sender bumps its **Index Version**; while the live
//! index is at version `i`, the neighbour's checkpoint is at `i − 1`
//! (§3.2.3). Rounds are synchronized across the coding group by the store's
//! tick (the paper's "leading server trigger"), which keeps Index Versions
//! comparable across MNs. The copy lives in MN memory, so MN recovery reads
//! it one-sided, as it reads the Meta Area's record copies; version 0 —
//! a Checkpoint Area no round has reached — is the empty checkpoint.

use aceso_erasure::xor_into;
use aceso_index::IndexLayout;
use aceso_rdma::{RdmaError, Region};
use std::time::Instant;

/// Per-step measurements of one checkpoint round (paper Figure 19).
#[derive(Clone, Copy, Debug, Default)]
pub struct CkptReport {
    /// Uncompressed index size in bytes.
    pub raw_len: usize,
    /// Compressed delta size in bytes.
    pub compressed_len: usize,
    /// Snapshot and baseline copies + XOR time (µs) — "Copy&XOR".
    pub copy_xor_us: f64,
    /// LZ compression time (µs).
    pub compress_us: f64,
    /// Receiver decompression time (µs).
    pub decompress_us: f64,
    /// Receiver XOR-apply time (µs).
    pub apply_xor_us: f64,
    /// The Index Version this round's checkpoint represents.
    pub index_version: u64,
}

/// Steps 2–3 of a round: XORs `snapshot` into `last`, the snapshot the
/// previous round shipped, and LZ-compresses the delta left there. Returns
/// the compressed delta and the µs its compression took.
pub fn delta(snapshot: &[u8], last: &mut [u8]) -> (Vec<u8>, f64) {
    xor_into(last, snapshot);
    let t = Instant::now();
    let compressed = aceso_codec::compress(last);
    (compressed, t.elapsed().as_secs_f64() * 1e6)
}

/// The sender's half of a round (steps 1–3) over `region`: [`delta`]
/// between Index Area `index` and Baseline Area `baseline`, which then
/// holds the snapshot, and the report's sender fields.
pub fn send(
    region: &Region,
    index: IndexLayout,
    baseline: IndexLayout,
) -> Result<(Vec<u8>, CkptReport), RdmaError> {
    let raw_len = (index.index_version_offset() - index.base) as usize;
    let t = Instant::now();
    let snapshot = region.read_vec(index.base, raw_len)?;
    let mut last = region.read_vec(baseline.base, raw_len)?;
    let (compressed, compress_us) = delta(&snapshot, &mut last);
    let copy_xor_us = t.elapsed().as_secs_f64() * 1e6 - compress_us;
    region.write(baseline.base, &snapshot)?;
    let report = CkptReport {
        raw_len,
        compressed_len: compressed.len(),
        copy_xor_us,
        compress_us,
        ..CkptReport::default()
    };
    Ok((compressed, report))
}

/// Receiver side: decompresses one delta and XOR-applies it to the
/// checkpoint copy in Checkpoint Area `area` of `region`, then stamps the
/// Index Version it represents. Returns `(decompress_us, xor_us)`. A delta
/// that does not decode to exactly the area's index bytes changes nothing.
pub fn apply_delta(
    region: &Region,
    area: IndexLayout,
    compressed: &[u8],
    raw_len: usize,
    index_version: u64,
) -> Result<(f64, f64), String> {
    let index_bytes = area.index_version_offset() - area.base;
    if raw_len as u64 != index_bytes {
        return Err(format!(
            "ckpt delta of {raw_len} B for a {index_bytes} B area"
        ));
    }
    let t0 = Instant::now();
    let delta =
        aceso_codec::decompress(compressed, raw_len).map_err(|e| format!("ckpt delta: {e}"))?;
    let decompress_us = t0.elapsed().as_secs_f64() * 1e6;

    let t1 = Instant::now();
    let applied = region.xor_slice(area.base, &delta);
    let stamped = applied.and_then(|()| region.store64(area.index_version_offset(), index_version));
    stamped.map_err(|e| format!("ckpt apply: {e}"))?;
    Ok((decompress_us, t1.elapsed().as_secs_f64() * 1e6))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aceso_index::layout::GROUP_BYTES;
    use aceso_rdma::NodeId;

    /// A region holding, after 64 bytes of something else, an Index Area of
    /// `len` index bytes (whole groups), its baseline area and a Checkpoint
    /// Area: a sender and its right neighbour's receiver in one region.
    fn areas(len: usize) -> (Region, [IndexLayout; 3]) {
        let groups = len as u64 / GROUP_BYTES;
        let size = IndexLayout::new(0, groups).size_bytes();
        let at = |i: u64| IndexLayout::new(64 + i * size, groups);
        let end = at(3).base as usize;
        (Region::new(NodeId(0), end), [at(0), at(1), at(2)])
    }

    /// What area `area` holds: its index bytes and its Index Version.
    fn held(region: &Region, area: IndexLayout) -> (Vec<u8>, u64) {
        let len = (area.index_version_offset() - area.base) as usize;
        let data = region.read_vec(area.base, len).unwrap();
        (data, region.load64(area.index_version_offset()).unwrap())
    }

    /// Puts `snapshot` in the Index Area and sends it.
    fn round(region: &Region, [index, baseline, _]: [IndexLayout; 3], snapshot: &[u8]) -> Vec<u8> {
        region.write(index.base, snapshot).unwrap();
        send(region, index, baseline).unwrap().0
    }

    fn snap(len: usize, stamp: u8) -> Vec<u8> {
        let mut v = vec![0u8; len];
        for i in (0..len).step_by(97) {
            v[i] = stamp;
        }
        v
    }

    #[test]
    fn baseline_and_area_converge() {
        let len = 16 * GROUP_BYTES as usize;
        let (region, a) = areas(len);
        region.write(0, &[0xAB; 64]).unwrap();
        for r in 1..=5u8 {
            let s = snap(len, r);
            let comp = round(&region, a, &s);
            apply_delta(&region, a[2], &comp, len, r as u64).unwrap();
            assert_eq!(held(&region, a[2]), (s.clone(), r as u64), "round {r}");
            assert_eq!(held(&region, a[1]).0, s, "round {r}'s baseline");
        }
        // Nothing outside the areas moved.
        assert_eq!(region.read_vec(0, 64).unwrap(), vec![0xAB; 64]);
    }

    #[test]
    fn deltas_shrink_when_index_is_stable() {
        // A dense (poorly compressible) first snapshot…
        let len = 171 * GROUP_BYTES as usize;
        let (region, a) = areas(len);
        let mut x = 1u64;
        let s1: Vec<u8> = (0..len)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 33) as u8
            })
            .collect();
        let full = round(&region, a, &s1);
        assert!(full.len() > len / 2, "dense snapshot should not collapse");
        // …then a round where only one byte changed: tiny delta.
        let mut s2 = s1;
        s2[1234] ^= 0xFF;
        let delta = round(&region, a, &s2);
        assert!(delta.len() < full.len() / 100);
        assert!(
            delta.len() < 1024,
            "near-empty delta should be tiny: {}",
            delta.len()
        );
    }

    #[test]
    fn a_zeroed_baseline_ships_everything() {
        let len = 16 * GROUP_BYTES as usize;
        let (region, a) = areas(len);
        let comp = round(&region, a, &snap(len, 3));
        apply_delta(&region, a[2], &comp, len, 1).unwrap();

        // A replacement neighbour's area is zeroed, and so is the baseline.
        for area in [a[1], a[2]] {
            region.zero(area.base, area.size_bytes() as usize).unwrap();
        }
        let s2 = snap(len, 4);
        let comp = round(&region, a, &s2);
        apply_delta(&region, a[2], &comp, len, 2).unwrap();
        assert_eq!(held(&region, a[2]), (s2, 2));
    }

    #[test]
    fn a_restored_baseline_keeps_deltas_small() {
        let len = 11 * GROUP_BYTES as usize;
        let (region, a) = areas(len);
        // Recovery writes the restored checkpoint into the baseline.
        let restored = snap(len, 9);
        region.write(a[1].base, &restored).unwrap();
        let mut next = restored;
        next[7] ^= 1;
        assert!(round(&region, a, &next).len() < 256);
    }

    #[test]
    fn corrupt_or_missized_delta_is_an_error() {
        let len = GROUP_BYTES as usize;
        let (region, [.., rx]) = areas(len);
        assert!(apply_delta(&region, rx, &[1, 2, 3], len, 1).is_err());
        let other = aceso_codec::compress(&snap(2 * len, 1));
        assert!(apply_delta(&region, rx, &other, 2 * len, 1).is_err());
        assert_eq!(held(&region, rx), (vec![0; len], 0), "nothing applied");
    }
}
