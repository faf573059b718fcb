//! Differential checkpointing of the index (paper §3.2.1, Figure 3).
//!
//! Each round, an MN server:
//!
//! 1. snapshots its local index (server CPU read; concurrent `RDMA_CAS`
//!    commits stay word-atomic, so no slot is ever torn),
//! 2. XORs the snapshot with the previous one to obtain the delta,
//! 3. LZ-compresses the delta (dominated by zero runs),
//! 4. ships it to the neighbouring column, whose server
//! 5. decompresses it and XOR-applies it to the copy in its Checkpoint Area
//!    ([`apply_delta`]), stamping the copy's Index Version word beside it.
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
use aceso_rdma::Region;
use std::time::Instant;

/// Per-step measurements of one checkpoint round (paper Figure 19).
#[derive(Clone, Copy, Debug, Default)]
pub struct CkptReport {
    /// Uncompressed index size in bytes.
    pub raw_len: usize,
    /// Compressed delta size in bytes.
    pub compressed_len: usize,
    /// Snapshot copy + XOR-with-last time (µs) — "Copy&XOR".
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

/// Sender-side state: the snapshot shipped last round.
pub struct CkptSender {
    last: Vec<u8>,
}

impl CkptSender {
    /// Starts from an all-zero baseline (the first round ships the full
    /// index, compressed).
    pub fn new(index_bytes: usize) -> Self {
        CkptSender {
            last: vec![0u8; index_bytes],
        }
    }

    /// Re-bases the sender on a known snapshot (recovery: the restored
    /// index), so the next delta is incremental again.
    pub fn rebase(&mut self, snapshot: Vec<u8>) {
        self.last = snapshot;
    }

    /// The snapshot the next delta is taken against: what the right
    /// neighbour's Checkpoint Area holds once every round has landed.
    pub fn baseline(&self) -> &[u8] {
        &self.last
    }

    /// Forces the next round to ship the full index (neighbour replaced).
    pub fn reset_to_full(&mut self) {
        self.last.fill(0);
    }

    /// Computes this round's compressed delta from a fresh snapshot.
    ///
    /// Returns `(compressed, raw_len, copy_xor_us, compress_us)` and
    /// retains the snapshot for the next round.
    pub fn round(&mut self, snapshot: Vec<u8>) -> (Vec<u8>, usize, f64, f64) {
        let t0 = Instant::now();
        let mut delta = snapshot.clone();
        xor_into(&mut delta, &self.last);
        let copy_xor_us = t0.elapsed().as_secs_f64() * 1e6;

        let t1 = Instant::now();
        let compressed = aceso_codec::compress(&delta);
        let compress_us = t1.elapsed().as_secs_f64() * 1e6;

        let raw_len = snapshot.len();
        self.last = snapshot;
        (compressed, raw_len, copy_xor_us, compress_us)
    }
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

    /// A region holding one Checkpoint Area of `len` index bytes, after 64
    /// bytes of something else.
    fn area(len: usize) -> (Region, IndexLayout) {
        let area = IndexLayout::new(64, len as u64 / GROUP_BYTES);
        (
            Region::new(NodeId(0), 64 + area.size_bytes() as usize),
            area,
        )
    }

    /// The area's checkpoint copy and its Index Version.
    fn held(region: &Region, area: IndexLayout) -> (Vec<u8>, u64) {
        let len = (area.index_version_offset() - area.base) as usize;
        let data = region.read_vec(area.base, len).unwrap();
        (data, region.load64(area.index_version_offset()).unwrap())
    }

    fn snap(len: usize, stamp: u8) -> Vec<u8> {
        let mut v = vec![0u8; len];
        for i in (0..len).step_by(97) {
            v[i] = stamp;
        }
        v
    }

    #[test]
    fn sender_and_area_converge() {
        let len = 16 * GROUP_BYTES as usize;
        let mut tx = CkptSender::new(len);
        let (region, rx) = area(len);
        region.write(0, &[0xAB; 64]).unwrap();
        for round in 1..=5u8 {
            let s = snap(len, round);
            let (comp, raw, _, _) = tx.round(s.clone());
            apply_delta(&region, rx, &comp, raw, round as u64).unwrap();
            assert_eq!(held(&region, rx), (s, round as u64), "round {round}");
        }
        // Nothing outside the area moved.
        assert_eq!(region.read_vec(0, 64).unwrap(), vec![0xAB; 64]);
    }

    #[test]
    fn deltas_shrink_when_index_is_stable() {
        // A dense (poorly compressible) first snapshot…
        let len = 1 << 16;
        let mut tx = CkptSender::new(len);
        let mut x = 1u64;
        let s1: Vec<u8> = (0..len)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 33) as u8
            })
            .collect();
        let (full, _, _, _) = tx.round(s1.clone());
        assert!(full.len() > len / 2, "dense snapshot should not collapse");
        // …then a round where only one byte changed: tiny delta.
        let mut s2 = s1;
        s2[1234] ^= 0xFF;
        let (delta, _, _, _) = tx.round(s2);
        assert!(delta.len() < full.len() / 100);
        assert!(
            delta.len() < 1024,
            "near-empty delta should be tiny: {}",
            delta.len()
        );
    }

    #[test]
    fn reset_to_full_ships_everything() {
        let len = 16 * GROUP_BYTES as usize;
        let mut tx = CkptSender::new(len);
        let (region, rx) = area(len);
        let s = snap(len, 3);
        let (c, r, _, _) = tx.round(s.clone());
        apply_delta(&region, rx, &c, r, 1).unwrap();

        // Fresh receiver (replacement neighbour, a zeroed area) + full resend.
        let (region2, rx2) = area(len);
        tx.reset_to_full();
        let s2 = snap(len, 4);
        let (c2, r2, _, _) = tx.round(s2.clone());
        apply_delta(&region2, rx2, &c2, r2, 2).unwrap();
        assert_eq!(held(&region2, rx2), (s2, 2));
    }

    #[test]
    fn rebase_keeps_deltas_small_after_recovery() {
        let len = 4096;
        let mut tx = CkptSender::new(len);
        let restored = snap(len, 9);
        tx.rebase(restored.clone());
        let mut next = restored;
        next[7] ^= 1;
        let (c, _, _, _) = tx.round(next);
        assert!(c.len() < 256);
    }

    #[test]
    fn corrupt_or_missized_delta_is_an_error() {
        let len = GROUP_BYTES as usize;
        let (region, rx) = area(len);
        assert!(apply_delta(&region, rx, &[1, 2, 3], len, 1).is_err());
        let other = aceso_codec::compress(&snap(2 * len, 1));
        assert!(apply_delta(&region, rx, &other, 2 * len, 1).is_err());
        assert_eq!(held(&region, rx), (vec![0; len], 0), "nothing applied");
    }
}
