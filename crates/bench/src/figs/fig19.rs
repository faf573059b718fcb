//! Figure 19 — differential checkpointing vs index size (paper §4.5):
//! the compressed delta one checkpoint round puts on the wire. (The
//! paper's per-step times — Copy&XOR, Compress, Decompress, XOR — are
//! host quantities: the repo benchmark's `ckpt.{copy_xor,compress,
//! decompress,apply_xor}_ms` measure them.)
//!
//! The index is synthesized directly (populated to load factor 0.75, then
//! a bounded set of slots dirtied, as one 500 ms window of updates would),
//! because the measurement targets the checkpoint pipeline itself.

use crate::figs::FigureOutput;
use crate::fmt_bytes;
use crate::harness::BenchScale;
use aceso_core::ckpt::CkptSender;

fn synth_index(bytes: usize, seed: u64) -> Vec<u8> {
    // 75% of 16 B slots populated with plausible slot words.
    let mut v = vec![0u8; bytes];
    let slots = bytes / 16;
    let mut x = seed | 1;
    for s in 0..slots {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        if x % 4 != 3 {
            let atomic = x | 0x0100_0000_0000_0001;
            let meta = (x >> 7) & 0x00FF_FFFF_FFFF_FFFE;
            v[s * 16..s * 16 + 8].copy_from_slice(&atomic.to_le_bytes());
            v[s * 16 + 8..s * 16 + 16].copy_from_slice(&meta.to_le_bytes());
        }
    }
    v
}

fn dirty_slots(index: &mut [u8], count: usize, seed: u64) {
    let slots = index.len() / 16;
    let mut x = seed | 1;
    for _ in 0..count.min(slots) {
        x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
        let s = (x as usize) % slots;
        // A CAS bumps the version byte and swaps the address bits.
        index[s * 16] ^= 0x5A;
        index[s * 16 + 3] = index[s * 16 + 3].wrapping_add(1);
    }
}

/// Runs the index-size sweep. Sizes are scaled to the harness machine
/// (the paper's range from `--scale big` up).
pub fn fig19(scale: BenchScale) -> FigureOutput {
    let sizes_mb: &[usize] = if scale.keys >= 100_000 {
        &[64, 128, 256, 512, 1024, 2048]
    } else {
        &[16, 32, 64, 128, 256]
    };
    // One 500 ms window of updates dirties at most this many slots (the
    // paper's ~4 Mops of index CASes → 2 M distinct slots per round).
    let dirty = 2_000_000usize;
    let mut text = String::from(
        "Differential checkpointing vs index size (one round)\n\
         index   | ckpt size\n",
    );
    for &mb in sizes_mb {
        let bytes = mb << 20;
        let mut index = synth_index(bytes, 7);
        let mut tx = CkptSender::new(bytes);
        // Round 1 establishes the baseline (full index).
        tx.round(index.clone());
        // Round 2 is the measured differential round.
        dirty_slots(&mut index, dirty, 99);
        let (compressed, ..) = tx.round(index.clone());
        text.push_str(&format!(
            "{:4} MB | {:>9}\n",
            mb,
            fmt_bytes(compressed.len() as u64),
        ));
    }
    FigureOutput {
        id: "Figure 19",
        text,
    }
}
