//! Ablation of one of Aceso's design choices, beyond the paper's own
//! figures: the **checkpoint scheme** — what differential checkpointing
//! and compression each buy (§3.2.1 motivates both; this quantifies them):
//! bytes on the wire per round for (full, full+LZ, differential,
//! differential+LZ).

use crate::figs::FigureOutput;
use crate::fmt_bytes;
use crate::harness::BenchScale;

/// Checkpoint-scheme ablation over a synthetic 64 MB index round.
pub fn ablation_ckpt(_scale: BenchScale) -> FigureOutput {
    let bytes = 64 << 20;
    // Populated index + one 500 ms window of updates (as in Figure 19).
    let mut index = vec![0u8; bytes];
    let slots = bytes / 16;
    let mut x = 7u64;
    for s in 0..slots {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        if x % 4 != 3 {
            index[s * 16..s * 16 + 8].copy_from_slice(&(x | 1).to_le_bytes());
        }
    }
    let baseline = index.clone();
    for _ in 0..400_000 {
        x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
        let s = (x as usize) % slots;
        index[s * 16] ^= 0x5A;
        index[s * 16 + 3] = index[s * 16 + 3].wrapping_add(1);
    }

    let full = index.len();
    let full_lz = aceso_codec::compress(&index).len();
    let mut delta = index.clone();
    aceso_erasure::xor_into(&mut delta, &baseline);
    let diff = delta.len();
    let diff_lz = aceso_codec::compress(&delta).len();

    let text = format!(
        "Checkpoint bytes per round, 64 MB index, one 500 ms update window\n\
         scheme                    |     bytes | vs full\n\
         full snapshot             | {:>9} | 1.00x\n\
         full + LZ                 | {:>9} | {:.2}x\n\
         differential (XOR)        | {:>9} | {:.2}x (incompressible without LZ)\n\
         differential + LZ (Aceso) | {:>9} | {:.4}x\n",
        fmt_bytes(full as u64),
        fmt_bytes(full_lz as u64),
        full_lz as f64 / full as f64,
        fmt_bytes(diff as u64),
        diff as f64 / full as f64,
        fmt_bytes(diff_lz as u64),
        diff_lz as f64 / full as f64,
    );
    FigureOutput {
        id: "Ablation: checkpoint scheme",
        text,
    }
}
