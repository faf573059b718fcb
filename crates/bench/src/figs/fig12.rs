//! Figure 12 — memory distribution after a bulk write phase (paper §4.4):
//! Valid / Redundancy / Delta bytes for both systems; Aceso saves ≈44%.

use crate::figs::FigureOutput;
use crate::fmt_bytes;
use crate::harness::{BenchScale, System};
use aceso_workloads::{MicroWorkload, Op};

/// Runs the bulk-write memory accounting: the same data into both
/// systems, then each engine's own space report.
pub fn fig12(scale: BenchScale) -> FigureOutput {
    let [aceso, fusee] = System::pair().map(|sys| {
        let keys = MicroWorkload::new(0, Op::Insert, scale.keys, scale.value_len)
            .take(scale.keys as usize)
            .map(|req| req.key);
        sys.preload(keys, scale.value_len);
        sys.eng().space()
    });
    let row = |name: &str, sp: &aceso_core::SpaceReport| {
        format!(
            "{name:<6} | {:>10} | {:>11} | {:>10} | {:>10}\n",
            fmt_bytes(sp.valid),
            fmt_bytes(sp.redundancy),
            fmt_bytes(sp.delta),
            fmt_bytes(sp.total()),
        )
    };
    let text = format!(
        "Memory distribution after writing {} KVs of ~1 KB\n\
         system |      Valid |  Redundancy |      Delta |      Total\n\
         {}{}\
         Aceso saves {:.0}% total space vs FUSEE\n",
        scale.keys,
        row("Aceso", &aceso),
        row("FUSEE", &fusee),
        (1.0 - aceso.total() as f64 / fusee.total() as f64) * 100.0,
    );
    FigureOutput {
        id: "Figure 12",
        text,
    }
}
