//! Figure 15 — throughput as the UPDATE:SEARCH ratio sweeps 0% → 100%
//! (paper §4.5).

use crate::figs::fig10_11::run_pair;
use crate::figs::FigureOutput;
use crate::harness::BenchScale;
use aceso_workloads::{MixedWorkload, OpMix};

/// Runs the update-ratio sweep.
pub fn fig15(scale: BenchScale) -> FigureOutput {
    let mut text = String::from(
        "Throughput (Mops) vs UPDATE ratio, Zipfian θ=0.99\nupdate% |   Aceso |   FUSEE\n",
    );
    for pct in [0u32, 25, 50, 75, 100] {
        let mix = OpMix {
            search: 1.0 - pct as f64 / 100.0,
            update: pct as f64 / 100.0,
            insert: 0.0,
            delete: 0.0,
        };
        let (a, f) = run_pair(scale, |t| {
            MixedWorkload::new(mix, scale.keys, 0.99, scale.value_len, t, 42)
        });
        text.push_str(&format!("{pct:6}% | {:7.2} | {:7.2}\n", a, f));
    }
    FigureOutput {
        id: "Figure 15",
        text,
    }
}
