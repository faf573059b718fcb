//! One module per paper table/figure. Each entry of [`FIGURES`] renders
//! the same rows or series the paper reports and returns the formatted
//! text, which `bench fig` prints and persists under `results/`.

pub mod ablation;
pub mod fig1;
pub mod fig10_11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16_18;
pub mod fig19;
pub mod fig20;
pub mod fig8_9;

use crate::harness::BenchScale;

/// One experiment: its CLI name and the function that renders it.
pub type Figure = (&'static str, fn(BenchScale) -> FigureOutput);

/// Every experiment `bench fig` can run, by CLI name, in `--all` order.
/// Every column is modeled or counted, so each output is a pure function
/// of the seed. (The paper's Table 3 head-to-head is `bench table3`; kernel
/// speeds and MN core busy time — Table 2's RS row, §4.4's utilization —
/// are host quantities the repo benchmark's per-layer metrics measure.)
pub const FIGURES: &[Figure] = &[
    ("fig1a", fig1::fig1a),
    ("fig1b", fig1::fig1b),
    ("fig8", fig8_9::fig8),
    ("fig9", fig8_9::fig9),
    ("fig10", fig10_11::fig10),
    ("fig11", fig10_11::fig11),
    ("fig12", fig12::fig12),
    ("fig13", fig13::fig13),
    ("fig14", fig14::fig14),
    ("fig15", fig15::fig15),
    ("fig16", fig16_18::fig16),
    ("fig17", fig16_18::fig17),
    ("fig18", fig16_18::fig18),
    ("fig19", fig19::fig19),
    ("fig20", fig20::fig20),
    ("ablation_ckpt", ablation::ablation_ckpt),
];

/// A rendered experiment: a title plus the table body.
pub struct FigureOutput {
    /// e.g. "Figure 8".
    pub id: &'static str,
    /// The rendered table.
    pub text: String,
}
