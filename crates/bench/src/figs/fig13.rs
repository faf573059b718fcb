//! Figure 13 — factor analysis (paper §4.4): the step-by-step evolution
//! from FUSEE to Aceso.
//!
//! * `ORIGIN`  — the FUSEE baseline (8 B slots, replicated index, value
//!   cache).
//! * `+SLOT`   — index slots widened 8 B → 16 B: bucket reads double, which
//!   hurts the bandwidth-bound SEARCH and barely moves IOPS-bound writes.
//! * `+CKPT`   — index replication replaced by checkpointing: one CAS per
//!   write instead of `r`; reads pay a little bandwidth to checkpoint
//!   transmission. Modeled as Aceso with the value-only cache.
//! * `+CACHE`  — the full Aceso: the cache also stores slot addresses, so a
//!   cached read validates with a 16 B slot re-read instead of re-scanning
//!   buckets.

use crate::figs::FigureOutput;
use crate::harness::{self, BenchScale, System};
use aceso_core::ClientTuning;
use aceso_engines::substrate::ReplConfig;
use aceso_workloads::Op;

/// Runs the four factor steps for UPDATE and SEARCH.
pub fn fig13(scale: BenchScale) -> FigureOutput {
    let mut text = String::from(
        "Factor analysis (Mops): ORIGIN → +SLOT → +CKPT → +CACHE\nstep    |  UPDATE |  SEARCH\n",
    );
    let fusee = |wide_slots| {
        System::fusee(ReplConfig {
            wide_slots,
            ..harness::bench_fusee_config()
        })
    };
    let aceso = |cache_slot_addr| {
        let tuning = ClientTuning {
            cache_slot_addr,
            ..ClientTuning::default()
        };
        System::aceso(harness::bench_aceso_config(), tuning)
    };
    let steps: [(&str, &dyn Fn() -> System); 4] = [
        ("ORIGIN", &|| fusee(false)),
        ("+SLOT", &|| fusee(true)),
        ("+CKPT", &|| aceso(false)),
        ("+CACHE", &|| aceso(true)),
    ];
    for (name, launch) in steps {
        let [update, search] = [Op::Update, Op::Search].map(|op| {
            harness::micro_phase(&launch(), scale, op, System::ckpt_bg)
                .report()
                .mops
        });
        text.push_str(&format!("{name:7} | {update:7.2} | {search:7.2}\n"));
    }
    FigureOutput {
        id: "Figure 13",
        text,
    }
}
