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
use crate::harness::{self, BenchScale, Phase, System};
use aceso_core::{AcesoConfig, ClientTuning};
use aceso_engines::substrate::ReplConfig;
use aceso_workloads::Op;

/// The four factor steps from `fusee` to `aceso`, each `(name, UPDATE
/// phase, SEARCH phase)` on the hot stream ([`harness::hot_phase`]): the
/// cyclic micro sweep never hits a bounded cache, so it would show `+CACHE`
/// as a no-op at any scale whose keys outnumber the cache's entries.
pub fn factor_steps(
    scale: BenchScale,
    aceso: AcesoConfig,
    fusee: ReplConfig,
) -> Vec<(&'static str, Phase, Phase)> {
    let fusee = |wide_slots| {
        System::fusee(ReplConfig {
            wide_slots,
            ..fusee.clone()
        })
    };
    let aceso = |cache_slot_addr| {
        let tuning = ClientTuning {
            cache_slot_addr,
            ..ClientTuning::default()
        };
        System::aceso(aceso.clone(), tuning)
    };
    let steps: [(&str, &dyn Fn() -> System); 4] = [
        ("ORIGIN", &|| fusee(false)),
        ("+SLOT", &|| fusee(true)),
        ("+CKPT", &|| aceso(false)),
        ("+CACHE", &|| aceso(true)),
    ];
    steps
        .into_iter()
        .map(|(name, launch)| {
            let [update, search] =
                [Op::Update, Op::Search].map(|op| harness::hot_phase(&launch(), scale, op));
            (name, update, search)
        })
        .collect()
}

/// Runs the four factor steps for UPDATE and SEARCH.
pub fn fig13(scale: BenchScale) -> FigureOutput {
    let mut text = String::from(
        "Factor analysis (Mops), Zipfian θ=0.99: ORIGIN → +SLOT → +CKPT → +CACHE\n\
         step    |  UPDATE |  SEARCH\n",
    );
    let (aceso, fusee) = (harness::bench_aceso_config(), harness::bench_fusee_config());
    for (name, update, search) in factor_steps(scale, aceso, fusee) {
        let (update, search) = (update.report().mops, search.report().mops);
        text.push_str(&format!("{name:7} | {update:7.2} | {search:7.2}\n"));
    }
    FigureOutput {
        id: "Figure 13",
        text,
    }
}
