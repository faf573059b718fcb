//! Figure 14 — degraded SEARCH and space-reclaimed UPDATE (paper §4.4).
//!
//! Left: after an MN crash and Index-tier-only recovery, SEARCHes that hit
//! lost blocks reconstruct the slot range from a parity chain — the paper
//! measures ≈0.53× of normal throughput.
//! Right: UPDATEs that overwrite obsolete slots in reclaimed blocks pay an
//! extra block read up front — ≈0.97× of normal.

use crate::figs::FigureOutput;
use crate::harness::{self, BenchScale};
use aceso_core::{AcesoConfig, AcesoEngine, AcesoStore, RecoveryTier};
use aceso_workloads::{MicroWorkload, Op};
use std::sync::Arc;

/// Mops of one warm micro phase of `op` over the preloaded keys.
fn micro_mops(store: &Arc<AcesoStore>, scale: BenchScale, op: Op) -> f64 {
    let eng = AcesoEngine::new(Arc::clone(store));
    let phase = harness::phase(&eng, scale, vec![], |t| {
        MicroWorkload::new(t, op, scale.keys, scale.value_len)
    });
    phase.report().mops
}

/// Degraded SEARCH vs normal SEARCH.
pub fn degraded_search(scale: BenchScale) -> (f64, f64) {
    let store = harness::preloaded_aceso(harness::bench_aceso_config(), scale);
    let normal = micro_mops(&store, scale, Op::Search);

    // Two rounds so the preloaded blocks are strictly *older* than the
    // checkpoint and stay lost after Index-tier-only recovery.
    store.checkpoint_tick().unwrap();
    store.checkpoint_tick().unwrap();
    store.kill_mn(1);
    // Held between its Index and Block tiers: old blocks stay lost.
    let mut recovery = store.begin_recovery(1).unwrap();
    recovery.run_to(RecoveryTier::Block).unwrap();
    let degraded = micro_mops(&store, scale, Op::Search);
    store.shutdown();
    (normal, degraded)
}

/// Space-reclaimed UPDATE vs normal UPDATE.
pub fn reclaimed_update(scale: BenchScale) -> (f64, f64) {
    // Normal: plenty of space, no reclamation.
    let store = harness::preloaded_aceso(harness::bench_aceso_config(), scale);
    let normal = micro_mops(&store, scale, Op::Update);
    store.shutdown();

    // Special: a pool small enough that updates run on reclaimed blocks.
    let kv_class = (16 + 17 + scale.value_len + 1).div_ceil(64) as u64 * 64;
    let bytes_needed = scale.keys * kv_class;
    let cfg = harness::bench_aceso_config();
    let arrays = (bytes_needed * 3 / 2 / (cfg.block_size * 3)).max(2);
    let reclaiming = AcesoConfig {
        num_arrays: arrays,
        reclaim_free_ratio: 1.1, // Reclaim aggressively.
        ..cfg
    };
    let store = harness::preloaded_aceso(reclaiming, scale);
    // Warm up through one full overwrite cycle so reclamation kicks in.
    micro_mops(&store, scale, Op::Update);
    let special = micro_mops(&store, scale, Op::Update);
    store.shutdown();
    (normal, special)
}

/// Renders both panels.
pub fn fig14(scale: BenchScale) -> FigureOutput {
    let (sn, sd) = degraded_search(scale);
    let (un, ur) = reclaimed_update(scale);
    let text = format!(
        "Degraded SEARCH:  normal {:6.2} Mops | degraded {:6.2} Mops | ratio {:4.2}x\n\
         Reclaimed UPDATE: normal {:6.2} Mops | reclaimed {:5.2} Mops | ratio {:4.2}x\n",
        sn,
        sd,
        sd / sn,
        un,
        ur,
        ur / un,
    );
    FigureOutput {
        id: "Figure 14",
        text,
    }
}
