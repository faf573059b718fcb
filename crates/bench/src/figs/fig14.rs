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

/// `(Mops, modeled p50 in µs)` of one micro phase.
type Point = (f64, f64);

/// One warm micro phase of `op` over the preloaded keys.
fn micro(store: &Arc<AcesoStore>, scale: BenchScale, op: Op) -> Point {
    let eng = AcesoEngine::new(Arc::clone(store));
    let phase = harness::phase(&eng, scale, vec![], |t| {
        MicroWorkload::new(t, op, scale.keys, scale.value_len)
    });
    (
        phase.report().mops,
        phase.cost.latency(&phase.m, None).p50_us,
    )
}

/// Degraded SEARCH vs normal SEARCH.
pub fn degraded_search(scale: BenchScale) -> (Point, Point) {
    let store = harness::preloaded_aceso(harness::bench_aceso_config(), scale);
    let normal = micro(&store, scale, Op::Search);

    // Two rounds so the preloaded blocks are strictly *older* than the
    // checkpoint and stay lost after Index-tier-only recovery.
    store.checkpoint_tick().unwrap();
    store.checkpoint_tick().unwrap();
    store.kill_mn(1);
    // Held between its Index and Block tiers: old blocks stay lost.
    let mut recovery = store.begin_recovery(1).unwrap();
    recovery.run_to(RecoveryTier::Block).unwrap();
    let degraded = micro(&store, scale, Op::Search);
    store.shutdown();
    (normal, degraded)
}

/// Space-reclaimed UPDATE vs normal UPDATE.
pub fn reclaimed_update(scale: BenchScale) -> (Point, Point) {
    // Normal: plenty of space, no reclamation.
    let store = harness::preloaded_aceso(harness::bench_aceso_config(), scale);
    let normal = micro(&store, scale, Op::Update);
    store.shutdown();

    // Special: a pool small enough that updates run on reclaimed blocks —
    // every client's preload with half as much again as headroom, over the
    // (n − 2) × n DATA cells of a stripe array.
    let cfg = harness::bench_aceso_config();
    let bytes_needed = scale.threads as u64 * scale.keys * harness::slot_bytes(scale.value_len);
    let n = cfg.num_mns as u64;
    let arrays = (bytes_needed * 3 / 2 / ((n - 2) * n * cfg.block_size)).max(2);
    let reclaiming = AcesoConfig {
        num_arrays: arrays,
        ..cfg
    };
    let store = harness::preloaded_aceso(reclaiming, scale);
    // Warm up through one full overwrite cycle so reclamation kicks in.
    micro(&store, scale, Op::Update);
    let special = micro(&store, scale, Op::Update);
    store.shutdown();
    (normal, special)
}

/// Renders both panels: throughput is what the paper plots; the modeled
/// p50 beside it is what a bandwidth-bound Mops figure cannot show.
pub fn fig14(scale: BenchScale) -> FigureOutput {
    let row = |label: &str, special: &str, (n, s): (Point, Point)| {
        format!(
            "{label:<17} normal {:6.2} Mops p50 {:6.2} us | {special:<9} {:6.2} Mops p50 {:6.2} us | ratio {:4.2}x\n",
            n.0,
            n.1,
            s.0,
            s.1,
            s.0 / n.0,
        )
    };
    let mut text = row("Degraded SEARCH:", "degraded", degraded_search(scale));
    text += &row("Reclaimed UPDATE:", "reclaimed", reclaimed_update(scale));
    FigureOutput {
        id: "Figure 14",
        text,
    }
}
