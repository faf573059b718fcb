//! Figure 20 — memory block size sweep (paper §4.5): UPDATE throughput and
//! index recovery time as blocks grow 16 KB → 16 MB.
//!
//! Small blocks inflate recovery with per-block round trips and make
//! clients ask the servers for blocks constantly; large blocks leave
//! bigger unfilled blocks to decode during Index-tier recovery.

use crate::figs::FigureOutput;
use crate::harness::{self, BenchScale};
use aceso_core::{recover_mn, AcesoConfig, AcesoEngine};
use aceso_workloads::{MicroWorkload, Op};
use std::sync::Arc;

fn cfg_for_block_size(bs: u64, keys: u64, value_len: usize) -> AcesoConfig {
    let base = harness::bench_aceso_config();
    let need = keys * harness::slot_bytes(value_len) * 3;
    let arrays = (need / (bs * 3) + 8).max(4);
    AcesoConfig {
        block_size: bs,
        num_arrays: arrays,
        num_delta: (arrays / 2).max(16),
        ..base
    }
}

/// Runs the block-size sweep.
pub fn fig20(scale: BenchScale) -> FigureOutput {
    let mut text = String::from(
        "Block-size sweep\nblock    | UPDATE Mops | index recovery (modeled network ms)\n",
    );
    for bs_kb in [16u64, 64, 256, 1024, 4096] {
        let bs = bs_kb << 10;
        let cfg = cfg_for_block_size(bs, scale.keys, scale.value_len);
        let store = harness::preloaded_aceso(cfg, scale);
        let eng = AcesoEngine::new(Arc::clone(&store));
        let mut phase = harness::phase(&eng, scale, vec![], |t| {
            MicroWorkload::new(t, Op::Update, scale.keys, scale.value_len)
        });
        phase.uniformize();
        let mops = phase.report().mops;
        store.checkpoint_tick().unwrap();
        store.checkpoint_tick().unwrap();
        store.kill_mn(3);
        let r = recover_mn(&store, 3).unwrap();
        text.push_str(&format!(
            "{bs_kb:5} KB | {:11.2} | {:8.3}\n",
            mops,
            r.index_tier_net_ms()
        ));
        store.shutdown();
    }
    FigureOutput {
        id: "Figure 20",
        text,
    }
}
