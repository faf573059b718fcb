//! Figures 16, 17 and 18 — recovery-time and checkpoint-interval sweeps
//! (paper §4.5).
//!
//! * Fig 16: MN recovery time per area as the lost data size grows: the
//!   Meta and Index tiers stay flat, the Block tier scales linearly.
//! * Fig 17: foreground throughput vs checkpoint interval.
//! * Fig 18: recovery time per area vs checkpoint interval: longer
//!   intervals leave more post-checkpoint KVs to scan in the Index tier.
//!
//! Recovery times are the modeled network milliseconds of
//! [`RecoveryReport`]'s `*_net_ms` fields (what `bench quick` prints for
//! its recovery), never the host clock.

use crate::figs::FigureOutput;
use crate::harness::{self, BenchScale, System};
use aceso_core::{recover_mn, AcesoConfig, AcesoStore, ClientTuning, RecoveryReport};
use aceso_workloads::{value_for, MicroWorkload, Op};
use std::sync::Arc;

fn store_with_capacity(keys: u64, value_len: usize) -> Arc<AcesoStore> {
    let cfg = harness::bench_aceso_config();
    let need = keys * harness::slot_bytes(value_len) * 2;
    let arrays = (need / (cfg.block_size * 3) + 8).max(cfg.num_arrays);
    AcesoStore::launch(AcesoConfig {
        num_arrays: arrays,
        num_delta: arrays,
        ..cfg
    })
    .unwrap()
}

/// Writes `keys` KVs, checkpoints, optionally writes `post_keys` more, then
/// kills one MN and recovers it.
fn crash_and_recover(keys: u64, post_keys: u64, value_len: usize) -> RecoveryReport {
    let store = store_with_capacity(keys + post_keys, value_len);
    let mut client = store.client().unwrap();
    let mut load = |stream_id: u32, n: u64| {
        for req in MicroWorkload::new(stream_id, Op::Insert, n, value_len).take(n as usize) {
            let value = value_for(&req.key, 0, req.value_len);
            client.insert(&req.key, &value).unwrap();
        }
        client.close_open_blocks().unwrap();
    };
    load(0, keys);
    // Two rounds: the preloaded blocks become strictly older than the
    // checkpoint (the Block tier's work), only `post_keys` stay "new".
    store.checkpoint_tick().unwrap();
    store.checkpoint_tick().unwrap();
    load(1000, post_keys);
    store.kill_mn(2);
    let report = recover_mn(&store, 2).unwrap();
    store.shutdown();
    report
}

/// `Meta | Index | Block | Total` of one recovery, modeled network ms.
fn tier_cells(r: &RecoveryReport) -> String {
    format!(
        "{:6.3} | {:6.3} | {:7.3} | {:7.3}",
        r.meta_net_ms,
        r.index_tier_net_ms() - r.meta_net_ms,
        r.old_lblock_net_ms,
        r.index_tier_net_ms() + r.old_lblock_net_ms,
    )
}

/// Figure 16: lost-data-size sweep.
pub fn fig16(scale: BenchScale) -> FigureOutput {
    let mut text = String::from(
        "MN recovery time (modeled network ms) vs lost data size\n\
         keys     |   Meta |  Index |   Block |   Total\n",
    );
    for mult in [1u64, 2, 4, 8] {
        let keys = scale.keys * mult / 4;
        let r = crash_and_recover(keys, keys / 20, scale.value_len);
        text.push_str(&format!("{keys:8} | {}\n", tier_cells(&r)));
    }
    FigureOutput {
        id: "Figure 16",
        text,
    }
}

/// Figure 17: throughput vs checkpoint interval.
pub fn fig17(scale: BenchScale) -> FigureOutput {
    let mut text =
        String::from("Throughput (Mops) vs checkpoint interval\ninterval |  UPDATE |  SEARCH\n");
    for interval_ms in [100u64, 250, 500, 1000, 5000] {
        let mut row = format!("{interval_ms:5} ms |");
        for op in [Op::Update, Op::Search] {
            let cfg = AcesoConfig {
                ckpt_interval_ms: interval_ms,
                ..harness::bench_aceso_config()
            };
            let sys = System::aceso(cfg, ClientTuning::default());
            let phase = harness::micro_phase(&sys, scale, op, System::ckpt_bg);
            row.push_str(&format!(" {:7.2} |", phase.report().mops));
        }
        text.push_str(&row);
        text.push('\n');
    }
    FigureOutput {
        id: "Figure 17",
        text,
    }
}

/// Figure 18: recovery time vs checkpoint interval.
///
/// Longer intervals mean more KVs committed after the last checkpoint; the
/// sweep writes `rate × interval` post-checkpoint keys, with `rate` fixed
/// so the 500 ms point matches Figure 16's shape.
pub fn fig18(scale: BenchScale) -> FigureOutput {
    let mut text = String::from(
        "MN recovery time (modeled network ms) vs checkpoint interval\n\
         interval |   Meta |  Index |   Block |   Total | KVs scanned\n",
    );
    let keys = scale.keys;
    for interval_ms in [100u64, 250, 500, 1000, 5000] {
        // Post-checkpoint keys proportional to the interval.
        let post = (keys as f64 * interval_ms as f64 / 5000.0) as u64;
        let r = crash_and_recover(keys, post.max(16), scale.value_len);
        text.push_str(&format!(
            "{interval_ms:5} ms | {} | {:11}\n",
            tier_cells(&r),
            r.kv_count,
        ));
    }
    FigureOutput {
        id: "Figure 18",
        text,
    }
}
