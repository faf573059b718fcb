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
use crate::harness::{self, BenchScale};
use aceso_core::{AcesoStore, ClientTuning};
use aceso_fusee::{FuseeConfig, FuseeStore};
use aceso_workloads::{MicroWorkload, Op};

fn aceso_variant(scale: BenchScale, tuning: ClientTuning, op: Op) -> f64 {
    let store = AcesoStore::launch(harness::bench_aceso_config()).unwrap();
    if op != Op::Insert {
        for t in 0..scale.threads as u32 {
            harness::preload_aceso(
                &store,
                MicroWorkload::new(t, op, scale.keys, scale.value_len).preload_keys(),
                scale.value_len,
            );
        }
    }
    let bg = harness::ckpt_bg_rate(&store, store.cfg.ckpt_interval_ms);
    let store2 = Arc::clone(&store);
    let phase = {
        // Custom phase that applies the tuning to every thread's client.
        let per_thread = scale.ops / scale.threads;
        let barrier = Arc::new(std::sync::Barrier::new(scale.threads));
        let handles: Vec<_> = (0..scale.threads as u32)
            .map(|t| {
                let store = Arc::clone(&store2);
                let barrier = Arc::clone(&barrier);
                let base = if op == Op::Insert { t + 100 } else { t };
                let stream = MicroWorkload::new(base, op, scale.keys, scale.value_len);
                std::thread::spawn(move || {
                    let mut client = store.client_with(tuning).unwrap();
                    let mut stream = stream;
                    // Warm-up pass (skipped for one-shot INSERT phases).
                    let warm = if op == Op::Insert { 0 } else { scale.warmup };
                    for req in (&mut stream).take(warm) {
                        let v = aceso_workloads::value_for(&req.key, 1, req.value_len);
                        let _ = match req.op {
                            Op::Insert => client.insert(&req.key, &v).map(|_| ()),
                            Op::Update => client.update(&req.key, &v),
                            Op::Search => client.search(&req.key).map(|_| ()),
                            Op::Delete => client.delete(&req.key).map(|_| ()),
                        };
                    }
                    if barrier.wait().is_leader() {
                        store.cluster.reset_traffic();
                    }
                    barrier.wait();
                    client.dm.reset_stats();
                    for req in stream.take(per_thread) {
                        let v = aceso_workloads::value_for(&req.key, 1, req.value_len);
                        let _ = match req.op {
                            Op::Insert => client.insert(&req.key, &v).map(|_| ()),
                            Op::Update => client.update(&req.key, &v),
                            Op::Search => client.search(&req.key).map(|_| ()),
                            Op::Delete => client.delete(&req.key).map(|_| ()),
                        };
                    }
                    client.dm.take_ops().records
                })
            })
            .collect();
        let mut records = Vec::new();
        for h in handles {
            records.extend(h.join().unwrap());
        }
        let node_fg: Vec<_> = store
            .cluster
            .nodes()
            .iter()
            .map(|n| n.traffic.snapshot())
            .collect();
        let mut bg = bg;
        bg.resize(node_fg.len(), 0.0);
        harness::Phase {
            m: aceso_rdma::PhaseMeasurement {
                n_clients: scale.sim_clients,
                node_fg,
                bg_bytes_per_sec: bg,
                records,
                pipeline_depth: None,
            },
            cost: store.cfg.cost,
        }
    };
    let mops = phase.report().mops;
    store.shutdown();
    mops
}

use std::sync::Arc;

fn fusee_variant(scale: BenchScale, wide_slots: bool, op: Op) -> f64 {
    let cfg = FuseeConfig {
        wide_slots,
        ..harness::bench_fusee_config()
    };
    let store = FuseeStore::launch(cfg);
    if op != Op::Insert {
        for t in 0..scale.threads as u32 {
            harness::preload_fusee(
                &store,
                MicroWorkload::new(t, op, scale.keys, scale.value_len).preload_keys(),
                scale.value_len,
            );
        }
    }
    let phase = harness::fusee_phase(&store, scale, |t| {
        let base = if op == Op::Insert { t + 100 } else { t };
        MicroWorkload::new(base, op, scale.keys, scale.value_len)
    });
    phase.report().mops
}

/// Runs the four factor steps for UPDATE and SEARCH.
pub fn fig13(scale: BenchScale) -> FigureOutput {
    let mut text = String::from(
        "Factor analysis (Mops): ORIGIN → +SLOT → +CKPT → +CACHE\nstep    |  UPDATE |  SEARCH\n",
    );
    let value_cache = ClientTuning {
        cache_slot_addr: false,
        ..ClientTuning::default()
    };
    let full = ClientTuning::default();
    type Step<'a> = (&'a str, Box<dyn Fn(Op) -> f64>);
    let steps: Vec<Step> = vec![
        (
            "ORIGIN",
            Box::new(move |op| fusee_variant(scale, false, op)),
        ),
        ("+SLOT", Box::new(move |op| fusee_variant(scale, true, op))),
        (
            "+CKPT",
            Box::new(move |op| aceso_variant(scale, value_cache, op)),
        ),
        ("+CACHE", Box::new(move |op| aceso_variant(scale, full, op))),
    ];
    for (name, f) in steps {
        text.push_str(&format!(
            "{name:7} | {:7.2} | {:7.2}\n",
            f(Op::Update),
            f(Op::Search)
        ));
    }
    FigureOutput {
        id: "Figure 13",
        text,
    }
}
