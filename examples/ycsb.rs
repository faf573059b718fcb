//! YCSB comparison: run the four core workloads against both Aceso and the
//! FUSEE replication baseline and print the modeled throughput.
//!
//! ```text
//! cargo run --release --example ycsb [keys] [ops]
//! ```

use aceso::core::{AcesoConfig, AcesoStore};
use aceso::engines::substrate::ReplConfig;
use aceso::fusee::FuseeStore;
use aceso::workloads::ycsb::YcsbKind;
use aceso::workloads::{value_for, Op, YcsbWorkload};
use aceso_rdma::PhaseMeasurement;

fn main() {
    let mut args = std::env::args().skip(1);
    let keys: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(5_000);
    let ops: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(10_000);
    let value_len = 991; // 1 KB KV pairs like the paper.

    println!("== YCSB: {keys} keys, {ops} ops per workload ==\n");
    println!("workload |   Aceso |   FUSEE | ratio");

    for kind in YcsbKind::ALL {
        // --- Aceso ---
        let store = AcesoStore::launch(AcesoConfig {
            num_arrays: 64,
            num_delta: 64,
            index_groups: 2048,
            block_size: 256 << 10,
            ..AcesoConfig::small()
        })
        .expect("launch");
        let mut client = store.client().expect("client");
        for key in YcsbWorkload::preload_keys(keys) {
            client
                .insert(&key, &value_for(&key, 0, value_len))
                .expect("preload");
        }
        client.close_open_blocks().expect("close");
        store.cluster.reset_traffic();
        client.dm.reset_stats();
        for req in YcsbWorkload::new(kind, keys, 0.99, value_len, 0, 42).take(ops) {
            match req.op {
                Op::Search => {
                    client.search(&req.key).expect("search");
                }
                Op::Update => {
                    client
                        .update(&req.key, &value_for(&req.key, 1, req.value_len))
                        .expect("update");
                }
                _ => {
                    client
                        .insert(&req.key, &value_for(&req.key, 1, req.value_len))
                        .expect("insert");
                }
            }
        }
        let m = PhaseMeasurement {
            n_clients: 184,
            node_fg: store
                .cluster
                .nodes()
                .iter()
                .map(|n| n.traffic.snapshot())
                .collect(),
            bg_bytes_per_sec: vec![],
            records: client.dm.take_ops().records,
            pipeline_depth: None,
        };
        let aceso_mops = store.cfg.cost.report(&m).mops;
        store.shutdown();

        // --- FUSEE ---
        let fstore = FuseeStore::launch(ReplConfig {
            index_groups: 2048,
            block_size: 256 << 10,
            blocks_per_mn: 1024,
            ..ReplConfig::small()
        });
        let mut fclient = fstore.client();
        for key in YcsbWorkload::preload_keys(keys) {
            fclient
                .insert(&key, &value_for(&key, 0, value_len))
                .expect("preload");
        }
        fstore.cluster.reset_traffic();
        fclient.dm.reset_stats();
        for req in YcsbWorkload::new(kind, keys, 0.99, value_len, 0, 42).take(ops) {
            match req.op {
                Op::Search => {
                    fclient.search(&req.key).expect("search");
                }
                Op::Update => {
                    fclient
                        .update(&req.key, &value_for(&req.key, 1, req.value_len))
                        .expect("update");
                }
                _ => {
                    fclient
                        .insert(&req.key, &value_for(&req.key, 1, req.value_len))
                        .expect("insert");
                }
            }
        }
        let m = PhaseMeasurement {
            n_clients: 184,
            node_fg: fstore
                .cluster
                .nodes()
                .iter()
                .map(|n| n.traffic.snapshot())
                .collect(),
            bg_bytes_per_sec: vec![],
            records: fclient.dm.take_ops().records,
            pipeline_depth: None,
        };
        let fusee_mops = fstore.cfg.cost.report(&m).mops;

        println!(
            "{:8} | {:7.2} | {:7.2} | {:4.2}x",
            kind.name(),
            aceso_mops,
            fusee_mops,
            aceso_mops / fusee_mops
        );
    }
    println!("\n(throughput from the calibrated NIC model over measured verb profiles)");
}
