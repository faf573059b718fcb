//! Space-efficiency demo: write the same dataset into Aceso (X-Code
//! erasure coding) and FUSEE (3-way replication) and compare the Block
//! Area footprint, then overwrite heavily to exercise delta-based space
//! reclamation.
//!
//! ```text
//! cargo run --release --example space_efficiency
//! ```

use aceso::core::{AcesoConfig, AcesoStore};
use aceso::workloads::value_for;

fn human(b: u64) -> String {
    if b >= 1 << 20 {
        format!("{:.2} MiB", b as f64 / (1u64 << 20) as f64)
    } else {
        format!("{:.1} KiB", b as f64 / 1024.0)
    }
}

fn main() {
    let keys = 3000u32;
    let value_len = 991;

    // A deliberately tight Block Area (~11 MiB of data cells for a ~3 MiB
    // dataset) so overwrites exhaust fresh blocks and reclamation engages.
    let store = AcesoStore::launch(AcesoConfig {
        num_arrays: 3,
        num_delta: 24,
        index_groups: 1024,
        block_size: 256 << 10,
        ..AcesoConfig::small()
    })
    .expect("launch");
    let mut client = store.client().expect("client");

    println!("== writing {keys} KV pairs of ~1 KiB ==");
    for i in 0..keys {
        let key = format!("space-{i:06}");
        client
            .insert(key.as_bytes(), &value_for(key.as_bytes(), 0, value_len))
            .expect("insert");
    }
    client.flush_bitmaps().expect("flush");
    client.close_open_blocks().expect("close");

    let u = store.memory_usage();
    let fusee_valid = u.valid; // Same dataset.
    let fusee_total = fusee_valid * 3; // 3-way replication.
    println!("\nBlock Area footprint:");
    println!(
        "  Aceso : valid {} + parity {} + delta {} = {}",
        human(u.valid),
        human(u.redundancy),
        human(u.delta),
        human(u.total())
    );
    println!(
        "  FUSEE : valid {} + replicas {}         = {}",
        human(fusee_valid),
        human(fusee_valid * 2),
        human(fusee_total)
    );
    println!(
        "  Aceso saves {:.0}% (X-Code n=5: parity is 2/3 of data vs 2 extra full copies)",
        (1.0 - u.total() as f64 / fusee_total as f64) * 100.0
    );

    println!("\n== overwriting every key 6x to trigger delta-based reclamation ==");
    for round in 1..=6u64 {
        for i in 0..keys {
            let key = format!("space-{i:06}");
            client
                .update(key.as_bytes(), &value_for(key.as_bytes(), round, value_len))
                .expect("update");
        }
        client.flush_bitmaps().expect("flush");
        let u = store.memory_usage();
        println!(
            "  round {round}: valid {} | data blocks allocated {} | delta {}",
            human(u.valid),
            human(u.data_allocated),
            human(u.delta)
        );
    }
    println!("\nallocated data stays bounded: obsolete KV slots are overwritten in");
    println!("reclaimed blocks and the parity is patched by XORing deltas (§3.3.3).");

    // Verify final contents.
    for i in (0..keys).step_by(311) {
        let key = format!("space-{i:06}");
        let got = client
            .search(key.as_bytes())
            .expect("search")
            .expect("present");
        assert_eq!(got, value_for(key.as_bytes(), 6, value_len));
    }
    println!("spot-checked final values: all correct");
    store.shutdown();
}
