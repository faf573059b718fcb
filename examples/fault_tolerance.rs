//! Fault-tolerance demo: crash a memory node mid-workload, watch the
//! tiered recovery bring it back with zero data loss, then crash a client
//! mid-write and roll its torn slot back.
//!
//! ```text
//! cargo run --release --example fault_tolerance
//! ```

use aceso::core::client::CrashPoint;
use aceso::core::{recover_cn, recover_mn, AcesoConfig, AcesoStore, StoreError};

fn main() {
    let store = AcesoStore::launch(AcesoConfig::small()).expect("launch");
    let mut client = store.client().expect("client");

    println!("== phase 1: load 2000 keys ==");
    for i in 0..2000u32 {
        let key = format!("key-{i:05}");
        client
            .insert(key.as_bytes(), format!("value-of-{i}").as_bytes())
            .expect("insert");
    }
    client.close_open_blocks().expect("close");
    store.checkpoint_tick().expect("tick");
    store.checkpoint_tick().expect("tick");

    println!("== phase 2: 500 post-checkpoint updates (recovered via slot versioning) ==");
    for i in 0..500u32 {
        let key = format!("key-{i:05}");
        client
            .update(key.as_bytes(), format!("updated-{i}").as_bytes())
            .expect("update");
    }
    client.close_open_blocks().expect("close");

    println!("== phase 3: kill MN at column 2 (fail-stop) ==");
    store.kill_mn(2);

    println!("== phase 4: tiered recovery onto a fresh node ==");
    let report = recover_mn(&store, 2).expect("recover");
    println!(
        "  meta  {:6.1} ms\n  index {:6.1} ms ({} KVs scanned, {} blocks decoded, {} read)\n  block {:6.1} ms ({} old blocks)\n  total {:6.1} ms (+ {:.1} ms background parity)",
        report.read_meta_ms,
        report.read_ckpt_ms + report.recover_lblock_ms + report.read_rblock_ms + report.scan_kv_ms,
        report.kv_count,
        report.lblock_count,
        report.rblock_count,
        report.recover_old_lblock_ms,
        report.old_lblock_count,
        report.total_ms(),
        report.parity_ms,
    );

    println!("== phase 5: verify every key (old client, stale cache) ==");
    for i in 0..2000u32 {
        let key = format!("key-{i:05}");
        let want = if i < 500 {
            format!("updated-{i}")
        } else {
            format!("value-of-{i}")
        };
        let got = client
            .search(key.as_bytes())
            .expect("search")
            .expect("present");
        assert_eq!(got, want.as_bytes(), "{key}");
    }
    println!("  all 2000 keys intact, updates preserved");

    println!("== phase 6: client crash mid-write ==");
    let cli_id = client.id();
    client.crash_point = Some(CrashPoint::AfterKvWrite);
    match client.update(b"key-00000", b"torn!") {
        Err(StoreError::Shutdown) => {
            println!("  client crashed after the KV write, before the deltas")
        }
        other => panic!("expected simulated crash, got {other:?}"),
    }
    drop(client);

    let mut revived = store.client_with_id(cli_id);
    let cn = recover_cn(&store, cli_id).expect("cn recovery");
    println!(
        "  CN recovery: {} blocks checked, {} torn slots rolled back, {} kept",
        cn.blocks_checked, cn.slots_repaired, cn.slots_kept
    );
    let got = revived
        .search(b"key-00000")
        .expect("search")
        .expect("present");
    assert_eq!(
        got, b"updated-0",
        "committed value must survive the torn write"
    );
    println!("  key-00000 still holds its committed value");

    store.shutdown();
    println!("done");
}
