//! Geometry-parameterized tests: coding groups other than n = 5 and unusual
//! block sizes — the store must be correct for any prime group size X-Code
//! supports.

use aceso_core::{recover_mn, AcesoConfig, AcesoStore};
use std::sync::Arc;

fn store_n(n: usize) -> Arc<AcesoStore> {
    AcesoStore::launch(AcesoConfig {
        num_mns: n,
        num_arrays: 6,
        num_delta: 24,
        index_groups: 512,
        ..AcesoConfig::small()
    })
    .unwrap()
}

fn roundtrip_and_recover(store: &Arc<AcesoStore>, tag: &str, kill_col: usize) {
    let mut c = store.client().unwrap();
    let val = vec![0xEEu8; 700];
    for i in 0..400u32 {
        let key = format!("{tag}-{i}");
        c.insert(key.as_bytes(), &val).unwrap();
    }
    c.close_open_blocks().unwrap();
    store.checkpoint_tick().unwrap();
    store.kill_mn(kill_col);
    recover_mn(store, kill_col).unwrap();
    let mut fresh = store.client().unwrap();
    for i in (0..400u32).step_by(17) {
        let key = format!("{tag}-{i}");
        assert_eq!(
            fresh.search(key.as_bytes()).unwrap().as_deref(),
            Some(&val[..]),
            "{key}"
        );
    }
}

/// A 3-MN coding group (the smallest prime): one data row per column.
#[test]
fn coding_group_of_three() {
    let store = store_n(3);
    roundtrip_and_recover(&store, "n3", 1);
    store.shutdown();
}

/// A 7-MN coding group: five data rows per column, wider parity chains.
#[test]
fn coding_group_of_seven() {
    let store = store_n(7);
    roundtrip_and_recover(&store, "n7", 4);
    store.shutdown();
}

/// Two failures in a 7-MN group.
#[test]
fn two_failures_in_group_of_seven() {
    let store = store_n(7);
    let mut c = store.client().unwrap();
    let val = vec![0x42u8; 700];
    for i in 0..400u32 {
        c.insert(format!("n7x2-{i}").as_bytes(), &val).unwrap();
    }
    c.close_open_blocks().unwrap();
    store.checkpoint_tick().unwrap();
    store.kill_mn(1);
    store.kill_mn(5);
    recover_mn(&store, 1).unwrap();
    recover_mn(&store, 5).unwrap();
    let mut fresh = store.client().unwrap();
    for i in (0..400u32).step_by(13) {
        let key = format!("n7x2-{i}");
        assert_eq!(
            fresh.search(key.as_bytes()).unwrap().as_deref(),
            Some(&val[..]),
            "{key}"
        );
    }
    store.shutdown();
}

/// Unusual block sizes (non-power-of-two multiple of 64) still work.
#[test]
fn odd_block_size() {
    let store = AcesoStore::launch(AcesoConfig {
        block_size: 24_576, // 24 KiB.
        num_arrays: 16,
        ..AcesoConfig::small()
    })
    .unwrap();
    let mut c = store.client().unwrap();
    for i in 0..300u32 {
        let key = format!("odd-{i}");
        c.insert(key.as_bytes(), key.as_bytes()).unwrap();
    }
    for i in (0..300u32).step_by(23) {
        let key = format!("odd-{i}");
        assert_eq!(
            c.search(key.as_bytes()).unwrap().as_deref(),
            Some(key.as_bytes())
        );
    }
    store.shutdown();
}
