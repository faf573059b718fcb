//! Cross-crate end-to-end scenarios through the facade crate: the whole
//! stack (workloads → store → erasure/codec/index substrates) under one
//! roof, including Aceso-vs-FUSEE semantic equivalence.

use aceso::core::{recover_mn, AcesoConfig, AcesoStore};
use aceso::engines::substrate::ReplConfig;
use aceso::fusee::FuseeStore;
use aceso::workloads::ycsb::YcsbKind;
use aceso::workloads::{value_for, Op, TwitterCluster, YcsbWorkload};
use std::collections::HashMap;
use std::sync::Arc;

fn aceso() -> Arc<AcesoStore> {
    AcesoStore::launch(AcesoConfig::small()).unwrap()
}

/// Replays the same YCSB-A stream into Aceso, FUSEE, and a HashMap oracle:
/// all three must agree on every SEARCH result.
#[test]
fn ycsb_a_agrees_with_oracle_and_fusee() {
    let keys = 300u64;
    let vlen = 120usize;
    let astore = aceso();
    let fstore = FuseeStore::launch(ReplConfig::small());
    let mut ac = astore.client().unwrap();
    let mut fc = fstore.client();
    let mut oracle: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();

    for key in YcsbWorkload::preload_keys(keys) {
        let v = value_for(&key, 0, vlen);
        ac.insert(&key, &v).unwrap();
        fc.insert(&key, &v).unwrap();
        oracle.insert(key, v);
    }
    let mut version = 1u64;
    for req in YcsbWorkload::new(YcsbKind::A, keys, 0.99, vlen, 0, 7).take(2_000) {
        match req.op {
            Op::Search => {
                let want = oracle.get(&req.key).cloned();
                assert_eq!(ac.search(&req.key).unwrap(), want, "aceso");
                assert_eq!(fc.search(&req.key).unwrap(), want, "fusee");
            }
            Op::Update => {
                version += 1;
                let v = value_for(&req.key, version, vlen);
                ac.update(&req.key, &v).unwrap();
                fc.update(&req.key, &v).unwrap();
                oracle.insert(req.key.clone(), v);
            }
            _ => unreachable!("YCSB-A has no inserts/deletes"),
        }
    }
    astore.shutdown();
}

/// A Twitter TRANSIENT stream (inserts + deletes + updates) against the
/// oracle, then an MN crash, then full verification.
#[test]
fn transient_churn_survives_mn_crash() {
    let keys = 200u64;
    let vlen = 100usize;
    let store = aceso();
    let mut c = store.client().unwrap();
    let mut oracle: HashMap<Vec<u8>, Option<Vec<u8>>> = HashMap::new();

    for key in YcsbWorkload::preload_keys(keys) {
        let v = value_for(&key, 0, vlen);
        c.insert(&key, &v).unwrap();
        oracle.insert(key, Some(v));
    }
    let mut version = 0u64;
    for req in aceso::workloads::twitter::TwitterWorkload::new(
        TwitterCluster::Transient,
        keys,
        0.99,
        vlen,
        0,
        3,
    )
    .take(1_500)
    {
        version += 1;
        match req.op {
            Op::Search => {
                let want = oracle.get(&req.key).cloned().flatten();
                assert_eq!(c.search(&req.key).unwrap(), want);
            }
            Op::Update => {
                let v = value_for(&req.key, version, vlen);
                match c.update(&req.key, &v) {
                    Ok(()) => {
                        oracle.insert(req.key.clone(), Some(v));
                    }
                    Err(aceso::core::StoreError::NotFound) => {
                        assert!(oracle.get(&req.key).cloned().flatten().is_none());
                    }
                    Err(e) => panic!("{e}"),
                }
            }
            Op::Insert => {
                let v = value_for(&req.key, version, vlen);
                c.insert(&req.key, &v).unwrap();
                oracle.insert(req.key.clone(), Some(v));
            }
            Op::Delete => {
                let existed = c.delete(&req.key).unwrap();
                let oracle_had = oracle.insert(req.key.clone(), None).flatten().is_some();
                assert_eq!(existed, oracle_had);
            }
        }
    }
    c.close_open_blocks().unwrap();
    store.checkpoint_tick().unwrap();
    store.kill_mn(0);
    recover_mn(&store, 0).unwrap();

    let mut fresh = store.client().unwrap();
    for (key, want) in &oracle {
        assert_eq!(
            &fresh.search(key).unwrap(),
            want,
            "{:?}",
            String::from_utf8_lossy(key)
        );
    }
    store.shutdown();
}

/// The store's erasure-coded footprint beats 3-way replication for the
/// same data, at the paper's ratio.
#[test]
fn space_savings_match_xcode_ratio() {
    let store = aceso();
    let mut c = store.client().unwrap();
    for i in 0..1200u32 {
        let key = format!("sp-{i}");
        c.insert(key.as_bytes(), &value_for(key.as_bytes(), 0, 180))
            .unwrap();
    }
    c.flush_bitmaps().unwrap();
    c.close_open_blocks().unwrap();
    let u = store.memory_usage();
    // X-Code n=5 parity share is exactly 2/3 of allocated data.
    assert_eq!(u.redundancy, u.data_allocated * 2 / 3);
    // Savings vs 3×: (valid + 2/3·alloc) < 3·valid requires decent fill;
    // with closed blocks fill is high.
    assert!(u.total() < u.valid * 3, "{u:?}");
    store.shutdown();
}

/// Recovery works regardless of which column dies.
#[test]
fn every_column_is_recoverable() {
    for col in 0..5usize {
        let store = aceso();
        let mut c = store.client().unwrap();
        for i in 0..300u32 {
            let key = format!("col{col}-{i}");
            c.insert(key.as_bytes(), key.as_bytes()).unwrap();
        }
        c.close_open_blocks().unwrap();
        store.checkpoint_tick().unwrap();
        store.kill_mn(col);
        recover_mn(&store, col).unwrap();
        let mut fresh = store.client().unwrap();
        for i in (0..300u32).step_by(29) {
            let key = format!("col{col}-{i}");
            assert_eq!(
                fresh.search(key.as_bytes()).unwrap().as_deref(),
                Some(key.as_bytes()),
                "column {col}"
            );
        }
        store.shutdown();
    }
}

/// Sequential crash-recover-crash-recover cycles keep working (each
/// replacement can itself fail later).
#[test]
fn repeated_failures_of_same_column() {
    let store = aceso();
    let mut c = store.client().unwrap();
    for round in 0..3u32 {
        for i in 0..150u32 {
            let key = format!("r{round}-{i}");
            c.insert(key.as_bytes(), key.as_bytes()).unwrap();
        }
        c.close_open_blocks().unwrap();
        store.checkpoint_tick().unwrap();
        store.kill_mn(1);
        recover_mn(&store, 1).unwrap();
    }
    let mut fresh = store.client().unwrap();
    for round in 0..3u32 {
        for i in (0..150u32).step_by(37) {
            let key = format!("r{round}-{i}");
            assert_eq!(
                fresh.search(key.as_bytes()).unwrap().as_deref(),
                Some(key.as_bytes())
            );
        }
    }
    store.shutdown();
}
