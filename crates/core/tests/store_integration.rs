//! End-to-end tests of the Aceso store: API semantics, concurrency,
//! checkpointing, erasure coding, reclamation, and every recovery path.

use aceso_core::{recover_cn, recover_mn, AcesoConfig, AcesoStore, StoreError};
use std::sync::Arc;

fn small_store() -> Arc<AcesoStore> {
    AcesoStore::launch(AcesoConfig::small()).unwrap()
}

#[test]
fn basic_crud() {
    let store = small_store();
    let mut c = store.client().unwrap();

    assert_eq!(c.search(b"nothing").unwrap(), None);
    c.insert(b"alpha", b"one").unwrap();
    c.insert(b"beta", b"two").unwrap();
    assert_eq!(c.search(b"alpha").unwrap().as_deref(), Some(&b"one"[..]));
    assert_eq!(c.search(b"beta").unwrap().as_deref(), Some(&b"two"[..]));

    c.update(b"alpha", b"uno").unwrap();
    assert_eq!(c.search(b"alpha").unwrap().as_deref(), Some(&b"uno"[..]));

    assert!(c.delete(b"alpha").unwrap());
    assert_eq!(c.search(b"alpha").unwrap(), None);
    assert!(!c.delete(b"alpha").unwrap()); // Tombstoned: gone.
    assert_eq!(c.search(b"beta").unwrap().as_deref(), Some(&b"two"[..]));

    // Re-insert after delete reuses the tombstoned slot.
    c.insert(b"alpha", b"again").unwrap();
    assert_eq!(c.search(b"alpha").unwrap().as_deref(), Some(&b"again"[..]));
    store.shutdown();
}

#[test]
fn update_of_missing_key_is_not_found() {
    let store = small_store();
    let mut c = store.client().unwrap();
    assert_eq!(c.update(b"ghost", b"x"), Err(StoreError::NotFound));
    store.shutdown();
}

#[test]
fn values_of_many_sizes_roundtrip() {
    let store = small_store();
    let mut c = store.client().unwrap();
    for len in [0usize, 1, 31, 47, 64, 100, 255, 500, 1000, 2000] {
        let key = format!("size-{len}");
        let val: Vec<u8> = (0..len).map(|i| (i * 7 + len) as u8).collect();
        c.insert(key.as_bytes(), &val).unwrap();
        assert_eq!(c.search(key.as_bytes()).unwrap().as_deref(), Some(&val[..]));
    }
    store.shutdown();
}

#[test]
fn value_size_class_can_change_across_updates() {
    let store = small_store();
    let mut c = store.client().unwrap();
    c.insert(b"grow", b"small").unwrap();
    let big = vec![0xABu8; 1500];
    c.update(b"grow", &big).unwrap();
    assert_eq!(c.search(b"grow").unwrap().as_deref(), Some(&big[..]));
    let tiny = b"t".to_vec();
    c.update(b"grow", &tiny).unwrap();
    assert_eq!(c.search(b"grow").unwrap().as_deref(), Some(&tiny[..]));
    store.shutdown();
}

#[test]
fn many_keys_fill_multiple_blocks() {
    let store = small_store();
    let mut c = store.client().unwrap();
    let val = vec![7u8; 200];
    for i in 0..2000u32 {
        c.insert(format!("bulk-{i}").as_bytes(), &val).unwrap();
    }
    for i in (0..2000u32).step_by(97) {
        assert_eq!(
            c.search(format!("bulk-{i}").as_bytes()).unwrap().as_deref(),
            Some(&val[..]),
            "key bulk-{i}"
        );
    }
    store.shutdown();
}

#[test]
fn cache_serves_repeated_reads_and_sees_foreign_updates() {
    let store = small_store();
    let mut a = store.client().unwrap();
    let mut b = store.client().unwrap();
    a.insert(b"shared", b"v1").unwrap();
    assert_eq!(b.search(b"shared").unwrap().as_deref(), Some(&b"v1"[..]));
    // b now has it cached. a updates behind b's back.
    a.update(b"shared", b"v2").unwrap();
    assert_eq!(
        b.search(b"shared").unwrap().as_deref(),
        Some(&b"v2"[..]),
        "cached read must validate the slot and chase the new pointer"
    );
    store.shutdown();
}

#[test]
fn concurrent_updates_to_one_key_are_linearizable() {
    let store = small_store();
    let mut c0 = store.client().unwrap();
    c0.insert(b"contended", &0u64.to_le_bytes()).unwrap();

    let threads: Vec<_> = (0..4)
        .map(|t| {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                let mut c = store.client().unwrap();
                for i in 0..200u64 {
                    let v = (t * 1000 + i).to_le_bytes();
                    c.update(b"contended", &v).unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    // The final value must be one of the written values (not torn).
    let v = c0.search(b"contended").unwrap().unwrap();
    let x = u64::from_le_bytes(v.try_into().unwrap());
    let t = x / 1000;
    let i = x % 1000;
    assert!(t < 4 && i < 200, "final value {x} was never written");
    store.shutdown();
}

#[test]
fn concurrent_inserts_of_distinct_keys_all_land() {
    let store = small_store();
    let threads: Vec<_> = (0..4)
        .map(|t| {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                let mut c = store.client().unwrap();
                for i in 0..150u32 {
                    let key = format!("t{t}-k{i}");
                    c.insert(key.as_bytes(), key.as_bytes()).unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let mut c = store.client().unwrap();
    for t in 0..4 {
        for i in 0..150u32 {
            let key = format!("t{t}-k{i}");
            assert_eq!(
                c.search(key.as_bytes()).unwrap().as_deref(),
                Some(key.as_bytes()),
                "{key}"
            );
        }
    }
    store.shutdown();
}

#[test]
fn slot_version_rollover_survives_300_updates() {
    // 300 updates to one key crosses the 8-bit version rollover (§3.2.2).
    let store = small_store();
    let mut c = store.client().unwrap();
    c.insert(b"roll", &0u32.to_le_bytes()).unwrap();
    for i in 1..=300u32 {
        c.update(b"roll", &i.to_le_bytes()).unwrap();
    }
    assert_eq!(
        c.search(b"roll").unwrap().as_deref(),
        Some(&300u32.to_le_bytes()[..])
    );
    store.shutdown();
}

#[test]
fn checkpoint_rounds_advance_index_versions() {
    let store = small_store();
    let mut c = store.client().unwrap();
    c.insert(b"k", b"v").unwrap();
    let r1 = store.checkpoint_tick().unwrap();
    assert_eq!(r1.len(), 5);
    for rep in &r1 {
        assert_eq!(rep.index_version, 1);
        assert!(rep.raw_len > 0);
    }
    let r2 = store.checkpoint_tick().unwrap();
    for rep in &r2 {
        assert_eq!(rep.index_version, 2);
        // Nothing changed since round 1: the delta is a single long zero
        // match (length extensions cost ~raw/255 bytes).
        assert!(
            rep.compressed_len < rep.raw_len / 100,
            "delta {} of raw {}",
            rep.compressed_len,
            rep.raw_len
        );
    }
    store.shutdown();
}

#[test]
fn mn_crash_recovery_preserves_all_data() {
    let store = small_store();
    let mut c = store.client().unwrap();
    let keys: Vec<String> = (0..600).map(|i| format!("pre-{i}")).collect();
    for k in &keys {
        c.insert(k.as_bytes(), k.as_bytes()).unwrap();
    }
    store.checkpoint_tick().unwrap();
    // Writes after the checkpoint must be recovered via versioning.
    let late: Vec<String> = (0..150).map(|i| format!("post-{i}")).collect();
    for k in &late {
        c.insert(k.as_bytes(), k.as_bytes()).unwrap();
    }
    for k in keys.iter().take(100) {
        c.update(k.as_bytes(), b"updated").unwrap();
    }
    c.close_open_blocks().unwrap();

    store.kill_mn(2);
    let report = recover_mn(&store, 2).unwrap();
    assert!(report.kv_count > 0);

    let mut fresh = store.client().unwrap();
    for k in keys.iter().take(100) {
        assert_eq!(
            fresh.search(k.as_bytes()).unwrap().as_deref(),
            Some(&b"updated"[..]),
            "{k}"
        );
    }
    for k in keys.iter().skip(100) {
        assert_eq!(
            fresh.search(k.as_bytes()).unwrap().as_deref(),
            Some(k.as_bytes()),
            "{k}"
        );
    }
    for k in &late {
        assert_eq!(
            fresh.search(k.as_bytes()).unwrap().as_deref(),
            Some(k.as_bytes()),
            "{k}"
        );
    }
    store.shutdown();
}

#[test]
fn degraded_search_works_before_block_tier() {
    // Like above, but the stale client keeps reading while blocks on the
    // dead MN are still unrecovered — exercising degraded SEARCH paths —
    // by killing the node and recovering only meta+index by hand is
    // internal; instead we verify post-recovery reads from the *old*
    // client whose cache still points at the dead node.
    let store = small_store();
    let mut c = store.client().unwrap();
    let keys: Vec<String> = (0..400).map(|i| format!("dg-{i}")).collect();
    for k in &keys {
        c.insert(k.as_bytes(), k.as_bytes()).unwrap();
    }
    c.close_open_blocks().unwrap();
    store.checkpoint_tick().unwrap();
    store.kill_mn(1);
    recover_mn(&store, 1).unwrap();
    // The old client's cache still holds pre-crash slot addresses.
    for k in &keys {
        assert_eq!(
            c.search(k.as_bytes()).unwrap().as_deref(),
            Some(k.as_bytes()),
            "{k}"
        );
    }
    store.shutdown();
}

#[test]
fn two_mn_crashes_recover() {
    let store = small_store();
    let mut c = store.client().unwrap();
    let keys: Vec<String> = (0..400).map(|i| format!("two-{i}")).collect();
    for k in &keys {
        c.insert(k.as_bytes(), k.as_bytes()).unwrap();
    }
    c.close_open_blocks().unwrap();
    store.checkpoint_tick().unwrap();

    store.kill_mn(0);
    store.kill_mn(3);
    recover_mn(&store, 0).unwrap();
    recover_mn(&store, 3).unwrap();

    let mut fresh = store.client().unwrap();
    for k in &keys {
        assert_eq!(
            fresh.search(k.as_bytes()).unwrap().as_deref(),
            Some(k.as_bytes()),
            "{k}"
        );
    }
    store.shutdown();
}

#[test]
fn cn_crash_before_commit_rolls_back() {
    let store = small_store();
    let mut c = store.client().unwrap();
    c.insert(b"victim", b"committed").unwrap();
    let cli_id = c.id();

    // Crash mid-write: KV written, deltas written, CAS never issued.
    c.crash_point = Some(aceso_core::client::CrashPoint::BeforeCommit);
    assert!(matches!(
        c.update(b"victim", b"torn"),
        Err(StoreError::Shutdown)
    ));
    drop(c);

    let mut revived = store.client_with_id(cli_id);
    let report = recover_cn(&store, cli_id).unwrap();
    assert!(report.blocks_checked > 0);
    // The committed value survives; the torn write never surfaces.
    assert_eq!(
        revived.search(b"victim").unwrap().as_deref(),
        Some(&b"committed"[..])
    );
    store.shutdown();
}

#[test]
fn cn_crash_after_kv_only_write_rolls_back() {
    let store = small_store();
    let mut c = store.client().unwrap();
    c.insert(b"victim2", b"committed").unwrap();
    let cli_id = c.id();

    c.crash_point = Some(aceso_core::client::CrashPoint::AfterKvWrite);
    assert!(matches!(
        c.update(b"victim2", b"half-written"),
        Err(StoreError::Shutdown)
    ));
    drop(c);

    let mut revived = store.client_with_id(cli_id);
    let report = recover_cn(&store, cli_id).unwrap();
    assert!(
        report.slots_repaired > 0,
        "the torn slot must be rolled back"
    );
    assert_eq!(
        revived.search(b"victim2").unwrap().as_deref(),
        Some(&b"committed"[..])
    );
    store.shutdown();
}

#[test]
fn memory_usage_accounts_parity_fraction() {
    let store = small_store();
    let mut c = store.client().unwrap();
    let val = vec![1u8; 200];
    for i in 0..1500u32 {
        c.insert(format!("mem-{i}").as_bytes(), &val).unwrap();
    }
    c.close_open_blocks().unwrap();
    let usage = store.memory_usage();
    assert!(usage.valid > 0);
    assert!(usage.redundancy > 0);
    // X-Code at n=5: parity : data-cells = 2 : 3 per array.
    let ratio = usage.redundancy as f64 / usage.data_allocated.max(1) as f64;
    assert!(ratio > 0.1, "parity should be material: {ratio}");
    store.shutdown();
}

#[test]
fn space_reclamation_reuses_blocks() {
    // Overwrite heavily with a small pool so reclamation must trigger.
    let mut cfg = AcesoConfig::small();
    cfg.num_arrays = 2; // 6 data blocks per MN → 30 total of 64 KB.
    let store = AcesoStore::launch(cfg).unwrap();
    let mut c = store.client().unwrap();
    let val = vec![3u8; 180]; // 256 B class → 256 slots per 64 KB block.
                              // 600 keys, then update each several times: obsolete slots accumulate
                              // and blocks must be reused rather than running out.
    for i in 0..600u32 {
        c.insert(format!("rc-{i}").as_bytes(), &val).unwrap();
    }
    for round in 0..20u32 {
        for i in 0..600u32 {
            let v = vec![(round + 1) as u8; 180];
            c.update(format!("rc-{i}").as_bytes(), &v).unwrap();
        }
        c.flush_bitmaps().unwrap();
    }
    for i in (0..600u32).step_by(53) {
        let got = c.search(format!("rc-{i}").as_bytes()).unwrap().unwrap();
        assert_eq!(got, vec![20u8; 180], "rc-{i}");
    }
    store.shutdown();
}

#[test]
fn mn_recovery_after_reclamation_still_correct() {
    let mut cfg = AcesoConfig::small();
    cfg.num_arrays = 2;
    let store = AcesoStore::launch(cfg).unwrap();
    let mut c = store.client().unwrap();
    let val = vec![9u8; 180];
    for i in 0..500u32 {
        c.insert(format!("rr-{i}").as_bytes(), &val).unwrap();
    }
    for round in 0..10u32 {
        for i in 0..500u32 {
            c.update(format!("rr-{i}").as_bytes(), &[round as u8 + 1; 180])
                .unwrap();
        }
        c.flush_bitmaps().unwrap();
    }
    c.close_open_blocks().unwrap();
    store.checkpoint_tick().unwrap();
    store.kill_mn(4);
    recover_mn(&store, 4).unwrap();
    let mut fresh = store.client().unwrap();
    for i in (0..500u32).step_by(41) {
        assert_eq!(
            fresh.search(format!("rr-{i}").as_bytes()).unwrap().unwrap(),
            vec![10u8; 180],
            "rr-{i}"
        );
    }
    store.shutdown();
}
