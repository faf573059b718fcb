//! Behavioral tests of the FUSEE baseline's cost knobs.

use aceso_engines::fusee::FuseeStore;
use aceso_engines::substrate::ReplConfig;
use std::sync::Arc;

/// Wide (16 B) slots double bucket-read bytes without changing semantics —
/// the `+SLOT` factor-analysis step.
#[test]
fn wide_slots_cost_more_bytes_same_semantics() {
    let mut read_bytes = [0u64; 2];
    for (i, wide) in [false, true].into_iter().enumerate() {
        let store = FuseeStore::launch(ReplConfig {
            wide_slots: wide,
            ..ReplConfig::small()
        });
        let mut c = store.client();
        c.insert(b"wkey", b"wvalue").unwrap();
        // A cache-cold client's search scans the buckets.
        let mut c = store.client();
        assert_eq!(c.search(b"wkey").unwrap().as_deref(), Some(&b"wvalue"[..]));
        let ops = c.dm.take_ops();
        read_bytes[i] = ops.records.iter().map(|r| u64::from(r.read_bytes)).sum();
    }
    assert!(
        read_bytes[1] > read_bytes[0],
        "wide slots must charge more bucket bytes: {read_bytes:?}"
    );
}

/// The value cache returns stale-free results after foreign updates.
#[test]
fn value_cache_sees_foreign_updates() {
    let store = FuseeStore::launch(ReplConfig::small());
    let mut a = store.client();
    let mut b = store.client();
    a.insert(b"fk", b"v1").unwrap();
    assert_eq!(b.search(b"fk").unwrap().as_deref(), Some(&b"v1"[..]));
    a.update(b"fk", b"v2").unwrap();
    assert_eq!(
        b.search(b"fk").unwrap().as_deref(),
        Some(&b"v2"[..]),
        "b's cached address is stale; validation must chase the new slot"
    );
}

/// r=1 degenerates to no redundancy but still works.
#[test]
fn single_replica_mode_works() {
    let store = FuseeStore::launch(ReplConfig {
        replicas: 1,
        ..ReplConfig::small()
    });
    let mut c = store.client();
    for i in 0..200u32 {
        let k = format!("r1-{i}");
        c.insert(k.as_bytes(), k.as_bytes()).unwrap();
    }
    for i in (0..200u32).step_by(17) {
        let k = format!("r1-{i}");
        assert_eq!(
            c.search(k.as_bytes()).unwrap().as_deref(),
            Some(k.as_bytes())
        );
    }
}

/// Racing writers of one key converge on a value one of them wrote (the
/// primary CAS is the commit point). Lives here, not in `src/`, because
/// `crates/engines/src` is linted thread-free.
#[test]
fn concurrent_updates_converge_on_primary() {
    let s = FuseeStore::launch(ReplConfig::small());
    let mut c0 = s.client();
    c0.insert(b"hot", &0u64.to_le_bytes()).unwrap();
    let threads: Vec<_> = (0..4)
        .map(|t| {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                let mut c = s.client();
                for i in 0..100u64 {
                    c.update(b"hot", &(t * 1000 + i).to_le_bytes()).unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let v = c0.search(b"hot").unwrap().unwrap();
    let x = u64::from_le_bytes(v.try_into().unwrap());
    assert!(x / 1000 < 4 && x % 1000 < 100);
}
