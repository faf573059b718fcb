//! The store starts no thread of its own: MN servers are caller-runs
//! endpoints and recovery is a tier machine on the caller's thread, so
//! launch, traffic, a kill, every recovery tier and an elastic join +
//! drain all leave the process's thread count where it was. Alone in its
//! test binary so that no neighbouring test's threads are counted.
#![cfg(target_os = "linux")]

use aceso_core::{AcesoConfig, AcesoStore, RecoveryTier};

fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find(|l| l.starts_with("Threads:")).unwrap();
    line["Threads:".len()..].trim().parse().unwrap()
}

#[test]
fn store_without_auto_checkpoint_starts_no_thread() {
    let before = threads();
    let cfg = AcesoConfig::small();
    assert!(!cfg.auto_checkpoint);
    let store = AcesoStore::launch(cfg).unwrap();
    assert_eq!(threads(), before, "launch");

    let mut client = store.client().unwrap();
    for i in 0..600u32 {
        client
            .insert(format!("tf-{i}").as_bytes(), &[7u8; 200])
            .unwrap();
    }
    client.close_open_blocks().unwrap();
    store.checkpoint_tick().unwrap();
    assert_eq!(threads(), before, "traffic + checkpoint round");

    assert!(store.kill_mn(2));
    assert_eq!(threads(), before, "kill_mn");
    let mut recovery = store.begin_recovery(2).unwrap();
    loop {
        let tier = recovery.step().unwrap();
        assert_eq!(threads(), before, "recovery tier {tier:?}");
        if tier == RecoveryTier::Done {
            break;
        }
    }

    store.begin_join(1).unwrap().run().unwrap();
    store.begin_drain(3).unwrap().run().unwrap();
    assert_eq!(threads(), before, "elastic join + drain");

    let mut reader = store.client().unwrap();
    for i in 0..600u32 {
        let got = reader.search(format!("tf-{i}").as_bytes()).unwrap();
        assert_eq!(got.as_deref(), Some(&[7u8; 200][..]), "tf-{i}");
    }
    store.shutdown();
    assert_eq!(threads(), before, "shutdown");
}
