//! White-box tests of the Index Version protocol (§3.2.3): block stamps,
//! checkpoint labels, and the old/new classification recovery relies on.

use aceso_blockalloc::{BlockRecord, Role};
use aceso_core::{read_records, AcesoConfig, AcesoStore};
use aceso_rdma::GlobalAddr;
use std::sync::Arc;

fn store() -> Arc<AcesoStore> {
    AcesoStore::launch(AcesoConfig::small()).unwrap()
}

fn data_records(store: &Arc<AcesoStore>, col: usize) -> Vec<(u32, BlockRecord)> {
    let dm = store.cluster.background_client();
    let ids = store.map.blocks.record_ids();
    let recs = read_records(store, &dm, col, 0, ids.clone()).unwrap();
    let data = ids.zip(recs).filter(|(_, rec)| rec.role == Role::Data);
    data.collect()
}

/// Index Versions start at 1, tick in lockstep across columns, and blocks
/// are stamped with the IV current at fill time.
#[test]
fn index_versions_tick_in_lockstep_and_stamp_blocks() {
    let store = store();
    // All partitions start at IV 1.
    for col in 0..5 {
        let s = store.server(col);
        assert_eq!(s.index.local_index_version(&s.node.region), 1);
    }
    let mut c = store.client().unwrap();
    let val = vec![1u8; 900];
    for i in 0..200u32 {
        c.insert(format!("iv-a-{i}").as_bytes(), &val).unwrap();
    }
    c.close_open_blocks().unwrap(); // Stamped with IV 1.

    let r1 = store.checkpoint_tick().unwrap();
    assert!(r1.iter().all(|r| r.index_version == 1));
    for col in 0..5 {
        let s = store.server(col);
        assert_eq!(s.index.local_index_version(&s.node.region), 2);
    }

    for i in 0..200u32 {
        c.insert(format!("iv-b-{i}").as_bytes(), &val).unwrap();
    }
    c.close_open_blocks().unwrap(); // Stamped with IV 2.

    let mut stamps: Vec<u64> = Vec::new();
    for col in 0..5 {
        for (_, rec) in data_records(&store, col) {
            if rec.role == Role::Data && rec.index_version != 0 {
                stamps.push(rec.index_version);
            }
        }
    }
    assert!(
        stamps.contains(&1),
        "first batch stamped at IV 1: {stamps:?}"
    );
    assert!(
        stamps.contains(&2),
        "second batch stamped at IV 2: {stamps:?}"
    );
    assert!(stamps.iter().all(|&s| s == 1 || s == 2));
    store.shutdown();
}

/// Unfilled blocks keep Index Version 0 — the marker recovery uses to scan
/// them unconditionally.
#[test]
fn open_blocks_have_version_zero() {
    let store = store();
    let mut c = store.client().unwrap();
    c.insert(b"open-block-key", &[7u8; 900]).unwrap();
    // Do NOT close: the open block must be unstamped.
    let mut zeros = 0;
    for col in 0..5 {
        for (_, rec) in data_records(&store, col) {
            if rec.index_version == 0 {
                zeros += 1;
            }
        }
    }
    assert!(zeros >= 1, "the client's open block must carry IV 0");
    store.shutdown();
}

/// Checkpoint labels equal the IV *before* the round's bump: round k ships
/// a checkpoint labeled k while the live index moves to k+1 — recovery
/// then skips exactly the blocks stamped `< k`.
#[test]
fn checkpoint_label_lags_live_version_by_one() {
    let store = store();
    for round in 1..=4u64 {
        let reps = store.checkpoint_tick().unwrap();
        for r in &reps {
            assert_eq!(r.index_version, round);
        }
        for col in 0..5 {
            let s = store.server(col);
            assert_eq!(s.index.local_index_version(&s.node.region), round + 1);
        }
    }
    // Column 1's Checkpoint Area holds column 0's checkpoint, with the last
    // label in its Index Version word.
    let dm = store.cluster.background_client();
    let word = GlobalAddr::new(
        store.directory().node_of(1),
        store.map.ckpt.index_version_offset(),
    );
    let index_version = dm.read_u64(word).unwrap();
    assert_eq!(index_version, 4);
    store.shutdown();
}
