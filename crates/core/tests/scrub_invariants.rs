//! Scrub-based invariant tests: after any workload or recovery, every
//! parity equation must hold and every delta pair must agree — i.e. the
//! store is always decodable without actually failing a node.

use aceso_blockalloc::Role;
use aceso_core::{recover_mn, scrub, AcesoConfig, AcesoStore};
use std::sync::Arc;

fn small() -> Arc<AcesoStore> {
    AcesoStore::launch(AcesoConfig::small()).unwrap()
}

#[test]
fn scrub_clean_after_bulk_insert() {
    let store = small();
    let mut c = store.client().unwrap();
    let val = vec![3u8; 700];
    for i in 0..500u32 {
        c.insert(format!("sc-{i}").as_bytes(), &val).unwrap();
    }
    // Mixed state: some blocks closed (encoded), some still open (deltas).
    let r = scrub(&store).unwrap();
    assert!(r.is_clean(), "{r:?}");
    assert!(r.arrays_checked > 0);

    c.close_open_blocks().unwrap();
    let r = scrub(&store).unwrap();
    assert!(r.is_clean(), "{r:?}");
    assert!(
        r.parity_ok > 0,
        "closed blocks must have live parity: {r:?}"
    );
    store.shutdown();
}

#[test]
fn scrub_clean_after_updates_and_deletes() {
    let store = small();
    let mut c = store.client().unwrap();
    let val = vec![9u8; 700];
    for i in 0..300u32 {
        c.insert(format!("sd-{i}").as_bytes(), &val).unwrap();
    }
    for i in 0..300u32 {
        c.update(format!("sd-{i}").as_bytes(), &vec![1u8; 700])
            .unwrap();
    }
    for i in (0..300u32).step_by(3) {
        c.delete(format!("sd-{i}").as_bytes()).unwrap();
    }
    c.flush_bitmaps().unwrap();
    let r = scrub(&store).unwrap();
    assert!(r.is_clean(), "{r:?}");
    store.shutdown();
}

#[test]
fn scrub_clean_after_reclamation() {
    let mut cfg = AcesoConfig::small();
    cfg.num_arrays = 2;
    let store = AcesoStore::launch(cfg).unwrap();
    let mut c = store.client().unwrap();
    let val = vec![7u8; 180];
    for i in 0..500u32 {
        c.insert(format!("sr-{i}").as_bytes(), &val).unwrap();
    }
    for round in 0..8u32 {
        for i in 0..500u32 {
            c.update(format!("sr-{i}").as_bytes(), &[round as u8; 180])
                .unwrap();
        }
        c.flush_bitmaps().unwrap();
    }
    // Reclamation has rewritten obsolete slots and patched parity via
    // deltas: every equation must still hold.
    let r = scrub(&store).unwrap();
    assert!(r.is_clean(), "{r:?}");
    store.shutdown();
}

#[test]
fn scrub_clean_after_mn_recovery() {
    let store = small();
    let mut c = store.client().unwrap();
    let val = vec![5u8; 700];
    for i in 0..400u32 {
        c.insert(format!("sm-{i}").as_bytes(), &val).unwrap();
    }
    c.close_open_blocks().unwrap();
    store.checkpoint_tick().unwrap();
    store.checkpoint_tick().unwrap();
    store.kill_mn(1);
    recover_mn(&store, 1).unwrap();
    // Full recovery (incl. parity + delta rebuild): all equations hold on
    // the replacement node too.
    let r = scrub(&store).unwrap();
    assert!(r.is_clean(), "{r:?}");
    assert!(r.parity_ok > 0);
    store.shutdown();
}

/// Two clients taking turns on the same hot keys lose commit races often
/// (a cached slot is stale once the other client has updated the key). A
/// lost race queues the loser's invalidation stamp with its two delta
/// fix-ups; when the loser sat in the last slot of its block, the redo's
/// slot allocation must not close that block — folding and freeing its
/// DELTA blocks — before the fix-ups have landed, or parity keeps the
/// image they were meant to cancel.
#[test]
fn scrub_clean_after_lost_commit_races() {
    const KEYS: usize = 50;
    const OPS: usize = 3_000;
    let store = small();
    let mut clients = [store.client().unwrap(), store.client().unwrap()];
    let key = |k: usize| format!("race-{k}").into_bytes();
    let value = |op: usize| vec![(op % 251) as u8 + 1; 900];
    for k in 0..KEYS {
        clients[0].insert(&key(k), &value(k)).unwrap();
    }
    // Seeded key choice: whether a turn finds its cache stale (two slots
    // used) or fresh (one) varies, so lost races reach every slot position.
    let mut last = [0usize; KEYS];
    let mut x = 0xace50u64;
    for op in 0..OPS {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let k = (x >> 33) as usize % KEYS;
        clients[op % 2].update(&key(k), &value(op)).unwrap();
        last[k] = op;
    }
    let r = scrub(&store).unwrap();
    assert!(r.is_clean(), "{r:?}");
    for (k, &op) in last.iter().enumerate() {
        let want = if op == 0 { value(k) } else { value(op) };
        assert_eq!(clients[0].search(&key(k)).unwrap(), Some(want), "key {k}");
    }
    store.shutdown();
}

/// The store of the two tests below: 120 × 900 B inserts and 60 updates on
/// `AcesoConfig::small()`, blocks closed — six allocated PARITY cells, two
/// of them on columns *lower* than every data block of their array.
fn sparse_arrays() -> Arc<AcesoStore> {
    let store = small();
    let mut c = store.client().unwrap();
    for i in 0..120u32 {
        c.insert(format!("sp-{i}").as_bytes(), &[0x5A; 900])
            .unwrap();
    }
    for i in 0..60u32 {
        c.update(format!("sp-{i}").as_bytes(), &[0xA5; 900])
            .unwrap();
    }
    c.close_open_blocks().unwrap();
    store
}

/// `(column, block id, stripe array)` of every allocated PARITY cell.
fn parity_cells(store: &AcesoStore) -> Vec<(usize, u32, u64)> {
    let mut cells = Vec::new();
    for col in 0..store.cfg.num_mns {
        let server = store.server(col);
        let recs = server.records.lock();
        for (id, rec) in recs.iter().enumerate() {
            if rec.role == Role::Parity {
                cells.push((col, id as u32, rec.stripe_array));
            }
        }
    }
    cells
}

/// Every allocated parity equation is checked, wherever its PARITY cell
/// sits. (The scrubber used to fetch a column's parity records only for
/// the arrays it had already seen on columns ≤ it: 4 of these 6.)
#[test]
fn scrub_checks_every_allocated_parity_equation() {
    let store = sparse_arrays();
    let allocated = parity_cells(&store).len();
    assert!(allocated > 0);
    let r = scrub(&store).unwrap();
    assert!(r.is_clean(), "{r:?}");
    assert_eq!(r.parity_ok + r.parity_mismatch, allocated, "{r:?}");
    store.shutdown();
}

/// A flipped word in a PARITY cell that sits on a column lower than every
/// data block of its array is reported, like any other.
#[test]
fn scrub_reports_a_flipped_word_below_its_arrays_data() {
    let store = sparse_arrays();
    let lowest_data_col = |array: u64| {
        (0..store.cfg.num_mns).find(|&col| {
            let server = store.server(col);
            let recs = server.records.lock();
            recs.iter()
                .any(|r| r.role == Role::Data && r.stripe_array == array)
        })
    };
    let (col, id, _) = parity_cells(&store)
        .into_iter()
        .find(|&(col, _, array)| lowest_data_col(array).is_some_and(|c| col < c))
        .expect("a PARITY cell below its array's data");
    let region = &store.server(col).node.region;
    let off = store.map.blocks.block_offset(id);
    region.store64(off, !region.load64(off).unwrap()).unwrap();
    let r = scrub(&store).unwrap();
    assert_eq!(r.parity_mismatch, 1, "{r:?}");
    store.shutdown();
}
