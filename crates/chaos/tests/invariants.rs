//! The invariant library can fail: each named invariant is handed a store
//! (or a read) that breaks it and must say so in the words the reports
//! and DESIGN.md quote — and stay silent on the healthy store first.

use aceso_chaos::axis::{chaos_config, Script};
use aceso_chaos::invariants::{
    no_open_degraded_window, oracle_agreement, parity_scrub, IvWatch, Oracle,
};
use aceso_core::{AcesoStore, RecoveryTier};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// A settled store holding `k00..k11`, the oracle that predicts it, and
/// the watch on its Index Versions.
fn settled() -> (Arc<AcesoStore>, Oracle, IvWatch) {
    let store = AcesoStore::launch(chaos_config()).expect("launch");
    let mut oracle = Oracle::default();
    let mut loader = store.client().expect("client");
    for j in 0..12u8 {
        let (k, v) = (format!("k{j:02}").into_bytes(), vec![b'v', j, j, j]);
        loader.insert(&k, &v).expect("insert");
        oracle.state.insert(k, v);
    }
    loader.close_open_blocks().expect("close");
    for _ in 0..2 {
        store.checkpoint_tick().expect("checkpoint");
    }
    let iv = IvWatch::capture(&store);
    (store, oracle, iv)
}

fn only(violations: &[String], needle: &str) {
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert!(violations[0].contains(needle), "{violations:?}");
}

#[test]
fn healthy_store_holds_every_invariant() {
    let (store, oracle, iv) = settled();
    let mut violations = Vec::new();
    let probes = [b"k03".to_vec()];
    let rng = StdRng::seed_from_u64(1);
    let script = Script {
        store,
        rng,
        oracle,
        iv,
    };
    script.judge(&[b"never"], &probes, &mut violations).unwrap();
    assert_eq!(violations, Vec::<String>::new());
}

#[test]
fn wrong_oracle_entry_is_an_oracle_mismatch() {
    let (store, mut oracle, _) = settled();
    oracle
        .state
        .insert(b"k05".to_vec(), b"not what was written".to_vec());
    let mut violations = Vec::new();
    oracle_agreement(&mut store.client().unwrap(), &oracle, &[], &mut violations);
    only(&violations, "oracle mismatch on k05");

    // A key the oracle never heard of must be absent.
    violations.clear();
    oracle.state.remove(b"k05".as_slice());
    oracle_agreement(
        &mut store.client().unwrap(),
        &oracle,
        &[b"k05"],
        &mut violations,
    );
    only(&violations, "oracle mismatch on k05");
    store.shutdown();
}

#[test]
fn ambiguity_window_admits_both_sides_and_nothing_else() {
    let mut oracle = Oracle::default();
    let (pre, post) = (Some(b"pre".to_vec()), Some(b"post".to_vec()));
    oracle.commit(b"k", pre.clone());
    oracle.interrupt(b"k", post.clone());
    assert_eq!(oracle.judge(b"k", &pre, "oracle mismatch"), None);
    assert_eq!(oracle.judge(b"k", &post, "oracle mismatch"), None);
    for outside in [None, Some(b"torn".to_vec())] {
        let v = oracle
            .judge(b"k", &outside, "oracle mismatch")
            .expect("outside the window");
        assert!(v.contains("key k outside ambiguity window"), "{v}");
    }
    // A read pins the collapsed state: afterwards only that side passes.
    let mut violations = Vec::new();
    oracle.observe(b"k", post.clone(), "search mismatch", &mut violations);
    assert!(violations.is_empty() && oracle.windows.is_empty());
    assert!(oracle
        .judge(b"k", &pre, "oracle mismatch")
        .unwrap()
        .contains("oracle mismatch on k"));
}

#[test]
fn iv_watch_above_the_current_version_reports_a_regression() {
    let (store, _, mut iv) = settled();
    iv.0[1] += 1;
    let mut violations = Vec::new();
    iv.check(&store, &mut violations);
    only(&violations, "index version regressed on col 1");
    store.shutdown();
}

#[test]
fn one_flipped_parity_word_is_a_dirty_scrub() {
    let (store, _, _) = settled();
    // The first written word of any PARITY cell (rows n-2 and n-1 of a
    // stripe array): an all-zero word belongs to a cell nothing encoded.
    let n = store.cfg.num_mns;
    let blocks = store.map.blocks;
    let cells = (0..n).flat_map(|col| [n - 2, n - 1].map(|row| (col, row)));
    let (col, off, word) = cells
        .map(|(col, row)| {
            let off = blocks.block_offset(blocks.cell_block_id(0, row));
            let mut word = [0u8; 8];
            store.server(col).node.region.read(off, &mut word).unwrap();
            (col, off, word)
        })
        .find(|(_, _, word)| *word != [0u8; 8])
        .expect("an encoded parity cell");
    let flipped = word.map(|b| !b);
    store.server(col).node.region.write(off, &flipped).unwrap();
    let mut violations = Vec::new();
    parity_scrub(&store, &mut store.client().unwrap(), &mut violations);
    only(&violations, "scrub dirty");
    store.shutdown();
}

#[test]
fn index_tier_only_recovery_leaves_a_degraded_window_open() {
    let (store, _, _) = settled();
    assert!(store.kill_mn(2));
    let mut held = store.begin_recovery(2).expect("replacement");
    held.run_to(RecoveryTier::Block).expect("index tier");
    let mut violations = Vec::new();
    no_open_degraded_window(&store, &mut violations);
    only(&violations, "degraded windows left open: [2]");
    store.shutdown();
}
