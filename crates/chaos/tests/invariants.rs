//! The invariant library can fail: each named invariant is handed a store
//! (or a read) that breaks it and must say so in the words the reports
//! and DESIGN.md quote — and stay silent on the healthy store first. The
//! three store-level classes are Aceso's `FtEngine::check`.

use aceso_chaos::axis::{chaos_config, Script};
use aceso_chaos::invariants::{oracle_agreement, Oracle};
use aceso_core::{AcesoEngine, AcesoStore, FtEngine, RecoveryTier};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A settled engine holding `k00..k11`, its bitmaps flushed and two ticks
/// taken (so it has recorded every column's Index Version), and the oracle
/// that predicts it.
fn settled() -> (AcesoEngine, Oracle) {
    let eng = AcesoEngine::new(AcesoStore::launch(chaos_config()).expect("launch"));
    let mut oracle = Oracle::default();
    let mut loader = eng.store().client().expect("client");
    for j in 0..12u8 {
        let (k, v) = (format!("k{j:02}").into_bytes(), vec![b'v', j, j, j]);
        loader.insert(&k, &v).expect("insert");
        oracle.state.insert(k, v);
    }
    loader.close_open_blocks().expect("close");
    loader.flush_bitmaps().expect("flush");
    for _ in 0..2 {
        eng.tick().expect("checkpoint");
    }
    (eng, oracle)
}

fn only(violations: &[String], needle: &str) {
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert!(violations[0].contains(needle), "{violations:?}");
}

#[test]
fn healthy_store_holds_every_invariant() {
    let (eng, oracle) = settled();
    let mut violations = Vec::new();
    let probes = [b"k03".to_vec()];
    let rng = StdRng::seed_from_u64(1);
    let script = Script {
        eng: Box::new(eng),
        rng,
        oracle,
    };
    script.judge(&[b"never"], &probes, &mut violations).unwrap();
    assert_eq!(violations, Vec::<String>::new());
}

#[test]
fn wrong_oracle_entry_is_an_oracle_mismatch() {
    let (eng, mut oracle) = settled();
    let store = eng.store();
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
fn index_version_below_the_last_tick_is_a_regression() {
    let (eng, _) = settled();
    let server = eng.store().server(1);
    let (index, region) = (&server.index, &server.node.region);
    let v = index.local_index_version(region);
    index.local_set_index_version(region, v - 1);
    let violations = eng.check().unwrap();
    let regressed = format!("index version regressed on col 1: {v} -> {}", v - 1);
    assert_eq!(violations, [regressed]);
    eng.shutdown();
}

#[test]
fn one_flipped_parity_word_is_a_dirty_scrub() {
    let (eng, _) = settled();
    let store = eng.store();
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
    only(&eng.check().unwrap(), "scrub dirty");
    eng.shutdown();
}

#[test]
fn index_tier_only_recovery_leaves_a_degraded_window_open() {
    let (eng, _) = settled();
    assert!(eng.kill_column(2));
    let mut held = eng.store().begin_recovery(2).expect("replacement");
    held.run_to(RecoveryTier::Block).expect("index tier");
    let violations = eng.check().unwrap();
    let open = "degraded windows left open: [2]".to_string();
    assert!(violations.contains(&open), "{violations:?}");
    eng.shutdown();
}
