//! Property-based oracle test: arbitrary operation sequences against a
//! `HashMap` model, including mid-sequence checkpoints and an optional MN
//! crash + recovery, must always agree.

use aceso_core::{recover_mn, AcesoConfig, AcesoStore, StoreError};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::HashMap;

#[derive(Debug)]
enum OpSpec {
    Insert(u8, u8),
    Update(u8, u8),
    Delete(u8),
    Search(u8),
    Checkpoint,
}

fn random_op(rng: &mut StdRng) -> OpSpec {
    match rng.gen_range(0..11) {
        0..=2 => OpSpec::Insert(rng.gen(), rng.gen()),
        3..=5 => OpSpec::Update(rng.gen(), rng.gen()),
        6 => OpSpec::Delete(rng.gen()),
        7..=9 => OpSpec::Search(rng.gen()),
        _ => OpSpec::Checkpoint,
    }
}

fn key_of(k: u8) -> Vec<u8> {
    format!("oracle-key-{k:03}").into_bytes()
}

fn value_of(k: u8, v: u8) -> Vec<u8> {
    // Variable lengths cross size-class boundaries.
    let len = 1 + (k as usize * 7 + v as usize * 13) % 300;
    (0..len).map(|i| (i as u8) ^ v).collect()
}

#[test]
fn random_ops_match_hashmap_oracle() {
    for seed in 0..24 {
        one_case(seed).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

fn one_case(seed: u64) -> Result<(), StoreError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(1..120);
    let ops: Vec<OpSpec> = (0..n).map(|_| random_op(&mut rng)).collect();
    let (crash_col, do_crash) = (rng.gen_range(0..5), rng.gen::<bool>());
    let store = AcesoStore::launch(AcesoConfig::small())?;
    let mut client = store.client()?;
    let mut oracle: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();

    let split = ops.len() / 2;
    for (i, op) in ops.iter().enumerate() {
        match op {
            OpSpec::Insert(k, v) => {
                client.insert(&key_of(*k), &value_of(*k, *v))?;
                oracle.insert(key_of(*k), value_of(*k, *v));
            }
            OpSpec::Update(k, v) => match client.update(&key_of(*k), &value_of(*k, *v)) {
                Ok(()) => {
                    assert!(oracle.contains_key(&key_of(*k)), "seed {seed}");
                    oracle.insert(key_of(*k), value_of(*k, *v));
                }
                Err(StoreError::NotFound) => {
                    assert!(!oracle.contains_key(&key_of(*k)), "seed {seed}");
                }
                Err(e) => return Err(e),
            },
            OpSpec::Delete(k) => {
                let existed = client.delete(&key_of(*k))?;
                assert_eq!(existed, oracle.remove(&key_of(*k)).is_some(), "seed {seed}");
            }
            OpSpec::Search(k) => {
                let got = client.search(&key_of(*k))?;
                assert_eq!(got, oracle.get(&key_of(*k)).cloned(), "seed {seed}");
            }
            OpSpec::Checkpoint => {
                store.checkpoint_tick()?;
            }
        }
        // Optionally crash an MN halfway through and keep going.
        if do_crash && i == split {
            client.flush_bitmaps()?;
            store.checkpoint_tick()?;
            store.kill_mn(crash_col);
            recover_mn(&store, crash_col)?;
        }
    }
    // Final sweep: every oracle key must be present with its value, from a
    // fresh client (no cache).
    let mut fresh = store.client()?;
    for (k, v) in &oracle {
        let got = fresh.search(k)?;
        assert_eq!(got.as_deref(), Some(v.as_slice()), "seed {seed}");
    }
    store.shutdown();
    Ok(())
}
