//! The micro figures compare like for like — equal KV size class, equal
//! client cache — and the verdicts that rests on are orderings a test can
//! hold (ROADMAP item 3a's first rows): never digits, which belong to the
//! regenerated `results/fig*.txt`.

use aceso_bench::figs::fig13::factor_steps;
use aceso_bench::harness::{self, micro_phase, BenchScale, Phase, System};
use aceso_core::{kv, ClientTuning};
use aceso_engines::fusee::FuseeStore;
use aceso_engines::substrate::ReplConfig;
use aceso_index::fingerprint;
use aceso_rdma::stats::OpRecord;
use aceso_workloads::{key_bytes, micro_key, Op};

/// A micro pair and a YCSB pair of the default value length are the
/// paper's 1024 B KV in both systems: Aceso's 16 B header + 16 B key +
/// value + trailer is class 16 (× 64 B), FUSEE's 8 B header + key + value
/// a 1024 B record.
#[test]
fn micro_and_ycsb_pairs_share_the_1024_byte_class() {
    let value_len = BenchScale::default().value_len;
    let store = FuseeStore::launch(ReplConfig::small());
    let (mut client, dm) = (store.client(), store.cluster.client());
    for key in [micro_key(1, 19_999), key_bytes(19_999)] {
        assert_eq!(kv::class_for(key.len(), value_len).unwrap(), 16);
        client.insert(&key, &vec![7; value_len]).unwrap();
        let col = store.replica_cols(&key)[0];
        let scan = store
            .layout
            .scan(&dm, store.node_of(col), col, &key, fingerprint(&key))
            .unwrap();
        let lens: Vec<_> = scan.matches.iter().map(|m| m.slot.record_len()).collect();
        assert!(
            !lens.is_empty() && lens.iter().all(|&l| l == 1024),
            "{lens:?}"
        );
    }
}

/// Mean of one per-op count over a phase's records.
fn per_op(phase: &Phase, count: impl Fn(&OpRecord) -> u32) -> f64 {
    let sum: u64 = phase.m.records.iter().map(|r| count(r) as u64).sum();
    sum as f64 / phase.m.records.len() as f64
}

/// The shapes the like-for-like figures restored, at a scale whose keys
/// outnumber every client's cache twice over so the cold rows are cold
/// (FUSEE's blocks cut to what that scale fills: a debug build spends
/// seconds zeroing the bench configuration's 2 GB).
#[test]
fn factor_analysis_and_search_rows_keep_their_shape() {
    let keys = 2 * ClientTuning::default().cache_capacity;
    let scale = BenchScale {
        keys: keys as u64,
        ops: keys,
        warmup: keys,
        ..BenchScale::default()
    };
    let aceso = harness::bench_aceso_config();
    let fusee = ReplConfig {
        blocks_per_mn: 160,
        ..harness::bench_fusee_config()
    };

    let steps = factor_steps(scale, aceso.clone(), fusee.clone());
    let names: Vec<_> = steps.iter().map(|s| s.0).collect();
    assert_eq!(names, ["ORIGIN", "+SLOT", "+CKPT", "+CACHE"]);
    let mops: Vec<_> = steps
        .iter()
        .map(|(_, update, search)| (update.report().mops, search.report().mops))
        .collect();
    let [origin, slot, ckpt, full] = mops[..] else {
        unreachable!()
    };
    assert!(
        slot.1 < origin.1,
        "SEARCH: wider slots cost bandwidth {mops:?}"
    );
    assert!(
        full.1 > ckpt.1,
        "SEARCH: the slot-address cache pays {mops:?}"
    );
    assert!(ckpt.0 > slot.0, "UPDATE: one CAS beats r {mops:?}");
    // ORIGIN and +CACHE are FUSEE and Aceso as shipped — fig8's hot SEARCH
    // row. At equal hit rate (equal caches, one stream) Aceso validates a
    // hit with the 16 B slot where FUSEE re-reads 256 B of buckets; which
    // MN draws the hottest keys moves both Mops figures, the bytes never.
    let (fusee_hot, aceso_hot) = (&steps[0].2, &steps[3].2);
    let rtts = [aceso_hot, fusee_hot].map(|p| per_op(p, |r| r.rtts));
    assert_eq!(rtts[0], rtts[1], "hot SEARCH: equal caches, equal hits");
    assert!(per_op(aceso_hot, |r| r.read_bytes) < per_op(fusee_hot, |r| r.read_bytes));
    assert!(full.1 >= origin.1, "hot SEARCH: Aceso ≥ FUSEE {mops:?}");

    // Cold SEARCH: a miss is a miss in either system, scan then read — to
    // the digit fig8 prints (a second fingerprint match costs FUSEE a third
    // round trip on a handful of keys).
    let pair = [
        System::aceso(aceso, ClientTuning::default()),
        System::fusee(fusee),
    ];
    let cold = pair.map(|sys| micro_phase(&sys, scale, Op::Search, System::ckpt_bg));
    assert_eq!(
        cold.map(|p| format!("{:.1}", per_op(&p, |r| r.rtts))),
        ["2.0", "2.0"]
    );
}
