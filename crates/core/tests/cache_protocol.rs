//! Client index-cache protocol tests (PR 10): the capacity bound under
//! churn, and the deferred-invalidation queue surviving failed doorbell
//! batches.
//!
//! The invalidation tests drive the exact bug class this PR fixes: a
//! speculation loss defers three inline invalidation writes (Slot
//! Version ← −1 plus two XOR delta fix-ups), and any error path that
//! drops the taken queue leaves the lost-race KV readable forever. The
//! oracle is `AcesoStore::memory_usage().valid` with bitmap flushes held
//! back: a decodable, non-invalidated orphan counts as valid bytes.

use aceso_core::{AcesoConfig, AcesoStore, ClientTuning, StoreError};
use aceso_rdma::{FaultAction, FaultPlan, FaultRule, RdmaError, VerbKind};
use std::sync::Arc;

fn launch() -> Arc<AcesoStore> {
    AcesoStore::launch(AcesoConfig::small()).unwrap()
}

/// The cache never exceeds `cache_capacity`, no matter how many distinct
/// keys an insert/search/update churn pushes through it, and shrinking
/// the bound at runtime evicts down immediately. Before PR 10 the cache
/// was an unbounded `HashMap` — a long-lived client scanning a large
/// keyspace grew it without limit.
#[test]
fn cache_stays_bounded_under_churn() {
    let store = launch();
    let mut cli = store
        .client_with(ClientTuning {
            cache_capacity: 8,
            ..ClientTuning::default()
        })
        .unwrap();

    let keys: Vec<Vec<u8>> = (0..200)
        .map(|i| format!("churn-key-{i}").into_bytes())
        .collect();
    for k in &keys {
        cli.insert(k, b"churn-value").unwrap();
        assert!(cli.cache_len() <= 8, "insert churn broke the bound");
    }
    assert_eq!(cli.cache_len(), 8, "steady state should sit at capacity");

    for (i, k) in keys.iter().enumerate() {
        cli.search(k).unwrap();
        if i % 3 == 0 {
            cli.update(k, b"churn-value-2").unwrap();
        }
        assert!(cli.cache_len() <= 8, "search/update churn broke the bound");
    }

    // Runtime shrink evicts down; runtime grow keeps what is cached.
    cli.set_tuning(ClientTuning {
        cache_capacity: 3,
        ..ClientTuning::default()
    });
    assert!(cli.cache_len() <= 3, "shrink must evict down to the bound");
    cli.set_tuning(ClientTuning {
        cache_capacity: 0,
        ..ClientTuning::default()
    });
    assert_eq!(cli.cache_len(), 0, "capacity 0 disables caching");
    cli.search(&keys[0]).unwrap();
    assert_eq!(cli.cache_len(), 0, "capacity 0 must not re-fill");
    store.shutdown();
}

/// Failed doorbell batches must not drop deferred invalidations.
///
/// Client A holds a stale cache entry for a key client B has since
/// updated, so A's pipelined update loses its speculation: the first
/// batch writes a full KV image (the orphan) whose invalidation is
/// deferred into the redo batch. An injected fault fails the redo batch
/// at its first invalidation write, and a second injected fault fails
/// the end-of-op `flush_invals` drain too. Both paths used to drop the
/// taken queue (the write batches restored it only on epoch
/// fences; `flush_invals` never restored it) — the orphan then stayed a
/// decodable, valid-versioned KV forever. With the queue restored, the
/// next successful batch carries the stamps for free.
#[test]
fn failed_batches_do_not_drop_deferred_invalidations() {
    let store = launch();
    let mut a = store.client().unwrap();
    let mut b = store.client().unwrap();
    let k = b"inval-key";

    a.insert(k, b"v1").unwrap();
    let one_slot = store.memory_usage().valid;
    b.update(k, b"v2").unwrap();
    // B's obsolete mark for v1's slot stays buffered (no bitmap flush),
    // so `valid` sees both images: the byte size of one KV slot is the
    // difference, and every assertion below is phrased in those units.
    let baseline = store.memory_usage().valid;
    let slot_bytes = baseline - one_slot;
    assert!(slot_bytes > 0);

    // A's update speculates on its cached (now stale) slot words.
    // Batch 1 (KV write + two delta copies = writes 1..=3) lands the
    // orphan; the redo batch's first verb-4 write is the orphan's
    // invalidation stamp — fail it, then fail the first write of the
    // end-of-op drain as well. Both rules skip 3 matches: a firing rule
    // returns before later rules' counters advance, so rule 2 never
    // observes the write rule 1 killed and trips on the drain's first
    // write instead.
    let plan = FaultPlan::with_rules(vec![
        FaultRule::new(FaultAction::Fail)
            .on_kind(VerbKind::Write)
            .after(3),
        FaultRule::new(FaultAction::Fail)
            .on_kind(VerbKind::Write)
            .after(3),
    ]);
    a.dm.install_fault_plan(Arc::clone(&plan));
    let r = a.update(k, b"v3");
    assert!(
        matches!(r, Err(StoreError::Rdma(RdmaError::Injected { .. }))),
        "update must surface the injected fault: {r:?}"
    );
    assert_eq!(plan.fired_count(), 2, "both injected faults must fire");

    // The orphan KV landed with a valid slot version and its stamps are
    // still queued: exactly one extra slot's bytes are (transiently)
    // valid.
    assert_eq!(store.memory_usage().valid, baseline + slot_bytes);

    // The next successful operation drains the restored queue in its own
    // write batch: v4 commits (one new valid slot) and the orphan is
    // stamped invalid (one slot leaves), so `valid` grows by exactly one
    // slot over the baseline. Before the fix it grew by two — the orphan
    // stayed readable-valid forever.
    a.update(k, b"v4").unwrap();
    assert_eq!(
        store.memory_usage().valid,
        baseline + slot_bytes,
        "deferred invalidation was dropped: the lost-race orphan is still valid"
    );
    assert_eq!(a.search(k).unwrap().as_deref(), Some(&b"v4"[..]));

    // The invalidation triplet (KV stamp + both delta fix-ups) rode one
    // batch, so parity stayed linear throughout.
    let report = aceso_core::scrub(&store).unwrap();
    assert!(report.is_clean(), "inval fix-ups broke parity: {report:?}");
    store.shutdown();
}
